#!/usr/bin/env bash
# Runs the window_kernel benchmark (prepared run-plan kernel vs the
# reference per-cell loop, plus the cold plan build) and records the
# medians plus the speedup ratios to BENCH_window_kernel.json. The vendored
# criterion stub prints lines of the form:
#   name: median 1.23 us mean 1.25 us (20 samples x 813 iters)
# Exits non-zero, writing nothing, when any expected row is missing.
set -euo pipefail
cd "$(dirname "$0")/.."

out="BENCH_window_kernel.json"
log="$(cargo bench -p dstress-bench --bench window_kernel 2>&1)"
echo "$log"

printf '%s\n' "$log" | python3 -c "
import json
import re
import sys

UNITS = {\"ns\": 1.0, \"us\": 1e3, \"ms\": 1e6, \"s\": 1e9}
medians = {}
for line in sys.stdin:
    m = re.match(r\"^(\S+): median ([\d.]+) (ns|us|ms|s) mean\", line.strip())
    if m:
        medians[m.group(1)] = float(m.group(2)) * UNITS[m.group(3)]

EXPECTED = (\"window/reference\", \"window/planned\", \"run/reference\",
            \"run/prepared\", \"plan/cold\")
missing = [name for name in EXPECTED if name not in medians]
if missing:
    sys.exit(\"missing bench rows: \" + \", \".join(missing))

report = {\"median_ns\": medians, \"speedup\": {}}
for scope, fast_name in ((\"window\", \"planned\"), (\"run\", \"prepared\")):
    ref = medians[scope + \"/reference\"]
    fast = medians[scope + \"/\" + fast_name]
    report[\"speedup\"][scope] = round(ref / fast, 2)

with open(sys.argv[1], \"w\") as f:
    json.dump(report, f, indent=2)
    f.write(\"\n\")
print(\"wrote \" + sys.argv[1] + \": speedups \" + json.dumps(report[\"speedup\"]))
" "$out"
