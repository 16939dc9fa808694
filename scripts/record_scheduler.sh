#!/usr/bin/env bash
# Runs the scheduler benchmark (the persistent work-stealing pool at 1, 4
# and 8 workers, plus multi-campaign multiplexing) and records the medians
# and the multiplexing ratios to BENCH_scheduler.json. The vendored
# criterion stub prints lines of the form:
#   name: median 1.23 us mean 1.25 us (20 samples x 813 iters)
set -euo pipefail
cd "$(dirname "$0")/.."

out="BENCH_scheduler.json"
log="$(cargo bench -p dstress-bench --bench scheduler 2>&1)"
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

report = {\"median_ns\": medians, \"speedup\": {}}
for n in (2, 4):
    serial = medians.get(f\"scheduler/serial{n}_w8\")
    multiplex = medians.get(f\"scheduler/multiplex{n}_w8\")
    if serial and multiplex:
        report[\"speedup\"][f\"multiplex{n}_w8\"] = round(serial / multiplex, 2)

with open(sys.argv[1], \"w\") as f:
    json.dump(report, f, indent=2)
    f.write(\"\n\")
print(\"wrote \" + sys.argv[1] + \": speedups \" + json.dumps(report[\"speedup\"]))
" "$out"
