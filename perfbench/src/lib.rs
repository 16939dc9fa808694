//! End-to-end benchmark of the DStress reproduction.
//!
//! Two workloads run from one process, each measured from the outside
//! through the library's public API:
//!
//! * `word64` — the paper-scale 64-bit data-pattern search. Every
//!   candidate writes the same addresses, so the replay-profile cache
//!   always hits and the `dram` plan build and window kernel dominate.
//! * `access` — the paper-scale access-template-1 search over profiled
//!   victim rows. Every candidate records a different trace, so the VM,
//!   trace recording and profile build carry a larger share.
//!
//! A plain run (`trace = false`) reports the end-to-end metrics; a traced
//! run reports per-layer metrics gathered by timing calls into `vpl`,
//! `platform`, `dram`, `ga`, `core::evaluate` and `core::service` from the
//! benchmark's own code. The `journal` and `service` layers are measured on
//! an in-process `dstressd` that a traced run drives beside its search. See
//! `README.md` beside this crate.

pub mod search;
mod service;
mod stats;
mod trace;

use dstress::ExperimentScale;
use std::fmt::Write as _;
use std::path::PathBuf;

/// DIMM2 temperature every workload runs at (°C).
pub(crate) const TEMP_C: f64 = 60.0;
/// Evaluation workers per search and per daemon.
pub(crate) const WORKERS: usize = 2;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-scale 64-bit data-pattern search.
    Word64,
    /// Paper-scale access-template-1 search.
    Access,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Word64, Workload::Access];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Word64 => "word64",
            Workload::Access => "access",
        }
    }
}

/// How one benchmark run is driven.
#[derive(Debug, Clone)]
pub struct Config {
    /// Scale of the searches; the traced run's daemon always runs
    /// quick-scale campaigns.
    pub scale: ExperimentScale,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Directory for files the run writes (the traced run's daemon
    /// registry); created and removed by the run.
    pub scratch: PathBuf,
    /// Digest the default-seed search must reproduce; `None` uses the
    /// recorded value for the scale. Tests override it to prove the gate.
    pub expected_digest: Option<u64>,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The outcome of one run: what its result line reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Evaluations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Everything the correctness gate found wrong; empty when correct.
    pub problems: Vec<String>,
    /// The metrics, in print order.
    pub metrics: Vec<Measurement>,
}

impl Report {
    /// Whether the correctness gate passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Measurement { name, value, unit });
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Rust prints the shortest representation that round-trips,
            // so every measured digit survives.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Runs one workload.
///
/// # Errors
///
/// A description of a failure that prevented measuring at all (a search
/// or daemon error); gate failures are reported in [`Report::problems`].
pub fn run(workload: Workload, config: &Config) -> Result<Report, String> {
    let ticks = stats::cpu_ticks();
    let mut report = if config.trace {
        search::run_traced(workload, config)?
    } else {
        search::run(workload, config)?
    };
    if let Some(steal) = stats::steal_share(ticks, stats::cpu_ticks()) {
        eprintln!(
            "{}: the hypervisor stole {:.1} % of CPU time during the run",
            workload.name(),
            steal * 100.0
        );
    }
    if !config.trace {
        let ok = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
        report.push("success_ratio", ok, "ratio");
    }
    Ok(report)
}

/// End-to-end metrics every plain run prints, with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("search_s", "s"),
    ("evals_per_s", "1/s"),
    ("generation_p50_ms", "ms"),
    ("generation_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("success_ratio", "ratio"),
];

/// Per-layer metrics every traced run prints, with their units.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("vpl.instantiate_us", "us"),
    ("vpl.compile_us", "us"),
    ("vpl.vm_record_us", "us"),
    ("vpl.trace_ops", "count"),
    ("platform.reset_us", "us"),
    ("platform.profile_us", "us"),
    ("platform.trace_repeat_ratio", "ratio"),
    ("dram.plan_us", "us"),
    ("dram.plan_target_us", "us"),
    ("dram.window_kernel_us", "us"),
    ("dram.vrt_cells", "count"),
    ("dram.static_words", "count"),
    ("evaluate.eval_p50_us", "us"),
    ("evaluate.eval_p90_us", "us"),
    ("evaluate.unattributed_share", "ratio"),
    ("ga.generations", "count"),
    ("ga.evaluations", "count"),
    ("ga.cache_hit_ratio", "ratio"),
    ("ga.engine_overhead_ms_per_gen", "ms"),
    ("pool.steals", "count"),
    ("pool.max_idle_ms", "ms"),
    ("pool.task_skew", "ratio"),
    ("journal.syncs", "count"),
    ("journal.sync_p50_us", "us"),
    ("journal.append_bytes", "bytes"),
    ("journal.sync_share", "ratio"),
    ("service.submit_ack_ms", "ms"),
    ("service.watch_ack_ms", "ms"),
    ("service.first_event_p50_ms", "ms"),
    ("service.first_event_p90_ms", "ms"),
    ("service.campaign_p90_ms", "ms"),
    ("service.event_gap_p50_ms", "ms"),
    ("service.event_gap_p90_ms", "ms"),
    ("service.lagged_events", "count"),
    ("service.event_bytes", "bytes"),
    ("trace.overhead_share", "ratio"),
];

/// SplitMix64: derives independent input seeds from the workload seed.
pub(crate) fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
