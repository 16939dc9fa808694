//! The `word64` and `access` workloads: paper-scale GA searches driven
//! through `DStress::search_word64` and `DStress::search_row_access`.

use crate::stats::{self, median, percentile};
use crate::{mix, service, trace, Config, Report, Workload, TEMP_C, WORKERS};
use dstress::patterns::BitCodec;
use dstress::search::BitCampaign;
use dstress::{DStress, EnvKind, ExperimentScale, Metric, WORST_WORD};
use std::time::Instant;

/// The workload seed whose first search is pinned by a recorded digest.
pub const DEFAULT_SEED: u64 = 42;

/// Timed set-ups after each search; `setup_s` is their median over the
/// run. A boot runs at one of two speeds about 1.7x apart, switching every
/// few seconds with the load on the host, so boots spread over the whole
/// run give a steadier median than boots taken together.
const BOOTS_PER_SEARCH: usize = 4;

/// Generation cap of the `access` search — an input size, chosen so one
/// search takes a few seconds on a 2-core machine and every seed runs the
/// full cap.
const ACCESS_MAX_GENERATIONS: u32 = 20;

/// The digest the default-seed search of each workload and scale must
/// reproduce: FNV-1a over the best chromosome, its fitness bits, the
/// generations and the evaluations.
pub fn recorded_digest(workload: Workload, scale: &str) -> Option<u64> {
    match (workload, scale) {
        (Workload::Word64, "paper") => Some(0xd5b8_7b0f_cd95_860d),
        (Workload::Word64, "quick") => Some(0x34c7_3ae3_f190_c0c0),
        (Workload::Access, "paper") => Some(0x7fc2_1aea_7166_fa79),
        (Workload::Access, "quick") => Some(0x4fe7_8424_64a1_cb60),
        _ => None,
    }
}

/// What one search workload evaluates: environment, metric and codec.
#[derive(Debug, Clone)]
pub(crate) struct Search {
    /// The virus environment (template plus campaign-fixed inputs).
    pub(crate) env: EnvKind,
    /// The fitness metric.
    pub(crate) metric: Metric,
    /// The chromosome codec.
    pub(crate) codec: BitCodec,
    /// The scale the search runs at.
    pub(crate) scale: ExperimentScale,
}

impl Search {
    /// Boots the substrate for `workload` once, returning the search
    /// description and the boot time in seconds: `DStress::evaluator`,
    /// preceded on `access` by `DStress::profile_victims`.
    ///
    /// # Errors
    ///
    /// Propagates substrate boot and profiling failures.
    pub(crate) fn boot(
        workload: Workload,
        scale: ExperimentScale,
    ) -> Result<(Search, f64), String> {
        let started = Instant::now();
        let mut dstress = DStress::new(scale, 0);
        let search = match workload {
            Workload::Word64 => Search {
                env: EnvKind::Word64,
                metric: Metric::CeAverage,
                codec: BitCodec::Word64 {
                    param: "PATTERN".into(),
                },
                scale,
            },
            Workload::Access => {
                let victims = dstress
                    .profile_victims(TEMP_C, WORST_WORD)
                    .map_err(|e| format!("profile_victims: {e}"))?;
                let mut scale = scale;
                scale.ga.max_generations = scale.ga.max_generations.min(ACCESS_MAX_GENERATIONS);
                Search {
                    env: EnvKind::RowAccess {
                        victims: victims.clone(),
                        fill: WORST_WORD,
                    },
                    metric: Metric::CeInRows(victims),
                    codec: BitCodec::BitFlags {
                        param: "SEL".into(),
                    },
                    scale,
                }
            }
        };
        dstress
            .evaluator(&search.env, TEMP_C, search.metric.clone())
            .map_err(|e| format!("evaluator: {e}"))?;
        Ok((search, started.elapsed().as_secs_f64()))
    }

    /// Runs one search with `WORKERS` evaluation workers on a fresh
    /// framework seeded with `framework_seed`.
    ///
    /// # Errors
    ///
    /// Propagates campaign failures.
    pub(crate) fn run(&self, framework_seed: u64) -> Result<BitCampaign, String> {
        let mut dstress = DStress::new(self.scale, framework_seed);
        dstress.set_workers(WORKERS);
        let campaign = match &self.env {
            EnvKind::Word64 => dstress.search_word64(TEMP_C, self.metric.clone(), false),
            EnvKind::RowAccess { victims, fill } => {
                dstress.search_row_access(TEMP_C, victims.clone(), *fill)
            }
            other => unreachable!("no search workload runs {other:?}"),
        };
        campaign.map_err(|e| format!("search (seed {framework_seed}): {e}"))
    }

    /// The correctness gate for one finished search: the best chromosome
    /// re-scored through `DStress::measure` must reproduce the leaderboard
    /// fitness bit for bit, and a search whose seed has a recorded digest
    /// must reproduce it (and, on the paper-scale `word64`, find
    /// `WORST_WORD`).
    pub(crate) fn check(
        &self,
        campaign: &BitCampaign,
        framework_seed: u64,
        expected_digest: Option<u64>,
    ) -> Vec<String> {
        let mut problems = Vec::new();
        let best = &campaign.result.best;
        let dstress = DStress::new(self.scale, framework_seed);
        match dstress.measure(
            &self.env,
            self.codec.bindings(best),
            TEMP_C,
            self.metric.clone(),
        ) {
            Ok(outcome) if outcome.fitness.to_bits() == campaign.result.best_fitness.to_bits() => {}
            Ok(outcome) => problems.push(format!(
                "seed {framework_seed}: best re-scores {} but the leaderboard says {}",
                outcome.fitness, campaign.result.best_fitness
            )),
            Err(e) => problems.push(format!("seed {framework_seed}: re-scoring failed: {e}")),
        }
        if let Some(expected) = expected_digest {
            let got = digest(campaign);
            if got != expected {
                problems.push(format!(
                    "seed {framework_seed}: digest {got:#018x} != recorded {expected:#018x}"
                ));
            }
            let paper = self.scale.name == "paper";
            if paper && self.env == EnvKind::Word64 && best.to_words()[0] != WORST_WORD {
                problems.push(format!(
                    "seed {framework_seed}: best pattern {:#018x} is not WORST_WORD",
                    best.to_words()[0]
                ));
            }
        }
        problems
    }
}

/// FNV-1a over (best chromosome words, fitness bits, generations,
/// evaluations): a search's identity for the regression gate.
fn digest(campaign: &BitCampaign) -> u64 {
    let r = &campaign.result;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let words = r.best.to_words();
    let fields = words.iter().copied().chain([
        r.best_fitness.to_bits(),
        u64::from(r.generations),
        r.eval_stats.evaluations,
    ]);
    for field in fields {
        for byte in field.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// Framework seed of the `index`-th search of a run: the first search
/// uses the workload seed itself, so `--seed 42` exercises the recorded
/// digest.
fn search_seed(seed: u64, index: u64) -> u64 {
    if index == 0 {
        seed
    } else {
        mix(seed, index)
    }
}

fn expected_digest(workload: Workload, config: &Config, framework_seed: u64) -> Option<u64> {
    if framework_seed != DEFAULT_SEED {
        return None;
    }
    config
        .expected_digest
        .or_else(|| recorded_digest(workload, config.scale.name))
}

/// A plain run: an untimed warm-up boot, then searches back to back for
/// the run length with timed boots after each, then the correctness gate.
///
/// # Errors
///
/// Propagates boot and search failures.
pub(crate) fn run(workload: Workload, config: &Config) -> Result<Report, String> {
    // The search's own boot is the untimed warm-up. A later boot holds a
    // subset of what a search holds, so the peak covers the searches.
    let (search, _) = Search::boot(workload, config.scale)?;
    if let Err(e) = stats::reset_peak_rss() {
        eprintln!("warning: {e}; peak_rss_mb covers the warm-up boot too");
    }

    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut durations = Vec::new();
    let mut finished = Vec::new();
    let phase = Instant::now();
    for index in 0.. {
        let framework_seed = search_seed(config.seed, index);
        let started = Instant::now();
        let campaign = search.run(framework_seed)?;
        durations.push(started.elapsed().as_secs_f64());
        report.failed += campaign.failed_evaluations;
        eprintln!(
            "{}: seed {framework_seed:#x}: {} generations, {} evaluations, {:.3} s",
            workload.name(),
            campaign.result.generations,
            campaign.result.eval_stats.evaluations,
            durations[durations.len() - 1]
        );
        finished.push((framework_seed, campaign));
        for _ in 0..BOOTS_PER_SEARCH {
            setups.push(Search::boot(workload, config.scale)?.1);
        }
        // Start another search only if it should finish within the run.
        if phase.elapsed().as_secs_f64() + median(&durations) > config.seconds {
            break;
        }
    }
    let peak_rss_mb = stats::peak_rss_mb()?;

    let mut rates = Vec::new();
    let mut rounds_ms = Vec::new();
    let mut round_p90s_ms = Vec::new();
    for ((framework_seed, campaign), seconds) in finished.iter().zip(&durations) {
        let expected = expected_digest(workload, config, *framework_seed);
        report
            .problems
            .extend(search.check(campaign, *framework_seed, expected));
        let stats = &campaign.result.eval_stats;
        report.attempted += stats.evaluations;
        rates.push(stats.evaluations as f64 / seconds);
        let search_rounds_ms: Vec<f64> = stats
            .generation_eval_seconds
            .iter()
            .map(|s| s * 1e3)
            .collect();
        round_p90s_ms.push(percentile(&search_rounds_ms, 0.9));
        rounds_ms.extend(search_rounds_ms);
    }
    let setup_ms: Vec<f64> = setups.iter().map(|s| s * 1e3).collect();
    eprintln!(
        "setup: {} boots, {:.3} / {:.3} / {:.3} ms (min / median / max)",
        setups.len(),
        percentile(&setup_ms, 0.0),
        median(&setup_ms),
        percentile(&setup_ms, 1.0)
    );
    eprintln!(
        "{}: {} searches, {} evaluations, {} rounds in {:.3} s",
        workload.name(),
        durations.len(),
        report.attempted,
        rounds_ms.len(),
        durations.iter().sum::<f64>()
    );
    // Medians over the run's searches and rounds: a burst of host noise
    // that slows a few of them moves these figures little. A p90 over all
    // rounds would follow any burst that covers a tenth of the run, so the
    // 90th percentile is taken per search and its median reported.
    report.push("setup_s", median(&setups), "s");
    report.push("search_s", median(&durations), "s");
    report.push("evals_per_s", median(&rates), "1/s");
    report.push("generation_p50_ms", median(&rounds_ms), "ms");
    report.push("generation_p90_ms", median(&round_p90s_ms), "ms");
    report.push("peak_rss_mb", peak_rss_mb, "MiB");
    Ok(report)
}

/// A traced run: the search of the workload seed run plain, traced,
/// traced and plain again (the ABBA order cancels a linear drift in
/// machine speed from the overhead estimate), then the chromosomes of the
/// first traced search replayed stage by stage. Every traced result line
/// carries every per-layer metric, and the searches journal nothing, so
/// the `journal` and `service` rows come from a short quick-scale
/// `dstressd` loop run after them (see [`service::trace_service`]).
///
/// # Errors
///
/// Propagates boot, search and replay failures.
pub(crate) fn run_traced(workload: Workload, config: &Config) -> Result<Report, String> {
    let (search, _) = Search::boot(workload, config.scale)?;
    let framework_seed = config.seed;
    let timed_plain = || -> Result<(BitCampaign, f64), String> {
        let started = Instant::now();
        let campaign = search.run(framework_seed)?;
        Ok((campaign, started.elapsed().as_secs_f64()))
    };
    let (plain, first_s) = timed_plain()?;
    let captured = trace::capture_campaign(&search, framework_seed)?;
    let again = trace::capture_campaign(&search, framework_seed)?;
    let (_, last_s) = timed_plain()?;
    let plain_s = first_s + last_s;
    let traced_s = captured.wall_s + again.wall_s;

    let mut report = Report {
        attempted: plain.result.eval_stats.evaluations,
        failed: plain.failed_evaluations,
        ..Report::default()
    };
    for traced in [&captured.result, &again.result] {
        if traced.best != plain.result.best
            || traced.best_fitness.to_bits() != plain.result.best_fitness.to_bits()
            || traced.generations != plain.result.generations
            || traced.eval_stats.evaluations != plain.result.eval_stats.evaluations
        {
            report
                .problems
                .push("a traced campaign diverged from the plain search".into());
        }
    }
    let expected = expected_digest(workload, config, framework_seed);
    report
        .problems
        .extend(search.check(&plain, framework_seed, expected));

    let ledger = trace::replay(&search, &captured.chromosomes)?;
    // Quick-scale evaluations take about a millisecond, too short for the
    // ledger's per-call timers to close within the tolerance.
    let paper = config.scale.name == "paper";
    if paper && ledger.unattributed_share().abs() > trace::LEDGER_TOLERANCE {
        report.problems.push(format!(
            "ledger does not close: unattributed share {:.4}",
            ledger.unattributed_share()
        ));
    }
    ledger.push_metrics(&mut report);
    trace::push_ga_metrics(&captured.result, captured.wall_s, &mut report);
    let probe = service::trace_service(config)?;
    report.problems.extend(probe.problems());
    probe.push_metrics(&mut report);
    report.push("trace.overhead_share", traced_s / plain_s - 1.0, "ratio");
    eprintln!(
        "{}: plain searches {plain_s:.3} s, traced {traced_s:.3} s, replayed {} of {} evaluations",
        workload.name(),
        ledger.replayed(),
        captured.chromosomes.len()
    );
    Ok(report)
}
