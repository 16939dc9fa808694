//! Outside-in tracing: capture the chromosomes a campaign evaluates, then
//! replay them through the same public calls
//! `VirusEvaluator::evaluate_bindings` makes, timing each layer.

use crate::search::Search;
use crate::stats::{median, percentile};
use crate::{Report, TEMP_C, WORKERS};
use dstress::evaluate::ParallelBitFitness;
use dstress::{DStress, Metric};
use dstress_ga::{BitGenome, EvalFault, Fitness, GaEngine, ParallelFitness, SearchResult};
use dstress_platform::{RecordedRun, RunOutcome};
use dstress_vpl::{compile_opt, BoundValue, ExecLimits, OptLevel, Vm};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The MCU whose DIMM is heated and stressed (the evaluator's target).
const TARGET_MCU: usize = 2;

/// Largest share of `evaluate_bindings` time the staged replay may leave
/// unattributed before the ledger counts as not closing.
pub const LEDGER_TOLERANCE: f64 = 0.05;

/// Most chromosomes one traced run replays; longer captures are sampled
/// at an even stride, keeping their order.
const REPLAY_MAX: usize = 300;

/// A [`ParallelFitness`] wrapper that logs every chromosome handed to the
/// substrate, on every worker replica, into one shared list.
struct Capture {
    inner: ParallelBitFitness,
    log: Arc<Mutex<Vec<BitGenome>>>,
}

impl Capture {
    fn record(&self, genome: &BitGenome) {
        self.log
            .lock()
            .expect("no capture holder panics")
            .push(genome.clone());
    }
}

impl Fitness<BitGenome> for Capture {
    fn evaluate(&mut self, genome: &BitGenome) -> f64 {
        self.record(genome);
        self.inner.evaluate(genome)
    }

    fn try_evaluate(&mut self, genome: &BitGenome) -> Result<f64, EvalFault> {
        self.record(genome);
        self.inner.try_evaluate(genome)
    }

    fn evaluate_generation(&mut self, population: &[BitGenome]) -> Vec<f64> {
        population.iter().for_each(|g| self.record(g));
        self.inner.evaluate_generation(population)
    }
}

impl ParallelFitness<BitGenome> for Capture {
    fn replicate(&self) -> Self {
        Capture {
            inner: self.inner.replicate(),
            log: Arc::clone(&self.log),
        }
    }

    fn absorb(&mut self, replica: Self) {
        self.inner.absorb(replica.inner);
    }

    fn cache_counters(&self) -> (u64, u64) {
        self.inner.cache_counters()
    }
}

/// A campaign run under the capturing wrapper.
#[derive(Debug)]
pub struct Captured {
    /// The search outcome (identical to the plain search's).
    pub result: SearchResult<BitGenome>,
    /// Distinct chromosomes in the order the substrate first saw them.
    pub chromosomes: Vec<BitGenome>,
    /// Wall clock of the search call.
    pub wall_s: f64,
}

/// Runs the campaign `Search::run(framework_seed)` runs — same GA
/// configuration, seed derivation, supervision and worker count — with
/// the capturing wrapper around its fitness.
///
/// # Errors
///
/// Propagates evaluator construction failures.
pub fn capture_campaign(search: &Search, framework_seed: u64) -> Result<Captured, String> {
    let dstress = DStress::new(search.scale, framework_seed);
    let evaluator = dstress
        .evaluator(&search.env, TEMP_C, search.metric.clone())
        .map_err(|e| format!("evaluator: {e}"))?;
    let mut ga = search.scale.ga;
    ga.minimize = false;
    let bits = search.codec.genome_bits();
    let mut engine = GaEngine::new(ga, DStress::campaign_seed(framework_seed, 1));
    engine.set_supervision(dstress.supervision());
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut fitness = Capture {
        inner: ParallelBitFitness {
            evaluator,
            codec: search.codec.clone(),
        },
        log: Arc::clone(&log),
    };
    let started = Instant::now();
    let result = engine.run_parallel(WORKERS, |rng| BitGenome::random(rng, bits), &mut fitness);
    let wall_s = started.elapsed().as_secs_f64();
    drop(fitness);
    let log = Arc::try_unwrap(log)
        .expect("the pool has retired every replica")
        .into_inner()
        .expect("no capture holder panics");
    let mut seen = HashSet::new();
    let chromosomes = log.into_iter().filter(|g| seen.insert(g.clone())).collect();
    Ok(Captured {
        result,
        chromosomes,
        wall_s,
    })
}

/// Per-stage time sums of a staged replay, next to the time the same
/// chromosomes took through `evaluate_bindings`.
#[derive(Debug, Default)]
pub struct Ledger {
    instantiate: f64,
    compile: f64,
    reset: f64,
    vm_record: f64,
    plan: f64,
    window: f64,
    profile: f64,
    plan_target: f64,
    evals: Vec<f64>,
    unattributed: Vec<f64>,
    trace_ops: u64,
    vrt_cells: u64,
    static_words: u64,
    repeats: u64,
}

impl Ledger {
    /// Chromosomes replayed.
    pub fn replayed(&self) -> usize {
        self.evals.len()
    }

    fn staged(&self) -> f64 {
        self.instantiate + self.compile + self.reset + self.vm_record + self.plan + self.window
    }

    /// The median over replayed chromosomes of 1 − Σ stage time ÷
    /// `evaluate_bindings` time: the share of an evaluation the ledger's
    /// stages do not account for. The median keeps a burst of machine
    /// noise that hits one of a pair's two runs from skewing it.
    pub fn unattributed_share(&self) -> f64 {
        median(&self.unattributed)
    }

    /// Appends the `vpl`, `platform`, `dram` and `evaluate` metrics.
    pub fn push_metrics(&self, report: &mut Report) {
        let n = self.replayed().max(1) as f64;
        let us = |sum: f64| sum * 1e6 / n;
        let evals_us: Vec<f64> = self.evals.iter().map(|s| s * 1e6).collect();
        report.push("vpl.instantiate_us", us(self.instantiate), "us");
        report.push("vpl.compile_us", us(self.compile), "us");
        report.push("vpl.vm_record_us", us(self.vm_record), "us");
        report.push("vpl.trace_ops", self.trace_ops as f64 / n, "count");
        report.push("platform.reset_us", us(self.reset), "us");
        report.push("platform.profile_us", us(self.profile), "us");
        report.push(
            "platform.trace_repeat_ratio",
            self.repeats as f64 / n,
            "ratio",
        );
        report.push("dram.plan_us", us(self.plan), "us");
        report.push("dram.plan_target_us", us(self.plan_target), "us");
        report.push("dram.window_kernel_us", us(self.window), "us");
        report.push("dram.vrt_cells", self.vrt_cells as f64 / n, "count");
        report.push("dram.static_words", self.static_words as f64 / n, "count");
        report.push("evaluate.eval_p50_us", percentile(&evals_us, 0.5), "us");
        report.push("evaluate.eval_p90_us", percentile(&evals_us, 0.9), "us");
        report.push(
            "evaluate.unattributed_share",
            self.unattributed_share(),
            "ratio",
        );
    }
}

/// Replays `chromosomes` (sampled down to [`REPLAY_MAX`]) twice each: once
/// through `VirusEvaluator::evaluate_bindings`, once through the calls it
/// makes — `ProcessedTemplate::instantiate`, `compile_opt`,
/// `XGene2Server::reset_memory`, `Vm::run` into a session,
/// `XGene2Server::prepare_run` and `evaluate_prepared_runs` — timing each.
/// The two replicas see the same call sequence, so their caches evolve
/// alike; which of the two goes first alternates per chromosome. Also
/// times an uncached `build_profile` and the target-MCU
/// `Dimm::disturbance_profile` + `Dimm::prepare_run` on a copy of the DIMM
/// taken before `prepare_run`; both sit outside the ledger sum. The staged
/// outcome must score exactly like the evaluator's.
///
/// # Errors
///
/// Any substrate failure, or a staged fitness that differs from the
/// evaluator's.
pub fn replay(search: &Search, chromosomes: &[BitGenome]) -> Result<Ledger, String> {
    let dstress = DStress::new(search.scale, 0);
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("replay {what}: {e}");
    let mut evaluator = dstress
        .evaluator(&search.env, TEMP_C, search.metric.clone())
        .map_err(|e| fail("evaluator", &e))?;
    let mut server = dstress.server_at(TEMP_C).map_err(|e| fail("server", &e))?;
    let template = dstress::templates::process(search.env.template_source(), &search.scale)
        .map_err(|e| fail("template", &e))?;
    let env = search
        .env
        .bindings(&search.scale)
        .map_err(|e| fail("bindings", &e))?;
    let passes = OptLevel::default().config();
    let limits = ExecLimits::default();
    let runs = search.scale.runs_per_virus;

    let stride = chromosomes.len().div_ceil(REPLAY_MAX).max(1);
    let mut ledger = Ledger::default();
    let mut traces: Vec<RecordedRun> = Vec::new();
    for (i, genome) in chromosomes.iter().step_by(stride).enumerate() {
        let chromosome = search.codec.bindings(genome);
        let plain = |evaluator: &mut dstress::VirusEvaluator| {
            let owned = chromosome.clone();
            let started = Instant::now();
            let outcome = evaluator.evaluate_bindings(owned);
            (started.elapsed().as_secs_f64(), outcome)
        };
        let first = (i % 2 == 0).then(|| plain(&mut evaluator));

        let mut bindings = env.clone();
        bindings.extend(chromosome.clone());
        let nonce = bindings_nonce(&bindings);
        let ledger_before = ledger.staged();
        let t = Instant::now();
        let program = template
            .instantiate(&bindings)
            .map_err(|e| fail("instantiate", &e))?;
        ledger.instantiate += lap(t);
        let t = Instant::now();
        let compiled = compile_opt(&program, &passes).map_err(|e| fail("compile", &e))?;
        ledger.compile += lap(t);
        let t = Instant::now();
        server.reset_memory();
        ledger.reset += lap(t);
        let t = Instant::now();
        let mut session = server.session(TARGET_MCU);
        Vm::new(limits)
            .run(&compiled, &mut session)
            .map_err(|e| fail("vm", &e))?;
        let run = session.finish();
        ledger.vm_record += lap(t);
        // Cloned before `prepare_run` refreshes its cell-state cache, so
        // the target-MCU plan timed below pays that refresh too.
        let mut target = server.dimm(TARGET_MCU).clone();
        let t = Instant::now();
        let prepared = server.prepare_run(&run).map_err(|e| fail("plan", &e))?;
        ledger.plan += lap(t);
        let t = Instant::now();
        let outcomes = server
            .evaluate_prepared_runs(&prepared, runs, nonce)
            .map_err(|e| fail("window kernel", &e))?;
        ledger.window += lap(t);

        let (eval_s, outcome) = match first {
            Some(done) => done,
            None => plain(&mut evaluator),
        };
        let outcome = outcome.map_err(|e| fail("evaluate_bindings", &e))?;
        ledger.evals.push(eval_s);
        let staged_s = ledger.staged() - ledger_before;
        ledger.unattributed.push(1.0 - staged_s / eval_s);
        let staged = fitness(&search.metric, &outcomes);
        if staged.to_bits() != outcome.fitness.to_bits() {
            return Err(format!(
                "staged replay scores {staged} where evaluate_bindings scores {}",
                outcome.fitness
            ));
        }

        let t = Instant::now();
        let profile = server.build_profile(&run);
        ledger.profile += lap(t);
        let op_env = server.operating_env(TARGET_MCU);
        let t = Instant::now();
        let disturbance = target.disturbance_profile(&profile.acts_per_window[TARGET_MCU]);
        let plan = target
            .prepare_run(&op_env, &disturbance)
            .map_err(|e| fail("target plan", &e))?;
        ledger.plan_target += lap(t);
        ledger.vrt_cells += plan.vrt_cells() as u64;
        ledger.static_words += plan.static_words() as u64;
        ledger.trace_ops += run.len() as u64;
        if traces.contains(&run) {
            ledger.repeats += 1;
        } else {
            traces.push(run);
        }
    }
    Ok(ledger)
}

fn lap(started: Instant) -> f64 {
    started.elapsed().as_secs_f64()
}

/// The evaluator's VRT nonce: FNV-1a over the key-sorted merged bindings.
fn bindings_nonce(bindings: &HashMap<String, BoundValue>) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(PRIME);
        }
    };
    let mut keys: Vec<&String> = bindings.keys().collect();
    keys.sort();
    for key in keys {
        eat(key.as_bytes());
        match &bindings[key] {
            BoundValue::Scalar(v) => {
                eat(&0u64.to_le_bytes());
                eat(&v.to_le_bytes());
            }
            BoundValue::Array(vs) => {
                eat(&1u64.to_le_bytes());
                eat(&(vs.len() as u64).to_le_bytes());
                for v in vs {
                    eat(&v.to_le_bytes());
                }
            }
        }
    }
    hash
}

/// The evaluator's fitness of a set of run outcomes under `metric`.
fn fitness(metric: &Metric, outcomes: &[RunOutcome]) -> f64 {
    let runs = outcomes.len().max(1) as f64;
    match metric {
        Metric::CeAverage => outcomes.iter().map(|o| o.totals.ce).sum::<u64>() as f64 / runs,
        Metric::CeInRows(rows) => {
            let in_rows: u64 = outcomes
                .iter()
                .flat_map(|o| &o.row_errors)
                .filter(|r| r.mcu == TARGET_MCU && rows.contains(&r.row))
                .map(|r| r.ce)
                .sum();
            in_rows as f64 / runs
        }
        Metric::UeRuns => outcomes.iter().filter(|o| o.stopped_on_ue).count() as f64,
    }
}

/// Appends the `ga` and `ga::pool` metrics of one finished campaign whose
/// search call took `wall_s`.
pub fn push_ga_metrics(result: &SearchResult<BitGenome>, wall_s: f64, report: &mut Report) {
    let stats = &result.eval_stats;
    let generations = f64::from(result.generations.max(1));
    let lookups = (stats.evaluations + stats.cache_hits).max(1) as f64;
    let most = stats.worker_tasks.iter().copied().max().unwrap_or(0);
    let least = stats.worker_tasks.iter().copied().min().unwrap_or(0).max(1);
    report.push("ga.generations", f64::from(result.generations), "count");
    report.push("ga.evaluations", stats.evaluations as f64, "count");
    report.push(
        "ga.cache_hit_ratio",
        stats.cache_hits as f64 / lookups,
        "ratio",
    );
    report.push(
        "ga.engine_overhead_ms_per_gen",
        (wall_s - stats.eval_seconds()) * 1e3 / generations,
        "ms",
    );
    report.push("pool.steals", stats.steals as f64, "count");
    report.push(
        "pool.max_idle_ms",
        stats.max_worker_idle_ns as f64 / 1e6,
        "ms",
    );
    report.push("pool.task_skew", most as f64 / least as f64, "ratio");
}
