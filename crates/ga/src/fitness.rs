//! Fitness evaluation.

use crate::genome::Genome;
use serde::{Deserialize, Serialize};

/// How an evaluation fault should be handled by the supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A passing failure (flaky platform, thermal drift, lost run):
    /// retrying the same candidate may succeed.
    Transient,
    /// A deterministic failure (bad template instantiation, hard substrate
    /// error): retrying cannot help.
    Permanent,
    /// The evaluation panicked; caught by the supervisor's `catch_unwind`
    /// isolation and treated as permanent.
    Panic,
    /// The step-budget watchdog fired (the VM's `ExecutionLimit`): the
    /// candidate does not terminate within its budget, so retrying the same
    /// deterministic program cannot help.
    BudgetExhausted,
}

/// Why a fitness evaluation failed, classified for the supervisor: only
/// [`FaultKind::Transient`] faults are retried; everything else quarantines
/// the candidate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvalFault {
    /// The retry classification.
    pub kind: FaultKind,
    /// Human-readable description, recorded in the incident stream.
    pub message: String,
}

impl EvalFault {
    /// A transient (retryable) fault.
    pub fn transient(message: impl Into<String>) -> Self {
        EvalFault {
            kind: FaultKind::Transient,
            message: message.into(),
        }
    }

    /// A permanent (non-retryable) fault.
    pub fn permanent(message: impl Into<String>) -> Self {
        EvalFault {
            kind: FaultKind::Permanent,
            message: message.into(),
        }
    }

    /// A step-budget-watchdog fault (non-retryable).
    pub fn budget_exhausted(message: impl Into<String>) -> Self {
        EvalFault {
            kind: FaultKind::BudgetExhausted,
            message: message.into(),
        }
    }

    /// Whether the supervisor may retry after this fault.
    pub fn is_retryable(&self) -> bool {
        self.kind == FaultKind::Transient
    }
}

impl std::fmt::Display for EvalFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            FaultKind::Transient => write!(f, "transient fault: {}", self.message),
            FaultKind::Permanent => write!(f, "permanent fault: {}", self.message),
            FaultKind::Panic => write!(f, "panic: {}", self.message),
            FaultKind::BudgetExhausted => write!(f, "step budget exhausted: {}", self.message),
        }
    }
}

impl std::error::Error for EvalFault {}

/// Something that scores chromosomes. Higher is always better inside the
/// engine; minimization searches (the paper's best-case data pattern,
/// §V-A.1) are handled by the engine's `minimize` flag, which negates the
/// reported objective.
pub trait Fitness<G: Genome> {
    /// Scores one chromosome. May be stochastic (DRAM fitness is: VRT makes
    /// error counts vary run-to-run).
    fn evaluate(&mut self, genome: &G) -> f64;

    /// Fallible scoring: the supervised evaluation path calls this so a
    /// substrate can report faults instead of panicking or smuggling them
    /// into the fitness value. The default adapter wraps [`evaluate`] and
    /// never fails; substrates with real failure modes (the DStress
    /// evaluator's VM watchdog, live-hardware platforms) override it.
    ///
    /// Implementations must stay pure in the [`ParallelFitness`] sense:
    /// whether a chromosome faults — and how — must be a function of the
    /// chromosome, not of call order or the replica evaluating it.
    ///
    /// # Errors
    ///
    /// An [`EvalFault`] classifying the failure as transient (retryable) or
    /// permanent.
    ///
    /// [`evaluate`]: Fitness::evaluate
    fn try_evaluate(&mut self, genome: &G) -> Result<f64, EvalFault> {
        Ok(self.evaluate(genome))
    }

    /// Scores a whole generation at once — the entry point the serial
    /// engine path feeds each population through. The default evaluates
    /// candidates one at a time in population order. Overrides (wrappers
    /// that observe a generation) must be observationally identical to the
    /// per-candidate loop: slot `i` of the result is exactly
    /// `evaluate(&population[i])`. Repeat-chromosome dedup is not this
    /// method's job: the parallel engine path resolves repeats in its own
    /// evaluation cache before any candidate reaches a replica.
    fn evaluate_generation(&mut self, population: &[G]) -> Vec<f64> {
        population.iter().map(|g| self.evaluate(g)).collect()
    }
}

/// A fitness that can be replicated across evaluation workers.
///
/// The engine's parallel path ([`crate::GaEngine::run_parallel`]) hands each
/// worker thread its own replica and splits every generation's population
/// among them, so implementations must uphold two contracts:
///
/// * **Purity** — `evaluate` must be a pure function of the genome: the same
///   chromosome scores identically on every replica, in any order. This is
///   what makes `workers = 1` and `workers = N` produce bit-identical
///   [`crate::SearchResult`]s, and what makes the engine's evaluation cache
///   transparent. Stochastic substrates satisfy this by deriving their noise
///   from the chromosome itself (as the DStress evaluator derives its VRT
///   nonce from the bound chromosome) rather than from call order.
/// * **Replica independence** — a replica owns all the state it mutates;
///   evaluating on one replica must not affect another.
///
/// Bookkeeping that replicas accumulate (failed-evaluation counts, run
/// logs …) is folded back into the master through [`absorb`] when the
/// search finishes.
///
/// [`absorb`]: ParallelFitness::absorb
pub trait ParallelFitness<G: Genome>: Fitness<G> + Send {
    /// Creates an independent replica that scores identically to `self`.
    fn replicate(&self) -> Self
    where
        Self: Sized;

    /// Folds a worker replica's bookkeeping back into the master after the
    /// search. The default drops the replica.
    fn absorb(&mut self, _replica: Self)
    where
        Self: Sized,
    {
    }

    /// Monotone counters of the replica's internal caches, as
    /// `(warm_hits, cold_misses)`. No longer read by the engine or the
    /// evaluation pool — the engine's evaluation cache is the only dedup
    /// layer it reports — and kept only so existing implementors still
    /// compile. The default reports zeros.
    fn cache_counters(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Adapts a closure into a [`Fitness`].
///
/// # Examples
///
/// ```
/// use dstress_ga::{BitGenome, Fitness, FnFitness};
///
/// let mut f = FnFitness::new(|g: &BitGenome| g.count_ones() as f64);
/// let g = BitGenome::from_words(&[0xFF], 64);
/// assert_eq!(f.evaluate(&g), 8.0);
/// ```
pub struct FnFitness<F> {
    f: F,
}

impl<F> FnFitness<F> {
    /// Wraps a closure.
    pub fn new(f: F) -> Self {
        FnFitness { f }
    }
}

impl<G: Genome, F: FnMut(&G) -> f64> Fitness<G> for FnFitness<F> {
    fn evaluate(&mut self, genome: &G) -> f64 {
        (self.f)(genome)
    }
}

impl<G: Genome, F: FnMut(&G) -> f64 + Clone + Send> ParallelFitness<G> for FnFitness<F> {
    fn replicate(&self) -> Self {
        FnFitness { f: self.f.clone() }
    }
}

impl<F> std::fmt::Debug for FnFitness<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnFitness").finish_non_exhaustive()
    }
}

/// Averages a noisy inner fitness over `runs` evaluations — the paper runs
/// "each virus ten times and average\[s\] the number of obtained CEs since the
/// number of errors may vary from run-to-run due to … Variable Retention
/// Time" (§V-A.1).
#[derive(Debug)]
pub struct AveragedFitness<F> {
    inner: F,
    runs: u32,
}

impl<F> AveragedFitness<F> {
    /// Wraps `inner`, averaging over `runs` evaluations per chromosome.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is zero.
    pub fn new(inner: F, runs: u32) -> Self {
        assert!(runs > 0, "averaging requires at least one run");
        AveragedFitness { inner, runs }
    }

    /// The configured number of runs.
    pub fn runs(&self) -> u32 {
        self.runs
    }
}

impl<G: Genome, F: Fitness<G>> Fitness<G> for AveragedFitness<F> {
    fn evaluate(&mut self, genome: &G) -> f64 {
        let sum: f64 = (0..self.runs).map(|_| self.inner.evaluate(genome)).sum();
        sum / self.runs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::BitGenome;

    #[test]
    fn fn_fitness_delegates() {
        let mut f = FnFitness::new(|g: &BitGenome| g.len() as f64);
        assert_eq!(f.evaluate(&BitGenome::zeros(10)), 10.0);
    }

    #[test]
    fn default_try_evaluate_wraps_evaluate() {
        let mut f = FnFitness::new(|g: &BitGenome| g.count_ones() as f64);
        assert_eq!(f.try_evaluate(&BitGenome::from_words(&[0b111], 8)), Ok(3.0));
    }

    #[test]
    fn fault_classification_drives_retryability() {
        assert!(EvalFault::transient("flaky").is_retryable());
        assert!(!EvalFault::permanent("broken").is_retryable());
        assert!(!EvalFault::budget_exhausted("hung").is_retryable());
        let fault = EvalFault::budget_exhausted("5000 steps");
        assert_eq!(fault.to_string(), "step budget exhausted: 5000 steps");
    }

    #[test]
    fn averaging_reduces_noise() {
        // A fitness that alternates 0/10: the average over 10 runs is 5±1.
        let mut toggle = 0u32;
        let noisy = FnFitness::new(move |_: &BitGenome| {
            toggle += 1;
            if toggle.is_multiple_of(2) {
                10.0
            } else {
                0.0
            }
        });
        let mut avg = AveragedFitness::new(noisy, 10);
        let v = avg.evaluate(&BitGenome::zeros(4));
        assert!((v - 5.0).abs() <= 1.0, "averaged value {v}");
        assert_eq!(avg.runs(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_panics() {
        AveragedFitness::new(FnFitness::new(|_: &BitGenome| 0.0), 0);
    }
}
