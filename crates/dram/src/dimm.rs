//! The simulated DIMM: contents, hidden topology, weak cells and the
//! per-refresh-window fault evaluation.

use crate::address::AddressMap;
use crate::contents::RowStore;
use crate::disturb::{ActivationCounts, DisturbanceModel};
use crate::env::OperatingEnv;
use crate::events::WordEvent;
use crate::faults::FaultSet;
use crate::geometry::{DimmGeometry, Location, RowKey};
use crate::plan::{PlanError, RunPlan, VrtWord};
use crate::retention::PhysicsParams;
use crate::topology::{CellKind, Topology, TopologyConfig};
use crate::weak::{vrt_degraded, WeakCellConfig, WeakCellPopulation};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Full configuration of a simulated DIMM.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct DimmConfig {
    /// Array organization.
    pub geometry: DimmGeometry,
    /// Hidden-layout parameters (scrambling, remapping).
    pub topology: TopologyConfig,
    /// Retention-physics coefficients.
    pub physics: PhysicsParams,
    /// Weak-cell population parameters.
    pub weak: WeakCellConfig,
    /// Row-disturbance coefficients.
    pub disturbance: DisturbanceModel,
    /// The word value unwritten memory reads as.
    pub default_fill: u64,
}

/// Cached per-weak-cell state that depends only on stored data (not on the
/// operating point or on activations): whether the cell is charged and the
/// data-dependent interference multiplier, plus each weak word's stored
/// value.
///
/// Stored structure-of-arrays style, one flat array per attribute in
/// population order (the cells of weak word `w` follow those of words
/// `0..w`). The flat layout keeps the window-evaluation and
/// plan-construction loops on dense arrays instead of chasing one heap
/// allocation per weak word, and the plan build reads `written` instead of
/// looking its words up in the row store again.
#[derive(Debug, Clone, Default, PartialEq)]
struct CellCache {
    /// The stored value of each weak word.
    written: Vec<u64>,
    /// Whether each cell currently holds charge.
    charged: Vec<bool>,
    /// Data-dependent interference multiplier of each cell (1.0 when
    /// discharged).
    interference: Vec<f64>,
}

/// [`CellProbe::flags`]: the weak cell is a true-cell. The cells at the same
/// physical position in the neighbour rows share its polarity.
const TRUE_CELL: u8 = 1 << 0;
/// [`CellProbe::flags`]: the left bitline neighbour is a true-cell.
const LEFT_TRUE: u8 = 1 << 1;
/// [`CellProbe::flags`]: the right bitline neighbour is a true-cell.
const RIGHT_TRUE: u8 = 1 << 2;
/// [`CellProbe::flags`]: the cell has a left bitline neighbour.
const HAS_LEFT: u8 = 1 << 3;
/// [`CellProbe::flags`]: the cell has a right bitline neighbour.
const HAS_RIGHT: u8 = 1 << 4;
/// [`CellProbe::flags`]: the bank has a row above (`row - 1`).
const HAS_ABOVE: u8 = 1 << 5;
/// [`CellProbe::flags`]: the bank has a row below (`row + 1`).
const HAS_BELOW: u8 = 1 << 6;

/// Where the cell-state refresh reads one weak cell's neighbourhood: the
/// logical bit positions (word column × 64 + bit) of its two physical
/// bitline neighbours in its own row and of the same physical position in
/// the rows above and below, plus the polarities, packed into `flags`. The
/// cell's own logical bit is `loc.col * 64 + bit` and is not stored.
///
/// A pure function of the hidden topology, so it is built once per device
/// and the per-candidate refresh is a gather of stored bits.
#[derive(Debug, Clone, Copy)]
struct CellProbe {
    left: u32,
    right: u32,
    above: u32,
    below: u32,
    flags: u8,
}

// One probe per weak cell, shared by every clone: keep it compact.
const _: () = assert!(std::mem::size_of::<CellProbe>() <= 20);

impl CellProbe {
    fn has(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }
}

/// The content-independent hidden device of a DIMM: its topology, its weak
/// cells and the probe table derived from both. Immutable once built, so
/// clones of a [`Dimm`] (the per-worker server replicas) share one copy.
#[derive(Debug)]
struct HiddenDevice {
    topology: Topology,
    population: WeakCellPopulation,
    /// One probe per weak cell in population order, built on the first
    /// cell-state refresh (a boot pays nothing for it).
    probes: OnceLock<Vec<CellProbe>>,
}

impl HiddenDevice {
    /// The probe table, built on first use.
    fn probes(&self) -> &[CellProbe] {
        self.probes.get_or_init(|| self.build_probes())
    }

    fn build_probes(&self) -> Vec<CellProbe> {
        let topo = &self.topology;
        let rows_per_bank = topo.geometry().rows_per_bank;
        let is_true = |phys: u32| topo.kind_at_physical(phys) == CellKind::True;
        let mut probes = Vec::with_capacity(self.population.total_cells());
        for word in self.population.words() {
            let row = word.loc.row_key();
            for cell in &word.cells {
                let phys = topo.physical_bit(row, word.loc.col * 64 + cell.bit as u32);
                let mut probe = CellProbe {
                    left: 0,
                    right: 0,
                    above: 0,
                    below: 0,
                    flags: if is_true(phys) { TRUE_CELL } else { 0 },
                };
                let (left, right) = topo.physical_neighbours(phys);
                if let Some(np) = left {
                    probe.left = topo.logical_bit(row, np);
                    probe.flags |= HAS_LEFT | if is_true(np) { LEFT_TRUE } else { 0 };
                }
                if let Some(np) = right {
                    probe.right = topo.logical_bit(row, np);
                    probe.flags |= HAS_RIGHT | if is_true(np) { RIGHT_TRUE } else { 0 };
                }
                let adjacent = |adj: Option<u32>| {
                    adj.filter(|&r| r < rows_per_bank)
                        .map(|r| topo.logical_bit(RowKey::new(row.rank, row.bank, r), phys))
                };
                if let Some(bit) = adjacent(row.row.checked_sub(1)) {
                    probe.above = bit;
                    probe.flags |= HAS_ABOVE;
                }
                if let Some(bit) = adjacent(row.row.checked_add(1)) {
                    probe.below = bit;
                    probe.flags |= HAS_BELOW;
                }
                probes.push(probe);
            }
        }
        probes
    }
}

/// The logical bit `bit_in_row` (word column × 64 + bit) of a row's words.
fn row_bit(words: &[u64], bit_in_row: u32) -> bool {
    (words[(bit_in_row / 64) as usize] >> (bit_in_row % 64)) & 1 == 1
}

/// A simulated DIMM.
///
/// The public surface mirrors what a platform can do with real memory —
/// write words, read words, activate rows (implicitly, via the platform's
/// access accounting) and observe per-window fault events. The hidden
/// internals (topology, weak cells) are reachable read-only for calibration
/// and tests, mirroring a vendor's fab-level knowledge; the DStress
/// framework layers never touch them.
///
/// Cloning shares the immutable hidden device (topology, weak cells and
/// their probe table) and copies only the mutable state: contents, cell
/// cache and injected faults.
#[derive(Debug, Clone)]
pub struct Dimm {
    config: DimmConfig,
    seed: u64,
    device: Arc<HiddenDevice>,
    contents: RowStore,
    map: AddressMap,
    cache: CellCache,
    cache_generation: Option<u64>,
    faults: FaultSet,
}

impl Dimm {
    /// Builds a DIMM from a configuration and a device seed (the paper's
    /// DIMM-to-DIMM variation: each physical module is a different seed).
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails validation.
    pub fn new(config: DimmConfig, seed: u64) -> Self {
        config.geometry.validate().expect("invalid DIMM geometry");
        let topology = Topology::new(config.geometry, config.topology, seed);
        let population = WeakCellPopulation::sample(config.geometry, &config.weak, seed);
        let contents = RowStore::new(config.geometry, config.default_fill);
        let map = AddressMap::new(config.geometry);
        Dimm {
            config,
            seed,
            device: Arc::new(HiddenDevice {
                topology,
                population,
                probes: OnceLock::new(),
            }),
            contents,
            map,
            cache: CellCache::default(),
            cache_generation: None,
            faults: FaultSet::new(),
        }
    }

    /// The DIMM's geometry.
    pub fn geometry(&self) -> DimmGeometry {
        self.config.geometry
    }

    /// The configuration the DIMM was built with.
    pub fn config(&self) -> &DimmConfig {
        &self.config
    }

    /// The device seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The address-mapping function of this DIMM (paper Fig. 2).
    pub fn address_map(&self) -> AddressMap {
        self.map
    }

    /// Read-only view of the hidden weak-cell population. **Calibration and
    /// test use only** — the DStress framework never inspects this,
    /// mirroring the paper's no-internal-knowledge premise.
    pub fn population(&self) -> &WeakCellPopulation {
        &self.device.population
    }

    /// Read-only view of the hidden topology. **Calibration and test use
    /// only.**
    pub fn topology(&self) -> &Topology {
        &self.device.topology
    }

    /// Injects a logical (hard) fault into the array — see
    /// [`crate::faults`] for the fault classes. Used by the MARCH-test
    /// experiments; the GA campaigns run on fault-free devices, as the
    /// paper's DIMMs passed their vendor tests.
    pub fn inject_fault(&mut self, fault: crate::faults::LogicalFault) {
        self.faults.inject(fault);
    }

    /// The injected logical faults.
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// Writes one 64-bit word (honouring injected transition and coupling
    /// faults).
    ///
    /// # Panics
    ///
    /// Panics if the location is outside the geometry.
    pub fn write_word(&mut self, loc: Location, value: u64) {
        if self.faults.is_empty() {
            self.contents.write_word(loc, value);
            return;
        }
        let old = self.contents.read_word(loc);
        let stored = self.faults.apply_on_write(loc, old, value);
        self.contents.write_word(loc, stored);
        for (victim, bit, forced) in self.faults.coupling_side_effects(loc, old, stored) {
            let current = self.contents.read_word(victim);
            let new = if forced {
                current | (1 << bit)
            } else {
                current & !(1 << bit)
            };
            self.contents.write_word(victim, new);
        }
    }

    /// Reads one 64-bit word (logical contents; transient retention errors
    /// are corrected by the platform's scrubbing, so reads return what was
    /// written — except where an injected stuck-at fault corrupts the
    /// read).
    ///
    /// # Panics
    ///
    /// Panics if the location is outside the geometry.
    pub fn read_word(&self, loc: Location) -> u64 {
        let value = self.contents.read_word(loc);
        if self.faults.is_empty() {
            value
        } else {
            self.faults.apply_on_read(loc, value)
        }
    }

    /// Overwrites a whole row at once (fast path for fill phases).
    ///
    /// # Panics
    ///
    /// Panics if the slice length does not match the row size.
    pub fn write_row(&mut self, row: RowKey, words: &[u64]) {
        self.contents.write_row(row, words);
    }

    /// Writes a contiguous run of words within one row: one row lookup
    /// instead of one per word. Falls back to per-word writes when logical
    /// faults are injected (fault side-effects are word-granular).
    ///
    /// # Panics
    ///
    /// Panics if the span starts outside the geometry or runs past the end
    /// of the row.
    pub fn write_words(&mut self, start: Location, values: &[u64]) {
        if self.faults.is_empty() {
            self.contents.write_words(start, values);
        } else {
            for (i, &value) in values.iter().enumerate() {
                let loc = Location::new(start.rank, start.bank, start.row, start.col + i as u32);
                self.write_word(loc, value);
            }
        }
    }

    /// Reads a contiguous run of words within one row: one row lookup
    /// instead of one per word. Falls back to per-word reads when logical
    /// faults are injected (stuck-at corruption is word-granular).
    ///
    /// # Panics
    ///
    /// Panics if the span starts outside the geometry or runs past the end
    /// of the row.
    pub fn read_words(&self, start: Location, out: &mut [u64]) {
        if self.faults.is_empty() {
            self.contents.read_words(start, out);
        } else {
            for (i, slot) in out.iter_mut().enumerate() {
                let loc = Location::new(start.rank, start.bank, start.row, start.col + i as u32);
                *slot = self.read_word(loc);
            }
        }
    }

    /// The contents generation counter — bumped whenever stored bits
    /// change. A [`RunPlan`] is valid only for the generation it was built
    /// against.
    pub fn contents_generation(&self) -> u64 {
        self.contents.generation()
    }

    /// Restores all memory to the default fill.
    pub fn clear_contents(&mut self) {
        self.contents.clear();
    }

    /// Number of rows the workload has materialized.
    pub fn materialized_rows(&self) -> usize {
        self.contents.materialized_rows()
    }

    /// Advances one refresh window under the given operating point and
    /// activation profile, returning every word whose stored bits leaked.
    ///
    /// `nonce` identifies the (run, window) pair and seeds the VRT state;
    /// repeat runs with different nonces to observe run-to-run variation
    /// (the paper averages each virus over 10 runs, §V-A.1).
    ///
    /// The platform is expected to scrub-correct CE words after each window
    /// (patrol scrubbing), so contents are not mutated here; persistent weak
    /// cells re-fail every window, which is how EDAC accumulates counts on
    /// the real server.
    pub fn advance_window(
        &mut self,
        env: &OperatingEnv,
        acts: &ActivationCounts,
        nonce: u64,
    ) -> Vec<WordEvent> {
        let disturbance = self.disturbance_profile(acts);
        self.advance_window_profiled(env, &disturbance, nonce)
    }

    /// Precomputes the per-weak-word disturbance factors for an activation
    /// profile (aligned with the population's word order). The profile is
    /// invariant across the refresh windows of a run, so callers evaluating
    /// many windows compute it once and use
    /// [`Self::advance_window_profiled`] or [`Self::prepare_run`].
    ///
    /// Activations are bucketed per (rank, bank) and sorted by row index so
    /// each victim row scans only the aggressors that can disturb it and the
    /// hammer sum always accumulates in the same order (floating-point
    /// addition is order-sensitive; a deterministic order keeps repeat
    /// evaluations bit-identical). The population is sorted by location, so
    /// words sharing a row are consecutive and the per-row factor is
    /// memoized across them.
    pub fn disturbance_profile(&self, acts: &ActivationCounts) -> Vec<f64> {
        let words = self.device.population.words();
        if acts.total() == 0 {
            return vec![0.0; words.len()];
        }
        let geo = self.config.geometry;
        let banks = geo.banks as usize;
        let mut by_bank: Vec<Vec<(u32, f64)>> = vec![Vec::new(); geo.ranks as usize * banks];
        for (row, count) in acts.iter() {
            // Aggressors outside the geometry share a bank with no victim.
            if row.rank < geo.ranks && row.bank < geo.banks {
                by_bank[row.rank as usize * banks + row.bank as usize]
                    .push((row.row, count as f64));
            }
        }
        // Rows are distinct within a bank, so the row alone fixes the order.
        for bank_acts in &mut by_bank {
            bank_acts.sort_unstable_by_key(|&(row, _)| row);
        }
        let model = &self.config.disturbance;
        // The decay weight of an aggressor depends only on its row distance;
        // tabulating it over the bank's rows evaluates the same expression
        // once per distance instead of once per (victim, aggressor) pair.
        let decay = |distance: f64| (-distance / model.decay_rows).exp();
        let decay_by_distance: Vec<f64> = (0..geo.rows_per_bank).map(|d| decay(d as f64)).collect();
        let mut profile = Vec::with_capacity(words.len());
        let mut memo: Option<(RowKey, f64)> = None;
        for word in words {
            let row = word.loc.row_key();
            let factor = match memo {
                Some((r, f)) if r == row => f,
                _ => {
                    let bank_acts = &by_bank[row.rank as usize * banks + row.bank as usize];
                    let mut hammer = 0.0;
                    for &(aggressor, count) in bank_acts {
                        if aggressor == row.row {
                            continue;
                        }
                        let distance = aggressor.abs_diff(row.row);
                        let weight = decay_by_distance
                            .get(distance as usize)
                            .copied()
                            .unwrap_or_else(|| decay(distance as f64));
                        hammer += count * weight;
                    }
                    let f = model.factor_from_hammer(hammer);
                    memo = Some((row, f));
                    f
                }
            };
            profile.push(factor);
        }
        profile
    }

    /// [`Self::advance_window`] with a precomputed disturbance profile
    /// (see [`Self::disturbance_profile`]).
    ///
    /// This is the **reference** per-cell loop: it re-evaluates the full
    /// retention expression for every weak cell each window. Multi-window
    /// runs should build a [`RunPlan`] with [`Self::prepare_run`] and call
    /// [`Self::advance_window_planned`] instead, which produces bit-identical
    /// events at a fraction of the cost; this loop stays as the oracle the
    /// differential tests compare against.
    ///
    /// # Panics
    ///
    /// Panics if the profile length does not match the weak-word count.
    pub fn advance_window_profiled(
        &mut self,
        env: &OperatingEnv,
        disturbance: &[f64],
        nonce: u64,
    ) -> Vec<WordEvent> {
        assert_eq!(
            disturbance.len(),
            self.device.population.words().len(),
            "disturbance profile length mismatch"
        );
        self.refresh_cache_if_stale();
        let physics = &self.config.physics;
        let env_factor = physics.env_factor(env);
        let mut events = Vec::new();
        let mut base = 0usize;
        for (word, &row_disturb) in self.device.population.words().iter().zip(disturbance) {
            // Clustered defect pairs are comparatively hammer-resistant
            // (see PhysicsParams::pair_disturbance_mult).
            let word_disturb = if word.cells.len() >= 2 {
                row_disturb * physics.pair_disturbance_mult
            } else {
                row_disturb
            };
            let mut flip_mask = 0u64;
            for (i, cell) in word.cells.iter().enumerate() {
                let mut retention = cell.base_retention_s * env_factor;
                if cell.is_vrt
                    && vrt_degraded(self.seed, nonce, cell.vrt_index, physics.vrt_degraded_prob)
                {
                    retention *= physics.vrt_degraded_mult;
                }
                if self.cache.charged[base + i] {
                    retention /= self.cache.interference[base + i] * (1.0 + word_disturb);
                } else {
                    retention *= physics.discharged_retention_mult;
                }
                if retention < env.trefp_s {
                    flip_mask |= 1u64 << cell.bit;
                }
            }
            base += word.cells.len();
            if flip_mask != 0 {
                let written = self.contents.read_word(word.loc);
                events.push(WordEvent {
                    loc: word.loc,
                    written,
                    flip_mask,
                });
            }
        }
        events
    }

    /// Builds a [`RunPlan`] for one run: a fixed operating point and
    /// disturbance profile over the current contents.
    ///
    /// For every weak cell the flip decision `retention < trefp` is
    /// evaluated **here**, once, for both VRT states — using exactly the
    /// floating-point expression sequence of
    /// [`Self::advance_window_profiled`], so the resulting plan reproduces
    /// the reference loop's events bit for bit. Cells whose decision does
    /// not depend on the VRT draw collapse into per-word static flip masks
    /// (or vanish entirely); only the cells whose decision differs between
    /// the two VRT states remain for per-window work.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::IndexOverflow`] if the weak-cell population is
    /// too large for the plan's `u32` index layout (beyond 2^32
    /// VRT-contingent cells or interleaved static events — unreachable for
    /// any physical DIMM, but checked rather than silently truncated into
    /// a wrong-but-plausible plan).
    ///
    /// # Panics
    ///
    /// Panics if the profile length does not match the weak-word count.
    pub fn prepare_run(
        &mut self,
        env: &OperatingEnv,
        disturbance: &[f64],
    ) -> Result<RunPlan, PlanError> {
        assert_eq!(
            disturbance.len(),
            self.device.population.words().len(),
            "disturbance profile length mismatch"
        );
        self.refresh_cache_if_stale();
        let physics = &self.config.physics;
        let env_factor = physics.env_factor(env);
        let mut static_events = Vec::new();
        let mut vrt_words = Vec::new();
        let mut bit_masks = Vec::new();
        let mut bit_indices = Vec::new();
        let mut bit_flip_when_degraded = Vec::new();
        let mut statics_since_vrt = 0u32;
        let mut base = 0usize;
        let words = self.device.population.words().iter().zip(disturbance);
        for ((word, &row_disturb), &written) in words.zip(&self.cache.written) {
            let word_disturb = if word.cells.len() >= 2 {
                row_disturb * physics.pair_disturbance_mult
            } else {
                row_disturb
            };
            let bits_start = bit_masks.len();
            let mut base_mask = 0u64;
            for (i, cell) in word.cells.iter().enumerate() {
                let charged = self.cache.charged[base + i];
                let interference = self.cache.interference[base + i];
                let flips = |mut retention: f64| {
                    if charged {
                        retention /= interference * (1.0 + word_disturb);
                    } else {
                        retention *= physics.discharged_retention_mult;
                    }
                    retention < env.trefp_s
                };
                let flip_normal = flips(cell.base_retention_s * env_factor);
                if cell.is_vrt {
                    let flip_degraded =
                        flips(cell.base_retention_s * env_factor * physics.vrt_degraded_mult);
                    if flip_degraded == flip_normal {
                        if flip_normal {
                            base_mask |= 1u64 << cell.bit;
                        }
                    } else {
                        bit_masks.push(1u64 << cell.bit);
                        bit_indices.push(cell.vrt_index);
                        bit_flip_when_degraded.push(flip_degraded);
                    }
                } else if flip_normal {
                    base_mask |= 1u64 << cell.bit;
                }
            }
            base += word.cells.len();
            let bits_end = bit_masks.len();
            if bits_end > bits_start {
                vrt_words.push(VrtWord {
                    statics_before: statics_since_vrt,
                    loc: word.loc,
                    written,
                    base_mask,
                    bits_start: plan_index("bits_start", bits_start)?,
                    bits_end: plan_index("bits_end", bits_end)?,
                });
                statics_since_vrt = 0;
            } else if base_mask != 0 {
                static_events.push(WordEvent {
                    loc: word.loc,
                    written,
                    flip_mask: base_mask,
                });
                statics_since_vrt = plan_index("statics_before", statics_since_vrt as usize + 1)?;
            }
        }
        Ok(RunPlan {
            generation: self.contents.generation(),
            vrt_degraded_prob: physics.vrt_degraded_prob,
            static_events,
            vrt_words,
            bit_masks,
            bit_indices,
            bit_flip_when_degraded,
        })
    }

    /// Evaluates one refresh window through a prepared plan, appending this
    /// window's events to `out` (cleared first so the buffer can be reused
    /// across windows). Bit-identical to
    /// [`Self::advance_window_profiled`] with the same env/profile/nonce.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Stale`] if contents changed since the plan was
    /// built — the plan bakes in per-cell charge state and written words,
    /// so it must be rebuilt after any write. This is a typed error (not a
    /// panic) so an evaluation supervisor can classify it as a permanent
    /// programming fault instead of a retryable candidate panic.
    pub fn advance_window_planned(
        &self,
        plan: &RunPlan,
        nonce: u64,
        out: &mut Vec<WordEvent>,
    ) -> Result<(), PlanError> {
        self.ensure_plan_fresh(plan)?;
        plan.advance_window(self.seed, nonce, out);
        Ok(())
    }

    /// Evaluates one refresh window of a prepared plan for up to
    /// [`crate::plan::MAX_LANES`] evaluation lanes at once, reporting which
    /// VRT-contingent bits flipped in which lane: bit `l` of `out[i]` is set
    /// iff contingent bit `i` flips in lane `l` (a VRT word's bits are
    /// [`crate::plan::VrtWordView::bits`]). Lane `l` runs with window nonce
    /// `nonces[l]` and only while bit `l` of `live` is set. Static events
    /// are not reported: they are the same in every window.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Stale`] if contents changed since the plan was
    /// built.
    pub fn advance_window_planned_subsets(
        &self,
        plan: &RunPlan,
        nonces: &[u64],
        live: u64,
        out: &mut Vec<u64>,
    ) -> Result<(), PlanError> {
        self.ensure_plan_fresh(plan)?;
        plan.advance_window_vrt_subsets(self.seed, nonces, live, out);
        Ok(())
    }

    /// Checks that a plan was built against the current contents.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Stale`] if contents changed since the plan was
    /// built. Callers that evaluate many windows or lanes can check once
    /// up front: contents cannot change during window evaluation.
    pub fn ensure_plan_fresh(&self, plan: &RunPlan) -> Result<(), PlanError> {
        let current = self.contents.generation();
        if plan.generation() != current {
            return Err(PlanError::Stale {
                built: plan.generation(),
                current,
            });
        }
        Ok(())
    }

    /// Recomputes the data-dependent per-cell state when contents changed.
    ///
    /// A gather over the device's probe table: each weak row and its two
    /// neighbour rows are looked up once (the population is sorted by
    /// location, so one lookup serves a whole row), then every cell reads
    /// its own, bitline-neighbour and neighbour-row bits by position.
    fn refresh_cache_if_stale(&mut self) {
        let generation = self.contents.generation();
        if self.cache_generation == Some(generation) {
            return;
        }
        let physics = self.config.physics;
        let device = &*self.device;
        let probes = device.probes();
        let contents = &self.contents;
        // Unwritten rows read as the default fill.
        let default_row = vec![contents.default_word(); self.config.geometry.words_per_row()];
        let mut cache = std::mem::take(&mut self.cache);
        cache.written.clear();
        cache.charged.clear();
        cache.interference.clear();
        let mut cells = probes.iter();
        let lookup = |row: RowKey, adj: Option<u32>| {
            adj.and_then(|r| contents.row_words(RowKey::new(row.rank, row.bank, r)))
                .unwrap_or(&default_row)
        };
        // The rows above, at and below the current weak row; moving to the
        // next row of a bank slides the window by one lookup.
        let mut gathered: Option<(RowKey, [&[u64]; 3])> = None;
        for word in device.population.words() {
            let row = word.loc.row_key();
            let [above, own, below] = match gathered {
                Some((r, rows)) if r == row => rows,
                Some((r, [_, prev, next]))
                    if (r.rank, r.bank) == (row.rank, row.bank) && r.row + 1 == row.row =>
                {
                    let rows = [prev, next, lookup(row, row.row.checked_add(1))];
                    gathered = Some((row, rows));
                    rows
                }
                _ => {
                    let rows = [
                        lookup(row, row.row.checked_sub(1)),
                        lookup(row, Some(row.row)),
                        lookup(row, row.row.checked_add(1)),
                    ];
                    gathered = Some((row, rows));
                    rows
                }
            };
            let written = own[word.loc.col as usize];
            cache.written.push(written);
            for cell in &word.cells {
                let probe = cells.next().expect("one probe per weak cell");
                let true_cell = probe.has(TRUE_CELL);
                let charged = ((written >> cell.bit) & 1 == 1) == true_cell;
                let interference = if charged {
                    let mut intra = 0u32;
                    for (has, bit, is_true) in [
                        (HAS_LEFT, probe.left, LEFT_TRUE),
                        (HAS_RIGHT, probe.right, RIGHT_TRUE),
                    ] {
                        if probe.has(has) && row_bit(own, bit) == probe.has(is_true) {
                            intra += 1;
                        }
                    }
                    // Inter-row interference: a charged victim node facing a
                    // *discharged* node in the adjacent row of the same bank
                    // sees the largest field and leaks fastest. (A uniform
                    // worst-word fill charges everything and gets none of
                    // this — which is exactly why the per-row 24 KB patterns
                    // can beat it, Fig. 9.)
                    let mut inter = 0u32;
                    for (has, words, bit) in [
                        (HAS_ABOVE, above, probe.above),
                        (HAS_BELOW, below, probe.below),
                    ] {
                        if probe.has(has) && row_bit(words, bit) != true_cell {
                            inter += 1;
                        }
                    }
                    1.0 + physics.intra_row_coupling * intra as f64
                        + physics.inter_row_coupling * inter as f64
                } else {
                    1.0
                };
                cache.charged.push(charged);
                cache.interference.push(interference);
            }
        }
        self.cache = cache;
        self.cache_generation = Some(generation);
    }

    /// The per-bit walk the gathered refresh replaces, kept as its oracle:
    /// every cell maps its bits through the topology and reads them one
    /// by one from the row store. Returns `(charged, interference)` in
    /// population order.
    #[cfg(test)]
    fn cell_state_reference(&self) -> (Vec<bool>, Vec<f64>) {
        let physics = self.config.physics;
        let geometry = self.config.geometry;
        let topology = &self.device.topology;
        let mut charged_cells = Vec::new();
        let mut interference_cells = Vec::new();
        for word in self.device.population.words() {
            let row = word.loc.row_key();
            for cell in &word.cells {
                let logical = word.loc.col * 64 + cell.bit as u32;
                let value = self.contents.read_bit(row, logical);
                let phys = topology.physical_bit(row, logical);
                let kind = topology.kind_at_physical(phys);
                let charged = kind.charged(value);
                let interference = if charged {
                    let mut intra = 0u32;
                    let (left, right) = topology.physical_neighbours(phys);
                    for np in [left, right].into_iter().flatten() {
                        if self.physical_cell_charged(row, np) {
                            intra += 1;
                        }
                    }
                    let mut inter = 0u32;
                    for adj in [row.row.checked_sub(1), row.row.checked_add(1)]
                        .into_iter()
                        .flatten()
                        .filter(|&r| r < geometry.rows_per_bank)
                    {
                        let adj_row = RowKey::new(row.rank, row.bank, adj);
                        if !self.physical_cell_charged(adj_row, phys) {
                            inter += 1;
                        }
                    }
                    1.0 + physics.intra_row_coupling * intra as f64
                        + physics.inter_row_coupling * inter as f64
                } else {
                    1.0
                };
                charged_cells.push(charged);
                interference_cells.push(interference);
            }
        }
        (charged_cells, interference_cells)
    }

    /// Whether the cell at a *physical* bitline position of a row is
    /// charged, given current contents.
    #[cfg(test)]
    fn physical_cell_charged(&self, row: RowKey, phys: u32) -> bool {
        let topology = &self.device.topology;
        let logical = topology.logical_bit(row, phys);
        let value = self.contents.read_bit(row, logical);
        topology.kind_at_physical(phys).charged(value)
    }
}

/// Narrows a plan-build counter to the plan's `u32` index width, failing
/// loudly instead of silently truncating into a wrong-but-plausible plan.
fn plan_index(what: &'static str, value: usize) -> Result<u32, PlanError> {
    value
        .try_into()
        .map_err(|_| PlanError::IndexOverflow { what, value })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanWord;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The worst-case word under the TTAA layout: LSB-first bit string
    /// `1100 1100 …` = hex 0x3333….
    const WORST: u64 = 0x3333_3333_3333_3333;
    /// The opposite phase discharges every unscrambled cell.
    const BEST: u64 = 0xCCCC_CCCC_CCCC_CCCC;

    fn dimm(seed: u64) -> Dimm {
        Dimm::new(DimmConfig::default(), seed)
    }

    fn fill_all(d: &mut Dimm, word: u64) {
        let geo = d.geometry();
        let row_words = vec![word; geo.words_per_row()];
        for rank in 0..geo.ranks {
            for bank in 0..geo.banks {
                for row in 0..geo.rows_per_bank {
                    d.write_row(RowKey::new(rank, bank, row), &row_words);
                }
            }
        }
    }

    fn count_flips(events: &[WordEvent]) -> u64 {
        events.iter().map(|e| e.flipped_bits() as u64).sum()
    }

    #[test]
    fn no_errors_at_nominal_parameters() {
        let mut d = dimm(11);
        fill_all(&mut d, WORST);
        let env = OperatingEnv::nominal(55.0);
        let events = d.advance_window(&env, &ActivationCounts::new(), 0);
        assert!(
            events.is_empty(),
            "{} events at nominal parameters",
            events.len()
        );
    }

    #[test]
    fn relaxed_parameters_manifest_errors() {
        let mut d = dimm(11);
        fill_all(&mut d, WORST);
        let env = OperatingEnv::relaxed(60.0);
        let events = d.advance_window(&env, &ActivationCounts::new(), 0);
        assert!(!events.is_empty(), "relaxed 60C should manifest errors");
    }

    #[test]
    fn worst_pattern_beats_uniform_patterns() {
        // The 1100 pattern charges ~every cell; all-0s / all-1s /
        // checkerboard charge ~half (paper §V-A.1).
        let env = OperatingEnv::relaxed(60.0);
        let mut counts = HashMap::new();
        for (name, word) in [
            ("worst", WORST),
            ("all0", 0u64),
            ("all1", u64::MAX),
            ("cb", 0x5555_5555_5555_5555),
        ] {
            let mut d = dimm(11);
            fill_all(&mut d, word);
            let events = d.advance_window(&env, &ActivationCounts::new(), 0);
            counts.insert(name, count_flips(&events));
        }
        let worst = counts["worst"];
        for name in ["all0", "all1", "cb"] {
            assert!(
                worst as f64 >= 1.45 * counts[name] as f64,
                "worst={} vs {}={}",
                worst,
                name,
                counts[name]
            );
        }
    }

    #[test]
    fn best_pattern_is_roughly_8x_below_worst() {
        let env = OperatingEnv::relaxed(60.0);
        let mut d = dimm(11);
        fill_all(&mut d, WORST);
        let worst = count_flips(&d.advance_window(&env, &ActivationCounts::new(), 0));
        let mut d = dimm(11);
        fill_all(&mut d, BEST);
        let best = count_flips(&d.advance_window(&env, &ActivationCounts::new(), 0));
        let ratio = worst as f64 / best.max(1) as f64;
        assert!(
            (3.0..30.0).contains(&ratio),
            "worst/best ratio {ratio} (worst={worst} best={best})"
        );
    }

    #[test]
    fn hammering_neighbour_rows_increases_errors() {
        let env = OperatingEnv::relaxed(60.0);
        let mut d = dimm(11);
        fill_all(&mut d, WORST);
        let quiet = count_flips(&d.advance_window(&env, &ActivationCounts::new(), 0));
        let mut acts = ActivationCounts::new();
        let geo = d.geometry();
        for rank in 0..geo.ranks {
            for bank in 0..geo.banks {
                for row in 0..geo.rows_per_bank {
                    acts.add(RowKey::new(rank, bank, row), 3000);
                }
            }
        }
        let hammered = count_flips(&d.advance_window(&env, &acts, 0));
        assert!(
            hammered as f64 > 1.2 * quiet as f64,
            "hammered={hammered} quiet={quiet}"
        );
    }

    #[test]
    fn temperature_increases_error_count_monotonically() {
        let mut previous = 0u64;
        for temp in [50.0, 55.0, 60.0, 65.0, 70.0] {
            let mut d = dimm(13);
            fill_all(&mut d, WORST);
            let env = OperatingEnv::relaxed(temp);
            let flips = count_flips(&d.advance_window(&env, &ActivationCounts::new(), 0));
            assert!(
                flips >= previous,
                "errors dropped from {previous} to {flips} at {temp}C"
            );
            previous = flips;
        }
        assert!(previous > 0);
    }

    #[test]
    fn multi_bit_words_appear_only_at_high_temperature() {
        let worst_multi = |temp: f64| {
            let mut d = dimm(17);
            fill_all(&mut d, WORST);
            let env = OperatingEnv::relaxed(temp);
            d.advance_window(&env, &ActivationCounts::new(), 0)
                .iter()
                .filter(|e| e.flipped_bits() >= 2)
                .count()
        };
        assert_eq!(worst_multi(55.0), 0, "UE-prone pairs must not fail at 55C");
        assert!(worst_multi(66.0) > 0, "UE-prone pairs must fail by 66C");
    }

    #[test]
    fn run_to_run_variation_from_vrt() {
        let env = OperatingEnv::relaxed(60.0);
        let mut d = dimm(19);
        fill_all(&mut d, WORST);
        let counts: Vec<u64> = (0..10)
            .map(|run| count_flips(&d.advance_window(&env, &ActivationCounts::new(), run)))
            .collect();
        let distinct: std::collections::HashSet<_> = counts.iter().collect();
        assert!(
            distinct.len() > 1,
            "VRT should cause run-to-run variation: {counts:?}"
        );
    }

    #[test]
    fn different_seeds_have_different_error_counts() {
        let env = OperatingEnv::relaxed(60.0);
        let count_for = |seed| {
            let mut d = dimm(seed);
            fill_all(&mut d, WORST);
            count_flips(&d.advance_window(&env, &ActivationCounts::new(), 0))
        };
        assert_ne!(count_for(1), count_for(2));
    }

    #[test]
    fn events_report_written_data() {
        let env = OperatingEnv::relaxed(65.0);
        let mut d = dimm(11);
        fill_all(&mut d, WORST);
        for e in d.advance_window(&env, &ActivationCounts::new(), 0) {
            assert_eq!(e.written, WORST);
            assert_ne!(e.flip_mask, 0);
            assert_ne!(e.corrupted(), e.written);
        }
    }

    #[test]
    fn planned_window_matches_reference_loop() {
        let env = OperatingEnv::relaxed(62.0);
        let mut d = dimm(23);
        fill_all(&mut d, WORST);
        let mut acts = ActivationCounts::new();
        acts.add(RowKey::new(0, 0, 9), 4000);
        acts.add(RowKey::new(0, 0, 11), 4000);
        acts.add(RowKey::new(1, 3, 20), 50_000);
        let profile = d.disturbance_profile(&acts);
        let plan = d.prepare_run(&env, &profile).unwrap();
        assert!(plan.static_words() + plan.vrt_words() > 0);
        let mut planned = Vec::new();
        for nonce in 0..50u64 {
            d.advance_window_planned(&plan, nonce, &mut planned)
                .unwrap();
            let reference = d.advance_window_profiled(&env, &profile, nonce);
            assert_eq!(planned, reference, "nonce {nonce}");
        }
    }

    #[test]
    fn lane_kernel_matches_per_lane_vrt_events() {
        let env = OperatingEnv::relaxed(62.0);
        let mut d = dimm(23);
        fill_all(&mut d, WORST);
        let mut acts = ActivationCounts::new();
        acts.add(RowKey::new(0, 0, 9), 4000);
        acts.add(RowKey::new(1, 3, 20), 50_000);
        let profile = d.disturbance_profile(&acts);
        let plan = d.prepare_run(&env, &profile).unwrap();
        assert!(plan.vrt_words() > 0, "need VRT-contingent words");
        let vrt_words: Vec<_> = plan
            .words()
            .filter_map(|w| match w {
                PlanWord::Vrt(view) => Some(view),
                PlanWord::Static(_) => None,
            })
            .collect();
        assert_eq!(vrt_words.len(), plan.vrt_words());
        // 7 lanes with irregular nonces and a hole in the live mask.
        let nonces: Vec<u64> = (0..7u64).map(|l| l.wrapping_mul(0x9E37_79B9) ^ 5).collect();
        let live = 0b110_1011u64;
        let mut flips = vec![u64::MAX; 3];
        d.advance_window_planned_subsets(&plan, &nonces, live, &mut flips)
            .unwrap();
        assert_eq!(flips.len(), plan.vrt_cells());
        assert!(
            flips.iter().all(|&lanes| lanes & !live == 0),
            "dead lanes never flip"
        );
        let mut full = Vec::new();
        let mut flipped_any = false;
        for (l, &nonce) in nonces.iter().enumerate() {
            if live & (1 << l) == 0 {
                continue;
            }
            // Rebuild lane l's VRT-word events from its flip subsets.
            let rebuilt: Vec<WordEvent> = vrt_words
                .iter()
                .filter_map(|w| {
                    let mut mask = w.base_mask;
                    for (&bit_mask, &lanes) in w.contingent.iter().zip(&flips[w.bits.clone()]) {
                        if lanes & (1 << l) != 0 {
                            mask |= bit_mask;
                            flipped_any = true;
                        }
                    }
                    (mask != 0).then_some(WordEvent {
                        loc: w.loc,
                        written: w.written,
                        flip_mask: mask,
                    })
                })
                .collect();
            // The VRT-word events are the full event stream minus the
            // static ones.
            d.advance_window_planned(&plan, nonce, &mut full).unwrap();
            let vrt_only: Vec<WordEvent> = full
                .iter()
                .filter(|e| vrt_words.iter().any(|w| w.loc == e.loc))
                .copied()
                .collect();
            assert_eq!(rebuilt, vrt_only, "lane {l}");
        }
        assert!(flipped_any, "some contingent bit must flip in some lane");
    }

    #[test]
    fn plan_words_interleave_in_population_order() {
        let env = OperatingEnv::relaxed(62.0);
        let mut d = dimm(23);
        fill_all(&mut d, WORST);
        let profile = d.disturbance_profile(&ActivationCounts::new());
        let plan = d.prepare_run(&env, &profile).unwrap();
        let words: Vec<_> = plan.words().collect();
        assert_eq!(words.len(), plan.static_words() + plan.vrt_words());
        assert!(words.windows(2).all(|w| w[0].loc() < w[1].loc()));
        let mut next_bit = 0;
        for word in &words {
            if let PlanWord::Vrt(view) = word {
                assert_eq!(view.bits.start, next_bit, "contingent bits are contiguous");
                assert_eq!(view.contingent.len(), view.bits.len());
                next_bit = view.bits.end;
            }
        }
        assert_eq!(next_bit, plan.vrt_cells());
    }

    #[test]
    fn plan_shrinks_population_to_vrt_contingent_cells() {
        let env = OperatingEnv::relaxed(60.0);
        let mut d = dimm(29);
        fill_all(&mut d, WORST);
        let profile = d.disturbance_profile(&ActivationCounts::new());
        let plan = d.prepare_run(&env, &profile).unwrap();
        // The per-window workload must be a small fraction of the full
        // population — that's the entire point of the plan.
        assert!(
            plan.vrt_cells() * 10 < d.population().total_cells(),
            "{} VRT-contingent cells out of {}",
            plan.vrt_cells(),
            d.population().total_cells()
        );
    }

    #[test]
    fn stale_plan_is_a_typed_error_not_a_panic() {
        let env = OperatingEnv::relaxed(60.0);
        let mut d = dimm(11);
        fill_all(&mut d, WORST);
        let profile = d.disturbance_profile(&ActivationCounts::new());
        let plan = d.prepare_run(&env, &profile).unwrap();
        let built = plan.generation();
        d.write_word(Location::new(0, 0, 0, 0), BEST);
        let current = d.contents_generation();
        assert_ne!(built, current);
        let mut out = Vec::new();
        let err = d.advance_window_planned(&plan, 0, &mut out).unwrap_err();
        assert_eq!(err, PlanError::Stale { built, current });
        assert!(err.to_string().contains("stale RunPlan"), "{err}");
        // The lane path enforces the same freshness contract.
        let mut flips = Vec::new();
        let err = d
            .advance_window_planned_subsets(&plan, &[0], 1, &mut flips)
            .unwrap_err();
        assert_eq!(err, PlanError::Stale { built, current });
    }

    #[test]
    fn plan_index_narrows_exactly_to_u32() {
        assert_eq!(plan_index("bits_end", 0), Ok(0));
        assert_eq!(plan_index("bits_end", u32::MAX as usize), Ok(u32::MAX));
        let err = plan_index("bits_end", u32::MAX as usize + 1).unwrap_err();
        assert_eq!(
            err,
            PlanError::IndexOverflow {
                what: "bits_end",
                value: u32::MAX as usize + 1,
            }
        );
        let text = err.to_string();
        assert!(
            text.contains("bits_end") && text.contains("4294967296"),
            "{text}"
        );
    }

    #[test]
    fn write_words_matches_per_word_writes() {
        let mut a = dimm(31);
        let mut b = dimm(31);
        let start = Location::new(0, 2, 7, 100);
        let values = [1u64, 2, 3, WORST, BEST];
        a.write_words(start, &values);
        for (i, &v) in values.iter().enumerate() {
            b.write_word(
                Location::new(start.rank, start.bank, start.row, start.col + i as u32),
                v,
            );
        }
        for i in 0..values.len() as u32 + 1 {
            let loc = Location::new(start.rank, start.bank, start.row, start.col + i);
            assert_eq!(a.read_word(loc), b.read_word(loc));
        }
    }

    #[test]
    fn read_words_matches_per_word_reads() {
        let mut d = dimm(31);
        let start = Location::new(0, 2, 7, 100);
        let values = [1u64, 2, 3, WORST, BEST];
        d.write_words(start, &values);
        // Spans over written and default (unmaterialized) columns.
        for (from, n) in [(98u32, 10usize), (100, 5), (0, 3)] {
            let begin = Location::new(0, 2, 7, from);
            let mut bulk = vec![0u64; n];
            d.read_words(begin, &mut bulk);
            for (i, &got) in bulk.iter().enumerate() {
                let loc = Location::new(0, 2, 7, from + i as u32);
                assert_eq!(got, d.read_word(loc), "column {}", from + i as u32);
            }
        }
    }

    /// Refreshes the cell cache and checks it against the per-bit oracle,
    /// comparing interference multipliers bit for bit.
    fn assert_cache_matches_reference(d: &mut Dimm) -> Result<(), TestCaseError> {
        d.refresh_cache_if_stale();
        let (charged, interference) = d.cell_state_reference();
        prop_assert_eq!(&d.cache.charged, &charged);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&d.cache.interference), bits(&interference));
        Ok(())
    }

    /// Device seeds of the cell-state oracle test.
    const ORACLE_SEEDS: [u64; 4] = [1, 7, 42, 0xD5_7E55];

    #[test]
    fn oracle_seeds_cover_scrambled_rows_and_remapped_columns() {
        for seed in ORACLE_SEEDS {
            let d = dimm(seed);
            let topo = d.topology();
            let (mut scrambled, mut remapped) = (0, 0);
            for word in d.population().words() {
                let row = word.loc.row_key();
                scrambled += usize::from(topo.is_scrambled(row));
                let phys = topo.physical_bit(row, word.loc.col * 64);
                remapped += usize::from((phys / 64) != word.loc.col);
            }
            assert!(
                scrambled > 0,
                "seed {seed}: no weak cell in a scrambled row"
            );
            assert!(
                remapped > 0,
                "seed {seed}: no weak cell in a remapped column"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn gathered_cell_state_matches_reference_walk(
            seed in 0usize..ORACLE_SEEDS.len(),
            sparse in any::<bool>(),
            default_fill in prop_oneof![Just(0u64), Just(WORST), any::<u64>()],
            writes in proptest::collection::vec(
                (
                    any::<usize>(),
                    -1i32..=1,
                    prop_oneof![Just(0u32), Just(63), 0u32..64],
                    any::<u64>(),
                ),
                0..200,
            ),
        ) {
            // A sparse population leaves rows without weak cells, so the
            // gather also restarts its row window mid-bank.
            let weak = if sparse {
                WeakCellConfig { singles_per_rank: 60, pairs_per_rank: 6, ..WeakCellConfig::default() }
            } else {
                WeakCellConfig::default()
            };
            let config = DimmConfig { default_fill, weak, ..DimmConfig::default() };
            let mut d = Dimm::new(config, ORACLE_SEEDS[seed]);
            assert_cache_matches_reference(&mut d)?;
            // Writes land on weak words or their neighbour rows, with the
            // inverted value at an edge or random row of the same column.
            let rows = d.geometry().rows_per_bank;
            let words: Vec<Location> = d.population().words().iter().map(|w| w.loc).collect();
            for &(pick, offset, other_row, value) in &writes {
                let loc = words[pick % words.len()];
                let row = loc.row.saturating_add_signed(offset).min(rows - 1);
                d.write_word(Location::new(loc.rank, loc.bank, row, loc.col), value);
                d.write_word(Location::new(loc.rank, loc.bank, other_row, loc.col), !value);
            }
            assert_cache_matches_reference(&mut d)?;
            d.clear_contents();
            assert_cache_matches_reference(&mut d)?;
        }
    }

    #[test]
    fn clone_shares_the_hidden_device_and_builds_an_identical_cache() {
        let mut original = dimm(37);
        fill_all(&mut original, WORST);
        original.write_word(Location::new(0, 1, 0, 5), BEST);
        let mut clone = original.clone();
        assert!(std::ptr::eq(original.population(), clone.population()));
        assert!(std::ptr::eq(original.topology(), clone.topology()));
        original.refresh_cache_if_stale();
        clone.refresh_cache_if_stale();
        // The probe table the original built is the one the clone used.
        assert!(std::ptr::eq(
            original.device.probes(),
            clone.device.probes()
        ));
        assert_eq!(clone.cache, original.cache);
    }

    #[test]
    fn tabulated_decay_matches_per_pair_evaluation() {
        let d = dimm(41);
        let geo = d.geometry();
        let mut acts = ActivationCounts::new();
        for (i, row) in [0u32, 1, 5, 31, 62, 63, 64, 900].into_iter().enumerate() {
            acts.add(RowKey::new(0, 2, row), 1000 + 977 * i as u64);
            acts.add(RowKey::new(1, 7, row), 50_000 / (i as u64 + 1));
        }
        let model = d.config().disturbance;
        let expected: Vec<f64> = d
            .population()
            .words()
            .iter()
            .map(|word| {
                let victim = word.loc.row_key();
                let mut aggressors: Vec<(u32, u64)> = acts
                    .iter()
                    .filter(|(r, _)| (r.rank, r.bank) == (victim.rank, victim.bank))
                    .map(|(r, count)| (r.row, count))
                    .collect();
                aggressors.sort_unstable();
                let mut hammer = 0.0;
                for (aggressor, count) in aggressors {
                    if aggressor != victim.row {
                        let distance = (aggressor as f64 - victim.row as f64).abs();
                        hammer += count as f64 * (-distance / model.decay_rows).exp();
                    }
                }
                model.factor_from_hammer(hammer)
            })
            .collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let profile = d.disturbance_profile(&acts);
        assert_eq!(bits(&profile), bits(&expected));
        assert!(profile.iter().any(|&f| f > 0.0));
        assert!(
            geo.rows_per_bank < 900,
            "row 900 exercises the untabulated distances"
        );
    }

    #[test]
    fn cache_invalidation_on_write() {
        let env = OperatingEnv::relaxed(60.0);
        let mut d = dimm(11);
        fill_all(&mut d, WORST);
        let with_worst = count_flips(&d.advance_window(&env, &ActivationCounts::new(), 0));
        fill_all(&mut d, BEST);
        let with_best = count_flips(&d.advance_window(&env, &ActivationCounts::new(), 0));
        assert!(with_worst > with_best, "cache must follow contents changes");
    }
}
