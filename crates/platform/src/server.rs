//! The experimental server: MCUs, MCBs, ECC counters, parameter knobs and
//! virus-run evaluation (paper §IV, Fig. 5).

use crate::config::ServerConfig;
use crate::power::{PowerModel, PowerReport};
use crate::replay::ReplayProfile;
use crate::session::{RecordedRun, Session};
use crate::thermal::{SettleReport, ThermalError, ThermalTestbed};
use dstress_dram::geometry::RowKey;
use dstress_dram::{
    ActivationCounts, AddressMap, Dimm, OperatingEnv, PlanError, PlanWord, RunPlan, WordEvent,
    MAX_LANES,
};
use dstress_ecc::{classify_flips, CounterSnapshot, EccCounters, EventKind};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Number of memory controller units on the X-Gene 2 (paper Fig. 5).
pub const MCUS: usize = 4;
/// Number of memory controller bridges; each spans two MCUs and owns the
/// VDD rail (paper §IV).
pub const MCBS: usize = 2;
/// Ranks per DIMM.
pub const RANKS: usize = 2;

/// Bounded retention of the per-MCU plan cache (entries are FIFO-evicted;
/// a generation needs one entry per distinct (contents, operating point,
/// activation profile) it evaluates, which is 1 for the idle MCUs and 1
/// per candidate — evicted next round — for the target MCU).
const PLAN_CACHE_CAP: usize = 8;

/// Bounded retention of the replay-profile cache. Candidates of one
/// population whose templates record value-independent traces (all the
/// data-pattern viruses) share one entry.
const PROFILE_CACHE_CAP: usize = 4;

/// An operating point as exact bit patterns — the plan-cache key must use
/// bitwise equality, not approximate float comparison, because the plan is
/// a pure function of the exact operating-point floats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EnvKey {
    temp: u64,
    vdd: u64,
    trefp: u64,
}

impl EnvKey {
    fn of(env: &OperatingEnv) -> EnvKey {
        EnvKey {
            temp: env.temp_c.to_bits(),
            vdd: env.vdd_v.to_bits(),
            trefp: env.trefp_s.to_bits(),
        }
    }
}

/// The most contingent bits a VRT word may carry: its kind table has one
/// entry per flip subset, `2^k` in all. Every sampled population has
/// `k = 1` (only single weak cells are VRT).
const MAX_KIND_TABLE_BITS: usize = 8;

/// A [`RunPlan`] with its ECC accounting resolved at build time, shared
/// (via `Arc`) between the plan cache and every [`PreparedRun`] that hit it.
///
/// Static events are byte-identical in every window of every run, and a
/// VRT word can only take one of `2^k` flip masks (one per subset of its
/// `k` contingent bits), so both are classified here, once per plan. The
/// batched evaluation path then only looks kinds up and adds integers,
/// which keeps it bit-identical to the event-at-a-time accounting of
/// [`record_events`].
#[derive(Debug)]
struct McuPlan {
    plan: RunPlan,
    /// The rows holding a static event or a VRT word, numbered densely in
    /// population order (ascending [`RowKey`]).
    rows: Vec<PlanRow>,
    /// Per VRT word, in plan order.
    vrt: Vec<VrtAccount>,
    /// The VRT words' kind tables, concatenated in plan order. Entry `s` of
    /// a word's table classifies its flip mask when the contingent bits in
    /// subset `s` flip (bit `j` of `s` selects the word's `j`-th bit);
    /// `None` where that mask is 0, i.e. no event.
    kinds: Vec<Option<EventKind>>,
    /// Per-rank counter delta of one window's static events.
    static_per_rank: [CounterSnapshot; RANKS],
    /// Whether the static events include an uncorrectable error (which
    /// then fires in every window).
    static_ue: bool,
}

/// One dense row of an [`McuPlan`] and the CE/UE counts of one window's
/// static events in it.
#[derive(Debug, Clone, Copy)]
struct PlanRow {
    key: RowKey,
    ce: u32,
    ue: u32,
}

/// The accounting of one VRT word: its dense row, its rank and its number
/// of contingent bits (which sizes its slices of the lane kernel's output
/// and of [`McuPlan::kinds`]).
#[derive(Debug, Clone, Copy)]
struct VrtAccount {
    row: u32,
    rank: u8,
    bits: u8,
}

impl McuPlan {
    fn build(plan: RunPlan) -> Result<McuPlan, PlanError> {
        let mut rows: Vec<PlanRow> = Vec::new();
        let mut vrt = Vec::with_capacity(plan.vrt_words());
        let mut kinds = Vec::with_capacity(2 * plan.vrt_words());
        let mut static_per_rank = [CounterSnapshot::default(); RANKS];
        let mut static_ue = false;
        for word in plan.words() {
            let loc = word.loc();
            let key = loc.row_key();
            if rows.last().is_none_or(|r| r.key != key) {
                debug_assert!(
                    rows.last().is_none_or(|r| r.key < key),
                    "plan words come in population order"
                );
                rows.push(PlanRow { key, ce: 0, ue: 0 });
            }
            let row_index = rows.len() - 1;
            match word {
                PlanWord::Static(event) => {
                    let kind = classify_flips(event.written, event.flip_mask, 0);
                    static_per_rank[loc.rank as usize].count(kind);
                    let row = &mut rows[row_index];
                    match kind {
                        EventKind::Ce => row.ce += 1,
                        EventKind::Ue => {
                            row.ue += 1;
                            static_ue = true;
                        }
                        _ => {}
                    }
                }
                PlanWord::Vrt(word) => {
                    push_kind_table(word.written, word.base_mask, word.contingent, &mut kinds)?;
                    vrt.push(VrtAccount {
                        row: u32::try_from(row_index).map_err(|_| PlanError::IndexOverflow {
                            what: "rows",
                            value: row_index,
                        })?,
                        rank: loc.rank,
                        // At most MAX_KIND_TABLE_BITS, checked above.
                        bits: word.contingent.len() as u8,
                    });
                }
            }
        }
        // The plan cache keeps this for the plan's lifetime.
        rows.shrink_to_fit();
        Ok(McuPlan {
            plan,
            rows,
            vrt,
            kinds,
            static_per_rank,
            static_ue,
        })
    }
}

/// Appends a VRT word's kind table to `out`: entry `s` classifies
/// `base_mask` OR'd with the masks of the contingent bits in subset `s`
/// (bit `j` of `s` selects `contingent[j]`), or is `None` where that mask
/// is 0.
///
/// # Errors
///
/// [`PlanError::IndexOverflow`] if the word has more than
/// [`MAX_KIND_TABLE_BITS`] contingent bits.
fn push_kind_table(
    written: u64,
    base_mask: u64,
    contingent: &[u64],
    out: &mut Vec<Option<EventKind>>,
) -> Result<(), PlanError> {
    if contingent.len() > MAX_KIND_TABLE_BITS {
        return Err(PlanError::IndexOverflow {
            what: "contingent_bits",
            value: contingent.len(),
        });
    }
    out.extend((0..1usize << contingent.len()).map(|subset| {
        let mask = contingent
            .iter()
            .enumerate()
            .filter(|&(j, _)| subset >> j & 1 == 1)
            .fold(base_mask, |mask, (_, &bit)| mask | bit);
        (mask != 0).then(|| classify_flips(written, mask, 0))
    }));
    Ok(())
}

/// One plan-cache entry: the full (contents, operating point, disturbance)
/// key — contents identified by the DIMM's monotonically increasing
/// generation counter, the disturbance by the activation profile it derives
/// from — plus the prepared plan. The stored `acts` are compared for exact
/// equality on lookup, so a hit is collision-free by construction.
///
/// The entry can also keep the disturbance profile the plan was built
/// from. The profile depends on the activation counts alone, so a
/// plan-cache miss whose `acts` equal an entry's (a candidate replaying the
/// same trace over new contents) reuses it instead of recomputing it. It is
/// kept only once its `acts` have repeated: a workload whose traces never
/// repeat then holds no profiles.
#[derive(Debug, Clone)]
struct CachedPlan {
    generation: u64,
    env: EnvKey,
    acts: ActivationCounts,
    disturbance: Option<Arc<Vec<f64>>>,
    prepared: Arc<McuPlan>,
}

/// One replay-profile cache entry: the profile depends on the recorded
/// trace and the per-MCU refresh periods (and on fixed per-server config),
/// so both are stored and verified for exact equality on lookup.
#[derive(Debug, Clone)]
struct CachedProfile {
    trefps: [u64; MCUS],
    trace: RecordedRun,
    profile: Arc<ReplayProfile>,
}

/// Multiplies every field of a per-window counter delta by a window count.
fn scale_snapshot(s: &CounterSnapshot, windows: u64) -> CounterSnapshot {
    CounterSnapshot {
        ce: s.ce * windows,
        ue: s.ue * windows,
        sdc_miscorrected: s.sdc_miscorrected * windows,
        sdc_undetected: s.sdc_undetected * windows,
        clean: s.clean * windows,
    }
}

/// Scratch of the batched evaluation path, reused across batches: cleared,
/// not reallocated, like `events_scratch`. Batch rows and batch words are
/// the dense rows and VRT words of the [`McuPlan`]s, offset by those of the
/// MCUs before them.
#[derive(Debug, Clone, Default)]
struct LaneScratch {
    /// The lane kernel's output for one (window, MCU): per contingent bit,
    /// the lanes in which it flipped.
    flips: Vec<u64>,
    /// First batch row of each MCU.
    row_base: [usize; MCUS],
    /// First batch word of each MCU.
    word_base: [usize; MCUS],
    /// Batch words in all.
    total_words: usize,
    /// Per-lane (CE, UE) counts of each batch word, lane-major. A word has
    /// at most one event a window, so a `u32` count cannot overflow. Every
    /// entry is zero between batches.
    tallies: Vec<(u32, u32)>,
    /// Marks the batch rows whose VRT words had a visible event in the lane
    /// being finished; all clear otherwise.
    touched: Vec<bool>,
    /// Per-lane run-local counter deltas.
    deltas: Vec<[[CounterSnapshot; RANKS]; MCUS]>,
    /// The static rows of every MCU (batch row, one window's counts), in
    /// outcome order.
    static_rows: Vec<(usize, RowErrors)>,
    /// One lane's touched rows, in outcome order.
    lane_rows: Vec<RowErrors>,
}

impl LaneScratch {
    /// Lays out the batch rows and words of a prepared run and sorts its
    /// static rows. Within a lane every static count scales by the same
    /// window count, so this order holds for every lane of every batch.
    fn begin(&mut self, prepared: &PreparedRun) {
        self.static_rows.clear();
        let (mut rows, mut words) = (0, 0);
        for (mcu, plan) in prepared.plans.iter().enumerate() {
            self.row_base[mcu] = rows;
            self.word_base[mcu] = words;
            for (row, r) in plan.rows.iter().enumerate() {
                if (r.ce, r.ue) != (0, 0) {
                    self.static_rows.push((
                        rows + row,
                        RowErrors {
                            mcu,
                            row: r.key,
                            ce: r.ce as u64,
                            ue: r.ue as u64,
                        },
                    ));
                }
            }
            rows += plan.rows.len();
            words += plan.vrt.len();
        }
        self.total_words = words;
        self.touched.clear();
        self.touched.resize(rows, false);
        self.static_rows.sort_unstable_by_key(|(_, r)| row_key(r));
    }

    /// Readies the per-lane tallies and deltas for a batch of `lanes`.
    fn start_batch(&mut self, lanes: usize) {
        // Every tally is zero between batches, so resizing keeps them zero.
        self.tallies.resize(lanes * self.total_words, (0, 0));
        self.deltas.clear();
        self.deltas
            .resize(lanes, [[CounterSnapshot::default(); RANKS]; MCUS]);
    }

    /// Tallies one (window, MCU) of VRT events from the flip subsets in
    /// `self.flips`; returns the lanes that saw an uncorrectable error.
    fn account_window(&mut self, plan: &McuPlan, mcu: usize, live: u64) -> u64 {
        let base = self.word_base[mcu];
        let mut ue_lanes = 0u64;
        let (mut bit, mut entry) = (0, 0);
        for (index, word) in plan.vrt.iter().enumerate() {
            let flips = &self.flips[bit..bit + word.bits as usize];
            let table = &plan.kinds[entry..entry + (1 << word.bits)];
            bit += flips.len();
            entry += table.len();
            // With a static base mask every live lane has an event; without
            // one only the lanes in which some contingent bit flipped do.
            let mut lanes = if table[0].is_some() {
                live
            } else {
                flips.iter().fold(0, |lanes, &f| lanes | f)
            };
            while lanes != 0 {
                let lane = lanes.trailing_zeros() as usize;
                lanes &= lanes - 1;
                let subset = flips
                    .iter()
                    .rev()
                    .fold(0, |s, &f| (s << 1) | ((f >> lane) & 1) as usize);
                let Some(kind) = table[subset] else {
                    continue;
                };
                self.deltas[lane][mcu][word.rank as usize].count(kind);
                let tally = &mut self.tallies[lane * self.total_words + base + index];
                match kind {
                    EventKind::Ce => tally.0 += 1,
                    EventKind::Ue => {
                        tally.1 += 1;
                        ue_lanes |= 1u64 << lane;
                    }
                    _ => {}
                }
            }
        }
        ue_lanes
    }

    /// Completes one lane's run: adds the static events of its completed
    /// windows, records its counter deltas (one lock per MCU and rank),
    /// assembles its row tallies and zeroes its scratch.
    fn finish_lane(
        &mut self,
        lane: usize,
        prepared: &PreparedRun,
        counters: &[Vec<EccCounters>],
        windows_completed: u32,
        stopped_on_ue: bool,
    ) -> RunOutcome {
        let windows = windows_completed as u64;
        for (mcu, ranks) in self.deltas[lane].iter_mut().enumerate() {
            for (rank, delta) in ranks.iter_mut().enumerate() {
                let statics = &prepared.plans[mcu].static_per_rank[rank];
                *delta = *delta + scale_snapshot(statics, windows);
                counters[mcu][rank].record_snapshot(delta);
            }
        }
        // The VRT words come in row order: sum each row's run of words.
        let tallies = &mut self.tallies[lane * self.total_words..][..self.total_words];
        self.lane_rows.clear();
        for (mcu, plan) in prepared.plans.iter().enumerate() {
            let mut words = tallies[self.word_base[mcu]..][..plan.vrt.len()].iter();
            for run in plan.vrt.chunk_by(|a, b| a.row == b.row) {
                let (ce, ue) = words
                    .by_ref()
                    .take(run.len())
                    .fold((0, 0), |(ce, ue), &(c, u)| (ce + c as u64, ue + u as u64));
                if (ce, ue) == (0, 0) {
                    continue;
                }
                let row = run[0].row as usize;
                self.touched[self.row_base[mcu] + row] = true;
                let statics = plan.rows[row];
                self.lane_rows.push(RowErrors {
                    mcu,
                    row: statics.key,
                    ce: ce + statics.ce as u64 * windows,
                    ue: ue + statics.ue as u64 * windows,
                });
            }
        }
        self.lane_rows.sort_unstable_by_key(row_key);
        // The untouched static rows keep the batch's order; a lane that
        // completed no window saw no static event.
        let touched_rows = &self.touched;
        let mut statics = self
            .static_rows
            .iter()
            .filter(|&&(row, _)| windows > 0 && !touched_rows[row])
            .map(|&(_, r)| RowErrors {
                ce: r.ce * windows,
                ue: r.ue * windows,
                ..r
            })
            .peekable();
        let mut touched = self.lane_rows.iter().copied().peekable();
        let mut row_errors = Vec::with_capacity(self.lane_rows.len() + self.static_rows.len());
        loop {
            let next = match (touched.peek(), statics.peek()) {
                (Some(a), Some(b)) if row_key(a) < row_key(b) => touched.next(),
                (_, Some(_)) => statics.next(),
                (Some(_), None) => touched.next(),
                (None, None) => break,
            };
            row_errors.extend(next);
        }
        tallies.fill((0, 0));
        self.touched.fill(false);
        assemble_outcome(
            &self.deltas[lane],
            row_errors,
            windows_completed,
            stopped_on_ue,
        )
    }
}

/// One memory controller unit: its DIMM, refresh period, allocation
/// cursor and prepared-plan cache.
#[derive(Debug, Clone)]
struct Mcu {
    dimm: Dimm,
    trefp_s: f64,
    alloc_cursor: u64,
    /// FIFO cache of prepared run plans, keyed by (contents generation,
    /// operating point, activation profile). Entries for superseded
    /// generations simply stop matching and age out; the generation
    /// counter never repeats, so a hit cannot alias different contents.
    plan_cache: VecDeque<CachedPlan>,
}

/// One memory controller bridge: the VDD rail for two MCUs.
#[derive(Debug, Clone, Copy)]
struct Mcb {
    vdd_v: f64,
}

/// Error counts attributed to one (MCU, rank) error domain — what Linux
/// EDAC exposes per DIMM/rank on the real server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DomainCounts {
    /// MCU (and therefore DIMM slot) index.
    pub mcu: usize,
    /// Rank within the DIMM.
    pub rank: usize,
    /// The counter values.
    pub counts: CounterSnapshot,
}

/// Error counts attributed to one DRAM row during a run — what the paper
/// aggregates to find "error-prone rows" for the neighbour-row experiments
/// (§V-A.2: "We identified the row addresses where errors were detected
/// using the mapping function").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RowErrors {
    /// MCU (DIMM slot) index.
    pub mcu: usize,
    /// The affected row.
    pub row: dstress_dram::geometry::RowKey,
    /// Correctable errors observed in the row.
    pub ce: u64,
    /// Uncorrectable errors observed in the row.
    pub ue: u64,
}

/// A virus run prepared for repeated evaluation: one [`RunPlan`] per MCU,
/// built once for the current contents, operating points and replay
/// profile by [`XGene2Server::prepare_run`].
///
/// Valid until contents or operating points change — the ten-run averaging
/// loop of a fitness call reuses one `PreparedRun` across all its nonces,
/// paying the per-cell retention math once instead of once per window per
/// run.
#[derive(Debug, Clone)]
pub struct PreparedRun {
    plans: Vec<Arc<McuPlan>>,
}

/// The observable outcome of evaluating one virus run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Error totals across all domains for this run.
    pub totals: CounterSnapshot,
    /// Per-(MCU, rank) breakdown.
    pub per_domain: Vec<DomainCounts>,
    /// Refresh windows completed before the run ended.
    pub windows_completed: u32,
    /// Whether the run was stopped early because ECC raised an
    /// uncorrectable error (the paper's framework kills the virus on UE,
    /// §V-A.1).
    pub stopped_on_ue: bool,
    /// Per-row error tallies for this run, sorted by descending CE count.
    pub row_errors: Vec<RowErrors>,
}

/// The simulated X-Gene 2 server.
///
/// See the crate-level example for typical use.
///
/// The server is `Clone`: a clone is a fully independent replica (its own
/// DIMMs, thermal state and ECC counters) whose future behaviour is
/// identical to the original's for the same inputs — the substrate the
/// parallel GA evaluation workers each own a copy of.
#[derive(Debug, Clone)]
pub struct XGene2Server {
    config: ServerConfig,
    mcus: Vec<Mcu>,
    mcbs: [Mcb; MCBS],
    thermal: ThermalTestbed,
    counters: Vec<Vec<EccCounters>>,
    /// Scratch row-error tally reused across runs (cleared before use).
    row_errors_scratch: HashMap<(usize, RowKey), (u64, u64)>,
    /// Scratch event buffer reused across windows (cleared before use).
    events_scratch: Vec<WordEvent>,
    /// Scratch of the batched evaluation path.
    lane_scratch: LaneScratch,
    /// FIFO cache of replay profiles keyed by (trace, refresh periods).
    profile_cache: VecDeque<CachedProfile>,
}

impl XGene2Server {
    /// Boots a server: builds four DIMMs from their per-slot seeds and
    /// density multipliers, nominal operating parameters everywhere, all
    /// DIMMs at ambient temperature.
    pub fn new(config: ServerConfig) -> Self {
        let mcus = (0..MCUS)
            .map(|i| Mcu {
                dimm: Dimm::new(config.dimm_config_for(i), config.dimm_seeds[i]),
                trefp_s: dstress_dram::env::NOMINAL_TREFP_S,
                alloc_cursor: 0,
                plan_cache: VecDeque::new(),
            })
            .collect();
        let counters = (0..MCUS)
            .map(|_| (0..RANKS).map(|_| EccCounters::new()).collect())
            .collect();
        XGene2Server {
            config,
            mcus,
            mcbs: [Mcb {
                vdd_v: dstress_dram::env::NOMINAL_VDD_V,
            }; MCBS],
            thermal: ThermalTestbed::new(MCUS, config.ambient_c),
            counters,
            row_errors_scratch: HashMap::new(),
            events_scratch: Vec::new(),
            lane_scratch: LaneScratch::default(),
            profile_cache: VecDeque::new(),
        }
    }

    /// The server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Whether hardware interleaving is enabled.
    pub fn interleaving(&self) -> bool {
        self.config.interleaving
    }

    /// Row size of the installed DIMMs in bytes.
    pub fn row_bytes(&self) -> u64 {
        self.config.dimm.geometry.row_bytes as u64
    }

    /// Sets the refresh period of one MCU (the X-Gene 2 configures TREFP
    /// per MCU, §IV).
    ///
    /// # Panics
    ///
    /// Panics if `mcu` is out of range or `trefp_s` is not positive.
    pub fn set_trefp(&mut self, mcu: usize, trefp_s: f64) {
        assert!(trefp_s > 0.0, "refresh period must be positive");
        self.mcus[mcu].trefp_s = trefp_s;
    }

    /// The refresh period of one MCU.
    pub fn trefp(&self, mcu: usize) -> f64 {
        self.mcus[mcu].trefp_s
    }

    /// Sets the supply voltage of one MCB (two MCUs share a rail, §IV).
    ///
    /// # Panics
    ///
    /// Panics if `mcb` is out of range or the voltage is not positive.
    pub fn set_vdd(&mut self, mcb: usize, vdd_v: f64) {
        assert!(vdd_v > 0.0, "supply voltage must be positive");
        self.mcbs[mcb].vdd_v = vdd_v;
    }

    /// The supply voltage feeding an MCU.
    pub fn vdd_for_mcu(&self, mcu: usize) -> f64 {
        self.mcbs[mcu / 2].vdd_v
    }

    /// Drives one DIMM to a temperature setpoint through the PID testbed
    /// and returns the settling report. Check the report's `settled` flag:
    /// an unreachable setpoint comes back as `settled == false`, not as an
    /// error.
    ///
    /// # Errors
    ///
    /// [`ThermalError::ChannelOutOfRange`] if `mcu` is out of range.
    pub fn set_dimm_temperature(
        &mut self,
        mcu: usize,
        temp_c: f64,
    ) -> Result<SettleReport, ThermalError> {
        self.thermal.settle(mcu, temp_c)
    }

    /// The current temperature of a DIMM.
    ///
    /// # Panics
    ///
    /// Panics if `mcu` is out of range (the server always rigs one thermal
    /// channel per MCU).
    pub fn dimm_temperature(&self, mcu: usize) -> f64 {
        self.thermal
            .temperature(mcu)
            .expect("one thermal channel per MCU")
    }

    /// The operating point currently applied to one MCU's DIMM.
    pub fn operating_env(&self, mcu: usize) -> OperatingEnv {
        OperatingEnv {
            temp_c: self.dimm_temperature(mcu),
            vdd_v: self.vdd_for_mcu(mcu),
            trefp_s: self.mcus[mcu].trefp_s,
        }
    }

    /// Applies the paper's relaxed stress point (max TREFP, min VDD) to the
    /// second memory domain (MCU2+MCU3 behind MCB1), leaving MCU0/MCU1
    /// nominal — the §IV memory configuration.
    pub fn relax_second_domain(&mut self) {
        self.set_trefp(2, dstress_dram::env::MAX_TREFP_S);
        self.set_trefp(3, dstress_dram::env::MAX_TREFP_S);
        self.set_vdd(1, 1.428);
    }

    /// Opens a memory session that allocates from `target_mcu`.
    ///
    /// # Panics
    ///
    /// Panics if `target_mcu` is out of range.
    pub fn session(&mut self, target_mcu: usize) -> Session<'_> {
        assert!(target_mcu < MCUS, "MCU index {target_mcu} out of range");
        let max_trace = self.config.access.max_trace_len;
        Session::new(self, target_mcu, max_trace)
    }

    /// Read-only access to one DIMM (diagnostics / calibration).
    pub fn dimm(&self, mcu: usize) -> &Dimm {
        &self.mcus[mcu].dimm
    }

    /// Mutable access to one DIMM (workload setup outside a session).
    pub fn dimm_mut(&mut self, mcu: usize) -> &mut Dimm {
        &mut self.mcus[mcu].dimm
    }

    /// Clears the contents of every DIMM and resets allocation cursors —
    /// fresh memory between experiments.
    pub fn reset_memory(&mut self) {
        for mcu in &mut self.mcus {
            mcu.dimm.clear_contents();
            mcu.alloc_cursor = 0;
        }
    }

    pub(crate) fn allocate(&mut self, mcu: usize, bytes: u64) -> Option<u64> {
        let capacity = self.mcus[mcu].dimm.geometry().capacity_bytes();
        let cursor = self.mcus[mcu].alloc_cursor;
        if cursor + bytes > capacity {
            return None;
        }
        self.mcus[mcu].alloc_cursor += bytes;
        Some(cursor)
    }

    pub(crate) fn available(&self, mcu: usize) -> u64 {
        self.mcus[mcu].dimm.geometry().capacity_bytes() - self.mcus[mcu].alloc_cursor
    }

    pub(crate) fn read_local(&self, mcu: usize, local_addr: u64) -> u64 {
        let map = self.mcus[mcu].dimm.address_map();
        let loc = map
            .map(local_addr & !7)
            .expect("session addresses are within capacity");
        self.mcus[mcu].dimm.read_word(loc)
    }

    pub(crate) fn write_local(&mut self, mcu: usize, local_addr: u64, value: u64) {
        let map = self.mcus[mcu].dimm.address_map();
        let loc = map
            .map(local_addr & !7)
            .expect("session addresses are within capacity");
        self.mcus[mcu].dimm.write_word(loc, value);
    }

    /// Loads consecutive words starting at a DIMM-local address; the span
    /// must not cross a row boundary (callers chunk per row — consecutive
    /// in-row addresses map to consecutive columns).
    pub(crate) fn read_local_span(&self, mcu: usize, local_addr: u64, out: &mut [u64]) {
        let map = self.mcus[mcu].dimm.address_map();
        let loc = map
            .map(local_addr & !7)
            .expect("session addresses are within capacity");
        self.mcus[mcu].dimm.read_words(loc, out);
    }

    /// Stores consecutive words starting at a DIMM-local address; the span
    /// must not cross a row boundary (callers chunk per row — consecutive
    /// in-row addresses map to consecutive columns).
    pub(crate) fn write_local_span(&mut self, mcu: usize, local_addr: u64, values: &[u64]) {
        let map = self.mcus[mcu].dimm.address_map();
        let loc = map
            .map(local_addr & !7)
            .expect("session addresses are within capacity");
        self.mcus[mcu].dimm.write_words(loc, values);
    }

    /// Zeroes all EDAC counters (done between virus runs, as on the real
    /// server).
    pub fn reset_counters(&mut self) {
        for per_mcu in &self.counters {
            for c in per_mcu {
                c.reset();
            }
        }
    }

    /// Snapshot of every (MCU, rank) error domain.
    pub fn counters(&self) -> Vec<DomainCounts> {
        let mut out = Vec::with_capacity(MCUS * RANKS);
        for (mcu, per_mcu) in self.counters.iter().enumerate() {
            for (rank, c) in per_mcu.iter().enumerate() {
                out.push(DomainCounts {
                    mcu,
                    rank,
                    counts: c.snapshot(),
                });
            }
        }
        out
    }

    /// Evaluates one virus run: replays the recorded trace for
    /// `windows_per_run` refresh windows under the current operating points
    /// and tallies ECC events. `nonce` distinguishes repeat runs of the
    /// same virus (VRT makes them differ, so callers average several runs,
    /// as the paper does with 10).
    ///
    /// The run stops at the end of the first window in which ECC reported
    /// an uncorrectable error, mirroring the OS killing the virus (§V-A.1).
    ///
    /// Internally this builds a [`PreparedRun`] and evaluates it; results
    /// are bit-identical to [`Self::evaluate_run_reference`].
    ///
    /// # Errors
    ///
    /// [`PlanError`] on a plan-layer programming error (see
    /// [`Self::evaluate_prepared`]).
    pub fn evaluate_run(&mut self, run: &RecordedRun, nonce: u64) -> Result<RunOutcome, PlanError> {
        let prepared = self.prepare_run(run)?;
        self.evaluate_prepared(&prepared, nonce)
    }

    /// Evaluates `runs` repeat runs of the same virus, building the replay
    /// profile and run plans once (the paper's 10-run averaging workflow,
    /// §V-A.1). The runs are evaluated through the batched lane kernel —
    /// all of them advance window by window together — which is
    /// bit-identical to evaluating them one at a time
    /// ([`Self::evaluate_runs_sequential`], the retained oracle).
    ///
    /// # Errors
    ///
    /// [`PlanError`] on a plan-layer programming error.
    pub fn evaluate_runs(
        &mut self,
        run: &RecordedRun,
        runs: u32,
        base_nonce: u64,
    ) -> Result<Vec<RunOutcome>, PlanError> {
        let prepared = self.prepare_run(run)?;
        self.evaluate_prepared_runs(&prepared, runs, base_nonce)
    }

    /// Per-run oracle for [`Self::evaluate_runs`]: the same prepared plans
    /// evaluated one run at a time through [`Self::evaluate_prepared`].
    /// The differential suite pins the batched path against this.
    ///
    /// # Errors
    ///
    /// [`PlanError`] on a plan-layer programming error.
    pub fn evaluate_runs_sequential(
        &mut self,
        run: &RecordedRun,
        runs: u32,
        base_nonce: u64,
    ) -> Result<Vec<RunOutcome>, PlanError> {
        let prepared = self.prepare_run(run)?;
        (0..runs as u64)
            .map(|r| self.evaluate_prepared(&prepared, base_nonce.wrapping_add(r)))
            .collect()
    }

    /// Builds the per-MCU [`RunPlan`]s for a recorded run under the current
    /// contents and operating points, serving repeats from the per-MCU plan
    /// cache: candidates sharing a (contents, operating point, activation
    /// profile) key — in a GA population that is every candidate for the
    /// idle MCUs, and repeat evaluations of one candidate for the target
    /// MCU — pay the per-cell retention math once. A cache hit requires
    /// exact equality of the stored activation profile, so cached and
    /// freshly built plans are interchangeable bit for bit and outcomes
    /// never depend on cache state.
    ///
    /// Evaluate with [`Self::evaluate_prepared`]; rebuild after any write
    /// or knob change.
    ///
    /// # Errors
    ///
    /// [`PlanError::IndexOverflow`] if a weak-cell population overflows the
    /// plan index layout or a VRT word has more contingent bits than its
    /// kind table serves.
    pub fn prepare_run(&mut self, run: &RecordedRun) -> Result<PreparedRun, PlanError> {
        let profile = self.profile_cached(run);
        let mut plans = Vec::with_capacity(MCUS);
        for mcu in 0..MCUS {
            let env = EnvKey::of(&self.operating_env(mcu));
            let generation = self.mcus[mcu].dimm.contents_generation();
            let acts = &profile.acts_per_window[mcu];
            if let Some(hit) = self.mcus[mcu]
                .plan_cache
                .iter()
                .find(|c| c.generation == generation && c.env == env && &c.acts == acts)
            {
                plans.push(Arc::clone(&hit.prepared));
                continue;
            }
            let unit = &self.mcus[mcu];
            // The newest entry with these counts holds the kept profile, if any.
            let same_acts = unit.plan_cache.iter().rev().find(|c| &c.acts == acts);
            let repeated = same_acts.is_some();
            let disturbance = match same_acts.and_then(|c| c.disturbance.clone()) {
                Some(kept) => kept,
                None => Arc::new(unit.dimm.disturbance_profile(acts)),
            };
            let prepared = Arc::new(self.build_mcu_plan(mcu, &disturbance)?);
            let cache = &mut self.mcus[mcu].plan_cache;
            if cache.len() >= PLAN_CACHE_CAP {
                cache.pop_front();
            }
            cache.push_back(CachedPlan {
                generation,
                env,
                acts: acts.clone(),
                disturbance: repeated.then_some(disturbance),
                prepared: Arc::clone(&prepared),
            });
            plans.push(prepared);
        }
        Ok(PreparedRun { plans })
    }

    /// [`Self::prepare_run`] without consulting or populating the caches —
    /// the cold-path oracle the cache-coherence tests (and the `generation`
    /// bench baseline) compare against.
    ///
    /// # Errors
    ///
    /// [`PlanError::IndexOverflow`] if a weak-cell population overflows the
    /// plan index layout or a VRT word has more contingent bits than its
    /// kind table serves.
    pub fn prepare_run_uncached(&mut self, run: &RecordedRun) -> Result<PreparedRun, PlanError> {
        let profile = self.build_profile(run);
        let mut plans = Vec::with_capacity(MCUS);
        for mcu in 0..MCUS {
            let disturbance = self.mcus[mcu]
                .dimm
                .disturbance_profile(&profile.acts_per_window[mcu]);
            plans.push(Arc::new(self.build_mcu_plan(mcu, &disturbance)?));
        }
        Ok(PreparedRun { plans })
    }

    fn build_mcu_plan(&mut self, mcu: usize, disturbance: &[f64]) -> Result<McuPlan, PlanError> {
        let env = self.operating_env(mcu);
        McuPlan::build(self.mcus[mcu].dimm.prepare_run(&env, disturbance)?)
    }

    /// Drops every cached plan and replay profile. Outcomes are
    /// cache-state independent, so this only affects wall-clock — it
    /// exists for benchmarks and cache-coherence tests.
    pub fn clear_eval_caches(&mut self) {
        for mcu in &mut self.mcus {
            mcu.plan_cache.clear();
        }
        self.profile_cache.clear();
    }

    /// The replay profile for a recorded run, served from the profile
    /// cache when an entry with an identical (trace, refresh periods) key
    /// exists. Equality of the full trace is verified on every hit, so the
    /// cache can never alias two different traces; data-pattern viruses,
    /// whose traces record addresses and access kinds but not values,
    /// share one entry across a whole population.
    fn profile_cached(&mut self, run: &RecordedRun) -> Arc<ReplayProfile> {
        let trefps: [u64; MCUS] = std::array::from_fn(|i| self.mcus[i].trefp_s.to_bits());
        if let Some(hit) = self
            .profile_cache
            .iter()
            .find(|c| c.trefps == trefps && &c.trace == run)
        {
            return Arc::clone(&hit.profile);
        }
        let profile = Arc::new(self.build_profile(run));
        if self.profile_cache.len() >= PROFILE_CACHE_CAP {
            self.profile_cache.pop_front();
        }
        self.profile_cache.push_back(CachedProfile {
            trefps,
            trace: run.clone(),
            profile: Arc::clone(&profile),
        });
        profile
    }

    /// Evaluates one run through prepared plans — the hot path behind
    /// [`Self::evaluate_run`]/[`Self::evaluate_runs`] and the GA fitness
    /// loop. Per window, each DIMM emits its pre-built static events plus
    /// one Bernoulli draw per VRT-contingent cell; nothing else is
    /// recomputed.
    ///
    /// # Errors
    ///
    /// [`PlanError::Stale`] if DIMM contents changed since
    /// [`Self::prepare_run`] — a programming error in the calling layer,
    /// surfaced as a typed error (not a panic) so an evaluation supervisor
    /// classifies it as permanent instead of retrying the candidate.
    pub fn evaluate_prepared(
        &mut self,
        prepared: &PreparedRun,
        nonce: u64,
    ) -> Result<RunOutcome, PlanError> {
        self.ensure_prepared_fresh(prepared)?;
        let mut deltas = [[CounterSnapshot::default(); RANKS]; MCUS];
        let mut row_errors = std::mem::take(&mut self.row_errors_scratch);
        row_errors.clear();
        let mut events = std::mem::take(&mut self.events_scratch);
        let mut stopped_on_ue = false;
        let mut windows_completed = 0;
        'windows: for window in 0..self.config.windows_per_run {
            // The MCU index addresses several parallel arrays, so an index
            // loop is clearer than nested zips over disjoint borrows of self.
            #[allow(clippy::needless_range_loop)]
            for mcu in 0..MCUS {
                self.mcus[mcu]
                    .dimm
                    .advance_window_planned(
                        &prepared.plans[mcu].plan,
                        window_nonce(nonce, window, mcu),
                        &mut events,
                    )
                    .expect("plan freshness checked above; no writes happen mid-evaluation");
                if record_events(
                    &self.counters[mcu],
                    &mut deltas[mcu],
                    &mut row_errors,
                    mcu,
                    &events,
                ) {
                    stopped_on_ue = true;
                }
            }
            windows_completed = window + 1;
            if stopped_on_ue {
                break 'windows;
            }
        }
        self.events_scratch = events;
        let outcome = finalize_outcome(&deltas, &mut row_errors, windows_completed, stopped_on_ue);
        self.row_errors_scratch = row_errors;
        Ok(outcome)
    }

    /// Evaluates `runs` repeat runs of a prepared virus in one batched
    /// sweep. Per (window, MCU) the lane kernel
    /// ([`Dimm::advance_window_planned_subsets`]) reports which
    /// VRT-contingent bits flipped in each live run, and each VRT word's
    /// flip subset indexes the kind table its plan classified once. The
    /// static events — identical in every window — are classified once per
    /// plan too and applied per run scaled by its completed windows. All
    /// accounting is integer sums, so the outcomes (and the persistent
    /// EDAC counters) are bit-identical to evaluating the runs one at a
    /// time.
    ///
    /// A run stops after the first full window in which any MCU raised an
    /// uncorrectable error, exactly as in [`Self::evaluate_prepared`]; its
    /// lane then goes dead while the other runs continue.
    ///
    /// # Errors
    ///
    /// [`PlanError::Stale`] if DIMM contents changed since
    /// [`Self::prepare_run`].
    pub fn evaluate_prepared_runs(
        &mut self,
        prepared: &PreparedRun,
        runs: u32,
        base_nonce: u64,
    ) -> Result<Vec<RunOutcome>, PlanError> {
        self.ensure_prepared_fresh(prepared)?;
        let mut scratch = std::mem::take(&mut self.lane_scratch);
        scratch.begin(prepared);
        let mut outcomes = Vec::with_capacity(runs as usize);
        let mut nonces = [0u64; MAX_LANES];
        let mut batch_start = 0u64;
        while batch_start < runs as u64 {
            let lanes = (runs as u64 - batch_start).min(MAX_LANES as u64) as usize;
            for (l, nonce) in nonces[..lanes].iter_mut().enumerate() {
                *nonce = base_nonce.wrapping_add(batch_start + l as u64);
            }
            self.evaluate_lane_batch(prepared, &nonces[..lanes], &mut scratch, &mut outcomes);
            batch_start += lanes as u64;
        }
        self.lane_scratch = scratch;
        Ok(outcomes)
    }

    /// One ≤[`MAX_LANES`]-lane batch of [`Self::evaluate_prepared_runs`]:
    /// `nonces[l]` is lane `l`'s run nonce. Freshness must already be
    /// checked and `scratch` begun for `prepared`.
    fn evaluate_lane_batch(
        &self,
        prepared: &PreparedRun,
        nonces: &[u64],
        scratch: &mut LaneScratch,
        outcomes: &mut Vec<RunOutcome>,
    ) {
        let lanes = nonces.len();
        scratch.start_batch(lanes);
        let mut window_nonces = [0u64; MAX_LANES];
        let mut windows_completed = [self.config.windows_per_run; MAX_LANES];
        let mut stopped_on_ue = 0u64;
        let mut live = if lanes == MAX_LANES {
            u64::MAX
        } else {
            (1u64 << lanes) - 1
        };
        for window in 0..self.config.windows_per_run {
            if live == 0 {
                break;
            }
            let mut ue_this_window = 0u64;
            for (mcu, plan) in prepared.plans.iter().enumerate() {
                if plan.static_ue {
                    ue_this_window |= live;
                }
                if plan.vrt.is_empty() {
                    continue;
                }
                for (slot, &nonce) in window_nonces.iter_mut().zip(nonces) {
                    *slot = window_nonce(nonce, window, mcu);
                }
                self.mcus[mcu]
                    .dimm
                    .advance_window_planned_subsets(
                        &plan.plan,
                        &window_nonces[..lanes],
                        live,
                        &mut scratch.flips,
                    )
                    .expect("plan freshness checked by caller; no writes happen mid-evaluation");
                ue_this_window |= scratch.account_window(plan, mcu, live);
            }
            // A UE ends a run after its full window, exactly like the
            // per-run path's end-of-window break.
            let stopping = live & ue_this_window;
            let mut scan = stopping;
            while scan != 0 {
                let lane = scan.trailing_zeros() as usize;
                scan &= scan - 1;
                windows_completed[lane] = window + 1;
            }
            stopped_on_ue |= stopping;
            live &= !stopping;
        }
        outcomes.extend((0..lanes).map(|lane| {
            scratch.finish_lane(
                lane,
                prepared,
                &self.counters,
                windows_completed[lane],
                stopped_on_ue & (1u64 << lane) != 0,
            )
        }));
    }

    fn ensure_prepared_fresh(&self, prepared: &PreparedRun) -> Result<(), PlanError> {
        for (mcu, plan) in prepared.plans.iter().enumerate() {
            self.mcus[mcu].dimm.ensure_plan_fresh(&plan.plan)?;
        }
        Ok(())
    }

    /// Reference evaluation path: re-runs the full per-cell retention loop
    /// every window instead of going through a [`PreparedRun`]. Kept as the
    /// oracle the differential tests (and the `window_kernel` bench) compare
    /// the prepared path against.
    pub fn evaluate_run_reference(&mut self, run: &RecordedRun, nonce: u64) -> RunOutcome {
        let profile = self.build_profile(run);
        let disturbances = self.disturbance_profiles(&profile);
        self.evaluate_with_profile(&disturbances, nonce)
    }

    /// Precomputes each DIMM's per-weak-word disturbance factors for a
    /// replay profile (they are invariant across windows and runs).
    fn disturbance_profiles(&self, profile: &ReplayProfile) -> Vec<Vec<f64>> {
        (0..MCUS)
            .map(|mcu| {
                self.mcus[mcu]
                    .dimm
                    .disturbance_profile(&profile.acts_per_window[mcu])
            })
            .collect()
    }

    /// Builds the analytic replay profile for a recorded run under the
    /// current per-MCU refresh periods.
    pub fn build_profile(&self, run: &RecordedRun) -> ReplayProfile {
        let maps: Vec<AddressMap> = self.mcus.iter().map(|m| m.dimm.address_map()).collect();
        let trefps: Vec<f64> = self.mcus.iter().map(|m| m.trefp_s).collect();
        ReplayProfile::build(run, &self.config.access, &maps, &trefps)
    }

    fn evaluate_with_profile(&mut self, disturbances: &[Vec<f64>], nonce: u64) -> RunOutcome {
        let mut deltas = [[CounterSnapshot::default(); RANKS]; MCUS];
        let mut row_errors = HashMap::new();
        let mut stopped_on_ue = false;
        let mut windows_completed = 0;
        'windows: for window in 0..self.config.windows_per_run {
            // The MCU index addresses four parallel arrays (`mcus`, `counters`,
            // `disturbances`, the per-MCU operating env), so an index loop is
            // clearer than nested enumerate/zip over disjoint borrows of self.
            #[allow(clippy::needless_range_loop)]
            for mcu in 0..MCUS {
                let env = self.operating_env(mcu);
                let events = self.mcus[mcu].dimm.advance_window_profiled(
                    &env,
                    &disturbances[mcu],
                    window_nonce(nonce, window, mcu),
                );
                if record_events(
                    &self.counters[mcu],
                    &mut deltas[mcu],
                    &mut row_errors,
                    mcu,
                    &events,
                ) {
                    stopped_on_ue = true;
                }
            }
            windows_completed = window + 1;
            if stopped_on_ue {
                break 'windows;
            }
        }
        finalize_outcome(&deltas, &mut row_errors, windows_completed, stopped_on_ue)
    }

    /// Measures server power at the current operating points, given the
    /// DRAM access rate each DIMM sustains.
    pub fn measure_power(
        &self,
        model: &PowerModel,
        dram_accesses_per_s: &[f64; MCUS],
    ) -> PowerReport {
        model.report((0..MCUS).map(|i| {
            (
                self.mcus[i].trefp_s,
                self.vdd_for_mcu(i),
                dram_accesses_per_s[i],
            )
        }))
    }
}

/// Derives the per-(window, MCU) VRT nonce from a run nonce — the one
/// formula every evaluation path (reference, prepared, batched) shares.
fn window_nonce(run_nonce: u64, window: u32, mcu: usize) -> u64 {
    run_nonce
        .wrapping_mul(0x0100_0000_01B3)
        .wrapping_add(window as u64)
        .wrapping_add((mcu as u64) << 32)
}

/// Tallies one window's events for one MCU into the persistent EDAC
/// counters, the run-local deltas and the per-row tally. Returns whether an
/// uncorrectable error was seen. Shared by the prepared and reference
/// evaluation paths so their outcomes are constructed identically.
fn record_events(
    counters: &[EccCounters],
    deltas: &mut [CounterSnapshot; RANKS],
    row_errors: &mut HashMap<(usize, RowKey), (u64, u64)>,
    mcu: usize,
    events: &[WordEvent],
) -> bool {
    let mut saw_ue = false;
    for event in events {
        let kind = classify_flips(event.written, event.flip_mask, 0);
        let rank = event.loc.rank as usize;
        counters[rank].record(kind);
        deltas[rank].count(kind);
        if kind.is_visible() {
            let entry = row_errors
                .entry((mcu, event.loc.row_key()))
                .or_insert((0u64, 0u64));
            match kind {
                EventKind::Ce => entry.0 += 1,
                EventKind::Ue => entry.1 += 1,
                _ => {}
            }
        }
        if kind == EventKind::Ue {
            saw_ue = true;
        }
    }
    saw_ue
}

/// Assembles a [`RunOutcome`] from run-local deltas and the per-row tally
/// (drained, so the caller's map can be reused).
fn finalize_outcome(
    deltas: &[[CounterSnapshot; RANKS]; MCUS],
    row_errors: &mut HashMap<(usize, RowKey), (u64, u64)>,
    windows_completed: u32,
    stopped_on_ue: bool,
) -> RunOutcome {
    let mut rows: Vec<RowErrors> = row_errors
        .drain()
        .map(|((mcu, row), (ce, ue))| RowErrors { mcu, row, ce, ue })
        .collect();
    rows.sort_unstable_by_key(row_key);
    assemble_outcome(deltas, rows, windows_completed, stopped_on_ue)
}

/// The sort key of [`RunOutcome::row_errors`]: descending CE, then UE,
/// then ascending row, then MCU, packed into two integers so a comparison
/// costs two compares. The key is total (one entry per MCU and row), so the
/// order never depends on hash-map iteration or on the sort's stability.
fn row_key(r: &RowErrors) -> (u128, u64) {
    debug_assert!(r.mcu < MCUS);
    let RowKey { rank, bank, row } = r.row;
    (
        (u128::from(!r.ce) << 64) | u128::from(!r.ue),
        (u64::from(rank) << 48) | (u64::from(bank) << 40) | (u64::from(row) << 8) | r.mcu as u64,
    )
}

/// Builds a [`RunOutcome`] from run-local deltas and row tallies already in
/// [`row_key`] order.
fn assemble_outcome(
    deltas: &[[CounterSnapshot; RANKS]; MCUS],
    row_errors: Vec<RowErrors>,
    windows_completed: u32,
    stopped_on_ue: bool,
) -> RunOutcome {
    let mut per_domain = Vec::with_capacity(MCUS * RANKS);
    for (mcu, ranks) in deltas.iter().enumerate() {
        for (rank, counts) in ranks.iter().enumerate() {
            per_domain.push(DomainCounts {
                mcu,
                rank,
                counts: *counts,
            });
        }
    }
    let totals = per_domain
        .iter()
        .fold(CounterSnapshot::default(), |acc, d| acc + d.counts);
    RunOutcome {
        totals,
        per_domain,
        windows_completed,
        stopped_on_ue,
        row_errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::MemoryBus;
    use proptest::prelude::*;

    const WORST: u64 = 0x3333_3333_3333_3333;

    fn server() -> XGene2Server {
        XGene2Server::new(ServerConfig::small())
    }

    /// Fills the whole target DIMM with a word pattern and returns the
    /// recorded run (the paper's data-pattern viruses malloc as much memory
    /// as possible so the pattern covers the module).
    fn fill_run(server: &mut XGene2Server, mcu: usize, word: u64) -> RecordedRun {
        server.reset_memory();
        let bytes = server.config().dimm.geometry.capacity_bytes();
        let mut s = server.session(mcu);
        let base = s.alloc(bytes).expect("allocation fits");
        let values = vec![word; (bytes / 8) as usize];
        s.fill(base, &values).expect("write in range");
        s.finish()
    }

    #[test]
    fn knobs_are_per_mcu_and_per_mcb() {
        let mut sv = server();
        sv.set_trefp(2, 1.0);
        assert_eq!(sv.trefp(2), 1.0);
        assert_eq!(sv.trefp(0), dstress_dram::env::NOMINAL_TREFP_S);
        sv.set_vdd(1, 1.428);
        assert_eq!(sv.vdd_for_mcu(2), 1.428);
        assert_eq!(sv.vdd_for_mcu(3), 1.428);
        assert_eq!(sv.vdd_for_mcu(0), 1.5);
    }

    #[test]
    fn relax_second_domain_matches_paper_setup() {
        let mut sv = server();
        sv.relax_second_domain();
        assert_eq!(sv.trefp(2), dstress_dram::env::MAX_TREFP_S);
        assert_eq!(sv.trefp(3), dstress_dram::env::MAX_TREFP_S);
        assert_eq!(sv.trefp(0), dstress_dram::env::NOMINAL_TREFP_S);
        assert!((sv.vdd_for_mcu(2) - 1.428).abs() < 1e-9);
        assert_eq!(sv.vdd_for_mcu(0), 1.5);
    }

    #[test]
    fn thermal_setpoint_sticks() {
        let mut sv = server();
        let report = sv.set_dimm_temperature(2, 60.0).unwrap();
        assert!(report.settled);
        assert!((sv.dimm_temperature(2) - 60.0).abs() < 0.5);
        assert!((sv.dimm_temperature(0) - sv.config().ambient_c).abs() < 0.5);
        assert!(sv.set_dimm_temperature(99, 60.0).is_err());
    }

    #[test]
    fn nominal_run_is_error_free() {
        let mut sv = server();
        sv.set_dimm_temperature(2, 60.0).unwrap();
        let run = fill_run(&mut sv, 2, WORST);
        let outcome = sv.evaluate_run(&run, 0).unwrap();
        assert_eq!(
            outcome.totals.visible(),
            0,
            "no errors at nominal parameters"
        );
        assert!(!outcome.stopped_on_ue);
    }

    #[test]
    fn relaxed_run_manifests_ces_on_the_stressed_dimm_only() {
        let mut sv = server();
        sv.relax_second_domain();
        sv.set_dimm_temperature(2, 60.0).unwrap();
        let run = fill_run(&mut sv, 2, WORST);
        let outcome = sv.evaluate_run(&run, 0).unwrap();
        assert!(outcome.totals.ce > 0, "relaxed DIMM2 at 60C must show CEs");
        let ce_of = |mcu: usize| -> u64 {
            outcome
                .per_domain
                .iter()
                .filter(|d| d.mcu == mcu)
                .map(|d| d.counts.visible())
                .sum()
        };
        // MCU0/MCU1 run at nominal parameters: no errors there.
        assert_eq!(ce_of(0), 0, "nominal MCU0 must stay clean");
        assert_eq!(ce_of(1), 0, "nominal MCU1 must stay clean");
        // DIMM3 is relaxed too but idle at ambient: only background errors,
        // far fewer than the heated, virus-filled DIMM2.
        assert!(
            ce_of(2) > 10 * ce_of(3).max(1),
            "DIMM2 must dominate: {} vs {}",
            ce_of(2),
            ce_of(3)
        );
    }

    #[test]
    fn high_temperature_triggers_ue_and_stops_the_run() {
        let mut sv = server();
        sv.relax_second_domain();
        sv.set_dimm_temperature(2, 70.0).unwrap();
        // Fill the whole DIMM so the UE-prone pairs are covered.
        let run = fill_run(&mut sv, 2, WORST);
        let outcome = sv.evaluate_run(&run, 0).unwrap();
        assert!(outcome.stopped_on_ue, "70C must raise a UE");
        assert!(outcome.totals.ue > 0);
        assert!(outcome.windows_completed <= sv.config().windows_per_run);
    }

    #[test]
    fn counters_accumulate_across_runs_and_reset() {
        let mut sv = server();
        sv.relax_second_domain();
        sv.set_dimm_temperature(2, 60.0).unwrap();
        let run = fill_run(&mut sv, 2, WORST);
        let a = sv.evaluate_run(&run, 0).unwrap();
        let b = sv.evaluate_run(&run, 1).unwrap();
        let total: u64 = sv.counters().iter().map(|d| d.counts.visible()).sum();
        assert_eq!(total, a.totals.visible() + b.totals.visible());
        sv.reset_counters();
        let zero: u64 = sv.counters().iter().map(|d| d.counts.visible()).sum();
        assert_eq!(zero, 0);
    }

    #[test]
    fn run_outcomes_vary_across_nonces() {
        let mut sv = server();
        sv.relax_second_domain();
        sv.set_dimm_temperature(2, 60.0).unwrap();
        let run = fill_run(&mut sv, 2, WORST);
        let counts: Vec<u64> = (0..8)
            .map(|n| sv.evaluate_run(&run, n).unwrap().totals.ce)
            .collect();
        let distinct: std::collections::HashSet<_> = counts.iter().collect();
        assert!(
            distinct.len() > 1,
            "VRT must differentiate runs: {counts:?}"
        );
    }

    #[test]
    fn worst_pattern_beats_all_zeros_at_server_level() {
        let mut sv = server();
        sv.relax_second_domain();
        sv.set_dimm_temperature(2, 60.0).unwrap();
        let run = fill_run(&mut sv, 2, WORST);
        let worst: u64 = (0..4)
            .map(|n| sv.evaluate_run(&run, n).unwrap().totals.ce)
            .sum();
        sv.reset_memory();
        let run = fill_run(&mut sv, 2, 0);
        let zeros: u64 = (0..4)
            .map(|n| sv.evaluate_run(&run, n).unwrap().totals.ce)
            .sum();
        assert!(
            worst as f64 >= 1.4 * zeros.max(1) as f64,
            "worst={worst} zeros={zeros}"
        );
    }

    #[test]
    fn prepared_run_matches_reference_path() {
        let mut sv = server();
        sv.relax_second_domain();
        sv.set_dimm_temperature(2, 62.0).unwrap();
        let run = fill_run(&mut sv, 2, WORST);
        let mut reference_sv = sv.clone();
        let prepared = sv.prepare_run(&run).unwrap();
        for nonce in 0..12 {
            let fast = sv.evaluate_prepared(&prepared, nonce).unwrap();
            let slow = reference_sv.evaluate_run_reference(&run, nonce);
            assert_eq!(fast, slow, "prepared path diverged at nonce {nonce}");
        }
    }

    #[test]
    fn batched_runs_match_sequential_oracle() {
        // 60C exercises the CE-only regime, 70C the stop-on-UE regime
        // (lanes dying at different windows inside one batch).
        for temp in [60.0, 70.0] {
            let mut sv = server();
            sv.relax_second_domain();
            sv.set_dimm_temperature(2, temp).unwrap();
            let run = fill_run(&mut sv, 2, WORST);
            let mut oracle_sv = sv.clone();
            let batched = sv.evaluate_runs(&run, 10, 3).unwrap();
            let sequential = oracle_sv.evaluate_runs_sequential(&run, 10, 3).unwrap();
            assert_eq!(batched, sequential, "batched path diverged at {temp}C");
            assert_eq!(
                sv.counters(),
                oracle_sv.counters(),
                "persistent EDAC tallies diverged at {temp}C"
            );
        }
    }

    /// Batched and sequential evaluations of the same runs, on two copies
    /// of one server, agree in their outcomes and in the persistent EDAC
    /// tallies they leave behind.
    fn assert_batched_matches_sequential(
        sv: &XGene2Server,
        run: &RecordedRun,
        runs: u32,
        base_nonce: u64,
    ) -> Vec<RunOutcome> {
        let (mut batched_sv, mut oracle_sv) = (sv.clone(), sv.clone());
        let batched = batched_sv.evaluate_runs(run, runs, base_nonce).unwrap();
        let sequential = oracle_sv
            .evaluate_runs_sequential(run, runs, base_nonce)
            .unwrap();
        assert_eq!(batched, sequential, "batched path diverged");
        assert_eq!(
            batched_sv.counters(),
            oracle_sv.counters(),
            "persistent EDAC tallies diverged"
        );
        batched
    }

    #[test]
    fn batched_runs_match_sequential_oracle_with_zero_windows() {
        let mut config = ServerConfig::small();
        config.windows_per_run = 0;
        let mut sv = XGene2Server::new(config);
        sv.relax_second_domain();
        sv.set_dimm_temperature(2, 70.0).unwrap();
        let run = fill_run(&mut sv, 2, WORST);
        let prepared = sv.prepare_run(&run).unwrap();
        assert!(
            prepared.plans[2].rows.iter().any(|r| r.ce + r.ue > 0),
            "70C must give the target DIMM static error rows"
        );
        let outcomes = assert_batched_matches_sequential(&sv, &run, 10, 3);
        assert!(outcomes
            .iter()
            .all(|o| o.windows_completed == 0 && o.row_errors.is_empty()));
    }

    #[test]
    fn silent_corruptions_match_sequential_oracle() {
        // Triple clusters (as in the SDC experiment) give words whose
        // static flips escape SECDED at 70C.
        let mut config = ServerConfig::small();
        config.dimm.weak.triples_per_rank = 20;
        let mut sv = XGene2Server::new(config);
        sv.relax_second_domain();
        sv.set_dimm_temperature(2, 70.0).unwrap();
        let run = fill_run(&mut sv, 2, WORST);
        let outcomes = assert_batched_matches_sequential(&sv, &run, 10, 7);
        let silent: u64 = outcomes.iter().map(|o| o.totals.silent()).sum();
        assert!(silent > 0, "triple clusters must produce SDCs");
    }

    #[test]
    fn vrt_word_with_a_base_mask_counts_in_every_live_lane() {
        // Sampled VRT words are single cells (no base mask), so give the
        // first VRT word of a real plan a failing static cell by hand:
        // subset 0 then classifies as an event in every live lane.
        let mut sv = server();
        sv.relax_second_domain();
        sv.set_dimm_temperature(2, 62.0).unwrap();
        let run = fill_run(&mut sv, 2, WORST);
        let mut plans = sv.prepare_run(&run).unwrap().plans;
        let mut target = McuPlan::build(plans[2].plan.clone()).unwrap();
        assert!(!target.vrt.is_empty(), "need a VRT word");
        assert_eq!(target.kinds[0], None, "sampled VRT words have no base mask");
        target.kinds[0] = Some(EventKind::Ce);
        let rank = target.vrt[0].rank as usize;
        plans[2] = Arc::new(target);
        let prepared = PreparedRun { plans };
        let mut scratch = LaneScratch::default();
        scratch.begin(&prepared);
        scratch.start_batch(3);
        scratch.flips = vec![0; prepared.plans[2].plan.vrt_cells()];
        let live = 0b101;
        assert_eq!(scratch.account_window(&prepared.plans[2], 2, live), 0);
        for lane in 0..3 {
            let expected = u32::from(live >> lane & 1 == 1);
            let word = lane * scratch.total_words + scratch.word_base[2];
            assert_eq!(scratch.tallies[word], (expected, 0), "lane {lane}");
            assert_eq!(scratch.deltas[lane][2][rank].ce, u64::from(expected));
        }
    }

    #[test]
    fn kind_table_classifies_every_flip_subset() {
        let written = 0x3333_3333_3333_3333;
        let base = 1u64 << 5;
        let bits = [1u64 << 9, 1 << 17, 1 << 40];
        for k in 0..=bits.len() {
            for base_mask in [0, base] {
                let mut table = vec![Some(EventKind::None)];
                push_kind_table(written, base_mask, &bits[..k], &mut table).unwrap();
                assert_eq!(table.len(), 1 + (1 << k), "k = {k}");
                for (subset, &kind) in table[1..].iter().enumerate() {
                    let mask = (0..k)
                        .filter(|&j| subset >> j & 1 == 1)
                        .fold(base_mask, |m, j| m | bits[j]);
                    let expected = (mask != 0).then(|| classify_flips(written, mask, 0));
                    assert_eq!(kind, expected, "k = {k}, subset {subset:#b}");
                }
            }
        }
        // Spot checks: one flip corrects, two are detected, none is no event.
        let mut table = Vec::new();
        push_kind_table(written, 0, &bits[..2], &mut table).unwrap();
        assert_eq!(
            table,
            [
                None,
                Some(EventKind::Ce),
                Some(EventKind::Ce),
                Some(EventKind::Ue)
            ]
        );
        let nine: Vec<u64> = (0..9).map(|b| 1u64 << b).collect();
        let mut table = Vec::new();
        assert_eq!(
            push_kind_table(written, 0, &nine, &mut table),
            Err(PlanError::IndexOverflow {
                what: "contingent_bits",
                value: 9
            })
        );
        assert!(table.is_empty(), "a rejected word appends nothing");
    }

    proptest! {
        #[test]
        fn row_key_orders_by_ce_ue_row_mcu(
            a in (0..MCUS, any::<u8>(), any::<u8>(), any::<u32>(), any::<u64>(), any::<u64>()),
            b in (0..MCUS, any::<u8>(), any::<u8>(), any::<u32>(), any::<u64>(), any::<u64>()),
            tie in 0usize..6,
        ) {
            let make = |(mcu, rank, bank, row, ce, ue)| RowErrors {
                mcu,
                row: RowKey::new(rank, bank, row),
                ce,
                ue,
            };
            let (a, mut b) = (make(a), make(b));
            // Force ties on the leading fields so every level is compared.
            if tie >= 1 {
                b.ce = a.ce;
            }
            if tie >= 2 {
                b.ue = a.ue;
            }
            if tie >= 3 {
                b.row.rank = a.row.rank;
            }
            if tie >= 4 {
                b.row.bank = a.row.bank;
            }
            if tie >= 5 {
                b.row.row = a.row.row;
            }
            let chained = b.ce.cmp(&a.ce)
                .then(b.ue.cmp(&a.ue))
                .then(a.row.cmp(&b.row))
                .then(a.mcu.cmp(&b.mcu));
            prop_assert_eq!(row_key(&a).cmp(&row_key(&b)), chained);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn batched_runs_match_sequential_oracle_for_any_fill(
            word in any::<u64>(),
            temp in 55.0f64..72.0,
            runs in 1u32..=70,
        ) {
            let mut sv = server();
            sv.relax_second_domain();
            sv.set_dimm_temperature(2, temp).unwrap();
            let run = fill_run(&mut sv, 2, word);
            assert_batched_matches_sequential(&sv, &run, runs, word);
        }
    }

    #[test]
    fn batched_runs_chunk_beyond_one_lane_word() {
        // More runs than MAX_LANES, so the batch splits across lane words.
        let mut sv = server();
        sv.relax_second_domain();
        sv.set_dimm_temperature(2, 62.0).unwrap();
        let run = fill_run(&mut sv, 2, WORST);
        let mut oracle_sv = sv.clone();
        let runs = MAX_LANES as u32 + 3;
        let batched = sv.evaluate_runs(&run, runs, 11).unwrap();
        let sequential = oracle_sv.evaluate_runs_sequential(&run, runs, 11).unwrap();
        assert_eq!(batched.len(), runs as usize);
        assert_eq!(batched, sequential);
    }

    #[test]
    fn plan_cache_state_does_not_change_results() {
        let mut sv = server();
        sv.relax_second_domain();
        sv.set_dimm_temperature(2, 60.0).unwrap();
        let run = fill_run(&mut sv, 2, WORST);
        let mut cold = sv.clone();
        // Warm path: the second prepare_run hits caches the first built.
        let _ = sv.evaluate_runs(&run, 2, 0).unwrap();
        let warm = sv.evaluate_runs(&run, 2, 9).unwrap();
        // Cold path: same history, then caches dropped and a forced rebuild.
        let _ = cold.evaluate_runs(&run, 2, 0).unwrap();
        cold.clear_eval_caches();
        let prepared = cold.prepare_run_uncached(&run).unwrap();
        let uncached = cold.evaluate_prepared_runs(&prepared, 2, 9).unwrap();
        assert_eq!(
            warm, uncached,
            "cache hits must be bit-identical to rebuilds"
        );
        assert_eq!(sv.counters(), cold.counters());
    }

    #[test]
    fn plan_cache_miss_with_repeated_trace_reuses_the_disturbance_profile() {
        let mut sv = server();
        sv.relax_second_domain();
        sv.set_dimm_temperature(2, 60.0).unwrap();
        // New contents, same trace, three times: plan-cache misses on the
        // target MCU whose activation counts repeat.
        let mut runs = Vec::new();
        for word in [WORST, !WORST, 0x0F0F_0F0F_0F0F_0F0F] {
            let run = fill_run(&mut sv, 2, word);
            let _ = sv.prepare_run(&run).unwrap();
            runs.push(run);
        }
        assert!(
            runs.windows(2).all(|w| w[0] == w[1]),
            "fills record one trace"
        );
        let cache = &sv.mcus[2].plan_cache;
        let kept: Vec<_> = cache
            .iter()
            .rev()
            .take(3)
            .rev()
            .map(|c| &c.disturbance)
            .collect();
        assert!(kept[0].is_none(), "a first sighting keeps no profile");
        let (second, third) = (kept[1].as_ref().unwrap(), kept[2].as_ref().unwrap());
        assert!(
            Arc::ptr_eq(second, third),
            "the third build reuses the second's profile"
        );
        let reused = sv.prepare_run(&runs[2]).unwrap();
        let rebuilt = sv.prepare_run_uncached(&runs[2]).unwrap();
        assert_eq!(
            sv.evaluate_prepared_runs(&reused, 3, 4).unwrap(),
            sv.evaluate_prepared_runs(&rebuilt, 3, 4).unwrap()
        );
    }

    #[test]
    fn plan_cache_keeps_no_profile_for_traces_that_never_repeat() {
        let mut sv = server();
        sv.set_dimm_temperature(2, 60.0).unwrap();
        for passes in 1..=3u64 {
            sv.reset_memory();
            let mut s = sv.session(2);
            let base = s.alloc(64 * 1024).expect("allocation fits");
            for _ in 0..passes {
                for w in 0..8192u64 {
                    s.read_u64(base + w * 8).expect("read in range");
                }
            }
            let run = s.finish();
            let _ = sv.prepare_run(&run).unwrap();
        }
        let acts: Vec<_> = sv.mcus[2].plan_cache.iter().map(|c| &c.acts).collect();
        assert!(
            acts.windows(2).all(|w| w[0] != w[1]),
            "each trace activates differently"
        );
        assert!(sv.mcus[2]
            .plan_cache
            .iter()
            .all(|c| c.disturbance.is_none()));
    }

    #[test]
    fn stale_prepared_run_is_a_typed_error() {
        let mut sv = server();
        sv.relax_second_domain();
        sv.set_dimm_temperature(2, 60.0).unwrap();
        let run = fill_run(&mut sv, 2, WORST);
        let prepared = sv.prepare_run(&run).unwrap();
        // Any write to the target DIMM invalidates its plan.
        let _ = fill_run(&mut sv, 2, 0);
        match sv.evaluate_prepared_runs(&prepared, 2, 0) {
            Err(PlanError::Stale { built, current }) => assert!(current > built),
            other => panic!("expected PlanError::Stale, got {other:?}"),
        }
        match sv.evaluate_prepared(&prepared, 0) {
            Err(PlanError::Stale { .. }) => {}
            other => panic!("expected PlanError::Stale, got {other:?}"),
        }
    }

    #[test]
    fn cloned_server_is_independent_and_identical() {
        fn assert_send<T: Send>() {}
        assert_send::<XGene2Server>();
        let mut sv = server();
        sv.relax_second_domain();
        sv.set_dimm_temperature(2, 60.0).unwrap();
        let run = fill_run(&mut sv, 2, WORST);
        let mut replica = sv.clone();
        let a = sv.evaluate_run(&run, 5).unwrap();
        let b = replica.evaluate_run(&run, 5).unwrap();
        assert_eq!(a, b, "a replica must reproduce the original's outcomes");
        // The copies are independent: resetting one leaves the other's
        // accumulated counters untouched.
        sv.reset_counters();
        let replica_total: u64 = replica.counters().iter().map(|d| d.counts.visible()).sum();
        assert_eq!(replica_total, b.totals.visible());
    }

    #[test]
    fn measure_power_reflects_knobs() {
        let mut sv = server();
        let model = PowerModel::default();
        let before = sv.measure_power(&model, &[0.0; 4]);
        sv.relax_second_domain();
        let after = sv.measure_power(&model, &[0.0; 4]);
        assert!(after.dram_w < before.dram_w);
        assert!(after.system_w < before.system_w);
    }
}
