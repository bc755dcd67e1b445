//! Parallel Monte-Carlo lot characterization — the paper's production
//! screening scenario at throughput.
//!
//! The motivating use of an *on-chip* network analyzer is go/no-go
//! screening of fabricated devices without an external ATE. A lot run
//! characterizes many Monte-Carlo devices (`factory(seed)` for each seed)
//! against one sweep plan and one gain mask:
//!
//! * **whole devices** are fanned across a [`std::thread::scope`] worker
//!   pool (the same atomic-cursor work stealing as the point-level
//!   [`SweepEngine`], via [`crate::pool`]);
//! * **calibration is amortized**: the bypass path taps the stimulus
//!   *before* the DUT, so the stimulus characterization depends only on
//!   the analyzer configuration — it is computed once and shared
//!   read-only across every device instead of being redone per seed;
//! * each worker can optionally run its device's sweep points through a
//!   nested per-device [`SweepEngine`]
//!   ([`LotEngine::with_point_engine`]);
//! * results are **bit-identical** to the serial reference: device order
//!   is seed order, every per-device simulation is seeded, and on failure
//!   the lowest-index device error is reported exactly as a serial
//!   in-order run would report it.
//!
//! The run produces a [`LotReport`]: per-device [`BodePlot`] +
//! [`SpecVerdict`] + fitted f0/Q summary, plus the lot-level verdict
//! histogram and yield estimate. Render it with
//! [`lot_table`](crate::report::lot_table),
//! [`lot_csv`](crate::report::lot_csv) or
//! [`lot_json`](crate::report::lot_json).
//!
//! # Escalation
//!
//! The paper's central trade — accuracy (enclosure width) for test time
//! (measurement periods `M`) — becomes an operational scheduling policy
//! with an [`EscalationSchedule`]: [`LotEngine::run_escalated`] screens
//! the whole lot at a cheap stage-0 configuration, then re-tests only the
//! devices still [`SpecVerdict::Ambiguous`] at each deeper (larger-`M`)
//! stage, amortizing one calibration per stage and fanning re-tests
//! across the same pool. Hard enclosures make the policy sound: a
//! deeper stage can only *narrow* an enclosure around the same truth, so
//! a decided `Pass`/`Fail` is never re-tested and never flips.
//!
//! How a device's acquisition grows across stages, and what each
//! re-test is charged, is the [`StoppingPolicy`]. A plain
//! [`LotEngine::run`] is the one-stage schedule: there is one lot
//! pipeline.
//!
//! # Budgets: the observed-cost ledger
//!
//! An optional test-time budget — simulated seconds, the currency of
//! [`crate::plan::measurement_time`] — caps the total. The ledger is
//! **observed**, not projected: each admitted device's actual
//! measurement time is charged as it completes, and the next re-test is
//! admitted (in seed order) while `spent < budget`. The final admitted
//! device may therefore overshoot the budget by at most its own re-test
//! time. Because no cost needs to be known ahead of measuring, budgeted
//! escalation accepts [adaptive](LotPlan::adaptive) plans, whose
//! per-device refined grids have device-dependent costs.
//!
//! The stage-0 screening pass is all-or-nothing — without it no device
//! has a verdict — so a budget that cannot cover it is
//! [`NetanError::BudgetExhausted`], rejected before any simulation on
//! fixed grids and right after the (observed) screening pass on
//! adaptive plans.
//!
//! # Sharding
//!
//! A lot does not have to be one call: [`LotEngine::run_range`] and
//! [`LotEngine::run_escalated_range`] characterize any contiguous seed
//! range as an independent **shard** (calibration stays amortized per
//! analyzer configuration per shard), and [`LotReport::merge`] joins
//! adjacent shards into the byte-identical report one monolithic run
//! would have produced, with [`LotReport::empty`] as the identity.
//! Shard provenance travels as a [`ShardSpan`] through the
//! `netan.lot.v4` JSON schema.
//!
//! Budgets under sharding: one shard in isolation budgets per shard, as
//! it cannot see the lot-global ledger. Because the ledger is
//! *observed*, [`ShardDrive`](crate::checkpoint::ShardDrive) — the one
//! place a sharded lot's ledger is threaded, stepped by the
//! [`LotCheckpoint`](crate::checkpoint::LotCheckpoint) drive and by
//! `netan-serve` — hands each shard the remaining global budget,
//! giving a sharded lot a global-style budget answer with deterministic
//! kill-and-resume. Byte-identity to a monolithic run holds for
//! unbudgeted schedules (and plain runs); budgeted sharded lots are
//! deterministic but admit re-tests at shard boundaries a monolithic
//! ledger would interleave.

use crate::adaptive::{AdaptiveSweep, RefinementPolicy};
use crate::analyzer::{AnalyzerConfig, BodePoint, Calibration, NetworkAnalyzer};
use crate::engine::SweepEngine;
use crate::error::{millihertz, NetanError};
use crate::plan::{grid_time, measurement_time};
use crate::pool;
use crate::spec::{GainMask, SpecVerdict};
use crate::sweep::{unwrap_phase_by_continuity, BodePlot, LowpassFit};
use dut::{Bypass, Dut};
use mixsig::units::{Hertz, Seconds};
use std::ops::Range;

/// A lot screening plan: the sweep grid and the gain mask to classify
/// against.
///
/// The effective grid is the union of the requested grid and the mask
/// frequencies, sorted ascending and deduplicated, so every mask point is
/// always measured and the phase-unwrap pass sees an ordered sweep.
///
/// An [`adaptive`](Self::adaptive) plan additionally refines each
/// device's sweep around wherever its response bends — the grid then
/// serves as the refinement *seed*, and the measured plot is a superset
/// of it.
#[derive(Debug, Clone, PartialEq)]
pub struct LotPlan {
    grid: Vec<Hertz>,
    mask: GainMask,
    /// Per-device adaptive refinement on top of the grid, if requested.
    refinement: Option<RefinementPolicy>,
}

impl LotPlan {
    /// Builds a plan from a sweep grid and a mask. Mask frequencies
    /// missing from the grid are added; exact duplicates are merged.
    pub fn new(grid: &[Hertz], mask: GainMask) -> Self {
        let mut freqs: Vec<Hertz> = grid.to_vec();
        freqs.extend(mask.frequencies());
        freqs.sort_by(|a, b| a.value().total_cmp(&b.value()));
        freqs.dedup_by_key(|f| f.value().to_bits());
        Self {
            grid: freqs,
            mask,
            refinement: None,
        }
    }

    /// A plan that measures exactly the mask frequencies — the minimal
    /// go/no-go sweep.
    pub fn from_mask(mask: GainMask) -> Self {
        Self::new(&[], mask)
    }

    /// An adaptive plan: every device measures the grid ∪ mask seed and
    /// then refines per `policy`, so resolution concentrates around the
    /// mask frequencies and each fabricated device's own response knee.
    /// Mask classification is unchanged — mask frequencies are always in
    /// the seed, hence always measured.
    pub fn adaptive(grid: &[Hertz], mask: GainMask, policy: RefinementPolicy) -> Self {
        Self {
            refinement: Some(policy),
            ..Self::new(grid, mask)
        }
    }

    /// The per-device refinement policy, if this is an adaptive plan.
    pub fn refinement(&self) -> Option<&RefinementPolicy> {
        self.refinement.as_ref()
    }

    /// The effective sweep grid (ascending, deduplicated).
    pub fn grid(&self) -> &[Hertz] {
        &self.grid
    }

    /// The gain mask.
    pub fn mask(&self) -> &GainMask {
        &self.mask
    }

    /// Classifies a measured point set taken over exactly the plan grid.
    /// Thin strictness wrapper over [`classify_plot`](Self::classify_plot)
    /// for callers that expect a fixed-grid plot.
    ///
    /// # Errors
    ///
    /// [`NetanError::MaskFrequencyMissing`] if a mask frequency is
    /// missing from `points` (see [`classify_plot`](Self::classify_plot)).
    ///
    /// # Panics
    ///
    /// Panics if `points.len()` differs from the grid length — a strict
    /// caller contract, not a data condition.
    pub fn classify(&self, points: &[BodePoint]) -> Result<SpecVerdict, NetanError> {
        assert_eq!(
            points.len(),
            self.grid.len(),
            "measured points must match the plan grid"
        );
        self.classify_plot(points)
    }

    /// Classifies a measured point set that contains *at least* every
    /// mask frequency — e.g. an adaptively refined sweep, whose plot is a
    /// superset of the plan grid. Mask points are located by frequency.
    ///
    /// # Errors
    ///
    /// [`NetanError::MaskFrequencyMissing`] if a mask frequency is
    /// missing from `points`. Unreachable for plots produced from this
    /// plan, whose seed grid contains the mask — and the lot engine
    /// additionally rejects any plan whose grid does not cover its mask
    /// up front, before measuring anything — but a hand-assembled point
    /// set gets a typed error rather than a panic.
    pub fn classify_plot(&self, points: &[BodePoint]) -> Result<SpecVerdict, NetanError> {
        let mut masked: Vec<BodePoint> = Vec::with_capacity(self.mask.points().len());
        for mp in self.mask.points() {
            let found = points
                .iter()
                .find(|p| p.frequency.value().to_bits() == mp.frequency.value().to_bits());
            match found {
                Some(p) => masked.push(*p),
                None => return Err(Self::missing_mask_error(mp.frequency)),
            }
        }
        Ok(self.mask.classify(&masked))
    }

    /// The typed missing-mask-frequency error for `frequency`.
    fn missing_mask_error(frequency: Hertz) -> NetanError {
        NetanError::MaskFrequencyMissing {
            hz_millis: millihertz(frequency),
        }
    }
}

/// How a device's acquisition grows across escalation stages — the
/// per-device stopping rule of an [`EscalationSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoppingPolicy {
    /// Each stage is a fresh insertion: a re-test is charged the full
    /// stage `M`. The PR-5 staged policy, and the default.
    #[default]
    Staged,
    /// Per-device sequential stopping: the device stays on the tester
    /// and its acquisition *continues* into the next stage, so a
    /// re-test is charged only the period increment `M_s − M_{s−1}`.
    /// The measured plot and verdict at each stage are bit-identical to
    /// `Staged` (the deterministic simulation reproduces the continued
    /// accumulator state exactly); only the observed spend differs.
    Sequential,
}

/// An ordered multi-pass re-test schedule: stage 0 screens the whole
/// lot, each later stage re-tests only the devices still
/// [`SpecVerdict::Ambiguous`], and an optional budget caps the total
/// simulated test time the lot may spend against the observed-cost
/// ledger (see the [module docs](self#budgets-the-observed-cost-ledger)).
///
/// Stages must escalate — strictly increasing `periods` — so every
/// re-test buys a narrower enclosure than the pass that left the device
/// ambiguous.
#[derive(Debug, Clone, PartialEq)]
pub struct EscalationSchedule {
    stages: Vec<AnalyzerConfig>,
    budget: Option<Seconds>,
    stopping: StoppingPolicy,
}

impl EscalationSchedule {
    /// Builds a schedule from explicit per-stage analyzer configurations,
    /// rejecting an empty stage list or stage `periods` that do not
    /// strictly increase. The one copy of that rule: [`new`](Self::new)
    /// and [`from_periods`](Self::from_periods) delegate here, and
    /// untrusted input (the service's job frames) calls it directly.
    ///
    /// # Errors
    ///
    /// [`NetanError::EmptySchedule`] or
    /// [`NetanError::NonEscalatingStages`].
    pub fn try_new(stages: Vec<AnalyzerConfig>) -> Result<Self, NetanError> {
        if stages.is_empty() {
            return Err(NetanError::EmptySchedule);
        }
        if let Some(w) = stages.windows(2).find(|w| w[0].periods >= w[1].periods) {
            return Err(NetanError::NonEscalatingStages {
                periods: w[0].periods,
                next: w[1].periods,
            });
        }
        Ok(Self {
            stages,
            budget: None,
            stopping: StoppingPolicy::Staged,
        })
    }

    /// Builds a schedule from explicit per-stage analyzer configurations.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty or the stage `periods` are not
    /// strictly increasing — the errors [`try_new`](Self::try_new)
    /// returns.
    pub fn new(stages: Vec<AnalyzerConfig>) -> Self {
        match Self::try_new(stages) {
            Ok(schedule) => schedule,
            // netan-lint: allow(panic-in-lib): the documented panic of the trusted-input constructor; untrusted stage lists go through `try_new`
            Err(e) => panic!("{e}"),
        }
    }

    /// A schedule that varies only the evaluation length: one stage per
    /// entry of `periods`, each `base` with that `M`.
    ///
    /// # Panics
    ///
    /// Panics if `periods` is empty or not strictly increasing.
    pub fn from_periods(base: AnalyzerConfig, periods: &[u32]) -> Self {
        Self::new(periods.iter().map(|&m| base.with_periods(m)).collect())
    }

    /// The paper's trade-off as a default policy: an ideal analyzer at
    /// `M = 50 → 200 → 800` (quarter, nominal, and 4× the Bode setting),
    /// no budget.
    pub fn paper_default() -> Self {
        Self::from_periods(AnalyzerConfig::ideal(), &[50, 200, 800])
    }

    /// Returns the schedule with a total test-time budget in simulated
    /// seconds (the unit of [`crate::plan::measurement_time`]).
    #[must_use]
    pub fn with_budget(mut self, budget: Seconds) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Returns the schedule with the given per-device stopping policy
    /// ([`StoppingPolicy::Staged`] is the default).
    #[must_use]
    pub fn with_stopping(mut self, stopping: StoppingPolicy) -> Self {
        self.stopping = stopping;
        self
    }

    /// Shorthand for
    /// [`with_stopping(StoppingPolicy::Sequential)`](Self::with_stopping).
    #[must_use]
    pub fn sequential(self) -> Self {
        self.with_stopping(StoppingPolicy::Sequential)
    }

    /// The per-stage analyzer configurations, stage 0 first.
    pub fn stages(&self) -> &[AnalyzerConfig] {
        &self.stages
    }

    /// The test-time budget, if one is set.
    pub fn budget(&self) -> Option<Seconds> {
        self.budget
    }

    /// The per-device stopping policy.
    pub fn stopping(&self) -> StoppingPolicy {
        self.stopping
    }

    /// Evaluation periods *charged* for one device passing `stage`: the
    /// full stage `M` under [`StoppingPolicy::Staged`] (each stage is a
    /// fresh insertion), the increment over the previous stage under
    /// [`StoppingPolicy::Sequential`] (the acquisition continues).
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    pub fn charged_periods(&self, stage: usize) -> u32 {
        let m = self.stages[stage].periods;
        match self.stopping {
            StoppingPolicy::Sequential if stage > 0 => m - self.stages[stage - 1].periods,
            _ => m,
        }
    }

    /// Simulated test time one device spends at `stage` over `grid`: the
    /// sum of one chopped acquisition per grid frequency at that stage's
    /// `M` ([`crate::plan::measurement_time`]). Calibration is excluded —
    /// it is amortized across the lot, not spent per device.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range or `grid` contains a
    /// non-positive frequency.
    pub fn device_stage_time(&self, stage: usize, grid: &[Hertz]) -> Seconds {
        grid_time(self.stages[stage].periods, grid)
    }

    /// Simulated test time one device is *charged* at `stage` over
    /// `grid` under this schedule's [`StoppingPolicy`]: equal to
    /// [`device_stage_time`](Self::device_stage_time) for `Staged`
    /// stages, the cost of just the period increment for `Sequential`
    /// re-test stages.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range or `grid` contains a
    /// non-positive frequency.
    pub fn device_stage_charge(&self, stage: usize, grid: &[Hertz]) -> Seconds {
        grid_time(self.charged_periods(stage), grid)
    }
}

/// The contiguous device-seed range a [`LotReport`] covers — the
/// provenance that makes shard merges auditable and checkpoint resume
/// safe.
///
/// Engine runs over a contiguous seed range attach a complete span,
/// [`LotReport::merge`] joins adjacent spans, and a
/// [`checkpoint`](crate::checkpoint) drive that halted mid-lot marks
/// the *intended* span `complete: false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpan {
    /// First device seed of the span (inclusive).
    pub seed_start: u64,
    /// One past the last device seed of the span (exclusive).
    pub seed_end: u64,
    /// Whether every device of the span was measured.
    pub complete: bool,
}

impl ShardSpan {
    /// A complete span covering `range`.
    pub fn complete(range: Range<u64>) -> Self {
        Self {
            seed_start: range.start,
            seed_end: range.end,
            complete: true,
        }
    }

    /// Number of seeds the span covers.
    pub fn len(&self) -> u64 {
        self.seed_end.saturating_sub(self.seed_start)
    }

    /// Whether the span covers no seeds.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Accounting for one executed stage of an escalated (or plain) lot run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSummary {
    /// Stage index within the schedule (0 = the screening pass).
    pub stage: usize,
    /// Evaluation periods `M` of this stage's analyzer configuration.
    pub periods: u32,
    /// Devices measured at this stage (the whole lot at stage 0, the
    /// still-ambiguous — budget permitting — afterwards).
    pub tested: usize,
    /// Lot-wide verdict histogram *after* this stage completed.
    pub counts: VerdictCounts,
    /// Observed simulated test time charged at this stage across all
    /// tested devices (the seed-order left fold of their per-stage
    /// charges).
    pub time: Seconds,
    /// Uniform per-device charge of this stage
    /// ([`crate::plan::grid_time`] at the stage's *charged* periods —
    /// the full `M` for `Staged` stages, the increment for `Sequential`
    /// re-test stages), or `None` when the charge is device-dependent
    /// (adaptive plans). [`StageSummary::merge`] re-derives the merged
    /// `time` from it, so shard merges reproduce a monolithic run's
    /// fold bit for bit.
    pub device_time: Option<Seconds>,
}

impl StageSummary {
    /// Merges the accounting of the same schedule stage from two
    /// seed-disjoint shards: tested counts and verdict histograms add,
    /// and — when the uniform per-device cost is known — the merged
    /// `time` continues `self`'s accumulation by `other.tested` more
    /// per-device steps, reproducing the monolithic left fold bit for
    /// bit. Associative.
    ///
    /// Without a uniform cost (adaptive plans) the stage times are
    /// summed; [`LotReport::merge`] instead re-folds such single-stage
    /// summaries over the merged device list, preserving byte-identity
    /// there too.
    ///
    /// # Panics
    ///
    /// Panics if the summaries disagree on `stage`, `periods`, or (when
    /// both carry one) the per-device cost.
    #[must_use]
    pub fn merge(self, other: Self) -> Self {
        assert_eq!(
            self.stage, other.stage,
            "stage summaries merge by aligned stage index"
        );
        assert_eq!(
            self.periods, other.periods,
            "one schedule stage cannot have two different M"
        );
        let device_time = match (self.device_time, other.device_time) {
            (Some(a), Some(b)) => {
                assert_eq!(
                    a.value().to_bits(),
                    b.value().to_bits(),
                    "shards of one lot share the per-device stage cost"
                );
                Some(a)
            }
            (a, b) => a.or(b),
        };
        let time = match device_time {
            Some(c) => (0..other.tested).fold(self.time, |acc, _| acc + c),
            None => self.time + other.time,
        };
        Self {
            stage: self.stage,
            periods: self.periods,
            tested: self.tested + other.tested,
            counts: self.counts.merge(other.counts),
            time,
            device_time,
        }
    }
}

/// One device's characterization within a lot.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceReport {
    /// The Monte-Carlo seed the device was fabricated from.
    pub seed: u64,
    /// The measured Bode plot over the plan grid.
    pub plot: BodePlot,
    /// Go/no-go verdict against the plan mask.
    pub verdict: SpecVerdict,
    /// Fitted second-order f0/Q summary (None when the response does not
    /// fit a low-pass biquad).
    pub fit: Option<LowpassFit>,
    /// Escalation stage that produced the verdict and plot above (0 for
    /// the screening pass and for every plain [`LotEngine::run`]).
    pub stage: usize,
    /// Evaluation periods `M` used at that final stage.
    pub periods: u32,
    /// Cumulative simulated test time across every stage this device
    /// ran, in the unit of [`crate::plan::measurement_time`] — the left
    /// fold of [`stage_times`](Self::stage_times).
    pub test_time: Seconds,
    /// Observed simulated test time *charged* per executed stage, in
    /// stage order (one entry per stage this device ran, so
    /// `stage_times.len() == stage + 1` for engine-produced reports).
    /// Under [`StoppingPolicy::Sequential`] an entry past stage 0 is the
    /// cost of just the period increment. Empty for reports parsed from
    /// pre-`netan.lot.v4` documents, which did not record it.
    pub stage_times: Vec<Seconds>,
}

/// The lot-level verdict histogram.
///
/// A zero-device report tallies to the all-zero histogram — explicitly
/// well-defined, unlike the yield *ratio*, which has no value on an
/// empty lot (see [`LotReport::yield_bounds`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerdictCounts {
    /// Devices entirely inside the mask.
    pub pass: usize,
    /// Devices entirely outside the mask at some point.
    pub fail: usize,
    /// Devices straddling a limit — re-test with a larger `M`.
    pub ambiguous: usize,
}

impl VerdictCounts {
    /// Total devices counted (0 for an empty lot).
    pub fn total(&self) -> usize {
        self.pass + self.fail + self.ambiguous
    }

    /// Whether no devices were counted at all.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Tallies the verdicts of a device slice.
    pub fn tally(devices: &[DeviceReport]) -> Self {
        let mut c = Self::default();
        for d in devices {
            match d.verdict {
                SpecVerdict::Pass => c.pass += 1,
                SpecVerdict::Fail => c.fail += 1,
                SpecVerdict::Ambiguous => c.ambiguous += 1,
            }
        }
        c
    }

    /// Merges two histograms by fieldwise addition — the tally of the
    /// union of two disjoint device sets. Associative and commutative,
    /// with the all-zero histogram as the identity.
    #[must_use]
    pub fn merge(self, other: Self) -> Self {
        Self {
            pass: self.pass + other.pass,
            fail: self.fail + other.fail,
            ambiguous: self.ambiguous + other.ambiguous,
        }
    }
}

/// The result of a lot run: per-device reports in seed order, the mask
/// they were screened against, and — for escalated runs — per-stage
/// summaries and budget accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct LotReport {
    mask: GainMask,
    devices: Vec<DeviceReport>,
    stages: Vec<StageSummary>,
    budget: Option<Seconds>,
    budget_exhausted: bool,
    stopping: StoppingPolicy,
    shard: Option<ShardSpan>,
}

impl LotReport {
    /// Assembles a report (device order is preserved) with no stage
    /// accounting — the constructor for synthetic reports; engine runs
    /// attach their stage summaries via [`with_stages`](Self::with_stages).
    pub fn new(mask: GainMask, devices: Vec<DeviceReport>) -> Self {
        Self {
            mask,
            devices,
            stages: Vec::new(),
            budget: None,
            budget_exhausted: false,
            stopping: StoppingPolicy::Staged,
            shard: None,
        }
    }

    /// The identity of [`merge`](Self::merge): no devices, no stages,
    /// no budget, no shard provenance, `plan`'s mask. Merging it on
    /// either side of any report over the same plan returns that report
    /// unchanged.
    pub fn empty(plan: &LotPlan) -> Self {
        Self::new(plan.mask().clone(), Vec::new())
    }

    /// Returns the report with per-stage accounting attached.
    #[must_use]
    pub fn with_stages(mut self, stages: Vec<StageSummary>) -> Self {
        self.stages = stages;
        self
    }

    /// Returns the report with the schedule's budget (if any) and
    /// whether escalation stopped early because of it.
    #[must_use]
    pub fn with_budget(mut self, budget: Option<Seconds>, exhausted: bool) -> Self {
        self.budget = budget;
        self.budget_exhausted = exhausted;
        self
    }

    /// Returns the report with the stopping policy that produced it
    /// ([`StoppingPolicy::Staged`] is the constructor default).
    #[must_use]
    pub fn with_stopping(mut self, stopping: StoppingPolicy) -> Self {
        self.stopping = stopping;
        self
    }

    /// The per-device stopping policy the run used — provenance for the
    /// observed spends in the report.
    pub fn stopping(&self) -> StoppingPolicy {
        self.stopping
    }

    /// Returns the report with explicit shard provenance — used by the
    /// [`checkpoint`](crate::checkpoint) driver (a halted drive marks
    /// the intended span incomplete) and by the `netan.lot.v4` loader.
    #[must_use]
    pub fn with_shard(mut self, shard: ShardSpan) -> Self {
        self.shard = Some(shard);
        self
    }

    /// The device-seed span this report covers, when known: attached by
    /// range runs, by slice runs over contiguous ascending seeds, and
    /// by merges of adjacent shards. `None` for synthetic reports and
    /// arbitrary seed lists.
    pub fn shard(&self) -> Option<ShardSpan> {
        self.shard
    }

    /// Per-device reports, in the seed order of the run.
    pub fn devices(&self) -> &[DeviceReport] {
        &self.devices
    }

    /// The mask the lot was screened against.
    pub fn mask(&self) -> &GainMask {
        &self.mask
    }

    /// Per-stage summaries in execution order (one entry for a plain
    /// [`LotEngine::run`], empty for synthetic reports).
    pub fn stages(&self) -> &[StageSummary] {
        &self.stages
    }

    /// The schedule's test-time budget, if one was set.
    pub fn budget(&self) -> Option<Seconds> {
        self.budget
    }

    /// Whether escalation stopped before the schedule (or the ambiguous
    /// set) was exhausted because the budget could not pay for another
    /// re-test.
    pub fn budget_exhausted(&self) -> bool {
        self.budget_exhausted
    }

    /// Total simulated test time spent across all executed stages.
    pub fn spent(&self) -> Seconds {
        self.stages.iter().fold(Seconds(0.0), |acc, s| acc + s.time)
    }

    /// Number of devices in the lot.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the lot is empty.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The pass/fail/ambiguous histogram (all-zero for an empty lot).
    pub fn counts(&self) -> VerdictCounts {
        VerdictCounts::tally(&self.devices)
    }

    /// Yield estimate as an interval: the lower bound counts only `Pass`
    /// devices, the upper bound also grants every `Ambiguous` device —
    /// the trichotomous verdicts make the yield itself an enclosure.
    ///
    /// Returns `None` for a zero-device report: an empty lot has no
    /// yield, and the old `(0.0, 0.0)` answer read as "everything fails"
    /// (the same fake-certainty bug `worst_gain_error_db` had on empty
    /// plots).
    pub fn yield_bounds(&self) -> Option<(f64, f64)> {
        let c = self.counts();
        let total = c.total();
        if total == 0 {
            return None;
        }
        Some((
            c.pass as f64 / total as f64,
            (c.pass + c.ambiguous) as f64 / total as f64,
        ))
    }

    /// Whether this report is the [`empty`](Self::empty) identity.
    fn is_merge_identity(&self) -> bool {
        self.devices.is_empty()
            && self.stages.is_empty()
            && self.budget.is_none()
            && !self.budget_exhausted
            && self.stopping == StoppingPolicy::Staged
            && self.shard.is_none()
    }

    /// Merges two seed-disjoint reports over the same mask into the
    /// report one run over the union would have produced — byte
    /// identical through [`lot_json`](crate::report::lot_json) when the
    /// operands are adjacent shards of a monolithic `run`/
    /// `run_escalated` (unbudgeted: a budget gates re-tests on a
    /// *global* seed-order prefix no shard can see, so budgeted
    /// schedules are budgeted per shard).
    ///
    /// The operation is associative with [`LotReport::empty`] as a
    /// two-sided identity: device lists concatenate in seed order,
    /// stage summaries align by stage index — a shard whose escalation
    /// stopped early contributes its devices' final verdicts to the
    /// stages it never ran — budget ledgers sum, the exhaustion flags
    /// OR, and adjacent [`ShardSpan`]s join (provenance degrades to
    /// `None` if either side has none).
    ///
    /// # Panics
    ///
    /// Panics if the masks differ, the stopping policies differ, the
    /// device seed lists are not ascending-disjoint, or both sides
    /// carry shard spans that are not adjacent (`self` ending exactly
    /// where `other` starts).
    #[must_use]
    pub fn merge(self, other: Self) -> Self {
        assert_eq!(self.mask, other.mask, "shards of one lot share the mask");
        if self.is_merge_identity() {
            return other;
        }
        if other.is_merge_identity() {
            return self;
        }
        assert_eq!(
            self.stopping, other.stopping,
            "shards of one lot share the stopping policy"
        );

        if let (Some(last), Some(first)) = (self.devices.last(), other.devices.first()) {
            assert!(
                last.seed < first.seed,
                "device lists must concatenate in ascending seed order \
                 ({} then {})",
                last.seed,
                first.seed
            );
        }
        let shard = match (self.shard, other.shard) {
            (Some(a), Some(b)) => {
                assert_eq!(
                    a.seed_end, b.seed_start,
                    "shard spans must be adjacent to merge"
                );
                Some(ShardSpan {
                    seed_start: a.seed_start,
                    seed_end: b.seed_end,
                    complete: a.complete && b.complete,
                })
            }
            _ => None,
        };

        // A shard whose escalation stopped before stage `s` (nothing
        // left ambiguous, or nothing affordable) still holds a verdict
        // for every one of its devices at that stage — the final one.
        // The synthetic summary contributes exactly that tally and no
        // tested devices or time, which keeps the carry-forward
        // associative.
        let synthetic = |devices: &[DeviceReport], like: &StageSummary| StageSummary {
            stage: like.stage,
            periods: like.periods,
            tested: 0,
            counts: VerdictCounts::tally(devices),
            time: Seconds(0.0),
            device_time: None,
        };
        let depth = self.stages.len().max(other.stages.len());
        let mut stages = Vec::with_capacity(depth);
        for s in 0..depth {
            stages.push(match (self.stages.get(s), other.stages.get(s)) {
                (Some(&a), Some(&b)) => a.merge(b),
                (Some(&a), None) => a.merge(synthetic(&other.devices, &a)),
                (None, Some(&b)) => synthetic(&self.devices, &b).merge(b),
                (None, None) => unreachable!("s < max(stage depths)"),
            });
        }

        let mut devices = self.devices;
        devices.extend(other.devices);

        // Stages without a uniform per-device charge (adaptive plans)
        // are re-folded over the merged device list's observed
        // per-stage spends — the exact accumulation a monolithic run
        // performs. Devices parsed from pre-v4 documents carry no
        // per-stage spends; a single-stage report can still re-fold
        // from the cumulative `test_time`, anything else falls back to
        // the summed operands.
        let single_stage = stages.len() == 1;
        for summary in stages.iter_mut().filter(|s| s.device_time.is_none()) {
            let s = summary.stage;
            let charges: Vec<Seconds> = devices
                .iter()
                .filter(|d| d.stage_times.len() > s)
                .map(|d| d.stage_times[s])
                .collect();
            if charges.len() == summary.tested {
                summary.time = charges.iter().fold(Seconds(0.0), |acc, &t| acc + t);
            } else if single_stage {
                summary.time = devices
                    .iter()
                    .fold(Seconds(0.0), |acc, d| acc + d.test_time);
            }
        }

        let budget = match (self.budget, other.budget) {
            (Some(a), Some(b)) => Some(a + b),
            (a, b) => a.or(b),
        };
        Self {
            mask: self.mask,
            devices,
            stages,
            budget,
            budget_exhausted: self.budget_exhausted || other.budget_exhausted,
            stopping: self.stopping,
            shard,
        }
    }
}

/// Schedules whole-device characterizations over a worker pool.
///
/// # Example
///
/// ```
/// use netan::{AnalyzerConfig, GainMask, LotEngine, LotPlan};
/// use dut::ActiveRcFilter;
///
/// let plan = LotPlan::from_mask(GainMask::paper_lowpass());
/// let seeds: Vec<u64> = (0..4).collect();
/// let report = LotEngine::auto().run(
///     |seed| ActiveRcFilter::paper_dut().linearized().fabricate(0.02, seed),
///     &seeds,
///     &plan,
///     AnalyzerConfig::ideal().with_periods(50),
/// )?;
/// assert_eq!(report.len(), 4);
/// assert_eq!(report.counts().total(), 4);
/// # Ok::<(), netan::NetanError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LotEngine {
    device_threads: usize,
    point_engine: SweepEngine,
}

impl LotEngine {
    /// An engine that characterizes every device on the calling thread,
    /// in seed order — the reference for bit-identity.
    pub fn serial() -> Self {
        Self {
            device_threads: 1,
            point_engine: SweepEngine::serial(),
        }
    }

    /// An engine sized to the machine's available parallelism, with a
    /// serial per-device point engine (devices usually outnumber cores,
    /// so device-level fan-out alone saturates the pool).
    pub fn auto() -> Self {
        Self {
            device_threads: pool::auto_threads(),
            point_engine: SweepEngine::serial(),
        }
    }

    /// An engine with an explicit device-level worker count (clamped to
    /// at least 1).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            device_threads: threads.max(1),
            point_engine: SweepEngine::serial(),
        }
    }

    /// Returns the engine with a nested per-device sweep engine: each
    /// device worker fans its own sweep points across `engine`'s workers.
    /// Useful for small lots of expensive devices. Does not change the
    /// result bits — point- and device-level schedules are both
    /// deterministic.
    #[must_use]
    pub fn with_point_engine(mut self, engine: SweepEngine) -> Self {
        self.point_engine = engine;
        self
    }

    /// The device-level worker count.
    pub fn threads(&self) -> usize {
        self.device_threads
    }

    /// The nested per-device sweep engine.
    pub fn point_engine(&self) -> &SweepEngine {
        &self.point_engine
    }

    /// Characterizes `factory(seed)` for every seed against `plan`,
    /// fanning devices across the worker pool. Calibration is performed
    /// once for `config` and shared read-only by every device. This is
    /// [`run_escalated`](Self::run_escalated) with the one-stage,
    /// unbudgeted schedule `[config]`.
    ///
    /// # Errors
    ///
    /// As [`run_escalated`](Self::run_escalated).
    pub fn run<D, F>(
        &self,
        factory: F,
        seeds: &[u64],
        plan: &LotPlan,
        config: AnalyzerConfig,
    ) -> Result<LotReport, NetanError>
    where
        D: Dut,
        F: Fn(u64) -> D + Sync,
    {
        self.run_escalated(factory, seeds, plan, &EscalationSchedule::new(vec![config]))
    }

    /// [`run`](Self::run) over the contiguous seed range `seed_range`,
    /// as one **shard** of a larger lot. Merging the shards of any
    /// seed-contiguous partition with [`LotReport::merge`] is
    /// byte-identical (through [`lot_json`](crate::report::lot_json))
    /// to one monolithic `run` over the whole range.
    ///
    /// # Errors
    ///
    /// As [`run_escalated`](Self::run_escalated).
    pub fn run_range<D, F>(
        &self,
        factory: F,
        seed_range: Range<u64>,
        plan: &LotPlan,
        config: AnalyzerConfig,
    ) -> Result<LotReport, NetanError>
    where
        D: Dut,
        F: Fn(u64) -> D + Sync,
    {
        let schedule = EscalationSchedule::new(vec![config]);
        self.run_escalated_range(factory, seed_range, plan, &schedule)
    }

    /// The shard span of an explicit seed slice: a complete span when
    /// the slice is one contiguous ascending run, `None` otherwise —
    /// an arbitrary seed list has no range provenance.
    fn slice_span(seeds: &[u64]) -> Option<ShardSpan> {
        let (&first, &last) = (seeds.first()?, seeds.last()?);
        let end = last.checked_add(1)?;
        seeds
            .windows(2)
            .all(|w| w[0].checked_add(1) == Some(w[1]))
            .then(|| ShardSpan::complete(first..end))
    }

    /// [`run_escalated`](Self::run_escalated) over the contiguous seed
    /// range `seed_range`, as one **shard** of a larger lot. For
    /// unbudgeted schedules, merging the shards of any seed-contiguous
    /// partition with [`LotReport::merge`] is byte-identical (through
    /// [`lot_json`](crate::report::lot_json)) to one monolithic
    /// `run_escalated` over the whole range; a budget applies per shard
    /// (see the [module docs](self#sharding)).
    ///
    /// # Errors
    ///
    /// As [`run_escalated`](Self::run_escalated).
    pub fn run_escalated_range<D, F>(
        &self,
        factory: F,
        seed_range: Range<u64>,
        plan: &LotPlan,
        schedule: &EscalationSchedule,
    ) -> Result<LotReport, NetanError>
    where
        D: Dut,
        F: Fn(u64) -> D + Sync,
    {
        self.run_escalated(factory, &seed_range.collect::<Vec<_>>(), plan, schedule)
    }

    /// Screens the whole lot at `schedule` stage 0, then re-tests only
    /// the devices still [`SpecVerdict::Ambiguous`] at each subsequent
    /// stage — one shared calibration per stage, re-tests fanned across
    /// the same worker pool — until no device is ambiguous, the schedule
    /// is exhausted, or the budget admits no further re-test (see the
    /// [module docs](self#budgets-the-observed-cost-ledger) for the
    /// observed-cost ledger and [`StoppingPolicy`] for how re-tests are
    /// charged).
    ///
    /// Results are bit-identical to a serial in-order run: admissions
    /// are replayed in seed order against the ledger (never by
    /// completion order), and on failure the lowest-seed-index error
    /// among the *admitted* measurements of the failing stage is
    /// reported. A contiguous ascending seed slice (`s, s+1, …`) gets a
    /// complete [`ShardSpan`] attached; arbitrary seed lists carry none.
    ///
    /// # Errors
    ///
    /// * [`NetanError::EmptyLot`] for an empty seed list,
    /// * [`NetanError::EmptySweep`] for an empty plan grid,
    /// * the lowest-index [`NetanError::InvalidFrequency`] if the grid
    ///   contains a non-positive frequency (rejected before calibration
    ///   or any simulation),
    /// * [`NetanError::DeviceNotSimulable`] if a device's nominal
    ///   response is non-finite at a plan frequency,
    /// * per-device measurement errors, lowest seed index first,
    /// * [`NetanError::BudgetExhausted`] when the budget cannot cover
    ///   the all-or-nothing stage-0 screening pass — rejected before any
    ///   simulation on fixed grids, and right after the observed
    ///   screening pass on adaptive plans.
    pub fn run_escalated<D, F>(
        &self,
        factory: F,
        seeds: &[u64],
        plan: &LotPlan,
        schedule: &EscalationSchedule,
    ) -> Result<LotReport, NetanError>
    where
        D: Dut,
        F: Fn(u64) -> D + Sync,
    {
        Self::validate_lot(seeds, plan)?;
        // Fixed grids have a uniform, projectable per-device charge at
        // every stage; adaptive plans refine per device, so every cost
        // is observed.
        let uniform = plan.refinement().is_none();
        let stage_charge =
            |s: usize| uniform.then(|| grid_time(schedule.charged_periods(s), plan.grid()));

        // The screening pass is all-or-nothing: without it no device has
        // a verdict, so a budget that cannot cover it is an error, not a
        // silently empty report. On a fixed grid the screening cost is
        // projectable and rejected before any simulation; an adaptive
        // plan's cost is observed, so the same check runs right after
        // the screening pass below.
        if let (Some(budget), Some(c0)) = (schedule.budget(), stage_charge(0)) {
            let screening_cost = (0..seeds.len()).fold(Seconds(0.0), |acc, _| acc + c0);
            if screening_cost.value() > budget.value() {
                return Err(Self::budget_error(screening_cost, budget));
            }
        }

        let config0 = schedule.stages()[0];
        let cal = Self::shared_calibration(config0)?;
        let results = pool::map_indexed(self.device_threads, seeds.len(), |i| {
            self.characterize_device(
                &factory,
                seeds[i],
                plan,
                config0,
                cal,
                0,
                config0.periods,
                &[],
            )
        });
        let mut devices = results.into_iter().collect::<Result<Vec<_>, _>>()?;

        // Folded from the measured devices, so the stage sum and the
        // device sums agree to the last bit.
        let screen_time = devices
            .iter()
            .fold(Seconds(0.0), |acc, d| acc + d.test_time);
        if let Some(budget) = schedule.budget() {
            if !uniform && screen_time.value() > budget.value() {
                return Err(Self::budget_error(screen_time, budget));
            }
        }
        let mut spent = screen_time;
        let mut stages = vec![StageSummary {
            stage: 0,
            periods: config0.periods,
            tested: devices.len(),
            counts: VerdictCounts::tally(&devices),
            time: screen_time,
            device_time: stage_charge(0),
        }];
        let mut budget_exhausted = false;

        for (s, &config) in schedule.stages().iter().enumerate().skip(1) {
            let ambiguous: Vec<usize> = devices
                .iter()
                .enumerate()
                .filter(|(_, d)| d.verdict == SpecVerdict::Ambiguous)
                .map(|(i, _)| i)
                .collect();
            if ambiguous.is_empty() {
                break;
            }
            // How many candidates to measure. With a uniform per-device
            // charge the admitted seed-order prefix — admit while
            // `spent < budget`, charge on completion — is computable
            // without measuring; adaptive charges are observed, so every
            // candidate is measured and the ledger replay below decides.
            let measure = match (schedule.budget(), stage_charge(s)) {
                (Some(budget), Some(c)) => {
                    let mut k = 0;
                    let mut acc = spent;
                    while k < ambiguous.len() && acc.value() < budget.value() {
                        acc = acc + c;
                        k += 1;
                    }
                    k
                }
                _ => ambiguous.len(),
            };
            if measure == 0 {
                budget_exhausted = true;
                break;
            }
            let charge_periods = schedule.charged_periods(s);
            let cal = Self::shared_calibration(config)?;
            let results = pool::map_indexed(self.device_threads, measure, |j| {
                let d = &devices[ambiguous[j]];
                self.characterize_device(
                    &factory,
                    d.seed,
                    plan,
                    config,
                    cal,
                    s,
                    charge_periods,
                    &d.stage_times,
                )
            });
            // Observed-cost ledger replay, in seed order: admit the next
            // ambiguous device while `spent < budget`, charge its actual
            // measurement time as it completes. Results are buffered, so
            // the lowest-seed-index error among the admitted re-tests
            // wins under any thread schedule, exactly as a serial
            // in-order run would report it; results past the admission
            // cut-off never touch the report or the ledger.
            let mut tested = 0;
            let mut stage_time = Seconds(0.0);
            let mut results = results.into_iter();
            for (j, &i) in ambiguous.iter().enumerate() {
                let denied = j >= measure
                    || schedule
                        .budget()
                        .is_some_and(|budget| spent.value() >= budget.value());
                if denied {
                    budget_exhausted = true;
                    break;
                }
                // `results` holds exactly `measure` items and `j < measure`
                // here, so the iterator cannot run dry; treating an
                // impossible dry read as exhaustion keeps the path
                // panic-free without inventing an error variant.
                let Some(report) = results.next() else {
                    budget_exhausted = true;
                    break;
                };
                let report = report?;
                // Every re-test appends its stage charge; fall back to
                // the cumulative spend (a sane degenerate ledger entry)
                // rather than asserting.
                let t = report
                    .stage_times
                    .last()
                    .copied()
                    .unwrap_or(report.test_time);
                spent = spent + t;
                stage_time = stage_time + t;
                devices[i] = report;
                tested += 1;
            }
            if tested == 0 {
                break;
            }
            stages.push(StageSummary {
                stage: s,
                periods: config.periods,
                tested,
                counts: VerdictCounts::tally(&devices),
                time: stage_time,
                device_time: stage_charge(s),
            });
        }

        let mut report = LotReport::new(plan.mask().clone(), devices)
            .with_stages(stages)
            .with_budget(schedule.budget(), budget_exhausted)
            .with_stopping(schedule.stopping());
        report.shard = Self::slice_span(seeds);
        Ok(report)
    }

    /// The typed budget-below-screening error, both sides rounded **up**
    /// to the next simulated millisecond — the same rounding, so a
    /// sub-millisecond budget never reports as `0` and the displayed
    /// pair never inverts the real comparison.
    fn budget_error(needed: Seconds, budget: Seconds) -> NetanError {
        NetanError::BudgetExhausted {
            // netan-lint: allow(lossy-cast): diagnostic-only millisecond render; `as` saturates NaN/∞ instead of panicking
            needed_ms: (needed.value() * 1000.0).ceil() as u64,
            // netan-lint: allow(lossy-cast): diagnostic-only millisecond render; `as` saturates NaN/∞ instead of panicking
            budget_ms: (budget.value() * 1000.0).ceil() as u64,
        }
    }

    /// Shared up-front validation of a lot request: non-empty seeds,
    /// non-empty grid, every grid frequency valid, every mask frequency
    /// actually in the grid — all rejected before calibration or any
    /// simulation.
    fn validate_lot(seeds: &[u64], plan: &LotPlan) -> Result<(), NetanError> {
        if seeds.is_empty() {
            return Err(NetanError::EmptyLot);
        }
        if plan.grid().is_empty() {
            return Err(NetanError::EmptySweep);
        }
        for &f in plan.grid() {
            NetworkAnalyzer::validate_frequency(f)?;
        }
        // A grid that omits a mask frequency would only surface as a
        // `MaskFrequencyMissing` deep inside classification, devices
        // into the run. `LotPlan::new` always unions the mask into the
        // grid; plans assembled any other way are rejected here, up
        // front.
        for mp in plan.mask().points() {
            let measured = plan
                .grid()
                .iter()
                .any(|f| f.value().to_bits() == mp.frequency.value().to_bits());
            if !measured {
                return Err(LotPlan::missing_mask_error(mp.frequency));
            }
        }
        Ok(())
    }

    /// The stimulus characterization shared by every device in a lot.
    ///
    /// The calibration bypass taps the generated stimulus *ahead* of the
    /// DUT (paper Fig. 1 dashed path), so the measurement is independent
    /// of which device sits on the board — one calibration per analyzer
    /// configuration serves the whole lot, bit-identical to calibrating
    /// per device.
    pub fn shared_calibration(config: AnalyzerConfig) -> Result<Calibration, NetanError> {
        NetworkAnalyzer::new(&Bypass, config).calibrate()
    }

    /// Measures one device at `config` and charges it
    /// `charge_periods`-worth of acquisition per measured point — the
    /// full `config.periods` for a fresh insertion, the period
    /// increment for a [`StoppingPolicy::Sequential`] continuation.
    /// `prior` is the device's per-stage charge history from earlier
    /// stages; the new stage's charge is appended to it.
    #[allow(clippy::too_many_arguments)]
    fn characterize_device<D, F>(
        &self,
        factory: &F,
        seed: u64,
        plan: &LotPlan,
        config: AnalyzerConfig,
        cal: Calibration,
        stage: usize,
        charge_periods: u32,
        prior: &[Seconds],
    ) -> Result<DeviceReport, NetanError>
    where
        D: Dut,
        F: Fn(u64) -> D + Sync,
    {
        let device = factory(seed);
        // A pathological mismatch draw (e.g. a NaN or negative pole) would
        // make the state-space discretization diverge; reject it cleanly
        // before any simulation.
        for &f in plan.grid() {
            let r = device.ideal_response(f);
            if !r.magnitude.is_finite() || !r.phase.is_finite() {
                return Err(NetanError::DeviceNotSimulable { seed });
            }
        }
        let analyzer = NetworkAnalyzer::new(&device, config);
        let plot = match plan.refinement() {
            None => {
                let mut points = self.point_engine.measure(&analyzer, cal, plan.grid())?;
                unwrap_phase_by_continuity(&mut points);
                BodePlot::new(points)
            }
            // Adaptive plan: the grid ∪ mask union seeds refinement, so
            // each device also resolves its own (mismatch-shifted) knee.
            Some(&policy) => AdaptiveSweep::with_engine(policy, self.point_engine).run(
                &analyzer,
                cal,
                plan.grid(),
            )?,
        };
        let verdict = plan.classify_plot(plot.points())?;
        let fit = plot.fit_lowpass_biquad();
        // Actual measured points (a superset of the grid for adaptive
        // plans), each charged `charge_periods` of chopped acquisition —
        // the whole stage `M` for a fresh insertion, the increment for a
        // sequential continuation.
        let time = plot.points().iter().fold(Seconds(0.0), |acc, p| {
            acc + measurement_time(charge_periods, p.frequency)
        });
        let mut stage_times = prior.to_vec();
        stage_times.push(time);
        // The cumulative spend continues the same left fold the prior
        // stages accumulated, so stage sums, device sums and `spent`
        // agree to the last bit.
        let test_time = stage_times.iter().fold(Seconds(0.0), |acc, &t| acc + t);
        Ok(DeviceReport {
            seed,
            plot,
            verdict,
            fit,
            stage,
            periods: config.periods,
            test_time,
            stage_times,
        })
    }
}

impl Default for LotEngine {
    fn default() -> Self {
        Self::auto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dut::ActiveRcFilter;

    fn paper_factory(sigma: f64) -> impl Fn(u64) -> ActiveRcFilter + Sync {
        move |seed| {
            ActiveRcFilter::paper_dut()
                .linearized()
                .fabricate(sigma, seed)
        }
    }

    fn quick_config() -> AnalyzerConfig {
        AnalyzerConfig::ideal().with_periods(50)
    }

    #[test]
    fn engine_constructors_resolve() {
        assert_eq!(LotEngine::serial().threads(), 1);
        assert_eq!(LotEngine::with_threads(0).threads(), 1);
        assert_eq!(LotEngine::with_threads(6).threads(), 6);
        assert!(LotEngine::auto().threads() >= 1);
        assert_eq!(LotEngine::default(), LotEngine::auto());
        let nested = LotEngine::with_threads(2).with_point_engine(SweepEngine::with_threads(3));
        assert_eq!(nested.point_engine().threads(), 3);
    }

    #[test]
    fn plan_unions_grid_and_mask() {
        let mask = GainMask::paper_lowpass();
        let plan = LotPlan::new(&[Hertz(300.0), Hertz(1000.0), Hertz(300.0)], mask.clone());
        // 300 Hz deduplicated, 1 kHz merged with the mask's own 1 kHz.
        let values: Vec<f64> = plan.grid().iter().map(|f| f.value()).collect();
        assert_eq!(values, vec![200.0, 300.0, 500.0, 1000.0, 10_000.0]);
        assert_eq!(plan.mask(), &mask);
        let minimal = LotPlan::from_mask(GainMask::paper_lowpass());
        assert_eq!(minimal.grid().len(), 4);
    }

    #[test]
    fn empty_lot_and_empty_plan_rejected() {
        let plan = LotPlan::from_mask(GainMask::paper_lowpass());
        let engine = LotEngine::serial();
        assert_eq!(
            engine
                .run(paper_factory(0.0), &[], &plan, quick_config())
                .unwrap_err(),
            NetanError::EmptyLot
        );
        let empty_plan = LotPlan::from_mask(GainMask::new());
        assert_eq!(
            engine
                .run(paper_factory(0.0), &[1], &empty_plan, quick_config())
                .unwrap_err(),
            NetanError::EmptySweep
        );
    }

    #[test]
    fn invalid_grid_frequency_rejected_before_simulation() {
        let plan = LotPlan::new(
            &[Hertz(-5.0)],
            GainMask::new().with_point(crate::spec::MaskPoint::new(Hertz(1000.0), -4.5, -1.5)),
        );
        let err = LotEngine::serial()
            .run(paper_factory(0.0), &[0, 1], &plan, quick_config())
            .unwrap_err();
        assert_eq!(err, NetanError::InvalidFrequency { hz_millis: -5000 });
    }

    #[test]
    fn nominal_lot_passes_and_fits() {
        let plan = LotPlan::from_mask(GainMask::paper_lowpass());
        let seeds = [0u64, 1, 2];
        let report = LotEngine::with_threads(3)
            .run(paper_factory(0.01), &seeds, &plan, quick_config())
            .unwrap();
        assert_eq!(report.len(), 3);
        assert_eq!(report.counts().total(), 3);
        let (ylo, yhi) = report.yield_bounds().expect("non-empty lot has a yield");
        assert!(0.0 <= ylo && ylo <= yhi && yhi <= 1.0);
        // A plain run carries exactly one stage summary with the whole
        // lot tested at the configured M.
        assert_eq!(report.stages().len(), 1);
        let s0 = report.stages()[0];
        assert_eq!((s0.stage, s0.periods, s0.tested), (0, 50, 3));
        assert_eq!(s0.counts, report.counts());
        assert!((report.spent().value() - s0.time.value()).abs() < 1e-12);
        assert_eq!(report.budget(), None);
        assert!(!report.budget_exhausted());
        for (d, &seed) in report.devices().iter().zip(&seeds) {
            assert_eq!(d.seed, seed);
            assert_eq!(d.plot.len(), plan.grid().len());
            assert_eq!((d.stage, d.periods), (0, 50));
            // 4-point minimal mask grid at M = 50: Σ 2·50/f.
            let expect: f64 = plan.grid().iter().map(|f| 2.0 * 50.0 / f.value()).sum();
            assert!((d.test_time.value() - expect).abs() < 1e-12);
            // The fitted summary must track the fabricated device.
            let device = paper_factory(0.01)(seed);
            let fit = d.fit.expect("low-pass fit");
            // M = 50 keeps the test fast at the price of wider stopband
            // estimate error, so this is a tracking check, not a
            // precision check (the analytic-fit tests in `sweep` cover
            // precision).
            let rel_f0 = (fit.f0.value() - device.f0().value()).abs() / device.f0().value();
            assert!(rel_f0 < 0.04, "seed {seed}: fit {fit:?} vs {}", device.f0());
            let rel_q = (fit.q - device.q()).abs() / device.q();
            assert!(rel_q < 0.15, "seed {seed}: fit {fit:?} vs Q {}", device.q());
        }
    }

    #[test]
    fn empty_report_has_no_yield_and_zero_counts() {
        // Regression (mirrors the `worst_gain_error_db` empty-plot fix):
        // a zero-device report must not claim a 0 % yield — it has none.
        let report = LotReport::new(GainMask::new(), Vec::new());
        assert!(report.is_empty());
        assert_eq!(report.yield_bounds(), None);
        let c = report.counts();
        assert!(c.is_empty());
        assert_eq!(c.total(), 0);
        assert_eq!((c.pass, c.fail, c.ambiguous), (0, 0, 0));
        assert_eq!(report.spent(), Seconds(0.0));
        assert!(report.stages().is_empty());
    }

    #[test]
    fn schedule_constructors_and_stage_time() {
        let s = EscalationSchedule::paper_default();
        assert_eq!(
            s.stages().iter().map(|c| c.periods).collect::<Vec<_>>(),
            vec![50, 200, 800]
        );
        assert_eq!(s.budget(), None);
        let b =
            EscalationSchedule::from_periods(quick_config(), &[50, 100]).with_budget(Seconds(30.0));
        assert_eq!(b.budget(), Some(Seconds(30.0)));
        // Stage time is Σ 2M/f over the grid, linear in M.
        let grid = [Hertz(500.0), Hertz(1000.0)];
        let t0 = b.device_stage_time(0, &grid);
        let t1 = b.device_stage_time(1, &grid);
        assert!((t0.value() - (2.0 * 50.0 / 500.0 + 2.0 * 50.0 / 1000.0)).abs() < 1e-12);
        assert!((t1.value() - 2.0 * t0.value()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_schedule_panics() {
        let _ = EscalationSchedule::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn non_escalating_schedule_panics() {
        let _ = EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[100, 100]);
    }

    #[test]
    fn try_new_rejects_malformed_schedules_with_typed_errors() {
        let err = |ms: &[u32]| {
            let stages = ms.iter().map(|&m| AnalyzerConfig::ideal().with_periods(m));
            EscalationSchedule::try_new(stages.collect()).unwrap_err()
        };
        assert_eq!(err(&[]), NetanError::EmptySchedule);
        let (periods, next) = (200, 200);
        assert_eq!(
            err(&[50, 200, 200]),
            NetanError::NonEscalatingStages { periods, next }
        );
    }

    #[test]
    fn adaptive_plans_escalate_on_the_observed_ledger() {
        // Regression: adaptive plans used to be rejected with a typed
        // `AdaptivePlanUnsupported` because the projected ledger could
        // not price device-dependent grids. The observed ledger charges
        // actual measurement times, so both budgeted and unbudgeted
        // escalation now run.
        let plan = LotPlan::adaptive(
            &[Hertz(300.0)],
            GainMask::paper_lowpass(),
            RefinementPolicy::new(0.5),
        );
        let schedule = EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[30, 120]);
        let report = LotEngine::serial()
            .run_escalated(paper_factory(0.09), &[0, 1, 2], &plan, &schedule)
            .unwrap();
        assert_eq!(report.len(), 3);
        // Adaptive charges are device-dependent: no uniform stage cost.
        assert!(report.stages().iter().all(|s| s.device_time.is_none()));
        // Every stage's time is the fold of its devices' observed
        // charges.
        for s in report.stages() {
            let fold = report
                .devices()
                .iter()
                .filter(|d| d.stage_times.len() > s.stage)
                .fold(Seconds(0.0), |acc, d| acc + d.stage_times[s.stage]);
            assert_eq!(s.time.value().to_bits(), fold.value().to_bits());
        }
        // A generous budget admits everything and reports identically.
        let budgeted = LotEngine::serial()
            .run_escalated(
                paper_factory(0.09),
                &[0, 1, 2],
                &plan,
                &schedule.clone().with_budget(Seconds(1e6)),
            )
            .unwrap();
        assert_eq!(budgeted.devices(), report.devices());
        assert!(!budgeted.budget_exhausted());
    }

    #[test]
    fn adaptive_budget_below_screening_is_a_typed_error() {
        // The screening pass stays all-or-nothing; with an adaptive plan
        // the check runs on the observed screening spend.
        let plan = LotPlan::adaptive(
            &[Hertz(300.0)],
            GainMask::paper_lowpass(),
            RefinementPolicy::new(0.5),
        );
        let schedule = EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[30, 120])
            .with_budget(Seconds(1e-6));
        let err = LotEngine::serial()
            .run_escalated(paper_factory(0.0), &[0, 1], &plan, &schedule)
            .unwrap_err();
        match err {
            NetanError::BudgetExhausted {
                needed_ms,
                budget_ms,
            } => {
                assert!(needed_ms >= budget_ms);
                assert_eq!(budget_ms, 1); // 1 µs budget rounds *up*, not to 0
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn shard_span_helpers_and_slice_detection() {
        let span = ShardSpan::complete(3..7);
        assert_eq!((span.seed_start, span.seed_end), (3, 7));
        assert!(span.complete);
        assert_eq!(span.len(), 4);
        assert!(!span.is_empty());
        assert!(ShardSpan::complete(5..5).is_empty());

        assert_eq!(
            LotEngine::slice_span(&[2, 3, 4]),
            Some(ShardSpan::complete(2..5))
        );
        assert_eq!(LotEngine::slice_span(&[7]), Some(ShardSpan::complete(7..8)));
        // Gaps, reorderings and duplicates carry no range provenance.
        assert_eq!(LotEngine::slice_span(&[2, 4]), None);
        assert_eq!(LotEngine::slice_span(&[3, 2]), None);
        assert_eq!(LotEngine::slice_span(&[2, 2]), None);
        assert_eq!(LotEngine::slice_span(&[]), None);
        // The one range whose exclusive end does not exist.
        assert_eq!(LotEngine::slice_span(&[u64::MAX]), None);
    }

    #[test]
    fn run_attaches_span_only_to_contiguous_seed_lists() {
        let plan = LotPlan::from_mask(GainMask::paper_lowpass());
        let contiguous = LotEngine::serial()
            .run(paper_factory(0.02), &[4, 5, 6], &plan, quick_config())
            .unwrap();
        assert_eq!(contiguous.shard(), Some(ShardSpan::complete(4..7)));
        let gapped = LotEngine::serial()
            .run(paper_factory(0.02), &[4, 6], &plan, quick_config())
            .unwrap();
        assert_eq!(gapped.shard(), None);
    }

    #[test]
    fn run_range_is_run_over_the_collected_seeds() {
        let plan = LotPlan::from_mask(GainMask::paper_lowpass());
        let factory = paper_factory(0.05);
        let by_slice = LotEngine::serial()
            .run(&factory, &[1, 2, 3], &plan, quick_config())
            .unwrap();
        let by_range = LotEngine::serial()
            .run_range(&factory, 1..4, &plan, quick_config())
            .unwrap();
        assert_eq!(by_slice, by_range);
        assert_eq!(
            LotEngine::serial()
                .run_range(&factory, 5..5, &plan, quick_config())
                .unwrap_err(),
            NetanError::EmptyLot
        );
    }

    #[test]
    fn verdict_counts_merge_adds_fieldwise() {
        let a = VerdictCounts {
            pass: 2,
            fail: 1,
            ambiguous: 3,
        };
        let b = VerdictCounts {
            pass: 1,
            fail: 0,
            ambiguous: 2,
        };
        let ab = a.merge(b);
        assert_eq!((ab.pass, ab.fail, ab.ambiguous), (3, 1, 5));
        assert_eq!(a.merge(VerdictCounts::default()), a);
        assert_eq!(VerdictCounts::default().merge(a), a);
    }

    #[test]
    fn merge_empty_is_a_two_sided_identity() {
        let plan = LotPlan::from_mask(GainMask::paper_lowpass());
        let report = LotEngine::serial()
            .run_range(paper_factory(0.05), 0..3, &plan, quick_config())
            .unwrap();
        assert_eq!(LotReport::empty(&plan).merge(report.clone()), report);
        assert_eq!(report.clone().merge(LotReport::empty(&plan)), report);
        assert_eq!(
            LotReport::empty(&plan).merge(LotReport::empty(&plan)),
            LotReport::empty(&plan)
        );
    }

    #[test]
    fn merging_adjacent_shards_equals_the_monolithic_run() {
        let plan = LotPlan::from_mask(GainMask::paper_lowpass());
        let factory = paper_factory(0.05);
        let engine = LotEngine::serial();
        let whole = engine
            .run_range(&factory, 0..6, &plan, quick_config())
            .unwrap();
        let a = engine
            .run_range(&factory, 0..2, &plan, quick_config())
            .unwrap();
        let b = engine
            .run_range(&factory, 2..4, &plan, quick_config())
            .unwrap();
        let c = engine
            .run_range(&factory, 4..6, &plan, quick_config())
            .unwrap();
        let merged = a.clone().merge(b.clone()).merge(c.clone());
        assert_eq!(merged, whole);
        // Associativity: the other grouping lands on the same bits.
        assert_eq!(a.merge(b.merge(c)), whole);
        assert_eq!(whole.shard(), Some(ShardSpan::complete(0..6)));
    }

    #[test]
    #[should_panic(expected = "adjacent")]
    fn merging_non_adjacent_shards_panics() {
        let plan = LotPlan::from_mask(GainMask::paper_lowpass());
        let factory = paper_factory(0.05);
        let a = LotEngine::serial()
            .run_range(&factory, 0..2, &plan, quick_config())
            .unwrap();
        let c = LotEngine::serial()
            .run_range(&factory, 4..6, &plan, quick_config())
            .unwrap();
        let _ = a.merge(c);
    }

    #[test]
    fn stage_summary_merge_continues_the_time_fold() {
        let c = Seconds(0.125);
        let mk = |tested: usize| StageSummary {
            stage: 1,
            periods: 100,
            tested,
            counts: VerdictCounts {
                pass: tested,
                fail: 0,
                ambiguous: 0,
            },
            time: (0..tested).fold(Seconds(0.0), |acc, _| acc + c),
            device_time: Some(c),
        };
        let merged = mk(3).merge(mk(2));
        assert_eq!(merged.tested, 5);
        assert_eq!(merged.time, mk(5).time);
        assert_eq!(merged.device_time, Some(c));
        assert_eq!(merged.counts.pass, 5);
    }

    #[test]
    fn escalation_validates_before_simulating() {
        let schedule = EscalationSchedule::from_periods(quick_config(), &[50, 100]);
        let plan = LotPlan::from_mask(GainMask::paper_lowpass());
        let engine = LotEngine::serial();
        assert_eq!(
            engine
                .run_escalated(paper_factory(0.0), &[], &plan, &schedule)
                .unwrap_err(),
            NetanError::EmptyLot
        );
        // A budget below the screening pass is rejected up front with
        // the exact shortfall.
        let c0 = schedule.device_stage_time(0, plan.grid()).value();
        let starved = schedule.clone().with_budget(Seconds(c0 * 1.5));
        let err = engine
            .run_escalated(paper_factory(0.0), &[0, 1], &plan, &starved)
            .unwrap_err();
        match err {
            NetanError::BudgetExhausted {
                needed_ms,
                budget_ms,
            } => {
                assert_eq!(needed_ms, (2.0 * c0 * 1000.0).ceil() as u64);
                // Regression: `budget_ms` used to truncate while
                // `needed_ms` ceiled; both now round up the same way.
                assert_eq!(budget_ms, (1.5 * c0 * 1000.0).ceil() as u64);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn budget_error_rounds_both_sides_up() {
        // Regression for the inconsistent rounding at the error site: a
        // 0.9 ms budget used to report as 0 ms, and a budget a hair
        // under the need could display as needed > budget by a full
        // millisecond. Both sides now ceil.
        let plan = LotPlan::from_mask(GainMask::paper_lowpass());
        let schedule = EscalationSchedule::from_periods(quick_config(), &[50, 100])
            .with_budget(Seconds(0.0009));
        let err = LotEngine::serial()
            .run_escalated(paper_factory(0.0), &[0, 1], &plan, &schedule)
            .unwrap_err();
        match err {
            NetanError::BudgetExhausted {
                needed_ms,
                budget_ms,
            } => {
                assert_eq!(budget_ms, 1, "sub-millisecond budget must not report as 0");
                assert!(needed_ms >= budget_ms, "displayed pair must not invert");
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        // At the boundary — budget exactly the screening cost — the run
        // is admitted, not rejected, so no inverted display can occur.
        let c0 = schedule.device_stage_time(0, plan.grid());
        let exact = (0..2).fold(Seconds(0.0), |acc, _| acc + c0);
        let ok = LotEngine::serial()
            .run_escalated(
                paper_factory(0.0),
                &[0, 1],
                &plan,
                &EscalationSchedule::from_periods(quick_config(), &[50, 100]).with_budget(exact),
            )
            .unwrap();
        assert_eq!(ok.len(), 2);
    }

    #[test]
    fn grid_missing_a_mask_frequency_is_a_typed_error() {
        // Regression: a plan whose grid does not cover its mask used to
        // panic mid-lot at classification ("mask frequency measured by
        // construction"). `LotPlan::new` always unions the mask into the
        // grid, so build the broken plan directly, as a deserializer or
        // future constructor might.
        let plan = LotPlan {
            grid: vec![Hertz(200.0), Hertz(500.0)],
            mask: GainMask::paper_lowpass(), // needs 1 kHz and 10 kHz too
            refinement: None,
        };
        let engine = LotEngine::serial();
        let expected = NetanError::MaskFrequencyMissing {
            hz_millis: 1_000_000,
        };
        assert_eq!(
            engine
                .run(paper_factory(0.0), &[0, 1], &plan, quick_config())
                .unwrap_err(),
            expected
        );
        // The escalated entry point rejects identically, before any
        // simulation.
        assert_eq!(
            engine
                .run_escalated(
                    paper_factory(0.0),
                    &[0, 1],
                    &plan,
                    &EscalationSchedule::paper_default(),
                )
                .unwrap_err(),
            expected
        );
        // A well-formed plan over the same mask still runs.
        let ok = LotPlan::new(&[Hertz(200.0), Hertz(500.0)], GainMask::paper_lowpass());
        assert!(engine
            .run(paper_factory(0.0), &[0], &ok, quick_config())
            .is_ok());
    }

    #[test]
    fn sequential_stopping_matches_staged_verdicts_and_spends_less() {
        // Sequential stopping continues each device's acquisition, so
        // verdicts, stages and plots bit-match the staged run while the
        // charged spend is strictly smaller whenever anything escalates.
        let plan = LotPlan::from_mask(GainMask::paper_lowpass());
        let seeds: Vec<u64> = (0..8).collect();
        let staged = EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[30, 120, 480]);
        let sequential = staged.clone().sequential();
        assert_eq!(sequential.stopping(), StoppingPolicy::Sequential);
        let engine = LotEngine::with_threads(3);
        let a = engine
            .run_escalated(paper_factory(0.09), &seeds, &plan, &staged)
            .unwrap();
        let b = engine
            .run_escalated(paper_factory(0.09), &seeds, &plan, &sequential)
            .unwrap();
        assert_eq!(b.stopping(), StoppingPolicy::Sequential);
        let escalated = a.stages().iter().skip(1).map(|s| s.tested).sum::<usize>();
        assert!(escalated > 0, "σ=9% at M=30 must leave someone ambiguous");
        for (da, db) in a.devices().iter().zip(b.devices()) {
            assert_eq!(da.verdict, db.verdict);
            assert_eq!((da.stage, da.periods), (db.stage, db.periods));
            assert_eq!(da.plot, db.plot);
            if da.stage > 0 {
                // The continued acquisition charges only the increments:
                // cumulative spend equals the charge at the final M
                // alone, which is strictly below the staged re-insertion
                // total.
                assert!(db.test_time.value() < da.test_time.value());
            } else {
                assert_eq!(
                    da.test_time.value().to_bits(),
                    db.test_time.value().to_bits()
                );
            }
            assert_eq!(db.stage_times.len(), db.stage + 1);
        }
        assert!(b.spent().value() < a.spent().value());
        // Charged periods across a device's walk telescope to the final
        // stage's M.
        assert_eq!(sequential.charged_periods(0), 30);
        assert_eq!(sequential.charged_periods(1), 90);
        assert_eq!(sequential.charged_periods(2), 360);
        assert_eq!(staged.charged_periods(2), 480);
    }

    #[test]
    fn sequential_budget_admits_in_seed_order_and_overshoots_at_most_once() {
        // Observed-cost admission: re-tests are admitted while
        // `spent < budget`; the final admitted re-test may overshoot by
        // at most its own charge.
        let plan = LotPlan::from_mask(GainMask::paper_lowpass());
        let seeds: Vec<u64> = (0..8).collect();
        let schedule =
            EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[30, 120]).sequential();
        let free = LotEngine::serial()
            .run_escalated(paper_factory(0.09), &seeds, &plan, &schedule)
            .unwrap();
        let ambiguous0 = free.stages()[0].counts.ambiguous;
        assert!(ambiguous0 >= 2, "need at least two escalating devices");
        let c0 = schedule.device_stage_charge(0, plan.grid());
        let c1 = schedule.device_stage_charge(1, plan.grid());
        let screen = (0..seeds.len()).fold(Seconds(0.0), |acc, _| acc + c0);
        // Budget covers screening plus half of one re-test: exactly one
        // re-test is admitted (spent < budget holds before it), and the
        // ledger overshoots by half a charge.
        let budget = Seconds(screen.value() + 0.5 * c1.value());
        let capped = LotEngine::serial()
            .run_escalated(
                paper_factory(0.09),
                &seeds,
                &plan,
                &schedule.clone().with_budget(budget),
            )
            .unwrap();
        assert!(capped.budget_exhausted());
        assert_eq!(capped.stages().len(), 2);
        assert_eq!(capped.stages()[1].tested, 1);
        // The admitted re-test is the lowest-seed ambiguous device.
        let first_ambiguous = free
            .devices()
            .iter()
            .position(|d| d.stage_times.len() > 1)
            .unwrap();
        assert_eq!(capped.devices()[first_ambiguous].stage, 1);
        let spent = capped.spent().value();
        assert!(spent > budget.value(), "admitted re-test overshoots");
        assert!(
            spent <= budget.value() + c1.value(),
            "by at most one charge"
        );
        // Parallel admission replay lands on the same bytes.
        let parallel = LotEngine::with_threads(4)
            .run_escalated(
                paper_factory(0.09),
                &seeds,
                &plan,
                &schedule.with_budget(budget),
            )
            .unwrap();
        assert_eq!(parallel, capped);
    }

    #[test]
    fn escalation_resolves_ambiguity_within_schedule() {
        // σ = 9 % parts at a fast M = 30 screen: some devices come back
        // ambiguous and must escalate; everything decided at stage 0
        // keeps its stage-0 provenance untouched.
        let plan = LotPlan::from_mask(GainMask::paper_lowpass());
        let seeds: Vec<u64> = (0..6).collect();
        let schedule = EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[30, 120]);
        let report = LotEngine::with_threads(3)
            .run_escalated(paper_factory(0.09), &seeds, &plan, &schedule)
            .unwrap();
        assert_eq!(report.len(), 6);
        let stage0 = report.stages()[0];
        assert_eq!(stage0.tested, 6);
        // Whoever escalated carries stage-1 provenance and strictly more
        // cumulative test time than a stage-0-only device.
        let c0 = schedule.device_stage_time(0, plan.grid()).value();
        let c1 = schedule.device_stage_time(1, plan.grid()).value();
        for d in report.devices() {
            match d.stage {
                0 => {
                    assert_eq!(d.periods, 30);
                    assert!((d.test_time.value() - c0).abs() < 1e-12);
                }
                1 => {
                    assert_eq!(d.periods, 120);
                    assert!((d.test_time.value() - (c0 + c1)).abs() < 1e-12);
                }
                s => panic!("impossible stage {s}"),
            }
        }
        if report.stages().len() == 2 {
            let stage1 = report.stages()[1];
            assert_eq!(stage1.tested, stage0.counts.ambiguous);
            assert_eq!(stage1.counts, report.counts());
            // Re-tests only ever shrink the ambiguous bin.
            assert!(stage1.counts.ambiguous <= stage0.counts.ambiguous);
        }
        let expected_spent =
            6.0 * c0 + report.stages().get(1).map_or(0.0, |s| s.tested as f64 * c1);
        assert!((report.spent().value() - expected_spent).abs() < 1e-9);
    }
}
