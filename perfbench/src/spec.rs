//! The three workloads: what each one screens, on which analyzer profile,
//! and how its seed picks the Monte-Carlo seed ranges.

use dut::ActiveRcFilter;
use netan::{AnalyzerConfig, EscalationSchedule, GainMask, LotPlan};
use netan_serve::{DutDescription, JobRequest};
use std::ops::Range;

/// Devices per lot operation on the lot workloads.
pub const LOT_DEVICES: u64 = 96;
/// Devices per `netan.job.v1` job (one device per shard).
pub const JOB_DEVICES: u64 = 8;
/// Every `REPEAT_EVERY`-th operation repeats an earlier one's seeds.
pub const REPEAT_EVERY: usize = 4;
/// The mismatch and noise seed of the CMOS analyzer: one analyzer chip
/// screens every lot. The hardware seed alone moves the re-test rate by
/// about 2× (0.14 vs 0.32 re-tests per device across seeds 1–3), which
/// would swamp every throughput bound, so the workload seed picks only
/// the devices.
pub const CMOS_HARDWARE_SEED: u64 = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Plain `run_range` lots on the ideal analyzer at `M = 200`.
    LotIdeal,
    /// Escalated lots of borderline devices on the CMOS profile.
    LotCmosEscalated,
    /// Closed-loop `netan.job.v1` clients against an in-process server.
    ServeTcp,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::LotIdeal,
        Workload::LotCmosEscalated,
        Workload::ServeTcp,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::LotIdeal => "lot_ideal",
            Workload::LotCmosEscalated => "lot_cmos_escalated",
            Workload::ServeTcp => "serve_tcp",
        }
    }

    /// Relative 1-σ component tolerance of the fabricated devices.
    pub fn sigma(self) -> f64 {
        match self {
            Workload::LotIdeal => 0.05,
            Workload::LotCmosEscalated | Workload::ServeTcp => 0.09,
        }
    }

    /// The evaluation schedule. `lot_ideal` is a single stage (a plain
    /// run).
    pub fn schedule(self) -> EscalationSchedule {
        match self {
            Workload::LotIdeal => EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[200]),
            Workload::LotCmosEscalated => EscalationSchedule::from_periods(
                AnalyzerConfig::cmos_035um(CMOS_HARDWARE_SEED),
                &[50, 200, 800],
            ),
            Workload::ServeTcp => {
                EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[50, 200])
            }
        }
    }

    /// The screening-stage analyzer configuration (the per-layer runs
    /// measure with it).
    pub fn screening_config(self) -> AnalyzerConfig {
        self.schedule().stages()[0]
    }

    /// Devices one operation screens.
    pub fn devices_per_op(self) -> u64 {
        match self {
            Workload::LotIdeal | Workload::LotCmosEscalated => LOT_DEVICES,
            Workload::ServeTcp => JOB_DEVICES,
        }
    }

    /// The fabrication factory, exactly as `netan-serve` builds a
    /// linearized paper DUT from a job description.
    pub fn factory(self) -> impl Fn(u64) -> ActiveRcFilter + Sync + Copy {
        let sigma = self.sigma();
        move |seed| {
            ActiveRcFilter::paper_dut()
                .linearized()
                .fabricate(sigma, seed)
        }
    }

    /// The workload's operation as a `netan.job.v1` request over `range`,
    /// one device per shard.
    pub fn job(self, range: Range<u64>) -> JobRequest {
        JobRequest {
            dut: DutDescription {
                tolerance: self.sigma(),
                linearized: true,
            },
            seed_start: range.start,
            seed_end: range.end,
            shard_devices: 1,
            plan: plan(),
            schedule: self.schedule(),
        }
    }
}

/// The paper's low-pass mask as the lot plan (its four mask frequencies
/// are the grid).
pub fn plan() -> LotPlan {
    LotPlan::from_mask(GainMask::paper_lowpass())
}

/// Lots in the wafer the lot workloads screen. Few enough that a
/// 30-second run screens each of them about three times even on
/// `lot_cmos_escalated`, whose lots take over a second, so a lot's median
/// latency rests on several screenings.
pub const WAFER_LOTS: u64 = 4;

/// The device seeds of wafer lot `k`. The wafer is the same for every
/// workload seed: the seed orders the lots. Per-lot cost on
/// `lot_cmos_escalated` follows its re-test count, and drawing a new
/// population per seed moved that count (and `devices_per_s`) by ±8 %
/// between seeds, more than any useful bound.
pub fn wafer_lot(k: u64) -> Range<u64> {
    let start = (1 << 40) + (k % WAFER_LOTS) * LOT_DEVICES;
    start..start + LOT_DEVICES
}

/// The order in which a run screens the wafer: lot 0 (the reference
/// lot) first, then the other lots in a seeded order.
pub fn wafer_order(seed: u64) -> Vec<u64> {
    let mut rng = crate::stats::SplitMix::new(seed);
    let mut order: Vec<u64> = (0..WAFER_LOTS).collect();
    for i in (2..order.len()).rev() {
        let j = 1 + rng.below(i);
        order.swap(i, j);
    }
    order
}

/// First Monte-Carlo seed of a workload seed's device space. Each
/// workload seed owns 2^32 device seeds; the ranges below split them.
pub fn seed_base(seed: u64) -> u64 {
    (seed % (1 << 31)) << 32
}

/// The `k`-th fresh operation range of `stream` (a client connection, or
/// 0 for the lot workloads).
pub fn op_range(seed: u64, stream: u64, k: u64, devices: u64) -> Range<u64> {
    let start = seed_base(seed) + (stream << 24) + k * devices;
    start..start + devices
}

/// The seed range of the `i`-th warm-up operation, disjoint from every
/// measured range.
pub fn warmup_range(seed: u64, i: u64, devices: u64) -> Range<u64> {
    op_range(seed, 255, i, devices)
}
