//! The lot workloads, end to end: repeated `LotEngine` lots of 96 devices
//! from a fixed wafer, screened in a seeded order, every fourth lot
//! re-screening the reference lot.
//!
//! Every wall-clock figure is the wall time the hypervisor let the guest
//! run (see [`host::Stopwatch`]); the plain figures are printed and
//! written beside them.

use crate::host::{self, Stopwatch};
use crate::spec::{self, Workload, REPEAT_EVERY};
use crate::stats;
use crate::{Args, Outcome};
use netan::{lot_json, EscalationSchedule, LotEngine, LotPlan, LotReport, NetanError};
use std::collections::BTreeMap;
use std::ops::Range;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: u64 = 3;

/// One lot operation of `workload` on `engine`: a plain `run_range` for
/// `lot_ideal`, `run_escalated_range` otherwise.
pub fn run_lot(
    workload: Workload,
    engine: &LotEngine,
    range: Range<u64>,
    plan: &LotPlan,
    schedule: &EscalationSchedule,
) -> Result<LotReport, NetanError> {
    let factory = workload.factory();
    match workload {
        Workload::LotIdeal => engine.run_range(factory, range, plan, schedule.stages()[0]),
        _ => engine.run_escalated_range(factory, range, plan, schedule),
    }
}

/// Re-tests across all stages past the screening pass.
pub fn retests(report: &LotReport) -> usize {
    report.stages().iter().skip(1).map(|s| s.tested).sum()
}

struct Op {
    /// Wafer lot index.
    lot: u64,
    /// Whether this operation re-screens the reference lot.
    repeat: bool,
    /// Unstolen wall milliseconds (see [`Stopwatch`]).
    wall_ms: f64,
    /// Plain wall milliseconds.
    raw_ms: f64,
    report: LotReport,
}

pub fn run(args: &Args) -> Outcome {
    let w = args.workload;
    let mut out = Outcome::default();
    let plan = spec::plan();
    let schedule = w.schedule();
    let reference_lot = spec::wafer_lot(0);

    // Set-up: engine construction plus one warm-up screening of the
    // reference lot, several times.
    let mut setups = Vec::new();
    let mut engine = LotEngine::with_threads(args.threads);
    for _ in 0..SETUP_REPS {
        let t = Stopwatch::start();
        engine = LotEngine::with_threads(args.threads);
        let warm = run_lot(w, &engine, reference_lot.clone(), &plan, &schedule);
        setups.push(t.unstolen());
        if let Err(e) = warm {
            out.error("warmup_lot", e.to_string());
        }
    }

    // The serial reference for the reference lot, untimed.
    let reference = run_lot(w, &LotEngine::serial(), reference_lot, &plan, &schedule);

    // Fresh operations walk the wafer in the seeded order; every fourth
    // operation re-screens the reference lot.
    let order = spec::wafer_order(args.seed);
    let mut fresh = 0usize;
    let mut ops: Vec<Op> = Vec::new();
    let cpu0 = host::cpu_seconds();
    let start = Stopwatch::start();
    while start.wall() < args.seconds.as_secs_f64() {
        let repeat = ops.len() % REPEAT_EVERY == REPEAT_EVERY - 1;
        let lot = if repeat {
            0
        } else {
            fresh += 1;
            order[(fresh - 1) % order.len()]
        };
        let t = Stopwatch::start();
        let result = run_lot(w, &engine, spec::wafer_lot(lot), &plan, &schedule);
        let (wall_ms, raw_ms) = (t.unstolen() * 1e3, t.wall() * 1e3);
        match result {
            Ok(report) => ops.push(Op {
                lot,
                repeat,
                wall_ms,
                raw_ms,
                report,
            }),
            Err(e) => out.error("lot", e.to_string()),
        }
    }
    let (window, raw_window) = (start.unstolen(), start.wall());
    let cpu = host::cpu_seconds() - cpu0;

    // Correctness, outside the timed window: every screening of the
    // reference lot against the serial engine, every other lot against
    // its first screening in this run.
    match &reference {
        Ok(r) => {
            let want = lot_json(r);
            let mut first: BTreeMap<u64, String> = BTreeMap::new();
            first.insert(0, want);
            for op in &ops {
                let got = lot_json(&op.report);
                let name = if op.lot == 0 {
                    "reference_lot_matches_serial"
                } else {
                    "rescreened_lot_matches_first"
                };
                match first.get(&op.lot) {
                    Some(bytes) => out.check(name, *bytes == got, format!("wafer lot {}", op.lot)),
                    None => {
                        out.attempted += 1;
                        first.insert(op.lot, got);
                    }
                }
            }
        }
        Err(e) => out.error("serial_reference", e.to_string()),
    }

    let devices: usize = ops.iter().map(|o| o.report.len()).sum();
    let spent: f64 = ops.iter().map(|o| o.report.spent().value()).sum();
    let retested: usize = ops.iter().map(|o| retests(&o.report)).sum();
    // Each wafer lot's latency is the median of its fresh screenings, so
    // the quantiles and the wafer throughput do not depend on which lots
    // the seeded order put into a run's last, partial pass.
    let mut by_lot: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for op in ops.iter().filter(|o| !o.repeat) {
        by_lot.entry(op.lot).or_default().push(op.wall_ms);
    }
    let lot_ms: Vec<f64> = by_lot.values().map(|v| stats::median(v)).collect();
    let repeat_ms: Vec<f64> = ops.iter().filter(|o| o.repeat).map(|o| o.wall_ms).collect();
    let raw_ms: Vec<f64> = ops.iter().filter(|o| !o.repeat).map(|o| o.raw_ms).collect();
    let per_device = |v: f64| {
        if devices == 0 {
            0.0
        } else {
            v / devices as f64
        }
    };
    let wafer_devices = (lot_ms.len() as u64 * spec::LOT_DEVICES) as f64;

    out.fact("lots", ops.len());
    out.fact("wafer_lots_screened", lot_ms.len());
    out.fact("reference_lot_rescreens", repeat_ms.len());
    out.fact("wafer_order", format!("{order:?}"));
    out.fact("devices", devices);
    out.fact("retests", retested);
    out.metric("setup_s", stats::median(&setups), "s");
    out.metric(
        "devices_per_s",
        wafer_devices / (lot_ms.iter().sum::<f64>() / 1e3),
        "devices/s",
    );
    out.metric("cpu_ms_per_device", per_device(cpu * 1e3), "ms");
    out.metric(
        "job_ms_p50",
        stats::quantile(&lot_ms, 0.5).unwrap_or(0.0),
        "ms",
    );
    out.metric(
        "job_ms_p90",
        stats::quantile(&lot_ms, 0.9).unwrap_or(0.0),
        "ms",
    );
    out.metric(
        "resume_ms_p50",
        stats::quantile(&repeat_ms, 0.5).unwrap_or(0.0),
        "ms",
    );
    out.metric("peak_rss_mb", host::peak_rss_mb(), "MiB");
    out.metric("sim_test_s_per_device", per_device(spent), "sim_s");
    out.metric("window_devices_per_s", devices as f64 / window, "devices/s");
    out.metric(
        "raw_window_devices_per_s",
        devices as f64 / raw_window,
        "devices/s",
    );
    out.metric("raw_job_ms_p50", stats::median(&raw_ms), "ms");
    out.metric("host_steal_share", 1.0 - window / raw_window, "share");
    out.metric("wall_s", raw_window, "s");
    out.metric("cpu_s", cpu, "s");
    out.metric(
        "cpu_utilisation",
        cpu / (window * args.threads as f64),
        "share",
    );
    out
}
