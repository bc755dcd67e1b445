//! Determinism guarantees of escalated lot runs: a parallel
//! `LotEngine::run_escalated` must be **bit-identical** to the serial
//! reference — same plots, same verdicts, same stage provenance, same
//! budget accounting, same error on failure — for both the ideal and the
//! seeded-CMOS analyzer profiles, across every stage of the schedule and
//! through the budget-exhausted early-stop path.
//!
//! The asserts use `PartialEq` on whole `LotReport`s, i.e. IEEE equality
//! on every `f64` field — no tolerances. The retest set at each stage is
//! a function of verdicts and budget arithmetic only (never of thread
//! completion order), so serial and parallel schedules execute the same
//! per-device instruction streams.

use dut::ActiveRcFilter;
use mixsig::units::{Hertz, Seconds};
use netan::{
    AnalyzerConfig, EscalationSchedule, GainMask, LotEngine, LotPlan, NetanError, SpecVerdict,
    SweepEngine,
};

fn paper_factory(sigma: f64) -> impl Fn(u64) -> ActiveRcFilter + Sync {
    move |seed| {
        ActiveRcFilter::paper_dut()
            .linearized()
            .fabricate(sigma, seed)
    }
}

fn paper_plan() -> LotPlan {
    LotPlan::from_mask(GainMask::paper_lowpass())
}

#[test]
fn parallel_escalated_matches_serial_ideal() {
    // σ = 9 % at a fast M = 30 screen leaves borderline parts ambiguous,
    // so the re-test stages genuinely run.
    let plan = paper_plan();
    let schedule = EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[30, 60, 120]);
    let seeds: Vec<u64> = (0..8).collect();
    let factory = paper_factory(0.09);

    let serial = LotEngine::serial()
        .run_escalated(&factory, &seeds, &plan, &schedule)
        .unwrap();
    let parallel = LotEngine::with_threads(8)
        .run_escalated(&factory, &seeds, &plan, &schedule)
        .unwrap();
    assert_eq!(serial, parallel);
    assert_eq!(serial.len(), seeds.len());
    // Device order is seed order, regardless of completion order.
    for (d, &seed) in serial.devices().iter().zip(&seeds) {
        assert_eq!(d.seed, seed);
    }
    // The schedule actually escalated someone (σ = 9 % at M = 30 leaves
    // ambiguity by construction) — otherwise this test proves nothing.
    assert!(
        serial.stages().len() > 1,
        "expected at least one re-test stage, got {:?}",
        serial.stages()
    );
    // A nested per-device point engine must not change the bits either.
    let nested = LotEngine::with_threads(3)
        .with_point_engine(SweepEngine::with_threads(2))
        .run_escalated(&factory, &seeds, &plan, &schedule)
        .unwrap();
    assert_eq!(serial, nested);

    // Against running every device at the deepest stage: verdict parity
    // exactly as far as the enclosure math guarantees it, at strictly
    // less simulated test time.
    let last = schedule.stages().len() - 1;
    let deep = LotEngine::with_threads(8)
        .run(&factory, &seeds, &plan, schedule.stages()[last])
        .unwrap();
    for (e, d) in serial.devices().iter().zip(deep.devices()) {
        if e.stage == last {
            // The identical measurement: the verdict matches bit for bit.
            assert_eq!(e.verdict, d.verdict, "seed {}", e.seed);
        } else {
            // Unbudgeted, so a device binned early is decided, and the
            // deep run — whose enclosure holds the same truth — may at
            // worst be ambiguous about it, never contradict it.
            assert_ne!(e.verdict, SpecVerdict::Ambiguous, "seed {}", e.seed);
            assert!(
                d.verdict == e.verdict || d.verdict == SpecVerdict::Ambiguous,
                "seed {}: binned {:?} at M = {}, deepest stage says {:?}",
                e.seed,
                e.verdict,
                e.periods,
                d.verdict
            );
        }
    }
    assert!(
        serial.spent() < deep.spent(),
        "escalation spent {:?}, not less than everyone at the deepest M ({:?})",
        serial.spent(),
        deep.spent()
    );
}

#[test]
fn parallel_escalated_matches_serial_with_seeded_cmos_noise() {
    // The CMOS profile exercises every seeded noise/mismatch source of
    // the analyzer's own hardware; determinism must survive both the
    // device fan-out and the per-stage recalibration.
    let plan = paper_plan();
    let schedule = EscalationSchedule::from_periods(AnalyzerConfig::cmos_035um(7), &[40, 80]);
    let seeds: Vec<u64> = (0..5).collect();
    let factory = paper_factory(0.06);

    let serial = LotEngine::serial()
        .run_escalated(&factory, &seeds, &plan, &schedule)
        .unwrap();
    let parallel = LotEngine::with_threads(8)
        .run_escalated(&factory, &seeds, &plan, &schedule)
        .unwrap();
    assert_eq!(serial, parallel);
}

#[test]
fn budget_exhausted_early_stop_is_deterministic() {
    // A budget that pays for the screening pass plus half a re-test:
    // the observed-cost ledger admits the lowest-seed ambiguous device
    // (re-tests are admitted while `spent < budget`, so the last one
    // may overshoot by its own charge), denies the rest, flags the
    // exhaustion, and does so identically under any schedule.
    let plan = paper_plan();
    let seeds: Vec<u64> = (0..6).collect();
    let factory = paper_factory(0.09);
    let free = EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[30, 90]);
    let c0 = free.device_stage_time(0, plan.grid()).value();
    let c1 = free.device_stage_time(1, plan.grid()).value();
    let budget = Seconds(seeds.len() as f64 * c0 + 0.5 * c1);
    let schedule = free.clone().with_budget(budget);

    let serial = LotEngine::serial()
        .run_escalated(&factory, &seeds, &plan, &schedule)
        .unwrap();
    let parallel = LotEngine::with_threads(6)
        .run_escalated(&factory, &seeds, &plan, &schedule)
        .unwrap();
    assert_eq!(serial, parallel);

    // The premise: more than one device needed a re-test.
    let ambiguous_after_screen = serial.stages()[0].counts.ambiguous;
    assert!(
        ambiguous_after_screen > 1,
        "need >1 ambiguous device to exercise the early stop, got {ambiguous_after_screen}"
    );
    // Exactly one affordable re-test, awarded in seed order.
    assert!(serial.budget_exhausted());
    assert_eq!(serial.stages().len(), 2);
    assert_eq!(serial.stages()[1].tested, 1);
    let escalated: Vec<u64> = serial
        .devices()
        .iter()
        .filter(|d| d.stage == 1)
        .map(|d| d.seed)
        .collect();
    let first_ambiguous = serial
        .devices()
        .iter()
        .find(|d| d.verdict == SpecVerdict::Ambiguous || d.stage == 1)
        .map(|d| d.seed)
        .unwrap();
    assert_eq!(escalated, vec![first_ambiguous]);
    // The admitted re-test overshoots the budget by at most its own
    // observed charge — never more.
    assert!(serial.spent().value() <= budget.value() + c1 + 1e-12);

    // The free-running schedule on the same lot re-tests every
    // ambiguous device — the budget is the only thing holding back.
    let unbounded = LotEngine::serial()
        .run_escalated(&factory, &seeds, &plan, &free)
        .unwrap();
    assert!(!unbounded.budget_exhausted());
    assert_eq!(unbounded.stages()[1].tested, ambiguous_after_screen);
}

#[test]
fn budget_below_screening_pass_is_rejected_before_simulation() {
    let plan = paper_plan();
    let schedule = EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[30, 90])
        .with_budget(Seconds(1e-3));
    let err = LotEngine::serial()
        .run_escalated(paper_factory(0.0), &[0, 1, 2], &plan, &schedule)
        .unwrap_err();
    assert!(
        matches!(err, NetanError::BudgetExhausted { .. }),
        "expected BudgetExhausted, got {err:?}"
    );
}

#[test]
fn lowest_index_device_error_wins_under_any_schedule() {
    // Seeds 2 and 5 fabricate into devices with a NaN pole — not
    // simulable. Serial and parallel escalated runs must both report the
    // lowest-index failing device, exactly as an in-order run would.
    let plan = paper_plan();
    let schedule = EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[30, 60]);
    let seeds: Vec<u64> = (0..8).collect();
    let factory = |seed: u64| {
        if seed == 2 || seed == 5 {
            ActiveRcFilter::new(Hertz(f64::NAN), 0.7, 1.0)
        } else {
            ActiveRcFilter::paper_dut()
                .linearized()
                .fabricate(0.05, seed)
        }
    };
    let expected = NetanError::DeviceNotSimulable { seed: 2 };

    for engine in [
        LotEngine::serial(),
        LotEngine::with_threads(8),
        LotEngine::with_threads(3).with_point_engine(SweepEngine::with_threads(2)),
    ] {
        assert_eq!(
            engine
                .run_escalated(factory, &seeds, &plan, &schedule)
                .unwrap_err(),
            expected,
            "{engine:?}"
        );
    }
}

#[test]
fn adaptive_plan_escalates_on_the_observed_ledger() {
    // Regression: escalating over an adaptive plan used to be rejected
    // with a typed error (and before that, a documented panic). The
    // observed-cost ledger charges each device's actual measurement
    // time, so device-dependent adaptive grids now escalate — slices
    // and ranges alike, serial bit-identical to parallel.
    let plan = LotPlan::adaptive(
        &[],
        GainMask::paper_lowpass(),
        netan::RefinementPolicy::default(),
    );
    let schedule = EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[30, 90]);
    let factory = paper_factory(0.09);
    let seeds: Vec<u64> = (0..4).collect();

    let serial = LotEngine::serial()
        .run_escalated(&factory, &seeds, &plan, &schedule)
        .unwrap();
    let parallel = LotEngine::with_threads(4)
        .run_escalated(&factory, &seeds, &plan, &schedule)
        .unwrap();
    assert_eq!(serial, parallel);
    assert!(
        serial.stages().len() > 1,
        "expected a re-test stage, got {:?}",
        serial.stages()
    );
    // Adaptive grids are device-dependent: no uniform per-device stage
    // cost, and each stage's time is exactly the seed-order fold of the
    // devices' observed per-stage charges.
    for (s, summary) in serial.stages().iter().enumerate() {
        assert_eq!(summary.device_time, None);
        let fold = serial
            .devices()
            .iter()
            .filter(|d| d.stage_times.len() > s)
            .fold(Seconds(0.0), |acc, d| acc + d.stage_times[s]);
        assert_eq!(summary.time, fold);
    }
    // The range variant agrees device for device and stage for stage
    // (it additionally attaches the shard span).
    let ranged = LotEngine::serial()
        .run_escalated_range(&factory, 0..4, &plan, &schedule)
        .unwrap();
    assert_eq!(ranged.devices(), serial.devices());
    assert_eq!(ranged.stages(), serial.stages());
}

#[test]
fn escalated_shard_partition_merges_to_the_monolithic_report() {
    // Sharding an unbudgeted escalated lot and merging the parts must
    // reproduce the monolithic run bit for bit — stage summaries,
    // carry-forward counts, spent time, everything. (Budgeted schedules
    // gate on the global lot prefix, so they are exempt by design; see
    // the sharding notes in `netan::lot`.)
    let plan = paper_plan();
    let schedule = EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[30, 90]);
    let factory = paper_factory(0.09);
    let engine = LotEngine::serial();

    let whole = engine
        .run_escalated_range(&factory, 0..6, &plan, &schedule)
        .unwrap();
    // The premise: some shard escalates and some does not, so the merge
    // exercises the stage carry-forward path.
    assert!(whole.stages().len() > 1);

    let merged = [0..2u64, 2..4, 4..6]
        .into_iter()
        .map(|r| {
            engine
                .run_escalated_range(&factory, r, &plan, &schedule)
                .unwrap()
        })
        .reduce(netan::LotReport::merge)
        .unwrap();
    assert_eq!(merged, whole);
    assert_eq!(netan::lot_json(&merged), netan::lot_json(&whole));
}

#[test]
fn single_stage_schedule_equals_plain_run() {
    // A one-stage schedule is exactly `run` with that stage's config —
    // same devices, same provenance, same stage summary, bit for bit.
    let plan = paper_plan();
    let config = AnalyzerConfig::ideal().with_periods(50);
    let seeds: Vec<u64> = (0..4).collect();
    let factory = paper_factory(0.05);

    let plain = LotEngine::serial()
        .run(&factory, &seeds, &plan, config)
        .unwrap();
    let escalated = LotEngine::serial()
        .run_escalated(
            &factory,
            &seeds,
            &plan,
            &EscalationSchedule::new(vec![config]),
        )
        .unwrap();
    // Identical except for the (None, false) budget bookkeeping both
    // carry by default.
    assert_eq!(plain, escalated);
}
