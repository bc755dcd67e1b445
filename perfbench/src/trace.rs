//! The traced run (`--trace 1`): per-layer costs measured with spans
//! recorded around calls into each layer's public functions.
//!
//! Spans carry a name, start, end, parent span and operation id; they stay
//! in memory and are written out at the end. The run has seven parts:
//!
//! * **A** real lot operations, untraced, for the pool's busy share and the
//!   exact re-test/sample counts (`serve_tcp` takes these from part B);
//! * **B** a closed-loop TCP probe with the workload's job, for the
//!   client-observed splits;
//! * **C** shared calibrations;
//! * **D** replica devices — the engine's per-device path rebuilt from
//!   `NetworkAnalyzer::measure_point_calibrated`, `LotPlan::classify_plot`
//!   and `BodePlot::fit_lowpass_biquad` — each run untraced and traced
//!   (the difference is `trace.overhead_share`) and checked against the
//!   engine's report;
//! * **E** sampled Bode points decomposed into generator, DUT, board and
//!   evaluator time by replaying the acquisition through `DemoBoard` and
//!   through a generator + DUT pair;
//! * **F** the noise, modulator and square-wave kernels;
//! * **G** (run before D) the job path of `netan-serve`: shards, merge, checkpoints,
//!   `lot_json` and frames.

use crate::lots::{retests, run_lot};
use crate::spec::{self, Workload, JOB_DEVICES, LOT_DEVICES};
use crate::stats::median;
use crate::tcp::{self, Rig};
use crate::{host, Args, Outcome};
use ate::DemoBoard;
use dut::Dut;
use mixsig::clock::MasterClock;
use mixsig::units::Hertz;
use mixsig::NoiseSource;
use netan::sweep::unwrap_phase_by_continuity;
use netan::{
    lot_json, parse_lot_json, AnalyzerConfig, BodePlot, Calibration, DeviceReport, HardwareProfile,
    LotCheckpoint, LotEngine, LotPlan, LotReport, LowpassFit, NetanError, NetworkAnalyzer,
    SpecVerdict,
};
use netan_serve::{ClientFrame, ServerFrame};
use sdeval::{
    BlockSource, EvaluatorConfig, HarmonicMeasurement, QuadratureSquareWave, SigmaDeltaModulator,
    SinewaveEvaluator,
};
use sigen::{GeneratorConfig, SinewaveGenerator};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Master-clock samples per stimulus period.
const N: usize = 96;
/// Replica devices timed untraced and traced.
const REPLICA_DEVICES: usize = 24;
/// Replica devices whose points are decomposed into layers.
const DECOMPOSED_DEVICES: usize = 3;
/// Repetitions of each decomposed point.
const POINT_REPS: u64 = 6;
/// Calibrations timed.
const CALIBRATIONS: u64 = 5;
/// Jobs replayed through the service's job path.
const PATH_JOBS: u64 = 3;
/// Repetitions of each pure render/parse call in the job path.
const CODEC_REPS: u64 = 10;
/// Noise draws and kernel samples timed in part F.
const KERNEL_SAMPLES: usize = 1 << 20;
/// Largest relative gap the accounting checks allow.
const ACCOUNTING_TOLERANCE: f64 = 0.10;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// An in-memory span recorder for one thread. A disabled tracer runs the
/// closure and records nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` for operation `op`.
    pub fn span<T>(&self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                op,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.stack.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[idx].start_ns = start;
        spans[idx].end_ns = end;
        out
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Total duration (ns) of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Total self time (ns: duration minus child spans) of every span
    /// named `name`.
    pub fn self_total(&self, name: &str) -> f64 {
        let spans = self.spans.borrow();
        let mut child = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        spans
            .iter()
            .zip(&child)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64)
            .sum()
    }

    /// Total duration (ns) of the spans named `name` per operation id;
    /// with `self_time`, minus their child spans.
    pub fn per_op(&self, name: &str, self_time: bool) -> BTreeMap<u64, f64> {
        let spans = self.spans.borrow();
        let mut child = vec![0u64; spans.len()];
        if self_time {
            for s in spans.iter() {
                if let Some(p) = s.parent {
                    child[p] += s.end_ns - s.start_ns;
                }
            }
        }
        let mut out = BTreeMap::new();
        for (s, &c) in spans.iter().zip(&child).filter(|(s, _)| s.name == name) {
            *out.entry(s.op).or_insert(0.0) += (s.end_ns - s.start_ns).saturating_sub(c) as f64;
        }
        out
    }

    /// Median duration of spans named `name`, in ns.
    pub fn median(&self, name: &str) -> f64 {
        median(&self.durations(name))
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for s in self.spans.borrow().iter() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// The exact layer counts of a set of reports.
#[derive(Debug, Default)]
struct Counts {
    devices: usize,
    retests: usize,
    retested_decided: usize,
    retested_devices: usize,
    samples: u64,
}

impl Counts {
    fn add(&mut self, report: &LotReport, plan: &LotPlan) {
        self.devices += report.len();
        self.retests += retests(report);
        for d in report.devices().iter().filter(|d| d.stage > 0) {
            self.retested_devices += 1;
            self.retested_decided += usize::from(d.verdict != SpecVerdict::Ambiguous);
        }
        let points = plan.grid().len() as u64;
        self.samples += report
            .stages()
            .iter()
            .map(|s| s.tested as u64 * points * 2 * u64::from(s.periods) * N as u64)
            .sum::<u64>();
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn generator_config(config: &AnalyzerConfig, f: Hertz) -> GeneratorConfig {
    let clk = MasterClock::for_stimulus(f);
    match config.hardware {
        HardwareProfile::Ideal => GeneratorConfig::ideal(clk, config.va_diff),
        HardwareProfile::Cmos035um { seed } => {
            GeneratorConfig::cmos_035um(clk, config.va_diff, seed)
        }
    }
}

fn evaluator_config(config: &AnalyzerConfig) -> EvaluatorConfig {
    let base = match config.hardware {
        HardwareProfile::Ideal => EvaluatorConfig::ideal(),
        HardwareProfile::Cmos035um { seed } => EvaluatorConfig::cmos_035um(seed),
    };
    base.with_block_samples(config.block_samples)
}

/// FNV-1a over sample bits, to prove two acquisition replays produced the
/// same stream.
fn fold_checksum(mut h: u64, samples: &[f64]) -> u64 {
    for s in samples {
        h ^= s.to_bits();
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const CHECKSUM_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// The board as the evaluator's block source, timing each block it
/// delivers.
struct TracedBoard<'a> {
    board: DemoBoard,
    tracer: &'a Tracer,
    op: u64,
    checksum: u64,
    capture: Option<&'a mut Vec<f64>>,
}

impl BlockSource for TracedBoard<'_> {
    fn fill_block(&mut self, out: &mut [f64]) {
        let board = &mut self.board;
        self.tracer
            .span("ate.fill_block", self.op, || board.fill_block(out));
        let (checksum, capture) = (&mut self.checksum, &mut self.capture);
        self.tracer.span("bench.bookkeeping", self.op, || {
            *checksum = fold_checksum(*checksum, out);
            if let Some(c) = capture.as_deref_mut() {
                c.extend_from_slice(out);
            }
        });
    }
}

/// Pass B: one acquisition through the real `DemoBoard` and
/// `SinewaveEvaluator`, exactly as `NetworkAnalyzer` drives it.
fn board_point(
    tr: &Tracer,
    op: u64,
    device: &dyn Dut,
    config: &AnalyzerConfig,
    f: Hertz,
    capture: Option<&mut Vec<f64>>,
) -> Result<(HarmonicMeasurement, u64), NetanError> {
    let gen_cfg = generator_config(config, f);
    let mut board = tr.span("ate.board_new", op, || DemoBoard::new(gen_cfg, device));
    let warmup = config.warmup_periods as usize;
    tr.span("ate.warm_up", op, || board.warm_up(warmup));
    let mut evaluator = tr.span("sdeval.evaluator_new", op, || {
        SinewaveEvaluator::new(evaluator_config(config))
    });
    let mut source = TracedBoard {
        board,
        tracer: tr,
        op,
        checksum: CHECKSUM_SEED,
        capture,
    };
    let m = tr.span("sdeval.measure_harmonic_blocks", op, || {
        evaluator.measure_harmonic_blocks(&mut source, 1, config.periods)
    })?;
    Ok((m, source.checksum))
}

/// Pass S: the same acquisition stream from a generator and a DUT
/// simulator driven directly, so their costs can be told apart.
fn split_point(tr: &Tracer, op: u64, device: &dyn Dut, config: &AnalyzerConfig, f: Hertz) -> u64 {
    let gen_cfg = generator_config(config, f);
    let fs = gen_cfg.master_clock.frequency();
    let mut generator = tr.span("sigen.new", op, || SinewaveGenerator::new(gen_cfg));
    let mut sim = tr.span("dut.instantiate", op, || device.instantiate(fs));
    let window = config.periods as usize * N;
    let block = config.block_samples.clamp(1, window);
    let mut stim = vec![0.0; block.max(N)];
    let mut out = vec![0.0; block.max(N)];
    let mut step = |len: usize, stim: &mut [f64], out: &mut [f64]| {
        tr.span("sigen.fill_block", op, || {
            generator.fill_block(&mut stim[..len])
        });
        tr.span("dut.process_block", op, || {
            sim.process_block(&stim[..len], &mut out[..len])
        });
    };
    for _ in 0..config.warmup_periods {
        step(N, &mut stim, &mut out);
    }
    let mut checksum = CHECKSUM_SEED;
    // Chopped acquisition: two windows of `M·N` samples.
    for _ in 0..2 {
        let mut t = 0;
        while t < window {
            let len = block.min(window - t);
            step(len, &mut stim, &mut out);
            tr.span("bench.bookkeeping", op, || {
                checksum = fold_checksum(checksum, &out[..len]);
            });
            t += len;
        }
    }
    checksum
}

type ReplicaDevice = (BodePlot, SpecVerdict, Option<LowpassFit>);

/// The engine's per-device path at the screening stage, from public
/// calls: fabricate, validate, measure every grid point, unwrap, classify,
/// fit.
fn replica_device(
    tr: &Tracer,
    w: Workload,
    seed: u64,
    plan: &LotPlan,
    config: AnalyzerConfig,
    cal: Calibration,
) -> Result<ReplicaDevice, NetanError> {
    tr.span("netan.device", seed, || {
        let device = w.factory()(seed);
        for &f in plan.grid() {
            let r = device.ideal_response(f);
            if !r.magnitude.is_finite() || !r.phase.is_finite() {
                return Err(NetanError::DeviceNotSimulable { seed });
            }
        }
        let analyzer = NetworkAnalyzer::new(&device, config);
        let mut points = Vec::with_capacity(plan.grid().len());
        for &f in plan.grid() {
            points.push(tr.span("netan.measure_point", seed, || {
                analyzer.measure_point_calibrated(cal, f)
            })?);
        }
        unwrap_phase_by_continuity(&mut points);
        let plot = BodePlot::new(points);
        let verdict = tr.span("netan.classify", seed, || plan.classify_plot(plot.points()))?;
        let fit = tr.span("netan.fit", seed, || plot.fit_lowpass_biquad());
        Ok((plot, verdict, fit))
    })
}

/// Part F: the noise, modulator and square-wave kernels on the
/// workload's profile. `window` is one captured acquisition window of
/// board output.
fn kernels(tr: &Tracer, seed: u64, config: &AnalyzerConfig, window: &[f64]) -> (f64, f64, f64) {
    let mut noise = NoiseSource::new(seed ^ 0xA5A5);
    let mut draws = vec![0.0; 1024];
    let mut drawn = 0;
    while drawn < KERNEL_SAMPLES {
        tr.span("mixsig.fill_gaussian", 0, || {
            noise.fill_gaussian(1.0, &mut draws)
        });
        black_box(&draws);
        drawn += draws.len();
    }
    let gaussian = tr.total("mixsig.fill_gaussian") / drawn as f64;

    let eval = evaluator_config(config);
    let block = eval.block_samples.clamp(1, window.len().max(1));
    let sq = QuadratureSquareWave::new(1, eval.n).ok();
    let mut q1 = vec![false; block];
    let mut q2 = vec![false; block];
    let mut samples = 0usize;
    // The in-phase modulator, seeded as the evaluator seeds it.
    let mut sdm_cfg = eval.sdm.clone();
    sdm_cfg.seed = eval.sdm.seed.wrapping_mul(2).wrapping_add(1);
    let mut modulator = SigmaDeltaModulator::new(sdm_cfg);
    if let (Some(sq), false) = (sq, window.is_empty()) {
        while samples < KERNEL_SAMPLES {
            let mut t = 0usize;
            while t < window.len() {
                let len = block.min(window.len() - t);
                tr.span("sdeval.squarewave", 0, || {
                    for (j, (b1, b2)) in q1[..len].iter_mut().zip(&mut q2[..len]).enumerate() {
                        let s = (t + j) as u64;
                        *b1 = sq.in_phase(s) > 0;
                        *b2 = sq.quadrature(s) > 0;
                    }
                });
                black_box((&q1, &q2));
                let x = &window[t..t + len];
                let q = &q1[..len];
                let acc = tr.span("sdeval.modulator", 0, || modulator.process_block(x, q));
                black_box(acc);
                samples += len;
                t += len;
            }
        }
    }
    (
        gaussian,
        ratio(tr.total("sdeval.modulator"), samples as f64),
        ratio(tr.total("sdeval.squarewave"), samples as f64),
    )
}

/// Part G: one job's trip through the service's code path, replayed with
/// spans. The shards' in-process device reports are added to `seen`.
fn job_path(
    tr: &Tracer,
    out: &mut Outcome,
    seen: &mut BTreeMap<u64, DeviceReport>,
    w: Workload,
    seed: u64,
    j: u64,
    state: &Path,
) {
    let plan = spec::plan();
    let range = spec::op_range(seed, 7, j, JOB_DEVICES);
    let job = w.job(range.clone());
    let submit = ClientFrame::Submit(Box::new(job.clone())).render();
    for _ in 0..CODEC_REPS {
        let parsed = tr.span("serve.server_frame_parse", j, || {
            ClientFrame::parse(&submit)
        });
        if !matches!(parsed, Ok(ClientFrame::Submit(ref p)) if **p == job) {
            out.check("submit_frame_round_trip", false, format!("job {j}"));
            return;
        }
    }
    let mut shards = Vec::new();
    for span in job.spans() {
        let shard = tr.span("serve.shard", j, || {
            LotEngine::serial().run_escalated_range(w.factory(), span.clone(), &plan, &job.schedule)
        });
        match shard {
            Ok(r) => shards.push((span, r)),
            Err(e) => {
                out.error("shard", e.to_string());
                return;
            }
        }
    }
    let ckpt = LotCheckpoint::new(state.join(format!("job-{j}")), 1);
    for (span, report) in &shards {
        if let Err(e) = tr.span("netan.checkpoint.persist", j, || {
            ckpt.persist_shard(span, report)
        }) {
            out.error("checkpoint_persist", e.to_string());
            return;
        }
        let loaded = tr.span("netan.checkpoint.load", j, || ckpt.load_shard(span, &plan));
        let same = loaded.is_some_and(|l| lot_json(&l) == lot_json(report));
        out.check("checkpoint_round_trip", same, format!("seeds {span:?}"));
    }
    for (_, report) in &shards {
        for d in report.devices() {
            seen.entry(d.seed).or_insert_with(|| d.clone());
        }
    }
    let mut merged = LotReport::empty(&plan);
    for (_, report) in shards {
        merged = tr.span("netan.merge", j, || merged.merge(report));
    }
    let mut text = String::new();
    for _ in 0..CODEC_REPS {
        text = tr.span("netan.lot_json", j, || lot_json(&merged));
    }
    for _ in 0..CODEC_REPS {
        let parsed = tr.span("netan.parse_lot_json", j, || parse_lot_json(&text));
        if !parsed.is_ok_and(|p| lot_json(&p) == text) {
            out.check("lot_json_round_trip", false, format!("job {j}"));
            return;
        }
    }
    let finished = ServerFrame::Finished {
        job: j,
        report: Box::new(merged.clone()),
    };
    let mut frame = String::new();
    for _ in 0..CODEC_REPS {
        frame = tr.span("serve.server_frame_render", j, || finished.render());
    }
    for _ in 0..CODEC_REPS {
        let parsed = tr.span("serve.client_frame_parse", j, || ServerFrame::parse(&frame));
        if !matches!(parsed, Ok(ServerFrame::Finished { ref report, .. }) if lot_json(report) == text)
        {
            out.check("result_frame_round_trip", false, format!("job {j}"));
            return;
        }
    }
    let mono =
        LotEngine::serial().run_escalated_range(w.factory(), range.clone(), &plan, &job.schedule);
    match mono {
        Ok(m) => out.check(
            "job_path_matches_monolithic",
            lot_json(&m) == text,
            format!("seeds {range:?}"),
        ),
        Err(e) => out.error("monolithic_reference", e.to_string()),
    }
}

pub fn run(args: &Args) -> Outcome {
    let w = args.workload;
    let seed = args.seed;
    let mut out = Outcome::default();
    let plan = spec::plan();
    let schedule = w.schedule();
    let config = w.screening_config();
    let tr = Tracer::new(true);
    let part_budget = args.seconds / 3;
    let mut counts = Counts::default();
    let mut seen: BTreeMap<u64, DeviceReport> = BTreeMap::new();
    let mut busy_share = 0.0;

    // A: real lots, untraced.
    if w != Workload::ServeTcp {
        let engine = LotEngine::with_threads(args.threads);
        if let Err(e) = run_lot(w, &engine, spec::wafer_lot(0), &plan, &schedule) {
            out.error("warmup_lot", e.to_string());
        }
        let order = spec::wafer_order(seed);
        let (mut cpu, mut wall) = (0.0, 0.0);
        let start = Instant::now();
        let mut k = 0usize;
        while k < 2 || start.elapsed() < part_budget {
            let range = spec::wafer_lot(order[k % order.len()]);
            let cpu0 = host::cpu_seconds();
            let t = Instant::now();
            let lot = run_lot(w, &engine, range, &plan, &schedule);
            wall += t.elapsed().as_secs_f64();
            cpu += host::cpu_seconds() - cpu0;
            match lot {
                Ok(report) => {
                    out.attempted += 1;
                    counts.add(&report, &plan);
                    if k == 0 {
                        seen.extend(report.devices().iter().map(|d| (d.seed, d.clone())));
                    }
                }
                Err(e) => out.error("lot", e.to_string()),
            }
            k += 1;
        }
        busy_share = ratio(cpu, wall * args.threads as f64);
        out.fact("traced_lots", k);
    }

    // B: the TCP probe with the workload's own job.
    let mut job_ms = Vec::new();
    let mut resubmitted_share = 0.0;
    match Rig::start(args.threads, &args.state_dir.join("probe")) {
        Ok(mut rig) => {
            let warm = spec::warmup_range(seed, 0, JOB_DEVICES);
            if let Err(e) = rig.clients[0].run_job(&w.job(warm)) {
                out.error("warmup_job", e);
            }
            let (budget, max_jobs) = match w {
                Workload::ServeTcp => (part_budget, None),
                _ => (Duration::from_secs(3600), Some(4)),
            };
            let result = tcp::closed_loop(&mut rig, w, seed, budget, max_jobs);
            rig.stop();
            tcp::check_jobs(&mut out, &result, w);
            let ms = |d: Duration| d.as_secs_f64() * 1e3;
            let split = |f: &dyn Fn(&tcp::JobTiming) -> f64| {
                median(&result.jobs.iter().map(|r| f(&r.timing)).collect::<Vec<_>>())
            };
            out.metric("serve.accept.ms", split(&|t| ms(t.accepted)), "ms");
            out.metric(
                "serve.first_progress.ms",
                split(&|t| ms(t.first_progress)),
                "ms",
            );
            out.metric(
                "serve.finish_tail.ms",
                split(&|t| ms(t.result.saturating_sub(t.last_progress))),
                "ms",
            );
            job_ms = result.jobs.iter().map(|r| ms(r.timing.result)).collect();
            resubmitted_share = ratio(
                result.jobs.iter().filter(|r| r.repeat_of.is_some()).count() as f64,
                result.jobs.len() as f64,
            );
            if w == Workload::ServeTcp {
                busy_share = ratio(result.cpu, result.wall * args.threads as f64);
                for r in result.jobs.iter().filter(|r| r.repeat_of.is_none()) {
                    counts.add(&r.report, &plan);
                }
            }
            out.fact("probe_jobs", result.jobs.len());
        }
        Err(e) => out.error("probe_setup", e),
    }

    // C: shared calibrations.
    let mut cal = None;
    for i in 0..CALIBRATIONS {
        match tr.span("netan.calibrate", i, || {
            LotEngine::shared_calibration(config)
        }) {
            Ok(c) => cal = Some(c),
            Err(e) => out.error("calibrate", e.to_string()),
        }
    }
    let Some(cal) = cal else {
        return out;
    };

    // G: the service's job path, replayed in process. Its shard reports
    // are the engine reference for `serve_tcp`'s replica devices (reports
    // parsed from frames do not carry the linear gain).
    let path_state = args.state_dir.join("job-path");
    for j in 0..PATH_JOBS {
        out.attempted += 1;
        job_path(&tr, &mut out, &mut seen, w, seed, j, &path_state);
    }

    // D: replica devices, untraced then traced, checked against the
    // engine's screening-stage reports.
    let untraced = Tracer::new(false);
    let replica_seeds: Vec<u64> = seen
        .values()
        .filter(|d| d.stage == 0)
        .map(|d| d.seed)
        .take(REPLICA_DEVICES)
        .collect();
    let (mut plain_ns, mut traced_ns) = (0.0, 0.0);
    for &s in &replica_seeds {
        let t = Instant::now();
        let _ = replica_device(&untraced, w, s, &plan, config, cal);
        plain_ns += t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        let replica = replica_device(&tr, w, s, &plan, config, cal);
        traced_ns += t.elapsed().as_nanos() as f64;
        match (replica, seen.get(&s)) {
            (Ok((plot, verdict, fit)), Some(d)) => out.check(
                "replica_device_matches_engine",
                plot == d.plot && verdict == d.verdict && fit == d.fit,
                format!("seed {s}"),
            ),
            (Err(e), _) => out.error("replica_device", e.to_string()),
            (Ok(_), None) => out.check("replica_device_matches_engine", false, "no engine report"),
        }
    }
    let device_total = tr.total("netan.device");
    let device_ratio = ratio(device_total - tr.self_total("netan.device"), device_total);
    out.check(
        "device_accounting",
        (device_ratio - 1.0).abs() <= ACCOUNTING_TOLERANCE,
        format!("points + classify + fit = {device_ratio:.4} of netan.device"),
    );

    // E: sampled points decomposed into layers.
    let mut window = Vec::new();
    let mut decomposed_points = 0u64;
    for &s in replica_seeds.iter().take(DECOMPOSED_DEVICES) {
        let device = w.factory()(s);
        let analyzer = NetworkAnalyzer::new(&device, config);
        for &f in plan.grid() {
            for rep in 0..POINT_REPS {
                let op = s.wrapping_mul(16).wrapping_add(rep);
                let lib = tr.span("layers.library_point", op, || {
                    analyzer.measure_point_calibrated(cal, f)
                });
                let capture = window.is_empty().then_some(&mut window);
                let board = tr.span("layers.board_point", op, || {
                    board_point(&tr, op, &device, &config, f, capture)
                });
                let split = tr.span("layers.split_point", op, || {
                    split_point(&tr, op, &device, &config, f)
                });
                decomposed_points += 1;
                match (lib, board) {
                    (Ok(p), Ok((m, checksum))) => out.check(
                        "layer_replay_matches_library",
                        m.amplitude.ratio(&cal.amplitude) == p.gain && checksum == split,
                        format!("seed {s} at {} Hz", f.value()),
                    ),
                    (Err(e), _) | (_, Err(e)) => out.error("layer_replay", e.to_string()),
                }
            }
        }
    }
    // Keep the first acquisition window only (one chop phase).
    window.truncate(config.periods as usize * N);
    let fill_samples = decomposed_points as f64
        * ((config.warmup_periods as usize + 2 * config.periods as usize) * N) as f64;
    let eval_samples = decomposed_points as f64 * (2 * config.periods as usize * N) as f64;
    let sigen_fill = tr.total("sigen.fill_block");
    let dut_fill = tr.total("dut.process_block");
    let ate_fill = tr.total("ate.fill_block") + tr.total("ate.warm_up");
    // Self time excludes the board's blocks and the benchmark's own
    // checksum bookkeeping, both child spans.
    let eval_self = tr.self_total("sdeval.measure_harmonic_blocks");
    // The layers are compared with the library point operation by
    // operation (one device's grid at one repetition; the two run back to
    // back) and the median ratio is checked, so a burst of host contention
    // during one point moves one ratio, not the check.
    let layer_parts: Vec<BTreeMap<u64, f64>> = [
        ("ate.fill_block", false),
        ("ate.warm_up", false),
        ("ate.board_new", false),
        ("sdeval.measure_harmonic_blocks", true),
        ("sdeval.evaluator_new", false),
    ]
    .iter()
    .map(|&(name, self_time)| tr.per_op(name, self_time))
    .collect();
    let point_ratios: Vec<f64> = tr
        .per_op("layers.library_point", false)
        .iter()
        .map(|(op, &library)| {
            let layers: f64 = layer_parts
                .iter()
                .map(|part| part.get(op).copied().unwrap_or(0.0))
                .sum();
            ratio(layers, library)
        })
        .collect();
    let point_ratio = median(&point_ratios);
    out.check(
        "point_accounting",
        (point_ratio - 1.0).abs() <= ACCOUNTING_TOLERANCE,
        format!(
            "sigen + dut + ate self + sdeval self = {point_ratio:.4} of \
             netan.measure_point (median of {} operations)",
            point_ratios.len()
        ),
    );

    // F: kernels.
    let (gaussian, modulator, squarewave) = kernels(&tr, seed, &config, &window);

    // Shares of the workload's own operation. The lot workloads calibrate
    // once per lot and never touch checkpoints or frames.
    let us = |name: &str| tr.median(name) / 1e3;
    let ms = |name: &str| tr.median(name) / 1e6;
    let calibrations_per_device = match w {
        Workload::ServeTcp => 1.0,
        _ => 1.0 / LOT_DEVICES as f64,
    };
    let job_p50 = median(&job_ms);
    let (checkpoint_share, frames_share) = match w {
        Workload::ServeTcp => {
            let per_job_ms = JOB_DEVICES as f64
                * ((1.0 - resubmitted_share) * ms("netan.checkpoint.persist")
                    + resubmitted_share * ms("netan.checkpoint.load"));
            let frames_ms = (us("serve.server_frame_parse")
                + us("serve.server_frame_render")
                + us("serve.client_frame_parse"))
                / 1e3;
            (ratio(per_job_ms, job_p50), ratio(frames_ms, job_p50))
        }
        _ => (0.0, 0.0),
    };

    out.metric("mixsig.fill_gaussian.ns_per_draw", gaussian, "ns");
    out.metric(
        "sigen.fill_block.ns_per_sample",
        ratio(sigen_fill, fill_samples),
        "ns",
    );
    out.metric(
        "dut.process_block.ns_per_sample",
        ratio(dut_fill, fill_samples),
        "ns",
    );
    out.metric(
        "ate.fill_block.ns_per_sample",
        ratio(ate_fill - sigen_fill - dut_fill, fill_samples),
        "ns",
    );
    out.metric(
        "sdeval.evaluator_self.ns_per_sample",
        ratio(eval_self, eval_samples),
        "ns",
    );
    out.metric("sdeval.modulator.ns_per_sample", modulator, "ns");
    out.metric("sdeval.squarewave.ns_per_sample", squarewave, "ns");
    out.metric("netan.calibrate.ms", ms("netan.calibrate"), "ms");
    out.metric("netan.measure_point.ms", ms("netan.measure_point"), "ms");
    out.metric("netan.device.ms", ms("netan.device"), "ms");
    out.metric("netan.classify.us", us("netan.classify"), "us");
    out.metric("netan.fit.us", us("netan.fit"), "us");
    out.metric(
        "netan.calibrate.device_share",
        ratio(
            calibrations_per_device * ms("netan.calibrate"),
            ms("netan.device"),
        ),
        "share",
    );
    out.metric("netan.pool.busy_share", busy_share, "share");
    out.metric(
        "netan.lot.retests_per_device",
        ratio(counts.retests as f64, counts.devices as f64),
        "count",
    );
    out.metric(
        "netan.lot.retest_decided_share",
        ratio(
            counts.retested_decided as f64,
            counts.retested_devices as f64,
        ),
        "share",
    );
    out.metric(
        "netan.lot.samples_per_device",
        ratio(counts.samples as f64, counts.devices as f64),
        "count",
    );
    out.metric("netan.merge.us", us("netan.merge"), "us");
    out.metric("netan.lot_json.us", us("netan.lot_json"), "us");
    out.metric("netan.parse_lot_json.us", us("netan.parse_lot_json"), "us");
    out.metric(
        "netan.checkpoint.persist_ms",
        ms("netan.checkpoint.persist"),
        "ms",
    );
    out.metric(
        "netan.checkpoint.load_ms",
        ms("netan.checkpoint.load"),
        "ms",
    );
    out.metric("netan.checkpoint.job_share", checkpoint_share, "share");
    out.metric("serve.shard.ms", ms("serve.shard"), "ms");
    out.metric(
        "serve.client_frame_parse.us",
        us("serve.client_frame_parse"),
        "us",
    );
    out.metric(
        "serve.server_frame_render.us",
        us("serve.server_frame_render"),
        "us",
    );
    out.metric(
        "serve.server_frame_parse.us",
        us("serve.server_frame_parse"),
        "us",
    );
    out.metric("serve.frames.job_share", frames_share, "share");
    out.metric("trace.point_accounting_ratio", point_ratio, "ratio");
    out.metric("trace.device_accounting_ratio", device_ratio, "ratio");
    out.metric(
        "trace.overhead_share",
        ratio(traced_ns - plain_ns, plain_ns),
        "share",
    );
    out.fact("replica_devices", replica_seeds.len());
    out.fact("decomposed_points", decomposed_points);
    out.fact("analyzer_periods", config.periods);
    out.fact("spans", tr.spans.borrow().len());

    let spans_path = Path::new(".perfbench_run").join("results").join(format!(
        "{}-seed{}-spans.jsonl",
        w.name(),
        seed
    ));
    if let Err(e) = tr.write_jsonl(&spans_path) {
        eprintln!("perfbench: could not write spans: {e}");
    }
    out
}
