//! The `serve_tcp` workload: an in-process `JobServer` on 127.0.0.1 and
//! closed-loop `netan.job.v1` clients, every fourth job resubmitting one
//! of the client's earlier jobs so it resumes from checkpoints.
//!
//! Every wall-clock figure is the wall time the hypervisor let the guest
//! run (see [`host::Stopwatch`]); the plain figures are printed and
//! written beside them.

use crate::host::{self, Stopwatch};
use crate::spec::{self, Workload, JOB_DEVICES, REPEAT_EVERY};
use crate::stats::{self, SplitMix};
use crate::{Args, Outcome};
use netan::{lot_json, LotEngine, LotReport};
use netan_serve::{ClientFrame, JobRequest, JobServer, ServerFrame, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median. A set-up costs tens of
/// milliseconds here and its warm-up job's latency depends on when the
/// client's delayed ACKs fire (anywhere from 19 to 58 ms, evenly spread),
/// so many of them steady the median: with 15 its spread between runs
/// was 0.17 of the median.
const SETUP_REPS: u64 = 45;
/// A resubmission picks among this many of the client's latest fresh jobs.
const REPEAT_POOL: usize = 8;
/// Every `SAMPLE_EVERY`-th fresh job is checked against a monolithic run.
const SAMPLE_EVERY: usize = 16;

/// Client-observed timing of one job, from the submit frame being
/// written to the `result` frame being parsed.
#[derive(Debug, Clone, Copy)]
pub struct JobTiming {
    pub accepted: Duration,
    pub first_progress: Duration,
    pub last_progress: Duration,
    pub result: Duration,
    /// `result` less the steal time over the job (see [`Stopwatch`]).
    pub unstolen_result: Duration,
    pub shards: u64,
    pub resumed_shards: u64,
}

/// One client connection speaking `netan.job.v1`.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Ok(Self {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Submits `job` and reads frames until its result; a `rejected` or
    /// `error` frame, a parse failure or a closed connection is an error.
    pub fn run_job(&mut self, job: &JobRequest) -> Result<(LotReport, JobTiming), String> {
        let mut frame = ClientFrame::Submit(Box::new(job.clone())).render();
        frame.push('\n');
        let t0 = Instant::now();
        let stopwatch = Stopwatch::start();
        self.writer
            .write_all(frame.as_bytes())
            .map_err(|e| format!("submit write: {e}"))?;
        let mut timing = JobTiming {
            accepted: Duration::ZERO,
            first_progress: Duration::ZERO,
            last_progress: Duration::ZERO,
            result: Duration::ZERO,
            unstolen_result: Duration::ZERO,
            shards: 0,
            resumed_shards: 0,
        };
        let mut line = String::new();
        loop {
            line.clear();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| format!("frame read: {e}"))?;
            if n == 0 {
                return Err("connection closed before the result".to_string());
            }
            match ServerFrame::parse(line.trim()).map_err(|e| format!("frame parse: {e}"))? {
                ServerFrame::Accepted { shards, .. } => {
                    timing.accepted = t0.elapsed();
                    timing.shards = shards;
                }
                ServerFrame::Progress { resumed, .. } => {
                    let t = t0.elapsed();
                    if timing.first_progress.is_zero() {
                        timing.first_progress = t;
                    }
                    timing.last_progress = t;
                    timing.resumed_shards += u64::from(resumed);
                }
                ServerFrame::Finished { report, .. } => {
                    timing.result = t0.elapsed();
                    timing.unstolen_result = Duration::from_secs_f64(stopwatch.unstolen());
                    return Ok((*report, timing));
                }
                ServerFrame::Rejected { error } => return Err(format!("rejected: {error:?}")),
                ServerFrame::Error { error, .. } => return Err(format!("error frame: {error:?}")),
                ServerFrame::Retry { .. } | ServerFrame::Bye => {}
            }
        }
    }
}

/// A running server with its clients.
pub struct Rig {
    pub server: JobServer,
    pub clients: Vec<Client>,
}

impl Rig {
    /// Binds a server (`threads` workers, checkpoints under `state`) and
    /// connects `threads` clients.
    pub fn start(threads: usize, state: &Path) -> Result<Self, String> {
        let config = ServiceConfig::new()
            .with_workers(threads)
            .with_state_dir(state);
        let server = JobServer::start("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
        let clients = (0..threads)
            .map(|_| Client::connect(server.addr()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Self { server, clients })
    }

    /// Closes the clients, then stops the server and joins its threads.
    pub fn stop(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

/// One completed job of the closed loop.
pub struct JobRecord {
    pub job: JobRequest,
    pub report: Arc<LotReport>,
    pub timing: JobTiming,
    /// The report of the job this one resubmitted.
    pub repeat_of: Option<Arc<LotReport>>,
    /// Whether this fresh job is checked against a monolithic run.
    pub sampled: bool,
}

/// Everything the closed loop produced.
#[derive(Default)]
pub struct LoopResult {
    pub jobs: Vec<JobRecord>,
    pub errors: Vec<String>,
    /// Unstolen wall seconds of the loop (see [`Stopwatch`]).
    pub wall: f64,
    /// Plain wall seconds of the loop.
    pub raw_wall: f64,
    pub cpu: f64,
}

/// Runs every client of `rig` as a closed loop until `budget` has passed
/// (or `max_jobs` per client when given): each client waits for its
/// result before submitting the next job.
pub fn closed_loop(
    rig: &mut Rig,
    workload: Workload,
    seed: u64,
    budget: Duration,
    max_jobs: Option<usize>,
) -> LoopResult {
    let cpu0 = host::cpu_seconds();
    let stopwatch = Stopwatch::start();
    let start = Instant::now();
    let per_client: Vec<(Vec<JobRecord>, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = rig
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    client_loop(client, workload, seed, c as u64, start, budget, max_jobs)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| (Vec::new(), vec!["client thread panicked".to_string()]))
            })
            .collect()
    });
    let mut result = LoopResult {
        wall: stopwatch.unstolen(),
        raw_wall: stopwatch.wall(),
        cpu: host::cpu_seconds() - cpu0,
        ..LoopResult::default()
    };
    for (jobs, errors) in per_client {
        result.jobs.extend(jobs);
        result.errors.extend(errors);
    }
    result
}

fn client_loop(
    client: &mut Client,
    workload: Workload,
    seed: u64,
    stream: u64,
    start: Instant,
    budget: Duration,
    max_jobs: Option<usize>,
) -> (Vec<JobRecord>, Vec<String>) {
    let mut rng = SplitMix::new(seed ^ (stream + 1).wrapping_mul(0x2545_F491_4F6C_DD1D));
    let mut pool: Vec<(JobRequest, Arc<LotReport>)> = Vec::new();
    let mut records = Vec::new();
    let mut errors = Vec::new();
    let mut fresh = 0u64;
    let mut submitted = 0usize;
    while start.elapsed() < budget && max_jobs.is_none_or(|m| submitted < m) {
        let repeat = submitted % REPEAT_EVERY == REPEAT_EVERY - 1 && !pool.is_empty();
        let (job, repeat_of) = if repeat {
            let (job, report) = &pool[rng.below(pool.len())];
            (job.clone(), Some(Arc::clone(report)))
        } else {
            let range = spec::op_range(seed, stream, fresh, JOB_DEVICES);
            fresh += 1;
            (workload.job(range), None)
        };
        submitted += 1;
        match client.run_job(&job) {
            Ok((report, timing)) => {
                let report = Arc::new(report);
                let sampled =
                    repeat_of.is_none() && (fresh - 1).is_multiple_of(SAMPLE_EVERY as u64);
                if repeat_of.is_none() {
                    if pool.len() == REPEAT_POOL {
                        pool.remove(0);
                    }
                    pool.push((job.clone(), Arc::clone(&report)));
                }
                records.push(JobRecord {
                    job,
                    report,
                    timing,
                    repeat_of,
                    sampled,
                });
            }
            Err(e) => errors.push(e),
        }
    }
    (records, errors)
}

/// Checks a closed loop's jobs outside the timed window: resubmissions
/// must have resumed every shard and match the original job's bytes;
/// sampled fresh jobs must match a monolithic serial
/// `run_escalated_range`.
pub fn check_jobs(out: &mut Outcome, result: &LoopResult, workload: Workload) {
    let plan = spec::plan();
    for e in &result.errors {
        out.error("job", e.clone());
    }
    for r in &result.jobs {
        let seeds = format!("seeds {}..{}", r.job.seed_start, r.job.seed_end);
        match &r.repeat_of {
            Some(original) => {
                let resumed = r.timing.resumed_shards == r.timing.shards;
                let same = lot_json(original) == lot_json(&r.report);
                out.check(
                    "resubmission_resumes_identically",
                    resumed && same,
                    format!(
                        "{seeds}: {}/{} shards resumed, bytes {}",
                        r.timing.resumed_shards,
                        r.timing.shards,
                        if same { "equal" } else { "differ" }
                    ),
                );
            }
            None if r.sampled => {
                let mono = LotEngine::serial().run_escalated_range(
                    workload.factory(),
                    r.job.seed_start..r.job.seed_end,
                    &plan,
                    &r.job.schedule,
                );
                match mono {
                    Ok(m) => out.check(
                        "job_matches_monolithic",
                        lot_json(&m) == lot_json(&r.report),
                        seeds,
                    ),
                    Err(e) => out.error("monolithic_reference", e.to_string()),
                }
            }
            None => out.attempted += 1,
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn run(args: &Args) -> Outcome {
    let w = args.workload;
    let mut out = Outcome::default();

    // Set-up: server bind, client connects and one warm-up job, several
    // times on fresh state directories; the last rig is measured.
    let mut setups = Vec::new();
    let mut rig = None;
    for i in 0..SETUP_REPS {
        let t = Stopwatch::start();
        let state = args.state_dir.join(format!("serve-{i}"));
        let mut fresh_rig = match Rig::start(args.threads, &state) {
            Ok(r) => r,
            Err(e) => {
                out.error("setup", e);
                continue;
            }
        };
        let warm =
            fresh_rig.clients[0].run_job(&w.job(spec::warmup_range(args.seed, i, JOB_DEVICES)));
        setups.push(t.unstolen());
        if let Err(e) = warm {
            out.error("warmup_job", e);
        }
        if let Some(previous) = rig.replace(fresh_rig) {
            Rig::stop(previous);
        }
    }
    let Some(mut rig) = rig else {
        return out;
    };

    let result = closed_loop(&mut rig, w, args.seed, args.seconds, None);
    rig.stop();
    check_jobs(&mut out, &result, w);

    let fresh_ms: Vec<f64> = result
        .jobs
        .iter()
        .filter(|r| r.repeat_of.is_none())
        .map(|r| ms(r.timing.unstolen_result))
        .collect();
    let resume_ms: Vec<f64> = result
        .jobs
        .iter()
        .filter(|r| r.repeat_of.is_some())
        .map(|r| ms(r.timing.unstolen_result))
        .collect();
    let raw_ms: Vec<f64> = result
        .jobs
        .iter()
        .filter(|r| r.repeat_of.is_none())
        .map(|r| ms(r.timing.result))
        .collect();
    let devices: usize = result.jobs.iter().map(|r| r.report.len()).sum();
    let spent: f64 = result.jobs.iter().map(|r| r.report.spent().value()).sum();
    let per_device = |v: f64| {
        if devices == 0 {
            0.0
        } else {
            v / devices as f64
        }
    };
    // p90 needs at least 10 samples beyond it.
    out.check(
        "p90_has_10_samples_beyond",
        fresh_ms.len() >= 100,
        format!("{} fresh jobs", fresh_ms.len()),
    );

    let deciles: Vec<String> = (1..=10)
        .map(|d| {
            format!(
                "{:.1}",
                stats::quantile(&fresh_ms, d as f64 / 10.0).unwrap_or(0.0)
            )
        })
        .collect();
    out.fact("fresh_job_ms_deciles", deciles.join(" "));
    let setup_ms: Vec<String> = setups.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    out.fact("setup_ms_samples", setup_ms.join(" "));
    out.fact("jobs", result.jobs.len());
    out.fact("resubmitted_jobs", resume_ms.len());
    out.fact("devices", devices);
    out.fact("devices_per_job", JOB_DEVICES);
    out.fact("shard_devices", 1);
    out.metric("setup_s", stats::median(&setups), "s");
    out.metric("devices_per_s", devices as f64 / result.wall, "devices/s");
    out.metric("cpu_ms_per_device", per_device(result.cpu * 1e3), "ms");
    out.metric(
        "job_ms_p50",
        stats::quantile(&fresh_ms, 0.5).unwrap_or(0.0),
        "ms",
    );
    out.metric(
        "job_ms_p90",
        stats::quantile(&fresh_ms, 0.9).unwrap_or(0.0),
        "ms",
    );
    out.metric(
        "resume_ms_p50",
        stats::quantile(&resume_ms, 0.5).unwrap_or(0.0),
        "ms",
    );
    out.metric("peak_rss_mb", host::peak_rss_mb(), "MiB");
    out.metric("sim_test_s_per_device", per_device(spent), "sim_s");
    out.metric(
        "raw_window_devices_per_s",
        devices as f64 / result.raw_wall,
        "devices/s",
    );
    out.metric("raw_job_ms_p50", stats::median(&raw_ms), "ms");
    out.metric(
        "host_steal_share",
        1.0 - result.wall / result.raw_wall,
        "share",
    );
    out.metric("wall_s", result.raw_wall, "s");
    out.metric("cpu_s", result.cpu, "s");
    out.metric(
        "cpu_utilisation",
        result.cpu / (result.wall * args.threads as f64),
        "share",
    );
    out
}
