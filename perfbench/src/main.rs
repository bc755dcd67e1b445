//! `perfbench` — the sc-netan benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lot_ideal|lot_cmos_escalated|serve_tcp> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics of one workload; `--trace 1` runs the per-layer profile with
//! spans. Every output is checked before it counts; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The full result, with host facts and every
//! check, is also written under `.perfbench_run/results/`.
//! See `perfbench/README.md` for the workloads and the metric map.

mod host;
mod lots;
mod spec;
mod stats;
mod tcp;
mod trace;

use spec::Workload;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// The end-to-end metrics (`--trace 0`), in output order. `job_ms_p90`
/// is measured and printed too, but not gated: on a shared 2-vCPU host its
/// run-to-run spread reached 0.21 of its median, leaving no margin under
/// any admissible bound.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("devices_per_s", "devices/s"),
    ("cpu_ms_per_device", "ms"),
    ("job_ms_p50", "ms"),
    ("resume_ms_p50", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics (`--trace 1`), in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mixsig.fill_gaussian.ns_per_draw", "ns"),
    ("sigen.fill_block.ns_per_sample", "ns"),
    ("dut.process_block.ns_per_sample", "ns"),
    ("ate.fill_block.ns_per_sample", "ns"),
    ("sdeval.evaluator_self.ns_per_sample", "ns"),
    ("sdeval.modulator.ns_per_sample", "ns"),
    ("sdeval.squarewave.ns_per_sample", "ns"),
    ("netan.calibrate.ms", "ms"),
    ("netan.measure_point.ms", "ms"),
    ("netan.device.ms", "ms"),
    ("netan.classify.us", "us"),
    ("netan.fit.us", "us"),
    ("netan.calibrate.device_share", "share"),
    ("netan.pool.busy_share", "share"),
    ("netan.lot.retests_per_device", "count"),
    ("netan.lot.retest_decided_share", "share"),
    ("netan.lot.samples_per_device", "count"),
    ("netan.merge.us", "us"),
    ("netan.lot_json.us", "us"),
    ("netan.parse_lot_json.us", "us"),
    ("netan.checkpoint.persist_ms", "ms"),
    ("netan.checkpoint.load_ms", "ms"),
    ("netan.checkpoint.job_share", "share"),
    ("serve.shard.ms", "ms"),
    ("serve.client_frame_parse.us", "us"),
    ("serve.server_frame_render.us", "us"),
    ("serve.server_frame_parse.us", "us"),
    ("serve.frames.job_share", "share"),
    ("serve.accept.ms", "ms"),
    ("serve.first_progress.ms", "ms"),
    ("serve.finish_tail.ms", "ms"),
    ("trace.point_accounting_ratio", "ratio"),
    ("trace.device_accounting_ratio", "ratio"),
    ("trace.overhead_share", "share"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Engine threads, service workers and client connections:
    /// `min(nproc, 2)`, so the offered load is the same on larger hosts.
    pub threads: usize,
    /// Scratch root for this run's checkpoint state.
    pub state_dir: PathBuf,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (lots, jobs, replica devices, checks).
    pub attempted: u64,
    /// Operations that failed: typed errors, rejected/error frames and
    /// byte-identity mismatches.
    pub failed: u64,
    /// Named checks with a one-line detail.
    pub checks: Vec<(String, bool, String)>,
    /// Measured values: `(name, value, unit)`.
    pub metrics: Vec<(String, f64, String)>,
    /// Run facts (operation sizes, counts).
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    /// Records one checked operation: a failure counts in `failed`.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    /// Records an operation that returned a typed error.
    pub fn error(&mut self, name: &str, detail: impl Into<String>) {
        self.check(name, false, detail);
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    Ok(Args {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        threads: host::nproc().min(2),
        state_dir: PathBuf::from(".perfbench_run").join(format!("state-{}", std::process::id())),
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number in JSON; non-finite values (a defect) render as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json(metrics: &[(String, f64, String)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn meta(args: &Args) -> Vec<(String, String)> {
    vec![
        ("workload".into(), args.workload.name().into()),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.as_secs_f64().to_string()),
        ("trace".into(), u8::from(args.trace).to_string()),
        ("nproc".into(), host::nproc().to_string()),
        ("threads".into(), args.threads.to_string()),
        ("cpu_model".into(), host::cpu_model()),
        ("rustc".into(), env!("PERFBENCH_RUSTC").into()),
        ("profile".into(), env!("PERFBENCH_PROFILE").into()),
        ("features".into(), "default".into()),
        ("commit".into(), host::commit(Path::new("."))),
        (
            "devices_per_op".into(),
            args.workload.devices_per_op().to_string(),
        ),
    ]
}

fn write_results(args: &Args, outcome: &Outcome, correct: bool) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(".perfbench_run").join("results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let pairs = |kv: &[(String, String)]| {
        let body: Vec<String> = kv
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
            .collect();
        format!("{{{}}}", body.join(","))
    };
    let checks: Vec<String> = outcome
        .checks
        .iter()
        .map(|(n, ok, d)| {
            format!(
                "{{\"name\":{},\"ok\":{ok},\"detail\":{}}}",
                json_str(n),
                json_str(d)
            )
        })
        .collect();
    let doc = format!(
        "{{\"schema\":\"perfbench.result.v1\",\"meta\":{},\"facts\":{},\"correct\":{correct},\
         \"attempted\":{},\"failed\":{},\"metrics\":{},\"checks\":[{}]}}\n",
        pairs(&meta(args)),
        pairs(&outcome.facts),
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics),
        checks.join(",")
    );
    std::fs::write(&path, doc)?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut outcome = if args.trace {
        trace::run(&args)
    } else {
        match args.workload {
            Workload::LotIdeal | Workload::LotCmosEscalated => lots::run(&args),
            Workload::ServeTcp => tcp::run(&args),
        }
    };
    let _ = std::fs::remove_dir_all(&args.state_dir);

    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let mut reported = Vec::new();
    for &(name, unit) in declared {
        match outcome.value(name) {
            Some(v) => reported.push((name.to_string(), v, unit.to_string())),
            None => outcome.check("metric_present", false, format!("{name} was not measured")),
        }
    }
    let attempted = outcome.attempted.max(1);
    outcome.metric(
        "error_rate",
        outcome.failed as f64 / attempted as f64,
        "share",
    );
    let correct = outcome.failed == 0 && outcome.checks.iter().all(|(_, ok, _)| *ok);

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace)
    );
    for (k, v) in meta(&args).iter().chain(&outcome.facts) {
        println!("  fact   {k} = {v}");
    }
    // One line per check name; failures are listed with their detail.
    let mut tally: Vec<(&str, usize, usize)> = Vec::new();
    for (name, ok, _) in &outcome.checks {
        match tally.iter_mut().find(|(n, _, _)| n == name) {
            Some(t) => {
                t.1 += usize::from(*ok);
                t.2 += 1;
            }
            None => tally.push((name, usize::from(*ok), 1)),
        }
    }
    for (name, passed, total) in tally {
        println!("  check  {name}: {passed}/{total} passed");
    }
    for (name, _, detail) in outcome.checks.iter().filter(|(_, ok, _)| !ok) {
        println!("  FAIL   {name}: {detail}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("  metric {name} = {value:.6} {unit}");
    }
    match write_results(&args, &outcome, correct) {
        Ok(path) => println!("  results written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write results: {e}"),
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{},\"metrics\":{}}}",
        outcome.failed,
        metrics_json(&reported)
    );
    ExitCode::SUCCESS
}
