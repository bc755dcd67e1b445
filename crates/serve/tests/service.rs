//! Integration tests for the screening service: byte-identity against
//! the in-process engines, fault containment, backpressure, budgets,
//! checkpoint resume, graceful shutdown, the TCP round trip, and the
//! client frame-length cap.

use dut::ActiveRcFilter;
use mixsig::units::Seconds;
use netan::{
    lot_json, AnalyzerConfig, EscalationSchedule, GainMask, LotCheckpoint, LotEngine, LotPlan,
    LotReport,
};
use netan_serve::server::MAX_FRAME_BYTES;
use netan_serve::{
    ClientFrame, DutDescription, FaultPlan, JobEvent, JobRequest, JobServer, ScreenService,
    ServeError, ServerFrame, ServiceConfig, WireError,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc::Receiver;

const TOL: f64 = 0.05;

fn request(seed_start: u64, seed_end: u64, shard: u64) -> JobRequest {
    JobRequest {
        dut: DutDescription {
            tolerance: TOL,
            linearized: true,
        },
        seed_start,
        seed_end,
        shard_devices: shard,
        plan: LotPlan::from_mask(GainMask::paper_lowpass()),
        schedule: EscalationSchedule::from_periods(AnalyzerConfig::ideal(), &[50, 100]),
    }
}

fn factory(seed: u64) -> impl dut::Dut {
    ActiveRcFilter::paper_dut()
        .linearized()
        .fabricate(TOL, seed)
}

/// The unbudgeted reference: one monolithic escalated range run.
fn monolithic(request: &JobRequest) -> LotReport {
    LotEngine::serial()
        .run_escalated_range(
            factory,
            request.seed_start..request.seed_end,
            &request.plan,
            &request.schedule,
        )
        .expect("reference run")
}

struct Outcome {
    /// `(seed_start, seed_end, done, resumed)` per progress event, in
    /// delivery order.
    progress: Vec<(u64, u64, u64, bool)>,
    retries: Vec<(u64, u64)>,
    result: Result<LotReport, ServeError>,
}

fn drain(events: &Receiver<JobEvent>) -> Outcome {
    let mut progress = Vec::new();
    let mut retries = Vec::new();
    loop {
        match events.recv().expect("a terminal event before hangup") {
            JobEvent::Progress {
                seed_start,
                seed_end,
                done,
                resumed,
                ..
            } => progress.push((seed_start, seed_end, done, resumed)),
            JobEvent::Retry {
                seed_start,
                seed_end,
                ..
            } => retries.push((seed_start, seed_end)),
            JobEvent::Done(report) => {
                return Outcome {
                    progress,
                    retries,
                    result: Ok(*report),
                }
            }
            JobEvent::Failed(e) => {
                return Outcome {
                    progress,
                    retries,
                    result: Err(e),
                }
            }
        }
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("netan-serve-test-{tag}-{}", std::process::id()))
}

#[test]
fn merged_report_is_byte_identical_to_monolithic() {
    let service = ScreenService::start(ServiceConfig::new().with_workers(3));
    let job = request(0, 8, 2);
    let reference = monolithic(&job);
    let (_, events) = service.submit(job).expect("submit");
    let outcome = drain(&events);

    // Progress arrives in seed order no matter which worker finished
    // first, and the merged report matches the monolith byte for byte.
    assert_eq!(
        outcome.progress,
        vec![
            (0, 2, 1, false),
            (2, 4, 2, false),
            (4, 6, 3, false),
            (6, 8, 4, false)
        ]
    );
    assert!(outcome.retries.is_empty());
    let report = outcome.result.expect("job completes");
    assert_eq!(lot_json(&report), lot_json(&reference));
    service.shutdown();
}

#[test]
fn two_concurrent_jobs_interleave_and_both_match() {
    let service = ScreenService::start(ServiceConfig::new().with_workers(2));
    let job_a = request(0, 6, 2);
    let job_b = request(10, 16, 3);
    let (id_a, events_a) = service.submit(job_a.clone()).expect("submit a");
    let (id_b, events_b) = service.submit(job_b.clone()).expect("submit b");
    assert_ne!(id_a, id_b);

    let outcome_a = drain(&events_a);
    let outcome_b = drain(&events_b);
    let report_a = outcome_a.result.expect("job a completes");
    let report_b = outcome_b.result.expect("job b completes");
    assert_eq!(lot_json(&report_a), lot_json(&monolithic(&job_a)));
    assert_eq!(lot_json(&report_b), lot_json(&monolithic(&job_b)));
    service.shutdown();
}

#[test]
fn killed_worker_is_retried_and_the_report_is_unchanged() {
    let service = ScreenService::start(
        ServiceConfig::new()
            .with_workers(2)
            .with_fault(FaultPlan::new(2, 1)),
    );
    let job = request(0, 8, 2);
    let reference = monolithic(&job);
    let (_, events) = service.submit(job).expect("submit");
    let outcome = drain(&events);

    assert_eq!(outcome.retries, vec![(2, 4)]);
    let report = outcome.result.expect("job survives one panic");
    assert_eq!(lot_json(&report), lot_json(&reference));
    service.shutdown();
}

#[test]
fn double_fault_fails_the_job_but_not_its_sibling() {
    let service = ScreenService::start(
        ServiceConfig::new()
            .with_workers(2)
            .with_fault(FaultPlan::new(2, 2)),
    );
    let job_a = request(0, 6, 2);
    let job_b = request(10, 14, 2);
    let (_, events_a) = service.submit(job_a).expect("submit a");
    let (_, events_b) = service.submit(job_b.clone()).expect("submit b");

    let outcome_a = drain(&events_a);
    assert_eq!(outcome_a.retries, vec![(2, 4)]);
    match outcome_a.result {
        Err(ServeError::ShardPanicked {
            seed_start,
            seed_end,
            ref message,
        }) => {
            assert_eq!((seed_start, seed_end), (2, 4));
            assert!(message.contains("injected worker fault"), "{message}");
        }
        other => panic!("expected ShardPanicked, got {other:?}"),
    }

    let report_b = drain(&events_b).result.expect("sibling unaffected");
    assert_eq!(lot_json(&report_b), lot_json(&monolithic(&job_b)));
    service.shutdown();
}

#[test]
fn oversized_submissions_are_refused_synchronously() {
    let service = ScreenService::start(ServiceConfig::new().with_queue_capacity(2));
    // The second job has 2⁶⁴ − 1 one-device shards: its spans are
    // counted, never built, so it is refused instead of exhausting
    // memory.
    for job in [request(0, 8, 2), request(0, u64::MAX, 1)] {
        match service.submit(job) {
            Err(ServeError::QueueFull { capacity }) => assert_eq!(capacity, 2),
            other => panic!("expected QueueFull, got {other:?}"),
        }
    }
    // A job that fits still goes through on the same service.
    let job = request(0, 4, 2);
    let reference = monolithic(&job);
    let (_, events) = service.submit(job).expect("fitting job");
    let report = drain(&events).result.expect("fitting job completes");
    assert_eq!(lot_json(&report), lot_json(&reference));
    service.shutdown();
}

#[test]
fn empty_jobs_are_refused_typed() {
    let service = ScreenService::start(ServiceConfig::new());
    match service.submit(request(5, 5, 2)) {
        Err(ServeError::Lot(netan::NetanError::EmptyLot)) => {}
        other => panic!("expected EmptyLot, got {other:?}"),
    }
    service.shutdown();
}

#[test]
fn budgeted_jobs_match_the_checkpoint_drive_byte_for_byte() {
    // Re-test admission under a budget follows the sequential shard
    // ledger, so the reference is a checkpoint drive with the same
    // shard size — not a monolith (see the sharding notes in netan).
    let mut job = request(0, 6, 2);
    job.schedule = job.schedule.clone().with_budget(Seconds(400.0));

    let dir = temp_dir("budget-ref");
    std::fs::remove_dir_all(&dir).ok();
    let reference = LotCheckpoint::new(&dir, 2)
        .run_escalated(
            &LotEngine::serial(),
            factory,
            0..6,
            &job.plan,
            &job.schedule,
        )
        .expect("reference checkpoint drive");
    std::fs::remove_dir_all(&dir).ok();

    let service = ScreenService::start(ServiceConfig::new().with_workers(2));
    let (_, events) = service.submit(job).expect("submit");
    let report = drain(&events).result.expect("budgeted job completes");
    assert_eq!(lot_json(&report), lot_json(&reference));
    service.shutdown();
}

#[test]
fn shutdown_refuses_new_jobs_and_fails_drained_ones_typed() {
    let service = ScreenService::start(ServiceConfig::new());
    let (_, events) = service.submit(request(0, 8, 2)).expect("submit");
    service.shutdown();

    // Whatever the worker managed before the drain, the terminal event
    // is typed: Done if everything merged, ShuttingDown otherwise.
    match drain(&events).result {
        Ok(_) | Err(ServeError::ShuttingDown) => {}
        other => panic!("expected Done or ShuttingDown, got {other:?}"),
    }
    match service.submit(request(0, 2, 2)) {
        Err(ServeError::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
}

#[test]
fn resubmitted_jobs_resume_from_persisted_shards() {
    let dir = temp_dir("resume");
    std::fs::remove_dir_all(&dir).ok();
    let job = request(0, 6, 2);
    let reference = monolithic(&job);

    let first = ScreenService::start(ServiceConfig::new().with_state_dir(&dir));
    let (_, events) = first.submit(job.clone()).expect("submit");
    let fresh = drain(&events);
    assert!(fresh.progress.iter().all(|&(.., resumed)| !resumed));
    let report = fresh.result.expect("first run completes");
    assert_eq!(lot_json(&report), lot_json(&reference));
    first.shutdown();

    // A fresh service over the same state directory loads every shard
    // instead of re-measuring, and assembles the same bytes.
    let second = ScreenService::start(ServiceConfig::new().with_state_dir(&dir));
    let (_, events) = second.submit(job).expect("resubmit");
    let resumed = drain(&events);
    assert!(resumed.progress.iter().all(|&(.., resumed)| resumed));
    let report = resumed.result.expect("resumed run completes");
    assert_eq!(lot_json(&report), lot_json(&reference));
    second.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tcp_round_trip_streams_and_matches_the_monolith() {
    let server = JobServer::start("127.0.0.1:0", ServiceConfig::new().with_workers(2))
        .expect("bind an ephemeral port");
    let addr = server.addr();
    let job = request(0, 4, 2);
    let reference = monolithic(&job);

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    // An unparseable line is rejected typed and the connection survives.
    writer.write_all(b"not json\n").expect("write garbage");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read rejection");
    match ServerFrame::parse(line.trim()).expect("parse rejection") {
        ServerFrame::Rejected {
            error: WireError::BadFrame { .. },
        } => {}
        other => panic!("expected bad_frame rejection, got {other:?}"),
    }

    // Submit, then read frames to the terminal result.
    let submit = ClientFrame::Submit(Box::new(job)).render();
    writer
        .write_all(format!("{submit}\n").as_bytes())
        .expect("write submit");
    let mut got_accept = false;
    let mut progress = 0u64;
    let report = loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read frame");
        match ServerFrame::parse(line.trim()).expect("parse frame") {
            ServerFrame::Accepted { shards, .. } => {
                assert_eq!(shards, 2);
                got_accept = true;
            }
            ServerFrame::Progress { done, total, .. } => {
                progress += 1;
                assert_eq!(done, progress);
                assert_eq!(total, 2);
            }
            ServerFrame::Finished { report, .. } => break report,
            other => panic!("unexpected frame {other:?}"),
        }
    };
    assert!(got_accept);
    assert_eq!(progress, 2);
    assert_eq!(lot_json(&report), lot_json(&reference));

    // Graceful shutdown over the wire, from a second connection.
    let mut control = TcpStream::connect(addr).expect("connect control");
    control
        .write_all(format!("{}\n", ClientFrame::Shutdown.render()).as_bytes())
        .expect("write shutdown");
    let mut bye = String::new();
    BufReader::new(&control)
        .read_line(&mut bye)
        .expect("read bye");
    assert!(matches!(
        ServerFrame::parse(bye.trim()).expect("parse bye"),
        ServerFrame::Bye
    ));
    server.wait();

    // The listener is down: new connections are refused (or reset).
    assert!(
        TcpStream::connect(addr).is_err() || {
            // Some platforms accept briefly while the socket drains; a
            // write+read must then fail or hit EOF.
            let mut s = TcpStream::connect(addr).expect("raced connect");
            s.write_all(b"\n").ok();
            let mut buf = String::new();
            BufReader::new(&s)
                .read_line(&mut buf)
                .map(|n| n == 0)
                .unwrap_or(true)
        }
    );
}

#[test]
fn over_long_frames_are_rejected_typed_and_close_only_their_connection() {
    let server = JobServer::start("127.0.0.1:0", ServiceConfig::new().with_workers(2))
        .expect("bind an ephemeral port");
    let addr = server.addr();
    let sibling = TcpStream::connect(addr).expect("connect sibling");

    // One byte past the cap and no newline — exactly what the server
    // reads before it decides, so it closes with nothing left unread.
    let flood = TcpStream::connect(addr).expect("connect flood");
    // Without the cap the server would wait for a newline forever; fail
    // instead of hanging.
    flood
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .expect("set timeout");
    (&flood)
        .write_all(&vec![b'x'; MAX_FRAME_BYTES + 1])
        .expect("write flood");
    let mut reader = BufReader::new(flood);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read rejection");
    match ServerFrame::parse(line.trim()).expect("parse rejection") {
        ServerFrame::Rejected {
            error: WireError::BadFrame { message },
        } => assert!(message.contains("exceeds"), "{message}"),
        other => panic!("expected bad_frame rejection, got {other:?}"),
    }
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("read to EOF"), 0);

    // The sibling connection still screens a job to the monolith's bytes.
    let job = request(0, 2, 1);
    let reference = monolithic(&job);
    let submit = ClientFrame::Submit(Box::new(job)).render();
    (&sibling)
        .write_all(format!("{submit}\n").as_bytes())
        .expect("write submit");
    let mut reader = BufReader::new(sibling);
    let report = loop {
        line.clear();
        reader.read_line(&mut line).expect("read frame");
        match ServerFrame::parse(line.trim()).expect("parse frame") {
            ServerFrame::Finished { report, .. } => break report,
            ServerFrame::Accepted { .. } | ServerFrame::Progress { .. } => {}
            other => panic!("unexpected frame {other:?}"),
        }
    };
    assert_eq!(lot_json(&report), lot_json(&reference));
    server.shutdown();
}
