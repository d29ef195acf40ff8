//! Chaos-harness end-to-end tests: injected disk faults, deadlines,
//! admission control, and abusive peers — the daemon must degrade with
//! typed answers and heal to bit-identical results, never hang or die.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mlc_serve::{
    grid_to_json, FaultInjector, JobEvent, Server, ServerConfig, SubmitError, SubmitOutcome,
};

mod common;
use common::{request, temp_root, write_trace, SIZES};

/// Follows a submission to its terminal result.
fn drain(sub: &mlc_serve::Submission) -> Result<Arc<mlc_core::DesignGrid>, mlc_serve::JobError> {
    loop {
        match sub.events.recv().expect("job must terminate") {
            JobEvent::Progress { .. } => {}
            JobEvent::Done(done) => return done.result,
        }
    }
}

fn bits(grid: &mlc_core::DesignGrid) -> String {
    grid_to_json(grid).to_string_compact()
}

#[test]
fn enospc_mid_journal_is_retryable_and_heals() {
    let root = temp_root("enospc");
    let trace = write_trace(&root, 20_000);

    // Clean reference bits.
    let reference = Server::new(ServerConfig::new(root.join("ref"))).unwrap();
    let SubmitOutcome::Running(sub) = reference.submit(&request(&trace, SIZES)).unwrap() else {
        panic!("empty store cannot hit");
    };
    let want = bits(&drain(&sub).unwrap());

    // One journal append fails as ENOSPC, then the disk "clears".
    let chaos = FaultInjector::none();
    chaos.arm_journal_enospc(1);
    let mut config = ServerConfig::new(root.join("store"));
    config.chaos = Arc::clone(&chaos);
    let server = Server::new(config).unwrap();

    let SubmitOutcome::Running(sub) = server.submit(&request(&trace, SIZES)).unwrap() else {
        panic!("empty store cannot hit");
    };
    let err = drain(&sub).expect_err("injected ENOSPC must fail the job");
    assert!(err.retryable, "a full disk is transient: {err}");
    assert!(err.message.contains("journal write failed"), "{err}");
    assert_eq!(chaos.injected(), 1);

    // The idempotent retry resumes the surviving row and converges.
    let SubmitOutcome::Running(sub) = server.submit(&request(&trace, SIZES)).unwrap() else {
        panic!("failed job must not be cached");
    };
    assert_eq!(sub.rows_resumed, 1, "the successful row was journalled");
    assert_eq!(
        bits(&drain(&sub).unwrap()),
        want,
        "healed result must match"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn enospc_on_the_job_spec_is_retryable_and_leaves_no_job() {
    let root = temp_root("spec_enospc");
    let trace = write_trace(&root, 20_000);
    let reference = Server::new(ServerConfig::new(root.join("ref"))).unwrap();
    let SubmitOutcome::Running(sub) = reference.submit(&request(&trace, SIZES)).unwrap() else {
        panic!("empty store cannot hit");
    };
    let want = bits(&drain(&sub).unwrap());

    // The job-spec write fails as ENOSPC, before anything is spooled.
    let chaos = FaultInjector::none();
    chaos.arm_spec_enospc(1);
    let mut config = ServerConfig::new(root.join("store"));
    config.chaos = Arc::clone(&chaos);
    let server = Server::new(config).unwrap();
    match server.submit(&request(&trace, SIZES)) {
        Err(SubmitError::Io(message)) => {
            assert!(message.contains("spooling job spec failed"), "{message}");
        }
        other => panic!("expected a spooling I/O error, got {other:?}"),
    }
    assert_eq!(chaos.injected(), 1);
    assert!(
        server.drain(Duration::ZERO),
        "a failed spool leaves no job-table entry"
    );

    // The retry starts a fresh job (nothing to coalesce onto) and
    // computes the unfaulted bits.
    let SubmitOutcome::Running(sub) = server.submit(&request(&trace, SIZES)).unwrap() else {
        panic!("a failed spool must not look cached");
    };
    assert!(!sub.coalesced);
    assert_eq!(sub.rows_resumed, 0);
    assert_eq!(bits(&drain(&sub).unwrap()), want, "retry must match");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn torn_commit_rename_is_retryable_and_resumes_without_recompute() {
    let root = temp_root("torn");
    let trace = write_trace(&root, 20_000);
    let chaos = FaultInjector::none();
    chaos.arm_commit_fail(1);
    let mut config = ServerConfig::new(root.join("store"));
    config.chaos = Arc::clone(&chaos);
    let server = Server::new(config).unwrap();

    let SubmitOutcome::Running(sub) = server.submit(&request(&trace, SIZES)).unwrap() else {
        panic!("empty store cannot hit");
    };
    let err = drain(&sub).expect_err("injected torn rename must fail the commit");
    assert!(err.retryable, "{err}");
    assert!(err.message.contains("cache commit failed"), "{err}");
    assert_eq!(server.stats().jobs_computed, 0);

    // The complete journal is still in the spool: the retry replays all
    // rows (no recompute) and commits.
    let SubmitOutcome::Running(sub) = server.submit(&request(&trace, SIZES)).unwrap() else {
        panic!("failed commit must not look cached");
    };
    assert_eq!(sub.rows_resumed, 2, "every row was journalled already");
    assert!(drain(&sub).is_ok());
    assert_eq!(server.stats().disk_entries, 1);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn full_job_table_sheds_with_a_typed_overload() {
    let root = temp_root("shed");
    let trace = write_trace(&root, 20_000);
    let mut config = ServerConfig::new(root.join("store"));
    config.max_jobs = 1;
    config.row_delay = Duration::from_millis(300);
    let server = Server::new(config).unwrap();

    let SubmitOutcome::Running(leader) = server.submit(&request(&trace, SIZES)).unwrap() else {
        panic!("empty store cannot hit");
    };
    // A *different* job (other grid) cannot coalesce and must be shed.
    let other = request(&trace, &[65536, 131072]);
    match server.submit(&other) {
        Err(SubmitError::Overloaded(reason)) => assert!(reason.contains("job table full")),
        other => panic!("expected overloaded, got {other:?}"),
    }
    // An *identical* submission coalesces for free even at the cap.
    match server.submit(&request(&trace, SIZES)).unwrap() {
        SubmitOutcome::Running(sub) => assert!(sub.coalesced),
        SubmitOutcome::Cached { .. } => {} // leader finished already: also fine
    }
    assert_eq!(server.stats().jobs_shed, 1);
    assert!(drain(&leader).is_ok());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn draining_server_sheds_new_submissions() {
    let root = temp_root("drainshed");
    let trace = write_trace(&root, 20_000);
    let server = Server::new(ServerConfig::new(root.join("store"))).unwrap();
    server.shutdown();
    match server.submit(&request(&trace, SIZES)) {
        Err(SubmitError::Overloaded(reason)) => assert!(reason.contains("draining")),
        other => panic!("expected overloaded, got {other:?}"),
    }
    assert!(server.drain(Duration::from_secs(1)), "no jobs: drains now");
    let _ = std::fs::remove_dir_all(&root);
}

// ---- socket-level chaos: deadlines, slow clients, handler caps ----

struct NetFixture {
    server: Arc<Server>,
    socket: PathBuf,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl NetFixture {
    fn start(root: &Path, mut config: ServerConfig) -> NetFixture {
        config.store_root = root.join("store");
        let server = Server::new(config).unwrap();
        let socket = root.join("serve.sock");
        let thread = {
            let server = Arc::clone(&server);
            let socket = socket.clone();
            std::thread::spawn(move || mlc_serve::net::serve(server, &socket, "test"))
        };
        // Wait for the listener to bind.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !socket.exists() {
            assert!(Instant::now() < deadline, "daemon never bound its socket");
            std::thread::sleep(Duration::from_millis(10));
        }
        NetFixture {
            server,
            socket,
            thread: Some(thread),
        }
    }

    fn connect(
        &self,
    ) -> (
        std::os::unix::net::UnixStream,
        BufReader<std::os::unix::net::UnixStream>,
    ) {
        let stream = std::os::unix::net::UnixStream::connect(&self.socket).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    fn stop(mut self) {
        self.server.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn read_event(reader: &mut BufReader<std::os::unix::net::UnixStream>) -> mlc_serve::Event {
    let mut line = String::new();
    assert!(
        reader.read_line(&mut line).unwrap() > 0,
        "connection closed"
    );
    mlc_serve::Event::parse(line.trim_end()).unwrap()
}

fn expect_hello(reader: &mut BufReader<std::os::unix::net::UnixStream>) {
    match read_event(reader) {
        mlc_serve::Event::Hello { .. } => {}
        other => panic!("expected hello, got {other:?}"),
    }
}

#[test]
fn deadline_answers_timeout_and_the_job_still_lands_in_cache() {
    let root = temp_root("deadline");
    let trace = write_trace(&root, 20_000);
    let mut config = ServerConfig::new(&root); // store_root overwritten by fixture
    config.row_delay = Duration::from_millis(400);
    let fixture = NetFixture::start(&root, config);

    let (mut stream, mut reader) = fixture.connect();
    expect_hello(&mut reader);
    let mut req = request(&trace, SIZES);
    req.deadline_ms = 120; // two 400ms rows cannot finish in time
    let mut line = mlc_serve::Request::Submit(req).to_line();
    line.push('\n');
    stream.write_all(line.as_bytes()).unwrap();

    let key = match read_event(&mut reader) {
        mlc_serve::Event::Accepted { key, .. } => key,
        other => panic!("expected accepted, got {other:?}"),
    };
    // Progress may or may not arrive first; the terminal answer within
    // the deadline window must be `timeout`.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match read_event(&mut reader) {
            mlc_serve::Event::Progress { .. } => {}
            mlc_serve::Event::Timeout { key: k } => {
                assert_eq!(k, key);
                break;
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        assert!(Instant::now() < deadline);
    }
    assert!(fixture.server.stats().jobs_timeout >= 1);

    // The deadline bounded the response, not the computation: the job
    // finishes and an idempotent refetch (same connection!) serves it.
    let fetch_deadline = Instant::now() + Duration::from_secs(60);
    let grid = loop {
        let mut line = mlc_serve::Request::Fetch { key: key.clone() }.to_line();
        line.push('\n');
        stream.write_all(line.as_bytes()).unwrap();
        match read_event(&mut reader) {
            mlc_serve::Event::Done { grid, .. } => break grid,
            mlc_serve::Event::Error {
                retryable: false, ..
            } => {
                // "no completed result" yet: keep polling.
                assert!(Instant::now() < fetch_deadline, "job never landed");
                std::thread::sleep(Duration::from_millis(50));
            }
            other => panic!("expected done/error, got {other:?}"),
        }
    };
    assert_eq!(grid.sizes.len(), 2);
    fixture.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn half_line_staller_is_reaped_at_the_io_timeout() {
    let root = temp_root("staller");
    let mut config = ServerConfig::new(&root);
    config.io_timeout = Some(Duration::from_millis(200));
    let fixture = NetFixture::start(&root, config);

    let (mut stream, mut reader) = fixture.connect();
    expect_hello(&mut reader);
    // Half a request, then silence: the daemon must reap us, not wait.
    stream.write_all(b"{\"op\":\"pi").unwrap();
    let mut rest = String::new();
    let start = Instant::now();
    let n = reader.read_line(&mut rest).unwrap();
    assert_eq!(n, 0, "server must close the stalled connection");
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "reap must happen at the timeout, not eventually"
    );

    // The daemon itself is fine afterwards.
    let (mut stream, mut reader) = fixture.connect();
    expect_hello(&mut reader);
    let mut line = mlc_serve::Request::Ping.to_line();
    line.push('\n');
    stream.write_all(line.as_bytes()).unwrap();
    match read_event(&mut reader) {
        mlc_serve::Event::Pong { .. } => {}
        other => panic!("expected pong, got {other:?}"),
    }
    fixture.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn over_cap_connections_get_a_typed_overloaded_rejection() {
    let root = temp_root("overcap");
    let mut config = ServerConfig::new(&root);
    config.max_handlers = 1;
    config.io_timeout = Some(Duration::from_millis(500));
    let fixture = NetFixture::start(&root, config);

    // First connection occupies the only handler slot.
    let (_held_stream, mut held_reader) = fixture.connect();
    expect_hello(&mut held_reader);

    // Second connection must be rejected with `overloaded`, not queued.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_s, mut reader) = fixture.connect();
        match read_event(&mut reader) {
            mlc_serve::Event::Overloaded { reason } => {
                assert!(reason.contains("handler pool full"));
                break;
            }
            // The held handler may have been reaped already (its read
            // timed out); then we *became* the one handler. Retry until
            // we observe a rejection or give up.
            mlc_serve::Event::Hello { .. } => {
                assert!(
                    Instant::now() < deadline,
                    "never saw an overloaded rejection"
                );
            }
            other => panic!("expected overloaded or hello, got {other:?}"),
        }
    }
    assert!(fixture.server.stats().jobs_shed >= 1);
    fixture.stop();
    let _ = std::fs::remove_dir_all(&root);
}
