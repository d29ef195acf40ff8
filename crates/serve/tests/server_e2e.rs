//! End-to-end server behaviour with real (synthetic) traces and real
//! sweeps: cold compute, tier promotion across restarts, single-flight
//! deduplication, and kill-then-recover resumption — all asserting
//! bit-identical grids via the wire encoding.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mlc_core::DesignGrid;
use mlc_obs::{digest_records_hex, JournalHeader, JournalRow, JournalWriter};
use mlc_serve::{
    grid_to_json, job_key, key_stem, DiskStore, JobEvent, JobSpec, JobStatus, Server, ServerConfig,
    SubmitError, SubmitOutcome, SubmitRequest, Tier,
};
use mlc_trace::{FaultPolicy, TraceRecord};

mod common;
use common::{request, temp_root, trace_records, write_trace, SIZES};

fn server(root: &Path, row_delay: Duration) -> Arc<Server> {
    let mut config = ServerConfig::new(root);
    config.row_delay = row_delay;
    Server::new(config).unwrap()
}

/// Follows a submission's event stream to its terminal grid.
fn drain(events: &std::sync::mpsc::Receiver<JobEvent>) -> Arc<DesignGrid> {
    loop {
        match events.recv().expect("job must terminate") {
            JobEvent::Progress { .. } => {}
            JobEvent::Done(done) => return done.result.expect("job must succeed"),
        }
    }
}

fn grid_bits(grid: &DesignGrid) -> String {
    grid_to_json(grid).to_string_compact()
}

#[test]
fn cold_compute_then_cache_hits_are_bit_identical() {
    let root = temp_root("cold");
    let trace = write_trace(&root, 20_000);
    let server = server(&root.join("store"), Duration::ZERO);

    let cold = match server.submit(&request(&trace, SIZES)).unwrap() {
        SubmitOutcome::Running(sub) => {
            assert!(!sub.coalesced);
            assert_eq!(sub.rows_total, 2);
            assert_eq!(sub.rows_resumed, 0);
            drain(&sub.events)
        }
        SubmitOutcome::Cached { .. } => panic!("empty store cannot hit"),
    };
    assert_eq!(server.stats().jobs_computed, 1);
    assert_eq!(server.stats().disk_entries, 1);

    // Same submission again: memory tier, bit-identical.
    match server.submit(&request(&trace, SIZES)).unwrap() {
        SubmitOutcome::Cached { grid, tier, .. } => {
            assert_eq!(tier, Tier::Memory);
            assert_eq!(grid_bits(&cold), grid_bits(&grid));
        }
        SubmitOutcome::Running(_) => panic!("completed job must be cached"),
    }
    assert_eq!(server.stats().jobs_computed, 1, "no second simulation");

    // A fresh server over the same store: disk tier first, then memory.
    let restarted = self::server(&root.join("store"), Duration::ZERO);
    match restarted.submit(&request(&trace, SIZES)).unwrap() {
        SubmitOutcome::Cached {
            grid, tier, key, ..
        } => {
            assert_eq!(tier, Tier::Disk);
            assert_eq!(grid_bits(&cold), grid_bits(&grid));
            assert_eq!(restarted.status(&key), JobStatus::CachedMemory);
        }
        SubmitOutcome::Running(_) => panic!("committed result must survive restart"),
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn identical_inflight_submissions_coalesce_to_one_simulation() {
    let root = temp_root("single_flight");
    let trace = write_trace(&root, 20_000);
    // The row delay keeps the leader in flight while the follower submits.
    let server = server(&root.join("store"), Duration::from_millis(300));

    let leader = match server.submit(&request(&trace, SIZES)).unwrap() {
        SubmitOutcome::Running(sub) => sub,
        SubmitOutcome::Cached { .. } => panic!("empty store cannot hit"),
    };
    let follower = match server.submit(&request(&trace, SIZES)).unwrap() {
        SubmitOutcome::Running(sub) => sub,
        SubmitOutcome::Cached { .. } => panic!("leader still in flight"),
    };
    assert!(!leader.coalesced);
    assert!(
        follower.coalesced,
        "identical in-flight submission must attach"
    );
    assert_eq!(leader.key, follower.key);

    let a = drain(&leader.events);
    let b = drain(&follower.events);
    assert_eq!(
        grid_bits(&a),
        grid_bits(&b),
        "subscribers must agree bitwise"
    );
    let stats = server.stats();
    assert_eq!(stats.jobs_computed, 1, "single-flight: one simulation");
    assert_eq!(stats.jobs_coalesced, 1);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn recovery_resumes_interrupted_job_bit_identically() {
    let root = temp_root("recover");
    let trace = write_trace(&root, 20_000);

    // Reference: the uninterrupted answer.
    let ref_server = server(&root.join("ref_store"), Duration::ZERO);
    let reference = match ref_server.submit(&request(&trace, SIZES)).unwrap() {
        SubmitOutcome::Running(sub) => drain(&sub.events),
        SubmitOutcome::Cached { .. } => panic!("empty store cannot hit"),
    };

    // Fabricate the exact on-disk state a `kill -9` after the first
    // committed row leaves behind: spec sidecar + journal with row 0.
    // (An in-process "crash" can't actually kill the worker thread, so
    // building the spool directly is the deterministic equivalent; the
    // ci.sh smoke kills a real daemon.) The header must be byte-for-
    // byte what a live submission derives, so build it the same way.
    let crash_root = root.join("crash_store");
    let records = mlc_trace::read_trace_file(&trace, FaultPolicy::Fail)
        .unwrap()
        .0;
    let req = request(&trace, SIZES);
    let header = JournalHeader {
        trace_digest: digest_records_hex(&records),
        engine: req.engine.clone(),
        l1_bytes: req.l1_bytes,
        warmup: (records.len() as f64 * req.warmup_frac) as u64,
        ways: req.ways,
        sizes: req.sizes.clone(),
        cycles: req.cycles.clone(),
        trace_id: Some("trc-e2e-crash".into()),
    };
    let key = job_key(&header);
    let stem = key_stem(&key).unwrap();
    let disk = DiskStore::open(&crash_root).unwrap();
    disk.write_job_spec(
        stem,
        &JobSpec {
            key: key.clone(),
            trace: trace.clone(),
        },
    )
    .unwrap();
    let mut writer = JournalWriter::create(&disk.job_journal_path(stem), &header).unwrap();
    writer
        .append_row(&JournalRow {
            row: 0,
            total: reference.total[0].clone(),
            l2_local: reference.l2_local[0],
            l2_global: reference.l2_global[0],
            m_l1_global: reference.m_l1_global,
            cpu_cycle_ns: reference.cpu_cycle_ns,
        })
        .unwrap();
    drop(writer);

    // Restart over the spool. recover() must resume the journal rather
    // than recompute from scratch, and must converge on the same bits.
    let restarted = server(&crash_root, Duration::ZERO);
    let report = restarted.recover();
    assert_eq!(
        report.resumed,
        vec![key.clone()],
        "errors: {:?}",
        report.errors
    );
    assert_eq!(restarted.stats().jobs_recovered, 1);

    let deadline = Instant::now() + Duration::from_secs(60);
    let resumed = loop {
        if let Some((grid, _)) = restarted.fetch(&key) {
            break grid;
        }
        assert!(Instant::now() < deadline, "resumed job never finished");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(
        grid_bits(&reference),
        grid_bits(&resumed),
        "resumed sweep must be bit-identical to the uninterrupted one"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// The tracing tentpole, end to end: one trace id follows a submission
/// through the ack, a coalesced follower's stream, the committed
/// journal header, and the Perfetto span export.
#[test]
fn trace_id_follows_the_job_through_events_journal_and_spans() {
    let root = temp_root("trace_ctx");
    let trace = write_trace(&root, 20_000);
    let mut config = ServerConfig::new(root.join("store"));
    config.row_delay = Duration::from_millis(300);
    config.span_retention = 4096;
    let server = Server::new(config).unwrap();

    let leader_id = "trc-e2e-leader";
    let mut req = request(&trace, SIZES);
    req.trace_id = leader_id.into();
    let leader = match server.submit(&req).unwrap() {
        SubmitOutcome::Running(sub) => sub,
        SubmitOutcome::Cached { .. } => panic!("empty store cannot hit"),
    };
    assert_eq!(leader.trace_id, leader_id, "ack echoes the caller's id");

    // A follower with no context of its own inherits the running
    // job's id; one with its own context keeps it.
    let follower = match server.submit(&request(&trace, SIZES)).unwrap() {
        SubmitOutcome::Running(sub) => sub,
        SubmitOutcome::Cached { .. } => panic!("leader still in flight"),
    };
    assert!(follower.coalesced);
    assert_eq!(
        follower.trace_id, leader_id,
        "bare follower adopts the job's trace id"
    );
    let mut tagged = request(&trace, SIZES);
    tagged.trace_id = "trc-e2e-follower".into();
    let tagged = match server.submit(&tagged).unwrap() {
        SubmitOutcome::Running(sub) => sub,
        SubmitOutcome::Cached { .. } => panic!("leader still in flight"),
    };
    assert_eq!(tagged.trace_id, "trc-e2e-follower");

    let key = leader.key.clone();
    drain(&leader.events);
    drain(&follower.events);
    drain(&tagged.events);

    // The committed journal header carries the submitter's id.
    let stem = key_stem(&key).unwrap();
    let store = DiskStore::open(&root.join("store")).unwrap();
    let journal = mlc_obs::read_journal(&store.cache_path(stem)).unwrap();
    assert_eq!(journal.header.trace_id.as_deref(), Some(leader_id));

    // The retained spans cover the job's lifecycle under the same id,
    // and the Perfetto export names it.
    let spans = server.telemetry().retained_spans();
    let stages: Vec<_> = spans
        .iter()
        .filter(|s| s.trace_id == leader_id)
        .map(|s| s.stage)
        .collect();
    for stage in [
        mlc_obs::Stage::Admission,
        mlc_obs::Stage::Key,
        mlc_obs::Stage::MemLookup,
        mlc_obs::Stage::DiskLookup,
        mlc_obs::Stage::Simulate,
        mlc_obs::Stage::JournalCommit,
        mlc_obs::Stage::Evict,
    ] {
        assert!(
            stages.contains(&stage),
            "leader id must label {stage:?}; got {stages:?}"
        );
    }
    let mut perfetto = Vec::new();
    mlc_obs::write_span_chrome_trace(&mut perfetto, &spans).unwrap();
    let perfetto = String::from_utf8(perfetto).unwrap();
    assert!(perfetto.contains(leader_id), "Perfetto export names the id");
    assert!(perfetto.contains("mlc-serve-spans/1"));

    // Invalid ids are rejected as such, not minted over.
    let mut bad = request(&trace, SIZES);
    bad.trace_id = "no spaces allowed".into();
    assert!(matches!(
        server.submit(&bad),
        Err(mlc_serve::SubmitError::Invalid(_))
    ));
    let _ = std::fs::remove_dir_all(&root);
}

/// A `Skip` server reads a damaged trace the way `--trace-faults
/// skip:N` does on the CLI: the malformed lines land in the
/// `<trace>.quarantine` sidecar, and a `.ctx` companion names the
/// submission that ingested them. A `Fail` server rejects the same
/// submission as invalid.
#[test]
fn skip_policy_quarantines_malformed_lines_and_stamps_the_submission() {
    let root = temp_root("quarantine");
    let trace = write_trace(&root, 4_000);
    let mut text = std::fs::read_to_string(&trace).unwrap();
    text.push_str("not a record\n3 zz\n");
    std::fs::write(&trace, text).unwrap();

    let mut config = ServerConfig::new(root.join("store"));
    config.trace_faults = FaultPolicy::Skip { budget: 4 };
    let skipping = Server::new(config).unwrap();
    let mut req = request(&trace, SIZES);
    req.trace_id = "trc-e2e-quarantine".into();
    match skipping.submit(&req).unwrap() {
        SubmitOutcome::Running(sub) => drain(&sub.events),
        SubmitOutcome::Cached { .. } => panic!("empty store cannot hit"),
    };

    let sidecar = mlc_trace::quarantine_path(&trace);
    let quarantined = std::fs::read_to_string(&sidecar).unwrap();
    assert_eq!(
        quarantined, "line 4001: not a record\nline 4002: 3 zz\n",
        "sidecar holds exactly the malformed lines"
    );
    let mut ctx = sidecar.into_os_string();
    ctx.push(".ctx");
    let ctx = std::fs::read_to_string(ctx).unwrap();
    assert!(ctx.contains("\"trace_id\":\"trc-e2e-quarantine\""), "{ctx}");
    assert!(ctx.contains("\"quarantined\":2"), "{ctx}");

    let strict = server(&root.join("strict_store"), Duration::ZERO);
    assert!(matches!(strict.submit(&req), Err(SubmitError::Invalid(_))));
    let _ = std::fs::remove_dir_all(&root);
}

/// A hit reads its trace under the same fault policy as a miss, so a
/// `Skip` hit still leaves the quarantine sidecar and a `.ctx`
/// companion naming the submission that hit.
#[test]
fn skip_policy_hit_still_quarantines_and_stamps_the_hit() {
    let root = temp_root("quarantine_hit");
    let trace = write_trace(&root, 4_000);
    let mut text = std::fs::read_to_string(&trace).unwrap();
    text.push_str("not a record\n3 zz\n");
    std::fs::write(&trace, text).unwrap();
    let mut config = ServerConfig::new(root.join("store"));
    config.trace_faults = FaultPolicy::Skip { budget: 4 };
    let skipping = Server::new(config).unwrap();
    let mut req = request(&trace, SIZES);
    req.trace_id = "trc-e2e-miss".into();
    computed(&skipping, &req);

    let sidecar = mlc_trace::quarantine_path(&trace);
    let mut ctx = sidecar.clone().into_os_string();
    ctx.push(".ctx");
    std::fs::remove_file(&sidecar).unwrap();
    std::fs::remove_file(&ctx).unwrap();
    req.trace_id = "trc-e2e-hit".into();
    match skipping.submit(&req).unwrap() {
        SubmitOutcome::Cached { tier, .. } => assert_eq!(tier, Tier::Memory),
        SubmitOutcome::Running(_) => panic!("completed job must be cached"),
    }
    assert_eq!(
        std::fs::read_to_string(&sidecar).unwrap(),
        "line 4001: not a record\nline 4002: 3 zz\n"
    );
    let ctx = std::fs::read_to_string(ctx).unwrap();
    assert!(ctx.contains("\"trace_id\":\"trc-e2e-hit\""), "{ctx}");
    assert!(ctx.contains("\"quarantined\":2"), "{ctx}");
    let _ = std::fs::remove_dir_all(&root);
}

/// Submits `req` and follows it to its grid, asserting that the server
/// started a job for it. Returns the key and the grid.
fn computed(server: &Arc<Server>, req: &SubmitRequest) -> (String, Arc<DesignGrid>) {
    match server.submit(req).unwrap() {
        SubmitOutcome::Running(sub) => {
            assert!(!sub.coalesced);
            (sub.key.clone(), drain(&sub.events))
        }
        SubmitOutcome::Cached { tier, .. } => panic!("expected a computed job, got a {tier:?} hit"),
    }
}

/// A trace rewritten in place with the same length and different
/// records is a different trace: its next submission gets a new key
/// and is computed, bit for bit as a fresh server computes it. Checked
/// for the text layout and the delta-compressed binary one.
#[test]
fn a_trace_rewritten_in_place_gets_a_new_key_and_is_recomputed() {
    let root = temp_root("rewrite");
    let records = trace_records(6_000);
    let encode = |ext: &str, records: &[TraceRecord]| {
        let path = root.join(format!("encoded.{ext}"));
        mlc_trace::write_trace_file(&path, records).unwrap();
        std::fs::read(path).unwrap()
    };
    for ext in ["din", "mlcz"] {
        let path = root.join(format!("trace.{ext}"));
        let before = encode(ext, &records);
        std::fs::write(&path, &before).unwrap();
        // The same records but the last address, encoded to the same
        // length.
        let after = (1..64u64)
            .find_map(|d| {
                let mut changed = records.clone();
                let last = changed.last_mut().unwrap();
                last.addr = last.addr.wrapping_add(4 * d);
                let bytes = encode(ext, &changed);
                (bytes.len() == before.len()).then_some(bytes)
            })
            .expect("a same-length rewrite");
        assert_ne!(before, after);

        let server = server(&root.join(format!("store_{ext}")), Duration::ZERO);
        let req = request(&path, SIZES);
        let (old_key, _) = computed(&server, &req);
        // `fs::write` truncates and rewrites the same file.
        std::fs::write(&path, &after).unwrap();
        let (new_key, grid) = computed(&server, &req);
        assert_ne!(old_key, new_key, "{ext}: new content, new key");
        assert_eq!(server.stats().jobs_computed, 2, "{ext}");

        let fresh = self::server(&root.join(format!("fresh_{ext}")), Duration::ZERO);
        let (fresh_key, want) = computed(&fresh, &req);
        assert_eq!(new_key, fresh_key, "{ext}");
        assert_eq!(grid_bits(&grid), grid_bits(&want), "{ext}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The key names records, not bytes: an `.mlcz` copy of a `.din` trace
/// gets the same key and is answered from the memory tier. Only the
/// cold submission decodes the trace into records; its hits, in either
/// format, decode none.
#[test]
fn an_mlcz_copy_shares_the_key_and_hits_decode_no_records() {
    let root = temp_root("formats");
    let din = write_trace(&root, 6_000);
    let mlcz = root.join("trace.mlcz");
    mlc_trace::write_trace_file(&mlcz, &trace_records(6_000)).unwrap();
    let server = server(&root.join("store"), Duration::ZERO);

    let (key, cold) = computed(&server, &request(&din, SIZES));
    for path in [&din, &mlcz, &mlcz] {
        match server.submit(&request(path, SIZES)).unwrap() {
            SubmitOutcome::Cached {
                key: hit,
                grid,
                tier,
                ..
            } => {
                assert_eq!(hit, key, "{}", path.display());
                assert_eq!(tier, Tier::Memory, "{}", path.display());
                assert_eq!(grid_bits(&grid), grid_bits(&cold));
            }
            SubmitOutcome::Running(_) => panic!("{} must hit", path.display()),
        }
    }
    let stats = server.stats();
    assert_eq!((stats.jobs_computed, stats.mem_hits), (1, 3));
    assert_eq!(stats.trace_decodes, 1, "the hits decoded no records");
    let doc = server.stats_doc("test");
    let decodes = doc
        .get("counters")
        .and_then(|c| c.get("trace_decodes"))
        .and_then(|v| v.as_u64());
    assert_eq!(decodes, Some(1));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn unknown_keys_and_invalid_submissions_answer_cleanly() {
    let root = temp_root("unknown");
    let trace = write_trace(&root, 4_000);
    let server = server(&root.join("store"), Duration::ZERO);

    let bogus = "fnv1a64:00000000000000aa";
    assert_eq!(server.status(bogus), JobStatus::Unknown);
    assert!(server.fetch(bogus).is_none());

    let mut bad_engine = request(&trace, SIZES);
    bad_engine.engine = "warp".into();
    assert!(server.submit(&bad_engine).is_err());

    let mut empty_grid = request(&trace, SIZES);
    empty_grid.sizes.clear();
    assert!(server.submit(&empty_grid).is_err());

    let mut missing_trace = request(&trace, SIZES);
    missing_trace.trace = root.join("no_such.din");
    assert!(server.submit(&missing_trace).is_err());
    let _ = std::fs::remove_dir_all(&root);
}
