//! Properties of the daemon's one instrument: concurrent spans land
//! whole in their stage histograms under unique ids, and every count
//! the `mlc-stats/1` document reports is the matching `serve.*`
//! counter of the server's metrics handle.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mlc_obs::json::JsonValue;
use mlc_obs::{Metrics, Stage};
use mlc_serve::{
    job_key, key_stem, stage_metric, DiskStore, FaultInjector, JobEvent, JobSpec, Server,
    ServerConfig, ServerStats, SubmitError, SubmitOutcome, SubmitRequest, Tier,
};

mod common;
use common::{request, temp_root, write_trace, SIZES};

/// Eight "jobs" record spans concurrently, each under its own trace id
/// and its own mix of stages. Afterwards the retained spans are the
/// oracle: their ids are exactly the ids minted, and per stage their
/// count, duration sum and maximum are the stage histogram's.
#[test]
fn concurrent_spans_land_whole_in_their_stage_histograms() {
    const JOBS: usize = 8;
    const SPANS_PER_JOB: usize = 400;
    let metrics = Metrics::enabled();
    let stats = ServerStats::new(metrics.clone(), JOBS * SPANS_PER_JOB);
    std::thread::scope(|scope| {
        for j in 0..JOBS {
            let stats = &stats;
            scope.spawn(move || {
                let t0 = Instant::now() - Duration::from_micros(j as u64);
                for i in 0..SPANS_PER_JOB {
                    // Each job cycles the stages in its own order, so
                    // every histogram sees a concurrent mix of writers.
                    let stage = Stage::ALL[(i + j) % Stage::COUNT];
                    stats.record_span(stage, &format!("trc-job-{j}"), t0);
                }
            });
        }
    });

    let total = (JOBS * SPANS_PER_JOB) as u64;
    assert_eq!(stats.spans_recorded(), total);
    let spans = stats.retained_spans();
    assert_eq!(spans.len() as u64, total, "retention saw every span");
    let ids: BTreeSet<u64> = spans.iter().map(|s| s.span_id).collect();
    assert_eq!(ids, (0..total).collect(), "ids are unique and all minted");

    let snap = metrics.snapshot();
    for &stage in &Stage::ALL {
        let durations: Vec<u64> = spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.dur_us)
            .collect();
        let hist = snap
            .hist(&stage_metric(stage))
            .unwrap_or_else(|| panic!("{stage:?} has no histogram"));
        assert_eq!(hist.count(), durations.len() as u64, "{stage:?} count");
        assert_eq!(
            hist.sum(),
            durations.iter().map(|&d| u128::from(d)).sum::<u128>(),
            "{stage:?} sum"
        );
        assert_eq!(hist.max(), durations.iter().copied().max().unwrap_or(0));
    }
}

/// The tier that answers `req` from cache; panics if it computes.
fn hit_tier(server: &Arc<Server>, req: &SubmitRequest) -> Tier {
    match server.submit(req).unwrap() {
        SubmitOutcome::Cached { tier, .. } => tier,
        SubmitOutcome::Running(sub) => loop {
            match sub.events.recv().expect("job must terminate") {
                JobEvent::Progress { .. } => {}
                JobEvent::Done(done) => {
                    done.result.expect("job must succeed");
                    panic!("expected a cache hit, the job computed")
                }
            }
        },
    }
}

fn compute(server: &Arc<Server>, req: &SubmitRequest) {
    let SubmitOutcome::Running(sub) = server.submit(req).unwrap() else {
        panic!("expected a computed job, got a cache hit");
    };
    loop {
        if let JobEvent::Done(done) = sub.events.recv().expect("job must terminate") {
            done.result.expect("job must succeed");
            return;
        }
    }
}

fn count(doc: &JsonValue, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(doc, |v, k| v.get(k))
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("stats document lacks {}", path.join(".")))
}

/// After a recovery that resumes one spooled job and heals two spool
/// orphans, a memory hit, a computed job, a disk hit and a shed, the
/// `mlc-stats/1` document and the metrics handle agree on every count.
#[test]
fn stats_document_counts_are_the_metrics_counters() {
    let root = temp_root("one_instrument");
    let trace = write_trace(&root, 20_000);
    let store = root.join("store");
    let (req_a, req_b) = (request(&trace, SIZES), request(&trace, &[65536, 131072]));

    // A job whose commit fails leaves its complete journal spooled.
    let chaos = FaultInjector::none();
    chaos.arm_commit_fail(1);
    let mut config = ServerConfig::new(&store);
    config.chaos = chaos;
    let SubmitOutcome::Running(sub) = Server::new(config).unwrap().submit(&req_a).unwrap() else {
        panic!("empty store cannot hit");
    };
    while !matches!(sub.events.recv().unwrap(), JobEvent::Done(_)) {}

    // Two orphans: a spec whose journal never landed (the spool scan
    // heals it) and a stranded spec temp file (the janitor's).
    let disk = DiskStore::open(&store).unwrap();
    let orphan_key = job_key(&mlc_obs::JournalHeader {
        trace_digest: "fnv1a64:00000000000000ab".into(),
        engine: "onepass".into(),
        l1_bytes: 4096,
        warmup: 0,
        ways: 1,
        sizes: vec![16384],
        cycles: vec![1],
        trace_id: None,
    });
    let orphan = JobSpec {
        key: orphan_key.clone(),
        trace: trace.clone(),
    };
    disk.write_job_spec(key_stem(&orphan_key).unwrap(), &orphan)
        .unwrap();
    std::fs::write(store.join("jobs").join("00000000000000cd.job.1.tmp"), "{").unwrap();

    let mut config = ServerConfig::new(&store);
    config.mem_entries = 1;
    let server = Server::new(config).unwrap();
    let report = server.recover();
    assert_eq!(report.resumed.len(), 1, "errors: {:?}", report.errors);
    assert!(
        server.drain(Duration::from_secs(60)),
        "recovered job finished"
    );
    assert_eq!(hit_tier(&server, &req_a), Tier::Memory);
    compute(&server, &req_b);
    // B took the one memory slot, so A now answers from disk.
    assert_eq!(hit_tier(&server, &req_a), Tier::Disk);
    server.shutdown();
    assert!(matches!(
        server.submit(&req_b),
        Err(SubmitError::Overloaded(_))
    ));

    let doc = server.stats_doc("test");
    let snap = server.metrics().snapshot();
    let pairs: [(&[&str], &str); 14] = [
        (&["counters", "jobs_computed"], "serve.jobs_computed"),
        (&["counters", "jobs_recovered"], "serve.jobs_recovered"),
        (&["counters", "jobs_coalesced"], "serve.jobs_coalesced"),
        (&["counters", "jobs_shed"], "serve.jobs_shed"),
        (&["counters", "jobs_timeout"], "serve.jobs_timeout"),
        (&["counters", "spool_orphans"], "serve.spool_orphans"),
        (&["counters", "events_dropped"], "serve.events_dropped"),
        (&["counters", "conns_rejected"], "serve.conns_rejected"),
        (&["counters", "accept_errors"], "serve.accept_errors"),
        (&["tiers", "memory", "hits"], "serve.mem_hits"),
        (&["tiers", "disk", "hits"], "serve.disk_hits"),
        (&["tiers", "disk", "evictions"], "serve.disk_evictions"),
        (
            &["tiers", "disk", "evicted_bytes"],
            "serve.disk_evicted_bytes",
        ),
        (&["tiers", "misses"], "serve.misses"),
    ];
    let disagreements: Vec<String> = pairs
        .iter()
        .filter(|(path, name)| count(&doc, path) != snap.counter(name))
        .map(|(path, name)| {
            format!(
                "{} = {} but {name} = {}",
                path.join("."),
                count(&doc, path),
                snap.counter(name)
            )
        })
        .collect();
    assert!(disagreements.is_empty(), "{disagreements:#?}");

    // The scenario really exercised every counter it claims to.
    let expected = [
        ("serve.jobs_computed", 2),
        ("serve.jobs_recovered", 1),
        ("serve.spool_orphans", 2),
        ("serve.mem_hits", 1),
        ("serve.disk_hits", 1),
        ("serve.misses", 1),
        ("serve.jobs_shed", 1),
    ];
    for (name, want) in expected {
        assert_eq!(snap.counter(name), want, "{name}");
    }
    let _ = std::fs::remove_dir_all(&root);
}
