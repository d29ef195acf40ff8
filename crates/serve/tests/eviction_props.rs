//! Disk-tier eviction invariants: the committed tier never exceeds its
//! byte budget (beyond a single over-budget artifact), eviction is
//! LRU-by-mtime oldest-first, in-flight spool entries are never
//! touched, the just-committed entry survives its own commit, the
//! janitor clears exactly the kill-9 leftovers — and a cache rebuilt
//! after eviction still answers **bit-identically** from recompute
//! (sim-vs-cache oracle, in the style of the sim-vs-bounds tests).

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, SystemTime};

use mlc_obs::{JournalHeader, JournalRow, JournalWriter};
use mlc_serve::{
    grid_to_json, job_key, key_stem, DiskStore, EvictReport, FaultInjector, JobEvent, JobSpec,
    Server, ServerConfig, SubmitOutcome, SubmitRequest,
};

mod common;
use common::{request, temp_root, write_trace, SIZES};

fn header(tag: u64) -> JournalHeader {
    JournalHeader {
        trace_digest: format!("fnv1a64:{tag:016x}"),
        engine: "onepass".into(),
        l1_bytes: 4096,
        warmup: 1000,
        ways: 1,
        sizes: vec![16384, 32768],
        cycles: vec![1, 4],
        trace_id: None,
    }
}

fn rows() -> Vec<JournalRow> {
    vec![
        JournalRow {
            row: 0,
            total: vec![100, 200],
            l2_local: 0.25,
            l2_global: 0.5,
            m_l1_global: 0.5,
            cpu_cycle_ns: 10.0,
        },
        JournalRow {
            row: 1,
            total: vec![90, 180],
            l2_local: 0.125,
            l2_global: 0.0625,
            m_l1_global: 0.5,
            cpu_cycle_ns: 10.0,
        },
    ]
}

/// Spools a complete journal (plus spec) for `header` into `jobs/`, as
/// a finished-but-uncommitted job would leave it. Returns the key.
fn spool_entry(store: &DiskStore, header: &JournalHeader) -> String {
    let key = job_key(header);
    let stem = key_stem(&key).unwrap();
    store
        .write_job_spec(
            stem,
            &JobSpec {
                key: key.clone(),
                trace: PathBuf::from("/nonexistent/trace.din"),
            },
        )
        .unwrap();
    let mut w = JournalWriter::create(&store.job_journal_path(stem), header).unwrap();
    for row in rows() {
        w.append_row(&row).unwrap();
    }
    key
}

/// Commits a spooled entry the way the server does: the rename, then
/// the eviction pass that protects the entry just committed.
fn commit(store: &DiskStore, stem: &str) -> EvictReport {
    store.commit_entry(stem).unwrap();
    store.enforce_budget(Some(stem))
}

/// Spools and commits an entry; returns its key.
fn commit_entry(store: &DiskStore, header: &JournalHeader) -> String {
    let key = spool_entry(store, header);
    commit(store, key_stem(&key).unwrap());
    key
}

/// Pins a committed entry's mtime to a chosen point in the past, so the
/// LRU order is deterministic regardless of test speed.
fn set_age(store: &DiskStore, key: &str, age: Duration) {
    let path = store.cache_path(key_stem(key).unwrap());
    let file = fs::OpenOptions::new().append(true).open(path).unwrap();
    file.set_times(fs::FileTimes::new().set_modified(SystemTime::now() - age))
        .unwrap();
}

#[test]
fn budget_is_enforced_after_every_commit() {
    let root = temp_root("budget");
    // Learn the artifact size first, so the budget is in entry units.
    let probe = DiskStore::open(&root.join("probe")).unwrap();
    commit_entry(&probe, &header(0));
    let entry_bytes = probe.disk_bytes();
    assert!(entry_bytes > 0);

    // Budget of three entries; commit eight.
    let budget = 3 * entry_bytes + entry_bytes / 2;
    let store =
        DiskStore::open_with(&root.join("store"), Some(budget), FaultInjector::none()).unwrap();
    let (mut evicted, mut evicted_bytes) = (0, 0);
    for tag in 1..=8 {
        let key = spool_entry(&store, &header(tag));
        let report = commit(&store, key_stem(&key).unwrap());
        evicted += report.evicted;
        evicted_bytes += report.evicted_bytes;
        assert!(
            store.disk_bytes() <= budget,
            "after commit {tag}: {} bytes exceeds the {budget} budget",
            store.disk_bytes()
        );
        assert!(
            store.cache_path(key_stem(&key).unwrap()).exists(),
            "a commit must never evict the entry it just created"
        );
    }
    assert_eq!(evicted, 5, "8 committed, 3 fit");
    assert_eq!(evicted_bytes, 5 * entry_bytes);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn eviction_is_lru_oldest_first_and_skips_the_spool() {
    let root = temp_root("lru");
    let probe = DiskStore::open(&root.join("probe")).unwrap();
    commit_entry(&probe, &header(0));
    let entry_bytes = probe.disk_bytes();

    let budget = 2 * entry_bytes + entry_bytes / 2;
    let store =
        DiskStore::open_with(&root.join("store"), Some(budget), FaultInjector::none()).unwrap();
    // An in-flight job sits in the spool throughout.
    let inflight = spool_entry(&store, &header(99));
    let inflight_journal = store.job_journal_path(key_stem(&inflight).unwrap());

    let old = commit_entry(&store, &header(1));
    let mid = commit_entry(&store, &header(2));
    set_age(&store, &old, Duration::from_secs(3600));
    set_age(&store, &mid, Duration::from_secs(60));
    // Third commit overflows the budget; the 1-hour-old entry must go.
    let new = commit_entry(&store, &header(3));

    let exists = |key: &str| store.cache_path(key_stem(key).unwrap()).exists();
    assert!(!exists(&old), "LRU eviction must take the oldest entry");
    assert!(exists(&mid));
    assert!(exists(&new));
    assert!(
        inflight_journal.exists(),
        "eviction must never touch in-flight spool entries"
    );
    assert!(store.disk_bytes() <= budget);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn loading_marks_an_entry_recently_used() {
    let root = temp_root("touch");
    let probe = DiskStore::open(&root.join("probe")).unwrap();
    commit_entry(&probe, &header(0));
    let entry_bytes = probe.disk_bytes();

    let budget = 2 * entry_bytes + entry_bytes / 2;
    let store =
        DiskStore::open_with(&root.join("store"), Some(budget), FaultInjector::none()).unwrap();
    let a = commit_entry(&store, &header(1));
    let b = commit_entry(&store, &header(2));
    set_age(&store, &a, Duration::from_secs(3600));
    set_age(&store, &b, Duration::from_secs(60));
    // A hit on the older entry promotes it: now B is least recent.
    assert!(store.load(&a).is_some());
    let _ = commit_entry(&store, &header(3));

    let exists = |key: &str| store.cache_path(key_stem(key).unwrap()).exists();
    assert!(exists(&a), "a loaded entry was just used; it must survive");
    assert!(!exists(&b), "the untouched entry is now the LRU victim");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn single_entry_larger_than_budget_is_kept() {
    let root = temp_root("giant");
    let store = DiskStore::open_with(&root, Some(16), FaultInjector::none()).unwrap();
    let key = commit_entry(&store, &header(1));
    assert!(
        store.cache_path(key_stem(&key).unwrap()).exists(),
        "the budget bounds the steady state, not a single artifact"
    );
    // The next commit replaces it: the older giant is evictable now.
    let key2 = commit_entry(&store, &header(2));
    assert!(store.cache_path(key_stem(&key2).unwrap()).exists());
    assert_eq!(store.disk_entries(), 1);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn janitor_removes_exactly_the_kill9_leftovers() {
    let root = temp_root("janitor");
    let store = DiskStore::open(&root).unwrap();
    // A healthy in-flight pair: journal + spec. Must survive.
    let live = spool_entry(&store, &header(7));
    let live_stem = key_stem(&live).unwrap();
    // An interrupted spec write: a stranded temp file.
    let tmp = root.join("jobs").join("0000000000000abc.job.4242.tmp");
    fs::write(&tmp, "{\"partial\":").unwrap();
    // A journal whose spec sidecar never landed: unresumable.
    let orphan = root.join("jobs").join("00000000000000ff.jsonl");
    fs::write(&orphan, "bogus journal bytes\n").unwrap();

    assert_eq!(store.janitor(), 2);
    assert!(!tmp.exists());
    assert!(!orphan.exists());
    assert!(store.job_journal_path(live_stem).exists());
    assert!(store.job_spec_path(live_stem).exists());
    // Idempotent: a second sweep finds nothing.
    assert_eq!(store.janitor(), 0);
    let _ = std::fs::remove_dir_all(&root);
}

// ---- the recompute oracle: eviction must cost time, never bits ----

fn run_to_grid(server: &Arc<Server>, req: &SubmitRequest) -> (Arc<mlc_core::DesignGrid>, bool) {
    match server.submit(req).unwrap() {
        SubmitOutcome::Running(sub) => loop {
            match sub.events.recv().expect("job must terminate") {
                JobEvent::Progress { .. } => {}
                JobEvent::Done(done) => return (done.result.expect("job must succeed"), false),
            }
        },
        SubmitOutcome::Cached { grid, .. } => (grid, true),
    }
}

#[test]
fn recompute_after_eviction_is_bit_identical() {
    let root = temp_root("oracle");
    let trace = write_trace(&root, 20_000);
    let req_a = request(&trace, SIZES);
    let req_b = request(&trace, &[65536, 131072]);

    // Reference pass, unbudgeted: learn A's bits and entry size.
    let mut config = ServerConfig::new(root.join("ref_store"));
    config.mem_entries = 8;
    let reference = Server::new(config).unwrap();
    let (grid_a, _) = run_to_grid(&reference, &req_a);
    let bits_a = grid_to_json(&grid_a).to_string_compact();
    let entry_bytes = reference.stats().disk_bytes;
    assert!(entry_bytes > 0);

    // Budgeted store: room for one entry only, so B's commit evicts A.
    let store_root = root.join("store");
    let mut config = ServerConfig::new(&store_root);
    config.disk_budget = Some(entry_bytes + entry_bytes / 2);
    let server = Server::new(config).unwrap();
    let (grid_first, cached) = run_to_grid(&server, &req_a);
    assert!(!cached);
    assert_eq!(grid_to_json(&grid_first).to_string_compact(), bits_a);
    let _ = run_to_grid(&server, &req_b);
    let stats = server.stats();
    assert_eq!(stats.disk_entries, 1, "B's commit must evict A");
    assert_eq!(stats.disk_evictions, 1);
    assert!(stats.disk_bytes <= entry_bytes + entry_bytes / 2);

    // A fresh server over the evicted store (cold memory tier): the
    // same submission recomputes — and must reproduce A bit for bit.
    let mut config = ServerConfig::new(&store_root);
    config.disk_budget = Some(entry_bytes + entry_bytes / 2);
    let rebuilt = Server::new(config).unwrap();
    let (grid_again, cached) = run_to_grid(&rebuilt, &req_a);
    assert!(!cached, "A was evicted; this must be a recompute");
    assert_eq!(
        grid_to_json(&grid_again).to_string_compact(),
        bits_a,
        "eviction must cost recompute time, never bits"
    );
    let _ = std::fs::remove_dir_all(&root);
}
