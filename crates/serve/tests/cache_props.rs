//! Result-cache properties: hit-at-any-level, disk→memory backfill,
//! LRU bounds, and self-verifying (self-healing) disk loads.
//!
//! These tests fabricate committed cache entries directly with the
//! journal writer — the on-disk artifact *is* a completed
//! `mlc-journal/1` file, so the cache must accept exactly what a sweep
//! would have produced and reject everything else.

use std::sync::Arc;

use mlc_obs::{JournalHeader, JournalRow, JournalWriter};
use mlc_serve::{grid_to_json, job_key, key_stem, DiskStore, MemoryLru, ResultCache, Tier};

mod common;
use common::temp_root;

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
            l2_global: f64::NAN,
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

/// Writes a complete committed entry for `header` and returns its key.
fn commit_entry(store: &DiskStore, header: &JournalHeader) -> String {
    let key = job_key(header);
    let path = store.cache_path(key_stem(&key).unwrap());
    let mut w = JournalWriter::create(&path, header).unwrap();
    for row in rows() {
        w.append_row(&row).unwrap();
    }
    key
}

#[test]
fn disk_hit_backfills_memory() {
    let root = temp_root("backfill");
    let cache = ResultCache::new(DiskStore::open(&root).unwrap(), 4);
    let key = commit_entry(cache.disk(), &header(1));

    assert_eq!(cache.mem_entries(), 0);
    let (grid, tier) = cache.lookup(&key).expect("committed entry must hit");
    assert_eq!(tier, Tier::Disk);
    assert_eq!(cache.mem_entries(), 1, "disk hit must backfill memory");
    // NaN miss ratios survive the journal round trip bit-exactly.
    assert!(grid.l2_local[0].to_bits() == 0.25f64.to_bits() && grid.l2_global[0].is_nan());
    assert_eq!(grid.total, vec![vec![100, 200], vec![90, 180]]);

    let (grid2, tier2) = cache.lookup(&key).unwrap();
    assert_eq!(tier2, Tier::Memory, "second lookup must hit the fast tier");
    assert_eq!(
        grid_to_json(&grid).to_string_compact(),
        grid_to_json(&grid2).to_string_compact(),
        "tiers must answer bit-identically"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn memory_tier_stays_within_its_bound() {
    let root = temp_root("lru");
    let cache = ResultCache::new(DiskStore::open(&root).unwrap(), 1);
    let key_a = commit_entry(cache.disk(), &header(0xa));
    let key_b = commit_entry(cache.disk(), &header(0xb));
    assert_ne!(key_a, key_b);
    assert_eq!(cache.disk_entries(), 2);

    assert_eq!(cache.lookup(&key_a).unwrap().1, Tier::Disk);
    assert_eq!(cache.lookup(&key_b).unwrap().1, Tier::Disk);
    assert_eq!(cache.mem_entries(), 1, "LRU must evict down to capacity");
    // A was evicted from memory but is still safe on disk.
    assert_eq!(cache.lookup(&key_a).unwrap().1, Tier::Disk);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn corrupt_disk_entry_is_evicted_not_served() {
    let root = temp_root("corrupt");
    let cache = ResultCache::new(DiskStore::open(&root).unwrap(), 4);
    let key = commit_entry(cache.disk(), &header(2));
    let path = cache.disk().cache_path(key_stem(&key).unwrap());
    let mut bytes = std::fs::read(&path).unwrap();
    let idx = bytes.len() - 12;
    bytes[idx] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    assert!(
        cache.lookup(&key).is_none(),
        "corruption must not be served"
    );
    assert!(!path.exists(), "bad entry must self-evict");
    assert_eq!(cache.disk_entries(), 0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn misfiled_entry_fails_key_verification() {
    let root = temp_root("misfiled");
    let cache = ResultCache::new(DiskStore::open(&root).unwrap(), 4);
    // A perfectly valid journal... filed under some other job's name.
    let h = header(3);
    let wrong_key = job_key(&header(4));
    let path = cache.disk().cache_path(key_stem(&wrong_key).unwrap());
    let mut w = JournalWriter::create(&path, &h).unwrap();
    for row in rows() {
        w.append_row(&row).unwrap();
    }
    drop(w);

    assert!(
        cache.lookup(&wrong_key).is_none(),
        "key re-derivation must reject a misfiled entry"
    );
    assert!(!path.exists());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn incomplete_entry_is_a_miss() {
    let root = temp_root("incomplete");
    let cache = ResultCache::new(DiskStore::open(&root).unwrap(), 4);
    let h = header(5);
    let key = job_key(&h);
    let path = cache.disk().cache_path(key_stem(&key).unwrap());
    let mut w = JournalWriter::create(&path, &h).unwrap();
    w.append_row(&rows()[0]).unwrap(); // row 1 missing
    drop(w);

    assert!(
        cache.lookup(&key).is_none(),
        "a committed entry must cover every grid row"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn lru_eviction_order_is_recency() {
    let grid = |tag: u64| {
        Arc::new(mlc_core::DesignGrid {
            sizes: vec![mlc_cache::ByteSize::kib(16)],
            cycles: vec![1],
            ways: 1,
            total: vec![vec![tag]],
            l2_local: vec![0.5],
            l2_global: vec![0.25],
            m_l1_global: 0.1,
            cpu_cycle_ns: 10.0,
        })
    };
    let mut lru = MemoryLru::new(3);
    for (k, t) in [("a", 1), ("b", 2), ("c", 3)] {
        lru.put(k, grid(t));
    }
    assert!(lru.get("a").is_some()); // a is now MRU; b is LRU
    lru.put("d", grid(4));
    assert!(lru.get("b").is_none(), "least-recently-used must go first");
    assert_eq!(lru.len(), 3);
}
