//! The two-tier result cache, in the sccache mold: a bounded in-memory
//! LRU in front of the on-disk store. A hit at any level answers
//! immediately; a disk hit is backfilled into the memory tier so the
//! next identical query is answered without touching the filesystem.

use std::sync::{Arc, Mutex};

use mlc_core::DesignGrid;

use crate::proto::Source;
use crate::store::DiskStore;

/// Which tier answered a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The in-memory LRU.
    Memory,
    /// The on-disk store (now backfilled into memory).
    Disk,
}

impl From<Tier> for Source {
    fn from(tier: Tier) -> Source {
        match tier {
            Tier::Memory => Source::Memory,
            Tier::Disk => Source::Disk,
        }
    }
}

/// A bounded most-recently-used-first cache of completed grids. Small
/// by design (entries are whole design grids); the disk tier below it
/// is the capacity store.
#[derive(Debug)]
pub struct MemoryLru {
    cap: usize,
    /// MRU at the front.
    entries: Vec<(String, Arc<DesignGrid>)>,
}

impl MemoryLru {
    /// An LRU holding at most `cap` grids (`cap = 0` disables the tier).
    pub fn new(cap: usize) -> MemoryLru {
        MemoryLru {
            cap,
            entries: Vec::new(),
        }
    }

    /// Looks up `key`, promoting a hit to most-recently-used.
    pub fn get(&mut self, key: &str) -> Option<Arc<DesignGrid>> {
        let idx = self.entries.iter().position(|(k, _)| k == key)?;
        let entry = self.entries.remove(idx);
        let grid = entry.1.clone();
        self.entries.insert(0, entry);
        Some(grid)
    }

    /// Inserts (or refreshes) `key`, evicting from the LRU end to stay
    /// within capacity.
    pub fn put(&mut self, key: &str, grid: Arc<DesignGrid>) {
        if let Some(idx) = self.entries.iter().position(|(k, _)| k == key) {
            self.entries.remove(idx);
        }
        if self.cap == 0 {
            return;
        }
        self.entries.insert(0, (key.to_owned(), grid));
        self.entries.truncate(self.cap);
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the tier is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The two-tier cache: memory LRU over the disk store.
#[derive(Debug)]
pub struct ResultCache {
    mem: Mutex<MemoryLru>,
    disk: DiskStore,
}

impl ResultCache {
    /// Builds the cache over `disk` with an in-memory tier of
    /// `mem_entries` grids.
    pub fn new(disk: DiskStore, mem_entries: usize) -> ResultCache {
        ResultCache {
            mem: Mutex::new(MemoryLru::new(mem_entries)),
            disk,
        }
    }

    /// The disk tier (for spool management and commits).
    pub fn disk(&self) -> &DiskStore {
        &self.disk
    }

    /// Hit-at-any-level lookup. A disk hit is backfilled into the
    /// memory tier before returning.
    pub fn lookup(&self, key: &str) -> Option<(Arc<DesignGrid>, Tier)> {
        if let Some(grid) = self.lookup_mem(key) {
            return Some((grid, Tier::Memory));
        }
        let grid = self.lookup_disk(key)?;
        Some((grid, Tier::Disk))
    }

    /// Memory-tier-only probe (an MRU promotion, no I/O). Split from
    /// [`ResultCache::lookup`] so the server can time and count each
    /// tier separately.
    pub fn lookup_mem(&self, key: &str) -> Option<Arc<DesignGrid>> {
        self.mem.lock().unwrap_or_else(|p| p.into_inner()).get(key)
    }

    /// Disk-tier probe; a hit is backfilled into the memory tier before
    /// returning.
    pub fn lookup_disk(&self, key: &str) -> Option<Arc<DesignGrid>> {
        let grid = Arc::new(self.disk.load(key)?);
        self.mem
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .put(key, grid.clone());
        Some(grid)
    }

    /// Records a freshly computed grid in the memory tier. (The disk
    /// tier is populated separately, by the atomic journal rename of
    /// [`DiskStore::commit_entry`].)
    pub fn insert(&self, key: &str, grid: Arc<DesignGrid>) {
        self.mem
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .put(key, grid);
    }

    /// Entries in the memory tier.
    pub fn mem_entries(&self) -> usize {
        self.mem.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Committed entries in the disk tier.
    pub fn disk_entries(&self) -> usize {
        self.disk.disk_entries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(tag: u64) -> Arc<DesignGrid> {
        Arc::new(DesignGrid {
            sizes: vec![mlc_cache::ByteSize::kib(16)],
            cycles: vec![1],
            ways: 1,
            total: vec![vec![tag]],
            l2_local: vec![0.5],
            l2_global: vec![0.25],
            m_l1_global: 0.1,
            cpu_cycle_ns: 10.0,
        })
    }

    #[test]
    fn lru_promotes_and_evicts_from_the_tail() {
        let mut lru = MemoryLru::new(2);
        lru.put("a", grid(1));
        lru.put("b", grid(2));
        // Touch "a" so "b" is the eviction candidate.
        assert!(lru.get("a").is_some());
        lru.put("c", grid(3));
        assert_eq!(lru.len(), 2);
        assert!(lru.get("b").is_none(), "LRU entry must be evicted");
        assert!(lru.get("a").is_some() && lru.get("c").is_some());
    }

    #[test]
    fn lru_refresh_does_not_duplicate() {
        let mut lru = MemoryLru::new(4);
        lru.put("a", grid(1));
        lru.put("a", grid(2));
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get("a").unwrap().total[0][0], 2);
    }

    #[test]
    fn zero_capacity_disables_the_tier() {
        let mut lru = MemoryLru::new(0);
        lru.put("a", grid(1));
        assert!(lru.is_empty());
        assert!(lru.get("a").is_none());
    }
}
