//! The functional set-associative cache model.
//!
//! *Functional* means this type decides hits, misses, fills and evictions,
//! but knows nothing about time — all latency accounting lives in
//! `mlc-sim`. Keeping the two concerns separate yields a simulator
//! invariant the test suite exploits: the sequence of hits and misses
//! depends only on the reference stream and the cache organisation, never
//! on cycle times.

use mlc_trace::synth::Xoshiro;
use mlc_trace::{AccessKind, Address};

use crate::config::CacheConfig;
use crate::error::ConfigError;
use crate::geometry::CacheGeometry;
use crate::policy::{AllocPolicy, Prefetch, Replacement, WritePolicy};
use crate::stats::CacheStats;

const VALID: u8 = 0b01;
const DIRTY: u8 = 0b10;

/// Why a block was brought into the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillReason {
    /// The block the missing reference demanded.
    Demand,
    /// A neighbour block brought in because the fetch size exceeds the
    /// block size.
    FetchGroup,
    /// A block brought in by the prefetcher.
    Prefetch,
}

/// One block (or sub-block) filled into the cache by an access, together
/// with the dirty victim (if any) its arrival evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fill {
    /// Base address of the data brought in.
    pub block: Address,
    /// Number of bytes fetched: the block size, or one sub-block for a
    /// sub-blocked cache.
    pub bytes: u64,
    /// Why it was brought in.
    pub reason: FillReason,
    /// Base address of a dirty block this fill evicted, which must be
    /// written downstream.
    pub writeback: Option<Address>,
}

/// How many [`Fill`]s an [`AccessResult`] holds without touching the
/// heap: a demand fill plus one group/prefetch neighbour covers every
/// base-machine organisation, so the simulator's miss path stays
/// allocation-free. Larger fetch groups spill transparently.
const INLINE_FILLS: usize = 2;

/// The fills produced by one access, stored inline for the common short
/// cases (see `INLINE_FILLS`). Dereferences to a slice, so it reads
/// like the `Vec<Fill>` it replaces.
#[derive(Debug, Clone)]
pub struct FillList {
    len: u8,
    inline: [Fill; INLINE_FILLS],
    spill: Vec<Fill>,
}

impl FillList {
    const DUMMY: Fill = Fill {
        block: Address::new(0),
        bytes: 0,
        reason: FillReason::Demand,
        writeback: None,
    };

    /// An empty list (no allocation).
    #[inline]
    pub fn new() -> Self {
        FillList {
            len: 0,
            inline: [Self::DUMMY; INLINE_FILLS],
            spill: Vec::new(),
        }
    }

    /// Appends a fill, spilling to the heap past the inline capacity.
    #[inline]
    pub fn push(&mut self, fill: Fill) {
        if !self.spill.is_empty() {
            self.spill.push(fill);
        } else if (self.len as usize) < INLINE_FILLS {
            self.inline[self.len as usize] = fill;
            self.len += 1;
        } else {
            self.spill.reserve(INLINE_FILLS + 1);
            self.spill.extend_from_slice(&self.inline);
            self.spill.push(fill);
            self.len = 0;
        }
    }
}

impl Default for FillList {
    fn default() -> Self {
        FillList::new()
    }
}

impl std::ops::Deref for FillList {
    type Target = [Fill];

    #[inline]
    fn deref(&self) -> &[Fill] {
        if self.spill.is_empty() {
            &self.inline[..self.len as usize]
        } else {
            &self.spill
        }
    }
}

impl PartialEq for FillList {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for FillList {}

impl<'a> IntoIterator for &'a FillList {
    type Item = &'a Fill;
    type IntoIter = std::slice::Iter<'a, Fill>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The complete outcome of one cache access.
///
/// The timing simulator turns this into latency: each [`Fill`] is a
/// downstream fetch, each `writeback` enters the write buffer, and
/// `write_through` forwards store data downstream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the reference hit.
    pub hit: bool,
    /// Whether a main-cache miss was satisfied by the victim buffer (the
    /// block swapped back in without a downstream fetch). `hit` is
    /// `false` in this case; the timing simulator charges a swap penalty
    /// instead of a miss.
    pub victim_hit: bool,
    /// Blocks fetched from downstream, in fetch order. Empty on hits, on
    /// victim-buffer hits, and on no-allocate write misses.
    pub fills: FillList,
    /// Dirty blocks ejected from the victim buffer that must be written
    /// downstream (in addition to any per-fill writebacks).
    pub extra_writebacks: Vec<Address>,
    /// Whether store data must be forwarded downstream (write-through
    /// caches, and no-allocate write misses).
    pub write_through: bool,
}

impl AccessResult {
    fn hit() -> Self {
        AccessResult {
            hit: true,
            victim_hit: false,
            fills: FillList::new(),
            extra_writebacks: Vec::new(),
            write_through: false,
        }
    }

    /// The fill that satisfied the demand reference, if any.
    pub fn demand_fill(&self) -> Option<&Fill> {
        self.fills.iter().find(|f| f.reason == FillReason::Demand)
    }

    /// Iterates over the dirty blocks this access pushed out (fill
    /// victims first, then victim-buffer ejections).
    pub fn writebacks(&self) -> impl Iterator<Item = Address> + '_ {
        self.fills
            .iter()
            .filter_map(|f| f.writeback)
            .chain(self.extra_writebacks.iter().copied())
    }
}

/// A small fully associative LRU buffer of recent victims (Jouppi's
/// victim cache): blocks evicted from the main cache park here and can
/// be swapped back on a subsequent miss, removing conflict misses
/// without widening the main cache's sets.
#[derive(Debug, Clone)]
struct VictimBuffer {
    /// (block base, dirty), most recently inserted first.
    entries: Vec<(Address, bool)>,
    capacity: usize,
}

impl VictimBuffer {
    fn new(capacity: usize) -> Self {
        VictimBuffer {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Removes and returns the entry for `block`, if present.
    fn take(&mut self, block: Address) -> Option<bool> {
        let pos = self.entries.iter().position(|&(b, _)| b == block)?;
        Some(self.entries.remove(pos).1)
    }

    /// Inserts a victim, returning an ejected older entry if full.
    fn insert(&mut self, block: Address, dirty: bool) -> Option<(Address, bool)> {
        self.entries.insert(0, (block, dirty));
        if self.entries.len() > self.capacity {
            self.entries.pop()
        } else {
            None
        }
    }
}

/// A functional set-associative cache.
///
/// # Examples
///
/// ```
/// use mlc_cache::{ByteSize, Cache, CacheConfig};
/// use mlc_trace::{AccessKind, Address};
///
/// let config = CacheConfig::builder()
///     .total(ByteSize::kib(4))
///     .block_bytes(16)
///     .build()?;
/// let mut cache = Cache::new(config);
///
/// let a = Address::new(0x1000);
/// let miss = cache.access(a, AccessKind::Read);
/// assert!(!miss.hit);
/// let hit = cache.access(a, AccessKind::Read);
/// assert!(hit.hit);
/// # Ok::<(), mlc_cache::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    geom: CacheGeometry,
    ways: usize,
    tags: Vec<u64>,
    flags: Vec<u8>,
    stamps: Vec<u64>,
    /// Per-line sub-block valid bits (bit i = sub-block i present).
    /// Unused (all lines implicitly full) when `sub_blocks == 1`.
    sub_masks: Vec<u64>,
    victim: Option<VictimBuffer>,
    /// Whether a hit must refresh the line's replacement stamp: true LRU
    /// with an actual choice to influence. A direct-mapped cache has no
    /// choice, so its hits skip the stamp traffic entirely.
    stamp_on_hit: bool,
    tick: u64,
    rng: Xoshiro,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given configuration.
    pub fn new(config: CacheConfig) -> Self {
        let geom = config.geometry();
        let lines = geom.blocks() as usize;
        Cache {
            config,
            geom,
            ways: geom.ways() as usize,
            tags: vec![0; lines],
            flags: vec![0; lines],
            stamps: vec![0; lines],
            sub_masks: vec![0; if config.sub_blocks() > 1 { lines } else { 0 }],
            victim: (config.victim_entries() > 0)
                .then(|| VictimBuffer::new(config.victim_entries() as usize)),
            stamp_on_hit: config.replacement() == Replacement::Lru && geom.ways() > 1,
            tick: 0,
            rng: Xoshiro::seed_from_u64(config.seed() ^ 0xCACE),
            stats: CacheStats::default(),
        }
    }

    /// Convenience constructor from builder parameters.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the parameters are invalid.
    pub fn direct_mapped(total: crate::ByteSize, block_bytes: u64) -> Result<Self, ConfigError> {
        let config = CacheConfig::builder()
            .total(total)
            .block_bytes(block_bytes)
            .build()?;
        Ok(Cache::new(config))
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (cache contents are preserved — used to discard
    /// warm-up references, as the paper does with its cold-start region).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    #[inline]
    fn line_range(&self, set: u64) -> std::ops::Range<usize> {
        let start = set as usize * self.ways;
        start..start + self.ways
    }

    #[inline]
    fn find(&self, set: u64, tag: u64) -> Option<usize> {
        let start = set as usize * self.ways;
        let flags = &self.flags[start..start + self.ways];
        let tags = &self.tags[start..start + self.ways];
        flags
            .iter()
            .zip(tags)
            .position(|(&f, &t)| f & VALID != 0 && t == tag)
            .map(|way| start + way)
    }

    #[inline]
    fn sub_bit(&self, addr: Address) -> u64 {
        let sub_bytes = self.config.sub_block_bytes();
        1u64 << (addr.block_offset(self.geom.block_bytes()) / sub_bytes)
    }

    /// Base address of the sub-block containing `addr`.
    #[inline]
    fn sub_base(&self, addr: Address) -> Address {
        addr.block_base(self.config.sub_block_bytes())
    }

    /// Hit-only probe: the fast path of [`access`](Cache::access).
    ///
    /// If the reference is a plain hit — present, and (for a sub-blocked
    /// cache) the demanded sector resident — this performs the complete
    /// access (statistics, replacement stamps, dirty bits) and returns
    /// `Some(write_through)`. Otherwise it touches *nothing* and returns
    /// `None`; the caller must then run the full [`access`](Cache::access)
    /// path, which repeats the (read-only) lookup. The pair is exactly
    /// equivalent to one `access` call; this entry point just lets hot
    /// callers skip constructing an [`AccessResult`] for the overwhelmingly
    /// common case.
    #[inline]
    pub fn access_hit(&mut self, addr: Address, kind: AccessKind) -> Option<bool> {
        let set = self.geom.set_index(addr);
        let tag = self.geom.tag(addr);
        let line = self.find(set, tag)?;
        if self.config.sub_blocks() > 1 && self.sub_masks[line] & self.sub_bit(addr) == 0 {
            return None; // sub-block miss: full path
        }
        self.stats.record(kind, true);
        if self.stamp_on_hit {
            self.tick += 1;
            self.stamps[line] = self.tick;
        }
        let mut write_through = false;
        if kind.is_write() {
            match self.config.write_policy() {
                WritePolicy::WriteBack => self.flags[line] |= DIRTY,
                WritePolicy::WriteThrough => {
                    write_through = true;
                    self.stats.write_throughs += 1;
                }
            }
        }
        Some(write_through)
    }

    /// Performs one access, updating state and statistics.
    pub fn access(&mut self, addr: Address, kind: AccessKind) -> AccessResult {
        let set = self.geom.set_index(addr);
        let tag = self.geom.tag(addr);
        let is_write = kind.is_write();

        if let Some(line) = self.find(set, tag) {
            let sub_blocked = self.config.sub_blocks() > 1;
            if sub_blocked && self.sub_masks[line] & self.sub_bit(addr) == 0 {
                // Sub-block miss: the tag matches but the demanded sector
                // has not been fetched. Fetch just that sub-block; no
                // eviction takes place.
                self.stats.record(kind, false);
                self.sub_masks[line] |= self.sub_bit(addr);
                self.tick += 1;
                self.stamps[line] = self.tick;
                self.stats.sub_block_fills += 1;
                let mut fills = FillList::new();
                fills.push(Fill {
                    block: self.sub_base(addr),
                    bytes: self.config.sub_block_bytes(),
                    reason: FillReason::Demand,
                    writeback: None,
                });
                let mut result = AccessResult {
                    hit: false,
                    victim_hit: false,
                    fills,
                    extra_writebacks: Vec::new(),
                    write_through: false,
                };
                if is_write {
                    match self.config.write_policy() {
                        WritePolicy::WriteBack => self.flags[line] |= DIRTY,
                        WritePolicy::WriteThrough => {
                            result.write_through = true;
                            self.stats.write_throughs += 1;
                        }
                    }
                }
                return result;
            }
            self.stats.record(kind, true);
            if self.stamp_on_hit {
                self.tick += 1;
                self.stamps[line] = self.tick;
            }
            let mut result = AccessResult::hit();
            if is_write {
                match self.config.write_policy() {
                    WritePolicy::WriteBack => self.flags[line] |= DIRTY,
                    WritePolicy::WriteThrough => {
                        result.write_through = true;
                        self.stats.write_throughs += 1;
                    }
                }
            }
            return result;
        }

        // Miss.
        self.stats.record(kind, false);
        let mut result = AccessResult {
            hit: false,
            victim_hit: false,
            fills: FillList::new(),
            extra_writebacks: Vec::new(),
            write_through: false,
        };

        // Victim-buffer probe: swap the block back in without touching
        // the next level down.
        let demand_block = self.geom.block_base(addr);
        if let Some(victim) = self.victim.as_mut() {
            if let Some(mut dirty) = victim.take(demand_block) {
                self.stats.victim_hits += 1;
                result.victim_hit = true;
                if is_write {
                    match self.config.write_policy() {
                        WritePolicy::WriteBack => dirty = true,
                        WritePolicy::WriteThrough => {
                            result.write_through = true;
                            self.stats.write_throughs += 1;
                        }
                    }
                }
                let line = self.choose_victim(set);
                if self.flags[line] & VALID != 0 {
                    let displaced = self.geom.block_address(set, self.tags[line]);
                    let displaced_dirty = self.flags[line] & DIRTY != 0;
                    if let Some((ejected, true)) = self
                        .victim
                        .as_mut()
                        .expect("probed above")
                        .insert(displaced, displaced_dirty)
                    {
                        result.extra_writebacks.push(ejected);
                        self.stats.writebacks += 1;
                    }
                }
                self.tags[line] = tag;
                self.flags[line] = if dirty { VALID | DIRTY } else { VALID };
                self.tick += 1;
                self.stamps[line] = self.tick;
                return result;
            }
        }

        if is_write && self.config.alloc_policy() == AllocPolicy::NoWriteAllocate {
            result.write_through = true;
            self.stats.write_throughs += 1;
            return result;
        }

        // Fill the aligned fetch group containing the demand block.
        let block_bytes = self.geom.block_bytes();
        let fetch_bytes = block_bytes * u64::from(self.config.fetch_blocks());
        let group_base = Address::new(addr.get() & !(fetch_bytes - 1));
        let demand_base = self.geom.block_base(addr);
        for i in 0..u64::from(self.config.fetch_blocks()) {
            let block = group_base.wrapping_add(i * block_bytes);
            let reason = if block == demand_base {
                FillReason::Demand
            } else {
                FillReason::FetchGroup
            };
            // For a sub-blocked cache the demanded word selects the sector
            // to fetch; for whole-block fills the base is representative.
            let within = if block == demand_base { addr } else { block };
            self.fill_block(block, within, reason, &mut result);
        }

        if self.config.prefetch() == Prefetch::NextBlock {
            let next = demand_base.wrapping_add(block_bytes);
            self.fill_block(next, next, FillReason::Prefetch, &mut result);
        }

        // Mark the demand block dirty for an allocating write-back write;
        // forward the data for a write-through write.
        if is_write {
            match self.config.write_policy() {
                WritePolicy::WriteBack => {
                    let set = self.geom.set_index(demand_base);
                    let tag = self.geom.tag(demand_base);
                    if let Some(line) = self.find(set, tag) {
                        self.flags[line] |= DIRTY;
                    }
                }
                WritePolicy::WriteThrough => {
                    result.write_through = true;
                    self.stats.write_throughs += 1;
                }
            }
        }
        result
    }

    fn fill_block(
        &mut self,
        block: Address,
        demanded: Address,
        reason: FillReason,
        result: &mut AccessResult,
    ) {
        let set = self.geom.set_index(block);
        let tag = self.geom.tag(block);
        if self.find(set, tag).is_some() {
            return; // already present (fetch-group/prefetch overlap)
        }
        let line = self.choose_victim(set);
        let mut writeback = None;
        if self.flags[line] & VALID != 0 {
            let displaced = self.geom.block_address(set, self.tags[line]);
            let displaced_dirty = self.flags[line] & DIRTY != 0;
            match self.victim.as_mut() {
                Some(victim) => {
                    // The victim parks in the buffer; only a dirty block
                    // ejected off its far end must be written downstream.
                    if let Some((ejected, true)) = victim.insert(displaced, displaced_dirty) {
                        result.extra_writebacks.push(ejected);
                        self.stats.writebacks += 1;
                    }
                }
                None if displaced_dirty => {
                    writeback = Some(displaced);
                    self.stats.writebacks += 1;
                }
                None => {}
            }
        }
        self.tags[line] = tag;
        self.flags[line] = VALID;
        self.tick += 1;
        self.stamps[line] = self.tick;
        let sub_blocked = self.config.sub_blocks() > 1;
        let (fill_base, fill_bytes) = if sub_blocked {
            // Only the demanded sector arrives; the rest of the line
            // stays invalid.
            self.sub_masks[line] = self.sub_bit(demanded);
            self.stats.sub_block_fills += 1;
            (self.sub_base(demanded), self.config.sub_block_bytes())
        } else {
            (block, self.geom.block_bytes())
        };
        match reason {
            FillReason::Demand => self.stats.demand_fills += 1,
            FillReason::FetchGroup => self.stats.group_fills += 1,
            FillReason::Prefetch => self.stats.prefetch_fills += 1,
        }
        result.fills.push(Fill {
            block: fill_base,
            bytes: fill_bytes,
            reason,
            writeback,
        });
    }

    fn choose_victim(&mut self, set: u64) -> usize {
        let range = self.line_range(set);
        // Prefer an invalid way.
        for i in range.clone() {
            if self.flags[i] & VALID == 0 {
                return i;
            }
        }
        match self.config.replacement() {
            Replacement::Lru | Replacement::Fifo => range
                .min_by_key(|&i| self.stamps[i])
                .expect("every set has at least one way"),
            Replacement::Random => {
                let start = range.start;
                start + self.rng.next_below(self.ways as u64) as usize
            }
        }
    }

    /// Whether the block containing `addr` is present.
    pub fn contains(&self, addr: Address) -> bool {
        self.find(self.geom.set_index(addr), self.geom.tag(addr))
            .is_some()
    }

    /// Whether the block containing `addr` is present *and dirty*.
    pub fn is_dirty(&self, addr: Address) -> bool {
        self.find(self.geom.set_index(addr), self.geom.tag(addr))
            .is_some_and(|line| self.flags[line] & DIRTY != 0)
    }

    /// Drains every dirty block (including dirty victim-buffer entries),
    /// returning their base addresses and marking them clean. Valid bits
    /// are preserved.
    pub fn flush_dirty(&mut self) -> Vec<Address> {
        let mut out = Vec::new();
        for set in 0..self.geom.sets() {
            for line in self.line_range(set) {
                if self.flags[line] & (VALID | DIRTY) == VALID | DIRTY {
                    out.push(self.geom.block_address(set, self.tags[line]));
                    self.flags[line] &= !DIRTY;
                }
            }
        }
        if let Some(victim) = self.victim.as_mut() {
            for (block, dirty) in victim.entries.iter_mut() {
                if *dirty {
                    out.push(*block);
                    *dirty = false;
                }
            }
        }
        out
    }

    /// Invalidates every block (contents and dirty data are discarded).
    pub fn invalidate_all(&mut self) {
        self.flags.fill(0);
    }

    /// Number of valid blocks currently resident.
    pub fn resident_blocks(&self) -> u64 {
        self.flags.iter().filter(|&&f| f & VALID != 0).count() as u64
    }
}

/// Structural invariant checks, compiled only under the
/// `check-invariants` feature. `mlc-sim` calls [`Cache::verify_invariants`]
/// after every access it simulates; a violation here means the cache
/// model itself corrupted its state.
#[cfg(feature = "check-invariants")]
impl Cache {
    /// Verifies the structural invariants of one set.
    ///
    /// Checked invariants:
    /// * no two valid ways of the set share a tag;
    /// * every valid line's replacement stamp lies in `1..=tick`, and
    ///   stamps are unique among the set's valid lines (LRU/FIFO stack
    ///   well-formedness);
    /// * a dirty flag implies the line is valid, and never appears in a
    ///   write-through cache;
    /// * in a sub-blocked cache, every valid line has a non-empty
    ///   sector mask confined to the configured number of sub-blocks.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn verify_set(&self, set: u64) -> Result<(), String> {
        let sub_blocked = self.config.sub_blocks() > 1;
        let lines = self.line_range(set);
        for i in lines.clone() {
            let valid = self.flags[i] & VALID != 0;
            if self.flags[i] & DIRTY != 0 {
                if !valid {
                    return Err(format!("set {set}: dirty line {i} is not valid"));
                }
                if self.config.write_policy() == WritePolicy::WriteThrough {
                    return Err(format!(
                        "set {set}: dirty line {i} in a write-through cache"
                    ));
                }
            }
            if !valid {
                continue;
            }
            if self.stamps[i] == 0 || self.stamps[i] > self.tick {
                return Err(format!(
                    "set {set}: line {i} stamp {} outside 1..={}",
                    self.stamps[i], self.tick
                ));
            }
            if sub_blocked {
                let mask = self.sub_masks[i];
                let full = (1u64 << self.config.sub_blocks()) - 1;
                if mask == 0 || mask & !full != 0 {
                    return Err(format!(
                        "set {set}: line {i} sector mask {mask:#x} invalid for {} sub-blocks",
                        self.config.sub_blocks()
                    ));
                }
            }
            for j in lines.clone().skip(i + 1 - lines.start) {
                if self.flags[j] & VALID != 0 {
                    if self.tags[j] == self.tags[i] {
                        return Err(format!(
                            "set {set}: ways {i} and {j} share tag {:#x}",
                            self.tags[i]
                        ));
                    }
                    if self.stamps[j] == self.stamps[i] {
                        return Err(format!(
                            "set {set}: ways {i} and {j} share stamp {}",
                            self.stamps[i]
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Cheap per-access check: verifies the set holding `addr` plus the
    /// victim buffer, skipping the rest of the cache.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn verify_invariants_at(&self, addr: Address) -> Result<(), String> {
        self.verify_set(self.geom.set_index(addr))?;
        self.verify_victim_buffer()
    }

    /// Verifies every structural invariant of the whole cache. This scans
    /// all sets — intended for periodic deep checks and end-of-run
    /// verification, not the per-access path.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn verify_invariants(&self) -> Result<(), String> {
        for set in 0..self.geom.sets() {
            self.verify_set(set)?;
        }
        self.verify_victim_buffer()
    }

    fn verify_victim_buffer(&self) -> Result<(), String> {
        if let Some(victim) = &self.victim {
            if victim.entries.len() > victim.capacity {
                return Err(format!(
                    "victim buffer holds {} entries, capacity {}",
                    victim.entries.len(),
                    victim.capacity
                ));
            }
            if self.config.write_policy() == WritePolicy::WriteThrough
                && victim.entries.iter().any(|&(_, dirty)| dirty)
            {
                return Err("dirty victim-buffer entry in a write-through cache".into());
            }
        }
        Ok(())
    }

    /// One-line state summary for invariant-violation reports.
    pub fn state_summary(&self) -> String {
        format!(
            "{} sets x {} ways, {} resident, tick {}",
            self.geom.sets(),
            self.ways,
            self.resident_blocks(),
            self.tick
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::ByteSize;

    fn small_cache(ways: u32) -> Cache {
        // 4 sets × `ways` ways × 16B blocks.
        let total = ByteSize::new(64 * u64::from(ways));
        let config = CacheConfig::builder()
            .total(total)
            .block_bytes(16)
            .ways(ways)
            .build()
            .unwrap();
        Cache::new(config)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small_cache(1);
        let a = Address::new(0x40);
        assert!(!c.access(a, AccessKind::Read).hit);
        assert!(c.access(a, AccessKind::Read).hit);
        assert!(c.contains(a));
        assert_eq!(c.stats().read_misses(), 1);
        assert_eq!(c.stats().demand_fills, 1);
    }

    #[test]
    fn same_block_different_word_hits() {
        let mut c = small_cache(1);
        c.access(Address::new(0x40), AccessKind::Read);
        assert!(c.access(Address::new(0x4c), AccessKind::Read).hit);
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut c = small_cache(1);
        let a = Address::new(0x00);
        let b = Address::new(0x40); // 4 sets × 16B = 64B stride aliases
        c.access(a, AccessKind::Read);
        c.access(b, AccessKind::Read);
        assert!(!c.contains(a));
        assert!(c.contains(b));
    }

    #[test]
    fn two_way_holds_both_conflicting_blocks() {
        let mut c = small_cache(2);
        let a = Address::new(0x00);
        let b = Address::new(0x80); // same set in a 4-set, 2-way cache
        c.access(a, AccessKind::Read);
        c.access(b, AccessKind::Read);
        assert!(c.contains(a) && c.contains(b));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small_cache(2);
        let a = Address::new(0x00);
        let b = Address::new(0x80);
        let d = Address::new(0x100); // third block, same set
        c.access(a, AccessKind::Read);
        c.access(b, AccessKind::Read);
        c.access(a, AccessKind::Read); // a is now MRU
        c.access(d, AccessKind::Read); // must evict b
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn fifo_evicts_first_in_even_if_recently_used() {
        let config = CacheConfig::builder()
            .total(ByteSize::new(128))
            .block_bytes(16)
            .ways(2)
            .replacement(Replacement::Fifo)
            .build()
            .unwrap();
        let mut c = Cache::new(config);
        let a = Address::new(0x00);
        let b = Address::new(0x80);
        let d = Address::new(0x100);
        c.access(a, AccessKind::Read);
        c.access(b, AccessKind::Read);
        c.access(a, AccessKind::Read); // touching a must NOT save it under FIFO
        c.access(d, AccessKind::Read);
        assert!(!c.contains(a));
        assert!(c.contains(b));
    }

    #[test]
    fn random_replacement_stays_within_set() {
        let config = CacheConfig::builder()
            .total(ByteSize::new(256))
            .block_bytes(16)
            .ways(4)
            .replacement(Replacement::Random)
            .seed(7)
            .build()
            .unwrap();
        let mut c = Cache::new(config);
        // Fill one set with 4 blocks, then evict repeatedly.
        for i in 0..16u64 {
            c.access(Address::new(i * 64), AccessKind::Read);
        }
        assert_eq!(c.resident_blocks(), 4);
    }

    #[test]
    fn write_back_marks_dirty_and_evicts_with_writeback() {
        let mut c = small_cache(1);
        let a = Address::new(0x00);
        let b = Address::new(0x40);
        c.access(a, AccessKind::Write);
        assert!(c.is_dirty(a));
        let res = c.access(b, AccessKind::Read);
        let wbs: Vec<_> = res.writebacks().collect();
        assert_eq!(wbs, vec![Address::new(0x00)]);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_produces_no_writeback() {
        let mut c = small_cache(1);
        c.access(Address::new(0x00), AccessKind::Read);
        let res = c.access(Address::new(0x40), AccessKind::Read);
        assert_eq!(res.writebacks().count(), 0);
    }

    #[test]
    fn write_hit_then_read_keeps_dirty() {
        let mut c = small_cache(1);
        let a = Address::new(0x20);
        c.access(a, AccessKind::Write);
        c.access(a, AccessKind::Read);
        assert!(c.is_dirty(a));
    }

    #[test]
    fn write_through_never_dirties() {
        let config = CacheConfig::builder()
            .total(ByteSize::new(64))
            .block_bytes(16)
            .write_policy(WritePolicy::WriteThrough)
            .build()
            .unwrap();
        let mut c = Cache::new(config);
        let a = Address::new(0x10);
        let miss = c.access(a, AccessKind::Write);
        assert!(miss.write_through);
        assert!(!miss.fills.is_empty()); // still write-allocate by default
        let hit = c.access(a, AccessKind::Write);
        assert!(hit.hit && hit.write_through);
        assert!(!c.is_dirty(a));
        assert_eq!(c.flush_dirty(), vec![]);
    }

    #[test]
    fn no_write_allocate_skips_fill() {
        let config = CacheConfig::builder()
            .total(ByteSize::new(64))
            .block_bytes(16)
            .write_policy(WritePolicy::WriteThrough)
            .alloc_policy(AllocPolicy::NoWriteAllocate)
            .build()
            .unwrap();
        let mut c = Cache::new(config);
        let a = Address::new(0x10);
        let res = c.access(a, AccessKind::Write);
        assert!(!res.hit);
        assert!(res.fills.is_empty());
        assert!(res.write_through);
        assert!(!c.contains(a));
    }

    #[test]
    fn fetch_group_brings_neighbours() {
        let config = CacheConfig::builder()
            .total(ByteSize::new(256))
            .block_bytes(16)
            .fetch_blocks(2)
            .build()
            .unwrap();
        let mut c = Cache::new(config);
        // 0x30 lies in the second block of the aligned 32-byte group
        // [0x20, 0x40).
        let res = c.access(Address::new(0x30), AccessKind::Read);
        assert_eq!(res.fills.len(), 2);
        assert_eq!(res.fills[0].block, Address::new(0x20));
        assert_eq!(res.fills[0].reason, FillReason::FetchGroup);
        assert_eq!(res.fills[1].block, Address::new(0x30));
        assert_eq!(res.fills[1].reason, FillReason::Demand);
        assert!(c.contains(Address::new(0x20)));
        assert_eq!(c.stats().group_fills, 1);
    }

    #[test]
    fn prefetch_next_block() {
        let config = CacheConfig::builder()
            .total(ByteSize::new(256))
            .block_bytes(16)
            .prefetch(Prefetch::NextBlock)
            .build()
            .unwrap();
        let mut c = Cache::new(config);
        let res = c.access(Address::new(0x40), AccessKind::Read);
        assert_eq!(res.fills.len(), 2);
        assert_eq!(res.fills[1].block, Address::new(0x50));
        assert_eq!(res.fills[1].reason, FillReason::Prefetch);
        assert!(c.contains(Address::new(0x50)));
        assert_eq!(c.stats().prefetch_fills, 1);
        // A subsequent demand access to the prefetched block hits.
        assert!(c.access(Address::new(0x50), AccessKind::Read).hit);
    }

    #[test]
    fn demand_fill_accessor() {
        let mut c = small_cache(1);
        let res = c.access(Address::new(0x40), AccessKind::Read);
        assert_eq!(res.demand_fill().unwrap().block, Address::new(0x40));
        let res = c.access(Address::new(0x40), AccessKind::Read);
        assert!(res.demand_fill().is_none());
    }

    #[test]
    fn write_allocate_write_miss_dirties_filled_block() {
        let mut c = small_cache(1);
        let a = Address::new(0x40);
        let res = c.access(a, AccessKind::Write);
        assert!(!res.hit && !res.write_through);
        assert!(c.is_dirty(a));
    }

    #[test]
    fn flush_dirty_reports_and_cleans() {
        let mut c = small_cache(2);
        c.access(Address::new(0x00), AccessKind::Write);
        c.access(Address::new(0x10), AccessKind::Write);
        c.access(Address::new(0x20), AccessKind::Read);
        let mut flushed = c.flush_dirty();
        flushed.sort();
        assert_eq!(flushed, vec![Address::new(0x00), Address::new(0x10)]);
        assert!(c.flush_dirty().is_empty());
        assert!(c.contains(Address::new(0x00)), "flush keeps blocks valid");
    }

    #[test]
    fn invalidate_all_empties() {
        let mut c = small_cache(1);
        c.access(Address::new(0x0), AccessKind::Write);
        c.invalidate_all();
        assert_eq!(c.resident_blocks(), 0);
        assert!(!c.contains(Address::new(0x0)));
        assert!(c.flush_dirty().is_empty(), "invalidate discards dirty data");
    }

    #[test]
    fn reset_stats_preserves_contents() {
        let mut c = small_cache(1);
        c.access(Address::new(0x0), AccessKind::Read);
        c.reset_stats();
        assert_eq!(c.stats().total_references(), 0);
        assert!(c.access(Address::new(0x0), AccessKind::Read).hit);
    }

    #[test]
    fn stats_track_all_kinds() {
        let mut c = small_cache(1);
        c.access(Address::new(0x0), AccessKind::InstructionFetch);
        c.access(Address::new(0x0), AccessKind::InstructionFetch);
        c.access(Address::new(0x100), AccessKind::Write);
        let s = c.stats();
        assert_eq!(s.misses(AccessKind::InstructionFetch), 1);
        assert_eq!(s.hits(AccessKind::InstructionFetch), 1);
        assert_eq!(s.misses(AccessKind::Write), 1);
        assert_eq!(s.read_references(), 2);
    }

    fn sub_blocked_cache() -> Cache {
        // 4 sets × 1 way × 32B blocks, 4 sub-blocks of 8B each.
        let config = CacheConfig::builder()
            .total(ByteSize::new(128))
            .block_bytes(32)
            .sub_blocks(4)
            .build()
            .unwrap();
        Cache::new(config)
    }

    #[test]
    fn sub_block_miss_fetches_only_the_sector() {
        let mut c = sub_blocked_cache();
        // Cold miss on word 0 of a block: fetch only sub-block 0 (8B).
        let res = c.access(Address::new(0x40), AccessKind::Read);
        assert!(!res.hit);
        assert_eq!(res.fills.len(), 1);
        assert_eq!(res.fills[0].block, Address::new(0x40));
        assert_eq!(res.fills[0].bytes, 8);
        // Same sector hits; a different sector of the same block is a
        // sub-block miss that fetches 8 more bytes without eviction.
        assert!(c.access(Address::new(0x44), AccessKind::Read).hit);
        let res = c.access(Address::new(0x58), AccessKind::Read);
        assert!(!res.hit);
        assert_eq!(res.fills.len(), 1);
        assert_eq!(res.fills[0].block, Address::new(0x58));
        assert_eq!(res.fills[0].bytes, 8);
        assert!(
            res.fills[0].writeback.is_none(),
            "no eviction on sector miss"
        );
        // Now both sectors hit.
        assert!(c.access(Address::new(0x40), AccessKind::Read).hit);
        assert!(c.access(Address::new(0x58), AccessKind::Read).hit);
        assert_eq!(c.stats().sub_block_fills, 2);
    }

    #[test]
    fn sub_block_eviction_clears_whole_line() {
        let mut c = sub_blocked_cache();
        c.access(Address::new(0x40), AccessKind::Read); // sector 0
        c.access(Address::new(0x58), AccessKind::Read); // sector 3
                                                        // 0xC0 aliases 0x40 in a 4-set cache of 32B blocks (stride 128).
        c.access(Address::new(0xC0), AccessKind::Read);
        // The old line is fully gone: both sectors miss again.
        assert!(!c.access(Address::new(0x40), AccessKind::Read).hit);
        assert!(!c.access(Address::new(0x58), AccessKind::Read).hit);
    }

    #[test]
    fn sub_block_dirty_line_writes_back_whole_block() {
        let mut c = sub_blocked_cache();
        c.access(Address::new(0x40), AccessKind::Write); // dirty sector 0
        let res = c.access(Address::new(0xC0), AccessKind::Read); // evicts
        let wbs: Vec<_> = res.writebacks().collect();
        assert_eq!(wbs, vec![Address::new(0x40)]);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn sub_block_config_validation() {
        let mut b = CacheConfig::builder();
        b.total(ByteSize::new(128)).block_bytes(32);
        assert!(b.sub_blocks(4).build().is_ok());
        assert!(b.sub_blocks(3).build().is_err(), "not a power of two");
        assert!(b.sub_blocks(16).build().is_err(), "sectors under a word");
        b.sub_blocks(2).fetch_blocks(2);
        assert!(b.build().is_err(), "sub-blocking excludes group fetch");
    }

    fn victim_cache(entries: u32) -> Cache {
        // 4 sets x 1 way x 16B blocks + victim buffer.
        let config = CacheConfig::builder()
            .total(ByteSize::new(64))
            .block_bytes(16)
            .victim_entries(entries)
            .build()
            .unwrap();
        Cache::new(config)
    }

    #[test]
    fn victim_buffer_catches_conflict_victims() {
        let mut c = victim_cache(2);
        let a = Address::new(0x00);
        let b = Address::new(0x40); // conflicts with a
        c.access(a, AccessKind::Read);
        c.access(b, AccessKind::Read); // a parks in the victim buffer
        let res = c.access(a, AccessKind::Read);
        assert!(!res.hit);
        assert!(res.victim_hit, "a should swap back from the buffer");
        assert!(res.fills.is_empty(), "no downstream fetch");
        assert_eq!(c.stats().victim_hits, 1);
        // The swap displaced b into the buffer; it swaps back too.
        let res = c.access(b, AccessKind::Read);
        assert!(res.victim_hit);
        assert_eq!(c.stats().victim_hits, 2);
        assert_eq!(c.stats().writebacks, 0, "clean blocks never write back");
    }

    #[test]
    fn victim_buffer_preserves_dirty_data() {
        let mut c = victim_cache(2);
        let a = Address::new(0x00);
        let b = Address::new(0x40);
        c.access(a, AccessKind::Write); // dirty a
        c.access(b, AccessKind::Read); // dirty a parks in buffer
        assert_eq!(c.stats().writebacks, 0, "buffered, not written back");
        let res = c.access(a, AccessKind::Read); // swap back
        assert!(res.victim_hit);
        assert!(c.is_dirty(a), "dirtiness travels through the buffer");
    }

    #[test]
    fn victim_buffer_ejection_writes_back_dirty_blocks() {
        let mut c = victim_cache(1);
        let a = Address::new(0x00);
        let b = Address::new(0x40);
        let d = Address::new(0x80); // all three conflict
        c.access(a, AccessKind::Write); // dirty a
        c.access(b, AccessKind::Read); // dirty a -> buffer
        let res = c.access(d, AccessKind::Read); // b -> buffer ejects a (dirty)
        let wbs: Vec<_> = res.writebacks().collect();
        assert_eq!(wbs, vec![a]);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn victim_buffer_flushes_dirty_entries() {
        let mut c = victim_cache(2);
        c.access(Address::new(0x00), AccessKind::Write);
        c.access(Address::new(0x40), AccessKind::Read); // dirty 0x0 buffered
        let mut flushed = c.flush_dirty();
        flushed.sort();
        assert!(flushed.contains(&Address::new(0x00)), "{flushed:?}");
        assert!(c.flush_dirty().is_empty(), "flush clears dirty bits");
    }

    #[test]
    fn victim_config_validation() {
        let mut b = CacheConfig::builder();
        b.total(ByteSize::new(128)).block_bytes(32);
        assert!(b.victim_entries(4).build().is_ok());
        assert!(b.victim_entries(65).build().is_err());
        b.victim_entries(2).sub_blocks(2);
        assert!(b.build().is_err(), "victim + sub-blocking rejected");
    }

    #[test]
    fn fully_associative_uses_whole_capacity() {
        let config = CacheConfig::builder()
            .total(ByteSize::new(128))
            .block_bytes(16)
            .ways(8)
            .build()
            .unwrap();
        let mut c = Cache::new(config);
        for i in 0..8u64 {
            // Addresses that would conflict badly in a direct-mapped cache.
            c.access(Address::new(i * 0x1000), AccessKind::Read);
        }
        assert_eq!(c.resident_blocks(), 8);
        for i in 0..8u64 {
            assert!(c.contains(Address::new(i * 0x1000)));
        }
    }
}

#[cfg(all(test, feature = "check-invariants"))]
mod invariant_tests {
    use super::*;
    use crate::geometry::ByteSize;

    fn warm_cache(ways: u32, policy: WritePolicy) -> Cache {
        let config = CacheConfig::builder()
            .total(ByteSize::new(64 * u64::from(ways)))
            .block_bytes(16)
            .ways(ways)
            .write_policy(policy)
            .build()
            .unwrap();
        let mut c = Cache::new(config);
        for i in 0..16u64 {
            c.access(Address::new(i * 16), AccessKind::Read);
        }
        c
    }

    #[test]
    fn healthy_cache_passes() {
        let mut c = warm_cache(2, WritePolicy::WriteBack);
        c.access(Address::new(0x20), AccessKind::Write);
        assert_eq!(c.verify_invariants(), Ok(()));
        assert_eq!(c.verify_invariants_at(Address::new(0x20)), Ok(()));
    }

    #[test]
    fn duplicate_tag_is_caught() {
        let mut c = warm_cache(2, WritePolicy::WriteBack);
        c.tags[1] = c.tags[0];
        let err = c.verify_invariants().unwrap_err();
        assert!(err.contains("share tag"), "{err}");
    }

    #[test]
    fn duplicate_stamp_is_caught() {
        let mut c = warm_cache(2, WritePolicy::WriteBack);
        c.stamps[1] = c.stamps[0];
        let err = c.verify_invariants().unwrap_err();
        assert!(err.contains("share stamp"), "{err}");
    }

    #[test]
    fn stamp_beyond_tick_is_caught() {
        let mut c = warm_cache(1, WritePolicy::WriteBack);
        c.stamps[0] = c.tick + 1;
        let err = c.verify_invariants().unwrap_err();
        assert!(err.contains("outside"), "{err}");
    }

    #[test]
    fn dirty_invalid_line_is_caught() {
        let mut c = warm_cache(1, WritePolicy::WriteBack);
        c.flags[0] = DIRTY;
        let err = c.verify_invariants().unwrap_err();
        assert!(err.contains("not valid"), "{err}");
    }

    #[test]
    fn dirty_line_in_write_through_cache_is_caught() {
        let mut c = warm_cache(1, WritePolicy::WriteThrough);
        c.flags[0] = VALID | DIRTY;
        let err = c.verify_invariants().unwrap_err();
        assert!(err.contains("write-through"), "{err}");
    }

    #[test]
    fn empty_sector_mask_is_caught() {
        let config = CacheConfig::builder()
            .total(ByteSize::new(256))
            .block_bytes(32)
            .sub_blocks(2)
            .build()
            .unwrap();
        let mut c = Cache::new(config);
        c.access(Address::new(0x40), AccessKind::Read);
        let line = c.find(
            c.geom.set_index(Address::new(0x40)),
            c.geom.tag(Address::new(0x40)),
        );
        c.sub_masks[line.unwrap()] = 0;
        let err = c.verify_invariants().unwrap_err();
        assert!(err.contains("sector mask"), "{err}");
    }

    #[test]
    fn set_scoped_check_ignores_other_sets() {
        let mut c = warm_cache(1, WritePolicy::WriteBack);
        // Corrupt set 0; a set-scoped probe of another set stays clean.
        c.flags[0] = DIRTY;
        assert!(c.verify_set(1).is_ok());
        assert!(c.verify_set(0).is_err());
        assert!(c.verify_invariants_at(Address::new(0x10)).is_ok());
        assert!(c.verify_invariants_at(Address::new(0x00)).is_err());
    }

    #[test]
    fn state_summary_reports_occupancy() {
        let c = warm_cache(2, WritePolicy::WriteBack);
        let summary = c.state_summary();
        assert!(summary.contains("resident"), "{summary}");
    }
}
