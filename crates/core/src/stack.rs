//! One-pass solo miss counting for every power-of-two cache size.
//!
//! The paper's Figure 3 needs the L2's *solo* read miss ratio at every
//! swept size. Simulating each size separately costs one full trace pass
//! per size; Mattson's classic observation makes one pass suffice: under
//! LRU (and trivially under direct mapping), a set's contents are exactly
//! its `W` most-recently-referenced blocks, so set residency at *every*
//! set count can be tracked simultaneously from the same reference
//! stream. [`SoloMissSweep`] keeps one truncated per-set LRU stack per
//! swept size — `O(sizes × ways)` work per reference instead of
//! `O(sizes)` full simulations — and reproduces
//! [`mlc_sim::solo::solo_stats`] exactly (see [`SoloMissSweep::supports`]
//! for the eligibility conditions, and the workspace property tests for
//! the proof by comparison).
//!
//! This is the same family of machinery as
//! `mlc_trace::stackdist::associativity_histogram` (fixed set count, all
//! associativities); here the associativity is fixed and the *set count*
//! sweeps, which is what a size ladder at constant block size needs.

use mlc_cache::{AllocPolicy, ByteSize, CacheConfig, Prefetch, Replacement};
use mlc_obs::Metrics;
use mlc_sim::Level1Sink;
use mlc_trace::TraceRecord;

use crate::par::try_par_map;

/// Sentinel for an empty way slot: no real block index can be
/// `u64::MAX` (it would require a byte address beyond the address
/// space).
const EMPTY: u64 = u64::MAX;

/// Per-size residency state: `sets × ways` slots, each set's slots
/// ordered most-recently-used first.
#[derive(Debug, Clone)]
struct SizeState {
    size: ByteSize,
    /// `sets - 1`; set counts are powers of two so indexing is a mask.
    set_mask: u64,
    slots: Vec<u64>,
    read_misses: u64,
}

/// A one-pass solo miss counter over a ladder of cache sizes.
///
/// All sizes share one block size and associativity; each reference
/// updates every size's residency state in one sweep. Read misses
/// (instruction fetches + loads, the numerators of the paper's solo
/// miss ratios) are counted per size; writes update recency and
/// allocate, exactly as a write-allocate cache would, but are not
/// counted.
///
/// # Examples
///
/// ```
/// use mlc_cache::ByteSize;
/// use mlc_core::stack::SoloMissSweep;
/// use mlc_trace::TraceRecord;
///
/// let sizes = [ByteSize::kib(4), ByteSize::kib(8)];
/// let mut sweep = SoloMissSweep::new(32, 1, &sizes);
/// for i in 0..200u64 {
///     sweep.access(TraceRecord::read((i % 160) * 32));
/// }
/// // 160 blocks of 32 B: 5 KB — thrashes 4 KB, fits in 8 KB.
/// assert!(sweep.read_misses(0) > sweep.read_misses(1));
/// assert_eq!(sweep.read_references(), 200);
/// ```
#[derive(Debug, Clone)]
pub struct SoloMissSweep {
    block_bytes: u64,
    ways: u64,
    states: Vec<SizeState>,
    read_refs: u64,
}

impl SoloMissSweep {
    /// Creates a sweep over `sizes` at the given block size and
    /// associativity.
    ///
    /// # Panics
    ///
    /// Panics if `sizes` is empty, `block_bytes` is not a positive power
    /// of two, `ways` is zero, or any size does not yield a positive
    /// power-of-two set count (`size / (block_bytes × ways)`).
    pub fn new(block_bytes: u64, ways: u32, sizes: &[ByteSize]) -> Self {
        assert!(!sizes.is_empty(), "sweep needs at least one size");
        assert!(
            block_bytes > 0 && block_bytes.is_power_of_two(),
            "block size must be a positive power of two, got {block_bytes}"
        );
        assert!(ways > 0, "associativity must be positive");
        let ways = u64::from(ways);
        let states = sizes
            .iter()
            .map(|&size| {
                let blocks = size.get() / block_bytes;
                let sets = blocks / ways;
                assert!(
                    sets > 0 && sets.is_power_of_two() && sets * ways * block_bytes == size.get(),
                    "size {size} must be a power-of-two multiple of {ways} way(s) \
                     of {block_bytes}-byte blocks"
                );
                SizeState {
                    size,
                    set_mask: sets - 1,
                    slots: vec![EMPTY; (sets * ways) as usize],
                    read_misses: 0,
                }
            })
            .collect();
        SoloMissSweep {
            block_bytes,
            ways,
            states,
            read_refs: 0,
        }
    }

    /// Whether this engine reproduces [`mlc_sim::solo::solo_stats`]
    /// exactly for a cache of configuration `config`.
    ///
    /// The requirements are the conditions under which "set contents =
    /// the `W` most-recently-referenced blocks of the set" holds:
    /// LRU replacement (any policy is fine when direct-mapped — there is
    /// nothing to choose), write-allocate (so stores insert like loads),
    /// single-block fetches, no sub-blocking, no prefetch, and no victim
    /// buffer. Write-back versus write-through is immaterial: residency
    /// does not depend on dirtiness.
    pub fn supports(config: &CacheConfig) -> bool {
        (config.geometry().ways() == 1 || config.replacement() == Replacement::Lru)
            && config.alloc_policy() == AllocPolicy::WriteAllocate
            && config.prefetch() == Prefetch::None
            && config.fetch_blocks() == 1
            && config.sub_blocks() == 1
            && config.victim_entries() == 0
    }

    /// Whether `size` yields a valid (positive power-of-two) set count at
    /// this block size and associativity — the geometric precondition of
    /// [`SoloMissSweep::new`], as a non-panicking test for callers
    /// that check a whole ladder before building the sweep.
    pub fn admits_size(block_bytes: u64, ways: u32, size: ByteSize) -> bool {
        let span = block_bytes.saturating_mul(u64::from(ways));
        span > 0
            && block_bytes.is_power_of_two()
            && size.get().is_multiple_of(span)
            && (size.get() / span).is_power_of_two()
    }

    /// Feeds one reference through every size's residency state.
    pub fn access(&mut self, rec: TraceRecord) {
        let block = rec.addr.block_index(self.block_bytes);
        let is_read = !rec.kind.is_write();
        if is_read {
            self.read_refs += 1;
        }
        let ways = self.ways as usize;
        for state in &mut self.states {
            let set = (block & state.set_mask) as usize;
            let slots = &mut state.slots[set * ways..(set + 1) * ways];
            // Find the block's LRU position (or miss), then move it to
            // the front — the W-slot truncated stack update.
            match slots.iter().position(|&b| b == block) {
                Some(pos) => slots[..=pos].rotate_right(1),
                None => {
                    if is_read {
                        state.read_misses += 1;
                    }
                    slots.rotate_right(1);
                    slots[0] = block;
                }
            }
        }
    }

    /// Zeroes the miss and reference counters, keeping all residency
    /// state — the warm-up boundary, mirroring
    /// [`mlc_sim::solo::solo_stats`]'s cold-start removal.
    pub fn reset_counters(&mut self) {
        self.read_refs = 0;
        for state in &mut self.states {
            state.read_misses = 0;
        }
    }

    /// The swept sizes, in construction order.
    pub fn sizes(&self) -> Vec<ByteSize> {
        self.states.iter().map(|s| s.size).collect()
    }

    /// Read references seen since the last counter reset (shared by all
    /// sizes — every size sees the same stream).
    pub fn read_references(&self) -> u64 {
        self.read_refs
    }

    /// Read misses of the `idx`-th size since the last counter reset.
    pub fn read_misses(&self, idx: usize) -> u64 {
        self.states[idx].read_misses
    }

    /// The `idx`-th size's solo read miss ratio, or `None` if no read
    /// has been counted.
    pub fn read_miss_ratio(&self, idx: usize) -> Option<f64> {
        if self.read_refs == 0 {
            None
        } else {
            Some(self.states[idx].read_misses as f64 / self.read_refs as f64)
        }
    }

    /// Convenience one-pass run: warms on the first `warmup` records,
    /// counts the rest, and returns the sweep for querying.
    pub fn run(
        block_bytes: u64,
        ways: u32,
        sizes: &[ByteSize],
        records: &[TraceRecord],
        warmup: usize,
    ) -> Self {
        Self::run_observed(
            block_bytes,
            ways,
            sizes,
            records,
            warmup,
            &Metrics::disabled(),
        )
    }

    /// [`SoloMissSweep::run`] with phase timing and reference counts fed
    /// into `metrics`: phases `solo.warmup` / `solo.measure`, counter
    /// `solo.read_refs`. Identical counting behaviour.
    pub fn run_observed(
        block_bytes: u64,
        ways: u32,
        sizes: &[ByteSize],
        records: &[TraceRecord],
        warmup: usize,
        metrics: &Metrics,
    ) -> Self {
        let mut sweep = SoloMissSweep::new(block_bytes, ways, sizes);
        let warm = warmup.min(records.len());
        let timer = metrics.time_phase("solo.warmup");
        for rec in &records[..warm] {
            sweep.access(*rec);
        }
        timer.stop();
        sweep.reset_counters();
        let timer = metrics.time_phase("solo.measure");
        for rec in &records[warm..] {
            sweep.access(*rec);
        }
        timer.stop();
        metrics.add("solo.read_refs", sweep.read_references());
        sweep
    }

    /// The largest shard count [`SoloMissSweep::run_sharded_with`]
    /// accepts for this geometry: shards partition by low block-index
    /// bits, so every shard must own *whole* sets at every swept size —
    /// the shard count may not exceed the smallest set count.
    pub fn max_shards(block_bytes: u64, ways: u32, sizes: &[ByteSize]) -> u64 {
        sizes
            .iter()
            .map(|&s| s.get() / (block_bytes * u64::from(ways)))
            .min()
            .unwrap_or(1)
            .max(1)
    }

    /// [`SoloMissSweep::run`] sharded by cache set index across worker
    /// threads, with a shard count picked from the machine's available
    /// parallelism. Bit-identical to the serial run.
    pub fn run_sharded(
        block_bytes: u64,
        ways: u32,
        sizes: &[ByteSize],
        records: &[TraceRecord],
        warmup: usize,
    ) -> Self {
        Self::run_sharded_observed(
            block_bytes,
            ways,
            sizes,
            records,
            warmup,
            &Metrics::disabled(),
        )
    }

    /// [`SoloMissSweep::run_sharded`] with observability: phases
    /// `solo.shard.partition` / `solo.measure`, counters `solo.shards`
    /// and `solo.read_refs`. Falls back to [`SoloMissSweep::run_observed`]
    /// (and its phase names) when only one shard is worthwhile.
    pub fn run_sharded_observed(
        block_bytes: u64,
        ways: u32,
        sizes: &[ByteSize],
        records: &[TraceRecord],
        warmup: usize,
        metrics: &Metrics,
    ) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|v| v.get() as u64)
            .unwrap_or(1);
        let shards = threads
            .next_power_of_two()
            .min(Self::max_shards(block_bytes, ways, sizes));
        if shards <= 1 || records.len() < 2 * shards as usize {
            return Self::run_observed(block_bytes, ways, sizes, records, warmup, metrics);
        }
        Self::run_sharded_with(block_bytes, ways, sizes, records, warmup, shards, metrics)
    }

    /// [`SoloMissSweep::run`] split into `shards` independent stack
    /// passes by cache set index, merged into a result bit-identical to
    /// the serial run — counters *and* residency state.
    ///
    /// Sets are selected by low block-index bits. Every swept size's
    /// set mask extends the `shards − 1` mask (set counts are powers of
    /// two ≥ `shards`), so the shard of a block is a *prefix* of its set
    /// index at every size: two blocks in different shards can never
    /// share a set, which makes the per-shard truncated-stack passes
    /// exactly the serial pass restricted to disjoint set families. The
    /// merge then sums miss/reference counters and takes each set's
    /// residency slots from the shard that owns it.
    ///
    /// # Panics
    ///
    /// Panics on the geometry errors of [`SoloMissSweep::new`], if
    /// `shards` is zero or not a power of two, or if `shards` exceeds
    /// [`SoloMissSweep::max_shards`].
    pub fn run_sharded_with(
        block_bytes: u64,
        ways: u32,
        sizes: &[ByteSize],
        records: &[TraceRecord],
        warmup: usize,
        shards: u64,
        metrics: &Metrics,
    ) -> Self {
        assert!(
            shards > 0 && shards.is_power_of_two(),
            "shard count must be a positive power of two, got {shards}"
        );
        let mut merged = SoloMissSweep::new(block_bytes, ways, sizes);
        assert!(
            shards <= Self::max_shards(block_bytes, ways, sizes),
            "{shards} shards exceed the smallest swept set count"
        );
        let shard_mask = shards - 1;
        let warm = warmup.min(records.len());

        // Partition the stream by owning shard, preserving per-shard
        // order; the global warm-up boundary becomes a per-shard record
        // count.
        let timer = metrics.time_phase("solo.shard.partition");
        let mut buckets: Vec<Vec<TraceRecord>> = vec![Vec::new(); shards as usize];
        let mut warm_counts = vec![0usize; shards as usize];
        for (i, rec) in records.iter().enumerate() {
            let shard = (rec.addr.block_index(block_bytes) & shard_mask) as usize;
            if i < warm {
                warm_counts[shard] += 1;
            }
            buckets[shard].push(*rec);
        }
        timer.stop();

        let timer = metrics.time_phase("solo.measure");
        let inputs: Vec<(Vec<TraceRecord>, usize)> = buckets.into_iter().zip(warm_counts).collect();
        let shard_sweeps = try_par_map(inputs, |(bucket, shard_warm)| {
            SoloMissSweep::run(block_bytes, ways, sizes, &bucket, shard_warm)
        });
        let ways = ways as usize;
        for (shard, sweep) in shard_sweeps.into_iter().enumerate() {
            let sweep = sweep.unwrap_or_else(|e| panic!("solo shard failed: {e}"));
            merged.read_refs += sweep.read_refs;
            for (into, from) in merged.states.iter_mut().zip(&sweep.states) {
                into.read_misses += from.read_misses;
                // Each set belongs to exactly one shard (its low set
                // bits), and the owning shard saw that set's full
                // reference stream in order — copy its slots verbatim.
                for set in 0..=(into.set_mask as usize) {
                    if set as u64 & shard_mask == shard as u64 {
                        let range = set * ways..(set + 1) * ways;
                        into.slots[range.clone()].copy_from_slice(&from.slots[range]);
                    }
                }
            }
        }
        timer.stop();
        metrics.add("solo.shards", shards);
        metrics.add("solo.read_refs", merged.read_references());
        merged
    }
}

/// A sweep fed by [`mlc_sim::simulate_with_warmup_tapped`] counts the L2
/// of every swept size at once: each level-1 access goes through
/// [`SoloMissSweep::access`], and the warm-up reset zeroes the counters
/// as [`SoloMissSweep::reset_counters`] does.
impl Level1Sink for SoloMissSweep {
    fn access(&mut self, rec: TraceRecord) {
        SoloMissSweep::access(self, rec);
    }

    fn reset(&mut self) {
        self.reset_counters();
    }
}

/// Per-set distinct-block footprint of a reference stream, saturating
/// just past the associativity.
///
/// This is the degenerate end of the truncated-stack machinery: a set
/// whose *entire* footprint fits within its `W` ways can never evict
/// under LRU, so every block mapping there is trivially persistent —
/// the seed the `mlc-wcet` persistence analysis uses before running its
/// fixpoint. Only "fits / does not fit" is needed, so distinct-block
/// counts saturate at `ways + 1`.
///
/// The boundary is inclusive: a set holding *exactly* `ways` distinct
/// blocks still fits (LRU keeps the `W` most recently used blocks, and
/// there are only `W` of them). Equivalently, a block re-referenced at
/// reuse distance exactly `ways − 1` hits; distance `ways` is the first
/// miss — the same boundary [`SoloMissSweep::access`] implements, pinned
/// by the regression tests below.
///
/// # Examples
///
/// ```
/// use mlc_core::stack::SetFootprint;
///
/// let mut fp = SetFootprint::new(1, 2);
/// fp.touch(0);
/// fp.touch(8); // two distinct blocks in a 2-way set: still fits
/// assert!(fp.fits(0));
/// fp.touch(16); // a third: no longer fits
/// assert!(!fp.fits(0));
/// ```
#[derive(Debug, Clone)]
pub struct SetFootprint {
    set_mask: u64,
    ways: usize,
    seen: Vec<Vec<u64>>,
}

impl SetFootprint {
    /// Creates a footprint counter for `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a positive power of two or `ways` is zero.
    pub fn new(sets: u64, ways: u32) -> Self {
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "set count must be a positive power of two, got {sets}"
        );
        assert!(ways > 0, "associativity must be positive");
        SetFootprint {
            set_mask: sets - 1,
            ways: ways as usize,
            seen: vec![Vec::new(); sets as usize],
        }
    }

    /// Records one reference to `block` (a block index, not an address).
    pub fn touch(&mut self, block: u64) {
        let set = &mut self.seen[(block & self.set_mask) as usize];
        // Saturated: once past ways the exact count no longer matters.
        if set.len() > self.ways || set.contains(&block) {
            return;
        }
        set.push(block);
    }

    /// Distinct blocks seen in `block`'s set, saturating at `ways + 1`.
    pub fn distinct(&self, block: u64) -> usize {
        self.seen[(block & self.set_mask) as usize].len()
    }

    /// Whether `block`'s set footprint fits within the associativity —
    /// i.e. no reference mapping there can ever miss after its first.
    pub fn fits(&self, block: u64) -> bool {
        self.distinct(block) <= self.ways
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlc_sim::solo;
    use mlc_sim::LevelCacheConfig;
    use mlc_trace::synth::{workload::Preset, MultiProgramGenerator};

    fn preset_trace(n: usize, seed: u64) -> Vec<TraceRecord> {
        MultiProgramGenerator::new(Preset::Mips2.config(seed))
            .expect("valid preset")
            .generate_records(n)
    }

    fn ladder(lo_kib: u64, hi_kib: u64) -> Vec<ByteSize> {
        let mut out = Vec::new();
        let mut s = lo_kib;
        while s <= hi_kib {
            out.push(ByteSize::kib(s));
            s <<= 1;
        }
        out
    }

    fn solo_misses(
        size: ByteSize,
        block: u64,
        ways: u32,
        trace: &[TraceRecord],
        warmup: usize,
    ) -> u64 {
        let config = CacheConfig::builder()
            .total(size)
            .block_bytes(block)
            .ways(ways)
            .build()
            .unwrap();
        solo::solo_stats(
            LevelCacheConfig::Unified(config),
            trace.iter().copied(),
            warmup,
        )
        .read_misses()
    }

    #[test]
    fn matches_direct_mapped_solo_sim() {
        let trace = preset_trace(60_000, 7);
        let sizes = ladder(4, 256);
        let sweep = SoloMissSweep::run(32, 1, &sizes, &trace, 15_000);
        for (i, &size) in sizes.iter().enumerate() {
            assert_eq!(
                sweep.read_misses(i),
                solo_misses(size, 32, 1, &trace, 15_000),
                "direct-mapped at {size}"
            );
        }
    }

    #[test]
    fn matches_set_associative_solo_sim() {
        let trace = preset_trace(50_000, 11);
        for ways in [2u32, 4, 8] {
            let sizes = ladder(8, 64);
            let sweep = SoloMissSweep::run(32, ways, &sizes, &trace, 10_000);
            for (i, &size) in sizes.iter().enumerate() {
                assert_eq!(
                    sweep.read_misses(i),
                    solo_misses(size, 32, ways, &trace, 10_000),
                    "{ways}-way at {size}"
                );
            }
        }
    }

    #[test]
    fn miss_counts_fall_with_size() {
        let trace = preset_trace(40_000, 13);
        let sizes = ladder(4, 512);
        let sweep = SoloMissSweep::run(32, 1, &sizes, &trace, 10_000);
        // Not strictly monotone for direct-mapped (conflict luck), but
        // the extremes must order correctly on a real workload.
        assert!(sweep.read_misses(0) > sweep.read_misses(sizes.len() - 1));
        let r0 = sweep.read_miss_ratio(0).unwrap();
        assert!(r0 > 0.0 && r0 <= 1.0);
    }

    #[test]
    fn writes_allocate_but_are_not_counted() {
        let sizes = [ByteSize::kib(4)];
        let mut sweep = SoloMissSweep::new(16, 1, &sizes);
        sweep.access(TraceRecord::write(0x40));
        assert_eq!(sweep.read_references(), 0);
        assert_eq!(sweep.read_misses(0), 0);
        // The store allocated: the subsequent read hits.
        sweep.access(TraceRecord::read(0x40));
        assert_eq!(sweep.read_references(), 1);
        assert_eq!(sweep.read_misses(0), 0);
    }

    #[test]
    fn supports_gates_on_policies() {
        let base = CacheConfig::builder()
            .total(ByteSize::kib(64))
            .block_bytes(32)
            .build()
            .unwrap();
        assert!(SoloMissSweep::supports(&base));
        let fifo_dm = CacheConfig::builder()
            .total(ByteSize::kib(64))
            .block_bytes(32)
            .replacement(Replacement::Fifo)
            .build()
            .unwrap();
        assert!(
            SoloMissSweep::supports(&fifo_dm),
            "replacement is vacuous when direct-mapped"
        );
        let fifo_assoc = CacheConfig::builder()
            .total(ByteSize::kib(64))
            .block_bytes(32)
            .ways(4)
            .replacement(Replacement::Fifo)
            .build()
            .unwrap();
        assert!(!SoloMissSweep::supports(&fifo_assoc));
        let victim = CacheConfig::builder()
            .total(ByteSize::kib(64))
            .block_bytes(32)
            .victim_entries(2)
            .build()
            .unwrap();
        assert!(!SoloMissSweep::supports(&victim));
        let no_alloc = CacheConfig::builder()
            .total(ByteSize::kib(64))
            .block_bytes(32)
            .alloc_policy(AllocPolicy::NoWriteAllocate)
            .build()
            .unwrap();
        assert!(!SoloMissSweep::supports(&no_alloc));
    }

    #[test]
    #[should_panic(expected = "power-of-two multiple")]
    fn rejects_non_power_of_two_sets() {
        // 48 KB / (32 B × 1 way) = 1536 sets: not a power of two.
        SoloMissSweep::new(32, 1, &[ByteSize::new(48 * 1024)]);
    }

    #[test]
    fn reuse_at_exactly_associativity_depth_is_the_boundary() {
        // Pinned regression for the truncated-stack off-by-one audit: a
        // block re-referenced after exactly `ways − 1` distinct
        // intervening conflicts must HIT (it sits in the deepest slot);
        // after `ways` distinct conflicts it must MISS. Both sides of
        // the boundary, at every supported associativity.
        for ways in [1u32, 2, 4, 8] {
            let block = 64u64; // one set: size = ways blocks
            let size = ByteSize::new(u64::from(ways) * block);
            let conflict = |i: u64| TraceRecord::read((i + 1) * block * 1024);

            // Hit side: ways − 1 intervening distinct blocks.
            let mut sweep = SoloMissSweep::new(block, ways, &[size]);
            sweep.access(TraceRecord::read(0));
            for i in 0..u64::from(ways) - 1 {
                sweep.access(conflict(i));
            }
            let misses_before = sweep.read_misses(0);
            sweep.access(TraceRecord::read(0));
            assert_eq!(
                sweep.read_misses(0),
                misses_before,
                "{ways}-way: reuse distance {} must hit",
                ways - 1
            );

            // Miss side: ways intervening distinct blocks.
            let mut sweep = SoloMissSweep::new(block, ways, &[size]);
            sweep.access(TraceRecord::read(0));
            for i in 0..u64::from(ways) {
                sweep.access(conflict(i));
            }
            let misses_before = sweep.read_misses(0);
            sweep.access(TraceRecord::read(0));
            assert_eq!(
                sweep.read_misses(0),
                misses_before + 1,
                "{ways}-way: reuse distance {ways} must miss"
            );
        }
    }

    #[test]
    fn set_footprint_boundary_is_inclusive_at_ways() {
        // The persistence seed must treat a set holding exactly `ways`
        // distinct blocks as fitting (nothing can ever be evicted), and
        // one more block as not fitting.
        for ways in [1u32, 2, 4] {
            let mut fp = SetFootprint::new(1, ways);
            for b in 0..u64::from(ways) {
                fp.touch(b * 16);
                fp.touch(b * 16); // re-touches do not inflate the count
            }
            assert!(fp.fits(0), "{ways}-way: footprint == ways must fit");
            assert_eq!(fp.distinct(0), ways as usize);
            fp.touch(u64::from(ways) * 16);
            assert!(
                !fp.fits(0),
                "{ways}-way: footprint == ways + 1 must not fit"
            );
        }
    }

    #[test]
    fn set_footprint_routes_blocks_to_sets() {
        let mut fp = SetFootprint::new(4, 1);
        fp.touch(0);
        fp.touch(1);
        fp.touch(2);
        // Distinct sets: each still fits.
        assert!(fp.fits(0) && fp.fits(1) && fp.fits(2));
        // 4 maps onto 0's set and overflows the single way.
        fp.touch(4);
        assert!(!fp.fits(0));
        assert!(fp.fits(1));
    }

    #[test]
    fn sharded_is_bit_identical_to_serial() {
        // Satellite property: sharded vs serial SoloMissSweep across
        // several machine shapes — identical miss counts, reference
        // counts, and residency state at every shard count the geometry
        // admits.
        let trace = preset_trace(40_000, 23);
        let shapes: [(u64, u32, u64, u64); 4] = [
            (32, 1, 4, 256),  // direct-mapped, wide ladder
            (32, 4, 8, 64),   // 4-way
            (16, 2, 4, 32),   // small blocks, 2-way
            (64, 8, 16, 128), // big blocks, highly associative
        ];
        for (block, ways, lo_kib, hi_kib) in shapes {
            let sizes = ladder(lo_kib, hi_kib);
            let serial = SoloMissSweep::run(block, ways, &sizes, &trace, 10_000);
            let max = SoloMissSweep::max_shards(block, ways, &sizes);
            let mut shards = 2u64;
            while shards <= max.min(8) {
                let sharded = SoloMissSweep::run_sharded_with(
                    block,
                    ways,
                    &sizes,
                    &trace,
                    10_000,
                    shards,
                    &Metrics::disabled(),
                );
                assert_eq!(
                    sharded.read_references(),
                    serial.read_references(),
                    "{block}B/{ways}-way, {shards} shards"
                );
                for (i, &size) in sizes.iter().enumerate() {
                    assert_eq!(
                        sharded.read_misses(i),
                        serial.read_misses(i),
                        "{block}B/{ways}-way at {size}, {shards} shards"
                    );
                }
                for (a, b) in sharded.states.iter().zip(&serial.states) {
                    assert_eq!(a.slots, b.slots, "{block}B/{ways}-way residency");
                }
                shards <<= 1;
            }
        }
    }

    #[test]
    fn sharded_auto_picks_a_valid_shard_count() {
        let trace = preset_trace(20_000, 29);
        let sizes = ladder(4, 64);
        let serial = SoloMissSweep::run(32, 1, &sizes, &trace, 5_000);
        let sharded = SoloMissSweep::run_sharded(32, 1, &sizes, &trace, 5_000);
        for i in 0..sizes.len() {
            assert_eq!(sharded.read_misses(i), serial.read_misses(i));
        }
        assert_eq!(sharded.read_references(), serial.read_references());
    }

    #[test]
    fn sharded_merge_preserves_continued_use() {
        // The merged residency state must behave exactly like the
        // serial sweep's if the caller keeps feeding references.
        let trace = preset_trace(15_000, 31);
        let sizes = ladder(8, 32);
        let mut serial = SoloMissSweep::run(32, 2, &sizes, &trace, 0);
        let mut sharded =
            SoloMissSweep::run_sharded_with(32, 2, &sizes, &trace, 0, 4, &Metrics::disabled());
        for rec in preset_trace(5_000, 37) {
            serial.access(rec);
            sharded.access(rec);
        }
        for i in 0..sizes.len() {
            assert_eq!(sharded.read_misses(i), serial.read_misses(i));
        }
    }

    #[test]
    #[should_panic(expected = "exceed the smallest swept set count")]
    fn sharded_rejects_too_many_shards() {
        // 4 KiB / (32 B × 8 ways) = 16 sets: 32 shards cannot own whole
        // sets.
        let trace = preset_trace(1_000, 41);
        SoloMissSweep::run_sharded_with(
            32,
            8,
            &[ByteSize::kib(4)],
            &trace,
            0,
            32,
            &Metrics::disabled(),
        );
    }

    #[test]
    fn warmup_matches_solo_boundary_semantics() {
        let trace = preset_trace(20_000, 17);
        let sizes = [ByteSize::kib(16)];
        for warmup in [0usize, 1, 5_000, 25_000] {
            let sweep = SoloMissSweep::run(32, 1, &sizes, &trace, warmup);
            assert_eq!(
                sweep.read_misses(0),
                solo_misses(sizes[0], 32, 1, &trace, warmup),
                "warmup {warmup}"
            );
        }
    }
}
