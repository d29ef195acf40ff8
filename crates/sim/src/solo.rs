//! Solo miss ratios: a cache measured as the *only* cache in the system.
//!
//! The paper defines a cache's **solo** miss ratio as the miss ratio it
//! would have if every other cache were removed (§2). Because miss
//! sequences are independent of timing, the solo ratio needs only a
//! functional simulation, which is what this module provides — it is an
//! order of magnitude faster than a timed run and is used heavily by the
//! Figure 3 experiments.

use mlc_cache::{CacheStats, CacheUnit};
use mlc_trace::TraceRecord;

use crate::config::LevelCacheConfig;

/// Functionally simulates `records` against a lone cache, returning its
/// statistics. The first `warmup` records touch the cache but are
/// excluded from the counters (the paper's cold-start removal).
///
/// # Examples
///
/// ```
/// use mlc_cache::{ByteSize, CacheConfig};
/// use mlc_sim::{solo, LevelCacheConfig};
/// use mlc_trace::TraceRecord;
///
/// let cache = CacheConfig::builder().total(ByteSize::kib(4)).build()?;
/// let trace = vec![TraceRecord::read(0x40); 100];
/// let stats = solo::solo_stats(LevelCacheConfig::Unified(cache), trace, 0);
/// assert_eq!(stats.read_misses(), 1); // one cold miss, then hits
/// # Ok::<(), mlc_cache::ConfigError>(())
/// ```
pub fn solo_stats<I>(config: LevelCacheConfig, records: I, warmup: usize) -> CacheStats
where
    I: IntoIterator<Item = TraceRecord>,
{
    let mut unit = match config {
        LevelCacheConfig::Unified(c) => CacheUnit::unified(c),
        LevelCacheConfig::Split { icache, dcache } => CacheUnit::split(icache, dcache),
    };
    let mut iter = records.into_iter();
    for rec in iter.by_ref().take(warmup) {
        unit.access(rec.addr, rec.kind);
    }
    unit.reset_stats();
    for rec in iter {
        unit.access(rec.addr, rec.kind);
    }
    unit.stats()
}

/// The solo *read* miss ratio (loads + instruction fetches), or `None` if
/// the post-warm-up trace contains no reads.
pub fn solo_read_miss_ratio<I>(config: LevelCacheConfig, records: I, warmup: usize) -> Option<f64>
where
    I: IntoIterator<Item = TraceRecord>,
{
    solo_stats(config, records, warmup).local_read_miss_ratio()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlc_cache::{ByteSize, CacheConfig};
    use mlc_trace::TraceRecord;

    fn cache(kib: u64) -> LevelCacheConfig {
        LevelCacheConfig::Unified(
            CacheConfig::builder()
                .total(ByteSize::kib(kib))
                .block_bytes(16)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn cold_miss_counted_without_warmup() {
        let trace = vec![TraceRecord::read(0x40); 10];
        let stats = solo_stats(cache(4), trace, 0);
        assert_eq!(stats.read_misses(), 1);
        assert_eq!(stats.read_references(), 10);
    }

    #[test]
    fn warmup_discards_cold_misses() {
        let trace = vec![TraceRecord::read(0x40); 10];
        let ratio = solo_read_miss_ratio(cache(4), trace, 1).unwrap();
        assert_eq!(ratio, 0.0);
    }

    #[test]
    fn bigger_cache_never_misses_more_on_looping_trace() {
        // A cyclic walk over 8 KB of blocks: fits in 8 KB+, thrashes 4 KB.
        let mut trace = Vec::new();
        for lap in 0..20 {
            for b in 0..512u64 {
                trace.push(TraceRecord::read(b * 16));
            }
            let _ = lap;
        }
        let small = solo_read_miss_ratio(cache(4), trace.iter().copied(), 512).unwrap();
        let big = solo_read_miss_ratio(cache(16), trace.iter().copied(), 512).unwrap();
        assert!(big < small, "big {big} vs small {small}");
        assert_eq!(big, 0.0);
        assert_eq!(small, 1.0, "LRU-like direct-mapped cyclic thrash");
    }

    #[test]
    fn split_configuration_routes() {
        let half = CacheConfig::builder()
            .total(ByteSize::kib(2))
            .block_bytes(16)
            .build()
            .unwrap();
        let split = LevelCacheConfig::Split {
            icache: half,
            dcache: half,
        };
        let trace = vec![
            TraceRecord::ifetch(0x40),
            TraceRecord::read(0x40),
            TraceRecord::ifetch(0x40),
            TraceRecord::read(0x40),
        ];
        let stats = solo_stats(split, trace, 0);
        // Each side takes its own cold miss, then hits.
        assert_eq!(stats.read_misses(), 2);
        assert_eq!(stats.read_references(), 4);
    }

    #[test]
    fn warmup_longer_than_trace_counts_nothing() {
        let trace = vec![TraceRecord::read(0x40); 5];
        let stats = solo_stats(cache(4), trace, 100);
        assert_eq!(stats.total_references(), 0);
        assert_eq!(solo_read_miss_ratio(cache(4), vec![], 0), None);
    }
}
