//! Hierarchy configuration: CPU, cache levels and main memory.

use std::error::Error;
use std::fmt;

use mlc_cache::{AllocPolicy, CacheConfig, Prefetch, WritePolicy};

/// An invalid hierarchy configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfigError {
    message: String,
}

impl SimConfigError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        SimConfigError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid hierarchy configuration: {}", self.message)
    }
}

impl Error for SimConfigError {}

/// The CPU model's parameters.
///
/// The paper's CPU (§2) is a RISC-like machine executing one instruction
/// fetch and at most one data access per non-stall cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuConfig {
    /// CPU cycle time in nanoseconds (base machine: 10 ns).
    pub cycle_ns: f64,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig { cycle_ns: 10.0 }
    }
}

/// The cache organisation of one hierarchy level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelCacheConfig {
    /// A unified cache serving all reference kinds.
    Unified(CacheConfig),
    /// Split instruction/data caches (the base machine's L1).
    Split {
        /// Instruction cache configuration.
        icache: CacheConfig,
        /// Data cache configuration.
        dcache: CacheConfig,
    },
}

impl LevelCacheConfig {
    /// The level's caches: the one cache of a unified level, or the
    /// instruction then data halves of a split one.
    fn caches(&self) -> impl Iterator<Item = &CacheConfig> {
        let (first, second) = match self {
            LevelCacheConfig::Unified(c) => (c, None),
            LevelCacheConfig::Split { icache, dcache } => (icache, Some(dcache)),
        };
        std::iter::once(first).chain(second)
    }

    /// Total capacity in bytes (both halves for a split level).
    pub fn total_bytes(&self) -> u64 {
        self.caches().map(|c| c.geometry().total_bytes()).sum()
    }
}

/// One level of the hierarchy: cache organisation plus timing.
///
/// The level's *cycle time* follows the paper's convention: reads that tag
/// hit complete in `read_cycles`; write hits take `write_cycles`
/// (typically twice the read time).
#[derive(Debug, Clone, PartialEq)]
pub struct LevelConfig {
    /// Display name ("L1", "L2", …).
    pub name: String,
    /// Cache organisation.
    pub cache: LevelCacheConfig,
    /// Read access time, in CPU cycles. This is the level's cycle time in
    /// the paper's terminology.
    pub read_cycles: u64,
    /// Write-hit time, in CPU cycles (paper: two level cycles).
    pub write_cycles: u64,
    /// Entries in the write buffer draining this level's evictions
    /// downstream (paper: 4 at every level).
    pub write_buffer_entries: usize,
    /// Width, in bytes, of the bus over which this level refills from the
    /// next level down (paper: 4 words = 16 bytes).
    pub refill_bus_bytes: u64,
    /// Cycle time of that refill bus in CPU cycles; `None` derives the
    /// paper's convention (the downstream cache's cycle time, or this
    /// level's own cycle time when the next level down is main memory —
    /// the "backplane" case).
    pub refill_bus_cycles: Option<u64>,
}

impl LevelConfig {
    /// Creates a level with paper-default buffering and bus parameters.
    ///
    /// `read_cycles` is the level's cycle time; the write-hit time
    /// defaults to twice that.
    pub fn new(name: impl Into<String>, cache: LevelCacheConfig, read_cycles: u64) -> Self {
        LevelConfig {
            name: name.into(),
            cache,
            read_cycles,
            write_cycles: 2 * read_cycles,
            write_buffer_entries: 4,
            refill_bus_bytes: 16,
            refill_bus_cycles: None,
        }
    }
}

/// Main-memory parameters, in nanoseconds (converted to CPU cycles at
/// simulator construction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryConfig {
    /// Read operation time: address to full data (paper: 180 ns).
    pub read_ns: f64,
    /// Write operation time (paper: 100 ns).
    pub write_ns: f64,
    /// Minimum refresh/cycle gap between data operations (paper: 120 ns).
    pub gap_ns: f64,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            read_ns: 180.0,
            write_ns: 100.0,
            gap_ns: 120.0,
        }
    }
}

impl MemoryConfig {
    /// Returns this memory uniformly slowed by `factor` (Figure 4-4 uses
    /// factor 2).
    pub fn scaled(&self, factor: f64) -> Self {
        MemoryConfig {
            read_ns: self.read_ns * factor,
            write_ns: self.write_ns * factor,
            gap_ns: self.gap_ns * factor,
        }
    }
}

/// A complete hierarchy: CPU, one or more cache levels, main memory.
///
/// Level 0 is nearest the CPU (the paper's "first level"); higher indices
/// are *downstream* (closer to memory).
///
/// # Examples
///
/// ```
/// use mlc_cache::{ByteSize, CacheConfig};
/// use mlc_sim::{CpuConfig, HierarchyConfig, LevelCacheConfig, LevelConfig, MemoryConfig};
///
/// let l1 = CacheConfig::builder().total(ByteSize::kib(4)).block_bytes(16).build()?;
/// let config = HierarchyConfig {
///     cpu: CpuConfig::default(),
///     levels: vec![LevelConfig::new("L1", LevelCacheConfig::Unified(l1), 1)],
///     memory: MemoryConfig::default(),
/// };
/// assert!(config.validate().is_ok());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyConfig {
    /// CPU parameters.
    pub cpu: CpuConfig,
    /// Cache levels, upstream first.
    pub levels: Vec<LevelConfig>,
    /// Main-memory parameters.
    pub memory: MemoryConfig,
}

impl HierarchyConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`SimConfigError`] describing the first problem found.
    pub fn validate(&self) -> Result<(), SimConfigError> {
        if !(self.cpu.cycle_ns.is_finite() && self.cpu.cycle_ns > 0.0) {
            return Err(SimConfigError::new(format!(
                "CPU cycle time must be positive, got {}",
                self.cpu.cycle_ns
            )));
        }
        if self.levels.is_empty() {
            return Err(SimConfigError::new("at least one cache level is required"));
        }
        for (i, level) in self.levels.iter().enumerate() {
            let ctx =
                |msg: String| SimConfigError::new(format!("level {} ({}): {msg}", i, level.name));
            if level.read_cycles == 0 {
                return Err(ctx("read_cycles must be positive".into()));
            }
            if level.write_cycles == 0 {
                return Err(ctx("write_cycles must be positive".into()));
            }
            if level.write_buffer_entries == 0 {
                return Err(ctx("write_buffer_entries must be positive".into()));
            }
            if level.refill_bus_bytes == 0 || !level.refill_bus_bytes.is_power_of_two() {
                return Err(ctx(format!(
                    "refill_bus_bytes must be a power of two, got {}",
                    level.refill_bus_bytes
                )));
            }
            if level.refill_bus_cycles == Some(0) {
                return Err(ctx("refill_bus_cycles must be positive".into()));
            }
        }
        for (name, v) in [
            ("read_ns", self.memory.read_ns),
            ("write_ns", self.memory.write_ns),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(SimConfigError::new(format!(
                    "memory {name} must be positive, got {v}"
                )));
            }
        }
        if !(self.memory.gap_ns.is_finite() && self.memory.gap_ns >= 0.0) {
            return Err(SimConfigError::new("memory gap_ns must be non-negative"));
        }
        Ok(())
    }

    /// The effective refill-bus cycle time for level `idx`, applying the
    /// paper's defaulting convention.
    pub fn refill_bus_cycles(&self, idx: usize) -> u64 {
        let level = &self.levels[idx];
        if let Some(c) = level.refill_bus_cycles {
            return c;
        }
        match self.levels.get(idx + 1) {
            Some(downstream) => downstream.read_cycles,
            // Deepest level: the backplane cycles at this level's rate.
            None => level.read_cycles,
        }
    }

    /// Number of cache levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Whether every write level 0 queues drains before the next fetch
    /// from cache level 1. The reference stream reaching level 1 is
    /// then fixed by the trace alone: the same under every timing and
    /// at every level-1 size, which lets one run stand for a whole L2
    /// size ladder. `check-invariants` builds assert it at every
    /// level-1 fetch; DESIGN.md §10 gives the argument.
    ///
    /// It holds when level 0 is write-back and write-allocate and
    /// fetches single blocks on demand only (no prefetch, sub-blocks or
    /// victim buffer), so a level-0 miss queues at most its one victim,
    /// ready when the fill returns; and when level 1 also fetches single
    /// blocks on demand only, so it is free again by the time its fill
    /// reaches level 0.
    pub fn level1_stream_fixed(&self) -> bool {
        let [l0, l1, ..] = self.levels.as_slice() else {
            return false;
        };
        l0.cache.caches().all(|c| {
            c.write_policy() == WritePolicy::WriteBack
                && c.alloc_policy() == AllocPolicy::WriteAllocate
                && c.prefetch() == Prefetch::None
                && c.fetch_blocks() == 1
                && c.sub_blocks() == 1
                && c.victim_entries() == 0
        }) && l1
            .cache
            .caches()
            .all(|c| c.prefetch() == Prefetch::None && c.fetch_blocks() == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlc_cache::ByteSize;

    fn cache(kib: u64, block: u64) -> CacheConfig {
        CacheConfig::builder()
            .total(ByteSize::kib(kib))
            .block_bytes(block)
            .build()
            .unwrap()
    }

    fn two_level() -> HierarchyConfig {
        HierarchyConfig {
            cpu: CpuConfig::default(),
            levels: vec![
                LevelConfig::new(
                    "L1",
                    LevelCacheConfig::Split {
                        icache: cache(2, 16),
                        dcache: cache(2, 16),
                    },
                    1,
                ),
                LevelConfig::new("L2", LevelCacheConfig::Unified(cache(512, 32)), 3),
            ],
            memory: MemoryConfig::default(),
        }
    }

    #[test]
    fn base_machine_validates() {
        assert!(two_level().validate().is_ok());
    }

    #[test]
    fn level_defaults_follow_paper() {
        let l = LevelConfig::new("L2", LevelCacheConfig::Unified(cache(512, 32)), 3);
        assert_eq!(l.write_cycles, 6);
        assert_eq!(l.write_buffer_entries, 4);
        assert_eq!(l.refill_bus_bytes, 16);
        assert_eq!(l.refill_bus_cycles, None);
    }

    #[test]
    fn refill_bus_defaults_follow_paper() {
        let c = two_level();
        // CPU–L2 bus cycles at the L2 rate.
        assert_eq!(c.refill_bus_cycles(0), 3);
        // Backplane cycles at the L2 rate too.
        assert_eq!(c.refill_bus_cycles(1), 3);
    }

    #[test]
    fn refill_bus_defaults_three_levels() {
        let mut c = two_level();
        c.levels.push(LevelConfig::new(
            "L3",
            LevelCacheConfig::Unified(cache(4096, 64)),
            8,
        ));
        // L1 refills at L2's rate, L2 at L3's, and the deepest level's
        // backplane at its own rate.
        assert_eq!(c.refill_bus_cycles(0), 3);
        assert_eq!(c.refill_bus_cycles(1), 8);
        assert_eq!(c.refill_bus_cycles(2), 8);
    }

    #[test]
    fn refill_bus_override_wins() {
        let mut c = two_level();
        c.levels[0].refill_bus_cycles = Some(2);
        assert_eq!(c.refill_bus_cycles(0), 2);
    }

    #[test]
    fn validation_rejects_bad_fields() {
        let mut c = two_level();
        c.cpu.cycle_ns = 0.0;
        assert!(c.validate().is_err());

        let mut c = two_level();
        c.levels.clear();
        assert!(c.validate().is_err());

        let mut c = two_level();
        c.levels[1].read_cycles = 0;
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("L2"));

        let mut c = two_level();
        c.levels[0].write_buffer_entries = 0;
        assert!(c.validate().is_err());

        let mut c = two_level();
        c.levels[0].refill_bus_bytes = 12;
        assert!(c.validate().is_err());

        let mut c = two_level();
        c.memory.read_ns = -1.0;
        assert!(c.validate().is_err());

        let mut c = two_level();
        c.memory.gap_ns = f64::NAN;
        assert!(c.validate().is_err());
    }

    /// The L1 must queue at most one victim per miss, ready when its fill
    /// returns, and the L2 must be free by then; anything else lets drain
    /// timing reorder the L2 stream.
    #[test]
    fn level1_stream_fixed_needs_plain_write_back_levels() {
        assert!(two_level().level1_stream_fixed());
        let mut c = two_level();
        c.levels[0].write_buffer_entries = 1;
        c.levels[1].cache = LevelCacheConfig::Unified(
            CacheConfig::builder()
                .total(ByteSize::kib(512))
                .block_bytes(32)
                .ways(4)
                .victim_entries(2)
                .build()
                .unwrap(),
        );
        assert!(c.level1_stream_fixed(), "buffer depth and L2 victims");

        let l1 = |b: &mut mlc_cache::CacheConfigBuilder| {
            let mut c = two_level();
            let dcache = b.total(ByteSize::kib(2)).block_bytes(16).build().unwrap();
            c.levels[0].cache = LevelCacheConfig::Split {
                icache: cache(2, 16),
                dcache,
            };
            c
        };
        let write_through = l1(CacheConfig::builder().write_policy(WritePolicy::WriteThrough));
        assert!(!write_through.level1_stream_fixed());
        let no_allocate = l1(CacheConfig::builder().alloc_policy(AllocPolicy::NoWriteAllocate));
        assert!(!no_allocate.level1_stream_fixed());
        let prefetch = l1(CacheConfig::builder().prefetch(Prefetch::NextBlock));
        assert!(!prefetch.level1_stream_fixed());
        let victims = l1(CacheConfig::builder().victim_entries(2));
        assert!(!victims.level1_stream_fixed());

        let mut c = two_level();
        c.levels[1].cache = LevelCacheConfig::Unified(
            CacheConfig::builder()
                .total(ByteSize::kib(512))
                .block_bytes(32)
                .fetch_blocks(2)
                .build()
                .unwrap(),
        );
        assert!(!c.level1_stream_fixed(), "L2 multi-block fetch");

        let mut c = two_level();
        c.levels.truncate(1);
        assert!(!c.level1_stream_fixed(), "no cache at level 1");
    }

    /// The bus checks the timing engine relies on: a zero or
    /// non-power-of-two width and a zero cycle time never reach it.
    #[test]
    fn validation_rejects_bad_buses() {
        for bytes in [0, 12] {
            let mut c = two_level();
            c.levels[1].refill_bus_bytes = bytes;
            let err = c.validate().unwrap_err();
            assert!(err.to_string().contains("refill_bus_bytes"), "{err}");
        }
        let mut c = two_level();
        c.levels[0].refill_bus_cycles = Some(0);
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("refill_bus_cycles"), "{err}");
    }

    #[test]
    fn memory_scaling() {
        let m = MemoryConfig::default().scaled(2.0);
        assert_eq!(m.read_ns, 360.0);
        assert_eq!(m.write_ns, 200.0);
        assert_eq!(m.gap_ns, 240.0);
    }

    #[test]
    fn level_cache_total_bytes() {
        let split = LevelCacheConfig::Split {
            icache: cache(2, 16),
            dcache: cache(2, 16),
        };
        assert_eq!(split.total_bytes(), 4096);
        let uni = LevelCacheConfig::Unified(cache(512, 32));
        assert_eq!(uni.total_bytes(), 512 * 1024);
    }

    #[test]
    fn error_display() {
        let e = SimConfigError::new("boom");
        assert!(e.to_string().contains("boom"));
    }
}
