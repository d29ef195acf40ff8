//! Simulation results: cycle accounting and the paper's three miss-ratio
//! families.
//!
//! Naming note: this module is about *what a simulation measured* —
//! [`SimResult`] and the Equation 1 [`EventCounts`]. It is unrelated to
//! the observability crate's [`mlc_obs::Metrics`] handle (counters,
//! gauges, phase timers, JSONL export); `crate::observe` translates the
//! former into the latter at phase boundaries. Import [`SimResult`] /
//! [`EventCounts`] from `mlc_sim`, and the pipeline type from `mlc_obs`.

use std::fmt;

use mlc_cache::CacheStats;
use mlc_mem::{MemoryStats, WriteBufferStats};

/// Measured statistics for one hierarchy level.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelMetrics {
    /// The level's display name.
    pub name: String,
    /// Hit/miss counters (split levels report the merged I+D counters).
    pub cache: CacheStats,
    /// The level's outbound write buffer counters.
    pub write_buffer: WriteBufferStats,
    /// Bytes fetched into this level from the next level down.
    pub fetched_bytes: u64,
    /// Bytes this level wrote downstream (write-backs and
    /// write-throughs).
    pub writeback_bytes: u64,
}

impl LevelMetrics {
    /// Total bus traffic below this level: fetches plus write-backs.
    /// The paper's §5 uses this to argue that associative second-level
    /// caches are "substantially better at reducing the memory traffic".
    pub fn traffic_bytes(&self) -> u64 {
        self.fetched_bytes + self.writeback_bytes
    }

    /// The *local* read miss ratio: misses over read references reaching
    /// this level. `None` if the level saw no reads.
    pub fn local_read_miss_ratio(&self) -> Option<f64> {
        self.cache.local_read_miss_ratio()
    }

    /// The *global* read miss ratio: this level's read misses over CPU
    /// read references. `None` if the CPU issued no reads.
    pub fn global_read_miss_ratio(&self, cpu_reads: u64) -> Option<f64> {
        if cpu_reads == 0 {
            None
        } else {
            Some(self.cache.read_misses() as f64 / cpu_reads as f64)
        }
    }
}

/// The complete result of a simulation run.
///
/// All counters cover the *measurement window*: everything after the most
/// recent warm-up reset.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Total execution time in CPU cycles.
    pub total_cycles: u64,
    /// Instructions executed (= instruction fetches issued).
    pub instructions: u64,
    /// CPU read references (instruction fetches + loads) — the
    /// denominator of every global miss ratio.
    pub cpu_reads: u64,
    /// Data loads issued.
    pub loads: u64,
    /// Stores issued.
    pub stores: u64,
    /// Cycles the CPU spent stalled on reads (ifetch and load misses).
    pub read_stall_cycles: u64,
    /// Cycles attributable to writes beyond their base cycle (write-hit
    /// extra cycles, write-miss fetches, buffer-full waits) — the paper's
    /// per-store `z`<sub>L1write</sub> numerator.
    pub write_stall_cycles: u64,
    /// The CPU cycle time, for converting cycles to wall-clock time.
    pub cpu_cycle_ns: f64,
    /// Per-level statistics, upstream first.
    pub levels: Vec<LevelMetrics>,
    /// Main-memory counters.
    pub memory: MemoryStats,
}

/// The per-level event counts that drive the paper's Equation 1 — the
/// quantities a cycle-time model needs to reconstitute execution time:
/// how often each level was read, missed and written, how much dirty
/// traffic it pushed down, how often its write buffer blocked a
/// producer, and how long main memory held requests back (busy +
/// refresh gap).
///
/// Produced by [`SimResult::event_counts`]; all vectors are indexed
/// upstream-first like [`SimResult::levels`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventCounts {
    /// CPU read references (instruction fetches + loads).
    pub cpu_reads: u64,
    /// CPU stores.
    pub cpu_writes: u64,
    /// Read references reaching each level.
    pub reads: Vec<u64>,
    /// Read misses at each level.
    pub read_misses: Vec<u64>,
    /// Write references reaching each level (stores at L1, drained
    /// buffer traffic below).
    pub writes: Vec<u64>,
    /// Dirty evictions (write-backs) leaving each level.
    pub dirty_evictions: Vec<u64>,
    /// Times each level's write buffer was full when a producer pushed —
    /// every one is a synchronous buffer-full stall.
    pub buffer_full_stalls: Vec<u64>,
    /// Main-memory reads.
    pub memory_reads: u64,
    /// Main-memory writes.
    pub memory_writes: u64,
    /// Ticks main-memory requests waited for the memory to become
    /// available — the busy/refresh-gap overlap of Equation 1's
    /// `T-recovery` term.
    ///
    /// **Units**: memory "ticks" equal CPU cycles in every `mlc-sim`
    /// integration — the timing engine builds its
    /// [`mlc_mem::MemoryTiming`] through `Clock::ns_to_cycles`, so the
    /// memory model counts in the CPU's clock. (The name keeps "ticks"
    /// because `mlc-mem` itself is clock-agnostic: handed a timing in
    /// some other unit, its stats are in that unit.) Use
    /// [`EventCounts::refresh_wait_cycles`] when the CPU-cycle meaning
    /// is intended — the cycle ledger's `refresh_wait` bucket counts in
    /// the same unit — and [`EventCounts::refresh_wait_ns`] to convert
    /// to wall-clock time.
    pub refresh_wait_ticks: u64,
}

impl EventCounts {
    /// [`EventCounts::refresh_wait_ticks`] in CPU cycles. In `mlc-sim`
    /// integrations the two units coincide (the simulator drives main
    /// memory on the CPU clock), so this is the identity — it exists to
    /// make call sites say which unit they mean.
    pub fn refresh_wait_cycles(&self) -> u64 {
        self.refresh_wait_ticks
    }

    /// The refresh/busy wait as wall-clock nanoseconds, given the CPU
    /// cycle time the run used ([`SimResult::cpu_cycle_ns`]).
    pub fn refresh_wait_ns(&self, cpu_cycle_ns: f64) -> f64 {
        self.refresh_wait_ticks as f64 * cpu_cycle_ns
    }
}

impl SimResult {
    /// The per-level event counts behind the paper's Equation 1.
    ///
    /// These are the *functional* quantities of the run — independent of
    /// cycle-time parameters except for [`EventCounts::refresh_wait_ticks`],
    /// which depends on request spacing and is the reason cycle-time
    /// reconstruction cannot be purely analytic (see `mlc-core`'s
    /// one-pass sweep engine).
    pub fn event_counts(&self) -> EventCounts {
        EventCounts {
            cpu_reads: self.cpu_reads,
            cpu_writes: self.stores,
            reads: self
                .levels
                .iter()
                .map(|l| l.cache.read_references())
                .collect(),
            read_misses: self.levels.iter().map(|l| l.cache.read_misses()).collect(),
            writes: self
                .levels
                .iter()
                .map(|l| l.cache.write_references())
                .collect(),
            dirty_evictions: self.levels.iter().map(|l| l.cache.writebacks).collect(),
            buffer_full_stalls: self
                .levels
                .iter()
                .map(|l| l.write_buffer.full_events)
                .collect(),
            memory_reads: self.memory.reads,
            memory_writes: self.memory.writes,
            refresh_wait_ticks: self.memory.wait_ticks,
        }
    }

    /// Mean cycles per instruction.
    ///
    /// Returns `None` if no instructions were executed.
    pub fn cpi(&self) -> Option<f64> {
        if self.instructions == 0 {
            None
        } else {
            Some(self.total_cycles as f64 / self.instructions as f64)
        }
    }

    /// Total execution time in nanoseconds.
    pub fn execution_time_ns(&self) -> f64 {
        self.total_cycles as f64 * self.cpu_cycle_ns
    }

    /// Execution time relative to another run of the same workload —
    /// the paper's "relative execution time" y-axis.
    ///
    /// Returns `None` if `baseline` executed zero cycles.
    pub fn relative_to(&self, baseline: &SimResult) -> Option<f64> {
        if baseline.total_cycles == 0 {
            None
        } else {
            Some(self.execution_time_ns() / baseline.execution_time_ns())
        }
    }

    /// The global read miss ratio of level `idx`.
    pub fn global_read_miss_ratio(&self, idx: usize) -> Option<f64> {
        self.levels.get(idx)?.global_read_miss_ratio(self.cpu_reads)
    }

    /// The local read miss ratio of level `idx`.
    pub fn local_read_miss_ratio(&self, idx: usize) -> Option<f64> {
        self.levels.get(idx)?.local_read_miss_ratio()
    }

    /// Mean write (and write-stall) cycles per store — the paper's
    /// `z`<sub>L1write</sub>. `None` if no stores executed.
    pub fn write_cycles_per_store(&self) -> Option<f64> {
        if self.stores == 0 {
            None
        } else {
            Some(self.write_stall_cycles as f64 / self.stores as f64)
        }
    }
}

impl fmt::Display for SimResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} cycles, {} instructions (CPI {:.3})",
            self.total_cycles,
            self.instructions,
            self.cpi().unwrap_or(f64::NAN)
        )?;
        for (i, level) in self.levels.iter().enumerate() {
            writeln!(
                f,
                "  {}: local read miss {:.4}, global read miss {:.4}",
                level.name,
                level.local_read_miss_ratio().unwrap_or(f64::NAN),
                self.global_read_miss_ratio(i).unwrap_or(f64::NAN),
            )?;
        }
        write!(
            f,
            "  memory: {} reads, {} writes",
            self.memory.reads, self.memory.writes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlc_trace::AccessKind;

    fn result() -> SimResult {
        let mut l1 = CacheStats::default();
        for _ in 0..90 {
            l1.record(AccessKind::InstructionFetch, true);
        }
        for _ in 0..10 {
            l1.record(AccessKind::InstructionFetch, false);
        }
        let mut l2 = CacheStats::default();
        for _ in 0..7 {
            l2.record(AccessKind::InstructionFetch, true);
        }
        for _ in 0..3 {
            l2.record(AccessKind::InstructionFetch, false);
        }
        SimResult {
            total_cycles: 150,
            instructions: 100,
            cpu_reads: 100,
            loads: 0,
            stores: 20,
            read_stall_cycles: 40,
            write_stall_cycles: 30,
            cpu_cycle_ns: 10.0,
            levels: vec![
                LevelMetrics {
                    name: "L1".into(),
                    cache: l1,
                    write_buffer: Default::default(),
                    fetched_bytes: 160,
                    writeback_bytes: 32,
                },
                LevelMetrics {
                    name: "L2".into(),
                    cache: l2,
                    write_buffer: Default::default(),
                    fetched_bytes: 96,
                    writeback_bytes: 0,
                },
            ],
            memory: MemoryStats::default(),
        }
    }

    #[test]
    fn cpi_and_time() {
        let r = result();
        assert_eq!(r.cpi(), Some(1.5));
        assert_eq!(r.execution_time_ns(), 1500.0);
    }

    #[test]
    fn miss_ratio_families() {
        let r = result();
        // L1 local == L1 global (all CPU reads reach L1).
        assert!((r.local_read_miss_ratio(0).unwrap() - 0.10).abs() < 1e-12);
        assert!((r.global_read_miss_ratio(0).unwrap() - 0.10).abs() < 1e-12);
        // L2: local 3/10, global 3/100.
        assert!((r.local_read_miss_ratio(1).unwrap() - 0.30).abs() < 1e-12);
        assert!((r.global_read_miss_ratio(1).unwrap() - 0.03).abs() < 1e-12);
        assert_eq!(r.global_read_miss_ratio(5), None);
    }

    #[test]
    fn relative_execution_time() {
        let a = result();
        let mut b = result();
        b.total_cycles = 300;
        assert_eq!(b.relative_to(&a), Some(2.0));
        let mut zero = result();
        zero.total_cycles = 0;
        assert_eq!(a.relative_to(&zero), None);
    }

    #[test]
    fn write_cycles_per_store() {
        let r = result();
        assert_eq!(r.write_cycles_per_store(), Some(1.5));
        let mut r2 = result();
        r2.stores = 0;
        assert_eq!(r2.write_cycles_per_store(), None);
    }

    #[test]
    fn zero_instruction_guards() {
        let mut r = result();
        r.instructions = 0;
        assert_eq!(r.cpi(), None);
        r.cpu_reads = 0;
        assert_eq!(r.global_read_miss_ratio(0), None);
    }

    #[test]
    fn traffic_sums_both_directions() {
        let r = result();
        assert_eq!(r.levels[0].traffic_bytes(), 192);
        assert_eq!(r.levels[1].traffic_bytes(), 96);
    }

    #[test]
    fn event_counts_mirror_level_stats() {
        let r = result();
        let e = r.event_counts();
        assert_eq!(e.cpu_reads, 100);
        assert_eq!(e.cpu_writes, 20);
        assert_eq!(e.reads, vec![100, 10]);
        assert_eq!(e.read_misses, vec![10, 3]);
        assert_eq!(e.writes, vec![0, 0]);
        assert_eq!(e.dirty_evictions, vec![0, 0]);
        assert_eq!(e.buffer_full_stalls, vec![0, 0]);
        assert_eq!(e.refresh_wait_ticks, 0);
    }

    #[test]
    fn display_mentions_levels() {
        let s = result().to_string();
        assert!(s.contains("L1"));
        assert!(s.contains("L2"));
        assert!(s.contains("CPI"));
    }
}
