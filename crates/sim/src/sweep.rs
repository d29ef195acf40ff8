//! The timing engine: one functional trace pass priced under one or more
//! timing variants at once.
//!
//! # Timing model
//!
//! Time is counted in integer CPU cycles ("ticks"). The CPU executes one
//! instruction fetch and at most one data access per non-stall cycle;
//! both issue at the cycle's start (the split L1 services them in
//! parallel) and the next cycle begins when every outstanding access of
//! the current cycle has completed.
//!
//! * A read that hits at a level completes after that level's
//!   `read_cycles`; delivering an upstream block wider than the bus costs
//!   one extra bus cycle per additional beat.
//! * A miss pays the level's own access time (its tag check) and then
//!   fetches from downstream, so a read that misses L1 and hits L2 costs
//!   `n_L1 + n_L2` — exactly the structure of the paper's Equation 1, and
//!   its "nominal cache miss penalty of 3 CPU cycles" for an L1 miss that
//!   hits a 3-cycle L2. The requester resumes when its whole block has
//!   arrived, as the paper specifies for both L1 and L2 misses.
//! * Dirty victims enter the evicting level's write buffer. Buffers drain
//!   *lazily*: whenever a demand request is about to use a level, queued
//!   writes that could have started in the level's preceding idle time
//!   are retired first (they may still be in service when the demand
//!   arrives — service is not preempted). A full buffer forces a
//!   synchronous drain, stalling the requester — the paper's
//!   buffer-full stall.
//! * Main memory serialises operations and enforces the refresh gap (see
//!   [`mlc_mem::MainMemory`]).
//!
//! # Lanes
//!
//! The hierarchy's *functional* behaviour — which references hit, which
//! blocks are fetched, evicted or written back — does not depend on the
//! levels' cycle times (see the `functional_behaviour_is_independent_of_
//! cycle_times` test in `hierarchy.rs`): cache contents are determined by
//! the reference order, which the in-order CPU model fixes. Only the
//! *prices* change. So the engine runs the cache model once and carries a
//! vector of clocks — one **lane** per timing variant — through the
//! timing arithmetic.
//!
//! Per lane: the simulated clock, per-level busy times, per-level
//! read/write/bus cycle counts, write-buffer entry ready-times, a main
//! memory (its busy state and refresh-gap waits are timing-dependent),
//! and the stall counters. Shared across lanes: the caches themselves,
//! the write-buffer *contents* (addresses and occupancy), and every
//! hit/miss/traffic counter.
//!
//! # Widths and observers
//!
//! The per-lane arithmetic runs over fixed-width `[u64; W]` vectors, so
//! the compiler unrolls (and auto-vectorizes) every loop with no runtime
//! lane bound. A second type parameter, the `Observer`, sees lane 0's
//! view of every record. [`TimingSweepSim`] runs one or two lanes at
//! width 2 (a daemon's one-cycle job, a plain [`simulate`](crate::simulate)
//! run) and up to [`MAX_LANES`] (12, the paper's 10-point L2 cycle
//! ladder) at width 12, with the zero-sized no-op observer.
//! [`HierarchySim`](crate::HierarchySim) is one lane at width 1 whose
//! observer keeps the cycle ledger, histograms, sampled events and the
//! `check-invariants` checker.
//! [`simulate_with_warmup_tapped`](crate::simulate_with_warmup_tapped)
//! is one lane at width 2 whose observer hands every access reaching
//! cache level 1 to the caller's sink. Unused tail lanes carry lane 0's
//! timing parameters but no main memory (`memory_read` and
//! `write_downstream` leave their completions at 0), so their clocks
//! mean nothing and a [`TimingSweepSim`]'s results drop them.
//!
//! # The one approximation
//!
//! Lazy write-buffer drains ("retire queued writes that could have
//! started in the level's idle window") are a *timing-dependent decision*
//! that feeds back into cache state: draining performs a downstream
//! write access. To keep one shared functional state, lane 0 — the
//! **decision lane** — makes all drain decisions; other lanes retire the
//! same entries at their own times. A one-lane run is therefore exact;
//! other lanes agree with their own one-lane runs except where their
//! native drain window would have differed from lane 0's, which the
//! cross-check machinery in `mlc-core` (and the `--engine exhaustive`
//! escape hatch in `mlc-sweep`) exists to bound.

use std::collections::VecDeque;

use mlc_cache::{AccessResult, CacheUnit, Fill, FillReason};
use mlc_mem::{BufferedWrite, MainMemory, MemOpKind, MemoryTiming, WriteBuffer};
use mlc_obs::Metrics;
use mlc_trace::{AccessKind, Address, TraceRecord};

use crate::bus::SweepBus;
use crate::clock::Clock;
use crate::config::{HierarchyConfig, LevelCacheConfig, SimConfigError};
use crate::ledger::Cause;
use crate::metrics::{LevelMetrics, SimResult};

/// The largest number of timing variants one [`TimingSweepSim`] carries.
/// [`simulate_timing_sweep`] transparently chunks longer lists.
pub const MAX_LANES: usize = 12;

#[inline(always)]
fn splat<const W: usize>(x: u64) -> [u64; W] {
    [x; W]
}

#[inline(always)]
fn vmax<const W: usize>(a: [u64; W], b: [u64; W]) -> [u64; W] {
    let mut out = a;
    for (o, b) in out.iter_mut().zip(b) {
        *o = (*o).max(b);
    }
    out
}

#[inline(always)]
fn vadd<const W: usize>(a: [u64; W], b: [u64; W]) -> [u64; W] {
    let mut out = a;
    for (o, b) in out.iter_mut().zip(b) {
        *o += b;
    }
    out
}

#[inline(always)]
fn vadd1<const W: usize>(a: [u64; W], x: u64) -> [u64; W] {
    let mut out = a;
    for o in out.iter_mut() {
        *o += x;
    }
    out
}

/// Accumulates `max(0, a - b)` per lane into `acc`.
#[inline(always)]
fn vstall<const W: usize>(acc: &mut [u64; W], a: [u64; W], b: [u64; W]) {
    for ((acc, a), b) in acc.iter_mut().zip(a).zip(b) {
        *acc += a.saturating_sub(b);
    }
}

#[inline(always)]
fn side(kind: AccessKind) -> usize {
    usize::from(kind.is_data())
}

/// When each side of a cache becomes free, per lane. Split caches have
/// independent instruction/data sides (the base machine's L1 services an
/// instruction fetch and a data access in the same cycle); unified caches
/// keep both entries equal.
#[derive(Debug, Clone, Copy)]
struct Ports<const W: usize> {
    split: bool,
    busy: [[u64; W]; 2],
}

impl<const W: usize> Ports<W> {
    fn new(split: bool) -> Self {
        Ports {
            split,
            busy: [splat(0); 2],
        }
    }

    #[inline(always)]
    fn busy_for(&self, kind: AccessKind) -> [u64; W] {
        if self.split {
            self.busy[side(kind)]
        } else {
            self.busy[0]
        }
    }

    /// Marks the side serving `kind` busy until `t` (both sides for a
    /// unified cache). Busy times only move forward.
    #[inline(always)]
    fn set_busy(&mut self, kind: AccessKind, t: [u64; W]) {
        if self.split {
            let s = side(kind);
            self.busy[s] = vmax(self.busy[s], t);
        } else {
            self.busy[0] = vmax(self.busy[0], t);
            self.busy[1] = self.busy[0];
        }
    }

    /// [`Self::set_busy`] for callers that already know `t` dominates the
    /// side's current busy time — every hit fast path computes
    /// `t = max(busy, ..) + latency` — so the max can be a plain store.
    #[inline(always)]
    fn store_busy(&mut self, kind: AccessKind, t: [u64; W]) {
        debug_assert!(
            self.busy_for(kind).iter().zip(&t).all(|(b, t)| t >= b),
            "store_busy requires t >= current busy"
        );
        if self.split {
            self.busy[side(kind)] = t;
        } else {
            self.busy[0] = t;
            self.busy[1] = t;
        }
    }

    #[inline(always)]
    fn busy_any(&self) -> [u64; W] {
        vmax(self.busy[0], self.busy[1])
    }
}

/// One hierarchy level: shared cache and buffer contents, per-lane timing.
#[derive(Debug, Clone)]
pub(crate) struct SweepLevel<const W: usize> {
    pub(crate) name: String,
    pub(crate) cache: CacheUnit,
    read_cycles: [u64; W],
    write_cycles: [u64; W],
    /// The bus over which this level refills from (and writes back to)
    /// the next level down.
    refill_bus: SweepBus<W>,
    /// Writes from this level awaiting drain downstream.
    pub(crate) out_buffer: WriteBuffer,
    /// Per-entry per-lane ready times, parallel to `out_buffer`.
    ready: VecDeque<[u64; W]>,
    /// Busy times; level 0's live in [`CpuState::l1`] instead.
    ports: Ports<W>,
    /// Bytes fetched into this level from downstream (demand, group,
    /// prefetch and sub-block fills alike).
    fetched_bytes: u64,
    /// Bytes this level pushed downstream through its write buffer.
    writeback_bytes: u64,
}

impl<const W: usize> SweepLevel<W> {
    /// The block size of the side that holds dirty data (the data side
    /// of a split level).
    fn dirty_block_bytes(&self) -> u64 {
        match &self.cache {
            CacheUnit::Unified(c) => c.geometry().block_bytes(),
            CacheUnit::Split(s) => s.dcache().geometry().block_bytes(),
        }
    }
}

/// The CPU-side per-record state: clocks, issue tracking and stall
/// accumulators. Kept in a separate `Copy` struct so the bulk-run loop
/// can hold a local copy — the per-record vector arithmetic then chains
/// through registers instead of bouncing every intermediate off the
/// simulator struct in memory.
#[derive(Debug, Clone, Copy)]
struct CpuState<const W: usize> {
    now: [u64; W],
    cycle_issue: [u64; W],
    cycle_has_data: bool,
    instructions: u64,
    loads: u64,
    stores: u64,
    read_stall: [u64; W],
    write_stall: [u64; W],
    /// Level 0's busy times. Only `cpu_access` reads or writes them
    /// during a record, so they live here with the clocks instead of in
    /// `SweepLevel` — touched every record, they must stay in registers
    /// with the rest of the chain.
    l1: Ports<W>,
}

/// Lane 0's account of one finished record, handed to
/// [`Observer::end`]: the cycle `rec` issued in, its base execute cycle
/// (1 when it opened a cycle, 0 when it shared one), the `stall` making
/// up the rest of the clock's advance, the clock after it, and (for the
/// conservation check) the cycles since the measurement window opened.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecordEnd {
    pub(crate) rec: TraceRecord,
    pub(crate) issue: u64,
    pub(crate) exec: u64,
    pub(crate) stall: u64,
    pub(crate) now: u64,
    #[cfg(feature = "check-invariants")]
    pub(crate) elapsed: u64,
}

/// Per-record hooks into the timing walk, seeing lane 0's times. Every
/// method defaults to doing nothing, so [`NoObserver`] compiles to the
/// bare walk.
pub(crate) trait Observer {
    /// A record is about to be walked.
    fn begin(&mut self) {}

    /// The critical path reached hierarchy element `element`: a level
    /// index, or the level count for main memory.
    fn touch(&mut self, _element: usize) {}

    /// `ticks` of the critical path were spent on `cause`.
    fn record(&mut self, _cause: Cause, _ticks: u64) {}

    /// Enters work that is off the requester's critical path.
    fn push_suppress(&mut self) {}

    /// Leaves the matching [`Self::push_suppress`] region.
    fn pop_suppress(&mut self) {}

    /// Level 0 missed (or victim-hit) on a read or instruction fetch.
    fn l0_read_miss(&mut self) {}

    /// A fetch issued by level `level` returned after `ticks`.
    fn fetch_latency(&mut self, _level: usize, _kind: AccessKind, _ticks: u64) {}

    /// A write buffer accepted an entry and now holds `len`.
    fn buffered(&mut self, _len: usize) {}

    /// Cache level 1 is about to be accessed: a fetch on behalf of level
    /// 0 (`rec.kind` is the requester's) or a level-0 write-back
    /// (`Write`), in engine order.
    fn level1_access(&mut self, _rec: TraceRecord) {}

    /// The record is done; `levels` is the hierarchy after it.
    fn end<const W: usize>(&mut self, _end: RecordEnd, _levels: &[SweepLevel<W>]) {}

    /// The measurement window restarted.
    fn reset(&mut self) {}
}

/// The observer of the sweeps and the plain drivers: it takes no space
/// and every hook is empty.
#[derive(Debug, Clone)]
pub(crate) struct NoObserver;

impl Observer for NoObserver {}

/// The timing engine at width `W` with observer `O`: the hierarchy
/// evaluated under up to `W` timing variants in a single trace pass.
#[derive(Debug, Clone)]
pub(crate) struct SweepSimW<const W: usize, O> {
    lanes: usize,
    pub(crate) clocks: Vec<Clock>,
    pub(crate) levels: Vec<SweepLevel<W>>,
    /// One main memory per lane (index < `lanes`): busy state and
    /// refresh-gap waits are timing-dependent.
    memories: Vec<MainMemory>,
    cpu: CpuState<W>,
    measure_start: [u64; W],
    pub(crate) obs: O,
    /// Whether lane 0's configuration guarantees that every queued
    /// level-0 write drains before the next level-1 fetch
    /// ([`HierarchyConfig::level1_stream_fixed`]); the drain path
    /// asserts it.
    #[cfg(feature = "check-invariants")]
    level1_stream_fixed: bool,
}

impl<const W: usize, O: Observer> SweepSimW<W, O> {
    /// Builds a width-`W` engine from one configuration per lane, with
    /// `obs` watching lane 0. `configs.len()` must already be known to
    /// lie in `1..=W`.
    pub(crate) fn new(configs: &[HierarchyConfig], obs: O) -> Result<Self, SimConfigError> {
        debug_assert!(
            !configs.is_empty() && configs.len() <= W,
            "dispatch guarantees 1..={W} configs"
        );
        for config in configs {
            config.validate()?;
        }
        let first = &configs[0];
        for (l, config) in configs.iter().enumerate().skip(1) {
            if config.levels.len() != first.levels.len() {
                return Err(SimConfigError::new(format!(
                    "lane {l} has {} levels, lane 0 has {}",
                    config.levels.len(),
                    first.levels.len()
                )));
            }
            for (i, (a, b)) in config.levels.iter().zip(first.levels.iter()).enumerate() {
                let differs = [
                    ("cache organisation", a.cache != b.cache),
                    (
                        "write_buffer_entries",
                        a.write_buffer_entries != b.write_buffer_entries,
                    ),
                    ("refill_bus_bytes", a.refill_bus_bytes != b.refill_bus_bytes),
                ];
                if let Some((what, _)) = differs.iter().find(|(_, d)| *d) {
                    return Err(SimConfigError::new(format!(
                        "lane {l} level {i}: {what} differs from lane 0 \
                         (a timing sweep varies only timing)"
                    )));
                }
            }
        }

        let lanes = configs.len();
        let clocks: Vec<Clock> = configs.iter().map(|c| Clock::new(c.cpu.cycle_ns)).collect();
        // A per-lane timing parameter, padded with lane 0's value.
        let per_lane = |f: &dyn Fn(usize) -> u64| -> [u64; W] {
            let mut out = splat(f(0));
            for (l, o) in out.iter_mut().enumerate().take(lanes) {
                *o = f(l);
            }
            out
        };

        let mut levels = Vec::with_capacity(first.levels.len());
        for (i, lc) in first.levels.iter().enumerate() {
            let cache = match lc.cache {
                LevelCacheConfig::Unified(c) => CacheUnit::unified(c),
                LevelCacheConfig::Split { icache, dcache } => CacheUnit::split(icache, dcache),
            };
            let ports = Ports::new(matches!(cache, CacheUnit::Split(_)));
            levels.push(SweepLevel {
                name: lc.name.clone(),
                cache,
                read_cycles: per_lane(&|l| configs[l].levels[i].read_cycles),
                write_cycles: per_lane(&|l| configs[l].levels[i].write_cycles),
                refill_bus: SweepBus::new(
                    lc.refill_bus_bytes,
                    per_lane(&|l| configs[l].refill_bus_cycles(i)),
                ),
                out_buffer: WriteBuffer::new(lc.write_buffer_entries),
                ready: VecDeque::new(),
                ports,
                fetched_bytes: 0,
                writeback_bytes: 0,
            });
        }
        let memories: Vec<MainMemory> = configs
            .iter()
            .zip(&clocks)
            .map(|(c, clock)| {
                MainMemory::new(MemoryTiming::new(
                    clock.ns_to_cycles(c.memory.read_ns).max(1),
                    clock.ns_to_cycles(c.memory.write_ns).max(1),
                    clock.ns_to_cycles(c.memory.gap_ns),
                ))
            })
            .collect();
        Ok(SweepSimW {
            lanes,
            clocks,
            obs,
            #[cfg(feature = "check-invariants")]
            level1_stream_fixed: first.level1_stream_fixed(),
            cpu: CpuState {
                now: splat(0),
                cycle_issue: splat(0),
                cycle_has_data: true, // force a new cycle for a leading data ref
                instructions: 0,
                loads: 0,
                stores: 0,
                read_stall: splat(0),
                write_stall: splat(0),
                l1: levels[0].ports,
            },
            levels,
            memories,
            measure_start: splat(0),
        })
    }

    /// Lane 0's simulated time in CPU cycles.
    pub(crate) fn now(&self) -> u64 {
        self.cpu.now[0]
    }

    /// Processes a single trace record against an explicit CPU state.
    /// `st` is `self.cpu`, passed as a separate local by the bulk loop so
    /// it stays register-resident across records.
    #[inline(always)]
    fn step_on(&mut self, st: &mut CpuState<W>, rec: TraceRecord) {
        self.obs.begin();
        let old_now = st.now[0];
        let (issue, exec) = match rec.kind {
            AccessKind::InstructionFetch => {
                let t = st.now;
                let done = self.cpu_access(rec, t, st);
                st.instructions += 1;
                let end = vmax(done, vadd1(t, 1));
                vstall(&mut st.read_stall, end, vadd1(t, 1));
                st.now = end;
                st.cycle_issue = t;
                st.cycle_has_data = false;
                (t[0], 1)
            }
            AccessKind::Read | AccessKind::Write => {
                // A data reference executes in the cycle opened by the
                // preceding instruction fetch; a second data record (or a
                // data-only trace) opens a fresh cycle.
                let (t, exec) = if st.cycle_has_data {
                    st.cycle_issue = st.now;
                    st.now = vadd1(st.now, 1);
                    (st.cycle_issue, 1)
                } else {
                    (st.cycle_issue, 0)
                };
                st.cycle_has_data = true;
                let done = self.cpu_access(rec, t, st);
                if rec.kind == AccessKind::Write {
                    st.stores += 1;
                    vstall(&mut st.write_stall, done, vadd1(t, 1));
                } else {
                    st.loads += 1;
                    // The issue bound `max(now, t + 1)` is always `now`
                    // here: on the new-cycle path `now` was just set to
                    // `t + 1`, and on the shared-cycle path (entered only
                    // after an instruction fetch) `now = max(done, t' + 1)
                    // >= cycle_issue + 1 = t + 1`.
                    debug_assert_eq!(vmax(st.now, vadd1(t, 1)), st.now);
                    vstall(&mut st.read_stall, done, st.now);
                }
                st.now = vmax(st.now, done);
                (t[0], exec)
            }
        };
        let now = st.now[0];
        self.obs.end(
            RecordEnd {
                rec,
                issue,
                exec,
                stall: (now - old_now) - exec,
                now,
                #[cfg(feature = "check-invariants")]
                elapsed: now - self.measure_start[0],
            },
            &self.levels,
        );
    }

    /// Runs a batch of records with the CPU state held in a local.
    pub(crate) fn run_batch(&mut self, records: &[TraceRecord]) {
        let mut st = self.cpu;
        for rec in records {
            self.step_on(&mut st, *rec);
        }
        self.cpu = st;
    }

    /// Resets all statistics and starts a fresh measurement window at the
    /// current simulated time in every lane. Cache contents, buffer
    /// contents and all timing state are preserved.
    pub(crate) fn reset_measurement(&mut self) {
        self.measure_start = self.cpu.now;
        self.cpu.instructions = 0;
        self.cpu.loads = 0;
        self.cpu.stores = 0;
        self.cpu.read_stall = splat(0);
        self.cpu.write_stall = splat(0);
        for level in &mut self.levels {
            level.cache.reset_stats();
            level.out_buffer.reset_stats();
            level.fetched_bytes = 0;
            level.writeback_bytes = 0;
        }
        for memory in &mut self.memories {
            memory.reset_stats();
        }
        self.obs.reset();
    }

    /// One [`SimResult`] per lane in construction order.
    pub(crate) fn results(&self) -> Vec<SimResult> {
        (0..self.lanes)
            .map(|l| SimResult {
                total_cycles: self.cpu.now[l] - self.measure_start[l],
                instructions: self.cpu.instructions,
                cpu_reads: self.cpu.instructions + self.cpu.loads,
                loads: self.cpu.loads,
                stores: self.cpu.stores,
                read_stall_cycles: self.cpu.read_stall[l],
                write_stall_cycles: self.cpu.write_stall[l],
                cpu_cycle_ns: self.clocks[l].cycle_ns(),
                levels: self
                    .levels
                    .iter()
                    .map(|lvl| LevelMetrics {
                        name: lvl.name.clone(),
                        cache: lvl.cache.stats(),
                        write_buffer: lvl.out_buffer.stats(),
                        fetched_bytes: lvl.fetched_bytes,
                        writeback_bytes: lvl.writeback_bytes,
                    })
                    .collect(),
                memory: self.memories[l].stats(),
            })
            .collect()
    }

    /// When level `j` is next free on both sides (level 0's busy times
    /// live in the CPU state).
    fn level_busy_any(&self, j: usize) -> [u64; W] {
        if j == 0 {
            self.cpu.l1.busy_any()
        } else {
            self.levels[j].ports.busy_any()
        }
    }

    /// Drains every write buffer to completion (in upstream-to-downstream
    /// order), without advancing the execution clock.
    pub(crate) fn drain_all_buffers(&mut self) {
        for j in 0..self.levels.len() {
            while !self.levels[j].out_buffer.is_empty() {
                let t = self.level_busy_any(j);
                self.drain_one(j, t);
            }
        }
    }

    /// Flushes all dirty cache blocks downstream (upstream levels first)
    /// and drains every buffer.
    pub(crate) fn flush_all(&mut self) {
        for j in 0..self.levels.len() {
            let dirty = self.levels[j].cache.flush_dirty();
            let bytes = self.levels[j].dirty_block_bytes();
            for addr in dirty {
                let t = self.level_busy_any(j);
                self.push_writeback(j, addr, bytes, t);
            }
            // Cascade before flushing the next level so its buffer sees
            // everything from upstream.
            self.drain_all_buffers();
        }
    }

    // ------------------------------------------------------------------
    // CPU-side access (level 0)
    // ------------------------------------------------------------------

    fn cpu_access(&mut self, rec: TraceRecord, t: [u64; W], st: &mut CpuState<W>) -> [u64; W] {
        let kind = rec.kind;
        // Hit fast path: identical outcome to the full access below, but
        // skips building an `AccessResult` for the common case.
        if let Some(write_through) = self.levels[0].cache.access_hit(rec.addr, kind) {
            let start = vmax(t, st.l1.busy_for(kind));
            let dur = if kind.is_write() {
                self.levels[0].write_cycles
            } else {
                self.levels[0].read_cycles
            };
            let mut done = vadd(start, dur);
            self.obs.record(Cause::Level(0), done[0] - t[0]);
            st.l1.store_busy(kind, done);
            if write_through {
                let accepted = self.push_writeback(0, rec.addr, 4, done);
                done = vmax(done, accepted);
            }
            return done;
        }

        let result = self.levels[0].cache.access(rec.addr, kind);
        let start = vmax(t, st.l1.busy_for(kind));
        debug_assert!(!result.hit, "access_hit covers every plain hit");
        if !kind.is_write() {
            self.obs.l0_read_miss();
        }

        // The miss is detected after the level's own access time — the
        // n_L1 term of the paper's Equation 1 is paid on hits and misses
        // alike.
        let detected = vadd(start, self.levels[0].read_cycles);

        // Victim-buffer hit: a swap costing one extra access time, with
        // no downstream fetch.
        if result.victim_hit {
            let mut done = vadd(detected, self.levels[0].read_cycles);
            if kind.is_write() && !result.write_through {
                done = vadd(done, self.levels[0].write_cycles);
            }
            self.obs.record(Cause::Level(0), done[0] - t[0]);
            st.l1.set_busy(kind, done);
            done = vmax(done, self.push_extra_writebacks(0, &result, done));
            if result.write_through {
                let accepted = self.push_writeback(0, rec.addr, 4, done);
                done = vmax(done, accepted);
            }
            return done;
        }

        // Miss with no allocation: forward the store downstream.
        if result.fills.is_empty() {
            // Invariant: a miss with no fills can only be a no-allocate
            // write-through; reads always allocate and therefore fill.
            debug_assert!(result.write_through, "read misses always fill");
            self.obs.record(Cause::Level(0), detected[0] - t[0]);
            st.l1.set_busy(kind, detected);
            let accepted = self.push_writeback(0, rec.addr, 4, detected);
            return vmax(detected, accepted);
        }

        self.obs.record(Cause::Level(0), detected[0] - t[0]);
        let need = self.levels[0].cache.block_bytes_for(kind);
        let (mut completion, chain) = self.service_fills(0, &result.fills, kind, need, detected);
        completion = vmax(
            completion,
            self.push_extra_writebacks(0, &result, completion),
        );
        st.l1.set_busy(kind, chain);

        if kind.is_write() {
            if result.write_through {
                let accepted = self.push_writeback(0, rec.addr, 4, completion);
                completion = vmax(completion, accepted);
            } else {
                // Complete the allocating store into the freshly filled
                // block (the paper's 2-cycle write).
                let write = self.levels[0].write_cycles;
                completion = vadd(completion, write);
                self.obs.record(Cause::Level(0), write[0]);
                st.l1.set_busy(kind, completion);
            }
        }
        completion
    }

    /// Fetches every fill of a miss at level `idx` from downstream,
    /// demand block first. Returns `(demand completion, chain end)`:
    /// the requester resumes at the former; the level stays busy with
    /// non-critical fills until the latter.
    fn service_fills(
        &mut self,
        idx: usize,
        fills: &[Fill],
        kind: AccessKind,
        block_bytes: u64,
        start: [u64; W],
    ) -> ([u64; W], [u64; W]) {
        let mut completion = start;
        let mut chain = start;
        let ordered = fills
            .iter()
            .filter(|f| f.reason == FillReason::Demand)
            .chain(fills.iter().filter(|f| f.reason != FillReason::Demand));
        for fill in ordered {
            let demand = fill.reason == FillReason::Demand;
            // Non-demand fills (prefetched sectors, swap traffic) are off
            // the requester's critical path.
            if !demand {
                self.obs.push_suppress();
            }
            self.levels[idx].fetched_bytes += fill.bytes;
            let done = self.fetch_block(idx + 1, fill.block, kind, fill.bytes, chain);
            chain = done;
            let mut fin = done;
            if let Some(wb) = fill.writeback {
                let accepted = self.push_writeback(idx, wb, block_bytes, done);
                fin = vmax(fin, accepted);
                chain = vmax(chain, accepted);
            }
            if demand {
                completion = fin;
            } else {
                self.obs.pop_suppress();
            }
        }
        (completion, chain)
    }

    // ------------------------------------------------------------------
    // Downstream read path
    // ------------------------------------------------------------------

    /// Reads the block of `need_bytes` containing `addr` from level `idx`
    /// (or main memory when `idx` equals the depth), on behalf of level
    /// `idx - 1`. Returns when the block is available to the requester.
    fn fetch_block(
        &mut self,
        idx: usize,
        addr: Address,
        kind: AccessKind,
        need_bytes: u64,
        issued: [u64; W],
    ) -> [u64; W] {
        // Give queued writes from upstream their idle window first, and
        // resolve any read-after-write hazard: if the requested block is
        // still sitting in the upstream write buffer, it must be written
        // down before the read may observe the level below.
        self.drain_ready_before(idx - 1, issued);
        let t = self.resolve_raw_hazard(idx - 1, addr, need_bytes, issued);
        self.obs.touch(idx);
        let done = if idx == self.levels.len() {
            self.memory_read(need_bytes, t)
        } else {
            self.read_level(idx, addr, kind, need_bytes, t)
        };
        self.obs.fetch_latency(idx - 1, kind, done[0] - issued[0]);
        done
    }

    /// [`Self::fetch_block`] from cache level `idx`, hazards resolved.
    fn read_level(
        &mut self,
        idx: usize,
        addr: Address,
        kind: AccessKind,
        need_bytes: u64,
        t: [u64; W],
    ) -> [u64; W] {
        if idx == 1 {
            self.obs.level1_access(TraceRecord::new(kind, addr));
        }
        let extra = self.levels[idx - 1].refill_bus.extra_beat_ticks(need_bytes);
        // Hit fast path; a downstream read hit never forwards store data,
        // so the write-through flag is irrelevant here (as in the full
        // path, which ignores it on hits).
        if self.levels[idx].cache.access_hit(addr, kind).is_some() {
            let start = vmax(t, self.levels[idx].ports.busy_for(kind));
            let done = vadd(start, self.levels[idx].read_cycles);
            self.levels[idx].ports.store_busy(kind, done);
            let ret = vadd(done, extra);
            self.obs.record(Cause::Level(idx), ret[0] - t[0]);
            return ret;
        }

        let result = self.levels[idx].cache.access(addr, kind);
        let start = vmax(t, self.levels[idx].ports.busy_for(kind));
        debug_assert!(!result.hit, "access_hit covers every plain hit");

        // Tag check at this level (n_L2 in Equation 1) precedes the
        // downstream fetch.
        let detected = vadd(start, self.levels[idx].read_cycles);

        if result.victim_hit {
            // Swap from the victim buffer: one extra access time, no
            // downstream fetch.
            let mut done = vadd(detected, self.levels[idx].read_cycles);
            self.obs
                .record(Cause::Level(idx), done[0] + extra[0] - t[0]);
            self.levels[idx].ports.set_busy(kind, done);
            done = vmax(done, self.push_extra_writebacks(idx, &result, done));
            return vadd(done, extra);
        }

        self.obs.record(Cause::Level(idx), detected[0] - t[0]);
        let my_block = self.levels[idx].cache.block_bytes_for(kind);
        let (completion, chain) = self.service_fills(idx, &result.fills, kind, my_block, detected);
        let completion = vmax(
            completion,
            self.push_extra_writebacks(idx, &result, completion),
        );
        self.levels[idx].ports.set_busy(kind, chain);
        self.obs.record(Cause::Level(idx), extra[0]);
        vadd(completion, extra)
    }

    /// A main-memory block read at `t`, hazards resolved, over the
    /// deepest level's refill bus (the backplane): one address cycle, the
    /// memory operation (including any refresh-gap wait), then the data
    /// beats.
    fn memory_read(&mut self, need_bytes: u64, t: [u64; W]) -> [u64; W] {
        let bus = self.levels[self.levels.len() - 1].refill_bus;
        let arrival = vadd(t, bus.address_ticks());
        let data = bus.data_ticks(need_bytes);
        let mut out = splat(0);
        let mut op_start = 0;
        for l in 0..self.lanes {
            let op = self.memories[l].schedule(arrival[l], MemOpKind::Read);
            out[l] = op.end + data[l];
            if l == 0 {
                op_start = op.start;
            }
        }
        // Address cycles, then the wait for the memory to free up (busy
        // serialisation + refresh gap), then the operation and data beats
        // — in temporal order for the ledger's front-drop reconciliation.
        self.obs.record(Cause::Memory, arrival[0] - t[0]);
        self.obs.record(Cause::Refresh, op_start - arrival[0]);
        self.obs.record(Cause::Memory, out[0] - op_start);
        out
    }

    /// Drains level `j`'s buffer until no queued entry overlaps the block
    /// about to be read from downstream (a read-after-write hazard: the
    /// freshest copy of the data is in the buffer, so it must reach the
    /// downstream level first). Returns when the hazard has cleared.
    fn resolve_raw_hazard(&mut self, j: usize, addr: Address, bytes: u64, t: [u64; W]) -> [u64; W] {
        let mut cleared = t;
        // The whole hazard drain is one writeback lump on the requester's
        // critical path; the drains' internals must not record on top.
        self.obs.push_suppress();
        while self.levels[j].out_buffer.overlaps(addr, bytes) {
            let earliest = self.levels[j].ready.front().copied().unwrap_or(cleared);
            cleared = vmax(cleared, self.drain_one(j, vmax(cleared, earliest)));
        }
        self.obs.pop_suppress();
        self.obs.record(Cause::Writeback, cleared[0] - t[0]);
        cleared
    }

    // ------------------------------------------------------------------
    // Write path (buffers and drains)
    // ------------------------------------------------------------------

    /// Enqueues a write from level `j` toward level `j + 1`. If the buffer
    /// is full, the oldest entry is drained synchronously first (the
    /// paper's buffer-full stall). Returns when the entry was accepted —
    /// the producer cannot proceed earlier.
    fn push_writeback(&mut self, j: usize, addr: Address, bytes: u64, t: [u64; W]) -> [u64; W] {
        let entry = BufferedWrite { addr, bytes };
        self.levels[j].writeback_bytes += bytes;
        if self.levels[j].out_buffer.try_push(entry) {
            self.levels[j].ready.push_back(t);
            self.obs.buffered(self.levels[j].out_buffer.len());
            return t;
        }
        // Full: the producer waits for the oldest entry to retire. The
        // wait is one buffer-full lump; the drain's internals are not
        // separately on the producer's critical path.
        self.obs.push_suppress();
        let accepted = vmax(t, self.drain_one(j, t));
        self.obs.pop_suppress();
        self.obs.record(Cause::BufferFull, accepted[0] - t[0]);
        let pushed = self.levels[j].out_buffer.try_push(entry);
        // Invariant: drain_one just popped an entry, so the bounded
        // buffer has at least one free slot for this push.
        debug_assert!(pushed, "buffer must have space after forced drain");
        self.levels[j].ready.push_back(accepted);
        self.obs.buffered(self.levels[j].out_buffer.len());
        accepted
    }

    /// Retires queued writes that could have started strictly before `t`
    /// in the downstream's idle window. Demand traffic arriving at `t`
    /// has priority over writes that have not yet started. The
    /// *decision* — which entries count as "could have started" — is
    /// lane 0's; see the module docs.
    fn drain_ready_before(&mut self, j: usize, t: [u64; W]) {
        // Lazy drains run in the downstream's idle window, entirely off
        // the demand critical path.
        self.obs.push_suppress();
        while let Some(ready) = self.levels[j].ready.front().copied() {
            let downstream_free = if j + 1 == self.levels.len() {
                self.memory_busy_until()
            } else {
                self.levels[j + 1].ports.busy_any()
            };
            let would_start = vmax(ready, downstream_free);
            if would_start[0] >= t[0] {
                break;
            }
            self.drain_one(j, would_start);
        }
        self.obs.pop_suppress();
        // Level 0 drains ahead of every level-1 fetch, so the level-1
        // reference stream is the trace's alone (DESIGN.md §10).
        #[cfg(feature = "check-invariants")]
        assert!(
            j > 0 || !self.level1_stream_fixed || self.levels[0].out_buffer.is_empty(),
            "a queued level-0 write outlived the level-1 fetch at tick {}: \
             the level-1 stream would depend on timing",
            t[0]
        );
    }

    /// Pops and retires the oldest entry of level `j`'s buffer, returning
    /// its completion time (or `earliest` if the buffer was empty).
    fn drain_one(&mut self, j: usize, earliest: [u64; W]) -> [u64; W] {
        let Some(entry) = self.levels[j].out_buffer.pop() else {
            return earliest;
        };
        let ready = self.levels[j]
            .ready
            // Invariant: every out_buffer push is paired with a ready
            // push, so a successful pop guarantees a ready entry.
            .pop_front()
            .expect("ready times parallel the buffer");
        let start = vmax(earliest, ready);
        self.write_downstream(j, entry.addr, entry.bytes, start)
    }

    /// Performs the downstream write of one buffered entry from level `j`
    /// into level `j + 1` (or main memory), returning its completion.
    fn write_downstream(
        &mut self,
        j: usize,
        addr: Address,
        bytes: u64,
        start: [u64; W],
    ) -> [u64; W] {
        let bus = self.levels[j].refill_bus;
        let target = j + 1;
        if target == self.levels.len() {
            let arrival = vadd(start, bus.transfer_ticks(bytes));
            let mut out = splat(0);
            for (l, o) in out.iter_mut().enumerate().take(self.lanes) {
                *o = self.memories[l].schedule(arrival[l], MemOpKind::Write).end;
            }
            return out;
        }

        if target == 1 {
            self.obs
                .level1_access(TraceRecord::new(AccessKind::Write, addr));
        }
        // The first data beat overlaps the write's first cycle; extra
        // beats serialise before it, mirroring the read path.
        let arrival = vadd(start, bus.extra_beat_ticks(bytes));
        // Hit fast path: a write hit has no fills and no victim-buffer
        // ejections, so only the write-through forwarding remains.
        if let Some(write_through) = self.levels[target]
            .cache
            .access_hit(addr, AccessKind::Write)
        {
            let wstart = vmax(
                arrival,
                self.levels[target].ports.busy_for(AccessKind::Write),
            );
            let mut done = vadd(wstart, self.levels[target].write_cycles);
            if write_through {
                let accepted = self.push_writeback(target, addr, bytes, done);
                done = vmax(done, accepted);
            }
            self.levels[target]
                .ports
                .store_busy(AccessKind::Write, done);
            return done;
        }

        let result = self.levels[target].cache.access(addr, AccessKind::Write);
        let wstart = vmax(
            arrival,
            self.levels[target].ports.busy_for(AccessKind::Write),
        );
        debug_assert!(!result.hit, "access_hit covers every plain hit");

        let mut done = if result.victim_hit {
            vadd(
                vadd(wstart, self.levels[target].read_cycles),
                self.levels[target].write_cycles,
            )
        } else if result.fills.is_empty() {
            // No-write-allocate target: tag check, then forward further
            // down through the target's own buffer.
            let checked = vadd(wstart, self.levels[target].read_cycles);
            let accepted = self.push_writeback(target, addr, bytes, checked);
            vmax(checked, accepted)
        } else {
            let my_block = self.levels[target].cache.block_bytes_for(AccessKind::Write);
            let detected = vadd(wstart, self.levels[target].read_cycles);
            let (_, chain) =
                self.service_fills(target, &result.fills, AccessKind::Write, my_block, detected);
            vadd(chain, self.levels[target].write_cycles)
        };

        if result.write_through {
            let accepted = self.push_writeback(target, addr, bytes, done);
            done = vmax(done, accepted);
        }
        done = vmax(done, self.push_extra_writebacks(target, &result, done));
        self.levels[target].ports.set_busy(AccessKind::Write, done);
        done
    }

    /// Enqueues any victim-buffer ejections an access produced, returning
    /// when the last one was accepted.
    fn push_extra_writebacks(&mut self, j: usize, result: &AccessResult, t: [u64; W]) -> [u64; W] {
        let mut accepted = t;
        if result.extra_writebacks.is_empty() {
            return accepted;
        }
        let bytes = self.levels[j].dirty_block_bytes();
        // Several ejections push at the same tick; any stall the batch
        // causes is one buffer-full lump on the critical path.
        self.obs.push_suppress();
        for &addr in &result.extra_writebacks {
            accepted = vmax(accepted, self.push_writeback(j, addr, bytes, t));
        }
        self.obs.pop_suppress();
        self.obs.record(Cause::BufferFull, accepted[0] - t[0]);
        accepted
    }

    fn memory_busy_until(&self) -> [u64; W] {
        let mut out = splat(0);
        for (l, o) in out.iter_mut().enumerate().take(self.lanes) {
            *o = self.memories[l].busy_until();
        }
        out
    }
}

/// Records the streaming drivers hand an engine at a time: enough to
/// amortise the per-batch state copy, little enough to live on the stack.
const FEED_BATCH: usize = 1024;

/// Runs `records` through `engine` in fixed-size batches, never holding
/// more than one batch.
pub(crate) fn feed<const W: usize, O: Observer>(
    engine: &mut SweepSimW<W, O>,
    records: impl Iterator<Item = TraceRecord>,
) {
    let mut batch = [TraceRecord::ifetch(0); FEED_BATCH];
    let mut len = 0;
    for rec in records {
        batch[len] = rec;
        len += 1;
        if len == FEED_BATCH {
            engine.run_batch(&batch);
            len = 0;
        }
    }
    engine.run_batch(&batch[..len]);
}

/// The warm-up/measure loop behind every driver: runs the first `warmup`
/// records, restarts the measurement window, then runs the rest, timing
/// the two halves as phases `{scope}.warmup` and `{scope}.measure`.
pub(crate) fn warm_then_measure<const W: usize, O: Observer>(
    engine: &mut SweepSimW<W, O>,
    records: impl IntoIterator<Item = TraceRecord>,
    warmup: usize,
    metrics: &Metrics,
    scope: &str,
) {
    let mut records = records.into_iter();
    let timer = metrics.time_phase(&format!("{scope}.warmup"));
    feed(engine, records.by_ref().take(warmup));
    timer.stop();
    engine.reset_measurement();
    let timer = metrics.time_phase(&format!("{scope}.measure"));
    feed(engine, records);
    timer.stop();
}

/// A multi-lane hierarchy simulator: the timing model evaluated under up
/// to [`MAX_LANES`] timing variants in a single trace pass.
///
/// All variants must be *functionally identical* — same cache
/// organisations, policies and buffer capacities — and may differ in any
/// timing parameter: level cycle times, bus cycle times, CPU cycle time,
/// memory speeds.
///
/// One or two lanes run at vector width 2, and three or more at width
/// [`MAX_LANES`]; unused tail lanes are computed alongside and dropped
/// from the results.
///
/// # Examples
///
/// Price the base machine at three L2 cycle times in one pass:
///
/// ```
/// use mlc_obs::Metrics;
/// use mlc_sim::machine::BaseMachine;
/// use mlc_sim::sweep::simulate_timing_sweep;
/// use mlc_trace::synth::{workload::Preset, MultiProgramGenerator};
///
/// let configs: Vec<_> = [1u64, 3, 5]
///     .iter()
///     .map(|&c| BaseMachine::new().l2_cycles(c).build().unwrap())
///     .collect();
/// let mut gen = MultiProgramGenerator::new(Preset::Mips1.config(7))
///     .expect("preset is valid");
/// let trace = gen.generate_records(20_000);
/// let results = simulate_timing_sweep(&configs, &trace, 5_000, &Metrics::disabled())?;
/// assert_eq!(results.len(), 3);
/// assert!(results[0].total_cycles <= results[2].total_cycles);
/// # Ok::<(), mlc_sim::SimConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TimingSweepSim {
    inner: SweepDispatch,
}

/// The two widths behind [`TimingSweepSim`]. The wide variant makes the
/// enum big, but exactly one lives per sweep pass and it is never moved
/// mid-run, so the by-value layout costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum SweepDispatch {
    W2(SweepSimW<2, NoObserver>),
    W12(SweepSimW<MAX_LANES, NoObserver>),
}

impl TimingSweepSim {
    /// Builds a sweep simulator from one configuration per lane.
    ///
    /// # Errors
    ///
    /// Returns a [`SimConfigError`] if the list is empty or longer than
    /// [`MAX_LANES`], any configuration is invalid, or the configurations
    /// are not functionally identical (cache organisations, buffer
    /// capacities and bus widths must match; only timing may differ).
    pub fn new(configs: &[HierarchyConfig]) -> Result<Self, SimConfigError> {
        if configs.is_empty() {
            return Err(SimConfigError::new("timing sweep needs at least one lane"));
        }
        if configs.len() > MAX_LANES {
            return Err(SimConfigError::new(format!(
                "timing sweep supports at most {MAX_LANES} lanes, got {}",
                configs.len()
            )));
        }
        let inner = if configs.len() <= 2 {
            SweepDispatch::W2(SweepSimW::new(configs, NoObserver)?)
        } else {
            SweepDispatch::W12(SweepSimW::new(configs, NoObserver)?)
        };
        Ok(TimingSweepSim { inner })
    }

    /// The vector width carrying those lanes: 2 for one or two lanes,
    /// else [`MAX_LANES`].
    pub fn width(&self) -> usize {
        match &self.inner {
            SweepDispatch::W2(_) => 2,
            SweepDispatch::W12(_) => MAX_LANES,
        }
    }

    /// Snapshot of the current measurement window, one [`SimResult`] per
    /// lane in construction order. Functional counters (hits, misses,
    /// traffic, buffer flow) are identical across lanes by construction;
    /// cycle totals, stall counters and memory waits are per-lane.
    fn results(&self) -> Vec<SimResult> {
        match &self.inner {
            SweepDispatch::W2(sim) => sim.results(),
            SweepDispatch::W12(sim) => sim.results(),
        }
    }
}

/// Runs `records` through a timing sweep over `configs`, discarding the
/// first `warmup` records from the statistics, and returns one
/// [`SimResult`] per configuration (in order). Lists longer than
/// [`MAX_LANES`] are transparently split into several passes.
///
/// Phase timing goes to `metrics`: phases `sweep.warmup` and
/// `sweep.measure` accumulate across passes, and the counter
/// `sweep.lane_passes` counts the passes. Pass
/// [`Metrics::disabled`] to record nothing.
///
/// # Errors
///
/// Returns a [`SimConfigError`] under the same conditions as
/// [`TimingSweepSim::new`].
pub fn simulate_timing_sweep(
    configs: &[HierarchyConfig],
    records: &[TraceRecord],
    warmup: usize,
    metrics: &Metrics,
) -> Result<Vec<SimResult>, SimConfigError> {
    let mut out = Vec::with_capacity(configs.len());
    for chunk in configs.chunks(MAX_LANES) {
        let mut sim = TimingSweepSim::new(chunk)?;
        metrics.add("sweep.lane_passes", 1);
        let records = records.iter().copied();
        match &mut sim.inner {
            SweepDispatch::W2(e) => warm_then_measure(e, records, warmup, metrics, "sweep"),
            SweepDispatch::W12(e) => warm_then_measure(e, records, warmup, metrics, "sweep"),
        }
        out.extend(sim.results());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::{simulate_with_warmup, HierarchySim};
    use crate::machine::{base_machine, BaseMachine};
    use mlc_trace::synth::{workload::Preset, MultiProgramGenerator};

    fn preset_trace(n: usize, seed: u64) -> Vec<TraceRecord> {
        MultiProgramGenerator::new(Preset::Mips1.config(seed))
            .expect("valid preset")
            .generate_records(n)
    }

    fn base_at(cycles: u64) -> HierarchyConfig {
        BaseMachine::new().l2_cycles(cycles).build().unwrap()
    }

    fn sweep(configs: &[HierarchyConfig], trace: &[TraceRecord], warmup: usize) -> Vec<SimResult> {
        simulate_timing_sweep(configs, trace, warmup, &Metrics::disabled()).unwrap()
    }

    /// Lane 0 of a sweep reproduces the attributing simulator
    /// cycle-exactly: the attribution hooks never change timing.
    #[test]
    fn lane0_matches_hierarchy_sim_exactly() {
        let trace = preset_trace(40_000, 3);
        for cycles in [1u64, 3, 7] {
            let mut sim = HierarchySim::new(base_at(cycles)).unwrap();
            sim.run(trace[..10_000].iter().copied());
            sim.reset_measurement();
            sim.run(trace[10_000..].iter().copied());
            let solo = sim.result();
            let swept = sweep(&[base_at(cycles), base_at(1)], &trace, 10_000);
            assert_eq!(swept[0], solo, "decision lane at l2_cycles={cycles}");
        }
    }

    /// All lanes of a sweep agree with per-lane scalar runs on the base
    /// machine's L2 cycle ladder.
    #[test]
    fn lanes_match_scalar_runs() {
        let trace = preset_trace(40_000, 5);
        let ladder = [1u64, 2, 3, 5, 8];
        let configs: Vec<_> = ladder.iter().map(|&c| base_at(c)).collect();
        let swept = sweep(&configs, &trace, 10_000);
        for (&cycles, result) in ladder.iter().zip(&swept) {
            let solo =
                simulate_with_warmup(base_at(cycles), trace.iter().copied(), 10_000).unwrap();
            assert_eq!(result, &solo, "lane at l2_cycles={cycles}");
        }
    }

    /// Every lane count at both widths matches scalar runs lane for lane
    /// (the unused tail lanes never leak into real ones), and a ladder
    /// longer than [`MAX_LANES`] chunks into full passes plus a tail,
    /// each chunk's first lane being its own decision lane.
    #[test]
    fn every_lane_count_matches_scalar_runs() {
        let trace = preset_trace(20_000, 7);
        let solo: Vec<SimResult> = (1..=25)
            .map(|c| simulate_with_warmup(base_at(c), trace.iter().copied(), 5_000).unwrap())
            .collect();
        for lanes in 1..=MAX_LANES {
            let configs: Vec<_> = (1..=lanes as u64).map(base_at).collect();
            let sim = TimingSweepSim::new(&configs).unwrap();
            assert_eq!(sim.width(), if lanes <= 2 { 2 } else { 12 });
            let live = match &sim.inner {
                SweepDispatch::W2(e) => e.lanes,
                SweepDispatch::W12(e) => e.lanes,
            };
            assert_eq!(live, lanes);
            assert_eq!(
                sweep(&configs, &trace, 5_000),
                solo[..lanes],
                "{lanes} lanes"
            );
        }

        let configs: Vec<_> = (1..=25).map(base_at).collect();
        let swept = sweep(&configs, &trace, 5_000);
        assert_eq!(swept.len(), 25);
        for lane in [0, 12, 24] {
            assert_eq!(swept[lane], solo[lane], "decision lane {lane}");
        }
    }

    #[test]
    fn totals_monotone_in_cycle_time() {
        let trace = preset_trace(30_000, 9);
        let configs: Vec<_> = (1..=6).map(base_at).collect();
        let swept = sweep(&configs, &trace, 5_000);
        for pair in swept.windows(2) {
            assert!(pair[1].total_cycles >= pair[0].total_cycles);
        }
    }

    #[test]
    fn functional_counters_shared_across_lanes() {
        let trace = preset_trace(30_000, 11);
        let swept = sweep(&[base_at(1), base_at(9)], &trace, 5_000);
        let (a, b) = (&swept[0], &swept[1]);
        assert_eq!(a.instructions, b.instructions);
        for (la, lb) in a.levels.iter().zip(b.levels.iter()) {
            assert_eq!(la.cache, lb.cache);
            assert_eq!(la.write_buffer, lb.write_buffer);
            assert_eq!(la.fetched_bytes, lb.fetched_bytes);
            assert_eq!(la.writeback_bytes, lb.writeback_bytes);
        }
        assert_eq!(a.memory.reads, b.memory.reads);
        assert_eq!(a.memory.writes, b.memory.writes);
    }

    #[test]
    fn chunking_handles_more_than_max_lanes() {
        let trace = preset_trace(5_000, 13);
        let configs: Vec<_> = (1..=(MAX_LANES as u64 + 3)).map(base_at).collect();
        let swept = sweep(&configs, &trace, 1_000);
        assert_eq!(swept.len(), MAX_LANES + 3);
        for pair in swept.windows(2) {
            assert!(pair[1].total_cycles >= pair[0].total_cycles);
        }
    }

    #[test]
    fn rejects_functionally_different_lanes() {
        let a = base_at(3);
        let b = BaseMachine::new()
            .l2_total(mlc_cache::ByteSize::kib(256))
            .build()
            .unwrap();
        let err = TimingSweepSim::new(&[a, b]).unwrap_err();
        assert!(err.to_string().contains("cache organisation"));
    }

    #[test]
    fn rejects_empty_and_oversized() {
        assert!(TimingSweepSim::new(&[]).is_err());
        let configs: Vec<_> = (0..MAX_LANES as u64 + 1).map(|_| base_at(3)).collect();
        assert!(TimingSweepSim::new(&configs).is_err());
    }

    /// The base machine: level 0 is split (its busy times live in the
    /// CPU state), level 1 unified.
    fn base_engine() -> SweepSimW<2, NoObserver> {
        SweepSimW::new(&[base_machine()], NoObserver).unwrap()
    }

    #[test]
    fn unified_busy_is_shared() {
        let mut sim = base_engine();
        let l2 = &mut sim.levels[1].ports;
        l2.set_busy(AccessKind::Read, [10, 12]);
        assert_eq!(l2.busy_for(AccessKind::InstructionFetch), [10, 12]);
        assert_eq!(l2.busy_for(AccessKind::Write), [10, 12]);
        assert_eq!(l2.busy_any(), [10, 12]);
        assert_eq!(sim.level_busy_any(1), [10, 12]);
    }

    #[test]
    fn split_busy_is_per_side() {
        let mut sim = base_engine();
        let l1 = &mut sim.cpu.l1;
        l1.set_busy(AccessKind::InstructionFetch, [10, 10]);
        l1.set_busy(AccessKind::Write, [4, 4]);
        assert_eq!(l1.busy_for(AccessKind::InstructionFetch), [10, 10]);
        assert_eq!(l1.busy_for(AccessKind::Read), [4, 4]);
        assert_eq!(sim.level_busy_any(0), [10, 10]);
    }

    #[test]
    fn busy_never_moves_backwards() {
        let mut ports = Ports::<2>::new(false);
        ports.set_busy(AccessKind::Read, [10, 10]);
        ports.set_busy(AccessKind::Read, [5, 12]);
        assert_eq!(ports.busy_for(AccessKind::Write), [10, 12]);
    }
}
