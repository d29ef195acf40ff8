//! Timing-decoupled sweep simulation: one functional trace pass priced
//! under many cycle-time variants simultaneously.
//!
//! # Why this is possible
//!
//! The hierarchy's *functional* behaviour — which references hit, which
//! blocks are fetched, evicted or written back — does not depend on the
//! levels' cycle times (see the `functional_behaviour_is_independent_of_
//! cycle_times` test in `hierarchy.rs`): cache contents are determined by
//! the reference order, which the in-order CPU model fixes. Only the
//! *prices* change. So a grid sweep over L2 cycle times can run the cache
//! model once and carry a vector of clocks — one **lane** per cycle-time
//! variant — through the exact timing arithmetic of
//! [`HierarchySim`](crate::HierarchySim).
//!
//! # What each lane carries
//!
//! Per lane: the simulated clock, per-level busy times, per-level
//! read/write/bus cycle counts, write-buffer entry ready-times, a main
//! memory (its busy state and refresh-gap waits are timing-dependent),
//! and the stall counters. Shared across lanes: the caches themselves,
//! the write-buffer *contents* (addresses and occupancy), and every
//! hit/miss/traffic counter.
//!
//! # Lane widths
//!
//! The per-lane arithmetic runs over fixed-width `[u64; W]` vectors, so
//! the compiler unrolls (and auto-vectorizes) every loop with no runtime
//! lane bound. The simulator is compiled at two widths:
//! [`TimingSweepSim::new`] runs one or two lanes at width 2 and up to
//! [`MAX_LANES`] (12) at width 12. The paper's 10-point L2 cycle ladder
//! fits one 12-lane pass; a one-point job, such as a daemon request for a
//! single cycle time, pays for 2 lanes rather than 12.
//! [`simulate_timing_sweep`] chunks longer ladders into 12-lane passes.
//! Unused tail lanes are computed on lane 0's timing and dropped.
//!
//! # The one approximation
//!
//! Lazy write-buffer drains ("retire queued writes that could have
//! started in the level's idle window") are a *timing-dependent decision*
//! that feeds back into cache state: draining performs a downstream
//! write access. To keep one shared functional state, lane 0 — the
//! **decision lane** — makes all drain decisions; other lanes retire the
//! same entries at their own times. Lane 0 therefore reproduces
//! [`HierarchySim`](crate::HierarchySim) cycle-exactly *by construction*;
//! other lanes agree except where their native drain window would have
//! differed from lane 0's, which the cross-check machinery in `mlc-core`
//! (and the `--engine exhaustive` escape hatch in `mlc-sweep`) exists to
//! bound.

use std::collections::VecDeque;

use mlc_cache::{CacheUnit, Fill, FillReason};
use mlc_mem::{BufferedWrite, MainMemory, MemOpKind, MemoryTiming, WriteBuffer};
use mlc_obs::Metrics;
use mlc_trace::{AccessKind, Address, TraceRecord};

use crate::clock::Clock;
use crate::config::{HierarchyConfig, LevelCacheConfig, SimConfigError};
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

/// Per-lane bus timing: fixed width, per-lane cycle time.
#[derive(Debug, Clone, Copy)]
struct SweepBus<const W: usize> {
    width_bytes: u64,
    cycle: [u64; W],
}

impl<const W: usize> SweepBus<W> {
    #[inline(always)]
    fn address_ticks(&self) -> [u64; W] {
        self.cycle
    }

    #[inline(always)]
    fn data_ticks(&self, bytes: u64) -> [u64; W] {
        let beats = bytes.div_ceil(self.width_bytes);
        let mut out = self.cycle;
        for o in out.iter_mut() {
            *o *= beats;
        }
        out
    }

    #[inline(always)]
    fn extra_beat_ticks(&self, bytes: u64) -> [u64; W] {
        let beats = bytes.div_ceil(self.width_bytes).saturating_sub(1);
        let mut out = self.cycle;
        for o in out.iter_mut() {
            *o *= beats;
        }
        out
    }

    #[inline(always)]
    fn transfer_ticks(&self, bytes: u64) -> [u64; W] {
        vadd(self.address_ticks(), self.data_ticks(bytes))
    }
}

/// One hierarchy level: shared cache and buffer contents, per-lane timing.
#[derive(Debug, Clone)]
struct SweepLevel<const W: usize> {
    name: String,
    cache: CacheUnit,
    read_cycles: [u64; W],
    write_cycles: [u64; W],
    refill_bus: SweepBus<W>,
    /// Shared buffer contents; each entry's `ready_at` is lane 0's.
    out_buffer: WriteBuffer,
    /// Per-entry per-lane ready times, parallel to `out_buffer`.
    ready: VecDeque<[u64; W]>,
    split: bool,
    busy: [[u64; W]; 2],
    fetched_bytes: u64,
    writeback_bytes: u64,
}

impl<const W: usize> SweepLevel<W> {
    #[inline(always)]
    fn busy_for(&self, kind: AccessKind) -> [u64; W] {
        if self.split {
            self.busy[side(kind)]
        } else {
            self.busy[0]
        }
    }

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
    /// port's current busy time — every hit fast path computes
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
    /// Level-0 port busy times ([instruction, data] when split). Only
    /// `cpu_access` reads or writes level-0 busy state, so it lives here
    /// with the clocks instead of in `SweepLevel` — touched every record,
    /// it must stay in registers with the rest of the chain.
    l1_busy: [[u64; W]; 2],
}

impl<const W: usize> CpuState<W> {
    #[inline(always)]
    fn l1_busy_for(&self, split: bool, kind: AccessKind) -> [u64; W] {
        if split {
            self.l1_busy[side(kind)]
        } else {
            self.l1_busy[0]
        }
    }

    #[inline(always)]
    fn l1_set_busy(&mut self, split: bool, kind: AccessKind, t: [u64; W]) {
        if split {
            let s = side(kind);
            self.l1_busy[s] = vmax(self.l1_busy[s], t);
        } else {
            self.l1_busy[0] = vmax(self.l1_busy[0], t);
            self.l1_busy[1] = self.l1_busy[0];
        }
    }

    /// [`Self::l1_set_busy`] when `t` already dominates the port's busy
    /// time (the hit fast path computes `t = max(busy, ..) + latency`).
    #[inline(always)]
    fn l1_store_busy(&mut self, split: bool, kind: AccessKind, t: [u64; W]) {
        debug_assert!(
            self.l1_busy_for(split, kind)
                .iter()
                .zip(&t)
                .all(|(b, t)| t >= b),
            "l1_store_busy requires t >= current busy"
        );
        if split {
            self.l1_busy[side(kind)] = t;
        } else {
            self.l1_busy[0] = t;
            self.l1_busy[1] = t;
        }
    }
}

/// The width-`W` monomorphization behind [`TimingSweepSim`]: the timing
/// model of [`HierarchySim`](crate::HierarchySim) evaluated under up to
/// `W` timing variants in a single trace pass.
#[derive(Debug, Clone)]
struct SweepSimW<const W: usize> {
    lanes: usize,
    clocks: Vec<Clock>,
    levels: Vec<SweepLevel<W>>,
    /// One main memory per lane (index < `lanes`): busy state and
    /// refresh-gap waits are timing-dependent.
    memories: Vec<MainMemory>,
    /// Whether level 0 has split instruction/data ports (cached off
    /// `levels[0]` for the per-record busy bookkeeping in `CpuState`).
    l1_split: bool,
    cpu: CpuState<W>,
    measure_start: [u64; W],
}

impl<const W: usize> SweepSimW<W> {
    /// Builds a width-`W` sweep from one configuration per lane.
    /// `configs.len()` must already be validated to lie in `1..=W`.
    fn new(configs: &[HierarchyConfig]) -> Result<Self, SimConfigError> {
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
                if a.cache != b.cache {
                    return Err(SimConfigError::new(format!(
                        "lane {l} level {i}: cache organisation differs from lane 0 \
                         (a timing sweep varies only timing)"
                    )));
                }
                if a.write_buffer_entries != b.write_buffer_entries {
                    return Err(SimConfigError::new(format!(
                        "lane {l} level {i}: write_buffer_entries differs from lane 0"
                    )));
                }
                if a.refill_bus_bytes != b.refill_bus_bytes {
                    return Err(SimConfigError::new(format!(
                        "lane {l} level {i}: refill_bus_bytes differs from lane 0"
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
            let split = matches!(cache, CacheUnit::Split(_));
            levels.push(SweepLevel {
                name: lc.name.clone(),
                cache,
                read_cycles: per_lane(&|l| configs[l].levels[i].read_cycles),
                write_cycles: per_lane(&|l| configs[l].levels[i].write_cycles),
                refill_bus: SweepBus {
                    width_bytes: lc.refill_bus_bytes,
                    cycle: per_lane(&|l| configs[l].refill_bus_cycles(i)),
                },
                out_buffer: WriteBuffer::new(lc.write_buffer_entries),
                ready: VecDeque::new(),
                split,
                busy: [splat(0); 2],
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
        let l1_split = levels[0].split;
        Ok(SweepSimW {
            lanes,
            clocks,
            levels,
            memories,
            l1_split,
            cpu: CpuState {
                now: splat(0),
                cycle_issue: splat(0),
                cycle_has_data: true, // force a new cycle for a leading data ref
                instructions: 0,
                loads: 0,
                stores: 0,
                read_stall: splat(0),
                write_stall: splat(0),
                l1_busy: [splat(0); 2],
            },
            measure_start: splat(0),
        })
    }

    /// Processes a single trace record against an explicit CPU state
    /// (mirrors `HierarchySim::step`). `st` is `self.cpu`, passed as a
    /// separate local by the bulk loop so it stays register-resident
    /// across records.
    #[inline(always)]
    fn step_on(&mut self, st: &mut CpuState<W>, rec: TraceRecord) {
        match rec.kind {
            AccessKind::InstructionFetch => {
                let t = st.now;
                let done = self.cpu_access(rec, t, st);
                st.instructions += 1;
                let end = vmax(done, vadd1(t, 1));
                vstall(&mut st.read_stall, end, vadd1(t, 1));
                st.now = end;
                st.cycle_issue = t;
                st.cycle_has_data = false;
            }
            AccessKind::Read | AccessKind::Write => {
                let t = if st.cycle_has_data {
                    st.cycle_issue = st.now;
                    st.now = vadd1(st.now, 1);
                    st.cycle_issue
                } else {
                    st.cycle_issue
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
            }
        }
    }

    /// Runs a batch of records with the CPU state held in a local.
    fn run_batch(&mut self, records: &[TraceRecord]) {
        let mut st = self.cpu;
        for rec in records {
            self.step_on(&mut st, *rec);
        }
        self.cpu = st;
    }

    /// Mirrors `HierarchySim::reset_measurement`.
    fn reset_measurement(&mut self) {
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
    }

    /// One [`SimResult`] per lane in construction order.
    fn results(&self) -> Vec<SimResult> {
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

    // ------------------------------------------------------------------
    // CPU-side access (level 0) — mirrors HierarchySim::cpu_access
    // ------------------------------------------------------------------

    fn cpu_access(&mut self, rec: TraceRecord, t: [u64; W], st: &mut CpuState<W>) -> [u64; W] {
        let kind = rec.kind;
        let split = self.l1_split;
        // Hit fast path: identical outcome to the full access below, but
        // skips building an `AccessResult` for the common case.
        if let Some(write_through) = self.levels[0].cache.access_hit(rec.addr, kind) {
            let start = vmax(t, st.l1_busy_for(split, kind));
            let dur = if kind.is_write() {
                self.levels[0].write_cycles
            } else {
                self.levels[0].read_cycles
            };
            let mut done = vadd(start, dur);
            st.l1_store_busy(split, kind, done);
            if write_through {
                let accepted = self.push_writeback(0, rec.addr, 4, done);
                done = vmax(done, accepted);
            }
            return done;
        }

        let result = self.levels[0].cache.access(rec.addr, kind);
        let start = vmax(t, st.l1_busy_for(split, kind));
        debug_assert!(!result.hit, "access_hit covers every plain hit");

        let detected = vadd(start, self.levels[0].read_cycles);

        if result.victim_hit {
            let mut done = vadd(detected, self.levels[0].read_cycles);
            if kind.is_write() && !result.write_through {
                done = vadd(done, self.levels[0].write_cycles);
            }
            st.l1_set_busy(split, kind, done);
            done = vmax(done, self.push_extra_writebacks(0, &result, done));
            if result.write_through {
                let accepted = self.push_writeback(0, rec.addr, 4, done);
                done = vmax(done, accepted);
            }
            return done;
        }

        if result.fills.is_empty() {
            // Invariant: a miss with no fills can only be a no-allocate
            // write-through; reads always allocate and therefore fill.
            debug_assert!(result.write_through, "read misses always fill");
            st.l1_set_busy(split, kind, detected);
            let accepted = self.push_writeback(0, rec.addr, 4, detected);
            return vmax(detected, accepted);
        }

        let need = self.levels[0].cache.block_bytes_for(kind);
        let (mut completion, chain) = self.service_fills(0, &result.fills, kind, need, detected);
        completion = vmax(
            completion,
            self.push_extra_writebacks(0, &result, completion),
        );
        st.l1_set_busy(split, kind, chain);

        if kind.is_write() {
            if result.write_through {
                let accepted = self.push_writeback(0, rec.addr, 4, completion);
                completion = vmax(completion, accepted);
            } else {
                completion = vadd(completion, self.levels[0].write_cycles);
                st.l1_set_busy(split, kind, completion);
            }
        }
        completion
    }

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
            self.levels[idx].fetched_bytes += fill.bytes;
            let done = self.fetch_block(idx + 1, fill.block, kind, fill.bytes, chain);
            chain = done;
            let mut fin = done;
            if let Some(wb) = fill.writeback {
                let accepted = self.push_writeback(idx, wb, block_bytes, done);
                fin = vmax(fin, accepted);
                chain = vmax(chain, accepted);
            }
            if fill.reason == FillReason::Demand {
                completion = fin;
            }
        }
        (completion, chain)
    }

    // ------------------------------------------------------------------
    // Downstream read path — mirrors HierarchySim
    // ------------------------------------------------------------------

    fn fetch_block(
        &mut self,
        idx: usize,
        addr: Address,
        kind: AccessKind,
        need_bytes: u64,
        t: [u64; W],
    ) -> [u64; W] {
        if idx == self.levels.len() {
            return self.memory_read(addr, need_bytes, t);
        }
        self.drain_ready_before(idx - 1, t);
        let t = self.resolve_raw_hazard(idx - 1, addr, need_bytes, t);

        let upstream_bus = self.levels[idx - 1].refill_bus;
        // Hit fast path; a downstream read hit never forwards store data,
        // so the write-through flag is irrelevant here (as in the full
        // path, which ignores it on hits).
        if self.levels[idx].cache.access_hit(addr, kind).is_some() {
            let start = vmax(t, self.levels[idx].busy_for(kind));
            let done = vadd(start, self.levels[idx].read_cycles);
            self.levels[idx].store_busy(kind, done);
            return vadd(done, upstream_bus.extra_beat_ticks(need_bytes));
        }

        let result = self.levels[idx].cache.access(addr, kind);
        let start = vmax(t, self.levels[idx].busy_for(kind));
        debug_assert!(!result.hit, "access_hit covers every plain hit");

        let detected = vadd(start, self.levels[idx].read_cycles);

        if result.victim_hit {
            let mut done = vadd(detected, self.levels[idx].read_cycles);
            self.levels[idx].set_busy(kind, done);
            done = vmax(done, self.push_extra_writebacks(idx, &result, done));
            return vadd(done, upstream_bus.extra_beat_ticks(need_bytes));
        }

        let my_block = self.levels[idx].cache.block_bytes_for(kind);
        let (completion, chain) = self.service_fills(idx, &result.fills, kind, my_block, detected);
        let completion = vmax(
            completion,
            self.push_extra_writebacks(idx, &result, completion),
        );
        self.levels[idx].set_busy(kind, chain);
        vadd(completion, upstream_bus.extra_beat_ticks(need_bytes))
    }

    fn memory_read(&mut self, addr: Address, need_bytes: u64, t: [u64; W]) -> [u64; W] {
        let lanes = self.lanes;
        let deepest = self.levels.len() - 1;
        self.drain_ready_before(deepest, t);
        let t = self.resolve_raw_hazard(deepest, addr, need_bytes, t);
        let bus = self.levels[deepest].refill_bus;
        let arrival = vadd(t, bus.address_ticks());
        let data = bus.data_ticks(need_bytes);
        let mut out = splat(0);
        for l in 0..lanes {
            let op = self.memories[l].schedule(arrival[l], MemOpKind::Read);
            out[l] = op.end + data[l];
        }
        out
    }

    fn resolve_raw_hazard(&mut self, j: usize, addr: Address, bytes: u64, t: [u64; W]) -> [u64; W] {
        let mut cleared = t;
        while self.levels[j].out_buffer.overlaps(addr, bytes) {
            let earliest = self.levels[j].ready.front().copied().unwrap_or(cleared);
            cleared = vmax(cleared, self.drain_one(j, vmax(cleared, earliest)));
        }
        cleared
    }

    // ------------------------------------------------------------------
    // Write path (buffers and drains) — mirrors HierarchySim
    // ------------------------------------------------------------------

    fn push_writeback(&mut self, j: usize, addr: Address, bytes: u64, t: [u64; W]) -> [u64; W] {
        let entry = BufferedWrite {
            addr,
            bytes,
            ready_at: t[0],
        };
        self.levels[j].writeback_bytes += bytes;
        if self.levels[j].out_buffer.try_push(entry) {
            self.levels[j].ready.push_back(t);
            return t;
        }
        // Full: the producer waits for the oldest entry to retire.
        let accepted = vmax(t, self.drain_one(j, t));
        let pushed = self.levels[j].out_buffer.try_push(BufferedWrite {
            addr,
            bytes,
            ready_at: accepted[0],
        });
        // Invariant: drain_one just popped an entry, so the bounded
        // buffer has at least one free slot for this push.
        debug_assert!(pushed, "buffer must have space after forced drain");
        self.levels[j].ready.push_back(accepted);
        accepted
    }

    /// Retires queued writes that could have started strictly before `t`
    /// in the downstream's idle window. The *decision* — which entries
    /// count as "could have started" — is lane 0's; see the module docs.
    fn drain_ready_before(&mut self, j: usize, t: [u64; W]) {
        loop {
            let Some(ready) = self.levels[j].ready.front().copied() else {
                return;
            };
            let downstream_free = if j + 1 == self.levels.len() {
                self.memory_busy_until()
            } else {
                self.levels[j + 1].busy_any()
            };
            let would_start = vmax(ready, downstream_free);
            if would_start[0] >= t[0] {
                return;
            }
            self.drain_one(j, would_start);
        }
    }

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

    fn write_downstream(
        &mut self,
        j: usize,
        addr: Address,
        bytes: u64,
        start: [u64; W],
    ) -> [u64; W] {
        let l = self.lanes;
        let bus = self.levels[j].refill_bus;
        let target = j + 1;
        if target == self.levels.len() {
            let arrival = vadd(start, bus.transfer_ticks(bytes));
            let mut out = splat(0);
            for lane in 0..l {
                let op = self.memories[lane].schedule(arrival[lane], MemOpKind::Write);
                out[lane] = op.end;
            }
            return out;
        }

        // Hit fast path: a write hit has no fills and no victim-buffer
        // ejections, so only the write-through forwarding remains.
        if let Some(write_through) = self.levels[target]
            .cache
            .access_hit(addr, AccessKind::Write)
        {
            let arrival = vadd(start, bus.extra_beat_ticks(bytes));
            let wstart = vmax(arrival, self.levels[target].busy_for(AccessKind::Write));
            let mut done = vadd(wstart, self.levels[target].write_cycles);
            if write_through {
                let accepted = self.push_writeback(target, addr, bytes, done);
                done = vmax(done, accepted);
            }
            self.levels[target].store_busy(AccessKind::Write, done);
            return done;
        }

        let result = self.levels[target].cache.access(addr, AccessKind::Write);
        let arrival = vadd(start, bus.extra_beat_ticks(bytes));
        let wstart = vmax(arrival, self.levels[target].busy_for(AccessKind::Write));
        debug_assert!(!result.hit, "access_hit covers every plain hit");

        let mut done = if result.victim_hit {
            vadd(
                vadd(wstart, self.levels[target].read_cycles),
                self.levels[target].write_cycles,
            )
        } else if result.fills.is_empty() {
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
        self.levels[target].set_busy(AccessKind::Write, done);
        done
    }

    fn push_extra_writebacks(
        &mut self,
        j: usize,
        result: &mlc_cache::AccessResult,
        t: [u64; W],
    ) -> [u64; W] {
        let mut accepted = t;
        if result.extra_writebacks.is_empty() {
            return accepted;
        }
        let bytes = match &self.levels[j].cache {
            CacheUnit::Unified(c) => c.geometry().block_bytes(),
            CacheUnit::Split(s) => s.dcache().geometry().block_bytes(),
        };
        for &addr in &result.extra_writebacks {
            accepted = vmax(accepted, self.push_writeback(j, addr, bytes, t));
        }
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

/// A multi-lane hierarchy simulator: the timing model of
/// [`HierarchySim`](crate::HierarchySim) evaluated under up to
/// [`MAX_LANES`] timing variants in a single trace pass.
///
/// All variants must be *functionally identical* — same cache
/// organisations, policies and buffer capacities — and may differ in any
/// timing parameter: level cycle times, bus cycle times, CPU cycle time,
/// memory speeds.
///
/// One or two lanes run at vector width 2, and three or more at width
/// [`MAX_LANES`]; unused tail lanes are computed alongside and dropped
/// from [`Self::results`].
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
    W2(SweepSimW<2>),
    W12(SweepSimW<MAX_LANES>),
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
            SweepDispatch::W2(SweepSimW::new(configs)?)
        } else {
            SweepDispatch::W12(SweepSimW::new(configs)?)
        };
        Ok(TimingSweepSim { inner })
    }

    /// Number of timing lanes (the number of configurations supplied).
    pub fn lanes(&self) -> usize {
        match &self.inner {
            SweepDispatch::W2(sim) => sim.lanes,
            SweepDispatch::W12(sim) => sim.lanes,
        }
    }

    /// The vector width carrying those lanes: 2 for one or two lanes,
    /// else [`MAX_LANES`].
    pub fn width(&self) -> usize {
        match &self.inner {
            SweepDispatch::W2(_) => 2,
            SweepDispatch::W12(_) => MAX_LANES,
        }
    }

    /// Runs a slice of records through the hierarchy, dispatching to the
    /// width once for the whole slice rather than once per record.
    pub fn run_slice(&mut self, records: &[TraceRecord]) {
        match &mut self.inner {
            SweepDispatch::W2(sim) => sim.run_batch(records),
            SweepDispatch::W12(sim) => sim.run_batch(records),
        }
    }

    /// Resets all statistics and starts a fresh measurement window at the
    /// current simulated time in every lane (mirrors
    /// `HierarchySim::reset_measurement`).
    pub fn reset_measurement(&mut self) {
        match &mut self.inner {
            SweepDispatch::W2(sim) => sim.reset_measurement(),
            SweepDispatch::W12(sim) => sim.reset_measurement(),
        }
    }

    /// Snapshot of the current measurement window, one [`SimResult`] per
    /// lane in construction order. Functional counters (hits, misses,
    /// traffic, buffer flow) are identical across lanes by construction;
    /// cycle totals, stall counters and memory waits are per-lane.
    pub fn results(&self) -> Vec<SimResult> {
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
        let warm = warmup.min(records.len());
        let timer = metrics.time_phase("sweep.warmup");
        sim.run_slice(&records[..warm]);
        timer.stop();
        sim.reset_measurement();
        let timer = metrics.time_phase("sweep.measure");
        sim.run_slice(&records[warm..]);
        timer.stop();
        out.extend(sim.results());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::simulate_with_warmup;
    use crate::machine::BaseMachine;
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

    /// Lane 0 reproduces the scalar simulator cycle-exactly by
    /// construction: same decisions, same order, same arithmetic.
    #[test]
    fn lane0_matches_hierarchy_sim_exactly() {
        let trace = preset_trace(40_000, 3);
        for cycles in [1u64, 3, 7] {
            let solo =
                simulate_with_warmup(base_at(cycles), trace.iter().copied(), 10_000).unwrap();
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
            assert_eq!(sim.lanes(), lanes);
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
}
