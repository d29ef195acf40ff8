//! The attributing simulator and the plain drivers: both run the timing
//! engine of [`crate::sweep`], which documents the timing model.

use mlc_obs::{EventKind, EventTracer, Metrics, SimEvent};
use mlc_trace::{AccessKind, TraceRecord};

use crate::clock::Clock;
// The unit tests reach it through `use super::*`.
#[cfg(test)]
use crate::config::LevelCacheConfig;
use crate::config::{HierarchyConfig, SimConfigError};
use crate::ledger::{Cause, CycleLedger, LedgerScratch, SimHistograms};
use crate::metrics::SimResult;
use crate::sweep::{feed, warm_then_measure, Observer, RecordEnd, SweepLevel, SweepSimW};

/// The multi-level cache hierarchy simulator with full attribution: a
/// cycle ledger, histograms, an optional sampled event tracer, and (in
/// `check-invariants` builds) per-record invariant checks.
///
/// # Examples
///
/// Simulate a short synthetic workload on the paper's base machine:
///
/// ```
/// use mlc_sim::{machine, HierarchySim};
/// use mlc_trace::synth::{workload::Preset, MultiProgramGenerator};
///
/// let config = machine::base_machine();
/// let mut sim = HierarchySim::new(config)?;
/// let mut gen = MultiProgramGenerator::new(Preset::Mips1.config(1))
///     .expect("preset is valid");
/// sim.run(gen.generate_records(20_000));
/// let result = sim.result();
/// assert!(result.total_cycles >= result.instructions);
/// # Ok::<(), mlc_sim::SimConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct HierarchySim {
    pub(crate) engine: SweepSimW<1, Attribution>,
}

impl HierarchySim {
    /// Builds a simulator from a hierarchy configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`SimConfigError`] if the configuration is invalid.
    pub fn new(config: HierarchyConfig) -> Result<Self, SimConfigError> {
        Ok(HierarchySim {
            engine: SweepSimW::new(std::slice::from_ref(&config))?,
        })
    }

    /// The simulator's CPU clock.
    pub fn clock(&self) -> Clock {
        self.engine.clocks[0]
    }

    /// Current simulated time in CPU cycles.
    pub fn now(&self) -> u64 {
        self.engine.now()
    }

    /// Runs every record of `records` through the hierarchy.
    pub fn run<I>(&mut self, records: I)
    where
        I: IntoIterator<Item = TraceRecord>,
    {
        feed(&mut self.engine, records.into_iter());
    }

    /// Processes a single trace record.
    pub fn step(&mut self, rec: TraceRecord) {
        self.engine.run_batch(std::slice::from_ref(&rec));
    }

    /// Resets all statistics and starts a fresh measurement window at the
    /// current simulated time. Cache contents, buffer contents and all
    /// timing state are preserved — this is how warm-up references are
    /// discarded, mirroring the paper's removal of the cold-start region.
    pub fn reset_measurement(&mut self) {
        self.engine.reset_measurement();
    }

    /// Snapshot of the current measurement window.
    pub fn result(&self) -> SimResult {
        self.engine.results().swap_remove(0)
    }

    /// The cycle-attribution ledger of the current measurement window.
    /// Its buckets sum exactly to [`SimResult::total_cycles`] — the
    /// conservation invariant the `check-invariants` feature re-asserts
    /// after every record.
    pub fn ledger(&self) -> &CycleLedger {
        &self.engine.obs.ledger
    }

    /// Latency and occupancy histograms of the current measurement
    /// window.
    pub fn histograms(&self) -> &SimHistograms {
        &self.engine.obs.hists
    }

    /// The hierarchy level display names, upstream first — the labels
    /// for [`CycleLedger::rows`] and the event exports.
    pub fn level_names(&self) -> Vec<String> {
        self.engine.levels.iter().map(|l| l.name.clone()).collect()
    }

    /// Attaches a sampled event tracer; subsequent records whose global
    /// index (counted from construction, warm-up included) matches the
    /// tracer's sampling period emit one [`SimEvent`] each.
    pub fn attach_tracer(&mut self, tracer: EventTracer) {
        self.engine.obs.tracer = Some(tracer);
    }

    /// Detaches the tracer, returning it with its accumulated events.
    pub fn take_tracer(&mut self) -> Option<EventTracer> {
        self.engine.obs.tracer.take()
    }

    /// Drains every write buffer to completion (in upstream-to-downstream
    /// order). Does not advance the execution clock; used at end of
    /// simulation and by conservation tests.
    pub fn drain_all_buffers(&mut self) {
        self.engine.drain_all_buffers();
    }

    /// Flushes all dirty cache blocks downstream (upstream levels first)
    /// and drains every buffer. After this, no dirty data remains above
    /// main memory.
    pub fn flush_all(&mut self) {
        self.engine.flush_all();
    }
}

/// The observer behind [`HierarchySim`]: it turns lane 0's walk into the
/// ledger, the histograms and the sampled events, and runs the
/// `check-invariants` checker.
#[derive(Debug, Clone)]
pub(crate) struct Attribution {
    /// Index of the record being walked, counted from construction
    /// (warm-up included).
    records: u64,
    ledger: CycleLedger,
    scratch: LedgerScratch,
    hists: SimHistograms,
    last_l0_read_miss: Option<u64>,
    tracer: Option<EventTracer>,
    /// The clock after the previous record.
    #[cfg(feature = "check-invariants")]
    last_now: u64,
}

impl Observer for Attribution {
    fn new(depth: usize) -> Self {
        Attribution {
            records: 0,
            ledger: CycleLedger::new(depth),
            scratch: LedgerScratch::default(),
            hists: SimHistograms::new(depth),
            last_l0_read_miss: None,
            tracer: None,
            #[cfg(feature = "check-invariants")]
            last_now: 0,
        }
    }

    fn begin(&mut self) {
        self.scratch.begin();
    }

    fn touch(&mut self, element: usize) {
        self.scratch.touch(element as u32);
    }

    fn record(&mut self, cause: Cause, ticks: u64) {
        self.scratch.record(cause, ticks);
    }

    fn push_suppress(&mut self) {
        self.scratch.push_suppress();
    }

    fn pop_suppress(&mut self) {
        self.scratch.pop_suppress();
    }

    fn l0_read_miss(&mut self) {
        // The record indices of consecutive level-0 read misses give the
        // inter-miss distance distribution.
        if let Some(last) = self.last_l0_read_miss {
            self.hists.inter_miss_distance.record(self.records - last);
        }
        self.last_l0_read_miss = Some(self.records);
    }

    fn fetch_latency(&mut self, level: usize, kind: AccessKind, ticks: u64) {
        // The full entry-to-return latency of a fetch is the read-miss
        // latency of the requesting level (demand read paths only).
        if !self.scratch.suppressed() && !kind.is_write() {
            self.hists.read_miss_latency[level].record(ticks);
        }
    }

    fn buffered(&mut self, len: usize) {
        self.hists.write_buffer_occupancy.record(len as u64);
    }

    fn end<const W: usize>(&mut self, end: RecordEnd, levels: &[SweepLevel<W>]) {
        self.ledger.settle(
            &mut self.scratch,
            end.exec,
            end.stall,
            end.rec.kind.is_write(),
        );
        let index = self.records;
        self.records += 1;
        if let Some(tracer) = &mut self.tracer {
            if tracer.wants(index) {
                tracer.push(SimEvent {
                    index,
                    kind: match end.rec.kind {
                        AccessKind::InstructionFetch => EventKind::Ifetch,
                        AccessKind::Read => EventKind::Read,
                        AccessKind::Write => EventKind::Write,
                    },
                    addr: end.rec.addr.get(),
                    start_cycle: end.issue,
                    cycles: end.now - end.issue,
                    stall_cycles: end.stall,
                    serviced: self.scratch.deepest(),
                });
            }
        }
        #[cfg(feature = "check-invariants")]
        self.check(index, &end, levels);
        #[cfg(not(feature = "check-invariants"))]
        let _ = levels;
    }

    fn reset(&mut self) {
        self.ledger.reset();
        self.hists.reset();
        self.last_l0_read_miss = None;
    }
}

/// How often (in trace records) the checker walks *every* set of every
/// cache instead of just the sets the current record touched.
#[cfg(feature = "check-invariants")]
const DEEP_CHECK_PERIOD: u64 = 1024;

#[cfg(feature = "check-invariants")]
impl Attribution {
    /// Per-record invariant checks (`check-invariants` feature): simulated
    /// clock monotonicity, demand-fill inclusion at level 0, the
    /// structural invariants of every touched cache set (with a periodic
    /// full-cache sweep), and ledger conservation. Panics with the
    /// violating trace-record index and a hierarchy state summary.
    fn check<const W: usize>(&mut self, index: u64, end: &RecordEnd, levels: &[SweepLevel<W>]) {
        let Err(msg) = self.violation(index, end, levels) else {
            return;
        };
        let mut state = String::new();
        for level in levels {
            state.push_str(&format!(
                "\n  {}: {}, write buffer {} queued",
                level.name,
                level.cache.state_summary(),
                level.out_buffer.len(),
            ));
        }
        panic!(
            "hierarchy invariant violated at trace record {index} \
             ({:?} {:#x}): {msg}\nhierarchy state (now = {}):{state}",
            end.rec.kind,
            end.rec.addr.get(),
            end.now,
        );
    }

    /// The first invariant the record broke, if any.
    fn violation<const W: usize>(
        &mut self,
        index: u64,
        end: &RecordEnd,
        levels: &[SweepLevel<W>],
    ) -> Result<(), String> {
        let rec = end.rec;
        if end.now < self.last_now {
            return Err(format!(
                "simulated clock moved backwards: {} -> {}",
                self.last_now, end.now
            ));
        }
        self.last_now = end.now;

        // Every read or instruction fetch leaves its demand block resident
        // at level 0 (hit, victim swap-in, or demand fill alike). Writes
        // are exempt: a no-write-allocate miss is forwarded downstream
        // without filling.
        if !rec.kind.is_write() && !levels[0].cache.contains_for(rec.addr, rec.kind) {
            return Err("demand block not resident at level 0 after the access".into());
        }

        let deep = index % DEEP_CHECK_PERIOD == DEEP_CHECK_PERIOD - 1;
        for level in levels {
            if deep {
                level.cache.verify_invariants()
            } else {
                level.cache.verify_invariants_at(rec.addr, rec.kind)
            }
            .map_err(|msg| format!("{}: {msg}", level.name))?;
        }

        let attributed = self.ledger.total();
        if attributed != end.elapsed {
            return Err(format!(
                "cycle ledger broke conservation: {attributed} attributed \
                 vs {} elapsed",
                end.elapsed
            ));
        }
        Ok(())
    }
}

/// The engine behind the plain drivers. They return no ledger, so they
/// run the no-op one-config sweep engine; `check-invariants` builds run
/// the attributing engine instead, whose observer carries the checker.
#[cfg(not(feature = "check-invariants"))]
type PlainEngine = SweepSimW<2, crate::sweep::NoObserver>;
#[cfg(feature = "check-invariants")]
type PlainEngine = SweepSimW<1, Attribution>;

/// The plain drivers' body: one warm-up/measure pass of `config` over
/// `records`, phases `sim.warmup` and `sim.measure` timed into `metrics`.
pub(crate) fn simulate_plain<I>(
    config: HierarchyConfig,
    records: I,
    warmup: usize,
    metrics: &Metrics,
) -> Result<SimResult, SimConfigError>
where
    I: IntoIterator<Item = TraceRecord>,
{
    let mut sim = PlainEngine::new(std::slice::from_ref(&config))?;
    warm_then_measure(&mut sim, records, warmup, metrics, "sim");
    Ok(sim.results().swap_remove(0))
}

/// Builds a simulator, runs `records`, and returns the result.
///
/// # Errors
///
/// Returns a [`SimConfigError`] if the configuration is invalid.
pub fn simulate<I>(config: HierarchyConfig, records: I) -> Result<SimResult, SimConfigError>
where
    I: IntoIterator<Item = TraceRecord>,
{
    simulate_with_warmup(config, records, 0)
}

/// Like [`simulate`], but discards the first `warmup` records from the
/// statistics (they still warm the caches), mirroring the paper's
/// cold-start removal.
///
/// # Errors
///
/// Returns a [`SimConfigError`] if the configuration is invalid.
pub fn simulate_with_warmup<I>(
    config: HierarchyConfig,
    records: I,
    warmup: usize,
) -> Result<SimResult, SimConfigError>
where
    I: IntoIterator<Item = TraceRecord>,
{
    simulate_plain(config, records, warmup, &Metrics::disabled())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CpuConfig, LevelConfig, MemoryConfig};
    use crate::machine::{base_machine, single_level, BaseMachine};
    use mlc_cache::{ByteSize, CacheConfig};
    use mlc_obs::EventTracer;
    use mlc_trace::synth::{workload::Preset, MultiProgramGenerator};

    fn small_cache(bytes: u64, block: u64) -> CacheConfig {
        CacheConfig::builder()
            .total(ByteSize::new(bytes))
            .block_bytes(block)
            .build()
            .unwrap()
    }

    fn preset_trace(n: usize, seed: u64) -> Vec<TraceRecord> {
        MultiProgramGenerator::new(Preset::Mips1.config(seed))
            .expect("valid preset")
            .generate_records(n)
    }

    /// Base machine, cold ifetch missing both levels: 1 cycle L1 tag
    /// check, 3 cycles L2 tag check, then (3 addr + 18 read + 6 data)
    /// memory fetch, totalling 31 cycles — the paper's 270 ns memory
    /// component plus the two tag checks.
    #[test]
    fn cold_full_miss_costs_31_cycles() {
        let mut sim = HierarchySim::new(base_machine()).unwrap();
        sim.step(TraceRecord::ifetch(0x0));
        assert_eq!(sim.now(), 31);
        let r = sim.result();
        assert_eq!(r.read_stall_cycles, 30);
        assert_eq!(r.instructions, 1);
        assert_eq!(r.memory.reads, 1);
    }

    /// The paper's nominal L1-miss/L2-hit penalty: one L2 cycle (3 CPU
    /// cycles) on top of the 1-cycle L1 access.
    #[test]
    fn l1_miss_l2_hit_costs_4_cycles() {
        let mut sim = HierarchySim::new(base_machine()).unwrap();
        // A and B alias in the 2 KB I-cache (2048 apart) but land in
        // different sets of the 512 KB L2.
        sim.step(TraceRecord::ifetch(0x0)); // cold, 31
        sim.step(TraceRecord::ifetch(0x800)); // cold, evicts A from L1
        let before = sim.now();
        sim.step(TraceRecord::ifetch(0x0)); // L1 miss, L2 hit
        assert_eq!(sim.now() - before, 4);
    }

    #[test]
    fn warm_hits_cost_one_cycle_each() {
        let mut sim = HierarchySim::new(base_machine()).unwrap();
        sim.step(TraceRecord::ifetch(0x0));
        let before = sim.now();
        for _ in 0..10 {
            sim.step(TraceRecord::ifetch(0x4));
        }
        assert_eq!(sim.now() - before, 10);
    }

    /// Write hits take two cycles (§2), so a hit store's cycle stretches
    /// to 2 cycles and contributes 1 write-stall cycle.
    #[test]
    fn write_hit_takes_two_cycles() {
        let mut sim = HierarchySim::new(base_machine()).unwrap();
        sim.step(TraceRecord::ifetch(0x0)); // warm I
        sim.step(TraceRecord::write(0x5000)); // warm D (cold write miss)
        let before = sim.now();
        let stall_before = sim.result().write_stall_cycles;
        sim.step(TraceRecord::ifetch(0x0)); // hit
        sim.step(TraceRecord::write(0x5000)); // hit, same cycle
        assert_eq!(sim.now() - before, 2);
        assert_eq!(sim.result().write_stall_cycles - stall_before, 1);
        assert_eq!(sim.result().stores, 2);
    }

    /// Ifetch and data access issue in the same cycle on the split L1; a
    /// load hit adds no time to a cycle whose ifetch also hit.
    #[test]
    fn parallel_ifetch_and_load_hit_is_one_cycle() {
        let mut sim = HierarchySim::new(base_machine()).unwrap();
        sim.step(TraceRecord::ifetch(0x0));
        sim.step(TraceRecord::read(0x5000));
        let before = sim.now();
        sim.step(TraceRecord::ifetch(0x0));
        sim.step(TraceRecord::read(0x5000));
        assert_eq!(sim.now() - before, 1);
    }

    #[test]
    fn single_level_machine_cold_miss() {
        // 64 KB unified, 32 B blocks, 2-cycle access; backplane at the
        // level's own rate (2 cycles/beat): 1×tag-check… here read_cycles
        // = 2, so: 2 + (2 addr + 18 read + 2×2 data) = 26.
        let config = single_level(small_cache(64 * 1024, 32), 2, 10.0, 1.0);
        let mut sim = HierarchySim::new(config).unwrap();
        sim.step(TraceRecord::ifetch(0x0));
        assert_eq!(sim.now(), 26);
    }

    #[test]
    fn memory_refresh_gap_penalises_back_to_back_misses() {
        let mut sim = HierarchySim::new(base_machine()).unwrap();
        sim.step(TraceRecord::ifetch(0x0)); // memory read ends at 25
        let before = sim.now();
        // Next miss immediately: its memory op must respect the 12-cycle
        // gap, so it costs more than the nominal 31.
        sim.step(TraceRecord::ifetch(0x10000));
        assert!(sim.now() - before == 31, "gap already elapsed: 31 nominal");
        let before = sim.now();
        sim.step(TraceRecord::ifetch(0x20000));
        let cost = sim.now() - before;
        assert!((31..=43).contains(&cost), "cost {cost}");
    }

    #[test]
    fn victim_buffer_avoids_downstream_fetches() {
        // Single-level DM cache with a victim buffer: a ping-pong pair
        // that would thrash direct-mapped runs mostly out of the buffer.
        let plain = single_level(small_cache(64, 16), 1, 10.0, 1.0);
        let with_victim = single_level(
            CacheConfig::builder()
                .total(ByteSize::new(64))
                .block_bytes(16)
                .victim_entries(2)
                .build()
                .unwrap(),
            1,
            10.0,
            1.0,
        );
        let trace: Vec<TraceRecord> = (0..200)
            .map(|i| TraceRecord::read(if i % 2 == 0 { 0x0 } else { 0x40 }))
            .collect();
        let a = simulate(plain, trace.iter().copied()).unwrap();
        let b = simulate(with_victim, trace.iter().copied()).unwrap();
        assert_eq!(a.memory.reads, 200, "plain DM thrashes to memory");
        assert_eq!(b.memory.reads, 2, "victim buffer absorbs the ping-pong");
        assert!(b.total_cycles < a.total_cycles / 3);
        assert_eq!(b.levels[0].cache.victim_hits, 198);
    }

    #[test]
    fn traffic_accounting_matches_block_sizes() {
        let mut sim = HierarchySim::new(base_machine()).unwrap();
        sim.step(TraceRecord::ifetch(0x0)); // cold: L1 pulls 16B, L2 pulls 32B
        let r = sim.result();
        assert_eq!(r.levels[0].fetched_bytes, 16);
        assert_eq!(r.levels[1].fetched_bytes, 32);
        assert_eq!(r.levels[0].writeback_bytes, 0);
        sim.step(TraceRecord::ifetch(0x4)); // hit: no new traffic
        let r = sim.result();
        assert_eq!(r.levels[0].fetched_bytes, 16);
        // A dirty eviction adds writeback traffic of one L1 block.
        sim.step(TraceRecord::write(0x1_0000));
        sim.step(TraceRecord::write(0x1_0800)); // evicts dirty 0x10000
        let r = sim.result();
        assert_eq!(r.levels[0].writeback_bytes, 16);
        assert!(r.levels[0].traffic_bytes() >= r.levels[0].fetched_bytes);
    }

    #[test]
    fn sub_block_fetch_moves_less_data() {
        // Single-level 4KB cache, 32B blocks. Whole-block fills move 32B
        // (2 beats on a 16B bus); with 2 sub-blocks only 16B (1 beat).
        let whole = single_level(small_cache(4096, 32), 1, 10.0, 1.0);
        let sub_cache = CacheConfig::builder()
            .total(ByteSize::new(4096))
            .block_bytes(32)
            .sub_blocks(2)
            .build()
            .unwrap();
        let sub = single_level(sub_cache, 1, 10.0, 1.0);
        let mut sim_whole = HierarchySim::new(whole).unwrap();
        let mut sim_sub = HierarchySim::new(sub).unwrap();
        sim_whole.step(TraceRecord::ifetch(0x40));
        sim_sub.step(TraceRecord::ifetch(0x40));
        // 1 (tag) + 1 (addr) + 18 (read) + beats: 2 for 32B, 1 for 16B.
        assert_eq!(sim_whole.now(), 22);
        assert_eq!(sim_sub.now(), 21);
        // The second sector is a fresh (sub-block) miss for the sectored
        // cache but a hit for the whole-block cache.
        let t = sim_whole.now();
        sim_whole.step(TraceRecord::ifetch(0x50));
        assert_eq!(sim_whole.now() - t, 1);
        let t = sim_sub.now();
        sim_sub.step(TraceRecord::ifetch(0x50));
        assert!(sim_sub.now() - t > 1, "sector miss must refetch");
    }

    #[test]
    fn read_after_write_hazard_drains_buffer_first() {
        // Single-level 64 B direct-mapped cache: 0x0 and 0x40 conflict.
        let config = single_level(small_cache(64, 16), 1, 10.0, 1.0);
        let mut sim = HierarchySim::new(config).unwrap();
        sim.step(TraceRecord::write(0x0)); // dirty 0x0
        sim.step(TraceRecord::write(0x40)); // evicts dirty 0x0 into buffer
        let before = sim.result();
        assert_eq!(before.memory.writes, 0, "victim still buffered");
        // Reading 0x0 must push the buffered victim to memory before the
        // fetch — otherwise the fetch would observe stale data.
        sim.step(TraceRecord::read(0x0));
        let after = sim.result();
        assert_eq!(after.memory.writes, 1, "hazard forced the drain");
        assert_eq!(after.levels[0].write_buffer.drained, 1);
    }

    #[test]
    fn dirty_eviction_reaches_memory_only_after_flush() {
        // Single-level 64 B cache, 16 B blocks, direct-mapped: 0x0 and
        // 0x40 conflict.
        let config = single_level(small_cache(64, 16), 1, 10.0, 1.0);
        let mut sim = HierarchySim::new(config).unwrap();
        sim.step(TraceRecord::write(0x0)); // miss, fill, dirty
        sim.step(TraceRecord::write(0x40)); // miss, evict dirty 0x0
        let r = sim.result();
        assert_eq!(r.levels[0].cache.writebacks, 1);
        sim.flush_all();
        let r = sim.result();
        // 0x0 (buffered victim) + 0x40 (flushed dirty line).
        assert_eq!(r.memory.writes, 2);
    }

    #[test]
    fn full_write_buffer_forces_stalls() {
        // A write-through cache emits one buffer entry per store hit;
        // with slow memory writes the 2-entry buffer must fill and force
        // synchronous drains.
        let wt = CacheConfig::builder()
            .total(ByteSize::new(4096))
            .block_bytes(16)
            .write_policy(mlc_cache::WritePolicy::WriteThrough)
            .build()
            .unwrap();
        let mut config = single_level(wt, 1, 10.0, 1.0);
        config.levels[0].write_buffer_entries = 2;
        config.memory.write_ns = 10_000.0;
        let mut sim = HierarchySim::new(config).unwrap();
        for _ in 0..40 {
            sim.step(TraceRecord::write(0x0));
        }
        let r = sim.result();
        assert!(
            r.levels[0].write_buffer.full_events > 0,
            "expected forced drains: {:?}",
            r.levels[0].write_buffer
        );
        // Forced drains stall the CPU for the 1000-cycle memory write.
        assert!(r.write_stall_cycles > 1000);
    }

    #[test]
    fn buffered_writes_drain_in_idle_windows() {
        let mut sim = HierarchySim::new(base_machine()).unwrap();
        // Dirty a D-block, evict it, then generate unrelated L1 misses so
        // the L1→L2 buffer gets an idle L2 window to drain into.
        sim.step(TraceRecord::write(0x0));
        sim.step(TraceRecord::write(0x800)); // evicts dirty 0x0 into buffer
        for i in 0..50u64 {
            sim.step(TraceRecord::ifetch(0x10000 + i * 0x800));
        }
        let r = sim.result();
        assert!(
            r.levels[0].write_buffer.drained > 0,
            "lazy drain should have retired the victim: {:?}",
            r.levels[0].write_buffer
        );
    }

    #[test]
    fn functional_behaviour_is_independent_of_cycle_times() {
        let trace = preset_trace(30_000, 11);
        let fast = simulate(
            BaseMachine::new().l2_cycles(1).build().unwrap(),
            trace.iter().copied(),
        )
        .unwrap();
        let slow = simulate(
            BaseMachine::new().l2_cycles(10).build().unwrap(),
            trace.iter().copied(),
        )
        .unwrap();
        for (a, b) in fast.levels.iter().zip(slow.levels.iter()) {
            assert_eq!(a.cache.read_misses(), b.cache.read_misses());
            assert_eq!(a.cache.write_misses(), b.cache.write_misses());
        }
        assert!(slow.total_cycles > fast.total_cycles);
    }

    #[test]
    fn slower_memory_never_speeds_execution() {
        let trace = preset_trace(30_000, 13);
        let normal = simulate(base_machine(), trace.iter().copied()).unwrap();
        let slow = simulate(
            BaseMachine::new().memory_scale(2.0).build().unwrap(),
            trace.iter().copied(),
        )
        .unwrap();
        assert!(slow.total_cycles > normal.total_cycles);
    }

    #[test]
    fn deeper_hierarchy_runs_and_chains_references() {
        let l3 = CacheConfig::builder()
            .total(ByteSize::mib(2))
            .block_bytes(32)
            .build()
            .unwrap();
        let mut config = base_machine();
        config
            .levels
            .push(LevelConfig::new("L3", LevelCacheConfig::Unified(l3), 6));
        let trace = preset_trace(30_000, 17);
        let r = simulate(config, trace).unwrap();
        assert_eq!(r.levels.len(), 3);
        // Demand reads reaching L3 are exactly L2's read misses
        // (no prefetch, fetch size = block size).
        assert_eq!(
            r.levels[2].cache.read_references(),
            r.levels[1].cache.read_misses()
        );
        assert_eq!(
            r.levels[1].cache.read_references(),
            r.levels[0].cache.read_misses()
        );
    }

    #[test]
    fn warmup_discards_cold_start() {
        let trace = preset_trace(40_000, 19);
        let cold = simulate(base_machine(), trace.iter().copied()).unwrap();
        let warm = simulate_with_warmup(base_machine(), trace.iter().copied(), 20_000).unwrap();
        assert!(warm.instructions < cold.instructions);
        let cold_ratio = cold.global_read_miss_ratio(1).unwrap();
        let warm_ratio = warm.global_read_miss_ratio(1).unwrap();
        assert!(
            warm_ratio <= cold_ratio,
            "warm {warm_ratio} vs cold {cold_ratio}"
        );
    }

    #[test]
    fn local_miss_ratio_at_least_global() {
        let trace = preset_trace(50_000, 23);
        let r = simulate(base_machine(), trace).unwrap();
        for idx in 0..r.levels.len() {
            let local = r.local_read_miss_ratio(idx).unwrap();
            let global = r.global_read_miss_ratio(idx).unwrap();
            assert!(
                local >= global - 1e-12,
                "level {idx}: local {local} < global {global}"
            );
        }
        // L1 local == L1 global: every CPU read reaches L1.
        let l1_local = r.local_read_miss_ratio(0).unwrap();
        let l1_global = r.global_read_miss_ratio(0).unwrap();
        assert!((l1_local - l1_global).abs() < 1e-12);
    }

    #[test]
    fn determinism_same_trace_same_cycles() {
        let trace = preset_trace(20_000, 29);
        let a = simulate(base_machine(), trace.iter().copied()).unwrap();
        let b = simulate(base_machine(), trace.iter().copied()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn data_only_trace_opens_cycles() {
        let config = single_level(small_cache(4096, 16), 1, 10.0, 1.0);
        let mut sim = HierarchySim::new(config).unwrap();
        sim.step(TraceRecord::read(0x0));
        sim.step(TraceRecord::read(0x0));
        sim.step(TraceRecord::read(0x0));
        let r = sim.result();
        assert_eq!(r.loads, 3);
        assert_eq!(r.instructions, 0);
        assert!(r.total_cycles >= 3);
    }

    #[test]
    fn cpi_reflects_hierarchy_quality() {
        let trace = preset_trace(60_000, 31);
        let good = simulate(base_machine(), trace.iter().copied()).unwrap();
        let bad = simulate(
            BaseMachine::new()
                .l2_total(ByteSize::kib(8))
                .l2_cycles(10)
                .build()
                .unwrap(),
            trace.iter().copied(),
        )
        .unwrap();
        assert!(bad.cpi().unwrap() > good.cpi().unwrap());
    }

    #[test]
    fn rejects_invalid_config() {
        let mut config = base_machine();
        config.levels[0].read_cycles = 0;
        assert!(HierarchySim::new(config).is_err());
    }

    /// The cold 31-cycle miss decomposes exactly as Equation 1 reads it:
    /// 1 execute cycle (the L1 access), 3 cycles of L2 tag check, 27 of
    /// memory service (3 addr + 18 read + 6 data).
    #[test]
    fn ledger_attributes_cold_miss_terms() {
        let mut sim = HierarchySim::new(base_machine()).unwrap();
        sim.step(TraceRecord::ifetch(0x0));
        let ledger = sim.ledger();
        assert_eq!(ledger.execute, 1);
        assert_eq!(ledger.read_miss, vec![0, 3, 27]);
        assert_eq!(ledger.write_buffer_full, 0);
        assert_eq!(ledger.writeback, 0);
        assert_eq!(ledger.refresh_wait, 0);
        assert_eq!(ledger.total(), sim.result().total_cycles);
    }

    #[test]
    fn ledger_warm_hits_are_pure_execute() {
        let mut sim = HierarchySim::new(base_machine()).unwrap();
        sim.step(TraceRecord::ifetch(0x0));
        sim.reset_measurement();
        for _ in 0..10 {
            sim.step(TraceRecord::ifetch(0x4));
        }
        let ledger = sim.ledger();
        assert_eq!(ledger.execute, 10);
        assert_eq!(ledger.total(), 10);
        assert_eq!(ledger.read_miss_total(), 0);
    }

    #[test]
    fn ledger_sends_store_cost_to_write_buckets() {
        let mut sim = HierarchySim::new(base_machine()).unwrap();
        sim.step(TraceRecord::ifetch(0x0));
        sim.step(TraceRecord::write(0x5000)); // cold write miss
        sim.step(TraceRecord::ifetch(0x0));
        sim.step(TraceRecord::write(0x5000)); // write hit, 2 cycles
        let ledger = sim.ledger();
        let r = sim.result();
        assert_eq!(ledger.total(), r.total_cycles);
        // The only read-side stall is the cold ifetch miss (30 cycles);
        // both stores' service time lands in the write buckets.
        assert_eq!(
            ledger.read_miss_total(),
            30,
            "store-side time must not pollute read-miss buckets: {ledger:?}"
        );
        assert!(ledger.writeback > 30, "write service time: {ledger:?}");
    }

    #[test]
    fn ledger_counts_buffer_full_stalls() {
        let wt = CacheConfig::builder()
            .total(ByteSize::new(4096))
            .block_bytes(16)
            .write_policy(mlc_cache::WritePolicy::WriteThrough)
            .build()
            .unwrap();
        let mut config = single_level(wt, 1, 10.0, 1.0);
        config.levels[0].write_buffer_entries = 2;
        config.memory.write_ns = 10_000.0;
        let mut sim = HierarchySim::new(config).unwrap();
        for _ in 0..40 {
            sim.step(TraceRecord::write(0x0));
        }
        let ledger = sim.ledger();
        assert_eq!(ledger.total(), sim.result().total_cycles);
        assert!(
            ledger.write_buffer_full > 1000,
            "forced drains on 1000-cycle memory writes: {ledger:?}"
        );
    }

    #[test]
    fn ledger_conserves_across_measurement_reset() {
        let trace = preset_trace(30_000, 37);
        let mut sim = HierarchySim::new(base_machine()).unwrap();
        for rec in &trace[..10_000] {
            sim.step(*rec);
        }
        sim.reset_measurement();
        for rec in &trace[10_000..] {
            sim.step(*rec);
        }
        assert_eq!(sim.ledger().total(), sim.result().total_cycles);
        assert!(sim.ledger().execute > 0);
    }

    #[test]
    fn histograms_record_per_level_miss_latency() {
        let mut sim = HierarchySim::new(base_machine()).unwrap();
        sim.step(TraceRecord::ifetch(0x0));
        let hists = sim.histograms();
        // L1 miss latency: detected at cycle 1, block back at 31.
        assert_eq!(hists.read_miss_latency[0].count(), 1);
        assert_eq!(hists.read_miss_latency[0].max(), 30);
        // L2 miss latency: detected at 4, block back at 31.
        assert_eq!(hists.read_miss_latency[1].max(), 27);
        sim.step(TraceRecord::ifetch(0x4)); // hit: no new samples
        assert_eq!(sim.histograms().read_miss_latency[0].count(), 1);
    }

    #[test]
    fn histograms_record_inter_miss_distance() {
        let mut sim = HierarchySim::new(base_machine()).unwrap();
        sim.step(TraceRecord::ifetch(0x0)); // miss at record 0
        sim.step(TraceRecord::ifetch(0x4)); // hit
        sim.step(TraceRecord::ifetch(0x8)); // hit
        sim.step(TraceRecord::ifetch(0x800)); // miss at record 3
        let h = &sim.histograms().inter_miss_distance;
        assert_eq!(h.count(), 1, "first miss has no predecessor");
        assert_eq!(h.max(), 3);
    }

    #[test]
    fn tracer_samples_and_reports_serviced_depth() {
        let mut sim = HierarchySim::new(base_machine()).unwrap();
        sim.attach_tracer(EventTracer::new(2));
        sim.step(TraceRecord::ifetch(0x0)); // sampled: cold, to memory
        sim.step(TraceRecord::ifetch(0x4)); // not sampled
        sim.step(TraceRecord::ifetch(0x8)); // sampled: L1 hit
        let tracer = sim.take_tracer().unwrap();
        let events = tracer.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].index, 0);
        assert_eq!(events[0].serviced, 2, "cold miss reaches main memory");
        assert_eq!(events[0].cycles, 31);
        assert_eq!(events[0].stall_cycles, 30);
        assert_eq!(events[1].index, 2);
        assert_eq!(events[1].serviced, 0, "warm hit serviced by L1");
        assert_eq!(events[1].stall_cycles, 0);
        assert!(sim.take_tracer().is_none(), "tracer was detached");
    }

    #[test]
    fn write_through_l1_pushes_stores_downstream() {
        let wt = CacheConfig::builder()
            .total(ByteSize::kib(4))
            .block_bytes(16)
            .write_policy(mlc_cache::WritePolicy::WriteThrough)
            .build()
            .unwrap();
        let config = HierarchyConfig {
            cpu: CpuConfig::default(),
            levels: vec![
                LevelConfig::new("L1", LevelCacheConfig::Unified(wt), 1),
                LevelConfig::new(
                    "L2",
                    LevelCacheConfig::Unified(small_cache(64 * 1024, 32)),
                    3,
                ),
            ],
            memory: MemoryConfig::default(),
        };
        let mut sim = HierarchySim::new(config).unwrap();
        sim.step(TraceRecord::write(0x0));
        for _ in 0..5 {
            sim.step(TraceRecord::write(0x0)); // hits, each forwarded
        }
        sim.drain_all_buffers();
        let r = sim.result();
        assert_eq!(r.levels[0].write_buffer.enqueued, 6);
        assert_eq!(r.levels[0].write_buffer.drained, 6);
        assert_eq!(r.levels[0].cache.writebacks, 0, "WT lines are never dirty");
    }
}
