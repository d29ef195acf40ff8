//! Design-space exploration: the parameter sweeps behind every figure.
//!
//! An [`Explorer`] owns nothing but a borrowed trace and a warm-up count;
//! each sweep builds machine variants with
//! [`BaseMachine`](mlc_sim::machine::BaseMachine), simulates every grid
//! point in parallel, and returns a queryable grid.

use std::collections::BTreeSet;
use std::io;
use std::sync::{Mutex, PoisonError};

use mlc_cache::{ByteSize, CacheConfig, ConfigError};
use mlc_obs::{JournalHeader, Metrics, Progress};
use mlc_sim::machine::BaseMachine;
use mlc_sim::{
    simulate_timing_sweep, simulate_with_warmup, simulate_with_warmup_observed, solo,
    HierarchyConfig, LevelCacheConfig, SimResult,
};
use mlc_trace::TraceRecord;

use crate::par::{par_map, try_par_map, PointFailure};
use crate::stack::SoloMissSweep;
use crate::timing::SweepEngine;

/// The three miss-ratio families of Figure 3 at one L2 size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissRatioPoint {
    /// L2 total size.
    pub size: ByteSize,
    /// L2 local read miss ratio (misses / references reaching L2).
    pub local: f64,
    /// L2 global read miss ratio (misses / CPU read references).
    pub global: f64,
    /// L2 solo read miss ratio (the L2 alone in the system).
    pub solo: f64,
}

/// Execution times over an (L2 size × L2 cycle time) grid at fixed
/// associativity — the raw material of Figures 4-1 through 5-3.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignGrid {
    /// The swept L2 sizes (ascending).
    pub sizes: Vec<ByteSize>,
    /// The swept L2 cycle times, in CPU cycles (ascending).
    pub cycles: Vec<u64>,
    /// The L2 associativity of every point.
    pub ways: u32,
    /// `total[size_idx][cycle_idx]` = total execution cycles.
    pub total: Vec<Vec<u64>>,
    /// L2 local read miss ratio per size (independent of cycle time).
    pub l2_local: Vec<f64>,
    /// L2 global read miss ratio per size.
    pub l2_global: Vec<f64>,
    /// L1 global read miss ratio (independent of the L2 organisation).
    pub m_l1_global: f64,
    /// CPU cycle time, for ns conversions.
    pub cpu_cycle_ns: f64,
}

/// One completed size-row of a [`DesignGrid`]: every cycle time priced
/// at a single L2 size, `row` indexing the swept size list. The unit of
/// checkpointing — sweeps journal one of these per completed size, and
/// resume replays them — so it is the journal's row type itself.
pub use mlc_obs::JournalRow as GridRow;

/// What [`Explorer::l2_grid_checkpointed`] produced.
#[derive(Debug)]
pub struct GridRun {
    /// The grid; failed rows hold [`DesignGrid::FAILED`] in every
    /// `total` cell and `NaN` miss ratios.
    pub grid: DesignGrid,
    /// One entry per failed size row (`index` = the size index),
    /// ascending by size index.
    pub failures: Vec<PointFailure>,
    /// The first error the `append` hook returned, if any.
    pub append_error: Option<io::Error>,
}

impl DesignGrid {
    /// Sentinel stored in `total` for grid points whose simulation
    /// failed (or was never run). Skipped by [`DesignGrid::min_total`].
    pub const FAILED: u64 = u64::MAX;

    /// Assembles a grid from completed rows; rows absent from `rows`
    /// are filled with [`DesignGrid::FAILED`] / `NaN` sentinels.
    ///
    /// # Panics
    ///
    /// Panics if a row's `row` index or `total` length does not match
    /// the grid definition.
    pub fn from_rows(
        sizes: &[ByteSize],
        cycles: &[u64],
        ways: u32,
        rows: &[GridRow],
    ) -> DesignGrid {
        let mut total = vec![vec![Self::FAILED; cycles.len()]; sizes.len()];
        let mut l2_local = vec![f64::NAN; sizes.len()];
        let mut l2_global = vec![f64::NAN; sizes.len()];
        let mut m_l1 = f64::NAN;
        let mut cpu_cycle_ns = 10.0;
        for row in rows {
            assert!(row.row < sizes.len() as u64, "row index out of grid");
            let i = row.row as usize;
            assert_eq!(row.total.len(), cycles.len(), "row width mismatch");
            total[i] = row.total.clone();
            l2_local[i] = row.l2_local;
            l2_global[i] = row.l2_global;
            m_l1 = row.m_l1_global;
            cpu_cycle_ns = row.cpu_cycle_ns;
        }
        DesignGrid {
            sizes: sizes.to_vec(),
            cycles: cycles.to_vec(),
            ways,
            total,
            l2_local,
            l2_global,
            m_l1_global: m_l1,
            cpu_cycle_ns,
        }
    }

    /// The fastest execution time anywhere on the grid, ignoring failed
    /// points; [`DesignGrid::FAILED`] when every point failed.
    pub fn min_total(&self) -> u64 {
        self.total
            .iter()
            .flat_map(|row| row.iter().copied())
            .filter(|&v| v != Self::FAILED)
            .min()
            .unwrap_or(Self::FAILED)
    }

    /// Execution time relative to the grid's own best point — the
    /// paper's "relative execution time" axis.
    pub fn relative(&self, size_idx: usize, cycle_idx: usize) -> f64 {
        self.total[size_idx][cycle_idx] as f64 / self.min_total() as f64
    }

    /// One size's `(cycle_time, total_cycles)` column, for break-even
    /// interpolation.
    pub fn column(&self, size_idx: usize) -> Vec<(u64, u64)> {
        self.cycles
            .iter()
            .copied()
            .zip(self.total[size_idx].iter().copied())
            .collect()
    }
}

/// A sweep driver over one reference trace.
///
/// # Examples
///
/// ```no_run
/// use mlc_cache::ByteSize;
/// use mlc_core::Explorer;
/// use mlc_sim::machine::BaseMachine;
/// use mlc_trace::synth::{workload::Preset, MultiProgramGenerator};
///
/// let mut gen = MultiProgramGenerator::new(Preset::Vms1.config(1)).expect("valid");
/// let trace = gen.generate_records(1_000_000);
/// let explorer = Explorer::new(&trace, 250_000);
/// let sizes: Vec<ByteSize> = (3..=12).map(|i| ByteSize::kib(1 << i)).collect();
/// let curve = explorer.miss_ratio_curve(&BaseMachine::new(), &sizes);
/// assert_eq!(curve.len(), sizes.len());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Explorer<'t> {
    trace: &'t [TraceRecord],
    warmup: usize,
    metrics: Option<&'t Metrics>,
    progress: Option<&'t Progress>,
}

impl<'t> Explorer<'t> {
    /// Creates an explorer over `trace`, excluding the first `warmup`
    /// records from all statistics.
    pub fn new(trace: &'t [TraceRecord], warmup: usize) -> Self {
        Explorer {
            trace,
            warmup,
            metrics: None,
            progress: None,
        }
    }

    /// Feeds per-phase timings and event counts from every sweep into
    /// `metrics`. Sweeps record one `grid.size.<size>` phase per swept
    /// L2 size plus the per-pass `sweep.*` / `sim.*` / `solo.*` phases
    /// of the underlying drivers.
    pub fn with_metrics(mut self, metrics: &'t Metrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Ticks `progress` once per completed grid point (or per size, for
    /// miss-ratio curves) from inside the parallel sweep loops.
    pub fn with_progress(mut self, progress: &'t Progress) -> Self {
        self.progress = Some(progress);
        self
    }

    fn metrics(&self) -> Metrics {
        self.metrics.cloned().unwrap_or_default()
    }

    fn tick(&self, n: u64) {
        if let Some(progress) = self.progress {
            progress.tick(n);
        }
    }

    /// Runs one machine variant.
    ///
    /// # Panics
    ///
    /// Panics if `base` produces an invalid configuration — sweeps are
    /// driven from validated size lists, so this indicates a caller bug.
    pub fn run(&self, base: &BaseMachine) -> SimResult {
        let config = base.build().expect("sweep configurations are valid");
        simulate_with_warmup_observed(config, self.trace, self.warmup, &self.metrics())
            .expect("validated configuration")
    }

    /// Figure 3's sweep: local/global/solo L2 read miss ratios across
    /// `sizes`, on the hierarchy described by `base`.
    ///
    /// The hierarchy runs (one per size, for the local/global columns)
    /// are unavoidable, but the solo column needs no hierarchy at all:
    /// when the L2 organisation admits it (see
    /// [`SoloMissSweep::supports`]), all sizes' solo miss counts come
    /// from **one** stack-simulation pass over the trace instead of one
    /// functional simulation per size. Exotic organisations fall back to
    /// the per-size solo runs transparently.
    pub fn miss_ratio_curve(&self, base: &BaseMachine, sizes: &[ByteSize]) -> Vec<MissRatioPoint> {
        if sizes.is_empty() {
            return Vec::new();
        }
        let l2_at = |size: ByteSize| -> CacheConfig {
            let mut machine = base.clone();
            machine.l2_total(size);
            let config = machine.build().expect("sweep configurations are valid");
            match config.levels[1].cache {
                LevelCacheConfig::Unified(c) => c,
                LevelCacheConfig::Split { .. } => unreachable!("BaseMachine L2 is unified"),
            }
        };
        let base_l2 = l2_at(sizes[0]);
        let block_bytes = base_l2.geometry().block_bytes();
        let ways = base_l2.geometry().ways();
        let one_pass_solo = SoloMissSweep::supports(&base_l2)
            && sizes
                .iter()
                .all(|&s| SoloMissSweep::admits_size(block_bytes, ways, s));

        let metrics = self.metrics();
        let mut curve = par_map(sizes.to_vec(), |size| {
            let mut machine = base.clone();
            machine.l2_total(size);
            let config = machine.build().expect("sweep configurations are valid");
            let timer = metrics.time_phase(&format!("curve.size.{size}"));
            let result = simulate_with_warmup(config, self.trace.iter().copied(), self.warmup)
                .expect("validated configuration");
            let solo_ratio = if one_pass_solo {
                f64::NAN // filled from the stack sweep below
            } else {
                solo::solo_read_miss_ratio(
                    LevelCacheConfig::Unified(l2_at(size)),
                    self.trace.iter().copied(),
                    self.warmup,
                )
                .unwrap_or(f64::NAN)
            };
            timer.stop();
            self.tick(1);
            MissRatioPoint {
                size,
                local: result.local_read_miss_ratio(1).unwrap_or(f64::NAN),
                global: result.global_read_miss_ratio(1).unwrap_or(f64::NAN),
                solo: solo_ratio,
            }
        });
        if one_pass_solo {
            let sweep = SoloMissSweep::run_sharded_observed(
                block_bytes,
                ways,
                sizes,
                self.trace,
                self.warmup,
                &metrics,
            );
            for (i, point) in curve.iter_mut().enumerate() {
                point.solo = sweep.read_miss_ratio(i).unwrap_or(f64::NAN);
            }
        }
        curve
    }

    /// Figure 4/5's sweep: total execution cycles over an
    /// (L2 size × L2 cycle time) grid at associativity `ways`.
    ///
    /// Uses the default [`SweepEngine::OnePass`]: one functional
    /// simulation per size prices every cycle time in the same pass, so
    /// the grid costs `O(sizes)` trace traversals instead of
    /// `O(sizes × cycles)`. Use [`Explorer::l2_grid_with`] to force the
    /// exhaustive reference engine (or cross-check the two with
    /// [`crate::timing::verify_grids`]).
    pub fn l2_grid(
        &self,
        base: &BaseMachine,
        sizes: &[ByteSize],
        cycles: &[u64],
        ways: u32,
    ) -> DesignGrid {
        self.l2_grid_with(SweepEngine::OnePass, base, sizes, cycles, ways)
    }

    /// [`Explorer::l2_grid`] with an explicit engine choice.
    ///
    /// # Panics
    ///
    /// Panics on the first failed grid row, preserving the historical
    /// all-or-nothing contract. Use [`Explorer::l2_grid_checkpointed`]
    /// for panic-isolated sweeps.
    pub fn l2_grid_with(
        &self,
        engine: SweepEngine,
        base: &BaseMachine,
        sizes: &[ByteSize],
        cycles: &[u64],
        ways: u32,
    ) -> DesignGrid {
        let run =
            self.l2_grid_checkpointed(engine, base, sizes, cycles, ways, Vec::new(), |_| Ok(()));
        if let Some(failure) = run.failures.first() {
            panic!("grid row failed: {failure}");
        }
        run.grid
    }

    /// The checkpointed grid run behind every sweep: computes the rows
    /// `completed` does not already hold, hands each finished row to
    /// `append` (the journal hook), and assembles the grid from
    /// `completed` plus the new rows.
    ///
    /// Rows compute in parallel with per-row panic isolation (see
    /// [`Explorer::try_l2_rows`]); a failed row becomes a
    /// [`PointFailure`] and a sentinel row. `append` runs under a lock,
    /// one row at a time, on the worker that finished the row. An
    /// `append` error does not stop the sweep: every row still
    /// computes, and the first error is returned in
    /// [`GridRun::append_error`].
    ///
    /// # Panics
    ///
    /// Panics if the grid definition is empty, or if a `completed` row
    /// does not fit it.
    #[allow(clippy::too_many_arguments)]
    pub fn l2_grid_checkpointed<A>(
        &self,
        engine: SweepEngine,
        base: &BaseMachine,
        sizes: &[ByteSize],
        cycles: &[u64],
        ways: u32,
        completed: Vec<GridRow>,
        append: A,
    ) -> GridRun
    where
        A: FnMut(&GridRow) -> io::Result<()> + Send,
    {
        let done: BTreeSet<usize> = completed.iter().map(|r| r.row as usize).collect();
        let todo: Vec<usize> = (0..sizes.len()).filter(|i| !done.contains(i)).collect();
        // The hook and the first error it returned, under one lock.
        let journal = Mutex::new((append, None));
        let results = self.try_l2_rows(engine, base, sizes, cycles, ways, &todo, |row| {
            // A poisoned lock only means another row panicked; that
            // panic is already isolated, so keep journalling.
            let mut journal = journal.lock().unwrap_or_else(PoisonError::into_inner);
            let (append, first_error) = &mut *journal;
            if let Err(e) = append(row) {
                first_error.get_or_insert(e);
            }
        });
        let mut rows = completed;
        let mut failures = Vec::new();
        for r in results {
            match r {
                Ok(row) => rows.push(row),
                Err(f) => failures.push(f),
            }
        }
        let (_, append_error) = journal.into_inner().unwrap_or_else(PoisonError::into_inner);
        GridRun {
            grid: DesignGrid::from_rows(sizes, cycles, ways, &rows),
            failures,
            append_error,
        }
    }

    /// Computes the grid rows whose size indices are listed in `todo`,
    /// in parallel, isolating a panic in any row to that row's
    /// `Err(PointFailure)` (`index` = the size index). `sink` is invoked
    /// once per *completed* row, from the worker that finished it; a
    /// panic in `sink` fails that row. Sweeps that journal go through
    /// [`Explorer::l2_grid_checkpointed`], which builds on this.
    ///
    /// Both engines parallelise across rows: a row is the checkpoint
    /// unit, so it must complete or fail as a whole. The exhaustive
    /// engine walks its row's cycle column sequentially (still one
    /// functional pass per point); the one-pass engine prices the whole
    /// row in a single pass exactly as before. Progress ticks remain
    /// per-point for both.
    ///
    /// # Panics
    ///
    /// Panics if the grid definition is empty. A `todo` index outside
    /// `sizes` is reported as that row's failure, not a panic.
    #[allow(clippy::too_many_arguments)]
    pub fn try_l2_rows<S>(
        &self,
        engine: SweepEngine,
        base: &BaseMachine,
        sizes: &[ByteSize],
        cycles: &[u64],
        ways: u32,
        todo: &[usize],
        sink: S,
    ) -> Vec<Result<GridRow, PointFailure>>
    where
        S: Fn(&GridRow) + Sync,
    {
        assert!(!sizes.is_empty() && !cycles.is_empty(), "empty grid");
        let machine_at = |i: usize, j: usize| {
            let mut machine = base.clone();
            machine
                .l2_total(sizes[i])
                .l2_cycles(cycles[j])
                .l2_ways(ways);
            machine
        };
        let metrics = self.metrics();
        let todo_vec = todo.to_vec();
        let results = try_par_map(todo_vec, |i| {
            let results: Vec<SimResult> = match engine {
                SweepEngine::Exhaustive => (0..cycles.len())
                    .map(|j| {
                        let r = self.run(&machine_at(i, j));
                        self.tick(1);
                        r
                    })
                    .collect(),
                SweepEngine::OnePass => {
                    let configs: Vec<_> = (0..cycles.len())
                        .map(|j| {
                            machine_at(i, j)
                                .build()
                                .expect("sweep configurations are valid")
                        })
                        .collect();
                    let timer = metrics.time_phase(&format!("grid.size.{}", sizes[i]));
                    let row = simulate_timing_sweep(&configs, self.trace, self.warmup, &metrics)
                        .expect("lanes differ only in cycle time");
                    timer.stop();
                    self.tick(cycles.len() as u64);
                    row
                }
            };
            let first = &results[0];
            let row = GridRow {
                row: i as u64,
                total: results.iter().map(|r| r.total_cycles).collect(),
                l2_local: first.local_read_miss_ratio(1).unwrap_or(f64::NAN),
                l2_global: first.global_read_miss_ratio(1).unwrap_or(f64::NAN),
                m_l1_global: first.global_read_miss_ratio(0).unwrap_or(f64::NAN),
                cpu_cycle_ns: first.cpu_cycle_ns,
            };
            sink(&row);
            row
        });
        // try_par_map reports positions within `todo`; surface the size
        // index the caller actually asked for.
        results
            .into_iter()
            .enumerate()
            .map(|(k, r)| {
                r.map_err(|mut f| {
                    f.index = todo[k];
                    f
                })
            })
            .collect()
    }
}

/// The standard power-of-two size ladder from `lo` to `hi` inclusive.
///
/// # Examples
///
/// ```
/// use mlc_cache::ByteSize;
/// use mlc_core::size_ladder;
///
/// let sizes = size_ladder(ByteSize::kib(4), ByteSize::mib(4));
/// assert_eq!(sizes.len(), 11);
/// assert_eq!(sizes[0], ByteSize::kib(4));
/// assert_eq!(sizes[10], ByteSize::mib(4));
/// ```
///
/// # Panics
///
/// Panics unless both bounds are powers of two with `lo <= hi`.
pub fn size_ladder(lo: ByteSize, hi: ByteSize) -> Vec<ByteSize> {
    assert!(
        lo.is_power_of_two() && hi.is_power_of_two() && lo <= hi,
        "ladder bounds must be powers of two with lo <= hi"
    );
    let mut out = Vec::new();
    let mut s = lo.get();
    while s <= hi.get() {
        out.push(ByteSize::new(s));
        s <<= 1;
    }
    out
}

/// Builds every point of an L2 (size × cycle time) grid on the base
/// machine with an `l1` split L1, so an invalid combination surfaces as
/// a typed error before a sweep starts instead of a panic inside the
/// parallel sweep. Returns the first point's configuration.
///
/// # Errors
///
/// Names the first invalid point (`invalid grid point [L2 SIZE, C
/// cycles]: …`), or reports an empty grid.
///
/// # Examples
///
/// ```
/// use mlc_cache::ByteSize;
/// use mlc_core::validate_grid;
///
/// let sizes = [ByteSize::kib(64), ByteSize::kib(128)];
/// assert!(validate_grid(ByteSize::kib(4), &sizes, &[1, 2], 1).is_ok());
/// assert!(validate_grid(ByteSize::kib(4), &sizes, &[], 1).is_err());
/// ```
pub fn validate_grid(
    l1: ByteSize,
    sizes: &[ByteSize],
    cycles: &[u64],
    ways: u32,
) -> Result<HierarchyConfig, String> {
    let mut first = None;
    for (size, c, config) in grid_points(l1, sizes, cycles, ways) {
        let config =
            config.map_err(|e| format!("invalid grid point [L2 {size}, {c} cycles]: {e}"))?;
        first.get_or_insert(config);
    }
    first.ok_or_else(|| "empty grid: need at least one size and one cycle time".into())
}

/// Every point's machine of an L2 grid on the base machine with an `l1`
/// split L1, size-major, with its L2 size and cycle time.
fn grid_points<'a>(
    l1: ByteSize,
    sizes: &'a [ByteSize],
    cycles: &'a [u64],
    ways: u32,
) -> impl Iterator<Item = (ByteSize, u64, Result<HierarchyConfig, ConfigError>)> + 'a {
    sizes.iter().flat_map(move |&size| {
        cycles.iter().map(move |&c| {
            let config = BaseMachine::new()
                .l1_total(l1)
                .l2_total(size)
                .l2_cycles(c)
                .l2_ways(ways)
                .build();
            (size, c, config)
        })
    })
}

/// The leading records that warm the caches up: `warmup_frac` of
/// `records`, clamped to at most 95%.
pub fn warmup_records(records: usize, warmup_frac: f64) -> usize {
    (records as f64 * warmup_frac.clamp(0.0, 0.95)) as usize
}

/// One sweep job, validated: the engine, the split-L1 size, and the L2
/// (size × cycle time) points at one associativity. `mlc-sweep` parses
/// its flags into one; `mlc-serve` builds one from each submission and
/// rebuilds one from each journal header; so all of them agree on what
/// a job is, and every grid point is known to build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridSpec {
    engine: SweepEngine,
    l1: ByteSize,
    sizes: Vec<ByteSize>,
    cycles: Vec<u64>,
    ways: u32,
}

impl GridSpec {
    /// Checks every grid point with [`validate_grid`].
    ///
    /// # Errors
    ///
    /// The [`validate_grid`] error for an empty grid or an invalid point.
    pub fn new(
        engine: SweepEngine,
        l1: ByteSize,
        sizes: Vec<ByteSize>,
        cycles: Vec<u64>,
        ways: u32,
    ) -> Result<GridSpec, String> {
        validate_grid(l1, &sizes, &cycles, ways)?;
        Ok(GridSpec {
            engine,
            l1,
            sizes,
            cycles,
            ways,
        })
    }

    /// [`GridSpec::new`] from the form a submission or a journal header
    /// carries: the engine's name, sizes in bytes and a `u64`
    /// associativity.
    ///
    /// # Errors
    ///
    /// An unknown engine, an associativity that overflows `u32`, or a
    /// [`validate_grid`] error, checked in that order.
    pub fn from_raw(
        engine: &str,
        l1_bytes: u64,
        sizes: &[u64],
        cycles: &[u64],
        ways: u64,
    ) -> Result<GridSpec, String> {
        let engine: SweepEngine = engine.parse()?;
        let ways = u32::try_from(ways).map_err(|_| format!("ways {ways} overflows u32"))?;
        let (l1, sizes) = (
            ByteSize::new(l1_bytes),
            sizes.iter().map(|&s| ByteSize::new(s)),
        );
        GridSpec::new(engine, l1, sizes.collect(), cycles.to_vec(), ways)
    }

    /// The grid a journal header records.
    ///
    /// # Errors
    ///
    /// As [`GridSpec::from_raw`].
    pub fn from_header(header: &JournalHeader) -> Result<GridSpec, String> {
        GridSpec::from_raw(
            &header.engine,
            header.l1_bytes,
            &header.sizes,
            &header.cycles,
            header.ways,
        )
    }

    /// The journal header of this job over a trace with content digest
    /// `trace_digest` and `warmup` warm-up records (see
    /// [`warmup_records`]).
    pub fn header(
        &self,
        trace_digest: String,
        warmup: usize,
        trace_id: Option<String>,
    ) -> JournalHeader {
        JournalHeader {
            trace_digest,
            engine: self.engine.to_string(),
            l1_bytes: self.l1.get(),
            warmup: warmup as u64,
            ways: u64::from(self.ways),
            sizes: self.sizes.iter().map(|s| s.get()).collect(),
            cycles: self.cycles.clone(),
            trace_id,
        }
    }

    /// The sweep engine.
    pub fn engine(&self) -> SweepEngine {
        self.engine
    }

    /// The combined split-L1 size.
    pub fn l1(&self) -> ByteSize {
        self.l1
    }

    /// The swept L2 sizes.
    pub fn sizes(&self) -> &[ByteSize] {
        &self.sizes
    }

    /// The swept L2 cycle times, in CPU cycles.
    pub fn cycles(&self) -> &[u64] {
        &self.cycles
    }

    /// The L2 associativity.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Every grid point's machine with its L2 size and cycle time,
    /// size-major.
    pub fn points(&self) -> impl Iterator<Item = (ByteSize, u64, HierarchyConfig)> + '_ {
        grid_points(self.l1, &self.sizes, &self.cycles, self.ways)
            .map(|(size, c, config)| (size, c, config.expect("validated grid points build")))
    }

    /// The base machine with this job's L1.
    pub fn base(&self) -> BaseMachine {
        let mut base = BaseMachine::new();
        base.l1_total(self.l1);
        base
    }

    /// Runs the job through [`Explorer::l2_grid_checkpointed`]:
    /// computes the rows `completed` lacks and hands each to `append`.
    pub fn run<A>(&self, explorer: &Explorer, completed: Vec<GridRow>, append: A) -> GridRun
    where
        A: FnMut(&GridRow) -> io::Result<()> + Send,
    {
        explorer.l2_grid_checkpointed(
            self.engine,
            &self.base(),
            &self.sizes,
            &self.cycles,
            self.ways,
            completed,
            append,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlc_obs::{Metrics, Progress};
    use mlc_trace::synth::{workload::Preset, MultiProgramGenerator};

    fn trace(n: usize) -> Vec<TraceRecord> {
        MultiProgramGenerator::new(Preset::Mips2.config(5))
            .expect("valid preset")
            .generate_records(n)
    }

    #[test]
    fn size_ladder_bounds() {
        let l = size_ladder(ByteSize::kib(8), ByteSize::kib(64));
        assert_eq!(
            l,
            vec![
                ByteSize::kib(8),
                ByteSize::kib(16),
                ByteSize::kib(32),
                ByteSize::kib(64)
            ]
        );
        assert_eq!(size_ladder(ByteSize::kib(4), ByteSize::kib(4)).len(), 1);
    }

    #[test]
    #[should_panic(expected = "ladder bounds")]
    fn size_ladder_rejects_inverted() {
        size_ladder(ByteSize::kib(64), ByteSize::kib(8));
    }

    #[test]
    fn miss_ratio_curve_shape() {
        let t = trace(120_000);
        let explorer = Explorer::new(&t, 30_000);
        let sizes = size_ladder(ByteSize::kib(16), ByteSize::kib(256));
        let curve = explorer.miss_ratio_curve(&BaseMachine::new(), &sizes);
        assert_eq!(curve.len(), sizes.len());
        for p in &curve {
            assert!(p.local >= p.global - 1e-12, "local >= global at {}", p.size);
            assert!(p.local <= 1.0 && p.global <= 1.0 && p.solo <= 1.0);
        }
        // Global miss ratio decreases (weakly) with size.
        for w in curve.windows(2) {
            assert!(
                w[1].global <= w[0].global + 1e-3,
                "global should fall: {:?}",
                (w[0].size, w[0].global, w[1].size, w[1].global)
            );
        }
    }

    #[test]
    fn grid_shape_and_monotonicity() {
        let t = trace(100_000);
        let explorer = Explorer::new(&t, 25_000);
        let sizes = size_ladder(ByteSize::kib(32), ByteSize::kib(128));
        let cycles = vec![1, 3, 5];
        let grid = explorer.l2_grid(&BaseMachine::new(), &sizes, &cycles, 1);
        assert_eq!(grid.total.len(), 3);
        assert_eq!(grid.total[0].len(), 3);
        // Execution time rises with L2 cycle time at fixed size.
        for row in &grid.total {
            for w in row.windows(2) {
                assert!(w[1] >= w[0], "slower L2 must not speed things up");
            }
        }
        // Relative is 1.0 at the argmin.
        let min = grid.min_total();
        assert!(grid.total.iter().enumerate().any(|(i, row)| row
            .iter()
            .enumerate()
            .any(|(j, &v)| { v == min && (grid.relative(i, j) - 1.0).abs() < 1e-12 })));
        assert_eq!(grid.column(0).len(), 3);
        assert!(!grid.m_l1_global.is_nan());
    }

    #[test]
    fn engines_agree_cycle_exact() {
        let t = trace(60_000);
        let explorer = Explorer::new(&t, 15_000);
        let sizes = size_ladder(ByteSize::kib(64), ByteSize::kib(128));
        let cycles = vec![1, 4];
        let exhaustive = explorer.l2_grid_with(
            SweepEngine::Exhaustive,
            &BaseMachine::new(),
            &sizes,
            &cycles,
            1,
        );
        let onepass = explorer.l2_grid_with(
            SweepEngine::OnePass,
            &BaseMachine::new(),
            &sizes,
            &cycles,
            1,
        );
        crate::timing::verify_grids(&exhaustive, &onepass).expect("engines must agree");
    }

    #[test]
    fn metrics_and_progress_flow_through_sweeps() {
        let t = trace(50_000);
        let metrics = Metrics::enabled();
        let progress = Progress::disabled();
        let explorer = Explorer::new(&t, 10_000)
            .with_metrics(&metrics)
            .with_progress(&progress);
        let sizes = size_ladder(ByteSize::kib(32), ByteSize::kib(64));
        let cycles = vec![1, 4];
        let grid = explorer.l2_grid(&BaseMachine::new(), &sizes, &cycles, 1);
        assert_eq!(grid.total.len(), 2);
        // One tick per grid point.
        assert_eq!(progress.done(), (sizes.len() * cycles.len()) as u64);
        let snap = metrics.snapshot();
        let phase = |name: &str| snap.phases.iter().any(|(n, _)| n == name);
        assert!(phase("grid.size.32KB"), "phases: {:?}", snap.phases);
        assert!(phase("grid.size.64KB"));
        assert!(phase("sweep.warmup") && phase("sweep.measure"));

        let curve = explorer.miss_ratio_curve(&BaseMachine::new(), &sizes);
        assert_eq!(curve.len(), 2);
        assert_eq!(
            progress.done(),
            (sizes.len() * cycles.len() + sizes.len()) as u64
        );
        let snap = metrics.snapshot();
        assert!(snap.phases.iter().any(|(n, _)| n == "solo.measure"));
        assert!(snap
            .counters
            .iter()
            .any(|(n, v)| n == "solo.read_refs" && *v > 0));
    }

    #[test]
    #[should_panic(expected = "empty grid")]
    fn grid_rejects_empty() {
        let t = trace(1000);
        Explorer::new(&t, 0).l2_grid(&BaseMachine::new(), &[], &[1], 1);
    }

    #[test]
    fn try_rows_isolate_a_poisoned_row() {
        let t = trace(40_000);
        let explorer = Explorer::new(&t, 10_000);
        let sizes = size_ladder(ByteSize::kib(32), ByteSize::kib(64));
        let cycles = vec![1, 4];
        // Size index 5 does not exist: the row fails typed, the valid
        // row still completes.
        let out = explorer.try_l2_rows(
            SweepEngine::OnePass,
            &BaseMachine::new(),
            &sizes,
            &cycles,
            1,
            &[0, 5],
            |_| {},
        );
        assert_eq!(out.len(), 2);
        let good = out[0].as_ref().expect("row 0 completes");
        assert_eq!(good.row, 0);
        assert_eq!(good.total.len(), 2);
        let bad = out[1].as_ref().unwrap_err();
        assert_eq!(bad.index, 5);
    }

    /// A one-pass checkpointed grid over `sizes` x {1, 4} cycles.
    fn checkpointed(
        explorer: &Explorer,
        sizes: &[ByteSize],
        completed: Vec<GridRow>,
        append: impl FnMut(&GridRow) -> io::Result<()> + Send,
    ) -> GridRun {
        let base = BaseMachine::new();
        explorer.l2_grid_checkpointed(
            SweepEngine::OnePass,
            &base,
            sizes,
            &[1, 4],
            1,
            completed,
            append,
        )
    }

    /// Bit-exact grid equality: `Debug` renders every float exactly
    /// (and NaN as itself, unlike `==`).
    fn assert_bit_identical(a: &DesignGrid, b: &DesignGrid) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn checkpointed_grid_marks_failed_rows_with_sentinels() {
        let t = trace(40_000);
        let explorer = Explorer::new(&t, 10_000);
        let sizes = size_ladder(ByteSize::kib(32), ByteSize::kib(64));
        // A panic in row 0's append fails that row; row 1 still lands.
        let run = checkpointed(&explorer, &sizes, Vec::new(), |row| {
            assert_ne!(row.row, 0, "injected row failure");
            Ok(())
        });
        assert_eq!(run.failures.len(), 1);
        assert_eq!(run.failures[0].index, 0);
        assert!(run.append_error.is_none());
        let grid = run.grid;
        assert_eq!(grid.total[0], vec![DesignGrid::FAILED, DesignGrid::FAILED]);
        assert!(grid.l2_local[0].is_nan());
        assert!(grid.total[1].iter().all(|&v| v != DesignGrid::FAILED));
        // min_total skips the sentinel row.
        assert_eq!(grid.min_total(), grid.total[1][0]);
    }

    #[test]
    fn checkpointed_grid_matches_grid_and_append_sees_every_row() {
        let t = trace(40_000);
        let explorer = Explorer::new(&t, 10_000);
        let sizes = size_ladder(ByteSize::kib(32), ByteSize::kib(256));
        let mut appended = Vec::new();
        let fresh = checkpointed(&explorer, &sizes, Vec::new(), |row| {
            appended.push(row.clone());
            Ok(())
        });
        assert!(fresh.failures.is_empty() && fresh.append_error.is_none());
        let plain = explorer.l2_grid(&BaseMachine::new(), &sizes, &[1, 4], 1);
        assert_bit_identical(&fresh.grid, &plain);
        appended.sort_by_key(|r| r.row);
        assert_eq!(
            appended.iter().map(|r| r.row).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );

        // Resume: half the rows come back from the journal, only the
        // other half is computed and appended, and the grid is the
        // fresh one bit for bit.
        let completed = appended.iter().step_by(2).cloned().collect();
        let mut resumed_appends = Vec::new();
        let resumed = checkpointed(&explorer, &sizes, completed, |row| {
            resumed_appends.push(row.row);
            Ok(())
        });
        assert!(resumed.failures.is_empty() && resumed.append_error.is_none());
        resumed_appends.sort_unstable();
        assert_eq!(resumed_appends, [1, 3]);
        assert_bit_identical(&resumed.grid, &fresh.grid);
    }

    #[test]
    fn checkpointed_grid_reports_the_first_append_error_once() {
        let t = trace(40_000);
        let explorer = Explorer::new(&t, 10_000);
        let sizes = size_ladder(ByteSize::kib(32), ByteSize::kib(128));
        // The first two appends fail; only the first error is kept.
        let mut calls = 0;
        let run = checkpointed(&explorer, &sizes, Vec::new(), |_| {
            calls += 1;
            if calls <= 2 {
                Err(io::Error::other(format!("disk full #{calls}")))
            } else {
                Ok(())
            }
        });
        // The append still ran for every row, and no row failed.
        assert_eq!(calls, sizes.len());
        assert!(run.failures.is_empty());
        let error = run.append_error.expect("reported");
        assert_eq!(error.to_string(), "disk full #1");
        let plain = explorer.l2_grid(&BaseMachine::new(), &sizes, &[1, 4], 1);
        assert_bit_identical(&run.grid, &plain);
    }

    #[test]
    fn engines_agree_row_for_row() {
        let t = trace(40_000);
        let explorer = Explorer::new(&t, 10_000);
        let sizes = size_ladder(ByteSize::kib(32), ByteSize::kib(64));
        let cycles = vec![1, 4];
        let a: Vec<GridRow> = explorer
            .try_l2_rows(
                SweepEngine::Exhaustive,
                &BaseMachine::new(),
                &sizes,
                &cycles,
                1,
                &[0, 1],
                |_| {},
            )
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        let b: Vec<GridRow> = explorer
            .try_l2_rows(
                SweepEngine::OnePass,
                &BaseMachine::new(),
                &sizes,
                &cycles,
                1,
                &[0, 1],
                |_| {},
            )
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.total, y.total, "engines must price rows identically");
        }
    }
}
