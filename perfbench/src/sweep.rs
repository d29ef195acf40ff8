//! `sweep_paper`: the release `mlc-sweep` binary from trace file to grid
//! CSV on the default 16K:4M × 1:10 direct-mapped grid, one job at a
//! time.
//!
//! The traced run replays the same path in-process, timing each layer's
//! public entry point: `read_binary_slice` (trace), `try_l2_rows` (the
//! row-parallel timing sweep), and the CSV render; plus a digest probe.

use std::fs;
use std::process::{Command, Stdio};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use mlc_cache::ByteSize;
use mlc_core::{DesignGrid, Explorer, GridRow, SweepEngine};
use mlc_serve::SubmitRequest;
use mlc_sim::machine::BaseMachine;
use mlc_sim::TimingSweepSim;
use mlc_trace::TraceRecord;

use crate::client::Daemon;
use crate::{proc, stat, Ctx, Fail, Outcome};

/// A sweep grid as `mlc-sweep` and the daemon take it.
#[derive(Debug, Clone)]
pub struct Grid {
    /// L2 sizes, ascending.
    pub sizes: Vec<ByteSize>,
    /// L2 cycle times, ascending.
    pub cycles: Vec<u64>,
}

impl Grid {
    /// `mlc-sweep`'s default grid: 16K..4M by doubling, 1..10 cycles.
    pub fn paper() -> Grid {
        Grid {
            sizes: mlc_core::size_ladder(ByteSize::kib(16), ByteSize::mib(4)),
            cycles: (1..=10).collect(),
        }
    }

    /// Configurations priced per job.
    pub fn points(&self) -> usize {
        self.sizes.len() * self.cycles.len()
    }

    /// The daemon submission for this grid (4 KB split L1, direct-mapped
    /// L2, one-pass engine, 25% warm-up: the CLI defaults).
    pub fn submit(&self, ctx: &Ctx, trace_id: String) -> SubmitRequest {
        SubmitRequest {
            trace: ctx.trace_path(),
            l1_bytes: 4096,
            ways: 1,
            sizes: self.sizes.iter().map(|s| s.get()).collect(),
            cycles: self.cycles.clone(),
            engine: "onepass".into(),
            warmup_frac: 0.25,
            wait: true,
            deadline_ms: 0,
            trace_id,
        }
    }
}

fn base() -> BaseMachine {
    let mut base = BaseMachine::new();
    base.l1_total(ByteSize::kib(4));
    base
}

/// The lane width the one-pass engine monomorphizes for a row of the
/// paper grid.
pub fn lane_width() -> Result<usize, Fail> {
    let grid = Grid::paper();
    let configs = row_configs(&grid, 0)?;
    Ok(TimingSweepSim::new(&configs)?.width())
}

fn row_configs(grid: &Grid, i: usize) -> Result<Vec<mlc_sim::HierarchyConfig>, Fail> {
    grid.cycles
        .iter()
        .map(|&c| {
            let mut m = base();
            m.l2_total(grid.sizes[i]).l2_cycles(c).l2_ways(1);
            Ok(m.build()?)
        })
        .collect()
}

/// One timed in-process pass over a grid's rows with `try_l2_rows`,
/// recording when each row finished and on which worker.
pub struct RowsRun {
    /// The completed grid.
    pub grid: DesignGrid,
    /// Wall time of the whole `try_l2_rows` call.
    pub makespan_s: f64,
    /// Each row's self time on its worker thread: the gap since that
    /// worker's previous row finished (or since the call began).
    pub row_s: Vec<f64>,
    /// Worker threads the rows ran on.
    pub threads: usize,
}

/// Computes `grid` over `trace` in-process through the public
/// row-parallel entry point the CLI and the daemon both use.
pub fn timed_rows(grid: &Grid, trace: &[TraceRecord]) -> Result<RowsRun, Fail> {
    let explorer = Explorer::new(trace, Ctx::warmup(trace.len()));
    let todo: Vec<usize> = (0..grid.sizes.len()).collect();
    let finished: Mutex<Vec<(ThreadId, Instant)>> = Mutex::new(Vec::new());
    let start = Instant::now();
    let results = explorer.try_l2_rows(
        SweepEngine::OnePass,
        &base(),
        &grid.sizes,
        &grid.cycles,
        1,
        &todo,
        |_row: &GridRow| {
            let now = Instant::now();
            let me = std::thread::current().id();
            finished.lock().expect("row log").push((me, now));
        },
    );
    let makespan_s = start.elapsed().as_secs_f64();
    let rows = results
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|f| format!("grid row failed: {f}"))?;
    let mut finished = finished.into_inner().expect("row log");
    finished.sort_by_key(|&(_, t)| t);
    let mut last: Vec<(ThreadId, Instant)> = Vec::new();
    let mut row_s = Vec::new();
    for (thread, t) in finished {
        let prev = match last.iter_mut().find(|(id, _)| *id == thread) {
            Some(entry) => std::mem::replace(&mut entry.1, t),
            None => {
                last.push((thread, t));
                start
            }
        };
        row_s.push((t - prev).as_secs_f64());
    }
    Ok(RowsRun {
        grid: DesignGrid::from_rows(&grid.sizes, &grid.cycles, 1, &rows),
        makespan_s,
        row_s,
        threads: last.len(),
    })
}

/// Records the row-level layer metrics of one [`timed_rows`] pass.
pub fn row_metrics(out: &mut Outcome, grid: &Grid, refs: usize, run: &RowsRun) -> Result<(), Fail> {
    let row = stat::median(&run.row_s);
    let max = run.row_s.iter().copied().fold(0.0, f64::max);
    let width = TimingSweepSim::new(&row_configs(grid, 0)?)?.width();
    let lanes = grid.cycles.len();
    out.set("sim.sweep_row_s", row);
    out.set(
        "sim.sweep_ns_per_ref_lane",
        row * 1e9 / (refs * lanes) as f64,
    );
    out.set("sim.sweep_lane_fill", lanes as f64 / width as f64);
    out.set("sim.lane_width", width as f64);
    let busy: f64 = run.row_s.iter().sum();
    out.set(
        "core.par_efficiency",
        busy / (run.threads as f64 * run.makespan_s),
    );
    out.set("core.row_imbalance", max / row);
    out.notes.push(format!(
        "rows: {} rows on {} threads, makespan {:.4}s, median row {row:.4}s, slowest {max:.4}s, lanes {lanes}/{width}",
        run.row_s.len(),
        run.threads,
        run.makespan_s
    ));
    Ok(())
}

/// Reads and decodes the trace file through the zero-copy slice decoder
/// `mlc-sweep` uses for binary traces; returns the records and the time.
pub fn ingest(ctx: &Ctx) -> Result<(Vec<TraceRecord>, f64), Fail> {
    let t = Instant::now();
    let bytes = crate::read(&ctx.trace_path())?;
    let records = mlc_trace::slice::read_binary_slice(&bytes)?;
    Ok((records, t.elapsed().as_secs_f64()))
}

/// Runs one `mlc-sweep` job; returns its wall time, peak RSS and CSV.
fn sweep_job(ctx: &Ctx, n: u64) -> Result<(f64, f64, Vec<u8>), Fail> {
    let csv = ctx.dir.join(format!("grid-{n}.csv"));
    let log = fs::File::create(ctx.dir.join("sweep.log"))?;
    let t = Instant::now();
    let child = Command::new(ctx.bin.join("mlc-sweep"))
        .arg("--trace")
        .arg(ctx.trace_path())
        .arg("--out")
        .arg(&csv)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log)
        .spawn()?;
    let reaped = proc::reap(child, Duration::from_secs(150))?;
    let secs = t.elapsed().as_secs_f64();
    if !reaped.success {
        let log = fs::read_to_string(ctx.dir.join("sweep.log")).unwrap_or_default();
        return Err(format!("mlc-sweep failed: {}", log.trim()).into());
    }
    let bytes = crate::read(&csv)?;
    fs::remove_file(&csv)?;
    Ok((secs, reaped.peak_rss_mb, bytes))
}

/// The `sweep_paper` workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, Fail> {
    let mut out = Outcome::default();
    let grid = Grid::paper();
    let ((), setup_s) = ctx.repeat_setup(|_| ctx.generate_trace(), |()| Ok(()))?;
    out.set("setup_s", setup_s);

    let mut lat_ms = Vec::new();
    let mut peak: f64 = 0.0;
    let mut csv: Option<Vec<u8>> = None;
    let start = Instant::now();
    while lat_ms.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        out.attempted += 1;
        let (secs, rss, bytes) = sweep_job(ctx, out.attempted)?;
        lat_ms.push(secs * 1e3);
        peak = peak.max(rss);
        let same = csv.get_or_insert_with(|| bytes.clone()) == &bytes;
        out.check(same, || {
            "mlc-sweep jobs on one trace wrote different CSVs".into()
        });
    }
    let elapsed = start.elapsed().as_secs_f64();
    let csv = csv.expect("at least one job ran");
    out.latency(&lat_ms, elapsed, (ctx.refs * grid.points()) as f64);
    out.set("peak_rss_mb", peak);

    // Correctness gate: the daemon, computing the same job, serves the
    // same bytes.
    let daemon = Daemon::start(&ctx.bin, &ctx.dir, &[])?;
    let served = daemon
        .connect()?
        .submit(&grid.submit(ctx, format!("perfbench-sweep-{}", ctx.seed)))?;
    daemon.stop()?;
    out.check(served.csv.as_bytes() == csv.as_slice(), || {
        "mlc-sweep CSV differs from the bytes mlc-serve serves for the same job".into()
    });
    crate::check_golden(ctx, "sweep_paper", &crate::digest_hex(&csv), &mut out);

    if ctx.traced {
        let t = Instant::now();
        let (trace, ingest_s) = ingest(ctx)?;
        let rows = timed_rows(&grid, &trace)?;
        let t_csv = Instant::now();
        let replayed = crate::grid_csv(&rows.grid);
        fs::write(ctx.dir.join("replay.csv"), &replayed)?;
        let csv_s = t_csv.elapsed().as_secs_f64();
        let traced_s = t.elapsed().as_secs_f64();
        out.check(replayed.as_bytes() == csv.as_slice(), || {
            "the in-process replay's CSV differs from mlc-sweep's".into()
        });
        out.ingest(trace.len(), ingest_s);
        row_metrics(&mut out, &grid, trace.len(), &rows)?;
        let t = Instant::now();
        std::hint::black_box(mlc_obs::digest_records_hex(&trace));
        out.set("obs.digest_s", t.elapsed().as_secs_f64());
        out.conservation(
            stat::median(&lat_ms) / 1e3,
            traced_s,
            &[
                ("trace.ingest", ingest_s),
                ("core.try_l2_rows", rows.makespan_s),
                ("cli.csv", csv_s),
            ],
        );
    }
    Ok(out)
}
