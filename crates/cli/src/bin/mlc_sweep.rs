//! `mlc-sweep` — sweep the L2 design space over a trace.
//!
//! ```text
//! mlc-sweep --trace trace.din --sizes 16K:4M --cycles 1:10 --ways 1 \
//!           --engine onepass --out grid.csv
//! mlc-sweep --trace trace.din --journal sweep.jsonl            # checkpoint
//! mlc-sweep --trace trace.din --journal sweep.jsonl --resume   # continue
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use mlc_cli::args::{Args, Flag};
use mlc_cli::machine_file;
use mlc_cli::obs::{obs_flags, Observability};
use mlc_cli::IngestedTrace;
use mlc_core::{
    constant_performance_lines, fmt_f2, slopes_cycles_per_doubling, verify_grids, DesignGrid,
    Explorer, GridSpec, PointFailure, SlopeRegion, SweepEngine, Table,
};
use mlc_obs::json::JsonValue;
use mlc_obs::{JournalError, JournalWriter, RunManifest};

fn flags() -> Vec<Flag> {
    let mut flags = vec![Flag {
        name: "trace",
        value: "PATH",
        help: "input trace (.din or mlc binary)",
    }];
    flags.extend(mlc_cli::grid_flags());
    flags.extend([
        Flag {
            name: "cross-check",
            value: "",
            help: "run both engines and fail unless they agree cycle-exact",
        },
        Flag {
            name: "out",
            value: "PATH",
            help: "write the execution-time grid as CSV",
        },
        Flag {
            name: "isoperf",
            value: "BOOL",
            help: "also print lines of constant performance (default true)",
        },
        Flag {
            name: "lint",
            value: "",
            help: "lint every swept configuration before simulating",
        },
        Flag {
            name: "deny-warnings",
            value: "",
            help: "with --lint, treat warnings as failures",
        },
        Flag {
            name: "journal",
            value: "PATH",
            help: "append each completed grid row to a crash-consistent journal",
        },
        Flag {
            name: "resume",
            value: "",
            help: "with --journal, replay completed rows and compute only the rest",
        },
        Flag {
            name: "max-point-failures",
            value: "N",
            help: "tolerate up to N failed grid rows before exiting nonzero (default 0)",
        },
        mlc_cli::trace_faults_flag(),
    ]);
    flags.extend(obs_flags());
    flags
}

/// Lints every grid point of the sweep, deduplicating findings that
/// repeat across points (a degenerate corner usually taints a whole row
/// or column). Returns false when the sweep should not proceed.
fn lint_sweep(job: &GridSpec, deny_warnings: bool) -> bool {
    let mut seen = std::collections::BTreeSet::new();
    let mut report = mlc_check::Report::clean();
    for (size, c, config) in job.points() {
        for mut d in mlc_cli::lint::lint_config(&config).diagnostics {
            if seen.insert((d.rule, d.message.clone())) {
                d.message = format!("[L2 {size}, {c} cycles] {}", d.message);
                report.push(d);
            }
        }
    }
    eprint!("{}", report.render_human("sweep"));
    !report.should_fail(deny_warnings)
}

/// The rows of `job` that `failures` names, one `L2 <size> (row i):
/// <message>` line each, every line led by a newline.
fn failed_rows(job: &GridSpec, failures: &[PointFailure]) -> String {
    failures
        .iter()
        .map(|f| {
            format!(
                "\n  L2 {} (row {}): {}",
                job.sizes()[f.index],
                f.index,
                f.message
            )
        })
        .collect()
}

/// Recomputes `computed`, the grid of `job`'s engine, with the other
/// engine and fails unless the two agree cycle-exact.
fn cross_check(
    job: &GridSpec,
    explorer: Explorer,
    obs: &Observability,
    computed: &DesignGrid,
) -> Result<(), String> {
    let other = match job.engine() {
        SweepEngine::Exhaustive => SweepEngine::OnePass,
        SweepEngine::OnePass => SweepEngine::Exhaustive,
    };
    let points = job.sizes().len() * job.cycles().len();
    let progress = obs.progress(other.name(), points as u64);
    let other_job = GridSpec::new(
        other,
        job.l1(),
        job.sizes().to_vec(),
        job.cycles().to_vec(),
        job.ways(),
    )?;
    let run = other_job.run(&explorer.with_progress(&progress), Vec::new(), |_| Ok(()));
    progress.finish();
    if !run.failures.is_empty() {
        return Err(format!(
            "{} of {} grid rows failed under the {other} engine:{}",
            run.failures.len(),
            job.sizes().len(),
            failed_rows(job, &run.failures)
        ));
    }
    let recomputed = run.grid;
    let (exhaustive, onepass) = match other {
        SweepEngine::Exhaustive => (&recomputed, computed),
        SweepEngine::OnePass => (computed, &recomputed),
    };
    verify_grids(exhaustive, onepass).map_err(|d| format!("engine cross-check failed: {d}"))?;
    eprintln!("cross-check passed: engines agree cycle-exact on all {points} grid points");
    Ok(())
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse(
        "mlc-sweep: L2 design-space exploration over a trace",
        flags(),
        std::env::args(),
    )?;
    let trace_path: PathBuf = args.require("trace")?;
    let (job, warmup_frac) = mlc_cli::parse_grid(&args)?;
    let (sizes, cycles, engine) = (job.sizes(), job.cycles(), job.engine());

    let journal_path = args.get("journal").map(PathBuf::from);
    let resume = args.has("resume");
    let max_point_failures: u64 = args.get_or("max-point-failures", 0)?;
    if resume && journal_path.is_none() {
        return Err("--resume requires --journal".into());
    }
    if journal_path.is_some() && args.has("cross-check") {
        return Err("--journal cannot be combined with --cross-check".into());
    }

    if args.has("lint") && !lint_sweep(&job, args.has("deny-warnings")) {
        return Err("sweep configurations failed lint".into());
    }
    let obs = Observability::from_args(&args)?;

    let mut manifest = RunManifest::new("mlc-sweep", env!("CARGO_PKG_VERSION"));
    manifest.command(std::env::args().skip(1));
    // The journal header pins the digest, so journalling computes it
    // even when metrics are off.
    let IngestedTrace {
        records: trace,
        warmup,
        digest,
    } = mlc_cli::ingest_trace(
        &args,
        &trace_path,
        warmup_frac,
        journal_path.is_some(),
        &obs,
        &mut manifest,
    )?;
    let passes = match engine {
        SweepEngine::Exhaustive => sizes.len() * cycles.len(),
        SweepEngine::OnePass => sizes.len(),
    };
    eprintln!(
        "sweeping {} sizes x {} cycle times ({engine} engine: {passes} simulations of {} references) …",
        sizes.len(),
        cycles.len(),
        trace.len()
    );

    manifest.engine(&engine.to_string());
    manifest.param("l1_bytes", job.l1().get());
    manifest.param(
        "l2_sizes",
        JsonValue::Array(sizes.iter().map(|s| s.to_string().into()).collect()),
    );
    manifest.param(
        "l2_cycles",
        JsonValue::Array(cycles.iter().map(|&c| c.into()).collect()),
    );
    manifest.param("l2_ways", u64::from(job.ways()));
    manifest.param("warmup_frac", warmup_frac);
    manifest.param("cross_check", args.has("cross-check"));
    manifest.param("max_point_failures", max_point_failures);
    if let Some(p) = &journal_path {
        manifest.param("journal", p.display().to_string());
        manifest.param("resume", resume);
    }
    let (_, _, first_config) = job.points().next().expect("a valid grid has a point");
    manifest.param("machine", machine_file::render_machine(&first_config));

    let (mut journal, completed) = match &journal_path {
        Some(path) => {
            let exists = path.exists();
            if exists && !resume {
                return Err(format!(
                    "journal {} already exists; pass --resume to continue it or remove the file",
                    path.display()
                )
                .into());
            }
            if !exists && resume {
                eprintln!("journal {} not found; starting fresh", path.display());
            }
            let header = job.header(
                digest.expect("journalling computes the digest"),
                warmup,
                None,
            );
            let (writer, journal) = JournalWriter::open(path, &header).map_err(|e| match e {
                JournalError::Mismatch { .. } => {
                    format!("{e}; rerun with matching flags or remove the journal")
                }
                e => e.to_string(),
            })?;
            if journal.torn_tail {
                eprintln!("warning: dropped torn partial line at the journal tail (crash debris)");
            }
            (Some(writer), journal.rows)
        }
        None => (None, Vec::new()),
    };
    if resume {
        eprintln!(
            "resuming from journal: {} of {} rows already committed",
            completed.len(),
            sizes.len()
        );
    }
    let explorer = Explorer::new(&trace, warmup).with_metrics(&obs.metrics);
    let todo = sizes.len() - completed.len();
    let progress = obs.progress(&engine.to_string(), (todo * cycles.len()) as u64);
    let run = job.run(
        &explorer.with_progress(&progress),
        completed,
        |row| match &mut journal {
            Some(writer) => writer.append_row(row),
            None => Ok(()),
        },
    );
    progress.finish();
    if let Some(e) = run.append_error {
        return Err(format!("journal write failed: {e}").into());
    }
    let (grid, failures) = (run.grid, run.failures);
    if !failures.is_empty() {
        eprintln!(
            "{} of {} grid rows failed:{}",
            failures.len(),
            sizes.len(),
            failed_rows(&job, &failures)
        );
    }
    if args.has("cross-check") {
        if !failures.is_empty() {
            return Err(format!(
                "{} grid row(s) failed; engine cross-check skipped",
                failures.len()
            )
            .into());
        }
        cross_check(&job, explorer, &obs, &grid)?;
    }
    manifest.param("point_failures", failures.len() as u64);

    let mut headers: Vec<String> = vec!["t_L2 \\ size".into()];
    headers.extend(sizes.iter().map(|s| s.to_string()));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "relative execution time (grid optimum = 1.00)",
        &header_refs,
    );
    for (j, &c) in grid.cycles.iter().enumerate() {
        let mut row = vec![format!("{c}")];
        row.extend((0..sizes.len()).map(|i| {
            if grid.total[i][j] == DesignGrid::FAILED {
                "--".into()
            } else {
                fmt_f2(grid.relative(i, j))
            }
        }));
        table.row(row);
    }
    println!("{table}");

    let isoperf: bool = args.get_or("isoperf", true)?;
    if isoperf && !failures.is_empty() {
        eprintln!("skipping iso-performance analysis: the grid is incomplete");
    }
    if isoperf && failures.is_empty() {
        let levels: Vec<f64> = (1..=10).map(|i| 1.0 + 0.1 * i as f64).collect();
        let lines = constant_performance_lines(&grid, &levels);
        let mut iso = Table::new(
            "iso-performance slopes (cycles per doubling)",
            &["rel", "first segment", "slope", "region"],
        );
        for line in &lines {
            if let Some((at, s)) = slopes_cycles_per_doubling(line).first() {
                iso.row([
                    format!("{:.1}", line.relative),
                    at.to_string(),
                    format!("{s:.2}"),
                    SlopeRegion::classify(*s).to_string(),
                ]);
            }
        }
        println!("{iso}");
    }

    if let Some(out) = args.get("out") {
        mlc_cli::write_grid_csv(&grid, out)?;
    }
    println!(
        "L1 global read miss ratio {:.4} (1/M_L1 = {:.1})",
        grid.m_l1_global,
        1.0 / grid.m_l1_global
    );
    obs.finish(&mut manifest)?;
    if failures.len() as u64 > max_point_failures {
        return Err(format!(
            "{} grid row(s) failed; --max-point-failures budget is {max_point_failures}",
            failures.len()
        )
        .into());
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mlc-sweep: {e}");
            ExitCode::FAILURE
        }
    }
}
