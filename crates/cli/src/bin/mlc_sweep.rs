//! `mlc-sweep` — sweep the L2 design space over a trace.
//!
//! ```text
//! mlc-sweep --trace trace.din --sizes 16K:4M --cycles 1:10 --ways 1 \
//!           --engine onepass --out grid.csv
//! mlc-sweep --trace trace.din --journal sweep.jsonl            # checkpoint
//! mlc-sweep --trace trace.din --journal sweep.jsonl --resume   # continue
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mlc_cache::ByteSize;
use mlc_cli::args::{parse_choice, parse_int_range, parse_size_range, Args, Flag};
use mlc_cli::machine_file;
use mlc_cli::obs::{obs_flags, Observability};
use mlc_cli::IngestedTrace;
use mlc_core::{
    constant_performance_lines, fmt_f2, slopes_cycles_per_doubling, validate_grid, verify_grids,
    DesignGrid, Explorer, GridRow, SlopeRegion, SweepEngine, Table,
};
use mlc_obs::json::JsonValue;
use mlc_obs::{JournalHeader, JournalWriter, RunManifest};
use mlc_sim::machine::BaseMachine;

fn flags() -> Vec<Flag> {
    let mut flags = vec![
        Flag {
            name: "trace",
            value: "PATH",
            help: "input trace (.din or mlc binary)",
        },
        Flag {
            name: "sizes",
            value: "LO:HI",
            help: "L2 size range, powers of two (default 16K:4M)",
        },
        Flag {
            name: "cycles",
            value: "LO:HI",
            help: "L2 cycle-time range in CPU cycles (default 1:10)",
        },
        Flag {
            name: "ways",
            value: "W",
            help: "L2 associativity (default 1)",
        },
        Flag {
            name: "l1",
            value: "SIZE",
            help: "combined split-L1 size (default 4K)",
        },
        Flag {
            name: "warmup-frac",
            value: "F",
            help: "fraction of the trace excluded from statistics (default 0.25)",
        },
        Flag {
            name: "engine",
            value: "NAME",
            help: "grid engine: onepass (default; one simulation per size) or exhaustive",
        },
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
    ];
    flags.extend(obs_flags());
    flags
}

/// Lints every grid point of the sweep, deduplicating findings that
/// repeat across points (a degenerate corner usually taints a whole row
/// or column). Returns false when the sweep should not proceed.
fn lint_sweep(
    l1: ByteSize,
    sizes: &[ByteSize],
    cycles: &[u64],
    ways: u32,
    deny_warnings: bool,
) -> bool {
    let mut seen = std::collections::BTreeSet::new();
    let mut report = mlc_check::Report::clean();
    for &size in sizes {
        for &c in cycles {
            let config = BaseMachine::new()
                .l1_total(l1)
                .l2_total(size)
                .l2_cycles(c)
                .l2_ways(ways)
                .build();
            let point = format!("[L2 {size}, {c} cycles]");
            match config {
                Ok(config) => {
                    for d in mlc_cli::lint::lint_config(&config).diagnostics {
                        if seen.insert((d.rule, d.message.clone())) {
                            let mut d = d;
                            d.message = format!("{point} {}", d.message);
                            report.push(d);
                        }
                    }
                }
                Err(e) => {
                    if seen.insert((mlc_check::RuleId::ParseError, e.to_string())) {
                        report.push(mlc_check::Diagnostic::new(
                            mlc_check::RuleId::ParseError,
                            format!("{point} {e}"),
                            None,
                        ));
                    }
                }
            }
        }
    }
    eprint!("{}", report.render_human("sweep"));
    !report.should_fail(deny_warnings)
}

/// Rejects a resumed journal whose sweep definition differs from the
/// current invocation, naming the first mismatching field.
fn verify_header(journal: &JournalHeader, run: &JournalHeader) -> Result<(), String> {
    fn check<T: PartialEq + std::fmt::Debug>(field: &str, j: &T, r: &T) -> Result<(), String> {
        if j == r {
            Ok(())
        } else {
            Err(format!(
                "journal {field} mismatch: journal has {j:?}, this run has {r:?}; \
                 rerun with matching flags or remove the journal"
            ))
        }
    }
    check("trace_digest", &journal.trace_digest, &run.trace_digest)?;
    check("engine", &journal.engine, &run.engine)?;
    check("l1_bytes", &journal.l1_bytes, &run.l1_bytes)?;
    check("warmup", &journal.warmup, &run.warmup)?;
    check("ways", &journal.ways, &run.ways)?;
    check("sizes", &journal.sizes, &run.sizes)?;
    check("cycles", &journal.cycles, &run.cycles)?;
    Ok(())
}

/// Opens the sweep journal: fresh for `--journal`, replayed for
/// `--journal --resume`. A resumed journal must have been written by an
/// identical sweep definition (see [`verify_header`]); its torn tail,
/// if any, is crash debris and is truncated away by
/// [`JournalWriter::resume`]. Returns the writer plus the rows already
/// committed.
fn open_journal(
    path: &Path,
    resume: bool,
    header: &JournalHeader,
) -> Result<(JournalWriter, Vec<GridRow>), Box<dyn std::error::Error>> {
    if !path.exists() {
        if resume {
            eprintln!("journal {} not found; starting fresh", path.display());
        }
        return Ok((JournalWriter::create(path, header)?, Vec::new()));
    }
    if !resume {
        return Err(format!(
            "journal {} already exists; pass --resume to continue it or remove the file",
            path.display()
        )
        .into());
    }
    // Resume validates the whole journal and truncates any torn tail
    // itself before the writer appends anything.
    let (writer, journal) = JournalWriter::resume(path)?;
    if journal.torn_tail {
        eprintln!("warning: dropped torn partial line at the journal tail (crash debris)");
    }
    verify_header(&journal.header, header)?;
    Ok((writer, journal.rows.iter().map(GridRow::from).collect()))
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse(
        "mlc-sweep: L2 design-space exploration over a trace",
        flags(),
        std::env::args(),
    )?;
    let trace_path: PathBuf = args.require("trace")?;
    let sizes: Vec<ByteSize> = parse_size_range(args.get("sizes").unwrap_or("16K:4M"))?
        .into_iter()
        .map(ByteSize::new)
        .collect();
    let cycles = parse_int_range(args.get("cycles").unwrap_or("1:10"))?;
    let ways: u32 = args.get_or("ways", 1)?;
    let l1 = ByteSize::new(mlc_cli::args::parse_size(args.get("l1").unwrap_or("4K"))?);
    let warmup_frac: f64 = args.get_or("warmup-frac", 0.25)?;
    let engine = match args.get("engine") {
        None => SweepEngine::OnePass,
        Some(v) => parse_choice(
            "engine",
            v,
            &[
                ("exhaustive", SweepEngine::Exhaustive),
                ("onepass", SweepEngine::OnePass),
            ],
        )?,
    };

    let journal_path = args.get("journal").map(PathBuf::from);
    let resume = args.has("resume");
    let max_point_failures: u64 = args.get_or("max-point-failures", 0)?;
    if resume && journal_path.is_none() {
        return Err("--resume requires --journal".into());
    }
    if journal_path.is_some() && args.has("cross-check") {
        return Err("--journal cannot be combined with --cross-check".into());
    }

    if args.has("lint") && !lint_sweep(l1, &sizes, &cycles, ways, args.has("deny-warnings")) {
        return Err("sweep configurations failed lint".into());
    }
    let first_config = validate_grid(l1, &sizes, &cycles, ways)?;
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
    manifest.param("l1_bytes", l1.get());
    manifest.param(
        "l2_sizes",
        JsonValue::Array(sizes.iter().map(|s| s.to_string().into()).collect()),
    );
    manifest.param(
        "l2_cycles",
        JsonValue::Array(cycles.iter().map(|&c| c.into()).collect()),
    );
    manifest.param("l2_ways", u64::from(ways));
    manifest.param("warmup_frac", warmup_frac);
    manifest.param("cross_check", args.has("cross-check"));
    manifest.param("max_point_failures", max_point_failures);
    if let Some(p) = &journal_path {
        manifest.param("journal", p.display().to_string());
        manifest.param("resume", resume);
    }
    manifest.param("machine", machine_file::render_machine(&first_config));

    let mut base = BaseMachine::new();
    base.l1_total(l1);
    let explorer = Explorer::new(&trace, warmup).with_metrics(&obs.metrics);
    let points = (sizes.len() * cycles.len()) as u64;
    let (grid, failures) = if args.has("cross-check") {
        let progress = obs.progress("exhaustive", points);
        let exhaustive = explorer.with_progress(&progress).l2_grid_with(
            SweepEngine::Exhaustive,
            &base,
            &sizes,
            &cycles,
            ways,
        );
        progress.finish();
        let progress = obs.progress("onepass", points);
        let onepass = explorer.with_progress(&progress).l2_grid_with(
            SweepEngine::OnePass,
            &base,
            &sizes,
            &cycles,
            ways,
        );
        progress.finish();
        verify_grids(&exhaustive, &onepass)
            .map_err(|d| format!("engine cross-check failed: {d}"))?;
        eprintln!(
            "cross-check passed: engines agree cycle-exact on all {} grid points",
            sizes.len() * cycles.len()
        );
        let grid = match engine {
            SweepEngine::Exhaustive => exhaustive,
            SweepEngine::OnePass => onepass,
        };
        (grid, Vec::new())
    } else {
        let header = JournalHeader {
            trace_digest: digest.clone().unwrap_or_default(),
            engine: engine.to_string(),
            l1_bytes: l1.get(),
            warmup: warmup as u64,
            ways: u64::from(ways),
            sizes: sizes.iter().map(|s| s.get()).collect(),
            cycles: cycles.clone(),
            trace_id: None,
        };
        let (mut journal, completed) = match &journal_path {
            Some(p) => {
                let (writer, rows) = open_journal(p, resume, &header)?;
                (Some(writer), rows)
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
        let todo = sizes.len() - completed.len();
        let progress = obs.progress(&engine.to_string(), (todo * cycles.len()) as u64);
        let run = explorer.with_progress(&progress).l2_grid_checkpointed(
            engine,
            &base,
            &sizes,
            &cycles,
            ways,
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
        (run.grid, run.failures)
    };

    if !failures.is_empty() {
        eprintln!("{} of {} grid rows failed:", failures.len(), sizes.len());
        for f in &failures {
            eprintln!("  L2 {} (row {}): {}", sizes[f.index], f.index, f.message);
        }
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
