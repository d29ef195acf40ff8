//! `mlc-analyze` — workload characterisation for a trace file: reference
//! mix, one-pass LRU miss-ratio curve, and 3C miss classification.
//!
//! ```text
//! mlc-analyze --trace trace.din --block 32 --sizes 4K:4M
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use mlc_cache::{ByteSize, CacheConfig};
use mlc_cli::args::{parse_size, parse_size_range, Args, Flag};
use mlc_cli::obs::{obs_flags, Observability};
use mlc_core::{classify_misses, AttributionReport, PowerLawMissModel, Table};
use mlc_obs::json::JsonValue;
use mlc_obs::RunManifest;
use mlc_trace::stackdist::lru_stack_distances;
use mlc_trace::TraceStats;

fn flags() -> Vec<Flag> {
    let mut flags = vec![
        Flag {
            name: "trace",
            value: "PATH",
            help: "input trace (.din or mlc binary)",
        },
        Flag {
            name: "block",
            value: "BYTES",
            help: "block granularity for the analysis (default 32)",
        },
        Flag {
            name: "sizes",
            value: "LO:HI",
            help: "cache size ladder for the curves (default 4K:4M)",
        },
        Flag {
            name: "three-c",
            value: "BOOL",
            help: "include the direct-mapped 3C decomposition (default true)",
        },
        Flag {
            name: "attribution",
            value: "",
            help: "simulate the trace and print the cycle ledger vs Equation 1 cross-check",
        },
        Flag {
            name: "machine",
            value: "PATH",
            help:
                "machine description for --attribution/--bounds (default: the paper's base machine)",
        },
        Flag {
            name: "bounds",
            value: "",
            help: "print guaranteed per-level miss bounds from static must/may analysis",
        },
        mlc_cli::trace_faults_flag(),
    ];
    flags.extend(obs_flags());
    flags
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse(
        "mlc-analyze: workload characterisation (mix, LRU curve, 3C)",
        flags(),
        std::env::args(),
    )?;
    let trace_path: PathBuf = args.require("trace")?;
    let block = parse_size(args.get("block").unwrap_or("32"))?;
    let sizes = parse_size_range(args.get("sizes").unwrap_or("4K:4M"))?;

    let obs = Observability::from_args(&args)?;

    let mut manifest = RunManifest::new("mlc-analyze", env!("CARGO_PKG_VERSION"));
    manifest.command(std::env::args().skip(1));
    eprintln!("reading {} …", trace_path.display());
    let records =
        mlc_cli::ingest_trace(&args, &trace_path, 0.0, false, &obs, &mut manifest)?.records;
    if records.is_empty() {
        return Err("trace is empty".into());
    }
    manifest.param("block_bytes", block);
    manifest.param(
        "sizes",
        JsonValue::Array(
            sizes
                .iter()
                .map(|&s| ByteSize::new(s).to_string().into())
                .collect(),
        ),
    );

    let timer = obs.metrics.time_phase("stats");
    let stats = TraceStats::from_records(records.iter().copied(), block)?;
    timer.stop();
    println!(
        "references {}  (ifetch {}, loads {}, stores {})",
        stats.total(),
        stats.ifetches,
        stats.reads,
        stats.writes
    );
    println!(
        "data refs per ifetch {:.3}  reads among data {:.3}  footprint {:.1} KB @{}B blocks",
        stats.data_per_ifetch().unwrap_or(f64::NAN),
        stats.read_fraction_of_data().unwrap_or(f64::NAN),
        stats.footprint_bytes() as f64 / 1024.0,
        block
    );

    eprintln!("computing stack distances …");
    let timer = obs.metrics.time_phase("stack_distances");
    let hist = lru_stack_distances(records.iter().copied(), block);
    timer.stop();
    println!(
        "cold misses {} ({:.2}% of references); mean reuse distance {:.1} blocks\n",
        hist.cold_misses(),
        100.0 * hist.cold_misses() as f64 / hist.total() as f64,
        hist.mean_distance().unwrap_or(f64::NAN)
    );

    let include_3c: bool = args.get_or("three-c", true)?;
    manifest.param("three_c", include_3c);
    let progress = obs.progress("analyze", sizes.len() as u64);
    let curve_timer = obs.metrics.time_phase("curve");
    let mut table = Table::new(
        "fully-associative LRU miss-ratio curve (one-pass)",
        if include_3c {
            &[
                "size",
                "FA-LRU miss",
                "DM miss",
                "compulsory",
                "capacity",
                "conflict",
            ][..]
        } else {
            &["size", "FA-LRU miss"][..]
        },
    );
    let mut points = Vec::new();
    for &size in &sizes {
        let fa = hist.miss_ratio_at(size / block);
        points.push((size as f64, fa));
        if include_3c {
            let config = CacheConfig::builder()
                .total(ByteSize::new(size))
                .block_bytes(block)
                .build()?;
            let c = classify_misses(config, &records);
            table.row([
                ByteSize::new(size).to_string(),
                format!("{fa:.4}"),
                format!("{:.4}", c.miss_ratio()),
                format!("{}", c.compulsory),
                format!("{}", c.capacity),
                format!("{}", c.conflict),
            ]);
        } else {
            table.row([ByteSize::new(size).to_string(), format!("{fa:.4}")]);
        }
        progress.tick(1);
    }
    curve_timer.stop();
    progress.finish();
    println!("{table}");

    if let Some(fit) = PowerLawMissModel::fit_declining(&points, 0.10) {
        println!(
            "power-law fit over the declining region: theta {:.3}, x{:.2} per size doubling",
            fit.theta(),
            fit.doubling_factor()
        );
    }
    if args.has("attribution") {
        let config = match args.get("machine") {
            Some(path) => mlc_cli::machine_file::parse_machine(&std::fs::read_to_string(path)?)?,
            None => mlc_sim::machine::base_machine(),
        };
        manifest.param("attribution_depth", config.depth() as u64);
        let warmup = records.len() / 4;
        eprintln!(
            "simulating {} references ({} warmup) for the attribution cross-check …",
            records.len(),
            warmup
        );
        let run = mlc_sim::simulate_with_warmup_attributed(
            config.clone(),
            &records,
            warmup,
            &obs.metrics,
            None,
        )?;
        let report = AttributionReport::from_run(&config, &run.result, &run.ledger);
        println!("{}", report.table());
        match report.total_relative_error() {
            Some(err) => println!(
                "Equation 1 total off by {:+.1}% (refresh and overlap are unmodelled)",
                100.0 * err
            ),
            None => println!("Equation 1 does not apply (machine is not two-level)"),
        }
    }
    if args.has("bounds") {
        let config = match args.get("machine") {
            Some(path) => mlc_cli::machine_file::parse_machine(&std::fs::read_to_string(path)?)?,
            None => mlc_sim::machine::base_machine(),
        };
        let timer = obs.metrics.time_phase("bounds");
        let bounds = mlc_wcet::analyze(&config, &records)?;
        timer.stop();
        manifest.param("bounds_depth", config.depth() as u64);
        println!("{}", bounds.table());
        println!(
            "read-path cycles in [{}, {}]",
            bounds.read_cycles_lo, bounds.read_cycles_hi
        );
        if args.has("attribution") {
            // Cross Equation 1 against the static bounds using a cold
            // simulation (the warmed attribution run would start below
            // the guaranteed cold-fill floor).
            let result = mlc_sim::simulate(config.clone(), records.iter().copied())?;
            let pairs: Vec<(u64, u64)> = bounds.levels.iter().map(|b| (b.lo, b.hi)).collect();
            match mlc_core::bounds_vs_eq1(&config, &result, &pairs) {
                Some(rows) => println!("{}", mlc_core::bounds_vs_eq1_table(&rows)),
                None => println!("bounds-vs-Equation-1 does not apply (machine is not two-level)"),
            }
        }
    }
    obs.metrics.add("analyze.references", stats.total());
    obs.metrics.add("analyze.cold_misses", hist.cold_misses());
    obs.finish(&mut manifest)?;
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mlc-analyze: {e}");
            ExitCode::FAILURE
        }
    }
}
