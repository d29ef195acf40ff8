//! `mlc-bounds` — guaranteed per-level miss bounds from static
//! must/may analysis, with an optional sim-vs-bounds cross-check.
//!
//! ```text
//! mlc-bounds --trace t.din                      # base machine, human table
//! mlc-bounds --trace t.din --machine m.mlc      # a described machine
//! mlc-bounds --trace t.din --format json        # mlc-bounds/1 JSON
//! mlc-bounds --trace t.din --check              # also simulate and verify
//! ```
//!
//! Exit status: 0 on success, 1 when `--check` finds the simulator
//! outside the guaranteed bounds (or on other failures), 2 on usage
//! errors.

use std::path::PathBuf;
use std::process::ExitCode;

use mlc_check::SourceMap;
use mlc_cli::args::{Args, Flag};
use mlc_cli::obs::{obs_flags, Observability};
use mlc_obs::json::JsonValue;
use mlc_obs::RunManifest;
use mlc_wcet::analyze;

fn flags() -> Vec<Flag> {
    let mut flags = vec![
        Flag {
            name: "trace",
            value: "PATH",
            help: "input trace (.din or mlc binary)",
        },
        Flag {
            name: "machine",
            value: "PATH",
            help: "machine description file (default: the paper's base machine)",
        },
        Flag {
            name: "format",
            value: "FMT",
            help: "output format: human (default) or json",
        },
        Flag {
            name: "check",
            value: "",
            help: "cold-simulate the trace and verify misses fall inside the bounds",
        },
        mlc_cli::trace_faults_flag(),
    ];
    flags.extend(obs_flags());
    flags
}

fn run() -> Result<bool, Box<dyn std::error::Error>> {
    let args = Args::parse(
        "mlc-bounds: guaranteed per-level miss bounds via static must/may analysis",
        flags(),
        std::env::args(),
    )?;
    let trace_path: PathBuf = args.require("trace")?;
    let format = args.get("format").unwrap_or("human");
    if format != "human" && format != "json" {
        return Err(format!("unknown format {format:?} (expected human or json)").into());
    }
    let obs = Observability::from_args(&args)?;

    let (config, map) = match args.get("machine") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let (config, map) = mlc_cli::machine_file::parse_machine_with_spans(&text)?;
            (config, map)
        }
        None => (mlc_sim::machine::base_machine(), SourceMap::new()),
    };

    let mut manifest = RunManifest::new("mlc-bounds", env!("CARGO_PKG_VERSION"));
    manifest.command(std::env::args().skip(1));
    eprintln!("reading {} …", trace_path.display());
    let records =
        mlc_cli::ingest_trace(&args, &trace_path, 0.0, false, &obs, &mut manifest)?.records;
    if records.is_empty() {
        return Err("trace is empty".into());
    }
    manifest.param("machine_depth", config.depth() as u64);

    let timer = obs.metrics.time_phase("analyze");
    let report = analyze(&config, &records)?;
    timer.stop();
    obs.metrics
        .add("bounds.trace_records", report.trace_records);

    // Optional oracle: a cold simulation must land inside the bounds.
    let measured = if args.has("check") {
        let timer = obs.metrics.time_phase("simulate");
        let result = mlc_sim::simulate(config.clone(), records.iter().copied())?;
        timer.stop();
        Some(
            result
                .levels
                .iter()
                .map(|l| l.cache.read_misses())
                .collect::<Vec<u64>>(),
        )
    } else {
        None
    };
    let check = measured.as_ref().map(|m| report.check(m, &map));
    let oracle_ok = check.as_ref().is_none_or(|c| !c.has_errors());

    if format == "json" {
        let mut json = report.to_json();
        if let (Some(m), Some(c)) = (&measured, &check) {
            if let JsonValue::Object(fields) = &mut json {
                fields.push((
                    "measured_read_misses".into(),
                    JsonValue::Array(m.iter().map(|&v| v.into()).collect()),
                ));
                fields.push(("oracle_ok".into(), (!c.has_errors()).into()));
            }
        }
        println!("{}", json.to_string_pretty());
    } else {
        println!(
            "trace: {} records ({} reads){}",
            report.trace_records,
            report.read_records,
            if report.writes_widen {
                "; write traffic widens bounds below L1"
            } else {
                ""
            }
        );
        println!("{}", report.table());
        println!(
            "read-path cycles in [{}, {}] (worst-case bound {:.2} ns at {} ns/cycle)",
            report.read_cycles_lo,
            report.read_cycles_hi,
            report.read_cycles_hi as f64 * config.cpu.cycle_ns,
            config.cpu.cycle_ns
        );
        if let (Some(m), Some(c)) = (&measured, &check) {
            println!("cold simulation read misses per level: {m:?}");
            if c.is_clean() {
                println!("oracle: simulated misses fall inside every guaranteed bound");
            } else {
                print!("{}", c.render_human(&trace_path.display().to_string()));
            }
        }
    }
    obs.finish(&mut manifest)?;
    Ok(oracle_ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mlc-bounds: {e}");
            ExitCode::from(2)
        }
    }
}
