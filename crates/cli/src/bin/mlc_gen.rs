//! `mlc-gen` — generate synthetic multiprogramming traces.
//!
//! ```text
//! mlc-gen --preset vms1 --records 1000000 --seed 42 --out trace.din
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use mlc_cli::args::{Args, Flag};
use mlc_trace::synth::{workload::Preset, MultiProgramGenerator};
use mlc_trace::{write_trace_file, TraceStats};

fn flags() -> Vec<Flag> {
    vec![
        Flag {
            name: "preset",
            value: "NAME",
            help: "workload preset: vms1..vms3, ultrix, mips1..mips4 (default vms1)",
        },
        Flag {
            name: "records",
            value: "N",
            help: "number of references to generate (default 1000000)",
        },
        Flag {
            name: "seed",
            value: "S",
            help: "RNG seed (default 42)",
        },
        Flag {
            name: "out",
            value: "PATH",
            help: "output file; .din = Dinero text, .mlcz = compressed binary, else fixed binary",
        },
        Flag {
            name: "stats",
            value: "BOOL",
            help: "print trace statistics (default true)",
        },
    ]
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse(
        "mlc-gen: generate synthetic multiprogramming reference traces",
        flags(),
        std::env::args(),
    )?;
    let preset_name = args.get("preset").unwrap_or("vms1").to_string();
    let preset = Preset::from_name(&preset_name)
        .ok_or_else(|| format!("unknown preset {preset_name:?} (try vms1, mips1, ...)"))?;
    let records: usize = args.get_or("records", 1_000_000)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let out: PathBuf = args.require("out")?;
    let stats: bool = args.get_or("stats", true)?;

    eprintln!("generating {records} references of {preset_name} (seed {seed}) …");
    let mut generator = MultiProgramGenerator::new(preset.config(seed))
        .map_err(|e| format!("invalid preset configuration: {e}"))?;
    let trace = generator.generate_records(records);
    write_trace_file(&out, &trace)?;
    eprintln!("wrote {}", out.display());

    if stats {
        let s = TraceStats::from_records(trace.iter().copied(), 16)?;
        println!(
            "records {}  ifetch {}  loads {}  stores {}",
            s.total(),
            s.ifetches,
            s.reads,
            s.writes
        );
        println!(
            "data refs per ifetch {:.3}  read fraction of data {:.3}  footprint {:.1} KB",
            s.data_per_ifetch().unwrap_or(f64::NAN),
            s.read_fraction_of_data().unwrap_or(f64::NAN),
            s.footprint_bytes() as f64 / 1024.0
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mlc-gen: {e}");
            ExitCode::FAILURE
        }
    }
}
