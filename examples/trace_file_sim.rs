//! Simulating a trace file: reads a Dinero `.din` or `mlc` binary trace
//! (or generates and round-trips a sample if no path is given) and runs
//! it through the base machine.
//!
//! Run with `cargo run --release --example trace_file_sim [trace.din]`.

use std::fs::File;
use std::io::BufReader;
use std::path::Path;

use mlc::sim::{machine, simulate};
use mlc::trace::synth::{workload::Preset, MultiProgramGenerator};
use mlc::trace::{binary, din, read_trace_file, FaultPolicy, TraceRecord};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace: Vec<TraceRecord> = match std::env::args().nth(1) {
        Some(path) => {
            println!("reading {path} …");
            read_trace_file(Path::new(&path), FaultPolicy::Fail)?.0
        }
        None => {
            // No input: synthesise a sample, round-trip it through both
            // on-disk formats, and simulate the result.
            println!("no trace given; generating a 200k-reference sample");
            let mut generator = MultiProgramGenerator::new(Preset::Ultrix.config(3))?;
            let records = generator.generate_records(200_000);

            let dir = std::env::temp_dir().join("mlc_trace_example");
            std::fs::create_dir_all(&dir)?;
            let din_path = dir.join("sample.din");
            let bin_path = dir.join("sample.mlct");
            din::write_din(File::create(&din_path)?, records.iter().copied())?;
            binary::write_binary(File::create(&bin_path)?, &records)?;
            println!(
                "wrote {} ({} bytes) and {} ({} bytes)",
                din_path.display(),
                std::fs::metadata(&din_path)?.len(),
                bin_path.display(),
                std::fs::metadata(&bin_path)?.len(),
            );

            let from_din = din::read_din(BufReader::new(File::open(&din_path)?))?;
            let from_bin = binary::read_binary(BufReader::new(File::open(&bin_path)?))?;
            assert_eq!(from_din, records, "din round trip must be lossless");
            assert_eq!(from_bin, records, "binary round trip must be lossless");
            from_din
        }
    };

    println!(
        "simulating {} references on the base machine …",
        trace.len()
    );
    let result = simulate(machine::base_machine(), trace)?;
    println!("{result}");
    Ok(())
}
