//! Shared support for the figure-regeneration benches.
//!
//! Every bench target in `benches/` regenerates one table or figure of
//! the ISCA 1989 paper (see DESIGN.md §5 for the experiment index) and
//! writes its data as CSV under `target/mlc-results/`.
//!
//! Environment knobs (all optional):
//!
//! * `MLC_RECORDS` — references per trace (default 8,000,000).
//! * `MLC_WARMUP_FRAC` — fraction of each trace excluded from statistics
//!   as cold-start (default 0.5, as the paper discards its cold-start
//!   region).
//! * `MLC_PRESETS` — comma-separated workload presets to average over
//!   (default `vms1,mips1`; use `all` for all eight paper-trace
//!   stand-ins).
//! * `MLC_SEED` — base RNG seed (default 42).
//! * `MLC_OUT` — output directory for CSVs.

use std::path::PathBuf;

use mlc_core::Table;
use mlc_trace::synth::{workload::Preset, MultiProgramGenerator};
use mlc_trace::TraceRecord;

/// References per generated trace.
pub fn records() -> usize {
    env_parse("MLC_RECORDS", 8_000_000)
}

/// Records excluded from statistics at the head of each trace.
pub fn warmup(records: usize) -> usize {
    mlc_core::warmup_records(records, env_parse("MLC_WARMUP_FRAC", 0.5))
}

/// Base seed for workload generation.
pub fn seed() -> u64 {
    env_parse("MLC_SEED", 42)
}

/// The workload presets this run averages over.
pub fn presets() -> Vec<Preset> {
    let spec = std::env::var("MLC_PRESETS").unwrap_or_else(|_| "vms1,mips1".to_string());
    if spec.trim().eq_ignore_ascii_case("all") {
        return Preset::ALL.to_vec();
    }
    let chosen: Vec<Preset> = spec
        .split(',')
        .filter_map(|name| Preset::from_name(name.trim()))
        .collect();
    if chosen.is_empty() {
        vec![Preset::Vms1, Preset::Mips1]
    } else {
        chosen
    }
}

/// Generates one preset's trace at the configured length.
pub fn gen_trace(preset: Preset, n: usize) -> Vec<TraceRecord> {
    MultiProgramGenerator::new(preset.config(seed()))
        .expect("presets are valid")
        .generate_records(n)
}

/// Where result CSVs are written: `target/mlc-results/` at the
/// *workspace* root (bench binaries run with the package directory as
/// their cwd, so a relative path would land in `crates/bench/`).
pub fn out_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("MLC_OUT") {
        return PathBuf::from(dir);
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/mlc-results")
}

/// Prints a table and saves it as `<name>.csv` in [`out_dir`].
pub fn emit(table: &Table, name: &str) {
    println!("{table}");
    let path = out_dir().join(format!("{name}.csv"));
    match table.write_csv(&path) {
        Ok(()) => println!("[saved {}]\n", path.display()),
        Err(e) => eprintln!("[could not save {}: {e}]\n", path.display()),
    }
}

/// Arithmetic mean; NaN inputs are skipped. Returns NaN for an empty
/// (or all-NaN) slice.
pub fn mean(values: &[f64]) -> f64 {
    let clean: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    if clean.is_empty() {
        f64::NAN
    } else {
        clean.iter().sum::<f64>() / clean.len() as f64
    }
}

/// Geometric mean over positive entries; NaN if none.
pub fn geomean(values: &[f64]) -> f64 {
    let clean: Vec<f64> = values
        .iter()
        .copied()
        .filter(|v| !v.is_nan() && *v > 0.0)
        .collect();
    if clean.is_empty() {
        f64::NAN
    } else {
        (clean.iter().map(|v| v.ln()).sum::<f64>() / clean.len() as f64).exp()
    }
}

/// The standard banner every figure harness prints.
pub fn banner(figure: &str, what: &str) {
    let n = records();
    println!("=== {figure}: {what} ===");
    println!(
        "traces: {} x {} records, warmup {} records, seed {}\n",
        presets()
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join("+"),
        n,
        warmup(n),
        seed()
    );
}

fn env_parse<T: std::str::FromStr + Copy>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_skips_nan() {
        assert_eq!(mean(&[1.0, f64::NAN, 3.0]), 2.0);
        assert!(mean(&[]).is_nan());
        assert!(mean(&[f64::NAN]).is_nan());
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(geomean(&[-1.0]).is_nan());
    }

    #[test]
    fn default_presets_are_two() {
        // Honour the environment if the caller set it; default otherwise.
        if std::env::var("MLC_PRESETS").is_err() {
            assert_eq!(presets().len(), 2);
        }
    }

    #[test]
    fn trace_generation_is_seeded() {
        let a = gen_trace(Preset::Mips2, 1000);
        let b = gen_trace(Preset::Mips2, 1000);
        assert_eq!(a, b);
    }
}

pub mod figures;
