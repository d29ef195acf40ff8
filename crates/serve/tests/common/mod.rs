//! Fixtures shared by the `mlc-serve` integration tests.
#![allow(dead_code)] // each test binary uses its own subset

use std::path::{Path, PathBuf};

use mlc_serve::SubmitRequest;
use mlc_trace::synth::{workload::Preset, MultiProgramGenerator};
use mlc_trace::TraceRecord;

/// A fresh, empty scratch directory. The prefix names the test binary,
/// so binaries running in parallel never share a directory.
pub fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlc_serve_{}_{tag}", env!("CARGO_CRATE_NAME")));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `n` synthetic Mips2 records, the same for every call.
pub fn trace_records(n: usize) -> Vec<TraceRecord> {
    MultiProgramGenerator::new(Preset::Mips2.config(7))
        .expect("valid preset")
        .generate_records(n)
}

/// Writes `n` synthetic Mips2 records to `dir/trace.din`.
pub fn write_trace(dir: &Path, n: usize) -> PathBuf {
    let path = dir.join("trace.din");
    let file = std::fs::File::create(&path).unwrap();
    mlc_trace::din::write_din(file, trace_records(n).iter().copied()).unwrap();
    path
}

/// The L2 sizes most tests sweep.
pub const SIZES: &[u64] = &[16384, 32768];

/// A waiting one-pass submission over `sizes` × cycles {1, 4}.
pub fn request(trace: &Path, sizes: &[u64]) -> SubmitRequest {
    SubmitRequest {
        trace: trace.to_path_buf(),
        l1_bytes: 4096,
        ways: 1,
        sizes: sizes.to_vec(),
        cycles: vec![1, 4],
        engine: "onepass".into(),
        warmup_frac: 0.25,
        wait: true,
        deadline_ms: 0,
        trace_id: String::new(),
    }
}
