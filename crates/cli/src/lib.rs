//! Command-line tooling for the `mlc` workspace.
//!
//! The binaries mirror the workflow of the paper's simulation
//! environment (§2):
//!
//! * `mlc-gen` — generate synthetic multiprogramming traces to `.din` or
//!   binary files;
//! * `mlc-run` — simulate a trace against a machine description file
//!   (the paper's "file that specifies the depth of the cache hierarchy
//!   and the configuration of each cache");
//! * `mlc-sweep` — sweep the L2 design space over a trace and emit the
//!   execution-time grid as CSV;
//! * `mlc-lint` — statically check machine description files against the
//!   paper's hierarchy assumptions (see `mlc-check`).
//!
//! The library part hosts the argument parser ([`args`]), the machine
//! description format ([`machine_file`]), the lint driver ([`lint`]),
//! the shared observability plumbing ([`obs`]: `--progress`,
//! `--metrics-out`, `--manifest-out`), and the one ingest step every
//! trace-reading binary runs ([`ingest_trace`], over
//! [`mlc_trace::read_trace_file`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod args;
pub mod lint;
pub mod machine_file;
pub mod obs;

use std::error::Error;
use std::io;
use std::path::Path;

use mlc_core::{DesignGrid, Table};
use mlc_obs::{digest_records_hex, RunManifest};
use mlc_trace::{FaultPolicy, TraceRecord};

use crate::args::{Args, Flag};
use crate::obs::Observability;

/// The `--trace-faults` flag shared by every trace-reading binary.
pub fn trace_faults_flag() -> Flag {
    Flag {
        name: "trace-faults",
        value: "POLICY",
        help: "malformed trace records: fail (default) or skip:N \
               (quarantine up to N records to <trace>.quarantine)",
    }
}

/// Resolves `--trace-faults` from parsed arguments (default: `fail`).
///
/// # Errors
///
/// Returns a description of the accepted forms for an invalid value.
pub fn parse_trace_faults(args: &Args) -> Result<FaultPolicy, String> {
    match args.get("trace-faults") {
        None => Ok(FaultPolicy::Fail),
        Some(v) => FaultPolicy::parse(v),
    }
}

/// A trace read by [`ingest_trace`].
#[derive(Debug)]
pub struct IngestedTrace {
    /// The decoded records; quarantined ones are dropped.
    pub records: Vec<TraceRecord>,
    /// Leading records that warm the caches up: `warmup_frac` of the
    /// trace, clamped to at most 95%.
    pub warmup: usize,
    /// The records' content digest, when one was computed.
    pub digest: Option<String>,
}

/// The ingest step of every trace-reading binary. Reads `path` under
/// `--trace-faults` in the timed `read_trace` phase, prints the
/// quarantine warning and counts `trace.quarantined`. Digests the
/// records in the timed `digest_trace` phase when metrics are enabled
/// or `need_digest` asks (`mlc-sweep --journal`), and records the
/// manifest's `trace` (metrics only), `trace_faults` and
/// `trace_quarantined` fields.
///
/// # Errors
///
/// Returns an invalid `--trace-faults` value or the read's
/// [`TraceError`](mlc_trace::TraceError).
pub fn ingest_trace(
    args: &Args,
    path: &Path,
    warmup_frac: f64,
    need_digest: bool,
    obs: &Observability,
    manifest: &mut RunManifest,
) -> Result<IngestedTrace, Box<dyn Error>> {
    let policy = parse_trace_faults(args)?;
    let timer = obs.metrics.time_phase("read_trace");
    let (records, ingest, sidecar) = mlc_trace::read_trace_file(path, policy)?;
    timer.stop();
    if let Some(warning) = mlc_trace::ingest_warning(&ingest, sidecar.as_deref(), None) {
        eprintln!("{warning}");
    }
    obs.metrics.add("trace.quarantined", ingest.quarantined);
    let warmup = (records.len() as f64 * warmup_frac.clamp(0.0, 0.95)) as usize;
    let digest = (need_digest || obs.metrics.is_enabled()).then(|| {
        let timer = obs.metrics.time_phase("digest_trace");
        let digest = digest_records_hex(&records);
        timer.stop();
        digest
    });
    if obs.metrics.is_enabled() {
        manifest.trace(
            &path.display().to_string(),
            records.len() as u64,
            warmup as u64,
            digest.as_deref().expect("metrics enabled implies a digest"),
        );
    }
    manifest.param(
        "trace_faults",
        args.get("trace-faults").unwrap_or("fail").to_string(),
    );
    manifest.param("trace_quarantined", ingest.quarantined);
    Ok(IngestedTrace {
        records,
        warmup,
        digest,
    })
}

/// Writes an execution-time grid to `out` as CSV — one row per L2
/// cycle time, one column per L2 size, `FAILED` for a failed point —
/// and notes the path on stderr. `mlc-sweep --out` and `mlc-client
/// --out` both write through here, so their files are byte-identical.
///
/// # Errors
///
/// Returns any I/O error from creating or writing the file.
pub fn write_grid_csv(grid: &DesignGrid, out: &str) -> io::Result<()> {
    let mut headers: Vec<String> = vec!["t_L2 \\ size".into()];
    headers.extend(grid.sizes.iter().map(|s| s.to_string()));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut csv = Table::new("grid", &header_refs);
    for (j, &c) in grid.cycles.iter().enumerate() {
        let mut row = vec![format!("{c}")];
        row.extend((0..grid.sizes.len()).map(|i| {
            if grid.total[i][j] == DesignGrid::FAILED {
                "FAILED".to_string()
            } else {
                grid.total[i][j].to_string()
            }
        }));
        csv.row(row);
    }
    csv.write_csv(out)?;
    eprintln!("wrote {out}");
    Ok(())
}
