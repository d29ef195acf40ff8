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
//! `--metrics-out`, `--manifest-out`), the sweep-grid flags `mlc-sweep`
//! and `mlc-client submit` share ([`grid_flags`], [`parse_grid`]), and
//! the one ingest step every trace-reading binary runs
//! ([`ingest_trace`], over [`mlc_trace::read_trace_file`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod args;
pub mod lint;
pub mod machine_file;
pub mod obs;

use std::error::Error;
use std::io;
use std::path::Path;

use mlc_cache::ByteSize;
use mlc_core::{warmup_records, DesignGrid, GridSpec, SweepEngine, Table};
use mlc_obs::{digest_records_hex, RunManifest};
use mlc_trace::{FaultPolicy, TraceRecord};

use crate::args::{parse_int_range, parse_size, parse_size_range, ArgError, Args, Flag};
use crate::obs::Observability;

/// A grid flag paired with its default; the help text quotes the same
/// literal, so the two cannot drift apart.
macro_rules! grid_flag {
    ($name:literal, $value:literal, $help:literal, $default:literal) => {
        (
            Flag {
                name: $name,
                value: $value,
                help: concat!($help, " (default ", $default, ")"),
            },
            $default,
        )
    };
}

/// The flags that define a sweep job, with their defaults.
const GRID_FLAGS: [(Flag, &str); 6] = [
    grid_flag!("sizes", "LO:HI", "L2 size range, powers of two", "16K:4M"),
    grid_flag!(
        "cycles",
        "LO:HI",
        "L2 cycle-time range in CPU cycles",
        "1:10"
    ),
    grid_flag!("ways", "W", "L2 associativity", "1"),
    grid_flag!("l1", "SIZE", "combined split-L1 size", "4K"),
    grid_flag!(
        "warmup-frac",
        "F",
        "fraction of the trace excluded from statistics",
        "0.25"
    ),
    grid_flag!(
        "engine",
        "NAME",
        "grid engine: onepass (one simulation per size) or exhaustive",
        "onepass"
    ),
];

/// The sweep-grid flags (`--sizes`, `--cycles`, `--ways`, `--l1`,
/// `--warmup-frac`, `--engine`) of `mlc-sweep` and `mlc-client submit`.
pub fn grid_flags() -> impl Iterator<Item = Flag> {
    GRID_FLAGS.into_iter().map(|(flag, _)| flag)
}

/// Parses the [`grid_flags`] into a validated sweep job and its warm-up
/// fraction; absent flags take their defaults.
///
/// # Errors
///
/// A malformed value, an unknown engine (`SweepEngine::from_str`'s
/// message), or the [`GridSpec::new`] error for an invalid grid.
pub fn parse_grid(args: &Args) -> Result<(GridSpec, f64), Box<dyn Error>> {
    let arg = |name: &str| -> &str {
        args.get(name).unwrap_or_else(|| {
            GRID_FLAGS
                .iter()
                .find(|(flag, _)| flag.name == name)
                .map(|&(_, default)| default)
                .expect("a grid flag")
        })
    };
    let invalid = |name: &str| ArgError(format!("invalid value {:?} for --{name}", arg(name)));
    let sizes = parse_size_range(arg("sizes"))?
        .into_iter()
        .map(ByteSize::new)
        .collect();
    let cycles = parse_int_range(arg("cycles"))?;
    let ways: u32 = arg("ways").parse().map_err(|_| invalid("ways"))?;
    let l1 = ByteSize::new(parse_size(arg("l1"))?);
    let warmup_frac: f64 = arg("warmup-frac")
        .parse()
        .map_err(|_| invalid("warmup-frac"))?;
    let engine: SweepEngine = arg("engine").parse()?;
    Ok((GridSpec::new(engine, l1, sizes, cycles, ways)?, warmup_frac))
}

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
    /// Leading records that warm the caches up
    /// ([`warmup_records`] of `warmup_frac`).
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
    let warmup = warmup_records(records.len(), warmup_frac);
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

#[cfg(test)]
mod tests {
    use super::*;
    use mlc_core::size_ladder;

    fn parse(tokens: &[&str]) -> Result<(GridSpec, f64), Box<dyn Error>> {
        let argv = std::iter::once("prog".to_owned()).chain(tokens.iter().map(|t| t.to_string()));
        parse_grid(&Args::parse("test", grid_flags().collect(), argv)?)
    }

    #[test]
    fn grid_flags_default_to_the_paper_grid() {
        let (job, warmup_frac) = parse(&[]).unwrap();
        let sizes = size_ladder(ByteSize::kib(16), ByteSize::mib(4));
        let cycles: Vec<u64> = (1..=10).collect();
        let paper = GridSpec::new(SweepEngine::OnePass, ByteSize::kib(4), sizes, cycles, 1);
        assert_eq!(job, paper.unwrap());
        assert_eq!(warmup_frac, 0.25);
        let usage = Args::parse("test", grid_flags().collect(), ["prog".to_owned()])
            .unwrap()
            .usage();
        assert!(usage.contains("--sizes <LO:HI>  L2 size range, powers of two (default 16K:4M)"));
    }

    #[test]
    fn grid_flags_reject_bad_values() {
        let (job, _) = parse(&["--engine", "exhaustive", "--sizes", "64K"]).unwrap();
        assert_eq!(job.engine(), SweepEngine::Exhaustive);
        let err = |tokens: &[&str]| parse(tokens).unwrap_err().to_string();
        assert_eq!(
            err(&["--engine", "fast"]),
            "unknown engine 'fast' (choices: exhaustive, onepass)"
        );
        assert_eq!(err(&["--ways", "x"]), "invalid value \"x\" for --ways");
        assert!(err(&["--cycles", "3:1"]).contains("LO > HI"));
        assert!(err(&["--ways", "0"]).starts_with("invalid grid point"));
    }
}
