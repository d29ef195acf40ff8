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
//! and the shared observability plumbing ([`obs`]: `--progress`,
//! `--metrics-out`, `--manifest-out`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod args;
pub mod lint;
pub mod machine_file;
pub mod obs;

use std::fs::File;
use std::io::{self, BufReader, Write};
use std::path::{Path, PathBuf};

use mlc_core::{DesignGrid, Table};
use mlc_trace::{binary, din, slice, FaultPolicy, IngestReport, TraceError, TraceRecord};

use crate::args::{Args, Flag};

/// Reads a trace file, dispatching on extension: `.din` is parsed as
/// Dinero text; anything else as the `mlc` binary format (both the
/// fixed-width and the delta-compressed layout are handled).
///
/// # Errors
///
/// Returns a [`TraceError`] on I/O or parse failure.
pub fn read_trace_file(path: &Path) -> Result<Vec<TraceRecord>, TraceError> {
    if path.extension().is_some_and(|e| e == "din") {
        let file = File::open(path)?;
        din::read_din(BufReader::new(file))
    } else {
        // Binary traces go through the zero-copy slice decoder: one
        // read into memory, then straight slice decode (no per-record
        // reader round trips).
        let bytes = std::fs::read(path)?;
        slice::read_binary_slice(&bytes)
    }
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

/// The quarantine sidecar path for `trace`: `<trace>.quarantine`.
pub fn quarantine_path(trace: &Path) -> PathBuf {
    let mut os = trace.as_os_str().to_os_string();
    os.push(".quarantine");
    PathBuf::from(os)
}

/// A writer that creates a *process-unique temp file* on first write,
/// so clean reads leave no sidecar behind and — crucially — two jobs
/// concurrently ingesting the same trace never interleave their
/// quarantine lines in one file. The finished temp file is atomically
/// renamed onto the real sidecar path by [`LazyFile::publish`]; the
/// last writer wins whole, which is always a complete, self-consistent
/// sidecar.
#[derive(Debug)]
struct LazyFile {
    /// The final sidecar path the temp file is renamed onto.
    path: PathBuf,
    /// The unique in-progress path (`<sidecar>.<pid>-<n>.tmp`).
    tmp: PathBuf,
    file: Option<File>,
}

impl LazyFile {
    fn new(path: PathBuf) -> LazyFile {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let mut os = path.as_os_str().to_os_string();
        os.push(format!(
            ".{}-{}.tmp",
            std::process::id(),
            NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        LazyFile {
            path,
            tmp: PathBuf::from(os),
            file: None,
        }
    }

    /// If anything was quarantined, atomically moves the temp file onto
    /// the sidecar path and returns that path; otherwise removes any
    /// stale sidecar from a previous run and returns `None`.
    fn publish(self) -> io::Result<Option<PathBuf>> {
        if self.file.is_some() {
            std::fs::rename(&self.tmp, &self.path)?;
            Ok(Some(self.path))
        } else {
            let _ = std::fs::remove_file(&self.path);
            Ok(None)
        }
    }
}

impl Write for LazyFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.file.is_none() {
            self.file = Some(File::create(&self.tmp)?);
        }
        // Invariant: populated just above when absent.
        self.file
            .as_mut()
            .expect("file created on first write")
            .write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        match &mut self.file {
            Some(f) => f.flush(),
            None => Ok(()),
        }
    }
}

/// [`read_trace_file`] under a [`FaultPolicy`]: with
/// [`FaultPolicy::Skip`], malformed records are written to a
/// `<trace>.quarantine` sidecar (created lazily, only when something is
/// actually quarantined) and skipped. A stale sidecar from a previous
/// run is removed when this read quarantines nothing. Returns the
/// records, the ingest report, and the sidecar path when one was
/// written.
///
/// # Errors
///
/// Returns a [`TraceError`] on I/O failure, on parse failure under
/// [`FaultPolicy::Fail`], or ([`TraceError::FaultBudget`]) once more
/// than the `Skip` budget has been quarantined.
pub fn read_trace_file_with(
    path: &Path,
    policy: FaultPolicy,
) -> Result<(Vec<TraceRecord>, IngestReport, Option<PathBuf>), TraceError> {
    if policy == FaultPolicy::Fail {
        return read_trace_file(path).map(|records| (records, IngestReport::default(), None));
    }
    let mut sidecar = LazyFile::new(quarantine_path(path));
    let result = if path.extension().is_some_and(|e| e == "din") {
        let file = File::open(path)?;
        din::read_din_with(BufReader::new(file), policy, Some(&mut sidecar))
    } else {
        let bytes = std::fs::read(path)?;
        slice::read_binary_slice_with(&bytes, policy, Some(&mut sidecar))
    };
    // Publish even when the read failed (e.g. the fault budget was
    // exceeded): the partial sidecar is exactly the debugging evidence
    // the error message points at.
    let written = sidecar.publish().map_err(TraceError::Io)?;
    let (records, report) = result?;
    Ok((records, report, written))
}

/// The warning a degraded read prints, or `None` when nothing was
/// quarantined: the count, whether the input was truncated, the
/// sidecar to look in, and the submission's trace id when a daemon
/// ingested the trace on a client's behalf.
pub fn ingest_warning(
    report: &IngestReport,
    sidecar: Option<&Path>,
    trace_id: Option<&str>,
) -> Option<String> {
    if report.quarantined == 0 {
        return None;
    }
    let mut warning = format!(
        "warning: quarantined {} malformed trace record(s)",
        report.quarantined
    );
    if report.truncated {
        warning.push_str(" (input truncated)");
    }
    if let Some(p) = sidecar {
        warning.push_str(&format!("; see {}", p.display()));
    }
    if let Some(id) = trace_id {
        warning.push_str(&format!(" [trace_id {id}]"));
    }
    Some(warning)
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

/// Writes a trace file, dispatching on extension: `.din` writes Dinero
/// text, `.mlcz` the delta-compressed binary layout, anything else the
/// fixed-width binary layout.
///
/// # Errors
///
/// Returns a [`TraceError`] on I/O failure.
pub fn write_trace_file(path: &Path, records: &[TraceRecord]) -> Result<(), TraceError> {
    let file = File::create(path)?;
    if path.extension().is_some_and(|e| e == "din") {
        din::write_din(file, records.iter().copied())
    } else if path.extension().is_some_and(|e| e == "mlcz") {
        binary::write_compressed(file, records)
    } else {
        binary::write_binary(file, records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_file_round_trips_both_formats() {
        let dir = std::env::temp_dir().join("mlc_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let records = vec![
            TraceRecord::ifetch(0x4),
            TraceRecord::read(0x1a40),
            TraceRecord::write(0x1a44),
        ];
        for name in ["t.din", "t.mlct", "t.mlcz"] {
            let path = dir.join(name);
            write_trace_file(&path, &records).unwrap();
            assert_eq!(read_trace_file(&path).unwrap(), records, "{name}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ingest_warning_forms() {
        let clean = IngestReport::default();
        assert_eq!(ingest_warning(&clean, None, None), None);
        let report = IngestReport {
            quarantined: 2,
            truncated: false,
        };
        assert_eq!(
            ingest_warning(&report, None, None).unwrap(),
            "warning: quarantined 2 malformed trace record(s)"
        );
        let report = IngestReport {
            quarantined: 3,
            truncated: true,
        };
        assert_eq!(
            ingest_warning(&report, Some(Path::new("t.din.quarantine")), Some("job-7")).unwrap(),
            "warning: quarantined 3 malformed trace record(s) (input truncated); \
             see t.din.quarantine [trace_id job-7]"
        );
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_trace_file(Path::new("/nonexistent/trace.din")).unwrap_err();
        assert!(matches!(err, TraceError::Io(_)));
    }

    #[test]
    fn degraded_read_writes_then_clears_sidecar() {
        let dir = std::env::temp_dir().join("mlc_cli_quarantine_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.din");
        std::fs::write(&path, "2 4\nnot a record\n0 8\n").unwrap();

        let policy = FaultPolicy::Skip { budget: 4 };
        let (records, report, sidecar) = read_trace_file_with(&path, policy).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(report.quarantined, 1);
        let sidecar = sidecar.expect("one record was quarantined");
        assert_eq!(sidecar, quarantine_path(&path));
        assert!(std::fs::read_to_string(&sidecar)
            .unwrap()
            .contains("not a record"));

        // A clean re-read removes the now-stale sidecar.
        std::fs::write(&path, "2 4\n0 8\n").unwrap();
        let (_, report, none) = read_trace_file_with(&path, policy).unwrap();
        assert_eq!(report.quarantined, 0);
        assert!(none.is_none());
        assert!(!sidecar.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_degraded_reads_do_not_interleave_sidecars() {
        // The daemon ingests the same trace from several jobs at once.
        // Each read quarantines to its own temp file and atomically
        // renames it over the sidecar path, so the survivor must be one
        // complete sidecar — never an interleaving of several writers.
        let dir = std::env::temp_dir().join("mlc_cli_quarantine_race_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.din");
        std::fs::write(&path, "2 4\nbad line one\nbad line two\n0 8\n").unwrap();
        let policy = FaultPolicy::Skip { budget: 8 };

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let path: &Path = &path;
                    scope.spawn(move || read_trace_file_with(path, policy).unwrap())
                })
                .collect();
            for h in handles {
                let (records, report, sidecar) = h.join().unwrap();
                assert_eq!(records.len(), 2);
                assert_eq!(report.quarantined, 2);
                assert_eq!(sidecar, Some(quarantine_path(&path)));
            }
        });

        let body = std::fs::read_to_string(quarantine_path(&path)).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2, "interleaved sidecar: {body:?}");
        assert!(lines[0].contains("bad line one"), "{body:?}");
        assert!(lines[1].contains("bad line two"), "{body:?}");
        // No temp debris left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fail_policy_leaves_no_sidecar() {
        let dir = std::env::temp_dir().join("mlc_cli_quarantine_fail_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.din");
        std::fs::write(&path, "garbage\n").unwrap();
        assert!(read_trace_file_with(&path, FaultPolicy::Fail).is_err());
        assert!(!quarantine_path(&path).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
