//! Memory reference traces for cache hierarchy simulation.
//!
//! This crate provides everything the `mlc` workspace needs to *obtain* a
//! stream of memory references:
//!
//! * [`TraceRecord`] / [`AccessKind`] / [`Address`] — the reference model.
//! * [`din`] and [`binary`] — trace file formats (the classic Dinero text
//!   format and a compact binary format).
//! * [`read_trace_file`] / [`write_trace_file`] — the file-level entry
//!   points that pick the format from the extension. Every tool that
//!   reads a trace from disk (the CLI binaries and the `mlc-serve`
//!   daemon alike) goes through [`read_trace_file`] or its sink forms
//!   ([`read_trace_file_into`], and [`decode_trace_bytes`] for bytes
//!   already read), which also own degraded ingestion's
//!   `<trace>.quarantine` sidecar. [`RecordSink`] lets one decoder
//!   pass feed a `Vec`, a streaming digest, or both.
//! * [`synth`] — seeded synthetic workload generators reproducing the
//!   statistical properties of the ISCA 1989 paper's eight
//!   multiprogramming traces (see DESIGN.md §4 for the substitution
//!   argument).
//! * [`TraceStats`] — descriptive statistics for validating workloads.
//! * [`stackdist`] — one-pass Mattson LRU stack-distance analysis, giving
//!   the whole miss-ratio-versus-size curve of a trace at once.
//! * [`fault`] — degraded-mode ingestion ([`FaultPolicy`], quarantine
//!   sidecars, [`IngestReport`]) and a fault-injecting [`Read`](std::io::Read)
//!   adapter ([`FaultInjector`]) for adversarial reader tests.
//!
//! # Examples
//!
//! Generate a small multiprogramming workload and inspect its mix:
//!
//! ```
//! use mlc_trace::synth::{workload::Preset, MultiProgramGenerator};
//! use mlc_trace::TraceStats;
//!
//! let mut gen = MultiProgramGenerator::new(Preset::Vms1.config(42))
//!     .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
//! let records = gen.generate_records(10_000);
//! let stats = TraceStats::from_records(records.iter().copied(), 16)?;
//! assert!(stats.ifetches > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Round-trip a trace through the Dinero text format:
//!
//! ```
//! use mlc_trace::{din, TraceRecord};
//!
//! let trace = vec![TraceRecord::ifetch(0x400), TraceRecord::read(0x1a40)];
//! let mut buf = Vec::new();
//! din::write_din(&mut buf, trace.iter().copied())?;
//! assert_eq!(din::read_din(buf.as_slice())?, trace);
//! # Ok::<(), mlc_trace::TraceError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod binary;
pub mod din;
mod error;
pub mod fault;
mod record;
pub mod slice;
pub mod stackdist;
mod stats;
pub mod synth;

pub use error::TraceError;
pub use fault::{FaultInjector, FaultPlan, FaultPolicy, IngestReport};
pub use record::{AccessKind, Address, RecordSink, TraceRecord};
pub use stats::TraceStats;

use std::fs::File;
use std::io::{self, BufReader, Write};
use std::path::{Path, PathBuf};

/// Whether `path` names a Dinero text trace (`.din`) rather than one of
/// the binary layouts.
fn is_din(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "din")
}

/// Reads a trace file under a [`FaultPolicy`], dispatching on
/// extension: `.din` is parsed as Dinero text; anything else as the
/// `mlc` binary format (both the fixed-width and the delta-compressed
/// layout), through one read into memory and the zero-copy slice
/// decoder.
///
/// With [`FaultPolicy::Skip`], malformed records are written to a
/// `<trace>.quarantine` sidecar ([`quarantine_path`]) and skipped. The
/// sidecar is written to a process-unique temp file and renamed into
/// place, so concurrent reads of one trace never interleave their
/// lines; a stale sidecar from an earlier run is removed when this read
/// quarantines nothing. [`FaultPolicy::Fail`] never touches the
/// sidecar. Returns the records, the ingest report, and the sidecar
/// path when one was written.
///
/// # Errors
///
/// Returns a [`TraceError`] on I/O failure, on parse failure under
/// [`FaultPolicy::Fail`], or ([`TraceError::FaultBudget`]) once more
/// than the `Skip` budget has been quarantined.
pub fn read_trace_file(
    path: &Path,
    policy: FaultPolicy,
) -> Result<(Vec<TraceRecord>, IngestReport, Option<PathBuf>), TraceError> {
    let mut records = Vec::new();
    let (report, sidecar) = read_trace_file_into(path, policy, &mut records)?;
    Ok((records, report, sidecar))
}

/// [`read_trace_file`] with the records handed to a [`RecordSink`]
/// instead of collected, so one pass over the file can feed a digest,
/// a `Vec`, or both (a pair of sinks). A `.din` file is streamed
/// through a buffered reader; a binary one is read into memory once.
/// Returns the ingest report and the sidecar path when one was written.
///
/// # Errors
///
/// Exactly those of [`read_trace_file`].
pub fn read_trace_file_into<S: RecordSink>(
    path: &Path,
    policy: FaultPolicy,
    sink: &mut S,
) -> Result<(IngestReport, Option<PathBuf>), TraceError> {
    quarantined(path, policy, |q| {
        if is_din(path) {
            din::read_din_into(BufReader::new(File::open(path)?), policy, q, sink)
        } else {
            slice::read_binary_slice_into(&std::fs::read(path)?, policy, q, sink)
        }
    })
}

/// Decodes a trace file's bytes, already read into memory, into a
/// [`RecordSink`]: the format is picked from `path`'s extension and
/// degraded records go to `path`'s sidecar, both as in
/// [`read_trace_file`]. A caller that must both digest a trace and,
/// only sometimes, keep its records reads the file once and decodes
/// the same bytes twice, so the two passes can never see different
/// contents.
///
/// # Errors
///
/// Exactly those of [`read_trace_file`], less the read itself.
///
/// # Examples
///
/// ```
/// use std::path::Path;
/// use mlc_trace::{decode_trace_bytes, FaultPolicy};
///
/// let mut records = Vec::new();
/// let text = b"2 4\n0 8\n";
/// let (report, sidecar) =
///     decode_trace_bytes(Path::new("t.din"), text, FaultPolicy::Fail, &mut records)?;
/// assert_eq!((records.len(), report.quarantined, sidecar), (2, 0, None));
/// # Ok::<(), mlc_trace::TraceError>(())
/// ```
pub fn decode_trace_bytes<S: RecordSink>(
    path: &Path,
    bytes: &[u8],
    policy: FaultPolicy,
    sink: &mut S,
) -> Result<(IngestReport, Option<PathBuf>), TraceError> {
    quarantined(path, policy, |q| {
        if is_din(path) {
            din::read_din_into(bytes, policy, q, sink)
        } else {
            slice::read_binary_slice_into(bytes, policy, q, sink)
        }
    })
}

/// Runs one decode of `path` under `policy`, giving it the quarantine
/// sidecar when the policy can skip, and publishes the sidecar.
fn quarantined(
    path: &Path,
    policy: FaultPolicy,
    decode: impl FnOnce(Option<&mut dyn Write>) -> Result<IngestReport, TraceError>,
) -> Result<(IngestReport, Option<PathBuf>), TraceError> {
    if policy == FaultPolicy::Fail {
        return decode(None).map(|report| (report, None));
    }
    let mut sidecar = LazyFile::new(quarantine_path(path));
    let result = decode(Some(&mut sidecar));
    // Publish even when the read failed (e.g. the fault budget was
    // exceeded): the partial sidecar is exactly the debugging evidence
    // the error message points at.
    let written = sidecar.publish()?;
    Ok((result?, written))
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
    if is_din(path) {
        din::write_din(file, records.iter().copied())
    } else if path.extension().is_some_and(|e| e == "mlcz") {
        binary::write_compressed(file, records)
    } else {
        binary::write_binary(file, records)
    }
}

/// The quarantine sidecar path for `trace`: `<trace>.quarantine`.
pub fn quarantine_path(trace: &Path) -> PathBuf {
    let mut os = trace.as_os_str().to_os_string();
    os.push(".quarantine");
    PathBuf::from(os)
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

/// A writer that creates a *process-unique temp file* on first write,
/// so clean reads leave no sidecar behind and two jobs concurrently
/// ingesting the same trace never interleave their quarantine lines in
/// one file. The finished temp file is atomically renamed onto the real
/// sidecar path by [`LazyFile::publish`]; the last writer wins whole,
/// which is always a complete, self-consistent sidecar.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_file_round_trips_both_formats() {
        let dir = std::env::temp_dir().join("mlc_trace_file_test");
        std::fs::create_dir_all(&dir).unwrap();
        let records = vec![
            TraceRecord::ifetch(0x4),
            TraceRecord::read(0x1a40),
            TraceRecord::write(0x1a44),
        ];
        for name in ["t.din", "t.mlct", "t.mlcz"] {
            let path = dir.join(name);
            write_trace_file(&path, &records).unwrap();
            let (back, report, sidecar) = read_trace_file(&path, FaultPolicy::Fail).unwrap();
            assert_eq!(back, records, "{name}");
            assert_eq!((report, sidecar), (IngestReport::default(), None), "{name}");
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
        let err =
            read_trace_file(Path::new("/nonexistent/trace.din"), FaultPolicy::Fail).unwrap_err();
        assert!(matches!(err, TraceError::Io(_)));
    }

    #[test]
    fn degraded_read_writes_then_clears_sidecar() {
        let dir = std::env::temp_dir().join("mlc_trace_quarantine_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.din");
        std::fs::write(&path, "2 4\nnot a record\n0 8\n").unwrap();

        let policy = FaultPolicy::Skip { budget: 4 };
        let (records, report, sidecar) = read_trace_file(&path, policy).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(report.quarantined, 1);
        let sidecar = sidecar.expect("one record was quarantined");
        assert_eq!(sidecar, quarantine_path(&path));
        assert!(std::fs::read_to_string(&sidecar)
            .unwrap()
            .contains("not a record"));

        // A clean re-read removes the now-stale sidecar.
        std::fs::write(&path, "2 4\n0 8\n").unwrap();
        let (_, report, none) = read_trace_file(&path, policy).unwrap();
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
        let dir = std::env::temp_dir().join("mlc_trace_quarantine_race_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.din");
        std::fs::write(&path, "2 4\nbad line one\nbad line two\n0 8\n").unwrap();
        let policy = FaultPolicy::Skip { budget: 8 };

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let path: &Path = &path;
                    scope.spawn(move || read_trace_file(path, policy).unwrap())
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
        let dir = std::env::temp_dir().join("mlc_trace_quarantine_fail_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.din");
        std::fs::write(&path, "garbage\n").unwrap();
        assert!(read_trace_file(&path, FaultPolicy::Fail).is_err());
        assert!(!quarantine_path(&path).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
