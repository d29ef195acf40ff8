//! Reading and writing the classic Dinero `.din` text trace format.
//!
//! Each line of a `.din` trace is `LABEL ADDRESS`, where `LABEL` is `0` for
//! a data read, `1` for a data write and `2` for an instruction fetch, and
//! `ADDRESS` is a hexadecimal byte address. Blank lines and lines beginning
//! with `#` are ignored (a small, backwards-compatible extension so traces
//! can carry provenance comments).
//!
//! This is the format consumed by Mark Hill's DineroIII/DineroIV simulators
//! and produced by many historical tracing tools, including the trace
//! toolchains the paper's group used.

use std::io::{self, BufRead, BufReader, Read, Write};

use crate::error::TraceError;
use crate::fault::{absorb_fault, FaultPolicy, IngestReport};
use crate::record::{AccessKind, Address, RecordSink, TraceRecord};

/// Parses one `.din` line: `Ok(None)` for blanks and comments,
/// `Ok(Some(record))` for a record, a [`TraceError::ParseDin`] carrying
/// `line_no` otherwise. The one parser behind [`read_din_into`] (and
/// so behind [`read_din_with`] and the strict [`read_din`] too).
fn parse_din_line(line_no: u64, line: &str) -> Result<Option<TraceRecord>, TraceError> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let mut parts = trimmed.split_whitespace();
    let label_str = parts.next().ok_or_else(|| TraceError::ParseDin {
        line: line_no,
        reason: "empty record".into(),
    })?;
    let addr_str = parts.next().ok_or_else(|| TraceError::ParseDin {
        line: line_no,
        reason: "missing address field".into(),
    })?;
    let label: u8 = label_str.parse().map_err(|_| TraceError::ParseDin {
        line: line_no,
        reason: format!("invalid label {label_str:?}"),
    })?;
    let kind = AccessKind::from_din_label(label).ok_or_else(|| TraceError::ParseDin {
        line: line_no,
        reason: format!("unsupported label {label}"),
    })?;
    let addr = u64::from_str_radix(addr_str, 16).map_err(|_| TraceError::ParseDin {
        line: line_no,
        reason: format!("invalid hex address {addr_str:?}"),
    })?;
    Ok(Some(TraceRecord::new(kind, Address::new(addr))))
}

/// Writes a trace to `w` in `.din` format.
///
/// Records are written one per line as `LABEL HEXADDR`.
///
/// # Errors
///
/// Returns any I/O error from the underlying writer.
///
/// # Examples
///
/// ```
/// use mlc_trace::{din, TraceRecord};
///
/// let mut buf = Vec::new();
/// din::write_din(&mut buf, [TraceRecord::read(0x100), TraceRecord::ifetch(0x4)])?;
/// assert_eq!(String::from_utf8(buf).unwrap(), "0 100\n2 4\n");
/// # Ok::<(), mlc_trace::TraceError>(())
/// ```
pub fn write_din<W, I>(w: W, records: I) -> Result<(), TraceError>
where
    W: Write,
    I: IntoIterator<Item = TraceRecord>,
{
    let mut w = io::BufWriter::new(w);
    for r in records {
        writeln!(w, "{} {:x}", r.kind.din_label(), r.addr)?;
    }
    w.flush()?;
    Ok(())
}

/// Reads an entire `.din` trace into memory.
///
/// # Errors
///
/// Returns the first I/O or parse error encountered.
///
/// # Examples
///
/// ```
/// use mlc_trace::din;
///
/// let records = din::read_din("2 0\n0 40\n".as_bytes())?;
/// assert_eq!(records.len(), 2);
/// # Ok::<(), mlc_trace::TraceError>(())
/// ```
pub fn read_din<R: Read>(reader: R) -> Result<Vec<TraceRecord>, TraceError> {
    read_din_with(reader, FaultPolicy::Fail, None).map(|(records, _)| records)
}

/// Reads a `.din` trace under a [`FaultPolicy`]: with
/// [`FaultPolicy::Skip`], each malformed line is written to the
/// `quarantine` sidecar (when given) and skipped, until more than
/// `budget` lines have been dropped. I/O errors are always fatal —
/// a line that cannot be *read* is different from one that cannot be
/// *parsed*.
///
/// # Errors
///
/// Under [`FaultPolicy::Fail`], exactly the errors of [`read_din`].
/// Under [`FaultPolicy::Skip`], [`TraceError::FaultBudget`] once the
/// budget is exceeded, or any I/O error.
///
/// # Examples
///
/// ```
/// use mlc_trace::{din, FaultPolicy};
///
/// let text = "2 4\nnot a record\n0 8\n";
/// let mut sidecar = Vec::new();
/// let (records, report) = din::read_din_with(
///     text.as_bytes(),
///     FaultPolicy::Skip { budget: 4 },
///     Some(&mut sidecar),
/// )?;
/// assert_eq!(records.len(), 2);
/// assert_eq!(report.quarantined, 1);
/// assert!(String::from_utf8(sidecar).unwrap().contains("not a record"));
/// # Ok::<(), mlc_trace::TraceError>(())
/// ```
pub fn read_din_with<R: Read>(
    reader: R,
    policy: FaultPolicy,
    quarantine: Option<&mut dyn Write>,
) -> Result<(Vec<TraceRecord>, IngestReport), TraceError> {
    let mut out = Vec::new();
    let report = read_din_into(reader, policy, quarantine, &mut out)?;
    Ok((out, report))
}

/// [`read_din_with`] with the records handed to a [`RecordSink`]
/// instead of collected: the one `.din` decoder body, which the `Vec`
/// form collects through. The sink sees exactly the records the `Vec`
/// form would hold, in order, and the report, the quarantine lines and
/// the errors are the same.
///
/// # Errors
///
/// Exactly those of [`read_din_with`]. On an error the sink may
/// already hold the records decoded before it.
///
/// # Examples
///
/// ```
/// use mlc_trace::{din, FaultPolicy};
///
/// let mut out = Vec::new();
/// let report = din::read_din_into("2 4\n0 8\n".as_bytes(), FaultPolicy::Fail, None, &mut out)?;
/// assert_eq!((out.len(), report.quarantined), (2, 0));
/// # Ok::<(), mlc_trace::TraceError>(())
/// ```
pub fn read_din_into<R: Read, S: RecordSink>(
    reader: R,
    policy: FaultPolicy,
    quarantine: Option<&mut dyn Write>,
    out: &mut S,
) -> Result<IngestReport, TraceError> {
    let mut quarantine = quarantine;
    let mut report = IngestReport::default();
    let mut line_no = 0u64;
    for line in BufReader::new(reader).lines() {
        line_no += 1;
        let line = line?;
        match parse_din_line(line_no, &line) {
            Ok(Some(rec)) => out.push(rec),
            Ok(None) => {}
            Err(e) => absorb_fault(
                policy,
                &mut report,
                &mut quarantine,
                &format!("line {line_no}: {line}"),
                e,
            )?,
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let recs = vec![
            TraceRecord::ifetch(0x1000),
            TraceRecord::read(0xdeadbeef),
            TraceRecord::write(0x0),
            TraceRecord::ifetch(0x1004),
        ];
        let mut buf = Vec::new();
        write_din(&mut buf, recs.iter().copied()).unwrap();
        let back = read_din(buf.as_slice()).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn skips_blank_lines_and_comments() {
        let text = "# provenance: synthetic\n\n2 4\n\n# mid comment\n0 8\n";
        let recs = read_din(text.as_bytes()).unwrap();
        assert_eq!(recs, vec![TraceRecord::ifetch(4), TraceRecord::read(8)]);
    }

    #[test]
    fn tolerates_extra_whitespace() {
        let text = "  2\t 4  \n0    8\n";
        let recs = read_din(text.as_bytes()).unwrap();
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn rejects_bad_label() {
        let err = read_din("9 4\n".as_bytes()).unwrap_err();
        assert!(matches!(err, TraceError::ParseDin { line: 1, .. }));
    }

    #[test]
    fn rejects_non_numeric_label() {
        let err = read_din("x 4\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("invalid label"));
    }

    #[test]
    fn rejects_missing_address() {
        let err = read_din("2\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("missing address"));
    }

    #[test]
    fn rejects_bad_address() {
        let err = read_din("2 zzz\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("invalid hex address"));
    }

    #[test]
    fn error_reports_correct_line() {
        let err = read_din("2 4\n0 8\n1 oops\n".as_bytes()).unwrap_err();
        match err {
            TraceError::ParseDin { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn empty_input_is_empty_trace() {
        assert!(read_din("".as_bytes()).unwrap().is_empty());
    }

    #[test]
    fn addresses_are_hex() {
        let recs = read_din("0 ff\n".as_bytes()).unwrap();
        assert_eq!(recs[0].addr.get(), 255);
    }

    #[test]
    fn degraded_fail_matches_strict_reader() {
        let text = "2 4\n9 8\n";
        let strict = read_din(text.as_bytes()).unwrap_err();
        let degraded = read_din_with(text.as_bytes(), FaultPolicy::Fail, None).unwrap_err();
        assert_eq!(strict.to_string(), degraded.to_string());
    }

    #[test]
    fn degraded_skip_quarantines_with_line_numbers() {
        let text = "2 4\n3 zz\n0 8\nnot a record\n1 c\n";
        let mut sidecar = Vec::new();
        let (recs, report) = read_din_with(
            text.as_bytes(),
            FaultPolicy::Skip { budget: 2 },
            Some(&mut sidecar),
        )
        .unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(report.quarantined, 2);
        assert!(!report.truncated);
        let sidecar = String::from_utf8(sidecar).unwrap();
        assert_eq!(sidecar, "line 2: 3 zz\nline 4: not a record\n");
    }

    #[test]
    fn degraded_skip_fails_typed_over_budget() {
        let text = "bad\nbad\nbad\n";
        let err =
            read_din_with(text.as_bytes(), FaultPolicy::Skip { budget: 2 }, None).unwrap_err();
        assert!(matches!(err, TraceError::FaultBudget { budget: 2, .. }));
    }

    #[test]
    fn degraded_zero_budget_tolerates_clean_input_only() {
        let (recs, report) =
            read_din_with("2 4\n".as_bytes(), FaultPolicy::Skip { budget: 0 }, None).unwrap();
        assert_eq!((recs.len(), report.quarantined), (1, 0));
        assert!(read_din_with("x\n".as_bytes(), FaultPolicy::Skip { budget: 0 }, None).is_err());
    }
}
