//! Crash-consistent sweep journals: the `mlc-journal/1` format.
//!
//! A design-space sweep can run for hours; a killed process must not
//! throw the completed points away. The journal is an append-only
//! JSON-lines file:
//!
//! ```text
//! {"schema":"mlc-journal/1","trace_digest":"fnv1a64:…","engine":"onepass",…,"check":"fnv1a64:…"}
//! {"row":0,"total":[81234,93456],"l2_local_bits":"3fb9…",…,"check":"fnv1a64:…"}
//! {"row":2,"total":[64321,70001],…,"check":"fnv1a64:…"}
//! ```
//!
//! * The **header** pins the run identity: the trace content digest,
//!   the engine, and the full grid definition
//!   ([`JournalHeader::sweep_fields`]). Resume refuses to mix journals
//!   across different runs ([`JournalWriter::open`]).
//! * Each **row record** is one completed size-row of the grid, written
//!   with a single `write` and fsync'd (`File::sync_data`) before the
//!   writer reports it durable — after a crash, every record that made
//!   it to disk is complete.
//! * Every line carries a `check` field: the FNV-1a 64 digest of the
//!   line's compact rendering *without* that field. A bit-flip anywhere
//!   in a committed line is detected, not replayed.
//! * Miss ratios are `f64`s that may be `NaN`; they are stored as
//!   16-hex-digit **bit patterns** (`f64::to_bits`), so a resumed sweep
//!   reproduces the uninterrupted run bit-for-bit.
//!
//! Crash semantics on read ([`read_journal`]):
//!
//! * A final line with no terminating newline is *uncommitted crash
//!   debris*: it is dropped, reported via [`Journal::torn_tail`], and
//!   [`Journal::committed_len`] points at the end of the last committed
//!   line so a resuming writer can truncate it away before appending.
//! * Any *committed* (newline-terminated) line that fails to parse or
//!   fails its check is a typed [`JournalError::Corrupt`] — resume
//!   refuses the file rather than risk a silently-wrong grid.
//! * A committed `row` index that appears twice is benign only when the
//!   duplicate is **bit-identical** to the first occurrence (a resumed
//!   writer that lost the race with its own crash may legally replay a
//!   row); two committed payloads that *differ* for the same row are
//!   [`JournalError::Corrupt`] — there is no safe way to pick one.
//!
//! Durability: [`JournalWriter::create`] fsyncs the parent directory
//! after writing the header, so the journal's *name* survives a crash,
//! not just its bytes; [`JournalWriter::resume`] re-reads the file
//! itself, truncates any torn tail at [`Journal::committed_len`], and
//! syncs the truncation before appending.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

use crate::digest::Fnv64;
use crate::json::{f64_bits_hex, f64_from_bits_hex, JsonValue};

/// The schema tag of every journal this module writes.
pub const JOURNAL_SCHEMA: &str = "mlc-journal/1";

/// The run identity and grid definition a journal is valid for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Content digest of the trace (`fnv1a64:…`), not its path.
    pub trace_digest: String,
    /// The sweep engine name (`onepass` / `exhaustive`).
    pub engine: String,
    /// L1 size in bytes per side.
    pub l1_bytes: u64,
    /// Warm-up records excluded from statistics.
    pub warmup: u64,
    /// L2 associativity of every grid point.
    pub ways: u64,
    /// Swept L2 sizes in bytes, ascending.
    pub sizes: Vec<u64>,
    /// Swept L2 cycle times in CPU cycles, ascending.
    pub cycles: Vec<u64>,
    /// Request-lifecycle trace context of the submission that created
    /// this journal (`None` for journals written before tracing, or by
    /// tools that have no request context). Identity metadata only: it
    /// never participates in content addressing, and a resumed journal
    /// keeps its original id.
    pub trace_id: Option<String>,
}

impl JournalHeader {
    /// The seven fields that define the sweep, in their on-disk order:
    /// every field except [`trace_id`](JournalHeader::trace_id). The
    /// header line, the resume match ([`JournalWriter::open`]) and the
    /// serve crate's content-addressed job key all read this one list.
    pub fn sweep_fields(&self) -> [(&'static str, JsonValue); 7] {
        let ints = |xs: &[u64]| JsonValue::Array(xs.iter().map(|&v| JsonValue::U64(v)).collect());
        [
            ("trace_digest", self.trace_digest.as_str().into()),
            ("engine", self.engine.as_str().into()),
            ("l1_bytes", self.l1_bytes.into()),
            ("warmup", self.warmup.into()),
            ("ways", self.ways.into()),
            ("sizes", ints(&self.sizes)),
            ("cycles", ints(&self.cycles)),
        ]
    }

    /// The first sweep field in which this (stored) header differs from
    /// `run`'s, as a [`JournalError::Mismatch`].
    fn mismatch(&self, run: &JournalHeader) -> Option<JournalError> {
        // Values print as Rust literals: strings quoted, lists as `[1, 2]`.
        fn show(v: &JsonValue) -> String {
            match v {
                JsonValue::Str(s) => format!("{s:?}"),
                JsonValue::Array(xs) => {
                    format!("[{}]", xs.iter().map(show).collect::<Vec<_>>().join(", "))
                }
                other => other.to_string_compact(),
            }
        }
        self.sweep_fields()
            .into_iter()
            .zip(run.sweep_fields())
            .find(|((_, j), (_, r))| j != r)
            .map(|((field, j), (_, r))| JournalError::Mismatch {
                field,
                journal: show(&j),
                run: show(&r),
            })
    }
}

/// One committed grid row: every swept cycle time priced at one L2
/// size. `mlc_core` re-exports it as `GridRow`; on disk its floats are
/// carried as bit patterns.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRow {
    /// Size index within the header's `sizes`.
    pub row: u64,
    /// Total execution cycles per swept cycle time.
    pub total: Vec<u64>,
    /// L2 local read miss ratio (bit-exact, may be NaN).
    pub l2_local: f64,
    /// L2 global read miss ratio.
    pub l2_global: f64,
    /// L1 global read miss ratio.
    pub m_l1_global: f64,
    /// CPU cycle time in ns.
    pub cpu_cycle_ns: f64,
}

/// Why a journal could not be used.
#[derive(Debug)]
pub enum JournalError {
    /// The file could not be read or written.
    Io(io::Error),
    /// A committed line is malformed: bad JSON, a failed integrity
    /// check, a wrong schema, or a row inconsistent with the header.
    /// `line` is 1-based.
    Corrupt {
        /// 1-based line number of the offending committed line.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// The journal was written for a different sweep than the one
    /// opening it ([`JournalWriter::open`]).
    Mismatch {
        /// The first differing field of [`JournalHeader::sweep_fields`].
        field: &'static str,
        /// The journal's value of that field.
        journal: String,
        /// The opening run's value of that field.
        run: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Corrupt { line, reason } => {
                write!(f, "corrupt journal at line {line}: {reason}")
            }
            JournalError::Mismatch {
                field,
                journal,
                run,
            } => write!(
                f,
                "journal {field} mismatch: journal has {journal}, this run has {run}"
            ),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            JournalError::Corrupt { .. } | JournalError::Mismatch { .. } => None,
        }
    }
}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// A parsed journal: the header, every committed row, and what (if
/// anything) the crash left behind.
#[derive(Debug, Clone)]
pub struct Journal {
    /// The run identity the journal was created for.
    pub header: JournalHeader,
    /// Committed rows in first-appearance file order. Bit-identical
    /// duplicates have been dropped during reading; differing
    /// duplicates are a read error, so every `row` index here is
    /// unique.
    pub rows: Vec<JournalRow>,
    /// Whether an uncommitted torn tail was dropped.
    pub torn_tail: bool,
    /// File offset just past the last committed line; a resuming
    /// writer truncates to this before appending.
    pub committed_len: u64,
}

impl Journal {
    /// The committed row for size index `idx`, if any. Row indices are
    /// unique after reading (see [`Journal::rows`]).
    pub fn row_for(&self, idx: u64) -> Option<&JournalRow> {
        self.rows.iter().find(|r| r.row == idx)
    }

    /// Size indices the journal does **not** cover, ascending — the
    /// remainder a resumed sweep must compute.
    pub fn missing_rows(&self) -> Vec<u64> {
        (0..self.header.sizes.len() as u64)
            .filter(|i| self.row_for(*i).is_none())
            .collect()
    }
}

impl JournalRow {
    /// Bit-exact equality: floats compare by bit pattern (so NaN equals
    /// itself), which is the duplicate-row benignity test.
    fn bits_eq(&self, other: &JournalRow) -> bool {
        self.row == other.row
            && self.total == other.total
            && self.l2_local.to_bits() == other.l2_local.to_bits()
            && self.l2_global.to_bits() == other.l2_global.to_bits()
            && self.m_l1_global.to_bits() == other.m_l1_global.to_bits()
            && self.cpu_cycle_ns.to_bits() == other.cpu_cycle_ns.to_bits()
    }
}

/// Renders `fields` with the integrity `check` field appended: the
/// FNV-1a 64 digest of the compact rendering *without* it.
fn render_checked_line(fields: Vec<(String, JsonValue)>) -> String {
    let unchecked = JsonValue::Object(fields).to_string_compact();
    let mut h = Fnv64::new();
    h.write(unchecked.as_bytes());
    let check = format!("fnv1a64:{:016x}", h.finish());
    // Splice the check in as the last field of the same object.
    debug_assert!(unchecked.ends_with('}'));
    let mut line = unchecked;
    line.pop();
    let sep = if line.ends_with('{') { "" } else { "," };
    line.push_str(&format!("{sep}\"check\":\"{check}\"}}"));
    line
}

/// Parses one committed line and verifies its `check` field; returns
/// the object's fields without `check`.
fn parse_checked_line(line: &str) -> Result<JsonValue, String> {
    let value = JsonValue::parse(line).map_err(|e| e.to_string())?;
    let JsonValue::Object(fields) = value else {
        return Err("line is not a JSON object".to_owned());
    };
    let mut kept = Vec::with_capacity(fields.len());
    let mut check = None;
    for (k, v) in fields {
        if k == "check" {
            check = v.as_str().map(str::to_owned);
            if check.is_none() {
                return Err("check field is not a string".to_owned());
            }
        } else {
            kept.push((k, v));
        }
    }
    let Some(check) = check else {
        return Err("missing check field".to_owned());
    };
    let unchecked = JsonValue::Object(kept).to_string_compact();
    let mut h = Fnv64::new();
    h.write(unchecked.as_bytes());
    let expect = format!("fnv1a64:{:016x}", h.finish());
    if check != expect {
        return Err("integrity check mismatch".to_owned());
    }
    JsonValue::parse(&unchecked).map_err(|e| e.to_string())
}

fn header_line(header: &JournalHeader) -> String {
    let mut fields = vec![("schema".into(), JOURNAL_SCHEMA.into())];
    fields.extend(header.sweep_fields().map(|(k, v)| (k.into(), v)));
    if let Some(trace_id) = &header.trace_id {
        fields.push(("trace_id".into(), trace_id.as_str().into()));
    }
    render_checked_line(fields)
}

fn row_line(row: &JournalRow) -> String {
    render_checked_line(vec![
        ("row".into(), row.row.into()),
        (
            "total".into(),
            JsonValue::Array(row.total.iter().map(|&v| JsonValue::U64(v)).collect()),
        ),
        ("l2_local_bits".into(), f64_bits_hex(row.l2_local).into()),
        ("l2_global_bits".into(), f64_bits_hex(row.l2_global).into()),
        (
            "m_l1_global_bits".into(),
            f64_bits_hex(row.m_l1_global).into(),
        ),
        (
            "cpu_cycle_ns_bits".into(),
            f64_bits_hex(row.cpu_cycle_ns).into(),
        ),
    ])
}

fn parse_header(value: &JsonValue) -> Result<JournalHeader, String> {
    let str_field = |name: &str| -> Result<String, String> {
        value
            .get(name)
            .and_then(JsonValue::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("missing or non-string field '{name}'"))
    };
    let u64_field = |name: &str| -> Result<u64, String> {
        value
            .get(name)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("missing or non-integer field '{name}'"))
    };
    let ints_field = |name: &str| -> Result<Vec<u64>, String> {
        value
            .get(name)
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("missing or non-array field '{name}'"))?
            .iter()
            .map(|v| v.as_u64().ok_or_else(|| format!("non-integer in '{name}'")))
            .collect()
    };
    let schema = str_field("schema")?;
    if schema != JOURNAL_SCHEMA {
        return Err(format!("unsupported schema '{schema}'"));
    }
    let header = JournalHeader {
        trace_digest: str_field("trace_digest")?,
        engine: str_field("engine")?,
        l1_bytes: u64_field("l1_bytes")?,
        warmup: u64_field("warmup")?,
        ways: u64_field("ways")?,
        sizes: ints_field("sizes")?,
        cycles: ints_field("cycles")?,
        // Absent in journals written before request tracing: optional,
        // so old journals (and journals from context-free tools) parse.
        trace_id: match value.get("trace_id") {
            None => None,
            Some(v) => Some(
                v.as_str()
                    .map(str::to_owned)
                    .ok_or("non-string field 'trace_id'")?,
            ),
        },
    };
    if header.sizes.is_empty() || header.cycles.is_empty() {
        return Err("empty grid definition".to_owned());
    }
    Ok(header)
}

fn parse_row(value: &JsonValue, header: &JournalHeader) -> Result<JournalRow, String> {
    let row = value
        .get("row")
        .and_then(JsonValue::as_u64)
        .ok_or("missing or non-integer field 'row'")?;
    if row >= header.sizes.len() as u64 {
        return Err(format!(
            "row index {row} outside the {}-size grid",
            header.sizes.len()
        ));
    }
    let total: Vec<u64> = value
        .get("total")
        .and_then(JsonValue::as_array)
        .ok_or("missing or non-array field 'total'")?
        .iter()
        .map(|v| v.as_u64().ok_or("non-integer in 'total'"))
        .collect::<Result<_, _>>()?;
    if total.len() != header.cycles.len() {
        return Err(format!(
            "row has {} totals for {} cycle times",
            total.len(),
            header.cycles.len()
        ));
    }
    let bits_field = |name: &str| -> Result<f64, String> {
        value
            .get(name)
            .and_then(JsonValue::as_str)
            .and_then(f64_from_bits_hex)
            .ok_or_else(|| format!("missing or malformed field '{name}'"))
    };
    Ok(JournalRow {
        row,
        total,
        l2_local: bits_field("l2_local_bits")?,
        l2_global: bits_field("l2_global_bits")?,
        m_l1_global: bits_field("m_l1_global_bits")?,
        cpu_cycle_ns: bits_field("cpu_cycle_ns_bits")?,
    })
}

/// Reads and fully validates a journal file. See the module docs for
/// the torn-tail semantics.
///
/// # Errors
///
/// [`JournalError::Io`] when the file cannot be read;
/// [`JournalError::Corrupt`] when any committed line (including the
/// header) is malformed or fails its integrity check.
pub fn read_journal(path: &Path) -> Result<Journal, JournalError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let corrupt = |line: usize, reason: String| JournalError::Corrupt { line, reason };

    // Split into committed (newline-terminated) lines and the torn tail.
    let mut committed_len = 0u64;
    let mut lines: Vec<(usize, &[u8])> = Vec::new();
    let mut start = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            lines.push((lines.len() + 1, &bytes[start..i]));
            start = i + 1;
            committed_len = start as u64;
        }
    }
    let torn_tail = start < bytes.len();

    let mut it = lines.into_iter();
    let Some((line_no, header_bytes)) = it.next() else {
        return Err(corrupt(
            1,
            if torn_tail {
                "header line is incomplete (crash before the first commit); delete the journal and restart".to_owned()
            } else {
                "journal is empty".to_owned()
            },
        ));
    };
    let header_text = std::str::from_utf8(header_bytes)
        .map_err(|_| corrupt(line_no, "header is not UTF-8".to_owned()))?;
    let header_value =
        parse_checked_line(header_text).map_err(|reason| corrupt(line_no, reason))?;
    let header = parse_header(&header_value).map_err(|reason| corrupt(line_no, reason))?;

    let mut rows: Vec<JournalRow> = Vec::new();
    for (line_no, line_bytes) in it {
        let text = std::str::from_utf8(line_bytes)
            .map_err(|_| corrupt(line_no, "line is not UTF-8".to_owned()))?;
        let value = parse_checked_line(text).map_err(|reason| corrupt(line_no, reason))?;
        let row = parse_row(&value, &header).map_err(|reason| corrupt(line_no, reason))?;
        match rows.iter().find(|r| r.row == row.row) {
            // A resumed-then-crashed-then-resumed writer can legally
            // replay a row it already committed; that is only safe to
            // accept when the payloads are bit-identical.
            Some(prev) if prev.bits_eq(&row) => {}
            Some(_) => {
                return Err(corrupt(
                    line_no,
                    format!(
                        "duplicate committed row {} with a differing payload",
                        row.row
                    ),
                ))
            }
            None => rows.push(row),
        }
    }
    Ok(Journal {
        header,
        rows,
        torn_tail,
        committed_len,
    })
}

/// Fsyncs the directory holding `path`, making a just-created (or
/// just-renamed) directory entry durable. A data fsync alone persists
/// the file's *bytes*; the *name* lives in the directory and needs its
/// own sync, or a crash right after `create` can lose the whole file.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = path;
        Ok(())
    }
}

/// Public re-export of the directory-entry fsync used by the journal:
/// callers that rename completed journals (the result-cache commit
/// path) need the same durability for the new name.
///
/// # Errors
///
/// Any I/O error from opening or syncing the directory. On non-Unix
/// platforms this is a no-op.
pub fn sync_dir_of(path: &Path) -> io::Result<()> {
    sync_parent_dir(path)
}

/// An append-only journal writer. Every line is written with a single
/// `write` call and fsync'd before the method returns, so a record
/// either fully exists on disk or (as a droppable torn tail) does not.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
}

impl JournalWriter {
    /// Creates (truncating) a journal at `path`, durably writes its
    /// header line, and fsyncs the parent directory so the file itself
    /// survives a crash immediately after creation.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating, writing, or syncing the file or its
    /// directory.
    pub fn create(path: &Path, header: &JournalHeader) -> io::Result<JournalWriter> {
        let file = File::create(path)?;
        let mut w = JournalWriter { file };
        w.write_line(&header_line(header))?;
        sync_parent_dir(path)?;
        Ok(w)
    }

    /// Reopens an existing journal for appending: reads and validates
    /// it, truncates any torn tail at [`Journal::committed_len`], syncs
    /// the truncation, and returns the writer together with the parsed
    /// journal (header and committed rows) — the writer owns the
    /// truncation decision instead of trusting a caller-supplied
    /// length.
    ///
    /// # Errors
    ///
    /// [`JournalError::Corrupt`] when a committed line is malformed;
    /// [`JournalError::Io`] on read/truncate/sync failure.
    pub fn resume(path: &Path) -> Result<(JournalWriter, Journal), JournalError> {
        let journal = read_journal(path)?;
        Ok((JournalWriter::append_to(path, &journal)?, journal))
    }

    /// Opens the journal of the sweep `header` describes: creates it
    /// when `path` does not exist, and otherwise resumes it as
    /// [`JournalWriter::resume`] does, provided the stored header has
    /// the same [sweep fields](JournalHeader::sweep_fields) (its
    /// `trace_id` may differ and is kept). Returns the writer and the
    /// journal, whose `rows` are the rows already committed (none for
    /// a new journal).
    ///
    /// # Errors
    ///
    /// [`JournalError::Mismatch`] naming the first differing field,
    /// checked before anything is truncated;
    /// [`JournalError::Corrupt`] and [`JournalError::Io`] as for
    /// [`JournalWriter::resume`] and [`JournalWriter::create`].
    pub fn open(
        path: &Path,
        header: &JournalHeader,
    ) -> Result<(JournalWriter, Journal), JournalError> {
        if !path.exists() {
            let writer = JournalWriter::create(path, header)?;
            return Ok((writer, read_journal(path)?));
        }
        let journal = read_journal(path)?;
        if let Some(mismatch) = journal.header.mismatch(header) {
            return Err(mismatch);
        }
        Ok((JournalWriter::append_to(path, &journal)?, journal))
    }

    /// Opens `journal`'s file for appending after truncating its torn
    /// tail, if any, and syncing the truncation.
    fn append_to(path: &Path, journal: &Journal) -> io::Result<JournalWriter> {
        use std::io::Seek;
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(journal.committed_len)?;
        file.sync_data()?;
        file.seek(io::SeekFrom::End(0))?;
        Ok(JournalWriter { file })
    }

    /// Durably appends one completed row.
    ///
    /// # Errors
    ///
    /// Any I/O error from writing or syncing the file.
    pub fn append_row(&mut self, row: &JournalRow) -> io::Result<()> {
        self.write_line(&row_line(row))
    }

    fn write_line(&mut self, line: &str) -> io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.file.write_all(&buf)?;
        self.file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("mlc_journal_unit");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_header() -> JournalHeader {
        JournalHeader {
            trace_digest: "fnv1a64:0123456789abcdef".into(),
            engine: "onepass".into(),
            l1_bytes: 4096,
            warmup: 1000,
            ways: 1,
            sizes: vec![32768, 65536, 131072],
            cycles: vec![1, 4],
            trace_id: None,
        }
    }

    #[test]
    fn trace_id_round_trips_and_stays_optional() {
        // With a trace context: the id survives the round trip.
        let path = tmp("trace_id.jsonl");
        let mut header = sample_header();
        header.trace_id = Some("trc-00c0ffee00c0ffee".into());
        let w = JournalWriter::create(&path, &header).unwrap();
        drop(w);
        assert_eq!(read_journal(&path).unwrap().header, header);

        // Without one (the pre-tracing line shape): parses as None.
        let bare = tmp("trace_id_none.jsonl");
        let w = JournalWriter::create(&bare, &sample_header()).unwrap();
        drop(w);
        let j = read_journal(&bare).unwrap();
        assert_eq!(j.header.trace_id, None);
        let line = std::fs::read_to_string(&bare).unwrap();
        assert!(
            !line.contains("trace_id"),
            "a context-free header must not grow a field: {line}"
        );
    }

    fn sample_row(i: u64) -> JournalRow {
        JournalRow {
            row: i,
            total: vec![100 + i, 200 + i],
            l2_local: 0.25,
            l2_global: f64::NAN,
            m_l1_global: 0.1,
            cpu_cycle_ns: 10.0,
        }
    }

    #[test]
    fn round_trips_header_and_rows() {
        let path = tmp("round_trip.jsonl");
        let mut w = JournalWriter::create(&path, &sample_header()).unwrap();
        w.append_row(&sample_row(0)).unwrap();
        w.append_row(&sample_row(2)).unwrap();
        drop(w);
        let j = read_journal(&path).unwrap();
        assert_eq!(j.header, sample_header());
        assert_eq!(j.rows.len(), 2);
        let (got, want) = (&j.rows[0], sample_row(0));
        assert_eq!((got.row, &got.total), (want.row, &want.total));
        assert_eq!(got.l2_local.to_bits(), want.l2_local.to_bits());
        assert_eq!(got.cpu_cycle_ns.to_bits(), want.cpu_cycle_ns.to_bits());
        // NaN round-trips bit-exactly through the hex encoding.
        assert!(j.rows[1].l2_global.is_nan());
        assert_eq!(
            j.rows[1].l2_global.to_bits(),
            sample_row(2).l2_global.to_bits()
        );
        assert!(!j.torn_tail);
        assert_eq!(j.committed_len, std::fs::metadata(&path).unwrap().len());
        assert_eq!(j.missing_rows(), vec![1]);
        assert!(j.row_for(2).is_some() && j.row_for(1).is_none());
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let path = tmp("torn.jsonl");
        let mut w = JournalWriter::create(&path, &sample_header()).unwrap();
        w.append_row(&sample_row(0)).unwrap();
        drop(w);
        let committed = std::fs::metadata(&path).unwrap().len();
        // Simulate a crash mid-append: half a line, no newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"row\":1,\"tot").unwrap();
        drop(f);
        let j = read_journal(&path).unwrap();
        assert!(j.torn_tail);
        assert_eq!(j.committed_len, committed);
        assert_eq!(j.rows.len(), 1);
        // Resume reads the journal itself, truncates the debris, and
        // appends cleanly.
        let (mut w, resumed) = JournalWriter::resume(&path).unwrap();
        assert!(resumed.torn_tail);
        assert_eq!(resumed.rows.len(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), committed);
        w.append_row(&sample_row(1)).unwrap();
        drop(w);
        let j = read_journal(&path).unwrap();
        assert!(!j.torn_tail);
        assert_eq!(j.rows.len(), 2);
        assert!(j.missing_rows().contains(&2));
    }

    #[test]
    fn committed_corruption_is_typed() {
        let path = tmp("corrupt.jsonl");
        let mut w = JournalWriter::create(&path, &sample_header()).unwrap();
        w.append_row(&sample_row(0)).unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit inside the committed row line.
        let flip = bytes.len() - 10;
        bytes[flip] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        match read_journal(&path) {
            Err(JournalError::Corrupt { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn wrong_schema_and_bad_rows_are_typed() {
        let path = tmp("schema.jsonl");
        let mut fields = sample_header();
        fields.trace_digest = "fnv1a64:ffffffffffffffff".into();
        let mut w = JournalWriter::create(&path, &fields).unwrap();
        // A row outside the grid is corrupt even with a valid check.
        w.append_row(&sample_row(9)).unwrap();
        drop(w);
        match read_journal(&path) {
            Err(JournalError::Corrupt { line, reason }) => {
                assert_eq!(line, 2);
                assert!(reason.contains("outside"), "{reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }

        std::fs::write(&path, "{\"schema\":\"mlc-journal/9\",\"check\":\"x\"}\n").unwrap();
        assert!(matches!(
            read_journal(&path),
            Err(JournalError::Corrupt { line: 1, .. })
        ));
    }

    #[test]
    fn missing_file_is_io_error() {
        let path = tmp("does_not_exist.jsonl");
        let _ = std::fs::remove_file(&path);
        assert!(matches!(read_journal(&path), Err(JournalError::Io(_))));
    }

    #[test]
    fn bit_identical_duplicate_rows_are_benign() {
        // A resumed writer replaying a row it already committed (the
        // resume-crash-resume scenario) produces an exact duplicate;
        // reading must dedup it, not fail.
        let path = tmp("dup_benign.jsonl");
        let mut w = JournalWriter::create(&path, &sample_header()).unwrap();
        w.append_row(&sample_row(1)).unwrap();
        w.append_row(&sample_row(1)).unwrap();
        w.append_row(&sample_row(0)).unwrap();
        drop(w);
        let j = read_journal(&path).unwrap();
        assert_eq!(j.rows.len(), 2);
        assert_eq!(j.row_for(1).unwrap().total, sample_row(1).total);
        assert_eq!(j.missing_rows(), vec![2]);
        // NaN payloads still count as bit-identical.
        assert!(j.row_for(1).unwrap().l2_global.is_nan());
    }

    #[test]
    fn differing_duplicate_rows_are_corrupt() {
        let path = tmp("dup_corrupt.jsonl");
        let mut w = JournalWriter::create(&path, &sample_header()).unwrap();
        w.append_row(&sample_row(1)).unwrap();
        let mut newer = sample_row(1);
        newer.total = vec![7, 8];
        w.append_row(&newer).unwrap();
        drop(w);
        match read_journal(&path) {
            Err(JournalError::Corrupt { line, reason }) => {
                assert_eq!(line, 3);
                assert!(reason.contains("duplicate committed row 1"), "{reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn open_creates_resumes_and_rejects_another_sweep() {
        let path = tmp("open.jsonl");
        let _ = std::fs::remove_file(&path);
        let (mut w, fresh) = JournalWriter::open(&path, &sample_header()).unwrap();
        assert!(fresh.rows.is_empty() && !fresh.torn_tail);
        assert_eq!(fresh.committed_len, std::fs::metadata(&path).unwrap().len());
        w.append_row(&sample_row(0)).unwrap();
        drop(w);
        // Crash debris at the tail.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"row\":1").unwrap();
        drop(f);
        let torn_len = std::fs::metadata(&path).unwrap().len();

        // Another sweep: refused by field, and the file is left alone.
        let mut other = sample_header();
        other.cycles = vec![1, 2, 4];
        let err = JournalWriter::open(&path, &other).unwrap_err();
        assert!(
            matches!(
                err,
                JournalError::Mismatch {
                    field: "cycles",
                    ..
                }
            ),
            "{err:?}"
        );
        assert_eq!(
            err.to_string(),
            "journal cycles mismatch: journal has [1, 4], this run has [1, 2, 4]"
        );
        assert_eq!(std::fs::metadata(&path).unwrap().len(), torn_len);
        let mut other = sample_header();
        other.trace_digest = "fnv1a64:ffffffffffffffff".into();
        assert_eq!(
            JournalWriter::open(&path, &other).unwrap_err().to_string(),
            "journal trace_digest mismatch: journal has \"fnv1a64:0123456789abcdef\", \
             this run has \"fnv1a64:ffffffffffffffff\""
        );

        // The same sweep under another trace id resumes: the torn tail
        // is truncated and the stored header (and its id) kept.
        let mut same = sample_header();
        same.trace_id = Some("trc-0000000000000001".into());
        let (_, resumed) = JournalWriter::open(&path, &same).unwrap();
        assert!(resumed.torn_tail);
        assert_eq!(resumed.header, sample_header());
        assert_eq!(resumed.rows.len(), 1);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            resumed.committed_len
        );
    }

    #[test]
    fn create_survives_missing_parent_dir_error() {
        // A nonexistent parent directory is an I/O error from create,
        // not a panic from the directory fsync.
        let path = std::env::temp_dir()
            .join("mlc_journal_unit_missing")
            .join("nested")
            .join("j.jsonl");
        assert!(JournalWriter::create(&path, &sample_header()).is_err());
    }
}
