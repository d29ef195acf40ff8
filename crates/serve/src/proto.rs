//! The `mlc-serve/1` wire protocol: newline-delimited JSON over a local
//! stream socket.
//!
//! Each line is one JSON object. Client→server lines carry an `"op"`
//! field ([`Request`]); server→client lines carry an `"event"` field
//! ([`Event`]). The server greets every connection with a `hello`
//! event, answers each request with one or more events, and a `submit`
//! with `"wait":true` streams `progress` events until the terminal
//! `done` (or `error`).
//!
//! Floats on the wire are carried as 16-hex-digit `f64` **bit
//! patterns** (`*_bits` fields), like the journal format: the document
//! model renders non-finite floats as `null`, and cache answers must be
//! bit-identical to the run that produced them — NaN miss ratios
//! included.

use std::path::PathBuf;

use mlc_cache::ByteSize;
use mlc_core::DesignGrid;
use mlc_obs::json::{f64_bits_hex, f64_from_bits_hex, JsonValue};

/// The protocol name and revision sent in `hello` / `pong`.
pub const PROTO: &str = "mlc-serve/1";

/// The schema tag of the telemetry document a `stats` request returns.
pub const STATS_SCHEMA: &str = "mlc-stats/1";

fn u64s(xs: &[u64]) -> JsonValue {
    JsonValue::Array(xs.iter().map(|&v| JsonValue::U64(v)).collect())
}

fn str_field(v: &JsonValue, name: &str) -> Result<String, String> {
    v.get(name)
        .and_then(JsonValue::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing or non-string field '{name}'"))
}

fn u64_field(v: &JsonValue, name: &str) -> Result<u64, String> {
    v.get(name)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing or non-integer field '{name}'"))
}

fn bool_field(v: &JsonValue, name: &str) -> Result<bool, String> {
    match v.get(name) {
        Some(JsonValue::Bool(b)) => Ok(*b),
        _ => Err(format!("missing or non-boolean field '{name}'")),
    }
}

/// An **optional** integer field: absent means `default`. Keeps the
/// protocol at `mlc-serve/1` while later revisions add fields — an old
/// peer's line simply reads as the default.
fn u64_field_or(v: &JsonValue, name: &str, default: u64) -> Result<u64, String> {
    match v.get(name) {
        None => Ok(default),
        Some(x) => x
            .as_u64()
            .ok_or_else(|| format!("non-integer field '{name}'")),
    }
}

/// An **optional** string field: absent means empty. Same additive-field
/// convention as [`u64_field_or`].
fn str_field_or(v: &JsonValue, name: &str) -> Result<String, String> {
    match v.get(name) {
        None => Ok(String::new()),
        Some(x) => x
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| format!("non-string field '{name}'")),
    }
}

/// An **optional** boolean field: absent means `default`.
fn bool_field_or(v: &JsonValue, name: &str, default: bool) -> Result<bool, String> {
    match v.get(name) {
        None => Ok(default),
        Some(JsonValue::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("non-boolean field '{name}'")),
    }
}

fn ints_field(v: &JsonValue, name: &str) -> Result<Vec<u64>, String> {
    v.get(name)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("missing or non-array field '{name}'"))?
        .iter()
        .map(|x| x.as_u64().ok_or_else(|| format!("non-integer in '{name}'")))
        .collect()
}

fn bits_field(v: &JsonValue, name: &str) -> Result<f64, String> {
    v.get(name)
        .and_then(JsonValue::as_str)
        .and_then(f64_from_bits_hex)
        .ok_or_else(|| format!("missing or malformed field '{name}'"))
}

fn bits_array_field(v: &JsonValue, name: &str) -> Result<Vec<f64>, String> {
    v.get(name)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("missing or non-array field '{name}'"))?
        .iter()
        .map(|x| {
            x.as_str()
                .and_then(f64_from_bits_hex)
                .ok_or_else(|| format!("malformed bit pattern in '{name}'"))
        })
        .collect()
}

/// Appends a `trace_id` field when the context is non-empty — the
/// additive-field convention: context-free lines keep the revision-1
/// shape byte-for-byte.
fn push_trace_id(obj: &mut Vec<(String, JsonValue)>, trace_id: &str) {
    if !trace_id.is_empty() {
        obj.push(("trace_id".into(), trace_id.into()));
    }
}

/// A sweep submission: the unresolved client-side parameters. The
/// server resolves them (trace content digest, absolute warm-up count)
/// into a journal header, whose content-addressed key identifies the
/// job.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// Trace path, resolved on the *server's* filesystem.
    pub trace: PathBuf,
    /// Combined split-L1 size in bytes.
    pub l1_bytes: u64,
    /// L2 associativity of every grid point.
    pub ways: u64,
    /// Swept L2 sizes in bytes, ascending.
    pub sizes: Vec<u64>,
    /// Swept L2 cycle times in CPU cycles, ascending.
    pub cycles: Vec<u64>,
    /// Sweep engine name (`onepass` / `exhaustive`).
    pub engine: String,
    /// Fraction of the trace excluded from statistics.
    pub warmup_frac: f64,
    /// Whether the connection streams progress until `done`.
    pub wait: bool,
    /// Wall-clock deadline for the *response*, in milliseconds; 0 means
    /// none. When it expires the server answers `timeout` and releases
    /// the connection — the job itself keeps running and commits to the
    /// cache, so an idempotent resubmit picks the result up.
    pub deadline_ms: u64,
    /// Request-lifecycle trace context (`mlc_obs::span`), minted by the
    /// client; empty means "none supplied" and the server mints one.
    /// Identity metadata only — it never participates in the job key,
    /// so retries and coalesced submissions with different ids still
    /// converge on one job.
    pub trace_id: String,
}

/// One client→server line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a sweep (answered from cache when possible).
    Submit(SubmitRequest),
    /// Ask where a key currently stands.
    Status {
        /// The content-addressed job key.
        key: String,
    },
    /// Fetch a completed grid from the cache, without computing.
    Fetch {
        /// The content-addressed job key.
        key: String,
    },
    /// Thin liveness probe (protocol revision and uptime only; see
    /// [`Request::Stats`] for counters).
    Ping,
    /// Ask for the full `mlc-stats/1` telemetry document.
    Stats,
    /// Ask the server to stop accepting connections and exit.
    Shutdown,
}

impl Request {
    /// Renders the request as one compact JSON line (no newline).
    pub fn to_line(&self) -> String {
        let obj = match self {
            Request::Submit(s) => {
                let mut obj = vec![
                    ("op".into(), "submit".into()),
                    ("trace".into(), s.trace.display().to_string().into()),
                    ("l1_bytes".into(), s.l1_bytes.into()),
                    ("ways".into(), s.ways.into()),
                    ("sizes".into(), u64s(&s.sizes)),
                    ("cycles".into(), u64s(&s.cycles)),
                    ("engine".into(), s.engine.as_str().into()),
                    (
                        "warmup_frac_bits".into(),
                        f64_bits_hex(s.warmup_frac).into(),
                    ),
                    ("wait".into(), s.wait.into()),
                    ("deadline_ms".into(), s.deadline_ms.into()),
                ];
                if !s.trace_id.is_empty() {
                    obj.push(("trace_id".into(), s.trace_id.as_str().into()));
                }
                obj
            }
            Request::Status { key } => vec![
                ("op".into(), "status".into()),
                ("key".into(), key.as_str().into()),
            ],
            Request::Fetch { key } => vec![
                ("op".into(), "fetch".into()),
                ("key".into(), key.as_str().into()),
            ],
            Request::Ping => vec![("op".into(), "ping".into())],
            Request::Stats => vec![("op".into(), "stats".into())],
            Request::Shutdown => vec![("op".into(), "shutdown".into())],
        };
        JsonValue::Object(obj).to_string_compact()
    }

    /// Parses one client line.
    ///
    /// # Errors
    ///
    /// Returns a description of what is malformed or missing.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = JsonValue::parse(line).map_err(|e| e.to_string())?;
        match v.get("op").and_then(JsonValue::as_str) {
            Some("submit") => Ok(Request::Submit(SubmitRequest {
                trace: PathBuf::from(str_field(&v, "trace")?),
                l1_bytes: u64_field(&v, "l1_bytes")?,
                ways: u64_field(&v, "ways")?,
                sizes: ints_field(&v, "sizes")?,
                cycles: ints_field(&v, "cycles")?,
                engine: str_field(&v, "engine")?,
                warmup_frac: bits_field(&v, "warmup_frac_bits")?,
                wait: bool_field(&v, "wait")?,
                deadline_ms: u64_field_or(&v, "deadline_ms", 0)?,
                trace_id: str_field_or(&v, "trace_id")?,
            })),
            Some("status") => Ok(Request::Status {
                key: str_field(&v, "key")?,
            }),
            Some("fetch") => Ok(Request::Fetch {
                key: str_field(&v, "key")?,
            }),
            Some("ping") => Ok(Request::Ping),
            Some("stats") => Ok(Request::Stats),
            Some("shutdown") => Ok(Request::Shutdown),
            Some(other) => Err(format!("unknown op '{other}'")),
            None => Err("missing or non-string field 'op'".into()),
        }
    }
}

/// Which cache tier (or computation) answered a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Freshly simulated by this submission.
    Computed,
    /// In-memory LRU hit.
    Memory,
    /// On-disk store hit (backfilled into memory).
    Disk,
    /// Single-flight: an identical in-flight job answered for us.
    Coalesced,
}

impl Source {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Source::Computed => "computed",
            Source::Memory => "memory",
            Source::Disk => "disk",
            Source::Coalesced => "coalesced",
        }
    }

    /// Parses the wire spelling.
    pub fn from_str_opt(s: &str) -> Option<Source> {
        match s {
            "computed" => Some(Source::Computed),
            "memory" => Some(Source::Memory),
            "disk" => Some(Source::Disk),
            "coalesced" => Some(Source::Coalesced),
            _ => None,
        }
    }
}

/// Internal server counters: the raw snapshot behind the daemon's
/// startup banner and the `counters`/`tiers` sections of the
/// `mlc-stats/1` document. Since the `stats` request landed, `pong`
/// carries only liveness (proto, version, uptime) — these no longer
/// ride the wire individually.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stats {
    /// Grids simulated to completion by this server process.
    pub jobs_computed: u64,
    /// In-flight journals resumed from the spool at startup.
    pub jobs_recovered: u64,
    /// Submissions answered by attaching to an identical in-flight job.
    pub jobs_coalesced: u64,
    /// Entries currently in the in-memory tier.
    pub mem_entries: u64,
    /// Completed entries in the on-disk tier.
    pub disk_entries: u64,
    /// Milliseconds this server process has been up.
    pub uptime_ms: u64,
    /// Submissions rejected by admission control (full job table or
    /// handler pool).
    pub jobs_shed: u64,
    /// Responses that hit their `deadline_ms` before the job finished.
    pub jobs_timeout: u64,
    /// Bytes the committed disk tier currently occupies.
    pub disk_bytes: u64,
    /// Committed entries evicted to hold the disk-tier byte budget.
    pub disk_evictions: u64,
    /// Bytes reclaimed by those evictions.
    pub disk_evicted_bytes: u64,
    /// Connection handler threads currently live.
    pub handlers_active: u64,
    /// Orphaned spool files removed by the startup janitor.
    pub spool_orphans: u64,
}

/// One server→client line.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Greeting sent on connect.
    Hello {
        /// Protocol revision ([`PROTO`]).
        proto: String,
        /// Server version.
        version: String,
    },
    /// A submission was resolved to a key and will be answered.
    Accepted {
        /// The content-addressed job key.
        key: String,
        /// Grid rows (one per swept size) in the job.
        rows_total: u64,
        /// Whether an identical in-flight job is answering.
        coalesced: bool,
        /// The request's trace context (empty if none).
        trace_id: String,
    },
    /// One more grid row committed.
    Progress {
        /// The job key.
        key: String,
        /// Size index of the row that just completed.
        row: u64,
        /// Rows committed so far (including journal-resumed rows).
        rows_done: u64,
        /// Total rows in the job.
        rows_total: u64,
        /// The request's trace context (empty if none).
        trace_id: String,
    },
    /// Terminal success: the completed grid.
    Done {
        /// The job key.
        key: String,
        /// Who answered: cache tier, fresh computation, or coalescing.
        source: Source,
        /// Rows replayed from a crash-surviving journal (0 unless the
        /// job resumed an interrupted sweep).
        rows_resumed: u64,
        /// The completed design grid, floats bit-exact.
        grid: DesignGrid,
        /// The request's trace context (empty if none).
        trace_id: String,
        /// Progress events this subscriber's queue dropped under load
        /// (0 for a lossless stream). The grid itself is always whole —
        /// only progress notifications shed.
        dropped: u64,
    },
    /// Answer to a `status` request.
    Status {
        /// The job key asked about.
        key: String,
        /// `unknown`, `running`, `cached-memory`, or `cached-disk`.
        state: String,
        /// Rows committed so far (meaningful for `running`).
        rows_done: u64,
        /// Total rows (0 when unknown).
        rows_total: u64,
        /// Subscriber events the job has dropped so far (meaningful for
        /// `running`; 0 otherwise).
        events_dropped: u64,
    },
    /// Answer to a `ping`: thin liveness only. Counters moved to the
    /// `stats` request's `mlc-stats/1` document.
    Pong {
        /// Protocol revision ([`PROTO`]).
        proto: String,
        /// Server version.
        version: String,
        /// Milliseconds this server process has been up.
        uptime_ms: u64,
    },
    /// Answer to a `stats` request: the versioned `mlc-stats/1`
    /// telemetry document, carried verbatim as JSON.
    Stats {
        /// The `mlc-stats/1` document.
        doc: JsonValue,
    },
    /// Terminal failure for the preceding request.
    Error {
        /// What went wrong.
        message: String,
        /// Whether an identical resubmission may succeed (transient
        /// fault: disk full, injected chaos, timeout races). Safe to
        /// act on because job keys are content-addressed — a retry is
        /// the *same* job, answered from cache if it finished.
        retryable: bool,
    },
    /// Terminal: the submission's `deadline_ms` expired before the job
    /// finished. The job keeps running server-side; resubmit to pick up
    /// the (cached) result.
    Timeout {
        /// The job key that timed out.
        key: String,
    },
    /// Terminal: admission control shed this request (job table or
    /// handler pool at capacity). Retry after backoff.
    Overloaded {
        /// Which limit was hit.
        reason: String,
    },
    /// Acknowledges `shutdown`; the connection closes after this.
    Bye,
}

impl Event {
    /// Renders the event as one compact JSON line (no newline).
    pub fn to_line(&self) -> String {
        let obj = match self {
            Event::Hello { proto, version } => vec![
                ("event".into(), "hello".into()),
                ("proto".into(), proto.as_str().into()),
                ("version".into(), version.as_str().into()),
            ],
            Event::Accepted {
                key,
                rows_total,
                coalesced,
                trace_id,
            } => {
                let mut obj = vec![
                    ("event".into(), "accepted".into()),
                    ("key".into(), key.as_str().into()),
                    ("rows_total".into(), (*rows_total).into()),
                    ("coalesced".into(), (*coalesced).into()),
                ];
                push_trace_id(&mut obj, trace_id);
                obj
            }
            Event::Progress {
                key,
                row,
                rows_done,
                rows_total,
                trace_id,
            } => {
                let mut obj = vec![
                    ("event".into(), "progress".into()),
                    ("key".into(), key.as_str().into()),
                    ("row".into(), (*row).into()),
                    ("rows_done".into(), (*rows_done).into()),
                    ("rows_total".into(), (*rows_total).into()),
                ];
                push_trace_id(&mut obj, trace_id);
                obj
            }
            Event::Done {
                key,
                source,
                rows_resumed,
                grid,
                trace_id,
                dropped,
            } => {
                let mut obj = vec![
                    ("event".into(), "done".into()),
                    ("key".into(), key.as_str().into()),
                    ("source".into(), source.as_str().into()),
                    ("rows_resumed".into(), (*rows_resumed).into()),
                    ("grid".into(), grid_to_json(grid)),
                ];
                push_trace_id(&mut obj, trace_id);
                if *dropped > 0 {
                    obj.push(("dropped".into(), (*dropped).into()));
                }
                obj
            }
            Event::Status {
                key,
                state,
                rows_done,
                rows_total,
                events_dropped,
            } => {
                let mut obj = vec![
                    ("event".into(), "status".into()),
                    ("key".into(), key.as_str().into()),
                    ("state".into(), state.as_str().into()),
                    ("rows_done".into(), (*rows_done).into()),
                    ("rows_total".into(), (*rows_total).into()),
                ];
                if *events_dropped > 0 {
                    obj.push(("events_dropped".into(), (*events_dropped).into()));
                }
                obj
            }
            Event::Pong {
                proto,
                version,
                uptime_ms,
            } => vec![
                ("event".into(), "pong".into()),
                ("proto".into(), proto.as_str().into()),
                ("version".into(), version.as_str().into()),
                ("uptime_ms".into(), (*uptime_ms).into()),
            ],
            Event::Stats { doc } => vec![
                ("event".into(), "stats".into()),
                ("doc".into(), doc.clone()),
            ],
            Event::Error { message, retryable } => vec![
                ("event".into(), "error".into()),
                ("message".into(), message.as_str().into()),
                ("retryable".into(), (*retryable).into()),
            ],
            Event::Timeout { key } => vec![
                ("event".into(), "timeout".into()),
                ("key".into(), key.as_str().into()),
            ],
            Event::Overloaded { reason } => vec![
                ("event".into(), "overloaded".into()),
                ("reason".into(), reason.as_str().into()),
            ],
            Event::Bye => vec![("event".into(), "bye".into())],
        };
        JsonValue::Object(obj).to_string_compact()
    }

    /// Parses one server line.
    ///
    /// # Errors
    ///
    /// Returns a description of what is malformed or missing.
    pub fn parse(line: &str) -> Result<Event, String> {
        let v = JsonValue::parse(line).map_err(|e| e.to_string())?;
        match v.get("event").and_then(JsonValue::as_str) {
            Some("hello") => Ok(Event::Hello {
                proto: str_field(&v, "proto")?,
                version: str_field(&v, "version")?,
            }),
            Some("accepted") => Ok(Event::Accepted {
                key: str_field(&v, "key")?,
                rows_total: u64_field(&v, "rows_total")?,
                coalesced: bool_field(&v, "coalesced")?,
                trace_id: str_field_or(&v, "trace_id")?,
            }),
            Some("progress") => Ok(Event::Progress {
                key: str_field(&v, "key")?,
                row: u64_field(&v, "row")?,
                rows_done: u64_field(&v, "rows_done")?,
                rows_total: u64_field(&v, "rows_total")?,
                trace_id: str_field_or(&v, "trace_id")?,
            }),
            Some("done") => Ok(Event::Done {
                key: str_field(&v, "key")?,
                source: Source::from_str_opt(&str_field(&v, "source")?)
                    .ok_or("unknown source in 'done'")?,
                rows_resumed: u64_field(&v, "rows_resumed")?,
                grid: grid_from_json(v.get("grid").ok_or("missing field 'grid'")?)?,
                trace_id: str_field_or(&v, "trace_id")?,
                dropped: u64_field_or(&v, "dropped", 0)?,
            }),
            Some("status") => Ok(Event::Status {
                key: str_field(&v, "key")?,
                state: str_field(&v, "state")?,
                rows_done: u64_field(&v, "rows_done")?,
                rows_total: u64_field(&v, "rows_total")?,
                events_dropped: u64_field_or(&v, "events_dropped", 0)?,
            }),
            // A pre-stats pong carried every counter inline; those
            // fields are simply ignored now — only liveness is read.
            Some("pong") => Ok(Event::Pong {
                proto: str_field(&v, "proto")?,
                version: str_field(&v, "version")?,
                uptime_ms: u64_field_or(&v, "uptime_ms", 0)?,
            }),
            Some("stats") => Ok(Event::Stats {
                doc: v.get("doc").cloned().ok_or("missing field 'doc'")?,
            }),
            Some("error") => Ok(Event::Error {
                message: str_field(&v, "message")?,
                retryable: bool_field_or(&v, "retryable", false)?,
            }),
            Some("timeout") => Ok(Event::Timeout {
                key: str_field(&v, "key")?,
            }),
            Some("overloaded") => Ok(Event::Overloaded {
                reason: str_field(&v, "reason")?,
            }),
            Some("bye") => Ok(Event::Bye),
            Some(other) => Err(format!("unknown event '{other}'")),
            None => Err("missing or non-string field 'event'".into()),
        }
    }
}

/// Serializes a [`DesignGrid`] with floats as bit patterns, so the
/// wire round trip is bit-exact (NaN included).
pub fn grid_to_json(grid: &DesignGrid) -> JsonValue {
    let sizes: Vec<u64> = grid.sizes.iter().map(|s| s.get()).collect();
    let bits = |xs: &[f64]| JsonValue::Array(xs.iter().map(|&v| f64_bits_hex(v).into()).collect());
    JsonValue::Object(vec![
        ("sizes".into(), u64s(&sizes)),
        ("cycles".into(), u64s(&grid.cycles)),
        ("ways".into(), u64::from(grid.ways).into()),
        (
            "total".into(),
            JsonValue::Array(grid.total.iter().map(|row| u64s(row)).collect()),
        ),
        ("l2_local_bits".into(), bits(&grid.l2_local)),
        ("l2_global_bits".into(), bits(&grid.l2_global)),
        (
            "m_l1_global_bits".into(),
            f64_bits_hex(grid.m_l1_global).into(),
        ),
        (
            "cpu_cycle_ns_bits".into(),
            f64_bits_hex(grid.cpu_cycle_ns).into(),
        ),
    ])
}

/// Deserializes a [`DesignGrid`] written by [`grid_to_json`].
///
/// # Errors
///
/// Returns a description of the first malformed or inconsistent field.
pub fn grid_from_json(v: &JsonValue) -> Result<DesignGrid, String> {
    let sizes: Vec<ByteSize> = ints_field(v, "sizes")?
        .into_iter()
        .map(ByteSize::new)
        .collect();
    let cycles = ints_field(v, "cycles")?;
    let ways = u32::try_from(u64_field(v, "ways")?).map_err(|_| "ways overflows u32")?;
    let total: Vec<Vec<u64>> = v
        .get("total")
        .and_then(JsonValue::as_array)
        .ok_or("missing or non-array field 'total'")?
        .iter()
        .map(|row| {
            row.as_array()
                .ok_or_else(|| "non-array row in 'total'".to_owned())?
                .iter()
                .map(|x| {
                    x.as_u64()
                        .ok_or_else(|| "non-integer in 'total'".to_owned())
                })
                .collect()
        })
        .collect::<Result<_, String>>()?;
    if total.len() != sizes.len() || total.iter().any(|r| r.len() != cycles.len()) {
        return Err("grid 'total' shape does not match sizes x cycles".into());
    }
    let l2_local = bits_array_field(v, "l2_local_bits")?;
    let l2_global = bits_array_field(v, "l2_global_bits")?;
    if l2_local.len() != sizes.len() || l2_global.len() != sizes.len() {
        return Err("miss-ratio columns do not match the size count".into());
    }
    Ok(DesignGrid {
        sizes,
        cycles,
        ways,
        total,
        l2_local,
        l2_global,
        m_l1_global: bits_field(v, "m_l1_global_bits")?,
        cpu_cycle_ns: bits_field(v, "cpu_cycle_ns_bits")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_grid() -> DesignGrid {
        DesignGrid {
            sizes: vec![ByteSize::kib(16), ByteSize::kib(32)],
            cycles: vec![1, 4],
            ways: 2,
            total: vec![vec![100, 200], vec![90, DesignGrid::FAILED]],
            l2_local: vec![0.25, f64::NAN],
            l2_global: vec![0.125, -0.0],
            m_l1_global: 0.5,
            cpu_cycle_ns: 10.0,
        }
    }

    #[test]
    fn requests_round_trip() {
        let requests = vec![
            Request::Submit(SubmitRequest {
                trace: PathBuf::from("/tmp/t.din"),
                l1_bytes: 4096,
                ways: 1,
                sizes: vec![16384, 32768],
                cycles: vec![1, 2, 3],
                engine: "onepass".into(),
                warmup_frac: 0.25,
                wait: true,
                deadline_ms: 1500,
                trace_id: "trc-00c0ffee00c0ffee".into(),
            }),
            Request::Status {
                key: "fnv1a64:0123456789abcdef".into(),
            },
            Request::Fetch {
                key: "fnv1a64:0123456789abcdef".into(),
            },
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
        ];
        for r in requests {
            let line = r.to_line();
            assert!(!line.contains('\n'));
            assert_eq!(Request::parse(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn events_round_trip_bit_exact() {
        let events = vec![
            Event::Hello {
                proto: PROTO.into(),
                version: "0.1.0".into(),
            },
            Event::Accepted {
                key: "fnv1a64:0123456789abcdef".into(),
                rows_total: 5,
                coalesced: true,
                trace_id: "trc-00c0ffee00c0ffee".into(),
            },
            Event::Progress {
                key: "fnv1a64:0123456789abcdef".into(),
                row: 3,
                rows_done: 2,
                rows_total: 5,
                trace_id: String::new(),
            },
            Event::Status {
                key: "fnv1a64:0123456789abcdef".into(),
                state: "running".into(),
                rows_done: 2,
                rows_total: 5,
                events_dropped: 4,
            },
            Event::Pong {
                proto: PROTO.into(),
                version: "0.1.0".into(),
                uptime_ms: 60_000,
            },
            Event::Stats {
                doc: JsonValue::object([
                    ("schema".into(), "mlc-stats/1".into()),
                    ("uptime_ms".into(), 60_000u64.into()),
                ]),
            },
            Event::Error {
                message: "no such key".into(),
                retryable: true,
            },
            Event::Timeout {
                key: "fnv1a64:0123456789abcdef".into(),
            },
            Event::Overloaded {
                reason: "job table full".into(),
            },
            Event::Bye,
        ];
        for e in events {
            assert_eq!(Event::parse(&e.to_line()).unwrap(), e);
        }

        // Done carries NaN miss ratios bit-exactly.
        let done = Event::Done {
            key: "fnv1a64:0123456789abcdef".into(),
            source: Source::Disk,
            rows_resumed: 1,
            grid: sample_grid(),
            trace_id: "trc-00c0ffee00c0ffee".into(),
            dropped: 2,
        };
        let parsed = Event::parse(&done.to_line()).unwrap();
        let Event::Done {
            grid,
            source,
            trace_id,
            dropped,
            ..
        } = parsed
        else {
            panic!("wrong event");
        };
        assert_eq!(source, Source::Disk);
        assert_eq!(trace_id, "trc-00c0ffee00c0ffee");
        assert_eq!(dropped, 2);
        let want = sample_grid();
        assert_eq!(grid.sizes, want.sizes);
        assert_eq!(grid.total, want.total);
        assert_eq!(grid.l2_local[0].to_bits(), want.l2_local[0].to_bits());
        assert!(grid.l2_local[1].is_nan());
        assert_eq!(grid.l2_global[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(grid.cpu_cycle_ns.to_bits(), want.cpu_cycle_ns.to_bits());
    }

    #[test]
    fn grid_json_rejects_shape_mismatch() {
        let mut grid = sample_grid();
        grid.total.pop();
        assert!(grid_from_json(&grid_to_json(&grid)).is_err());
    }

    #[test]
    fn grid_json_rejects_signed_bit_patterns() {
        // `u64::from_str_radix` accepts a leading `+`; a bit pattern is
        // exactly 16 hex digits, so "+3ff000000000000" (1.0's pattern
        // with one digit traded for a sign) must not decode.
        let mut v = grid_to_json(&sample_grid());
        let JsonValue::Object(fields) = &mut v else {
            unreachable!("grids render as objects")
        };
        for (name, value) in fields.iter_mut() {
            if name == "m_l1_global_bits" {
                *value = "+3ff000000000000".into();
            }
        }
        assert_eq!(
            grid_from_json(&v).unwrap_err(),
            "missing or malformed field 'm_l1_global_bits'"
        );
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{\"op\":\"warp\"}").is_err());
        assert!(Request::parse("{}").is_err());
        assert!(Event::parse("{\"event\":\"warp\"}").is_err());
        assert!(Event::parse("[1,2]").is_err());
    }

    #[test]
    fn revision_one_lines_without_new_fields_still_parse() {
        // A pre-hardening peer omits deadline_ms / retryable / the
        // extended stats; the additive fields must read as defaults.
        let old_error = "{\"event\":\"error\",\"message\":\"boom\"}";
        assert_eq!(
            Event::parse(old_error).unwrap(),
            Event::Error {
                message: "boom".into(),
                retryable: false,
            }
        );
        // A counter-sprawl pong from before the `stats` request: the
        // extra fields are ignored, liveness still reads.
        let old_pong = "{\"event\":\"pong\",\"proto\":\"mlc-serve/1\",\
             \"version\":\"0.1.0\",\"jobs_computed\":1,\"jobs_recovered\":0,\
             \"jobs_coalesced\":0,\"mem_entries\":0,\"disk_entries\":1}";
        assert_eq!(
            Event::parse(old_pong).unwrap(),
            Event::Pong {
                proto: PROTO.into(),
                version: "0.1.0".into(),
                uptime_ms: 0,
            }
        );

        // Trace-context-free lines keep the revision-1 shape and read
        // back with an empty id.
        let old_accepted = "{\"event\":\"accepted\",\"key\":\"fnv1a64:0123456789abcdef\",\
             \"rows_total\":5,\"coalesced\":false}";
        let Event::Accepted { trace_id, .. } = Event::parse(old_accepted).unwrap() else {
            panic!("wrong event");
        };
        assert_eq!(trace_id, "");

        let mut submit = Request::Submit(SubmitRequest {
            trace: PathBuf::from("/tmp/t.din"),
            l1_bytes: 4096,
            ways: 1,
            sizes: vec![16384],
            cycles: vec![1],
            engine: "onepass".into(),
            warmup_frac: 0.25,
            wait: true,
            deadline_ms: 99,
            trace_id: String::new(),
        });
        let line = submit.to_line().replace(",\"deadline_ms\":99", "");
        assert!(
            !line.contains("trace_id"),
            "an empty context must not grow the line: {line}"
        );
        if let Request::Submit(s) = &mut submit {
            s.deadline_ms = 0;
        }
        assert_eq!(Request::parse(&line).unwrap(), submit);
    }
}
