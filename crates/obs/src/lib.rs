//! Observability for the `mlc` workspace: run provenance, structured
//! metrics, and progress reporting.
//!
//! The paper's methodology is "sweep the design space, then trust the
//! numbers" — which only holds if every number can be audited against
//! the exact trace and configuration that produced it. This crate is
//! that audit trail:
//!
//! * [`RunManifest`] — a JSON sidecar capturing tool version, resolved
//!   configuration, trace digest, engine choice, and per-phase wall-clock
//!   timings. Two runs on the same inputs produce manifests that differ
//!   *only* in timing fields (every timing key ends in `_ms`, so CI can
//!   strip and diff them).
//! * [`Metrics`] — a near-zero-cost handle for counters, gauges, and
//!   monotonic phase timers. No global state: a disabled handle
//!   ([`Metrics::disabled`]) makes every operation a no-op branch, so
//!   simulation code can feed metrics unconditionally at phase
//!   boundaries without a feature gate. Exported as JSON-lines events
//!   via [`Metrics::write_jsonl`].
//! * [`Progress`] — throttled stderr progress lines (done / total / ETA)
//!   for long sweeps, safe to tick from parallel workers.
//! * [`Log2Histogram`] — 65-bucket log2 histograms for latency and
//!   occupancy distributions; recorded lock-free in simulator-local
//!   storage, merged into [`Metrics`] at phase boundaries, exported as
//!   `hist` events in the `mlc-metrics/1` JSONL stream.
//! * [`EventTracer`] / [`SimEvent`] — every-Nth-access sampled event
//!   tracing (off by default), exported as `mlc-events/1` JSONL via
//!   [`write_events_jsonl`] and as Perfetto-loadable Chrome trace-event
//!   JSON via [`write_chrome_trace`].
//! * [`digest_records`] / [`digest_records_hex`] — an FNV-1a 64 content
//!   digest over trace records, the provenance anchor of a manifest;
//!   [`RecordDigest`] takes the same digest one record at a time, as a
//!   trace decoder's sink.
//! * [`span`] — request-lifecycle trace context for the serving layer:
//!   process-unique trace ids ([`mint_trace_id`]), the server span
//!   taxonomy ([`Stage`]), and Perfetto export of recorded spans
//!   ([`write_span_chrome_trace`]).
//! * [`journal`] — crash-consistent `mlc-journal/1` sweep checkpoints:
//!   an fsync'd JSON-lines file of completed grid rows that lets an
//!   interrupted sweep resume bit-identically.
//! * [`json`] — the minimal JSON document model the above are built on
//!   (the workspace deliberately has no external dependencies), now
//!   with a strict parser for reading journals back.
//!
//! # Examples
//!
//! ```
//! use mlc_obs::{Metrics, RunManifest};
//!
//! let metrics = Metrics::enabled();
//! let timer = metrics.time_phase("read_trace");
//! // ... read the trace ...
//! timer.stop();
//! metrics.add("trace.records", 60_000);
//!
//! let mut manifest = RunManifest::new("mlc-run", "0.1.0");
//! manifest.trace("t.din", 60_000, 15_000, "fnv1a64:0123456789abcdef");
//! manifest.set_timings(&metrics.snapshot());
//! assert!(manifest.to_json().contains("\"read_trace_ms\""));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod digest;
pub mod events;
mod histogram;
pub mod journal;
pub mod json;
mod manifest;
mod metrics;
mod progress;
pub mod span;

pub use digest::{digest_records, digest_records_hex, Fnv64, RecordDigest};
pub use events::{
    write_chrome_trace, write_events_jsonl, EventKind, EventTracer, SimEvent, DEFAULT_EVENT_CAP,
};
pub use histogram::{Log2Histogram, LOG2_BUCKETS};
pub use journal::{
    read_journal, sync_dir_of, Journal, JournalError, JournalHeader, JournalRow, JournalWriter,
    JOURNAL_SCHEMA,
};
pub use manifest::RunManifest;
pub use metrics::{Metrics, MetricsSnapshot, PhaseStat, PhaseTimer};
pub use progress::Progress;
pub use span::{
    mint_trace_id, valid_trace_id, write_span_chrome_trace, SpanRecord, Stage, SPAN_TRACE_SCHEMA,
    TRACE_ID_MAX_LEN,
};
