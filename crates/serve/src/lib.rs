//! Sweep-as-a-service for the `mlc` workspace.
//!
//! The paper's design-space grids (§3-§5) are expensive to compute and
//! perfectly reusable: the result is a pure function of the trace
//! *content* and the resolved sweep parameters. This crate turns that
//! purity into a daemon:
//!
//! * [`Server`] accepts `(machine description, trace, grid)` sweep jobs
//!   and answers repeat queries from a **content-addressed result
//!   cache** — the key ([`job_key`]) digests the trace content and
//!   every resolved parameter, so a hit is *provably* the same
//!   computation, bit-for-bit.
//! * The cache is **two-tier** in the sccache mold ([`ResultCache`]): a
//!   bounded in-memory LRU over an on-disk store ([`DiskStore`]) whose
//!   artifacts are the crash-consistent `mlc-journal/1` files the
//!   sweeps themselves write. A hit at any level answers immediately;
//!   disk hits are backfilled into memory.
//! * Identical in-flight submissions are **deduplicated**
//!   (single-flight): N clients asking for the same grid cost one
//!   simulation, and every subscriber receives the same bit-identical
//!   result.
//! * A `kill -9` at any instant is recoverable: on restart,
//!   [`Server::recover`] scans the spool and resumes interrupted
//!   sweeps from their journals, exactly like `mlc-sweep --resume`.
//! * The wire protocol ([`proto`], `mlc-serve/1`) is newline-delimited
//!   JSON over a Unix domain socket ([`net`], Unix-only; the library
//!   core is portable).
//! * The daemon **degrades, never hangs**: per-job deadlines and
//!   per-connection I/O timeouts, a bounded job table and handler pool
//!   with typed `overloaded` shedding, a byte-budgeted disk tier with
//!   LRU eviction ([`DiskStore`]), and a fault injector
//!   ([`FaultInjector`]) that drives the chaos tests proving all of it.
//! * Every request is **observable**: a trace id follows each
//!   submission through events, journal headers, and lifecycle spans
//!   ([`stats`]); every counter and stage histogram is recorded once,
//!   in the server's `mlc_obs::Metrics` handle, and surfaced as a
//!   versioned `mlc-stats/1` telemetry document, the `--metrics-out`
//!   file, and a Perfetto-loadable span timeline.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod chaos;
pub mod key;
#[cfg(unix)]
pub mod net;
pub mod proto;
pub mod server;
pub mod stats;
pub mod store;

pub use cache::{MemoryLru, ResultCache, Tier};
pub use chaos::FaultInjector;
pub use key::{job_key, key_stem, KEY_SCHEMA};
pub use proto::{
    grid_from_json, grid_to_json, Event, Request, Source, SubmitRequest, PROTO, STATS_SCHEMA,
};
pub use server::{
    JobDone, JobError, JobEvent, JobStatus, RecoveryReport, Server, ServerConfig, Stats,
    Submission, SubmitError, SubmitOutcome,
};
pub use stats::{stage_metric, ServerStats};
pub use store::{DiskStore, EvictReport, JobSpec, JOB_SPEC_SCHEMA};
