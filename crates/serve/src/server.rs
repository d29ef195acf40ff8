//! The sweep server: job resolution, single-flight deduplication, the
//! compute workers, and crash recovery.
//!
//! A submission resolves to a content-addressed key
//! ([`crate::key::job_key`]) and is answered by the first of:
//!
//! 1. the two-tier result cache (memory, then disk — hit at any level
//!    returns immediately);
//! 2. an identical **in-flight** job (single-flight: the submission
//!    subscribes to the running job's events instead of starting a
//!    second simulation);
//! 3. a fresh worker, which journals every completed grid row
//!    crash-consistently and commits the finished journal into the
//!    cache with one atomic rename.
//!
//! On startup, [`Server::recover`] scans the spool for journals an
//! earlier process left behind (a crash, a `kill -9`) and resumes them:
//! committed rows are replayed from the journal, only the missing rows
//! are simulated — the daemon-side equivalent of
//! `mlc-sweep --journal … --resume`.
//!
//! ## Overload behaviour
//!
//! The server is bounded everywhere a client could otherwise grow it:
//! the job table admits at most [`ServerConfig::max_jobs`] concurrent
//! sweeps (excess submissions get a typed [`SubmitError::Overloaded`],
//! never a queue), and every subscriber channel is a bounded
//! `sync_channel` — a stalled peer loses *events* (progress lines are
//! droppable; a dropped terminal event degrades to an idempotent
//! refetch), never pins server memory. Degradation is counted
//! ([`Server::stats`]).
//!
//! ## Counting
//!
//! The server's [`Metrics`] handle ([`Server::metrics`]) is the one
//! place the daemon counts: every `serve.*` counter is added at one
//! site, and every lifecycle span lands in a `serve.stage.<stage>`
//! histogram of the same handle ([`crate::stats`]). The `mlc-stats/1`
//! document ([`Server::stats_doc`]) and `mlc-serve --metrics-out` both
//! render that handle, so they cannot disagree.

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mlc_core::{warmup_records, DesignGrid, Explorer, GridRow, GridSpec};
use mlc_obs::json::JsonValue;
use mlc_obs::span::{mint_trace_id, valid_trace_id, Stage};
use mlc_obs::{digest_records_hex, JournalWriter, Metrics, MetricsSnapshot};
use mlc_trace::{ingest_warning, FaultPolicy, TraceError, TraceRecord};

use crate::cache::{ResultCache, Tier};
use crate::chaos::FaultInjector;
use crate::key::{job_key, key_stem};
use crate::proto::{Source, SubmitRequest, PROTO, STATS_SCHEMA};
use crate::stats::{stage_metric, ServerStats};
use crate::store::{DiskStore, JobSpec};

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Root of the on-disk store (`cache/` + `jobs/` live under it).
    pub store_root: PathBuf,
    /// Capacity of the in-memory cache tier, in grids.
    pub mem_entries: usize,
    /// Artificial delay before committing each grid row — a test hook
    /// (`MLC_SERVE_ROW_DELAY_MS` in the daemon) that widens the window
    /// for deterministic kill-mid-sweep exercises.
    pub row_delay: Duration,
    /// Maximum concurrent jobs; further submissions are shed with
    /// [`SubmitError::Overloaded`].
    pub max_jobs: usize,
    /// Depth of each subscriber's bounded event queue.
    pub event_queue: usize,
    /// Byte budget for the committed disk tier (`None` = unbounded).
    pub disk_budget: Option<u64>,
    /// Per-connection socket read/write timeout (`None` = blocking
    /// forever; the default reaps stalled peers after 30 s).
    pub io_timeout: Option<Duration>,
    /// Maximum live connection handler threads; over-cap connects get a
    /// typed `overloaded` rejection and an immediate close.
    pub max_handlers: usize,
    /// Fault injector shared with the store (inert by default).
    pub chaos: Arc<FaultInjector>,
    /// Spans retained verbatim for Perfetto export (0 = off, the
    /// default: histograms and counters still record, only the
    /// per-span timeline is skipped). The daemon turns this on for
    /// `--events-out`.
    pub span_retention: usize,
    /// How submissions' traces treat malformed records (`Fail`, the
    /// default, or a quarantining `Skip`; see
    /// [`mlc_trace::read_trace_file`]).
    pub trace_faults: FaultPolicy,
}

impl ServerConfig {
    /// Defaults: 8-entry memory tier, no row delay, 32-job table,
    /// 64-deep event queues, unbounded disk, 30 s I/O timeout, 64
    /// handlers, no chaos, no span retention, strict trace ingestion.
    pub fn new(store_root: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            store_root: store_root.into(),
            mem_entries: 8,
            row_delay: Duration::ZERO,
            max_jobs: 32,
            event_queue: 64,
            disk_budget: None,
            io_timeout: Some(Duration::from_secs(30)),
            max_handlers: 64,
            chaos: FaultInjector::none(),
            span_retention: 0,
            trace_faults: FaultPolicy::Fail,
        }
    }
}

/// Why a submission was rejected, split so connection layers can answer
/// with the right wire event (`error` vs `overloaded`) and clients can
/// decide whether a retry makes sense.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The request itself is bad (engine, grid shape, unreadable
    /// trace). Retrying the same bytes cannot succeed.
    Invalid(String),
    /// Admission control shed the request; retry after backoff.
    Overloaded(String),
    /// Spooling the job failed (e.g. disk full). Transient: retryable.
    Io(String),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Invalid(m) | SubmitError::Overloaded(m) | SubmitError::Io(m) => {
                f.write_str(m)
            }
        }
    }
}

impl std::error::Error for SubmitError {}

impl SubmitError {
    /// Whether an identical resubmission may succeed.
    pub fn retryable(&self) -> bool {
        !matches!(self, SubmitError::Invalid(_))
    }
}

/// Why a job failed, with the retry hint the wire protocol carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// What went wrong.
    pub message: String,
    /// Whether an identical resubmission may succeed (I/O faults are
    /// transient; simulation failures are deterministic).
    pub retryable: bool,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for JobError {}

/// An event delivered to a submission's subscriber channel.
#[derive(Debug, Clone)]
pub enum JobEvent {
    /// One more grid row committed.
    Progress {
        /// Size index of the row that just completed.
        row: u64,
        /// Rows committed so far (journal-resumed rows included).
        rows_done: u64,
        /// Total rows in the job.
        rows_total: u64,
    },
    /// Terminal: the job finished (successfully or not).
    Done(JobDone),
}

/// The terminal state of a job, broadcast to every subscriber.
#[derive(Debug, Clone)]
pub struct JobDone {
    /// The job key.
    pub key: String,
    /// How the result was produced (always [`Source::Computed`] from a
    /// worker; connection layers rewrite it for coalesced followers).
    pub source: Source,
    /// Rows replayed from a crash-surviving journal.
    pub rows_resumed: u64,
    /// The completed grid, or why the job failed.
    pub result: Result<Arc<DesignGrid>, JobError>,
    /// Progress events *this subscriber's* queue dropped while the job
    /// ran — each waiter's terminal event is tagged with its own loss,
    /// so a lossy stream is visible to the client it was lossy *for*
    /// (0 from the done-latch: a late subscriber missed nothing it was
    /// ever sent).
    pub dropped: u64,
}

/// One subscriber channel plus its private loss count.
#[derive(Debug)]
struct Waiter {
    tx: SyncSender<JobEvent>,
    dropped: u64,
}

#[derive(Debug, Default)]
struct JobState {
    rows_done: usize,
    /// Subscriber events dropped so far (stalled readers losing
    /// progress lines, or whole waiters dropped at the finish).
    events_dropped: u64,
    done: Option<JobDone>,
    waiters: Vec<Waiter>,
}

/// One in-flight sweep: the single-flight rendezvous point.
///
/// Subscriber queues are **bounded** (`sync_channel`): a peer that
/// stops reading cannot grow server memory. Progress events are
/// best-effort — a full queue drops the event, not the waiter. The
/// terminal event prefers the waiter's queue but will drop the *waiter*
/// if even that is full: the client either sees its connection close
/// (and refetches — keys are content-addressed, refetch is free) or was
/// never going to read anyway.
#[derive(Debug)]
struct Job {
    key: String,
    /// The trace context of the submission that started (or resumed)
    /// this job. Followers that attach without a context of their own
    /// inherit it, so one id follows the work however many submissions
    /// coalesce onto it.
    trace_id: String,
    rows_total: usize,
    rows_resumed: usize,
    event_queue: usize,
    state: Mutex<JobState>,
}

impl Job {
    fn new(
        key: String,
        trace_id: String,
        rows_total: usize,
        rows_resumed: usize,
        event_queue: usize,
    ) -> Job {
        Job {
            key,
            trace_id,
            rows_total,
            rows_resumed,
            event_queue: event_queue.max(1),
            state: Mutex::new(JobState {
                rows_done: rows_resumed,
                ..JobState::default()
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JobState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Subscribes to this job's events. A subscriber that arrives after
    /// the job finished still receives the terminal [`JobEvent::Done`]
    /// immediately — the done-latch closes the finish/subscribe race.
    fn subscribe(&self) -> Receiver<JobEvent> {
        let (tx, rx) = sync_channel(self.event_queue);
        let mut st = self.lock();
        match &st.done {
            Some(done) => {
                let _ = tx.try_send(JobEvent::Done(done.clone()));
            }
            None => st.waiters.push(Waiter { tx, dropped: 0 }),
        }
        rx
    }

    fn progress(&self, row: u64) {
        let mut st = self.lock();
        st.rows_done += 1;
        let event = JobEvent::Progress {
            row,
            rows_done: st.rows_done as u64,
            rows_total: self.rows_total as u64,
        };
        let mut dropped = 0;
        st.waiters
            .retain_mut(|w| match w.tx.try_send(event.clone()) {
                Ok(()) => true,
                // Stalled reader: lose the progress line, keep the waiter —
                // and remember the loss, so this subscriber's terminal
                // event reports exactly how lossy its stream was.
                Err(TrySendError::Full(_)) => {
                    w.dropped += 1;
                    dropped += 1;
                    true
                }
                Err(TrySendError::Disconnected(_)) => false,
            });
        st.events_dropped += dropped;
    }

    /// Broadcasts the terminal event; returns the subscriber events the
    /// job dropped over its life.
    fn finish(&self, done: JobDone) -> u64 {
        let mut st = self.lock();
        let mut dropped = 0;
        for w in st.waiters.drain(..) {
            // Tag each waiter's terminal event with its own loss count.
            let mut done = done.clone();
            done.dropped = w.dropped;
            if matches!(
                w.tx.try_send(JobEvent::Done(done)),
                Err(TrySendError::Full(_))
            ) {
                // A reader so far behind its queue is full of progress
                // it never drained: drop it. Closing the channel ends
                // its connection; a retry hits the cache.
                dropped += 1;
            }
        }
        st.events_dropped += dropped;
        st.done = Some(done);
        st.events_dropped
    }
}

/// Where a key currently stands, for the `status` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Never seen (or evicted everywhere).
    Unknown,
    /// An in-flight job is computing it.
    Running {
        /// Rows committed so far.
        rows_done: u64,
        /// Total rows in the job.
        rows_total: u64,
        /// Subscriber events the job has dropped so far (stalled
        /// readers losing progress lines).
        events_dropped: u64,
    },
    /// Completed, resident in the memory tier.
    CachedMemory,
    /// Completed, on disk (now backfilled into memory).
    CachedDisk,
}

/// A live (non-cached) submission: the key plus the event stream to
/// follow until [`JobEvent::Done`].
#[derive(Debug)]
pub struct Submission {
    /// The content-addressed job key.
    pub key: String,
    /// Total rows in the job.
    pub rows_total: u64,
    /// Rows replayed from a crash-surviving journal.
    pub rows_resumed: u64,
    /// Whether this submission attached to an identical in-flight job
    /// instead of starting one (single-flight).
    pub coalesced: bool,
    /// The submission's trace context: the caller-supplied id, a
    /// server-minted one for bare requests, or — for a coalesced
    /// follower that supplied none — the id of the job it attached to.
    pub trace_id: String,
    /// The subscriber channel; ends with [`JobEvent::Done`].
    pub events: Receiver<JobEvent>,
}

/// What a submission resolved to.
#[derive(Debug)]
pub enum SubmitOutcome {
    /// Answered from the result cache, no simulation started.
    Cached {
        /// The content-addressed job key.
        key: String,
        /// The cached grid (bit-identical to the run that computed it).
        grid: Arc<DesignGrid>,
        /// Which tier answered.
        tier: Tier,
        /// The request's trace context (caller-supplied or minted).
        trace_id: String,
    },
    /// A job is computing (or already was, for coalesced submissions).
    Running(Submission),
}

/// What [`Server::recover`] found in the spool.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Keys of resumed in-flight jobs.
    pub resumed: Vec<String>,
    /// Spool entries that could not be resumed (and what happened).
    pub errors: Vec<String>,
}

/// The server's counters and gauges at one instant, as
/// [`Server::stats`] reads them: the `counters` and `tiers` sections of
/// the `mlc-stats/1` document, field for field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stats {
    /// Grids simulated to completion by this server process.
    pub jobs_computed: u64,
    /// In-flight journals resumed from the spool at startup.
    pub jobs_recovered: u64,
    /// Submissions answered by attaching to an identical in-flight job.
    pub jobs_coalesced: u64,
    /// Submissions rejected by admission control (full job table or
    /// handler pool).
    pub jobs_shed: u64,
    /// Responses that hit their `deadline_ms` before the job finished.
    pub jobs_timeout: u64,
    /// Sweep jobs running now.
    pub jobs_inflight: u64,
    /// Connection handler threads currently live.
    pub handlers_active: u64,
    /// Spool files removed at startup: the janitor's kill-9 leftovers
    /// and the specs the spool scan could not resume.
    pub spool_orphans: u64,
    /// Subscriber events dropped across all finished jobs.
    pub events_dropped: u64,
    /// Connects refused because the handler pool was full.
    pub conns_rejected: u64,
    /// Failed accepts and accepted sockets that could not be
    /// configured.
    pub accept_errors: u64,
    /// Memory-tier cache hits.
    pub mem_hits: u64,
    /// Entries currently in the in-memory tier.
    pub mem_entries: u64,
    /// Disk-tier cache hits.
    pub disk_hits: u64,
    /// Completed entries in the on-disk tier.
    pub disk_entries: u64,
    /// Bytes the committed disk tier currently occupies.
    pub disk_bytes: u64,
    /// Committed entries evicted to hold the disk-tier byte budget.
    pub disk_evictions: u64,
    /// Bytes reclaimed by those evictions.
    pub disk_evicted_bytes: u64,
    /// Lookups neither tier answered.
    pub misses: u64,
    /// Milliseconds this server process has been up.
    pub uptime_ms: u64,
}

/// The sweep server. Shared across connection handlers via `Arc`.
pub struct Server {
    cache: ResultCache,
    jobs: Mutex<HashMap<String, Arc<Job>>>,
    trace_faults: FaultPolicy,
    row_delay: Duration,
    max_jobs: usize,
    event_queue: usize,
    io_timeout: Option<Duration>,
    max_handlers: usize,
    chaos: Arc<FaultInjector>,
    metrics: Metrics,
    telemetry: ServerStats,
    started: Instant,
    shutdown: AtomicBool,
    handlers_active: AtomicU64,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("cache", &self.cache)
            .field("row_delay", &self.row_delay)
            .field("max_jobs", &self.max_jobs)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Opens the store and builds a server.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating the store directories.
    pub fn new(config: ServerConfig) -> io::Result<Arc<Server>> {
        let disk = DiskStore::open_with(
            &config.store_root,
            config.disk_budget,
            Arc::clone(&config.chaos),
        )?;
        let metrics = Metrics::enabled();
        Ok(Arc::new(Server {
            cache: ResultCache::new(disk, config.mem_entries),
            jobs: Mutex::new(HashMap::new()),
            trace_faults: config.trace_faults,
            row_delay: config.row_delay,
            max_jobs: config.max_jobs.max(1),
            event_queue: config.event_queue,
            io_timeout: config.io_timeout,
            max_handlers: config.max_handlers.max(1),
            chaos: config.chaos,
            telemetry: ServerStats::new(metrics.clone(), config.span_retention),
            metrics,
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            handlers_active: AtomicU64::new(0),
        }))
    }

    /// Requests shutdown: the accept loop drains and exits.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown was requested.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The one handle every daemon counter and stage histogram is
    /// recorded in (see the module docs).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The span recorder (stage histograms into [`Server::metrics`],
    /// retained spans, the in-flight job gauge). Connection layers
    /// record their own stages (accept, parse, reply) through it.
    pub fn telemetry(&self) -> &ServerStats {
        &self.telemetry
    }

    /// Per-connection socket read/write timeout.
    pub fn io_timeout(&self) -> Option<Duration> {
        self.io_timeout
    }

    /// Maximum live connection handler threads.
    pub fn max_handlers(&self) -> usize {
        self.max_handlers
    }

    /// The shared fault injector (inert unless a test or
    /// `MLC_SERVE_CHAOS` armed it).
    pub fn chaos(&self) -> &Arc<FaultInjector> {
        &self.chaos
    }

    /// Counts a shed request (admission control or handler cap).
    pub fn note_shed(&self) {
        self.metrics.add("serve.jobs_shed", 1);
    }

    /// Counts a response that hit its deadline.
    pub fn note_timeout(&self) {
        self.metrics.add("serve.jobs_timeout", 1);
    }

    /// Accounts a connection handler starting; pair with
    /// [`Server::handler_finished`].
    pub fn handler_started(&self) {
        self.handlers_active.fetch_add(1, Ordering::SeqCst);
    }

    /// Accounts a connection handler exiting.
    pub fn handler_finished(&self) {
        self.handlers_active.fetch_sub(1, Ordering::SeqCst);
    }

    /// Connection handler threads currently live.
    pub fn handlers_active(&self) -> u64 {
        self.handlers_active.load(Ordering::SeqCst)
    }

    /// Waits for the job table to drain (jobs keep journalling and
    /// committing during the wait), up to `timeout`. Returns whether
    /// every job finished; journals of unfinished jobs stay in the
    /// spool, resumable on the next start. Call after [`Server::shutdown`]
    /// so no new jobs are admitted meanwhile.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let in_flight = self.jobs.lock().unwrap_or_else(|p| p.into_inner()).len();
            if in_flight == 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Current counters and gauges: the typed view behind the startup
    /// banner, read from one snapshot of [`Server::metrics`].
    pub fn stats(&self) -> Stats {
        self.stats_of(&self.metrics.snapshot())
    }

    fn stats_of(&self, snap: &MetricsSnapshot) -> Stats {
        Stats {
            jobs_computed: snap.counter("serve.jobs_computed"),
            jobs_recovered: snap.counter("serve.jobs_recovered"),
            jobs_coalesced: snap.counter("serve.jobs_coalesced"),
            jobs_shed: snap.counter("serve.jobs_shed"),
            jobs_timeout: snap.counter("serve.jobs_timeout"),
            jobs_inflight: self.telemetry.inflight() as u64,
            handlers_active: self.handlers_active(),
            spool_orphans: snap.counter("serve.spool_orphans"),
            events_dropped: snap.counter("serve.events_dropped"),
            conns_rejected: snap.counter("serve.conns_rejected"),
            accept_errors: snap.counter("serve.accept_errors"),
            mem_hits: snap.counter("serve.mem_hits"),
            mem_entries: self.cache.mem_entries() as u64,
            disk_hits: snap.counter("serve.disk_hits"),
            disk_entries: self.cache.disk_entries() as u64,
            disk_bytes: self.cache.disk().disk_bytes(),
            disk_evictions: snap.counter("serve.disk_evictions"),
            disk_evicted_bytes: snap.counter("serve.disk_evicted_bytes"),
            misses: snap.counter("serve.misses"),
            uptime_ms: self.uptime_ms(),
        }
    }

    /// Milliseconds since this server was built: the clock a `ping`
    /// reads, without the metrics snapshot and store scan behind
    /// [`Server::stats`].
    pub fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// The full telemetry document a `stats` request returns: the
    /// versioned `mlc-stats/1` JSON doc described in DESIGN.md §18,
    /// rendered from one snapshot of [`Server::metrics`] plus the live
    /// gauges. `version` is the serving binary's version string.
    pub fn stats_doc(&self, version: &str) -> JsonValue {
        let snap = self.metrics.snapshot();
        let stats = self.stats_of(&snap);
        let lookups = stats.mem_hits + stats.disk_hits + stats.misses;
        let ratio = |hits: u64| {
            if lookups == 0 {
                JsonValue::Null
            } else {
                JsonValue::F64(hits as f64 / lookups as f64)
            }
        };
        let quantile = |v: Option<u64>| v.map(JsonValue::U64).unwrap_or(JsonValue::Null);
        let stages = Stage::ALL.iter().map(|&stage| {
            let hist = snap.hist(&stage_metric(stage)).cloned().unwrap_or_default();
            let mut fields = match hist.to_json() {
                JsonValue::Object(fields) => fields,
                _ => unreachable!("Log2Histogram::to_json returns an object"),
            };
            fields.push(("p50".into(), quantile(hist.p50())));
            fields.push(("p90".into(), quantile(hist.p90())));
            fields.push(("p99".into(), quantile(hist.p99())));
            (stage.as_str().to_owned(), JsonValue::Object(fields))
        });
        JsonValue::object([
            ("schema".into(), STATS_SCHEMA.into()),
            ("proto".into(), PROTO.into()),
            ("version".into(), version.into()),
            ("uptime_ms".into(), stats.uptime_ms.into()),
            (
                "counters".into(),
                JsonValue::object([
                    ("jobs_computed".into(), stats.jobs_computed.into()),
                    ("jobs_recovered".into(), stats.jobs_recovered.into()),
                    ("jobs_coalesced".into(), stats.jobs_coalesced.into()),
                    ("jobs_shed".into(), stats.jobs_shed.into()),
                    ("jobs_timeout".into(), stats.jobs_timeout.into()),
                    ("jobs_inflight".into(), stats.jobs_inflight.into()),
                    ("handlers_active".into(), stats.handlers_active.into()),
                    ("spool_orphans".into(), stats.spool_orphans.into()),
                    ("events_dropped".into(), stats.events_dropped.into()),
                    ("conns_rejected".into(), stats.conns_rejected.into()),
                    ("accept_errors".into(), stats.accept_errors.into()),
                ]),
            ),
            (
                "tiers".into(),
                JsonValue::object([
                    (
                        "memory".into(),
                        JsonValue::object([
                            ("hits".into(), stats.mem_hits.into()),
                            ("entries".into(), stats.mem_entries.into()),
                        ]),
                    ),
                    (
                        "disk".into(),
                        JsonValue::object([
                            ("hits".into(), stats.disk_hits.into()),
                            ("entries".into(), stats.disk_entries.into()),
                            ("bytes".into(), stats.disk_bytes.into()),
                            ("evictions".into(), stats.disk_evictions.into()),
                            ("evicted_bytes".into(), stats.disk_evicted_bytes.into()),
                        ]),
                    ),
                    ("misses".into(), stats.misses.into()),
                ]),
            ),
            (
                "hit_ratio".into(),
                JsonValue::object([
                    ("memory".into(), ratio(stats.mem_hits)),
                    ("disk".into(), ratio(stats.disk_hits)),
                    ("overall".into(), ratio(stats.mem_hits + stats.disk_hits)),
                ]),
            ),
            ("stages".into(), JsonValue::Object(stages.collect())),
        ])
    }

    /// Cache-only lookup (the `fetch` request): never computes. Each
    /// tier probe is timed and counted like a submission's
    /// (fetches carry no trace context of their own).
    pub fn fetch(&self, key: &str) -> Option<(Arc<DesignGrid>, Tier)> {
        self.lookup(key, "")
    }

    /// Probes the memory tier, then the disk tier: each probe is timed
    /// as a span and the outcome counted as a hit on one tier or a
    /// miss.
    fn lookup(&self, key: &str, trace_id: &str) -> Option<(Arc<DesignGrid>, Tier)> {
        let t = Instant::now();
        let mem_hit = self.cache.lookup_mem(key);
        self.telemetry.record_span(Stage::MemLookup, trace_id, t);
        if let Some(grid) = mem_hit {
            self.metrics.add("serve.mem_hits", 1);
            return Some((grid, Tier::Memory));
        }
        let t = Instant::now();
        let disk_hit = self.cache.lookup_disk(key);
        self.telemetry.record_span(Stage::DiskLookup, trace_id, t);
        match disk_hit {
            Some(grid) => {
                self.metrics.add("serve.disk_hits", 1);
                Some((grid, Tier::Disk))
            }
            None => {
                self.metrics.add("serve.misses", 1);
                None
            }
        }
    }

    /// Where `key` currently stands. Deliberately *not* instrumented:
    /// status polls are control-plane traffic and would drown the tier
    /// counters a client is usually polling to watch.
    pub fn status(&self, key: &str) -> JobStatus {
        let job = self
            .jobs
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(key)
            .cloned();
        if let Some(job) = job {
            let st = job.lock();
            if st.done.is_none() {
                return JobStatus::Running {
                    rows_done: st.rows_done as u64,
                    rows_total: job.rows_total as u64,
                    events_dropped: st.events_dropped,
                };
            }
        }
        match self.cache.lookup(key) {
            Some((_, Tier::Memory)) => JobStatus::CachedMemory,
            Some((_, Tier::Disk)) => JobStatus::CachedDisk,
            None => JobStatus::Unknown,
        }
    }

    /// Resolves and answers a submission. See the module docs for the
    /// cache / single-flight / compute cascade.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] for a bad request (engine, grid shape,
    /// unreadable trace), [`SubmitError::Overloaded`] when admission
    /// control sheds it, [`SubmitError::Io`] when spooling fails.
    pub fn submit(self: &Arc<Self>, req: &SubmitRequest) -> Result<SubmitOutcome, SubmitError> {
        let admission_start = Instant::now();
        // Trace context: adopt the caller's id or mint one for a bare
        // request, so every path below — events, journal header, spans
        // — has an id to stamp. (A coalesced follower that supplied no
        // id of its own adopts the running job's instead, further
        // down.)
        if !req.trace_id.is_empty() && !valid_trace_id(&req.trace_id) {
            return Err(SubmitError::Invalid(format!(
                "invalid trace id {:?}: want 1-64 chars of [A-Za-z0-9._:-]",
                req.trace_id
            )));
        }
        let minted = req.trace_id.is_empty();
        let trace_id = if minted {
            mint_trace_id()
        } else {
            req.trace_id.clone()
        };
        if self.shutdown_requested() {
            self.note_shed();
            return Err(SubmitError::Overloaded("server is draining".into()));
        }
        // Wire input comes from outside the program: validate it here.
        let sweep =
            GridSpec::from_raw(&req.engine, req.l1_bytes, &req.sizes, &req.cycles, req.ways)
                .map_err(SubmitError::Invalid)?;
        self.telemetry
            .record_span(Stage::Admission, &trace_id, admission_start);

        // Key resolution: read the trace, digest it, derive the
        // content-addressed key. The trace id is identity metadata
        // only — [`crate::key::job_key`] never hashes it, so retries
        // and concurrent submissions with different ids converge on
        // one job.
        let key_start = Instant::now();
        let trace = self
            .load_trace(&req.trace, &trace_id)
            .map_err(|e| SubmitError::Invalid(format!("trace {}: {e}", req.trace.display())))?;
        let warmup = warmup_records(trace.len(), req.warmup_frac);
        let header = sweep.header(digest_records_hex(&trace), warmup, Some(trace_id.clone()));
        let key = job_key(&header);
        let stem = key_stem(&key)
            .expect("server-derived keys are well-formed")
            .to_owned();
        let rows_total = header.sizes.len() as u64;
        self.telemetry.record_span(Stage::Key, &trace_id, key_start);

        // The jobs lock covers lookup-or-create end to end, so N
        // identical racing submissions resolve to one job (or to the
        // cache entry the winner just committed).
        let mut jobs = self.jobs.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(job) = jobs.get(&key).cloned() {
            drop(jobs);
            self.metrics.add("serve.jobs_coalesced", 1);
            // A follower that brought no context of its own follows
            // the job under the id that started it, so the whole
            // coalesced flight shares one trace.
            let trace_id = if minted {
                job.trace_id.clone()
            } else {
                trace_id
            };
            let events = job.subscribe();
            return Ok(SubmitOutcome::Running(Submission {
                key,
                rows_total,
                rows_resumed: job.rows_resumed as u64,
                coalesced: true,
                trace_id,
                events,
            }));
        }
        if let Some((grid, tier)) = self.lookup(&key, &trace_id) {
            return Ok(SubmitOutcome::Cached {
                key,
                grid,
                tier,
                trace_id,
            });
        }

        // Admission control: a full job table sheds (cache hits and
        // coalesced attaches above cost nothing, so they always pass).
        if jobs.len() >= self.max_jobs {
            drop(jobs);
            self.note_shed();
            return Err(SubmitError::Overloaded(format!(
                "job table full ({} jobs in flight)",
                self.max_jobs
            )));
        }

        // Miss everywhere: spool and start a worker. Spec first, so a
        // journal on disk always has its trace-path sidecar.
        let disk = self.cache.disk();
        disk.write_job_spec(
            &stem,
            &JobSpec {
                key: key.clone(),
                trace: req.trace.clone(),
            },
        )
        .map_err(|e| SubmitError::Io(format!("spooling job spec failed: {e}")))?;
        // Resume a journal an earlier identical job left behind (failed
        // or interrupted); one that cannot be resumed as this job is
        // replaced by a fresh one.
        let path = disk.job_journal_path(&stem);
        let (writer, completed) = match JournalWriter::open(&path, &header) {
            Ok((writer, journal)) => (writer, journal.rows),
            Err(_) => {
                let writer = JournalWriter::create(&path, &header)
                    .map_err(|e| SubmitError::Io(format!("spooling journal failed: {e}")))?;
                (writer, Vec::new())
            }
        };

        let job = Arc::new(Job::new(
            key.clone(),
            trace_id.clone(),
            header.sizes.len(),
            completed.len(),
            self.event_queue,
        ));
        jobs.insert(key.clone(), job.clone());
        drop(jobs);
        self.telemetry.job_started();
        let events = job.subscribe();
        let submission = Submission {
            key,
            rows_total,
            rows_resumed: job.rows_resumed as u64,
            coalesced: false,
            trace_id,
            events,
        };
        let server = Arc::clone(self);
        std::thread::spawn(move || {
            server.run_job(job, trace, sweep, warmup, writer, completed);
        });
        Ok(SubmitOutcome::Running(submission))
    }

    /// Scans the spool for in-flight journals a previous process left
    /// behind and resumes each as a running job: committed rows are
    /// replayed, only the remainder is simulated. Entries whose journal
    /// is unreadable, whose spec disagrees with the journal, or whose
    /// trace content changed are discarded (reported in the returned
    /// report); a trace that is merely unreadable right now is kept for
    /// a later restart.
    pub fn recover(self: &Arc<Self>) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        // Janitor first: clear kill-9 leftovers (spec temp files,
        // journals whose sidecar is gone) before resuming anything;
        // the scan then heals specs it cannot resume.
        let disk = self.cache.disk();
        let swept = disk.janitor();
        let scanned = disk.scan_jobs();
        let healed = scanned.as_ref().map_or(0, |(_, healed)| *healed);
        self.metrics.add("serve.spool_orphans", swept + healed);
        let entries = match scanned {
            Ok((entries, _)) => entries,
            Err(e) => {
                report.errors.push(format!("spool scan failed: {e}"));
                return report;
            }
        };
        for (stem, spec) in entries {
            match self.recover_one(&stem, &spec) {
                Ok(key) => report.resumed.push(key),
                Err(e) => report.errors.push(format!("{stem}: {e}")),
            }
        }
        report
    }

    /// Reads a submission's trace under the configured fault policy.
    /// A degraded read prints the ingest warning stamped with the
    /// submission's `trace_id`, and writes a `<sidecar>.ctx` companion
    /// naming that id next to the quarantine sidecar (the sidecar
    /// itself stays pure rejected records, its format untouched).
    fn load_trace(&self, path: &Path, trace_id: &str) -> Result<Vec<TraceRecord>, TraceError> {
        let (records, ingest, sidecar) = mlc_trace::read_trace_file(path, self.trace_faults)?;
        if let Some(warning) = ingest_warning(&ingest, sidecar.as_deref(), Some(trace_id)) {
            eprintln!("{warning}");
        }
        if let Some(sidecar) = sidecar {
            let meta = JsonValue::object([
                ("schema".into(), "mlc-quarantine-ctx/1".into()),
                ("trace_id".into(), trace_id.into()),
                ("quarantined".into(), ingest.quarantined.into()),
            ]);
            let mut line = meta.to_string_compact();
            line.push('\n');
            let mut ctx = sidecar.into_os_string();
            ctx.push(".ctx");
            let _ = std::fs::write(ctx, line);
        }
        Ok(records)
    }

    fn recover_one(self: &Arc<Self>, stem: &str, spec: &JobSpec) -> Result<String, String> {
        let disk = self.cache.disk();
        let path = disk.job_journal_path(stem);
        let (writer, journal) = match JournalWriter::resume(&path) {
            Ok(resumed) => resumed,
            Err(e) => {
                disk.discard_job(stem);
                return Err(format!("unreadable spool journal discarded: {e}"));
            }
        };
        let header = journal.header;
        if job_key(&header) != spec.key {
            disk.discard_job(stem);
            return Err("spool journal does not match its spec; discarded".into());
        }
        let sweep = match GridSpec::from_header(&header) {
            Ok(sweep) => sweep,
            Err(e) => {
                disk.discard_job(stem);
                return Err(e);
            }
        };
        // A resumed job keeps the trace context of the submission that
        // started it (journals predating tracing get a fresh id), so
        // the work stays attributable across the crash.
        let trace_id = header.trace_id.unwrap_or_else(mint_trace_id);
        let trace = self
            .load_trace(&spec.trace, &trace_id)
            .map_err(|e| format!("trace reload failed (spool kept): {e}"))?;
        if digest_records_hex(&trace) != header.trace_digest {
            disk.discard_job(stem);
            return Err("trace content changed since the journal was written; discarded".into());
        }
        let completed = journal.rows;
        let job = Arc::new(Job::new(
            spec.key.clone(),
            trace_id,
            sweep.sizes().len(),
            completed.len(),
            self.event_queue,
        ));
        self.jobs
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(spec.key.clone(), job.clone());
        self.metrics.add("serve.jobs_recovered", 1);
        self.telemetry.job_started();
        let server = Arc::clone(self);
        let key = spec.key.clone();
        std::thread::spawn(move || {
            server.run_job(job, trace, sweep, header.warmup as usize, writer, completed);
        });
        Ok(key)
    }

    /// The worker body: simulates the missing rows (journalling each),
    /// commits the completed journal into the cache, and broadcasts the
    /// terminal event.
    fn run_job(
        self: Arc<Self>,
        job: Arc<Job>,
        trace: Vec<TraceRecord>,
        sweep: GridSpec,
        warmup: usize,
        mut writer: JournalWriter,
        completed: Vec<GridRow>,
    ) {
        let key = job.key.clone();
        let stem = key_stem(&key)
            .expect("server-derived keys are well-formed")
            .to_owned();
        let explorer = Explorer::new(&trace, warmup);

        let t = Instant::now();
        let run = sweep.run(&explorer, completed, |row| {
            // Sleeping *inside* the journal lock serializes the delay:
            // rows land row_delay apart even though they compute in
            // parallel, so a test kill always finds a partial journal.
            if !self.row_delay.is_zero() {
                std::thread::sleep(self.row_delay);
            }
            // Chaos shim: an armed injector fails the append the way a
            // full disk would, before any bytes move.
            if let Some(fault) = self.chaos.journal_append_fault() {
                return Err(fault);
            }
            writer.append_row(row)?;
            // Only a journalled row is progress: the row is not
            // durable otherwise, and a resume would recompute it.
            job.progress(row.row);
            Ok(())
        });
        self.telemetry
            .record_span(Stage::Simulate, &job.trace_id, t);
        // Close the journal before commit renames the file.
        drop(writer);

        let result: Result<Arc<DesignGrid>, JobError> = if let Some(e) = run.append_error {
            // Transient disk failure: the journal keeps whatever rows
            // landed before it, so a retry resumes, not restarts.
            Err(JobError {
                message: format!("journal write failed: {e}"),
                retryable: true,
            })
        } else if let Some(first) = run.failures.first() {
            // Simulation failures are deterministic: the same request
            // fails the same way. Not retryable.
            Err(JobError {
                message: format!(
                    "{} of {} grid row(s) failed; first: {first}",
                    run.failures.len(),
                    sweep.sizes().len()
                ),
                retryable: false,
            })
        } else {
            // Commit and budget enforcement are separate stages: the
            // rename-and-sync is the durability cost every job pays,
            // eviction only bites when the disk tier is over budget.
            let t = Instant::now();
            let committed = self.cache.disk().commit_entry(&stem);
            self.telemetry
                .record_span(Stage::JournalCommit, &job.trace_id, t);
            match committed {
                Ok(()) => {
                    let t = Instant::now();
                    let evicted = self.cache.disk().enforce_budget(Some(&stem));
                    self.telemetry.record_span(Stage::Evict, &job.trace_id, t);
                    self.metrics.add("serve.disk_evictions", evicted.evicted);
                    self.metrics
                        .add("serve.disk_evicted_bytes", evicted.evicted_bytes);
                    let grid = Arc::new(run.grid);
                    self.cache.insert(&key, grid.clone());
                    self.metrics.add("serve.jobs_computed", 1);
                    Ok(grid)
                }
                // A torn rename leaves the complete journal in the
                // spool; a retry commits it without recomputing.
                Err(e) => Err(JobError {
                    message: format!("cache commit failed: {e}"),
                    retryable: true,
                }),
            }
        };
        self.jobs
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&key);
        let dropped = job.finish(JobDone {
            key,
            source: Source::Computed,
            rows_resumed: job.rows_resumed as u64,
            result,
            dropped: 0,
        });
        self.telemetry.job_finished();
        self.metrics.add("serve.events_dropped", dropped);
    }
}
