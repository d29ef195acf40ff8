//! Request-lifecycle spans behind the daemon's `mlc-stats/1` document.
//!
//! Every served request crosses a fixed set of lifecycle stages
//! ([`Stage`]); each crossing is recorded as a span: one microsecond
//! sample in the `serve.stage.<stage>` histogram of the server's
//! [`Metrics`] handle — the handle that also holds every daemon
//! counter — plus, optionally, a retained [`SpanRecord`] for Perfetto
//! export. What lives here is only what is not a count: span-id
//! minting, the capped retained-span log, and the in-flight job gauge.
//!
//! One lock guards the handle, and the measured traffic does not
//! contend for it: the `serve_hits` benchmark drives about 6 requests/s
//! from two closed-loop clients, at about 5 spans per request, and a
//! span holds the lock for one map lookup and one histogram increment.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mlc_obs::span::{SpanRecord, Stage};
use mlc_obs::Metrics;

/// The histogram a stage's spans are recorded in.
pub fn stage_metric(stage: Stage) -> String {
    format!("serve.stage.{}", stage.as_str())
}

/// The server's span recorder. See the module docs.
pub struct ServerStats {
    metrics: Metrics,
    next_span_id: AtomicU64,
    epoch: Instant,
    inflight: AtomicUsize,
    /// Spans retained verbatim for Perfetto export. Behind a Mutex —
    /// only taken when retention is enabled (`retain_cap > 0`). Capped:
    /// a long-lived daemon keeps the first `retain_cap` spans rather
    /// than growing without bound.
    retained: Mutex<Vec<SpanRecord>>,
    retain_cap: usize,
}

impl std::fmt::Debug for ServerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerStats")
            .field("spans", &self.next_span_id.load(Ordering::Relaxed))
            .field("retain_cap", &self.retain_cap)
            .finish_non_exhaustive()
    }
}

impl ServerStats {
    /// A fresh recorder that files stage histograms into `metrics`.
    /// `retain_cap` bounds the spans kept verbatim for Perfetto export;
    /// 0 disables retention (histograms still record).
    pub fn new(metrics: Metrics, retain_cap: usize) -> Self {
        ServerStats {
            metrics,
            next_span_id: AtomicU64::new(0),
            epoch: Instant::now(),
            inflight: AtomicUsize::new(0),
            retained: Mutex::new(Vec::new()),
            retain_cap,
        }
    }

    /// Records one completed span: `stage` took from `started` until
    /// now for the request `trace_id`. Returns the minted span id.
    pub fn record_span(&self, stage: Stage, trace_id: &str, started: Instant) -> u64 {
        let ended = Instant::now();
        let span_id = self.next_span_id.fetch_add(1, Ordering::Relaxed);
        let dur_us = ended
            .duration_since(started)
            .as_micros()
            .min(u64::MAX as u128) as u64;
        self.metrics.record(&stage_metric(stage), dur_us);
        if self.retain_cap > 0 {
            let start_us = started
                .saturating_duration_since(self.epoch)
                .as_micros()
                .min(u64::MAX as u128) as u64;
            let mut retained = self.retained.lock().expect("stats retention poisoned");
            if retained.len() < self.retain_cap {
                retained.push(SpanRecord {
                    trace_id: trace_id.to_owned(),
                    span_id,
                    stage,
                    start_us,
                    dur_us,
                });
            }
        }
        span_id
    }

    /// The spans recorded so far (total across all stages).
    pub fn spans_recorded(&self) -> u64 {
        self.next_span_id.load(Ordering::Relaxed)
    }

    /// A copy of the retained spans (empty when retention is off).
    pub fn retained_spans(&self) -> Vec<SpanRecord> {
        self.retained
            .lock()
            .expect("stats retention poisoned")
            .clone()
    }

    /// Marks a sweep job in flight.
    pub fn job_started(&self) {
        self.inflight.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks a sweep job finished.
    pub fn job_finished(&self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Sweep jobs currently in flight.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_land_in_their_stage_histogram() {
        let metrics = Metrics::enabled();
        let stats = ServerStats::new(metrics.clone(), 0);
        let t0 = Instant::now();
        for _ in 0..100 {
            stats.record_span(Stage::Simulate, "trc-x", t0);
        }
        let snap = metrics.snapshot();
        let simulate = snap.hist(&stage_metric(Stage::Simulate));
        assert_eq!(simulate.map(|h| h.count()), Some(100));
        assert!(snap.hist(&stage_metric(Stage::Reply)).is_none());
        assert_eq!(stage_metric(Stage::MemLookup), "serve.stage.mem-lookup");
    }

    #[test]
    fn retention_caps_and_copies() {
        let stats = ServerStats::new(Metrics::enabled(), 2);
        let t0 = Instant::now();
        for _ in 0..5 {
            stats.record_span(Stage::Reply, "trc-r", t0);
        }
        let retained = stats.retained_spans();
        assert_eq!(retained.len(), 2, "retention is capped");
        assert_eq!(stats.spans_recorded(), 5, "histograms keep recording");
        assert!(retained.iter().all(|s| s.trace_id == "trc-r"));

        let off = ServerStats::new(Metrics::enabled(), 0);
        off.record_span(Stage::Reply, "trc-r", t0);
        assert!(off.retained_spans().is_empty());
    }

    #[test]
    fn concurrent_recording_keeps_ids_unique_and_counts_exact() {
        let metrics = Metrics::enabled();
        let stats = ServerStats::new(metrics.clone(), 4096);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let stats = &stats;
                scope.spawn(move || {
                    let t0 = Instant::now() - std::time::Duration::from_micros(t);
                    for _ in 0..500 {
                        stats.record_span(Stage::Parse, &format!("trc-{t}"), t0);
                    }
                });
            }
        });
        assert_eq!(stats.spans_recorded(), 4000);
        let parse = metrics
            .snapshot()
            .hist(&stage_metric(Stage::Parse))
            .cloned();
        assert_eq!(parse.map(|h| h.count()), Some(4000));
        let ids: std::collections::BTreeSet<u64> =
            stats.retained_spans().iter().map(|s| s.span_id).collect();
        assert_eq!(ids.len(), 4000, "span ids never collide");
    }

    #[test]
    fn inflight_gauge_follows_jobs() {
        let stats = ServerStats::new(Metrics::enabled(), 0);
        stats.job_started();
        stats.job_started();
        stats.job_finished();
        assert_eq!(stats.inflight(), 1);
    }
}
