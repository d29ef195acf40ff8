//! The structured metrics core: counters, gauges, and phase timers
//! behind a near-zero-cost handle.
//!
//! Design constraints, in order:
//!
//! 1. **No global state.** A [`Metrics`] is an explicit handle threaded
//!    through APIs; two sweeps in one process cannot contaminate each
//!    other.
//! 2. **Disabled means free.** [`Metrics::disabled`] carries no
//!    allocation, and every operation on it is a single `Option` check —
//!    simulation drivers feed metrics unconditionally at phase
//!    boundaries without a feature gate. Nothing is ever recorded from
//!    per-access hot loops.
//! 3. **Deterministic export order.** Names are kept in sorted maps, so
//!    two runs of the same workload emit the same event *keys* in the
//!    same order even when parallel workers record in different
//!    interleavings; only the timing values differ.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::histogram::Log2Histogram;
use crate::json::JsonValue;

/// Accumulated wall-clock time of one named phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseStat {
    /// How many times the phase was recorded.
    pub calls: u64,
    /// Total wall-clock nanoseconds across all calls.
    pub total_ns: u128,
}

impl PhaseStat {
    /// Total wall-clock milliseconds across all calls.
    pub fn wall_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }
}

#[derive(Debug, Default)]
struct MetricsState {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    phases: BTreeMap<String, PhaseStat>,
    hists: BTreeMap<String, Log2Histogram>,
}

/// A cheap, cloneable metrics handle; see the module docs.
///
/// # Examples
///
/// ```
/// use mlc_obs::Metrics;
///
/// let m = Metrics::enabled();
/// m.add("sim.instructions", 1000);
/// m.add("sim.instructions", 500);
/// m.gauge("sim.cpi", 1.62);
/// let snap = m.snapshot();
/// assert_eq!(snap.counters, vec![("sim.instructions".into(), 1500)]);
///
/// // A disabled handle accepts the same calls and records nothing.
/// let off = Metrics::disabled();
/// off.add("sim.instructions", 1000);
/// assert!(off.snapshot().counters.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Option<Arc<Mutex<MetricsState>>>,
}

/// A point-in-time copy of everything a [`Metrics`] has recorded, with
/// every section sorted by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Last-write-wins gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Phase timers, sorted by name.
    pub phases: Vec<(String, PhaseStat)>,
    /// Log2-bucketed histograms, sorted by name.
    pub hists: Vec<(String, Log2Histogram)>,
}

impl MetricsSnapshot {
    /// The counter `name`; 0 when it was never added to.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .map_or(0, |i| self.counters[i].1)
    }

    /// The histogram `name`, if anything was recorded into it.
    pub fn hist(&self, name: &str) -> Option<&Log2Histogram> {
        self.hists
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|i| &self.hists[i].1)
    }
}

impl Metrics {
    /// A recording handle.
    pub fn enabled() -> Self {
        Metrics {
            inner: Some(Arc::new(Mutex::new(MetricsState::default()))),
        }
    }

    /// A no-op handle: every operation returns after one `Option` check.
    pub fn disabled() -> Self {
        Metrics { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `delta` to the counter `name` (created at zero).
    pub fn add(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            let mut state = inner.lock().expect("metrics lock is never poisoned");
            match state.counters.get_mut(name) {
                Some(value) => *value += delta,
                None => {
                    state.counters.insert(name.to_owned(), delta);
                }
            }
        }
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            let mut state = inner.lock().expect("metrics lock is never poisoned");
            state.gauges.insert(name.to_owned(), value);
        }
    }

    /// Merges `hist` into the histogram `name` (created empty). The
    /// intended pattern is phase-boundary export: hot loops record into
    /// a local [`Log2Histogram`] (two increments, no lock), and the
    /// finished histogram is merged here once per phase.
    pub fn observe_hist(&self, name: &str, hist: &Log2Histogram) {
        if let Some(inner) = &self.inner {
            let mut state = inner.lock().expect("metrics lock is never poisoned");
            state.hists.entry(name.to_owned()).or_default().merge(hist);
        }
    }

    /// Records one sample `value` into the histogram `name` (created
    /// empty): the per-event form of [`Metrics::observe_hist`], for
    /// events rare enough that a lock per sample costs nothing.
    pub fn record(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            let mut state = inner.lock().expect("metrics lock is never poisoned");
            match state.hists.get_mut(name) {
                Some(hist) => hist.record(value),
                None => {
                    let mut hist = Log2Histogram::new();
                    hist.record(value);
                    state.hists.insert(name.to_owned(), hist);
                }
            }
        }
    }

    /// Records one completed call of phase `name` taking `wall`.
    pub fn record_phase(&self, name: &str, wall: Duration) {
        if let Some(inner) = &self.inner {
            let mut state = inner.lock().expect("metrics lock is never poisoned");
            let stat = state.phases.entry(name.to_owned()).or_default();
            stat.calls += 1;
            stat.total_ns += wall.as_nanos();
        }
    }

    /// Starts a monotonic timer for phase `name`; the elapsed time is
    /// recorded when the returned guard is dropped (or [`PhaseTimer::stop`]
    /// is called). On a disabled handle this allocates nothing and does
    /// not read the clock.
    #[must_use = "the phase is timed until the returned guard drops"]
    pub fn time_phase(&self, name: &str) -> PhaseTimer {
        PhaseTimer {
            pending: self
                .inner
                .is_some()
                .then(|| (self.clone(), name.to_owned(), Instant::now())),
        }
    }

    /// Copies out everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            None => MetricsSnapshot::default(),
            Some(inner) => {
                let state = inner.lock().expect("metrics lock is never poisoned");
                MetricsSnapshot {
                    counters: state
                        .counters
                        .iter()
                        .map(|(k, v)| (k.clone(), *v))
                        .collect(),
                    gauges: state.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
                    phases: state.phases.iter().map(|(k, v)| (k.clone(), *v)).collect(),
                    hists: state
                        .hists
                        .iter()
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect(),
                }
            }
        }
    }

    /// Writes everything recorded so far as JSON-lines events:
    ///
    /// ```text
    /// {"event":"meta","schema":"mlc-metrics/1","tool":"mlc-sweep","version":"0.1.0"}
    /// {"event":"counter","name":"sim.instructions","value":45000}
    /// {"event":"gauge","name":"sim.cpi","value":1.62}
    /// {"event":"phase","name":"read_trace","calls":1,"wall_ms":12.345}
    /// {"event":"hist","name":"sim.L1.read_miss_latency","count":9,"mean":4.2,"max":31,"buckets":[[4,7,6],[16,31,3]]}
    /// ```
    ///
    /// Histogram buckets are `[lo, hi, count]` triples over inclusive
    /// log2 value ranges; only non-empty buckets appear.
    ///
    /// Events are ordered meta, counters, gauges, phases, hists, each
    /// section sorted by name.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the underlying writer.
    pub fn write_jsonl<W: Write>(&self, w: W, tool: &str, version: &str) -> io::Result<()> {
        let mut w = io::BufWriter::new(w);
        let snap = self.snapshot();
        let line = |fields: Vec<(String, JsonValue)>| JsonValue::Object(fields).to_string_compact();
        writeln!(
            w,
            "{}",
            line(vec![
                ("event".into(), "meta".into()),
                ("schema".into(), "mlc-metrics/1".into()),
                ("tool".into(), tool.into()),
                ("version".into(), version.into()),
            ])
        )?;
        for (name, value) in &snap.counters {
            writeln!(
                w,
                "{}",
                line(vec![
                    ("event".into(), "counter".into()),
                    ("name".into(), name.as_str().into()),
                    ("value".into(), (*value).into()),
                ])
            )?;
        }
        for (name, value) in &snap.gauges {
            writeln!(
                w,
                "{}",
                line(vec![
                    ("event".into(), "gauge".into()),
                    ("name".into(), name.as_str().into()),
                    ("value".into(), (*value).into()),
                ])
            )?;
        }
        for (name, stat) in &snap.phases {
            writeln!(
                w,
                "{}",
                line(vec![
                    ("event".into(), "phase".into()),
                    ("name".into(), name.as_str().into()),
                    ("calls".into(), stat.calls.into()),
                    ("wall_ms".into(), stat.wall_ms().into()),
                ])
            )?;
        }
        for (name, hist) in &snap.hists {
            let mut fields = vec![
                ("event".into(), "hist".into()),
                ("name".into(), name.as_str().into()),
            ];
            if let JsonValue::Object(body) = hist.to_json() {
                fields.extend(body);
            }
            writeln!(w, "{}", line(fields))?;
        }
        w.flush()
    }
}

/// Guard returned by [`Metrics::time_phase`]; records the elapsed wall
/// time into the owning handle when dropped.
#[derive(Debug)]
pub struct PhaseTimer {
    pending: Option<(Metrics, String, Instant)>,
}

impl PhaseTimer {
    /// Stops the timer now (equivalent to dropping it).
    pub fn stop(self) {}
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        if let Some((metrics, name, start)) = self.pending.take() {
            metrics.record_phase(&name, start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_sort() {
        let m = Metrics::enabled();
        m.add("b", 2);
        m.add("a", 1);
        m.add("b", 3);
        let snap = m.snapshot();
        assert_eq!(snap.counters, vec![("a".into(), 1), ("b".into(), 5)]);
    }

    #[test]
    fn gauges_last_write_wins() {
        let m = Metrics::enabled();
        m.gauge("x", 1.0);
        m.gauge("x", 2.5);
        assert_eq!(m.snapshot().gauges, vec![("x".into(), 2.5)]);
    }

    #[test]
    fn phase_timer_records_on_drop() {
        let m = Metrics::enabled();
        {
            let _t = m.time_phase("p");
            std::thread::sleep(Duration::from_millis(2));
        }
        m.record_phase("p", Duration::from_millis(1));
        let snap = m.snapshot();
        assert_eq!(snap.phases.len(), 1);
        let (name, stat) = &snap.phases[0];
        assert_eq!(name, "p");
        assert_eq!(stat.calls, 2);
        assert!(stat.total_ns >= 3_000_000, "{}", stat.total_ns);
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let m = Metrics::disabled();
        m.add("c", 1);
        m.gauge("g", 1.0);
        m.time_phase("p").stop();
        let mut h = Log2Histogram::new();
        h.record(3);
        m.observe_hist("h", &h);
        m.record("h", 3);
        let snap = m.snapshot();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.phases.is_empty());
        assert!(snap.hists.is_empty());
        assert!(!m.is_enabled());
    }

    #[test]
    fn hists_merge_and_export() {
        let m = Metrics::enabled();
        let mut a = Log2Histogram::new();
        a.record(4);
        a.record(5);
        let mut b = Log2Histogram::new();
        b.record(100);
        m.observe_hist("lat", &a);
        m.observe_hist("lat", &b);
        let snap = m.snapshot();
        assert_eq!(snap.hists.len(), 1);
        assert_eq!(snap.hists[0].1.count(), 3);
        let mut buf = Vec::new();
        m.write_jsonl(&mut buf, "t", "0").unwrap();
        let text = String::from_utf8(buf).unwrap();
        let hist_line = text.lines().last().unwrap();
        assert!(hist_line.contains(r#""event":"hist""#), "{text}");
        assert!(hist_line.contains(r#""name":"lat""#));
        assert!(hist_line.contains(r#""count":3"#));
        assert!(hist_line.contains(r#"[4,7,2]"#));
        assert!(hist_line.contains(r#"[64,127,1]"#));
    }

    #[test]
    fn recorded_samples_and_snapshot_lookups() {
        let m = Metrics::enabled();
        m.add("hits", 2);
        m.add("hits", 0);
        m.add("misses", 1);
        m.record("lat", 4);
        m.record("lat", 100);
        let snap = m.snapshot();
        assert_eq!((snap.counter("hits"), snap.counter("misses")), (2, 1));
        assert_eq!(snap.counter("absent"), 0);
        let lat = snap.hist("lat").expect("recorded");
        assert_eq!((lat.count(), lat.max()), (2, 100));
        assert!(snap.hist("absent").is_none());
    }

    #[test]
    fn clones_share_state() {
        let m = Metrics::enabled();
        let m2 = m.clone();
        m2.add("shared", 7);
        assert_eq!(m.snapshot().counters, vec![("shared".into(), 7)]);
    }

    #[test]
    fn threads_can_record_concurrently() {
        let m = Metrics::enabled();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let m = m.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        m.add("n", 1);
                    }
                });
            }
        });
        assert_eq!(m.snapshot().counters, vec![("n".into(), 4000)]);
    }

    #[test]
    fn jsonl_export_shape() {
        let m = Metrics::enabled();
        m.add("refs", 10);
        m.gauge("cpi", 1.5);
        m.record_phase("run", Duration::from_millis(3));
        let mut buf = Vec::new();
        m.write_jsonl(&mut buf, "test-tool", "9.9.9").unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains(r#""schema":"mlc-metrics/1""#), "{text}");
        assert!(lines[0].contains(r#""tool":"test-tool""#));
        assert!(lines[1].contains(r#""event":"counter""#) && lines[1].contains(r#""value":10"#));
        assert!(lines[2].contains(r#""event":"gauge""#));
        assert!(lines[3].contains(r#""event":"phase""#) && lines[3].contains(r#""calls":1"#));
    }
}
