//! `serve_cold` and `serve_hits`: `mlc-serve` driven over its public
//! `mlc-serve/1` protocol by closed-loop clients in this process.
//!
//! Per-layer figures come from the daemon's own `mlc-stats/1` document
//! (stage histograms and tier counters, differenced over the traced
//! window) and from the store and journal layers timed from outside on
//! a private store (`JournalWriter::append_row`,
//! `DiskStore::commit_entry`, `DiskStore::load`).

use std::time::Instant;

use mlc_cache::ByteSize;
use mlc_core::DesignGrid;
use mlc_obs::json::JsonValue;
use mlc_obs::span::Stage;
use mlc_obs::{JournalHeader, JournalRow, JournalWriter, Log2Histogram, LOG2_BUCKETS};
use mlc_serve::{grid_from_json, job_key, key_stem, DiskStore, Source, SubmitRequest};

use crate::client::{Answer, Daemon, Session};
use crate::stat::{self, SplitMix};
use crate::sweep::{self, Grid};
use crate::{Ctx, Fail, Outcome};

/// The L2 sizes of every `serve_cold` job.
const COLD_SIZES: [u64; 2] = [256 << 10, 1 << 20];
/// Cycle-time lanes per `serve_cold` job.
const COLD_LANES: u64 = 10;
/// Distinct cycle-window offsets `serve_cold` draws its keys from.
const COLD_WINDOWS: u64 = 64;
/// Byte budget of `serve_cold`'s disk tier: a few entries, so commits
/// evict.
const COLD_DISK_BUDGET: &str = "2K";

/// Keys in the `serve_hits` hit set, and the memory tier's capacity:
/// the set is larger, so both tiers answer.
const HIT_KEYS: usize = 6;
const HIT_MEM_ENTRIES: &str = "2";
/// The L2 size of every `serve_hits` key; keys differ by cycle time.
const HIT_SIZE: u64 = 64 << 10;
/// Zipf exponent of the `serve_hits` request mix.
const HIT_SKEW: f64 = 1.0;

/// One answered (or failed) request.
struct Sample {
    ms: f64,
    source: Option<Source>,
    ok: bool,
}

/// Runs `clients` closed loops against `daemon` for `seconds` (each
/// client sends at least one request): client `c` sends `request(c, i)`
/// as its `i`-th request, stopping early when it returns `None`, and
/// `check(c, i, answer)` judges each answer.
/// Returns the samples and the measured wall time.
fn closed_loop(
    daemon: &Daemon,
    clients: usize,
    seconds: f64,
    request: &(dyn Fn(usize, usize) -> Option<SubmitRequest> + Sync),
    check: &(dyn Fn(usize, usize, &Answer) -> bool + Sync),
) -> Result<(Vec<Sample>, f64), Fail> {
    let sessions = (0..clients)
        .map(|_| daemon.connect())
        .collect::<Result<Vec<Session>, Fail>>()?;
    let start = Instant::now();
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|s| {
        let handles: Vec<_> = sessions
            .into_iter()
            .enumerate()
            .map(|(c, mut session)| {
                s.spawn(move || {
                    let mut samples = Vec::new();
                    let mut i = 0;
                    while samples.is_empty() || start.elapsed().as_secs_f64() < seconds {
                        let Some(req) = request(c, i) else { break };
                        let t = Instant::now();
                        let answer = session.submit(&req);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        match answer {
                            Ok(a) => samples.push(Sample {
                                ms,
                                source: Some(a.source),
                                ok: check(c, i, &a),
                            }),
                            Err(e) => {
                                eprintln!("perfbench: request failed: {e}");
                                samples.push(Sample {
                                    ms,
                                    source: None,
                                    ok: false,
                                });
                                break;
                            }
                        }
                        i += 1;
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    Ok((
        per_client.into_iter().flatten().collect(),
        start.elapsed().as_secs_f64(),
    ))
}

/// Counts a window's samples into the outcome; returns the latencies of
/// the good ones.
fn tally(out: &mut Outcome, samples: &[Sample]) -> Vec<f64> {
    out.attempted += samples.len() as u64;
    out.failed += samples.iter().filter(|s| !s.ok).count() as u64;
    samples.iter().filter(|s| s.ok).map(|s| s.ms).collect()
}

/// The `mlc-stats/1` figures one window is judged by.
struct Snapshot {
    /// Each stage's histogram and its sample sum (µs).
    stages: Vec<(Log2Histogram, f64)>,
    mem_hits: u64,
    disk_hits: u64,
    misses: u64,
    evictions: u64,
    shed: u64,
    timeouts: u64,
}

fn at<'a>(doc: &'a JsonValue, path: &[&str]) -> Result<&'a JsonValue, Fail> {
    path.iter()
        .try_fold(doc, |v, k| v.get(k))
        .ok_or_else(|| format!("mlc-stats/1 document lacks {}", path.join(".")).into())
}

fn count(doc: &JsonValue, path: &[&str]) -> Result<u64, Fail> {
    at(doc, path)?
        .as_u64()
        .ok_or_else(|| format!("{} is not a count", path.join(".")).into())
}

impl Snapshot {
    fn read(session: &mut Session) -> Result<Snapshot, Fail> {
        let doc = session.stats()?;
        if at(&doc, &["schema"])?.as_str() != Some(mlc_serve::STATS_SCHEMA) {
            return Err("the daemon's stats document is not mlc-stats/1".into());
        }
        let stages = Stage::ALL
            .iter()
            .map(|s| {
                let v = at(&doc, &["stages", s.as_str()])?;
                let h = Log2Histogram::from_json(v)
                    .ok_or_else(|| format!("unreadable {} histogram", s.as_str()))?;
                // The mean renders as an integer when it is one.
                let mean = match v.get("mean") {
                    Some(JsonValue::F64(m)) => *m,
                    Some(JsonValue::U64(m)) => *m as f64,
                    _ => 0.0,
                };
                let sum = mean * h.count() as f64;
                Ok((h, sum))
            })
            .collect::<Result<Vec<_>, Fail>>()?;
        Ok(Snapshot {
            stages,
            mem_hits: count(&doc, &["tiers", "memory", "hits"])?,
            disk_hits: count(&doc, &["tiers", "disk", "hits"])?,
            misses: count(&doc, &["tiers", "misses"])?,
            evictions: count(&doc, &["tiers", "disk", "evictions"])?,
            shed: count(&doc, &["counters", "jobs_shed"])?,
            timeouts: count(&doc, &["counters", "jobs_timeout"])?,
        })
    }
}

/// The samples a stage histogram gained between two snapshots, and
/// their sum (µs).
fn window(before: &(Log2Histogram, f64), after: &(Log2Histogram, f64)) -> (Log2Histogram, f64) {
    let mut counts = [0u64; LOG2_BUCKETS];
    for (i, c) in counts.iter_mut().enumerate() {
        *c = after
            .0
            .bucket_count(i)
            .saturating_sub(before.0.bucket_count(i));
    }
    let n = counts.iter().sum();
    let sum = (after.1 - before.1).max(0.0);
    (
        Log2Histogram::from_raw(counts, n, sum as u128, after.0.max()),
        sum,
    )
}

/// Records the daemon-side layer figures of a traced window of
/// `requests` requests, and returns each stage's time per request (s).
fn stage_metrics(
    out: &mut Outcome,
    before: &Snapshot,
    after: &Snapshot,
    requests: usize,
) -> Vec<(&'static str, f64)> {
    const P50: [&str; 10] = [
        "serve.stage.accept_p50_ms",
        "serve.stage.parse_p50_ms",
        "serve.stage.admission_p50_ms",
        "serve.stage.key_p50_ms",
        "serve.stage.mem-lookup_p50_ms",
        "serve.stage.disk-lookup_p50_ms",
        "serve.stage.simulate_p50_ms",
        "serve.stage.journal-commit_p50_ms",
        "serve.stage.evict_p50_ms",
        "serve.stage.reply_p50_ms",
    ];
    let mut per_request = Vec::new();
    for (k, stage) in Stage::ALL.iter().enumerate() {
        let (h, sum_us) = window(&before.stages[k], &after.stages[k]);
        // The document's quantiles are log2-bucket upper bounds, in µs.
        out.set(P50[k], h.p50().unwrap_or(0) as f64 / 1e3);
        per_request.push((stage.as_str(), sum_us / 1e6 / requests as f64));
        out.notes.push(format!(
            "stage {}: n={} mean={:.3} ms p50<={:.3} ms",
            stage.as_str(),
            h.count(),
            sum_us / 1e3 / h.count().max(1) as f64,
            h.p50().unwrap_or(0) as f64 / 1e3
        ));
    }
    let (mem, disk) = (
        after.mem_hits - before.mem_hits,
        after.disk_hits - before.disk_hits,
    );
    let lookups = mem + disk + (after.misses - before.misses);
    out.set("serve.mem_hit_ratio", mem as f64 / lookups.max(1) as f64);
    out.set("serve.disk_hit_ratio", disk as f64 / lookups.max(1) as f64);
    out.set("serve.hit_ratio_base", lookups as f64);
    out.set(
        "serve.evictions",
        (after.evictions - before.evictions) as f64,
    );
    out.set("serve.shed", (after.shed - before.shed) as f64);
    out.set("serve.timeouts", (after.timeouts - before.timeouts) as f64);
    per_request
}

/// Records the traced window's conservation and wire figures.
fn serve_conservation(
    out: &mut Outcome,
    untraced_ms: &[f64],
    traced_ms: &[f64],
    per_request: &[(&str, f64)],
) {
    let traced_s = stat::mean(traced_ms) / 1e3;
    let attributed: f64 = per_request.iter().map(|(_, s)| s).sum();
    out.set("serve.wire_ms", (traced_s - attributed) * 1e3);
    out.conservation(stat::mean(untraced_ms) / 1e3, traced_s, per_request);
}

/// Times the journal and store layers from outside on a private store:
/// `append_row` (fsync included) per row of `grid`, the commit rename,
/// and `DiskStore::load` of the committed entry, which must give back
/// `grid` bit for bit.
fn store_probes(
    ctx: &Ctx,
    out: &mut Outcome,
    grid: &DesignGrid,
    trace_digest: String,
) -> Result<(), Fail> {
    let store = DiskStore::open(&ctx.dir.join("probe-store"))?;
    let header = JournalHeader {
        trace_digest,
        engine: "onepass".into(),
        l1_bytes: 4096,
        warmup: Ctx::warmup(ctx.refs) as u64,
        ways: 1,
        sizes: grid.sizes.iter().map(|s| s.get()).collect(),
        cycles: grid.cycles.clone(),
        trace_id: None,
    };
    let key = job_key(&header);
    let stem = key_stem(&key).ok_or("malformed job key")?;
    let mut writer = JournalWriter::create(&store.job_journal_path(stem), &header)?;
    let mut append_ms = Vec::new();
    for i in 0..grid.sizes.len() {
        let row = JournalRow {
            row: i as u64,
            total: grid.total[i].clone(),
            l2_local: grid.l2_local[i],
            l2_global: grid.l2_global[i],
            m_l1_global: grid.m_l1_global,
            cpu_cycle_ns: grid.cpu_cycle_ns,
        };
        let t = Instant::now();
        writer.append_row(&row)?;
        append_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    drop(writer);
    store.commit_entry(stem)?;
    let mut load_ms = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let loaded = store.load(&key);
        load_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.check(loaded.as_ref() == Some(grid), || {
            "DiskStore::load did not return the committed grid".into()
        });
    }
    out.set("obs.journal_append_ms", stat::median(&append_ms));
    out.set("serve.disk_load_ms", stat::median(&load_ms));
    Ok(())
}

/// Times the key stage's two halves from outside: trace ingest and the
/// content digest. Returns the digest.
fn key_probes(ctx: &Ctx, out: &mut Outcome) -> Result<String, Fail> {
    let (trace, ingest_s) = sweep::ingest(ctx)?;
    let t = Instant::now();
    let digest = mlc_obs::digest_records_hex(&trace);
    out.set("obs.digest_s", t.elapsed().as_secs_f64());
    out.ingest(trace.len(), ingest_s);
    Ok(digest)
}

/// The set-up both serve workloads share: a fresh trace and a daemon on
/// a fresh store under `rep<n>/`.
fn start(ctx: &Ctx, rep: usize, flags: &[&str]) -> Result<Daemon, Fail> {
    ctx.generate_trace()?;
    let dir = ctx.dir.join(format!("rep{rep}"));
    std::fs::create_dir_all(&dir)?;
    Daemon::start(&ctx.bin, &dir, flags)
}

fn stop(daemon: Daemon) -> Result<(), Fail> {
    let store = daemon.store.clone();
    daemon.stop()?;
    std::fs::remove_dir_all(store)?;
    Ok(())
}

/// `serve_cold`: one client; every request is a distinct key (a seeded
/// cycle-time window over the same trace), so each misses both tiers
/// and runs the write path: simulate, journal, commit, evict.
pub fn cold(ctx: &Ctx) -> Result<Outcome, Fail> {
    let mut out = Outcome::default();
    let flags = ["--disk-budget", COLD_DISK_BUDGET];
    let (daemon, setup_s) = ctx.repeat_setup(|rep| start(ctx, rep, &flags), stop)?;
    out.set("setup_s", setup_s);

    let mut offsets: Vec<u64> = (1..=COLD_WINDOWS).collect();
    SplitMix::new(ctx.seed, 1).shuffle(&mut offsets);
    let grid_of = |n: usize| Grid {
        sizes: COLD_SIZES.iter().map(|&s| ByteSize::new(s)).collect(),
        cycles: (offsets[n]..offsets[n] + COLD_LANES).collect(),
    };
    let next = std::sync::atomic::AtomicUsize::new(0);
    let request = |_: usize, _: usize| {
        let n = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        (n < offsets.len())
            .then(|| grid_of(n).submit(ctx, format!("perfbench-cold-{}-{n}", ctx.seed)))
    };
    let first = std::sync::Mutex::new(None);
    let check = |_: usize, i: usize, a: &Answer| {
        if i == 0 {
            first
                .lock()
                .expect("first answer")
                .get_or_insert_with(|| a.grid_json.clone());
        }
        a.source == Source::Computed
    };
    let (samples, elapsed) = closed_loop(&daemon, 1, ctx.seconds, &request, &check)?;
    let lat_ms = tally(&mut out, &samples);
    let refs_configs = (ctx.refs * grid_of(0).points()) as f64;
    out.latency(&lat_ms, elapsed, refs_configs);

    let traced = if ctx.traced {
        let mut stats = daemon.connect()?;
        let before = Snapshot::read(&mut stats)?;
        let (samples, _) = closed_loop(&daemon, 1, ctx.seconds, &request, &check)?;
        let after = Snapshot::read(&mut stats)?;
        Some((samples, before, after))
    } else {
        None
    };
    out.set("peak_rss_mb", daemon.stop()?.peak_rss_mb);

    // Correctness gate: the first answer equals the grid computed
    // in-process through the same public row entry point.
    let first = first
        .into_inner()
        .expect("first answer")
        .ok_or("no answer")?;
    let (trace, _) = sweep::ingest(ctx)?;
    let rows = sweep::timed_rows(&grid_of(0), &trace)?;
    let expected = mlc_serve::grid_to_json(&rows.grid).to_string_compact();
    out.check(first == expected, || {
        "mlc-serve's cold answer differs from the in-process grid".into()
    });
    crate::check_golden(
        ctx,
        "serve_cold",
        &crate::digest_hex(first.as_bytes()),
        &mut out,
    );

    if let Some((samples, before, after)) = traced {
        let traced_ms = tally(&mut out, &samples);
        let per_request = stage_metrics(&mut out, &before, &after, samples.len());
        serve_conservation(&mut out, &lat_ms, &traced_ms, &per_request);
        out.set(
            "obs.journal_rows",
            (samples.len() * COLD_SIZES.len()) as f64,
        );
        sweep::row_metrics(&mut out, &grid_of(0), trace.len(), &rows)?;
        drop(trace);
        let digest = key_probes(ctx, &mut out)?;
        store_probes(ctx, &mut out, &rows.grid, digest)?;
    }
    Ok(out)
}

/// A client's request sequence over `HIT_KEYS` keys: Zipf-skewed with
/// a seeded popularity order.
fn skewed_sequence(rng: &mut SplitMix, len: usize) -> Vec<usize> {
    let mut rank: Vec<usize> = (0..HIT_KEYS).collect();
    rng.shuffle(&mut rank);
    let weights: Vec<f64> = (0..HIT_KEYS)
        .map(|r| 1.0 / ((r + 1) as f64).powf(HIT_SKEW))
        .collect();
    let total: f64 = weights.iter().sum();
    (0..len)
        .map(|_| {
            let mut u = rng.unit() * total;
            let mut r = 0;
            while r + 1 < HIT_KEYS && u >= weights[r] {
                u -= weights[r];
                r += 1;
            }
            rank[r]
        })
        .collect()
}

/// A filled `serve_hits` daemon, each key's recorded answer, and each
/// client's request sequence (key indices).
type HitSet = (Daemon, Vec<String>, Vec<Vec<usize>>);

/// `serve_hits`: `nproc` clients send a seeded skewed mix over a
/// pre-computed key set larger than the memory tier, so memory and
/// disk hits interleave and key resolution does the work.
pub fn hits(ctx: &Ctx) -> Result<Outcome, Fail> {
    let mut out = Outcome::default();
    let clients = ctx.nproc;
    let mut cycles: Vec<u64> = (1..=30).collect();
    SplitMix::new(ctx.seed, 2).shuffle(&mut cycles);
    let grid_of = |k: usize| Grid {
        sizes: vec![ByteSize::new(HIT_SIZE)],
        cycles: vec![cycles[k]],
    };
    let submit = |k: usize, tag: &str| grid_of(k).submit(ctx, format!("perfbench-hits-{tag}"));

    let setup = |rep: usize| -> Result<HitSet, Fail> {
        let daemon = start(ctx, rep, &["--mem-entries", HIT_MEM_ENTRIES])?;
        let answers = std::sync::Mutex::new(vec![String::new(); HIT_KEYS]);
        let populate = |c: usize, i: usize| {
            let k = c + i * clients;
            (k < HIT_KEYS).then(|| submit(k, &format!("fill-{k}")))
        };
        let record = |c: usize, i: usize, a: &Answer| {
            answers.lock().expect("answers")[c + i * clients] = a.grid_json.clone();
            a.source == Source::Computed
        };
        let (samples, _) = closed_loop(&daemon, clients, f64::INFINITY, &populate, &record)?;
        if samples.len() != HIT_KEYS || samples.iter().any(|s| !s.ok) {
            return Err("pre-populating the hit set failed".into());
        }
        let mut rng = SplitMix::new(ctx.seed, 3);
        let sequences = (0..clients)
            .map(|_| skewed_sequence(&mut rng, 100_000))
            .collect();
        Ok((daemon, answers.into_inner().expect("answers"), sequences))
    };
    let ((daemon, answers, sequences), setup_s) =
        ctx.repeat_setup(setup, |(daemon, _, _)| stop(daemon))?;
    out.set("setup_s", setup_s);

    let request = |c: usize, i: usize| {
        sequences[c]
            .get(i)
            .map(|&k| submit(k, &format!("{}-{c}-{i}", ctx.seed)))
    };
    let check = |c: usize, i: usize, a: &Answer| {
        matches!(a.source, Source::Memory | Source::Disk) && a.grid_json == answers[sequences[c][i]]
    };
    let (samples, elapsed) = closed_loop(&daemon, clients, ctx.seconds, &request, &check)?;
    let lat_ms = tally(&mut out, &samples);
    out.latency(&lat_ms, elapsed, ctx.refs as f64);
    let answered_by = |tier| samples.iter().any(|s| s.source == Some(tier));
    out.check(
        answered_by(Source::Memory) && answered_by(Source::Disk),
        || "expected both memory and disk hits".into(),
    );

    let traced = if ctx.traced {
        // The traced window continues each client's sequence past the
        // untraced window's requests.
        let offset = samples.len();
        let request = |c: usize, i: usize| request(c, i + offset);
        let check = |c: usize, i: usize, a: &Answer| check(c, i + offset, a);
        let mut stats = daemon.connect()?;
        let before = Snapshot::read(&mut stats)?;
        let (samples, _) = closed_loop(&daemon, clients, ctx.seconds, &request, &check)?;
        let after = Snapshot::read(&mut stats)?;
        Some((samples, before, after))
    } else {
        None
    };
    out.set("peak_rss_mb", daemon.stop()?.peak_rss_mb);
    let digest_all: String = answers.concat();
    crate::check_golden(
        ctx,
        "serve_hits",
        &crate::digest_hex(digest_all.as_bytes()),
        &mut out,
    );

    if let Some((samples, before, after)) = traced {
        let traced_ms = tally(&mut out, &samples);
        let tier_p50 = |tier: Source| {
            let xs: Vec<f64> = samples
                .iter()
                .filter(|s| s.ok && s.source == Some(tier))
                .map(|s| s.ms)
                .collect();
            if xs.is_empty() {
                0.0
            } else {
                stat::median(&xs)
            }
        };
        out.set("serve.mem_hit_p50_ms", tier_p50(Source::Memory));
        out.set("serve.disk_hit_p50_ms", tier_p50(Source::Disk));
        let per_request = stage_metrics(&mut out, &before, &after, samples.len());
        serve_conservation(&mut out, &lat_ms, &traced_ms, &per_request);
        let digest = key_probes(ctx, &mut out)?;
        let grid = grid_from_json(&JsonValue::parse(&answers[0])?)?;
        store_probes(ctx, &mut out, &grid, digest)?;
    }
    Ok(out)
}
