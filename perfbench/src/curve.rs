//! `curve_paper`: `Explorer::miss_ratio_curve` computes the Figure 3-1
//! curve (4 KB split L1, 8 KB–4 MB L2 ladder) from the trace file, one
//! job at a time.
//!
//! The jobs run in a worker child (this binary, re-entered with
//! `--curve-worker`) so that `peak_rss_mb` is the curve's own peak, not
//! the set-up's. The traced run replays the curve in-process, timing
//! its layers through their public entry points: the per-size
//! `simulate_with_warmup` runs (`HierarchySim`) and the
//! `SoloMissSweep` stack pass, serial and sharded.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use mlc_cache::ByteSize;
use mlc_core::{par_map, size_ladder, Explorer, MissRatioPoint, SoloMissSweep};
use mlc_sim::machine::BaseMachine;
use mlc_sim::simulate_with_warmup;
use mlc_trace::TraceRecord;

use crate::proc::Guard;
use crate::{stat, Ctx, Fail, Outcome};

/// L2 block size and associativity of the paper's base machine, which
/// the stack pass is keyed on.
const L2_BLOCK: u64 = 32;
const L2_WAYS: u32 = 1;

fn base() -> BaseMachine {
    let mut base = BaseMachine::new();
    base.l1_total(ByteSize::kib(4));
    base
}

fn sizes() -> Vec<ByteSize> {
    size_ladder(ByteSize::kib(8), ByteSize::mib(4))
}

/// The shard count `SoloMissSweep::run_sharded` picks on this machine
/// for the curve's ladder: the parallelism rounded up to a power of
/// two, capped by the smallest size's set count.
pub fn stack_shards(nproc: usize) -> u64 {
    (nproc as u64)
        .next_power_of_two()
        .min(SoloMissSweep::max_shards(L2_BLOCK, L2_WAYS, &sizes()))
}

/// Digest of every value of a curve, bit-exact.
fn curve_digest(curve: &[MissRatioPoint]) -> String {
    let mut bytes = Vec::new();
    for p in curve {
        bytes.extend(p.size.get().to_le_bytes());
        for v in [p.local, p.global, p.solo] {
            bytes.extend(v.to_bits().to_le_bytes());
        }
    }
    crate::digest_hex(&bytes)
}

/// Digest of the solo column alone.
fn solo_digest(solo: impl Iterator<Item = f64>) -> String {
    let bytes: Vec<u8> = solo.flat_map(|v| v.to_bits().to_le_bytes()).collect();
    crate::digest_hex(&bytes)
}

fn load(path: &std::path::Path) -> Result<Vec<TraceRecord>, Fail> {
    Ok(mlc_trace::slice::read_binary_slice(&crate::read(path)?)?)
}

/// The worker: `--curve-worker TRACE SECONDS`. Computes the curve from
/// the trace file repeatedly, one job after another, until SECONDS have
/// passed (at least once), printing `job <secs> <curve> <solo>` lines.
pub fn worker() -> Result<(), Fail> {
    let args: Vec<String> = std::env::args().skip(2).collect();
    let [trace, seconds] = args.as_slice() else {
        return Err("usage: perfbench --curve-worker TRACE SECONDS".into());
    };
    let trace = PathBuf::from(trace);
    let seconds: f64 = seconds.parse()?;
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let records = load(&trace)?;
        let explorer = Explorer::new(&records, Ctx::warmup(records.len()));
        let curve = explorer.miss_ratio_curve(&base(), &sizes());
        let secs = t.elapsed().as_secs_f64();
        println!(
            "job {secs} {} {}",
            curve_digest(&curve),
            solo_digest(curve.iter().map(|p| p.solo))
        );
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(());
        }
    }
}

/// The `curve_paper` workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, Fail> {
    let mut out = Outcome::default();
    let ((), setup_s) = ctx.repeat_setup(|_| ctx.generate_trace(), |()| Ok(()))?;
    out.set("setup_s", setup_s);

    let start = Instant::now();
    let mut worker = Guard::spawn(
        Command::new(std::env::current_exe()?)
            .arg("--curve-worker")
            .arg(ctx.trace_path())
            .arg(ctx.seconds.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped()),
    )?;
    let stdout = worker.stdout().ok_or("worker stdout")?;
    let mut jobs: Vec<(f64, String, String)> = Vec::new();
    for line in BufReader::new(stdout).lines() {
        let line = line?;
        let f: Vec<&str> = line.split_whitespace().collect();
        if let ["job", secs, curve, solo] = f.as_slice() {
            jobs.push((secs.parse()?, curve.to_string(), solo.to_string()));
        }
    }
    let reaped = worker.reap(Duration::from_secs(150))?;
    let elapsed = start.elapsed().as_secs_f64();
    if !reaped.success || jobs.is_empty() {
        return Err("the curve worker failed".into());
    }
    out.attempted = jobs.len() as u64;
    let (_, curve, solo) = jobs[0].clone();
    let agree = jobs.iter().all(|j| j.1 == curve);
    out.check(agree, || "curve jobs on one trace disagree".into());
    let lat_ms: Vec<f64> = jobs.iter().map(|j| j.0 * 1e3).collect();
    out.latency(&lat_ms, elapsed, (ctx.refs * sizes().len()) as f64);
    out.set("peak_rss_mb", reaped.peak_rss_mb);
    crate::check_golden(ctx, "curve_paper", &curve, &mut out);

    // Correctness oracle: the serial stack pass gives the solo column
    // the sharded pass inside the curve produced.
    let (trace, ingest_s) = crate::sweep::ingest(ctx)?;
    let warmup = Ctx::warmup(trace.len());
    let t = Instant::now();
    let serial = SoloMissSweep::run(L2_BLOCK, L2_WAYS, &sizes(), &trace, warmup);
    let serial_s = t.elapsed().as_secs_f64();
    let serial_solo = (0..sizes().len()).map(|i| serial.read_miss_ratio(i).unwrap_or(f64::NAN));
    out.check(solo_digest(serial_solo) == solo, || {
        "the curve's solo column differs from the serial stack pass".into()
    });

    if ctx.traced {
        out.ingest(trace.len(), ingest_s);
        out.set("core.stack_serial_s", serial_s);
        out.set("core.stack_shards", stack_shards(ctx.nproc) as f64);
        drop(trace);
        traced(ctx, &mut out, stat::median(&lat_ms) / 1e3, &curve)?;
    }
    Ok(out)
}

/// The traced replay of one curve job, layer by layer, in the order
/// `miss_ratio_curve` runs them.
fn traced(ctx: &Ctx, out: &mut Outcome, untraced_s: f64, curve: &str) -> Result<(), Fail> {
    let t = Instant::now();
    let (trace, ingest_s) = crate::sweep::ingest(ctx)?;
    let warmup = Ctx::warmup(trace.len());
    let t_sim = Instant::now();
    let per_size = par_map(sizes(), |size| {
        let mut machine = base();
        machine.l2_total(size);
        let config = machine.build().expect("ladder sizes are valid");
        let t = Instant::now();
        let result = simulate_with_warmup(config, trace.iter().copied(), warmup)
            .expect("ladder sizes are valid");
        (result, t.elapsed().as_secs_f64())
    });
    let sim_s = t_sim.elapsed().as_secs_f64();
    let t_stack = Instant::now();
    let stack = SoloMissSweep::run_sharded(L2_BLOCK, L2_WAYS, &sizes(), &trace, warmup);
    let stack_s = t_stack.elapsed().as_secs_f64();
    let traced_s = t.elapsed().as_secs_f64();

    let replayed: Vec<MissRatioPoint> = sizes()
        .into_iter()
        .zip(&per_size)
        .enumerate()
        .map(|(i, (size, (r, _)))| MissRatioPoint {
            size,
            local: r.local_read_miss_ratio(1).unwrap_or(f64::NAN),
            global: r.global_read_miss_ratio(1).unwrap_or(f64::NAN),
            solo: stack.read_miss_ratio(i).unwrap_or(f64::NAN),
        })
        .collect();
    out.check(curve_digest(&replayed) == curve, || {
        "the traced replay's curve differs from miss_ratio_curve's".into()
    });
    let busy: f64 = per_size.iter().map(|(_, s)| s).sum();
    out.set(
        "sim.hierarchy_ns_per_ref",
        busy * 1e9 / (per_size.len() * trace.len()) as f64,
    );
    out.set("core.stack_sharded_s", stack_s);
    out.conservation(
        untraced_s,
        traced_s,
        &[
            ("trace.ingest", ingest_s),
            ("sim.hierarchy", sim_s),
            ("core.stack_sharded", stack_s),
        ],
    );
    Ok(())
}
