//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! bash perfbench/run.sh --workload sweep_paper --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each run generates its inputs from `--seed`, measures one workload
//! for `--seconds`, checks every output, and prints one JSON result as
//! its last stdout line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See `perfbench/README.md`.

mod client;
mod curve;
mod proc;
mod serve;
mod stat;
mod sweep;

use std::collections::BTreeMap;
use std::fs;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use mlc_core::{DesignGrid, Table};
use mlc_trace::synth::{workload::Preset, MultiProgramGenerator};

/// Any failure that ends a run without a result.
pub type Fail = Box<dyn std::error::Error + Send + Sync>;

/// The end-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("req_p50_ms", "ms"),
    ("req_tail_ms", "ms"),
    ("req_per_s", "1/s"),
    ("job_mrefs_per_s", "Mref/s"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
];

/// The per-layer metrics, printed by every traced run. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.ingest_s", "s"),
    ("trace.ingest_mrec_per_s", "Mrec/s"),
    ("obs.digest_s", "s"),
    ("obs.journal_append_ms", "ms"),
    ("obs.journal_rows", "count"),
    ("sim.sweep_row_s", "s"),
    ("sim.sweep_ns_per_ref_lane", "ns"),
    ("sim.sweep_lane_fill", "ratio"),
    ("sim.lane_width", "count"),
    ("sim.hierarchy_ns_per_ref", "ns"),
    ("core.stack_serial_s", "s"),
    ("core.stack_sharded_s", "s"),
    ("core.stack_shards", "count"),
    ("core.par_efficiency", "ratio"),
    ("core.row_imbalance", "ratio"),
    ("serve.stage.accept_p50_ms", "ms"),
    ("serve.stage.parse_p50_ms", "ms"),
    ("serve.stage.admission_p50_ms", "ms"),
    ("serve.stage.key_p50_ms", "ms"),
    ("serve.stage.mem-lookup_p50_ms", "ms"),
    ("serve.stage.disk-lookup_p50_ms", "ms"),
    ("serve.stage.simulate_p50_ms", "ms"),
    ("serve.stage.journal-commit_p50_ms", "ms"),
    ("serve.stage.evict_p50_ms", "ms"),
    ("serve.stage.reply_p50_ms", "ms"),
    ("serve.disk_load_ms", "ms"),
    ("serve.mem_hit_ratio", "ratio"),
    ("serve.disk_hit_ratio", "ratio"),
    ("serve.hit_ratio_base", "count"),
    ("serve.mem_hit_p50_ms", "ms"),
    ("serve.disk_hit_p50_ms", "ms"),
    ("serve.evictions", "count"),
    ("serve.shed", "count"),
    ("serve.timeouts", "count"),
    ("serve.wire_ms", "ms"),
    ("fail_ratio", "ratio"),
    ("unattributed_share", "ratio"),
    ("trace_overhead_share", "ratio"),
    ("env.nproc", "count"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["sweep_paper", "curve_paper", "serve_cold", "serve_hits"];

/// References per generated trace: the paper-scale setting.
const PAPER_REFS: usize = 8_000_000;

/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// The largest |unattributed_share| the conservation check accepts: the
/// attributed layers must cover the traced end-to-end time to within
/// this share, as CycleLedger buckets cover `total_cycles`.
pub const CONSERVATION_SLACK: f64 = 0.05;

/// Everything a workload needs to run.
#[derive(Debug)]
pub struct Ctx {
    /// The workload seed.
    pub seed: u64,
    /// How long the measured loop runs, in seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
    /// References per generated trace.
    pub refs: usize,
    /// Directory holding the release binaries under test.
    pub bin: PathBuf,
    /// This run's private work directory.
    pub dir: PathBuf,
    /// Available parallelism, which bounds client threads.
    pub nproc: usize,
}

impl Ctx {
    /// The generated trace file.
    pub fn trace_path(&self) -> PathBuf {
        self.dir.join("trace.mlcz")
    }

    /// Generates the seed's trace (the preset the paper's VMS traces
    /// model) and writes it in the compressed binary layout. The
    /// programs under test receive only this file.
    pub fn generate_trace(&self) -> Result<(), Fail> {
        let mut generator = MultiProgramGenerator::new(Preset::Vms1.config(self.seed))?;
        let records = generator.generate_records(self.refs);
        let file = fs::File::create(self.trace_path())?;
        mlc_trace::binary::write_compressed(BufWriter::new(file), &records)?;
        Ok(())
    }

    /// Runs `setup` [`SETUP_REPS`] times, tearing down all but the last
    /// with `teardown`, and returns the last set-up plus the median
    /// set-up time in seconds.
    pub fn repeat_setup<T>(
        &self,
        mut setup: impl FnMut(usize) -> Result<T, Fail>,
        mut teardown: impl FnMut(T) -> Result<(), Fail>,
    ) -> Result<(T, f64), Fail> {
        let mut times = Vec::new();
        let mut last = None;
        for rep in 0..SETUP_REPS {
            if let Some(prev) = last.take() {
                teardown(prev)?;
            }
            let t = Instant::now();
            last = Some(setup(rep)?);
            times.push(t.elapsed().as_secs_f64());
        }
        Ok((last.expect("at least one set-up"), stat::median(&times)))
    }

    /// Warm-up records of a trace of `len` records: the first 25%, the
    /// CLI default.
    pub fn warmup(len: usize) -> usize {
        (len as f64 * 0.25) as usize
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests or jobs attempted.
    pub attempted: u64,
    /// Requests or jobs that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Failed checks, each described (an empty list means correct).
    pub errors: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Context lines printed ahead of the result (tail percentiles,
    /// sample counts, conservation figures).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a check; a failed one counts as a failed attempt.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
            self.failed += 1;
        }
    }

    /// Fills the latency metrics shared by every workload from one
    /// sample of request latencies (ms) over `elapsed_s` of measured
    /// time; `refs_configs` is trace references × configurations
    /// answered per request.
    pub fn latency(&mut self, lat_ms: &[f64], elapsed_s: f64, refs_configs: f64) {
        let p50 = stat::median(lat_ms);
        let (pct, tail) = stat::tail(lat_ms);
        self.set("req_p50_ms", p50);
        self.set("req_tail_ms", tail);
        self.set("req_per_s", lat_ms.len() as f64 / elapsed_s);
        self.set("job_mrefs_per_s", refs_configs / (p50 / 1e3) / 1e6);
        self.notes.push(format!(
            "latency: n={} p50={p50:.3} ms tail=p{pct} {tail:.3} ms over {elapsed_s:.3} s",
            lat_ms.len()
        ));
    }

    /// Records the trace layer's figures: `records` decoded in `secs`.
    pub fn ingest(&mut self, records: usize, secs: f64) {
        self.set("trace.ingest_s", secs);
        self.set("trace.ingest_mrec_per_s", records as f64 / secs / 1e6);
    }

    /// Records the conservation figures of a traced run: the attributed
    /// layer times against the traced end-to-end time they tile (the
    /// ledger rule), and the traced end-to-end time against the
    /// untraced one (the cost of tracing).
    pub fn conservation(&mut self, untraced_s: f64, traced_s: f64, layers: &[(&str, f64)]) {
        let attributed: f64 = layers.iter().map(|(_, s)| s).sum();
        let unattributed = (traced_s - attributed) / traced_s;
        self.set("unattributed_share", unattributed);
        self.set("trace_overhead_share", (traced_s - untraced_s) / untraced_s);
        let parts: Vec<String> = layers
            .iter()
            .map(|(name, s)| format!("{name}={s:.4}s"))
            .collect();
        self.notes.push(format!(
            "conservation: traced end-to-end {traced_s:.4}s = {} + unattributed {:.2}% (untraced {untraced_s:.4}s)",
            parts.join(" + "),
            unattributed * 100.0
        ));
        self.check(unattributed.abs() <= CONSERVATION_SLACK, || {
            format!(
                "conservation: unattributed share {unattributed:.4} exceeds the slack {CONSERVATION_SLACK}"
            )
        });
    }
}

/// The grid CSV exactly as `mlc-sweep --out` and `mlc-client --out`
/// write it.
pub fn grid_csv(grid: &DesignGrid) -> String {
    let mut headers: Vec<String> = vec!["t_L2 \\ size".into()];
    headers.extend(grid.sizes.iter().map(|s| s.to_string()));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut csv = Table::new("grid", &header_refs);
    for (j, &c) in grid.cycles.iter().enumerate() {
        let mut row = vec![format!("{c}")];
        row.extend((0..grid.sizes.len()).map(|i| {
            if grid.total[i][j] == DesignGrid::FAILED {
                "FAILED".to_string()
            } else {
                grid.total[i][j].to_string()
            }
        }));
        csv.row(row);
    }
    csv.to_csv()
}

/// The fnv1a64 digest of `bytes`, as 16 hex digits.
pub fn digest_hex(bytes: &[u8]) -> String {
    let mut h = mlc_obs::Fnv64::new();
    h.write(bytes);
    format!("{:016x}", h.finish())
}

/// Checks `digest` against the output digest recorded for this
/// workload and seed in `perfbench/golden.txt` (paper-scale traces
/// only). Seeds without a record are reported, not failed: the
/// workload's cross-path checks still apply to them.
pub fn check_golden(ctx: &Ctx, workload: &str, digest: &str, out: &mut Outcome) {
    out.notes.push(format!(
        "output digest {workload} seed {} = {digest}",
        ctx.seed
    ));
    if ctx.refs != PAPER_REFS {
        return;
    }
    let golden = fs::read_to_string("perfbench/golden.txt").unwrap_or_default();
    let recorded = golden.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next() == Some(workload) && f.next() == Some(&ctx.seed.to_string()))
            .then(|| f.next().map(str::to_owned))
            .flatten()
    });
    match recorded {
        Some(want) => out.check(want == digest, || {
            format!("{workload} output digest {digest} differs from the recorded {want}")
        }),
        None => out.notes.push(format!(
            "no recorded digest for {workload} seed {}",
            ctx.seed
        )),
    }
}

/// Whether `-C target-cpu=native` is in effect for the build.
fn target_cpu_native() -> bool {
    let in_env = ["RUSTFLAGS", "CARGO_ENCODED_RUSTFLAGS"]
        .iter()
        .any(|v| std::env::var(v).is_ok_and(|s| s.contains("target-cpu=native")));
    let in_config = fs::read_to_string(".cargo/config.toml").is_ok_and(|s| {
        s.lines()
            .any(|l| !l.trim_start().starts_with('#') && l.contains("target-cpu=native"))
    });
    in_env || in_config
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    refs: usize,
}

fn parse_args() -> Result<Args, Fail> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        refs: PAPER_REFS,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse()?,
            "--seconds" => args.seconds = value()?.parse()?,
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v:?}").into()),
                }
            }
            "--refs" => args.refs = value()?.parse()?,
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        )
        .into());
    }
    Ok(args)
}

fn run() -> Result<(), Fail> {
    let args = parse_args()?;
    if args.refs < 10_000 {
        return Err("--refs must be at least 10000".into());
    }
    let bin = PathBuf::from(std::env::var("PERFBENCH_BIN_DIR").unwrap_or_else(|_| {
        let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
        format!("{target}/release")
    }));
    for exe in ["mlc-sweep", "mlc-serve"] {
        if !bin.join(exe).is_file() {
            return Err(format!(
                "{} not built; run perfbench/run.sh",
                bin.join(exe).display()
            )
            .into());
        }
    }
    let dir = PathBuf::from(".bench_run").join(format!("{}-{}", args.workload, std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir)?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        refs: args.refs,
        bin,
        dir,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let result = match args.workload.as_str() {
        "sweep_paper" => sweep::run(&ctx),
        "curve_paper" => curve::run(&ctx),
        "serve_cold" => serve::cold(&ctx),
        _ => serve::hits(&ctx),
    };
    let _ = fs::remove_dir_all(&ctx.dir);
    let _ = fs::remove_dir(".bench_run");
    let mut out = result?;
    out.failed = out.failed.min(out.attempted);
    out.set("env.nproc", ctx.nproc as f64);
    out.set(
        "fail_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.set(
        "ok_ratio",
        (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
    );
    print_result(&ctx, &args.workload, &out)
}

fn print_result(ctx: &Ctx, workload: &str, out: &Outcome) -> Result<(), Fail> {
    println!(
        "env workload={workload} seed={} seconds={} traced={} refs={} nproc={} stack_shards={} lane_width={} profile={} target_cpu_native={}",
        ctx.seed,
        ctx.seconds,
        ctx.traced,
        ctx.refs,
        ctx.nproc,
        curve::stack_shards(ctx.nproc),
        sweep::lane_width()?,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        target_cpu_native(),
    );
    for note in &out.notes {
        println!("{note}");
    }
    for e in &out.errors {
        println!("check failed: {e}");
    }
    let wanted = if ctx.traced { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in wanted {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            None if ctx.traced => 0.0,
            None => return Err(format!("{workload} did not measure {name}").into()),
        };
        if !value.is_finite() {
            return Err(format!("{workload} measured a non-finite {name}").into());
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = out.errors.is_empty() && out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--curve-worker") {
        return match curve::worker() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench curve worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Reads `path` whole, naming it in the error.
pub fn read(path: &Path) -> Result<Vec<u8>, Fail> {
    fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()).into())
}
