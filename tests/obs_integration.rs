//! Cross-crate integration of the `mlc-obs` observability layer: the
//! observed simulation drivers must not perturb results, the metrics
//! they feed must be deterministic in structure, and the manifest's
//! non-timing content must be a pure function of the run's inputs.

use mlc_cache::ByteSize;
use mlc_core::{size_ladder, Explorer};
use mlc_obs::{digest_records_hex, Metrics, Progress, RunManifest};
use mlc_sim::machine::{base_machine, BaseMachine};
use mlc_sim::{simulate_with_warmup, simulate_with_warmup_observed};
use mlc_trace::synth::{workload::Preset, MultiProgramGenerator};
use mlc_trace::TraceRecord;

fn preset_trace(n: usize, seed: u64) -> Vec<TraceRecord> {
    MultiProgramGenerator::new(Preset::Vms1.config(seed))
        .expect("valid preset")
        .generate_records(n)
}

#[test]
fn observation_is_invisible_to_simulation_results() {
    let trace = preset_trace(60_000, 21);
    let metrics = Metrics::enabled();
    let observed = simulate_with_warmup_observed(base_machine(), &trace, 15_000, &metrics).unwrap();
    let plain = simulate_with_warmup(base_machine(), trace.iter().copied(), 15_000).unwrap();
    assert_eq!(observed.total_cycles, plain.total_cycles);
    assert_eq!(observed.instructions, plain.instructions);
    assert_eq!(observed.read_stall_cycles, plain.read_stall_cycles);
    assert_eq!(observed.write_stall_cycles, plain.write_stall_cycles);

    // The counters agree with the result they were derived from.
    let snap = metrics.snapshot();
    let get = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("missing {name}"))
            .1
    };
    assert_eq!(get("sim.instructions"), plain.instructions);
    assert_eq!(get("sim.memory.reads"), plain.memory.reads);
}

#[test]
fn grid_results_are_identical_with_and_without_observation() {
    let trace = preset_trace(50_000, 33);
    let sizes = size_ladder(ByteSize::kib(32), ByteSize::kib(64));
    let cycles = vec![1, 3];
    let base = BaseMachine::new();

    let bare = Explorer::new(&trace, 12_500).l2_grid(&base, &sizes, &cycles, 1);
    let metrics = Metrics::enabled();
    let progress = Progress::disabled();
    let watched = Explorer::new(&trace, 12_500)
        .with_metrics(&metrics)
        .with_progress(&progress)
        .l2_grid(&base, &sizes, &cycles, 1);
    assert_eq!(bare, watched, "observation must not change the grid");
    assert_eq!(progress.done(), (sizes.len() * cycles.len()) as u64);
}

#[test]
fn metrics_key_structure_is_deterministic_across_runs() {
    // Parallel workers record in nondeterministic order; the exported
    // key sequence must not depend on that.
    let trace = preset_trace(40_000, 8);
    let sizes = size_ladder(ByteSize::kib(16), ByteSize::kib(128));
    let keys = |m: &Metrics| {
        let snap = m.snapshot();
        (
            snap.counters
                .iter()
                .map(|(k, _)| k.clone())
                .collect::<Vec<_>>(),
            snap.phases
                .iter()
                .map(|(k, _)| k.clone())
                .collect::<Vec<_>>(),
        )
    };
    let run = || {
        let metrics = Metrics::enabled();
        Explorer::new(&trace, 10_000)
            .with_metrics(&metrics)
            .l2_grid(&BaseMachine::new(), &sizes, &[1, 2, 3], 1);
        keys(&metrics)
    };
    let (counters_a, phases_a) = run();
    let (counters_b, phases_b) = run();
    assert_eq!(counters_a, counters_b);
    assert_eq!(phases_a, phases_b);
    assert!(phases_a.iter().any(|k| k.starts_with("grid.size.")));
}

#[test]
fn manifest_non_timing_fields_reproduce_from_identical_inputs() {
    let trace = preset_trace(10_000, 55);
    let build = |phase_ms: u64| {
        let metrics = Metrics::enabled();
        metrics.record_phase("read_trace", std::time::Duration::from_millis(phase_ms));
        let mut m = RunManifest::new("mlc-sweep", "0.1.0");
        m.command([
            "--trace".into(),
            "t.mlcz".into(),
            "--sizes".into(),
            "16K:64K".into(),
        ]);
        m.trace(
            "t.mlcz",
            trace.len() as u64,
            2_500,
            &digest_records_hex(&trace),
        );
        m.engine("onepass");
        m.param("l2_ways", 1u64);
        m.set_timings(&metrics.snapshot());
        m.to_json()
    };
    let strip = |s: &str| {
        s.lines()
            .filter(|l| !l.contains("_ms\""))
            .map(str::to_owned)
            .collect::<Vec<_>>()
    };
    let a = build(3);
    let b = build(9);
    assert_eq!(strip(&a), strip(&b));
    assert_ne!(a, b, "timing values must be the only difference");
}

#[test]
fn trace_digest_is_content_sensitive_and_format_insensitive() {
    let trace = preset_trace(5_000, 77);
    let same = trace.clone();
    assert_eq!(digest_records_hex(&trace), digest_records_hex(&same));

    let mut mutated = trace.clone();
    mutated[2_500] = TraceRecord::write(mutated[2_500].addr.get() ^ 0x40);
    assert_ne!(digest_records_hex(&trace), digest_records_hex(&mutated));

    // The digest hashes records, not bytes: a round-trip through each
    // on-disk format leaves it unchanged.
    let mut fixed = Vec::new();
    mlc_trace::binary::write_binary(&mut fixed, &trace).unwrap();
    let from_fixed = mlc_trace::slice::read_binary_slice(&fixed).unwrap();
    let mut compressed = Vec::new();
    mlc_trace::binary::write_compressed(&mut compressed, &trace).unwrap();
    let from_compressed = mlc_trace::slice::read_binary_slice(&compressed).unwrap();
    assert_eq!(digest_records_hex(&from_fixed), digest_records_hex(&trace));
    assert_eq!(
        digest_records_hex(&from_compressed),
        digest_records_hex(&trace)
    );
}
