//! End-to-end integration tests spanning all workspace crates: synthetic
//! workloads → timed hierarchy simulation → analytical models.

use mlc::cache::{ByteSize, CacheConfig};
use mlc::core::ExecutionTimeModel;
use mlc::sim::machine::{base_machine, single_level, BaseMachine};
use mlc::sim::{simulate, simulate_with_warmup, solo, LevelCacheConfig};
use mlc::trace::synth::{workload::Preset, MultiProgramGenerator};
use mlc::trace::TraceRecord;

fn preset_trace(preset: Preset, n: usize, seed: u64) -> Vec<TraceRecord> {
    MultiProgramGenerator::new(preset.config(seed))
        .expect("presets are valid")
        .generate_records(n)
}

#[test]
fn all_presets_run_clean_on_base_machine() {
    for preset in Preset::ALL {
        let trace = preset_trace(preset, 60_000, 1);
        let result = simulate(base_machine(), trace).expect("base machine is valid");
        let name = preset.name();
        assert!(result.instructions > 0, "{name}");
        assert!(result.cpi().unwrap() >= 1.0, "{name}");
        for idx in 0..result.levels.len() {
            let local = result.local_read_miss_ratio(idx).unwrap();
            let global = result.global_read_miss_ratio(idx).unwrap();
            assert!((0.0..=1.0).contains(&local), "{name} level {idx}");
            assert!(local >= global - 1e-12, "{name} level {idx}");
        }
    }
}

#[test]
fn determinism_across_runs_and_presets() {
    for preset in [Preset::Vms3, Preset::Mips4] {
        let t1 = preset_trace(preset, 40_000, 9);
        let t2 = preset_trace(preset, 40_000, 9);
        assert_eq!(t1, t2, "trace generation must be deterministic");
        let r1 = simulate(base_machine(), t1).unwrap();
        let r2 = simulate(base_machine(), t2).unwrap();
        assert_eq!(r1, r2, "simulation must be deterministic");
    }
}

/// The paper's §3 independence result: once the L2 is much larger than
/// the L1, the L2 *global* miss ratio matches its *solo* miss ratio,
/// while the *local* ratio is far larger.
#[test]
fn global_miss_ratio_matches_solo_for_large_l2() {
    let trace = preset_trace(Preset::Vms1, 2_000_000, 4);
    let warmup = trace.len() / 2;
    let config = BaseMachine::new()
        .l2_total(ByteSize::kib(256))
        .build()
        .unwrap();
    let l2_config = match config.levels[1].cache {
        LevelCacheConfig::Unified(c) => c,
        _ => unreachable!(),
    };
    let result = simulate_with_warmup(config, trace.iter().copied(), warmup).unwrap();
    let global = result.global_read_miss_ratio(1).unwrap();
    let local = result.local_read_miss_ratio(1).unwrap();
    let solo = solo::solo_read_miss_ratio(
        LevelCacheConfig::Unified(l2_config),
        trace.iter().copied(),
        warmup,
    )
    .unwrap();

    assert!(
        (global - solo).abs() / solo < 0.25,
        "global {global} should approximate solo {solo} (L2 = 64x L1)"
    );
    assert!(
        local > 3.0 * global,
        "local {local} should far exceed global {global}"
    );
}

/// The filtering effect: the L1 removes most references from the L2's
/// input stream without removing many of its misses.
#[test]
fn l1_filters_references_not_misses() {
    let trace = preset_trace(Preset::Mips1, 1_000_000, 6);
    let warmup = trace.len() / 2;
    let with_l1 = simulate_with_warmup(base_machine(), trace.iter().copied(), warmup).unwrap();

    let l2_refs = with_l1.levels[1].cache.read_references();
    let cpu_reads = with_l1.cpu_reads;
    assert!(
        (l2_refs as f64) < 0.25 * cpu_reads as f64,
        "L1 should filter >75% of reads: {l2_refs} of {cpu_reads}"
    );

    // Misses, in contrast, survive: solo misses of the same L2 over the
    // full CPU stream are comparable to the hierarchy's L2 misses.
    let l2_config = CacheConfig::builder()
        .total(ByteSize::kib(512))
        .block_bytes(32)
        .build()
        .unwrap();
    let solo_stats = solo::solo_stats(
        LevelCacheConfig::Unified(l2_config),
        trace.iter().copied(),
        warmup,
    );
    let hier_misses = with_l1.levels[1].cache.read_misses() as f64;
    let solo_misses = solo_stats.read_misses() as f64;
    assert!(
        (hier_misses - solo_misses).abs() / solo_misses < 0.35,
        "L2 misses with L1 ({hier_misses}) ~ solo misses ({solo_misses})"
    );
}

/// The motivation of the paper (§1): a two-level hierarchy beats the
/// best realistic single-level cache built from the same technology.
#[test]
fn two_level_beats_single_level() {
    let trace = preset_trace(Preset::Vms2, 1_000_000, 8);
    let warmup = trace.len() / 2;
    let two_level = simulate_with_warmup(base_machine(), trace.iter().copied(), warmup).unwrap();

    // The single-level alternative: a big cache must be off-chip and
    // slow (3 cycles); a small fast one (1 cycle) misses to memory far
    // too often. Try both extremes of the single-level space.
    let mut best_single = u64::MAX;
    for (kib, cycles) in [(4u64, 1u64), (64, 2), (512, 3), (2048, 4)] {
        let cache = CacheConfig::builder()
            .total(ByteSize::kib(kib))
            .block_bytes(32)
            .build()
            .unwrap();
        let config = single_level(cache, cycles, 10.0, 1.0);
        let r = simulate_with_warmup(config, trace.iter().copied(), warmup).unwrap();
        best_single = best_single.min(r.total_cycles);
    }
    assert!(
        two_level.total_cycles < best_single,
        "two-level {} should beat best single-level {}",
        two_level.total_cycles,
        best_single
    );
}

/// Equation 1 predicts the simulator's cycle count to first order.
#[test]
fn equation_one_tracks_simulation() {
    let trace = preset_trace(Preset::Ultrix, 600_000, 12);
    let result = simulate_with_warmup(base_machine(), trace, 150_000).unwrap();
    let model = ExecutionTimeModel::from_sim(&result, 1.0, 3.0, 27.0).unwrap();
    let err = model.relative_error(&result).unwrap();
    assert!(err.abs() < 0.35, "Equation 1 error {err}");
}

#[test]
fn warmup_only_affects_statistics_not_state() {
    let trace = preset_trace(Preset::Mips3, 200_000, 14);
    let full = simulate(base_machine(), trace.iter().copied()).unwrap();
    let warm = simulate_with_warmup(base_machine(), trace.iter().copied(), 50_000).unwrap();
    // The warm window counts fewer references but the machine went
    // through the identical state trajectory: total cycles of the warm
    // window plus the discarded prefix equals the full run.
    assert!(warm.total_cycles < full.total_cycles);
    assert!(warm.instructions < full.instructions);
    let prefix = simulate(
        base_machine(),
        trace.iter().copied().take(50_000).collect::<Vec<_>>(),
    )
    .unwrap();
    assert_eq!(prefix.total_cycles + warm.total_cycles, full.total_cycles);
}

#[test]
fn three_level_hierarchy_end_to_end() {
    use mlc::sim::LevelConfig;

    let mut config = base_machine();
    let l3 = CacheConfig::builder()
        .total(ByteSize::mib(4))
        .block_bytes(64)
        .ways(2)
        .build()
        .unwrap();
    config
        .levels
        .push(LevelConfig::new("L3", LevelCacheConfig::Unified(l3), 8));
    let trace = preset_trace(Preset::Vms3, 400_000, 21);
    let r = simulate(config, trace).unwrap();
    assert_eq!(r.levels.len(), 3);
    // Reference counts must shrink monotonically down the hierarchy.
    let refs: Vec<u64> = r.levels.iter().map(|l| l.cache.read_references()).collect();
    assert!(refs[0] > refs[1] && refs[1] > refs[2], "{refs:?}");
    // Global miss ratios shrink downstream too.
    let g: Vec<f64> = (0..3)
        .map(|i| r.global_read_miss_ratio(i).unwrap())
        .collect();
    assert!(g[0] > g[1] && g[1] >= g[2], "{g:?}");
}

#[test]
fn trace_files_simulate_identically_to_memory() {
    use std::io::Cursor;

    let trace = preset_trace(Preset::Mips2, 50_000, 30);
    let mut din_bytes = Vec::new();
    mlc::trace::din::write_din(&mut din_bytes, trace.iter().copied()).unwrap();
    let from_din = mlc::trace::din::read_din(Cursor::new(&din_bytes)).unwrap();

    let mut bin_bytes = Vec::new();
    mlc::trace::binary::write_binary(&mut bin_bytes, &trace).unwrap();
    let from_bin = mlc::trace::slice::read_binary_slice(&bin_bytes).unwrap();

    let direct = simulate(base_machine(), trace).unwrap();
    let via_din = simulate(base_machine(), from_din).unwrap();
    let via_bin = simulate(base_machine(), from_bin).unwrap();
    assert_eq!(direct, via_din);
    assert_eq!(direct, via_bin);
}

/// Larger L1s lower the L1 miss ratio by roughly the paper's ~28% per
/// doubling, and never raise it.
#[test]
fn l1_scaling_lowers_miss_ratio() {
    let trace = preset_trace(Preset::Vms1, 1_500_000, 33);
    let warmup = trace.len() / 2;
    let mut prev = f64::INFINITY;
    for kib in [4u64, 8, 16, 32] {
        let config = BaseMachine::new()
            .l1_total(ByteSize::kib(kib))
            .build()
            .unwrap();
        let r = simulate_with_warmup(config, trace.iter().copied(), warmup).unwrap();
        let m = r.global_read_miss_ratio(0).unwrap();
        assert!(m < prev, "L1 {kib}KB: {m} !< {prev}");
        if prev.is_finite() {
            let factor = m / prev;
            assert!(
                (0.5..0.95).contains(&factor),
                "L1 doubling factor {factor} out of plausible range"
            );
        }
        prev = m;
    }
}
