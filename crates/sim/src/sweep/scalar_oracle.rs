//! The scalar hit path against the full path it shortcuts: the same
//! engine runs every machine twice, once with [`NoObserver`] (which
//! opts in) and once with an observer that opts out, and every live
//! lane's [`SimResult`] must be bit-equal, stall counters included.
//!
//! The comparison needs the crate-private engine and observer types,
//! so it lives beside them rather than under `tests/`.

use mlc_cache::{AllocPolicy, ByteSize, CacheConfig, WritePolicy};
use mlc_trace::synth::{workload::Preset, MultiProgramGenerator};

use super::*;
use crate::machine::{single_level, BaseMachine};

const RECORDS: usize = 60_000;
/// The measurement window restarts mid-trace.
const WARMUP: usize = RECORDS / 2;

/// Every hook empty, like [`NoObserver`], but every record takes the
/// full path.
#[derive(Debug, Clone)]
struct FullPath;

impl Observer for FullPath {}

fn traces() -> [(&'static str, Vec<TraceRecord>); 2] {
    let trace = |preset: Preset| {
        MultiProgramGenerator::new(preset.config(17))
            .expect("valid preset")
            .generate_records(RECORDS)
    };
    [
        ("mips1", trace(Preset::Mips1)),
        ("vms1", trace(Preset::Vms1)),
    ]
}

/// Runs `configs` at width `W` on both paths and compares every live
/// lane; returns the scalar path's hit count.
fn compare<const W: usize>(what: &str, configs: &[HierarchyConfig], trace: &[TraceRecord]) -> u64 {
    let metrics = Metrics::disabled();
    let mut scalar = SweepSimW::<W, NoObserver>::new(configs, NoObserver).unwrap();
    warm_then_measure(&mut scalar, trace.iter().copied(), WARMUP, &metrics, "t");
    let mut full = SweepSimW::<W, FullPath>::new(configs, FullPath).unwrap();
    warm_then_measure(&mut full, trace.iter().copied(), WARMUP, &metrics, "t");
    assert_eq!(full.scalar_hits(), 0, "{what}: the opted-out run");
    let (got, want) = (scalar.results(), full.results());
    assert_eq!(got.len(), configs.len());
    for (lane, (got, want)) in got.iter().zip(&want).enumerate() {
        assert_eq!(got, want, "{what}: lane {lane}");
    }
    scalar.scalar_hits()
}

/// `machine` at each point of the 1–10 L2-cycle ladder.
fn ladder(machine: impl Fn(u64) -> HierarchyConfig) -> Vec<HierarchyConfig> {
    (1..=10).map(machine).collect()
}

/// Compares `configs` at width 10 and its first two lanes at width 2,
/// and checks that the scalar path was taken.
fn assert_exact(what: &str, configs: &[HierarchyConfig], trace: &[TraceRecord]) {
    let hits = compare::<10>(what, configs, trace);
    assert!(hits > 0, "{what}: no record took the scalar path");
    assert!(
        compare::<2>(what, &configs[..2], trace) > 0,
        "{what} at width 2"
    );
}

#[test]
fn base_machines_match_the_full_path() {
    for (name, trace) in traces() {
        for l2 in [16, 64, 512] {
            for ways in [1, 4] {
                for memory in [0.25, 1.0, 4.0] {
                    let configs = ladder(|cycles| {
                        BaseMachine::new()
                            .l2_total(ByteSize::kib(l2))
                            .l2_ways(ways)
                            .memory_scale(memory)
                            .l2_cycles(cycles)
                            .build()
                            .unwrap()
                    });
                    let what = format!("{name} L2 {l2}K {ways}-way memory x{memory}");
                    assert_exact(&what, &configs, &trace);
                }
            }
        }
    }
}

/// A write hit on a write-through L1 forwards its data, so it takes the
/// full path; read hits still take the scalar one.
#[test]
fn write_through_l1_matches_the_full_path() {
    let dcache = CacheConfig::builder()
        .total(ByteSize::kib(2))
        .block_bytes(16)
        .write_policy(WritePolicy::WriteThrough)
        .alloc_policy(AllocPolicy::NoWriteAllocate)
        .build()
        .unwrap();
    for (name, trace) in traces() {
        for entries in [1, 2, 4] {
            let configs = ladder(|cycles| {
                let mut config = BaseMachine::new().l2_cycles(cycles).build().unwrap();
                if let LevelCacheConfig::Split { dcache: d, .. } = &mut config.levels[0].cache {
                    *d = dcache;
                }
                for level in &mut config.levels {
                    level.write_buffer_entries = entries;
                }
                config
            });
            let what = format!("{name} write-through L1, {entries}-entry buffers");
            assert_exact(&what, &configs, &trace);
        }
    }
}

/// Lanes whose L1 cycle times differ never take the scalar path.
#[test]
fn differing_l1_cycles_never_take_the_scalar_path() {
    for (name, trace) in traces() {
        for (field, read) in [("read", true), ("write", false)] {
            let configs = ladder(|cycles| {
                let mut config = BaseMachine::new().l2_cycles(cycles).build().unwrap();
                let l1 = &mut config.levels[0];
                if read {
                    l1.read_cycles += cycles % 2;
                } else {
                    l1.write_cycles += cycles % 2;
                }
                config
            });
            let what = format!("{name} L1 {field} cycles differing");
            assert_eq!(compare::<10>(&what, &configs, &trace), 0, "{what}");
        }
    }
}

/// A unified L1 serves the fetch and the data access of a cycle on one
/// port, so a data hit sharing a scalar fetch's cycle waits for it.
#[test]
fn unified_l1_matches_the_full_path() {
    let l1 = CacheConfig::builder()
        .total(ByteSize::kib(16))
        .block_bytes(32)
        .build()
        .unwrap();
    for (name, trace) in traces() {
        let solo: Vec<_> = (1..=10)
            .map(|m| single_level(l1, 2, 10.0, 0.5 * m as f64))
            .collect();
        assert_exact(&format!("{name} single level"), &solo, &trace);

        let two_level = ladder(|cycles| {
            let mut config = BaseMachine::new().l2_cycles(cycles).build().unwrap();
            config.levels[0].cache = LevelCacheConfig::Unified(l1);
            config
        });
        assert_exact(&format!("{name} unified L1 over an L2"), &two_level, &trace);
    }
}
