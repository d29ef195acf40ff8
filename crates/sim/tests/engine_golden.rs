//! Golden values for the attributing simulator.
//!
//! Thirteen machine shapes × two workload presets run through
//! `HierarchySim` with a sampling tracer attached, a mid-trace
//! measurement reset, and a final `flush_all`. Each case pins four
//! digests: the `SimResult`, the `CycleLedger` rows, every histogram's
//! count/sum/max, and the sampled events. The values were recorded from
//! the simulator's original, separately written timing walk, so they
//! check that the shared engine reproduces it; any change to the cycle
//! arithmetic, the attribution hooks or the event sampling shows up here.
//! Each case also runs the plain driver, whose no-op observer lets L1
//! hits take the engine's scalar path, and requires its result to equal
//! the attributing run's (which always takes the full path).
//!
//! On a mismatch the failure message prints the whole table as computed,
//! ready to paste over `GOLDEN` once a change is known to be intended.

use mlc_cache::{AllocPolicy, ByteSize, CacheConfig, Prefetch, Replacement, WritePolicy};
use mlc_obs::EventTracer;
use mlc_sim::machine::{base_machine, single_level, BaseMachine};
use mlc_sim::{
    simulate_with_warmup, HierarchyConfig, HierarchySim, LevelCacheConfig, LevelConfig,
    MemoryConfig,
};
use mlc_trace::synth::{workload::Preset, MultiProgramGenerator};
use mlc_trace::TraceRecord;

const RECORDS: usize = 30_000;
const RESET_AT: usize = 10_000;
const SAMPLE_EVERY: u64 = 97;
const SEED: u64 = 2024;

fn cache(bytes: u64, block: u64) -> mlc_cache::CacheConfigBuilder {
    let mut b = CacheConfig::builder();
    b.total(ByteSize::new(bytes)).block_bytes(block);
    b
}

fn two_level(l1: CacheConfig, l2: CacheConfig) -> HierarchyConfig {
    HierarchyConfig {
        cpu: mlc_sim::CpuConfig::default(),
        levels: vec![
            LevelConfig::new("L1", LevelCacheConfig::Unified(l1), 1),
            LevelConfig::new("L2", LevelCacheConfig::Unified(l2), 3),
        ],
        memory: MemoryConfig::default(),
    }
}

fn with_l2(l2: CacheConfig) -> HierarchyConfig {
    let mut config = base_machine();
    config.levels[1].cache = LevelCacheConfig::Unified(l2);
    config
}

/// The thirteen machine shapes, each stressing a different corner of
/// the timing walk.
fn shapes() -> Vec<(&'static str, HierarchyConfig)> {
    let mut three = base_machine();
    three.levels.push(LevelConfig::new(
        "L3",
        LevelCacheConfig::Unified(cache(2 << 20, 32).build().unwrap()),
        6,
    ));
    let mut starved = BaseMachine::new()
        .l2_total(ByteSize::kib(8))
        .build()
        .unwrap();
    for level in &mut starved.levels {
        level.write_buffer_entries = 1;
    }
    vec![
        ("base", base_machine()),
        (
            "single-level",
            single_level(cache(16 << 10, 32).build().unwrap(), 2, 10.0, 1.0),
        ),
        ("three-level", three),
        (
            "write-through-l1",
            two_level(
                cache(4 << 10, 16)
                    .write_policy(WritePolicy::WriteThrough)
                    .alloc_policy(AllocPolicy::NoWriteAllocate)
                    .build()
                    .unwrap(),
                cache(64 << 10, 32).build().unwrap(),
            ),
        ),
        ("starved-buffers", starved),
        (
            "slow-memory",
            BaseMachine::new().memory_scale(4.0).build().unwrap(),
        ),
        (
            "victim-buffer",
            two_level(
                cache(2 << 10, 16).victim_entries(4).build().unwrap(),
                cache(64 << 10, 32).build().unwrap(),
            ),
        ),
        (
            "sub-block",
            with_l2(cache(64 << 10, 64).sub_blocks(4).build().unwrap()),
        ),
        (
            "4-way-random",
            with_l2(
                cache(32 << 10, 32)
                    .ways(4)
                    .replacement(Replacement::Random)
                    .build()
                    .unwrap(),
            ),
        ),
        (
            "next-block-prefetch",
            with_l2(
                cache(64 << 10, 32)
                    .prefetch(Prefetch::NextBlock)
                    .build()
                    .unwrap(),
            ),
        ),
        (
            "fetch-blocks-2",
            two_level(
                cache(4 << 10, 16).fetch_blocks(2).build().unwrap(),
                cache(64 << 10, 32).build().unwrap(),
            ),
        ),
        (
            "write-through-l2",
            with_l2(
                cache(32 << 10, 32)
                    .write_policy(WritePolicy::WriteThrough)
                    .alloc_policy(AllocPolicy::NoWriteAllocate)
                    .build()
                    .unwrap(),
            ),
        ),
        (
            "victim-l2",
            with_l2(cache(16 << 10, 32).victim_entries(8).build().unwrap()),
        ),
    ]
}

/// 64-bit FNV-1a.
fn fnv(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Runs one case and returns its four digests: result, ledger rows,
/// histograms, sampled events.
fn digests(config: HierarchyConfig, trace: &[TraceRecord]) -> [u64; 4] {
    let plain = simulate_with_warmup(config.clone(), trace.iter().copied(), RESET_AT).unwrap();
    let mut sim = HierarchySim::new(config).unwrap();
    sim.attach_tracer(EventTracer::new(SAMPLE_EVERY));
    sim.run(trace[..RESET_AT].iter().copied());
    sim.reset_measurement();
    sim.run(trace[RESET_AT..].iter().copied());
    assert_eq!(sim.result(), plain, "the plain driver");
    sim.flush_all();

    let result = sim.result();
    let names = sim.level_names();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let ledger = sim.ledger();
    assert_eq!(ledger.total(), result.total_cycles, "ledger conservation");
    let ledger_rows = ledger.rows(&names);
    let hists = sim.histograms();
    let mut hist_text = String::new();
    for h in hists
        .read_miss_latency
        .iter()
        .chain([&hists.write_buffer_occupancy, &hists.inter_miss_distance])
    {
        hist_text.push_str(&format!("{} {} {};", h.count(), h.sum(), h.max()));
    }
    let tracer = sim.take_tracer().unwrap();
    [
        fnv(&format!("{result:?}")),
        fnv(&format!("{ledger_rows:?}")),
        fnv(&hist_text),
        fnv(&format!("{:?}", tracer.events())),
    ]
}

#[rustfmt::skip]
const GOLDEN: &[(&str, &str, [u64; 4])] = &[
    ("base", "vms1", [0xb56828aa6301cd94, 0x77bdd895d0e47c59, 0xe1091a822762c49c, 0x51d0f60b40da0a61]),
    ("single-level", "vms1", [0x7a225b77ba7f8f92, 0x08402c6a5e5833d6, 0x1fe90b23eac8e325, 0xe03d7d098320e33a]),
    ("three-level", "vms1", [0x80f6bb79b549533f, 0x1241146235581ef4, 0x05870255d4ce8f09, 0x7f05379270b6089b]),
    ("write-through-l1", "vms1", [0x7dd6d8c7a724f8c8, 0xdd69a71ff25dfd9a, 0x32c5155f04892d30, 0xf4fabd4dfe721ede]),
    ("starved-buffers", "vms1", [0xe7baebc320e01a0e, 0x735afc3fc0e9df04, 0xcf8506365b6d982e, 0xf78a6044474e6f75]),
    ("slow-memory", "vms1", [0xb9918506fec6f5c2, 0x77150cd98c5f9246, 0x086f5c80b92f128b, 0x10972bd8ce4be6ac]),
    ("victim-buffer", "vms1", [0xda0f1c8f42e796f9, 0xff72c0730d6dfc19, 0xecf142b25848a446, 0x9b7ff871af274845]),
    ("sub-block", "vms1", [0xc2012b28ec09fee6, 0xf993d709d4f33a6b, 0xf252091c1be938d1, 0x40674d46fdacc2b9]),
    ("4-way-random", "vms1", [0x9965c2055b1a1aac, 0xec0735c6939af9fa, 0xe2653ff6e8916434, 0x947950e90ea40dd9]),
    ("next-block-prefetch", "vms1", [0x95e9de54d0c5261c, 0x2aa079342f72d370, 0x8061415965208c4d, 0xbe41b572570c2404]),
    ("fetch-blocks-2", "vms1", [0x7d759cd6e7c63ad5, 0xc176ccddb65cc886, 0x3086e2f6bd42b8b7, 0x63e9d57842162df4]),
    ("write-through-l2", "vms1", [0xb82745baf633c692, 0x73dcbe243e762330, 0x731f3fd1f8306c9b, 0x2ec214fd16f0ca81]),
    ("victim-l2", "vms1", [0xf996722f49a18997, 0x5bb552e53ae20ba8, 0x3784ea08be8a859e, 0xf5ec56edd9d52ff7]),
    ("base", "mips2", [0x4531b026ee485399, 0x77712f26f3798b15, 0xf76c8cb19ffda0ea, 0x51b50f7c743014ab]),
    ("single-level", "mips2", [0x88016b0ccea892f8, 0x84a39c6a45347e6d, 0xebd90d4e4ee9d595, 0xef23da9560f833e9]),
    ("three-level", "mips2", [0x8bda33d66bb7feef, 0xe3cf339bbd40b06e, 0x6572ffb2b794d2c7, 0x15e330ba2d364bec]),
    ("write-through-l1", "mips2", [0xccd3b052e4322b04, 0xbb10f50eee7a6382, 0x8af9d82c42ae1f0e, 0x3161bdb178eadf20]),
    ("starved-buffers", "mips2", [0xc81fbad584fe4653, 0x19f92f310d44c6f2, 0x061ea2020f17ca17, 0xce812f83d9cdd9d3]),
    ("slow-memory", "mips2", [0xd3f76bba055193e4, 0x14f84ba61223eba7, 0xd29fe60f665fbd21, 0x418e409d325b9619]),
    ("victim-buffer", "mips2", [0x99814e5d1da3da46, 0x87d0d5902bf40c2c, 0x57cfe98b0fddb199, 0xd2cee83711c1aec1]),
    ("sub-block", "mips2", [0xc09694b3faf94c00, 0x622395690d85cef8, 0x0d4abee4c0c5d670, 0x5d10c4c4a7344404]),
    ("4-way-random", "mips2", [0x282e0e2245dc90ab, 0xd379cc2055d6742b, 0x3a05380c8163874d, 0xd8378e5c2edf4bdb]),
    ("next-block-prefetch", "mips2", [0xc0c6192dc5a026d7, 0x4c4ccb71f3d0f0b1, 0xb74ae7912f2736ab, 0xb3c464dcc69da098]),
    ("fetch-blocks-2", "mips2", [0x8e07235af076bef9, 0x0317c94844415b6d, 0xcb93072858a039e8, 0x1ea48e8a487e67ed]),
    ("write-through-l2", "mips2", [0x7f7905e73a79c419, 0x0c32cc64202a7d7f, 0x27e4196ad6cc6ee8, 0xbdb928565643f03b]),
    ("victim-l2", "mips2", [0x5cd9091f5dab0477, 0x2de5c3540f65e007, 0x10b901ade8831ca0, 0x424e81bade69ffee]),
];

#[test]
fn attributing_simulator_matches_golden_values() {
    let presets = [("vms1", Preset::Vms1), ("mips2", Preset::Mips2)];
    let mut actual = Vec::new();
    for (preset_name, preset) in presets {
        let trace = MultiProgramGenerator::new(preset.config(SEED))
            .expect("valid preset")
            .generate_records(RECORDS);
        for (shape, config) in shapes() {
            actual.push((shape, preset_name, digests(config, &trace)));
        }
    }
    let matches = actual.len() == GOLDEN.len()
        && actual
            .iter()
            .zip(GOLDEN)
            .all(|(a, g)| a.0 == g.0 && a.1 == g.1 && a.2 == g.2);
    if !matches {
        let mut table = String::new();
        for (shape, preset, d) in &actual {
            table.push_str(&format!(
                "    (\"{shape}\", \"{preset}\", [{:#018x}, {:#018x}, {:#018x}, {:#018x}]),\n",
                d[0], d[1], d[2], d[3]
            ));
        }
        panic!("golden digests differ; computed table:\n{table}");
    }
}
