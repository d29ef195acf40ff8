//! `Explorer::miss_ratio_curve` prices a whole L2 size ladder from one
//! hierarchy run tapped at the L2 (DESIGN.md §10). Every value of the
//! curve must be bit-identical to the per-size oracle: one
//! `simulate_with_warmup` run per size for the local and global columns,
//! and the serial `SoloMissSweep::run` for the solo column.
//!
//! The shapes vary one knob at a time around the Figure 3 machine (4 KB
//! L1 of 16-byte blocks, direct-mapped 32-byte-block L2 of 3 cycles,
//! base memory), plus one case that moves every knob at once. Traces
//! rotate over three presets and stay at 60K records, so the debug test
//! build finishes quickly. The test binary runs the simulator with
//! `check-invariants`, so every level-1 fetch also asserts that no
//! queued level-0 write outlived it.

use mlc::cache::ByteSize;
use mlc::core::{size_ladder, Explorer, MissRatioPoint, SoloMissSweep};
use mlc::sim::machine::BaseMachine;
use mlc::sim::simulate_with_warmup;
use mlc::trace::synth::{workload::Preset, MultiProgramGenerator};
use mlc::trace::TraceRecord;

const RECORDS: usize = 60_000;
const WARMUP: usize = RECORDS / 4;
const L2_BLOCK: u64 = 32;

fn trace(preset: Preset, seed: u64) -> Vec<TraceRecord> {
    MultiProgramGenerator::new(preset.config(seed))
        .expect("valid preset")
        .generate_records(RECORDS)
}

/// One machine shape: the knobs the curve is checked across.
#[derive(Debug, Clone, Copy)]
struct Shape {
    l1_kib: u64,
    l1_block: u64,
    l2_ways: u32,
    l2_cycles: u64,
    memory_scale: f64,
}

const BASE: Shape = Shape {
    l1_kib: 4,
    l1_block: 16,
    l2_ways: 1,
    l2_cycles: 3,
    memory_scale: 1.0,
};

impl Shape {
    fn machine(&self) -> BaseMachine {
        let mut base = BaseMachine::new();
        base.l1_total(ByteSize::kib(self.l1_kib))
            .l1_block_bytes(self.l1_block)
            .l2_block_bytes(L2_BLOCK)
            .l2_ways(self.l2_ways)
            .l2_cycles(self.l2_cycles)
            .memory_scale(self.memory_scale);
        base
    }
}

/// The curve the slow way: a full hierarchy run per size, and the
/// serial stack pass over the CPU trace for the solo column.
fn oracle(shape: &Shape, trace: &[TraceRecord], sizes: &[ByteSize]) -> Vec<MissRatioPoint> {
    let solo = SoloMissSweep::run(L2_BLOCK, shape.l2_ways, sizes, trace, WARMUP);
    sizes
        .iter()
        .enumerate()
        .map(|(i, &size)| {
            let mut machine = shape.machine();
            machine.l2_total(size);
            let config = machine.build().expect("valid shape");
            let result = simulate_with_warmup(config, trace.iter().copied(), WARMUP).unwrap();
            MissRatioPoint {
                size,
                local: result.local_read_miss_ratio(1).unwrap_or(f64::NAN),
                global: result.global_read_miss_ratio(1).unwrap_or(f64::NAN),
                solo: solo.read_miss_ratio(i).unwrap_or(f64::NAN),
            }
        })
        .collect()
}

fn assert_bit_identical(label: &str, got: &[MissRatioPoint], want: &[MissRatioPoint]) {
    assert_eq!(got.len(), want.len(), "{label}: curve length");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.size, w.size, "{label}: size order");
        for (column, a, b) in [
            ("local", g.local, w.local),
            ("global", g.global, w.global),
            ("solo", g.solo, w.solo),
        ] {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{label}: {column} at {} is {a}, the per-size runs give {b}",
                g.size
            );
        }
    }
}

fn check(label: &str, shape: Shape, preset: Preset, seed: u64) {
    let trace = trace(preset, seed);
    let sizes = size_ladder(ByteSize::kib(8), ByteSize::kib(256));
    let curve = Explorer::new(&trace, WARMUP).miss_ratio_curve(&shape.machine(), &sizes);
    assert_bit_identical(label, &curve, &oracle(&shape, &trace, &sizes));
    // The tapped run saw a real L2 stream: some sizes miss.
    assert!(curve.iter().any(|p| p.local > 0.0), "{label}: no L2 misses");
}

#[test]
fn l1_sizes() {
    for (kib, preset) in [(2, Preset::Vms1), (4, Preset::Mips1), (32, Preset::Mips2)] {
        let shape = Shape {
            l1_kib: kib,
            ..BASE
        };
        check(&format!("L1 {kib} KB"), shape, preset, kib);
    }
}

#[test]
fn l1_block_sizes_around_the_l2_block() {
    for (block, preset) in [(16, Preset::Mips2), (32, Preset::Vms1), (64, Preset::Mips1)] {
        let shape = Shape {
            l1_block: block,
            ..BASE
        };
        check(&format!("L1 {block}-byte blocks"), shape, preset, block);
    }
}

#[test]
fn l2_associativity() {
    for (ways, preset) in [(1, Preset::Mips1), (4, Preset::Mips2)] {
        let shape = Shape {
            l2_ways: ways,
            ..BASE
        };
        check(
            &format!("{ways}-way L2"),
            shape,
            preset,
            40 + u64::from(ways),
        );
    }
}

#[test]
fn l2_cycle_times() {
    for (cycles, preset) in [(1, Preset::Vms1), (3, Preset::Mips2), (8, Preset::Mips1)] {
        let shape = Shape {
            l2_cycles: cycles,
            ..BASE
        };
        check(&format!("{cycles}-cycle L2"), shape, preset, 50 + cycles);
    }
}

#[test]
fn memory_speeds() {
    for (scale, preset) in [
        (0.25, Preset::Mips2),
        (1.0, Preset::Vms1),
        (4.0, Preset::Mips1),
    ] {
        let shape = Shape {
            memory_scale: scale,
            ..BASE
        };
        check(&format!("memory x{scale}"), shape, preset, 60);
    }
}

#[test]
fn every_knob_at_once() {
    let shape = Shape {
        l1_kib: 32,
        l1_block: 64,
        l2_ways: 4,
        l2_cycles: 8,
        memory_scale: 4.0,
    };
    check("every knob moved", shape, Preset::Vms1, 70);
}
