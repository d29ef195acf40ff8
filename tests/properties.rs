//! Property-based tests over the core data structures and simulator
//! invariants.
//!
//! These use a small hand-rolled harness rather than an external
//! property-testing crate: each property runs over a fixed number of
//! deterministic xoshiro256++ seeds, so failures are reproducible by
//! construction and the workspace stays dependency-free.

use mlc::cache::{ByteSize, Cache, CacheConfig, Replacement};
use mlc::sim::machine::BaseMachine;
use mlc::sim::simulate;
use mlc::trace::synth::{RankedList, StackDepthDistribution, Xoshiro};
use mlc::trace::{binary, din, slice, AccessKind, Address, TraceRecord};

/// Runs `f` once per case with an independently seeded generator,
/// reporting the failing case number before propagating the panic.
fn check(cases: u64, f: impl Fn(&mut Xoshiro) + std::panic::RefUnwindSafe) {
    for case in 0..cases {
        let seed = 0x9E3779B97F4A7C15u64.wrapping_mul(case + 1);
        let outcome = std::panic::catch_unwind(|| {
            let mut rng = Xoshiro::seed_from_u64(seed);
            f(&mut rng);
        });
        if let Err(payload) = outcome {
            eprintln!("property failed on case {case} (xoshiro seed {seed:#x})");
            std::panic::resume_unwind(payload);
        }
    }
}

/// Uniform integer in `[lo, hi)`.
fn range(rng: &mut Xoshiro, lo: u64, hi: u64) -> u64 {
    lo + rng.next_below(hi - lo)
}

/// Uniform float in `[lo, hi)`.
fn frange(rng: &mut Xoshiro, lo: f64, hi: f64) -> f64 {
    lo + rng.next_f64() * (hi - lo)
}

fn rand_kind(rng: &mut Xoshiro) -> AccessKind {
    match rng.next_below(3) {
        0 => AccessKind::InstructionFetch,
        1 => AccessKind::Read,
        _ => AccessKind::Write,
    }
}

fn rand_records(rng: &mut Xoshiro, max_len: u64) -> Vec<TraceRecord> {
    let len = rng.next_below(max_len);
    (0..len)
        .map(|_| TraceRecord::new(rand_kind(rng), Address::new(rng.next_u64())))
        .collect()
}

// ---------------------------------------------------------------------
// Trace formats
// ---------------------------------------------------------------------

#[test]
fn din_round_trips() {
    check(64, |rng| {
        let records = rand_records(rng, 200);
        let mut buf = Vec::new();
        din::write_din(&mut buf, records.iter().copied()).unwrap();
        assert_eq!(din::read_din(buf.as_slice()).unwrap(), records);
    });
}

#[test]
fn binary_round_trips() {
    check(64, |rng| {
        let records = rand_records(rng, 200);
        let mut buf = Vec::new();
        binary::write_binary(&mut buf, &records).unwrap();
        assert_eq!(slice::read_binary_slice(&buf).unwrap(), records);
    });
}

// ---------------------------------------------------------------------
// Cache vs naive reference model
// ---------------------------------------------------------------------

/// A deliberately simple set-associative LRU cache: vectors of
/// most-recently-used-first block lists per set.
struct NaiveLru {
    sets: Vec<Vec<u64>>,
    ways: usize,
    block_bytes: u64,
}

impl NaiveLru {
    fn new(total: u64, block: u64, ways: usize) -> Self {
        let sets = (total / block) as usize / ways;
        NaiveLru {
            sets: vec![Vec::new(); sets],
            ways,
            block_bytes: block,
        }
    }

    /// Returns whether the access hit.
    fn access(&mut self, addr: u64) -> bool {
        let block = addr / self.block_bytes;
        let set = (block % self.sets.len() as u64) as usize;
        let list = &mut self.sets[set];
        if let Some(pos) = list.iter().position(|&b| b == block) {
            list.remove(pos);
            list.insert(0, block);
            true
        } else {
            list.insert(0, block);
            list.truncate(self.ways);
            false
        }
    }
}

#[test]
fn cache_matches_naive_lru_model() {
    check(48, |rng| {
        let ways = 1u32 << range(rng, 0, 3);
        let block = 16u64;
        let total = block * u64::from(ways) * (1u64 << range(rng, 0, 4));
        let addrs: Vec<u64> = (0..range(rng, 1, 400))
            .map(|_| rng.next_below(0x4000))
            .collect();
        let config = CacheConfig::builder()
            .total(ByteSize::new(total))
            .block_bytes(block)
            .ways(ways)
            .replacement(Replacement::Lru)
            .build()
            .unwrap();
        let mut cache = Cache::new(config);
        let mut model = NaiveLru::new(total, block, ways as usize);
        for &addr in &addrs {
            let got = cache.access(Address::new(addr), AccessKind::Read).hit;
            let want = model.access(addr);
            assert_eq!(got, want, "divergence at addr {addr:#x}");
        }
    });
}

#[test]
fn dirty_blocks_writeback_exactly_once() {
    check(48, |rng| {
        // Every dirty eviction plus every final dirty line accounts for
        // exactly one write epoch; totals must balance.
        let addrs: Vec<u64> = (0..range(rng, 1, 300))
            .map(|_| rng.next_below(0x1000))
            .collect();
        let config = CacheConfig::builder()
            .total(ByteSize::new(256))
            .block_bytes(16)
            .build()
            .unwrap();
        let mut cache = Cache::new(config);
        let mut writebacks = 0u64;
        for &addr in &addrs {
            let res = cache.access(Address::new(addr), AccessKind::Write);
            writebacks += res.writebacks().count() as u64;
        }
        let final_dirty = cache.flush_dirty().len() as u64;
        // Each store either dirtied an already-dirty resident block (no
        // new epoch) or began a new epoch; epochs = writebacks + final
        // dirty lines, and every epoch stems from at least one store.
        assert!(writebacks + final_dirty <= addrs.len() as u64);
        assert!(final_dirty > 0 || writebacks > 0);
        assert_eq!(cache.stats().writebacks, writebacks);
    });
}

// ---------------------------------------------------------------------
// RankedList vs Vec model
// ---------------------------------------------------------------------

#[test]
fn ranked_list_matches_vec_model() {
    check(64, |rng| {
        let ops: Vec<(u8, u16)> = (0..range(rng, 0, 400))
            .map(|_| (rng.next_below(4) as u8, rng.next_u64() as u16))
            .collect();
        let mut list = RankedList::new(7);
        let mut model: Vec<u16> = Vec::new();
        for (op, val) in ops {
            match op {
                0 => {
                    list.push_front(val);
                    model.insert(0, val);
                }
                1 if !model.is_empty() => {
                    let r = (val as usize) % model.len();
                    let v = model.remove(r);
                    model.insert(0, v);
                    assert_eq!(list.move_to_front(r).copied(), Some(v));
                }
                2 if !model.is_empty() => {
                    let r = (val as usize) % model.len();
                    assert_eq!(list.remove(r), Some(model.remove(r)));
                }
                _ => {
                    if !model.is_empty() {
                        let r = (val as usize) % model.len();
                        assert_eq!(list.get(r), Some(&model[r]));
                    }
                }
            }
            assert_eq!(list.len(), model.len());
        }
        let collected: Vec<u16> = list.iter().copied().collect();
        assert_eq!(collected, model);
    });
}

// ---------------------------------------------------------------------
// Stack-distance distribution
// ---------------------------------------------------------------------

#[test]
fn survival_is_monotone_and_bounded() {
    check(64, |rng| {
        let theta = frange(rng, 0.1, 2.0);
        let scale = frange(rng, 0.5, 100.0);
        let d = rng.next_below(1_000_000);
        let dist = StackDepthDistribution::new(theta, scale);
        let s = dist.survival(d);
        assert!((0.0..=1.0).contains(&s));
        assert!(dist.survival(d + 1) <= s + 1e-15);
        assert!(dist.survival(0) >= 1.0 - 1e-12);
    });
}

#[test]
fn samples_are_reproducible() {
    check(64, |rng| {
        let theta = frange(rng, 0.2, 1.5);
        let seed = rng.next_u64();
        let dist = StackDepthDistribution::new(theta, 4.0);
        let mut a = Xoshiro::seed_from_u64(seed);
        let mut b = Xoshiro::seed_from_u64(seed);
        for _ in 0..100 {
            assert_eq!(dist.sample(&mut a), dist.sample(&mut b));
        }
    });
}

// ---------------------------------------------------------------------
// Stack-distance analysis vs naive LRU
// ---------------------------------------------------------------------

#[test]
fn stack_distances_match_naive_lru() {
    check(48, |rng| {
        use mlc::trace::stackdist::lru_stack_distances;
        let blocks: Vec<u64> = (0..range(rng, 1, 500))
            .map(|_| rng.next_below(64))
            .collect();
        let capacity = range(rng, 1, 32);
        let trace: Vec<TraceRecord> = blocks.iter().map(|&b| TraceRecord::read(b * 32)).collect();
        let hist = lru_stack_distances(trace.iter().copied(), 32);
        let mut lru: Vec<u64> = Vec::new();
        let mut misses = 0u64;
        for &b in &blocks {
            if let Some(pos) = lru.iter().position(|&x| x == b) {
                lru.remove(pos);
            } else {
                misses += 1;
            }
            lru.insert(0, b);
            lru.truncate(capacity as usize);
        }
        assert_eq!(hist.misses_at(capacity), misses);
        assert_eq!(hist.total(), blocks.len() as u64);
    });
}

#[test]
fn stack_distance_curve_monotone() {
    check(48, |rng| {
        use mlc::trace::stackdist::lru_stack_distances;
        let blocks: Vec<u64> = (0..range(rng, 1, 400))
            .map(|_| rng.next_below(256))
            .collect();
        let trace: Vec<TraceRecord> = blocks.iter().map(|&b| TraceRecord::read(b * 32)).collect();
        let hist = lru_stack_distances(trace, 32);
        let mut prev = u64::MAX;
        for cap in 1..300u64 {
            let m = hist.misses_at(cap);
            assert!(m <= prev);
            prev = m;
        }
        // Beyond the footprint, only cold misses remain.
        assert_eq!(hist.misses_at(300), hist.cold_misses());
    });
}

// ---------------------------------------------------------------------
// Simulator timing invariants
// ---------------------------------------------------------------------

fn small_trace(seed: u64, n: usize) -> Vec<TraceRecord> {
    use mlc::trace::synth::{MultiProgramConfig, MultiProgramGenerator, ProcessConfig};
    let config = MultiProgramConfig::homogeneous(2, ProcessConfig::default(), seed);
    MultiProgramGenerator::new(config)
        .expect("valid")
        .generate_records(n)
}

#[test]
fn slower_l2_never_runs_faster() {
    check(12, |rng| {
        let seed = rng.next_below(1000);
        let c1 = range(rng, 1, 10);
        let dc = range(rng, 1, 5);
        let trace = small_trace(seed, 6_000);
        let fast = simulate(
            BaseMachine::new().l2_cycles(c1).build().unwrap(),
            trace.iter().copied(),
        )
        .unwrap();
        let slow = simulate(
            BaseMachine::new().l2_cycles(c1 + dc).build().unwrap(),
            trace.iter().copied(),
        )
        .unwrap();
        assert!(slow.total_cycles >= fast.total_cycles);
    });
}

#[test]
fn miss_counts_independent_of_l2_cycle_time() {
    check(12, |rng| {
        let seed = rng.next_below(1000);
        let c = range(rng, 1, 12);
        let trace = small_trace(seed, 6_000);
        let a = simulate(
            BaseMachine::new().l2_cycles(c).build().unwrap(),
            trace.iter().copied(),
        )
        .unwrap();
        let b = simulate(
            BaseMachine::new().l2_cycles(1).build().unwrap(),
            trace.iter().copied(),
        )
        .unwrap();
        for (la, lb) in a.levels.iter().zip(b.levels.iter()) {
            assert_eq!(la.cache.read_misses(), lb.cache.read_misses());
            assert_eq!(la.cache.write_misses(), lb.cache.write_misses());
            assert_eq!(la.cache.writebacks, lb.cache.writebacks);
        }
    });
}

#[test]
fn total_cycles_at_least_instructions() {
    check(12, |rng| {
        let seed = rng.next_below(1000);
        let trace = small_trace(seed, 4_000);
        let r = simulate(BaseMachine::new().build().unwrap(), trace).unwrap();
        assert!(r.total_cycles >= r.instructions);
        assert!(r.cpu_reads == r.instructions + r.loads);
    });
}

// ---------------------------------------------------------------------
// Geometry invariants
// ---------------------------------------------------------------------

#[test]
fn geometry_index_tag_round_trip() {
    check(128, |rng| {
        let total_log = range(rng, 6, 22) as u32;
        let block_log = range(rng, 2, 7) as u32;
        let ways_log = range(rng, 0, 4) as u32;
        if block_log + ways_log >= total_log {
            return;
        }
        let geom = mlc::cache::CacheGeometry::new(
            ByteSize::new(1 << total_log),
            1 << block_log,
            1 << ways_log,
        )
        .unwrap();
        let a = Address::new(rng.next_u64());
        let set = geom.set_index(a);
        assert!(set < geom.sets());
        assert_eq!(geom.block_address(set, geom.tag(a)), geom.block_base(a));
    });
}
