//! Trace-driven, timing-accurate multi-level cache hierarchy simulation.
//!
//! This crate is the reproduction of the simulator described in §2 of
//! Przybylski, Horowitz & Hennessy, *Characteristics of
//! Performance-Optimal Multi-Level Cache Hierarchies* (ISCA 1989): a
//! RISC-like CPU model in front of an arbitrary-depth cache hierarchy
//! with per-level cycle times, split or unified caches, inter-level
//! buses, 4-entry write buffers between all levels, and a refresh-limited
//! main memory.
//!
//! * [`HierarchyConfig`] / [`machine`] — describe a machine (the paper's
//!   base machine is one call away).
//! * [`sweep`] — the timing engine. One walk of the hierarchy prices a
//!   trace under one or more timing variants ("lanes") at once; every
//!   simulation in the workspace runs through it.
//! * [`simulate`] / [`simulate_with_warmup`] — run a reference trace and
//!   collect [`SimResult`] (the engine with no observer).
//! * [`simulate_with_warmup_tapped`] — the same run, handing the
//!   reference stream of cache level 1 to a [`Level1Sink`].
//! * [`HierarchySim`] — the same engine, one lane, with an attributing
//!   observer: the [`CycleLedger`], [`SimHistograms`], sampled events,
//!   and the `check-invariants` checker.
//! * [`TimingSweepSim`] / [`simulate_timing_sweep`] — up to
//!   [`MAX_LANES`] (10) timing variants of one cache organisation per
//!   pass, pricing an L1 hit whose cost every lane shares only once.
//! * [`solo`] — fast functional runs for the paper's *solo* miss ratios.
//! * [`ledger`] — exhaustive cycle attribution: every cycle of
//!   [`SimResult::total_cycles`] lands in exactly one Equation 1 bucket
//!   (execute, per-level read-miss stall, write-buffer-full, writeback,
//!   refresh wait), with histograms and a sampled event tracer on top.
//!
//! Naming note: [`metrics`] (this crate) holds *simulation results* —
//! [`SimResult`] and the Equation 1 [`EventCounts`]. The `mlc_obs`
//! crate's `Metrics` type is the *observability pipeline* (counters,
//! gauges, phase timers, JSONL export); [`observe`] bridges the two at
//! phase boundaries.
//!
//! # Examples
//!
//! ```
//! use mlc_sim::{machine, simulate_with_warmup};
//! use mlc_trace::synth::{workload::Preset, MultiProgramGenerator};
//!
//! let mut gen = MultiProgramGenerator::new(Preset::Vms1.config(7))
//!     .expect("preset is valid");
//! let trace = gen.generate_records(50_000);
//! let result = simulate_with_warmup(machine::base_machine(), trace, 10_000)?;
//! println!("CPI = {:.2}", result.cpi().unwrap());
//! assert!(result.global_read_miss_ratio(1).unwrap() <= 1.0);
//! # Ok::<(), mlc_sim::SimConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bus;
mod clock;
mod config;
mod hierarchy;
pub mod ledger;
pub mod machine;
pub mod metrics;
pub mod observe;
pub mod solo;
pub mod sweep;

pub use clock::Clock;
pub use config::{
    CpuConfig, HierarchyConfig, LevelCacheConfig, LevelConfig, MemoryConfig, SimConfigError,
};
pub use hierarchy::{
    simulate, simulate_with_warmup, simulate_with_warmup_tapped, HierarchySim, Level1Sink,
};
pub use ledger::{CycleLedger, SimHistograms};
pub use metrics::{EventCounts, LevelMetrics, SimResult};
pub use observe::{
    observe_histograms, observe_ledger, observe_result, simulate_with_warmup_attributed,
    simulate_with_warmup_observed, AttributedRun,
};
pub use sweep::{simulate_timing_sweep, TimingSweepSim, MAX_LANES};
