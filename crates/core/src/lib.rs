//! Analytical models and design-space exploration for
//! performance-optimal multi-level cache hierarchies.
//!
//! This crate is the reproduction of the *analysis* half of Przybylski,
//! Horowitz & Hennessy (ISCA 1989), built on top of the `mlc-sim`
//! simulator:
//!
//! * [`ExecutionTimeModel`] — Equation 1, the execution-time
//!   decomposition.
//! * [`PowerLawMissModel`] — the miss-ratio-versus-size law (×0.69 per
//!   doubling) and its fitting.
//! * [`SpeedSizeTradeoff`] / [`predicted_isoperf_shift`] — Equation 2 and
//!   the §4 speed–size analysis.
//! * [`BreakEvenInputs`] / [`empirical_break_even_cycles`] — Equation 3
//!   and the §5 set-associativity break-even times.
//! * [`Explorer`] / [`DesignGrid`] — parallel parameter sweeps.
//! * [`constant_performance_lines`] / [`SlopeRegion`] — the Figure 4
//!   iso-performance analysis.
//! * [`Table`] — plain-text/CSV reporting used by the figure harnesses.
//!
//! # Examples
//!
//! Sweep an L2 design space and extract the paper's lines of constant
//! performance:
//!
//! ```no_run
//! use mlc_cache::ByteSize;
//! use mlc_core::{constant_performance_lines, size_ladder, Explorer};
//! use mlc_sim::machine::BaseMachine;
//! use mlc_trace::synth::{workload::Preset, MultiProgramGenerator};
//!
//! let mut gen = MultiProgramGenerator::new(Preset::Vms1.config(42)).expect("valid");
//! let trace = gen.generate_records(4_000_000);
//! let explorer = Explorer::new(&trace, 1_000_000);
//! let grid = explorer.l2_grid(
//!     &BaseMachine::new(),
//!     &size_ladder(ByteSize::kib(4), ByteSize::mib(4)),
//!     &(1..=10).collect::<Vec<_>>(),
//!     1,
//! );
//! for line in constant_performance_lines(&grid, &[1.1, 1.2, 1.3]) {
//!     println!("rel {:.1}: {} points", line.relative, line.points.len());
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod attribution;
mod breakeven;
mod explore;
mod isoperf;
mod miss_model;
mod model;
mod optimal;
pub mod par;
mod report;
pub mod stack;
mod three_c;
pub mod timing;
mod tradeoff;

pub use attribution::{
    bounds_vs_eq1, bounds_vs_eq1_table, eq1_params, memory_read_cycles, AttributionReport,
    AttributionRow, BoundsCheckRow, Eq1Params,
};
pub use breakeven::{
    empirical_break_even_cycles, inputs_from_sim, BreakEvenInputs, TTL_MUX_OVERHEAD_NS,
};
pub use explore::{
    size_ladder, validate_grid, warmup_records, DesignGrid, Explorer, GridRow, GridRun, GridSpec,
    MissRatioPoint,
};
pub use isoperf::{
    constant_performance_lines, constant_performance_lines_abs, mean_line_shift,
    slope_boundary_size, slope_profile, slopes_cycles_per_doubling, IsoPerfLine, IsoPoint,
    SlopeRegion,
};
pub use miss_model::PowerLawMissModel;
pub use model::ExecutionTimeModel;
pub use optimal::{Candidate, DeepCandidate, HierarchyOptimizer, TechnologyModel};
pub use par::{par_map, try_par_map, PointFailure};
pub use report::{fmt_f2, fmt_ratio, Table};
pub use stack::{SetFootprint, SoloMissSweep};
pub use three_c::{classify_misses, MissComponents};
pub use timing::{verify_grids, GridDivergence, SweepEngine};
pub use tradeoff::{predicted_isoperf_shift, SpeedSizeTradeoff};
