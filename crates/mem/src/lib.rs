//! Memory-system substrates: DRAM timing and write buffers.
//!
//! These are the timed components *below and between* the caches in the
//! paper's simulator:
//!
//! * [`MainMemory`] — the paper's three-parameter DRAM model (read time,
//!   write time, inter-operation refresh gap).
//! * [`WriteBuffer`] — the 4-entry write buffers the paper places between
//!   every pair of adjacent levels.
//!
//! The inter-level buses are timed inside `mlc-sim`'s engine, which
//! prices them per timing lane. All times here are abstract *ticks*;
//! `mlc-sim` sets one tick = one CPU cycle.
//!
//! # Examples
//!
//! Reproduce the paper's nominal 270 ns L2 miss penalty (27 CPU cycles at
//! 10 ns). The backplane is 4 words (16 bytes) wide and cycles at the L2
//! rate, 3 CPU cycles: one bus cycle sends the address, the 180 ns read
//! follows, and a 32-byte L2 block comes back in two bus cycles.
//!
//! ```
//! use mlc_mem::{MainMemory, MemOpKind, MemoryTiming};
//!
//! let (bus_width, bus_cycle) = (16, 3);
//! let mut memory = MainMemory::new(MemoryTiming::new(18, 10, 12));
//!
//! let arrival = bus_cycle;                            // address out: 3
//! let op = memory.schedule(arrival, MemOpKind::Read); // 180 ns read
//! let beats = 32u64.div_ceil(bus_width);              // 2 data beats
//! let done = op.end + beats * bus_cycle;
//! assert_eq!(done, 27);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dram;
mod write_buffer;

pub use dram::{MainMemory, MemOp, MemOpKind, MemoryStats, MemoryTiming};
pub use write_buffer::{BufferedWrite, WriteBuffer, WriteBufferStats};
