//! Inter-level bus timing, per lane.
//!
//! The paper's buses (§2) are 4 words (16 bytes) wide and cycle at the
//! rate of the downstream cache (the CPU–L2 bus at the L2 rate; the
//! L2–memory "backplane" also at the L2 rate). A transfer costs one bus
//! cycle to transmit the address plus ⌈bytes / width⌉ cycles to move the
//! data. The width is a property of the cache organisation, shared by
//! every lane; the cycle time varies per lane.

/// A bus of fixed width with one cycle time (in ticks) per lane.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SweepBus<const W: usize> {
    width_bytes: u64,
    cycle: [u64; W],
}

impl<const W: usize> SweepBus<W> {
    /// Creates a bus.
    ///
    /// # Panics
    ///
    /// Panics if the width is zero or not a power of two, or any lane's
    /// cycle time is zero. `HierarchyConfig::validate` rejects both, so
    /// a validated configuration never reaches these checks.
    pub(crate) fn new(width_bytes: u64, cycle: [u64; W]) -> Self {
        assert!(
            width_bytes > 0 && width_bytes.is_power_of_two(),
            "bus width must be a non-zero power of two, got {width_bytes}"
        );
        assert!(
            cycle.iter().all(|&c| c > 0),
            "bus cycle time must be positive"
        );
        SweepBus { width_bytes, cycle }
    }

    /// Ticks to transmit an address (one bus cycle).
    #[inline(always)]
    pub(crate) fn address_ticks(&self) -> [u64; W] {
        self.cycle
    }

    /// Ticks to move `bytes` of data (⌈bytes / width⌉ bus cycles; zero
    /// bytes cost nothing).
    #[inline(always)]
    pub(crate) fn data_ticks(&self, bytes: u64) -> [u64; W] {
        self.beats(bytes.div_ceil(self.width_bytes))
    }

    /// Data ticks *beyond the first beat*: a cache access time already
    /// covers delivery of the first bus-width beat (an L1 miss that hits
    /// in L2 costs exactly one L2 cycle when the L1 block equals the bus
    /// width), so only the remaining beats add latency.
    #[inline(always)]
    pub(crate) fn extra_beat_ticks(&self, bytes: u64) -> [u64; W] {
        self.beats(bytes.div_ceil(self.width_bytes).saturating_sub(1))
    }

    /// Ticks for a full transfer: address plus data.
    #[inline(always)]
    pub(crate) fn transfer_ticks(&self, bytes: u64) -> [u64; W] {
        self.beats(1 + bytes.div_ceil(self.width_bytes))
    }

    #[inline(always)]
    fn beats(&self, n: u64) -> [u64; W] {
        let mut out = self.cycle;
        for o in out.iter_mut() {
            *o *= n;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's CPU–L2 bus: 16 bytes wide at the L2 rate. An L1 block
    /// is 16 bytes, so delivering it beyond the first beat is free —
    /// making the nominal L1 miss penalty exactly the L2 access.
    #[test]
    fn paper_cpu_l2_bus() {
        let bus = SweepBus::new(16, [3, 5]);
        assert_eq!(bus.extra_beat_ticks(16), [0, 0]);
        assert_eq!(bus.extra_beat_ticks(32), [3, 5]);
        assert_eq!(bus.extra_beat_ticks(0), [0, 0]);
    }

    #[test]
    fn data_ticks_round_up() {
        let bus = SweepBus::new(16, [2, 3]);
        assert_eq!(bus.data_ticks(1), [2, 3]);
        assert_eq!(bus.data_ticks(16), [2, 3]);
        assert_eq!(bus.data_ticks(17), [4, 6]);
        assert_eq!(bus.data_ticks(0), [0, 0]);
    }

    #[test]
    fn transfer_includes_address() {
        let bus = SweepBus::new(8, [5, 1]);
        assert_eq!(bus.address_ticks(), [5, 1]);
        assert_eq!(bus.transfer_ticks(16), [5 + 10, 1 + 2]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_width() {
        SweepBus::new(12, [1]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_cycle() {
        SweepBus::new(16, [3, 0]);
    }
}
