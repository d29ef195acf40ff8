//! Write buffers between hierarchy levels.
//!
//! The paper places a 4-entry write buffer between every pair of adjacent
//! levels, each entry one upstream-cache block wide (§2). Buffers let
//! write-backs and write-throughs drain while the processor continues,
//! which is why the paper can treat write effects as "mostly hidden
//! between the read requests".
//!
//! This type is the *container*: a bounded FIFO with occupancy statistics.
//! The drain *policy* (when entries are retired into the downstream cache)
//! lives in `mlc-sim`, because it needs downstream timing.

use std::collections::VecDeque;

use mlc_trace::Address;

/// One buffered write: a block (or write-through word) heading downstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferedWrite {
    /// Base address of the data.
    pub addr: Address,
    /// Width of the entry in bytes (the upstream cache's block size for
    /// write-backs; the store width for write-throughs).
    pub bytes: u64,
}

/// Occupancy counters for a [`WriteBuffer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WriteBufferStats {
    /// Entries accepted.
    pub enqueued: u64,
    /// Entries retired downstream.
    pub drained: u64,
    /// Times a producer found the buffer full and had to wait for a
    /// forced drain.
    pub full_events: u64,
    /// Highest occupancy observed.
    pub peak_occupancy: usize,
}

/// A bounded FIFO of writes awaiting drain to the next hierarchy level.
///
/// # Examples
///
/// ```
/// use mlc_mem::{BufferedWrite, WriteBuffer};
/// use mlc_trace::Address;
///
/// let mut buf = WriteBuffer::new(4);
/// let w = BufferedWrite { addr: Address::new(0x40), bytes: 16 };
/// assert!(buf.try_push(w));
/// assert_eq!(buf.len(), 1);
/// assert_eq!(buf.pop(), Some(w));
/// assert!(buf.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    entries: VecDeque<BufferedWrite>,
    capacity: usize,
    stats: WriteBufferStats,
}

impl WriteBuffer {
    /// Creates an empty buffer with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "write buffer capacity must be positive");
        WriteBuffer {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            stats: WriteBufferStats::default(),
        }
    }

    /// The buffer's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the buffer is full.
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Attempts to enqueue; returns `false` (and records a full event) if
    /// the buffer is full.
    pub fn try_push(&mut self, write: BufferedWrite) -> bool {
        if self.is_full() {
            self.stats.full_events += 1;
            return false;
        }
        self.entries.push_back(write);
        self.stats.enqueued += 1;
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.entries.len());
        true
    }

    /// Retires the oldest entry.
    pub fn pop(&mut self) -> Option<BufferedWrite> {
        let e = self.entries.pop_front();
        if e.is_some() {
            self.stats.drained += 1;
        }
        e
    }

    /// Iterates over queued entries, oldest first — used by the simulator
    /// to detect read-after-write hazards against buffered data.
    pub fn iter(&self) -> impl Iterator<Item = &BufferedWrite> {
        self.entries.iter()
    }

    /// Whether any queued entry's byte range overlaps `[addr, addr + bytes)`.
    pub fn overlaps(&self, addr: Address, bytes: u64) -> bool {
        let lo = addr.get();
        let hi = lo + bytes;
        self.entries.iter().any(|e| {
            let elo = e.addr.get();
            let ehi = elo + e.bytes;
            elo < hi && lo < ehi
        })
    }

    /// Accumulated counters.
    pub fn stats(&self) -> WriteBufferStats {
        self.stats
    }

    /// Resets counters; contents are preserved.
    pub fn reset_stats(&mut self) {
        self.stats = WriteBufferStats::default();
        self.stats.peak_occupancy = self.entries.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(a: u64) -> BufferedWrite {
        BufferedWrite {
            addr: Address::new(a),
            bytes: 16,
        }
    }

    #[test]
    fn fifo_order() {
        let mut b = WriteBuffer::new(4);
        for a in [1, 2, 3] {
            assert!(b.try_push(w(a)));
        }
        assert_eq!(b.pop(), Some(w(1)));
        assert_eq!(b.pop(), Some(w(2)));
        assert_eq!(b.pop(), Some(w(3)));
        assert_eq!(b.pop(), None);
    }

    #[test]
    fn capacity_enforced() {
        let mut b = WriteBuffer::new(2);
        assert!(b.try_push(w(1)));
        assert!(b.try_push(w(2)));
        assert!(b.is_full());
        assert!(!b.try_push(w(3)));
        assert_eq!(b.stats().full_events, 1);
        b.pop();
        assert!(b.try_push(w(3)));
    }

    #[test]
    fn stats_track_flow() {
        let mut b = WriteBuffer::new(4);
        b.try_push(w(1));
        b.try_push(w(2));
        b.pop();
        b.try_push(w(3));
        let s = b.stats();
        assert_eq!(s.enqueued, 3);
        assert_eq!(s.drained, 1);
        assert_eq!(s.peak_occupancy, 2);
    }

    #[test]
    fn reset_stats_preserves_contents() {
        let mut b = WriteBuffer::new(4);
        b.try_push(w(1));
        b.reset_stats();
        assert_eq!(b.stats().enqueued, 0);
        assert_eq!(b.stats().peak_occupancy, 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_capacity() {
        WriteBuffer::new(0);
    }

    #[test]
    fn iter_is_fifo_order() {
        let mut b = WriteBuffer::new(4);
        b.try_push(w(1));
        b.try_push(w(2));
        let addrs: Vec<u64> = b.iter().map(|e| e.addr.get()).collect();
        assert_eq!(addrs, vec![1, 2]);
    }

    #[test]
    fn overlap_detection() {
        let mut b = WriteBuffer::new(4);
        b.try_push(BufferedWrite {
            addr: Address::new(0x40),
            bytes: 16,
        });
        assert!(b.overlaps(Address::new(0x40), 16)); // exact
        assert!(b.overlaps(Address::new(0x48), 4)); // inside
        assert!(b.overlaps(Address::new(0x30), 32)); // spans start
        assert!(!b.overlaps(Address::new(0x50), 16)); // adjacent after
        assert!(!b.overlaps(Address::new(0x30), 16)); // adjacent before
        b.pop();
        assert!(!b.overlaps(Address::new(0x40), 16));
    }
}
