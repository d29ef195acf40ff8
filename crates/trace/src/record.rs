//! Core trace record types: memory access kinds and addresses.

use std::fmt;

/// The kind of a single memory reference issued by the CPU.
///
/// The paper (§2) defines miss ratios in terms of *read* requests only —
/// loads and instruction fetches — because reads and writes affect overall
/// performance through quite different mechanisms. [`AccessKind::is_read`]
/// captures that definition.
///
/// # Examples
///
/// ```
/// use mlc_trace::AccessKind;
///
/// assert!(AccessKind::InstructionFetch.is_read());
/// assert!(AccessKind::Read.is_read());
/// assert!(!AccessKind::Write.is_read());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccessKind {
    /// An instruction fetch (Dinero label `2`).
    InstructionFetch,
    /// A data load (Dinero label `0`).
    Read,
    /// A data store (Dinero label `1`).
    Write,
}

impl AccessKind {
    /// Every access kind, in Dinero label order (`Read`, `Write`,
    /// `InstructionFetch`).
    pub const ALL: [AccessKind; 3] = [
        AccessKind::Read,
        AccessKind::Write,
        AccessKind::InstructionFetch,
    ];

    /// The number of access kinds.
    ///
    /// Codecs that keep per-kind state in fixed-size tables (e.g. the
    /// binary trace format's delta bases) assert their table length
    /// against this at compile time, so adding a variant cannot silently
    /// corrupt an index space.
    pub const COUNT: usize = Self::ALL.len();

    /// Returns `true` for loads and instruction fetches.
    ///
    /// This is the paper's definition of a "read request": the set of
    /// references over which all miss ratios are computed.
    #[inline]
    pub fn is_read(self) -> bool {
        !matches!(self, AccessKind::Write)
    }

    /// Returns `true` for data accesses (loads and stores), i.e. everything
    /// that is routed to a data cache in a split-cache configuration.
    #[inline]
    pub fn is_data(self) -> bool {
        !matches!(self, AccessKind::InstructionFetch)
    }

    /// Returns `true` for stores.
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }

    /// The Dinero `.din` label for this access kind (`0`/`1`/`2`).
    #[inline]
    pub const fn din_label(self) -> u8 {
        match self {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
            AccessKind::InstructionFetch => 2,
        }
    }

    /// Parses a Dinero `.din` label.
    ///
    /// Returns `None` for labels other than `0`, `1` and `2` (Dinero's
    /// extended labels `3`/`4` — escape records — carry no address
    /// semantics we model).
    #[inline]
    pub fn from_din_label(label: u8) -> Option<Self> {
        match label {
            0 => Some(AccessKind::Read),
            1 => Some(AccessKind::Write),
            2 => Some(AccessKind::InstructionFetch),
            _ => None,
        }
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessKind::InstructionFetch => "ifetch",
            AccessKind::Read => "read",
            AccessKind::Write => "write",
        };
        f.write_str(s)
    }
}

/// A byte address in the simulated machine's physical address space.
///
/// A newtype over `u64` so addresses cannot be confused with sizes, counts
/// or cycle times in APIs that juggle all four.
///
/// # Examples
///
/// ```
/// use mlc_trace::Address;
///
/// let a = Address::new(0x1a40);
/// assert_eq!(a.get(), 0x1a40);
/// assert_eq!(a.block_index(16), 0x1a4);
/// assert_eq!(a.block_base(16), Address::new(0x1a40));
/// assert_eq!(format!("{a}"), "0x0000000000001a40");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Address(u64);

impl Address {
    /// Creates an address from a raw byte address.
    #[inline]
    pub const fn new(addr: u64) -> Self {
        Address(addr)
    }

    /// The raw byte address.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The index of the block containing this address, for the given
    /// (power-of-two) block size in bytes.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `block_bytes` is not a power of two.
    #[inline]
    pub fn block_index(self, block_bytes: u64) -> u64 {
        debug_assert!(block_bytes.is_power_of_two());
        self.0 >> block_bytes.trailing_zeros()
    }

    /// The base (first byte) address of the block containing this address.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `block_bytes` is not a power of two.
    #[inline]
    pub fn block_base(self, block_bytes: u64) -> Address {
        debug_assert!(block_bytes.is_power_of_two());
        Address(self.0 & !(block_bytes - 1))
    }

    /// The offset of this address within its containing block.
    #[inline]
    pub fn block_offset(self, block_bytes: u64) -> u64 {
        debug_assert!(block_bytes.is_power_of_two());
        self.0 & (block_bytes - 1)
    }

    /// Returns this address displaced by `delta` bytes (wrapping).
    #[inline]
    pub fn wrapping_add(self, delta: u64) -> Address {
        Address(self.0.wrapping_add(delta))
    }
}

impl From<u64> for Address {
    fn from(v: u64) -> Self {
        Address(v)
    }
}

impl From<Address> for u64 {
    fn from(a: Address) -> Self {
        a.0
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:016x}", self.0)
    }
}

impl fmt::LowerHex for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

/// One record of a memory reference trace: an access kind plus an address.
///
/// The CPU model interprets a stream of records as follows: every
/// [`AccessKind::InstructionFetch`] begins a new (non-stall) CPU cycle, and
/// a data reference immediately following an instruction fetch executes in
/// that same cycle — matching the paper's RISC-like CPU that performs "one
/// instruction fetch and either zero or one data accesses on every clock
/// cycle".
///
/// # Examples
///
/// ```
/// use mlc_trace::{AccessKind, Address, TraceRecord};
///
/// let r = TraceRecord::new(AccessKind::Read, Address::new(0x100));
/// assert!(r.kind.is_read());
/// assert_eq!(r.addr.get(), 0x100);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceRecord {
    /// What kind of reference this is.
    pub kind: AccessKind,
    /// The referenced byte address.
    pub addr: Address,
}

impl TraceRecord {
    /// Creates a new trace record.
    #[inline]
    pub const fn new(kind: AccessKind, addr: Address) -> Self {
        TraceRecord { kind, addr }
    }

    /// Convenience constructor for an instruction fetch.
    #[inline]
    pub const fn ifetch(addr: u64) -> Self {
        TraceRecord::new(AccessKind::InstructionFetch, Address::new(addr))
    }

    /// Convenience constructor for a data load.
    #[inline]
    pub const fn read(addr: u64) -> Self {
        TraceRecord::new(AccessKind::Read, Address::new(addr))
    }

    /// Convenience constructor for a data store.
    #[inline]
    pub const fn write(addr: u64) -> Self {
        TraceRecord::new(AccessKind::Write, Address::new(addr))
    }
}

/// Where a trace decoder puts the records it decodes, in trace order.
///
/// Each format has one decoder body, written against this trait
/// ([`slice::read_binary_slice_into`](crate::slice::read_binary_slice_into),
/// [`din::read_din_into`](crate::din::read_din_into)). A `Vec` sink
/// materialises the trace; a streaming consumer, such as a content
/// digest, sees every record without storing any. A pair of sinks
/// feeds both from one pass.
///
/// # Examples
///
/// ```
/// use mlc_trace::{binary, slice, AccessKind, FaultPolicy, RecordSink, TraceRecord};
///
/// /// Counts instruction fetches without storing the trace.
/// struct Ifetches(usize);
/// impl RecordSink for Ifetches {
///     fn push(&mut self, record: TraceRecord) {
///         self.0 += usize::from(record.kind == AccessKind::InstructionFetch);
///     }
/// }
///
/// let recs = vec![TraceRecord::ifetch(0x4), TraceRecord::write(0x100)];
/// let mut buf = Vec::new();
/// binary::write_compressed(&mut buf, &recs)?;
/// let mut sink = (Vec::new(), Ifetches(0));
/// slice::read_binary_slice_into(&buf, FaultPolicy::Fail, None, &mut sink)?;
/// assert_eq!((sink.0, sink.1 .0), (recs, 1));
/// # Ok::<(), mlc_trace::TraceError>(())
/// ```
pub trait RecordSink {
    /// A hint, given before the first record, of how many records the
    /// input declares (a binary header's count, capped by the decoder).
    /// The default ignores it.
    fn size_hint(&mut self, _records: usize) {}

    /// Takes the next decoded record.
    fn push(&mut self, record: TraceRecord);
}

impl RecordSink for Vec<TraceRecord> {
    fn size_hint(&mut self, records: usize) {
        self.reserve(records);
    }

    #[inline]
    fn push(&mut self, record: TraceRecord) {
        Vec::push(self, record);
    }
}

impl<A: RecordSink, B: RecordSink> RecordSink for (A, B) {
    fn size_hint(&mut self, records: usize) {
        self.0.size_hint(records);
        self.1.size_hint(records);
    }

    #[inline]
    fn push(&mut self, record: TraceRecord) {
        self.0.push(record);
        self.1.push(record);
    }
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.kind, self.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_kind_read_definition_matches_paper() {
        assert!(AccessKind::InstructionFetch.is_read());
        assert!(AccessKind::Read.is_read());
        assert!(!AccessKind::Write.is_read());
    }

    #[test]
    fn access_kind_data_routing() {
        assert!(!AccessKind::InstructionFetch.is_data());
        assert!(AccessKind::Read.is_data());
        assert!(AccessKind::Write.is_data());
    }

    #[test]
    fn all_lists_every_kind_in_din_label_order() {
        assert_eq!(AccessKind::ALL.len(), AccessKind::COUNT);
        for (i, kind) in AccessKind::ALL.iter().enumerate() {
            assert_eq!(kind.din_label() as usize, i);
        }
    }

    #[test]
    fn din_labels_round_trip() {
        for kind in [
            AccessKind::Read,
            AccessKind::Write,
            AccessKind::InstructionFetch,
        ] {
            assert_eq!(AccessKind::from_din_label(kind.din_label()), Some(kind));
        }
        assert_eq!(AccessKind::from_din_label(3), None);
        assert_eq!(AccessKind::from_din_label(255), None);
    }

    #[test]
    fn address_block_arithmetic() {
        let a = Address::new(0x12345);
        assert_eq!(a.block_index(16), 0x1234);
        assert_eq!(a.block_base(16).get(), 0x12340);
        assert_eq!(a.block_offset(16), 0x5);
        assert_eq!(a.block_base(1).get(), 0x12345);
    }

    #[test]
    fn address_display_is_fixed_width_hex() {
        assert_eq!(format!("{}", Address::new(0xff)), "0x00000000000000ff");
        assert_eq!(format!("{:x}", Address::new(0xff)), "ff");
        assert_eq!(format!("{:X}", Address::new(0xff)), "FF");
    }

    #[test]
    fn address_conversions() {
        let a: Address = 42u64.into();
        let v: u64 = a.into();
        assert_eq!(v, 42);
    }

    #[test]
    fn record_constructors() {
        assert_eq!(
            TraceRecord::ifetch(4),
            TraceRecord::new(AccessKind::InstructionFetch, Address::new(4))
        );
        assert_eq!(
            TraceRecord::read(8),
            TraceRecord::new(AccessKind::Read, Address::new(8))
        );
        assert_eq!(
            TraceRecord::write(12),
            TraceRecord::new(AccessKind::Write, Address::new(12))
        );
    }

    #[test]
    fn record_display() {
        let r = TraceRecord::write(0x10);
        assert_eq!(format!("{r}"), "write 0x0000000000000010");
    }

    #[test]
    fn wrapping_add_wraps() {
        assert_eq!(Address::new(u64::MAX).wrapping_add(1), Address::new(0));
    }
}
