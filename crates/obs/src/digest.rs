//! Content digests for trace provenance.
//!
//! A manifest that names a trace only by path is an audit trail with a
//! hole in it — the file can be regenerated with a different seed and
//! every downstream number silently changes. The 64-bit FNV-1a digest
//! here hashes the *records* (kind label + address), not the file
//! bytes, so the same trace stored as `.din`, fixed-width binary, or
//! delta-compressed binary digests identically.

use mlc_trace::{RecordSink, TraceRecord};

/// Streaming 64-bit FNV-1a hasher.
///
/// # Examples
///
/// ```
/// use mlc_obs::Fnv64;
///
/// let mut h = Fnv64::new();
/// h.write(b"hello");
/// assert_eq!(h.finish(), 0xa430d84680aabd0b);
/// ```
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x100_0000_01b3;

impl Fnv64 {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64 {
            state: OFFSET_BASIS,
        }
    }

    /// Absorbs `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(PRIME);
        }
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// A streaming record digest: the FNV-1a hash [`digest_records`]
/// computes, taken one record at a time, plus the number of records
/// absorbed. It is a [`RecordSink`], so a trace decoder can digest a
/// trace straight from its bytes without storing a record.
///
/// # Examples
///
/// ```
/// use mlc_obs::{digest_records, RecordDigest};
/// use mlc_trace::{RecordSink, TraceRecord};
///
/// let recs = [TraceRecord::ifetch(0x4), TraceRecord::read(0x100)];
/// let mut d = RecordDigest::new();
/// recs.iter().for_each(|&r| d.push(r));
/// assert_eq!((d.finish(), d.records()), (digest_records(&recs), 2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RecordDigest {
    hash: Fnv64,
    records: usize,
}

impl RecordDigest {
    /// An empty digest (the digest of no records).
    pub fn new() -> Self {
        RecordDigest::default()
    }

    /// Records absorbed so far.
    pub fn records(&self) -> usize {
        self.records
    }

    /// The digest of every record absorbed so far.
    pub fn finish(&self) -> u64 {
        self.hash.finish()
    }

    /// [`RecordDigest::finish`] rendered as the manifest's digest
    /// string, exactly as [`digest_records_hex`] renders it.
    pub fn hex(&self) -> String {
        format!("fnv1a64:{:016x}", self.finish())
    }
}

impl RecordSink for RecordDigest {
    /// Absorbs one record: its din kind label byte, then its address in
    /// little-endian order. The one per-record digest step.
    #[inline]
    fn push(&mut self, record: TraceRecord) {
        self.hash.write(&[record.kind.din_label()]);
        self.hash.write(&record.addr.get().to_le_bytes());
        self.records += 1;
    }
}

/// Digests a record sequence: per record, the din kind label byte
/// followed by the address in little-endian order.
///
/// # Examples
///
/// ```
/// use mlc_obs::digest_records;
/// use mlc_trace::TraceRecord;
///
/// let a = [TraceRecord::ifetch(0x4), TraceRecord::read(0x100)];
/// let b = [TraceRecord::ifetch(0x4), TraceRecord::read(0x101)];
/// assert_ne!(digest_records(&a), digest_records(&b));
/// assert_eq!(digest_records(&a), digest_records(&a));
/// ```
pub fn digest_records(records: &[TraceRecord]) -> u64 {
    fold(records).finish()
}

/// [`digest_records`] rendered as the manifest's digest string, e.g.
/// `"fnv1a64:a1b2c3d4e5f60718"`.
pub fn digest_records_hex(records: &[TraceRecord]) -> String {
    fold(records).hex()
}

fn fold(records: &[TraceRecord]) -> RecordDigest {
    let mut d = RecordDigest::new();
    for &r in records {
        d.push(r);
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_fnv1a_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        let mut h = Fnv64::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325); // empty
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn digest_is_order_and_kind_sensitive() {
        let a = [TraceRecord::read(1), TraceRecord::write(2)];
        let b = [TraceRecord::write(2), TraceRecord::read(1)];
        let c = [TraceRecord::write(1), TraceRecord::read(2)];
        assert_ne!(digest_records(&a), digest_records(&b));
        assert_ne!(digest_records(&a), digest_records(&c));
        assert_ne!(digest_records(&a), digest_records(&a[..1]));
    }

    #[test]
    fn hex_format_is_fixed_width() {
        let d = digest_records_hex(&[]);
        assert!(d.starts_with("fnv1a64:"));
        assert_eq!(d.len(), "fnv1a64:".len() + 16);
    }
}
