//! Compact binary trace formats.
//!
//! Text `.din` traces are convenient but bulky (≈12 bytes per reference).
//! Two binary layouts share a 16-byte header:
//!
//! ```text
//! header:  magic "MLCT" (4 bytes) | version u16 LE | header check u16 LE |
//!          record count u64 LE
//! ```
//!
//! The header check is a 16-bit fold of FNV-1a over the other 14 header
//! bytes, so a corrupted version or record count is rejected before any
//! payload is interpreted — without it, a v1↔v2 version flip could decode
//! a payload under the wrong codec and still "succeed".
//!
//! **Version 1** (fixed width, [`write_binary`]): one 9-byte record per
//! reference — `kind u8 (din label) | address u64 LE`. Deliberately
//! trivial, so any tool can produce or consume it in a dozen lines.
//!
//! **Version 2** (compressed, [`write_compressed`]): one variable-length
//! token per reference. The first byte holds the kind (2 bits), the low
//! 5 bits of `zigzag(delta)` and a continuation flag; remaining zigzag
//! bits follow as standard LEB128. `delta` is the address difference
//! from the previous reference *of the same kind*, so sequential
//! instruction fetches and stack-local data references cost a single
//! byte each — typically 4–6× smaller than v1.
//!
//! This module owns the format — header, writers, zigzag and varint
//! encoding. The one decoder for both versions is
//! [`read_binary_slice_with`](crate::slice::read_binary_slice_with) in
//! [`slice`](crate::slice); files reach it through
//! [`read_trace_file`](crate::read_trace_file).

use std::io::{self, Write};

use crate::error::TraceError;
use crate::record::{AccessKind, TraceRecord};

/// The 4-byte magic at the start of every binary trace.
pub const MAGIC: [u8; 4] = *b"MLCT";

/// The fixed-width format version.
pub const VERSION: u16 = 1;

/// The delta-compressed format version.
pub const VERSION_COMPRESSED: u16 = 2;

pub(crate) const HEADER_LEN: usize = 16;
pub(crate) const RECORD_LEN: usize = 9;

/// Slots in the v2 per-kind delta tables, indexed by Dinero label.
pub(crate) const KIND_SLOTS: usize = AccessKind::COUNT;

// The v2 codec keeps one delta base per access kind, indexed by din
// label; verify at compile time that the labels are exactly
// `0..KIND_SLOTS` so no variant can alias another slot.
const _: () = {
    let mut seen = [false; KIND_SLOTS];
    let mut i = 0;
    while i < KIND_SLOTS {
        let label = AccessKind::ALL[i].din_label() as usize;
        assert!(label < KIND_SLOTS, "din label outside the delta table");
        assert!(!seen[label], "two access kinds share a din label");
        seen[label] = true;
        i += 1;
    }
};

/// The header integrity check: FNV-1a over the 16 header bytes with the
/// check field itself zeroed, folded to 16 bits.
pub(crate) fn header_check(header: &[u8; HEADER_LEN]) -> u16 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (i, &b) in header.iter().enumerate() {
        let b = if i == 6 || i == 7 { 0 } else { b };
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h ^ (h >> 16) ^ (h >> 32) ^ (h >> 48)) as u16
}

/// Builds a header for `version` and `count`, including the check field.
pub(crate) fn make_header(version: u16, count: u64) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&MAGIC);
    header[4..6].copy_from_slice(&version.to_le_bytes());
    header[8..16].copy_from_slice(&count.to_le_bytes());
    let check = header_check(&header);
    header[6..8].copy_from_slice(&check.to_le_bytes());
    header
}

/// Writes a trace to `w` in the binary format.
///
/// `records` must be an exact-size collection because the record count is
/// part of the header; pass a slice or `Vec`.
///
/// # Errors
///
/// Returns any I/O error from the underlying writer.
///
/// # Examples
///
/// ```
/// use mlc_trace::{binary, slice, TraceRecord};
///
/// let recs = vec![TraceRecord::ifetch(0x4), TraceRecord::write(0x100)];
/// let mut buf = Vec::new();
/// binary::write_binary(&mut buf, &recs)?;
/// assert_eq!(slice::read_binary_slice(&buf)?, recs);
/// # Ok::<(), mlc_trace::TraceError>(())
/// ```
pub fn write_binary<W: Write>(w: W, records: &[TraceRecord]) -> Result<(), TraceError> {
    let mut w = io::BufWriter::new(w);
    w.write_all(&make_header(VERSION, records.len() as u64))?;
    for r in records {
        let mut rec = [0u8; RECORD_LEN];
        rec[0] = r.kind.din_label();
        rec[1..9].copy_from_slice(&r.addr.get().to_le_bytes());
        w.write_all(&rec)?;
    }
    w.flush()?;
    Ok(())
}

/// Writes a trace in the delta-compressed v2 format (see module docs).
/// Read it back with
/// [`read_binary_slice`](crate::slice::read_binary_slice), which handles
/// both versions.
///
/// # Errors
///
/// Returns any I/O error from the underlying writer.
///
/// # Examples
///
/// ```
/// use mlc_trace::{binary, slice, TraceRecord};
///
/// let recs: Vec<_> = (0..1000u64).map(|i| TraceRecord::ifetch(i * 4)).collect();
/// let mut fixed = Vec::new();
/// binary::write_binary(&mut fixed, &recs)?;
/// let mut packed = Vec::new();
/// binary::write_compressed(&mut packed, &recs)?;
/// assert_eq!(slice::read_binary_slice(&packed)?, recs);
/// // Sequential fetches compress to ~1 byte per record.
/// assert!(packed.len() < fixed.len() / 4);
/// # Ok::<(), mlc_trace::TraceError>(())
/// ```
pub fn write_compressed<W: Write>(w: W, records: &[TraceRecord]) -> Result<(), TraceError> {
    let mut w = io::BufWriter::new(w);
    w.write_all(&make_header(VERSION_COMPRESSED, records.len() as u64))?;
    let mut last = [0u64; KIND_SLOTS];
    let mut buf = [0u8; 10];
    for r in records {
        let slot = r.kind.din_label() as usize;
        let delta = r.addr.get().wrapping_sub(last[slot]) as i64;
        last[slot] = r.addr.get();
        let zigzag = zigzag_encode(delta);
        let mut first = r.kind.din_label() | (((zigzag & 0x1f) as u8) << 2);
        let rest = zigzag >> 5;
        if rest != 0 {
            first |= 0x80;
            w.write_all(&[first])?;
            let n = write_varint(rest, &mut buf);
            w.write_all(&buf[..n])?;
        } else {
            w.write_all(&[first])?;
        }
    }
    w.flush()?;
    Ok(())
}

#[inline]
fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
pub(crate) fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// LEB128-encodes `v` into `buf`, returning the byte count (≤ 10).
#[inline]
fn write_varint(mut v: u64, buf: &mut [u8; 10]) -> usize {
    let mut n = 0;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf[n] = byte;
            return n + 1;
        }
        buf[n] = byte | 0x80;
        n += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPolicy, IngestReport};
    use crate::slice::{read_binary_slice, read_binary_slice_with};

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord::ifetch(0),
            TraceRecord::read(u64::MAX),
            TraceRecord::write(0x1234_5678_9abc_def0),
        ]
    }

    #[test]
    fn round_trip() {
        let recs = sample();
        let mut buf = Vec::new();
        write_binary(&mut buf, &recs).unwrap();
        assert_eq!(buf.len(), HEADER_LEN + RECORD_LEN * recs.len());
        assert_eq!(read_binary_slice(&buf).unwrap(), recs);
    }

    #[test]
    fn empty_round_trip() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &[]).unwrap();
        assert!(read_binary_slice(&buf).unwrap().is_empty());
    }

    #[test]
    fn compressed_round_trip() {
        let recs = sample();
        let mut buf = Vec::new();
        write_compressed(&mut buf, &recs).unwrap();
        assert_eq!(read_binary_slice(&buf).unwrap(), recs);
    }

    #[test]
    fn compressed_round_trip_synthetic_workload() {
        use crate::synth::{workload::Preset, MultiProgramGenerator};
        let recs = MultiProgramGenerator::new(Preset::Vms1.config(2))
            .unwrap()
            .generate_records(30_000);
        let mut fixed = Vec::new();
        write_binary(&mut fixed, &recs).unwrap();
        let mut packed = Vec::new();
        write_compressed(&mut packed, &recs).unwrap();
        assert_eq!(read_binary_slice(&packed).unwrap(), recs);
        assert!(
            packed.len() * 3 < fixed.len(),
            "compressed {} vs fixed {}",
            packed.len(),
            fixed.len()
        );
    }

    #[test]
    fn compressed_empty_round_trip() {
        let mut buf = Vec::new();
        write_compressed(&mut buf, &[]).unwrap();
        assert!(read_binary_slice(&buf).unwrap().is_empty());
    }

    #[test]
    fn compressed_handles_extreme_deltas() {
        let recs = vec![
            TraceRecord::read(0),
            TraceRecord::read(u64::MAX),
            TraceRecord::read(0),
            TraceRecord::ifetch(u64::MAX / 2),
            TraceRecord::write(1),
        ];
        let mut buf = Vec::new();
        write_compressed(&mut buf, &recs).unwrap();
        assert_eq!(read_binary_slice(&buf).unwrap(), recs);
    }

    #[test]
    fn compressed_rejects_truncation() {
        let recs = sample();
        let mut buf = Vec::new();
        write_compressed(&mut buf, &recs).unwrap();
        buf.truncate(buf.len() - 1);
        assert!(read_binary_slice(&buf).is_err());
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 4, -4, i64::MAX, i64::MIN, 123456789] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    /// A one-record v2 trace whose single token is `first` followed by
    /// the varint bytes `rest`.
    fn v2_token(first: u8, rest: &[u8]) -> Vec<u8> {
        let mut buf = make_header(VERSION_COMPRESSED, 1).to_vec();
        buf.push(first);
        buf.extend_from_slice(rest);
        buf
    }

    #[test]
    fn varint_round_trips() {
        // A read token (label 0, low zigzag bits 0, continuation set)
        // carries `v` as its varint tail, so the zigzag is `v << 5`.
        let mut buf = [0u8; 10];
        for v in [0u64, 1, 127, 128, 300, 1 << 35, u64::MAX >> 5] {
            let n = write_varint(v, &mut buf);
            let recs = read_binary_slice(&v2_token(0x80, &buf[..n])).unwrap();
            let addr = zigzag_decode(v << 5) as u64;
            assert_eq!(recs, vec![TraceRecord::read(addr)], "varint {v}");
        }
        assert_eq!(write_varint(0, &mut buf), 1);
        assert_eq!(write_varint(127, &mut buf), 1);
        assert_eq!(write_varint(128, &mut buf), 2);
        assert_eq!(write_varint(u64::MAX, &mut buf), 10);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            read_binary_slice(&buf),
            Err(TraceError::ParseBinary(_))
        ));
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf[4] = 99;
        let err = read_binary_slice(&buf).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn rejects_truncation() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf.truncate(buf.len() - 1);
        let err = read_binary_slice(&buf).unwrap_err();
        assert!(err.to_string().contains("truncated"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf.push(0);
        let err = read_binary_slice(&buf).unwrap_err();
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn trailing_byte_count_is_reported() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf.extend_from_slice(&[0xaa; 7]);
        let err = read_binary_slice(&buf).unwrap_err();
        assert!(
            err.to_string().contains("7 trailing bytes"),
            "want exact excess in the message, got: {err}"
        );
    }

    #[test]
    fn rejects_count_smaller_than_payload() {
        // A consistent header (valid check) declaring 1 record over a
        // 3-record payload: the 18 excess bytes must be an error, not a
        // silently shortened trace.
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf[..HEADER_LEN].copy_from_slice(&make_header(VERSION, 1));
        let err = read_binary_slice(&buf).unwrap_err();
        assert!(err.to_string().contains("18 trailing bytes"), "{err}");
    }

    #[test]
    fn rejects_compressed_count_smaller_than_payload() {
        let mut buf = Vec::new();
        write_compressed(&mut buf, &sample()).unwrap();
        buf[..HEADER_LEN].copy_from_slice(&make_header(VERSION_COMPRESSED, 1));
        let err = read_binary_slice(&buf).unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    #[test]
    fn rejects_header_check_mismatch() {
        for flip in [6usize, 7] {
            let mut buf = Vec::new();
            write_binary(&mut buf, &sample()).unwrap();
            buf[flip] ^= 0x01;
            let err = read_binary_slice(&buf).unwrap_err();
            assert!(err.to_string().contains("header check"), "{err}");
        }
    }

    #[test]
    fn rejects_version_flip_between_formats() {
        // v1 payload relabelled as v2 (and vice versa) must fail on the
        // header check instead of decoding under the wrong codec.
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf[4..6].copy_from_slice(&VERSION_COMPRESSED.to_le_bytes());
        assert!(read_binary_slice(&buf).is_err());

        let mut buf = Vec::new();
        write_compressed(&mut buf, &sample()).unwrap();
        buf[4..6].copy_from_slice(&VERSION.to_le_bytes());
        assert!(read_binary_slice(&buf).is_err());
    }

    #[test]
    fn varint_rejects_continuation_past_ten_bytes() {
        let err = read_binary_slice(&v2_token(0x80, &[0x80u8; 11])).unwrap_err();
        assert!(matches!(err, TraceError::ParseBinary(_)), "{err}");
        assert_eq!(
            err.to_string(),
            "malformed binary trace: varint continues past 10 bytes at record 0"
        );
    }

    #[test]
    fn varint_rejects_overflow_in_tenth_byte() {
        // Nine continuation bytes then a final byte with more than the
        // single bit a u64 has left: the high bits must not be silently
        // discarded.
        let mut rest = [0x80u8; 10];
        rest[9] = 0x02;
        let err = read_binary_slice(&v2_token(0x80, &rest)).unwrap_err();
        assert!(matches!(err, TraceError::ParseBinary(_)), "{err}");
        assert_eq!(
            err.to_string(),
            "malformed binary trace: varint overflows 64 bits at record 0"
        );

        // The maximum canonical encoding (u64::MAX) still decodes. With
        // all five low zigzag bits of the first byte set, the zigzag is
        // all ones: delta i64::MIN from a zero base, address 1 << 63.
        let mut max = [0xffu8; 10];
        max[9] = 0x01;
        let recs = read_binary_slice(&v2_token(0x80 | (0x1f << 2), &max)).unwrap();
        assert_eq!(recs, vec![TraceRecord::read(1 << 63)]);
    }

    #[test]
    fn compressed_rejects_overlong_varint_token() {
        // kind Read, continuation set, followed by an 11-byte varint.
        let mut rest = [0x80u8; 11];
        rest[10] = 0x00;
        let buf = v2_token(0x80, &rest);
        let err = read_binary_slice(&buf).unwrap_err();
        assert!(err.to_string().contains("varint"), "{err}");
    }

    #[test]
    fn rejects_bad_kind_byte() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf[HEADER_LEN] = 7;
        let err = read_binary_slice(&buf).unwrap_err();
        assert!(err.to_string().contains("bad kind"));
    }

    #[test]
    fn rejects_truncated_header() {
        let err = read_binary_slice(b"MLC").unwrap_err();
        assert!(err.to_string().contains("truncated header"));
    }

    #[test]
    fn degraded_matches_strict_on_clean_input() {
        let recs = sample();
        let mut fixed = Vec::new();
        write_binary(&mut fixed, &recs).unwrap();
        let mut packed = Vec::new();
        write_compressed(&mut packed, &recs).unwrap();
        for buf in [fixed, packed] {
            let (got, report) =
                read_binary_slice_with(&buf, FaultPolicy::Skip { budget: 0 }, None).unwrap();
            assert_eq!(got, recs);
            assert_eq!(report, IngestReport::default());
        }
    }

    #[test]
    fn degraded_fail_policy_matches_strict_messages() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf[HEADER_LEN] = 7;
        let strict = read_binary_slice(&buf).unwrap_err();
        let degraded = read_binary_slice_with(&buf, FaultPolicy::Fail, None).unwrap_err();
        assert_eq!(strict.to_string(), degraded.to_string());
    }

    #[test]
    fn degraded_v1_quarantines_bad_kind() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf[HEADER_LEN + RECORD_LEN] = 9; // record 1's kind byte
        let mut sidecar = Vec::new();
        let (got, report) =
            read_binary_slice_with(&buf, FaultPolicy::Skip { budget: 1 }, Some(&mut sidecar))
                .unwrap();
        assert_eq!(
            got,
            vec![
                TraceRecord::ifetch(0),
                TraceRecord::write(0x1234_5678_9abc_def0)
            ]
        );
        assert_eq!(report.quarantined, 1);
        assert!(!report.truncated);
        let sidecar = String::from_utf8(sidecar).unwrap();
        assert!(sidecar.starts_with("record 1: bad kind 9 (09"), "{sidecar}");
    }

    #[test]
    fn degraded_v1_truncated_tail_stops_early() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf.truncate(buf.len() - 4); // last record loses its tail
        let mut sidecar = Vec::new();
        let (got, report) =
            read_binary_slice_with(&buf, FaultPolicy::Skip { budget: 1 }, Some(&mut sidecar))
                .unwrap();
        assert_eq!(
            got,
            vec![TraceRecord::ifetch(0), TraceRecord::read(u64::MAX)]
        );
        assert_eq!(report.quarantined, 1);
        assert!(report.truncated);
        assert!(
            String::from_utf8(sidecar)
                .unwrap()
                .starts_with("record 2: truncated ("),
            "sidecar names the partial record"
        );
    }

    #[test]
    fn degraded_v2_skips_bad_kind_without_desync() {
        // sample() compresses to: ifetch(0) -> 0x02 (1 byte), then
        // read(u64::MAX). Setting record 1's label bits to 3 makes its
        // kind invalid without touching the continuation flag, so the
        // token still frames and record 2 (a write, a different delta
        // slot) must decode exactly.
        let recs = sample();
        let mut buf = Vec::new();
        write_compressed(&mut buf, &recs).unwrap();
        buf[HEADER_LEN + 1] |= 0b11;
        let mut sidecar = Vec::new();
        let (got, report) =
            read_binary_slice_with(&buf, FaultPolicy::Skip { budget: 1 }, Some(&mut sidecar))
                .unwrap();
        assert_eq!(
            got,
            vec![
                TraceRecord::ifetch(0),
                TraceRecord::write(0x1234_5678_9abc_def0)
            ]
        );
        assert_eq!(report.quarantined, 1);
        assert!(
            String::from_utf8(sidecar)
                .unwrap()
                .starts_with("record 1: bad kind 3 ("),
            "sidecar carries the skipped token"
        );
    }

    #[test]
    fn degraded_v2_truncation_stops_early() {
        let mut buf = Vec::new();
        write_compressed(&mut buf, &sample()).unwrap();
        buf.truncate(buf.len() - 1);
        let (got, report) =
            read_binary_slice_with(&buf, FaultPolicy::Skip { budget: 1 }, None).unwrap();
        assert_eq!(got.len(), 2);
        assert!(report.truncated);
        assert_eq!(report.quarantined, 1);
    }

    #[test]
    fn degraded_v2_varint_corruption_is_fatal_even_under_skip() {
        let mut rest = [0x80u8; 11];
        rest[10] = 0x00;
        let buf = v2_token(0x80, &rest);
        let err =
            read_binary_slice_with(&buf, FaultPolicy::Skip { budget: 100 }, None).unwrap_err();
        assert!(err.to_string().contains("varint"), "{err}");
    }

    #[test]
    fn degraded_trailing_bytes_quarantined() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf.extend_from_slice(&[0xaa; 7]);
        let mut sidecar = Vec::new();
        let (got, report) =
            read_binary_slice_with(&buf, FaultPolicy::Skip { budget: 1 }, Some(&mut sidecar))
                .unwrap();
        assert_eq!(got, sample());
        assert_eq!(report.quarantined, 1);
        assert_eq!(
            String::from_utf8(sidecar).unwrap(),
            "trailer: 7 trailing bytes after final record\n"
        );
    }

    #[test]
    fn degraded_budget_exceeded_is_typed() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf[HEADER_LEN] = 9;
        buf[HEADER_LEN + RECORD_LEN] = 9;
        let err = read_binary_slice_with(&buf, FaultPolicy::Skip { budget: 1 }, None).unwrap_err();
        assert!(matches!(err, TraceError::FaultBudget { budget: 1, .. }));
    }

    #[test]
    fn degraded_header_faults_are_fatal() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf[0] = b'X';
        assert!(read_binary_slice_with(&buf, FaultPolicy::Skip { budget: 100 }, None).is_err());
    }

    #[test]
    fn degraded_io_errors_are_fatal() {
        // The decoder's only I/O is the quarantine sidecar: a failed
        // write there ends the read, whatever budget is left.
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf[HEADER_LEN] = 9;
        let policy = FaultPolicy::Skip { budget: 100 };
        let err = read_binary_slice_with(&buf, policy, Some(&mut Broken)).unwrap_err();
        assert!(matches!(err, TraceError::Io(_)), "{err}");
    }
}
