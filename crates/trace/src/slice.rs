//! The binary trace decoder, over an in-memory byte slice.
//!
//! This is the one decoder for both binary layouts (see
//! [`binary`](crate::binary) for the format). It walks a `&[u8]` — a
//! full-buffer file read, an mmap, a network body — directly: no copies
//! into intermediate record buffers, bounds checks amortized per token,
//! and the v1 fixed-width payload decoded block-wise. Trace files reach
//! it through [`read_trace_file`](crate::read_trace_file), which reads
//! the file into memory with one `std::fs::read`.
//!
//! Entry points: [`read_binary_slice_with`] decodes a whole trace under
//! a [`FaultPolicy`]; [`read_binary_slice`] is its strict
//! ([`FaultPolicy::Fail`]) form.

use std::io::Write;

use crate::binary::{
    header_check, zigzag_decode, HEADER_LEN, KIND_SLOTS, MAGIC, RECORD_LEN, VERSION,
    VERSION_COMPRESSED,
};
use crate::error::TraceError;
use crate::fault::{absorb_fault, hex_bytes, FaultPolicy, IngestReport};
use crate::record::{AccessKind, Address, TraceRecord};

/// A validated binary trace header over a slice: version, declared
/// record count, and the payload offset.
#[derive(Debug, Clone, Copy)]
struct SliceHeader {
    version: u16,
    count: usize,
}

/// Parses and validates the 16-byte header.
fn parse_header(bytes: &[u8]) -> Result<SliceHeader, TraceError> {
    if bytes.len() < HEADER_LEN {
        return Err(TraceError::ParseBinary("truncated header".into()));
    }
    let header: &[u8; HEADER_LEN] = bytes[..HEADER_LEN].try_into().expect("length checked");
    if header[..4] != MAGIC {
        return Err(TraceError::ParseBinary("bad magic".into()));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION && version != VERSION_COMPRESSED {
        return Err(TraceError::ParseBinary(format!(
            "unsupported version {version}"
        )));
    }
    let stored_check = u16::from_le_bytes([header[6], header[7]]);
    if stored_check != header_check(header) {
        return Err(TraceError::ParseBinary(
            "header check mismatch (corrupt version or record count)".into(),
        ));
    }
    let mut count_bytes = [0u8; 8];
    count_bytes.copy_from_slice(&header[8..16]);
    let count: usize = u64::from_le_bytes(count_bytes)
        .try_into()
        .map_err(|_| TraceError::ParseBinary("record count overflows usize".into()))?;
    Ok(SliceHeader { version, count })
}

/// Outcome of decoding one v2 token from a slice.
enum Token {
    /// `(label, zigzag, token_len)` — a complete token.
    Complete(u8, u64, usize),
    /// The slice ended mid-token; the payload holds every byte consumed
    /// (possibly none), which the quarantine line dumps.
    Truncated(usize),
    /// The varint encoding is invalid; the stream cannot be resynced.
    Invalid(&'static str),
}

/// Decodes one v2 token starting at `pos`: at most 1 + 10 bytes. A u64
/// needs at most 10 LEB128 bytes and the 10th can carry only the top
/// bit, so significant bits beyond 64 and continuation past 10 varint
/// bytes are both invalid rather than silently wrapped.
#[inline]
fn decode_token(bytes: &[u8], pos: usize) -> Token {
    const MAX_BYTES: usize = 10;
    let Some(&first) = bytes.get(pos) else {
        return Token::Truncated(0);
    };
    let label = first & 0b11;
    let mut zigzag = u64::from((first >> 2) & 0x1f);
    if first & 0x80 == 0 {
        return Token::Complete(label, zigzag, 1);
    }
    let mut value = 0u64;
    for i in 0..MAX_BYTES {
        let Some(&byte) = bytes.get(pos + 1 + i) else {
            return Token::Truncated(1 + i);
        };
        let payload = u64::from(byte & 0x7f);
        if i == MAX_BYTES - 1 && payload > 1 {
            return Token::Invalid("varint overflows 64 bits");
        }
        value |= payload << (7 * i);
        if byte & 0x80 == 0 {
            zigzag |= value << 5;
            return Token::Complete(label, zigzag, 1 + i + 1);
        }
    }
    Token::Invalid("varint continues past 10 bytes")
}

/// Reads an entire binary trace from an in-memory slice.
///
/// # Errors
///
/// Returns [`TraceError::ParseBinary`] if the magic, version, record
/// count or any record is malformed.
///
/// # Examples
///
/// ```
/// use mlc_trace::{binary, slice, TraceRecord};
///
/// let recs = vec![TraceRecord::ifetch(0x4), TraceRecord::write(0x100)];
/// let mut buf = Vec::new();
/// binary::write_compressed(&mut buf, &recs)?;
/// assert_eq!(slice::read_binary_slice(&buf)?, recs);
/// # Ok::<(), mlc_trace::TraceError>(())
/// ```
pub fn read_binary_slice(bytes: &[u8]) -> Result<Vec<TraceRecord>, TraceError> {
    read_binary_slice_with(bytes, FaultPolicy::Fail, None).map(|(records, _)| records)
}

/// Reads a binary trace from an in-memory slice under a
/// [`FaultPolicy`].
///
/// Recoverable faults under [`FaultPolicy::Skip`] — each quarantined
/// (as a hex-dumped sidecar line) and skipped until the budget runs
/// out:
///
/// * a record with an invalid kind byte, in either version (v2 tokens
///   frame independently of the kind bits, so the stream stays in
///   sync);
/// * a payload that ends before the declared record count — the missing
///   tail counts as **one** quarantined record and sets
///   [`IngestReport::truncated`];
/// * trailing bytes after the final record (one quarantined record).
///
/// Always fatal, regardless of policy: header corruption (nothing
/// after a bad header can be trusted) and an undecodable v2 varint (the
/// token boundary is lost, so the stream cannot be resynchronised).
///
/// # Errors
///
/// Under [`FaultPolicy::Fail`], exactly the errors of
/// [`read_binary_slice`]. Under [`FaultPolicy::Skip`],
/// [`TraceError::FaultBudget`] once the budget is exceeded, the fatal
/// cases above as [`TraceError::ParseBinary`], or [`TraceError::Io`] if
/// writing a quarantine line fails.
///
/// # Examples
///
/// ```
/// use mlc_trace::{binary, slice, FaultPolicy, TraceRecord};
///
/// let recs = vec![TraceRecord::ifetch(0x4), TraceRecord::write(0x100)];
/// let mut buf = Vec::new();
/// binary::write_binary(&mut buf, &recs)?;
/// buf[16] = 7; // corrupt the first record's kind byte
/// let (records, report) =
///     slice::read_binary_slice_with(&buf, FaultPolicy::Skip { budget: 1 }, None)?;
/// assert_eq!(records, vec![TraceRecord::write(0x100)]);
/// assert_eq!(report.quarantined, 1);
/// # Ok::<(), mlc_trace::TraceError>(())
/// ```
pub fn read_binary_slice_with(
    bytes: &[u8],
    policy: FaultPolicy,
    quarantine: Option<&mut dyn Write>,
) -> Result<(Vec<TraceRecord>, IngestReport), TraceError> {
    let mut quarantine = quarantine;
    let mut report = IngestReport::default();
    let header = parse_header(bytes)?;
    let count = header.count;
    let mut out = Vec::with_capacity(count.min(1 << 24));
    let mut pos = HEADER_LEN;
    match header.version {
        VERSION => {
            for i in 0..count {
                let Some(rec) = bytes.get(pos..pos + RECORD_LEN) else {
                    absorb_fault(
                        policy,
                        &mut report,
                        &mut quarantine,
                        &format!("record {i}: truncated ({})", hex_bytes(&bytes[pos..])),
                        TraceError::ParseBinary(format!("truncated at record {i}")),
                    )?;
                    report.truncated = true;
                    return Ok((out, report));
                };
                pos += RECORD_LEN;
                match AccessKind::from_din_label(rec[0]) {
                    None => absorb_fault(
                        policy,
                        &mut report,
                        &mut quarantine,
                        &format!("record {i}: bad kind {} ({})", rec[0], hex_bytes(rec)),
                        TraceError::ParseBinary(format!("bad kind {} at record {i}", rec[0])),
                    )?,
                    Some(kind) => {
                        let mut addr_bytes = [0u8; 8];
                        addr_bytes.copy_from_slice(&rec[1..9]);
                        let addr = u64::from_le_bytes(addr_bytes);
                        out.push(TraceRecord::new(kind, Address::new(addr)));
                    }
                }
            }
        }
        VERSION_COMPRESSED => {
            let mut last = [0u64; KIND_SLOTS];
            for i in 0..count {
                match decode_token(bytes, pos) {
                    Token::Truncated(len) => {
                        absorb_fault(
                            policy,
                            &mut report,
                            &mut quarantine,
                            &format!(
                                "record {i}: truncated ({})",
                                hex_bytes(&bytes[pos..pos + len])
                            ),
                            TraceError::ParseBinary(format!("truncated at record {i}")),
                        )?;
                        report.truncated = true;
                        return Ok((out, report));
                    }
                    // The token boundary is lost: nothing after an
                    // undecodable varint can be re-framed, so this is
                    // fatal under every policy.
                    Token::Invalid(what) => {
                        return Err(TraceError::ParseBinary(format!("{what} at record {i}")));
                    }
                    Token::Complete(label, zigzag, len) => {
                        let token = &bytes[pos..pos + len];
                        pos += len;
                        match AccessKind::from_din_label(label) {
                            // A bad kind cannot be attributed to a
                            // delta slot, so the token is dropped
                            // without touching the tables; framing
                            // stays intact.
                            None => absorb_fault(
                                policy,
                                &mut report,
                                &mut quarantine,
                                &format!("record {i}: bad kind {label} ({})", hex_bytes(token)),
                                TraceError::ParseBinary(format!("bad kind {label} at record {i}")),
                            )?,
                            Some(kind) => {
                                let delta = zigzag_decode(zigzag);
                                let slot = label as usize;
                                let addr = last[slot].wrapping_add(delta as u64);
                                last[slot] = addr;
                                out.push(TraceRecord::new(kind, Address::new(addr)));
                            }
                        }
                    }
                }
            }
        }
        _ => unreachable!("version was validated against the supported set above"),
    }
    let trailing = bytes.len() - pos;
    if trailing > 0 {
        absorb_fault(
            policy,
            &mut report,
            &mut quarantine,
            &format!("trailer: {trailing} trailing bytes after final record"),
            TraceError::ParseBinary(format!("{trailing} trailing bytes after final record")),
        )?;
    }
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::{write_binary, write_compressed};

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord::ifetch(0),
            TraceRecord::read(u64::MAX),
            TraceRecord::write(0x1234_5678_9abc_def0),
        ]
    }

    #[test]
    fn slice_round_trips_both_versions() {
        let recs = sample();
        for packed in [false, true] {
            let mut buf = Vec::new();
            if packed {
                write_compressed(&mut buf, &recs).unwrap();
            } else {
                write_binary(&mut buf, &recs).unwrap();
            }
            assert_eq!(read_binary_slice(&buf).unwrap(), recs);
        }
    }

    #[test]
    fn slice_empty_round_trip() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &[]).unwrap();
        assert!(read_binary_slice(&buf).unwrap().is_empty());
    }

    #[test]
    fn slice_errors_match_read_path() {
        // A grab-bag of damage with the exact message each must raise;
        // the property suite covers every offset.
        type Mutation = fn(&mut Vec<u8>);
        let recs = sample();
        for packed in [false, true] {
            let mut clean = Vec::new();
            if packed {
                write_compressed(&mut clean, &recs).unwrap();
            } else {
                write_binary(&mut clean, &recs).unwrap();
            }
            // v2 record 0 (ifetch 0) is the one-byte token 0x02, so a cut
            // at 17 bytes truncates record 1 there but record 0 in v1.
            let cases: [(Mutation, &str); 6] = [
                (|b| b[0] = b'X', "bad magic"),
                (|b| b[4] = 99, "unsupported version 99"),
                (
                    |b| b[6] ^= 1,
                    "header check mismatch (corrupt version or record count)",
                ),
                (
                    |b| b.truncate(17),
                    if packed {
                        "truncated at record 1"
                    } else {
                        "truncated at record 0"
                    },
                ),
                (|b| b.push(0xaa), "1 trailing bytes after final record"),
                // 0x07 is kind byte 7 in v1 and label bits 3 in v2.
                (
                    |b| b[HEADER_LEN] = 0x07,
                    if packed {
                        "bad kind 3 at record 0"
                    } else {
                        "bad kind 7 at record 0"
                    },
                ),
            ];
            for (mutate, want) in cases {
                let mut buf = clean.clone();
                mutate(&mut buf);
                let want = format!("malformed binary trace: {want}");
                let err = read_binary_slice(&buf).unwrap_err();
                assert_eq!(err.to_string(), want, "packed={packed}");
            }
        }
    }
}
