//! Property tests for the binary trace codecs: arbitrary record
//! sequences must round-trip bit-exact through both formats, and any
//! header corruption must surface as an error — never as a
//! wrong-but-`Ok` trace.
//!
//! Deterministic xoshiro-seeded cases stand in for a property-testing
//! framework (the workspace has no external dependencies); a failure
//! message names the case number so it can be replayed.

use mlc_trace::binary::{write_binary, write_compressed};
use mlc_trace::slice::read_binary_slice;
use mlc_trace::synth::Xoshiro;
use mlc_trace::{AccessKind, TraceRecord};

const HEADER_LEN: usize = 16;

fn rng_for_case(case: u64) -> Xoshiro {
    Xoshiro::seed_from_u64(0xB1A4 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Arbitrary record sequences biased toward the codec's edge cases:
/// duplicate addresses (a small reuse pool), runs of one kind (delta
/// bases go stale for the others), zero and `u64::MAX` addresses
/// (extreme zigzag deltas), and the empty trace.
fn arbitrary_records(rng: &mut Xoshiro) -> Vec<TraceRecord> {
    let n = rng.next_below(180) as usize;
    let pool: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
    let mut kind = AccessKind::InstructionFetch;
    (0..n)
        .map(|_| {
            // 50%: keep the previous kind, making long same-kind runs.
            if rng.next_bool(0.5) {
                kind = AccessKind::ALL[rng.next_below(3) as usize];
            }
            let addr = match rng.next_below(10) {
                0 => 0,
                1 => u64::MAX,
                2..=5 => pool[rng.next_below(8) as usize],
                _ => rng.next_u64(),
            };
            TraceRecord::new(kind, addr.into())
        })
        .collect()
}

#[test]
fn fixed_width_round_trips_arbitrary_records() {
    for case in 0..200u64 {
        let recs = arbitrary_records(&mut rng_for_case(case));
        let mut buf = Vec::new();
        write_binary(&mut buf, &recs).unwrap_or_else(|e| panic!("case {case}: write: {e}"));
        let back = read_binary_slice(&buf).unwrap_or_else(|e| panic!("case {case}: read: {e}"));
        assert_eq!(back, recs, "case {case}: v1 round trip");
    }
}

#[test]
fn compressed_round_trips_arbitrary_records() {
    for case in 0..200u64 {
        let recs = arbitrary_records(&mut rng_for_case(0x5EED ^ case));
        let mut buf = Vec::new();
        write_compressed(&mut buf, &recs).unwrap_or_else(|e| panic!("case {case}: write: {e}"));
        let back = read_binary_slice(&buf).unwrap_or_else(|e| panic!("case {case}: read: {e}"));
        assert_eq!(back, recs, "case {case}: v2 round trip");
    }
}

/// Every single-byte header mutation must be rejected. The magic and
/// version fields are checked directly; everything else (version flips
/// between the two supported codecs, record-count edits, check-field
/// corruption) is caught by the header check or by the
/// truncated/trailing payload checks.
#[test]
fn every_mutated_header_byte_errors() {
    for case in 0..40u64 {
        let mut rng = rng_for_case(0xC0DE ^ case);
        let recs = arbitrary_records(&mut rng);
        for compressed in [false, true] {
            let mut buf = Vec::new();
            if compressed {
                write_compressed(&mut buf, &recs).unwrap();
            } else {
                write_binary(&mut buf, &recs).unwrap();
            }
            for idx in 0..HEADER_LEN {
                for mutation in [buf[idx] ^ 0x01, buf[idx] ^ 0x80, !buf[idx], buf[idx] ^ 0x03] {
                    let mut bad = buf.clone();
                    bad[idx] = mutation;
                    assert!(
                        read_binary_slice(&bad).is_err(),
                        "case {case} compressed={compressed}: header byte {idx} \
                         {:#04x} -> {mutation:#04x} was accepted",
                        buf[idx]
                    );
                }
            }
        }
    }
}

/// Every truncation of the header — and of the payload — must be an
/// error, never a shortened-but-`Ok` trace.
#[test]
fn every_truncation_errors() {
    for case in 0..40u64 {
        let mut rng = rng_for_case(0x7120 ^ case);
        let mut recs = arbitrary_records(&mut rng);
        if recs.is_empty() {
            recs.push(TraceRecord::ifetch(rng.next_u64()));
        }
        for compressed in [false, true] {
            let mut buf = Vec::new();
            if compressed {
                write_compressed(&mut buf, &recs).unwrap();
            } else {
                write_binary(&mut buf, &recs).unwrap();
            }
            for len in 0..HEADER_LEN {
                assert!(
                    read_binary_slice(&buf[..len]).is_err(),
                    "case {case} compressed={compressed}: {len}-byte header prefix accepted"
                );
            }
            // A non-empty payload truncated anywhere must also fail.
            for len in [buf.len() - 1, HEADER_LEN + (buf.len() - HEADER_LEN) / 2] {
                assert!(
                    read_binary_slice(&buf[..len]).is_err(),
                    "case {case} compressed={compressed}: truncation to {len} bytes accepted"
                );
            }
        }
    }
}

/// Appending garbage after a valid trace of either version must fail
/// with the excess reported, regardless of what the garbage looks like.
#[test]
fn trailing_garbage_always_errors() {
    for case in 0..40u64 {
        let mut rng = rng_for_case(0x9A11 ^ case);
        let recs = arbitrary_records(&mut rng);
        let extra = 1 + rng.next_below(32) as usize;
        for compressed in [false, true] {
            let mut buf = Vec::new();
            if compressed {
                write_compressed(&mut buf, &recs).unwrap();
            } else {
                write_binary(&mut buf, &recs).unwrap();
            }
            for _ in 0..extra {
                buf.push(rng.next_u64() as u8);
            }
            let err = read_binary_slice(&buf).unwrap_err();
            assert!(
                err.to_string().contains("trailing"),
                "case {case} compressed={compressed}: {err}"
            );
        }
    }
}
