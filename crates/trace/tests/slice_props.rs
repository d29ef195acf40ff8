//! Property suite for the binary trace decoder: over every-offset
//! truncations, bit-flips and trailing garbage of both binary layouts,
//! under three fault policies, the decoder must return exactly the
//! outcome the format dictates — records, error strings, quarantine
//! sidecars and ingest reports — through both the slice entry point and
//! the `Read` entry point. Expected outcomes are derived from the
//! encoder's record boundaries, never from the decoder under test. The
//! streaming iterator must match the bulk decoder under the strict
//! policy too.

use mlc_trace::binary::{read_binary_with, write_binary, write_compressed};
use mlc_trace::slice::{read_binary_slice_with, SliceRecords};
use mlc_trace::{FaultPolicy, TraceRecord};

/// A small but representative trace: all three kinds, delta extremes.
fn sample() -> Vec<TraceRecord> {
    let mut recs = Vec::new();
    for i in 0..8u64 {
        recs.push(TraceRecord::ifetch(i * 4));
        recs.push(TraceRecord::read(0x1000 + i * 64));
        recs.push(TraceRecord::write(u64::MAX - i));
    }
    recs
}

type Encoder = fn(&mut Vec<u8>, &[TraceRecord]) -> Result<(), mlc_trace::TraceError>;

/// The two binary layouts (`.din` is line-oriented text, decoded
/// elsewhere).
fn encoders() -> [(&'static str, Encoder); 2] {
    [
        ("v1", |w, r| write_binary(w, r)),
        ("v2", |w, r| write_compressed(w, r)),
    ]
}

fn encode(encoder: Encoder, records: &[TraceRecord]) -> Vec<u8> {
    let mut buf = Vec::new();
    encoder(&mut buf, records).unwrap();
    buf
}

fn encodings() -> Vec<(&'static str, Vec<u8>)> {
    encoders()
        .into_iter()
        .map(|(name, encoder)| (name, encode(encoder, &sample())))
        .collect()
}

/// `ends[k]` is the byte offset at which record `k - 1` ends, i.e. the
/// encoded length of the first `k` records (header included; both
/// layouts encode a prefix of the trace as a prefix of the payload).
fn record_ends(encoder: Encoder) -> Vec<usize> {
    let recs = sample();
    (0..=recs.len())
        .map(|k| encode(encoder, &recs[..k]).len())
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

type Outcome = (
    Result<(Vec<TraceRecord>, u64, bool), String>,
    String, // quarantine sidecar contents
);

/// Decodes through the `Read` entry point or the slice entry point.
fn decode(bytes: &[u8], policy: FaultPolicy, via_read: bool) -> Outcome {
    let mut sidecar = Vec::new();
    let result = if via_read {
        read_binary_with(bytes, policy, Some(&mut sidecar))
    } else {
        read_binary_slice_with(bytes, policy, Some(&mut sidecar))
    };
    let result = result
        .map(|(recs, report)| (recs, report.quarantined, report.truncated))
        .map_err(|e| e.to_string());
    (result, String::from_utf8(sidecar).unwrap())
}

/// Both entry points must produce exactly `expected` on `bytes`.
fn assert_outcome(context: &str, bytes: &[u8], policy: FaultPolicy, expected: &Outcome) {
    assert_eq!(&decode(bytes, policy, false), expected, "{context} (slice)");
    assert_eq!(&decode(bytes, policy, true), expected, "{context} (read)");
}

fn parse_error(reason: &str) -> Outcome {
    (
        Err(format!("malformed binary trace: {reason}")),
        String::new(),
    )
}

const POLICIES: [FaultPolicy; 3] = [
    FaultPolicy::Fail,
    FaultPolicy::Skip { budget: 1 },
    FaultPolicy::Skip { budget: 64 },
];

#[test]
fn clean_payloads_decode_identically() {
    for (name, bytes) in encodings() {
        for policy in POLICIES {
            assert_outcome(
                &format!("{name} clean {policy:?}"),
                &bytes,
                policy,
                &(Ok((sample(), 0, false)), String::new()),
            );
        }
    }
}

#[test]
fn truncation_at_every_offset_is_identical() {
    let recs = sample();
    for (name, encoder) in encoders() {
        let bytes = encode(encoder, &recs);
        let ends = record_ends(encoder);
        for cut in 0..bytes.len() {
            // Complete records before the cut; record `k` is the one cut.
            let k = ends.iter().rposition(|&end| end <= cut).unwrap_or(0);
            for policy in POLICIES {
                let expected = if cut < 16 {
                    parse_error("truncated header")
                } else if policy == FaultPolicy::Fail {
                    parse_error(&format!("truncated at record {k}"))
                } else {
                    (
                        Ok((recs[..k].to_vec(), 1, true)),
                        format!("record {k}: truncated ({})\n", hex(&bytes[ends[k]..cut])),
                    )
                };
                assert_outcome(
                    &format!("{name} cut at {cut} under {policy:?}"),
                    &bytes[..cut],
                    policy,
                    &expected,
                );
            }
        }
    }
}

#[test]
fn bit_flips_at_every_offset_are_identical() {
    for (name, bytes) in encodings() {
        for offset in 0..bytes.len() {
            for mask in [0x01u8, 0x80] {
                let mut flipped = bytes.clone();
                flipped[offset] ^= mask;
                let context = format!("{name} flip {mask:#x} at {offset}");
                let (strict, strict_sidecar) = decode(&flipped, FaultPolicy::Fail, false);
                assert!(strict_sidecar.is_empty(), "{context}: strict sidecar");
                for policy in &POLICIES[1..] {
                    let (out, sidecar) = decode(&flipped, *policy, false);
                    match out {
                        Ok((recs, quarantined, _)) => {
                            assert_eq!(
                                sidecar.lines().count() as u64,
                                quarantined,
                                "{context} under {policy:?}: one sidecar line per fault"
                            );
                            assert!(recs.len() <= sample().len(), "{context}: grew");
                            // A payload the strict decoder accepts has
                            // nothing to quarantine.
                            if let Ok((strict_recs, _, _)) = &strict {
                                assert_eq!(&recs, strict_recs, "{context} under {policy:?}");
                                assert_eq!(quarantined, 0, "{context} under {policy:?}");
                            }
                        }
                        Err(_) => assert!(
                            strict.is_err(),
                            "{context}: {policy:?} failed where strict succeeded"
                        ),
                    }
                }
            }
        }
    }
}

#[test]
fn trailing_garbage_is_identical() {
    for (name, bytes) in encodings() {
        for extra in [1usize, 7] {
            let mut long = bytes.clone();
            long.extend(std::iter::repeat_n(0xaau8, extra));
            let message = format!("{extra} trailing bytes after final record");
            for policy in POLICIES {
                let expected = if policy == FaultPolicy::Fail {
                    parse_error(&message)
                } else {
                    (Ok((sample(), 1, false)), format!("trailer: {message}\n"))
                };
                assert_outcome(
                    &format!("{name} with {extra} trailing bytes under {policy:?}"),
                    &long,
                    policy,
                    &expected,
                );
            }
        }
    }
}

/// Drains a streaming iterator the way a strict consumer would: records
/// until the first error, which ends the stream.
fn drain(bytes: &[u8]) -> Result<Vec<TraceRecord>, String> {
    let mut records = Vec::new();
    for item in SliceRecords::new(bytes).map_err(|e| e.to_string())? {
        records.push(item.map_err(|e| e.to_string())?);
    }
    Ok(records)
}

#[test]
fn streaming_iterator_matches_strict_bulk_decode() {
    for (name, bytes) in encodings() {
        // Clean, truncated at every offset, and bit-flipped payloads
        // must all stream to the same outcome as the strict bulk read.
        let mut cases: Vec<Vec<u8>> = vec![bytes.clone()];
        for cut in 0..bytes.len() {
            cases.push(bytes[..cut].to_vec());
        }
        for offset in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[offset] ^= 0x80;
            cases.push(flipped);
        }
        for (i, case) in cases.iter().enumerate() {
            let (bulk, _) = decode(case, FaultPolicy::Fail, false);
            let bulk = bulk.map(|(recs, _, _)| recs);
            assert_eq!(drain(case), bulk, "{name}: case {i} diverges");
        }
    }
}
