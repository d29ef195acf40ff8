//! Adversarial fault-injection tests for every trace reader: the
//! [`FaultInjector`] truncates, bit-flips and errors the byte stream at
//! every offset, and the readers — strict and degraded alike — must
//! never panic, never loop, and fail typed where the format can detect
//! the damage.

use mlc_trace::binary::{read_binary, read_binary_with, write_binary, write_compressed};
use mlc_trace::din::{read_din, read_din_with, write_din};
use mlc_trace::{FaultInjector, FaultPlan, FaultPolicy, TraceError, TraceRecord};

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

fn encodings() -> Vec<(&'static str, Vec<u8>)> {
    let recs = sample();
    let mut din = Vec::new();
    write_din(&mut din, recs.iter().copied()).unwrap();
    let mut v1 = Vec::new();
    write_binary(&mut v1, &recs).unwrap();
    let mut v2 = Vec::new();
    write_compressed(&mut v2, &recs).unwrap();
    vec![("din", din), ("v1", v1), ("v2", v2)]
}

fn read_strict(name: &str, reader: FaultInjector<&[u8]>) -> Result<Vec<TraceRecord>, TraceError> {
    if name == "din" {
        read_din(reader)
    } else {
        read_binary(reader)
    }
}

fn read_degraded(
    name: &str,
    reader: FaultInjector<&[u8]>,
    policy: FaultPolicy,
) -> Result<Vec<TraceRecord>, TraceError> {
    if name == "din" {
        read_din_with(reader, policy, None).map(|(r, _)| r)
    } else {
        read_binary_with(reader, policy, None).map(|(r, _)| r)
    }
}

#[test]
fn truncation_at_every_offset_never_panics() {
    for (name, bytes) in encodings() {
        for cut in 0..bytes.len() as u64 {
            let strict = read_strict(
                name,
                FaultInjector::new(bytes.as_slice(), FaultPlan::truncate(cut)),
            );
            // The binary formats declare their record count, so any cut
            // short of the full payload must be detected.
            if name != "din" {
                assert!(strict.is_err(), "{name}: cut at {cut} accepted strictly");
            }
            // Degraded mode with a budget absorbs a truncated tail but
            // must still fail typed when the header itself is cut.
            let degraded = read_degraded(
                name,
                FaultInjector::new(bytes.as_slice(), FaultPlan::truncate(cut)),
                FaultPolicy::Skip { budget: 1 },
            );
            match degraded {
                Ok(recs) => assert!(
                    recs.len() <= sample().len(),
                    "{name}: cut at {cut} grew the trace"
                ),
                Err(e) => {
                    let s = e.to_string();
                    assert!(
                        s.contains("header") || s.contains("budget") || s.contains("line"),
                        "{name}: cut at {cut}: unexpected degraded error {s}"
                    );
                }
            }
        }
    }
}

#[test]
fn bit_flips_at_every_offset_never_panic() {
    for (name, bytes) in encodings() {
        for idx in 0..bytes.len() as u64 {
            for mask in [0x01u8, 0x80] {
                // Strict: any outcome but a panic or a *longer* trace is
                // in-contract (payload bytes are not checksummed).
                if let Ok(recs) = read_strict(
                    name,
                    FaultInjector::new(bytes.as_slice(), FaultPlan::flip(idx, mask)),
                ) {
                    assert!(recs.len() <= sample().len(), "{name}: flip at {idx} grew");
                }
                // Degraded with a generous budget: same safety bar.
                if let Ok(recs) = read_degraded(
                    name,
                    FaultInjector::new(bytes.as_slice(), FaultPlan::flip(idx, mask)),
                    FaultPolicy::Skip { budget: 1_000 },
                ) {
                    assert!(recs.len() <= sample().len(), "{name}: flip at {idx} grew");
                }
            }
        }
    }
}

#[test]
fn io_errors_at_every_offset_are_always_fatal() {
    for (name, bytes) in encodings() {
        for at in 0..bytes.len() as u64 {
            let strict = read_strict(
                name,
                FaultInjector::new(bytes.as_slice(), FaultPlan::io_error(at)),
            );
            let degraded = read_degraded(
                name,
                FaultInjector::new(bytes.as_slice(), FaultPlan::io_error(at)),
                FaultPolicy::Skip { budget: u64::MAX },
            );
            if name == "din" {
                assert!(
                    strict.is_err(),
                    "{name}: I/O error at {at} swallowed strictly"
                );
                assert!(
                    degraded.is_err(),
                    "{name}: I/O error at {at} swallowed under skip"
                );
            } else {
                // The binary readers type an I/O error as I/O at every
                // offset, the header included.
                assert!(
                    matches!(strict, Err(TraceError::Io(_))),
                    "{name}: I/O error at {at} strictly: {strict:?}"
                );
                assert!(
                    matches!(degraded, Err(TraceError::Io(_))),
                    "{name}: I/O error at {at} under skip: {degraded:?}"
                );
            }
        }
    }
}

#[test]
fn clean_streams_pass_through_an_empty_fault_plan() {
    for (name, bytes) in encodings() {
        let recs = read_strict(
            name,
            FaultInjector::new(bytes.as_slice(), FaultPlan::default()),
        )
        .unwrap_or_else(|e| panic!("{name}: clean read failed: {e}"));
        assert_eq!(recs, sample(), "{name}");
    }
}
