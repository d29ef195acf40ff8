//! Adversarial fault-injection tests for the streaming din reader: the
//! [`FaultInjector`] truncates, bit-flips and errors the byte stream at
//! every offset, and the reader — strict and degraded alike — must
//! never panic, never loop, and fail typed where the format can detect
//! the damage. The binary decoder reads a byte slice; `slice_props`
//! checks its exact outcome at every offset.

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

fn din_bytes() -> Vec<u8> {
    let mut din = Vec::new();
    write_din(&mut din, sample()).unwrap();
    din
}

fn read_degraded(
    reader: FaultInjector<&[u8]>,
    policy: FaultPolicy,
) -> Result<Vec<TraceRecord>, TraceError> {
    read_din_with(reader, policy, None).map(|(r, _)| r)
}

#[test]
fn truncation_at_every_offset_never_panics() {
    let bytes = din_bytes();
    for cut in 0..bytes.len() as u64 {
        // A din trace declares no record count, so a cut on a line
        // boundary is a shorter valid trace; only the safety bar holds.
        if let Ok(recs) = read_din(FaultInjector::new(
            bytes.as_slice(),
            FaultPlan::truncate(cut),
        )) {
            assert!(recs.len() <= sample().len(), "cut at {cut} grew strictly");
        }
        // Degraded mode with a budget absorbs a torn final line.
        let degraded = read_degraded(
            FaultInjector::new(bytes.as_slice(), FaultPlan::truncate(cut)),
            FaultPolicy::Skip { budget: 1 },
        );
        match degraded {
            Ok(recs) => assert!(recs.len() <= sample().len(), "cut at {cut} grew the trace"),
            Err(e) => {
                let s = e.to_string();
                assert!(
                    s.contains("budget") || s.contains("line"),
                    "cut at {cut}: unexpected degraded error {s}"
                );
            }
        }
    }
}

#[test]
fn bit_flips_at_every_offset_never_panic() {
    let bytes = din_bytes();
    for idx in 0..bytes.len() as u64 {
        for mask in [0x01u8, 0x80] {
            // Strict: any outcome but a panic or a *longer* trace is
            // in-contract (payload bytes are not checksummed).
            if let Ok(recs) = read_din(FaultInjector::new(
                bytes.as_slice(),
                FaultPlan::flip(idx, mask),
            )) {
                assert!(recs.len() <= sample().len(), "flip at {idx} grew");
            }
            // Degraded with a generous budget: same safety bar.
            if let Ok(recs) = read_degraded(
                FaultInjector::new(bytes.as_slice(), FaultPlan::flip(idx, mask)),
                FaultPolicy::Skip { budget: 1_000 },
            ) {
                assert!(recs.len() <= sample().len(), "flip at {idx} grew");
            }
        }
    }
}

#[test]
fn io_errors_at_every_offset_are_always_fatal() {
    let bytes = din_bytes();
    for at in 0..bytes.len() as u64 {
        let strict = read_din(FaultInjector::new(
            bytes.as_slice(),
            FaultPlan::io_error(at),
        ));
        assert!(strict.is_err(), "I/O error at {at} swallowed strictly");
        let degraded = read_degraded(
            FaultInjector::new(bytes.as_slice(), FaultPlan::io_error(at)),
            FaultPolicy::Skip { budget: u64::MAX },
        );
        assert!(degraded.is_err(), "I/O error at {at} swallowed under skip");
    }
}

#[test]
fn clean_streams_pass_through_an_empty_fault_plan() {
    let bytes = din_bytes();
    let recs = read_din(FaultInjector::new(bytes.as_slice(), FaultPlan::default()))
        .unwrap_or_else(|e| panic!("clean read failed: {e}"));
    assert_eq!(recs, sample());
}
