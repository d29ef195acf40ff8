//! Fuzz-style property tests: trace readers must reject arbitrary bytes
//! with errors, never panics.
//!
//! Inputs come from a deterministic seeded PRNG (xoshiro256++), so every
//! run covers the same corpus and failures reproduce exactly.

use mlc_trace::synth::Xoshiro;
use mlc_trace::{binary, din, slice};

fn check(cases: u64, f: impl Fn(&mut Xoshiro) + std::panic::RefUnwindSafe) {
    for case in 0..cases {
        let seed = 0x7ACEu64 ^ 0x9E3779B97F4A7C15u64.wrapping_mul(case + 1);
        let outcome = std::panic::catch_unwind(|| {
            let mut rng = Xoshiro::seed_from_u64(seed);
            f(&mut rng);
        });
        if let Err(payload) = outcome {
            eprintln!("property failed on case {case} (xoshiro seed {seed:#x})");
            std::panic::resume_unwind(payload);
        }
    }
}

fn rand_bytes(rng: &mut Xoshiro, min_len: u64, max_len: u64) -> Vec<u8> {
    let len = min_len + rng.next_below(max_len - min_len);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

#[test]
fn din_reader_never_panics() {
    check(256, |rng| {
        let bytes = rand_bytes(rng, 0, 2000);
        let _ = din::read_din(bytes.as_slice());
    });
}

#[test]
fn binary_reader_never_panics() {
    check(256, |rng| {
        let bytes = rand_bytes(rng, 0, 2000);
        let _ = slice::read_binary_slice(&bytes);
    });
}

#[test]
fn binary_reader_never_panics_with_valid_magic() {
    check(256, |rng| {
        let mut bytes = rand_bytes(rng, 16, 500);
        bytes[..4].copy_from_slice(b"MLCT");
        bytes[4] = 1 + rng.next_below(2) as u8;
        bytes[5] = 0;
        let _ = slice::read_binary_slice(&bytes);
    });
}

#[test]
fn compressed_round_trips_arbitrary_records() {
    check(256, |rng| {
        use mlc_trace::{AccessKind, Address, TraceRecord};
        let len = rng.next_below(300);
        let records: Vec<TraceRecord> = (0..len)
            .map(|_| {
                TraceRecord::new(
                    AccessKind::from_din_label(rng.next_below(3) as u8).unwrap(),
                    Address::new(rng.next_u64()),
                )
            })
            .collect();
        let mut buf = Vec::new();
        binary::write_compressed(&mut buf, &records).unwrap();
        assert_eq!(slice::read_binary_slice(&buf).unwrap(), records);
    });
}
