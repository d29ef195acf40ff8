//! Fuzz-style property tests for the `mlc-serve/1` line parsers:
//! `Request::parse` and `Event::parse` must reject arbitrary input with
//! errors, never panics, and every variant must survive a
//! `to_line` → `parse` round trip bit for bit.
//!
//! Inputs are generated by a deterministic seeded PRNG (xoshiro256++),
//! so every run covers the same corpus and failures reproduce exactly.

use std::path::PathBuf;

use mlc_cache::ByteSize;
use mlc_core::DesignGrid;
use mlc_obs::json::JsonValue;
use mlc_serve::{Event, Request, Source, SubmitRequest, PROTO};
use mlc_trace::synth::Xoshiro;

fn check(cases: u64, f: impl Fn(&mut Xoshiro) + std::panic::RefUnwindSafe) {
    for case in 0..cases {
        let seed = 0x5E7Eu64 ^ 0x9E3779B97F4A7C15u64.wrapping_mul(case + 1);
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

fn pick<T: Copy>(rng: &mut Xoshiro, xs: &[T]) -> T {
    xs[rng.next_below(xs.len() as u64) as usize]
}

/// An arbitrary string mixing ASCII, control characters, multi-byte
/// unicode, and JSON's own structural characters.
fn arb_string(rng: &mut Xoshiro, max_len: u64) -> String {
    let len = rng.next_below(max_len + 1);
    (0..len)
        .map(|_| match rng.next_below(5) {
            0 => rng.next_below(128) as u8 as char,
            1 => char::from_u32(rng.next_below(0xD800) as u32).unwrap_or('?'),
            2 => pick(rng, &['{', '}', '[', ']', ':', ',', '"', '\\', '\n']),
            _ => (b' ' + rng.next_below(95) as u8) as char,
        })
        .collect()
}

/// A u64 that is often small and sometimes at the edge.
fn arb_u64(rng: &mut Xoshiro) -> u64 {
    match rng.next_below(3) {
        0 => rng.next_below(16),
        1 => u64::MAX,
        _ => rng.next_u64(),
    }
}

/// Any `f64` bit pattern, with NaN, infinity and `-0.0` made common.
fn arb_f64(rng: &mut Xoshiro) -> f64 {
    match rng.next_below(3) {
        0 => pick(rng, &[f64::NAN, f64::INFINITY, -0.0]),
        _ => f64::from_bits(rng.next_u64()),
    }
}

fn arb_grid(rng: &mut Xoshiro) -> DesignGrid {
    let (n, m) = (rng.next_below(4) as usize, rng.next_below(4) as usize);
    DesignGrid {
        sizes: (0..n).map(|_| ByteSize::new(arb_u64(rng))).collect(),
        cycles: (0..m).map(|_| arb_u64(rng)).collect(),
        ways: rng.next_u64() as u32,
        total: (0..n)
            .map(|_| (0..m).map(|_| arb_u64(rng)).collect())
            .collect(),
        l2_local: (0..n).map(|_| arb_f64(rng)).collect(),
        l2_global: (0..n).map(|_| arb_f64(rng)).collect(),
        m_l1_global: arb_f64(rng),
        cpu_cycle_ns: arb_f64(rng),
    }
}

/// A float-free JSON document (an integral float reads back as an
/// integer, so floats do not round-trip by value).
fn arb_doc(rng: &mut Xoshiro, depth: u32) -> JsonValue {
    let n = rng.next_below(4);
    match rng.next_below(if depth == 0 { 4 } else { 6 }) {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(rng.next_bool(0.5)),
        2 => JsonValue::U64(arb_u64(rng)),
        3 => JsonValue::Str(arb_string(rng, 12)),
        4 => JsonValue::Array((0..n).map(|_| arb_doc(rng, depth - 1)).collect()),
        _ => JsonValue::Object(
            (0..n)
                .map(|_| (arb_string(rng, 8), arb_doc(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Every `Request` variant, with arbitrary field values.
fn arb_requests(rng: &mut Xoshiro) -> Vec<Request> {
    let key = arb_string(rng, 24);
    vec![
        Request::Submit(SubmitRequest {
            trace: PathBuf::from(arb_string(rng, 24)),
            l1_bytes: arb_u64(rng),
            ways: arb_u64(rng),
            sizes: (0..rng.next_below(5)).map(|_| arb_u64(rng)).collect(),
            cycles: (0..rng.next_below(5)).map(|_| arb_u64(rng)).collect(),
            engine: arb_string(rng, 10),
            warmup_frac: arb_f64(rng),
            wait: rng.next_bool(0.5),
            deadline_ms: arb_u64(rng),
            trace_id: arb_string(rng, 20),
        }),
        Request::Status { key: key.clone() },
        Request::Fetch { key },
        Request::Ping,
        Request::Stats,
        Request::Shutdown,
    ]
}

/// Every `Event` variant, with arbitrary field values.
fn arb_events(rng: &mut Xoshiro) -> Vec<Event> {
    let (key, trace_id) = (arb_string(rng, 24), arb_string(rng, 20));
    let sources = [
        Source::Computed,
        Source::Memory,
        Source::Disk,
        Source::Coalesced,
    ];
    vec![
        Event::Hello {
            proto: PROTO.into(),
            version: arb_string(rng, 10),
        },
        Event::Accepted {
            key: key.clone(),
            rows_total: arb_u64(rng),
            coalesced: rng.next_bool(0.5),
            trace_id: trace_id.clone(),
        },
        Event::Progress {
            key: key.clone(),
            row: arb_u64(rng),
            rows_done: arb_u64(rng),
            rows_total: arb_u64(rng),
            trace_id: trace_id.clone(),
        },
        Event::Done {
            key: key.clone(),
            source: pick(rng, &sources),
            rows_resumed: arb_u64(rng),
            grid: arb_grid(rng),
            trace_id,
            dropped: arb_u64(rng),
        },
        Event::Status {
            key: key.clone(),
            state: arb_string(rng, 12),
            rows_done: arb_u64(rng),
            rows_total: arb_u64(rng),
            events_dropped: arb_u64(rng),
        },
        Event::Pong {
            proto: PROTO.into(),
            version: arb_string(rng, 10),
            uptime_ms: arb_u64(rng),
        },
        Event::Stats {
            doc: arb_doc(rng, 3),
        },
        Event::Error {
            message: arb_string(rng, 40),
            retryable: rng.next_bool(0.5),
        },
        Event::Timeout { key },
        Event::Overloaded {
            reason: arb_string(rng, 24),
        },
        Event::Bye,
    ]
}

/// The wire line of every request and event variant.
fn arb_lines(rng: &mut Xoshiro) -> Vec<String> {
    let requests = arb_requests(rng).into_iter().map(|r| r.to_line());
    requests
        .chain(arb_events(rng).iter().map(Event::to_line))
        .collect()
}

fn parse_both(line: &str) {
    let _ = Request::parse(line);
    let _ = Event::parse(line);
}

#[test]
fn parsers_never_panic_on_arbitrary_lines() {
    check(512, |rng| parse_both(&arb_string(rng, 200)));
}

#[test]
fn parsers_never_panic_on_mistyped_fields() {
    // Real variant lines with random fields swapped for values of an
    // arbitrary type; the `op`/`event` tag is kept so the typed field
    // readers run.
    check(128, |rng| {
        for line in arb_lines(rng) {
            let JsonValue::Object(mut fields) = JsonValue::parse(&line).unwrap() else {
                panic!("not an object: {line}");
            };
            for (name, value) in fields.iter_mut().skip(1) {
                if rng.next_bool(0.3) {
                    *value = arb_doc(rng, 2);
                } else if rng.next_bool(0.1) {
                    *name = arb_string(rng, 8);
                }
            }
            parse_both(&JsonValue::Object(fields).to_string_compact());
        }
    });
}

#[test]
fn parsers_never_panic_on_damaged_lines() {
    check(64, |rng| {
        for line in arb_lines(rng) {
            let bytes = line.as_bytes();
            for cut in 0..bytes.len() {
                parse_both(&String::from_utf8_lossy(&bytes[..cut]));
            }
            for _ in 0..32 {
                let mut flipped = bytes.to_vec();
                let at = rng.next_below(flipped.len() as u64) as usize;
                flipped[at] ^= 1 << rng.next_below(8);
                parse_both(&String::from_utf8_lossy(&flipped));
            }
        }
    });
}

#[test]
fn every_variant_round_trips() {
    // NaN is not equal to itself, so values compare by their Debug
    // rendering (exact for every other float) and bits by the
    // re-rendered line (floats travel as bit patterns).
    check(256, |rng| {
        for request in arb_requests(rng) {
            let line = request.to_line();
            assert!(!line.contains('\n'), "{line}");
            let parsed = Request::parse(&line).unwrap();
            assert_eq!(format!("{parsed:?}"), format!("{request:?}"));
            assert_eq!(parsed.to_line(), line);
        }
        for event in arb_events(rng) {
            let line = event.to_line();
            assert!(!line.contains('\n'), "{line}");
            let parsed = Event::parse(&line).unwrap();
            assert_eq!(format!("{parsed:?}"), format!("{event:?}"));
            assert_eq!(parsed.to_line(), line);
        }
    });
}
