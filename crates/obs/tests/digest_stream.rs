//! The trace decoder's two consumers agree: the streaming digest pass
//! (`read_*_into` into a [`RecordDigest`], which the daemon's key stage
//! runs) and the collect-then-digest pass
//! (`digest_records(read_*_with(..))`) give the same digest, record
//! count, ingest report, quarantine bytes and error for every binary
//! layout and `.din`, under `Fail` and `Skip`, over clean and damaged
//! inputs. The file-level pair (`decode_trace_bytes` against
//! `read_trace_file`) must also leave the same sidecar.

use std::path::Path;

use mlc_obs::{digest_records, RecordDigest};
use mlc_trace::synth::{workload::Preset, MultiProgramGenerator};
use mlc_trace::{binary, din, slice, FaultPolicy, IngestReport, TraceError, TraceRecord};

/// What one decoder pass produced: digest, record count and report, or
/// the error's message.
type Outcome = Result<(u64, usize, IngestReport), String>;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Format {
    V1,
    V2,
    Din,
}

impl Format {
    const ALL: [Format; 3] = [Format::V1, Format::V2, Format::Din];

    fn extension(self) -> &'static str {
        match self {
            Format::V1 => "mlct",
            Format::V2 => "mlcz",
            Format::Din => "din",
        }
    }

    fn encode(self, records: &[TraceRecord]) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Format::V1 => binary::write_binary(&mut buf, records).unwrap(),
            Format::V2 => binary::write_compressed(&mut buf, records).unwrap(),
            Format::Din => din::write_din(&mut buf, records.iter().copied()).unwrap(),
        }
        buf
    }

    /// Where record `i`'s encoding starts in [`Format::encode`]'s bytes.
    /// Each layout encodes a record from the records before it alone,
    /// so a prefix's encoding is a prefix of the whole one.
    fn offset_of(self, records: &[TraceRecord], i: usize) -> usize {
        self.encode(&records[..i]).len()
    }
}

fn records() -> Vec<TraceRecord> {
    MultiProgramGenerator::new(Preset::Vms1.config(11))
        .expect("valid preset")
        .generate_records(600)
}

/// A named corruption of one format's clean bytes.
type Fault = (&'static str, Vec<u8>);

/// The damaged inputs for `format`: a bad kind, a truncated tail,
/// trailing bytes, a fault budget spent by three bad kinds and, for
/// the varint layout, an invalid varint.
fn faults(format: Format, records: &[TraceRecord]) -> Vec<Fault> {
    let clean = format.encode(records);
    let corrupt = |bytes: &mut Vec<u8>, i: usize| {
        let at = format.offset_of(records, i);
        match format {
            // Kind byte 7 in v1; label bits 3 in v2, which keeps the
            // token's framing; label `3` on a `.din` line.
            Format::V1 => bytes[at] = 7,
            Format::V2 => bytes[at] |= 0b11,
            Format::Din => bytes[at] = b'3',
        }
    };
    let mut bad_kind = clean.clone();
    corrupt(&mut bad_kind, 10);
    let mut bad_kinds = clean.clone();
    for i in [10, 200, 400] {
        corrupt(&mut bad_kinds, i);
    }
    // A binary tail loses its last bytes; a `.din` tail is cut to the
    // last line's label, which leaves that line without an address.
    let cut = match format {
        Format::Din => format.offset_of(records, records.len() - 1) + 1,
        _ => clean.len() - 3,
    };
    let truncated = clean[..cut].to_vec();
    let mut trailing = clean.clone();
    trailing.extend_from_slice(match format {
        Format::Din => b"zz trailing\n",
        _ => &[0xaa, 0xbb],
    });
    let mut out = vec![
        ("clean", clean.clone()),
        ("bad kind", bad_kind),
        ("truncated tail", truncated),
        ("trailing bytes", trailing),
        ("spent budget", bad_kinds),
    ];
    if format == Format::V2 {
        // Eleven continuation bytes at a token boundary: the varint
        // runs past 10 bytes and the framing is lost.
        let mut invalid = clean;
        let at = format.offset_of(records, 300);
        invalid[at..at + 11].fill(0xff);
        out.push(("invalid varint", invalid));
    }
    out
}

fn summarize(result: Result<(u64, usize, IngestReport), TraceError>) -> Outcome {
    result.map_err(|e| e.to_string())
}

/// The collect-then-digest pass over in-memory bytes.
fn collected(format: Format, bytes: &[u8], policy: FaultPolicy, q: &mut Vec<u8>) -> Outcome {
    let read = match format {
        Format::Din => din::read_din_with(bytes, policy, Some(q)),
        _ => slice::read_binary_slice_with(bytes, policy, Some(q)),
    };
    summarize(read.map(|(recs, report)| (digest_records(&recs), recs.len(), report)))
}

/// The streaming digest pass over in-memory bytes.
fn streamed(format: Format, bytes: &[u8], policy: FaultPolicy, q: &mut Vec<u8>) -> Outcome {
    let mut d = RecordDigest::new();
    let read = match format {
        Format::Din => din::read_din_into(bytes, policy, Some(q), &mut d),
        _ => slice::read_binary_slice_into(bytes, policy, Some(q), &mut d),
    };
    summarize(read.map(|report| (d.finish(), d.records(), report)))
}

const POLICIES: [FaultPolicy; 3] = [
    FaultPolicy::Fail,
    FaultPolicy::Skip { budget: 0 },
    FaultPolicy::Skip { budget: 2 },
];

#[test]
fn streaming_digest_matches_collect_then_digest_on_every_fault() {
    let recs = records();
    let mut outcomes = Vec::new();
    for format in Format::ALL {
        for (fault, bytes) in faults(format, &recs) {
            for policy in POLICIES {
                let (mut qa, mut qb) = (Vec::new(), Vec::new());
                let a = collected(format, &bytes, policy, &mut qa);
                let b = streamed(format, &bytes, policy, &mut qb);
                let case = format!("{format:?} {fault} {policy:?}");
                assert_eq!(a, b, "{case}");
                assert_eq!(
                    String::from_utf8_lossy(&qa),
                    String::from_utf8_lossy(&qb),
                    "{case}: quarantine"
                );
                outcomes.push((format, fault, policy, a));
            }
        }
    }

    // The cases reach what they name, so the agreement above is not
    // vacuous.
    let clean = digest_records(&recs);
    for (format, fault, policy, outcome) in &outcomes {
        let case = format!("{format:?} {fault} {policy:?}");
        match (*fault, *policy, outcome) {
            ("clean", _, Ok((d, n, r))) => {
                assert_eq!((*d, *n, *r), (clean, recs.len(), IngestReport::default()))
            }
            ("invalid varint", _, Err(e)) => assert!(e.contains("varint"), "{case}: {e}"),
            ("spent budget", FaultPolicy::Skip { budget: 2 }, Err(e)) => {
                assert!(e.contains("budget"), "{case}: {e}")
            }
            (_, FaultPolicy::Skip { budget: 2 }, Ok((d, _, r))) => {
                assert_eq!(r.quarantined, 1, "{case}");
                // Only trailing bytes leave every record intact.
                assert_eq!(*d == clean, *fault == "trailing bytes", "{case}");
            }
            (_, FaultPolicy::Fail | FaultPolicy::Skip { budget: 0 }, Err(_)) => {}
            _ => panic!("{case}: unexpected {outcome:?}"),
        }
    }
}

#[test]
fn decoding_read_bytes_matches_reading_the_file_sidecar_included() {
    let dir = std::env::temp_dir().join("mlc_obs_digest_stream_file");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let recs = records();
    let sidecar_of = |path: &Path| std::fs::read(mlc_trace::quarantine_path(path)).ok();
    for format in Format::ALL {
        for (fault, bytes) in faults(format, &recs) {
            let path = dir.join(format!("t.{}", format.extension()));
            std::fs::write(&path, &bytes).unwrap();
            for policy in POLICIES {
                let case = format!("{format:?} {fault} {policy:?}");
                let a = summarize(
                    mlc_trace::read_trace_file(&path, policy)
                        .map(|(recs, report, _)| (digest_records(&recs), recs.len(), report)),
                );
                let sidecar_a = sidecar_of(&path);
                let _ = std::fs::remove_file(mlc_trace::quarantine_path(&path));

                let mut d = RecordDigest::new();
                let b = summarize(
                    mlc_trace::decode_trace_bytes(&path, &bytes, policy, &mut d)
                        .map(|(report, _)| (d.finish(), d.records(), report)),
                );
                let sidecar_b = sidecar_of(&path);
                let _ = std::fs::remove_file(mlc_trace::quarantine_path(&path));
                assert_eq!(a, b, "{case}");
                assert_eq!(sidecar_a, sidecar_b, "{case}: sidecar");
                if policy == (FaultPolicy::Skip { budget: 2 }) && fault != "clean" && a.is_ok() {
                    assert!(sidecar_a.is_some(), "{case}: the sidecar was written");
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
