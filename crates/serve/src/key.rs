//! Content-addressed job identity.
//!
//! A sweep job is identified by what it *computes*, not by who asked:
//! the FNV-1a 64 digest of a canonical compact-JSON manifest of the
//! resolved sweep parameters — which are exactly the sweep fields of
//! the journal header ([`mlc_obs::JournalHeader::sweep_fields`]) the
//! job writes. Two submissions that resolve to the same trace content,
//! engine, and grid definition therefore collapse onto one key, one
//! journal, and one cache entry, regardless of trace *path* or flag
//! spelling.
//!
//! The key doubles as the on-disk name (via [`key_stem`]) and is
//! self-verifying: a cache entry's key can be re-derived from the
//! journal header stored inside it, so a store can detect an entry
//! filed under the wrong name.

use mlc_obs::json::JsonValue;
use mlc_obs::{Fnv64, JournalHeader};

/// Schema tag hashed into every key manifest, so a future change to the
/// manifest layout changes every key instead of silently colliding.
pub const KEY_SCHEMA: &str = "mlc-serve-key/1";

/// Derives the content-addressed key (`fnv1a64:<16 hex>`) for the sweep
/// a journal header describes: the hash of the header's
/// [sweep fields](JournalHeader::sweep_fields) under [`KEY_SCHEMA`].
///
/// Identity metadata on the header — notably
/// [`trace_id`](JournalHeader::trace_id) — is not a sweep field and
/// never reaches the key: retries and concurrent submissions with
/// different trace contexts converge on one job and one cache entry.
pub fn job_key(header: &JournalHeader) -> String {
    let mut manifest = vec![("schema".to_owned(), KEY_SCHEMA.into())];
    manifest.extend(header.sweep_fields().map(|(k, v)| (k.into(), v)));
    let mut h = Fnv64::new();
    h.write(JsonValue::Object(manifest).to_string_compact().as_bytes());
    format!("fnv1a64:{:016x}", h.finish())
}

/// The filename stem of a key: its 16 lowercase hex digits, with the
/// `fnv1a64:` prefix stripped. Returns `None` for anything that is not
/// a well-formed key — the guard that keeps wire-supplied keys from
/// ever becoming path traversal.
pub fn key_stem(key: &str) -> Option<&str> {
    let hex = key.strip_prefix("fnv1a64:")?;
    (hex.len() == 16
        && hex
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b)))
    .then_some(hex)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlc_obs::{JournalError, JournalWriter};

    fn header() -> JournalHeader {
        JournalHeader {
            trace_digest: "fnv1a64:00000000deadbeef".into(),
            engine: "onepass".into(),
            l1_bytes: 4096,
            warmup: 1000,
            ways: 1,
            sizes: vec![16384, 32768],
            cycles: vec![1, 2],
            trace_id: None,
        }
    }

    #[test]
    fn key_of_a_fixed_header_is_pinned() {
        // Cache entries and spool journals are filed under these keys:
        // a change here orphans every stored result.
        assert_eq!(job_key(&header()), "fnv1a64:186fb0ddc57ede97");
    }

    #[test]
    fn key_is_stable_and_parameter_sensitive() {
        let base = job_key(&header());
        assert_eq!(base, job_key(&header()), "key must be deterministic");
        assert!(key_stem(&base).is_some(), "{base}");

        // One perturbation per sweep field: each changes the key, and a
        // journal of the base header refuses to open as that sweep,
        // naming the field.
        let path = std::env::temp_dir().join(format!("mlc_key_unit_{}.jsonl", std::process::id()));
        JournalWriter::create(&path, &header()).unwrap();
        let with = |perturb: fn(&mut JournalHeader)| {
            let mut h = header();
            perturb(&mut h);
            h
        };
        let perturbed = [
            (
                "trace_digest",
                with(|h| h.trace_digest = "fnv1a64:00000000deadbeee".into()),
            ),
            ("engine", with(|h| h.engine = "exhaustive".into())),
            ("l1_bytes", with(|h| h.l1_bytes *= 2)),
            ("warmup", with(|h| h.warmup += 1)),
            ("ways", with(|h| h.ways = 2)),
            ("sizes", with(|h| h.sizes.push(65536))),
            ("cycles", with(|h| h.cycles.push(3))),
        ];
        assert_eq!(
            perturbed.each_ref().map(|(field, _)| *field),
            header().sweep_fields().map(|(field, _)| field),
            "every sweep field is perturbed once"
        );
        for (field, h) in perturbed {
            assert_ne!(job_key(&h), base, "{field} must be part of the identity");
            match JournalWriter::open(&path, &h) {
                Err(JournalError::Mismatch { field: named, .. }) => assert_eq!(named, field),
                other => panic!("{field}: expected a mismatch, got {other:?}"),
            }
        }

        // The trace id alone is not the sweep: same key, and the
        // journal resumes.
        let mut h = header();
        h.trace_id = Some("trc-0123456789abcdef".into());
        assert_eq!(job_key(&h), base);
        let (_, journal) = JournalWriter::open(&path, &h).expect("resumes");
        assert_eq!(journal.header, header());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_id_never_reaches_the_key() {
        let base = job_key(&header());
        let mut h = header();
        h.trace_id = Some("trc-0123456789abcdef".into());
        assert_eq!(
            job_key(&h),
            base,
            "trace context is identity metadata, not computation identity"
        );
        let mut other = header();
        other.trace_id = Some("trc-fedcba9876543210".into());
        assert_eq!(job_key(&h), job_key(&other));
    }

    #[test]
    fn stem_rejects_malformed_keys() {
        assert_eq!(
            key_stem("fnv1a64:0123456789abcdef"),
            Some("0123456789abcdef")
        );
        assert!(key_stem("0123456789abcdef").is_none(), "prefix required");
        assert!(key_stem("fnv1a64:0123").is_none(), "length enforced");
        assert!(
            key_stem("fnv1a64:0123456789ABCDEF").is_none(),
            "lowercase only"
        );
        assert!(
            key_stem("fnv1a64:../../etc/passwd").is_none(),
            "no traversal"
        );
        assert!(key_stem("fnv1a64:0123456789abcdeg").is_none(), "hex only");
    }
}
