//! Adversarial property tests for the `mlc-journal/1` reader: a sweep
//! journal truncated at *every* byte offset and bit-flipped at *every*
//! byte must never panic the reader, never yield a silently-wrong row,
//! and fail typed when the damage hits committed data.
//!
//! These are the crash-and-corruption cases `mlc-sweep --resume` must
//! survive: a SIGKILL mid-append (torn tail), a disk flipping a bit in
//! a committed line, a copy cutting the file short.

use std::path::PathBuf;

use mlc_obs::{read_journal, JournalError, JournalHeader, JournalRow, JournalWriter};

fn sample_header() -> JournalHeader {
    JournalHeader {
        trace_digest: "fnv1a64:00000000deadbeef".to_string(),
        engine: "onepass".to_string(),
        l1_bytes: 4096,
        warmup: 2500,
        ways: 1,
        sizes: vec![16384, 32768, 65536],
        cycles: vec![1, 2, 3],
        trace_id: None,
    }
}

fn sample_rows() -> Vec<JournalRow> {
    vec![
        JournalRow {
            row: 0,
            total: vec![100, 200, u64::MAX - 1],
            l2_local: 0.25,
            l2_global: 0.125,
            m_l1_global: 0.5,
            cpu_cycle_ns: 10.0,
        },
        JournalRow {
            row: 1,
            total: vec![90, 180, 270],
            l2_local: f64::NAN,
            l2_global: -0.0,
            m_l1_global: f64::INFINITY,
            cpu_cycle_ns: 10.0,
        },
        JournalRow {
            row: 2,
            total: vec![80, 160, 240],
            l2_local: 1.0e-300,
            l2_global: 0.99999999999,
            m_l1_global: 0.5,
            cpu_cycle_ns: 10.0,
        },
    ]
}

/// Renders the sample journal to bytes via the real writer.
fn journal_bytes(dir: &std::path::Path) -> Vec<u8> {
    let path = dir.join("pristine.jsonl");
    let mut w = JournalWriter::create(&path, &sample_header()).unwrap();
    for row in sample_rows() {
        w.append_row(&row).unwrap();
    }
    drop(w);
    std::fs::read(&path).unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlc_journal_props_{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn rows_equal(a: &JournalRow, b: &JournalRow) -> bool {
    a.row == b.row
        && a.total == b.total
        && a.l2_local.to_bits() == b.l2_local.to_bits()
        && a.l2_global.to_bits() == b.l2_global.to_bits()
        && a.m_l1_global.to_bits() == b.m_l1_global.to_bits()
        && a.cpu_cycle_ns.to_bits() == b.cpu_cycle_ns.to_bits()
}

/// Parsed rows must always be a bit-exact prefix of what was written —
/// corruption may *drop* committed work (typed) but never alter it.
fn assert_prefix_of_sample(rows: &[JournalRow], context: &str) {
    let originals = sample_rows();
    assert!(
        rows.len() <= originals.len(),
        "{context}: extra rows appeared"
    );
    for (got, want) in rows.iter().zip(&originals) {
        assert!(
            rows_equal(got, want),
            "{context}: row {} differs from what was written",
            got.row
        );
    }
}

#[test]
fn truncation_at_every_byte_offset_is_safe() {
    let dir = temp_dir("truncate");
    let bytes = journal_bytes(&dir);
    let path = dir.join("cut.jsonl");
    for len in 0..=bytes.len() {
        std::fs::write(&path, &bytes[..len]).unwrap();
        match read_journal(&path) {
            Ok(journal) => {
                assert_prefix_of_sample(&journal.rows, &format!("truncated to {len}"));
                assert!(
                    journal.committed_len <= len as u64,
                    "truncated to {len}: committed_len {} exceeds the file",
                    journal.committed_len
                );
                // An incomplete final line must be flagged as torn, so a
                // resuming writer knows to truncate it away.
                let clean = len == bytes.len()
                    || journal.committed_len == len as u64 && bytes[len - 1] == b'\n';
                assert_eq!(
                    journal.torn_tail, !clean,
                    "truncated to {len}: torn_tail misreported"
                );
            }
            Err(JournalError::Corrupt { .. }) => {
                // Typed rejection (e.g. the header line itself is cut):
                // acceptable, as long as it never panics.
            }
            Err(JournalError::Io(e)) => panic!("truncated to {len}: unexpected I/O error {e}"),
            Err(e @ JournalError::Mismatch { .. }) => {
                panic!("truncated to {len}: read_journal never compares headers: {e}")
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flips_at_every_byte_offset_are_safe() {
    let dir = temp_dir("flip");
    let bytes = journal_bytes(&dir);
    let path = dir.join("flipped.jsonl");
    for idx in 0..bytes.len() {
        for mask in [0x01u8, 0x80, 0x20] {
            let mut bad = bytes.clone();
            bad[idx] ^= mask;
            std::fs::write(&path, &bad).unwrap();
            match read_journal(&path) {
                Ok(journal) => {
                    // Only structural damage to the *final newline* may
                    // pass (it becomes a torn tail); committed rows must
                    // still be bit-exact.
                    assert_prefix_of_sample(&journal.rows, &format!("byte {idx} ^ {mask:#04x}"));
                    assert!(
                        journal.rows.len() < sample_rows().len() || journal.torn_tail,
                        "byte {idx} ^ {mask:#04x}: corruption accepted without dropping data"
                    );
                }
                Err(JournalError::Corrupt { line, .. }) => {
                    assert!(
                        line >= 1 && line <= 1 + sample_rows().len() + 1,
                        "byte {idx} ^ {mask:#04x}: implausible line number {line}"
                    );
                }
                Err(JournalError::Io(e)) => {
                    panic!("byte {idx} ^ {mask:#04x}: unexpected I/O error {e}")
                }
                Err(e @ JournalError::Mismatch { .. }) => {
                    panic!("byte {idx} ^ {mask:#04x}: read_journal never compares headers: {e}")
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_after_torn_tail_reproduces_the_full_journal() {
    // Cut the journal mid-row (a crash mid-append), then resume and
    // rewrite the dropped rows: the result must be byte-identical to a
    // journal that was never interrupted.
    let dir = temp_dir("resume");
    let bytes = journal_bytes(&dir);
    let newlines: Vec<usize> = bytes
        .iter()
        .enumerate()
        .filter_map(|(i, &b)| (b == b'\n').then_some(i))
        .collect();
    // Cut inside the last row's line: committed = everything before it.
    let cut = newlines[newlines.len() - 2] + 5;
    let path = dir.join("killed.jsonl");
    std::fs::write(&path, &bytes[..cut]).unwrap();

    let (mut w, journal) = JournalWriter::resume(&path).unwrap();
    assert!(journal.torn_tail);
    assert_eq!(journal.rows.len(), sample_rows().len() - 1);
    for row in &sample_rows()[journal.rows.len()..] {
        w.append_row(row).unwrap();
    }
    drop(w);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        bytes,
        "resumed journal differs from the uninterrupted one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
