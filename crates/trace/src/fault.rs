//! Degraded-mode ingestion policy and fault injection.
//!
//! Production trace archives are not pristine: a copy truncates, a disk
//! flips a bit, a concatenation script drops half a record. The strict
//! readers ([`crate::din::read_din`], [`crate::slice::read_binary_slice`])
//! fail on the first malformed record — correct for provenance, fatal
//! for a sweep that only needs 99.999% of a billion references. This
//! module supplies the middle ground:
//!
//! * [`FaultPolicy`] — `Fail` (the strict behaviour) or
//!   `Skip { budget }`, which quarantines malformed records to a
//!   sidecar and fails typed ([`TraceError::FaultBudget`]) only once
//!   more than `budget` records have been dropped.
//! * [`IngestReport`] — how much was quarantined, and whether the input
//!   ended early.
//! * [`FaultInjector`] / [`FaultPlan`] — a [`Read`] adapter that
//!   injects bit-flips, truncation, and mid-stream I/O errors at
//!   configurable byte offsets, so the streaming din reader's failure
//!   behaviour is testable without hand-crafting corrupt files. The
//!   binary decoder takes a byte slice, which its tests damage directly.
//!
//! What is *recoverable* is format-specific (see
//! [`read_din_with`](crate::din::read_din_with) and
//! [`read_binary_slice_with`](crate::slice::read_binary_slice_with)):
//! malformed din lines and
//! bad v1/v2 record kinds are skippable because the surrounding records
//! still frame correctly; header corruption and undecodable v2 varints
//! are always fatal because nothing after them can be trusted.

use std::fmt::Write as _;
use std::io::{self, Read, Write};

use crate::error::TraceError;

/// What to do when a reader meets a malformed record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPolicy {
    /// Fail on the first malformed record (the strict readers).
    Fail,
    /// Skip malformed records, quarantining each, until more than
    /// `budget` have been dropped — then fail typed.
    Skip {
        /// Maximum number of records that may be quarantined.
        budget: u64,
    },
}

impl FaultPolicy {
    /// Parses the CLI spelling: `fail`, or `skip:N`.
    ///
    /// # Errors
    ///
    /// Returns a description of the expected forms.
    pub fn parse(s: &str) -> Result<FaultPolicy, String> {
        if s == "fail" {
            return Ok(FaultPolicy::Fail);
        }
        if let Some(n) = s.strip_prefix("skip:") {
            return n
                .parse::<u64>()
                .map(|budget| FaultPolicy::Skip { budget })
                .map_err(|_| format!("invalid fault budget {n:?} (expected skip:N)"));
        }
        Err(format!(
            "invalid fault policy {s:?} (expected 'fail' or 'skip:N')"
        ))
    }
}

/// What a degraded-mode read dropped on the floor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Malformed records skipped and written to the quarantine sidecar.
    pub quarantined: u64,
    /// Whether the input ended before its declared end (binary formats
    /// only; the missing tail counts as one quarantined record).
    pub truncated: bool,
}

/// Shared bookkeeping for the `*_with` readers: quarantine one
/// malformed record under the policy, or fail.
///
/// `describe` is the human-readable sidecar line (without newline);
/// `error` is what `Fail` propagates.
pub(crate) fn absorb_fault(
    policy: FaultPolicy,
    report: &mut IngestReport,
    quarantine: &mut Option<&mut dyn Write>,
    describe: &str,
    error: TraceError,
) -> Result<(), TraceError> {
    match policy {
        FaultPolicy::Fail => Err(error),
        FaultPolicy::Skip { budget } => {
            report.quarantined += 1;
            if report.quarantined > budget {
                return Err(TraceError::FaultBudget {
                    budget,
                    last: error.to_string(),
                });
            }
            if let Some(w) = quarantine {
                writeln!(w, "{describe}").map_err(TraceError::Io)?;
            }
            Ok(())
        }
    }
}

/// Renders bytes as lowercase hex for quarantine sidecar lines.
pub(crate) fn hex_bytes(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(out, "{b:02x}");
    }
    out
}

/// A byte-level fault plan for [`FaultInjector`]. Offsets are absolute
/// positions in the wrapped stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// `(offset, mask)` pairs: the byte at `offset` is XOR'd with
    /// `mask` as it passes through.
    pub flips: Vec<(u64, u8)>,
    /// Report end-of-stream after this many bytes.
    pub truncate_at: Option<u64>,
    /// Return an I/O error when a read reaches this offset.
    pub error_at: Option<u64>,
}

impl FaultPlan {
    /// A plan that flips `mask` into the byte at `offset`.
    pub fn flip(offset: u64, mask: u8) -> FaultPlan {
        FaultPlan {
            flips: vec![(offset, mask)],
            ..FaultPlan::default()
        }
    }

    /// A plan that truncates the stream at `offset`.
    pub fn truncate(offset: u64) -> FaultPlan {
        FaultPlan {
            truncate_at: Some(offset),
            ..FaultPlan::default()
        }
    }

    /// A plan that fails with an I/O error at `offset`.
    pub fn io_error(offset: u64) -> FaultPlan {
        FaultPlan {
            error_at: Some(offset),
            ..FaultPlan::default()
        }
    }
}

/// A [`Read`] adapter that corrupts the wrapped stream according to a
/// [`FaultPlan`] — the adversarial half of the fault-tolerance tests.
///
/// # Examples
///
/// ```
/// use std::io::Read;
/// use mlc_trace::{FaultInjector, FaultPlan};
///
/// let mut out = Vec::new();
/// FaultInjector::new(&b"hello"[..], FaultPlan::flip(1, 0x20))
///     .read_to_end(&mut out)
///     .unwrap();
/// assert_eq!(out, b"hEllo");
///
/// let mut out = Vec::new();
/// FaultInjector::new(&b"hello"[..], FaultPlan::truncate(2))
///     .read_to_end(&mut out)
///     .unwrap();
/// assert_eq!(out, b"he");
///
/// let mut out = Vec::new();
/// let err = FaultInjector::new(&b"hello"[..], FaultPlan::io_error(3))
///     .read_to_end(&mut out)
///     .unwrap_err();
/// assert_eq!(out, b"hel");
/// assert!(err.to_string().contains("injected"));
/// ```
#[derive(Debug)]
pub struct FaultInjector<R> {
    inner: R,
    plan: FaultPlan,
    offset: u64,
}

impl<R: Read> FaultInjector<R> {
    /// Wraps `inner` with `plan`.
    pub fn new(inner: R, plan: FaultPlan) -> Self {
        FaultInjector {
            inner,
            plan,
            offset: 0,
        }
    }

    /// Bytes delivered so far.
    pub fn offset(&self) -> u64 {
        self.offset
    }
}

impl<R: Read> Read for FaultInjector<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        if let Some(t) = self.plan.truncate_at {
            if self.offset >= t {
                return Ok(0);
            }
        }
        if let Some(e) = self.plan.error_at {
            if self.offset >= e {
                return Err(io::Error::other("injected I/O fault"));
            }
        }
        // Bound the read so truncation and error offsets land exactly.
        let mut limit = buf.len() as u64;
        if let Some(t) = self.plan.truncate_at {
            limit = limit.min(t - self.offset);
        }
        if let Some(e) = self.plan.error_at {
            limit = limit.min(e - self.offset);
        }
        let n = self.inner.read(&mut buf[..limit as usize])?;
        for (off, mask) in &self.plan.flips {
            if *off >= self.offset && *off < self.offset + n as u64 {
                buf[(*off - self.offset) as usize] ^= mask;
            }
        }
        self.offset += n as u64;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parses_cli_forms() {
        assert_eq!(FaultPolicy::parse("fail"), Ok(FaultPolicy::Fail));
        assert_eq!(
            FaultPolicy::parse("skip:3"),
            Ok(FaultPolicy::Skip { budget: 3 })
        );
        assert_eq!(
            FaultPolicy::parse("skip:0"),
            Ok(FaultPolicy::Skip { budget: 0 })
        );
        assert!(FaultPolicy::parse("skip:").is_err());
        assert!(FaultPolicy::parse("skip:-1").is_err());
        assert!(FaultPolicy::parse("tolerant").is_err());
    }

    #[test]
    fn injector_flips_exactly_one_byte_across_read_boundaries() {
        // Read through a 1-byte buffer so the flip offset crosses
        // multiple read() calls.
        let data: Vec<u8> = (0..64).collect();
        let mut inj = FaultInjector::new(data.as_slice(), FaultPlan::flip(37, 0xff));
        let mut out = Vec::new();
        let mut byte = [0u8; 1];
        while inj.read(&mut byte).unwrap() == 1 {
            out.push(byte[0]);
        }
        for (i, &b) in out.iter().enumerate() {
            let want = if i == 37 { 37u8 ^ 0xff } else { i as u8 };
            assert_eq!(b, want, "byte {i}");
        }
        assert_eq!(inj.offset(), 64);
    }

    #[test]
    fn injector_truncates_mid_buffer() {
        let data = [1u8; 100];
        let mut inj = FaultInjector::new(&data[..], FaultPlan::truncate(33));
        let mut out = Vec::new();
        inj.read_to_end(&mut out).unwrap();
        assert_eq!(out.len(), 33);
    }

    #[test]
    fn injector_errors_at_offset_after_delivering_prefix() {
        let data = [2u8; 100];
        let mut inj = FaultInjector::new(&data[..], FaultPlan::io_error(10));
        let mut out = Vec::new();
        let err = inj.read_to_end(&mut out).unwrap_err();
        assert_eq!(out.len(), 10);
        assert!(err.to_string().contains("injected"));
    }

    #[test]
    fn absorb_fault_budget_semantics() {
        let mut report = IngestReport::default();
        let mut sidecar: Vec<u8> = Vec::new();
        {
            let mut q: Option<&mut dyn Write> = Some(&mut sidecar);
            let e = || TraceError::ParseBinary("x".into());
            let policy = FaultPolicy::Skip { budget: 2 };
            assert!(absorb_fault(policy, &mut report, &mut q, "one", e()).is_ok());
            assert!(absorb_fault(policy, &mut report, &mut q, "two", e()).is_ok());
            let third = absorb_fault(policy, &mut report, &mut q, "three", e());
            assert!(matches!(
                third,
                Err(TraceError::FaultBudget { budget: 2, .. })
            ));
        }
        assert_eq!(report.quarantined, 3);
        // The record that breaks the budget is not quarantined: the read
        // is abandoned, not continued.
        assert_eq!(String::from_utf8(sidecar).unwrap(), "one\ntwo\n");
    }

    #[test]
    fn fail_policy_propagates_immediately() {
        let mut report = IngestReport::default();
        let mut q: Option<&mut dyn Write> = None;
        let r = absorb_fault(
            FaultPolicy::Fail,
            &mut report,
            &mut q,
            "d",
            TraceError::ParseBinary("boom".into()),
        );
        assert!(matches!(r, Err(TraceError::ParseBinary(_))));
        assert_eq!(report.quarantined, 0);
    }
}
