//! Multiprogramming: interleaving several process generators with context
//! switches.
//!
//! The paper's MIPS R2000 traces were produced by randomly interleaving
//! uniprocessor traces "to match the context switch intervals seen in the
//! VAX traces" (§2). This module reproduces that construction: a set of
//! processes executes round-robin-with-random-selection, each quantum
//! lasting a geometrically distributed number of CPU cycles.

use crate::record::TraceRecord;

use super::process::{CycleRefs, ProcessConfig, ProcessGenerator};
use super::rng::Xoshiro;

/// Configuration of a multiprogramming workload.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiProgramConfig {
    /// Per-process configurations. Each process should have a distinct
    /// `pid`; [`MultiProgramConfig::homogeneous`] arranges that.
    pub processes: Vec<ProcessConfig>,
    /// Mean context-switch interval in CPU cycles (geometrically
    /// distributed). The ATUM VAX traces switch every several thousand
    /// references.
    pub mean_switch_interval: f64,
    /// Seed for scheduler randomness (process selection and quantum
    /// lengths).
    pub seed: u64,
}

impl MultiProgramConfig {
    /// Builds a workload of `n` processes sharing a base configuration,
    /// with distinct pids and decorrelated seeds.
    ///
    /// # Examples
    ///
    /// ```
    /// use mlc_trace::synth::{MultiProgramConfig, ProcessConfig};
    ///
    /// let config = MultiProgramConfig::homogeneous(4, ProcessConfig::default(), 42);
    /// assert_eq!(config.processes.len(), 4);
    /// assert_ne!(config.processes[0].pid, config.processes[3].pid);
    /// ```
    pub fn homogeneous(n: usize, base: ProcessConfig, seed: u64) -> Self {
        let processes = (0..n)
            .map(|i| ProcessConfig {
                pid: i as u8,
                seed: seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i as u64),
                ..base.clone()
            })
            .collect();
        MultiProgramConfig {
            processes,
            mean_switch_interval: 10_000.0,
            seed,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field, including any
    /// invalid per-process configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.processes.is_empty() {
            return Err("at least one process is required".into());
        }
        if !(self.mean_switch_interval.is_finite() && self.mean_switch_interval >= 1.0) {
            return Err(format!(
                "mean_switch_interval must be >= 1, got {}",
                self.mean_switch_interval
            ));
        }
        for (i, p) in self.processes.iter().enumerate() {
            p.validate().map_err(|e| format!("process {i}: {e}"))?;
        }
        Ok(())
    }
}

/// An interleaved multiprogramming reference generator.
///
/// # Examples
///
/// ```
/// use mlc_trace::synth::{MultiProgramConfig, MultiProgramGenerator, ProcessConfig};
///
/// let config = MultiProgramConfig::homogeneous(2, ProcessConfig::default(), 1);
/// let mut gen = MultiProgramGenerator::new(config)?;
/// let records = gen.generate_records(1000);
/// assert_eq!(records.len(), 1000);
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone)]
pub struct MultiProgramGenerator {
    processes: Vec<ProcessGenerator>,
    rng: Xoshiro,
    mean_switch_interval: f64,
    current: usize,
    quantum_left: u64,
    switches: u64,
}

impl MultiProgramGenerator {
    /// Creates a generator from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns an error string if the configuration is invalid.
    pub fn new(config: MultiProgramConfig) -> Result<Self, String> {
        config.validate()?;
        let processes = config
            .processes
            .into_iter()
            .map(ProcessGenerator::new)
            .collect::<Result<Vec<_>, _>>()?;
        let mut rng = Xoshiro::seed_from_u64(config.seed ^ 0x5C8E_D01E);
        let current = rng.next_below(processes.len() as u64) as usize;
        let quantum_left = rng.next_geometric(config.mean_switch_interval);
        Ok(MultiProgramGenerator {
            processes,
            rng,
            mean_switch_interval: config.mean_switch_interval,
            current,
            quantum_left,
            switches: 0,
        })
    }

    /// Generates the next CPU cycle, switching process when the current
    /// quantum expires.
    pub fn next_cycle(&mut self) -> CycleRefs {
        if self.quantum_left == 0 {
            self.context_switch();
        }
        self.quantum_left -= 1;
        self.processes[self.current].next_cycle()
    }

    fn context_switch(&mut self) {
        let n = self.processes.len() as u64;
        if n > 1 {
            // Pick any *other* process uniformly.
            let step = 1 + self.rng.next_below(n - 1);
            self.current = ((self.current as u64 + step) % n) as usize;
        }
        self.quantum_left = self.rng.next_geometric(self.mean_switch_interval);
        self.switches += 1;
    }

    /// Number of context switches performed so far.
    pub fn context_switches(&self) -> u64 {
        self.switches
    }

    /// Materialises exactly `n` records (cycles are never split: the final
    /// cycle's data reference is included even if it lands at index `n`,
    /// so the result may contain `n + 1` records when the cut falls inside
    /// a cycle — callers that need an exact count can truncate).
    pub fn generate_records(&mut self, n: usize) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(n + 1);
        while out.len() < n {
            let cycle = self.next_cycle();
            out.push(cycle.ifetch);
            if let Some(d) = cycle.data {
                out.push(d);
            }
        }
        out.truncate(n);
        out
    }

    /// Flattens the generator into an infinite record stream.
    pub fn into_records(self) -> MultiProgramRecords {
        MultiProgramRecords {
            gen: self,
            pending: None,
        }
    }
}

/// Infinite record iterator over a [`MultiProgramGenerator`], created by
/// [`MultiProgramGenerator::into_records`].
#[derive(Debug, Clone)]
pub struct MultiProgramRecords {
    gen: MultiProgramGenerator,
    pending: Option<TraceRecord>,
}

impl Iterator for MultiProgramRecords {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        if let Some(r) = self.pending.take() {
            return Some(r);
        }
        let cycle = self.gen.next_cycle();
        self.pending = cycle.data;
        Some(cycle.ifetch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::AccessKind;

    fn small_config(n: usize, seed: u64) -> MultiProgramConfig {
        MultiProgramConfig {
            mean_switch_interval: 100.0,
            ..MultiProgramConfig::homogeneous(n, ProcessConfig::default(), seed)
        }
    }

    #[test]
    fn homogeneous_assigns_distinct_pids_and_seeds() {
        let c = MultiProgramConfig::homogeneous(8, ProcessConfig::default(), 5);
        let pids: Vec<_> = c.processes.iter().map(|p| p.pid).collect();
        assert_eq!(pids, (0..8u8).collect::<Vec<_>>());
        let mut seeds: Vec<_> = c.processes.iter().map(|p| p.seed).collect();
        seeds.dedup();
        assert_eq!(seeds.len(), 8);
    }

    #[test]
    fn validation() {
        let mut c = small_config(2, 1);
        c.mean_switch_interval = 0.5;
        assert!(c.validate().is_err());
        let c = MultiProgramConfig {
            processes: vec![],
            mean_switch_interval: 100.0,
            seed: 0,
        };
        assert!(c.validate().is_err());
        let mut c = small_config(2, 1);
        c.processes[1].theta = -1.0;
        let err = c.validate().unwrap_err();
        assert!(err.contains("process 1"));
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            MultiProgramGenerator::new(small_config(3, 7))
                .unwrap()
                .generate_records(4000)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn all_processes_get_scheduled() {
        let mut gen = MultiProgramGenerator::new(small_config(4, 11)).unwrap();
        let mut seen = [false; 4];
        for _ in 0..50_000 {
            let c = gen.next_cycle();
            seen[(c.ifetch.addr.get() >> 40) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "seen: {seen:?}");
        assert!(gen.context_switches() > 100);
    }

    #[test]
    fn switch_interval_roughly_matches_mean() {
        let mut config = small_config(4, 13);
        config.mean_switch_interval = 50.0;
        let mut gen = MultiProgramGenerator::new(config).unwrap();
        let cycles = 100_000;
        for _ in 0..cycles {
            gen.next_cycle();
        }
        let mean = cycles as f64 / gen.context_switches() as f64;
        assert!((mean - 50.0).abs() < 5.0, "mean interval {mean}");
    }

    #[test]
    fn single_process_never_switches_away() {
        let mut gen = MultiProgramGenerator::new(small_config(1, 17)).unwrap();
        for _ in 0..5000 {
            let c = gen.next_cycle();
            assert_eq!(c.ifetch.addr.get() >> 40, 0);
        }
    }

    #[test]
    fn generate_records_exact_length_and_structure() {
        let mut gen = MultiProgramGenerator::new(small_config(2, 19)).unwrap();
        let recs = gen.generate_records(10_001);
        assert_eq!(recs.len(), 10_001);
        assert_eq!(recs[0].kind, AccessKind::InstructionFetch);
    }

    #[test]
    fn record_iterator_matches_generate_records() {
        let recs_a = MultiProgramGenerator::new(small_config(2, 23))
            .unwrap()
            .generate_records(2000);
        let recs_b: Vec<_> = MultiProgramGenerator::new(small_config(2, 23))
            .unwrap()
            .into_records()
            .take(2000)
            .collect();
        assert_eq!(recs_a, recs_b);
    }
}
