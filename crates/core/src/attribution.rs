//! Cross-checking the simulator's cycle ledger against Equation 1.
//!
//! The simulator's `CycleLedger` attributes every cycle of a run to one
//! bucket (execute, per-level read-miss stall, write-buffer-full,
//! writeback, refresh wait). Equation 1 predicts the same total from
//! four analytic terms. [`AttributionReport`] lines the two up term by
//! term — each ledger bucket against the Equation 1 term that claims to
//! model it — and reports the per-term delta, so disagreements between
//! the analytic model and the simulated machine show up in the bucket
//! where they originate rather than only in the grand total.
//!
//! The mapping (two-level hierarchies, where Equation 1 is defined):
//!
//! | ledger bucket(s)              | Equation 1 term          |
//! |-------------------------------|--------------------------|
//! | execute + read_miss.L1        | `N_read · n_L1`          |
//! | read_miss.L2                  | `N_read · M_L1 · n_L2`   |
//! | read_miss.memory              | `N_read · M_L2 · n_MM`   |
//! | writeback + write_buffer_full | `N_store · z_L1write`    |
//! | refresh_wait                  | — (unmodelled)           |
//!
//! For hierarchies that are not two levels deep the breakdown still
//! prints, but the model column is empty: Equation 1 has no terms for
//! an L3, and extrapolating it silently would defeat the cross-check.

use mlc_sim::{Clock, CycleLedger, HierarchyConfig, LevelCacheConfig, SimResult};

use crate::model::ExecutionTimeModel;
use crate::report::Table;

/// The machine-determined parameters of Equation 1, derived from a
/// hierarchy description (as opposed to the miss ratios, which come from
/// a measurement).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Eq1Params {
    /// L1 read access time in CPU cycles.
    pub n_l1: f64,
    /// L2 read access time in CPU cycles.
    pub n_l2: f64,
    /// Main-memory fetch time into the deepest cache, in CPU cycles.
    pub n_mm_read: f64,
}

/// Derives Equation 1's access-time parameters from a machine
/// description. Returns `None` for hierarchies with fewer than two
/// levels, where the equation is not defined.
///
/// # Examples
///
/// ```
/// use mlc_core::eq1_params;
/// use mlc_sim::machine::base_machine;
///
/// let p = eq1_params(&base_machine()).unwrap();
/// assert_eq!((p.n_l1, p.n_l2, p.n_mm_read), (1.0, 3.0, 27.0));
/// ```
pub fn eq1_params(config: &HierarchyConfig) -> Option<Eq1Params> {
    if config.levels.len() < 2 {
        return None;
    }
    Some(Eq1Params {
        n_l1: config.levels[0].read_cycles as f64,
        n_l2: config.levels[1].read_cycles as f64,
        n_mm_read: memory_read_cycles(config) as f64,
    })
}

/// Main-memory fetch time into the deepest cache, in CPU cycles: one
/// backplane address cycle, the memory read operation, and the data
/// beats for a full block. On the base machine this is the paper's
/// 27 cycles (3 + 18 + 6).
pub fn memory_read_cycles(config: &HierarchyConfig) -> u64 {
    let deepest = config.levels.len() - 1;
    let level = &config.levels[deepest];
    let bus_cycle = config.refill_bus_cycles(deepest);
    let block_bytes = match &level.cache {
        LevelCacheConfig::Unified(c) => c.geometry().block_bytes(),
        LevelCacheConfig::Split { icache, dcache } => icache
            .geometry()
            .block_bytes()
            .max(dcache.geometry().block_bytes()),
    };
    let read_cycles = Clock::new(config.cpu.cycle_ns).ns_to_cycles(config.memory.read_ns);
    let data_beats = block_bytes.div_ceil(level.refill_bus_bytes);
    bus_cycle + read_cycles + data_beats * bus_cycle
}

/// One line of the attribution cross-check: a ledger bucket (or sum of
/// buckets) next to the Equation 1 term modelling it.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionRow {
    /// The ledger bucket(s) summed into `sim_cycles`.
    pub bucket: String,
    /// The Equation 1 term, or "—" for unmodelled buckets.
    pub term: String,
    /// Simulated cycles attributed to this bucket.
    pub sim_cycles: u64,
    /// The model's prediction for the same term, when it has one.
    pub model_cycles: Option<f64>,
}

impl AttributionRow {
    /// Model minus simulation, in cycles (`None` for unmodelled rows).
    pub fn delta(&self) -> Option<f64> {
        self.model_cycles.map(|m| m - self.sim_cycles as f64)
    }

    /// Delta as a fraction of the *run total*, so tiny buckets don't
    /// report alarming percentages over a handful of cycles.
    pub fn delta_of_total(&self, total_cycles: u64) -> Option<f64> {
        if total_cycles == 0 {
            return None;
        }
        self.delta().map(|d| d / total_cycles as f64)
    }
}

/// The full execution-time attribution: the ledger's breakdown of a run,
/// cross-checked term by term against Equation 1.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionReport {
    /// Per-term rows, in machine order (CPU outwards, then write side).
    pub rows: Vec<AttributionRow>,
    /// The run's measured total (the ledger buckets sum to exactly this).
    pub sim_total: u64,
    /// Equation 1's predicted total, when the machine is two-level.
    pub model_total: Option<f64>,
    /// The fitted model, when the machine is two-level.
    pub model: Option<ExecutionTimeModel>,
}

impl AttributionReport {
    /// Builds the cross-check from a machine description, a measured
    /// run, and its cycle ledger.
    ///
    /// The ledger must come from the same run as `result` (the
    /// constructor checks conservation against `result.total_cycles`
    /// only in debug builds, via the table invariants downstream).
    pub fn from_run(config: &HierarchyConfig, result: &SimResult, ledger: &CycleLedger) -> Self {
        let model = if config.levels.len() == 2 {
            eq1_params(config)
                .and_then(|p| ExecutionTimeModel::from_sim(result, p.n_l1, p.n_l2, p.n_mm_read))
        } else {
            None
        };
        let n_read = result.cpu_reads as f64;
        let mut rows = Vec::new();

        let l1_name = config.levels[0].name.clone();
        rows.push(AttributionRow {
            bucket: format!("execute + read_miss.{l1_name}"),
            term: "N_read · n_L1".into(),
            sim_cycles: ledger.execute + ledger.read_miss.first().copied().unwrap_or(0),
            model_cycles: model.as_ref().map(|m| n_read * m.n_l1),
        });
        for (idx, level) in config.levels.iter().enumerate().skip(1) {
            rows.push(AttributionRow {
                bucket: format!("read_miss.{}", level.name),
                term: if idx == 1 && model.is_some() {
                    "N_read · M_L1 · n_L2".into()
                } else {
                    "—".into()
                },
                sim_cycles: ledger.read_miss.get(idx).copied().unwrap_or(0),
                model_cycles: model
                    .as_ref()
                    .filter(|_| idx == 1)
                    .map(|m| n_read * m.m_l1 * m.n_l2),
            });
        }
        rows.push(AttributionRow {
            bucket: "read_miss.memory".into(),
            term: if model.is_some() {
                "N_read · M_L2 · n_MMread".into()
            } else {
                "—".into()
            },
            sim_cycles: ledger.memory_read_miss(),
            model_cycles: model.as_ref().map(|m| n_read * m.m_l2 * m.n_mm_read),
        });
        rows.push(AttributionRow {
            bucket: "writeback + write_buffer_full".into(),
            term: if model.is_some() {
                "N_store · z_L1write".into()
            } else {
                "—".into()
            },
            sim_cycles: ledger.writeback + ledger.write_buffer_full,
            model_cycles: model.as_ref().map(|m| result.stores as f64 * m.z_l1_write),
        });
        rows.push(AttributionRow {
            bucket: "refresh_wait".into(),
            term: "—".into(),
            sim_cycles: ledger.refresh_wait,
            model_cycles: None,
        });

        AttributionReport {
            rows,
            sim_total: result.total_cycles,
            model_total: model.as_ref().map(|m| m.predict_for(result)),
            model,
        }
    }

    /// Equation 1's relative error on the total
    /// (`(model − sim) / sim`); `None` when unmodelled or zero-cycle.
    pub fn total_relative_error(&self) -> Option<f64> {
        if self.sim_total == 0 {
            return None;
        }
        self.model_total
            .map(|m| (m - self.sim_total as f64) / self.sim_total as f64)
    }

    /// The table followed by a one-line verdict on Equation 1's total:
    /// its relative error, or that it does not apply. This is the text
    /// `mlc-run --attribution` and `mlc-analyze --attribution` print.
    pub fn render(&self) -> String {
        let verdict = match self.total_relative_error() {
            Some(err) => format!(
                "Equation 1 total off by {:+.1}% (refresh and overlap are unmodelled)",
                100.0 * err
            ),
            None => "Equation 1 does not apply (machine is not two-level)".to_string(),
        };
        format!("{}\n{verdict}", self.table())
    }

    /// Renders the cross-check as an aligned table: per-bucket simulated
    /// cycles and share of the run, the matching Equation 1 prediction,
    /// and the delta, with a totals row at the bottom.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "execution-time attribution (ledger vs Equation 1)",
            &[
                "bucket",
                "eq1 term",
                "sim cycles",
                "share",
                "eq1 cycles",
                "delta",
            ],
        );
        let total = self.sim_total;
        let share = |cycles: u64| {
            if total == 0 {
                "—".to_string()
            } else {
                format!("{:.1}%", 100.0 * cycles as f64 / total as f64)
            }
        };
        let model_cell = |m: Option<f64>| m.map_or("—".to_string(), |v| format!("{v:.0}"));
        let delta_cell = |row: &AttributionRow| match row.delta() {
            Some(d) => format!("{d:+.0}"),
            None => "—".to_string(),
        };
        for row in &self.rows {
            t.row([
                row.bucket.clone(),
                row.term.clone(),
                row.sim_cycles.to_string(),
                share(row.sim_cycles),
                model_cell(row.model_cycles),
                delta_cell(row),
            ]);
        }
        let total_delta = match self.total_relative_error() {
            Some(e) => format!(
                "{:+.0} ({:+.1}%)",
                self.model_total.unwrap_or(0.0) - total as f64,
                100.0 * e
            ),
            None => "—".to_string(),
        };
        t.row([
            "total".to_string(),
            "N_total".to_string(),
            total.to_string(),
            share(total),
            model_cell(self.model_total),
            total_delta,
        ]);
        t
    }
}

/// One read-stall term of Equation 1 next to the statically guaranteed
/// cycle interval implied by per-level miss bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundsCheckRow {
    /// The Equation 1 term, e.g. `"N_read · M_L1 · n_L2"`.
    pub term: String,
    /// Equation 1's cycles for the term (miss ratios measured from the
    /// run, as the paper defines them).
    pub eq1_cycles: f64,
    /// Lower end of the guaranteed interval for the same term.
    pub lo_cycles: u64,
    /// Upper end of the guaranteed interval for the same term.
    pub hi_cycles: u64,
}

impl BoundsCheckRow {
    /// Whether Equation 1's term lands inside the guaranteed interval.
    /// A half-cycle slack absorbs the float rounding in the ratios.
    pub fn within(&self) -> bool {
        self.eq1_cycles >= self.lo_cycles as f64 - 0.5
            && self.eq1_cycles <= self.hi_cycles as f64 + 0.5
    }
}

/// Cross-checks Equation 1's read-path terms against statically
/// guaranteed per-level read-miss bounds.
///
/// `bounds` carries one `(lo, hi)` read-miss interval per level, L1
/// first — plain numbers, so any bounds producer can feed this without
/// a crate dependency. Because Equation 1's global miss ratios satisfy
/// `N_read · M_L` = read misses at level `L`, each read-stall term must
/// fall inside the interval the static analysis guarantees for it; a
/// row with `within() == false` means the model, the simulator, or the
/// analyzer is wrong about that level.
///
/// Returns `None` when the machine is not two-level (Equation 1
/// undefined), `bounds` does not cover exactly two levels, or the model
/// cannot be fitted.
pub fn bounds_vs_eq1(
    config: &HierarchyConfig,
    result: &SimResult,
    bounds: &[(u64, u64)],
) -> Option<Vec<BoundsCheckRow>> {
    if config.levels.len() != 2 || bounds.len() != 2 {
        return None;
    }
    let p = eq1_params(config)?;
    let model = ExecutionTimeModel::from_sim(result, p.n_l1, p.n_l2, p.n_mm_read)?;
    let n_read = result.cpu_reads as f64;
    let term = |ratio: f64, cycles: f64, (lo, hi): (u64, u64)| BoundsCheckRow {
        term: String::new(),
        eq1_cycles: n_read * ratio * cycles,
        lo_cycles: lo * cycles as u64,
        hi_cycles: hi * cycles as u64,
    };
    let mut rows = vec![
        BoundsCheckRow {
            term: "N_read · n_L1".into(),
            eq1_cycles: n_read * p.n_l1,
            // Every read pays the L1 access exactly once.
            lo_cycles: result.cpu_reads * p.n_l1 as u64,
            hi_cycles: result.cpu_reads * p.n_l1 as u64,
        },
        term(model.m_l1, p.n_l2, bounds[0]),
        term(model.m_l2, p.n_mm_read, bounds[1]),
    ];
    rows[1].term = "N_read · M_L1 · n_L2".into();
    rows[2].term = "N_read · M_L2 · n_MMread".into();
    Some(rows)
}

/// Renders a [`bounds_vs_eq1`] cross-check as an aligned table.
pub fn bounds_vs_eq1_table(rows: &[BoundsCheckRow]) -> Table {
    let mut t = Table::new(
        "Equation 1 read terms vs guaranteed bounds",
        &["eq1 term", "eq1 cycles", "bound lo", "bound hi", "within"],
    );
    for row in rows {
        t.row([
            row.term.clone(),
            format!("{:.0}", row.eq1_cycles),
            row.lo_cycles.to_string(),
            row.hi_cycles.to_string(),
            if row.within() { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlc_cache::{ByteSize, CacheConfig};
    use mlc_sim::machine::{base_machine, single_level, BaseMachine};
    use mlc_sim::{HierarchySim, LevelConfig};
    use mlc_trace::synth::{workload::Preset, MultiProgramGenerator};

    fn run(config: &HierarchyConfig, n: usize) -> (SimResult, CycleLedger) {
        let mut generator = MultiProgramGenerator::new(Preset::Mips1.config(5)).unwrap();
        let trace = generator.generate_records(n);
        let mut sim = HierarchySim::new(config.clone()).unwrap();
        sim.run(trace);
        (sim.result(), sim.ledger().clone())
    }

    #[test]
    fn base_machine_params_match_paper() {
        let p = eq1_params(&base_machine()).unwrap();
        assert_eq!(p.n_l1, 1.0);
        assert_eq!(p.n_l2, 3.0);
        // 3 backplane address + 18 memory read + 6 data beats.
        assert_eq!(p.n_mm_read, 27.0);
    }

    #[test]
    fn memory_read_cycles_tracks_memory_speed() {
        let base = memory_read_cycles(&base_machine());
        let slow = BaseMachine::new().memory_scale(2.0).build().unwrap();
        // Doubling memory speed adds exactly the extra read-operation
        // cycles; bus terms are unchanged.
        assert_eq!(memory_read_cycles(&slow), base + 18);
    }

    #[test]
    fn single_level_machines_are_unmodelled() {
        let cache = CacheConfig::builder()
            .total(ByteSize::kib(4))
            .block_bytes(16)
            .build()
            .unwrap();
        let config = single_level(cache, 1, 10.0, 1.0);
        assert!(eq1_params(&config).is_none());
        let (result, ledger) = run(&config, 5_000);
        let report = AttributionReport::from_run(&config, &result, &ledger);
        assert!(report.model.is_none());
        assert!(report.model_total.is_none());
        assert!(report.rows.iter().all(|r| r.model_cycles.is_none()));
        // The breakdown itself still conserves.
        let sum: u64 = report.rows.iter().map(|r| r.sim_cycles).sum();
        assert_eq!(sum, report.sim_total);
        assert!(report
            .render()
            .ends_with("\nEquation 1 does not apply (machine is not two-level)"));
    }

    #[test]
    fn three_level_machines_print_but_skip_the_model() {
        let l3 = CacheConfig::builder()
            .total(ByteSize::mib(2))
            .block_bytes(32)
            .build()
            .unwrap();
        let mut config = base_machine();
        config.levels.push(LevelConfig::new(
            "L3",
            mlc_sim::LevelCacheConfig::Unified(l3),
            6,
        ));
        let (result, ledger) = run(&config, 5_000);
        let report = AttributionReport::from_run(&config, &result, &ledger);
        assert!(report.model.is_none());
        assert!(report.rows.iter().any(|r| r.bucket == "read_miss.L3"));
        let sum: u64 = report.rows.iter().map(|r| r.sim_cycles).sum();
        assert_eq!(sum, report.sim_total);
    }

    #[test]
    fn two_level_report_cross_checks_equation_1() {
        let config = base_machine();
        let (result, ledger) = run(&config, 100_000);
        let report = AttributionReport::from_run(&config, &result, &ledger);

        // Rows conserve the measured total exactly.
        let sum: u64 = report.rows.iter().map(|r| r.sim_cycles).sum();
        assert_eq!(sum, report.sim_total);
        assert_eq!(report.sim_total, result.total_cycles);

        // The model is fitted and every modelled row has a prediction.
        let model = report.model.expect("two-level machine fits Equation 1");
        assert_eq!(model.n_mm_read, 27.0);
        let modelled: Vec<_> = report
            .rows
            .iter()
            .filter(|r| r.model_cycles.is_some())
            .collect();
        assert_eq!(modelled.len(), 4);

        // Per-term model cycles sum to the model total.
        let model_sum: f64 = modelled.iter().filter_map(|r| r.model_cycles).sum();
        let model_total = report.model_total.unwrap();
        assert!((model_sum - model_total).abs() < 1e-6 * model_total.max(1.0));

        // The model is first-order but not wild on the base machine.
        assert!(report.total_relative_error().unwrap().abs() < 0.35);

        // Refresh is explicitly unmodelled.
        let refresh = report.rows.last().unwrap();
        assert_eq!(refresh.bucket, "refresh_wait");
        assert!(refresh.model_cycles.is_none());
        assert!(refresh.delta().is_none());
    }

    #[test]
    fn table_renders_every_row_and_totals() {
        let config = base_machine();
        let (result, ledger) = run(&config, 20_000);
        let report = AttributionReport::from_run(&config, &result, &ledger);
        let table = report.table();
        // One row per bucket plus the totals row.
        assert_eq!(table.len(), report.rows.len() + 1);
        let text = table.to_string();
        assert!(text.contains("execution-time attribution"));
        assert!(text.contains("read_miss.memory"));
        assert!(text.contains("refresh_wait"));
        assert!(text.contains("N_total"));
        let csv = table.to_csv();
        assert!(csv.lines().count() == report.rows.len() + 2);
        // The rendered report is the table plus the verdict line.
        let rendered = report.render();
        assert!(rendered.starts_with(&text), "{rendered}");
        let verdict = rendered.lines().last().unwrap();
        assert!(verdict.starts_with("Equation 1 total off by "), "{verdict}");
    }

    #[test]
    fn bounds_vs_eq1_accepts_the_measured_truth() {
        // The tightest sound bounds are the measured counts themselves;
        // Equation 1's terms are built from the same counts, so every
        // row must land inside.
        let config = base_machine();
        let (result, _) = run(&config, 50_000);
        let exact: Vec<(u64, u64)> = result
            .levels
            .iter()
            .map(|l| (l.cache.read_misses(), l.cache.read_misses()))
            .collect();
        let rows = bounds_vs_eq1(&config, &result, &exact).expect("two-level machine");
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.within(), "{row:?}");
        }
        let table = bounds_vs_eq1_table(&rows);
        assert_eq!(table.len(), 3);
        assert!(table.to_string().contains("N_read · M_L1 · n_L2"));
    }

    #[test]
    fn bounds_vs_eq1_flags_an_impossible_bound() {
        let config = base_machine();
        let (result, _) = run(&config, 50_000);
        // Claim L1 never misses: the Equation 1 term must escape.
        let wrong = vec![(0, 0), (0, u64::MAX / 1024)];
        let rows = bounds_vs_eq1(&config, &result, &wrong).expect("two-level machine");
        assert!(!rows[1].within(), "{:?}", rows[1]);
        assert!(rows[2].within(), "{:?}", rows[2]);
    }

    #[test]
    fn bounds_vs_eq1_rejects_mismatched_shapes() {
        let config = base_machine();
        let (result, _) = run(&config, 5_000);
        assert!(bounds_vs_eq1(&config, &result, &[(0, 1)]).is_none());

        let cache = CacheConfig::builder()
            .total(ByteSize::kib(4))
            .block_bytes(16)
            .build()
            .unwrap();
        let solo = single_level(cache, 1, 10.0, 1.0);
        let (result, _) = run(&solo, 5_000);
        assert!(bounds_vs_eq1(&solo, &result, &[(0, 1)]).is_none());
    }

    #[test]
    fn delta_helpers_handle_degenerate_inputs() {
        let row = AttributionRow {
            bucket: "x".into(),
            term: "—".into(),
            sim_cycles: 10,
            model_cycles: Some(12.0),
        };
        assert_eq!(row.delta(), Some(2.0));
        assert_eq!(row.delta_of_total(0), None);
        assert!((row.delta_of_total(100).unwrap() - 0.02).abs() < 1e-12);
    }
}
