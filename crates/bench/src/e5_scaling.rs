//! Experiment E5 — runtime scaling measurements backing the complexity
//! claims: RLS∆ is `O(n²m)` and SBO∆ is dominated by its inner
//! single-objective schedulers (`O(n log n)` for LPT, polynomial for the
//! PTAS).
//!
//! Wall-clock measurements are inherently noisy; the Criterion bench
//! `scaling` produces the statistically sound numbers, while this module
//! offers a quick `std::time::Instant` sweep for the `experiments` binary
//! and asserts only very coarse monotonicity properties in tests.

use std::time::Instant;

use sws_core::portfolio::Portfolio;
use sws_model::solve::{ObjectiveMode, SolveRequest};
use sws_workloads::dagsets::{dag_workload, DagFamily};
use sws_workloads::random::random_instance;
use sws_workloads::rng::{derive_seed, seeded_rng};
use sws_workloads::TaskDistribution;

use crate::table::{fmt2, Table};
use crate::BASE_SEED;

/// Parameter grid of experiment E5.
#[derive(Debug, Clone)]
pub struct E5Config {
    /// Task counts for the SBO (independent tasks) sweep.
    pub sbo_task_counts: Vec<usize>,
    /// Task counts for the RLS (DAG) sweep.
    pub rls_task_counts: Vec<usize>,
    /// Processor counts.
    pub processor_counts: Vec<usize>,
    /// Repetitions per measurement (the minimum is reported).
    pub repetitions: usize,
}

impl Default for E5Config {
    fn default() -> Self {
        E5Config {
            sbo_task_counts: vec![100, 1_000, 5_000, 10_000],
            rls_task_counts: vec![100, 250, 500, 1_000, 2_000],
            processor_counts: vec![4, 16, 64],
            repetitions: 3,
        }
    }
}

impl E5Config {
    /// A small grid for tests and smoke runs.
    pub fn smoke() -> Self {
        E5Config {
            sbo_task_counts: vec![50, 200],
            rls_task_counts: vec![50, 150],
            processor_counts: vec![4],
            repetitions: 1,
        }
    }
}

/// One timing measurement.
#[derive(Debug, Clone)]
pub struct E5Row {
    /// Algorithm label (`"sbo/lpt"`, `"rls"`).
    pub algorithm: String,
    /// Number of tasks.
    pub n: usize,
    /// Number of processors.
    pub m: usize,
    /// Best-of-`repetitions` wall-clock time in milliseconds.
    pub millis: f64,
}

/// Runs the wall-clock sweep.
///
/// Both series go through [`Portfolio::solve`] — the timings therefore
/// include backend selection, which doubles as a regression check that
/// the unified layer stays one-time-resolution cheap. At these sizes
/// the bi-objective requests route to SBO∆/LPT (independent) and kernel
/// RLS∆ (DAGs), exactly the algorithms the row labels name.
pub fn run(config: &E5Config) -> Vec<E5Row> {
    let portfolio = Portfolio::standard();
    let mut rows = Vec::new();
    for &m in &config.processor_counts {
        for &n in &config.sbo_task_counts {
            let seed = derive_seed(BASE_SEED ^ 0xE5, (n + m) as u64);
            let inst = random_instance(n, m, TaskDistribution::Uncorrelated, &mut seeded_rng(seed));
            let req = SolveRequest::independent(&inst, ObjectiveMode::BiObjective { delta: 1.0 });
            let millis = best_of(config.repetitions, || {
                let _ = portfolio.solve(&req).unwrap();
            });
            rows.push(E5Row {
                algorithm: "sbo/lpt".to_string(),
                n,
                m,
                millis,
            });
        }
        for &n in &config.rls_task_counts {
            let seed = derive_seed(BASE_SEED ^ 0xE5A, (n + m) as u64);
            let inst = dag_workload(
                DagFamily::LayeredRandom,
                n,
                m,
                TaskDistribution::Uncorrelated,
                &mut seeded_rng(seed),
            );
            let req = SolveRequest::precedence(&inst, ObjectiveMode::BiObjective { delta: 3.0 });
            let millis = best_of(config.repetitions, || {
                let _ = portfolio.solve(&req).unwrap();
            });
            rows.push(E5Row {
                algorithm: "rls".to_string(),
                n: inst.n(),
                m,
                millis,
            });
        }
    }
    rows
}

fn best_of(repetitions: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repetitions.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Renders E5 rows as a table.
pub fn to_table(rows: &[E5Row]) -> Table {
    let mut t = Table::new("E5 runtime scaling", &["algorithm", "n", "m", "millis"]);
    for r in rows {
        t.push_row(vec![
            r.algorithm.clone(),
            r.n.to_string(),
            r.m.to_string(),
            fmt2(r.millis),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_measures_every_cell() {
        let cfg = E5Config::smoke();
        let rows = run(&cfg);
        let expected =
            cfg.processor_counts.len() * (cfg.sbo_task_counts.len() + cfg.rls_task_counts.len());
        assert_eq!(rows.len(), expected);
        for r in &rows {
            assert!(r.millis >= 0.0);
            assert!(r.n > 0);
        }
        assert_eq!(to_table(&rows).len(), rows.len());
    }

    #[test]
    fn measurements_are_finite_and_labelled() {
        let rows = run(&E5Config::smoke());
        assert!(rows.iter().any(|r| r.algorithm == "sbo/lpt"));
        assert!(rows.iter().any(|r| r.algorithm == "rls"));
        assert!(rows.iter().all(|r| r.millis.is_finite()));
    }
}
