//! Precedence-constrained workload bundles.
//!
//! Combines the structural generators of `sws-dag` with randomized task
//! costs so RLS∆ (Section 5) can be evaluated over a representative DAG
//! suite. The structured families (Gaussian elimination, LU, FFT) keep
//! their natural cost models; the random families receive `(p, s)` drawn
//! from the same distributions as the independent-task experiments.

use rand::Rng;

use sws_dag::prelude::*;
use sws_model::task::Task;

use crate::random::TaskDistribution;
use crate::rng::WorkloadRng;

/// Identifier of a DAG workload family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DagFamily {
    /// Random layered DAG, the generic synthetic application.
    LayeredRandom,
    /// Ordered Erdős–Rényi DAG, unstructured dependencies.
    Erdos,
    /// Repeated fork–join stages.
    ForkJoin,
    /// Gaussian-elimination task graph (natural costs).
    GaussianElimination,
    /// Blocked LU factorization task graph (natural costs).
    Lu,
    /// FFT butterfly task graph (natural costs).
    Fft,
    /// 2-D wavefront grid.
    Diamond,
}

impl DagFamily {
    /// Every family, in the order used by the experiment tables.
    pub fn all() -> [DagFamily; 7] {
        [
            DagFamily::LayeredRandom,
            DagFamily::Erdos,
            DagFamily::ForkJoin,
            DagFamily::GaussianElimination,
            DagFamily::Lu,
            DagFamily::Fft,
            DagFamily::Diamond,
        ]
    }

    /// A short label for experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            DagFamily::LayeredRandom => "layered",
            DagFamily::Erdos => "erdos",
            DagFamily::ForkJoin => "forkjoin",
            DagFamily::GaussianElimination => "gauss",
            DagFamily::Lu => "lu",
            DagFamily::Fft => "fft",
            DagFamily::Diamond => "diamond",
        }
    }
}

/// Draws a task whose processing time and storage follow the requested
/// distribution (ranges `[1, 100]`, matching the independent-task
/// experiments).
fn draw_task(distribution: TaskDistribution, rng: &mut WorkloadRng) -> Task {
    let p: f64 = rng.gen_range(1.0..100.0);
    match distribution {
        TaskDistribution::Uncorrelated => Task::new_unchecked(p, rng.gen_range(1.0..100.0)),
        TaskDistribution::Correlated => {
            Task::new_unchecked(p, (p * rng.gen_range(0.8..1.2)).max(0.5))
        }
        TaskDistribution::AntiCorrelated => {
            Task::new_unchecked(p, ((101.0 - p) * rng.gen_range(0.8..1.2)).max(0.5))
        }
        TaskDistribution::Bimodal => {
            let s = if rng.gen_bool(0.1) {
                rng.gen_range(100.0..400.0)
            } else {
                rng.gen_range(1.0..40.0)
            };
            Task::new_unchecked(p, s)
        }
    }
}

/// Generates a DAG instance of the given family sized to *approximately*
/// `target_n` tasks, with `m` processors. Structured families pick the
/// closest parameterization; random families hit `target_n` exactly.
pub fn dag_workload(
    family: DagFamily,
    target_n: usize,
    m: usize,
    distribution: TaskDistribution,
    rng: &mut WorkloadRng,
) -> DagInstance {
    let target_n = target_n.max(4);
    let costed = |g: TaskGraph, rng: &mut WorkloadRng| {
        g.with_costs(|_| draw_task(distribution, rng))
            .expect("drawn costs are finite and non-negative")
    };
    let graph = match family {
        DagFamily::LayeredRandom => {
            let layers = (target_n as f64).sqrt().round().max(2.0) as usize;
            costed(
                layered_random(target_n, layers.min(target_n), 0.2, rng),
                rng,
            )
        }
        DagFamily::Erdos => costed(
            layered_erdos(target_n, (4.0 / target_n as f64).min(0.5), rng),
            rng,
        ),
        DagFamily::ForkJoin => {
            let width = (target_n as f64).sqrt().round().max(2.0) as usize;
            let stages = (target_n / (width + 1)).max(1);
            costed(fork_join(stages, width), rng)
        }
        DagFamily::GaussianElimination => {
            // n(k) = (k-1) + k(k-1)/2 ~ k^2/2 -> k ~ sqrt(2 n).
            let k = ((2.0 * target_n as f64).sqrt().round() as usize).max(2);
            gaussian_elimination(k)
        }
        DagFamily::Lu => {
            // n(b) = Σ r^2 ~ b^3/3 -> b ~ (3n)^(1/3).
            let b = ((3.0 * target_n as f64).cbrt().round() as usize).max(1);
            lu_factorization(b)
        }
        DagFamily::Fft => {
            // n(L) = (L+1)·2^L; pick the smallest L reaching target_n.
            let mut levels = 1usize;
            while (levels + 1) * (1 << levels) < target_n && levels < 12 {
                levels += 1;
            }
            fft_butterfly(levels)
        }
        DagFamily::Diamond => {
            let side = (target_n as f64).sqrt().round().max(2.0) as usize;
            costed(diamond_grid(side, side), rng)
        }
    };
    DagInstance::new(graph, m).expect("generators produce acyclic graphs and m > 0")
}

/// A storage-heavy staged DAG of about `target_n` tasks on `m ≥ 2`
/// processors, the shape on which RLS∆'s `∆·LB` memory cap binds over a
/// wide ∆ range. Each stage holds `m − 1` long tasks that store little
/// (`p ∈ [50, 100)`, `s ∈ [1, 10)`) and `m / 2` short ones that store
/// much (`p ∈ [0.5, 1)`, `s ∈ [10, 20)`), all behind the previous
/// stage's join task. The long tasks take `m − 1` processors, so the
/// short ones pile onto the one left over until its memory rejects
/// them — and every rejection is a round a warm ∆-sweep resume may
/// have to replay from.
pub fn storage_heavy_staged(target_n: usize, m: usize, rng: &mut WorkloadRng) -> DagInstance {
    assert!(
        m >= 2,
        "the staged shape needs a processor beside the long tasks"
    );
    let width = m - 1 + m / 2;
    let stages = (target_n / (width + 1)).max(1);
    let mut tasks = Vec::with_capacity(stages * (width + 1));
    let mut edges = Vec::new();
    let mut join = None;
    for _ in 0..stages {
        let first = tasks.len();
        for j in 0..width {
            let (p, s) = if j < m - 1 {
                (rng.gen_range(50.0..100.0), rng.gen_range(1.0..10.0))
            } else {
                (rng.gen_range(0.5..1.0), rng.gen_range(10.0..20.0))
            };
            tasks.push(Task { p, s });
            edges.extend(join.map(|u| (u, first + j)));
            edges.push((first + j, first + width));
        }
        tasks.push(Task {
            p: rng.gen_range(1.0..2.0),
            s: rng.gen_range(1.0..10.0),
        });
        join = Some(first + width);
    }
    let tasks = sws_model::task::TaskSet::new(tasks).expect("finite positive costs");
    let graph = TaskGraph::from_edges(tasks, &edges).expect("stage edges run forward");
    DagInstance::new(graph, m).expect("an acyclic graph and m > 0")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;
    use sws_dag::analysis::structurally_sound;

    #[test]
    fn storage_heavy_staged_has_the_stage_shape() {
        let inst = storage_heavy_staged(100, 8, &mut seeded_rng(33));
        // Per stage: 7 long + 4 short tasks and one join.
        assert_eq!(inst.n(), 100 / 12 * 12);
        assert_eq!(inst.m(), 8);
        assert!(structurally_sound(inst.graph()));
        assert_eq!(inst.graph().sinks(), vec![inst.n() - 1]);
    }

    #[test]
    fn every_family_produces_a_valid_instance() {
        let mut rng = seeded_rng(31);
        for family in DagFamily::all() {
            let inst = dag_workload(family, 60, 4, TaskDistribution::Uncorrelated, &mut rng);
            assert!(inst.n() >= 4, "{} produced too few tasks", family.label());
            assert_eq!(inst.m(), 4);
            assert!(
                structurally_sound(inst.graph()),
                "{} unsound",
                family.label()
            );
            for i in 0..inst.n() {
                assert!(inst.tasks().get(i).p > 0.0);
                assert!(inst.tasks().get(i).s > 0.0);
            }
        }
    }

    #[test]
    fn random_families_hit_the_target_size_exactly() {
        let mut rng = seeded_rng(32);
        for family in [DagFamily::LayeredRandom, DagFamily::Erdos] {
            let inst = dag_workload(family, 77, 3, TaskDistribution::Correlated, &mut rng);
            assert_eq!(inst.n(), 77);
        }
    }

    #[test]
    fn structured_families_approximate_the_target_size() {
        let mut rng = seeded_rng(33);
        for family in [
            DagFamily::GaussianElimination,
            DagFamily::Lu,
            DagFamily::Fft,
        ] {
            let inst = dag_workload(family, 100, 4, TaskDistribution::Uncorrelated, &mut rng);
            assert!(inst.n() >= 30, "{}: n = {}", family.label(), inst.n());
            assert!(inst.n() <= 400, "{}: n = {}", family.label(), inst.n());
        }
    }

    #[test]
    fn generation_is_reproducible() {
        let a = dag_workload(
            DagFamily::LayeredRandom,
            50,
            4,
            TaskDistribution::Bimodal,
            &mut seeded_rng(7),
        );
        let b = dag_workload(
            DagFamily::LayeredRandom,
            50,
            4,
            TaskDistribution::Bimodal,
            &mut seeded_rng(7),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn labels_are_unique() {
        let labels: Vec<&str> = DagFamily::all().iter().map(|f| f.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }
}
