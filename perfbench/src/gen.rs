//! Seeded input generation for the three workloads.
//!
//! Every input is generated here, at set-up, and handed to the program
//! only in *raw* form: task costs plus an edge list. Turning that into a
//! `TaskGraph`/`DagInstance` (or an `Instance`) happens inside the timed
//! operation ([`Raw::build`]), because every user of the service pays it.
//!
//! Sizes and request kinds are drawn by *stratified* sampling: each kind
//! has a fixed quota of the pool, and its sizes cover the log-uniform
//! size range one stratum per item, with the seed choosing the point
//! inside each stratum, the graph structure, the costs and the order.
//! Two seeds therefore give different inputs with the same mix, which is
//! what keeps figures from different seeds comparable.

use std::sync::Arc;

use rand::Rng;
use sws_dag::{CsrDelta, DagInstance, TaskGraph};
use sws_model::bounds::mmax_lower_bound;
use sws_model::error::ModelError;
use sws_model::solve::{Guarantee, ObjectiveMode};
use sws_model::task::TaskSet;
use sws_model::Instance;
use sws_service::ServiceInstance;
use sws_workloads::dagsets::{dag_workload, DagFamily};
use sws_workloads::random::random_instance;
use sws_workloads::rng::{derive_seed, seeded_rng, WorkloadRng};
use sws_workloads::{delta_stream, DeltaStreamConfig, TaskDistribution};

use crate::digest::Digest;

/// An instance as it arrives from a client: costs and edges, nothing
/// derived.
#[derive(Debug, Clone)]
pub struct Raw {
    pub p: Vec<f64>,
    pub s: Vec<f64>,
    /// Precedence edges `u → v`; `None` for an independent-task instance.
    pub edges: Option<Vec<(usize, usize)>>,
    pub m: usize,
}

impl Raw {
    fn of_dag(dag: &DagInstance) -> Raw {
        let (p, s) = split_costs(dag.tasks());
        Raw {
            p,
            s,
            edges: Some(dag.graph().edges().collect()),
            m: dag.m(),
        }
    }

    fn of_instance(inst: &Instance) -> Raw {
        let (p, s) = split_costs(inst.tasks());
        Raw {
            p,
            s,
            edges: None,
            m: inst.m(),
        }
    }

    pub fn is_dag(&self) -> bool {
        self.edges.is_some()
    }

    /// The Graham memory lower bound `max(max s, Σs/m)` of the raw costs.
    pub fn memory_lb(&self) -> f64 {
        let tasks = TaskSet::from_ps(&self.p, &self.s).expect("generated costs are valid");
        mmax_lower_bound(&tasks, self.m)
    }

    /// Builds the program's instance from the raw input: `TaskSet`, then
    /// `TaskGraph::from_edges` + `DagInstance::new` for a DAG, or
    /// `Instance::new` for independent tasks.
    pub fn build(&self) -> Result<ServiceInstance, ModelError> {
        let tasks = TaskSet::from_ps(&self.p, &self.s)?;
        Ok(match &self.edges {
            Some(edges) => {
                let graph = TaskGraph::from_edges(tasks, edges)?;
                ServiceInstance::Dag(Arc::new(DagInstance::new(graph, self.m)?))
            }
            None => ServiceInstance::Independent(Arc::new(Instance::new(tasks, self.m)?)),
        })
    }

    pub fn digest_into(&self, d: &mut Digest) {
        d.word(self.m as u64);
        d.floats(&self.p);
        d.floats(&self.s);
        if let Some(edges) = &self.edges {
            for &(u, v) in edges {
                d.word(((u as u64) << 32) | v as u64);
            }
        }
    }
}

/// Whether item `item` belongs to the seeded bit-identity sample (one
/// item in [`SAMPLE_EVERY`]).
pub fn sampled(seed: u64, item: u64) -> bool {
    derive_seed(seed ^ 0x5a5a, item).is_multiple_of(SAMPLE_EVERY)
}

/// One item in this many is compared against a direct reference call.
pub const SAMPLE_EVERY: u64 = 16;

fn split_costs(tasks: &TaskSet) -> (Vec<f64>, Vec<f64>) {
    tasks.as_slice().iter().map(|t| (t.p, t.s)).unzip()
}

/// `count` sizes covering `[lo, hi]` log-uniformly, one stratum each,
/// returned in stratum order (ascending).
fn stratified_sizes(count: usize, lo: f64, hi: f64, rng: &mut WorkloadRng) -> Vec<usize> {
    let (a, b) = (lo.ln(), hi.ln());
    (0..count)
        .map(|j| {
            let u = (j as f64 + rng.gen_range(0.0..1.0)) / count as f64;
            (a + u * (b - a)).exp().round() as usize
        })
        .collect()
}

/// Splits `total` items by the given shares (largest-remainder free:
/// rounding down, the remainder going to the first share).
fn quotas(total: usize, shares: &[f64]) -> Vec<usize> {
    let mut counts: Vec<usize> = shares
        .iter()
        .map(|s| (s * total as f64).floor() as usize)
        .collect();
    let assigned: usize = counts.iter().sum();
    counts[0] += total - assigned;
    counts
}

fn shuffle<T>(items: &mut [T], rng: &mut WorkloadRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

/// What a serve request asks for; the portfolio decides the backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `BiObjective{∆=3}` at `PaperRatio` on a DAG — kernel RLS∆.
    Rls,
    /// `BiObjective{∆=3}` at `PaperRatio` on independent tasks — SBO∆.
    Sbo,
    /// `CmaxOnly` at `PaperRatio` on independent tasks — LPT.
    Cmax,
    /// `TriObjective{∆=3}` at `PaperRatio` on independent tasks.
    Tri,
    /// `MemoryBudget{3·LB}` at `PaperRatio` on a DAG — constrained search.
    Budget,
    /// `BiObjective` on a tiny instance (`m^n ≤ 2^12`) — exact enumeration.
    Tiny,
    /// `CmaxOnly` demanding `Exact` from the degrading tenant, over its
    /// work gate — served degraded, at `PaperRatio`.
    ExactDemand,
}

impl Kind {
    /// Shares of the serve pool, in the order of [`Kind::ALL`].
    const SHARES: [f64; 7] = [0.54, 0.10, 0.08, 0.06, 0.10, 0.08, 0.04];
    pub const ALL: [Kind; 7] = [
        Kind::Rls,
        Kind::Sbo,
        Kind::Cmax,
        Kind::Tri,
        Kind::Budget,
        Kind::Tiny,
        Kind::ExactDemand,
    ];
}

/// DAG families of the serve mix (the layered-random, LU, fork-join and
/// FFT shapes of `sws_workloads::dagsets`).
const SERVE_FAMILIES: [DagFamily; 4] = [
    DagFamily::LayeredRandom,
    DagFamily::Lu,
    DagFamily::ForkJoin,
    DagFamily::Fft,
];

/// Smallest and largest serve instance size (log-uniform in between).
pub const SERVE_N: (f64, f64) = (16.0, 2500.0);
/// Processors of every serve instance except the tiny exact ones.
pub const SERVE_M: usize = 8;
/// The trade-off parameter of bi- and tri-objective serve requests.
pub const SERVE_DELTA: f64 = 3.0;

/// Tenants: id, DRR weight. `silver` degrades requests over its gate,
/// `bronze` is refused over its (lower) gate.
pub const TENANTS: [(&str, u32); 3] = [("gold", 4), ("silver", 2), ("bronze", 1)];
/// Work gate of `silver`: above every regular request, below every
/// `ExactDemand` branch-and-bound estimate (`4^14` and up).
pub const SILVER_GATE: f64 = 5.0e6;
/// Work gate of `bronze`: refuses its large requests — a fixed,
/// seed-determined share of the pool.
pub const BRONZE_GATE: f64 = 60_000.0;

#[derive(Debug, Clone)]
pub struct ServeRequest {
    pub kind: Kind,
    pub tenant: &'static str,
    pub raw: Raw,
    pub objective: ObjectiveMode,
    pub guarantee: Guarantee,
}

/// The serve pool: `size` requests with fixed kind quotas, shuffled.
pub fn serve_pool(seed: u64, size: usize) -> Vec<ServeRequest> {
    let mut rng = seeded_rng(derive_seed(seed, 1));
    let mut pool = Vec::with_capacity(size);
    for (&kind, count) in Kind::ALL.iter().zip(quotas(size, &Kind::SHARES)) {
        let sizes = match kind {
            Kind::Tiny => (0..count).map(|j| 6 + j % 7).collect(),
            Kind::ExactDemand => (0..count).map(|j| 14 + j % 5).collect(),
            _ => stratified_sizes(count, SERVE_N.0, SERVE_N.1, &mut rng),
        };
        for (j, n) in sizes.into_iter().enumerate() {
            pool.push(serve_request(kind, j, n, &mut rng));
        }
    }
    shuffle(&mut pool, &mut rng);
    pool
}

fn serve_request(kind: Kind, j: usize, n: usize, rng: &mut WorkloadRng) -> ServeRequest {
    let tenant = match (kind, j % 10) {
        (Kind::ExactDemand, _) => "silver",
        (_, 0..=4) => "gold",
        (_, 5..=7) => "silver",
        _ => "bronze",
    };
    let independent = |m: usize, rng: &mut WorkloadRng| {
        Raw::of_instance(&random_instance(
            n,
            m,
            TaskDistribution::AntiCorrelated,
            rng,
        ))
    };
    let dag = |family: DagFamily, rng: &mut WorkloadRng| {
        Raw::of_dag(&dag_workload(
            family,
            n,
            SERVE_M,
            TaskDistribution::Uncorrelated,
            rng,
        ))
    };
    let family = SERVE_FAMILIES[j % SERVE_FAMILIES.len()];
    let bi = ObjectiveMode::BiObjective { delta: SERVE_DELTA };
    let (raw, objective, guarantee) = match kind {
        Kind::Rls => (dag(family, rng), bi, Guarantee::PaperRatio),
        Kind::Sbo => (independent(SERVE_M, rng), bi, Guarantee::PaperRatio),
        Kind::Cmax => (
            independent(SERVE_M, rng),
            ObjectiveMode::CmaxOnly,
            Guarantee::PaperRatio,
        ),
        Kind::Tri => (
            independent(SERVE_M, rng),
            ObjectiveMode::TriObjective { delta: SERVE_DELTA },
            Guarantee::PaperRatio,
        ),
        Kind::Budget => {
            let raw = dag(family, rng);
            let budget = SERVE_DELTA * raw.memory_lb();
            (
                raw,
                ObjectiveMode::MemoryBudget { budget },
                Guarantee::PaperRatio,
            )
        }
        Kind::Tiny => (independent(2, rng), bi, Guarantee::PaperRatio),
        Kind::ExactDemand => (
            independent(4, rng),
            ObjectiveMode::CmaxOnly,
            Guarantee::Exact,
        ),
    };
    ServeRequest {
        kind,
        tenant,
        raw,
        objective,
        guarantee,
    }
}

// ---------------------------------------------------------------------------
// session
// ---------------------------------------------------------------------------

/// Processors of every session.
pub const SESSION_M: usize = 8;
/// Session sizes (log-uniform between the two, one stratum per session).
pub const SESSION_N: (f64, f64) = (1000.0, 2500.0);
/// Capped sessions enforce `SESSION_DELTA · LB` per processor.
pub const SESSION_DELTA: f64 = 3.0;

#[derive(Debug, Clone)]
pub struct SessionSpec {
    pub raw: Raw,
    pub cap: Option<f64>,
    pub deltas: Vec<CsrDelta>,
}

/// `count` sessions over layered-random DAGs, alternately uncapped and
/// capped, each with a `DeltaStreamConfig::mixed()` stream of `events`
/// deltas.
pub fn sessions(seed: u64, count: usize, events: usize) -> Vec<SessionSpec> {
    let mut rng = seeded_rng(derive_seed(seed, 2));
    let sizes = stratified_sizes(count, SESSION_N.0, SESSION_N.1, &mut rng);
    sizes
        .into_iter()
        .enumerate()
        .map(|(k, n)| {
            let dag = dag_workload(
                DagFamily::LayeredRandom,
                n,
                SESSION_M,
                TaskDistribution::Uncorrelated,
                &mut rng,
            );
            let raw = Raw::of_dag(&dag);
            let cap = (k % 2 == 1).then(|| SESSION_DELTA * raw.memory_lb());
            let deltas = delta_stream(dag.n(), events, &DeltaStreamConfig::mixed(), &mut rng);
            SessionSpec { raw, cap, deltas }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// sweep
// ---------------------------------------------------------------------------

/// Sweep instance sizes (log-uniform).
pub const SWEEP_N: (f64, f64) = (1000.0, 5000.0);
/// Processor counts of sweep instances, cycled over the strata.
pub const SWEEP_M: [usize; 3] = [8, 16, 32];
/// Points of every front's ascending ∆ grid.
pub const SWEEP_POINTS: usize = 32;
/// RLS∆ grid range (RLS needs ∆ > 2).
pub const RLS_GRID: (f64, f64) = (2.01, 6.0);
/// SBO∆ grid range.
pub const SBO_GRID: (f64, f64) = (0.25, 8.0);
/// One front in this many is an SBO∆ front; the rest are RLS∆ fronts.
/// Unequal shares keep the latency median inside one of the two modes.
pub const SBO_EVERY: usize = 3;
/// `(n, m)` of the storage-heavy RLS∆ fronts (see [`staged`]), a fixed
/// part of every pool. Their sizes are fixed, not drawn, because they
/// take most of the sweep's time.
pub const HEAVY_FRONTS: [(usize, usize); 4] = [(1000, 8), (1400, 16), (2000, 8), (2800, 16)];

#[derive(Debug, Clone)]
pub struct FrontSpec {
    pub raw: Raw,
    pub grid: Arc<Vec<f64>>,
    /// One of the storage-heavy fronts.
    pub heavy: bool,
}

/// A storage-heavy DAG of about `n` tasks on `m` processors, in stages:
/// each stage holds `m − 1` long tasks with little storage and `m / 2`
/// short tasks with much storage, all after the previous stage's join
/// task, and ends in its own join. List scheduling piles a stage's short
/// tasks onto the one processor no long task holds, so without a cap
/// that processor's storage grows to several times the lower bound: the
/// `∆·LB` cap of RLS∆ binds along most of the grid, and most resumes of
/// the warm chain replay rounds.
pub fn staged(n: usize, m: usize, rng: &mut WorkloadRng) -> Raw {
    let shorts = m / 2;
    let stages = (n / (m + shorts)).max(1);
    let (mut p, mut s, mut edges) = (Vec::new(), Vec::new(), Vec::new());
    let mut join = None;
    for _ in 0..stages {
        let first = p.len();
        for j in 0..m - 1 + shorts {
            let (pj, sj) = if j < m - 1 {
                (rng.gen_range(50.0..100.0), rng.gen_range(1.0..10.0))
            } else {
                (rng.gen_range(0.5..1.0), rng.gen_range(10.0..20.0))
            };
            p.push(pj);
            s.push(sj);
        }
        let next = p.len();
        p.push(rng.gen_range(1.0..2.0));
        s.push(rng.gen_range(1.0..10.0));
        for t in first..next {
            if let Some(prev) = join {
                edges.push((prev, t));
            }
            edges.push((t, next));
        }
        join = Some(next);
    }
    Raw {
        p,
        s,
        edges: Some(edges),
        m,
    }
}

/// The sweep pool: `size` fronts, one in [`SBO_EVERY`] over independent
/// tasks (SBO∆), the rest over DAGs (RLS∆) — [`HEAVY_FRONTS`] of them
/// storage-heavy, the others layered-random — shuffled.
pub fn fronts(seed: u64, size: usize) -> Vec<FrontSpec> {
    let mut rng = seeded_rng(derive_seed(seed, 3));
    let rls_grid = Arc::new(
        sws_core::pareto_sweep::delta_grid(RLS_GRID.0, RLS_GRID.1, SWEEP_POINTS)
            .expect("valid grid"),
    );
    let sbo_grid = Arc::new(
        sws_core::pareto_sweep::delta_grid(SBO_GRID.0, SBO_GRID.1, SWEEP_POINTS)
            .expect("valid grid"),
    );
    let sbo_count = size / SBO_EVERY;
    let mut pool: Vec<FrontSpec> = HEAVY_FRONTS
        .iter()
        .map(|&(n, m)| FrontSpec {
            raw: staged(n, m, &mut rng),
            grid: Arc::clone(&rls_grid),
            heavy: true,
        })
        .collect();
    let light = size - sbo_count - HEAVY_FRONTS.len();
    for (count, sbo) in [(light, false), (sbo_count, true)] {
        let sizes = stratified_sizes(count, SWEEP_N.0, SWEEP_N.1, &mut rng);
        for (j, n) in sizes.into_iter().enumerate() {
            let m = SWEEP_M[j % SWEEP_M.len()];
            pool.push(if sbo {
                FrontSpec {
                    raw: Raw::of_instance(&random_instance(
                        n,
                        m,
                        TaskDistribution::AntiCorrelated,
                        &mut rng,
                    )),
                    grid: Arc::clone(&sbo_grid),
                    heavy: false,
                }
            } else {
                FrontSpec {
                    raw: Raw::of_dag(&dag_workload(
                        DagFamily::LayeredRandom,
                        n,
                        m,
                        TaskDistribution::Uncorrelated,
                        &mut rng,
                    )),
                    grid: Arc::clone(&rls_grid),
                    heavy: false,
                }
            });
        }
    }
    shuffle(&mut pool, &mut rng);
    pool
}
