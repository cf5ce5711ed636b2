//! `sweep`: trade-off exploration, one Pareto front per operation.
//!
//! An operation builds an instance from its raw input and computes a
//! front over a dense ascending ∆ grid: `SweepEngine::with_workers(1)
//! .run_rls` on a DAG, or `SboEngine::new` plus `run_sbo` on independent
//! tasks. It is kernel-dominated with preparation amortised over the
//! grid, and it runs the kernel's `CheckpointedRun` cap-resume warm
//! start along every RLS∆ front. On the layered-random fronts the
//! `∆·LB` cap never binds, so each resume ends in a divergence scan; on
//! the storage-heavy fronts ([`gen::HEAVY_FRONTS`]) it binds, and the
//! resumes replay rounds.

use std::time::{Duration, Instant};

use sws_core::pareto_sweep::SweepEngine;
use sws_core::rls::{PriorityOrder, RlsEngine, RlsResult};
use sws_core::sbo::{sbo, InnerAlgorithm, SboConfig, SboEngine};
use sws_dag::DagInstance;
use sws_model::objectives::ObjectivePoint;
use sws_model::schedule::Assignment;
use sws_model::solve::BoundReport;
use sws_model::validate::validate_assignment;
use sws_model::Instance;
use sws_service::ServiceInstance;

use crate::check;
use crate::digest::Digest;
use crate::gen::{self, FrontSpec};
use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;

/// The timed operations are split into this many consecutive segments;
/// throughput and latencies are the median segment's.
const SEGMENTS: usize = 5;

/// Fronts in the pool; operations cycle through it.
pub const FRONTS: usize = 30;

enum Front {
    Rls(DagInstance, Vec<(f64, RlsResult)>),
    Sbo(Instance, Vec<(f64, Assignment)>),
}

impl Front {
    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        match self {
            Front::Rls(_, points) => {
                for (delta, r) in points {
                    d.float(*delta);
                    d.schedule(&r.schedule);
                    d.float(r.memory_cap);
                    for &marked in &r.marked {
                        d.word(u64::from(marked));
                    }
                }
            }
            Front::Sbo(_, points) => {
                for (delta, a) in points {
                    d.float(*delta);
                    d.assignment(a);
                }
            }
        }
        d.value()
    }

    /// Validates every point and returns its `(Cmax/LB, Mmax/LB)`.
    fn check(&self) -> Result<Vec<(f64, f64)>, String> {
        match self {
            Front::Rls(dag, points) => {
                let bounds = BoundReport::with_critical_path(
                    dag.tasks(),
                    dag.m(),
                    dag.critical_path_length(),
                );
                points
                    .iter()
                    .map(|(delta, r)| {
                        check::timed(
                            dag.tasks(),
                            dag.m(),
                            &r.schedule,
                            dag.graph().all_preds(),
                            Some(r.memory_cap),
                        )?;
                        if r.memory_cap != delta * dag.mmax_lower_bound() {
                            return Err(format!("∆ = {delta}: cap {} is not ∆·LB", r.memory_cap));
                        }
                        let point = r.objective(dag.tasks());
                        Ok((bounds.cmax_ratio(point.cmax), bounds.mmax_ratio(point.mmax)))
                    })
                    .collect()
            }
            Front::Sbo(inst, points) => {
                let bounds = BoundReport::identical(inst.tasks(), inst.m());
                points
                    .iter()
                    .map(|(delta, a)| {
                        validate_assignment(inst, a, None)
                            .map_err(|e| format!("∆ = {delta}: {e}"))?;
                        let point = ObjectivePoint::of_assignment(inst, a);
                        Ok((bounds.cmax_ratio(point.cmax), bounds.mmax_ratio(point.mmax)))
                    })
                    .collect()
            }
        }
    }

    /// Bit-identity against the reference: a fresh `RlsEngine` (cold
    /// run) per RLS∆ point, a one-shot `sbo` per SBO∆ point.
    fn matches_reference(&self) -> Result<(), String> {
        match self {
            Front::Rls(dag, points) => {
                for (delta, r) in points {
                    let fresh = RlsEngine::new(dag, PriorityOrder::Index)
                        .run(*delta)
                        .map_err(|e| e.to_string())?;
                    if fresh.schedule != r.schedule
                        || fresh.marked != r.marked
                        || fresh.memory_cap != r.memory_cap
                    {
                        return Err(format!(
                            "RLS∆ point ∆ = {delta} differs from a fresh RlsEngine"
                        ));
                    }
                }
            }
            Front::Sbo(inst, points) => {
                for (delta, a) in points {
                    let fresh = sbo(inst, &SboConfig::new(*delta, InnerAlgorithm::Lpt))
                        .map_err(|e| e.to_string())?;
                    if &fresh.assignment != a {
                        return Err(format!(
                            "SBO∆ point ∆ = {delta} differs from a one-shot sbo"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

pub struct Sweep {
    pool: Vec<FrontSpec>,
    /// Digest of each pool entry's first (checked) front.
    first: Vec<Option<u64>>,
    ratios: Vec<(f64, f64)>,
    input_digest: u64,
    compared: usize,
}

/// One front: build + sweep, under spans.
fn front(spec: &FrontSpec, tr: &mut Tracer) -> Result<Front, String> {
    let engine = SweepEngine::with_workers(1);
    let build = tr.enter(if spec.raw.is_dag() {
        "dag.build"
    } else {
        "model.build"
    });
    let inst = spec.raw.build();
    tr.exit(build);
    let inst = inst.map_err(|e| e.to_string())?;
    Ok(match inst {
        ServiceInstance::Dag(dag) => {
            let dag = std::sync::Arc::try_unwrap(dag).unwrap_or_else(|shared| (*shared).clone());
            let points = tr
                .time("sweep.run_rls", || {
                    engine.run_rls(&dag, PriorityOrder::Index, &spec.grid)
                })
                .map_err(|e| e.to_string())?;
            Front::Rls(dag, points)
        }
        ServiceInstance::Independent(inst) => {
            let inst = std::sync::Arc::try_unwrap(inst).unwrap_or_else(|shared| (*shared).clone());
            let points = {
                let sbo = tr
                    .time("sweep.sbo_engine", || {
                        SboEngine::new(&inst, InnerAlgorithm::Lpt)
                    })
                    .map_err(|e| e.to_string())?;
                tr.time("sweep.run_sbo", || engine.run_sbo(&sbo, &spec.grid))
                    .map_err(|e| e.to_string())?
            };
            Front::Sbo(inst, points)
        }
    })
}

impl Sweep {
    pub fn setup(seed: u64) -> Sweep {
        let pool = gen::fronts(seed, FRONTS);
        let mut d = Digest::default();
        for f in &pool {
            f.raw.digest_into(&mut d);
            d.floats(&f.grid);
        }
        Sweep {
            first: vec![None; pool.len()],
            pool,
            ratios: Vec::new(),
            input_digest: d.value(),
            compared: 0,
        }
    }

    /// Runs operation `k` (pool entry `k mod FRONTS`) and returns its
    /// time in µs; the answer is checked outside that time.
    fn step(&mut self, k: usize, tr: &mut Tracer, report: &mut Report) -> f64 {
        let idx = k % self.pool.len();
        tr.set_op(k as u64);
        let t = Instant::now();
        let root = tr.enter("sweep.front");
        let result = front(&self.pool[idx], tr);
        tr.exit(root);
        let us = t.elapsed().as_secs_f64() * 1e6;
        report.attempted += 1;
        match result {
            Ok(f) => self.check(idx, &f, report),
            Err(e) => report.fail(format!("front {idx}: {e}")),
        }
        us
    }

    fn check(&mut self, idx: usize, f: &Front, report: &mut Report) {
        let digest = f.digest();
        if let Some(first) = self.first[idx] {
            if first != digest {
                report.fail(format!("front {idx}: differs from its checked first front"));
            }
            return;
        }
        match f.check() {
            Ok(ratios) => self.ratios.extend(ratios),
            Err(e) => report.fail(format!("front {idx}: {e}")),
        }
        // Every pool entry's first front is compared point by point; the
        // later fronts of the entry must then equal it bit for bit.
        self.compared += 1;
        if let Err(e) = f.matches_reference() {
            report.fail(format!("front {idx}: {e}"));
        }
        self.first[idx] = Some(digest);
    }

    fn drive(&mut self, seconds: f64, tr: &mut Tracer, report: &mut Report) -> Vec<f64> {
        let stop = Instant::now() + Duration::from_secs_f64(seconds);
        let mut times = Vec::new();
        while Instant::now() < stop {
            times.push(self.step(times.len(), tr, report));
        }
        // Check every pool entry once, so the quality figures and the
        // digest cover the whole pool.
        let mut off = Tracer::new(false);
        for idx in 0..self.pool.len() {
            if self.first[idx].is_none() {
                self.step(idx, &mut off, report);
            }
        }
        times
    }

    fn answer_digest(&self) -> String {
        let mut d = Digest::default();
        for f in &self.first {
            d.word(f.unwrap_or(0));
        }
        d.hex()
    }
}

pub fn run(seed: u64, seconds: f64, setups: usize) -> Report {
    let mut report = Report::default();
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..setups.max(1) {
        drop(state.take());
        let t = Instant::now();
        let sweep = Sweep::setup(seed);
        // Warm-up: the smallest layered-random and SBO∆ fronts, so the
        // set-up does the same work on every seed; their answers are
        // checked when the timed loop meets them.
        let mut off = Tracer::new(false);
        for dag in [true, false] {
            let smallest = sweep
                .pool
                .iter()
                .filter(|f| !f.heavy && f.raw.is_dag() == dag)
                .min_by_key(|f| f.raw.p.len());
            if let Some(spec) = smallest {
                let _ = front(spec, &mut off);
            }
        }
        times.push(t.elapsed().as_secs_f64());
        state = Some(sweep);
    }
    let mut sweep = state.expect("at least one set-up");
    report.note("affinity", crate::affinity::pin_threads());
    let front_us = sweep.drive(seconds, &mut Tracer::new(false), &mut report);
    let (cmax, mmax): (Vec<f64>, Vec<f64>) = sweep.ratios.iter().copied().unzip();
    report.metric(
        "throughput_ops_s",
        stats::segment_median(&front_us, SEGMENTS, stats::rate_per_s),
        "ops/s",
    );
    report.metric(
        "latency_p50_us",
        stats::segment_median(&front_us, SEGMENTS, stats::median),
        "us",
    );
    report.metric(
        "latency_p99_us",
        stats::segment_median(&front_us, SEGMENTS, |s| stats::quantile(s, 0.99)),
        "us",
    );
    report.metric(
        "success_rate",
        1.0 - report.failed as f64 / report.attempted as f64,
        "ratio",
    );
    report.metric("cmax_over_lb_mean", stats::mean(&cmax), "ratio");
    report.metric("mmax_over_lb_mean", stats::mean(&mmax), "ratio");
    report.metric("setup_s", stats::median(&times), "s");
    report
        .digests
        .insert("sweep.input".into(), format!("{:016x}", sweep.input_digest));
    report
        .digests
        .insert("sweep.answers".into(), sweep.answer_digest());
    report.note("sweep.latency_samples", front_us.len());
    report.note("sweep.fronts_compared_with_reference", sweep.compared);
    report
}

/// Front throughput with the tracer on or off, for the trace overhead.
pub fn front_throughput(sweep: &mut Sweep, seconds: f64, traced: bool, report: &mut Report) -> f64 {
    let times = sweep.drive(seconds, &mut Tracer::new(traced), report);
    stats::rate_per_s(&times)
}

/// The traced sweep breakdown: each front once under spans, plus the
/// exact replay count of the RLS∆ fronts' warm chains.
pub fn traced(sweep: &mut Sweep, report: &mut Report, spans: &mut Vec<(String, Tracer)>) {
    let mut tr = Tracer::new(true);
    let mut points_of = std::collections::BTreeMap::new();
    for idx in 0..sweep.pool.len() {
        points_of.insert(idx as u64, sweep.pool[idx].grid.len() as f64);
        sweep.step(idx, &mut tr, report);
    }
    let per_point = |name: &str| -> Vec<f64> {
        tr.self_us_by_op(name)
            .into_iter()
            .map(|(op, us)| us / points_of[&op])
            .collect()
    };
    report.metric(
        "sweep.rls_point_us.p50",
        stats::median(&per_point("sweep.run_rls")),
        "us",
    );
    report.metric(
        "sweep.sbo_point_us.p50",
        stats::median(&per_point("sweep.run_sbo")),
        "us",
    );
    report.metric(
        "sweep.sbo_engine_us.p50",
        stats::median(&tr.self_us("sweep.sbo_engine")),
        "us",
    );

    // Replayed rounds along each RLS∆ chain, over rounds a cold run per
    // point would take, and the share of resumes that replay at all.
    let (mut replayed, mut cold) = (0u64, 0u64);
    let (mut resumes, mut replaying) = (0u64, 0u64);
    for spec in &sweep.pool {
        if let Ok(ServiceInstance::Dag(dag)) = spec.raw.build() {
            let mut engine = RlsEngine::new(&dag, PriorityOrder::Index);
            for (i, &delta) in spec.grid.iter().enumerate() {
                if engine.run(delta).is_err() {
                    report.fail("replay count: RLS∆ run failed");
                }
                let rounds = engine.replayed_rounds().unwrap_or(0) as u64;
                replayed += rounds;
                cold += dag.n() as u64;
                if i > 0 {
                    resumes += 1;
                    replaying += u64::from(rounds > 0);
                }
            }
        }
    }
    let share = replayed as f64 / cold.max(1) as f64;
    report.metric("sweep.replayed_rounds_share", share, "ratio");
    report.counter("sweep.replayed_rounds_share", share);
    let share = replaying as f64 / resumes.max(1) as f64;
    report.metric("sweep.replaying_resumes_share", share, "ratio");
    report.counter("sweep.replaying_resumes_share", share);
    spans.push(("sweep".into(), tr));
}
