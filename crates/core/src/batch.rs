//! Batched multi-instance scheduling — the serving-scale entry point.
//!
//! The paper's experiments (and any deployment of these schedulers as a
//! service) are throughput workloads: *many instances*, each scheduled
//! once or a few times, where the metric that matters is schedules per
//! second, not the latency of one run. [`BatchScheduler`] is the
//! allocation-free kernel core packaged for that shape:
//!
//! * the instance stream is split into contiguous chunks, one per rayon
//!   worker, preserving input order in the output;
//! * each worker owns **one** [`KernelWorkspace`] and one reusable
//!   admissibility predicate, so in steady state a scheduled instance
//!   costs exactly its CSR flattening + rank computation (both
//!   per-instance by nature) and the kernel's `O((n + E)·log n)` loop —
//!   zero per-run buffer allocation;
//! * results are **bit-identical** to the one-shot entry points
//!   ([`crate::rls::rls`] / `sws_listsched::dag_list_schedule`), which
//!   the differential suite checks instance for instance.
//!
//! [`BatchScheduler::run_many`] returns the raw kernel outcomes;
//! [`BatchScheduler::run_many_report`] additionally wraps them in a
//! [`BatchReport`] with the wall-clock and the achieved schedules/sec —
//! the number the committed `BENCH_batch.json` baseline tracks.

use std::time::{Duration, Instant};

use sws_dag::DagInstance;
use sws_listsched::kernel::{
    event_driven_schedule_csr, KernelOutcome, KernelWorkspace, MemoryCapAdmission, Unrestricted,
};
use sws_model::error::ModelError;
use sws_model::numeric::exceeds;
use sws_model::solve::{Solution, SolveRequest};

use crate::dispatch::DispatchWorker;
use crate::pareto_sweep::run_chunks;
use crate::portfolio::Portfolio;
use crate::rls::PriorityOrder;

/// Which scheduler a batch runs on every instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchAlgorithm {
    /// Unrestricted Graham DAG list scheduling.
    DagList,
    /// The paper's RLS∆ with the given memory degradation factor
    /// (`∆ > 2`); the cap is `∆·LB` per instance.
    Rls {
        /// The memory degradation factor `∆ > 2`.
        delta: f64,
    },
}

/// Configuration shared by every instance of a batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchSpec {
    /// The scheduler to run.
    pub algorithm: BatchAlgorithm,
    /// Tie-breaking priority order (ranks are derived per instance).
    pub order: PriorityOrder,
}

impl BatchSpec {
    /// Unrestricted DAG list scheduling with the given order.
    pub fn dag_list(order: PriorityOrder) -> Self {
        BatchSpec {
            algorithm: BatchAlgorithm::DagList,
            order,
        }
    }

    /// RLS∆ at `delta` with the given order.
    pub fn rls(delta: f64, order: PriorityOrder) -> Self {
        BatchSpec {
            algorithm: BatchAlgorithm::Rls { delta },
            order,
        }
    }
}

/// A completed batch: the per-instance outcomes (input order) plus the
/// observed throughput.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One kernel outcome per input instance, in input order.
    pub outcomes: Vec<KernelOutcome>,
    /// Wall-clock time of the scheduling pass (excludes input
    /// construction, includes per-instance CSR/rank preparation).
    pub elapsed: Duration,
    /// `outcomes.len() / elapsed` in schedules per second (`0` for an
    /// empty batch).
    pub schedules_per_sec: f64,
}

/// Schedules a stream of instances across the rayon pool with one
/// reusable [`KernelWorkspace`] per worker. See the module docs.
#[derive(Debug, Clone, Copy)]
pub struct BatchScheduler {
    workers: usize,
}

impl Default for BatchScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchScheduler {
    /// One chunk per rayon worker thread.
    pub fn new() -> Self {
        Self::with_workers(rayon::current_num_threads().max(1))
    }

    /// Explicit worker/chunk count (≥ 1); the produced outcomes do not
    /// depend on it, only the wall-clock does.
    pub fn with_workers(workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        BatchScheduler { workers }
    }

    /// Schedules every instance under `spec`, returning one
    /// [`KernelOutcome`] per instance in input order. Bit-identical to
    /// running the one-shot scheduler on each instance separately.
    pub fn run_many(
        &self,
        instances: &[DagInstance],
        spec: &BatchSpec,
    ) -> Result<Vec<KernelOutcome>, ModelError> {
        self.run_many_report(instances, spec).map(|r| r.outcomes)
    }

    /// [`BatchScheduler::run_many`] plus wall-clock and schedules/sec.
    pub fn run_many_report(
        &self,
        instances: &[DagInstance],
        spec: &BatchSpec,
    ) -> Result<BatchReport, ModelError> {
        if let BatchAlgorithm::Rls { delta } = spec.algorithm {
            // Same validation as crate::rls — shared so the accepted
            // range cannot drift from the one-shot entry point's.
            crate::rls::validate_rls_delta(delta)?;
        }
        let spec = *spec;
        let t0 = Instant::now();
        let run_chunk = |chunk: Vec<&DagInstance>| -> Result<Vec<KernelOutcome>, ModelError> {
            // One workspace and one admission predicate per worker,
            // reused across every instance of the chunk.
            let mut ws = KernelWorkspace::new();
            let mut admission = MemoryCapAdmission::new(1, f64::INFINITY);
            chunk
                .into_iter()
                .map(|inst| run_one(inst, &spec, &mut ws, &mut admission))
                .collect()
        };
        let outcomes: Vec<KernelOutcome> = run_chunks(self.chunked(instances), run_chunk)?;
        let elapsed = t0.elapsed();
        let secs = elapsed.as_secs_f64();
        let schedules_per_sec = if exceeds(secs, 0.0) && !outcomes.is_empty() {
            outcomes.len() as f64 / secs
        } else {
            0.0
        };
        Ok(BatchReport {
            outcomes,
            elapsed,
            schedules_per_sec,
        })
    }

    /// Contiguous chunks of the instance stream, one per worker.
    fn chunked<'i>(&self, instances: &'i [DagInstance]) -> Vec<Vec<&'i DagInstance>> {
        if instances.is_empty() {
            return Vec::new();
        }
        let chunk_len = instances.len().div_ceil(self.workers);
        instances
            .chunks(chunk_len)
            .map(|c| c.iter().collect())
            .collect()
    }

    /// Serves a **mixed-guarantee request stream** through the portfolio:
    /// each [`SolveRequest`] names its own instance, objective mode and
    /// required guarantee, so backend selection happens *per item* —
    /// exact for the tiny instances in the stream, kernel RLS∆ for the
    /// big ones, a refusal (`Err` in that slot) where nothing qualifies.
    /// The stream is split into contiguous chunks exactly like
    /// [`BatchScheduler::run_many`]; each chunk is served by one
    /// [`DispatchWorker`] (the per-worker selection + workspace routine
    /// shared with the `sws_service` queue runtime), so the batch and
    /// service paths cannot drift; results come back in input order.
    ///
    /// Kernel-backed items are bit-identical to calling the one-shot
    /// entry points (`rls`, `tri_objective_rls`, …) on each instance
    /// separately — the same guarantee `run_many` gives, extended to the
    /// portfolio vocabulary.
    pub fn run_requests(
        &self,
        portfolio: &Portfolio,
        items: &[SolveRequest<'_>],
    ) -> Result<Vec<Result<Solution, ModelError>>, ModelError> {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let chunk_len = items.len().div_ceil(self.workers);
        let chunks: Vec<&[SolveRequest]> = items.chunks(chunk_len).collect();
        let run_chunk =
            |chunk: &[SolveRequest]| -> Result<Vec<Result<Solution, ModelError>>, ModelError> {
                let mut worker = DispatchWorker::new(portfolio);
                Ok(chunk.iter().map(|req| worker.solve(req)).collect())
            };
        run_chunks(chunks, run_chunk)
    }
}

/// Schedules one instance through the worker's reusable buffers.
fn run_one(
    inst: &DagInstance,
    spec: &BatchSpec,
    ws: &mut KernelWorkspace,
    admission: &mut MemoryCapAdmission,
) -> Result<KernelOutcome, ModelError> {
    // Per-instance by nature: the priority ranks (the flat form is the
    // instance's own).
    let csr = inst.shared_csr();
    let rank = spec.order.rank_csr(inst.graph(), csr);
    let m = inst.m();
    match spec.algorithm {
        BatchAlgorithm::DagList => event_driven_schedule_csr(csr, m, &rank, &mut Unrestricted, ws),
        BatchAlgorithm::Rls { delta } => {
            let lb = inst.mmax_lower_bound();
            admission.reset(m, delta * lb);
            event_driven_schedule_csr(csr, m, &rank, admission, ws)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rls::{rls, RlsConfig};
    use sws_listsched::dag_list_schedule;
    use sws_workloads::dagsets::{dag_workload, DagFamily};
    use sws_workloads::rng::seeded_rng;
    use sws_workloads::TaskDistribution;

    fn mixed_instances() -> Vec<DagInstance> {
        let mut rng = seeded_rng(71);
        let mut out = Vec::new();
        for (family, n, m) in [
            (DagFamily::LayeredRandom, 60usize, 4usize),
            (DagFamily::ForkJoin, 25, 2),
            (DagFamily::GaussianElimination, 45, 8),
            (DagFamily::Diamond, 36, 3),
            (DagFamily::Fft, 24, 5),
        ] {
            out.push(dag_workload(
                family,
                n,
                m,
                TaskDistribution::AntiCorrelated,
                &mut rng,
            ));
        }
        out
    }

    #[test]
    fn batch_rls_matches_per_instance_runs_bit_for_bit() {
        let instances = mixed_instances();
        let spec = BatchSpec::rls(3.0, PriorityOrder::Index);
        for workers in [1usize, 2, instances.len() + 3] {
            let outcomes = BatchScheduler::with_workers(workers)
                .run_many(&instances, &spec)
                .unwrap();
            assert_eq!(outcomes.len(), instances.len());
            for (inst, out) in instances.iter().zip(&outcomes) {
                let direct = rls(inst, &RlsConfig::new(3.0)).unwrap();
                assert_eq!(out.schedule, direct.schedule, "workers={workers}");
                assert_eq!(out.marked, direct.marked, "workers={workers}");
            }
        }
    }

    #[test]
    fn batch_dag_list_matches_per_instance_runs_bit_for_bit() {
        let instances = mixed_instances();
        let spec = BatchSpec::dag_list(PriorityOrder::BottomLevel);
        let outcomes = BatchScheduler::new().run_many(&instances, &spec).unwrap();
        for (inst, out) in instances.iter().zip(&outcomes) {
            let rank = PriorityOrder::BottomLevel.rank(inst.graph());
            assert_eq!(out.schedule, dag_list_schedule(inst, &rank));
        }
    }

    #[test]
    fn batch_report_counts_throughput() {
        let instances = mixed_instances();
        let report = BatchScheduler::new()
            .run_many_report(&instances, &BatchSpec::rls(4.0, PriorityOrder::Spt))
            .unwrap();
        assert_eq!(report.outcomes.len(), instances.len());
        assert!(report.schedules_per_sec > 0.0);
    }

    #[test]
    fn mixed_guarantee_request_stream_selects_per_item() {
        use sws_dag::TaskGraph;
        use sws_model::solve::{BackendId, Guarantee, ObjectiveMode};
        use sws_model::validate::validate_timed;

        let portfolio = Portfolio::standard();
        let mut instances = mixed_instances();
        // A tiny edge-free instance: per-item selection must route it to
        // the exact enumerator even inside a kernel-dominated stream.
        let tiny = DagInstance::new(
            TaskGraph::new(
                sws_model::task::TaskSet::from_ps(
                    &[3.0, 1.0, 4.0, 1.0, 5.0],
                    &[2.0, 7.0, 1.0, 8.0, 2.0],
                )
                .unwrap(),
            ),
            2,
        )
        .unwrap();
        instances.push(tiny);

        let mut items: Vec<SolveRequest> = instances
            .iter()
            .map(|inst| SolveRequest::precedence(inst, ObjectiveMode::BiObjective { delta: 3.0 }))
            .collect();
        // One item demands the impossible: an exact answer on a real DAG.
        items[1] = items[1].with_guarantee(Guarantee::Exact);

        for workers in [1usize, 3] {
            let results = BatchScheduler::with_workers(workers)
                .run_requests(&portfolio, &items)
                .unwrap();
            assert_eq!(results.len(), items.len());

            // Kernel-served DAG items are bit-identical to one-shot rls().
            for (idx, (inst, result)) in instances.iter().zip(&results).enumerate() {
                if idx == 1 {
                    assert!(
                        matches!(
                            result,
                            Err(sws_model::ModelError::NoQualifiedBackend { .. })
                        ),
                        "workers={workers}: exact demand on a DAG must be refused"
                    );
                    continue;
                }
                let solution = result.as_ref().unwrap();
                validate_timed(
                    inst.tasks(),
                    inst.m(),
                    &solution.schedule,
                    inst.graph().all_preds(),
                    None,
                )
                .unwrap();
                if idx + 1 == instances.len() {
                    // The tiny edge-free instance went to the enumerator.
                    assert_eq!(solution.stats.backend, BackendId::ExactParetoEnum);
                } else {
                    assert_eq!(solution.stats.backend, BackendId::KernelRls);
                    let direct = rls(inst, &RlsConfig::new(3.0)).unwrap();
                    assert_eq!(solution.schedule, direct.schedule, "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn batch_rejects_invalid_delta_and_handles_empty_input() {
        let instances = mixed_instances();
        for bad in [2.0, 0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(BatchScheduler::new()
                .run_many(&instances, &BatchSpec::rls(bad, PriorityOrder::Index))
                .is_err());
        }
        let empty: Vec<DagInstance> = Vec::new();
        let report = BatchScheduler::new()
            .run_many_report(&empty, &BatchSpec::dag_list(PriorityOrder::Index))
            .unwrap();
        assert!(report.outcomes.is_empty());
        assert_eq!(report.schedules_per_sec, 0.0);
    }
}
