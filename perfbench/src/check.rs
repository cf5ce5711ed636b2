//! Output checks applied to every answer the benchmark receives.

use sws_model::numeric::approx_le;
use sws_model::objectives::ObjectivePoint;
use sws_model::schedule::TimedSchedule;
use sws_model::solve::{Guarantee, ObjectiveMode, Solution};
use sws_model::task::TaskSet;
use sws_model::validate::{validate_timed_preds, PredecessorLists};
use sws_service::ServiceInstance;

/// A served answer: feasible schedule (precedence, no overlap, every
/// task placed), objective values that match the schedule, the
/// guarantee the request was admitted at, a `ratio_bound` on every
/// `PaperRatio` answer, and `Mmax ≤ budget` for memory-budget requests.
pub fn served(
    inst: &ServiceInstance,
    objective: ObjectiveMode,
    effective: Guarantee,
    sol: &Solution,
) -> Result<(), String> {
    match inst {
        ServiceInstance::Dag(dag) => timed(
            dag.tasks(),
            dag.m(),
            &sol.schedule,
            dag.graph().all_preds(),
            None,
        )?,
        ServiceInstance::Independent(i) => {
            let no_preds = vec![Vec::new(); i.n()];
            timed(i.tasks(), i.m(), &sol.schedule, &no_preds, None)?
        }
    }
    let tasks = match inst {
        ServiceInstance::Dag(dag) => dag.tasks(),
        ServiceInstance::Independent(i) => i.tasks(),
    };
    point_matches(tasks, &sol.schedule, sol.point.cmax, sol.point.mmax)?;
    if !sol.achieved.satisfies(&effective) {
        return Err(format!(
            "achieved {} below the admitted {}",
            sol.achieved.label(),
            effective.label()
        ));
    }
    if sol.achieved == Guarantee::PaperRatio && sol.ratio_bound.is_none() {
        return Err("PaperRatio answer without a ratio_bound".into());
    }
    if let ObjectiveMode::MemoryBudget { budget } = objective {
        if !approx_le(sol.point.mmax, budget) {
            return Err(format!("Mmax {} over the budget {budget}", sol.point.mmax));
        }
    }
    Ok(())
}

/// `validate_timed_preds` with an optional per-processor memory cap.
pub fn timed<P: PredecessorLists>(
    tasks: &TaskSet,
    m: usize,
    sched: &TimedSchedule,
    preds: P,
    cap: Option<f64>,
) -> Result<(), String> {
    validate_timed_preds(tasks, m, sched, preds, cap).map_err(|e| format!("invalid schedule: {e}"))
}

/// The reported `(Cmax, Mmax)` equals the schedule's, up to the shared
/// float tolerance.
pub fn point_matches(
    tasks: &TaskSet,
    sched: &TimedSchedule,
    cmax: f64,
    mmax: f64,
) -> Result<(), String> {
    let actual = ObjectivePoint::of_timed_tasks(tasks, sched);
    let close = |a: f64, b: f64| approx_le(a, b) && approx_le(b, a);
    if close(actual.cmax, cmax) && close(actual.mmax, mmax) {
        Ok(())
    } else {
        Err(format!(
            "reported ({cmax}, {mmax}) but the schedule gives ({}, {})",
            actual.cmax, actual.mmax
        ))
    }
}
