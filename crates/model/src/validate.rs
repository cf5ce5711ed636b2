//! Feasibility checks for assignments and timed schedules.
//!
//! Every scheduling algorithm in the reproduction is checked through these
//! functions in unit, property and integration tests: completeness of the
//! assignment, non-overlap of tasks sharing a processor, precedence
//! feasibility and optional per-processor memory capacity.

use crate::error::ModelError;
use crate::instance::Instance;
use crate::numeric::{approx_ge, approx_le};
use crate::schedule::{Assignment, TimedSchedule};
use crate::task::TaskSet;

/// Abstraction over "the predecessor lists of `n` tasks", so the
/// precedence checks accept both the classic nested `&[Vec<usize>]`
/// shape and a borrowed CSR view ([`CsrPreds`]) without materializing
/// one from the other.
pub trait PredecessorLists {
    /// Number of tasks covered.
    fn len(&self) -> usize;

    /// Whether no tasks are covered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The predecessors of task `i`.
    fn preds_of(&self, i: usize) -> impl Iterator<Item = usize> + '_;
}

/// Nested lists: a slice, `Vec` or array of per-task predecessor lists.
impl<L: AsRef<[Vec<usize>]> + ?Sized> PredecessorLists for &L {
    #[inline]
    fn len(&self) -> usize {
        (*self).as_ref().len()
    }

    #[inline]
    fn preds_of(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        (*self).as_ref()[i].iter().copied()
    }
}

/// Borrowed CSR predecessor lists: `edges[offsets[i]..offsets[i+1]]` are
/// the predecessors of task `i`. This is the shape `sws_dag::CsrDag`
/// stores, re-declared here (the model crate sits below the DAG crate)
/// so validation can consume it directly.
#[derive(Debug, Clone, Copy)]
pub struct CsrPreds<'a> {
    offsets: &'a [u32],
    edges: &'a [u32],
}

impl<'a> CsrPreds<'a> {
    /// Wraps raw CSR arrays. `offsets` must hold `n + 1` monotonically
    /// non-decreasing entries ending at `edges.len()`.
    pub fn new(offsets: &'a [u32], edges: &'a [u32]) -> Self {
        assert!(
            !offsets.is_empty(),
            "CSR offsets need at least the closing sentinel"
        );
        assert_eq!(
            *offsets.last().unwrap() as usize,
            edges.len(),
            "CSR offsets must close over the edge array"
        );
        CsrPreds { offsets, edges }
    }

    /// Total number of predecessor entries (the graph's edge count).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }
}

impl PredecessorLists for CsrPreds<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn preds_of(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.edges[self.offsets[i] as usize..self.offsets[i + 1] as usize]
            .iter()
            .map(|&u| u as usize)
    }
}

/// Validates an assignment of independent tasks:
/// * every task is mapped to a processor `< m`,
/// * the assignment covers exactly the instance's tasks,
/// * if `memory_capacity` is given, no processor exceeds it.
pub fn validate_assignment(
    inst: &Instance,
    asg: &Assignment,
    memory_capacity: Option<f64>,
) -> Result<(), ModelError> {
    if asg.n() != inst.n() {
        return Err(ModelError::IncompleteAssignment {
            expected: inst.n(),
            got: asg.n(),
        });
    }
    if asg.m() != inst.m() {
        return Err(ModelError::ProcessorOutOfRange {
            task: 0,
            proc: asg.m().saturating_sub(1),
            m: inst.m(),
        });
    }
    if let Some(cap) = memory_capacity {
        check_memory(inst.tasks(), asg, cap)?;
    }
    Ok(())
}

/// Checks the per-processor memory capacity of an assignment.
pub fn check_memory(tasks: &TaskSet, asg: &Assignment, capacity: f64) -> Result<(), ModelError> {
    for (proc, used) in asg.memory(tasks).into_iter().enumerate() {
        if !approx_le(used, capacity) {
            return Err(ModelError::MemoryExceeded {
                proc,
                used,
                capacity,
            });
        }
    }
    Ok(())
}

/// Validates a timed schedule:
/// * covers exactly the instance's tasks,
/// * no two tasks overlap on the same processor,
/// * every precedence constraint `pred → succ` in `preds` is respected
///   (`σ(succ) ≥ σ(pred) + p_pred`),
/// * if `memory_capacity` is given, no processor's cumulative memory
///   exceeds it.
///
/// `preds` lists the predecessors of each task, as nested lists or a
/// borrowed CSR view (`sws_dag::CsrDag::pred_lists()`); pass empty
/// lists (or an empty slice) for independent tasks.
pub fn validate_timed<P: PredecessorLists>(
    tasks: &TaskSet,
    m: usize,
    sched: &TimedSchedule,
    preds: P,
    memory_capacity: Option<f64>,
) -> Result<(), ModelError> {
    validate_timed_preds(tasks, m, sched, preds, memory_capacity)
}

/// [`validate_timed`] under the name the CSR callers use (both accept
/// any [`PredecessorLists`] shape).
pub fn validate_timed_preds<P: PredecessorLists>(
    tasks: &TaskSet,
    m: usize,
    sched: &TimedSchedule,
    preds: P,
    memory_capacity: Option<f64>,
) -> Result<(), ModelError> {
    if sched.n() != tasks.len() {
        return Err(ModelError::IncompleteAssignment {
            expected: tasks.len(),
            got: sched.n(),
        });
    }
    if sched.m() != m {
        return Err(ModelError::ProcessorOutOfRange {
            task: 0,
            proc: sched.m().saturating_sub(1),
            m,
        });
    }
    check_no_overlap(tasks, sched)?;
    check_precedence_preds(tasks, sched, preds)?;
    if let Some(cap) = memory_capacity {
        check_memory(tasks, &sched.assignment(), cap)?;
    }
    Ok(())
}

/// Checks that no two tasks mapped to the same processor overlap in time.
pub fn check_no_overlap(tasks: &TaskSet, sched: &TimedSchedule) -> Result<(), ModelError> {
    for (proc, lane) in sched.timeline().into_iter().enumerate() {
        for window in lane.windows(2) {
            let (a, b) = (window[0], window[1]);
            let end_a = sched.start(a) + tasks.get(a).p;
            if !approx_le(end_a, sched.start(b)) {
                return Err(ModelError::Overlap {
                    proc,
                    first: a,
                    second: b,
                });
            }
        }
    }
    Ok(())
}

/// Checks that every task starts after all of its predecessors complete.
pub fn check_precedence(
    tasks: &TaskSet,
    sched: &TimedSchedule,
    preds: &[Vec<usize>],
) -> Result<(), ModelError> {
    check_precedence_preds(tasks, sched, preds)
}

/// [`check_precedence`] over any [`PredecessorLists`] shape.
pub fn check_precedence_preds<P: PredecessorLists>(
    tasks: &TaskSet,
    sched: &TimedSchedule,
    preds: P,
) -> Result<(), ModelError> {
    for task in 0..preds.len() {
        for pred in preds.preds_of(task) {
            let pred_end = sched.start(pred) + tasks.get(pred).p;
            if !approx_ge(sched.start(task), pred_end) {
                return Err(ModelError::PrecedenceViolation { pred, task });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst() -> Instance {
        Instance::from_ps(&[1.0, 2.0, 1.0], &[1.0, 1.0, 2.0], 2).unwrap()
    }

    #[test]
    fn assignment_must_cover_every_task() {
        let inst = inst();
        let asg = Assignment::new(vec![0, 1], 2).unwrap();
        let err = validate_assignment(&inst, &asg, None).unwrap_err();
        assert_eq!(
            err,
            ModelError::IncompleteAssignment {
                expected: 3,
                got: 2
            }
        );
    }

    #[test]
    fn assignment_processor_count_must_match_instance() {
        let inst = inst();
        let asg = Assignment::new(vec![0, 0, 0], 3).unwrap();
        assert!(validate_assignment(&inst, &asg, None).is_err());
    }

    #[test]
    fn memory_capacity_is_enforced() {
        let inst = inst();
        // Tasks 1 and 2 on processor 1: memory = 3.
        let asg = Assignment::new(vec![0, 1, 1], 2).unwrap();
        assert!(validate_assignment(&inst, &asg, Some(3.0)).is_ok());
        let err = validate_assignment(&inst, &asg, Some(2.5)).unwrap_err();
        match err {
            ModelError::MemoryExceeded { proc, .. } => assert_eq!(proc, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn overlap_on_a_processor_is_detected() {
        let inst = inst();
        // Tasks 0 and 1 both start at 0 on processor 0.
        let sched = TimedSchedule::new(vec![0, 0, 1], vec![0.0, 0.0, 0.0], 2).unwrap();
        let err =
            validate_timed(inst.tasks(), 2, &sched, &[vec![], vec![], vec![]], None).unwrap_err();
        match err {
            ModelError::Overlap { proc, .. } => assert_eq!(proc, 0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn back_to_back_execution_is_not_an_overlap() {
        let inst = inst();
        let sched = TimedSchedule::new(vec![0, 0, 1], vec![0.0, 1.0, 0.0], 2).unwrap();
        assert!(validate_timed(inst.tasks(), 2, &sched, &[vec![], vec![], vec![]], None).is_ok());
    }

    #[test]
    fn precedence_violations_are_detected() {
        let inst = inst();
        // Precedence 0 -> 1 but task 1 starts at 0.5 < C_0 = 1.
        let sched = TimedSchedule::new(vec![0, 1, 1], vec![0.0, 0.5, 2.5], 2).unwrap();
        let preds = vec![vec![], vec![0], vec![1]];
        let err = validate_timed(inst.tasks(), 2, &sched, &preds, None).unwrap_err();
        assert_eq!(err, ModelError::PrecedenceViolation { pred: 0, task: 1 });
    }

    #[test]
    fn respected_precedence_passes() {
        let inst = inst();
        let sched = TimedSchedule::new(vec![0, 1, 1], vec![0.0, 1.0, 3.0], 2).unwrap();
        let preds = vec![vec![], vec![0], vec![1]];
        assert!(validate_timed(inst.tasks(), 2, &sched, &preds, None).is_ok());
    }

    #[test]
    fn valid_assignment_with_capacity_passes() {
        let inst = inst();
        let asg = Assignment::new(vec![0, 1, 0], 2).unwrap();
        assert!(validate_assignment(&inst, &asg, Some(3.0)).is_ok());
    }

    #[test]
    fn csr_view_checks_precedence_like_nested_lists() {
        let inst = inst();
        // Precedence 0 -> 1, 1 -> 2 as CSR: offsets [0,0,1,2], edges [0,1].
        let offsets = [0u32, 0, 1, 2];
        let edges = [0u32, 1];
        let good = TimedSchedule::new(vec![0, 1, 1], vec![0.0, 1.0, 3.0], 2).unwrap();
        validate_timed_preds(
            inst.tasks(),
            2,
            &good,
            CsrPreds::new(&offsets, &edges),
            None,
        )
        .unwrap();
        let bad = TimedSchedule::new(vec![0, 1, 1], vec![0.0, 0.5, 2.5], 2).unwrap();
        let err =
            validate_timed_preds(inst.tasks(), 2, &bad, CsrPreds::new(&offsets, &edges), None)
                .unwrap_err();
        assert_eq!(err, ModelError::PrecedenceViolation { pred: 0, task: 1 });
        // The nested-list path reports exactly the same violation.
        let nested = vec![vec![], vec![0], vec![1]];
        assert_eq!(
            validate_timed(inst.tasks(), 2, &bad, &nested, None).unwrap_err(),
            err
        );
    }

    #[test]
    fn empty_instance_validates_trivially() {
        let inst = Instance::from_ps(&[], &[], 2).unwrap();
        let asg = Assignment::new(vec![], 2).unwrap();
        assert!(validate_assignment(&inst, &asg, Some(0.0)).is_ok());
        let sched = TimedSchedule::new(vec![], vec![], 2).unwrap();
        assert!(validate_timed(inst.tasks(), 2, &sched, &[], Some(0.0)).is_ok());
    }
}
