//! Objective evaluation: `Cmax`, `Mmax` and `ΣC_i`.

use crate::instance::Instance;
use crate::numeric::{approx_le, max_or_zero};
use crate::schedule::{Assignment, TimedSchedule};
use crate::task::TaskSet;

/// Maximum per-processor load of an assignment (independent tasks):
/// `Cmax = max_q Σ_{π(i)=q} p_i`.
pub fn cmax_of_assignment(tasks: &TaskSet, asg: &Assignment) -> f64 {
    max_or_zero(asg.loads(tasks))
}

/// Maximum per-processor cumulative memory of an assignment:
/// `Mmax = max_q Σ_{π(i)=q} s_i`.
pub fn mmax_of_assignment(tasks: &TaskSet, asg: &Assignment) -> f64 {
    max_or_zero(asg.memory(tasks))
}

/// Makespan of a timed schedule: `Cmax = max_i (σ(i) + p_i)`.
pub fn cmax_of_timed(tasks: &TaskSet, sched: &TimedSchedule) -> f64 {
    sched.cmax(tasks)
}

/// Maximum per-processor cumulative memory of a timed schedule (identical
/// to the assignment definition: memory is cumulative over the whole run).
pub fn mmax_of_timed(tasks: &TaskSet, sched: &TimedSchedule) -> f64 {
    max_or_zero(sched.memory(tasks))
}

/// Sum of completion times `Σ C_i` of a timed schedule.
pub fn sum_completion(tasks: &TaskSet, sched: &TimedSchedule) -> f64 {
    sched.sum_completion(tasks)
}

/// A point in the bi-objective space `(Cmax, Mmax)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectivePoint {
    /// Makespan.
    pub cmax: f64,
    /// Maximum cumulative memory.
    pub mmax: f64,
}

impl ObjectivePoint {
    /// Builds a point directly.
    pub fn new(cmax: f64, mmax: f64) -> Self {
        ObjectivePoint { cmax, mmax }
    }

    /// Evaluates an assignment on an instance.
    pub fn of_assignment(inst: &Instance, asg: &Assignment) -> Self {
        ObjectivePoint {
            cmax: cmax_of_assignment(inst.tasks(), asg),
            mmax: mmax_of_assignment(inst.tasks(), asg),
        }
    }

    /// Evaluates a timed schedule on an instance.
    pub fn of_timed(inst: &Instance, sched: &TimedSchedule) -> Self {
        ObjectivePoint {
            cmax: cmax_of_timed(inst.tasks(), sched),
            mmax: mmax_of_timed(inst.tasks(), sched),
        }
    }

    /// Evaluates a timed schedule against an explicit task set (used for
    /// DAG instances whose task set lives in `sws-dag`).
    pub fn of_timed_tasks(tasks: &TaskSet, sched: &TimedSchedule) -> Self {
        ObjectivePoint {
            cmax: cmax_of_timed(tasks, sched),
            mmax: mmax_of_timed(tasks, sched),
        }
    }

    /// True when `self` is at least as good as `other` on both objectives
    /// (up to floating-point tolerance).
    pub fn weakly_dominates(&self, other: &ObjectivePoint) -> bool {
        approx_le(self.cmax, other.cmax) && approx_le(self.mmax, other.mmax)
    }

    /// The point with the two objectives swapped, matching the symmetry of
    /// the independent-task problem.
    pub fn swapped(&self) -> ObjectivePoint {
        ObjectivePoint {
            cmax: self.mmax,
            mmax: self.cmax,
        }
    }

    /// Component-wise ratio to a reference point (typically the optimum or
    /// a lower-bound point). Returns `(cmax_ratio, mmax_ratio)`; a ratio is
    /// reported as 1 when the reference component is zero and the achieved
    /// component is also zero, and as `+∞` when only the reference is zero.
    pub fn ratio_to(&self, reference: &ObjectivePoint) -> (f64, f64) {
        (
            ratio(self.cmax, reference.cmax),
            ratio(self.mmax, reference.mmax),
        )
    }
}

impl std::fmt::Display for ObjectivePoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(Cmax = {:.6}, Mmax = {:.6})", self.cmax, self.mmax)
    }
}

/// A point in the tri-objective space `(Cmax, Mmax, ΣC_i)` used by the
/// Section 5.2 extension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriObjectivePoint {
    /// Makespan.
    pub cmax: f64,
    /// Maximum cumulative memory.
    pub mmax: f64,
    /// Sum of completion times.
    pub sum_ci: f64,
}

impl TriObjectivePoint {
    /// Builds a point directly.
    pub fn new(cmax: f64, mmax: f64, sum_ci: f64) -> Self {
        TriObjectivePoint { cmax, mmax, sum_ci }
    }

    /// Evaluates a timed schedule on an instance.
    pub fn of_timed(inst: &Instance, sched: &TimedSchedule) -> Self {
        TriObjectivePoint {
            cmax: cmax_of_timed(inst.tasks(), sched),
            mmax: mmax_of_timed(inst.tasks(), sched),
            sum_ci: sum_completion(inst.tasks(), sched),
        }
    }

    /// The bi-objective projection.
    pub fn bi(&self) -> ObjectivePoint {
        ObjectivePoint {
            cmax: self.cmax,
            mmax: self.mmax,
        }
    }

    /// Component-wise ratio to a reference point.
    pub fn ratio_to(&self, reference: &TriObjectivePoint) -> (f64, f64, f64) {
        (
            ratio(self.cmax, reference.cmax),
            ratio(self.mmax, reference.mmax),
            ratio(self.sum_ci, reference.sum_ci),
        )
    }
}

impl std::fmt::Display for TriObjectivePoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "(Cmax = {:.6}, Mmax = {:.6}, ΣCi = {:.6})",
            self.cmax, self.mmax, self.sum_ci
        )
    }
}

fn ratio(achieved: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        if achieved == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        achieved / reference
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_first_instance() -> Instance {
        // Section 4.1: p = [1, 1/2, 1/2], s = [eps, 1, 1], m = 2.
        Instance::from_ps(&[1.0, 0.5, 0.5], &[0.001, 1.0, 1.0], 2).unwrap()
    }

    #[test]
    fn objective_values_of_the_paper_first_instance() {
        let inst = paper_first_instance();
        // Schedule 1: task 0 alone -> (1, 2).
        let s1 = Assignment::new(vec![0, 1, 1], 2).unwrap();
        let p1 = ObjectivePoint::of_assignment(&inst, &s1);
        assert!((p1.cmax - 1.0).abs() < 1e-9);
        assert!((p1.mmax - 2.0).abs() < 1e-9);
        // Schedule 2: tasks 0 and 1 together -> (3/2, 1 + eps).
        let s2 = Assignment::new(vec![0, 0, 1], 2).unwrap();
        let p2 = ObjectivePoint::of_assignment(&inst, &s2);
        assert!((p2.cmax - 1.5).abs() < 1e-9);
        assert!((p2.mmax - 1.001).abs() < 1e-9);
        // Schedule 3: everything on one processor -> (2, 2 + eps), dominated.
        let s3 = Assignment::new(vec![0, 0, 0], 2).unwrap();
        let p3 = ObjectivePoint::of_assignment(&inst, &s3);
        assert!(p1.weakly_dominates(&p3));
    }

    #[test]
    fn timed_and_assignment_objectives_agree_for_independent_tasks() {
        let inst = paper_first_instance();
        let asg = Assignment::new(vec![0, 1, 1], 2).unwrap();
        let timed = asg.into_timed(inst.tasks());
        let pa = ObjectivePoint::of_assignment(&inst, &asg);
        let pt = ObjectivePoint::of_timed(&inst, &timed);
        assert!((pa.cmax - pt.cmax).abs() < 1e-12);
        assert!((pa.mmax - pt.mmax).abs() < 1e-12);
    }

    #[test]
    fn swapping_the_instance_swaps_the_objective_point() {
        let inst = paper_first_instance();
        let asg = Assignment::new(vec![0, 1, 1], 2).unwrap();
        let p = ObjectivePoint::of_assignment(&inst, &asg);
        let ps = ObjectivePoint::of_assignment(&inst.swapped(), &asg);
        assert!((ps.cmax - p.mmax).abs() < 1e-12);
        assert!((ps.mmax - p.cmax).abs() < 1e-12);
        assert_eq!(p.swapped(), ps);
    }

    #[test]
    fn sum_completion_counts_every_task() {
        let inst = Instance::from_ps(&[1.0, 2.0, 3.0], &[1.0, 1.0, 1.0], 1).unwrap();
        let asg = Assignment::new(vec![0, 0, 0], 1).unwrap();
        let timed = asg.into_timed(inst.tasks());
        // Completions: 1, 3, 6 -> sum 10.
        let tri = TriObjectivePoint::of_timed(&inst, &timed);
        assert!((tri.sum_ci - 10.0).abs() < 1e-12);
        assert!((tri.cmax - 6.0).abs() < 1e-12);
    }

    #[test]
    fn ratios_handle_zero_reference_components() {
        let a = ObjectivePoint::new(1.0, 0.0);
        let r = ObjectivePoint::new(0.0, 0.0);
        let (rc, rm) = a.ratio_to(&r);
        assert!(rc.is_infinite());
        assert_eq!(rm, 1.0);
    }

    #[test]
    fn tri_point_projects_to_bi_point() {
        let t = TriObjectivePoint::new(2.0, 3.0, 10.0);
        assert_eq!(t.bi(), ObjectivePoint::new(2.0, 3.0));
        let (rc, rm, rs) = t.ratio_to(&TriObjectivePoint::new(1.0, 1.0, 5.0));
        assert_eq!((rc, rm, rs), (2.0, 3.0, 2.0));
    }

    #[test]
    fn display_is_human_readable() {
        let p = ObjectivePoint::new(1.5, 2.0);
        assert!(p.to_string().contains("Cmax"));
        let t = TriObjectivePoint::new(1.0, 2.0, 3.0);
        assert!(t.to_string().contains("ΣCi"));
    }
}
