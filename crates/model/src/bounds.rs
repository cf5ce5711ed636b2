//! Lower bounds on the optimal makespan and memory consumption.
//!
//! The paper uses the classical Graham lower bounds throughout:
//!
//! * `C*max ≥ max(max_i p_i, Σ p_i / m)` (and additionally the critical
//!   path length with precedence constraints),
//! * `M*max ≥ LB = max(max_i s_i, Σ s_i / m)` — the quantity computed at
//!   the start of RLS∆ (Algorithm 2).

use crate::instance::Instance;
use crate::task::TaskSet;

/// Graham lower bound on the optimal makespan for independent tasks:
/// `max(max_i p_i, Σ p_i / m)`.
pub fn cmax_lower_bound(tasks: &TaskSet, m: usize) -> f64 {
    assert!(m > 0, "lower bound needs at least one processor");
    tasks.max_processing().max(tasks.total_work() / m as f64)
}

/// Graham lower bound on the optimal memory consumption:
/// `LB = max(max_i s_i, Σ s_i / m)` — exactly the `LB` computed by RLS∆.
pub fn mmax_lower_bound(tasks: &TaskSet, m: usize) -> f64 {
    assert!(m > 0, "lower bound needs at least one processor");
    tasks.max_storage().max(tasks.total_storage() / m as f64)
}

/// Lower bound on the optimal makespan with precedence constraints:
/// `max(critical_path, max_i p_i, Σ p_i / m)`. The critical path length is
/// supplied by the caller (computed by `sws-dag`); passing `0.0` recovers
/// the independent-task bound.
pub fn cmax_lower_bound_prec(tasks: &TaskSet, m: usize, critical_path: f64) -> f64 {
    cmax_lower_bound(tasks, m).max(critical_path)
}

/// Lower bound on the optimal sum of completion times for independent
/// tasks: the SPT completion profile on `m` machines is optimal for
/// `P ∥ ΣC_i`, so its value is used as the exact reference by the
/// tri-objective experiments (Section 5.2).
///
/// This function computes the *bound value* directly without building the
/// schedule: sort by SPT and assign greedily round-robin over the machines
/// in SPT order (which is exactly what list scheduling in SPT order does
/// for the sum-of-completion-times objective).
pub fn sum_ci_lower_bound(tasks: &TaskSet, m: usize) -> f64 {
    assert!(m > 0, "lower bound needs at least one processor");
    let mut p: Vec<f64> = tasks.as_slice().iter().map(|t| t.p).collect();
    p.sort_by(|a, b| crate::numeric::total_cmp(*a, *b));
    // In an SPT list schedule on identical machines, the j-th shortest task
    // (0-based) completes after the sum of every ⌈(j+1)/m⌉-th positional
    // contribution; equivalently each task's processing time is counted
    // once for itself and once for every later task placed on the same
    // machine. The standard closed form: task at sorted position j is
    // multiplied by ⌈(n - j) / m⌉.
    let n = p.len();
    let mut total = 0.0;
    for (j, &pj) in p.iter().enumerate() {
        let remaining = n - j;
        let mult = remaining.div_ceil(m);
        total += mult as f64 * pj;
    }
    total
}

/// All lower bounds of an instance, bundled for reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LowerBounds {
    /// Lower bound on `C*max`.
    pub cmax: f64,
    /// Lower bound on `M*max` (the `LB` of RLS∆).
    pub mmax: f64,
    /// Exact optimum of `ΣC_i` for independent tasks (SPT value).
    pub sum_ci: f64,
}

impl LowerBounds {
    /// Computes all bounds for an independent-task instance.
    pub fn of_instance(inst: &Instance) -> Self {
        LowerBounds {
            cmax: cmax_lower_bound(inst.tasks(), inst.m()),
            mmax: mmax_lower_bound(inst.tasks(), inst.m()),
            sum_ci: sum_ci_lower_bound(inst.tasks(), inst.m()),
        }
    }

    /// Computes all bounds when a critical-path length is known
    /// (precedence-constrained case).
    pub fn with_critical_path(tasks: &TaskSet, m: usize, critical_path: f64) -> Self {
        LowerBounds {
            cmax: cmax_lower_bound_prec(tasks, m, critical_path),
            mmax: mmax_lower_bound(tasks, m),
            sum_ci: sum_ci_lower_bound(tasks, m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tasks(p: &[f64], s: &[f64]) -> TaskSet {
        TaskSet::from_ps(p, s).unwrap()
    }

    #[test]
    fn cmax_bound_is_max_of_average_and_largest_task() {
        let ts = tasks(&[4.0, 1.0, 1.0], &[1.0, 1.0, 1.0]);
        // average = 2, largest = 4.
        assert_eq!(cmax_lower_bound(&ts, 3), 4.0);
        // With one machine the average dominates.
        assert_eq!(cmax_lower_bound(&ts, 1), 6.0);
    }

    #[test]
    fn mmax_bound_matches_rls_lb_definition() {
        let ts = tasks(&[1.0, 1.0, 1.0, 1.0], &[3.0, 1.0, 1.0, 1.0]);
        // sum s = 6, m = 2 -> average 3; max s = 3 -> LB = 3.
        assert_eq!(mmax_lower_bound(&ts, 2), 3.0);
        // m = 4 -> average 1.5 < max 3 -> LB = 3.
        assert_eq!(mmax_lower_bound(&ts, 4), 3.0);
    }

    #[test]
    fn precedence_bound_includes_critical_path() {
        let ts = tasks(&[1.0, 1.0], &[1.0, 1.0]);
        assert_eq!(cmax_lower_bound_prec(&ts, 2, 5.0), 5.0);
        assert_eq!(cmax_lower_bound_prec(&ts, 2, 0.5), 1.0);
    }

    #[test]
    fn sum_ci_bound_single_machine_is_spt_value() {
        let ts = tasks(&[3.0, 1.0, 2.0], &[0.0, 0.0, 0.0]);
        // SPT on one machine: completions 1, 3, 6 -> 10.
        assert!((sum_ci_lower_bound(&ts, 1) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn sum_ci_bound_many_machines_is_total_work() {
        let ts = tasks(&[3.0, 1.0, 2.0], &[0.0, 0.0, 0.0]);
        // With at least n machines every task runs at time 0: ΣCi = Σ pi.
        assert!((sum_ci_lower_bound(&ts, 3) - 6.0).abs() < 1e-12);
        assert!((sum_ci_lower_bound(&ts, 10) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn sum_ci_bound_two_machines_matches_manual_value() {
        let ts = tasks(&[1.0, 2.0, 3.0, 4.0], &[0.0; 4]);
        // SPT on two machines: M1 gets 1 then 3, M2 gets 2 then 4.
        // Completions: 1, 2, 4, 6 -> sum = 13.
        assert!((sum_ci_lower_bound(&ts, 2) - 13.0).abs() < 1e-12);
    }

    #[test]
    fn bundled_bounds_match_individual_functions() {
        let inst = Instance::from_ps(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0], 2).unwrap();
        let lb = LowerBounds::of_instance(&inst);
        assert_eq!(lb.cmax, cmax_lower_bound(inst.tasks(), 2));
        assert_eq!(lb.mmax, mmax_lower_bound(inst.tasks(), 2));
        assert_eq!(lb.sum_ci, sum_ci_lower_bound(inst.tasks(), 2));
    }

    #[test]
    #[should_panic]
    fn zero_processors_is_a_programming_error() {
        let ts = tasks(&[1.0], &[1.0]);
        let _ = cmax_lower_bound(&ts, 0);
    }
}
