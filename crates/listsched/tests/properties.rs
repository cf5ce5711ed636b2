//! Property-based tests of the classical schedulers: Graham list
//! scheduling, LPT, SPT, MULTIFIT and precedence-constrained list
//! scheduling, checked against their textbook guarantees and against a
//! brute-force optimum on small instances.

use proptest::collection::vec;
use proptest::prelude::*;

use sws_dag::DagInstance;
use sws_dag::TaskGraph;
use sws_listsched::dag_list::{dag_list_guarantee, dag_list_schedule};
use sws_listsched::graham::{graham_cmax, graham_guarantee, graham_mmax, list_schedule};
use sws_listsched::lpt::{lpt_cmax, lpt_guarantee, lpt_order};
use sws_listsched::multifit::{ffd_pack, multifit_cmax};
use sws_listsched::priority::{hlf_priority, index_priority, rank_of_order};
use sws_listsched::spt::{optimal_sum_completion, spt_order, spt_schedule};
use sws_model::bounds::{cmax_lower_bound, cmax_lower_bound_prec};
use sws_model::objectives::{cmax_of_assignment, mmax_of_assignment};
use sws_model::validate::{validate_assignment, validate_timed};
use sws_model::Instance;

/// Exhaustive optimal makespan for tiny instances (used as the reference
/// for the LPT and MULTIFIT ratio checks).
fn brute_force_cmax(weights: &[f64], m: usize) -> f64 {
    fn recurse(weights: &[f64], k: usize, loads: &mut Vec<f64>, best: &mut f64) {
        if k == weights.len() {
            let cmax = loads.iter().cloned().fold(0.0, f64::max);
            if cmax < *best {
                *best = cmax;
            }
            return;
        }
        let current = loads.iter().cloned().fold(0.0, f64::max);
        if current >= *best {
            return; // prune
        }
        for q in 0..loads.len() {
            loads[q] += weights[k];
            recurse(weights, k + 1, loads, best);
            loads[q] -= weights[k];
            if k == 0 {
                break; // symmetry: the first task's machine is irrelevant
            }
        }
    }
    let mut loads = vec![0.0; m];
    let mut best = f64::INFINITY;
    recurse(weights, 0, &mut loads, &mut best);
    best
}

fn small_instance() -> impl Strategy<Value = Instance> {
    (2usize..=3, 2usize..=9).prop_flat_map(|(m, n)| {
        (vec(0.5f64..20.0, n), Just(m)).prop_map(|(p, m)| {
            let s: Vec<f64> = p.iter().rev().cloned().collect();
            Instance::from_ps(&p, &s, m).expect("valid draws")
        })
    })
}

fn medium_instance() -> impl Strategy<Value = Instance> {
    (2usize..=8, 2usize..=60).prop_flat_map(|(m, n)| {
        (vec(0.1f64..100.0, n), vec(0.1f64..100.0, n), Just(m))
            .prop_map(|(p, s, m)| Instance::from_ps(&p, &s, m).expect("valid draws"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Graham's bound: any list schedule is within 2 − 1/m of the Graham
    /// lower bound (and hence of the optimum).
    #[test]
    fn graham_respects_its_guarantee(inst in medium_instance()) {
        let asg = graham_cmax(&inst);
        validate_assignment(&inst, &asg, None).unwrap();
        let cmax = cmax_of_assignment(inst.tasks(), &asg);
        let lb = cmax_lower_bound(inst.tasks(), inst.m());
        prop_assert!(cmax <= graham_guarantee(inst.m()) * lb + 1e-9);
        // The memory-oriented twin optimizes the other dimension with the
        // same guarantee structure.
        let asg_m = graham_mmax(&inst);
        let mmax = mmax_of_assignment(inst.tasks(), &asg_m);
        let lb_m = sws_model::bounds::mmax_lower_bound(inst.tasks(), inst.m());
        prop_assert!(mmax <= graham_guarantee(inst.m()) * lb_m + 1e-9);
    }

    /// LPT never does worse than plain Graham's bound and respects its own
    /// 4/3 − 1/(3m) guarantee against the exact optimum on small inputs.
    #[test]
    fn lpt_respects_its_guarantee(inst in small_instance()) {
        let asg = lpt_cmax(&inst);
        let cmax = cmax_of_assignment(inst.tasks(), &asg);
        let weights: Vec<f64> = (0..inst.n()).map(|i| inst.p(i)).collect();
        let opt = brute_force_cmax(&weights, inst.m());
        prop_assert!(cmax <= lpt_guarantee(inst.m()) * opt + 1e-9,
            "LPT {} > {} × OPT {}", cmax, lpt_guarantee(inst.m()), opt);
        prop_assert!(cmax + 1e-9 >= opt);
    }

    /// MULTIFIT respects the classical 13/11 bound against the exact
    /// optimum on small inputs, and FFD packing never overfills a bin.
    #[test]
    fn multifit_respects_its_guarantee(inst in small_instance()) {
        let asg = multifit_cmax(&inst);
        validate_assignment(&inst, &asg, None).unwrap();
        let cmax = cmax_of_assignment(inst.tasks(), &asg);
        let weights: Vec<f64> = (0..inst.n()).map(|i| inst.p(i)).collect();
        let opt = brute_force_cmax(&weights, inst.m());
        // 13/11 plus the residual of the finitely many bisection rounds.
        prop_assert!(cmax <= (13.0 / 11.0 + 1e-2) * opt + 1e-9,
            "MULTIFIT {} > 13/11 × OPT {}", cmax, opt);
        // FFD with capacity equal to the achieved Cmax must succeed and
        // respect the capacity.
        if let Some(packed) = ffd_pack(&weights, inst.m(), cmax + 1e-9) {
            let packed_cmax = cmax_of_assignment(inst.tasks(), &packed);
            prop_assert!(packed_cmax <= cmax + 1e-6);
        }
    }

    /// SPT list scheduling minimizes ΣCi: no other priority order we try
    /// can do better, and the closed-form optimum matches the schedule.
    #[test]
    fn spt_minimizes_sum_completion(inst in medium_instance()) {
        let spt = spt_schedule(&inst);
        let preds: Vec<Vec<usize>> = vec![Vec::new(); inst.n()];
        validate_timed(inst.tasks(), inst.m(), &spt, &preds, None).unwrap();
        let spt_value = spt.sum_completion(inst.tasks());
        prop_assert!((spt_value - optimal_sum_completion(&inst)).abs() < 1e-6);
        // Any list schedule in a different order is no better.
        let weights: Vec<f64> = (0..inst.n()).map(|i| inst.p(i)).collect();
        let lpt = list_schedule(&weights, inst.m(), &lpt_order(&weights));
        let lpt_timed = lpt.into_timed_ordered(inst.tasks(), &lpt_order(&weights));
        prop_assert!(lpt_timed.sum_completion(inst.tasks()) + 1e-9 >= spt_value);
        // The SPT order really is sorted by processing time.
        let order = spt_order(&weights);
        for w in order.windows(2) {
            prop_assert!(weights[w[0]] <= weights[w[1]] + 1e-12);
        }
    }

    /// Precedence-constrained list scheduling respects Graham's bound
    /// against the critical-path-aware lower bound for every priority
    /// order, and its schedules are always feasible.
    #[test]
    fn dag_list_scheduling_respects_grahams_bound(
        p in vec(0.5f64..10.0, 3..25),
        m in 2usize..5,
        seed in 0u64..500,
    ) {
        let mut rng = sws_workloads::rng::seeded_rng(seed);
        let n = p.len();
        let graph = sws_dag::generators::layered::layered_random(n, (n / 3).max(1), 0.3, &mut rng)
            .with_costs(|i| sws_model::task::Task { p: p[i], s: 1.0 }).unwrap();
        let inst = DagInstance::new(graph, m).unwrap();
        for priority in [index_priority(n), hlf_priority(inst.graph())] {
            let sched = dag_list_schedule(&inst, &priority);
            validate_timed(inst.tasks(), m, &sched, inst.graph().all_preds(), None).unwrap();
            let cp = inst.graph().critical_path_length();
            let lb = cmax_lower_bound_prec(inst.tasks(), m, cp);
            prop_assert!(sched.cmax(inst.tasks()) <= dag_list_guarantee(m) * lb + 1e-9);
        }
    }

    /// Buffer-reuse correctness (the allocation-free kernel rework): a
    /// single `KernelWorkspace` threaded through an interleaved stream of
    /// runs — different DAG families, task counts, processor counts,
    /// admission predicates and memory caps — must produce exactly the
    /// schedules fresh-workspace runs produce. Any state leaking from one
    /// run into the next (a stale heap entry, an unreset load, a dirty
    /// scratch buffer) changes some placement and fails the comparison.
    #[test]
    fn kernel_workspace_reuse_is_bit_identical_across_interleaved_instances(
        runs in vec(
            (0usize..7, 6usize..40, 1usize..7, 2.1f64..10.0, any::<bool>()),
            2..7,
        ),
        seed in 0u64..10_000,
    ) {
        use sws_listsched::kernel::{
            event_driven_schedule, event_driven_schedule_csr, KernelWorkspace,
            MemoryCapAdmission, Unrestricted,
        };
        use sws_workloads::dagsets::{dag_workload, DagFamily};
        use sws_workloads::TaskDistribution;

        let mut ws = KernelWorkspace::new();
        let mut rng = sws_workloads::rng::seeded_rng(seed);
        for (family_idx, n, m, delta, capped) in runs {
            let family = DagFamily::all()[family_idx];
            let inst = dag_workload(family, n, m, TaskDistribution::AntiCorrelated, &mut rng);
            let rank = index_priority(inst.n());
            let csr = inst.csr();
            if capped {
                let lb = sws_model::bounds::mmax_lower_bound(inst.tasks(), inst.m());
                let cap = delta * lb;
                let mut adm_reused = MemoryCapAdmission::new(inst.m(), cap);
                let reused = event_driven_schedule_csr(
                    &csr, inst.m(), &rank, &mut adm_reused, &mut ws,
                ).unwrap();
                let mut adm_fresh = MemoryCapAdmission::new(inst.m(), cap);
                let fresh = event_driven_schedule(&inst, &rank, &mut adm_fresh).unwrap();
                prop_assert_eq!(&reused.schedule, &fresh.schedule,
                    "{} n={} m={} ∆={}: capped schedules differ",
                    family.label(), inst.n(), inst.m(), delta);
                prop_assert_eq!(&reused.marked, &fresh.marked);
            } else {
                let reused = event_driven_schedule_csr(
                    &csr, inst.m(), &rank, &mut Unrestricted, &mut ws,
                ).unwrap();
                let fresh = event_driven_schedule(&inst, &rank, &mut Unrestricted).unwrap();
                prop_assert_eq!(&reused.schedule, &fresh.schedule,
                    "{} n={} m={}: unrestricted schedules differ",
                    family.label(), inst.n(), inst.m());
                prop_assert_eq!(&reused.marked, &fresh.marked);
            }
        }
    }

    /// Priority-rank helpers are consistent: ranking an order and applying
    /// it round-trips, and all ranks are permutations of 0..n.
    #[test]
    fn priority_ranks_are_permutations(weights in vec(0.1f64..50.0, 1..40)) {
        let order = spt_order(&weights);
        let rank = rank_of_order(&order);
        prop_assert_eq!(rank.len(), weights.len());
        let mut seen = vec![false; weights.len()];
        for &r in &rank {
            prop_assert!((r as usize) < weights.len());
            prop_assert!(!seen[r as usize]);
            seen[r as usize] = true;
        }
        // The task ranked 0 is the first of the order.
        prop_assert_eq!(rank[order[0]], 0);
        let graph = TaskGraph::new(
            sws_model::task::TaskSet::from_ps(&weights, &weights).unwrap(),
        );
        let index = index_priority(graph.n());
        prop_assert_eq!(index, (0..weights.len() as u32).collect::<Vec<_>>());
    }
}

#[test]
fn graham_anomaly_instance_from_the_literature() {
    // The classical Graham instance showing list scheduling can reach the
    // 2 − 1/m bound: m machines, m(m−1) unit tasks followed by one task of
    // length m. List scheduling in index order yields 2m − 1 while the
    // optimum is m.
    let m = 4usize;
    let mut p = vec![1.0; m * (m - 1)];
    p.push(m as f64);
    let s = vec![1.0; p.len()];
    let inst = Instance::from_ps(&p, &s, m).unwrap();
    let asg = graham_cmax(&inst);
    let cmax = cmax_of_assignment(inst.tasks(), &asg);
    assert!((cmax - (2 * m - 1) as f64).abs() < 1e-9);
    // LPT fixes it.
    let lpt = lpt_cmax(&inst);
    assert!((cmax_of_assignment(inst.tasks(), &lpt) - m as f64).abs() < 1e-9);
}
