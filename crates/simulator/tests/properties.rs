//! Property-based tests of the discrete-event simulator: replaying a
//! valid schedule reproduces the analytic objectives; corrupting a valid
//! schedule (overlap, precedence violation, missing memory) is detected;
//! traces and memory profiles are internally consistent.

use proptest::collection::vec;
use proptest::prelude::*;

use sws_dag::DagInstance;
use sws_listsched::dag_list_schedule;
use sws_listsched::priority::hlf_priority;
use sws_model::objectives::{cmax_of_timed, mmax_of_timed, sum_completion, ObjectivePoint};
use sws_model::schedule::{Assignment, TimedSchedule};
use sws_model::Instance;
use sws_simulator::gantt::GanttOptions;
use sws_simulator::{render_gantt, simulate_assignment, simulate_dag_schedule, simulate_timed};

fn instance_and_assignment(
    max_n: usize,
    max_m: usize,
) -> impl Strategy<Value = (Instance, Assignment)> {
    (1usize..=max_m, 1usize..=max_n).prop_flat_map(move |(m, n)| {
        (
            vec(0.1f64..30.0, n),
            vec(0.1f64..30.0, n),
            vec(0usize..m, n),
            Just(m),
        )
            .prop_map(|(p, s, procs, m)| {
                let inst = Instance::from_ps(&p, &s, m).expect("valid draws");
                let asg = Assignment::new(procs, m).expect("procs < m");
                (inst, asg)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replaying a back-to-back assignment reproduces the analytic
    /// objectives, conserves busy time, and produces exactly two events
    /// per task.
    #[test]
    fn replay_agrees_with_analytic_evaluation((inst, asg) in instance_and_assignment(30, 5)) {
        let report = simulate_assignment(&inst, &asg, None).unwrap();
        let point = ObjectivePoint::of_assignment(&inst, &asg);
        prop_assert!((report.makespan - point.cmax).abs() < 1e-9);
        prop_assert!((report.peak_memory - point.mmax).abs() < 1e-9);
        prop_assert!((report.busy.iter().sum::<f64>() - inst.total_work()).abs() < 1e-9);
        prop_assert_eq!(report.trace.len(), 2 * inst.n());
        prop_assert!(report.trace.peak_concurrency() <= inst.m());
        // Final memory levels equal the per-processor storage sums.
        let mems = asg.memory(inst.tasks());
        for (a, b) in report.final_memory.iter().zip(&mems) {
            prop_assert!((a - b).abs() < 1e-9);
        }
        // Utilization is the busy fraction of m × makespan.
        if report.makespan > 0.0 {
            let expected = inst.total_work() / (inst.m() as f64 * report.makespan);
            prop_assert!((report.utilization - expected).abs() < 1e-6);
        }
    }

    /// An arbitrary timed schedule (tasks spread out with explicit gaps)
    /// replays cleanly and the simulator's ΣCi matches the analytic value.
    #[test]
    fn spread_out_timed_schedules_replay((inst, asg) in instance_and_assignment(20, 4), gap in 0.0f64..5.0) {
        // Build a timed schedule with an extra `gap` between consecutive
        // tasks of a processor: still overlap-free, just idle time.
        let mut clock = vec![0.0f64; inst.m()];
        let mut start = vec![0.0f64; inst.n()];
        for (i, st) in start.iter_mut().enumerate() {
            let q = asg.proc_of(i);
            *st = clock[q];
            clock[q] += inst.p(i) + gap;
        }
        let sched = TimedSchedule::new(asg.as_slice().to_vec(), start, inst.m()).unwrap();
        let report = simulate_timed(&inst, &sched, None).unwrap();
        prop_assert!((report.makespan - cmax_of_timed(inst.tasks(), &sched)).abs() < 1e-9);
        prop_assert!((report.peak_memory - mmax_of_timed(inst.tasks(), &sched)).abs() < 1e-9);
        prop_assert!((report.sum_completion - sum_completion(inst.tasks(), &sched)).abs() < 1e-9);
        // Peak memory never exceeds the final total of the heaviest
        // processor (memory is cumulative and never released).
        let max_final = report.final_memory.iter().cloned().fold(0.0, f64::max);
        prop_assert!((report.peak_memory - max_final).abs() < 1e-9);
    }

    /// A memory capacity below the peak is rejected; at or above the peak
    /// it is accepted.
    #[test]
    fn capacity_checks_are_sharp((inst, asg) in instance_and_assignment(20, 4)) {
        let point = ObjectivePoint::of_assignment(&inst, &asg);
        prop_assert!(simulate_assignment(&inst, &asg, Some(point.mmax + 1e-6)).is_ok());
        if point.mmax > 1e-6 {
            prop_assert!(simulate_assignment(&inst, &asg, Some(point.mmax * 0.9)).is_err());
        }
    }

    /// Corrupting a valid schedule is detected: shifting one task to start
    /// in the middle of another task on the same processor is an overlap.
    #[test]
    fn overlaps_are_detected((inst, asg) in instance_and_assignment(12, 3)) {
        // Need a processor with at least two tasks.
        let per = asg.tasks_per_processor();
        if let Some(lane) = per.iter().find(|lane| lane.len() >= 2) {
            let timed = asg.into_timed(inst.tasks());
            let first = lane[0];
            let second = lane[1];
            let mut start: Vec<f64> = (0..inst.n()).map(|i| timed.start(i)).collect();
            // Start the second task halfway through the first one.
            start[second] = timed.start(first) + inst.p(first) * 0.5;
            let corrupted = TimedSchedule::new(
                (0..inst.n()).map(|i| timed.proc_of(i)).collect(),
                start,
                inst.m(),
            ).unwrap();
            prop_assert!(simulate_timed(&inst, &corrupted, None).is_err());
        }
    }

    /// Gantt rendering mentions every task exactly once per schedule and
    /// scales with the requested width.
    #[test]
    fn gantt_rendering_is_complete((inst, asg) in instance_and_assignment(15, 3), width in 30usize..100) {
        let timed = asg.into_timed(inst.tasks());
        let text = render_gantt(inst.tasks(), &timed, &GanttOptions { width, totals: true });
        for i in 0..inst.n() {
            prop_assert_eq!(text.matches(&format!("t{i}:")).count(), 1);
        }
        prop_assert!(text.lines().count() >= inst.m());
    }
}

#[test]
fn dag_replay_checks_precedence_and_reports_concurrency() {
    use sws_dag::generators::forkjoin::fork_join;
    let graph = fork_join(2, 6)
        .with_costs(|i| sws_model::task::Task {
            p: 1.0 + (i % 3) as f64,
            s: 1.0,
        })
        .unwrap();
    let inst = DagInstance::new(graph, 3).unwrap();
    let sched = dag_list_schedule(&inst, &hlf_priority(inst.graph()));
    let report = simulate_dag_schedule(&inst, &sched, None).unwrap();
    assert!((report.makespan - sched.cmax(inst.tasks())).abs() < 1e-9);
    assert!(report.trace.peak_concurrency() <= 3);
    // Starting the join before its predecessors is rejected.
    let sink = inst.graph().sinks()[0];
    let mut start: Vec<f64> = (0..inst.n()).map(|i| sched.start(i)).collect();
    start[sink] = 0.0;
    let corrupted = TimedSchedule::new(
        (0..inst.n()).map(|i| sched.proc_of(i)).collect(),
        start,
        inst.m(),
    )
    .unwrap();
    assert!(simulate_dag_schedule(&inst, &corrupted, None).is_err());
}

#[test]
fn memory_profile_steps_are_monotone_in_time() {
    let inst = Instance::from_ps(&[1.0, 1.0, 1.0, 1.0], &[1.0, 2.0, 3.0, 4.0], 2).unwrap();
    let asg = Assignment::new(vec![0, 1, 0, 1], 2).unwrap();
    let report = simulate_assignment(&inst, &asg, None).unwrap();
    for q in 0..2 {
        let steps = report.memory_profile.steps(q);
        for w in steps.windows(2) {
            assert!(w[1].0 >= w[0].0, "time must be non-decreasing");
            assert!(w[1].1 >= w[0].1, "cumulative memory never shrinks");
        }
    }
    assert!((report.memory_profile.peak() - report.peak_memory).abs() < 1e-9);
}
