//! The discrete-event replay engine.

use sws_model::error::ModelError;
use sws_model::schedule::TimedSchedule;
use sws_model::task::TaskSet;
use sws_model::validate::PredecessorLists;

use crate::event::{Event, EventKind};
use crate::memory::MemoryProfile;
use crate::trace::Trace;

/// Aggregate result of replaying a schedule.
#[derive(Debug, Clone)]
pub struct SimulationReport {
    /// Completion time of the last task.
    pub makespan: f64,
    /// Largest per-processor cumulative memory observed.
    pub peak_memory: f64,
    /// Sum of completion times.
    pub sum_completion: f64,
    /// Per-processor busy time.
    pub busy: Vec<f64>,
    /// Per-processor cumulative memory at the end of the run.
    pub final_memory: Vec<f64>,
    /// Average processor utilization (busy time / makespan), 1.0 for an
    /// empty schedule.
    pub utilization: f64,
    /// The ordered event trace.
    pub trace: Trace,
    /// Per-processor memory-over-time profiles.
    pub memory_profile: MemoryProfile,
}

/// The replay engine. Stateless — all state lives inside `replay`.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimulationEngine;

impl SimulationEngine {
    /// Creates an engine.
    pub fn new() -> Self {
        SimulationEngine
    }

    /// Replays a timed schedule on the cumulative-memory multiprocessor
    /// model, verifying along the way that
    ///
    /// * the schedule covers exactly `tasks.len()` tasks on `m`
    ///   processors,
    /// * no two tasks overlap on a processor,
    /// * every precedence constraint in `preds` is respected,
    /// * if `memory_capacity` is given, no processor ever exceeds it.
    ///
    /// Returns the full [`SimulationReport`] on success and the first
    /// violation as a [`ModelError`] otherwise.
    pub fn replay<P: PredecessorLists>(
        &self,
        tasks: &TaskSet,
        m: usize,
        schedule: &TimedSchedule,
        preds: P,
        memory_capacity: Option<f64>,
    ) -> Result<SimulationReport, ModelError> {
        if schedule.n() != tasks.len() {
            return Err(ModelError::IncompleteAssignment {
                expected: tasks.len(),
                got: schedule.n(),
            });
        }
        if schedule.m() != m {
            return Err(ModelError::ProcessorOutOfRange {
                task: 0,
                proc: schedule.m().saturating_sub(1),
                m,
            });
        }
        if preds.len() != tasks.len() {
            return Err(ModelError::LengthMismatch {
                left: tasks.len(),
                right: preds.len(),
            });
        }

        // Build the event list.
        let mut events = Vec::with_capacity(2 * tasks.len());
        for i in 0..tasks.len() {
            let start = schedule.start(i);
            let proc = schedule.proc_of(i);
            events.push(Event::start(start, i, proc));
            events.push(Event::finish(start + tasks.get(i).p, i, proc));
        }
        events.sort();

        let slack = |t: f64| 1e-9 * t.abs().max(1.0);

        let mut busy_until = vec![f64::NEG_INFINITY; m];
        let mut running_task: Vec<Option<usize>> = vec![None; m];
        let mut finished = vec![false; tasks.len()];
        let mut finish_time = vec![0.0f64; tasks.len()];
        let mut memory = MemoryProfile::new(m);
        let mut busy = vec![0.0f64; m];
        let mut trace = Trace::new();

        // The loop is panic-free by the validation prologue (task
        // indices come from `0..tasks.len()`, processors from the
        // schedule whose `m` was just checked), but every access still
        // routes through `.get`: the simulator is the differential
        // oracle, and an oracle that aborts instead of returning a
        // typed violation reports nothing. An out-of-range predecessor
        // index in `preds` is thus diagnosed as the precedence
        // violation it is, not as a crash.
        for ev in &events {
            let q = ev.proc;
            match ev.kind {
                EventKind::Start => {
                    // The processor must be idle.
                    if let Some(&Some(other)) = running_task.get(q) {
                        return Err(ModelError::Overlap {
                            proc: q,
                            first: other,
                            second: ev.task,
                        });
                    }
                    if busy_until
                        .get(q)
                        .is_some_and(|&b| ev.time + slack(ev.time) < b)
                    {
                        // A previous task on q finishes after this start.
                        return Err(ModelError::Overlap {
                            proc: q,
                            first: ev.task,
                            second: ev.task,
                        });
                    }
                    // All predecessors must have finished.
                    // `ev.task < tasks.len() == preds.len()` (prologue).
                    for p in preds.preds_of(ev.task) {
                        let done = finished.get(p).copied().unwrap_or(false);
                        let ct = finish_time.get(p).copied().unwrap_or(f64::INFINITY);
                        if !done || ct > ev.time + slack(ev.time) {
                            return Err(ModelError::PrecedenceViolation {
                                pred: p,
                                task: ev.task,
                            });
                        }
                    }
                    // Claim the processor and account the (cumulative) memory.
                    if let Some(slot) = running_task.get_mut(q) {
                        *slot = Some(ev.task);
                    }
                    memory.allocate(q, ev.time, tasks.get(ev.task).s);
                    if let Some(cap) = memory_capacity {
                        if memory.current(q) > cap + 1e-9 * cap.abs().max(1.0) {
                            return Err(ModelError::MemoryExceeded {
                                proc: q,
                                used: memory.current(q),
                                capacity: cap,
                            });
                        }
                    }
                    trace.push(*ev);
                }
                EventKind::Finish => {
                    if let Some(slot) = running_task.get_mut(q) {
                        if *slot == Some(ev.task) {
                            *slot = None;
                        }
                    }
                    if let Some(b) = busy_until.get_mut(q) {
                        *b = b.max(ev.time);
                    }
                    if let Some(f) = finished.get_mut(ev.task) {
                        *f = true;
                    }
                    if let Some(ct) = finish_time.get_mut(ev.task) {
                        *ct = ev.time;
                    }
                    if let Some(b) = busy.get_mut(q) {
                        *b += tasks.get(ev.task).p;
                    }
                    trace.push(*ev);
                }
            }
        }

        let makespan = finish_time.iter().copied().fold(0.0, f64::max);
        let sum_completion = sws_model::numeric::kahan_sum(finish_time.iter().copied());
        let final_memory = memory.final_levels();
        let peak_memory = memory.peak();
        let utilization = if makespan > 0.0 {
            busy.iter().sum::<f64>() / (m as f64 * makespan)
        } else {
            1.0
        };

        Ok(SimulationReport {
            makespan,
            peak_memory,
            sum_completion,
            busy,
            final_memory,
            utilization,
            trace,
            memory_profile: memory,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_model::schedule::TimedSchedule;

    fn tasks() -> TaskSet {
        TaskSet::from_ps(&[2.0, 1.0, 3.0], &[1.0, 2.0, 4.0]).unwrap()
    }

    #[test]
    fn replays_a_valid_schedule_and_reports_objectives() {
        let ts = tasks();
        // P0: task 0 [0,2) then task 1 [2,3); P1: task 2 [0,3).
        let sched = TimedSchedule::new(vec![0, 0, 1], vec![0.0, 2.0, 0.0], 2).unwrap();
        let rep = SimulationEngine::new()
            .replay(&ts, 2, &sched, &[vec![], vec![], vec![]], None)
            .unwrap();
        assert!((rep.makespan - 3.0).abs() < 1e-12);
        assert!((rep.sum_completion - (2.0 + 3.0 + 3.0)).abs() < 1e-12);
        assert!((rep.peak_memory - 4.0).abs() < 1e-12);
        assert!((rep.final_memory[0] - 3.0).abs() < 1e-12);
        assert!((rep.busy[0] - 3.0).abs() < 1e-12);
        assert!((rep.utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn detects_overlaps() {
        let ts = tasks();
        let sched = TimedSchedule::new(vec![0, 0, 1], vec![0.0, 1.0, 0.0], 2).unwrap();
        let err = SimulationEngine::new()
            .replay(&ts, 2, &sched, &[vec![], vec![], vec![]], None)
            .unwrap_err();
        assert!(matches!(err, ModelError::Overlap { proc: 0, .. }));
    }

    #[test]
    fn detects_precedence_violations() {
        let ts = tasks();
        // 0 -> 1 but task 1 starts at 1.0 < C_0 = 2.0.
        let sched = TimedSchedule::new(vec![0, 1, 1], vec![0.0, 1.0, 4.0], 2).unwrap();
        let err = SimulationEngine::new()
            .replay(&ts, 2, &sched, &[vec![], vec![0], vec![]], None)
            .unwrap_err();
        assert_eq!(err, ModelError::PrecedenceViolation { pred: 0, task: 1 });
    }

    #[test]
    fn enforces_a_memory_capacity() {
        let ts = tasks();
        let sched = TimedSchedule::new(vec![0, 0, 0], vec![0.0, 2.0, 3.0], 1).unwrap();
        // Cumulative memory on P0 reaches 7.
        let ok =
            SimulationEngine::new().replay(&ts, 1, &sched, &[vec![], vec![], vec![]], Some(7.0));
        assert!(ok.is_ok());
        let err = SimulationEngine::new()
            .replay(&ts, 1, &sched, &[vec![], vec![], vec![]], Some(6.0))
            .unwrap_err();
        assert!(matches!(err, ModelError::MemoryExceeded { proc: 0, .. }));
    }

    #[test]
    fn back_to_back_tasks_at_identical_times_are_legal() {
        let ts = TaskSet::from_ps(&[1.0, 1.0], &[1.0, 1.0]).unwrap();
        let sched = TimedSchedule::new(vec![0, 0], vec![0.0, 1.0], 1).unwrap();
        let rep = SimulationEngine::new()
            .replay(&ts, 1, &sched, &[vec![], vec![]], None)
            .unwrap();
        assert!((rep.makespan - 2.0).abs() < 1e-12);
    }

    #[test]
    fn report_matches_model_objective_evaluation() {
        let ts = tasks();
        let sched = TimedSchedule::new(vec![0, 1, 1], vec![0.0, 0.0, 1.0], 2).unwrap();
        let rep = SimulationEngine::new()
            .replay(&ts, 2, &sched, &[vec![], vec![], vec![]], None)
            .unwrap();
        assert!((rep.makespan - sched.cmax(&ts)).abs() < 1e-12);
        let mmax = sws_model::objectives::mmax_of_timed(&ts, &sched);
        assert!((rep.peak_memory - mmax).abs() < 1e-12);
        assert!((rep.sum_completion - sched.sum_completion(&ts)).abs() < 1e-12);
    }

    #[test]
    fn wrong_task_count_is_rejected() {
        let ts = tasks();
        let sched = TimedSchedule::new(vec![0, 0], vec![0.0, 2.0], 2).unwrap();
        assert!(SimulationEngine::new()
            .replay(&ts, 2, &sched, &[vec![], vec![], vec![]], None)
            .is_err());
    }

    #[test]
    fn empty_schedule_has_full_utilization_and_zero_makespan() {
        let ts = TaskSet::from_ps(&[], &[]).unwrap();
        let sched = TimedSchedule::new(vec![], vec![], 3).unwrap();
        let rep = SimulationEngine::new()
            .replay(&ts, 3, &sched, &[], None)
            .unwrap();
        assert_eq!(rep.makespan, 0.0);
        assert_eq!(rep.utilization, 1.0);
    }
}
