//! Event traces and utilization summaries.

use crate::event::{Event, EventKind};

/// A chronological record of the simulation events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    events: Vec<Event>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends an event (events are pushed in simulation order).
    pub fn push(&mut self, ev: Event) {
        self.events.push(ev);
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All events, in simulation order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events concerning one processor, in simulation order. Borrows —
    /// the differential replan oracle walks per-processor slices of
    /// every replayed schedule, so the filter must not allocate;
    /// `.collect()` at the call site where a `Vec` is wanted.
    // sws-lint: hot-path
    pub fn for_processor(&self, proc: usize) -> impl Iterator<Item = Event> + '_ {
        self.events.iter().copied().filter(move |e| e.proc == proc)
    }

    /// Events concerning one task (its start and finish), in simulation
    /// order. Borrows, like [`Trace::for_processor`].
    pub fn for_task(&self, task: usize) -> impl Iterator<Item = Event> + '_ {
        self.events.iter().copied().filter(move |e| e.task == task)
    }
    // sws-lint: end-hot-path

    /// The number of tasks running at a given time (start inclusive,
    /// finish exclusive).
    pub fn concurrency_at(&self, time: f64) -> usize {
        let mut running = 0usize;
        for ev in &self.events {
            if ev.time > time + 1e-12 {
                continue;
            }
            match ev.kind {
                EventKind::Start => running += 1,
                EventKind::Finish => running = running.saturating_sub(1),
            }
        }
        running
    }

    /// Maximum number of simultaneously running tasks over the whole run.
    pub fn peak_concurrency(&self) -> usize {
        let mut sorted = self.events.clone();
        sorted.sort();
        let mut running = 0usize;
        let mut peak = 0usize;
        for ev in sorted {
            match ev.kind {
                EventKind::Start => {
                    running += 1;
                    peak = peak.max(running);
                }
                EventKind::Finish => running = running.saturating_sub(1),
            }
        }
        peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        t.push(Event::start(0.0, 0, 0));
        t.push(Event::start(0.0, 1, 1));
        t.push(Event::finish(1.0, 1, 1));
        t.push(Event::start(1.0, 2, 1));
        t.push(Event::finish(2.0, 0, 0));
        t.push(Event::finish(3.0, 2, 1));
        t
    }

    #[test]
    fn filters_by_processor_and_task() {
        let t = sample_trace();
        assert_eq!(t.len(), 6);
        assert_eq!(t.for_processor(0).count(), 2);
        assert_eq!(t.for_processor(1).count(), 4);
        assert_eq!(t.for_task(2).count(), 2);
        // The iterators preserve simulation order.
        let times: Vec<f64> = t.for_processor(1).map(|e| e.time).collect();
        assert_eq!(times, vec![0.0, 1.0, 1.0, 3.0]);
    }

    #[test]
    fn peak_concurrency_counts_parallel_tasks() {
        let t = sample_trace();
        assert_eq!(t.peak_concurrency(), 2);
        assert_eq!(Trace::new().peak_concurrency(), 0);
    }

    #[test]
    fn concurrency_at_start_and_middle() {
        let t = sample_trace();
        assert_eq!(t.concurrency_at(0.5), 2);
        assert_eq!(t.concurrency_at(2.5), 1);
    }
}
