//! Per-processor cumulative memory profiles.
//!
//! In the paper's model memory is *cumulative*: code (or results) loaded
//! for a task stays resident on the processor for the rest of the run, so
//! each processor's occupancy is a non-decreasing step function of time.

/// The memory occupancy of every processor over time.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryProfile {
    /// For each processor, the `(time, new_level)` steps in chronological
    /// order of allocation.
    steps: Vec<Vec<(f64, f64)>>,
    current: Vec<f64>,
}

impl MemoryProfile {
    /// An empty profile for `m` processors.
    pub fn new(m: usize) -> Self {
        MemoryProfile {
            steps: vec![Vec::new(); m],
            current: vec![0.0; m],
        }
    }

    /// Number of processors tracked.
    pub fn processors(&self) -> usize {
        self.current.len()
    }

    /// Records that `amount` memory units become resident on processor
    /// `proc` at `time`. Out-of-range processors are ignored (the
    /// profile sits inside the non-panicking replay oracle; the replay
    /// engine validates processor ranges before it allocates).
    pub fn allocate(&mut self, proc: usize, time: f64, amount: f64) {
        let Some(level) = self.current.get_mut(proc) else {
            return;
        };
        *level += amount;
        let level = *level;
        if let Some(steps) = self.steps.get_mut(proc) {
            steps.push((time, level));
        }
    }

    /// Current occupancy of a processor (`0.0` for an out-of-range
    /// processor — an untracked processor holds nothing).
    pub fn current(&self, proc: usize) -> f64 {
        self.current.get(proc).copied().unwrap_or(0.0)
    }

    /// Final occupancy of every processor.
    pub fn final_levels(&self) -> Vec<f64> {
        self.current.clone()
    }

    /// The largest occupancy reached by any processor (equal to the final
    /// level because occupancy never decreases).
    pub fn peak(&self) -> f64 {
        self.current.iter().copied().fold(0.0, f64::max)
    }

    /// Occupancy of `proc` at an arbitrary `time` (the level of the last
    /// step at or before `time`).
    pub fn level_at(&self, proc: usize, time: f64) -> f64 {
        let mut level = 0.0;
        for &(t, l) in self.steps(proc) {
            if t <= time + 1e-12 {
                level = l;
            } else {
                break;
            }
        }
        level
    }

    /// The raw steps of a processor, `(time, level)` in chronological
    /// order (empty for an out-of-range processor).
    pub fn steps(&self, proc: usize) -> &[(f64, f64)] {
        self.steps.get(proc).map_or(&[], Vec::as_slice)
    }

    /// Samples all processors at `samples` evenly spaced instants in
    /// `[0, horizon]` — convenient for plotting occupancy curves.
    pub fn sample(&self, horizon: f64, samples: usize) -> Vec<Vec<f64>> {
        assert!(samples >= 2, "need at least two samples");
        (0..self.processors())
            .map(|q| {
                (0..samples)
                    .map(|k| {
                        let t = horizon * k as f64 / (samples - 1) as f64;
                        self.level_at(q, t)
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_accumulates_and_never_decreases() {
        let mut p = MemoryProfile::new(2);
        p.allocate(0, 0.0, 2.0);
        p.allocate(0, 1.5, 3.0);
        p.allocate(1, 0.5, 1.0);
        assert_eq!(p.current(0), 5.0);
        assert_eq!(p.current(1), 1.0);
        assert_eq!(p.peak(), 5.0);
        assert_eq!(p.final_levels(), vec![5.0, 1.0]);
        let steps = p.steps(0);
        assert!(steps.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn level_at_interpolates_as_a_step_function() {
        let mut p = MemoryProfile::new(1);
        p.allocate(0, 1.0, 4.0);
        p.allocate(0, 3.0, 2.0);
        assert_eq!(p.level_at(0, 0.5), 0.0);
        assert_eq!(p.level_at(0, 1.0), 4.0);
        assert_eq!(p.level_at(0, 2.9), 4.0);
        assert_eq!(p.level_at(0, 3.0), 6.0);
        assert_eq!(p.level_at(0, 100.0), 6.0);
    }

    #[test]
    fn sampling_produces_one_series_per_processor() {
        let mut p = MemoryProfile::new(2);
        p.allocate(0, 0.0, 1.0);
        p.allocate(1, 2.0, 5.0);
        let series = p.sample(4.0, 5);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0], vec![1.0, 1.0, 1.0, 1.0, 1.0]);
        assert_eq!(series[1], vec![0.0, 0.0, 5.0, 5.0, 5.0]);
    }

    #[test]
    fn empty_profile_is_all_zero() {
        let p = MemoryProfile::new(3);
        assert_eq!(p.peak(), 0.0);
        assert_eq!(p.level_at(2, 10.0), 0.0);
    }
}
