//! Independent-task instances of `P | p_j, s_j | Cmax, Mmax`.

use crate::error::ModelError;
use crate::task::{Task, TaskSet};

/// An instance of the independent-task problem: a task set plus the number
/// of identical processors `m`.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    tasks: TaskSet,
    m: usize,
}

impl Instance {
    /// Builds an instance from a task set and a processor count.
    pub fn new(tasks: TaskSet, m: usize) -> Result<Self, ModelError> {
        if m == 0 {
            return Err(ModelError::NoProcessors);
        }
        Ok(Instance { tasks, m })
    }

    /// Builds an instance from parallel arrays of processing times and
    /// storage requirements.
    pub fn from_ps(p: &[f64], s: &[f64], m: usize) -> Result<Self, ModelError> {
        Instance::new(TaskSet::from_ps(p, s)?, m)
    }

    /// Number of tasks `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.tasks.len()
    }

    /// Number of processors `m`.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// The task set.
    #[inline]
    pub fn tasks(&self) -> &TaskSet {
        &self.tasks
    }

    /// Task by index.
    #[inline]
    pub fn task(&self, i: usize) -> Task {
        self.tasks.get(i)
    }

    /// Processing time of task `i`.
    #[inline]
    pub fn p(&self, i: usize) -> f64 {
        self.tasks.get(i).p
    }

    /// Storage requirement of task `i`.
    #[inline]
    pub fn s(&self, i: usize) -> f64 {
        self.tasks.get(i).s
    }

    /// Total processing requirement `Σ p_i`.
    pub fn total_work(&self) -> f64 {
        self.tasks.total_work()
    }

    /// Total storage requirement `Σ s_i`.
    pub fn total_storage(&self) -> f64 {
        self.tasks.total_storage()
    }

    /// The symmetric instance obtained by exchanging processing times and
    /// storage requirements. The paper (Section 2.1) notes that with
    /// independent tasks `Cmax` and `Mmax` are strictly equivalent under
    /// this exchange; tests use it to verify symmetric behaviour of the
    /// algorithms.
    pub fn swapped(&self) -> Instance {
        Instance {
            tasks: self.tasks.swapped(),
            m: self.m,
        }
    }

    /// Returns a copy with a different processor count.
    pub fn with_processors(&self, m: usize) -> Result<Instance, ModelError> {
        Instance::new(self.tasks.clone(), m)
    }

    /// Basic descriptive statistics of the instance, mainly for experiment
    /// logs.
    pub fn stats(&self) -> InstanceStats {
        let n = self.n() as f64;
        let mean_p = if self.n() == 0 {
            0.0
        } else {
            self.total_work() / n
        };
        let mean_s = if self.n() == 0 {
            0.0
        } else {
            self.total_storage() / n
        };
        InstanceStats {
            n: self.n(),
            m: self.m,
            total_work: self.total_work(),
            total_storage: self.total_storage(),
            max_p: self.tasks.max_processing(),
            max_s: self.tasks.max_storage(),
            mean_p,
            mean_s,
        }
    }
}

/// Descriptive statistics of an instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceStats {
    /// Number of tasks.
    pub n: usize,
    /// Number of processors.
    pub m: usize,
    /// `Σ p_i`.
    pub total_work: f64,
    /// `Σ s_i`.
    pub total_storage: f64,
    /// `max_i p_i`.
    pub max_p: f64,
    /// `max_i s_i`.
    pub max_s: f64,
    /// Mean processing time.
    pub mean_p: f64,
    /// Mean storage requirement.
    pub mean_s: f64,
}

/// Incremental builder for instances, convenient in examples and tests.
#[derive(Debug, Clone, Default)]
pub struct InstanceBuilder {
    tasks: Vec<Task>,
    m: usize,
}

impl InstanceBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        InstanceBuilder {
            tasks: Vec::new(),
            m: 1,
        }
    }

    /// Sets the number of processors.
    pub fn processors(mut self, m: usize) -> Self {
        self.m = m;
        self
    }

    /// Adds one task with processing time `p` and storage requirement `s`.
    pub fn task(mut self, p: f64, s: f64) -> Self {
        self.tasks.push(Task { p, s });
        self
    }

    /// Adds `count` identical tasks.
    pub fn tasks(mut self, count: usize, p: f64, s: f64) -> Self {
        self.tasks.extend(std::iter::repeat_n(Task { p, s }, count));
        self
    }

    /// Finalizes the instance.
    pub fn build(self) -> Result<Instance, ModelError> {
        Instance::new(TaskSet::new(self.tasks)?, self.m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_processors() {
        let err = Instance::from_ps(&[1.0], &[1.0], 0).unwrap_err();
        assert_eq!(err, ModelError::NoProcessors);
    }

    #[test]
    fn accessors_report_the_right_values() {
        let inst = Instance::from_ps(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], 2).unwrap();
        assert_eq!(inst.n(), 3);
        assert_eq!(inst.m(), 2);
        assert_eq!(inst.p(1), 2.0);
        assert_eq!(inst.s(2), 6.0);
        assert!((inst.total_work() - 6.0).abs() < 1e-12);
        assert!((inst.total_storage() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn swapped_instance_exchanges_the_two_dimensions() {
        let inst = Instance::from_ps(&[1.0, 2.0], &[3.0, 4.0], 3).unwrap();
        let sw = inst.swapped();
        assert_eq!(sw.p(0), 3.0);
        assert_eq!(sw.s(0), 1.0);
        assert_eq!(sw.m(), 3);
        assert_eq!(sw.swapped(), inst);
    }

    #[test]
    fn builder_constructs_the_expected_instance() {
        let inst = InstanceBuilder::new()
            .processors(4)
            .task(1.0, 2.0)
            .tasks(3, 0.5, 1.0)
            .build()
            .unwrap();
        assert_eq!(inst.n(), 4);
        assert_eq!(inst.m(), 4);
        assert!((inst.total_work() - 2.5).abs() < 1e-12);
        assert!((inst.total_storage() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn stats_summarize_the_instance() {
        let inst = Instance::from_ps(&[1.0, 3.0], &[2.0, 6.0], 2).unwrap();
        let st = inst.stats();
        assert_eq!(st.n, 2);
        assert_eq!(st.max_p, 3.0);
        assert_eq!(st.max_s, 6.0);
        assert!((st.mean_p - 2.0).abs() < 1e-12);
        assert!((st.mean_s - 4.0).abs() < 1e-12);
    }

    #[test]
    fn with_processors_changes_only_m() {
        let inst = Instance::from_ps(&[1.0], &[1.0], 2).unwrap();
        let inst4 = inst.with_processors(4).unwrap();
        assert_eq!(inst4.m(), 4);
        assert_eq!(inst4.tasks(), inst.tasks());
        assert!(inst.with_processors(0).is_err());
    }

    #[test]
    fn empty_instance_is_allowed_and_has_zero_aggregates() {
        let inst = Instance::from_ps(&[], &[], 3).unwrap();
        assert_eq!(inst.n(), 0);
        assert_eq!(inst.total_work(), 0.0);
        assert_eq!(inst.stats().mean_p, 0.0);
    }
}
