//! Tasks and task identifiers.

use crate::error::ModelError;

/// Index of a task inside an instance.
///
/// Tasks are always stored densely (`0..n`), so the identifier is simply a
/// wrapper around the index; the newtype prevents accidentally mixing task
/// and processor indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub usize);

impl TaskId {
    /// Returns the underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for TaskId {
    fn from(i: usize) -> Self {
        TaskId(i)
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A task of the problem `P | p_j, s_j | Cmax, Mmax`.
///
/// * `p` — processing time (`p_i` in the paper),
/// * `s` — storage requirement (`s_i` in the paper), e.g. instruction code
///   size on a multi-SoC system or result size in a scientific workflow.
///
/// The paper explicitly assumes the processing time of a task is *not*
/// related to the memory it uses, so the two fields are independent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Task {
    /// Processing time `p_i ≥ 0`.
    pub p: f64,
    /// Storage requirement `s_i ≥ 0`.
    pub s: f64,
}

impl Task {
    /// Creates a task, validating that both quantities are finite and
    /// non-negative.
    pub fn new(p: f64, s: f64) -> Result<Self, ModelError> {
        if !p.is_finite() || p < 0.0 {
            return Err(ModelError::InvalidProcessingTime {
                task: usize::MAX,
                value: p,
            });
        }
        if !s.is_finite() || s < 0.0 {
            return Err(ModelError::InvalidStorage {
                task: usize::MAX,
                value: s,
            });
        }
        Ok(Task { p, s })
    }

    /// Creates a task without validation. Only use with values known to be
    /// finite and non-negative (e.g. from a generator).
    #[inline]
    pub fn new_unchecked(p: f64, s: f64) -> Self {
        Task { p, s }
    }

    /// The ratio `p_i / s_i` that drives the SBO∆ threshold rule. Returns
    /// `+∞` when the task uses no memory (such a task should always be
    /// scheduled by the makespan-oriented schedule).
    #[inline]
    pub fn time_per_memory(&self) -> f64 {
        if self.s == 0.0 {
            f64::INFINITY
        } else {
            self.p / self.s
        }
    }

    /// Returns the task with processing time and storage swapped. The paper
    /// notes that with independent tasks the two objectives are strictly
    /// symmetric; swapping lets tests exploit that symmetry.
    #[inline]
    pub fn swapped(&self) -> Task {
        Task {
            p: self.s,
            s: self.p,
        }
    }
}

/// A non-empty collection of tasks with dense identifiers `0..n`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TaskSet {
    tasks: Vec<Task>,
}

impl TaskSet {
    /// Builds a task set from a vector of tasks, validating each entry.
    pub fn new(tasks: Vec<Task>) -> Result<Self, ModelError> {
        for (i, t) in tasks.iter().enumerate() {
            if !t.p.is_finite() || t.p < 0.0 {
                return Err(ModelError::InvalidProcessingTime {
                    task: i,
                    value: t.p,
                });
            }
            if !t.s.is_finite() || t.s < 0.0 {
                return Err(ModelError::InvalidStorage {
                    task: i,
                    value: t.s,
                });
            }
        }
        Ok(TaskSet { tasks })
    }

    /// Builds a task set from parallel arrays of processing times and
    /// storage requirements.
    pub fn from_ps(p: &[f64], s: &[f64]) -> Result<Self, ModelError> {
        if p.len() != s.len() {
            return Err(ModelError::LengthMismatch {
                left: p.len(),
                right: s.len(),
            });
        }
        let tasks = p
            .iter()
            .zip(s.iter())
            .map(|(&p, &s)| Task { p, s })
            .collect();
        TaskSet::new(tasks)
    }

    /// Number of tasks.
    #[inline]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Immutable access to the underlying tasks.
    #[inline]
    pub fn as_slice(&self) -> &[Task] {
        &self.tasks
    }

    /// Task by index. Panics when out of range.
    #[inline]
    pub fn get(&self, id: usize) -> Task {
        self.tasks[id]
    }

    /// Iterates over `(TaskId, Task)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, Task)> + '_ {
        self.tasks.iter().enumerate().map(|(i, &t)| (TaskId(i), t))
    }

    /// Total processing requirement `Σ p_i`.
    pub fn total_work(&self) -> f64 {
        crate::numeric::kahan_sum(self.tasks.iter().map(|t| t.p))
    }

    /// Total storage requirement `Σ s_i`.
    pub fn total_storage(&self) -> f64 {
        crate::numeric::kahan_sum(self.tasks.iter().map(|t| t.s))
    }

    /// Largest single processing time `max_i p_i`.
    pub fn max_processing(&self) -> f64 {
        crate::numeric::max_or_zero(self.tasks.iter().map(|t| t.p))
    }

    /// Largest single storage requirement `max_i s_i`.
    pub fn max_storage(&self) -> f64 {
        crate::numeric::max_or_zero(self.tasks.iter().map(|t| t.s))
    }

    /// Returns the task set with every task's `p` and `s` swapped.
    pub fn swapped(&self) -> TaskSet {
        TaskSet {
            tasks: self.tasks.iter().map(Task::swapped).collect(),
        }
    }

    /// Adds a task and returns its identifier.
    pub fn push(&mut self, task: Task) -> TaskId {
        self.tasks.push(task);
        TaskId(self.tasks.len() - 1)
    }
}

impl std::ops::Index<usize> for TaskSet {
    type Output = Task;
    fn index(&self, index: usize) -> &Task {
        &self.tasks[index]
    }
}

impl std::ops::Index<TaskId> for TaskSet {
    type Output = Task;
    fn index(&self, index: TaskId) -> &Task {
        &self.tasks[index.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_rejects_negative_and_non_finite_values() {
        assert!(Task::new(-1.0, 1.0).is_err());
        assert!(Task::new(1.0, -1.0).is_err());
        assert!(Task::new(f64::NAN, 1.0).is_err());
        assert!(Task::new(1.0, f64::INFINITY).is_err());
        assert!(Task::new(0.0, 0.0).is_ok());
    }

    #[test]
    fn time_per_memory_handles_zero_storage() {
        let t = Task::new(2.0, 0.0).unwrap();
        assert!(t.time_per_memory().is_infinite());
        let u = Task::new(2.0, 4.0).unwrap();
        assert!((u.time_per_memory() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn swapped_exchanges_objectives() {
        let t = Task::new(3.0, 7.0).unwrap();
        let u = t.swapped();
        assert_eq!(u.p, 7.0);
        assert_eq!(u.s, 3.0);
        assert_eq!(u.swapped(), t);
    }

    #[test]
    fn task_set_from_parallel_arrays() {
        let ts = TaskSet::from_ps(&[1.0, 2.0, 3.0], &[0.5, 0.25, 0.125]).unwrap();
        assert_eq!(ts.len(), 3);
        assert!((ts.total_work() - 6.0).abs() < 1e-12);
        assert!((ts.total_storage() - 0.875).abs() < 1e-12);
        assert_eq!(ts.max_processing(), 3.0);
        assert_eq!(ts.max_storage(), 0.5);
    }

    #[test]
    fn task_set_rejects_mismatched_lengths() {
        let err = TaskSet::from_ps(&[1.0, 2.0], &[1.0]).unwrap_err();
        assert_eq!(err, ModelError::LengthMismatch { left: 2, right: 1 });
    }

    #[test]
    fn task_set_reports_offending_index() {
        let err = TaskSet::from_ps(&[1.0, -2.0], &[1.0, 1.0]).unwrap_err();
        match err {
            ModelError::InvalidProcessingTime { task, .. } => assert_eq!(task, 1),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn indexing_by_id_and_usize_agree() {
        let ts = TaskSet::from_ps(&[1.0, 2.0], &[3.0, 4.0]).unwrap();
        assert_eq!(ts[TaskId(1)], ts[1usize]);
        assert_eq!(ts.get(0), ts[0]);
    }

    #[test]
    fn swapped_set_swaps_aggregates() {
        let ts = TaskSet::from_ps(&[1.0, 2.0], &[3.0, 5.0]).unwrap();
        let sw = ts.swapped();
        assert_eq!(sw.total_work(), ts.total_storage());
        assert_eq!(sw.max_storage(), ts.max_processing());
    }

    #[test]
    fn push_returns_dense_ids() {
        let mut ts = TaskSet::default();
        assert!(ts.is_empty());
        let a = ts.push(Task::new_unchecked(1.0, 1.0));
        let b = ts.push(Task::new_unchecked(2.0, 2.0));
        assert_eq!(a, TaskId(0));
        assert_eq!(b, TaskId(1));
        assert_eq!(ts.len(), 2);
    }
}
