//! Error types shared by the model layer.

use std::fmt;

/// Errors raised when constructing or validating instances and schedules.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// An instance or schedule was built with zero processors.
    NoProcessors,
    /// An instance was built with no tasks where at least one is required.
    NoTasks,
    /// A task carries a negative or non-finite processing time.
    InvalidProcessingTime { task: usize, value: f64 },
    /// A task carries a negative or non-finite storage requirement.
    InvalidStorage { task: usize, value: f64 },
    /// Mismatched lengths between parallel arrays (e.g. `p` and `s`).
    LengthMismatch { left: usize, right: usize },
    /// An assignment maps a task to a processor index `>= m`.
    ProcessorOutOfRange { task: usize, proc: usize, m: usize },
    /// An assignment or timed schedule does not cover every task exactly once.
    IncompleteAssignment { expected: usize, got: usize },
    /// A timed schedule starts a task at a negative time.
    NegativeStart { task: usize, start: f64 },
    /// Two tasks overlap in time on the same processor.
    Overlap {
        proc: usize,
        first: usize,
        second: usize,
    },
    /// A precedence constraint `pred -> task` is violated.
    PrecedenceViolation { pred: usize, task: usize },
    /// A processor exceeds a given memory capacity.
    MemoryExceeded {
        proc: usize,
        used: f64,
        capacity: f64,
    },
    /// The precedence relation contains a cycle.
    CyclicPrecedence,
    /// A precedence edge `from → to` names a task index `>= n`.
    EdgeOutOfRange { from: usize, to: usize, n: usize },
    /// A task graph has more tasks or edges than its `u32`-indexed flat
    /// (CSR) form can address.
    GraphTooLarge { n: usize, edges: usize },
    /// A parameter is outside its admissible domain (e.g. `∆ ≤ 2` for RLS).
    InvalidParameter {
        name: &'static str,
        value: f64,
        constraint: &'static str,
    },
    /// No registered solver backend can serve a request at the required
    /// guarantee level (see `sws_model::solve` and the portfolio layer).
    NoQualifiedBackend {
        objective: &'static str,
        guarantee: &'static str,
        n: usize,
        m: usize,
    },
    /// A memory-budget request could not be met: every evaluated schedule
    /// exceeded the budget (deciding feasibility exactly is NP-complete,
    /// so "not found" is the strongest honest answer — see Section 7).
    BudgetNotMet { best_mmax: f64, budget: f64 },
    /// A cooperative [`CancelProbe`](crate::cancel::CancelProbe) tripped
    /// mid-solve: the caller cancelled the request or its deadline
    /// passed. The solver stopped at a round boundary and its workspace
    /// remains reusable.
    Interrupted {
        reason: crate::cancel::InterruptReason,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::NoProcessors => write!(f, "instance has no processors"),
            ModelError::NoTasks => write!(f, "instance has no tasks"),
            ModelError::InvalidProcessingTime { task, value } => {
                write!(f, "task {task} has invalid processing time {value}")
            }
            ModelError::InvalidStorage { task, value } => {
                write!(f, "task {task} has invalid storage requirement {value}")
            }
            ModelError::LengthMismatch { left, right } => {
                write!(
                    f,
                    "parallel arrays have mismatched lengths {left} != {right}"
                )
            }
            ModelError::ProcessorOutOfRange { task, proc, m } => {
                write!(
                    f,
                    "task {task} assigned to processor {proc} but only {m} processors exist"
                )
            }
            ModelError::IncompleteAssignment { expected, got } => {
                write!(
                    f,
                    "assignment covers {got} tasks but the instance has {expected}"
                )
            }
            ModelError::NegativeStart { task, start } => {
                write!(f, "task {task} starts at negative time {start}")
            }
            ModelError::Overlap {
                proc,
                first,
                second,
            } => {
                write!(f, "tasks {first} and {second} overlap on processor {proc}")
            }
            ModelError::PrecedenceViolation { pred, task } => {
                write!(
                    f,
                    "task {task} starts before its predecessor {pred} completes"
                )
            }
            ModelError::MemoryExceeded {
                proc,
                used,
                capacity,
            } => {
                write!(
                    f,
                    "processor {proc} uses {used} memory units, capacity is {capacity}"
                )
            }
            ModelError::CyclicPrecedence => write!(f, "precedence relation contains a cycle"),
            ModelError::EdgeOutOfRange { from, to, n } => {
                write!(f, "edge {from} -> {to} names a task outside 0..{n}")
            }
            ModelError::GraphTooLarge { n, edges } => {
                write!(f, "{n} tasks and {edges} edges exceed u32 indexing")
            }
            ModelError::InvalidParameter {
                name,
                value,
                constraint,
            } => {
                write!(
                    f,
                    "parameter {name} = {value} violates constraint {constraint}"
                )
            }
            ModelError::NoQualifiedBackend {
                objective,
                guarantee,
                n,
                m,
            } => {
                write!(
                    f,
                    "no backend serves a {objective} request at guarantee '{guarantee}' \
                     for n = {n}, m = {m}"
                )
            }
            ModelError::BudgetNotMet { best_mmax, budget } => {
                write!(
                    f,
                    "no evaluated schedule met the memory budget {budget} (best Mmax: {best_mmax})"
                )
            }
            ModelError::Interrupted { reason } => {
                write!(f, "solve interrupted mid-run ({})", reason.label())
            }
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = ModelError::MemoryExceeded {
            proc: 3,
            used: 12.5,
            capacity: 10.0,
        };
        let msg = e.to_string();
        assert!(msg.contains("processor 3"));
        assert!(msg.contains("12.5"));
        assert!(msg.contains("10"));
    }

    #[test]
    fn errors_compare_by_value() {
        assert_eq!(ModelError::NoProcessors, ModelError::NoProcessors);
        assert_ne!(
            ModelError::NoProcessors,
            ModelError::IncompleteAssignment {
                expected: 3,
                got: 2
            }
        );
    }

    #[test]
    fn error_trait_object_is_usable() {
        let e: Box<dyn std::error::Error> = Box::new(ModelError::CyclicPrecedence);
        assert!(e.to_string().contains("cycle"));
    }
}
