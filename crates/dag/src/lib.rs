//! # sws-dag
//!
//! Task-graph (DAG) substrate for the precedence-constrained problem
//! `P | p_j, s_j, prec | Cmax, Mmax` studied in Section 5 of
//! *Scheduling with Storage Constraints* (Saule, Dutot, Mounié, IPDPS'08).
//!
//! The crate is self-contained (no external graph library):
//!
//! * [`graph`] — [`TaskGraph`] (tasks plus edges, built once from an
//!   edge list) and [`DagInstance`] (graph + processor count),
//! * [`csr`] — [`CsrDag`], the one flat adjacency form every graph,
//!   instance and scheduling run shares,
//! * [`topo`] — topological ordering and cycle detection,
//! * [`levels`] — top/bottom levels and the critical-path lower bound,
//! * [`analysis`] — structural statistics (depth, width, degrees),
//! * [`generators`] — synthetic task-graph families used by the
//!   evaluation harness (layered random graphs, fork–join, trees,
//!   diamond/stencil grids, Gaussian elimination, LU, FFT butterflies,
//!   chains and independent sets).
//!
//! # Example
//!
//! ```
//! use sws_dag::prelude::*;
//! use sws_model::task::{Task, TaskSet};
//!
//! // A small fork-join: 0 -> {1,2} -> 3.
//! let tasks = TaskSet::new(vec![Task::new_unchecked(1.0, 1.0); 4]).unwrap();
//! let g = TaskGraph::from_edges(tasks, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
//! assert_eq!(g.succs(0), &[1, 2]);
//! assert!(g.topological_order().is_ok());
//! assert_eq!(g.critical_path_length(), 3.0);
//!
//! // The instance shares the graph's flat form instead of rebuilding it.
//! let inst = DagInstance::new(g, 2).unwrap();
//! assert_eq!(inst.shared_csr().edge_count(), 4);
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod csr;
pub mod delta;
pub mod generators;
pub mod graph;
pub mod keys;
pub mod levels;
pub mod topo;

pub use csr::CsrDag;
pub use delta::CsrDelta;
pub use graph::{DagInstance, TaskGraph};
pub use keys::KeyTable;

/// Frequently used items.
pub mod prelude {
    pub use crate::analysis::GraphStats;
    pub use crate::csr::CsrDag;
    pub use crate::generators::{
        chain::chain,
        diamond::diamond_grid,
        erdos::layered_erdos,
        fft::fft_butterfly,
        forkjoin::fork_join,
        gauss::gaussian_elimination,
        independent::independent,
        layered::layered_random,
        lu::lu_factorization,
        tree::{in_tree, out_tree},
    };
    pub use crate::graph::{DagInstance, TaskGraph};
    pub use crate::levels::{bottom_levels, critical_path, top_levels};
    pub use crate::topo::{is_acyclic, topological_order};
}
