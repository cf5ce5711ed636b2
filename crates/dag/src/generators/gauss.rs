//! Gaussian-elimination task graph.
//!
//! The classical task graph of (dense, unblocked) Gaussian elimination on
//! a `k × k` system, a standard benchmark DAG in the multiprocessor
//! scheduling literature and representative of the "large physics
//! applications" the paper's introduction motivates.
//!
//! For each elimination step `j = 0 .. k−2`:
//!
//! * a *pivot* task `P_j` normalizes row `j`,
//! * update tasks `U_{j,i}` (for `i = j+1 .. k−1`) eliminate column `j`
//!   from row `i`.
//!
//! Dependencies: `P_j → U_{j,i}`, `U_{j,j+1} → P_{j+1}` and
//! `U_{j,i} → U_{j+1,i}` for `i > j+1`.
//!
//! Costs model the shrinking active sub-matrix: at step `j` the active row
//! length is `k − j`, so both pivot and update tasks have processing time
//! proportional to `k − j` and storage proportional to the row they keep
//! resident (`k − j` entries).

// The index tables below are built and wired positionally; range loops are
// the clearest way to express the block indices.
#![allow(clippy::needless_range_loop)]

use sws_model::task::Task;

use crate::graph::TaskGraph;

/// Builds the Gaussian-elimination task graph for a `k × k` system
/// (`k ≥ 2`). Task count is `(k−1) + (k−1)k/2`.
pub fn gaussian_elimination(k: usize) -> TaskGraph {
    assert!(k >= 2, "Gaussian elimination needs k >= 2");
    // Index layout: for each step j, the pivot P_j then the updates
    // U_{j, j+1} .. U_{j, k-1}.
    let steps = k - 1;
    let mut pivot_idx = vec![0usize; steps];
    let mut update_idx = vec![vec![0usize; k]; steps]; // update_idx[j][i]
    let mut tasks: Vec<Task> = Vec::new();
    for j in 0..steps {
        let active = (k - j) as f64;
        pivot_idx[j] = tasks.len();
        tasks.push(Task::new_unchecked(active, active));
        for i in (j + 1)..k {
            update_idx[j][i] = tasks.len();
            tasks.push(Task::new_unchecked(active, active));
        }
    }
    let tasks = sws_model::task::TaskSet::new(tasks).expect("costs are positive");
    let mut edges = Vec::new();
    for j in 0..steps {
        for i in (j + 1)..k {
            edges.push((pivot_idx[j], update_idx[j][i]));
        }
        if j + 1 < steps {
            // The update of the next pivot row enables the next pivot.
            edges.push((update_idx[j][j + 1], pivot_idx[j + 1]));
            for i in (j + 2)..k {
                edges.push((update_idx[j][i], update_idx[j + 1][i]));
            }
        }
    }
    TaskGraph::from_edges(tasks, &edges).expect("valid generator edges")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::GraphStats;

    #[test]
    fn task_count_matches_closed_form() {
        for k in 2..8 {
            let g = gaussian_elimination(k);
            let expected = (k - 1) + (k - 1) * k / 2;
            assert_eq!(g.n(), expected, "k = {k}");
            assert!(g.topological_order().is_ok());
        }
    }

    #[test]
    fn smallest_instance_is_a_fork() {
        // k = 2: P_0 -> U_{0,1}.
        let g = gaussian_elimination(2);
        assert_eq!(g.n(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn structure_has_single_source_and_sink_chain_shape() {
        let g = gaussian_elimination(5);
        let st = GraphStats::of(&g);
        assert_eq!(st.sources, 1); // only P_0 has no predecessor
        assert!(st.depth >= 2 * (5 - 1) - 1);
        // Critical path follows the pivot chain: lengths 5 + 5 + 4 + 4 + 3 + 3 + 2.
        assert!(st.critical_path >= 2.0 * (3 + 4 + 5) as f64 - 5.0);
    }

    #[test]
    fn costs_shrink_with_the_active_submatrix() {
        let g = gaussian_elimination(4);
        // First task is P_0 with cost k = 4; last task is the step-2 update
        // with cost 2.
        assert_eq!(g.task(0).p, 4.0);
        assert_eq!(g.task(g.n() - 1).p, 2.0);
    }

    #[test]
    #[should_panic]
    fn k1_is_rejected() {
        let _ = gaussian_elimination(1);
    }
}
