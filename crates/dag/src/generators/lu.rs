//! Blocked (right-looking) LU-factorization task graph.
//!
//! For a matrix partitioned into `b × b` blocks, elimination step
//! `k = 0 .. b−1` produces:
//!
//! * `DIAG(k)` — factor the diagonal block `A[k][k]`,
//! * `LSOLVE(k, i)` for `i > k` — triangular solve of the column panel,
//! * `USOLVE(k, j)` for `j > k` — triangular solve of the row panel,
//! * `UPDATE(k, i, j)` for `i, j > k` — trailing-matrix GEMM update.
//!
//! Dependencies: `DIAG(k) → LSOLVE(k,·), USOLVE(k,·)`;
//! `LSOLVE(k,i), USOLVE(k,j) → UPDATE(k,i,j)`;
//! `UPDATE(k,i,j) → DIAG(k+1)` if `i = j = k+1`,
//! `→ LSOLVE(k+1,i)` if `j = k+1`, `→ USOLVE(k+1,j)` if `i = k+1`,
//! and `→ UPDATE(k+1,i,j)` otherwise.
//!
//! Costs (per block of side `nb`, normalized to `nb = 1`): `DIAG` ≈ 1/3,
//! `SOLVE` ≈ 1/2, `UPDATE` ≈ 1 flop units; storage is one block for the
//! panels and two blocks for updates (the block plus the incoming panel).

// The index tables below are built and wired positionally; range loops are
// the clearest way to express the block indices.
#![allow(clippy::needless_range_loop)]

use sws_model::task::{Task, TaskSet};

use crate::graph::TaskGraph;

/// Builds the blocked LU task graph for `b` block rows/columns (`b ≥ 1`).
pub fn lu_factorization(b: usize) -> TaskGraph {
    assert!(b >= 1, "LU needs at least one block");
    // Index maps. usize::MAX marks "absent".
    const ABSENT: usize = usize::MAX;
    let mut diag = vec![ABSENT; b];
    let mut lsolve = vec![vec![ABSENT; b]; b]; // lsolve[k][i]
    let mut usolve = vec![vec![ABSENT; b]; b]; // usolve[k][j]
    let mut update = vec![vec![vec![ABSENT; b]; b]; b]; // update[k][i][j]
    let mut tasks: Vec<Task> = Vec::new();

    for k in 0..b {
        diag[k] = tasks.len();
        tasks.push(Task::new_unchecked(1.0 / 3.0, 1.0));
        for i in (k + 1)..b {
            lsolve[k][i] = tasks.len();
            tasks.push(Task::new_unchecked(0.5, 1.0));
        }
        for j in (k + 1)..b {
            usolve[k][j] = tasks.len();
            tasks.push(Task::new_unchecked(0.5, 1.0));
        }
        for i in (k + 1)..b {
            for j in (k + 1)..b {
                update[k][i][j] = tasks.len();
                tasks.push(Task::new_unchecked(1.0, 2.0));
            }
        }
    }

    let mut edges = Vec::new();
    for k in 0..b {
        for i in (k + 1)..b {
            edges.push((diag[k], lsolve[k][i]));
            edges.push((diag[k], usolve[k][i]));
        }
        for i in (k + 1)..b {
            for j in (k + 1)..b {
                edges.push((lsolve[k][i], update[k][i][j]));
                edges.push((usolve[k][j], update[k][i][j]));
                // Route the updated block to the consumer at step k + 1.
                if k + 1 < b {
                    let target = if i == k + 1 && j == k + 1 {
                        diag[k + 1]
                    } else if j == k + 1 {
                        lsolve[k + 1][i]
                    } else if i == k + 1 {
                        usolve[k + 1][j]
                    } else {
                        update[k + 1][i][j]
                    };
                    edges.push((update[k][i][j], target));
                }
            }
        }
    }
    TaskGraph::from_edges(TaskSet::new(tasks).expect("costs are positive"), &edges)
        .expect("valid generator edges")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::GraphStats;

    fn expected_task_count(b: usize) -> usize {
        // Σ_k 1 + 2(b-1-k) + (b-1-k)^2 = Σ_{r=0}^{b-1} (r + 1)^2 where r = b-1-k
        (1..=b).map(|r| r * r).sum()
    }

    #[test]
    fn task_count_matches_closed_form() {
        for b in 1..6 {
            let g = lu_factorization(b);
            assert_eq!(g.n(), expected_task_count(b), "b = {b}");
            assert!(g.topological_order().is_ok());
        }
    }

    #[test]
    fn single_block_is_one_task() {
        let g = lu_factorization(1);
        assert_eq!(g.n(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn two_blocks_have_the_classic_five_task_shape() {
        // DIAG(0), LSOLVE(0,1), USOLVE(0,1), UPDATE(0,1,1), DIAG(1).
        let g = lu_factorization(2);
        assert_eq!(g.n(), 5);
        let st = GraphStats::of(&g);
        assert_eq!(st.sources, 1);
        assert_eq!(st.sinks, 1);
        assert_eq!(st.depth, 4);
    }

    #[test]
    fn critical_path_grows_with_block_count() {
        let cp3 = lu_factorization(3).critical_path_length();
        let cp5 = lu_factorization(5).critical_path_length();
        assert!(cp5 > cp3);
    }

    #[test]
    fn update_tasks_carry_more_storage_than_panels() {
        let g = lu_factorization(3);
        let max_s = g.tasks().max_storage();
        assert_eq!(max_s, 2.0);
    }
}
