//! 2-D stencil / wavefront ("diamond") dependency grids.

use crate::graph::{unit_tasks, TaskGraph};

/// A `rows × cols` wavefront grid: task `(i, j)` depends on `(i−1, j)` and
/// `(i, j−1)`. This is the dependency pattern of dynamic-programming
/// sweeps and stencil wavefronts; the critical path is `rows + cols − 1`.
pub fn diamond_grid(rows: usize, cols: usize) -> TaskGraph {
    assert!(rows >= 1 && cols >= 1, "grid needs at least one cell");
    let idx = |i: usize, j: usize| i * cols + j;
    let mut edges = Vec::with_capacity(2 * rows * cols);
    for i in 0..rows {
        for j in 0..cols {
            if i + 1 < rows {
                edges.push((idx(i, j), idx(i + 1, j)));
            }
            if j + 1 < cols {
                edges.push((idx(i, j), idx(i, j + 1)));
            }
        }
    }
    TaskGraph::from_edges(unit_tasks(rows * cols), &edges).expect("valid generator edges")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::GraphStats;

    #[test]
    fn square_grid_shape() {
        let g = diamond_grid(3, 3);
        let st = GraphStats::of(&g);
        assert_eq!(st.n, 9);
        // Edges: 2 * rows * cols - rows - cols = 18 - 6 = 12.
        assert_eq!(st.edges, 12);
        assert_eq!(st.sources, 1);
        assert_eq!(st.sinks, 1);
        assert_eq!(st.depth, 5); // i + j ranges 0..=4
        assert_eq!(st.critical_path, 5.0);
        assert_eq!(st.width, 3); // the anti-diagonal
    }

    #[test]
    fn single_row_is_a_chain() {
        let g = diamond_grid(1, 6);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.critical_path_length(), 6.0);
    }

    #[test]
    fn rectangular_grid_critical_path() {
        let g = diamond_grid(2, 5);
        assert_eq!(g.critical_path_length(), 6.0);
        assert_eq!(g.n(), 10);
    }

    #[test]
    #[should_panic]
    fn empty_grid_is_rejected() {
        let _ = diamond_grid(0, 3);
    }
}
