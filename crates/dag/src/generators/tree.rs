//! In-trees (reductions) and out-trees (broadcasts).

use crate::graph::{unit_tasks, TaskGraph};

/// Number of nodes of a complete `arity`-ary tree with `depth` levels
/// (depth 1 = a single root).
fn tree_size(depth: usize, arity: usize) -> usize {
    if arity == 1 {
        return depth;
    }
    // (arity^depth - 1) / (arity - 1)
    let mut total = 0usize;
    let mut level = 1usize;
    for _ in 0..depth {
        total += level;
        level *= arity;
    }
    total
}

/// A complete out-tree (broadcast): the root at index 0 precedes its
/// children, which precede their children, etc. `depth` levels, branching
/// factor `arity`.
pub fn out_tree(depth: usize, arity: usize) -> TaskGraph {
    assert!(depth >= 1, "tree needs at least one level");
    assert!(arity >= 1, "tree needs arity >= 1");
    let n = tree_size(depth, arity);
    let mut edges = Vec::with_capacity(n);
    // Nodes are numbered level by level; node i's children are
    // arity*i + 1 .. arity*i + arity (heap numbering).
    for i in 0..n {
        for c in 1..=arity {
            let child = arity * i + c;
            if child < n {
                edges.push((i, child));
            }
        }
    }
    TaskGraph::from_edges(unit_tasks(n), &edges).expect("valid generator edges")
}

/// A complete in-tree (reduction): leaves precede internal nodes, the root
/// (index 0) is the sink. Same shape as [`out_tree`] with every edge
/// reversed.
pub fn in_tree(depth: usize, arity: usize) -> TaskGraph {
    assert!(depth >= 1, "tree needs at least one level");
    assert!(arity >= 1, "tree needs arity >= 1");
    let n = tree_size(depth, arity);
    let mut edges = Vec::with_capacity(n);
    for i in 0..n {
        for c in 1..=arity {
            let child = arity * i + c;
            if child < n {
                edges.push((child, i));
            }
        }
    }
    TaskGraph::from_edges(unit_tasks(n), &edges).expect("valid generator edges")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::GraphStats;

    #[test]
    fn binary_out_tree_shape() {
        let g = out_tree(3, 2);
        let st = GraphStats::of(&g);
        assert_eq!(st.n, 7);
        assert_eq!(st.edges, 6);
        assert_eq!(st.sources, 1);
        assert_eq!(st.sinks, 4);
        assert_eq!(st.depth, 3);
        assert_eq!(st.critical_path, 3.0);
        assert_eq!(st.max_out_degree, 2);
        assert_eq!(st.max_in_degree, 1);
    }

    #[test]
    fn binary_in_tree_is_the_reverse() {
        let g = in_tree(3, 2);
        let st = GraphStats::of(&g);
        assert_eq!(st.n, 7);
        assert_eq!(st.sources, 4);
        assert_eq!(st.sinks, 1);
        assert_eq!(st.max_in_degree, 2);
        assert_eq!(st.max_out_degree, 1);
        assert_eq!(g.sinks(), vec![0]);
    }

    #[test]
    fn unary_tree_is_a_chain() {
        let g = out_tree(5, 1);
        assert_eq!(g.n(), 5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.critical_path_length(), 5.0);
    }

    #[test]
    fn ternary_tree_size() {
        let g = out_tree(3, 3);
        assert_eq!(g.n(), 1 + 3 + 9);
    }

    #[test]
    #[should_panic]
    fn zero_depth_is_rejected() {
        let _ = out_tree(0, 2);
    }
}
