//! Single dependence chain and related degenerate topologies.

use crate::graph::{unit_tasks, TaskGraph};

/// A chain of `n` unit tasks `0 → 1 → … → n−1`. The critical path equals
/// the total work, so no parallel schedule can beat sequential execution —
/// the worst case for the `|CP|` term of Lemma 5.
pub fn chain(n: usize) -> TaskGraph {
    let edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
    TaskGraph::from_edges(unit_tasks(n), &edges).expect("valid generator edges")
}

/// `k` disjoint chains of `len` unit tasks each: an embarrassingly
/// parallel workload at the chain granularity (useful to stress the memory
/// constraint while keeping the makespan structure trivial).
pub fn parallel_chains(k: usize, len: usize) -> TaskGraph {
    let edges: Vec<(usize, usize)> = (0..k)
        .flat_map(|c| (1..len).map(move |i| (c * len + i - 1, c * len + i)))
        .collect();
    TaskGraph::from_edges(unit_tasks(k * len), &edges).expect("valid generator edges")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::GraphStats;

    #[test]
    fn chain_structure() {
        let g = chain(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.critical_path_length(), 5.0);
        assert_eq!(g.sources(), vec![0]);
        assert_eq!(g.sinks(), vec![4]);
    }

    #[test]
    fn chain_of_one_has_no_edges() {
        let g = chain(1);
        assert_eq!(g.n(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn parallel_chains_structure() {
        let g = parallel_chains(3, 4);
        let st = GraphStats::of(&g);
        assert_eq!(st.n, 12);
        assert_eq!(st.edges, 9);
        assert_eq!(st.sources, 3);
        assert_eq!(st.sinks, 3);
        assert_eq!(st.depth, 4);
        assert_eq!(st.width, 3);
        assert_eq!(st.critical_path, 4.0);
    }

    #[test]
    fn empty_chain_is_allowed() {
        let g = chain(0);
        assert_eq!(g.n(), 0);
    }
}
