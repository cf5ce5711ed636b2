//! Topological ordering and cycle detection (Kahn's algorithm).

use sws_model::error::ModelError;

use crate::graph::TaskGraph;

/// Computes a topological order of the task graph by Kahn's algorithm
/// with a FIFO ready queue: sources in index order, then each task as
/// its last predecessor is emitted. Deterministic, and `O(n + E)` on the
/// flat form.
///
/// Returns [`ModelError::CyclicPrecedence`] if the graph has a cycle.
pub fn topological_order(graph: &TaskGraph) -> Result<Vec<usize>, ModelError> {
    let n = graph.n();
    let mut in_deg: Vec<usize> = (0..n).map(|i| graph.in_degree(i)).collect();
    let mut order: Vec<usize> = (0..n).filter(|&i| in_deg[i] == 0).collect();
    order.reserve(n - order.len());
    let mut head = 0;
    while let Some(&u) = order.get(head) {
        head += 1;
        for &v in graph.succs(u) {
            let v = v as usize;
            in_deg[v] -= 1;
            if in_deg[v] == 0 {
                order.push(v);
            }
        }
    }
    if order.len() != n {
        return Err(ModelError::CyclicPrecedence);
    }
    Ok(order)
}

/// Whether the graph is acyclic.
pub fn is_acyclic(graph: &TaskGraph) -> bool {
    topological_order(graph).is_ok()
}

/// Verifies that `order` is a valid topological order of `graph`: it is a
/// permutation of `0..n` and every edge goes forward.
pub fn is_topological_order(graph: &TaskGraph, order: &[usize]) -> bool {
    let n = graph.n();
    if order.len() != n {
        return false;
    }
    let mut pos = vec![usize::MAX; n];
    for (rank, &v) in order.iter().enumerate() {
        if v >= n || pos[v] != usize::MAX {
            return false;
        }
        pos[v] = rank;
    }
    graph.edges().all(|(u, v)| pos[u] < pos[v])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{unit_tasks, TaskGraph};

    fn graph(n: usize, edges: &[(usize, usize)]) -> TaskGraph {
        TaskGraph::from_edges(unit_tasks(n), edges).unwrap()
    }

    #[test]
    fn chain_is_ordered_front_to_back() {
        let g = graph(4, &[(0, 1), (1, 2), (2, 3)]);
        let order = topological_order(&g).unwrap();
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert!(is_topological_order(&g, &order));
    }

    #[test]
    fn cycle_is_detected() {
        let g = graph(3, &[(0, 1), (1, 2), (2, 0)]);
        assert!(matches!(
            topological_order(&g),
            Err(ModelError::CyclicPrecedence)
        ));
        assert!(!is_acyclic(&g));
    }

    #[test]
    fn independent_tasks_come_out_in_index_order() {
        let g = TaskGraph::unit(5);
        assert_eq!(topological_order(&g).unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn order_respects_every_edge_of_a_diamond() {
        // Reverse-looking indices: 3 -> 1, 3 -> 2, 1 -> 0, 2 -> 0.
        let g = graph(4, &[(3, 1), (3, 2), (1, 0), (2, 0)]);
        let order = topological_order(&g).unwrap();
        assert!(is_topological_order(&g, &order));
        assert_eq!(order[0], 3);
        assert_eq!(order, vec![3, 1, 2, 0]);
    }

    #[test]
    fn validator_rejects_bad_orders() {
        let g = graph(3, &[(0, 1)]);
        assert!(!is_topological_order(&g, &[1, 0, 2]));
        assert!(!is_topological_order(&g, &[0, 1]));
        assert!(!is_topological_order(&g, &[0, 0, 1]));
        assert!(!is_topological_order(&g, &[0, 1, 5]));
    }

    #[test]
    fn empty_graph_has_empty_order() {
        let g = TaskGraph::unit(0);
        assert_eq!(topological_order(&g).unwrap(), Vec::<usize>::new());
        assert!(is_acyclic(&g));
    }
}
