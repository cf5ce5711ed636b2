//! Top/bottom levels and the critical-path lower bound.
//!
//! The critical path (the longest chain of processing times) is the `|CP|`
//! lower bound used in the proof of Lemma 5 of the paper: no schedule can
//! finish before the longest chain has executed sequentially.

use sws_model::error::ModelError;

use crate::graph::TaskGraph;

/// Top level of each task: the length of the longest path *ending just
/// before* the task, i.e. the earliest possible start time on an infinite
/// number of processors. Sources have top level 0.
pub fn top_levels(graph: &TaskGraph) -> Vec<f64> {
    let order = graph
        .topological_order()
        .expect("top levels require an acyclic graph");
    let mut top = vec![0.0f64; graph.n()];
    for &u in &order {
        let end_u = top[u] + graph.task(u).p;
        for &v in graph.succs(u) {
            let v = v as usize;
            if end_u > top[v] {
                top[v] = end_u;
            }
        }
    }
    top
}

/// Bottom level of each task: the length of the longest path *starting at*
/// the task, including the task's own processing time. This is the classic
/// priority used by critical-path list scheduling (HLF).
pub fn bottom_levels(graph: &TaskGraph) -> Vec<f64> {
    checked_bottom_levels(graph).expect("bottom levels require an acyclic graph")
}

/// [`bottom_levels`], or [`ModelError::CyclicPrecedence`] — the cycle
/// check and the `|CP|` bound of [`crate::DagInstance::new`] in one
/// pass. Each task takes the maximum over its successors in list order,
/// so the bits do not depend on which topological order feeds the pass.
pub(crate) fn checked_bottom_levels(graph: &TaskGraph) -> Result<Vec<f64>, ModelError> {
    let order = graph.topological_order()?;
    let mut bottom = vec![0.0f64; graph.n()];
    for &u in order.iter().rev() {
        let best_succ = graph
            .succs(u)
            .iter()
            .map(|&v| bottom[v as usize])
            .fold(0.0f64, f64::max);
        bottom[u] = graph.task(u).p + best_succ;
    }
    Ok(bottom)
}

/// Length of the critical path: the longest chain of processing times in
/// the graph, `max_i bottom_level(i)`. Returns `0.0` for an empty graph.
pub fn critical_path(graph: &TaskGraph) -> f64 {
    bottom_levels(graph).into_iter().fold(0.0, f64::max)
}

/// The tasks of one longest path, from a source to a sink. Useful for
/// reporting which chain limits the makespan. Returns an empty vector for
/// an empty graph.
pub fn critical_path_tasks(graph: &TaskGraph) -> Vec<usize> {
    if graph.n() == 0 {
        return Vec::new();
    }
    let bottom = bottom_levels(graph);
    // Start from the task with the largest bottom level.
    let mut current = (0..graph.n())
        .max_by(|&a, &b| sws_model::numeric::total_cmp(bottom[a], bottom[b]))
        .expect("non-empty graph");
    // Walk down to a source first? bottom levels start at any task; the
    // maximum is always attained at some source of the longest chain, so
    // `current` already starts the chain.
    let mut path = vec![current];
    loop {
        // Follow the successor whose bottom level equals ours minus our p.
        let expected = bottom[current] - graph.task(current).p;
        if expected <= 0.0 && graph.succs(current).is_empty() {
            break;
        }
        let next = graph
            .succs(current)
            .iter()
            .map(|&v| v as usize)
            .find(|&v| sws_model::numeric::approx_eq(bottom[v], expected));
        match next {
            Some(v) => {
                path.push(v);
                current = v;
            }
            None => break,
        }
    }
    path
}

/// Depth of the graph: number of tasks on the longest chain counted by
/// cardinality (not by processing time).
pub fn depth(graph: &TaskGraph) -> usize {
    let order = match graph.topological_order() {
        Ok(o) => o,
        Err(_) => return 0,
    };
    let mut d = vec![1usize; graph.n()];
    let mut best = if graph.n() == 0 { 0 } else { 1 };
    for &u in &order {
        for &v in graph.succs(u) {
            let v = v as usize;
            if d[u] + 1 > d[v] {
                d[v] = d[u] + 1;
                best = best.max(d[v]);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TaskGraph;
    use sws_model::task::{Task, TaskSet};

    fn weighted_diamond() -> TaskGraph {
        // 0 (p=1) -> 1 (p=2) -> 3 (p=1)
        //        \-> 2 (p=5) -/
        let tasks = TaskSet::new(vec![
            Task::new_unchecked(1.0, 1.0),
            Task::new_unchecked(2.0, 1.0),
            Task::new_unchecked(5.0, 1.0),
            Task::new_unchecked(1.0, 1.0),
        ])
        .unwrap();
        TaskGraph::from_edges(tasks, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn top_levels_are_earliest_starts() {
        let g = weighted_diamond();
        let top = top_levels(&g);
        assert_eq!(top[0], 0.0);
        assert_eq!(top[1], 1.0);
        assert_eq!(top[2], 1.0);
        assert_eq!(top[3], 6.0); // via the long branch 0 -> 2
    }

    #[test]
    fn bottom_levels_include_own_processing_time() {
        let g = weighted_diamond();
        let bottom = bottom_levels(&g);
        assert_eq!(bottom[3], 1.0);
        assert_eq!(bottom[1], 3.0);
        assert_eq!(bottom[2], 6.0);
        assert_eq!(bottom[0], 7.0);
    }

    #[test]
    fn critical_path_is_the_longest_chain() {
        let g = weighted_diamond();
        assert_eq!(critical_path(&g), 7.0);
        let path = critical_path_tasks(&g);
        assert_eq!(path, vec![0, 2, 3]);
    }

    #[test]
    fn independent_tasks_critical_path_is_longest_task() {
        let tasks = TaskSet::from_ps(&[1.0, 4.0, 2.0], &[1.0; 3]).unwrap();
        let g = TaskGraph::new(tasks);
        assert_eq!(critical_path(&g), 4.0);
        assert_eq!(depth(&g), 1);
    }

    #[test]
    fn depth_counts_tasks_not_time() {
        let g = weighted_diamond();
        assert_eq!(depth(&g), 3);
        let edges: Vec<(usize, usize)> = (0..4).map(|i| (i, i + 1)).collect();
        let chain = TaskGraph::from_edges(TaskGraph::unit(5).tasks().clone(), &edges).unwrap();
        assert_eq!(depth(&chain), 5);
    }

    #[test]
    fn empty_graph_levels_are_empty() {
        let g = TaskGraph::unit(0);
        assert!(top_levels(&g).is_empty());
        assert_eq!(critical_path(&g), 0.0);
        assert!(critical_path_tasks(&g).is_empty());
        assert_eq!(depth(&g), 0);
    }

    #[test]
    fn critical_path_matches_lower_bound_usage() {
        // The critical path is a valid lower bound: any single chain's
        // total processing time is <= critical_path.
        let g = weighted_diamond();
        let cp = critical_path(&g);
        // chain 0 -> 1 -> 3 has length 4 <= 7
        assert!(4.0 <= cp);
    }
}
