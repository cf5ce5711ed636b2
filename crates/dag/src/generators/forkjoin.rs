//! Repeated fork–join stages.

use crate::graph::{unit_tasks, TaskGraph};

/// A fork–join graph with `stages` stages of `width` parallel unit tasks
/// each, separated by single synchronization tasks:
///
/// ```text
/// fork₀ → {w parallel tasks} → join₀/fork₁ → {w parallel tasks} → … → join_last
/// ```
///
/// Total task count is `stages * width + stages + 1`.
pub fn fork_join(stages: usize, width: usize) -> TaskGraph {
    assert!(stages >= 1, "fork_join needs at least one stage");
    assert!(width >= 1, "fork_join needs width >= 1");
    let n = stages * width + stages + 1;
    let mut edges = Vec::with_capacity(2 * stages * width);
    // Node layout: sync nodes are 0, width+1, 2(width+1), ...; stage s's
    // parallel tasks are the `width` indices following sync node s.
    let sync = |s: usize| s * (width + 1);
    for s in 0..stages {
        let fork = sync(s);
        let join = sync(s + 1);
        for w in 0..width {
            let task = fork + 1 + w;
            edges.push((fork, task));
            edges.push((task, join));
        }
    }
    TaskGraph::from_edges(unit_tasks(n), &edges).expect("valid generator edges")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::GraphStats;

    #[test]
    fn single_stage_fork_join() {
        let g = fork_join(1, 3);
        let st = GraphStats::of(&g);
        assert_eq!(st.n, 5);
        assert_eq!(st.edges, 6);
        assert_eq!(st.sources, 1);
        assert_eq!(st.sinks, 1);
        assert_eq!(st.depth, 3);
        assert_eq!(st.width, 3);
        assert_eq!(st.critical_path, 3.0);
    }

    #[test]
    fn multi_stage_dimensions() {
        let g = fork_join(3, 4);
        let st = GraphStats::of(&g);
        assert_eq!(st.n, 3 * 4 + 3 + 1);
        // Each stage contributes 2*width edges.
        assert_eq!(st.edges, 3 * 8);
        // Depth: sync, task, sync, task, sync, task, sync = 2*stages + 1.
        assert_eq!(st.depth, 7);
        assert_eq!(st.critical_path, 7.0);
    }

    #[test]
    #[should_panic]
    fn zero_width_is_rejected() {
        let _ = fork_join(2, 0);
    }

    #[test]
    #[should_panic]
    fn zero_stages_is_rejected() {
        let _ = fork_join(0, 2);
    }
}
