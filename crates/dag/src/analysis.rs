//! Structural statistics of task graphs, used in experiment logs.

use crate::graph::TaskGraph;
use crate::levels::{critical_path, depth, top_levels};

/// Summary statistics of a task graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of tasks.
    pub n: usize,
    /// Number of precedence edges.
    pub edges: usize,
    /// Number of source tasks (no predecessors).
    pub sources: usize,
    /// Number of sink tasks (no successors).
    pub sinks: usize,
    /// Depth: number of tasks on the longest chain.
    pub depth: usize,
    /// Width: the largest number of tasks sharing the same "level index"
    /// (an upper bound estimate of available parallelism).
    pub width: usize,
    /// Critical path length (longest chain of processing times).
    pub critical_path: f64,
    /// Total work `Σ p_i`.
    pub total_work: f64,
    /// Total storage `Σ s_i`.
    pub total_storage: f64,
    /// Maximum in-degree.
    pub max_in_degree: usize,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Average parallelism `Σ p_i / critical_path` (∞ mapped to total work
    /// when the critical path is zero, i.e. the empty graph).
    pub average_parallelism: f64,
}

impl GraphStats {
    /// Computes the statistics of an acyclic task graph.
    pub fn of(graph: &TaskGraph) -> GraphStats {
        let n = graph.n();
        let cp = critical_path(graph);
        let total_work = graph.tasks().total_work();
        let width = level_width(graph);
        GraphStats {
            n,
            edges: graph.edge_count(),
            sources: graph.sources().len(),
            sinks: graph.sinks().len(),
            depth: depth(graph),
            width,
            critical_path: cp,
            total_work,
            total_storage: graph.tasks().total_storage(),
            max_in_degree: (0..n).map(|i| graph.in_degree(i)).max().unwrap_or(0),
            max_out_degree: (0..n).map(|i| graph.out_degree(i)).max().unwrap_or(0),
            average_parallelism: if cp > 0.0 {
                total_work / cp
            } else {
                total_work
            },
        }
    }
}

/// Width estimate: tasks are bucketed by their depth index (number of
/// tasks on the longest chain ending at them) and the largest bucket size
/// is returned. This is the usual "level width" of layered scheduling
/// literature; it upper-bounds the parallelism exploitable level by level.
pub fn level_width(graph: &TaskGraph) -> usize {
    let n = graph.n();
    if n == 0 {
        return 0;
    }
    let order = graph
        .topological_order()
        .expect("width requires an acyclic graph");
    let mut level = vec![0usize; n];
    for &u in &order {
        for &v in graph.succs(u) {
            let v = v as usize;
            level[v] = level[v].max(level[u] + 1);
        }
    }
    let max_level = level.iter().copied().max().unwrap_or(0);
    let mut counts = vec![0usize; max_level + 1];
    for &l in &level {
        counts[l] += 1;
    }
    counts.into_iter().max().unwrap_or(0)
}

/// Per-level grouping of tasks (tasks bucketed by longest-chain depth);
/// exposed for the layered generators' tests and the Gantt annotations.
pub fn levels_by_depth(graph: &TaskGraph) -> Vec<Vec<usize>> {
    let n = graph.n();
    if n == 0 {
        return Vec::new();
    }
    let order = graph
        .topological_order()
        .expect("levels require an acyclic graph");
    let mut level = vec![0usize; n];
    for &u in &order {
        for &v in graph.succs(u) {
            let v = v as usize;
            level[v] = level[v].max(level[u] + 1);
        }
    }
    let max_level = level.iter().copied().max().unwrap_or(0);
    let mut buckets = vec![Vec::new(); max_level + 1];
    for (i, &l) in level.iter().enumerate() {
        buckets[l].push(i);
    }
    buckets
}

/// Checks the structural sanity of a generated graph: acyclic, level
/// widths and the earliest-start profile consistent. Used by property
/// tests over all generators.
pub fn structurally_sound(graph: &TaskGraph) -> bool {
    if graph.topological_order().is_err() {
        return false;
    }
    let top = top_levels(graph);
    // Every successor must start no earlier than its predecessor's end.
    graph
        .edges()
        .all(|(u, v)| top[v] + 1e-9 >= top[u] + graph.task(u).p)
}

impl TaskGraph {
    /// The transitive reduction is not needed by the algorithms, but the
    /// generators occasionally produce redundant edges; this removes any
    /// edge `u → v` for which a longer path `u ⇝ v` exists. Runs in
    /// O(n·(n+e)) which is fine for generator-sized graphs.
    pub fn transitive_reduction(&self) -> TaskGraph {
        let order = self
            .topological_order()
            .expect("transitive reduction requires an acyclic graph");
        let n = self.n();
        // reach[u] = set of vertices reachable from u via paths of length >= 1,
        // computed bottom-up in reverse topological order.
        let mut reach: Vec<Vec<bool>> = vec![vec![false; n]; n];
        for &u in order.iter().rev() {
            for &v in self.succs(u) {
                let v = v as usize;
                // Everything reachable from v is reachable from u.
                let (ru, rv) = if u < v {
                    let (l, r) = reach.split_at_mut(v);
                    (&mut l[u], &r[0])
                } else {
                    let (l, r) = reach.split_at_mut(u);
                    (&mut r[0], &l[v])
                };
                for (a, &b) in ru.iter_mut().zip(rv.iter()) {
                    *a |= b;
                }
                ru[v] = true;
            }
        }
        // An edge u -> v is redundant if some other successor w of u reaches v.
        let edges: Vec<(usize, usize)> = self
            .edges()
            .filter(|&(u, v)| {
                !self
                    .succs(u)
                    .iter()
                    .any(|&w| w as usize != v && reach[w as usize][v])
            })
            .collect();
        TaskGraph::from_edges(self.tasks().clone(), &edges).expect("a subset of valid edges")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TaskGraph;

    fn diamond() -> TaskGraph {
        let edges = [(0, 1), (0, 2), (1, 3), (2, 3)];
        TaskGraph::from_edges(TaskGraph::unit(4).tasks().clone(), &edges).unwrap()
    }

    #[test]
    fn stats_of_a_diamond() {
        let st = GraphStats::of(&diamond());
        assert_eq!(st.n, 4);
        assert_eq!(st.edges, 4);
        assert_eq!(st.sources, 1);
        assert_eq!(st.sinks, 1);
        assert_eq!(st.depth, 3);
        assert_eq!(st.width, 2);
        assert_eq!(st.critical_path, 3.0);
        assert_eq!(st.max_in_degree, 2);
        assert_eq!(st.max_out_degree, 2);
        assert!((st.average_parallelism - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn width_of_independent_tasks_is_n() {
        let g = TaskGraph::unit(7);
        assert_eq!(level_width(&g), 7);
        assert_eq!(GraphStats::of(&g).depth, 1);
    }

    #[test]
    fn levels_by_depth_partition_all_tasks() {
        let g = diamond();
        let levels = levels_by_depth(&g);
        assert_eq!(levels.len(), 3);
        assert_eq!(levels[0], vec![0]);
        assert_eq!(levels[1], vec![1, 2]);
        assert_eq!(levels[2], vec![3]);
        let total: usize = levels.iter().map(|l| l.len()).sum();
        assert_eq!(total, g.n());
    }

    #[test]
    fn soundness_check_accepts_valid_graphs() {
        assert!(structurally_sound(&diamond()));
        assert!(structurally_sound(&TaskGraph::unit(3)));
    }

    #[test]
    fn empty_graph_stats_are_zero() {
        let st = GraphStats::of(&TaskGraph::unit(0));
        assert_eq!(st.n, 0);
        assert_eq!(st.width, 0);
        assert_eq!(st.depth, 0);
        assert_eq!(st.critical_path, 0.0);
    }
}
