//! The task-graph structure and DAG instances — the one place raw
//! precedence edges enter the crate.

use std::sync::Arc;

use sws_model::error::ModelError;
use sws_model::task::{Task, TaskSet};
use sws_model::validate::CsrPreds;

use crate::csr::CsrDag;

/// A directed task graph: tasks (with processing time and storage
/// requirement) plus precedence edges `u → v` meaning "v cannot start
/// before u completes".
///
/// The adjacency lives in one flat [`CsrDag`] (both directions, `u32`
/// indices), built once from the edge list and shared behind an `Arc`
/// with every [`DagInstance`] and scheduling run over the graph.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskGraph {
    tasks: TaskSet,
    csr: Arc<CsrDag>,
}

/// `n` unit tasks (`p = s = 1`).
pub(crate) fn unit_tasks(n: usize) -> TaskSet {
    let mut tasks = TaskSet::default();
    for _ in 0..n {
        tasks.push(Task::new_unchecked(1.0, 1.0));
    }
    tasks
}

/// Refuses graphs whose task or edge count does not fit the flat form's
/// `u32` indices (task index `u32::MAX` stays free as a sentinel).
pub(crate) fn check_u32_indexable(n: usize, edges: usize) -> Result<(), ModelError> {
    if n < u32::MAX as usize && edges <= u32::MAX as usize {
        Ok(())
    } else {
        Err(ModelError::GraphTooLarge { n, edges })
    }
}

impl TaskGraph {
    /// Creates a graph with the given tasks and no edges.
    pub fn new(tasks: TaskSet) -> Self {
        let csr = Arc::new(CsrDag::from_valid_edges(&tasks, &[]));
        TaskGraph { tasks, csr }
    }

    /// Creates a graph of `n` unit tasks (`p = s = 1`) and no edges;
    /// convenient for structural tests.
    pub fn unit(n: usize) -> Self {
        TaskGraph::new(unit_tasks(n))
    }

    /// Builds a graph from tasks and an edge list `(u, v)` ("`v` waits for
    /// `u`") in `O(n + E)`. The first bad edge fails the build: an endpoint
    /// `>= n` is [`ModelError::EdgeOutOfRange`], a self-loop
    /// [`ModelError::CyclicPrecedence`] (longer cycles are left to
    /// [`DagInstance::new`]); too many edges for `u32` indices is
    /// [`ModelError::GraphTooLarge`]. A repeated edge is dropped, and every
    /// adjacency list keeps the order in which its edges first appear.
    pub fn from_edges(tasks: TaskSet, edges: &[(usize, usize)]) -> Result<Self, ModelError> {
        let n = tasks.len();
        check_u32_indexable(n, edges.len())?;
        for &(from, to) in edges {
            if from >= n || to >= n {
                return Err(ModelError::EdgeOutOfRange { from, to, n });
            }
            if from == to {
                return Err(ModelError::CyclicPrecedence);
            }
        }
        let csr = Arc::new(CsrDag::from_valid_edges(&tasks, edges));
        Ok(TaskGraph { tasks, csr })
    }

    /// Number of tasks.
    #[inline]
    pub fn n(&self) -> usize {
        self.tasks.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.csr.edge_count()
    }

    /// The task set.
    #[inline]
    pub fn tasks(&self) -> &TaskSet {
        &self.tasks
    }

    /// Task by index.
    #[inline]
    pub fn task(&self, i: usize) -> Task {
        self.tasks.get(i)
    }

    /// Predecessors of task `i`.
    #[inline]
    pub fn preds(&self, i: usize) -> &[u32] {
        self.csr.preds(i)
    }

    /// Successors of task `i`.
    #[inline]
    pub fn succs(&self, i: usize) -> &[u32] {
        self.csr.succs(i)
    }

    /// The full predecessor lists, as the borrowed CSR view
    /// `sws_model::validate::validate_timed` accepts.
    #[inline]
    pub fn all_preds(&self) -> CsrPreds<'_> {
        self.csr.pred_lists()
    }

    /// Iterates over every edge `(u, v)`, grouped by `u` in index order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n()).flat_map(move |u| self.succs(u).iter().map(move |&v| (u, v as usize)))
    }

    /// Tasks with no predecessors.
    pub fn sources(&self) -> Vec<usize> {
        (0..self.n()).filter(|&i| self.in_degree(i) == 0).collect()
    }

    /// Tasks with no successors.
    pub fn sinks(&self) -> Vec<usize> {
        (0..self.n()).filter(|&i| self.out_degree(i) == 0).collect()
    }

    /// In-degree of task `i`.
    #[inline]
    pub fn in_degree(&self, i: usize) -> usize {
        self.csr.in_degree(i)
    }

    /// Out-degree of task `i`.
    #[inline]
    pub fn out_degree(&self, i: usize) -> usize {
        self.csr.out_degree(i)
    }

    /// Whether the graph has no edges at all (independent tasks).
    pub fn is_independent(&self) -> bool {
        self.edge_count() == 0
    }

    /// A topological order of the tasks, or an error if the graph has a
    /// cycle (delegates to [`crate::topo::topological_order`]).
    pub fn topological_order(&self) -> Result<Vec<usize>, ModelError> {
        crate::topo::topological_order(self)
    }

    /// Length of the critical path (delegates to
    /// [`crate::levels::critical_path`]); `0.0` for an empty graph.
    pub fn critical_path_length(&self) -> f64 {
        crate::levels::critical_path(self)
    }

    /// The graph's flat form, shared with every instance and run built
    /// over it.
    #[inline]
    pub fn shared_csr(&self) -> &Arc<CsrDag> {
        &self.csr
    }

    /// An owned copy of the flat form, for callers that mutate it
    /// (`CsrDag::apply_delta`); read-only callers borrow
    /// [`TaskGraph::shared_csr`] instead.
    pub fn csr(&self) -> CsrDag {
        CsrDag::clone(&self.csr)
    }

    /// Returns a copy of the graph with new task costs but the same
    /// structure: `f(i)` provides the task for node `i`. Fails with the
    /// first invalid cost, like `TaskSet::new`. The adjacency arrays are
    /// copied, not rebuilt; only the costs and their quantization are.
    pub fn with_costs<F: FnMut(usize) -> Task>(&self, f: F) -> Result<TaskGraph, ModelError> {
        let tasks = TaskSet::new((0..self.n()).map(f).collect())?;
        let csr = Arc::new(self.csr.with_costs(&tasks));
        Ok(TaskGraph { tasks, csr })
    }
}

/// A precedence-constrained instance: a task graph plus the number of
/// identical processors.
#[derive(Debug, Clone, PartialEq)]
pub struct DagInstance {
    graph: TaskGraph,
    m: usize,
    /// The critical-path length, computed once at construction (the
    /// cycle check already produces the topological order it needs).
    /// Serving paths report the `Cmax ≥ |CP|` bound on every solve, so
    /// this must not cost a graph traversal per request.
    critical_path: f64,
    /// The critical-path-aware Graham makespan lower bound
    /// `max(|CP|, max_i p_i, Σp_i/m)`, cached for the same reason.
    cmax_lb: f64,
    /// The Graham memory lower bound `max(max_i s_i, Σs_i/m)` — the
    /// `LB` whose `∆·LB` cap RLS∆ enforces — cached for the same
    /// reason.
    mmax_lb: f64,
}

impl DagInstance {
    /// Builds an instance; fails when `m = 0` or the graph is cyclic.
    pub fn new(graph: TaskGraph, m: usize) -> Result<Self, ModelError> {
        if m == 0 {
            return Err(ModelError::NoProcessors);
        }
        let critical_path = crate::levels::checked_bottom_levels(&graph)?
            .into_iter()
            .fold(0.0, f64::max);
        let tasks = graph.tasks();
        let (cmax_lb, mmax_lb) = if tasks.is_empty() {
            (0.0, 0.0)
        } else {
            (
                sws_model::bounds::cmax_lower_bound_prec(tasks, m, critical_path),
                sws_model::bounds::mmax_lower_bound(tasks, m),
            )
        };
        Ok(DagInstance {
            graph,
            m,
            critical_path,
            cmax_lb,
            mmax_lb,
        })
    }

    /// The critical-path length of the instance's graph, cached at
    /// construction. Equal to `self.graph().critical_path_length()`
    /// without the per-call traversal.
    #[inline]
    pub fn critical_path_length(&self) -> f64 {
        self.critical_path
    }

    /// The critical-path-aware Graham makespan lower bound, cached at
    /// construction. Equal to
    /// `cmax_lower_bound_prec(tasks, m, critical_path)` (`0` for an
    /// empty task set).
    #[inline]
    pub fn cmax_lower_bound(&self) -> f64 {
        self.cmax_lb
    }

    /// The Graham memory lower bound `LB`, cached at construction.
    /// Equal to `mmax_lower_bound(tasks, m)` (`0` for an empty task
    /// set) — the value RLS∆ derives its `∆·LB` cap from.
    #[inline]
    pub fn mmax_lower_bound(&self) -> f64 {
        self.mmax_lb
    }

    /// Number of tasks.
    #[inline]
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Number of processors.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// The task graph.
    #[inline]
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// The task set.
    #[inline]
    pub fn tasks(&self) -> &TaskSet {
        self.graph.tasks()
    }

    /// The independent-task relaxation of this instance (same tasks and
    /// processors, precedence dropped) — used by lower bounds and by the
    /// SBO∆ comparison baselines.
    pub fn relaxation(&self) -> sws_model::Instance {
        sws_model::Instance::new(self.graph.tasks().clone(), self.m)
            // sws-lint: allow(panic-policy, reason = "m > 0 is checked by DagInstance::new")
            .expect("m > 0 checked at construction")
    }

    /// The instance's flat form, built once with the graph and shared:
    /// hand it (or a clone of the `Arc`) to every run over the instance.
    #[inline]
    pub fn shared_csr(&self) -> &Arc<CsrDag> {
        self.graph.shared_csr()
    }

    /// An owned copy of the flat form, for callers that mutate it
    /// (see [`TaskGraph::csr`]).
    pub fn csr(&self) -> CsrDag {
        self.graph.csr()
    }
}

/// The solver-layer view of a precedence-constrained instance: lets a
/// [`DagInstance`] travel inside `sws_model::solve::SolveRequest`.
/// DAG-aware backends recover the concrete type through `as_any` and
/// reuse the instance's shared flat form without rebuilding the graph.
impl sws_model::solve::PrecedenceInstance for DagInstance {
    fn tasks(&self) -> &TaskSet {
        self.graph.tasks()
    }

    fn m(&self) -> usize {
        self.m
    }

    fn preds(&self) -> CsrPreds<'_> {
        self.graph.all_preds()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> TaskGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        TaskGraph::from_edges(unit_tasks(4), &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn adjacency_lists_are_consistent() {
        let g = diamond();
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.succs(0), &[1, 2]);
        assert_eq!(g.preds(3), &[1, 2]);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.sources(), vec![0]);
        assert_eq!(g.sinks(), vec![3]);
    }

    #[test]
    fn parallel_edges_are_idempotent() {
        let g = TaskGraph::from_edges(unit_tasks(2), &[(0, 1), (0, 1)]).unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn self_loops_and_out_of_range_edges_are_rejected() {
        let build = |edges: &[(usize, usize)]| TaskGraph::from_edges(unit_tasks(2), edges);
        assert_eq!(build(&[(0, 0)]), Err(ModelError::CyclicPrecedence));
        assert_eq!(
            build(&[(0, 5)]),
            Err(ModelError::EdgeOutOfRange {
                from: 0,
                to: 5,
                n: 2
            })
        );
        assert_eq!(
            build(&[(7, 1)]),
            Err(ModelError::EdgeOutOfRange {
                from: 7,
                to: 1,
                n: 2
            })
        );
        // The first bad edge in list order decides the error.
        assert_eq!(
            build(&[(0, 1), (1, 1), (0, 9)]),
            Err(ModelError::CyclicPrecedence)
        );
    }

    #[test]
    fn graphs_past_u32_indexing_are_a_typed_error() {
        let max = u32::MAX as usize;
        assert_eq!(check_u32_indexable(max - 1, max), Ok(()));
        assert_eq!(
            check_u32_indexable(max, 0),
            Err(ModelError::GraphTooLarge { n: max, edges: 0 })
        );
        assert_eq!(
            check_u32_indexable(3, max + 1),
            Err(ModelError::GraphTooLarge {
                n: 3,
                edges: max + 1
            })
        );
    }

    #[test]
    fn edges_iterator_lists_every_edge_once() {
        let g = diamond();
        let mut edges: Vec<(usize, usize)> = g.edges().collect();
        edges.sort();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn with_costs_preserves_structure() {
        let g = diamond();
        let g2 = g
            .with_costs(|i| Task::new_unchecked(i as f64 + 1.0, 2.0))
            .unwrap();
        assert_eq!(g2.edge_count(), g.edge_count());
        assert_eq!(g2.task(2).p, 3.0);
        assert_eq!(g2.task(2).s, 2.0);
        assert_eq!(g2.shared_csr().p(2), 3.0);
        assert!(g2.edges().eq(g.edges()));
    }

    #[test]
    fn with_costs_rejects_an_invalid_cost() {
        let g = diamond();
        let nan = g.with_costs(|i| Task::new_unchecked(if i == 2 { f64::NAN } else { 1.0 }, 1.0));
        assert!(matches!(
            nan,
            Err(ModelError::InvalidProcessingTime { task: 2, value }) if value.is_nan()
        ));
        let negative = g.with_costs(|_| Task::new_unchecked(1.0, -1.0));
        assert_eq!(
            negative,
            Err(ModelError::InvalidStorage {
                task: 0,
                value: -1.0
            })
        );
    }

    #[test]
    fn transitive_reduction_removes_shortcut_edges() {
        // 0 -> 1 -> 2 plus the redundant shortcut 0 -> 2.
        let g = TaskGraph::from_edges(unit_tasks(3), &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let r = g.transitive_reduction();
        let mut edges: Vec<(usize, usize)> = r.edges().collect();
        edges.sort();
        assert_eq!(edges, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn transitive_reduction_keeps_diamond_intact() {
        let g = diamond();
        let r = g.transitive_reduction();
        assert_eq!(r.edge_count(), 4);
    }

    #[test]
    fn dag_instance_rejects_zero_processors_and_cycles() {
        let g = diamond();
        assert!(DagInstance::new(g.clone(), 0).is_err());
        assert!(DagInstance::new(g, 2).is_ok());
        let cyclic = TaskGraph::from_edges(unit_tasks(3), &[(0, 1), (1, 2), (2, 0)]).unwrap();
        assert_eq!(
            DagInstance::new(cyclic, 2),
            Err(ModelError::CyclicPrecedence)
        );
    }

    #[test]
    fn dag_instance_shares_the_graphs_flat_form() {
        let g = diamond();
        let inst = DagInstance::new(g.clone(), 2).unwrap();
        assert!(Arc::ptr_eq(inst.shared_csr(), g.shared_csr()));
        assert_eq!(inst.csr(), **g.shared_csr());
        assert_eq!(inst.critical_path_length(), 3.0);
    }

    #[test]
    fn relaxation_drops_precedence_but_keeps_tasks() {
        let inst = DagInstance::new(diamond(), 3).unwrap();
        let relaxed = inst.relaxation();
        assert_eq!(relaxed.n(), 4);
        assert_eq!(relaxed.m(), 3);
    }

    #[test]
    fn from_edges_builds_the_same_graph_as_incremental_insertion() {
        // Inserting the same edges with repeats gives the same graph.
        let a = diamond();
        let b = TaskGraph::from_edges(
            a.tasks().clone(),
            &[(0, 1), (0, 2), (0, 1), (1, 3), (2, 3), (1, 3)],
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_graph_is_independent() {
        let g = TaskGraph::unit(5);
        assert!(g.is_independent());
        assert_eq!(g.sources().len(), 5);
        assert_eq!(g.sinks().len(), 5);
    }
}
