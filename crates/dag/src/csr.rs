//! Flat CSR (compressed sparse row) representation of a task graph.
//!
//! [`CsrDag`] is the one adjacency form of an instance. The scheduling
//! kernel walks adjacency lists and task costs on every round of its hot
//! loop, so they are laid out flat:
//!
//! * both directions of the adjacency as classic CSR — an `offsets`
//!   array of `n + 1` entries plus a single contiguous `edges` array —
//!   with `u32` indices (half the memory traffic of `usize` on 64-bit
//!   targets);
//! * the task costs as structure-of-arrays `f64` slices (`proc_time`,
//!   `mem_size`), so passes that only touch storage requirements (the
//!   admissibility probes) or only processing times (placement) stream
//!   one array instead of striding over pairs.
//!
//! A `CsrDag` is built **once per instance**, straight from the edge list
//! by [`crate::TaskGraph::from_edges`] (two counting sorts), and shared
//! behind an `Arc` by the [`crate::TaskGraph`], its
//! [`crate::DagInstance`] and every run over that instance
//! ([`crate::DagInstance::shared_csr`]). Each adjacency list keeps the
//! order in which its edges first appear in the edge list.

use crate::keys::KeyTable;
use sws_model::task::TaskSet;
use sws_model::validate::CsrPreds;

/// Flat form of a task graph: CSR adjacency in both directions plus
/// structure-of-arrays task costs.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrDag {
    n: usize,
    /// `pred_edges[pred_offsets[i]..pred_offsets[i+1]]` = predecessors of `i`.
    pred_offsets: Vec<u32>,
    pred_edges: Vec<u32>,
    /// `succ_edges[succ_offsets[i]..succ_offsets[i+1]]` = successors of `i`.
    succ_offsets: Vec<u32>,
    succ_edges: Vec<u32>,
    /// Processing time `p_i` per task.
    proc_time: Vec<f64>,
    /// Storage requirement `s_i` per task.
    mem_size: Vec<f64>,
    /// Order-preserving rank table over the pooled distinct cost values
    /// (`p` and `s` together); `None` when the instance has more
    /// distinct values than fit in `u32` ranks — consumers then fall
    /// back to the `f64` comparators.
    cost_keys: Option<KeyTable>,
    /// `p_rank[i]` = `cost_keys.rank_of(p_i)`; empty when saturated.
    p_rank: Vec<u32>,
    /// `s_rank[i]` = `cost_keys.rank_of(s_i)`; empty when saturated.
    s_rank: Vec<u32>,
}

impl CsrDag {
    /// Builds the flat form from an edge list that
    /// [`crate::TaskGraph::from_edges`] has checked (endpoints in range, no
    /// self-loops, `u32`-indexable): one stable counting sort per
    /// direction, repeated edges dropped after their first occurrence.
    pub(crate) fn from_valid_edges(tasks: &TaskSet, edges: &[(usize, usize)]) -> Self {
        let n = tasks.len();
        let (succ_offsets, succ_edges, dropped) =
            bucket_by(n, edges.iter().map(|&(u, v)| (u, v)), true);
        // The pred side repeats a pair exactly when the succ side does.
        let (pred_offsets, pred_edges, _) =
            bucket_by(n, edges.iter().map(|&(u, v)| (v, u)), dropped);
        Self::assemble([pred_offsets, pred_edges, succ_offsets, succ_edges], tasks)
    }

    /// Wraps the adjacency arrays with the costs of `tasks`, quantized
    /// in one sort (see [`KeyTable::build_ranked`]).
    fn assemble(
        [pred_offsets, pred_edges, succ_offsets, succ_edges]: [Vec<u32>; 4],
        tasks: &TaskSet,
    ) -> Self {
        let n = tasks.len();
        let (proc_time, mem_size): (Vec<f64>, Vec<f64>) =
            tasks.as_slice().iter().map(|t| (t.p, t.s)).unzip();
        let pooled = proc_time.iter().chain(&mem_size).copied();
        let (cost_keys, p_rank, s_rank) =
            match KeyTable::build_ranked(pooled, KeyTable::DEFAULT_LIMIT) {
                Some((table, mut p_rank)) => {
                    let s_rank = p_rank.split_off(n);
                    (Some(table), p_rank, s_rank)
                }
                None => (None, Vec::new(), Vec::new()),
            };
        CsrDag {
            n,
            pred_offsets,
            pred_edges,
            succ_offsets,
            succ_edges,
            proc_time,
            mem_size,
            cost_keys,
            p_rank,
            s_rank,
        }
    }

    /// The same adjacency with the costs of `tasks` (one task per node):
    /// the adjacency arrays are copied as they are, only the cost arrays
    /// and their quantization are rebuilt.
    pub(crate) fn with_costs(&self, tasks: &TaskSet) -> Self {
        let adjacency = [
            self.pred_offsets.clone(),
            self.pred_edges.clone(),
            self.succ_offsets.clone(),
            self.succ_edges.clone(),
        ];
        Self::assemble(adjacency, tasks)
    }

    /// A copy whose quantization table is dropped when it holds more than
    /// `key_limit` distinct values — tests lower the limit to exercise
    /// the saturated (`cost_keys = None`) fallback without 2³² floats.
    pub fn with_key_limit(&self, key_limit: usize) -> Self {
        let mut csr = self.clone();
        if csr.cost_keys.as_ref().is_some_and(|t| t.len() > key_limit) {
            csr.saturate_keys();
        }
        csr
    }

    /// Number of tasks.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.succ_edges.len()
    }

    /// Predecessors of task `i`.
    #[inline]
    pub fn preds(&self, i: usize) -> &[u32] {
        &self.pred_edges[self.pred_offsets[i] as usize..self.pred_offsets[i + 1] as usize]
    }

    /// Successors of task `i`.
    #[inline]
    pub fn succs(&self, i: usize) -> &[u32] {
        &self.succ_edges[self.succ_offsets[i] as usize..self.succ_offsets[i + 1] as usize]
    }

    /// In-degree of task `i`.
    #[inline]
    pub fn in_degree(&self, i: usize) -> usize {
        (self.pred_offsets[i + 1] - self.pred_offsets[i]) as usize
    }

    /// Out-degree of task `i`.
    #[inline]
    pub fn out_degree(&self, i: usize) -> usize {
        (self.succ_offsets[i + 1] - self.succ_offsets[i]) as usize
    }

    /// Processing time `p_i`.
    #[inline]
    pub fn p(&self, i: usize) -> f64 {
        self.proc_time[i]
    }

    /// Storage requirement `s_i`.
    #[inline]
    pub fn s(&self, i: usize) -> f64 {
        self.mem_size[i]
    }

    /// All processing times, indexed by task.
    #[inline]
    pub fn proc_times(&self) -> &[f64] {
        &self.proc_time
    }

    /// All storage requirements, indexed by task.
    #[inline]
    pub fn mem_sizes(&self) -> &[f64] {
        &self.mem_size
    }

    /// The quantization table over the instance's distinct cost values,
    /// or `None` when the instance saturated it (more distinct values
    /// than `u32` ranks — impossible below 2³² tasks in practice, but
    /// the fallback is kept honest by tests with a lowered limit).
    #[inline]
    pub fn cost_keys(&self) -> Option<&KeyTable> {
        self.cost_keys.as_ref()
    }

    /// Per-task `u32` ranks of the processing times (`rank order` =
    /// `f64 order`), or `None` when the table is saturated.
    #[inline]
    pub fn p_ranks(&self) -> Option<&[u32]> {
        self.cost_keys.as_ref().map(|_| self.p_rank.as_slice())
    }

    /// Per-task `u32` ranks of the storage requirements, or `None` when
    /// the table is saturated.
    #[inline]
    pub fn s_ranks(&self) -> Option<&[u32]> {
        self.cost_keys.as_ref().map(|_| self.s_rank.as_slice())
    }

    /// The predecessor lists as the borrowed CSR view accepted by
    /// [`sws_model::validate::validate_timed_preds`] — validation without
    /// materializing nested `Vec<Vec<usize>>` lists.
    #[inline]
    pub fn pred_lists(&self) -> CsrPreds<'_> {
        CsrPreds::new(&self.pred_offsets, &self.pred_edges)
    }

    /// Drops to the saturated exact-`f64` mode: the quantization table
    /// is discarded whole rather than renumbered (lossy re-bucketing is
    /// forbidden — see [`crate::keys`]). Consumers fall back to the
    /// `f64` comparators, which produce bit-identical schedules.
    fn saturate_keys(&mut self) {
        self.cost_keys = None;
        self.p_rank = Vec::new();
        self.s_rank = Vec::new();
    }

    /// Re-ranks one mutated cost value through
    /// [`KeyTable::rank_or_append`], saturating when the value breaks
    /// the existing rank order. `write` stores the fresh rank (assign
    /// for recosts, push for arrivals).
    fn requantize(&mut self, v: f64, write: impl FnOnce(&mut Self, u32)) {
        let Some(table) = &mut self.cost_keys else {
            return;
        };
        match table.rank_or_append(v) {
            Some(r) => write(self, r),
            None => self.saturate_keys(),
        }
    }

    /// In-place `Recost` (see [`crate::delta::CsrDelta`]): rewrites the
    /// cost arrays and maintains the quantized ranks. The key table may
    /// keep the superseded value — a superset table ranks every live
    /// value correctly, so nothing is rebuilt.
    pub(crate) fn recost(&mut self, i: usize, p: Option<f64>, s: Option<f64>) {
        if let Some(v) = p {
            self.proc_time[i] = v;
            self.requantize(v, |d, r| d.p_rank[i] = r);
        }
        if let Some(v) = s {
            self.mem_size[i] = v;
            self.requantize(v, |d, r| d.s_rank[i] = r);
        }
    }

    /// In-place `AddTask` (see [`crate::delta::CsrDelta`]): the new
    /// task takes index `n`, its predecessor list is appended to the
    /// pred CSR, and each predecessor's successor list gains the new
    /// task at its end in one `O(n + E)` splice — exactly where a
    /// from-scratch build with the edges appended last would put it.
    pub(crate) fn add_task(&mut self, preds: &[u32], p: f64, s: f64) {
        let j = self.n;
        assert!(
            j + 1 < u32::MAX as usize && self.pred_edges.len() + preds.len() <= u32::MAX as usize,
            "CSR representation uses u32 indices"
        );
        self.pred_edges.extend_from_slice(preds);
        self.pred_offsets.push(self.pred_edges.len() as u32);

        let mut is_pred = vec![false; j];
        for &u in preds {
            is_pred[u as usize] = true;
        }
        let mut succ_offsets = Vec::with_capacity(j + 2);
        let mut succ_edges = Vec::with_capacity(self.succ_edges.len() + preds.len());
        succ_offsets.push(0u32);
        for (i, &was_pred) in is_pred.iter().enumerate() {
            succ_edges.extend_from_slice(
                &self.succ_edges[self.succ_offsets[i] as usize..self.succ_offsets[i + 1] as usize],
            );
            if was_pred {
                succ_edges.push(j as u32);
            }
            succ_offsets.push(succ_edges.len() as u32);
        }
        succ_offsets.push(succ_edges.len() as u32); // the arrival has no successors yet
        self.succ_offsets = succ_offsets;
        self.succ_edges = succ_edges;

        self.proc_time.push(p);
        self.mem_size.push(s);
        self.n = j + 1;
        self.requantize(p, |d, r| d.p_rank.push(r));
        self.requantize(s, |d, r| d.s_rank.push(r));
    }
}

/// One direction of the CSR: a stable counting sort of `(key, value)`
/// pairs (all `< n`). With `dedup`, a value repeated under one key is
/// kept only where it first appears (a mark array, no per-list search);
/// the flag returned says whether anything was dropped.
fn bucket_by(
    n: usize,
    pairs: impl Iterator<Item = (usize, usize)> + Clone,
    dedup: bool,
) -> (Vec<u32>, Vec<u32>, bool) {
    let mut offsets = vec![0u32; n + 1];
    for (key, _) in pairs.clone() {
        offsets[key + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor = offsets[..n].to_vec();
    let mut values = vec![0u32; offsets[n] as usize];
    for (key, value) in pairs {
        values[cursor[key] as usize] = value as u32;
        cursor[key] += 1;
    }
    if !dedup {
        return (offsets, values, false);
    }
    let mut seen_under = vec![u32::MAX; n];
    let mut kept = 0usize;
    let mut start = 0usize;
    for key in 0..n {
        let end = offsets[key + 1] as usize;
        offsets[key] = kept as u32;
        for k in start..end {
            let value = values[k];
            if seen_under[value as usize] != key as u32 {
                seen_under[value as usize] = key as u32;
                values[kept] = value;
                kept += 1;
            }
        }
        start = end;
    }
    let dropped = kept < values.len();
    offsets[n] = kept as u32;
    values.truncate(kept);
    (offsets, values, dropped)
}

#[cfg(test)]
mod tests {
    use crate::graph::TaskGraph;
    use sws_model::task::{Task, TaskSet};

    fn diamond() -> TaskGraph {
        let tasks = TaskSet::new(
            (0..4)
                .map(|i| Task::new_unchecked(1.0 + i as f64, 2.0 * i as f64))
                .collect(),
        )
        .unwrap();
        TaskGraph::from_edges(tasks, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn csr_mirrors_the_nested_adjacency_exactly() {
        // Parallel edges and out-of-index-order insertion: the flat lists
        // must equal nested lists filled edge by edge, repeats skipped.
        let edges = [(2, 3), (0, 2), (0, 1), (2, 3), (1, 3), (0, 2), (0, 3)];
        let g = TaskGraph::from_edges(diamond().tasks().clone(), &edges).unwrap();
        let mut preds = vec![Vec::new(); 4];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); 4];
        for &(u, v) in &edges {
            if !succs[u].contains(&v) {
                succs[u].push(v);
                preds[v].push(u);
            }
        }
        let csr = g.csr();
        assert_eq!(csr.n(), 4);
        assert_eq!(csr.edge_count(), 5);
        for i in 0..4 {
            let p: Vec<usize> = csr.preds(i).iter().map(|&u| u as usize).collect();
            let s: Vec<usize> = csr.succs(i).iter().map(|&v| v as usize).collect();
            assert_eq!(p, preds[i], "preds of {i}");
            assert_eq!(s, succs[i], "succs of {i}");
            assert_eq!(csr.in_degree(i), preds[i].len());
            assert_eq!(csr.out_degree(i), succs[i].len());
            assert_eq!(csr.p(i), g.task(i).p);
            assert_eq!(csr.s(i), g.task(i).s);
        }
    }

    #[test]
    fn empty_graph_flattens_to_empty_csr() {
        let g = TaskGraph::new(TaskSet::from_ps(&[], &[]).unwrap());
        let csr = g.csr();
        assert_eq!(csr.n(), 0);
        assert_eq!(csr.edge_count(), 0);
    }

    #[test]
    fn cost_ranks_mirror_the_f64_order() {
        let g = diamond();
        let csr = g.csr();
        let table = csr.cost_keys().expect("tiny instance never saturates");
        let p_rank = csr.p_ranks().unwrap();
        let s_rank = csr.s_ranks().unwrap();
        for i in 0..g.n() {
            assert_eq!(table.value_of(p_rank[i]), csr.p(i));
            assert_eq!(table.value_of(s_rank[i]), csr.s(i));
            for j in 0..g.n() {
                assert_eq!(p_rank[i] < p_rank[j], csr.p(i) < csr.p(j));
                assert_eq!(s_rank[i] < s_rank[j], csr.s(i) < csr.s(j));
            }
        }
    }

    #[test]
    fn saturated_key_limit_disables_quantization_only() {
        let g = diamond();
        let full = g.csr();
        let capped = full.with_key_limit(2);
        assert!(capped.cost_keys().is_none());
        assert!(capped.p_ranks().is_none());
        assert!(capped.s_ranks().is_none());
        // The structural mirror is untouched by the refusal.
        for i in 0..g.n() {
            assert_eq!(capped.preds(i), full.preds(i));
            assert_eq!(capped.succs(i), full.succs(i));
            assert_eq!(capped.p(i), full.p(i));
            assert_eq!(capped.s(i), full.s(i));
        }
    }

    #[test]
    fn pred_lists_view_iterates_like_the_nested_lists() {
        let g = diamond();
        let csr = g.csr();
        let view = csr.pred_lists();
        use sws_model::validate::PredecessorLists;
        assert_eq!(view.len(), g.n());
        for i in 0..g.n() {
            let via_view: Vec<usize> = view.preds_of(i).collect();
            let via_csr: Vec<usize> = csr.preds(i).iter().map(|&u| u as usize).collect();
            assert_eq!(via_view, via_csr);
        }
    }

    #[test]
    fn new_costs_keep_the_adjacency_and_requantize() {
        let g = diamond();
        let tasks = TaskSet::from_ps(&[4.0, 3.0, 2.0, 1.0], &[1.0; 4]).unwrap();
        let csr = g.shared_csr().with_costs(&tasks);
        for i in 0..4 {
            assert_eq!(csr.preds(i), g.shared_csr().preds(i));
            assert_eq!(csr.succs(i), g.shared_csr().succs(i));
        }
        assert_eq!(csr.p_ranks().unwrap(), &[3, 2, 1, 0]);
        assert_eq!(csr.s_ranks().unwrap(), &[0; 4]);
    }
}
