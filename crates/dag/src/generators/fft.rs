//! FFT butterfly task graph.
//!
//! The radix-2 FFT over `2^levels` points, a standard DAG benchmark for
//! embedded signal-processing codes (the multi-SoC motivation of the
//! paper). The graph has `levels + 1` ranks of `2^levels` tasks each; the
//! task at rank `l+1`, position `i` depends on the rank-`l` tasks at
//! positions `i` and `i XOR 2^l`.
//!
//! Costs: every butterfly performs the same constant amount of work
//! (`p = 1`); storage models the pair of in-flight complex buffers
//! (`s = 2`), while rank-0 "load" tasks keep a single buffer (`s = 1`).

use sws_model::task::{Task, TaskSet};

use crate::graph::TaskGraph;

/// Builds the FFT butterfly task graph with `levels ≥ 1` butterfly ranks
/// (`2^levels` points, `(levels + 1) · 2^levels` tasks).
pub fn fft_butterfly(levels: usize) -> TaskGraph {
    assert!(levels >= 1, "FFT needs at least one butterfly level");
    assert!(levels < 20, "FFT size would be unreasonably large");
    let points = 1usize << levels;
    let n = (levels + 1) * points;
    let idx = |rank: usize, pos: usize| rank * points + pos;

    let mut tasks = Vec::with_capacity(n);
    for rank in 0..=levels {
        for _ in 0..points {
            let s = if rank == 0 { 1.0 } else { 2.0 };
            tasks.push(Task::new_unchecked(1.0, s));
        }
    }
    let mut edges = Vec::with_capacity(2 * levels * points);
    for rank in 0..levels {
        let stride = 1usize << rank;
        for pos in 0..points {
            let partner = pos ^ stride;
            edges.push((idx(rank, pos), idx(rank + 1, pos)));
            edges.push((idx(rank, partner), idx(rank + 1, pos)));
        }
    }
    TaskGraph::from_edges(TaskSet::new(tasks).expect("costs are positive"), &edges)
        .expect("valid generator edges")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::GraphStats;

    #[test]
    fn dimensions_match_the_radix2_structure() {
        for levels in 1..5 {
            let g = fft_butterfly(levels);
            let points = 1usize << levels;
            assert_eq!(g.n(), (levels + 1) * points);
            // Every non-input task has exactly 2 predecessors.
            assert_eq!(g.edge_count(), 2 * levels * points);
            assert!(g.topological_order().is_ok());
        }
    }

    #[test]
    fn three_level_fft_stats() {
        let g = fft_butterfly(3);
        let st = GraphStats::of(&g);
        assert_eq!(st.n, 32);
        assert_eq!(st.sources, 8);
        assert_eq!(st.sinks, 8);
        assert_eq!(st.depth, 4);
        assert_eq!(st.width, 8);
        assert_eq!(st.critical_path, 4.0);
        assert_eq!(st.max_in_degree, 2);
        assert_eq!(st.max_out_degree, 2);
    }

    #[test]
    fn input_tasks_use_less_storage() {
        let g = fft_butterfly(2);
        assert_eq!(g.task(0).s, 1.0);
        assert_eq!(g.task(g.n() - 1).s, 2.0);
    }

    #[test]
    #[should_panic]
    fn zero_levels_is_rejected() {
        let _ = fft_butterfly(0);
    }
}
