//! Random layered DAGs.

use rand::Rng;

use crate::graph::{unit_tasks, TaskGraph};

/// A random layered DAG with `n` unit tasks split into `layers` layers of
/// (roughly) equal size. Each task in layer `l ≥ 1` receives an edge from
/// every task of layer `l − 1` independently with probability
/// `edge_prob`, and at least one such edge (so every non-first-layer task
/// has a predecessor and the depth really is `layers`).
///
/// This is the synthetic application model most commonly used in DAG
/// scheduling evaluations; layer widths bound the exploitable parallelism.
pub fn layered_random<R: Rng + ?Sized>(
    n: usize,
    layers: usize,
    edge_prob: f64,
    rng: &mut R,
) -> TaskGraph {
    assert!(layers >= 1, "need at least one layer");
    assert!(n >= layers, "need at least one task per layer");
    assert!(
        (0.0..=1.0).contains(&edge_prob),
        "edge probability must be in [0, 1]"
    );
    let mut edges = Vec::new();
    // Distribute tasks over layers as evenly as possible.
    let base = n / layers;
    let extra = n % layers;
    let mut layer_of: Vec<Vec<usize>> = Vec::with_capacity(layers);
    let mut next = 0usize;
    for l in 0..layers {
        let size = base + usize::from(l < extra);
        layer_of.push((next..next + size).collect());
        next += size;
    }
    for l in 1..layers {
        for &v in &layer_of[l] {
            let mut got_pred = false;
            for &u in &layer_of[l - 1] {
                if rng.gen_bool(edge_prob) {
                    edges.push((u, v));
                    got_pred = true;
                }
            }
            if !got_pred {
                let pick = layer_of[l - 1][rng.gen_range(0..layer_of[l - 1].len())];
                edges.push((pick, v));
            }
        }
    }
    TaskGraph::from_edges(unit_tasks(n), &edges).expect("valid generator edges")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{levels_by_depth, GraphStats};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn layer_count_equals_depth() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = layered_random(50, 5, 0.25, &mut rng);
        let st = GraphStats::of(&g);
        assert_eq!(st.n, 50);
        assert_eq!(st.depth, 5);
        assert!(g.topological_order().is_ok());
    }

    #[test]
    fn every_non_first_layer_task_has_a_predecessor() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = layered_random(30, 3, 0.0, &mut rng);
        // With probability 0 the generator falls back to exactly one random
        // predecessor per task.
        let levels = levels_by_depth(&g);
        assert_eq!(levels.len(), 3);
        for level in levels.iter().skip(1) {
            for &v in level {
                assert!(g.in_degree(v) >= 1);
            }
        }
    }

    #[test]
    fn full_probability_yields_complete_bipartite_layers() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = layered_random(9, 3, 1.0, &mut rng);
        // 3 layers of 3 tasks: 2 * 3 * 3 = 18 edges.
        assert_eq!(g.edge_count(), 18);
    }

    #[test]
    fn generation_is_reproducible_for_a_fixed_seed() {
        let g1 = layered_random(40, 4, 0.3, &mut ChaCha8Rng::seed_from_u64(9));
        let g2 = layered_random(40, 4, 0.3, &mut ChaCha8Rng::seed_from_u64(9));
        assert_eq!(g1, g2);
    }

    #[test]
    #[should_panic]
    fn more_layers_than_tasks_is_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let _ = layered_random(3, 5, 0.5, &mut rng);
    }
}
