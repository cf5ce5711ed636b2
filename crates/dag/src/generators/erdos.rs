//! Ordered Erdős–Rényi random DAGs.

use rand::Rng;

use crate::graph::{unit_tasks, TaskGraph};

/// A random DAG over `n` unit tasks where each ordered pair `(i, j)` with
/// `i < j` carries an edge independently with probability `edge_prob`.
/// The "layered" in the name refers to the implicit topological layering
/// induced by the vertex order — the construction can never create a
/// cycle because edges always go from a lower to a higher index.
///
/// This family produces unstructured task graphs whose density is easy to
/// sweep; with `edge_prob = 0` it degenerates to independent tasks and
/// with `edge_prob = 1` to a total order (a chain with shortcuts).
pub fn layered_erdos<R: Rng + ?Sized>(n: usize, edge_prob: f64, rng: &mut R) -> TaskGraph {
    assert!(
        (0.0..=1.0).contains(&edge_prob),
        "edge probability must be in [0, 1]"
    );
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(edge_prob) {
                edges.push((i, j));
            }
        }
    }
    TaskGraph::from_edges(unit_tasks(n), &edges).expect("valid generator edges")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn zero_probability_gives_independent_tasks() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = layered_erdos(20, 0.0, &mut rng);
        assert!(g.is_independent());
    }

    #[test]
    fn full_probability_gives_a_total_order() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = layered_erdos(10, 1.0, &mut rng);
        assert_eq!(g.edge_count(), 10 * 9 / 2);
        assert_eq!(g.critical_path_length(), 10.0);
    }

    #[test]
    fn intermediate_probability_is_acyclic_and_moderately_dense() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = layered_erdos(60, 0.08, &mut rng);
        assert!(g.topological_order().is_ok());
        assert!(g.edge_count() > 0);
        assert!(g.edge_count() < 60 * 59 / 2);
    }

    #[test]
    fn reproducible_for_a_fixed_seed() {
        let g1 = layered_erdos(25, 0.2, &mut ChaCha8Rng::seed_from_u64(5));
        let g2 = layered_erdos(25, 0.2, &mut ChaCha8Rng::seed_from_u64(5));
        assert_eq!(g1, g2);
    }
}
