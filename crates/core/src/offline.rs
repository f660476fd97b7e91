//! Parallel offline index construction.
//!
//! Landmark builds for multi-million-node graphs are dominated by `|L|`
//! independent whole-graph Dijkstra runs. This module fans those runs
//! across scoped threads, while [`LandmarkIndex::build_with_solver`]
//! keeps the *selection* sequence (and hence the resulting index)
//! bit-identical to the sequential [`LandmarkIndex::build`] for every
//! `(strategy, seed)`.

use kpj_graph::{Graph, Length, NodeId};
use kpj_landmark::{LandmarkIndex, SelectionStrategy};
use kpj_sp::DenseDijkstra;

/// Build a landmark index using up to `threads` worker threads for the
/// shortest-path table rows (`0` = all available cores).
///
/// The result is **bit-identical** to
/// `LandmarkIndex::build(g, count, strategy, seed)`: thread count changes
/// wall-clock, never the index (`parallel_build_matches_sequential` below
/// enforces it).
pub fn build_landmarks_parallel(
    g: &Graph,
    count: usize,
    strategy: SelectionStrategy,
    seed: u64,
    threads: usize,
) -> LandmarkIndex {
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        threads
    };
    if threads <= 1 || count <= 1 {
        return LandmarkIndex::build(g, count, strategy, seed);
    }
    // Each thread solves a contiguous run of rows into its own disjoint
    // chunk of `out`.
    let solver = |g2: &Graph, sources: &[NodeId], out: &mut [Length]| {
        let n = g2.node_count();
        debug_assert_eq!(out.len(), sources.len() * n);
        let per = sources.len().div_ceil(threads).max(1);
        std::thread::scope(|scope| {
            for (group, rows) in sources.chunks(per).zip(out.chunks_mut(per * n)) {
                scope.spawn(move || {
                    for (&source, row) in group.iter().zip(rows.chunks_mut(n)) {
                        row.copy_from_slice(DenseDijkstra::from_source(g2, source).dist_slice());
                    }
                });
            }
        });
    };
    LandmarkIndex::build_with_solver(g, count, strategy, seed, threads, &solver)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpj_workload::road::RoadConfig;

    #[test]
    fn parallel_build_matches_sequential() {
        let g = RoadConfig::new(400, 1_000, 17).generate();
        for strategy in [SelectionStrategy::Farthest, SelectionStrategy::Random] {
            for seed in [0u64, 5, 99] {
                let reference = LandmarkIndex::build(&g, 6, strategy, seed);
                for threads in [2usize, 4] {
                    let parallel = build_landmarks_parallel(&g, 6, strategy, seed, threads);
                    assert_eq!(
                        parallel, reference,
                        "{strategy:?} seed={seed} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_inputs() {
        let g = RoadConfig::new(10, 24, 1).generate();
        // threads=1 and count<=1 take the sequential path.
        assert_eq!(
            build_landmarks_parallel(&g, 1, SelectionStrategy::Farthest, 3, 8),
            LandmarkIndex::build(&g, 1, SelectionStrategy::Farthest, 3)
        );
        assert_eq!(
            build_landmarks_parallel(&g, 4, SelectionStrategy::Random, 3, 1),
            LandmarkIndex::build(&g, 4, SelectionStrategy::Random, 3)
        );
        // More landmarks than nodes, parallel.
        assert_eq!(
            build_landmarks_parallel(&g, 64, SelectionStrategy::Farthest, 2, 4),
            LandmarkIndex::build(&g, 64, SelectionStrategy::Farthest, 2)
        );
        // Empty graph.
        let empty = kpj_graph::GraphBuilder::new(0).build();
        assert!(build_landmarks_parallel(&empty, 4, SelectionStrategy::Farthest, 1, 4).is_empty());
    }
}
