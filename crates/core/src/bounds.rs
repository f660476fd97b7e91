//! Lower-bound oracles used by the query algorithms.
//!
//! Two directions of bounds appear in the paper:
//!
//! * **towards the targets** — `lb(v, V_T)` (Eq. (2)); used as the A\*
//!   heuristic of every forward search and as the `SPT_I` growth key.
//! * **from the source side** — `lb(s, v)` (single source) or
//!   `lb(V_S, v) = max_w ( δ(w,v) − max_{s ∈ V_S} δ(w,s) )` (GKPJ virtual
//!   source); used by the reverse-graph searches of the `SPT_I` approach
//!   and as the heuristic of `PartialSPT` (Alg. 6).
//!
//! Every oracle has a `Zero` variant implementing §6's "computing without
//! landmark": all estimates degrade to 0 and A\* becomes Dijkstra.

use kpj_graph::{Length, NodeId, INFINITE_LENGTH};
use kpj_landmark::{LandmarkIndex, QueryBounds};

/// Lower bounds `lb(v, V_T)` towards the destination side.
#[derive(Debug, Clone)]
pub enum TargetsLb<'q> {
    /// No landmarks: every bound is 0 (§6, the `-NL` variants).
    Zero,
    /// Landmark Eq. (2) bounds, preprocessed for one target set.
    Alt(QueryBounds<'q>),
}

impl TargetsLb<'_> {
    /// `lb(v, V_T)`; [`INFINITE_LENGTH`] when `V_T` is provably
    /// unreachable from `v`.
    #[inline]
    pub fn lb(&self, v: NodeId) -> Length {
        match self {
            TargetsLb::Zero => 0,
            TargetsLb::Alt(qb) => qb.lb_to_targets(v),
        }
    }
}

/// Lower bounds `lb(source side, v)` from the source side.
#[derive(Debug, Clone)]
pub enum SourceLb<'q> {
    /// No landmarks: every bound is 0.
    Zero,
    /// Single source `s`: `lb(s, v)` straight from the landmark index.
    Single(&'q LandmarkIndex, NodeId),
    /// GKPJ virtual source over `V_S`: per-landmark `max_{s} δ(w, s)` is
    /// precomputed once per query (`O(|L|·|V_S|)`), after which each bound
    /// costs `O(|L|)` — the virtual-source analogue of Eq. (2).
    Multi {
        /// The offline landmark index.
        index: &'q LandmarkIndex,
        /// `max_dist[l] = max_{s ∈ V_S} δ(w_l, s)`; [`INFINITE_LENGTH`]
        /// when some source is unreachable from the landmark (the landmark
        /// then proves nothing and is skipped).
        max_dist: Vec<Length>,
    },
}

impl<'q> SourceLb<'q> {
    /// Build the oracle for a source specification.
    pub fn new(index: Option<&'q LandmarkIndex>, sources: &[NodeId]) -> Self {
        match (index, sources) {
            (None, _) => SourceLb::Zero,
            (Some(idx), [s]) => SourceLb::Single(idx, *s),
            (Some(idx), _) => {
                // No sources: every landmark proves nothing (∞ is skipped).
                let start = if sources.is_empty() {
                    INFINITE_LENGTH
                } else {
                    0
                };
                let mut max_dist = vec![start; idx.len()];
                for &s in sources {
                    for (m, &ds) in max_dist.iter_mut().zip(idx.distances_to(s)) {
                        *m = (*m).max(ds);
                    }
                }
                SourceLb::Multi {
                    index: idx,
                    max_dist,
                }
            }
        }
    }

    /// A lower bound on `min_{s ∈ V_S} δ(s, v)`; [`INFINITE_LENGTH`] when
    /// `v` is provably unreachable from every source.
    #[inline]
    pub fn lb(&self, v: NodeId) -> Length {
        match self {
            SourceLb::Zero => 0,
            SourceLb::Single(idx, s) => idx.lower_bound(*s, v),
            SourceLb::Multi { index, max_dist } => {
                let mut lb: Length = 0;
                for (&ms, &dv) in max_dist.iter().zip(index.distances_to(v)) {
                    if ms == INFINITE_LENGTH {
                        continue;
                    }
                    if dv == INFINITE_LENGTH {
                        // Every source is reachable from this landmark, so
                        // if v were reachable from some source the landmark
                        // would reach v through it.
                        return INFINITE_LENGTH;
                    }
                    lb = lb.max(dv.saturating_sub(ms));
                }
                lb
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpj_graph::{Graph, GraphBuilder};
    use kpj_landmark::SelectionStrategy;
    use kpj_sp::DenseDijkstra;

    fn path_graph(n: u32) -> Graph {
        let mut b = GraphBuilder::new(n as usize);
        for i in 0..n - 1 {
            b.add_bidirectional(i, i + 1, (i + 1) % 5 + 1).unwrap();
        }
        b.build()
    }

    #[test]
    fn zero_oracles_return_zero() {
        assert_eq!(TargetsLb::Zero.lb(3), 0);
        let s = SourceLb::new(None, &[1, 2]);
        assert_eq!(s.lb(3), 0);
    }

    #[test]
    fn single_source_lb_is_valid() {
        let g = path_graph(10);
        let idx = LandmarkIndex::build(&g, 3, SelectionStrategy::Farthest, 1);
        let s = 2u32;
        let oracle = SourceLb::new(Some(&idx), &[s]);
        let d = DenseDijkstra::from_source(&g, s);
        for v in g.nodes() {
            assert!(oracle.lb(v) <= d.dist(v), "lb({s},{v}) too large");
        }
    }

    #[test]
    fn multi_source_lb_is_valid_and_sometimes_positive() {
        let g = path_graph(12);
        let idx = LandmarkIndex::build(&g, 4, SelectionStrategy::Farthest, 2);
        let sources = [0u32, 1];
        let oracle = SourceLb::new(Some(&idx), &sources);
        let best: Vec<_> = {
            let d0 = DenseDijkstra::from_source(&g, 0);
            let d1 = DenseDijkstra::from_source(&g, 1);
            g.nodes().map(|v| d0.dist(v).min(d1.dist(v))).collect()
        };
        let mut any_positive = false;
        for v in g.nodes() {
            let lb = oracle.lb(v);
            assert!(
                lb <= best[v as usize],
                "lb(VS,{v}) = {lb} exceeds true {}",
                best[v as usize]
            );
            any_positive |= lb > 0;
        }
        assert!(
            any_positive,
            "bound should not be trivially zero everywhere"
        );
    }

    #[test]
    fn multi_source_matches_a_per_landmark_row_reference() {
        // Directed and sparse, so some table entries are ∞.
        let mut b = GraphBuilder::new(40);
        for i in 0..40u32 {
            b.add_edge(i, (i * 7 + 3) % 40, i % 6).unwrap();
            if i % 3 != 0 {
                b.add_edge(i, (i + 1) % 40, 2).unwrap();
            }
        }
        let g = b.build();
        let idx = LandmarkIndex::build(&g, 5, SelectionStrategy::Farthest, 8);
        let rows: Vec<Vec<Length>> = idx
            .landmarks()
            .iter()
            .map(|&w| DenseDijkstra::from_source(&g, w).into_dist())
            .collect();
        assert!(rows.iter().any(|r| r.contains(&INFINITE_LENGTH)));
        for sources in [&[][..], &[4, 9], &[0, 13, 27, 39]] {
            let oracle = SourceLb::new(Some(&idx), sources);
            for v in g.nodes() {
                let mut want: Length = 0;
                for row in &rows {
                    let ms = sources.iter().map(|&s| row[s as usize]).max();
                    let ms = ms.unwrap_or(INFINITE_LENGTH);
                    if ms == INFINITE_LENGTH {
                        continue;
                    }
                    if row[v as usize] == INFINITE_LENGTH {
                        want = INFINITE_LENGTH;
                        break;
                    }
                    want = want.max(row[v as usize].saturating_sub(ms));
                }
                assert_eq!(oracle.lb(v), want, "sources {sources:?} v {v}");
            }
        }
    }

    #[test]
    fn multi_source_detects_unreachable() {
        // Two components: sources in one, v in the other.
        let mut b = GraphBuilder::new(4);
        b.add_bidirectional(0, 1, 1).unwrap();
        b.add_bidirectional(2, 3, 1).unwrap();
        let g = b.build();
        let idx = LandmarkIndex::build(&g, 2, SelectionStrategy::Farthest, 3);
        let oracle = SourceLb::new(Some(&idx), &[0, 1]);
        assert_eq!(oracle.lb(2), INFINITE_LENGTH);
    }
}
