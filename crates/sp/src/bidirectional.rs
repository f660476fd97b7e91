//! Bidirectional Dijkstra for point-to-point shortest paths.
//!
//! Not used by the KPJ query algorithms themselves (their searches are
//! one-to-category), but part of the shortest-path substrate: the workload
//! tooling uses it for spot-checking distances on large graphs where a
//! full [`DenseDijkstra`](crate::DenseDijkstra) would be wasteful, and it
//! serves as an independent oracle in the test suites.

use kpj_graph::scratch::SearchLabels;
use kpj_graph::{Graph, Length, NodeId, INFINITE_LENGTH};
use kpj_heap::IndexedMinHeap;

use crate::{Direction, NO_PARENT};

/// Reusable scratch for bidirectional point-to-point queries.
#[derive(Debug)]
pub struct BidirectionalDijkstra {
    fwd: Side,
    bwd: Side,
}

#[derive(Debug)]
struct Side {
    heap: IndexedMinHeap<Length>,
    labels: SearchLabels,
}

impl Side {
    fn new(n: usize) -> Self {
        Side {
            heap: IndexedMinHeap::new(n),
            labels: SearchLabels::new(n),
        }
    }

    fn reset(&mut self, seed: NodeId) {
        self.heap.clear();
        self.labels.reset();
        self.labels.set_root(seed as usize, 0);
        self.heap.push_or_decrease(seed as usize, 0);
    }

    /// Settle one node and relax its edges; returns the settled node.
    fn step(&mut self, g: &Graph, dir: Direction) -> Option<(NodeId, Length)> {
        let (u, du) = self.heap.pop()?;
        self.labels.settle(u);
        for e in dir.edges(g, u as NodeId) {
            let v = e.to as usize;
            if self.labels.is_settled(v) {
                continue;
            }
            let nd = du.saturating_add(e.weight as Length);
            if nd < self.labels.dist(v) {
                self.labels.set(v, nd, u as NodeId);
                self.heap.push_or_decrease(v, nd);
            }
        }
        Some((u as NodeId, du))
    }
}

/// A point-to-point result: distance and the full path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointToPoint {
    /// `δ(s, t)`.
    pub distance: Length,
    /// One shortest path `s → … → t`.
    pub nodes: Vec<NodeId>,
}

impl BidirectionalDijkstra {
    /// Scratch for graphs with `n` nodes.
    pub fn new(n: usize) -> Self {
        BidirectionalDijkstra {
            fwd: Side::new(n),
            bwd: Side::new(n),
        }
    }

    /// Compute one shortest `s → t` path, or `None` if unreachable.
    ///
    /// Classic alternating bidirectional Dijkstra with the standard
    /// termination criterion: stop when `top_f + top_b ≥ μ`, where `μ` is
    /// the best meeting-point distance seen so far.
    pub fn query(&mut self, g: &Graph, s: NodeId, t: NodeId) -> Option<PointToPoint> {
        if s == t {
            return Some(PointToPoint {
                distance: 0,
                nodes: vec![s],
            });
        }
        self.fwd.reset(s);
        self.bwd.reset(t);
        let mut best: Length = INFINITE_LENGTH;
        let mut meet: Option<NodeId> = None;

        loop {
            let tf = self.fwd.heap.peek().map(|(_, k)| k);
            let tb = self.bwd.heap.peek().map(|(_, k)| k);
            match (tf, tb) {
                (None, None) => break,
                (Some(a), Some(b)) if a.saturating_add(b) >= best => break,
                _ => {}
            }
            // Expand the side with the smaller frontier key (balanced).
            let forward = match (tf, tb) {
                (Some(a), Some(b)) => a <= b,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => unreachable!("handled above"),
            };
            let (side, other, dir) = if forward {
                (&mut self.fwd, &self.bwd, Direction::Forward)
            } else {
                (&mut self.bwd, &self.fwd, Direction::Backward)
            };
            if let Some((u, du)) = side.step(g, dir) {
                let od = other.labels.dist(u as usize);
                if od != INFINITE_LENGTH {
                    let total = du + od;
                    if total < best {
                        best = total;
                        meet = Some(u);
                    }
                }
            }
        }

        let meet = meet?;
        // Stitch the two half-paths at the meeting node.
        let mut nodes = Vec::new();
        let mut cur = meet;
        loop {
            nodes.push(cur);
            let p = self.fwd.labels.parent(cur as usize);
            if p == NO_PARENT {
                break;
            }
            cur = p;
        }
        nodes.reverse();
        let mut cur = meet;
        while self.bwd.labels.parent(cur as usize) != NO_PARENT {
            cur = self.bwd.labels.parent(cur as usize);
            nodes.push(cur);
        }
        debug_assert_eq!(nodes.first(), Some(&s));
        debug_assert_eq!(nodes.last(), Some(&t));
        Some(PointToPoint {
            distance: best,
            nodes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DenseDijkstra;
    use kpj_graph::GraphBuilder;

    fn grid(side: u32) -> Graph {
        let mut b = GraphBuilder::new((side * side) as usize);
        for r in 0..side {
            for c in 0..side {
                let v = r * side + c;
                if c + 1 < side {
                    b.add_bidirectional(v, v + 1, 1 + (v % 3)).unwrap();
                }
                if r + 1 < side {
                    b.add_bidirectional(v, v + side, 1 + (v % 5)).unwrap();
                }
            }
        }
        b.build()
    }

    #[test]
    fn matches_unidirectional_on_grid() {
        let g = grid(8);
        let mut bd = BidirectionalDijkstra::new(g.node_count());
        for s in [0u32, 5, 17, 63] {
            let d = DenseDijkstra::from_source(&g, s);
            for t in g.nodes() {
                let got = bd.query(&g, s, t).expect("grid is connected");
                assert_eq!(got.distance, d.dist(t), "{s}->{t}");
                // The returned path must realize that distance.
                let len: Length = got
                    .nodes
                    .windows(2)
                    .map(|w| g.edge_weight(w[0], w[1]).unwrap() as Length)
                    .sum();
                assert_eq!(len, got.distance);
                assert_eq!(got.nodes.first(), Some(&s));
                assert_eq!(got.nodes.last(), Some(&t));
            }
        }
    }

    #[test]
    fn trivial_and_unreachable() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 4).unwrap();
        let g = b.build();
        let mut bd = BidirectionalDijkstra::new(3);
        assert_eq!(bd.query(&g, 2, 2).unwrap().distance, 0);
        assert_eq!(bd.query(&g, 0, 1).unwrap().distance, 4);
        assert!(bd.query(&g, 1, 0).is_none(), "edge is directed");
        assert!(bd.query(&g, 0, 2).is_none());
    }

    #[test]
    fn directed_asymmetry_is_respected() {
        // s → a → t is short forward; the reverse direction differs.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(1, 2, 1).unwrap();
        b.add_edge(2, 0, 10).unwrap();
        b.add_edge(2, 3, 1).unwrap();
        let g = b.build();
        let mut bd = BidirectionalDijkstra::new(4);
        assert_eq!(bd.query(&g, 0, 3).unwrap().distance, 3);
        assert!(bd.query(&g, 3, 0).is_none());
    }

    #[test]
    fn scratch_reuse_across_queries() {
        let g = grid(5);
        let mut bd = BidirectionalDijkstra::new(g.node_count());
        let a = bd.query(&g, 0, 24).unwrap();
        let _ = bd.query(&g, 3, 7).unwrap();
        let b2 = bd.query(&g, 0, 24).unwrap();
        assert_eq!(a.distance, b2.distance);
    }

    #[test]
    fn random_graphs_match_dense() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        for seed in 0..20u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(2..40u32);
            let mut b = GraphBuilder::new(n as usize);
            for _ in 0..(n * 3) {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v {
                    b.add_edge(u, v, rng.gen_range(0..50)).unwrap();
                }
            }
            let g = b.build();
            let mut bd = BidirectionalDijkstra::new(g.node_count());
            let s = rng.gen_range(0..n);
            let d = DenseDijkstra::from_source(&g, s);
            for t in g.nodes() {
                match bd.query(&g, s, t) {
                    Some(p) => assert_eq!(p.distance, d.dist(t), "seed {seed} {s}->{t}"),
                    None => assert!(!d.reached(t), "seed {seed} {s}->{t}"),
                }
            }
        }
    }
}
