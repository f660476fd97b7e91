//! Landmark (ALT) lower-bound index — §4.2 of the paper.
//!
//! A landmark set `L ⊆ V` with precomputed forward distance tables
//! `δ(w, ·)` for every `w ∈ L` yields, via the triangle inequality
//! `δ(w, u) + δ(u, v) ≥ δ(w, v)`, the lower bound
//!
//! ```text
//! lb(u, v) = max_{w ∈ L} ( δ(w, v) − δ(w, u) )        (clamped at 0)
//! ```
//!
//! For a whole destination set `V_T` the paper's Eq. (2) first collapses the
//! per-landmark distances to the *virtual target* `t`:
//! `δ(w, t) = min_{v ∈ V_T} δ(w, v)`, computed once per query in
//! `O(|L|·|V_T|)`, after which each `lb(u, V_T)` costs `O(|L|)`. The naive
//! Eq. (1) (`min_v max_w …`, `O(|L|·|V_T|)` per estimate) is kept as
//! [`QueryBounds::lb_to_targets_eq1`] for the tightness/throughput ablation.
//!
//! The index is built offline ([`LandmarkIndex::build`]) in
//! `O(|L|·(m + n log n))` with `O(|L|·n)` space, exactly as stated in the
//! paper's "Remarks & Time Complexity".

#![warn(missing_docs)]

mod persist;
mod repair;

pub use repair::RepairStats;

pub use persist::PersistError;

use kpj_graph::{Graph, GraphError, Length, NodeId, SectionBuf, INFINITE_LENGTH};
use kpj_sp::DenseDijkstra;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Batch shortest-path solver used by [`LandmarkIndex::build_with_solver`]:
/// for each `sources[i]`, writes the full forward distance array
/// `δ(sources[i], ·)` into `out[i*n .. (i+1)*n]`.
///
/// The default solver runs [`DenseDijkstra`] per source sequentially;
/// `kpj-core` provides one that fans the sources across its worker pool.
pub type RowSolver<'a> = dyn Fn(&Graph, &[NodeId], &mut [Length]) + 'a;

/// How landmarks are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionStrategy {
    /// The paper's method (following Goldberg and Harrelson, SODA'05): pick a
    /// random start node, take the
    /// farthest node from it as the first landmark, then iteratively add
    /// the node farthest from the current landmark set.
    Farthest,
    /// Uniformly random landmarks (baseline for the ablation).
    Random,
}

/// The offline landmark index: `|L|` forward distance tables.
///
/// The tables are stored **node-major**, so every bound reads one
/// contiguous `|L|`-slice per node (128 bytes at `|L| = 16`) rather than
/// one entry from each of `|L|` far-apart rows. They are a
/// [`SectionBuf`]: heap-backed when built online, zero-copy views into an
/// mmap'd v2 graph file when loaded by `kpj-store`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LandmarkIndex {
    landmarks: Vec<NodeId>,
    /// Node-major `n × |L|`: `tables[v * |L| + l] = δ(landmarks[l], v)`.
    tables: SectionBuf<Length>,
    node_count: usize,
}

impl LandmarkIndex {
    /// Build an index with `count` landmarks (capped at `n`).
    ///
    /// `seed` makes the random start (and `Random` strategy) reproducible.
    pub fn build(g: &Graph, count: usize, strategy: SelectionStrategy, seed: u64) -> Self {
        let n = g.node_count();
        let count = count.min(n);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut landmarks: Vec<NodeId> = Vec::with_capacity(count);
        // Row-major `|L| × n` while rows arrive; transposed once at the end.
        let mut rows: Vec<Length> = Vec::with_capacity(count * n);

        if n == 0 || count == 0 {
            return Self::from_rows(landmarks, &rows, n);
        }

        match strategy {
            SelectionStrategy::Random => {
                let mut chosen = vec![false; n];
                while landmarks.len() < count {
                    let v = rng.gen_range(0..n);
                    if !chosen[v] {
                        chosen[v] = true;
                        landmarks.push(v as NodeId);
                    }
                }
                for &l in &landmarks {
                    rows.extend(DenseDijkstra::from_source(g, l).into_dist());
                }
            }
            SelectionStrategy::Farthest => {
                // min_dist[v] = distance from the landmark set to v
                // (∞ ranks as farthest, so other components get covered).
                let start = rng.gen_range(0..n) as NodeId;
                let d0 = DenseDijkstra::from_source(g, start).into_dist();
                let first = farthest(&d0, &mut rng);
                let min_dist_first = DenseDijkstra::from_source(g, first).into_dist();
                let mut min_dist = min_dist_first.clone();
                landmarks.push(first);
                rows.extend(min_dist_first);
                while landmarks.len() < count {
                    let next = farthest(&min_dist, &mut rng);
                    if landmarks.contains(&next) {
                        // Whole graph already at distance 0 from the set:
                        // no farther node exists, stop early.
                        break;
                    }
                    let d = DenseDijkstra::from_source(g, next).into_dist();
                    for (m, &dv) in min_dist.iter_mut().zip(&d) {
                        *m = (*m).min(dv);
                    }
                    landmarks.push(next);
                    rows.extend(d);
                }
            }
        }
        Self::from_rows(landmarks, &rows, n)
    }

    /// Like [`build`](Self::build), but shortest-path rows are produced by
    /// `solver` in batches of up to `batch` sources, enabling parallel
    /// offline construction while staying **bit-identical** to the
    /// sequential build for any `(strategy, seed)`.
    ///
    /// `Random` selection is trivially batchable: the landmark set is fixed
    /// before any distance is computed, so all rows go to the solver at
    /// once. `Farthest` selection is an inherently sequential chain — each
    /// pick depends on the min-distance field of all previous picks — so
    /// batches are *speculative*: the next pick is predicted exactly by
    /// replaying [`farthest`] on a **cloned** RNG (identical state ⇒
    /// identical tie-breaks), and the remaining batch slots are filled with
    /// the highest stale min-distance nodes (ties to the lowest id). The
    /// real RNG then advances by exactly the calls the sequential build
    /// makes; speculative rows are used on hit and recomputed on miss, so
    /// the resulting index never depends on speculation accuracy.
    pub fn build_with_solver(
        g: &Graph,
        count: usize,
        strategy: SelectionStrategy,
        seed: u64,
        batch: usize,
        solver: &RowSolver<'_>,
    ) -> Self {
        let n = g.node_count();
        let count = count.min(n);
        let batch = batch.max(1);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut landmarks: Vec<NodeId> = Vec::with_capacity(count);
        // Row-major `|L| × n` while rows arrive; transposed once at the end.
        let mut rows: Vec<Length> = Vec::with_capacity(count * n);

        if n == 0 || count == 0 {
            return Self::from_rows(landmarks, &rows, n);
        }

        match strategy {
            SelectionStrategy::Random => {
                let mut chosen = vec![false; n];
                while landmarks.len() < count {
                    let v = rng.gen_range(0..n);
                    if !chosen[v] {
                        chosen[v] = true;
                        landmarks.push(v as NodeId);
                    }
                }
                rows.resize(landmarks.len() * n, 0);
                solver(g, &landmarks, &mut rows);
            }
            SelectionStrategy::Farthest => {
                let start = rng.gen_range(0..n) as NodeId;
                let mut d0 = vec![0; n];
                solver(g, std::slice::from_ref(&start), &mut d0);
                let first = farthest(&d0, &mut rng);
                let mut min_dist = vec![0; n];
                solver(g, std::slice::from_ref(&first), &mut min_dist);
                landmarks.push(first);
                rows.extend_from_slice(&min_dist);

                let mut spec_rows: Vec<Length> = Vec::new();
                let mut row_buf: Vec<Length> = vec![0; n];
                'outer: while landmarks.len() < count {
                    // Speculate a batch of candidate landmarks.
                    let want = batch.min(count - landmarks.len());
                    let mut cands: Vec<NodeId> = Vec::with_capacity(want);
                    cands.push(farthest(&min_dist, &mut rng.clone()));
                    while cands.len() < want {
                        let mut best: Option<usize> = None;
                        for (v, &d) in min_dist.iter().enumerate() {
                            let vid = v as NodeId;
                            if cands.contains(&vid) || landmarks.contains(&vid) {
                                continue;
                            }
                            match best {
                                Some(b) if d <= min_dist[b] => {}
                                _ => best = Some(v),
                            }
                        }
                        match best {
                            Some(v) => cands.push(v as NodeId),
                            None => break,
                        }
                    }
                    spec_rows.resize(cands.len() * n, 0);
                    solver(g, &cands, &mut spec_rows);
                    let mut used = vec![false; cands.len()];

                    // Consume: replay the exact RNG calls the sequential
                    // build makes, drawing rows from the batch when the
                    // prediction held and recomputing when it went stale.
                    loop {
                        if landmarks.len() >= count {
                            break 'outer;
                        }
                        let next = farthest(&min_dist, &mut rng);
                        if landmarks.contains(&next) {
                            break 'outer;
                        }
                        let hit = cands.iter().position(|&c| c == next).filter(|&j| !used[j]);
                        let row: &[Length] = match hit {
                            Some(j) => {
                                used[j] = true;
                                &spec_rows[j * n..(j + 1) * n]
                            }
                            None => {
                                solver(g, std::slice::from_ref(&next), &mut row_buf);
                                &row_buf
                            }
                        };
                        for (m, &dv) in min_dist.iter_mut().zip(row) {
                            *m = (*m).min(dv);
                        }
                        landmarks.push(next);
                        rows.extend_from_slice(row);
                        if hit.is_none() || used.iter().all(|&u| u) {
                            break; // speculation exhausted or stale: restock
                        }
                    }
                }
            }
        }
        Self::from_rows(landmarks, &rows, n)
    }

    /// The chosen landmark nodes.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Number of landmarks `|L|`.
    pub fn len(&self) -> usize {
        self.landmarks.len()
    }

    /// True if the index has no landmarks (all bounds degrade to 0).
    pub fn is_empty(&self) -> bool {
        self.landmarks.is_empty()
    }

    /// Node universe size the index was built for.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// `δ(w_l, v)` for every landmark, indexed by `l`: the contiguous
    /// `|L|`-slice of node `v`. Exposed so callers can derive custom bound
    /// combinations (e.g. the GKPJ virtual-source bound
    /// `max_w ( δ(w,v) − max_{s ∈ V_S} δ(w,s) )`) at one slice per node.
    #[inline]
    pub fn distances_to(&self, v: NodeId) -> &[Length] {
        let len = self.landmarks.len();
        &self.tables[v as usize * len..(v as usize + 1) * len]
    }

    /// `δ(w_l, v)` for the `l`-th landmark — the raw table entry.
    #[inline]
    pub fn landmark_distance(&self, l: usize, v: NodeId) -> Length {
        self.distances_to(v)[l]
    }

    /// `lb(u, v)`: a lower bound on `δ(u, v)`.
    ///
    /// Per-landmark terms: with `δ(w,u) = ∞` the landmark proves nothing
    /// (skipped); with `δ(w,u) < ∞` but `δ(w,v) = ∞`, `v` is provably
    /// unreachable from `u` (else `w` would reach it through `u`) and the
    /// bound is [`INFINITE_LENGTH`].
    pub fn lower_bound(&self, u: NodeId, v: NodeId) -> Length {
        let mut lb: Length = 0;
        for (&du, &dv) in self.distances_to(u).iter().zip(self.distances_to(v)) {
            if du == INFINITE_LENGTH {
                continue;
            }
            if dv == INFINITE_LENGTH {
                return INFINITE_LENGTH;
            }
            lb = lb.max(dv.saturating_sub(du));
        }
        lb
    }

    /// Reassemble an index from node-major tables.
    pub(crate) fn from_parts(
        landmarks: Vec<NodeId>,
        tables: Vec<Length>,
        node_count: usize,
    ) -> Self {
        debug_assert_eq!(tables.len(), landmarks.len() * node_count);
        LandmarkIndex {
            landmarks,
            tables: tables.into(),
            node_count,
        }
    }

    /// Assemble an index from row-major distance rows
    /// (`rows[l * n + v] = δ(landmarks[l], v)`, the order Dijkstra produces
    /// them in) with one node-outer transpose: each output slice is written
    /// once while the `|L|` rows are read as sequential streams.
    pub(crate) fn from_rows(landmarks: Vec<NodeId>, rows: &[Length], node_count: usize) -> Self {
        let len = landmarks.len();
        debug_assert_eq!(rows.len(), len * node_count);
        let mut tables = Vec::with_capacity(rows.len());
        for v in 0..node_count {
            tables.extend((0..len).map(|l| rows[l * node_count + v]));
        }
        Self::from_parts(landmarks, tables, node_count)
    }

    /// Reassemble an index from validated raw parts, e.g. landmark ids
    /// parsed from a v2 file header plus a zero-copy mapped table section.
    /// `tables` is node-major, as [`tables`](Self::tables) returns it.
    pub fn from_raw(
        landmarks: Vec<NodeId>,
        tables: SectionBuf<Length>,
        node_count: usize,
    ) -> Result<Self, GraphError> {
        let bad = |message: String| GraphError::Parse { line: 0, message };
        if tables.len() != landmarks.len() * node_count {
            return Err(bad(format!(
                "landmark table has {} entries, want |L|·n = {}·{}",
                tables.len(),
                landmarks.len(),
                node_count
            )));
        }
        if let Some(&l) = landmarks.iter().find(|&&l| l as usize >= node_count) {
            return Err(GraphError::NodeOutOfRange {
                node: l as u64,
                node_count: node_count as u64,
            });
        }
        Ok(LandmarkIndex {
            landmarks,
            tables,
            node_count,
        })
    }

    /// The raw node-major `n × |L|` distance table,
    /// `tables[v * |L| + l] = δ(w_l, v)` (what the v2 writer serializes).
    pub fn tables(&self) -> &[Length] {
        &self.tables
    }

    /// True if the distance tables are backed by a memory mapping.
    pub fn is_mapped(&self) -> bool {
        self.tables.is_mapped()
    }

    /// Per-query preprocessing for a destination set: computes
    /// `δ(w, t) = min_{v ∈ V_T} δ(w, v)` for every landmark in
    /// `O(|L| · |V_T|)` (the paper's initialization phase).
    pub fn for_targets(&self, targets: &[NodeId]) -> QueryBounds<'_> {
        let mut dist_to_t = vec![INFINITE_LENGTH; self.landmarks.len()];
        for &v in targets {
            for (dt, &dv) in dist_to_t.iter_mut().zip(self.distances_to(v)) {
                *dt = (*dt).min(dv);
            }
        }
        QueryBounds {
            index: self,
            dist_to_t,
        }
    }
}

/// Index of the maximum value, breaking ties randomly; `∞` ranks highest.
fn farthest(dist: &[Length], rng: &mut SmallRng) -> NodeId {
    let mut best = 0usize;
    let mut ties = 1u32;
    for (i, &d) in dist.iter().enumerate().skip(1) {
        if d > dist[best] {
            best = i;
            ties = 1;
        } else if d == dist[best] {
            ties += 1;
            if rng.gen_range(0..ties) == 0 {
                best = i;
            }
        }
    }
    best as NodeId
}

/// Per-query lower-bound oracle for one destination set (Eq. (2)).
#[derive(Debug, Clone)]
pub struct QueryBounds<'a> {
    index: &'a LandmarkIndex,
    /// `dist_to_t[l] = δ(w_l, t)`.
    dist_to_t: Vec<Length>,
}

impl QueryBounds<'_> {
    /// Eq. (2): `lb(u, V_T) = max_w ( δ(w, t) − δ(w, u) )` in `O(|L|)`.
    ///
    /// Returns [`INFINITE_LENGTH`] when some landmark proves `V_T`
    /// unreachable from `u`, and 0 when no landmark proves anything.
    pub fn lb_to_targets(&self, u: NodeId) -> Length {
        let mut lb: Length = 0;
        for (&dt, &du) in self.dist_to_t.iter().zip(self.index.distances_to(u)) {
            if du == INFINITE_LENGTH {
                continue;
            }
            if dt == INFINITE_LENGTH {
                return INFINITE_LENGTH;
            }
            lb = lb.max(dt.saturating_sub(du));
        }
        lb
    }

    /// Eq. (1): `lb(u, V_T) = min_{v ∈ V_T} lb(u, v)` in `O(|L| · |V_T|)`.
    ///
    /// Tighter than Eq. (2) but too slow for hot loops (the paper's reason
    /// for introducing Eq. (2)); kept for the ablation benchmark.
    pub fn lb_to_targets_eq1(&self, u: NodeId, targets: &[NodeId]) -> Length {
        targets
            .iter()
            .map(|&v| self.index.lower_bound(u, v))
            .min()
            .unwrap_or(INFINITE_LENGTH)
    }

    /// The underlying offline index.
    pub fn index(&self) -> &LandmarkIndex {
        self.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpj_graph::GraphBuilder;

    fn grid3x3() -> Graph {
        // 3×3 bidirectional grid, unit weights.
        let mut b = GraphBuilder::new(9);
        for r in 0..3u32 {
            for c in 0..3u32 {
                let v = r * 3 + c;
                if c + 1 < 3 {
                    b.add_bidirectional(v, v + 1, 1).unwrap();
                }
                if r + 1 < 3 {
                    b.add_bidirectional(v, v + 3, 1).unwrap();
                }
            }
        }
        b.build()
    }

    fn true_dist(g: &Graph, u: NodeId, v: NodeId) -> Length {
        DenseDijkstra::from_source(g, u).dist(v)
    }

    #[test]
    fn bounds_are_valid_lower_bounds() {
        let g = grid3x3();
        for strategy in [SelectionStrategy::Farthest, SelectionStrategy::Random] {
            let idx = LandmarkIndex::build(&g, 3, strategy, 7);
            assert_eq!(idx.len(), 3);
            for u in g.nodes() {
                for v in g.nodes() {
                    assert!(
                        idx.lower_bound(u, v) <= true_dist(&g, u, v),
                        "lb({u},{v}) exceeds true distance ({strategy:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn landmark_to_anywhere_bound_is_exact() {
        let g = grid3x3();
        let idx = LandmarkIndex::build(&g, 2, SelectionStrategy::Farthest, 1);
        // From a landmark itself the bound must equal the true distance.
        let w = idx.landmarks()[0];
        for v in g.nodes() {
            assert_eq!(idx.lower_bound(w, v), true_dist(&g, w, v));
        }
    }

    #[test]
    fn eq2_matches_definition_and_is_dominated_by_eq1() {
        let g = grid3x3();
        let idx = LandmarkIndex::build(&g, 3, SelectionStrategy::Farthest, 3);
        let targets = [2u32, 6];
        let qb = idx.for_targets(&targets);
        for u in g.nodes() {
            let true_to_set = targets.iter().map(|&t| true_dist(&g, u, t)).min().unwrap();
            let lb2 = qb.lb_to_targets(u);
            let lb1 = qb.lb_to_targets_eq1(u, &targets);
            assert!(lb2 <= true_to_set, "Eq.(2) must lower-bound δ(u, V_T)");
            assert!(lb1 <= true_to_set, "Eq.(1) must lower-bound δ(u, V_T)");
            assert!(lb2 <= lb1, "Eq.(2) is never tighter than Eq.(1)");
        }
    }

    #[test]
    fn unreachable_targets_give_infinite_bound() {
        // Two components: 0-1 and 2-3.
        let mut b = GraphBuilder::new(4);
        b.add_bidirectional(0, 1, 1).unwrap();
        b.add_bidirectional(2, 3, 1).unwrap();
        let g = b.build();
        // Farthest selection jumps across components, so with 2 landmarks
        // both components hold one.
        let idx = LandmarkIndex::build(&g, 2, SelectionStrategy::Farthest, 5);
        let qb = idx.for_targets(&[3]);
        assert_eq!(qb.lb_to_targets(0), INFINITE_LENGTH);
        assert!(qb.lb_to_targets(2) <= 1);
    }

    #[test]
    fn empty_target_set_is_unreachable() {
        let g = grid3x3();
        let idx = LandmarkIndex::build(&g, 2, SelectionStrategy::Farthest, 5);
        let qb = idx.for_targets(&[]);
        assert_eq!(qb.lb_to_targets(0), INFINITE_LENGTH);
        assert_eq!(qb.lb_to_targets_eq1(0, &[]), INFINITE_LENGTH);
    }

    #[test]
    fn zero_landmarks_degrade_to_zero_bounds() {
        let g = grid3x3();
        let idx = LandmarkIndex::build(&g, 0, SelectionStrategy::Farthest, 5);
        assert!(idx.is_empty());
        assert_eq!(idx.lower_bound(0, 8), 0);
        let qb = idx.for_targets(&[8]);
        assert_eq!(qb.lb_to_targets(0), 0);
    }

    #[test]
    fn farthest_selection_spreads_landmarks() {
        let g = grid3x3();
        let idx = LandmarkIndex::build(&g, 2, SelectionStrategy::Farthest, 11);
        let [a, b] = [idx.landmarks()[0], idx.landmarks()[1]];
        // In a 3×3 grid two farthest-selected landmarks are ≥ 2 apart.
        assert!(true_dist(&g, a, b) >= 2, "landmarks {a},{b} too close");
    }

    #[test]
    fn count_capped_at_node_count() {
        let g = grid3x3();
        let idx = LandmarkIndex::build(&g, 100, SelectionStrategy::Random, 2);
        assert!(idx.len() <= 9);
    }

    #[test]
    fn build_is_deterministic_for_a_seed() {
        let g = grid3x3();
        let a = LandmarkIndex::build(&g, 4, SelectionStrategy::Farthest, 9);
        let b = LandmarkIndex::build(&g, 4, SelectionStrategy::Farthest, 9);
        assert_eq!(a.landmarks(), b.landmarks());
    }

    /// The sequential reference solver for [`build_with_solver`].
    fn seq_solver(g: &Graph, sources: &[NodeId], out: &mut [Length]) {
        let n = g.node_count();
        for (i, &s) in sources.iter().enumerate() {
            out[i * n..(i + 1) * n].copy_from_slice(DenseDijkstra::from_source(g, s).dist_slice());
        }
    }

    #[test]
    fn batched_build_is_bit_identical_to_sequential() {
        let g = grid3x3();
        for strategy in [SelectionStrategy::Farthest, SelectionStrategy::Random] {
            for seed in 0..6u64 {
                for count in [1usize, 3, 5, 9] {
                    let reference = LandmarkIndex::build(&g, count, strategy, seed);
                    for batch in [1usize, 2, 4, 16] {
                        let batched = LandmarkIndex::build_with_solver(
                            &g,
                            count,
                            strategy,
                            seed,
                            batch,
                            &seq_solver,
                        );
                        assert_eq!(
                            batched, reference,
                            "{strategy:?} seed={seed} count={count} batch={batch}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batched_build_handles_disconnected_graphs() {
        // Two components force the early-exit branch mid-batch.
        let mut b = GraphBuilder::new(4);
        b.add_bidirectional(0, 1, 1).unwrap();
        b.add_bidirectional(2, 3, 1).unwrap();
        let g = b.build();
        for seed in 0..4u64 {
            let reference = LandmarkIndex::build(&g, 4, SelectionStrategy::Farthest, seed);
            let batched = LandmarkIndex::build_with_solver(
                &g,
                4,
                SelectionStrategy::Farthest,
                seed,
                3,
                &seq_solver,
            );
            assert_eq!(batched, reference, "seed={seed}");
        }
    }

    /// A sparse random digraph: some nodes are unreachable from some
    /// landmarks, so the `∞` branches of every bound get exercised.
    fn random_digraph(n: u32, edges: usize, seed: u64) -> Graph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n as usize);
        for _ in 0..edges {
            b.add_edge(
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(0..20),
            )
            .unwrap();
        }
        b.build()
    }

    /// Eq. (1)/(2) bounds recomputed from per-landmark Dijkstra rows,
    /// independent of how the index lays its tables out.
    struct Reference(Vec<Vec<Length>>);

    impl Reference {
        fn new(g: &Graph, idx: &LandmarkIndex) -> Self {
            let rows = idx.landmarks().iter();
            Reference(
                rows.map(|&w| DenseDijkstra::from_source(g, w).into_dist())
                    .collect(),
            )
        }

        fn lower_bound(&self, u: NodeId, v: NodeId) -> Length {
            let mut lb = 0;
            for row in &self.0 {
                let (du, dv) = (row[u as usize], row[v as usize]);
                if du == INFINITE_LENGTH {
                    continue;
                }
                if dv == INFINITE_LENGTH {
                    return INFINITE_LENGTH;
                }
                lb = lb.max(dv.saturating_sub(du));
            }
            lb
        }

        fn lb_to_targets(&self, u: NodeId, targets: &[NodeId]) -> Length {
            let mut lb = 0;
            for row in &self.0 {
                let du = row[u as usize];
                let dt = targets.iter().map(|&t| row[t as usize]).min();
                let dt = dt.unwrap_or(INFINITE_LENGTH);
                if du == INFINITE_LENGTH {
                    continue;
                }
                if dt == INFINITE_LENGTH {
                    return INFINITE_LENGTH;
                }
                lb = lb.max(dt.saturating_sub(du));
            }
            lb
        }
    }

    #[test]
    fn bounds_match_a_per_landmark_row_reference() {
        let mut saw_infinite = false;
        for seed in 0..8u64 {
            let g = random_digraph(70, 160, seed);
            for strategy in [SelectionStrategy::Farthest, SelectionStrategy::Random] {
                let idx = LandmarkIndex::build(&g, 6, strategy, seed);
                let reference = Reference::new(&g, &idx);
                saw_infinite |= reference.0.iter().any(|r| r.contains(&INFINITE_LENGTH));
                for (l, row) in reference.0.iter().enumerate() {
                    for v in g.nodes() {
                        assert_eq!(idx.landmark_distance(l, v), row[v as usize]);
                    }
                }
                let targets = [seed as NodeId % 70, 17, 42, 69];
                let qb = idx.for_targets(&targets);
                for u in g.nodes() {
                    let want = reference.lb_to_targets(u, &targets);
                    assert_eq!(qb.lb_to_targets(u), want, "seed {seed} u {u}");
                    let eq1 = targets.iter().map(|&t| reference.lower_bound(u, t)).min();
                    assert_eq!(qb.lb_to_targets_eq1(u, &targets), eq1.unwrap());
                    for v in g.nodes() {
                        assert_eq!(idx.lower_bound(u, v), reference.lower_bound(u, v));
                    }
                }
            }
        }
        assert!(
            saw_infinite,
            "no ∞ entry: the unreachable branches went untested"
        );
    }

    #[test]
    fn from_raw_validates_shape() {
        let g = grid3x3();
        let idx = LandmarkIndex::build(&g, 2, SelectionStrategy::Farthest, 1);
        let rebuilt = LandmarkIndex::from_raw(
            idx.landmarks().to_vec(),
            idx.tables().to_vec().into(),
            idx.node_count(),
        )
        .unwrap();
        assert_eq!(rebuilt, idx);
        assert!(LandmarkIndex::from_raw(vec![0], vec![1, 2, 3].into(), 9).is_err());
        assert!(LandmarkIndex::from_raw(vec![99], vec![0; 9].into(), 9).is_err());
    }
}
