//! Offline cache-locality node reordering.
//!
//! KPJ searches spend their time walking CSR adjacency; renumbering nodes
//! in BFS order from a high-degree root puts each frontier's neighbors on
//! adjacent cache lines, cutting the random-access span of the big
//! distance/parent arrays. The pass is a pure relabeling: the reordered
//! graph is isomorphic to the original, and the recorded [`NodeRemap`]
//! translates ids at the wire boundary, so answers are unchanged (the
//! oracle's `check_reorder` stage proves this per-query).
//!
//! Determinism: the BFS root is the maximum-out-degree node (ties to the
//! lowest id), neighbors are visited in adjacency order, and nodes
//! unreached from the root are swept in ascending old-id order — the
//! permutation is a pure function of the graph.

use std::collections::VecDeque;

use kpj_graph::{CategoryIndex, Graph, GraphBuilder, NodeId, NodeRemap, Reduction};
use kpj_landmark::LandmarkIndex;

/// A reordered graph plus the permutation that produced it.
#[derive(Debug)]
pub struct Reordered {
    /// The relabeled graph (internal ids).
    pub graph: Graph,
    /// external (old) ↔ internal (new) id translation.
    pub remap: NodeRemap,
}

/// The BFS visit order: `order[new_id] = old_id`.
pub fn bfs_order(g: &Graph) -> Vec<NodeId> {
    let n = g.node_count();
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut queue = VecDeque::new();

    // Root: maximum out-degree, ties to the lowest id.
    let root = g
        .nodes()
        .max_by_key(|&v| (g.out_degree(v), std::cmp::Reverse(v)))
        .unwrap_or(0);
    let enqueue = |v: NodeId, seen: &mut Vec<bool>, queue: &mut VecDeque<NodeId>| {
        if !seen[v as usize] {
            seen[v as usize] = true;
            queue.push_back(v);
        }
    };
    if n > 0 {
        enqueue(root, &mut seen, &mut queue);
    }
    // Sweep remaining components in ascending old-id order.
    let mut next_unseen: usize = 0;
    while order.len() < n {
        let Some(u) = queue.pop_front() else {
            while seen[next_unseen] {
                next_unseen += 1;
            }
            enqueue(next_unseen as NodeId, &mut seen, &mut queue);
            continue;
        };
        order.push(u);
        for e in g.out_edges(u) {
            enqueue(e.to, &mut seen, &mut queue);
        }
    }
    order
}

/// Relabel `g` into BFS order (see the module docs for the guarantees).
pub fn reorder(g: &Graph) -> Reordered {
    let n = g.node_count();
    let order = bfs_order(g);
    let mut old_to_new = vec![0u32; n];
    for (new, &old) in order.iter().enumerate() {
        old_to_new[old as usize] = new as u32;
    }
    let mut b = GraphBuilder::with_capacity(n, g.edge_count());
    for (new_u, &old_u) in order.iter().enumerate() {
        for e in g.out_edges(old_u) {
            b.add_edge(new_u as NodeId, old_to_new[e.to as usize], e.weight)
                .expect("relabeled endpoints stay in range");
        }
    }
    let remap = NodeRemap::from_old_to_new(old_to_new).expect("BFS order is a permutation");
    Reordered {
        graph: b.build(),
        remap,
    }
}

/// Translate a category index into internal ids (members re-sorted).
pub fn remap_categories(cats: &CategoryIndex, remap: &NodeRemap) -> CategoryIndex {
    let mut out = CategoryIndex::new();
    for (_, name, members) in cats.iter() {
        let translated = members
            .iter()
            .map(|&v| remap.to_internal(v).expect("member id in range"))
            .collect();
        out.add_category(name, translated);
    }
    out
}

/// Fold a reorder of a **reduced** graph into its [`Reduction`], so the
/// result maps original ids straight to the reordered reduced ids and
/// the store file needs no separate remap sections. `old` is the reduced
/// graph `red` describes; `r` is `reorder(old)`.
pub fn remap_reduction(red: &Reduction, old: &Graph, r: &Reordered) -> Reduction {
    red.remapped(old, &r.remap, &r.graph)
}

/// Translate a landmark index into internal ids: landmark ids are mapped
/// and whole node slices are permuted, so the `|L|`-slice of `new` is the
/// old slice of `old`.
pub fn remap_landmarks(lm: &LandmarkIndex, remap: &NodeRemap) -> LandmarkIndex {
    let n = lm.node_count();
    assert_eq!(n, remap.len(), "landmark index and remap disagree on n");
    let landmarks = lm
        .landmarks()
        .iter()
        .map(|&w| remap.to_internal(w).expect("landmark id in range"))
        .collect();
    let mut tables = Vec::with_capacity(lm.tables().len());
    for &old in remap.new_to_old() {
        tables.extend_from_slice(lm.distances_to(old));
    }
    LandmarkIndex::from_raw(landmarks, tables.into(), n).expect("permuted tables keep their shape")
}
