//! Answer fingerprints: every algorithm × {landmarks, none} on three
//! seeded graphs must reproduce two pinned FNV-1a hashes: one of its
//! emitted node sequences, path lengths and `QueryStats` counters (the
//! answer hash), and one of the path counts and lengths only (the length
//! hash).
//!
//! The other suites compare length multisets, which cannot see a change
//! in how equal-length paths or equal-key heap entries are ordered. This
//! test can: a search refactor that reorders ties moves a node sequence
//! or a work counter, and with it the hash. The pinned values change
//! only when an algorithm is meant to change, and CHANGES.md records why
//! each time. A change that reorders equal-length paths moves the answer
//! hash but must leave the length hash alone: the lengths of the top-k
//! are fixed by the graph, not by the search schedule.

use kpj_core::{Algorithm, QueryEngine};
use kpj_graph::{Graph, GraphBuilder, NodeId, INFINITE_LENGTH};
use kpj_landmark::{LandmarkIndex, SelectionStrategy};
use kpj_workload::road::RoadConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over little-endian `u64` words: stable across toolchains,
/// unlike `std`'s `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

struct Case {
    name: &'static str,
    graph: Graph,
    /// `(sources, targets, k)` per query.
    queries: Vec<(Vec<NodeId>, Vec<NodeId>, usize)>,
}

fn pick(rng: &mut SmallRng, n: usize, count: usize) -> Vec<NodeId> {
    (0..count).map(|_| rng.gen_range(0..n as NodeId)).collect()
}

/// Road-like lattice with small integer weights, so equal-length paths
/// and equal heap keys are common.
fn road_case() -> Case {
    let mut cfg = RoadConfig::new(400, 1_400, 11);
    cfg.base_weight = 3;
    let graph = cfg.generate();
    let mut rng = SmallRng::seed_from_u64(101);
    let queries = (0..6)
        .map(|i| (pick(&mut rng, 400, 1), pick(&mut rng, 400, 1 + 3 * i), 12))
        .collect();
    Case {
        name: "road",
        graph,
        queries,
    }
}

/// Sparse random digraph with zero-weight arcs: many nodes cannot reach
/// (or be reached from) some landmark, so the tables hold ∞ entries.
fn sparse_case() -> Case {
    let n = 300;
    let mut rng = SmallRng::seed_from_u64(202);
    let mut b = GraphBuilder::new(n);
    for _ in 0..(n * 3 / 2) {
        let u = rng.gen_range(0..n as NodeId);
        let v = rng.gen_range(0..n as NodeId);
        if u != v {
            b.add_edge(u, v, rng.gen_range(0..=4)).unwrap();
        }
    }
    let graph = b.build();
    let queries = (0..8)
        .map(|i| (pick(&mut rng, n, 1), pick(&mut rng, n, 2 + i), 10))
        .collect();
    Case {
        name: "sparse",
        graph,
        queries,
    }
}

/// GKPJ: several sources against several targets on a small undirected
/// graph with weights 1..=3.
fn gkpj_case() -> Case {
    let n = 250;
    let mut rng = SmallRng::seed_from_u64(303);
    let mut b = GraphBuilder::new(n);
    for _ in 0..(n * 2) {
        let u = rng.gen_range(0..n as NodeId);
        let v = rng.gen_range(0..n as NodeId);
        if u != v {
            b.add_bidirectional(u, v, rng.gen_range(1..=3)).unwrap();
        }
    }
    let graph = b.build();
    let queries = (0..5)
        .map(|i| (pick(&mut rng, n, 2 + i), pick(&mut rng, n, 3 + i), 15))
        .collect();
    Case {
        name: "gkpj",
        graph,
        queries,
    }
}

/// `(answer hash, length hash)` of one algorithm's answers to a case.
fn fingerprint(engine: &mut QueryEngine<'_>, alg: Algorithm, case: &Case) -> (u64, u64) {
    let mut h = Fnv::new();
    let mut lengths = Fnv::new();
    for (sources, targets, k) in &case.queries {
        let r = engine.query_multi(alg, sources, targets, *k).unwrap();
        h.word(r.paths.len() as u64);
        lengths.word(r.paths.len() as u64);
        for p in r.paths.iter() {
            h.word(p.length);
            lengths.word(p.length);
            h.word(p.nodes.len() as u64);
            for &v in p.nodes {
                h.word(u64::from(v));
            }
        }
        for x in r.stats.field_values() {
            h.word(x);
        }
    }
    (h.0, lengths.0)
}

/// `(case, landmarks, algorithm) -> (answer hash, length hash)`, in
/// `Algorithm::ALL` order. One row per cell, kept on one line so a re-pin
/// diff reads cell by cell.
#[rustfmt::skip]
const PINNED: [(&str, bool, &str, u64, u64); 48] = [
    ("road", false, "DA", 0x8301c3328fc2a266, 0x45696b88150b9375),
    ("road", false, "DA-SPT", 0x53331c1a0612d79b, 0x45696b88150b9375),
    ("road", false, "DA-Pascoal", 0xc3d8db508debb813, 0x45696b88150b9375),
    ("road", false, "BestFirst", 0x97f6e09f482f2f04, 0x45696b88150b9375),
    ("road", false, "IterBound", 0x92c258a66f25eda7, 0x45696b88150b9375),
    ("road", false, "IterBoundP", 0xcc7baaa089efb8a9, 0x45696b88150b9375),
    ("road", false, "IterBoundI", 0x49b8e59700245bf3, 0x45696b88150b9375),
    ("road", false, "Sidetrack", 0x8033e2a9d4f42ae2, 0x45696b88150b9375),
    ("road", true, "DA", 0x8301c3328fc2a266, 0x45696b88150b9375),
    ("road", true, "DA-SPT", 0x53331c1a0612d79b, 0x45696b88150b9375),
    ("road", true, "DA-Pascoal", 0xc3d8db508debb813, 0x45696b88150b9375),
    ("road", true, "BestFirst", 0x5783af3e2c15c3ea, 0x45696b88150b9375),
    ("road", true, "IterBound", 0x468188f15e780a76, 0x45696b88150b9375),
    ("road", true, "IterBoundP", 0xbc60c14312e165ac, 0x45696b88150b9375),
    ("road", true, "IterBoundI", 0x06add4962a92d6e5, 0x45696b88150b9375),
    ("road", true, "Sidetrack", 0x8033e2a9d4f42ae2, 0x45696b88150b9375),
    ("sparse", false, "DA", 0x0be5d9b3bb660b36, 0xd3628ae6d28bd1f4),
    ("sparse", false, "DA-SPT", 0xaeccca63fa837a0b, 0xd3628ae6d28bd1f4),
    ("sparse", false, "DA-Pascoal", 0x72a7a56c98fe6453, 0xd3628ae6d28bd1f4),
    ("sparse", false, "BestFirst", 0xed0be49fa81096b3, 0xd3628ae6d28bd1f4),
    ("sparse", false, "IterBound", 0x3f396cf7890d9d42, 0xd3628ae6d28bd1f4),
    ("sparse", false, "IterBoundP", 0x07c4cf3b881c44e4, 0xd3628ae6d28bd1f4),
    ("sparse", false, "IterBoundI", 0x5e054307cecfd9d5, 0xd3628ae6d28bd1f4),
    ("sparse", false, "Sidetrack", 0x830fa8f25ea032fa, 0xd3628ae6d28bd1f4),
    ("sparse", true, "DA", 0x0be5d9b3bb660b36, 0xd3628ae6d28bd1f4),
    ("sparse", true, "DA-SPT", 0xaeccca63fa837a0b, 0xd3628ae6d28bd1f4),
    ("sparse", true, "DA-Pascoal", 0x72a7a56c98fe6453, 0xd3628ae6d28bd1f4),
    ("sparse", true, "BestFirst", 0xd21cdb259ef129d7, 0xd3628ae6d28bd1f4),
    ("sparse", true, "IterBound", 0xd6103b8232b671b8, 0xd3628ae6d28bd1f4),
    ("sparse", true, "IterBoundP", 0x0648b05f13e8e2b0, 0xd3628ae6d28bd1f4),
    ("sparse", true, "IterBoundI", 0x78dddbfadfa90fe0, 0xd3628ae6d28bd1f4),
    ("sparse", true, "Sidetrack", 0x830fa8f25ea032fa, 0xd3628ae6d28bd1f4),
    ("gkpj", false, "DA", 0x2a45319b4f4d8f9c, 0xa3e7ec86eb4f402d),
    ("gkpj", false, "DA-SPT", 0x730ad98a5c95420e, 0xa3e7ec86eb4f402d),
    ("gkpj", false, "DA-Pascoal", 0xcf9dbb648aca02f1, 0xa3e7ec86eb4f402d),
    ("gkpj", false, "BestFirst", 0xcc577580dcec97a9, 0xa3e7ec86eb4f402d),
    ("gkpj", false, "IterBound", 0x9c5d516110e93e61, 0xa3e7ec86eb4f402d),
    ("gkpj", false, "IterBoundP", 0x73a15f37168d9288, 0xa3e7ec86eb4f402d),
    ("gkpj", false, "IterBoundI", 0xa82cf0fe7375b5c0, 0xa3e7ec86eb4f402d),
    ("gkpj", false, "Sidetrack", 0xf57346b120a6c879, 0xa3e7ec86eb4f402d),
    ("gkpj", true, "DA", 0x2a45319b4f4d8f9c, 0xa3e7ec86eb4f402d),
    ("gkpj", true, "DA-SPT", 0x730ad98a5c95420e, 0xa3e7ec86eb4f402d),
    ("gkpj", true, "DA-Pascoal", 0xcf9dbb648aca02f1, 0xa3e7ec86eb4f402d),
    ("gkpj", true, "BestFirst", 0x6e11bb9d9c1f8b17, 0xa3e7ec86eb4f402d),
    ("gkpj", true, "IterBound", 0x0273bab26d54d9c6, 0xa3e7ec86eb4f402d),
    ("gkpj", true, "IterBoundP", 0xcdf1e37fa4fa65dc, 0xa3e7ec86eb4f402d),
    ("gkpj", true, "IterBoundI", 0xe93616d13502571c, 0xa3e7ec86eb4f402d),
    ("gkpj", true, "Sidetrack", 0xf57346b120a6c879, 0xa3e7ec86eb4f402d),
];

#[test]
fn answers_match_pinned_fingerprints() {
    let cases = [road_case(), sparse_case(), gkpj_case()];
    let mut got = Vec::new();
    for case in &cases {
        let idx = LandmarkIndex::build(&case.graph, 4, SelectionStrategy::Farthest, 7);
        if case.name == "sparse" {
            let has_inf = case
                .graph
                .nodes()
                .any(|v| idx.distances_to(v).contains(&INFINITE_LENGTH));
            assert!(has_inf, "the sparse case must exercise ∞ table entries");
        }
        for with_lm in [false, true] {
            let mut engine = QueryEngine::new(&case.graph);
            if with_lm {
                engine = engine.with_landmarks(&idx);
            }
            for alg in Algorithm::ALL {
                let (answer, lengths) = fingerprint(&mut engine, alg, case);
                got.push((case.name, with_lm, alg.name(), answer, lengths));
            }
        }
    }
    let mismatches: Vec<String> = got
        .iter()
        .zip(PINNED.iter())
        .filter(|(g, p)| g != p)
        .map(|(g, p)| {
            format!(
                "    ({:?}, {}, {:?}, {:#018x}, {:#018x}), // pinned {:#018x}, {:#018x}",
                g.0, g.1, g.2, g.3, g.4, p.3, p.4
            )
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "answer fingerprints moved:\n{}",
        mismatches.join("\n")
    );
}
