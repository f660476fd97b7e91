//! Answer fingerprints: every algorithm × {landmarks, none} on three
//! seeded graphs must reproduce a pinned FNV-1a hash of its emitted node
//! sequences, path lengths and `QueryStats` counters.
//!
//! The other suites compare length multisets, which cannot see a change
//! in how equal-length paths or equal-key heap entries are ordered. This
//! test can: a search refactor that reorders ties moves a node sequence
//! or a work counter, and with it the hash. The pinned values are the
//! answers of the code before the inline-key heap and fused search
//! labels; they change only when an algorithm is meant to change.
//!
//! The engine is pinned sequential (`set_par_threads(1)`), so the
//! parallel-round counters do not depend on `KPJ_PAR_THREADS`.

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

fn fingerprint(engine: &mut QueryEngine<'_>, alg: Algorithm, case: &Case) -> u64 {
    let mut h = Fnv::new();
    for (sources, targets, k) in &case.queries {
        let r = engine.query_multi(alg, sources, targets, *k).unwrap();
        h.word(r.paths.len() as u64);
        for p in r.paths.iter() {
            h.word(p.length);
            h.word(p.nodes.len() as u64);
            for &v in p.nodes {
                h.word(u64::from(v));
            }
        }
        for x in r.stats.field_values() {
            h.word(x);
        }
    }
    h.0
}

/// `(case, landmarks, algorithm) -> hash`, in `Algorithm::ALL` order.
const PINNED: [(&str, bool, &str, u64); 48] = [
    ("road", false, "DA", 0xf6d248ffff86c8a6),
    ("road", false, "DA-SPT", 0xe8abc64fba755f9b),
    ("road", false, "DA-Pascoal", 0x826d6778fc2ea313),
    ("road", false, "BestFirst", 0x90dc9093fe26cfb5),
    ("road", false, "IterBound", 0x8f0458523c87f769),
    ("road", false, "IterBoundP", 0xe67952e94dfbac87),
    ("road", false, "IterBoundI", 0x0078b03e6f84b190),
    ("road", false, "Sidetrack", 0x14ea35b801398f22),
    ("road", true, "DA", 0xf6d248ffff86c8a6),
    ("road", true, "DA-SPT", 0xe8abc64fba755f9b),
    ("road", true, "DA-Pascoal", 0x826d6778fc2ea313),
    ("road", true, "BestFirst", 0x0f0a19267a98a52f),
    ("road", true, "IterBound", 0x771ec29eeb6ca6bd),
    ("road", true, "IterBoundP", 0x439f831c153dc169),
    ("road", true, "IterBoundI", 0x61691fe772744ac9),
    ("road", true, "Sidetrack", 0x14ea35b801398f22),
    ("sparse", false, "DA", 0x15c07ee24f219636),
    ("sparse", false, "DA-SPT", 0xaa1b29e3474fa10b),
    ("sparse", false, "DA-Pascoal", 0x9e2fc15fdebb2b53),
    ("sparse", false, "BestFirst", 0x0350ca1655231f9b),
    ("sparse", false, "IterBound", 0xabdad0ad7f2e66ae),
    ("sparse", false, "IterBoundP", 0x540fbdc7fbffe4fa),
    ("sparse", false, "IterBoundI", 0x900c2c70b2f5ac16),
    ("sparse", false, "Sidetrack", 0xfbdc14ea2eec3e7a),
    ("sparse", true, "DA", 0x15c07ee24f219636),
    ("sparse", true, "DA-SPT", 0xaa1b29e3474fa10b),
    ("sparse", true, "DA-Pascoal", 0x9e2fc15fdebb2b53),
    ("sparse", true, "BestFirst", 0xf0f418cb0be4bdf0),
    ("sparse", true, "IterBound", 0xd003912177a1d3cb),
    ("sparse", true, "IterBoundP", 0xa88be7f40dc725c2),
    ("sparse", true, "IterBoundI", 0xafd8147077f2591b),
    ("sparse", true, "Sidetrack", 0xfbdc14ea2eec3e7a),
    ("gkpj", false, "DA", 0xfb8759fde80d181c),
    ("gkpj", false, "DA-SPT", 0xbb895dbec7c2ed0e),
    ("gkpj", false, "DA-Pascoal", 0x7ae3f1b533ab9af1),
    ("gkpj", false, "BestFirst", 0xc2c4a5d5a14663f8),
    ("gkpj", false, "IterBound", 0xd6ff4f74af654989),
    ("gkpj", false, "IterBoundP", 0x5021337d77567a70),
    ("gkpj", false, "IterBoundI", 0x909dd11e652a34e0),
    ("gkpj", false, "Sidetrack", 0x89736d28005506b9),
    ("gkpj", true, "DA", 0xfb8759fde80d181c),
    ("gkpj", true, "DA-SPT", 0xbb895dbec7c2ed0e),
    ("gkpj", true, "DA-Pascoal", 0x7ae3f1b533ab9af1),
    ("gkpj", true, "BestFirst", 0xb470d3cd71434b3b),
    ("gkpj", true, "IterBound", 0xfd272f9eeb77fde8),
    ("gkpj", true, "IterBoundP", 0x5c7cf4f57c320841),
    ("gkpj", true, "IterBoundI", 0xbc54acefe6ac4b2e),
    ("gkpj", true, "Sidetrack", 0x89736d28005506b9),
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
            engine.set_par_threads(1);
            for alg in Algorithm::ALL {
                got.push((
                    case.name,
                    with_lm,
                    alg.name(),
                    fingerprint(&mut engine, alg, case),
                ));
            }
        }
    }
    let mismatches: Vec<String> = got
        .iter()
        .zip(PINNED.iter())
        .filter(|(g, p)| g != p)
        .map(|(g, p)| {
            format!(
                "    ({:?}, {}, {:?}, {:#018x}), // pinned {:#018x}",
                g.0, g.1, g.2, g.3, p.3
            )
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "answer fingerprints moved:\n{}",
        mismatches.join("\n")
    );
}
