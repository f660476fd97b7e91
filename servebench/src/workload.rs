//! The four workloads: their set-up (the timed part users pay before the
//! first request) and their request streams (drawn from the run's seed).
//!
//! The graph of each workload is a fixed dataset; `--seed` draws the
//! requests: sources, source/target sets, hot-set ranks and the edges an
//! update re-weights. Op `i` of a stream is a pure function of
//! `(seed, i)`, so clients pulling ops from a shared counter always send
//! the same requests, whatever the interleaving.

use std::fmt::Write as _;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use kpj_core::Algorithm;
use kpj_graph::{CategoryIndex, Graph, NodeId};
use kpj_landmark::{LandmarkIndex, SelectionStrategy};
use kpj_service::{KpjService, ServiceConfig};
use kpj_workload::huge::HugeConfig;
use kpj_workload::queries::QuerySets;
use kpj_workload::social::SocialConfig;

use crate::spans::Spans;

/// The workloads, by the names the command line takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// CAL at paper size, distinct (source, category) IterBoundI queries.
    RoadCold,
    /// CAL, a Zipf-skewed hot set of queries plus ~2% weight updates.
    RoadHotUpdate,
    /// Watts–Strogatz n=4000, distinct GKPJ Sidetrack queries at k=100.
    SocialK100,
    /// The 1M-node stencil served zero-copy from a v2 store file.
    HugeMmap,
}

/// Every workload, in the order the documentation lists them.
pub const ALL: [Kind; 4] = [
    Kind::RoadCold,
    Kind::RoadHotUpdate,
    Kind::SocialK100,
    Kind::HugeMmap,
];

impl Kind {
    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::RoadCold => "road-cold",
            Kind::RoadHotUpdate => "road-hot-update",
            Kind::SocialK100 => "social-k100",
            Kind::HugeMmap => "huge-mmap",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == name)
    }

    /// The engine the workload's queries ask for.
    pub fn algorithm(self) -> Algorithm {
        match self {
            Kind::SocialK100 => Algorithm::Sidetrack,
            _ => Algorithm::IterBoundI,
        }
    }

    /// An engine of another algorithm family, for the answer cross-check:
    /// the deviation paradigm checks the iteratively bounding one, and
    /// the iteratively bounding one checks sidetrack splicing.
    pub fn check_algorithm(self) -> Algorithm {
        match self {
            Kind::SocialK100 => Algorithm::IterBoundI,
            _ => Algorithm::DaSpt,
        }
    }

    /// Whether weight updates are part of the request stream.
    pub fn has_updates(self) -> bool {
        self == Kind::RoadHotUpdate
    }
}

/// Graph sizes: `Full` is the benchmark, `Smoke` a seconds-long
/// miniature of each workload for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark reports.
    Full,
    /// Tiny graphs with the same shape.
    Smoke,
}

/// Landmarks built for every workload (the paper's default).
pub const LANDMARKS: usize = 16;
/// Fixed dataset seeds: the graphs are datasets, the seed draws requests.
const POI_SEED: u64 = 0xCA11;
const SOCIAL_SEED: u64 = 0x50C1A1;
const HUGE_SEED: u64 = 0x4B16;
/// Seed of every landmark selection.
pub const LANDMARK_SEED: u64 = 0x1A4D;
/// `k` of the cold road, social and huge queries.
const K_ROAD: usize = 20;
const K_SOCIAL: usize = 100;
/// GKPJ set sizes of the social queries.
const SOCIAL_SOURCES: usize = 8;
const SOCIAL_TARGETS: usize = 40;
/// Hot set of the update workload: distinct (source, category, k)
/// tuples, four per (category, distance group, k) cell, well under the
/// result cache's 1024 entries.
const HOT_SET: usize = 240;
const HOT_K: [usize; 3] = [10, 20, 50];
/// Zipf exponent of the hot-set ranks.
const ZIPF_S: f64 = 1.0;
/// Ops between popularity drifts of the hot set, and how far ranks move
/// (coprime with the hot-set size, so drifts visit every tuple).
const DRIFT_OPS: u64 = 1000;
const DRIFT_STRIDE: usize = 97;
/// Every `UPDATE_EVERY`-th op of the update workload is an update (2%):
/// epochs of equal length keep the cache's hit ratio steady.
const UPDATE_EVERY: u64 = 50;
/// Edges per update batch, each re-weighted by ±25% of its original weight.
const UPDATE_EDGES: usize = 4;
/// Distance groups Q1–Q5 (§7).
const GROUPS: usize = 5;
/// Distance strata: reachable nodes sorted by `δ(v, T)` and cut into
/// percentiles; Q1–Q5 are 20 strata each.
const STRATA: usize = 100;
/// Targets of the huge workload.
const HUGE_TARGETS: usize = 8;

/// A deterministic splitmix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// The stream for item `index` of sub-stream `stream` under `seed`.
    pub fn new(seed: u64, stream: u64, index: u64) -> Rng {
        Rng(mix(seed ^ mix(stream ^ mix(index))))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Sub-stream ids, so no two uses of one seed draw the same numbers.
mod stream {
    pub const OPS: u64 = 1;
    pub const GROUPS: u64 = 2;
    pub const HOT: u64 = 3;
    pub const PROBE: u64 = 4;
}

/// Wall time of each set-up step, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Obtaining the in-memory graph (generation, or store write + open).
    pub graph_s: f64,
    /// `HugeConfig::write_v2` (0 without a store).
    pub store_write_s: f64,
    /// `kpj_store::open_v2` (0 without a store).
    pub store_open_s: f64,
    /// `LandmarkIndex::build`.
    pub landmarks_s: f64,
    /// `KpjService::new`.
    pub service_s: f64,
    /// Everything until the first request can be sent.
    pub total_s: f64,
}

/// What one set-up produced: the served graph, its landmark index and
/// the workload's fixed target sets.
pub struct Dataset {
    /// The graph as served (mmapped for `huge-mmap`).
    pub graph: Arc<Graph>,
    /// The landmark index every engine of the run shares.
    pub landmarks: Arc<LandmarkIndex>,
    /// Road: Glacier, Lake, Crater, Harbor. Huge: one set. Social: none
    /// (each query draws its own).
    pub target_sets: Vec<Vec<NodeId>>,
    /// Heap bytes of the landmark tables.
    pub landmark_bytes: usize,
}

/// The service configuration of every measured run: the default, with
/// the engine span tracer switched off (`trace = true` samples every
/// query, for the traced pass).
pub fn service_config(trace: bool) -> ServiceConfig {
    ServiceConfig {
        trace_sample: u32::from(trace),
        ..ServiceConfig::default()
    }
}

/// Set up `kind` once: build the dataset and start a service over it.
/// Steps are timed, and recorded as spans of request `rep` in `spans`.
pub fn set_up(
    kind: Kind,
    scale: Scale,
    work_dir: &Path,
    rep: u64,
    spans: &mut Spans,
) -> Result<(Dataset, KpjService, SetupTimes), String> {
    let mut t = SetupTimes::default();
    let started = Instant::now();
    let root = spans.open(rep, "setup", "run", None);

    let graph_started = Instant::now();
    let (graph, target_sets) = match kind {
        Kind::RoadCold | Kind::RoadHotUpdate => spans.time(rep, "workload", "road", root, || {
            let scale = match scale {
                Scale::Full => 1.0,
                Scale::Smoke => 0.02,
            };
            let graph = kpj_workload::datasets::CAL.generate(scale);
            let mut cats = CategoryIndex::new();
            let cal =
                kpj_workload::poi::generate_cal_categories(&mut cats, graph.node_count(), POI_SEED);
            let sets = [cal.glacier, cal.lake, cal.crater, cal.harbor]
                .map(|c| cats.members(c).to_vec())
                .to_vec();
            (graph, sets)
        }),
        Kind::SocialK100 => spans.time(rep, "workload", "social", root, || {
            let n = match scale {
                Scale::Full => 4000,
                Scale::Smoke => 400,
            };
            (SocialConfig::new(n, SOCIAL_SEED).generate(), Vec::new())
        }),
        Kind::HugeMmap => {
            let n = match scale {
                Scale::Full => 1_000_000,
                Scale::Smoke => 20_000,
            };
            let cfg = HugeConfig::new(n, HUGE_SEED);
            let path = work_dir.join(format!("huge-{}-{rep}.kpj2", std::process::id()));
            let write_started = Instant::now();
            spans.time(rep, "store", "write_v2", root, || write_store(&cfg, &path))?;
            t.store_write_s = write_started.elapsed().as_secs_f64();
            let open_started = Instant::now();
            let bundle = spans.time(rep, "store", "open_v2", root, || kpj_store::open_v2(&path));
            t.store_open_s = open_started.elapsed().as_secs_f64();
            // The mapping outlives the file's name; nothing is left behind.
            let _ = std::fs::remove_file(&path);
            let bundle = bundle.map_err(|e| format!("open_v2: {e}"))?;
            if !bundle.is_mapped() {
                return Err("open_v2 did not map the store".to_string());
            }
            let targets = (0..HUGE_TARGETS)
                .map(|j| ((2 * j + 1) * n / (2 * HUGE_TARGETS)) as NodeId)
                .collect();
            (bundle.graph, vec![targets])
        }
    };
    t.graph_s = graph_started.elapsed().as_secs_f64();

    let lm_started = Instant::now();
    let landmarks = spans.time(rep, "landmark", "build", root, || {
        LandmarkIndex::build(
            &graph,
            LANDMARKS,
            SelectionStrategy::Farthest,
            LANDMARK_SEED,
        )
    });
    t.landmarks_s = lm_started.elapsed().as_secs_f64();
    let landmark_bytes = std::mem::size_of_val(landmarks.tables());

    let graph = Arc::new(graph);
    let landmarks = Arc::new(landmarks);
    let svc_started = Instant::now();
    let service = spans.time(rep, "service", "new", root, || {
        KpjService::new(
            Arc::clone(&graph),
            Some(Arc::clone(&landmarks)),
            service_config(false),
        )
    });
    t.service_s = svc_started.elapsed().as_secs_f64();
    t.total_s = started.elapsed().as_secs_f64();
    spans.close(root);
    Ok((
        Dataset {
            graph,
            landmarks,
            target_sets,
            landmark_bytes,
        },
        service,
        t,
    ))
}

fn write_store(cfg: &HugeConfig, path: &Path) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("create {path:?}: {e}"))?;
    let mut out = BufWriter::new(file);
    cfg.write_v2(&mut out)
        .map_err(|e| format!("write_v2: {e}"))?;
    out.flush().map_err(|e| format!("write_v2 flush: {e}"))
}

/// One query as the benchmark sends it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Engine asked for.
    pub alg: Algorithm,
    /// Source set (one node for KPJ).
    pub sources: Vec<NodeId>,
    /// Target set (a category).
    pub targets: Vec<NodeId>,
    /// How many paths.
    pub k: usize,
}

/// One op of a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// A query, sent with `paths:true`.
    Query(Query),
    /// A batch of `[from, to, weight]` edge re-weights.
    Update(Vec<[u32; 3]>),
}

impl Op {
    /// The request line for op id `id`.
    pub fn to_line(&self, id: u64) -> String {
        let mut line = String::with_capacity(256);
        match self {
            Op::Query(q) => {
                write!(
                    line,
                    "{{\"id\":{id},\"op\":\"query\",\"algorithm\":\"{}\",\"k\":{},\"paths\":true,\"sources\":",
                    q.alg.name(),
                    q.k
                )
                .expect("writing to a String cannot fail");
                push_ids(&mut line, &q.sources);
                line.push_str(",\"targets\":");
                push_ids(&mut line, &q.targets);
                line.push('}');
            }
            Op::Update(edges) => {
                write!(line, "{{\"id\":{id},\"op\":\"update\",\"edges\":[")
                    .expect("writing to a String cannot fail");
                for (i, [from, to, w]) in edges.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    write!(line, "[{from},{to},{w}]").expect("writing to a String cannot fail");
                }
                line.push_str("]}");
            }
        }
        line
    }
}

fn push_ids(line: &mut String, ids: &[NodeId]) {
    line.push('[');
    for (i, v) in ids.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        write!(line, "{v}").expect("writing to a String cannot fail");
    }
    line.push(']');
}

/// The request stream of one run.
pub struct Stream {
    kind: Kind,
    seed: u64,
    /// The graph as first served: updates re-weight its original weights.
    graph: Arc<Graph>,
    target_sets: Vec<Vec<NodeId>>,
    /// Cold workloads: distinct (target set, source) pairs, visiting every
    /// (set, distance percentile) cell once per round.
    pairs: Vec<(usize, NodeId)>,
    /// Update workload: the hot (target set, source, k) tuples; Zipf rank
    /// `r` asks for tuple `r` until popularity drifts.
    hot: Vec<(usize, NodeId, usize)>,
    /// Cumulative Zipf weights over `hot`'s ranks.
    zipf_cdf: Vec<f64>,
}

impl Stream {
    /// Draw the stream of `kind` for `seed` over a set-up `ds`.
    pub fn new(kind: Kind, scale: Scale, seed: u64, ds: &Dataset) -> Stream {
        let graph = Arc::clone(&ds.graph);
        let per_stratum = match (kind, scale) {
            (_, Scale::Smoke) => 2,
            (Kind::HugeMmap, Scale::Full) => 50,
            (_, Scale::Full) => 150,
        };
        let mut pairs = Vec::new();
        let mut hot = Vec::new();
        let mut zipf_cdf = Vec::new();
        if kind != Kind::SocialK100 {
            // strata[set][stratum]: seed-drawn sources of one distance
            // percentile of one target set.
            let strata: Vec<Vec<Vec<NodeId>>> = ds
                .target_sets
                .iter()
                .enumerate()
                .map(|(set, targets)| {
                    let s = Rng::new(seed, stream::GROUPS, set as u64).next_u64();
                    QuerySets::generate(&graph, targets, STRATA, per_stratum, s).groups
                })
                .collect();
            // Any run of consecutive queries spans the distance range
            // evenly, whatever the seed: strata in bit-reversed order.
            let order: Vec<usize> = (0..128u32)
                .map(|i| (i.reverse_bits() >> 25) as usize)
                .filter(|&r| r < STRATA)
                .collect();
            for j in 0..per_stratum {
                for &st in &order {
                    for (set, by_stratum) in strata.iter().enumerate() {
                        if let Some(&s) = by_stratum[st].get(j) {
                            pairs.push((set, s));
                        }
                    }
                }
            }
            if kind == Kind::RoadHotUpdate {
                // Tuple r falls in cell (set r mod 4, group r mod 5, k r
                // mod 3), at a fixed percentile of its group: every tuple
                // keeps its place under any seed, and the seed draws only
                // the source at that percentile.
                let mut rng = Rng::new(seed, stream::HOT, 0);
                let per_group = STRATA / GROUPS;
                let cells = strata.len() * GROUPS * HOT_K.len();
                let step = (per_group * cells / HOT_SET).max(1);
                for rank in 0..HOT_SET {
                    let set = rank % strata.len();
                    let group = rank % GROUPS;
                    let k = HOT_K[rank % HOT_K.len()];
                    let offset = (step * (rank / cells) + step / 2) % per_group;
                    let pool = &strata[set][group * per_group + offset];
                    for _attempt in 0..pool.len() {
                        let tuple = (set, pool[rng.below(pool.len())], k);
                        if !hot.contains(&tuple) {
                            hot.push(tuple);
                            break;
                        }
                    }
                }
                let mut acc = 0.0;
                for rank in 1..=hot.len() {
                    acc += 1.0 / (rank as f64).powf(ZIPF_S);
                    zipf_cdf.push(acc);
                }
            }
        }
        Stream {
            kind,
            seed,
            graph,
            target_sets: ds.target_sets.clone(),
            pairs,
            hot,
            zipf_cdf,
        }
    }

    /// Op `i` of the stream.
    pub fn op(&self, i: u64) -> Op {
        let mut rng = Rng::new(self.seed, stream::OPS, i);
        let alg = self.kind.algorithm();
        match self.kind {
            Kind::RoadCold | Kind::HugeMmap => {
                let (set, s) = self.pairs[(i % self.pairs.len() as u64) as usize];
                Op::Query(Query {
                    alg,
                    sources: vec![s],
                    targets: self.target_sets[set].clone(),
                    k: K_ROAD,
                })
            }
            Kind::RoadHotUpdate => {
                if i % UPDATE_EVERY == UPDATE_EVERY - 1 {
                    return self.update_with(&mut rng);
                }
                let total = *self.zipf_cdf.last().expect("hot set is not empty");
                let x = rng.unit() * total;
                let rank = self.zipf_cdf.partition_point(|&c| c <= x);
                // Popularity drifts: every DRIFT_OPS ops the ranks move
                // to other tuples, so no few tuples set a whole run.
                let shift = (i / DRIFT_OPS) as usize * DRIFT_STRIDE;
                let n = self.hot.len();
                self.hot_query((rank.min(n - 1) + shift) % n)
            }
            Kind::SocialK100 => {
                let n = self.graph.node_count();
                let mut picked: Vec<NodeId> = Vec::with_capacity(SOCIAL_SOURCES + SOCIAL_TARGETS);
                while picked.len() < (SOCIAL_SOURCES + SOCIAL_TARGETS).min(n) {
                    let v = rng.below(n) as NodeId;
                    if !picked.contains(&v) {
                        picked.push(v);
                    }
                }
                let targets = picked.split_off(SOCIAL_SOURCES.min(picked.len()));
                Op::Query(Query {
                    alg,
                    sources: picked,
                    targets,
                    k: K_SOCIAL,
                })
            }
        }
    }

    /// Update `j` of the probe a read-only workload runs after its
    /// query window (the same generator as the update workload's).
    pub fn probe_update(&self, j: u64) -> Op {
        self.update_with(&mut Rng::new(self.seed, stream::PROBE, j))
    }

    fn update_with(&self, rng: &mut Rng) -> Op {
        let g = &self.graph;
        let mut edges: Vec<[u32; 3]> = Vec::with_capacity(UPDATE_EDGES);
        while edges.len() < UPDATE_EDGES {
            let u = rng.below(g.node_count()) as NodeId;
            let out = g.out_edges(u);
            if out.is_empty() {
                continue;
            }
            let e = out[rng.below(out.len())];
            if edges.iter().any(|x| x[0] == u && x[1] == e.to) {
                continue;
            }
            // Half the edges of a batch get cheaper, half dearer.
            let factor = [0.75, 1.25][edges.len() % 2];
            let w = ((f64::from(e.weight) * factor).round() as u32).max(1);
            edges.push([u, e.to, w]);
        }
        Op::Update(edges)
    }

    /// The hot query of `rank` (update workload only).
    pub fn hot_query(&self, rank: usize) -> Op {
        let (set, s, k) = self.hot[rank];
        Op::Query(Query {
            alg: self.kind.algorithm(),
            sources: vec![s],
            targets: self.target_sets[set].clone(),
            k,
        })
    }

    /// Size of the hot set (0 outside the update workload).
    pub fn hot_len(&self) -> usize {
        self.hot.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_pure_function_of_its_key() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1, 3).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1, 3).next_u64(), Rng::new(7, 1, 4).next_u64());
        let mut r = Rng::new(1, 2, 3);
        assert!((0..1000).all(|_| r.below(10) < 10 && r.unit() < 1.0));
    }

    #[test]
    fn request_lines_are_well_formed() {
        let q = Op::Query(Query {
            alg: Algorithm::IterBoundI,
            sources: vec![1, 2],
            targets: vec![3],
            k: 5,
        });
        let line = q.to_line(9);
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.get("sources").and_then(|s| s.as_u64s()), Some(vec![1, 2]));
        let u = Op::Update(vec![[1, 2, 3], [4, 5, 6]]).to_line(1);
        let v = crate::json::parse(&u).unwrap();
        assert_eq!(v.get("edges").unwrap().as_arr().unwrap().len(), 2);
    }
}
