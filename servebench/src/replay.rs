//! The single-threaded engine replay behind the traced run's engine
//! split and work counters.
//!
//! A `QueryEngine` owned by the benchmark answers the workload's queries
//! one after another, span tracing every query. Each query runs inside the
//! benchmark's `core.query` span; the engine's own stage spans are nested
//! under it, and self time is taken per stage. Work counters (`QueryStats`)
//! and allocation counts come from here only: one thread, fixed queries,
//! so they repeat bit for bit.

use std::time::Instant;

use kpj_core::{QueryEngine, QueryStats};
use kpj_graph::{Graph, Length, INFINITE_LENGTH};
use kpj_landmark::LandmarkIndex;

use crate::alloc;
use crate::spans::{self_times, Span, Spans};
use crate::workload::{Op, Query, Stream};

/// Engine stages whose self-time share is reported, as `Stage::name`s.
pub const SHARED_STAGES: [&str; 5] = [
    "landmark_bounds",
    "spt_build",
    "sp_search",
    "deviation_round",
    "par_fanout",
];

/// Work counters reported per query, as `QueryStats::FIELD_NAMES`.
pub const COUNTERS: [&str; 12] = [
    "settled",
    "relaxed",
    "heap_pops",
    "spt_nodes",
    "subspaces",
    "testlb",
    "testlb_bounded",
    "lb_prunes",
    "tau_updates",
    "sidetrack_splices",
    "sidetrack_repairs",
    "sp",
];

/// What the replay measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// Queries replayed (and timed).
    pub queries: usize,
    /// Per-query `core.query` time, ms, in replay order.
    pub engine_ms: Vec<f64>,
    /// Self-time share of each of [`SHARED_STAGES`], then the
    /// unattributed rest; `None` when any span was dropped.
    pub shares: Option<Vec<f64>>,
    /// Spans the engine's trace ring dropped, summed over queries.
    pub trace_dropped: u64,
    /// Summed work counters, parallel to [`COUNTERS`].
    pub counters: Vec<u64>,
    /// Heap allocations made inside the engine calls.
    pub allocs: u64,
    /// Mean of `lb(S, V_T) / first path length` over queries with a path.
    pub bound_ratio: f64,
}

/// The value of counter `name` in `stats` (0 for an unknown name, so the
/// replay keeps working when a counter is retired).
pub fn counter(stats: &QueryStats, name: &str) -> u64 {
    QueryStats::FIELD_NAMES
        .iter()
        .position(|&n| n == name)
        .map_or(0, |i| stats.field_values()[i])
}

/// The first `count` queries of `stream` from op `start` on (updates
/// are skipped: the replay runs on the graph as first served).
pub fn queries(stream: &Stream, start: u64, count: usize) -> Vec<Query> {
    let mut out = Vec::with_capacity(count);
    let mut i = start;
    while out.len() < count {
        if let Op::Query(q) = stream.op(i) {
            out.push(q);
        }
        i += 1;
    }
    out
}

/// Replay `queries` on a fresh engine over `graph`. The first `warm`
/// queries run once untimed first, so scratch growth is not counted as
/// steady-state allocation. Spans go to `spans` (request ids from
/// `first_id`).
pub fn run(
    graph: &Graph,
    landmarks: &LandmarkIndex,
    queries: &[Query],
    warm: usize,
    spans: &mut Spans,
    first_id: u64,
) -> Result<Replay, String> {
    let mut engine = QueryEngine::new(graph).with_landmarks(landmarks);
    engine.set_trace_sampling(1);
    for q in &queries[..warm.min(queries.len())] {
        engine
            .query_multi(q.alg, &q.sources, &q.targets, q.k)
            .map_err(|e| format!("replay warm-up: {e}"))?;
    }
    let mut recorder = Spans::new(Instant::now(), true);
    let mut engine_ms = Vec::with_capacity(queries.len());
    let mut totals = QueryStats::default();
    let mut allocs = 0;
    let mut trace_dropped = 0;
    let (mut ratio_sum, mut ratio_n) = (0.0, 0usize);
    for (i, q) in queries.iter().enumerate() {
        let id = first_id + i as u64;
        let root = recorder.open(id, "core", "query", None);
        let t0 = Instant::now();
        let (result, n) = alloc::counted(|| engine.query_multi(q.alg, &q.sources, &q.targets, q.k));
        engine_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        recorder.close(root);
        let result = result.map_err(|e| format!("replay query {i}: {e}"))?;
        allocs += n;
        totals.absorb(&result.stats);
        trace_dropped += engine.trace_dropped();
        nest_engine_spans(&mut recorder, root, id, &engine);
        if !result.paths.is_empty() {
            let first = result.paths.path(0).length;
            let lb = bound(landmarks, q);
            if first > 0 && lb != INFINITE_LENGTH {
                ratio_sum += lb as f64 / first as f64;
                ratio_n += 1;
            }
        }
    }
    let shares = (trace_dropped == 0).then(|| stage_shares(recorder.spans()));
    spans.absorb(recorder);
    Ok(Replay {
        queries: queries.len(),
        engine_ms,
        shares,
        trace_dropped,
        counters: COUNTERS.iter().map(|c| counter(&totals, c)).collect(),
        allocs,
        bound_ratio: if ratio_n == 0 {
            0.0
        } else {
            ratio_sum / ratio_n as f64
        },
    })
}

/// The landmark lower bound from the source set to the target set.
fn bound(landmarks: &LandmarkIndex, q: &Query) -> Length {
    let b = landmarks.for_targets(&q.targets);
    q.sources
        .iter()
        .map(|&s| b.lb_to_targets(s))
        .min()
        .unwrap_or(INFINITE_LENGTH)
}

/// Copy the engine's spans of the last query under `root`. The engine
/// times spans from its own per-query epoch, taken just inside the call,
/// so they are placed from the root's start; their relative positions
/// (which decide the nesting) are exact.
fn nest_engine_spans(recorder: &mut Spans, root: Option<usize>, id: u64, engine: &QueryEngine<'_>) {
    let Some(anchor) = recorder.get(root).copied() else {
        return;
    };
    let (older, newer) = engine.trace_spans();
    // The ring holds spans in the order they closed; a parent closes
    // after its children. Sort by start, longest first, to nest.
    let mut engine_spans: Vec<_> = older.iter().chain(newer).copied().collect();
    engine_spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
    let mut stack: Vec<(usize, u64)> = Vec::new();
    for s in engine_spans {
        let start = anchor.start_ns + s.start_ns;
        let end = (start + s.dur_ns).min(anchor.end_ns);
        while stack.last().is_some_and(|&(_, open_end)| open_end <= start) {
            stack.pop();
        }
        let parent = stack.last().map(|&(i, _)| Some(i)).unwrap_or(root);
        let handle = recorder.push(Span {
            request: id,
            layer: "core",
            name: s.stage.name(),
            parent,
            start_ns: start.min(end),
            end_ns: end,
        });
        if let Some(h) = handle {
            stack.push((h, end));
        }
    }
}

/// Self-time share of each reported stage, then of the `core.query`
/// roots themselves (time no engine span covers).
fn stage_shares(spans: &[Span]) -> Vec<f64> {
    let selfs = self_times(spans);
    let mut by_stage = vec![0u64; SHARED_STAGES.len() + 1];
    let mut total = 0u64;
    for (s, &own) in spans.iter().zip(&selfs) {
        if s.parent.is_none() {
            total += s.dur_ns();
            by_stage[SHARED_STAGES.len()] += own;
        } else if let Some(i) = SHARED_STAGES.iter().position(|&n| n == s.name) {
            by_stage[i] += own;
        }
    }
    by_stage
        .into_iter()
        .map(|t| {
            if total == 0 {
                0.0
            } else {
                t as f64 / total as f64
            }
        })
        .collect()
}
