//! `kpj-servebench`: the kpj benchmark.
//!
//! One process sets a workload up (timed, several times), then drives an
//! in-process `KpjService` through `wire::handle_line` from a closed loop
//! of two clients for a fixed window, checks every reply, cross-checks a
//! sample of answers on an engine of another algorithm family, and
//! reports end-to-end metrics. With `--trace 1` it instead runs a traced
//! pass beside an untraced one and a single-threaded engine replay, and
//! reports per-layer metrics. See `README.md` for the workloads and
//! every metric.

pub mod alloc;
pub mod host;
pub mod json;
pub mod load;
pub mod replay;
pub mod spans;
pub mod stats;
pub mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kpj_core::{Algorithm, QueryEngine};
use kpj_graph::Graph;
use kpj_landmark::{LandmarkIndex, SelectionStrategy};
use kpj_obs::Stage;
use kpj_service::{algorithm_index, wire, KpjService};

use load::{Checker, PassResult, Target, Until, UpdateReply};
use spans::Spans;
use workload::{Dataset, Kind, Op, Query, Scale, SetupTimes, Stream};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// End-to-end metrics and their units, as `--trace 0` reports them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("update_p50_ms", "ms"),
];

/// Per-layer metrics and their units, as `--trace 1` reports them.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("setup.graph_s", "s"),
    ("setup.landmarks_s", "s"),
    ("landmark.index_mb", "MB"),
    ("service.start_ms", "ms"),
    ("store.write_s", "s"),
    ("store.open_ms", "ms"),
    ("wire.encode_us_p50", "us"),
    ("wire.response_bytes_mean", "bytes"),
    ("cache.hit_ratio", "ratio"),
    ("cache.shared_ratio", "ratio"),
    ("cache.lookup_us_mean", "us"),
    ("cache.purged_per_update", "count"),
    ("pool.queue_wait_ms_p50", "ms"),
    ("pool.queue_wait_ms_tail", "ms"),
    ("pool.rejected", "count"),
    ("epoch.update_tail_ms", "ms"),
    ("epoch.publish_ms_p50", "ms"),
    ("landmark.repair_ms_p50", "ms"),
    ("landmark.affected_nodes_per_update", "count"),
    ("epoch.live_peak", "count"),
    ("core.engine_ms_p50", "ms"),
    ("core.landmark_bounds_share", "ratio"),
    ("core.spt_build_share", "ratio"),
    ("core.sp_search_share", "ratio"),
    ("core.deviation_round_share", "ratio"),
    ("core.par_fanout_share", "ratio"),
    ("core.unattributed_share", "ratio"),
    ("core.trace_dropped", "count"),
    ("core.allocs_per_query", "count"),
    ("core.sp_computations_per_query", "count"),
    ("sp.settled_per_query", "count"),
    ("sp.relaxed_per_query", "count"),
    ("heap.pops_per_query", "count"),
    ("core.spt_nodes_per_query", "count"),
    ("core.subspaces_per_query", "count"),
    ("core.testlb_per_query", "count"),
    ("core.testlb_bounded_ratio", "ratio"),
    ("core.lb_prunes_per_query", "count"),
    ("core.tau_updates_per_query", "count"),
    ("core.sidetrack_splice_ratio", "ratio"),
    ("landmark.bound_ratio", "ratio"),
    ("obs.trace_overhead_pct", "%"),
];

/// The stage-share metrics, parallel to [`replay::SHARED_STAGES`] plus
/// the unattributed rest.
const SHARE_METRICS: [&str; 6] = [
    "core.landmark_bounds_share",
    "core.spt_build_share",
    "core.sp_search_share",
    "core.deviation_round_share",
    "core.par_fanout_share",
    "core.unattributed_share",
];

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub kind: Kind,
    /// Seed of the request stream.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Graph sizes.
    pub scale: Scale,
    /// Where the run's report, span dump and scratch store file go.
    pub out_dir: PathBuf,
}

/// How much of each step a workload runs.
#[derive(Debug, Clone, Copy)]
struct Plan {
    /// Set-ups per run; `setup_s` is their median.
    setup_reps: u64,
    /// Ops sent before the window, to fill caches and finish lazy set-up.
    warm_ops: u64,
    /// Window queries cross-checked on another algorithm family.
    check_sample: usize,
    /// Updates probed after the window.
    probe_updates: u64,
    /// Queries replayed on the single-threaded engine.
    replay: usize,
    /// Of which run once untimed first.
    replay_warm: usize,
}

impl Plan {
    fn of(kind: Kind, scale: Scale) -> Plan {
        if scale == Scale::Smoke {
            return Plan {
                setup_reps: 2,
                warm_ops: 20,
                check_sample: 4,
                probe_updates: 12,
                replay: 16,
                replay_warm: 4,
            };
        }
        // A huge-mmap query costs ~25 ms, an update ~170 ms and a set-up
        // ~6 s, so it does fewer of each; cheap set-ups repeat more so
        // their median holds still.
        let huge = kind == Kind::HugeMmap;
        Plan {
            setup_reps: match kind {
                Kind::HugeMmap => 2,
                Kind::SocialK100 => 15,
                _ => 5,
            },
            warm_ops: if huge { 16 } else { 400 },
            check_sample: if huge { 4 } else { 16 },
            probe_updates: if huge { 24 } else { 300 },
            replay: if huge { 24 } else { 200 },
            replay_warm: if huge { 4 } else { 20 },
        }
    }
}

/// Queries per block of the `query_tail_ms` estimate: enough for a p99
/// with ten samples beyond it.
const TAIL_BLOCK: usize = 1000;

/// Least wall time an update probe is spread over.
const PROBE_SPAN: Duration = Duration::from_secs(2);

/// Ids of requests the benchmark sends outside the op stream.
const CHECK_IDS: u64 = 1 << 40;
const PROBE_IDS: u64 = 2 << 40;
const REPLAY_IDS: u64 = 3 << 40;

/// A reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Its name.
    pub name: &'static str,
    /// Its value, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// No op failed and every answer passed its checks.
    pub correct: bool,
    /// Ops sent, including warm-up, checks and update probes.
    pub attempted: u64,
    /// Of which failed.
    pub failed: u64,
    /// The metrics, in table order.
    pub metrics: Vec<Metric>,
    /// The stamp (JSON object) naming host, tree, seed and config.
    pub stamp: String,
    /// Spans of a traced run.
    pub spans: Spans,
    /// The replay's summed work counters (traced runs only).
    pub counters: Vec<u64>,
}

impl Outcome {
    /// The final result line.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

struct Metrics(Vec<Metric>);

impl Metrics {
    /// Record `name`, whose unit comes from the metric tables.
    fn put(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric {name} is not in the metric tables"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push(Metric { name, value, unit });
    }
}

/// Run one workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let kind = args.kind;
    let plan = Plan::of(kind, args.scale);
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {:?}: {e}", args.out_dir))?;
    let origin = Instant::now();
    let mut spans = Spans::new(origin, args.trace);

    // Set up several times, each from nothing; the last one serves.
    let mut times: Vec<SetupTimes> = Vec::new();
    let mut current = None;
    for rep in 0..plan.setup_reps {
        drop(current.take());
        let (ds, service, t) = workload::set_up(kind, args.scale, &args.out_dir, rep, &mut spans)?;
        times.push(t);
        current = Some((ds, service));
    }
    let (ds, service) = current.expect("at least one set-up");
    let stream = Stream::new(kind, args.scale, args.seed, &ds);
    let cx = Ctx {
        plan,
        kind,
        ds: &ds,
        stream: &stream,
        origin,
    };
    let mut checks = PassResult::new(origin, args.trace);
    let mut metrics = Metrics(Vec::new());
    let mut counters = Vec::new();
    let mut tail_q = 0.0;

    if !args.trace {
        let (_, window) = serve(&cx, &service, args.seconds, false, &mut checks);
        let probe = after_window(&cx, &service, false, &mut checks);
        let queries = stats::sorted(window.query_ms.clone());
        let (q_tail, tail) = stats::block_tail(&window.query_ms, TAIL_BLOCK).unwrap_or((1.0, 0.0));
        metrics.put("query_p50_ms", stats::median(&queries).unwrap_or(0.0));
        metrics.put("query_tail_ms", tail);
        metrics.put("throughput_qps", rate(queries.len(), window.wall_s));
        let totals = stats::sorted(times.iter().map(|t| t.total_s).collect());
        metrics.put("setup_s", stats::median(&totals).unwrap_or(0.0));
        metrics.put("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
        let ums = stats::sorted(probe.updates.iter().map(|u| u.ms).collect());
        metrics.put("update_p50_ms", stats::median(&ums).unwrap_or(0.0));
        tail_q = q_tail;
        checks.absorb(window);
        checks.absorb(probe);
    } else {
        // Untraced pass first: the traced pass's throughput is compared
        // with it for the tracing overhead.
        let half = args.seconds / 2.0;
        let (_, plain) = serve(&cx, &service, half, false, &mut checks);
        let plain_qps = rate(plain.query_ms.len(), plain.wall_s);
        checks.absorb(plain);
        drop(service);

        let started = Instant::now();
        let traced = spans.time(u64::MAX, "service", "new", None, || {
            KpjService::new(
                Arc::clone(&ds.graph),
                Some(Arc::clone(&ds.landmarks)),
                workload::service_config(true),
            )
        });
        let traced_start_ms = started.elapsed().as_secs_f64() * 1e3;
        let (layer, window) = serve(&cx, &traced, half, true, &mut checks);
        let probe = after_window(&cx, &traced, true, &mut checks);
        let traced_qps = rate(window.query_ms.len(), window.wall_s);

        setup_metrics(&mut metrics, &times, &ds, traced_start_ms);
        service_metrics(&mut metrics, &layer, &window);
        let updates = if kind.has_updates() {
            &window.updates
        } else {
            &probe.updates
        };
        update_metrics(
            &mut metrics,
            updates,
            window.live_epochs_peak.max(probe.live_epochs_peak),
        );
        drop(traced);

        let queries = replay::queries(&stream, plan.warm_ops, plan.replay);
        let r = replay::run(
            &ds.graph,
            &ds.landmarks,
            &queries,
            plan.replay_warm,
            &mut spans,
            REPLAY_IDS,
        )?;
        engine_metrics(&mut metrics, &r);
        metrics.put(
            "obs.trace_overhead_pct",
            if plain_qps > 0.0 {
                (plain_qps - traced_qps) / plain_qps * 100.0
            } else {
                0.0
            },
        );
        counters = r.counters;
        checks.absorb(window);
        checks.absorb(probe);
    }

    spans.absorb(std::mem::replace(
        &mut checks.spans,
        Spans::new(origin, false),
    ));
    let stamp = stamp(args, &plan, &checks, tail_q);
    Ok(Outcome {
        correct: checks.failed == 0,
        attempted: checks.attempted,
        failed: checks.failed,
        metrics: order(metrics.0, args.trace),
        stamp,
        spans,
        counters,
    })
}

fn rate(count: usize, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count as f64 / seconds
    } else {
        0.0
    }
}

/// Put metrics in table order.
fn order(mut metrics: Vec<Metric>, trace: bool) -> Vec<Metric> {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    metrics.sort_by_key(|m| table.iter().position(|(n, _)| *n == m.name));
    metrics
}

/// What every pass of one run shares.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    plan: Plan,
    kind: Kind,
    ds: &'a Dataset,
    stream: &'a Stream,
    origin: Instant,
}

/// What the traced service's registry said about the window.
struct LayerReadout {
    hits: u64,
    shared: u64,
    misses: u64,
    rejected: u64,
    lookup_us_mean: f64,
    encode_us_p50: f64,
    queue_wait_ms_p50: f64,
    queue_wait_ms_tail: f64,
}

/// Warm up and run the window. Returns the registry readout of the
/// window and the window.
fn serve(
    cx: &Ctx<'_>,
    service: &KpjService,
    seconds: f64,
    traced: bool,
    checks: &mut PassResult,
) -> (LayerReadout, PassResult) {
    let Ctx {
        plan,
        kind,
        ds,
        stream,
        origin,
    } = *cx;
    let target = Target {
        service,
        stream,
        graph: &ds.graph,
        static_weights: !kind.has_updates(),
    };
    checks.absorb(load::run(
        &target,
        0,
        Until::Index(plan.warm_ops),
        origin,
        false,
    ));
    let before = readout(service, kind.algorithm());
    let window = load::run(
        &target,
        plan.warm_ops,
        Until::Elapsed(Duration::from_secs_f64(seconds)),
        origin,
        traced,
    );
    let after = readout(service, kind.algorithm());
    let layer = LayerReadout {
        hits: after.hits - before.hits,
        shared: after.shared - before.shared,
        misses: after.misses - before.misses,
        rejected: after.rejected - before.rejected,
        lookup_us_mean: after.lookup_us_mean,
        encode_us_p50: after.encode_us_p50,
        queue_wait_ms_p50: after.queue_wait_ms_p50,
        queue_wait_ms_tail: after.queue_wait_ms_tail,
    };
    (layer, window)
}

/// After the window: cross-check answers, then probe updates with no
/// queries running. Returns the probe.
fn after_window(
    cx: &Ctx<'_>,
    service: &KpjService,
    traced: bool,
    checks: &mut PassResult,
) -> PassResult {
    let Ctx {
        plan,
        kind,
        ds,
        stream,
        origin,
    } = *cx;
    cross_check(&plan, kind, service, ds, stream, checks);
    let mut probe = PassResult::new(origin, traced);
    let mut checker = Checker::new(&ds.graph, false);
    // Paced over PROBE_SPAN, so a short stall of the host cannot slow a
    // whole probe of sub-millisecond updates.
    let started = Instant::now();
    for j in 0..plan.probe_updates {
        let due = PROBE_SPAN.mul_f64(j as f64 / plan.probe_updates as f64);
        if let Some(wait) = due.checked_sub(started.elapsed()) {
            std::thread::sleep(wait);
        }
        load::send(
            service,
            &stream.probe_update(j),
            PROBE_IDS + j,
            &mut checker,
            &mut probe,
        );
    }
    probe
}

fn readout(service: &KpjService, alg: Algorithm) -> LayerReadout {
    let s = service.snapshot();
    let registry = service.metrics().registry();
    let hist = |name: &str| {
        Stage::ALL
            .into_iter()
            .find(|st| st.name() == name)
            .map(|st| registry.histogram(algorithm_index(alg), st))
    };
    let lookup = hist("cache_lookup");
    let queue = hist("queue_wait");
    let quantile_ms = |q: f64| {
        queue
            .and_then(|h| h.quantile_us(q))
            .map_or(0.0, |us| us as f64 / 1e3)
    };
    let queue_n = queue.map_or(0, |h| h.count() as usize);
    LayerReadout {
        hits: s.cache_hits,
        shared: s.cache_shared,
        misses: s.cache_misses,
        rejected: s.rejected,
        lookup_us_mean: lookup.map_or(0.0, |h| {
            if h.count() == 0 {
                0.0
            } else {
                h.sum_us() as f64 / h.count() as f64
            }
        }),
        encode_us_p50: hist("encode")
            .and_then(|h| h.quantile_us(0.5))
            .map_or(0.0, |us| us as f64),
        queue_wait_ms_p50: quantile_ms(0.5),
        queue_wait_ms_tail: quantile_ms(stats::tail_quantile(queue_n)),
    }
}

/// Re-ask a sample of queries after the window and compare the served
/// length vectors with engines of another algorithm family. The update
/// workload instead checks its whole hot set against fresh engines built
/// on the final graph.
fn cross_check(
    plan: &Plan,
    kind: Kind,
    service: &KpjService,
    ds: &Dataset,
    stream: &Stream,
    out: &mut PassResult,
) {
    let alg = kind.check_algorithm();
    if kind.has_updates() {
        let final_graph: Arc<Graph> = Arc::clone(service.current_epoch().graph());
        let fresh = LandmarkIndex::build(
            &final_graph,
            workload::LANDMARKS,
            SelectionStrategy::Farthest,
            workload::LANDMARK_SEED,
        );
        let mut same = QueryEngine::new(&final_graph).with_landmarks(&fresh);
        let mut other = QueryEngine::new(&final_graph);
        let mut checker = Checker::new(&final_graph, true);
        for rank in 0..stream.hot_len() {
            let Op::Query(q) = stream.hot_query(rank) else {
                unreachable!("the hot set holds queries")
            };
            let mut engines: Vec<(&mut QueryEngine<'_>, Algorithm)> =
                vec![(&mut same, kind.algorithm())];
            if rank < plan.check_sample {
                engines.push((&mut other, alg));
            }
            compare(
                service,
                &q,
                CHECK_IDS + rank as u64,
                &mut checker,
                &mut engines,
                out,
            );
        }
    } else {
        let mut engine = QueryEngine::new(&ds.graph).with_landmarks(&ds.landmarks);
        let mut checker = Checker::new(&ds.graph, true);
        for (j, q) in replay::queries(stream, plan.warm_ops, plan.check_sample)
            .iter()
            .enumerate()
        {
            compare(
                service,
                q,
                CHECK_IDS + j as u64,
                &mut checker,
                &mut [(&mut engine, alg)],
                out,
            );
        }
    }
}

fn compare(
    service: &KpjService,
    q: &Query,
    id: u64,
    checker: &mut Checker<'_>,
    engines: &mut [(&mut QueryEngine<'_>, Algorithm)],
    out: &mut PassResult,
) {
    out.attempted += 1;
    let reply = wire::handle_line(service, &Op::Query(q.clone()).to_line(id));
    let served = match checker.check_query(q, &reply) {
        Ok(lengths) => lengths,
        Err(e) => return out.fail(format!("check {id}: {e}")),
    };
    for (engine, alg) in engines.iter_mut() {
        match engine.query_multi(*alg, &q.sources, &q.targets, q.k) {
            Ok(r) if r.paths.lengths() == served => {}
            Ok(r) => {
                return out.fail(format!(
                    "check {id}: served lengths {served:?}, {alg} gives {:?}",
                    r.paths.lengths()
                ))
            }
            Err(e) => return out.fail(format!("check {id}: {alg} failed: {e}")),
        }
    }
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    stats::median(&stats::sorted(values.collect())).unwrap_or(0.0)
}

fn setup_metrics(m: &mut Metrics, times: &[SetupTimes], ds: &Dataset, traced_start_ms: f64) {
    m.put("setup.graph_s", median_of(times.iter().map(|t| t.graph_s)));
    m.put(
        "setup.landmarks_s",
        median_of(times.iter().map(|t| t.landmarks_s)),
    );
    m.put(
        "landmark.index_mb",
        ds.landmark_bytes as f64 / (1 << 20) as f64,
    );
    // The set-ups' starts and the traced service's start alike.
    m.put(
        "service.start_ms",
        median_of(
            times
                .iter()
                .map(|t| t.service_s * 1e3)
                .chain([traced_start_ms]),
        ),
    );
    m.put(
        "store.write_s",
        median_of(times.iter().map(|t| t.store_write_s)),
    );
    m.put(
        "store.open_ms",
        median_of(times.iter().map(|t| t.store_open_s * 1e3)),
    );
}

fn service_metrics(m: &mut Metrics, layer: &LayerReadout, window: &PassResult) {
    m.put("wire.encode_us_p50", layer.encode_us_p50);
    m.put(
        "wire.response_bytes_mean",
        ratio(window.reply_bytes as f64, window.query_ms.len() as f64),
    );
    let lookups = (layer.hits + layer.shared + layer.misses) as f64;
    m.put("cache.hit_ratio", ratio(layer.hits as f64, lookups));
    m.put("cache.shared_ratio", ratio(layer.shared as f64, lookups));
    m.put("cache.lookup_us_mean", layer.lookup_us_mean);
    m.put("pool.queue_wait_ms_p50", layer.queue_wait_ms_p50);
    m.put("pool.queue_wait_ms_tail", layer.queue_wait_ms_tail);
    m.put("pool.rejected", layer.rejected as f64);
}

fn update_metrics(m: &mut Metrics, updates: &[UpdateReply], live_peak: usize) {
    let n = updates.len() as f64;
    m.put(
        "cache.purged_per_update",
        ratio(updates.iter().map(|u| u.cache_purged as f64).sum(), n),
    );
    let ums = stats::sorted(updates.iter().map(|u| u.ms).collect());
    m.put(
        "epoch.update_tail_ms",
        stats::tail(&ums).map_or(0.0, |(_, v)| v),
    );
    m.put(
        "epoch.publish_ms_p50",
        median_of(
            updates
                .iter()
                .map(|u| (u.ms - u.repair_us as f64 / 1e3).max(0.0)),
        ),
    );
    m.put(
        "landmark.repair_ms_p50",
        median_of(updates.iter().map(|u| u.repair_us as f64 / 1e3)),
    );
    m.put(
        "landmark.affected_nodes_per_update",
        ratio(updates.iter().map(|u| u.affected_nodes as f64).sum(), n),
    );
    m.put("epoch.live_peak", live_peak as f64);
}

fn engine_metrics(m: &mut Metrics, r: &replay::Replay) {
    let n = r.queries as f64;
    m.put("core.engine_ms_p50", median_of(r.engine_ms.iter().copied()));
    if let Some(shares) = &r.shares {
        for (name, share) in SHARE_METRICS.iter().zip(shares) {
            m.put(name, *share);
        }
    }
    m.put("core.trace_dropped", r.trace_dropped as f64);
    m.put("core.allocs_per_query", ratio(r.allocs as f64, n));
    let c = |name: &str| {
        replay::COUNTERS
            .iter()
            .position(|&x| x == name)
            .map_or(0.0, |i| r.counters[i] as f64)
    };
    m.put("core.sp_computations_per_query", ratio(c("sp"), n));
    m.put("sp.settled_per_query", ratio(c("settled"), n));
    m.put("sp.relaxed_per_query", ratio(c("relaxed"), n));
    m.put("heap.pops_per_query", ratio(c("heap_pops"), n));
    m.put("core.spt_nodes_per_query", ratio(c("spt_nodes"), n));
    m.put("core.subspaces_per_query", ratio(c("subspaces"), n));
    m.put("core.testlb_per_query", ratio(c("testlb"), n));
    m.put(
        "core.testlb_bounded_ratio",
        ratio(c("testlb_bounded"), c("testlb")),
    );
    m.put("core.lb_prunes_per_query", ratio(c("lb_prunes"), n));
    m.put("core.tau_updates_per_query", ratio(c("tau_updates"), n));
    m.put(
        "core.sidetrack_splice_ratio",
        ratio(
            c("sidetrack_splices"),
            c("sidetrack_splices") + c("sidetrack_repairs"),
        ),
    );
    m.put("landmark.bound_ratio", r.bound_ratio);
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn stamp(args: &Args, plan: &Plan, checks: &PassResult, tail_q: f64) -> String {
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let failures: Vec<String> = checks
        .failures
        .iter()
        .map(|f| format!("\"{}\"", esc(f)))
        .collect();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"scale\":\"{:?}\",\
         \"nproc\":{},\"cpu_model\":\"{}\",\"commit\":\"{}\",\"source_fnv\":\"{}\",\
         \"service_config\":\"{}\",\"clients\":{},\"setup_reps\":{},\
         \"query_tail_quantile\":{},\
         \"failed_frac\":{},\"failures\":[{}]}}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.scale,
        host::nproc(),
        esc(&host::cpu_model()),
        esc(&host::commit()),
        host::source_fingerprint(),
        esc(&format!("{:?}", workload::service_config(args.trace))),
        load::CLIENTS,
        plan.setup_reps,
        tail_q,
        ratio(checks.failed as f64, checks.attempted as f64),
        failures.join(","),
    )
}
