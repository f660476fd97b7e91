//! Integration tests for the serving subsystem: single-flight dedup,
//! pool-vs-sequential equivalence on a seeded road network, admission
//! control under a full queue, and deadline expiry hygiene.

use std::sync::{Arc, Barrier};

use kpj_core::{Algorithm, QueryEngine, QueryError};
use kpj_graph::{Graph, NodeId};
use kpj_landmark::{LandmarkIndex, SelectionStrategy};
use kpj_service::{EnginePool, KpjService, PoolConfig, QueryRequest, ServiceConfig, ServiceError};
use kpj_workload::queries::QuerySets;
use kpj_workload::road::RoadConfig;

fn road(nodes: usize, arcs: usize, seed: u64) -> Arc<Graph> {
    Arc::new(RoadConfig::new(nodes, arcs, seed).generate())
}

fn request(sources: Vec<NodeId>, targets: Vec<NodeId>, k: usize) -> QueryRequest {
    QueryRequest {
        algorithm: Algorithm::IterBoundI,
        sources,
        targets,
        k,
        timeout_ms: None,
    }
}

/// Concurrent identical queries must reach the pool exactly once: one
/// cache miss claims the flight, everyone else either shares it or hits
/// the completed entry.
#[test]
fn single_flight_computes_identical_queries_once() {
    let graph = road(1_000, 2_400, 5);
    let service = Arc::new(KpjService::new(
        Arc::clone(&graph),
        None,
        ServiceConfig {
            pool: PoolConfig {
                workers: 2,
                queue_capacity: 64,
            },
            cache_capacity: 64,
            ..ServiceConfig::default()
        },
    ));

    const CALLERS: usize = 8;
    let barrier = Arc::new(Barrier::new(CALLERS));
    let handles: Vec<_> = (0..CALLERS)
        .map(|_| {
            let service = Arc::clone(&service);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                service.execute(&request(vec![3], vec![700, 900], 10))
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let lengths: Vec<Vec<u64>> = results
        .iter()
        .map(|r| r.as_ref().unwrap().paths.iter().map(|p| p.length).collect())
        .collect();
    assert!(
        lengths.windows(2).all(|w| w[0] == w[1]),
        "answers diverged: {lengths:?}"
    );

    // The load-bearing claim: however the threads interleaved, the
    // engine pool ran the query exactly once.
    assert_eq!(
        service.pool().executed(),
        1,
        "single-flight failed to dedup"
    );
    let snap = service.snapshot();
    assert_eq!(snap.cache_misses, 1);
    assert_eq!(
        snap.cache_hits + snap.cache_shared,
        (CALLERS - 1) as u64,
        "every other caller must ride the first computation: {snap:?}"
    );
}

/// Permuted and duplicated source/target sets are the same query: the
/// cache key normalizes them, so every variant after the first is a hit
/// with the identical answer and the pool runs the computation once.
#[test]
fn permuted_node_sets_hit_the_cache() {
    let graph = road(1_000, 2_400, 9);
    let service = KpjService::new(
        Arc::clone(&graph),
        None,
        ServiceConfig {
            pool: PoolConfig {
                workers: 1,
                queue_capacity: 16,
            },
            cache_capacity: 16,
            ..ServiceConfig::default()
        },
    );

    let variants: [(Vec<NodeId>, Vec<NodeId>); 4] = [
        (vec![3, 40], vec![700, 900]),
        (vec![40, 3], vec![900, 700]),
        (vec![40, 3, 40], vec![700, 900, 700]),
        (vec![3, 3, 40], vec![900, 700, 900, 700]),
    ];
    let baseline = service
        .execute(&request(variants[0].0.clone(), variants[0].1.clone(), 8))
        .unwrap();
    for (sources, targets) in &variants[1..] {
        let got = service
            .execute(&request(sources.clone(), targets.clone(), 8))
            .unwrap();
        let got: Vec<u64> = got.paths.iter().map(|p| p.length).collect();
        let want: Vec<u64> = baseline.paths.iter().map(|p| p.length).collect();
        assert_eq!(got, want, "permuted sets diverged: {sources:?}/{targets:?}");
    }

    assert_eq!(service.pool().executed(), 1, "permutation missed the cache");
    let snap = service.snapshot();
    assert_eq!(snap.cache_misses, 1);
    assert_eq!(snap.cache_hits, (variants.len() - 1) as u64);
}

/// The pool (any worker count) must return exactly what a single
/// sequential engine returns, over a paper-style stratified workload on
/// a seeded road network, with landmarks on both sides.
#[test]
fn pool_matches_single_threaded_engine_on_road_network() {
    let graph = road(2_000, 4_800, 11);
    let landmarks = Arc::new(LandmarkIndex::build(
        &graph,
        4,
        SelectionStrategy::Farthest,
        11,
    ));
    let targets: Vec<NodeId> = vec![3, 700, 1_500];
    let sets = QuerySets::generate(&graph, &targets, 5, 8, 11);

    let pool = EnginePool::new(
        Arc::clone(&graph),
        Some(Arc::clone(&landmarks)),
        PoolConfig {
            workers: 4,
            queue_capacity: 256,
        },
    );
    // Submit the whole workload before collecting so the workers truly
    // run concurrently.
    let mut jobs = Vec::new();
    for group in 1..=sets.group_count() {
        for &source in sets.group(group) {
            for alg in [Algorithm::Da, Algorithm::IterBoundP, Algorithm::IterBoundI] {
                let mut req = request(vec![source], targets.clone(), 10);
                req.algorithm = alg;
                jobs.push((req.clone(), pool.submit(req).unwrap()));
            }
        }
    }

    let mut engine = QueryEngine::new(&graph).with_landmarks(&landmarks);
    for (req, job) in jobs {
        let got = job.wait().unwrap();
        let want = engine
            .query_multi(req.algorithm, &req.sources, &req.targets, req.k)
            .unwrap();
        let got: Vec<u64> = got.paths.iter().map(|p| p.length).collect();
        let want: Vec<u64> = want.paths.iter().map(|p| p.length).collect();
        assert_eq!(got, want, "divergence for {req:?}");
    }
}

/// With the single worker pinned on a slow query and the depth-1 queue
/// already holding a request, the next submission must be rejected.
#[test]
fn full_queue_rejects_with_overloaded() {
    let graph = road(1_500, 3_600, 7);
    let pool = EnginePool::new(
        Arc::clone(&graph),
        None,
        PoolConfig {
            workers: 1,
            queue_capacity: 1,
        },
    );

    // A deviation-paradigm query with a large k: hundreds of full
    // shortest-path computations, far slower than the submissions below.
    let mut slow = request(vec![0], vec![1_400], 200);
    slow.algorithm = Algorithm::Da;
    let slow_job = pool.submit(slow).unwrap();
    // Wait until the worker has *popped* the slow query (the queue is
    // empty again), so the next submit deterministically occupies the
    // only queue slot.
    while pool.executed() < 1 {
        std::thread::yield_now();
    }

    let queued_job = pool.submit(request(vec![1], vec![1_400], 5)).unwrap();
    match pool.submit(request(vec![2], vec![1_400], 5)) {
        Err(ServiceError::Overloaded) => {}
        Err(other) => panic!("expected Overloaded, got {other:?}"),
        Ok(_) => panic!("expected Overloaded, got an admitted job"),
    }

    // Both admitted queries still complete correctly.
    assert!(!slow_job.wait().unwrap().paths.is_empty());
    assert!(!queued_job.wait().unwrap().paths.is_empty());
}

/// An already-expired deadline fails with `DeadlineExceeded` and must
/// not poison the worker's scratch: the very same worker (workers = 1)
/// then answers the identical query correctly.
#[test]
fn deadline_expiry_does_not_poison_worker_scratch() {
    let graph = road(1_000, 2_400, 3);
    let service = KpjService::new(
        Arc::clone(&graph),
        None,
        ServiceConfig {
            pool: PoolConfig {
                workers: 1,
                queue_capacity: 16,
            },
            cache_capacity: 16,
            ..ServiceConfig::default()
        },
    );

    for alg in [
        Algorithm::Da,
        Algorithm::DaSpt,
        Algorithm::BestFirst,
        Algorithm::IterBound,
        Algorithm::IterBoundP,
        Algorithm::IterBoundI,
    ] {
        let mut doomed = request(vec![5], vec![800, 950], 8);
        doomed.algorithm = alg;
        doomed.timeout_ms = Some(0);
        match service.execute(&doomed) {
            Err(ServiceError::Query(QueryError::DeadlineExceeded)) => {}
            other => panic!("{alg:?}: expected DeadlineExceeded, got {other:?}"),
        }

        let mut retry = doomed.clone();
        retry.timeout_ms = None;
        let result = service
            .execute(&retry)
            .unwrap_or_else(|e| panic!("{alg:?}: scratch poisoned? retry failed with {e:?}"));
        assert!(!result.paths.is_empty(), "{alg:?}: retry found no paths");
        let lengths: Vec<u64> = result.paths.iter().map(|p| p.length).collect();
        let mut sorted = lengths.clone();
        sorted.sort_unstable();
        assert_eq!(lengths, sorted, "{alg:?}: retry emitted unordered paths");
    }

    let snap = service.snapshot();
    assert_eq!(snap.deadline_exceeded, 6);
    assert_eq!(snap.failures, 6);
    // Failed flights are not cached: each retry was a fresh miss.
    assert_eq!(snap.cache_misses, 12);
}

/// A service over the locality-reordered graph (remap installed, as
/// `kpj-serve --graph-bin` does for reordered v2 files) must be
/// indistinguishable on the wire from one over the original graph:
/// clients send original ids and read back original ids.
#[test]
fn reordered_service_is_wire_equivalent_to_original() {
    let graph = road(800, 1_900, 9);
    let reordered = kpj_store::reorder(&graph);
    assert!(
        !reordered.remap.is_identity(),
        "reorder was a no-op; pick another seed"
    );
    let original = KpjService::new(Arc::clone(&graph), None, ServiceConfig::default());
    let mut remapped = KpjService::new(Arc::new(reordered.graph), None, ServiceConfig::default());
    remapped.set_remap(Arc::new(reordered.remap));

    for (s, ts) in [(3u32, vec![700u32, 420]), (17, vec![99, 500, 750])] {
        let req = request(vec![s], ts, 8);
        let a = original.execute(&req).unwrap();
        let b = remapped.execute(&req).unwrap();
        // Everything up to the stats block — count, lengths and the
        // external-id paths — must match byte for byte. (Stats may
        // differ: the reordered graph is explored in a different node
        // order.)
        let wire = |ans: &kpj_service::Answer| {
            ans.wire_body(true)
                .split(",\"stats\":")
                .next()
                .unwrap()
                .to_string()
        };
        assert_eq!(wire(&a), wire(&b));
    }

    // Out-of-range external ids fail identically to the plain service.
    let bad = remapped.execute(&request(vec![800], vec![3], 2));
    assert!(
        matches!(
            bad,
            Err(ServiceError::Query(QueryError::SourceOutOfRange(800)))
        ),
        "got {bad:?}"
    );
    let bad = remapped.execute(&request(vec![3], vec![801], 2));
    assert!(
        matches!(
            bad,
            Err(ServiceError::Query(QueryError::TargetOutOfRange(801)))
        ),
        "got {bad:?}"
    );
}

/// A service over a *reduced* graph (reduction installed, as `kpj-serve`
/// does for `--reduce` v2 files) must be wire-equivalent to one over the
/// original graph — including across live weight updates that land in
/// the interior of a contracted chain, which are translated to shortcut
/// updates with repaired prefix sums rather than a full re-reduction.
#[test]
fn reduced_service_is_wire_equivalent_across_interior_updates() {
    // Stretch a seeded road network: every undirected edge becomes a
    // 3-hop corridor whose two middle nodes are degree-2 contractible.
    let base = road(220, 520, 11);
    let n0 = base.node_count() as NodeId;
    let mut seen: Vec<(NodeId, NodeId)> = Vec::new();
    let undirected = base.edge_count() / 2;
    let mut b = kpj_graph::GraphBuilder::new(base.node_count() + 2 * undirected);
    let mut next = n0;
    for u in base.nodes() {
        for e in base.out_edges(u) {
            let key = (u.min(e.to), u.max(e.to));
            if u > e.to || seen.contains(&key) {
                continue;
            }
            seen.push(key);
            let (m1, m2) = (next, next + 1);
            next += 2;
            b.add_bidirectional(u, m1, 1).unwrap();
            b.add_bidirectional(m1, m2, e.weight).unwrap();
            b.add_bidirectional(m2, e.to, 1).unwrap();
        }
    }
    let original = Arc::new(b.build());

    let keep: Vec<NodeId> = vec![0, 7, 33, 150];
    let red = kpj_graph::reduce(&original, &keep, &keep);
    assert!(
        red.graph.node_count() < original.node_count(),
        "corridors should contract"
    );
    let reduction = Arc::new(red.reduction);

    let plain = KpjService::new(Arc::clone(&original), None, ServiceConfig::default());
    let reduced = KpjService::new_reduced(
        Arc::new(red.graph),
        None,
        Some(Arc::clone(&reduction)),
        ServiceConfig::default(),
    );

    let wire = |ans: &kpj_service::Answer| {
        ans.wire_body(true)
            .split(",\"stats\":")
            .next()
            .unwrap()
            .to_string()
    };
    let compare = |tag: &str| {
        for (s, ts) in [(0u32, vec![7u32, 33]), (150, vec![0, 7])] {
            let req = request(vec![s], ts, 8);
            let a = plain.execute(&req).unwrap();
            let b = reduced.execute(&req).unwrap();
            assert_eq!(wire(&a), wire(&b), "{tag}: s={s}");
        }
    };
    compare("before update");

    // Hit a chain interior: the corridor stretched from node 0's first
    // base edge starts at (0, n0), so (n0, n0+1) is its middle hop and
    // (0, n0) its first hop — one kept endpoint, one interior.
    assert!(base.out_degree(0) > 0, "node 0 must have a corridor");
    assert!(reduction.is_interior(n0), "corridor middles contract");
    let updates = [
        kpj_graph::WeightUpdate {
            from: n0,
            to: n0 + 1,
            weight: 77,
        },
        kpj_graph::WeightUpdate {
            from: n0 + 1,
            to: n0,
            weight: 91,
        },
        kpj_graph::WeightUpdate {
            from: 0,
            to: n0,
            weight: 5,
        },
    ];
    let a = plain.apply_update(&updates).unwrap();
    let b = reduced.apply_update(&updates).unwrap();
    assert_eq!(a.changed > 0, b.changed > 0, "both services saw a change");
    assert!(b.epoch > 0, "reduced service published a new epoch");
    compare("after interior update");

    // A second round on the same chain proves the replaced reduction's
    // prefix sums are the ones future translations repair against.
    let updates = [kpj_graph::WeightUpdate {
        from: n0,
        to: n0 + 1,
        weight: 3,
    }];
    plain.apply_update(&updates).unwrap();
    reduced.apply_update(&updates).unwrap();
    compare("after second interior update");

    // Contracted endpoints are rejected like unknown ids.
    let bad = reduced.execute(&request(vec![n0], vec![7], 2));
    assert!(
        matches!(
            bad,
            Err(ServiceError::Query(QueryError::SourceOutOfRange(v))) if v == n0
        ),
        "got {bad:?}"
    );
}
