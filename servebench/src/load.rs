//! The closed-loop load generator and the per-reply answer check.
//!
//! [`CLIENTS`] client threads share one op counter. Each takes the next
//! op, renders its request line, calls `wire::handle_line` on the
//! in-process service (timed from the client), checks the reply, and only
//! then takes another op. Socket I/O is left out on purpose: on loopback
//! it costs more than a cache hit and would drown the layers measured.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use kpj_graph::{Graph, Length, NodeId};
use kpj_service::{wire, KpjService};

use crate::json::{self, Value};
use crate::spans::Spans;
use crate::workload::{Op, Query, Stream};

/// Concurrent closed-loop clients.
pub const CLIENTS: usize = 2;

/// How many failure messages a pass keeps for the report.
const KEPT_FAILURES: usize = 8;

/// What an update reply reported.
#[derive(Debug, Clone, Copy, Default)]
pub struct UpdateReply {
    /// Client-observed time of the `update` call, ms.
    pub ms: f64,
    /// Landmark repair, µs.
    pub repair_us: u64,
    /// Nodes whose landmark distance was recomputed.
    pub affected_nodes: u64,
    /// Cache entries reaped at publish.
    pub cache_purged: u64,
}

/// Everything one pass of the load generator saw.
#[derive(Debug)]
pub struct PassResult {
    /// Client-observed query times, ms, in completion order per client.
    pub query_ms: Vec<f64>,
    /// Update replies.
    pub updates: Vec<UpdateReply>,
    /// Bytes of every query reply.
    pub reply_bytes: u64,
    /// Ops sent.
    pub attempted: u64,
    /// Error replies, refusals and answers failing the checks.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Window start to the last reply, seconds.
    pub wall_s: f64,
    /// Highest count of live epochs sampled after an update.
    pub live_epochs_peak: usize,
    /// Spans of the pass (empty unless traced).
    pub spans: Spans,
}

impl PassResult {
    /// An empty result; `traced` enables its span recorder.
    pub fn new(origin: Instant, traced: bool) -> PassResult {
        PassResult {
            query_ms: Vec::new(),
            updates: Vec::new(),
            reply_bytes: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            wall_s: 0.0,
            live_epochs_peak: 0,
            spans: Spans::new(origin, traced),
        }
    }

    /// Count a failure, keeping its message if there is room.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(message);
        }
    }

    /// Fold another client's (or pass's) results in.
    pub fn absorb(&mut self, other: PassResult) {
        self.query_ms.extend(other.query_ms);
        self.updates.extend(other.updates);
        self.reply_bytes += other.reply_bytes;
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(f);
            }
        }
        self.wall_s = self.wall_s.max(other.wall_s);
        self.live_epochs_peak = self.live_epochs_peak.max(other.live_epochs_peak);
        self.spans.absorb(other.spans);
    }
}

/// When a pass stops taking ops.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// Before op index `end`.
    Index(u64),
    /// After this long.
    Elapsed(Duration),
}

/// The services and data a pass drives.
pub struct Target<'a> {
    /// The service under load.
    pub service: &'a KpjService,
    /// The request stream.
    pub stream: &'a Stream,
    /// The graph as first served, for the path checks.
    pub graph: &'a Graph,
    /// Whether edge weights stay as first served (no updates yet), so a
    /// path's length must equal its weight sum.
    pub static_weights: bool,
}

/// Run the clients over ops `start..` until `until`.
pub fn run(
    target: &Target<'_>,
    start: u64,
    until: Until,
    origin: Instant,
    traced: bool,
) -> PassResult {
    let next = AtomicU64::new(start);
    let began = Instant::now();
    let mut total = PassResult::new(origin, traced);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| scope.spawn(|| client(target, &next, until, began, origin, traced)))
            .collect();
        for h in handles {
            total.absorb(h.join().expect("client thread panicked"));
        }
    });
    total
}

fn client(
    target: &Target<'_>,
    next: &AtomicU64,
    until: Until,
    began: Instant,
    origin: Instant,
    traced: bool,
) -> PassResult {
    let mut out = PassResult::new(origin, traced);
    let mut checker = Checker::new(target.graph, target.static_weights);
    loop {
        if let Until::Elapsed(d) = until {
            if began.elapsed() >= d {
                break;
            }
        }
        let i = next.fetch_add(1, Ordering::Relaxed);
        if let Until::Index(end) = until {
            if i >= end {
                break;
            }
        }
        let op = target.stream.op(i);
        send(target.service, &op, i, &mut checker, &mut out);
        out.wall_s = began.elapsed().as_secs_f64();
    }
    out
}

/// Send one op, time it, check the reply, and record it in `out`.
pub fn send(
    service: &KpjService,
    op: &Op,
    id: u64,
    checker: &mut Checker<'_>,
    out: &mut PassResult,
) {
    let line = op.to_line(id);
    let name = match op {
        Op::Query(_) => "query",
        Op::Update(_) => "update",
    };
    let span = out.spans.open(id, "wire", name, None);
    let t0 = Instant::now();
    let reply = wire::handle_line(service, &line);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    out.spans.close(span);
    out.attempted += 1;
    match op {
        Op::Query(q) => {
            out.query_ms.push(ms);
            out.reply_bytes += reply.len() as u64;
            if let Err(e) = checker.check_query(q, &reply) {
                out.fail(format!("op {id}: {e}"));
            }
        }
        Op::Update(_) => match check_update(&reply) {
            Ok(mut u) => {
                u.ms = ms;
                out.updates.push(u);
                if out.spans.enabled() {
                    let live = service.pool().epochs().live_epochs();
                    out.live_epochs_peak = out.live_epochs_peak.max(live);
                }
            }
            Err(e) => out.fail(format!("op {id}: {e}")),
        },
    }
}

fn check_update(reply: &str) -> Result<UpdateReply, String> {
    let v = json::parse(reply).map_err(|e| format!("bad reply json: {e}"))?;
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("update refused: {}", truncate(reply)));
    }
    let field = |name: &str| {
        v.get(name)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("update reply lacks `{name}`"))
    };
    field("epoch")?;
    Ok(UpdateReply {
        ms: 0.0,
        repair_us: field("repair_us")?,
        affected_nodes: field("affected_nodes")?,
        cache_purged: field("cache_purged")?,
    })
}

fn truncate(s: &str) -> &str {
    let mut end = s.len().min(160);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

/// Structural checks of query replies against the graph.
pub struct Checker<'g> {
    graph: &'g Graph,
    static_weights: bool,
    /// Visit stamps for the simplicity check.
    seen: Vec<u32>,
    stamp: u32,
}

impl<'g> Checker<'g> {
    /// A checker over `graph`.
    pub fn new(graph: &'g Graph, static_weights: bool) -> Checker<'g> {
        Checker {
            graph,
            static_weights,
            seen: vec![0; graph.node_count()],
            stamp: 0,
        }
    }

    /// Check one query reply: `ok`, at most `k` paths, lengths
    /// non-decreasing, and every path simple, made of graph arcs, from a
    /// source to a target, and (while weights are static) as long as its
    /// arcs add up to. Returns the length vector.
    pub fn check_query(&mut self, q: &Query, reply: &str) -> Result<Vec<Length>, String> {
        let v = json::parse(reply).map_err(|e| format!("bad reply json: {e}"))?;
        if v.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err(format!("query failed: {}", truncate(reply)));
        }
        let count = v.get("count").and_then(Value::as_u64).ok_or("no `count`")? as usize;
        let lengths = v
            .get("lengths")
            .and_then(Value::as_u64s)
            .ok_or("no `lengths`")?;
        let paths = v.get("paths").and_then(Value::as_arr).ok_or("no `paths`")?;
        if count > q.k || lengths.len() != count || paths.len() != count {
            return Err(format!(
                "count {count}, {} lengths, {} paths for k={}",
                lengths.len(),
                paths.len(),
                q.k
            ));
        }
        if lengths.windows(2).any(|w| w[0] > w[1]) {
            return Err(format!("lengths decrease: {lengths:?}"));
        }
        for (path, &length) in paths.iter().zip(&lengths) {
            let nodes = path.as_u64s().ok_or("a path is not a node list")?;
            self.check_path(q, &nodes, length)?;
        }
        Ok(lengths)
    }

    fn check_path(&mut self, q: &Query, nodes: &[u64], length: Length) -> Result<(), String> {
        let n = self.graph.node_count() as u64;
        let (Some(&first), Some(&last)) = (nodes.first(), nodes.last()) else {
            return Err("empty path".to_string());
        };
        if nodes.iter().any(|&v| v >= n) {
            return Err("path node out of range".to_string());
        }
        if !q.sources.contains(&(first as NodeId)) {
            return Err(format!("path starts at {first}, not a source"));
        }
        if !q.targets.contains(&(last as NodeId)) {
            return Err(format!("path ends at {last}, not a target"));
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.fill(0);
            self.stamp = 1;
        }
        let mut sum: Length = 0;
        for (i, &v) in nodes.iter().enumerate() {
            if self.seen[v as usize] == self.stamp {
                return Err(format!("path repeats node {v}"));
            }
            self.seen[v as usize] = self.stamp;
            if i > 0 {
                let u = nodes[i - 1] as NodeId;
                let w = self
                    .graph
                    .edge_weight(u, v as NodeId)
                    .ok_or_else(|| format!("path uses a missing arc {u}->{v}"))?;
                sum += Length::from(w);
            }
        }
        if self.static_weights && sum != length {
            return Err(format!("path length {length} but its arcs add to {sum}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpj_core::Algorithm;
    use kpj_graph::GraphBuilder;

    #[test]
    fn checker_rejects_bad_answers() {
        let mut b = GraphBuilder::new(4);
        b.add_bidirectional(0, 1, 2).unwrap();
        b.add_bidirectional(1, 2, 2).unwrap();
        b.add_bidirectional(0, 3, 1).unwrap();
        let g = b.build();
        let q = Query {
            alg: Algorithm::IterBoundI,
            sources: vec![0],
            targets: vec![2],
            k: 2,
        };
        let mut c = Checker::new(&g, true);
        let good = r#"{"ok":true,"count":1,"lengths":[4],"paths":[[0,1,2]]}"#;
        assert_eq!(c.check_query(&q, good), Ok(vec![4]));
        for bad in [
            r#"{"ok":false,"error":"overloaded"}"#,
            r#"{"ok":true,"count":1,"lengths":[5],"paths":[[0,1,2]]}"#,
            r#"{"ok":true,"count":1,"lengths":[4],"paths":[[1,2]]}"#,
            r#"{"ok":true,"count":1,"lengths":[4],"paths":[[0,3,2]]}"#,
            r#"{"ok":true,"count":1,"lengths":[6],"paths":[[0,1,0,1,2]]}"#,
            r#"{"ok":true,"count":2,"lengths":[6,4],"paths":[[0,1,2],[0,1,2]]}"#,
            r#"{"ok":true,"count":3,"lengths":[4,4,4],"paths":[[0,1,2],[0,1,2],[0,1,2]]}"#,
        ] {
            assert!(c.check_query(&q, bad).is_err(), "{bad}");
        }
    }
}
