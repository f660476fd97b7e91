//! The benchmark's own span recorder.
//!
//! Spans wrap the benchmark's calls into each layer's public functions.
//! Each records its layer and name, start and end (ns since the run's
//! origin), the span that caused it, and the id of the request it belongs
//! to. They stay in memory until the run ends and are then written out
//! as JSON lines. A disabled recorder records nothing.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Request (or set-up step) id shared by every span of one request.
    pub request: u64,
    /// Layer, e.g. `wire`, `core`, `landmark`.
    pub layer: &'static str,
    /// What ran, e.g. `query`, `build`, `spt_build`.
    pub name: &'static str,
    /// Index of the parent span in the same recorder.
    pub parent: Option<usize>,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin (equal to start while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span buffer for one thread.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder timing from `origin`; `enabled = false` records nothing.
    pub fn new(origin: Instant, enabled: bool) -> Spans {
        Spans {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its handle (`None` when disabled).
    pub fn open(
        &mut self,
        request: u64,
        layer: &'static str,
        name: &'static str,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.push(Span {
            request,
            layer,
            name,
            parent,
            start_ns: now,
            end_ns: now,
        })
    }

    /// Close the span `handle` opened.
    pub fn close(&mut self, handle: Option<usize>) {
        if let Some(i) = handle {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Record an already-closed span (e.g. one the engine timed).
    pub fn push(&mut self, span: Span) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// The span `handle` names.
    pub fn get(&self, handle: Option<usize>) -> Option<&Span> {
        handle.and_then(|i| self.spans.get(i))
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        request: u64,
        layer: &'static str,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let h = self.open(request, layer, name, parent);
        let out = f();
        self.close(h);
        out
    }

    /// Move every span of `other` in, keeping parent links intact.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Render as JSON lines: one span per line, `id` its index.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"request\":{},\"name\":\"{}.{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.layer, s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// Self time of each span: its duration minus the part of it covered by
/// its children. Children of one parent do not overlap (every recorder
/// nests strictly), so their durations simply add.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let origin = Instant::now();
        let mut rec = Spans::new(origin, true);
        let span = |parent, start_ns, end_ns| Span {
            request: 1,
            layer: "core",
            name: "x",
            parent,
            start_ns,
            end_ns,
        };
        let root = rec.push(span(None, 0, 100));
        let child = rec.push(span(root, 10, 40));
        rec.push(span(child, 20, 30));
        rec.push(span(root, 50, 60));
        assert_eq!(self_times(rec.spans()), vec![60, 20, 10, 10]);

        let mut other = Spans::new(origin, true);
        let r = other.push(span(None, 0, 5));
        other.push(span(r, 1, 2));
        rec.absorb(other);
        assert_eq!(rec.spans()[5].parent, Some(4));
        assert!(rec.to_jsonl().lines().count() == 6);

        let mut off = Spans::new(origin, false);
        assert_eq!(off.open(1, "wire", "query", None), None);
        assert!(off.spans().is_empty());
    }
}
