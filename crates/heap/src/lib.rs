//! Priority queues for the `kpj` workspace.
//!
//! Two queues cover every algorithm in the paper:
//!
//! * [`IndexedKaryHeap`] — a k-ary min-heap over a *dense* key universe
//!   `0..capacity` with `O(log n)` `decrease-key`. This is the queue inside
//!   every Dijkstra/A\* search (`QV` in Alg. 5, `QT` in Alg. 6/7): each graph
//!   node appears at most once, and label corrections decrease its key in
//!   place, so no stale entries are ever popped. Keys are stored inline
//!   with their items, so a sift never leaves the heap array.
//!   [`IndexedMinHeap`] is its binary (`A = 2`) alias and drives the
//!   hottest loop, the incremental `SPT_I` A\* of IterBoundI, as well as
//!   `SPT_P`, the DA-SPT candidate search and the whole-graph Dijkstra
//!   behind landmark tables; the constrained subspace `Searcher` uses
//!   arity 4 (shallower sift-up for decrease-key-heavy workloads — see
//!   `examples/heap_arity.rs` for the microbench).
//! * [`MinHeap`] — a thin min-ordered convenience wrapper around
//!   `std::collections::BinaryHeap` for queues whose entries are not dense
//!   (the subspace queue `Q` of Alg. 2/Alg. 4, candidate sets, generators).
//!
//! Both are allocation-frugal: `IndexedKaryHeap` reuses its backing arrays
//! across searches via [`IndexedKaryHeap::clear`] (which costs only the
//! entries still queued), and `MinHeap` exposes `with_capacity`.

#![warn(missing_docs)]

mod indexed;
mod min_heap;

pub use indexed::{IndexedKaryHeap, IndexedMinHeap};
pub use min_heap::MinHeap;
