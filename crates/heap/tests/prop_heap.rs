//! Property-based model checks for both priority queues.

use kpj_heap::{IndexedMinHeap, MinHeap};
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    /// IndexedMinHeap behaves exactly like a map + min-extraction model
    /// under arbitrary interleavings of push/decrease, pop and clear.
    #[test]
    fn indexed_heap_model(ops in vec((0..4u8, 0..24usize, 0..500u64), 1..400)) {
        let mut h: IndexedMinHeap<u64> = IndexedMinHeap::new(24);
        let mut model: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
        for (op, item, key) in ops {
            match op {
                0 | 1 => {
                    let changed = h.push_or_decrease(item, key);
                    match model.get(&item) {
                        None => {
                            prop_assert!(changed);
                            model.insert(item, key);
                        }
                        Some(&old) if key < old => {
                            prop_assert!(changed);
                            model.insert(item, key);
                        }
                        Some(_) => prop_assert!(!changed),
                    }
                }
                2 => match h.pop() {
                    None => prop_assert!(model.is_empty()),
                    Some((item, key)) => {
                        let min = *model.values().min().unwrap();
                        prop_assert_eq!(key, min);
                        prop_assert_eq!(model.remove(&item), Some(key));
                        prop_assert!(!h.contains(item));
                    }
                },
                _ => {
                    h.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(h.len(), model.len());
            prop_assert_eq!(h.is_empty(), model.is_empty());
            if let Some((_, k)) = h.peek() {
                prop_assert_eq!(k, *model.values().min().unwrap());
            }
            for &i in model.keys() {
                prop_assert!(h.contains(i));
            }
            // Every queued item carries its model key: drain a copy.
            let mut drained = h.clone();
            let mut queued = std::collections::HashMap::new();
            while let Some((i, k)) = drained.pop() {
                queued.insert(i, k);
            }
            prop_assert_eq!(&queued, &model);
        }
    }

    /// Draining a MinHeap yields keys in sorted order and preserves the
    /// key→value pairing.
    #[test]
    fn min_heap_drains_sorted(entries in vec((0..10_000u64, 0..10_000u64), 0..200)) {
        let mut q = MinHeap::new();
        for &(k, v) in &entries {
            q.push(k, v);
        }
        prop_assert_eq!(q.len(), entries.len());
        let mut drained = Vec::new();
        while let Some((k, v)) = q.pop() {
            drained.push((k, v));
        }
        // Keys non-decreasing.
        prop_assert!(drained.windows(2).all(|w| w[0].0 <= w[1].0));
        // Same multiset of entries.
        let mut want = entries;
        want.sort_unstable();
        let mut got = drained;
        got.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// peek_key always reports the next pop's key.
    #[test]
    fn min_heap_peek_consistent(entries in vec(0..1_000u32, 1..100)) {
        let mut q = MinHeap::new();
        for (i, &k) in entries.iter().enumerate() {
            q.push(k, i);
        }
        while let Some(top) = q.peek_key() {
            let (k, _) = q.pop().unwrap();
            prop_assert_eq!(k, top);
        }
        prop_assert!(q.is_empty());
    }
}
