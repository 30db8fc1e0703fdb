//! Dense request-id tables.
//!
//! Request ids are issued densely and retire roughly in issue order, so
//! the live ids of any per-request table sit in a narrow band that slides
//! forward through the id space. [`IdTable`] keeps that band in a window
//! of slots indexed by `id - base`: insert, lookup and remove are a
//! subtraction and an index, with no ordered-map walk and no hashing.
//!
//! Ids outside the window's reach go to an ordered overflow map instead.
//! Two kinds of id land there: a *straggler* left far behind the live band
//! (a crashed worker's request with recovery off), and an id far ahead of
//! it (a hostile `2^60` in a frame that passed its checksums). Neither can
//! stretch the window, so memory stays O(live entries + window cap)
//! whatever the ids are, and a long horizon cannot grow it.
//!
//! Iteration merges the window with the overflow map in ascending id
//! order, so a walk over the table (e.g. the dispatcher reclaiming a
//! suspected worker's requests) is as deterministic as a `BTreeMap` walk.

use std::collections::{btree_map, vec_deque, BTreeMap, VecDeque};
use std::iter::{Enumerate, Peekable};

/// Default window cap, in ids. Covers the live id span of every normal
/// run (a few hundred ids below the knee, a few thousand well past it).
pub const DEFAULT_WINDOW: usize = 1 << 14;

/// A window holding at most this many entries moves wholesale to an id it
/// cannot reach; a fuller window sends that id to the overflow map. Keeps
/// a table whose only entries are a few stragglers from pushing every new
/// id into the overflow map.
const REBASE_MAX: usize = 4;

/// A map from request id to `V`, O(1) for ids near the live band.
///
/// Invariants: the window's first and last slots are occupied (or the
/// window is empty), it never spans more than its cap, and no id is both
/// in a slot and in the overflow map.
#[derive(Clone, Debug)]
pub struct IdTable<V> {
    /// Id of `slots[0]`.
    base: u64,
    slots: VecDeque<Option<V>>,
    /// Occupied slots.
    in_window: usize,
    /// Entries whose ids the window could not reach when inserted, or
    /// that a sliding window left behind.
    overflow: BTreeMap<u64, V>,
    /// Most ids the window spans.
    cap: usize,
}

impl<V> Default for IdTable<V> {
    fn default() -> Self {
        IdTable::new()
    }
}

impl<V> IdTable<V> {
    /// An empty table with the [`DEFAULT_WINDOW`] cap.
    pub fn new() -> Self {
        IdTable::with_window(DEFAULT_WINDOW)
    }

    /// An empty table whose window spans at most `cap` ids (`cap > 0`).
    fn with_window(cap: usize) -> Self {
        IdTable {
            base: 0,
            slots: VecDeque::new(),
            in_window: 0,
            overflow: BTreeMap::new(),
            cap,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.in_window + self.overflow.len()
    }

    /// True if the table holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slot index of `id`, if the window spans it.
    fn offset(&self, id: u64) -> Option<usize> {
        let off = id.wrapping_sub(self.base);
        (off < self.slots.len() as u64).then_some(off as usize)
    }

    /// The value stored for `id`.
    pub fn get(&self, id: u64) -> Option<&V> {
        if let Some(v) = self.offset(id).and_then(|i| self.slots[i].as_ref()) {
            return Some(v);
        }
        if self.overflow.is_empty() {
            None
        } else {
            self.overflow.get(&id)
        }
    }

    /// The value stored for `id`, mutably.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut V> {
        match self.offset(id) {
            Some(i) if self.slots[i].is_some() => self.slots[i].as_mut(),
            _ if self.overflow.is_empty() => None,
            _ => self.overflow.get_mut(&id),
        }
    }

    /// Whether `id` has an entry.
    pub fn contains_key(&self, id: u64) -> bool {
        self.get(id).is_some()
    }

    /// Store `value` for `id`, returning the value it replaces.
    pub fn insert(&mut self, id: u64, value: V) -> Option<V> {
        let i = match self.offset(id) {
            Some(i) => i,
            None => match self.cover(id) {
                Some(i) => i,
                None => return self.overflow.insert(id, value),
            },
        };
        let prev = self.slots[i].replace(value);
        if prev.is_some() {
            return prev;
        }
        self.in_window += 1;
        if self.overflow.is_empty() {
            None
        } else {
            // The window may have grown over an id stored out of reach.
            self.overflow.remove(&id)
        }
    }

    /// Remove and return the value stored for `id`.
    pub fn remove(&mut self, id: u64) -> Option<V> {
        if let Some(i) = self.offset(id) {
            if let Some(v) = self.slots[i].take() {
                self.in_window -= 1;
                if i == 0 {
                    self.trim_front();
                } else if i + 1 == self.slots.len() {
                    self.trim_back();
                }
                return Some(v);
            }
        }
        if self.overflow.is_empty() {
            None
        } else {
            self.overflow.remove(&id)
        }
    }

    /// Entries in ascending id order.
    pub fn iter(&self) -> Iter<'_, V> {
        Iter {
            base: self.base,
            slots: self.slots.iter().enumerate(),
            slot: None,
            overflow: self.overflow.iter().peekable(),
        }
    }

    /// Grow, slide or move the window so it spans `id` (which it does not
    /// span now), and return `id`'s slot. `None` means `id` is out of
    /// reach and belongs in the overflow map.
    fn cover(&mut self, id: u64) -> Option<usize> {
        let cap = self.cap as u64;
        if self.slots.is_empty() {
            self.base = id;
        } else {
            // Never overflows: the last slot holds a real id.
            let last = self.base + (self.slots.len() as u64 - 1);
            if id < self.base {
                if last - id >= cap {
                    return self.rebase(id);
                }
                // An out-of-order re-insert below the front, e.g. a
                // preempted request dispatched again.
                let n = (self.base - id) as usize;
                self.reserve(n);
                for _ in 0..n {
                    self.slots.push_front(None);
                }
                self.base = id;
                return Some(0);
            }
            if id - self.base >= cap {
                if id - last >= cap {
                    return self.rebase(id);
                }
                // Slide forward: whatever falls off the front is a
                // straggler and moves to the overflow map.
                let new_base = id - (cap - 1);
                while self.base < new_base {
                    match self.slots.pop_front() {
                        Some(Some(v)) => {
                            self.in_window -= 1;
                            self.overflow.insert(self.base, v);
                        }
                        Some(None) => {}
                        None => break,
                    }
                    self.base += 1;
                }
                self.trim_front();
                if self.slots.is_empty() {
                    self.base = id;
                }
            }
        }
        let off = (id - self.base) as usize;
        if off >= self.slots.len() {
            self.reserve(off + 1 - self.slots.len());
            self.slots.resize_with(off + 1, || None);
        }
        Some(off)
    }

    /// Move a near-empty window to `id`, sending its few entries to the
    /// overflow map; refuse (`None`) when the window holds more.
    fn rebase(&mut self, id: u64) -> Option<usize> {
        if self.in_window > REBASE_MAX {
            return None;
        }
        let base = self.base;
        for (i, slot) in self.slots.drain(..).enumerate() {
            if let Some(v) = slot {
                self.overflow.insert(base + i as u64, v);
            }
        }
        self.in_window = 0;
        self.base = id;
        self.reserve(1);
        self.slots.push_back(None);
        Some(0)
    }

    /// Make room for `extra` more slots, doubling up to the cap so the
    /// allocation never exceeds it.
    fn reserve(&mut self, extra: usize) {
        let need = self.slots.len() + extra;
        if need > self.slots.capacity() {
            let target = need.next_power_of_two().min(self.cap).max(need);
            self.slots.reserve_exact(target - self.slots.len());
        }
    }

    fn trim_front(&mut self) {
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base = self.base.wrapping_add(1);
        }
    }

    fn trim_back(&mut self) {
        while let Some(None) = self.slots.back() {
            self.slots.pop_back();
        }
    }
}

/// Ascending-id iterator over an [`IdTable`]: the window's slots merged
/// with the overflow map.
pub struct Iter<'a, V> {
    base: u64,
    slots: Enumerate<vec_deque::Iter<'a, Option<V>>>,
    /// The next occupied slot, once looked ahead.
    slot: Option<(u64, &'a V)>,
    overflow: Peekable<btree_map::Iter<'a, u64, V>>,
}

impl<'a, V> Iterator for Iter<'a, V> {
    type Item = (u64, &'a V);

    fn next(&mut self) -> Option<(u64, &'a V)> {
        if self.slot.is_none() {
            let base = self.base;
            self.slot = self
                .slots
                .find_map(|(i, s)| s.as_ref().map(|v| (base + i as u64, v)));
        }
        let slot_first = match (self.slot, self.overflow.peek()) {
            (Some((a, _)), Some((&b, _))) => a < b,
            (slot, _) => slot.is_some(),
        };
        if slot_first {
            self.slot.take()
        } else {
            self.overflow.next().map(|(&id, v)| (id, v))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dense_ids_stay_in_the_window() {
        let mut t = IdTable::new();
        for id in 1..=1000u64 {
            assert_eq!(t.insert(id, id * 2), None);
        }
        assert_eq!(t.len(), 1000);
        assert_eq!(t.get(500), Some(&1000));
        assert_eq!(t.insert(500, 7), Some(1000));
        assert_eq!(t.remove(500), Some(7));
        assert_eq!(t.remove(500), None);
        assert!(t.overflow.is_empty());
        let ids: Vec<u64> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids.len(), 999);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn reinsert_below_the_front_is_in_window() {
        let mut t = IdTable::new();
        for id in 10..20u64 {
            t.insert(id, ());
        }
        for id in 10..15u64 {
            t.remove(id);
        }
        // A preempted request comes back with an id below the front.
        t.insert(11, ());
        assert!(t.overflow.is_empty());
        assert!(t.contains_key(11));
        assert_eq!(t.iter().next().map(|(id, _)| id), Some(11));
    }

    #[test]
    fn straggler_slides_into_overflow_and_window_stays_capped() {
        let mut t = IdTable::new();
        t.insert(1, 1u64);
        // 1M ids flow past one stuck request, a few live at a time.
        for id in 2..1_000_002u64 {
            t.insert(id, id);
            if id >= 10 {
                t.remove(id - 8);
            }
            assert!(t.slots.capacity() <= DEFAULT_WINDOW);
        }
        assert_eq!(t.get(1), Some(&1));
        assert_eq!(t.overflow.len(), 1, "only the straggler overflows");
        assert_eq!(t.len(), 9);
        assert_eq!(t.iter().next(), Some((1, &1)));
        assert_eq!(t.remove(1), Some(1));
    }

    #[test]
    fn hostile_ids_go_to_overflow() {
        let mut t = IdTable::new();
        for id in 1..100u64 {
            t.insert(id, id);
        }
        t.insert(1 << 60, 0);
        t.insert(u64::MAX, 1);
        assert_eq!(t.overflow.len(), 2);
        assert_eq!(t.slots.capacity(), 128);
        for id in 100..200u64 {
            t.insert(id, id);
        }
        assert_eq!(t.get(1 << 60), Some(&0));
        let last: Vec<u64> = t.iter().map(|(id, _)| id).skip(198).collect();
        assert_eq!(last, vec![199, 1 << 60, u64::MAX]);
        // A near-empty window follows an out-of-reach id and back.
        let mut t = IdTable::new();
        t.insert(5, ());
        t.insert(u64::MAX, ());
        t.insert(6, ());
        assert_eq!(t.len(), 3);
        assert_eq!(t.remove(u64::MAX), Some(()));
        assert_eq!(t.remove(5), Some(()));
        assert_eq!(t.remove(6), Some(()));
        assert!(t.is_empty());
    }

    /// Ids a per-request table sees: a dense band with out-of-order
    /// re-inserts, sparse ids, far stragglers, and hostile `2^60`-scale
    /// ids. The window is small so every path (grow, slide, rebase,
    /// overflow) runs often.
    fn id_strategy() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..64,
            0u64..64,
            0u64..64,
            0u64..4096,
            (0u64..8).prop_map(|i| i * 1000),
            (0u64..4).prop_map(|i| (1u64 << 60) + i),
            Just(u64::MAX),
        ]
    }

    proptest! {
        /// `IdTable` behaves exactly like a `BTreeMap<u64, _>`: same
        /// insert/get/remove results, same ascending iteration.
        #[test]
        fn id_table_matches_btreemap(
            ops in proptest::collection::vec((0u8..10, id_strategy()), 1..400),
            cap in 1usize..40,
        ) {
            let mut fast = IdTable::with_window(cap);
            let mut spec = BTreeMap::new();
            for (i, &(op, id)) in ops.iter().enumerate() {
                match op {
                    0..=4 => prop_assert_eq!(fast.insert(id, i), spec.insert(id, i)),
                    5..=7 => prop_assert_eq!(fast.remove(id), spec.remove(&id)),
                    8 => prop_assert_eq!(fast.get(id), spec.get(&id)),
                    _ => {
                        if let Some(v) = fast.get_mut(id) {
                            *v += 1;
                        }
                        if let Some(v) = spec.get_mut(&id) {
                            *v += 1;
                        }
                    }
                }
                prop_assert_eq!(fast.len(), spec.len());
                prop_assert!(fast.slots.len() <= cap);
                prop_assert!(fast.slots.capacity() <= cap);
            }
            let got: Vec<(u64, usize)> = fast.iter().map(|(k, &v)| (k, v)).collect();
            let want: Vec<(u64, usize)> = spec.iter().map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(got, want);
        }
    }
}
