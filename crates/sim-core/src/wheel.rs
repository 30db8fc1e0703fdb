//! The far-future lane of the event queue: a hierarchical timer wheel.
//!
//! The sorted near array in [`crate::queue`] is the right structure for a
//! small population — the keys are cache-resident, a pop takes the tail
//! and a push scans a few keys from it — and model runs with small frames
//! keep one: at most 38 events pending. It is the wrong structure for a standing population
//! of far-future events: the one 200 µs retry timeout per in-flight
//! request that the resilience and recovery grids keep, or the standing
//! timers of the synthetic `perf` shapes. Those would lengthen the array
//! every insert shifts on the hot path. The queue therefore engages the
//! wheel only once the array holds a bound of keys above any model's
//! population.
//!
//! The wheel takes that population out of the array. Time is bucketed in
//! powers of two: level 0 holds 64 buckets of [`GRANULARITY`] (64 ns) each,
//! level 1 holds 64 buckets of 4.096 µs, and so on — ten levels cover every
//! representable instant, so there is no overflow path. An event lands in
//! the bucket whose span contains it *relative to the wheel's floor* (the
//! start of the currently open level-0 bucket): the level is the highest
//! bit in which the event time differs from the floor, found with one XOR
//! and a leading-zeros count, exactly the scheme of the Linux kernel and
//! tokio timer wheels. Insertion is O(1): a `Vec` push plus one bit in the
//! level's occupancy bitmap.
//!
//! Advancing is driven by the queue, not by ticks: when the lane and the
//! near array drain, [`Wheel::open_next`] jumps the floor directly to the
//! next occupied bucket (a `trailing_zeros` on the occupancy bitmaps —
//! empty spans cost nothing, which is what makes sparse far-future
//! populations cheap). Opening a level-0 bucket hands its entries back to
//! the queue, which sorts them into the near array; opening a
//! higher-level bucket *cascades* — its entries redistribute into lower
//! levels relative to the new floor, each entry strictly descending, so
//! an event is touched at most once per level over its whole life.
//!
//! Ordering correctness does not depend on bucket internals: buckets are
//! unordered, and the queue re-establishes the total `(time, seq)` order
//! when it sorts a promoted bucket. The wheel only has to guarantee the
//! *partition* invariant — every resident entry fires at or after the end
//! of the open bucket — which holds because entries land strictly above
//! the floor's index at their level and the floor only moves forward
//! while the wheel holds entries.

use crate::queue::Key;

/// Log2 of the level-0 bucket width: 64 ns. While the wheel is engaged,
/// gaps shorter than this stay in the near array; the paper's service
/// times (1–100 µs) and wire hops (≈ 80 ns – 2.56 µs) land in levels 0–3.
pub(crate) const GRANULARITY_SHIFT: u32 = 6;
/// Width of a level-0 bucket in nanoseconds.
pub(crate) const GRANULARITY: u64 = 1 << GRANULARITY_SHIFT;
/// Log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Levels 0..10 cover bits 6..66 of the nanosecond clock — the whole
/// `u64` range, so there is no overflow list to cascade.
const LEVELS: usize = 10;

/// The hierarchical wheel. Owned by the event queue; all entries are
/// `Key`s whose payloads live in the queue's slab arena.
pub(crate) struct Wheel {
    /// `LEVELS * SLOTS` buckets, flat, row-major by level. Allocated on
    /// first use so queues that never schedule far stay allocation-free.
    buckets: Vec<Vec<Key>>,
    /// One occupancy bit per slot per level.
    occupied: [u64; LEVELS],
    /// Entries resident in buckets (live and cancelled alike).
    count: usize,
    /// Cascade scratch, recycled so redistribution never allocates in
    /// steady state.
    cascade: Vec<Key>,
}

impl Wheel {
    pub(crate) fn new() -> Wheel {
        Wheel {
            buckets: Vec::new(),
            occupied: [0; LEVELS],
            count: 0,
            cascade: Vec::new(),
        }
    }

    /// Entries resident in buckets, counting cancelled ones that have not
    /// been swept yet.
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// Drop every resident entry, keeping the bucket storage.
    pub(crate) fn clear(&mut self) {
        self.buckets.iter_mut().for_each(Vec::clear);
        self.occupied = [0; LEVELS];
        self.count = 0;
    }

    /// Whether bucket storage has been allocated.
    #[cfg(test)]
    pub(crate) fn is_allocated(&self) -> bool {
        !self.buckets.is_empty()
    }

    /// Level and slot for `at` relative to `floor`. `at` must be beyond
    /// the open bucket (`at ^ floor` has a bit at or above
    /// [`GRANULARITY_SHIFT`]).
    #[inline]
    fn locate(floor: u64, at: u64) -> (usize, usize) {
        let x = (at ^ floor) >> GRANULARITY_SHIFT;
        debug_assert!(x != 0, "near event routed to the wheel");
        let level = ((63 - x.leading_zeros()) / SLOT_BITS) as usize;
        let slot =
            ((at >> (GRANULARITY_SHIFT + SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        (level, slot)
    }

    /// The wheel-lane scheduling entry point: file `key` under the bucket
    /// containing `key.at`, given the current floor. O(1).
    #[inline]
    pub(crate) fn schedule_far(&mut self, floor: u64, key: Key) {
        if self.buckets.is_empty() {
            self.buckets = vec![Vec::new(); LEVELS * SLOTS];
        }
        let (level, slot) = Self::locate(floor, key.at);
        self.occupied[level] |= 1 << slot;
        self.buckets[level * SLOTS + slot].push(key);
        self.count += 1;
    }

    /// Jump the floor to the next occupied level-0 bucket, cascading
    /// higher-level buckets down as they are reached, and drain that
    /// bucket's entries (unordered) into `due`. Returns the new floor, or
    /// `None` if the wheel is empty. `due` must be empty on entry.
    pub(crate) fn open_next(&mut self, mut floor: u64, due: &mut Vec<Key>) -> Option<u64> {
        debug_assert!(due.is_empty());
        if self.count == 0 {
            return None;
        }
        loop {
            // Lowest level with an occupied bucket strictly ahead of the
            // floor's index holds the earliest resident entry: lower
            // levels cover nearer spans, and each level's at-or-behind
            // buckets are empty (cascaded when the floor entered them).
            let mut found = None;
            for level in 0..LEVELS {
                let shift = GRANULARITY_SHIFT + SLOT_BITS * level as u32;
                let idx = ((floor >> shift) & (SLOTS as u64 - 1)) as u32;
                // Bits strictly above idx; the double shift sidesteps the
                // undefined `<< 64` at idx == 63.
                let ahead = (self.occupied[level] >> idx) >> 1 << idx << 1;
                if ahead != 0 {
                    found = Some((level, ahead.trailing_zeros() as usize, shift));
                    break;
                }
            }
            let Some((level, slot, shift)) = found else {
                // Only cancelled entries remained and a prior sweep
                // already dropped them.
                debug_assert_eq!(self.count, 0, "wheel count drifted");
                return None;
            };
            // The floor jumps to the opened bucket's start: higher fields
            // keep the floor's digits, this level's field becomes `slot`,
            // lower fields clear.
            let hi = if shift + SLOT_BITS >= 64 {
                0
            } else {
                (floor >> (shift + SLOT_BITS)) << (shift + SLOT_BITS)
            };
            floor = hi | ((slot as u64) << shift);
            self.occupied[level] &= !(1 << slot);
            let bucket = &mut self.buckets[level * SLOTS + slot];
            if level == 0 {
                self.count -= bucket.len();
                due.append(bucket);
                return Some(floor);
            }
            // Cascade: redistribute relative to the new floor. Entries
            // inside the now-open level-0 bucket are due immediately; the
            // rest descend at least one level.
            debug_assert!(self.cascade.is_empty());
            std::mem::swap(bucket, &mut self.cascade);
            while let Some(key) = self.cascade.pop() {
                if (key.at ^ floor) >> GRANULARITY_SHIFT == 0 {
                    self.count -= 1;
                    due.push(key);
                } else {
                    let (l, s) = Self::locate(floor, key.at);
                    debug_assert!(l < level, "cascade must descend");
                    self.occupied[l] |= 1 << s;
                    self.buckets[l * SLOTS + s].push(key);
                }
            }
            if !due.is_empty() {
                return Some(floor);
            }
            // Everything went to lower-level buckets ahead; rescan from
            // the new floor.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(at: u64, seq: u64) -> Key {
        Key { at, seq, slot: 0 }
    }

    /// Drain the wheel completely via open_next, returning (floor, at)
    /// pairs in pop order (bucket interiors sorted for determinism).
    fn drain(w: &mut Wheel, mut floor: u64) -> Vec<u64> {
        let mut out = Vec::new();
        let mut due = Vec::new();
        while let Some(f) = w.open_next(floor, &mut due) {
            floor = f;
            due.sort_by_key(|k| (k.at, k.seq));
            for k in &due {
                assert!(k.at >= f, "entry {} surfaced before its bucket {f}", k.at);
                assert!(k.at - f < GRANULARITY, "entry {} outside bucket {f}", k.at);
                out.push(k.at);
            }
            due.clear();
        }
        assert_eq!(w.count(), 0);
        out
    }

    #[test]
    fn events_surface_in_nondecreasing_bucket_order() {
        let mut w = Wheel::new();
        let times = [
            GRANULARITY + 6,
            GRANULARITY * 62 + 8,
            GRANULARITY + 1,
            GRANULARITY << 14,
            (GRANULARITY << 14) + 1,
            GRANULARITY << 24,
            GRANULARITY << 38,
            u64::MAX,
        ];
        for (i, &t) in times.iter().enumerate() {
            w.schedule_far(0, key(t, i as u64));
        }
        let drained = drain(&mut w, 0);
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        assert_eq!(drained, sorted);
    }

    #[test]
    fn same_bucket_entries_surface_together() {
        let mut w = Wheel::new();
        w.schedule_far(0, key(GRANULARITY + 36, 0));
        w.schedule_far(0, key(GRANULARITY + 37, 1));
        w.schedule_far(0, key(2 * GRANULARITY - 1, 2));
        let mut due = Vec::new();
        let floor = w.open_next(0, &mut due).unwrap();
        assert_eq!(floor, GRANULARITY);
        assert_eq!(due.len(), 3);
        assert_eq!(w.count(), 0);
    }

    #[test]
    fn sparse_far_future_jumps_directly() {
        let mut w = Wheel::new();
        w.schedule_far(0, key(1 << 40, 0));
        let mut due = Vec::new();
        let floor = w.open_next(0, &mut due).unwrap();
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].at, 1 << 40);
        assert!(floor <= 1 << 40 && (1 << 40) - floor < GRANULARITY);
    }

    #[test]
    fn empty_wheel_reports_none() {
        let mut w = Wheel::new();
        let mut due = Vec::new();
        assert!(w.open_next(0, &mut due).is_none());
        assert_eq!(w.count(), 0);
    }
}
