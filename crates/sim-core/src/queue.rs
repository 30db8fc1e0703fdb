//! The engine's event queue: a three-lane indexed priority queue that is
//! bit-for-bit order-identical to the naive `BinaryHeap<(time, seq,
//! event)>` it replaced, but cheaper on the hot path — including under
//! the standing far-future timer populations and cancel-heavy timeout
//! traffic real NIC models generate.
//!
//! # Why not `BinaryHeap<Entry<E>>`?
//!
//! The original engine kept whole entries — timestamp, sequence number and
//! the event payload — inside one `BinaryHeap`. Every sift during a push
//! or pop then moves the *payload* (system event alphabets are multi-word
//! enums) and every comparison goes through an `Ord` impl on the struct.
//! On the hottest loop in the repository that is pure overhead: ordering
//! only ever depends on `(time, seq)`.
//!
//! [`EventQueue`] splits event storage from event ordering, and splits
//! ordering itself across three lanes by firing distance:
//!
//! * **Slab arena with validated handles.** Events live in a free-list
//!   slab; they are written once on push and taken once on pop or cancel.
//!   Sifts never touch them. Each slot remembers the insertion sequence
//!   number of its tenant, and a [`TimerHandle`] is `(slot, seq)`: since
//!   `seq` is globally unique for the life of the queue, a handle can be
//!   validated in O(1) forever — cancelling an already-fired timer, or a
//!   handle whose slot has been recycled, is a safe no-op rather than a
//!   use-after-free of someone else's event.
//! * **Same-instant lane (batched pop).** Discrete-event models burst: a
//!   NIC hop fires, and a run of events lands at the *same* nanosecond
//!   (`schedule_now` chains, simultaneous ring slots). When a pop opens
//!   instant `t`, every other pending key at `t` is drained — in sequence
//!   order — into a FIFO lane, and *new* pushes at `t` append to the lane
//!   in O(1), bypassing the heap entirely.
//! * **Near heap.** Events due inside the wheel's open bucket (`at <=
//!   horizon`) sit in a plain `Vec` of `Copy` keys `(at, seq, slot)` with
//!   hand-rolled 4-ary sift-up/sift-down — no allocation per push, no
//!   comparator indirection, and the population stays tiny because
//!   everything farther out lives in the wheel.
//! * **Far wheel.** Events beyond the horizon land in a hierarchical
//!   timer wheel (the private `wheel` module): O(1) insert into a time
//!   bucket. When the near lanes drain, the next occupied bucket is
//!   promoted as a *sorted run* — sorted once, served off its tail in
//!   O(1) per pop — so a promoted key never pays heap sifts at all. A standing backlog
//!   of 100k retransmit timers costs the hot path nothing — it is not in
//!   the heap being sifted over.
//!
//! # Cancellation: eager payload free, lazy index removal
//!
//! [`EventQueue::cancel`] takes the payload out of the slab and recycles
//! the slot *immediately* — no lane ever holds a live payload hostage, so
//! slots cannot leak no matter where the index entry sits. The stale key
//! left behind in the heap, lane or wheel is dropped lazily when it
//! surfaces (its `seq` no longer matches the slot's tenant). A global
//! count of outstanding stale keys keeps the no-cancellation fast path at
//! a single predictable branch.
//!
//! # Ordering contract
//!
//! Pops come out strictly in `(time, seq)` order — time order with FIFO
//! tie-breaking by insertion sequence. [`LegacyHeap`] keeps the original
//! `BinaryHeap` implementation alive as the executable specification: the
//! property tests below drive both queues through identical (and
//! adversarial — past-scheduled, far-future, cancel- and
//! reschedule-heavy) interleavings and demand identical pop sequences,
//! and the `perf` bench binary reports the measured speedup of new over
//! old on every shape.

use core::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

use crate::time::SimTime;
use crate::wheel::{Wheel, GRANULARITY};

/// A compact, `Copy` ordering key: everything a sift needs to move.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Key {
    pub(crate) at: u64,
    pub(crate) seq: u64,
    pub(crate) slot: u32,
}

impl Key {
    #[inline]
    fn rank(self) -> (u64, u64) {
        (self.at, self.seq)
    }
}

/// A validated reference to a pending event, returned by
/// [`EventQueue::push_handle`]. The handle stays cheap to check forever:
/// `seq` is unique over the queue's lifetime, so a handle whose event has
/// fired, been cancelled, or whose slot now hosts a different event simply
/// fails validation — [`EventQueue::cancel`] on it returns `None` instead
/// of touching the wrong payload. Handles are only meaningful on the
/// queue that issued them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimerHandle {
    slot: u32,
    seq: u64,
}

impl TimerHandle {
    /// The insertion sequence number this handle refers to — the same
    /// value [`EventQueue::push`] returns, useful for logs and tests.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

/// One arena slot: the payload plus the sequence number of its tenant,
/// which doubles as the handle-validation generation (sequence numbers
/// are never reused, so no wraparound case exists).
struct Slot<E> {
    seq: u64,
    ev: Option<E>,
}

/// The engine's indexed event queue. Pops strictly in `(time, seq)`
/// order, where `seq` is the queue-assigned insertion number — i.e.
/// time order with FIFO tie-breaking, exactly like the legacy heap.
pub struct EventQueue<E> {
    /// Min-heap of near keys, hand-sifted on `(at, seq)`.
    heap: Vec<Key>,
    /// Payload arena; `Key::slot` indexes here.
    slab: Vec<Slot<E>>,
    /// Recycled slab slots.
    free: Vec<u32>,
    /// Same-instant lane: `(seq, slot)` pairs, all at `lane_at`, in
    /// strictly increasing `seq` order.
    lane: VecDeque<(u64, u32)>,
    /// The instant the lane serves. Pushes at exactly this time append to
    /// the lane instead of the heap.
    lane_at: u64,
    /// Far-future lane: hierarchical timer wheel holding every pending
    /// key with `at > horizon`.
    wheel: Wheel,
    /// Start of the wheel's open level-0 bucket; always a multiple of the
    /// wheel granularity, and never moves backwards.
    floor: u64,
    /// Last instant (inclusive) served by the near lanes: `floor +
    /// granularity - 1`. Pushes at or before it go to the lane or heap;
    /// later pushes go to the wheel.
    horizon: u64,
    /// The promoted wheel bucket currently being served: keys sorted
    /// *descending* by `(at, seq)` so the minimum pops off the tail in
    /// O(1). A bucket is sorted once at promotion — far cheaper than
    /// sifting every key through the heap and back out — and the heap
    /// only ever holds keys pushed *after* that promotion, so every run
    /// key orders before any equal-instant heap key by construction.
    /// Drained before the next refill; its capacity is recycled.
    run: Vec<Key>,
    /// Cancelled index entries still resident in some lane. Kept global
    /// so the no-cancellation fast path pays one branch, not one handle
    /// validation per pop.
    stale: usize,
    /// Next insertion sequence number.
    seq: u64,
    /// Live events (pushed minus popped minus cancelled).
    len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            lane: VecDeque::new(),
            // u64::MAX exceeds any horizon, so no push can match the
            // unopened lane: routing checks the horizon first.
            lane_at: u64::MAX,
            wheel: Wheel::new(),
            floor: 0,
            horizon: GRANULARITY - 1,
            run: Vec::new(),
            stale: 0,
            seq: 0,
            len: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Payloads currently resident in the arena. Equals [`len`] at all
    /// times — cancel and pop free slots eagerly — and must be zero once
    /// the queue drains; the engine's end-of-run leak audit checks this
    /// directly against the slab rather than trusting the counter.
    ///
    /// [`len`]: EventQueue::len
    pub fn live_payloads(&self) -> usize {
        self.slab.iter().filter(|s| s.ev.is_some()).count()
    }

    /// The instant of the next event to pop, if any. Takes `&mut self`:
    /// answering may require dropping cancelled entries and promoting the
    /// next wheel bucket into the near heap (state motion, never
    /// order-visible).
    pub fn peek_at(&mut self) -> Option<SimTime> {
        if !self.settle() {
            return None;
        }
        let lane = self.lane.front().map(|&(seq, _)| (self.lane_at, seq));
        let near = match (
            self.run.last().map(|k| k.rank()),
            self.heap.first().map(|k| k.rank()),
        ) {
            (Some(r), Some(h)) => Some(r.min(h)),
            (r, h) => r.or(h),
        };
        match (lane, near) {
            (None, None) => None,
            (Some((at, _)), None) | (None, Some((at, _))) => Some(SimTime::from_nanos(at)),
            (Some(l), Some(h)) => Some(SimTime::from_nanos(l.min(h).0)),
        }
    }

    /// Insert `event` at instant `at`, after everything already queued for
    /// that instant. Returns the assigned sequence number.
    pub fn push(&mut self, at: SimTime, event: E) -> u64 {
        self.push_handle(at, event).seq
    }

    /// [`push`], but returning a [`TimerHandle`] that can later cancel or
    /// reschedule the event in O(1).
    ///
    /// [`push`]: EventQueue::push
    pub fn push_handle(&mut self, at: SimTime, event: E) -> TimerHandle {
        let seq = self.seq;
        self.seq += 1;
        let slot = self.alloc(seq, event);
        let at = at.as_nanos();
        if at <= self.horizon {
            if at == self.lane_at {
                // Same instant as the open lane: sequence numbers only
                // grow, so appending keeps the lane sorted. O(1).
                self.lane.push_back((seq, slot));
            } else {
                self.heap_push(Key { at, seq, slot });
            }
        } else {
            self.wheel.schedule_far(self.floor, Key { at, seq, slot });
        }
        self.len += 1;
        TimerHandle { slot, seq }
    }

    /// Cancel a pending event, returning its payload, or `None` if the
    /// handle is no longer live (already fired, cancelled, or
    /// rescheduled). The arena slot is recycled immediately — cancellation
    /// never leaks storage — while the index entry left in the heap, lane
    /// or wheel is dropped lazily when it surfaces.
    pub fn cancel(&mut self, handle: TimerHandle) -> Option<E> {
        let slot = self.slab.get_mut(handle.slot as usize)?;
        if slot.seq != handle.seq {
            return None;
        }
        let ev = slot.ev.take()?;
        self.free.push(handle.slot);
        self.len -= 1;
        self.stale += 1;
        Some(ev)
    }

    /// Move a pending event to a new instant (decrease- or increase-key),
    /// keeping its payload. Returns the new handle, or `None` if the old
    /// handle is no longer live. The rescheduled event is ordered as a
    /// fresh insertion at `at` — exactly the cancel-then-push the legacy
    /// heap specification performs, consuming one sequence number.
    pub fn reschedule(&mut self, handle: TimerHandle, at: SimTime) -> Option<TimerHandle> {
        let ev = self.cancel(handle)?;
        Some(self.push_handle(at, ev))
    }

    /// Remove and return the earliest event as `(time, seq, event)`.
    pub fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        if !self.settle() {
            return None;
        }
        let lane_rank = self.lane.front().map(|&(seq, _)| (self.lane_at, seq));
        let run_rank = self.run.last().map(|k| k.rank());
        let heap_rank = self.heap.first().map(|k| k.rank());
        // The three streams never share a `(time, seq)` — `<=` merely
        // keeps the decisions total.
        let run_first = match (run_rank, heap_rank) {
            (Some(r), Some(h)) => r <= h,
            (Some(_), None) => true,
            _ => false,
        };
        let key_rank = if run_first { run_rank } else { heap_rank };
        let from_lane = match (lane_rank, key_rank) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(l), Some(k)) => l <= k,
        };
        self.len -= 1;
        if from_lane {
            let (seq, slot) = self.lane.pop_front().expect("lane checked non-empty");
            let ev = self.take(slot);
            return Some((SimTime::from_nanos(self.lane_at), seq, ev));
        }
        let k = if run_first {
            self.run.pop().expect("run checked non-empty")
        } else {
            self.heap_pop().expect("heap checked non-empty")
        };
        // Batched pop: opening instant `k.at` drains the equal-timestamp
        // keys into the lane in seq order — run keys first (each run key
        // predates every heap key, so its seq is smaller), then heap pops,
        // which come out seq-ordered at equal time — and re-targets the
        // lane so follow-up pushes at this instant skip the heap. Drained
        // keys are *not* validated here — a cancelled one is dropped by
        // `settle` when it reaches the lane head. Only a *clean* lane may
        // be re-targeted: a non-empty lane still holds a different instant
        // (reachable only through past-scheduled events, i.e. the
        // invariant checker's test hook) and must keep competing through
        // the key comparison above.
        if self.lane.is_empty() {
            self.lane_at = k.at;
            while self.run.last().is_some_and(|n| n.at == k.at) {
                let n = self.run.pop().expect("peeked entry pops");
                self.lane.push_back((n.seq, n.slot));
            }
            while self.heap.first().is_some_and(|n| n.at == k.at) {
                let n = self.heap_pop().expect("peeked entry pops");
                self.lane.push_back((n.seq, n.slot));
            }
        }
        Some((SimTime::from_nanos(k.at), k.seq, self.take(k.slot)))
    }

    /// Establish "the near minimum is live": drop cancelled entries from
    /// whichever near lane currently holds the minimum, and promote wheel
    /// buckets whenever the near lanes run dry while events remain.
    /// Returns false when no live event is pending. On the cancel-free
    /// fast path this is one counter branch plus one emptiness check.
    #[inline]
    fn settle(&mut self) -> bool {
        // Index-entry conservation: every pending or cancelled-but-unswept
        // event sits in exactly one lane.
        debug_assert_eq!(
            self.lane.len() + self.heap.len() + self.run.len() + self.wheel.count(),
            self.len + self.stale,
            "index entries out of conservation"
        );
        if self.len == 0 {
            return false;
        }
        loop {
            if self.stale == 0 {
                // Every resident entry is live; just make sure the near
                // lanes are fed.
                if self.lane.is_empty() && self.heap.is_empty() && self.run.is_empty() {
                    self.refill();
                }
                debug_assert!(
                    !self.lane.is_empty() || !self.heap.is_empty() || !self.run.is_empty()
                );
                return true;
            }
            let lane_rank = self.lane.front().map(|&(seq, _)| (self.lane_at, seq));
            let run_rank = self.run.last().map(|k| k.rank());
            let heap_rank = self.heap.first().map(|k| k.rank());
            let run_first = match (run_rank, heap_rank) {
                (Some(r), Some(h)) => r <= h,
                (Some(_), None) => true,
                _ => false,
            };
            let key_rank = if run_first { run_rank } else { heap_rank };
            let from_lane = match (lane_rank, key_rank) {
                (None, None) => {
                    self.refill();
                    continue;
                }
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(l), Some(k)) => l <= k,
            };
            // Validate the minimum — the entry the next pop would take.
            // Anything stale deeper in a lane is harmless until it
            // becomes the minimum itself.
            if from_lane {
                let &(seq, slot) = self.lane.front().expect("checked non-empty");
                if self.is_live(slot, seq) {
                    return true;
                }
                self.lane.pop_front();
            } else if run_first {
                let k = *self.run.last().expect("checked non-empty");
                if self.is_live(k.slot, k.seq) {
                    return true;
                }
                self.run.pop();
            } else {
                let k = *self.heap.first().expect("checked non-empty");
                if self.is_live(k.slot, k.seq) {
                    return true;
                }
                self.heap_pop();
            }
            self.stale -= 1;
        }
    }

    /// Promote the next occupied wheel bucket into the sorted run,
    /// advancing the floor/horizon and dropping cancelled entries on the
    /// way. One `sort_unstable` over the bucket replaces a heap push *and*
    /// a full-depth heap pop per key. Leaves the run non-empty unless the
    /// wheel holds no live entries.
    fn refill(&mut self) {
        debug_assert!(self.run.is_empty(), "refill with an unserved run");
        loop {
            let Some(new_floor) = self.wheel.open_next(self.floor, &mut self.run) else {
                return;
            };
            debug_assert!(new_floor > self.floor || self.floor == 0);
            self.floor = new_floor;
            self.horizon = new_floor + (GRANULARITY - 1);
            let before = self.run.len();
            let slab = &self.slab;
            self.run.retain(|k| {
                slab[k.slot as usize].seq == k.seq && slab[k.slot as usize].ev.is_some()
            });
            self.stale -= before - self.run.len();
            if !self.run.is_empty() {
                self.run
                    .sort_unstable_by_key(|k| core::cmp::Reverse(k.rank()));
                return;
            }
            // The whole bucket was cancelled entries; keep advancing.
        }
    }

    #[inline]
    fn is_live(&self, slot: u32, seq: u64) -> bool {
        let s = &self.slab[slot as usize];
        s.seq == seq && s.ev.is_some()
    }

    fn alloc(&mut self, seq: u64, event: E) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slab[slot as usize];
                debug_assert!(s.ev.is_none());
                s.seq = seq;
                s.ev = Some(event);
                slot
            }
            None => {
                let slot =
                    u32::try_from(self.slab.len()).expect("more than u32::MAX events pending");
                self.slab.push(Slot {
                    seq,
                    ev: Some(event),
                });
                slot
            }
        }
    }

    fn take(&mut self, slot: u32) -> E {
        let ev = self.slab[slot as usize].ev.take().expect("slot is live");
        self.free.push(slot);
        ev
    }

    /// Heap arity. A 4-ary layout halves the tree depth of the binary
    /// heap: pushes sift through half as many levels, pops touch half as
    /// many cache lines, and the four children of a node share one cache
    /// line of keys — a well-known discrete-event-queue win that needs no
    /// unsafe holes to beat `BinaryHeap`'s optimized binary sift.
    const D: usize = 4;

    /// Hole-based insertion: the new key rides a "hole" up the tree, so
    /// each level costs one parent move instead of a three-move swap.
    fn heap_push(&mut self, k: Key) {
        self.heap.push(k);
        let mut i = self.heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / Self::D;
            if self.heap[parent].rank() <= k.rank() {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = k;
    }

    /// Hole-based removal: the displaced last leaf rides a hole down from
    /// the root along the smallest-child path until it fits.
    fn heap_pop(&mut self) -> Option<Key> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("checked non-empty");
        let n = self.heap.len();
        if n > 0 {
            let last_rank = last.rank();
            let mut i = 0;
            loop {
                let first_child = Self::D * i + 1;
                if first_child >= n {
                    break;
                }
                let mut child = first_child;
                let mut child_rank = self.heap[child].rank();
                let fan_end = (first_child + Self::D).min(n);
                for c in first_child + 1..fan_end {
                    let r = self.heap[c].rank();
                    if r < child_rank {
                        child = c;
                        child_rank = r;
                    }
                }
                if last_rank <= child_rank {
                    break;
                }
                self.heap[i] = self.heap[child];
                i = child;
            }
            self.heap[i] = last;
        }
        Some(top)
    }
}

// ---------------------------------------------------------------------------
// The executable specification: the pre-optimization heap, verbatim, plus
// the obviously-correct form of cancellation (tombstones).
// ---------------------------------------------------------------------------

struct LegacyEntry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for LegacyEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for LegacyEntry<E> {}
impl<E> PartialOrd for LegacyEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for LegacyEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: the std max-heap must yield the smallest (time, seq).
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The engine's original event queue — `BinaryHeap` over whole entries —
/// kept as the reference implementation. The property tests drive it and
/// [`EventQueue`] through identical interleavings and require identical
/// pop sequences; the `perf` bench binary measures the speedup of the
/// indexed queue over this one. Not used by the engine.
///
/// Cancellation here is the textbook tombstone scheme: a cancelled
/// sequence number is remembered and skipped when it surfaces, with the
/// heap top scrubbed eagerly so `peek_at` and `len` stay truthful. Slow,
/// but self-evidently order-preserving — which is the point of a spec.
pub struct LegacyHeap<E> {
    heap: BinaryHeap<LegacyEntry<E>>,
    seq: u64,
    tombstones: BTreeSet<u64>,
}

impl<E> Default for LegacyHeap<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> LegacyHeap<E> {
    /// An empty queue.
    pub fn new() -> Self {
        LegacyHeap {
            heap: BinaryHeap::new(),
            seq: 0,
            tombstones: BTreeSet::new(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() - self.tombstones.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The instant of the next event to pop, if any. (The top is never a
    /// tombstone: cancel and pop scrub eagerly.)
    pub fn peek_at(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Insert `event` at instant `at`; FIFO among equal instants.
    pub fn push(&mut self, at: SimTime, event: E) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(LegacyEntry { at, seq, event });
        seq
    }

    /// Cancel the pending event with sequence number `seq`. Returns
    /// whether it was pending. Spec-grade: the pending check is an O(n)
    /// scan, so tests get precise answers for arbitrary (dead, duplicate,
    /// never-issued) sequence numbers.
    pub fn cancel(&mut self, seq: u64) -> bool {
        let pending = !self.tombstones.contains(&seq) && self.heap.iter().any(|e| e.seq == seq);
        if pending {
            self.tombstones.insert(seq);
            self.scrub_top();
        }
        pending
    }

    /// [`cancel`] without the O(n) pending scan, for benchmarking the
    /// tombstone mechanism itself: the caller guarantees `seq` is
    /// pending.
    ///
    /// [`cancel`]: LegacyHeap::cancel
    pub fn cancel_unchecked(&mut self, seq: u64) {
        debug_assert!(!self.tombstones.contains(&seq), "double cancel");
        self.tombstones.insert(seq);
        self.scrub_top();
    }

    /// Remove and return the earliest event as `(time, seq, event)`.
    pub fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        let e = self.heap.pop()?;
        debug_assert!(!self.tombstones.contains(&e.seq), "top was a tombstone");
        if !self.tombstones.is_empty() {
            self.scrub_top();
        }
        Some((e.at, e.seq, e.event))
    }

    /// Restore the invariant that the heap top is live.
    fn scrub_top(&mut self) {
        loop {
            let Some(seq) = self.heap.peek().map(|e| e.seq) else {
                return;
            };
            if !self.tombstones.remove(&seq) {
                return;
            }
            self.heap.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), "c");
        q.push(SimTime::from_nanos(10), "a1");
        q.push(SimTime::from_nanos(10), "a2");
        q.push(SimTime::from_nanos(20), "b");
        let mut out = Vec::new();
        while let Some((t, _, e)) = q.pop() {
            out.push((t.as_nanos(), e));
        }
        assert_eq!(out, vec![(10, "a1"), (10, "a2"), (20, "b"), (30, "c")]);
        assert!(q.is_empty());
    }

    #[test]
    fn same_instant_pushes_during_a_run_keep_fifo_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(5), 0u32);
        q.push(SimTime::from_nanos(5), 1);
        let first = q.pop().unwrap();
        assert_eq!((first.0.as_nanos(), first.2), (5, 0));
        // Mid-run push at the open instant: must land after the drained
        // run (higher seq), served from the lane.
        q.push(SimTime::from_nanos(5), 2);
        q.push(SimTime::from_nanos(7), 9);
        assert_eq!(q.pop().map(|(_, _, e)| e), Some(1));
        assert_eq!(q.pop().map(|(_, _, e)| e), Some(2));
        assert_eq!(q.pop().map(|(_, _, e)| e), Some(9));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_at_tracks_the_global_minimum() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_at(), None);
        q.push(SimTime::from_nanos(40), ());
        assert_eq!(q.peek_at(), Some(SimTime::from_nanos(40)));
        q.push(SimTime::from_nanos(15), ());
        assert_eq!(q.peek_at(), Some(SimTime::from_nanos(15)));
        q.pop();
        assert_eq!(q.peek_at(), Some(SimTime::from_nanos(40)));
    }

    #[test]
    fn far_future_events_pop_in_order_across_wheel_levels() {
        let mut q = EventQueue::new();
        // One event per wheel level, pushed out of order, plus a near one.
        let times = [
            1u64 << 40,
            5,
            1 << 8,
            1 << 14,
            1 << 20,
            1 << 26,
            1 << 32,
            u64::MAX,
        ];
        for &t in &times {
            q.push(SimTime::from_nanos(t), t);
        }
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        for want in sorted {
            let (t, _, e) = q.pop().unwrap();
            assert_eq!(t.as_nanos(), want);
            assert_eq!(e, want);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut q = EventQueue::new();
        for round in 0..10u64 {
            for i in 0..100 {
                q.push(SimTime::from_nanos(round * 1000 + i), i);
            }
            for _ in 0..100 {
                q.pop().unwrap();
            }
        }
        assert!(q.is_empty());
        assert!(
            q.slab.len() <= 100,
            "slab grew past the high-water mark: {}",
            q.slab.len()
        );
    }

    #[test]
    fn cancel_frees_the_slot_eagerly_and_skips_the_event() {
        let mut q = EventQueue::new();
        let a = q.push_handle(SimTime::from_nanos(10), "a");
        let b = q.push_handle(SimTime::from_nanos(20), "b");
        let c = q.push_handle(SimTime::from_nanos(1 << 30), "far");
        assert_eq!(q.len(), 3);
        assert_eq!(q.cancel(b), Some("b"));
        assert_eq!(q.len(), 2);
        // The slot is free *now*: a new push reuses it while b's stale key
        // still sits in the index, and the stale key must not resurrect it.
        let reused = q.push_handle(SimTime::from_nanos(30), "b2");
        assert_eq!(q.slab.iter().filter(|s| s.ev.is_some()).count(), 3);
        assert_eq!(q.cancel(b), None, "dead handle stays dead after reuse");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec!["a", "b2", "far"]);
        assert_eq!(q.cancel(a), None, "fired handle is dead");
        assert_eq!(q.cancel(c), None);
        assert_eq!(q.cancel(reused), None);
        assert_eq!(q.live_payloads(), 0);
    }

    #[test]
    fn cancel_works_in_every_lane() {
        let mut q = EventQueue::new();
        // Lane: open instant 5 by popping the first of two events there.
        q.push(SimTime::from_nanos(5), 0u32);
        let laned = q.push_handle(SimTime::from_nanos(5), 1);
        // Heap (near, same open bucket): instant 6.
        let heaped = q.push_handle(SimTime::from_nanos(6), 2);
        // Wheel: far future.
        let wheeled = q.push_handle(SimTime::from_nanos(1 << 20), 3);
        let survivor = q.push_handle(SimTime::from_nanos(1 << 21), 4);
        assert_eq!(q.pop().map(|(_, _, e)| e), Some(0));
        assert_eq!(q.cancel(laned), Some(1));
        assert_eq!(q.cancel(heaped), Some(2));
        assert_eq!(q.cancel(wheeled), Some(3));
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_at(), Some(SimTime::from_nanos(1 << 21)));
        assert_eq!(q.pop().map(|(_, _, e)| e), Some(4));
        assert_eq!(q.pop(), None);
        assert_eq!(q.live_payloads(), 0);
        let _ = survivor;
    }

    #[test]
    fn reschedule_moves_events_across_the_horizon_boundary() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(100), 0u32);
        // Far timer pulled near (decrease-key across the boundary).
        let far = q.push_handle(SimTime::from_nanos(1 << 30), 1);
        let near = q.reschedule(far, SimTime::from_nanos(50)).unwrap();
        assert_eq!(q.cancel(far), None, "old handle died on reschedule");
        // Near timer pushed far (increase-key across the boundary).
        let again = q.reschedule(near, SimTime::from_nanos(1 << 16)).unwrap();
        let order: Vec<_> =
            std::iter::from_fn(|| q.pop().map(|(t, _, e)| (t.as_nanos(), e))).collect();
        assert_eq!(order, vec![(100, 0), (1 << 16, 1)]);
        assert_eq!(q.cancel(again), None);
        assert_eq!(q.live_payloads(), 0);
    }

    /// A deterministic xorshift so the equivalence tests below can build
    /// large adversarial interleavings without proptest overhead.
    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    #[test]
    fn matches_legacy_heap_under_random_interleavings() {
        for seed in 1..=20u64 {
            let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut fast = EventQueue::new();
            let mut slow = LegacyHeap::new();
            let mut fast_out = Vec::new();
            let mut slow_out = Vec::new();
            for step in 0..2000 {
                let r = xorshift(&mut s);
                if r % 3 != 0 || fast.is_empty() {
                    // Push: mostly clustered times (forcing ties), with a
                    // dash of far-future (wheel territory) and deliberately
                    // *past* instants — the unchecked-scheduling corner the
                    // invariant checker exists for must order identically
                    // too.
                    let at = SimTime::from_nanos(match r % 16 {
                        0..=7 => (r >> 8) % 64,
                        8..=11 => (r >> 8) % 4096,
                        12..=13 => (r >> 8) % (1 << 30),
                        _ => (r >> 8) % 8,
                    });
                    let label = step as u32;
                    let sa = fast.push(at, label);
                    let sb = slow.push(at, label);
                    assert_eq!(sa, sb, "sequence numbering diverged");
                } else {
                    fast_out.push(fast.pop().map(|(t, q2, e)| (t.as_nanos(), q2, e)));
                    slow_out.push(slow.pop().map(|(t, q2, e)| (t.as_nanos(), q2, e)));
                }
                assert_eq!(fast.len(), slow.len());
                assert_eq!(fast.peek_at(), slow.peek_at());
            }
            while !slow.is_empty() {
                fast_out.push(fast.pop().map(|(t, q2, e)| (t.as_nanos(), q2, e)));
                slow_out.push(slow.pop().map(|(t, q2, e)| (t.as_nanos(), q2, e)));
            }
            assert_eq!(fast.pop(), None);
            assert_eq!(
                fast_out, slow_out,
                "seed {seed}: indexed queue diverged from the legacy heap"
            );
        }
    }

    #[test]
    fn matches_legacy_heap_under_cancel_and_reschedule_interleavings() {
        for seed in 1..=20u64 {
            let mut s = seed.wrapping_mul(0xA076_1D64_78BD_642F);
            let mut fast = EventQueue::new();
            let mut slow = LegacyHeap::new();
            let mut fast_out = Vec::new();
            let mut slow_out = Vec::new();
            // Every handle ever issued, live or dead: (handle, label).
            // Cancels and reschedules pick arbitrary entries, so dead
            // handles are exercised constantly.
            let mut issued: Vec<(TimerHandle, u32)> = Vec::new();
            let time = |r: u64| {
                SimTime::from_nanos(match r % 8 {
                    0..=2 => (r >> 9) % 64,
                    3..=4 => (r >> 9) % 4096,
                    5..=6 => (r >> 9) % (1 << 34),
                    _ => (r >> 9) % 8,
                })
            };
            for step in 0..3000u32 {
                let r = xorshift(&mut s);
                match r % 8 {
                    // Cancel an arbitrary previously-issued handle.
                    0 if !issued.is_empty() => {
                        let (h, _) = issued[(r >> 16) as usize % issued.len()];
                        let a = fast.cancel(h).is_some();
                        let b = slow.cancel(h.seq());
                        assert_eq!(a, b, "cancel liveness diverged");
                    }
                    // Reschedule an arbitrary handle to a fresh instant.
                    1 if !issued.is_empty() => {
                        let i = (r >> 16) as usize % issued.len();
                        let (h, label) = issued[i];
                        let at = time(xorshift(&mut s));
                        let a = fast.reschedule(h, at);
                        if slow.cancel(h.seq()) {
                            let sb = slow.push(at, label);
                            let na = a.expect("fast queue disagreed on liveness");
                            assert_eq!(na.seq(), sb, "reschedule seq diverged");
                            issued.push((na, label));
                        } else {
                            assert!(a.is_none(), "fast queue disagreed on liveness");
                        }
                    }
                    // Pop.
                    2 | 3 => {
                        fast_out.push(fast.pop().map(|(t, q2, e)| (t.as_nanos(), q2, e)));
                        slow_out.push(slow.pop().map(|(t, q2, e)| (t.as_nanos(), q2, e)));
                    }
                    // Push.
                    _ => {
                        let at = time(r);
                        let h = fast.push_handle(at, step);
                        let sb = slow.push(at, step);
                        assert_eq!(h.seq(), sb, "sequence numbering diverged");
                        issued.push((h, step));
                    }
                }
                assert_eq!(fast.len(), slow.len());
                assert_eq!(fast.peek_at(), slow.peek_at());
            }
            while !slow.is_empty() || !fast.is_empty() {
                fast_out.push(fast.pop().map(|(t, q2, e)| (t.as_nanos(), q2, e)));
                slow_out.push(slow.pop().map(|(t, q2, e)| (t.as_nanos(), q2, e)));
            }
            assert_eq!(
                fast_out, slow_out,
                "seed {seed}: indexed queue diverged from the legacy heap"
            );
            assert_eq!(fast.live_payloads(), 0, "seed {seed}: slab leaked");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// One step of the differential drive. Cancels and reschedules refer
    /// to previously-issued handles by index (modulo the issued count),
    /// so both live and dead handles get exercised.
    #[derive(Debug, Clone)]
    enum Op {
        Push(u64),
        Pop,
        Cancel(usize),
        Reschedule(usize, u64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // Times span the horizon boundary: same-instant ties, near-heap
        // range, and multi-level wheel territory.
        (0u64..10, 0u64..3, 0u64..(1 << 34), 0u64..(1 << 16)).prop_map(|(sel, band, t, idx)| {
            let at = match band {
                0 => t % 48,
                1 => t % 4096,
                _ => t,
            };
            match sel {
                0..=3 => Op::Push(at),
                4..=6 => Op::Pop,
                7 | 8 => Op::Cancel(idx as usize),
                _ => Op::Reschedule(idx as usize, at),
            }
        })
    }

    proptest! {
        /// The indexed queue and the legacy heap produce identical
        /// `(time, seq, event)` pop sequences — FIFO tie-breaks included —
        /// under seeded random event streams with interleaved pops.
        #[test]
        fn indexed_queue_is_pop_identical_to_legacy_heap(
            ops in proptest::collection::vec(
                // (is_push, time): small time range to force heavy ties.
                (any::<bool>(), 0u64..48),
                1..400,
            )
        ) {
            let mut fast = EventQueue::new();
            let mut slow = LegacyHeap::new();
            let mut fast_out = Vec::new();
            let mut slow_out = Vec::new();
            for (i, &(is_push, t)) in ops.iter().enumerate() {
                if is_push {
                    fast.push(SimTime::from_nanos(t), i);
                    slow.push(SimTime::from_nanos(t), i);
                } else {
                    fast_out.push(fast.pop());
                    slow_out.push(slow.pop());
                }
                prop_assert_eq!(fast.len(), slow.len());
            }
            loop {
                let (a, b) = (fast.pop(), slow.pop());
                let done = a.is_none() && b.is_none();
                fast_out.push(a);
                slow_out.push(b);
                if done { break; }
            }
            prop_assert_eq!(fast_out, slow_out);
        }

        /// Full three-lane differential: arbitrary interleavings of
        /// near/far/past pushes, pops, cancels and reschedules across the
        /// horizon boundary stay pop-identical to the tombstone spec —
        /// FIFO ties included — and never leak arena slots.
        #[test]
        fn wheel_lane_with_cancels_is_pop_identical_to_legacy_heap(
            ops in proptest::collection::vec(op_strategy(), 1..400)
        ) {
            let mut fast = EventQueue::new();
            let mut slow = LegacyHeap::new();
            let mut fast_out = Vec::new();
            let mut slow_out = Vec::new();
            let mut issued: Vec<(TimerHandle, usize)> = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                match *op {
                    Op::Push(t) => {
                        let h = fast.push_handle(SimTime::from_nanos(t), i);
                        let sb = slow.push(SimTime::from_nanos(t), i);
                        prop_assert_eq!(h.seq(), sb);
                        issued.push((h, i));
                    }
                    Op::Pop => {
                        fast_out.push(fast.pop());
                        slow_out.push(slow.pop());
                    }
                    Op::Cancel(raw) => {
                        if !issued.is_empty() {
                            let (h, _) = issued[raw % issued.len()];
                            prop_assert_eq!(
                                fast.cancel(h).is_some(),
                                slow.cancel(h.seq()),
                                "cancel liveness diverged"
                            );
                        }
                    }
                    Op::Reschedule(raw, t) => {
                        if !issued.is_empty() {
                            let (h, label) = issued[raw % issued.len()];
                            let at = SimTime::from_nanos(t);
                            let a = fast.reschedule(h, at);
                            if slow.cancel(h.seq()) {
                                let sb = slow.push(at, label);
                                let na = a.expect("liveness diverged");
                                prop_assert_eq!(na.seq(), sb);
                                issued.push((na, label));
                            } else {
                                prop_assert!(a.is_none(), "liveness diverged");
                            }
                        }
                    }
                }
                prop_assert_eq!(fast.len(), slow.len());
                prop_assert_eq!(fast.peek_at(), slow.peek_at());
            }
            loop {
                let (a, b) = (fast.pop(), slow.pop());
                let done = a.is_none() && b.is_none();
                fast_out.push(a);
                slow_out.push(b);
                if done { break; }
            }
            prop_assert_eq!(fast_out, slow_out);
            prop_assert_eq!(fast.live_payloads(), 0, "slab leaked");
        }
    }
}
