//! The engine's event queue: an indexed priority queue that is
//! bit-for-bit order-identical to the naive `BinaryHeap<(time, seq,
//! event)>` it replaced, but cheaper on the hot path — for the small
//! populations the models keep pending, and for the standing far-future
//! timer populations and cancel-heavy timeout traffic of retry-heavy runs.
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
//! # The traffic it serves
//!
//! Model runs keep few events pending: event streams recorded from all
//! five assemblies hold 3.5–12 on average and 24 at most on fig2-bimodal,
//! up to 38 at 1 M rps of 1 µs requests (offload, whose queue manager and
//! TX core keep one done event pending per queued item), and schedule no
//! cancellable timers. Most of their pushes land tens of nanoseconds to
//! microseconds ahead. Standing populations of far-future events come
//! only from client retries (one 200 µs timeout per in-flight request in
//! the resilience and recovery grids) and from the synthetic shapes of the
//! `perf` bench; those are what the timer wheel is for.
//!
//! [`EventQueue`] splits event storage from event ordering, and serves
//! ordering from a lane and one sorted key array, adding a wheel only past
//! a population bound:
//!
//! * **Slab arena with validated handles.** Events live in a free-list
//!   slab; they are written once on push and taken once on pop or cancel.
//!   Ordering work never touches them. Each slot remembers the insertion
//!   sequence number of its tenant, and a [`TimerHandle`] is `(slot,
//!   seq)`: since `seq` is globally unique for the life of the queue, a
//!   handle can be validated in O(1) forever — cancelling an already-fired
//!   timer, or a handle whose slot has been recycled, is a safe no-op
//!   rather than a use-after-free of someone else's event.
//! * **Same-instant lane.** Discrete-event models burst: a NIC hop fires,
//!   and a run of events lands at the *same* nanosecond (`schedule_now`
//!   chains, simultaneous ring slots). A pop that finds the lane empty
//!   re-targets it to the instant it opened, and later pushes at that
//!   instant append to the lane in O(1), bypassing the sorted array.
//! * **Near keys, one sorted array.** Every other pending key sits in a
//!   plain `Vec` of `Copy` keys `(at, seq, slot)`, sorted *descending* by
//!   `(at, seq)` so the minimum is the tail: a pop is a `Vec::pop`, and a
//!   push scans from the tail past the keys due before it and inserts
//!   there. For the handful of keys a model keeps pending that scan is
//!   shorter than a heap's sift, and a pop does no sift at all. While the
//!   wheel is idle the array takes keys at any distance, and a pop is one
//!   compare between the lane head and the array's tail.
//! * **Far wheel, past a population bound.** A push beyond the lane's
//!   64 ns bucket that arrives while the array already holds 44 keys (a
//!   private bound, above the 38 a model reaches with small frames; 1 KiB
//!   bodies at 1 M rps keep 75–85 pending and do cross it) engages a
//!   hierarchical timer wheel (the private `wheel` module): the queue
//!   opens the bucket of the lane's instant and moves the array's keys
//!   beyond it — a
//!   prefix, since the array is sorted — into the wheel, and from then on
//!   the array takes only keys inside the open bucket. When the lane and
//!   the array drain, the next occupied bucket is promoted into the array
//!   and sorted once. A standing backlog of 100k retransmit timers costs
//!   the hot path nothing — it is not in the array being searched. Once
//!   the wheel drains, the queue is back to lane and array.
//!
//! # Cancellation: eager payload free, lazy index removal
//!
//! [`EventQueue::cancel`] takes the payload out of the slab and recycles
//! the slot *immediately* — no lane ever holds a live payload hostage, so
//! slots cannot leak no matter where the index entry sits. The stale key
//! left behind in the array, lane or wheel is dropped lazily when it
//! surfaces (its `seq` no longer matches the slot's tenant). A global
//! count of outstanding stale keys keeps the no-cancellation fast path at
//! a single predictable branch. Once nothing live is pending, every key
//! left is stale, so the queue drops them all at once and leaves the
//! wheel idle.
//!
//! # Ordering contract
//!
//! Pops come out strictly in `(time, seq)` order — time order with FIFO
//! tie-breaking by insertion sequence. [`LegacyHeap`] keeps the original
//! `BinaryHeap` implementation alive as the executable specification: the
//! property tests below drive both queues through identical (and
//! adversarial — past-scheduled, far-future, cancel- and
//! reschedule-heavy, and bound-crossing) interleavings and demand
//! identical pop sequences, and the `perf` bench binary reports the
//! measured speedup of new over old on every shape.

use core::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

use crate::time::SimTime;
use crate::wheel::{Wheel, GRANULARITY};

/// Keys the near array may hold before a far push engages the wheel.
/// Model runs peak at 38 pending events (offload at 1 M rps of 1 µs
/// requests, 200 seeds); the smallest standing population of the `perf`
/// shapes is 64. A run that crosses the bound on some seeds and not on
/// others allocates the wheel's buckets on some seeds only, so the bound
/// keeps clear of both.
const WHEEL_BOUND: usize = 44;

/// A compact, `Copy` ordering key: everything an insert needs to move.
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

/// Which ordered stream holds the minimum pending key.
#[derive(Clone, Copy)]
enum Source {
    Lane,
    Near,
}

/// The engine's indexed event queue. Pops strictly in `(time, seq)`
/// order, where `seq` is the queue-assigned insertion number — i.e.
/// time order with FIFO tie-breaking, exactly like the legacy heap.
pub struct EventQueue<E> {
    /// Keys sorted strictly descending by `(at, seq)`, so the minimum
    /// pops off the tail. Takes keys at any distance while the wheel is
    /// idle, and only keys at or before `horizon` while it is engaged; a
    /// promoted wheel bucket lands here, sorted once.
    near: Vec<Key>,
    /// Payload arena; `Key::slot` indexes here.
    slab: Vec<Slot<E>>,
    /// Recycled slab slots.
    free: Vec<u32>,
    /// Same-instant lane: `(seq, slot)` pairs, all at `lane_at`, in
    /// strictly increasing `seq` order.
    lane: VecDeque<(u64, u32)>,
    /// The instant the lane serves. Pushes at exactly this time append to
    /// the lane instead of the near array. While the wheel is engaged it
    /// lies at or before `horizon`.
    lane_at: u64,
    /// Far-future lane: hierarchical timer wheel holding every pending
    /// key with `at > horizon` while engaged; empty while idle.
    wheel: Wheel,
    /// Start of the wheel's open level-0 bucket; a multiple of the wheel
    /// granularity. Meaningful only while the wheel is engaged, during
    /// which it never moves backwards.
    floor: u64,
    /// Last instant (inclusive) served by the lane and the near array:
    /// `floor + granularity - 1` while the wheel is engaged, unbounded
    /// while it is idle. Pushes at or before it go to the lane or the
    /// array; later pushes go to the wheel.
    horizon: u64,
    /// Cancelled index entries still resident in some lane. Kept global
    /// so the no-cancellation fast path pays one branch, not one handle
    /// validation per pop.
    stale: usize,
    /// Next insertion sequence number.
    seq: u64,
    /// Live events (pushed minus popped minus cancelled).
    len: usize,
    /// Times the wheel has engaged over the queue's life.
    engagements: u64,
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
            near: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            lane: VecDeque::new(),
            lane_at: 0,
            wheel: Wheel::new(),
            floor: 0,
            horizon: u64::MAX,
            stale: 0,
            seq: 0,
            len: 0,
            engagements: 0,
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

    /// How many times a far push past the population bound has engaged
    /// the timer wheel. Model-sized populations never do, so a model run
    /// that reads non-zero here has outgrown the near array.
    pub fn wheel_engagements(&self) -> u64 {
        self.engagements
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
    /// next wheel bucket (state motion, never order-visible).
    #[inline]
    pub fn peek_at(&mut self) -> Option<SimTime> {
        self.locate().map(|(_, at)| SimTime::from_nanos(at))
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
    #[inline]
    pub fn push_handle(&mut self, at: SimTime, event: E) -> TimerHandle {
        let seq = self.seq;
        self.seq += 1;
        let slot = self.alloc(seq, event);
        let key = Key {
            at: at.as_nanos(),
            seq,
            slot,
        };
        if key.at == self.lane_at {
            // Same instant as the lane: sequence numbers only grow, so
            // appending keeps the lane sorted. O(1).
            self.lane.push_back((seq, slot));
        } else if key.at > self.horizon {
            self.wheel.schedule_far(self.floor, key);
        } else if self.near.len() >= WHEEL_BOUND
            && self.wheel_idle()
            && key.at > self.lane_at | (GRANULARITY - 1)
        {
            self.engage_wheel();
            self.wheel.schedule_far(self.floor, key);
        } else {
            self.near_insert(key);
        }
        self.len += 1;
        TimerHandle { slot, seq }
    }

    /// Cancel a pending event, returning its payload, or `None` if the
    /// handle is no longer live (already fired, cancelled, or
    /// rescheduled). The arena slot is recycled immediately — cancellation
    /// never leaks storage — while the index entry left in the near array,
    /// lane or wheel is dropped lazily when it surfaces, or at once with
    /// every other stale entry when nothing live is left.
    pub fn cancel(&mut self, handle: TimerHandle) -> Option<E> {
        let slot = self.slab.get_mut(handle.slot as usize)?;
        if slot.seq != handle.seq {
            return None;
        }
        let ev = slot.ev.take()?;
        self.free.push(handle.slot);
        self.len -= 1;
        self.stale += 1;
        if self.len == 0 {
            self.sweep();
        }
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
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        self.pop_through(u64::MAX)
    }

    /// [`pop`], but only if the earliest event is due at or before
    /// `horizon`. Otherwise nothing is removed and `None` comes back, as it
    /// does on an empty queue; [`is_empty`] tells the two apart. A bounded
    /// run inspects the queue once per event this way, not twice.
    ///
    /// [`pop`]: EventQueue::pop
    /// [`is_empty`]: EventQueue::is_empty
    #[inline]
    pub fn pop_due(&mut self, horizon: SimTime) -> Option<(SimTime, u64, E)> {
        self.pop_through(horizon.as_nanos())
    }

    #[inline]
    fn pop_through(&mut self, limit: u64) -> Option<(SimTime, u64, E)> {
        let (source, at) = self.locate()?;
        if at > limit {
            return None;
        }
        self.len -= 1;
        let (seq, slot) = match source {
            Source::Lane => self.lane.pop_front().expect("lane holds the minimum"),
            Source::Near => {
                let k = self.near_pop().expect("near array holds the minimum");
                // A clean lane re-targets to the instant just opened, so
                // follow-up pushes at it skip the array. A non-empty lane
                // still holds an earlier-pushed, later instant (reachable
                // only through past-scheduled events, i.e. the invariant
                // checker's test hook) and keeps competing through the key
                // comparison.
                if self.lane.is_empty() {
                    self.lane_at = k.at;
                }
                (k.seq, k.slot)
            }
        };
        if self.stale != 0 && self.len == 0 {
            self.sweep();
        }
        Some((SimTime::from_nanos(at), seq, self.take(slot)))
    }

    /// True while the wheel holds no keys, so the lane and the near array
    /// hold every pending key.
    fn wheel_idle(&self) -> bool {
        self.wheel.count() == 0
    }

    /// Leave the wheel idle: an unbounded horizon routes every push to the
    /// lane or the near array.
    fn disengage(&mut self) {
        debug_assert!(self.wheel_idle());
        self.horizon = u64::MAX;
    }

    /// Nothing live is pending, so every index entry left is a cancelled
    /// one: drop them all and leave the wheel idle.
    #[cold]
    fn sweep(&mut self) {
        debug_assert_eq!(self.len, 0);
        self.lane.clear();
        self.near.clear();
        self.wheel.clear();
        self.stale = 0;
        self.disengage();
    }

    /// Insert `k` into the descending near array: scan from the tail past
    /// every key ranked below it. A fresh key carries the largest `seq`
    /// yet, so it lands after every key at its instant — FIFO ties need no
    /// extra case.
    #[inline]
    fn near_insert(&mut self, k: Key) {
        let mut i = self.near.len();
        while i > 0 && self.near[i - 1].rank() < k.rank() {
            i -= 1;
        }
        self.near.insert(i, k);
    }

    /// Pop the near array's tail, going idle once the wheel is empty.
    #[inline]
    fn near_pop(&mut self) -> Option<Key> {
        let k = self.near.pop();
        if self.wheel_idle() {
            self.disengage();
        }
        k
    }

    /// Where the minimum pending key sits, and its instant; `None` when
    /// nothing is pending. With nothing cancelled this is a compare between
    /// the lane head and the near array's tail.
    #[inline]
    fn locate(&mut self) -> Option<(Source, u64)> {
        if self.stale == 0 {
            if let Some((source, (at, _), _)) = self.head() {
                return Some((source, at));
            }
        }
        self.locate_slow()
    }

    /// The lower-ranked head of the lane and the near array, with its rank
    /// and slot. The two streams never share a `(time, seq)`.
    #[inline]
    fn head(&self) -> Option<(Source, (u64, u64), u32)> {
        let near = self.near.last().map(|k| (Source::Near, k.rank(), k.slot));
        match self.lane.front() {
            Some(&(seq, slot)) if near.map_or(true, |(_, r, _)| (self.lane_at, seq) < r) => {
                Some((Source::Lane, (self.lane_at, seq), slot))
            }
            _ => near,
        }
    }

    /// [`locate`](Self::locate) with cancelled keys outstanding or the
    /// lane and the near array both dry: drop cancelled keys as they reach
    /// the minimum, and promote wheel buckets while events remain.
    fn locate_slow(&mut self) -> Option<(Source, u64)> {
        // Index-entry conservation: every pending or cancelled-but-unswept
        // event sits in exactly one lane, and the near array is sorted.
        debug_assert_eq!(
            self.lane.len() + self.near.len() + self.wheel.count(),
            self.len + self.stale,
            "index entries out of conservation"
        );
        debug_assert!(
            self.near.windows(2).all(|w| w[0].rank() > w[1].rank()),
            "near array out of order"
        );
        if self.len == 0 {
            return None;
        }
        loop {
            let Some((source, (at, seq), slot)) = self.head() else {
                self.refill();
                continue;
            };
            // Validate the minimum — the entry the next pop would take.
            // Anything stale deeper in a lane is harmless until it becomes
            // the minimum itself.
            if self.stale == 0 || self.is_live(slot, seq) {
                return Some((source, at));
            }
            match source {
                Source::Lane => {
                    self.lane.pop_front();
                }
                Source::Near => {
                    self.near_pop();
                }
            }
            self.stale -= 1;
        }
    }

    /// Engage the wheel: open the bucket of the lane's instant and move the
    /// near array's keys beyond it into the wheel. They are a prefix, since
    /// the array is sorted descending. Every lane entry sits at the lane's
    /// instant, so the lane and the keys left in the array lie at or before
    /// the new horizon and every wheel key after it — the partition the
    /// minimum search relies on.
    #[cold]
    fn engage_wheel(&mut self) {
        self.engagements += 1;
        self.floor = self.lane_at & !(GRANULARITY - 1);
        self.horizon = self.floor | (GRANULARITY - 1);
        let far = self.near.partition_point(|k| k.at > self.horizon);
        for k in self.near.drain(..far) {
            self.wheel.schedule_far(self.floor, k);
        }
    }

    /// Promote the next occupied wheel bucket into the near array,
    /// advancing the floor/horizon and dropping cancelled entries on the
    /// way. One `sort_unstable` over the bucket replaces an insert per key.
    /// Runs only with the lane and the array dry and a live key in the
    /// wheel, and leaves the array non-empty.
    fn refill(&mut self) {
        debug_assert!(self.near.is_empty(), "refill with keys in the array");
        loop {
            let new_floor = self
                .wheel
                .open_next(self.floor, &mut self.near)
                .expect("a live key is filed in the wheel");
            debug_assert!(new_floor > self.floor || self.floor == 0);
            self.floor = new_floor;
            self.horizon = new_floor + (GRANULARITY - 1);
            let before = self.near.len();
            let slab = &self.slab;
            self.near.retain(|k| {
                slab[k.slot as usize].seq == k.seq && slab[k.slot as usize].ev.is_some()
            });
            self.stale -= before - self.near.len();
            if !self.near.is_empty() {
                self.near
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

    #[inline]
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

    #[inline]
    fn take(&mut self, slot: u32) -> E {
        let ev = self.slab[slot as usize].ev.take().expect("slot is live");
        self.free.push(slot);
        ev
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

    /// Engage the wheel at instant 0, so a test's far pushes land in it:
    /// one push past the bound moves the near array's far keys into the
    /// wheel. Then push the test's first event, `first` at `at`. The filler
    /// is cancelled after that and never pops; cancelling it on an
    /// otherwise empty queue would sweep it and leave the wheel idle.
    fn engage<E: Clone>(q: &mut EventQueue<E>, filler: E, at: u64, first: E) {
        let handles: Vec<_> = (0..=WHEEL_BOUND as u64)
            .map(|i| q.push_handle(SimTime::from_nanos((1 << 50) + i), filler.clone()))
            .collect();
        q.push(SimTime::from_nanos(at), first);
        for h in handles {
            q.cancel(h);
        }
        assert!(!q.wheel_idle());
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
        engage(&mut q, 0, times[0], times[0]);
        for &t in &times[1..] {
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
        // Near array (same open bucket): instant 6.
        engage(&mut q, 9, 5, 0u32);
        let neared = q.push_handle(SimTime::from_nanos(6), 2);
        // Wheel: far future.
        let wheeled = q.push_handle(SimTime::from_nanos(1 << 20), 3);
        let survivor = q.push_handle(SimTime::from_nanos(1 << 21), 4);
        // Lane: popping the event at 5 opens that instant.
        assert_eq!(q.pop().map(|(_, _, e)| e), Some(0));
        let laned = q.push_handle(SimTime::from_nanos(5), 1);
        assert_eq!((q.lane.len(), q.near.len()), (1, 1));
        assert_eq!(q.cancel(laned), Some(1));
        assert_eq!(q.cancel(neared), Some(2));
        assert_eq!(q.cancel(wheeled), Some(3));
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_at(), Some(SimTime::from_nanos(1 << 21)));
        assert_eq!(q.pop().map(|(_, _, e)| e), Some(4));
        assert_eq!(q.pop(), None);
        assert_eq!(q.live_payloads(), 0);
        let _ = survivor;
    }

    #[test]
    fn a_queue_left_with_only_cancelled_keys_goes_idle_at_once() {
        // By cancel: cancelling the last live event sweeps the wheel.
        let mut q = EventQueue::new();
        let handles: Vec<_> = (0..=WHEEL_BOUND as u64)
            .map(|i| q.push_handle(SimTime::from_nanos(1_000 + i), 0u32))
            .collect();
        assert!(!q.wheel_idle());
        for h in handles {
            q.cancel(h);
        }
        assert!(q.wheel_idle() && q.is_empty());
        assert_eq!((q.stale, q.lane.len(), q.near.len()), (0, 0, 0));
        // By pop: the last live event popped past cancelled far keys.
        engage(&mut q, 9, 5, 4);
        assert!(!q.wheel_idle());
        assert_eq!(q.pop().map(|(_, _, e)| e), Some(4));
        assert!(q.wheel_idle() && q.is_empty());
        assert_eq!(q.stale, 0);
        // Idle again: a far push goes to the near array.
        q.push(SimTime::from_nanos(1 << 40), 5);
        assert_eq!(q.near.len(), 1);
        assert_eq!(q.pop().map(|(_, _, e)| e), Some(5));
        assert_eq!(q.live_payloads(), 0);
    }

    #[test]
    fn reschedule_moves_events_across_the_horizon_boundary() {
        let mut q = EventQueue::new();
        engage(&mut q, 9, 100, 0u32);
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

    /// Drives the indexed queue and the legacy heap through the same
    /// operations, checking after each that they agree. Instants are
    /// derived from the latest one popped, the way a model schedules; the
    /// counts record how often the wheel engages and goes idle again.
    pub(super) struct Differential {
        fast: EventQueue<u32>,
        slow: LegacyHeap<u32>,
        /// Recent handles, live or dead: cancels and reschedules pick
        /// among them, so both kinds are exercised.
        issued: Vec<(TimerHandle, u32)>,
        now: u64,
        label: u32,
        pub(super) engaged: u32,
        pub(super) released: u32,
    }

    impl Differential {
        pub(super) fn new() -> Self {
            Differential {
                fast: EventQueue::new(),
                slow: LegacyHeap::new(),
                issued: Vec::new(),
                now: 0,
                label: 0,
                engaged: 0,
                released: 0,
            }
        }

        pub(super) fn len(&self) -> usize {
            self.slow.len()
        }

        /// An instant drawn from `r`: mostly the current one, inside its
        /// wheel bucket, or microseconds ahead (beyond it), with a dash of
        /// retry-timeout distances and of past-scheduled instants.
        pub(super) fn instant(&self, r: u64) -> SimTime {
            let x = r >> 8;
            SimTime::from_nanos(match r % 16 {
                0..=3 => self.now,
                4..=6 => self.now + x % GRANULARITY,
                7..=12 => self.now + GRANULARITY + x % 20_000,
                13 => self.now + x % 200_000,
                _ => self.now.saturating_sub(x % 300),
            })
        }

        fn handle(&self, raw: usize) -> Option<(TimerHandle, u32)> {
            let n = self.issued.len().min(64);
            (n > 0).then(|| self.issued[self.issued.len() - 1 - raw % n])
        }

        pub(super) fn push(&mut self, at: SimTime) {
            let idle = self.fast.wheel_idle();
            self.label += 1;
            let h = self.fast.push_handle(at, self.label);
            assert_eq!(h.seq(), self.slow.push(at, self.label), "seq diverged");
            self.issued.push((h, self.label));
            self.check(idle);
        }

        pub(super) fn pop(&mut self) {
            let idle = self.fast.wheel_idle();
            let got = self.fast.pop();
            assert_eq!(got, self.slow.pop(), "pop diverged");
            if let Some((at, _, _)) = got {
                self.now = at.as_nanos();
            }
            self.check(idle);
        }

        /// Pop only an event due within `ahead` of the current instant.
        pub(super) fn pop_due(&mut self, ahead: u64) {
            let idle = self.fast.wheel_idle();
            let horizon = SimTime::from_nanos(self.now + ahead);
            let got = self.fast.pop_due(horizon);
            let want = match self.slow.peek_at() {
                Some(at) if at <= horizon => self.slow.pop(),
                _ => None,
            };
            assert_eq!(got, want, "pop_due diverged");
            if let Some((at, _, _)) = got {
                self.now = at.as_nanos();
            }
            self.check(idle);
        }

        pub(super) fn cancel(&mut self, raw: usize) {
            let Some((h, _)) = self.handle(raw) else {
                return;
            };
            let idle = self.fast.wheel_idle();
            let live = self.fast.cancel(h).is_some();
            assert_eq!(live, self.slow.cancel(h.seq()), "cancel liveness diverged");
            self.check(idle);
        }

        pub(super) fn reschedule(&mut self, raw: usize, at: SimTime) {
            let Some((h, label)) = self.handle(raw) else {
                return;
            };
            let idle = self.fast.wheel_idle();
            let moved = self.fast.reschedule(h, at);
            if self.slow.cancel(h.seq()) {
                let seq = self.slow.push(at, label);
                let moved = moved.expect("reschedule liveness diverged");
                assert_eq!(moved.seq(), seq, "reschedule seq diverged");
                self.issued.push((moved, label));
            } else {
                assert!(moved.is_none(), "reschedule liveness diverged");
            }
            self.check(idle);
        }

        fn check(&mut self, was_idle: bool) {
            assert_eq!(self.fast.len(), self.slow.len(), "len diverged");
            assert_eq!(self.fast.peek_at(), self.slow.peek_at(), "peek diverged");
            match (was_idle, self.fast.wheel_idle()) {
                (true, false) => self.engaged += 1,
                (false, true) => self.released += 1,
                _ => {}
            }
        }

        /// Drain everything: with nothing live left, every cancelled key
        /// still filed in the wheel is dropped and the wheel goes idle.
        pub(super) fn quiet(&mut self) {
            while !self.slow.is_empty() {
                self.pop();
            }
            assert!(
                self.fast.wheel_idle(),
                "a drained queue left the wheel engaged"
            );
        }

        /// Drain both queues and check nothing leaked.
        pub(super) fn finish(mut self) {
            while !self.slow.is_empty() {
                self.pop();
            }
            assert_eq!(self.fast.pop(), None);
            assert_eq!(self.fast.live_payloads(), 0, "slab leaked");
        }
    }

    #[test]
    fn matches_legacy_heap_as_the_population_crosses_the_wheel_bound() {
        for seed in 1..=20u64 {
            let mut s = seed.wrapping_mul(0xD1B5_4A32_D192_ED03);
            let mut d = Differential::new();
            // Alternate between growing well past the bound and shrinking
            // to a model-sized population, or to nothing every other time.
            let (mut grow, mut target) = (true, 40);
            for _ in 0..4000 {
                let r = xorshift(&mut s);
                if grow && d.len() >= target {
                    grow = false;
                    target = if r % 2 == 0 {
                        0
                    } else {
                        (r >> 1) as usize % 24
                    };
                } else if !grow && d.len() <= target {
                    grow = true;
                    target = 40 + (r >> 1) as usize % 40;
                    if d.len() == 0 {
                        d.quiet();
                    }
                }
                let pushes = if grow { 6 } else { 2 };
                let op = (r >> 5) % 10;
                let r2 = xorshift(&mut s);
                if op < pushes {
                    d.push(d.instant(r2));
                } else {
                    match op % 4 {
                        0 => d.pop(),
                        1 => d.pop_due(r2 % 4096),
                        2 => d.cancel(r2 as usize),
                        _ => d.reschedule(r2 as usize, d.instant(r2 >> 3)),
                    }
                }
            }
            assert!(
                d.engaged > 1 && d.released > 1,
                "seed {seed}: bound crossed {} times up, {} down",
                d.engaged,
                d.released
            );
            d.finish();
        }
    }

    #[test]
    fn model_sized_populations_never_allocate_wheel_buckets() {
        // A model-like stream: at most 24 pending events, each pop
        // scheduling successors at the same instant, inside its bucket or
        // up to 50 µs ahead.
        let mut q = EventQueue::new();
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        q.push(SimTime::ZERO, 0u32);
        let mut peak = 0;
        for _ in 0..100_000 {
            let (at, _, e) = q.pop().expect("the stream never drains");
            let successors = if q.len() < 12 {
                2
            } else {
                1 + usize::from(q.len() < 23)
            };
            for _ in 0..successors {
                let r = xorshift(&mut s);
                let gap = match r % 4 {
                    0 => 0,
                    1 => r >> 8 & (GRANULARITY - 1),
                    _ => GRANULARITY + (r >> 8) % 50_000,
                };
                q.push(at + crate::time::SimDuration::from_nanos(gap), e);
            }
            peak = peak.max(q.len());
        }
        assert_eq!(peak, 24);
        assert!(q.wheel_idle());
        assert!(!q.wheel.is_allocated(), "model traffic reached the wheel");
    }

    #[test]
    fn a_far_push_past_the_bound_engages_the_wheel_until_it_drains() {
        let mut q = EventQueue::new();
        let far = |i: u64| SimTime::from_nanos(1_000 + i * 100);
        for i in 0..WHEEL_BOUND as u64 {
            q.push(far(i), i);
        }
        assert!(q.wheel_idle() && !q.wheel.is_allocated());
        // Inside the lane's bucket the near array just grows.
        q.push(SimTime::from_nanos(GRANULARITY - 1), 99);
        assert!(q.wheel_idle());
        q.push(far(WHEEL_BOUND as u64), WHEEL_BOUND as u64);
        assert!(
            !q.wheel_idle(),
            "a far push past the bound engages the wheel"
        );
        assert_eq!(q.near.len(), 1, "only the key inside the open bucket stays");
        assert_eq!(q.pop().map(|(_, _, e)| e), Some(99));
        for i in 0..=WHEEL_BOUND as u64 {
            assert_eq!(q.pop().map(|(t, _, e)| (t, e)), Some((far(i), i)));
        }
        assert!(q.wheel_idle() && q.is_empty());
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
        // Times span the horizon boundary: same-instant ties, near-array
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

    /// One step of the bound-crossing drive: bursts of pushes and of pops
    /// large enough to carry the population across the wheel bound in
    /// both directions. Draws feed [`Differential::instant`].
    #[derive(Debug, Clone)]
    enum Swing {
        Burst(u64, u64),
        Drain(u64),
        PopDue(u64),
        Cancel(usize),
        Reschedule(usize, u64),
        Quiet,
    }

    fn swing_strategy() -> impl Strategy<Value = Swing> {
        (0u64..9, 0u64..48, any::<u64>()).prop_map(|(sel, n, r)| match sel {
            0..=2 => Swing::Burst(n, r),
            3 | 4 => Swing::Drain(n),
            5 => Swing::PopDue(r % 4096),
            6 => Swing::Cancel(r as usize),
            7 => Swing::Reschedule(r as usize, r >> 7),
            _ => Swing::Quiet,
        })
    }

    proptest! {
        /// Populations swinging across the wheel bound, with cancels,
        /// reschedules and past-scheduled pushes, stay pop-identical to
        /// the legacy heap.
        #[test]
        fn bound_crossing_populations_are_pop_identical_to_legacy_heap(
            ops in proptest::collection::vec(swing_strategy(), 1..120)
        ) {
            let mut d = super::tests::Differential::new();
            for op in ops {
                match op {
                    Swing::Burst(n, mut r) => {
                        for _ in 0..n {
                            r = r.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
                            d.push(d.instant(r >> 3));
                        }
                    }
                    Swing::Drain(n) => {
                        for _ in 0..n {
                            d.pop();
                        }
                    }
                    Swing::PopDue(ahead) => d.pop_due(ahead),
                    Swing::Cancel(raw) => d.cancel(raw),
                    Swing::Reschedule(raw, r) => d.reschedule(raw, d.instant(r)),
                    Swing::Quiet => d.quiet(),
                }
            }
            d.finish();
        }

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
