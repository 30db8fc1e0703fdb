//! Policies built on the grown hook set: distributed FCFS (the dFCFS
//! side of the carvalhof simulator's `QueueDiscipline` split; its cFCFS
//! side is [`Fcfs`](crate::Fcfs)), feedback-driven SRPT,
//! earliest-deadline-first, and weighted-fair queueing across tenants
//! (after SuperNIC's per-tenant arbitration).
//!
//! Everything here is deterministic: ties break on arrival sequence
//! numbers, worker choices derive from request ids, and virtual time is
//! integer arithmetic.

use std::collections::{BinaryHeap, VecDeque};

use sim_core::{SimDuration, SimTime};

use crate::policy::{DepthStats, FeedbackEvent, Pick, PreemptDecision, RunningTask, SchedPolicy};
use crate::select::WorkerView;
use crate::task::Task;

/// The RSS-style hash the degraded dispatcher uses; dFCFS uses the same
/// function so "dFCFS" and "feedback loss" steer identically (§2.1's
/// d-FCFS is precisely NIC RSS spraying).
fn rss_home(req_id: u64, n: usize) -> usize {
    debug_assert!(n > 0);
    (req_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % n
}

/// Distributed FCFS (`dFCFS`): each request is hashed to a home worker at
/// admission (NIC RSS, §2.1) and only that worker may serve it. The
/// partitioned queues live inside the policy;
/// [`pick_next`](SchedPolicy::pick_next) dispatches the globally-oldest
/// request whose home worker is among the candidates.
#[derive(Debug)]
pub struct Dfcfs {
    queues: Vec<VecDeque<(u64, Task)>>,
    /// Workers the failure detector has taken out of the candidate set;
    /// their home traffic re-homes to the next live worker.
    down: Vec<bool>,
    seq: u64,
    queued: usize,
    depth: DepthStats,
}

impl Dfcfs {
    /// An empty dFCFS; the per-worker queues are sized by
    /// [`init`](SchedPolicy::init).
    pub fn new() -> Dfcfs {
        Dfcfs {
            queues: Vec::new(),
            down: Vec::new(),
            seq: 0,
            queued: 0,
            depth: DepthStats::new(),
        }
    }

    /// Where `home`'s traffic lands: `home` itself while it is live,
    /// otherwise the next live worker scanning upward (wrapping). With the
    /// whole fleet down the original home keeps the queue so nothing is
    /// lost.
    fn redirect(&self, home: usize) -> usize {
        let n = self.queues.len();
        if !self.down.get(home).copied().unwrap_or(false) {
            return home;
        }
        (1..n)
            .map(|d| (home + d) % n)
            .find(|&w| !self.down.get(w).copied().unwrap_or(false))
            .unwrap_or(home)
    }

    fn push(&mut self, now: SimTime, task: Task) {
        if self.queues.is_empty() {
            // Standalone use without init(): behave as one shared queue.
            self.queues.push(VecDeque::new());
        }
        let home = self.redirect(rss_home(task.req_id, self.queues.len()));
        let seq = self.seq;
        self.seq += 1;
        self.queues[home].push_back((seq, task));
        self.queued += 1;
        self.depth.set(now, self.queued);
    }

    fn pop_from(&mut self, now: SimTime, queue: usize) -> Option<Task> {
        let (_, t) = self.queues[queue].pop_front()?;
        self.queued -= 1;
        self.depth.set(now, self.queued);
        Some(t)
    }

    /// Index of the non-empty queue with the globally-earliest head, drawn
    /// from `allowed` (or all queues when `allowed` is `None`).
    fn earliest_head(&self, allowed: Option<&[WorkerView]>) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for (i, q) in self.queues.iter().enumerate() {
            if let Some(views) = allowed {
                if !views.iter().any(|v| v.worker == i) {
                    continue;
                }
            }
            if let Some(&(seq, _)) = q.front() {
                let better = match best {
                    None => true,
                    Some((s, _)) => seq < s,
                };
                if better {
                    best = Some((seq, i));
                }
            }
        }
        best.map(|(_, i)| i)
    }
}

impl Default for Dfcfs {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedPolicy for Dfcfs {
    fn init(&mut self, n_workers: usize) {
        assert!(self.queued == 0, "init() after enqueue would re-home tasks");
        self.queues = (0..n_workers.max(1)).map(|_| VecDeque::new()).collect();
        self.down = vec![false; self.queues.len()];
    }

    fn enqueue(&mut self, now: SimTime, task: Task) {
        self.push(now, task);
    }

    fn requeue(&mut self, now: SimTime, task: Task) {
        // Preempted work returns to the tail of its home queue; the hash
        // is stable in req_id so the home does not move.
        self.push(now, task);
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Task> {
        let q = self.earliest_head(None)?;
        self.pop_from(now, q)
    }

    fn pick_next(&mut self, now: SimTime, candidates: &[WorkerView]) -> Option<Pick> {
        // Only home queues of dispatchable workers may serve; a queued
        // request whose home worker is busy waits even if others idle —
        // the head-of-line blocking the paper pins on d-FCFS (§2.1).
        let q = self.earliest_head(Some(candidates))?;
        let t = self.pop_from(now, q)?;
        Some(Pick::on(t, q))
    }

    fn worker_down(&mut self, _now: SimTime, worker: usize) {
        if worker >= self.queues.len() {
            return;
        }
        if self.down.len() < self.queues.len() {
            self.down.resize(self.queues.len(), false);
        }
        self.down[worker] = true;
        // Re-home everything queued on the dead worker. Admission
        // sequence numbers travel with the tasks and each destination
        // queue stays seq-sorted, so global FIFO order survives the move.
        let orphans: Vec<(u64, Task)> = self.queues[worker].drain(..).collect();
        for (seq, task) in orphans {
            let dest = self.redirect(rss_home(task.req_id, self.queues.len()));
            let q = &mut self.queues[dest];
            let pos = q.partition_point(|&(s, _)| s < seq);
            q.insert(pos, (seq, task));
        }
    }

    fn worker_up(&mut self, _now: SimTime, worker: usize) {
        if let Some(d) = self.down.get_mut(worker) {
            // Re-homed tasks stay put; only new arrivals home here again.
            *d = false;
        }
    }

    // Explicitly no-op: d-FCFS homes by RSS hash at admission and learns
    // nothing from completions; liveness arrives via worker_down/up.
    fn feedback(&mut self, _now: SimTime, _event: &FeedbackEvent) {}

    fn len(&self) -> usize {
        self.queued
    }

    fn mean_depth(&self, now: SimTime) -> f64 {
        self.depth.tw.mean_until(now)
    }

    fn peak_depth(&self) -> usize {
        self.depth.peak
    }
}

/// Min-heap entry keyed on `(key, seq)` — smallest key first, FIFO within
/// equal keys.
#[derive(Debug)]
struct KeyedEntry {
    key: u64,
    seq: u64,
    task: Task,
}

impl PartialEq for KeyedEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl Eq for KeyedEntry {}
impl PartialOrd for KeyedEntry {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for KeyedEntry {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        // Reversed for BinaryHeap: smallest (key, seq) pops first.
        (other.key, other.seq).cmp(&(self.key, self.seq))
    }
}

#[derive(Debug)]
struct KeyedQueue {
    heap: BinaryHeap<KeyedEntry>,
    seq: u64,
    depth: DepthStats,
}

impl KeyedQueue {
    fn new() -> KeyedQueue {
        KeyedQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            depth: DepthStats::new(),
        }
    }

    fn push(&mut self, now: SimTime, key: u64, task: Task) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(KeyedEntry { key, seq, task });
        self.depth.set(now, self.heap.len());
    }

    fn pop(&mut self, now: SimTime) -> Option<Task> {
        let t = self.heap.pop().map(|e| e.task);
        if t.is_some() {
            self.depth.set(now, self.heap.len());
        }
        t
    }
}

/// Feedback-driven shortest-remaining-processing-time.
///
/// Unlike [`ShortestRemaining`](crate::ShortestRemaining), which trusts
/// the service hint the request carries, SRPT assumes the NIC cannot see
/// sizes up front and *learns* them from the feedback channel: completions
/// report true service times (an EWMA estimate orders fresh requests) and
/// preemptions report exact remaining work (which orders re-admitted
/// ones). It also owns preemption: once it has samples it grants each
/// dispatch a budget of `boost`% of the estimated mean, so oversized
/// requests bounce back quickly with their true remaining exposed.
#[derive(Debug)]
pub struct Srpt {
    queue: KeyedQueue,
    /// EWMA of completed service times, in nanoseconds.
    est_ns: u64,
    samples: u64,
    /// EWMA gain divisor: `est += (sample - est) / gain`.
    gain: u64,
    /// Slice budget as a percentage of the service estimate.
    boost: u64,
    /// Never grant a budget below this (guards against a tiny estimate
    /// causing preemption storms).
    floor: SimDuration,
    /// Samples left in the post-membership-change fast-relearn window:
    /// while non-zero the EWMA gain drops to 2 so the estimate re-tracks
    /// the surviving fleet's service times quickly.
    fast: u64,
}

/// How many completions [`Srpt`] weighs heavily after a membership change.
const SRPT_FAST_RELEARN_SAMPLES: u64 = 8;

impl Srpt {
    /// Default SRPT: gain 8, budget 200% of the estimate, 1 µs floor.
    pub fn new() -> Srpt {
        Srpt::with_params(8, 200, SimDuration::from_micros(1))
    }

    /// SRPT with explicit EWMA gain, budget percentage, and budget floor.
    pub fn with_params(gain: u64, boost: u64, floor: SimDuration) -> Srpt {
        Srpt {
            queue: KeyedQueue::new(),
            est_ns: 0,
            samples: 0,
            gain: gain.max(1),
            boost,
            floor,
            fast: 0,
        }
    }

    /// Current service-time estimate (zero until the first completion).
    pub fn estimate(&self) -> SimDuration {
        SimDuration::from_nanos(self.est_ns)
    }

    fn observe(&mut self, service: SimDuration) {
        let gain = if self.fast > 0 {
            self.fast -= 1;
            self.gain.min(2)
        } else {
            self.gain
        };
        let s = service.as_nanos();
        if self.samples == 0 {
            self.est_ns = s;
        } else if s >= self.est_ns {
            self.est_ns += (s - self.est_ns) / gain;
        } else {
            self.est_ns -= (self.est_ns - s) / gain;
        }
        self.samples += 1;
    }
}

impl Default for Srpt {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedPolicy for Srpt {
    fn enqueue(&mut self, now: SimTime, task: Task) {
        // Fresh request: size unknown, rank by the learned estimate. All
        // fresh requests share the key, so they run FIFO among themselves
        // but sort against preempted tasks' known remaining work.
        let key = self.est_ns;
        self.queue.push(now, key, task);
    }

    fn requeue(&mut self, now: SimTime, task: Task) {
        // Preempted request: remaining work is now known exactly.
        self.queue.push(now, task.remaining.as_nanos(), task);
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Task> {
        self.queue.pop(now)
    }

    fn feedback(&mut self, _now: SimTime, event: &FeedbackEvent) {
        if let FeedbackEvent::Completed { service, .. } = event {
            self.observe(*service);
        }
    }

    fn should_preempt(&mut self, _now: SimTime, _running: &RunningTask<'_>) -> PreemptDecision {
        if self.samples == 0 {
            return PreemptDecision::Inherit;
        }
        let budget = SimDuration::from_nanos(self.est_ns / 100 * self.boost);
        PreemptDecision::Budget(budget.max(self.floor))
    }

    fn worker_down(&mut self, _now: SimTime, _worker: usize) {
        // The learned size distribution reflects the old fleet; weigh the
        // next completions heavily so the estimate re-tracks the
        // survivors (who now absorb the reclaimed load) quickly.
        self.fast = SRPT_FAST_RELEARN_SAMPLES;
    }

    fn worker_up(&mut self, _now: SimTime, _worker: usize) {
        // Readmission changes capacity just like suspicion did.
        self.fast = SRPT_FAST_RELEARN_SAMPLES;
    }

    fn len(&self) -> usize {
        self.queue.heap.len()
    }

    fn mean_depth(&self, now: SimTime) -> f64 {
        self.queue.depth.tw.mean_until(now)
    }

    fn peak_depth(&self) -> usize {
        self.queue.depth.peak
    }
}

/// Earliest-deadline-first. Every request's deadline is a pure function of
/// its immutable fields — `arrived_at + deadline + service × stretch` —
/// so a preempted request keeps its original deadline when re-admitted.
#[derive(Debug)]
pub struct Edf {
    queue: KeyedQueue,
    /// Relative deadline granted to every request on arrival.
    deadline: SimDuration,
    /// Extra slack per unit of service: deadline += service × stretch.
    stretch: u64,
}

impl Edf {
    /// EDF with the given relative deadline and no service stretch.
    pub fn new(deadline: SimDuration) -> Edf {
        Edf::with_stretch(deadline, 0)
    }

    /// EDF whose deadlines also scale with request size.
    pub fn with_stretch(deadline: SimDuration, stretch: u64) -> Edf {
        Edf {
            queue: KeyedQueue::new(),
            deadline,
            stretch,
        }
    }

    fn absolute_deadline(&self, task: &Task) -> u64 {
        task.arrived_at.as_nanos()
            + self.deadline.as_nanos()
            + task.service.as_nanos() * self.stretch
    }
}

impl SchedPolicy for Edf {
    fn enqueue(&mut self, now: SimTime, task: Task) {
        let d = self.absolute_deadline(&task);
        self.queue.push(now, d, task);
    }

    fn requeue(&mut self, now: SimTime, task: Task) {
        // arrived_at and service survive preemption, so this recomputes
        // the same deadline the request was admitted with.
        let d = self.absolute_deadline(&task);
        self.queue.push(now, d, task);
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Task> {
        self.queue.pop(now)
    }

    fn len(&self) -> usize {
        self.queue.heap.len()
    }

    fn mean_depth(&self, now: SimTime) -> f64 {
        self.queue.depth.tw.mean_until(now)
    }

    fn peak_depth(&self) -> usize {
        self.queue.depth.peak
    }

    // Failure hooks, explicitly no-ops: deadlines are computed from
    // admission time alone, never per worker; reclaimed requests re-enter
    // through `requeue` and recompute the same deadline.
    fn worker_down(&mut self, _now: SimTime, _worker: usize) {}
    fn worker_up(&mut self, _now: SimTime, _worker: usize) {}
    fn feedback(&mut self, _now: SimTime, _event: &FeedbackEvent) {}
}

/// Virtual-time precision multiplier for [`WeightedFair`].
const WFQ_SCALE: u128 = 1024;

/// Weighted-fair queueing across tenant lanes (SuperNIC-style per-tenant
/// arbitration). Requests hash onto `weights.len()` lanes by
/// `(client_id + req_id) % lanes` (the workload generator uses a single
/// client id, so req_id striping stands in for tenancy); each lane is a
/// FIFO charged virtual time inversely proportional to its weight.
#[derive(Debug)]
pub struct WeightedFair {
    lanes: Vec<VecDeque<Task>>,
    weights: Vec<u64>,
    /// Virtual finish time of each lane's head request.
    finish: Vec<u128>,
    vtime: u128,
    queued: usize,
    depth: DepthStats,
}

impl WeightedFair {
    /// WFQ over `weights.len()` lanes, each weight at least 1 (as a
    /// [`LaneWeights`](crate::LaneWeights) guarantees).
    pub fn new(weights: Vec<u64>) -> WeightedFair {
        let weights = if weights.is_empty() { vec![1] } else { weights };
        let n = weights.len();
        WeightedFair {
            lanes: (0..n).map(|_| VecDeque::new()).collect(),
            weights,
            finish: vec![0; n],
            vtime: 0,
            queued: 0,
            depth: DepthStats::new(),
        }
    }

    fn lane_of(&self, task: &Task) -> usize {
        ((task.client_id as u64 + task.req_id) % self.lanes.len() as u64) as usize
    }

    fn charge(&self, lane: usize, task: &Task) -> u128 {
        task.remaining.as_nanos() as u128 * WFQ_SCALE / self.weights[lane] as u128
    }

    fn push(&mut self, now: SimTime, task: Task) {
        let lane = self.lane_of(&task);
        if self.lanes[lane].is_empty() {
            // Lane becomes backlogged: its head finishes one weighted
            // charge past the later of now-in-virtual-time and its own
            // previous finish (the standard WFQ start-time rule).
            let start = self.vtime.max(self.finish[lane]);
            self.finish[lane] = start + self.charge(lane, &task);
        }
        self.lanes[lane].push_back(task);
        self.queued += 1;
        self.depth.set(now, self.queued);
    }

    /// Fairness is epoch-scoped to the worker membership: when the
    /// failure detector changes the fleet, accumulated cross-tenant
    /// virtual lead no longer reflects real capacity. Re-tag every
    /// backlogged head one weighted charge past the current virtual time
    /// so post-change arbitration restarts from the weights alone —
    /// reclaimed re-dispatches then compete on weight, not on stale
    /// credit earned against the old fleet.
    fn rebase(&mut self) {
        for lane in 0..self.lanes.len() {
            if let Some(head) = self.lanes[lane].front().copied() {
                self.finish[lane] = self.vtime + self.charge(lane, &head);
            }
        }
    }
}

impl SchedPolicy for WeightedFair {
    fn enqueue(&mut self, now: SimTime, task: Task) {
        self.push(now, task);
    }

    fn requeue(&mut self, now: SimTime, task: Task) {
        self.push(now, task);
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Task> {
        // Serve the backlogged lane with the earliest virtual finish;
        // ties break on lane index.
        let lane = (0..self.lanes.len())
            .filter(|&i| !self.lanes[i].is_empty())
            .min_by_key(|&i| (self.finish[i], i))?;
        let task = self.lanes[lane]
            .pop_front()
            .expect("lane checked non-empty");
        self.vtime = self.finish[lane];
        if let Some(next) = self.lanes[lane].front() {
            let next = *next;
            self.finish[lane] += self.charge(lane, &next);
        }
        self.queued -= 1;
        self.depth.set(now, self.queued);
        Some(task)
    }

    fn worker_down(&mut self, _now: SimTime, _worker: usize) {
        self.rebase();
    }

    fn worker_up(&mut self, _now: SimTime, _worker: usize) {
        self.rebase();
    }

    // Explicitly no-op: lane weights are static configuration; WFQ takes
    // no signal from completions (contrast Srpt, which learns sizes).
    fn feedback(&mut self, _now: SimTime, _event: &FeedbackEvent) {}

    fn len(&self) -> usize {
        self.queued
    }

    fn mean_depth(&self, now: SimTime) -> f64 {
        self.depth.tw.mean_until(now)
    }

    fn peak_depth(&self) -> usize {
        self.depth.peak
    }
}

/// Exhaustively drain a policy via `dequeue`, for tests.
#[cfg(test)]
fn drain(q: &mut dyn SchedPolicy, now: SimTime) -> Vec<u64> {
    std::iter::from_fn(|| q.dequeue(now).map(|t| t.req_id)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(id: u64, service_us: u64) -> Task {
        Task::new(
            id,
            0,
            SimDuration::from_micros(service_us),
            SimTime::ZERO,
            SimTime::ZERO,
            0,
        )
    }

    fn arrived(id: u64, service_us: u64, at_us: u64) -> Task {
        Task::new(
            id,
            0,
            SimDuration::from_micros(service_us),
            SimTime::ZERO,
            SimTime::from_micros(at_us),
            0,
        )
    }

    fn us(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    fn view(worker: usize) -> WorkerView {
        WorkerView {
            worker,
            outstanding: 0,
            last_req: None,
            idle_since: Some(SimTime::ZERO),
            health: crate::WorkerHealth::Healthy,
        }
    }

    #[test]
    fn dfcfs_binds_to_home_workers() {
        let mut q = Dfcfs::new();
        q.init(4);
        for id in 0..16 {
            q.enqueue(us(0), task(id, 5));
        }
        // Every pick must go to the task's RSS home.
        let views: Vec<WorkerView> = (0..4).map(view).collect();
        for _ in 0..16 {
            let p = q.pick_next(us(1), &views).expect("queue non-empty");
            assert_eq!(p.worker, Some(rss_home(p.task.req_id, 4)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn dfcfs_blocks_when_home_worker_is_busy() {
        let mut q = Dfcfs::new();
        q.init(4);
        let t = task(7, 5);
        let home = rss_home(7, 4);
        q.enqueue(us(0), t);
        let others: Vec<WorkerView> = (0..4).filter(|&w| w != home).map(view).collect();
        assert!(
            q.pick_next(us(1), &others).is_none(),
            "head-of-line blocking: only the home worker may serve"
        );
        assert_eq!(q.len(), 1);
        assert_eq!(
            q.pick_next(us(1), &[view(home)]).unwrap().worker,
            Some(home)
        );
    }

    #[test]
    fn dfcfs_serves_globally_oldest_among_candidates() {
        let mut q = Dfcfs::new();
        q.init(2);
        // Find ids homed to each worker.
        let id0 = (0..100).find(|&i| rss_home(i, 2) == 0).unwrap();
        let id1 = (0..100).find(|&i| rss_home(i, 2) == 1).unwrap();
        q.enqueue(us(0), task(id1, 5)); // oldest, homed to 1
        q.enqueue(us(0), task(id0, 5));
        let views = [view(0), view(1)];
        let p = q.pick_next(us(1), &views).unwrap();
        assert_eq!(p.task.req_id, id1, "oldest admission dispatches first");
    }

    #[test]
    fn srpt_learns_sizes_from_feedback() {
        let mut q = Srpt::new();
        assert_eq!(q.estimate(), SimDuration::ZERO);
        q.feedback(
            us(0),
            &FeedbackEvent::Completed {
                worker: 0,
                req_id: 1,
                service: SimDuration::from_micros(8),
            },
        );
        assert_eq!(
            q.estimate(),
            SimDuration::from_micros(8),
            "first sample seeds"
        );
        q.feedback(
            us(0),
            &FeedbackEvent::Completed {
                worker: 0,
                req_id: 2,
                service: SimDuration::from_micros(16),
            },
        );
        // est += (16 - 8) / 8 = 1us.
        assert_eq!(q.estimate(), SimDuration::from_micros(9));
    }

    #[test]
    fn srpt_ranks_preempted_remaining_against_estimate() {
        let mut q = Srpt::new();
        q.feedback(
            us(0),
            &FeedbackEvent::Completed {
                worker: 0,
                req_id: 99,
                service: SimDuration::from_micros(10),
            },
        );
        // Preempted task with 2us left beats fresh tasks (estimated 10us);
        // preempted with 50us left loses to them.
        let nearly_done = task(1, 52).after_preemption(SimDuration::from_micros(50));
        let long_tail = task(2, 60).after_preemption(SimDuration::from_micros(10));
        q.requeue(us(0), nearly_done);
        q.requeue(us(0), long_tail);
        q.enqueue(us(0), task(3, 10));
        assert_eq!(drain(&mut q, us(1)), vec![1, 3, 2]);
    }

    #[test]
    fn srpt_grants_budgets_once_informed() {
        let mut q = Srpt::new();
        let t = task(1, 100);
        let r = RunningTask {
            worker: 0,
            task: &t,
        };
        assert_eq!(
            q.should_preempt(us(0), &r),
            PreemptDecision::Inherit,
            "no samples yet: defer to the configured slice"
        );
        q.feedback(
            us(0),
            &FeedbackEvent::Completed {
                worker: 0,
                req_id: 9,
                service: SimDuration::from_micros(5),
            },
        );
        // Budget = 200% of the 5us estimate.
        assert_eq!(
            q.should_preempt(us(0), &r),
            PreemptDecision::Budget(SimDuration::from_micros(10))
        );
    }

    #[test]
    fn srpt_budget_floor_holds() {
        let mut q = Srpt::new();
        q.feedback(
            us(0),
            &FeedbackEvent::Completed {
                worker: 0,
                req_id: 9,
                service: SimDuration::from_nanos(100),
            },
        );
        let t = task(1, 100);
        let r = RunningTask {
            worker: 0,
            task: &t,
        };
        assert_eq!(
            q.should_preempt(us(0), &r),
            PreemptDecision::Budget(SimDuration::from_micros(1)),
            "floor guards against preemption storms"
        );
    }

    #[test]
    fn edf_orders_by_deadline_and_keeps_it_across_requeue() {
        let mut q = Edf::new(SimDuration::from_micros(50));
        q.enqueue(us(30), arrived(1, 5, 30)); // deadline 80
        q.enqueue(us(31), arrived(2, 5, 10)); // deadline 60 (older arrival)
        assert_eq!(drain(&mut q, us(32)), vec![2, 1]);

        // A preempted request re-enters with its original deadline.
        let preempted = arrived(3, 20, 0).after_preemption(SimDuration::from_micros(10));
        q.requeue(us(40), preempted); // deadline 50, beats both above
        q.enqueue(us(40), arrived(4, 5, 25)); // deadline 75
        assert_eq!(drain(&mut q, us(41)), vec![3, 4]);
    }

    #[test]
    fn wfq_shares_by_weight() {
        // Two lanes, 3:1. Lane of id = (0 + id) % 2.
        let mut q = WeightedFair::new(vec![3, 1]);
        for id in 0..12 {
            q.enqueue(us(0), task(id, 10));
        }
        let order = drain(&mut q, us(1));
        // In any prefix, the weight-3 lane (even ids) should lead ~3:1.
        let first8: Vec<u64> = order.iter().take(8).copied().collect();
        let evens = first8.iter().filter(|id| *id % 2 == 0).count();
        assert!(evens >= 5, "weight-3 lane dominates early: {order:?}");
        // Everything drains exactly once.
        let mut all = order.clone();
        all.sort_unstable();
        assert_eq!(all, (0..12).collect::<Vec<u64>>());
    }

    #[test]
    fn wfq_equal_weights_interleave() {
        let mut q = WeightedFair::new(vec![1, 1]);
        for id in 0..6 {
            q.enqueue(us(0), task(id, 10));
        }
        let order = drain(&mut q, us(1));
        // Equal weights, equal sizes: strict alternation.
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn dfcfs_rehomes_queued_and_future_work_on_worker_down() {
        let mut q = Dfcfs::new();
        q.init(4);
        let homed2 = (0..100).find(|&i| rss_home(i, 4) == 2).unwrap();
        let homed2b = (homed2 + 1..200).find(|&i| rss_home(i, 4) == 2).unwrap();
        q.enqueue(us(0), task(homed2, 5));
        q.worker_down(us(1), 2);
        // Queued work moved to the next live worker and serves there.
        let views: Vec<WorkerView> = [0, 1, 3].into_iter().map(view).collect();
        let p = q
            .pick_next(us(2), &views)
            .expect("re-homed task dispatchable");
        assert_eq!(p.task.req_id, homed2);
        assert_eq!(p.worker, Some(3), "next live worker after 2");
        // New arrivals for the dead home redirect too.
        q.enqueue(us(3), task(homed2b, 5));
        let p = q.pick_next(us(4), &views).unwrap();
        assert_eq!(p.worker, Some(3));
        // After readmission, fresh arrivals home to 2 again.
        q.worker_up(us(5), 2);
        q.enqueue(us(6), task(homed2, 5));
        let p = q.pick_next(us(7), &[view(2)]).unwrap();
        assert_eq!(p.worker, Some(2));
    }

    #[test]
    fn dfcfs_rehoming_preserves_global_fifo() {
        let mut q = Dfcfs::new();
        q.init(4);
        let homed2 = (0..100).find(|&i| rss_home(i, 4) == 2).unwrap();
        let homed3 = (0..100).find(|&i| rss_home(i, 4) == 3).unwrap();
        q.enqueue(us(0), task(homed2, 5)); // admitted first
        q.enqueue(us(0), task(homed3, 5));
        q.worker_down(us(1), 2);
        // Both now serve on worker 3; admission order must hold.
        let order: Vec<u64> = (0..2)
            .map(|_| q.pick_next(us(2), &[view(3)]).unwrap().task.req_id)
            .collect();
        assert_eq!(order, vec![homed2, homed3]);
    }

    #[test]
    fn srpt_relearns_fast_after_membership_change() {
        let done = |id: u64, service_us: u64| FeedbackEvent::Completed {
            worker: 0,
            req_id: id,
            service: SimDuration::from_micros(service_us),
        };
        let mut slow = Srpt::new();
        let mut fast = Srpt::new();
        for q in [&mut slow, &mut fast] {
            q.feedback(us(0), &done(1, 80));
        }
        fast.worker_down(us(1), 0);
        for q in [&mut slow, &mut fast] {
            q.feedback(us(2), &done(2, 8));
        }
        // Steady gain 8: 80 - 72/8 = 71us. Fast-relearn gain 2: 80 - 72/2.
        assert_eq!(slow.estimate(), SimDuration::from_micros(71));
        assert_eq!(fast.estimate(), SimDuration::from_micros(44));
    }

    #[test]
    fn wfq_membership_change_rebases_virtual_time() {
        // Weights 3:1; even ids land on lane 0, odd on lane 1.
        let mut plain = WeightedFair::new(vec![3, 1]);
        let mut rebased = WeightedFair::new(vec![3, 1]);
        for q in [&mut plain, &mut rebased] {
            for id in 0..7 {
                q.enqueue(us(0), task(id, 10));
            }
            for _ in 0..3 {
                q.dequeue(us(1));
            }
        }
        // Without a membership change the low-weight lane's head is next
        // (its finish tag predates lane 0's accumulated charges); after
        // rebase both heads restart from vtime and weight 3 leads again.
        assert_eq!(plain.dequeue(us(2)).unwrap().req_id % 2, 1);
        rebased.worker_down(us(2), 0);
        assert_eq!(rebased.dequeue(us(2)).unwrap().req_id % 2, 0);
    }

    #[test]
    fn disciplines_conserve_work() {
        for spec in ["dfcfs", "srpt", "edf:deadline=50us", "wfq:w=4,1,1"] {
            let mut p = crate::PolicySpec::parse(spec).unwrap().build();
            p.init(4);
            for id in 0..40 {
                p.enqueue(us(id), task(id, 1 + id % 7));
            }
            let mut out = drain(p.as_mut(), us(100));
            out.sort_unstable();
            assert_eq!(out, (0..40).collect::<Vec<u64>>(), "{spec}");
            assert!(p.is_empty());
            assert_eq!(p.peak_depth(), 40);
        }
    }
}
