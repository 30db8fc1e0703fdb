//! The centralized, preemptive dispatcher — placement-independent.
//!
//! This is the logic the paper moves between silicon: request queuing,
//! request selection, core selection, and the outstanding-requests cap of
//! the queuing optimization (§3.4.5). `systems::shinjuku` runs it on a
//! host core behind shared-memory queues; `systems::offload` runs it on
//! the SmartNIC ARM cores behind packet I/O, and, with
//! [`NicProfile::ideal`](crate::NicProfile::ideal) as its profile, in a
//! line-rate ASIC model. Both embed it through one wrapper,
//! `systems::common::DispatchCore`, which also holds the recovery setting,
//! the staleness governor and the liveness tick, so the scheduling
//! *semantics* are identical — which is precisely the
//! paper's claim that only the placement and the feedback path change.
//! `systems::rpcvalet` embeds it directly as a hardware queue.
//!
//! The dispatcher is a pure decision structure: embeddings feed it
//! arrivals and worker feedback, it returns [`Assignment`]s; the embedding
//! charges compute time and transport latency for each decision.
//!
//! Policy hooks: each dispatch goes through the policy's
//! [`pick_next`](SchedPolicy::pick_next) (which may bind a worker) and
//! [`should_preempt`](SchedPolicy::should_preempt) (whose grant is stamped
//! on the assigned task); completions and preemptions are mirrored to
//! [`feedback`](SchedPolicy::feedback).
//!
//! # Failure recovery
//!
//! With [`enable_recovery`](Dispatcher::enable_recovery) the dispatcher
//! runs a [`HealthTracker`] over its workers: every completion, preemption
//! notice, or heartbeat renews the worker's lease, and
//! [`check_health`](Dispatcher::check_health) (driven by the embedding's
//! periodic event) suspects workers whose lease expired while they held
//! outstanding work. A suspected worker's in-flight requests are
//! *reclaimed*: released from its outstanding count, re-queued through the
//! policy, and re-dispatched to healthy workers — instead of stranding
//! until the client-side retry timeout. Exactly-once accounting handles
//! the false positive: if the suspect was merely slow and later reports a
//! completion (or preemption) for a reclaimed request, the stale report is
//! absorbed into the recovery ledger ([`DispatchStats::late_duplicates`])
//! without double-completing, and the worker is readmitted.

use std::collections::BTreeMap;

use sim_core::{IdTable, SimDuration, SimTime};

use crate::policy::{FeedbackEvent, RunningTask, SchedPolicy};
use crate::recovery::{HealthTracker, RecoveryPolicy};
use crate::select::{CoreSelector, WorkerView};
use crate::task::Task;

/// A dispatch decision: send `task` to `worker`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Assignment {
    /// Target worker index.
    pub worker: usize,
    /// The request to run (its [`Task::preempt`] carries the policy's
    /// slice grant for this dispatch).
    pub task: Task,
}

/// Counters the embeddings export into run metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct DispatchStats {
    /// New requests admitted to the queue.
    pub admitted: u64,
    /// Assignments issued.
    pub assigned: u64,
    /// Completions processed.
    pub completions: u64,
    /// Preemption notifications processed (tasks re-queued).
    pub requeued: u64,
    /// In-flight requests reclaimed from suspected workers and re-queued
    /// for re-dispatch (also counted in `requeued`).
    pub recovered: u64,
    /// Late done/preempt reports from a worker a request was already
    /// reclaimed from, absorbed by the exactly-once filter.
    pub late_duplicates: u64,
}

/// A dispatched request the dispatcher is still waiting on: which worker
/// owns it and the task as last dispatched (so a reclaim can re-queue it
/// and a completion can report the true service to the policy — the
/// wire's Done frame does not carry the service time back).
#[derive(Clone, Copy, Debug)]
struct InFlight {
    worker: usize,
    task: Task,
}

/// The centralized dispatcher state machine.
///
/// # Example
///
/// ```
/// use nicsched::{Dispatcher, Fcfs, LeastOutstanding, Task};
/// use sim_core::{SimDuration, SimTime};
///
/// // Two workers, up to two outstanding requests each (§3.4.5).
/// let mut d = Dispatcher::new(2, 2, Fcfs::new(), LeastOutstanding);
/// let t0 = SimTime::ZERO;
/// let task = Task::new(1, 0, SimDuration::from_micros(5), t0, t0, 64);
///
/// let assignments = d.on_request(t0, task);
/// assert_eq!(assignments.len(), 1);
/// let a = assignments[0];
///
/// // The worker finishes; the dispatcher is ready for more.
/// let next = d.on_done(SimTime::from_micros(10), a.worker, a.task.req_id);
/// assert!(next.is_empty());
/// assert_eq!(d.total_outstanding(), 0);
/// ```
#[derive(Debug)]
pub struct Dispatcher<P, S> {
    policy: P,
    selector: S,
    // Requests outstanding at each worker, as the dispatcher believes.
    outstanding: Vec<u32>,
    outstanding_cap: u32,
    // Stale-feedback fallback: when set, worker selection ignores the
    // configured selector and hashes the request id RSS-style, because the
    // informed state it would steer on is known to be dead.
    degraded: bool,
    // Workers quarantined from selection (crashed or silent too long).
    excluded: Vec<bool>,
    // Every dispatched request the dispatcher is waiting on, keyed by
    // request id; iterates in id order, so reclaims are deterministic.
    in_flight: IdTable<InFlight>,
    // The failure detector; `None` (recovery off) is bit-identical to the
    // pre-recovery dispatcher.
    health: Option<HealthTracker>,
    // Exactly-once filter: how many zombie copies of (req_id, worker) are
    // owed a stale report — one per reclaim of that request from that
    // worker. A late report matching an entry is absorbed instead of
    // re-counted. Counted, not a set: a request can be reclaimed from the
    // same worker twice across a readmission, and from several workers
    // along a re-dispatch chain.
    reclaimed: BTreeMap<(u64, usize), u32>,
    // The candidate workers of the current pick, kept between picks so
    // `drain` does not allocate.
    candidates: Vec<WorkerView>,
    // An emptied assignment buffer handed back through `recycle`; the
    // next batch of assignments is built in it instead of a fresh `Vec`.
    spare: Vec<Assignment>,
    /// Exported counters.
    pub stats: DispatchStats,
}

impl<P: SchedPolicy, S: CoreSelector> Dispatcher<P, S> {
    /// A dispatcher over `n_workers` workers, keeping at most
    /// `outstanding_cap` requests outstanding per worker (1 = no stashing;
    /// the paper finds 5 best for its 1 µs workload, §4.1). Calls the
    /// policy's [`init`](SchedPolicy::init) with the worker count.
    pub fn new(n_workers: usize, outstanding_cap: u32, mut policy: P, selector: S) -> Self {
        assert!(n_workers > 0, "dispatcher needs at least one worker");
        assert!(outstanding_cap >= 1, "outstanding cap must be at least 1");
        policy.init(n_workers);
        Dispatcher {
            policy,
            selector,
            outstanding: vec![0; n_workers],
            outstanding_cap,
            degraded: false,
            excluded: vec![false; n_workers],
            in_flight: IdTable::new(),
            health: None,
            reclaimed: BTreeMap::new(),
            candidates: Vec::with_capacity(n_workers),
            spare: Vec::new(),
            stats: DispatchStats::default(),
        }
    }

    /// Arm NIC-side failure detection with the given lease policy. Until
    /// this is called the dispatcher behaves bit-identically to the
    /// pre-recovery code path.
    pub fn enable_recovery(&mut self, policy: RecoveryPolicy) {
        self.health = Some(HealthTracker::new(self.outstanding.len(), policy));
    }

    /// The failure detector, when recovery is armed.
    pub fn health(&self) -> Option<&HealthTracker> {
        self.health.as_ref()
    }

    /// Whether NIC-side failure detection is armed.
    pub fn recovery_enabled(&self) -> bool {
        self.health.is_some()
    }

    /// Enter or leave stale-feedback fallback: while degraded, worker
    /// selection hashes the request id over the non-excluded workers
    /// instead of consulting the configured selector.
    pub fn set_degraded(&mut self, degraded: bool) {
        self.degraded = degraded;
    }

    /// Whether the dispatcher is currently in hashed fallback.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Quarantine `worker` from (or readmit it to) selection. Outstanding
    /// bookkeeping is untouched: work already on the worker stays counted
    /// until it completes or the run ends.
    pub fn set_excluded(&mut self, worker: usize, excluded: bool) {
        self.excluded[worker] = excluded;
    }

    /// Whether `worker` is currently quarantined.
    pub fn is_excluded(&self, worker: usize) -> bool {
        self.excluded[worker]
    }

    /// A new request arrived from the networking subsystem: it joins the
    /// central queue, bounded only by the per-worker outstanding cap.
    pub fn on_request(&mut self, now: SimTime, task: Task) -> Vec<Assignment> {
        self.policy.enqueue(now, task);
        self.stats.admitted += 1;
        self.drain(now)
    }

    /// A worker reported finishing `req_id`.
    pub fn on_done(&mut self, now: SimTime, worker: usize, req_id: u64) -> Vec<Assignment> {
        if self.is_stale_report(worker, req_id) {
            return self.absorb_stale_report(now, worker, req_id);
        }
        self.note_activity(now, worker);
        self.stats.completions += 1;
        let w = &mut self.outstanding[worker];
        debug_assert!(*w > 0, "completion from a worker with nothing outstanding");
        *w = w.saturating_sub(1);
        let service = self
            .in_flight
            .remove(req_id)
            .map(|e| e.task.service)
            .unwrap_or(SimDuration::ZERO);
        self.policy.feedback(
            now,
            &FeedbackEvent::Completed {
                worker,
                req_id,
                service,
            },
        );
        self.drain(now)
    }

    /// A worker reported preempting `task` (with `remaining` updated); the
    /// task returns to the queue and may later run on any worker the
    /// policy allows.
    pub fn on_preempted(&mut self, now: SimTime, worker: usize, task: Task) -> Vec<Assignment> {
        if self.is_stale_report(worker, task.req_id) {
            return self.absorb_stale_report(now, worker, task.req_id);
        }
        self.note_activity(now, worker);
        self.stats.requeued += 1;
        let w = &mut self.outstanding[worker];
        debug_assert!(*w > 0, "preemption from a worker with nothing outstanding");
        *w = w.saturating_sub(1);
        self.in_flight.remove(task.req_id);
        self.policy.feedback(
            now,
            &FeedbackEvent::Preempted {
                worker,
                req_id: task.req_id,
                remaining: task.remaining,
            },
        );
        self.policy.requeue(now, task);
        self.drain(now)
    }

    /// A heartbeat frame arrived from `worker` (the lease-renewal signal
    /// on the completion path). Renews the lease; if this readmits a
    /// suspected worker, queued work may flow to it again.
    pub fn on_heartbeat(&mut self, now: SimTime, worker: usize) -> Vec<Assignment> {
        if self.note_activity(now, worker) {
            self.drain(now)
        } else {
            Vec::new()
        }
    }

    /// Advance the failure detector to `now` (driven by the embedding's
    /// periodic health event — the suspicion "timer" is this event, not a
    /// wall clock). Newly suspected workers have their in-flight requests
    /// reclaimed and re-dispatched to healthy workers. No-op when recovery
    /// is off.
    pub fn check_health(&mut self, now: SimTime) -> Vec<Assignment> {
        let Some(h) = self.health.as_mut() else {
            return Vec::new();
        };
        let suspects = h.check(now, &self.outstanding);
        if suspects.is_empty() {
            return Vec::new();
        }
        for w in suspects {
            self.policy.worker_down(now, w);
            self.reclaim(now, w);
        }
        self.drain(now)
    }

    /// Release every in-flight request charged to `worker` and re-queue it
    /// through the policy, marking each for the exactly-once filter.
    fn reclaim(&mut self, now: SimTime, worker: usize) {
        let ids: Vec<u64> = self
            .in_flight
            .iter()
            .filter(|(_, e)| e.worker == worker)
            .map(|(id, _)| id)
            .collect();
        for id in ids {
            let e = self.in_flight.remove(id).expect("collected above");
            let w = &mut self.outstanding[worker];
            *w = w.saturating_sub(1);
            *self.reclaimed.entry((id, worker)).or_insert(0) += 1;
            self.stats.recovered += 1;
            self.stats.requeued += 1;
            self.policy.requeue(now, e.task);
        }
    }

    /// NI-fabric dedup for integrated designs (RPCValet): a delayed
    /// delivery of a request whose lease was reclaimed from `worker` is a
    /// zombie copy — the queue already re-dispatched the request. Returns
    /// `true` when the delivery must be dropped, consuming one reclaim
    /// marker. Unlike a report, a delivery is NIC-side and proves nothing
    /// about the worker, so this never readmits.
    pub fn absorb_stale_delivery(&mut self, worker: usize, req_id: u64) -> bool {
        if !self.is_stale_report(worker, req_id) {
            return false;
        }
        self.consume_reclaim(worker, req_id);
        true
    }

    /// A report for `req_id` from `worker` is stale when the request was
    /// reclaimed from that worker and is not currently charged to it (the
    /// charge was released at reclaim time). The second clause keeps the
    /// accounting exact if a reclaimed request was later re-assigned to
    /// the same worker after readmission: the live copy's report then
    /// takes the normal path and the leftover zombie report is absorbed,
    /// in either arrival order.
    fn is_stale_report(&self, worker: usize, req_id: u64) -> bool {
        self.reclaimed.contains_key(&(req_id, worker))
            && self.in_flight.get(req_id).map(|e| e.worker) != Some(worker)
    }

    /// Absorb a stale report: count it in the recovery ledger, never
    /// double-complete. The report is still proof of life — the suspicion
    /// was a false positive — so the worker is readmitted.
    fn absorb_stale_report(&mut self, now: SimTime, worker: usize, req_id: u64) -> Vec<Assignment> {
        self.consume_reclaim(worker, req_id);
        if self.note_activity(now, worker) {
            self.drain(now)
        } else {
            Vec::new()
        }
    }

    /// Count a zombie copy of `req_id` on `worker` as a late duplicate,
    /// consuming one of its reclaim markers.
    fn consume_reclaim(&mut self, worker: usize, req_id: u64) {
        if let Some(c) = self.reclaimed.get_mut(&(req_id, worker)) {
            *c -= 1;
            if *c == 0 {
                self.reclaimed.remove(&(req_id, worker));
            }
        }
        self.stats.late_duplicates += 1;
    }

    /// Record proof of life; fires `worker_up` and returns `true` on
    /// readmission.
    fn note_activity(&mut self, now: SimTime, worker: usize) -> bool {
        let readmitted = match self.health.as_mut() {
            Some(h) => h.on_activity(now, worker),
            None => false,
        };
        if readmitted {
            self.policy.worker_up(now, worker);
        }
        readmitted
    }

    /// Re-run assignment after external scheduler-state changes — a
    /// quarantine lift or a degraded-mode flip — that may have unparked
    /// queued work without any request/completion event to trigger a
    /// drain.
    pub fn kick(&mut self, now: SimTime) -> Vec<Assignment> {
        self.drain(now)
    }

    /// Hand back a batch of assignments once it has been consumed (e.g.
    /// with `drain(..)`): the next batch reuses its allocation. Optional;
    /// a dropped batch only costs the next one an allocation.
    pub fn recycle(&mut self, mut spent: Vec<Assignment>) {
        spent.clear();
        if spent.capacity() > self.spare.capacity() {
            self.spare = spent;
        }
    }

    /// Issue assignments while the queue is non-empty, a worker is below
    /// the outstanding cap, and the policy keeps picking.
    fn drain(&mut self, now: SimTime) -> Vec<Assignment> {
        let mut out = std::mem::take(&mut self.spare);
        loop {
            if self.policy.is_empty() {
                break;
            }
            // Gather non-quarantined, health-selectable candidates below
            // the cap, into the buffer kept from the last pick.
            let (excluded, cap, health) = (&self.excluded, self.outstanding_cap, &self.health);
            self.candidates.clear();
            self.candidates.extend(
                self.outstanding
                    .iter()
                    .enumerate()
                    .filter(|&(i, &n)| {
                        !excluded[i] && n < cap && health.as_ref().map_or(true, |h| h.selectable(i))
                    })
                    .map(|(i, &outstanding)| WorkerView {
                        worker: i,
                        outstanding,
                    }),
            );
            let candidates = &self.candidates;
            if candidates.is_empty() {
                break;
            }
            let Some(pick) = self.policy.pick_next(now, candidates) else {
                // The policy parks the queue: none of its queued work may
                // run on any candidate (e.g. dFCFS with busy home cores).
                break;
            };
            let task = pick.task;
            let worker = match pick.worker {
                // Policy-bound worker: must be one of the candidates it
                // was shown. Binding overrides the selector *and* the
                // degraded hash — a worker-binding policy (dFCFS) is
                // already feedback-free.
                Some(w) => {
                    assert!(
                        candidates.iter().any(|c| c.worker == w),
                        "policy picked worker {w} outside the candidate set"
                    );
                    w
                }
                None => {
                    let chosen = if self.degraded {
                        // RSS-style static hashing: informed state is
                        // stale, so spread by request id alone.
                        (task.req_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize
                            % candidates.len()
                    } else {
                        self.selector.select(candidates, task.req_id)
                    };
                    candidates[chosen].worker
                }
            };
            // The policy rules on this dispatch's slice budget; the grant
            // rides the task to the worker.
            let decision = self.policy.should_preempt(
                now,
                &RunningTask {
                    worker,
                    task: &task,
                },
            );
            let mut task = task;
            task.preempt = decision;
            self.outstanding[worker] += 1;
            self.stats.assigned += 1;
            if let Some(h) = self.health.as_mut() {
                // Lease renewal: the worker owes this request back within
                // the suspicion window from now.
                h.on_assign(now, worker);
            }
            self.in_flight
                .insert(task.req_id, InFlight { worker, task });
            out.push(Assignment { worker, task });
        }
        out
    }

    /// Requests waiting in the centralized queue.
    pub fn queue_len(&self) -> usize {
        self.policy.len()
    }

    /// Outstanding count the dispatcher believes `worker` has.
    pub fn outstanding(&self, worker: usize) -> u32 {
        self.outstanding[worker]
    }

    /// Total outstanding across all workers.
    pub fn total_outstanding(&self) -> u32 {
        self.outstanding.iter().sum()
    }

    /// Number of workers.
    pub fn worker_count(&self) -> usize {
        self.outstanding.len()
    }

    /// Access the queue policy (e.g. to read what it has learned, like
    /// [`Srpt::estimate`](crate::Srpt::estimate)).
    pub fn policy(&self) -> &P {
        &self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disciplines::{Dfcfs, Srpt};
    use crate::policy::{Fcfs, PreemptDecision};
    use crate::select::LeastOutstanding;
    use sim_core::{SimDuration, SimTime};

    fn disp(workers: usize, cap: u32) -> Dispatcher<Fcfs, LeastOutstanding> {
        Dispatcher::new(workers, cap, Fcfs::new(), LeastOutstanding)
    }

    fn task(id: u64) -> Task {
        Task::new(
            id,
            0,
            SimDuration::from_micros(5),
            SimTime::ZERO,
            SimTime::ZERO,
            0,
        )
    }

    fn us(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    #[test]
    fn request_to_idle_worker_assigns_immediately() {
        let mut d = disp(2, 1);
        let a = d.on_request(us(0), task(1));
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].task.req_id, 1);
        assert_eq!(d.total_outstanding(), 1);
        assert_eq!(d.queue_len(), 0);
    }

    #[test]
    fn cap_one_queues_when_all_busy() {
        let mut d = disp(2, 1);
        assert_eq!(d.on_request(us(0), task(1)).len(), 1);
        assert_eq!(d.on_request(us(0), task(2)).len(), 1);
        // Both workers at cap: third request waits.
        assert_eq!(d.on_request(us(0), task(3)).len(), 0);
        assert_eq!(d.queue_len(), 1);
        // A completion frees a slot and drains the queue.
        let a = d.on_done(us(1), 0, 1);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].worker, 0);
        assert_eq!(a[0].task.req_id, 3);
    }

    #[test]
    fn queuing_optimization_stashes_up_to_cap() {
        // §3.4.5: the dispatcher keeps multiple requests outstanding per
        // worker so the worker never waits for the NIC round trip.
        let mut d = disp(1, 5);
        for id in 1..=7 {
            d.on_request(us(0), task(id));
        }
        assert_eq!(d.outstanding(0), 5, "exactly cap outstanding");
        assert_eq!(d.queue_len(), 2, "the rest wait centrally");
    }

    #[test]
    fn preemption_requeues_at_tail_and_any_worker_may_resume() {
        let mut d = disp(2, 1);
        d.on_request(us(0), task(1));
        d.on_request(us(0), task(2));
        d.on_request(us(0), task(3)); // queued
                                      // Worker 0 preempts task 1; task 3 takes its slot (FIFO head),
                                      // task 1 goes to the tail.
        let t1 = task(1).after_preemption(SimDuration::from_micros(3));
        let a = d.on_preempted(us(10), 0, t1);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].task.req_id, 3);
        assert_eq!(a[0].worker, 0);
        // Worker 1 finishes task 2; preempted task 1 resumes there.
        let a = d.on_done(us(11), 1, 2);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].task.req_id, 1);
        assert_eq!(a[0].worker, 1, "resumed on a different worker");
        assert_eq!(a[0].task.remaining, SimDuration::from_micros(2));
    }

    #[test]
    fn least_outstanding_balances() {
        let mut d = disp(3, 2);
        let mut assigned = vec![0usize; 3];
        for id in 0..6 {
            for a in d.on_request(us(0), task(id)) {
                assigned[a.worker] += 1;
            }
        }
        assert_eq!(assigned, vec![2, 2, 2], "even spread under the cap");
    }

    #[test]
    fn stats_account_for_everything() {
        let mut d = disp(1, 1);
        d.on_request(us(0), task(1));
        d.on_request(us(0), task(2));
        let t1 = task(1).after_preemption(SimDuration::from_micros(1));
        d.on_preempted(us(1), 0, t1);
        d.on_done(us(2), 0, 2);
        d.on_done(us(3), 0, 1);
        assert_eq!(d.stats.admitted, 2);
        assert_eq!(d.stats.requeued, 1);
        assert_eq!(d.stats.completions, 2);
        // assignments: t1, then t2 (after preempt), then t1 again = 3
        assert_eq!(d.stats.assigned, 3);
        assert_eq!(d.total_outstanding(), 0);
        assert_eq!(d.queue_len(), 0);
    }

    #[test]
    fn work_conservation_no_idle_worker_with_queued_work() {
        let mut d = disp(4, 2);
        // Fill unevenly, then verify the invariant after every event.
        for id in 0..20 {
            d.on_request(us(0), task(id));
            let any_below_cap = (0..4).any(|w| d.outstanding(w) < 2);
            assert!(
                !(any_below_cap && d.queue_len() > 0),
                "queued work while a worker has slack"
            );
        }
    }

    #[test]
    fn excluded_worker_receives_nothing() {
        let mut d = disp(2, 1);
        d.set_excluded(0, true);
        for id in 1..=4 {
            for a in d.on_request(us(0), task(id)) {
                assert_eq!(a.worker, 1, "quarantined worker 0 must stay idle");
            }
        }
        assert_eq!(d.outstanding(0), 0);
        assert_eq!(d.outstanding(1), 1);
        assert_eq!(
            d.queue_len(),
            3,
            "work waits rather than hit the dead worker"
        );
        // Readmission drains the backlog to worker 0 as well.
        d.set_excluded(0, false);
        let a = d.on_done(us(1), 1, 1);
        assert!(a.iter().any(|a| a.worker == 0) || d.outstanding(0) > 0 || !a.is_empty());
    }

    #[test]
    fn all_workers_excluded_parks_the_queue() {
        let mut d = disp(2, 1);
        d.set_excluded(0, true);
        d.set_excluded(1, true);
        assert!(d.on_request(us(0), task(1)).is_empty());
        assert_eq!(d.queue_len(), 1);
        // Readmitting a worker lets the next dispatcher event drain it.
        d.set_excluded(1, false);
        let a = d.on_request(us(1), task(2));
        assert_eq!(a.len(), 1, "cap 1: exactly one task flows");
        assert_eq!(a[0].worker, 1);
        assert_eq!(a[0].task.req_id, 1, "the parked task goes first");
        assert_eq!(d.queue_len(), 1);
    }

    #[test]
    fn degraded_mode_hashes_instead_of_selecting() {
        let spread = || {
            let mut d = disp(4, 64);
            d.set_degraded(true);
            let mut per = vec![0usize; 4];
            for id in 0..256 {
                for a in d.on_request(us(0), task(id)) {
                    per[a.worker] += 1;
                }
            }
            per
        };
        let hashed = spread();
        assert_eq!(hashed, spread(), "hashing is deterministic");
        assert!(
            hashed.iter().all(|&n| n > 20),
            "hash spreads load: {hashed:?}"
        );
        // The RSS property informed selection lacks: the same request id
        // lands on the same worker regardless of load history.
        let mut d = disp(4, 2);
        d.set_degraded(true);
        let first = d.on_request(us(0), task(42))[0].worker;
        d.on_done(us(1), first, 42);
        d.on_request(us(2), task(7)); // perturb the load state
        let again = d.on_request(us(3), task(42))[0].worker;
        assert_eq!(first, again, "static hash ignores load state");
    }

    #[test]
    fn degraded_hashing_avoids_excluded_workers() {
        let mut d = disp(3, 64);
        d.set_degraded(true);
        d.set_excluded(1, true);
        for id in 0..64 {
            for a in d.on_request(us(0), task(id)) {
                assert_ne!(a.worker, 1);
            }
        }
        assert!(d.is_degraded());
        assert!(d.is_excluded(1));
    }

    #[test]
    fn worker_binding_policies_override_the_selector() {
        // dFCFS binds every task to its RSS home; the dispatcher must
        // honour the binding and park the queue when homes are busy.
        let mut d = Dispatcher::new(4, 1, Dfcfs::new(), LeastOutstanding);
        let mut homes = std::collections::BTreeMap::new();
        for id in 0..32 {
            for a in d.on_request(us(id), task(id)) {
                homes.insert(a.task.req_id, a.worker);
            }
        }
        // Drain the rest through completions; every req lands on one home.
        let mut now = 100;
        while d.total_outstanding() > 0 {
            let w = (0..4).find(|&w| d.outstanding(w) > 0).unwrap();
            // Find which req is on w from our map... instead just pop via
            // on_done with any req we recorded for w.
            let (&rid, _) = homes.iter().find(|(_, &hw)| hw == w).unwrap();
            homes.remove(&rid);
            for a in d.on_done(us(now), w, rid) {
                homes.insert(a.task.req_id, a.worker);
            }
            now += 1;
        }
        assert_eq!(d.queue_len(), 0);
        assert_eq!(d.stats.assigned, 32);
    }

    #[test]
    fn preempt_grants_ride_assignments() {
        // SRPT grants no budget before its first completion sample, then
        // budgets every dispatch.
        let mut d = Dispatcher::new(1, 1, Srpt::new(), LeastOutstanding);
        let a = d.on_request(us(0), task(1));
        assert_eq!(a[0].task.preempt, PreemptDecision::Inherit);
        let a = d.on_done(us(10), 0, 1); // feedback: service = 5us
        assert!(a.is_empty());
        let a = d.on_request(us(11), task(2));
        assert_eq!(
            a[0].task.preempt,
            PreemptDecision::Budget(SimDuration::from_micros(10)),
            "200% of the learned 5us estimate"
        );
    }

    #[test]
    fn completions_feed_the_policy_the_true_service() {
        let mut d = Dispatcher::new(2, 1, Srpt::new(), LeastOutstanding);
        let a = d.on_request(us(0), task(7));
        d.on_done(us(9), a[0].worker, 7);
        assert_eq!(
            d.policy().estimate(),
            SimDuration::from_micros(5),
            "in-flight map recovered the service time at completion"
        );
    }

    fn recovery_disp(workers: usize, cap: u32) -> Dispatcher<Fcfs, LeastOutstanding> {
        let mut d = disp(workers, cap);
        d.enable_recovery(crate::RecoveryPolicy::paper_default());
        d
    }

    #[test]
    fn suspected_worker_orphans_are_redispatched() {
        let mut d = recovery_disp(2, 1);
        let a = d.on_request(us(0), task(1));
        assert_eq!(a.len(), 1);
        let victim = a[0].worker;
        // Worker goes silent past the 30us suspicion window: the health
        // check reclaims its request and re-dispatches to the other worker.
        let a = d.check_health(us(40));
        assert_eq!(a.len(), 1, "orphan re-dispatched");
        assert_eq!(a[0].task.req_id, 1);
        assert_ne!(a[0].worker, victim, "suspect is out of the candidate set");
        assert_eq!(d.outstanding(victim), 0, "charge released at reclaim");
        assert_eq!(d.stats.recovered, 1);
        assert_eq!(d.stats.requeued, 1);
        assert!(!d.health().unwrap().selectable(victim), "suspected");
        // The healthy copy completes normally: exactly one completion.
        let done = d.on_done(us(45), a[0].worker, 1);
        assert!(done.is_empty());
        assert_eq!(d.stats.completions, 1);
    }

    #[test]
    fn late_completion_is_absorbed_exactly_once_and_readmits() {
        let mut d = recovery_disp(2, 1);
        let a = d.on_request(us(0), task(1));
        let victim = a[0].worker;
        let re = d.check_health(us(40));
        let healthy = re[0].worker;
        // The stalled-but-alive victim wakes up and reports the very
        // completion we already re-dispatched: absorbed, never counted as
        // a completion, and the false positive readmits the worker.
        let out = d.on_done(us(50), victim, 1);
        assert_eq!(d.stats.completions, 0, "stale report must not complete");
        assert_eq!(d.stats.late_duplicates, 1);
        assert!(d.health().unwrap().selectable(victim), "readmitted");
        assert!(out.is_empty(), "nothing queued to flow");
        // The live copy still completes exactly once.
        d.on_done(us(55), healthy, 1);
        assert_eq!(d.stats.completions, 1);
        assert_eq!(d.stats.late_duplicates, 1);
        assert_eq!(d.total_outstanding(), 0);
    }

    #[test]
    fn heartbeat_keeps_a_busy_worker_healthy() {
        let mut d = recovery_disp(1, 1);
        d.on_request(us(0), task(1));
        // Heartbeats every 5us: the lease never lapses even though the
        // request takes far longer than the suspicion window.
        for t in (5..100).step_by(5) {
            assert!(d.on_heartbeat(us(t), 0).is_empty());
            assert!(d.check_health(us(t)).is_empty());
        }
        assert_eq!(d.stats.recovered, 0);
        assert!(d.health().unwrap().selectable(0), "healthy");
    }

    #[test]
    fn reclaim_to_same_worker_after_readmission_accounts_exactly() {
        // The ambiguous case: a reclaimed request is re-assigned to the
        // very worker it was reclaimed from (after readmission). Two
        // physical copies live on one worker, but only one charge — both
        // report orders must keep the ledger exact.
        let mut d = recovery_disp(1, 1);
        d.on_request(us(0), task(1));
        assert!(d.check_health(us(40)).is_empty(), "sole worker suspected");
        assert_eq!(d.queue_len(), 1, "orphan parked: no healthy candidate");
        // Heartbeat readmits; the parked orphan flows back to worker 0.
        let a = d.on_heartbeat(us(45), 0);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].worker, 0);
        // First report: the charged live copy completes normally.
        d.on_done(us(50), 0, 1);
        assert_eq!(d.stats.completions, 1);
        assert_eq!(d.outstanding(0), 0);
        // Second report: the zombie copy is absorbed.
        d.on_done(us(51), 0, 1);
        assert_eq!(d.stats.completions, 1, "no double completion");
        assert_eq!(d.stats.late_duplicates, 1);
        assert_eq!(d.outstanding(0), 0, "no underflow");
    }

    #[test]
    fn recovery_off_ignores_health_entry_points() {
        let mut d = disp(2, 1);
        d.on_request(us(0), task(1));
        assert!(d.check_health(us(1_000)).is_empty());
        assert!(d.on_heartbeat(us(1_000), 0).is_empty());
        assert_eq!(d.stats.recovered, 0);
        assert!(d.health().is_none());
        assert!(!d.recovery_enabled());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = disp(0, 1);
    }

    #[test]
    #[should_panic(expected = "outstanding cap")]
    fn zero_cap_rejected() {
        let _ = disp(1, 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::policy::{Fcfs, ShortestRemaining};
    use crate::select::LeastOutstanding;
    use crate::spec::PolicySpec;
    use proptest::prelude::*;
    use sim_core::{SimDuration, SimTime};

    /// Drive a dispatcher with a random interleaving of arrivals and
    /// worker completions, checking the conservation and cap invariants
    /// after every step. `work_conserving` asserts the no-slack invariant,
    /// which worker-binding policies (dFCFS) legitimately violate.
    fn check<P: SchedPolicy, S: CoreSelector>(
        ops: &[u8],
        d: &mut Dispatcher<P, S>,
        workers: usize,
        cap: u32,
        work_conserving: bool,
    ) -> Result<(), TestCaseError> {
        let mut in_flight: Vec<Vec<Task>> = vec![Vec::new(); workers];
        let mut next_id = 1u64;
        let mut t = 0u64;
        let absorb = |assignments: Vec<Assignment>,
                      in_flight: &mut Vec<Vec<Task>>|
         -> Result<(), TestCaseError> {
            for a in assignments {
                in_flight[a.worker].push(a.task);
                prop_assert!(
                    in_flight[a.worker].len() <= cap as usize,
                    "cap violated at worker {}",
                    a.worker
                );
            }
            Ok(())
        };
        for &op in ops {
            t += 1;
            let now = SimTime::from_micros(t);
            match op % 3 {
                // Arrival.
                0 | 1 => {
                    let service = SimDuration::from_micros(1 + u64::from(op) % 50);
                    let task = Task::new(next_id, 0, service, now, now, 0);
                    next_id += 1;
                    let a = d.on_request(now, task);
                    absorb(a, &mut in_flight)?;
                }
                // Completion or preemption at a pseudo-random worker.
                _ => {
                    let w = (op as usize / 3) % workers;
                    if let Some(task) = in_flight[w].pop() {
                        let a = if op % 2 == 0 {
                            d.on_done(now, w, task.req_id)
                        } else {
                            d.on_preempted(
                                now,
                                w,
                                task.after_preemption(SimDuration::from_nanos(500)),
                            )
                        };
                        absorb(a, &mut in_flight)?;
                    }
                }
            }
            // Invariants after every step:
            let total_in_flight: usize = in_flight.iter().map(|v| v.len()).sum();
            prop_assert_eq!(
                d.total_outstanding() as usize,
                total_in_flight,
                "dispatcher bookkeeping out of sync"
            );
            // Conservation: admitted = queued + in flight + retired.
            let retired = d.stats.completions;
            prop_assert_eq!(
                d.stats.admitted + d.stats.requeued,
                d.queue_len() as u64 + d.stats.assigned,
                "admission/assignment ledger must balance with the queue"
            );
            let _ = retired;
            if work_conserving {
                // Work conservation: never queued work alongside capacity.
                let slack = (0..workers).any(|w| d.outstanding(w) < cap);
                prop_assert!(
                    !(slack && d.queue_len() > 0),
                    "queued work while a worker has slack"
                );
            }
        }
        Ok(())
    }

    fn drive(ops: Vec<u8>, workers: usize, cap: u32, srf: bool) -> Result<(), TestCaseError> {
        if srf {
            let mut d = Dispatcher::new(workers, cap, ShortestRemaining::new(), LeastOutstanding);
            check(&ops, &mut d, workers, cap, true)
        } else {
            let mut d = Dispatcher::new(workers, cap, Fcfs::new(), LeastOutstanding);
            check(&ops, &mut d, workers, cap, true)
        }
    }

    /// Same invariant run for every shipped policy, via the boxed path
    /// experiments actually use.
    fn drive_spec(ops: Vec<u8>, workers: usize, cap: u32, spec: &str) -> Result<(), TestCaseError> {
        let policy = PolicySpec::parse(spec).expect(spec).build();
        let mut d = Dispatcher::new(workers, cap, policy, LeastOutstanding);
        // dFCFS may park work while its home cores are busy.
        let work_conserving = spec != "dfcfs";
        check(&ops, &mut d, workers, cap, work_conserving)
    }

    proptest! {
        #[test]
        fn fcfs_invariants_hold_under_random_interleavings(
            ops in proptest::collection::vec(any::<u8>(), 1..300),
            workers in 1usize..6,
            cap in 1u32..5,
        ) {
            drive(ops, workers, cap, false)?;
        }

        #[test]
        fn srf_invariants_hold_under_random_interleavings(
            ops in proptest::collection::vec(any::<u8>(), 1..300),
            workers in 1usize..6,
            cap in 1u32..5,
        ) {
            drive(ops, workers, cap, true)?;
        }

        #[test]
        fn every_shipped_policy_holds_the_ledger_invariants(
            ops in proptest::collection::vec(any::<u8>(), 1..200),
            workers in 1usize..6,
            cap in 1u32..5,
            which in 0usize..8,
        ) {
            let specs = [
                "fcfs",
                "cfcfs",
                "dfcfs",
                "srf",
                "srpt",
                "edf:deadline=50us",
                "class-priority:cutoff=10us",
                "wfq:w=4,1,1",
            ];
            drive_spec(ops, workers, cap, specs[which])?;
        }

        /// With recovery armed and workers going arbitrarily silent, the
        /// admission/assignment ledger must still balance, no request may
        /// complete more often than it was assigned, and stale reports
        /// must never exceed reclaims.
        #[test]
        fn recovery_keeps_the_ledger_exact_under_random_silence(
            ops in proptest::collection::vec(any::<u8>(), 1..300),
            workers in 1usize..5,
            cap in 1u32..4,
            which in 0usize..8,
        ) {
            let specs = [
                "fcfs",
                "cfcfs",
                "dfcfs",
                "srf",
                "srpt",
                "edf:deadline=50us",
                "class-priority:cutoff=10us",
                "wfq:w=4,1,1",
            ];
            let policy = PolicySpec::parse(specs[which]).unwrap().build();
            let mut d = Dispatcher::new(workers, cap, policy, LeastOutstanding);
            d.enable_recovery(crate::RecoveryPolicy::with_suspicion(
                SimDuration::from_micros(5),
            ));
            // Mirror of physical copies per worker — reclaimed zombies
            // stay physical until their report is delivered, so the
            // mirror may exceed the dispatcher's charge but never the
            // other way around.
            let mut phys: Vec<Vec<Task>> = vec![Vec::new(); workers];
            let mut completions_per_req: BTreeMap<u64, u64> = BTreeMap::new();
            let mut next_id = 1u64;
            let mut t = 0u64;
            for &op in &ops {
                t += u64::from(op % 7) + 1;
                let now = SimTime::from_micros(t);
                let absorb = |a: Vec<Assignment>, phys: &mut Vec<Vec<Task>>| {
                    for x in a {
                        phys[x.worker].push(x.task);
                    }
                };
                match op % 4 {
                    0 | 1 => {
                        let service = SimDuration::from_micros(1 + u64::from(op) % 50);
                        let task = Task::new(next_id, 0, service, now, now, 0);
                        next_id += 1;
                        let a = d.on_request(now, task);
                        absorb(a, &mut phys);
                    }
                    2 => {
                        let w = (op as usize / 4) % workers;
                        if let Some(task) = phys[w].pop() {
                            let before = d.stats.completions;
                            let a = d.on_done(now, w, task.req_id);
                            if d.stats.completions > before {
                                *completions_per_req.entry(task.req_id).or_insert(0) += 1;
                            }
                            absorb(a, &mut phys);
                        }
                    }
                    _ => {
                        let a = d.check_health(now);
                        absorb(a, &mut phys);
                    }
                }
                prop_assert_eq!(
                    d.stats.admitted + d.stats.requeued,
                    d.queue_len() as u64 + d.stats.assigned,
                    "ledger must balance under reclaims"
                );
                prop_assert!(d.stats.late_duplicates <= d.stats.recovered);
                let physical: usize = phys.iter().map(|v| v.len()).sum();
                prop_assert!(
                    (d.total_outstanding() as usize) <= physical,
                    "dispatcher charges more than physically dispatched"
                );
            }
            // Deliver every remaining physical report: zombies are
            // absorbed, live copies complete; nothing completes twice.
            t += 1_000;
            for w in 0..workers {
                while let Some(task) = phys[w].pop() {
                    t += 1;
                    let before = d.stats.completions;
                    let a = d.on_done(SimTime::from_micros(t), w, task.req_id);
                    if d.stats.completions > before {
                        *completions_per_req.entry(task.req_id).or_insert(0) += 1;
                    }
                    for x in a {
                        phys[x.worker].push(x.task);
                    }
                }
            }
            for (req, n) in &completions_per_req {
                prop_assert!(*n <= 1, "request {} completed {} times", req, n);
            }
        }
    }
}
