//! Request-selection policies for the centralized queue.
//!
//! The prototype uses a single FIFO with tail re-enqueue on preemption
//! (§3.4.1). The informed-scheduling *framework* argument (§2.3, §5.1(4))
//! is that the NIC should make the policy programmable, so the queue is a
//! trait with several implementations; the systems default to [`Fcfs`] to
//! match the paper.
//!
//! # Hook lifecycle
//!
//! A policy plugs into the [`Dispatcher`](crate::Dispatcher) the way an
//! sched_ext scheduler plugs into the kernel: a fixed set of hooks, each
//! with a conservative default, so a minimal policy only implements the
//! queue itself.
//!
//! 1. [`init`](SchedPolicy::init) — once, with the worker count.
//! 2. [`enqueue`](SchedPolicy::enqueue) / [`requeue`](SchedPolicy::requeue)
//!    — every admission and every preemption re-admission.
//! 3. [`pick_next`](SchedPolicy::pick_next) — per dispatch opportunity,
//!    with the dispatchable workers in view; may bind the task to a
//!    specific worker (e.g. dFCFS) or leave core selection to the
//!    embedding's [`CoreSelector`](crate::CoreSelector).
//! 4. [`should_preempt`](SchedPolicy::should_preempt) — per dispatch, to
//!    grant the slice budget the worker will honour (the decision the
//!    embedding's static `time_slice` used to make alone).
//! 5. [`feedback`](SchedPolicy::feedback) — on every worker report
//!    (completion, preemption), closing the paper's feedback loop into
//!    the policy itself.
//! 6. [`worker_down`](SchedPolicy::worker_down) /
//!    [`worker_up`](SchedPolicy::worker_up) — membership changes from the
//!    NIC's failure detector (see [`HealthTracker`](crate::HealthTracker)):
//!    a worker was suspected and its in-flight work reclaimed, or a
//!    suspected worker was readmitted. Policies with per-worker structure
//!    (dFCFS homes, WFQ lanes) or learned state (SRPT size estimates)
//!    react here; stateless queues ignore them.

use std::collections::VecDeque;

use sim_core::{SimDuration, SimTime};

use crate::disciplines::KeyedQueue;
use crate::select::WorkerView;
use crate::task::Task;

/// A worker-side event delivered to the policy via
/// [`SchedPolicy::feedback`] — the fine-grained core feedback of §2.3,
/// surfaced to the scheduling policy rather than consumed solely by the
/// dispatcher's bookkeeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FeedbackEvent {
    /// `worker` finished `req_id` after `service` total work. The service
    /// time is what an informed NIC learns from completions — policies
    /// like SRPT build their size estimates from it.
    Completed {
        /// Reporting worker.
        worker: usize,
        /// The finished request.
        req_id: u64,
        /// Total intrinsic service of the finished request.
        service: SimDuration,
    },
    /// `worker` preempted `req_id` with `remaining` work still owed.
    Preempted {
        /// Reporting worker.
        worker: usize,
        /// The preempted request.
        req_id: u64,
        /// Work still owed after the slice.
        remaining: SimDuration,
    },
}

/// The dispatch [`SchedPolicy::should_preempt`] is deciding about: the
/// task about to start on `worker`.
#[derive(Debug)]
pub struct RunningTask<'a> {
    /// The worker the task was assigned to.
    pub worker: usize,
    /// The task about to run.
    pub task: &'a Task,
}

/// A policy's preemption ruling for one dispatch: the slice budget the
/// worker should honour before handing the request back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PreemptDecision {
    /// Defer to the embedding's configured time slice (the paper's static
    /// 10 µs APIC timer, §3.4.4).
    Inherit,
    /// Grant exactly this much run time before preemption.
    Budget(SimDuration),
    /// Let the request run to completion.
    RunToCompletion,
}

impl PreemptDecision {
    /// Resolve against the embedding's configured slice: the effective
    /// `Option<slice>` the worker arms its timer with.
    pub fn resolve(self, configured: Option<SimDuration>) -> Option<SimDuration> {
        match self {
            PreemptDecision::Inherit => configured,
            PreemptDecision::Budget(d) => Some(d),
            PreemptDecision::RunToCompletion => None,
        }
    }

    /// Encode for the wire's one-byte grant field: 0 = inherit, 255 = run
    /// to completion, otherwise the budget in microseconds (1..=254,
    /// rounded to the nearest microsecond) — the protocol constraint a
    /// real NIC header imposes on grant precision.
    pub fn grant_code(self) -> u8 {
        match self {
            PreemptDecision::Inherit => 0,
            PreemptDecision::RunToCompletion => 255,
            PreemptDecision::Budget(d) => {
                let us = d.as_nanos().saturating_add(500) / 1_000;
                us.clamp(1, 254) as u8
            }
        }
    }

    /// Decode the wire's grant byte (inverse of
    /// [`grant_code`](PreemptDecision::grant_code), up to rounding).
    pub fn from_grant_code(code: u8) -> PreemptDecision {
        match code {
            0 => PreemptDecision::Inherit,
            255 => PreemptDecision::RunToCompletion,
            us => PreemptDecision::Budget(SimDuration::from_micros(us as u64)),
        }
    }
}

/// One dispatch selected by [`SchedPolicy::pick_next`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pick {
    /// The task to dispatch.
    pub task: Task,
    /// `Some(w)`: the policy binds the task to worker `w`, which must be
    /// one of the candidates it was shown (e.g. dFCFS home queues).
    /// `None`: the embedding's core selector chooses.
    pub worker: Option<usize>,
}

impl Pick {
    /// A pick that leaves worker selection to the embedding.
    pub fn any(task: Task) -> Pick {
        Pick { task, worker: None }
    }

    /// A pick bound to a specific worker.
    pub fn on(task: Task, worker: usize) -> Pick {
        Pick {
            task,
            worker: Some(worker),
        }
    }
}

/// A request-selection policy over the centralized task queue.
///
/// The queue methods ([`enqueue`](SchedPolicy::enqueue),
/// [`requeue`](SchedPolicy::requeue), [`dequeue`](SchedPolicy::dequeue),
/// [`len`](SchedPolicy::len)) and the three failure hooks
/// ([`feedback`](SchedPolicy::feedback),
/// [`worker_down`](SchedPolicy::worker_down),
/// [`worker_up`](SchedPolicy::worker_up)) are mandatory: a policy that
/// ignores failure signals says so with an empty body, so none can keep
/// dispatching to dead workers by omission. The scheduling hooks default
/// to the paper's behaviour — [`pick_next`](SchedPolicy::pick_next) pops
/// the queue and lets the core selector place it, and
/// [`should_preempt`](SchedPolicy::should_preempt) inherits the
/// embedding's slice — so a policy that implements nothing extra
/// schedules exactly like the pre-hook dispatcher.
pub trait SchedPolicy {
    /// Called once when a dispatcher adopts the policy, with the number of
    /// workers it will schedule over. Policies with per-worker structure
    /// (e.g. dFCFS home queues) size themselves here.
    fn init(&mut self, n_workers: usize) {
        let _ = n_workers;
    }
    /// Admit a new request.
    fn enqueue(&mut self, now: SimTime, task: Task);
    /// Re-admit a preempted request ("the dispatcher adds the request to
    /// the end of the task queue", §3.4.1 — but a policy may choose
    /// differently).
    fn requeue(&mut self, now: SimTime, task: Task);
    /// Select the next request to dispatch, ignoring worker state.
    fn dequeue(&mut self, now: SimTime) -> Option<Task>;
    /// Select the next dispatch given the workers currently able to accept
    /// work. Returning `None` parks the queue until the next scheduler
    /// event even if tasks are queued (a policy must only do so when none
    /// of its queued work may run on any candidate).
    fn pick_next(&mut self, now: SimTime, candidates: &[WorkerView]) -> Option<Pick> {
        let _ = candidates;
        self.dequeue(now).map(Pick::any)
    }
    /// A worker-side event arrived (completion or preemption).
    fn feedback(&mut self, now: SimTime, event: &FeedbackEvent);
    /// Rule on the slice budget for a dispatch about to start.
    fn should_preempt(&mut self, now: SimTime, running: &RunningTask<'_>) -> PreemptDecision {
        let _ = (now, running);
        PreemptDecision::Inherit
    }
    /// `worker` was suspected by the failure detector: it is out of the
    /// candidate set and its in-flight requests have been reclaimed for
    /// re-dispatch (they arrive back through
    /// [`requeue`](SchedPolicy::requeue) immediately after this call).
    /// An empty body is correct for policies without per-worker state.
    fn worker_down(&mut self, now: SimTime, worker: usize);
    /// A suspected/dead worker produced late activity and was readmitted
    /// to the candidate set.
    fn worker_up(&mut self, now: SimTime, worker: usize);
    /// Requests currently queued.
    fn len(&self) -> usize;
    /// True when no requests are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// Boxed policies are policies, so `Dispatcher<Box<dyn SchedPolicy>, S>`
// works without per-policy monomorphization. Every hook delegates
// explicitly: falling back to the trait defaults here would silently
// bypass an inner policy's overrides.
impl SchedPolicy for Box<dyn SchedPolicy> {
    fn init(&mut self, n_workers: usize) {
        (**self).init(n_workers)
    }
    fn enqueue(&mut self, now: SimTime, task: Task) {
        (**self).enqueue(now, task)
    }
    fn requeue(&mut self, now: SimTime, task: Task) {
        (**self).requeue(now, task)
    }
    fn dequeue(&mut self, now: SimTime) -> Option<Task> {
        (**self).dequeue(now)
    }
    fn pick_next(&mut self, now: SimTime, candidates: &[WorkerView]) -> Option<Pick> {
        (**self).pick_next(now, candidates)
    }
    fn feedback(&mut self, now: SimTime, event: &FeedbackEvent) {
        (**self).feedback(now, event)
    }
    fn should_preempt(&mut self, now: SimTime, running: &RunningTask<'_>) -> PreemptDecision {
        (**self).should_preempt(now, running)
    }
    fn worker_down(&mut self, now: SimTime, worker: usize) {
        (**self).worker_down(now, worker)
    }
    fn worker_up(&mut self, now: SimTime, worker: usize) {
        (**self).worker_up(now, worker)
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn is_empty(&self) -> bool {
        (**self).is_empty()
    }
}

/// First-come-first-served with tail re-enqueue — the paper's policy.
#[derive(Debug)]
pub struct Fcfs {
    queue: VecDeque<Task>,
}

impl Fcfs {
    /// An empty FCFS queue.
    pub fn new() -> Fcfs {
        Fcfs {
            queue: VecDeque::new(),
        }
    }
}

impl Default for Fcfs {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedPolicy for Fcfs {
    fn enqueue(&mut self, _now: SimTime, task: Task) {
        self.queue.push_back(task);
    }

    fn requeue(&mut self, _now: SimTime, task: Task) {
        // Preempted requests go to the tail, exactly as §3.4.1 describes.
        self.queue.push_back(task);
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<Task> {
        self.queue.pop_front()
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    // Failure hooks, explicitly no-ops: FCFS keeps no per-worker state,
    // and reclaimed requests re-enter through `requeue`.
    fn worker_down(&mut self, _now: SimTime, _worker: usize) {}
    fn worker_up(&mut self, _now: SimTime, _worker: usize) {}
    fn feedback(&mut self, _now: SimTime, _event: &FeedbackEvent) {}
}

/// Shortest-remaining-work-first: dispatches the queued task with the
/// least remaining service. An idealized dispersion-killer the NIC could
/// implement given the service hints requests carry. Size-informed but
/// feedback-oblivious — contrast [`Srpt`](crate::Srpt), which learns
/// sizes from worker feedback instead of trusting the wire hint.
#[derive(Debug)]
pub struct ShortestRemaining {
    // Keyed on remaining work; equal keys pop in arrival order.
    queue: KeyedQueue,
}

impl ShortestRemaining {
    /// An empty SRF queue.
    pub fn new() -> ShortestRemaining {
        ShortestRemaining {
            queue: KeyedQueue::new(),
        }
    }
}

impl Default for ShortestRemaining {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedPolicy for ShortestRemaining {
    fn enqueue(&mut self, _now: SimTime, task: Task) {
        self.queue.push(task.remaining.as_nanos(), task);
    }

    fn requeue(&mut self, _now: SimTime, task: Task) {
        self.queue.push(task.remaining.as_nanos(), task);
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<Task> {
        self.queue.pop()
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    // Failure hooks, explicitly no-ops: the heap is keyed by remaining
    // service only, never by worker; reclaimed requests re-enter through
    // `requeue` with their remaining work intact.
    fn worker_down(&mut self, _now: SimTime, _worker: usize) {}
    fn worker_up(&mut self, _now: SimTime, _worker: usize) {}
    fn feedback(&mut self, _now: SimTime, _event: &FeedbackEvent) {}
}

/// Two-class priority: requests at or below the cutoff form the high
///-priority lane (FIFO each). Models latency-class co-location (§2.2:
/// "multiple co-located applications from different latency classes").
#[derive(Debug)]
pub struct ClassPriority {
    cutoff: SimDuration,
    short: VecDeque<Task>,
    long: VecDeque<Task>,
}

impl ClassPriority {
    /// Requests with `service <= cutoff` take priority.
    pub fn new(cutoff: SimDuration) -> ClassPriority {
        ClassPriority {
            cutoff,
            short: VecDeque::new(),
            long: VecDeque::new(),
        }
    }

    fn push(&mut self, task: Task) {
        if task.service <= self.cutoff {
            self.short.push_back(task);
        } else {
            self.long.push_back(task);
        }
    }
}

impl SchedPolicy for ClassPriority {
    fn enqueue(&mut self, _now: SimTime, task: Task) {
        self.push(task);
    }

    fn requeue(&mut self, _now: SimTime, task: Task) {
        self.push(task);
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<Task> {
        self.short.pop_front().or_else(|| self.long.pop_front())
    }

    fn len(&self) -> usize {
        self.short.len() + self.long.len()
    }

    // Failure hooks, explicitly no-ops: both lanes are worker-agnostic
    // FIFOs, and reclaimed requests re-enter through `requeue`.
    fn worker_down(&mut self, _now: SimTime, _worker: usize) {}
    fn worker_up(&mut self, _now: SimTime, _worker: usize) {}
    fn feedback(&mut self, _now: SimTime, _event: &FeedbackEvent) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicySpec;
    use proptest::prelude::*;

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

    fn us(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    #[test]
    fn fcfs_is_fifo() {
        let mut q = Fcfs::new();
        q.enqueue(us(0), task(1, 5));
        q.enqueue(us(1), task(2, 1));
        q.enqueue(us(2), task(3, 100));
        assert_eq!(q.dequeue(us(3)).unwrap().req_id, 1);
        assert_eq!(q.dequeue(us(3)).unwrap().req_id, 2);
        assert_eq!(q.dequeue(us(3)).unwrap().req_id, 3);
        assert!(q.dequeue(us(3)).is_none());
    }

    #[test]
    fn fcfs_requeue_goes_to_tail() {
        let mut q = Fcfs::new();
        q.enqueue(us(0), task(1, 5));
        q.enqueue(us(0), task(2, 5));
        let preempted = task(3, 100).after_preemption(SimDuration::from_micros(10));
        q.requeue(us(1), preempted);
        assert_eq!(q.dequeue(us(2)).unwrap().req_id, 1);
        assert_eq!(q.dequeue(us(2)).unwrap().req_id, 2);
        assert_eq!(
            q.dequeue(us(2)).unwrap().req_id,
            3,
            "preempted task at the tail"
        );
    }

    #[test]
    fn srf_prefers_least_remaining() {
        let mut q = ShortestRemaining::new();
        q.enqueue(us(0), task(1, 100));
        q.enqueue(us(0), task(2, 1));
        q.enqueue(us(0), task(3, 50));
        assert_eq!(q.dequeue(us(1)).unwrap().req_id, 2);
        assert_eq!(q.dequeue(us(1)).unwrap().req_id, 3);
        assert_eq!(q.dequeue(us(1)).unwrap().req_id, 1);
    }

    #[test]
    fn srf_ties_break_fifo() {
        let mut q = ShortestRemaining::new();
        for id in 1..=5 {
            q.enqueue(us(0), task(id, 7));
        }
        for id in 1..=5 {
            assert_eq!(q.dequeue(us(1)).unwrap().req_id, id);
        }
    }

    #[test]
    fn srf_considers_remaining_not_total() {
        let mut q = ShortestRemaining::new();
        // 100us task that has already run 95us beats a fresh 10us task.
        let mostly_done = task(1, 100).after_preemption(SimDuration::from_micros(95));
        q.requeue(us(0), mostly_done);
        q.enqueue(us(0), task(2, 10));
        assert_eq!(q.dequeue(us(1)).unwrap().req_id, 1);
    }

    #[test]
    fn class_priority_lets_shorts_jump() {
        let mut q = ClassPriority::new(SimDuration::from_micros(10));
        q.enqueue(us(0), task(1, 100)); // long
        q.enqueue(us(0), task(2, 5)); // short
        q.enqueue(us(0), task(3, 200)); // long
        q.enqueue(us(0), task(4, 5)); // short
        let order: Vec<u64> = std::iter::from_fn(|| q.dequeue(us(1)).map(|t| t.req_id)).collect();
        assert_eq!(order, vec![2, 4, 1, 3]);
    }

    #[test]
    fn default_hooks_reduce_to_the_paper_dispatcher() {
        // pick_next defaults to dequeue + selector-chosen worker;
        // should_preempt defaults to the embedding's slice; feedback is
        // inert. A policy overriding nothing schedules like PR-0 FCFS.
        let mut q = Fcfs::new();
        q.init(4);
        q.enqueue(us(0), task(1, 5));
        let views = [WorkerView {
            worker: 2,
            outstanding: 0,
        }];
        let pick = q.pick_next(us(1), &views).unwrap();
        assert_eq!(pick.task.req_id, 1);
        assert_eq!(pick.worker, None, "default pick defers core selection");
        let t = task(2, 5);
        let decision = q.should_preempt(
            us(1),
            &RunningTask {
                worker: 2,
                task: &t,
            },
        );
        assert_eq!(decision, PreemptDecision::Inherit);
        // Membership hooks default to no-ops: FCFS has no per-worker state.
        q.worker_down(us(1), 2);
        q.worker_up(us(1), 2);
        assert_eq!(q.len(), 0);
        q.feedback(
            us(2),
            &FeedbackEvent::Completed {
                worker: 2,
                req_id: 1,
                service: SimDuration::from_micros(5),
            },
        );
        assert!(q.is_empty());
    }

    #[test]
    fn preempt_decisions_resolve_and_round_trip_the_wire() {
        let slice = Some(SimDuration::from_micros(10));
        assert_eq!(PreemptDecision::Inherit.resolve(slice), slice);
        assert_eq!(PreemptDecision::Inherit.resolve(None), None);
        assert_eq!(PreemptDecision::RunToCompletion.resolve(slice), None);
        let b = PreemptDecision::Budget(SimDuration::from_micros(7));
        assert_eq!(b.resolve(None), Some(SimDuration::from_micros(7)));

        // Wire codes: exact for whole microseconds in 1..=254.
        for d in [
            b,
            PreemptDecision::Inherit,
            PreemptDecision::RunToCompletion,
        ] {
            assert_eq!(PreemptDecision::from_grant_code(d.grant_code()), d);
        }
        // Sub-microsecond budgets round to the nearest microsecond.
        let fine = PreemptDecision::Budget(SimDuration::from_nanos(11_400));
        assert_eq!(
            PreemptDecision::from_grant_code(fine.grant_code()),
            PreemptDecision::Budget(SimDuration::from_micros(11))
        );
        // Zero and huge budgets clamp into the representable band.
        assert_eq!(PreemptDecision::Budget(SimDuration::ZERO).grant_code(), 1);
        assert_eq!(
            PreemptDecision::Budget(SimDuration::from_millis(5)).grant_code(),
            254
        );
    }

    /// A policy's order key for a task it admits.
    type OrderKey = fn(&Task) -> u64;

    /// The policies that order their queue by one key, with that key: FCFS
    /// (none), SRF (remaining work), two-class priority (above the cutoff)
    /// and EDF (absolute deadline).
    const ORDERED: [(&str, OrderKey); 4] = [
        ("fcfs", |_| 0),
        ("srf", |t| t.remaining.as_nanos()),
        ("class-priority:cutoff=10us", |t| {
            u64::from(t.service > SimDuration::from_micros(10))
        }),
        ("edf:deadline=50us,stretch=2", |t| {
            t.arrived_at.as_nanos() + 50_000 + 2 * t.service.as_nanos()
        }),
    ];

    proptest! {
        #[test]
        fn ordered_policies_pop_by_key_then_arrival(
            ops in proptest::collection::vec((0u8..3, 1u64..40, 0u64..100), 1..200),
        ) {
            for (spec, key) in ORDERED {
                let mut p = PolicySpec::parse(spec).unwrap().build();
                // The reference: every queued task with its key and
                // admission number; the next pop is the least pair.
                let mut model: Vec<(u64, u64, Task)> = Vec::new();
                let mut running: Vec<Task> = Vec::new();
                for (i, &(op, size, at)) in ops.iter().enumerate() {
                    let (seq, now) = (i as u64, us(i as u64));
                    match op {
                        0 => {
                            let t = Task::new(
                                seq,
                                0,
                                SimDuration::from_micros(size),
                                SimTime::ZERO,
                                us(at),
                                0,
                            );
                            model.push((key(&t), seq, t));
                            p.enqueue(now, t);
                        }
                        1 => {
                            if let Some(t) = running.pop() {
                                let t = t.after_preemption(SimDuration::from_micros(size % 8));
                                model.push((key(&t), seq, t));
                                p.requeue(now, t);
                            }
                        }
                        _ => {
                            let next = (0..model.len()).min_by_key(|&j| (model[j].0, model[j].1));
                            let want = next.map(|j| model.remove(j).2);
                            let got = p.dequeue(now);
                            prop_assert_eq!(got, want, "{}", spec);
                            running.extend(got);
                        }
                    }
                    prop_assert_eq!(p.len(), model.len(), "{}", spec);
                }
            }
        }
    }
}
