//! The discrete-event engine.
//!
//! Following the event-driven style of poll-based network stacks, the engine
//! owns a single *model* (the whole simulated system as one state machine)
//! and a time-ordered event queue (the indexed [`EventQueue`] — see
//! [`crate::queue`] for its lanes and why it is faster than the naive heap
//! it replaced). There are no threads, no async runtime and
//! no shared-state cells: a handler receives `&mut self` on the model plus a
//! [`Ctx`] through which it posts future events — the `Ctx` borrows the
//! engine's queue directly, so scheduling is one queue insert with no
//! intermediate outbox. Two events at the same instant fire in insertion
//! order, so runs are totally ordered and bit-for-bit reproducible.
//!
//! # Cancellation
//!
//! Components that need cancellable timers (e.g. a retransmit timeout that
//! becomes moot when the reply arrives) take a [`TimerHandle`] from
//! [`Ctx::schedule_timer_in`] / [`Ctx::schedule_timer_at`] and cancel or
//! reschedule through it in O(1). Handles are validated against the
//! queue's payload arena — cancelling an already-fired, already-cancelled
//! or rescheduled timer is a safe no-op — and cancellation frees the
//! payload slot immediately, so timers never leak storage: the engine
//! audits the arena when a run drains (debug assert always; a `slab-leak`
//! invariant violation when a checker is installed). The older pattern of
//! carrying a generation counter in the payload and ignoring stale
//! firings still works, but the handle API is cheaper — a cancelled event
//! is dropped inside the queue and never reaches the model.

use crate::faults::FaultConfig;
use crate::invariants::InvariantChecker;
use crate::probe::{Probe, ProbeHandle};
use crate::queue::{EventQueue, TimerHandle};
use crate::time::{SimDuration, SimTime};

/// A simulated system: one state machine handling its own event alphabet.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Handle one event at the current simulated instant. Post follow-up
    /// events through `ctx`.
    fn handle(&mut self, event: Self::Event, ctx: &mut Ctx<'_, Self::Event>);

    /// Audit internal state against the model's own invariants, reporting
    /// violations through `inv`. Called by the engine after every event
    /// when an enabled [`InvariantChecker`] is installed (see
    /// [`Engine::set_invariants`]); never called otherwise. Must not
    /// mutate observable state — invcheck-enabled runs are required to be
    /// bit-identical to plain runs.
    fn check_invariants(&self, now: SimTime, inv: &mut InvariantChecker) {
        let _ = (now, inv);
    }
}

/// Handler-side view of the engine: the clock plus direct access to the
/// event queue, probe and fault configuration for the duration of one
/// event.
pub struct Ctx<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    stop: bool,
    probe: &'a mut Probe,
    faults: &'a FaultConfig,
}

impl<E> Ctx<'_, E> {
    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The observability surface at the current instant. Recording calls
    /// are no-ops when the engine's probe is disabled, so models can
    /// instrument unconditionally.
    pub fn probe(&mut self) -> ProbeHandle<'_> {
        let enabled = self.probe.is_enabled();
        ProbeHandle::new(self.now, enabled.then_some(&mut *self.probe))
    }

    /// The run's fault schedule. Every engine carries a (default
    /// fault-free) [`FaultConfig`], so models can consult it
    /// unconditionally; install a real one with [`Engine::set_faults`].
    pub fn faults(&self) -> &FaultConfig {
        self.faults
    }

    /// Schedule `event` to fire `delay` after now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Schedule `event` at an absolute instant.
    ///
    /// # Panics
    /// Panics if `at` is in the past — causality violations are always
    /// simulation bugs.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "schedule_at({at}) is before now ({})",
            self.now
        );
        self.queue.push(at, event);
    }

    /// Schedule `event` to fire at the current instant, after all events
    /// already queued for this instant.
    pub fn schedule_now(&mut self, event: E) {
        self.queue.push(self.now, event);
    }

    /// Schedule a cancellable event `delay` after now, returning a handle
    /// for [`cancel_timer`](Ctx::cancel_timer) /
    /// [`reschedule_timer`](Ctx::reschedule_timer).
    pub fn schedule_timer_in(&mut self, delay: SimDuration, event: E) -> TimerHandle {
        // Saturate so an "effectively never" guard near the end of the
        // clock clamps to the MAX sentinel rather than wrapping into
        // the past and firing immediately.
        self.queue
            .push_handle(self.now.saturating_add(delay), event)
    }

    /// Schedule a cancellable event at an absolute instant.
    ///
    /// # Panics
    /// Panics if `at` is in the past.
    pub fn schedule_timer_at(&mut self, at: SimTime, event: E) -> TimerHandle {
        assert!(
            at >= self.now,
            "schedule_timer_at({at}) is before now ({})",
            self.now
        );
        self.queue.push_handle(at, event)
    }

    /// Cancel a pending timer, returning its payload, or `None` if the
    /// handle is no longer live (fired, cancelled, or rescheduled). The
    /// payload slot is freed immediately.
    pub fn cancel_timer(&mut self, handle: TimerHandle) -> Option<E> {
        self.queue.cancel(handle)
    }

    /// Move a pending timer to a new instant, keeping its payload.
    /// Returns the new handle (the old one is dead), or `None` if the
    /// timer was no longer live. Ordered as a fresh insertion at `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past.
    pub fn reschedule_timer(&mut self, handle: TimerHandle, at: SimTime) -> Option<TimerHandle> {
        assert!(
            at >= self.now,
            "reschedule_timer({at}) is before now ({})",
            self.now
        );
        self.queue.reschedule(handle, at)
    }

    /// Request that the engine stop after the current handler returns.
    /// Events already scheduled remain in the queue (inspectable, not run).
    pub fn stop(&mut self) {
        self.stop = true;
    }
}

/// Why [`Engine::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Drained,
    /// A handler called [`Ctx::stop`].
    Stopped,
    /// The time horizon was reached with events still pending.
    Horizon,
}

/// The discrete-event simulation engine.
pub struct Engine<M: Model> {
    queue: EventQueue<M::Event>,
    model: M,
    now: SimTime,
    processed: u64,
    stopped: bool,
    // Boxed so the engine stays cheap to move; handlers borrow it through
    // their `Ctx`, no moves per event.
    probe: Box<Probe>,
    // Same lifecycle as `probe`: fault-free unless a schedule is installed.
    faults: Box<FaultConfig>,
    // A disabled checker unless one is installed; stays engine-resident
    // (models see it only through `Model::check_invariants`).
    invariants: Box<InvariantChecker>,
}

impl<M: Model> Engine<M> {
    /// Create an engine at `t = 0` around `model` with an empty queue and a
    /// disabled probe.
    pub fn new(model: M) -> Self {
        Engine {
            queue: EventQueue::new(),
            model,
            now: SimTime::ZERO,
            processed: 0,
            stopped: false,
            probe: Box::default(),
            faults: Box::default(),
            invariants: Box::default(),
        }
    }

    /// Install an invariant checker (usually
    /// `InvariantChecker::new(InvariantConfig::enabled())`). With an
    /// enabled checker the engine verifies causality and FIFO
    /// tie-breaking on every pop and calls
    /// [`Model::check_invariants`] after every event; violations
    /// accumulate in the checker instead of panicking.
    pub fn set_invariants(&mut self, inv: InvariantChecker) {
        *self.invariants = inv;
    }

    /// Shared access to the invariant checker.
    pub fn invariants(&self) -> &InvariantChecker {
        &self.invariants
    }

    /// Remove the invariant checker (e.g. to assert cleanliness at the
    /// end of a run), leaving a disabled one in its place.
    pub fn take_invariants(&mut self) -> InvariantChecker {
        *std::mem::take(&mut self.invariants)
    }

    /// Install a probe (usually `Probe::new(ProbeConfig::enabled())`).
    pub fn set_probe(&mut self, probe: Probe) {
        *self.probe = probe;
    }

    /// Shared access to the probe.
    pub fn probe(&self) -> &Probe {
        &self.probe
    }

    /// Exclusive access to the probe (e.g. to build its final report).
    pub fn probe_mut(&mut self) -> &mut Probe {
        &mut self.probe
    }

    /// Install the run's fault schedule.
    pub fn set_faults(&mut self, faults: FaultConfig) {
        *self.faults = faults;
    }

    /// Current simulated instant (the time of the last event processed).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events currently pending.
    pub fn events_pending(&self) -> usize {
        self.queue.len()
    }

    /// How many times the event queue has engaged its timer wheel (see
    /// [`EventQueue::wheel_engagements`]).
    pub fn wheel_engagements(&self) -> u64 {
        self.queue.wheel_engagements()
    }

    /// Shared access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Exclusive access to the model (e.g. to harvest statistics).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consume the engine, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Seed an event at an absolute instant before (or during) the run.
    pub fn schedule_at(&mut self, at: SimTime, event: M::Event) {
        assert!(
            at >= self.now,
            "schedule_at({at}) is before now ({})",
            self.now
        );
        self.queue.push(at, event);
    }

    /// Seed an event `delay` after the current instant.
    pub fn schedule_in(&mut self, delay: SimDuration, event: M::Event) {
        self.queue.push(self.now + delay, event);
    }

    /// Seed a cancellable event at an absolute instant, returning its
    /// handle (see [`Ctx::schedule_timer_at`]).
    ///
    /// # Panics
    /// Panics if `at` is in the past.
    pub fn schedule_timer_at(&mut self, at: SimTime, event: M::Event) -> TimerHandle {
        assert!(
            at >= self.now,
            "schedule_timer_at({at}) is before now ({})",
            self.now
        );
        self.queue.push_handle(at, event)
    }

    /// Cancel a pending timer from outside a handler (between steps or
    /// before the run), returning its payload if it was still live.
    pub fn cancel_timer(&mut self, handle: TimerHandle) -> Option<M::Event> {
        self.queue.cancel(handle)
    }

    /// Process a single event. Returns `false` if the queue was empty or
    /// the engine had been stopped.
    pub fn step(&mut self) -> bool {
        if self.stopped {
            return false;
        }
        let Some((at, seq, event)) = self.queue.pop() else {
            return false;
        };
        self.dispatch(at, seq, event);
        true
    }

    /// Advance the clock to a popped event and hand it to the model.
    #[inline]
    fn dispatch(&mut self, at: SimTime, seq: u64, event: M::Event) {
        if self.invariants.is_enabled() {
            self.invariants.observe_pop(self.now, at, seq);
            // Even on a causality violation (possible only through the
            // test-only unchecked scheduling hook) the clock must not run
            // backwards; on valid runs this is exactly `at`.
            self.now = self.now.max(at);
        } else {
            debug_assert!(at >= self.now, "event queue yielded a past event");
            self.now = at;
        }
        self.processed += 1;
        let mut ctx = Ctx {
            now: self.now,
            queue: &mut self.queue,
            stop: false,
            probe: &mut self.probe,
            faults: &self.faults,
        };
        self.model.handle(event, &mut ctx);
        if ctx.stop {
            self.stopped = true;
        }
        if self.invariants.is_enabled() {
            self.model.check_invariants(self.now, &mut self.invariants);
        }
    }

    /// Seed an event with no causality check — deliberately able to put
    /// an event in the past so tests can prove the invariant checker
    /// catches exactly that.
    #[cfg(test)]
    pub(crate) fn schedule_at_unchecked(&mut self, at: SimTime, event: M::Event) {
        self.queue.push(at, event);
    }

    /// Run until the queue drains or a handler stops the engine.
    pub fn run(&mut self) -> RunOutcome {
        while self.step() {}
        if self.stopped {
            RunOutcome::Stopped
        } else {
            self.audit_drained();
            RunOutcome::Drained
        }
    }

    /// Run until `horizon` (inclusive): every event with `time <= horizon`
    /// is processed. On [`RunOutcome::Horizon`] the clock is advanced to the
    /// horizon itself.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        loop {
            if self.stopped {
                return RunOutcome::Stopped;
            }
            let Some((at, seq, event)) = self.queue.pop_due(horizon) else {
                if self.queue.is_empty() {
                    self.audit_drained();
                    return RunOutcome::Drained;
                }
                self.now = horizon.max(self.now);
                return RunOutcome::Horizon;
            };
            self.dispatch(at, seq, event);
        }
    }

    /// End-of-run arena leak audit: pop, cancel and reschedule all free
    /// payload slots eagerly, so a drained queue must hold zero payloads.
    fn audit_drained(&mut self) {
        debug_assert_eq!(
            self.queue.live_payloads(),
            0,
            "event arena leaked payloads after drain"
        );
        if self.invariants.is_enabled() {
            let leaked = self.queue.live_payloads();
            self.invariants.observe_drained(self.now, leaked);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{SimDuration, SimTime};

    /// A model that records the order and times at which its events fire.
    struct Recorder {
        seen: Vec<(u64, u32)>,
    }

    enum Ev {
        Mark(u32),
        Chain {
            label: u32,
            remaining: u32,
            gap: SimDuration,
        },
        StopNow,
    }

    impl Model for Recorder {
        type Event = Ev;
        fn handle(&mut self, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
            match ev {
                Ev::Mark(label) => self.seen.push((ctx.now().as_nanos(), label)),
                Ev::Chain {
                    label,
                    remaining,
                    gap,
                } => {
                    self.seen.push((ctx.now().as_nanos(), label));
                    if remaining > 0 {
                        ctx.schedule_in(
                            gap,
                            Ev::Chain {
                                label,
                                remaining: remaining - 1,
                                gap,
                            },
                        );
                    }
                }
                Ev::StopNow => ctx.stop(),
            }
        }
    }

    fn engine() -> Engine<Recorder> {
        Engine::new(Recorder { seen: Vec::new() })
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut e = engine();
        e.schedule_at(SimTime::from_nanos(30), Ev::Mark(3));
        e.schedule_at(SimTime::from_nanos(10), Ev::Mark(1));
        e.schedule_at(SimTime::from_nanos(20), Ev::Mark(2));
        assert_eq!(e.run(), RunOutcome::Drained);
        assert_eq!(e.model().seen, vec![(10, 1), (20, 2), (30, 3)]);
        assert_eq!(e.events_processed(), 3);
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut e = engine();
        for label in 0..50 {
            e.schedule_at(SimTime::from_nanos(5), Ev::Mark(label));
        }
        e.run();
        let labels: Vec<u32> = e.model().seen.iter().map(|&(_, l)| l).collect();
        assert_eq!(labels, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_now_runs_after_existing_same_instant_events() {
        struct M {
            order: Vec<u32>,
        }
        enum E2 {
            First,
            Second,
            Injected,
        }
        impl Model for M {
            type Event = E2;
            fn handle(&mut self, ev: E2, ctx: &mut Ctx<'_, E2>) {
                match ev {
                    E2::First => {
                        self.order.push(1);
                        ctx.schedule_now(E2::Injected);
                    }
                    E2::Second => self.order.push(2),
                    E2::Injected => self.order.push(3),
                }
            }
        }
        let mut e = Engine::new(M { order: vec![] });
        e.schedule_at(SimTime::from_nanos(1), E2::First);
        e.schedule_at(SimTime::from_nanos(1), E2::Second);
        e.run();
        assert_eq!(e.model().order, vec![1, 2, 3]);
    }

    #[test]
    fn chained_events_advance_clock() {
        let mut e = engine();
        e.schedule_at(
            SimTime::ZERO,
            Ev::Chain {
                label: 9,
                remaining: 4,
                gap: SimDuration::from_micros(1),
            },
        );
        e.run();
        let times: Vec<u64> = e.model().seen.iter().map(|&(t, _)| t).collect();
        assert_eq!(times, vec![0, 1_000, 2_000, 3_000, 4_000]);
        assert_eq!(e.now(), SimTime::from_micros(4));
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut e = engine();
        for i in 1..=10 {
            e.schedule_at(SimTime::from_micros(i), Ev::Mark(i as u32));
        }
        assert_eq!(e.run_until(SimTime::from_micros(4)), RunOutcome::Horizon);
        assert_eq!(e.model().seen.len(), 4);
        assert_eq!(e.now(), SimTime::from_micros(4));
        assert_eq!(e.events_pending(), 6);
        // Continue to the end.
        assert_eq!(e.run_until(SimTime::from_secs(1)), RunOutcome::Drained);
        assert_eq!(e.model().seen.len(), 10);
    }

    #[test]
    fn stop_halts_immediately() {
        let mut e = engine();
        e.schedule_at(SimTime::from_nanos(1), Ev::Mark(1));
        e.schedule_at(SimTime::from_nanos(2), Ev::StopNow);
        e.schedule_at(SimTime::from_nanos(3), Ev::Mark(3));
        assert_eq!(e.run(), RunOutcome::Stopped);
        assert_eq!(e.model().seen, vec![(1, 1)]);
        assert_eq!(e.events_pending(), 1, "post-stop events remain pending");
        assert!(!e.step(), "a stopped engine does not step");
    }

    /// A model exercising the handle-based timer API: each `Arm` event
    /// schedules a far-future `Timeout` and a nearer `Reply`; the reply
    /// cancels the timeout, so no timeout may ever fire — and the arena
    /// must still drain clean.
    struct TimeoutModel {
        pending: Vec<TimerHandle>,
        timeouts_fired: u32,
        replies: u32,
    }

    enum TEv {
        Arm,
        Reply(usize),
        Timeout,
    }

    impl Model for TimeoutModel {
        type Event = TEv;
        fn handle(&mut self, ev: TEv, ctx: &mut Ctx<'_, TEv>) {
            match ev {
                TEv::Arm => {
                    // Timeout far in the future (wheel territory), reply
                    // well before it.
                    let h = ctx.schedule_timer_in(SimDuration::from_millis(10), TEv::Timeout);
                    let idx = self.pending.len();
                    self.pending.push(h);
                    ctx.schedule_in(SimDuration::from_micros(3), TEv::Reply(idx));
                }
                TEv::Reply(idx) => {
                    self.replies += 1;
                    let h = self.pending[idx];
                    assert!(ctx.cancel_timer(h).is_some(), "timeout already dead");
                    assert!(ctx.cancel_timer(h).is_none(), "double cancel must no-op");
                }
                TEv::Timeout => self.timeouts_fired += 1,
            }
        }
    }

    #[test]
    fn cancelled_timers_never_fire_and_never_leak() {
        let mut e = Engine::new(TimeoutModel {
            pending: Vec::new(),
            timeouts_fired: 0,
            replies: 0,
        });
        for i in 0..50u64 {
            e.schedule_at(SimTime::from_micros(i * 7), TEv::Arm);
        }
        assert_eq!(e.run(), RunOutcome::Drained);
        assert_eq!(e.model().replies, 50);
        assert_eq!(e.model().timeouts_fired, 0, "a cancelled timeout fired");
        // 50 arms + 50 replies; no timeouts.
        assert_eq!(e.events_processed(), 100);
    }

    /// Reschedule: a heartbeat timer pushed later every time traffic
    /// arrives, firing only after a quiet period.
    struct HeartbeatModel {
        deadline: Option<TimerHandle>,
        fired_at: Option<u64>,
    }

    enum HEv {
        Traffic,
        Quiet,
    }

    impl Model for HeartbeatModel {
        type Event = HEv;
        fn handle(&mut self, ev: HEv, ctx: &mut Ctx<'_, HEv>) {
            match ev {
                HEv::Traffic => {
                    let at = ctx.now() + SimDuration::from_micros(100);
                    self.deadline = Some(match self.deadline.take() {
                        None => ctx.schedule_timer_at(at, HEv::Quiet),
                        Some(h) => ctx
                            .reschedule_timer(h, at)
                            .expect("deadline timer is pending"),
                    });
                }
                HEv::Quiet => self.fired_at = Some(ctx.now().as_nanos()),
            }
        }
    }

    #[test]
    fn rescheduled_timer_fires_once_at_the_final_deadline() {
        let mut e = Engine::new(HeartbeatModel {
            deadline: None,
            fired_at: None,
        });
        for i in 0..10u64 {
            e.schedule_at(SimTime::from_micros(i * 10), HEv::Traffic);
        }
        assert_eq!(e.run(), RunOutcome::Drained);
        // Last traffic at 90 µs; quiet deadline 100 µs later.
        assert_eq!(e.model().fired_at, Some(190_000));
        assert_eq!(e.events_processed(), 11, "one deadline despite 10 arms");
    }

    #[test]
    fn engine_seeded_timer_can_be_cancelled_before_the_run() {
        let mut e = engine();
        let h = e.schedule_timer_at(SimTime::from_micros(1), Ev::Mark(1));
        e.schedule_at(SimTime::from_micros(2), Ev::Mark(2));
        assert!(e.cancel_timer(h).is_some());
        assert!(e.cancel_timer(h).is_none());
        assert_eq!(e.run(), RunOutcome::Drained);
        assert_eq!(e.model().seen, vec![(2_000, 2)]);
    }

    #[test]
    fn slab_leak_audit_runs_under_invariants() {
        use crate::invariants::{InvariantChecker, InvariantConfig};
        let mut e = engine();
        e.set_invariants(InvariantChecker::new(InvariantConfig::enabled()));
        e.schedule_at(SimTime::from_micros(1), Ev::Mark(1));
        assert_eq!(e.run(), RunOutcome::Drained);
        let inv = e.take_invariants();
        inv.assert_clean();
        assert!(inv.checks_performed() > 0);
    }

    #[test]
    fn invariant_checker_reports_an_event_scheduled_in_the_past() {
        use crate::invariants::{InvariantChecker, InvariantConfig};
        let mut e = engine();
        e.set_invariants(InvariantChecker::new(InvariantConfig::enabled()));
        e.schedule_at(SimTime::from_micros(5), Ev::Mark(0));
        e.run();
        assert_eq!(e.now(), SimTime::from_micros(5));
        // The test-only hook bypasses the schedule_at causality assert —
        // exactly the class of bug the checker exists to catch.
        e.schedule_at_unchecked(SimTime::from_micros(1), Ev::Mark(1));
        assert!(e.step(), "the past event is still processed");
        let inv = e.take_invariants();
        assert_eq!(inv.violations().len(), 1, "{}", inv.report());
        let v = &inv.violations()[0];
        assert_eq!(v.rule, "causality");
        assert!(
            v.detail.contains("before the clock"),
            "unexpected detail: {v}"
        );
        assert_eq!(e.now(), SimTime::from_micros(5), "clock never reverses");
    }

    #[test]
    fn enabled_invariants_leave_a_valid_run_untouched_and_clean() {
        use crate::invariants::{InvariantChecker, InvariantConfig};
        let run = |checked: bool| {
            let mut e = engine();
            if checked {
                e.set_invariants(InvariantChecker::new(InvariantConfig::enabled()));
            }
            e.schedule_at(
                SimTime::ZERO,
                Ev::Chain {
                    label: 3,
                    remaining: 50,
                    gap: SimDuration::from_nanos(13),
                },
            );
            for label in 0..10 {
                e.schedule_at(SimTime::from_nanos(65), Ev::Mark(label));
            }
            e.run();
            let inv = e.take_invariants();
            if checked {
                assert!(inv.checks_performed() > 0, "checker never ran");
                inv.assert_clean();
            }
            e.into_model().seen
        };
        assert_eq!(run(false), run(true), "invcheck must not perturb the run");
    }

    #[test]
    #[should_panic(expected = "schedule_at")]
    fn scheduling_in_the_past_panics() {
        let mut e = engine();
        e.schedule_at(SimTime::from_micros(5), Ev::Mark(0));
        e.run();
        e.schedule_at(SimTime::from_micros(1), Ev::Mark(1));
    }

    #[test]
    fn identical_runs_are_identical() {
        let run = || {
            let mut e = engine();
            e.schedule_at(
                SimTime::ZERO,
                Ev::Chain {
                    label: 1,
                    remaining: 100,
                    gap: SimDuration::from_nanos(7),
                },
            );
            e.schedule_at(
                SimTime::ZERO,
                Ev::Chain {
                    label: 2,
                    remaining: 100,
                    gap: SimDuration::from_nanos(11),
                },
            );
            e.run();
            e.into_model().seen
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::time::{SimDuration, SimTime};
    use proptest::prelude::*;

    /// Model that records firing times and spawns children per event.
    struct Recorder {
        fired: Vec<(u64, u32)>,
    }

    struct REv {
        label: u32,
        children: Vec<u64>, // delays in ns
    }

    impl Model for Recorder {
        type Event = REv;
        fn handle(&mut self, ev: REv, ctx: &mut Ctx<'_, REv>) {
            self.fired.push((ctx.now().as_nanos(), ev.label));
            for (i, d) in ev.children.iter().enumerate() {
                ctx.schedule_in(
                    SimDuration::from_nanos(*d),
                    REv {
                        label: ev.label * 31 + i as u32 + 1,
                        children: vec![],
                    },
                );
            }
        }
    }

    proptest! {
        /// The clock never goes backwards, every seeded event fires, and
        /// two identical runs are identical.
        #[test]
        fn firing_order_is_monotone_and_deterministic(
            seeds in proptest::collection::vec((0u64..1_000_000, proptest::collection::vec(0u64..10_000, 0..4)), 1..50)
        ) {
            let run = || {
                let mut e = Engine::new(Recorder { fired: Vec::new() });
                for (i, (at, children)) in seeds.iter().enumerate() {
                    e.schedule_at(
                        SimTime::from_nanos(*at),
                        REv { label: i as u32, children: children.clone() },
                    );
                }
                prop_assert_eq!(e.run(), RunOutcome::Drained);
                Ok(e.into_model().fired)
            };
            let a = run()?;
            let b = run()?;
            prop_assert_eq!(&a, &b, "identical runs must be identical");
            let spawned: usize = seeds.iter().map(|(_, c)| c.len()).sum();
            prop_assert_eq!(a.len(), seeds.len() + spawned, "every event fires exactly once");
            for pair in a.windows(2) {
                prop_assert!(pair[0].0 <= pair[1].0, "clock went backwards");
            }
        }

        /// run_until splits a run without changing what fires by the end.
        #[test]
        fn run_until_is_equivalent_to_run(
            seeds in proptest::collection::vec(0u64..1_000_000, 1..60),
            cut in 0u64..1_000_000,
        ) {
            let whole = {
                let mut e = Engine::new(Recorder { fired: Vec::new() });
                for (i, at) in seeds.iter().enumerate() {
                    e.schedule_at(SimTime::from_nanos(*at), REv { label: i as u32, children: vec![] });
                }
                e.run();
                e.into_model().fired
            };
            let split = {
                let mut e = Engine::new(Recorder { fired: Vec::new() });
                for (i, at) in seeds.iter().enumerate() {
                    e.schedule_at(SimTime::from_nanos(*at), REv { label: i as u32, children: vec![] });
                }
                e.run_until(SimTime::from_nanos(cut));
                e.run();
                e.into_model().fired
            };
            prop_assert_eq!(whole, split);
        }
    }
}
