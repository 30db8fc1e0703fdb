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
//! # Stale events
//!
//! The engine schedules and never cancels. The one model event that can
//! become moot carries what identifies it: the client stamps each
//! per-attempt timeout with its attempt number and ignores a firing whose
//! attempt a retransmission has superseded. A worker's preemption slice
//! cannot go stale: it is a single run-end event at
//! `min(remaining, slice + overrun)`, and nothing starts the worker again
//! before it fires. The queue still offers O(1) cancellation through a
//! [`TimerHandle`](crate::queue::TimerHandle)
//! ([`EventQueue::push_handle`], [`EventQueue::cancel`],
//! [`EventQueue::reschedule`]) for code that drives it directly, and a run
//! that drains audits the queue's payload arena for leaked slots (debug
//! assert always; a `slab-leak` invariant violation when a checker is
//! installed).

use crate::faults::FaultConfig;
use crate::invariants::InvariantChecker;
use crate::probe::{Probe, ProbeHandle};
use crate::queue::EventQueue;
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
}

/// The discrete-event simulation engine.
pub struct Engine<M: Model> {
    queue: EventQueue<M::Event>,
    model: M,
    now: SimTime,
    processed: u64,
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

    /// Process a single event. Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
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
            probe: &mut self.probe,
            faults: &self.faults,
        };
        self.model.handle(event, &mut ctx);
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

    /// Run until the queue drains.
    pub fn run(&mut self) {
        while self.step() {}
        self.audit_drained();
    }

    /// Run until `horizon` (inclusive): every event with `time <= horizon`
    /// is processed. If events remain pending past it, the clock is
    /// advanced to the horizon itself; if the queue drains, the clock stays
    /// at the last event.
    pub fn run_until(&mut self, horizon: SimTime) {
        while let Some((at, seq, event)) = self.queue.pop_due(horizon) {
            self.dispatch(at, seq, event);
        }
        if self.queue.is_empty() {
            self.audit_drained();
        } else {
            self.now = horizon.max(self.now);
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
        e.run();
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
        e.run_until(SimTime::from_micros(4));
        assert_eq!(e.model().seen.len(), 4);
        assert_eq!(e.now(), SimTime::from_micros(4));
        assert_eq!(e.events_pending(), 6);
        // Continue to the end.
        e.run_until(SimTime::from_secs(1));
        assert_eq!(e.model().seen.len(), 10);
        assert_eq!(e.events_pending(), 0);
        assert_eq!(
            e.now(),
            SimTime::from_micros(10),
            "a drained run stays at its last event"
        );
    }

    #[test]
    fn slab_leak_audit_runs_under_invariants() {
        use crate::invariants::{InvariantChecker, InvariantConfig};
        let mut e = engine();
        e.set_invariants(InvariantChecker::new(InvariantConfig::enabled()));
        e.schedule_at(SimTime::from_micros(1), Ev::Mark(1));
        e.run();
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
                e.run();
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
