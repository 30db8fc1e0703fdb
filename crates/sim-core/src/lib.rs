//! # sim-core — deterministic discrete-event simulation engine
//!
//! The foundation of the `mindgap` reproduction of *"Mind the Gap: A Case
//! for Informed Request Scheduling at the NIC"* (HotNets '19). Everything
//! above this crate — NIC models, CPU models, schedulers, full systems — is
//! expressed as a [`Model`]: a single state machine handling a typed event
//! alphabet on a nanosecond virtual clock.
//!
//! Design rules (borrowed from the event-driven network-stack idiom):
//!
//! * **No threads, no async.** One engine, one model, one heap. Determinism
//!   is a feature: every figure in the paper regenerates bit-for-bit.
//! * **Total order.** Simultaneous events fire in insertion order.
//! * **Explicit randomness.** All stochastic behaviour draws from seeded,
//!   forkable [`Rng`] streams.
//! * **Measure state over time.** Utilization and queue depth use
//!   time-weighted integrals, latency uses log-linear histograms with a
//!   bounded relative error.
//!
//! # Example
//!
//! A one-server queue in a dozen lines:
//!
//! ```
//! use sim_core::{Ctx, Engine, Model, SimDuration, SimTime};
//!
//! struct Server { completed: u32 }
//! enum Ev { Arrive, Finish }
//!
//! impl Model for Server {
//!     type Event = Ev;
//!     fn handle(&mut self, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
//!         match ev {
//!             Ev::Arrive => ctx.schedule_in(SimDuration::from_micros(5), Ev::Finish),
//!             Ev::Finish => self.completed += 1,
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(Server { completed: 0 });
//! engine.schedule_at(SimTime::ZERO, Ev::Arrive);
//! engine.run();
//! assert_eq!(engine.model().completed, 1);
//! assert_eq!(engine.now(), SimTime::from_micros(5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod faults;
pub mod idtable;
pub mod invariants;
pub mod probe;
pub mod queue;
mod rng;
pub mod stats;
mod time;
mod wheel;

pub use engine::{Ctx, Engine, Model};
pub use faults::{FaultConfig, MAX_FAULT_EVENTS};
pub use idtable::IdTable;
pub use invariants::{InvariantChecker, InvariantConfig, Violation};
pub use probe::{Probe, ProbeConfig, ProbeHandle, StageReport, TraceEvent};
pub use queue::{EventQueue, LegacyHeap, TimerHandle};
pub use rng::Rng;
pub use time::{SimDuration, SimTime};
