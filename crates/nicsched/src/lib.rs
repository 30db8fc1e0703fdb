//! # nicsched — informed request scheduling (the paper's contribution)
//!
//! The placement-independent core of *"Mind the Gap: A Case for Informed
//! Request Scheduling at the NIC"* (HotNets '19):
//!
//! * [`Task`] — the scheduler's view of a request (identity + remaining
//!   work across preemptions).
//! * [`SchedPolicy`] — the programmable scheduling surface, sched_ext
//!   style: queue hooks ([`Fcfs`] is the paper's policy) plus
//!   [`pick_next`](SchedPolicy::pick_next) worker binding,
//!   [`feedback`](SchedPolicy::feedback) consumption, and
//!   [`should_preempt`](SchedPolicy::should_preempt) slice grants.
//!   Implementations: [`Fcfs`], [`Dfcfs`], [`ShortestRemaining`],
//!   [`Srpt`], [`Edf`], [`ClassPriority`], [`WeightedFair`].
//! * [`PolicySpec`] — the closed table of shipped policies as a `Copy`
//!   value that owns its parameters, with a spec grammar (`"fcfs"`,
//!   `"edf:deadline=50us"`, `"wfq:w=4,1,1"`) that configs and CLIs name
//!   policies by; [`PolicySpec::NAMES`] lists the accepted names.
//! * [`CoreSelector`] — programmable worker selection
//!   ([`LeastOutstanding`], [`SocketAffinity`]).
//! * [`Dispatcher`] — the centralized, preemptive dispatcher: queuing,
//!   selection, and the §3.4.5 outstanding-requests cap ("queuing
//!   optimization"). The same state machine runs on a host core
//!   (`systems::shinjuku`), on SmartNIC ARM cores (`systems::offload`),
//!   or in a line-rate ASIC model (the same offload assembly with
//!   [`NicProfile::ideal`] as its profile).
//! * [`FeedbackChannel`] — the fine-grained core-status feedback path
//!   whose latency is the "gap" of the title.
//! * [`HealthTracker`] / [`RecoveryPolicy`] — NIC-side failure detection:
//!   a deterministic lease/heartbeat discipline (a worker is Healthy or
//!   Suspected; activity readmits) that lets the dispatcher reclaim and re-dispatch
//!   requests orphaned on a failed worker instead of waiting for the
//!   client's retry timeout, with exactly-once completion accounting for
//!   the false-positive case.
//! * [`NicProfile`] — one point in the §5.1 hardware design space
//!   (compute × transport × interrupt path).
//! * [`params`] — every calibration constant, paper-sourced or fitted,
//!   in one place.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod disciplines;
mod dispatcher;
mod feedback;
pub mod params;
mod policy;
mod profile;
mod recovery;
mod select;
mod spec;
mod task;

pub use disciplines::{Dfcfs, Edf, Srpt, WeightedFair};
pub use dispatcher::{Assignment, DispatchStats, Dispatcher};
pub use feedback::{CoreFeedback, FeedbackChannel};
pub use policy::{
    ClassPriority, Fcfs, FeedbackEvent, Pick, PreemptDecision, RunningTask, SchedPolicy,
    ShortestRemaining,
};
pub use profile::{NicProfile, SchedCompute};
pub use recovery::{HealthTracker, RecoveryPolicy, RecoveryStats};
pub use select::{CoreSelector, LeastOutstanding, SocketAffinity, WorkerView};
pub use spec::{fmt_duration, parse_duration, LaneWeights, PolicyError, PolicySpec};
pub use task::Task;
