//! The scheduler's view of one in-flight request.

use sim_core::{SimDuration, SimTime};

use crate::policy::PreemptDecision;

/// A request as the dispatcher sees it: identity plus remaining work.
///
/// Created when the networking subsystem parses a request packet; carried
/// through the centralized queue; updated on preemption ("the dispatcher
/// adds the request to the end of the task queue", §3.4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Task {
    /// Client-assigned request id.
    pub req_id: u64,
    /// Originating client.
    pub client_id: u32,
    /// Total intrinsic service time.
    pub service: SimDuration,
    /// Service time still owed (decreases across preemptions).
    pub remaining: SimDuration,
    /// Client send timestamp (wire-carried, for end-to-end latency).
    pub sent_at: SimTime,
    /// When the scheduler first saw this request.
    pub arrived_at: SimTime,
    /// Message body padding length (affects packet sizes on every hop).
    pub body_len: u16,
    /// Times this task has been preempted so far.
    pub preemptions: u32,
    /// The policy's slice grant for the *current* dispatch, stamped by the
    /// dispatcher when the task is assigned. Workers resolve it against
    /// their configured slice; `Inherit` (the default) reproduces the
    /// paper's static timer.
    pub preempt: PreemptDecision,
}

impl Task {
    /// A fresh task with all of its service remaining.
    pub fn new(
        req_id: u64,
        client_id: u32,
        service: SimDuration,
        sent_at: SimTime,
        arrived_at: SimTime,
        body_len: u16,
    ) -> Task {
        Task {
            req_id,
            client_id,
            service,
            remaining: service,
            sent_at,
            arrived_at,
            body_len,
            preemptions: 0,
            preempt: PreemptDecision::Inherit,
        }
    }

    /// Run the task for one slice: subtract `ran` from the remaining work
    /// and count a preemption. Saturates at zero.
    pub fn after_preemption(mut self, ran: SimDuration) -> Task {
        self.remaining = self.remaining.saturating_sub(ran);
        self.preemptions += 1;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task() -> Task {
        Task::new(
            1,
            2,
            SimDuration::from_micros(25),
            SimTime::from_micros(10),
            SimTime::from_micros(12),
            64,
        )
    }

    #[test]
    fn fresh_task_owes_everything() {
        let t = task();
        assert_eq!(t.remaining, t.service);
        assert_eq!(t.preemptions, 0);
    }

    #[test]
    fn preemption_subtracts_and_counts() {
        let t = task().after_preemption(SimDuration::from_micros(10));
        assert_eq!(t.remaining, SimDuration::from_micros(15));
        assert_eq!(t.preemptions, 1);
        let t = t.after_preemption(SimDuration::from_micros(10));
        assert_eq!(t.remaining, SimDuration::from_micros(5));
        assert_eq!(t.preemptions, 2);
    }

    #[test]
    fn over_run_saturates() {
        let t = task().after_preemption(SimDuration::from_micros(100));
        assert_eq!(t.remaining, SimDuration::ZERO);
    }

    #[test]
    fn identity_survives_preemption() {
        let t = task().after_preemption(SimDuration::from_micros(10));
        assert_eq!(t.req_id, 1);
        assert_eq!(t.sent_at, SimTime::from_micros(10));
        assert_eq!(t.service, SimDuration::from_micros(25));
    }
}
