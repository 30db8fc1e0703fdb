//! Admission control for the centralized queue.
//!
//! §3.4.5's queuing cap bounds how much work the dispatcher will hold; what
//! happens *past* the cap is a policy choice this module makes explicit.
//! [`AdmissionPolicy::TailDrop`] silently discards the overflow the way a
//! full hardware ring does — the client only learns via timeout.
//! [`AdmissionPolicy::NackShed`] spends a response-path frame to tell the
//! client immediately (an early NACK), trading wire bytes for a much faster
//! client reaction than a timeout. [`AdmissionPolicy::Open`] is the
//! pre-fault-injection behaviour: the central queue grows without bound.

/// What the dispatcher does when a new request arrives while the central
/// queue is at its admission cap.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Admit everything; the central queue is unbounded (legacy default).
    #[default]
    Open,
    /// Silently drop requests arriving while `cap` requests are queued.
    TailDrop {
        /// Maximum central-queue length.
        cap: usize,
    },
    /// Shed requests over `cap`, answering each with an early NACK so the
    /// client can back off before its timeout fires.
    NackShed {
        /// Maximum central-queue length.
        cap: usize,
    },
}

/// The verdict for one arriving request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Enqueue the request.
    Accept,
    /// Discard it without telling anyone.
    ShedSilent,
    /// Discard it and send the client a NACK.
    ShedNack,
}

impl AdmissionPolicy {
    /// Decide the fate of a request arriving while `queue_len` requests
    /// sit in the central queue.
    pub fn admit(&self, queue_len: usize) -> Admission {
        match *self {
            AdmissionPolicy::Open => Admission::Accept,
            AdmissionPolicy::TailDrop { cap } => {
                if queue_len < cap {
                    Admission::Accept
                } else {
                    Admission::ShedSilent
                }
            }
            AdmissionPolicy::NackShed { cap } => {
                if queue_len < cap {
                    Admission::Accept
                } else {
                    Admission::ShedNack
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_always_accepts() {
        assert_eq!(AdmissionPolicy::Open.admit(usize::MAX), Admission::Accept);
    }

    #[test]
    fn tail_drop_cuts_at_cap() {
        let p = AdmissionPolicy::TailDrop { cap: 4 };
        assert_eq!(p.admit(3), Admission::Accept);
        assert_eq!(p.admit(4), Admission::ShedSilent);
    }

    #[test]
    fn nack_shed_notifies() {
        let p = AdmissionPolicy::NackShed { cap: 2 };
        assert_eq!(p.admit(1), Admission::Accept);
        assert_eq!(p.admit(2), Admission::ShedNack);
    }
}
