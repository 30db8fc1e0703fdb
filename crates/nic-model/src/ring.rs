//! RX/TX descriptor ring model.
//!
//! Every interface in the system — each worker's SR-IOV virtual function,
//! the dispatcher's ARM-side interface, the external port — owns descriptor
//! rings. A ring has a fixed descriptor count; when it is full the hardware
//! drops the frame (tail drop), which is exactly the overload behaviour the
//! queuing optimization (§3.4.5) must not trip over: the dispatcher stashes
//! only a bounded number of outstanding requests in each worker's RX ring.
//!
//! The ring records an enqueue timestamp per frame so consumers can account
//! HW-queueing delay separately from software processing. Slots hold the
//! typed frame, not its bytes, and grow with the ring's occupancy instead
//! of being allocated for every descriptor up front: a 1,024-descriptor
//! ring that never holds more than a few frames costs a few slots.

use std::collections::VecDeque;

use net_wire::FrameSpec;
use sim_core::SimTime;

/// One queued frame with its hardware arrival timestamp.
#[derive(Debug, Clone, Copy)]
pub struct RxFrame {
    /// The frame.
    pub spec: FrameSpec,
    /// When the NIC placed the frame in the ring.
    pub enqueued_at: SimTime,
}

/// A fixed-capacity descriptor ring with tail-drop semantics.
#[derive(Debug)]
pub struct Ring {
    frames: VecDeque<RxFrame>,
    capacity: usize,
    /// Frames accepted.
    pub enqueued: u64,
    /// Frames dequeued by software.
    pub popped: u64,
    /// Frames dropped because the ring was full.
    pub dropped: u64,
    /// Occupancy high-water mark.
    pub peak: usize,
}

impl Ring {
    /// A ring with `capacity` descriptors (hardware commonly uses 512–4096).
    pub fn new(capacity: usize) -> Ring {
        assert!(capacity > 0, "ring capacity must be positive");
        Ring {
            frames: VecDeque::new(),
            capacity,
            enqueued: 0,
            popped: 0,
            dropped: 0,
            peak: 0,
        }
    }

    /// Descriptor count the ring was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Audit this ring's occupancy bound and frame conservation at `now`,
    /// reporting violations through `inv`. Pure observation: safe to call
    /// on every event of an invcheck run.
    pub fn check_invariants(&self, now: SimTime, inv: &mut sim_core::InvariantChecker) {
        inv.check_bound(
            now,
            "nic.ring",
            self.frames.len() as u64,
            self.capacity as u64,
        );
        inv.check_bound(now, "nic.ring.peak", self.peak as u64, self.capacity as u64);
        inv.check_conservation(
            now,
            "nic.ring frames (enqueued = popped + resident)",
            self.enqueued,
            self.popped + self.frames.len() as u64,
        );
    }

    /// Hardware-side enqueue. Returns `false` (and counts a drop) when full.
    pub fn push(&mut self, now: SimTime, spec: FrameSpec) -> bool {
        if self.frames.len() >= self.capacity {
            self.dropped += 1;
            return false;
        }
        self.frames.push_back(RxFrame {
            spec,
            enqueued_at: now,
        });
        self.enqueued += 1;
        self.peak = self.peak.max(self.frames.len());
        true
    }

    /// Software-side dequeue of the oldest frame.
    pub fn pop(&mut self) -> Option<RxFrame> {
        let frame = self.frames.pop_front();
        self.popped += frame.is_some() as u64;
        frame
    }

    /// Frames currently queued.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when no frames are queued.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_wire::{Endpoint, EthernetAddress, Ipv4Address, MsgRepr};

    fn frame(n: u8) -> FrameSpec {
        FrameSpec {
            src_mac: EthernetAddress::new(2, 0, 0, 0, 0, 1),
            dst_mac: EthernetAddress::new(2, 0, 0, 0, 0, 2),
            src: Endpoint::new(Ipv4Address::new(10, 0, 0, 1), 7000),
            dst: Endpoint::new(Ipv4Address::new(10, 0, 0, 2), 6000),
            msg: MsgRepr::request(u64::from(n), 1, 1_000, 0, 0),
        }
    }

    fn id(f: RxFrame) -> u64 {
        f.spec.msg.req_id
    }

    fn us(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    #[test]
    fn fifo_order() {
        let mut r = Ring::new(4);
        for i in 0..3 {
            assert!(r.push(us(i as u64), frame(i)));
        }
        assert_eq!(id(r.pop().unwrap()), 0);
        assert_eq!(id(r.pop().unwrap()), 1);
        let last = r.pop().unwrap();
        assert_eq!((id(last), last.enqueued_at), (2, us(2)));
        assert!(r.pop().is_none());
    }

    #[test]
    fn tail_drop_when_full() {
        let mut r = Ring::new(2);
        assert!(r.push(us(0), frame(0)));
        assert!(r.push(us(0), frame(1)));
        assert!(!r.push(us(0), frame(2)), "third frame dropped");
        assert_eq!(r.dropped, 1);
        assert_eq!(r.enqueued, 2);
        assert_eq!(r.len(), 2);
        // The queued frames are the first two, not the dropped one.
        assert_eq!(id(r.pop().unwrap()), 0);
    }

    #[test]
    fn slots_grow_with_occupancy_not_capacity() {
        let mut r = Ring::new(1024);
        assert_eq!(
            r.frames.capacity(),
            0,
            "no descriptor is allocated up front"
        );
        r.push(us(0), frame(0));
        assert!(r.frames.capacity() < 1024);
    }

    #[test]
    fn occupancy_accounting() {
        let mut r = Ring::new(4);
        r.push(us(0), frame(0));
        r.push(us(0), frame(1));
        r.pop();
        r.push(us(0), frame(2));
        assert_eq!(r.peak, 2);
        assert_eq!(r.len(), 2);
        assert_eq!(r.popped, 1);
        assert_eq!(r.capacity(), 4);
    }

    #[test]
    fn invariant_audit_is_clean_and_conserves_frames() {
        use sim_core::{InvariantChecker, InvariantConfig};
        let mut r = Ring::new(2);
        r.push(us(0), frame(0));
        r.push(us(0), frame(1));
        r.push(us(0), frame(2)); // dropped
        r.pop();
        let mut inv = InvariantChecker::new(InvariantConfig::enabled());
        r.check_invariants(us(1), &mut inv);
        inv.assert_clean();
        assert_eq!(inv.checks_performed(), 3);
    }
}
