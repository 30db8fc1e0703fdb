//! Point-to-point link model: serialization + propagation delay.
//!
//! The evaluation uses dual-port 10 GbE (§3.3). A link transmits one frame
//! at a time: a frame of `n` wire bytes occupies the link for `n * 8 /
//! bandwidth` seconds (wire bytes include preamble, FCS, minimum-frame
//! padding and the inter-frame gap — see [`net_wire::ethernet::wire_occupancy`]),
//! then arrives `propagation` later. Back-to-back sends queue behind each
//! other, which is how the simulation develops honest congestion at high
//! offered load.

use net_wire::ethernet::wire_occupancy;
use sim_core::{Rng, SimDuration, SimTime};

/// A unidirectional link with finite bandwidth.
#[derive(Debug, Clone)]
pub struct Link {
    bits_per_sec: u64,
    propagation: SimDuration,
    /// The instant the transmitter becomes free.
    next_free: SimTime,
    /// Frames transmitted.
    pub frames: u64,
    /// Wire bytes transmitted (including framing overhead).
    pub wire_bytes: u64,
    /// Per-frame corruption/loss probability and its RNG stream.
    loss: Option<(f64, Rng)>,
    /// Frames lost to corruption.
    pub lost: u64,
}

impl Link {
    /// A link with the given bandwidth and propagation delay.
    pub fn new(bits_per_sec: u64, propagation: SimDuration) -> Link {
        assert!(bits_per_sec > 0, "link bandwidth must be positive");
        Link {
            bits_per_sec,
            propagation,
            next_free: SimTime::ZERO,
            frames: 0,
            wire_bytes: 0,
            loss: None,
            lost: 0,
        }
    }

    /// Add a per-frame loss probability (bit errors, switch drops) drawn
    /// from a deterministic stream. Lossy frames still occupy the wire —
    /// they are corrupted in flight, not suppressed at the sender.
    pub fn with_loss(mut self, probability: f64, rng: Rng) -> Link {
        assert!(
            (0.0..=1.0).contains(&probability),
            "loss probability out of range"
        );
        self.loss = Some((probability, rng));
        self
    }

    /// 10 GbE with in-rack propagation (cable + PHY, ~500 ns — kept in
    /// sync with `nicsched::params::NETWORK_PROPAGATION`).
    pub fn ten_gbe() -> Link {
        Link::new(10_000_000_000, SimDuration::from_nanos(500))
    }

    /// Serialization time for a frame whose Ethernet *payload* (IP packet)
    /// is `payload_len` bytes.
    pub fn serialization(&self, payload_len: usize) -> SimDuration {
        let wire_bits = wire_occupancy(payload_len) as u64 * 8;
        let bits = wire_bits as f64;
        let rate = self.bits_per_sec as f64;
        SimDuration::from_secs_f64(bits / rate)
    }

    /// Transmit a frame whose Ethernet payload is `payload_len` bytes at
    /// `now`; returns the instant the frame is fully received at the far
    /// end. Transmissions serialize: a busy link delays the frame.
    /// (Loss-free variant; see [`Link::transmit_lossy`].)
    pub fn transmit(&mut self, now: SimTime, payload_len: usize) -> SimTime {
        let start = if self.next_free > now {
            self.next_free
        } else {
            now
        };
        let ser = self.serialization(payload_len);
        self.next_free = start + ser;
        self.frames += 1;
        self.wire_bytes += wire_occupancy(payload_len) as u64;
        self.next_free + self.propagation
    }

    /// Like [`Link::transmit`], but the frame may be corrupted in flight
    /// when the link was built [`Link::with_loss`]: `None` means the
    /// receiver never sees a valid frame (its FCS check fails and the NIC
    /// discards it silently — the behaviour real hardware has).
    pub fn transmit_lossy(&mut self, now: SimTime, payload_len: usize) -> Option<SimTime> {
        let arrival = self.transmit(now, payload_len);
        if let Some((p, rng)) = &mut self.loss {
            if rng.chance(*p) {
                self.lost += 1;
                return None;
            }
        }
        Some(arrival)
    }

    /// Link utilization over `[0, now]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        let busy = (self.wire_bytes * 8) as f64 / self.bits_per_sec as f64;
        (busy / now.as_secs_f64()).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_gbe_serialization_of_small_request() {
        let link = Link::ten_gbe();
        // 148-byte payload (64B-body request): wire = 8+14+148+4+12 = 186 B
        // = 1488 bits = 148.8 ns at 10 Gb/s.
        let ser = link.serialization(148);
        assert_eq!(ser.as_nanos(), 149);
    }

    #[test]
    fn arrival_includes_propagation() {
        let mut link = Link::new(1_000_000_000, SimDuration::from_micros(1));
        // 100-byte payload: wire = 138 B = 1104 bits = 1104 ns at 1 Gb/s.
        let arrive = link.transmit(SimTime::ZERO, 100);
        assert_eq!(arrive.as_nanos(), 1104 + 1000);
    }

    #[test]
    fn back_to_back_frames_queue() {
        let mut link = Link::new(1_000_000_000, SimDuration::ZERO);
        let a1 = link.transmit(SimTime::ZERO, 100); // finishes at 1104ns
        let a2 = link.transmit(SimTime::ZERO, 100); // must wait
        assert_eq!(a2.as_nanos(), a1.as_nanos() * 2);
        assert_eq!(link.frames, 2);
    }

    #[test]
    fn idle_gaps_are_not_carried_forward() {
        let mut link = Link::new(1_000_000_000, SimDuration::ZERO);
        link.transmit(SimTime::ZERO, 100);
        let late = SimTime::from_millis(1);
        let arrive = link.transmit(late, 100);
        assert_eq!(arrive, late + link.serialization(100));
    }

    #[test]
    fn utilization_accounting() {
        let mut link = Link::new(1_000_000_000, SimDuration::ZERO);
        // One 138-wire-byte frame in 11.04us ≈ 10% utilization.
        link.transmit(SimTime::ZERO, 100);
        let u = link.utilization(SimTime::from_nanos(11_040));
        assert!((u - 0.1).abs() < 0.001, "utilization {u}");
    }

    #[test]
    fn lossless_link_never_drops() {
        let mut link = Link::ten_gbe();
        for i in 0..100 {
            assert!(link.transmit_lossy(SimTime::from_micros(i), 100).is_some());
        }
        assert_eq!(link.lost, 0);
    }

    #[test]
    fn lossy_link_drops_at_the_configured_rate() {
        let mut link = Link::ten_gbe().with_loss(0.01, Rng::new(7));
        let mut delivered = 0;
        let n = 100_000;
        for i in 0..n {
            if link.transmit_lossy(SimTime::from_micros(i), 100).is_some() {
                delivered += 1;
            }
        }
        let rate = link.lost as f64 / n as f64;
        assert!((0.007..0.013).contains(&rate), "loss rate {rate}");
        assert_eq!(delivered + link.lost, n);
        // Lost frames still occupied the wire.
        assert_eq!(link.frames, n);
    }

    #[test]
    fn loss_is_deterministic_per_seed() {
        let run = || {
            let mut link = Link::ten_gbe().with_loss(0.05, Rng::new(3));
            (0..1000)
                .map(|i| link.transmit_lossy(SimTime::from_micros(i), 64).is_some())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn invalid_loss_rejected() {
        let _ = Link::ten_gbe().with_loss(1.5, Rng::new(1));
    }

    #[test]
    fn min_frame_padding_counts_against_the_wire() {
        let link = Link::ten_gbe();
        // 1-byte and 46-byte payloads occupy identical wire time.
        assert_eq!(link.serialization(1), link.serialization(46));
    }
}
