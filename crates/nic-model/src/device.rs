//! The NIC device: interfaces, MAC/SR-IOV steering, and DMA cost.
//!
//! The Stingray "presents network interfaces, each with a unique MAC
//! address, to both the host server CPU and the ARM CPU. When a packet
//! arrives, it is steered to the proper CPU based on the MAC address in the
//! Ethernet header" (§3.3), and "SR-IOV is used to create enough virtual
//! network interfaces such that there is one virtual interface per worker"
//! (§3.4.2). [`NicDevice`] models exactly that: a MAC-keyed interface
//! table, per-interface RX rings, optional multi-queue RSS / Flow Director
//! steering within an interface, and the PCIe DMA latency a frame pays
//! between the wire and host memory.

use std::collections::BTreeMap;

use net_wire::{EthernetAddress, FrameHeader};
use sim_core::SimDuration;

use crate::flow_director::{FlowDirector, FlowKey};
use crate::ring::Ring;
use crate::rss::Rss;

/// Identifies an interface (physical function or SR-IOV VF) on the device.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct IfaceId(pub u32);

/// How a multi-queue interface spreads frames across its RX queues.
#[derive(Debug)]
pub enum QueueSteering {
    /// Single queue: everything lands in queue 0.
    Single,
    /// RSS over the 4-tuple.
    Rss(Rss),
    /// Flow Director exact-match with RSS fallback for unmatched flows.
    FlowDirector {
        /// The exact-match table.
        table: FlowDirector,
        /// Fallback for flows without a rule.
        fallback: Rss,
    },
}

/// One interface: MAC identity, RX queues, and a steering mode.
#[derive(Debug)]
pub struct Iface {
    /// The interface MAC address.
    pub mac: EthernetAddress,
    /// RX descriptor rings.
    pub rx: Vec<Ring>,
    /// Queue-selection policy.
    pub steering: QueueSteering,
}

impl Iface {
    /// Queue index this frame steers to.
    fn select_queue(&mut self, frame: &impl FrameHeader) -> usize {
        match &mut self.steering {
            QueueSteering::Single => 0,
            QueueSteering::Rss(rss) => {
                let (sip, dip, sp, dp) = frame.four_tuple();
                rss.steer(sip, dip, sp, dp) as usize % self.rx.len()
            }
            QueueSteering::FlowDirector { table, fallback } => {
                let key = FlowKey {
                    src: frame.src(),
                    dst: frame.dst(),
                };
                match table.steer(&key) {
                    Some(q) => q as usize % self.rx.len(),
                    None => {
                        let (sip, dip, sp, dp) = frame.four_tuple();
                        fallback.steer(sip, dip, sp, dp) as usize % self.rx.len()
                    }
                }
            }
        }
    }
}

/// Where the device decided a frame goes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SteerDecision {
    /// Target interface.
    pub iface: IfaceId,
    /// Target RX queue within the interface.
    pub queue: usize,
}

/// The NIC device model.
#[derive(Debug)]
pub struct NicDevice {
    ifaces: Vec<Iface>,
    // Ordered map: MAC lookups are point queries today, but an ordered
    // table guarantees any future iteration (dump, broadcast) is
    // deterministic.
    mac_table: BTreeMap<EthernetAddress, IfaceId>,
    /// One-way DMA latency between the device and host memory over PCIe.
    pub dma_latency: SimDuration,
    /// Frames whose destination MAC matched no interface.
    pub unmatched_drops: u64,
}

impl NicDevice {
    /// A device with the given PCIe DMA latency and no interfaces.
    pub fn new(dma_latency: SimDuration) -> NicDevice {
        NicDevice {
            ifaces: Vec::new(),
            mac_table: BTreeMap::new(),
            dma_latency,
            unmatched_drops: 0,
        }
    }

    /// Add an interface (PF or SR-IOV VF) with `queues` RX rings of
    /// `ring_capacity` descriptors each.
    ///
    /// # Panics
    /// Panics if the MAC is already registered — VF MACs must be unique,
    /// that is the whole steering mechanism.
    pub fn add_iface(
        &mut self,
        mac: EthernetAddress,
        queues: usize,
        ring_capacity: usize,
        steering: QueueSteering,
    ) -> IfaceId {
        assert!(queues > 0, "an interface needs at least one queue");
        let id = IfaceId(self.ifaces.len() as u32);
        let previous = self.mac_table.insert(mac, id);
        assert!(previous.is_none(), "duplicate interface MAC {mac}");
        self.ifaces.push(Iface {
            mac,
            rx: (0..queues).map(|_| Ring::new(ring_capacity)).collect(),
            steering,
        });
        id
    }

    /// Steer a frame, typed or parsed, by destination MAC (and
    /// intra-interface steering). `None` means no interface owns the MAC;
    /// the frame is dropped and counted.
    pub fn steer(&mut self, frame: &impl FrameHeader) -> Option<SteerDecision> {
        match self.mac_table.get(&frame.dst_mac()) {
            Some(&id) => {
                let queue = self.ifaces[id.0 as usize].select_queue(frame);
                Some(SteerDecision { iface: id, queue })
            }
            None => {
                self.unmatched_drops += 1;
                None
            }
        }
    }

    /// Access an interface.
    pub fn iface(&self, id: IfaceId) -> &Iface {
        &self.ifaces[id.0 as usize]
    }

    /// Mutable access to an interface (to push/pop its rings).
    pub fn iface_mut(&mut self, id: IfaceId) -> &mut Iface {
        &mut self.ifaces[id.0 as usize]
    }

    /// Number of interfaces.
    pub fn iface_count(&self) -> usize {
        self.ifaces.len()
    }

    /// Audit every RX ring of every interface (occupancy bounds and frame
    /// conservation), reporting violations through `inv`. Called from
    /// [`sim_core::Model::check_invariants`] implementations on invcheck
    /// runs; pure observation, never mutates.
    pub fn check_invariants(&self, now: sim_core::SimTime, inv: &mut sim_core::InvariantChecker) {
        for iface in &self.ifaces {
            for ring in &iface.rx {
                ring.check_invariants(now, inv);
            }
        }
    }

    /// Total frames dropped across every ring of every interface plus
    /// unmatched-MAC drops.
    pub fn total_drops(&self) -> u64 {
        self.unmatched_drops
            + self
                .ifaces
                .iter()
                .flat_map(|i| i.rx.iter())
                .map(|r| r.dropped)
                .sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_wire::{Endpoint, FrameSpec, Ipv4Address, MsgRepr, ParsedFrame};

    fn mac(n: u8) -> EthernetAddress {
        EthernetAddress::new(2, 0, 0, 0, 0, n)
    }

    fn frame_to(dst: EthernetAddress, src_port: u16) -> ParsedFrame {
        let spec = FrameSpec {
            src_mac: mac(99),
            dst_mac: dst,
            src: Endpoint::new(Ipv4Address::new(10, 0, 0, 1), src_port),
            dst: Endpoint::new(Ipv4Address::new(10, 0, 0, 2), 6000),
            msg: MsgRepr::request(1, 1, 1000, 0, 22),
        };
        ParsedFrame::parse(&spec.build()).unwrap()
    }

    #[test]
    fn mac_steering_selects_interface() {
        let mut dev = NicDevice::new(SimDuration::from_nanos(900));
        let a = dev.add_iface(mac(1), 1, 64, QueueSteering::Single);
        let b = dev.add_iface(mac(2), 1, 64, QueueSteering::Single);
        assert_eq!(dev.steer(&frame_to(mac(1), 5)).unwrap().iface, a);
        assert_eq!(dev.steer(&frame_to(mac(2), 5)).unwrap().iface, b);
        assert_eq!(dev.iface_count(), 2);
    }

    #[test]
    fn unmatched_mac_dropped_and_counted() {
        let mut dev = NicDevice::new(SimDuration::ZERO);
        dev.add_iface(mac(1), 1, 64, QueueSteering::Single);
        assert_eq!(dev.steer(&frame_to(mac(7), 5)), None);
        assert_eq!(dev.unmatched_drops, 1);
        assert_eq!(dev.total_drops(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate interface MAC")]
    fn duplicate_mac_rejected() {
        let mut dev = NicDevice::new(SimDuration::ZERO);
        dev.add_iface(mac(1), 1, 64, QueueSteering::Single);
        dev.add_iface(mac(1), 1, 64, QueueSteering::Single);
    }

    #[test]
    fn rss_interface_spreads_flows() {
        let mut dev = NicDevice::new(SimDuration::ZERO);
        let id = dev.add_iface(mac(1), 4, 64, QueueSteering::Rss(Rss::new(4)));
        let mut seen = std::collections::BTreeSet::new();
        for port in 0..512 {
            let d = dev.steer(&frame_to(mac(1), port)).unwrap();
            assert_eq!(d.iface, id);
            seen.insert(d.queue);
        }
        assert_eq!(seen.len(), 4, "all queues should receive flows");
    }

    #[test]
    fn flow_director_overrides_rss() {
        let mut dev = NicDevice::new(SimDuration::ZERO);
        let mut table = FlowDirector::new(8);
        let probe = frame_to(mac(1), 77);
        table.install(
            FlowKey {
                src: probe.src(),
                dst: probe.dst(),
            },
            2,
        );
        dev.add_iface(
            mac(1),
            4,
            64,
            QueueSteering::FlowDirector {
                table,
                fallback: Rss::new(4),
            },
        );
        let d = dev.steer(&frame_to(mac(1), 77)).unwrap();
        assert_eq!(d.queue, 2, "rule hit steers to the pinned queue");
        // Flow without a rule falls back to RSS deterministically.
        let d1 = dev.steer(&frame_to(mac(1), 78)).unwrap();
        let d2 = dev.steer(&frame_to(mac(1), 78)).unwrap();
        assert_eq!(d1.queue, d2.queue);
    }

    #[test]
    fn ring_drops_count_in_totals() {
        let mut dev = NicDevice::new(SimDuration::ZERO);
        let id = dev.add_iface(mac(1), 1, 1, QueueSteering::Single);
        let spec = frame_to(mac(1), 5).to_spec();
        let now = sim_core::SimTime::ZERO;
        assert!(dev.iface_mut(id).rx[0].push(now, spec));
        assert!(!dev.iface_mut(id).rx[0].push(now, spec));
        assert_eq!(dev.total_drops(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use net_wire::{Endpoint, FrameSpec, Ipv4Address, MsgRepr, ParsedFrame};
    use proptest::prelude::*;

    fn mac(n: u8) -> EthernetAddress {
        EthernetAddress::new(2, 0, 0, 0, 0, n)
    }

    /// One interface of each steering mode, four queues where there are
    /// queues to choose from, behind distinct MACs 1–3.
    fn device() -> NicDevice {
        let mut dev = NicDevice::new(SimDuration::ZERO);
        dev.add_iface(mac(1), 1, 8, QueueSteering::Single);
        dev.add_iface(mac(2), 4, 8, QueueSteering::Rss(Rss::new(4)));
        let mut table = FlowDirector::new(64);
        for port in 0..32u16 {
            let key = FlowKey {
                src: Endpoint::new(Ipv4Address::new(10, 0, 0, 1), 7000 + port),
                dst: Endpoint::new(Ipv4Address::new(10, 0, 1, 0), 6000),
            };
            table.install(key, u32::from(port) % 4);
        }
        let fallback = Rss::new(4);
        dev.add_iface(
            mac(3),
            4,
            8,
            QueueSteering::FlowDirector { table, fallback },
        );
        dev
    }

    proptest! {
        /// Steering reads only header fields, so a typed frame and its
        /// parsed bytes go to the same interface and queue on every
        /// steering mode, including frames no interface owns.
        #[test]
        fn typed_and_parsed_frames_steer_alike(
            dst in 0u8..5, sip in prop_oneof![Just([10u8, 0, 0, 1]), any::<[u8; 4]>()],
            sport in 7000u16..7064,
            dport in prop_oneof![Just(6000u16), any::<u16>()], body in 0u16..1024,
        ) {
            let spec = FrameSpec {
                src_mac: mac(99),
                dst_mac: mac(dst),
                src: Endpoint::new(Ipv4Address(sip), sport),
                dst: Endpoint::new(Ipv4Address::new(10, 0, 1, 0), dport),
                msg: MsgRepr::request(1, 1, 1_000, 0, body),
            };
            let parsed = ParsedFrame::parse(&spec.build()).unwrap();
            let mut dev = device();
            prop_assert_eq!(dev.steer(&spec), dev.steer(&parsed));
        }
    }
}
