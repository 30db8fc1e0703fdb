//! Whole-frame assembly and disassembly.
//!
//! A hop in the simulated system carries a typed [`FrameSpec`]: every
//! field of the Ethernet → IPv4 → UDP → message frame the Stingray
//! prototype would put on the wire, and its exact length, without the
//! bytes. [`FrameSpec::build`] produces those bytes (checksums filled) and
//! [`ParsedFrame::parse`] validates all four layers; the simulator runs
//! them only at the codec's edge (tests, and every frame of an
//! invariant-checked run), where `parse(build(spec))` must give back the
//! spec. [`FrameHeader`] is what steering and the client read, from
//! either form.

use std::sync::Arc;

use bytes::Bytes;

use crate::addr::{Endpoint, EthernetAddress};
use crate::message::MsgRepr;
use crate::{ethernet, ipv4, udp, WireError};

/// The header fields the NIC steers on and the client reads, on a typed
/// frame ([`FrameSpec`]) and a parsed one ([`ParsedFrame`]) alike.
pub trait FrameHeader {
    /// Destination MAC.
    fn dst_mac(&self) -> EthernetAddress;
    /// Source UDP/IPv4 endpoint.
    fn src(&self) -> Endpoint;
    /// Destination UDP/IPv4 endpoint.
    fn dst(&self) -> Endpoint;
    /// The application message.
    fn msg(&self) -> &MsgRepr;

    /// The 4-tuple RSS hash input: (src ip, dst ip, src port, dst port).
    fn four_tuple(&self) -> ([u8; 4], [u8; 4], u16, u16) {
        let (src, dst) = (self.src(), self.dst());
        (src.addr.0, dst.addr.0, src.port, dst.port)
    }
}

/// Everything needed to build one request/response/control frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameSpec {
    /// Source MAC.
    pub src_mac: EthernetAddress,
    /// Destination MAC — on the Stingray this alone selects the receiving
    /// interface (host worker VF, ARM dispatcher, or external port).
    pub dst_mac: EthernetAddress,
    /// Source UDP/IPv4 endpoint.
    pub src: Endpoint,
    /// Destination UDP/IPv4 endpoint.
    pub dst: Endpoint,
    /// The application message.
    pub msg: MsgRepr,
}

impl FrameSpec {
    /// Total frame length in bytes (headers + message): the length
    /// [`FrameSpec::build`] returns, without building.
    pub fn frame_len(&self) -> usize {
        ethernet::HEADER_LEN + ipv4::HEADER_LEN + udp::HEADER_LEN + self.msg.buffer_len()
    }

    /// Build the complete frame, all checksums computed.
    ///
    /// # Panics
    /// Panics if the message body is longer than
    /// [`MAX_BODY_LEN`](crate::MAX_BODY_LEN), which the IPv4 and UDP
    /// length fields cannot carry.
    pub fn build(&self) -> Bytes {
        let msg_len = self.msg.buffer_len();
        let udp_repr = udp::Repr {
            src_port: self.src.port,
            dst_port: self.dst.port,
            payload_len: msg_len,
        };
        let ip_repr = ipv4::Repr {
            src_addr: self.src.addr,
            dst_addr: self.dst.addr,
            protocol: ipv4::Protocol::Udp,
            payload_len: udp_repr.buffer_len(),
            ttl: ipv4::Repr::DEFAULT_TTL,
        };
        let eth_repr = ethernet::Repr {
            src_addr: self.src_mac,
            dst_addr: self.dst_mac,
            ethertype: ethernet::EtherType::Ipv4,
        };

        // One allocation: the frame is written straight into the shared
        // buffer it is handed out in.
        let mut buf: Arc<[u8]> = std::iter::repeat(0).take(self.frame_len()).collect();
        let bytes = Arc::get_mut(&mut buf).expect("a fresh buffer is unshared");
        let mut frame = ethernet::Frame::new_unchecked(bytes);
        eth_repr.emit(&mut frame);

        let mut ip = ipv4::Packet::new_unchecked(frame.payload_mut());
        ip_repr.emit(&mut ip);

        let mut dgram = udp::Datagram::new_unchecked(ip.payload_mut());
        udp_repr.emit(&mut dgram);
        self.msg.emit(dgram.payload_mut());
        dgram.fill_checksum(self.src.addr, self.dst.addr);

        Bytes::from(buf)
    }
}

/// A fully validated frame: all four layers parsed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParsedFrame {
    /// Ethernet header.
    pub eth: ethernet::Repr,
    /// IPv4 header.
    pub ip: ipv4::Repr,
    /// UDP header.
    pub udp: udp::Repr,
    /// Application message.
    pub msg: MsgRepr,
}

impl ParsedFrame {
    /// Parse and validate all layers of `data`.
    pub fn parse(data: &[u8]) -> Result<ParsedFrame, WireError> {
        let frame = ethernet::Frame::new_checked(data)?;
        let eth = ethernet::Repr::parse(&frame)?;
        if eth.ethertype != ethernet::EtherType::Ipv4 {
            return Err(WireError::Malformed);
        }
        let packet = ipv4::Packet::new_checked(frame.payload())?;
        let ip = ipv4::Repr::parse(&packet)?;
        if ip.protocol != ipv4::Protocol::Udp {
            return Err(WireError::Malformed);
        }
        let dgram = udp::Datagram::new_checked(packet.payload())?;
        let udp = udp::Repr::parse(&dgram, ip.src_addr, ip.dst_addr)?;
        let msg = MsgRepr::parse(dgram.payload())?;
        Ok(ParsedFrame { eth, ip, udp, msg })
    }

    /// Build the spec that would regenerate this frame (e.g. to bounce a
    /// message back with modified fields).
    pub fn to_spec(&self) -> FrameSpec {
        FrameSpec {
            src_mac: self.eth.src_addr,
            dst_mac: self.eth.dst_addr,
            src: self.src(),
            dst: self.dst(),
            msg: self.msg,
        }
    }
}

impl FrameHeader for FrameSpec {
    fn dst_mac(&self) -> EthernetAddress {
        self.dst_mac
    }
    fn src(&self) -> Endpoint {
        self.src
    }
    fn dst(&self) -> Endpoint {
        self.dst
    }
    fn msg(&self) -> &MsgRepr {
        &self.msg
    }
}

impl FrameHeader for ParsedFrame {
    fn dst_mac(&self) -> EthernetAddress {
        self.eth.dst_addr
    }
    fn src(&self) -> Endpoint {
        Endpoint::new(self.ip.src_addr, self.udp.src_port)
    }
    fn dst(&self) -> Endpoint {
        Endpoint::new(self.ip.dst_addr, self.udp.dst_port)
    }
    fn msg(&self) -> &MsgRepr {
        &self.msg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Ipv4Address;

    fn spec() -> FrameSpec {
        FrameSpec {
            src_mac: EthernetAddress::new(2, 0, 0, 0, 0, 1),
            dst_mac: EthernetAddress::new(2, 0, 0, 0, 0, 2),
            src: Endpoint::new(Ipv4Address::new(10, 0, 0, 1), 7000),
            dst: Endpoint::new(Ipv4Address::new(10, 0, 0, 2), 8000),
            msg: MsgRepr::request(42, 3, 5_000, 1_000_000, 22),
        }
    }

    #[test]
    fn build_parse_round_trip() {
        let s = spec();
        let bytes = s.build();
        assert_eq!(bytes.len(), s.frame_len());
        let parsed = ParsedFrame::parse(&bytes).unwrap();
        assert_eq!(parsed.eth.src_addr, s.src_mac);
        assert_eq!(parsed.eth.dst_addr, s.dst_mac);
        assert_eq!(parsed.src(), s.src);
        assert_eq!(parsed.dst(), s.dst);
        assert_eq!(parsed.msg, s.msg);
    }

    #[test]
    fn frame_len_matches_paper_scale() {
        // A 64 B-body request frame should be on the order of the paper's
        // "64 B requests": 14 + 20 + 8 + 42 + 64 = 148 bytes.
        let mut s = spec();
        s.msg.body_len = 64;
        assert_eq!(s.frame_len(), 148);
    }

    #[test]
    fn to_spec_round_trips() {
        let s = spec();
        let parsed = ParsedFrame::parse(&s.build()).unwrap();
        let rebuilt = parsed.to_spec().build();
        assert_eq!(&rebuilt[..], &s.build()[..]);
    }

    #[test]
    fn corruption_at_any_layer_detected() {
        let bytes = spec().build();
        // Flip one byte in each layer and expect *some* validation failure.
        let layer_offsets = [
            ethernet::HEADER_LEN + 2,                                  // IPv4 length
            ethernet::HEADER_LEN + ipv4::HEADER_LEN + 6,               // UDP checksum
            ethernet::HEADER_LEN + ipv4::HEADER_LEN + udp::HEADER_LEN, // msg magic
        ];
        for off in layer_offsets {
            let mut corrupt = bytes.to_vec();
            corrupt[off] ^= 0xff;
            assert!(
                ParsedFrame::parse(&corrupt).is_err(),
                "corruption at offset {off} must be detected"
            );
        }
    }

    #[test]
    fn non_ipv4_rejected() {
        let bytes = spec().build();
        let mut raw = bytes.to_vec();
        raw[12] = 0x86; // EtherType -> not IPv4
        raw[13] = 0xdd;
        assert_eq!(ParsedFrame::parse(&raw).unwrap_err(), WireError::Malformed);
    }

    #[test]
    fn the_longest_body_fits_the_length_fields() {
        let mut s = spec();
        s.msg.body_len = crate::MAX_BODY_LEN;
        let bytes = s.build();
        assert_eq!(bytes.len() - ethernet::HEADER_LEN, usize::from(u16::MAX));
        assert_eq!(ParsedFrame::parse(&bytes).unwrap().to_spec(), s);
    }

    #[test]
    #[should_panic(expected = "length exceeds 65535")]
    fn a_longer_body_fails_to_build() {
        let mut s = spec();
        s.msg.body_len = crate::MAX_BODY_LEN + 1;
        s.build();
    }

    #[test]
    fn four_tuple_extraction() {
        let parsed = ParsedFrame::parse(&spec().build()).unwrap();
        let (sip, dip, sp, dp) = parsed.four_tuple();
        assert_eq!(sip, [10, 0, 0, 1]);
        assert_eq!(dip, [10, 0, 0, 2]);
        assert_eq!(sp, 7000);
        assert_eq!(dp, 8000);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::addr::Ipv4Address;
    use crate::message::MsgKind;
    use crate::MAX_BODY_LEN;
    use proptest::prelude::*;

    fn arb_kind() -> impl Strategy<Value = MsgKind> {
        prop_oneof![
            Just(MsgKind::Request),
            Just(MsgKind::Response),
            Just(MsgKind::Assign),
            Just(MsgKind::Done),
            Just(MsgKind::Preempted),
            Just(MsgKind::Heartbeat),
        ]
    }

    /// Any frame the simulator could put on a hop: every kind, any grant
    /// byte, bodies from empty to the largest the length fields carry.
    fn arb_spec() -> impl Strategy<Value = FrameSpec> {
        let body = prop_oneof![0u16..2048, (MAX_BODY_LEN - 64)..=MAX_BODY_LEN];
        (
            (
                any::<[u8; 6]>(),
                any::<[u8; 6]>(),
                any::<[u8; 4]>(),
                any::<[u8; 4]>(),
            ),
            (any::<u16>(), any::<u16>(), arb_kind(), any::<u8>(), body),
            (
                any::<u64>(),
                any::<u32>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
            ),
        )
            .prop_map(
                |((smac, dmac, sip, dip), (sport, dport, kind, grant_code, body_len), ids)| {
                    let (req_id, client_id, service_ns, remaining_ns, sent_at_ns) = ids;
                    FrameSpec {
                        src_mac: EthernetAddress(smac),
                        dst_mac: EthernetAddress(dmac),
                        src: Endpoint::new(Ipv4Address(sip), sport),
                        dst: Endpoint::new(Ipv4Address(dip), dport),
                        msg: MsgRepr {
                            kind,
                            req_id,
                            client_id,
                            service_ns,
                            remaining_ns,
                            sent_at_ns,
                            body_len,
                            grant_code,
                        },
                    }
                },
            )
    }

    proptest! {
        /// The contract typed frames rest on: a spec's bytes parse back to
        /// the spec, and `frame_len` is their length.
        #[test]
        fn arbitrary_specs_round_trip(s in arb_spec()) {
            let bytes = s.build();
            prop_assert_eq!(bytes.len(), s.frame_len());
            prop_assert_eq!(ParsedFrame::parse(&bytes).unwrap().to_spec(), s);
        }

        #[test]
        fn random_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = ParsedFrame::parse(&data);
        }

        /// A valid frame with bytes flipped at random offsets, then cut at a
        /// random length, is rejected or misread but never panics.
        #[test]
        fn damaged_frames_never_panic(
            s in arb_spec(),
            flips in proptest::collection::vec((any::<u32>(), 1u8..=255), 0..8),
            cut in any::<u32>(),
        ) {
            let mut raw = s.build().to_vec();
            for (at, mask) in flips {
                let i = at as usize % raw.len();
                raw[i] ^= mask;
            }
            raw.truncate(cut as usize % (raw.len() + 1));
            let _ = ParsedFrame::parse(&raw);
        }
    }
}
