//! IPv4 packet format (header without options, which this system never
//! emits; packets carrying options are rejected as malformed rather than
//! silently mis-parsed).

use crate::addr::Ipv4Address;
use crate::checksum;
use crate::WireError;

/// IP protocol numbers used in this system.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Protocol {
    /// UDP, 17.
    Udp,
    /// Anything else (kept verbatim).
    Unknown(u8),
}

impl From<u8> for Protocol {
    fn from(raw: u8) -> Self {
        match raw {
            17 => Protocol::Udp,
            other => Protocol::Unknown(other),
        }
    }
}

impl From<Protocol> for u8 {
    fn from(p: Protocol) -> u8 {
        match p {
            Protocol::Udp => 17,
            Protocol::Unknown(other) => other,
        }
    }
}

/// Length of an option-less IPv4 header.
pub const HEADER_LEN: usize = 20;

mod field {
    use core::ops::Range;
    pub const VER_IHL: usize = 0;
    pub const DSCP_ECN: usize = 1;
    pub const LENGTH: Range<usize> = 2..4;
    pub const IDENT: Range<usize> = 4..6;
    pub const FLG_OFF: Range<usize> = 6..8;
    pub const TTL: usize = 8;
    pub const PROTOCOL: usize = 9;
    pub const CHECKSUM: Range<usize> = 10..12;
    pub const SRC_ADDR: Range<usize> = 12..16;
    pub const DST_ADDR: Range<usize> = 16..20;
}

/// A typed view over a buffer containing an IPv4 packet.
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wrap a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Packet<T> {
        Packet { buffer }
    }

    /// Wrap a buffer, validating lengths.
    pub fn new_checked(buffer: T) -> Result<Packet<T>, WireError> {
        let packet = Packet::new_unchecked(buffer);
        packet.check_len()?;
        Ok(packet)
    }

    /// Validate that the buffer is consistent with its length fields: it
    /// holds the total length, which holds the header (IHL).
    pub fn check_len(&self) -> Result<(), WireError> {
        let data = self.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let total = self.total_len() as usize;
        if total < HEADER_LEN || data.len() < total || self.header_len() > total {
            return Err(WireError::Truncated);
        }
        Ok(())
    }

    /// IP version field (must be 4).
    pub fn version(&self) -> u8 {
        self.buffer.as_ref()[field::VER_IHL] >> 4
    }

    /// Header length in bytes.
    pub fn header_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[field::VER_IHL] & 0x0f) * 4
    }

    /// Total packet length (header + payload) from the length field.
    pub fn total_len(&self) -> u16 {
        let raw = &self.buffer.as_ref()[field::LENGTH];
        u16::from_be_bytes([raw[0], raw[1]])
    }

    /// Time-to-live.
    pub fn ttl(&self) -> u8 {
        self.buffer.as_ref()[field::TTL]
    }

    /// Payload protocol.
    pub fn protocol(&self) -> Protocol {
        Protocol::from(self.buffer.as_ref()[field::PROTOCOL])
    }

    /// Source address.
    pub fn src_addr(&self) -> Ipv4Address {
        Ipv4Address::from_bytes(&self.buffer.as_ref()[field::SRC_ADDR])
    }

    /// Destination address.
    pub fn dst_addr(&self) -> Ipv4Address {
        Ipv4Address::from_bytes(&self.buffer.as_ref()[field::DST_ADDR])
    }

    /// True when the header checksum validates.
    pub fn verify_checksum(&self) -> bool {
        let header = &self.buffer.as_ref()[..self.header_len().min(self.buffer.as_ref().len())];
        checksum::verify(header)
    }

    /// Payload bytes (after the header, within `total_len`).
    pub fn payload(&self) -> &[u8] {
        let hl = self.header_len();
        let total = self.total_len() as usize;
        &self.buffer.as_ref()[hl..total]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    fn set_version_ihl(&mut self) {
        self.buffer.as_mut()[field::VER_IHL] = 0x45; // v4, 5 words
    }

    /// Set the total length field.
    pub fn set_total_len(&mut self, len: u16) {
        self.buffer.as_mut()[field::LENGTH].copy_from_slice(&len.to_be_bytes());
    }

    /// Set the TTL field.
    pub fn set_ttl(&mut self, ttl: u8) {
        self.buffer.as_mut()[field::TTL] = ttl;
    }

    /// Set the protocol field.
    pub fn set_protocol(&mut self, p: Protocol) {
        self.buffer.as_mut()[field::PROTOCOL] = p.into();
    }

    /// Set the source address.
    pub fn set_src_addr(&mut self, a: Ipv4Address) {
        self.buffer.as_mut()[field::SRC_ADDR].copy_from_slice(a.as_bytes());
    }

    /// Set the destination address.
    pub fn set_dst_addr(&mut self, a: Ipv4Address) {
        self.buffer.as_mut()[field::DST_ADDR].copy_from_slice(a.as_bytes());
    }

    /// Recompute and store the header checksum.
    pub fn fill_checksum(&mut self) {
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&[0, 0]);
        let c = checksum::checksum(&self.buffer.as_ref()[..HEADER_LEN]);
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&c.to_be_bytes());
    }

    /// Mutable payload bytes.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let hl = self.header_len();
        let total = self.total_len() as usize;
        &mut self.buffer.as_mut()[hl..total]
    }
}

/// High-level representation of an option-less IPv4 header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Repr {
    /// Source address.
    pub src_addr: Ipv4Address,
    /// Destination address.
    pub dst_addr: Ipv4Address,
    /// Payload protocol.
    pub protocol: Protocol,
    /// Payload length in bytes.
    pub payload_len: usize,
    /// Time-to-live.
    pub ttl: u8,
}

impl Repr {
    /// Default TTL for emitted packets.
    pub const DEFAULT_TTL: u8 = 64;

    /// Parse and validate a packet into its representation.
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Result<Repr, WireError> {
        packet.check_len()?;
        if packet.version() != 4 {
            return Err(WireError::Malformed);
        }
        if packet.header_len() != HEADER_LEN {
            // We never emit options; treat them as malformed.
            return Err(WireError::Malformed);
        }
        if !packet.verify_checksum() {
            return Err(WireError::BadChecksum);
        }
        Ok(Repr {
            src_addr: packet.src_addr(),
            dst_addr: packet.dst_addr(),
            protocol: packet.protocol(),
            payload_len: packet.total_len() as usize - HEADER_LEN,
            ttl: packet.ttl(),
        })
    }

    /// Length of the emitted header plus payload.
    pub const fn buffer_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    /// Write this header into a packet buffer and fill the checksum.
    ///
    /// # Panics
    /// Panics if header plus payload exceed the 16-bit total-length field.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Packet<T>) {
        packet.set_version_ihl();
        packet.buffer.as_mut()[field::DSCP_ECN] = 0;
        let total_len = u16::try_from(HEADER_LEN + self.payload_len)
            .expect("IPv4 total length exceeds 65535 bytes");
        packet.set_total_len(total_len);
        packet.buffer.as_mut()[field::IDENT].copy_from_slice(&[0, 0]);
        packet.buffer.as_mut()[field::FLG_OFF].copy_from_slice(&[0x40, 0]); // DF
        packet.set_ttl(self.ttl);
        packet.set_protocol(self.protocol);
        packet.set_src_addr(self.src_addr);
        packet.set_dst_addr(self.dst_addr);
        packet.fill_checksum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repr() -> Repr {
        Repr {
            src_addr: Ipv4Address::new(10, 0, 0, 1),
            dst_addr: Ipv4Address::new(10, 0, 0, 2),
            protocol: Protocol::Udp,
            payload_len: 12,
            ttl: Repr::DEFAULT_TTL,
        }
    }

    #[test]
    fn emit_parse_round_trip() {
        let r = repr();
        let mut buf = vec![0u8; r.buffer_len()];
        let mut p = Packet::new_unchecked(&mut buf);
        r.emit(&mut p);
        p.payload_mut().copy_from_slice(b"hello world!");

        let p = Packet::new_checked(&buf).unwrap();
        assert!(p.verify_checksum());
        assert_eq!(Repr::parse(&p).unwrap(), r);
        assert_eq!(p.payload(), b"hello world!");
    }

    #[test]
    fn checksum_corruption_detected() {
        let r = repr();
        let mut buf = vec![0u8; r.buffer_len()];
        let mut p = Packet::new_unchecked(&mut buf);
        r.emit(&mut p);
        buf[field::TTL] ^= 0xff;
        let p = Packet::new_checked(&buf).unwrap();
        assert_eq!(Repr::parse(&p).unwrap_err(), WireError::BadChecksum);
    }

    #[test]
    fn truncation_detected() {
        let r = repr();
        let mut buf = vec![0u8; r.buffer_len()];
        let mut p = Packet::new_unchecked(&mut buf);
        r.emit(&mut p);
        // Physically shorter than total_len claims:
        assert_eq!(
            Packet::new_checked(&buf[..buf.len() - 1]).unwrap_err(),
            WireError::Truncated
        );
        // Shorter than a header:
        assert_eq!(
            Packet::new_checked(&buf[..10]).unwrap_err(),
            WireError::Truncated
        );
        // A header (IHL 15: 60 bytes) longer than the 20-byte total length:
        let mut bare = buf[..HEADER_LEN].to_vec();
        bare[field::VER_IHL] = 0x4f;
        bare[field::LENGTH].copy_from_slice(&20u16.to_be_bytes());
        assert_eq!(
            Packet::new_checked(&bare).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn wrong_version_rejected() {
        let r = repr();
        let mut buf = vec![0u8; r.buffer_len()];
        let mut p = Packet::new_unchecked(&mut buf);
        r.emit(&mut p);
        buf[0] = 0x65; // version 6
        let p = Packet::new_checked(&buf).unwrap();
        assert_eq!(Repr::parse(&p).unwrap_err(), WireError::Malformed);
    }

    #[test]
    fn options_rejected() {
        let r = repr();
        let mut buf = vec![0u8; r.buffer_len() + 4];
        let mut p = Packet::new_unchecked(&mut buf);
        r.emit(&mut p);
        buf[0] = 0x46; // IHL = 6 words (one option word)
        buf[2..4].copy_from_slice(&((24 + 12) as u16).to_be_bytes());
        // Re-checksum so we specifically hit the options check.
        let mut p = Packet::new_unchecked(&mut buf);
        p.fill_checksum();
        let p = Packet::new_checked(&buf).unwrap();
        assert_eq!(Repr::parse(&p).unwrap_err(), WireError::Malformed);
    }

    #[test]
    #[should_panic(expected = "IPv4 total length exceeds")]
    fn oversized_payload_fails_loudly() {
        let r = Repr {
            payload_len: 65_535 - HEADER_LEN + 1,
            ..repr()
        };
        let mut buf = vec![0u8; HEADER_LEN];
        r.emit(&mut Packet::new_unchecked(&mut buf));
    }

    #[test]
    fn protocol_codes() {
        assert_eq!(u8::from(Protocol::Udp), 17);
        assert_eq!(Protocol::from(17), Protocol::Udp);
        assert_eq!(Protocol::from(6), Protocol::Unknown(6));
    }
}

#[cfg(test)]
mod proptests {
    //! Hostile bytes: whatever arrives, checking and parsing return an
    //! error or a representation that fits the buffer, never a panic.

    use super::*;
    use proptest::prelude::*;

    /// A valid packet carrying `payload_len` bytes of payload.
    fn valid(payload_len: usize) -> Vec<u8> {
        let r = Repr {
            src_addr: Ipv4Address::new(10, 0, 0, 1),
            dst_addr: Ipv4Address::new(10, 0, 0, 2),
            protocol: Protocol::Udp,
            payload_len,
            ttl: Repr::DEFAULT_TTL,
        };
        let mut buf = vec![0x5au8; r.buffer_len()];
        r.emit(&mut Packet::new_unchecked(&mut buf));
        buf
    }

    /// Check and parse `data`. Every accessor of an accepted packet must
    /// stay inside the buffer, and a parsed one must fit it.
    fn parse_fits(data: &[u8]) -> Result<(), TestCaseError> {
        let _ = Repr::parse(&Packet::new_unchecked(data));
        if let Ok(packet) = Packet::new_checked(data) {
            let _ = (packet.version(), packet.ttl(), packet.protocol());
            let _ = packet.verify_checksum();
            let _ = (packet.src_addr(), packet.dst_addr());
            let payload = packet.payload().len();
            prop_assert_eq!(packet.header_len() + payload, packet.total_len() as usize);
            let mut owned = data.to_vec();
            let mut writable = Packet::new_checked(&mut owned[..]).expect("same bytes");
            prop_assert_eq!(writable.payload_mut().len(), payload);
            if let Ok(repr) = Repr::parse(&packet) {
                prop_assert!(repr.buffer_len() <= data.len());
                prop_assert_eq!(packet.payload().len(), repr.payload_len);
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn random_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..96)) {
            parse_fits(&data)?;
        }

        #[test]
        fn truncated_packets_are_rejected(payload_len in 0usize..64, cut in any::<u16>()) {
            let buf = valid(payload_len);
            let cut = cut as usize % buf.len();
            prop_assert_eq!(Packet::new_checked(&buf[..cut]).unwrap_err(), WireError::Truncated);
            prop_assert!(Repr::parse(&Packet::new_unchecked(&buf[..cut])).is_err());
        }

        #[test]
        fn lying_length_fields_never_panic(
            payload_len in 0usize..64,
            // Mostly lies near the real length, where off-by-ones live.
            total_len in prop_oneof![0u16..128, any::<u16>()],
            ihl in any::<u8>(),
            rechecksum in any::<bool>(),
        ) {
            let mut buf = valid(payload_len);
            buf[field::VER_IHL] = 0x40 | (ihl & 0x0f);
            buf[field::LENGTH].copy_from_slice(&total_len.to_be_bytes());
            if rechecksum {
                // Reach the checks past the checksum, where a lie would bite.
                Packet::new_unchecked(&mut buf).fill_checksum();
            }
            parse_fits(&buf)?;
        }
    }
}
