//! UDP datagram format.
//!
//! All request/response traffic in the paper's evaluation travels over UDP
//! (§4: "an open loop load generator … that transmits requests over UDP"),
//! as does the dispatcher↔worker control channel (§3.4.2). The checksum is
//! computed with the IPv4 pseudo-header.

use crate::addr::Ipv4Address;
use crate::checksum;
use crate::WireError;

/// Length of the UDP header.
pub const HEADER_LEN: usize = 8;

mod field {
    use core::ops::Range;
    pub const SRC_PORT: Range<usize> = 0..2;
    pub const DST_PORT: Range<usize> = 2..4;
    pub const LENGTH: Range<usize> = 4..6;
    pub const CHECKSUM: Range<usize> = 6..8;
    pub const PAYLOAD: core::ops::RangeFrom<usize> = 8..;
}

/// A typed view over a buffer containing a UDP datagram.
#[derive(Debug, Clone)]
pub struct Datagram<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Datagram<T> {
    /// Wrap a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Datagram<T> {
        Datagram { buffer }
    }

    /// Wrap a buffer, validating lengths.
    pub fn new_checked(buffer: T) -> Result<Datagram<T>, WireError> {
        let dgram = Datagram::new_unchecked(buffer);
        dgram.check_len()?;
        Ok(dgram)
    }

    /// Validate the buffer against the length field.
    pub fn check_len(&self) -> Result<(), WireError> {
        let data = self.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let len = self.len() as usize;
        if len < HEADER_LEN || data.len() < len {
            return Err(WireError::Truncated);
        }
        Ok(())
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        let raw = &self.buffer.as_ref()[field::SRC_PORT];
        u16::from_be_bytes([raw[0], raw[1]])
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        let raw = &self.buffer.as_ref()[field::DST_PORT];
        u16::from_be_bytes([raw[0], raw[1]])
    }

    /// Datagram length field (header + payload).
    pub fn len(&self) -> u16 {
        let raw = &self.buffer.as_ref()[field::LENGTH];
        u16::from_be_bytes([raw[0], raw[1]])
    }

    /// True when the length field says the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() as usize == HEADER_LEN
    }

    /// Checksum field.
    pub fn checksum_field(&self) -> u16 {
        let raw = &self.buffer.as_ref()[field::CHECKSUM];
        u16::from_be_bytes([raw[0], raw[1]])
    }

    /// Verify the checksum with the given pseudo-header addresses.
    /// A zero checksum means "not computed" and passes (RFC 768).
    pub fn verify_checksum(&self, src: Ipv4Address, dst: Ipv4Address) -> bool {
        if self.checksum_field() == 0 {
            return true;
        }
        let len = self.len();
        let acc = pseudo_header_sum(src, dst, len);
        let data = &self.buffer.as_ref()[..len as usize];
        checksum::finish(checksum::sum(acc, data)) == 0
    }

    /// Payload bytes.
    pub fn payload(&self) -> &[u8] {
        let len = self.len() as usize;
        &self.buffer.as_ref()[HEADER_LEN..len]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Datagram<T> {
    /// Set the source port.
    pub fn set_src_port(&mut self, port: u16) {
        self.buffer.as_mut()[field::SRC_PORT].copy_from_slice(&port.to_be_bytes());
    }

    /// Set the destination port.
    pub fn set_dst_port(&mut self, port: u16) {
        self.buffer.as_mut()[field::DST_PORT].copy_from_slice(&port.to_be_bytes());
    }

    /// Set the length field.
    pub fn set_len(&mut self, len: u16) {
        self.buffer.as_mut()[field::LENGTH].copy_from_slice(&len.to_be_bytes());
    }

    /// Compute and store the checksum using the pseudo-header.
    pub fn fill_checksum(&mut self, src: Ipv4Address, dst: Ipv4Address) {
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&[0, 0]);
        let len = self.len();
        let acc = pseudo_header_sum(src, dst, len);
        let data = &self.buffer.as_ref()[..len as usize];
        let mut c = checksum::finish(checksum::sum(acc, data));
        if c == 0 {
            c = 0xffff; // 0 is reserved for "no checksum"
        }
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&c.to_be_bytes());
    }

    /// Mutable payload bytes.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.buffer.as_mut()[field::PAYLOAD]
    }
}

fn pseudo_header_sum(src: Ipv4Address, dst: Ipv4Address, udp_len: u16) -> u32 {
    let mut acc = 0;
    acc = checksum::sum(acc, src.as_bytes());
    acc = checksum::sum(acc, dst.as_bytes());
    acc = checksum::sum(acc, &[0, 17]); // zero + protocol
    acc = checksum::sum(acc, &udp_len.to_be_bytes());
    acc
}

/// High-level representation of a UDP header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Repr {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload length in bytes.
    pub payload_len: usize,
}

impl Repr {
    /// Parse and checksum-verify a datagram.
    pub fn parse<T: AsRef<[u8]>>(
        dgram: &Datagram<T>,
        src: Ipv4Address,
        dst: Ipv4Address,
    ) -> Result<Repr, WireError> {
        dgram.check_len()?;
        if !dgram.verify_checksum(src, dst) {
            return Err(WireError::BadChecksum);
        }
        Ok(Repr {
            src_port: dgram.src_port(),
            dst_port: dgram.dst_port(),
            payload_len: dgram.len() as usize - HEADER_LEN,
        })
    }

    /// Length of the emitted header plus payload.
    pub const fn buffer_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    /// Write this header; call [`Datagram::fill_checksum`] after writing the
    /// payload (the checksum covers it).
    ///
    /// # Panics
    /// Panics if header plus payload exceed the 16-bit length field.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, dgram: &mut Datagram<T>) {
        dgram.set_src_port(self.src_port);
        dgram.set_dst_port(self.dst_port);
        let len =
            u16::try_from(HEADER_LEN + self.payload_len).expect("UDP length exceeds 65535 bytes");
        dgram.set_len(len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Address = Ipv4Address::new(10, 0, 0, 1);
    const DST: Ipv4Address = Ipv4Address::new(10, 0, 0, 2);

    #[test]
    fn emit_parse_round_trip() {
        let r = Repr {
            src_port: 5000,
            dst_port: 6000,
            payload_len: 5,
        };
        let mut buf = vec![0u8; r.buffer_len()];
        let mut d = Datagram::new_unchecked(&mut buf);
        r.emit(&mut d);
        d.payload_mut()[..5].copy_from_slice(b"salut");
        d.fill_checksum(SRC, DST);

        let d = Datagram::new_checked(&buf).unwrap();
        assert!(d.verify_checksum(SRC, DST));
        assert_eq!(Repr::parse(&d, SRC, DST).unwrap(), r);
        assert_eq!(d.payload(), b"salut");
        assert!(!d.is_empty());
    }

    #[test]
    #[should_panic(expected = "UDP length exceeds")]
    fn oversized_payload_fails_loudly() {
        let r = Repr {
            src_port: 5000,
            dst_port: 6000,
            payload_len: 65_535 - HEADER_LEN + 1,
        };
        let mut buf = vec![0u8; HEADER_LEN];
        r.emit(&mut Datagram::new_unchecked(&mut buf));
    }

    #[test]
    fn checksum_covers_payload() {
        let r = Repr {
            src_port: 1,
            dst_port: 2,
            payload_len: 4,
        };
        let mut buf = vec![0u8; r.buffer_len()];
        let mut d = Datagram::new_unchecked(&mut buf);
        r.emit(&mut d);
        d.payload_mut()[..4].copy_from_slice(b"data");
        d.fill_checksum(SRC, DST);
        buf[HEADER_LEN] ^= 0x55;
        let d = Datagram::new_checked(&buf).unwrap();
        assert_eq!(
            Repr::parse(&d, SRC, DST).unwrap_err(),
            WireError::BadChecksum
        );
    }

    #[test]
    fn checksum_covers_pseudo_header() {
        let r = Repr {
            src_port: 1,
            dst_port: 2,
            payload_len: 0,
        };
        let mut buf = vec![0u8; r.buffer_len()];
        let mut d = Datagram::new_unchecked(&mut buf);
        r.emit(&mut d);
        d.fill_checksum(SRC, DST);
        let d = Datagram::new_checked(&buf).unwrap();
        // Wrong source address in the pseudo-header must fail.
        assert!(!d.verify_checksum(Ipv4Address::new(10, 0, 0, 9), DST));
    }

    #[test]
    fn zero_checksum_means_unchecked() {
        let r = Repr {
            src_port: 1,
            dst_port: 2,
            payload_len: 0,
        };
        let mut buf = vec![0u8; r.buffer_len()];
        let mut d = Datagram::new_unchecked(&mut buf);
        r.emit(&mut d);
        let d = Datagram::new_checked(&buf).unwrap();
        assert_eq!(d.checksum_field(), 0);
        assert!(d.verify_checksum(SRC, DST));
        assert!(d.is_empty());
    }

    #[test]
    fn truncation_detected() {
        let r = Repr {
            src_port: 1,
            dst_port: 2,
            payload_len: 10,
        };
        let mut buf = vec![0u8; r.buffer_len()];
        let mut d = Datagram::new_unchecked(&mut buf);
        r.emit(&mut d);
        assert!(Datagram::new_checked(&buf[..HEADER_LEN + 3]).is_err());
        assert!(Datagram::new_checked(&buf[..4]).is_err());
    }
}

#[cfg(test)]
mod proptests {
    //! Hostile bytes: whatever arrives, checking and parsing return an
    //! error or a representation that fits the buffer, never a panic.

    use super::*;
    use proptest::prelude::*;

    const SRC: Ipv4Address = Ipv4Address::new(10, 0, 0, 1);
    const DST: Ipv4Address = Ipv4Address::new(10, 0, 0, 2);

    /// A valid, checksummed datagram carrying `payload_len` bytes.
    fn valid(payload_len: usize) -> Vec<u8> {
        let r = Repr {
            src_port: 5000,
            dst_port: 6000,
            payload_len,
        };
        let mut buf = vec![0x5au8; r.buffer_len()];
        let mut d = Datagram::new_unchecked(&mut buf);
        r.emit(&mut d);
        d.fill_checksum(SRC, DST);
        buf
    }

    /// Check and parse `data`; an accepted datagram must fit its buffer.
    fn parse_fits(data: &[u8]) -> Result<(), TestCaseError> {
        let _ = Repr::parse(&Datagram::new_unchecked(data), SRC, DST);
        if let Ok(dgram) = Datagram::new_checked(data) {
            if let Ok(repr) = Repr::parse(&dgram, SRC, DST) {
                prop_assert!(repr.buffer_len() <= data.len());
                prop_assert_eq!(dgram.payload().len(), repr.payload_len);
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn random_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..64)) {
            parse_fits(&data)?;
        }

        #[test]
        fn truncated_datagrams_are_rejected(payload_len in 0usize..64, cut in any::<u16>()) {
            let buf = valid(payload_len);
            let cut = cut as usize % buf.len();
            prop_assert_eq!(Datagram::new_checked(&buf[..cut]).unwrap_err(), WireError::Truncated);
            prop_assert!(Repr::parse(&Datagram::new_unchecked(&buf[..cut]), SRC, DST).is_err());
        }

        #[test]
        fn lying_length_fields_never_panic(
            payload_len in 0usize..64,
            // Mostly lies near the real length, where off-by-ones live.
            len in prop_oneof![0u16..96, any::<u16>()],
            checksum in 0u8..3,
        ) {
            let mut buf = valid(payload_len);
            buf[field::LENGTH].copy_from_slice(&len.to_be_bytes());
            // Get past the checksum check, where a lie would bite: with a
            // checksum consistent with the lie, or with none (zero).
            match checksum {
                0 if usize::from(len) <= buf.len() => {
                    Datagram::new_unchecked(&mut buf).fill_checksum(SRC, DST)
                }
                1 => buf[field::CHECKSUM].copy_from_slice(&[0, 0]),
                _ => {}
            }
            parse_fits(&buf)?;
        }
    }
}
