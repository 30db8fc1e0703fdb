//! Ethernet II framing.
//!
//! Typed views over byte buffers in the smoltcp idiom: [`Frame`] wraps a
//! buffer and exposes checked field accessors; [`Repr`] is the high-level
//! representation with `parse`/`emit`.

use crate::addr::EthernetAddress;
use crate::WireError;

/// EtherType values used in this system.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EtherType {
    /// IPv4, `0x0800`.
    Ipv4,
    /// Anything else (kept verbatim).
    Unknown(u16),
}

impl From<u16> for EtherType {
    fn from(raw: u16) -> Self {
        match raw {
            0x0800 => EtherType::Ipv4,
            other => EtherType::Unknown(other),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(v: EtherType) -> u16 {
        match v {
            EtherType::Ipv4 => 0x0800,
            EtherType::Unknown(other) => other,
        }
    }
}

/// Length of the Ethernet II header: dst(6) + src(6) + ethertype(2).
pub const HEADER_LEN: usize = 14;

/// Minimum Ethernet payload (frames are padded to 64 B on the wire; we model
/// the 46 B minimum payload when computing wire occupancy, not in buffers).
pub const MIN_PAYLOAD: usize = 46;

mod field {
    pub const DST: core::ops::Range<usize> = 0..6;
    pub const SRC: core::ops::Range<usize> = 6..12;
    pub const ETHERTYPE: core::ops::Range<usize> = 12..14;
    pub const PAYLOAD: core::ops::RangeFrom<usize> = 14..;
}

/// A typed view over a buffer containing an Ethernet II frame.
#[derive(Debug, Clone)]
pub struct Frame<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Frame<T> {
    /// Wrap a buffer without length checking.
    pub fn new_unchecked(buffer: T) -> Frame<T> {
        Frame { buffer }
    }

    /// Wrap a buffer, ensuring it is long enough to hold a header.
    pub fn new_checked(buffer: T) -> Result<Frame<T>, WireError> {
        let frame = Frame::new_unchecked(buffer);
        frame.check_len()?;
        Ok(frame)
    }

    /// Ensure the buffer holds at least a full header.
    pub fn check_len(&self) -> Result<(), WireError> {
        if self.buffer.as_ref().len() < HEADER_LEN {
            Err(WireError::Truncated)
        } else {
            Ok(())
        }
    }

    /// Destination MAC address.
    pub fn dst_addr(&self) -> EthernetAddress {
        EthernetAddress::from_bytes(&self.buffer.as_ref()[field::DST])
    }

    /// Source MAC address.
    pub fn src_addr(&self) -> EthernetAddress {
        EthernetAddress::from_bytes(&self.buffer.as_ref()[field::SRC])
    }

    /// EtherType field.
    pub fn ethertype(&self) -> EtherType {
        let raw = &self.buffer.as_ref()[field::ETHERTYPE];
        EtherType::from(u16::from_be_bytes([raw[0], raw[1]]))
    }

    /// Payload bytes following the header.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[field::PAYLOAD]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Frame<T> {
    /// Set the destination MAC address.
    pub fn set_dst_addr(&mut self, addr: EthernetAddress) {
        self.buffer.as_mut()[field::DST].copy_from_slice(addr.as_bytes());
    }

    /// Set the source MAC address.
    pub fn set_src_addr(&mut self, addr: EthernetAddress) {
        self.buffer.as_mut()[field::SRC].copy_from_slice(addr.as_bytes());
    }

    /// Set the EtherType field.
    pub fn set_ethertype(&mut self, value: EtherType) {
        let raw = u16::from(value).to_be_bytes();
        self.buffer.as_mut()[field::ETHERTYPE].copy_from_slice(&raw);
    }

    /// Mutable payload bytes.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.buffer.as_mut()[field::PAYLOAD]
    }
}

/// High-level representation of an Ethernet II header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Repr {
    /// Source MAC.
    pub src_addr: EthernetAddress,
    /// Destination MAC.
    pub dst_addr: EthernetAddress,
    /// EtherType of the payload.
    pub ethertype: EtherType,
}

impl Repr {
    /// Parse a frame header into its representation.
    pub fn parse<T: AsRef<[u8]>>(frame: &Frame<T>) -> Result<Repr, WireError> {
        frame.check_len()?;
        Ok(Repr {
            src_addr: frame.src_addr(),
            dst_addr: frame.dst_addr(),
            ethertype: frame.ethertype(),
        })
    }

    /// Length of the emitted header.
    pub const fn buffer_len(&self) -> usize {
        HEADER_LEN
    }

    /// Write this header into a frame.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, frame: &mut Frame<T>) {
        frame.set_src_addr(self.src_addr);
        frame.set_dst_addr(self.dst_addr);
        frame.set_ethertype(self.ethertype);
    }
}

/// Bytes a frame with `payload_len` payload occupies on the wire, including
/// preamble (8), header (14), FCS (4), minimum-frame padding and the
/// inter-frame gap (12). Used by the link model for serialization delay.
pub fn wire_occupancy(payload_len: usize) -> usize {
    let padded = payload_len.max(MIN_PAYLOAD);
    8 + HEADER_LEN + padded + 4 + 12
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: EthernetAddress = EthernetAddress::new(0x02, 0, 0, 0, 0, 0x01);
    const DST: EthernetAddress = EthernetAddress::new(0x02, 0, 0, 0, 0, 0x02);

    #[test]
    fn emit_parse_round_trip() {
        let repr = Repr {
            src_addr: SRC,
            dst_addr: DST,
            ethertype: EtherType::Ipv4,
        };
        let mut buf = vec![0u8; repr.buffer_len() + 4];
        let mut frame = Frame::new_unchecked(&mut buf);
        repr.emit(&mut frame);
        frame.payload_mut()[..4].copy_from_slice(b"abcd");

        let frame = Frame::new_checked(&buf).unwrap();
        assert_eq!(Repr::parse(&frame).unwrap(), repr);
        assert_eq!(frame.payload(), b"abcd");
    }

    #[test]
    fn truncated_buffer_rejected() {
        let buf = [0u8; HEADER_LEN - 1];
        assert_eq!(
            Frame::new_checked(&buf[..]).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn ethertype_codes() {
        assert_eq!(u16::from(EtherType::Ipv4), 0x0800);
        assert_eq!(EtherType::from(0x0800), EtherType::Ipv4);
        assert_eq!(EtherType::from(0x86dd), EtherType::Unknown(0x86dd));
        assert_eq!(u16::from(EtherType::Unknown(0x1234)), 0x1234);
    }

    #[test]
    fn wire_occupancy_includes_overheads() {
        // 64 B request payload: 8 + 14 + 64 + 4 + 12 = 102 B.
        assert_eq!(wire_occupancy(64), 102);
        // Tiny payloads are padded to the 64 B minimum frame.
        assert_eq!(wire_occupancy(1), 8 + 14 + 46 + 4 + 12);
        assert_eq!(wire_occupancy(0), wire_occupancy(46));
    }
}
