//! # net-wire — byte-accurate wire formats
//!
//! The packet layer of the `mindgap` reproduction. Requests, responses and
//! dispatcher↔worker control traffic are Ethernet II / IPv4 / UDP frames
//! carrying the [`message`] application header — the same framing the
//! paper's Stingray prototype uses (§3.4.2), so header overheads, packet
//! sizes and MAC-based SR-IOV steering behave honestly in the simulation.
//! Hops carry the typed [`FrameSpec`]; this crate is the codec that turns
//! it into bytes and back, byte-for-byte with checksum verification, and
//! `parse(build(spec)) == spec` is its contract.
//!
//! The API follows the smoltcp idiom: a typed *view* (`Frame`, `Packet`,
//! `Datagram`) wraps any `AsRef<[u8]>` buffer with checked accessors, and a
//! plain-old-data *representation* (`Repr`) offers `parse`/`emit`.
//!
//! # Example
//!
//! ```
//! use net_wire::{Endpoint, EthernetAddress, FrameSpec, Ipv4Address, MsgRepr, ParsedFrame};
//!
//! let spec = FrameSpec {
//!     src_mac: EthernetAddress::new(2, 0, 0, 0, 0, 1),
//!     dst_mac: EthernetAddress::new(2, 0, 0, 0, 1, 0),
//!     src: Endpoint::new(Ipv4Address::new(10, 0, 0, 1), 7000),
//!     dst: Endpoint::new(Ipv4Address::new(10, 0, 1, 0), 6000),
//!     msg: MsgRepr::request(42, 1, 5_000, 0, 64),
//! };
//! let bytes = spec.build(); // checksums filled
//! let parsed = ParsedFrame::parse(&bytes).unwrap();
//! assert_eq!(parsed.msg.req_id, 42);
//! assert_eq!(parsed.msg.service_ns, 5_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
pub mod checksum;
pub mod ethernet;
mod frame;
pub mod ipv4;
pub mod message;
pub mod udp;

pub use addr::{Endpoint, EthernetAddress, Ipv4Address};
pub use frame::{FrameHeader, FrameSpec, ParsedFrame};
pub use message::{MsgKind, MsgRepr};

/// The longest message body a frame can carry: the IPv4 total length and
/// the UDP length are 16-bit fields, and both count the UDP header and the
/// message header as well.
pub const MAX_BODY_LEN: u16 =
    (u16::MAX as usize - ipv4::HEADER_LEN - udp::HEADER_LEN - message::HEADER_LEN) as u16;

/// Errors surfaced while parsing or validating wire data.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The buffer is shorter than the format requires.
    Truncated,
    /// A checksum failed to verify.
    BadChecksum,
    /// The message magic did not match.
    BadMagic,
    /// A field held a value this stack does not accept.
    Malformed,
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "buffer truncated"),
            WireError::BadChecksum => write!(f, "checksum mismatch"),
            WireError::BadMagic => write!(f, "bad message magic"),
            WireError::Malformed => write!(f, "malformed field"),
        }
    }
}

impl std::error::Error for WireError {}
