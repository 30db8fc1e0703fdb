//! Link-layer and network-layer addresses.

use core::fmt;
use core::str::FromStr;

use crate::WireError;

/// A 48-bit Ethernet MAC address.
///
/// In this system MAC addresses are load-bearing: the Stingray steers each
/// packet to the host-CPU or ARM-CPU interface — and, with SR-IOV, to a
/// specific worker's virtual function — purely on the destination MAC
/// (paper §3.3–§3.4.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct EthernetAddress(pub [u8; 6]);

impl EthernetAddress {
    /// Construct from raw octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8, e: u8, f: u8) -> Self {
        EthernetAddress([a, b, c, d, e, f])
    }

    /// Parse from a big-endian byte slice.
    pub fn from_bytes(data: &[u8]) -> Self {
        let mut bytes = [0u8; 6];
        bytes.copy_from_slice(data);
        EthernetAddress(bytes)
    }

    /// The octets of the address.
    pub const fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Display for EthernetAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

impl fmt::Debug for EthernetAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromStr for EthernetAddress {
    type Err = WireError;

    fn from_str(s: &str) -> Result<Self, WireError> {
        let mut bytes = [0u8; 6];
        let mut parts = s.split(':');
        for byte in &mut bytes {
            let p = parts.next().ok_or(WireError::Malformed)?;
            *byte = u8::from_str_radix(p, 16).map_err(|_| WireError::Malformed)?;
        }
        if parts.next().is_some() {
            return Err(WireError::Malformed);
        }
        Ok(EthernetAddress(bytes))
    }
}

/// A 32-bit IPv4 address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Ipv4Address(pub [u8; 4]);

impl Ipv4Address {
    /// Construct from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Address([a, b, c, d])
    }

    /// Parse from a big-endian byte slice.
    pub fn from_bytes(data: &[u8]) -> Self {
        let mut bytes = [0u8; 4];
        bytes.copy_from_slice(data);
        Ipv4Address(bytes)
    }

    /// The octets of the address.
    pub const fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Display for Ipv4Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(f, "{}.{}.{}.{}", b[0], b[1], b[2], b[3])
    }
}

impl fmt::Debug for Ipv4Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromStr for Ipv4Address {
    type Err = WireError;

    fn from_str(s: &str) -> Result<Self, WireError> {
        let mut bytes = [0u8; 4];
        let mut parts = s.split('.');
        for byte in &mut bytes {
            let p = parts.next().ok_or(WireError::Malformed)?;
            *byte = p.parse().map_err(|_| WireError::Malformed)?;
        }
        if parts.next().is_some() {
            return Err(WireError::Malformed);
        }
        Ok(Ipv4Address(bytes))
    }
}

/// A UDP/IPv4 endpoint (address, port) — the 2-tuple half of the RSS 4-tuple.
///
/// `Ord` so endpoints can key ordered maps (`BTreeMap`), which model code
/// prefers over hashed maps for deterministic iteration.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct Endpoint {
    /// IPv4 address.
    pub addr: Ipv4Address,
    /// UDP port.
    pub port: u16,
}

impl Endpoint {
    /// Construct an endpoint.
    pub const fn new(addr: Ipv4Address, port: u16) -> Self {
        Endpoint { addr, port }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.addr, self.port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_display_and_parse_round_trip() {
        let mac = EthernetAddress::new(0x02, 0x00, 0x5e, 0x10, 0x00, 0x01);
        let s = mac.to_string();
        assert_eq!(s, "02:00:5e:10:00:01");
        assert_eq!(s.parse::<EthernetAddress>().unwrap(), mac);
    }

    #[test]
    fn mac_parse_rejects_garbage() {
        assert!("".parse::<EthernetAddress>().is_err());
        assert!("1:2:3".parse::<EthernetAddress>().is_err());
        assert!("zz:00:00:00:00:00".parse::<EthernetAddress>().is_err());
        assert!("00:00:00:00:00:00:00".parse::<EthernetAddress>().is_err());
    }

    #[test]
    fn ipv4_display_and_parse_round_trip() {
        let ip = Ipv4Address::new(10, 1, 2, 3);
        assert_eq!(ip.to_string(), "10.1.2.3");
        assert_eq!("10.1.2.3".parse::<Ipv4Address>().unwrap(), ip);
    }

    #[test]
    fn ipv4_parse_rejects_garbage() {
        assert!("10.1.2".parse::<Ipv4Address>().is_err());
        assert!("10.1.2.3.4".parse::<Ipv4Address>().is_err());
        assert!("10.1.2.256".parse::<Ipv4Address>().is_err());
    }

    #[test]
    fn endpoint_display() {
        let e = Endpoint::new(Ipv4Address::new(10, 0, 0, 1), 8080);
        assert_eq!(e.to_string(), "10.0.0.1:8080");
    }

    #[test]
    fn byte_round_trips() {
        let mac = EthernetAddress::new(1, 2, 3, 4, 5, 6);
        assert_eq!(EthernetAddress::from_bytes(mac.as_bytes()), mac);
        let ip = Ipv4Address::new(9, 8, 7, 6);
        assert_eq!(Ipv4Address::from_bytes(ip.as_bytes()), ip);
    }
}
