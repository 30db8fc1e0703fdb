//! Multi-socket topology.
//!
//! The evaluation host is a dual-socket Xeon E5-2658 (§4), and §1 warns
//! that host-side dispatching gets worse on such machines: "the situation
//! is worse if the worker chosen by the dispatcher is not on the socket
//! whose last-level cache had the packet pre-loaded with Direct Data I/O".
//! DDIO preloads into the LLC of the socket whose PCIe root complex hosts
//! the NIC; a worker on the *other* socket pays a cross-socket (QPI/UPI)
//! access for every packet line.

use sim_core::SimDuration;

/// A symmetric multi-socket layout with workers numbered densely.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    /// Number of sockets (1 or 2 on the evaluation platform).
    pub sockets: u8,
    /// Worker cores per socket.
    pub cores_per_socket: u8,
}

impl Topology {
    /// Single-socket layout for `cores` workers.
    pub fn single(cores: u8) -> Topology {
        Topology {
            sockets: 1,
            cores_per_socket: cores,
        }
    }

    /// Dual-socket layout splitting `total` workers evenly (rounding the
    /// extra core onto socket 0, where the NIC lives).
    pub fn dual(total: u8) -> Topology {
        Topology {
            sockets: 2,
            cores_per_socket: total.div_ceil(2),
        }
    }

    /// Socket housing worker `core` (dense numbering: socket 0 first).
    pub fn socket_of(&self, core: usize) -> u8 {
        ((core / self.cores_per_socket as usize) as u8).min(self.sockets - 1)
    }

    /// Whether an access from `core` to data homed on `home_socket`
    /// crosses the socket interconnect.
    pub fn is_remote(&self, core: usize, home_socket: u8) -> bool {
        self.socket_of(core) != home_socket
    }
}

/// One-way cross-socket cache-line transfer penalty (QPI/UPI hop on the
/// E5-2658 era platform; ~100–130 ns versus a local LLC hit).
pub const CROSS_SOCKET_PENALTY: SimDuration = SimDuration::from_nanos(110);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_socket_everything_local() {
        let t = Topology::single(8);
        for c in 0..8 {
            assert_eq!(t.socket_of(c), 0);
            assert!(!t.is_remote(c, 0));
        }
    }

    #[test]
    fn dual_socket_split() {
        let t = Topology::dual(8);
        assert_eq!(t.cores_per_socket, 4);
        for c in 0..4 {
            assert_eq!(t.socket_of(c), 0, "core {c}");
        }
        for c in 4..8 {
            assert_eq!(t.socket_of(c), 1, "core {c}");
        }
        assert!(t.is_remote(6, 0), "socket-1 core accessing socket-0 LLC");
        assert!(!t.is_remote(1, 0));
    }

    #[test]
    fn odd_split_keeps_extra_on_socket_zero() {
        let t = Topology::dual(7);
        assert_eq!(t.cores_per_socket, 4);
        assert_eq!(t.socket_of(3), 0);
        assert_eq!(t.socket_of(4), 1);
        // Out-of-range cores clamp to the last socket rather than panic.
        assert_eq!(t.socket_of(100), 1);
    }
}
