//! # nic-model — SmartNIC and network-path models
//!
//! Everything between the wire and a CPU core in the `mindgap`
//! reproduction: the Toeplitz [`Rss`] engine with indirection table
//! (verified against Microsoft's published vectors), Intel-style
//! [`FlowDirector`] exact-match steering, SR-IOV MAC-based interface
//! steering with per-interface descriptor [`Ring`]s ([`NicDevice`]),
//! a finite-bandwidth [`Link`] model with honest serialization and
//! framing overheads, and the [`Ddio`] cache-placement model including the
//! paper's §5.2 L1-placement extension.
//!
//! The Stingray-specific compute costs (ARM dispatcher pipeline stages,
//! the 2.56 µs ARM↔host path) live in `nicsched::params`, the single
//! calibration source.

//! # Example
//!
//! ```
//! use nic_model::Rss;
//!
//! // Spread flows over 8 RX queues with the verified Toeplitz hash.
//! let rss = Rss::new(8);
//! let q = rss.steer([10, 0, 0, 1], [10, 0, 1, 0], 7123, 6000);
//! assert!(q < 8);
//! // Same 4-tuple, same queue — flows never migrate under RSS.
//! assert_eq!(q, rss.steer([10, 0, 0, 1], [10, 0, 1, 0], 7123, 6000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ddio;
mod device;
mod flow_director;
mod link;
mod ring;
mod rss;

pub use ddio::{packet_lines, AccessLatencies, Ddio, Placement};
pub use device::{Iface, IfaceId, NicDevice, QueueSteering, SteerDecision};
pub use flow_director::{FlowDirector, FlowKey, InstallResult};
pub use link::Link;
pub use ring::{Ring, RxFrame};
pub use rss::{four_tuple_input, toeplitz_hash, Rss, DEFAULT_KEY};
