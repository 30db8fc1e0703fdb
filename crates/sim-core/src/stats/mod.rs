//! Measurement primitives: latency histograms and time-weighted state
//! tracking.

mod histogram;
mod timeweighted;

pub use histogram::Histogram;
pub use timeweighted::{BusyTracker, TimeWeighted};
