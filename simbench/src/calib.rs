//! Host-speed calibration.
//!
//! On a shared VM the host's speed drifts by 10–50% over minutes, with
//! neighbours' load and clock changes, and every loop on it slows by about
//! the same factor. Taking the fastest rep removes bursts within a run, but
//! not that drift. So every round also times a fixed kernel of the
//! benchmark's own, and every reported time is scaled by how far the
//! kernel's fastest rep is from [`REFERENCE_NS`]. The kernel uses only the
//! standard library, so nothing in the simulator can move it. Over ten
//! seeds on one workload this cut the spread of `ns_per_req` from 7–10% to
//! 1–3% (README.md).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// The kernel's ns per op on the reference host, a 2-core x86-64 VM at a
/// quiet time. Reported times are host times scaled to that host.
pub const REFERENCE_NS: f64 = 160.0;

/// Kernel reps per round.
const REPS: usize = 3;

/// The fastest kernel rep seen so far.
pub struct HostSpeed {
    fastest_ns: f64,
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        HostSpeed {
            fastest_ns: f64::INFINITY,
        }
    }

    /// Time a few kernel reps; called once per round.
    pub fn sample(&mut self) {
        for _ in 0..REPS {
            self.fastest_ns = self.fastest_ns.min(kernel_ns());
        }
    }

    /// Multiply a host time by this to get reference-host time.
    pub fn factor(&self) -> f64 {
        REFERENCE_NS / self.fastest_ns
    }

    pub fn kernel_ns(&self) -> f64 {
        self.fastest_ns
    }
}

/// ns per op of a small event loop shaped like the simulator's: pop the
/// earliest of 1024 pending events, build and checksum a 128-byte buffer,
/// update a ledger of ~512 open ids, and push a follow-up event.
fn kernel_ns() -> f64 {
    const OPS: u64 = 100_000;
    let t0 = Instant::now();
    let mut pending: BinaryHeap<Reverse<(u64, u64)>> =
        (0..1024u64).map(|i| Reverse((i * 37 % 1000, i))).collect();
    let mut ledger = BTreeMap::new();
    let mut sum = 0u64;
    for _ in 0..OPS {
        let Reverse((at, id)) = pending.pop().expect("the loop never drains");
        let buf: Vec<u8> = (0..128u64).map(|b| (b ^ id) as u8).collect();
        sum = sum.wrapping_add(buf.iter().map(|&b| u64::from(b)).sum::<u64>());
        ledger.insert(id, at);
        if ledger.len() > 512 {
            ledger.pop_first();
        }
        let gap = 100 + id.wrapping_mul(0x9E37_79B9) % 900;
        pending.push(Reverse((at + gap, id + 1024)));
    }
    black_box(sum);
    t0.elapsed().as_nanos() as f64 / OPS as f64
}
