//! Worker (core) selection strategies.
//!
//! With fine-grained core feedback the NIC can choose *which* core gets a
//! request, not just which request runs next. §3.1 sketches the payoff:
//! feedback could include "performance counter data used to predict the
//! state of each core's caches and provide good scheduling affinity". The
//! prototype assigns the head-of-queue request to the least-loaded worker
//! ([`LeastOutstanding`]); the dual-socket offload configuration prefers
//! workers on the NIC's socket ([`SocketAffinity`]).

/// What the dispatcher knows about one worker when selecting. Every
/// candidate shown to `pick_next`/`select` is below the outstanding cap,
/// not quarantined, and selectable by the failure detector (when recovery
/// is on).
#[derive(Clone, Copy, Debug)]
pub struct WorkerView {
    /// Worker index (dense, 0-based).
    pub worker: usize,
    /// Requests currently outstanding at the worker (executing + stashed
    /// in its RX queue under the §3.4.5 queuing optimization).
    pub outstanding: u32,
}

/// A worker-selection strategy.
pub trait CoreSelector {
    /// Choose among `candidates` (all satisfy the outstanding cap;
    /// non-empty) for `req_id`. Returns an index *into `candidates`*.
    fn select(&mut self, candidates: &[WorkerView], req_id: u64) -> usize;
}

/// Pick the candidate with the fewest outstanding requests, lowest index
/// first — the prototype's behaviour of preferring idle workers.
#[derive(Debug, Default)]
pub struct LeastOutstanding;

impl CoreSelector for LeastOutstanding {
    fn select(&mut self, candidates: &[WorkerView], _req_id: u64) -> usize {
        let mut best = 0;
        for (i, c) in candidates.iter().enumerate().skip(1) {
            if c.outstanding < candidates[best].outstanding {
                best = i;
            }
        }
        best
    }
}

/// Prefer workers on the NIC's socket — where DDIO pre-loaded the packet
/// (§1's multi-socket warning). Falls back to least-outstanding off-socket
/// when every local worker is at the cap.
#[derive(Debug)]
pub struct SocketAffinity {
    /// Socket of each worker, by global worker index.
    pub sockets: Vec<u8>,
    /// The socket whose LLC receives DDIO traffic.
    pub nic_socket: u8,
    fallback: LeastOutstanding,
}

impl SocketAffinity {
    /// Build from a worker→socket map.
    pub fn new(sockets: Vec<u8>, nic_socket: u8) -> SocketAffinity {
        SocketAffinity {
            sockets,
            nic_socket,
            fallback: LeastOutstanding,
        }
    }
}

impl CoreSelector for SocketAffinity {
    fn select(&mut self, candidates: &[WorkerView], req_id: u64) -> usize {
        // Least-outstanding among NIC-socket candidates, if any exist.
        let mut best: Option<usize> = None;
        for (i, c) in candidates.iter().enumerate() {
            if self.sockets.get(c.worker).copied().unwrap_or(0) != self.nic_socket {
                continue;
            }
            match best {
                Some(b) if candidates[b].outstanding <= c.outstanding => {}
                _ => best = Some(i),
            }
        }
        best.unwrap_or_else(|| self.fallback.select(candidates, req_id))
    }
}

// Boxed selectors are selectors, so assemblies can pick one at runtime.
impl CoreSelector for Box<dyn CoreSelector> {
    fn select(&mut self, candidates: &[WorkerView], req_id: u64) -> usize {
        (**self).select(candidates, req_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(worker: usize, outstanding: u32) -> WorkerView {
        WorkerView {
            worker,
            outstanding,
        }
    }

    #[test]
    fn least_outstanding_prefers_idle() {
        let mut s = LeastOutstanding;
        let c = [view(0, 2), view(1, 0), view(2, 1)];
        assert_eq!(s.select(&c, 1), 1);
    }

    #[test]
    fn least_outstanding_ties_pick_lowest_index() {
        let mut s = LeastOutstanding;
        let c = [view(3, 1), view(5, 1), view(7, 1)];
        assert_eq!(s.select(&c, 1), 0);
    }

    #[test]
    fn socket_affinity_prefers_nic_socket() {
        // Workers 0-1 on socket 0 (NIC), 2-3 on socket 1.
        let mut s = SocketAffinity::new(vec![0, 0, 1, 1], 0);
        let c = [view(0, 2), view(1, 1), view(2, 0), view(3, 0)];
        // Worker 2/3 are idle, but 1 is on the NIC socket with slack.
        assert_eq!(s.select(&c, 9), 1);
        // With only off-socket candidates, fall back to least-outstanding.
        let off = [view(2, 1), view(3, 0)];
        assert_eq!(s.select(&off, 9), 1);
    }

    #[test]
    fn boxed_selector_delegates() {
        let mut s: Box<dyn CoreSelector> = Box::new(SocketAffinity::new(vec![1, 0], 0));
        let c = [view(0, 0), view(1, 2)];
        assert_eq!(s.select(&c, 1), 1);
    }
}
