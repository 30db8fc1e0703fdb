//! Output checks. Simulated statistics are deterministic, so the benchmark
//! pins them instead of timing them: a run that is faster because it
//! simulates something else must fail, not win.

use workload::RunMetrics;

/// Fingerprints of the unprobed workloads' runs for a range of seeds, one
/// `seed workload assembly fnv1a64` line each. A probed run must match its
/// unprobed twin, so `fig2-bimodal-probed` is checked against the
/// `fig2-bimodal` lines.
const GOLDEN: &str = include_str!("../golden/e2e_fingerprints.txt");

/// FNV-1a-64 over a run's latency, throughput and ledger outputs, leaving
/// out the stage report (which only a probed run carries). The fields are
/// named one by one so that adding a field to `RunMetrics` does not move
/// the hash.
pub fn fingerprint(m: &RunMetrics) -> u64 {
    let f = &m.faults;
    let words = [
        m.offered_rps.to_bits(),
        m.achieved_rps.to_bits(),
        m.p50.as_nanos(),
        m.p99.as_nanos(),
        m.p999.as_nanos(),
        m.p99_short.as_nanos(),
        m.p99_long.as_nanos(),
        m.mean.as_nanos(),
        m.completed,
        m.dropped,
        m.preemptions,
        m.worker_utilization.to_bits(),
        f.attempts,
        f.launched,
        f.completed_all,
        f.retries,
        f.timeouts,
        f.duplicates,
        f.orphaned,
        f.abandoned,
        f.open_at_horizon,
        f.req_link_lost,
        f.resp_link_lost,
        f.ring_dropped,
        f.shed,
        f.nacks,
        f.stranded,
    ];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn rows() -> impl Iterator<Item = &'static str> {
    GOLDEN.lines().filter(|l| !l.starts_with('#'))
}

/// The golden fingerprint of (`seed`, `workload`, `assembly`), when the
/// table covers that seed.
pub fn golden(seed: u64, workload: &str, assembly: &str) -> Option<u64> {
    let workload = workload.strip_suffix("-probed").unwrap_or(workload);
    rows().find_map(|line| {
        let mut f = line.split_whitespace();
        let row = (f.next()?, f.next()?, f.next()?, f.next()?);
        (row.0.parse() == Ok(seed) && row.1 == workload && row.2 == assembly)
            .then(|| u64::from_str_radix(row.3, 16).ok())
            .flatten()
    })
}

/// Counts checked operations and the ones that failed, and says why on
/// stderr.
#[derive(Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("simbench: CHECK FAILED: {}", what());
        }
    }

    /// Every condition one simulation run must meet: the request ledger
    /// closes, nothing is dropped, goodput holds (the workloads sit below
    /// every knee), and the outputs match the golden fingerprint when the
    /// table covers this seed.
    pub fn run(&mut self, seed: u64, workload: &str, assembly: &str, m: &RunMetrics) {
        let fp = fingerprint(m);
        let golden = golden(seed, workload, assembly);
        self.check(
            m.faults.unaccounted() == 0
                && m.dropped == 0
                && m.goodput_ratio() >= 0.99
                && golden.map_or(true, |g| g == fp),
            || {
                format!(
                    "{workload}/{assembly} seed {seed}: ledger residue {}, dropped {}, \
                     goodput {:.4}, fingerprint {fp:016x} vs golden {}",
                    m.faults.unaccounted(),
                    m.dropped,
                    m.goodput_ratio(),
                    golden.map_or("none".into(), |g| format!("{g:016x}"))
                )
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{ASSEMBLIES, WORKLOADS};

    #[test]
    fn golden_covers_every_unprobed_pair_for_seeds_0_to_15() {
        for seed in 0..16 {
            for w in WORKLOADS.iter() {
                for a in ASSEMBLIES {
                    assert!(golden(seed, w.name, a).is_some(), "{seed} {} {a}", w.name);
                }
            }
        }
        assert_eq!(rows().count(), 16 * 3 * ASSEMBLIES.len());
    }

    #[test]
    fn fingerprint_sees_every_output() {
        use sim_core::SimDuration;
        let spec = WORKLOADS[0].spec(1);
        let sys = WORKLOADS[0].assemblies()[0];
        let mut short = spec;
        short.measure = SimDuration::from_millis(1);
        let m = systems::ServerSystem::run(&sys, short, sim_core::ProbeConfig::disabled());
        let mut other = m.clone();
        other.faults.open_at_horizon += 1;
        assert_ne!(fingerprint(&m), fingerprint(&other));
        let mut probed = m.clone();
        probed.stages = Some(Default::default());
        assert_eq!(fingerprint(&m), fingerprint(&probed));
    }
}
