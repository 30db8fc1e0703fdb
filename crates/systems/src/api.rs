//! The unified run API: one trait over every server assembly.
//!
//! [`ServerSystem`] is the single entry point: every assembly's config
//! implements it, running through the one harness
//! [`crate::common::run`], and [`SystemConfig`] names every assembly in
//! one enum for table-driven experiment code:
//!
//! ```
//! use sim_core::{ProbeConfig, SimDuration};
//! use systems::{ServerSystem, SystemConfig};
//! use systems::offload::OffloadConfig;
//! use workload::{ServiceDist, WorkloadSpec};
//!
//! let mut spec = WorkloadSpec::new(50_000.0, ServiceDist::Fixed(SimDuration::from_micros(2)));
//! spec.measure = SimDuration::from_millis(2);
//! let cfg = SystemConfig::Offload(OffloadConfig::paper(4, 4));
//! let m = cfg.run(spec, ProbeConfig::enabled());
//! assert!(m.stages.is_some(), "probing attaches a stage report");
//! ```

use sim_core::ProbeConfig;
use workload::{RunMetrics, WorkloadSpec};

use crate::baseline::{Baseline, BaselineConfig};
use crate::common::{run, Assembly, ResilienceConfig};
use crate::offload::{Offload, OffloadConfig};
use crate::rpcvalet::{RpcValet, RpcValetConfig};
use crate::shinjuku::{Shinjuku, ShinjukuConfig};

/// A complete simulated server that can execute a workload.
///
/// Implemented by every assembly's config type (through
/// [`AssemblyConfig`]) and by [`SystemConfig`]; `probe` selects how much
/// observability to pay for ([`ProbeConfig::disabled()`] is bit-identical
/// to the un-probed path).
pub trait ServerSystem {
    /// Short stable name for tables and CSV labels.
    fn name(&self) -> &'static str;

    /// Simulate `spec` on this system and report client-side metrics
    /// (plus a [`sim_core::StageReport`] when `probe` is enabled).
    fn run(&self, spec: WorkloadSpec, probe: ProbeConfig) -> RunMetrics {
        self.run_resilient(spec, probe, ResilienceConfig::default())
    }

    /// Simulate `spec` with fault injection, client retries, staleness
    /// fallback and NIC-side recovery per `res`. With
    /// [`ResilienceConfig::default()`] this is bit-identical to [`run`]
    /// (same event order, same RNG streams).
    ///
    /// Each assembly honours the subset of `res` that is architecturally
    /// meaningful for it (e.g. baselines have no central dispatcher, so
    /// staleness fallback and recovery are no-ops there); fault and retry
    /// settings apply everywhere. A Shinjuku scale-out applies fallback and
    /// recovery in every dispatcher group.
    ///
    /// [`run`]: ServerSystem::run
    fn run_resilient(
        &self,
        spec: WorkloadSpec,
        probe: ProbeConfig,
        res: ResilienceConfig,
    ) -> RunMetrics;
}

/// A config that names the [`Assembly`] it configures. Every such config
/// is a [`ServerSystem`] that runs through [`crate::common::run`].
pub trait AssemblyConfig: Copy {
    /// The assembly this config builds.
    type Assembly: Assembly<Config = Self>;
}

impl AssemblyConfig for OffloadConfig {
    type Assembly = Offload;
}

impl AssemblyConfig for ShinjukuConfig {
    type Assembly = Shinjuku;
}

impl AssemblyConfig for BaselineConfig {
    type Assembly = Baseline;
}

impl AssemblyConfig for RpcValetConfig {
    type Assembly = RpcValet;
}

impl<C: AssemblyConfig> ServerSystem for C {
    fn name(&self) -> &'static str {
        C::Assembly::name(self)
    }

    fn run_resilient(
        &self,
        spec: WorkloadSpec,
        probe: ProbeConfig,
        res: ResilienceConfig,
    ) -> RunMetrics {
        run::<C::Assembly>(spec, *self, probe, res).0
    }
}

/// Every assembly in the repository, behind one name.
///
/// Lets experiment drivers hold heterogeneous systems in a single
/// `Vec<SystemConfig>` and sweep them uniformly.
#[derive(Debug, Clone, Copy)]
pub enum SystemConfig {
    /// Shinjuku-Offload: the paper's NIC-resident scheduler.
    Offload(OffloadConfig),
    /// Host Shinjuku, with one dispatcher group or several.
    Shinjuku(ShinjukuConfig),
    /// A run-to-completion baseline (RSS / stealing / Flow Director /
    /// Elastic RSS).
    Baseline(BaselineConfig),
    /// RPCValet-style NI-integrated hardware queue.
    RpcValet(RpcValetConfig),
    /// The same assembly as [`SystemConfig::Shinjuku`]; kept so code that
    /// names the scale-out this way (the benchmark among it) still builds.
    MultiShinjuku(ShinjukuConfig),
}

impl SystemConfig {
    /// The config inside, as the system it runs.
    fn system(&self) -> &dyn ServerSystem {
        match self {
            SystemConfig::Offload(c) => c,
            SystemConfig::Shinjuku(c) | SystemConfig::MultiShinjuku(c) => c,
            SystemConfig::Baseline(c) => c,
            SystemConfig::RpcValet(c) => c,
        }
    }
}

impl ServerSystem for SystemConfig {
    fn name(&self) -> &'static str {
        self.system().name()
    }

    fn run_resilient(
        &self,
        spec: WorkloadSpec,
        probe: ProbeConfig,
        res: ResilienceConfig,
    ) -> RunMetrics {
        self.system().run_resilient(spec, probe, res)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::BaselineKind;
    use nicsched::PolicySpec;
    use sim_core::SimDuration;
    use workload::ServiceDist;

    fn quick_spec() -> WorkloadSpec {
        WorkloadSpec {
            offered_rps: 100_000.0,
            dist: ServiceDist::Fixed(SimDuration::from_micros(5)),
            body_len: 64,
            warmup: SimDuration::from_millis(1),
            measure: SimDuration::from_millis(5),
            seed: 42,
        }
    }

    fn all_systems() -> Vec<SystemConfig> {
        vec![
            SystemConfig::Offload(OffloadConfig::paper(4, 4)),
            SystemConfig::Shinjuku(ShinjukuConfig::paper(4)),
            SystemConfig::Baseline(BaselineConfig {
                workers: 4,
                kind: BaselineKind::Rss,
            }),
            SystemConfig::RpcValet(RpcValetConfig { workers: 4 }),
            SystemConfig::Shinjuku(ShinjukuConfig {
                groups: 2,
                workers: 2,
                time_slice: None,
                policy: PolicySpec::FCFS,
            }),
        ]
    }

    #[test]
    fn every_assembly_runs_through_the_trait() {
        for sys in all_systems() {
            let m = sys.run(quick_spec(), ProbeConfig::disabled());
            assert!(
                m.completed > 100,
                "{} completed {}",
                sys.name(),
                m.completed
            );
            assert!(
                m.stages.is_none(),
                "{}: disabled probe attaches nothing",
                sys.name()
            );
        }
    }

    #[test]
    fn every_assembly_reports_stages_when_probed() {
        for sys in all_systems() {
            let m = sys.run(quick_spec(), ProbeConfig::enabled());
            let stages = m
                .stages
                .unwrap_or_else(|| panic!("{}: probed run must report stages", sys.name()));
            assert!(!stages.hops.is_empty(), "{}: no hops recorded", sys.name());
            assert!(
                !stages.stages.is_empty(),
                "{}: no stages recorded",
                sys.name()
            );
            assert!(
                stages.counter("client.sent") > 0 && stages.counter("client.responses") > 0,
                "{}: client counters missing",
                sys.name()
            );
            assert!(
                stages.chain_hops().count() > 0,
                "{}: request path hops missing",
                sys.name()
            );
        }
    }

    #[test]
    fn inert_resilience_is_bit_identical_to_plain_run() {
        use sim_core::faults::FaultConfig;
        use sim_core::SimTime;
        // A fault schedule whose crash never fires inside the 6 ms horizon
        // is queried on every poll, and must change nothing.
        let res = ResilienceConfig {
            faults: FaultConfig::default().with_crash(0, SimTime::from_millis(60)),
            ..ResilienceConfig::default()
        };
        for sys in all_systems() {
            for probe in [ProbeConfig::disabled(), ProbeConfig::enabled()] {
                let plain = sys.run(quick_spec(), probe);
                let inert = sys.run_resilient(quick_spec(), probe, res);
                assert_eq!(
                    plain,
                    inert,
                    "{}: inert faults perturbed the run",
                    sys.name()
                );
            }
        }
    }

    #[test]
    fn every_assembly_closes_the_ledger_under_loss_and_crash() {
        use sim_core::SimTime;
        // Satellite: drop-accounting reconciliation across ALL assemblies —
        // 1% loss plus a mid-run worker crash, and every launched request
        // must still be accounted for.
        let res = ResilienceConfig::loss_and_crash(1, SimTime::ZERO + SimDuration::from_millis(3));
        for sys in all_systems() {
            let m = sys.run_resilient(quick_spec(), ProbeConfig::disabled(), res);
            let f = &m.faults;
            assert_eq!(
                f.unaccounted(),
                0,
                "{}: request ledger leaks: {f:?}",
                sys.name()
            );
            assert!(
                f.in_pipe() < 1200,
                "{}: attempt residue beyond pipeline: {f:?}",
                sys.name()
            );
            assert!(m.completed > 50, "{}: goodput collapsed", sys.name());
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<&str> = all_systems().iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "{names:?}");
    }

    #[test]
    fn equivalent_spec_strings_run_identically() {
        // Distinct spellings of the same policy (defaults spelled out,
        // durations in different units) parse to one spec value and drive
        // bit-identical runs.
        let pairs = [
            ("srpt", "srpt:gain=8,boost=200,floor=1us"),
            ("edf:deadline=50us", "edf:deadline=50000ns"),
            (
                "class-priority:cutoff=10us",
                "class-priority:cutoff=10000ns",
            ),
            ("fcfs", " fcfs "),
        ];
        for (a_str, b_str) in pairs {
            let a_spec = PolicySpec::parse(a_str).expect("valid spec");
            let b_spec = PolicySpec::parse(b_str).expect("valid spec");
            assert_eq!(a_spec, b_spec, "{a_str} vs {b_str}: specs must match");
            let mut cfg = ShinjukuConfig::paper(4);
            cfg.policy = a_spec;
            let a = cfg.run(quick_spec(), ProbeConfig::disabled());
            cfg.policy = b_spec;
            let b = cfg.run(quick_spec(), ProbeConfig::disabled());
            assert_eq!(a, b, "{a_str} vs {b_str}: runs must match");
        }
    }
}
