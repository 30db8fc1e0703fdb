//! The parallel sweep runner's whole contract in one test: the worker
//! pool only changes *when* points run, never *what* they compute, so
//! `--jobs 1` and `--jobs 4` must produce identical metrics — down to
//! the last preemption count — for every server assembly.
//!
//! This lives in its own integration-test binary because the job count
//! is process-global state; nothing else may race it.

use experiments::sweep::{par_map, set_jobs};
use experiments::Scale;
use systems::baseline::{BaselineConfig, BaselineKind};
use systems::offload::OffloadConfig;
use systems::rpcvalet::RpcValetConfig;
use systems::shinjuku::ShinjukuConfig;
use systems::{ProbeConfig, ServerSystem, SystemConfig};
use workload::{RunMetrics, ServiceDist};

fn assemblies() -> Vec<SystemConfig> {
    vec![
        SystemConfig::Offload(OffloadConfig::paper(4, 4)),
        SystemConfig::Shinjuku(ShinjukuConfig::paper(4)),
        SystemConfig::Baseline(BaselineConfig {
            workers: 4,
            kind: BaselineKind::Rss,
        }),
        SystemConfig::RpcValet(RpcValetConfig { workers: 4 }),
        SystemConfig::Shinjuku(ShinjukuConfig::split(10, 2)),
    ]
}

fn one_point_per_assembly(jobs: usize) -> Vec<RunMetrics> {
    set_jobs(jobs);
    let out = par_map(&assemblies(), |sys| {
        let spec = Scale::Quick.spec_seeded(250_000.0, ServiceDist::paper_bimodal(), 23);
        sys.run(spec, ProbeConfig::disabled())
    });
    set_jobs(0);
    out
}

#[test]
fn jobs_1_and_jobs_4_are_bit_identical_for_every_assembly() {
    let serial = one_point_per_assembly(1);
    let pooled = one_point_per_assembly(4);
    assert_eq!(serial.len(), pooled.len());
    for (s, p) in serial.iter().zip(&pooled) {
        assert_eq!(s, p, "an assembly diverged between --jobs 1 and --jobs 4");
        assert!(s.completed > 0, "the point must actually simulate traffic");
    }
}
