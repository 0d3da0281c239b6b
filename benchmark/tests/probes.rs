//! The benchmark's probes must not change what they measure: a probed
//! run of every workload lands on the same state and result as an
//! unprobed one, and a traced smoke pass passes its own output checks.

use gavel_benchmark::probe::{Counting, PolicyProbe};
use gavel_benchmark::run::{pass, result_fingerprint};
use gavel_benchmark::workload::{Scale, Workload, CHECKPOINT_EVERY};
use gavel_core::Policy;
use gavel_service::{
    CheckpointStore, DurableService, LogSink, MemoryCheckpointStore, MemorySink, SchedulerService,
    SimResult,
};

const SEED: u64 = 7;

/// Runs `workload` at smoke size with `policy`, through a durable
/// service on `sink`/`store` when the workload is durable. Returns the
/// final state fingerprint and the result.
fn run<S: LogSink, C: CheckpointStore>(
    workload: Workload,
    policy: &dyn Policy,
    sink: S,
    store: C,
) -> (u64, SimResult) {
    let trace = workload.trace(Scale::Smoke, SEED);
    let config = workload.sim_config(SEED);
    let commands = workload.commands(&trace, &config);
    if workload.durable() {
        let mut svc = DurableService::new(
            policy,
            config,
            workload.service_config(),
            sink,
            store,
            CHECKPOINT_EVERY,
        )
        .unwrap();
        for cmd in &commands {
            svc.apply(cmd).unwrap().ok();
        }
        (svc.service().state_fingerprint(), svc.into_result())
    } else {
        let mut svc = SchedulerService::new(config, workload.service_config(), policy);
        for cmd in &commands {
            svc.apply(cmd).unwrap();
        }
        (svc.state_fingerprint(), svc.into_result())
    }
}

#[test]
fn probed_runs_match_unprobed_runs() {
    for workload in Workload::ALL {
        let plain_policy = workload.policy(SEED);
        let (plain_state, plain) = run(
            workload,
            plain_policy.as_policy(),
            MemorySink::new(),
            MemoryCheckpointStore::new(),
        );
        let probe = PolicyProbe::new(workload.policy(SEED), true);
        let (probed_state, probed) = run(
            workload,
            &probe,
            Counting::new(MemorySink::new(), true),
            Counting::new(MemoryCheckpointStore::new(), true),
        );
        let name = workload.name();
        assert_eq!(plain_state, probed_state, "{name}: state fingerprint");
        assert_eq!(
            result_fingerprint(&plain),
            result_fingerprint(&probed),
            "{name}: result fingerprint"
        );
        assert_eq!(plain.service_stats, probed.service_stats, "{name}");
        assert_eq!(plain.snapshot_stats, probed.snapshot_stats, "{name}");
        assert_eq!(plain.policy_failures, probed.policy_failures, "{name}");
        assert!(
            probe.counters().calls > 0,
            "{name}: the probe saw the calls"
        );
    }
}

#[test]
fn probe_delegates_identity() {
    for workload in Workload::ALL {
        let plain = workload.policy(SEED);
        let probe = PolicyProbe::new(workload.policy(SEED), false);
        assert_eq!(probe.name(), plain.as_policy().name());
        assert_eq!(
            probe.wants_space_sharing(),
            plain.as_policy().wants_space_sharing()
        );
    }
}

#[test]
fn traced_smoke_pass_passes_its_checks() {
    for workload in Workload::ALL {
        let p = pass(workload, Scale::Smoke, SEED, true);
        let name = workload.name();
        let layers = p.layers.as_ref().expect("traced pass has layers");
        assert!(layers.replay_ok, "{name}: replay reproduces the result");
        assert!(p.recovered_ok, "{name}: recovery reproduces the state");
        assert_eq!(p.unexpected_errors, 0, "{name}");
        assert_eq!(p.sim.policy_failures, 0, "{name}");
        assert_eq!(p.sim.outcomes, p.jobs - p.cap_rejections, "{name}");
        assert_eq!(
            p.sim.completed, p.sim.outcomes,
            "{name}: every job completes"
        );
        assert_eq!(p.decisions.len(), p.sim.recomputes, "{name}");
        assert_eq!(p.cmd_s.len(), p.commands, "{name}");
        let again = pass(workload, Scale::Smoke, SEED, false);
        assert_eq!(p.result_fingerprint, again.result_fingerprint, "{name}");
        assert_eq!(p.state_fingerprint, again.state_fingerprint, "{name}");
    }
}
