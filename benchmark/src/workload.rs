//! The four benchmark workloads: what each one feeds the service, and
//! with which policy. Every input is a pure function of the benchmark
//! seed; the service itself only ever sees the generated commands.

use gavel_core::Policy;
use gavel_policies::{EntityPolicy, GandivaPolicy, Hierarchical, MaxMinFairness};
use gavel_service::{Command, ServiceConfig, SimConfig};
use gavel_sim::compile_trace;
use gavel_workloads::{
    assign_entities, cluster_simulated, cluster_twelve, generate, Oracle, TraceConfig, TraceJob,
};

/// The durable session checkpoints after every this many commands.
pub const CHECKPOINT_EVERY: usize = 64;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Hierarchical fairness over four weighted entities: the sharded,
    /// warm-chained probe-LP path does nearly all of the work.
    TraceHier,
    /// Space-sharing max-min fairness (the paper's headline policy): a few
    /// large cold LPs over pair rows per recompute.
    TraceLasSs,
    /// The Gandiva space-sharing heuristic (no LP) on a deep backlog: the
    /// snapshot pair store, the round scheduler and admission dominate.
    TraceSsBacklog,
    /// An online multi-entity session through the WAL, checkpoints and
    /// recovery, with a cheap policy.
    SvcDurable,
}

/// Input size: `Bench` for measurements, `Smoke` for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Smoke,
    Bench,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TraceHier,
        Workload::TraceLasSs,
        Workload::TraceSsBacklog,
        Workload::SvcDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TraceHier => "trace-hier",
            Workload::TraceLasSs => "trace-las-ss",
            Workload::TraceSsBacklog => "trace-ss-backlog",
            Workload::SvcDurable => "svc-durable",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether commands go through `DurableService` (WAL + checkpoints)
    /// rather than a plain `SchedulerService`.
    pub fn durable(self) -> bool {
        self == Workload::SvcDurable
    }

    /// Independent traces per pass. A trace workload sums several, so a
    /// run's figures do not hinge on the load peaks of a single trace.
    pub fn traces(self, scale: Scale) -> usize {
        match (self, scale) {
            (Workload::SvcDurable, _) | (_, Scale::Smoke) => 1,
            (Workload::TraceHier, Scale::Bench) => 32,
            (Workload::TraceLasSs, Scale::Bench) => 32,
            (Workload::TraceSsBacklog, Scale::Bench) => 6,
        }
    }

    /// Seed of trace `k` of a run with seed `seed`.
    pub fn trace_seed(self, seed: u64, k: usize) -> u64 {
        seed.wrapping_mul(64).wrapping_add(k as u64)
    }

    /// `(jobs per hour, jobs)` of each generated Poisson trace.
    fn shape(self, scale: Scale) -> (f64, usize) {
        match (self, scale) {
            (Workload::TraceHier, Scale::Bench) => (3.0, 40),
            (Workload::TraceLasSs, Scale::Bench) => (3.0, 80),
            (Workload::TraceSsBacklog, Scale::Bench) => (6.0, 500),
            (Workload::SvcDurable, Scale::Bench) => (4.0, 12_000),
            (Workload::SvcDurable, Scale::Smoke) => (4.0, 200),
            (_, Scale::Smoke) => (3.0, 24),
        }
    }

    /// The generated job trace.
    pub fn trace(self, scale: Scale, seed: u64) -> Vec<TraceJob> {
        let (jobs_per_hour, jobs) = self.shape(scale);
        let mut trace = generate(
            &TraceConfig::continuous_single(jobs_per_hour, jobs, seed),
            &Oracle::new(),
        );
        match self {
            Workload::TraceHier => assign_entities(&mut trace, 4),
            Workload::SvcDurable => assign_entities(&mut trace, 3),
            Workload::TraceLasSs | Workload::TraceSsBacklog => {}
        }
        trace
    }

    pub fn sim_config(self, seed: u64) -> SimConfig {
        let mut config = match self {
            Workload::TraceHier => SimConfig::new(cluster_simulated()),
            Workload::TraceLasSs | Workload::TraceSsBacklog => {
                SimConfig::new(cluster_simulated()).with_space_sharing()
            }
            Workload::SvcDurable => {
                SimConfig::new(cluster_twelve()).with_failures(86_400.0, 3_600.0)
            }
        };
        config.seed = seed;
        config
    }

    pub fn service_config(self) -> ServiceConfig {
        ServiceConfig {
            max_active_per_entity: self.durable().then_some(4),
        }
    }

    /// A fresh policy instance (`GandivaPolicy` keeps exploration state,
    /// so every run and every replay needs its own).
    pub fn policy(self, seed: u64) -> BenchPolicy {
        match self {
            Workload::TraceHier => BenchPolicy::Hier(Hierarchical::new(
                vec![1.0, 2.0, 3.0, 4.0],
                EntityPolicy::Fairness,
            )),
            Workload::TraceLasSs => {
                BenchPolicy::Plain(Box::new(MaxMinFairness::with_space_sharing()))
            }
            Workload::TraceSsBacklog => BenchPolicy::Plain(Box::new(GandivaPolicy::new(seed))),
            Workload::SvcDurable => BenchPolicy::Plain(Box::new(MaxMinFairness::new())),
        }
    }

    /// The command stream the service receives. Traces compile to
    /// `[AdvanceTo, Submit]*` plus a drain; the durable session also reads
    /// the allocation after every submit, so reads interleave with writes.
    pub fn commands(self, trace: &[TraceJob], config: &SimConfig) -> Vec<Command> {
        if !self.durable() {
            return compile_trace(trace, config);
        }
        let mut cmds = Vec::with_capacity(3 * trace.len() + 1);
        for job in trace {
            cmds.push(Command::AdvanceTo {
                seconds: job.arrival_time,
            });
            cmds.push(Command::Submit { job: job.clone() });
            cmds.push(Command::QueryAllocation);
        }
        cmds.push(Command::AdvanceTo {
            seconds: config.max_seconds,
        });
        cmds
    }
}

/// The policy under test. The hierarchical policy is kept concrete so the
/// probe can call `compute_allocation_with_stats` and read its solver
/// counters.
pub enum BenchPolicy {
    Hier(Hierarchical),
    Plain(Box<dyn Policy>),
}

impl BenchPolicy {
    pub fn as_policy(&self) -> &dyn Policy {
        match self {
            BenchPolicy::Hier(h) => h,
            BenchPolicy::Plain(p) => p.as_ref(),
        }
    }
}
