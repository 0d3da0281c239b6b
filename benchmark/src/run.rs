//! One pass of a workload: for each of its traces, set-up, the timed
//! command stream, and recovery from the durable images the run leaves
//! behind. A traced pass also gathers the per-layer breakdown and runs
//! the replay check.

use crate::clock::Stopwatch;
use crate::probe::{Counting, IoCounters, PolicyCounters, PolicyProbe};
use crate::reference;
use crate::workload::{Scale, Workload, CHECKPOINT_EVERY};
use gavel_service::{
    recover, replay, scan_wal, Checkpoint, Command, DurableService, MemoryCheckpointStore,
    MemorySink, Rejection, SchedulerService, ServiceConfig, ServiceError, SimConfig, SimResult,
    SubmissionLog, Wal,
};
use std::time::Instant;

/// Per-layer numbers gathered by a traced pass, summed over its traces.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub generate_s: f64,
    pub compile_s: f64,
    /// Wall seconds of the `apply` loops, which the per-command clocks
    /// partition.
    pub loop_s: f64,
    /// Summed wall clocks of `apply` by command kind, leaving out the
    /// commands that also saved a checkpoint.
    pub submit_s: f64,
    pub advance_s: f64,
    pub query_s: f64,
    pub into_result_s: f64,
    pub policy: PolicyCounters,
    pub wal: IoCounters,
    pub checkpoint: IoCounters,
    /// Summed wall clocks of the `apply` calls during which a checkpoint
    /// was saved.
    pub checkpoint_apply_s: f64,
    /// `Checkpoint::parse`, prefix `SubmissionLog::parse` and `scan_wal`,
    /// each timed on its own.
    pub parse_s: f64,
    pub prefix_cmds: usize,
    pub wal_cmds: usize,
    /// The same commands through a plain `SchedulerService` (durable
    /// session only; 0 elsewhere).
    pub plain_apply_s: f64,
    /// Whether `replay` of every run's submission log reproduced its
    /// result.
    pub replay_ok: bool,
}

impl Layers {
    fn add(&mut self, o: &Layers) {
        self.generate_s += o.generate_s;
        self.compile_s += o.compile_s;
        self.loop_s += o.loop_s;
        self.submit_s += o.submit_s;
        self.advance_s += o.advance_s;
        self.query_s += o.query_s;
        self.into_result_s += o.into_result_s;
        self.policy.add(&o.policy);
        self.wal.add(&o.wal);
        self.checkpoint.add(&o.checkpoint);
        self.checkpoint_apply_s += o.checkpoint_apply_s;
        self.parse_s += o.parse_s;
        self.prefix_cmds += o.prefix_cmds;
        self.wal_cmds += o.wal_cmds;
        self.plain_apply_s += o.plain_apply_s;
        self.replay_ok &= o.replay_ok;
    }
}

/// The simulated outcome and service counters, summed over a pass's
/// traces. Deterministic: identical in every pass of one seed.
#[derive(Debug, Clone, Default)]
pub struct Sim {
    pub traces: usize,
    pub outcomes: usize,
    pub completed: usize,
    pub jct_sum_s: f64,
    pub makespan_sum_s: f64,
    pub rounds: usize,
    pub recomputes: usize,
    pub policy_failures: usize,
    /// Wall seconds the service itself measured in recomputes (snapshot +
    /// policy): `SimResult::policy_solve_seconds`.
    pub policy_solve_s: f64,
    pub pair_evals: usize,
    pub buckets_walked: usize,
    pub candidates_sorted: usize,
    pub pair_rows_materialized: usize,
    pub flat_reranks: usize,
}

impl Sim {
    fn from_result(r: &SimResult) -> Sim {
        let s = &r.snapshot_stats;
        let jcts: Vec<f64> = r.jobs.iter().filter_map(|j| j.jct()).collect();
        Sim {
            traces: 1,
            outcomes: r.jobs.len(),
            completed: jcts.len(),
            jct_sum_s: jcts.iter().sum(),
            makespan_sum_s: r.makespan,
            rounds: r.rounds,
            recomputes: r.recomputations,
            policy_failures: r.policy_failures,
            policy_solve_s: r.policy_solve_seconds,
            pair_evals: s.pair_evals,
            buckets_walked: s.buckets_walked,
            candidates_sorted: s.candidates_sorted,
            pair_rows_materialized: s.pair_rows_materialized,
            flat_reranks: s.flat_reranks,
        }
    }

    fn merge(&mut self, o: &Sim) {
        self.traces += o.traces;
        self.outcomes += o.outcomes;
        self.completed += o.completed;
        self.jct_sum_s += o.jct_sum_s;
        self.makespan_sum_s += o.makespan_sum_s;
        self.rounds += o.rounds;
        self.recomputes += o.recomputes;
        self.policy_failures += o.policy_failures;
        self.policy_solve_s += o.policy_solve_s;
        self.pair_evals += o.pair_evals;
        self.buckets_walked += o.buckets_walked;
        self.candidates_sorted += o.candidates_sorted;
        self.pair_rows_materialized += o.pair_rows_materialized;
        self.flat_reranks += o.flat_reranks;
    }

    /// Mean job completion time over every completed job, hours.
    pub fn avg_jct_h(&self) -> f64 {
        self.jct_sum_s / self.completed as f64 / 3600.0
    }

    /// Mean makespan over the traces, hours.
    pub fn makespan_h(&self) -> f64 {
        self.makespan_sum_s / self.traces as f64 / 3600.0
    }
}

/// Everything one pass measured and produced, summed over its traces.
///
/// `wall_s`, `apply_s`, `recover_s`, `request_s` and `decisions` are in
/// reference seconds (see `reference`): each trace's measured seconds
/// scaled by the reference kernel timed before and after it. The `raw_`
/// fields and `cmd_s` keep the measured seconds.
#[derive(Debug, Default)]
pub struct Pass {
    /// Per trace: from the first `apply` until `into_result` returns.
    pub wall_s: Vec<f64>,
    pub raw_wall_s: Vec<f64>,
    /// Per trace: the `apply` loop alone.
    pub apply_s: Vec<f64>,
    pub raw_apply_s: Vec<f64>,
    /// Per trace: `recover()` from the durable images the run left behind.
    pub recover_s: Vec<f64>,
    pub raw_recover_s: Vec<f64>,
    /// Wall seconds of each `apply`, in command order.
    pub cmd_s: Vec<f64>,
    /// Wall seconds of each request, in command order: every command but
    /// `AdvanceTo`, which stands in for the passage of time.
    pub request_s: Vec<f64>,
    /// Seconds of each policy decision, in call order.
    pub decisions: Vec<f64>,
    /// CPU seconds of the reference kernel, before the first trace and
    /// after each one.
    pub kernel_s: Vec<f64>,
    pub sim: Sim,
    /// Folds every trace's result (makespan, cost, each job's completion
    /// and cost bits).
    pub result_fingerprint: u64,
    /// Folds every trace's final `state_fingerprint`.
    pub state_fingerprint: u64,
    pub jobs: usize,
    pub commands: usize,
    /// Errors other than the durable session's designed cap rejections.
    pub unexpected_errors: usize,
    pub cap_rejections: usize,
    pub refused_recoveries: usize,
    /// Whether every recovered state fingerprint equals the live one.
    pub recovered_ok: bool,
    pub layers: Option<Layers>,
}

impl Pass {
    fn add(&mut self, o: Pass) {
        self.wall_s.extend(o.wall_s);
        self.raw_wall_s.extend(o.raw_wall_s);
        self.apply_s.extend(o.apply_s);
        self.raw_apply_s.extend(o.raw_apply_s);
        self.recover_s.extend(o.recover_s);
        self.raw_recover_s.extend(o.raw_recover_s);
        self.cmd_s.extend(o.cmd_s);
        self.request_s.extend(o.request_s);
        self.decisions.extend(o.decisions);
        self.kernel_s.extend(o.kernel_s);
        self.result_fingerprint = mix(self.result_fingerprint, o.result_fingerprint);
        self.state_fingerprint = mix(self.state_fingerprint, o.state_fingerprint);
        self.jobs += o.jobs;
        self.commands += o.commands;
        self.unexpected_errors += o.unexpected_errors;
        self.cap_rejections += o.cap_rejections;
        self.refused_recoveries += o.refused_recoveries;
        self.recovered_ok &= o.recovered_ok;
        match (&mut self.layers, o.layers) {
            (Some(l), Some(ol)) => l.add(&ol),
            (l @ None, ol) => *l = ol,
            _ => {}
        }
        self.sim.merge(&o.sim);
    }

    /// Converts the timings that have a reference-seconds form from
    /// measured seconds, by the speed factor of `reference::factor`.
    fn rescale(&mut self, factor: f64) {
        for v in [
            &mut self.wall_s,
            &mut self.apply_s,
            &mut self.recover_s,
            &mut self.request_s,
            &mut self.decisions,
        ] {
            v.iter_mut().for_each(|x| *x *= factor);
        }
    }
}

/// Folds a result into one value: makespan, cost, and every job's
/// completion and cost bits.
pub fn result_fingerprint(r: &SimResult) -> u64 {
    let mut h = 0u64;
    h = mix(h, r.makespan.to_bits());
    h = mix(h, r.total_cost.to_bits());
    h = mix(h, r.rounds as u64);
    h = mix(h, r.recomputations as u64);
    for j in &r.jobs {
        h = mix(h, j.id.0);
        h = mix(h, j.completion.map_or(u64::MAX, f64::to_bits));
        h = mix(h, j.cost.to_bits());
    }
    h
}

fn mix(acc: u64, x: u64) -> u64 {
    (acc.rotate_left(13) ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Seconds to set up every trace of a pass: generate the trace,
/// compile its commands, and construct the policy and the service.
pub fn setup_seconds(workload: Workload, scale: Scale, seed: u64) -> f64 {
    let t = Stopwatch::start();
    for k in 0..workload.traces(scale) {
        let seed = workload.trace_seed(seed, k);
        let trace = workload.trace(scale, seed);
        let config = workload.sim_config(seed);
        let service = workload.service_config();
        let commands = workload.commands(&trace, &config);
        let probe = PolicyProbe::new(workload.policy(seed), false);
        if workload.durable() {
            let svc = DurableService::new(
                &probe,
                config,
                service,
                MemorySink::new(),
                MemoryCheckpointStore::new(),
                CHECKPOINT_EVERY,
            );
            std::hint::black_box((svc.is_ok(), commands.len()));
        } else {
            let svc = SchedulerService::new(config, service, &probe);
            std::hint::black_box((svc.now(), commands.len()));
        }
    }
    t.seconds()
}

/// Runs one pass of `workload`: each of its traces in turn, with the
/// reference kernel timed before the first and after each one.
pub fn pass(workload: Workload, scale: Scale, seed: u64, traced: bool) -> Pass {
    let mut before = reference::kernel_seconds();
    let mut total = Pass {
        recovered_ok: true,
        kernel_s: vec![before],
        ..Pass::default()
    };
    for k in 0..workload.traces(scale) {
        let mut one = run_trace(workload, scale, workload.trace_seed(seed, k), traced);
        let after = reference::kernel_seconds();
        one.rescale(reference::factor(before, after));
        one.kernel_s = vec![after];
        total.add(one);
        before = after;
    }
    total
}

/// Per-command clocks of one run over the command stream. Commands take
/// microseconds, so they are timed with the wall clock, which costs a
/// fraction of a CPU-clock read (see `clock`).
#[derive(Default)]
struct Clocks {
    /// Wall seconds of the whole loop, which the per-command clocks must
    /// add up to.
    loop_s: f64,
    cmd_s: Vec<f64>,
    request_s: Vec<f64>,
    /// Submit, advance, query, other.
    kind_s: [f64; 4],
    checkpoint_apply_s: f64,
    unexpected: usize,
    cap: usize,
}

/// Feeds `commands` to `apply`, which returns the service verdict (`None`
/// for a durability-layer failure) and whether a checkpoint was saved.
fn drive(
    commands: &[Command],
    mut apply: impl FnMut(&Command) -> (Option<Result<(), ServiceError>>, bool),
) -> Clocks {
    let mut c = Clocks {
        cmd_s: Vec::with_capacity(commands.len()),
        ..Clocks::default()
    };
    let start = Instant::now();
    for cmd in commands {
        let t0 = Instant::now();
        let (verdict, saved) = apply(cmd);
        let dt = t0.elapsed().as_secs_f64();
        c.cmd_s.push(dt);
        if !matches!(cmd, Command::AdvanceTo { .. }) {
            c.request_s.push(dt);
        }
        let kind = match cmd {
            Command::Submit { .. } => 0,
            Command::AdvanceTo { .. } => 1,
            Command::QueryAllocation => 2,
            _ => 3,
        };
        // A command that also saved a checkpoint is charged to the
        // checkpoint, so the kinds and the checkpoint partition the clocks.
        if saved {
            c.checkpoint_apply_s += dt;
        } else {
            c.kind_s[kind] += dt;
        }
        match verdict {
            Some(Ok(())) => {}
            Some(Err(e)) if e.rejection() == Some(Rejection::EntityCapExceeded) => c.cap += 1,
            _ => c.unexpected += 1,
        }
    }
    c.loop_s = start.elapsed().as_secs_f64();
    c
}

/// What a run over one trace hands to recovery and the checks.
struct Ran {
    apply_s: f64,
    into_result_s: f64,
    clocks: Clocks,
    result: SimResult,
    state_fingerprint: u64,
    log: SubmissionLog,
    wal_bytes: Vec<u8>,
    checkpoint_bytes: Option<Vec<u8>>,
    wal: IoCounters,
    checkpoint: IoCounters,
}

/// Runs one trace. Set-up is timed separately from the command stream;
/// nothing is generated or compiled inside the timed region.
fn run_trace(workload: Workload, scale: Scale, seed: u64, traced: bool) -> Pass {
    let t0 = Stopwatch::start();
    let trace = workload.trace(scale, seed);
    let generate_s = t0.seconds();
    let config = workload.sim_config(seed);
    let service = workload.service_config();
    let t1 = Stopwatch::start();
    let commands = workload.commands(&trace, &config);
    let compile_s = t1.seconds();
    let probe = PolicyProbe::new(workload.policy(seed), traced);
    let ran = if workload.durable() {
        run_durable(&config, &service, &commands, &probe, traced)
    } else {
        run_plain(&config, &service, &commands, &probe)
    };
    let decisions = probe.take_decisions();

    // Recovery runs its own policy instance, so its recomputes do not
    // count as the run's decisions.
    let recovery_policy = workload.policy(seed);
    let t = Stopwatch::start();
    let recovered = recover(
        recovery_policy.as_policy(),
        &config,
        &service,
        ran.checkpoint_bytes.as_deref(),
        &ran.wal_bytes,
    );
    let recover_s = t.seconds();
    let (recovered_ok, report) = match recovered {
        Ok((svc, report)) => (
            svc.state_fingerprint() == ran.state_fingerprint,
            Some(report),
        ),
        Err(_) => (false, None),
    };

    let result_fp = result_fingerprint(&ran.result);
    let layers = traced.then(|| {
        let (prefix_cmds, wal_cmds) = report
            .as_ref()
            .map_or((0, 0), |r| (r.prefix_commands, r.wal_commands_applied));
        let replay_policy = workload.policy(seed);
        let replayed = replay(replay_policy.as_policy(), &config, &service, &ran.log);
        Layers {
            generate_s,
            compile_s,
            loop_s: ran.clocks.loop_s,
            submit_s: ran.clocks.kind_s[0],
            advance_s: ran.clocks.kind_s[1],
            query_s: ran.clocks.kind_s[2],
            into_result_s: ran.into_result_s,
            policy: probe.counters(),
            wal: ran.wal,
            checkpoint: ran.checkpoint,
            checkpoint_apply_s: ran.clocks.checkpoint_apply_s,
            parse_s: parse_seconds(ran.checkpoint_bytes.as_deref(), &ran.wal_bytes),
            prefix_cmds,
            wal_cmds,
            plain_apply_s: if workload.durable() {
                plain_apply_seconds(workload, seed, &config, &service, &commands)
            } else {
                0.0
            },
            replay_ok: result_fingerprint(&replayed) == result_fp,
        }
    });
    // Measured seconds; `pass` converts the unprefixed copies to
    // reference seconds and adds the kernel samples.
    let wall_s = ran.apply_s + ran.into_result_s;
    Pass {
        wall_s: vec![wall_s],
        raw_wall_s: vec![wall_s],
        apply_s: vec![ran.apply_s],
        raw_apply_s: vec![ran.apply_s],
        recover_s: vec![recover_s],
        raw_recover_s: vec![recover_s],
        kernel_s: Vec::new(),
        decisions,
        sim: Sim::from_result(&ran.result),
        result_fingerprint: result_fp,
        state_fingerprint: ran.state_fingerprint,
        jobs: trace.len(),
        commands: commands.len(),
        unexpected_errors: ran.clocks.unexpected,
        cap_rejections: ran.clocks.cap,
        refused_recoveries: usize::from(report.is_none()),
        recovered_ok,
        layers,
        cmd_s: ran.clocks.cmd_s,
        request_s: ran.clocks.request_s,
    }
}

/// A trace through a plain `SchedulerService`. Its WAL image is written
/// from the submission log afterwards, outside every clock, so recovery
/// can be measured on it.
fn run_plain(
    config: &SimConfig,
    service: &ServiceConfig,
    commands: &[Command],
    probe: &PolicyProbe,
) -> Ran {
    let mut svc = SchedulerService::new(config.clone(), service.clone(), probe);
    let start = Stopwatch::start();
    let clocks = drive(commands, |cmd| (Some(svc.apply(cmd)), false));
    let apply_s = start.seconds();
    let state_fingerprint = svc.state_fingerprint();
    let log = svc.log().clone();
    let t = Stopwatch::start();
    let result = svc.into_result();
    let into_result_s = t.seconds();

    let mut wal = Wal::create(MemorySink::new()).expect("an in-memory WAL cannot fail");
    for cmd in log.commands() {
        wal.append_command(cmd)
            .expect("an in-memory WAL cannot fail");
    }
    Ran {
        apply_s,
        into_result_s,
        clocks,
        result,
        state_fingerprint,
        log,
        wal_bytes: wal.into_sink().into_bytes(),
        checkpoint_bytes: None,
        wal: IoCounters::default(),
        checkpoint: IoCounters::default(),
    }
}

/// A session through `DurableService`: every command goes to the WAL and
/// a checkpoint is taken every [`CHECKPOINT_EVERY`] commands.
fn run_durable(
    config: &SimConfig,
    service: &ServiceConfig,
    commands: &[Command],
    probe: &PolicyProbe,
    traced: bool,
) -> Ran {
    let mut svc = DurableService::new(
        probe,
        config.clone(),
        service.clone(),
        Counting::new(MemorySink::new(), traced),
        Counting::new(MemoryCheckpointStore::new(), traced),
        CHECKPOINT_EVERY,
    )
    .expect("an in-memory WAL cannot fail to open");
    let start = Stopwatch::start();
    let clocks = drive(commands, |cmd| {
        let saves = svc.store().counters.writes;
        let verdict = svc.apply(cmd).ok();
        (verdict, svc.store().counters.writes != saves)
    });
    let apply_s = start.seconds();
    let state_fingerprint = svc.service().state_fingerprint();
    let log = svc.service().log().clone();
    let wal_bytes = svc.wal().sink().inner.bytes().to_vec();
    let checkpoint_bytes = svc.store().inner.bytes().map(<[u8]>::to_vec);
    let wal = svc.wal().sink().counters;
    let checkpoint = svc.store().counters;
    let t = Stopwatch::start();
    let result = svc.into_result();
    let into_result_s = t.seconds();
    Ran {
        apply_s,
        into_result_s,
        clocks,
        result,
        state_fingerprint,
        log,
        wal_bytes,
        checkpoint_bytes,
        wal,
        checkpoint,
    }
}

/// Seconds to parse the recovery inputs, each parser on its own:
/// the checkpoint frame, its embedded log prefix, and the WAL scan.
fn parse_seconds(checkpoint: Option<&[u8]>, wal: &[u8]) -> f64 {
    let mut total = 0.0;
    if let Some(bytes) = checkpoint {
        let t = Stopwatch::start();
        let ckpt = Checkpoint::parse(bytes);
        total += t.seconds();
        if let Ok(ckpt) = ckpt {
            let t = Stopwatch::start();
            let prefix = SubmissionLog::parse(&ckpt.log_text);
            total += t.seconds();
            drop(prefix);
        }
    }
    let t = Stopwatch::start();
    let scan = scan_wal(wal);
    total += t.seconds();
    drop(scan);
    total
}

/// Seconds to push `commands` through a plain `SchedulerService`
/// with a fresh policy: the baseline the durability overhead is taken
/// against.
fn plain_apply_seconds(
    workload: Workload,
    seed: u64,
    config: &SimConfig,
    service: &ServiceConfig,
    commands: &[Command],
) -> f64 {
    let policy = workload.policy(seed);
    let mut svc = SchedulerService::new(config.clone(), service.clone(), policy.as_policy());
    let t = Stopwatch::start();
    for cmd in commands {
        let _ = svc.apply(cmd);
    }
    t.seconds()
}
