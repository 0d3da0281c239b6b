//! Transparent probes around the public layer traits. Each one delegates
//! every call unchanged and only counts or times it, so a probed run
//! takes the same trajectory as an unprobed one (the `probes` test
//! proves it by fingerprint).

use crate::clock::Stopwatch;
use crate::workload::BenchPolicy;
use gavel_core::{Allocation, Policy, PolicyError, PolicyInput};
use gavel_service::{CheckpointError, CheckpointStore, LogSink, WalError};
use gavel_solver::SolveStats;
use std::cell::RefCell;
use std::time::Instant;

/// What the policy layer did over one run (traced runs only).
#[derive(Debug, Clone, Default)]
pub struct PolicyCounters {
    pub seconds: f64,
    pub calls: usize,
    pub max_jobs: usize,
    pub max_combos: usize,
    pub failures: usize,
    /// Summed solver counters (hierarchical policy only).
    pub solve: SolveStats,
}

impl PolicyCounters {
    pub fn add(&mut self, o: &PolicyCounters) {
        self.seconds += o.seconds;
        self.calls += o.calls;
        self.max_jobs = self.max_jobs.max(o.max_jobs);
        self.max_combos = self.max_combos.max(o.max_combos);
        self.failures += o.failures;
        self.solve.absorb(&o.solve);
    }
}

/// Wraps the policy under test. Untraced it reads the clock twice per
/// call, which the decision-latency metrics need; traced it also counts.
pub struct PolicyProbe {
    inner: BenchPolicy,
    traced: bool,
    decisions: RefCell<Vec<f64>>,
    counters: RefCell<PolicyCounters>,
}

impl PolicyProbe {
    pub fn new(inner: BenchPolicy, traced: bool) -> Self {
        PolicyProbe {
            inner,
            traced,
            decisions: RefCell::new(Vec::new()),
            counters: RefCell::new(PolicyCounters::default()),
        }
    }

    /// Seconds of every `compute_allocation` call, in call order.
    pub fn take_decisions(&self) -> Vec<f64> {
        std::mem::take(&mut self.decisions.borrow_mut())
    }

    pub fn counters(&self) -> PolicyCounters {
        self.counters.borrow().clone()
    }
}

impl Policy for PolicyProbe {
    fn name(&self) -> &str {
        self.inner.as_policy().name()
    }

    fn wants_space_sharing(&self) -> bool {
        self.inner.as_policy().wants_space_sharing()
    }

    fn compute_allocation(&self, input: &PolicyInput<'_>) -> Result<Allocation, PolicyError> {
        let t0 = Stopwatch::start();
        let (result, solve) = match &self.inner {
            BenchPolicy::Hier(h) => match h.compute_allocation_with_stats(input) {
                Ok((alloc, stats)) => (Ok(alloc), stats),
                Err(e) => (Err(e), SolveStats::default()),
            },
            BenchPolicy::Plain(p) => (p.compute_allocation(input), SolveStats::default()),
        };
        let dt = t0.seconds();
        self.decisions.borrow_mut().push(dt);
        if self.traced {
            let mut c = self.counters.borrow_mut();
            c.seconds += dt;
            c.calls += 1;
            c.max_jobs = c.max_jobs.max(input.jobs.len());
            c.max_combos = c.max_combos.max(input.combos.len());
            c.failures += result.is_err() as usize;
            c.solve.absorb(&solve);
        }
        result
    }
}

/// What a storage layer did over one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoCounters {
    /// Appends (WAL) or saves (checkpoints).
    pub writes: usize,
    pub bytes: usize,
    /// WAL compactions (always 0 for checkpoint stores).
    pub resets: usize,
    /// Wall seconds inside the wrapped calls (traced runs only); the
    /// calls take microseconds, too short for the CPU clock.
    pub seconds: f64,
}

impl IoCounters {
    pub fn add(&mut self, o: &IoCounters) {
        self.writes += o.writes;
        self.bytes += o.bytes;
        self.resets += o.resets;
        self.seconds += o.seconds;
    }
}

/// Counts what goes through a WAL sink or a checkpoint store. Counting
/// is always on (it is a few integer adds); the clock only when traced.
pub struct Counting<T> {
    pub inner: T,
    traced: bool,
    pub counters: IoCounters,
}

impl<T> Counting<T> {
    pub fn new(inner: T, traced: bool) -> Self {
        Counting {
            inner,
            traced,
            counters: IoCounters::default(),
        }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R {
        if !self.traced {
            return f(&mut self.inner);
        }
        let t0 = Instant::now();
        let r = f(&mut self.inner);
        self.counters.seconds += t0.elapsed().as_secs_f64();
        r
    }
}

impl<S: LogSink> LogSink for Counting<S> {
    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        self.counters.writes += 1;
        self.counters.bytes += bytes.len();
        self.timed(|s| s.append(bytes))
    }

    fn sync(&mut self) -> Result<(), WalError> {
        self.timed(|s| s.sync())
    }

    fn reset(&mut self) -> Result<(), WalError> {
        self.counters.resets += 1;
        self.timed(|s| s.reset())
    }
}

impl<C: CheckpointStore> CheckpointStore for Counting<C> {
    fn save(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        self.counters.writes += 1;
        self.counters.bytes += bytes.len();
        self.timed(|s| s.save(bytes))
    }

    fn load(&self) -> Result<Option<Vec<u8>>, CheckpointError> {
        self.inner.load()
    }
}
