//! The round-based mechanism: priorities and the Algorithm 1 greedy.

use crate::placement::{PlacementState, WorkerSlot};
use gavel_core::{AccelIdx, Allocation, ClusterSpec, Combo, JobId};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

/// Per-job worker counts as seen by the round planner.
///
/// The service looks scale factors up in its live job table instead of
/// materializing a fresh `HashMap` every round; plain maps keep working
/// for tests and standalone callers.
pub trait ScaleFactors {
    /// Worker count of `job`, or `None` when `job` is no longer live. A
    /// round plans only combos whose members are all live: a combo with a
    /// departed member (its allocation not yet recomputed) is skipped and
    /// its workers go to the next candidate.
    fn scale_factor_of(&self, job: JobId) -> Option<u32>;
}

impl ScaleFactors for HashMap<JobId, u32> {
    fn scale_factor_of(&self, job: JobId) -> Option<u32> {
        self.get(&job).copied()
    }
}

/// A combo scheduled onto concrete workers for one round.
#[derive(Debug, Clone)]
pub struct Assignment {
    /// The scheduled combo.
    pub combo: Combo,
    /// Allocation-matrix row of the combo (into the allocation passed to
    /// [`RoundScheduler::plan_round`]).
    pub row: usize,
    /// Accelerator type it runs on this round.
    pub accel: AccelIdx,
    /// Concrete worker slots.
    pub workers: Vec<WorkerSlot>,
    /// Whether all workers share one server.
    pub consolidated: bool,
}

/// The work selected for one round.
#[derive(Debug, Clone, Default)]
pub struct RoundPlan {
    /// Scheduled combos with placements.
    pub assignments: Vec<Assignment>,
}

impl RoundPlan {
    /// Jobs that run this round.
    pub fn running_jobs(&self) -> HashSet<JobId> {
        self.assignments
            .iter()
            .flat_map(|a| a.combo.jobs())
            .collect()
    }

    /// The assignment containing `job`, if scheduled.
    pub fn assignment_of(&self, job: JobId) -> Option<&Assignment> {
        self.assignments.iter().find(|a| a.combo.contains(job))
    }
}

/// Realizes target allocations round by round (§5).
///
/// The scheduler tracks cumulative time each combo has spent per
/// accelerator type; priorities `X / f` steer under-served combos onto
/// workers first, so realized time fractions converge to the target
/// allocation (§7.5 evaluates this fidelity).
#[derive(Debug, Clone)]
pub struct RoundScheduler {
    cluster: ClusterSpec,
    /// Cumulative seconds each combo has received per type.
    time_received: HashMap<Combo, Vec<f64>>,
    /// Reverse index: every combo with accounting that contains a job.
    /// Keeps [`RoundScheduler::forget_job`] and
    /// [`RoundScheduler::job_time_received`] proportional to the job's own
    /// combo count instead of a scan over every combo ever recorded.
    job_combos: HashMap<JobId, Vec<Combo>>,
    /// Reusable candidate buffer for [`RoundScheduler::plan_round_cached`]:
    /// the (row, type, target) triples of the allocation it was extracted
    /// from, tagged with that allocation's generation.
    candidates: Vec<Candidate>,
    candidates_gen: Option<u64>,
}

/// A (combo row, accelerator type) pair with a positive target allocation.
#[derive(Debug, Clone)]
struct Candidate {
    row: usize,
    accel: usize,
    target: f64,
    priority: f64,
}

impl RoundScheduler {
    /// Creates a scheduler for `cluster`.
    pub fn new(cluster: ClusterSpec) -> Self {
        RoundScheduler {
            cluster,
            time_received: HashMap::new(),
            job_combos: HashMap::new(),
            candidates: Vec::new(),
            candidates_gen: None,
        }
    }

    /// Cumulative time combo `c` has received on type `j`.
    pub fn time_received(&self, c: &Combo, j: AccelIdx) -> f64 {
        self.time_received.get(c).map_or(0.0, |v| v[j.0])
    }

    /// Total time received by `job` across all combos and types.
    pub fn job_time_received(&self, job: JobId) -> f64 {
        self.job_combos.get(&job).map_or(0.0, |combos| {
            combos
                .iter()
                .filter_map(|c| self.time_received.get(c))
                .map(|v| v.iter().sum::<f64>())
                .sum()
        })
    }

    /// Drops a completed job's accounting (its combos can never run again:
    /// the planner skips combos with a non-live member, so a forgotten
    /// combo is never planned or re-recorded).
    pub fn forget_job(&mut self, job: JobId) {
        for combo in self.job_combos.remove(&job).unwrap_or_default() {
            self.time_received.remove(&combo);
            for other in combo.jobs().filter(|&j| j != job) {
                if let Some(list) = self.job_combos.get_mut(&other) {
                    list.retain(|c| *c != combo);
                }
            }
        }
    }

    /// Plans one round for the target allocation.
    ///
    /// `scale_factor` maps jobs to their worker counts. Returns the
    /// assignments; call [`RoundScheduler::record`] once the round has
    /// actually run.
    pub fn plan_round(&self, alloc: &Allocation, scale_factor: &impl ScaleFactors) -> RoundPlan {
        self.plan_round_with_capacity(alloc, scale_factor, None)
    }

    /// Like [`RoundScheduler::plan_round`] but with reduced per-type worker
    /// availability (failed workers removed) when `available` is given.
    pub fn plan_round_with_capacity(
        &self,
        alloc: &Allocation,
        scale_factor: &impl ScaleFactors,
        available: Option<&[usize]>,
    ) -> RoundPlan {
        let mut candidates = Vec::new();
        collect_candidates(alloc, &mut candidates);
        self.score_candidates(alloc, &mut candidates);
        self.plan_from_candidates(alloc, &candidates, scale_factor, available)
    }

    /// Like [`RoundScheduler::plan_round_with_capacity`], but reuses the
    /// candidate buffer extracted from the allocation tagged `alloc_gen`.
    ///
    /// The simulation engine recomputes allocations only at reset events or
    /// cadence hits, so most rounds replan the *same* allocation; those
    /// rounds skip the full matrix scan and only re-score priorities
    /// (`X / f` changes every round as time is recorded) before the greedy
    /// pass. Callers must bump `alloc_gen` whenever `alloc` changes; plans
    /// are identical to the uncached path for any generation discipline.
    pub fn plan_round_cached(
        &mut self,
        alloc: &Allocation,
        alloc_gen: u64,
        scale_factor: &impl ScaleFactors,
        available: Option<&[usize]>,
    ) -> RoundPlan {
        if self.candidates_gen != Some(alloc_gen) {
            collect_candidates(alloc, &mut self.candidates);
            self.candidates_gen = Some(alloc_gen);
        }
        let mut candidates = std::mem::take(&mut self.candidates);
        self.score_candidates(alloc, &mut candidates);
        let plan = self.plan_from_candidates(alloc, &candidates, scale_factor, available);
        self.candidates = candidates;
        plan
    }

    /// Priorities follow Figure 4: the target allocation divided by the
    /// raw time already received on that type (element-wise `X / f`), with
    /// infinite priority for combos that have a positive target but have
    /// received nothing there yet. Sorts highest priority first; infinite
    /// priorities ranked by target, then deterministic row/type order (a
    /// total order, so the reused buffer sorts identically to a fresh one).
    fn score_candidates(&self, alloc: &Allocation, candidates: &mut [Candidate]) {
        let combos = alloc.combos().combos();
        for c in candidates.iter_mut() {
            let received = self.time_received(&combos[c.row], AccelIdx(c.accel));
            c.priority = if received > 0.0 {
                c.target / received
            } else {
                f64::INFINITY
            };
        }
        candidates.sort_by(|a, b| {
            b.priority
                .total_cmp(&a.priority)
                .then(b.target.total_cmp(&a.target))
                .then(a.row.cmp(&b.row))
                .then(a.accel.cmp(&b.accel))
        });
    }

    /// Algorithm 1: greedy admission with conflict removal over the sorted
    /// candidate list, skipping combos with a non-live member.
    fn plan_from_candidates(
        &self,
        alloc: &Allocation,
        candidates: &[Candidate],
        scale_factor: &impl ScaleFactors,
        available: Option<&[usize]>,
    ) -> RoundPlan {
        let combos = alloc.combos().combos();
        let mut placement = match available {
            Some(av) => PlacementState::with_available(&self.cluster, av),
            None => PlacementState::new(&self.cluster),
        };
        let mut busy_jobs: HashSet<JobId> = HashSet::new();
        let mut plan = RoundPlan::default();
        for c in candidates {
            let combo = combos[c.row];
            if combo.jobs().any(|job| busy_jobs.contains(&job)) {
                continue;
            }
            let Some(sf) = combo
                .jobs()
                .map(|job| scale_factor.scale_factor_of(job))
                .try_fold(0, |acc, sf| sf.map(|sf| acc.max(sf)))
            else {
                continue;
            };
            let Some((workers, consolidated)) = placement.allocate(AccelIdx(c.accel), sf as usize)
            else {
                continue;
            };
            for job in combo.jobs() {
                busy_jobs.insert(job);
            }
            plan.assignments.push(Assignment {
                combo,
                row: c.row,
                accel: AccelIdx(c.accel),
                workers,
                consolidated,
            });
        }
        plan
    }

    /// Records that `plan` ran for `duration` seconds.
    pub fn record(&mut self, plan: &RoundPlan, duration: f64) {
        let num_types = self.cluster.num_types();
        for a in &plan.assignments {
            match self.time_received.entry(a.combo) {
                Entry::Occupied(mut o) => o.get_mut()[a.accel.0] += duration,
                Entry::Vacant(v) => {
                    let mut row = vec![0.0; num_types];
                    row[a.accel.0] += duration;
                    v.insert(row);
                    for job in a.combo.jobs() {
                        self.job_combos.entry(job).or_default().push(a.combo);
                    }
                }
            }
        }
    }
}

/// Extracts the (row, type) pairs with positive finite target allocation
/// into `out` (cleared first). Priorities are filled in by
/// [`RoundScheduler::score_candidates`] just before planning.
fn collect_candidates(alloc: &Allocation, out: &mut Vec<Candidate>) {
    out.clear();
    let num_types = alloc.values().first().map_or(0, |r| r.len());
    for k in 0..alloc.combos().len() {
        for j in 0..num_types {
            let target = alloc.get(k, AccelIdx(j));
            if !target.is_finite() || target <= 1e-4 {
                continue;
            }
            out.push(Candidate {
                row: k,
                accel: j,
                target,
                priority: 0.0,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gavel_core::{ComboSet, PairThroughput, ThroughputTensor};

    fn cluster() -> ClusterSpec {
        ClusterSpec::new(&[("v100", 1, 1, 0.0), ("p100", 1, 1, 0.0), ("k80", 1, 1, 0.0)])
    }

    fn sf1(jobs: &[JobId]) -> HashMap<JobId, u32> {
        jobs.iter().map(|&j| (j, 1)).collect()
    }

    /// The paper's X_example from §3.1.
    fn example_allocation() -> Allocation {
        let jobs = [JobId(0), JobId(1), JobId(2)];
        let combos = ComboSet::singletons(&jobs);
        Allocation::new(
            combos,
            vec![
                vec![0.6, 0.4, 0.0],
                vec![0.2, 0.6, 0.2],
                vec![0.2, 0.0, 0.8],
            ],
        )
    }

    #[test]
    fn fractions_converge_to_target() {
        // §7.5 fidelity: after many rounds the realized fractions should be
        // within a few percent of X_example.
        let jobs = [JobId(0), JobId(1), JobId(2)];
        let alloc = example_allocation();
        let mut sched = RoundScheduler::new(cluster());
        let sf = sf1(&jobs);
        let rounds = 200;
        for _ in 0..rounds {
            let plan = sched.plan_round(&alloc, &sf);
            sched.record(&plan, 360.0);
        }
        let total_per_type = rounds as f64 * 360.0;
        for (k, combo) in alloc.combos().combos().iter().enumerate() {
            for j in 0..3 {
                let target = alloc.get(k, AccelIdx(j));
                let got = sched.time_received(combo, AccelIdx(j)) / total_per_type;
                assert!(
                    (got - target).abs() < 0.05,
                    "combo {combo} type {j}: {got} vs target {target}"
                );
            }
        }
    }

    #[test]
    fn no_job_on_two_workers_in_one_round() {
        // Allocation with both a singleton and a pair containing job 0.
        let combos = ComboSet::new(vec![
            Combo::single(JobId(0)),
            Combo::single(JobId(1)),
            Combo::pair(JobId(0), JobId(1)),
        ]);
        let alloc = Allocation::new(
            combos,
            vec![
                vec![0.5, 0.0, 0.0],
                vec![0.5, 0.0, 0.0],
                vec![0.5, 0.5, 0.0],
            ],
        );
        let sched = RoundScheduler::new(cluster());
        let sf = sf1(&[JobId(0), JobId(1)]);
        for _ in 0..20 {
            let plan = sched.plan_round(&alloc, &sf);
            let mut seen = HashSet::new();
            for a in &plan.assignments {
                for j in a.combo.jobs() {
                    assert!(seen.insert(j), "{j} scheduled twice in a round");
                }
            }
        }
    }

    #[test]
    fn capacity_respected_with_scale_factors() {
        let c = ClusterSpec::new(&[("v100", 4, 4, 0.0)]);
        let jobs = [JobId(0), JobId(1)];
        let combos = ComboSet::singletons(&jobs);
        let alloc = Allocation::new(combos, vec![vec![1.0], vec![1.0]]);
        let mut sf = HashMap::new();
        sf.insert(JobId(0), 4);
        sf.insert(JobId(1), 4);
        let sched = RoundScheduler::new(c);
        let plan = sched.plan_round(&alloc, &sf);
        // Only one 4-worker job fits on 4 workers.
        assert_eq!(plan.assignments.len(), 1);
        assert_eq!(plan.assignments[0].workers.len(), 4);
    }

    #[test]
    fn starved_jobs_gain_priority() {
        // Two jobs, one worker, targets 0.5/0.5: they must alternate.
        let c = ClusterSpec::new(&[("v100", 1, 1, 0.0)]);
        let jobs = [JobId(0), JobId(1)];
        let combos = ComboSet::singletons(&jobs);
        let alloc = Allocation::new(combos, vec![vec![0.5], vec![0.5]]);
        let sf = sf1(&jobs);
        let mut sched = RoundScheduler::new(c);
        let mut ran = [0usize; 2];
        for _ in 0..10 {
            let plan = sched.plan_round(&alloc, &sf);
            assert_eq!(plan.assignments.len(), 1);
            let job = plan.assignments[0].combo.a;
            ran[job.0 as usize] += 1;
            sched.record(&plan, 360.0);
        }
        assert_eq!(ran[0], 5, "alternation expected: {ran:?}");
        assert_eq!(ran[1], 5);
    }

    #[test]
    fn plans_skip_stale_combos() {
        // Job 1 has departed (absent from the scale-factor map → not
        // live). Both planners skip its combo from the stale allocation
        // and still plan the live jobs.
        let alloc = example_allocation();
        let sf = sf1(&[JobId(0), JobId(2)]);
        let sched = RoundScheduler::new(cluster());
        let fresh = sched.plan_round(&alloc, &sf);
        let cached = RoundScheduler::new(cluster()).plan_round_cached(&alloc, 1, &sf, None);
        for plan in [fresh, cached] {
            assert_eq!(plan.running_jobs(), HashSet::from([JobId(0), JobId(2)]));
        }
    }

    #[test]
    fn nan_cell_does_not_panic() {
        // A NaN target is never a candidate; the finite cells still plan.
        let jobs = [JobId(0), JobId(1), JobId(2)];
        let alloc = Allocation::new(
            ComboSet::singletons(&jobs),
            vec![
                vec![f64::NAN, 0.4, 0.0],
                vec![0.2, 0.6, 0.2],
                vec![0.2, 0.0, 0.8],
            ],
        );
        let mut sched = RoundScheduler::new(cluster());
        let sf = sf1(&jobs);
        for _ in 0..5 {
            let plan = sched.plan_round(&alloc, &sf);
            assert!(!plan.assignments.is_empty());
            assert!(plan
                .assignments
                .iter()
                .all(|a| !alloc.get(a.row, a.accel).is_nan()));
            sched.record(&plan, 360.0);
        }
    }

    #[test]
    fn forget_job_clears_state() {
        let alloc = example_allocation();
        let mut sched = RoundScheduler::new(cluster());
        let sf = sf1(&[JobId(0), JobId(1), JobId(2)]);
        let plan = sched.plan_round(&alloc, &sf);
        sched.record(&plan, 360.0);
        assert!(sched.job_time_received(JobId(0)) > 0.0);
        sched.forget_job(JobId(0));
        assert_eq!(sched.job_time_received(JobId(0)), 0.0);
    }

    #[test]
    fn plan_is_deterministic() {
        let alloc = example_allocation();
        let sched = RoundScheduler::new(cluster());
        let sf = sf1(&[JobId(0), JobId(1), JobId(2)]);
        let p1 = sched.plan_round(&alloc, &sf);
        let p2 = sched.plan_round(&alloc, &sf);
        assert_eq!(p1.assignments.len(), p2.assignments.len());
        for (a, b) in p1.assignments.iter().zip(&p2.assignments) {
            assert_eq!(a.combo, b.combo);
            assert_eq!(a.accel, b.accel);
        }
    }

    #[test]
    fn cached_plans_match_uncached() {
        // The generation-keyed candidate buffer must be invisible: cached
        // plans equal fresh plans round for round, including across a
        // generation bump (new allocation) and a forgotten job.
        let alloc = example_allocation();
        let mut cached = RoundScheduler::new(cluster());
        let mut fresh = RoundScheduler::new(cluster());
        let sf = sf1(&[JobId(0), JobId(1), JobId(2)]);
        for round in 0..30 {
            let gen = u64::from(round >= 15); // swap allocations mid-run
            let alloc2 = if round >= 15 {
                Allocation::new(
                    alloc.combos().clone(),
                    vec![
                        vec![0.1, 0.8, 0.1],
                        vec![0.5, 0.1, 0.4],
                        vec![0.4, 0.1, 0.5],
                    ],
                )
            } else {
                alloc.clone()
            };
            let pc = cached.plan_round_cached(&alloc2, gen, &sf, None);
            let pf = fresh.plan_round_with_capacity(&alloc2, &sf, None);
            assert_eq!(pc.assignments.len(), pf.assignments.len(), "round {round}");
            for (a, b) in pc.assignments.iter().zip(&pf.assignments) {
                assert_eq!(a.combo, b.combo);
                assert_eq!(a.accel, b.accel);
                assert_eq!(a.row, b.row);
                assert_eq!(a.workers, b.workers);
            }
            cached.record(&pc, 360.0);
            fresh.record(&pf, 360.0);
            if round == 20 {
                cached.forget_job(JobId(1));
                fresh.forget_job(JobId(1));
            }
        }
    }

    #[test]
    fn forget_job_keeps_pair_peers_consistent() {
        // Forgetting one member of a pair drops the pair's accounting but
        // keeps the peer's other combos intact in the reverse index.
        let combos = ComboSet::new(vec![
            Combo::single(JobId(0)),
            Combo::single(JobId(1)),
            Combo::pair(JobId(0), JobId(1)),
        ]);
        let c = ClusterSpec::new(&[("v100", 3, 3, 0.0)]);
        let alloc = Allocation::new(combos, vec![vec![0.9], vec![0.9], vec![0.9]]);
        let mut sched = RoundScheduler::new(c);
        let sf = sf1(&[JobId(0), JobId(1)]);
        for _ in 0..4 {
            let plan = sched.plan_round(&alloc, &sf);
            sched.record(&plan, 360.0);
        }
        let before = sched.job_time_received(JobId(1));
        assert!(before > 0.0);
        sched.forget_job(JobId(0));
        assert_eq!(sched.job_time_received(JobId(0)), 0.0);
        // Job 1 keeps only its singleton time.
        let singleton = sched.time_received(&Combo::single(JobId(1)), AccelIdx(0));
        assert_eq!(sched.job_time_received(JobId(1)), singleton);
        assert_eq!(
            sched.time_received(&Combo::pair(JobId(0), JobId(1)), AccelIdx(0)),
            0.0
        );
    }

    #[test]
    fn zero_allocation_schedules_nothing() {
        let jobs = [JobId(0)];
        let combos = ComboSet::singletons(&jobs);
        let alloc = Allocation::new(combos, vec![vec![0.0, 0.0, 0.0]]);
        let sched = RoundScheduler::new(cluster());
        let plan = sched.plan_round(&alloc, &sf1(&jobs));
        assert!(plan.assignments.is_empty());
    }

    #[test]
    fn pair_combo_occupies_one_worker() {
        let c = ClusterSpec::new(&[("v100", 1, 1, 0.0)]);
        let combos = ComboSet::new(vec![Combo::pair(JobId(0), JobId(1))]);
        let alloc = Allocation::new(combos, vec![vec![1.0]]);
        let mut sf = HashMap::new();
        sf.insert(JobId(0), 1);
        sf.insert(JobId(1), 1);
        let sched = RoundScheduler::new(c);
        let plan = sched.plan_round(&alloc, &sf);
        assert_eq!(plan.assignments.len(), 1);
        assert_eq!(plan.assignments[0].workers.len(), 1);
        assert_eq!(plan.running_jobs().len(), 2);
    }

    /// Effective-throughput sanity: realized throughput over many rounds
    /// approaches the allocation's effective throughput.
    #[test]
    fn realized_throughput_matches_effective() {
        let jobs = [JobId(0), JobId(1), JobId(2)];
        let alloc = example_allocation();
        let tensor = ThroughputTensor::new(
            3,
            vec![
                vec![
                    PairThroughput::single(4.0),
                    PairThroughput::single(2.0),
                    PairThroughput::single(1.0),
                ],
                vec![
                    PairThroughput::single(3.0),
                    PairThroughput::single(2.0),
                    PairThroughput::single(1.0),
                ],
                vec![
                    PairThroughput::single(2.0),
                    PairThroughput::single(1.5),
                    PairThroughput::single(1.0),
                ],
            ],
        );
        let mut sched = RoundScheduler::new(cluster());
        let sf = sf1(&jobs);
        let round_s = 360.0;
        let rounds = 300;
        let mut steps = [0.0f64; 3];
        for _ in 0..rounds {
            let plan = sched.plan_round(&alloc, &sf);
            for a in &plan.assignments {
                let t = tensor.entry(a.row, a.accel);
                steps[a.combo.a.0 as usize] += t.a * round_s;
            }
            sched.record(&plan, round_s);
        }
        let wall = rounds as f64 * round_s;
        for (m, &job) in jobs.iter().enumerate() {
            let realized = steps[m] / wall;
            let target = alloc.effective_throughput(&tensor, job);
            assert!(
                (realized - target).abs() / target < 0.06,
                "{job}: realized {realized} vs effective {target}"
            );
        }
    }
}
