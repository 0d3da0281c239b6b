//! Hierarchical (multi-level) policies via water filling — §4.3.
//!
//! An organization shares the cluster among *entities* (teams) with
//! weighted fairness; each entity shares its allocation among its jobs with
//! an inner policy (fairness or FIFO). The water-filling procedure raises
//! every active job's normalized throughput at a rate proportional to its
//! weight until jobs saturate ("bottleneck"), reassigns the saturated
//! jobs' weights according to the inner policy, and repeats:
//!
//! 1. Solve `max t` s.t. `norm_tput_m >= floor_m + w_m * t` for active
//!    jobs and `norm_tput_m >= floor_m` for all jobs.
//! 2. Raise floors: `floor_m += w_m * t*`.
//! 3. Identify bottlenecked jobs — either with the Appendix A.1 MILP or
//!    with exact per-job LP probes (the default; see
//!    [`BottleneckMethod`]) — zero their weights, and redistribute within
//!    their entity.
//! 4. Stop when every job is bottlenecked.
//!
//! With a single entity and fairness inside, this is exactly the paper's
//! water-filled single-level max-min fairness.
//!
//! Every LP family here (round LPs, prepass, per-job probes) keeps a
//! warm-start basis cache. The round LP is the dual-simplex showcase:
//! floors only ever rise, which preserves dual feasibility of the previous
//! round's basis, so step 1 re-solves by dual reoptimization rather than
//! from scratch. The probe prepass also benefits from the bounded-variable
//! lowering — its per-job slack variables live in `[0, 1]` as column
//! bounds, not extra rows. The Appendix A.1 bottleneck MILP uses the
//! branch-stable `u = Y (1 - z)` auxiliary formulation so both branch
//! directions keep the lowering's shape and branch-and-bound nodes
//! warm-start from the parent basis.
//!
//! # Sharded probe LPs
//!
//! The per-job probes of a round are independent of one another, so they
//! run on the [`gavel_par`] worker pool, split into [`PROBE_SHARDS`]
//! static shards. The shard count and membership are pure functions of the
//! candidate list — never of `GAVEL_THREADS` — and each shard chains its
//! own warm-start cache, seeded from a snapshot of the probe basis taken
//! at the start of the pass. Verdicts and solver stats merge in shard
//! order and the shared probe basis is refreshed from the *last* shard's
//! final basis, so the whole pass is bit-identical under any thread count
//! (see the determinism contract in `gavel_par`).

use crate::common::{check_input, equal_share_throughput, solve_with_cache, solver_err, AllocLp};
use gavel_core::{Allocation, Policy, PolicyError, PolicyInput};
use gavel_solver::{solve_milp, Cmp, LpProblem, MilpOptions, Sense, SolveStats, VarId, WarmStart};

/// Number of static shards the per-job probe LPs are split across. A fixed
/// constant — never derived from `GAVEL_THREADS` — so shard membership,
/// each shard's warm-start chain, and therefore every probe verdict are
/// pure functions of the problem, bit-identical under any thread count.
const PROBE_SHARDS: usize = 16;

/// Inner (per-entity) policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntityPolicy {
    /// Weighted fairness among the entity's jobs.
    Fairness,
    /// FIFO: the entity's full weight goes to its earliest unfinished job.
    Fifo,
}

/// How bottlenecked jobs are identified each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BottleneckMethod {
    /// Exact per-job LP probes, accelerated by a max-sum prepass (jobs with
    /// positive slack in a joint improvement LP are provably not
    /// bottlenecked, since the feasible region is convex).
    Probe,
    /// The Appendix A.1 mixed-integer program (one binary per job). Exact
    /// but practical only for moderate job counts.
    Milp,
}

/// Hierarchical water-filling policy.
#[derive(Debug, Clone)]
pub struct Hierarchical {
    /// Per-entity `(weight, inner policy)` — entity id indexes this list.
    /// Different entities may use different inner policies (Figure 5 pairs
    /// a fairness-within product team with a FIFO research team).
    pub entities: Vec<(f64, EntityPolicy)>,
    /// Bottleneck identification method.
    pub bottleneck: BottleneckMethod,
    /// Safety cap on water-filling iterations.
    pub max_iterations: usize,
    /// Reuse each LP family's optimal basis across the water-filling
    /// rounds and per-job probes (on by default). Rising floors make the
    /// previous round's basis primal infeasible but leave it *dual*
    /// feasible (only right-hand sides move), so the round LP re-solves
    /// through the solver's dual-simplex reoptimization path — typically a
    /// handful of dual pivots instead of a cold two-phase solve. The
    /// solver validates every reused basis and falls back to a cold start
    /// when it no longer applies, so objective values — and hence floors,
    /// `t*`, and bottleneck decisions within their tolerances — never
    /// depend on this flag; on LPs with several optimal allocations the
    /// selected vertex may differ in principle (the equivalence tests pin
    /// down instances where it does not). See [`gavel_solver::WarmStart`].
    pub warm_start: bool,
    /// Inner policy assigned to entities synthesized for jobs that carry
    /// no entity (single-level mode).
    default_inner: EntityPolicy,
}

impl Hierarchical {
    /// Multi-level policy with the given entity weights and one inner
    /// policy shared by every entity.
    pub fn new(entity_weights: Vec<f64>, inner: EntityPolicy) -> Self {
        Hierarchical {
            entities: entity_weights.into_iter().map(|w| (w, inner)).collect(),
            bottleneck: BottleneckMethod::Probe,
            max_iterations: 64,
            warm_start: true,
            default_inner: inner,
        }
    }

    /// Multi-level policy with per-entity `(weight, inner policy)` pairs.
    pub fn per_entity(entities: Vec<(f64, EntityPolicy)>) -> Self {
        Hierarchical {
            entities,
            bottleneck: BottleneckMethod::Probe,
            max_iterations: 64,
            warm_start: true,
            default_inner: EntityPolicy::Fairness,
        }
    }

    /// Single-level max-min fairness with full water filling: every job is
    /// its own entity weighted by its job weight.
    pub fn single_level() -> Self {
        Hierarchical {
            entities: Vec::new(),
            bottleneck: BottleneckMethod::Probe,
            max_iterations: 64,
            warm_start: true,
            default_inner: EntityPolicy::Fairness,
        }
    }

    /// Switches the bottleneck identification method.
    pub fn with_bottleneck(mut self, method: BottleneckMethod) -> Self {
        self.bottleneck = method;
        self
    }

    /// Enables or disables warm-started basis reuse (on by default).
    pub fn with_warm_start(mut self, on: bool) -> Self {
        self.warm_start = on;
        self
    }

    /// Like [`Policy::compute_allocation`], but also returns the
    /// aggregate [`SolveStats`] over every LP and MILP solved: round LPs,
    /// prepass, sharded probes (whose per-shard stats merge in shard
    /// order), and branch-and-bound nodes. The counters are identical
    /// under any `GAVEL_THREADS` — parallelism changes wall-clock, never
    /// the work.
    pub fn compute_allocation_with_stats(
        &self,
        input: &PolicyInput<'_>,
    ) -> Result<(Allocation, SolveStats), PolicyError> {
        check_input(input)?;
        let n = input.jobs.len();
        if n == 0 {
            return Ok((
                Allocation::zeros(input.combos.clone(), input.cluster.num_types()),
                SolveStats::default(),
            ));
        }
        let mut wf = self.build_waterfill(input)?;

        let mut best_alloc = None;
        for _iter in 0..self.max_iterations {
            let active: Vec<usize> = (0..n).filter(|&m| wf.weights[m] > 0.0).collect();
            if active.is_empty() {
                break;
            }
            let (t_star, alloc) = wf.solve_round()?;
            for &m in &active {
                wf.floors[m] += wf.weights[m] * t_star;
            }
            best_alloc = Some(alloc);

            let bottlenecked = match self.bottleneck {
                BottleneckMethod::Probe => wf.bottlenecked_probe(&active)?,
                BottleneckMethod::Milp => wf.bottlenecked_milp(&active)?,
            };
            if bottlenecked.is_empty() {
                // Numerical stall: treat the tightest job as bottlenecked
                // to guarantee progress. A NaN floor would poison this
                // ordering (and every bottleneck comparison upstream), so
                // reject it loudly in debug builds; `total_cmp` keeps the
                // ordering total — never panicking — in release.
                debug_assert!(
                    active.iter().all(|&m| !wf.floors[m].is_nan()),
                    "NaN floor in water filling"
                );
                let Some(&tightest) = active
                    .iter()
                    .min_by(|&&a, &&b| wf.floors[a].total_cmp(&wf.floors[b]))
                else {
                    break;
                };
                wf.redistribute(tightest);
            } else {
                for m in bottlenecked {
                    wf.redistribute(m);
                }
            }
        }

        let alloc = best_alloc.ok_or_else(|| {
            PolicyError::NoFeasibleAllocation("water filling produced no allocation".into())
        })?;
        Ok((alloc, wf.stats))
    }

    /// Runs exactly one water-filling round and returns the raised floors.
    /// Companion of [`Hierarchical::probe_pass`] for benchmarks and tests
    /// that want to time or inspect a single probe pass in isolation.
    pub fn first_round_floors(&self, input: &PolicyInput<'_>) -> Result<Vec<f64>, PolicyError> {
        check_input(input)?;
        let mut wf = self.build_waterfill(input)?;
        let (t_star, _alloc) = wf.solve_round()?;
        for m in 0..input.jobs.len() {
            if wf.weights[m] > 0.0 {
                wf.floors[m] += wf.weights[m] * t_star;
            }
        }
        Ok(wf.floors)
    }

    /// Runs one sharded probe pass (prepass + per-job probe LPs) against
    /// the given floors with every positive-weight job active, returning
    /// the bottlenecked set and the pass's solver stats. This is the unit
    /// the `parallel` bench group times: the probe LPs dominate a
    /// hierarchical solve at scale, and this entry point exposes them
    /// without the surrounding rounds.
    pub fn probe_pass(
        &self,
        input: &PolicyInput<'_>,
        floors: &[f64],
    ) -> Result<(Vec<usize>, SolveStats), PolicyError> {
        check_input(input)?;
        if floors.len() != input.jobs.len() {
            return Err(PolicyError::InvalidInput(format!(
                "probe_pass got {} floors for {} jobs",
                floors.len(),
                input.jobs.len()
            )));
        }
        let mut wf = self.build_waterfill(input)?;
        wf.floors.copy_from_slice(floors);
        let active: Vec<usize> = (0..input.jobs.len())
            .filter(|&m| wf.weights[m] > 0.0)
            .collect();
        let bottlenecked = wf.bottlenecked_probe(&active)?;
        Ok((bottlenecked, wf.stats))
    }

    /// Resolves entities and initial weights and builds the per-solve
    /// water-filling state (floors at zero).
    fn build_waterfill<'i, 'a>(
        &self,
        input: &'i PolicyInput<'a>,
    ) -> Result<WaterFill<'i, 'a>, PolicyError> {
        let n = input.jobs.len();
        // Resolve entities: jobs without one become singleton entities
        // weighted by their own job weight (single-level mode).
        let mut entity_of = Vec::with_capacity(n);
        let mut entities = self.entities.clone();
        for job in input.jobs {
            match job.entity {
                Some(e) => {
                    if e >= entities.len() {
                        return Err(PolicyError::InvalidInput(format!(
                            "{} references entity {e} but only {} entities given",
                            job.id,
                            entities.len()
                        )));
                    }
                    entity_of.push(e);
                }
                None => {
                    entity_of.push(entities.len());
                    entities.push((job.weight, self.default_inner));
                }
            }
        }
        let inner_of: Vec<EntityPolicy> = entities.iter().map(|(_, p)| *p).collect();

        // Initial per-job weights according to each entity's inner policy.
        let base_weights: Vec<f64> = input.jobs.iter().map(|j| j.weight).collect();
        let mut weights = vec![0.0; n];
        for (e, &(entity_weight, inner)) in entities.iter().enumerate() {
            let members: Vec<usize> = (0..n).filter(|&m| entity_of[m] == e).collect();
            match inner {
                EntityPolicy::Fairness => {
                    let total: f64 = members.iter().map(|&m| base_weights[m]).sum();
                    for &m in &members {
                        weights[m] = entity_weight * base_weights[m] / total.max(1e-12);
                    }
                }
                EntityPolicy::Fifo => {
                    // An entity with no members contributes no weight; an
                    // empty minimum just leaves the entity idle instead of
                    // panicking.
                    if let Some(head) = members
                        .iter()
                        .copied()
                        .min_by_key(|&m| input.jobs[m].arrival_seq)
                    {
                        weights[head] = entity_weight;
                    }
                }
            }
        }

        let factors: Vec<f64> = (0..n)
            .map(|m| {
                let norm = equal_share_throughput(input, m);
                input.jobs[m].scale_factor.max(1) as f64 / norm.max(1e-12)
            })
            .collect();

        Ok(WaterFill {
            input,
            factors,
            floors: vec![0.0; n],
            weights,
            done: vec![false; n],
            entity_of,
            base_weights,
            inner_of,
            warm: self.warm_start,
            round_basis: None,
            prepass_basis: None,
            probe_basis: None,
            stats: SolveStats::default(),
        })
    }
}

/// Internal per-solve state.
struct WaterFill<'i, 'a> {
    input: &'i PolicyInput<'a>,
    /// `sf_m / throughput(m, X_equal)` — normalized throughput is
    /// `factor_m * sum T x`.
    factors: Vec<f64>,
    /// Current normalized-throughput floor per job.
    floors: Vec<f64>,
    /// Current water-filling weight per job (0 = inactive/bottlenecked).
    weights: Vec<f64>,
    /// Whether the job has been declared bottlenecked.
    done: Vec<bool>,
    /// Entity id per job (dense, possibly synthesized).
    entity_of: Vec<usize>,
    /// Original per-job weights (for fairness redistribution).
    base_weights: Vec<f64>,
    /// Inner policy per entity.
    inner_of: Vec<EntityPolicy>,
    /// Whether to reuse optimal bases across solves.
    warm: bool,
    /// Basis cache for the per-round joint water-filling LP.
    round_basis: Option<WarmStart>,
    /// Basis cache for the max-sum prepass LP of the probe method.
    prepass_basis: Option<WarmStart>,
    /// Basis cache shared by the per-job probe LPs (identical constraint
    /// matrix across probes; only the objective and floors move). Each
    /// probe pass snapshots this to seed its shards and writes back the
    /// last shard's final basis.
    probe_basis: Option<WarmStart>,
    /// Aggregate solver stats across every LP and MILP solved, merged in
    /// deterministic (round, then shard, then in-shard) order.
    stats: SolveStats,
}

impl<'i, 'a> WaterFill<'i, 'a> {
    /// Solves one of the water-filling LPs, warm-started from (and
    /// refreshing) the given basis-cache slot when enabled.
    fn solve_lp(
        &self,
        lp: &LpProblem,
        cache: &mut Option<WarmStart>,
    ) -> Result<gavel_solver::LpSolution, PolicyError> {
        if self.warm {
            solve_with_cache(lp, cache).map_err(solver_err)
        } else {
            lp.solve().map_err(solver_err)
        }
    }

    /// Builds the iteration LP: max t subject to floors and weighted rises.
    /// Returns `(t*, allocation)`.
    fn solve_round(&mut self) -> Result<(f64, Allocation), PolicyError> {
        let input = self.input;
        let mut alp = AllocLp::new(input, Sense::Maximize);
        let t = alp.lp.add_var("t", 0.0, f64::INFINITY, 1.0);
        for (m, job) in input.jobs.iter().enumerate() {
            let mut terms: Vec<(VarId, f64)> = alp
                .throughput_terms(input, job.id)
                .into_iter()
                .map(|(v, c)| (v, c * self.factors[m]))
                .collect();
            if self.weights[m] > 0.0 {
                terms.push((t, -self.weights[m]));
            }
            // floor (+ w t if active) <= normalized throughput.
            alp.lp.add_constraint(&terms, Cmp::Ge, self.floors[m]);
        }
        let mut cache = self.round_basis.take();
        let sol = self.solve_lp(&alp.lp, &mut cache)?;
        self.round_basis = cache;
        self.stats.absorb(&sol.stats);
        Ok((sol.value(t), alp.extract(input, &sol)))
    }

    /// Exact bottleneck detection by per-job probes with a max-sum prepass.
    fn bottlenecked_probe(&mut self, active: &[usize]) -> Result<Vec<usize>, PolicyError> {
        let input = self.input;
        // Prepass: jointly maximize total slack above the floors. Convexity
        // guarantees any job improvable at all *can* show positive slack in
        // some feasible point; the max-sum point may still zero out an
        // improvable job, so zero-slack jobs get an individual probe.
        let mut alp = AllocLp::new(input, Sense::Maximize);
        let mut slack_vars = Vec::with_capacity(active.len());
        for &m in active {
            let job = &input.jobs[m];
            let s = alp.lp.add_var(&format!("slack_{m}"), 0.0, 1.0, 1.0);
            let mut terms: Vec<(VarId, f64)> = alp
                .throughput_terms(input, job.id)
                .into_iter()
                .map(|(v, c)| (v, c * self.factors[m]))
                .collect();
            terms.push((s, -1.0));
            alp.lp.add_constraint(&terms, Cmp::Ge, self.floors[m]);
            slack_vars.push(s);
        }
        // Floors for inactive jobs.
        for (m, job) in input.jobs.iter().enumerate() {
            if active.contains(&m) {
                continue;
            }
            let terms: Vec<(VarId, f64)> = alp
                .throughput_terms(input, job.id)
                .into_iter()
                .map(|(v, c)| (v, c * self.factors[m]))
                .collect();
            alp.lp.add_constraint(&terms, Cmp::Ge, self.floors[m]);
        }
        // The slack variables' [0, 1] ranges ride on columns: the prepass
        // must lower to exactly one standard-form row per constraint.
        debug_assert_eq!(
            alp.lp.num_standard_rows().ok(),
            Some(alp.lp.num_constraints()),
            "prepass LP grew hidden bound rows"
        );
        let mut cache = self.prepass_basis.take();
        let sol = self.solve_lp(&alp.lp, &mut cache)?;
        self.prepass_basis = cache;
        self.stats.absorb(&sol.stats);

        let candidates: Vec<usize> = active
            .iter()
            .enumerate()
            .filter(|&(i, _)| sol.value(slack_vars[i]) <= 1e-6)
            .map(|(_, &m)| m)
            .collect();
        self.probe_candidates(&candidates)
    }

    /// Probes each candidate job individually, sharded across the worker
    /// pool, and returns the subset found bottlenecked (candidate order).
    ///
    /// Sharding is static (see [`PROBE_SHARDS`]): contiguous candidate
    /// chunks, each chaining warm starts from a snapshot of the shared
    /// probe basis. Workers pick shards dynamically, but every shard's
    /// verdicts, stats, and final basis depend only on its candidates and
    /// the seed — the merge below walks shards in order, so the result is
    /// bit-identical under any `GAVEL_THREADS`.
    fn probe_candidates(&mut self, candidates: &[usize]) -> Result<Vec<usize>, PolicyError> {
        if candidates.is_empty() {
            return Ok(Vec::new());
        }
        let shard_size = candidates.len().div_ceil(PROBE_SHARDS);
        let shards: Vec<&[usize]> = candidates.chunks(shard_size).collect();
        let seed = self.probe_basis.take();
        let outcomes = gavel_par::parallel_map(&shards, |shard| {
            let mut cache = seed.clone();
            let mut stats = SolveStats::default();
            let mut verdicts = Vec::with_capacity(shard.len());
            for &m in *shard {
                let (improvable, probe_stats) = self.probe_single(m, &mut cache)?;
                stats.absorb(&probe_stats);
                verdicts.push((m, improvable));
            }
            Ok::<_, PolicyError>((verdicts, cache, stats))
        });
        if candidates.len() > 1 {
            self.stats.parallel_probes += candidates.len();
            self.stats.shards += shards.len();
        }
        let mut bottlenecked = Vec::new();
        let mut last_cache = seed;
        for outcome in outcomes {
            let (verdicts, cache, stats) = outcome?;
            self.stats.absorb(&stats);
            bottlenecked.extend(verdicts.iter().filter(|(_, imp)| !imp).map(|&(m, _)| m));
            last_cache = cache;
        }
        self.probe_basis = last_cache;
        Ok(bottlenecked)
    }

    /// Probes whether job `m` alone can exceed its floor while all other
    /// jobs keep theirs, chaining warm starts through `cache`. A pure
    /// function of `(self, m, *cache)` — shard workers call it
    /// concurrently, each with its own cache. Returns `(improvable,
    /// stats)`.
    fn probe_single(
        &self,
        m: usize,
        cache: &mut Option<WarmStart>,
    ) -> Result<(bool, SolveStats), PolicyError> {
        let input = self.input;
        let mut alp = AllocLp::new(input, Sense::Maximize);
        for (m2, job) in input.jobs.iter().enumerate() {
            let terms: Vec<(VarId, f64)> = alp
                .throughput_terms(input, job.id)
                .into_iter()
                .map(|(v, c)| (v, c * self.factors[m2]))
                .collect();
            if m2 == m {
                for &(v, c) in &terms {
                    alp.lp.add_objective_coeff(v, c);
                }
            }
            alp.lp.add_constraint(&terms, Cmp::Ge, self.floors[m2]);
        }
        let sol = self.solve_lp(&alp.lp, cache)?;
        let improvable = sol.objective > self.floors[m] + 1e-5 * (1.0 + self.floors[m].abs());
        Ok((improvable, sol.stats))
    }

    /// Appendix A.1 MILP: maximize the number of jobs whose normalized
    /// throughput strictly improves over the floor.
    ///
    /// Formulated branch-stably: instead of plain big-Y rows on `z`
    /// (whose up-branch flips a row sign and cold-starts the node), the
    /// big constant rides on an auxiliary `u_m = Y (1 - z_m)` in `[0, Y]`
    /// linked by an equality row. Every row's right-hand side keeps its
    /// sign under both branch directions, each child node's lowering keeps
    /// the parent's shape, and the parent basis stays dual feasible at
    /// every node — so branch-and-bound warm starts actually fire.
    fn bottlenecked_milp(&mut self, active: &[usize]) -> Result<Vec<usize>, PolicyError> {
        let input = self.input;
        let mut alp = AllocLp::new(input, Sense::Maximize);
        let delta = 1e-4;
        let mut z_vars = Vec::with_capacity(active.len());
        for &m in active {
            let job = &input.jobs[m];
            let z = alp.lp.add_var(&format!("z_{m}"), 0.0, 1.0, 1.0);
            // A valid big constant: normalized throughput is bounded by
            // running the whole cluster's workers at the fastest rate.
            let y = big_y(self.input, m, self.factors[m]);
            let u = alp.lp.add_var(&format!("u_{m}"), 0.0, y, 0.0);
            let terms: Vec<(VarId, f64)> = alp
                .throughput_terms(input, job.id)
                .into_iter()
                .map(|(v, c)| (v, c * self.factors[m]))
                .collect();
            // tput >= floor (always).
            alp.lp.add_constraint(&terms, Cmp::Ge, self.floors[m]);
            // tput + u <= floor + Y  <=>  tput <= floor + Y z
            // (z = 0 forces no improvement).
            let mut upper = terms.clone();
            upper.push((u, 1.0));
            alp.lp.add_constraint(&upper, Cmp::Le, self.floors[m] + y);
            // tput + u >= floor + delta  <=>  tput >= floor + delta - Y (1 - z)
            // (z = 1 forces an improvement of at least delta).
            let mut lower = terms;
            lower.push((u, 1.0));
            alp.lp
                .add_constraint(&lower, Cmp::Ge, self.floors[m] + delta);
            // u = Y (1 - z).
            alp.lp.add_constraint(&[(u, 1.0), (z, y)], Cmp::Eq, y);
            z_vars.push(z);
        }
        for (m, job) in input.jobs.iter().enumerate() {
            if active.contains(&m) {
                continue;
            }
            let terms: Vec<(VarId, f64)> = alp
                .throughput_terms(input, job.id)
                .into_iter()
                .map(|(v, c)| (v, c * self.factors[m]))
                .collect();
            alp.lp.add_constraint(&terms, Cmp::Ge, self.floors[m]);
        }
        // Binary indicator bounds ride on columns, so every node
        // relaxation keeps exactly one standard-form row per constraint.
        debug_assert_eq!(
            alp.lp.num_standard_rows().ok(),
            Some(alp.lp.num_constraints()),
            "bottleneck MILP grew hidden bound rows"
        );
        let opts = MilpOptions {
            warm_start: self.warm,
            ..MilpOptions::default()
        };
        let sol = solve_milp(&alp.lp, &z_vars, &opts).map_err(solver_err)?;
        self.stats.absorb(&sol.stats);
        Ok(active
            .iter()
            .zip(&z_vars)
            .filter(|(_, &z)| sol.value(z) < 0.5)
            .map(|(&m, _)| m)
            .collect())
    }

    /// Redistributes a bottlenecked job's weight within its entity.
    fn redistribute(&mut self, m: usize) {
        let w = std::mem::replace(&mut self.weights[m], 0.0);
        self.done[m] = true;
        if w <= 0.0 {
            return;
        }
        let entity = self.entity_of[m];
        let peers: Vec<usize> = (0..self.input.jobs.len())
            .filter(|&k| self.entity_of[k] == entity && !self.done[k])
            .collect();
        if peers.is_empty() {
            return;
        }
        match self.inner_of[entity] {
            EntityPolicy::Fairness => {
                let total: f64 = peers.iter().map(|&k| self.base_weights[k]).sum();
                if total <= 0.0 {
                    return;
                }
                for &k in &peers {
                    self.weights[k] += w * self.base_weights[k] / total;
                }
            }
            EntityPolicy::Fifo => {
                // Weight passes to the earliest remaining job in the
                // queue; with every peer already bottlenecked the weight
                // simply retires and the level keeps its fixed allocation.
                if let Some(next) = peers
                    .iter()
                    .copied()
                    .min_by_key(|&k| self.input.jobs[k].arrival_seq)
                {
                    self.weights[next] += w;
                }
            }
        }
    }
}

/// Upper bound on job `m`'s normalized throughput (for MILP big-M rows).
fn big_y(input: &PolicyInput<'_>, m: usize, factor: f64) -> f64 {
    let job = &input.jobs[m];
    let row = crate::common::singleton_row(input, job.id);
    let fastest = gavel_core::refs::x_fastest(input.tensor, row);
    let workers = input.cluster.total_workers() as f64;
    (factor * fastest * workers).max(1.0) * 2.0
}

impl Policy for Hierarchical {
    fn name(&self) -> &str {
        let all_fair = self
            .entities
            .iter()
            .all(|(_, p)| *p == EntityPolicy::Fairness);
        let all_fifo = self.entities.iter().all(|(_, p)| *p == EntityPolicy::Fifo);
        if self.entities.is_empty() || all_fair {
            "hierarchical-fairness"
        } else if all_fifo {
            "hierarchical-fifo"
        } else {
            "hierarchical-mixed"
        }
    }

    fn compute_allocation(&self, input: &PolicyInput<'_>) -> Result<Allocation, PolicyError> {
        self.compute_allocation_with_stats(input)
            .map(|(alloc, _stats)| alloc)
    }
}
