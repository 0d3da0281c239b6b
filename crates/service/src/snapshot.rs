//! Incremental policy-input snapshots.
//!
//! Every allocation recomputation needs three parallel structures: the
//! [`ComboSet`] of schedulable rows, the [`ThroughputTensor`] with one row
//! per combo, and the [`PolicyJob`] vector. Rebuilding them from scratch
//! costs O(n²) pair evaluations per recompute once pair rows are enabled
//! (`build_tensor_with_pairs` scores every job pair); with reset-event
//! recomputation that cost is paid on *every* arrival and completion.
//!
//! [`SnapshotCache`] keeps all three alive across recomputes and applies
//! deltas instead. Pair throughputs come either from the oracle
//! ([`SnapshotCache::snapshot`]) or from the §6 estimator
//! ([`SnapshotCache::snapshot_bridged`] on a cache built with
//! [`SnapshotCache::new_bridged`], Figure 14); both modes share one pair
//! store and one sync protocol:
//!
//! - **admit** appends the arriving job's singleton row and, for a
//!   single-worker job, marks it *fresh*; no pair is scored yet;
//! - **remove** drops the job's rows and unlinks its pair candidates in
//!   O(degree) through a per-job reverse index;
//! - **snapshot** syncs, selects and assembles:
//!   1. the work set W is the fresh jobs still resident plus, in
//!      estimated mode, the resident jobs whose estimator state changed
//!      since the last sync ([`EstimatorBridge::dirty_since`]);
//!   2. every job in W has its candidates unlinked, and every pair
//!      touching W is scored exactly once (the oracle's `pair_score`, or
//!      the bridge's `pair_candidate_by` score); pairs that clear the
//!      pruning threshold are inserted into the store. O(|W| · n) pair
//!      evaluations, and none at all when W is empty;
//!   3. the bucketed selection below picks the pairs under the per-job
//!      cap (memoized while no admit, remove or W changed anything);
//!   4. rows are built for the selected slots only and memoized per slot
//!      until the slot is deselected or freed.
//!
//! The assembled snapshot is **row-for-row bitwise identical** to a fresh
//! `build_tensor_with_pairs[_by]` / `build_singleton_tensor` run over the
//! same jobs (and, in estimated mode, the same estimator state). A pair
//! that was not re-scored has two members whose estimator state did not
//! change since it was scored (a change would have put a member in W), so
//! its score, and the row derived from it at selection time, are the ones
//! the fresh builder computes now.
//!
//! # The score-bucketed candidate store
//!
//! At 2048+ jobs the cache holds ~n²/2 above-threshold pair candidates,
//! and re-ranking all of them per recompute (a `u128`-keyed global sort)
//! would dominate recompute latency. [`PairStore`] keeps candidates in
//! coarse *score buckets*: every candidate lives in the bucket named by
//! the top [`BUCKET_SHIFT`]-truncated bits of its score's IEEE-754
//! pattern (an exponent-plus-leading-mantissa bin), so bucket order *is*
//! score order and a candidate's bucket never depends on any other
//! candidate. Churn is local: inserts are O(1) per candidate and unlinking
//! a job's candidates is O(degree).
//!
//! **Lazy materialization rule.** Selection walks buckets in descending
//! score order. Inside each bucket it first *filters* candidates down to
//! those whose both endpoints are still under the per-job pair cap —
//! cap counts only grow during a pass, so a candidate filtered out here
//! could never be selected later — and only those survivors are sorted
//! with the exact tie-break key. The expensive total order is therefore
//! materialized only inside the buckets the cap still contests, and the
//! walk stops entirely once fewer than two jobs remain both uncapped and
//! unexhausted. Cost per pass is O(live candidates) array reads plus
//! O(contested · log contested) sorting, instead of O(n² log n²).
//!
//! **Tie-break contract.** The fresh builder stable-sorts candidates by
//! score descending, so equal-scoring pairs keep their (i, k) enumeration
//! order *in the current job vector* — positions change as completions
//! `swap_remove` jobs. The cache reproduces that exact total order as a
//! single `u128` key per candidate:
//!
//! ```text
//! key = (!score.to_bits()) << 64 | position_i << 32 | position_k,   i < k
//! ```
//!
//! sorted ascending. Scores are nonnegative and finite (debug-asserted),
//! so complemented IEEE bits order exactly inverse to the values; the
//! (i, k) suffix reproduces the stable sort's enumeration order for
//! ties. The greedy per-job cap is then applied in that order. Bucket ids
//! are a prefix of the score bits, so the descending bucket walk refines
//! into the same global order, and the key depends only on the score and
//! the current positions — never on when or in which slot a candidate
//! was inserted. Proptests check every step of random admit/complete
//! (and, estimated, refine) interleavings against the fresh builders.

use crate::estimate::EstimatorBridge;
use gavel_core::{Combo, ComboSet, JobId, PairThroughput, PolicyJob, ThroughputTensor};
use gavel_workloads::{
    pair_candidate, pair_candidate_by, pair_score, singleton_row, GpuKind, JobSpec, Oracle,
    PairOptions,
};
use std::collections::{BTreeMap, HashMap};

/// Right-shift applied to a score's IEEE-754 bits to name its bucket.
/// Keeping the top 24 bits (sign, exponent, 12 mantissa bits) yields a
/// few hundred buckets over the realistic score range — coarse enough
/// that the bucket map stays small, fine enough that contested buckets
/// stay short.
const BUCKET_SHIFT: u32 = 40;

/// Sentinel for "no position / dead handle".
const NONE32: u32 = u32::MAX;

/// A candidate slot in the bucketed store. Endpoints are dense job
/// *handles* (stable across `swap_remove` churn, unlike positions);
/// `la`/`lb`/`bucket_pos` are backpointers into the two per-job slot
/// lists and the bucket vector, so unlinking is O(1) per reference.
#[derive(Debug, Clone, Copy)]
struct Slot {
    ha: u32,
    hb: u32,
    /// Index of this slot in `job_slots[ha]` / `job_slots[hb]`.
    la: u32,
    lb: u32,
    /// Index of this slot in its bucket's vector.
    bucket_pos: u32,
    score: f64,
}

/// A bucket-resident copy of a slot's selection-relevant fields. The
/// selection pass streams entire buckets; carrying the endpoints and
/// score inline keeps that scan sequential (the slot slab is only
/// touched for backpointer fixups on unlink), which is what makes the
/// filter pass memory-bandwidth-cheap at millions of candidates.
#[derive(Debug, Clone, Copy)]
struct BucketEntry {
    slot: u32,
    ha: u32,
    hb: u32,
    /// Mirrors `Slot::score`.
    score: f64,
}

/// The score-bucketed candidate store (see the module docs).
#[derive(Debug, Clone, Default)]
struct PairStore {
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Bucket id (top score bits) → entries; iterated high-to-low so
    /// bucket order is descending score order.
    buckets: BTreeMap<u32, Vec<BucketEntry>>,
    /// Per-handle slot lists — the reverse index that makes completions
    /// O(degree) instead of an O(|candidates|) scan.
    job_slots: Vec<Vec<u32>>,
    live: usize,
}

impl PairStore {
    fn bucket_of(score: f64) -> u32 {
        (score.to_bits() >> BUCKET_SHIFT) as u32
    }

    /// Grows the per-handle lists to cover `n` handles.
    fn ensure_handles(&mut self, n: usize) {
        if self.job_slots.len() < n {
            self.job_slots.resize_with(n, Vec::new);
        }
    }

    /// Number of live candidates touching handle `h`.
    fn degree(&self, h: u32) -> usize {
        self.job_slots[h as usize].len()
    }

    fn insert(&mut self, ha: u32, hb: u32, score: f64) -> u32 {
        debug_assert_ne!(ha, hb);
        debug_assert!(
            score >= 0.0 && score.is_finite(),
            "bucketed candidate scores must be nonnegative finite, got {score}"
        );
        let s = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(Slot {
                    ha: NONE32,
                    hb: NONE32,
                    la: 0,
                    lb: 0,
                    bucket_pos: 0,
                    score: 0.0,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let bvec = self.buckets.entry(Self::bucket_of(score)).or_default();
        let bucket_pos = bvec.len() as u32;
        bvec.push(BucketEntry {
            slot: s,
            ha,
            hb,
            score,
        });
        let la = self.job_slots[ha as usize].len() as u32;
        self.job_slots[ha as usize].push(s);
        let lb = self.job_slots[hb as usize].len() as u32;
        self.job_slots[hb as usize].push(s);
        self.slots[s as usize] = Slot {
            ha,
            hb,
            la,
            lb,
            bucket_pos,
            score,
        };
        self.live += 1;
        s
    }

    /// Unlinks `s` from its bucket vector, fixing the swapped slot's
    /// backpointer and dropping the bucket when it empties.
    fn unlink_bucket(&mut self, s: u32) {
        let sl = self.slots[s as usize];
        let bucket = Self::bucket_of(sl.score);
        let bvec = self.buckets.get_mut(&bucket).expect("slot bucket missing");
        let p = sl.bucket_pos as usize;
        debug_assert_eq!(bvec[p].slot, s);
        bvec.swap_remove(p);
        if p < bvec.len() {
            let moved = bvec[p].slot;
            self.slots[moved as usize].bucket_pos = p as u32;
        }
        if bvec.is_empty() {
            self.buckets.remove(&bucket);
        }
    }

    /// Unlinks `s` from handle `h`'s slot list.
    fn unlink_job(&mut self, h: u32, list_pos: u32, s: u32) {
        let list = &mut self.job_slots[h as usize];
        let p = list_pos as usize;
        debug_assert_eq!(list[p], s);
        list.swap_remove(p);
        if p < list.len() {
            let moved = list[p];
            let msl = &mut self.slots[moved as usize];
            if msl.ha == h {
                msl.la = p as u32;
            } else {
                debug_assert_eq!(msl.hb, h);
                msl.lb = p as u32;
            }
        }
    }

    fn remove_slot(&mut self, s: u32) {
        let sl = self.slots[s as usize];
        debug_assert_ne!(sl.ha, NONE32, "double free of slot {s}");
        self.unlink_bucket(s);
        self.unlink_job(sl.ha, sl.la, s);
        self.unlink_job(sl.hb, sl.lb, s);
        self.slots[s as usize].ha = NONE32;
        self.free.push(s);
        self.live -= 1;
    }

    /// Drops every candidate touching handle `h` — O(degree).
    fn remove_job(&mut self, h: u32) {
        while let Some(&s) = self.job_slots[h as usize].last() {
            self.remove_slot(s);
        }
    }

    fn live_slots(&self) -> impl Iterator<Item = &Slot> + '_ {
        self.slots.iter().filter(|sl| sl.ha != NONE32)
    }

    /// The bucketed selection pass: walks buckets in descending score
    /// order, lazily materializing the exact tie-break order only for
    /// candidates the per-job cap still contests (see the module docs),
    /// and stops once fewer than two jobs remain both uncapped and
    /// unexhausted. Returns selected slot ids in emission order — the
    /// fresh builder's greedy over the same candidates.
    fn select(&self, handle_pos: &[u32], cap: usize, stats: &mut SnapshotStats) -> Vec<u32> {
        let mut selected = Vec::new();
        if cap == 0 || self.live == 0 {
            return selected;
        }
        let cap = cap.min(u32::MAX as usize) as u32;
        let nh = self.job_slots.len();
        // Small per-handle working arrays (tens of KB — cache-resident),
        // with degrees snapshotted once so the hot loop never chases the
        // `job_slots` vector headers.
        let mut counts = vec![0u32; nh];
        let mut scanned = vec![0u32; nh];
        let degrees: Vec<u32> = self.job_slots.iter().map(|l| l.len() as u32).collect();
        // S' = jobs still uncapped with unscanned candidates remaining;
        // once |S'| < 2 no further pair can be selected.
        let mut in_sp = vec![false; nh];
        let mut s_prime = 0usize;
        for h in 0..nh {
            if degrees[h] > 0 {
                in_sp[h] = true;
                s_prime += 1;
            }
        }
        let mut survivors: Vec<(u128, u32, u32, u32)> = Vec::new();
        for bucket in self.buckets.values().rev() {
            if s_prime <= 1 {
                break;
            }
            stats.buckets_walked += 1;
            survivors.clear();
            // This scan is the pass's volume term: one sequential read
            // per bucket entry, no slot-slab access.
            for e in bucket {
                let (ha, hb) = (e.ha as usize, e.hb as usize);
                scanned[ha] += 1;
                if in_sp[ha] && scanned[ha] == degrees[ha] {
                    in_sp[ha] = false;
                    s_prime -= 1;
                }
                scanned[hb] += 1;
                if in_sp[hb] && scanned[hb] == degrees[hb] {
                    in_sp[hb] = false;
                    s_prime -= 1;
                }
                // Cap counts only grow within a pass, so a candidate
                // with a capped endpoint here can never be selected:
                // filtering it out before the sort is exact.
                if counts[ha] < cap && counts[hb] < cap {
                    let (pa, pb) = (handle_pos[ha], handle_pos[hb]);
                    debug_assert!(pa != NONE32 && pb != NONE32, "candidate on a dead job");
                    let (i, k) = if pa < pb { (pa, pb) } else { (pb, pa) };
                    let key =
                        ((!e.score.to_bits() as u128) << 64) | ((i as u128) << 32) | (k as u128);
                    survivors.push((key, e.slot, e.ha, e.hb));
                }
            }
            stats.candidates_sorted += survivors.len();
            survivors.sort_unstable();
            for &(_, s, ha, hb) in &survivors {
                let (ha, hb) = (ha as usize, hb as usize);
                // Re-check: an earlier survivor in this bucket may have
                // capped an endpoint.
                if counts[ha] >= cap || counts[hb] >= cap {
                    continue;
                }
                counts[ha] += 1;
                counts[hb] += 1;
                selected.push(s);
                for h in [ha, hb] {
                    if in_sp[h] && counts[h] >= cap {
                        in_sp[h] = false;
                        s_prime -= 1;
                    }
                }
            }
        }
        selected
    }
}

/// Counters making the incremental path observable (and gateable).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Oracle-backed snapshots ([`SnapshotCache::snapshot`]).
    pub incremental_snapshots: usize,
    /// Estimated snapshots ([`SnapshotCache::snapshot_bridged`] on a
    /// bridged cache).
    pub bridged_snapshots: usize,
    /// Pair-score evaluations performed at sync (oracle or bridge).
    pub pair_evals: usize,
    /// Singleton rows appended (admissions).
    pub rows_appended: usize,
    /// Singleton rows dropped (completions).
    pub rows_dropped: usize,
    /// Bucketed selection passes.
    pub bucketed_selections: usize,
    /// Buckets visited across all bucketed selection passes.
    pub buckets_walked: usize,
    /// Candidates whose exact tie-break order was lazily materialized
    /// (filtered into a contested bucket's sort) across all passes.
    pub candidates_sorted: usize,
    /// Always 0: the cache has no flat re-rank path. Kept so existing
    /// readers of the counter keep compiling.
    pub flat_reranks: usize,
    /// Pair rows materialized for newly selected candidates.
    pub pair_rows_materialized: usize,
}

/// Persistent combo/tensor/job state, updated by deltas on admit and
/// complete and synced at each snapshot (see the module docs).
///
/// The cache's job order mirrors the engine's active-job vector: callers
/// must `admit` on arrival and `remove(i)` with the same `swap_remove`
/// index discipline the active vector uses.
#[derive(Debug, Clone)]
pub struct SnapshotCache {
    consolidated: bool,
    /// Pair generation options; `None` = singleton-only snapshots.
    pairs: Option<PairOptions>,
    /// Estimator clock at the last sync; `Some` exactly for bridged
    /// (estimated) caches.
    bridged_epoch: Option<u64>,
    specs: Vec<JobSpec>,
    singleton_rows: Vec<Vec<PairThroughput>>,
    policy_jobs: Vec<PolicyJob>,
    /// Dense per-job handle, parallel to `specs`.
    handles: Vec<u32>,
    /// Position of each handle in `specs` ([`NONE32`] once freed).
    handle_pos: Vec<u32>,
    /// `JobId` of each handle (stale once freed).
    handle_ids: Vec<JobId>,
    free_handles: Vec<u32>,
    /// Handles of single-worker jobs admitted since the last sync. May
    /// repeat a handle or name one that died (or was reused) since; the
    /// sync filters both.
    fresh: Vec<u32>,
    /// The score-bucketed candidate store.
    store: PairStore,
    /// Memoized selection (slot ids in emission order), valid while no
    /// remove or non-empty sync has happened since it was computed — so
    /// cadence-driven recomputes over an unchanged job set skip the
    /// selection pass entirely.
    selected: Vec<u32>,
    selection_dirty: bool,
    /// Rows of the selected slots, keyed by slot id; an entry is dropped
    /// when its slot is deselected or freed.
    rows: HashMap<u32, Vec<PairThroughput>>,
    stats: SnapshotStats,
}

impl SnapshotCache {
    /// Creates an empty cache. `pairs` enables space-sharing pair rows
    /// (pass the same [`PairOptions`] the fresh builder would use).
    pub fn new(consolidated: bool, pairs: Option<PairOptions>) -> Self {
        SnapshotCache {
            consolidated,
            pairs,
            bridged_epoch: None,
            specs: Vec::new(),
            singleton_rows: Vec::new(),
            policy_jobs: Vec::new(),
            handles: Vec::new(),
            handle_pos: Vec::new(),
            handle_ids: Vec::new(),
            free_handles: Vec::new(),
            fresh: Vec::new(),
            store: PairStore::default(),
            selected: Vec::new(),
            selection_dirty: true,
            rows: HashMap::new(),
            stats: SnapshotStats::default(),
        }
    }

    /// Creates an empty cache in bridged (estimated) mode: pair scores and
    /// rows come from an [`EstimatorBridge`] at [`Self::snapshot_bridged`]
    /// time, re-derived for the jobs whose estimates drifted (see the
    /// module docs).
    pub fn new_bridged(consolidated: bool, opts: PairOptions) -> Self {
        SnapshotCache {
            bridged_epoch: Some(0),
            ..SnapshotCache::new(consolidated, Some(opts))
        }
    }

    /// Number of resident jobs.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the cache holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The resident job specs, in active order.
    pub fn specs(&self) -> &[JobSpec] {
        &self.specs
    }

    /// The persistent policy-job vector, parallel to `specs`.
    pub fn policy_jobs(&self) -> &[PolicyJob] {
        &self.policy_jobs
    }

    /// Mutable access for refreshing the time-varying policy-job fields
    /// (steps remaining, elapsed time, SLO headroom) before a recompute.
    pub fn policy_jobs_mut(&mut self) -> &mut [PolicyJob] {
        &mut self.policy_jobs
    }

    /// Counters for benches and CI gates.
    pub fn stats(&self) -> SnapshotStats {
        self.stats
    }

    /// Number of live pair candidates in the bucketed store (as of the
    /// last snapshot: admissions are scored at the next sync).
    pub fn candidate_count(&self) -> usize {
        self.store.live
    }

    /// Number of live candidates touching the job at position `i` —
    /// the completion cost through the reverse index is O(this).
    pub fn candidate_degree(&self, i: usize) -> usize {
        self.store.degree(self.handles[i])
    }

    /// The live pair candidates as `(JobId, JobId, score)`, in slot
    /// order, as of the last snapshot. Read-only access for comparators
    /// that rank the candidates some other way.
    pub fn pair_candidates(&self) -> impl Iterator<Item = (JobId, JobId, f64)> + '_ {
        self.store.live_slots().map(|sl| {
            (
                self.handle_ids[sl.ha as usize],
                self.handle_ids[sl.hb as usize],
                sl.score,
            )
        })
    }

    fn alloc_handle(&mut self, id: JobId) -> u32 {
        match self.free_handles.pop() {
            Some(h) => {
                self.handle_ids[h as usize] = id;
                h
            }
            None => {
                let h = self.handle_pos.len() as u32;
                self.handle_pos.push(NONE32);
                self.handle_ids.push(id);
                self.store.ensure_handles(self.handle_pos.len());
                h
            }
        }
    }

    fn spec_of(&self, h: u32) -> JobSpec {
        self.specs[self.handle_pos[h as usize] as usize]
    }

    /// Admits a job: appends its singleton row and, when pairs are
    /// enabled and the job is single-worker, marks it fresh so the next
    /// snapshot scores its pairs.
    pub fn admit(&mut self, oracle: &Oracle, spec: JobSpec, job: PolicyJob) {
        debug_assert_eq!(spec.id, job.id, "spec/job identity mismatch");
        self.singleton_rows
            .push(singleton_row(oracle, &spec, self.consolidated));
        self.stats.rows_appended += 1;
        let h = self.alloc_handle(spec.id);
        if self.pairs.is_some() && spec.scale_factor == 1 {
            self.fresh.push(h);
        }
        self.handle_pos[h as usize] = self.specs.len() as u32;
        self.handles.push(h);
        self.specs.push(spec);
        self.policy_jobs.push(job);
    }

    /// Removes the job at position `i` (swap-remove, mirroring the
    /// engine's active vector) and unlinks its pair candidates through
    /// the per-job reverse index — O(degree), not O(|candidates|).
    pub fn remove(&mut self, i: usize) {
        let h = self.handles[i];
        self.specs.swap_remove(i);
        self.singleton_rows.swap_remove(i);
        self.policy_jobs.swap_remove(i);
        self.handles.swap_remove(i);
        if i < self.handles.len() {
            self.handle_pos[self.handles[i] as usize] = i as u32;
        }
        self.handle_pos[h as usize] = NONE32;
        self.unlink(h);
        self.free_handles.push(h);
        self.selection_dirty = true;
        self.stats.rows_dropped += 1;
    }

    /// Unlinks every candidate of handle `h`, dropping the memoized rows
    /// of the freed slots (slot ids are reused).
    fn unlink(&mut self, h: u32) {
        if !self.rows.is_empty() {
            for s in &self.store.job_slots[h as usize] {
                self.rows.remove(s);
            }
        }
        self.store.remove_job(h);
    }

    /// Steps 1–2 of the sync protocol: builds the work set W, unlinks its
    /// candidates and re-scores every pair touching W exactly once.
    fn sync(&mut self, oracle: &Oracle, bridge: Option<&EstimatorBridge>) {
        let Some(opts) = self.pairs else { return };
        let mut work = std::mem::take(&mut self.fresh);
        if let (Some(bridge), Some(epoch)) = (bridge, self.bridged_epoch.as_mut()) {
            let dirty = bridge.dirty_since(*epoch);
            *epoch = bridge.clock();
            if !dirty.is_empty() {
                for (s, &h) in self.specs.iter().zip(&self.handles) {
                    if dirty.binary_search(&s.id).is_ok() {
                        work.push(h);
                    }
                }
            }
        }
        work.retain(|&h| {
            let p = self.handle_pos[h as usize];
            p != NONE32 && self.specs[p as usize].scale_factor == 1
        });
        if work.is_empty() {
            return;
        }
        work.sort_unstable();
        work.dedup();
        for &w in &work {
            self.unlink(w);
        }
        for &w in &work {
            let a = self.spec_of(w);
            for (b, &hb) in self.specs.iter().zip(&self.handles) {
                // A pair inside W is scored from its lower handle only.
                if b.scale_factor != 1 || hb == w || (hb < w && work.binary_search(&hb).is_ok()) {
                    continue;
                }
                let score = match bridge {
                    None => pair_score(oracle, &a, b),
                    Some(br) => estimated_pair(oracle, br, &a, b).0,
                };
                self.stats.pair_evals += 1;
                if score >= opts.min_aggregate {
                    self.store.insert(w, hb, score);
                }
            }
        }
        self.selection_dirty = true;
    }

    /// Steps 3–4 of the sync protocol: the bucketed selection, then rows
    /// for the selected slots, reusing the rows of slots that stayed
    /// selected.
    fn reselect(&mut self, oracle: &Oracle, bridge: Option<&EstimatorBridge>, cap: usize) {
        self.stats.bucketed_selections += 1;
        let slots = self.store.select(&self.handle_pos, cap, &mut self.stats);
        let mut old = std::mem::take(&mut self.rows);
        for &s in &slots {
            let row = match old.remove(&s) {
                Some(row) => row,
                None => {
                    let sl = self.store.slots[s as usize];
                    let (a, b) = (self.spec_of(sl.ha), self.spec_of(sl.hb));
                    self.stats.pair_rows_materialized += 1;
                    match bridge {
                        None => pair_candidate(oracle, &a, &b).1,
                        Some(br) => estimated_pair(oracle, br, &a, &b).1,
                    }
                }
            };
            self.rows.insert(s, row);
        }
        self.selected = slots;
    }

    /// The one snapshot path behind [`Self::snapshot`] and
    /// [`Self::snapshot_bridged`].
    fn assemble(
        &mut self,
        oracle: &Oracle,
        bridge: Option<&EstimatorBridge>,
    ) -> (ComboSet, ThroughputTensor) {
        self.sync(oracle, bridge);
        let num_types = GpuKind::all().len();
        let mut combos: Vec<Combo> = self.specs.iter().map(|s| Combo::single(s.id)).collect();
        let mut rows = self.singleton_rows.clone();
        if let Some(opts) = self.pairs {
            if self.selection_dirty {
                self.reselect(oracle, bridge, opts.max_pairs_per_job);
                self.selection_dirty = false;
            }
            for &s in &self.selected {
                let sl = &self.store.slots[s as usize];
                combos.push(Combo::pair(
                    self.handle_ids[sl.ha as usize],
                    self.handle_ids[sl.hb as usize],
                ));
                rows.push(self.rows[&s].clone());
            }
        }
        (
            ComboSet::new(combos),
            ThroughputTensor::new(num_types, rows),
        )
    }

    /// Assembles the current snapshot with oracle pair rows.
    ///
    /// Row-for-row identical to `build_tensor_with_pairs(oracle, specs,
    /// consolidated, opts)` (or `build_singleton_tensor` without pairs)
    /// over the current job vector. Bridged caches must use
    /// [`Self::snapshot_bridged`] instead.
    pub fn snapshot(&mut self, oracle: &Oracle) -> (ComboSet, ThroughputTensor) {
        assert!(
            self.bridged_epoch.is_none(),
            "bridged caches assemble through snapshot_bridged"
        );
        self.stats.incremental_snapshots += 1;
        self.assemble(oracle, None)
    }

    /// Assembles the current snapshot with pair scores and rows from
    /// `bridge`, re-deriving only the pairs whose members' estimates
    /// drifted since the last call (see the module docs).
    ///
    /// Row-for-row identical to `build_tensor_with_pairs_by(oracle,
    /// specs, consolidated, opts, |a, b, g| bridge.pair_throughput(...))`
    /// at the bridge's current state. On a cache built with [`Self::new`]
    /// this serves the oracle-backed [`Self::snapshot`] instead.
    pub fn snapshot_bridged(
        &mut self,
        oracle: &Oracle,
        bridge: &EstimatorBridge,
    ) -> (ComboSet, ThroughputTensor) {
        if self.bridged_epoch.is_none() {
            return self.snapshot(oracle);
        }
        self.stats.bridged_snapshots += 1;
        self.assemble(oracle, Some(bridge))
    }
}

/// One pair's score and row from the bridge's estimates.
fn estimated_pair(
    oracle: &Oracle,
    bridge: &EstimatorBridge,
    a: &JobSpec,
    b: &JobSpec,
) -> (f64, Vec<PairThroughput>) {
    pair_candidate_by(oracle, a, b, |x, y, g| {
        bridge.pair_throughput(oracle, (x.id, x.config), (y.id, y.config), g)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gavel_estimator::EstimatorConfig;
    use gavel_workloads::{
        build_singleton_tensor, build_tensor_with_pairs, build_tensor_with_pairs_by, JobConfig,
        ModelFamily,
    };

    fn spec(id: u64, family: ModelFamily, batch: u32) -> JobSpec {
        JobSpec {
            id: JobId(id),
            config: JobConfig::new(family, batch),
            scale_factor: 1,
        }
    }

    /// A Table 2 configuration picked by index (all of them are valid).
    fn spec_nth(id: u64, nth: usize) -> JobSpec {
        let all = JobConfig::all();
        JobSpec {
            id: JobId(id),
            config: all[nth % all.len()],
            scale_factor: 1,
        }
    }

    fn assert_matches_fresh(cache: &mut SnapshotCache, oracle: &Oracle, opts: Option<PairOptions>) {
        let specs = cache.specs().to_vec();
        let (combos, tensor) = cache.snapshot(oracle);
        let (fresh_combos, fresh_tensor) = match opts {
            Some(o) => build_tensor_with_pairs(oracle, &specs, true, &o),
            None => build_singleton_tensor(oracle, &specs, true),
        };
        assert_eq!(combos.combos(), fresh_combos.combos(), "combo rows differ");
        assert_eq!(tensor.num_rows(), fresh_tensor.num_rows());
        for k in 0..tensor.num_rows() {
            assert_eq!(tensor.row(k), fresh_tensor.row(k), "tensor row {k} differs");
        }
    }

    fn assert_bridged_matches_fresh(
        cache: &mut SnapshotCache,
        oracle: &Oracle,
        bridge: &EstimatorBridge,
        opts: PairOptions,
    ) {
        let specs = cache.specs().to_vec();
        let (combos, tensor) = cache.snapshot_bridged(oracle, bridge);
        let (fresh_combos, fresh_tensor) =
            build_tensor_with_pairs_by(oracle, &specs, true, &opts, |x, y, g| {
                bridge.pair_throughput(oracle, (x.id, x.config), (y.id, y.config), g)
            });
        assert_eq!(combos.combos(), fresh_combos.combos(), "combo rows differ");
        assert_eq!(tensor.num_rows(), fresh_tensor.num_rows());
        for k in 0..tensor.num_rows() {
            assert_eq!(tensor.row(k), fresh_tensor.row(k), "tensor row {k} differs");
        }
    }

    #[test]
    fn incremental_matches_fresh_through_churn() {
        let oracle = Oracle::new();
        let opts = PairOptions::default();
        let mut cache = SnapshotCache::new(true, Some(opts));
        for i in 0..8u64 {
            let s = spec_nth(i, i as usize * 3 + 1);
            cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
            assert_matches_fresh(&mut cache, &oracle, Some(opts));
        }
        // Complete from the middle and the ends (swap_remove churn).
        for &i in &[3usize, 0, 4] {
            cache.remove(i);
            assert_matches_fresh(&mut cache, &oracle, Some(opts));
        }
        // Re-admit after churn.
        let s = spec(20, ModelFamily::A3C, 4);
        cache.admit(&oracle, s, PolicyJob::simple(s.id, 50.0));
        assert_matches_fresh(&mut cache, &oracle, Some(opts));
        let stats = cache.stats();
        assert!(stats.incremental_snapshots > 0);
        assert!(stats.bucketed_selections > 0);
    }

    #[test]
    fn batched_admits_and_removes_match_fresh() {
        // Several admits and removes between two snapshots: the fresh list
        // sees dead and reused handles, and pairs inside W are scored once.
        let oracle = Oracle::new();
        let opts = PairOptions {
            min_aggregate: 1.0,
            max_pairs_per_job: 3,
        };
        let mut cache = SnapshotCache::new(true, Some(opts));
        for i in 0..5u64 {
            let s = spec_nth(i, i as usize * 5 + 2);
            cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
        }
        assert_matches_fresh(&mut cache, &oracle, Some(opts));
        for i in 5..9u64 {
            let s = spec_nth(i, i as usize * 5 + 2);
            cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
        }
        cache.remove(6);
        cache.remove(1);
        let mut big = spec_nth(9, 4);
        big.scale_factor = 2;
        cache.admit(&oracle, big, PolicyJob::simple(big.id, 100.0));
        let s = spec_nth(10, 11);
        cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
        assert_matches_fresh(&mut cache, &oracle, Some(opts));
    }

    #[test]
    fn admitted_and_removed_between_snapshots_costs_nothing() {
        let oracle = Oracle::new();
        let opts = PairOptions {
            min_aggregate: 1.0,
            max_pairs_per_job: 8,
        };
        let mut cache = SnapshotCache::new(true, Some(opts));
        for i in 0..4u64 {
            let s = spec(i, ModelFamily::A3C, 4);
            cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
        }
        assert_matches_fresh(&mut cache, &oracle, Some(opts));
        let before = cache.stats();
        let candidates = cache.candidate_count();
        let transient = spec(4, ModelFamily::A3C, 4);
        cache.admit(&oracle, transient, PolicyJob::simple(transient.id, 100.0));
        cache.remove(4);
        assert_matches_fresh(&mut cache, &oracle, Some(opts));
        assert_eq!(cache.stats().pair_evals, before.pair_evals);
        assert_eq!(cache.candidate_count(), candidates);
        assert!(cache
            .pair_candidates()
            .all(|(a, b, _)| a != transient.id && b != transient.id));
    }

    #[test]
    fn completions_unlink_through_reverse_index() {
        let oracle = Oracle::new();
        let opts = PairOptions {
            min_aggregate: 1.0,
            max_pairs_per_job: 8,
        };
        let mut cache = SnapshotCache::new(true, Some(opts));
        for i in 0..6u64 {
            let s = spec(i, ModelFamily::A3C, 4);
            cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
        }
        // Admissions are scored at the next sync.
        assert_eq!(cache.candidate_count(), 0);
        cache.snapshot(&oracle);
        // Six mutually pairable jobs: 15 candidates, each job degree 5.
        assert_eq!(cache.candidate_count(), 15);
        assert_eq!(cache.candidate_degree(0), 5);
        cache.remove(0);
        // The removed job's 5 candidates are gone; survivors lost one.
        assert_eq!(cache.candidate_count(), 10);
        for i in 0..cache.len() {
            assert_eq!(cache.candidate_degree(i), 4);
        }
        assert_matches_fresh(&mut cache, &oracle, Some(opts));
    }

    #[test]
    fn distributed_jobs_get_no_pair_candidates() {
        let oracle = Oracle::new();
        let opts = PairOptions::default();
        let mut cache = SnapshotCache::new(true, Some(opts));
        let mut big = spec(0, ModelFamily::ResNet18, 16);
        big.scale_factor = 4;
        cache.admit(&oracle, big, PolicyJob::simple(big.id, 100.0));
        let small = spec(1, ModelFamily::A3C, 4);
        cache.admit(&oracle, small, PolicyJob::simple(small.id, 100.0));
        assert_matches_fresh(&mut cache, &oracle, Some(opts));
        let (combos, _) = cache.snapshot(&oracle);
        assert!(combos.combos().iter().all(|c| !c.is_pair()));
    }

    #[test]
    fn singleton_only_mode_matches_fresh() {
        let oracle = Oracle::new();
        let mut cache = SnapshotCache::new(true, None);
        for i in 0..5u64 {
            let s = spec(i, ModelFamily::ResNet50, 32);
            cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
        }
        cache.remove(1);
        assert_matches_fresh(&mut cache, &oracle, None);
    }

    #[test]
    fn per_job_cap_respected_after_churn() {
        let oracle = Oracle::new();
        let opts = PairOptions {
            min_aggregate: 1.0,
            max_pairs_per_job: 2,
        };
        let mut cache = SnapshotCache::new(true, Some(opts));
        for i in 0..10u64 {
            let s = spec(i, ModelFamily::A3C, 4);
            cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
        }
        cache.remove(2);
        cache.remove(5);
        assert_matches_fresh(&mut cache, &oracle, Some(opts));
        let (combos, _) = cache.snapshot(&oracle);
        for s in cache.specs() {
            let n = combos
                .combos()
                .iter()
                .filter(|c| c.is_pair() && c.contains(s.id))
                .count();
            assert!(n <= 2, "{} appears in {n} pairs", s.id);
        }
    }

    #[test]
    fn bucket_bookkeeping_through_unlink() {
        let mut store = PairStore::default();
        store.ensure_handles(4);
        assert_ne!(
            PairStore::bucket_of(1.25),
            PairStore::bucket_of(2.5),
            "test scores must land in different buckets"
        );
        store.insert(0, 1, 1.25);
        store.insert(2, 3, 2.5);
        store.insert(0, 2, 2.5000001);
        assert_eq!(store.buckets.len(), 2);
        assert_eq!(store.degree(0), 2);
        // Unlinking handle 0 frees both its slots and empties a bucket.
        store.remove_job(0);
        assert_eq!(store.live, 1);
        assert_eq!(store.buckets.len(), 1);
        assert_eq!(store.degree(2), 1);
        // The freed slot is reused, and its new bucket reappears.
        store.insert(1, 3, 1.25);
        assert_eq!(store.free.len(), 1);
        assert_eq!(store.buckets.len(), 2);
        store.remove_job(3);
        assert_eq!(store.live, 0);
        assert!(store.buckets.is_empty());
    }

    #[test]
    fn bridged_matches_fresh_through_drift_and_churn() {
        let oracle = Oracle::new();
        let opts = PairOptions {
            min_aggregate: 1.0,
            max_pairs_per_job: 4,
        };
        let mut bridge = EstimatorBridge::new(&oracle, EstimatorConfig::default(), 9);
        let mut cache = SnapshotCache::new_bridged(true, opts);
        for i in 0..8u64 {
            let s = spec_nth(i, i as usize * 5 + 2);
            bridge.register(&oracle, s.id, s.config);
            cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
            assert_bridged_matches_fresh(&mut cache, &oracle, &bridge, opts);
        }
        // Refine two jobs (dirtying exactly them) and churn the vector.
        let (a, b) = (cache.specs()[1], cache.specs()[4]);
        bridge.observe(&oracle, (a.id, a.config), (b.id, b.config), GpuKind::V100);
        assert_bridged_matches_fresh(&mut cache, &oracle, &bridge, opts);
        for &i in &[3usize, 0] {
            let id = cache.specs()[i].id;
            cache.remove(i);
            bridge.forget(id);
            assert_bridged_matches_fresh(&mut cache, &oracle, &bridge, opts);
        }
        // A clean recompute (no drift, no churn) is a pure assembly: no
        // pair evaluation, and still a match.
        let evals = cache.stats().pair_evals;
        assert_bridged_matches_fresh(&mut cache, &oracle, &bridge, opts);
        assert_eq!(cache.stats().pair_evals, evals);
        let stats = cache.stats();
        assert_eq!(stats.bridged_snapshots, 12);
        assert_eq!(stats.incremental_snapshots, 0);
    }

    #[test]
    fn bridged_rescores_each_pair_once_when_every_job_drifts() {
        let oracle = Oracle::new();
        let opts = PairOptions {
            min_aggregate: 1.0,
            max_pairs_per_job: 8,
        };
        let n = 6usize;
        let mut bridge = EstimatorBridge::new(&oracle, EstimatorConfig::default(), 11);
        let mut cache = SnapshotCache::new_bridged(true, opts);
        for i in 0..n as u64 {
            let s = spec_nth(i, i as usize * 3 + 1);
            bridge.register(&oracle, s.id, s.config);
            cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
        }
        // Initial population: every job is fresh, every pair scored once.
        assert_bridged_matches_fresh(&mut cache, &oracle, &bridge, opts);
        assert_eq!(cache.stats().pair_evals, n * (n - 1) / 2);

        // Dirty every resident job: W is the whole job set, and each pair
        // is still re-scored exactly once.
        let epoch = bridge.clock();
        for i in 0..n {
            let (a, b) = (cache.specs()[i], cache.specs()[(i + 1) % n]);
            bridge.observe(&oracle, (a.id, a.config), (b.id, b.config), GpuKind::V100);
        }
        assert_eq!(bridge.dirty_since(epoch).len(), n, "every job must drift");
        let before = cache.stats().pair_evals;
        assert_bridged_matches_fresh(&mut cache, &oracle, &bridge, opts);
        assert_eq!(cache.stats().pair_evals - before, n * (n - 1) / 2);

        // One refined pair afterwards re-scores only the pairs touching
        // its two members.
        let before = cache.stats().pair_evals;
        let (a, b) = (cache.specs()[0], cache.specs()[1]);
        bridge.observe(&oracle, (a.id, a.config), (b.id, b.config), GpuKind::V100);
        assert_bridged_matches_fresh(&mut cache, &oracle, &bridge, opts);
        assert!(cache.stats().pair_evals - before <= 2 * (n - 1));
    }

    #[test]
    fn bridged_mixes_registered_and_unregistered_jobs() {
        // Unregistered jobs ride the static class-estimate path; their
        // pairs never dirty, while registered partners still invalidate.
        let oracle = Oracle::new();
        let opts = PairOptions {
            min_aggregate: 1.0,
            max_pairs_per_job: 8,
        };
        let mut bridge = EstimatorBridge::new(&oracle, EstimatorConfig::default(), 13);
        let mut cache = SnapshotCache::new_bridged(true, opts);
        for i in 0..6u64 {
            let s = spec_nth(i, i as usize * 7 + 3);
            if i % 2 == 0 {
                bridge.register(&oracle, s.id, s.config);
            }
            cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
        }
        assert_bridged_matches_fresh(&mut cache, &oracle, &bridge, opts);
        let (a, b) = (cache.specs()[0], cache.specs()[2]);
        bridge.observe(&oracle, (a.id, a.config), (b.id, b.config), GpuKind::V100);
        assert_bridged_matches_fresh(&mut cache, &oracle, &bridge, opts);
    }
}
