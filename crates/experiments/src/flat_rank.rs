//! The flat pair ranking: one global sort over every scored pair
//! candidate, then the fresh builder's greedy per-job cap. This is the
//! pre-bucketed implementation of [`SnapshotCache`]'s pair selection,
//! kept here as the comparator the `bucketed` bench group and
//! `fig12_scalability --extended` measure the bucketed store against.

use gavel_core::JobId;
use gavel_sim::SnapshotCache;
use std::collections::HashMap;

/// Ranks scored pair candidates exactly like the fresh builder and
/// applies its greedy per-job cap, returning each surviving candidate's
/// `tag` in emission order.
///
/// Every candidate is packed into a single `u128` key — descending score
/// bits, then the two positions `i < k` from `pos` — and globally
/// sorted: O(c log c) for c candidates per pass.
///
/// Scores must be nonnegative and finite: `!score.to_bits()` orders the
/// IEEE bit patterns inverse to the values only on that domain, and
/// silently mis-orders negatives and NaNs (debug-asserted here).
pub fn rank_and_cap<T: Copy>(
    candidates: impl Iterator<Item = (JobId, JobId, f64, T)>,
    pos: &HashMap<JobId, u32>,
    n_jobs: usize,
    max_pairs_per_job: usize,
) -> Vec<T> {
    let mut keys: Vec<(u128, T)> = candidates
        .map(|(a, b, score, tag)| {
            let pa = pos[&a];
            let pb = pos[&b];
            let (i, k) = if pa < pb { (pa, pb) } else { (pb, pa) };
            debug_assert!(
                score >= 0.0 && score.is_finite(),
                "rank_and_cap requires nonnegative finite scores \
                 (the score_desc bit trick mis-orders negatives/NaNs), got {score}"
            );
            let score_desc = !score.to_bits();
            let key = ((score_desc as u128) << 64) | ((i as u128) << 32) | (k as u128);
            (key, tag)
        })
        .collect();
    keys.sort_unstable_by_key(|&(key, _)| key);
    let mut per_job_count = vec![0usize; n_jobs];
    let mut selected = Vec::new();
    for &(key, tag) in &keys {
        let i = ((key >> 32) & 0xffff_ffff) as usize;
        let k = (key & 0xffff_ffff) as usize;
        if per_job_count[i] >= max_pairs_per_job || per_job_count[k] >= max_pairs_per_job {
            continue;
        }
        per_job_count[i] += 1;
        per_job_count[k] += 1;
        selected.push(tag);
    }
    selected
}

/// [`rank_and_cap`] over `cache`'s pair candidates as of its last
/// snapshot: the pairs that snapshot emitted, in the same order.
pub fn flat_selection(cache: &SnapshotCache, max_pairs_per_job: usize) -> Vec<(JobId, JobId)> {
    let pos: HashMap<JobId, u32> = cache
        .specs()
        .iter()
        .enumerate()
        .map(|(i, s)| (s.id, i as u32))
        .collect();
    rank_and_cap(
        cache
            .pair_candidates()
            .map(|(a, b, score)| (a, b, score, (a, b))),
        &pos,
        cache.len(),
        max_pairs_per_job,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gavel_core::{Combo, PolicyJob};
    use gavel_workloads::{JobConfig, JobSpec, Oracle, PairOptions};

    #[test]
    fn flat_selection_matches_snapshot_pairs() {
        let oracle = Oracle::new();
        let all = JobConfig::all();
        let opts = PairOptions {
            min_aggregate: 1.0,
            max_pairs_per_job: 2,
        };
        let mut cache = SnapshotCache::new(true, Some(opts));
        for i in 0..12u64 {
            let s = JobSpec {
                id: JobId(i),
                config: all[(i as usize * 5 + 1) % all.len()],
                scale_factor: 1,
            };
            cache.admit(&oracle, s, PolicyJob::simple(s.id, 100.0));
        }
        cache.remove(3);
        cache.remove(0);
        let (combos, _) = cache.snapshot(&oracle);
        let pairs: Vec<Combo> = combos
            .combos()
            .iter()
            .copied()
            .filter(|c| c.is_pair())
            .collect();
        assert!(!pairs.is_empty());
        let flat: Vec<Combo> = flat_selection(&cache, opts.max_pairs_per_job)
            .into_iter()
            .map(|(a, b)| Combo::pair(a, b))
            .collect();
        assert_eq!(pairs, flat);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "nonnegative finite")]
    fn rank_and_cap_rejects_negative_scores() {
        let pos: HashMap<JobId, u32> = [(JobId(0), 0u32), (JobId(1), 1u32)].into_iter().collect();
        // A negative score would silently sort *above* every positive one
        // under the bit complement; the debug assertion must catch it.
        rank_and_cap(
            std::iter::once((JobId(0), JobId(1), -1.0f64, 0usize)),
            &pos,
            2,
            8,
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "nonnegative finite")]
    fn rank_and_cap_rejects_nan_scores() {
        let pos: HashMap<JobId, u32> = [(JobId(0), 0u32), (JobId(1), 1u32)].into_iter().collect();
        rank_and_cap(
            std::iter::once((JobId(0), JobId(1), f64::NAN, 0usize)),
            &pos,
            2,
            8,
        );
    }
}
