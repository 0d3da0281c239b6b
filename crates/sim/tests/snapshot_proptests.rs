//! Property tests: the incremental snapshot is row-for-row identical to a
//! fresh tensor build under arbitrary admit/complete interleavings — and,
//! in bridged mode, under arbitrary admit/complete/refine interleavings
//! against a live estimator, including refine bursts that dirty every
//! resident job. The fresh builders are implemented independently of the
//! cache's bucketed store, so each step checks the selection too.

use gavel_core::{JobId, PolicyJob};
use gavel_estimator::EstimatorConfig;
use gavel_sim::{EstimatorBridge, SnapshotCache};
use gavel_workloads::{
    build_singleton_tensor, build_tensor_with_pairs, build_tensor_with_pairs_by, GpuKind,
    JobConfig, JobSpec, Oracle, PairOptions,
};
use proptest::prelude::*;

/// Applies one op sequence to the cache while mirroring it on a plain
/// spec vector, checking snapshot == fresh build after every step.
///
/// `ops` drives the interleaving: an op admits a new job when `admit` is
/// true (or the pool is empty), otherwise completes the resident job at
/// `pick % len` — exercising `swap_remove` reordering, which is what the
/// pair-candidate re-ranking has to survive.
fn run_sequence(ops: &[(bool, usize, usize, usize)], opts: Option<PairOptions>) {
    let oracle = Oracle::new();
    let all = JobConfig::all();
    let mut cache = SnapshotCache::new(true, opts);
    let mut specs: Vec<JobSpec> = Vec::new();
    let mut next_id = 0u64;
    for &(admit, pick, cfg_idx, sf_sel) in ops {
        if admit || specs.is_empty() {
            let spec = JobSpec {
                id: JobId(next_id),
                config: all[cfg_idx % all.len()],
                // Mostly single-worker jobs (pairable), some distributed.
                scale_factor: if sf_sel % 4 == 0 { 2 } else { 1 },
            };
            next_id += 1;
            cache.admit(&oracle, spec, PolicyJob::simple(spec.id, 1000.0));
            specs.push(spec);
        } else {
            let i = pick % specs.len();
            cache.remove(i);
            specs.swap_remove(i);
        }
        let (combos, tensor) = cache.snapshot(&oracle);
        let (fresh_combos, fresh_tensor) = match opts {
            Some(o) => build_tensor_with_pairs(&oracle, &specs, true, &o),
            None => build_singleton_tensor(&oracle, &specs, true),
        };
        assert_eq!(
            combos.combos(),
            fresh_combos.combos(),
            "combo rows diverge after {} ops",
            specs.len()
        );
        assert_eq!(tensor.num_rows(), fresh_tensor.num_rows());
        for k in 0..tensor.num_rows() {
            assert_eq!(tensor.row(k), fresh_tensor.row(k), "row {k} diverges");
        }
    }
    assert_eq!(cache.stats().bridged_snapshots, 0);
}

/// Bridged-mode interleavings: admits (registered with the estimator or
/// not), completions (with estimator forget), and `observe` bursts that
/// refine anywhere from one pair up to every resident job. After every
/// op the bridged snapshot must be row-for-row bitwise identical to a
/// fresh estimator-driven rebuild at the same estimator state.
fn run_bridged_sequence(ops: &[(usize, usize, usize, usize)], opts: PairOptions, seed: u64) {
    let oracle = Oracle::new();
    let all = JobConfig::all();
    let mut bridge = EstimatorBridge::new(&oracle, EstimatorConfig::default(), seed);
    let mut cache = SnapshotCache::new_bridged(true, opts);
    let mut specs: Vec<JobSpec> = Vec::new();
    let mut next_id = 0u64;
    let mut snapshots = 0usize;
    for &(kind, pick, cfg_idx, extra) in ops {
        match kind % 4 {
            // Admit (half the op space), registering most jobs with the
            // estimator; unregistered jobs ride the static class path.
            0 | 3 => {
                let spec = JobSpec {
                    id: JobId(next_id),
                    config: all[cfg_idx % all.len()],
                    scale_factor: if extra % 5 == 0 { 2 } else { 1 },
                };
                next_id += 1;
                if extra % 4 != 1 {
                    bridge.register(&oracle, spec.id, spec.config);
                }
                cache.admit(&oracle, spec, PolicyJob::simple(spec.id, 1000.0));
                specs.push(spec);
            }
            // Complete: swap-remove churn plus estimator forget.
            1 if !specs.is_empty() => {
                let i = pick % specs.len();
                let id = specs[i].id;
                cache.remove(i);
                specs.swap_remove(i);
                bridge.forget(id);
            }
            // Observe burst: refine 1..=len colocated pairs, dirtying up
            // to every resident job.
            2 if specs.len() >= 2 => {
                let burst = extra % specs.len() + 1;
                for k in 0..burst {
                    let i = (pick + k) % specs.len();
                    let j = (i + 1) % specs.len();
                    let (a, b) = (specs[i], specs[j]);
                    bridge.observe(&oracle, (a.id, a.config), (b.id, b.config), GpuKind::V100);
                }
            }
            _ => continue,
        }
        let (combos, tensor) = cache.snapshot_bridged(&oracle, &bridge);
        snapshots += 1;
        let (fresh_combos, fresh_tensor) =
            build_tensor_with_pairs_by(&oracle, &specs, true, &opts, |x, y, g| {
                bridge.pair_throughput(&oracle, (x.id, x.config), (y.id, y.config), g)
            });
        assert_eq!(
            combos.combos(),
            fresh_combos.combos(),
            "bridged combo rows diverge at {} jobs",
            specs.len()
        );
        assert_eq!(tensor.num_rows(), fresh_tensor.num_rows());
        for k in 0..tensor.num_rows() {
            assert_eq!(
                tensor.row(k),
                fresh_tensor.row(k),
                "bridged row {k} diverges"
            );
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.bridged_snapshots, snapshots);
    assert_eq!(stats.incremental_snapshots, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn incremental_equals_fresh_with_pairs(
        ops in prop::collection::vec((any::<bool>(), 0usize..64, 0usize..64, 0usize..16), 1..40),
        min_aggregate in 1.0f64..1.6,
        max_pairs in 1usize..6,
    ) {
        run_sequence(&ops, Some(PairOptions { min_aggregate, max_pairs_per_job: max_pairs }));
    }

    #[test]
    fn incremental_equals_fresh_singletons(
        ops in prop::collection::vec((any::<bool>(), 0usize..64, 0usize..64, 0usize..16), 1..40),
    ) {
        run_sequence(&ops, None);
    }

    #[test]
    fn bridged_equals_fresh_under_drift(
        ops in prop::collection::vec((0usize..4, 0usize..64, 0usize..64, 0usize..16), 1..30),
        min_aggregate in 1.0f64..1.5,
        max_pairs in 1usize..6,
        seed in 0u64..1024,
    ) {
        run_bridged_sequence(
            &ops,
            PairOptions { min_aggregate, max_pairs_per_job: max_pairs },
            seed,
        );
    }
}
