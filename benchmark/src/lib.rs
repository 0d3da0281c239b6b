//! End-to-end benchmark of the Gavel scheduler service.
//!
//! Four seeded workloads drive the public `SchedulerService` /
//! `DurableService` API from one process. The per-layer breakdown is taken
//! from outside: transparent probes around the public `Policy`,
//! `LogSink` and `CheckpointStore` traits, clocks around public calls, and
//! the counters the API already returns. See `NOTES.md` for why each
//! workload exists and which layer should move which metric.

pub mod clock;
pub mod probe;
pub mod reference;
pub mod run;
pub mod workload;

/// Linear-interpolated percentile (`q` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = q / 100.0 * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}
