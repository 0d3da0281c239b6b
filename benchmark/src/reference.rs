//! A fixed reference kernel that gauges how fast the host runs right now.
//!
//! On the shared virtual machines the benchmark runs on, the speed of the
//! same code drifts by up to 1.7x over minutes as co-tenants come and go,
//! even on the process CPU clock (see `clock`). The drift is not in the
//! code under test, so the benchmark runs this kernel, which uses nothing
//! from the repository, beside every trace it times. The end-to-end
//! timings are then reported in reference seconds:
//!
//! ```text
//! reference seconds = measured seconds × NOMINAL_SECONDS / kernel seconds
//! ```
//!
//! where the kernel seconds are those measured next to the timed work.
//! A change to the scheduler moves the measured seconds and leaves the
//! kernel alone; host drift moves both. The kernel mixes the kinds of work
//! the workloads do: sorting, hashing, dense floating point and text
//! formatting.

use crate::clock::Stopwatch;
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Write;
use std::hash::BuildHasherDefault;
use std::hint::black_box;

/// The kernel's CPU seconds on a quiet development host (2-vCPU VM,
/// Intel Xeon at 2.0 GHz). On such a host reference seconds read about
/// as measured seconds.
pub const NOMINAL_SECONDS: f64 = 0.008;

/// Speed factor of work timed between two kernel samples: multiply its
/// measured seconds by this to get reference seconds.
pub fn factor(before: f64, after: f64) -> f64 {
    NOMINAL_SECONDS / ((before + after) / 2.0)
}

/// Runs the kernel once and returns its CPU seconds.
pub fn kernel_seconds() -> f64 {
    SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let scratch = scratch.get_or_insert_with(Scratch::new);
        let t = Stopwatch::start();
        black_box(kernel(scratch));
        t.seconds()
    })
}

thread_local! {
    /// The kernel's buffers, made on its first run and kept: the kernel
    /// then allocates nothing, so it leaves the allocator as the timed
    /// work left it, and it adds a fixed amount to the resident set.
    static SCRATCH: RefCell<Option<Scratch>> = const { RefCell::new(None) };
}

const SORT_LEN: usize = 32_768;
const HASH_KEYS: u64 = 20_000;
const N: usize = 256;
const TEXT_ITEMS: u64 = 20_000;

struct Scratch {
    sorted: Vec<u64>,
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    matrix: Vec<f64>,
    v: Vec<f64>,
    w: Vec<f64>,
    text: String,
}

impl Scratch {
    fn new() -> Scratch {
        let mut s = Scratch {
            sorted: Vec::with_capacity(SORT_LEN),
            map: HashMap::with_capacity_and_hasher(HASH_KEYS as usize, Default::default()),
            matrix: (0..N * N).map(|i| (i % 97) as f64 * 0.01).collect(),
            v: vec![0.0; N],
            w: vec![0.0; N],
            text: String::new(),
        };
        // One run sizes the text buffer; later runs fit in it.
        kernel(&mut s);
        s
    }
}

fn next(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *x >> 11
}

/// About 8 ms of fixed work on a quiet host. The hash map uses fixed
/// hasher keys, so every run does the same work.
fn kernel(s: &mut Scratch) -> u64 {
    let mut x = 0x5eed_u64;
    let mut acc = 0u64;

    for _ in 0..4 {
        s.sorted.clear();
        s.sorted.extend((0..SORT_LEN).map(|_| next(&mut x)));
        s.sorted.sort_unstable();
        acc ^= black_box(&s.sorted)[SORT_LEN / 2];
    }

    s.map.clear();
    for i in 0..40_000u64 {
        *s.map.entry(next(&mut x) % HASH_KEYS).or_insert(0) += i;
    }
    acc ^= black_box(&s.map).len() as u64;

    s.v.fill(1.0);
    for _ in 0..40 {
        for (w, row) in s.w.iter_mut().zip(s.matrix.chunks_exact(N)) {
            *w = row.iter().zip(&s.v).map(|(p, q)| p * q).sum::<f64>() * 1e-3;
        }
        std::mem::swap(&mut s.v, &mut s.w);
    }
    acc ^= black_box(&s.v)[0].to_bits();

    s.text.clear();
    for i in 0..TEXT_ITEMS {
        let _ = write!(s.text, "{} {:?};", next(&mut x), i as f64 * 0.37);
    }
    acc ^ black_box(&s.text).len() as u64
}
