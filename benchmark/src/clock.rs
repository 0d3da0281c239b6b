//! The benchmark's clock: CPU seconds consumed by this process.
//!
//! The benchmark runs on shared virtual machines where the hypervisor
//! periodically steals a large share of the CPU for minutes at a time,
//! which moves wall-clock timings by up to 2x between identical runs. The
//! kernel leaves stolen time out of a process's CPU clock, so CPU time
//! measures the work itself. The library runs with one worker thread
//! (see `main`), so the process CPU time of a call is also the latency
//! its caller sees, less any stolen time.

/// A started measurement.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(f64);

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch(cpu_seconds())
    }

    /// CPU seconds since `start`.
    pub fn seconds(&self) -> f64 {
        cpu_seconds() - self.0
    }
}

#[cfg(target_os = "linux")]
fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::ffi::c_long,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through a valid,
    // exclusively borrowed pointer; on Linux `time_t` and the nanosecond
    // field are both C `long`, which `Timespec` mirrors with `repr(C)`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Elsewhere the benchmark falls back to wall-clock time.
#[cfg(not(target_os = "linux"))]
fn cpu_seconds() -> f64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}
