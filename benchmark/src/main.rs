//! The benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` it repeats the workload
//! for `--seconds` and prints the end-to-end metrics (medians over the
//! repeats, in reference seconds: see `reference`); with `--trace 1` it
//! splits the time between untraced and traced passes and prints the
//! per-layer metrics. Either way the last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. `--workload all` runs every workload in a fresh child
//! process in turn.

use gavel_benchmark::reference;
use gavel_benchmark::run::{pass, setup_seconds, Layers, Pass};
use gavel_benchmark::workload::{Scale, Workload};
use gavel_benchmark::{median, percentile};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up is repeated this many times after the first pass, so
/// `setup_s` is a median over enough samples to be stable.
const SETUP_REPEATS: usize = 101;
/// The reference kernel is timed after every this many set-ups.
const SETUP_KERNEL_EVERY: usize = 10;
/// Largest relative gap allowed between the summed per-command clocks
/// and the wall time of the `apply` loops in a traced pass.
const LAYER_SUM_TOLERANCE: f64 = 0.02;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    };
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("error: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    // One worker thread: process CPU time is then the latency a caller
    // sees (see `clock`), and on small shared hosts the thread fan-out
    // only adds noise. The sharded work itself is thread-count invariant
    // and still counted (`par.*`).
    let report = gavel_par::with_threads(1, || measure(workload, &args));
    println!("{}", report.json());
    ExitCode::SUCCESS
}

/// Runs each workload in a fresh child process (so `peak_rss_mb` is that
/// workload's alone), relaying its output.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        println!("== {}", w.name());
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinity; a metric that cannot be computed is
/// reported as `null` (and fails the run's checks).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Runs at least `min` passes of `workload`, and more while another one
/// is likely to end by `deadline`, if it takes as long as the one
/// before (`last` before the first).
fn passes(
    workload: Workload,
    seed: u64,
    deadline: Instant,
    traced: bool,
    mut last: Duration,
    min: usize,
) -> Vec<Pass> {
    let mut out = Vec::new();
    while out.len() < min || Instant::now() + last <= deadline {
        let t = Instant::now();
        out.push(pass(workload, Scale::Bench, seed, traced));
        last = t.elapsed();
    }
    out
}

fn measure(workload: Workload, args: &Args) -> Report {
    let start = Instant::now();
    let host = host_metadata();
    // The kernel's buffers are made on its first run, here, before the
    // workload allocates anything; they stay resident and are left out
    // of `peak_rss_mb`.
    let rss_before = proc_status_mb("VmRSS:");
    let mut setup_kernel = vec![reference::kernel_seconds()];
    let kernel_mb = proc_status_mb("VmRSS:") - rss_before;
    // Peak memory after one pass, before the set-up repeats and later
    // passes leave anything behind.
    let t = Instant::now();
    let first = pass(workload, Scale::Bench, args.seed, false);
    let first_s = t.elapsed();
    let peak_rss_mb = proc_status_mb("VmHWM:") - kernel_mb;

    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    for i in 1..=SETUP_REPEATS {
        setup.push(setup_seconds(workload, Scale::Bench, args.seed));
        if i % SETUP_KERNEL_EVERY == 0 {
            setup_kernel.push(reference::kernel_seconds());
        }
    }
    // Set-ups take microseconds to milliseconds, too short to pair each
    // with its own kernel sample; the median sample of the set-up phase
    // stands for all of them.
    let setup_factor = reference::NOMINAL_SECONDS / median(&setup_kernel);

    let end = start + Duration::from_secs_f64(args.seconds);
    // A traced run spends half of what is left untraced, half traced.
    let untraced_end = if args.trace {
        let now = Instant::now();
        now + end.saturating_duration_since(now) / 2
    } else {
        end
    };
    let plain: Vec<Pass> = std::iter::once(first)
        .chain(passes(workload, args.seed, untraced_end, false, first_s, 0))
        .collect();
    let traced = if args.trace {
        passes(workload, args.seed, end, true, first_s, 1)
    } else {
        Vec::new()
    };

    let first = &plain[0];
    let sim = &first.sim;
    let all: Vec<&Pass> = plain.iter().chain(&traced).collect();
    let mut checks: Vec<(&str, bool)> = vec![
        (
            "repeats give one result fingerprint",
            all.iter().all(|p| {
                p.result_fingerprint == first.result_fingerprint
                    && p.state_fingerprint == first.state_fingerprint
            }),
        ),
        (
            "every admitted job completes",
            sim.outcomes == first.jobs - first.cap_rejections && sim.completed == sim.outcomes,
        ),
        ("no policy fallbacks", sim.policy_failures == 0),
        ("no flat re-ranks", sim.flat_reranks == 0),
        ("no unexpected command errors", first.unexpected_errors == 0),
        (
            "recovered state equals live state",
            all.iter().all(|p| p.recovered_ok),
        ),
    ];
    for p in &traced {
        let l = p.layers.as_ref().expect("traced pass has layers");
        let clocks: f64 = p.cmd_s.iter().sum();
        checks.extend([
            ("replay equals live result", l.replay_ok),
            ("policy probe saw no failures", l.policy.failures == 0),
            ("no dense fallbacks", l.policy.solve.dense_fallbacks == 0),
            (
                "per-command clocks add up to the apply loops",
                (clocks - l.loop_s).abs() <= LAYER_SUM_TOLERANCE * l.loop_s,
            ),
        ]);
    }

    // Operations of one pass (every pass is identical, see the checks):
    // recomputes, commands and recoveries.
    let attempted = sim.recomputes + first.commands + sim.traces;
    let failed = sim.policy_failures + first.unexpected_errors + first.refused_recoveries;

    let metrics = if args.trace {
        layer_metrics(&plain, &traced, &host, &setup_kernel)
    } else {
        let decisions = aligned_medians(&plain, |p| &p.decisions);
        let requests = aligned_medians(&plain, |p| &p.request_s);
        let apply_s: f64 = aligned_medians(&plain, |p| &p.apply_s).iter().sum();
        vec![
            m("setup_s", median(&setup) * setup_factor, "s"),
            m(
                "wall_s",
                aligned_medians(&plain, |p| &p.wall_s).iter().sum(),
                "s",
            ),
            m("decision_p50_ms", percentile(&decisions, 50.0) * 1e3, "ms"),
            m("decision_p95_ms", percentile(&decisions, 95.0) * 1e3, "ms"),
            m("cmds_per_s", first.commands as f64 / apply_s, "1/s"),
            m("cmd_p99_us", percentile(&requests, 99.0) * 1e6, "us"),
            m(
                "recover_s",
                aligned_medians(&plain, |p| &p.recover_s).iter().sum(),
                "s",
            ),
            m("peak_rss_mb", peak_rss_mb, "MB"),
            m("sim_avg_jct_h", sim.avg_jct_h(), "h"),
            m("sim_makespan_h", sim.makespan_h(), "h"),
        ]
    };
    checks.push((
        "every metric is a finite number",
        metrics.iter().all(|x| x.value.is_finite()),
    ));

    println!(
        "workload {} seed {} trace {}: {} untraced + {} traced passes of {} traces, \
         {} jobs, {} commands, {} decisions per pass",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        plain.len(),
        traced.len(),
        sim.traces,
        first.jobs,
        first.commands,
        first.decisions.len(),
    );
    let per_pass = |f: &dyn Fn(&Pass) -> &[f64]| {
        plain
            .iter()
            .chain(&traced)
            .map(|p| f(p).iter().sum::<f64>())
            .collect::<Vec<_>>()
    };
    println!(
        "wall_s per pass, measured: {:?}",
        per_pass(&|p| &p.raw_wall_s)
    );
    println!("wall_s per pass, reference: {:?}", per_pass(&|p| &p.wall_s));
    println!(
        "reference kernel: median {:.3} ms over {} samples, buffers {:.3} MB",
        kernel_median_s(&all, &setup_kernel) * 1e3,
        all.iter().map(|p| p.kernel_s.len()).sum::<usize>() + setup_kernel.len(),
        kernel_mb
    );
    println!(
        "host: nproc {} gavel_threads {} commit {} source {} rustc {:?}",
        host.nproc, host.threads, host.commit, host.source, host.rustc
    );
    println!(
        "result fingerprint {:#018x}, attempted {attempted}, failed {failed}, \
         cap rejections {}",
        first.result_fingerprint, first.cap_rejections
    );
    for (name, ok) in &checks {
        if !ok {
            println!("CHECK FAILED: {name}");
        }
    }
    for x in &metrics {
        println!("  {:<32} {:>18.6} {}", x.name, x.value, x.unit);
    }
    Report {
        correct: checks.iter().all(|(_, ok)| *ok),
        attempted,
        failed,
        metrics,
    }
}

/// Element-wise medians over passes. Every pass of one seed makes the
/// same traces, commands and decisions (the fingerprint check holds them
/// to it), so sample `i` of each pass times the same work; taking its
/// median before any sum or percentile keeps a burst of host noise in
/// one pass out of the figures.
fn aligned_medians(passes: &[Pass], f: impl Fn(&Pass) -> &[f64]) -> Vec<f64> {
    let len = passes.iter().map(|p| f(p).len()).min().unwrap_or(0);
    (0..len)
        .map(|i| median(&passes.iter().map(|p| f(p)[i]).collect::<Vec<_>>()))
        .collect()
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Median CPU seconds of the reference kernel over every sample of a run.
fn kernel_median_s(passes: &[&Pass], setup_kernel: &[f64]) -> f64 {
    let samples: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.kernel_s.iter().copied())
        .chain(setup_kernel.iter().copied())
        .collect();
    median(&samples)
}

/// The per-layer breakdown: medians over the traced passes for timings,
/// the first traced pass for counts (identical in every pass). Layer
/// timings are measured seconds; `trace.wall_s` and
/// `trace.untraced_wall_s` are reference seconds, so host drift between
/// the two halves of the run stays out of the tracing overhead.
fn layer_metrics(
    plain: &[Pass],
    traced: &[Pass],
    host: &Host,
    setup_kernel: &[f64],
) -> Vec<Metric> {
    let l = |f: &dyn Fn(&Layers, &Pass) -> f64| {
        median(
            &traced
                .iter()
                .map(|p| f(p.layers.as_ref().expect("traced pass has layers"), p))
                .collect::<Vec<_>>(),
        )
    };
    let p0 = &traced[0];
    let l0 = p0.layers.as_ref().expect("traced pass has layers");
    let s = &p0.sim;
    let recomputes = s.recomputes.max(1) as f64;
    let untraced_wall: f64 = aligned_medians(plain, |p| &p.wall_s).iter().sum();
    let traced_wall: f64 = aligned_medians(traced, |p| &p.wall_s).iter().sum();
    vec![
        m("workloads.generate_s", l(&|l, _| l.generate_s), "s"),
        m("sim.compile_s", l(&|l, _| l.compile_s), "s"),
        m("service.loop_s", l(&|l, _| l.loop_s), "s"),
        m("service.submit_s", l(&|l, _| l.submit_s), "s"),
        m("service.advance_s", l(&|l, _| l.advance_s), "s"),
        m("service.query_s", l(&|l, _| l.query_s), "s"),
        m("service.into_result_s", l(&|l, _| l.into_result_s), "s"),
        m(
            "service.request_p50_us",
            percentile(&aligned_medians(traced, |p| &p.request_s), 50.0) * 1e6,
            "us",
        ),
        m("service.rounds", s.rounds as f64, "count"),
        m("service.recomputes", s.recomputes as f64, "count"),
        m(
            "service.round_us",
            l(&|l, p| (l.advance_s - p.sim.policy_solve_s) / p.sim.rounds.max(1) as f64) * 1e6,
            "us",
        ),
        m(
            "snapshot.s",
            l(&|l, p| p.sim.policy_solve_s - l.policy.seconds),
            "s",
        ),
        m(
            "snapshot.us_per_recompute",
            l(&|l, p| (p.sim.policy_solve_s - l.policy.seconds) / recomputes) * 1e6,
            "us",
        ),
        m("snapshot.pair_evals", s.pair_evals as f64, "count"),
        m("snapshot.buckets_walked", s.buckets_walked as f64, "count"),
        m(
            "snapshot.candidates_sorted",
            s.candidates_sorted as f64,
            "count",
        ),
        m(
            "snapshot.pair_rows_materialized",
            s.pair_rows_materialized as f64,
            "count",
        ),
        m("snapshot.flat_reranks", s.flat_reranks as f64, "count"),
        m("policies.s", l(&|l, _| l.policy.seconds), "s"),
        m("policies.calls", l0.policy.calls as f64, "count"),
        m("policies.max_jobs", l0.policy.max_jobs as f64, "count"),
        m("policies.max_combos", l0.policy.max_combos as f64, "count"),
        m("policies.failures", l0.policy.failures as f64, "count"),
        m(
            "solver.pivots",
            l0.policy.solve.total_pivots() as f64,
            "count",
        ),
        m(
            "solver.dual_pivots",
            l0.policy.solve.dual_pivots as f64,
            "count",
        ),
        m(
            "solver.bound_flips",
            l0.policy.solve.bound_flips as f64,
            "count",
        ),
        m(
            "solver.warm_hits",
            l0.policy.solve.warm_hits as f64,
            "count",
        ),
        m(
            "solver.warm_fallbacks",
            l0.policy.solve.warm_falls_back as f64,
            "count",
        ),
        m(
            "solver.dense_fallbacks",
            l0.policy.solve.dense_fallbacks as f64,
            "count",
        ),
        m(
            "par.parallel_probes",
            l0.policy.solve.parallel_probes as f64,
            "count",
        ),
        m("par.shards", l0.policy.solve.shards as f64, "count"),
        m("par.threads", host.threads as f64, "count"),
        m("wal.appends", l0.wal.writes as f64, "count"),
        m("wal.bytes", l0.wal.bytes as f64, "B"),
        m("wal.resets", l0.wal.resets as f64, "count"),
        m("wal.s", l(&|l, _| l.wal.seconds), "s"),
        m("checkpoint.saves", l0.checkpoint.writes as f64, "count"),
        m("checkpoint.bytes_total", l0.checkpoint.bytes as f64, "B"),
        m("checkpoint.save_s", l(&|l, _| l.checkpoint.seconds), "s"),
        m("checkpoint.apply_s", l(&|l, _| l.checkpoint_apply_s), "s"),
        m("recovery.parse_s", l(&|l, _| l.parse_s), "s"),
        m(
            "recovery.replay_s",
            l(&|l, p| p.raw_recover_s.iter().sum::<f64>() - l.parse_s),
            "s",
        ),
        m("recovery.prefix_cmds", l0.prefix_cmds as f64, "count"),
        m("recovery.wal_cmds", l0.wal_cmds as f64, "count"),
        m(
            "durable.overhead_s",
            l(&|l, p| {
                if l.plain_apply_s > 0.0 {
                    p.raw_apply_s.iter().sum::<f64>() - l.plain_apply_s
                } else {
                    0.0
                }
            }),
            "s",
        ),
        m(
            "durable.wal_plus_checkpoint_s",
            l(&|l, _| l.wal.seconds + l.checkpoint_apply_s),
            "s",
        ),
        m("trace.wall_s", traced_wall, "s"),
        m("trace.untraced_wall_s", untraced_wall, "s"),
        m("trace.overhead_s", traced_wall - untraced_wall, "s"),
        m(
            "trace.unclocked_s",
            l(&|l, p| l.loop_s - p.cmd_s.iter().sum::<f64>()),
            "s",
        ),
        m("host.nproc", host.nproc as f64, "count"),
        m(
            "host.kernel_ms",
            kernel_median_s(
                &plain.iter().chain(traced).collect::<Vec<_>>(),
                setup_kernel,
            ) * 1e3,
            "ms",
        ),
        m("host.samples", traced.len() as f64, "count"),
    ]
}

struct Host {
    nproc: usize,
    threads: usize,
    commit: String,
    source: String,
    rustc: String,
}

fn host_metadata() -> Host {
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        threads: gavel_par::gavel_threads(),
        commit: run("git", &["rev-parse", "--short=12", "HEAD"]),
        source: source_hash(),
        rustc: run("rustc", &["--version"]),
    }
}

/// FNV-1a over every file under `crates/` (path and contents, in sorted
/// order): identifies the measured code where no git commit is at hand.
fn source_hash() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    if files.is_empty() {
        return "unknown".into();
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// A memory figure of this process from `/proc/self/status`, such as
/// `VmHWM:` (peak resident set), in MB.
fn proc_status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
