//! The orchestrator: runs a workload's engine processes for the requested
//! time, checks every verdict and every count, and reduces the reports to
//! the benchmark's end-to-end and per-layer metrics.
//!
//! One repetition runs each of the workload's benchmarks once, each in a
//! fresh engine process. Repetitions follow each other until `--seconds`
//! have passed (at least one runs); with `--trace 1` one more, traced,
//! repetition follows. Times are medians over the untraced repetitions,
//! scaled to the reference host speed (see [`crate::calibrate`]).

use std::collections::BTreeMap;
use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use pins_prng::SplitMix64;
use pins_suite::{benchmark, BenchmarkId};
use pins_trace::HistSnapshot;

use crate::calibrate;
use crate::host;
use crate::layers;
use crate::report::{num, object, string, EngineReport};
use crate::stats::{geomean, median};
use crate::workload::Workload;

/// Where traced engine runs write their events, relative to the checkout.
pub const TRACE_DIR: &str = ".bench_trace";

/// The end-to-end metrics, with their units, in output order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("geomean_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "frac"),
];

/// A whole invocation must end well inside three minutes: engine processes
/// still running past this point are killed and count as failed.
const HARD_LIMIT: Duration = Duration::from_secs(170);

/// How often the orchestrator stops an untraced engine process to time one
/// calibration kernel pass and one set-up process.
const SAMPLE_EVERY: Duration = Duration::from_millis(400);

/// Set-up processes started just before each engine process. Set-up takes
/// well under a millisecond, and its time varies between processes by tens
/// of percent, for some benchmarks between two modes (In-place RL: about
/// 90 or 130 us), so it is timed in many fresh processes of its own and
/// averaged: a median would jump between the modes. One more set-up process
/// runs at every calibration pause, so that set-up, like the kernel, is
/// sampled over the whole run and not in one burst that the host's speed
/// of that moment decides.
const SETUP_BEFORE: usize = 8;

/// What to measure.
#[derive(Debug)]
pub struct Options {
    /// The workload.
    pub workload: &'static Workload,
    /// Seeds the round-trip inputs of every engine run.
    pub seed: u64,
    /// How long the untraced repetitions run, at least one.
    pub seconds: u64,
    /// Whether to add the traced repetition and report per-layer metrics.
    pub trace: bool,
}

/// One engine process as the orchestrator saw it.
#[derive(Debug)]
struct EngineRun {
    /// What the process reported.
    report: EngineReport,
    /// Mean seconds to build the session, over the set-up processes started
    /// for this engine process.
    setup_s: f64,
}

/// An engine run, or why there is none.
type EngineResult = Result<EngineRun, String>;

/// Everything a measurement produced.
#[derive(Debug)]
pub struct Measurement {
    workload: &'static Workload,
    /// The parallelism the OS granted the benchmark before any pinning.
    nproc: usize,
    /// The CPU every process of a single-threaded workload is bound to.
    cpu: Option<usize>,
    /// Untraced repetitions, each one result per benchmark.
    reps: Vec<Vec<EngineResult>>,
    /// The traced repetition, with `--trace 1`.
    traced: Option<Vec<EngineResult>>,
    /// Every calibration kernel time of the run, in seconds.
    kernel: Vec<f64>,
}

/// Runs the workload as `opts` asks.
///
/// # Errors
///
/// Fails when the benchmark cannot locate its own executable or create the
/// trace directory.
pub fn measure(opts: &Options) -> Result<Measurement, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let nproc = host::nproc();
    // one engine thread: run it and the calibration kernel on the same CPU,
    // so that the kernel times the CPU the engine runs on
    let cpu = if opts.workload.verify_workers == 1 {
        host::pin_to_one_cpu()
    } else {
        None
    };
    let start = Instant::now();
    let deadline = start + HARD_LIMIT;
    let mut rng = SplitMix64::new(opts.seed);
    let mut reps = Vec::new();
    let mut kernel = Vec::new();
    loop {
        reps.push(run_rep(
            &exe,
            opts.workload,
            &mut rng,
            None,
            deadline,
            &mut kernel,
        ));
        if start.elapsed() >= Duration::from_secs(opts.seconds) {
            break;
        }
    }
    if kernel.is_empty() {
        // engine processes too short to be sampled: time the host once
        kernel.push(calibrate::kernel_s(opts.workload.verify_workers));
    }
    let traced = if opts.trace {
        let dir = Path::new(TRACE_DIR).join(opts.workload.name);
        fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Some(run_rep(
            &exe,
            opts.workload,
            &mut rng,
            Some(&dir),
            deadline,
            &mut kernel,
        ))
    } else {
        None
    };
    Ok(Measurement {
        workload: opts.workload,
        nproc,
        cpu,
        reps,
        traced,
        kernel,
    })
}

/// One repetition: every benchmark of the workload once, in order. Untraced
/// engine processes are sampled for calibration (see [`run_engine`]); the
/// kernel times land in `kernel`.
fn run_rep(
    exe: &Path,
    w: &'static Workload,
    rng: &mut SplitMix64,
    trace_dir: Option<&Path>,
    deadline: Instant,
    kernel: &mut Vec<f64>,
) -> Vec<EngineResult> {
    w.benches
        .iter()
        .map(|&id| {
            let trace_out = trace_dir.map(|d| d.join(format!("{id:?}.jsonl")));
            let mut setup = (0..SETUP_BEFORE)
                .map(|_| time_setup(exe, id))
                .collect::<Result<Vec<f64>, String>>()?;
            let sample = trace_out.is_none().then_some((&mut *kernel, &mut setup));
            let report = run_engine(exe, w, id, rng.next_u64(), trace_out, deadline, sample)?;
            let setup_s = setup.iter().sum::<f64>() / setup.len() as f64;
            Ok(EngineRun { report, setup_s })
        })
        .collect()
}

/// The set-up time that one fresh set-up process reports for benchmark
/// `id`.
fn time_setup(exe: &Path, id: BenchmarkId) -> Result<f64, String> {
    let out = Command::new(exe)
        .args(["--setup", &format!("{id:?}")])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a set-up process: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up process failed: {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse::<f64>()
        .map_err(|e| format!("reading a set-up time: {e}"))
}

/// Runs one engine process and reads its report, killing it at `deadline`.
///
/// With `sample`, the process is stopped every [`SAMPLE_EVERY`] for one
/// calibration kernel pass and one set-up process, whose times are added to
/// the two vectors: so the kernel samples the host's speed evenly over the
/// engine's own time, and never runs next to it. The report's `run_s` then
/// leaves out the time the process stood stopped.
fn run_engine(
    exe: &Path,
    w: &Workload,
    id: BenchmarkId,
    check_seed: u64,
    trace_out: Option<PathBuf>,
    deadline: Instant,
    mut sample: Option<(&mut Vec<f64>, &mut Vec<f64>)>,
) -> Result<EngineReport, String> {
    if Instant::now() >= deadline {
        return Err("not started: the run's time limit has passed".to_string());
    }
    let mut cmd = Command::new(exe);
    cmd.args(["--engine", w.name, "--bench", &format!("{id:?}")])
        .args(["--check-seed", &check_seed.to_string()]);
    if let Some(path) = &trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("starting the engine process: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let (closed_tx, closed) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        let read = stdout.read_to_string(&mut out).map(|_| out);
        let _ = closed_tx.send(());
        read
    });
    // wait for the process to close its output, which it does on exit,
    // waking only to sample; (from, to) in Unix seconds while it stood
    // stopped
    let mut stopped: Vec<(f64, f64)> = Vec::new();
    let mut next_sample = Instant::now() + SAMPLE_EVERY;
    let in_time = loop {
        let now = Instant::now();
        if now >= deadline {
            let _ = child.kill();
            break false;
        }
        let wake = match sample {
            Some(_) => next_sample.min(deadline),
            None => deadline,
        };
        match closed.recv_timeout(wake - now) {
            Err(RecvTimeoutError::Timeout) => {}
            Ok(()) | Err(RecvTimeoutError::Disconnected) => break true,
        }
        if let Some((kernel, setup)) = sample.as_mut().filter(|_| Instant::now() >= next_sample) {
            let from = host::unix_s();
            host::stop(child.id());
            kernel.push(calibrate::kernel_s(w.verify_workers));
            let one = time_setup(exe, id);
            host::resume(child.id());
            stopped.push((from, host::unix_s()));
            match one {
                Ok(t) => setup.push(t),
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    let _ = reader.join();
                    return Err(e);
                }
            }
            next_sample = Instant::now() + SAMPLE_EVERY;
        }
    };
    let status = child.wait();
    let out = reader.join().expect("the output reader does not panic");
    if !in_time {
        return Err("killed at the run's time limit".to_string());
    }
    let status = status.map_err(|e| format!("waiting for the engine process: {e}"))?;
    if !status.success() {
        return Err(format!("engine process failed: {status}"));
    }
    let out = out.map_err(|e| format!("reading the engine's report: {e}"))?;
    let line = out.lines().last().ok_or("the engine printed no report")?;
    let mut report = EngineReport::from_json(line)?;
    let (start, end) = (report.start_unix_s, report.start_unix_s + report.run_s);
    let paused: f64 = stopped
        .iter()
        .map(|&(from, to)| (to.min(end) - from.max(start)).max(0.0))
        .sum();
    report.run_s -= paused;
    Ok(report)
}

impl Measurement {
    /// Every engine result, untraced and traced.
    fn all(&self) -> impl Iterator<Item = &EngineResult> {
        self.reps.iter().chain(&self.traced).flatten()
    }

    /// Engine runs attempted and how many of them failed the oracle,
    /// panicked or timed out.
    pub fn attempted_failed(&self) -> (usize, usize) {
        let attempted = self.all().count();
        let ok = self
            .all()
            .filter(|r| matches!(r, Ok(rep) if rep.report.ok))
            .count();
        (attempted, attempted - ok)
    }

    /// Why the measurement is not correct: failed runs, counts or
    /// configurations that differ between runs of the same benchmark, and
    /// a traced run that lost events.
    pub fn problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for (i, &id) in self.workload.benches.iter().enumerate() {
            let name = benchmark(id).name();
            let mut first: Option<&EngineRun> = None;
            for run in self.all_of(i) {
                match run {
                    Err(e) => problems.push(format!("{name}: {e}")),
                    Ok(r) if !r.report.ok => problems.push(format!("{name}: {}", r.report.verdict)),
                    Ok(r) => match first {
                        None => first = Some(r),
                        Some(f)
                            if f.report.config != r.report.config
                                || self.workload.exact_counts(&f.report.counts)
                                    != self.workload.exact_counts(&r.report.counts) =>
                        {
                            problems.push(format!(
                                "{name}: runs differ: {} {} vs {} {}",
                                f.report.config,
                                render_counts(&f.report.counts),
                                r.report.config,
                                render_counts(&r.report.counts)
                            ));
                        }
                        Some(_) => {}
                    },
                }
            }
        }
        let dropped = self
            .traced_sums()
            .get("trace.dropped")
            .copied()
            .unwrap_or(0.0);
        if dropped > 0.0 {
            problems.push(format!(
                "the traced run dropped {dropped} events, so its per-layer numbers do not count"
            ));
        }
        problems
    }

    /// The median over untraced repetitions of `f` summed over each
    /// repetition's successful reports.
    fn median_rep_sum(&self, f: impl Fn(&EngineRun) -> f64) -> f64 {
        let sums: Vec<f64> = self
            .reps
            .iter()
            .map(|rep| rep.iter().filter_map(|r| r.as_ref().ok()).map(&f).sum())
            .collect();
        median(&sums)
    }

    /// The median over the untraced repetitions of `f` applied to
    /// benchmark `i`'s report.
    fn bench_median(&self, i: usize, f: impl Fn(&EngineRun) -> f64) -> f64 {
        let values: Vec<f64> = self
            .reps
            .iter()
            .filter_map(|rep| rep[i].as_ref().ok())
            .map(f)
            .collect();
        median(&values)
    }

    /// The factors that turn this run's wall-clock and CPU seconds into
    /// seconds at the reference host speed. Wall-clock time includes the
    /// stalls when the host does not run the engine at all, and so does the
    /// mean of kernel passes spread evenly over the run; CPU time leaves
    /// them out, and so does the median, which a stalled pass barely moves.
    fn speed_factors(&self) -> (f64, f64) {
        let mean = self.kernel.iter().sum::<f64>() / self.kernel.len() as f64;
        (
            calibrate::REFERENCE_S / mean,
            calibrate::REFERENCE_S / median(&self.kernel),
        )
    }

    /// The end-to-end metrics, in [`END_TO_END`] order. Times are scaled to
    /// the reference host speed (wall-clock by the mean kernel pass, CPU
    /// time by the median) and are medians over
    /// repetitions of the repetition's total; `geomean_s` is the geometric
    /// mean of the per-benchmark medians; peak memory is the median over
    /// repetitions of the largest engine process.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let (wall, cpu) = self.speed_factors();
        let per_bench: Vec<f64> = (0..self.workload.benches.len())
            .map(|i| self.bench_median(i, |r| r.report.run_s))
            .collect();
        let peaks: Vec<f64> = self
            .reps
            .iter()
            .map(|rep| {
                rep.iter()
                    .filter_map(|r| r.as_ref().ok())
                    .map(|r| r.report.peak_rss_mib)
                    .fold(0.0, f64::max)
            })
            .collect();
        let (attempted, failed) = self.attempted_failed();
        let values = [
            self.median_rep_sum(|r| r.report.run_s) * wall,
            geomean(&per_bench) * wall,
            self.median_rep_sum(|r| r.report.cpu_s) * cpu,
            self.median_rep_sum(|r| r.setup_s) * wall,
            median(&peaks),
            (attempted - failed) as f64 / attempted as f64,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    }

    /// The traced repetition's per-layer sums over its benchmarks.
    fn traced_sums(&self) -> BTreeMap<String, f64> {
        let mut sums = BTreeMap::new();
        for r in self.traced.iter().flatten().filter_map(|r| r.as_ref().ok()) {
            for (k, v) in &r.report.layers {
                *sums.entry(k.clone()).or_insert(0.0) += v;
            }
        }
        sums
    }

    /// The per-layer metrics, in [`layers::PER_LAYER`] order (traced runs
    /// only).
    pub fn per_layer(&self) -> Vec<(&'static str, f64, &'static str)> {
        let traced: Vec<&EngineRun> = self
            .traced
            .iter()
            .flatten()
            .filter_map(|r| r.as_ref().ok())
            .collect();
        let mut hists: BTreeMap<String, HistSnapshot> = BTreeMap::new();
        for r in &traced {
            for (k, h) in &r.report.hists {
                hists
                    .entry(k.clone())
                    .or_insert_with(HistSnapshot::empty)
                    .merge(h);
            }
        }
        // raw seconds, like every per-layer time
        let traced_wall = traced.iter().map(|r| r.report.run_s).sum();
        let base_wall = self.median_rep_sum(|r| r.report.run_s);
        layers::derive(&self.traced_sums(), &hists, traced_wall, base_wall)
    }

    /// Prints the configuration stamp, one row per benchmark, the metrics
    /// by name with their units, and last the one-line JSON result.
    pub fn print(&self) {
        let w = self.workload;
        println!(
            "workload {}: {} untraced repetition(s){}",
            w.name,
            self.reps.len(),
            if self.traced.is_some() {
                " + 1 traced"
            } else {
                ""
            }
        );
        println!(
            "stamp: nproc={} pinned_cpu={} profile={} rev={}",
            self.nproc,
            self.cpu.map_or("none".to_string(), |c| c.to_string()),
            host::build_profile(),
            host::git_rev()
        );
        println!(
            "host: calibration kernel {:.3} ms, median of {} passes (mean {:.3} ms, reference {:.3} ms); \
             raw medians: wall {:.4} s, cpu {:.4} s, setup {:.6} s",
            median(&self.kernel) * 1e3,
            self.kernel.len(),
            self.kernel.iter().sum::<f64>() / self.kernel.len() as f64 * 1e3,
            calibrate::REFERENCE_S * 1e3,
            self.median_rep_sum(|r| r.report.run_s),
            self.median_rep_sum(|r| r.report.cpu_s),
            self.median_rep_sum(|r| r.setup_s),
        );
        for (i, &id) in w.benches.iter().enumerate() {
            let name = benchmark(id).name();
            match self.all_of(i).find_map(|r| r.as_ref().ok()) {
                Some(r) => {
                    println!(
                        "  {name:<14} {:>9.4} s  {}",
                        self.bench_median(i, |r| r.report.run_s),
                        r.report.verdict
                    );
                    println!("  {:<14} {}", "", r.report.config);
                    println!("  {:<14} {}", "", render_counts(&r.report.counts));
                    for key in self.workload.racy_counts() {
                        let seen: Vec<u64> = self
                            .all_of(i)
                            .filter_map(|r| r.as_ref().ok()?.report.counts.get(*key).copied())
                            .collect();
                        let (lo, hi) = (seen.iter().min(), seen.iter().max());
                        if let (Some(lo), Some(hi)) = (lo, hi) {
                            if lo != hi {
                                println!("  {:<14} {key} ranged {lo}..{hi} (timing-dependent)", "");
                            }
                        }
                    }
                }
                None => println!("  {name:<14} no report"),
            }
        }
        let problems = self.problems();
        for p in &problems {
            println!("problem: {p}");
        }
        let metrics = if self.traced.is_some() {
            self.per_layer()
        } else {
            self.end_to_end()
        };
        for (name, value, unit) in &metrics {
            println!("{name:<28} {value:>14.6} {unit}");
        }
        let (attempted, failed) = self.attempted_failed();
        let metrics = object(metrics.iter().map(|&(name, value, unit)| {
            let m = object([("value", num(value)), ("unit", string(unit))]);
            (name, m)
        }));
        println!(
            "{}",
            object([
                ("correct", problems.is_empty().to_string()),
                ("attempted", attempted.to_string()),
                ("failed", failed.to_string()),
                ("metrics", metrics),
            ])
        );
    }

    /// Every result of benchmark `i`, untraced then traced.
    fn all_of(&self, i: usize) -> impl Iterator<Item = &EngineResult> {
        self.reps.iter().chain(&self.traced).map(move |rep| &rep[i])
    }
}

/// Counts as `key=value` pairs.
fn render_counts(counts: &BTreeMap<String, u64>) -> String {
    let pairs: Vec<String> = counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
    pairs.join(" ")
}
