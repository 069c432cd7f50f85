//! `e2ebench` — the end-to-end and per-layer benchmark of valign.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload cold-matrix|warm-store|serve-mixed \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. Each workload builds its inputs from
//! `--seed`, repeats its unit of work until `--seconds` of measurement
//! have elapsed, checks every simulated result, and prints a
//! human-readable report followed by one JSON line. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` reports the per-layer metrics,
//! timed from outside by wrapping calls into each layer's public
//! functions. Scratch files live under `.bench_work/` in the current
//! directory and are removed before exit. See `README.md` beside this
//! crate for the workloads, the metric map and how to read a traced run.

mod matrix;
mod report;
mod serve;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The default workload seed (the paper's conference date).
const DEFAULT_SEED: u64 = 20_070_425;

/// Worker (or client) threads every workload uses: the benchmark host
/// has two cores.
pub const THREADS: usize = 2;

const USAGE: &str = "usage: e2ebench --workload cold-matrix|warm-store|serve-mixed \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds must be a positive number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !matches!(
        args.workload.as_str(),
        "cold-matrix" | "warm-store" | "serve-mixed"
    ) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    Ok(args)
}

fn main() {
    // Internal mode: `warm-store` packs its store in a child process, so
    // the packing footprint stays out of the restart's peak RSS.
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some(matrix::PACK_FLAG) {
        std::process::exit(matrix::pack_child(&argv[2..]));
    }
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let result = WorkDir::create(&args.workload).and_then(|work| {
        let report = match args.workload.as_str() {
            "cold-matrix" => matrix::cold(&args),
            "warm-store" => matrix::warm(&args, &work),
            _ => serve::run(&args, &work),
        };
        work.remove();
        report
    });
    match result {
        Ok(report) => std::process::exit(report.print(&args)),
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

/// This process's scratch directory, `.bench_work/<workload>-<pid>`.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> Result<WorkDir, String> {
        let dir = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// A fresh (removed if present) path under the scratch directory.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let path = self.0.join(name);
        let _ = std::fs::remove_dir_all(&path);
        path
    }

    fn remove(self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the parent only when no other run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Maps `f` over `items` on [`THREADS`] scoped workers, returning results
/// in input order.
pub fn par_map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS.min(slots.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = slots.get(i) else { break };
                        let item = slot
                            .lock()
                            .expect("a slot lock is never held across a panic")
                            .take()
                            .expect("each slot is claimed once");
                        done.push((i, f(item)));
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("benchmark worker panicked"))
            .collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Runs `f`, returning its value and wall time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed())
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
