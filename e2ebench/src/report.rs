//! Metric names, sample statistics, result fingerprints and the report
//! printer shared by every workload.

use crate::Args;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;
use valign_pipeline::{Bucket, StallBreakdown, WordHash};

/// End-to-end metrics (`--trace 0`), with units. Every workload reports
/// all of them; `README.md` gives each one's meaning per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mips", "MIPS"),
    ("ready_s", "s"),
    ("jobs_per_s", "1/s"),
    ("submit_p50_ms", "ms"),
    ("submit_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload does
/// not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.trace_s", "s"),
    ("workload.instructions", "count"),
    ("image.build_s", "s"),
    ("image.bytes", "B"),
    ("engine.warmup_s", "s"),
    ("engine.measured_s", "s"),
    ("engine.replays", "count"),
    ("store.save_s", "s"),
    ("store.encode_s", "s"),
    ("store.load_s", "s"),
    ("store.decode_mb_per_s", "MiB/s"),
    ("store.memcpy_mb_per_s", "MiB/s"),
    ("store.bytes", "B"),
    ("sim.memory_hit_ratio", "ratio"),
    ("sim.disk_hit_ratio", "ratio"),
    ("experiments.render_s", "s"),
    ("protocol.render_s", "s"),
    ("serve.admit_p50_ms", "ms"),
    ("serve.admit_p99_ms", "ms"),
    ("serve.card_p50_ms", "ms"),
    ("serve.card_p99_ms", "ms"),
    ("journal.fsyncs_per_job", "count"),
    ("journal.compactions", "count"),
    ("serve.dedup_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
];

/// Lowest share of the traced wall time the per-layer spans must cover.
pub const MIN_COVERAGE: f64 = 0.9;

/// Domain-separation seed of result fingerprints.
const FINGERPRINT_SEED: u64 = 0x6532_6562_656e_6368;

/// A workload's outcome: operation counts, metric values and notes.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    values: BTreeMap<&'static str, (f64, String)>,
    notes: Vec<String>,
}

impl Report {
    /// Records a metric value with a note on how it was taken (sample
    /// count, statistic).
    pub fn set(&mut self, name: &'static str, value: f64, how: impl Into<String>) {
        self.values.insert(name, (value, how.into()));
    }

    /// Counts one checked operation (a job, a submit or a correctness
    /// check); a failed one is noted with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
        ok
    }

    /// Adds a line to the human-readable report.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Prints the human-readable report and, when every expected metric
    /// is present, the closing JSON line. Returns the exit code: 0 only
    /// when every check passed.
    pub fn print(&self, args: &Args) -> i32 {
        let expected = if args.trace { PER_LAYER } else { END_TO_END };
        println!(
            "e2ebench {} seed={} seconds={} trace={} threads={}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            crate::THREADS
        );
        for note in &self.notes {
            println!("  {note}");
        }
        let mut missing = Vec::new();
        let mut json = String::new();
        for &(name, unit) in expected {
            match self.values.get(name) {
                Some((value, how)) if value.is_finite() => {
                    println!("  {name:<24} {value:>14.6} {unit:<6} {how}");
                    if !json.is_empty() {
                        json.push_str(", ");
                    }
                    let _ = write!(
                        json,
                        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                    );
                }
                _ => missing.push(name),
            }
        }
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  {:<24} {ratio:>14.6} {:<6} {} failed of {} attempted",
            "failed_ratio", "ratio", self.failed, self.attempted
        );
        if !missing.is_empty() || self.attempted == 0 {
            eprintln!("error: no result: missing metrics {missing:?} or nothing attempted");
            return 1;
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        i32::from(self.failed != 0)
    }
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Median of `v` (0 for no samples).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Nearest-rank `p`-th percentile of `v` (0 for no samples).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Describes a median over `n` samples.
pub fn median_of(n: usize) -> String {
    format!("median of {n}")
}

/// Order-sensitive fingerprint of simulated results: cycles and every
/// attribution bucket per job, plus whatever labels the caller absorbs.
pub struct Fingerprint(WordHash);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(WordHash::new(FINGERPRINT_SEED))
    }
}

impl Fingerprint {
    /// Absorbs a label.
    pub fn label(&mut self, text: &str) {
        self.0.write_bytes(text.as_bytes());
    }

    /// Absorbs one job's cycles and attribution.
    pub fn result(&mut self, cycles: u64, breakdown: &StallBreakdown) {
        self.0.write_u64(cycles);
        for bucket in Bucket::ALL {
            self.0.write_u64(breakdown.get(bucket));
        }
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}
