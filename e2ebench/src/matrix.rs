//! The two matrix workloads: `cold-matrix` (the full paper evaluation from
//! an empty memory-only store) and `warm-store` (a restart on a packed
//! store running the Table II batch).
//!
//! Untraced, a unit is timed as a whole through `valign-core`'s own
//! drivers. Traced, the same work is re-enacted one layer at a time —
//! trace, build (or load), warm-up replay, measured replay, rendering —
//! each layer a phase on [`THREADS`] workers timed from outside, so the
//! phase times add up to the traced wall time. Every re-enacted result
//! must be bit-identical to the untraced unit's.

use crate::report::{median, median_of, percentile, secs, Fingerprint, Report, MIN_COVERAGE};
use crate::{par_map, peak_rss_mb, timed, Args, WorkDir, THREADS};
use std::path::Path;
use std::time::{Duration, Instant};
use valign_cache::RealignConfig;
use valign_core::experiments::{fig10, fig4, fig8, fig9, table1, table2, table3};
use valign_core::sim::TraceStoreStats;
use valign_core::store_ops::{matrix_keys, pack};
use valign_core::{
    trace_kernel, KernelId, PreparedTrace, SimContext, SimJob, TraceKey, TraceStore,
};
use valign_kernels::util::Variant;
use valign_pipeline::{PipelineConfig, ReplayImage, SimResult, Simulator};
use valign_store::{decode_file, encode_file, StoreDir};

/// Kernel executions per trace: the `valign all` / `valign run` default.
pub const EXECS: usize = 200;
/// Fig. 10 prices its kernels at half the executions, as `valign all`
/// does.
const FIG10_EXECS: usize = EXECS / 2;
/// Fig. 4 plans one frame per 50 executions, as `valign all` does.
const FIG4_FRAMES: u32 = (EXECS / 50) as u32;
/// Fig. 10 composes the decoder over this many planned frames.
const FIG10_FRAMES: u32 = 2;
/// Fig. 10's cost kernels, by label, in the driver's order.
const COST_KERNELS: [&str; 7] = [
    "luma16x16",
    "luma8x8",
    "luma4x4",
    "chroma8x8",
    "chroma4x4",
    "idct4x4",
    "idct8x8",
];
/// `SimContext::new` set-up samples per `cold-matrix` unit, and the
/// creations each sample averages over.
const SETUP_SAMPLES: usize = 16;
const SETUP_BATCH: usize = 1000;
/// Packs per `warm-store` run; `setup_s` is their median.
const PACKS: usize = 3;
/// First argument of the internal child mode that packs a store.
pub const PACK_FLAG: &str = "--internal-pack";

/// One keyed replay of the evaluation: a key index and a machine.
struct PlanJob {
    key: usize,
    cfg: PipelineConfig,
}

/// The keyed replays of `valign all`, in the figure drivers' batch order:
/// Fig. 8, then Fig. 9, then the Fig. 10 cost kernels. (Fig. 10's one
/// CABAC replay uses an ad-hoc trace and is left out.)
struct Plan {
    keys: Vec<TraceKey>,
    jobs: Vec<PlanJob>,
    fig8: usize,
    fig9: usize,
}

impl Plan {
    fn new(seed: u64) -> Plan {
        let mut keys = matrix_keys(EXECS, seed);
        let mut key = |kernel, variant, execs| {
            let key = TraceKey {
                kernel,
                variant,
                execs,
                seed,
            };
            keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                keys.push(key);
                keys.len() - 1
            })
        };
        let mut jobs = Vec::new();
        for &kernel in KernelId::ALL {
            for cfg in table_ii() {
                for &variant in Variant::ALL {
                    jobs.push(PlanJob {
                        key: key(kernel, variant, EXECS),
                        cfg: cfg.clone(),
                    });
                }
            }
        }
        let fig8 = jobs.len();
        for kernel in fig9::fig9_kernels().into_iter().flat_map(|(_, ks)| ks) {
            jobs.push(PlanJob {
                key: key(kernel, Variant::Altivec, EXECS),
                cfg: PipelineConfig::four_way().with_realign(RealignConfig::equal_latency()),
            });
            for extra in fig9::EXTRA_CYCLES {
                jobs.push(PlanJob {
                    key: key(kernel, Variant::Unaligned, EXECS),
                    cfg: PipelineConfig::four_way().with_realign(RealignConfig::extra(extra)),
                });
            }
        }
        let fig9 = jobs.len() - fig8;
        for &variant in Variant::ALL {
            for label in COST_KERNELS {
                let kernel = KernelId::from_label(label).expect("cost kernel labels are valid");
                jobs.push(PlanJob {
                    key: key(kernel, variant, FIG10_EXECS),
                    cfg: PipelineConfig::four_way().with_realign(RealignConfig::proposed()),
                });
            }
        }
        Plan {
            keys,
            jobs,
            fig8,
            fig9,
        }
    }

    /// Simulated instructions the keyed replays retire (warm-up plus
    /// measured pass), given each key's trace length.
    fn replayed_instructions(&self, len: impl Fn(&TraceKey) -> usize) -> u64 {
        self.jobs
            .iter()
            .map(|j| 2 * len(&self.keys[j.key]) as u64)
            .sum()
    }
}

/// The Table II machines with unaligned accesses at aligned latency, as
/// Fig. 8 and `valign run` use them.
fn table_ii() -> Vec<PipelineConfig> {
    PipelineConfig::table_ii()
        .into_iter()
        .map(|cfg| cfg.with_realign(RealignConfig::equal_latency()))
        .collect()
}

/// Materializes `keys` into `store` on [`THREADS`] workers.
fn materialize(store: &TraceStore, keys: &[TraceKey]) {
    par_map(keys.to_vec(), |key| {
        let _ = store.prepared(key);
    });
}

/// Replays each `(image, machine)` pair as two timed phases — every
/// warm-up pass, then every measured pass — on [`THREADS`] workers.
fn replay_phases(
    jobs: Vec<(&ReplayImage, PipelineConfig)>,
) -> (Vec<SimResult>, Duration, Duration) {
    let (warm, warmup) = timed(|| {
        par_map(jobs, |(image, cfg)| {
            let mut sim = Simulator::new(cfg);
            let _ = sim.run_image(image);
            (sim, image)
        })
    });
    let (results, measured) = timed(|| par_map(warm, |(mut sim, image)| sim.run_image(image)));
    (results, warmup, measured)
}

/// Per-layer times of one traced unit, in seconds.
#[derive(Default)]
struct Layers {
    trace: f64,
    build: f64,
    load: f64,
    warmup: f64,
    measured: f64,
    render: f64,
    wall: f64,
}

impl Layers {
    fn coverage(&self) -> f64 {
        (self.trace + self.build + self.load + self.warmup + self.measured + self.render)
            / self.wall
    }
}

/// Collects per-layer samples across traced units and reports medians.
#[derive(Default)]
struct LayerSamples {
    units: Vec<Layers>,
    untraced_walls: Vec<f64>,
}

impl LayerSamples {
    fn median(&self, f: impl Fn(&Layers) -> f64) -> f64 {
        median(&self.units.iter().map(f).collect::<Vec<_>>())
    }

    /// Sets every timing metric, the coverage self-check and the tracing
    /// overhead.
    fn report(&self, r: &mut Report) {
        let n = self.units.len();
        let how = || median_of(n);
        r.set("workload.trace_s", self.median(|l| l.trace), how());
        r.set("image.build_s", self.median(|l| l.build), how());
        r.set("store.load_s", self.median(|l| l.load), how());
        r.set("engine.warmup_s", self.median(|l| l.warmup), how());
        r.set("engine.measured_s", self.median(|l| l.measured), how());
        r.set("experiments.render_s", self.median(|l| l.render), how());
        let coverage = self.median(Layers::coverage);
        r.set("trace.coverage", coverage, how());
        let spans = self.median(|l| l.coverage() * l.wall);
        r.note(format!(
            "layer spans sum to {spans:.3} s, {:.3} of the median untraced wall",
            spans / median(&self.untraced_walls)
        ));
        for l in &self.units {
            let c = l.coverage();
            r.check((MIN_COVERAGE..=1.0).contains(&c), || {
                format!(
                    "layer spans cover {c:.4} of the traced wall time, outside [{MIN_COVERAGE}, 1]"
                )
            });
        }
        r.set(
            "trace.overhead_s",
            self.median(|l| l.wall) - median(&self.untraced_walls),
            format!(
                "median traced wall ({n}) minus median untraced wall ({})",
                self.untraced_walls.len()
            ),
        );
    }
}

/// Sets the layers a matrix workload never exercises to 0.
fn zero_serve_layers(r: &mut Report) {
    for name in [
        "protocol.render_s",
        "serve.admit_p50_ms",
        "serve.admit_p99_ms",
        "serve.card_p50_ms",
        "serve.card_p99_ms",
        "journal.fsyncs_per_job",
        "journal.compactions",
        "serve.dedup_ratio",
        "serve.rejected",
    ] {
        r.set(name, 0.0, "layer not used by this workload");
    }
}

fn hit_ratio(hits: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

fn set_hit_ratios(r: &mut Report, s: &TraceStoreStats) {
    r.set(
        "sim.memory_hit_ratio",
        hit_ratio(s.hits, s.hits + s.misses),
        format!("{} hits, {} misses (TraceStore::stats)", s.hits, s.misses),
    );
    let disk_total = s.disk_hits + s.disk_misses + s.disk_invalid;
    r.set(
        "sim.disk_hit_ratio",
        hit_ratio(s.disk_hits, disk_total),
        format!(
            "{} of {disk_total} disk lookups (TraceStore::stats)",
            s.disk_hits
        ),
    );
}

/// Samples shared by the end-to-end reports of both matrix workloads.
#[derive(Default)]
struct Samples {
    setup: Vec<f64>,
    ready: Vec<f64>,
    wall: Vec<f64>,
    mips: Vec<f64>,
    jobs_per_s: Vec<f64>,
    batch_ms: Vec<f64>,
    peak_rss_mb: f64,
}

impl Samples {
    fn report(&self, r: &mut Report, setup_how: &str) {
        let walls: Vec<String> = self.wall.iter().map(|w| format!("{w:.3}")).collect();
        r.note(format!("unit walls s: {}", walls.join(" ")));
        r.set(
            "setup_s",
            median(&self.setup),
            format!("{setup_how}, median of {}", self.setup.len()),
        );
        let n = self.wall.len();
        r.set("wall_s", median(&self.wall), median_of(n));
        r.set("sim_mips", median(&self.mips), median_of(n));
        r.set("ready_s", median(&self.ready), median_of(n));
        r.set("jobs_per_s", median(&self.jobs_per_s), median_of(n));
        let b = self.batch_ms.len();
        r.set(
            "submit_p50_ms",
            percentile(&self.batch_ms, 50.0),
            format!("p50 of {b} Table II batches"),
        );
        r.set(
            "submit_p99_ms",
            percentile(&self.batch_ms, 99.0),
            format!("p99 of {b} Table II batches"),
        );
        r.set(
            "peak_rss_mb",
            self.peak_rss_mb,
            "VmHWM after the first unit",
        );
    }

    /// Records one unit: its ready and wall times, replay and job rates,
    /// and the latency of its Table II batch (the batch labelled
    /// `table_ii`: 99 jobs replayed from resident images on both matrix
    /// workloads, so the two read alike). The peak RSS is read after the
    /// first unit: later units reuse the allocator's arenas, so only the
    /// first shows one unit's footprint from a fresh process.
    fn record(
        &mut self,
        ctx: &SimContext,
        table_ii: &str,
        ready: Duration,
        wall: f64,
        replayed: u64,
    ) {
        self.ready.push(secs(ready));
        self.wall.push(wall);
        self.mips.push(replayed as f64 / wall / 1e6);
        let batches = ctx.batches();
        self.batch_ms.extend(
            batches
                .iter()
                .filter(|b| b.label == table_ii)
                .map(|b| b.wall.as_secs_f64() * 1e3),
        );
        let jobs: usize = batches.iter().map(|b| b.jobs).sum();
        self.jobs_per_s.push(jobs as f64 / wall);
        if self.wall.len() == 1 {
            self.peak_rss_mb = peak_rss_mb();
        }
    }
}

// ---------------------------------------------------------------- cold

/// The reports of one `valign all` evaluation.
struct Evaluation {
    table3: table3::Table3,
    fig4: fig4::Fig4,
    fig8: fig8::Fig8,
    fig9: fig9::Fig9,
    fig10: fig10::Fig10,
}

impl Evaluation {
    /// Runs every driver `valign all` runs, on `ctx`.
    fn run(ctx: &SimContext, seed: u64) -> Result<Evaluation, String> {
        Ok(Evaluation {
            table3: table3::run_with(ctx, EXECS, seed),
            fig4: fig4::run(FIG4_FRAMES, seed),
            fig8: fig8::run_with(ctx, EXECS, seed).map_err(|e| e.to_string())?,
            fig9: fig9::run_with(ctx, EXECS, seed).map_err(|e| e.to_string())?,
            fig10: fig10::run_with(ctx, FIG10_EXECS, FIG10_FRAMES, seed)
                .map_err(|e| e.to_string())?,
        })
    }

    /// `valign all`'s output above the scorecard.
    fn render(&self) -> String {
        render_all(&self.table3, &self.fig4, self)
    }

    /// Checks conservation of every exposed result and fingerprints them.
    fn check(&self, r: &mut Report) -> (u64, u64) {
        let mut all = Fingerprint::default();
        let mut batch = Fingerprint::default();
        for p in &self.fig8.points {
            let label = format!("{}.{} {}", p.kernel, p.variant.label(), p.config);
            r.check(p.breakdown.conserves(p.cycles), || {
                format!("fig8 {label}: attribution does not sum to cycles")
            });
            for fp in [&mut all, &mut batch] {
                fp.label(&label);
                fp.result(p.cycles, &p.breakdown);
            }
        }
        for s in &self.fig9.sweeps {
            all.label(&s.kernel.label());
            all.result(s.altivec_cycles, &Default::default());
            for (cycles, breakdown) in s.unaligned_cycles.iter().zip(&s.unaligned_breakdowns) {
                r.check(breakdown.conserves(*cycles), || {
                    format!("fig9 {}: attribution does not sum to cycles", s.kernel)
                });
                all.result(*cycles, breakdown);
            }
        }
        for c in &self.fig10.costs {
            r.check(c.attribution.conserves(c.attribution_cycles), || {
                format!(
                    "fig10 {}: attribution does not sum to cycles",
                    c.variant.label()
                )
            });
            all.label(c.variant.label());
            all.result(c.attribution_cycles, &c.attribution);
        }
        (all.finish(), batch.finish())
    }
}

/// Renders the evaluation exactly as `valign all` prints it.
fn render_all(table3: &table3::Table3, fig4: &fig4::Fig4, e: &Evaluation) -> String {
    [
        table1::render(),
        table2::render(),
        table3.render(),
        fig4.render(),
        e.fig8.render(),
        e.fig9.render(),
        e.fig10.render(),
    ]
    .iter()
    .map(|part| format!("{part}\n"))
    .collect()
}

/// `cold-matrix`: repeat the full evaluation, each time from a new
/// 2-thread context with an empty memory-only store.
pub fn cold(args: &Args) -> Result<Report, String> {
    let plan = Plan::new(args.seed);
    let mut r = Report::default();
    let mut s = Samples::default();
    let mut layers = LayerSamples::default();
    let mut first: Option<(String, u64)> = None;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    loop {
        // Creating a context takes nanoseconds: each set-up sample is the
        // mean over a batch of creations, well above timer resolution.
        for _ in 0..SETUP_SAMPLES {
            let ((), t) = timed(|| {
                for _ in 0..SETUP_BATCH {
                    std::hint::black_box(SimContext::new(THREADS));
                }
            });
            s.setup.push(secs(t) / SETUP_BATCH as f64);
        }
        let ctx = SimContext::new(THREADS);
        let started = Instant::now();
        materialize(
            ctx.store(),
            &plan.keys[..KernelId::ALL.len() * Variant::ALL.len()],
        );
        let ready = started.elapsed();
        let eval = Evaluation::run(&ctx, args.seed)?;
        let text = eval.render();
        let wall = secs(started.elapsed());

        let stats = ctx.store().stats();
        r.check(stats.traced_exactly_once(), || {
            format!(
                "retrace: {} misses for {} traces",
                stats.misses, stats.entries
            )
        });
        let (all_fp, batch_fp) = eval.check(&mut r);
        match &first {
            None => {
                r.note(format!(
                    "fingerprint cold-matrix seed={} results={all_fp:016x} table2-batch={batch_fp:016x}",
                    args.seed
                ));
                first = Some((text.clone(), all_fp));
            }
            Some((t, a)) => {
                r.check(*t == text && *a == all_fp, || {
                    "evaluation output differs between repetitions".to_string()
                });
            }
        }
        let replayed = plan.replayed_instructions(|k| ctx.store().resident_len(*k).unwrap_or(0));
        s.record(&ctx, "fig8", ready, wall, replayed);
        drop(ctx);

        if args.trace {
            layers.untraced_walls.push(wall);
            let reference = first.as_ref().map_or("", |(t, _)| t.as_str());
            let unit = cold_traced(&plan, args.seed, &eval, reference, &mut r);
            if layers.units.is_empty() {
                set_hit_ratios(&mut r, &stats);
            }
            layers.units.push(unit);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    if args.trace {
        layers.report(&mut r);
        for name in [
            "store.save_s",
            "store.encode_s",
            "store.decode_mb_per_s",
            "store.memcpy_mb_per_s",
            "store.bytes",
        ] {
            r.set(name, 0.0, "memory-only store: no disk tier");
        }
        zero_serve_layers(&mut r);
    } else {
        s.report(&mut r, "SimContext::new");
    }
    Ok(r)
}

/// One traced cold unit: the evaluation re-enacted layer by layer, with
/// every result compared against the untraced `reference`.
fn cold_traced(
    plan: &Plan,
    seed: u64,
    reference: &Evaluation,
    reference_text: &str,
    r: &mut Report,
) -> Layers {
    let started = Instant::now();
    let (traces, trace) = timed(|| {
        par_map(plan.keys.clone(), |k| {
            trace_kernel(k.kernel, k.variant, k.execs, k.seed).into_shared()
        })
    });
    let instructions: u64 = traces.iter().map(|t| t.len() as u64).sum();
    let (prepared, build) = timed(|| par_map(traces, PreparedTrace::new));
    let image_bytes: u64 = prepared.iter().map(|p| p.image.approx_bytes() as u64).sum();
    let (results, warmup, measured) = replay_phases(
        plan.jobs
            .iter()
            .map(|j| (&*prepared[j.key].image, j.cfg.clone()))
            .collect(),
    );
    let (text, render) = timed(|| {
        let rows = KernelId::TABLE_III
            .iter()
            .flat_map(|&(kernel, label)| {
                Variant::ALL
                    .iter()
                    .map(move |&variant| (kernel, label, variant))
            })
            .map(|(kernel, label, variant)| {
                let key = TraceKey {
                    kernel,
                    variant,
                    execs: EXECS,
                    seed,
                };
                let i = plan
                    .keys
                    .iter()
                    .position(|k| *k == key)
                    .expect("Table III keys are planned");
                table3::Row {
                    kernel: label.to_string(),
                    variant,
                    mix: prepared[i].trace().mix(),
                }
            })
            .collect();
        let table3 = table3::Table3 { execs: EXECS, rows };
        render_all(&table3, &fig4::run(FIG4_FRAMES, seed), reference)
    });
    let wall = secs(started.elapsed());

    r.check(text == reference_text, || {
        "traced evaluation renders differently from the untraced one".to_string()
    });
    let (fig8_results, rest) = results.split_at(plan.fig8);
    let (fig9_results, fig10_results) = rest.split_at(plan.fig9);
    for (p, res) in reference.fig8.points.iter().zip(fig8_results) {
        r.check(
            p.cycles == res.cycles && p.breakdown == res.breakdown,
            || {
                format!(
                    "traced fig8 {}.{} {} differs",
                    p.kernel,
                    p.variant.label(),
                    p.config
                )
            },
        );
    }
    let per_sweep = 1 + fig9::EXTRA_CYCLES.len();
    for (s, chunk) in reference
        .fig9
        .sweeps
        .iter()
        .zip(fig9_results.chunks(per_sweep))
    {
        let same = chunk[0].cycles == s.altivec_cycles
            && chunk[1..].iter().enumerate().all(|(i, res)| {
                res.cycles == s.unaligned_cycles[i] && res.breakdown == s.unaligned_breakdowns[i]
            });
        r.check(same, || format!("traced fig9 {} differs", s.kernel));
    }
    for (c, chunk) in reference
        .fig10
        .costs
        .iter()
        .zip(fig10_results.chunks(COST_KERNELS.len()))
    {
        let mut attribution = valign_pipeline::StallBreakdown::default();
        chunk
            .iter()
            .for_each(|res| attribution.accumulate(&res.breakdown));
        let cycles: u64 = chunk.iter().map(|res| res.cycles).sum();
        r.check(
            cycles == c.attribution_cycles && attribution == c.attribution,
            || format!("traced fig10 {} costs differ", c.variant.label()),
        );
    }
    r.set("workload.instructions", instructions as f64, "per unit");
    r.set(
        "image.bytes",
        image_bytes as f64,
        "ReplayImage::approx_bytes per unit",
    );
    r.set(
        "engine.replays",
        2.0 * plan.jobs.len() as f64,
        "run_image calls per unit",
    );
    Layers {
        trace: secs(trace),
        build: secs(build),
        warmup: secs(warmup),
        measured: secs(measured),
        render: secs(render),
        wall,
        ..Layers::default()
    }
}

// ---------------------------------------------------------------- warm

/// The internal child mode behind `warm-store`'s set-up:
/// `e2ebench --internal-pack DIR SEED` packs the 33-key matrix into DIR.
pub fn pack_child(args: &[String]) -> i32 {
    let (Some(dir), Some(seed)) = (args.first(), args.get(1).and_then(|s| s.parse().ok())) else {
        eprintln!("error: {PACK_FLAG} needs DIR SEED");
        return 2;
    };
    match pack(dir, EXECS, seed, THREADS) {
        Ok(report) if report.packed_now() == report.entries.len() => 0,
        Ok(report) => {
            eprintln!(
                "error: pack reused {} images of a store that should be fresh",
                report.reused()
            );
            1
        }
        Err(e) => {
            eprintln!("error: pack: {e}");
            1
        }
    }
}

/// `warm-store`: pack the matrix (set-up, in a child process so its
/// footprint stays out of the restart's), then repeat restarts: open a
/// disk-backed store, load and verify every image, run the 99-job
/// Table II batch.
pub fn warm(args: &Args, work: &WorkDir) -> Result<Report, String> {
    let keys = matrix_keys(EXECS, args.seed);
    let keyed: Vec<(TraceKey, PipelineConfig)> = keys
        .iter()
        .flat_map(|key| table_ii().into_iter().map(|cfg| (*key, cfg)))
        .collect();
    let jobs: Vec<SimJob> = keyed
        .iter()
        .map(|(key, cfg)| SimJob::keyed(*key, cfg.clone()))
        .collect();
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let dir = work.fresh("store");
    let mut r = Report::default();
    let mut s = Samples::default();
    for _ in 0..PACKS {
        let _ = std::fs::remove_dir_all(&dir);
        let (status, t) = timed(|| {
            std::process::Command::new(&exe)
                .arg(PACK_FLAG)
                .arg(&dir)
                .arg(args.seed.to_string())
                .status()
        });
        let status = status.map_err(|e| format!("cannot run the pack child: {e}"))?;
        if !status.success() {
            return Err(format!("pack child failed: {status}"));
        }
        s.setup.push(secs(t));
    }

    let mut layers = LayerSamples::default();
    let mut first: Option<(Vec<SimResult>, u64)> = None;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    loop {
        let started = Instant::now();
        let store = TraceStore::with_disk(&dir).map_err(|e| e.to_string())?;
        let ctx = SimContext::with_store(THREADS, store);
        materialize(ctx.store(), &keys);
        let ready = started.elapsed();
        let results = ctx.run_batch("run", jobs.clone());
        let wall = secs(started.elapsed());

        let stats = ctx.store().stats();
        r.check(
            stats.disk_hits == keys.len() as u64
                && stats.disk_misses + stats.disk_invalid == 0
                && stats.traced_exactly_once(),
            || format!("restart did not load every image from disk: {stats:?}"),
        );
        let mut fp = Fingerprint::default();
        for (job, res) in jobs.iter().zip(&results) {
            r.check(res.breakdown.conserves(res.cycles), || {
                format!(
                    "{} {}: attribution does not sum to cycles",
                    job.label(),
                    job.cfg.name
                )
            });
            fp.label(&job.label());
            fp.result(res.cycles, &res.breakdown);
        }
        let fp = fp.finish();
        match &first {
            None => {
                r.note(format!(
                    "fingerprint warm-store seed={} table2-batch={fp:016x}",
                    args.seed
                ));
                first = Some((results.clone(), fp));
            }
            Some((_, f)) => {
                r.check(*f == fp, || {
                    "batch results differ between restarts".to_string()
                });
            }
        }
        let replayed: u64 = keyed
            .iter()
            .map(|(key, _)| 2 * ctx.store().resident_len(*key).unwrap_or(0) as u64)
            .sum();
        s.record(&ctx, "run", ready, wall, replayed);
        drop(ctx);

        if args.trace {
            layers.untraced_walls.push(wall);
            if layers.units.is_empty() {
                set_hit_ratios(&mut r, &stats);
            }
            layers
                .units
                .push(warm_traced(&dir, &keys, &results, &mut r)?);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    if args.trace {
        layers.report(&mut r);
        store_layers(&dir, &keys, work, &mut r)?;
        for name in ["workload.instructions", "image.bytes"] {
            r.set(name, 0.0, "nothing traced or built on a warm restart");
        }
        zero_serve_layers(&mut r);
    } else {
        s.report(&mut r, "pack in a child process");
    }

    // The cold oracle runs last, so its footprint stays out of the
    // restart's peak RSS.
    let cold =
        fig8::run_with(&SimContext::new(THREADS), EXECS, args.seed).map_err(|e| e.to_string())?;
    if let Some((results, _)) = &first {
        for ((key, cfg), res) in keyed.iter().zip(results) {
            let same = cold
                .point(key.kernel, cfg.name, key.variant)
                .is_some_and(|p| p.cycles == res.cycles && p.breakdown == res.breakdown);
            r.check(same, || {
                format!(
                    "{}.{} {}: warm result differs from the cold run",
                    key.kernel,
                    key.variant.label(),
                    cfg.name
                )
            });
        }
    }
    Ok(r)
}

/// One traced warm restart: load every image through the store layer,
/// then replay warm-up and measured passes as separate phases.
fn warm_traced(
    dir: &Path,
    keys: &[TraceKey],
    reference: &[SimResult],
    r: &mut Report,
) -> Result<Layers, String> {
    let started = Instant::now();
    let store = StoreDir::open(dir).map_err(|e| e.to_string())?;
    let (loaded, load) = timed(|| par_map(keys.to_vec(), |k| store.load(k.content_hash())));
    let images = loaded
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("traced load failed: {e}"))?;
    let mut jobs = Vec::new();
    for stored in &images {
        for cfg in table_ii() {
            jobs.push((&stored.image, cfg));
        }
    }
    let (results, warmup, measured) = replay_phases(jobs);
    let wall = secs(started.elapsed());
    for (i, (res, want)) in results.iter().zip(reference).enumerate() {
        r.check(res == want, || {
            format!("traced replay {i} differs from the untraced restart")
        });
    }
    r.set(
        "engine.replays",
        2.0 * results.len() as f64,
        "run_image calls per unit",
    );
    Ok(Layers {
        load: secs(load),
        warmup: secs(warmup),
        measured: secs(measured),
        wall,
        ..Layers::default()
    })
}

/// Repetitions of the decode and memcpy passes; each rate is a median.
const RATE_PASSES: usize = 3;

/// The store codec measured on the packed files: decode against a
/// memcpy of the same bytes, and the write path (`encode_file`,
/// `StoreDir::save`) re-enacted into a scratch directory. Serial sums
/// over the 33 images.
fn store_layers(
    dir: &Path,
    keys: &[TraceKey],
    work: &WorkDir,
    r: &mut Report,
) -> Result<(), String> {
    let store = StoreDir::open(dir).map_err(|e| e.to_string())?;
    let files = keys
        .iter()
        .map(|k| std::fs::read(store.path_for(k.content_hash())))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("cannot read packed files: {e}"))?;
    let bytes: usize = files.iter().map(Vec::len).sum();
    let mib = bytes as f64 / (1024.0 * 1024.0);
    let mut decode_rates = Vec::new();
    let mut memcpy_rates = Vec::new();
    let mut images = Vec::new();
    let mut copies: Vec<Vec<u8>> = files.iter().map(|f| vec![0u8; f.len()]).collect();
    for _ in 0..RATE_PASSES {
        let (decoded, t) = timed(|| files.iter().map(|f| decode_file(f)).collect::<Vec<_>>());
        decode_rates.push(mib / secs(t));
        images = decoded
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("decode failed: {e}"))?;
        let ((), t) = timed(|| {
            for (dst, src) in copies.iter_mut().zip(&files) {
                dst.copy_from_slice(std::hint::black_box(src));
            }
        });
        std::hint::black_box(&copies);
        memcpy_rates.push(mib / secs(t));
    }
    r.check(copies == files, || {
        "memcpy baseline copied wrong bytes".to_string()
    });
    let pass = format!("{bytes} B, median of {RATE_PASSES} passes");
    r.set(
        "store.decode_mb_per_s",
        median(&decode_rates),
        format!("decode_file over {pass}"),
    );
    r.set(
        "store.memcpy_mb_per_s",
        median(&memcpy_rates),
        format!("copy_from_slice over {pass}"),
    );
    r.set("store.bytes", bytes as f64, "packed .vimg bytes");

    let (encoded, encode) = timed(|| {
        images
            .iter()
            .map(|s| encode_file(&s.image, s.checksum))
            .collect::<Vec<_>>()
    });
    r.check(encoded == files, || {
        "re-encoded images differ from the packed files".to_string()
    });
    let scratch = StoreDir::create(work.fresh("save")).map_err(|e| e.to_string())?;
    let (saved, save) = timed(|| {
        keys.iter()
            .zip(&images)
            .map(|(k, s)| scratch.save(k.content_hash(), &s.image, s.checksum))
            .collect::<Result<Vec<_>, _>>()
    });
    saved.map_err(|e| format!("save failed: {e}"))?;
    r.set(
        "store.encode_s",
        secs(encode),
        "encode_file, serial sum over 33 images",
    );
    r.set(
        "store.save_s",
        secs(save),
        "StoreDir::save, serial sum over 33 images",
    );
    Ok(())
}
