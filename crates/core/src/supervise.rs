//! Supervised batch execution: panic isolation, integrity-checked
//! replay, quarantine and graceful degradation.
//!
//! The plain [`BatchRunner`](crate::sim::BatchRunner) is the right tool
//! when every job is trusted: it is the measured hot path, and a failure
//! is a bug. The [`SupervisedRunner`] is the tool for *surviving*
//! failures — injected by [`crate::faults`] in tests and CI, or real ones
//! in long sweeps — while keeping the healthy part of the batch
//! bit-identical to an unsupervised run.
//!
//! Every job runs exactly once and climbs an integrity ladder before its
//! result is trusted:
//!
//! 0. **Provenance** — if the entry's image came from a persistent-store
//!    file that failed `valign-store`'s integrity ladder (evicted and
//!    rebuilt, [`ImageProvenance::DiskRebuilt`]), the job degrades
//!    immediately: the rebuilt bytes are fine, but a store that served
//!    corrupt bytes is surfaced as a degraded outcome, never silently.
//! 1. **Checksum** — the replay image's stored checksum (taken at compile
//!    time, [`PreparedTrace`](crate::sim::PreparedTrace)) is recomputed
//!    at load; a mismatch means the bytes changed since compilation.
//! 2. **Static validation** — [`ReplayImage::validate`] proves the
//!    structure internally consistent (array lengths, mask/cursor
//!    agreement, producer bounds).
//! 3. **Guarded replay** — [`Simulator::try_simulate_image`]
//!    bounds-checks the pre-resolved dependence walk and enforces a
//!    deterministic cycle-budget watchdog (simulated cycles, never
//!    wall-clock, so the watchdog itself is reproducible).
//!
//! Each job ends in one of three outcomes:
//!
//! * [`JobOutcome::Completed`] — every rung passed.
//! * [`JobOutcome::Degraded`] — a degradable error
//!   ([`SimError::degradable`]) indicted the *image*, not the workload,
//!   so the image is rebuilt from the canonical record-form trace (fresh
//!   bytes that share nothing with the distrusted ones) and replayed
//!   through the same guarded call, warm-up included. Replay is
//!   bit-identical across image builds, so a degraded result equals a
//!   [`Simulator::run_reference`] run of the same trace.
//! * [`JobOutcome::Quarantined`] — a panic, a non-degradable error
//!   (missing latency entry, budget blown) or a failed rebuilt replay.
//!   Replay is deterministic, so a second attempt would fail the same
//!   way; there are no retries.
//!
//! Determinism: outcomes are a pure function of (job list, fault set,
//! supervisor config). Jobs run through the same scatter loop as the
//! plain runner (results land by submission index) and every fault site
//! is hash-derived — so the full [`JobOutcome`] sequence is identical at
//! any worker-thread count.

use crate::faults::{FaultClass, FaultPlan, FaultSet};
use crate::sim::{dispatch_order, BatchRunner, ImageProvenance, SimJob, TraceStore};
use std::cell::Cell;
use std::fmt;
use std::sync::{Arc, OnceLock};
use valign_isa::Trace;
use valign_pipeline::{ReplayImage, RunGuards, SimError, SimResult, Simulator};

/// How a supervised job ended, in submission order. Every variant that
/// carries a [`SimResult`] is a usable measurement; only
/// [`JobOutcome::Quarantined`] jobs produce none.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// The job succeeded on the packed replay path.
    Completed {
        /// The replay measurement.
        result: SimResult,
    },
    /// The replay image failed an integrity rung; the result comes from
    /// an image rebuilt from the canonical trace instead.
    Degraded {
        /// The rebuilt-image measurement.
        result: SimResult,
        /// The integrity failure that forced the rebuild.
        reason: SimError,
    },
    /// The job failed; it is excluded from the batch's results.
    Quarantined {
        /// What the job died with.
        failure: JobFailure,
    },
}

impl JobOutcome {
    /// The measurement this outcome carries, `None` for quarantined jobs.
    pub fn result(&self) -> Option<&SimResult> {
        match self {
            JobOutcome::Completed { result } | JobOutcome::Degraded { result, .. } => Some(result),
            JobOutcome::Quarantined { .. } => None,
        }
    }

    /// Scorecard column name for this outcome kind.
    pub fn kind(&self) -> &'static str {
        match self {
            JobOutcome::Completed { .. } => "completed",
            JobOutcome::Degraded { .. } => "degraded",
            JobOutcome::Quarantined { .. } => "quarantined",
        }
    }
}

/// What a quarantined job died with.
#[derive(Debug, Clone, PartialEq)]
pub enum JobFailure {
    /// The job panicked; the payload was captured by the executor's
    /// per-job `catch_unwind`.
    Panicked {
        /// The stringified panic payload.
        message: String,
    },
    /// The job returned a structured, non-degradable error.
    Faulted {
        /// The error the job died with.
        error: SimError,
    },
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobFailure::Panicked { message } => write!(f, "panicked: {message}"),
            JobFailure::Faulted { error } => write!(f, "faulted: {error}"),
        }
    }
}

/// Per-outcome counts of one supervised batch, carried on the batch
/// record and summed into the scorecard's `supervised totals` line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeTally {
    /// Jobs that completed on the packed path.
    pub completed: usize,
    /// Jobs served by a rebuilt image after an integrity failure.
    pub degraded: usize,
    /// Jobs that failed outright.
    pub quarantined: usize,
}

impl OutcomeTally {
    /// Tallies a batch's outcomes.
    pub fn of(outcomes: &[JobOutcome]) -> OutcomeTally {
        let mut tally = OutcomeTally::default();
        for outcome in outcomes {
            match outcome {
                JobOutcome::Completed { .. } => tally.completed += 1,
                JobOutcome::Degraded { .. } => tally.degraded += 1,
                JobOutcome::Quarantined { .. } => tally.quarantined += 1,
            }
        }
        tally
    }

    /// Element-wise sum of two tallies.
    pub fn merged(self, other: OutcomeTally) -> OutcomeTally {
        OutcomeTally {
            completed: self.completed + other.completed,
            degraded: self.degraded + other.degraded,
            quarantined: self.quarantined + other.quarantined,
        }
    }

    /// True when every job completed on the packed path — the invariant
    /// the clean (no-injection) sweep asserts in CI.
    pub fn clean(&self) -> bool {
        self.degraded == 0 && self.quarantined == 0
    }
}

impl fmt::Display for OutcomeTally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} completed, {} degraded, {} quarantined",
            self.completed, self.degraded, self.quarantined
        )
    }
}

/// Supervision policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Cycle-budget watchdog slope: budget grows by this many cycles per
    /// trace instruction. Even the paper's worst-case kernel (scalar,
    /// 2-way, every access missing) retires well under 100 cycles per
    /// instruction, so 512 never trips on healthy workloads.
    pub cycle_budget_per_instr: u64,
    /// Cycle-budget watchdog intercept, so tiny traces still get headroom
    /// for cold caches and drain.
    pub cycle_budget_floor: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            cycle_budget_per_instr: 512,
            cycle_budget_floor: 65_536,
        }
    }
}

impl SupervisorConfig {
    /// The watchdog budget for a trace of `instructions` records:
    /// `floor + per_instr × instructions`, saturating.
    pub fn budget_for(&self, instructions: usize) -> u64 {
        self.cycle_budget_floor.saturating_add(
            self.cycle_budget_per_instr
                .saturating_mul(instructions as u64),
        )
    }

    /// The replay guards for an image of `instructions` records.
    fn guards_for(&self, instructions: usize) -> RunGuards {
        RunGuards {
            cycle_budget: Some(self.budget_for(instructions)),
        }
    }
}

thread_local! {
    /// True while the current thread is executing a supervised job,
    /// whose panics are caught, captured and reported as outcomes — so
    /// the process-wide panic hook should not also dump them to stderr.
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once per process) a forwarding panic hook that stays silent
/// for supervised jobs and delegates to the pre-existing hook for every
/// other panic.
///
/// The install slot is a [`OnceLock`], not a [`std::sync::Once`]: `Once`
/// *poisons* when its closure unwinds, and this function runs on every
/// supervised batch — a single panicking install (e.g. under an injected
/// allocation fault) would then panic every sibling batch for the life
/// of the process. `OnceLock` rolls the slot back on unwind, so a later
/// batch simply retries the install.
fn install_quiet_hook() {
    static INSTALL: OnceLock<()> = OnceLock::new();
    INSTALL.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Marks the current thread's panics as supervised for its lifetime,
/// restoring the previous state on drop (the serial fast path runs jobs
/// on the caller's thread, whose later panics must stay loud).
struct QuietPanics(bool);

impl QuietPanics {
    fn enter() -> Self {
        QuietPanics(QUIET_PANICS.with(|c| c.replace(true)))
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        let prior = self.0;
        QUIET_PANICS.with(|c| c.set(prior));
    }
}

/// A [`BatchRunner`] wrapped in supervision: fault injection, per-job
/// integrity checks, panic isolation, quarantine and rebuilt-image
/// degradation.
#[derive(Debug, Clone)]
pub struct SupervisedRunner {
    inner: BatchRunner,
    cfg: SupervisorConfig,
    faults: FaultSet,
}

impl SupervisedRunner {
    /// A supervisor over `threads` workers with the default policy and no
    /// injected faults.
    pub fn new(threads: usize) -> Self {
        SupervisedRunner {
            inner: BatchRunner::new(threads),
            cfg: SupervisorConfig::default(),
            faults: FaultSet::none(),
        }
    }

    /// Same supervisor with `cfg` as the policy.
    pub fn with_config(mut self, cfg: SupervisorConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Same supervisor injecting `faults` (the CLI's `--inject` specs).
    pub fn with_faults(mut self, faults: FaultSet) -> Self {
        self.faults = faults;
        self
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.inner.threads()
    }

    /// The supervision policy.
    pub fn config(&self) -> &SupervisorConfig {
        &self.cfg
    }

    /// Runs every job once under supervision; `outcomes[i]` corresponds
    /// to `jobs[i]`, at any thread count.
    pub fn run(&self, store: &TraceStore, jobs: &[SimJob]) -> Vec<JobOutcome> {
        install_quiet_hook();
        self.inner
            .scatter(jobs.len(), dispatch_order(store, jobs), |i| {
                let _quiet = QuietPanics::enter();
                let job = &jobs[i];
                // A job's explicit fault (test hook) wins over the
                // injection set.
                let plan = job
                    .fault
                    .clone()
                    .or_else(|| self.faults.plan_for(&job.label(), job.seed()));
                self.execute(job, store, plan.as_ref())
            })
            .into_iter()
            .map(|outcome| {
                outcome.unwrap_or_else(|panic| JobOutcome::Quarantined {
                    failure: JobFailure::Panicked {
                        message: panic.message,
                    },
                })
            })
            .collect()
    }

    /// One job: resolve the prepared trace, apply the fault plan, climb
    /// the integrity ladder, and replay — or degrade to a rebuilt image.
    fn execute(&self, job: &SimJob, store: &TraceStore, plan: Option<&FaultPlan>) -> JobOutcome {
        let prepared = job.prepared(store);
        let mut image = Arc::clone(&prepared.image);
        let mut expected = prepared.image_checksum;
        // Rung 0: a persistent-tier file failed the store's integrity
        // ladder and the image was rebuilt from source. The rebuilt bytes
        // are trustworthy, but silent self-healing would hide the
        // corruption — degrade so the outcome tally shows it.
        if let ImageProvenance::DiskRebuilt { error } = &prepared.provenance {
            let reason = SimError::CorruptImage {
                index: None,
                detail: format!("stored image quarantined and rebuilt: {error}"),
            };
            return self.degrade(job, &prepared.trace(), reason);
        }
        if let Some(plan) = plan {
            match plan.class {
                FaultClass::Panic => panic!(
                    "injected fault: forced panic in job {} (site {:#018x})",
                    job.label(),
                    plan.site
                ),
                FaultClass::DiskCorrupt => {
                    // Round-trip the image through the real container
                    // encode, damage the *file bytes*, and make the real
                    // decoder climb its ladder. In-memory, so parallel
                    // jobs sharing one key never race on a real file.
                    let mut bytes = valign_store::encode_file(&image, expected);
                    valign_store::sabotage_file_bytes(&mut bytes, plan.site);
                    let error = match valign_store::decode_file(&bytes) {
                        Err(e) => e,
                        Ok(_) => {
                            unreachable!("sabotaged store file must fail the integrity ladder")
                        }
                    };
                    let reason = SimError::CorruptImage {
                        index: None,
                        detail: format!("stored image file corrupt: {error}"),
                    };
                    return self.degrade(job, &prepared.trace(), reason);
                }
                // The I/O and connection classes fire in the storage and
                // service layers (store write-back, the serve connection
                // writer); inside the supervised simulator they are
                // no-ops so a wildcard spec never derails the batch.
                FaultClass::IoError
                | FaultClass::ShortWrite
                | FaultClass::TornFrame
                | FaultClass::Disconnect => {}
                class => {
                    let kind = class
                        .sabotage()
                        .expect("image fault classes map to a sabotage");
                    let mut copy = (*image).clone();
                    copy.sabotage(kind, plan.site);
                    image = Arc::new(copy);
                    if class != FaultClass::ImageCorrupt {
                        // Truncation and bit-flips model corruption that
                        // happened *before* checksumming, so they must
                        // get past rung 1 and be caught by validation or
                        // the guarded walk. Cursor corruption models
                        // post-checksum rot: the stored checksum stays
                        // stale and rung 1 catches it.
                        expected = image.checksum();
                    }
                }
            }
        }
        let actual = image.checksum();
        if actual != expected {
            return self.degrade(
                job,
                &prepared.trace(),
                SimError::ChecksumMismatch { expected, actual },
            );
        }
        match Simulator::try_simulate_image(
            job.cfg.clone(),
            job.warm.then_some(&*image),
            &image,
            &self.cfg.guards_for(prepared.image.len()),
        ) {
            Ok(result) => JobOutcome::Completed { result },
            Err(reason) if reason.degradable() => self.degrade(job, &prepared.trace(), reason),
            Err(error) => JobOutcome::Quarantined {
                failure: JobFailure::Faulted { error },
            },
        }
    }

    /// The graceful-degradation path: rebuild the image from the
    /// canonical record-form trace — fresh bytes that share nothing with
    /// the distrusted image — and replay it through the same guarded call
    /// and warm-up discipline as the healthy path. A rebuilt image that
    /// fails too quarantines the job.
    fn degrade(&self, job: &SimJob, trace: &Trace, reason: SimError) -> JobOutcome {
        let image = ReplayImage::build(trace);
        match Simulator::try_simulate_image(
            job.cfg.clone(),
            job.warm.then_some(&image),
            &image,
            &self.cfg.guards_for(image.len()),
        ) {
            Ok(result) => JobOutcome::Degraded { result, reason },
            Err(error) => JobOutcome::Quarantined {
                failure: JobFailure::Faulted { error },
            },
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimJob, TraceKey};
    use crate::workload::KernelId;
    use valign_h264::BlockSize;
    use valign_kernels::util::Variant;
    use valign_pipeline::PipelineConfig;

    fn key(variant: Variant) -> TraceKey {
        TraceKey {
            kernel: KernelId::Sad(BlockSize::B8x8),
            variant,
            execs: 2,
            seed: 7,
        }
    }

    fn jobs() -> Vec<SimJob> {
        Variant::ALL
            .iter()
            .map(|&v| SimJob::keyed(key(v), PipelineConfig::four_way()))
            .collect()
    }

    fn faults(spec: &str) -> FaultSet {
        FaultSet::parse(&[spec.to_string()]).expect("spec parses")
    }

    #[test]
    fn clean_supervision_matches_the_plain_runner() {
        let store = TraceStore::new();
        let jobs = jobs();
        let plain = BatchRunner::new(2).run(&store, &jobs);
        let outcomes = SupervisedRunner::new(2).run(&store, &jobs);
        assert_eq!(outcomes.len(), plain.len());
        for (outcome, expected) in outcomes.iter().zip(&plain) {
            assert!(
                matches!(outcome, JobOutcome::Completed { result } if result == expected),
                "clean supervision must be invisible: {outcome:?}"
            );
        }
        assert!(OutcomeTally::of(&outcomes).clean());
    }

    #[test]
    fn panic_faults_quarantine_on_the_only_attempt() {
        let store = TraceStore::new();
        let outcomes = SupervisedRunner::new(2)
            .with_faults(faults("panic:sad8x8.scalar"))
            .run(&store, &jobs());
        let tally = OutcomeTally::of(&outcomes);
        assert_eq!(tally.quarantined, 1);
        assert_eq!(tally.completed, 2);
        let scalar = &outcomes[0]; // Variant::ALL starts with Scalar
        match scalar {
            JobOutcome::Quarantined { failure } => {
                assert!(
                    matches!(failure, JobFailure::Panicked { message }
                        if message.contains("injected fault: forced panic")),
                    "{failure:?}"
                );
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        // One store lookup per job: the panicking job ran exactly once.
        let stats = store.stats();
        assert_eq!(stats.hits + stats.misses, jobs().len() as u64);
    }

    #[test]
    fn image_faults_degrade_to_the_reference_walker() {
        let store = TraceStore::new();
        for (spec, want_checksum) in [
            ("truncate:*", false),
            ("bitflip:*", false),
            ("image-corrupt:*", true),
            ("lsu-overflow:*", false),
            ("disk-corrupt:*", false),
        ] {
            let outcomes = SupervisedRunner::new(2)
                .with_faults(faults(spec))
                .run(&store, &jobs());
            for (outcome, job) in outcomes.iter().zip(&jobs()) {
                let JobOutcome::Degraded { result, reason } = outcome else {
                    panic!("{spec}: expected degradation, got {outcome:?}");
                };
                assert_eq!(
                    matches!(reason, SimError::ChecksumMismatch { .. }),
                    want_checksum,
                    "{spec} must land on its designed rung, got {reason}"
                );
                let trace = job.prepared(&store).trace();
                let mut sim = Simulator::new(job.cfg.clone());
                let _ = sim.run_reference(&trace);
                assert_eq!(
                    result,
                    &sim.run_reference(&trace),
                    "{spec}: degraded result must be bit-identical to the reference walker"
                );
            }
        }
    }

    #[test]
    fn rebuilt_disk_entries_degrade_without_any_injection() {
        let root =
            std::env::temp_dir().join(format!("valign-supervise-rebuilt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        {
            let seeder = TraceStore::with_disk(&root).expect("attach tier");
            for variant in Variant::ALL {
                let _ = seeder.prepared(key(*variant));
            }
        }
        // Corrupt exactly the scalar variant's stored file.
        let hash = key(Variant::Scalar).content_hash();
        let path = root.join(valign_store::StoreDir::file_name(hash));
        let mut bytes = std::fs::read(&path).expect("stored file exists");
        valign_store::sabotage_file_bytes(&mut bytes, 5);
        std::fs::write(&path, &bytes).expect("corrupt in place");

        let store = TraceStore::with_disk(&root).expect("attach tier");
        let outcomes = SupervisedRunner::new(2).run(&store, &jobs());
        std::fs::remove_dir_all(&root).expect("cleanup");
        let tally = OutcomeTally::of(&outcomes);
        assert_eq!(
            (tally.degraded, tally.completed),
            (1, 2),
            "exactly the corrupted key degrades: {outcomes:?}"
        );
        let JobOutcome::Degraded { reason, .. } = &outcomes[0] else {
            panic!("scalar job must degrade, got {:?}", outcomes[0]);
        };
        let SimError::CorruptImage { detail, .. } = reason else {
            panic!("unexpected degrade reason {reason}");
        };
        assert!(
            detail.contains("stored image quarantined and rebuilt"),
            "{detail}"
        );
        assert_eq!(store.stats().disk_invalid, 1);
    }

    #[test]
    fn budget_watchdog_quarantines_runaway_jobs() {
        // A budget no real replay can meet. A blown budget is not
        // degradable, and a rebuilt image replays under the same watchdog,
        // so the job quarantines with or without a degradable fault.
        let cfg = SupervisorConfig {
            cycle_budget_per_instr: 0,
            cycle_budget_floor: 1,
        };
        for set in [FaultSet::none(), faults("disk-corrupt:*")] {
            let outcomes = SupervisedRunner::new(1)
                .with_config(cfg)
                .with_faults(set)
                .run(&TraceStore::new(), &jobs()[..1]);
            assert!(
                matches!(
                    &outcomes[0],
                    JobOutcome::Quarantined {
                        failure: JobFailure::Faulted {
                            error: SimError::BudgetExceeded { .. }
                        }
                    }
                ),
                "{:?}",
                outcomes[0]
            );
        }
    }

    #[test]
    fn outcome_sequences_are_identical_across_thread_counts() {
        let reference: Vec<JobOutcome> = SupervisedRunner::new(1)
            .with_faults(faults("panic:sad8x8.altivec"))
            .run(&TraceStore::new(), &jobs());
        for threads in [2, 8] {
            let outcomes = SupervisedRunner::new(threads)
                .with_faults(faults("panic:sad8x8.altivec"))
                .run(&TraceStore::new(), &jobs());
            assert_eq!(outcomes, reference, "{threads} threads");
        }
    }
}
