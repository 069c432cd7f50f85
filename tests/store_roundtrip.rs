//! Integration test for the persistent replay-image store: the CI
//! `store-roundtrip` scenario as a single in-process test.
//!
//! 1. `pack` the full matrix into a store directory (33 files);
//! 2. a warm sweep off that directory is all disk hits and bit-identical
//!    to a cold, memory-only sweep;
//! 3. corrupting one image file degrades exactly the jobs of that key
//!    (one per config) under supervision — nothing panics, siblings are
//!    untouched — and the store heals the file on the way through;
//! 4. `verify-image` over the healed directory is clean.

use valign::cache::RealignConfig;
use valign::core::sim::{BatchRunner, SimJob, TraceKey, TraceSource, TraceStore};
use valign::core::store_ops;
use valign::core::supervise::{JobOutcome, OutcomeTally, SupervisedRunner};
use valign::core::workload::KernelId;
use valign::kernels::util::Variant;
use valign::pipeline::PipelineConfig;
use valign::store::{sabotage_file_bytes, StoreDir};

const EXECS: usize = 2;
const SEED: u64 = 7;

fn scratch() -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("valign-roundtrip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// The same 99-job sweep `valign run` executes: every kernel × variant ×
/// Table II config at equal unaligned latency.
fn sweep_jobs() -> Vec<SimJob> {
    let configs: Vec<PipelineConfig> = PipelineConfig::table_ii()
        .into_iter()
        .map(|cfg| cfg.with_realign(RealignConfig::equal_latency()))
        .collect();
    let mut jobs = Vec::new();
    for &kernel in KernelId::ALL {
        for &variant in Variant::ALL {
            for cfg in &configs {
                jobs.push(SimJob::keyed(
                    TraceKey {
                        kernel,
                        variant,
                        execs: EXECS,
                        seed: SEED,
                    },
                    cfg.clone(),
                ));
            }
        }
    }
    jobs
}

#[test]
fn pack_warm_corrupt_degrade_heal() {
    let root = scratch();

    // 1. Pack the matrix: one file per kernel/variant key.
    let report = store_ops::pack(&root, EXECS, SEED, 4).expect("pack");
    let matrix = KernelId::ALL.len() * Variant::ALL.len();
    assert_eq!(report.entries.len(), matrix);
    assert_eq!(report.packed_now(), matrix, "cold pack writes every file");

    // 2. Warm sweep off the packed store: all disk hits, zero rebuilds,
    // bit-identical to a memory-only sweep.
    let jobs = sweep_jobs();
    let cold_store = TraceStore::new();
    let cold = BatchRunner::new(4).run(&cold_store, &jobs);
    let warm_store = TraceStore::with_disk(&root).expect("open store");
    let warm = BatchRunner::new(4).run(&warm_store, &jobs);
    assert_eq!(warm, cold, "disk-loaded images must replay bit-identically");
    let stats = warm_store.stats();
    assert_eq!(stats.disk_hits, matrix as u64, "every key comes off disk");
    assert_eq!(stats.disk_misses, 0);
    assert_eq!(stats.disk_invalid, 0);

    // 3. Corrupt one file: under supervision exactly that key's jobs (one
    // per config) degrade; the rest complete bit-identically, and the
    // store heals the file by rebuilding and re-saving it.
    let TraceSource::Key(victim) = jobs[0].source else {
        panic!("sweep jobs are keyed");
    };
    let path = root.join(StoreDir::file_name(victim.content_hash()));
    let mut bytes = std::fs::read(&path).expect("read packed image");
    sabotage_file_bytes(&mut bytes, 11);
    std::fs::write(&path, &bytes).expect("write corruption");

    let hurt_store = TraceStore::with_disk(&root).expect("open store");
    let outcomes = SupervisedRunner::new(4).run(&hurt_store, &jobs);
    let tally = OutcomeTally::of(&outcomes);
    assert_eq!(
        (tally.completed, tally.degraded, tally.quarantined),
        (jobs.len() - 3, 3, 0),
        "one corrupt file degrades exactly its three config jobs: {tally}"
    );
    for (job, (outcome, expected)) in jobs.iter().zip(outcomes.iter().zip(&cold)) {
        match outcome {
            JobOutcome::Degraded { result, reason, .. } => {
                assert!(
                    matches!(job.source, TraceSource::Key(k) if k == victim),
                    "only the victim degrades, not {}",
                    job.label()
                );
                assert!(
                    reason
                        .to_string()
                        .contains("stored image quarantined and rebuilt"),
                    "{reason}"
                );
                assert_eq!(result, expected, "degraded result still bit-identical");
            }
            JobOutcome::Completed { result, .. } => {
                assert_eq!(result, expected, "sibling results untouched");
            }
            other => panic!("{}: unexpected outcome {other:?}", job.label()),
        }
    }
    assert_eq!(hurt_store.stats().disk_invalid, 1, "one eviction recorded");

    // 4. The rebuild re-saved a good file: the directory verifies clean
    // and a fresh store warm-starts entirely off disk again.
    let verify = store_ops::verify_image(&root).expect("verify");
    assert!(verify.all_ok(), "{}", verify.render());
    let healed_store = TraceStore::with_disk(&root).expect("open store");
    let healed = BatchRunner::new(4).run(&healed_store, &jobs);
    assert_eq!(healed, cold);
    assert_eq!(healed_store.stats().disk_hits, matrix as u64);

    std::fs::remove_dir_all(&root).expect("cleanup");
}
