//! # valign-core — the unaligned-SIMD study
//!
//! The paper's contribution as a library: given the ISA model, tracing VM,
//! kernels, cycle-accurate simulator and video substrate of the sibling
//! crates, this crate drives every experiment of the evaluation section —
//! Table I/II/III and Figures 4, 8, 9 and 10 — deterministically and
//! renders the same rows/series the paper reports.
//!
//! * [`workload`] — turns kernels plus synthetic content into dynamic
//!   instruction traces ("1000 executions of each kernel").
//! * [`sim`] — the simulation-job layer: a two-tier content-addressed
//!   trace store (in-memory, optionally backed by `valign-store`'s
//!   persistent image cache, `--store-dir`), a deterministic parallel
//!   batch executor, and the [`SimContext`] all drivers share so each
//!   kernel/variant is materialized exactly once.
//! * [`store_ops`] — the persistent-tier drivers behind `valign pack`
//!   (pre-populate a store directory with every image of the standard
//!   evaluation matrix) and `valign verify-image` (walk a directory and
//!   verify every file against the full integrity ladder).
//! * [`experiments`] — one driver per table/figure; see its module docs
//!   for the mapping and the bench targets that regenerate each artefact.
//! * [`explain`] — the `valign explain` cycle-attribution report: one
//!   kernel/variant replayed across Table II with every cycle charged to a
//!   stall bucket and the conservation invariant checked.
//! * [`replay_bench`] — the replay-throughput harness comparing the
//!   packed [`ReplayImage`](valign_pipeline::ReplayImage) hot path against
//!   the record-form reference walker (`valign bench-replay`).
//! * [`faults`] / [`supervise`] — deterministic fault injection and the
//!   supervised batch executor: per-job panic isolation, integrity-checked
//!   replay images, a cycle-budget watchdog, quarantine, and graceful
//!   degradation to an image rebuilt from the canonical trace
//!   (`valign run --supervised --inject`).
//! * [`serve`] — the long-running simulation service: a length-prefixed
//!   JSON socket protocol, a priority job queue with admission control
//!   and per-client backpressure feeding the supervised executor, and a
//!   blocking client (`valign serve` / `valign submit`).
//!
//! ## Example: the headline measurement in five lines
//!
//! ```
//! use valign_core::workload::{trace_kernel, KernelId};
//! use valign_core::experiments::measure;
//! use valign_kernels::util::Variant;
//! use valign_h264::BlockSize;
//! use valign_pipeline::PipelineConfig;
//!
//! let altivec = trace_kernel(KernelId::Luma(BlockSize::B8x8), Variant::Altivec, 20, 42);
//! let unaligned = trace_kernel(KernelId::Luma(BlockSize::B8x8), Variant::Unaligned, 20, 42);
//! let av = measure(PipelineConfig::four_way(), &altivec);
//! let un = measure(PipelineConfig::four_way(), &unaligned);
//! assert!(un.cycles < av.cycles, "unaligned loads accelerate the kernel");
//! ```

#![forbid(unsafe_code)]

pub mod experiments;
pub mod explain;
pub mod faults;
pub mod replay_bench;
pub mod serve;
pub mod sim;
pub mod store_ops;
pub mod supervise;
pub mod workload;

pub use faults::{FaultClass, FaultPlan, FaultSet, FaultSpec};
pub use sim::{
    BatchRunner, ImageProvenance, JobPanic, PreparedTrace, SimContext, SimJob, TraceKey,
    TraceSource, TraceStore,
};
pub use store_ops::{PackEntry, PackReport};
pub use supervise::{JobFailure, JobOutcome, OutcomeTally, SupervisedRunner, SupervisorConfig};
pub use workload::{trace_kernel, KernelId, Workload};
