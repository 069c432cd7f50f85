//! # valign-pipeline — cycle-accurate trace-driven superscalar simulator
//!
//! The reproduction's stand-in for the paper's Turandot-based processor
//! simulator. Traces produced by `valign-vm` are replayed through a
//! superscalar timing model with:
//!
//! * the three Table II configurations ([`PipelineConfig::two_way`],
//!   [`PipelineConfig::four_way`], [`PipelineConfig::eight_way`]);
//! * per-unit pools (FX, FP, LS, BR, VI, VPERM, VCMPLX), register-rename
//!   windows, issue queues and D-cache ports;
//! * a gshare + BTB branch predictor;
//! * the `valign-cache` memory hierarchy, including the realignment
//!   network latency for the paper's unaligned `lvxu`/`stvxu` accesses;
//! * a packed structure-of-arrays [`ReplayImage`] (see [`image`]) that a
//!   trace is compiled into once and replayed from many times — the
//!   generate-once / replay-many hot path of the whole evaluation;
//! * cycle attribution (see [`attribution`]): every replayed cycle charged
//!   to exactly one stall bucket in the [`StallBreakdown`] carried by each
//!   [`SimResult`], with `sum(buckets) == cycles` guaranteed;
//! * a guarded replay path ([`Simulator::try_run_image`]) that verifies
//!   image integrity ([`ReplayImage::validate`], checksums via [`hash`]),
//!   bounds-checks the pre-resolved dependence walk, and enforces a
//!   deterministic cycle-budget watchdog through [`RunGuards`] —
//!   returning structured [`SimError`]s instead of panicking, so a
//!   supervisor can quarantine or degrade.
//!
//! ## Example
//!
//! ```
//! use valign_pipeline::{PipelineConfig, Simulator};
//! use valign_vm::Vm;
//!
//! let mut vm = Vm::new();
//! let buf = vm.mem_mut().alloc(256, 16);
//! let p = vm.li((buf + 5) as i64); // unaligned pointer
//! let i0 = vm.li(0);
//! for _ in 0..32 {
//!     let _ = vm.lvxu(i0, p);
//! }
//! let trace = vm.take_trace();
//!
//! let mut sim = Simulator::new(PipelineConfig::four_way());
//! let result = sim.run(&trace);
//! assert_eq!(result.unaligned_accesses, 32);
//! assert!(result.cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod attribution;
mod backend;
pub mod config;
pub mod costmodel;
pub mod engine;
mod frontend;
pub mod hash;
pub mod image;
pub mod latency;
mod lsu;
pub mod predictor;
pub mod result;

pub use attribution::{Bucket, StallBreakdown};
pub use config::{IssuePolicy, PipelineConfig};
pub use costmodel::CostBounds;
pub use engine::{memory_ops, unit_histogram, RunGuards, Simulator};
pub use hash::WordHash;
pub use image::{AuditSabotage, ReplayImage, Sabotage};
pub use latency::{Latency, LatencyTable};
pub use lsu::{ranges_overlap, STORE_QUEUE_TRACK};
pub use predictor::{BranchPredictor, PredictorStats};
pub use result::{SimError, SimResult};
