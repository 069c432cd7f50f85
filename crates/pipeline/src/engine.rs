//! The trace-driven cycle-accurate scheduling engine.
//!
//! The engine replays a dynamic instruction [`Trace`] through a
//! Turandot-style superscalar model in a single forward pass, staged into
//! three modules:
//!
//! * `frontend` — `fetch_width` per cycle, fetch-group break after taken
//!   branches, redirect after mispredictions, bounded by the in-flight
//!   window and free physical registers;
//! * `backend` — operand readiness (register scoreboard), issue-queue
//!   capacity (separate branch queue), execution-unit instance
//!   availability, program order when the configuration is in-order, and
//!   in-order retirement `retire_width` per cycle;
//! * `lsu` — D-cache port availability, the [`Hierarchy`] latency plus
//!   the realignment-network penalty for unaligned vector accesses,
//!   store-to-load dependences through a store queue, and a bounded miss
//!   queue (`miss_max`).
//!
//! This file only orchestrates the per-instruction walk across the three
//! stages; the cycle math lives with the stage that owns the resource.
//!
//! This is the same modelling level as the paper's trace-driven
//! methodology: timing is derived entirely from the dynamic stream, while
//! functional values were already resolved by the emulator.
//!
//! A [`Simulator`] owns all of its microarchitectural state (caches and
//! predictor) and replays through `&Trace`, so it is `Send + Sync` and a
//! single shared trace can be replayed concurrently by many simulators —
//! the property the batch executor in `valign-core` relies on.

use crate::attribution::{Bucket, Timeline};
use crate::backend::{Backend, Ready};
use crate::config::PipelineConfig;
use crate::frontend::Frontend;
use crate::image::{dst_file_of, flags, ReplayImage, NO_DEF};
use crate::latency::LatencyTable;
use crate::lsu::{Lsu, MemExec};
use crate::predictor::BranchPredictor;
use crate::result::{SimError, SimResult};
use valign_cache::{CacheConfig, Hierarchy, SetAssocCache};
use valign_isa::{DynInstr, MemKind, Trace, Unit};

/// Integrity guards applied by the checked replay path
/// ([`Simulator::try_run_image`]). The guard is expressed in simulated
/// cycles — never wall-clock — so a guarded replay is as deterministic as
/// an unguarded one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunGuards {
    /// Watchdog deadline: abort with [`SimError::BudgetExceeded`] as soon
    /// as any instruction retires past this cycle. `None` disables it.
    pub cycle_budget: Option<u64>,
}

/// Assembles the attribution [`Timeline`] of one instruction from the
/// milestones both replay paths compute through the same stage calls —
/// the single construction point that keeps attribution bit-identical
/// between [`Simulator::run_image`] and [`Simulator::run_reference`].
fn timeline_of(
    redirect: u64,
    dispatch: u64,
    ready: Ready,
    unit_at: u64,
    port_at: u64,
    mem: Option<MemExec>,
    complete: u64,
) -> Timeline {
    let (after_store_dep, after_mshr, useful_end, extra_end, extra_bucket) = match mem {
        Some(m) => {
            let useful_end = m.after_mshr + u64::from(m.hit_cycles);
            let bucket = if m.extra_is_miss {
                Bucket::MissLatency
            } else {
                Bucket::DcachePort
            };
            (
                m.after_store_dep,
                m.after_mshr,
                useful_end,
                useful_end + u64::from(m.extra_cycles),
                bucket,
            )
        }
        // Non-memory: the LSU milestones collapse onto the issue cycle and
        // the whole fixed latency is useful work, so the store-dep, MSHR,
        // extra-latency and realign segments are empty and charge nothing.
        None => (port_at, port_at, complete, complete, Bucket::MissLatency),
    };
    Timeline {
        redirect,
        dispatch,
        after_queue: ready.after_queue,
        after_deps: ready.after_deps,
        after_order: ready.after_order,
        unit_at,
        port_at,
        after_store_dep,
        after_mshr,
        useful_end,
        extra_end,
        extra_bucket,
        complete,
    }
}

/// The cycle-accurate simulator. Create one per run (it owns the cache and
/// predictor state) and call [`Simulator::run`].
#[derive(Debug)]
pub struct Simulator {
    cfg: PipelineConfig,
    lat: LatencyTable,
    mem: Hierarchy,
    icache: SetAssocCache,
    pred: BranchPredictor,
}

impl Simulator {
    /// Builds a simulator with cold caches and predictor.
    pub fn new(cfg: PipelineConfig) -> Self {
        let mem = Hierarchy::new(cfg.memory);
        // Table II: 32 KB direct-mapped I-L1 with 128-byte lines. Kernels
        // are loop-resident, so after warm-up this is all hits; cold code
        // pays the L2 latency per line.
        let icache = SetAssocCache::new(CacheConfig::new(32 * 1024, 128, 1));
        let lat = LatencyTable::for_config(&cfg);
        Simulator {
            cfg,
            lat,
            mem,
            icache,
            pred: BranchPredictor::new(),
        }
    }

    /// The explicit latency table the engine resolves execute latencies
    /// from (see [`crate::latency`]).
    pub fn latency_table(&self) -> &LatencyTable {
        &self.lat
    }

    /// The configuration in use.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// Replays `trace` and returns the timing result.
    ///
    /// Compiles the trace into a throw-away [`ReplayImage`] and replays
    /// that; callers replaying the same trace more than once (warm-up +
    /// measured, many configurations) should build the image once and use
    /// [`Simulator::run_image`] directly — `valign-core`'s trace store
    /// caches images for exactly this purpose.
    ///
    /// Microarchitectural state (caches, predictor) persists across calls,
    /// so a warm-up run followed by a measured run models steady state.
    /// Per-replay stage state (queues, rings, packers) is rebuilt here.
    pub fn run(&mut self, trace: &Trace) -> SimResult {
        self.run_image(&ReplayImage::build(trace))
    }

    /// Replays a packed [`ReplayImage`] and returns the timing result —
    /// the engine's hot path. Bit-identical to
    /// [`Simulator::run_reference`] on the image's source trace.
    ///
    /// # Panics
    ///
    /// Panics on a [`SimError`] (malformed image or missing latency
    /// entry); use [`Simulator::try_run_image`] where a corrupt image is
    /// reachable and the failure must be handled instead.
    pub fn run_image(&mut self, image: &ReplayImage) -> SimResult {
        self.replay_image::<false>(image, &RunGuards::default())
            .unwrap_or_else(|e| panic!("replay failed: {e}"))
    }

    /// The checked counterpart of [`Simulator::run_image`]: validates the
    /// image up front, bounds-checks the dependence walk, applies the
    /// [`RunGuards`] cycle-budget watchdog, and returns
    /// a structured [`SimError`] instead of panicking. On a well-formed
    /// image with default guards the result is bit-identical to
    /// [`Simulator::run_image`].
    pub fn try_run_image(
        &mut self,
        image: &ReplayImage,
        guards: &RunGuards,
    ) -> Result<SimResult, SimError> {
        self.replay_image::<true>(image, guards)
    }

    /// The single replay walk behind both image paths. `GUARDED` is a
    /// const so the unguarded hot path compiles with every integrity
    /// check and guard branch removed — monomorphisation keeps the
    /// supervision layer free for the measured sweeps.
    fn replay_image<const GUARDED: bool>(
        &mut self,
        image: &ReplayImage,
        guards: &RunGuards,
    ) -> Result<SimResult, SimError> {
        if GUARDED {
            image.validate()?;
        }
        let n = image.len();
        let mut result = SimResult {
            instructions: n as u64,
            ..Default::default()
        };
        if n == 0 {
            return Ok(result);
        }

        let mut frontend = Frontend::new(&self.cfg, &mut self.icache);
        let mut backend = Backend::new(&self.cfg);
        let mut lsu = Lsu::new(&self.cfg, &mut self.mem);

        // Pin every per-instruction column to exactly `n` entries so the
        // `idx in 0..n` walk indexes with provably in-range subscripts and
        // the bounds checks vanish from the hot loop.
        let ops = &image.ops()[..n];
        let units = &image.units()[..n];
        let flag_bytes = &image.flags()[..n];
        let sids = &image.sids()[..n];
        let src_defs = &image.src_defs()[..n];
        let mem_addrs = image.mem_addrs();
        let mem_bytes = image.mem_bytes();
        // The forward walk consumes the compact memory/branch side arrays
        // in record order.
        let mut mem_cursor = 0usize;
        let mut branch_cursor = 0usize;

        for idx in 0..n {
            let f = flag_bytes[idx];

            // ---- fetch ----
            let redirect = frontend.redirect();
            let fetch_cycle = frontend.fetch(
                sids[idx].pc(),
                image.dst_file(idx),
                backend.window_floor(idx),
            );

            // ---- dispatch / issue readiness ----
            let dispatch = frontend.dispatch_at(fetch_cycle);
            if GUARDED {
                // A producer at or after its consumer is impossible in a
                // recorded trace; catch it before the scoreboard's
                // window-distance arithmetic would misread the rings.
                for &def in &src_defs[idx] {
                    if def != NO_DEF && def as usize >= idx {
                        return Err(SimError::DanglingProducer {
                            index: idx,
                            producer: def,
                        });
                    }
                }
            }
            let is_branch = f & flags::BRANCH != 0;
            let ready = backend.ready_at(idx, is_branch, &src_defs[idx], dispatch);

            // ---- unit + ports ----
            let unit_at = backend.acquire_unit(usize::from(units[idx]), ready.after_order);
            let touches_memory = f & flags::MEM != 0;
            let kind = if f & flags::STORE != 0 {
                MemKind::Store
            } else {
                MemKind::Load
            };
            let issue_cycle = if touches_memory {
                lsu.acquire_port(kind, unit_at)
            } else {
                unit_at
            };
            backend.note_issue(is_branch, issue_cycle);

            // ---- execute ----
            let (complete, mem_exec) = if touches_memory {
                let exec = if GUARDED {
                    lsu.execute_prepared_checked(
                        mem_addrs[mem_cursor],
                        mem_bytes[mem_cursor],
                        kind,
                        f & flags::UNALIGNED != 0,
                        image.mem_deps_at(mem_cursor),
                        idx,
                        issue_cycle,
                        &mut result,
                    )?
                } else {
                    lsu.execute_prepared(
                        mem_addrs[mem_cursor],
                        mem_bytes[mem_cursor],
                        kind,
                        f & flags::UNALIGNED != 0,
                        image.mem_deps_at(mem_cursor),
                        issue_cycle,
                        &mut result,
                    )
                };
                mem_cursor += 1;
                (exec.complete, Some(exec))
            } else {
                let Some(lat) = self.lat.fixed(ops[idx]) else {
                    return Err(SimError::MissingLatency {
                        op: ops[idx],
                        index: idx,
                    });
                };
                (issue_cycle + u64::from(lat), None)
            };

            // ---- branch resolution ----
            if is_branch {
                let taken = image.branch_taken_bit(branch_cursor);
                let unconditional = image.branch_uncond_bit(branch_cursor);
                branch_cursor += 1;
                let mispredicted = self.pred.access(sids[idx], taken, unconditional);
                frontend.apply_branch(mispredicted, taken, complete);
            }

            // ---- retire + cycle attribution ----
            let prev_retire = backend.last_retire();
            let retire_cycle = backend.retire(idx, complete);
            if retire_cycle > prev_retire {
                let t = timeline_of(
                    redirect,
                    dispatch,
                    ready,
                    unit_at,
                    issue_cycle,
                    mem_exec,
                    complete,
                );
                result.breakdown.charge(prev_retire, retire_cycle, &t);
            }
            frontend.release_dst(image.dst_file(idx), retire_cycle);

            // ---- watchdog ----
            if GUARDED {
                if let Some(budget) = guards.cycle_budget {
                    if retire_cycle > budget {
                        return Err(SimError::BudgetExceeded {
                            index: idx,
                            cycles: retire_cycle,
                            budget,
                        });
                    }
                }
            }
        }

        result.cycles = backend.last_retire();
        result.predictor = self.pred.stats();
        result.l1 = self.mem.l1_stats();
        result.l2 = self.mem.l2_stats();
        debug_assert!(
            result.breakdown.conserves(result.cycles),
            "attribution lost cycles: {} attributed vs {} total",
            result.breakdown.total(),
            result.cycles
        );
        Ok(result)
    }

    /// Replays `trace` record by record, straight off the AoS
    /// [`DynInstr`] array — the pre-image walker, retained as the
    /// reference implementation the packed path is equivalence-tested
    /// (and benchmarked) against. Semantically identical to
    /// [`Simulator::run`]; only the memory layout it walks differs.
    pub fn run_reference(&mut self, trace: &Trace) -> SimResult {
        let n = trace.len();
        let mut result = SimResult {
            instructions: n as u64,
            ..Default::default()
        };
        if n == 0 {
            return result;
        }

        let mut frontend = Frontend::new(&self.cfg, &mut self.icache);
        let mut backend = Backend::new(&self.cfg);
        let mut lsu = Lsu::new(&self.cfg, &mut self.mem);

        for (idx, instr) in trace.iter().enumerate() {
            // ---- fetch ----
            let redirect = frontend.redirect();
            let fetch_cycle = frontend.fetch(
                instr.sid.pc(),
                dst_file_of(instr),
                backend.window_floor(idx),
            );

            // ---- dispatch / issue readiness ----
            let dispatch = frontend.dispatch_at(fetch_cycle);
            let is_branch = instr.op.is_branch();
            let mut defs = [NO_DEF; 3];
            for (slot, src) in defs.iter_mut().zip(instr.srcs.iter()) {
                if let Some(d) = src.and_then(|s| s.def) {
                    *slot = d;
                }
            }
            let ready = backend.ready_at(idx, is_branch, &defs, dispatch);

            // ---- unit + ports ----
            let unit_at = backend.acquire_unit(instr.op.unit().index(), ready.after_order);
            let issue_cycle = if instr.op.touches_memory() {
                let kind = instr.mem.expect("memory op has a MemRef").kind;
                lsu.acquire_port(kind, unit_at)
            } else {
                unit_at
            };
            backend.note_issue(is_branch, issue_cycle);

            // ---- execute ----
            let (complete, mem_exec) = if let Some(mem_ref) = instr.mem {
                let exec = lsu.execute(
                    mem_ref.addr,
                    mem_ref.bytes,
                    mem_ref.kind,
                    instr.is_unaligned_vector_access(),
                    issue_cycle,
                    &mut result,
                );
                (exec.complete, Some(exec))
            } else {
                let lat = self
                    .lat
                    .fixed(instr.op)
                    .unwrap_or_else(|| panic!("no fixed latency entry for {}", instr.op));
                (issue_cycle + u64::from(lat), None)
            };

            // ---- branch resolution ----
            if let Some(br) = instr.branch {
                let mispredicted = self.pred.access(instr.sid, br.taken, br.unconditional);
                frontend.apply_branch(mispredicted, br.taken, complete);
            }

            // ---- retire + cycle attribution ----
            let prev_retire = backend.last_retire();
            let retire_cycle = backend.retire(idx, complete);
            if retire_cycle > prev_retire {
                let t = timeline_of(
                    redirect,
                    dispatch,
                    ready,
                    unit_at,
                    issue_cycle,
                    mem_exec,
                    complete,
                );
                result.breakdown.charge(prev_retire, retire_cycle, &t);
            }
            frontend.release_dst(dst_file_of(instr), retire_cycle);
        }

        result.cycles = backend.last_retire();
        result.predictor = self.pred.stats();
        result.l1 = self.mem.l1_stats();
        result.l2 = self.mem.l2_stats();
        debug_assert!(
            result.breakdown.conserves(result.cycles),
            "attribution lost cycles: {} attributed vs {} total",
            result.breakdown.total(),
            result.cycles
        );
        result
    }

    /// Convenience: simulate `trace` on a fresh machine with `cfg`,
    /// optionally preceded by a warm-up replay of `warmup`.
    ///
    /// Each distinct trace is compiled to a [`ReplayImage`] once; when
    /// `warmup` is the same trace (the common steady-state pattern) both
    /// replays share one image.
    pub fn simulate(cfg: PipelineConfig, warmup: Option<&Trace>, trace: &Trace) -> SimResult {
        let image = ReplayImage::build(trace);
        let warm_image = warmup.map(|w| {
            if std::ptr::eq(w, trace) {
                None
            } else {
                Some(ReplayImage::build(w))
            }
        });
        let mut sim = Simulator::new(cfg);
        if let Some(w) = warm_image {
            let _ = sim.run_image(w.as_ref().unwrap_or(&image));
        }
        sim.run_image(&image)
    }

    /// Convenience: simulate a prebuilt [`ReplayImage`] on a fresh machine
    /// with `cfg`, optionally preceded by a warm-up replay — the
    /// image-cached counterpart of [`Simulator::simulate`].
    pub fn simulate_image(
        cfg: PipelineConfig,
        warmup: Option<&ReplayImage>,
        image: &ReplayImage,
    ) -> SimResult {
        let mut sim = Simulator::new(cfg);
        if let Some(w) = warmup {
            let _ = sim.run_image(w);
        }
        sim.run_image(image)
    }

    /// The checked counterpart of [`Simulator::simulate_image`]: both the
    /// warm-up and the measured replay run through
    /// [`Simulator::try_run_image`] under the same `guards`, and the
    /// first [`SimError`] aborts the job. On a well-formed image with
    /// default guards the result is bit-identical to
    /// [`Simulator::simulate_image`].
    pub fn try_simulate_image(
        cfg: PipelineConfig,
        warmup: Option<&ReplayImage>,
        image: &ReplayImage,
        guards: &RunGuards,
    ) -> Result<SimResult, SimError> {
        let mut sim = Simulator::new(cfg);
        if let Some(w) = warmup {
            let _ = sim.try_run_image(w, guards)?;
        }
        sim.try_run_image(image, guards)
    }
}

/// Per-unit static occupancy summary of a trace (how many ops target each
/// unit) — useful for quick bottleneck analysis in reports.
pub fn unit_histogram(trace: &Trace) -> [u64; Unit::COUNT] {
    let mut h = [0u64; Unit::COUNT];
    for i in trace.iter() {
        h[i.op.unit().index()] += 1;
    }
    h
}

/// Returns the dynamic instructions of `trace` that access memory.
pub fn memory_ops(trace: &Trace) -> impl Iterator<Item = &DynInstr> {
    trace.iter().filter(|i| i.op.touches_memory())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IssuePolicy;
    use valign_cache::RealignConfig;
    use valign_vm::Vm;

    fn run(cfg: PipelineConfig, trace: &Trace) -> SimResult {
        Simulator::simulate(cfg, Some(trace), trace)
    }

    #[test]
    fn simulator_is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<Simulator>();
    }

    #[test]
    fn empty_trace_is_zero_cycles() {
        let mut sim = Simulator::new(PipelineConfig::four_way());
        let r = sim.run(&Trace::new());
        assert_eq!(r.cycles, 0);
        assert_eq!(r.instructions, 0);
    }

    #[test]
    fn independent_ops_reach_high_ipc() {
        let mut vm = Vm::new();
        for _ in 0..4000 {
            let _ = vm.li(1);
        }
        let trace = vm.take_trace();
        let r = run(PipelineConfig::four_way(), &trace);
        // FX has 3 instances in the 4-way config, so IPC should approach 3.
        assert!(r.ipc() > 2.0, "ipc = {}", r.ipc());
        assert!(r.ipc() <= 3.01, "ipc = {}", r.ipc());
    }

    #[test]
    fn dependency_chain_serialises() {
        let mut vm = Vm::new();
        let mut x = vm.li(0);
        for _ in 0..2000 {
            x = vm.addi(x, 1);
        }
        let trace = vm.take_trace();
        let r = run(PipelineConfig::eight_way(), &trace);
        // One-cycle latency chain: about one instruction per cycle, no
        // matter the width.
        assert!(r.ipc() < 1.1, "ipc = {}", r.ipc());
        assert!(r.cycles >= 2000);
    }

    #[test]
    fn wider_machine_is_faster_on_parallel_work() {
        let mut vm = Vm::new();
        for _ in 0..1000 {
            let a = vm.li(1);
            let b = vm.li(2);
            let _ = vm.add(a, b);
            let c = vm.li(3);
            let d = vm.li(4);
            let _ = vm.add(c, d);
        }
        let trace = vm.take_trace();
        let two = run(PipelineConfig::two_way(), &trace);
        let eight = run(PipelineConfig::eight_way(), &trace);
        assert!(
            eight.cycles < two.cycles,
            "8-way {} vs 2-way {}",
            eight.cycles,
            two.cycles
        );
    }

    #[test]
    fn out_of_order_beats_in_order_around_misses() {
        // A load miss followed by independent work: OoO hides it.
        let mut vm = Vm::new();
        let buf = vm.mem_mut().alloc(1 << 20, 128);
        let base = vm.li(buf as i64);
        for i in 0..200 {
            let _miss = vm.lwz(base, i64::from(i) * 4096); // new line every time
            for _ in 0..8 {
                let a = vm.li(1);
                let _ = vm.addi(a, 2);
            }
        }
        let trace = vm.take_trace();
        let mut inorder = PipelineConfig::four_way();
        inorder.policy = IssuePolicy::InOrder;
        let io = run(inorder, &trace);
        let ooo = run(PipelineConfig::four_way(), &trace);
        assert!(
            ooo.cycles <= io.cycles,
            "OoO {} should not exceed in-order {}",
            ooo.cycles,
            io.cycles
        );
    }

    #[test]
    fn realign_penalty_grows_with_extra_latency() {
        // A tight dependent chain of unaligned loads.
        let mut vm = Vm::new();
        let buf = vm.mem_mut().alloc(4096, 16);
        for i in 0..4096 {
            vm.mem_mut().write_u8(buf + i, i as u8);
        }
        let p = vm.li((buf + 1) as i64);
        let mut idx = vm.li(0);
        for _ in 0..500 {
            let v = vm.lvxu(idx, p);
            // Chain: next index depends on the load (via a store/load of
            // the register value we just read).
            let _ = v;
            idx = vm.addi(idx, 0);
        }
        let trace = vm.take_trace();
        let base = run(
            PipelineConfig::four_way().with_realign(RealignConfig::equal_latency()),
            &trace,
        );
        let plus6 = run(
            PipelineConfig::four_way().with_realign(RealignConfig::extra(6)),
            &trace,
        );
        assert_eq!(base.realign_penalty_cycles, 0);
        assert!(plus6.realign_penalty_cycles >= 500 * 6);
        assert!(plus6.cycles >= base.cycles);
        assert_eq!(base.unaligned_accesses, 500);
    }

    #[test]
    fn aligned_lvxu_pays_no_penalty() {
        let mut vm = Vm::new();
        let buf = vm.mem_mut().alloc(64, 16);
        let p = vm.li(buf as i64);
        let i0 = vm.li(0);
        let _ = vm.lvxu(i0, p);
        let trace = vm.take_trace();
        let r = run(
            PipelineConfig::four_way().with_realign(RealignConfig::extra(6)),
            &trace,
        );
        assert_eq!(r.unaligned_accesses, 0);
        assert_eq!(r.realign_penalty_cycles, 0);
    }

    #[test]
    fn predictable_loop_branches_cost_little() {
        let make = |iters: u32, pattern: fn(u32) -> bool| {
            let mut vm = Vm::new();
            let top = vm.label();
            for i in 0..iters {
                let c = vm.li(i64::from(i));
                let cond = vm.cmpwi(c, 0);
                vm.bc(cond, pattern(i), top);
            }
            vm.take_trace()
        };
        let predictable = make(2000, |i| i % 2000 != 1999); // always taken
        let chaotic = make(2000, |i| i.wrapping_mul(2654435761).rotate_left(7) & 4 == 0);
        let p = run(PipelineConfig::four_way(), &predictable);
        let c = run(PipelineConfig::four_way(), &chaotic);
        assert!(
            p.predictor.mispredict_ratio() < 0.02,
            "predictable loop mispredicts {}",
            p.predictor.mispredict_ratio()
        );
        assert!(
            c.cycles > p.cycles,
            "chaotic {} vs predictable {}",
            c.cycles,
            p.cycles
        );
    }

    #[test]
    fn store_to_load_dependence_enforced() {
        let mut vm = Vm::new();
        let buf = vm.mem_mut().alloc(64, 16);
        let base = vm.li(buf as i64);
        let v = vm.li(42);
        vm.stw(v, base, 0);
        let r = vm.lwz(base, 0);
        assert_eq!(r.value(), 42);
        let trace = vm.take_trace();
        let res = run(PipelineConfig::four_way(), &trace);
        // The load cannot complete before the store; with L1 at 4 cycles
        // the chain is at least store-complete + load-latency long.
        assert!(res.cycles > 8, "cycles = {}", res.cycles);
    }

    #[test]
    fn miss_queue_throttles_memory_parallelism() {
        // Many independent misses: fewer MSHRs => more cycles.
        let mut vm = Vm::new();
        let buf = vm.mem_mut().alloc(16 << 20, 128);
        let base = vm.li(buf as i64);
        for i in 0..256 {
            let _ = vm.lwz(base, i64::from(i) * 131 * 128);
        }
        let trace = vm.take_trace();
        let mut narrow = PipelineConfig::eight_way();
        narrow.miss_max = 1;
        let n = Simulator::simulate(narrow, None, &trace);
        let w = Simulator::simulate(PipelineConfig::eight_way(), None, &trace);
        assert!(
            n.cycles > w.cycles,
            "miss_max=1 {} should exceed miss_max=8 {}",
            n.cycles,
            w.cycles
        );
    }

    #[test]
    fn attribution_conserves_and_reflects_behaviour() {
        // Dependent chain: cycles dominated by useful + RAW wait, and the
        // buckets sum exactly to the total.
        let mut vm = Vm::new();
        let mut x = vm.li(0);
        for _ in 0..2000 {
            x = vm.addi(x, 1);
        }
        let chain = vm.take_trace();
        let r = run(PipelineConfig::eight_way(), &chain);
        assert!(r.breakdown.conserves(r.cycles), "{:?}", r.breakdown);
        assert!(r.breakdown.useful > 0);

        // Unaligned dependent loads with an extra realign latency: the
        // realign bucket picks up the penalty on the critical path.
        let mut vm = Vm::new();
        let buf = vm.mem_mut().alloc(4096, 16);
        let p = vm.li((buf + 1) as i64);
        let i0 = vm.li(0);
        for _ in 0..200 {
            let _ = vm.lvxu(i0, p);
        }
        let unaligned = vm.take_trace();
        let r = run(
            PipelineConfig::two_way().with_realign(valign_cache::RealignConfig::extra(6)),
            &unaligned,
        );
        assert!(r.breakdown.conserves(r.cycles), "{:?}", r.breakdown);
        assert!(r.breakdown.realign > 0, "{:?}", r.breakdown);

        // Empty trace: empty breakdown, still conserved.
        let empty = Simulator::new(PipelineConfig::four_way()).run(&Trace::new());
        assert!(empty.breakdown.conserves(0));
    }

    #[test]
    fn miss_latency_is_attributed_on_misses() {
        let mut vm = Vm::new();
        let buf = vm.mem_mut().alloc(16 << 20, 128);
        let base = vm.li(buf as i64);
        let mut acc = vm.li(0);
        for i in 0..64 {
            let v = vm.lwz(base, i64::from(i) * 131 * 128);
            acc = vm.add(acc, v);
        }
        let trace = vm.take_trace();
        let r = Simulator::simulate(PipelineConfig::two_way(), None, &trace);
        assert!(r.breakdown.conserves(r.cycles), "{:?}", r.breakdown);
        assert!(r.breakdown.miss_latency > 0, "{:?}", r.breakdown);
    }

    #[test]
    fn guarded_replay_is_bit_identical_to_the_hot_path() {
        let mut vm = Vm::new();
        let buf = vm.mem_mut().alloc(4096, 16);
        let p = vm.li((buf + 3) as i64);
        let i0 = vm.li(0);
        for i in 0..300 {
            let v = vm.lvxu(i0, p);
            let _ = v;
            if i % 7 == 0 {
                let c = vm.cmpwi(i0, 0);
                let top = vm.label();
                vm.bc(c, i % 14 == 0, top);
            }
        }
        let trace = vm.take_trace();
        let image = ReplayImage::build(&trace);
        for cfg in [PipelineConfig::two_way(), PipelineConfig::four_way()] {
            let plain = Simulator::simulate_image(cfg.clone(), Some(&image), &image);
            let guarded =
                Simulator::try_simulate_image(cfg, Some(&image), &image, &RunGuards::default())
                    .expect("clean image replays cleanly");
            assert_eq!(plain, guarded);
        }
    }

    #[test]
    fn cycle_budget_watchdog_trips_deterministically() {
        let mut vm = Vm::new();
        let mut x = vm.li(0);
        for _ in 0..500 {
            x = vm.addi(x, 1);
        }
        let trace = vm.take_trace();
        let image = ReplayImage::build(&trace);
        let full = Simulator::try_simulate_image(
            PipelineConfig::four_way(),
            None,
            &image,
            &RunGuards::default(),
        )
        .expect("no budget, no abort");
        let guards = RunGuards {
            cycle_budget: Some(full.cycles / 2),
        };
        let err = Simulator::try_simulate_image(PipelineConfig::four_way(), None, &image, &guards)
            .expect_err("half the budget must trip the watchdog");
        match err {
            SimError::BudgetExceeded { cycles, budget, .. } => {
                assert!(cycles > budget);
                assert_eq!(budget, full.cycles / 2);
            }
            other => panic!("expected BudgetExceeded, got {other}"),
        }
        // Determinism: the same budget trips at the same record.
        let again =
            Simulator::try_simulate_image(PipelineConfig::four_way(), None, &image, &guards)
                .expect_err("same inputs, same abort");
        assert_eq!(err, again);
    }

    #[test]
    fn runtime_sabotage_is_caught_mid_replay() {
        use crate::image::Sabotage;
        let mut vm = Vm::new();
        let buf = vm.mem_mut().alloc(4096, 16);
        let base = vm.li(buf as i64);
        for i in 0..40 {
            let v = vm.li(i);
            vm.stw(v, base, i * 4);
            let _ = vm.lwz(base, i * 4);
        }
        let trace = vm.take_trace();

        let mut img = ReplayImage::build(&trace);
        assert!(img.sabotage(Sabotage::DepOverflow, 11));
        img.validate()
            .expect("dep overflow passes static validation");
        let err = Simulator::try_simulate_image(
            PipelineConfig::four_way(),
            None,
            &img,
            &RunGuards::default(),
        )
        .expect_err("the checked dependence walk must catch it");
        assert!(matches!(err, SimError::DepOutOfWindow { .. }), "{err}");

        let mut img = ReplayImage::build(&trace);
        assert!(img.sabotage(Sabotage::DanglingDef, 23));
        img.validate()
            .expect("dangling def passes static validation");
        let err = Simulator::try_simulate_image(
            PipelineConfig::four_way(),
            None,
            &img,
            &RunGuards::default(),
        )
        .expect_err("the producer check must catch it");
        assert!(matches!(err, SimError::DanglingProducer { .. }), "{err}");
    }

    #[test]
    fn static_sabotage_is_caught_before_the_walk() {
        use crate::image::Sabotage;
        let mut vm = Vm::new();
        for _ in 0..20 {
            let a = vm.li(1);
            let _ = vm.addi(a, 2);
        }
        let trace = vm.take_trace();
        let mut img = ReplayImage::build(&trace);
        assert!(img.sabotage(Sabotage::Truncate, 9));
        let err = Simulator::try_simulate_image(
            PipelineConfig::two_way(),
            None,
            &img,
            &RunGuards::default(),
        )
        .expect_err("truncated image must be rejected up front");
        assert!(matches!(err, SimError::CorruptImage { .. }), "{err}");
    }

    #[test]
    fn empty_image_replays_cleanly_under_guards() {
        let image = ReplayImage::build(&Trace::new());
        let r = Simulator::try_simulate_image(
            PipelineConfig::four_way(),
            None,
            &image,
            &RunGuards {
                cycle_budget: Some(0),
            },
        )
        .expect("nothing to replay, nothing to abort");
        assert_eq!(r.cycles, 0);
    }

    #[test]
    fn unit_histogram_counts() {
        let mut vm = Vm::new();
        let a = vm.vspltisb(1);
        let b = vm.vspltisb(2);
        let _ = vm.vaddubm(a, b);
        let _ = vm.li(0);
        let h = unit_histogram(vm.trace());
        assert_eq!(h[Unit::Vperm.index()], 2); // two splats
        assert_eq!(h[Unit::Vi.index()], 1);
        assert_eq!(h[Unit::Fx.index()], 1);
        assert_eq!(memory_ops(vm.trace()).count(), 0);
    }
}

#[cfg(test)]
mod icache_tests {
    use super::*;
    use crate::config::PipelineConfig;
    use valign_vm::Vm;

    #[test]
    fn cold_instruction_fetch_pays_warm_does_not() {
        // A straight-line program with many distinct static sites: the
        // first replay takes I-cache misses, the second does not.
        let mut vm = Vm::new();
        for _ in 0..64 {
            let a = vm.li(1);
            let _ = vm.addi(a, 2);
        }
        let t = vm.take_trace();
        let mut sim = Simulator::new(PipelineConfig::four_way());
        let cold = sim.run(&t);
        let warm = sim.run(&t);
        assert!(
            warm.cycles <= cold.cycles,
            "warm {} vs cold {}",
            warm.cycles,
            cold.cycles
        );
    }

    #[test]
    fn loop_resident_kernels_are_insensitive_to_the_icache() {
        // A loop over the same static sites touches very few I-lines:
        // the cold penalty is bounded by a handful of misses.
        let mut vm = Vm::new();
        for _ in 0..500 {
            let a = vm.li(1); // same static site every iteration
            let _ = vm.addi(a, 2);
        }
        let t = vm.take_trace();
        let mut sim = Simulator::new(PipelineConfig::four_way());
        let cold = sim.run(&t);
        let warm = sim.run(&t);
        assert!(
            cold.cycles
                <= warm.cycles + 3 * u64::from(PipelineConfig::four_way().memory.l2_latency),
            "cold {} vs warm {}",
            cold.cycles,
            warm.cycles
        );
    }
}
