//! The streaming-multiprocessor pipeline and whole-GPU driver.
//!
//! Each SM steps one cycle at a time: retire due writebacks, let the
//! operand backend run (RegLess's capacity manager lives there), release
//! barriers, let each warp scheduler issue, then roll the statistics
//! windows. [`Machine::run`] is the one run loop: it ticks every SM on
//! every cycle, idle or not.
//! Functional execution happens at issue; timing is carried by scoreboard
//! entries that clear at the instruction's writeback time, which for
//! global accesses comes from the shared memory hierarchy.

use crate::backend::{BackendCtx, OperandBackend};
use crate::config::{Cycle, GpuConfig};
use crate::mem::{MemSystem, Traffic};
use crate::sched::Scheduler;
use crate::stats::{MemStats, SmStats, WindowStamps};
use crate::warp::{WarpBlock, WarpState};
use regless_compiler::CompiledKernel;
use regless_isa::{InsnRef, LaneMask, LaneVec, OpClass, Opcode, Reg, MAX_SRCS, WARP_WIDTH};
use regless_telemetry::{IssueStack, SelfProfiler, StallReason};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;

/// Deterministic per-address contents of simulated global memory.
///
/// Loads return a hash of the address: data-dependent but reproducible,
/// and realistically incompressible (unlike index arithmetic, which stays
/// compressible). Stores are sinks.
pub fn load_value(addr: u32) -> u32 {
    let mut x = addr.wrapping_mul(0x9e37_79b9) ^ 0x85eb_ca6b;
    x ^= x >> 13;
    x = x.wrapping_mul(0xc2b2_ae35);
    x ^ (x >> 16)
}

/// Simulation errors.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SimError {
    /// The cycle limit was reached before all warps finished — a hang or a
    /// configuration far too small for the workload.
    MaxCyclesExceeded {
        /// The limit that was hit.
        limit: Cycle,
        /// Warps still unfinished, per SM.
        unfinished: Vec<usize>,
    },
    /// The run's [`crate::CancelToken`] tripped (an explicit cancel or an
    /// expired deadline); the simulation stopped at a cycle boundary.
    Cancelled {
        /// The cycle at which cancellation was observed.
        at_cycle: Cycle,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MaxCyclesExceeded { limit, unfinished } => write!(
                f,
                "simulation exceeded {limit} cycles with unfinished warps per SM {unfinished:?}"
            ),
            SimError::Cancelled { at_cycle } => {
                write!(f, "simulation cancelled cooperatively at cycle {at_cycle}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Priority for choosing which blocked warp's reason an idle issue slot is
/// charged to (lower wins). Design-specific staging stalls come first —
/// they are what RegLess's CPI stacks exist to expose; a slot is only
/// charged at all when *no* warp could issue, so surfacing the staging
/// bottleneck over the generic hazard is the informative choice.
fn stall_priority(r: StallReason) -> usize {
    match r {
        StallReason::OsuCapacityWait => 0,
        StallReason::MshrFull => 1,
        StallReason::L1PortBusy => 2,
        StallReason::CmPreloadWait => 3,
        StallReason::Drain => 4,
        StallReason::DataHazard => 5,
        StallReason::Barrier => 6,
        StallReason::Issued | StallReason::NoWarp => 7,
    }
}

/// A pending register writeback's payload.
#[derive(Clone, Copy, Debug)]
struct Writeback {
    warp: usize,
    at: InsnRef,
    reg: Reg,
    value: LaneVec,
}

/// In-flight writebacks, retired in `(due, seq)` order — `seq` is push
/// order, so writebacks due the same cycle retire in the order they
/// issued. The heap orders small `(due, seq, slot)` keys; the 128-byte
/// payloads wait in slab slots reused once they retire.
struct WritebackQueue {
    heap: BinaryHeap<Reverse<(Cycle, u64, u32)>>,
    slab: Vec<Writeback>,
    free: Vec<u32>,
    next_seq: u64,
}

impl WritebackQueue {
    fn new() -> Self {
        WritebackQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    fn push(&mut self, due: Cycle, wb: Writeback) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = wb;
                slot
            }
            None => {
                self.slab.push(wb);
                (self.slab.len() - 1) as u32
            }
        };
        self.heap.push(Reverse((due, self.next_seq, slot)));
        self.next_seq += 1;
    }

    /// The next writeback due at or before `now`, if any.
    fn pop_due(&mut self, now: Cycle) -> Option<Writeback> {
        let &Reverse((due, _, slot)) = self.heap.peek()?;
        if due > now {
            return None;
        }
        self.heap.pop();
        self.free.push(slot);
        Some(self.slab[slot as usize])
    }

    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Each scheduler's warps grouped by their [`WarpBlock`], one bitmap per
/// state with `words` words per scheduler (bit = scheduler-local warp
/// index). Kept incrementally — warp state changes only at issue,
/// writeback retire and barrier release — so the issue loop visits only
/// ready warps and an idle slot finds its blame without a scan.
struct WarpSets {
    words: usize,
    ready: Vec<u64>,
    scoreboard: Vec<u64>,
    barrier: Vec<u64>,
}

impl WarpSets {
    fn new(scheds: usize, warps_per_sched: usize) -> Self {
        let words = warps_per_sched.div_ceil(64);
        WarpSets {
            words,
            ready: vec![0; scheds * words],
            scoreboard: vec![0; scheds * words],
            barrier: vec![0; scheds * words],
        }
    }

    /// Move scheduler `s`'s warp `local` into the set for `block`.
    fn place(&mut self, s: usize, local: usize, block: WarpBlock) {
        let (i, bit) = (s * self.words + local / 64, 1u64 << (local % 64));
        for set in [&mut self.ready, &mut self.scoreboard, &mut self.barrier] {
            set[i] &= !bit;
        }
        match block {
            WarpBlock::Ready => self.ready[i] |= bit,
            WarpBlock::Scoreboard => self.scoreboard[i] |= bit,
            WarpBlock::Barrier => self.barrier[i] |= bit,
            WarpBlock::Finished => {}
        }
    }

    /// Scheduler `s`'s words of `set`.
    fn of<'a>(&self, set: &'a [u64], s: usize) -> &'a [u64] {
        &set[s * self.words..(s + 1) * self.words]
    }
}

/// The set bits of `words`, ascending.
fn bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(i, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                i * 64 + bit
            })
        })
    })
}

/// One SM: warps, schedulers, in-flight writebacks, and the operand
/// backend.
pub struct Sm<B> {
    id: usize,
    config: GpuConfig,
    compiled: Arc<CompiledKernel>,
    /// Architectural state of each hardware warp.
    pub warps: Vec<WarpState>,
    scheds: Vec<Scheduler>,
    writebacks: WritebackQueue,
    /// Each warp's current [`WarpBlock`], refreshed at the three points
    /// warp state changes.
    blocks: WarpSets,
    /// Scratch ready-list for the issue loop, reused across slots to
    /// avoid a heap allocation per slot per cycle.
    ready_buf: Vec<usize>,
    /// Working-set window stamps: run scratch that stays here, out of
    /// [`SmStats`], so finished reports stay small.
    ws_seen: WindowStamps,
    live_warps: usize,
    /// This SM's statistics.
    pub stats: SmStats,
    /// The operand backend (baseline RF, RegLess, RFH, RFV…).
    pub backend: B,
}

impl<B: OperandBackend> Sm<B> {
    fn new(id: usize, config: &GpuConfig, compiled: Arc<CompiledKernel>, backend: B) -> Self {
        let warps: Vec<WarpState> = (0..config.warps_per_sm)
            .map(|_| WarpState::new(compiled.kernel()))
            .collect();
        let scheds: Vec<Scheduler> = (0..config.schedulers_per_sm)
            .map(|_| Scheduler::new(config.scheduler, config.warps_per_scheduler()))
            .collect();
        let live_warps = warps.len();
        let stats = SmStats {
            region_stacks: vec![IssueStack::new(); compiled.regions().len()],
            ..SmStats::default()
        };
        let mut sm = Sm {
            id,
            config: *config,
            ws_seen: WindowStamps::new(config.warps_per_sm, compiled.kernel().num_regs() as usize),
            compiled,
            warps,
            writebacks: WritebackQueue::new(),
            blocks: WarpSets::new(scheds.len(), config.warps_per_scheduler()),
            ready_buf: Vec::new(),
            scheds,
            live_warps,
            stats,
            backend,
        };
        for w in 0..live_warps {
            sm.refresh_block(w);
        }
        sm
    }

    /// Re-derive one warp's [`WarpBlock`] after its state changed.
    fn refresh_block(&mut self, w: usize) {
        let block = self.warps[w].block_reason(self.compiled.kernel());
        let num_scheds = self.scheds.len();
        self.blocks.place(w % num_scheds, w / num_scheds, block);
    }

    /// The highest-priority reason (and its warp) among scheduler `s`'s
    /// warps that cannot issue, for charging an idle slot; `None` when no
    /// warp has a reason to give. Ties go to the lowest warp.
    fn blocked_reason(&mut self, s: usize) -> Option<(StallReason, usize)> {
        let num_scheds = self.scheds.len();
        let mut blocked: Option<(StallReason, usize)> = None;
        let mut consider = |reason: StallReason, local: usize| {
            let key = (stall_priority(reason), local);
            if blocked.is_none_or(|(r, l)| key < (stall_priority(r), l)) {
                blocked = Some((reason, local));
            }
        };
        // Ready warps the backend holds back answer for themselves.
        for local in bits(self.blocks.of(&self.blocks.ready, s)) {
            let w = local * num_scheds + s;
            let pc = self.warps[w].pc().expect("ready implies a pc");
            if !self.backend.warp_eligible(w, pc) {
                if let Some(r) = self.backend.issue_stall(w, pc) {
                    consider(r, local);
                }
            }
        }
        if let Some(local) = bits(self.blocks.of(&self.blocks.scoreboard, s)).next() {
            consider(StallReason::DataHazard, local);
        }
        if let Some(local) = bits(self.blocks.of(&self.blocks.barrier, s)).next() {
            consider(StallReason::Barrier, local);
        }
        blocked.map(|(reason, local)| (reason, local * num_scheds + s))
    }

    fn all_done(&self) -> bool {
        self.live_warps == 0 && self.writebacks.is_empty() && self.backend.quiesced()
    }

    /// Advance one cycle. `prof` is the machine's host-side self profiler
    /// (`None` when disabled): the phase guards below time host wall
    /// clock only and never touch simulated state, so profiled and
    /// unprofiled runs stay byte-identical.
    fn tick(&mut self, now: Cycle, mem: &mut MemSystem, prof: Option<&SelfProfiler>) {
        // 1. Retire writebacks due now.
        let wb_guard = SelfProfiler::scope_opt(prof, "writeback");
        while let Some(e) = self.writebacks.pop_due(now) {
            self.warps[e.warp].pending.remove(&e.reg);
            self.refresh_block(e.warp);
            self.stats.trace_event(
                now,
                crate::TraceEvent::Writeback {
                    warp: e.warp,
                    reg: e.reg,
                },
            );
            let mut ctx = BackendCtx {
                sm: self.id,
                now,
                mem,
                stats: &mut self.stats,
            };
            self.backend
                .on_writeback(e.warp, e.at, e.reg, e.value, &mut ctx);
        }

        drop(wb_guard);

        // 2. Backend housekeeping (CM activation, preload pipeline).
        {
            let _g = SelfProfiler::scope_opt(prof, "backend_tick");
            let mut ctx = BackendCtx {
                sm: self.id,
                now,
                mem,
                stats: &mut self.stats,
            };
            self.backend.begin_cycle_with_warps(&self.warps, &mut ctx);
        }

        // 3. Barrier release, per thread block: a barrier synchronizes the
        // warps of one block, not the whole SM.
        if self.live_warps > 0 {
            let mut barrier_released = false;
            let bs = self.config.warps_per_block;
            for (bi, block) in self.warps.chunks_mut(bs).enumerate() {
                let any_waiting = block.iter().any(|w| w.at_barrier);
                let all_at_barrier = block.iter().filter(|w| !w.finished()).all(|w| w.at_barrier);
                if any_waiting && all_at_barrier {
                    for w in block.iter_mut() {
                        w.at_barrier = false;
                    }
                    barrier_released = true;
                    self.stats
                        .trace_event(now, crate::TraceEvent::BarrierRelease { block: bi });
                }
            }
            if barrier_released {
                for w in 0..self.warps.len() {
                    self.refresh_block(w);
                }
            }
        }

        // 4. Issue: up to `issue_slots_per_scheduler` instructions per
        // scheduler. Every slot is charged to exactly one [`StallReason`]
        // (the conservation law behind the CPI stacks): `Issued` when an
        // instruction or metadata bubble goes out, otherwise the
        // highest-priority reason among the warps that could not.
        let issue_guard = SelfProfiler::scope_opt(prof, "issue");
        let num_scheds = self.scheds.len();
        for s in 0..num_scheds {
            for _slot in 0..self.config.issue_slots_per_scheduler {
                // The eligible warps among the ready ones, in local order.
                self.ready_buf.clear();
                for local in bits(self.blocks.of(&self.blocks.ready, s)) {
                    let w = local * num_scheds + s;
                    let pc = self.warps[w].pc().expect("ready implies a pc");
                    if self.backend.warp_eligible(w, pc) {
                        self.ready_buf.push(local);
                    }
                }
                let Some(local) = self.scheds[s].pick(&self.ready_buf) else {
                    self.stats.idle_slots += 1;
                    let blocked = self.blocked_reason(s);
                    self.charge_idle_slot(blocked, now, mem);
                    continue;
                };
                let w = local * num_scheds + s;
                let took_bubble = {
                    let mut ctx = BackendCtx {
                        sm: self.id,
                        now,
                        mem,
                        stats: &mut self.stats,
                    };
                    self.backend.take_bubble(w, &mut ctx)
                };
                if took_bubble {
                    self.stats.meta_insns += 1;
                    // The metadata bubble occupied the slot: issued work.
                    let region = self.warps[w].pc().map(|pc| self.compiled.region_at(pc).0);
                    self.stats.charge_slot(StallReason::Issued, Some(w), region);
                    continue;
                }
                self.issue(w, s, local, now, mem);
                self.refresh_block(w);
            }
        }

        drop(issue_guard);

        // 5. Roll statistics windows.
        {
            let _g = SelfProfiler::scope_opt(prof, "stats_windows");
            self.stats.working_set.roll(now);
            self.stats.backing_series.roll(now);
            self.stats.osu_occupancy.roll(now);
            self.stats.osu_reserved_series.roll(now);
            self.stats.osu_free_series.roll(now);
            self.stats.cm_queue_series.roll(now);
            self.stats.cycles = now + 1;
        }
    }

    /// Charge an issue slot that went unused. `blocked` carries the
    /// highest-priority reason found among this scheduler's warps (and the
    /// warp it came from); with no candidate at all the slot is `NoWarp`,
    /// which has no warp or region to blame. Staging waits are refined
    /// with the memory system's live state: a full MSHR file or a backed-up
    /// L1 port is the real bottleneck behind a preload that has not landed.
    fn charge_idle_slot(
        &mut self,
        blocked: Option<(StallReason, usize)>,
        now: Cycle,
        mem: &MemSystem,
    ) {
        let Some((mut reason, w)) = blocked else {
            self.stats.charge_slot(StallReason::NoWarp, None, None);
            return;
        };
        if reason == StallReason::CmPreloadWait {
            if mem.l1_mshrs_full(self.id, now) {
                reason = StallReason::MshrFull;
            } else if mem.l1_port_backlog(self.id, now) > 0 {
                reason = StallReason::L1PortBusy;
            }
        }
        let region = self.warps[w].pc().map(|pc| self.compiled.region_at(pc).0);
        self.stats.charge_slot(reason, Some(w), region);
    }

    fn issue(&mut self, w: usize, sched: usize, local: usize, now: Cycle, mem: &mut MemSystem) {
        let at = self.warps[w].pc().expect("issuing warp has a pc");
        // The instruction is borrowed from the shared kernel; everything
        // mutated below is a field disjoint from `compiled`.
        let compiled = &*self.compiled;
        let insn = compiled.kernel().insn(at);
        let srcs = insn.srcs();
        let mask = self.warps[w].mask();

        // Track the operand working set (Figure 2).
        for &srcr in srcs {
            self.stats
                .working_set
                .record(&mut self.ws_seen, w, srcr, now);
        }
        if let Some(d) = insn.dst() {
            self.stats.working_set.record(&mut self.ws_seen, w, d, now);
        }

        self.stats
            .charge_slot(StallReason::Issued, Some(w), Some(compiled.region_at(at).0));
        self.stats
            .trace_event(now, crate::TraceEvent::Issue { warp: w, pc: at });

        // Functional evaluation. Staged operand values are cross-checked
        // against the architectural state *before* the backend applies its
        // last-use annotations.
        let regs = &self.warps[w].regs;
        let src_buf: [LaneVec; MAX_SRCS] =
            std::array::from_fn(|i| srcs.get(i).map_or(LaneVec::zero(), |s| regs[s.index()]));
        let src_vals = &src_buf[..srcs.len()];
        self.backend
            .check_staged_operands(w, srcs, src_vals, &mut self.stats);
        let extra = {
            let mut ctx = BackendCtx {
                sm: self.id,
                now,
                mem,
                stats: &mut self.stats,
            };
            self.backend.on_issue(w, at, insn, &mut ctx)
        };
        let alu_value = insn.evaluate(src_vals, self.id * self.config.warps_per_sm + w);
        let taken_bits = if matches!(insn.op(), Opcode::Bra { .. }) {
            src_vals[0].nonzero_bits()
        } else {
            0
        };

        // Timing + memory traffic.
        let mut writeback: Option<(Cycle, LaneVec)> = None;
        match insn.op() {
            Opcode::LdGlobal => {
                let addrs = &src_vals[0];
                let done = coalesced_access(self.id, &mut self.stats, addrs, mask, false, now, mem);
                let mut v = LaneVec::zero();
                for l in mask.iter() {
                    v.set_lane(l, load_value(addrs.lane(l)));
                }
                writeback = Some((done + extra, v));
                self.scheds[sched].on_long_latency(local);
            }
            Opcode::StGlobal => {
                let addrs = &src_vals[1];
                let _ = coalesced_access(self.id, &mut self.stats, addrs, mask, true, now, mem);
            }
            Opcode::LdShared => {
                let addrs = &src_vals[0];
                let mut v = LaneVec::zero();
                for l in mask.iter() {
                    v.set_lane(l, load_value(addrs.lane(l) ^ 0x5f5f_5f5f));
                }
                writeback = Some((now + self.config.latency.shared_mem + extra, v));
            }
            Opcode::StShared | Opcode::Bra { .. } | Opcode::Jmp { .. } | Opcode::Exit => {}
            Opcode::Bar => {
                self.warps[w].at_barrier = true;
            }
            _ => {
                let lat = match insn.class() {
                    OpClass::FpAlu => self.config.latency.fp_alu,
                    OpClass::Sfu => self.config.latency.sfu,
                    _ => self.config.latency.int_alu,
                };
                writeback = Some((
                    now + lat + extra,
                    alu_value.expect("ALU ops produce values"),
                ));
            }
        }

        // Scoreboard + functional write.
        if let Some(d) = insn.dst() {
            let (due, value) = writeback.expect("dst implies a writeback");
            // Soft definitions merge with inactive lanes' old values.
            let mut merged = self.warps[w].regs[d.index()];
            for l in mask.iter() {
                merged.set_lane(l, value.lane(l));
            }
            self.warps[w].regs[d.index()] = merged;
            self.warps[w].pending.insert(d);
            self.writebacks.push(
                due,
                Writeback {
                    warp: w,
                    at,
                    reg: d,
                    value: merged,
                },
            );
        }

        // Control state.
        let dom = compiled.dom();
        self.warps[w].advance(compiled.kernel(), taken_bits, |b| {
            dom.immediate_postdominator(b)
        });
        self.warps[w].insns_issued += 1;
        self.stats.insns += 1;

        if self.warps[w].finished() {
            self.warps[w].finished_at = Some(now);
            self.live_warps -= 1;
            self.stats
                .trace_event(now, crate::TraceEvent::WarpFinish { warp: w });
            let mut ctx = BackendCtx {
                sm: self.id,
                now,
                mem,
                stats: &mut self.stats,
            };
            self.backend.on_warp_finish(w, &mut ctx);
        }
    }

    /// The compiled kernel this SM runs.
    pub fn compiled(&self) -> &CompiledKernel {
        &self.compiled
    }
}

/// Coalesce a warp's lane addresses into unique 128-byte lines and issue
/// them to SM `sm`'s memory path in line order; returns the completion
/// cycle.
fn coalesced_access(
    sm: usize,
    stats: &mut SmStats,
    addrs: &LaneVec,
    mask: LaneMask,
    write: bool,
    now: Cycle,
    mem: &mut MemSystem,
) -> Cycle {
    let mut buf = [0u64; WARP_WIDTH];
    let mut n = 0;
    for l in mask.iter() {
        buf[n] = addrs.lane(l) as u64 / 128;
        n += 1;
    }
    let lines = &mut buf[..n];
    lines.sort_unstable();
    let mut done = now + 1;
    for (i, &line) in lines.iter().enumerate() {
        if i > 0 && lines[i - 1] == line {
            continue;
        }
        let a = mem.access_line(sm, line * 128, write, Traffic::Data, now);
        done = done.max(a.done);
    }
    stats.observe("mem.data_latency", done.saturating_sub(now));
    done
}

/// Result of a whole-GPU run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Total cycles until the last SM finished.
    pub cycles: Cycle,
    /// Per-SM counters.
    pub sm_stats: Vec<SmStats>,
    /// Memory-hierarchy counters.
    pub mem: MemStats,
    /// Final architectural register values, `final_regs[sm][warp][reg]`,
    /// for checking against the functional interpreter.
    pub final_regs: Vec<Vec<Vec<LaneVec>>>,
    /// Dynamic instructions per warp, `warp_insns[sm][warp]`.
    pub warp_insns: Vec<Vec<u64>>,
    /// Wall-clock seconds the simulation itself took, measured by
    /// [`Machine::run`]. A report served from the sweep-engine cache keeps
    /// the wall time of the run that originally produced it.
    pub wall_seconds: f64,
    /// Merged telemetry across SMs when a recorder was attached via
    /// [`Machine::attach_telemetry`]; `None` otherwise. Like `final_regs`,
    /// this is a debugging payload and is never persisted by the JSON
    /// serializers.
    pub telemetry: Option<Box<regless_telemetry::Telemetry>>,
}

// JSON layout for the sweep-engine result cache. `final_regs` is a
// functional-correctness payload (large, and unused by every figure), so
// it is deliberately *not* persisted: reports loaded from the cache carry
// an empty `final_regs`. Consumers that need architectural state (the
// oracle tests) always run the simulator directly.
impl regless_json::ToJson for RunReport {
    fn to_json(&self) -> regless_json::Json {
        regless_json::Json::Obj(vec![
            ("cycles".into(), regless_json::ToJson::to_json(&self.cycles)),
            (
                "sm_stats".into(),
                regless_json::ToJson::to_json(&self.sm_stats),
            ),
            ("mem".into(), regless_json::ToJson::to_json(&self.mem)),
            (
                "warp_insns".into(),
                regless_json::ToJson::to_json(&self.warp_insns),
            ),
            (
                "wall_seconds".into(),
                regless_json::ToJson::to_json(&self.wall_seconds),
            ),
        ])
    }
}

impl regless_json::FromJson for RunReport {
    fn from_json(v: &regless_json::Json) -> Result<Self, regless_json::JsonError> {
        Ok(RunReport {
            cycles: regless_json::FromJson::from_json(v.field("cycles")?)?,
            sm_stats: regless_json::FromJson::from_json(v.field("sm_stats")?)?,
            mem: regless_json::FromJson::from_json(v.field("mem")?)?,
            final_regs: Vec::new(),
            warp_insns: regless_json::FromJson::from_json(v.field("warp_insns")?)?,
            wall_seconds: regless_json::FromJson::from_json(v.field("wall_seconds")?)?,
            telemetry: None,
        })
    }
}

impl RunReport {
    /// The deterministic JSON view of this report: everything [`ToJson`]
    /// serializes *except* `wall_seconds`, which is wall-clock noise. Two
    /// runs of the same kernel under the same design produce byte-identical
    /// `stable_json` strings, which is what the serving layer returns to
    /// clients and what byte-identity tests compare, whether a run was
    /// simulated directly, coalesced, or replayed from the sweep cache.
    ///
    /// [`ToJson`]: regless_json::ToJson
    pub fn stable_json(&self) -> regless_json::Json {
        regless_json::Json::Obj(vec![
            ("cycles".into(), regless_json::ToJson::to_json(&self.cycles)),
            (
                "sm_stats".into(),
                regless_json::ToJson::to_json(&self.sm_stats),
            ),
            ("mem".into(), regless_json::ToJson::to_json(&self.mem)),
            (
                "warp_insns".into(),
                regless_json::ToJson::to_json(&self.warp_insns),
            ),
        ])
    }

    /// Merged counters across SMs.
    pub fn total(&self) -> SmStats {
        let mut t = SmStats::default();
        for s in &self.sm_stats {
            t.merge(s);
        }
        t
    }

    /// Instructions per cycle across the GPU.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.total().insns as f64 / self.cycles as f64
    }

    /// The whole-GPU CPI stack (all SMs' issue slots merged).
    pub fn issue_stack(&self) -> IssueStack {
        let mut total = IssueStack::new();
        for s in &self.sm_stats {
            total.merge(&s.issue_stack);
        }
        total
    }

    /// The whole-GPU per-cause OSU eviction stack (all SMs merged). Its
    /// total equals [`SmStats::osu_lines_evicted`] summed across SMs —
    /// the eviction-accounting conservation law.
    pub fn eviction_stack(&self) -> regless_telemetry::EvictionStack {
        let mut total = regless_telemetry::EvictionStack::new();
        for s in &self.sm_stats {
            total.merge(&s.eviction_stack);
        }
        total
    }

    /// The `n` regions with the most stalled issue slots, merged across
    /// SMs: `(region id, stack)` sorted by stalled slots descending (ties
    /// by region id, so the order is deterministic).
    pub fn region_hotspots(&self, n: usize) -> Vec<(u32, IssueStack)> {
        let mut rows: Vec<(u32, IssueStack)> = self
            .total()
            .charged_regions()
            .map(|(region, stack)| (region, *stack))
            .collect();
        rows.sort_by_key(|&(region, ref stack)| (std::cmp::Reverse(stack.stalled()), region));
        rows.truncate(n);
        rows
    }
}

/// A whole GPU: SMs sharing one memory hierarchy, all running the same
/// compiled kernel (the usual SPMD launch).
pub struct Machine<B> {
    mem: MemSystem,
    sms: Vec<Sm<B>>,
    config: GpuConfig,
    cancel: Option<crate::CancelToken>,
    /// Host-side self profiler timing where the simulator's own wall time
    /// goes (issue vs writeback vs backend vs stats windows). `None` unless
    /// `REGLESS_SELFPROF` is set or a caller attached one; purely a
    /// host-clock observer, so reports stay byte-identical either way.
    selfprof: Option<Arc<SelfProfiler>>,
    /// Whether the profiler was auto-created from the environment (then
    /// the run loop prints its table to stderr at the end, since nobody
    /// else holds a handle to it).
    selfprof_auto: bool,
}

impl<B: OperandBackend> Machine<B> {
    /// Build a machine; `make_backend` constructs each SM's backend.
    pub fn new(
        config: GpuConfig,
        compiled: Arc<CompiledKernel>,
        mut make_backend: impl FnMut(usize) -> B,
    ) -> Self {
        config.validate();
        let mem = MemSystem::new(&config);
        let sms = (0..config.num_sms)
            .map(|i| Sm::new(i, &config, Arc::clone(&compiled), make_backend(i)))
            .collect();
        let selfprof_auto = SelfProfiler::env_enabled();
        Machine {
            mem,
            sms,
            config,
            cancel: None,
            selfprof: selfprof_auto.then(|| Arc::new(SelfProfiler::new(true))),
            selfprof_auto,
        }
    }

    /// Attach a shared [`SelfProfiler`]: the run loop records host time
    /// per phase into it, and the caller keeps the handle to render or
    /// export afterwards. Overrides the `REGLESS_SELFPROF` auto-profiler
    /// (and its end-of-run stderr table).
    pub fn attach_self_profiler(&mut self, prof: Arc<SelfProfiler>) {
        self.selfprof = Some(prof);
        self.selfprof_auto = false;
    }

    /// Attach a cooperative [`crate::CancelToken`]: the run loop polls it
    /// every cycle and returns [`SimError::Cancelled`] once it trips, so a
    /// controller (deadline timer, serving layer) can stop a simulation
    /// without orphaning the thread that runs it.
    pub fn set_cancel_token(&mut self, token: crate::CancelToken) {
        self.cancel = Some(token);
    }

    /// Run to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MaxCyclesExceeded`] if the configured cycle
    /// limit is hit first.
    pub fn run(mut self) -> Result<RunReport, SimError> {
        let started = std::time::Instant::now();
        let prof = self.selfprof.clone();
        let mut now: Cycle = 0;
        while !self.sms.iter().all(Sm::all_done) {
            if let Some(token) = &self.cancel {
                if token.should_stop(now) {
                    return Err(SimError::Cancelled { at_cycle: now });
                }
            }
            if now >= self.config.max_cycles {
                return Err(SimError::MaxCyclesExceeded {
                    limit: self.config.max_cycles,
                    unfinished: self
                        .sms
                        .iter()
                        .map(|sm| sm.warps.iter().filter(|w| !w.finished()).count())
                        .collect(),
                });
            }
            for sm in &mut self.sms {
                sm.tick(now, &mut self.mem, prof.as_deref());
            }
            now += 1;
        }
        let final_regs = self
            .sms
            .iter()
            .map(|sm| sm.warps.iter().map(|w| w.regs.clone()).collect())
            .collect();
        let warp_insns = self
            .sms
            .iter()
            .map(|sm| sm.warps.iter().map(|w| w.insns_issued).collect())
            .collect();
        let mut sm_stats: Vec<SmStats> = self
            .sms
            .into_iter()
            .map(|mut sm| {
                sm.backend.finish(&mut sm.stats);
                sm.stats
            })
            .collect();
        let telemetry = collect_telemetry(&mut sm_stats, &self.mem.stats, now);
        if self.selfprof_auto {
            // Env-activated profiler: nobody else holds the handle, so the
            // run loop itself surfaces the breakdown (stderr keeps stdout
            // JSON pipelines clean).
            if let Some(p) = &prof {
                let table = p.render_table("sim");
                if !table.is_empty() {
                    eprintln!("{table}");
                }
            }
        }
        Ok(RunReport {
            cycles: now,
            sm_stats,
            mem: self.mem.stats,
            final_regs,
            warp_insns,
            wall_seconds: started.elapsed().as_secs_f64(),
            telemetry,
        })
    }

    /// The machine's SMs (inspection in tests).
    pub fn sms(&self) -> &[Sm<B>] {
        &self.sms
    }

    /// Attach a telemetry recorder to every SM, each buffering up to
    /// `events_per_sm` structured events (counters, histograms, and time
    /// series are unbounded). The merged telemetry comes back in
    /// [`RunReport::telemetry`].
    pub fn attach_telemetry(&mut self, events_per_sm: usize) {
        for (i, sm) in self.sms.iter_mut().enumerate() {
            sm.stats.recorder = Some(Box::new(
                regless_telemetry::MemoryRecorder::new(events_per_sm).with_group(i as u16),
            ));
        }
    }
}

/// Drain every SM's recorder, merge into one [`regless_telemetry::Telemetry`],
/// and fold the headline run counters into the exported view so summaries
/// are self-contained.
fn collect_telemetry(
    sm_stats: &mut [SmStats],
    mem: &MemStats,
    cycles: Cycle,
) -> Option<Box<regless_telemetry::Telemetry>> {
    let mut merged = regless_telemetry::Telemetry::new();
    let mut any = false;
    for s in sm_stats.iter_mut() {
        if let Some(rec) = s.recorder.take() {
            merged.merge(rec.into_telemetry());
            any = true;
        }
    }
    if !any {
        return None;
    }
    let mut total = SmStats::default();
    for s in sm_stats.iter() {
        total.merge(s);
    }
    merged.add_counter("cycles", cycles);
    merged.add_counter("sm.insns", total.insns);
    merged.add_counter("sm.meta_insns", total.meta_insns);
    merged.add_counter("sm.idle_slots", total.idle_slots);
    // The CPI stack, as `stall.<reason>` counters (summaries stay
    // self-contained without re-deriving the stack from SmStats).
    for (reason, slots) in total.issue_stack.entries() {
        merged.add_counter(reason.counter_name(), slots);
    }
    merged.add_counter("preload.osu", total.preloads_osu);
    merged.add_counter("preload.compressor", total.preloads_compressor);
    merged.add_counter("preload.l1", total.preloads_l1);
    merged.add_counter("preload.l2_dram", total.preloads_l2_dram);
    merged.add_counter("osu.reads", total.osu_reads);
    merged.add_counter("osu.writes", total.osu_writes);
    merged.add_counter("osu.tag_probes", total.osu_tag_probes);
    merged.add_counter("osu.bank_conflicts", total.osu_bank_conflicts);
    merged.add_counter("compressor.matches", total.compressor_matches);
    merged.add_counter("compressor.compressed", total.compressor_compressed);
    // Per-cause evictions as `evict.<reason>` counters, plus the OSU's
    // mechanical total they must sum to.
    merged.add_counter("osu.lines_evicted", total.osu_lines_evicted);
    for (reason, lines) in total.eviction_stack.entries() {
        merged.add_counter(reason.counter_name(), lines);
    }
    // Compressor effectiveness: per-pattern hits and staging byte traffic.
    merged.add_counter("compressor.pattern.constant", total.comp_constant);
    merged.add_counter("compressor.pattern.stride1", total.comp_stride1);
    merged.add_counter("compressor.pattern.stride4", total.comp_stride4);
    merged.add_counter("compressor.pattern.half_stride1", total.comp_half_stride1);
    merged.add_counter("compressor.pattern.half_stride4", total.comp_half_stride4);
    merged.add_counter("compressor.incompressible", total.comp_incompressible);
    merged.add_counter("compressor.bytes_in", total.comp_bytes_in);
    merged.add_counter("compressor.bytes_out", total.comp_bytes_out);
    merged.add_counter("regions.activated", total.regions_activated);
    merged.add_counter("regions.active_cycles", total.region_active_cycles);
    merged.add_counter("reg.stores_l1", total.reg_stores_l1);
    merged.add_counter("reg.invalidate_l1", total.reg_invalidate_l1);
    merged.add_counter("mem.l1_data_accesses", mem.l1_data_accesses);
    merged.add_counter("mem.l1_reg_accesses", mem.l1_reg_accesses);
    merged.add_counter("mem.l1_hits", mem.l1_hits);
    merged.add_counter("mem.l1_misses", mem.l1_misses);
    merged.add_counter("mem.l2_accesses", mem.l2_accesses);
    merged.add_counter("mem.dram_accesses", mem.dram_accesses);
    Some(Box::new(merged))
}

/// Convenience runner for the baseline register-file design.
pub fn run_baseline(
    config: GpuConfig,
    compiled: Arc<CompiledKernel>,
) -> Result<RunReport, SimError> {
    Machine::new(config, compiled, |_| crate::backend::BaselineRf::new()).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use regless_compiler::{compile, RegionConfig};
    use regless_isa::KernelBuilder;

    fn compiled(kernel: regless_isa::Kernel) -> Arc<CompiledKernel> {
        Arc::new(compile(&kernel, &RegionConfig::default()).unwrap())
    }

    fn straight_line() -> Arc<CompiledKernel> {
        let mut b = KernelBuilder::new("s");
        let i = b.thread_idx();
        let x = b.iadd(i, i);
        let y = b.imul(x, i);
        b.st_global(y, i);
        b.exit();
        compiled(b.finish().unwrap())
    }

    #[test]
    fn baseline_runs_to_completion() {
        let report = run_baseline(GpuConfig::test_small(), straight_line()).unwrap();
        let total = report.total();
        // 8 warps x 5 instructions.
        assert_eq!(total.insns, 8 * 5);
        assert!(report.cycles > 0);
        assert!(total.rf_reads > 0 && total.rf_writes > 0);
    }

    #[test]
    fn load_latency_delays_dependents() {
        // Dependent chain through a global load must take at least the
        // L2 latency (data bypasses L1).
        let mut b = KernelBuilder::new("lat");
        let i = b.thread_idx();
        let v = b.ld_global(i);
        let x = b.iadd(v, v);
        b.st_global(x, i);
        b.exit();
        let c = compiled(b.finish().unwrap());
        let config = GpuConfig {
            warps_per_sm: 2,
            warps_per_block: 2,
            schedulers_per_sm: 2,
            ..GpuConfig::test_small()
        };
        let report = run_baseline(config, c).unwrap();
        assert!(
            report.cycles >= GpuConfig::test_small().l2.hit_latency,
            "cycles {} should cover L2 latency",
            report.cycles
        );
    }

    #[test]
    fn divergent_kernel_executes_both_paths() {
        let mut b = KernelBuilder::new("div");
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let lane = b.lane_idx();
        let half = b.movi(16);
        let c = b.setlt(lane, half);
        b.bra(c, t, e);
        b.select(t);
        let a1 = b.iadd(lane, lane);
        b.st_global(a1, lane);
        b.jmp(j);
        b.select(e);
        let a2 = b.imul(lane, lane);
        b.st_global(a2, lane);
        b.jmp(j);
        b.select(j);
        b.exit();
        let report = run_baseline(GpuConfig::test_small(), compiled(b.finish().unwrap())).unwrap();
        // Both sides execute: 4 + 3 + 3 + 1 instructions per warp.
        assert_eq!(report.total().insns, 8 * 11);
    }

    #[test]
    fn barrier_synchronizes_all_warps() {
        let mut b = KernelBuilder::new("bar");
        let i = b.thread_idx();
        let x = b.iadd(i, i);
        b.bar();
        let y = b.imul(x, x);
        b.st_global(y, i);
        b.exit();
        let report = run_baseline(GpuConfig::test_small(), compiled(b.finish().unwrap())).unwrap();
        assert_eq!(report.total().insns, 8 * 6);
    }

    #[test]
    fn loop_kernel_terminates() {
        let mut b = KernelBuilder::new("loop");
        let body = b.new_block();
        let done = b.new_block();
        let i0 = b.movi(0);
        let n = b.movi(16);
        b.jmp(body);
        b.select(body);
        let one = b.movi(1);
        b.emit_to(i0, Opcode::IAdd, vec![i0, one]);
        let c = b.setlt(i0, n);
        b.bra(c, body, done);
        b.select(done);
        b.exit();
        let report = run_baseline(GpuConfig::test_small(), compiled(b.finish().unwrap())).unwrap();
        // 16 iterations x 4 body insns + 3 prologue + 1 exit per warp.
        assert_eq!(report.total().insns, 8 * (16 * 4 + 4));
    }

    #[test]
    fn pre_cancelled_token_stops_the_run_immediately() {
        let token = crate::CancelToken::new();
        token.cancel();
        let mut machine = Machine::new(GpuConfig::test_small(), straight_line(), |_| {
            crate::backend::BaselineRf::new()
        });
        machine.set_cancel_token(token);
        match machine.run() {
            Err(e) => assert_eq!(e, SimError::Cancelled { at_cycle: 0 }),
            Ok(_) => panic!("pre-cancelled run must not complete"),
        }
    }

    #[test]
    fn cancel_mid_run_reports_the_observed_cycle() {
        // A token cancelled from another thread shortly after the run
        // starts must stop the simulation cooperatively rather than let it
        // finish; a long-looping kernel guarantees the window.
        let mut b = KernelBuilder::new("long");
        let body = b.new_block();
        let done = b.new_block();
        let i0 = b.movi(0);
        let n = b.movi(1_000_000);
        b.jmp(body);
        b.select(body);
        let one = b.movi(1);
        b.emit_to(i0, Opcode::IAdd, vec![i0, one]);
        let c = b.setlt(i0, n);
        b.bra(c, body, done);
        b.select(done);
        b.exit();
        let token = crate::CancelToken::new();
        let canceller = token.clone();
        let mut machine = Machine::new(
            GpuConfig::test_small(),
            compiled(b.finish().unwrap()),
            |_| crate::backend::BaselineRf::new(),
        );
        machine.set_cancel_token(token);
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            canceller.cancel();
        });
        match machine.run() {
            Err(SimError::Cancelled { .. }) => {}
            other => panic!("expected cancellation, got {other:?}"),
        }
        t.join().unwrap();
    }

    #[test]
    fn uncancelled_token_leaves_the_report_byte_identical() {
        let plain = run_baseline(GpuConfig::test_small(), straight_line()).unwrap();
        let mut machine = Machine::new(GpuConfig::test_small(), straight_line(), |_| {
            crate::backend::BaselineRf::new()
        });
        machine.set_cancel_token(crate::CancelToken::new());
        let with_token = machine.run().unwrap();
        assert_eq!(
            plain.stable_json().to_string_compact(),
            with_token.stable_json().to_string_compact()
        );
    }

    #[test]
    fn ipc_bounded_by_schedulers() {
        let report = run_baseline(GpuConfig::test_small(), straight_line()).unwrap();
        assert!(report.ipc() <= GpuConfig::test_small().schedulers_per_sm as f64);
    }

    #[test]
    fn working_set_tracked() {
        let mut b = KernelBuilder::new("ws");
        let body = b.new_block();
        let done = b.new_block();
        let i0 = b.movi(0);
        let n = b.movi(200);
        b.jmp(body);
        b.select(body);
        let one = b.movi(1);
        b.emit_to(i0, Opcode::IAdd, vec![i0, one]);
        let c = b.setlt(i0, n);
        b.bra(c, body, done);
        b.select(done);
        b.exit();
        let report = run_baseline(GpuConfig::test_small(), compiled(b.finish().unwrap())).unwrap();
        assert!(!report.sm_stats[0].working_set.samples().is_empty());
        assert!(report.sm_stats[0].working_set.mean_kb() > 0.0);
    }

    use regless_isa::Opcode;
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn wb(id: usize) -> Writeback {
        Writeback {
            warp: id,
            at: InsnRef {
                block: regless_isa::BlockId(0),
                idx: 0,
            },
            reg: Reg(0),
            value: LaneVec::splat(id as u32),
        }
    }

    /// Writeback latencies: zero (already due when pushed), short, and
    /// memory-long, each often enough to collide with the others.
    fn arb_latency() -> impl Strategy<Value = Cycle> {
        (0u8..3, 0u64..200).prop_map(|(kind, x)| match kind {
            0 => x % 2,
            1 => x % 40,
            _ => 900 + x,
        })
    }

    proptest! {
        /// The queue hands back each payload in the `(due, seq)` order of
        /// a heap holding whole writebacks, while slab slots are freed and
        /// reused underneath.
        #[test]
        fn writeback_queue_matches_a_heap(
            steps in proptest::collection::vec((0u64..40, proptest::collection::vec(arb_latency(), 0..4)), 1..200),
        ) {
            let mut queue = WritebackQueue::new();
            let mut heap: BinaryHeap<Reverse<(Cycle, u64, usize)>> = BinaryHeap::new();
            let (mut now, mut seq) = (0, 0);
            for (advance, dues) in steps {
                now += advance;
                loop {
                    let expected = heap.peek().filter(|r| r.0 .0 <= now).map(|r| r.0 .2);
                    if expected.is_some() {
                        heap.pop();
                    }
                    prop_assert_eq!(
                        queue.pop_due(now).map(|w| (w.warp, w.value)),
                        expected.map(|id| (id, LaneVec::splat(id as u32)))
                    );
                    if expected.is_none() {
                        break;
                    }
                }
                for offset in dues {
                    queue.push(now + offset, wb(seq as usize));
                    heap.push(Reverse((now + offset, seq, seq as usize)));
                    seq += 1;
                }
                prop_assert_eq!(queue.is_empty(), heap.is_empty());
            }
        }
    }
}
