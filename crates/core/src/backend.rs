//! The RegLess operand backend: capacity managers, OSUs, and compressors
//! wired into the SM pipeline (paper §5, Figure 8).

use crate::cm::{CapacityManager, WarpPhase};
use crate::compressor::{Compressor, PatternKind, StoreOutcome};
use crate::config::RegLessConfig;
use crate::osu::{runtime_bank, EvictedLine, InstallResult, Osu};
use crate::regmem::{RegisterBacking, RegisterMemoryMap, REG_LINE_BYTES};
use regless_compiler::{CompiledKernel, LastUse, NUM_BANKS};
use regless_isa::{InsnRef, Instruction, LaneVec, Reg};
use regless_sim::{
    BackendCtx, Cycle, EvictionReason, GpuConfig, Level, OperandBackend, PreloadSource, SmStats,
    TraceEvent, Traffic, WarpState,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// A queued preload (one per region input register).
#[derive(Clone, Copy, Debug)]
struct QueuedPreload {
    warp: usize,
    reg: Reg,
    invalidate: bool,
}

/// One scheduler shard's RegLess hardware.
struct Shard {
    cm: CapacityManager,
    osu: Osu,
    compressor: Compressor,
    queues: [VecDeque<QueuedPreload>; NUM_BANKS],
    /// (completion cycle, warp) of in-flight preload fetches.
    inflight: BinaryHeap<Reverse<(Cycle, usize)>>,
    /// Cache-invalidation requests awaiting the L1 port.
    invalidations: VecDeque<(usize, Reg)>,
}

impl Shard {
    fn quiesced(&self) -> bool {
        self.inflight.is_empty()
            && self.invalidations.is_empty()
            && self.queues.iter().all(VecDeque::is_empty)
    }
}

/// Telemetry series names for the recorder-gated per-bank occupancy
/// samples (the `Recorder` API wants `&'static str` names).
const BANK_OCCUPANCY_SERIES: [&str; NUM_BANKS] = [
    "osu.bank0.active",
    "osu.bank1.active",
    "osu.bank2.active",
    "osu.bank3.active",
    "osu.bank4.active",
    "osu.bank5.active",
    "osu.bank6.active",
    "osu.bank7.active",
];

/// The [`SmStats`] counter a compressor pattern hit increments.
fn pattern_counter(stats: &mut SmStats, kind: PatternKind) -> &mut u64 {
    match kind {
        PatternKind::Constant => &mut stats.comp_constant,
        PatternKind::Stride1 => &mut stats.comp_stride1,
        PatternKind::Stride4 => &mut stats.comp_stride4,
        PatternKind::HalfStride1 => &mut stats.comp_half_stride1,
        PatternKind::HalfStride4 => &mut stats.comp_half_stride4,
    }
}

/// Rotate the compiler's per-bank usage vector by the warp id: at run time
/// register `r` of warp `w` maps to bank `(w + r) % 8`, so the compile-time
/// vector (indexed by `r % 8`) shifts by `w % 8`.
fn rotated_usage(usage: &[u16; NUM_BANKS], warp: usize) -> [usize; NUM_BANKS] {
    let mut out = [0usize; NUM_BANKS];
    for (r_bank, &count) in usage.iter().enumerate() {
        out[(r_bank + warp) % NUM_BANKS] = count as usize;
    }
    out
}

/// The RegLess [`OperandBackend`]: replaces the register file with operand
/// staging units actively managed from compiler annotations.
pub struct RegLessBackend {
    compiled: Arc<CompiledKernel>,
    shards: Vec<Shard>,
    backing: RegisterBacking,
    regmap: RegisterMemoryMap,
    num_scheds: usize,
    /// Earliest cycle each warp's region metadata finishes decoding; the
    /// region cannot activate before this (metadata instructions consume
    /// fetch/decode bandwidth, not issue slots — §5.4).
    meta_ready_at: Vec<Cycle>,
    /// Warps whose Exit issued but whose drain has not completed.
    finishing: Vec<bool>,
    /// Cycle each warp's current region activated (for residency stats).
    activated_at: Vec<Cycle>,
    /// Outstanding preloads per warp (queued + in flight), indexed by warp.
    /// Warps are sharded disjointly, so one flat array serves every shard.
    preloads_pending: Vec<usize>,
    /// Writebacks in flight per `(warp, register)` — a flat `warp ×
    /// num_regs` count array (the same register can have several writes
    /// outstanding), with a per-warp nonzero-entry count so drain setup
    /// can skip warps with nothing in flight.
    inflight_regs: InflightRegs,
}

/// Structure-of-arrays writeback-in-flight bookkeeping: counts laid out
/// `warp-major × num_regs`, replacing a per-warp `HashMap<Reg, u32>`.
struct InflightRegs {
    counts: Vec<u32>,
    /// Registers with a nonzero count, per warp.
    nonzero: Vec<u32>,
    num_regs: usize,
}

impl InflightRegs {
    fn new(warps: usize, num_regs: usize) -> Self {
        InflightRegs {
            counts: vec![0; warps * num_regs.max(1)],
            nonzero: vec![0; warps],
            num_regs: num_regs.max(1),
        }
    }

    fn incr(&mut self, w: usize, reg: Reg) {
        let c = &mut self.counts[w * self.num_regs + reg.index()];
        if *c == 0 {
            self.nonzero[w] += 1;
        }
        *c += 1;
    }

    /// Decrement; returns whether this was the register's last outstanding
    /// writeback (count reached zero). A register with no record is a
    /// no-op returning `false`, matching the old map's `get_mut` miss.
    fn decr(&mut self, w: usize, reg: Reg) -> bool {
        let c = &mut self.counts[w * self.num_regs + reg.index()];
        if *c == 0 {
            return false;
        }
        *c -= 1;
        if *c == 0 {
            self.nonzero[w] -= 1;
            true
        } else {
            false
        }
    }

    /// The warp's per-register counts (indexed by `Reg::index`).
    fn warp(&self, w: usize) -> &[u32] {
        &self.counts[w * self.num_regs..(w + 1) * self.num_regs]
    }
}

impl RegLessBackend {
    /// Build the backend for SM `sm`.
    ///
    /// # Panics
    ///
    /// Panics if the compiled kernel's region limits exceed the OSU shape
    /// (use [`RegLessConfig::region_config`] when compiling).
    pub fn new(
        sm: usize,
        gpu: &GpuConfig,
        config: &RegLessConfig,
        compiled: Arc<CompiledKernel>,
    ) -> Self {
        let lines_per_bank = config.lines_per_bank(gpu);
        assert!(
            compiled.config().max_regs_per_bank <= lines_per_bank,
            "kernel compiled for {} regs/bank but OSU banks hold {} lines; \
             compile with RegLessConfig::region_config",
            compiled.config().max_regs_per_bank,
            lines_per_bank
        );
        let num_scheds = gpu.schedulers_per_sm;
        let num_regs = compiled.kernel().num_regs() as usize;
        let shards = (0..num_scheds)
            .map(|s| {
                let warps: Vec<usize> = (0..gpu.warps_per_sm)
                    .filter(|w| w % num_scheds == s)
                    .collect();
                Shard {
                    cm: CapacityManager::with_order(
                        &warps,
                        gpu.warps_per_sm,
                        lines_per_bank,
                        config.activation_order,
                    ),
                    osu: Osu::new(lines_per_bank),
                    compressor: Compressor::with_patterns(
                        config.compressor_lines_per_shard,
                        gpu.warps_per_sm,
                        config.compressor_enabled,
                        config.compressor_patterns,
                    ),
                    queues: std::array::from_fn(|_| VecDeque::new()),
                    inflight: BinaryHeap::new(),
                    invalidations: VecDeque::new(),
                }
            })
            .collect();
        RegLessBackend {
            regmap: RegisterMemoryMap::for_sm(
                sm,
                gpu.warps_per_sm,
                compiled.kernel().num_regs() as usize,
            ),
            compiled,
            shards,
            backing: RegisterBacking::new(),
            num_scheds,
            meta_ready_at: vec![0; gpu.warps_per_sm],
            finishing: vec![false; gpu.warps_per_sm],
            activated_at: vec![0; gpu.warps_per_sm],
            preloads_pending: vec![0; gpu.warps_per_sm],
            inflight_regs: InflightRegs::new(gpu.warps_per_sm, num_regs),
        }
    }

    fn shard_of(&self, w: usize) -> usize {
        w % self.num_scheds
    }

    /// Charge one OSU eviction to its cause and trace it: every site that
    /// makes the OSU's internal `lines_evicted` counter tick must call
    /// this exactly once (the eviction-accounting conservation law).
    fn note_eviction(ctx: &mut BackendCtx<'_>, reason: EvictionReason, warp: usize, reg: Reg) {
        ctx.stats.eviction_stack.charge(reason);
        ctx.stats
            .trace_event(ctx.now, TraceEvent::OsuEvict { warp, reg, reason });
    }

    /// Begin draining warp `w`: free everything except lines whose
    /// writebacks are still in flight (paper §5.1). `inflight` is the
    /// warp's per-register outstanding-writeback counts
    /// ([`InflightRegs::warp`]).
    fn start_drain(shard: &mut Shard, inflight: &[u32], w: usize, ctx: &mut BackendCtx<'_>) {
        let mut pending = [0usize; NUM_BANKS];
        for (r, &count) in inflight.iter().enumerate() {
            if count > 0 {
                pending[runtime_bank(w, Reg(r as u16))] += 1;
            }
        }
        shard.cm.begin_drain(w, pending);
        let released = shard
            .osu
            .release_warp_except(w, |reg| inflight[reg.index()] > 0);
        for reg in released {
            Self::note_eviction(ctx, EvictionReason::RegionDrain, w, reg);
        }
    }

    /// Spill a displaced dirty line through the compressor (or to the L1
    /// uncompressed).
    fn spill(
        shard: &mut Shard,
        backing: &mut RegisterBacking,
        regmap: &RegisterMemoryMap,
        line: EvictedLine,
        ctx: &mut BackendCtx<'_>,
    ) {
        ctx.stats.compressor_matches += 1;
        ctx.stats.comp_bytes_in += REG_LINE_BYTES;
        match shard.compressor.store(line.warp, line.reg, &line.value) {
            StoreOutcome::Compressed { line_miss, kind } => {
                ctx.stats.compressor_compressed += 1;
                ctx.stats.comp_bytes_out += kind.payload_bytes() as u64;
                *pattern_counter(ctx.stats, kind) += 1;
                ctx.stats.trace_event(
                    ctx.now,
                    TraceEvent::CompressorStore {
                        warp: line.warp,
                        reg: line.reg,
                        compressed: true,
                    },
                );
                if line_miss {
                    let addr = regmap.compressed_line_addr(line.warp, line.reg);
                    ctx.mem
                        .access_line(ctx.sm, addr, true, Traffic::Register, ctx.now);
                    ctx.stats.reg_stores_l1 += 1;
                    ctx.stats.backing_series.record(ctx.now, 1);
                }
            }
            StoreOutcome::Incompressible => {
                ctx.stats.comp_incompressible += 1;
                ctx.stats.comp_bytes_out += REG_LINE_BYTES;
                ctx.stats.trace_event(
                    ctx.now,
                    TraceEvent::CompressorStore {
                        warp: line.warp,
                        reg: line.reg,
                        compressed: false,
                    },
                );
                backing.store(line.warp, line.reg, line.value);
                let addr = regmap.line_addr(line.warp, line.reg);
                ctx.mem
                    .access_line(ctx.sm, addr, true, Traffic::Register, ctx.now);
                ctx.stats.reg_stores_l1 += 1;
                ctx.stats.backing_series.record(ctx.now, 1);
            }
        }
    }

    /// Account for an OSU install's fallout: a clean victim dropped is a
    /// capacity preemption, a dirty victim displaced is a compressor
    /// spill, and a failed allocation counts against the reservation
    /// model.
    fn settle_install(
        shard: &mut Shard,
        backing: &mut RegisterBacking,
        regmap: &RegisterMemoryMap,
        result: InstallResult,
        ctx: &mut BackendCtx<'_>,
    ) {
        if let Some((warp, reg)) = result.dropped_clean {
            Self::note_eviction(ctx, EvictionReason::CapacityPreemption, warp, reg);
        }
        if result.failed {
            ctx.stats.reservation_overflows += 1;
        }
        if let Some(victim) = result.spilled {
            Self::note_eviction(
                ctx,
                EvictionReason::CompressorSpill,
                victim.warp,
                victim.reg,
            );
            Self::spill(shard, backing, regmap, victim, ctx);
        }
    }

    /// Process at most one preload per OSU bank (one tag probe per bank per
    /// cycle, §5.2.1).
    fn process_preloads(&mut self, shard_idx: usize, ctx: &mut BackendCtx<'_>) {
        let shard = &mut self.shards[shard_idx];
        for bank in 0..NUM_BANKS {
            let Some(p) = shard.queues[bank].pop_front() else {
                continue;
            };
            ctx.stats.osu_tag_probes += 1;
            let done;
            if shard.osu.promote(p.warp, p.reg) {
                ctx.stats.record_preload(PreloadSource::Osu);
                ctx.stats.trace_event(
                    ctx.now,
                    TraceEvent::Preload {
                        warp: p.warp,
                        reg: p.reg,
                        source: PreloadSource::Osu,
                    },
                );
                // A tag hit completes within the probe cycle: retire the
                // preload immediately so the warp can activate this cycle.
                done = ctx.now;
                if p.invalidate {
                    // The incoming value dies here: drop stale memory-side
                    // copies for free (the read carries the invalidation).
                    shard.compressor.invalidate(p.warp, p.reg);
                    self.backing.invalidate(p.warp, p.reg);
                    ctx.mem
                        .l1_drop_line(ctx.sm, self.regmap.line_addr(p.warp, p.reg));
                }
            } else if shard.compressor.is_compressed(p.warp, p.reg) {
                let hit = shard
                    .compressor
                    .load(p.warp, p.reg)
                    .expect("bit vector said so");
                let (source, when) = if hit.line_miss {
                    let addr = self.regmap.compressed_line_addr(p.warp, p.reg);
                    ctx.stats
                        .observe("l1.port_backlog", ctx.mem.l1_port_backlog(ctx.sm, ctx.now));
                    let a = ctx
                        .mem
                        .access_line(ctx.sm, addr, false, Traffic::Register, ctx.now);
                    ctx.stats.backing_series.record(ctx.now, 1);
                    let src = if a.serviced_by == Level::L1 {
                        PreloadSource::L1
                    } else {
                        PreloadSource::L2OrDram
                    };
                    match src {
                        PreloadSource::L1 => ctx.stats.preloads_l1 += 1,
                        _ => ctx.stats.preloads_l2_dram += 1,
                    }
                    ctx.stats.trace_event(
                        ctx.now,
                        TraceEvent::Preload {
                            warp: p.warp,
                            reg: p.reg,
                            source: src,
                        },
                    );
                    (None, a.done + 3)
                } else {
                    (Some(PreloadSource::Compressor), ctx.now + 3)
                };
                if let Some(s) = source {
                    ctx.stats.record_preload(s);
                    ctx.stats.trace_event(
                        ctx.now,
                        TraceEvent::Preload {
                            warp: p.warp,
                            reg: p.reg,
                            source: s,
                        },
                    );
                }
                let result = shard.osu.fill(p.warp, p.reg, hit.value);
                Self::settle_install(shard, &mut self.backing, &self.regmap, result, ctx);
                done = when;
                if p.invalidate {
                    shard.compressor.invalidate(p.warp, p.reg);
                }
            } else {
                let addr = self.regmap.line_addr(p.warp, p.reg);
                ctx.stats
                    .observe("l1.port_backlog", ctx.mem.l1_port_backlog(ctx.sm, ctx.now));
                let a = ctx
                    .mem
                    .access_line(ctx.sm, addr, false, Traffic::Register, ctx.now);
                ctx.stats.backing_series.record(ctx.now, 1);
                let src = if a.serviced_by == Level::L1 {
                    PreloadSource::L1
                } else {
                    PreloadSource::L2OrDram
                };
                ctx.stats.record_preload(src);
                ctx.stats.trace_event(
                    ctx.now,
                    TraceEvent::Preload {
                        warp: p.warp,
                        reg: p.reg,
                        source: src,
                    },
                );
                let value = self.backing.load(p.warp, p.reg);
                let result = shard.osu.fill(p.warp, p.reg, value);
                Self::settle_install(shard, &mut self.backing, &self.regmap, result, ctx);
                // The compressor bit-vector check adds one cycle to
                // non-compressed preloads (§5.3).
                done = a.done + 1;
                if p.invalidate {
                    self.backing.invalidate(p.warp, p.reg);
                    ctx.mem.l1_drop_line(ctx.sm, addr);
                }
            }
            ctx.stats
                .observe("preload.latency", done.saturating_sub(ctx.now));
            if done <= ctx.now {
                self.preloads_pending[p.warp] -= 1;
            } else {
                shard.inflight.push(Reverse((done, p.warp)));
            }
        }
    }
}

impl OperandBackend for RegLessBackend {
    fn begin_cycle_with_warps(&mut self, warps: &[WarpState], ctx: &mut BackendCtx<'_>) {
        // Sample the OSU/CM occupancy census once per stats window: live
        // (active) lines, CM-reserved lines, free lines, and the admission
        // queue depth. Always on — the series feed `regless report`'s
        // occupancy timeline whether or not a recorder is attached.
        if ctx.now.is_multiple_of(regless_sim::WINDOW_CYCLES) {
            let active: usize = self.shards.iter().map(|s| s.osu.active_lines()).sum();
            let reserved: usize = self.shards.iter().map(|s| s.cm.committed_total()).sum();
            let free: usize = self.shards.iter().map(|s| s.osu.free_lines()).sum();
            let queued: usize = self.shards.iter().map(|s| s.cm.queue_depth()).sum();
            ctx.stats.osu_occupancy.record(ctx.now, active as u64);
            ctx.stats
                .osu_reserved_series
                .record(ctx.now, reserved as u64);
            ctx.stats.osu_free_series.record(ctx.now, free as u64);
            ctx.stats.cm_queue_series.record(ctx.now, queued as u64);
            ctx.stats.sample("osu.occupancy", ctx.now, active as f64);
            ctx.stats.sample("osu.reserved", ctx.now, reserved as f64);
            ctx.stats.sample("osu.free", ctx.now, free as f64);
            ctx.stats.sample("cm.queue_depth", ctx.now, queued as f64);
            // Per-bank census only when a recorder is listening (it is an
            // 8-way fan-out of the same walk).
            if ctx.stats.telemetry_enabled() {
                for (bank, name) in BANK_OCCUPANCY_SERIES.iter().copied().enumerate() {
                    let live: usize = self.shards.iter().map(|s| s.osu.bank_states(bank).0).sum();
                    ctx.stats.sample(name, ctx.now, live as f64);
                }
            }
        }
        for s in 0..self.shards.len() {
            // 1. Complete in-flight preload fetches.
            {
                let shard = &mut self.shards[s];
                while let Some(&Reverse((done, w))) = shard.inflight.peek() {
                    if done > ctx.now {
                        break;
                    }
                    shard.inflight.pop();
                    self.preloads_pending[w] -= 1;
                }
            }

            // 2. Send one queued cache invalidation to the L1.
            {
                let shard = &mut self.shards[s];
                if let Some((w, reg)) = shard.invalidations.pop_front() {
                    let addr = self.regmap.line_addr(w, reg);
                    ctx.mem.invalidate_l1_line(ctx.sm, addr, ctx.now);
                    shard.compressor.invalidate(w, reg);
                    self.backing.invalidate(w, reg);
                    ctx.stats.reg_invalidate_l1 += 1;
                    ctx.stats.backing_series.record(ctx.now, 1);
                }
            }

            // 3. Process per-bank preload queues.
            self.process_preloads(s, ctx);

            let shard = &mut self.shards[s];

            // 4. Region transitions driven by warp PCs.
            for (w, warp) in warps.iter().enumerate().skip(s).step_by(self.num_scheds) {
                match shard.cm.phase(w) {
                    WarpPhase::Active(region) => {
                        let left_region = match warp.pc() {
                            None => true,
                            Some(pc) => self.compiled.region_at(pc) != region,
                        };
                        if left_region {
                            ctx.stats
                                .trace_event(ctx.now, TraceEvent::RegionDrain { warp: w });
                            Self::start_drain(shard, self.inflight_regs.warp(w), w, ctx);
                        }
                    }
                    WarpPhase::Preloading(_)
                        if self.preloads_pending[w] == 0 && ctx.now >= self.meta_ready_at[w] =>
                    {
                        let region = shard.cm.activate(w);
                        self.activated_at[w] = ctx.now;
                        ctx.stats.regions_activated += 1;
                        ctx.stats.trace_event(
                            ctx.now,
                            TraceEvent::RegionActivate {
                                warp: w,
                                region: region.0,
                            },
                        );
                    }
                    _ => {}
                }
                if let WarpPhase::Draining(_) = shard.cm.phase(w) {
                    if shard.cm.try_finish_drain(w, self.finishing[w]) {
                        let resident = ctx.now.saturating_sub(self.activated_at[w]);
                        ctx.stats.region_active_cycles += resident;
                        ctx.stats.observe("region.active_cycles", resident);
                        ctx.stats
                            .trace_event(ctx.now, TraceEvent::RegionRelease { warp: w });
                    }
                }
            }

            // 5. Admit the top stack warp if its next region fits.
            let compiled = &self.compiled;
            let finishing = &self.finishing;
            let started = shard.cm.try_start_preload(|w| {
                if finishing[w] || warps[w].finished() || warps[w].at_barrier {
                    return None;
                }
                let pc = warps[w].pc()?;
                let region = compiled.region_at(pc);
                let usage = rotated_usage(compiled.region(region).bank_usage(), w);
                Some((region, usage))
            });
            if let Some((w, region)) = started {
                ctx.stats.trace_event(
                    ctx.now,
                    TraceEvent::RegionPreload {
                        warp: w,
                        region: region.0,
                    },
                );
                let r = compiled.region(region);
                let preloads = r.preloads();
                self.preloads_pending[w] = preloads.len();
                if !preloads.is_empty() {
                    for p in preloads {
                        let bank = runtime_bank(w, p.reg);
                        shard.queues[bank].push_back(QueuedPreload {
                            warp: w,
                            reg: p.reg,
                            invalidate: p.invalidate,
                        });
                    }
                }
                for &reg in compiled.annotations().cache_invalidates(region) {
                    shard.invalidations.push_back((w, reg));
                }
                let meta = compiled.metadata().for_region(region) as u64;
                ctx.stats.meta_insns += meta;
                self.meta_ready_at[w] = ctx.now + meta;
            }
        }
    }

    fn warp_eligible(&mut self, w: usize, pc: InsnRef) -> bool {
        let shard = &self.shards[self.shard_of(w)];
        match shard.cm.phase(w) {
            WarpPhase::Active(region) => self.compiled.region_at(pc) == region,
            _ => false,
        }
    }

    fn issue_stall(&self, w: usize, _pc: InsnRef) -> Option<regless_sim::StallReason> {
        use regless_sim::StallReason;
        let shard = &self.shards[self.shard_of(w)];
        match shard.cm.phase(w) {
            // Inputs being staged into the OSU.
            WarpPhase::Preloading(_) => Some(StallReason::CmPreloadWait),
            // Stacked, waiting its turn. If the CM's last admission scan
            // denied a candidate for capacity, the slot is lost to OSU
            // space; otherwise the warp is simply behind in the preload
            // pipeline.
            WarpPhase::Inactive => Some(if shard.cm.admission_capacity_denied() {
                StallReason::OsuCapacityWait
            } else {
                StallReason::CmPreloadWait
            }),
            // Between regions: old region still draining, or the PC moved
            // past the active region's boundary.
            WarpPhase::Draining(_) | WarpPhase::Active(_) => Some(StallReason::Drain),
            WarpPhase::Finished => None,
        }
    }

    fn on_issue(
        &mut self,
        w: usize,
        at: InsnRef,
        insn: &Instruction,
        ctx: &mut BackendCtx<'_>,
    ) -> Cycle {
        let s = self.shard_of(w);
        let shard = &mut self.shards[s];
        ctx.stats.osu_reads += insn.srcs().len() as u64;
        // Each OSU bank ports one access per cycle: same-bank source reads
        // serialize (§5.2).
        let mut banks_seen = [false; NUM_BANKS];
        let mut extra = 0;
        for &srcr in insn.srcs() {
            let b = runtime_bank(w, srcr);
            if banks_seen[b] {
                extra += 1;
                ctx.stats.osu_bank_conflicts += 1;
            }
            banks_seen[b] = true;
        }
        // Apply last-use annotations after the reads.
        if let Some(notes) = self.compiled.annotations().notes(at) {
            for &(reg, kind) in &notes.last_uses {
                match kind {
                    LastUse::Erase => {
                        if shard.osu.erase(w, reg) {
                            Self::note_eviction(ctx, EvictionReason::DeadValueReclaim, w, reg);
                        }
                    }
                    LastUse::Evict => {
                        if shard.osu.release(w, reg) {
                            Self::note_eviction(ctx, EvictionReason::RegionDrain, w, reg);
                        }
                    }
                }
            }
        }
        shard.cm.note_issue(w, insn.dst().is_some());
        if let Some(d) = insn.dst() {
            self.inflight_regs.incr(w, d);
        }
        // Issuing the region's last instruction starts the drain right away
        // — the CM knows the boundary from the region metadata.
        if let WarpPhase::Active(region) = shard.cm.phase(w) {
            if at.idx + 1 == self.compiled.region(region).end() {
                ctx.stats
                    .trace_event(ctx.now, TraceEvent::RegionDrain { warp: w });
                Self::start_drain(shard, self.inflight_regs.warp(w), w, ctx);
            }
        }
        extra
    }

    fn on_writeback(
        &mut self,
        w: usize,
        at: InsnRef,
        reg: Reg,
        value: LaneVec,
        ctx: &mut BackendCtx<'_>,
    ) {
        let s = self.shard_of(w);
        let shard = &mut self.shards[s];
        ctx.stats.osu_writes += 1;
        let result = shard.osu.write(w, reg, value);
        let overflowed = result.failed;
        Self::settle_install(shard, &mut self.backing, &self.regmap, result, ctx);
        if overflowed {
            // Reservation model fell short (should be rare): write through
            // to memory so the value is never lost. This spill is not an
            // OSU eviction — no line was displaced — so it carries no
            // eviction cause.
            Self::spill(
                shard,
                &mut self.backing,
                &self.regmap,
                EvictedLine {
                    warp: w,
                    reg,
                    value,
                },
                ctx,
            );
        }
        let fully_landed = self.inflight_regs.decr(w, reg);
        if let Some(notes) = self.compiled.annotations().notes(at) {
            if notes.erase_on_write {
                if shard.osu.erase(w, reg) {
                    Self::note_eviction(ctx, EvictionReason::DeadValueReclaim, w, reg);
                }
            } else if notes.evict_on_write && shard.osu.release(w, reg) {
                Self::note_eviction(ctx, EvictionReason::RegionDrain, w, reg);
            }
        }
        shard.cm.note_writeback(w);
        // While draining, a landed register's line is released right away
        // and its slice of the reservation returned (paper §5.1).
        if fully_landed {
            if let WarpPhase::Draining(_) = shard.cm.phase(w) {
                if shard.osu.release(w, reg) {
                    Self::note_eviction(ctx, EvictionReason::RegionDrain, w, reg);
                }
                shard.cm.note_drain_release(w, runtime_bank(w, reg));
            }
        }
    }

    fn check_staged_operands(
        &self,
        w: usize,
        operands: &[(Reg, LaneVec)],
        stats: &mut regless_sim::SmStats,
    ) {
        let shard = &self.shards[self.shard_of(w)];
        for &(reg, expected) in operands {
            if let Some(staged) = shard.osu.read(w, reg) {
                if staged != expected {
                    stats.staging_mismatches += 1;
                    if std::env::var_os("REGLESS_DEBUG_STAGING").is_some() {
                        eprintln!("WRONG-VALUE w{w} {reg} staged {staged:?} expected {expected:?}");
                    }
                }
            } else {
                // A read with no staged line: the capacity-manager guarantee
                // ("instructions have their registers available in the OSU
                // as they execute") was violated.
                stats.staging_mismatches += 1;
                if std::env::var_os("REGLESS_DEBUG_STAGING").is_some() {
                    eprintln!("MISSING w{w} {reg} phase {:?}", shard.cm.phase(w));
                }
            }
        }
    }

    fn on_warp_finish(&mut self, w: usize, ctx: &mut BackendCtx<'_>) {
        self.finishing[w] = true;
        let s = self.shard_of(w);
        let shard = &mut self.shards[s];
        // `Exit` is its region's last instruction, so on_issue usually
        // started the drain already; only start one if it did not.
        if let WarpPhase::Active(_) = shard.cm.phase(w) {
            ctx.stats
                .trace_event(ctx.now, TraceEvent::RegionDrain { warp: w });
            Self::start_drain(shard, self.inflight_regs.warp(w), w, ctx);
        }
    }

    fn quiesced(&self) -> bool {
        self.shards.iter().all(Shard::quiesced)
    }

    fn finish(&mut self, stats: &mut SmStats) {
        // Publish the OSU's mechanical eviction count; the final cycle can
        // evict lines after the last `begin_cycle`, so this happens once
        // at run end rather than per cycle.
        stats.osu_lines_evicted = self.shards.iter().map(|s| s.osu.lines_evicted()).sum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_rotation_shifts_by_warp() {
        let usage = [3, 1, 0, 0, 0, 0, 0, 2];
        let r0 = rotated_usage(&usage, 0);
        assert_eq!(r0, [3, 1, 0, 0, 0, 0, 0, 2]);
        let r1 = rotated_usage(&usage, 1);
        assert_eq!(r1, [2, 3, 1, 0, 0, 0, 0, 0]);
        let r9 = rotated_usage(&usage, 9);
        assert_eq!(r9, r1, "rotation is mod 8");
        // Totals are invariant.
        assert_eq!(r1.iter().sum::<usize>(), usage.iter().sum::<u16>() as usize);
    }
}

#[cfg(test)]
mod backend_tests {
    use super::*;
    use regless_compiler::compile;
    use regless_isa::KernelBuilder;
    use regless_sim::{GpuConfig, MemSystem, SmStats};

    fn setup() -> (GpuConfig, Arc<CompiledKernel>) {
        let gpu = GpuConfig::test_small();
        let cfg = RegLessConfig::paper_default();
        let mut b = KernelBuilder::new("unit");
        let next = b.new_block();
        let x = b.movi(1);
        let y = b.movi(2);
        let z = b.iadd(x, y);
        b.jmp(next);
        b.select(next);
        let w = b.imul(z, z);
        b.st_global(w, z);
        b.exit();
        let kernel = b.finish().unwrap();
        let compiled = Arc::new(compile(&kernel, &cfg.region_config(&gpu)).unwrap());
        (gpu, compiled)
    }

    #[test]
    fn first_region_needs_no_preloads_and_activates() {
        let (gpu, compiled) = setup();
        let cfg = RegLessConfig::paper_default();
        let mut backend = RegLessBackend::new(0, &gpu, &cfg, Arc::clone(&compiled));
        let mut mem = MemSystem::new(&gpu);
        let mut stats = SmStats::default();
        let warps: Vec<regless_sim::WarpState> = (0..gpu.warps_per_sm)
            .map(|_| regless_sim::WarpState::new(compiled.kernel()))
            .collect();
        let pc = warps[0].pc().unwrap();
        assert!(!backend.warp_eligible(0, pc), "inactive warp cannot issue");
        // Cycle 0: admission; the entry region has no inputs, so within a
        // couple of cycles the warp activates.
        for now in 0..4 {
            let mut ctx = BackendCtx {
                sm: 0,
                now,
                mem: &mut mem,
                stats: &mut stats,
            };
            backend.begin_cycle_with_warps(&warps, &mut ctx);
        }
        assert!(backend.warp_eligible(0, pc), "warp should be active");
        assert!(stats.regions_activated >= 1);
    }

    #[test]
    fn writeback_allocates_an_osu_line_with_the_value() {
        let (gpu, compiled) = setup();
        let cfg = RegLessConfig::paper_default();
        let mut backend = RegLessBackend::new(0, &gpu, &cfg, Arc::clone(&compiled));
        let mut mem = MemSystem::new(&gpu);
        let mut stats = SmStats::default();
        let at = regless_isa::InsnRef {
            block: regless_isa::BlockId(0),
            idx: 0,
        };
        // Activate warp 0 first so the write lands in an active region.
        let warps: Vec<regless_sim::WarpState> = (0..gpu.warps_per_sm)
            .map(|_| regless_sim::WarpState::new(compiled.kernel()))
            .collect();
        for now in 0..4 {
            let mut ctx = BackendCtx {
                sm: 0,
                now,
                mem: &mut mem,
                stats: &mut stats,
            };
            backend.begin_cycle_with_warps(&warps, &mut ctx);
        }
        let mut ctx = BackendCtx {
            sm: 0,
            now: 5,
            mem: &mut mem,
            stats: &mut stats,
        };
        backend.on_writeback(0, at, Reg(0), LaneVec::splat(77), &mut ctx);
        assert_eq!(stats.osu_writes, 1);
        // The staged-operand oracle sees the value.
        let ops = [(Reg(0), LaneVec::splat(77))];
        backend.check_staged_operands(0, &ops, &mut stats);
        assert_eq!(stats.staging_mismatches, 0);
        // A mismatching expectation is caught.
        let bad = [(Reg(0), LaneVec::splat(78))];
        backend.check_staged_operands(0, &bad, &mut stats);
        assert_eq!(stats.staging_mismatches, 1);
    }

    #[test]
    fn quiesced_when_no_work_pending() {
        let (gpu, compiled) = setup();
        let cfg = RegLessConfig::paper_default();
        let backend = RegLessBackend::new(0, &gpu, &cfg, compiled);
        assert!(backend.quiesced());
    }
}
