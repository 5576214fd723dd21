//! RegDem: compiler-directed register demotion of Sakdhnagool et al.
//! (arXiv 1907.02894), the registry's first related-work entry.
//!
//! RegDem shrinks the register file by statically **demoting cold
//! registers to a shared-memory scratch partition**: the compiler ranks
//! each architectural register by static use count, keeps the hottest
//! ones in a half-size RF, and rewrites accesses to the rest as
//! spill/fill traffic against shared memory. We model the two costs that
//! make the trade interesting: every cold-operand access pays the
//! shared-memory latency on top of the instruction's own, and the scratch
//! partition is a finite per-SM resource, so warps whose spill slabs do
//! not fit are throttled exactly like RFV's pool admission (charged
//! through [`regless_sim::StallReason::OsuCapacityWait`]).

use regless_compiler::CompiledKernel;
use regless_isa::{InsnRef, Instruction, LaneVec, Reg};
use regless_sim::{BackendCtx, Cycle, GpuConfig, OperandBackend};
use std::collections::HashSet;
use std::sync::Arc;

/// Shared-memory scratch partition reserved for demoted registers, per
/// SM. `GpuConfig` does not model a shared-memory capacity, so this is a
/// backend constant: half of a Maxwell SM's 96 KB shared memory, matching
/// RegDem's "borrow shared memory the kernel does not use" framing.
pub const SCRATCH_BYTES_PER_SM: usize = 48 * 1024;

/// The RegDem operand backend.
pub struct RegDemBackend {
    compiled: Arc<CompiledKernel>,
    /// Registers kept in the (half-size) register file.
    hot: HashSet<Reg>,
    /// How many warps' spill slabs fit the scratch partition at once.
    cap: usize,
    /// Shared-memory access latency charged per cold-operand instruction.
    spill_latency: Cycle,
    admitted: HashSet<usize>,
    finished: HashSet<usize>,
    warps_per_sm: usize,
}

impl RegDemBackend {
    /// Build the backend: rank registers by static use count, keep the
    /// hottest `hot_budget` in a half-size RF, demote the rest.
    pub fn new(gpu: &GpuConfig, compiled: Arc<CompiledKernel>) -> Self {
        let kernel = compiled.kernel();
        let num_regs = kernel.num_regs() as usize;
        let mut uses = vec![0u64; num_regs];
        for (_, insn) in kernel.iter_insns() {
            for &src in insn.srcs() {
                uses[src.0 as usize] += 1;
            }
            if let Some(dst) = insn.dst() {
                uses[dst.0 as usize] += 1;
            }
        }
        // Half-size RF, shared evenly across resident warps; ties break
        // toward the lower register id so the split is deterministic.
        let half_entries = (gpu.rf_bytes_per_sm / 2) / 128;
        let hot_budget = (half_entries / gpu.warps_per_sm).max(1);
        let mut ranked: Vec<(u64, usize)> = uses.iter().enumerate().map(|(r, &n)| (n, r)).collect();
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let hot: HashSet<Reg> = ranked
            .iter()
            .take(hot_budget)
            .map(|&(_, r)| Reg(r as u16))
            .collect();
        let cold_regs = num_regs.saturating_sub(hot.len());
        let cap = if cold_regs == 0 {
            gpu.warps_per_sm
        } else {
            (SCRATCH_BYTES_PER_SM / (cold_regs * 128)).max(1)
        };
        RegDemBackend {
            compiled,
            hot,
            cap,
            spill_latency: gpu.latency.shared_mem,
            admitted: HashSet::new(),
            finished: HashSet::new(),
            warps_per_sm: gpu.warps_per_sm,
        }
    }

    /// Whether `reg` stays in the register file (vs the scratch
    /// partition).
    pub fn is_hot(&self, reg: Reg) -> bool {
        self.hot.contains(&reg)
    }

    /// How many warps' spill slabs fit the scratch partition at once.
    pub fn concurrent_warps(&self) -> usize {
        self.cap
    }
}

impl OperandBackend for RegDemBackend {
    fn begin_cycle(&mut self, ctx: &mut BackendCtx<'_>) {
        // Admit warps in id order while their spill slabs fit.
        if self.admitted.len() < self.cap {
            for w in 0..self.warps_per_sm {
                if self.admitted.len() >= self.cap {
                    break;
                }
                if !self.finished.contains(&w) {
                    self.admitted.insert(w);
                }
            }
        }
        let throttled = self
            .warps_per_sm
            .saturating_sub(self.finished.len() + self.admitted.len());
        ctx.stats.spill_throttled_warp_cycles += throttled as u64;
    }

    fn warp_eligible(&mut self, w: usize, _pc: InsnRef) -> bool {
        self.admitted.contains(&w)
    }

    fn issue_stall(&self, w: usize, _pc: InsnRef) -> Option<regless_sim::StallReason> {
        if self.finished.contains(&w) {
            None
        } else {
            // Throttled: waiting for scratch-partition capacity.
            Some(regless_sim::StallReason::OsuCapacityWait)
        }
    }

    fn on_issue(
        &mut self,
        _w: usize,
        _at: InsnRef,
        insn: &Instruction,
        ctx: &mut BackendCtx<'_>,
    ) -> Cycle {
        let mut cold_srcs = 0u64;
        let mut hot_srcs = 0u64;
        for &src in insn.srcs() {
            if self.is_hot(src) {
                hot_srcs += 1;
            } else {
                cold_srcs += 1;
            }
        }
        ctx.stats.rf_reads += hot_srcs;
        ctx.stats.spill_fills += cold_srcs;
        ctx.stats
            .backing_series
            .record(ctx.now, hot_srcs + cold_srcs);
        // All fills of one instruction pipeline behind one shared-memory
        // access; hot operands are free.
        if cold_srcs > 0 {
            self.spill_latency
        } else {
            0
        }
    }

    fn on_writeback(
        &mut self,
        _w: usize,
        _at: InsnRef,
        reg: Reg,
        _value: LaneVec,
        ctx: &mut BackendCtx<'_>,
    ) {
        if self.is_hot(reg) {
            ctx.stats.rf_writes += 1;
        } else {
            ctx.stats.spill_stores += 1;
        }
        ctx.stats.backing_series.record(ctx.now, 1);
    }

    fn on_warp_finish(&mut self, w: usize, _ctx: &mut BackendCtx<'_>) {
        self.admitted.remove(&w);
        self.finished.insert(w);
        let _ = &self.compiled;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regless_compiler::{compile, RegionConfig};
    use regless_isa::KernelBuilder;

    fn small_kernel() -> CompiledKernel {
        let mut b = KernelBuilder::new("small");
        let i = b.thread_idx();
        let x = b.iadd(i, i);
        b.st_global(x, i);
        b.exit();
        compile(&b.finish().unwrap(), &RegionConfig::default()).unwrap()
    }

    fn fat_kernel() -> CompiledKernel {
        // Many registers, so most demote to the scratch partition.
        let mut b = KernelBuilder::new("fat");
        let vals: Vec<_> = (0..24).map(|i| b.movi(i)).collect();
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = b.iadd(acc, v);
        }
        b.st_global(acc, acc);
        b.exit();
        compile(
            &b.finish().unwrap(),
            &RegionConfig {
                max_regs_per_region: 32,
                ..RegionConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn hot_set_prefers_most_used_registers() {
        // 64 warps share the half-size RF: 16 hot registers per warp, so
        // the 26-register kernel must demote some.
        let gpu = GpuConfig::gtx980();
        let backend = RegDemBackend::new(&gpu, Arc::new(fat_kernel()));
        // The accumulator is touched every iadd; it must stay hot.
        let kernel_regs = fat_kernel().kernel().num_regs();
        assert!(kernel_regs > 0);
        let hot_count = (0..kernel_regs).filter(|&r| backend.is_hot(Reg(r))).count();
        assert!(hot_count >= 1);
        assert!(hot_count < kernel_regs as usize, "some registers demote");
    }

    #[test]
    fn small_kernels_fit_without_spilling() {
        let gpu = GpuConfig::test_small();
        let backend = RegDemBackend::new(&gpu, Arc::new(small_kernel()));
        // Few registers: the scratch partition admits every warp.
        assert!(backend.concurrent_warps() >= 1);
    }

    #[test]
    fn cold_operands_pay_spill_latency_and_count() {
        let gpu = GpuConfig::gtx980();
        let compiled = Arc::new(fat_kernel());
        let mut backend = RegDemBackend::new(&gpu, Arc::clone(&compiled));
        let mut mem = regless_sim::MemSystem::new(&gpu);
        let mut stats = regless_sim::SmStats::default();
        // Force a deterministic split for the probe instruction: pick one
        // hot and one cold register from the computed sets.
        let regs = compiled.kernel().num_regs();
        let hot = (0..regs).map(Reg).find(|&r| backend.is_hot(r)).unwrap();
        let cold = (0..regs).map(Reg).find(|&r| !backend.is_hot(r)).unwrap();
        let insn =
            regless_isa::Instruction::new(regless_isa::Opcode::IAdd, Some(hot), vec![hot, cold]);
        let at = InsnRef {
            block: regless_isa::BlockId(0),
            idx: 0,
        };
        let mut ctx = BackendCtx {
            sm: 0,
            now: 0,
            mem: &mut mem,
            stats: &mut stats,
        };
        backend.begin_cycle(&mut ctx);
        let extra = backend.on_issue(0, at, &insn, &mut ctx);
        assert_eq!(extra, gpu.latency.shared_mem, "cold fill pays latency");
        backend.on_writeback(0, at, cold, LaneVec::zero(), &mut ctx);
        assert_eq!(stats.rf_reads, 1);
        assert_eq!(stats.spill_fills, 1);
        assert_eq!(stats.spill_stores, 1);
    }
}
