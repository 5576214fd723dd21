//! RFV: register-file virtualization of Jeon et al. (MICRO 2015), the
//! paper's second comparison point.
//!
//! RFV renames architectural registers onto a **half-size** physical file,
//! exploiting the fact that far fewer values are live than are allocated.
//! When a kernel's live set is too large for the physical file, concurrency
//! must be throttled — the register-pressure slowdowns the original paper
//! reports on `dwt2d` and `hotspot`. We model this by admitting warps only
//! while the sum of their peak live-register counts fits the physical pool,
//! and counting a rename-table lookup per operand access.

use regless_compiler::CompiledKernel;
use regless_isa::{InsnRef, Instruction, LaneVec, Reg};
use regless_sim::{BackendCtx, Cycle, GpuConfig, OperandBackend, SchedulerKind};
use std::collections::HashSet;
use std::sync::Arc;

/// The RFV operand backend.
pub struct RfvBackend {
    compiled: Arc<CompiledKernel>,
    /// Physical registers available (half the baseline allocation for this
    /// kernel).
    pool: usize,
    /// Peak concurrently-live registers of one warp (static).
    max_live_per_warp: usize,
    admitted: HashSet<usize>,
    finished: HashSet<usize>,
    warps_per_sm: usize,
}

impl RfvBackend {
    /// Build the backend. The physical pool is half of the baseline
    /// register file's entries (a hardware property, per the original
    /// paper's half-size design).
    pub fn new(gpu: &GpuConfig, compiled: Arc<CompiledKernel>) -> Self {
        let baseline_entries = gpu.rf_bytes_per_sm / 128;
        let pool = (baseline_entries / 2).max(1);
        let max_live_per_warp = compiled
            .liveness()
            .live_counts(compiled.kernel())
            .into_iter()
            .map(|(_, n)| n)
            .max()
            .unwrap_or(1)
            .max(1);
        RfvBackend {
            compiled,
            pool,
            max_live_per_warp,
            admitted: HashSet::new(),
            finished: HashSet::new(),
            warps_per_sm: gpu.warps_per_sm,
        }
    }

    /// The scheduler RFV runs under in the paper's comparison.
    pub fn scheduler() -> SchedulerKind {
        SchedulerKind::TwoLevel {
            active_per_scheduler: 4,
        }
    }

    /// How many warps can hold registers concurrently.
    pub fn concurrent_warps(&self) -> usize {
        (self.pool / self.max_live_per_warp).max(1)
    }
}

impl OperandBackend for RfvBackend {
    fn begin_cycle(&mut self, ctx: &mut BackendCtx<'_>) {
        let cap = self.concurrent_warps();
        // Admit warps in id order while the live sets fit.
        if self.admitted.len() < cap {
            for w in 0..self.warps_per_sm {
                if self.admitted.len() >= cap {
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
        ctx.stats.rfv_throttled_warp_cycles += throttled as u64;
    }

    fn warp_eligible(&mut self, w: usize, _pc: InsnRef) -> bool {
        self.admitted.contains(&w)
    }

    fn issue_stall(&self, w: usize, _pc: InsnRef) -> Option<regless_sim::StallReason> {
        if self.finished.contains(&w) {
            None
        } else {
            // Throttled: waiting for physical-register pool capacity.
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
        let reads = insn.srcs().len() as u64;
        ctx.stats.rf_reads += reads;
        ctx.stats.rename_lookups += reads;
        ctx.stats.backing_series.record(ctx.now, reads);
        0
    }

    fn on_writeback(
        &mut self,
        _w: usize,
        _at: InsnRef,
        _reg: Reg,
        _value: LaneVec,
        ctx: &mut BackendCtx<'_>,
    ) {
        ctx.stats.rf_writes += 1;
        ctx.stats.rename_lookups += 1;
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

    fn pressured_kernel() -> CompiledKernel {
        // ~24 concurrently live registers out of ~26 allocated.
        let mut b = KernelBuilder::new("pressure");
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
    fn low_pressure_admits_all_warps() {
        let gpu = GpuConfig::test_small();
        let backend = RfvBackend::new(&gpu, Arc::new(small_kernel()));
        assert!(backend.concurrent_warps() >= gpu.warps_per_sm);
    }

    #[test]
    fn high_pressure_throttles() {
        // With 64 warps and ~25 live registers each, the half-size pool
        // (1024 entries) holds only ~40 warps' live sets.
        let gpu = GpuConfig::gtx980();
        let backend = RfvBackend::new(&gpu, Arc::new(pressured_kernel()));
        assert!(backend.concurrent_warps() < gpu.warps_per_sm);
        assert!(backend.concurrent_warps() >= 1);
    }

    #[test]
    fn counts_rename_lookups() {
        let gpu = GpuConfig::test_small();
        let compiled = Arc::new(small_kernel());
        let mut backend = RfvBackend::new(&gpu, Arc::clone(&compiled));
        let mut mem = regless_sim::MemSystem::new(&gpu);
        let mut stats = regless_sim::SmStats::default();
        let insn = regless_isa::Instruction::new(
            regless_isa::Opcode::IAdd,
            Some(Reg(2)),
            vec![Reg(0), Reg(1)],
        );
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
        assert!(backend.warp_eligible(0, at));
        backend.on_issue(0, at, &insn, &mut ctx);
        backend.on_writeback(0, at, Reg(2), LaneVec::zero(), &mut ctx);
        assert_eq!(stats.rename_lookups, 3);
        assert_eq!(stats.rf_reads, 2);
    }
}
