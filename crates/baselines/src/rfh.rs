//! RFH: the compile-time managed register-file hierarchy of Gebhart et al.
//! (MICRO 2011), one of the paper's two comparison points.
//!
//! The compiler places each *value* (a definition and its uses) in one of
//! three levels: a tiny per-warp **last result file** (LRF) for values
//! consumed immediately, a small **register file cache** (RFC) for values
//! whose uses all fall within a short window, and the big **main register
//! file** (MRF) for everything else. Reads and writes are counted against
//! the level that holds the value; the MRF remains the backing store, so
//! capacity is unchanged — only access energy shrinks. A two-level warp
//! scheduler is integral to the technique (active warps own the LRF/RFC).

use regless_compiler::CompiledKernel;
use regless_isa::{InsnRef, Instruction, Kernel, LaneVec, Reg};
use regless_sim::{BackendCtx, Cycle, OperandBackend, SchedulerKind};
use std::collections::HashMap;

/// The storage level a value is allocated to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RfhLevel {
    /// Last result file: the value's single use immediately follows its
    /// definition.
    Lrf,
    /// Register file cache: all uses fall within a short window of the
    /// definition, in the same block.
    Rfc,
    /// Main register file.
    Mrf,
}

/// Definition-to-use distance (in instructions) up to which a single-use
/// value lives in the LRF.
const LRF_DISTANCE: usize = 2;
/// Window (in instructions) within which all uses must fall for RFC
/// placement, mirroring the 6-entry RFC of the original design.
const RFC_WINDOW: usize = 12;

/// Static placement of every read and write.
#[derive(Clone, Debug)]
pub struct RfhPlacement {
    /// Level of each defining instruction's result.
    def_level: HashMap<InsnRef, RfhLevel>,
    /// Level each (instruction, source register) read comes from.
    read_level: HashMap<(InsnRef, Reg), RfhLevel>,
}

impl RfhPlacement {
    /// Run the placement analysis using the kernel's liveness facts.
    pub fn analyze(kernel: &Kernel, liveness: &regless_compiler::Liveness) -> Self {
        let mut def_level = HashMap::new();
        let mut read_level = HashMap::new();
        for block in kernel.blocks() {
            let insns = block.insns();
            for (i, insn) in insns.iter().enumerate() {
                let Some(d) = insn.dst() else { continue };
                let at = InsnRef {
                    block: block.id(),
                    idx: i,
                };
                // Find the uses of this definition within the block (up to
                // a redefinition); any use beyond the block forces MRF.
                let mut uses: Vec<usize> = Vec::new();
                let mut redefined = false;
                for (j, later) in insns.iter().enumerate().skip(i + 1) {
                    if later.srcs().contains(&d) {
                        uses.push(j);
                    }
                    if later.dst() == Some(d) {
                        redefined = true;
                        break;
                    }
                }
                // A value live past the block's end escapes to the MRF.
                let escapes = !redefined && liveness.live_out(block.id()).contains(d);
                let level = if escapes {
                    RfhLevel::Mrf
                } else if uses.len() == 1 && uses[0] - i <= LRF_DISTANCE {
                    RfhLevel::Lrf
                } else if !uses.is_empty() && uses.iter().all(|&j| j - i <= RFC_WINDOW) {
                    RfhLevel::Rfc
                } else {
                    RfhLevel::Mrf
                };
                def_level.insert(at, level);
                for &j in &uses {
                    read_level.insert(
                        (
                            InsnRef {
                                block: block.id(),
                                idx: j,
                            },
                            d,
                        ),
                        level,
                    );
                }
            }
        }
        RfhPlacement {
            def_level,
            read_level,
        }
    }

    /// Level a definition writes to.
    pub fn def_level(&self, at: InsnRef) -> RfhLevel {
        self.def_level.get(&at).copied().unwrap_or(RfhLevel::Mrf)
    }

    /// Level a read comes from.
    pub fn read_level(&self, at: InsnRef, reg: Reg) -> RfhLevel {
        self.read_level
            .get(&(at, reg))
            .copied()
            .unwrap_or(RfhLevel::Mrf)
    }

    /// Fraction of reads that avoid the MRF (for sanity checks).
    pub fn non_mrf_read_fraction(&self) -> f64 {
        if self.read_level.is_empty() {
            return 0.0;
        }
        let hits = self
            .read_level
            .values()
            .filter(|&&l| l != RfhLevel::Mrf)
            .count();
        hits as f64 / self.read_level.len() as f64
    }
}

/// The RFH operand backend: counts accesses per level; the MRF doubles as
/// the Figure 3 backing store.
pub struct RfhBackend {
    placement: RfhPlacement,
}

impl RfhBackend {
    /// Build the backend from a compiled kernel.
    pub fn new(compiled: &CompiledKernel) -> Self {
        RfhBackend {
            placement: RfhPlacement::analyze(compiled.kernel(), compiled.liveness()),
        }
    }

    /// The scheduler RFH requires.
    pub fn scheduler() -> SchedulerKind {
        SchedulerKind::TwoLevel {
            active_per_scheduler: 4,
        }
    }
}

impl OperandBackend for RfhBackend {
    fn on_issue(
        &mut self,
        _w: usize,
        at: InsnRef,
        insn: &Instruction,
        ctx: &mut BackendCtx<'_>,
    ) -> Cycle {
        for &s in insn.srcs() {
            match self.placement.read_level(at, s) {
                RfhLevel::Lrf => ctx.stats.lrf_reads += 1,
                RfhLevel::Rfc => ctx.stats.rfc_reads += 1,
                RfhLevel::Mrf => {
                    ctx.stats.rf_reads += 1;
                    ctx.stats.backing_series.record(ctx.now, 1);
                }
            }
        }
        0
    }

    fn on_writeback(
        &mut self,
        _w: usize,
        at: InsnRef,
        _reg: Reg,
        _value: LaneVec,
        ctx: &mut BackendCtx<'_>,
    ) {
        match self.placement.def_level(at) {
            RfhLevel::Lrf => ctx.stats.lrf_writes += 1,
            RfhLevel::Rfc => ctx.stats.rfc_writes += 1,
            RfhLevel::Mrf => {
                ctx.stats.rf_writes += 1;
                ctx.stats.backing_series.record(ctx.now, 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regless_compiler::{compile, RegionConfig};
    use regless_isa::KernelBuilder;

    fn placement(k: &Kernel) -> RfhPlacement {
        let c = compile(k, &RegionConfig::default()).unwrap();
        RfhPlacement::analyze(c.kernel(), c.liveness())
    }

    #[test]
    fn immediate_consumption_goes_to_lrf() {
        let mut b = KernelBuilder::new("lrf");
        let x = b.movi(1); // used immediately, once
        let y = b.iadd(x, x); // hmm: two source slots, one use insn
        b.st_global(y, y);
        b.exit();
        let k = b.finish().unwrap();
        let p = placement(&k);
        let def_x = InsnRef {
            block: regless_isa::BlockId(0),
            idx: 0,
        };
        // x is read by one instruction at distance 1 and dead after.
        assert_eq!(p.def_level(def_x), RfhLevel::Lrf);
    }

    #[test]
    fn value_crossing_blocks_goes_to_mrf() {
        let mut b = KernelBuilder::new("mrf");
        let next = b.new_block();
        let x = b.movi(1);
        b.jmp(next);
        b.select(next);
        let y = b.iadd(x, x);
        b.st_global(y, y);
        b.exit();
        let k = b.finish().unwrap();
        let p = placement(&k);
        let def_x = InsnRef {
            block: regless_isa::BlockId(0),
            idx: 0,
        };
        assert_eq!(p.def_level(def_x), RfhLevel::Mrf);
        let use_x = InsnRef {
            block: next,
            idx: 0,
        };
        assert_eq!(p.read_level(use_x, x), RfhLevel::Mrf);
    }

    #[test]
    fn nearby_multi_use_goes_to_rfc() {
        let mut b = KernelBuilder::new("rfc");
        let x = b.movi(1);
        let a = b.iadd(x, x);
        let c = b.imul(x, a);
        b.st_global(c, c);
        b.exit();
        let k = b.finish().unwrap();
        let p = placement(&k);
        let def_x = InsnRef {
            block: regless_isa::BlockId(0),
            idx: 0,
        };
        assert_eq!(p.def_level(def_x), RfhLevel::Rfc);
    }

    #[test]
    fn most_reads_filtered_in_compute_kernel() {
        let mut b = KernelBuilder::new("filter");
        let mut v = b.movi(3);
        for _ in 0..20 {
            v = b.iadd(v, v);
        }
        b.st_global(v, v);
        b.exit();
        let k = b.finish().unwrap();
        let p = placement(&k);
        assert!(p.non_mrf_read_fraction() > 0.7);
    }
}
