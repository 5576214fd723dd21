//! RegLess hardware model: just-in-time operand staging replacing the GPU
//! register file (paper §5).
//!
//! Each scheduler shard gets a **capacity manager** ([`CapacityManager`])
//! that admits warps to execution only once their next region's operands
//! are staged, an 8-bank **operand staging unit** ([`Osu`]) a quarter the
//! size of the register file it replaces, and a pattern **compressor**
//! ([`Compressor`]) that shrinks registers spilled through the L1.
//!
//! [`RegLessSim`] wires these into the `regless-sim` pipeline:
//!
//! ```
//! use regless_core::{RegLessConfig, RegLessSim};
//! use regless_compiler::compile;
//! use regless_isa::KernelBuilder;
//! use regless_sim::GpuConfig;
//!
//! let mut b = KernelBuilder::new("triple");
//! let i = b.thread_idx();
//! let t = b.movi(3);
//! let v = b.imul(i, t);
//! b.st_global(v, i);
//! b.exit();
//! let kernel = b.finish()?;
//!
//! let gpu = GpuConfig::test_small();
//! let rl = RegLessConfig::paper_default();
//! let compiled = compile(&kernel, &rl.region_config(&gpu))?;
//! let report = RegLessSim::new(gpu, rl, compiled).run()?;
//! assert_eq!(report.total().insns, 8 * 5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod cm;
mod compressor;
mod config;
mod osu;
mod regmem;
mod warpmap;

pub use backend::RegLessBackend;
pub use cm::{ActivationOrder, CapacityManager, WarpPhase};
pub use compressor::{
    Compressed, CompressedHit, Compressor, PatternKind, PatternSet, StoreOutcome,
    NUM_PATTERN_KINDS, REGS_PER_COMPRESSED_LINE,
};
pub use config::RegLessConfig;
pub use osu::{runtime_bank, EvictedLine, InstallResult, Osu};
pub use regmem::{RegisterBacking, RegisterMemoryMap, REG_LINE_BYTES};

use regless_compiler::CompiledKernel;
use regless_sim::{GpuConfig, Machine, RunReport, SimError};
use std::sync::Arc;

/// A complete RegLess GPU simulation: the `regless-sim` pipeline with the
/// RegLess backend on every SM.
pub struct RegLessSim {
    machine: Machine<RegLessBackend>,
}

impl RegLessSim {
    /// Build a simulation of `compiled` on `gpu` with RegLess structures
    /// sized by `config`.
    ///
    /// The kernel must have been compiled with region limits that fit the
    /// OSU ([`RegLessConfig::region_config`]).
    ///
    /// # Panics
    ///
    /// Panics if the kernel's region limits exceed the OSU bank size.
    pub fn new(gpu: GpuConfig, config: RegLessConfig, compiled: CompiledKernel) -> Self {
        let compiled = Arc::new(compiled);
        let machine = Machine::new(gpu, Arc::clone(&compiled), |sm| {
            RegLessBackend::new(sm, &gpu, &config, Arc::clone(&compiled))
        });
        RegLessSim { machine }
    }

    /// Run to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the cycle limit is exceeded.
    pub fn run(self) -> Result<RunReport, SimError> {
        self.machine.run()
    }

    /// Attach a telemetry recorder to every SM (see
    /// [`Machine::attach_telemetry`]); the merged telemetry comes back in
    /// [`RunReport::telemetry`].
    pub fn attach_telemetry(&mut self, events_per_sm: usize) {
        self.machine.attach_telemetry(events_per_sm);
    }

    /// Attach a cooperative cancellation token (see
    /// [`Machine::set_cancel_token`]): the run returns
    /// [`regless_sim::SimError::Cancelled`] once it trips.
    pub fn set_cancel_token(&mut self, token: regless_sim::CancelToken) {
        self.machine.set_cancel_token(token);
    }

    /// Attach a shared host-side self profiler (see
    /// [`Machine::attach_self_profiler`]): the run loop records where its
    /// own wall time goes, and the caller keeps the handle to render the
    /// breakdown. Simulated results are byte-identical either way.
    pub fn attach_self_profiler(&mut self, prof: std::sync::Arc<regless_telemetry::SelfProfiler>) {
        self.machine.attach_self_profiler(prof);
    }
}

/// Compile a kernel with limits matched to `config` and run it under
/// RegLess in one call.
///
/// # Errors
///
/// Returns a boxed error for compile failures or simulation timeouts.
pub fn run_regless(
    gpu: GpuConfig,
    config: RegLessConfig,
    kernel: &regless_isa::Kernel,
) -> Result<RunReport, Box<dyn std::error::Error>> {
    let compiled = regless_compiler::compile(kernel, &config.region_config(&gpu))?;
    Ok(RegLessSim::new(gpu, config, compiled).run()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use regless_isa::{KernelBuilder, Opcode};
    use regless_sim::{run_baseline, GpuConfig};

    fn gpu() -> GpuConfig {
        GpuConfig::test_small()
    }

    fn run(kernel: &regless_isa::Kernel) -> RunReport {
        run_regless(gpu(), RegLessConfig::paper_default(), kernel).expect("runs")
    }

    #[test]
    fn straight_line_kernel_completes() {
        let mut b = KernelBuilder::new("s");
        let i = b.thread_idx();
        let x = b.iadd(i, i);
        let y = b.imul(x, i);
        b.st_global(y, i);
        b.exit();
        let k = b.finish().unwrap();
        let report = run(&k);
        let t = report.total();
        assert_eq!(t.insns, 8 * 5);
        assert!(
            t.regions_activated >= 8,
            "each warp activates at least once"
        );
        assert!(t.meta_insns > 0, "metadata bubbles issued");
        assert!(t.osu_reads > 0 && t.osu_writes > 0);
        assert_eq!(t.rf_reads, 0, "no register file remains");
    }

    #[test]
    fn cross_region_value_flows_through_staging() {
        // A load's value is used in a later region: the value must flow
        // OSU -> (eviction?) -> preload correctly.
        let mut b = KernelBuilder::new("flow");
        let i = b.thread_idx();
        let v = b.ld_global(i);
        let w = b.iadd(v, i); // separate region (load/use split)
        b.st_global(w, i);
        b.exit();
        let k = b.finish().unwrap();
        let report = run(&k);
        let t = report.total();
        assert_eq!(t.insns, 8 * 5);
        assert!(t.regions_activated >= 16, "two regions per warp");
        assert!(t.preloads_total() > 0, "second region preloads inputs");
    }

    #[test]
    fn loop_kernel_with_cross_region_values() {
        let mut b = KernelBuilder::new("loop");
        let body = b.new_block();
        let done = b.new_block();
        let i0 = b.movi(0);
        let n = b.movi(32);
        let acc = b.movi(0);
        b.jmp(body);
        b.select(body);
        let one = b.movi(1);
        b.emit_to(acc, Opcode::IAdd, vec![acc, i0]);
        b.emit_to(i0, Opcode::IAdd, vec![i0, one]);
        let c = b.setlt(i0, n);
        b.bra(c, body, done);
        b.select(done);
        b.st_global(acc, acc);
        b.exit();
        let k = b.finish().unwrap();
        let report = run(&k);
        assert_eq!(report.total().insns, 8 * (4 + 32 * 5 + 2));
    }

    #[test]
    fn barrier_kernel_does_not_deadlock() {
        let mut b = KernelBuilder::new("bar");
        let i = b.thread_idx();
        let x = b.iadd(i, i);
        b.bar();
        let y = b.imul(x, x);
        b.st_global(y, i);
        b.exit();
        let k = b.finish().unwrap();
        let report = run(&k);
        assert_eq!(report.total().insns, 8 * 6);
    }

    #[test]
    fn divergent_kernel_completes() {
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
        let k = b.finish().unwrap();
        let report = run(&k);
        assert_eq!(report.total().insns, 8 * 11);
    }

    /// RegLess should be performance-competitive with the baseline on a
    /// modest kernel (the paper reports no average loss).
    #[test]
    fn runtime_close_to_baseline() {
        let mut b = KernelBuilder::new("perf");
        let body = b.new_block();
        let done = b.new_block();
        let i0 = b.movi(0);
        let n = b.movi(64);
        let tid = b.thread_idx();
        b.jmp(body);
        b.select(body);
        let v = b.ld_global(tid);
        let x = b.iadd(v, tid);
        b.st_global(x, tid);
        let one = b.movi(1);
        b.emit_to(i0, Opcode::IAdd, vec![i0, one]);
        let c = b.setlt(i0, n);
        b.bra(c, body, done);
        b.select(done);
        b.exit();
        let k = b.finish().unwrap();

        let rl = RegLessConfig::paper_default();
        let compiled_rl = regless_compiler::compile(&k, &rl.region_config(&gpu())).unwrap();
        let regless = RegLessSim::new(gpu(), rl, compiled_rl).run().unwrap();
        let compiled_base = std::sync::Arc::new(
            regless_compiler::compile(&k, &regless_compiler::RegionConfig::default()).unwrap(),
        );
        let baseline = run_baseline(gpu(), compiled_base).unwrap();
        let ratio = regless.cycles as f64 / baseline.cycles as f64;
        assert!(
            ratio < 1.6,
            "RegLess {} vs baseline {} cycles (ratio {ratio:.2})",
            regless.cycles,
            baseline.cycles
        );
    }

    /// Most preloads should hit in the OSU or compressor, not memory
    /// (Figure 17: 0.9% from L1 on average).
    #[test]
    fn preloads_mostly_hit_staging() {
        let mut b = KernelBuilder::new("hits");
        let body = b.new_block();
        let done = b.new_block();
        let i0 = b.movi(0);
        let n = b.movi(64);
        let acc = b.movi(0);
        b.jmp(body);
        b.select(body);
        let one = b.movi(1);
        b.emit_to(acc, Opcode::IAdd, vec![acc, i0]);
        b.emit_to(i0, Opcode::IAdd, vec![i0, one]);
        let c = b.setlt(i0, n);
        b.bra(c, body, done);
        b.select(done);
        b.st_global(acc, acc);
        b.exit();
        let k = b.finish().unwrap();
        let report = run(&k);
        let t = report.total();
        let total = t.preloads_total() as f64;
        assert!(total > 0.0);
        let staged = (t.preloads_osu + t.preloads_compressor) as f64;
        assert!(staged / total > 0.8, "staged {staged} of {total} preloads");
    }
}
