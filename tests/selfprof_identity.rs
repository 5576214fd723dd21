//! Observer-effect contract for the host-side self profiler: attaching a
//! [`regless::telemetry::SelfProfiler`] to a run must leave
//! [`RunReport::stable_json`] **byte-identical** — the profiler times the
//! simulator's own phases on the host wall clock and must never perturb
//! simulated state (cycles, CPI stacks, window series, anything). This is
//! the property that makes `REGLESS_SELFPROF=1` safe to leave on in CI
//! and on shared servers.

use proptest::prelude::*;
use regless::compiler::{compile, RegionConfig};
use regless::core::{RegLessConfig, RegLessSim};
use regless::isa::Kernel;
use regless::sim::{BaselineRf, GpuConfig, Machine, RunReport};
use regless::telemetry::SelfProfiler;
use regless::workloads::{high_pressure_kernel, micro};
use std::sync::Arc;

/// Same kernel pool as the run-loop equivalence suite: between them the
/// micro kernels exercise every run-loop phase the profiler scopes
/// (writeback retirement, backend housekeeping, issue, stats windows,
/// and the event-calendar jump).
fn test_kernel(idx: usize) -> Kernel {
    match idx % 7 {
        0 => micro::streaming(6),
        1 => micro::pointer_chase(4),
        2 => micro::shared_tile(3),
        3 => micro::reduction_tree(),
        4 => micro::divergence_storm(3),
        5 => micro::nested_divergence(),
        _ => high_pressure_kernel(),
    }
}

/// Run one design on the small test machine, optionally profiled. Only
/// the baseline and RegLess designs expose the attach hook — the same
/// surface `regless run --self-profile` covers.
fn run_design(
    kernel: &Kernel,
    regless: bool,
    capacity: usize,
    prof: Option<Arc<SelfProfiler>>,
) -> RunReport {
    let gpu = GpuConfig::test_small();
    if regless {
        let cfg = RegLessConfig::with_capacity(capacity);
        let compiled = compile(kernel, &cfg.region_config(&gpu)).expect("compile");
        let mut sim = RegLessSim::new(gpu, cfg, compiled);
        if let Some(p) = prof {
            sim.attach_self_profiler(p);
        }
        sim.run().expect("regless run")
    } else {
        let compiled = compile(kernel, &RegionConfig::default()).expect("compile");
        let mut machine = Machine::new(gpu, Arc::new(compiled), |_| BaselineRf::new());
        if let Some(p) = prof {
            machine.attach_self_profiler(p);
        }
        machine.run().expect("baseline run")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The contract: profiled and unprofiled runs emit identical bytes,
    /// and the profiler actually observed the run it rode along on.
    #[test]
    fn profiled_and_unprofiled_reports_are_byte_identical(
        kernel_idx in 0usize..7,
        regless in any::<bool>(),
        capacity_idx in 0usize..4,
    ) {
        let capacity = [64usize, 128, 256, 512][capacity_idx];
        let kernel = test_kernel(kernel_idx);
        let plain = run_design(&kernel, regless, capacity, None);
        let prof = Arc::new(SelfProfiler::new(true));
        let profiled = run_design(&kernel, regless, capacity, Some(Arc::clone(&prof)));
        prop_assert_eq!(
            plain.stable_json().to_string_compact(),
            profiled.stable_json().to_string_compact(),
            "self-profiling perturbed the report: kernel {} regless {} capacity {}",
            kernel_idx, regless, capacity
        );
        prop_assert!(
            !prof.snapshot().is_empty(),
            "the attached profiler observed no phases at all"
        );
    }
}

/// A disabled profiler attached explicitly records nothing — the no-op
/// branch that keeps an unprofiled run free of clock reads.
#[test]
fn disabled_profiler_records_nothing() {
    let kernel = micro::streaming(4);
    let prof = Arc::new(SelfProfiler::new(false));
    let report = run_design(&kernel, true, 256, Some(Arc::clone(&prof)));
    assert!(report.cycles > 0);
    assert!(prof.snapshot().is_empty(), "disabled profiler stayed empty");
    assert_eq!(prof.total_nanos(), 0);
}

/// The phase tables of a profiled run name the run-loop phases the
/// instrumentation promises, and the rendered table carries them.
#[test]
fn profiled_run_names_the_run_loop_phases() {
    let kernel = micro::reduction_tree();
    let prof = Arc::new(SelfProfiler::new(true));
    run_design(&kernel, true, 256, Some(Arc::clone(&prof)));
    let phases: Vec<String> = prof.snapshot().into_iter().map(|(name, _)| name).collect();
    for expect in ["backend_tick", "issue", "stats_windows", "writeback"] {
        assert!(
            phases.iter().any(|p| p == expect),
            "phase {expect} missing from {phases:?}"
        );
    }
    let table = prof.render_table("sim");
    assert!(table.contains("issue"), "{table}");
}
