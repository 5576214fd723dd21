//! Behaviour guard for the simulator: a committed digest of every
//! report's [`RunReport::stable_json`] bytes. Each golden line is
//! `<slug> <fnv1a64 of the compact stable JSON as 16 hex digits>`, the
//! same format as the cluster's sweep digests, so any change to cycles,
//! CPI stacks, window series or eviction taxonomy on any covered point
//! shows up as a one-line diff naming the point.
//!
//! The tier-1 tests run the micro suite on the small test machine; the
//! `#[ignore]`d one runs all 21 Rodinia kernels × 7 designs on the
//! evaluation machine (`cargo test --release --test stable_digest --
//! --ignored`). On a mismatch the fresh digest is written next to the
//! test binary's scratch directory so an intentional change can be
//! reviewed and copied over the golden.

use regless::baselines::{run_compress_rf, run_regdem, run_rfh, run_rfv};
use regless::bench::{benchmarks, registry, run_design, DesignKind};
use regless::compiler::{compile, RegionConfig};
use regless::core::{RegLessConfig, RegLessSim};
use regless::isa::Kernel;
use regless::sim::{run_baseline, GpuConfig, RunReport};
use regless::workloads::{high_pressure_kernel, micro, rodinia};
use std::sync::Arc;

/// The micro suite: streaming loads, dependent chains, barriers,
/// divergence and register pressure.
fn micro_kernels() -> Vec<Kernel> {
    vec![
        micro::streaming(6),
        micro::pointer_chase(4),
        micro::shared_tile(3),
        micro::reduction_tree(),
        micro::divergence_storm(3),
        micro::nested_divergence(),
        high_pressure_kernel(),
    ]
}

/// Run `design` on `gpu` through the plain per-design runners.
fn run_on(gpu: GpuConfig, kernel: &Kernel, design: DesignKind) -> RunReport {
    let default_compile = || compile(kernel, &RegionConfig::default()).expect("compile");
    let regless = |cfg: RegLessConfig| {
        let compiled = compile(kernel, &cfg.region_config(&gpu)).expect("compile");
        RegLessSim::new(gpu, cfg, compiled)
            .run()
            .expect("regless run")
    };
    match design {
        DesignKind::Baseline => run_baseline(gpu, Arc::new(default_compile())).expect("baseline"),
        DesignKind::RegLess { entries } => regless(RegLessConfig::with_capacity(entries)),
        DesignKind::RegLessNoCompressor { entries } => regless(RegLessConfig {
            compressor_enabled: false,
            ..RegLessConfig::with_capacity(entries)
        }),
        DesignKind::Rfh => run_rfh(gpu, default_compile()).expect("rfh"),
        DesignKind::Rfv => run_rfv(gpu, default_compile()).expect("rfv"),
        DesignKind::RegDem => run_regdem(gpu, default_compile()).expect("regdem"),
        DesignKind::CompressRf => run_compress_rf(gpu, default_compile()).expect("compress-rf"),
    }
}

fn digest_line(slug: &str, report: &RunReport) -> String {
    let stable = report.stable_json().to_string_compact();
    format!("{slug} {:016x}", proptest::fnv1a(&stable))
}

/// Compare `lines` against the golden `name` under `tests/golden/`.
fn assert_matches_golden(name: &str, lines: &[String]) {
    let mut actual = lines.join("\n");
    actual.push('\n');
    let golden_path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&golden_path).expect("golden digest is checked in");
    if actual != golden {
        let fresh = format!("{}/{name}", env!("CARGO_TARGET_TMPDIR"));
        std::fs::write(&fresh, &actual).expect("write fresh digest");
        let drifted: Vec<&str> = actual
            .lines()
            .filter(|l| !golden.lines().any(|g| g == *l))
            .collect();
        panic!(
            "stable_json digest drifted from tests/golden/{name} on {} point(s): {drifted:#?}\n\
             fresh digest written to {fresh}; copy it over the golden only if the \
             behaviour change is intentional",
            drifted.len()
        );
    }
}

/// Every registered design at default params, RegLess at a starved and
/// a roomy capacity, and a dual-issue baseline, on each micro kernel.
#[test]
fn micro_suite_reports_match_golden_digest() {
    let gpu = GpuConfig::test_small();
    let dual = GpuConfig {
        issue_slots_per_scheduler: 2,
        ..gpu
    };
    let mut lines = Vec::new();
    for kernel in micro_kernels() {
        let name = kernel.name();
        for entry in registry::all() {
            let report = run_on(gpu, &kernel, entry.default_design());
            lines.push(digest_line(&format!("{name}.{}", entry.id), &report));
        }
        for entries in [128, 1024] {
            let report = run_on(gpu, &kernel, DesignKind::RegLess { entries });
            lines.push(digest_line(&format!("{name}.regless-c{entries}"), &report));
        }
        let report = run_on(dual, &kernel, DesignKind::Baseline);
        lines.push(digest_line(&format!("{name}.baseline-dual-issue"), &report));
    }
    assert_matches_golden("stable_digest.txt", &lines);
}

/// Every registered design except the baseline (pinned above) on a
/// dual-issue machine, and RegLess at the capacities the test above
/// skips, on each micro kernel: the multi-slot stall charging and the OSU
/// staging/eviction paths that only those capacities reach.
#[test]
fn dual_issue_and_capacity_sweep_match_golden_digest() {
    let gpu = GpuConfig::test_small();
    let dual = GpuConfig {
        issue_slots_per_scheduler: 2,
        ..gpu
    };
    let mut lines = Vec::new();
    for kernel in micro_kernels() {
        let name = kernel.name();
        for entry in registry::all().iter().filter(|e| e.id != "baseline") {
            let report = run_on(dual, &kernel, entry.default_design());
            lines.push(digest_line(
                &format!("{name}.{}-dual-issue", entry.id),
                &report,
            ));
        }
        for entries in [64, 256] {
            let report = run_on(gpu, &kernel, DesignKind::RegLess { entries });
            lines.push(digest_line(&format!("{name}.regless-c{entries}"), &report));
        }
    }
    assert_matches_golden("stable_digest_sweep.txt", &lines);
}

/// All 21 Rodinia kernels × every registered design, exactly as the
/// figures run them.
#[test]
#[ignore = "simulates 147 evaluation-machine points; run with --release -- --ignored"]
fn rodinia_reports_match_golden_digest() {
    let mut lines = Vec::new();
    for bench in benchmarks() {
        let kernel = rodinia::kernel(bench);
        for entry in registry::all() {
            let report = run_design(&kernel, entry.default_design());
            lines.push(digest_line(&format!("{bench}.{}", entry.id), &report));
        }
    }
    assert_matches_golden("stable_digest_rodinia.txt", &lines);
}
