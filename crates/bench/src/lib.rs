//! Experiment harness shared by the per-figure binaries.
//!
//! Each `fig*`/`table*` binary in this crate regenerates one table or
//! figure of the paper (see DESIGN.md §3 for the index); this library
//! holds the common machinery: the evaluation machine configuration,
//! design runners, and plain-text table formatting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use regless_baselines::{run_compress_rf, run_regdem, run_rfh, run_rfv};
use regless_compiler::{compile, CompiledKernel, RegionConfig};
use regless_core::{RegLessConfig, RegLessSim};
use regless_energy::{energy, Design, EnergyBreakdown};
use regless_isa::Kernel;
use regless_sim::{run_baseline, GpuConfig, RunReport};
use regless_workloads::rodinia;
use std::sync::Arc;

pub mod figs;
pub mod profile;
pub mod registry;
pub mod report;
pub mod sweep;
pub mod timing;

/// The machine every experiment runs on: one GTX 980-class SM (the
/// workloads are SM-homogeneous, so one SM yields the same normalized
/// results as sixteen at a sixteenth of the wall-clock cost).
pub fn eval_gpu() -> GpuConfig {
    GpuConfig::gtx980_single_sm()
}

/// A storage design under evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DesignKind {
    /// Full register file, GTO scheduler.
    Baseline,
    /// RegLess at a given per-SM OSU capacity.
    RegLess {
        /// OSU entries per SM.
        entries: usize,
    },
    /// RegLess without the compressor (Figure 16 ablation).
    RegLessNoCompressor {
        /// OSU entries per SM.
        entries: usize,
    },
    /// Register-file hierarchy baseline.
    Rfh,
    /// Register-file virtualization baseline.
    Rfv,
    /// RegDem: cold registers demoted to a shared-memory scratch
    /// partition.
    RegDem,
    /// Statically-compressed register file (Angerd et al.).
    CompressRf,
}

impl DesignKind {
    /// The paper's main RegLess design point.
    pub fn regless_512() -> Self {
        DesignKind::RegLess { entries: 512 }
    }

    /// The matching energy-model design.
    pub fn energy_design(&self) -> Design {
        match *self {
            DesignKind::Baseline => Design::Baseline,
            DesignKind::RegLess { entries } | DesignKind::RegLessNoCompressor { entries } => {
                Design::RegLess {
                    osu_entries_per_sm: entries,
                }
            }
            DesignKind::Rfh => Design::Rfh,
            DesignKind::Rfv => Design::Rfv,
            DesignKind::RegDem => Design::RegDem,
            DesignKind::CompressRf => Design::CompressRf,
        }
    }
}

/// Run one kernel under one design on the evaluation machine.
///
/// # Panics
///
/// Panics on compile errors or simulation timeouts — the harness treats
/// these as fatal experiment failures.
pub fn run_design(kernel: &Kernel, design: DesignKind) -> RunReport {
    let gpu = eval_gpu();
    match design {
        DesignKind::Baseline => {
            let compiled = compile(kernel, &RegionConfig::default()).expect("compile");
            run_baseline(gpu, Arc::new(compiled)).expect("baseline run")
        }
        DesignKind::RegLess { entries } => {
            let cfg = RegLessConfig::with_capacity(entries);
            let compiled = compile(kernel, &cfg.region_config(&gpu)).expect("compile");
            RegLessSim::new(gpu, cfg, compiled)
                .run()
                .expect("regless run")
        }
        DesignKind::RegLessNoCompressor { entries } => {
            let cfg = RegLessConfig {
                compressor_enabled: false,
                ..RegLessConfig::with_capacity(entries)
            };
            let compiled = compile(kernel, &cfg.region_config(&gpu)).expect("compile");
            RegLessSim::new(gpu, cfg, compiled)
                .run()
                .expect("regless run")
        }
        DesignKind::Rfh => {
            let compiled = compile(kernel, &RegionConfig::default()).expect("compile");
            run_rfh(gpu, compiled).expect("rfh run")
        }
        DesignKind::Rfv => {
            let compiled = compile(kernel, &RegionConfig::default()).expect("compile");
            run_rfv(gpu, compiled).expect("rfv run")
        }
        DesignKind::RegDem => {
            let compiled = compile(kernel, &RegionConfig::default()).expect("compile");
            run_regdem(gpu, compiled).expect("regdem run")
        }
        DesignKind::CompressRf => {
            let compiled = compile(kernel, &RegionConfig::default()).expect("compile");
            run_compress_rf(gpu, compiled).expect("compress-rf run")
        }
    }
}

/// Energy of a report under the matching model.
pub fn energy_of(report: &RunReport, design: DesignKind) -> EnergyBreakdown {
    energy(report, design.energy_design(), &eval_gpu())
}

/// Run the baseline design under an explicit warp scheduler (Figure 2's
/// GTO vs two-level comparison).
///
/// # Panics
///
/// Panics on compile errors or simulation timeouts.
pub fn run_baseline_with_scheduler(
    kernel: &Kernel,
    scheduler: regless_sim::SchedulerKind,
) -> RunReport {
    let gpu = GpuConfig {
        scheduler,
        ..eval_gpu()
    };
    let compiled = compile(kernel, &RegionConfig::default()).expect("compile");
    run_baseline(gpu, Arc::new(compiled)).expect("baseline run")
}

/// Fine-grained RegLess run options for the ablation benches.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ReglessRunOpts {
    /// OSU entries per SM.
    pub entries: usize,
    /// Compressor present.
    pub compressor: bool,
    /// Warp re-activation order.
    pub order: regless_core::ActivationOrder,
    /// Override the derived region configuration (ablations on region
    /// creation); `None` uses [`RegLessConfig::region_config`].
    pub region_override: Option<RegionConfig>,
    /// Compressor pattern subset.
    pub patterns: regless_core::PatternSet,
    /// Apply the bank-aware register renumbering pass before compiling
    /// (paper §5.2).
    pub renumber: bool,
}

impl Default for ReglessRunOpts {
    fn default() -> Self {
        ReglessRunOpts {
            entries: 512,
            compressor: true,
            order: regless_core::ActivationOrder::Lifo,
            region_override: None,
            patterns: regless_core::PatternSet::Full,
            renumber: false,
        }
    }
}

/// Run RegLess with explicit options.
///
/// # Panics
///
/// Panics on compile errors or simulation timeouts.
pub fn run_regless_opts(kernel: &Kernel, opts: ReglessRunOpts) -> RunReport {
    let gpu = eval_gpu();
    let cfg = RegLessConfig {
        compressor_enabled: opts.compressor,
        activation_order: opts.order,
        compressor_patterns: opts.patterns,
        ..RegLessConfig::with_capacity(opts.entries)
    };
    let rc = opts
        .region_override
        .unwrap_or_else(|| cfg.region_config(&gpu));
    let renumbered;
    let kernel = if opts.renumber {
        renumbered = regless_compiler::renumber_for_banks(kernel).0;
        &renumbered
    } else {
        kernel
    };
    let compiled = compile(kernel, &rc).expect("compile");
    RegLessSim::new(gpu, cfg, compiled)
        .run()
        .expect("regless run")
}

/// Compile a benchmark with the default (baseline-study) region config.
pub fn compile_default(kernel: &Kernel) -> CompiledKernel {
    compile(kernel, &RegionConfig::default()).expect("compile")
}

/// All benchmark names.
pub fn benchmarks() -> Vec<&'static str> {
    rodinia::NAMES.to_vec()
}

/// Geometric mean.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Render a horizontal ASCII bar chart (one row per label); bars scale to
/// the maximum value. Used to make the per-benchmark figures visually
/// comparable to the paper's charts.
pub fn bar_chart(rows: &[(String, f64)], width: usize) -> String {
    let max = rows
        .iter()
        .map(|(_, v)| *v)
        .fold(0.0f64, f64::max)
        .max(1e-12);
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, value) in rows {
        let bar = ((value / max) * width as f64).round() as usize;
        out.push_str(&format!(
            "{label:<label_w$} {value:>7.3} {}
",
            "#".repeat(bar.max(usize::from(*value > 0.0)))
        ));
    }
    out
}

/// Render an aligned plain-text table.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join("  ")
            .trim_end()
            .to_string()
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_uniform_is_value() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn table_formatting_aligns() {
        let t = format_table(
            &["bench", "value"],
            &[
                vec!["bfs".into(), "1.0".into()],
                vec!["streamcluster".into(), "0.5".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("bench"));
        assert!(lines[3].starts_with("streamcluster"));
    }

    /// One end-to-end smoke test across every design on the cheapest
    /// benchmark (full runs live in the figure binaries).
    #[test]
    fn all_designs_run_one_benchmark() {
        let kernel = rodinia::kernel("nn");
        let base = run_design(&kernel, DesignKind::Baseline);
        for d in [
            DesignKind::regless_512(),
            DesignKind::RegLessNoCompressor { entries: 512 },
            DesignKind::Rfh,
            DesignKind::Rfv,
            DesignKind::RegDem,
            DesignKind::CompressRf,
        ] {
            let r = run_design(&kernel, d);
            assert_eq!(r.total().insns, base.total().insns, "{d:?}");
            let e = energy_of(&r, d);
            assert!(e.total_pj() > 0.0);
        }
    }
}
