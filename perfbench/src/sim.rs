//! One simulation, split into its layer calls: kernel generation
//! (`workloads`), compilation (`compiler`), and the design's timing model
//! (`sim`, `core` or `baselines`). This mirrors what
//! `regless_bench::run_design` does in one call, so a traced run can time
//! each layer and attach the run loop's self-profiler; the reports are
//! checked byte-identical to the sweep engine's.

use crate::ops::Point;
use crate::trace::Tracer;
use regless_baselines::{CompressRfBackend, RegDemBackend, RfhBackend, RfvBackend};
use regless_bench::sweep::bench_kernel;
use regless_bench::{eval_gpu, DesignKind};
use regless_compiler::{compile, CompiledKernel, RegionConfig};
use regless_core::{RegLessConfig, RegLessSim};
use regless_sim::{BaselineRf, GpuConfig, Machine, OperandBackend, RunReport};
use regless_telemetry::SelfProfiler;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Span name of the timing-model call for a registry design id.
pub fn model_span(design: &str) -> &'static str {
    match design {
        "baseline" => "sim.run.baseline",
        "regless" => "core.run.regless",
        "regless-nc" => "core.run.regless-nc",
        "rfh" => "baselines.run.rfh",
        "rfv" => "baselines.run.rfv",
        "regdem" => "baselines.run.regdem",
        _ => "baselines.run.compress-rf",
    }
}

/// The RegLess configuration of a RegLess design (`None` otherwise).
fn regless_config(kind: DesignKind) -> Option<RegLessConfig> {
    match kind {
        DesignKind::RegLess { entries } => Some(RegLessConfig::with_capacity(entries)),
        DesignKind::RegLessNoCompressor { entries } => Some(RegLessConfig {
            compressor_enabled: false,
            ..RegLessConfig::with_capacity(entries)
        }),
        _ => None,
    }
}

/// Simulate one point layer by layer, spans under `parent` of op `op`.
/// `prof` attaches the run loop's self-profiler.
pub fn simulate(
    p: &Point,
    prof: Option<&Arc<SelfProfiler>>,
    tr: &mut Tracer,
    op: u64,
    parent: Option<usize>,
) -> Result<RunReport, String> {
    let kernel = tr
        .time(op, "workloads.kernel_gen", parent, || {
            bench_kernel(&p.bench)
        })
        .ok_or_else(|| format!("unknown benchmark {}", p.bench))?;
    let gpu = eval_gpu();
    let cfg = regless_config(p.kind);
    let rc = cfg.map_or_else(RegionConfig::default, |c| c.region_config(&gpu));
    let compiled = tr
        .time(op, "compiler.compile", parent, || compile(&kernel, &rc))
        .map_err(|e| format!("compile {}: {e:?}", p.bench))?;
    tr.time(op, model_span(p.design), parent, || {
        run_compiled(p.kind, gpu, cfg, compiled, prof)
    })
    .map_err(|e| format!("simulate {} {}: {e:?}", p.bench, p.design))
}

fn run_compiled(
    kind: DesignKind,
    gpu: GpuConfig,
    cfg: Option<RegLessConfig>,
    compiled: CompiledKernel,
    prof: Option<&Arc<SelfProfiler>>,
) -> Result<RunReport, regless_sim::SimError> {
    fn machine<B: OperandBackend>(
        mut m: Machine<B>,
        prof: Option<&Arc<SelfProfiler>>,
    ) -> Result<RunReport, regless_sim::SimError> {
        if let Some(p) = prof {
            m.attach_self_profiler(Arc::clone(p));
        }
        m.run()
    }
    if let Some(cfg) = cfg {
        let mut sim = RegLessSim::new(gpu, cfg, compiled);
        if let Some(p) = prof {
            sim.attach_self_profiler(Arc::clone(p));
        }
        return sim.run();
    }
    let c = Arc::new(compiled);
    match kind {
        DesignKind::Baseline => machine(Machine::new(gpu, c, |_| BaselineRf::new()), prof),
        DesignKind::RegLess { .. } | DesignKind::RegLessNoCompressor { .. } => {
            unreachable!("RegLess designs carry a config")
        }
        DesignKind::Rfh => {
            let gpu = GpuConfig {
                scheduler: RfhBackend::scheduler(),
                ..gpu
            };
            machine(
                Machine::new(gpu, Arc::clone(&c), |_| RfhBackend::new(&c)),
                prof,
            )
        }
        DesignKind::Rfv => {
            let gpu = GpuConfig {
                scheduler: RfvBackend::scheduler(),
                ..gpu
            };
            machine(
                Machine::new(gpu, Arc::clone(&c), |_| {
                    RfvBackend::new(&gpu, Arc::clone(&c))
                }),
                prof,
            )
        }
        DesignKind::RegDem => machine(
            Machine::new(gpu, Arc::clone(&c), |_| {
                RegDemBackend::new(&gpu, Arc::clone(&c))
            }),
            prof,
        ),
        DesignKind::CompressRf => {
            let gpu = GpuConfig {
                scheduler: CompressRfBackend::scheduler(),
                ..gpu
            };
            machine(
                Machine::new(gpu, Arc::clone(&c), |_| {
                    CompressRfBackend::new(&gpu, Arc::clone(&c))
                }),
                prof,
            )
        }
    }
}

/// Simulate every point directly (no cache) on `threads` threads, in
/// point order. Spans go to one recorder per thread, merged into `tr`.
pub fn direct_runs(
    points: &[Point],
    threads: usize,
    prof: Option<&Arc<SelfProfiler>>,
    tr: &mut Tracer,
    origin: Instant,
) -> Result<Vec<RunReport>, String> {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<Result<RunReport, String>>>> =
        Mutex::new((0..points.len()).map(|_| None).collect());
    let traced = tr.enabled();
    let tracers: Vec<Tracer> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut local = if traced {
                        Tracer::new(origin)
                    } else {
                        Tracer::disabled()
                    };
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(p) = points.get(i) else { break };
                        let r = simulate(p, prof, &mut local, 0, None);
                        results.lock().expect("results")[i] = Some(r);
                    }
                    local
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("set-up thread panicked"))
            .collect()
    });
    for t in tracers {
        tr.absorb(t);
    }
    results
        .into_inner()
        .expect("results")
        .into_iter()
        .map(|r| r.expect("every point ran"))
        .collect()
}
