//! `sim_cold`: the paper sweep on an empty cache. Every op is
//! `SweepEngine::run` on a point the engine has never seen, so it
//! canonicalizes, probes (miss), simulates and persists.

use crate::check::{check_sim_report, digest_line, interpreter_insns, Tally};
use crate::host::{peak_rss_mb, thread_rq_wait_ns, HostMark};
use crate::ops::{permuted, sweep_points, Point};
use crate::sim::simulate;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{layers, Outcome, RunConfig};
use regless_bench::sweep::{SweepEngine, SweepMode};
use regless_compiler::{compile, RegionConfig};
use regless_sim::RunReport;
use regless_telemetry::SelfProfiler;
use regless_workloads::rodinia;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Nominal seconds of one pass on a 2-CPU host; `--seconds` buys
/// `round(seconds / PASS_S)` passes (at least one).
const PASS_S: f64 = 18.0;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

struct Setup {
    ops: Vec<Point>,
    interp_insns: HashMap<&'static str, u64>,
}

/// Generate and compile every kernel and take the interpreter's retired
/// instruction counts, the reference the checks compare against.
fn setup(seed: u64, tr: &mut Tracer) -> Result<Setup, String> {
    let mut interp_insns = HashMap::new();
    for &name in rodinia::NAMES.iter() {
        let kernel = tr.time(0, "workloads.kernel_gen", None, || rodinia::kernel(name));
        tr.time(0, "compiler.compile", None, || {
            compile(&kernel, &RegionConfig::default())
        })
        .map_err(|e| format!("compile {name}: {e:?}"))?;
        interp_insns.insert(name, interpreter_insns(&kernel)?);
    }
    Ok(Setup {
        ops: permuted(&sweep_points(), seed, 0),
        interp_insns,
    })
}

fn fresh_engine(dir: &std::path::Path) -> Result<SweepEngine, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    Ok(SweepEngine::with_config(
        Some(dir.to_path_buf()),
        SweepMode::Normal,
    ))
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let origin = Instant::now();
    let mut tr = if cfg.traced {
        Tracer::new(origin)
    } else {
        Tracer::disabled()
    };
    // The first set-up provides the op list and the checker's reference;
    // the other repetitions are spread evenly through the measured phase,
    // so `setup_s` (their median) sees the same host as the ops do.
    let t = Instant::now();
    let Setup { ops, interp_insns } = setup(cfg.seed, &mut tr)?;
    let mut setup_times = vec![t.elapsed().as_secs_f64()];
    let setup_every = ops.len() / SETUP_REPS;
    let passes = ((cfg.seconds as f64 / PASS_S).round() as usize).max(1);

    let mut out = Outcome::new(0.0, ops.len());
    let mut tally = Tally::default();
    let prof = Arc::new(SelfProfiler::new(true));
    let mut model: HashMap<&'static str, (u64, u64)> = HashMap::new();
    let mut traced_cycles: HashMap<&'static str, u64> = HashMap::new();
    let mut entry_bytes = Vec::new();
    let mut report_bytes = Vec::new();
    let mut traced_op_s = 0.0;
    let mut probe_hits = 0usize;

    let mark = HostMark::now();
    let rq0 = thread_rq_wait_ns();
    let wall = Instant::now();
    for pass in 0..passes {
        let engine = fresh_engine(&cfg.work_dir.join(format!("cold-{pass}")))?;
        let traced_engine = fresh_engine(&cfg.work_dir.join(format!("traced-{pass}")))?;
        for (i, p) in ops.iter().enumerate() {
            let t = Instant::now();
            let report = engine.run(&p.bench, p.variant());
            let dt = t.elapsed().as_secs_f64();
            out.note_op(dt, report.cycles);
            let insns = interp_insns[p.kernel];
            let mut outcome = check_sim_report(&report, insns);
            if pass == 0 {
                let m = model.entry(p.design).or_default();
                m.0 += report.cycles;
                m.1 += report.total().insns;
            }
            if cfg.traced {
                // The same op again, layer by layer, into its own cache.
                let op = (pass * ops.len() + i + 1) as u64;
                let t = Instant::now();
                let traced = traced_op(p, &traced_engine, &prof, &mut tr, op);
                traced_op_s += t.elapsed().as_secs_f64();
                outcome = outcome.and(traced.and_then(|(r, hit, bytes)| {
                    probe_hits += usize::from(hit);
                    *traced_cycles.entry(p.design).or_default() += r.cycles;
                    report_bytes.push(bytes as f64);
                    let path = p.entry_path(&cfg.work_dir.join(format!("traced-{pass}")));
                    entry_bytes.push(std::fs::metadata(path).map_or(0, |m| m.len()) as f64);
                    check_sim_report(&r, insns)?;
                    if digest_line(&p.bench, p.variant(), &r)
                        != digest_line(&p.bench, p.variant(), &report)
                    {
                        return Err("traced report differs from the engine's".to_string());
                    }
                    Ok(())
                }));
            }
            tally.record(outcome.map_err(|e| format!("{} {}: {e}", p.bench, p.design)));
            if pass == 0 && (i + 1) % setup_every == 0 && setup_times.len() < SETUP_REPS {
                let t = Instant::now();
                let again = setup(cfg.seed, &mut tr)?;
                setup_times.push(t.elapsed().as_secs_f64());
                if again.ops != ops || again.interp_insns != interp_insns {
                    tally.fail("set-up is not deterministic".to_string());
                }
            }
        }
        let stats = engine.stats();
        if stats.misses as usize != ops.len() || stats.disk_hits != 0 {
            tally.fail(format!(
                "pass {pass}: {} misses, {} disk hits for {} cold ops",
                stats.misses,
                stats.disk_hits,
                ops.len()
            ));
        }
    }
    out.wall_s = wall.elapsed().as_secs_f64();
    out.setup_s = median(&setup_times);
    out.host = mark.close(thread_rq_wait_ns().saturating_sub(rq0));
    out.peak_rss_mb = peak_rss_mb("self");
    out.tally = tally;

    if cfg.traced {
        let op_s = out.op_seconds();
        let l = &mut out.layers;
        layers::sim_layers(l, &tr, &prof, &model, &traced_cycles);
        let n = (ops.len() * passes) as f64;
        l.insert(
            "sweep.canonicalize_us".into(),
            tr.mean_ns("sweep.canonicalize") / 1e3,
        );
        l.insert(
            "sweep.cache_probe_us".into(),
            tr.mean_ns("sweep.cache_probe") / 1e3,
        );
        l.insert("sweep.persist_us".into(), tr.mean_ns("sweep.persist") / 1e3);
        l.insert(
            "sweep.simulate_ms".into(),
            tr.mean_ns("sweep.simulate") / 1e6,
        );
        l.insert("sweep.disk_hit_ratio".into(), probe_hits as f64 / n);
        l.insert("sweep.entry_bytes".into(), crate::stats::mean(&entry_bytes));
        l.insert(
            "json.serialize_us".into(),
            tr.mean_ns("json.serialize") / 1e3,
        );
        l.insert(
            "json.report_bytes".into(),
            crate::stats::mean(&report_bytes),
        );
        l.insert(
            "trace.overhead_pct".into(),
            100.0 * (traced_op_s / op_s - 1.0),
        );
    }
    out.tracer = tr;
    Ok(out)
}

/// One cold op layer by layer, through the engine's public calls: the
/// miss path of `SweepEngine::run` is canonicalize → probe → simulate →
/// persist. Returns the report, whether the probe hit, and the report's
/// serialized size.
fn traced_op(
    p: &Point,
    engine: &SweepEngine,
    prof: &Arc<SelfProfiler>,
    tr: &mut Tracer,
    op: u64,
) -> Result<(Arc<RunReport>, bool, usize), String> {
    let root = tr.begin(op, "op", None);
    let variant = tr.time(op, "sweep.canonicalize", Some(root), || {
        p.variant().canonical()
    });
    let hit = tr
        .time(op, "sweep.cache_probe", Some(root), || {
            engine.lookup(&p.bench, variant)
        })
        .is_some();
    let sim = tr.begin(op, "sweep.simulate", Some(root));
    let report = simulate(p, Some(prof), tr, op, Some(sim))?;
    tr.end(sim);
    let text = tr.time(op, "json.serialize", Some(root), || {
        regless_json::to_string(&report)
    });
    let report = Arc::new(report);
    tr.time(op, "sweep.persist", Some(root), || {
        engine.insert(&p.bench, variant, Arc::clone(&report))
    });
    tr.end(root);
    Ok((report, hit, text.len()))
}
