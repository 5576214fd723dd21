//! `sweep_warm`: the paper sweep replayed from disk. Set-up simulates
//! every point directly and persists it into a fresh cache directory;
//! each pass then builds a fresh `SweepEngine` over that directory, so
//! every op is a disk hit (probe → read → JSON parse → `RunReport`)
//! followed by the `energy_of` call each figure makes.

use crate::check::{digest_line, Tally};
use crate::host::{peak_rss_mb, thread_rq_wait_ns, HostMark};
use crate::ops::{permuted, sweep_points};
use crate::sim::direct_runs;
use crate::trace::Tracer;
use crate::{layers, Outcome, RunConfig};
use regless_bench::energy_of;
use regless_bench::sweep::{SweepEngine, SweepMode};
use regless_json::{FromJson, Json};
use regless_sim::RunReport;
use regless_telemetry::SelfProfiler;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Nominal seconds of one pass on a 2-CPU host; `--seconds` buys
/// `round(seconds / PASS_S)` passes (at least one).
const PASS_S: f64 = 0.12;

/// Threads the set-up simulates on.
pub const SETUP_THREADS: usize = 2;

/// A sweep engine over `dir` whose own self-profiler records its stages
/// (canonicalize, cache probe, simulate, persist). The profiler follows
/// `REGLESS_SELFPROF` at construction only, so the variable is set just
/// around it.
pub fn profiled_engine(dir: &std::path::Path) -> SweepEngine {
    std::env::set_var("REGLESS_SELFPROF", "1");
    let engine = SweepEngine::with_config(Some(dir.to_path_buf()), SweepMode::Normal);
    std::env::remove_var("REGLESS_SELFPROF");
    engine
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let origin = Instant::now();
    let mut tr = if cfg.traced {
        Tracer::new(origin)
    } else {
        Tracer::disabled()
    };
    let prof = Arc::new(SelfProfiler::new(true));
    let points = sweep_points();
    let dir = cfg.work_dir.join("warm");

    // Set-up: the cold sweep that fills the cache, from direct runs.
    let t = Instant::now();
    let reports = direct_runs(
        &points,
        SETUP_THREADS,
        cfg.traced.then_some(&prof),
        &mut tr,
        origin,
    )?;
    let fill = SweepEngine::with_config(Some(dir.clone()), SweepMode::Normal);
    let mut expected = Vec::with_capacity(points.len());
    let mut model: HashMap<&'static str, (u64, u64)> = HashMap::new();
    let mut report_bytes = Vec::new();
    for (p, report) in points.iter().zip(reports) {
        expected.push(digest_line(&p.bench, p.variant(), &report));
        let m = model.entry(p.design).or_default();
        m.0 += report.cycles;
        m.1 += report.total().insns;
        if cfg.traced {
            let text = tr.time(0, "json.serialize", None, || {
                regless_json::to_string(&report)
            });
            report_bytes.push(text.len() as f64);
        }
        let report = Arc::new(report);
        tr.time(0, "sweep.persist", None, || {
            fill.insert(&p.bench, p.variant(), report)
        });
    }
    drop(fill);
    let mut out = Outcome::new(t.elapsed().as_secs_f64(), points.len());

    let passes = ((cfg.seconds as f64 / PASS_S).round() as usize).max(1);
    let index: Vec<usize> = (0..points.len()).collect();
    let mut tally = Tally::default();
    let mut traced_op_s = 0.0;
    let (mut probe_ns, mut canon_ns, mut disk_hits) = (0u64, 0u64, 0u64);
    let mark = HostMark::now();
    let rq0 = thread_rq_wait_ns();
    let wall = Instant::now();
    for pass in 0..passes {
        let engine = SweepEngine::with_config(Some(dir.clone()), SweepMode::Normal);
        let traced_engine = cfg.traced.then(|| profiled_engine(&dir));
        for (k, &i) in permuted(&index, cfg.seed, pass as u64).iter().enumerate() {
            let p = &points[i];
            let t = Instant::now();
            let report = engine.run(&p.bench, p.variant());
            let energy = energy_of(&report, p.kind);
            out.note_op(t.elapsed().as_secs_f64(), report.cycles);
            let mut outcome = check_hit(&report, energy.total_pj(), &expected[i], p);
            if let Some(te) = &traced_engine {
                let op = (pass * points.len() + k + 1) as u64;
                let t = Instant::now();
                let root = tr.begin(op, "op", None);
                let r = tr.time(op, "sweep.run", Some(root), || {
                    te.run(&p.bench, p.variant())
                });
                let e = tr.time(op, "energy.model", Some(root), || energy_of(&r, p.kind));
                tr.end(root);
                traced_op_s += t.elapsed().as_secs_f64();
                outcome = outcome.and(check_hit(&r, e.total_pj(), &expected[i], p));
            }
            tally.record(outcome);
        }
        let stats = engine.stats();
        if stats.disk_hits as usize != points.len() || stats.misses != 0 {
            tally.fail(format!(
                "pass {pass}: {} disk hits, {} misses for {} warm ops",
                stats.disk_hits,
                stats.misses,
                points.len()
            ));
        }
        if let Some(te) = traced_engine {
            disk_hits += te.stats().disk_hits;
            for (phase, total) in te.self_profiler().snapshot() {
                match phase.as_str() {
                    "cache_probe" => probe_ns += total.nanos,
                    "canonicalize" => canon_ns += total.nanos,
                    _ => {}
                }
            }
            if te
                .self_profiler()
                .snapshot()
                .iter()
                .any(|(n, _)| n == "simulate")
            {
                tally.fail(format!("pass {pass}: the traced engine simulated"));
            }
        }
    }
    out.wall_s = wall.elapsed().as_secs_f64();
    out.host = mark.close(thread_rq_wait_ns().saturating_sub(rq0));
    out.peak_rss_mb = peak_rss_mb("self");

    if cfg.traced {
        let n = (passes * points.len()) as f64;
        let mut entry_bytes = Vec::new();
        for p in &points {
            let path = p.entry_path(&dir);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            entry_bytes.push(text.len() as f64);
            let parsed = tr.time(0, "json.parse", None, || {
                Json::parse(&text)
                    .ok()
                    .and_then(|j| RunReport::from_json(j.field("report").ok()?).ok())
            });
            if parsed.is_none() {
                tally.fail(format!("{}: cache entry does not parse", path.display()));
            }
        }
        let sim_cycles = model.iter().map(|(&d, &(c, _))| (d, c)).collect();
        let op_s = out.op_seconds();
        let l = &mut out.layers;
        layers::sim_layers(l, &tr, &prof, &model, &sim_cycles);
        l.insert("sweep.canonicalize_us".into(), canon_ns as f64 / 1e3 / n);
        l.insert("sweep.cache_probe_us".into(), probe_ns as f64 / 1e3 / n);
        l.insert("sweep.persist_us".into(), tr.mean_ns("sweep.persist") / 1e3);
        l.insert("sweep.simulate_ms".into(), 0.0);
        l.insert("sweep.disk_hit_ratio".into(), disk_hits as f64 / n);
        l.insert("sweep.entry_bytes".into(), crate::stats::mean(&entry_bytes));
        l.insert("json.parse_us".into(), tr.mean_ns("json.parse") / 1e3);
        l.insert(
            "json.serialize_us".into(),
            tr.mean_ns("json.serialize") / 1e3,
        );
        l.insert(
            "json.report_bytes".into(),
            crate::stats::mean(&report_bytes),
        );
        l.insert("energy.model_us".into(), tr.mean_ns("energy.model") / 1e3);
        l.insert(
            "trace.overhead_pct".into(),
            100.0 * (traced_op_s / op_s - 1.0),
        );
    }
    out.tally = tally;
    out.tracer = tr;
    Ok(out)
}

/// A warm op returns the set-up's report bytes and a finite energy.
fn check_hit(
    report: &RunReport,
    energy_pj: f64,
    expected: &str,
    p: &crate::ops::Point,
) -> Result<(), String> {
    if digest_line(&p.bench, p.variant(), report) != expected {
        return Err(format!("{} {}: replayed report differs", p.bench, p.design));
    }
    if !(energy_pj.is_finite() && energy_pj > 0.0) {
        return Err(format!("{} {}: energy {energy_pj} pJ", p.bench, p.design));
    }
    Ok(())
}
