//! The per-layer metrics a traced run prints, and the simulator-side ones
//! every workload derives the same way.
//!
//! Every traced run prints every metric below. A layer the workload never
//! calls reads 0: for example `sweep.simulate_ms` on `sweep_warm`, whose
//! ops are all cache hits, or the `serve.*` metrics on the two in-process
//! workloads.

use crate::trace::Tracer;
use regless_telemetry::SelfProfiler;
use std::collections::{BTreeMap, HashMap};

/// Registry design ids, in registry order.
pub const DESIGNS: [&str; 7] = [
    "baseline",
    "regless",
    "regless-nc",
    "rfh",
    "rfv",
    "regdem",
    "compress-rf",
];

/// The run loop's self-profiler phases.
pub const PHASES: [&str; 5] = [
    "issue",
    "writeback",
    "backend_tick",
    "event_jump",
    "stats_windows",
];

/// Every per-layer metric with its unit, in print order.
pub fn names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![
        ("workloads.kernel_gen_ms".into(), "ms"),
        ("compiler.compile_ms".into(), "ms"),
    ];
    for d in DESIGNS {
        v.push((ns_per_cycle_name(d), "ns/cycle"));
    }
    for p in PHASES {
        v.push((format!("sim.phase.{p}_ms"), "ms"));
    }
    for d in DESIGNS {
        v.push((format!("model.cycles.{d}"), "count"));
    }
    for d in DESIGNS {
        v.push((format!("model.insns.{d}"), "count"));
    }
    let rest: [(&str, &'static str); 30] = [
        ("sim.op_share_pct", "%"),
        ("sweep.canonicalize_us", "us"),
        ("sweep.cache_probe_us", "us"),
        ("sweep.persist_us", "us"),
        ("sweep.simulate_ms", "ms"),
        ("sweep.disk_hit_ratio", "ratio"),
        ("sweep.entry_bytes", "B"),
        ("json.parse_us", "us"),
        ("json.serialize_us", "us"),
        ("json.report_bytes", "B"),
        ("energy.model_us", "us"),
        ("telemetry.profile_render_us", "us"),
        ("telemetry.report_render_us", "us"),
        ("serve.rpc_p50_ms.run", "ms"),
        ("serve.rpc_p50_ms.profile", "ms"),
        ("serve.rpc_p50_ms.report", "ms"),
        ("serve.rpc_tail_ms.run", "ms"),
        ("serve.rpc_tail_ms.profile", "ms"),
        ("serve.rpc_tail_ms.report", "ms"),
        ("serve.span.admission_us", "us"),
        ("serve.span.cache_us", "us"),
        ("serve.span.serialize_us", "us"),
        ("serve.response_bytes.run", "B"),
        ("serve.response_bytes.profile", "B"),
        ("serve.response_bytes.report", "B"),
        ("serve.cache_hit_ratio", "ratio"),
        ("host.rq_wait_ms", "ms"),
        ("host.steal_ms", "ms"),
        ("host.loadavg1", "load"),
        ("trace.overhead_pct", "%"),
    ];
    v.extend(rest.iter().map(|&(n, u)| (n.to_string(), u)));
    v
}

/// `<crate>.ns_per_cycle.<design>`: the crate that owns the design's
/// timing model.
fn ns_per_cycle_name(design: &str) -> String {
    let krate = match design {
        "baseline" => "sim",
        "regless" | "regless-nc" => "core",
        _ => "baselines",
    };
    format!("{krate}.ns_per_cycle.{design}")
}

/// Simulator-side layers from a run's spans and self-profiler:
/// kernel generation and compile time per call, host ns per simulated
/// cycle per design (`sim_cycles` holds the cycles of the timed
/// simulations), the timing models' share of the traced ops' host time,
/// the run-loop phases per simulation, and the exact model counts
/// (`model` holds Σ cycles and Σ instructions per design over the
/// distinct points).
pub fn sim_layers(
    l: &mut BTreeMap<String, f64>,
    tr: &Tracer,
    prof: &SelfProfiler,
    model: &HashMap<&'static str, (u64, u64)>,
    sim_cycles: &HashMap<&'static str, u64>,
) {
    l.insert(
        "workloads.kernel_gen_ms".into(),
        tr.mean_ns("workloads.kernel_gen") / 1e6,
    );
    l.insert(
        "compiler.compile_ms".into(),
        tr.mean_ns("compiler.compile") / 1e6,
    );
    let mut sims = 0usize;
    let mut model_ns_in_ops = 0.0;
    for d in DESIGNS {
        let (ns, n) = tr.total(crate::sim::model_span(d));
        sims += n;
        model_ns_in_ops += tr.total_in_ops(crate::sim::model_span(d));
        let cycles = sim_cycles.get(d).copied().unwrap_or(0);
        if cycles > 0 {
            l.insert(ns_per_cycle_name(d), ns / cycles as f64);
        }
        if let Some(&(c, i)) = model.get(d) {
            l.insert(format!("model.cycles.{d}"), c as f64);
            l.insert(format!("model.insns.{d}"), i as f64);
        }
    }
    let op_ns = tr.total("op").0;
    if op_ns > 0.0 {
        l.insert("sim.op_share_pct".into(), 100.0 * model_ns_in_ops / op_ns);
    }
    if sims > 0 {
        for (phase, total) in prof.snapshot() {
            if PHASES.contains(&phase.as_str()) {
                l.insert(
                    format!("sim.phase.{phase}_ms"),
                    total.nanos as f64 / 1e6 / sims as f64,
                );
            }
        }
    }
}
