//! Fixed-work benchmark of the RegLess reproduction.
//!
//! ```text
//! regless-perfbench --workload <sim_cold|sweep_warm|serve_hits> --seed <n>
//!     --seconds <s> --trace <0|1> [--regless-bin <path>] [--git-sha <sha>]
//!     [--command <text>]
//! ```
//!
//! Runs one workload, checks every output, and prints as its last stdout
//! line one JSON object: `correct`, `attempted`, `failed`, and `metrics`
//! (the end-to-end metrics untraced, the per-layer metrics with
//! `--trace 1`). Run records, spans and scratch caches go under
//! `perfbench/out/`, relative to the working directory (the repository
//! root). `perfbench/run.py` builds this binary and `regless`, then calls
//! it; see `perfbench/README.md`.

mod check;
mod host;
mod layers;
mod ops;
mod serve_hits;
mod sim;
mod sim_cold;
mod stats;
mod sweep_warm;
mod trace;

use host::HostWindow;
use stats::{median, tail};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};
use trace::Tracer;

/// What a workload run is told.
pub struct RunConfig {
    /// Input seed: permutes the op list.
    pub seed: u64,
    /// Nominal run length; fixes the number of passes (never a deadline).
    pub seconds: u64,
    /// Record spans and report the per-layer metrics.
    pub traced: bool,
    /// Scratch directory of this run (cache directories, server log).
    pub work_dir: PathBuf,
    /// The `regless` binary (`serve_hits` starts `regless serve`).
    pub regless_bin: Option<PathBuf>,
}

/// What a workload run measured.
pub struct Outcome {
    /// Pass/fail counts of the ops.
    pub tally: check::Tally,
    /// Set-up seconds (median of the set-up repetitions where repeated).
    pub setup_s: f64,
    /// Latency of every untraced op in op-list order, ms.
    pub latencies_ms: Vec<f64>,
    /// Simulated cycles of the report every untraced op returned.
    pub op_cycles: Vec<u64>,
    /// Ops per pass: `latencies_ms` splits into passes of this length,
    /// each with the same op mix.
    pub pass_len: usize,
    /// Wall seconds of the measured phase.
    pub wall_s: f64,
    /// Throughput override for concurrent callers (ops / wall second);
    /// `None` means one closed-loop caller: the median over passes of
    /// ops / Σ op seconds.
    pub ops_per_s: Option<f64>,
    /// Peak RSS of the benchmark process (plus the server child), MiB.
    pub peak_rss_mb: f64,
    /// Host diagnostics over the measured phase.
    pub host: HostWindow,
    /// Per-layer metrics (traced runs).
    pub layers: BTreeMap<String, f64>,
    /// Spans (traced runs).
    pub tracer: Tracer,
}

impl Outcome {
    fn new(setup_s: f64, pass_len: usize) -> Outcome {
        Outcome {
            tally: check::Tally::default(),
            setup_s,
            latencies_ms: Vec::new(),
            op_cycles: Vec::new(),
            pass_len,
            wall_s: 0.0,
            ops_per_s: None,
            peak_rss_mb: 0.0,
            host: HostWindow::default(),
            layers: BTreeMap::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Count one untraced op's latency and the cycles it returned.
    fn note_op(&mut self, seconds: f64, cycles: u64) {
        self.latencies_ms.push(seconds * 1e3);
        self.op_cycles.push(cycles);
    }

    /// Σ untraced op seconds.
    fn op_seconds(&self) -> f64 {
        self.latencies_ms.iter().sum::<f64>() / 1e3
    }
}

/// What one pass of a run measured. Every pass has the same op mix, so
/// the end-to-end metrics are medians over passes.
struct Pass {
    /// Ops / Σ op seconds.
    ops_per_s: f64,
    /// Simulated Mcycles of the returned reports / Σ op seconds.
    mcycles_per_s: f64,
    /// The pass's op tail (`None` for a pass under 11 ops).
    tail: Option<stats::Tail>,
}

fn passes(out: &Outcome) -> Vec<Pass> {
    let len = out.pass_len.max(1);
    out.latencies_ms
        .chunks(len)
        .zip(out.op_cycles.chunks(len))
        .map(|(lat, cycles)| {
            let s = lat.iter().sum::<f64>() / 1e3;
            Pass {
                ops_per_s: lat.len() as f64 / s,
                mcycles_per_s: cycles.iter().sum::<u64>() as f64 / s / 1e6,
                tail: tail(lat),
            }
        })
        .collect()
}

/// The end-to-end metrics, with units, in print order.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_mcycles_per_s", "Mcycles/s"),
];

/// Every workload this binary runs. `BENCHMARK.json` lists the ones steady
/// enough to gate on; `sim_cold` is left out (see `perfbench/NOISE.md`).
const WORKLOADS: [&str; 3] = ["sim_cold", "sweep_warm", "serve_hits"];

/// Where run records, spans and scratch caches go.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    regless_bin: Option<PathBuf>,
    git_sha: String,
    command: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        regless_bin: None,
        git_sha: "unknown".to_string(),
        command: std::env::args().collect::<Vec<_>>().join(" "),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--regless-bin" => args.regless_bin = Some(PathBuf::from(value()?)),
            "--git-sha" => args.git_sha = value()?,
            "--command" => args.command = value()?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, not {:?}",
            args.workload
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

/// A number as JSON: finite values with all their digits.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let work_dir = Path::new(OUT_DIR)
        .join("work")
        .join(format!("{tag}-{}", std::process::id()));
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        work_dir: work_dir.clone(),
        regless_bin: args.regless_bin.clone(),
    };
    let result = std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("create {}: {e}", work_dir.display()))
        .and_then(|()| match args.workload.as_str() {
            "sim_cold" => sim_cold::run(&cfg),
            "sweep_warm" => sweep_warm::run(&cfg),
            _ => serve_hits::run(&cfg),
        });
    let _ = std::fs::remove_dir_all(&work_dir);
    match result {
        Ok(out) => {
            if let Err(e) = report(&args, &tag, out) {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

/// Print the run's summary lines and result, and write its record (and
/// spans) beside them.
fn report(args: &Args, tag: &str, mut out: Outcome) -> Result<(), String> {
    let passes = passes(&out);
    let tails: Vec<stats::Tail> = passes.iter().filter_map(|p| p.tail).collect();
    let Some(&t) = tails.first() else {
        return Err(format!(
            "passes of {} ops: op_tail_ms needs at least {} samples per pass",
            out.pass_len,
            stats::TAIL_BEYOND + 1
        ));
    };
    let column = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let op_tail = median(&tails.iter().map(|t| t.value).collect::<Vec<_>>());
    let e2e: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let v = match name {
                "setup_s" => out.setup_s,
                "ops_per_s" => out.ops_per_s.unwrap_or_else(|| column(|p| p.ops_per_s)),
                "op_p50_ms" => median(&out.latencies_ms),
                "op_tail_ms" => op_tail,
                "peak_rss_mb" => out.peak_rss_mb,
                _ => column(|p| p.mcycles_per_s),
            };
            (name, v, unit)
        })
        .collect();
    out.layers
        .insert("host.rq_wait_ms".into(), out.host.rq_wait_ms);
    out.layers.insert("host.steal_ms".into(), out.host.steal_ms);
    out.layers.insert("host.loadavg1".into(), out.host.loadavg1);
    let per_layer: Vec<(String, f64, &str)> = layers::names()
        .into_iter()
        .map(|(name, unit)| {
            let v = out.layers.get(&name).copied().unwrap_or(0.0);
            (name, v, unit)
        })
        .collect();

    let metric_json = |rows: &mut dyn Iterator<Item = (&str, f64, &str)>| {
        rows.map(|(name, v, unit)| {
            format!(r#""{name}": {{"value": {}, "unit": "{unit}"}}"#, num(v))
        })
        .collect::<Vec<_>>()
        .join(", ")
    };
    let e2e_json = metric_json(&mut e2e.iter().copied());
    let layer_json = metric_json(&mut per_layer.iter().map(|(n, v, u)| (n.as_str(), *v, *u)));
    let finite = e2e.iter().all(|r| r.1.is_finite()) && per_layer.iter().all(|r| r.1.is_finite());
    if !finite {
        out.tally
            .fail("a metric is not a finite number".to_string());
    }
    let correct = out.tally.failed == 0 && out.tally.attempted > 0;
    let h = out.host;
    let host_json = format!(
        r#"{{"cpus": {}, "git_sha": "{}", "command": {}, "rq_wait_ms": {}, "steal_ms": {}, "loadavg1": {}, "unix_time": {}}}"#,
        host::cpu_count(),
        args.git_sha,
        regless_json::to_string(&args.command),
        num(h.rq_wait_ms),
        num(h.steal_ms),
        num(h.loadavg1),
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs())
    );
    let tail_json = format!(
        r#"{{"value_ms": {}, "percentile": {}, "samples_per_pass": {}, "min_beyond": {}, "passes": {}}}"#,
        num(op_tail),
        num(t.percentile),
        t.samples,
        tails.iter().map(|t| t.beyond).min().unwrap_or(0),
        tails.len()
    );

    let out_dir = Path::new(OUT_DIR);
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"correct\": {correct}, \
         \"attempted\": {}, \"failed\": {}, \"host\": {host_json}, \"op_tail\": {tail_json}, \
         \"end_to_end\": {{{e2e_json}}}, \"per_layer\": {{{layer_json}}}, \"failures\": {}}}\n",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.tally.attempted,
        out.tally.failed,
        regless_json::to_string(&out.tally.messages),
    );
    let record_path = out_dir.join(format!("{tag}.json"));
    std::fs::write(&record_path, record)
        .map_err(|e| format!("write {}: {e}", record_path.display()))?;
    if args.trace {
        let spans = out_dir.join(format!("{tag}.spans.jsonl"));
        out.tracer
            .write_jsonl(&spans)
            .map_err(|e| format!("write {}: {e}", spans.display()))?;
    }

    for m in &out.tally.messages {
        println!("failed: {m}");
    }
    println!(
        "{}: {} ops ({} failed), setup {:.3} s, measured {:.3} s",
        args.workload, out.tally.attempted, out.tally.failed, out.setup_s, out.wall_s
    );
    println!(
        "op_tail_ms = {op_tail:.3}: median over {} passes of the p{:.2} tail of a pass \
         ({} samples per pass, at least {} beyond)",
        tails.len(),
        t.percentile,
        t.samples,
        stats::TAIL_BEYOND
    );
    println!("host {host_json}");
    println!("record {}", record_path.display());
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        out.tally.attempted,
        out.tally.failed,
        if args.trace { layer_json } else { e2e_json }
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use regless_json::Json;

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this binary prints, with the same units, and only workloads it runs.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let rows = |key: &str, field: &str| -> Vec<(String, String)> {
            let Ok(Json::Arr(items)) = json.field(key) else {
                panic!("{key} is not a list");
            };
            items
                .iter()
                .map(|m| {
                    let s = |f: &str| match m.field(f) {
                        Ok(Json::Str(s)) => s.clone(),
                        _ => String::new(),
                    };
                    (s("name"), s(field))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(rows("end_to_end", "unit"), e2e);
        let per_layer: Vec<(String, String)> = layers::names()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(rows("per_layer", "unit"), per_layer);
        let workloads: Vec<String> = rows("workloads", "why").into_iter().map(|r| r.0).collect();
        assert!(workloads.len() >= 2);
        assert!(workloads.iter().all(|w| WORKLOADS.contains(&w.as_str())));
    }
}
