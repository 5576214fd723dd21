//! `serve_hits`: a `regless serve --workers 1` child serves a pre-warmed
//! cache. One client process (this one) keeps two connections busy with a
//! seeded mix of `run`/`profile`/`report` requests over the servable
//! designs and capacities, closed loop; every request is a cache hit.

use crate::check::{fnv1a64, Tally};
use crate::host::{peak_rss_mb, rq_wait_ns, thread_rq_wait_ns, HostMark};
use crate::ops::{serve_ops, serve_points, Point, ServeOp, SERVE_KINDS};
use crate::sim::direct_runs;
use crate::stats::{median, tail};
use crate::sweep_warm::SETUP_THREADS;
use crate::trace::Tracer;
use crate::{layers, Outcome, RunConfig};
use regless_bench::profile::ProfileReport;
use regless_bench::report::collect as report_collect;
use regless_bench::sweep::{SweepEngine, SweepMode};
use regless_json::{Json, ToJson};
use regless_serve::{Client, Request, RequestKind};
use regless_telemetry::obs::{format_trace_id, Span};
use regless_telemetry::SelfProfiler;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Connections (client threads) kept busy; the host has 2 CPUs.
const CONNECTIONS: usize = 2;

/// Nominal seconds of one block (one request per point × kind) on a
/// 2-CPU host; `--seconds` buys `round(seconds / BLOCK_S)` blocks.
const BLOCK_S: f64 = 0.115;

/// The payload field each kind's result lives in.
fn result_field(kind: usize) -> &'static str {
    ["report", "profile", "summary"][kind]
}

fn request_kind(kind: usize) -> RequestKind {
    [RequestKind::Run, RequestKind::Profile, RequestKind::Report][kind]
}

/// The server's design label and profile capacity for a point (see
/// `DesignSpec::label`/`osu_capacity` in `regless-serve`).
fn label_and_capacity(p: &Point) -> (&'static str, usize) {
    match p.design {
        "regless" | "regless-nc" => ("regless", p.capacity),
        other => (other, 0),
    }
}

fn request(id: u64, p: &Point, kind: usize) -> Request {
    Request {
        kernel: Some(p.bench.clone()),
        design: p.design.to_string(),
        capacity: p.capacity,
        compressor: true,
        ..Request::control(id, request_kind(kind))
    }
}

/// The `regless serve` child. Dropping it shuts it down.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn start(
        bin: &std::path::Path,
        cache_dir: &std::path::Path,
        log: &std::path::Path,
    ) -> Result<Server, String> {
        let log = std::fs::File::create(log).map_err(|e| format!("server log: {e}"))?;
        let mut child = Command::new(bin)
            .args(["serve", "--workers", "1", "--addr", "127.0.0.1:0"])
            .env("REGLESS_SWEEP_DIR", cache_dir)
            .env_remove("REGLESS_SWEEP")
            .env_remove("REGLESS_SELFPROF")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("start {}: {e}", bin.display()))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        let read = BufReader::new(stdout).read_line(&mut line);
        // From here on, dropping `server` stops the child.
        let mut server = Server {
            child,
            addr: String::new(),
        };
        read.map_err(|e| format!("server stdout: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("regless-serve listening on ")
            .ok_or_else(|| format!("unexpected server banner {line:?}"))?
            .to_string();
        Ok(server)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Ask the server to drain, then wait for it (killing it after 30 s).
    fn stop(mut self) -> Result<(), String> {
        if let Ok(mut c) = Client::connect(&self.addr) {
            let _ = c.request(&Request::control(0, RequestKind::Shutdown));
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server did not drain within 30 s".to_string());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Server counters from a `stats` request.
fn server_counters(addr: &str) -> Result<(u64, u64), String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let resp = c
        .request(&Request::control(0, RequestKind::Stats))
        .map_err(|e| format!("stats: {e}"))?;
    let get = |name| match resp.payload_field(name) {
        Some(Json::Int(n)) => Ok(*n as u64),
        other => Err(format!("stats field {name}: {other:?}")),
    };
    Ok((get("cache_hits")?, get("simulations")?))
}

/// What one connection thread measured.
#[derive(Default)]
struct ConnResult {
    /// (op-list index, latency ms, cycles returned) of every untraced op.
    ops: Vec<(usize, f64, u64)>,
    rq_wait_ns: u64,
    tally: Tally,
    /// Sizes of the untraced replies per kind (traced runs).
    response_bytes: [Vec<f64>; 3],
}

/// Check one reply: success, served from the cache, and the result bytes
/// of the set-up's direct run.
fn check_reply(resp: &regless_serve::Response, kind: usize, expected: u64) -> Result<u64, String> {
    if !resp.ok {
        return Err(format!("error reply {:?}", resp.error_code()));
    }
    if resp.payload_field("source") != Some(&Json::Str("cache".to_string())) {
        return Err(format!(
            "not a cache hit: {:?}",
            resp.payload_field("source")
        ));
    }
    let field = resp
        .payload_field(result_field(kind))
        .ok_or_else(|| format!("missing {}", result_field(kind)))?;
    if fnv1a64(field.to_string_compact().as_bytes()) != expected {
        return Err(format!(
            "{} bytes differ from the direct run",
            result_field(kind)
        ));
    }
    match resp.payload_field("cycles") {
        Some(Json::Int(c)) => Ok(*c as u64),
        other => Err(format!("cycles field {other:?}")),
    }
}

/// Span name of the client round trip of a request kind.
const RPC_SPANS: [&str; 3] = ["serve.rpc.run", "serve.rpc.profile", "serve.rpc.report"];

/// The server-side spans a traced reply carries, and their span names
/// here.
const SERVER_SPANS: [(&str, &str); 3] = [
    ("admission", "serve.admission"),
    ("cache", "serve.cache"),
    ("serialize", "serve.serialize"),
];

/// One connection's share of the ops, closed loop. A traced run sends
/// each request a second time with a `trace_id` and records the client
/// round trip plus the server's spans from the reply.
fn connection(
    addr: &str,
    ops: &[(usize, ServeOp)],
    points: &[Point],
    expected: &[[u64; 3]],
    traced: bool,
    origin: Instant,
) -> (ConnResult, Tracer) {
    let mut r = ConnResult::default();
    let mut tr = if traced {
        Tracer::new(origin)
    } else {
        Tracer::disabled()
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            for _ in ops {
                r.tally.record(Err(format!("connect: {e}")));
            }
            return (r, tr);
        }
    };
    let rq0 = thread_rq_wait_ns();
    for &(index, op) in ops {
        let id = index as u64 + 1;
        let p = &points[op.point];
        let want = expected[op.point][op.kind];
        let req = request(id, p, op.kind);
        let t = Instant::now();
        let resp = client.request(&req);
        let dt = t.elapsed().as_secs_f64();
        let mut cycles = 0;
        let mut outcome = resp.map_err(|e| format!("request: {e}")).and_then(|resp| {
            cycles = check_reply(&resp, op.kind, want)?;
            if traced {
                let text = resp.to_json().to_string_compact();
                r.response_bytes[op.kind].push(text.len() as f64);
                tr.time(id, "json.parse", None, || Json::parse(&text))
                    .map_err(|e| format!("reparse: {e:?}"))?;
            }
            Ok(())
        });
        r.ops.push((index, dt * 1e3, cycles));
        if traced {
            let rpc = tr.begin(id, RPC_SPANS[op.kind], None);
            let resp = client.request(&req.with_trace_id(format_trace_id(id)));
            tr.end(rpc);
            let spans = resp
                .map_err(|e| format!("traced request: {e}"))
                .and_then(|resp| {
                    check_reply(&resp, op.kind, want)?;
                    match resp.payload_field("trace") {
                        Some(Json::Arr(spans)) => Ok(spans.clone()),
                        _ => Err("traced reply has no spans".to_string()),
                    }
                });
            outcome = outcome.and(spans.map(|spans| {
                for s in spans.iter().filter_map(Span::from_json) {
                    if let Some(&(_, name)) = SERVER_SPANS.iter().find(|(n, _)| *n == s.name) {
                        tr.record(id, name, rpc, s.dur_us * 1000);
                    }
                }
            }));
        }
        r.tally.record(
            outcome.map_err(|e| format!("{} {} {}: {e}", SERVE_KINDS[op.kind], p.bench, p.design)),
        );
    }
    r.rq_wait_ns = thread_rq_wait_ns().saturating_sub(rq0);
    (r, tr)
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let bin = cfg
        .regless_bin
        .as_deref()
        .ok_or("serve_hits needs --regless-bin")?;
    let origin = Instant::now();
    let mut tr = if cfg.traced {
        Tracer::new(origin)
    } else {
        Tracer::disabled()
    };
    let prof = Arc::new(SelfProfiler::new(true));
    let points = serve_points();
    let dir = cfg.work_dir.join("serve-cache");

    // Set-up: direct runs, the expected bytes of every (point × kind)
    // reply, the cache fill, the server start and one warming request per
    // point.
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
        let (label, capacity) = label_and_capacity(p);
        let run = tr.time(0, "json.serialize", None, || {
            report.stable_json().to_string_compact()
        });
        report_bytes.push(run.len() as f64);
        let profile = tr.time(0, "telemetry.profile_render", None, || {
            ProfileReport::collect(&report, p.kernel, label, capacity)
                .to_json()
                .to_string_compact()
        });
        let summary = tr.time(0, "telemetry.report_render", None, || {
            report_collect(&report, p.kernel, label, capacity)
                .summary()
                .to_json()
                .to_string_compact()
        });
        expected.push([run, profile, summary].map(|s| fnv1a64(s.as_bytes())));
        let m = model.entry(p.design).or_default();
        m.0 += report.cycles;
        m.1 += report.total().insns;
        let report = Arc::new(report);
        tr.time(0, "sweep.persist", None, || {
            fill.insert(&p.bench, p.variant(), report)
        });
    }
    drop(fill);
    let entry_bytes: Vec<f64> = points
        .iter()
        .map(|p| std::fs::metadata(p.entry_path(&dir)).map_or(0, |m| m.len()) as f64)
        .collect();
    let server = Server::start(bin, &dir, &cfg.work_dir.join("serve.log"))?;
    {
        let mut c = Client::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
        for (i, p) in points.iter().enumerate() {
            let resp = c
                .request(&request(i as u64, p, 0))
                .map_err(|e| format!("warm-up: {e}"))?;
            check_reply(&resp, 0, expected[i][0])
                .map_err(|e| format!("warm-up {}: {e}", p.bench))?;
        }
    }
    let block = points.len() * SERVE_KINDS.len();
    let mut out = Outcome::new(t.elapsed().as_secs_f64(), block);

    let blocks = ((cfg.seconds as f64 / BLOCK_S).round() as usize).max(1);
    let ops: Vec<(usize, ServeOp)> = serve_ops(points.len(), cfg.seed, blocks)
        .into_iter()
        .enumerate()
        .collect();
    let (hits0, sims0) = server_counters(&server.addr)?;
    let child_rq0 = rq_wait_ns(&server.pid());
    let mark = HostMark::now();
    let wall = Instant::now();
    let results: Vec<(ConnResult, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let mine: Vec<(usize, ServeOp)> =
                    ops.iter().skip(c).step_by(CONNECTIONS).copied().collect();
                let (addr, points, expected) = (&server.addr, &points, &expected);
                s.spawn(move || connection(addr, &mine, points, expected, cfg.traced, origin))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    out.wall_s = wall.elapsed().as_secs_f64();
    let child_rq = rq_wait_ns(&server.pid()).saturating_sub(child_rq0);
    let (hits1, sims1) = server_counters(&server.addr)?;
    let server_rss = peak_rss_mb(&server.pid());
    server.stop()?;

    let mut tally = Tally::default();
    let mut rq = child_rq;
    let mut response_bytes: [Vec<f64>; 3] = Default::default();
    let mut by_index = vec![(0.0, 0); ops.len()];
    for (r, t) in results {
        for (i, ms, cycles) in r.ops {
            by_index[i] = (ms, cycles);
        }
        rq += r.rq_wait_ns;
        for (all, mine) in response_bytes.iter_mut().zip(&r.response_bytes) {
            all.extend(mine);
        }
        tally.merge(r.tally);
        tr.absorb(t);
    }
    for (ms, cycles) in by_index {
        out.note_op(ms / 1e3, cycles);
    }
    let sent = if cfg.traced { 2 } else { 1 } * ops.len() as u64;
    if hits1 - hits0 != sent || sims1 != sims0 {
        tally.fail(format!(
            "{} cache hits and {} simulations for {sent} requests",
            hits1 - hits0,
            sims1 - sims0
        ));
    }
    out.ops_per_s = Some(ops.len() as f64 / out.wall_s);
    out.host = mark.close(rq);
    out.peak_rss_mb = peak_rss_mb("self") + server_rss;

    if cfg.traced {
        let sim_cycles = model.iter().map(|(&d, &(c, _))| (d, c)).collect();
        let untraced_s = out.op_seconds();
        let traced_s = RPC_SPANS.iter().map(|n| tr.total(n).0).sum::<f64>() / 1e9;
        let l = &mut out.layers;
        layers::sim_layers(l, &tr, &prof, &model, &sim_cycles);
        l.insert("sweep.persist_us".into(), tr.mean_ns("sweep.persist") / 1e3);
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
        l.insert(
            "telemetry.profile_render_us".into(),
            tr.mean_ns("telemetry.profile_render") / 1e3,
        );
        l.insert(
            "telemetry.report_render_us".into(),
            tr.mean_ns("telemetry.report_render") / 1e3,
        );
        for (k, kind) in SERVE_KINDS.iter().enumerate() {
            let rpc_ms: Vec<f64> = tr
                .durations(RPC_SPANS[k])
                .iter()
                .map(|ns| ns / 1e6)
                .collect();
            l.insert(format!("serve.rpc_p50_ms.{kind}"), median(&rpc_ms));
            l.insert(
                format!("serve.rpc_tail_ms.{kind}"),
                tail(&rpc_ms).map_or(0.0, |t| t.value),
            );
            l.insert(
                format!("serve.response_bytes.{kind}"),
                crate::stats::mean(&response_bytes[k]),
            );
        }
        for (span, name) in SERVER_SPANS {
            l.insert(format!("serve.span.{span}_us"), tr.mean_ns(name) / 1e3);
        }
        l.insert(
            "serve.cache_hit_ratio".into(),
            (hits1 - hits0) as f64 / sent as f64,
        );
        l.insert(
            "trace.overhead_pct".into(),
            100.0 * (traced_s / untraced_s - 1.0),
        );
    }
    out.tally = tally;
    out.tracer = tr;
    Ok(out)
}
