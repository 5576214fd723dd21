//! End-to-end contract tests for the serving subsystem (ISSUE 5).
//!
//! These drive a real server over real TCP through the public client and
//! prove the four serving guarantees: coalescing (M identical concurrent
//! submits run one simulation), cooperative cancellation (a short
//! deadline returns a structured timeout within 2x the deadline and the
//! worker survives), admission control (a full queue answers
//! `queue_full` instead of blocking), and byte-identity (a served report
//! equals a CLI-direct one, however it was served).

use regless::bench::sweep::{SweepEngine, SweepMode};
use regless::bench::{run_design, DesignKind};
use regless::serve::{Client, ErrorCode, Request, RequestKind, ServeConfig, Server, ServerHandle};
use regless::workloads::rodinia;
use regless_json::Json;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A kernel slow enough (~3.2M machine cycles) that a request for it
/// reliably occupies a worker for its full deadline in both debug and
/// release builds — the deadline, not the simulation, bounds test time.
const SLOW_TRIPS: u32 = 50_000;

fn write_slow_asm(tag: &str) -> String {
    let path = std::env::temp_dir().join(format!("regless-serve-{}-{tag}.asm", std::process::id()));
    let text = format!(
        "kernel slow_{tag}\nbb0:\n  r0 = movi 0x0\n  r1 = movi {SLOW_TRIPS:#x}\n  jmp bb1\n\
         bb1:\n  r2 = movi 0x1\n  r0 = iadd r0, r2\n  r3 = setlt r0, r1\n  bra r3, bb1, bb2\n\
         bb2:\n  exit\n"
    );
    std::fs::write(&path, text).expect("write slow kernel");
    path.to_str().expect("utf-8 temp path").to_string()
}

fn start_server(workers: usize, queue_capacity: usize) -> ServerHandle {
    // A fresh memory-only engine per test: no cross-test or on-disk state.
    let engine = Arc::new(SweepEngine::with_config(None, SweepMode::Normal));
    Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            queue_capacity,
            drain_timeout: Duration::from_secs(60),
        },
        engine,
    )
    .expect("start server")
}

fn stat(stats: &regless::serve::Response, name: &str) -> i64 {
    match stats.payload_field(name) {
        Some(Json::Int(v)) => *v,
        other => panic!("stats field {name} missing or non-integer: {other:?}"),
    }
}

/// Poll `stats` until `pred` holds (or panic after ~5 s).
fn wait_for_stats(
    addr: &str,
    mut pred: impl FnMut(&regless::serve::Response) -> bool,
) -> regless::serve::Response {
    let mut client = Client::connect(addr).expect("connect for stats");
    for _ in 0..500 {
        let stats = client
            .request(&Request::control(0, RequestKind::Stats))
            .expect("stats request");
        if pred(&stats) {
            return stats;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("server never reached the expected stats state");
}

#[test]
fn concurrent_identical_submits_coalesce_into_one_simulation() {
    const M: usize = 4;
    let handle = start_server(1, 16);
    let addr = handle.addr().to_string();
    let slow = write_slow_asm("blocker");

    // Occupy the single worker with a slow job that cancels itself via
    // its own deadline; while it runs, all M identical submits below must
    // pile onto one pending job.
    let blocker = {
        let addr = addr.clone();
        let slow = slow.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).expect("connect blocker");
            let mut req = Request::run(99, &slow);
            req.timeout_ms = Some(1_500);
            let started = Instant::now();
            let resp = c.request(&req).expect("blocker response");
            (resp, started.elapsed())
        })
    };
    wait_for_stats(&addr, |s| {
        stat(s, "in_flight") == 1 && stat(s, "queue_depth") == 0
    });

    let responses: Vec<regless::serve::Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..M)
            .map(|i| {
                let addr = &addr;
                scope.spawn(move || {
                    let mut c = Client::connect(addr).expect("connect submitter");
                    c.request(&Request::run(i as u64, "rodinia/nn"))
                        .expect("submit response")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for r in &responses {
        assert!(r.ok, "{r:?}");
    }
    let mut sources: Vec<String> = responses
        .iter()
        .map(|r| match r.payload_field("source") {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("missing source: {other:?}"),
        })
        .collect();
    sources.sort();
    assert_eq!(sources[0], "coalesced");
    assert_eq!(sources[M - 1], "simulated");
    assert_eq!(
        sources.iter().filter(|s| *s == "coalesced").count(),
        M - 1,
        "exactly one submitter runs the simulation: {sources:?}"
    );

    // The deadline-bounded blocker: structured timeout within 2x the
    // deadline, and the cancelled simulation freed the worker (the nn
    // responses above prove it kept serving).
    let (blocker_resp, blocker_elapsed) = blocker.join().unwrap();
    assert_eq!(
        blocker_resp.error_code(),
        Some("timeout"),
        "{blocker_resp:?}"
    );
    assert!(
        blocker_elapsed < Duration::from_millis(3_000),
        "timeout took {blocker_elapsed:?}, over 2x the 1500 ms deadline"
    );

    let stats = wait_for_stats(&addr, |s| stat(s, "in_flight") == 0);
    assert_eq!(stat(&stats, "coalesce_hits"), (M - 1) as i64);
    assert_eq!(
        stat(&stats, "simulations"),
        2,
        "blocker + one shared nn simulation"
    );
    assert_eq!(stat(&stats, "timeouts"), 1);
    assert_eq!(stat(&stats, "cancelled"), 1);
    assert_eq!(stat(&stats, "panics"), 0);

    let _ = std::fs::remove_file(&slow);
    handle.shutdown();
    handle.drain().expect("drain");
}

#[test]
fn full_queue_answers_queue_full_without_blocking() {
    let handle = start_server(1, 1);
    let addr = handle.addr().to_string();
    let slow_a = write_slow_asm("qa");
    let slow_b = write_slow_asm("qb");
    let slow_c = write_slow_asm("qc");

    let submit_slow = |path: String, addr: String| {
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).expect("connect");
            let mut req = Request::run(1, &path);
            req.timeout_ms = Some(1_500);
            c.request(&req).expect("response")
        })
    };
    // A occupies the worker, B fills the queue (capacity 1).
    let a = submit_slow(slow_a.clone(), addr.clone());
    wait_for_stats(&addr, |s| {
        stat(s, "in_flight") == 1 && stat(s, "queue_depth") == 0
    });
    let b = submit_slow(slow_b.clone(), addr.clone());
    wait_for_stats(&addr, |s| stat(s, "queue_depth") == 1);

    // C must be rejected immediately with a structured error + hint.
    let started = Instant::now();
    let mut c = Client::connect(&addr).expect("connect");
    let resp = c.request(&Request::run(3, &slow_c)).expect("response");
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "queue_full rejection must not block ({:?})",
        started.elapsed()
    );
    assert_eq!(resp.error_code(), Some("queue_full"), "{resp:?}");
    let error = resp.error.as_ref().expect("error body");
    assert_eq!(error.code, ErrorCode::QueueFull);
    assert!(
        error.retry_after_ms.is_some(),
        "queue_full must carry a retry-after hint: {error:?}"
    );

    // The deadline-bounded occupants resolve on their own.
    assert_eq!(a.join().unwrap().error_code(), Some("timeout"));
    assert_eq!(b.join().unwrap().error_code(), Some("timeout"));
    let stats = wait_for_stats(&addr, |s| stat(s, "in_flight") == 0);
    assert_eq!(stat(&stats, "rejected_queue_full"), 1);

    for p in [&slow_a, &slow_b, &slow_c] {
        let _ = std::fs::remove_file(p);
    }
    handle.shutdown();
    handle.drain().expect("drain");
}

#[test]
fn served_reports_are_byte_identical_to_cli_direct_runs() {
    let handle = start_server(2, 8);
    let addr = handle.addr().to_string();

    // CLI-direct reference: the exact code path `regless run` uses.
    let direct = run_design(&rodinia::kernel("nn"), DesignKind::regless_512())
        .stable_json()
        .to_string_compact();

    let mut client = Client::connect(&addr).expect("connect");
    let served = client
        .request(&Request::run(1, "rodinia/nn"))
        .expect("served response");
    assert!(served.ok, "{served:?}");
    assert_eq!(
        served.payload_field("source"),
        Some(&Json::Str("simulated".to_string()))
    );
    let served_report = served
        .payload_field("report")
        .expect("run payload carries the report")
        .to_string_compact();
    assert_eq!(
        served_report, direct,
        "served report must be byte-identical to a CLI-direct run"
    );

    // Second request: served from the engine cache, still byte-identical.
    let cached = client
        .request(&Request::run(2, "rodinia/nn"))
        .expect("cached response");
    assert_eq!(
        cached.payload_field("source"),
        Some(&Json::Str("cache".to_string()))
    );
    assert_eq!(
        cached
            .payload_field("report")
            .expect("cached report")
            .to_string_compact(),
        direct
    );

    handle.shutdown();
    handle.drain().expect("drain");
}

/// Deadline latency under the run loop: a served request with a
/// deadline gets its structured timeout within 2x the deadline. The loop
/// polls the cancel token's deadline every `DEADLINE_CHECK_CYCLES`
/// (1024) cycles, a few microseconds of wall clock, so the gap between
/// the deadline passing and the run stopping stays small.
#[test]
fn served_deadline_times_out_within_twice_the_deadline() {
    let handle = start_server(1, 4);
    let addr = handle.addr().to_string();
    let slow = write_slow_asm("deadline");

    let mut client = Client::connect(&addr).expect("connect");
    let mut req = Request::run(7, &slow);
    req.timeout_ms = Some(1_000);
    let started = Instant::now();
    let resp = client.request(&req).expect("response");
    let elapsed = started.elapsed();

    assert_eq!(resp.error_code(), Some("timeout"), "{resp:?}");
    assert!(
        elapsed < Duration::from_millis(2_000),
        "timeout took {elapsed:?}, over 2x the 1000 ms deadline"
    );

    // The cancelled run was cooperative: the worker is free and keeps
    // serving real work on the same connection.
    let stats = wait_for_stats(&addr, |s| stat(s, "in_flight") == 0);
    assert_eq!(stat(&stats, "timeouts"), 1);
    assert_eq!(stat(&stats, "cancelled"), 1);
    assert_eq!(stat(&stats, "panics"), 0);
    let follow_up = client
        .request(&Request::run(8, "rodinia/nn"))
        .expect("follow-up response");
    assert!(follow_up.ok, "{follow_up:?}");

    let _ = std::fs::remove_file(&slow);
    handle.shutdown();
    handle.drain().expect("drain");
}

/// A hostile request line nested far deeper than any real message is
/// refused by the parser's depth bound instead of overflowing the
/// connection thread's stack (which would abort the whole server). The
/// offending connection is closed; a fresh one still gets `stats`.
#[test]
fn deeply_nested_request_line_leaves_the_server_up() {
    use std::io::{Read, Write};
    let handle = start_server(1, 4);
    let addr = handle.addr().to_string();

    let mut raw = std::net::TcpStream::connect(&addr).expect("connect");
    let mut line = "[".repeat(20_000);
    line.push('\n');
    raw.write_all(line.as_bytes()).expect("send nested line");
    let mut rest = String::new();
    raw.read_to_string(&mut rest)
        .expect("server replies, then closes the connection");
    assert_frame_refused(&rest, "nesting");

    let stats = wait_for_stats(&addr, |s| s.ok);
    assert_eq!(stat(&stats, "panics"), 0);

    handle.shutdown();
    handle.drain().expect("drain");
}

/// `reply` is exactly one `bad_request` line with id 0 whose message
/// mentions `needle`.
fn assert_frame_refused(reply: &str, needle: &str) {
    assert_eq!(reply.lines().count(), 1, "one reply line: {reply:?}");
    let resp = regless::serve::Response::from_json(&Json::parse(reply).expect("reply is JSON"))
        .expect("reply is a response");
    assert_eq!(resp.id, 0);
    assert_eq!(resp.error_code(), Some("bad_request"), "{resp:?}");
    let message = &resp.error.as_ref().expect("error body").message;
    assert!(message.contains(needle), "{message}");
}

#[test]
fn oversized_frame_is_refused_and_the_server_stays_up() {
    use std::io::{Read, Write};
    let handle = start_server(1, 4);
    let addr = handle.addr().to_string();

    // One byte past the limit and no newline yet: the server must answer
    // once it has read the limit, not wait to buffer the whole line.
    let mut raw = std::net::TcpStream::connect(&addr).expect("connect");
    let chunk = [b'x'; 1 << 16];
    let mut left = regless::serve::MAX_FRAME_BYTES + 1;
    while left > 0 {
        let n = left.min(chunk.len());
        raw.write_all(&chunk[..n]).expect("send oversized frame");
        left -= n;
    }
    let mut reply = String::new();
    raw.read_to_string(&mut reply)
        .expect("server replies, then closes the connection");
    assert_frame_refused(&reply, "frame longer than");

    let stats = wait_for_stats(&addr, |s| s.ok);
    assert_eq!(stat(&stats, "panics"), 0);

    handle.shutdown();
    handle.drain().expect("drain");
}

#[test]
fn shutdown_request_drains_gracefully() {
    let handle = start_server(2, 8);
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    // One real job in flight, then shutdown: the job still completes.
    let worker = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).expect("connect");
            c.request(&Request::run(1, "rodinia/nn")).expect("response")
        })
    };
    wait_for_stats(&addr, |s| stat(s, "submitted") >= 1);
    let bye = client
        .request(&Request::control(2, RequestKind::Shutdown))
        .expect("shutdown response");
    assert!(bye.ok);
    let after = client
        .request(&Request::run(3, "rodinia/nn"))
        .expect("response");
    assert_eq!(after.error_code(), Some("shutting_down"), "{after:?}");
    let job = worker.join().unwrap();
    assert!(
        job.ok || job.error_code() == Some("shutting_down"),
        "an admitted job must complete (or the submit raced the drain): {job:?}"
    );
    handle.drain().expect("drain within timeout");
}
