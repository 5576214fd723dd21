//! Host-time self-profiling: scoped phase timers for the simulator's own
//! wall clock. Where the CPI stacks answer "where did the *simulated*
//! cycles go?", a [`SelfProfiler`] answers "where did the *host's* time
//! go?" — how much of `Machine::run` was the issue loop versus writeback
//! retirement versus the event-calendar jump, and how much of a sweep was
//! simulation versus cache probing versus persistence.
//!
//! Profiling is strictly opt-in: a disabled profiler never reads the
//! monotonic clock, so every instrumentation site reduces to one branch
//! on an `Option` — the same zero-cost contract the simulator's
//! [`crate::Recorder`] keeps, and the reason `RunReport::stable_json`
//! stays byte-identical with profiling on or off (timers touch only host
//! wall-clock state, never simulated state).
//!
//! Enable with the `REGLESS_SELFPROF` environment variable (any value
//! but `0`) or programmatically with [`SelfProfiler::new`]; render with
//! [`SelfProfiler::render_table`], fold into a [`MetricsSnapshot`] with
//! [`SelfProfiler::fold_into`], or export a Perfetto timeline through
//! [`SelfProfiler::to_spans`] and [`crate::chrome_spans`].

use super::metrics::MetricsSnapshot;
use super::trace::Span;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Accumulated wall time for one named phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTotal {
    /// Times the phase ran.
    pub calls: u64,
    /// Total nanoseconds spent inside the phase.
    pub nanos: u64,
}

impl PhaseTotal {
    /// Total seconds spent inside the phase.
    pub fn seconds(&self) -> f64 {
        self.nanos as f64 / 1e9
    }
}

/// Scoped phase timers with per-phase accumulation.
///
/// Phases are keyed by `&'static str` so recording never allocates;
/// totals live behind one mutex, which is only ever touched when the
/// profiler is enabled.
#[derive(Debug)]
pub struct SelfProfiler {
    enabled: bool,
    phases: Mutex<BTreeMap<&'static str, PhaseTotal>>,
}

impl SelfProfiler {
    /// A profiler that records (`enabled = true`) or ignores every scope
    /// (`enabled = false`, the zero-cost branch).
    pub fn new(enabled: bool) -> SelfProfiler {
        SelfProfiler {
            enabled,
            phases: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether the `REGLESS_SELFPROF` environment variable requests
    /// profiling (set to anything but `0` or the empty string).
    pub fn env_enabled() -> bool {
        std::env::var_os("REGLESS_SELFPROF").is_some_and(|v| !v.is_empty() && v != "0")
    }

    /// A profiler whose enablement follows [`SelfProfiler::env_enabled`].
    pub fn from_env() -> SelfProfiler {
        SelfProfiler::new(SelfProfiler::env_enabled())
    }

    /// Whether scopes record anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start a scoped timer for `phase`; the elapsed time is recorded
    /// when the returned guard drops. On a disabled profiler this is a
    /// no-op that never reads the clock.
    pub fn scope(&self, phase: &'static str) -> PhaseGuard<'_> {
        PhaseGuard {
            active: self.enabled.then(|| (self, phase, Instant::now())),
        }
    }

    /// [`SelfProfiler::scope`] through an `Option` — the shape
    /// instrumentation sites in hot loops use (`None` means "profiling
    /// off" and costs one branch, once inlined into the caller).
    #[inline]
    pub fn scope_opt<'a>(prof: Option<&'a SelfProfiler>, phase: &'static str) -> PhaseGuard<'a> {
        match prof {
            Some(p) => p.scope(phase),
            None => PhaseGuard { active: None },
        }
    }

    /// Record `nanos` of wall time against `phase` directly (for callers
    /// that measured the interval themselves).
    pub fn record(&self, phase: &'static str, nanos: u64) {
        if !self.enabled {
            return;
        }
        let mut phases = self.phases.lock().unwrap();
        let t = phases.entry(phase).or_default();
        t.calls += 1;
        t.nanos += nanos;
    }

    /// The accumulated totals, sorted by phase name (deterministic for
    /// rendering and tests). Empty when disabled or nothing recorded.
    pub fn snapshot(&self) -> Vec<(String, PhaseTotal)> {
        self.phases
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| ((*k).to_string(), *v))
            .collect()
    }

    /// Total nanoseconds across every phase.
    pub fn total_nanos(&self) -> u64 {
        self.phases.lock().unwrap().values().map(|t| t.nanos).sum()
    }

    /// Fold the totals into a [`MetricsSnapshot`] as
    /// `regless_selfprof_<component>_<phase>_micros_total` /
    /// `_calls_total` counter pairs. A disabled or empty profiler adds
    /// nothing, so existing metrics output is unchanged when profiling
    /// is off.
    pub fn fold_into(&self, snap: &mut MetricsSnapshot, component: &str) {
        for (phase, t) in self.snapshot() {
            snap.counter(
                &format!("regless_selfprof_{component}_{phase}_micros_total"),
                &format!("Host microseconds spent in the {component} {phase} phase"),
                t.nanos / 1_000,
            );
            snap.counter(
                &format!("regless_selfprof_{component}_{phase}_calls_total"),
                &format!("Times the {component} {phase} phase ran"),
                t.calls,
            );
        }
    }

    /// Render an aligned per-phase table (phase, calls, total time,
    /// share) for stderr. Empty string when nothing was recorded.
    pub fn render_table(&self, label: &str) -> String {
        use std::fmt::Write as _;
        let rows = self.snapshot();
        if rows.is_empty() {
            return String::new();
        }
        let total: u64 = rows.iter().map(|(_, t)| t.nanos).sum::<u64>().max(1);
        let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0).max(5);
        let mut out = format!("self-profile [{label}]: host time by phase\n");
        let _ = writeln!(
            out,
            "  {:<width$} {:>12} {:>12} {:>7}",
            "phase", "calls", "time", "share"
        );
        for (phase, t) in &rows {
            let _ = writeln!(
                out,
                "  {:<width$} {:>12} {:>11.3}ms {:>6.1}%",
                phase,
                t.calls,
                t.nanos as f64 / 1e6,
                100.0 * t.nanos as f64 / total as f64
            );
        }
        out
    }

    /// Render the totals as one [`Span`] per phase, laid end-to-end on a
    /// single timeline so [`crate::chrome_spans`] draws a proportional
    /// host-time bar per phase. `trace_id` groups the spans on one lane;
    /// `process` labels the Perfetto process track.
    pub fn to_spans(&self, trace_id: u64, process: &str) -> Vec<Span> {
        let mut start_us = 0u64;
        self.snapshot()
            .into_iter()
            .map(|(phase, t)| {
                let dur_us = (t.nanos / 1_000).max(1);
                let span = Span::new(trace_id, phase.as_str(), process, start_us, dur_us)
                    .arg("calls", t.calls.to_string());
                start_us += dur_us;
                span
            })
            .collect()
    }
}

/// RAII timer returned by [`SelfProfiler::scope`]; records the elapsed
/// wall time against its phase on drop. Inert (no clock reads, no lock)
/// when the profiler is disabled.
#[must_use = "the scope measures until the guard drops"]
pub struct PhaseGuard<'a> {
    active: Option<(&'a SelfProfiler, &'static str, Instant)>,
}

impl Drop for PhaseGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some((prof, phase, started)) = self.active.take() {
            prof.record(phase, started.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let p = SelfProfiler::new(false);
        {
            let _g = p.scope("issue");
        }
        p.record("writeback", 1_000);
        assert!(!p.enabled());
        assert!(p.snapshot().is_empty());
        assert_eq!(p.total_nanos(), 0);
        assert_eq!(p.render_table("sim"), "");
        let mut snap = MetricsSnapshot::new("sim");
        p.fold_into(&mut snap, "sim");
        assert!(snap.metrics.is_empty(), "disabled profiler adds no metrics");
    }

    #[test]
    fn scopes_accumulate_per_phase() {
        let p = SelfProfiler::new(true);
        for _ in 0..3 {
            let _g = p.scope("issue");
        }
        p.record("writeback", 2_000_000);
        p.record("writeback", 3_000_000);
        let rows = p.snapshot();
        assert_eq!(rows.len(), 2);
        // BTreeMap ordering: issue < writeback.
        assert_eq!(rows[0].0, "issue");
        assert_eq!(rows[0].1.calls, 3);
        assert_eq!(rows[1].0, "writeback");
        assert_eq!(
            rows[1].1,
            PhaseTotal {
                calls: 2,
                nanos: 5_000_000
            }
        );
        assert!((rows[1].1.seconds() - 0.005).abs() < 1e-12);
        let table = p.render_table("sim");
        assert!(table.contains("issue"), "{table}");
        assert!(table.contains("writeback"), "{table}");
    }

    #[test]
    fn fold_into_emits_prom_clean_counter_pairs() {
        let p = SelfProfiler::new(true);
        p.record("cache_probe", 1_500);
        p.record("simulate", 9_000_000);
        let mut snap = MetricsSnapshot::new("sweep");
        p.fold_into(&mut snap, "sweep");
        assert_eq!(snap.metrics.len(), 4, "two phases, micros + calls each");
        let text = snap.render_prom();
        assert!(
            text.contains("regless_selfprof_sweep_simulate_micros_total 9000"),
            "{text}"
        );
        assert!(
            text.contains("regless_selfprof_sweep_cache_probe_calls_total 1"),
            "{text}"
        );
        super::super::metrics::check_prom_format(&text).expect("prom-clean");
    }

    #[test]
    fn spans_lay_phases_end_to_end() {
        let p = SelfProfiler::new(true);
        p.record("a_first", 4_000);
        p.record("b_second", 2_000);
        let spans = p.to_spans(0x77, "selfprof:sim");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].start_us, 0);
        assert_eq!(spans[0].dur_us, 4);
        assert_eq!(spans[1].start_us, 4, "phases tile the timeline");
        assert!(spans.iter().all(|s| s.trace_id == 0x77));
        let doc = crate::chrome_spans(&spans).to_string_compact();
        assert!(doc.contains("selfprof:sim"), "{doc}");
    }

    #[test]
    fn env_gate_treats_zero_as_off() {
        // Only inspects the parsing contract; the variable itself is not
        // mutated here (env writes are racy under a parallel test runner).
        assert!(!SelfProfiler::new(false).enabled());
        assert!(SelfProfiler::new(true).enabled());
    }
}
