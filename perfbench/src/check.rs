//! Output checks. Any failed check fails the op it belongs to.

use regless_bench::eval_gpu;
use regless_bench::sweep::{unit_slug, RunVariant};
use regless_isa::Kernel;
use regless_sim::{interpret, RunReport};

/// Dynamic instructions the functional interpreter retires for `kernel`
/// across every warp of the evaluation machine: the count every timing
/// model must reproduce.
pub fn interpreter_insns(kernel: &Kernel) -> Result<u64, String> {
    let gpu = eval_gpu();
    let mut total = 0;
    for w in 0..gpu.num_sms * gpu.warps_per_sm {
        total += interpret(kernel, w, 10_000_000)
            .map_err(|e| format!("interpreter, warp {w}: {e}"))?
            .insns;
    }
    Ok(total)
}

/// The simulator invariants on one fresh report:
/// - retired instructions equal the interpreter's count (so also equal
///   across designs for one kernel);
/// - per SM, Σ stall slots = cycles × issue slots;
/// - per SM and whole-GPU, the eviction stack total equals
///   `osu_lines_evicted`;
/// - no staged operand disagreed with the register value.
pub fn check_sim_report(report: &RunReport, interp_insns: u64) -> Result<(), String> {
    let gpu = eval_gpu();
    let total = report.total();
    if total.insns != interp_insns {
        return Err(format!(
            "retired {} instructions, interpreter retires {interp_insns}",
            total.insns
        ));
    }
    let slots = report.cycles * (gpu.schedulers_per_sm * gpu.issue_slots_per_scheduler) as u64;
    for (i, sm) in report.sm_stats.iter().enumerate() {
        if sm.issue_stack.total() != slots {
            return Err(format!(
                "SM {i}: {} stall slots, cycles x issue slots = {slots}",
                sm.issue_stack.total()
            ));
        }
        if sm.eviction_stack.total() != sm.osu_lines_evicted {
            return Err(format!(
                "SM {i}: eviction stack {} != lines evicted {}",
                sm.eviction_stack.total(),
                sm.osu_lines_evicted
            ));
        }
    }
    if report.eviction_stack().total() != total.osu_lines_evicted {
        return Err("whole-GPU eviction stack != lines evicted".to_string());
    }
    if total.staging_mismatches != 0 {
        return Err(format!("{} staging mismatches", total.staging_mismatches));
    }
    Ok(())
}

/// FNV-1a 64, the hash of the cluster's merged-result digests.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One digest line in the cluster's `merge::digest_lines` format:
/// `"<cache slug> <16-hex FNV-1a of the compact stable_json>"`.
pub fn digest_line(bench: &str, variant: RunVariant, report: &RunReport) -> String {
    format!(
        "{} {:016x}",
        unit_slug(bench, variant),
        fnv1a64(report.stable_json().to_string_compact().as_bytes())
    )
}

/// Pass/fail tally over the ops of a run. Ops are counted as they are
/// attempted; a failure records its first message for the log.
#[derive(Default)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed a check, got an error reply, or were refused.
    pub failed: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
}

impl Tally {
    /// Count one op with its check outcome.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.fail(e);
        }
    }

    /// Mark an already-counted op (or a whole-run check) as failed.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }

    /// Fold another tally (a worker thread's) into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(m);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regless_bench::{run_design, DesignKind};
    use regless_workloads::rodinia;

    /// The checker passes a real report and counts a corrupted copy of it
    /// as a failed op.
    #[test]
    fn corrupted_report_is_counted_failed() {
        let kernel = rodinia::kernel("nn");
        let insns = interpreter_insns(&kernel).unwrap();
        let report = run_design(&kernel, DesignKind::regless_512());
        let mut tally = Tally::default();
        tally.record(check_sim_report(&report, insns));
        assert_eq!(
            (tally.attempted, tally.failed),
            (1, 0),
            "{:?}",
            tally.messages
        );

        // One extra cycle breaks stall-slot conservation.
        let mut corrupt = report.clone();
        corrupt.cycles += 1;
        tally.record(check_sim_report(&corrupt, insns));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(
            tally.messages[0].contains("stall slots"),
            "{:?}",
            tally.messages
        );

        // A different report has a different digest line.
        let v = RunVariant::Design(DesignKind::regless_512());
        assert_ne!(
            digest_line("rodinia/nn", v, &report),
            digest_line("rodinia/nn", v, &corrupt)
        );
    }
}
