//! Human-readable durations for the sweep engine's progress reporting.

use std::time::Duration;

/// Render a duration with a unit suited to its magnitude.
pub fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_covers_magnitudes() {
        assert_eq!(format_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(format_duration(Duration::from_micros(12)), "12.00 µs");
        assert_eq!(format_duration(Duration::from_millis(12)), "12.00 ms");
        assert_eq!(format_duration(Duration::from_secs(2)), "2.00 s");
    }
}
