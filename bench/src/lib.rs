//! Shared helpers for the benchmark-harness binaries that regenerate the
//! paper's tables and figures (see DESIGN.md §5 and EXPERIMENTS.md).

use std::time::Duration;

use kompics::cats::abd::AbdConfig;
use kompics::cats::node::CatsConfig;
use kompics::cats::ring::RingConfig;
use kompics::protocols::cyclon::CyclonConfig;
use kompics::protocols::fd::FdConfig;

/// Reads a numeric parameter from the environment, falling back to a
/// default — the knob for running reduced (CI-friendly) or full
/// (paper-scale) experiments.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// See [`env_u64`].
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The CATS configuration used by the experiments: moderately aggressive
/// timers so simulated clusters converge quickly.
pub fn experiment_cats_config(replication: usize) -> CatsConfig {
    CatsConfig {
        replication: Some(replication),
        ring: RingConfig {
            stabilize_period: Duration::from_millis(250),
            ..RingConfig::default()
        },
        fd: FdConfig {
            initial_delay: Duration::from_millis(400),
            delta: Duration::from_millis(200),
        },
        cyclon: CyclonConfig {
            period: Duration::from_millis(500),
            ..CyclonConfig::default()
        },
        abd: AbdConfig {
            op_timeout: Duration::from_millis(750),
            max_retries: 4,
            ..AbdConfig::default()
        },
        telemetry: None,
    }
}

/// Formats nanoseconds as a human-friendly latency.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_ns(500), "500 ns");
        assert_eq!(fmt_ns(1_500), "1.5 µs");
        assert_eq!(fmt_ns(2_500_000), "2.50 ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00 s");
    }

    #[test]
    fn env_fallbacks() {
        assert_eq!(env_u64("KOMPICS_BENCH_NO_SUCH_VAR", 7), 7);
        assert_eq!(env_f64("KOMPICS_BENCH_NO_SUCH_VAR", 0.5), 0.5);
    }
}
