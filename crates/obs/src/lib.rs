#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! # so-obs — observability substrate
//!
//! The paper's results are *accounting* statements: Theorem 1.1 bounds what
//! an adversary learns per query answered, and the Cohen–Nissim LP attack
//! ran against an instrumented production system. This crate gives the
//! workspace the same kind of runtime ledger, with zero dependencies:
//!
//! * [`metrics`] — a registry of monotonic [`Counter`]s, [`Gauge`]s, and
//!   fixed-bucket [`Histogram`]s, rendered in the Prometheus text
//!   exposition format ([`Registry::render`]). Engines publish to the
//!   process-wide [`global`] registry; experiments can scope a private
//!   [`Registry`].
//! * [`trace`] — span-based tracing with a pluggable [`TraceSubscriber`].
//!   No-op by default (one atomic load per span); `SO_TRACE=path` installs
//!   a [`JsonLinesSubscriber`] writing one JSON record per completed span.
//!   A thread-local request-id context ([`with_request_id`]) tags every
//!   span/event a request handler emits, so one trace file reconstructs
//!   per-request span trees keyed by `request_id`.
//!
//! Determinism contract (enforced by the workspace's CI transcript gates):
//! every metric value that can feed an experiment transcript is derived
//! from deterministic counts; wall-clock data (span durations, per-shard
//! timings) is **export-only** — it reaches the `SO_TRACE` file and the
//! `SO_METRICS` dump, never stdout transcripts.
//!
//! Environment variables (see also `SO_THREADS` in `so-plan`):
//!
//! | variable     | effect                                                  |
//! |--------------|---------------------------------------------------------|
//! | `SO_TRACE`   | write JSON-lines span records to this path              |
//! | `SO_METRICS` | write a Prometheus-style metrics dump to this path      |

pub mod metrics;
pub mod trace;

pub use metrics::{global, Counter, Gauge, Histogram, Registry, MICRO_BOUNDS};
pub use trace::{
    current_request_id, enabled, event, flush, set_subscriber, span, with_request_id, Field,
    JsonLinesSubscriber, RequestIdGuard, Span, TraceSubscriber,
};

/// Environment variable naming the JSON-lines trace output path.
pub const TRACE_ENV: &str = "SO_TRACE";

/// Environment variable naming the metrics dump output path.
pub const METRICS_ENV: &str = "SO_METRICS";

/// Installs the `SO_TRACE` JSON-lines subscriber if the env var is set and
/// no subscriber is installed yet. Returns true iff tracing is active after
/// the call. Unopenable paths are reported on stderr and ignored — an
/// observability failure must never fail the experiment.
pub fn init_from_env() -> bool {
    if let Ok(path) = std::env::var(TRACE_ENV) {
        if !path.is_empty() && !trace::enabled() {
            match JsonLinesSubscriber::create(&path) {
                Ok(sub) => {
                    trace::set_subscriber(Box::new(sub));
                }
                Err(e) => eprintln!("so-obs: cannot open {TRACE_ENV}={path}: {e}"),
            }
        }
    }
    trace::enabled()
}

/// Writes the [`global`] registry's Prometheus dump to the `SO_METRICS`
/// path, if that env var is set. Returns true iff a dump was written.
/// Unopenable paths are reported on stderr and ignored.
pub fn write_metrics_if_env() -> bool {
    if let Ok(path) = std::env::var(METRICS_ENV) {
        if !path.is_empty() {
            match std::fs::write(&path, global().render()) {
                Ok(()) => return true,
                Err(e) => eprintln!("so-obs: cannot write {METRICS_ENV}={path}: {e}"),
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared() {
        let c = global().counter("so_obs_selftest_total");
        c.add(2);
        assert!(global().counter_value("so_obs_selftest_total").unwrap() >= 2);
    }
}
