//! Unified observability: tracing spans, metrics, exporters and reports.
//!
//! The pipeline previously grew five disjoint telemetry islands
//! ([`DispatchStats`](crate::dispatch::DispatchStats),
//! `ServerStats` in `qrcc-net`, [`CacheStats`](crate::cache::CacheStats),
//! `CompileStats` in `qrcc-sim`, and the flat fields on
//! [`ReconstructionReport`](crate::ReconstructionReport)) with no way to
//! answer "where did this run's wall-clock go?". This module is the one
//! vocabulary over all of them:
//!
//! * [`Tracer`] / [`SpanGuard`] — RAII phase and per-job spans recorded
//!   into a sharded buffer; zero-cost when disabled (the default). Switched
//!   only by [`tracer()`]`.enable()` / `.disable()`.
//! * [`Histogram`] — log-bucketed latencies with `p50/p90/p99/p999` and an
//!   associative merge, so per-worker histograms fold into fleet totals.
//! * [`Metrics`] / [`metrics()`] — the named counter/gauge/histogram
//!   registry with Prometheus text exposition.
//! * [`chrome_trace`] / [`spans_jsonl`] / [`validate_spans`] — exporters
//!   and the structural trace check used by the CI trace gate.
//! * [`PhaseProfile`] — the flame summary ("% of wall-clock by phase")
//!   attached to `ReconstructionReport::profile` by streaming execution.
//! * [`QrccReport`] — one renderable report over schedule, reconstruction,
//!   live metrics and per-server sections, via the [`report::adapt`]
//!   adapters.
//! * [`WindowedHistogram`] / [`RateCounter`] — last-N-seconds views (ring
//!   of rotated histogram buckets) for live p50/p99/p999 and req/s.
//! * [`SloSpec`] / [`SloEvaluation`] — declarative latency / error-rate /
//!   availability objectives scored over windows with burn-rate status.
//! * [`RemoteSpan`] — the wire form of a span subtree: `qrcc-net` carries
//!   trace context in `SubmitBatch` and returns the server's subtree in
//!   `BatchDone`, and [`Tracer::import`] grafts it under the local submit
//!   span so one trace tree spans client and servers.

use serde::{Deserialize, Serialize};

mod export;
mod histogram;
mod metrics;
mod report;
mod slo;
mod tracer;
mod window;

pub use export::{bench_json, chrome_trace, remote_subtree_stitched, spans_jsonl, validate_spans};
pub use histogram::Histogram;
pub use metrics::{Metrics, MetricsSnapshot};
pub use report::{adapt, PhaseProfile, QrccReport};
pub use slo::{LatencyTarget, SloEvaluation, SloObjective, SloSpec, SloStatus};
pub use tracer::{tracer, RemoteSpan, SpanGuard, SpanRecord, Tracer, DEFAULT_BUFFER_CAPACITY};
pub use window::{RateCounter, WindowedHistogram};

/// Fleet-monitoring policy of a `FleetMonitor` (in `qrcc-net`, built with
/// `FleetMonitor::new(policy)`): how wide the live window is, how finely it
/// rotates, how often the monitor polls workers, and the SLO the windows
/// are scored against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonitorPolicy {
    /// Width of the live window, in microseconds (e.g. `10_000_000` =
    /// "p99 over the last 10 s"). Must be non-zero.
    pub window_us: u64,
    /// Rotation buckets per window; the window advances in steps of
    /// `window_us / buckets`.
    #[serde(default = "default_monitor_buckets")]
    pub buckets: usize,
    /// How often the monitor polls each worker, in microseconds. Should be
    /// at least one rotation bucket (`window_us / buckets`) — polling
    /// faster re-reads the same partial bucket.
    pub poll_interval_us: u64,
    /// Protocol version the monitored servers speak. `GetMetrics` /
    /// `GetHealth` exist from v3 on.
    #[serde(default = "default_monitor_protocol")]
    pub target_protocol: u16,
    /// The SLO the merged fleet window is scored against, if any.
    #[serde(default)]
    pub slo: Option<SloSpec>,
}

fn default_monitor_buckets() -> usize {
    10
}

fn default_monitor_protocol() -> u16 {
    3
}

impl Default for MonitorPolicy {
    fn default() -> Self {
        MonitorPolicy {
            window_us: 10_000_000,
            buckets: default_monitor_buckets(),
            poll_interval_us: 1_000_000,
            target_protocol: default_monitor_protocol(),
            slo: None,
        }
    }
}

impl MonitorPolicy {
    /// The live window as a [`Duration`](std::time::Duration).
    pub fn window(&self) -> std::time::Duration {
        std::time::Duration::from_micros(self.window_us)
    }

    /// The poll interval as a [`Duration`](std::time::Duration).
    pub fn poll_interval(&self) -> std::time::Duration {
        std::time::Duration::from_micros(self.poll_interval_us)
    }

    /// Width of one rotation bucket, in microseconds.
    pub fn rotation_us(&self) -> u64 {
        self.window_us / self.buckets.max(1) as u64
    }

    /// Sets the SLO the merged fleet view is scored against.
    pub fn with_slo(mut self, slo: SloSpec) -> Self {
        self.slo = Some(slo);
        self
    }
}

/// The process-global metrics registry. Always live (cold-path telemetry
/// like ping RTTs records unconditionally); hot paths gate on
/// [`tracer()`]`.enabled()`.
pub fn metrics() -> &'static Metrics {
    static GLOBAL: std::sync::OnceLock<Metrics> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(Metrics::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registries_are_reachable() {
        let _ = metrics();
        let _ = tracer();
    }
}
