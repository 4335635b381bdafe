//! Client-side fleet health monitoring: poll every worker's live scrape
//! endpoint ([`Frame::GetMetrics`](crate::proto::Frame::GetMetrics) /
//! [`Frame::GetHealth`](crate::proto::Frame::GetHealth)) and merge the
//! windowed per-worker views into one fleet-wide snapshot.
//!
//! The merge is a **pure function** over [`MetricsReport`]s
//! ([`merge_reports`]) so its algebra — counters add, extensive gauges add,
//! histograms merge exactly — is testable without a socket in sight. The
//! polling half ([`FleetMonitor`]) is a thin loop around it: check out a
//! pooled connection per worker, fetch health + metrics, score the
//! configured [`SloSpec`](qrcc_core::obs::SloSpec) per worker and once more
//! against the fleet-merged window, and render everything through
//! [`QrccReport`] sections.

use std::time::{Duration, Instant};

use qrcc_core::execute::ExecutionBackend;
use qrcc_core::obs::{
    Histogram, MetricsSnapshot, MonitorPolicy, QrccReport, SloEvaluation, SloStatus,
};

use crate::client::RemoteBackend;
use crate::proto::{HealthReport, HealthState, MetricsReport};

/// Name of the windowed batch-latency histogram every `QrccServer` ships in
/// its [`MetricsReport::windowed`] list.
pub const WINDOW_LATENCY_METRIC: &str = "server.window_batch_latency_us";

/// Name of the windowed request-rate gauge (requests per second over the
/// server's metrics window).
pub const WINDOW_REQ_RATE_GAUGE: &str = "server.window_req_rate";

/// Name of the windowed error-rate gauge (failed batches per second over
/// the server's metrics window).
pub const WINDOW_ERROR_RATE_GAUGE: &str = "server.window_error_rate";

/// One worker's [`MetricsReport`] as a [`MetricsSnapshot`]: windowed
/// histograms become histograms, counters counters, gauges gauges. This is
/// the per-worker section a [`FleetView`] report renders.
pub fn report_snapshot(report: &MetricsReport) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    for (name, value) in &report.counters {
        snap = snap.with_counter(name, *value);
    }
    for (name, value) in &report.gauges {
        snap = snap.with_gauge(name, *value);
    }
    for (name, histogram) in &report.windowed {
        snap = snap.with_histogram(name, histogram.clone());
    }
    snap
}

/// The fleet merge: fold per-worker [`MetricsReport`]s into one snapshot.
///
/// Counters add (saturating), histograms merge via the exactly-associative
/// [`Histogram::merge`], and gauges **add** — every gauge a `QrccServer`
/// exposes (queue depths, open connections, windowed request/error rates)
/// is an extensive quantity, so the fleet-wide value is the sum, not the
/// last writer. Pure and order-insensitive: merging in any grouping yields
/// the same snapshot (the property test relies on this).
pub fn merge_reports<'a>(reports: impl IntoIterator<Item = &'a MetricsReport>) -> MetricsSnapshot {
    use std::collections::BTreeMap;
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut gauges: BTreeMap<String, f64> = BTreeMap::new();
    let mut histograms: BTreeMap<String, Histogram> = BTreeMap::new();
    for report in reports {
        for (name, value) in &report.counters {
            let slot = counters.entry(name.clone()).or_insert(0);
            *slot = slot.saturating_add(*value);
        }
        for (name, value) in &report.gauges {
            *gauges.entry(name.clone()).or_insert(0.0) += *value;
        }
        for (name, histogram) in &report.windowed {
            histograms.entry(name.clone()).or_default().merge(histogram);
        }
    }
    MetricsSnapshot {
        counters: counters.into_iter().collect(),
        gauges: gauges.into_iter().collect(),
        histograms: histograms.into_iter().collect(),
    }
}

/// Scores a [`MonitorPolicy`]'s SLO against one worker's windowed view.
///
/// Requests in the window come from the windowed latency histogram's count
/// (every batch records exactly one latency sample); errors are
/// reconstructed from the windowed error-rate gauge times the policy
/// window, so the policy window should match the servers' metrics window
/// (the last 10 s, in 1 s buckets). Returns `None` when the policy carries
/// no SLO.
pub fn evaluate_report(policy: &MonitorPolicy, report: &MetricsReport) -> Option<SloEvaluation> {
    let slo = policy.slo.as_ref()?;
    let latency = report
        .windowed
        .iter()
        .find(|(name, _)| name == WINDOW_LATENCY_METRIC)
        .map(|(_, histogram)| histogram.clone())
        .unwrap_or_default();
    let requests = latency.count();
    let errors = windowed_errors(policy, &report.gauges);
    Some(slo.evaluate(&latency, requests, errors))
}

fn windowed_errors(policy: &MonitorPolicy, gauges: &[(String, f64)]) -> u64 {
    let window_s = policy.window_us as f64 / 1e6;
    gauges
        .iter()
        .find(|(name, _)| name == WINDOW_ERROR_RATE_GAUGE)
        .map(|(_, rate)| (rate * window_s).round().max(0.0) as u64)
        .unwrap_or(0)
}

/// One worker's slice of a [`FleetView`] poll.
#[derive(Debug, Clone)]
pub struct WorkerView {
    /// The worker's label (`"<capabilities label> @ <addr>"`).
    pub label: String,
    /// Readiness as reported by `GetHealth`; `None` if the poll failed.
    pub health: Option<HealthReport>,
    /// The live scrape as reported by `GetMetrics`; `None` if it failed.
    pub report: Option<MetricsReport>,
    /// The policy SLO scored against this worker's own window.
    pub slo: Option<SloEvaluation>,
    /// Why the poll failed, when it did.
    pub error: Option<String>,
}

impl WorkerView {
    /// Whether both health and metrics polls succeeded.
    pub fn reachable(&self) -> bool {
        self.health.is_some() && self.report.is_some()
    }
}

/// One poll of the whole fleet: per-worker views plus the merged window.
#[derive(Debug, Clone)]
pub struct FleetView {
    /// Per-worker views, in registration order.
    pub workers: Vec<WorkerView>,
    /// All reachable workers' reports folded through [`merge_reports`].
    pub merged: MetricsSnapshot,
    /// The policy SLO scored against the fleet-merged window.
    pub slo: Option<SloEvaluation>,
    /// How many registered workers failed to answer this poll.
    pub unreachable: usize,
}

impl FleetView {
    /// The fleet-merged SLO status ([`SloStatus::Ok`] when no SLO is set).
    pub fn status(&self) -> SloStatus {
        self.slo.as_ref().map(|e| e.status).unwrap_or(SloStatus::Ok)
    }

    /// The worst per-worker SLO status across the fleet.
    pub fn worst_worker_status(&self) -> SloStatus {
        self.workers
            .iter()
            .filter_map(|w| w.slo.as_ref().map(|e| e.status))
            .max()
            .unwrap_or(SloStatus::Ok)
    }

    /// How many reachable workers report the given health state.
    pub fn count_state(&self, state: HealthState) -> usize {
        self.workers.iter().filter(|w| w.health.as_ref().is_some_and(|h| h.state == state)).count()
    }

    /// Total queue depth across all reachable workers.
    pub fn total_queue_depth(&self) -> u64 {
        self.workers.iter().filter_map(|w| w.health.as_ref()).fold(0, |acc, h| acc + h.queue_depth)
    }

    /// Renders the poll as a [`QrccReport`]: the merged window as the main
    /// metrics body plus one named section per worker.
    pub fn report(&self) -> QrccReport {
        let mut report = QrccReport::new().with_metrics(self.merged.clone());
        for worker in &self.workers {
            let mut section = match &worker.report {
                Some(r) => report_snapshot(r),
                None => MetricsSnapshot::default(),
            };
            if let Some(health) = &worker.health {
                section = section.with_gauge("health.state_code", health.state.code() as f64);
            }
            let name = match (&worker.health, &worker.slo) {
                (Some(h), Some(e)) => format!("{} [{}] slo={}", worker.label, h.state, e.status),
                (Some(h), None) => format!("{} [{}]", worker.label, h.state),
                _ => format!("{} [unreachable]", worker.label),
            };
            report = report.with_section(&name, section);
        }
        report
    }
}

/// Polls a fleet of [`RemoteBackend`]s on a [`MonitorPolicy`] cadence and
/// merges their windowed views. Each poll is two extra frames per worker on
/// a pooled connection — no batch round-trip, so monitoring a busy fleet
/// never queues behind its work.
#[derive(Debug)]
pub struct FleetMonitor<'a> {
    policy: MonitorPolicy,
    workers: Vec<&'a RemoteBackend>,
}

impl<'a> FleetMonitor<'a> {
    /// A monitor with no workers yet; add them with
    /// [`add_worker`](FleetMonitor::add_worker) / [`with_worker`](FleetMonitor::with_worker).
    pub fn new(policy: MonitorPolicy) -> Self {
        FleetMonitor { policy, workers: Vec::new() }
    }

    /// Registers a worker (builder form).
    #[must_use]
    pub fn with_worker(mut self, backend: &'a RemoteBackend) -> Self {
        self.workers.push(backend);
        self
    }

    /// Registers a worker.
    pub fn add_worker(&mut self, backend: &'a RemoteBackend) {
        self.workers.push(backend);
    }

    /// The policy this monitor polls and scores under.
    pub fn policy(&self) -> &MonitorPolicy {
        &self.policy
    }

    /// How many workers are registered.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Whether no workers are registered.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Polls every worker once and merges the results.
    pub fn poll_once(&self) -> FleetView {
        let mut views = Vec::with_capacity(self.workers.len());
        for backend in &self.workers {
            views.push(self.poll_worker(backend));
        }
        let reports: Vec<&MetricsReport> =
            views.iter().filter_map(|v: &WorkerView| v.report.as_ref()).collect();
        let merged = merge_reports(reports.iter().copied());
        let slo = self.evaluate_merged(&merged);
        let unreachable = views.iter().filter(|v| !v.reachable()).count();
        FleetView { workers: views, merged, slo, unreachable }
    }

    /// Polls on the policy cadence until `duration` elapses, invoking
    /// `on_view` after each poll; returns the final view. At least one poll
    /// always happens, even for a zero duration.
    pub fn watch(&self, duration: Duration, mut on_view: impl FnMut(&FleetView)) -> FleetView {
        let deadline = Instant::now() + duration;
        loop {
            let view = self.poll_once();
            on_view(&view);
            let now = Instant::now();
            if now >= deadline {
                return view;
            }
            std::thread::sleep(self.policy.poll_interval().min(deadline - now));
        }
    }

    fn poll_worker(&self, backend: &RemoteBackend) -> WorkerView {
        let label = backend.label();
        let health = backend.get_health();
        let report = backend.get_metrics();
        let error = match (&health, &report) {
            (Err(e), _) => Some(e.to_string()),
            (_, Err(e)) => Some(e.to_string()),
            _ => None,
        };
        let report = report.ok();
        let slo = report.as_ref().and_then(|r| evaluate_report(&self.policy, r));
        WorkerView { label, health: health.ok(), report, slo, error }
    }

    fn evaluate_merged(&self, merged: &MetricsSnapshot) -> Option<SloEvaluation> {
        let slo = self.policy.slo.as_ref()?;
        let latency = merged
            .histograms
            .iter()
            .find(|(name, _)| name == WINDOW_LATENCY_METRIC)
            .map(|(_, histogram)| histogram.clone())
            .unwrap_or_default();
        let requests = latency.count();
        let errors = windowed_errors(&self.policy, &merged.gauges);
        Some(slo.evaluate(&latency, requests, errors))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(counter: u64, gauge: f64, samples: &[u64]) -> MetricsReport {
        let mut latency = Histogram::new();
        for s in samples {
            latency.record(*s);
        }
        MetricsReport {
            prometheus: String::new(),
            windowed: vec![(WINDOW_LATENCY_METRIC.to_owned(), latency)],
            counters: vec![("server.batches".to_owned(), counter)],
            gauges: vec![("server.queue_depth".to_owned(), gauge)],
        }
    }

    #[test]
    fn merge_adds_counters_and_gauges_and_merges_histograms() {
        let a = report(3, 1.0, &[100, 200]);
        let b = report(4, 2.0, &[300]);
        let merged = merge_reports([&a, &b]);
        assert_eq!(merged.counters, vec![("server.batches".to_owned(), 7)]);
        assert_eq!(merged.gauges, vec![("server.queue_depth".to_owned(), 3.0)]);
        assert_eq!(merged.histograms.len(), 1);
        assert_eq!(merged.histograms[0].1.count(), 3);
        assert_eq!(merged.histograms[0].1.sum(), 600);
    }

    #[test]
    fn merge_of_nothing_is_empty() {
        assert!(merge_reports([]).is_empty());
    }

    #[test]
    fn merge_is_grouping_insensitive() {
        let a = report(1, 0.5, &[10]);
        let b = report(2, 1.5, &[20, 30]);
        let c = report(3, 2.5, &[40]);
        let all = merge_reports([&a, &b, &c]);
        // ((a + b) + c) via an intermediate snapshot rebuilt as a report
        let ab = merge_reports([&a, &b]);
        let ab_report = MetricsReport {
            prometheus: String::new(),
            windowed: ab.histograms.clone(),
            counters: ab.counters.clone(),
            gauges: ab.gauges.clone(),
        };
        assert_eq!(merge_reports([&ab_report, &c]), all);
    }

    #[test]
    fn evaluate_report_scores_the_windowed_latency() {
        use qrcc_core::obs::SloSpec;
        let policy = MonitorPolicy::default()
            .with_slo(SloSpec::new("lat").with_latency(0.5, 50).with_max_error_rate(0.1));
        let fast = report(1, 0.0, &[10, 20, 30]);
        let eval = evaluate_report(&policy, &fast).expect("slo configured");
        assert_eq!(eval.status, SloStatus::Ok);
        let slow = report(1, 0.0, &[900, 1000, 1100]);
        let eval = evaluate_report(&policy, &slow).expect("slo configured");
        assert_eq!(eval.status, SloStatus::Breached);
    }

    #[test]
    fn windowed_errors_reconstructs_counts_from_the_rate_gauge() {
        let policy = MonitorPolicy { window_us: 10_000_000, ..MonitorPolicy::default() };
        // 0.3 failures/s over a 10 s window = 3 failed batches
        let gauges = vec![(WINDOW_ERROR_RATE_GAUGE.to_owned(), 0.3)];
        assert_eq!(windowed_errors(&policy, &gauges), 3);
        assert_eq!(windowed_errors(&policy, &[]), 0);
    }
}
