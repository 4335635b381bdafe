//! Fleet health end to end: the windowed-view algebra (proptests over
//! rotation, expiry and the fleet merge) plus live `GetMetrics` /
//! `GetHealth` behaviour on real loopback servers — a deliberately slow
//! worker breaching its own SLO while the fleet-merged view still
//! validates, and drain visibility ahead of shutdown.

use std::time::Duration;

use proptest::prelude::*;
use qrcc_circuit::Circuit;
use qrcc_core::execute::{ExactBackend, ExecutionBackend};
use qrcc_core::obs::{Histogram, MonitorPolicy, SloSpec, SloStatus, WindowedHistogram};
use qrcc_core::CoreError;
use qrcc_net::monitor::{merge_reports, FleetMonitor, WINDOW_LATENCY_METRIC};
use qrcc_net::proto::MetricsReport;
use qrcc_net::{HealthState, QrccServer, RemoteBackend};

fn bell() -> Circuit {
    let mut bell = Circuit::new(2);
    bell.h(0).cx(0, 1).measure_all();
    bell
}

// ---------------------------------------------------------------- proptests

/// Replays sorted samples into a windowed histogram and returns it.
fn replay(window_ms: u64, buckets: usize, times: &[u64]) -> WindowedHistogram {
    let mut w = WindowedHistogram::new(Duration::from_millis(window_ms), buckets);
    for (i, t) in times.iter().enumerate() {
        w.record_at(*t, i as u64 + 1);
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole invariant: a windowed readout IS the merge of the live
    /// buckets — nothing more, nothing less — at any readout time.
    #[test]
    fn rotated_window_equals_merge_of_live_buckets(
        window_ms in 1u64..50,
        buckets in 1usize..8,
        mut times in proptest::collection::vec(0u64..200_000, 1..60),
        advance in 0u64..300_000,
    ) {
        times.sort_unstable();
        let w = replay(window_ms, buckets, &times);
        let now = times.last().copied().unwrap_or(0) + advance;
        let mut manual = Histogram::new();
        for (_, bucket) in w.live_buckets_at(now) {
            manual.merge(bucket);
        }
        prop_assert_eq!(w.snapshot_at(now), manual);
    }

    /// Expired buckets never leak: the windowed count at any readout time
    /// is exactly the number of samples whose grid bucket is still live,
    /// and every live bucket start sits inside the window.
    #[test]
    fn expired_buckets_never_leak_into_quantiles(
        window_ms in 1u64..50,
        buckets in 1usize..8,
        mut times in proptest::collection::vec(0u64..200_000, 1..60),
        advance in 0u64..300_000,
    ) {
        times.sort_unstable();
        let w = replay(window_ms, buckets, &times);
        let now = times.last().copied().unwrap_or(0) + advance;
        let width = w.bucket_width().as_micros() as u64;
        let window_us = w.window().as_micros() as u64;
        let expected = times
            .iter()
            .filter(|t| {
                let start = *t - *t % width;
                start + window_us > now
            })
            .count() as u64;
        prop_assert_eq!(w.snapshot_at(now).count(), expected);
        for (start, _) in w.live_buckets_at(now) {
            prop_assert!(start <= now && now < start + window_us);
        }
    }

    /// The fleet merge is elementwise and grouping-insensitive: merging all
    /// reports at once equals merging any prefix first and folding the rest
    /// in, and every counter / histogram count is the elementwise sum.
    #[test]
    fn fleet_merge_is_elementwise_and_grouping_insensitive(
        per_worker in proptest::collection::vec(
            (0u64..1_000, proptest::collection::vec(1u64..100_000, 0..20)),
            1..5,
        ),
        split in 0usize..5,
    ) {
        let reports: Vec<MetricsReport> = per_worker
            .iter()
            .map(|(batches, samples)| {
                let mut latency = Histogram::new();
                for s in samples {
                    latency.record(*s);
                }
                MetricsReport {
                    prometheus: String::new(),
                    windowed: vec![(WINDOW_LATENCY_METRIC.to_owned(), latency)],
                    counters: vec![("server.batches".to_owned(), *batches)],
                    gauges: vec![("server.queue_depth".to_owned(), *batches as f64)],
                }
            })
            .collect();
        let all = merge_reports(reports.iter());

        // elementwise sums
        let batches: u64 = per_worker.iter().map(|(b, _)| *b).sum();
        let samples: u64 = per_worker.iter().map(|(_, s)| s.len() as u64).sum();
        prop_assert_eq!(all.counters[0].1, batches);
        prop_assert_eq!(all.histograms[0].1.count(), samples);
        prop_assert!((all.gauges[0].1 - batches as f64).abs() < 1e-6);

        // grouping-insensitive: fold a prefix into one report first
        let split = split.min(reports.len());
        let prefix = merge_reports(reports[..split].iter());
        let prefix_report = MetricsReport {
            prometheus: String::new(),
            windowed: prefix.histograms.clone(),
            counters: prefix.counters.clone(),
            gauges: prefix.gauges.clone(),
        };
        let regrouped =
            merge_reports(std::iter::once(&prefix_report).chain(reports[split..].iter()));
        prop_assert_eq!(regrouped, all);
    }
}

// ------------------------------------------------------- loopback fixtures

/// An exact backend that sleeps before answering — the "deliberately slow
/// worker" whose windowed latency blows its SLO.
struct SlowBackend {
    inner: ExactBackend,
    delay: Duration,
}

impl ExecutionBackend for SlowBackend {
    fn run(
        &self,
        circuits: &[&Circuit],
        shots: Option<&[u64]>,
    ) -> Vec<Result<Vec<f64>, CoreError>> {
        std::thread::sleep(self.delay);
        self.inner.run(circuits, shots)
    }

    fn max_qubits(&self) -> Option<usize> {
        self.inner.max_qubits()
    }

    fn label(&self) -> String {
        "slow".to_owned()
    }

    fn executions(&self) -> u64 {
        self.inner.executions()
    }
}

// ------------------------------------------------------------- live tests

/// The monitor's merged snapshot must equal the elementwise merge of the
/// per-worker reports it captured in the same poll — on real sockets.
#[test]
fn merged_view_equals_elementwise_merge_of_polled_reports() {
    let servers: Vec<_> = (0..2)
        .map(|_| QrccServer::bind("127.0.0.1:0", ExactBackend::capped(3)).unwrap().spawn())
        .collect();
    let backends: Vec<_> =
        servers.iter().map(|s| RemoteBackend::connect(s.addr()).unwrap()).collect();
    for backend in &backends {
        for _ in 0..3 {
            backend.run(&[&bell()], None).remove(0).unwrap();
        }
    }

    let mut monitor = FleetMonitor::new(MonitorPolicy::default());
    for backend in &backends {
        monitor.add_worker(backend);
    }
    let view = monitor.poll_once();

    assert_eq!(view.unreachable, 0, "both workers must answer");
    assert_eq!(view.count_state(HealthState::Accepting), 2);
    let manual = merge_reports(view.workers.iter().filter_map(|w| w.report.as_ref()));
    assert_eq!(view.merged, manual, "the fleet view must be the pure elementwise merge");

    // both workers served batches, and the merged window saw all of them
    let batches = view.merged.counters.iter().find(|(n, _)| n == "server.batches").map(|(_, v)| *v);
    assert_eq!(batches, Some(6));
    let latency = view
        .merged
        .histograms
        .iter()
        .find(|(n, _)| n == WINDOW_LATENCY_METRIC)
        .map(|(_, h)| h.clone())
        .expect("windowed latency present");
    assert_eq!(latency.count(), 6);

    for server in servers {
        server.shutdown();
    }
}

/// A deliberately slow worker drives its own latency SLO to `Breached`
/// while the fleet-merged view — dominated by the fast worker's samples —
/// still validates.
#[test]
fn slow_worker_breaches_its_slo_while_the_fleet_still_validates() {
    let fast = QrccServer::bind("127.0.0.1:0", ExactBackend::capped(3)).unwrap().spawn();
    let slow = QrccServer::bind(
        "127.0.0.1:0",
        SlowBackend { inner: ExactBackend::capped(3), delay: Duration::from_millis(60) },
    )
    .unwrap()
    .spawn();

    let fast_backend = RemoteBackend::connect(fast.addr()).unwrap();
    let slow_backend = RemoteBackend::connect(slow.addr()).unwrap();
    // 20 sub-millisecond batches vs 2 at ~60 ms: the merged p50 stays fast
    for _ in 0..20 {
        fast_backend.run(&[&bell()], None).remove(0).unwrap();
    }
    for _ in 0..2 {
        slow_backend.run(&[&bell()], None).remove(0).unwrap();
    }

    // SLO: median batch latency under 20 ms
    let policy = MonitorPolicy::default()
        .with_slo(SloSpec::new("latency").with_latency(0.5, 20_000).with_max_error_rate(0.01));
    let monitor = FleetMonitor::new(policy).with_worker(&fast_backend).with_worker(&slow_backend);
    let view = monitor.poll_once();

    assert_eq!(view.unreachable, 0);
    let slow_eval = view.workers[1].slo.as_ref().expect("slo configured");
    assert_eq!(
        slow_eval.status,
        SloStatus::Breached,
        "the slow worker's own median must blow the 20 ms target: {slow_eval}"
    );
    let fast_eval = view.workers[0].slo.as_ref().expect("slo configured");
    assert_eq!(fast_eval.status, SloStatus::Ok, "the fast worker stays within SLO: {fast_eval}");
    let fleet = view.slo.as_ref().expect("fleet slo evaluated");
    assert_eq!(
        fleet.status,
        SloStatus::Ok,
        "the fleet median is dominated by the fast worker: {fleet}"
    );
    assert_eq!(view.status(), SloStatus::Ok);
    assert_eq!(view.worst_worker_status(), SloStatus::Breached);

    fast.shutdown();
    slow.shutdown();
}

/// `GetHealth` flips to draining the moment the server begins drain —
/// while the socket still answers — and `ServerHandle::shutdown` drains
/// before closing.
#[test]
fn get_health_flips_to_draining_before_sockets_close() {
    let server = QrccServer::bind("127.0.0.1:0", ExactBackend::capped(3)).unwrap().spawn();
    let backend = RemoteBackend::connect(server.addr()).unwrap();
    backend.run(&[&bell()], None).remove(0).unwrap();

    let health = backend.get_health().unwrap();
    assert_eq!(health.state, HealthState::Accepting);
    assert_eq!(health.queue_depth, 0);
    assert!(health.queue_high_water >= 1, "the batch must have raised the high-water mark");

    server.begin_drain();
    let health = backend.get_health().unwrap();
    assert_eq!(health.state, HealthState::Draining, "drain must be visible on the wire");
    // the handle agrees with the wire
    assert_eq!(server.health().state, HealthState::Draining);

    server.shutdown();
}

/// An unreachable worker is reported as such without failing the poll, and
/// the merged view covers only the workers that answered.
#[test]
fn unreachable_workers_degrade_to_a_flagged_view() {
    let live = QrccServer::bind("127.0.0.1:0", ExactBackend::capped(3)).unwrap().spawn();
    let doomed = QrccServer::bind("127.0.0.1:0", ExactBackend::capped(3)).unwrap().spawn();

    let live_backend = RemoteBackend::connect(live.addr()).unwrap();
    let doomed_backend = RemoteBackend::connect(doomed.addr()).unwrap();
    live_backend.run(&[&bell()], None).remove(0).unwrap();
    doomed.shutdown();

    let monitor = FleetMonitor::new(MonitorPolicy::default())
        .with_worker(&live_backend)
        .with_worker(&doomed_backend);
    let view = monitor.poll_once();

    assert_eq!(view.unreachable, 1);
    assert!(view.workers[0].reachable());
    assert!(!view.workers[1].reachable());
    assert!(view.workers[1].error.is_some(), "the failure reason must be surfaced");
    let batches = view.merged.counters.iter().find(|(n, _)| n == "server.batches").map(|(_, v)| *v);
    assert_eq!(batches, Some(1), "the merged view covers only the reachable worker");

    live.shutdown();
}
