//! Remote fleet walkthrough: the QRCC pipeline over **actual TCP workers**.
//!
//! Two `QrccServer` processes-in-miniature (threads here, but the bytes
//! genuinely cross loopback sockets) each serve a width-capped device; a
//! `RemoteBackend` client connects to each and drops into the same
//! `DeviceRegistry` as a local in-process backend. The scheduler routes the
//! figure6-style workload across all three, the dispatcher streams chunks
//! under a bounded in-flight window, and the telemetry shows where every
//! circuit and shot went — local and remote devices indistinguishable
//! behind the `ExecutionBackend` seam.
//!
//! Run with: `cargo run --example remote_fleet`
//!
//! Pass `--trace` to record the whole run as one span tree — client-side
//! phase spans, per-job dispatch spans, and each server's execute subtree
//! stitched under the `net.submit` span that carried it — then validate the
//! tree structurally, print the unified report, and write a Chrome
//! `trace_events` file. This is the CI trace gate.

use qrcc::core::obs::{
    adapt, chrome_trace, metrics, remote_subtree_stitched, tracer, validate_spans, QrccReport,
};
use qrcc::prelude::*;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = std::env::args().any(|a| a == "--trace");
    let trace_path = "remote_fleet_trace.json";

    // 1. The workload: the 6-qubit entangled chain used by the figure6
    //    dispatch demo, too wide for any single device in the fleet.
    let mut circuit = Circuit::new(6);
    circuit.h(0);
    for q in 0..5 {
        circuit.cx(q, q + 1);
        circuit.ry(0.21 * (q as f64 + 1.0), q + 1);
    }
    let config = QrccConfig::new(3)
        .with_subcircuit_range(2, 3)
        .with_qubit_reuse(false)
        .with_ilp_time_limit(Duration::ZERO);
    if trace {
        // the span tree is validated in step 7
        tracer().enable();
        println!("tracing enabled — spans validate and export to {trace_path}\n");
    }
    let pipeline = QrccPipeline::plan(&circuit, config)?;
    println!(
        "plan: {} subcircuits, widths {:?}, {} wire cuts",
        pipeline.plan_ref().num_subcircuits(),
        pipeline.plan_ref().subcircuit_widths(),
        pipeline.plan_ref().wire_cut_count(),
    );

    // 2. The fleet: two remote workers on ephemeral loopback ports (port 0 —
    //    the OS picks; nothing is hard-coded) plus one local device. Each
    //    worker keeps a result cache in front of its device, so repeated
    //    fragments are answered without re-sampling.
    let server_3q = QrccServer::bind(
        "127.0.0.1:0",
        ShotsBackend::new(Device::new(DeviceConfig::ideal(3).with_seed(7)), 1),
    )?
    .with_result_cache(&ResultCachePolicy::in_memory())
    .spawn();
    let server_2q = QrccServer::bind(
        "127.0.0.1:0",
        ShotsBackend::new(Device::new(DeviceConfig::ideal(2).with_seed(17)), 1),
    )?
    .with_result_cache(&ResultCachePolicy::in_memory())
    .spawn();

    let remote_3q = RemoteBackend::connect(server_3q.addr())?;
    let remote_2q = RemoteBackend::connect(server_2q.addr())?;
    for remote in [&remote_3q, &remote_2q] {
        println!(
            "connected {} — caps: max {:?} qubits, heartbeat {:?}",
            remote.label(),
            remote.capabilities().max_qubits,
            remote.ping()?,
        );
    }

    let mut registry = DeviceRegistry::new();
    registry.register("remote-3q", remote_3q);
    registry.register("remote-2q", remote_2q);
    registry.register_device("local-3q", Device::new(DeviceConfig::ideal(3).with_seed(11)), 1);

    // 3. Budgeted, chunked, windowed, retrying — the PR 3/4 machinery runs
    //    unchanged over the wire.
    let policy = SchedulePolicy::with_budget(300_000)
        .with_min_shots(64)
        .with_chunk_size(4)
        .with_max_in_flight_chunks(2)
        .with_max_retries(3);
    let scheduler = Scheduler::new(&registry, policy);
    let (probabilities, reconstruction, schedule) = pipeline.execute_streaming(&scheduler)?;

    println!(
        "\nschedule: {} circuits in {} chunks, {} total shots ({:?} allocation)",
        schedule.circuits, schedule.chunks, schedule.total_shots, schedule.allocation
    );
    for usage in &schedule.backends {
        println!(
            "  {:>10}: {:>2} circuits, {:>6} shots, {:>2} failures, {:>2} rescued retries",
            usage.backend, usage.circuits, usage.shots, usage.failures, usage.retries
        );
    }
    let d = &schedule.dispatch;
    println!(
        "dispatch: {} jobs dispatched, {} completed clean, {} retried ({} requeued), \
         max {} chunk(s) in flight",
        d.jobs_dispatched,
        d.jobs_completed,
        d.jobs_retried,
        d.jobs_requeued,
        d.max_in_flight_chunks
    );
    println!(
        "timings: queue wait {:.1?}, backend execution {:.1?}, consumer delivery {:.1?}",
        d.queue_wait, d.execute_wall, d.deliver_wall
    );

    // 4. Server-side view of the same run: the cold pass misses its way
    //    through every worker's cache.
    for (name, server) in [("remote-3q", &server_3q), ("remote-2q", &server_2q)] {
        let stats = server.stats();
        let cache = server.cache_stats().unwrap_or_default();
        println!(
            "{name} server: {} connection(s), {} batches, {} circuits ok, {} failed, \
             cache {} hit / {} delta / {} miss",
            stats.connections,
            stats.batches,
            stats.circuits_ok,
            stats.circuits_failed,
            cache.hits,
            cache.delta_hits,
            cache.misses
        );
    }

    // 5. Re-run the identical workload: the deterministic schedule sends the
    //    same fragments at the same shot counts to the same workers, so the
    //    remote ones now answer from their caches — no device re-sampling,
    //    while the client-side ledger still charges every requested shot.
    let (_, _, repeat) = pipeline.execute_streaming(&scheduler)?;
    assert_eq!(repeat.total_shots, 300_000, "cache-served replies still settle the budget");
    let mut served = 0;
    println!();
    for (name, server) in [("remote-3q", &server_3q), ("remote-2q", &server_2q)] {
        let cache = server.cache_stats().unwrap_or_default();
        served += cache.hits;
        println!(
            "{name} warm: {} cache hits, {} device shots saved",
            cache.hits, cache.shots_saved
        );
    }
    assert!(served > 0, "the warm pass must be served from the worker caches");

    // 5b. Fleet health, live off the wire: a FleetMonitor polls both
    //     workers' scrape endpoints (GetMetrics / GetHealth — two frames on
    //     a pooled connection, no batch round-trip), merges the windowed
    //     views, and scores an SLO against each worker and the fleet.
    let mon_3q = RemoteBackend::connect(server_3q.addr())?;
    let mon_2q = RemoteBackend::connect(server_2q.addr())?;
    let monitor = FleetMonitor::new(
        MonitorPolicy::default()
            .with_slo(SloSpec::new("fleet").with_latency(0.99, 250_000).with_max_error_rate(0.01)),
    )
    .with_worker(&mon_3q)
    .with_worker(&mon_2q);
    let view = monitor.poll_once();
    assert_eq!(view.unreachable, 0, "both workers must answer the poll");
    assert_eq!(view.count_state(HealthState::Accepting), 2, "both workers accepting");
    println!(
        "\nfleet health: status {}, {} workers accepting, total queue depth {}",
        view.status(),
        view.count_state(HealthState::Accepting),
        view.total_queue_depth(),
    );
    for worker in &view.workers {
        let health = worker.health.as_ref().expect("reachable");
        println!(
            "  {}: {} (queue {} now / {} high-water, {} conns)",
            worker.label,
            health.state,
            health.queue_depth,
            health.queue_high_water,
            health.connections,
        );
    }

    // 6. The budget was spent exactly once per circuit and the remote fleet
    //    reconstructs the right distribution.
    assert_eq!(schedule.total_shots, 300_000, "every allocated shot spent exactly once");
    let remote_circuits: u64 = schedule
        .backends
        .iter()
        .filter(|u| u.backend.starts_with("remote"))
        .map(|u| u.circuits)
        .sum();
    assert!(remote_circuits > 0, "the remote workers must have carried real work");
    let exact = StateVector::from_circuit(&circuit)?.probabilities();
    let max_error =
        probabilities.iter().zip(&exact).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
    println!(
        "\nreconstruction: {:?} strategy, max |reconstructed - exact| = {max_error:.2e}",
        reconstruction.strategy
    );
    assert!(max_error < 0.05);

    // 7. With `--trace`, both passes above were recorded into one trace
    //    tree. Validate it structurally (the CI trace gate), show the
    //    unified report over every telemetry island, and export the tree.
    if trace {
        let spans = tracer().drain();
        validate_spans(&spans).map_err(|e| format!("trace validation failed: {e}"))?;
        assert!(
            spans.iter().any(|s| !s.remote && s.name.starts_with("phase.")),
            "the trace must contain client-side pipeline phase spans"
        );
        assert!(
            spans.iter().any(|s| s.remote && s.name == "server.execute"),
            "the trace must contain the servers' execute spans"
        );
        assert!(
            remote_subtree_stitched(&spans),
            "the server subtrees must stitch under local roots (parents resolve across the wire)"
        );
        let profile =
            reconstruction.profile.as_ref().expect("a traced run attaches a phase profile");
        assert!(
            profile.coverage() >= 0.95,
            "the phase breakdown must attribute >=95% of wall-clock, got {:.1}%",
            100.0 * profile.coverage()
        );

        // p50/p99/p999 from the histograms the servers shipped back in
        // their BatchDone telemetry, merged client-side across the fleet.
        let latency = metrics()
            .histogram("server.batch_latency_us")
            .expect("server latency telemetry must merge into the client registry");
        println!(
            "\nremote batch latency, merged across the fleet ({} batches): \
             p50 {} us, p99 {} us, p999 {} us",
            latency.count(),
            latency.p50().unwrap_or(0),
            latency.p99().unwrap_or(0),
            latency.p999().unwrap_or(0),
        );

        // each worker's section: its own counters and its cache's
        let section = |server: &ServerHandle| {
            let mut section = server.stats().metrics();
            section.merge(&adapt::cache_metrics(&server.cache_stats().unwrap_or_default()));
            section
        };
        let report = QrccReport::new()
            .with_schedule(schedule)
            .with_reconstruction(reconstruction)
            .with_metrics(metrics().snapshot())
            .with_section("remote-3q", section(&server_3q))
            .with_section("remote-2q", section(&server_2q));
        println!("\n{}", report.render());

        std::fs::write(trace_path, chrome_trace(&spans))?;
        println!(
            "wrote {} spans ({} remote) to {trace_path} — load in chrome://tracing or Perfetto",
            spans.len(),
            spans.iter().filter(|s| s.remote).count(),
        );
    }

    // Drain before shutdown: GetHealth flips to draining while the sockets
    // still answer, so a router can move work away before anything closes.
    server_3q.begin_drain();
    server_2q.begin_drain();
    for mon in [&mon_3q, &mon_2q] {
        assert_eq!(mon.get_health()?.state, HealthState::Draining, "drain visible on the wire");
    }
    println!("\nboth workers report draining ahead of shutdown");

    for (name, server) in [("remote-3q", server_3q), ("remote-2q", server_2q)] {
        let last = server.shutdown();
        println!(
            "{name} shut down after {} batches ({} circuits ok, {} failed) over {} connection(s)",
            last.batches, last.circuits_ok, last.circuits_failed, last.connections
        );
    }
    Ok(())
}
