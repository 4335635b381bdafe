//! qrcc-load: the sustained-load proof harness. Drives N concurrent
//! `RemoteBackend` clients with a mixed wire-cut / gate-cut workload
//! against a multi-worker loopback fleet for a fixed duration while a
//! `FleetMonitor` polls every worker's live scrape endpoint (`GetMetrics` /
//! `GetHealth`, protocol v3) and scores the configured SLOs in real time.
//! Writes `BENCH_load.json` in the working directory.
//!
//! Usage: `cargo run --release -p qrcc-bench --bin qrcc-load [--smoke]
//!         [--workers N] [--clients N] [--seconds S]`
//!
//! `--smoke` shrinks the fleet and duration and skips the JSON dump — the
//! CI gate. Both modes hard-assert:
//!
//! * every client iteration succeeded (zero dispatch-level failures);
//! * **zero fleet SLO breaches** across every live poll;
//! * every worker stayed reachable for the whole run;
//! * `GetHealth` flips to `draining` once the servers begin drain.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use qrcc_circuit::generators;
use qrcc_circuit::observable::PauliObservable;
use qrcc_circuit::Circuit;
use qrcc_core::execute::ShotsBackend;
use qrcc_core::obs::{bench_json, MetricsSnapshot, MonitorPolicy, SloSpec, SloStatus};
use qrcc_core::pipeline::QrccPipeline;
use qrcc_core::schedule::{DeviceRegistry, Scheduler};
use qrcc_core::{QrccConfig, SchedulePolicy};
use qrcc_net::monitor::{FleetMonitor, WINDOW_LATENCY_METRIC};
use qrcc_net::{HealthState, QrccServer, RemoteBackend};
use qrcc_sim::device::{Device, DeviceConfig};

/// The fleet-wide SLO the live monitor scores every poll: p99 batch latency
/// under 250 ms, at most 1% failed batches, 99% availability. Loopback
/// exact-simulation batches sit orders of magnitude under the latency cap —
/// a breach means the harness itself regressed.
fn load_slo() -> SloSpec {
    SloSpec::new("fleet-load")
        .with_latency(0.99, 250_000)
        .with_max_error_rate(0.01)
        .with_min_availability(0.99)
}

/// Wire-cut workload: the 6-qubit entangled chain cut for 3-qubit devices.
fn wire_workload() -> (Circuit, QrccConfig) {
    let mut circuit = Circuit::new(6);
    circuit.h(0);
    for q in 0..5 {
        circuit.cx(q, q + 1);
        circuit.ry(0.17 * (q as f64 + 1.0), q + 1);
    }
    let config = QrccConfig::new(3).with_subcircuit_range(2, 3).with_ilp_time_limit(Duration::ZERO);
    (circuit, config)
}

/// Gate-cut workload: QAOA MaxCut on a 2-regular graph, gate cuts enabled.
fn gate_workload() -> (Circuit, PauliObservable, QrccConfig) {
    let (circuit, graph) = generators::qaoa_regular(6, 2, 1, 13);
    let observable = PauliObservable::maxcut(&graph);
    let config = QrccConfig::new(4)
        .with_subcircuit_range(2, 3)
        .with_gate_cuts(true)
        .with_ilp_time_limit(Duration::ZERO);
    (circuit, observable, config)
}

struct ClientCounters {
    wire_ok: AtomicU64,
    gate_ok: AtomicU64,
    failed: AtomicU64,
}

/// One client: its own pooled connections to every worker, its own
/// scheduler, alternating wire-cut and gate-cut pipelines until `stop`.
fn run_client(
    id: usize,
    addrs: &[std::net::SocketAddr],
    stop: &AtomicBool,
    counters: &ClientCounters,
) {
    let mut registry = DeviceRegistry::new();
    for (i, addr) in addrs.iter().enumerate() {
        let backend = RemoteBackend::connect(addr).expect("client connects to worker");
        registry.register(format!("worker-{i}"), backend);
    }
    let policy = SchedulePolicy::with_budget(50_000)
        .with_min_shots(64)
        .with_chunk_size(4)
        .with_max_in_flight_chunks(2)
        .with_max_retries(3);
    let scheduler = Scheduler::new(&registry, policy);

    let (wire_circuit, wire_config) = wire_workload();
    let wire = QrccPipeline::plan(&wire_circuit, wire_config).expect("wire workload plans");
    let (gate_circuit, observable, gate_config) = gate_workload();
    let gate = QrccPipeline::plan(&gate_circuit, gate_config).expect("gate workload plans");

    let mut iteration = id; // stagger which workload each client starts on
    while !stop.load(Ordering::Relaxed) {
        let result = if iteration.is_multiple_of(2) {
            wire.execute_streaming(&scheduler).map(|_| ())
        } else {
            gate.execute_observables_streaming(&scheduler, &observable).map(|_| ())
        };
        match result {
            Ok(()) if iteration.is_multiple_of(2) => {
                counters.wire_ok.fetch_add(1, Ordering::Relaxed)
            }
            Ok(()) => counters.gate_ok.fetch_add(1, Ordering::Relaxed),
            Err(e) => {
                eprintln!("client {id}: iteration failed: {e}");
                counters.failed.fetch_add(1, Ordering::Relaxed)
            }
        };
        iteration += 1;
    }
}

fn arg_value(args: &[String], name: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let workers = arg_value(&args, "--workers", 2) as usize;
    let clients = arg_value(&args, "--clients", if smoke { 4 } else { 6 }) as usize;
    let seconds = arg_value(&args, "--seconds", if smoke { 3 } else { 8 });
    let duration = Duration::from_secs(seconds);

    // The fleet: `workers` servers on ephemeral loopback ports, each a
    // 4-qubit sampling device behind the windowed metrics machinery.
    let servers: Vec<_> = (0..workers)
        .map(|i| {
            QrccServer::bind(
                "127.0.0.1:0",
                ShotsBackend::new(Device::new(DeviceConfig::ideal(4).with_seed(7 + i as u64)), 1),
            )
            .expect("server binds")
            .spawn()
        })
        .collect();
    let addrs: Vec<_> = servers.iter().map(|s| s.addr()).collect();
    println!("fleet: {workers} workers at {addrs:?}, {clients} clients, {seconds}s");

    // The monitor rides its own connections so polling never queues behind
    // the load clients' batches.
    let monitor_backends: Vec<_> =
        addrs.iter().map(|addr| RemoteBackend::connect(addr).expect("monitor connects")).collect();
    let policy = MonitorPolicy {
        window_us: 10_000_000,
        buckets: 10,
        poll_interval_us: 500_000,
        slo: Some(load_slo()),
    };
    let mut monitor = FleetMonitor::new(policy);
    for backend in &monitor_backends {
        monitor.add_worker(backend);
    }

    let stop = AtomicBool::new(false);
    let counters = ClientCounters {
        wire_ok: AtomicU64::new(0),
        gate_ok: AtomicU64::new(0),
        failed: AtomicU64::new(0),
    };

    let started = Instant::now();
    let (polls, breached_polls, worst, unreachable_polls, final_view) =
        std::thread::scope(|scope| {
            for id in 0..clients {
                let addrs = &addrs;
                let stop = &stop;
                let counters = &counters;
                scope.spawn(move || run_client(id, addrs, stop, counters));
            }

            // Live SLO tracking on the poll cadence for the whole duration.
            let mut polls = 0u64;
            let mut breached = 0u64;
            let mut unreachable = 0u64;
            let mut worst = SloStatus::Ok;
            let final_view = monitor.watch(duration, |view| {
                polls += 1;
                let status = view.status();
                worst = worst.max(status);
                if status == SloStatus::Breached {
                    breached += 1;
                }
                if view.unreachable > 0 {
                    unreachable += 1;
                }
                let latency = view
                    .merged
                    .histograms
                    .iter()
                    .find(|(name, _)| name == WINDOW_LATENCY_METRIC)
                    .map(|(_, h)| h.clone())
                    .unwrap_or_default();
                println!(
                    "t={:>5.1}s  status={status}  window: {} batches, p50 {} us, p99 {} us, \
                     queue depth {}",
                    started.elapsed().as_secs_f64(),
                    latency.count(),
                    latency.p50().unwrap_or(0),
                    latency.p99().unwrap_or(0),
                    view.total_queue_depth(),
                );
            });
            stop.store(true, Ordering::Relaxed);
            (polls, breached, worst, unreachable, final_view)
        });
    let elapsed = started.elapsed();

    let wire_ok = counters.wire_ok.load(Ordering::Relaxed);
    let gate_ok = counters.gate_ok.load(Ordering::Relaxed);
    let failed = counters.failed.load(Ordering::Relaxed);

    // The fleet-merged windowed latency from the final live poll.
    let latency = final_view
        .merged
        .histograms
        .iter()
        .find(|(name, _)| name == WINDOW_LATENCY_METRIC)
        .map(|(_, h)| h.clone())
        .unwrap_or_default();
    let batches: u64 = servers.iter().map(|s| s.stats().batches).sum();
    let circuits_ok: u64 = servers.iter().map(|s| s.stats().circuits_ok).sum();
    let circuits_failed: u64 = servers.iter().map(|s| s.stats().circuits_failed).sum();
    let throughput = batches as f64 / elapsed.as_secs_f64();
    let error_rate = circuits_failed as f64 / (circuits_ok + circuits_failed).max(1) as f64;

    println!(
        "\nload: {} wire + {} gate iterations ({} failed) across {clients} clients in {:.1?}",
        wire_ok, gate_ok, failed, elapsed
    );
    println!(
        "fleet: {batches} batches ({throughput:.0} batches/s), error rate {error_rate:.4}, \
         window p50 {} us / p99 {} us / p999 {} us",
        latency.p50().unwrap_or(0),
        latency.p99().unwrap_or(0),
        latency.p999().unwrap_or(0),
    );
    println!("monitor: {polls} polls, worst status {worst}, {breached_polls} breached");
    if let Some(eval) = &final_view.slo {
        println!("{eval}");
    }

    // The proof: sustained mixed load, zero failures, zero SLO breaches,
    // every worker reachable on every poll.
    assert!(wire_ok > 0 && gate_ok > 0, "both workload kinds must complete iterations");
    assert_eq!(failed, 0, "no client iteration may fail under clean sustained load");
    assert_eq!(breached_polls, 0, "the fleet SLO must hold on every live poll");
    assert_eq!(unreachable_polls, 0, "every worker must answer every poll");
    assert!(polls >= 2, "the monitor must have polled on its cadence");

    // Drain: GetHealth must flip to draining before the sockets go away.
    for server in &servers {
        server.begin_drain();
    }
    for backend in &monitor_backends {
        let health = backend.get_health().expect("draining servers still answer GetHealth");
        assert_eq!(health.state, HealthState::Draining, "drain must be visible on the wire");
    }
    println!("drain: all {workers} workers report draining via GetHealth");

    if smoke {
        println!("\nsmoke OK: sustained load held every SLO");
    } else {
        let mut metrics = MetricsSnapshot::default()
            .with_counter("client_runs_wire_ok", wire_ok)
            .with_counter("client_runs_gate_ok", gate_ok)
            .with_counter("client_runs_failed", failed)
            .with_counter("server_batches", batches)
            .with_counter("server_circuits_ok", circuits_ok)
            .with_counter("server_circuits_failed", circuits_failed)
            .with_counter("monitor_polls", polls)
            .with_counter("monitor_breached_polls", breached_polls)
            .with_gauge("throughput_batches_per_s", throughput)
            .with_gauge("error_rate", error_rate)
            .with_gauge("window_p50_us", latency.p50().unwrap_or(0) as f64)
            .with_gauge("window_p99_us", latency.p99().unwrap_or(0) as f64)
            .with_gauge("window_p999_us", latency.p999().unwrap_or(0) as f64)
            .with_histogram("fleet_window_batch_latency_us", latency.clone());
        for (i, server) in servers.iter().enumerate() {
            let stats = server.stats();
            metrics = metrics
                .with_gauge(&format!("worker{i}_queue_depth"), stats.queue_depth as f64)
                .with_gauge(&format!("worker{i}_queue_high_water"), stats.queue_high_water as f64);
        }
        let json = bench_json(
            "qrcc_load",
            &[
                ("workers", workers.to_string()),
                ("clients", clients.to_string()),
                ("seconds", seconds.to_string()),
                // config values are pre-rendered JSON: strings self-quote
                ("slo", "\"p99<=250ms, err<=1%, avail>=99%\"".to_string()),
                ("smoke", smoke.to_string()),
            ],
            &metrics,
        );
        std::fs::write("BENCH_load.json", &json).expect("write BENCH_load.json");
        println!("\nwrote BENCH_load.json");
    }

    for server in servers {
        server.shutdown();
    }
}
