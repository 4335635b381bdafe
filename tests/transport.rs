//! End-to-end tests of the remote execution transport: the whole QRCC
//! pipeline running against loopback `QrccServer` workers.
//!
//! * remote ≡ in-process ≡ statevector (1e-9) on wire- and gate-cut plans,
//!   property-tested over random circuits;
//! * a `DeviceRegistry` of **only** `RemoteBackend`s reproduces a local
//!   exact backend's reconstruction byte-identically;
//! * an injected mid-stream disconnect (`FaultyProxy`) is rescued by the
//!   dispatcher's retry-with-exclusion, with the shot budget still spent
//!   exactly once;
//! * every server binds port 0, so parallel CI runs never collide.

use proptest::prelude::*;
use qrcc::net::testing::{FaultyProxy, ProxyFault};
use qrcc::prelude::*;
use std::sync::OnceLock;
use std::time::Duration;

fn small_config(device: usize) -> QrccConfig {
    QrccConfig::new(device).with_subcircuit_range(2, 3).with_ilp_time_limit(Duration::ZERO)
}

/// One shared loopback worker (unbounded exact backend), as a one-entry
/// registry, for the property tests — spawning a server per proptest case
/// would be pure overhead.
fn shared_remote() -> &'static DeviceRegistry {
    static SHARED: OnceLock<(ServerHandle, DeviceRegistry)> = OnceLock::new();
    let (_, registry) = SHARED.get_or_init(|| {
        let server = QrccServer::bind("127.0.0.1:0", ExactBackend::new()).unwrap().spawn();
        let mut registry = DeviceRegistry::new();
        registry.register("remote", RemoteBackend::connect(server.addr()).unwrap());
        (server, registry)
    });
    registry
}

/// The probability workload streamed over `registry` in one chunk.
fn probabilities(pipeline: &QrccPipeline, registry: &DeviceRegistry) -> Vec<f64> {
    let scheduler = Scheduler::new(registry, SchedulePolicy::default());
    pipeline.execute_streaming(&scheduler).unwrap().0
}

/// A local exact backend as a one-entry registry.
fn local_exact() -> DeviceRegistry {
    let mut registry = DeviceRegistry::new();
    registry.register("local", ExactBackend::new());
    registry
}

/// Random 4-qubit circuits from the cuttable gate set, wide enough that a
/// 3-qubit device forces cutting.
fn random_circuit() -> impl Strategy<Value = Circuit> {
    let n = 4usize;
    let gate = (0..6usize, 0..n, 0..n, -2.0f64..2.0);
    proptest::collection::vec(gate, 3..14).prop_map(move |gates| {
        let mut c = Circuit::new(n);
        c.h(0).cx(0, 1).cx(2, 3);
        for (kind, a, b, theta) in gates {
            match kind {
                0 => {
                    c.h(a);
                }
                1 => {
                    c.ry(theta, a);
                }
                2 => {
                    c.rz(theta, a);
                }
                3 if a != b => {
                    c.cx(a, b);
                }
                4 if a != b => {
                    c.rzz(theta, a, b);
                }
                5 if a != b => {
                    c.cz(a, b);
                }
                _ => {
                    c.t(a);
                }
            }
        }
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn remote_probability_pipeline_matches_local_and_statevector(circuit in random_circuit()) {
        let pipeline = match QrccPipeline::plan(&circuit, small_config(3)) {
            Ok(p) => p,
            Err(_) => return Ok(()), // some circuits legitimately cannot be cut
        };
        prop_assume!(pipeline.plan_ref().wire_cut_count() <= 5);
        let local_p = probabilities(&pipeline, &local_exact());
        let remote_p = probabilities(&pipeline, shared_remote());
        let exact = StateVector::from_circuit(&circuit).unwrap().probabilities();
        for ((r, l), e) in remote_p.iter().zip(&local_p).zip(&exact) {
            // remote and local must agree bit-for-bit
            prop_assert_eq!(r.to_bits(), l.to_bits());
            prop_assert!((r - e).abs() < 1e-9, "remote {r} vs statevector {e}");
        }
    }

    #[test]
    fn remote_gate_cut_expectation_matches_statevector(circuit in random_circuit()) {
        let config = small_config(3).with_gate_cuts(true);
        let pipeline = match QrccPipeline::plan(&circuit, config) {
            Ok(p) => p,
            Err(_) => return Ok(()),
        };
        prop_assume!(pipeline.plan_ref().wire_cut_count() <= 4);
        let mut obs = PauliObservable::new(4);
        obs.add_term(1.0, PauliString::zz(4, 0, 3));
        let scheduler = Scheduler::new(shared_remote(), SchedulePolicy::default());
        let (estimate, _, _) = pipeline.execute_observables_streaming(&scheduler, &obs).unwrap();
        let exact = StateVector::from_circuit(&circuit).unwrap().expectation(&obs);
        prop_assert!((estimate - exact).abs() < 1e-9, "remote {estimate} vs exact {exact}");
    }
}

fn chain(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
        c.ry(0.2 * (q as f64 + 1.0), q + 1);
    }
    c
}

/// Acceptance: a registry of **only** remote backends (loopback servers),
/// one of them losing its first connection mid-reply, still reproduces the
/// single-backend reconstruction byte-identically because the dispatcher
/// re-routes the dead job's circuits with the failer excluded.
#[test]
fn remote_only_registry_reconstructs_byte_identically_through_a_disconnect() {
    let circuit = chain(6);
    let pipeline = QrccPipeline::plan(&circuit, small_config(3)).unwrap();
    let reference = probabilities(&pipeline, &local_exact());

    let flaky_server = QrccServer::bind("127.0.0.1:0", ExactBackend::capped(3)).unwrap().spawn();
    let steady_server = QrccServer::bind("127.0.0.1:0", ExactBackend::capped(3)).unwrap().spawn();
    assert_ne!(flaky_server.addr(), steady_server.addr());
    // connection 0 carries the handshake (~30 bytes) and then dies on the
    // first reply frame; every reconnect is clean
    let proxy = FaultyProxy::spawn(flaky_server.addr(), vec![ProxyFault::DropAfter(48)]).unwrap();
    let flaky_remote =
        RemoteBackend::connect_with_timeout(proxy.addr(), Duration::from_secs(10)).unwrap();
    let steady_remote = RemoteBackend::connect(steady_server.addr()).unwrap();

    let mut registry = DeviceRegistry::new();
    registry.register("remote-flaky", flaky_remote);
    registry.register("remote-steady", steady_remote);
    let policy = SchedulePolicy::default().with_chunk_size(2).with_max_retries(4);
    let scheduler = Scheduler::new(&registry, policy);
    let (reconstructed, _, report) = pipeline.execute_streaming(&scheduler).unwrap();

    assert!(
        report.dispatch.failures > 0,
        "the severed connection must surface as dispatch failures: {report:?}"
    );
    let retries: u64 = report.backends.iter().map(|u| u.retries).sum();
    assert!(retries > 0, "the dead job's circuits must land elsewhere as retries");
    for (r, e) in reconstructed.iter().zip(&reference) {
        assert_eq!(r.to_bits(), e.to_bits(), "remote-only reconstruction must be byte-identical");
    }
    proxy.shutdown();
    flaky_server.shutdown();
    steady_server.shutdown();
}

/// Acceptance: under a global shot budget, a mid-stream disconnect does not
/// double-spend — each circuit's allocation lands exactly once, on the
/// backend where it finally succeeded.
#[test]
fn shot_budget_is_spent_exactly_once_through_a_disconnect() {
    let circuit = chain(5);
    let pipeline = QrccPipeline::plan(&circuit, small_config(3)).unwrap();

    let make_server = |seed: u64| {
        let device = Device::new(DeviceConfig::ideal(3).with_seed(seed));
        QrccServer::bind("127.0.0.1:0", ShotsBackend::new(device, 1_024)).unwrap().spawn()
    };
    let flaky_server = make_server(7);
    let steady_server = make_server(11);
    let proxy = FaultyProxy::spawn(flaky_server.addr(), vec![ProxyFault::DropAfter(64)]).unwrap();
    let flaky_remote =
        RemoteBackend::connect_with_timeout(proxy.addr(), Duration::from_secs(10)).unwrap();
    let steady_remote = RemoteBackend::connect(steady_server.addr()).unwrap();
    assert_eq!(flaky_remote.shots_per_circuit(), Some(1_024), "capability exchange");

    let mut registry = DeviceRegistry::new();
    registry.register("remote-flaky", flaky_remote);
    registry.register("remote-steady", steady_remote);
    let budget = 40_000u64;
    let policy = SchedulePolicy::with_budget(budget)
        .with_min_shots(8)
        .with_chunk_size(2)
        .with_max_retries(4);
    let scheduler = Scheduler::new(&registry, policy);
    let (probabilities, _, report) = pipeline.execute_streaming(&scheduler).unwrap();

    assert!(report.dispatch.failures > 0, "the fault must actually fire: {report:?}");
    assert_eq!(report.total_shots, budget, "the whole budget is spent despite the disconnect");
    let usage_shots: u64 = report.backends.iter().map(|u| u.shots).sum();
    assert_eq!(usage_shots, budget, "per-backend usage agrees with the total");
    let exact = StateVector::from_circuit(&circuit).unwrap().probabilities();
    for (p, e) in probabilities.iter().zip(&exact) {
        assert!((p - e).abs() < 0.05, "sampled reconstruction stays sane: {p} vs {e}");
    }
    proxy.shutdown();
    flaky_server.shutdown();
    steady_server.shutdown();
}

/// Streaming consumption works over the wire too: chunks fold into the
/// accumulator while later chunks are still executing remotely.
#[test]
fn streaming_reconstruction_over_remote_backends() {
    let circuit = chain(5);
    let pipeline = QrccPipeline::plan(&circuit, small_config(3)).unwrap();
    let server = QrccServer::bind("127.0.0.1:0", ExactBackend::capped(3)).unwrap().spawn();
    let remote = RemoteBackend::connect(server.addr()).unwrap();

    let mut registry = DeviceRegistry::new();
    registry.register("remote", remote);
    let policy = SchedulePolicy::default().with_chunk_size(2).with_max_in_flight_chunks(1);
    let scheduler = Scheduler::new(&registry, policy);
    let (streamed, _, report) = pipeline.execute_streaming(&scheduler).unwrap();
    assert!(report.chunks > 1, "chunk size 2 must split this batch");
    assert!(report.dispatch.max_in_flight_chunks <= 1);
    let exact = StateVector::from_circuit(&circuit).unwrap().probabilities();
    for (p, e) in streamed.iter().zip(&exact) {
        assert!((p - e).abs() < 1e-9);
    }
    server.shutdown();
}
