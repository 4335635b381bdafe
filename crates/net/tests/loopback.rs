//! Loopback integration tests of the transport layer itself: handshake and
//! capability exchange, batch submission with per-circuit shots, heartbeat,
//! per-circuit failure splicing, graceful shutdown, pooled reconnects, and
//! the typed error mapping under injected wire faults (`FaultyProxy`).

use qrcc_circuit::Circuit;
use qrcc_core::execute::{CircuitShape, ExactBackend, ExecutionBackend, ShotsBackend};
use qrcc_core::CoreError;
use qrcc_net::proto::{self, Frame, WireErrorKind, PROTOCOL_VERSION};
use qrcc_net::testing::{FaultyProxy, ProxyFault};
use qrcc_net::{Capabilities, QrccServer, RemoteBackend};
use qrcc_sim::device::{Device, DeviceConfig};
use qrcc_sim::SimError;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn bell() -> Circuit {
    let mut c = Circuit::new(2);
    c.h(0).cx(0, 1).measure_all();
    c
}

#[test]
fn handshake_exchanges_capabilities_and_port_zero_binds_are_distinct() {
    let a = QrccServer::bind("127.0.0.1:0", ExactBackend::capped(3)).unwrap().spawn();
    let b = QrccServer::bind("127.0.0.1:0", ExactBackend::new()).unwrap().spawn();
    assert_ne!(a.addr().port(), 0, "port 0 must resolve to a real ephemeral port");
    assert_ne!(a.addr(), b.addr(), "two ephemeral binds must not collide");

    let remote_a = RemoteBackend::connect(a.addr()).unwrap();
    assert_eq!(remote_a.max_qubits(), Some(3));
    assert_eq!(remote_a.shots_per_circuit(), None);
    assert_eq!(remote_a.capabilities().label, "exact(3q)");
    assert!(remote_a.label().starts_with("remote(exact(3q) @ "));

    let remote_b = RemoteBackend::connect(b.addr()).unwrap();
    assert_eq!(remote_b.max_qubits(), None);
    a.shutdown();
    b.shutdown();
}

#[test]
fn remote_execution_matches_in_process_bit_for_bit() {
    let server = QrccServer::bind("127.0.0.1:0", ExactBackend::new()).unwrap().spawn();
    let remote = RemoteBackend::connect(server.addr()).unwrap();
    let local = ExactBackend::new();

    let mut circuits = Vec::new();
    for n in 0..5 {
        let mut c = Circuit::new(3);
        c.h(0).ry(0.17 * (n as f64 + 1.0), 1).cx(0, 1).cx(1, 2).measure_all();
        circuits.push(c);
    }
    let local_dists = local.run_batch(&circuits);
    let remote_dists = remote.run_batch(&circuits);
    for (a, b) in local_dists.iter().zip(&remote_dists) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "distributions must survive bit-exactly");
        }
    }
    assert_eq!(remote.executions(), circuits.len() as u64);

    let stats = server.stats();
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.circuits_ok, circuits.len() as u64);
    assert_eq!(stats.circuits_failed, 0);
    server.shutdown();
}

#[test]
fn per_circuit_shots_reach_the_remote_sampling_backend() {
    // same seed locally and remotely: identical per-circuit shot counts must
    // reproduce identical sampling streams through the wire
    let remote_dev = Device::new(DeviceConfig::ideal(2).with_seed(5));
    let server =
        QrccServer::bind("127.0.0.1:0", ShotsBackend::new(remote_dev, 1_000)).unwrap().spawn();
    let remote = RemoteBackend::connect(server.addr()).unwrap();
    assert_eq!(remote.shots_per_circuit(), Some(1_000));

    let local = ShotsBackend::new(Device::new(DeviceConfig::ideal(2).with_seed(5)), 1_000);
    let circuits = vec![bell(), bell(), bell()];
    let shots = vec![500u64, 2_000, 1_500];
    let local_dists = local.run_batch_with_shots(&circuits, &shots);
    let remote_dists = remote.run_batch_with_shots(&circuits, &shots);
    for (a, b) in local_dists.iter().zip(&remote_dists) {
        assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
    }
    server.shutdown();
}

#[test]
fn per_circuit_failures_splice_into_the_batch() {
    let server = QrccServer::bind("127.0.0.1:0", ExactBackend::capped(2)).unwrap().spawn();
    let remote = RemoteBackend::connect(server.addr()).unwrap();
    let mut wide = Circuit::new(3);
    wide.h(0).cx(0, 1).cx(1, 2).measure_all();
    let results = remote.run_batch(&[bell(), wide, bell()]);
    assert!(results[0].is_ok());
    assert!(
        matches!(&results[1], Err(CoreError::BackendUnavailable { reason, .. }) if reason.contains("remote execution failed")),
        "{:?}",
        results[1]
    );
    assert!(results[2].is_ok());
    assert_eq!(remote.executions(), 2, "only confirmed successes count");
    let stats = server.stats();
    assert_eq!(stats.circuits_ok, 2);
    assert_eq!(stats.circuits_failed, 1);
    server.shutdown();
}

#[test]
fn mid_circuit_support_crosses_the_handshake_into_can_run() {
    // a worker whose device rejects mid-circuit measurement/reset must say
    // so at handshake time, so the router never places qubit-reuse circuits
    // on it (in-process the same backend's can_run refinement does this)
    let mut reuse = Circuit::new(1);
    reuse.h(0).measure(0, 0).reset(0).h(0).measure(0, 1);

    let no_mcm = Device::new(DeviceConfig::ideal(2).without_mid_circuit().with_seed(3));
    let strict = QrccServer::bind("127.0.0.1:0", ShotsBackend::new(no_mcm, 100)).unwrap().spawn();
    let strict_remote = RemoteBackend::connect(strict.addr()).unwrap();
    assert!(!strict_remote.capabilities().supports_mid_circuit);
    let (reuse, bell) = (CircuitShape::of(&reuse), CircuitShape::of(&bell()));
    assert!(!strict_remote.can_run(&reuse), "router must avoid this worker for reuse circuits");
    assert!(strict_remote.can_run(&bell), "terminal measurements stay routable");

    let lenient = QrccServer::bind("127.0.0.1:0", ExactBackend::capped(2)).unwrap().spawn();
    let lenient_remote = RemoteBackend::connect(lenient.addr()).unwrap();
    assert!(lenient_remote.capabilities().supports_mid_circuit);
    assert!(lenient_remote.can_run(&reuse));
    strict.shutdown();
    lenient.shutdown();
}

#[test]
fn heartbeat_round_trips() {
    let server = QrccServer::bind("127.0.0.1:0", ExactBackend::new()).unwrap().spawn();
    let remote = RemoteBackend::connect(server.addr()).unwrap();
    let rtt = remote.ping().unwrap();
    assert!(rtt < Duration::from_secs(5));
    // the connection is back in the pool and still serves batches
    assert!(remote.run_batch(&[bell()]).remove(0).is_ok());
    assert_eq!(remote.connections_dialled(), 1, "ping and batch reuse the pooled connection");
    server.shutdown();
}

/// A hand-rolled server that counts the `Ping` frames it answers, takes
/// every `DefineFragment` and serves every `SubmitVariants` with a uniform
/// distribution per key; it stops when the client hangs up.
fn ping_counting_server() -> (std::net::SocketAddr, Arc<AtomicU64>, std::thread::JoinHandle<()>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let pings = Arc::new(AtomicU64::new(0));
    let counted = Arc::clone(&pings);
    let server = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        assert!(matches!(proto::read_frame(&mut s).unwrap(), Frame::ClientHello { .. }));
        let capabilities = Capabilities {
            max_qubits: None,
            shots_per_circuit: None,
            supports_mid_circuit: true,
            label: "ping-counter".into(),
        };
        proto::write_frame(&mut s, &Frame::ServerHello { version: PROTOCOL_VERSION, capabilities })
            .unwrap();
        while let Ok(frame) = proto::read_frame(&mut s) {
            match frame {
                Frame::Ping { nonce } => {
                    counted.fetch_add(1, Ordering::SeqCst);
                    proto::write_frame(&mut s, &Frame::Pong { nonce }).unwrap();
                }
                Frame::DefineFragment { .. } => {}
                Frame::SubmitVariants { batch, keys, .. } => {
                    for index in 0..keys.len() as u32 {
                        let distribution = vec![0.25; 4]; // bell() measures 2 clbits
                        proto::write_frame(
                            &mut s,
                            &Frame::CircuitResult { batch, index, distribution },
                        )
                        .unwrap();
                    }
                    let executed = keys.len() as u32;
                    let done = Frame::BatchDone { batch, executed, telemetry: None };
                    proto::write_frame(&mut s, &done).unwrap();
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    });
    (addr, pings, server)
}

#[test]
fn checkout_pings_only_a_connection_that_sat_idle() {
    let (addr, pings, server) = ping_counting_server();
    let remote = RemoteBackend::connect(addr).unwrap();
    for _ in 0..5 {
        assert!(remote.run_batch(&[bell(), bell()]).iter().all(Result::is_ok));
    }
    assert_eq!(pings.load(Ordering::SeqCst), 0, "back-to-back batches must not ping");

    // idle past the bound: the next checkout confirms the connection once
    std::thread::sleep(Duration::from_millis(1_200));
    assert!(remote.run_batch(&[bell()]).iter().all(Result::is_ok));
    assert_eq!(pings.load(Ordering::SeqCst), 1, "an idle connection is pinged once");
    assert!(remote.run_batch(&[bell()]).iter().all(Result::is_ok));
    assert_eq!(pings.load(Ordering::SeqCst), 1, "and is warm again after its batch");
    assert_eq!(remote.connections_dialled(), 1, "every batch rode the one connection");
    drop(remote);
    server.join().unwrap();
}

#[test]
fn version_mismatch_is_rejected_with_a_typed_error_frame() {
    let server = QrccServer::bind("127.0.0.1:0", ExactBackend::new()).unwrap().spawn();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    proto::write_frame(&mut stream, &Frame::ClientHello { version: PROTOCOL_VERSION + 7 }).unwrap();
    match proto::read_frame(&mut stream).unwrap() {
        Frame::Error { kind, message } => {
            assert_eq!(kind, WireErrorKind::VersionMismatch);
            assert!(message.contains(&PROTOCOL_VERSION.to_string()), "{message}");
        }
        other => panic!("expected an Error frame, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn non_hello_opening_frame_is_a_protocol_error() {
    let server = QrccServer::bind("127.0.0.1:0", ExactBackend::new()).unwrap().spawn();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    proto::write_frame(&mut stream, &Frame::Ping { nonce: 1 }).unwrap();
    match proto::read_frame(&mut stream).unwrap() {
        Frame::Error { kind, .. } => assert_eq!(kind, WireErrorKind::Protocol),
        other => panic!("expected an Error frame, got {other:?}"),
    }
    assert_eq!(server.stats().protocol_errors, 1);
    server.shutdown();
}

#[test]
fn mid_stream_disconnect_fails_the_batch_and_the_pool_reconnects() {
    let server = QrccServer::bind("127.0.0.1:0", ExactBackend::new()).unwrap().spawn();
    // connection 0: handshake passes (small), replies die mid-stream;
    // connection 1 onwards: clean
    let proxy = FaultyProxy::spawn(server.addr(), vec![ProxyFault::DropAfter(96)]).unwrap();
    let remote = RemoteBackend::connect_with_timeout(proxy.addr(), Duration::from_secs(5)).unwrap();

    let circuits = vec![bell(), bell(), bell(), bell()];
    let results = remote.run_batch(&circuits);
    assert!(
        results.iter().all(|r| matches!(r, Err(CoreError::BackendUnavailable { .. }))),
        "a dead reply stream fails the whole batch as transient: {results:?}"
    );
    assert_eq!(remote.executions(), 0, "no confirmed executions on a dead stream");

    // the pool dials a fresh (clean) connection and the backend recovers
    let recovered = remote.run_batch(&circuits);
    assert!(recovered.iter().all(Result::is_ok));
    assert_eq!(remote.connections_dialled(), 2);
    assert_eq!(proxy.connections(), 2);
    proxy.shutdown();
    server.shutdown();
}

#[test]
fn garbled_stream_surfaces_as_a_transport_error() {
    let server = QrccServer::bind("127.0.0.1:0", ExactBackend::new()).unwrap().spawn();
    let proxy = FaultyProxy::spawn(server.addr(), vec![ProxyFault::GarbleAfter(64)]).unwrap();
    let remote = RemoteBackend::connect_with_timeout(proxy.addr(), Duration::from_secs(5)).unwrap();
    let results = remote.run_batch(&[bell(), bell()]);
    assert!(
        results.iter().all(|r| matches!(r, Err(CoreError::Transport { .. }))),
        "garbled frames are protocol violations, not transient faults: {results:?}"
    );
    proxy.shutdown();
    server.shutdown();
}

#[test]
fn stalled_stream_times_out_as_backend_unavailable() {
    let server = QrccServer::bind("127.0.0.1:0", ExactBackend::new()).unwrap().spawn();
    // threshold past the ~18-byte ServerHello but inside the first
    // (53-byte) reply frame; the batch follows the handshake at once, so its
    // checkout sends no liveness ping
    let proxy = FaultyProxy::spawn(server.addr(), vec![ProxyFault::StallAfter(48)]).unwrap();
    let remote =
        RemoteBackend::connect_with_timeout(proxy.addr(), Duration::from_millis(400)).unwrap();
    let results = remote.run_batch(&[bell()]);
    assert!(
        matches!(&results[0], Err(CoreError::BackendUnavailable { reason, .. }) if reason.contains("connection error")),
        "{results:?}"
    );
    proxy.shutdown();
    server.shutdown();
}

#[test]
fn wrong_length_distributions_are_rejected_as_transport_errors() {
    // a hand-rolled "server" answering with a distribution that does not
    // cover the circuit's classical register: the client must refuse it
    // (silently folding it into reconstruction would corrupt the output)
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mock = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        assert!(matches!(proto::read_frame(&mut s).unwrap(), Frame::ClientHello { .. }));
        proto::write_frame(
            &mut s,
            &Frame::ServerHello {
                version: PROTOCOL_VERSION,
                capabilities: Capabilities {
                    max_qubits: None,
                    shots_per_circuit: None,
                    supports_mid_circuit: true,
                    label: "mock".into(),
                },
            },
        )
        .unwrap();
        loop {
            match proto::read_frame(&mut s).unwrap() {
                // answer the pool's checkout liveness pings
                Frame::Ping { nonce } => {
                    proto::write_frame(&mut s, &Frame::Pong { nonce }).unwrap();
                }
                // the bare circuit's one-variant body
                Frame::DefineFragment { id, body } => {
                    assert_eq!((id, body.num_clbits()), (0, 2));
                }
                Frame::SubmitVariants { batch, keys, .. } => {
                    assert_eq!(keys.len(), 1);
                    // bell() measures 2 clbits, so 4 entries are owed — send 2
                    proto::write_frame(
                        &mut s,
                        &Frame::CircuitResult { batch, index: 0, distribution: vec![0.5, 0.5] },
                    )
                    .unwrap();
                    proto::write_frame(
                        &mut s,
                        &Frame::BatchDone { batch, executed: 1, telemetry: None },
                    )
                    .unwrap();
                    break;
                }
                other => panic!("expected SubmitVariants, got {other:?}"),
            }
        }
    });
    let remote = RemoteBackend::connect(addr).unwrap();
    let results = remote.run_batch(&[bell()]);
    assert!(matches!(&results[0], Err(CoreError::Transport { .. })), "{results:?}");
    mock.join().unwrap();
}

#[test]
fn unparseable_circuits_fail_deterministically_with_the_protocol_kind() {
    // a circuit the worker cannot parse is a deterministic failure: it must
    // carry the Protocol kind (client maps it to CoreError::Transport, not
    // the retryable BackendUnavailable), while the rest of the batch runs
    let server = QrccServer::bind("127.0.0.1:0", ExactBackend::new()).unwrap().spawn();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    proto::write_frame(&mut stream, &Frame::ClientHello { version: PROTOCOL_VERSION }).unwrap();
    assert!(matches!(proto::read_frame(&mut stream).unwrap(), Frame::ServerHello { .. }));
    proto::write_frame(
        &mut stream,
        &Frame::SubmitBatch {
            batch: 3,
            circuits: vec![
                "qreg q[1];\nbogus q[0];\n".into(),
                qrcc_circuit::qasm::to_qasm(&bell()),
            ],
            shots: None,
            trace: None,
        },
    )
    .unwrap();
    match proto::read_frame(&mut stream).unwrap() {
        Frame::CircuitFailed { index: 0, kind, reason, .. } => {
            assert_eq!(kind, WireErrorKind::Protocol);
            assert!(reason.contains("qasm parse error"), "{reason}");
        }
        other => panic!("expected the parse failure first, got {other:?}"),
    }
    assert!(matches!(
        proto::read_frame(&mut stream).unwrap(),
        Frame::CircuitResult { index: 1, .. }
    ));
    assert!(matches!(
        proto::read_frame(&mut stream).unwrap(),
        Frame::BatchDone { executed: 1, .. }
    ));
    server.shutdown();
}

#[test]
fn device_level_faults_cross_the_wire_as_per_circuit_failures() {
    // the promoted dispatch::testing doubles compose with the transport: a
    // FlakyBackend *behind* the server injects device faults, and they reach
    // the client as per-circuit BackendUnavailable — exactly like local ones
    use qrcc_core::dispatch::testing::FlakyBackend;
    let flaky = FlakyBackend::transient(ExactBackend::new(), 7, 1.0);
    let server = QrccServer::bind("127.0.0.1:0", flaky).unwrap().spawn();
    let remote = RemoteBackend::connect(server.addr()).unwrap();
    let first = remote.run_batch(&[bell()]).remove(0);
    assert!(
        matches!(&first, Err(CoreError::BackendUnavailable { reason, .. }) if reason.contains("injected fault")),
        "{first:?}"
    );
    let second = remote.run_batch(&[bell()]).remove(0);
    assert!(second.is_ok(), "the transient fault clears on resubmission: {second:?}");
    assert_eq!(server.stats().circuits_failed, 1);
    assert_eq!(server.stats().circuits_ok, 1);
    server.shutdown();
}

#[test]
fn statically_invalid_circuits_are_rejected_before_the_backend_runs() {
    // a circuit the pre-flight analyzer can prove unrunnable on this worker
    // (too wide for the capped backend) must be rejected *before* the batch
    // call, with the rendered QL diagnostic in the reason and the Backend
    // kind so the client's dispatcher re-routes instead of giving up
    let server = QrccServer::bind("127.0.0.1:0", ExactBackend::capped(2)).unwrap().spawn();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    proto::write_frame(&mut stream, &Frame::ClientHello { version: PROTOCOL_VERSION }).unwrap();
    assert!(matches!(proto::read_frame(&mut stream).unwrap(), Frame::ServerHello { .. }));
    let mut wide = Circuit::new(3);
    wide.h(0).cx(0, 1).cx(1, 2).measure_all();
    proto::write_frame(
        &mut stream,
        &Frame::SubmitBatch {
            batch: 11,
            circuits: vec![
                qrcc_circuit::qasm::to_qasm(&wide),
                qrcc_circuit::qasm::to_qasm(&bell()),
            ],
            shots: None,
            trace: None,
        },
    )
    .unwrap();
    match proto::read_frame(&mut stream).unwrap() {
        Frame::CircuitFailed { index: 0, kind, reason, .. } => {
            assert_eq!(kind, WireErrorKind::Backend, "pre-flight rejections stay re-routable");
            assert!(reason.contains("rejected by pre-flight analysis"), "{reason}");
            assert!(reason.contains("QL0301"), "the QL code must survive the wire: {reason}");
        }
        other => panic!("expected the pre-flight rejection first, got {other:?}"),
    }
    assert!(matches!(
        proto::read_frame(&mut stream).unwrap(),
        Frame::CircuitResult { index: 1, .. }
    ));
    assert!(matches!(
        proto::read_frame(&mut stream).unwrap(),
        Frame::BatchDone { executed: 1, .. }
    ));
    server.shutdown();
}

#[test]
fn trickle_reading_client_is_bounded_by_the_cumulative_write_budget() {
    // an adversarial client that drains replies a sip at a time keeps every
    // individual write syscall comfortably under the per-syscall timeout, so
    // only the *cumulative* batch write budget can unpin the connection
    // thread — this replays that attack and expects a fast, clean escape
    let server = QrccServer::bind("127.0.0.1:0", ExactBackend::new())
        .unwrap()
        .with_batch_write_budget(Duration::from_millis(500))
        .spawn();
    // the ~60-byte handshake passes at full speed; the trickle hits mid-reply
    let proxy = FaultyProxy::spawn(server.addr(), vec![ProxyFault::TrickleAfter(256)]).unwrap();
    let mut stream = TcpStream::connect(proxy.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    proto::write_frame(&mut stream, &Frame::ClientHello { version: PROTOCOL_VERSION }).unwrap();
    assert!(matches!(proto::read_frame(&mut stream).unwrap(), Frame::ServerHello { .. }));

    // 8 × 2^17-entry reply distributions ≈ 8 MiB — far more than the
    // loopback kernel buffers absorb, so reply writes really wait on the
    // (trickling) reader instead of completing into the socket buffer
    let mut big = Circuit::new(17);
    big.h(0).measure_all();
    let started = std::time::Instant::now();
    proto::write_frame(
        &mut stream,
        &Frame::SubmitBatch {
            batch: 1,
            circuits: vec![qrcc_circuit::qasm::to_qasm(&big); 8],
            shots: None,
            trace: None,
        },
    )
    .unwrap();

    // drain raw bytes until the server enforces the budget and drops the
    // connection (the proxy mirrors the close); per-syscall timeouts alone
    // would let this trickle run for minutes
    let mut sink = [0u8; 4096];
    loop {
        match std::io::Read::read(&mut stream, &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(20),
        "the write budget must cut the trickle short, took {elapsed:?}"
    );
    assert_eq!(server.stats().batches, 0, "a starved batch must not count as served");

    // the server survives the attack: a clean direct connection still works
    let remote = RemoteBackend::connect(server.addr()).unwrap();
    assert!(remote.run_batch(&[bell()]).remove(0).is_ok());
    proxy.shutdown();
    server.shutdown();
}

#[test]
fn graceful_shutdown_disconnects_clients_cleanly() {
    let server = QrccServer::bind("127.0.0.1:0", ExactBackend::new()).unwrap().spawn();
    let addr = server.addr();
    let remote = RemoteBackend::connect(addr).unwrap();
    assert!(remote.run_batch(&[bell()]).remove(0).is_ok());
    let last = server.shutdown();
    // shutdown joins every connection thread and returns the final counters
    assert_eq!((last.batches, last.circuits_ok), (1, 1));
    assert_eq!(last.open_connections, 0, "every connection thread has ended");
    // the pooled connection is dead and no listener answers the redial
    let result = remote.run_batch(&[bell()]).remove(0);
    assert!(matches!(result, Err(CoreError::BackendUnavailable { .. })), "{result:?}");
}

#[test]
fn a_circuit_measuring_nothing_is_refused_in_process_and_through_a_worker() {
    // without a classical bit there is no distribution to report: every
    // backend refuses the variant with the same typed, permanent error,
    // and the rest of its batch runs
    let mut unmeasured = Circuit::new(2);
    unmeasured.h(0).cx(0, 1);
    let exact = ExactBackend::new;
    let shots = || ShotsBackend::new(Device::new(DeviceConfig::ideal(2).with_seed(5)), 1_000);
    let servers = [
        QrccServer::bind("127.0.0.1:0", exact()).unwrap().spawn(),
        QrccServer::bind("127.0.0.1:0", shots()).unwrap().spawn(),
    ];
    let remotes: Vec<RemoteBackend> =
        servers.iter().map(|server| RemoteBackend::connect(server.addr()).unwrap()).collect();
    let backends: [&dyn ExecutionBackend; 4] = [&exact(), &shots(), &remotes[0], &remotes[1]];
    for backend in backends {
        let results = backend.run_batch(&[bell(), unmeasured.clone(), bell()]);
        let refused = CoreError::Simulation(SimError::NothingToMeasure);
        assert_eq!(results[1], Err(refused.clone()), "{}", backend.label());
        assert!(!refused.is_transient(), "a refusal is not retried");
        assert!(results[0].is_ok() && results[2].is_ok(), "{}: {results:?}", backend.label());
    }

    // a worker handed one anyway refuses it as deterministic
    for server in &servers {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        proto::write_frame(&mut stream, &Frame::ClientHello { version: PROTOCOL_VERSION }).unwrap();
        assert!(matches!(proto::read_frame(&mut stream).unwrap(), Frame::ServerHello { .. }));
        let circuits = vec![qrcc_circuit::qasm::to_qasm(&unmeasured)];
        let submit = Frame::SubmitBatch { batch: 4, circuits, shots: None, trace: None };
        proto::write_frame(&mut stream, &submit).unwrap();
        match proto::read_frame(&mut stream).unwrap() {
            Frame::CircuitFailed { index: 0, kind, reason, .. } => {
                assert_eq!(kind, WireErrorKind::Protocol);
                assert!(reason.contains("no measurements"), "{reason}");
            }
            other => panic!("expected the refusal, got {other:?}"),
        }
        assert!(matches!(
            proto::read_frame(&mut stream).unwrap(),
            Frame::BatchDone { executed: 0, .. }
        ));
    }
    for server in servers {
        assert_eq!(server.shutdown().circuits_ok, 2, "the two bells ran, nothing else");
    }
}
