//! Protocol v4's variant path: a connection defines each fragment body once
//! (`DefineFragment`), then submits `(fragment, ordinal, outputs)` keys
//! (`SubmitVariants`). Every answer must be bit-identical to the OpenQASM
//! path (`RemoteBackend::run_batch`) and to the in-process backend, on exact
//! and seeded sampling workers, across dropped connections, and however the
//! per-connection fragment table churns; and a hostile peer meets typed
//! errors at the table's and the batch's weight caps.

use qrcc_circuit::{Circuit, Gate, Operation, QubitId};
use qrcc_core::execute::{ExactBackend, ExecutionBackend, ShotsBackend, VariantBatch};
use qrcc_core::fragment::{FragmentBody, FragmentSet, SkeletonOp, VariantKey};
use qrcc_core::planner::CutPlanner;
use qrcc_core::{CoreError, DeviceRegistry, QrccConfig, SchedulePolicy, Scheduler};
use qrcc_net::proto::{
    self, Frame, WireErrorKind, MAX_BATCH_WEIGHT, MAX_FRAGMENTS, MAX_FRAGMENT_WEIGHT,
    PROTOCOL_VERSION,
};
use qrcc_net::testing::{FaultyProxy, ProxyFault};
use qrcc_net::{QrccServer, RemoteBackend};
use qrcc_sim::device::{Device, DeviceConfig};
use std::net::TcpStream;
use std::time::Duration;

/// The fragments of a REG-6 QAOA plan with wire and gate cuts, behind a
/// prologue of `angle`-dependent rotations on every qubit and after every
/// layer, so different angles give different bodies.
fn qaoa_fragments(angle: f64) -> FragmentSet {
    let (qaoa, _) = qrcc_circuit::generators::qaoa_regular(6, 3, 1, 11);
    let mut circuit = Circuit::new(6);
    for q in 0..6 {
        circuit.ry(angle * (q + 1) as f64, q);
    }
    circuit.compose(&qaoa);
    for q in 0..6 {
        circuit.rz(angle, q);
    }
    let config = QrccConfig::new(4)
        .with_gate_cuts(true)
        .with_subcircuit_range(2, 3)
        .with_ilp_time_limit(Duration::ZERO);
    let plan = CutPlanner::new(config).plan(&circuit).unwrap();
    FragmentSet::from_plan(&plan).unwrap()
}

/// Every variant of every fragment (at most `per_fragment` ordinals each),
/// half of them measuring the first output in X, with their circuits.
fn variants(set: &FragmentSet, per_fragment: u64) -> (Vec<VariantKey>, Vec<Circuit>) {
    let mut keys = Vec::new();
    for (index, fragment) in set.fragments.iter().enumerate() {
        for ordinal in 0..fragment.variant_count().min(per_fragment) {
            let outputs = u64::from(!fragment.output_clbits.is_empty() && ordinal % 2 == 1);
            keys.push(VariantKey::new(index, ordinal, outputs));
        }
    }
    let circuits = keys.iter().map(|key| set.instantiate_key(key).unwrap()).collect();
    (keys, circuits)
}

fn assert_bit_identical(
    a: &[Result<Vec<f64>, CoreError>],
    b: &[Result<Vec<f64>, CoreError>],
    what: &str,
) {
    assert_eq!(a.len(), b.len(), "{what}: one result per variant");
    for (i, (a, b)) in a.iter().zip(b).enumerate() {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        let bits = |d: &[f64]| d.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b), "{what}: variant {i}");
    }
}

#[test]
fn a_v3_client_hello_is_refused_with_version_mismatch() {
    assert_eq!(PROTOCOL_VERSION, 4);
    let server = QrccServer::bind("127.0.0.1:0", ExactBackend::new()).unwrap().spawn();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    proto::write_frame(&mut stream, &Frame::ClientHello { version: 3 }).unwrap();
    match proto::read_frame(&mut stream).unwrap() {
        Frame::Error { kind, .. } => assert_eq!(kind, WireErrorKind::VersionMismatch),
        other => panic!("expected an Error frame, got {other:?}"),
    }
    assert_eq!(server.stats().protocol_errors, 1);
    server.shutdown();
}

#[test]
fn keys_match_the_qasm_path_and_the_in_process_backend_on_an_exact_server() {
    let set = qaoa_fragments(0.3);
    assert!(set.num_gate_cuts() > 0, "the plan exercises gate-cut halves");
    let (keys, circuits) = variants(&set, 40);
    let server = QrccServer::bind("127.0.0.1:0", ExactBackend::capped(4)).unwrap().spawn();
    let remote = RemoteBackend::connect(server.addr()).unwrap();

    let local = ExactBackend::new().run_batch(&circuits);
    let qasm = remote.run_batch(&circuits);
    let batch = VariantBatch::new(&set, &keys, &circuits, None);
    let keyed = remote.run_variants(&batch);
    assert_bit_identical(&keyed, &local, "keys vs in-process");
    assert_bit_identical(&keyed, &qasm, "keys vs QASM");
    // the second submission finds every fragment already defined
    assert_bit_identical(&remote.run_variants(&batch), &local, "keys, warm table");
    assert_eq!(remote.connections_dialled(), 1, "one connection carried everything");
    assert_eq!(server.stats().circuits_ok, 3 * circuits.len() as u64);
    server.shutdown();
}

#[test]
fn keys_match_the_qasm_path_and_the_in_process_backend_on_a_seeded_shots_server() {
    let set = qaoa_fragments(0.7);
    let (keys, circuits) = variants(&set, 24);
    let shots: Vec<u64> = (0..circuits.len() as u64).map(|i| 200 + 37 * i).collect();
    let device = || Device::new(DeviceConfig::ideal(4).with_seed(23));
    let keyed_server =
        QrccServer::bind("127.0.0.1:0", ShotsBackend::new(device(), 500)).unwrap().spawn();
    let qasm_server =
        QrccServer::bind("127.0.0.1:0", ShotsBackend::new(device(), 500)).unwrap().spawn();
    let keyed_remote = RemoteBackend::connect(keyed_server.addr()).unwrap();
    let qasm_remote = RemoteBackend::connect(qasm_server.addr()).unwrap();
    let local = ShotsBackend::new(device(), 500);

    // the same sampling streams in the same order: explicit shots, then the
    // worker's default
    for shots in [Some(shots.as_slice()), None] {
        let batch = VariantBatch::new(&set, &keys, &circuits, shots);
        let keyed = keyed_remote.run_variants(&batch);
        let (qasm, in_process) = match shots {
            Some(shots) => (
                qasm_remote.run_batch_with_shots(&circuits, shots),
                local.run_batch_with_shots(&circuits, shots),
            ),
            None => (qasm_remote.run_batch(&circuits), local.run_batch(&circuits)),
        };
        assert_bit_identical(&keyed, &in_process, "keys vs in-process");
        assert_bit_identical(&keyed, &qasm, "keys vs QASM");
    }
    keyed_server.shutdown();
    qasm_server.shutdown();
}

#[test]
fn a_dropped_connection_fails_the_batch_and_its_successor_redefines_the_fragments() {
    let set = qaoa_fragments(1.1);
    let (keys, circuits) = variants(&set, 16);
    let server = QrccServer::bind("127.0.0.1:0", ExactBackend::new()).unwrap().spawn();
    // connection 0: handshake and ping pass, the reply dies mid-stream
    let proxy = FaultyProxy::spawn(server.addr(), vec![ProxyFault::DropAfter(96)]).unwrap();
    let remote = RemoteBackend::connect_with_timeout(proxy.addr(), Duration::from_secs(5)).unwrap();
    let batch = VariantBatch::new(&set, &keys, &circuits, None);

    let dropped = remote.run_variants(&batch);
    assert!(
        dropped.iter().all(|r| matches!(r, Err(CoreError::BackendUnavailable { .. }))),
        "a dead reply stream fails the whole batch as transient: {dropped:?}"
    );
    // the fresh connection starts with an empty table on both sides
    let recovered = remote.run_variants(&batch);
    assert_bit_identical(&recovered, &ExactBackend::new().run_batch(&circuits), "recovered");
    assert_eq!(remote.connections_dialled(), 2);
    proxy.shutdown();
    server.shutdown();
}

#[test]
fn sampled_shots_are_spent_exactly_once_on_the_key_path_through_drops() {
    let set = qaoa_fragments(0.5);
    let (keys, circuits) = variants(&set, 12);
    let server = |seed: u64| {
        let device = Device::new(DeviceConfig::ideal(4).with_seed(seed));
        QrccServer::bind("127.0.0.1:0", ShotsBackend::new(device, 1_024)).unwrap().spawn()
    };
    let (flaky_server, steady_server) = (server(7), server(11));
    let proxy = FaultyProxy::spawn(
        flaky_server.addr(),
        vec![ProxyFault::DropAfter(64), ProxyFault::Clean, ProxyFault::DropAfter(200)],
    )
    .unwrap();
    let mut registry = DeviceRegistry::new();
    registry.register(
        "remote-flaky",
        RemoteBackend::connect_with_timeout(proxy.addr(), Duration::from_secs(10)).unwrap(),
    );
    registry.register("remote-steady", RemoteBackend::connect(steady_server.addr()).unwrap());
    let budget = 50_000u64;
    let policy = SchedulePolicy::with_budget(budget)
        .with_min_shots(8)
        .with_chunk_size(4)
        .with_max_retries(6);
    let scheduler = Scheduler::new(&registry, policy);
    let requests: Vec<_> =
        keys.iter().map(|&key| qrcc_core::fragment::VariantRequest { key }).collect();
    let mut delivered = 0;
    let report = scheduler
        .execute_chunked(&set, &requests, |chunk| {
            for (key, distribution) in chunk.iter() {
                let sum: f64 = distribution.iter().sum();
                assert!((sum - 1.0).abs() < 1e-9, "{key:?} is a distribution");
                delivered += 1;
            }
            Ok(())
        })
        .unwrap();
    assert_eq!(delivered, circuits.len(), "every variant delivered once");
    assert!(report.dispatch.failures > 0, "the drop must fire: {report:?}");
    assert_eq!(report.total_shots, budget, "the budget is spent exactly once");
    let usage: u64 = report.backends.iter().map(|u| u.shots).sum();
    assert_eq!(usage, budget, "per-backend usage agrees with the total");
    proxy.shutdown();
    flaky_server.shutdown();
    steady_server.shutdown();
}

#[test]
fn the_fragment_table_churns_and_oversized_batches_fall_back_to_qasm() {
    // 40 plans' fragments under one set: more bodies than one table holds
    let sets: Vec<FragmentSet> = (0..40).map(|i| qaoa_fragments(0.05 * i as f64)).collect();
    let mut union = sets[0].clone();
    union.fragments = sets.iter().flat_map(|set| set.fragments.clone()).collect();
    let mut distinct: Vec<&qrcc_core::fragment::FragmentBody> = Vec::new();
    for fragment in &union.fragments {
        if !distinct.contains(&fragment.body()) {
            distinct.push(fragment.body());
        }
    }
    assert!(distinct.len() > MAX_FRAGMENTS as usize, "{} distinct bodies", distinct.len());
    let (keys, circuits) = variants(&union, 3);
    let local = ExactBackend::new().run_batch(&circuits);

    let server = QrccServer::bind("127.0.0.1:0", ExactBackend::new()).unwrap().spawn();
    let remote = RemoteBackend::connect(server.addr()).unwrap();
    // one batch naming every fragment goes out as OpenQASM
    let all = remote.run_variants(&VariantBatch::new(&union, &keys, &circuits, None));
    assert_bit_identical(&all, &local, "oversized batch");
    // windows of the key list sweep the table past its cap and back
    for start in (0..keys.len()).step_by(25).chain((0..keys.len()).step_by(40)) {
        let end = (start + 60).min(keys.len());
        let (window_keys, window_circuits) = (&keys[start..end], &circuits[start..end]);
        let window = VariantBatch::new(&union, window_keys, window_circuits, None);
        assert_bit_identical(&remote.run_variants(&window), &local[start..end], "window");
    }
    assert_eq!(remote.connections_dialled(), 1);
    server.shutdown();
}

#[test]
fn hostile_keys_fail_alone_and_an_out_of_table_definition_is_a_protocol_error() {
    let set = qaoa_fragments(0.2);
    let body = set.fragments[0].body().clone();
    let server = QrccServer::bind("127.0.0.1:0", ExactBackend::new()).unwrap().spawn();
    let mut stream = raw_session(&server);
    proto::write_frame(&mut stream, &Frame::DefineFragment { id: 2, body: body.clone() }).unwrap();
    let keys = vec![
        VariantKey::new(2, 0, 0),
        VariantKey::new(0, 0, 0),                      // never defined
        VariantKey::new(2, body.variant_count(), 0),   // ordinal out of range
        VariantKey::new(2, 0, 3),                      // no basis has code 3
        VariantKey::new(MAX_FRAGMENTS as usize, 0, 0), // outside the table
    ];
    let submit = Frame::SubmitVariants { batch: 9, keys, shots: None, trace: None };
    proto::write_frame(&mut stream, &submit).unwrap();
    let expected = ExactBackend::new().run_one(&body.instantiate(0, 0)).unwrap();
    match proto::read_frame(&mut stream).unwrap() {
        Frame::CircuitResult { batch: 9, index: 0, distribution } => {
            assert_eq!(distribution, expected);
        }
        other => panic!("expected the first result, got {other:?}"),
    }
    for index in 1..5 {
        match proto::read_frame(&mut stream).unwrap() {
            Frame::CircuitFailed { batch: 9, index: i, kind, .. } => {
                assert_eq!((i, kind), (index, WireErrorKind::Protocol));
            }
            other => panic!("expected failure {index}, got {other:?}"),
        }
    }
    assert!(matches!(
        proto::read_frame(&mut stream).unwrap(),
        Frame::BatchDone { batch: 9, executed: 1, .. }
    ));

    proto::write_frame(&mut stream, &Frame::DefineFragment { id: MAX_FRAGMENTS, body }).unwrap();
    expect_protocol_error(&mut stream);
    assert_eq!(server.stats().protocol_errors, 1);
    server.shutdown();
}

/// A handshaken raw connection to `server`.
fn raw_session(server: &qrcc_net::ServerHandle) -> TcpStream {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    proto::write_frame(&mut stream, &Frame::ClientHello { version: PROTOCOL_VERSION }).unwrap();
    assert!(matches!(proto::read_frame(&mut stream).unwrap(), Frame::ServerHello { .. }));
    stream
}

fn expect_protocol_error(stream: &mut TcpStream) {
    match proto::read_frame(stream).unwrap() {
        Frame::Error { kind, .. } => assert_eq!(kind, WireErrorKind::Protocol),
        other => panic!("expected an Error frame, got {other:?}"),
    }
}

#[test]
fn fragment_memory_is_bounded_by_body_and_batch_weight_caps() {
    // a 2-qubit worker on a 1-qubit backend: every key of a 2-qubit body
    // fails pre-flight from the body's registers, so a batch at the weight
    // cap is answered without building a circuit
    let server = QrccServer::bind("127.0.0.1:0", ExactBackend::capped(1)).unwrap().spawn();
    let cx = Operation::gate(Gate::Cx, &[QubitId::new(0), QubitId::new(1)]).unwrap();
    let heaviest = |name: &str| {
        let skeleton = vec![SkeletonOp::Fixed(cx.clone()); MAX_FRAGMENT_WEIGHT - 1];
        FragmentBody::new(name.into(), 2, 0, 0, 1, skeleton).unwrap()
    };
    assert_eq!(heaviest("w").weight(), MAX_FRAGMENT_WEIGHT);

    // a body one unit over the cap is refused as it is read
    let mut stream = raw_session(&server);
    let define = Frame::DefineFragment { id: 0, body: heaviest("wx") };
    proto::write_frame(&mut stream, &define).unwrap();
    expect_protocol_error(&mut stream);

    // a full table of the heaviest bodies, then keys up to the batch cap
    let mut stream = raw_session(&server);
    for id in 0..MAX_FRAGMENTS {
        proto::write_frame(&mut stream, &Frame::DefineFragment { id, body: heaviest("w") })
            .unwrap();
    }
    let at_cap = MAX_BATCH_WEIGHT / MAX_FRAGMENT_WEIGHT;
    let keys: Vec<VariantKey> =
        (0..at_cap).map(|i| VariantKey::new(i % MAX_FRAGMENTS as usize, 0, 0)).collect();
    let submit = Frame::SubmitVariants { batch: 1, keys: keys.clone(), shots: None, trace: None };
    proto::write_frame(&mut stream, &submit).unwrap();
    for index in 0..at_cap as u32 {
        match proto::read_frame(&mut stream).unwrap() {
            Frame::CircuitFailed { batch: 1, index: i, kind, reason } => {
                assert_eq!((i, kind), (index, WireErrorKind::Backend));
                assert!(reason.contains("pre-flight"), "{reason}");
            }
            other => panic!("expected failure {index}, got {other:?}"),
        }
    }
    assert!(matches!(
        proto::read_frame(&mut stream).unwrap(),
        Frame::BatchDone { batch: 1, executed: 0, .. }
    ));
    // one key more and the batch is refused before anything is built
    let mut over = keys;
    over.push(VariantKey::new(0, 0, 0));
    let submit = Frame::SubmitVariants { batch: 2, keys: over, shots: None, trace: None };
    proto::write_frame(&mut stream, &submit).unwrap();
    expect_protocol_error(&mut stream);

    let stats = server.stats();
    assert_eq!((stats.protocol_errors, stats.batches), (2, 1));
    assert_eq!(stats.circuits_failed, at_cap as u64);
    server.shutdown();
}
