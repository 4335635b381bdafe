//! End to end through a scheduler over loopback, the batches the key path
//! cannot carry — more than `MAX_FRAGMENTS` fragments in one job, or a
//! fragment body heavier than `MAX_FRAGMENT_WEIGHT` — travel as OpenQASM
//! `SubmitBatch` frames, a job whose keys instantiate more than
//! `MAX_BATCH_WEIGHT` travels as consecutive keyed submissions, and each
//! answers exactly what the in-process backend answers. A frame-counting
//! relay between client and server shows which path each submission took.

use qrcc_circuit::Circuit;
use qrcc_core::execute::{ExactBackend, ExecutionResults};
use qrcc_core::fragment::{FragmentSet, VariantKey, VariantRequest};
use qrcc_core::pipeline::QrccPipeline;
use qrcc_core::planner::CutPlanner;
use qrcc_core::{DeviceRegistry, QrccConfig, SchedulePolicy, Scheduler};
use qrcc_net::proto::{self, Frame, MAX_BATCH_WEIGHT, MAX_FRAGMENTS, MAX_FRAGMENT_WEIGHT};
use qrcc_net::{QrccServer, RemoteBackend};
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Submissions a relay forwarded, by kind.
#[derive(Default)]
struct Submissions {
    qasm: AtomicU64,
    keys: AtomicU64,
    defines: AtomicU64,
}

impl Submissions {
    fn counts(&self) -> (u64, u64, u64) {
        let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
        (load(&self.qasm), load(&self.keys), load(&self.defines))
    }
}

/// Relays one client connection accepted on `listener` to `upstream`: the
/// client's frames one at a time, counted, and the server's bytes verbatim.
/// Returns once the client hangs up.
fn relay(listener: TcpListener, upstream: std::net::SocketAddr, seen: &Submissions) {
    let (mut client, _) = listener.accept().expect("the backend dials the relay");
    let mut server = TcpStream::connect(upstream).expect("the server listens");
    let (mut client_out, mut server_in) =
        (client.try_clone().unwrap(), server.try_clone().unwrap());
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let _ = std::io::copy(&mut server_in, &mut client_out);
            let _ = client_out.shutdown(Shutdown::Write);
        });
        while let Ok(frame) = proto::read_frame(&mut client) {
            let counter = match &frame {
                Frame::SubmitBatch { .. } => Some(&seen.qasm),
                Frame::SubmitVariants { .. } => Some(&seen.keys),
                Frame::DefineFragment { .. } => Some(&seen.defines),
                _ => None,
            };
            if let Some(counter) = counter {
                counter.fetch_add(1, Ordering::Relaxed);
            }
            if proto::write_frame(&mut server, &frame).and_then(|()| server.flush()).is_err() {
                break;
            }
        }
        let _ = server.shutdown(Shutdown::Both);
    });
}

/// Runs `body` with a registry whose one backend reaches an exact loopback
/// server through a counting relay; returns what the relay saw.
fn through_relay(body: impl FnOnce(&DeviceRegistry)) -> (u64, u64, u64) {
    let server = QrccServer::bind("127.0.0.1:0", ExactBackend::new()).unwrap().spawn();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let relay_addr = listener.local_addr().unwrap();
    let seen = Submissions::default();
    std::thread::scope(|scope| {
        scope.spawn(|| relay(listener, server.addr(), &seen));
        let remote = RemoteBackend::connect_with_timeout(relay_addr, Duration::from_secs(30))
            .expect("handshake through the relay");
        let mut registry = DeviceRegistry::new();
        registry.register("remote", remote);
        body(&registry);
        // dropping the backend hangs up, which ends the relay
    });
    server.shutdown();
    seen.counts()
}

fn bitwise(results: &ExecutionResults) -> Vec<(VariantKey, Vec<u64>)> {
    results.iter().map(|(&key, d)| (key, d.iter().map(|v| v.to_bits()).collect())).collect()
}

/// Every chunk `scheduler` delivers for `requests`, merged.
fn scheduled(
    registry: &DeviceRegistry,
    set: &FragmentSet,
    requests: &[VariantRequest],
) -> ExecutionResults {
    let scheduler = Scheduler::new(registry, SchedulePolicy::default());
    let mut merged = ExecutionResults::default();
    scheduler
        .execute_chunked(set, requests, |chunk| {
            merged.extend(chunk);
            Ok(())
        })
        .unwrap();
    merged
}

/// A CNOT chain over `qubits` wires with a tail of `tail` small rotations
/// on the last one: cut on a small device, the fragment holding the tail
/// weighs about `tail`.
fn tailed_chain(qubits: usize, tail: usize) -> Circuit {
    let mut circuit = Circuit::new(qubits);
    circuit.h(0).cx(0, 1).ry(0.4, 1);
    for qubit in 2..qubits {
        circuit.cx(qubit - 1, qubit);
    }
    for i in 0..tail {
        circuit.rz(1e-4 * (i % 13) as f64, qubits - 1);
    }
    circuit
}

/// Every variant of every fragment of `set`, each under every packing of
/// output bases (Z, X or Y per output).
fn every_variant(set: &FragmentSet) -> Vec<VariantRequest> {
    let mut requests = Vec::new();
    for (index, fragment) in set.fragments.iter().enumerate() {
        let outputs = fragment.body().num_outputs() as u32;
        for ordinal in 0..fragment.variant_count() {
            for bases in 0..3u64.pow(outputs) {
                let packed = (0..outputs)
                    .fold(0u64, |packed, slot| packed | (bases / 3u64.pow(slot) % 3) << (2 * slot));
                requests.push(VariantRequest { key: VariantKey::new(index, ordinal, packed) });
            }
        }
    }
    requests
}

#[test]
fn a_job_over_more_fragments_than_a_table_holds_goes_as_qasm() {
    // 40 small plans' fragments under one set: one job names them all
    let mut union: Option<FragmentSet> = None;
    for i in 0..40 {
        let mut circuit = Circuit::new(4);
        circuit.ry(0.1 + 0.05 * i as f64, 0).h(1).cx(0, 1).cx(1, 2).ry(0.3, 2).cx(2, 3);
        let config =
            QrccConfig::new(3).with_subcircuit_range(2, 3).with_ilp_time_limit(Duration::ZERO);
        let plan = CutPlanner::new(config).plan(&circuit).unwrap();
        let set = FragmentSet::from_plan(&plan).unwrap();
        match &mut union {
            None => union = Some(set),
            Some(union) => union.fragments.extend(set.fragments),
        }
    }
    let union = union.unwrap();
    assert!(union.fragments.len() > MAX_FRAGMENTS as usize, "{}", union.fragments.len());
    let requests: Vec<VariantRequest> = union
        .fragments
        .iter()
        .enumerate()
        .flat_map(|(index, fragment)| {
            (0..fragment.variant_count().min(2))
                .map(move |ordinal| VariantRequest { key: VariantKey::new(index, ordinal, 0) })
        })
        .collect();

    let mut local = DeviceRegistry::new();
    local.register("exact", ExactBackend::new());
    let expected = scheduled(&local, &union, &requests);
    let mut remote = None;
    let (qasm, keys, defines) = through_relay(|registry| {
        remote = Some(scheduled(registry, &union, &requests));
    });
    assert_eq!((qasm, keys, defines), (1, 0, 0), "the one job went as OpenQASM");
    assert_eq!(bitwise(&remote.unwrap()), bitwise(&expected));
}

#[test]
fn a_fragment_heavier_than_the_body_cap_goes_as_qasm_and_reconstructs_exactly() {
    // a chain cut once on a 3-qubit device, with a long rotation tail on the
    // last wire: the fragment holding it outweighs one table slot
    let circuit = tailed_chain(4, MAX_FRAGMENT_WEIGHT);
    let config = QrccConfig::new(3).with_subcircuit_range(2, 2).with_ilp_time_limit(Duration::ZERO);
    let pipeline = QrccPipeline::plan(&circuit, config).unwrap();
    let heaviest = pipeline.fragments().fragments.iter().map(|f| f.body().weight()).max();
    assert!(heaviest > Some(MAX_FRAGMENT_WEIGHT), "{heaviest:?}");

    let mut local = DeviceRegistry::new();
    local.register("exact", ExactBackend::new());
    let scheduler = Scheduler::new(&local, SchedulePolicy::default());
    let (expected, _, _) = pipeline.execute_streaming(&scheduler).unwrap();
    let mut remote = None;
    let (qasm, keys, _) = through_relay(|registry| {
        let scheduler = Scheduler::new(registry, SchedulePolicy::default());
        remote = Some(pipeline.execute_streaming(&scheduler).unwrap().0);
    });
    assert_eq!((qasm, keys), (1, 0), "the one job went as OpenQASM");
    let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&remote.unwrap()), bits(&expected));
}

#[test]
fn a_job_heavier_than_the_batch_cap_goes_as_consecutive_keyed_submissions() {
    // the same chain, wider: the fragment holding the tail measures five
    // outputs, so its variants under every output basis together outweigh
    // the batch cap while each body stays far under the body cap
    let circuit = tailed_chain(11, 9_000);
    let config = QrccConfig::new(5).with_subcircuit_range(2, 2).with_ilp_time_limit(Duration::ZERO);
    let plan = CutPlanner::new(config).plan(&circuit).unwrap();
    let set = FragmentSet::from_plan(&plan).unwrap();
    let requests = every_variant(&set);
    let weight: usize =
        requests.iter().map(|request| set.fragments[request.key.fragment].body().weight()).sum();
    assert!(weight > MAX_BATCH_WEIGHT, "{weight}");
    assert!(set.fragments.iter().all(|f| f.body().weight() <= MAX_FRAGMENT_WEIGHT));

    let mut local = DeviceRegistry::new();
    local.register("exact", ExactBackend::new());
    let expected = scheduled(&local, &set, &requests);
    let mut remote = None;
    let (qasm, keys, defines) = through_relay(|registry| {
        remote = Some(scheduled(registry, &set, &requests));
    });
    assert_eq!((qasm, keys, defines), (0, 2, 2), "two keyed submissions, each body defined once");
    assert_eq!(bitwise(&remote.unwrap()), bitwise(&expected));
}
