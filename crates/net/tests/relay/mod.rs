//! A frame-counting relay between a `RemoteBackend` and a loopback
//! `QrccServer`, and the workloads the over-cap tests send through it.

use qrcc_circuit::Circuit;
use qrcc_core::execute::{ExactBackend, ExecutionResults};
use qrcc_core::fragment::{FragmentSet, VariantKey, VariantRequest};
use qrcc_core::{DeviceRegistry, SchedulePolicy, Scheduler};
use qrcc_net::proto::{self, Frame};
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
pub fn through_relay(body: impl FnOnce(&DeviceRegistry)) -> (u64, u64, u64) {
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

pub fn bitwise(results: &ExecutionResults) -> Vec<(VariantKey, Vec<u64>)> {
    results.iter().map(|(&key, d)| (key, d.iter().map(|v| v.to_bits()).collect())).collect()
}

/// Every chunk `scheduler` delivers for `requests`, merged.
pub fn scheduled(
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
pub fn tailed_chain(qubits: usize, tail: usize) -> Circuit {
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
