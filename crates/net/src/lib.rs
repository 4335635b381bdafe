//! Remote execution transport for QRCC: run the six-phase pipeline against
//! a fleet of **actual remote workers** instead of in-process backends.
//!
//! The crate has three parts, layered strictly:
//!
//! * [`proto`] — a versioned, length-prefixed binary wire protocol
//!   (version 4): handshake with capability exchange (max qubits, default
//!   shots, label), batch submission with per-entry shot counts, one result
//!   frame per entry, heartbeats, and typed error frames. Fragment variants
//!   travel as keys: a connection defines each
//!   [`FragmentBody`](qrcc_core::fragment::FragmentBody) once, then submits
//!   `(fragment id, ordinal, outputs)` keys the worker instantiates itself.
//!   Bare circuits travel as OpenQASM text
//!   ([`qrcc_circuit::qasm::to_qasm`] / [`qrcc_circuit::qasm::from_qasm`]).
//!   A batch's replies leave the worker in one write.
//! * [`server`] — [`QrccServer`], a `std::net::TcpListener` worker wrapping
//!   **any** local [`ExecutionBackend`](qrcc_core::execute::ExecutionBackend)
//!   (thread-per-connection with a bounded per-connection fragment table,
//!   graceful shutdown, live statistics). Bind port 0 for collision-free
//!   ephemeral ports in tests and fleets.
//! * [`client`] — [`RemoteBackend`], an
//!   [`ExecutionBackend`](qrcc_core::execute::ExecutionBackend) over a
//!   reconnecting connection pool whose connections remember the fragments
//!   their worker holds. It drops straight into a
//!   [`DeviceRegistry`](qrcc_core::schedule::DeviceRegistry), where the
//!   dispatch layer's retry-with-exclusion and bounded in-flight windows
//!   rescue real network faults **unchanged**: I/O errors, disconnects and
//!   timeouts surface as
//!   [`CoreError::BackendUnavailable`](qrcc_core::CoreError::BackendUnavailable)
//!   (transient — retry elsewhere), protocol violations as
//!   [`CoreError::Transport`](qrcc_core::CoreError::Transport).
//! * [`monitor`] — [`FleetMonitor`], a client-side health poller: fetch
//!   every worker's live scrape (`GetMetrics` / `GetHealth`, protocol v3+)
//!   on a [`MonitorPolicy`](qrcc_core::obs::MonitorPolicy) cadence, merge
//!   the windowed views into one fleet snapshot, and score the configured
//!   SLO per worker and fleet-wide.
//!
//! The `testing` feature adds `testing::FaultyProxy`, a TCP forwarder
//! that drops, stalls or garbles the byte stream mid-batch — the wire-level
//! counterpart of `qrcc_core::dispatch::testing`'s backend doubles.
//!
//! # Example: a loopback fleet
//!
//! ```rust
//! use qrcc_circuit::Circuit;
//! use qrcc_core::execute::{ExactBackend, ExecutionBackend};
//! use qrcc_net::{QrccServer, RemoteBackend};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = QrccServer::bind("127.0.0.1:0", ExactBackend::capped(3))?.spawn();
//! let remote = RemoteBackend::connect(server.addr())?;
//! assert_eq!(remote.max_qubits(), Some(3));
//!
//! let mut bell = Circuit::new(2);
//! bell.h(0).cx(0, 1).measure_all();
//! let distribution = remote.run_one(&bell)?;
//! assert!((distribution[0b00] - 0.5).abs() < 1e-12);
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analyze;
pub mod client;
pub mod monitor;
pub mod proto;
pub mod server;
#[cfg(any(test, feature = "testing"))]
pub mod testing;

pub use analyze::lint_capabilities;
pub use client::{RemoteBackend, DEFAULT_IO_TIMEOUT};
pub use monitor::{FleetMonitor, FleetView, WorkerView};
pub use proto::{
    BatchTelemetry, Capabilities, HealthReport, HealthState, MetricsReport, ProtoError,
    TraceContext, MAX_BATCH_WEIGHT, MAX_FRAGMENTS, MAX_FRAGMENT_WEIGHT, PROTOCOL_VERSION,
};
pub use server::{ConnectionStats, QrccServer, ServerHandle, ServerStats};
