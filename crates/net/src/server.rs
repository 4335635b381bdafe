//! `QrccServer`: a TCP worker that serves any local
//! [`ExecutionBackend`] to remote
//! [`RemoteBackend`](crate::RemoteBackend) clients.
//!
//! The server is deliberately boring infrastructure: a
//! [`std::net::TcpListener`] accept loop on its own thread, one serving
//! thread per connection (the protocol is request/response per connection,
//! so thread-per-connection is the simplest correct concurrency model and
//! the backend itself parallelises batches internally), graceful shutdown,
//! and aggregate statistics. Work arrives in one of two forms: fragment
//! variants as keys ([`Frame::SubmitVariants`]) into the connection's
//! fragment table (at most [`proto::MAX_FRAGMENTS`] bodies of at most
//! [`proto::MAX_FRAGMENT_WEIGHT`] each, filled by
//! [`Frame::DefineFragment`]; a batch instantiates at most
//! [`proto::MAX_BATCH_WEIGHT`]), or circuits as OpenQASM text
//! ([`Frame::SubmitBatch`]), each parsed with
//! [`qrcc_circuit::qasm::from_qasm`] into the one variant of its own body.
//! Either way the backend is handed keys over bodies, as one
//! [`ExecutionBackend::run`] call that builds each variant where it runs
//! it, and only if the worker's result cache does not answer it. An entry
//! whose key fits no body, that fails to parse or execute fails
//! **individually** (a [`Frame::CircuitFailed`] reply of its error's class)
//! while the rest of its batch still runs — mirroring how the in-process
//! batch API reports per-circuit errors — and the whole reply leaves in one
//! write.

use crate::proto::{
    self, BatchTelemetry, Capabilities, Frame, HealthReport, HealthState, MetricsReport,
    ProtoError, TraceContext, WireErrorKind, MAX_BATCH_WEIGHT, PROTOCOL_VERSION,
};
use parking_lot::Mutex;
use qrcc_circuit::qasm;
use qrcc_core::analyze;
use qrcc_core::cache::{self, CacheStats, CachedBody, ResultCache, ResultCachePolicy};
use qrcc_core::execute::{CircuitShape, ExecutionBackend, VariantBatch};
use qrcc_core::fragment::{FragmentBody, VariantKey};
use qrcc_core::CoreError;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often blocked connection reads wake up to check the shutdown flag.
const SHUTDOWN_POLL: Duration = Duration::from_millis(100);

/// Cap on individual blocking writes to a client. A client that stops
/// reading (its socket buffer fills) errors the connection out instead of
/// wedging the connection thread — and with it [`ServerHandle::shutdown`] —
/// forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Default **cumulative** cap on all reply writes of one batch (tunable via
/// [`QrccServer::with_batch_write_budget`]). The per-syscall
/// [`WRITE_TIMEOUT`] alone cannot bound an adversarial *trickle-reading*
/// client: one that drains a few bytes just often enough keeps every write
/// syscall under the timeout while stretching the batch reply out
/// indefinitely, pinning the connection thread. The budget bounds the whole
/// reply; generous enough that a healthy client never notices.
const BATCH_WRITE_BUDGET: Duration = Duration::from_secs(120);

/// How long a connection may sit before its `ClientHello` arrives. Port
/// scanners and health probes that hold the socket without speaking are
/// dropped after this, so they cannot pin connection threads.
const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(10);

/// How long an established connection may idle between frames before the
/// server reaps it. Long enough to comfortably outlive dispatch gaps
/// between batches; a half-open peer (died without RST) therefore leaks its
/// thread only this long. Clients peek every pooled connection on checkout,
/// ping one that idled for over a second, and transparently redial ones the
/// server reaped.
const IDLE_DEADLINE: Duration = Duration::from_secs(900);

/// Once a frame has started arriving, the longest the stream may stall
/// without delivering another byte of it.
const FRAME_STALL: Duration = Duration::from_secs(30);

/// Aggregate queue depth (batches in flight) at which [`Frame::GetHealth`]
/// reports [`HealthState::Overloaded`]. Each in-flight batch pins one
/// connection thread, so this bounds "healthy but saturated" well before
/// thread exhaustion.
const OVERLOAD_THRESHOLD: u64 = 64;

/// The live-metrics window served on [`Frame::GetMetrics`]: quantiles and
/// rates cover the last 10 s, rotating in 1 s buckets.
const METRICS_WINDOW: Duration = Duration::from_secs(10);
const METRICS_WINDOW_BUCKETS: usize = 10;

/// Aggregate counters of one server. Result-cache events are counted once,
/// by the cache itself: see [`ServerHandle::cache_stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted since the server started.
    pub connections: u64,
    /// Batches served to completion (their `BatchDone` frame was sent).
    /// A batch is counted here, and in the circuit counters below, just
    /// before its reply is written, so a client that saw `BatchDone` reads
    /// it; it is taken back out if that write fails — the only time these
    /// counters step down.
    pub batches: u64,
    /// Circuits that executed successfully.
    pub circuits_ok: u64,
    /// Circuits that failed (a key or document that yields no circuit, a
    /// pre-flight rejection, or a backend error).
    pub circuits_failed: u64,
    /// Connections dropped over protocol violations (bad handshake,
    /// malformed or unexpected frames).
    pub protocol_errors: u64,
    /// End-to-end batch service latency (microseconds, from building the
    /// circuits to the encoded reply) as a mergeable log-bucketed
    /// histogram — ask it for `p50()`/`p99()`/`p999()` instead of a single
    /// mean field. Recorded once the reply is written, so it samples the
    /// same batches `batches` counts; tracing only affects the per-batch
    /// span subtrees.
    pub batch_latency_us: qrcc_core::Histogram,
    /// Batches currently executing or queued across all connections (each
    /// in-flight batch occupies one connection thread).
    pub queue_depth: u64,
    /// The deepest the aggregate queue has ever been.
    pub queue_high_water: u64,
    /// Connections currently open (as opposed to `connections`, which
    /// counts accepts since boot).
    pub open_connections: u64,
}

impl ServerStats {
    /// Folds these counters into a
    /// [`MetricsSnapshot`](qrcc_core::obs::MetricsSnapshot) under the `server.`
    /// namespace — the obs adapter that lets a server show up as a section
    /// of a [`QrccReport`](qrcc_core::obs::QrccReport) next to dispatch,
    /// cache and reconstruction telemetry.
    pub fn metrics(&self) -> qrcc_core::obs::MetricsSnapshot {
        qrcc_core::obs::MetricsSnapshot::default()
            .with_counter("server.connections", self.connections)
            .with_counter("server.batches", self.batches)
            .with_counter("server.circuits_ok", self.circuits_ok)
            .with_counter("server.circuits_failed", self.circuits_failed)
            .with_counter("server.protocol_errors", self.protocol_errors)
            .with_gauge("server.queue_depth", self.queue_depth as f64)
            .with_gauge("server.queue_high_water", self.queue_high_water as f64)
            .with_gauge("server.open_connections", self.open_connections as f64)
            .with_histogram("server.batch_latency_us", self.batch_latency_us.clone())
    }
}

/// The live last-N-seconds view behind [`Frame::GetMetrics`]: windowed
/// batch latency plus request/failure rate counters, all rotated on the
/// same grid.
#[derive(Debug)]
struct WindowState {
    latency: qrcc_core::obs::WindowedHistogram,
    requests: qrcc_core::obs::RateCounter,
    failures: qrcc_core::obs::RateCounter,
}

impl WindowState {
    fn new() -> Self {
        WindowState {
            latency: qrcc_core::obs::WindowedHistogram::new(METRICS_WINDOW, METRICS_WINDOW_BUCKETS),
            requests: qrcc_core::obs::RateCounter::new(METRICS_WINDOW, METRICS_WINDOW_BUCKETS),
            failures: qrcc_core::obs::RateCounter::new(METRICS_WINDOW, METRICS_WINDOW_BUCKETS),
        }
    }
}

#[derive(Debug)]
struct StatsInner {
    connections: AtomicU64,
    open_connections: AtomicU64,
    batches: AtomicU64,
    circuits_ok: AtomicU64,
    circuits_failed: AtomicU64,
    protocol_errors: AtomicU64,
    queue_depth: AtomicU64,
    queue_high_water: AtomicU64,
    /// Set by [`ServerHandle::begin_drain`] (and by shutdown, which drains
    /// first): [`Frame::GetHealth`] reports [`HealthState::Draining`] while
    /// existing batches finish.
    draining: AtomicBool,
    batch_latency: Mutex<qrcc_core::Histogram>,
    window: Mutex<WindowState>,
}

impl StatsInner {
    fn new() -> Self {
        StatsInner {
            connections: AtomicU64::new(0),
            open_connections: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            circuits_ok: AtomicU64::new(0),
            circuits_failed: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            queue_high_water: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            batch_latency: Mutex::new(qrcc_core::Histogram::new()),
            window: Mutex::new(WindowState::new()),
        }
    }

    fn snapshot(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            circuits_ok: self.circuits_ok.load(Ordering::Relaxed),
            circuits_failed: self.circuits_failed.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            batch_latency_us: self.batch_latency.lock().clone(),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_high_water: self.queue_high_water.load(Ordering::Relaxed),
            open_connections: self.open_connections.load(Ordering::Relaxed),
        }
    }

    /// Counts (or, with `add` false, takes back) one batch and its
    /// circuits; see [`ServerStats::batches`] for why a batch may be taken
    /// back.
    fn fold(&self, circuits_ok: u64, circuits_failed: u64, add: bool) {
        let apply = |counter: &AtomicU64, value: u64| {
            if add {
                counter.fetch_add(value, Ordering::Relaxed);
            } else {
                counter.fetch_sub(value, Ordering::Relaxed);
            }
        };
        apply(&self.batches, 1);
        apply(&self.circuits_ok, circuits_ok);
        apply(&self.circuits_failed, circuits_failed);
    }

    /// Readiness verdict from the live flags: draining wins over overload,
    /// overload wins over accepting.
    fn health(&self) -> HealthReport {
        let queue_depth = self.queue_depth.load(Ordering::Relaxed);
        let state = if self.draining.load(Ordering::Relaxed) {
            HealthState::Draining
        } else if queue_depth >= OVERLOAD_THRESHOLD {
            HealthState::Overloaded
        } else {
            HealthState::Accepting
        };
        HealthReport {
            state,
            queue_depth,
            queue_high_water: self.queue_high_water.load(Ordering::Relaxed),
            connections: self.open_connections.load(Ordering::Relaxed),
        }
    }
}

/// What the listener thread, every connection thread and the
/// [`ServerHandle`] share: the backend, the result cache, the counters, the
/// shutdown flag, the reply write budget and the live connection threads.
struct WorkerState {
    backend: Box<dyn ExecutionBackend + Send + Sync>,
    cache: Option<Arc<ResultCache>>,
    stats: StatsInner,
    shutdown: AtomicBool,
    write_budget: Duration,
    /// Connection threads that may still run, joined at shutdown.
    connections: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerState {
    /// The scrape payload for [`Frame::GetMetrics`]: full-registry
    /// Prometheus text plus the structured windowed snapshot. The
    /// `server.cache_*` counters are the attached cache's own (0 without
    /// one).
    fn metrics_report(&self) -> MetricsReport {
        let (latency, req_rate, fail_rate) = {
            let window = self.stats.window.lock();
            (window.latency.snapshot(), window.requests.rate(), window.failures.rate())
        };
        let cache = self.cache.as_ref().map(|cache| cache.stats()).unwrap_or_default();
        let metrics = self
            .stats
            .snapshot()
            .metrics()
            .with_counter("server.cache_hits", cache.hits)
            .with_counter("server.cache_delta_hits", cache.delta_hits)
            .with_counter("server.cache_misses", cache.misses)
            .with_counter("server.cache_shots_saved", cache.shots_saved);
        MetricsReport {
            prometheus: metrics.prometheus(),
            windowed: vec![("server.window_batch_latency_us".into(), latency)],
            counters: metrics.counters.clone(),
            gauges: metrics
                .gauges
                .iter()
                .cloned()
                .chain([
                    ("server.window_req_rate".to_owned(), req_rate),
                    ("server.window_error_rate".to_owned(), fail_rate),
                ])
                .collect(),
        }
    }
}

/// A bound-but-not-yet-serving QRCC worker.
///
/// Binding and serving are separate so tests and fleets can bind port 0
/// (ephemeral), read the assigned address, hand it to clients, and only
/// then start serving:
///
/// ```rust,no_run
/// use qrcc_core::execute::ExactBackend;
/// use qrcc_net::QrccServer;
///
/// let server = QrccServer::bind("127.0.0.1:0", ExactBackend::capped(3)).unwrap();
/// let addr = server.local_addr().unwrap();
/// let handle = server.spawn();
/// // ... connect RemoteBackends to `addr` ...
/// handle.shutdown();
/// ```
pub struct QrccServer {
    listener: TcpListener,
    backend: Box<dyn ExecutionBackend + Send + Sync>,
    write_budget: Duration,
    cache: Option<Arc<ResultCache>>,
}

impl QrccServer {
    /// Binds a listener (use port 0 for an ephemeral port) serving
    /// `backend`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding.
    pub fn bind(
        addr: impl ToSocketAddrs,
        backend: impl ExecutionBackend + Send + 'static,
    ) -> io::Result<Self> {
        Ok(QrccServer {
            listener: TcpListener::bind(addr)?,
            backend: Box::new(backend),
            write_budget: BATCH_WRITE_BUDGET,
            cache: None,
        })
    }

    /// Attaches a result cache built from `policy`. Every batch is served
    /// through it ([`cache::serve`]): full hits answer without executing,
    /// misses and delta hits' missing shots run as one backend call, and
    /// every fresh execution is written back. With a persisted policy the
    /// snapshot is loaded here and written back at shutdown, so a restarted
    /// worker keeps serving its previous results.
    #[must_use]
    pub fn with_result_cache(mut self, policy: &ResultCachePolicy) -> Self {
        self.cache = Some(Arc::new(ResultCache::open(policy)));
        self
    }

    /// Sets the cumulative deadline for all reply writes of one batch
    /// (default 120 s). A connection whose client drains replies slower than
    /// this — including a trickle-reader that keeps every individual write
    /// under the per-syscall timeout — is dropped when the budget runs out.
    #[must_use]
    pub fn with_batch_write_budget(mut self, budget: Duration) -> Self {
        self.write_budget = budget;
        self
    }

    /// The bound address — with port 0, the ephemeral port the OS assigned.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts the accept loop on a background thread and returns the handle
    /// controlling the server's lifetime.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.listener.local_addr().expect("bound listener has an address");
        let state = Arc::new(WorkerState {
            backend: self.backend,
            cache: self.cache,
            stats: StatsInner::new(),
            shutdown: AtomicBool::new(false),
            write_budget: self.write_budget,
            connections: Mutex::new(Vec::new()),
        });
        let accept = {
            let state = Arc::clone(&state);
            let listener = self.listener;
            std::thread::spawn(move || accept_loop(&listener, &state))
        };
        ServerHandle { addr, state, accept: Some(accept) }
    }
}

/// A running server: address, live statistics, graceful shutdown.
///
/// Dropping the handle shuts the server down (all connection threads are
/// joined), so a test or example cannot leak a worker past its scope.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<WorkerState>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A live snapshot of the aggregate statistics.
    pub fn stats(&self) -> ServerStats {
        self.state.stats.snapshot()
    }

    /// Marks the server as draining: [`Frame::GetHealth`] replies
    /// [`HealthState::Draining`] from now on, telling monitors and routers
    /// to send new work elsewhere while existing batches finish.
    /// [`ServerHandle::shutdown`] calls this first, so a health-polling
    /// client observes the drain before the sockets go away.
    pub fn begin_drain(&self) {
        self.state.stats.draining.store(true, Ordering::Relaxed);
    }

    /// The server's current readiness verdict, exactly as
    /// [`Frame::GetHealth`] would report it over the wire.
    pub fn health(&self) -> HealthReport {
        self.state.stats.health()
    }

    /// The server's result cache, if one was attached.
    pub fn result_cache(&self) -> Option<&Arc<ResultCache>> {
        self.state.cache.as_ref()
    }

    /// Counters of the attached result cache, or `None` without one: the
    /// server's one count of its cache hits, delta hits, misses and saved
    /// shots.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.state.cache.as_ref().map(|cache| cache.stats())
    }

    /// Stops accepting, asks every connection thread to wind down, joins
    /// them, and returns the final statistics. In-flight batches finish
    /// their current backend call; their results may be lost to the
    /// disconnect, which clients see as
    /// [`CoreError::BackendUnavailable`] and the dispatcher re-routes.
    pub fn shutdown(mut self) -> ServerStats {
        self.shutdown_impl();
        self.stats()
    }

    fn shutdown_impl(&mut self) {
        let Some(accept) = self.accept.take() else {
            return; // already shut down
        };
        self.begin_drain();
        self.state.shutdown.store(true, Ordering::Relaxed);
        // wake the blocking accept with a throwaway connection; an
        // unspecified bind address (0.0.0.0 / ::) is not connectable
        // everywhere, so aim at the same-family loopback instead
        let ip = match self.addr.ip() {
            std::net::IpAddr::V4(ip) if ip.is_unspecified() => {
                std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST)
            }
            std::net::IpAddr::V6(ip) if ip.is_unspecified() => {
                std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST)
            }
            ip => ip,
        };
        let _ = TcpStream::connect((ip, self.addr.port()));
        let _ = accept.join();
        let connections = std::mem::take(&mut *self.state.connections.lock());
        for connection in connections {
            let _ = connection.join();
        }
        // all connections are down: snapshot the cache so a restarted worker
        // resumes with everything this one learned
        if let Some(cache) = &self.state.cache {
            let _ = cache.persist();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("stats", &self.stats())
            .finish()
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<WorkerState>) {
    for stream in listener.incoming() {
        if state.shutdown.load(Ordering::Relaxed) {
            break;
        }
        let Ok(stream) = stream else {
            // fd exhaustion and friends error every accept: back off instead
            // of pinning a core until the condition clears
            std::thread::sleep(Duration::from_millis(20));
            continue;
        };
        state.stats.connections.fetch_add(1, Ordering::Relaxed);
        let handle = {
            let state = Arc::clone(state);
            std::thread::spawn(move || {
                state.stats.open_connections.fetch_add(1, Ordering::Relaxed);
                serve_connection(stream, &state);
                state.stats.open_connections.fetch_sub(1, Ordering::Relaxed);
            })
        };
        // forget finished connection threads, so the handle list stays
        // proportional to *live* connections, not total accepts
        let mut connections = state.connections.lock();
        connections.retain(|connection| !connection.is_finished());
        connections.push(handle);
    }
}

/// What one blocking-with-shutdown-polling frame read produced.
enum ConnRead {
    Frame(Frame),
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The server is shutting down.
    ShuttingDown,
    /// The peer violated the protocol or the stream died mid-frame.
    Failed(ProtoError),
}

/// Reads one frame, polling the shutdown flag while no frame has started.
/// Once the first length byte arrives the read commits (interrupting
/// mid-frame would desynchronise the stream), checking the flag only
/// between read syscalls. A peer that sends nothing for `idle_deadline`,
/// or stalls [`FRAME_STALL`] mid-frame, is dropped — a half-open socket
/// (peer died without RST) can therefore pin the thread only for a bounded
/// time.
fn read_frame_polling(
    stream: &mut TcpStream,
    shutdown: &AtomicBool,
    idle_deadline: Duration,
) -> ConnRead {
    let mut last_progress = std::time::Instant::now();
    let mut len_buf = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        if shutdown.load(Ordering::Relaxed) {
            return ConnRead::ShuttingDown;
        }
        let deadline = if got == 0 { idle_deadline } else { FRAME_STALL };
        if last_progress.elapsed() > deadline {
            return if got == 0 { ConnRead::Closed } else { ConnRead::Failed(stalled()) };
        }
        match stream.read(&mut len_buf[got..]) {
            Ok(0) => {
                return if got == 0 { ConnRead::Closed } else { ConnRead::Failed(eof()) };
            }
            Ok(n) => {
                got += n;
                last_progress = std::time::Instant::now();
            }
            Err(e) if retryable(&e) => continue,
            Err(e) => return ConnRead::Failed(ProtoError::Io(e)),
        }
    }
    let len = match proto::validate_len(u32::from_be_bytes(len_buf)) {
        Ok(len) => len,
        Err(e) => return ConnRead::Failed(e),
    };
    let mut payload = vec![0u8; len];
    let mut got = 0usize;
    while got < len {
        if shutdown.load(Ordering::Relaxed) {
            return ConnRead::ShuttingDown;
        }
        if last_progress.elapsed() > FRAME_STALL {
            return ConnRead::Failed(stalled());
        }
        match stream.read(&mut payload[got..]) {
            Ok(0) => return ConnRead::Failed(eof()),
            Ok(n) => {
                got += n;
                last_progress = std::time::Instant::now();
            }
            Err(e) if retryable(&e) => continue,
            Err(e) => return ConnRead::Failed(ProtoError::Io(e)),
        }
    }
    match proto::decode_frame(&payload) {
        Ok(frame) => ConnRead::Frame(frame),
        Err(e) => ConnRead::Failed(e),
    }
}

/// The shape of a 1-qubit qubit-reuse circuit (measure, reset, re-use):
/// asking the backend's [`ExecutionBackend::can_run`] about it probes
/// whether the worker supports mid-circuit measurement and reset, without
/// the trait needing a dedicated query.
const MID_CIRCUIT_PROBE: CircuitShape =
    CircuitShape { num_qubits: 1, num_clbits: 2, reuses_wires: true };

fn eof() -> ProtoError {
    ProtoError::Io(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed mid-frame"))
}

fn stalled() -> ProtoError {
    ProtoError::Io(io::Error::new(io::ErrorKind::TimedOut, "peer stalled mid-frame"))
}

fn retryable(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Serves one client connection: handshake, then batches and heartbeats
/// until the client disconnects, violates the protocol, or the server shuts
/// down.
fn serve_connection(mut stream: TcpStream, state: &WorkerState) {
    let (backend, stats) = (state.backend.as_ref(), &state.stats);
    let _ = stream.set_read_timeout(Some(SHUTDOWN_POLL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.set_nodelay(true);

    // Handshake: the very first frame must be a matching ClientHello.
    match read_frame_polling(&mut stream, &state.shutdown, HANDSHAKE_DEADLINE) {
        ConnRead::Frame(Frame::ClientHello { version }) if version == PROTOCOL_VERSION => {
            let capabilities = Capabilities {
                max_qubits: backend.max_qubits().map(|q| q as u64),
                shots_per_circuit: backend.shots_per_circuit(),
                supports_mid_circuit: backend.can_run(&MID_CIRCUIT_PROBE),
                label: backend.label(),
            };
            let hello = Frame::ServerHello { version: PROTOCOL_VERSION, capabilities };
            if proto::write_frame(&mut stream, &hello).is_err() {
                return;
            }
        }
        ConnRead::Frame(Frame::ClientHello { version }) => {
            stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            let _ = proto::write_frame(
                &mut stream,
                &Frame::Error {
                    kind: WireErrorKind::VersionMismatch,
                    message: format!(
                        "server speaks protocol version {PROTOCOL_VERSION}, client sent {version}"
                    ),
                },
            );
            return;
        }
        ConnRead::Frame(_) => {
            stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            let _ = proto::write_frame(
                &mut stream,
                &Frame::Error {
                    kind: WireErrorKind::Protocol,
                    message: "expected ClientHello as the first frame".into(),
                },
            );
            return;
        }
        ConnRead::Failed(error) => {
            // port scans and health probes just disconnect (an Io failure);
            // only undecodable bytes count as protocol violations
            if !matches!(error, ProtoError::Io(_)) {
                stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        ConnRead::Closed | ConnRead::ShuttingDown => return,
    }

    // this connection's fragment table, filled by DefineFragment and read
    // by SubmitVariants; ids are below MAX_FRAGMENTS and bodies weigh at
    // most MAX_FRAGMENT_WEIGHT (the decoder refuses others), so it never
    // holds more than MAX_BATCH_WEIGHT
    let mut fragments: Vec<Option<FragmentBody>> = Vec::new();
    loop {
        let (batch, submission, shots, trace) =
            match read_frame_polling(&mut stream, &state.shutdown, IDLE_DEADLINE) {
                ConnRead::Frame(Frame::DefineFragment { id, body }) => {
                    let id = id as usize;
                    if fragments.len() <= id {
                        fragments.resize(id + 1, None);
                    }
                    fragments[id] = Some(body);
                    continue;
                }
                ConnRead::Frame(Frame::SubmitVariants { batch, keys, shots, trace }) => {
                    (batch, Submission::Variants(keys), shots, trace)
                }
                ConnRead::Frame(Frame::SubmitBatch { batch, circuits, shots, trace }) => {
                    (batch, Submission::Qasm(circuits), shots, trace)
                }
                other => {
                    if serve_control(&mut stream, other, state) {
                        continue;
                    }
                    return;
                }
            };
        if let Some(refusal) = submission.refusal(shots.as_deref(), &fragments) {
            stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            let _ = proto::write_frame(
                &mut stream,
                &Frame::Error {
                    kind: WireErrorKind::Protocol,
                    message: format!("batch {batch} {refusal}"),
                },
            );
            return;
        }
        let served =
            serve_batch(&mut stream, state, batch, submission, &fragments, shots.as_deref(), trace);
        if served.is_err() {
            return; // client gone mid-reply
        }
    }
}

/// Answers one frame that is not a batch submission and says whether to
/// keep serving: heartbeats and scrapes get their reply; a client abort, a
/// protocol violation, a dead stream or shutdown end the connection.
fn serve_control(stream: &mut TcpStream, read: ConnRead, state: &WorkerState) -> bool {
    match read {
        ConnRead::Frame(Frame::Ping { nonce }) => {
            proto::write_frame(stream, &Frame::Pong { nonce }).is_ok()
        }
        ConnRead::Frame(Frame::GetMetrics) => {
            let reply = Frame::MetricsReply { report: state.metrics_report() };
            proto::write_frame(stream, &reply).is_ok()
        }
        ConnRead::Frame(Frame::GetHealth) => {
            let HealthReport { state, queue_depth, queue_high_water, connections } =
                state.stats.health();
            let reply = Frame::HealthReply { state, queue_depth, queue_high_water, connections };
            proto::write_frame(stream, &reply).is_ok()
        }
        ConnRead::Frame(Frame::Error { .. }) => false, // client aborted
        ConnRead::Frame(_) => {
            state.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            let _ = proto::write_frame(
                stream,
                &Frame::Error {
                    kind: WireErrorKind::Protocol,
                    message: "unexpected frame (wanted SubmitVariants, DefineFragment, \
                              SubmitBatch, Ping, GetMetrics or GetHealth)"
                        .into(),
                },
            );
            false
        }
        ConnRead::Failed(error) => {
            // disconnects mid-frame are ordinary client failures;
            // undecodable bytes are protocol errors worth counting
            if !matches!(error, ProtoError::Io(_)) {
                state.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let _ = proto::write_frame(
                    stream,
                    &Frame::Error { kind: WireErrorKind::Protocol, message: error.to_string() },
                );
            }
            false
        }
        ConnRead::Closed | ConnRead::ShuttingDown => {
            let _ = stream.shutdown(Shutdown::Both);
            false
        }
    }
}

/// The two forms a batch arrives in.
enum Submission {
    /// Fragment variants, keyed into the connection's fragment table.
    Variants(Vec<VariantKey>),
    /// Bare circuits as OpenQASM text.
    Qasm(Vec<String>),
}

impl Submission {
    fn len(&self) -> usize {
        match self {
            Submission::Variants(keys) => keys.len(),
            Submission::Qasm(circuits) => circuits.len(),
        }
    }

    /// Why the whole batch is refused before any circuit is built: a shot
    /// list whose length does not match, or keys whose bodies together
    /// outweigh [`MAX_BATCH_WEIGHT`] (keys naming no body weigh nothing
    /// here; they fail alone later).
    fn refusal(&self, shots: Option<&[u64]>, fragments: &[Option<FragmentBody>]) -> Option<String> {
        if let Some(shots) = shots.filter(|shots| shots.len() != self.len()) {
            return Some(format!(
                "carries {} circuits but {} shot counts",
                self.len(),
                shots.len()
            ));
        }
        if let Submission::Variants(keys) = self {
            let weight = keys
                .iter()
                .filter_map(|key| fragments.get(key.fragment)?.as_ref())
                .fold(0usize, |sum, body| sum.saturating_add(body.weight()));
            if weight > MAX_BATCH_WEIGHT {
                return Some(format!(
                    "would instantiate a weight of {weight}, over the {MAX_BATCH_WEIGHT} cap"
                ));
            }
        }
        None
    }

    /// Every entry checked, none instantiated, as the batch the backend
    /// runs: the bodies its entries use, each listed once, and per entry its
    /// key into that list or its error. A key naming no defined fragment or
    /// an out-of-range variant fails deterministically
    /// ([`CoreError::Transport`], the `Protocol` reply kind), and so does a
    /// document that does not parse into a body (`parsed[i]` is document
    /// `i`'s, [`FragmentBody::from_circuit`]); an entry whose shape
    /// `backend` cannot run fails its pre-flight.
    fn resolve<'f>(
        &self,
        table: &'f [Option<FragmentBody>],
        parsed: &'f [Result<FragmentBody, CoreError>],
        backend: &dyn ExecutionBackend,
    ) -> (Vec<&'f FragmentBody>, Vec<Result<VariantKey, CoreError>>) {
        let deterministic = |detail: String| CoreError::Transport { detail };
        // each entry's body and variant, and the body's id: its table id,
        // or its document's place
        let entries: Vec<Result<(usize, &FragmentBody, VariantKey), CoreError>> = match self {
            Submission::Variants(keys) => keys
                .iter()
                .map(|key| {
                    let body =
                        table.get(key.fragment).and_then(Option::as_ref).ok_or_else(|| {
                            deterministic(format!(
                                "fragment id {} is not defined on this connection",
                                key.fragment
                            ))
                        })?;
                    body.check_variant(key.ordinal, key.outputs).map_err(|reason| {
                        deterministic(format!("invalid variant key: {reason}"))
                    })?;
                    Ok((key.fragment, body, *key))
                })
                .collect(),
            Submission::Qasm(_) => parsed
                .iter()
                .enumerate()
                .map(|(i, body)| {
                    Ok((i, body.as_ref().map_err(Clone::clone)?, VariantKey::new(i, 0, 0)))
                })
                .collect(),
        };
        let mut bodies = Vec::new();
        let mut slot_of: std::collections::HashMap<usize, usize> = Default::default();
        let keys = entries
            .into_iter()
            .map(|entry| {
                let (source, body, key) = entry?;
                preflight(&body.shape(key.ordinal, key.outputs), backend)?;
                let slot = *slot_of.entry(source).or_insert_with(|| {
                    bodies.push(body);
                    bodies.len() - 1
                });
                Ok(VariantKey { fragment: slot, ..key })
            })
            .collect();
        (bodies, keys)
    }
}

/// A submitted OpenQASM document as the one variant of its own body.
fn parse(text: &str) -> Result<FragmentBody, CoreError> {
    let circuit = qasm::from_qasm(text)
        .map_err(|e| CoreError::Transport { detail: format!("qasm parse error: {e}") })?;
    FragmentBody::from_circuit(&circuit)
        .map_err(|e| CoreError::Transport { detail: format!("unusable circuit: {e}") })
}

/// The static pre-flight rejection ([`analyze::preflight_backend`]) of a
/// circuit `backend` cannot run: too wide for this worker, or needing
/// mid-circuit support it lacks. `Backend`-kinded, so the client's
/// dispatcher re-routes it to a capable worker.
fn preflight(shape: &CircuitShape, backend: &dyn ExecutionBackend) -> Result<(), CoreError> {
    match analyze::preflight_backend(shape, backend) {
        None => Ok(()),
        Some(diagnostic) => Err(CoreError::BackendUnavailable {
            backend: backend.label(),
            reason: format!("rejected by pre-flight analysis: {diagnostic}"),
        }),
    }
}

/// Enforces the server's **cumulative** per-batch write deadline on top of
/// the per-syscall `SO_SNDTIMEO`: every write first checks the shared
/// deadline, then bounds the syscall itself by the remaining budget. The
/// per-syscall timeout alone is not enough — a trickle-reading client that
/// drains a few bytes just often enough keeps every individual write under
/// [`WRITE_TIMEOUT`] while stretching the reply stream out forever. With the
/// deadline re-armed per call, the worst-case overrun is one syscall that
/// started just before the budget ran out (≤ 2× the budget overall).
struct DeadlineWriter<'a> {
    stream: &'a mut TcpStream,
    deadline: std::time::Instant,
}

impl io::Write for DeadlineWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let Some(remaining) = self.deadline.checked_duration_since(std::time::Instant::now())
        else {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "client drained batch replies too slowly: cumulative write budget exhausted",
            ));
        };
        // a zero socket timeout means "block forever" — clamp up instead
        let _ = self.stream.set_write_timeout(Some(remaining.max(Duration::from_millis(1))));
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// Checks and pre-flights one submitted batch, executes what survives, then
/// answers one reply frame per entry (in index order) and the closing
/// `BatchDone`. Entries fail **individually** — a key or document that
/// yields no variant ([`Submission::resolve`]), a static pre-flight
/// rejection ([`qrcc_core::analyze::preflight_backend`]: too wide for this
/// worker, or needing mid-circuit support it lacks), or a backend error
/// each produce a `CircuitFailed` while the rest of the batch still runs.
/// The surviving entries are served through the result-cache front
/// ([`cache::serve`]), which answers full hits without building them and
/// runs the rest as **one** backend call over keys into the connection's
/// table (or the parsed documents' bodies) — the backend builds each
/// variant where it runs it, keeping its internal parallelism and the
/// deterministic per-circuit sampling streams — so the reply is written
/// only once the batch call returns; the client waits on that with its
/// (long) reply timeout. Every reply frame and the
/// `BatchDone` are encoded into one buffer that leaves in one write under
/// the worker's cumulative write budget (see [`DeadlineWriter`]). The batch
/// and circuit counters are folded into the aggregate stats before that
/// write, so a client that saw `BatchDone` never reads a stale snapshot,
/// and taken back out if the write fails; the latency samples count only
/// delivered batches. `Err` means the reply could not be delivered.
fn serve_batch(
    stream: &mut TcpStream,
    state: &WorkerState,
    batch: u64,
    submission: Submission,
    fragments: &[Option<FragmentBody>],
    shots: Option<&[u64]>,
    trace: Option<TraceContext>,
) -> io::Result<()> {
    let (backend, cache, stats) = (state.backend.as_ref(), state.cache.as_deref(), &state.stats);
    // The batch occupies one slot of the live queue from arrival to the
    // reply write — the gauge `GetHealth` reads for its overload verdict.
    // The guard keeps the gauge honest on every early return.
    struct QueueGuard<'a>(&'a StatsInner);
    impl Drop for QueueGuard<'_> {
        fn drop(&mut self) {
            self.0.queue_depth.fetch_sub(1, Ordering::Relaxed);
        }
    }
    let depth = stats.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
    stats.queue_high_water.fetch_max(depth, Ordering::Relaxed);
    let _queue = QueueGuard(stats);

    // Phase clock for the span subtree returned to a tracing client. The
    // server does not run the client's tracer; it hand-builds
    // [`RemoteSpan`](qrcc_core::obs::RemoteSpan)s from one `Instant` plus a
    // Unix-epoch anchor so the client can rebase them into its own timeline.
    let batch_started = std::time::Instant::now();
    let batch_unix_us = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);

    // Check and statically pre-flight every entry; rejected entries fail
    // individually, exactly like backend failures, and the rest of its
    // batch still runs. Parse errors keep their line/column; pre-flight
    // rejections carry the rendered QL diagnostic and stay `Backend`-kinded
    // so the client's dispatcher re-routes them to a capable worker.
    let parsed: Vec<Result<FragmentBody, CoreError>> = match &submission {
        Submission::Qasm(documents) => documents.iter().map(|text| parse(text)).collect(),
        Submission::Variants(_) => Vec::new(),
    };
    let (bodies, entries) = submission.resolve(fragments, &parsed, backend);
    let keys: Vec<VariantKey> = entries.iter().flatten().copied().collect();
    let keys_shots: Option<Vec<u64>> = shots.map(|shots| {
        entries.iter().zip(shots).filter(|(key, _)| key.is_ok()).map(|(_, &s)| s).collect()
    });
    // the cache's handle of each body, interned once per batch
    let interned: Vec<CachedBody> =
        cache.map_or_else(Vec::new, |cache| bodies.iter().map(|body| cache.intern(body)).collect());
    let parse_us = batch_started.elapsed().as_micros() as u64;
    // The surviving entries go through the result-cache front: full hits
    // skip the backend, misses and delta top-ups run as one keyed call —
    // the backend builds each where it runs it — and a panicking backend
    // becomes per-circuit failures the client's dispatcher can rescue.
    let served = cache::serve(
        cache.map(|cache| (cache, &interned[..])),
        &backend.label(),
        backend.shots_per_circuit(),
        &keys,
        keys_shots.as_deref(),
        |picked, shots| {
            let picked = picked.iter().map(|&i| keys[i]).collect();
            backend.run(&VariantBatch::new(&bodies, picked, shots.map(<[u64]>::to_vec)))
        },
    );
    let execute_us = batch_started.elapsed().as_micros() as u64;

    // Every reply frame of this batch is encoded into one buffer that
    // leaves in one write (below).
    let mut replies: Vec<u8> = Vec::new();
    let mut served = served.into_iter();
    let mut ok = 0u64;
    let mut failed = 0u64;
    for (index, entry) in entries.into_iter().enumerate() {
        let outcome = entry.and_then(|_| {
            let served = served.next().expect("one answer per runnable circuit");
            served.distribution.map(Arc::unwrap_or_clone)
        });
        let (frame, succeeded) = match outcome {
            Ok(distribution) => {
                (Frame::CircuitResult { batch, index: index as u32, distribution }, true)
            }
            Err(error) => {
                // the error's class crosses the wire: a permanent failure
                // (the circuit did not parse, the simulator refused it)
                // must not look transient to the client's dispatcher
                let kind = if error.is_transient() {
                    WireErrorKind::Backend
                } else {
                    WireErrorKind::Protocol
                };
                let failed = Frame::CircuitFailed {
                    batch,
                    index: index as u32,
                    kind,
                    reason: error.to_string(),
                };
                (failed, false)
            }
        };
        match proto::append_frame(&mut replies, &frame) {
            Ok(()) if succeeded => ok += 1,
            Ok(()) => failed += 1,
            Err(e) => {
                // the reply itself exceeds the frame cap (an enormous
                // distribution): deterministic and per-circuit, so degrade
                // to a failure instead of killing the whole connection
                failed += 1;
                proto::append_frame(
                    &mut replies,
                    &Frame::CircuitFailed {
                        batch,
                        index: index as u32,
                        kind: WireErrorKind::Protocol,
                        reason: format!("result does not fit one frame: {e}"),
                    },
                )?;
            }
        }
    }
    // fold the counters into the aggregate *before* the reply leaves, so a
    // client that saw `BatchDone` never reads a stale snapshot; a reply
    // that cannot be delivered is taken back out below
    stats.fold(ok, failed, true);
    // the span subtree and metric deltas ride back only when the
    // submission carried a trace context
    let batch_us = batch_started.elapsed().as_micros() as u64;
    let telemetry = trace.map(|_| {
        let span = |id: u64, parent: u64, name: &str, start_us: u64, end_us: u64| {
            qrcc_core::obs::RemoteSpan {
                id,
                parent,
                name: name.to_string(),
                start_unix_us: batch_unix_us.saturating_add(start_us),
                duration_us: end_us.saturating_sub(start_us),
            }
        };
        let mut delta = qrcc_core::Histogram::new();
        delta.record(batch_us);
        BatchTelemetry {
            // ids live in the server's space (1..); the root parents at 0 so
            // the client's import grafts it under its own submit span
            spans: vec![
                span(1, 0, "server.batch", 0, batch_us),
                span(2, 1, "server.parse", 0, parse_us),
                span(3, 1, "server.execute", parse_us, execute_us),
                span(4, 1, "server.reply", execute_us, batch_us),
            ],
            counters: vec![
                ("server.circuits_ok".into(), ok),
                ("server.circuits_failed".into(), failed),
            ],
            histograms: vec![("server.batch_latency_us".into(), delta)],
        }
    });
    let done = Frame::BatchDone { batch, executed: ok as u32, telemetry };
    let written = proto::append_frame(&mut replies, &done).and_then(|()| {
        // the per-syscall timeout is restored afterwards so later batches
        // and control frames on this connection see the ordinary
        // [`WRITE_TIMEOUT`]
        let deadline = std::time::Instant::now() + state.write_budget;
        let mut writer = DeadlineWriter { stream, deadline };
        let written = writer.write_all(&replies).and_then(|()| writer.flush());
        let _ = writer.stream.set_write_timeout(Some(WRITE_TIMEOUT));
        written
    });
    match written {
        Ok(()) => {
            // a delivered batch's service latency feeds
            // [`ServerStats::batch_latency_us`] and the live window behind
            // GetMetrics, together with its request/failure counts
            stats.batch_latency.lock().record(batch_us);
            let mut window = stats.window.lock();
            window.latency.record(batch_us);
            window.requests.add(1);
            if failed > 0 {
                window.failures.add(1);
            }
        }
        Err(_) => stats.fold(ok, failed, false),
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_reads_overloaded_at_the_threshold_and_draining_wins() {
        let stats = StatsInner::new();
        stats.queue_depth.store(OVERLOAD_THRESHOLD - 1, Ordering::Relaxed);
        assert_eq!(stats.health().state, HealthState::Accepting);
        stats.queue_depth.store(OVERLOAD_THRESHOLD, Ordering::Relaxed);
        let report = stats.health();
        assert_eq!(report.state, HealthState::Overloaded);
        assert_eq!(report.queue_depth, OVERLOAD_THRESHOLD);
        stats.draining.store(true, Ordering::Relaxed);
        assert_eq!(stats.health().state, HealthState::Draining);
        stats.queue_depth.store(0, Ordering::Relaxed);
        assert_eq!(stats.health().state, HealthState::Draining);
    }
}
