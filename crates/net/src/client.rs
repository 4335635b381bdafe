//! `RemoteBackend`: an [`ExecutionBackend`] whose device lives across a TCP
//! connection.
//!
//! The client is the other half of the dispatch seam: it speaks the
//! [`proto`] frame protocol to a
//! [`QrccServer`](crate::QrccServer), answers the scheduler's capability
//! queries from the handshake's [`Capabilities`] (no network round trip),
//! and maps failures onto the dispatch layer's taxonomy — I/O errors,
//! disconnects and timeouts become [`CoreError::BackendUnavailable`] (the
//! transient class the dispatcher retries on another backend with this one
//! excluded), protocol violations become [`CoreError::Transport`].
//!
//! Variants ([`ExecutionBackend::run`]) travel as keys: each pooled
//! connection remembers which fragment bodies its server holds, defines the
//! missing ones ([`Frame::DefineFragment`]) and then submits
//! `(fragment id, ordinal, outputs)` keys ([`Frame::SubmitVariants`]), all
//! in one write; keys that together instantiate more than
//! [`MAX_BATCH_WEIGHT`] go as consecutive submissions, each within the cap.
//! Only a submission the key path cannot carry travels as OpenQASM text,
//! built one variant at a time. A batch's replies are read through one
//! buffered reader.
//!
//! Connections live in a small **reconnecting pool**: a batch checks a
//! connection out, and returns it only when the batch completed cleanly. A
//! connection that saw any failure is dropped on the floor, so the next
//! batch dials fresh — the pool never hands out a stream in an unknown
//! protocol state (or with a fragment table the server does not share).
//! Every checkout peeks the socket for EOF or stray bytes; only a connection
//! that sat idle for `PROBE_AFTER_IDLE` (1 s) or longer also pays a `Ping`
//! round trip, so back-to-back batches ride a warm connection without one.
//! Crucially the client never *resubmits* a failed batch itself: retry
//! policy (and its exactly-once shot accounting) belongs to the dispatcher.

use crate::proto::{
    self, Capabilities, Frame, HealthReport, MetricsReport, ProtoError, WireErrorKind,
    MAX_BATCH_WEIGHT, MAX_FRAGMENTS, MAX_FRAGMENT_WEIGHT, PROTOCOL_VERSION,
};
use parking_lot::Mutex;
use qrcc_circuit::qasm;
use qrcc_core::execute::{check_dense_readout, CircuitShape, ExecutionBackend, VariantBatch};
use qrcc_core::fragment::{FragmentBody, VariantKey};
use qrcc_core::CoreError;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Default cap on every socket operation (connect, read, write). A stalled
/// server therefore surfaces as [`CoreError::BackendUnavailable`] instead of
/// hanging a dispatch worker forever.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Default cap on the wait for a submitted batch's **first and subsequent
/// reply frames**. The server runs a batch as one backend call (preserving
/// its internal parallelism and deterministic sampling streams) and only
/// then streams the replies, so this — not [`DEFAULT_IO_TIMEOUT`] — bounds
/// how long a legitimate batch may compute remotely.
pub const DEFAULT_REPLY_TIMEOUT: Duration = Duration::from_secs(600);

/// How long a pooled connection may sit idle before a checkout confirms it
/// end to end with a `Ping` round trip. Far below the server's 900 s idle
/// reaping deadline: a connection checked in more recently than this was
/// answering a moment ago, and the non-blocking peek every checkout makes
/// already catches a peer that has since closed it.
const PROBE_AFTER_IDLE: Duration = Duration::from_secs(1);

/// An [`ExecutionBackend`] that submits its batches to a remote
/// [`QrccServer`](crate::QrccServer) over TCP.
///
/// Drops straight into a
/// [`DeviceRegistry`](qrcc_core::schedule::DeviceRegistry); the PR 4
/// dispatcher's retry-with-exclusion and bounded in-flight windows then
/// rescue real network faults with no transport-specific code.
pub struct RemoteBackend {
    peer: SocketAddr,
    capabilities: Capabilities,
    io_timeout: Duration,
    reply_timeout: Duration,
    pool: Mutex<Vec<Connection>>,
    executions: AtomicU64,
    dials: AtomicU64,
    next_batch: AtomicU64,
}

impl RemoteBackend {
    /// Connects to a server with the [`DEFAULT_IO_TIMEOUT`], performing the
    /// handshake and caching the worker's [`Capabilities`].
    ///
    /// Only the **first** resolved address is used (and re-used by every
    /// pool reconnect); pass a concrete `SocketAddr` when a hostname
    /// resolves to multiple address families.
    ///
    /// # Errors
    ///
    /// [`CoreError::BackendUnavailable`] when the server cannot be reached,
    /// [`CoreError::Transport`] when it speaks the protocol wrong (including
    /// a version mismatch).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, CoreError> {
        Self::connect_with_timeouts(addr, DEFAULT_IO_TIMEOUT, DEFAULT_REPLY_TIMEOUT)
    }

    /// [`RemoteBackend::connect`] with one explicit timeout governing both
    /// per-operation I/O **and** batch-reply waits — handy for tests that
    /// want faults to surface fast.
    ///
    /// # Errors
    ///
    /// See [`RemoteBackend::connect`].
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        io_timeout: Duration,
    ) -> Result<Self, CoreError> {
        Self::connect_with_timeouts(addr, io_timeout, io_timeout)
    }

    /// [`RemoteBackend::connect`] with separate caps for socket operations
    /// (connect/handshake/ping/write) and for awaiting a submitted batch's
    /// reply frames (which includes the remote backend's compute time).
    ///
    /// # Errors
    ///
    /// See [`RemoteBackend::connect`].
    pub fn connect_with_timeouts(
        addr: impl ToSocketAddrs,
        io_timeout: Duration,
        reply_timeout: Duration,
    ) -> Result<Self, CoreError> {
        let peer = addr
            .to_socket_addrs()
            .map_err(|e| unavailable("remote", format!("cannot resolve address: {e}")))?
            .next()
            .ok_or_else(|| unavailable("remote", "address resolved to nothing".to_string()))?;
        let backend = RemoteBackend {
            peer,
            capabilities: Capabilities {
                max_qubits: None,
                shots_per_circuit: None,
                supports_mid_circuit: false,
                label: String::new(),
            },
            io_timeout,
            reply_timeout,
            pool: Mutex::new(Vec::new()),
            executions: AtomicU64::new(0),
            dials: AtomicU64::new(0),
            next_batch: AtomicU64::new(0),
        };
        let (stream, capabilities) = backend.dial()?;
        backend.pool.lock().push(Connection::new(stream));
        Ok(RemoteBackend { capabilities, ..backend })
    }

    /// The worker's capabilities, as exchanged in the handshake.
    pub fn capabilities(&self) -> &Capabilities {
        &self.capabilities
    }

    /// Connections dialled so far (1 for the handshake; each one beyond
    /// that replaced a connection lost to a fault).
    pub fn connections_dialled(&self) -> u64 {
        self.dials.load(Ordering::Relaxed)
    }

    /// Heartbeat: round-trips a `Ping` and returns its latency.
    ///
    /// # Errors
    ///
    /// [`CoreError::BackendUnavailable`] when the server is unreachable or
    /// stalled, [`CoreError::Transport`] when it answers wrongly.
    pub fn ping(&self) -> Result<Duration, CoreError> {
        let mut conn = self.checkout()?;
        let rtt = self.roundtrip_ping(&mut conn.stream)?;
        self.checkin(conn);
        Ok(rtt)
    }

    /// One `Ping`/`Pong` round trip on an already-checked-out connection.
    /// Every successful round trip records `net.ping_rtt_us` (cold path,
    /// always on): the fleet's health probes and the pool's checkout log
    /// line read it even when span tracing is off.
    fn roundtrip_ping(&self, stream: &mut TcpStream) -> Result<Duration, CoreError> {
        let nonce = 0x9e37_79b9 ^ self.next_batch.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        proto::write_frame(stream, &Frame::Ping { nonce })
            .map_err(|e| ProtoError::Io(e).into_core(&self.label()))?;
        match proto::read_frame(&mut FrameDeadline::new(stream, self.io_timeout)) {
            Ok(Frame::Pong { nonce: echoed }) if echoed == nonce => {
                let rtt = started.elapsed();
                qrcc_core::obs::metrics().record_duration("net.ping_rtt_us", rtt);
                Ok(rtt)
            }
            Ok(other) => Err(CoreError::Transport {
                detail: format!("expected Pong, server sent {}", frame_name(&other)),
            }),
            Err(e) => Err(e.into_core(&self.label())),
        }
    }

    /// Scrapes the server's live metrics ([`Frame::GetMetrics`], v3+):
    /// Prometheus text plus the windowed snapshot, without a batch
    /// round-trip.
    ///
    /// # Errors
    ///
    /// [`CoreError::BackendUnavailable`] when the server is unreachable,
    /// [`CoreError::Transport`] when it answers wrongly.
    pub fn get_metrics(&self) -> Result<MetricsReport, CoreError> {
        let mut conn = self.checkout()?;
        proto::write_frame(&mut conn.stream, &Frame::GetMetrics)
            .map_err(|e| ProtoError::Io(e).into_core(&self.label()))?;
        match proto::read_frame(&mut FrameDeadline::new(&mut conn.stream, self.io_timeout)) {
            Ok(Frame::MetricsReply { report }) => {
                self.checkin(conn);
                Ok(report)
            }
            Ok(other) => Err(CoreError::Transport {
                detail: format!("expected MetricsReply, server sent {}", frame_name(&other)),
            }),
            Err(e) => Err(e.into_core(&self.label())),
        }
    }

    /// Asks for the server's readiness verdict ([`Frame::GetHealth`], v3+):
    /// accepting / draining / overloaded plus live queue occupancy.
    ///
    /// # Errors
    ///
    /// [`CoreError::BackendUnavailable`] when the server is unreachable,
    /// [`CoreError::Transport`] when it answers wrongly.
    pub fn get_health(&self) -> Result<HealthReport, CoreError> {
        let mut conn = self.checkout()?;
        proto::write_frame(&mut conn.stream, &Frame::GetHealth)
            .map_err(|e| ProtoError::Io(e).into_core(&self.label()))?;
        match proto::read_frame(&mut FrameDeadline::new(&mut conn.stream, self.io_timeout)) {
            Ok(Frame::HealthReply { state, queue_depth, queue_high_water, connections }) => {
                self.checkin(conn);
                Ok(HealthReport { state, queue_depth, queue_high_water, connections })
            }
            Ok(other) => Err(CoreError::Transport {
                detail: format!("expected HealthReply, server sent {}", frame_name(&other)),
            }),
            Err(e) => Err(e.into_core(&self.label())),
        }
    }

    /// Dials and handshakes one fresh connection.
    fn dial(&self) -> Result<(TcpStream, Capabilities), CoreError> {
        self.dials.fetch_add(1, Ordering::Relaxed);
        let label = if self.capabilities.label.is_empty() {
            format!("remote@{}", self.peer)
        } else {
            self.label()
        };
        let stream = TcpStream::connect_timeout(&self.peer, self.io_timeout)
            .map_err(|e| unavailable(&label, format!("connect failed: {e}")))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(self.io_timeout))
            .and_then(|()| stream.set_write_timeout(Some(self.io_timeout)))
            .map_err(|e| unavailable(&label, format!("cannot configure socket: {e}")))?;
        let mut stream = stream;
        proto::write_frame(&mut stream, &Frame::ClientHello { version: PROTOCOL_VERSION })
            .map_err(|e| ProtoError::Io(e).into_core(&label))?;
        match proto::read_frame(&mut FrameDeadline::new(&mut stream, self.io_timeout)) {
            Ok(Frame::ServerHello { version, capabilities }) if version == PROTOCOL_VERSION => {
                Ok((stream, capabilities))
            }
            Ok(Frame::ServerHello { version, .. }) => Err(CoreError::Transport {
                detail: format!(
                    "server answered with protocol version {version}, expected {PROTOCOL_VERSION}"
                ),
            }),
            Ok(Frame::Error { kind, message }) => Err(match kind {
                WireErrorKind::Backend => unavailable(&label, message),
                _ => CoreError::Transport { detail: message },
            }),
            Ok(other) => Err(CoreError::Transport {
                detail: format!("expected ServerHello, server sent {}", frame_name(&other)),
            }),
            Err(e) => Err(e.into_core(&label)),
        }
    }

    /// Takes an idle pooled connection or dials a new one. Pooled
    /// connections are liveness-probed first: the server reaps connections
    /// that idle past its deadline, and a reaped one must not cost the next
    /// batch a spurious failure.
    fn checkout(&self) -> Result<Connection, CoreError> {
        while let Some(mut conn) = self.pool.lock().pop() {
            if !connection_is_live(&conn.stream) {
                continue;
            }
            // A connection idle for PROBE_AFTER_IDLE or longer is confirmed
            // end to end with one Ping round trip (which also records
            // `net.ping_rtt_us`); one checked in more recently rides on the
            // peek alone. A connection that fails the ping is dropped and
            // the next pooled one (or a fresh dial) is tried.
            if conn.idle_since.elapsed() < PROBE_AFTER_IDLE
                || self.roundtrip_ping(&mut conn.stream).is_ok()
            {
                return Ok(conn);
            }
        }
        let (stream, capabilities) = self.dial()?;
        // A worker restart may change capabilities; the scheduler routed
        // against the handshake's answers, so a narrowed worker must not be
        // silently accepted.
        if capabilities != self.capabilities {
            return Err(CoreError::Transport {
                detail: format!(
                    "server capabilities changed across reconnect (was {:?}, now {:?})",
                    self.capabilities, capabilities
                ),
            });
        }
        // a fresh dial mid-run usually means the server reaped or dropped
        // the pooled connection; when tracing is on, surface it with the
        // link's observed ping RTT so slow checkouts are explainable
        if qrcc_core::obs::tracer().enabled() {
            let rtt = qrcc_core::obs::metrics()
                .histogram("net.ping_rtt_us")
                .and_then(|h| Some((h.p50()?, h.count())));
            match rtt {
                Some((p50, pings)) => eprintln!(
                    "[qrcc-net] checkout dialled fresh connection to {} (ping RTT p50 {p50}us over {pings} ping(s))",
                    self.peer
                ),
                None => eprintln!(
                    "[qrcc-net] checkout dialled fresh connection to {} (no ping RTT recorded yet)",
                    self.peer
                ),
            }
        }
        Ok(Connection::new(stream))
    }

    /// Returns a connection that finished its batch cleanly to the pool,
    /// restoring the ordinary per-operation read timeout and restarting its
    /// idle clock.
    fn checkin(&self, mut conn: Connection) {
        if conn.stream.set_read_timeout(Some(self.io_timeout)).is_err() {
            return; // an unconfigurable socket is not worth pooling
        }
        conn.idle_since = Instant::now();
        self.pool.lock().push(conn);
    }

    /// Submits one batch and reads its per-entry replies.
    ///
    /// Whole-connection failures (dial, submit, a dead reply stream) fail
    /// every entry of the batch with the same error; per-circuit
    /// `CircuitFailed` replies fail only their slot.
    fn submit(&self, variants: &VariantBatch<'_>) -> Vec<Result<Vec<f64>, CoreError>> {
        let len = variants.len();
        if len == 0 {
            return Vec::new();
        }
        let fail_all = |error: CoreError| vec![Err(error); len];
        let mut conn = match self.checkout() {
            Ok(conn) => conn,
            Err(error) => return fail_all(error),
        };
        // opens under whatever span is live on this thread (a dispatch
        // worker's `job.execute`), so remote submissions nest into the
        // pipeline tree; the server's span subtree grafts under it when the
        // reply's telemetry is imported. Self-gating: a no-op when tracing
        // is off, and `span.id()` is then 0 so no context rides the wire.
        let tracer = qrcc_core::obs::tracer();
        let span = tracer.span("net.submit");
        let batch = self.next_batch.fetch_add(1, Ordering::Relaxed);
        let trace = span
            .is_recording()
            .then(|| proto::TraceContext { trace_id: batch, parent_span: span.id() });
        // the whole request — fragment definitions plus the submission —
        // leaves in one write
        let mut request = Vec::new();
        let encoded = conn.encode_submission(&mut request, variants, batch, trace);
        if let Err(e) = encoded.and_then(|()| conn.stream.write_all(&request)) {
            // an oversized frame is refused before any bytes move: that is a
            // deterministic serialisation failure, not a transient fault the
            // dispatcher should replay on other backends
            return fail_all(if e.kind() == std::io::ErrorKind::InvalidData {
                CoreError::Transport { detail: format!("cannot submit batch: {e}") }
            } else {
                ProtoError::Io(e).into_core(&self.label())
            });
        }
        // the first reply arrives only after the worker's whole batch call
        // returns, so the wait is bounded by the (long) reply timeout, not
        // the per-operation I/O timeout
        let _ = conn.stream.set_read_timeout(Some(self.reply_timeout));
        let clbits: Vec<usize> = (0..len).map(|i| variants.body(i).num_clbits()).collect();
        match self.read_batch_replies(&mut conn.stream, batch, &clbits, span.id()) {
            Ok(outcomes) => {
                let ok = outcomes.iter().filter(|o| o.is_ok()).count() as u64;
                self.executions.fetch_add(ok, Ordering::Relaxed);
                self.checkin(conn);
                outcomes
            }
            // the connection is in an unknown state: drop it, fail the batch
            Err(error) => fail_all(error),
        }
    }

    /// Collects exactly one reply per submitted entry plus the closing
    /// `BatchDone`, through one buffered reader; `clbits[i]` is entry `i`'s
    /// classical register width. When the `BatchDone` carries telemetry
    /// (the submission included a [`TraceContext`](proto::TraceContext)),
    /// the server's span subtree is grafted under `submit_span` and its
    /// metric deltas merge into the process-global registry.
    fn read_batch_replies(
        &self,
        stream: &mut TcpStream,
        batch: u64,
        clbits: &[usize],
        submit_span: u64,
    ) -> Result<Vec<Result<Vec<f64>, CoreError>>, CoreError> {
        let label = self.label();
        let expected = clbits.len();
        let mut slots: Vec<Option<Result<Vec<f64>, CoreError>>> = vec![None; expected];
        let mut reader =
            BufReader::with_capacity(64 * 1024, FrameDeadline::new(stream, self.io_timeout));
        loop {
            match proto::read_frame(&mut reader).map_err(|e| e.into_core(&label))? {
                Frame::CircuitResult { batch: b, index, distribution } => {
                    // a distribution must cover exactly the circuit's
                    // classical register — a wrong length would silently
                    // corrupt reconstruction downstream
                    if let Some(&width) = clbits.get(index as usize) {
                        let want = 1usize.checked_shl(width as u32);
                        if want != Some(distribution.len()) {
                            return Err(CoreError::Transport {
                                detail: format!(
                                    "distribution of {} entries for circuit {index} with {width} classical bit(s)",
                                    distribution.len(),
                                ),
                            });
                        }
                    }
                    self.fill_slot(&mut slots, b, batch, index, Ok(distribution))?;
                }
                Frame::CircuitFailed { batch: b, index, kind, reason } => {
                    // preserve the server's failure class: device faults are
                    // transient (retry elsewhere), deterministic failures
                    // (e.g. the circuit did not parse) are not
                    let error = match kind {
                        WireErrorKind::Protocol | WireErrorKind::VersionMismatch => {
                            CoreError::Transport {
                                detail: format!("remote execution failed: {reason}"),
                            }
                        }
                        WireErrorKind::Backend => {
                            unavailable(&label, format!("remote execution failed: {reason}"))
                        }
                    };
                    self.fill_slot(&mut slots, b, batch, index, Err(error))?;
                }
                Frame::BatchDone { batch: b, executed, telemetry } => {
                    if b != batch {
                        return Err(CoreError::Transport {
                            detail: format!("BatchDone for batch {b} while awaiting {batch}"),
                        });
                    }
                    if let Some(telemetry) = telemetry {
                        let tracer = qrcc_core::obs::tracer();
                        if tracer.enabled() {
                            tracer.import(&telemetry.spans, submit_span);
                            let metrics = qrcc_core::obs::metrics();
                            for (name, delta) in &telemetry.counters {
                                metrics.counter_add(name, *delta);
                            }
                            for (name, histogram) in &telemetry.histograms {
                                metrics.merge_histogram(name, histogram);
                            }
                        }
                    }
                    let filled = slots.iter().filter(|s| s.is_some()).count();
                    if filled != expected {
                        return Err(CoreError::Transport {
                            detail: format!(
                                "server closed batch {batch} after {filled} of {expected} replies"
                            ),
                        });
                    }
                    let ok = slots.iter().flatten().filter(|o| o.is_ok()).count();
                    if ok as u32 != executed {
                        return Err(CoreError::Transport {
                            detail: format!(
                                "server counted {executed} executed circuits, client saw {ok}"
                            ),
                        });
                    }
                    if !reader.buffer().is_empty() {
                        return Err(CoreError::Transport {
                            detail: format!("unsolicited bytes after batch {batch}"),
                        });
                    }
                    return Ok(slots.into_iter().map(|s| s.expect("all slots filled")).collect());
                }
                Frame::Error { kind, message } => {
                    return Err(match kind {
                        WireErrorKind::Backend => unavailable(&label, message),
                        _ => CoreError::Transport { detail: message },
                    });
                }
                other => {
                    return Err(CoreError::Transport {
                        detail: format!(
                            "unexpected {} frame inside batch {batch}",
                            frame_name(&other)
                        ),
                    });
                }
            }
        }
    }

    fn fill_slot(
        &self,
        slots: &mut [Option<Result<Vec<f64>, CoreError>>],
        got_batch: u64,
        batch: u64,
        index: u32,
        outcome: Result<Vec<f64>, CoreError>,
    ) -> Result<(), CoreError> {
        if got_batch != batch {
            return Err(CoreError::Transport {
                detail: format!("reply for batch {got_batch} while awaiting {batch}"),
            });
        }
        let slot = slots.get_mut(index as usize).ok_or_else(|| CoreError::Transport {
            detail: format!("reply for out-of-range circuit index {index}"),
        })?;
        if slot.is_some() {
            return Err(CoreError::Transport {
                detail: format!("duplicate reply for circuit index {index}"),
            });
        }
        *slot = Some(outcome);
        Ok(())
    }
}

/// A pooled connection and the fragment bodies its server holds for it:
/// `fragments[id]` is what [`Frame::DefineFragment`] `id` defined. Both
/// sides only ever change the table through this connection's defines, so
/// they agree as long as the connection is healthy — and one that saw a
/// failure is never pooled again.
struct Connection {
    stream: TcpStream,
    fragments: Vec<FragmentBody>,
    /// When the connection last finished a clean exchange (its handshake,
    /// or the batch it was checked in after).
    idle_since: Instant,
}

impl Connection {
    fn new(stream: TcpStream) -> Self {
        Connection { stream, fragments: Vec::new(), idle_since: Instant::now() }
    }

    /// Appends the frames of one submission to `out`: a
    /// [`Frame::DefineFragment`] for every fragment the server lacks, then
    /// [`Frame::SubmitVariants`] with each key's fragment renamed to its
    /// table id; or, for variants the key path cannot carry (see
    /// [`Connection::define_fragments`]), [`Frame::SubmitBatch`] with each
    /// variant built and spelled out as OpenQASM, one at a time.
    fn encode_submission(
        &mut self,
        out: &mut Vec<u8>,
        variants: &VariantBatch<'_>,
        batch: u64,
        trace: Option<proto::TraceContext>,
    ) -> std::io::Result<()> {
        let shots = variants.shots().map(<[u64]>::to_vec);
        let frame = match self.define_fragments(out, variants)? {
            Some(ids) => {
                let keys = variants
                    .keys()
                    .iter()
                    .map(|&key| VariantKey { fragment: ids[key.fragment] as usize, ..key })
                    .collect();
                Frame::SubmitVariants { batch, keys, shots, trace }
            }
            None => {
                // built one at a time, each dropped once encoded
                let circuits = (0..variants.len()).map(|i| qasm::to_qasm(&variants.build(i)));
                Frame::SubmitBatch { batch, circuits: circuits.collect(), shots, trace }
            }
        };
        proto::append_frame(out, &frame)
    }

    /// Makes sure the server holds every body the variants use, appending
    /// the missing definitions to `out`, and returns each body's table id
    /// (indexed like [`VariantBatch::bodies`]; unused bodies map to 0). When
    /// the missing bodies do not fit beside the held ones, the table starts
    /// over: every body the submission uses is defined again from id 0.
    /// `None` when the key path cannot carry the submission: it uses more
    /// than [`MAX_FRAGMENTS`] bodies, or one heavier than
    /// [`MAX_FRAGMENT_WEIGHT`].
    fn define_fragments(
        &mut self,
        out: &mut Vec<u8>,
        variants: &VariantBatch<'_>,
    ) -> std::io::Result<Option<Vec<u32>>> {
        let bodies = variants.bodies();
        let mut wanted = vec![false; bodies.len()];
        for key in variants.keys() {
            wanted[key.fragment] = true;
        }
        let used: Vec<(usize, &FragmentBody)> = bodies
            .iter()
            .enumerate()
            .filter_map(|(index, &body)| wanted[index].then_some((index, body)))
            .collect();
        if used.len() > MAX_FRAGMENTS as usize
            || used.iter().any(|(_, body)| body.weight() > MAX_FRAGMENT_WEIGHT)
        {
            return Ok(None);
        }
        let mut held: Vec<Option<usize>> = used
            .iter()
            .map(|&(_, body)| self.fragments.iter().position(|held| held == body))
            .collect();
        let missing = held.iter().filter(|id| id.is_none()).count();
        if self.fragments.len() + missing > MAX_FRAGMENTS as usize {
            self.fragments.clear();
            held.fill(None);
        }
        let mut ids = vec![0u32; bodies.len()];
        for (&(index, body), held) in used.iter().zip(held) {
            let id = match held {
                Some(id) => id,
                None => {
                    let id = self.fragments.len();
                    let define = Frame::DefineFragment { id: id as u32, body: body.clone() };
                    proto::append_frame(out, &define)?;
                    self.fragments.push(body.clone());
                    id
                }
            };
            ids[index] = id as u32;
        }
        Ok(Some(ids))
    }
}

fn unavailable(backend: &str, reason: String) -> CoreError {
    CoreError::BackendUnavailable { backend: backend.to_string(), reason }
}

/// Bounds the gap between received bytes once a reply has started: every
/// read must make progress within `stall_cap` of the previous one (the
/// server's `FRAME_STALL` enforces the same bound on its side). A wedged
/// server that stops sending mid-reply fails fast even while the socket's
/// own timeout is set to the much longer reply timeout; a slow but steady
/// large transfer keeps resetting the clock and completes. A batch's
/// replies are read through one of these, so the clock covers the gaps
/// between its frames too.
struct FrameDeadline<'a> {
    stream: &'a mut TcpStream,
    stall_cap: Duration,
    deadline: Option<Instant>,
}

impl<'a> FrameDeadline<'a> {
    fn new(stream: &'a mut TcpStream, stall_cap: Duration) -> Self {
        FrameDeadline { stream, stall_cap, deadline: None }
    }
}

impl std::io::Read for FrameDeadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if let Some(deadline) = self.deadline {
            if Instant::now() > deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "peer stalled mid-frame",
                ));
            }
        }
        let n = self.stream.read(buf)?;
        if n > 0 {
            if self.deadline.is_none() {
                // one blocked read could otherwise wait out the (long)
                // pre-frame socket timeout before the deadline is even
                // consulted: once a frame has started, cap every further
                // wait at the stall budget
                let _ = self.stream.set_read_timeout(Some(self.stall_cap));
            }
            self.deadline = Some(Instant::now() + self.stall_cap);
        }
        Ok(n)
    }
}

/// Cheap liveness probe for an idle pooled connection: a healthy one has no
/// pending bytes (`WouldBlock`); EOF, an error, or unsolicited data all mean
/// the stream cannot safely carry another batch.
fn connection_is_live(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let mut probe = [0u8; 1];
    let live = matches!(
        stream.peek(&mut probe),
        Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock
    );
    live && stream.set_nonblocking(false).is_ok()
}

fn frame_name(frame: &Frame) -> &'static str {
    match frame {
        Frame::ClientHello { .. } => "ClientHello",
        Frame::ServerHello { .. } => "ServerHello",
        Frame::SubmitBatch { .. } => "SubmitBatch",
        Frame::DefineFragment { .. } => "DefineFragment",
        Frame::SubmitVariants { .. } => "SubmitVariants",
        Frame::CircuitResult { .. } => "CircuitResult",
        Frame::CircuitFailed { .. } => "CircuitFailed",
        Frame::BatchDone { .. } => "BatchDone",
        Frame::GetMetrics => "GetMetrics",
        Frame::MetricsReply { .. } => "MetricsReply",
        Frame::GetHealth => "GetHealth",
        Frame::HealthReply { .. } => "HealthReply",
        Frame::Ping { .. } => "Ping",
        Frame::Pong { .. } => "Pong",
        Frame::Error { .. } => "Error",
    }
}

impl ExecutionBackend for RemoteBackend {
    /// Refuses a variant measuring no classical bit or more than a dense
    /// distribution holds here ([`check_dense_readout`], as every backend
    /// does), sends each fragment body the rest use once per pooled
    /// connection, then only keys ([`Frame::SubmitVariants`]). Keys that together instantiate more
    /// than [`MAX_BATCH_WEIGHT`] go as consecutive submissions, each within
    /// the cap. A submission the key path cannot carry otherwise (more than
    /// [`MAX_FRAGMENTS`] bodies, or one heavier than
    /// [`MAX_FRAGMENT_WEIGHT`]) goes as OpenQASM ([`Frame::SubmitBatch`]).
    fn run(&self, variants: &VariantBatch<'_>) -> Vec<Result<Vec<f64>, CoreError>> {
        let refusal =
            |i: usize| check_dense_readout(variants.body(i).num_clbits()).err().map(Into::into);
        variants.run_unrefused(refusal, |variants| {
            let part = |start: usize, end: usize| {
                self.submit(&variants.select(&(start..end).collect::<Vec<_>>()))
            };
            let mut results = Vec::with_capacity(variants.len());
            let (mut start, mut weight) = (0, 0usize);
            for index in 0..variants.len() {
                let key_weight = variants.body(index).weight();
                if index > start && weight.saturating_add(key_weight) > MAX_BATCH_WEIGHT {
                    results.extend(part(start, index));
                    (start, weight) = (index, 0);
                }
                weight = weight.saturating_add(key_weight);
            }
            results.extend(part(start, variants.len()));
            results
        })
    }

    fn max_qubits(&self) -> Option<usize> {
        self.capabilities.max_qubits.map(|q| q as usize)
    }

    fn can_run(&self, shape: &CircuitShape) -> bool {
        // mirror the worker's handshake-probed refinements, so the router
        // never places a circuit the worker would deterministically reject
        let width_ok = self.max_qubits().is_none_or(|max| shape.num_qubits <= max);
        width_ok && (self.capabilities.supports_mid_circuit || !shape.reuses_wires)
    }

    fn shots_per_circuit(&self) -> Option<u64> {
        self.capabilities.shots_per_circuit
    }

    fn label(&self) -> String {
        format!("remote({} @ {})", self.capabilities.label, self.peer)
    }

    fn executions(&self) -> u64 {
        self.executions.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for RemoteBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteBackend")
            .field("peer", &self.peer)
            .field("capabilities", &self.capabilities)
            .field("io_timeout", &self.io_timeout)
            .field("reply_timeout", &self.reply_timeout)
            .field("pooled", &self.pool.lock().len())
            .field("dialled", &self.dials.load(Ordering::Relaxed))
            .finish()
    }
}
