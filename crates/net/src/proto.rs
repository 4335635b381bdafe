//! The QRCC wire protocol: versioned, length-prefixed binary frames.
//!
//! Every frame on the wire is `[u32 length (big-endian)][u8 tag][payload]`,
//! where `length` counts the tag byte plus the payload and is capped at
//! [`MAX_FRAME_LEN`] so a garbled peer cannot make the other side allocate
//! unboundedly. All integers are big-endian; floats travel as their IEEE-754
//! bit patterns; strings and lists are `u32`-length-prefixed. Payloads are
//! read through the byte cursor of the fragment-body codec
//! ([`qrcc_core::fragment::codec`]), and a [`Frame::DefineFragment`] body is
//! that codec's encoding, the one a result-cache snapshot stores too.
//!
//! A session is: the client opens with [`Frame::ClientHello`] (protocol
//! version), the server answers with [`Frame::ServerHello`] carrying its
//! [`Capabilities`] (max qubits, default shots, label) — or rejects a
//! version mismatch with a typed [`Frame::Error`] — after which the client
//! may interleave batch submissions and heartbeats
//! ([`Frame::Ping`]/[`Frame::Pong`]). A batch is submitted in one of two
//! forms:
//!
//! * [`Frame::SubmitVariants`] — fragment variants as
//!   `(fragment id, ordinal, outputs)` keys. Each id names a
//!   [`FragmentBody`] the client defined earlier on the same connection
//!   with [`Frame::DefineFragment`]; the server keeps at most
//!   [`MAX_FRAGMENTS`] of them, none heavier than [`MAX_FRAGMENT_WEIGHT`],
//!   and instantiates every key locally, at most [`MAX_BATCH_WEIGHT`] per
//!   batch.
//! * [`Frame::SubmitBatch`] — bare circuits as OpenQASM text
//!   ([`qrcc_circuit::qasm::to_qasm`]), for callers that hold no fragments.
//!
//! Either way the server answers with one [`Frame::CircuitResult`] or
//! [`Frame::CircuitFailed`] per submitted entry, in index order, and closes
//! the batch with [`Frame::BatchDone`] — all of them in one write.

use qrcc_core::fragment::codec::{
    put_list, put_string, put_u16, put_u32, put_u64, DecodeError, Reader,
};
use qrcc_core::fragment::{FragmentBody, VariantKey};
use std::fmt;
use std::io::{self, Read, Write};

/// The protocol version spoken by this build. A [`Frame::ClientHello`] with
/// any other version is rejected during the handshake with a typed
/// [`WireErrorKind::VersionMismatch`] error frame.
///
/// Version history: 1 — initial protocol; 2 — [`Frame::SubmitBatch`] may
/// carry a [`TraceContext`] and [`Frame::BatchDone`] may return the
/// server's [`BatchTelemetry`] (span subtree + metric deltas); 3 — the
/// live-scrape pair [`Frame::GetMetrics`]/[`Frame::MetricsReply`] and the
/// readiness pair [`Frame::GetHealth`]/[`Frame::HealthReply`], so a fleet
/// monitor can watch a worker without a batch round-trip; 4 — fragment
/// variants travel as keys ([`Frame::DefineFragment`] once per fragment and
/// connection, then [`Frame::SubmitVariants`]).
pub const PROTOCOL_VERSION: u16 = 4;

/// How many fragment bodies one connection may hold: the cap on a server's
/// per-connection fragment table. [`Frame::DefineFragment`] ids run over
/// `0..MAX_FRAGMENTS`, and a define with an id already in use replaces it.
pub const MAX_FRAGMENTS: u32 = 64;

/// Upper bound on one frame's `tag + payload` length. Frames announcing a
/// larger length are rejected before any payload is read.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// The most [`FragmentBody::weight`] one [`Frame::SubmitVariants`] may
/// instantiate, summed over its keys: about what one [`Frame::SubmitBatch`]
/// of [`MAX_FRAME_LEN`] bytes can spell out, since the shortest OpenQASM
/// statement (`x q[0];` and its newline) takes 8 bytes. A server refuses a
/// heavier batch with a [`WireErrorKind::Protocol`] error frame before it
/// builds any circuit; a client sends one as OpenQASM instead.
pub const MAX_BATCH_WEIGHT: usize = MAX_FRAME_LEN as usize / 8;

/// The heaviest body one [`Frame::DefineFragment`] may carry
/// ([`FragmentBody::weight`]), so that a full table of [`MAX_FRAGMENTS`]
/// bodies weighs at most [`MAX_BATCH_WEIGHT`]. The decoder refuses a
/// heavier body as soon as it has read past the cap; a client sends the
/// variants of such a fragment as OpenQASM instead.
pub const MAX_FRAGMENT_WEIGHT: usize = MAX_BATCH_WEIGHT / MAX_FRAGMENTS as usize;

/// What a worker can do, exchanged in the handshake so the client can answer
/// the scheduler's capability queries (`max_qubits`, `shots_per_circuit`,
/// `label`) without a network round trip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Capabilities {
    /// The widest circuit the worker's backend accepts, or `None` when
    /// unbounded.
    pub max_qubits: Option<u64>,
    /// The backend's default shots per circuit, or `None` for exact
    /// backends.
    pub shots_per_circuit: Option<u64>,
    /// Whether the worker accepts circuits needing mid-circuit measurement
    /// or reset (probed against the backend at handshake time), so the
    /// router can avoid placing qubit-reuse circuits on workers that would
    /// deterministically reject them.
    pub supports_mid_circuit: bool,
    /// The backend's human-readable label.
    pub label: String,
}

/// Client-side tracing context attached to a [`Frame::SubmitBatch`]: the
/// submitting process's trace identity and the span the server's subtree
/// should graft under. Ids are only meaningful to the client; the server
/// never interprets them beyond echoing `parent_span` as its root's parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Opaque trace id of the submitting client (0 is valid but
    /// conventionally "unset").
    pub trace_id: u64,
    /// The client-side span the server's span subtree grafts under.
    pub parent_span: u64,
}

/// The server's observability payload returned on [`Frame::BatchDone`] when
/// the submission carried a [`TraceContext`]: the span subtree of this
/// batch's server-side execution (ids in the *server's* space — the client
/// remaps them on [`import`](qrcc_core::obs::Tracer::import)) plus metric
/// deltas attributable to the batch.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchTelemetry {
    /// The server-side span subtree; subtree roots have `parent == 0`.
    pub spans: Vec<qrcc_core::obs::RemoteSpan>,
    /// Counter deltas for this batch, e.g. `("server.circuits_ok", 3)`.
    pub counters: Vec<(String, u64)>,
    /// Histogram deltas for this batch (merged into the client's registry
    /// under the same names).
    pub histograms: Vec<(String, qrcc_core::obs::Histogram)>,
}

/// A server's readiness verdict, carried by [`Frame::HealthReply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Accepting new connections and batches.
    Accepting,
    /// Shutting down: existing batches finish, new work should go elsewhere.
    Draining,
    /// Queue depth at or above the server's overload threshold; healthy but
    /// saturated — back off before routing more work here.
    Overloaded,
}

impl HealthState {
    /// The state's stable wire code (0 accepting, 1 draining, 2
    /// overloaded) — also handy as a numeric gauge in merged fleet views.
    pub fn code(self) -> u8 {
        match self {
            HealthState::Accepting => 0,
            HealthState::Draining => 1,
            HealthState::Overloaded => 2,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(HealthState::Accepting),
            1 => Some(HealthState::Draining),
            2 => Some(HealthState::Overloaded),
            _ => None,
        }
    }
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealthState::Accepting => write!(f, "accepting"),
            HealthState::Draining => write!(f, "draining"),
            HealthState::Overloaded => write!(f, "overloaded"),
        }
    }
}

/// A server's readiness verdict plus live queue occupancy — the decoded
/// form of [`Frame::HealthReply`], returned by client-side health probes
/// and by `ServerHandle::health`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthReport {
    /// Accepting, draining or overloaded.
    pub state: HealthState,
    /// Batches currently executing or queued across all connections.
    pub queue_depth: u64,
    /// The deepest the aggregate queue has ever been on this server.
    pub queue_high_water: u64,
    /// Connections currently open.
    pub connections: u64,
}

/// The server's live telemetry returned on [`Frame::MetricsReply`]: the
/// Prometheus text of its full registry plus the structured windowed view
/// (last-N-seconds histograms, counters and gauges) a fleet monitor merges
/// across workers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsReport {
    /// Prometheus text exposition of the server's metrics registry.
    pub prometheus: String,
    /// Windowed histograms, e.g. `("server.window_batch_latency_us", h)` —
    /// samples from the last window only, mergeable across workers.
    pub windowed: Vec<(String, qrcc_core::obs::Histogram)>,
    /// Boot-to-now counters, e.g. `("server.batches", 12)`.
    pub counters: Vec<(String, u64)>,
    /// Instantaneous gauges, e.g. `("server.queue_depth", 2.0)`.
    pub gauges: Vec<(String, f64)>,
}

/// The typed cause carried by an [`Frame::Error`] frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireErrorKind {
    /// The peer speaks a different protocol version.
    VersionMismatch,
    /// The peer violated the protocol (unexpected or malformed frame).
    Protocol,
    /// The worker's backend failed in a way not attributable to a single
    /// circuit.
    Backend,
}

impl WireErrorKind {
    fn code(self) -> u8 {
        match self {
            WireErrorKind::VersionMismatch => 0,
            WireErrorKind::Protocol => 1,
            WireErrorKind::Backend => 2,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(WireErrorKind::VersionMismatch),
            1 => Some(WireErrorKind::Protocol),
            2 => Some(WireErrorKind::Backend),
            _ => None,
        }
    }
}

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server, first frame of a connection.
    ClientHello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u16,
    },
    /// Server → client, handshake reply.
    ServerHello {
        /// The server's [`PROTOCOL_VERSION`].
        version: u16,
        /// What the worker's backend can do.
        capabilities: Capabilities,
    },
    /// Client → server: execute a batch of circuits.
    SubmitBatch {
        /// Client-chosen batch identifier, echoed on every reply frame.
        batch: u64,
        /// One OpenQASM document per circuit
        /// ([`qrcc_circuit::qasm::to_qasm`]).
        circuits: Vec<String>,
        /// Per-circuit shot counts (same length as `circuits`), or `None`
        /// to run with the backend's defaults.
        shots: Option<Vec<u64>>,
        /// Tracing context of the submitting client, or `None` when the
        /// client runs with tracing off. A server that receives a context
        /// returns its span subtree on [`Frame::BatchDone`].
        trace: Option<TraceContext>,
    },
    /// Client → server (v4+): store `body` under `id` in this connection's
    /// fragment table (replacing what `id` held) for later
    /// [`Frame::SubmitVariants`]. No reply.
    DefineFragment {
        /// Table slot, below [`MAX_FRAGMENTS`].
        id: u32,
        /// The fragment's registers, slot layout and skeleton; its
        /// [`FragmentBody::weight`] is at most [`MAX_FRAGMENT_WEIGHT`].
        body: FragmentBody,
    },
    /// Client → server (v4+): execute a batch of fragment variants. Answered
    /// exactly like [`Frame::SubmitBatch`], one reply per key. The weights
    /// of the bodies its keys name sum to at most [`MAX_BATCH_WEIGHT`].
    SubmitVariants {
        /// Client-chosen batch identifier, echoed on every reply frame.
        batch: u64,
        /// One key per variant; `fragment` is a [`Frame::DefineFragment`]
        /// id of this connection.
        keys: Vec<VariantKey>,
        /// Per-variant shot counts (same length as `keys`), or `None` to run
        /// with the backend's defaults.
        shots: Option<Vec<u64>>,
        /// Tracing context of the submitting client, as on
        /// [`Frame::SubmitBatch`].
        trace: Option<TraceContext>,
    },
    /// Server → client: one circuit's distribution. Replies go out in index
    /// order once the worker's single batch call returns (the batch runs as
    /// one backend call to preserve its internal parallelism and
    /// deterministic sampling streams).
    CircuitResult {
        /// The submission's batch identifier.
        batch: u64,
        /// Index of the circuit within the submitted batch.
        index: u32,
        /// Probability distribution over the circuit's classical bits.
        distribution: Vec<f64>,
    },
    /// Server → client: one circuit failed on the worker (the other
    /// circuits of the batch still stream their results).
    CircuitFailed {
        /// The submission's batch identifier.
        batch: u64,
        /// Index of the circuit within the submitted batch.
        index: u32,
        /// The failure class: [`WireErrorKind::Backend`] for device faults
        /// (transient — worth retrying elsewhere),
        /// [`WireErrorKind::Protocol`] for deterministic ones (the circuit
        /// did not parse), so the client can preserve the error taxonomy.
        kind: WireErrorKind,
        /// Human-readable failure cause.
        reason: String,
    },
    /// Server → client: every circuit of the batch has been answered.
    BatchDone {
        /// The submission's batch identifier.
        batch: u64,
        /// Number of circuits that executed successfully.
        executed: u32,
        /// The server's span subtree and metric deltas for this batch;
        /// present iff the submission carried a [`TraceContext`].
        telemetry: Option<BatchTelemetry>,
    },
    /// Client → server (v3+): scrape the server's live metrics without a
    /// batch round-trip.
    GetMetrics,
    /// Server → client (v3+): the scrape reply.
    MetricsReply {
        /// Prometheus text plus the structured windowed snapshot.
        report: MetricsReport,
    },
    /// Client → server (v3+): ask for the server's readiness verdict.
    GetHealth,
    /// Server → client (v3+): readiness plus live queue occupancy.
    HealthReply {
        /// Accepting, draining or overloaded.
        state: HealthState,
        /// Batches currently executing or queued across all connections.
        queue_depth: u64,
        /// The deepest the aggregate queue has ever been on this server.
        queue_high_water: u64,
        /// Connections currently open.
        connections: u64,
    },
    /// Heartbeat request (either direction).
    Ping {
        /// Echoed by the matching [`Frame::Pong`].
        nonce: u64,
    },
    /// Heartbeat reply.
    Pong {
        /// The nonce of the [`Frame::Ping`] being answered.
        nonce: u64,
    },
    /// A typed failure; the sender closes the connection afterwards.
    Error {
        /// The failure class.
        kind: WireErrorKind,
        /// Human-readable description.
        message: String,
    },
}

const TAG_CLIENT_HELLO: u8 = 1;
const TAG_SERVER_HELLO: u8 = 2;
const TAG_SUBMIT_BATCH: u8 = 3;
const TAG_CIRCUIT_RESULT: u8 = 4;
const TAG_CIRCUIT_FAILED: u8 = 5;
const TAG_BATCH_DONE: u8 = 6;
const TAG_PING: u8 = 7;
const TAG_PONG: u8 = 8;
const TAG_ERROR: u8 = 9;
const TAG_GET_METRICS: u8 = 10;
const TAG_METRICS_REPLY: u8 = 11;
const TAG_GET_HEALTH: u8 = 12;
const TAG_HEALTH_REPLY: u8 = 13;
const TAG_DEFINE_FRAGMENT: u8 = 14;
const TAG_SUBMIT_VARIANTS: u8 = 15;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying stream failed (disconnect, timeout, reset) — the
    /// transient class; clients map it to
    /// [`CoreError::BackendUnavailable`](qrcc_core::CoreError::BackendUnavailable).
    Io(io::Error),
    /// The peer sent bytes that do not decode as a frame — the protocol
    /// violation class; clients map it to
    /// [`CoreError::Transport`](qrcc_core::CoreError::Transport).
    Malformed {
        /// What failed to decode.
        detail: String,
    },
    /// The peer announced a frame larger than [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The announced length.
        len: u32,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o error: {e}"),
            ProtoError::Malformed { detail } => write!(f, "malformed frame: {detail}"),
            ProtoError::FrameTooLarge { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl ProtoError {
    /// Maps this protocol failure to the dispatch layer's error taxonomy:
    /// I/O failures (disconnects, timeouts) become
    /// [`CoreError::BackendUnavailable`](qrcc_core::CoreError::BackendUnavailable)
    /// — the transient class the dispatcher retries elsewhere — while
    /// malformed or oversized frames become
    /// [`CoreError::Transport`](qrcc_core::CoreError::Transport).
    pub fn into_core(self, backend: &str) -> qrcc_core::CoreError {
        match self {
            ProtoError::Io(e) => qrcc_core::CoreError::BackendUnavailable {
                backend: backend.to_string(),
                reason: format!("connection error: {e}"),
            },
            other => qrcc_core::CoreError::Transport { detail: other.to_string() },
        }
    }

    fn malformed(detail: impl Into<String>) -> Self {
        ProtoError::Malformed { detail: detail.into() }
    }
}

// ---- encoding ----------------------------------------------------------

fn put_opt_u64(out: &mut Vec<u8>, value: Option<u64>) {
    match value {
        Some(v) => {
            out.push(1);
            put_u64(out, v);
        }
        None => out.push(0),
    }
}

/// The shared histogram codec: summary stats plus the sparse non-zero
/// buckets (used by [`BatchTelemetry`] and [`MetricsReport`]).
fn put_histogram(out: &mut Vec<u8>, histogram: &qrcc_core::obs::Histogram) {
    put_u64(out, histogram.count());
    put_u64(out, histogram.sum());
    put_u64(out, histogram.min().unwrap_or(0));
    put_u64(out, histogram.max().unwrap_or(0));
    put_list(out, &histogram.sparse_buckets(), |out, &(index, count)| {
        put_u32(out, index);
        put_u64(out, count);
    });
}

/// A `(name, value)` list entry: the name, then the value with `put`.
fn named<T>(put: impl Fn(&mut Vec<u8>, &T)) -> impl Fn(&mut Vec<u8>, &(String, T)) {
    move |out, (name, value)| {
        put_string(out, name);
        put(out, value);
    }
}

fn put_shots_and_trace(out: &mut Vec<u8>, shots: &Option<Vec<u64>>, trace: &Option<TraceContext>) {
    match shots {
        Some(shots) => {
            out.push(1);
            put_list(out, shots, |out, &s| put_u64(out, s));
        }
        None => out.push(0),
    }
    match trace {
        Some(trace) => {
            out.push(1);
            put_u64(out, trace.trace_id);
            put_u64(out, trace.parent_span);
        }
        None => out.push(0),
    }
}

/// Appends `frame`'s `tag + payload` (without the length prefix) to `out`.
fn encode(frame: &Frame, out: &mut Vec<u8>) {
    let counter = named(|out, &value: &u64| put_u64(out, value));
    let histogram = named(put_histogram);
    match frame {
        Frame::ClientHello { version } => {
            out.push(TAG_CLIENT_HELLO);
            put_u16(out, *version);
        }
        Frame::ServerHello { version, capabilities } => {
            out.push(TAG_SERVER_HELLO);
            put_u16(out, *version);
            put_opt_u64(out, capabilities.max_qubits);
            put_opt_u64(out, capabilities.shots_per_circuit);
            out.push(capabilities.supports_mid_circuit as u8);
            put_string(out, &capabilities.label);
        }
        Frame::SubmitBatch { batch, circuits, shots, trace } => {
            out.push(TAG_SUBMIT_BATCH);
            put_u64(out, *batch);
            put_list(out, circuits, |out, circuit| put_string(out, circuit));
            put_shots_and_trace(out, shots, trace);
        }
        Frame::DefineFragment { id, body } => {
            out.push(TAG_DEFINE_FRAGMENT);
            put_u32(out, *id);
            body.encode(out);
        }
        Frame::SubmitVariants { batch, keys, shots, trace } => {
            out.push(TAG_SUBMIT_VARIANTS);
            put_u64(out, *batch);
            put_list(out, keys, |out, key| {
                put_u32(out, key.fragment as u32);
                put_u64(out, key.ordinal);
                put_u64(out, key.outputs);
            });
            put_shots_and_trace(out, shots, trace);
        }
        Frame::CircuitResult { batch, index, distribution } => {
            out.push(TAG_CIRCUIT_RESULT);
            put_u64(out, *batch);
            put_u32(out, *index);
            put_list(out, distribution, |out, p| put_u64(out, p.to_bits()));
        }
        Frame::CircuitFailed { batch, index, kind, reason } => {
            out.push(TAG_CIRCUIT_FAILED);
            put_u64(out, *batch);
            put_u32(out, *index);
            out.push(kind.code());
            put_string(out, reason);
        }
        Frame::BatchDone { batch, executed, telemetry } => {
            out.push(TAG_BATCH_DONE);
            put_u64(out, *batch);
            put_u32(out, *executed);
            match telemetry {
                Some(telemetry) => {
                    out.push(1);
                    put_list(out, &telemetry.spans, |out, span| {
                        put_u64(out, span.id);
                        put_u64(out, span.parent);
                        put_string(out, &span.name);
                        put_u64(out, span.start_unix_us);
                        put_u64(out, span.duration_us);
                    });
                    put_list(out, &telemetry.counters, &counter);
                    put_list(out, &telemetry.histograms, &histogram);
                }
                None => out.push(0),
            }
        }
        Frame::GetMetrics => {
            out.push(TAG_GET_METRICS);
        }
        Frame::MetricsReply { report } => {
            out.push(TAG_METRICS_REPLY);
            put_string(out, &report.prometheus);
            put_list(out, &report.windowed, &histogram);
            put_list(out, &report.counters, &counter);
            put_list(out, &report.gauges, named(|out, value: &f64| put_u64(out, value.to_bits())));
        }
        Frame::GetHealth => {
            out.push(TAG_GET_HEALTH);
        }
        Frame::HealthReply { state, queue_depth, queue_high_water, connections } => {
            out.push(TAG_HEALTH_REPLY);
            out.push(state.code());
            put_u64(out, *queue_depth);
            put_u64(out, *queue_high_water);
            put_u64(out, *connections);
        }
        Frame::Ping { nonce } => {
            out.push(TAG_PING);
            put_u64(out, *nonce);
        }
        Frame::Pong { nonce } => {
            out.push(TAG_PONG);
            put_u64(out, *nonce);
        }
        Frame::Error { kind, message } => {
            out.push(TAG_ERROR);
            out.push(kind.code());
            put_string(out, message);
        }
    }
}

/// Writes one length-prefixed frame and flushes the stream.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] when the encoded frame would exceed
/// [`MAX_FRAME_LEN`] (the peer would reject it unread, so it is never
/// sent), plus the stream's I/O errors.
pub fn write_frame(stream: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let mut wire = Vec::new();
    append_frame(&mut wire, frame)?;
    stream.write_all(&wire)?;
    stream.flush()
}

/// Appends one length-prefixed frame to `out`, so several frames can leave
/// in one write.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] when the encoded frame would exceed
/// [`MAX_FRAME_LEN`]; `out` is then left as it was.
pub(crate) fn append_frame(out: &mut Vec<u8>, frame: &Frame) -> io::Result<()> {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    encode(frame, out);
    let len = out.len() - start - 4;
    if len as u64 > MAX_FRAME_LEN as u64 {
        out.truncate(start);
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"),
        ));
    }
    out[start..start + 4].copy_from_slice(&(len as u32).to_be_bytes());
    Ok(())
}

// ---- decoding ----------------------------------------------------------

impl From<DecodeError> for ProtoError {
    fn from(error: DecodeError) -> Self {
        ProtoError::Malformed { detail: error.detail }
    }
}

/// The protocol's own compound fields, read through the cursor the
/// fragment-body codec reads through.
trait FrameReader {
    fn opt_u64(&mut self) -> Result<Option<u64>, DecodeError>;
    fn histogram(&mut self) -> Result<qrcc_core::obs::Histogram, DecodeError>;
    fn shots_and_trace(&mut self) -> Result<(Option<Vec<u64>>, Option<TraceContext>), DecodeError>;
}

impl FrameReader for Reader<'_> {
    fn opt_u64(&mut self) -> Result<Option<u64>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            flag => Err(DecodeError::new(format!("invalid option flag {flag}"))),
        }
    }

    fn histogram(&mut self) -> Result<qrcc_core::obs::Histogram, DecodeError> {
        let (count, sum, min, max) = (self.u64()?, self.u64()?, self.u64()?, self.u64()?);
        let buckets = self.list(|d| Ok((d.u32()?, d.u64()?)))?;
        Ok(qrcc_core::obs::Histogram::from_sparse(count, sum, min, max, &buckets))
    }

    fn shots_and_trace(&mut self) -> Result<(Option<Vec<u64>>, Option<TraceContext>), DecodeError> {
        let shots = match self.u8()? {
            0 => None,
            1 => Some(self.list(Reader::u64)?),
            flag => return Err(DecodeError::new(format!("invalid shots flag {flag}"))),
        };
        let trace = match self.u8()? {
            0 => None,
            1 => Some(TraceContext { trace_id: self.u64()?, parent_span: self.u64()? }),
            flag => return Err(DecodeError::new(format!("invalid trace flag {flag}"))),
        };
        Ok((shots, trace))
    }
}

/// Validates a frame's announced length before its payload is read.
///
/// # Errors
///
/// [`ProtoError::Malformed`] for empty frames, [`ProtoError::FrameTooLarge`]
/// beyond [`MAX_FRAME_LEN`].
pub fn validate_len(len: u32) -> Result<usize, ProtoError> {
    if len == 0 {
        return Err(ProtoError::malformed("zero-length frame"));
    }
    if len > MAX_FRAME_LEN {
        return Err(ProtoError::FrameTooLarge { len });
    }
    Ok(len as usize)
}

/// Decodes one `tag + payload` buffer (the bytes after the length prefix).
///
/// # Errors
///
/// [`ProtoError::Malformed`] for unknown tags, truncated payloads, or
/// trailing garbage.
pub fn decode_frame(payload: &[u8]) -> Result<Frame, ProtoError> {
    let mut d = Reader::new(payload);
    let tag = d.u8()?;
    let frame = match tag {
        TAG_CLIENT_HELLO => Frame::ClientHello { version: d.u16()? },
        TAG_SERVER_HELLO => Frame::ServerHello {
            version: d.u16()?,
            capabilities: Capabilities {
                max_qubits: d.opt_u64()?,
                shots_per_circuit: d.opt_u64()?,
                supports_mid_circuit: d.u8()? != 0,
                label: d.string()?,
            },
        },
        TAG_SUBMIT_BATCH => {
            let batch = d.u64()?;
            let circuits = d.list(Reader::string)?;
            let (shots, trace) = d.shots_and_trace()?;
            Frame::SubmitBatch { batch, circuits, shots, trace }
        }
        TAG_DEFINE_FRAGMENT => {
            let id = d.u32()?;
            if id >= MAX_FRAGMENTS {
                return Err(ProtoError::malformed(format!(
                    "fragment id {id} is outside the {MAX_FRAGMENTS}-entry table"
                )));
            }
            Frame::DefineFragment { id, body: FragmentBody::decode(&mut d, MAX_FRAGMENT_WEIGHT)? }
        }
        TAG_SUBMIT_VARIANTS => {
            let batch = d.u64()?;
            let keys = d.list(|d| Ok(VariantKey::new(d.u32()? as usize, d.u64()?, d.u64()?)))?;
            let (shots, trace) = d.shots_and_trace()?;
            Frame::SubmitVariants { batch, keys, shots, trace }
        }
        TAG_CIRCUIT_RESULT => {
            let batch = d.u64()?;
            let index = d.u32()?;
            Frame::CircuitResult { batch, index, distribution: d.list(Reader::f64)? }
        }
        TAG_CIRCUIT_FAILED => {
            let batch = d.u64()?;
            let index = d.u32()?;
            let code = d.u8()?;
            let kind = WireErrorKind::from_code(code)
                .ok_or_else(|| ProtoError::malformed(format!("unknown failure kind {code}")))?;
            Frame::CircuitFailed { batch, index, kind, reason: d.string()? }
        }
        TAG_BATCH_DONE => {
            let batch = d.u64()?;
            let executed = d.u32()?;
            let telemetry = match d.u8()? {
                0 => None,
                1 => Some(BatchTelemetry {
                    spans: d.list(|d| {
                        Ok(qrcc_core::obs::RemoteSpan {
                            id: d.u64()?,
                            parent: d.u64()?,
                            name: d.string()?,
                            start_unix_us: d.u64()?,
                            duration_us: d.u64()?,
                        })
                    })?,
                    counters: d.list(|d| Ok((d.string()?, d.u64()?)))?,
                    histograms: d.list(|d| Ok((d.string()?, d.histogram()?)))?,
                }),
                flag => {
                    return Err(ProtoError::malformed(format!("invalid telemetry flag {flag}")))
                }
            };
            Frame::BatchDone { batch, executed, telemetry }
        }
        TAG_GET_METRICS => Frame::GetMetrics,
        TAG_METRICS_REPLY => Frame::MetricsReply {
            report: MetricsReport {
                prometheus: d.string()?,
                windowed: d.list(|d| Ok((d.string()?, d.histogram()?)))?,
                counters: d.list(|d| Ok((d.string()?, d.u64()?)))?,
                gauges: d.list(|d| Ok((d.string()?, d.f64()?)))?,
            },
        },
        TAG_GET_HEALTH => Frame::GetHealth,
        TAG_HEALTH_REPLY => {
            let code = d.u8()?;
            let state = HealthState::from_code(code)
                .ok_or_else(|| ProtoError::malformed(format!("unknown health state {code}")))?;
            Frame::HealthReply {
                state,
                queue_depth: d.u64()?,
                queue_high_water: d.u64()?,
                connections: d.u64()?,
            }
        }
        TAG_PING => Frame::Ping { nonce: d.u64()? },
        TAG_PONG => Frame::Pong { nonce: d.u64()? },
        TAG_ERROR => {
            let code = d.u8()?;
            let kind = WireErrorKind::from_code(code)
                .ok_or_else(|| ProtoError::malformed(format!("unknown error kind {code}")))?;
            Frame::Error { kind, message: d.string()? }
        }
        unknown => return Err(ProtoError::malformed(format!("unknown frame tag {unknown}"))),
    };
    d.finish()?;
    Ok(frame)
}

/// Reads one length-prefixed frame from the stream.
///
/// # Errors
///
/// [`ProtoError::Io`] for stream failures (including a clean disconnect,
/// surfaced as `UnexpectedEof`), [`ProtoError::FrameTooLarge`] /
/// [`ProtoError::Malformed`] for protocol violations.
pub fn read_frame(stream: &mut impl Read) -> Result<Frame, ProtoError> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf).map_err(ProtoError::Io)?;
    let len = validate_len(u32::from_be_bytes(len_buf))?;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).map_err(ProtoError::Io)?;
    decode_frame(&payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;
    use qrcc_circuit::{Gate, Operation, QubitId};
    use qrcc_core::fragment::SkeletonOp;
    use qrcc_core::gatecut::GateHalf;

    fn roundtrip(frame: Frame) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        let decoded = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(decoded, frame);
    }

    /// Fragment bodies of two small plans: wire cuts only, and wire plus
    /// gate cuts (so every skeleton operation kind is present).
    fn sample_bodies() -> Vec<FragmentBody> {
        use qrcc_core::fragment::FragmentSet;
        use qrcc_core::planner::CutPlanner;
        use qrcc_core::QrccConfig;
        let mut chain = qrcc_circuit::Circuit::new(5);
        chain.h(0).cx(0, 1).cx(1, 2).rz(0.3, 2).cx(2, 3).cx(3, 4);
        let (qaoa, _) = qrcc_circuit::generators::qaoa_regular(6, 3, 1, 11);
        let plans = [(chain, QrccConfig::new(3)), (qaoa, QrccConfig::new(4).with_gate_cuts(true))];
        let mut bodies = Vec::new();
        for (circuit, config) in plans {
            let config =
                config.with_subcircuit_range(2, 3).with_ilp_time_limit(std::time::Duration::ZERO);
            let plan = CutPlanner::new(config).plan(&circuit).unwrap();
            let set = FragmentSet::from_plan(&plan).unwrap();
            bodies.extend(set.fragments.iter().map(|f| f.body().clone()));
        }
        bodies
    }

    /// One or more valid frames of every kind.
    fn sample_frames() -> Vec<Frame> {
        let mut frames = Vec::new();
        frames.push(Frame::ClientHello { version: PROTOCOL_VERSION });
        frames.push(Frame::ServerHello {
            version: PROTOCOL_VERSION,
            capabilities: Capabilities {
                max_qubits: Some(5),
                shots_per_circuit: None,
                supports_mid_circuit: false,
                label: "exact(5q)".into(),
            },
        });
        frames.push(Frame::SubmitBatch {
            batch: 7,
            circuits: vec!["OPENQASM 2.0;\nqreg q[1];\nh q[0];\n".into(), String::new()],
            shots: Some(vec![100, 0]),
            trace: None,
        });
        frames.push(Frame::SubmitBatch { batch: 8, circuits: vec![], shots: None, trace: None });
        frames.push(Frame::SubmitBatch {
            batch: 9,
            circuits: vec!["OPENQASM 2.0;\nqreg q[1];\n".into()],
            shots: None,
            trace: Some(TraceContext { trace_id: u64::MAX, parent_span: 42 }),
        });
        frames.push(Frame::CircuitResult {
            batch: 7,
            index: 1,
            distribution: vec![0.5, 0.25, 0.25, -0.0],
        });
        frames.push(Frame::CircuitFailed {
            batch: 7,
            index: 0,
            kind: WireErrorKind::Backend,
            reason: "too wide".into(),
        });
        frames.push(Frame::CircuitFailed {
            batch: 7,
            index: 1,
            kind: WireErrorKind::Protocol,
            reason: "qasm parse error".into(),
        });
        frames.push(Frame::BatchDone { batch: 7, executed: 1, telemetry: None });
        frames.push(Frame::BatchDone {
            batch: 7,
            executed: 2,
            telemetry: Some(BatchTelemetry {
                spans: vec![
                    qrcc_core::obs::RemoteSpan {
                        id: 1,
                        parent: 0,
                        name: "server.batch".into(),
                        start_unix_us: 1_700_000_000_000_000,
                        duration_us: 1234,
                    },
                    qrcc_core::obs::RemoteSpan {
                        id: 2,
                        parent: 1,
                        name: "server.execute".into(),
                        start_unix_us: 1_700_000_000_000_100,
                        duration_us: 1000,
                    },
                ],
                counters: vec![("server.circuits_ok".into(), 2)],
                histograms: vec![("server.batch_latency_us".into(), {
                    let mut h = qrcc_core::obs::Histogram::new();
                    h.record(1234);
                    h.record(u64::MAX); // saturation bucket survives the wire
                    h
                })],
            }),
        });
        frames.push(Frame::GetMetrics);
        frames.push(Frame::MetricsReply { report: MetricsReport::default() });
        frames.push(Frame::MetricsReply {
            report: MetricsReport {
                prometheus: "# TYPE server_batches counter\nserver_batches 3\n".into(),
                windowed: vec![("server.window_batch_latency_us".into(), {
                    let mut h = qrcc_core::obs::Histogram::new();
                    h.record(250);
                    h.record(99_000);
                    h
                })],
                counters: vec![("server.batches".into(), 3)],
                gauges: vec![
                    ("server.queue_depth".into(), 2.0),
                    ("server.window_req_rate".into(), 0.125),
                ],
            },
        });
        frames.push(Frame::GetHealth);
        for state in [HealthState::Accepting, HealthState::Draining, HealthState::Overloaded] {
            frames.push(Frame::HealthReply {
                state,
                queue_depth: 4,
                queue_high_water: 9,
                connections: 2,
            });
        }
        frames.push(Frame::Ping { nonce: u64::MAX });
        frames.push(Frame::Pong { nonce: 0 });
        frames.push(Frame::Error {
            kind: WireErrorKind::VersionMismatch,
            message: "speak version 1".into(),
        });
        for (id, body) in sample_bodies().into_iter().enumerate() {
            frames.push(Frame::DefineFragment { id: id as u32, body });
        }
        frames.push(Frame::SubmitVariants {
            batch: 10,
            keys: vec![VariantKey::new(0, 5, 0), VariantKey::new(63, u64::MAX, 0b1001)],
            shots: Some(vec![1, 2]),
            trace: Some(TraceContext { trace_id: 3, parent_span: 4 }),
        });
        frames.push(Frame::SubmitVariants { batch: 11, keys: vec![], shots: None, trace: None });
        frames
    }

    #[test]
    fn every_frame_kind_round_trips() {
        let frames = sample_frames();
        assert!(frames.iter().any(|f| matches!(f, Frame::DefineFragment { .. })));
        let gate_cut = |f: &Frame| match f {
            Frame::DefineFragment { body, .. } => {
                body.skeleton().iter().any(|op| matches!(op, SkeletonOp::GateCutHalf { .. }))
            }
            _ => false,
        };
        assert!(frames.iter().any(gate_cut), "a sample body carries a gate-cut half");
        for frame in frames {
            roundtrip(frame);
        }
    }

    #[test]
    fn fragment_bodies_instantiate_identically_after_the_wire() {
        for body in sample_bodies() {
            let mut wire = Vec::new();
            write_frame(&mut wire, &Frame::DefineFragment { id: 0, body: body.clone() }).unwrap();
            let Frame::DefineFragment { body: decoded, .. } =
                read_frame(&mut wire.as_slice()).unwrap()
            else {
                panic!("not a definition");
            };
            for ordinal in 0..body.variant_count() {
                let (ours, theirs) =
                    (body.instantiate(ordinal, 0), decoded.instantiate(ordinal, 0));
                assert_eq!(ours, theirs, "variant {ordinal} of {}", body.name());
            }
        }
    }

    #[test]
    fn a_definition_carries_exactly_the_body_codec_bytes() {
        for (id, body) in sample_bodies().into_iter().enumerate() {
            let mut wire = Vec::new();
            write_frame(&mut wire, &Frame::DefineFragment { id: id as u32, body: body.clone() })
                .unwrap();
            let mut encoded = Vec::new();
            body.encode(&mut encoded);
            // length prefix, tag and id, then the body and nothing else
            assert_eq!(wire[4..9], [TAG_DEFINE_FRAGMENT, 0, 0, 0, id as u8]);
            assert_eq!(wire[9..], encoded[..], "{}", body.name());
        }
    }

    /// The byte offset of a body's `variant_count` inside an encoded
    /// `DefineFragment` frame (after the length prefix, tag, id, name and
    /// three register counts), and of its `num_qubits` / `num_clbits`.
    fn body_offsets(body: &FragmentBody) -> (usize, usize, usize) {
        let name_end = 4 + 1 + 4 + 4 + body.name().len();
        (name_end + 12, name_end, name_end + 4)
    }

    #[test]
    fn fragment_bodies_breaking_an_invariant_are_malformed() {
        let is_slot = |op: &SkeletonOp| {
            matches!(
                op,
                SkeletonOp::Prep { .. }
                    | SkeletonOp::CutMeasure { .. }
                    | SkeletonOp::GateCutHalf { .. }
            )
        };
        let body = sample_bodies()
            .into_iter()
            .find(|body| body.skeleton().iter().any(is_slot))
            .expect("a sample body has a slot");
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::DefineFragment { id: 1, body: body.clone() }).unwrap();
        let (count_at, qubits_at, clbits_at) = body_offsets(&body);
        let patched = |at: usize, bytes: &[u8]| {
            let mut wire = wire.clone();
            wire[at..at + bytes.len()].copy_from_slice(bytes);
            read_frame(&mut wire.as_slice())
        };
        let malformed =
            |result: Result<Frame, ProtoError>| matches!(result, Err(ProtoError::Malformed { .. }));
        assert!(!malformed(patched(count_at, &body.variant_count().to_be_bytes())));
        // a radix product that does not match variant_count
        assert!(malformed(patched(count_at, &(body.variant_count() + 1).to_be_bytes())));
        // every qubit out of range, every clbit out of range
        assert!(malformed(patched(qubits_at, &0u32.to_be_bytes())));
        assert!(malformed(patched(clbits_at, &0u32.to_be_bytes())));
        // an id outside the table
        assert!(malformed(patched(5, &MAX_FRAGMENTS.to_be_bytes())));
        // a slot with place 0
        let slot = body.skeleton().iter().position(is_slot).unwrap();
        let mut place_at = count_at + 8 + 4 + 1;
        for op in &body.skeleton()[..slot] {
            let mut bytes = Vec::new();
            op.encode(&mut bytes);
            place_at += bytes.len();
        }
        assert!(malformed(patched(place_at, &0u64.to_be_bytes())));
    }

    #[test]
    fn bodies_over_the_weight_cap_are_refused_while_decoding() {
        let q = QubitId::new;
        let h = || SkeletonOp::Fixed(Operation::Single { gate: Gate::H, qubit: q(0) });
        let barrier =
            |operands| SkeletonOp::Fixed(Operation::Barrier { qubits: vec![q(1); operands] });
        let gate_cut = |pre: Vec<Operation>| SkeletonOp::GateCutHalf {
            place: 1,
            half: GateHalf::Top,
            qubit: q(0),
            clbit: 0,
            pre,
            post: vec![Operation::Reset { qubit: q(1) }],
        };
        let body = |name: &str, variants: u64, skeleton: Vec<SkeletonOp>| {
            FragmentBody::new(name.into(), 2, 1, 0, variants, skeleton).unwrap()
        };
        let cap = MAX_FRAGMENT_WEIGHT;
        let resets = |n| vec![Operation::Reset { qubit: q(0) }; n];
        let prep_then = |n| {
            let mut skeleton = vec![SkeletonOp::Prep { place: 1, qubit: q(1) }];
            skeleton.extend(std::iter::repeat_with(h).take(n));
            skeleton
        };
        // (body, its weight): the name, every operation, every barrier
        // operand, every operation of a gate-cut half and what a slot
        // instantiates to (two gates for a prep) count
        let cases = [
            (body("", 4, prep_then(cap - 2)), cap),
            (body("a", 4, prep_then(cap - 2)), cap + 1),
            (body("ab", 1, vec![h(); cap - 2]), cap),
            (body("abc", 1, vec![h(); cap - 2]), cap + 1),
            (body("", 1, vec![barrier(cap - 1)]), cap),
            (body("", 1, vec![barrier(cap)]), cap + 1),
            (body("", 6, vec![gate_cut(resets(cap - 2))]), cap),
            (body("", 6, vec![gate_cut(resets(cap - 1))]), cap + 1),
        ];
        for (body, weight) in cases {
            assert_eq!(body.weight(), weight);
            let mut wire = Vec::new();
            write_frame(&mut wire, &Frame::DefineFragment { id: 0, body: body.clone() }).unwrap();
            match read_frame(&mut wire.as_slice()) {
                Ok(Frame::DefineFragment { body: decoded, .. }) if weight <= cap => {
                    assert_eq!(decoded, body);
                }
                Err(ProtoError::Malformed { .. }) if weight > cap => {}
                other => panic!("a body of weight {weight} decoded to {other:?}"),
            }
        }
    }

    #[test]
    fn distributions_survive_bit_exactly() {
        let distribution = vec![1.0 / 3.0, f64::MIN_POSITIVE, 1e-300, 0.12345678901234567];
        let frame = Frame::CircuitResult { batch: 1, index: 0, distribution: distribution.clone() };
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        match read_frame(&mut wire.as_slice()).unwrap() {
            Frame::CircuitResult { distribution: decoded, .. } => {
                for (a, b) in distribution.iter().zip(&decoded) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn truncated_and_garbled_frames_are_malformed() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Ping { nonce: 3 }).unwrap();
        // truncate mid-payload: an i/o error (the reader cannot tell a slow
        // peer from a dead one; timeouts make the call)
        let cut = wire.len() - 2;
        assert!(matches!(read_frame(&mut wire[..cut].as_ref()), Err(ProtoError::Io(_))));
        // declare 2 extra bytes the payload doesn't use: trailing garbage
        let mut padded = wire.clone();
        let len = u32::from_be_bytes(padded[..4].try_into().unwrap()) + 2;
        padded[..4].copy_from_slice(&len.to_be_bytes());
        padded.extend_from_slice(&[0, 0]);
        assert!(matches!(read_frame(&mut padded.as_slice()), Err(ProtoError::Malformed { .. })));
        // unknown tag
        let mut unknown = wire;
        unknown[4] = 200;
        assert!(matches!(read_frame(&mut unknown.as_slice()), Err(ProtoError::Malformed { .. })));
    }

    #[test]
    fn oversized_frames_are_refused_at_write_time() {
        // a 2^23-entry distribution encodes past the 64 MiB cap: the writer
        // must error out instead of sending a frame the peer will reject
        let frame = Frame::CircuitResult { batch: 1, index: 0, distribution: vec![0.0; 1 << 23] };
        let mut wire = Vec::new();
        let err = write_frame(&mut wire, &frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(wire.is_empty(), "nothing may reach the stream");
    }

    #[test]
    fn oversized_frames_are_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
        wire.push(TAG_PING);
        assert!(matches!(
            read_frame(&mut wire.as_slice()),
            Err(ProtoError::FrameTooLarge { len }) if len == MAX_FRAME_LEN + 1
        ));
        let mut empty = Vec::new();
        empty.extend_from_slice(&0u32.to_be_bytes());
        assert!(matches!(read_frame(&mut empty.as_slice()), Err(ProtoError::Malformed { .. })));
    }

    #[test]
    fn io_errors_map_to_backend_unavailable_and_violations_to_transport() {
        use qrcc_core::CoreError;
        let io = ProtoError::Io(io::Error::new(io::ErrorKind::ConnectionReset, "gone"));
        assert!(matches!(io.into_core("srv"), CoreError::BackendUnavailable { .. }));
        let garbled = ProtoError::malformed("unknown frame tag 200");
        assert!(matches!(garbled.into_core("srv"), CoreError::Transport { .. }));
        let oversized = ProtoError::FrameTooLarge { len: u32::MAX };
        assert!(matches!(oversized.into_core("srv"), CoreError::Transport { .. }));
    }

    /// What a decoded frame must satisfy: it re-encodes to a frame that
    /// decodes to itself, and a fragment body instantiates every variant
    /// it admits without panicking.
    fn check_decoded(frame: &Frame) -> Result<(), TestCaseError> {
        let mut wire = Vec::new();
        if append_frame(&mut wire, frame).is_ok() {
            prop_assert_eq!(&read_frame(&mut wire.as_slice()).unwrap(), frame);
        }
        if let Frame::DefineFragment { body, .. } = frame {
            for ordinal in [0, body.variant_count() / 2, body.variant_count() - 1] {
                let circuit = body.instantiate(ordinal, 0);
                prop_assert_eq!(circuit.num_qubits(), body.num_qubits());
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// Arbitrary bytes — behind any tag, bare or length-prefixed —
        /// decode to a typed error or a well-formed frame, never a panic.
        #[test]
        fn arbitrary_bytes_never_panic_the_decoder(
            bytes in collection::vec(any::<u8>(), 0..192),
            tag in 0..20u8,
            prefixed in any::<bool>(),
        ) {
            let mut payload = vec![tag];
            payload.extend_from_slice(&bytes);
            if let Ok(frame) = decode_frame(&payload) {
                check_decoded(&frame)?;
            }
            let mut wire = bytes.clone();
            if prefixed {
                wire.splice(0..0, (payload.len() as u32).to_be_bytes());
                wire.insert(4, tag);
            }
            if let Ok(frame) = read_frame(&mut wire.as_slice()) {
                check_decoded(&frame)?;
            }
        }

        /// A valid frame of any kind with a few bytes replaced, inserted or
        /// deleted — payload bytes and length prefix alike — reads as a
        /// typed error or a well-formed frame, never a panic.
        #[test]
        fn mutated_frames_never_panic_the_decoder(
            which in 0..64usize,
            mutations in collection::vec((any::<usize>(), any::<u8>(), 0..3u8), 1..5),
        ) {
            thread_local! {
                static FRAMES: Vec<Vec<u8>> = sample_frames()
                    .iter()
                    .map(|frame| {
                        let mut wire = Vec::new();
                        append_frame(&mut wire, frame).unwrap();
                        wire
                    })
                    .collect();
            }
            let mut wire = FRAMES.with(|frames| frames[which % frames.len()].clone());
            for (at, byte, kind) in mutations {
                let at = at % (wire.len() + 1);
                match kind {
                    0 if at < wire.len() => wire[at] = byte,
                    1 => wire.insert(at, byte),
                    _ if at < wire.len() => {
                        wire.remove(at);
                    }
                    _ => wire.push(byte),
                }
            }
            if let Ok(frame) = read_frame(&mut wire.as_slice()) {
                check_decoded(&frame)?;
            }
            if wire.len() > 4 {
                if let Ok(frame) = decode_frame(&wire[4..]) {
                    check_decoded(&frame)?;
                }
            }
        }
    }
}
