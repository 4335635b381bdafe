//! Batch-first execution layer for fragment variants.
//!
//! Execution follows the **enumerate → dedup → route → dispatch → fold →
//! contract** protocol:
//!
//! 1. **Enumerate** — reconstructors list every
//!    [`VariantRequest`] they need as pure
//!    data (a structural [`VariantKey`]: fragment id, init states, cut bases,
//!    gate-cut instances, output bases), optionally tagged with a
//!    reconstruction weight. No circuits are built yet.
//! 2. **Deduplicate** — duplicate keys collapse, then structurally identical
//!    circuits collapse too (a 64-bit
//!    [`structural hash`](qrcc_circuit::Circuit::structural_hash) catches e.g.
//!    gate-cut instances 3/4, which instantiate identically on the measuring
//!    half). The surviving circuits form the batch.
//! 3. **Route** — a [`Scheduler`](crate::schedule::Scheduler) places each
//!    deduplicated circuit on a compatible backend of a
//!    [`DeviceRegistry`](crate::schedule::DeviceRegistry) (heterogeneous
//!    qubit counts, noise, shot costs; a single backend is a one-entry
//!    registry) and splits a global shot budget across the batch by
//!    reconstruction-variance weight (ShotQC-style). [`execute_requests`]
//!    skips routing and dispatch — the whole batch goes to one backend as
//!    **one** [`ExecutionBackend::run_batch`] call — and is the reference
//!    the scheduled path is tested against.
//! 4. **Dispatch** — the [`dispatch`](crate::dispatch) event loop drives the
//!    routed sub-batches through one worker thread per backend, keeping at
//!    most [`SchedulePolicy::max_in_flight_chunks`] chunks undelivered (a
//!    slow consumer exerts backpressure on dispatch) and re-routing jobs
//!    whose backend fails to another compatible backend with the failer
//!    excluded, up to [`SchedulePolicy::max_retries`] times. Results merge
//!    into [`ExecutionResults`] via the structural key
//!    (`ExecutionResults::extend`), which also accumulates per-backend
//!    routing, shots-spent, retry and failure accounting.
//! 5. **Fold** — each delivered chunk folds into per-fragment cut tensors
//!    ([`ProbabilityAccumulator`](crate::reconstruct::ProbabilityAccumulator) /
//!    [`ExpectationAccumulator`](crate::reconstruct::ExpectationAccumulator)),
//!    sorted by `(fragment, variant ordinal)`, so tensor building overlaps
//!    device execution. A blocking `reconstruct` (e.g. over an
//!    [`execute_requests`] batch) folds a whole [`ExecutionResults`] the
//!    same way, as one chunk, so both agree bit for bit.
//! 6. **Contract** — once every variant has arrived, only the final
//!    contraction (dense mixed-radix loop or pairwise fragment-tensor
//!    contraction) remains; see [`crate::reconstruct`].
//!
//! [`SchedulePolicy::max_in_flight_chunks`]: crate::SchedulePolicy::max_in_flight_chunks
//! [`SchedulePolicy::max_retries`]: crate::SchedulePolicy::max_retries
//!
//! Simple backends only implement the per-circuit [`ExecutionBackend::run_one`];
//! the default `run_batch` loops over it serially and the default
//! `run_batch_with_shots` ignores the per-circuit shot counts (exact
//! backends have no sampling noise). Memoisation is not a backend's job: the
//! shot-aware [`ResultCache`](crate::cache::ResultCache) sits in the
//! scheduled dispatch path (see
//! [`DeviceRegistry::with_result_cache`](crate::schedule::DeviceRegistry::with_result_cache))
//! and in front of a remote worker's backend (`QrccServer::with_result_cache`
//! in `qrcc-net`).

use crate::fragment::{FragmentSet, VariantKey, VariantRequest};
use crate::CoreError;
use qrcc_circuit::Circuit;
use qrcc_sim::branching::classical_distribution;
use qrcc_sim::compile::{interpreted_forced_by_env, CompileStats, KernelCache};
use qrcc_sim::device::Device;
use qrcc_sim::{Counts, SimError};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Executes fragment-variant circuits and reports the probability
/// distribution over their classical bits (length `2^num_clbits`).
///
/// Backends must be [`Sync`]: batches are executed with data parallelism, and
/// future dispatchers (async, remote, multi-backend) share the same bound.
pub trait ExecutionBackend: Sync {
    /// Executes one circuit and returns the distribution over its classical
    /// bits.
    ///
    /// # Errors
    ///
    /// Implementations return [`CoreError::Simulation`] when the circuit
    /// cannot be executed (too wide, no measurements, ...).
    fn run_one(&self, circuit: &Circuit) -> Result<Vec<f64>, CoreError>;

    /// Executes a batch of circuits, returning one result per input circuit
    /// in order.
    ///
    /// The default implementation loops over [`ExecutionBackend::run_one`]
    /// serially, so simple backends stay one method; parallel and remote
    /// backends override it.
    fn run_batch(&self, circuits: &[Circuit]) -> Vec<Result<Vec<f64>, CoreError>> {
        circuits.iter().map(|c| self.run_one(c)).collect()
    }

    /// Executes a batch with an explicit per-circuit shot count, as assigned
    /// by a [`ShotAllocator`](crate::schedule::ShotAllocator).
    ///
    /// The default implementation ignores the shot counts and delegates to
    /// [`ExecutionBackend::run_batch`] — correct for exact backends, whose
    /// output has no sampling noise. Sampling backends override it
    /// ([`ShotsBackend`] runs circuit `i` with `shots[i]` shots; a circuit
    /// with zero shots fails with the backend's zero-shot error and consumes
    /// no sampling stream).
    fn run_batch_with_shots(
        &self,
        circuits: &[Circuit],
        shots: &[u64],
    ) -> Vec<Result<Vec<f64>, CoreError>> {
        debug_assert_eq!(circuits.len(), shots.len(), "one shot count per circuit");
        self.run_batch(circuits)
    }

    /// The widest circuit this backend can run, or `None` when unbounded.
    /// The scheduler's router only places circuits on backends that fit.
    fn max_qubits(&self) -> Option<usize> {
        None
    }

    /// Whether this backend can run `circuit` — the router's placement
    /// predicate. The default checks only [`ExecutionBackend::max_qubits`];
    /// device-backed backends refine it (e.g. mid-circuit measurement
    /// support).
    fn can_run(&self, circuit: &Circuit) -> bool {
        self.max_qubits().is_none_or(|max| circuit.num_qubits() <= max)
    }

    /// The backend's default shot count per circuit, or `None` for exact
    /// (noise-free) backends. Used for shots-spent accounting and as the
    /// router's load estimate when no global budget overrides it.
    fn shots_per_circuit(&self) -> Option<u64> {
        None
    }

    /// A short human-readable label for accounting
    /// ([`ExecutionResults::routing`]).
    fn label(&self) -> String {
        "backend".into()
    }

    /// Number of circuits executed so far (for instance accounting).
    fn executions(&self) -> u64;

    /// Cumulative kernel-compilation statistics of the backend's simulator,
    /// or `None` when the backend interprets gate-by-gate (or is not a
    /// simulator at all). Backends that run the compiled kernel path
    /// ([`ExactBackend`], [`ShotsBackend`]) report their
    /// [`KernelCache`] aggregate here; the
    /// default keeps non-simulating backends at `None`.
    fn compile_stats(&self) -> Option<CompileStats> {
        None
    }
}

/// How much work one backend performed for a batch: circuits routed to it,
/// shots spent there (0 for exact backends), and the dispatch-layer
/// lifecycle counters (jobs that failed here, circuits that landed here as
/// retries after failing elsewhere).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BackendUsage {
    /// The backend's label (registry name, or [`ExecutionBackend::label`]).
    pub backend: String,
    /// Circuits executed successfully on this backend.
    pub circuits: u64,
    /// Total shots spent on this backend (0 when the backend is exact).
    pub shots: u64,
    /// Circuit executions that **failed** on this backend (each one either
    /// became a retry elsewhere or exhausted the retry budget).
    pub failures: u64,
    /// Successful circuit executions that reached this backend as a
    /// **retry** after failing on another backend.
    pub retries: u64,
}

impl BackendUsage {
    /// Merges this usage into a per-label list: an existing entry with the
    /// same label accumulates, otherwise the usage is appended. The one
    /// definition of "merge usage by label", shared by
    /// [`ExecutionResults::record_usage`] and the scheduler's report.
    pub(crate) fn merge_into(self, list: &mut Vec<BackendUsage>) {
        match list.iter_mut().find(|u| u.backend == self.backend) {
            Some(existing) => {
                existing.circuits += self.circuits;
                existing.shots += self.shots;
                existing.failures += self.failures;
                existing.retries += self.retries;
            }
            None => list.push(self),
        }
    }
}

/// Distributions of an executed batch, keyed by structural [`VariantKey`].
///
/// Produced by [`execute_requests`] / the
/// [`Scheduler`](crate::schedule::Scheduler) and consumed by the
/// reconstructors. Also records the dedup accounting — how many variants
/// were requested, how many unique keys survived, how many circuits were
/// actually executed after structural dedup — and the per-backend routing
/// stats ([`ExecutionResults::routing`]).
#[derive(Debug, Clone, Default)]
pub struct ExecutionResults {
    distributions: HashMap<VariantKey, Vec<f64>>,
    requested: u64,
    executed: u64,
    routing: Vec<BackendUsage>,
}

impl ExecutionResults {
    /// An empty result set carrying only dedup accounting — the scheduler
    /// fills it key by key as a chunk's backends return.
    pub(crate) fn new_accounted(requested: u64, executed: u64) -> Self {
        ExecutionResults { distributions: HashMap::new(), requested, executed, routing: Vec::new() }
    }

    /// Stores one key's distribution (later inserts win).
    pub(crate) fn insert(&mut self, key: VariantKey, distribution: Vec<f64>) {
        self.distributions.insert(key, distribution);
    }

    /// The distribution for `key`, or an error naming the missing fragment —
    /// the consume-phase signal that the enumerate phase forgot a variant.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MissingVariant`] when `key` was not part of the
    /// executed batch.
    pub fn distribution(&self, key: &VariantKey) -> Result<&[f64], CoreError> {
        self.distributions
            .get(key)
            .map(Vec::as_slice)
            .ok_or(CoreError::MissingVariant { fragment: key.fragment })
    }

    /// Number of distinct variant keys held.
    pub fn unique_variants(&self) -> usize {
        self.distributions.len()
    }

    /// Total number of variant requests that went into this batch, including
    /// duplicates collapsed by dedup.
    pub fn requested(&self) -> u64 {
        self.requested
    }

    /// Number of circuits actually executed (after key dedup *and*
    /// structural-circuit dedup).
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Whether no variants are held.
    pub fn is_empty(&self) -> bool {
        self.distributions.is_empty()
    }

    /// Iterates over the held `(key, distribution)` pairs (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (&VariantKey, &[f64])> {
        self.distributions.iter().map(|(k, d)| (k, d.as_slice()))
    }

    /// Per-backend routing stats: which backends ran how many circuits with
    /// how many shots. A single-backend [`execute_requests`] batch holds one
    /// entry; scheduled batches hold one per routed backend.
    pub fn routing(&self) -> &[BackendUsage] {
        &self.routing
    }

    /// Records work done by one backend, merging with an existing entry of
    /// the same label.
    pub fn record_usage(&mut self, usage: BackendUsage) {
        usage.merge_into(&mut self.routing);
    }

    /// Merges another batch into this one (later batches win on key
    /// collisions). Accounting is summed; routing stats merge by label.
    pub fn extend(&mut self, other: ExecutionResults) {
        self.distributions.extend(other.distributions);
        self.requested += other.requested;
        self.executed += other.executed;
        for usage in other.routing {
            self.record_usage(usage);
        }
    }
}

/// The dedup phase's output: the unique variant keys of a request list, the
/// deduplicated circuits they instantiate, and the key → circuit mapping.
/// Shared by the single-backend [`execute_requests`] path and the
/// multi-backend [`Scheduler`](crate::schedule::Scheduler).
#[derive(Debug, Clone)]
pub(crate) struct PreparedBatch<'a> {
    /// First-seen-ordered unique keys.
    pub(crate) unique_keys: Vec<&'a VariantKey>,
    /// The deduplicated circuits to execute.
    pub(crate) circuits: Vec<Circuit>,
    /// For each unique key, the index of its circuit in `circuits`.
    pub(crate) circuit_of_key: Vec<usize>,
    /// Per unique key, the largest caller-supplied request weight among its
    /// duplicate requests.
    pub(crate) key_weight: Vec<f64>,
    /// Per unique key, how many duplicate requests collapsed into it.
    pub(crate) key_count: Vec<u64>,
    /// Total requests before dedup.
    pub(crate) requested: u64,
}

/// Phase 2 of the protocol: deduplicates `requests` by [`VariantKey`],
/// instantiates each unique key once, and collapses structurally identical
/// circuits (verifying equality on hash-bucket collisions) so e.g. the two
/// measuring gate-cut instances of a half run once.
///
/// # Errors
///
/// [`CoreError::InvalidCutSolution`] for keys that do not match `fragments`.
pub(crate) fn prepare_batch<'a>(
    fragments: &FragmentSet,
    requests: &'a [VariantRequest],
) -> Result<PreparedBatch<'a>, CoreError> {
    // Dedup by key, preserving first-seen order for reproducible batches.
    let mut seen: HashMap<&VariantKey, usize> = HashMap::with_capacity(requests.len());
    let mut unique_keys: Vec<&VariantKey> = Vec::new();
    let mut key_weight: Vec<f64> = Vec::new();
    let mut key_count: Vec<u64> = Vec::new();
    for request in requests {
        match seen.get(&request.key) {
            Some(&slot) => {
                key_weight[slot] = key_weight[slot].max(request.weight);
                key_count[slot] += 1;
            }
            None => {
                seen.insert(&request.key, unique_keys.len());
                unique_keys.push(&request.key);
                key_weight.push(request.weight);
                key_count.push(1);
            }
        }
    }

    let mut circuits: Vec<Circuit> = Vec::new();
    let mut circuit_of_key: Vec<usize> = Vec::with_capacity(unique_keys.len());
    let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
    for key in &unique_keys {
        let circuit = fragments.instantiate_key(key)?;
        let hash = circuit.structural_hash();
        let bucket = buckets.entry(hash).or_default();
        let existing = bucket.iter().copied().find(|&i| circuits[i].structurally_equal(&circuit));
        let index = match existing {
            Some(i) => i,
            None => {
                circuits.push(circuit);
                bucket.push(circuits.len() - 1);
                circuits.len() - 1
            }
        };
        circuit_of_key.push(index);
    }

    Ok(PreparedBatch {
        unique_keys,
        circuits,
        circuit_of_key,
        key_weight,
        key_count,
        requested: requests.len() as u64,
    })
}

impl PreparedBatch<'_> {
    /// Assembles [`ExecutionResults`] from per-circuit outcomes covering
    /// `self.circuits` in order, propagating the first error.
    pub(crate) fn into_results(
        self,
        outcomes: Vec<Result<Vec<f64>, CoreError>>,
    ) -> Result<ExecutionResults, CoreError> {
        if outcomes.len() != self.circuits.len() {
            return Err(CoreError::InvalidCutSolution {
                reason: format!(
                    "backend returned {} results for a batch of {} circuits",
                    outcomes.len(),
                    self.circuits.len()
                ),
            });
        }
        let mut distributions: Vec<Vec<f64>> = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            distributions.push(outcome?);
        }
        let mut results = ExecutionResults {
            distributions: HashMap::with_capacity(self.unique_keys.len()),
            requested: self.requested,
            executed: self.circuits.len() as u64,
            routing: Vec::new(),
        };
        for (key, &circuit_index) in self.unique_keys.iter().zip(&self.circuit_of_key) {
            results.distributions.insert((*key).clone(), distributions[circuit_index].clone());
        }
        Ok(results)
    }
}

/// Phases 2+4 for a single backend: deduplicates `requests` by
/// [`VariantKey`], collapses structurally identical circuits, and executes
/// the survivors as one [`ExecutionBackend::run_batch`] call. Multi-backend
/// routing, shot allocation and chunking live in
/// [`crate::schedule::Scheduler`].
///
/// # Errors
///
/// * [`CoreError::InvalidCutSolution`] for keys that do not match `fragments`.
/// * The first backend error of the batch, if any.
pub fn execute_requests(
    fragments: &FragmentSet,
    requests: &[VariantRequest],
    backend: &dyn ExecutionBackend,
) -> Result<ExecutionResults, CoreError> {
    let batch = prepare_batch(fragments, requests)?;
    // One batch submission; backends parallelise internally.
    let outcomes = backend.run_batch(&batch.circuits);
    let circuits = batch.circuits.len() as u64;
    let mut results = batch.into_results(outcomes)?;
    results.record_usage(BackendUsage {
        backend: backend.label(),
        circuits,
        shots: circuits * backend.shots_per_circuit().unwrap_or(0),
        ..BackendUsage::default()
    });
    Ok(results)
}

/// Exact backend: the noise-free distribution over a circuit's classical
/// bits from a state-vector simulator. Batches run rayon-parallel across all
/// cores.
///
/// By default circuits run through the compiled kernel path: each circuit is
/// lowered to a fused [`KernelProgram`](qrcc_sim::compile::KernelProgram)
/// memoised in a [`KernelCache`], so QRCC's deduplicated variant batches —
/// which differ only in their init prologue and measurement epilogue — share
/// one compiled body, and read out with
/// [`FramedProgram::classical_distribution`](qrcc_sim::compile::FramedProgram::classical_distribution).
///
/// **Cost model.** Terminal measurements (wire never used again, clbit never
/// rewritten) do not branch: they are marginalised out of the final state in
/// one sweep. Only mid-circuit measures and resets — the qubit-reuse pattern —
/// split the state, so a circuit on `n` qubits costs O(kernels · 2^n) per
/// leaf with leaves ≤ 2^(mid-circuit measures + resets), and holds one
/// 2^n-amplitude buffer per *live* branch depth, not per leaf. A
/// `measure_all` fragment is one leaf whatever its width;
/// [`CompileStats::branch_points`] (in [`ExecutionBackend::compile_stats`])
/// says how many splits a batch asked for.
///
/// [`ExactBackend::interpreted`] (or the `QRCC_SIM_INTERPRETED=1` environment
/// variable) opts back into the per-gate interpreter, which branches at
/// every measure (2^measures states): the differential-testing oracle, for
/// small circuits only.
///
/// An optional width cap ([`ExactBackend::capped`]) makes the backend refuse
/// circuits wider than a pretend device — useful for registering exact
/// "devices" of different sizes in a
/// [`DeviceRegistry`](crate::schedule::DeviceRegistry) and checking
/// multi-device routing against noise-free ground truth.
#[derive(Debug)]
pub struct ExactBackend {
    count: AtomicU64,
    max_qubits: Option<usize>,
    kernels: KernelCache,
    use_compiled: bool,
}

impl Default for ExactBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl ExactBackend {
    /// Creates the backend (unbounded width, compiled kernel path).
    pub fn new() -> Self {
        ExactBackend {
            count: AtomicU64::new(0),
            max_qubits: None,
            kernels: KernelCache::new(),
            use_compiled: !interpreted_forced_by_env(),
        }
    }

    /// Creates a backend that refuses circuits wider than `max_qubits`.
    pub fn capped(max_qubits: usize) -> Self {
        ExactBackend { max_qubits: Some(max_qubits), ..ExactBackend::new() }
    }

    /// Creates a backend that interprets gate-by-gate instead of compiling
    /// kernel programs — the differential-testing reference path.
    pub fn interpreted() -> Self {
        ExactBackend { use_compiled: false, ..ExactBackend::new() }
    }

    /// Opts this backend out of the compiled kernel path (builder form).
    pub fn with_interpreted(mut self) -> Self {
        self.use_compiled = false;
        self
    }

    /// The backend's kernel cache (empty when running interpreted).
    pub fn kernel_cache(&self) -> &KernelCache {
        &self.kernels
    }

    fn check_width(&self, circuit: &Circuit) -> Result<(), CoreError> {
        match self.max_qubits {
            Some(max) if circuit.num_qubits() > max => {
                Err(CoreError::Simulation(qrcc_sim::SimError::TooManyQubits {
                    required: circuit.num_qubits(),
                    available: max,
                }))
            }
            _ => Ok(()),
        }
    }

    fn distribution(&self, circuit: &Circuit) -> Result<Vec<f64>, CoreError> {
        self.check_width(circuit)?;
        if self.use_compiled {
            Ok(self.kernels.get_or_compile(circuit).classical_distribution()?)
        } else {
            Ok(classical_distribution(circuit)?)
        }
    }
}

impl ExecutionBackend for ExactBackend {
    fn run_one(&self, circuit: &Circuit) -> Result<Vec<f64>, CoreError> {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.distribution(circuit)
    }

    fn run_batch(&self, circuits: &[Circuit]) -> Vec<Result<Vec<f64>, CoreError>> {
        self.count.fetch_add(circuits.len() as u64, Ordering::Relaxed);
        circuits.par_iter().map(|circuit| self.distribution(circuit)).collect()
    }

    fn max_qubits(&self) -> Option<usize> {
        self.max_qubits
    }

    fn label(&self) -> String {
        match self.max_qubits {
            Some(max) => format!("exact({max}q)"),
            None => "exact".into(),
        }
    }

    fn executions(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    fn compile_stats(&self) -> Option<CompileStats> {
        self.use_compiled.then(|| self.kernels.stats())
    }
}

/// Shots backend: runs each variant on a simulated [`Device`] (optionally
/// noisy) with a fixed shot budget and reports the empirical distribution.
///
/// What a shot costs is the device's business ([`Device::execute`]): on a
/// noiseless device a circuit is one sampled readout of its compiled program
/// — shots are dealt out at the measurements that have to branch, so qubit
/// reuse and measuring gate-cut instances cost a few more sweeps per
/// circuit, not a fresh simulation per shot — and on a noisy one every shot
/// is its own per-gate trajectory.
///
/// Batches run rayon-parallel; every circuit in a batch gets its own
/// deterministic sampling stream (derived from the batch base position), so a
/// batched run reproduces the serial execution of the same circuits in order,
/// independent of thread count and scheduling.
///
/// The backend reports dense probability vectors, so besides what the device
/// refuses it refuses circuits over more than
/// [`Counts::MAX_DENSE_BITS`](qrcc_sim::Counts::MAX_DENSE_BITS) classical
/// bits, with [`SimError::TooManyClbits`].
#[derive(Debug)]
pub struct ShotsBackend {
    device: Device,
    shots: u64,
}

impl ShotsBackend {
    /// Creates a backend running `shots` shots per variant on `device`.
    pub fn new(device: Device, shots: u64) -> Self {
        ShotsBackend { device, shots }
    }

    /// The underlying device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Shots per variant.
    pub fn shots(&self) -> u64 {
        self.shots
    }

    /// Whether `circuit` can run here at all, decided without executing it
    /// or consuming a sampling stream: the device accepts it and its
    /// histogram can be densified.
    fn check(&self, circuit: &Circuit) -> Result<(), SimError> {
        self.device.validate(circuit)?;
        if circuit.num_clbits() > Counts::MAX_DENSE_BITS {
            return Err(SimError::TooManyClbits {
                required: circuit.num_clbits(),
                available: Counts::MAX_DENSE_BITS,
            });
        }
        Ok(())
    }

    /// The shared batch path: executes circuit `i` with `shots_of(i)` shots
    /// on its own deterministic sampling stream.
    ///
    /// Stream reservation must stay deterministic even when some circuits
    /// error mid-batch: a stream is assigned to circuit `i` **iff** a serial
    /// [`ShotsBackend::run_one`] pass over the same circuits would consume
    /// one for it — its shot count is positive and it passes
    /// [`ShotsBackend::check`]. Both are decided *before* any sampling, so a
    /// failing circuit keeps its typed error and can never shift the streams
    /// of the circuits after it, regardless of where in the batch it sits or
    /// how the per-circuit shot allocation splits the budget.
    fn run_batch_streams(
        &self,
        circuits: &[Circuit],
        shots_of: impl Fn(usize) -> u64 + Sync,
    ) -> Vec<Result<Vec<f64>, CoreError>> {
        let mut runnable = 0;
        let offsets: Vec<Result<u64, SimError>> = circuits
            .iter()
            .enumerate()
            .map(|(i, circuit)| {
                if shots_of(i) == 0 {
                    return Err(SimError::ZeroShots);
                }
                self.check(circuit)?;
                runnable += 1;
                Ok(runnable - 1)
            })
            .collect();
        let base = self.device.reserve_streams(runnable);
        circuits
            .par_iter()
            .enumerate()
            .map(|(i, circuit)| {
                let stream = base + offsets[i].clone()?;
                let counts = self.device.execute_stream(circuit, shots_of(i), stream)?;
                Ok(counts.probability_vector())
            })
            .collect()
    }
}

impl ExecutionBackend for ShotsBackend {
    fn run_one(&self, circuit: &Circuit) -> Result<Vec<f64>, CoreError> {
        self.check(circuit)?;
        let counts = self.device.execute(circuit, self.shots)?;
        Ok(counts.probability_vector())
    }

    fn run_batch(&self, circuits: &[Circuit]) -> Vec<Result<Vec<f64>, CoreError>> {
        self.run_batch_streams(circuits, |_| self.shots)
    }

    fn run_batch_with_shots(
        &self,
        circuits: &[Circuit],
        shots: &[u64],
    ) -> Vec<Result<Vec<f64>, CoreError>> {
        debug_assert_eq!(circuits.len(), shots.len(), "one shot count per circuit");
        self.run_batch_streams(circuits, |i| shots[i])
    }

    fn max_qubits(&self) -> Option<usize> {
        Some(self.device.config().num_qubits)
    }

    fn can_run(&self, circuit: &Circuit) -> bool {
        self.check(circuit).is_ok()
    }

    fn shots_per_circuit(&self) -> Option<u64> {
        Some(self.shots)
    }

    fn label(&self) -> String {
        format!("shots({}q)", self.device.config().num_qubits)
    }

    fn executions(&self) -> u64 {
        self.device.executions()
    }

    fn compile_stats(&self) -> Option<CompileStats> {
        self.device.compile_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::FragmentVariant;
    use crate::planner::CutPlanner;
    use crate::QrccConfig;
    use qrcc_sim::device::DeviceConfig;
    use std::time::Duration;

    fn bell_with_measures() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        c
    }

    #[test]
    fn exact_backend_returns_exact_distribution() {
        let backend = ExactBackend::new();
        let dist = backend.run_one(&bell_with_measures()).unwrap();
        assert!((dist[0b00] - 0.5).abs() < 1e-12);
        assert!((dist[0b11] - 0.5).abs() < 1e-12);
        assert_eq!(backend.executions(), 1);
    }

    #[test]
    fn shots_backend_approximates_the_distribution() {
        let backend = ShotsBackend::new(Device::new(DeviceConfig::ideal(2).with_seed(7)), 20_000);
        let dist = backend.run_one(&bell_with_measures()).unwrap();
        assert!((dist[0b00] - 0.5).abs() < 0.02);
        assert!((dist[0b01]).abs() < 1e-12);
        assert_eq!(backend.shots(), 20_000);
    }

    #[test]
    fn batch_matches_serial_execution_exactly() {
        let mut circuits = Vec::new();
        for n in 0..6 {
            let mut c = Circuit::new(3);
            c.h(0).ry(0.2 * (n as f64 + 1.0), 1).cx(0, 1).cx(1, 2).measure_all();
            circuits.push(c);
        }
        let serial = ExactBackend::new();
        let serial_dists: Vec<Vec<f64>> =
            circuits.iter().map(|c| serial.run_one(c).unwrap()).collect();
        let batched = ExactBackend::new();
        let batch_dists = batched.run_batch(&circuits);
        assert_eq!(batched.executions(), circuits.len() as u64);
        for (a, b) in serial_dists.iter().zip(batch_dists) {
            let b = b.unwrap();
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn shots_batch_is_deterministic_and_matches_serial_order() {
        let mut circuits = Vec::new();
        for n in 0..4 {
            let mut c = Circuit::new(2);
            c.h(0).ry(0.3 * (n as f64 + 1.0), 1).cx(0, 1).measure_all();
            circuits.push(c);
        }
        let serial = ShotsBackend::new(Device::new(DeviceConfig::ideal(2).with_seed(5)), 2_000);
        let serial_dists: Vec<Vec<f64>> =
            circuits.iter().map(|c| serial.run_one(c).unwrap()).collect();
        let batched = ShotsBackend::new(Device::new(DeviceConfig::ideal(2).with_seed(5)), 2_000);
        let batch_dists = batched.run_batch(&circuits);
        for (a, b) in serial_dists.iter().zip(batch_dists) {
            assert_eq!(a, &b.unwrap(), "batch must reproduce the serial sampling streams");
        }
    }

    #[test]
    fn default_run_batch_loops_run_one() {
        // A minimal backend implementing only run_one still gets batching.
        struct OneShot;
        impl ExecutionBackend for OneShot {
            fn run_one(&self, circuit: &Circuit) -> Result<Vec<f64>, CoreError> {
                Ok(classical_distribution(circuit)?)
            }
            fn executions(&self) -> u64 {
                0
            }
        }
        let circuits = vec![bell_with_measures(), bell_with_measures()];
        let results = OneShot.run_batch(&circuits);
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(Result::is_ok));
    }

    #[test]
    fn width_violations_surface_as_errors() {
        let backend = ShotsBackend::new(Device::ideal(1), 10);
        let err = backend.run_one(&bell_with_measures());
        assert!(matches!(err, Err(CoreError::Simulation(_))));
        let errs = backend.run_batch(&[bell_with_measures()]);
        assert!(matches!(&errs[0], Err(CoreError::Simulation(_))));
        // a failed run consumes no sampling stream and is not counted
        assert_eq!(backend.executions(), 0);
    }

    #[test]
    fn invalid_circuits_in_a_batch_do_not_shift_sampling_streams() {
        let mut wide = Circuit::new(3);
        wide.h(0).cx(0, 1).cx(1, 2).measure_all();
        let bell = bell_with_measures();

        // serial reference: the invalid circuit consumes no stream
        let serial = ShotsBackend::new(Device::new(DeviceConfig::ideal(2).with_seed(3)), 2_000);
        assert!(serial.run_one(&wide).is_err());
        let first = serial.run_one(&bell).unwrap();
        let second = serial.run_one(&bell).unwrap();

        // batched: [invalid, bell, bell] must sample the same streams
        let batched = ShotsBackend::new(Device::new(DeviceConfig::ideal(2).with_seed(3)), 2_000);
        let results = batched.run_batch(&[wide, bell.clone(), bell]);
        assert!(results[0].is_err());
        assert_eq!(results[1].as_ref().unwrap(), &first);
        assert_eq!(results[2].as_ref().unwrap(), &second);
        // only the two real runs are counted
        assert_eq!(batched.executions(), 2);
    }

    #[test]
    fn per_circuit_shots_keep_streams_deterministic_around_errors() {
        // Regression for the scheduled path: when an allocator hands each
        // circuit its own shot count and some circuits error mid-batch (an
        // over-wide circuit, a zero-shot allocation), the stream reservation
        // must still mirror a serial pass — no error may shift the sampling
        // streams of the circuits after it.
        let mut wide = Circuit::new(3);
        wide.h(0).cx(0, 1).cx(1, 2).measure_all();
        let bell = bell_with_measures();

        // serial reference: only the two valid, positively-allocated bells
        // consume streams (in order)
        let serial = ShotsBackend::new(Device::new(DeviceConfig::ideal(2).with_seed(3)), 0);
        let base = serial.device().reserve_streams(2);
        let first = serial.device().execute_stream(&bell, 1_500, base).unwrap();
        let second = serial.device().execute_stream(&bell, 2_500, base + 1).unwrap();

        // batched: [bell(1500), wide(2000), bell(0 shots), bell(2500)]
        let batched = ShotsBackend::new(Device::new(DeviceConfig::ideal(2).with_seed(3)), 9999);
        let results = batched.run_batch_with_shots(
            &[bell.clone(), wide, bell.clone(), bell.clone()],
            &[1_500, 2_000, 0, 2_500],
        );
        assert_eq!(results[0].as_ref().unwrap(), &first.probability_vector());
        assert!(matches!(results[1], Err(CoreError::Simulation(_))), "over-wide errors");
        assert!(results[2].is_err(), "zero allocated shots errors");
        assert_eq!(results[3].as_ref().unwrap(), &second.probability_vector());
        // exactly the two real runs consumed streams
        assert_eq!(batched.executions(), 2);
    }

    #[test]
    fn too_many_clbits_is_a_typed_error_that_shifts_no_stream() {
        // a two-qubit reuse chain writing 31 clbits: nothing the device
        // minds, but one bit more than a dense probability vector may have
        let mut chain = Circuit::with_clbits(2, 31);
        for clbit in 0..30 {
            chain.h(0).cx(0, 1).measure(0, clbit).reset(0);
        }
        chain.measure(1, 30);
        let bell = bell_with_measures();
        let refused = |result: &Result<Vec<f64>, CoreError>| {
            matches!(
                result,
                Err(CoreError::Simulation(SimError::TooManyClbits { required: 31, available: 30 }))
            )
        };

        let serial = ShotsBackend::new(Device::new(DeviceConfig::ideal(2).with_seed(3)), 2_000);
        assert!(!serial.can_run(&chain));
        assert!(refused(&serial.run_one(&chain)));
        let first = serial.run_one(&bell).unwrap();
        let second = serial.run_one(&bell).unwrap();

        let batched = ShotsBackend::new(Device::new(DeviceConfig::ideal(2).with_seed(3)), 2_000);
        let results = batched.run_batch(&[bell.clone(), chain, bell]);
        assert_eq!(results[0].as_ref().unwrap(), &first);
        assert!(refused(&results[1]), "{:?}", results[1]);
        assert_eq!(results[2].as_ref().unwrap(), &second);
        assert_eq!(batched.executions(), 2, "the refused circuit reserved no stream");
    }

    #[test]
    fn execute_requests_dedups_by_key_and_structure() {
        // Plan a small chain so we have real fragments to instantiate.
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
        let plan = CutPlanner::new(
            QrccConfig::new(3).with_subcircuit_range(2, 3).with_ilp_time_limit(Duration::ZERO),
        )
        .plan(&c)
        .unwrap();
        let fragments = crate::fragment::FragmentSet::from_plan(&plan).unwrap();
        let fragment = &fragments.fragments[0];
        let variant = fragment.default_variant();
        // The same key requested three times executes once.
        let requests = vec![
            VariantRequest::new(0, variant.clone()),
            VariantRequest::new(0, variant.clone()),
            VariantRequest::new(0, variant),
        ];
        let backend = ExactBackend::new();
        let results = execute_requests(&fragments, &requests, &backend).unwrap();
        assert_eq!(results.requested(), 3);
        assert_eq!(results.unique_variants(), 1);
        assert_eq!(results.executed(), 1);
        assert_eq!(backend.executions(), 1);
    }

    #[test]
    fn compiled_backend_matches_interpreted_and_reports_stats() {
        let mut circuits = Vec::new();
        for n in 0..5 {
            let mut c = Circuit::new(3);
            c.h(0).rz(0.3 * (n as f64 + 1.0), 0).s(0).cx(0, 1).t(1).cx(1, 2).measure_all();
            circuits.push(c);
        }
        let compiled = ExactBackend::new();
        let interpreted = ExactBackend::interpreted();
        let fast = compiled.run_batch(&circuits);
        let slow = interpreted.run_batch(&circuits);
        for (a, b) in fast.iter().zip(&slow) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-12, "compiled and interpreted paths must agree");
            }
        }
        assert!(interpreted.compile_stats().is_none(), "interpreted path records none");
        if interpreted_forced_by_env() {
            return; // differential CI leg: only the parity checks above apply
        }
        let stats = compiled.compile_stats().expect("compiled path records stats");
        assert!(stats.gates_in > 0);
        assert!(stats.fusion_ratio() > 1.0, "h·rz·s and cx·t chains must fuse");
    }

    #[test]
    fn wide_all_measured_circuit_reads_out_in_one_leaf() {
        if interpreted_forced_by_env() {
            return; // the oracle branches at every measure: 2^16 one-MiB states
        }
        let mut c = qrcc_circuit::generators::vqe_two_local(16, 2, 5);
        let expected = qrcc_sim::StateVector::from_circuit(&c).unwrap().probabilities();
        c.measure_all();
        let backend = ExactBackend::new();
        let dist = backend.run_one(&c).unwrap();
        assert_eq!(dist.len(), expected.len());
        for (i, (a, b)) in dist.iter().zip(&expected).enumerate() {
            assert!((a - b).abs() < 1e-12, "P[{i}]: {a} vs {b}");
        }
        let stats = backend.compile_stats().expect("compiled path records stats");
        assert_eq!((stats.terminal_measures, stats.branch_points), (16, 0));
    }

    #[test]
    fn repeated_batches_share_compiled_kernel_bodies() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
        let plan = CutPlanner::new(
            QrccConfig::new(3).with_subcircuit_range(2, 3).with_ilp_time_limit(Duration::ZERO),
        )
        .plan(&c)
        .unwrap();
        let fragments = crate::fragment::FragmentSet::from_plan(&plan).unwrap();
        let requests =
            crate::reconstruct::ProbabilityReconstructor::new().requests(&fragments).unwrap();
        let backend = ExactBackend::new();
        let compiled = execute_requests(&fragments, &requests, &backend).unwrap();
        if !interpreted_forced_by_env() {
            let stats = backend.compile_stats().expect("compiled backend records stats");
            assert!(stats.gates_in > 0);
            assert!(stats.cache_misses > 0, "first batch compiles bodies: {stats}");
            // a second identical batch reuses the compiled bodies
            execute_requests(&fragments, &requests, &backend).unwrap();
            let stats = backend.compile_stats().expect("stats persist across batches");
            assert!(stats.cache_hits > 0, "repeated batches share compiled bodies: {stats}");
        }
        let interpreted_backend = ExactBackend::interpreted();
        let interpreted = execute_requests(&fragments, &requests, &interpreted_backend).unwrap();
        assert!(interpreted_backend.compile_stats().is_none());
        // interpreted and compiled agree on every variant distribution
        for (key, dist) in compiled.iter() {
            let other = interpreted.distribution(key).unwrap();
            for (a, b) in dist.iter().zip(other) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn execute_requests_rejects_malformed_keys() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
        let plan = CutPlanner::new(
            QrccConfig::new(3).with_subcircuit_range(2, 3).with_ilp_time_limit(Duration::ZERO),
        )
        .plan(&c)
        .unwrap();
        let fragments = crate::fragment::FragmentSet::from_plan(&plan).unwrap();
        let bogus = VariantRequest::new(
            99,
            FragmentVariant {
                init_states: vec![],
                cut_bases: vec![],
                gate_instances: vec![],
                output_bases: vec![],
            },
        );
        let backend = ExactBackend::new();
        assert!(matches!(
            execute_requests(&fragments, &[bogus], &backend),
            Err(CoreError::InvalidCutSolution { .. })
        ));
    }

    #[test]
    fn missing_variant_lookup_is_a_typed_error() {
        let results = ExecutionResults::default();
        let key = VariantKey::new(
            7,
            FragmentVariant {
                init_states: vec![],
                cut_bases: vec![],
                gate_instances: vec![],
                output_bases: vec![],
            },
        );
        assert!(matches!(
            results.distribution(&key),
            Err(CoreError::MissingVariant { fragment: 7 })
        ));
    }
}
