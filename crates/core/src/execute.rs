//! Batch-first execution layer for fragment variants.
//!
//! Execution follows the **enumerate → dedup → route → dispatch → fold →
//! contract** protocol:
//!
//! 1. **Enumerate** — reconstructors list every [`VariantRequest`] they need
//!    as pure data, each variant once: an integer [`VariantKey`] (fragment,
//!    slot-configuration ordinal, packed output bases). Pauli terms that
//!    measure a fragment in the same output bases share its keys. No
//!    circuits are built yet.
//! 2. **Deduplicate** — each key maps to its canonical key by a rule on
//!    the ordinal (`Fragment::canonical_ordinal`: the two measuring
//!    gate-cut instances of a half build one circuit), so no circuit is
//!    built or hashed. The canonical keys form the batch, in first-request
//!    order, each with its [`CircuitShape`] read off the fragment body.
//! 3. **Route** — a [`Scheduler`](crate::schedule::Scheduler) places each
//!    deduplicated variant, by its shape, on a compatible backend of a
//!    [`DeviceRegistry`](crate::schedule::DeviceRegistry) (heterogeneous
//!    qubit counts, noise, shot costs; a single backend is a one-entry
//!    registry) and splits a global shot budget across the batch by
//!    reconstruction-variance weight (ShotQC-style). [`execute_requests`]
//!    skips routing and dispatch — the whole batch goes to one backend as
//!    **one** [`ExecutionBackend::run`] call — and is the reference
//!    the scheduled path is tested against.
//! 4. **Dispatch** — the [`dispatch`](crate::dispatch) event loop drives the
//!    routed sub-batches through one worker thread per backend, keeping at
//!    most [`SchedulePolicy::max_in_flight_chunks`] chunks undelivered (a
//!    slow consumer exerts backpressure on dispatch) and re-routing jobs
//!    whose backend fails to another compatible backend with the failer
//!    excluded, up to [`SchedulePolicy::max_retries`] times. Each delivered
//!    chunk is an [`ExecutionResults`] in ascending key order, where keys
//!    that share a circuit share its distribution. A job reaches its backend
//!    as one [`ExecutionBackend::run`] call over a [`VariantBatch`] of
//!    canonical keys: a local backend builds each circuit inside its
//!    parallel loop, on the thread that runs it, and a remote backend ships
//!    the keys.
//!    Per-backend usage goes straight to the scheduler's
//!    [`ScheduleReport`](crate::schedule::ScheduleReport).
//! 5. **Fold** — each delivered chunk folds into per-fragment cut tensors
//!    ([`ProbabilityAccumulator`](crate::reconstruct::ProbabilityAccumulator) /
//!    [`ExpectationAccumulator`](crate::reconstruct::ExpectationAccumulator))
//!    in its key order, so tensor building overlaps device execution. A
//!    blocking `reconstruct` (e.g. over an [`execute_requests`] batch) folds
//!    a whole [`ExecutionResults`] the same way, as one chunk, so both agree
//!    bit for bit.
//! 6. **Contract** — once every variant has arrived, only the final
//!    contraction (dense mixed-radix loop or pairwise fragment-tensor
//!    contraction) remains; see [`crate::reconstruct`].
//!
//! [`SchedulePolicy::max_in_flight_chunks`]: crate::SchedulePolicy::max_in_flight_chunks
//! [`SchedulePolicy::max_retries`]: crate::SchedulePolicy::max_retries
//!
//! A backend implements one execution method, [`ExecutionBackend::run`]: a
//! [`VariantBatch`] of keys over fragment bodies with optional per-variant
//! shots. Every execution ends in it — the dispatcher's jobs,
//! [`execute_requests`], a fleet worker's batches and the bare-circuit
//! [`ExecutionBackend::run_batch`].
//!
//! Memoisation is not a backend's job: the shot-aware
//! [`ResultCache`](crate::cache::ResultCache) sits in the scheduled
//! dispatch path (see
//! [`DeviceRegistry::with_result_cache`](crate::schedule::DeviceRegistry::with_result_cache))
//! and in front of a remote worker's backend (`QrccServer::with_result_cache`
//! in `qrcc-net`).

use crate::fragment::{FragmentBody, FragmentSet, VariantKey, VariantRequest};
use crate::CoreError;
use qrcc_circuit::Circuit;
use qrcc_sim::compile::{CompileCounters, CompileStats, FramedProgram};
use qrcc_sim::device::{needs_mid_circuit, Device};
use qrcc_sim::{Counts, DenseCounts, SimError};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Executes fragment variants and reports the probability distribution
/// over each one's classical bits (length `2^num_clbits`).
///
/// A backend implements one execution method, [`ExecutionBackend::run`],
/// over a [`VariantBatch`]: keys into a list of fragment bodies, each with
/// its own shot count when the scheduler allocated them. Every caller hands
/// a backend that — the dispatcher a job's canonical keys over the
/// request's bodies, a fleet worker a submission's keys over its
/// connection's table, [`execute_requests`] a whole batch — and bare
/// circuits go through the provided [`run_batch`](ExecutionBackend::run_batch)
/// / [`run_batch_with_shots`](ExecutionBackend::run_batch_with_shots), each
/// circuit the one variant of its own body
/// ([`FragmentBody::from_circuit`]). A local backend builds each circuit
/// where it runs it ([`VariantBatch::build`]), so no more circuits are alive
/// at once than it has threads; a remote backend ships the keys.
///
/// Every backend refuses a variant without classical bits with
/// [`SimError::NothingToMeasure`] (there is no distribution to report), and
/// one over more than [`Counts::MAX_DENSE_BITS`] with
/// [`SimError::TooManyClbits`] (its distribution would not fit in memory);
/// [`check_dense_readout`] is that rule.
///
/// Backends must be [`Sync`]: batches are executed with data parallelism, and
/// the dispatcher's per-backend workers share them across threads.
pub trait ExecutionBackend: Sync {
    /// Executes a batch of variants, returning one result per variant in
    /// order. Variant `i` runs at [`VariantBatch::shots`]`[i]` shots, as a
    /// [`ShotAllocator`](crate::schedule::ShotAllocator) assigned them, or
    /// without them at the backend's
    /// [`shots_per_circuit`](ExecutionBackend::shots_per_circuit). Exact
    /// backends ignore the counts: their output has no sampling noise.
    ///
    /// # Errors
    ///
    /// A variant that cannot be executed (too wide, no measurements, zero
    /// shots, ...) gets its own error, typically
    /// [`CoreError::Simulation`]; the others still run.
    fn run(&self, variants: &VariantBatch<'_>) -> Vec<Result<Vec<f64>, CoreError>>;

    /// [`run`](ExecutionBackend::run) over bare circuits, at the backend's
    /// own shot count.
    fn run_batch(&self, circuits: &[Circuit]) -> Vec<Result<Vec<f64>, CoreError>> {
        run_circuits(self, circuits, None)
    }

    /// [`run`](ExecutionBackend::run) over bare circuits, circuit `i` at
    /// `shots[i]` shots.
    fn run_batch_with_shots(
        &self,
        circuits: &[Circuit],
        shots: &[u64],
    ) -> Vec<Result<Vec<f64>, CoreError>> {
        run_circuits(self, circuits, Some(shots))
    }

    /// The widest circuit this backend can run, or `None` when unbounded.
    /// The scheduler's router only places circuits on backends that fit.
    fn max_qubits(&self) -> Option<usize> {
        None
    }

    /// Whether this backend can run a circuit of `shape` — the router's
    /// placement predicate. The default checks only
    /// [`ExecutionBackend::max_qubits`]; device-backed backends refine it
    /// (e.g. mid-circuit measurement support).
    fn can_run(&self, shape: &CircuitShape) -> bool {
        self.max_qubits().is_none_or(|max| shape.num_qubits <= max)
    }

    /// The backend's default shot count per circuit, or `None` for exact
    /// (noise-free) backends. Used for shots-spent accounting and as the
    /// router's load estimate when no global budget overrides it.
    fn shots_per_circuit(&self) -> Option<u64> {
        None
    }

    /// A short human-readable label for accounting.
    fn label(&self) -> String {
        "backend".into()
    }

    /// Number of circuits executed so far (for instance accounting).
    fn executions(&self) -> u64;

    /// Cumulative kernel-compilation statistics of the backend's simulator,
    /// or `None` when the backend is not a simulator. The simulating
    /// backends ([`ExactBackend`], [`ShotsBackend`]) report the sum over
    /// every circuit they compiled ([`CompileCounters`]), and wrappers
    /// forward their inner backend's; the default keeps non-simulating
    /// backends at `None`.
    fn compile_stats(&self) -> Option<CompileStats> {
        None
    }
}

/// What the router reads of a circuit to place it: its registers, and
/// whether it reuses a wire (resets one, or acts on one after measuring
/// it), which needs mid-circuit measurement hardware. A fragment variant's
/// shape comes from its body and key
/// ([`FragmentBody::shape`](crate::fragment::FragmentBody::shape)) without
/// building the circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitShape {
    /// Qubits the circuit acts on.
    pub num_qubits: usize,
    /// Classical bits its distribution ranges over.
    pub num_clbits: usize,
    /// Whether it needs mid-circuit measurement or reset.
    pub reuses_wires: bool,
}

impl CircuitShape {
    /// The shape of a built circuit.
    pub fn of(circuit: &Circuit) -> Self {
        CircuitShape {
            num_qubits: circuit.num_qubits(),
            num_clbits: circuit.num_clbits(),
            reuses_wires: needs_mid_circuit(circuit),
        }
    }
}

/// Whether a distribution over `num_clbits` classical bits can be reported
/// as the dense vector every backend returns: the refusal every backend
/// gives a variant before running it.
///
/// # Errors
///
/// [`SimError::NothingToMeasure`] without classical bits, and
/// [`SimError::TooManyClbits`] past [`Counts::MAX_DENSE_BITS`].
pub fn check_dense_readout(num_clbits: usize) -> Result<(), SimError> {
    match num_clbits {
        0 => Err(SimError::NothingToMeasure),
        _ => Counts::check_dense(num_clbits),
    }
}

/// One batch of work for [`ExecutionBackend::run`]: variant keys whose
/// `fragment` indexes a list of fragment bodies, and optional per-variant
/// shots. It holds no circuit: a backend that needs one builds it where it
/// runs it ([`VariantBatch::build`]).
#[derive(Debug, Clone)]
pub struct VariantBatch<'a> {
    bodies: &'a [&'a FragmentBody],
    keys: Vec<VariantKey>,
    shots: Option<Vec<u64>>,
}

impl<'a> VariantBatch<'a> {
    /// The variants `keys` of `bodies`; `shots`, when given, holds one count
    /// per variant.
    ///
    /// # Panics
    ///
    /// Panics if a key names no body or its ordinal is out of its body's
    /// range, or the shot count disagrees.
    pub fn new(
        bodies: &'a [&'a FragmentBody],
        keys: Vec<VariantKey>,
        shots: Option<Vec<u64>>,
    ) -> Self {
        let known = |key: &VariantKey| {
            bodies.get(key.fragment).is_some_and(|body| key.ordinal < body.variant_count())
        };
        assert!(keys.iter().all(known), "every key names a variant of a body");
        assert!(shots.as_ref().is_none_or(|s| s.len() == keys.len()), "one shot count per variant");
        VariantBatch { bodies, keys, shots }
    }

    /// The bodies the keys index.
    pub fn bodies(&self) -> &'a [&'a FragmentBody] {
        self.bodies
    }

    /// Number of variants.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the batch holds no variant.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The keys, in batch order.
    pub fn keys(&self) -> &[VariantKey] {
        &self.keys
    }

    /// Per-variant shots, when the scheduler allocated them.
    pub fn shots(&self) -> Option<&[u64]> {
        self.shots.as_deref()
    }

    /// The body variant `i` instantiates.
    pub fn body(&self, i: usize) -> &'a FragmentBody {
        self.bodies[self.keys[i].fragment]
    }

    /// What routing reads of variant `i`, without building it.
    pub fn shape(&self, i: usize) -> CircuitShape {
        let key = self.keys[i];
        self.body(i).shape(key.ordinal, key.outputs)
    }

    /// Builds variant `i`'s circuit.
    pub fn build(&self, i: usize) -> Circuit {
        let key = self.keys[i];
        self.body(i).instantiate(key.ordinal, key.outputs)
    }

    /// The variants at `positions` of this batch, with their shots.
    pub fn select(&self, positions: &[usize]) -> VariantBatch<'a> {
        VariantBatch {
            bodies: self.bodies,
            keys: positions.iter().map(|&i| self.keys[i]).collect(),
            shots: self.shots.as_ref().map(|shots| positions.iter().map(|&i| shots[i]).collect()),
        }
    }

    /// Runs only the variants `refusal` passes, as one `run` sub-batch in
    /// batch order, and splices each refusal back in at its place.
    pub fn run_unrefused(
        &self,
        refusal: impl FnMut(usize) -> Option<CoreError>,
        run: impl FnOnce(&VariantBatch<'a>) -> Vec<Result<Vec<f64>, CoreError>>,
    ) -> Vec<Result<Vec<f64>, CoreError>> {
        let refusals: Vec<Option<CoreError>> = (0..self.len()).map(refusal).collect();
        let passing: Vec<usize> = (0..self.len()).filter(|&i| refusals[i].is_none()).collect();
        splice(refusals, run(&self.select(&passing)))
    }
}

/// The answers of a batch whose refused entries never ran: each refusal at
/// its place, and the answers of the entries that ran, in order, between.
fn splice(
    refusals: Vec<Option<CoreError>>,
    ran: Vec<Result<Vec<f64>, CoreError>>,
) -> Vec<Result<Vec<f64>, CoreError>> {
    let mut ran = ran.into_iter();
    refusals
        .into_iter()
        .map(|refusal| match refusal {
            Some(error) => Err(error),
            None => ran.next().expect("one result per variant that ran"),
        })
        .collect()
}

/// Runs bare `circuits` on `backend`, circuit `i` as the one variant of its
/// own body ([`FragmentBody::from_circuit`]) at `shots[i]` shots. A circuit
/// no body can hold (a non-finite angle) fails alone.
fn run_circuits<B: ExecutionBackend + ?Sized>(
    backend: &B,
    circuits: &[Circuit],
    shots: Option<&[u64]>,
) -> Vec<Result<Vec<f64>, CoreError>> {
    let built: Vec<Result<FragmentBody, CoreError>> =
        circuits.iter().map(FragmentBody::from_circuit).collect();
    let bodies: Vec<&FragmentBody> = built.iter().flatten().collect();
    let keys = (0..bodies.len()).map(|body| VariantKey::new(body, 0, 0)).collect();
    let shots = shots.map(|shots| {
        built.iter().zip(shots).filter(|(body, _)| body.is_ok()).map(|(_, &s)| s).collect()
    });
    let ran = backend.run(&VariantBatch::new(&bodies, keys, shots));
    splice(built.into_iter().map(Result::err).collect(), ran)
}

/// How much work one backend performed for a batch: circuits routed to it,
/// shots spent there (0 for exact backends), and the dispatch-layer
/// lifecycle counters (jobs that failed here, circuits that landed here as
/// retries after failing elsewhere).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BackendUsage {
    /// The backend's registry name.
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

/// A distribution as the results hold it: keys that share a circuit share
/// one allocation.
pub(crate) type Shared = Arc<Vec<f64>>;

/// Distributions of an executed batch, keyed by [`VariantKey`] and held in
/// ascending key order — the order every fold walks.
///
/// Produced by [`execute_requests`] / the
/// [`Scheduler`](crate::schedule::Scheduler) and consumed by the
/// reconstructors. Also records the dedup accounting: how many variants
/// were requested, and how many circuits were actually executed after keys
/// sharing a circuit collapsed.
#[derive(Debug, Clone, Default)]
pub struct ExecutionResults {
    entries: Vec<(VariantKey, Shared)>,
    requested: u64,
    executed: u64,
}

impl ExecutionResults {
    /// Results holding `entries` (in any order; of equal keys the last
    /// wins) with the given dedup accounting.
    pub(crate) fn from_entries(
        mut entries: Vec<(VariantKey, Shared)>,
        requested: u64,
        executed: u64,
    ) -> Self {
        entries.sort_by_key(|&(key, _)| key);
        keep_last_of_equal_keys(&mut entries);
        ExecutionResults { entries, requested, executed }
    }

    /// Stores one key's distribution (replacing an earlier one).
    #[cfg(test)]
    pub(crate) fn insert(&mut self, key: VariantKey, distribution: Vec<f64>) {
        match self.entries.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(at) => self.entries[at].1 = Arc::new(distribution),
            Err(at) => self.entries.insert(at, (key, Arc::new(distribution))),
        }
    }

    /// The distribution for `key`, or an error naming the missing fragment —
    /// the consume-phase signal that the enumerate phase forgot a variant.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MissingVariant`] when `key` was not part of the
    /// executed batch.
    pub fn distribution(&self, key: &VariantKey) -> Result<&[f64], CoreError> {
        self.entries
            .binary_search_by_key(key, |&(k, _)| k)
            .map(|at| self.entries[at].1.as_slice())
            .map_err(|_| CoreError::MissingVariant { fragment: key.fragment })
    }

    /// Number of distinct variant keys held.
    pub fn unique_variants(&self) -> usize {
        self.entries.len()
    }

    /// Total number of variant requests that went into this batch, including
    /// duplicates collapsed by dedup.
    pub fn requested(&self) -> u64 {
        self.requested
    }

    /// Number of circuits actually executed (after keys sharing a circuit
    /// collapsed).
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Whether no variants are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the held `(key, distribution)` pairs in ascending key
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (&VariantKey, &[f64])> {
        self.entries.iter().map(|(k, d)| (k, d.as_slice()))
    }

    /// The held entries, in ascending key order.
    pub(crate) fn entries(&self) -> &[(VariantKey, Shared)] {
        &self.entries
    }

    /// Merges another batch into this one (later batches win on key
    /// collisions). Accounting is summed.
    pub fn extend(&mut self, other: ExecutionResults) {
        self.requested += other.requested;
        self.executed += other.executed;
        let append = self
            .entries
            .last()
            .is_none_or(|&(last, _)| other.entries.first().is_none_or(|&(first, _)| last < first));
        self.entries.extend(other.entries);
        if !append {
            // two sorted runs: the stable sort merges them, keeping this
            // batch's entry ahead of the other's for equal keys
            self.entries.sort_by_key(|&(key, _)| key);
            keep_last_of_equal_keys(&mut self.entries);
        }
    }
}

/// Drops all but the last of every run of equal keys in a key-sorted list.
fn keep_last_of_equal_keys(entries: &mut Vec<(VariantKey, Shared)>) {
    entries.dedup_by(|later, kept| {
        let equal = later.0 == kept.0;
        if equal {
            std::mem::swap(later, kept);
        }
        equal
    });
}

/// The dedup phase's output: the unique variant keys of a request list, the
/// deduplicated circuits they map to — as canonical keys with their shapes,
/// none built — and the key → circuit mapping, over the fragment set the
/// keys index. Shared by the single-backend [`execute_requests`] path and
/// the multi-backend [`Scheduler`](crate::schedule::Scheduler).
#[derive(Debug, Clone)]
pub(crate) struct PreparedBatch<'f> {
    /// The fragments the keys index.
    pub(crate) fragments: &'f FragmentSet,
    /// Their bodies, indexed like the fragments: what a job's
    /// [`VariantBatch`] names.
    pub(crate) bodies: Vec<&'f FragmentBody>,
    /// First-seen-ordered unique keys.
    pub(crate) keys: Vec<VariantKey>,
    /// The canonical key of each deduplicated circuit to execute, in
    /// first-seen order.
    pub(crate) canonical: Vec<VariantKey>,
    /// What routing reads of each circuit (parallel to `canonical`).
    pub(crate) shapes: Vec<CircuitShape>,
    /// For each unique key, the index of its circuit in `canonical`.
    pub(crate) circuit_of_key: Vec<usize>,
    /// Per unique key, how many duplicate requests collapsed into it.
    pub(crate) key_count: Vec<u64>,
    /// Key slots grouped by circuit, ascending within each group: circuit
    /// `c`'s keys are `keys_by_circuit[key_start[c]..key_start[c + 1]]`,
    /// so a chunk of circuits finds its keys without scanning the batch.
    keys_by_circuit: Vec<usize>,
    /// Group offsets into `keys_by_circuit` (one more than `canonical`).
    key_start: Vec<usize>,
    /// Total requests before dedup.
    pub(crate) requested: u64,
}

/// Phase 2 of the protocol: deduplicates `requests` by [`VariantKey`] and
/// maps every key to its canonical key by the ordinal rule of
/// `Fragment::canonical_ordinal` — so e.g. the two measuring gate-cut
/// instances of a half run once — reading each canonical key's shape off
/// its fragment body. No circuit is built or hashed.
///
/// # Errors
///
/// [`CoreError::InvalidCutSolution`] for keys that do not match `fragments`.
pub(crate) fn prepare_batch<'f>(
    fragments: &'f FragmentSet,
    requests: &[VariantRequest],
) -> Result<PreparedBatch<'f>, CoreError> {
    let mut slot_of_key: HashMap<VariantKey, usize> = HashMap::with_capacity(requests.len());
    let mut circuit_of_canonical: HashMap<VariantKey, usize> = HashMap::new();
    let mut batch = PreparedBatch {
        fragments,
        bodies: fragments.bodies(),
        keys: Vec::with_capacity(requests.len()),
        canonical: Vec::new(),
        shapes: Vec::new(),
        circuit_of_key: Vec::with_capacity(requests.len()),
        key_count: Vec::with_capacity(requests.len()),
        keys_by_circuit: Vec::new(),
        key_start: Vec::new(),
        requested: requests.len() as u64,
    };
    for &VariantRequest { key } in requests {
        if let Some(&slot) = slot_of_key.get(&key) {
            batch.key_count[slot] += 1;
            continue;
        }
        let fragment = fragments.fragment_of(&key)?;
        let canonical = VariantKey { ordinal: fragment.canonical_ordinal(key.ordinal), ..key };
        let circuit = *circuit_of_canonical.entry(canonical).or_insert_with(|| {
            batch.shapes.push(fragment.body().shape(canonical.ordinal, canonical.outputs));
            batch.canonical.push(canonical);
            batch.canonical.len() - 1
        });
        slot_of_key.insert(key, batch.keys.len());
        batch.keys.push(key);
        batch.circuit_of_key.push(circuit);
        batch.key_count.push(1);
    }
    // a counting sort of the key slots by circuit
    let mut key_start = vec![0; batch.len() + 1];
    for &circuit in &batch.circuit_of_key {
        key_start[circuit + 1] += 1;
    }
    for circuit in 0..batch.len() {
        key_start[circuit + 1] += key_start[circuit];
    }
    let mut next = key_start.clone();
    batch.keys_by_circuit = vec![0; batch.keys.len()];
    for (slot, &circuit) in batch.circuit_of_key.iter().enumerate() {
        batch.keys_by_circuit[next[circuit]] = slot;
        next[circuit] += 1;
    }
    batch.key_start = key_start;
    Ok(batch)
}

impl<'f> PreparedBatch<'f> {
    /// Number of deduplicated circuits.
    pub(crate) fn len(&self) -> usize {
        self.canonical.len()
    }

    /// The circuits at `picks` as a variant batch, with one shot count per
    /// pick.
    pub(crate) fn variants(
        &self,
        picks: impl IntoIterator<Item = usize>,
        shots: Option<Vec<u64>>,
    ) -> VariantBatch<'_> {
        let keys = picks.into_iter().map(|pick| self.canonical[pick]).collect();
        VariantBatch::new(&self.bodies, keys, shots)
    }

    /// The results of circuits `range` given their distributions (in
    /// circuit order): every key whose circuit lies in the range shares that
    /// circuit's distribution, and counts the requests it collapsed. Costs
    /// O(keys of the range), whatever the size of the batch.
    pub(crate) fn results(
        &self,
        range: std::ops::Range<usize>,
        shared: Vec<Shared>,
    ) -> ExecutionResults {
        let slots = &self.keys_by_circuit[self.key_start[range.start]..self.key_start[range.end]];
        let mut requested = 0;
        let mut entries = Vec::with_capacity(slots.len());
        for &slot in slots {
            requested += self.key_count[slot];
            let distribution = &shared[self.circuit_of_key[slot] - range.start];
            entries.push((self.keys[slot], Arc::clone(distribution)));
        }
        ExecutionResults::from_entries(entries, requested, range.len() as u64)
    }
}

/// Phases 2+4 for a single backend: deduplicates `requests` by
/// [`VariantKey`], maps them to canonical keys and executes those as one
/// [`ExecutionBackend::run`] call. Multi-backend routing, shot allocation
/// and chunking live in [`crate::schedule::Scheduler`].
///
/// # Errors
///
/// * [`CoreError::InvalidCutSolution`] for keys that do not match `fragments`,
///   or when the backend returns the wrong number of results.
/// * The first backend error of the batch, if any.
pub fn execute_requests(
    fragments: &FragmentSet,
    requests: &[VariantRequest],
    backend: &dyn ExecutionBackend,
) -> Result<ExecutionResults, CoreError> {
    let batch = prepare_batch(fragments, requests)?;
    // One batch submission; backends parallelise internally.
    let outcomes = backend.run(&batch.variants(0..batch.len(), None));
    if outcomes.len() != batch.len() {
        return Err(CoreError::InvalidCutSolution {
            reason: format!(
                "backend returned {} results for a batch of {} circuits",
                outcomes.len(),
                batch.len()
            ),
        });
    }
    let distributions =
        outcomes.into_iter().map(|outcome| outcome.map(Arc::new)).collect::<Result<_, _>>()?;
    Ok(batch.results(0..batch.len(), distributions))
}

/// Exact backend: the noise-free distribution over a circuit's classical
/// bits from a state-vector simulator. Batches run rayon-parallel across all
/// cores.
///
/// By default circuits run through the compiled kernel path: each circuit is
/// lowered to a fused [`FramedProgram`] on the thread that runs it — nothing
/// compiled is kept, and no lock is shared — and read out with
/// [`FramedProgram::classical_distribution`]. What was compiled is summed
/// into [`CompileCounters`] and read by
/// [`compile_stats`](ExecutionBackend::compile_stats).
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
/// A circuit over more than [`Counts::MAX_DENSE_BITS`] classical bits is
/// refused with [`SimError::TooManyClbits`] before anything is allocated
/// ([`FramedProgram::read_out`]): its distribution would not fit in memory.
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
    compiled: CompileCounters,
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
            compiled: CompileCounters::new(),
        }
    }

    /// Creates a backend that refuses circuits wider than `max_qubits`.
    pub fn capped(max_qubits: usize) -> Self {
        ExactBackend { max_qubits: Some(max_qubits), ..ExactBackend::new() }
    }

    /// Variant `i`'s distribution: refused from its body's width when too
    /// wide, else built, compiled and read out here (the readout refuses a
    /// variant without classical bits).
    fn distribution(&self, variants: &VariantBatch<'_>, i: usize) -> Result<Vec<f64>, CoreError> {
        let required = variants.body(i).num_qubits();
        if let Some(available) = self.max_qubits.filter(|&max| required > max) {
            return Err(SimError::TooManyQubits { required, available }.into());
        }
        let program = FramedProgram::compile(&variants.build(i));
        self.compiled.add(&program);
        Ok(program.classical_distribution()?)
    }
}

impl ExecutionBackend for ExactBackend {
    /// Builds, compiles and reads out each variant inside the parallel loop.
    fn run(&self, variants: &VariantBatch<'_>) -> Vec<Result<Vec<f64>, CoreError>> {
        self.count.fetch_add(variants.len() as u64, Ordering::Relaxed);
        (0..variants.len()).into_par_iter().map(|i| self.distribution(variants, i)).collect()
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
        Some(self.compiled.stats())
    }
}

/// Shots backend: runs each variant on a simulated [`Device`] (optionally
/// noisy) with a fixed shot budget and reports the empirical distribution.
///
/// What a shot costs is the device's business ([`Device::execute`]): on a
/// noiseless device a circuit is compiled on the thread that runs it and
/// read out once, sampled — shots are dealt out at the measurements that have to branch, so qubit
/// reuse and measuring gate-cut instances cost a few more sweeps per
/// circuit, not a fresh simulation per shot — and on a noisy one every shot
/// is its own per-gate trajectory.
///
/// Batches run rayon-parallel; every circuit in a batch gets its own
/// deterministic sampling stream (derived from the batch base position), so a
/// batched run reproduces the serial execution of the same circuits in order,
/// independent of thread count and scheduling.
///
/// The backend reports dense probability vectors, and the device deals its
/// shots straight into one ([`Device::execute_stream_into`] with a
/// [`DenseCounts`]): exact integer tallies per clbit pattern, divided by the
/// shots once, so each entry is bit for bit the `count / shots` that
/// [`Counts::probability_vector`] would read off the same draws, with no
/// histogram map built in between. Besides what the device refuses it
/// refuses circuits over more than [`Counts::MAX_DENSE_BITS`] classical
/// bits, with [`SimError::TooManyClbits`]; [`Device::execute`] still samples
/// those into sparse [`Counts`]. On the pipeline ledger's
/// `reg8_gate_sampled` request (875 REG-8 variants, 1 M shots over two
/// seeded devices) the dense output and the rayon shim's width rule (a
/// parallel call fans out only to the threads no other call in progress
/// uses, so the two devices' dispatch workers no longer queue four chunks
/// on two cores) took the median request from 10.44 to 7.94 ms (−24 %,
/// 10 of 10 alternating pairs, `--workload reg8_gate_sampled --seed 0
/// --seconds 10 --trace 0`, 2-core box) at bit-identical `rms_error`,
/// `device_shots` and `shot_cost`.
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

    /// Whether a circuit of `shape` can run here at all, decided without
    /// building it or consuming a sampling stream: the device accepts it
    /// (width, mid-circuit support), it measures something, and its
    /// histogram can be densified.
    fn check(&self, shape: &CircuitShape) -> Result<(), SimError> {
        let config = self.device.config();
        if shape.num_qubits > config.num_qubits {
            return Err(SimError::TooManyQubits {
                required: shape.num_qubits,
                available: config.num_qubits,
            });
        }
        if shape.reuses_wires && !config.supports_mid_circuit {
            return Err(SimError::MidCircuitUnsupported);
        }
        check_dense_readout(shape.num_clbits)
    }
}

impl ExecutionBackend for ShotsBackend {
    /// Executes variant `i` with `shots[i]` shots (or the backend's own
    /// count) on its own deterministic sampling stream, building it inside
    /// the parallel loop.
    ///
    /// Stream reservation must stay deterministic even when some variants
    /// error mid-batch: a stream is assigned to variant `i` **iff** running
    /// the variants one call each would consume one for it — its shot count
    /// is positive and its shape ([`VariantBatch::shape`]) passes the
    /// device's checks. Both are decided *before* any circuit is built or
    /// sampled, so a failing variant keeps its typed error and can never
    /// shift the streams of the variants after it, regardless of where in
    /// the batch it sits or how the per-variant shot allocation splits the
    /// budget.
    fn run(&self, variants: &VariantBatch<'_>) -> Vec<Result<Vec<f64>, CoreError>> {
        let shots_of = |i: usize| variants.shots().map_or(self.shots, |shots| shots[i]);
        let mut runnable = 0;
        let offsets: Vec<Result<u64, SimError>> = (0..variants.len())
            .map(|i| {
                if shots_of(i) == 0 {
                    return Err(SimError::ZeroShots);
                }
                self.check(&variants.shape(i))?;
                runnable += 1;
                Ok(runnable - 1)
            })
            .collect();
        let base = self.device.reserve_streams(runnable);
        (0..variants.len())
            .into_par_iter()
            .map(|i| {
                let stream = base + offsets[i].clone()?;
                let circuit = variants.build(i);
                let counts: DenseCounts =
                    self.device.execute_stream_into(&circuit, shots_of(i), stream)?;
                Ok(counts.into_probabilities())
            })
            .collect()
    }

    fn max_qubits(&self) -> Option<usize> {
        Some(self.device.config().num_qubits)
    }

    fn can_run(&self, shape: &CircuitShape) -> bool {
        let config = self.device.config();
        shape.num_qubits <= config.num_qubits
            && (config.supports_mid_circuit || !shape.reuses_wires)
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
        Some(self.device.compile_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::CutPlanner;
    use crate::QrccConfig;
    use qrcc_circuit::Operation;
    use qrcc_sim::branching::classical_distribution;
    use qrcc_sim::device::DeviceConfig;
    use std::time::Duration;

    /// One bare circuit at the backend's shots.
    fn single(backend: &dyn ExecutionBackend, circuit: &Circuit) -> Result<Vec<f64>, CoreError> {
        backend.run_batch(std::slice::from_ref(circuit)).pop().expect("one result per circuit")
    }

    /// Every result's distribution as bit patterns, errors as `None`.
    fn bits(results: &[Result<Vec<f64>, CoreError>]) -> Vec<Option<Vec<u64>>> {
        let bits = |d: &Vec<f64>| d.iter().map(|p| p.to_bits()).collect();
        results.iter().map(|result| result.as_ref().ok().map(bits)).collect()
    }

    fn bell_with_measures() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        c
    }

    #[test]
    fn exact_backend_returns_exact_distribution() {
        let backend = ExactBackend::new();
        let dist = single(&backend, &bell_with_measures()).unwrap();
        assert!((dist[0b00] - 0.5).abs() < 1e-12);
        assert!((dist[0b11] - 0.5).abs() < 1e-12);
        assert_eq!(backend.executions(), 1);
    }

    #[test]
    fn shots_backend_approximates_the_distribution() {
        let backend = ShotsBackend::new(Device::new(DeviceConfig::ideal(2).with_seed(7)), 20_000);
        let dist = single(&backend, &bell_with_measures()).unwrap();
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
            circuits.iter().map(|c| single(&serial, c).unwrap()).collect();
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
            circuits.iter().map(|c| single(&serial, c).unwrap()).collect();
        let batched = ShotsBackend::new(Device::new(DeviceConfig::ideal(2).with_seed(5)), 2_000);
        let batch_dists = batched.run_batch(&circuits);
        for (a, b) in serial_dists.iter().zip(batch_dists) {
            assert_eq!(a, &b.unwrap(), "batch must reproduce the serial sampling streams");
        }
    }

    #[test]
    fn provided_methods_forward_to_run() {
        // A backend implementing only `run` gets the bare-circuit methods:
        // each hands `run` one one-variant body per circuit and the shots.
        /// The keys and shots of one `run` call.
        type Call = (Vec<VariantKey>, Option<Vec<u64>>);
        #[derive(Default)]
        struct Recording(parking_lot::Mutex<Vec<Call>>);
        impl ExecutionBackend for Recording {
            fn run(&self, variants: &VariantBatch<'_>) -> Vec<Result<Vec<f64>, CoreError>> {
                let shots = variants.shots().map(<[u64]>::to_vec);
                self.0.lock().push((variants.keys().to_vec(), shots));
                (0..variants.len())
                    .map(|i| Ok(classical_distribution(&variants.build(i))?))
                    .collect()
            }
            fn executions(&self) -> u64 {
                0
            }
        }
        let circuits = vec![bell_with_measures(), bell_with_measures()];
        let backend = Recording::default();
        let batch = backend.run_batch(&circuits);
        assert_eq!(batch.len(), 2);
        assert!(batch.iter().all(Result::is_ok));
        let with_shots = backend.run_batch_with_shots(&circuits, &[3, 4]);
        assert_eq!(with_shots, batch);
        let bare = vec![VariantKey::new(0, 0, 0), VariantKey::new(1, 0, 0)];
        assert_eq!(*backend.0.lock(), [(bare.clone(), None), (bare, Some(vec![3, 4]))]);
        // a circuit no body can hold fails alone, and takes its shots along
        let mut nan = bell_with_measures();
        let qubit = qrcc_circuit::QubitId::new(0);
        nan.push(Operation::Single { gate: qrcc_circuit::Gate::Ry(f64::NAN), qubit });
        let results = backend.run_batch_with_shots(&[nan, circuits[0].clone()], &[5, 6]);
        assert!(matches!(results[0], Err(CoreError::InvalidCutSolution { .. })), "{results:?}");
        assert_eq!(results[1], batch[0]);
        assert_eq!(backend.0.lock()[2], (vec![VariantKey::new(0, 0, 0)], Some(vec![6])));

        // bare circuits are bit for bit the keyed variants they were built
        // from, exact and on the same seeded sampling streams
        let set = chain_fragments();
        let requests = crate::reconstruct::ProbabilityReconstructor::new().requests(&set).unwrap();
        let prepared = prepare_batch(&set, &requests).unwrap();
        let picks = vec![3, 0, 2, 1];
        let keyed = prepared.variants(picks.clone(), None);
        let built: Vec<Circuit> = (0..keyed.len()).map(|i| keyed.build(i)).collect();
        let exact = ExactBackend::new();
        assert_eq!(bits(&exact.run(&keyed)), bits(&exact.run_batch(&built)));
        assert!(exact.run(&keyed).iter().all(Result::is_ok));
        let shots =
            |seed| ShotsBackend::new(Device::new(DeviceConfig::ideal(3).with_seed(seed)), 64);
        assert_eq!(bits(&shots(7).run(&keyed)), bits(&shots(7).run_batch(&built)));
        let counts = vec![16, 48, 1, 300];
        let counted = prepared.variants(picks, Some(counts.clone()));
        let (keyed, bare) =
            (shots(7).run(&counted), shots(7).run_batch_with_shots(&built, &counts));
        assert_eq!(bits(&keyed), bits(&bare));
        assert!(keyed.iter().all(Result::is_ok));
    }

    #[test]
    fn width_violations_surface_as_errors() {
        let backend = ShotsBackend::new(Device::ideal(1), 10);
        let err = single(&backend, &bell_with_measures());
        assert!(matches!(err, Err(CoreError::Simulation(_))));
        let errs = backend.run_batch(&[bell_with_measures()]);
        assert!(matches!(&errs[0], Err(CoreError::Simulation(_))));
        // a failed run consumes no sampling stream and is not counted
        assert_eq!(backend.executions(), 0);
    }

    /// A seeded ideal device of `qubits` qubits.
    fn seeded(qubits: usize, shots: u64) -> ShotsBackend {
        ShotsBackend::new(Device::new(DeviceConfig::ideal(qubits).with_seed(3)), shots)
    }

    /// The bare `circuit` as a one-variant body.
    fn body_of(circuit: &Circuit) -> FragmentBody {
        FragmentBody::from_circuit(circuit).unwrap()
    }

    /// Variant `ordinal` of body `body`.
    fn key(body: usize, ordinal: u64) -> VariantKey {
        VariantKey::new(body, ordinal, 0)
    }

    /// Each of `keys` of `bodies` as its own `run` call, in order.
    fn one_by_one(
        backend: &dyn ExecutionBackend,
        bodies: &[&FragmentBody],
        keys: &[VariantKey],
        shots: Option<&[u64]>,
    ) -> Vec<Result<Vec<f64>, CoreError>> {
        let shots_of = |i: usize| shots.map(|shots| vec![shots[i]]);
        let one = |i: usize| VariantBatch::new(bodies, vec![keys[i]], shots_of(i));
        (0..keys.len()).map(|i| backend.run(&one(i)).remove(0)).collect()
    }

    #[test]
    fn invalid_circuits_in_a_batch_do_not_shift_sampling_streams() {
        let mut wide = Circuit::new(3);
        wide.h(0).cx(0, 1).cx(1, 2).measure_all();
        let (wide, bell) = (body_of(&wide), body_of(&bell_with_measures()));
        let bodies = [&wide, &bell];
        let keys = [key(0, 0), key(1, 0), key(1, 0)];

        // one call each: the variant too wide for the device, as its shape
        // says, consumes no stream
        let serial = one_by_one(&seeded(2, 2_000), &bodies, &keys, None);
        let too_wide = SimError::TooManyQubits { required: 3, available: 2 };
        assert_eq!(serial[0], Err(too_wide.clone().into()));

        // batched: [invalid, bell, bell] must sample the same streams
        let batched = seeded(2, 2_000);
        let results = batched.run(&VariantBatch::new(&bodies, keys.to_vec(), None));
        assert_eq!(results[0], Err(too_wide.into()));
        assert_eq!(bits(&results), bits(&serial));
        assert!(results[1..].iter().all(Result::is_ok));
        // only the two real runs are counted
        assert_eq!(batched.executions(), 2);
    }

    #[test]
    fn per_circuit_shots_keep_streams_deterministic_around_errors() {
        // Regression for the scheduled path: when an allocator hands each
        // variant its own shot count and some variants error mid-batch (an
        // over-wide one, a zero-shot allocation), the stream reservation
        // must still mirror a serial pass — no error may shift the sampling
        // streams of the variants after it.
        let mut wide = Circuit::new(3);
        wide.h(0).cx(0, 1).cx(1, 2).measure_all();
        let bell = bell_with_measures();
        let bodies = [&body_of(&bell), &body_of(&wide)];

        // serial reference: only the two valid, positively-allocated bells
        // consume streams (in order)
        let serial = seeded(2, 0);
        let base = serial.device().reserve_streams(2);
        let first = serial.device().execute_stream(&bell, 1_500, base).unwrap();
        let second = serial.device().execute_stream(&bell, 2_500, base + 1).unwrap();

        // batched: [bell(1500), wide(2000), bell(0 shots), bell(2500)]
        let batched = seeded(2, 9_999);
        let keys = vec![key(0, 0), key(1, 0), key(0, 0), key(0, 0)];
        let shots = vec![1_500, 2_000, 0, 2_500];
        let results = batched.run(&VariantBatch::new(&bodies, keys, Some(shots)));
        assert_eq!(results[0].as_ref().unwrap(), &first.probability_vector());
        let too_wide = SimError::TooManyQubits { required: 3, available: 2 };
        assert_eq!(results[1], Err(too_wide.into()), "over-wide errors");
        assert_eq!(results[2], Err(SimError::ZeroShots.into()), "zero allocated shots errors");
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
        let (bell, chain) = (body_of(&bell_with_measures()), body_of(&chain));
        let bodies = [&bell, &chain];
        let keys = [key(0, 0), key(1, 0), key(0, 0)];
        let refused = SimError::TooManyClbits { required: 31, available: 30 };

        let serial = seeded(2, 2_000);
        // placement reads capabilities; the refusal is the run's, and
        // every backend gives it
        assert!(serial.can_run(&chain.shape(0, 0)));
        let one_each = one_by_one(&serial, &bodies, &keys, None);
        assert_eq!(one_each[1], Err(refused.clone().into()));

        let batched = seeded(2, 2_000);
        let results = batched.run(&VariantBatch::new(&bodies, keys.to_vec(), None));
        assert_eq!(results[1], Err(refused.into()), "{:?}", results[1]);
        assert_eq!(bits(&results), bits(&one_each));
        assert_eq!(batched.executions(), 2, "the refused variant reserved no stream");
    }

    #[test]
    fn a_variant_reusing_a_wire_shifts_no_stream_on_a_device_without_mid_circuit_support() {
        // one body, two kinds of variant: its prep slot after the measured
        // wire leaves the wire alone at ordinal 0 (|0>) and acts on it again
        // at ordinals 1..4, which a device without mid-circuit measurement
        // refuses, read off the key's shape
        let q = qrcc_circuit::QubitId::new;
        let fixed = |op| crate::fragment::SkeletonOp::Fixed(op);
        let skeleton = vec![
            fixed(Operation::Single { gate: qrcc_circuit::Gate::H, qubit: q(0) }),
            fixed(Operation::Two { gate: qrcc_circuit::Gate::Cx, qubits: [q(0), q(1)] }),
            fixed(Operation::Measure { qubit: q(0), clbit: 0 }),
            crate::fragment::SkeletonOp::Prep { place: 1, qubit: q(0) },
            fixed(Operation::Single { gate: qrcc_circuit::Gate::Ry(0.4), qubit: q(1) }),
            fixed(Operation::Measure { qubit: q(1), clbit: 1 }),
        ];
        let body = FragmentBody::new("reuse".into(), 2, 2, 0, 4, skeleton).unwrap();
        assert!(!body.shape(0, 0).reuses_wires && body.shape(2, 0).reuses_wires);
        let bodies = [&body];
        let strict = || {
            let config = DeviceConfig::ideal(2).without_mid_circuit().with_seed(3);
            ShotsBackend::new(Device::new(config), 0)
        };

        let without = vec![key(0, 0), key(0, 0), key(0, 0)];
        let mut with = without.clone();
        with.insert(1, key(0, 2));
        let (with_shots, without_shots) = (vec![300, 400, 500, 600], vec![300, 500, 600]);
        let clean = strict().run(&VariantBatch::new(&bodies, without, Some(without_shots)));
        let backend = strict();
        let mixed = backend.run(&VariantBatch::new(&bodies, with, Some(with_shots)));
        let mut others = mixed;
        assert_eq!(others.remove(1), Err(SimError::MidCircuitUnsupported.into()));
        assert_eq!(bits(&others), bits(&clean), "every other draw is bit-identical");
        assert!(others.iter().all(Result::is_ok));
        assert_eq!(backend.executions(), 3, "the refused variant reserved no stream");
        // a device with mid-circuit support runs it
        assert!(seeded(2, 100).run(&VariantBatch::new(&bodies, vec![key(0, 2)], None))[0].is_ok());
    }

    #[test]
    fn dense_shots_equal_the_devices_histogram_densified() {
        // all terminal: one leaf
        let mut terminal = Circuit::new(4);
        terminal.h(0).cx(0, 1).ry(0.7, 2).cx(1, 2).rx(0.3, 3).cz(2, 3).measure_all();
        // measure -> reset reuse: one clbit pattern is dealt by several
        // leaves, so the dense tallies sum pieces before the division
        let mut reuse = Circuit::with_clbits(2, 4);
        reuse.h(0).cx(0, 1).measure(0, 0).reset(0).ry(0.9, 0).cx(0, 1).measure(0, 1);
        reuse.reset(0).h(0).measure(0, 2).measure(1, 3);
        // a REG-8 gate-cut variant for a 5-qubit device that measures at
        // every one of its three gate-cut instances
        let (circuit, graph) = qrcc_circuit::generators::qaoa_regular(8, 3, 1, 3);
        let config = QrccConfig::new(5).with_gate_cuts(true).with_ilp_time_limit(Duration::ZERO);
        let set = FragmentSet::from_plan(&CutPlanner::new(config).plan(&circuit).unwrap()).unwrap();
        let observable = qrcc_circuit::observable::PauliObservable::maxcut(&graph);
        let requests = crate::reconstruct::ExpectationReconstructor::new()
            .requests(&set, &observable)
            .unwrap();
        let reg8 = requests
            .iter()
            .map(|request| set.instantiate_key(&request.key).unwrap())
            .find(|variant| FramedProgram::compile(variant).stats().branch_points == 3)
            .expect("a variant measuring at all three gate-cut instances");
        // refused: wider than the device; it and the zero-shot entry take
        // no stream
        let mut wide = Circuit::new(6);
        wide.h(0).cx(0, 5).measure_all();

        let batch = [&terminal, &reuse, &reg8, &reuse, &wide, &terminal, &reg8];
        let shots = [700, 1_000, 4_096, 0, 300, 1, 999];
        let config = DeviceConfig::ideal(5).with_seed(23);
        let backend = ShotsBackend::new(Device::new(config), 0);
        backend.device().reserve_streams(3); // the batch starts mid-stream
        let circuits: Vec<Circuit> = batch.iter().map(|&c| c.clone()).collect();
        let results = backend.run_batch_with_shots(&circuits, &shots);
        assert_eq!(backend.executions(), 3 + 5, "one stream per runnable circuit");

        let oracle = Device::new(config);
        let mut stream = 3;
        for (i, result) in results.iter().enumerate() {
            if shots[i] == 0 || i == 4 {
                assert!(matches!(result, Err(CoreError::Simulation(_))), "{i}: {result:?}");
                continue;
            }
            let counts = oracle.execute_stream(batch[i], shots[i], stream).unwrap();
            stream += 1;
            let histogram: Vec<u64> =
                counts.probability_vector().iter().map(|p| p.to_bits()).collect();
            let dense: Vec<u64> = result.as_ref().unwrap().iter().map(|p| p.to_bits()).collect();
            assert_eq!(dense, histogram, "circuit {i}: element for element");
        }
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
        // The same key requested three times executes once.
        let request = VariantRequest { key: VariantKey::new(0, 0, 0) };
        let requests = vec![request; 3];
        let backend = ExactBackend::new();
        let results = execute_requests(&fragments, &requests, &backend).unwrap();
        assert_eq!(results.requested(), 3);
        assert_eq!(results.unique_variants(), 1);
        assert_eq!(results.executed(), 1);
        assert_eq!(backend.executions(), 1);
    }

    #[test]
    fn compiled_backend_matches_the_branching_oracle_and_reports_stats() {
        let mut circuits = Vec::new();
        for n in 0..5 {
            let mut c = Circuit::new(3);
            c.h(0).rz(0.3 * (n as f64 + 1.0), 0).s(0).cx(0, 1).t(1).cx(1, 2).measure_all();
            circuits.push(c);
        }
        let compiled = ExactBackend::new();
        let fast = compiled.run_batch(&circuits);
        for (circuit, a) in circuits.iter().zip(&fast) {
            let (a, b) = (a.as_ref().unwrap(), classical_distribution(circuit).unwrap());
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-12, "compiled readout and oracle must agree");
            }
        }
        let stats = compiled.compile_stats().expect("compiled path records stats");
        assert!(stats.gates_in > 0);
        assert!(stats.fusion_ratio() > 1.0, "h·rz·s and cx·t chains must fuse");
    }

    #[test]
    fn wide_all_measured_circuit_reads_out_in_one_leaf() {
        let mut c = qrcc_circuit::generators::vqe_two_local(16, 2, 5);
        let expected = qrcc_sim::StateVector::from_circuit(&c).unwrap().probabilities();
        c.measure_all();
        let backend = ExactBackend::new();
        let dist = single(&backend, &c).unwrap();
        assert_eq!(dist.len(), expected.len());
        for (i, (a, b)) in dist.iter().zip(&expected).enumerate() {
            assert!((a - b).abs() < 1e-12, "P[{i}]: {a} vs {b}");
        }
        let stats = backend.compile_stats().expect("compiled path records stats");
        assert_eq!((stats.terminal_measures, stats.branch_points), (16, 0));
    }

    #[test]
    fn compile_stats_sum_every_circuit_the_backend_ran() {
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
        // the counters the threads added to are the sum of what each
        // circuit's own compile reports, and a repeat adds it again
        let batch = prepare_batch(&fragments, &requests).unwrap();
        let circuits: Vec<Circuit> =
            batch.canonical.iter().map(|key| fragments.instantiate_key(key).unwrap()).collect();
        let mut expected = CompileStats::default();
        for circuit in &circuits {
            expected.merge(FramedProgram::compile(circuit).stats());
        }
        assert!(expected.gates_in > 0 && expected.terminal_measures > 0);
        assert_eq!(backend.compile_stats(), Some(expected.clone()));
        execute_requests(&fragments, &requests, &backend).unwrap();
        let twice = expected.clone();
        expected.merge(&twice);
        let stats = backend.compile_stats().expect("stats persist across batches");
        assert_eq!(stats, expected);
        assert_eq!(stats.fusion_ratio(), twice.fusion_ratio());
        assert_eq!(stats.coverage(), twice.coverage());
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 0), "{stats}");
        // every variant's distribution is its circuit's, as the branching
        // oracle enumerates it
        for (slot, key) in batch.keys.iter().enumerate() {
            let oracle = classical_distribution(&circuits[batch.circuit_of_key[slot]]);
            let dist = compiled.distribution(key).unwrap();
            for (a, b) in dist.iter().zip(oracle.unwrap()) {
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
        let variants = fragments.fragments[0].variant_count();
        let bogus = [
            VariantKey::new(99, 0, 0),
            VariantKey::new(0, variants, 0),
            VariantKey::new(0, 0, 3), // output basis code 3 is no basis
            VariantKey::new(0, 0, 1 << 62), // an output slot the fragment lacks
        ];
        let backend = ExactBackend::new();
        for key in bogus {
            assert!(matches!(
                execute_requests(&fragments, &[VariantRequest { key }], &backend),
                Err(CoreError::InvalidCutSolution { .. })
            ));
        }
    }

    #[test]
    fn missing_variant_lookup_is_a_typed_error() {
        let results = ExecutionResults::default();
        let key = VariantKey::new(7, 0, 0);
        assert!(matches!(
            results.distribution(&key),
            Err(CoreError::MissingVariant { fragment: 7 })
        ));
    }

    #[test]
    fn a_job_view_runs_the_variants_its_picks_name() {
        let set = chain_fragments();
        let requests = crate::reconstruct::ProbabilityReconstructor::new().requests(&set).unwrap();
        let batch = prepare_batch(&set, &requests).unwrap();
        let scattered = batch.variants(vec![3, 1], None);
        assert_eq!(scattered.keys(), [batch.canonical[3], batch.canonical[1]]);
        let circuits: Vec<Circuit> =
            batch.canonical.iter().map(|key| set.instantiate_key(key).unwrap()).collect();
        assert_eq!(
            [scattered.build(0), scattered.build(1)],
            [circuits[3].clone(), circuits[1].clone()]
        );
        // a selection keeps its keys' shots
        let counted = batch.variants(vec![3, 1, 2], Some(vec![16, 48, 5]));
        let picked = counted.select(&[2, 0]);
        assert_eq!(picked.keys(), [batch.canonical[2], batch.canonical[3]]);
        assert_eq!(picked.shots(), Some(&[5, 16][..]));

        // bit for bit what the built circuits give; the seeded shots
        // backends draw from the same streams
        let exact = ExactBackend::new();
        let picked = [circuits[3].clone(), circuits[1].clone()];
        assert_eq!(bits(&exact.run(&scattered)), bits(&exact.run_batch(&picked)));
        assert_eq!(exact.executions(), 4);
        let shots =
            |seed| ShotsBackend::new(Device::new(DeviceConfig::ideal(3).with_seed(seed)), 64);
        assert_eq!(bits(&shots(7).run(&scattered)), bits(&shots(7).run_batch(&picked)));
        assert!(shots(7).run(&batch.variants(vec![], None)).is_empty());
    }

    /// Every `(key, distribution bits)` of `results`, with its accounting.
    fn bitwise(results: &ExecutionResults) -> (Vec<(VariantKey, Vec<u64>)>, u64, u64) {
        let entries = results
            .iter()
            .map(|(&key, d)| (key, d.iter().map(|v| v.to_bits()).collect()))
            .collect();
        (entries, results.requested(), results.executed())
    }

    #[test]
    fn one_circuit_chunks_merge_to_the_single_chunk_results() {
        let (circuit, graph) = qrcc_circuit::generators::qaoa_regular(6, 3, 1, 11);
        let config = QrccConfig::new(4)
            .with_subcircuit_range(2, 3)
            .with_gate_cuts(true)
            .with_ilp_time_limit(Duration::ZERO);
        let plan = CutPlanner::new(config).plan(&circuit).unwrap();
        let set = FragmentSet::from_plan(&plan).unwrap();
        let observable = qrcc_circuit::observable::PauliObservable::maxcut(&graph);
        let requests = crate::reconstruct::ExpectationReconstructor::new()
            .requests(&set, &observable)
            .unwrap();
        let batch = prepare_batch(&set, &requests).unwrap();
        assert!(batch.keys.len() > batch.len(), "keys share circuits");

        let mut registry = crate::schedule::DeviceRegistry::new();
        registry.register("exact", ExactBackend::new());
        let run = |chunk_size| {
            let policy = crate::SchedulePolicy::default().with_chunk_size(chunk_size);
            let scheduler = crate::schedule::Scheduler::new(&registry, policy);
            let mut chunks = Vec::new();
            scheduler
                .execute_chunked(&set, &requests, |chunk| {
                    chunks.push(chunk);
                    Ok(())
                })
                .unwrap();
            chunks
        };
        let single = run(0);
        assert_eq!(single.len(), 1);
        let chunks = run(1);
        assert_eq!(chunks.len(), batch.len());
        let mut merged = ExecutionResults::default();
        for (circuit, chunk) in chunks.into_iter().enumerate() {
            // each chunk holds exactly the keys of its one circuit
            let keys: Vec<VariantKey> = chunk.iter().map(|(&key, _)| key).collect();
            let mut expected: Vec<VariantKey> = (0..batch.keys.len())
                .filter(|&slot| batch.circuit_of_key[slot] == circuit)
                .map(|slot| batch.keys[slot])
                .collect();
            expected.sort();
            assert_eq!(keys, expected, "circuit {circuit}");
            merged.extend(chunk);
        }
        assert_eq!(bitwise(&merged), bitwise(&single[0]));
        assert_eq!(merged.requested(), requests.len() as u64);
    }

    fn chain_fragments() -> FragmentSet {
        let mut c = Circuit::new(5);
        c.h(0).cx(0, 1).cx(1, 2).ry(0.4, 2).cx(2, 3).cx(3, 4);
        let plan = CutPlanner::new(
            QrccConfig::new(3)
                .with_subcircuit_range(2, 3)
                .with_qubit_reuse(false)
                .with_ilp_time_limit(Duration::ZERO),
        )
        .plan(&c)
        .unwrap();
        FragmentSet::from_plan(&plan).unwrap()
    }

    #[test]
    fn dispatch_hands_backends_canonical_keys_with_their_shapes() {
        let (circuit, graph) = qrcc_circuit::generators::qaoa_regular(6, 3, 1, 11);
        let config = QrccConfig::new(4)
            .with_subcircuit_range(2, 3)
            .with_gate_cuts(true)
            .with_ilp_time_limit(Duration::ZERO);
        let plan = CutPlanner::new(config).plan(&circuit).unwrap();
        let set = FragmentSet::from_plan(&plan).unwrap();
        assert!(set.num_gate_cuts() > 0, "measuring instances alias: keys get canonicalised");
        let observable = qrcc_circuit::observable::PauliObservable::maxcut(&graph);
        let requests = crate::reconstruct::ExpectationReconstructor::new()
            .requests(&set, &observable)
            .unwrap();
        // a job's view holds canonical keys, in whatever order the job picks
        // them, and builds each one's circuit, whose shape the router read
        let batch = prepare_batch(&set, &requests).unwrap();
        let picks: Vec<usize> = (0..batch.len()).rev().step_by(2).collect();
        let job = batch.variants(picks.clone(), None);
        assert!(job.len() > 1);
        for (i, (key, pick)) in job.keys().iter().zip(picks).enumerate() {
            let fragment = set.fragment_of(key).unwrap();
            assert_eq!(fragment.canonical_ordinal(key.ordinal), key.ordinal);
            assert_eq!(batch.shapes[pick], CircuitShape::of(&job.build(i)));
            assert_eq!(batch.shapes[pick], job.shape(i));
        }
        let reference = execute_requests(&set, &requests, &ExactBackend::new()).unwrap();

        let mut registry = crate::schedule::DeviceRegistry::new();
        registry.register("first", ExactBackend::new());
        registry.register("second", ExactBackend::new());
        let policy = crate::SchedulePolicy::default().with_chunk_size(5);
        let scheduler = crate::schedule::Scheduler::new(&registry, policy);
        let mut merged = ExecutionResults::default();
        let report = scheduler
            .execute_chunked(&set, &requests, |chunk| {
                merged.extend(chunk);
                Ok(())
            })
            .unwrap();
        let both = report.backends.len() == 2 && report.backends.iter().all(|u| u.circuits > 0);
        assert!(both, "{:?}", report.backends);
        assert_eq!(merged.executed(), reference.executed());
        for (key, distribution) in reference.iter() {
            assert_eq!(merged.distribution(key).unwrap(), distribution);
        }
    }
}
