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
//! 2. **Deduplicate** — each key maps to its canonical circuit by a rule on
//!    the ordinal (`Fragment::canonical_ordinal`: the two measuring
//!    gate-cut instances of a half build one circuit), so only canonical keys
//!    are instantiated and no circuit is hashed. The surviving circuits form
//!    the batch, in first-request order.
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
//!    excluded, up to [`SchedulePolicy::max_retries`] times. Each delivered
//!    chunk is an [`ExecutionResults`] in ascending key order, where keys
//!    that share a circuit share its distribution. A job reaches its backend
//!    as one [`ExecutionBackend::run_variants`] call over a [`VariantBatch`]
//!    (canonical keys plus the circuits they instantiate, borrowed from the
//!    batch), so a remote backend can ship keys instead of circuits.
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
use qrcc_sim::compile::{interpreted_forced_by_env, CompileCounters, CompileStats, FramedProgram};
use qrcc_sim::device::Device;
use qrcc_sim::{Counts, SimError};
use rayon::prelude::*;
use std::borrow::{Borrow, Cow};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

    /// Executes a batch of fragment variants, returning one result per
    /// variant in order. The dispatcher calls this for every job.
    ///
    /// The default runs the variants' instantiated circuits through
    /// [`ExecutionBackend::run_batch_with_shots`] (with shots) or
    /// [`ExecutionBackend::run_batch`] — the circuits are borrowed from the
    /// batch when the variants are a contiguous run of it, copied otherwise.
    /// A remote backend overrides it to ship each fragment once and then
    /// only the canonical [`VariantKey`]s; the in-process backends override
    /// it to run the circuits where the batch holds them
    /// ([`VariantBatch::circuit_refs`]), since a job's share of a chunk
    /// split over several backends is rarely contiguous.
    fn run_variants(&self, variants: &VariantBatch<'_>) -> Vec<Result<Vec<f64>, CoreError>> {
        let circuits = variants.circuits();
        match variants.shots() {
            Some(shots) => self.run_batch_with_shots(&circuits, shots),
            None => self.run_batch(&circuits),
        }
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

    /// A short human-readable label for accounting.
    fn label(&self) -> String {
        "backend".into()
    }

    /// Number of circuits executed so far (for instance accounting).
    fn executions(&self) -> u64;

    /// Cumulative kernel-compilation statistics of the backend's simulator,
    /// or `None` when the backend interprets gate-by-gate (or is not a
    /// simulator at all). Backends that run the compiled kernel path
    /// ([`ExactBackend`], [`ShotsBackend`]) report the sum over every
    /// circuit they compiled ([`CompileCounters`]); the default keeps
    /// non-simulating backends at `None`.
    fn compile_stats(&self) -> Option<CompileStats> {
        None
    }
}

/// The variant view of one batch of work: canonical [`VariantKey`]s of a
/// [`FragmentSet`], the circuits they instantiate to, and optional per-variant
/// shots — what [`ExecutionBackend::run_variants`] receives.
///
/// The view picks some entries of batch-wide key and circuit lists (a
/// dispatcher job runs the circuits of a chunk routed to one backend)
/// without copying them.
#[derive(Debug, Clone)]
pub struct VariantBatch<'a> {
    fragments: &'a FragmentSet,
    keys: &'a [VariantKey],
    circuits: &'a [Circuit],
    picks: Cow<'a, [usize]>,
    shots: Option<&'a [u64]>,
}

impl<'a> VariantBatch<'a> {
    /// Every variant of `keys`, where `circuits[i]` is what `keys[i]`
    /// instantiates to (each circuit's canonical key, so keys sharing a
    /// circuit appear once) and `shots`, when given, holds one count per variant.
    ///
    /// # Panics
    ///
    /// Panics if the lengths disagree or a key names no fragment of
    /// `fragments`.
    pub fn new(
        fragments: &'a FragmentSet,
        keys: &'a [VariantKey],
        circuits: &'a [Circuit],
        shots: Option<&'a [u64]>,
    ) -> Self {
        let known = |key: &VariantKey| key.fragment < fragments.fragments.len();
        assert!(keys.iter().all(known), "every key names a fragment of the set");
        let picks = Cow::Owned((0..keys.len()).collect());
        Self::picked(fragments, keys, circuits, picks, shots)
    }

    /// The variants at `picks` of the batch-wide `keys`/`circuits`, with
    /// one shot count per pick.
    pub(crate) fn picked(
        fragments: &'a FragmentSet,
        keys: &'a [VariantKey],
        circuits: &'a [Circuit],
        picks: Cow<'a, [usize]>,
        shots: Option<&'a [u64]>,
    ) -> Self {
        assert_eq!(keys.len(), circuits.len(), "one circuit per variant key");
        assert!(shots.is_none_or(|s| s.len() == picks.len()), "one shot count per variant");
        VariantBatch { fragments, keys, circuits, picks, shots }
    }

    /// The fragment set the keys index.
    pub fn fragments(&self) -> &'a FragmentSet {
        self.fragments
    }

    /// Number of variants.
    pub fn len(&self) -> usize {
        self.picks.len()
    }

    /// Whether the batch holds no variant.
    pub fn is_empty(&self) -> bool {
        self.picks.is_empty()
    }

    /// The canonical keys, in batch order.
    pub fn keys(&self) -> impl Iterator<Item = VariantKey> + '_ {
        self.picks.iter().map(|&i| self.keys[i])
    }

    /// Per-variant shots, when the scheduler allocated them.
    pub fn shots(&self) -> Option<&'a [u64]> {
        self.shots
    }

    /// The instantiated circuits, in batch order, where the batch holds
    /// them.
    pub fn circuit_refs(&self) -> Vec<&'a Circuit> {
        self.picks.iter().map(|&i| &self.circuits[i]).collect()
    }

    /// The instantiated circuits, in batch order: borrowed when the
    /// variants are a contiguous run of the batch, cloned otherwise.
    pub fn circuits(&self) -> Cow<'a, [Circuit]> {
        let run = self.picks.windows(2).all(|pair| pair[1] == pair[0] + 1);
        match self.picks.first() {
            Some(&first) if run => Cow::Borrowed(&self.circuits[first..first + self.picks.len()]),
            None => Cow::Borrowed(&[]),
            _ => Cow::Owned(self.picks.iter().map(|&i| self.circuits[i].clone()).collect()),
        }
    }
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
/// deduplicated circuits they instantiate, and the key → circuit mapping.
/// Shared by the single-backend [`execute_requests`] path and the
/// multi-backend [`Scheduler`](crate::schedule::Scheduler).
#[derive(Debug, Clone)]
pub(crate) struct PreparedBatch {
    /// First-seen-ordered unique keys.
    pub(crate) keys: Vec<VariantKey>,
    /// The deduplicated circuits to execute, in first-seen order.
    pub(crate) circuits: Vec<Circuit>,
    /// The canonical key each circuit instantiates (parallel to
    /// `circuits`).
    pub(crate) canonical: Vec<VariantKey>,
    /// For each unique key, the index of its circuit in `circuits`.
    pub(crate) circuit_of_key: Vec<usize>,
    /// Per unique key, how many duplicate requests collapsed into it.
    pub(crate) key_count: Vec<u64>,
    /// Key slots grouped by circuit, ascending within each group: circuit
    /// `c`'s keys are `keys_by_circuit[key_start[c]..key_start[c + 1]]`,
    /// so a chunk of circuits finds its keys without scanning the batch.
    keys_by_circuit: Vec<usize>,
    /// Group offsets into `keys_by_circuit` (one more than `circuits`).
    key_start: Vec<usize>,
    /// Total requests before dedup.
    pub(crate) requested: u64,
}

/// Phase 2 of the protocol: deduplicates `requests` by [`VariantKey`] and
/// maps every key to its canonical circuit by the ordinal rule of
/// `Fragment::canonical_ordinal`, instantiating
/// each canonical key once — so e.g. the two measuring gate-cut instances of
/// a half run once, and no circuit is hashed.
///
/// # Errors
///
/// [`CoreError::InvalidCutSolution`] for keys that do not match `fragments`.
pub(crate) fn prepare_batch(
    fragments: &FragmentSet,
    requests: &[VariantRequest],
) -> Result<PreparedBatch, CoreError> {
    let mut slot_of_key: HashMap<VariantKey, usize> = HashMap::with_capacity(requests.len());
    let mut circuit_of_canonical: HashMap<VariantKey, usize> = HashMap::new();
    let mut batch = PreparedBatch {
        keys: Vec::with_capacity(requests.len()),
        circuits: Vec::new(),
        canonical: Vec::new(),
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
            batch.circuits.push(fragment.instantiate(canonical.ordinal, canonical.outputs));
            batch.canonical.push(canonical);
            batch.circuits.len() - 1
        });
        slot_of_key.insert(key, batch.keys.len());
        batch.keys.push(key);
        batch.circuit_of_key.push(circuit);
        batch.key_count.push(1);
    }
    // a counting sort of the key slots by circuit
    let mut key_start = vec![0; batch.circuits.len() + 1];
    for &circuit in &batch.circuit_of_key {
        key_start[circuit + 1] += 1;
    }
    for circuit in 0..batch.circuits.len() {
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

impl PreparedBatch {
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
/// [`VariantKey`], maps them to canonical circuits, and executes those as
/// one [`ExecutionBackend::run_batch`] call. Multi-backend routing, shot
/// allocation and chunking live in [`crate::schedule::Scheduler`].
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
    let outcomes = backend.run_batch(&batch.circuits);
    if outcomes.len() != batch.circuits.len() {
        return Err(CoreError::InvalidCutSolution {
            reason: format!(
                "backend returned {} results for a batch of {} circuits",
                outcomes.len(),
                batch.circuits.len()
            ),
        });
    }
    let distributions =
        outcomes.into_iter().map(|outcome| outcome.map(Arc::new)).collect::<Result<_, _>>()?;
    Ok(batch.results(0..batch.circuits.len(), distributions))
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
    compiled: CompileCounters,
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
            compiled: CompileCounters::new(),
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
            let program = FramedProgram::compile(circuit);
            self.compiled.add(&program);
            Ok(program.classical_distribution()?)
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

    fn run_variants(&self, variants: &VariantBatch<'_>) -> Vec<Result<Vec<f64>, CoreError>> {
        let circuits = variants.circuit_refs();
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
        self.use_compiled.then(|| self.compiled.stats())
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
    fn run_batch_streams<C: Borrow<Circuit> + Sync>(
        &self,
        circuits: &[C],
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
                self.check(circuit.borrow())?;
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
                let counts = self.device.execute_stream(circuit.borrow(), shots_of(i), stream)?;
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

    fn run_variants(&self, variants: &VariantBatch<'_>) -> Vec<Result<Vec<f64>, CoreError>> {
        let circuits = variants.circuit_refs();
        match variants.shots() {
            Some(shots) => self.run_batch_streams(&circuits, |i| shots[i]),
            None => self.run_batch_streams(&circuits, |_| self.shots),
        }
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
        if !interpreted_forced_by_env() {
            // the counters the threads added to are the sum of what each
            // circuit's own compile reports, and a repeat adds it again
            let batch = prepare_batch(&fragments, &requests).unwrap();
            let mut expected = CompileStats::default();
            for circuit in &batch.circuits {
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
    fn variant_batches_borrow_contiguous_runs_and_copy_scattered_picks() {
        let set = chain_fragments();
        let requests = crate::reconstruct::ProbabilityReconstructor::new().requests(&set).unwrap();
        let batch = prepare_batch(&set, &requests).unwrap();
        let view = |picks: Vec<usize>| {
            VariantBatch::picked(&set, &batch.canonical, &batch.circuits, Cow::Owned(picks), None)
        };
        assert!(matches!(view(vec![1, 2, 3]).circuits(), Cow::Borrowed(c) if c.len() == 3));
        assert!(matches!(view(vec![]).circuits(), Cow::Borrowed([])));
        let scattered = view(vec![3, 1]);
        assert!(matches!(scattered.circuits(), Cow::Owned(_)));
        assert_eq!(scattered.circuits()[0], batch.circuits[3]);
        assert_eq!(scattered.keys().collect::<Vec<_>>(), [batch.canonical[3], batch.canonical[1]]);
        assert_eq!(scattered.circuit_refs(), [&batch.circuits[3], &batch.circuits[1]]);

        // the in-process backends run scattered picks in place, exactly as
        // the default's copies would run
        let copied = scattered.circuits().into_owned();
        let exact = ExactBackend::new();
        assert_eq!(exact.run_variants(&scattered), exact.run_batch(&copied));
        assert_eq!(exact.executions(), 4);
        let shots =
            |seed| ShotsBackend::new(Device::new(DeviceConfig::ideal(3).with_seed(seed)), 64);
        assert_eq!(shots(7).run_variants(&scattered), shots(7).run_batch(&copied));
        let counts = [16, 48];
        let with_shots = VariantBatch::picked(
            &set,
            &batch.canonical,
            &batch.circuits,
            Cow::Owned(vec![3, 1]),
            Some(&counts),
        );
        assert_eq!(
            shots(7).run_variants(&with_shots),
            shots(7).run_batch_with_shots(&copied, &counts)
        );
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
        assert!(batch.keys.len() > batch.circuits.len(), "keys share circuits");

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
        assert_eq!(chunks.len(), batch.circuits.len());
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
    fn dispatch_hands_backends_canonical_keys_with_their_circuits() {
        /// Checks every variant it is handed, then runs them exactly.
        struct KeyChecking {
            inner: ExactBackend,
        }
        impl ExecutionBackend for KeyChecking {
            fn run_one(&self, circuit: &Circuit) -> Result<Vec<f64>, CoreError> {
                self.inner.run_one(circuit)
            }
            fn run_variants(
                &self,
                variants: &VariantBatch<'_>,
            ) -> Vec<Result<Vec<f64>, CoreError>> {
                let circuits = variants.circuits();
                for (key, circuit) in variants.keys().zip(circuits.iter()) {
                    let fragment = variants.fragments().fragment_of(&key).unwrap();
                    assert_eq!(fragment.canonical_ordinal(key.ordinal), key.ordinal);
                    assert_eq!(&fragment.instantiate(key.ordinal, key.outputs), circuit);
                }
                self.inner.run_batch(&circuits)
            }
            fn executions(&self) -> u64 {
                self.inner.executions()
            }
        }
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
        let reference = execute_requests(&set, &requests, &ExactBackend::new()).unwrap();

        let mut registry = crate::schedule::DeviceRegistry::new();
        registry.register("checking", KeyChecking { inner: ExactBackend::new() });
        registry.register("plain", ExactBackend::new());
        let policy = crate::SchedulePolicy::default().with_chunk_size(5);
        let scheduler = crate::schedule::Scheduler::new(&registry, policy);
        let mut merged = ExecutionResults::default();
        let report = scheduler
            .execute_chunked(&set, &requests, |chunk| {
                merged.extend(chunk);
                Ok(())
            })
            .unwrap();
        let checked = report.backends.iter().find(|u| u.backend == "checking");
        assert!(checked.is_some_and(|u| u.circuits > 0), "{:?}", report.backends);
        assert_eq!(merged.executed(), reference.executed());
        for (key, distribution) in reference.iter() {
            assert_eq!(merged.distribution(key).unwrap(), distribution);
        }
    }
}
