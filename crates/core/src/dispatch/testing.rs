//! Fault-injection test doubles for the dispatch subsystem: deterministic
//! flaky backends (transient and persistent failures) and queue-latency
//! wrappers. They ship behind the crate's `testing` feature (always on for
//! this crate's own tests) so downstream integration tests, benches and
//! examples — including the `qrcc-net` transport tests — can simulate
//! unreliable fleets without the doubles riding along in production builds.
//! The TCP-level counterpart, `qrcc_net::testing::FaultyProxy`, injects
//! faults below these backends: into the byte stream itself.

use crate::execute::ExecutionBackend;
use crate::CoreError;
use parking_lot::Mutex;
use qrcc_circuit::Circuit;
use qrcc_sim::compile::CompileStats;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// How a [`FlakyBackend`] fails the circuits it selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureMode {
    /// A selected circuit fails its first `n` submissions to this backend,
    /// then succeeds — a device that drops jobs and recovers.
    Transient(u32),
    /// A selected circuit **always** fails here — a device that cannot run
    /// it (miscalibrated, offline for that job class). Only re-routing to a
    /// different backend can save the circuit.
    Persistent,
}

/// A deterministic failure-injecting wrapper around another backend.
///
/// A seeded hash of each circuit's structural identity selects a
/// `fail_fraction` of circuits to fail with
/// [`CoreError::BackendUnavailable`]; the decision depends only on
/// `(circuit, seed, submissions so far)`, never on thread timing, so fault
/// injection is reproducible across worker counts and dispatch schedules.
/// Failing circuits are rejected *before* execution — the inner backend
/// never sees them, exactly like a queue rejection — so a wrapped
/// [`ShotsBackend`](crate::execute::ShotsBackend) keeps its deterministic
/// sampling streams for the circuits that do run.
///
/// ```rust
/// use qrcc_core::dispatch::FlakyBackend;
/// use qrcc_core::execute::{ExactBackend, ExecutionBackend};
/// use qrcc_circuit::Circuit;
///
/// let flaky = FlakyBackend::transient(ExactBackend::new(), 7, 1.0);
/// let mut c = Circuit::new(1);
/// c.h(0).measure(0, 0);
/// assert!(flaky.run(&[&c], None)[0].is_err(), "first submission is dropped");
/// assert!(flaky.run(&[&c], None)[0].is_ok(), "the transient fault clears");
/// assert_eq!(flaky.injected_failures(), 1);
/// ```
pub struct FlakyBackend<B> {
    inner: B,
    seed: u64,
    fail_fraction: f64,
    mode: FailureMode,
    /// Submissions seen per structural circuit hash (drives `Transient`).
    submissions: Mutex<HashMap<u64, u32>>,
    injected: AtomicU64,
}

/// SplitMix64 finaliser: decorrelates the structural hash from the seed so
/// `fail_fraction` selects an unbiased, reproducible subset of circuits.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl<B: ExecutionBackend> FlakyBackend<B> {
    /// A backend where a seeded `fail_fraction` of circuits fail **once**
    /// and then succeed.
    pub fn transient(inner: B, seed: u64, fail_fraction: f64) -> Self {
        Self::with_mode(inner, seed, fail_fraction, FailureMode::Transient(1))
    }

    /// A backend where a seeded `fail_fraction` of circuits **always** fail.
    pub fn persistent(inner: B, seed: u64, fail_fraction: f64) -> Self {
        Self::with_mode(inner, seed, fail_fraction, FailureMode::Persistent)
    }

    /// A backend that fails *every* circuit, every time — for retry
    /// exhaustion tests.
    pub fn always_failing(inner: B) -> Self {
        Self::with_mode(inner, 0, 1.1, FailureMode::Persistent)
    }

    /// Full-control constructor.
    ///
    /// # Panics
    ///
    /// Panics if `fail_fraction` is negative or not finite.
    pub fn with_mode(inner: B, seed: u64, fail_fraction: f64, mode: FailureMode) -> Self {
        assert!(
            fail_fraction.is_finite() && fail_fraction >= 0.0,
            "fail fraction must be finite and non-negative"
        );
        FlakyBackend {
            inner,
            seed,
            fail_fraction,
            mode,
            submissions: Mutex::new(HashMap::new()),
            injected: AtomicU64::new(0),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Number of failures injected so far.
    pub fn injected_failures(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Whether the seeded selection marks this circuit as failure-prone.
    pub fn selects(&self, circuit: &Circuit) -> bool {
        let draw = (mix(circuit.structural_hash() ^ self.seed) >> 11) as f64 / (1u64 << 53) as f64;
        draw < self.fail_fraction
    }

    /// Decides one submission of `circuit`: `Some(error)` to inject a
    /// failure, `None` to pass it through. Counts the submission either way.
    fn inject(&self, circuit: &Circuit) -> Option<CoreError> {
        if !self.selects(circuit) {
            return None;
        }
        let attempt = {
            let mut submissions = self.submissions.lock();
            let slot = submissions.entry(circuit.structural_hash()).or_insert(0);
            *slot += 1;
            *slot
        };
        let fail = match self.mode {
            FailureMode::Transient(n) => attempt <= n,
            FailureMode::Persistent => true,
        };
        if !fail {
            return None;
        }
        self.injected.fetch_add(1, Ordering::Relaxed);
        Some(CoreError::BackendUnavailable {
            backend: self.label(),
            reason: format!("injected fault (submission {attempt})"),
        })
    }
}

impl<B: ExecutionBackend> ExecutionBackend for FlakyBackend<B> {
    /// Decides every circuit first, runs only the survivors through the
    /// inner backend as one sub-batch (order preserved, circuits borrowed),
    /// then splices the injected failures back in. Rejected circuits never
    /// reach the inner backend — like a queue rejecting a job up front.
    fn run(
        &self,
        circuits: &[&Circuit],
        shots: Option<&[u64]>,
    ) -> Vec<Result<Vec<f64>, CoreError>> {
        let verdicts: Vec<Option<CoreError>> = circuits.iter().map(|c| self.inject(c)).collect();
        let passing: Vec<usize> = (0..circuits.len()).filter(|&i| verdicts[i].is_none()).collect();
        let sub: Vec<&Circuit> = passing.iter().map(|&i| circuits[i]).collect();
        let sub_shots: Option<Vec<u64>> = shots.map(|s| passing.iter().map(|&i| s[i]).collect());
        let mut sub_results = self.inner.run(&sub, sub_shots.as_deref()).into_iter();
        verdicts
            .into_iter()
            .map(|verdict| match verdict {
                Some(error) => Err(error),
                None => sub_results.next().expect("one inner result per passing circuit"),
            })
            .collect()
    }

    fn max_qubits(&self) -> Option<usize> {
        self.inner.max_qubits()
    }

    fn can_run(&self, circuit: &Circuit) -> bool {
        self.inner.can_run(circuit)
    }

    fn shots_per_circuit(&self) -> Option<u64> {
        self.inner.shots_per_circuit()
    }

    fn label(&self) -> String {
        format!("flaky({})", self.inner.label())
    }

    fn executions(&self) -> u64 {
        self.inner.executions()
    }

    fn compile_stats(&self) -> Option<CompileStats> {
        self.inner.compile_stats()
    }
}

impl<B: std::fmt::Debug> std::fmt::Debug for FlakyBackend<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlakyBackend")
            .field("inner", &self.inner)
            .field("seed", &self.seed)
            .field("fail_fraction", &self.fail_fraction)
            .field("mode", &self.mode)
            .field("injected", &self.injected.load(Ordering::Relaxed))
            .finish()
    }
}

/// A queue-latency wrapper: every submission waits `latency` before the
/// inner backend executes — a stand-in for the job queue of a busy remote
/// device. With per-backend dispatch workers, queue latency on one device
/// overlaps execution on the others (and overlaps reconstruction of already
/// delivered chunks).
#[derive(Debug)]
pub struct QueueBackend<B> {
    inner: B,
    latency: Duration,
}

impl<B: ExecutionBackend> QueueBackend<B> {
    /// Wraps `inner` with a fixed per-submission queue `latency`.
    pub fn new(inner: B, latency: Duration) -> Self {
        QueueBackend { inner, latency }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The simulated queue latency per submission.
    pub fn latency(&self) -> Duration {
        self.latency
    }
}

impl<B: ExecutionBackend> ExecutionBackend for QueueBackend<B> {
    fn run(
        &self,
        circuits: &[&Circuit],
        shots: Option<&[u64]>,
    ) -> Vec<Result<Vec<f64>, CoreError>> {
        std::thread::sleep(self.latency);
        self.inner.run(circuits, shots)
    }

    fn max_qubits(&self) -> Option<usize> {
        self.inner.max_qubits()
    }

    fn can_run(&self, circuit: &Circuit) -> bool {
        self.inner.can_run(circuit)
    }

    fn shots_per_circuit(&self) -> Option<u64> {
        self.inner.shots_per_circuit()
    }

    fn label(&self) -> String {
        format!("queued({})", self.inner.label())
    }

    fn executions(&self) -> u64 {
        self.inner.executions()
    }

    fn compile_stats(&self) -> Option<CompileStats> {
        self.inner.compile_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute::ExactBackend;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        c
    }

    fn single(backend: &dyn ExecutionBackend, circuit: &Circuit) -> Result<Vec<f64>, CoreError> {
        backend.run(&[circuit], None).pop().expect("one result per circuit")
    }

    #[test]
    fn transient_faults_clear_after_the_configured_count() {
        let flaky = FlakyBackend::with_mode(ExactBackend::new(), 3, 1.0, FailureMode::Transient(2));
        let c = bell();
        assert!(matches!(single(&flaky, &c), Err(CoreError::BackendUnavailable { .. })));
        assert!(matches!(single(&flaky, &c), Err(CoreError::BackendUnavailable { .. })));
        assert!(single(&flaky, &c).is_ok());
        assert_eq!(flaky.injected_failures(), 2);
        // the inner backend only saw the successful submission
        assert_eq!(flaky.executions(), 1);
    }

    #[test]
    fn persistent_faults_never_clear() {
        let flaky = FlakyBackend::always_failing(ExactBackend::new());
        let c = bell();
        for _ in 0..4 {
            assert!(single(&flaky, &c).is_err());
        }
        assert_eq!(flaky.executions(), 0);
    }

    #[test]
    fn selection_is_deterministic_and_respects_the_fraction() {
        let reference = FlakyBackend::persistent(ExactBackend::new(), 42, 0.5);
        let twin = FlakyBackend::persistent(ExactBackend::new(), 42, 0.5);
        let mut selected = 0usize;
        let total = 64usize;
        for i in 0..total {
            let mut c = Circuit::new(2);
            c.h(0).ry(0.1 * (i as f64 + 1.0), 1).cx(0, 1).measure_all();
            assert_eq!(reference.selects(&c), twin.selects(&c), "same seed, same selection");
            if reference.selects(&c) {
                selected += 1;
            }
        }
        assert!(selected > total / 5 && selected < 4 * total / 5, "{selected}/{total} selected");
    }

    #[test]
    fn batch_path_splices_failures_without_executing_them() {
        let flaky = FlakyBackend::with_mode(ExactBackend::new(), 9, 1.0, FailureMode::Transient(1));
        let c = bell();
        let results = flaky.run(&[&c, &c], None);
        // the first submission of the (structurally identical) circuit fails,
        // the second already counts as a later submission and passes
        assert!(results[0].is_err());
        assert!(results[1].is_ok());
        assert_eq!(flaky.executions(), 1);
    }

    #[test]
    fn zero_fraction_is_transparent() {
        let flaky = FlakyBackend::transient(ExactBackend::new(), 1, 0.0);
        assert!(single(&flaky, &bell()).is_ok());
        assert_eq!(flaky.injected_failures(), 0);
        assert_eq!(flaky.label(), "flaky(exact)");
    }

    #[test]
    fn queue_backend_delegates_after_the_latency() {
        let queued = QueueBackend::new(ExactBackend::new(), Duration::from_millis(1));
        let dist = single(&queued, &bell()).unwrap();
        assert!((dist[0b00] - 0.5).abs() < 1e-12);
        assert_eq!(queued.label(), "queued(exact)");
        assert_eq!(queued.latency(), Duration::from_millis(1));
    }

    #[test]
    fn wrappers_forward_their_inner_compile_stats() {
        let mut registry = crate::schedule::DeviceRegistry::new();
        registry.register("flaky", FlakyBackend::transient(ExactBackend::new(), 1, 0.0));
        registry.register("queued", QueueBackend::new(ExactBackend::new(), Duration::ZERO));
        for entry in registry.entries() {
            assert!(single(entry.backend(), &bell()).is_ok());
        }
        let one = ExactBackend::new();
        single(&one, &bell()).unwrap();
        let mut expected = one.compile_stats().expect("an exact backend compiles");
        assert!(expected.gates_in > 0);
        expected.merge(&expected.clone());
        // what a schedule report's `kernel_compile` reads
        assert_eq!(registry.compile_stats(), Some(expected));
    }
}
