//! The execution scheduler: multi-device routing, variance-aware shot
//! allocation, and fault-tolerant chunked dispatch between the batch-first
//! execution API and the reconstruction engine.
//!
//! Execution follows the six-phase **enumerate → dedup → route → dispatch →
//! fold → contract** protocol (see [`crate::execute`] for the full
//! walkthrough). Every [`QrccPipeline`] request runs it through a
//! [`Scheduler`] — a single backend is a one-entry [`DeviceRegistry`]:
//!
//! * **Route** — a [`DeviceRegistry`] holds heterogeneous
//!   [`ExecutionBackend`](crate::execute::ExecutionBackend)s (different
//!   qubit counts, noise models, shot costs). Each deduplicated circuit is
//!   placed on a compatible backend (widest circuits first, least projected
//!   load, deterministic), and a [`ShotAllocator`] splits a global shot
//!   budget across the batch proportionally to each circuit's
//!   reconstruction-variance weight (the magnitudes of the cut coefficients
//!   its distribution is folded with — ShotQC-style), instead of spending
//!   the budget uniformly.
//! * **Dispatch** — the [`dispatch`](crate::dispatch) event loop drives the
//!   routed sub-batches through one worker thread per backend: chunks flow
//!   under a **bounded in-flight window**
//!   ([`SchedulePolicy::max_in_flight_chunks`]) so a slow consumer throttles
//!   dispatch, circuits that fail on a backend are **retried** on another
//!   compatible backend with the failer excluded
//!   ([`SchedulePolicy::max_retries`]), and completed chunks are delivered
//!   in order, each holding its [`VariantKey`](crate::fragment::VariantKey)s
//!   in ascending order.
//! * **Fold** — [`Scheduler::execute_chunked`] hands each delivered
//!   [`ExecutionResults`] chunk to a sink, so a
//!   [`ProbabilityAccumulator`](crate::reconstruct::ProbabilityAccumulator)
//!   or [`ExpectationAccumulator`](crate::reconstruct::ExpectationAccumulator)
//!   can fold fragment tensors while later chunks are still executing (see
//!   [`QrccPipeline::execute_streaming`]).
//!
//! The returned [`ScheduleReport`] is the run's one account: shots spent,
//! per-backend usage, dispatch counters, and the registry's kernel-compile
//! and result-cache snapshots taken after the last chunk.
//!
//! [`QrccPipeline`]: crate::pipeline::QrccPipeline
//! [`QrccPipeline::execute_streaming`]: crate::pipeline::QrccPipeline::execute_streaming
//! [`SchedulePolicy::max_in_flight_chunks`]: crate::SchedulePolicy::max_in_flight_chunks
//! [`SchedulePolicy::max_retries`]: crate::SchedulePolicy::max_retries

mod allocator;
mod registry;
pub(crate) mod router;

pub use allocator::{variant_weight, ShotAllocator};
pub use registry::{DeviceRegistry, RegisteredBackend};

pub use crate::config::{SchedulePolicy, ShotAllocation};

use crate::cache::CacheStats;
use crate::dispatch::{DispatchStats, Dispatcher};
use crate::execute::{prepare_batch, BackendUsage, ExecutionResults};
use crate::fragment::{FragmentSet, VariantRequest};
use crate::CoreError;
use qrcc_sim::compile::CompileStats;

/// What one scheduled execution did: per-backend usage, shot totals, chunk
/// count, the dispatch-layer lifecycle telemetry, and the registry's
/// kernel-compile and result-cache snapshots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScheduleReport {
    /// Per-backend circuits routed and shots spent, for every backend that
    /// did any work, in registry order.
    pub backends: Vec<BackendUsage>,
    /// Total shots spent across all backends. Exact backends ignore shot
    /// allocations and spend none, so an exact-only registry reports 0 even
    /// under a budget.
    pub total_shots: u64,
    /// Number of deduplicated circuits executed.
    pub circuits: u64,
    /// Number of chunks the batch was streamed in.
    pub chunks: usize,
    /// The allocation mode that split the budget.
    pub allocation: ShotAllocation,
    /// Dispatch lifecycle telemetry: jobs dispatched / retried / requeued,
    /// observed in-flight window, and per-phase wall-clock.
    pub dispatch: DispatchStats,
    /// Kernel-compilation statistics merged across the registry's compiled
    /// simulator backends, read once after the last chunk: gates lowered,
    /// kernels emitted, fusion ratio, coverage, and how many
    /// measures were terminal against how many branch points exact readout
    /// split at. Cumulative over the backends' lifetimes, not per run;
    /// `None` when every backend interprets gate-by-gate (or is remote).
    pub kernel_compile: Option<CompileStats>,
    /// Counters of the registry's result cache, read once after the last
    /// chunk: full and delta hits, misses, and the device shots the cache
    /// saved. Cumulative like `kernel_compile`; `None` when no cache is
    /// attached.
    pub result_cache: Option<CacheStats>,
}

/// Routes a deduplicated batch across a [`DeviceRegistry`], splits the shot
/// budget, and executes backends concurrently — optionally streaming the
/// results in chunks.
#[derive(Debug, Clone, Copy)]
pub struct Scheduler<'r> {
    registry: &'r DeviceRegistry,
    policy: SchedulePolicy,
}

impl<'r> Scheduler<'r> {
    /// A scheduler over `registry` following `policy`.
    pub fn new(registry: &'r DeviceRegistry, policy: SchedulePolicy) -> Self {
        Scheduler { registry, policy }
    }

    /// The fleet this scheduler routes across.
    pub fn registry(&self) -> &'r DeviceRegistry {
        self.registry
    }

    /// The policy this scheduler splits shots, chunks and retries by.
    pub fn policy(&self) -> &SchedulePolicy {
        &self.policy
    }

    /// The full scheduled pipeline, streaming results chunk by chunk:
    /// deduplicate (each key mapped to its canonical circuit), allocate the
    /// shot budget over the whole batch, then hand the batch to the
    /// [`Dispatcher`]: each chunk of circuits is routed across the registry
    /// and driven through one worker thread per backend, with at most
    /// [`SchedulePolicy::max_in_flight_chunks`] chunks dispatched but not
    /// yet delivered (a slow `sink` exerts backpressure on dispatch) and
    /// failed circuits re-routed to another compatible backend up to
    /// [`SchedulePolicy::max_retries`] times. Chunks reach `sink` strictly
    /// in order; `sink` typically folds into a
    /// [`ProbabilityAccumulator`](crate::reconstruct::ProbabilityAccumulator)
    /// or forwards over a channel so reconstruction overlaps execution.
    ///
    /// The chunk size comes from [`SchedulePolicy::chunk_size`] (`0` = one
    /// chunk). Accounting: each chunk's `requested()` counts the original
    /// (pre-dedup) requests its keys collapsed from, so summing over chunks
    /// reproduces the batch totals, and every circuit's allocated shots are
    /// spent exactly once — on the backend where it finally succeeded.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidCutSolution`] for keys that do not match
    ///   `fragments`.
    /// * [`CoreError::NoCompatibleBackend`] when a circuit fits no
    ///   registered backend.
    /// * [`CoreError::ShotBudgetTooSmall`] when the budget cannot cover the
    ///   per-circuit minimum.
    /// * [`CoreError::RetriesExhausted`] when a circuit keeps failing past
    ///   the retry budget (the first backend error, unwrapped, when
    ///   [`SchedulePolicy::max_retries`] is 0), and any error `sink`
    ///   returns.
    pub fn execute_chunked(
        &self,
        fragments: &FragmentSet,
        requests: &[VariantRequest],
        mut sink: impl FnMut(ExecutionResults) -> Result<(), CoreError>,
    ) -> Result<ScheduleReport, CoreError> {
        let batch = {
            let _span = crate::obs::tracer().span("phase.dedup");
            prepare_batch(fragments, requests)?
        };
        // the variance weights only split a budget; without one the
        // backends keep their own shot defaults
        let shots = match self.policy.shot_budget {
            Some(_) => {
                let allocator = ShotAllocator::new(self.policy);
                allocator.allocate(&allocator.circuit_weights(fragments, &batch))?
            }
            None => None,
        };

        let dispatcher = Dispatcher::new(self.registry, self.policy);
        let mut chunks = 0;
        let (dispatch, backends) =
            dispatcher.dispatch(fragments, &batch, shots.as_deref(), |chunk| {
                chunks += 1;
                sink(chunk)
            })?;
        Ok(ScheduleReport {
            total_shots: backends.iter().map(|usage| usage.shots).sum(),
            backends,
            circuits: batch.circuits.len() as u64,
            chunks,
            allocation: self.policy.allocation,
            dispatch,
            kernel_compile: self.registry.compile_stats(),
            result_cache: self.registry.cache_stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute::{execute_requests, ExactBackend};
    use crate::planner::CutPlanner;
    use crate::reconstruct::ProbabilityReconstructor;
    use crate::QrccConfig;
    use qrcc_circuit::Circuit;
    use std::time::Duration;

    fn chain(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 0..n - 1 {
            c.cx(q, q + 1);
            c.ry(0.2 * (q as f64 + 1.0), q + 1);
        }
        c
    }

    /// Runs `requests` to completion and merges every delivered chunk.
    fn run(
        scheduler: &Scheduler<'_>,
        fragments: &FragmentSet,
        requests: &[VariantRequest],
    ) -> Result<(ExecutionResults, ScheduleReport), CoreError> {
        let mut merged = ExecutionResults::default();
        let report = scheduler.execute_chunked(fragments, requests, |chunk| {
            merged.extend(chunk);
            Ok(())
        })?;
        Ok((merged, report))
    }

    fn fragments_for(circuit: &Circuit, device: usize) -> FragmentSet {
        let config =
            QrccConfig::new(device).with_subcircuit_range(2, 3).with_ilp_time_limit(Duration::ZERO);
        let plan = CutPlanner::new(config).plan(circuit).unwrap();
        FragmentSet::from_plan(&plan).unwrap()
    }

    #[test]
    fn scheduled_execution_matches_single_backend() {
        let circuit = chain(5);
        let fragments = fragments_for(&circuit, 3);
        let requests = ProbabilityReconstructor::new().requests(&fragments).unwrap();

        let single = ExactBackend::new();
        let reference = execute_requests(&fragments, &requests, &single).unwrap();

        let mut registry = DeviceRegistry::new();
        registry.register("big", ExactBackend::capped(3));
        registry.register("small", ExactBackend::capped(2));
        let scheduler = Scheduler::new(&registry, SchedulePolicy::default());
        let (scheduled, report) = run(&scheduler, &fragments, &requests).unwrap();

        assert_eq!(scheduled.requested(), reference.requested());
        assert_eq!(scheduled.executed(), reference.executed());
        assert_eq!(scheduled.unique_variants(), reference.unique_variants());
        assert_eq!(report.circuits, reference.executed());
        assert_eq!(report.chunks, 1);
        for (key, dist) in reference.iter() {
            let routed = scheduled.distribution(key).unwrap();
            for (a, b) in dist.iter().zip(routed) {
                assert!((a - b).abs() < 1e-12, "exact backends must agree bit-for-bit");
            }
        }
    }

    #[test]
    fn chunked_execution_covers_every_key_exactly_once() {
        let circuit = chain(5);
        let fragments = fragments_for(&circuit, 3);
        let requests = ProbabilityReconstructor::new().requests(&fragments).unwrap();
        let mut registry = DeviceRegistry::new();
        registry.register("only", ExactBackend::new());
        let scheduler = Scheduler::new(&registry, SchedulePolicy::default().with_chunk_size(3));
        let mut merged = ExecutionResults::default();
        let mut chunks = 0usize;
        let report = scheduler
            .execute_chunked(&fragments, &requests, |chunk| {
                assert!(!chunk.is_empty() || chunk.executed() == 0);
                chunks += 1;
                merged.extend(chunk);
                Ok(())
            })
            .unwrap();
        assert_eq!(report.chunks, chunks);
        assert!(chunks > 1, "a chunk size of 3 must split this batch");
        assert_eq!(merged.requested(), requests.len() as u64);
        let reference = execute_requests(&fragments, &requests, &ExactBackend::new()).unwrap();
        assert_eq!(merged.unique_variants(), reference.unique_variants());
        assert_eq!(merged.executed(), reference.executed());
    }

    #[test]
    fn budget_is_spent_exactly_and_reported() {
        let circuit = chain(5);
        let fragments = fragments_for(&circuit, 3);
        let requests = ProbabilityReconstructor::new().requests(&fragments).unwrap();
        let mut registry = DeviceRegistry::new();
        registry.register_device(
            "dev3",
            qrcc_sim::device::Device::new(qrcc_sim::device::DeviceConfig::ideal(3).with_seed(7)),
            1024,
        );
        let scheduler =
            Scheduler::new(&registry, SchedulePolicy::with_budget(50_000).with_min_shots(8));
        let (results, report) = run(&scheduler, &fragments, &requests).unwrap();
        assert!(!results.is_empty());
        assert_eq!(report.total_shots, 50_000, "the whole budget is spent");
        assert_eq!(report.backends.len(), 1);
        assert_eq!(report.backends[0].shots, 50_000);
        assert_eq!(report.backends[0].backend, "dev3");
    }

    #[test]
    fn empty_registry_cannot_place_anything() {
        let circuit = chain(4);
        let fragments = fragments_for(&circuit, 3);
        let requests = ProbabilityReconstructor::new().requests(&fragments).unwrap();
        let registry = DeviceRegistry::new();
        let scheduler = Scheduler::new(&registry, SchedulePolicy::default());
        assert!(matches!(
            run(&scheduler, &fragments, &requests),
            Err(CoreError::NoCompatibleBackend { backends: 0, .. })
        ));
    }

    #[test]
    fn transient_failures_are_retried_and_counted() {
        use crate::dispatch::FlakyBackend;
        let circuit = chain(5);
        let fragments = fragments_for(&circuit, 3);
        let requests = ProbabilityReconstructor::new().requests(&fragments).unwrap();
        let reference = execute_requests(&fragments, &requests, &ExactBackend::new()).unwrap();

        // one flaky device (every circuit drops once) plus a healthy one
        let mut registry = DeviceRegistry::new();
        registry.register("flaky", FlakyBackend::transient(ExactBackend::capped(3), 11, 1.0));
        registry.register("healthy", ExactBackend::capped(3));
        let scheduler = Scheduler::new(
            &registry,
            SchedulePolicy::default().with_chunk_size(2).with_max_retries(3),
        );
        let (results, report) = run(&scheduler, &fragments, &requests).unwrap();

        assert_eq!(results.unique_variants(), reference.unique_variants());
        for (key, dist) in reference.iter() {
            let routed = results.distribution(key).unwrap();
            for (a, b) in dist.iter().zip(routed) {
                assert!((a - b).abs() < 1e-12, "retried execution must stay exact");
            }
        }
        assert!(report.dispatch.failures > 0, "the flaky device must have failed work");
        assert_eq!(report.dispatch.jobs_retried, report.dispatch.failures);
        let failures: u64 = report.backends.iter().map(|u| u.failures).sum();
        assert_eq!(failures, report.dispatch.failures);
        let retries: u64 = report.backends.iter().map(|u| u.retries).sum();
        assert!(retries > 0, "retried circuits must be counted on their rescuer");
        let flaky = report.backends.iter().find(|u| u.backend == "flaky").unwrap();
        assert!(flaky.failures > 0);
    }

    #[test]
    fn in_flight_window_is_respected_and_observed() {
        let circuit = chain(6);
        let fragments = fragments_for(&circuit, 3);
        let requests = ProbabilityReconstructor::new().requests(&fragments).unwrap();
        let mut registry = DeviceRegistry::new();
        registry.register("only", ExactBackend::new());
        for window in [1usize, 2, 3] {
            let policy =
                SchedulePolicy::default().with_chunk_size(1).with_max_in_flight_chunks(window);
            let scheduler = Scheduler::new(&registry, policy);
            let (_, report) = run(&scheduler, &fragments, &requests).unwrap();
            assert!(report.chunks > window, "enough chunks to fill the window");
            assert!(
                report.dispatch.max_in_flight_chunks <= window,
                "window {window} exceeded: {}",
                report.dispatch.max_in_flight_chunks
            );
        }
    }

    #[test]
    fn exhausted_retries_surface_as_a_typed_error() {
        use crate::dispatch::FlakyBackend;
        let circuit = chain(4);
        let fragments = fragments_for(&circuit, 3);
        let requests = ProbabilityReconstructor::new().requests(&fragments).unwrap();
        let mut registry = DeviceRegistry::new();
        registry.register("dead-a", FlakyBackend::always_failing(ExactBackend::new()));
        registry.register("dead-b", FlakyBackend::always_failing(ExactBackend::new()));
        let scheduler = Scheduler::new(&registry, SchedulePolicy::default().with_max_retries(2));
        match run(&scheduler, &fragments, &requests) {
            Err(CoreError::RetriesExhausted { attempts, last }) => {
                assert_eq!(attempts, 3, "initial attempt plus two retries");
                assert!(matches!(*last, CoreError::BackendUnavailable { .. }));
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn panicking_backend_is_contained_and_its_work_is_rescued() {
        // The old scoped-thread loop propagated a backend panic (killing the
        // run); a dead worker must not hang the event loop either. The
        // dispatcher converts the panic into a per-circuit failure and
        // re-routes the work to the healthy device.
        struct PanickingBackend;
        impl crate::execute::ExecutionBackend for PanickingBackend {
            fn run(&self, _: &[&Circuit], _: Option<&[u64]>) -> Vec<Result<Vec<f64>, CoreError>> {
                panic!("device firmware bug")
            }
            fn executions(&self) -> u64 {
                0
            }
        }

        let circuit = chain(4);
        let fragments = fragments_for(&circuit, 3);
        let requests = ProbabilityReconstructor::new().requests(&fragments).unwrap();
        let reference = execute_requests(&fragments, &requests, &ExactBackend::new()).unwrap();

        let mut registry = DeviceRegistry::new();
        registry.register("panics", PanickingBackend);
        registry.register("healthy", ExactBackend::new());
        let scheduler = Scheduler::new(&registry, SchedulePolicy::default().with_max_retries(2));
        let (results, report) = run(&scheduler, &fragments, &requests).unwrap();
        assert_eq!(results.unique_variants(), reference.unique_variants());
        assert!(report.dispatch.failures > 0, "the panic must be recorded as failures");

        // with no healthy fallback and no retries, the panic surfaces as a
        // typed error instead of hanging or aborting the process
        let mut lone = DeviceRegistry::new();
        lone.register("panics", PanickingBackend);
        let scheduler = Scheduler::new(&lone, SchedulePolicy::default().with_max_retries(0));
        match run(&scheduler, &fragments, &requests) {
            Err(CoreError::BackendUnavailable { reason, .. }) => {
                assert!(reason.contains("panicked"), "{reason}");
            }
            other => panic!("expected BackendUnavailable, got {other:?}"),
        }
    }

    #[test]
    fn zero_retry_budget_propagates_the_first_error_unwrapped() {
        use crate::dispatch::FlakyBackend;
        let circuit = chain(4);
        let fragments = fragments_for(&circuit, 3);
        let requests = ProbabilityReconstructor::new().requests(&fragments).unwrap();
        let mut registry = DeviceRegistry::new();
        registry.register("dead", FlakyBackend::always_failing(ExactBackend::new()));
        let scheduler = Scheduler::new(&registry, SchedulePolicy::default().with_max_retries(0));
        assert!(matches!(
            run(&scheduler, &fragments, &requests),
            Err(CoreError::BackendUnavailable { .. })
        ));
    }

    #[test]
    fn empty_request_list_schedules_to_an_empty_result() {
        let circuit = chain(4);
        let fragments = fragments_for(&circuit, 3);
        let mut registry = DeviceRegistry::new();
        registry.register("only", ExactBackend::new());
        let scheduler = Scheduler::new(&registry, SchedulePolicy::default());
        let (results, report) = run(&scheduler, &fragments, &[]).unwrap();
        assert!(results.is_empty());
        assert_eq!(report.circuits, 0);
    }
}
