//! The end-to-end QRCC pipeline: plan → fragments → execute → reconstruct.
//!
//! [`QrccPipeline`] bundles the steps the paper's Figure 4 / Table 3 flow
//! performs: plan a cut for a device size, generate the subcircuit variants,
//! run them on a backend (exact simulator or a noisy shots-based device), and
//! reconstruct either the probability distribution (wire cuts only) or an
//! observable's expectation value (wire + gate cuts).
//!
//! Execution is batch-first: [`QrccPipeline::execute`] (and
//! [`QrccPipeline::execute_observables`]) enumerate every needed
//! [`FragmentVariant`](crate::fragment::FragmentVariant) as pure data,
//! deduplicate by structural [`VariantKey`](crate::fragment::VariantKey), and
//! submit **one batch** to the backend — which the provided backends run
//! rayon-parallel. The returned [`ExecutionResults`] can then feed
//! [`QrccPipeline::reconstruct_probabilities_from`] and any number of
//! [`QrccPipeline::reconstruct_expectation_from`] calls without touching the
//! device again.
//!
//! Multi-device runs go through a [`Scheduler`]:
//! [`QrccPipeline::execute_scheduled`] routes the batch across a device
//! registry and dispatches it fault-tolerantly (bounded in-flight windows,
//! retry with failer exclusion — see [`crate::dispatch`]), while
//! [`QrccPipeline::execute_streaming`] and
//! [`QrccPipeline::execute_observables_streaming`] additionally fold each
//! delivered chunk into fragment tensors as it arrives, overlapping
//! reconstruction with device execution for both workloads.

use crate::analyze::{AnalysisContext, AnalysisReport, Analyzer};
use crate::execute::{execute_requests, ExecutionBackend, ExecutionResults};
use crate::fragment::{FragmentSet, VariantRequest};
use crate::planner::{CutPlan, CutPlanner};
use crate::reconstruct::{
    ExpectationAccumulator, ExpectationReconstructor, ProbabilityAccumulator,
    ProbabilityReconstructor, ReconstructionOptions, ReconstructionReport,
};
use crate::schedule::{ScheduleReport, Scheduler};
use crate::{CoreError, QrccConfig};
use qrcc_circuit::observable::PauliObservable;
use qrcc_circuit::Circuit;
use std::time::{Duration, Instant};

pub use crate::execute::{ExactBackend, ExecutionBackend as Backend, ShotsBackend};

/// End-to-end QRCC pipeline for one circuit.
///
/// ```rust
/// use qrcc_circuit::Circuit;
/// use qrcc_core::pipeline::{ExactBackend, QrccPipeline};
/// use qrcc_core::QrccConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ghz = Circuit::new(4);
/// ghz.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
/// let config = QrccConfig::new(3).with_ilp_time_limit(std::time::Duration::ZERO);
/// let pipeline = QrccPipeline::plan(&ghz, config)?;
/// // enumerate → dedup → one parallel batch → consume
/// let backend = ExactBackend::new();
/// let results = pipeline.execute(&backend)?;
/// let probabilities = pipeline.reconstruct_probabilities_from(&results)?;
/// assert!((probabilities[0] - 0.5).abs() < 1e-6);
/// assert!((probabilities[0b1111] - 0.5).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QrccPipeline {
    plan: CutPlan,
    fragments: FragmentSet,
}

impl QrccPipeline {
    /// Plans a cut for `circuit` and builds its fragments.
    ///
    /// # Errors
    ///
    /// Propagates planner errors ([`CoreError::NoCutFound`],
    /// [`CoreError::InvalidDeviceSize`]) and fragment-construction errors.
    pub fn plan(circuit: &Circuit, config: QrccConfig) -> Result<Self, CoreError> {
        // a config with tracing enabled turns the global tracer on; a
        // default config leaves it untouched
        crate::obs::tracer().configure(&config.obs);
        let _span = crate::obs::tracer().span("phase.plan");
        let plan = CutPlanner::new(config).plan(circuit)?;
        Self::from_plan(plan)
    }

    /// Builds the pipeline from an existing plan.
    ///
    /// # Errors
    ///
    /// Propagates fragment-construction errors.
    pub fn from_plan(plan: CutPlan) -> Result<Self, CoreError> {
        let fragments = FragmentSet::from_plan(&plan)?;
        Ok(QrccPipeline { plan, fragments })
    }

    /// The cut plan.
    pub fn plan_ref(&self) -> &CutPlan {
        &self.plan
    }

    /// The subcircuit fragments.
    pub fn fragments(&self) -> &FragmentSet {
        &self.fragments
    }

    /// Total number of subcircuit instances the plan requires.
    pub fn total_instances(&self) -> u64 {
        self.fragments.total_variants()
    }

    /// The reconstruction options the plan's [`QrccConfig`] selects
    /// (strategy and sparse-pruning tolerance).
    pub fn reconstruction_options(&self) -> ReconstructionOptions {
        ReconstructionOptions::from_config(self.plan.config())
    }

    fn probability_reconstructor(&self) -> ProbabilityReconstructor {
        ProbabilityReconstructor::with_options(self.reconstruction_options())
    }

    fn expectation_reconstructor(&self) -> ExpectationReconstructor {
        ExpectationReconstructor::with_options(self.reconstruction_options())
    }

    // ---- phase 0: pre-flight static analysis ----

    /// Runs the pre-flight [`analyze`](crate::analyze) pass over the plan:
    /// circuit lints (`QL01xx`) on the original circuit and plan lints
    /// (`QL02xx`) on the fragments, using the plan's [`QrccConfig`]. Fleet
    /// lints need a registry — see [`QrccPipeline::analyze_with_fleet`].
    pub fn analyze(&self) -> AnalysisReport {
        Analyzer::new().run(
            &AnalysisContext::new()
                .with_circuit(self.plan.circuit())
                .with_fragments(&self.fragments)
                .with_config(self.plan.config()),
        )
    }

    /// Runs the full pre-flight pass — circuit, plan **and** fleet lints
    /// (`QL03xx`): statically predicting
    /// [`CoreError::NoCompatibleBackend`] and
    /// [`CoreError::ShotBudgetTooSmall`] against `fleet` before any backend
    /// is contacted.
    pub fn analyze_with_fleet(&self, fleet: &crate::schedule::DeviceRegistry) -> AnalysisReport {
        Analyzer::new().run(
            &AnalysisContext::new()
                .with_circuit(self.plan.circuit())
                .with_fragments(&self.fragments)
                .with_config(self.plan.config())
                .with_fleet(fleet),
        )
    }

    /// [`QrccPipeline::analyze_with_fleet`] plus the severity gate of the
    /// plan's [`QrccConfig::lint_level`]: returns the report when it passes,
    /// fails fast otherwise — call this before
    /// [`QrccPipeline::execute_scheduled`] to turn mid-dispatch failures
    /// into a pre-flight [`CoreError::AnalysisFailed`].
    ///
    /// # Errors
    ///
    /// [`CoreError::AnalysisFailed`] when the report holds diagnostics at or
    /// above the configured [`LintLevel`](crate::analyze::LintLevel).
    pub fn preflight(
        &self,
        fleet: &crate::schedule::DeviceRegistry,
    ) -> Result<AnalysisReport, CoreError> {
        let report = self.analyze_with_fleet(fleet);
        report.gate(self.plan.config().lint_level)?;
        Ok(report)
    }

    // ---- phase 1+2: enumerate, deduplicate and execute ----

    /// Executes the probability workload's variants as one deduplicated
    /// batch on `backend`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::GateCutNeedsExpectation`] if the plan contains gate
    ///   cuts (use [`QrccPipeline::execute_observables`] instead).
    /// * [`CoreError::TooManyCuts`] if the plan exceeds what the configured
    ///   reconstruction strategy supports (total cuts for `Dense`,
    ///   per-contraction legs for `Contract`).
    /// * Any backend error.
    pub fn execute(&self, backend: &dyn ExecutionBackend) -> Result<ExecutionResults, CoreError> {
        let requests = self.probability_reconstructor().requests(&self.fragments)?;
        self.execute_requests(backend, &requests)
    }

    /// Executes, as **one** deduplicated batch, every variant needed to
    /// evaluate all `observables` — Pauli terms (within and across
    /// observables) that share measurement-basis signatures run once.
    ///
    /// # Errors
    ///
    /// Same conditions as
    /// [`ExpectationReconstructor::requests`], plus any backend error.
    pub fn execute_observables(
        &self,
        backend: &dyn ExecutionBackend,
        observables: &[&PauliObservable],
    ) -> Result<ExecutionResults, CoreError> {
        self.execute_requests(backend, &self.observable_requests(observables)?)
    }

    /// Executes, as one deduplicated batch, the union of the probability
    /// workload (when the plan is wire-cut-only) and every observable's
    /// variants — the result serves
    /// [`QrccPipeline::reconstruct_probabilities_from`] *and*
    /// [`QrccPipeline::reconstruct_expectation_from`] for each observable
    /// without re-execution.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QrccPipeline::execute`] /
    /// [`QrccPipeline::execute_observables`] (gate-cut plans skip the
    /// probability part instead of erroring), plus any backend error.
    pub fn execute_all(
        &self,
        backend: &dyn ExecutionBackend,
        observables: &[&PauliObservable],
    ) -> Result<ExecutionResults, CoreError> {
        let mut requests = Vec::new();
        if self.fragments.num_gate_cuts() == 0 {
            requests.extend(self.probability_reconstructor().requests(&self.fragments)?);
        }
        requests.extend(self.observable_requests(observables)?);
        self.execute_requests(backend, &requests)
    }

    /// Every variant request `observables` need, in observable order.
    fn observable_requests(
        &self,
        observables: &[&PauliObservable],
    ) -> Result<Vec<VariantRequest>, CoreError> {
        let reconstructor = self.expectation_reconstructor();
        let mut requests = Vec::new();
        for observable in observables {
            requests.extend(reconstructor.requests(&self.fragments, observable)?);
        }
        Ok(requests)
    }

    /// Executes an explicit request list (phase 2 only): deduplicates by
    /// [`VariantKey`](crate::fragment::VariantKey), collapses structurally
    /// identical circuits and submits one batch.
    ///
    /// # Errors
    ///
    /// See [`execute_requests`].
    pub fn execute_requests(
        &self,
        backend: &dyn ExecutionBackend,
        requests: &[VariantRequest],
    ) -> Result<ExecutionResults, CoreError> {
        execute_requests(&self.fragments, requests, backend)
    }

    // ---- scheduled execution: multi-device routing + shot allocation ----

    /// Executes the probability workload through a multi-device
    /// [`Scheduler`]: the deduplicated batch is routed across the
    /// scheduler's [`DeviceRegistry`](crate::schedule::DeviceRegistry)
    /// (backends run concurrently), and an optional global shot budget is
    /// split by reconstruction-variance weight. Returns the merged results
    /// plus the [`ScheduleReport`] (per-backend routing, shots spent).
    ///
    /// # Errors
    ///
    /// See [`QrccPipeline::execute`] and [`Scheduler::execute_chunked`].
    pub fn execute_scheduled(
        &self,
        scheduler: &Scheduler<'_>,
    ) -> Result<(ExecutionResults, ScheduleReport), CoreError> {
        let requests = self.probability_reconstructor().requests(&self.fragments)?;
        scheduler.execute_with_report(&self.fragments, &requests)
    }

    /// Executes every observable's variants through a multi-device
    /// [`Scheduler`] — the scheduled counterpart of
    /// [`QrccPipeline::execute_observables`].
    ///
    /// # Errors
    ///
    /// See [`QrccPipeline::execute_observables`] and
    /// [`Scheduler::execute_chunked`].
    pub fn execute_observables_scheduled(
        &self,
        scheduler: &Scheduler<'_>,
        observables: &[&PauliObservable],
    ) -> Result<(ExecutionResults, ScheduleReport), CoreError> {
        scheduler.execute_with_report(&self.fragments, &self.observable_requests(observables)?)
    }

    /// Streams the probability workload: the scheduler executes the batch in
    /// chunks (size from
    /// [`SchedulePolicy::chunk_size`](crate::SchedulePolicy::chunk_size)) on
    /// a worker thread while this thread folds every finished chunk into the
    /// fragment tensors — so
    /// classical reconstruction overlaps device execution, and only the
    /// final contraction remains once the last chunk lands.
    ///
    /// # Errors
    ///
    /// See [`QrccPipeline::execute_scheduled`] and
    /// [`ProbabilityAccumulator`].
    pub fn execute_streaming(
        &self,
        scheduler: &Scheduler<'_>,
    ) -> Result<(Vec<f64>, ReconstructionReport, ScheduleReport), CoreError> {
        self.stream(scheduler, || {
            let requests = self.probability_reconstructor().requests(&self.fragments)?;
            let options = self.reconstruction_options();
            Ok((requests, ProbabilityAccumulator::new(&self.fragments, options)?))
        })
    }

    /// Streams an expectation workload: the scheduler dispatches the
    /// observable's deduplicated batch in chunks on a worker thread while
    /// this thread folds every finished chunk into per-Pauli scalar tensors
    /// (an [`ExpectationAccumulator`]) — the expectation counterpart of
    /// [`QrccPipeline::execute_streaming`], valid for wire- **and** gate-cut
    /// plans. Only the per-term final contraction runs after the last chunk
    /// lands.
    ///
    /// # Errors
    ///
    /// See [`QrccPipeline::execute_observables_scheduled`] and
    /// [`ExpectationAccumulator`].
    pub fn execute_observables_streaming(
        &self,
        scheduler: &Scheduler<'_>,
        observable: &PauliObservable,
    ) -> Result<(f64, ReconstructionReport, ScheduleReport), CoreError> {
        self.stream(scheduler, || {
            let requests =
                self.expectation_reconstructor().requests(&self.fragments, observable)?;
            let options = self.reconstruction_options();
            Ok((requests, ExpectationAccumulator::new(&self.fragments, observable, options)?))
        })
    }

    /// The streaming driver behind both `execute_*streaming` calls:
    /// `enumerate` yields the requests and the accumulator, the scheduler
    /// dispatches the requests in chunks on a worker thread, and this thread
    /// folds each delivered chunk as it arrives, overlapping reconstruction
    /// with execution. The report carries the per-phase wall-clock profile.
    fn stream<A: StreamFold>(
        &self,
        scheduler: &Scheduler<'_>,
        enumerate: impl FnOnce() -> Result<(Vec<VariantRequest>, A), CoreError>,
    ) -> Result<(A::Output, ReconstructionReport, ScheduleReport), CoreError> {
        let tracer = crate::obs::tracer();
        let root = tracer.span("pipeline.execute");
        let root_id = root.id();
        let started = Instant::now();
        let mut profile = crate::obs::PhaseProfile::new();

        let phase = Instant::now();
        let (requests, mut accumulator) = {
            let _span = tracer.span("phase.enumerate");
            enumerate()?
        };
        profile.add("enumerate", phase.elapsed());

        let mut fold_wall = Duration::ZERO;
        let phase = Instant::now();
        let schedule_report = std::thread::scope(|scope| -> Result<ScheduleReport, CoreError> {
            let (sender, receiver) = std::sync::mpsc::channel::<ExecutionResults>();
            let fragments = &self.fragments;
            let producer = scope.spawn(move || {
                let _span = tracer.span_under("phase.dispatch", root_id);
                scheduler.execute_chunked(fragments, &requests, |chunk| {
                    // an unbounded channel: send fails only when the
                    // consumer stopped folding (it hit an error)
                    sender.send(chunk).map_err(|_| CoreError::InvalidCutSolution {
                        reason: "streaming consumer stopped folding".into(),
                    })
                })
            });
            // fold chunks as they arrive, overlapping with execution
            for chunk in receiver {
                let fold_started = Instant::now();
                let _span = tracer.span("phase.fold");
                accumulator.absorb(chunk)?;
                fold_wall += fold_started.elapsed();
            }
            producer.join().expect("scheduler thread panicked")
        })?;
        profile.add("dispatch", phase.elapsed());
        profile.add("fold", fold_wall);

        let phase = Instant::now();
        let (value, mut reconstruction_report) = {
            let _span = tracer.span("phase.contract");
            accumulator.finish()?
        };
        profile.add("contract", phase.elapsed());
        profile.total = started.elapsed();
        reconstruction_report.profile = Some(profile);
        Ok((value, reconstruction_report, schedule_report))
    }

    // ---- phase 3: consume ----

    /// Reconstructs the original circuit's probability distribution from an
    /// executed batch, using the strategy and pruning tolerance of the
    /// plan's [`QrccConfig`].
    ///
    /// # Errors
    ///
    /// See [`ProbabilityReconstructor::reconstruct`].
    pub fn reconstruct_probabilities_from(
        &self,
        results: &ExecutionResults,
    ) -> Result<Vec<f64>, CoreError> {
        self.probability_reconstructor().reconstruct(&self.fragments, results)
    }

    /// Like [`QrccPipeline::reconstruct_probabilities_from`], also returning
    /// the engine's [`ReconstructionReport`] (resolved strategy, contraction
    /// count, pruned mass).
    ///
    /// # Errors
    ///
    /// See [`ProbabilityReconstructor::reconstruct`].
    pub fn reconstruct_probabilities_with_report_from(
        &self,
        results: &ExecutionResults,
    ) -> Result<(Vec<f64>, ReconstructionReport), CoreError> {
        self.probability_reconstructor().reconstruct_with_report(&self.fragments, results)
    }

    /// Reconstructs the expectation value of `observable` from an executed
    /// batch, using the strategy and pruning tolerance of the plan's
    /// [`QrccConfig`].
    ///
    /// # Errors
    ///
    /// See [`ExpectationReconstructor::reconstruct`].
    pub fn reconstruct_expectation_from(
        &self,
        results: &ExecutionResults,
        observable: &PauliObservable,
    ) -> Result<f64, CoreError> {
        self.expectation_reconstructor().reconstruct(&self.fragments, results, observable)
    }

    /// Like [`QrccPipeline::reconstruct_expectation_from`], also returning
    /// the engine's [`ReconstructionReport`] accumulated over the
    /// observable's Pauli terms.
    ///
    /// # Errors
    ///
    /// See [`ExpectationReconstructor::reconstruct`].
    pub fn reconstruct_expectation_with_report_from(
        &self,
        results: &ExecutionResults,
        observable: &PauliObservable,
    ) -> Result<(f64, ReconstructionReport), CoreError> {
        self.expectation_reconstructor().reconstruct_with_report(
            &self.fragments,
            results,
            observable,
        )
    }

    // ---- convenience: all three phases in one call ----

    /// Reconstructs the original circuit's probability distribution,
    /// executing the (deduplicated, parallel) batch on `backend` internally.
    ///
    /// # Errors
    ///
    /// See [`QrccPipeline::execute`] and
    /// [`ProbabilityReconstructor::reconstruct`].
    pub fn reconstruct_probabilities(
        &self,
        backend: &dyn ExecutionBackend,
    ) -> Result<Vec<f64>, CoreError> {
        let results = self.execute(backend)?;
        self.reconstruct_probabilities_from(&results)
    }

    /// Reconstructs the expectation value of `observable`, executing the
    /// (deduplicated, parallel) batch on `backend` internally.
    ///
    /// # Errors
    ///
    /// See [`QrccPipeline::execute_observables`] and
    /// [`ExpectationReconstructor::reconstruct`].
    pub fn reconstruct_expectation(
        &self,
        backend: &dyn ExecutionBackend,
        observable: &PauliObservable,
    ) -> Result<f64, CoreError> {
        let results = self.execute_observables(backend, &[observable])?;
        self.reconstruct_expectation_from(&results, observable)
    }
}

/// An accumulator as the streaming driver folds it.
trait StreamFold {
    type Output;
    fn absorb(&mut self, chunk: ExecutionResults) -> Result<(), CoreError>;
    fn finish(&mut self) -> Result<(Self::Output, ReconstructionReport), CoreError>;
}

impl StreamFold for ProbabilityAccumulator<'_> {
    type Output = Vec<f64>;
    fn absorb(&mut self, chunk: ExecutionResults) -> Result<(), CoreError> {
        ProbabilityAccumulator::absorb(self, chunk)
    }
    fn finish(&mut self) -> Result<(Vec<f64>, ReconstructionReport), CoreError> {
        ProbabilityAccumulator::finish(self)
    }
}

impl StreamFold for ExpectationAccumulator<'_> {
    type Output = f64;
    fn absorb(&mut self, chunk: ExecutionResults) -> Result<(), CoreError> {
        ExpectationAccumulator::absorb(self, chunk)
    }
    fn finish(&mut self) -> Result<(f64, ReconstructionReport), CoreError> {
        ExpectationAccumulator::finish(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrcc_circuit::observable::PauliString;
    use qrcc_sim::device::{Device, DeviceConfig};
    use qrcc_sim::noise::NoiseModel;
    use qrcc_sim::StateVector;
    use std::time::Duration;

    fn small_config(d: usize) -> QrccConfig {
        QrccConfig::new(d).with_subcircuit_range(2, 3).with_ilp_time_limit(Duration::ZERO)
    }

    #[test]
    fn pipeline_probability_path_end_to_end() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).t(1).cx(1, 2).ry(0.4, 2).cx(2, 3);
        let pipeline = QrccPipeline::plan(&c, small_config(3)).unwrap();
        assert!(pipeline.total_instances() > 0);
        let backend = ExactBackend::new();
        let reconstructed = pipeline.reconstruct_probabilities(&backend).unwrap();
        let exact = StateVector::from_circuit(&c).unwrap().probabilities();
        for (a, b) in exact.iter().zip(&reconstructed) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn pipeline_expectation_path_with_shots_backend() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).ry(0.8, 1).cx(1, 2).cx(2, 3).rz(0.3, 3);
        let mut obs = PauliObservable::new(4);
        obs.add_term(1.0, PauliString::zz(4, 0, 3));
        let config = small_config(3).with_gate_cuts(true);
        let pipeline = QrccPipeline::plan(&c, config).unwrap();
        // shots on an ideal device large enough for every fragment
        let device = Device::new(DeviceConfig::ideal(3).with_seed(11));
        let backend = ShotsBackend::new(device, 60_000);
        let estimate = pipeline.reconstruct_expectation(&backend, &obs).unwrap();
        let exact = StateVector::from_circuit(&c).unwrap().expectation(&obs);
        assert!((estimate - exact).abs() < 0.08, "shots estimate {estimate} vs exact {exact}");
    }

    #[test]
    fn one_batch_serves_probabilities_and_multiple_observables() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).ry(0.6, 1).cx(1, 2).cx(2, 3);
        let pipeline = QrccPipeline::plan(&c, small_config(3)).unwrap();
        let mut obs_a = PauliObservable::new(4);
        obs_a.add_term(1.0, PauliString::zz(4, 0, 3));
        let mut obs_b = PauliObservable::new(4);
        obs_b.add_term(0.5, PauliString::z(4, 1));
        obs_b.add_term(-0.25, PauliString::x(4, 2));

        let backend = ExactBackend::new();
        let results = pipeline.execute_all(&backend, &[&obs_a, &obs_b]).unwrap();
        let executed_after_batch = backend.executions();

        // every consumer below is served from the same batch: no re-execution
        let probabilities = pipeline.reconstruct_probabilities_from(&results).unwrap();
        let ea = pipeline.reconstruct_expectation_from(&results, &obs_a).unwrap();
        let eb = pipeline.reconstruct_expectation_from(&results, &obs_b).unwrap();
        assert_eq!(backend.executions(), executed_after_batch);

        let sv = StateVector::from_circuit(&c).unwrap();
        let exact_p = sv.probabilities();
        for (a, b) in exact_p.iter().zip(&probabilities) {
            assert!((a - b).abs() < 1e-6);
        }
        assert!((ea - sv.expectation(&obs_a)).abs() < 1e-6);
        assert!((eb - sv.expectation(&obs_b)).abs() < 1e-6);
    }

    #[test]
    fn config_selects_the_reconstruction_strategy_and_reports_it() {
        use crate::reconstruct::ReconstructionStrategy;
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).t(1).cx(1, 2).ry(0.4, 2).cx(2, 3);
        let exact = StateVector::from_circuit(&c).unwrap().probabilities();
        let backend = ExactBackend::new();
        for strategy in [ReconstructionStrategy::Dense, ReconstructionStrategy::Contract] {
            let config = small_config(3).with_reconstruction_strategy(strategy);
            let pipeline = QrccPipeline::plan(&c, config).unwrap();
            assert_eq!(pipeline.reconstruction_options().strategy, strategy);
            let results = pipeline.execute(&backend).unwrap();
            let (p, report) =
                pipeline.reconstruct_probabilities_with_report_from(&results).unwrap();
            assert_eq!(report.strategy, strategy);
            for (a, b) in exact.iter().zip(&p) {
                assert!((a - b).abs() < 1e-6, "{strategy:?} mismatch");
            }
        }
    }

    #[test]
    fn reuse_absorbed_empty_fragments_execute_trivially() {
        // With qubit reuse, a GHZ chain can collapse onto very few physical
        // qubits, and the planner may emit an empty (clbit-free) subcircuit.
        // The batch layer must skip it instead of executing a circuit with
        // nothing to measure (the seed's quickstart crashed here).
        let mut ghz = Circuit::new(6);
        ghz.h(0);
        for q in 0..5 {
            ghz.cx(q, q + 1);
        }
        let pipeline = QrccPipeline::plan(&ghz, QrccConfig::new(3)).unwrap();
        let backend = ExactBackend::new();
        let results = pipeline.execute(&backend).unwrap();
        let p = pipeline.reconstruct_probabilities_from(&results).unwrap();
        assert!((p[0] - 0.5).abs() < 1e-6, "P(|0…0⟩) = {}", p[0]);
        assert!((p[(1 << 6) - 1] - 0.5).abs() < 1e-6, "P(|1…1⟩) = {}", p[63]);
    }

    #[test]
    fn noisy_subcircuits_beat_noisy_whole_circuit() {
        // Miniature version of Table 3: a whole-circuit run on a noisy device
        // loses more accuracy than QRCC's smaller subcircuits with the same
        // noise model.
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(1, 2).cx(2, 3).ry(0.9, 3).cx(2, 3).cx(1, 2).cx(0, 1);
        let mut obs = PauliObservable::new(4);
        obs.add_term(1.0, PauliString::zz(4, 0, 1));
        let exact = StateVector::from_circuit(&c).unwrap().expectation(&obs);

        let noise =
            NoiseModel { single_qubit_error: 5e-3, two_qubit_error: 5e-2, readout_error: 2e-2 };
        // whole-circuit execution on a noisy 4-qubit device
        let whole_device = Device::new(DeviceConfig::noisy(4, noise).with_seed(5));
        let whole = whole_device.estimate_expectation(&c, &obs, 8192).unwrap();

        // QRCC: subcircuits on a noisy 3-qubit device
        let pipeline = QrccPipeline::plan(&c, small_config(3)).unwrap();
        let sub_device = Device::new(DeviceConfig::noisy(3, noise).with_seed(5));
        let backend = ShotsBackend::new(sub_device, 8192);
        let qrcc = pipeline.reconstruct_expectation(&backend, &obs).unwrap();

        let whole_error = (whole - exact).abs();
        let qrcc_error = (qrcc - exact).abs();
        assert!(
            qrcc_error <= whole_error + 0.05,
            "qrcc error {qrcc_error} should not be much worse than whole-circuit error {whole_error}"
        );
    }

    #[test]
    fn blocking_reconstruction_equals_a_one_chunk_stream_bit_for_bit() {
        use crate::schedule::{DeviceRegistry, SchedulePolicy};
        let mut c = Circuit::new(5);
        c.h(0).cx(0, 1).ry(0.7, 1).cx(1, 2).rx(0.4, 2).cx(2, 3).ry(1.1, 3).cx(3, 4);
        let mut obs = PauliObservable::new(5);
        obs.add_term(1.0, PauliString::zz(5, 0, 4));
        obs.add_term(-0.5, PauliString::x(5, 2));
        let pipeline = QrccPipeline::plan(&c, small_config(3)).unwrap();
        // a fresh seeded fleet per run: every run samples the same streams
        let fleet = || {
            let mut registry = DeviceRegistry::new();
            let device = Device::new(DeviceConfig::ideal(3).with_seed(5));
            registry.register_device("dev3", device, 1);
            registry
        };
        let policy = SchedulePolicy::with_budget(40_000).with_min_shots(16);

        let registry = fleet();
        let (results, _) = pipeline.execute_scheduled(&Scheduler::new(&registry, policy)).unwrap();
        let blocking = pipeline.reconstruct_probabilities_from(&results).unwrap();
        let registry = fleet();
        let (streamed, _, _) =
            pipeline.execute_streaming(&Scheduler::new(&registry, policy)).unwrap();
        assert!(blocking.iter().zip(&streamed).all(|(a, b)| a.to_bits() == b.to_bits()));

        let registry = fleet();
        let scheduler = Scheduler::new(&registry, policy);
        let (results, _) = pipeline.execute_observables_scheduled(&scheduler, &[&obs]).unwrap();
        let blocking = pipeline.reconstruct_expectation_from(&results, &obs).unwrap();
        let registry = fleet();
        let scheduler = Scheduler::new(&registry, policy);
        let (streamed, _, _) = pipeline.execute_observables_streaming(&scheduler, &obs).unwrap();
        assert_eq!(blocking.to_bits(), streamed.to_bits(), "{blocking} vs {streamed}");
    }
}
