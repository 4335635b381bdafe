//! The end-to-end QRCC pipeline: plan → fragments → execute → reconstruct.
//!
//! [`QrccPipeline`] bundles the steps the paper's Figure 4 / Table 3 flow
//! performs: plan a cut for a device size, generate the subcircuit variants,
//! run them on a fleet of backends (exact simulators, noisy shots-based
//! devices, remote workers), and reconstruct either the probability
//! distribution (wire cuts only) or an observable's expectation value (wire
//! + gate cuts).
//!
//! A request is one call: [`QrccPipeline::execute_streaming`] or
//! [`QrccPipeline::execute_observables_streaming`]. Either enumerates every
//! needed variant once, as an integer
//! [`VariantKey`](crate::fragment::VariantKey), and hands the requests to a
//! [`Scheduler`], which maps each key to its canonical circuit, routes the
//! batch across its [`DeviceRegistry`](crate::schedule::DeviceRegistry) and
//! dispatches it fault-tolerantly in chunks (bounded in-flight windows,
//! retry with failer exclusion — see [`crate::dispatch`]). This thread folds
//! every delivered chunk into fragment tensors as it arrives, overlapping
//! reconstruction with device execution, and contracts once the last chunk
//! lands. A single backend is a one-entry registry.
//!
//! The call returns the answer, the [`ReconstructionReport`] (strategy,
//! contraction and pruning counters, phase profile) and the
//! [`ScheduleReport`] — the run's one account of shots, per-backend usage,
//! dispatch counters and the kernel-compile and result-cache snapshots.

use crate::analyze::{AnalysisContext, AnalysisReport, Analyzer};
use crate::execute::ExecutionResults;
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
/// use qrcc_core::{DeviceRegistry, QrccConfig, SchedulePolicy, Scheduler};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ghz = Circuit::new(4);
/// ghz.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
/// let config = QrccConfig::new(3).with_ilp_time_limit(std::time::Duration::ZERO);
/// let pipeline = QrccPipeline::plan(&ghz, config)?;
/// // one backend is a one-entry registry
/// let mut registry = DeviceRegistry::new();
/// registry.register("exact", ExactBackend::new());
/// // enumerate → dedup → dispatch → fold → contract
/// let scheduler = Scheduler::new(&registry, SchedulePolicy::default());
/// let (probabilities, _, schedule) = pipeline.execute_streaming(&scheduler)?;
/// assert!((probabilities[0] - 0.5).abs() < 1e-6);
/// assert_eq!(schedule.backends.len(), 1);
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

    // ---- phase 0: pre-flight static analysis ----

    /// Runs the pre-flight [`analyze`](crate::analyze) pass over the plan:
    /// circuit lints (`QL01xx`) on the original circuit and plan lints
    /// (`QL02xx`) on the fragments, using the plan's [`QrccConfig`]. Fleet
    /// lints need the scheduler the request runs on — see
    /// [`QrccPipeline::analyze_with_fleet`].
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
    /// [`CoreError::NoCompatibleBackend`] against the scheduler's registry
    /// and [`CoreError::ShotBudgetTooSmall`] against its policy, before any
    /// backend is contacted. Pass the scheduler the request will run on.
    pub fn analyze_with_fleet(&self, scheduler: &Scheduler<'_>) -> AnalysisReport {
        Analyzer::new().run(
            &AnalysisContext::new()
                .with_circuit(self.plan.circuit())
                .with_fragments(&self.fragments)
                .with_config(self.plan.config())
                .with_fleet(scheduler),
        )
    }

    /// [`QrccPipeline::analyze_with_fleet`] plus the severity gate of the
    /// plan's [`QrccConfig::lint_level`]: returns the report when it passes,
    /// fails fast otherwise — call this with the scheduler you then pass to
    /// [`QrccPipeline::execute_streaming`] to turn mid-dispatch failures
    /// into a pre-flight [`CoreError::AnalysisFailed`].
    ///
    /// # Errors
    ///
    /// [`CoreError::AnalysisFailed`] when the report holds diagnostics at or
    /// above the configured [`LintLevel`](crate::analyze::LintLevel).
    pub fn preflight(&self, scheduler: &Scheduler<'_>) -> Result<AnalysisReport, CoreError> {
        let report = self.analyze_with_fleet(scheduler);
        report.gate(self.plan.config().lint_level)?;
        Ok(report)
    }

    // ---- one request: enumerate → dedup → route → dispatch → fold → contract ----

    /// Reconstructs the probability distribution: the scheduler executes the
    /// deduplicated batch in chunks (size from
    /// [`SchedulePolicy::chunk_size`](crate::SchedulePolicy::chunk_size)) on
    /// a worker thread, routed across its registry under an optional global
    /// shot budget split by reconstruction-variance weight, while this
    /// thread folds every finished chunk into the fragment tensors — so
    /// classical reconstruction overlaps device execution, and only the
    /// final contraction remains once the last chunk lands.
    ///
    /// # Errors
    ///
    /// * [`CoreError::GateCutNeedsExpectation`] if the plan contains gate
    ///   cuts (use [`QrccPipeline::execute_observables_streaming`] instead).
    /// * [`CoreError::TooManyCuts`] if the plan exceeds what the configured
    ///   reconstruction strategy supports (total cuts for `Dense`,
    ///   per-contraction legs for `Contract`).
    /// * Any error of [`Scheduler::execute_chunked`] or
    ///   [`ProbabilityAccumulator`].
    pub fn execute_streaming(
        &self,
        scheduler: &Scheduler<'_>,
    ) -> Result<(Vec<f64>, ReconstructionReport, ScheduleReport), CoreError> {
        self.stream(scheduler, || {
            let options = self.reconstruction_options();
            let requests =
                ProbabilityReconstructor::with_options(options).requests(&self.fragments)?;
            Ok((requests, ProbabilityAccumulator::new(&self.fragments, options)?))
        })
    }

    /// Reconstructs the expectation value of `observable`: the scheduler
    /// dispatches the observable's deduplicated batch — Pauli terms of one
    /// qubit-wise-commuting measurement group share a fragment's variants —
    /// in chunks on a worker thread while this thread folds every finished
    /// chunk into per-Pauli scalar tensors (an [`ExpectationAccumulator`]).
    /// The expectation counterpart of [`QrccPipeline::execute_streaming`],
    /// valid for wire- **and** gate-cut plans. Only the per-term final
    /// contraction runs after the last chunk lands.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExpectationReconstructor::requests`], plus any
    /// error of [`Scheduler::execute_chunked`] or [`ExpectationAccumulator`].
    pub fn execute_observables_streaming(
        &self,
        scheduler: &Scheduler<'_>,
        observable: &PauliObservable,
    ) -> Result<(f64, ReconstructionReport, ScheduleReport), CoreError> {
        self.stream(scheduler, || {
            let options = self.reconstruction_options();
            let requests = ExpectationReconstructor::with_options(options)
                .requests(&self.fragments, observable)?;
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
    use crate::execute::{execute_requests, ExactBackend, ExecutionBackend, ShotsBackend};
    use crate::schedule::{DeviceRegistry, SchedulePolicy};
    use qrcc_circuit::observable::PauliString;
    use qrcc_sim::compile::interpreted_forced_by_env;
    use qrcc_sim::device::{Device, DeviceConfig};
    use qrcc_sim::noise::NoiseModel;
    use qrcc_sim::StateVector;
    use std::time::Duration;

    fn small_config(d: usize) -> QrccConfig {
        QrccConfig::new(d).with_subcircuit_range(2, 3).with_ilp_time_limit(Duration::ZERO)
    }

    /// `backend` as a one-entry registry.
    fn fleet(backend: impl ExecutionBackend + Send + 'static) -> DeviceRegistry {
        let mut registry = DeviceRegistry::new();
        registry.register("only", backend);
        registry
    }

    fn probabilities(pipeline: &QrccPipeline, registry: &DeviceRegistry) -> Vec<f64> {
        let scheduler = Scheduler::new(registry, SchedulePolicy::default());
        pipeline.execute_streaming(&scheduler).unwrap().0
    }

    fn expectation(
        pipeline: &QrccPipeline,
        registry: &DeviceRegistry,
        observable: &PauliObservable,
    ) -> f64 {
        let scheduler = Scheduler::new(registry, SchedulePolicy::default());
        pipeline.execute_observables_streaming(&scheduler, observable).unwrap().0
    }

    #[test]
    fn pipeline_probability_path_end_to_end() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).t(1).cx(1, 2).ry(0.4, 2).cx(2, 3);
        let pipeline = QrccPipeline::plan(&c, small_config(3)).unwrap();
        assert!(pipeline.total_instances() > 0);
        let reconstructed = probabilities(&pipeline, &fleet(ExactBackend::new()));
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
        let estimate = expectation(&pipeline, &fleet(ShotsBackend::new(device, 60_000)), &obs);
        let exact = StateVector::from_circuit(&c).unwrap().expectation(&obs);
        assert!((estimate - exact).abs() < 0.08, "shots estimate {estimate} vs exact {exact}");
    }

    #[test]
    fn config_selects_the_reconstruction_strategy_and_reports_it() {
        use crate::reconstruct::ReconstructionStrategy;
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).t(1).cx(1, 2).ry(0.4, 2).cx(2, 3);
        let exact = StateVector::from_circuit(&c).unwrap().probabilities();
        let registry = fleet(ExactBackend::new());
        for strategy in [ReconstructionStrategy::Dense, ReconstructionStrategy::Contract] {
            let config = small_config(3).with_reconstruction_strategy(strategy);
            let pipeline = QrccPipeline::plan(&c, config).unwrap();
            assert_eq!(pipeline.reconstruction_options().strategy, strategy);
            let scheduler = Scheduler::new(&registry, SchedulePolicy::default());
            let (p, report, _) = pipeline.execute_streaming(&scheduler).unwrap();
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
        let p = probabilities(&pipeline, &fleet(ExactBackend::new()));
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
        let qrcc = expectation(&pipeline, &fleet(ShotsBackend::new(sub_device, 8192)), &obs);

        let whole_error = (whole - exact).abs();
        let qrcc_error = (qrcc - exact).abs();
        assert!(
            qrcc_error <= whole_error + 0.05,
            "qrcc error {qrcc_error} should not be much worse than whole-circuit error {whole_error}"
        );
    }

    #[test]
    fn a_one_entry_stream_equals_the_batch_oracle_bit_for_bit() {
        // The oracle is the batch path: `execute_requests` on the backend,
        // then one blocking `reconstruct`. A one-chunk stream over the same
        // backend as a one-entry registry runs the same circuits in the same
        // order (so a seeded device samples the same streams) and folds in
        // the same canonical order.
        fn check<B: ExecutionBackend + Send + 'static>(
            pipeline: &QrccPipeline,
            observable: &PauliObservable,
            backend: impl Fn() -> B,
        ) {
            let fragments = pipeline.fragments();
            let options = pipeline.reconstruction_options();

            let reconstructor = ProbabilityReconstructor::with_options(options);
            let requests = reconstructor.requests(fragments).unwrap();
            let batch = execute_requests(fragments, &requests, &backend()).unwrap();
            let oracle = reconstructor.reconstruct(fragments, &batch).unwrap();
            let streamed = probabilities(pipeline, &fleet(backend()));
            assert!(oracle.iter().zip(&streamed).all(|(a, b)| a.to_bits() == b.to_bits()));

            let reconstructor = ExpectationReconstructor::with_options(options);
            let requests = reconstructor.requests(fragments, observable).unwrap();
            let batch = execute_requests(fragments, &requests, &backend()).unwrap();
            let oracle = reconstructor.reconstruct(fragments, &batch, observable).unwrap();
            let streamed = expectation(pipeline, &fleet(backend()), observable);
            assert_eq!(oracle.to_bits(), streamed.to_bits(), "{oracle} vs {streamed}");
        }

        let mut c = Circuit::new(5);
        c.h(0).cx(0, 1).ry(0.7, 1).cx(1, 2).rx(0.4, 2).cx(2, 3).ry(1.1, 3).cx(3, 4);
        let mut obs = PauliObservable::new(5);
        obs.add_term(1.0, PauliString::zz(5, 0, 4));
        obs.add_term(-0.5, PauliString::x(5, 2));
        let pipeline = QrccPipeline::plan(&c, small_config(3)).unwrap();
        check(&pipeline, &obs, ExactBackend::new);
        // a fresh seeded device per run: every run samples the same streams
        check(&pipeline, &obs, || {
            ShotsBackend::new(Device::new(DeviceConfig::ideal(3).with_seed(5)), 2_000)
        });
    }

    #[test]
    fn a_streamed_request_reports_kernel_compile_stats() {
        let mut c = Circuit::new(5);
        c.h(0).cx(0, 1).ry(0.7, 1).cx(1, 2).rx(0.4, 2).cx(2, 3).ry(1.1, 3).cx(3, 4);
        let pipeline = QrccPipeline::plan(&c, small_config(3)).unwrap();
        let registry = fleet(ExactBackend::new());
        let scheduler = Scheduler::new(&registry, SchedulePolicy::default());
        let (_, _, schedule) = pipeline.execute_streaming(&scheduler).unwrap();
        if interpreted_forced_by_env() {
            assert!(schedule.kernel_compile.is_none(), "an interpreted backend compiles nothing");
            return;
        }
        let stats = schedule.kernel_compile.expect("a compiled backend reports its kernels");
        assert!(stats.kernels_out > 0, "{stats}");
        assert!(schedule.result_cache.is_none(), "no result cache is attached");
    }
}
