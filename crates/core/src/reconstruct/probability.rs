//! Full probability-vector reconstruction for wire-cut-only plans (the
//! CutQC-style path, paper §4.3 "Reconstruction after W-Cut").
//!
//! The reconstructor enumerates the variants the workload needs
//! ([`requests`]) and the caller executes them in one batch. [`reconstruct`]
//! is then a one-batch fold: a [`ProbabilityAccumulator`] folds the borrowed
//! batch in canonical order and contracts it with the strategy resolved from
//! the [`ReconstructionOptions`] — the rayon-parallel dense loop or pairwise
//! contraction with sparse pruning. A blocking reconstruction therefore
//! equals a one-chunk stream bit for bit.
//!
//! [`requests`]: ProbabilityReconstructor::requests
//! [`reconstruct`]: ProbabilityReconstructor::reconstruct

use super::engine::{
    self, probability_variants, ReconstructionOptions, ReconstructionReport, Workload,
};
use super::ProbabilityAccumulator;
use crate::execute::ExecutionResults;
use crate::fragment::{FragmentSet, VariantRequest};
use crate::CoreError;

/// Reconstructs the original circuit's probability distribution from a
/// wire-cut [`FragmentSet`].
#[derive(Debug, Clone, Default)]
pub struct ProbabilityReconstructor {
    options: ReconstructionOptions,
}

impl ProbabilityReconstructor {
    /// Creates a reconstructor with default options (`Auto` strategy, no
    /// pruning).
    pub fn new() -> Self {
        ProbabilityReconstructor::default()
    }

    /// Creates a reconstructor with explicit strategy / pruning options.
    pub fn with_options(options: ReconstructionOptions) -> Self {
        ProbabilityReconstructor { options }
    }

    /// The options this reconstructor runs with.
    pub fn options(&self) -> &ReconstructionOptions {
        &self.options
    }

    /// Phase 1 (enumerate): every variant request the probability workload
    /// needs, as pure data. The request list is strategy-independent; only
    /// feasibility differs (`Contract` accepts plans whose total cut count
    /// exceeds the dense cap).
    ///
    /// # Errors
    ///
    /// * [`CoreError::GateCutNeedsExpectation`] if the plan contains gate
    ///   cuts (their post-processing cannot rebuild a distribution).
    /// * [`CoreError::TooManyCuts`] if the plan exceeds what the configured
    ///   strategy supports (total cuts for `Dense`, per-contraction legs for
    ///   `Contract`).
    pub fn requests(&self, fragments: &FragmentSet) -> Result<Vec<VariantRequest>, CoreError> {
        engine::resolve_strategy(fragments, &self.options, Workload::Probability)?;
        let mut requests = Vec::new();
        for fragment in &fragments.fragments {
            // A fragment with no classical bits (a reuse-absorbed empty
            // subcircuit) measures nothing: its distribution is trivially
            // [1.0], so nothing needs to run.
            if fragment.num_clbits == 0 {
                continue;
            }
            requests.extend(
                probability_variants(fragment).map(|v| VariantRequest::new(fragment.index, v)),
            );
        }
        Ok(requests)
    }

    /// Phase 3 (consume): rebuilds the `2^N` probability vector of the
    /// original circuit from executed batch results.
    ///
    /// # Errors
    ///
    /// Same plan conditions as [`ProbabilityReconstructor::requests`], plus
    /// [`CoreError::MissingVariant`] when `results` lacks a needed variant.
    pub fn reconstruct(
        &self,
        fragments: &FragmentSet,
        results: &ExecutionResults,
    ) -> Result<Vec<f64>, CoreError> {
        self.reconstruct_with_report(fragments, results).map(|(p, _)| p)
    }

    /// Phase 3 with the engine's [`ReconstructionReport`]: which strategy
    /// ran, how many pairwise contractions it took, and how much absolute
    /// weight sparse pruning dropped.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ProbabilityReconstructor::reconstruct`].
    pub fn reconstruct_with_report(
        &self,
        fragments: &FragmentSet,
        results: &ExecutionResults,
    ) -> Result<(Vec<f64>, ReconstructionReport), CoreError> {
        ProbabilityAccumulator::new(fragments, self.options)?.reconstruct(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute::{execute_requests, ExactBackend};
    use crate::planner::CutPlanner;
    use crate::reconstruct::ReconstructionStrategy;
    use crate::QrccConfig;
    use qrcc_circuit::Circuit;
    use qrcc_sim::StateVector;
    use std::time::Duration;

    fn plan_fragments(circuit: &Circuit, device_size: usize) -> FragmentSet {
        let config = QrccConfig::new(device_size)
            .with_subcircuit_range(2, 3)
            .with_ilp_time_limit(Duration::ZERO);
        let plan = CutPlanner::new(config).plan(circuit).unwrap();
        FragmentSet::from_plan(&plan).unwrap()
    }

    fn reconstruct_and_compare(circuit: &Circuit, device_size: usize) {
        let fragments = plan_fragments(circuit, device_size);
        let backend = ExactBackend::new();
        // three-phase flow: enumerate, batch-execute, consume
        let reconstructor = ProbabilityReconstructor::new();
        let requests = reconstructor.requests(&fragments).unwrap();
        let results = execute_requests(&fragments, &requests, &backend).unwrap();
        assert_eq!(results.requested(), requests.len() as u64);
        let exact = StateVector::from_circuit(circuit).unwrap().probabilities();
        // every strategy must agree with the exact distribution
        for strategy in [
            ReconstructionStrategy::Auto,
            ReconstructionStrategy::Dense,
            ReconstructionStrategy::Contract,
        ] {
            let reconstructor = ProbabilityReconstructor::with_options(ReconstructionOptions {
                strategy,
                ..ReconstructionOptions::default()
            });
            let (reconstructed, report) =
                reconstructor.reconstruct_with_report(&fragments, &results).unwrap();
            assert_ne!(report.strategy, ReconstructionStrategy::Auto);
            assert_eq!(reconstructed.len(), exact.len());
            let total: f64 = reconstructed.iter().sum();
            assert!((total - 1.0).abs() < 1e-6, "reconstructed total {total} ({strategy:?})");
            for (i, (a, b)) in exact.iter().zip(&reconstructed).enumerate() {
                assert!(
                    (a - b).abs() < 1e-6,
                    "probability mismatch at {i}: exact {a} vs {b} ({strategy:?})"
                );
            }
        }
    }

    #[test]
    fn ghz_chain_reconstruction_matches_statevector() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
        reconstruct_and_compare(&c, 3);
    }

    #[test]
    fn rotated_chain_reconstruction_matches_statevector() {
        let mut c = Circuit::new(4);
        c.h(0).ry(0.7, 1).cx(0, 1).rz(0.3, 1).cx(1, 2).t(2).cx(2, 3).rx(1.1, 3);
        reconstruct_and_compare(&c, 3);
    }

    #[test]
    fn pruned_contraction_reports_dropped_mass() {
        let mut c = Circuit::new(4);
        c.h(0).ry(0.7, 1).cx(0, 1).rz(0.3, 1).cx(1, 2).t(2).cx(2, 3).rx(1.1, 3);
        let fragments = plan_fragments(&c, 3);
        let backend = ExactBackend::new();
        let reconstructor = ProbabilityReconstructor::with_options(ReconstructionOptions {
            strategy: ReconstructionStrategy::Contract,
            prune_tolerance: 1e-9,
        });
        let requests = reconstructor.requests(&fragments).unwrap();
        let results = execute_requests(&fragments, &requests, &backend).unwrap();
        let (reconstructed, report) =
            reconstructor.reconstruct_with_report(&fragments, &results).unwrap();
        assert_eq!(report.strategy, ReconstructionStrategy::Contract);
        assert!(report.contractions >= 1, "multi-fragment plan must contract");
        assert!(report.kept_terms > 0);
        assert_eq!(report.prune_tolerance, 1e-9);
        // a tolerance this small must not visibly perturb the distribution
        let exact = StateVector::from_circuit(&c).unwrap().probabilities();
        for (a, b) in exact.iter().zip(&reconstructed) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn gate_cut_plans_are_rejected() {
        let mut c = Circuit::new(4);
        c.h(0).rzz(0.4, 0, 1).rzz(0.9, 1, 2).rzz(0.2, 2, 3);
        let config = QrccConfig::new(3)
            .with_subcircuit_range(2, 2)
            .with_gate_cuts(true)
            .with_ilp_time_limit(Duration::ZERO);
        let plan = CutPlanner::new(config).plan(&c).unwrap();
        let fragments = FragmentSet::from_plan(&plan).unwrap();
        if fragments.num_gate_cuts() == 0 {
            return; // the planner chose wire cuts only; nothing to test here
        }
        assert!(matches!(
            ProbabilityReconstructor::new().requests(&fragments),
            Err(CoreError::GateCutNeedsExpectation)
        ));
        assert!(matches!(
            ProbabilityReconstructor::new().reconstruct(&fragments, &ExecutionResults::default()),
            Err(CoreError::GateCutNeedsExpectation)
        ));
    }

    #[test]
    fn consuming_an_empty_batch_reports_missing_variants() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
        let config =
            QrccConfig::new(3).with_subcircuit_range(2, 3).with_ilp_time_limit(Duration::ZERO);
        let plan = CutPlanner::new(config).plan(&c).unwrap();
        let fragments = FragmentSet::from_plan(&plan).unwrap();
        assert!(matches!(
            ProbabilityReconstructor::new().reconstruct(&fragments, &ExecutionResults::default()),
            Err(CoreError::MissingVariant { .. })
        ));
    }
}
