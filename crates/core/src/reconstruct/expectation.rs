//! Expectation-value reconstruction for plans with wire cuts and gate cuts
//! (paper §4.3 "Reconstruction after W-Cut and G-Cut").
//!
//! [`requests`] enumerates every variant the observable needs, across *all*
//! Pauli terms, each once: terms that measure a fragment's outputs in the
//! same bases share that fragment's [`VariantKey`]s. The caller executes one
//! batch, and [`reconstruct`] is then a one-batch fold: an
//! [`ExpectationAccumulator`] folds the borrowed batch into every term's
//! scalar cut tensors in canonical order and contracts them with the
//! strategy resolved from the [`ReconstructionOptions`] — the rayon-parallel
//! dense loop or pairwise contraction with sparse pruning.
//!
//! [`requests`]: ExpectationReconstructor::requests
//! [`reconstruct`]: ExpectationReconstructor::reconstruct

use super::engine::{
    self, ContractionPlan, ReconstructionOptions, ReconstructionReport, ReconstructionStrategy,
    Workload,
};
use super::ExpectationAccumulator;
use crate::execute::ExecutionResults;
use crate::fragment::{Fragment, FragmentSet, VariantKey, VariantRequest};
use crate::CoreError;
use qrcc_circuit::observable::{Pauli, PauliObservable, PauliString};

/// Reconstructs expectation values of Pauli observables from a cut plan's
/// fragments.
#[derive(Debug, Clone, Default)]
pub struct ExpectationReconstructor {
    options: ReconstructionOptions,
}

/// Whether a Pauli string's contribution is identically zero because it acts
/// with X or Y on an idle wire (idle original qubits stay in |0⟩).
fn vanishes_on_idle_wires(fragments: &FragmentSet, string: &PauliString) -> bool {
    (0..fragments.original_qubits).any(|q| {
        fragments.output_owner[q].is_none() && matches!(string.pauli(q), Pauli::X | Pauli::Y)
    })
}

/// The output bases `string` measures `fragment`'s outputs in, packed as a
/// [`VariantKey::outputs`]: I measures like Z (both instantiate to a plain
/// computational-basis measurement), so terms that differ only there share
/// the fragment's variants.
///
/// # Errors
///
/// [`CoreError::InvalidCutSolution`] when an output past the 32 a key can
/// pack needs an X or Y basis.
fn signature(fragment: &Fragment, string: &PauliString) -> Result<u64, CoreError> {
    let mut outputs = 0u64;
    for (slot, &(orig, _)) in fragment.output_clbits.iter().enumerate() {
        let code = match string.pauli(orig) {
            Pauli::I | Pauli::Z => continue,
            Pauli::X => 1,
            Pauli::Y => 2,
        };
        if slot >= 32 {
            return Err(CoreError::InvalidCutSolution {
                reason: format!("fragment {} measures more than 32 outputs", fragment.index),
            });
        }
        outputs |= code << (2 * slot);
    }
    Ok(outputs)
}

/// A Pauli term of an observable that can contribute, with the signature
/// it measures each fragment in.
pub(super) struct Term<'o> {
    pub(super) coefficient: f64,
    pub(super) string: &'o PauliString,
    /// Per fragment, its [`VariantKey::outputs`] for this term.
    pub(super) signatures: Vec<u64>,
}

/// The terms of `observable` that can contribute — a term with X or Y on an
/// idle wire is identically zero — in observable order.
pub(super) fn contributing_terms<'o>(
    fragments: &FragmentSet,
    observable: &'o PauliObservable,
) -> Result<Vec<Term<'o>>, CoreError> {
    observable
        .terms()
        .iter()
        .filter(|(_, string)| !vanishes_on_idle_wires(fragments, string))
        .map(|(coefficient, string)| {
            let signatures = fragments
                .fragments
                .iter()
                .map(|fragment| signature(fragment, string))
                .collect::<Result<_, _>>()?;
            Ok(Term { coefficient: *coefficient, string, signatures })
        })
        .collect()
}

/// The expectation workload's plan check: `observable` acts on the original
/// circuit's qubits, and the configured strategy can reconstruct the plan.
pub(super) fn resolve(
    fragments: &FragmentSet,
    observable: &PauliObservable,
    options: &ReconstructionOptions,
) -> Result<(ReconstructionStrategy, ContractionPlan), CoreError> {
    if observable.num_qubits() != fragments.original_qubits {
        return Err(CoreError::InvalidCutSolution {
            reason: format!(
                "observable acts on {} qubits but the circuit has {}",
                observable.num_qubits(),
                fragments.original_qubits
            ),
        });
    }
    engine::resolve_strategy(fragments, options, Workload::Expectation)
}

impl ExpectationReconstructor {
    /// Creates a reconstructor with default options (`Auto` strategy, no
    /// pruning).
    pub fn new() -> Self {
        ExpectationReconstructor::default()
    }

    /// Creates a reconstructor with explicit strategy / pruning options.
    pub fn with_options(options: ReconstructionOptions) -> Self {
        ExpectationReconstructor { options }
    }

    /// The options this reconstructor runs with.
    pub fn options(&self) -> &ReconstructionOptions {
        &self.options
    }

    /// Phase 1 (enumerate): every variant needed to evaluate all of
    /// `observable`'s Pauli terms, each once. A fragment's variants are all
    /// its [`variant_count`](Fragment::variant_count) ordinals in every
    /// output-basis signature some term measures it in; signatures are
    /// listed in first-seen order over (term, fragment), ordinals ascending.
    ///
    /// # Errors
    ///
    /// * [`CoreError::TooManyCuts`] when the plan exceeds what the
    ///   configured strategy supports (total wire cuts for `Dense`,
    ///   per-contraction legs for `Contract`).
    /// * [`CoreError::InvalidCutSolution`] when the observable width does not
    ///   match the original circuit.
    pub fn requests(
        &self,
        fragments: &FragmentSet,
        observable: &PauliObservable,
    ) -> Result<Vec<VariantRequest>, CoreError> {
        resolve(fragments, observable, &self.options)?;
        let mut signatures: Vec<(usize, u64)> = Vec::new();
        for term in contributing_terms(fragments, observable)? {
            for (fragment, &outputs) in term.signatures.iter().enumerate() {
                // Clbit-free fragments (reuse-absorbed empty subcircuits)
                // measure nothing; their contribution is the constant 1.
                if fragments.fragments[fragment].num_clbits > 0
                    && !signatures.contains(&(fragment, outputs))
                {
                    signatures.push((fragment, outputs));
                }
            }
        }
        Ok(signatures
            .into_iter()
            .flat_map(|(fragment, outputs)| {
                (0..fragments.fragments[fragment].variant_count()).map(move |ordinal| {
                    VariantRequest { key: VariantKey::new(fragment, ordinal, outputs) }
                })
            })
            .collect())
    }

    /// Phase 3 (consume): reconstructs `⟨H⟩` for a weighted Pauli observable
    /// from executed batch results.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExpectationReconstructor::requests`], plus
    /// [`CoreError::MissingVariant`] when `results` lacks a needed variant.
    pub fn reconstruct(
        &self,
        fragments: &FragmentSet,
        results: &ExecutionResults,
        observable: &PauliObservable,
    ) -> Result<f64, CoreError> {
        self.reconstruct_with_report(fragments, results, observable).map(|(v, _)| v)
    }

    /// Phase 3 with the engine's [`ReconstructionReport`] accumulated over
    /// every Pauli term.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExpectationReconstructor::reconstruct`].
    pub fn reconstruct_with_report(
        &self,
        fragments: &FragmentSet,
        results: &ExecutionResults,
        observable: &PauliObservable,
    ) -> Result<(f64, ReconstructionReport), CoreError> {
        ExpectationAccumulator::new(fragments, observable, self.options)?.reconstruct(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute::{execute_requests, ExactBackend, ExecutionBackend};
    use crate::planner::CutPlanner;
    use crate::QrccConfig;
    use qrcc_circuit::observable::PauliObservable;
    use qrcc_circuit::{generators, Circuit};
    use qrcc_sim::StateVector;
    use std::time::Duration;

    fn check_expectation(circuit: &Circuit, observable: &PauliObservable, config: QrccConfig) {
        let plan = CutPlanner::new(config).plan(circuit).unwrap();
        let fragments = FragmentSet::from_plan(&plan).unwrap();
        let backend = ExactBackend::new();
        // three-phase flow: enumerate all terms, one batch, consume per term
        let reconstructor = ExpectationReconstructor::new();
        let requests = reconstructor.requests(&fragments, observable).unwrap();
        let results = execute_requests(&fragments, &requests, &backend).unwrap();
        let exact = StateVector::from_circuit(circuit).unwrap().expectation(observable);
        // every strategy must agree with the exact value
        for strategy in [
            ReconstructionStrategy::Auto,
            ReconstructionStrategy::Dense,
            ReconstructionStrategy::Contract,
        ] {
            let reconstructor = ExpectationReconstructor::with_options(ReconstructionOptions {
                strategy,
                ..ReconstructionOptions::default()
            });
            let (reconstructed, report) =
                reconstructor.reconstruct_with_report(&fragments, &results, observable).unwrap();
            assert_ne!(report.strategy, ReconstructionStrategy::Auto);
            assert!(
                (reconstructed - exact).abs() < 1e-6,
                "reconstructed {reconstructed} vs exact {exact} ({strategy:?}, {} wire cuts, {} gate cuts)",
                fragments.num_wire_cuts(),
                fragments.num_gate_cuts()
            );
        }
    }

    #[test]
    fn wire_cut_expectation_matches_statevector() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).ry(0.8, 1).cx(1, 2).rz(0.5, 2).cx(2, 3);
        let mut obs = PauliObservable::new(4);
        obs.add_term(1.0, qrcc_circuit::observable::PauliString::zz(4, 0, 3));
        obs.add_term(-0.5, qrcc_circuit::observable::PauliString::z(4, 2));
        obs.add_term(0.25, qrcc_circuit::observable::PauliString::x(4, 1));
        let config =
            QrccConfig::new(3).with_subcircuit_range(2, 3).with_ilp_time_limit(Duration::ZERO);
        check_expectation(&c, &obs, config);
    }

    #[test]
    fn gate_cut_expectation_matches_statevector() {
        // Two halves coupled by a single cuttable RZZ: the planner should
        // gate-cut it when gate cuts are enabled and wire cuts are scarce.
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).ry(0.4, 1).h(2).cx(2, 3).rz(0.7, 3).rzz(0.9, 1, 2).rx(0.3, 1).ry(0.2, 2);
        let mut obs = PauliObservable::new(4);
        obs.add_term(1.0, qrcc_circuit::observable::PauliString::zz(4, 1, 2));
        obs.add_term(0.5, qrcc_circuit::observable::PauliString::z(4, 0));
        let config = QrccConfig::new(2)
            .with_subcircuit_range(2, 2)
            .with_gate_cuts(true)
            .with_max_wire_cuts(0)
            .with_ilp_time_limit(Duration::ZERO);
        let plan = CutPlanner::new(config.clone()).plan(&c).unwrap();
        assert!(plan.gate_cut_count() >= 1, "expected at least one gate cut");
        check_expectation(&c, &obs, config);
    }

    #[test]
    fn mixed_wire_and_gate_cut_expectation_matches_statevector() {
        let (c, graph) = generators::qaoa_regular(4, 2, 1, 9);
        let obs = PauliObservable::maxcut(&graph);
        let config = QrccConfig::new(3)
            .with_subcircuit_range(2, 3)
            .with_gate_cuts(true)
            .with_ilp_time_limit(Duration::ZERO);
        check_expectation(&c, &obs, config);
    }

    #[test]
    fn shared_basis_signatures_deduplicate_across_terms() {
        // Two Z-like terms and an identity-ish term share every fragment
        // signature, so the enumerate phase requests each variant once for
        // all three terms and the batch executes it once.
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).ry(0.8, 1).cx(1, 2).cx(2, 3);
        let mut obs = PauliObservable::new(4);
        obs.add_term(1.0, qrcc_circuit::observable::PauliString::zz(4, 0, 3));
        obs.add_term(-0.5, qrcc_circuit::observable::PauliString::z(4, 2));
        obs.add_term(0.25, qrcc_circuit::observable::PauliString::zz(4, 1, 2));
        let config =
            QrccConfig::new(3).with_subcircuit_range(2, 3).with_ilp_time_limit(Duration::ZERO);
        let plan = CutPlanner::new(config).plan(&c).unwrap();
        let fragments = FragmentSet::from_plan(&plan).unwrap();
        let reconstructor = ExpectationReconstructor::new();
        let requests = reconstructor.requests(&fragments, &obs).unwrap();
        let executing = fragments.fragments.iter().filter(|f| f.num_clbits > 0);
        let per_term: u64 = executing.map(Fragment::variant_count).sum();
        assert_eq!(requests.len() as u64, per_term, "one signature per fragment for all terms");
        let backend = ExactBackend::new();
        let results = execute_requests(&fragments, &requests, &backend).unwrap();
        assert_eq!(results.requested(), results.unique_variants() as u64);
        assert!(results.executed() <= results.unique_variants() as u64);
        assert_eq!(backend.executions(), results.executed());
    }

    #[test]
    fn observable_width_mismatch_is_rejected() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let config =
            QrccConfig::new(2).with_subcircuit_range(2, 2).with_ilp_time_limit(Duration::ZERO);
        let plan = CutPlanner::new(config).plan(&c).unwrap();
        let fragments = FragmentSet::from_plan(&plan).unwrap();
        let obs = PauliObservable::all_z(5);
        assert!(matches!(
            ExpectationReconstructor::new().requests(&fragments, &obs),
            Err(CoreError::InvalidCutSolution { .. })
        ));
        assert!(matches!(
            ExpectationReconstructor::new().reconstruct(
                &fragments,
                &ExecutionResults::default(),
                &obs
            ),
            Err(CoreError::InvalidCutSolution { .. })
        ));
    }
}
