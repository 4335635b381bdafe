//! Expectation-value reconstruction for plans with wire cuts and gate cuts
//! (paper §4.3 "Reconstruction after W-Cut and G-Cut").
//!
//! [`requests`] enumerates every variant the observable needs, across *all*
//! Pauli terms, each once. Per fragment, the terms fall into
//! qubit-wise-commuting measurement groups: terms that agree on every
//! output both act on non-trivially share one measurement setting, and so
//! the fragment's [`VariantKey`]s (`X₁` and `X₂` are both read off one
//! all-X measurement). Each term reads only its own support's bits, so the
//! grouping drops no basis element and the answer stays exact. The caller
//! executes one batch, and [`reconstruct`] is then a one-batch fold: an
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

/// The output bases `string` asks of `fragment`'s outputs, packed as a
/// [`VariantKey::outputs`] (I reads like Z: both instantiate to a plain
/// computational-basis measurement), and the slots it constrains — its
/// non-identity outputs, as a mask of the same 2-bit fields.
///
/// # Errors
///
/// [`CoreError::InvalidCutSolution`] when an output past the 32 a key can
/// pack needs an X or Y basis.
fn signature(fragment: &Fragment, string: &PauliString) -> Result<(u64, u64), CoreError> {
    let (mut outputs, mut support) = (0u64, 0u64);
    for (slot, &(orig, _)) in fragment.output_clbits.iter().enumerate() {
        let code = match string.pauli(orig) {
            Pauli::I => continue,
            Pauli::Z => 0,
            Pauli::X => 1,
            Pauli::Y => 2,
        };
        if slot >= 32 {
            // past the key's 32 slots every setting measures Z
            if code == 0 {
                continue;
            }
            return Err(CoreError::InvalidCutSolution {
                reason: format!("fragment {} measures more than 32 outputs", fragment.index),
            });
        }
        outputs |= code << (2 * slot);
        support |= 3 << (2 * slot);
    }
    Ok((outputs, support))
}

/// The measurement setting each of `strings` reads `fragment` in: the
/// [`VariantKey::outputs`] of its qubit-wise-commuting group.
///
/// Terms with one signature form a class, which constrains the union of its
/// terms' supports. In first-seen order, each class joins the first earlier
/// group that agrees with it on every slot both constrain, or opens a new
/// one; a slot no member constrains measures Z. So a fragment never gets
/// more settings than distinct signatures, and a Z-only observable gets
/// the single all-Z setting.
fn measurement_settings(
    fragment: &Fragment,
    strings: &[&PauliString],
) -> Result<Vec<u64>, CoreError> {
    let mut classes: Vec<(u64, u64)> = Vec::new();
    let mut class_of = Vec::with_capacity(strings.len());
    for string in strings {
        let (outputs, support) = signature(fragment, string)?;
        let class = match classes.iter().position(|&(s, _)| s == outputs) {
            Some(class) => class,
            None => {
                classes.push((outputs, 0));
                classes.len() - 1
            }
        };
        classes[class].1 |= support;
        class_of.push(class);
    }
    let mut groups: Vec<(u64, u64)> = Vec::new();
    let group_of: Vec<usize> = classes
        .iter()
        .map(|&(outputs, support)| {
            match groups
                .iter()
                .position(|&(g, constrained)| (g ^ outputs) & constrained & support == 0)
            {
                Some(group) => {
                    groups[group].0 |= outputs;
                    groups[group].1 |= support;
                    group
                }
                None => {
                    groups.push((outputs, support));
                    groups.len() - 1
                }
            }
        })
        .collect();
    Ok(class_of.into_iter().map(|class| groups[group_of[class]].0).collect())
}

/// A Pauli term of an observable that can contribute, with the setting it
/// measures each fragment in.
pub(super) struct Term<'o> {
    pub(super) coefficient: f64,
    pub(super) string: &'o PauliString,
    /// Per fragment, the [`VariantKey::outputs`] of this term's measurement
    /// group there (see [`measurement_settings`]).
    pub(super) settings: Vec<u64>,
}

/// The terms of `observable` that can contribute — a term with X or Y on an
/// idle wire is identically zero — in observable order, each with its
/// per-fragment measurement setting.
pub(super) fn contributing_terms<'o>(
    fragments: &FragmentSet,
    observable: &'o PauliObservable,
) -> Result<Vec<Term<'o>>, CoreError> {
    let terms: Vec<&(f64, PauliString)> = observable
        .terms()
        .iter()
        .filter(|(_, string)| !vanishes_on_idle_wires(fragments, string))
        .collect();
    let strings: Vec<&PauliString> = terms.iter().map(|(_, string)| string).collect();
    let per_fragment = fragments
        .fragments
        .iter()
        .map(|fragment| measurement_settings(fragment, &strings))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(terms
        .iter()
        .enumerate()
        .map(|(t, (coefficient, string))| Term {
            coefficient: *coefficient,
            string,
            settings: per_fragment.iter().map(|settings| settings[t]).collect(),
        })
        .collect())
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
    /// measurement setting of its terms' qubit-wise-commuting groups — terms
    /// that agree on their common support share one setting, so a fragment
    /// gets at most as many settings as distinct output-basis signatures.
    /// Settings are listed in first-seen order over (term, fragment),
    /// ordinals ascending.
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
        let mut settings: Vec<(usize, u64)> = Vec::new();
        for term in contributing_terms(fragments, observable)? {
            for (fragment, &outputs) in term.settings.iter().enumerate() {
                // Clbit-free fragments (reuse-absorbed empty subcircuits)
                // measure nothing; their contribution is the constant 1.
                if fragments.fragments[fragment].num_clbits > 0
                    && !settings.contains(&(fragment, outputs))
                {
                    settings.push((fragment, outputs));
                }
            }
        }
        Ok(settings
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

    fn strings(paulis: &[&str]) -> Vec<PauliString> {
        paulis
            .iter()
            .map(|s| {
                PauliString::from_paulis(
                    s.chars()
                        .map(|c| match c {
                            'X' => Pauli::X,
                            'Y' => Pauli::Y,
                            'Z' => Pauli::Z,
                            _ => Pauli::I,
                        })
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn terms_that_agree_on_their_support_share_one_setting() {
        // outputs 0..3 read original qubits 0..3 from clbits 0..3
        let fragment =
            Fragment::with_slots(3, vec![], vec![], vec![], vec![(0, 0), (1, 1), (2, 2)]);
        let strings = strings(&["XII", "IXI", "ZZI", "IIY", "XXY"]);
        let refs: Vec<&PauliString> = strings.iter().collect();
        let settings = measurement_settings(&fragment, &refs).unwrap();
        // X on slots 0 and 1, Y on slot 2: one measurement serves four of
        // the five signatures; ZZ disagrees with it on slots 0 and 1
        let xxy = 1 | 1 << 2 | 2 << 4;
        assert_eq!(settings, vec![xxy, xxy, 0, xxy, xxy]);
    }

    #[test]
    fn outputs_past_the_key_width_measure_only_z() {
        let outputs = (0..40).map(|q| (q, q)).collect();
        let fragment = Fragment::with_slots(40, vec![], vec![], vec![], outputs);
        let z = PauliString::z(40, 35);
        let xz = PauliString::from_paulis(
            (0..40)
                .map(|q| match q {
                    3 => Pauli::X,
                    35 => Pauli::Z,
                    _ => Pauli::I,
                })
                .collect(),
        );
        assert_eq!(measurement_settings(&fragment, &[&z, &xz]).unwrap(), vec![1 << 6, 1 << 6]);
        assert!(matches!(
            measurement_settings(&fragment, &[&PauliString::x(40, 35)]),
            Err(CoreError::InvalidCutSolution { .. })
        ));
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
