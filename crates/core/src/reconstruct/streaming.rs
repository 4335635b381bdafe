//! Streaming partial reconstruction: fold executed variants into fragment
//! tensors **as chunks arrive**, so classical contraction overlaps device
//! execution instead of waiting for the last variant.
//!
//! [`ProbabilityAccumulator`] and [`ExpectationAccumulator`] are the
//! consume-phase counterparts of the chunked
//! [`Scheduler`](crate::schedule::Scheduler): every [`ExecutionResults`]
//! chunk they `absorb` is folded immediately into the owning fragment's cut
//! tensor (the incremental `CutTensor::fold_partial` /
//! `fold_expectation_partial` units of the engine — the expectation
//! accumulator keeps one scalar tensor per fragment per Pauli term), and
//! `finish` runs only the final contraction (dense loop or pairwise
//! contraction) over the accumulated tensors. Re-delivering a variant that
//! was already folded — a **shot top-up** that replaces its distribution
//! with a higher-shot estimate — marks just the owning fragment dirty, and
//! the next `finish` re-folds only that fragment's tensor before
//! re-contracting.

use super::engine::{
    self, expectation_variants, normalized_output_bases, probability_variants, ExpectationFolder,
    FragmentFolder, ReconstructionOptions, ReconstructionReport, ReconstructionStrategy, Workload,
};
use super::expectation::vanishes_on_idle_wires;
use crate::execute::ExecutionResults;
use crate::fragment::{Fragment, FragmentSet, FragmentVariant, VariantKey};
use crate::CoreError;
use qrcc_circuit::observable::{Pauli, PauliObservable, PauliString};

/// The "already folded" set of one fragment's variants: a bitset indexed by
/// the variant's mixed-radix ordinal (gate instances ×6, init states ×4, cut
/// bases ×3), so membership costs no hash and no variant clone.
#[derive(Debug, Clone)]
struct FoldedSet {
    bits: Vec<u64>,
    /// `6^roles · 4^incoming · 3^outgoing`: every variant the fragment has.
    expected: u64,
}

impl FoldedSet {
    fn new(fragment: &Fragment) -> Self {
        let expected = fragment.variant_count();
        FoldedSet { bits: vec![0; expected.div_ceil(64) as usize], expected }
    }

    /// Ordinal of a variant whose slot counts and instance range were
    /// already validated against the fragment.
    fn ordinal(variant: &FragmentVariant) -> usize {
        let ordinal = variant.gate_instances.iter().fold(0, |acc, &g| acc * 6 + (g - 1));
        let ordinal = variant.init_states.iter().fold(ordinal, |acc, &s| acc * 4 + s as usize);
        variant.cut_bases.iter().fold(ordinal, |acc, &b| acc * 3 + b as usize)
    }

    fn contains(&self, variant: &FragmentVariant) -> bool {
        let ordinal = Self::ordinal(variant);
        self.bits[ordinal / 64] >> (ordinal % 64) & 1 == 1
    }

    fn insert(&mut self, variant: &FragmentVariant) {
        let ordinal = Self::ordinal(variant);
        self.bits[ordinal / 64] |= 1 << (ordinal % 64);
    }

    fn len(&self) -> u64 {
        self.bits.iter().map(|word| u64::from(word.count_ones())).sum()
    }

    fn is_complete(&self) -> bool {
        self.len() == self.expected
    }
}

/// Whether `variant` is one of the probability workload's enumerated
/// variants for `fragment` (all-Z outputs, no gate instances, matching slot
/// counts). Scheduled batches may interleave expectation variants; the
/// accumulator skips those instead of mis-folding them.
fn is_probability_variant(fragment: &Fragment, variant: &FragmentVariant) -> bool {
    variant.gate_instances.is_empty()
        && variant.init_states.len() == fragment.incoming_cuts.len()
        && variant.cut_bases.len() == fragment.outgoing_cuts.len()
        && variant.output_bases.len() == fragment.output_clbits.len()
        && variant.output_bases.iter().all(|&p| p == Pauli::Z)
}

/// Incremental probability reconstruction over streamed
/// [`ExecutionResults`] chunks.
///
/// ```text
/// let mut acc = ProbabilityAccumulator::new(fragments, options)?;
/// for chunk in scheduler_chunks {   // arrives while devices still run
///     acc.absorb(chunk)?;           // folds into fragment tensors now
/// }
/// let (probabilities, report) = acc.finish()?;  // contraction only
/// ```
#[derive(Debug, Clone)]
pub struct ProbabilityAccumulator<'a> {
    fragments: &'a FragmentSet,
    options: ReconstructionOptions,
    tensors: Vec<engine::CutTensor>,
    folders: Vec<FragmentFolder>,
    folded: Vec<FoldedSet>,
    dirty: Vec<bool>,
    store: ExecutionResults,
}

impl<'a> ProbabilityAccumulator<'a> {
    /// Creates an accumulator for `fragments`, validating the plan the same
    /// way [`ProbabilityReconstructor`](super::ProbabilityReconstructor)
    /// does (wire cuts only, feasible strategy). Clbit-free fragments are
    /// pre-folded with their trivial `[1.0]` distribution, so only executed
    /// variants need to arrive.
    ///
    /// # Errors
    ///
    /// * [`CoreError::GateCutNeedsExpectation`] for gate-cut plans.
    /// * [`CoreError::TooManyCuts`] when the configured strategy cannot
    ///   handle the plan.
    pub fn new(
        fragments: &'a FragmentSet,
        options: ReconstructionOptions,
    ) -> Result<Self, CoreError> {
        if fragments.num_gate_cuts() > 0 {
            return Err(CoreError::GateCutNeedsExpectation);
        }
        engine::resolve_strategy(fragments, &options, Workload::Probability)?;
        let mut tensors = Vec::with_capacity(fragments.fragments.len());
        let mut folders = Vec::with_capacity(fragments.fragments.len());
        let mut folded = Vec::with_capacity(fragments.fragments.len());
        for fragment in &fragments.fragments {
            let (mut tensor, mut folder) = FragmentFolder::probability(fragment);
            let mut seen = FoldedSet::new(fragment);
            if fragment.num_clbits == 0 {
                // never executed: fold the constant distribution up front
                for variant in probability_variants(fragment) {
                    tensor.fold_partial(&mut folder, &variant, &engine::TRIVIAL);
                    seen.insert(&variant);
                }
            }
            tensors.push(tensor);
            folders.push(folder);
            folded.push(seen);
        }
        Ok(ProbabilityAccumulator {
            fragments,
            options,
            tensors,
            folders,
            folded,
            dirty: vec![false; fragments.fragments.len()],
            store: ExecutionResults::default(),
        })
    }

    /// Folds a partial batch into the fragment tensors.
    ///
    /// New probability variants fold immediately; a variant seen before is a
    /// shot top-up — its distribution replaces the stored one and only the
    /// owning fragment is marked for re-folding at the next
    /// [`finish`](ProbabilityAccumulator::finish). Variants that belong to
    /// other workloads (expectation bases, gate instances) are skipped, so a
    /// mixed `execute_all` batch streams fine.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidCutSolution`] when a key references a fragment
    /// outside the plan.
    pub fn absorb(&mut self, partial: ExecutionResults) -> Result<(), CoreError> {
        for (key, dist) in partial.iter() {
            let fragment = self.fragments.fragments.get(key.fragment).ok_or_else(|| {
                CoreError::InvalidCutSolution {
                    reason: format!(
                        "streamed batch references fragment {} but the plan has {}",
                        key.fragment,
                        self.fragments.fragments.len()
                    ),
                }
            })?;
            if fragment.num_clbits == 0 || !is_probability_variant(fragment, &key.variant) {
                continue;
            }
            if self.folded[key.fragment].contains(&key.variant) {
                // shot top-up: re-fold only this fragment at finish time
                self.dirty[key.fragment] = true;
            } else {
                self.tensors[key.fragment].fold_partial(
                    &mut self.folders[key.fragment],
                    &key.variant,
                    dist,
                );
                self.folded[key.fragment].insert(&key.variant);
            }
        }
        self.store.extend(partial);
        Ok(())
    }

    /// `(folded, expected)` distinct-variant counts across all fragments —
    /// reconstruction progress while the stream is still running.
    pub fn progress(&self) -> (u64, u64) {
        let folded = self.folded.iter().map(FoldedSet::len).sum();
        (folded, self.folded.iter().map(|set| set.expected).sum())
    }

    /// Everything absorbed so far, merged (latest distribution per key wins).
    pub fn results(&self) -> &ExecutionResults {
        &self.store
    }

    /// Runs the final contraction over the accumulated fragment tensors,
    /// re-folding any fragment dirtied by a shot top-up first.
    ///
    /// Callable repeatedly: absorb more chunks (or top-ups) and finish again
    /// for a refined estimate — only dirty fragments re-fold, the rest of
    /// the tensor work is already done.
    ///
    /// # Errors
    ///
    /// [`CoreError::MissingVariant`] when some fragment's variants have not
    /// all arrived yet.
    pub fn finish(&mut self) -> Result<(Vec<f64>, ReconstructionReport), CoreError> {
        // shot top-ups: rebuild only the touched fragments' tensors
        for index in 0..self.fragments.fragments.len() {
            if !self.dirty[index] {
                continue;
            }
            let fragment = &self.fragments.fragments[index];
            self.tensors[index].clear();
            for variant in probability_variants(fragment) {
                if !self.folded[index].contains(&variant) {
                    continue;
                }
                let key = VariantKey::new(index, variant);
                let dist = self.store.distribution(&key)?;
                self.tensors[index].fold_partial(&mut self.folders[index], &key.variant, dist);
            }
            self.dirty[index] = false;
        }
        for (index, fragment) in self.fragments.fragments.iter().enumerate() {
            if fragment.num_clbits > 0 && !self.folded[index].is_complete() {
                return Err(CoreError::MissingVariant { fragment: index });
            }
        }
        let (strategy, plan) =
            engine::resolve_strategy(self.fragments, &self.options, Workload::Probability)?;
        let mut report = ReconstructionReport {
            strategy,
            prune_tolerance: self.options.prune_tolerance,
            shots_spent: self.store.shots_spent(),
            backends_used: self.store.routing().len(),
            dispatch_failures: self.store.failures(),
            dispatch_retries: self.store.retries(),
            kernel_compile: self.store.kernel_stats().cloned(),
            result_cache: self.store.cache_stats().cloned(),
            ..ReconstructionReport::default()
        };
        // refresh liveness in place (idempotent); only the contract path
        // clones, because normalisation/pruning mutate the tensors it is
        // handed and later absorb/finish cycles still need the originals
        self.tensors.iter_mut().for_each(engine::CutTensor::refresh_active);
        let probabilities = match strategy {
            ReconstructionStrategy::Contract => engine::contract_probabilities_from_tensors(
                self.fragments,
                self.tensors.clone(),
                &plan,
                self.options.prune_tolerance,
                &mut report,
            ),
            _ => engine::dense_probabilities(self.fragments, &self.tensors),
        };
        Ok((probabilities, report))
    }
}

/// Whether `variant` is one of a term's enumerated expectation variants for
/// `fragment` (matching slot counts, the term's precomputed normalised
/// output bases, gate instances in range). Scheduled batches may interleave
/// probability or other-term variants; each term folds only its own.
fn is_expectation_variant(
    fragment: &Fragment,
    normalized_bases: &[Pauli],
    variant: &FragmentVariant,
) -> bool {
    variant.init_states.len() == fragment.incoming_cuts.len()
        && variant.cut_bases.len() == fragment.outgoing_cuts.len()
        && variant.gate_instances.len() == fragment.gate_cut_roles.len()
        && variant.gate_instances.iter().all(|i| (1..=6).contains(i))
        && variant.output_bases == normalized_bases
}

/// Per-Pauli-term folding state of an [`ExpectationAccumulator`]: one scalar
/// cut tensor per fragment, plus the bookkeeping that makes shot top-ups
/// re-fold only the touched fragment.
#[derive(Debug, Clone)]
struct TermState {
    coefficient: f64,
    string: PauliString,
    /// X/Y on an idle wire: the term is identically zero and never folds.
    vanishes: bool,
    /// Per fragment, the term's normalised output bases — precomputed once
    /// so the absorb hot path compares without re-deriving them per key.
    normalized_bases: Vec<Vec<Pauli>>,
    tensors: Vec<engine::CutTensor>,
    folders: Vec<ExpectationFolder>,
    folded: Vec<FoldedSet>,
    dirty: Vec<bool>,
}

/// Incremental expectation-value reconstruction over streamed
/// [`ExecutionResults`] chunks — the expectation counterpart of
/// [`ProbabilityAccumulator`], for wire- **and** gate-cut plans.
///
/// Every chunk absorbed folds each contained variant into the scalar cut
/// tensor of every Pauli term it serves (terms sharing a measurement-basis
/// signature are served by the same executed circuit, so one arriving
/// distribution may fold into several tensors), and
/// [`finish`](ExpectationAccumulator::finish) runs only the per-term final
/// contraction, summing `Σ coefficient · ⟨term⟩`.
///
/// ```text
/// let mut acc = ExpectationAccumulator::new(fragments, &observable, options)?;
/// for chunk in scheduler_chunks {   // arrives while devices still run
///     acc.absorb(chunk)?;           // folds per-Pauli scalar tensors now
/// }
/// let (expectation, report) = acc.finish()?;  // contraction only
/// ```
#[derive(Debug, Clone)]
pub struct ExpectationAccumulator<'a> {
    fragments: &'a FragmentSet,
    options: ReconstructionOptions,
    terms: Vec<TermState>,
    store: ExecutionResults,
}

impl<'a> ExpectationAccumulator<'a> {
    /// Creates an accumulator for every Pauli term of `observable`,
    /// validating the plan the same way
    /// [`ExpectationReconstructor`](super::ExpectationReconstructor) does.
    /// Clbit-free fragments are pre-folded with their trivial `[1.0]`
    /// distribution, so only executed variants need to arrive.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidCutSolution`] when the observable width does
    ///   not match the original circuit.
    /// * [`CoreError::TooManyCuts`] when the configured strategy cannot
    ///   handle the plan.
    pub fn new(
        fragments: &'a FragmentSet,
        observable: &PauliObservable,
        options: ReconstructionOptions,
    ) -> Result<Self, CoreError> {
        if observable.num_qubits() != fragments.original_qubits {
            return Err(CoreError::InvalidCutSolution {
                reason: format!(
                    "observable acts on {} qubits but the circuit has {}",
                    observable.num_qubits(),
                    fragments.original_qubits
                ),
            });
        }
        engine::resolve_strategy(fragments, &options, Workload::Expectation)?;
        let mut terms = Vec::with_capacity(observable.terms().len());
        for (coefficient, string) in observable.terms() {
            let vanishes = vanishes_on_idle_wires(fragments, string);
            let mut normalized_bases = Vec::new();
            let mut tensors = Vec::new();
            let mut folders = Vec::new();
            let mut folded = Vec::new();
            if !vanishes {
                for fragment in &fragments.fragments {
                    let (mut tensor, mut folder) = ExpectationFolder::expectation(fragment, string);
                    normalized_bases.push(normalized_output_bases(fragment, string));
                    let mut seen = FoldedSet::new(fragment);
                    if fragment.num_clbits == 0 {
                        // never executed: fold the constant distribution now
                        for variant in expectation_variants(fragment, string) {
                            tensor.fold_expectation_partial(
                                &mut folder,
                                &variant,
                                &engine::TRIVIAL,
                            );
                            seen.insert(&variant);
                        }
                    }
                    tensors.push(tensor);
                    folders.push(folder);
                    folded.push(seen);
                }
            }
            let dirty = vec![false; tensors.len()];
            terms.push(TermState {
                coefficient: *coefficient,
                string: string.clone(),
                vanishes,
                normalized_bases,
                tensors,
                folders,
                folded,
                dirty,
            });
        }
        Ok(ExpectationAccumulator { fragments, options, terms, store: ExecutionResults::default() })
    }

    /// Folds a partial batch into every term's fragment tensors.
    ///
    /// New variants fold immediately into each term whose enumeration
    /// contains them; a variant seen before is a shot top-up — its
    /// distribution replaces the stored one and only the owning fragment of
    /// the affected terms is marked for re-folding at the next
    /// [`finish`](ExpectationAccumulator::finish). Variants that belong to
    /// other workloads (probability variants on gate-cut-free plans, other
    /// observables' bases) are skipped, so a mixed `execute_all` batch
    /// streams fine.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidCutSolution`] when a key references a fragment
    /// outside the plan.
    pub fn absorb(&mut self, partial: ExecutionResults) -> Result<(), CoreError> {
        for (key, dist) in partial.iter() {
            let fragment = self.fragments.fragments.get(key.fragment).ok_or_else(|| {
                CoreError::InvalidCutSolution {
                    reason: format!(
                        "streamed batch references fragment {} but the plan has {}",
                        key.fragment,
                        self.fragments.fragments.len()
                    ),
                }
            })?;
            if fragment.num_clbits == 0 {
                continue;
            }
            for term in &mut self.terms {
                if term.vanishes
                    || !is_expectation_variant(
                        fragment,
                        &term.normalized_bases[key.fragment],
                        &key.variant,
                    )
                {
                    continue;
                }
                if term.folded[key.fragment].contains(&key.variant) {
                    // shot top-up: re-fold only this fragment at finish time
                    term.dirty[key.fragment] = true;
                } else {
                    term.tensors[key.fragment].fold_expectation_partial(
                        &mut term.folders[key.fragment],
                        &key.variant,
                        dist,
                    );
                    term.folded[key.fragment].insert(&key.variant);
                }
            }
        }
        self.store.extend(partial);
        Ok(())
    }

    /// `(folded, expected)` distinct variant-fold counts summed over all
    /// terms and fragments — reconstruction progress while the stream is
    /// still running. Terms sharing basis signatures fold the same executed
    /// variant once per term, so both counts scale with the term count.
    pub fn progress(&self) -> (u64, u64) {
        let sets = || self.terms.iter().flat_map(|term| &term.folded);
        (sets().map(FoldedSet::len).sum(), sets().map(|set| set.expected).sum())
    }

    /// Everything absorbed so far, merged (latest distribution per key wins).
    pub fn results(&self) -> &ExecutionResults {
        &self.store
    }

    /// Runs the final per-term contraction over the accumulated scalar
    /// tensors and sums the observable, re-folding any fragment dirtied by a
    /// shot top-up first.
    ///
    /// Callable repeatedly: absorb more chunks (or top-ups) and finish again
    /// for a refined estimate — only dirty fragments re-fold.
    ///
    /// # Errors
    ///
    /// [`CoreError::MissingVariant`] when some term still lacks variants of
    /// some fragment.
    pub fn finish(&mut self) -> Result<(f64, ReconstructionReport), CoreError> {
        let (strategy, plan) =
            engine::resolve_strategy(self.fragments, &self.options, Workload::Expectation)?;
        let mut report = ReconstructionReport {
            strategy,
            prune_tolerance: self.options.prune_tolerance,
            shots_spent: self.store.shots_spent(),
            backends_used: self.store.routing().len(),
            dispatch_failures: self.store.failures(),
            dispatch_retries: self.store.retries(),
            kernel_compile: self.store.kernel_stats().cloned(),
            result_cache: self.store.cache_stats().cloned(),
            ..ReconstructionReport::default()
        };
        let mut total = 0.0;
        for term in &mut self.terms {
            if term.vanishes {
                continue;
            }
            // shot top-ups: rebuild only the touched fragments' tensors
            for index in 0..self.fragments.fragments.len() {
                if !term.dirty[index] {
                    continue;
                }
                let fragment = &self.fragments.fragments[index];
                term.tensors[index].clear();
                for variant in expectation_variants(fragment, &term.string) {
                    if !term.folded[index].contains(&variant) {
                        continue;
                    }
                    let key = VariantKey::new(index, variant);
                    let dist = self.store.distribution(&key)?;
                    term.tensors[index].fold_expectation_partial(
                        &mut term.folders[index],
                        &key.variant,
                        dist,
                    );
                }
                term.dirty[index] = false;
            }
            for (index, fragment) in self.fragments.fragments.iter().enumerate() {
                if fragment.num_clbits > 0 && !term.folded[index].is_complete() {
                    return Err(CoreError::MissingVariant { fragment: index });
                }
            }
            // refresh liveness in place (idempotent); the contract path gets
            // clones because normalisation/pruning mutate the tensors it is
            // handed and later absorb/finish cycles still need the originals
            term.tensors.iter_mut().for_each(engine::CutTensor::refresh_active);
            let value = match strategy {
                ReconstructionStrategy::Contract => engine::contract_expectation_from_tensors(
                    self.fragments,
                    term.tensors.clone(),
                    &plan,
                    self.options.prune_tolerance,
                    &mut report,
                ),
                _ => engine::dense_expectation(self.fragments, &term.tensors),
            };
            total += term.coefficient * value;
        }
        Ok((total, report))
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
    use qrcc_sim::StateVector;
    use std::time::Duration;

    fn plan_fragments(circuit: &Circuit, device: usize) -> FragmentSet {
        let config =
            QrccConfig::new(device).with_subcircuit_range(2, 3).with_ilp_time_limit(Duration::ZERO);
        let plan = CutPlanner::new(config).plan(circuit).unwrap();
        FragmentSet::from_plan(&plan).unwrap()
    }

    #[test]
    fn chunked_absorption_matches_one_shot_reconstruction() {
        let mut c = Circuit::new(4);
        c.h(0).ry(0.7, 1).cx(0, 1).rz(0.3, 1).cx(1, 2).t(2).cx(2, 3).rx(1.1, 3);
        let fragments = plan_fragments(&c, 3);
        let reconstructor = ProbabilityReconstructor::new();
        let requests = reconstructor.requests(&fragments).unwrap();
        let backend = ExactBackend::new();

        // execute the batch in three separate chunks of requests
        let third = requests.len() / 3;
        let mut acc =
            ProbabilityAccumulator::new(&fragments, ReconstructionOptions::default()).unwrap();
        for chunk in requests.chunks(third.max(1)) {
            let partial = execute_requests(&fragments, chunk, &backend).unwrap();
            acc.absorb(partial).unwrap();
        }
        let (folded, expected) = acc.progress();
        assert_eq!(folded, expected, "all variants absorbed");
        let (streamed, report) = acc.finish().unwrap();
        assert_ne!(report.strategy, ReconstructionStrategy::Auto);

        let exact = StateVector::from_circuit(&c).unwrap().probabilities();
        for (a, b) in exact.iter().zip(&streamed) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn incomplete_stream_reports_missing_variants() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
        let fragments = plan_fragments(&c, 3);
        let requests = ProbabilityReconstructor::new().requests(&fragments).unwrap();
        let backend = ExactBackend::new();
        let mut acc =
            ProbabilityAccumulator::new(&fragments, ReconstructionOptions::default()).unwrap();
        // absorb only the first half of the variants
        let partial =
            execute_requests(&fragments, &requests[..requests.len() / 2], &backend).unwrap();
        acc.absorb(partial).unwrap();
        assert!(matches!(acc.finish(), Err(CoreError::MissingVariant { .. })));
    }

    #[test]
    fn shot_top_up_refolds_only_the_touched_fragment() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).ry(0.4, 2).cx(1, 2).cx(2, 3);
        let fragments = plan_fragments(&c, 3);
        let requests = ProbabilityReconstructor::new().requests(&fragments).unwrap();
        let backend = ExactBackend::new();
        let full = execute_requests(&fragments, &requests, &backend).unwrap();

        let mut acc =
            ProbabilityAccumulator::new(&fragments, ReconstructionOptions::default()).unwrap();
        acc.absorb(full.clone()).unwrap();
        let (first, _) = acc.finish().unwrap();

        // re-deliver the variants of fragment 0 (identical distributions):
        // a top-up that must dirty exactly that fragment and change nothing
        let fragment0: Vec<_> = requests.iter().filter(|r| r.key.fragment == 0).cloned().collect();
        let topup = execute_requests(&fragments, &fragment0, &backend).unwrap();
        acc.absorb(topup).unwrap();
        assert!(acc.dirty[0]);
        assert!(acc.dirty[1..].iter().all(|&d| !d));
        let (second, _) = acc.finish().unwrap();
        for (a, b) in first.iter().zip(&second) {
            assert!((a - b).abs() < 1e-12, "identical top-up must not change the result");
        }
    }

    fn mixed_cut_fragments() -> (Circuit, FragmentSet) {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).ry(0.4, 1).h(2).cx(2, 3).rz(0.7, 3).rzz(0.9, 1, 2).rx(0.3, 1).ry(0.2, 2);
        let config = QrccConfig::new(2)
            .with_subcircuit_range(2, 2)
            .with_gate_cuts(true)
            .with_max_wire_cuts(0)
            .with_ilp_time_limit(Duration::ZERO);
        let plan = CutPlanner::new(config).plan(&c).unwrap();
        let fragments = FragmentSet::from_plan(&plan).unwrap();
        (c, fragments)
    }

    fn test_observable() -> qrcc_circuit::observable::PauliObservable {
        use qrcc_circuit::observable::{PauliObservable, PauliString};
        let mut obs = PauliObservable::new(4);
        obs.add_term(1.0, PauliString::zz(4, 1, 2));
        obs.add_term(0.5, PauliString::z(4, 0));
        obs.add_term(-0.25, PauliString::x(4, 3));
        obs
    }

    #[test]
    fn chunked_expectation_absorption_matches_one_shot_reconstruction() {
        let (c, fragments) = mixed_cut_fragments();
        assert!(fragments.num_gate_cuts() > 0, "the plan must exercise gate cuts");
        let observable = test_observable();
        let reconstructor = crate::reconstruct::ExpectationReconstructor::new();
        let requests = reconstructor.requests(&fragments, &observable).unwrap();
        let backend = ExactBackend::new();

        let mut acc =
            ExpectationAccumulator::new(&fragments, &observable, ReconstructionOptions::default())
                .unwrap();
        let third = (requests.len() / 3).max(1);
        for chunk in requests.chunks(third) {
            let partial = execute_requests(&fragments, chunk, &backend).unwrap();
            acc.absorb(partial).unwrap();
        }
        let (folded, expected) = acc.progress();
        assert_eq!(folded, expected, "all variants absorbed for every term");
        let (streamed, report) = acc.finish().unwrap();
        assert_ne!(report.strategy, ReconstructionStrategy::Auto);

        // one-shot reference and exact state vector agree with the stream
        let full = execute_requests(&fragments, &requests, &backend).unwrap();
        let blocking = reconstructor.reconstruct(&fragments, &full, &observable).unwrap();
        let exact = StateVector::from_circuit(&c).unwrap().expectation(&observable);
        assert!((streamed - blocking).abs() < 1e-9, "{streamed} vs blocking {blocking}");
        assert!((streamed - exact).abs() < 1e-6, "{streamed} vs exact {exact}");
    }

    #[test]
    fn incomplete_expectation_stream_reports_missing_variants() {
        let (_, fragments) = mixed_cut_fragments();
        let observable = test_observable();
        let requests = crate::reconstruct::ExpectationReconstructor::new()
            .requests(&fragments, &observable)
            .unwrap();
        let backend = ExactBackend::new();
        let mut acc =
            ExpectationAccumulator::new(&fragments, &observable, ReconstructionOptions::default())
                .unwrap();
        let partial =
            execute_requests(&fragments, &requests[..requests.len() / 2], &backend).unwrap();
        acc.absorb(partial).unwrap();
        assert!(matches!(acc.finish(), Err(CoreError::MissingVariant { .. })));
    }

    #[test]
    fn expectation_top_up_refolds_only_the_touched_fragment() {
        let (_, fragments) = mixed_cut_fragments();
        let observable = test_observable();
        let requests = crate::reconstruct::ExpectationReconstructor::new()
            .requests(&fragments, &observable)
            .unwrap();
        let backend = ExactBackend::new();
        let full = execute_requests(&fragments, &requests, &backend).unwrap();

        let mut acc =
            ExpectationAccumulator::new(&fragments, &observable, ReconstructionOptions::default())
                .unwrap();
        acc.absorb(full.clone()).unwrap();
        let (first, _) = acc.finish().unwrap();

        // re-deliver fragment 0's variants (identical distributions): every
        // term folding them must dirty exactly that fragment
        let fragment0: Vec<_> = requests.iter().filter(|r| r.key.fragment == 0).cloned().collect();
        let topup = execute_requests(&fragments, &fragment0, &backend).unwrap();
        acc.absorb(topup).unwrap();
        for term in &acc.terms {
            if term.vanishes {
                continue;
            }
            assert!(term.dirty[0], "fragment 0 must be dirty for every folded term");
            assert!(term.dirty[1..].iter().all(|&d| !d));
        }
        let (second, _) = acc.finish().unwrap();
        assert!((first - second).abs() < 1e-12, "identical top-up must not change the result");
    }

    #[test]
    fn expectation_accumulator_rejects_width_mismatch() {
        let (_, fragments) = mixed_cut_fragments();
        let wrong = qrcc_circuit::observable::PauliObservable::all_z(7);
        assert!(matches!(
            ExpectationAccumulator::new(&fragments, &wrong, ReconstructionOptions::default()),
            Err(CoreError::InvalidCutSolution { .. })
        ));
    }

    #[test]
    fn gate_cut_plans_are_rejected_up_front() {
        let mut c = Circuit::new(4);
        c.h(0).rzz(0.4, 0, 1).rzz(0.9, 1, 2).rzz(0.2, 2, 3);
        let config = QrccConfig::new(3)
            .with_subcircuit_range(2, 2)
            .with_gate_cuts(true)
            .with_max_wire_cuts(0)
            .with_ilp_time_limit(Duration::ZERO);
        let plan = CutPlanner::new(config).plan(&c).unwrap();
        let fragments = FragmentSet::from_plan(&plan).unwrap();
        if fragments.num_gate_cuts() == 0 {
            return;
        }
        assert!(matches!(
            ProbabilityAccumulator::new(&fragments, ReconstructionOptions::default()),
            Err(CoreError::GateCutNeedsExpectation)
        ));
    }
}
