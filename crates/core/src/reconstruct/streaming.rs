//! The one fold-and-contract path. Every reconstruction, streamed or
//! blocking, folds executed variants into per-fragment cut tensors through a
//! [`ProbabilityAccumulator`] or an [`ExpectationAccumulator`] and then
//! contracts them.
//!
//! * **Streaming.** The accumulators are the consume-phase counterparts of
//!   the chunked [`Scheduler`](crate::schedule::Scheduler). Every
//!   [`ExecutionResults`] chunk they `absorb` folds into the owning
//!   fragment's cut tensor at once (the expectation accumulator keeps one
//!   scalar tensor per fragment per Pauli term), so `finish` runs only the
//!   final contraction: the dense loop or pairwise contraction.
//! * **Blocking.** `ProbabilityReconstructor::reconstruct` and
//!   `ExpectationReconstructor::reconstruct` fold the borrowed batch as one
//!   chunk and finish, so they equal a one-chunk stream bit for bit.
//! * **Canonical order.** Within a batch, variants fold sorted by
//!   `(fragment, ordinal)`. The ordinal is the variant's mixed-radix index
//!   (gate instances ×6, init states ×4, cut bases ×3). The sums thus round
//!   the same whatever order the batch's `HashMap` iterates in: the answer
//!   depends only on the delivered distributions and the chunk boundaries.
//! * **Shot top-ups.** Re-delivering a variant that was already folded (a
//!   higher-shot estimate replacing its distribution) marks just the owning
//!   fragment dirty. The next `finish` re-folds that fragment from the merged
//!   store, in the same canonical order, before re-contracting.

use super::engine::{
    self, expectation_variants, normalized_output_bases, probability_variants, ContractionPlan,
    CutTensor, ExpectationFolder, FragmentFolder, ReconstructionOptions, ReconstructionReport,
    ReconstructionStrategy, Workload,
};
use super::expectation::{self, vanishes_on_idle_wires};
use crate::execute::ExecutionResults;
use crate::fragment::{Fragment, FragmentSet, FragmentVariant};
use crate::CoreError;
use qrcc_circuit::observable::{Pauli, PauliObservable};

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

    /// Ordinal of a variant whose shape was already checked against the
    /// fragment ([`fits`]).
    fn ordinal(variant: &FragmentVariant) -> usize {
        let ordinal = variant.gate_instances.iter().fold(0, |acc, &g| acc * 6 + (g - 1));
        let ordinal = variant.init_states.iter().fold(ordinal, |acc, &s| acc * 4 + s as usize);
        variant.cut_bases.iter().fold(ordinal, |acc, &b| acc * 3 + b as usize)
    }

    fn contains(&self, ordinal: usize) -> bool {
        self.bits[ordinal / 64] >> (ordinal % 64) & 1 == 1
    }

    fn insert(&mut self, ordinal: usize) {
        self.bits[ordinal / 64] |= 1 << (ordinal % 64);
    }

    fn len(&self) -> u64 {
        self.bits.iter().map(|word| u64::from(word.count_ones())).sum()
    }

    fn is_complete(&self) -> bool {
        self.len() == self.expected
    }
}

/// Whether `variant` has `fragment`'s slot counts and in-range gate
/// instances: the shape every ordinal assumes.
fn fits(fragment: &Fragment, variant: &FragmentVariant) -> bool {
    variant.init_states.len() == fragment.incoming_cuts.len()
        && variant.cut_bases.len() == fragment.outgoing_cuts.len()
        && variant.gate_instances.len() == fragment.gate_cut_roles.len()
        && variant.gate_instances.iter().all(|i| (1..=6).contains(i))
}

/// One executed variant of a batch, placed in the canonical fold order.
struct Entry<'b> {
    fragment: usize,
    ordinal: usize,
    variant: &'b FragmentVariant,
    dist: &'b [f64],
}

/// The entries of `batch` to fold (every fragment's, or only fragment
/// `only`'s), sorted by `(fragment, ordinal)`. Keys on clbit-free fragments
/// or of a foreign shape are dropped before their ordinal is computed. Ties
/// (one ordinal, different output bases) cannot change a sum: a fold target
/// accepts a single output basis per fragment.
///
/// # Errors
///
/// [`CoreError::InvalidCutSolution`] when a key references a fragment
/// outside the plan.
fn canonical_entries<'b>(
    fragments: &FragmentSet,
    batch: &'b ExecutionResults,
    only: Option<usize>,
) -> Result<Vec<Entry<'b>>, CoreError> {
    let mut entries = Vec::with_capacity(batch.unique_variants());
    for (key, dist) in batch.iter() {
        if only.is_some_and(|index| index != key.fragment) {
            continue;
        }
        let fragment =
            fragments.fragments.get(key.fragment).ok_or_else(|| CoreError::InvalidCutSolution {
                reason: format!(
                    "streamed batch references fragment {} but the plan has {}",
                    key.fragment,
                    fragments.fragments.len()
                ),
            })?;
        if fragment.num_clbits > 0 && fits(fragment, &key.variant) {
            let ordinal = FoldedSet::ordinal(&key.variant);
            entries.push(Entry { fragment: key.fragment, ordinal, variant: &key.variant, dist });
        }
    }
    entries.sort_unstable_by_key(|entry| (entry.fragment, entry.ordinal));
    Ok(entries)
}

/// The per-variant fold of one workload's cut tensors.
trait Fold {
    fn fold(&mut self, tensor: &mut CutTensor, variant: &FragmentVariant, dist: &[f64]);
}

impl Fold for FragmentFolder {
    fn fold(&mut self, tensor: &mut CutTensor, variant: &FragmentVariant, dist: &[f64]) {
        tensor.fold_partial(self, variant, dist);
    }
}

impl Fold for ExpectationFolder {
    fn fold(&mut self, tensor: &mut CutTensor, variant: &FragmentVariant, dist: &[f64]) {
        tensor.fold_expectation_partial(self, variant, dist);
    }
}

/// What an accumulator folds into (the probability vector, or one Pauli
/// term of an observable): a cut tensor per fragment, the output bases its
/// variants carry, and the bookkeeping that lets a shot top-up re-fold only
/// the touched fragment.
#[derive(Debug, Clone)]
struct Target<F> {
    bases: Vec<Vec<Pauli>>,
    tensors: Vec<CutTensor>,
    folders: Vec<F>,
    folded: Vec<FoldedSet>,
    dirty: Vec<bool>,
}

impl<F: Fold> Target<F> {
    /// An empty target: `start` gives each fragment's empty tensor, folder
    /// and output bases. A clbit-free fragment never executes, so its
    /// `variants` fold with the constant `[1.0]` distribution up front.
    fn new(
        fragments: &FragmentSet,
        start: impl Fn(&Fragment) -> (CutTensor, F, Vec<Pauli>),
        variants: impl Fn(&Fragment) -> Vec<FragmentVariant>,
    ) -> Self {
        let count = fragments.fragments.len();
        let mut target = Target {
            bases: Vec::with_capacity(count),
            tensors: Vec::with_capacity(count),
            folders: Vec::with_capacity(count),
            folded: Vec::with_capacity(count),
            dirty: vec![false; count],
        };
        for fragment in &fragments.fragments {
            let (mut tensor, mut folder, bases) = start(fragment);
            let mut folded = FoldedSet::new(fragment);
            if fragment.num_clbits == 0 {
                for variant in variants(fragment) {
                    folder.fold(&mut tensor, &variant, &engine::TRIVIAL);
                    folded.insert(FoldedSet::ordinal(&variant));
                }
            }
            target.bases.push(bases);
            target.tensors.push(tensor);
            target.folders.push(folder);
            target.folded.push(folded);
        }
        target
    }

    /// Folds `entry` if it is one of this target's variants; a variant seen
    /// before is a shot top-up and marks its fragment for re-folding.
    fn offer(&mut self, entry: &Entry<'_>) {
        let index = entry.fragment;
        if entry.variant.output_bases != self.bases[index] {
            return;
        }
        if self.folded[index].contains(entry.ordinal) {
            self.dirty[index] = true;
        } else {
            self.folders[index].fold(&mut self.tensors[index], entry.variant, entry.dist);
            self.folded[index].insert(entry.ordinal);
        }
    }

    /// Readies the tensors for contraction: re-folds every dirty fragment
    /// from `store` in canonical order, checks that every fragment is
    /// complete, and refreshes liveness in place (idempotent).
    ///
    /// # Errors
    ///
    /// [`CoreError::MissingVariant`] when some fragment's variants have not
    /// all arrived yet.
    fn settle(
        &mut self,
        fragments: &FragmentSet,
        store: &ExecutionResults,
    ) -> Result<(), CoreError> {
        for (index, fragment) in fragments.fragments.iter().enumerate() {
            if self.dirty[index] {
                self.tensors[index].clear();
                self.folded[index] = FoldedSet::new(fragment);
                self.dirty[index] = false;
                for entry in canonical_entries(fragments, store, Some(index))? {
                    self.offer(&entry);
                }
            }
            if fragment.num_clbits > 0 && !self.folded[index].is_complete() {
                return Err(CoreError::MissingVariant { fragment: index });
            }
        }
        self.tensors.iter_mut().for_each(CutTensor::refresh_active);
        Ok(())
    }

    /// `(folded, expected)` distinct-variant counts over the fragments.
    fn progress(&self) -> (u64, u64) {
        let folded = self.folded.iter().map(FoldedSet::len).sum();
        (folded, self.folded.iter().map(|set| set.expected).sum())
    }
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
    strategy: ReconstructionStrategy,
    plan: ContractionPlan,
    target: Target<FragmentFolder>,
    store: ExecutionResults,
}

impl<'a> ProbabilityAccumulator<'a> {
    /// Creates an accumulator for `fragments`, validating the plan (wire
    /// cuts only, feasible strategy) and resolving the strategy once.
    /// Clbit-free fragments are pre-folded with their trivial `[1.0]`
    /// distribution, so only executed variants need to arrive.
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
        let (strategy, plan) =
            engine::resolve_strategy(fragments, &options, Workload::Probability)?;
        let target = Target::new(
            fragments,
            |fragment| {
                let (tensor, folder) = FragmentFolder::probability(fragment);
                (tensor, folder, vec![Pauli::Z; fragment.output_clbits.len()])
            },
            |fragment| probability_variants(fragment).collect(),
        );
        Ok(ProbabilityAccumulator {
            fragments,
            options,
            strategy,
            plan,
            target,
            store: ExecutionResults::default(),
        })
    }

    /// Folds a partial batch into the fragment tensors, in canonical order.
    ///
    /// New probability variants fold immediately; a variant seen before is a
    /// shot top-up — its distribution replaces the stored one and only the
    /// owning fragment is marked for re-folding at the next
    /// [`finish`](ProbabilityAccumulator::finish). Variants that belong to
    /// other workloads (expectation bases, gate instances) are skipped, so a
    /// batch shared between workloads streams fine.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidCutSolution`] when a key references a fragment
    /// outside the plan; nothing of the batch is folded then.
    pub fn absorb(&mut self, partial: ExecutionResults) -> Result<(), CoreError> {
        self.fold(&partial)?;
        self.store.extend(partial);
        Ok(())
    }

    fn fold(&mut self, batch: &ExecutionResults) -> Result<(), CoreError> {
        for entry in canonical_entries(self.fragments, batch, None)? {
            self.target.offer(&entry);
        }
        Ok(())
    }

    /// `(folded, expected)` distinct-variant counts across all fragments —
    /// reconstruction progress while the stream is still running.
    pub fn progress(&self) -> (u64, u64) {
        self.target.progress()
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
        self.target.settle(self.fragments, &self.store)?;
        Ok(self.contract())
    }

    /// The blocking reconstruction: `batch` folds as one borrowed chunk,
    /// then contracts.
    pub(super) fn reconstruct(
        mut self,
        batch: &ExecutionResults,
    ) -> Result<(Vec<f64>, ReconstructionReport), CoreError> {
        self.fold(batch)?;
        self.target.settle(self.fragments, batch)?;
        Ok(self.contract())
    }

    /// Contracts the settled tensors. Only the contract path clones, because
    /// normalisation and pruning mutate the tensors it is handed and later
    /// absorb/finish cycles still need the originals.
    fn contract(&self) -> (Vec<f64>, ReconstructionReport) {
        let mut report = ReconstructionReport::new(self.strategy, &self.options);
        let probabilities = match self.strategy {
            ReconstructionStrategy::Contract => engine::contract_probabilities_from_tensors(
                self.fragments,
                self.target.tensors.clone(),
                &self.plan,
                self.options.prune_tolerance,
                &mut report,
            ),
            _ => engine::dense_probabilities(self.fragments, &self.target.tensors),
        };
        (probabilities, report)
    }
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
    strategy: ReconstructionStrategy,
    plan: ContractionPlan,
    /// Coefficient and fold target of every Pauli term that can contribute;
    /// a term with X or Y on an idle wire is identically zero and never
    /// folds.
    terms: Vec<(f64, Target<ExpectationFolder>)>,
    store: ExecutionResults,
}

impl<'a> ExpectationAccumulator<'a> {
    /// Creates an accumulator for every Pauli term of `observable`,
    /// validating the plan and resolving the strategy once. Clbit-free
    /// fragments are pre-folded with their trivial `[1.0]` distribution, so
    /// only executed variants need to arrive.
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
        let (strategy, plan) = expectation::resolve(fragments, observable, &options)?;
        let terms = observable
            .terms()
            .iter()
            .filter(|(_, string)| !vanishes_on_idle_wires(fragments, string))
            .map(|(coefficient, string)| {
                let target = Target::new(
                    fragments,
                    |fragment| {
                        let (tensor, folder) = ExpectationFolder::expectation(fragment, string);
                        (tensor, folder, normalized_output_bases(fragment, string))
                    },
                    |fragment| expectation_variants(fragment, string).collect(),
                );
                (*coefficient, target)
            })
            .collect();
        Ok(ExpectationAccumulator {
            fragments,
            options,
            strategy,
            plan,
            terms,
            store: ExecutionResults::default(),
        })
    }

    /// Folds a partial batch into every term's fragment tensors, in
    /// canonical order.
    ///
    /// New variants fold immediately into each term whose enumeration
    /// contains them; a variant seen before is a shot top-up — its
    /// distribution replaces the stored one and only the owning fragment of
    /// the affected terms is marked for re-folding at the next
    /// [`finish`](ExpectationAccumulator::finish). Variants that belong to
    /// other workloads (probability variants on gate-cut-free plans, other
    /// observables' bases) are skipped, so a batch shared between workloads
    /// streams fine.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidCutSolution`] when a key references a fragment
    /// outside the plan; nothing of the batch is folded then.
    pub fn absorb(&mut self, partial: ExecutionResults) -> Result<(), CoreError> {
        self.fold(&partial)?;
        self.store.extend(partial);
        Ok(())
    }

    fn fold(&mut self, batch: &ExecutionResults) -> Result<(), CoreError> {
        for entry in canonical_entries(self.fragments, batch, None)? {
            for (_, term) in &mut self.terms {
                term.offer(&entry);
            }
        }
        Ok(())
    }

    /// `(folded, expected)` distinct variant-fold counts summed over all
    /// terms and fragments — reconstruction progress while the stream is
    /// still running. Terms sharing basis signatures fold the same executed
    /// variant once per term, so both counts scale with the term count.
    pub fn progress(&self) -> (u64, u64) {
        self.terms
            .iter()
            .map(|(_, term)| term.progress())
            .fold((0, 0), |(f, e), (tf, te)| (f + tf, e + te))
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
        for (_, term) in &mut self.terms {
            term.settle(self.fragments, &self.store)?;
        }
        Ok(self.contract())
    }

    /// The blocking reconstruction: `batch` folds as one borrowed chunk,
    /// then contracts.
    pub(super) fn reconstruct(
        mut self,
        batch: &ExecutionResults,
    ) -> Result<(f64, ReconstructionReport), CoreError> {
        self.fold(batch)?;
        for (_, term) in &mut self.terms {
            term.settle(self.fragments, batch)?;
        }
        Ok(self.contract())
    }

    /// Contracts every term's settled tensors and sums the observable. The
    /// contract path gets clones for the same reason as
    /// [`ProbabilityAccumulator`]'s.
    fn contract(&self) -> (f64, ReconstructionReport) {
        let mut report = ReconstructionReport::new(self.strategy, &self.options);
        let mut total = 0.0;
        for (coefficient, term) in &self.terms {
            let value = match self.strategy {
                ReconstructionStrategy::Contract => engine::contract_expectation_from_tensors(
                    self.fragments,
                    term.tensors.clone(),
                    &self.plan,
                    self.options.prune_tolerance,
                    &mut report,
                ),
                _ => engine::dense_expectation(self.fragments, &term.tensors),
            };
            total += coefficient * value;
        }
        (total, report)
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
        assert!(acc.target.dirty[0]);
        assert!(acc.target.dirty[1..].iter().all(|&d| !d));
        let (second, _) = acc.finish().unwrap();
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.to_bits(), b.to_bits(), "identical top-up must not change the result");
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
        for (_, term) in &acc.terms {
            assert!(term.dirty[0], "fragment 0 must be dirty for every folded term");
            assert!(term.dirty[1..].iter().all(|&d| !d));
        }
        let (second, _) = acc.finish().unwrap();
        assert_eq!(
            first.to_bits(),
            second.to_bits(),
            "identical top-up must not change the result"
        );
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

    /// An 8-qubit ry/rx/cx ladder planned for a 6-qubit device. Rotations on
    /// every wire keep the |+⟩/|+i⟩ rows off the |0⟩/|1⟩ mean, so two fold
    /// orders round differently unless the accumulator fixes one.
    fn rotated_ladder() -> FragmentSet {
        let mut c = Circuit::new(8);
        for q in 0..8 {
            c.ry(0.3 + 0.21 * q as f64, q);
        }
        for q in 0..7 {
            c.cx(q, q + 1).rx(0.4 + 0.13 * q as f64, q + 1).ry(0.9 - 0.07 * q as f64, q);
        }
        let config = QrccConfig::new(6)
            .with_subcircuit_range(4, 4)
            .with_qubit_reuse(false)
            .with_ilp_time_limit(Duration::ZERO);
        FragmentSet::from_plan(&CutPlanner::new(config).plan(&c).unwrap()).unwrap()
    }

    /// `results` re-inserted into a fresh batch in reverse iteration order:
    /// the same distributions in another `HashMap` layout.
    fn reinserted(results: &ExecutionResults) -> ExecutionResults {
        let entries: Vec<_> = results.iter().collect();
        let mut rebuilt = ExecutionResults::default();
        for (key, dist) in entries.into_iter().rev() {
            rebuilt.insert(key.clone(), dist.to_vec());
        }
        rebuilt
    }

    #[test]
    fn fold_order_does_not_depend_on_batch_insertion_order() {
        use qrcc_circuit::observable::PauliString;
        let fragments = rotated_ladder();
        assert!(fragments.num_wire_cuts() >= 2, "{} cuts", fragments.num_wire_cuts());
        let mut observable = PauliObservable::new(8);
        observable.add_term(1.0, PauliString::zz(8, 5, 6));
        observable.add_term(-0.5, PauliString::zz(8, 1, 3));
        let options = ReconstructionOptions::default();
        let mut requests = ProbabilityReconstructor::new().requests(&fragments).unwrap();
        requests.extend(
            crate::reconstruct::ExpectationReconstructor::new()
                .requests(&fragments, &observable)
                .unwrap(),
        );
        let results = execute_requests(&fragments, &requests, &ExactBackend::new()).unwrap();

        let probabilities = |batch: ExecutionResults| {
            let mut acc = ProbabilityAccumulator::new(&fragments, options).unwrap();
            acc.absorb(batch).unwrap();
            acc.finish().unwrap().0
        };
        let expectation = |batch: ExecutionResults| {
            let mut acc = ExpectationAccumulator::new(&fragments, &observable, options).unwrap();
            acc.absorb(batch).unwrap();
            acc.finish().unwrap().0
        };
        let (p0, e0) = (probabilities(results.clone()), expectation(results.clone()));
        let mut batch = results;
        for trial in 0..12 {
            batch = reinserted(&batch);
            let p = probabilities(batch.clone());
            assert!(
                p.iter().zip(&p0).all(|(a, b)| a.to_bits() == b.to_bits()),
                "trial {trial}: probabilities depend on the batch layout"
            );
            let e = expectation(batch.clone());
            assert_eq!(e.to_bits(), e0.to_bits(), "trial {trial}: {e} vs {e0}");
        }
    }
}
