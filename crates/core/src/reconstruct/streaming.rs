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
//! * **Canonical order.** A batch holds its variants in ascending
//!   [`VariantKey`](crate::fragment::VariantKey) order — `(fragment,
//!   ordinal, outputs)`, the ordinal a mixed-radix index over the slot
//!   configuration — and folds in that order with no sort. The sums thus
//!   round the same however the batch was assembled: the answer depends
//!   only on the delivered distributions and the chunk boundaries.
//! * **One fold per distribution.** A fragment's variants group by
//!   measurement setting (their `outputs`): the probability workload has
//!   one, an observable one per qubit-wise-commuting group of its Pauli
//!   terms on that fragment — terms that agree on every output both act on
//!   share a setting. A delivered distribution folds once into its group,
//!   which serves every term of that group; each term reads only the bits
//!   of its own support.
//! * **Shot top-ups.** Re-delivering a variant that was already folded (a
//!   higher-shot estimate replacing its distribution) marks just its group
//!   dirty. The next `finish` re-folds that group from the merged store, in
//!   the same canonical order, before re-contracting.

use super::engine::{
    self, ContractionPlan, CutTensor, Fold, FragmentFolder, ReconstructionOptions,
    ReconstructionReport, ReconstructionStrategy, SignatureFolder, Workload,
};
use super::expectation::{self, contributing_terms};
use crate::execute::{ExecutionResults, Shared};
use crate::fragment::{Fragment, FragmentSet, VariantKey};
use crate::CoreError;
use qrcc_circuit::observable::PauliObservable;

/// The "already folded" set of one group's variants: a bitset indexed by
/// the variant ordinal, so membership costs no hash.
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

    fn contains(&self, ordinal: u64) -> bool {
        self.bits[(ordinal / 64) as usize] >> (ordinal % 64) & 1 == 1
    }

    fn insert(&mut self, ordinal: u64) {
        self.bits[(ordinal / 64) as usize] |= 1 << (ordinal % 64);
    }

    fn len(&self) -> u64 {
        self.bits.iter().map(|word| u64::from(word.count_ones())).sum()
    }
}

/// The variants `(fragment, *, outputs)` of one fragment's measurement
/// setting, the folder they go through, and the bookkeeping that lets a
/// shot top-up re-fold only this group.
#[derive(Debug, Clone)]
struct Group<F> {
    outputs: u64,
    folder: F,
    folded: FoldedSet,
    dirty: bool,
}

/// What an accumulator folds into: per fragment its setting groups, and
/// per target (the probability vector, or one Pauli term) a cut tensor per
/// fragment.
#[derive(Debug, Clone)]
struct Folds<F> {
    groups: Vec<Vec<Group<F>>>,
    tensors: Vec<Vec<CutTensor>>,
}

impl<F: Fold> Folds<F> {
    /// The fold state over `groups` and empty `tensors`. A clbit-free
    /// fragment never executes, so its groups fold every variant with the
    /// constant `[1.0]` distribution up front.
    fn new(
        fragments: &FragmentSet,
        groups: Vec<Vec<(u64, F)>>,
        mut tensors: Vec<Vec<CutTensor>>,
    ) -> Self {
        let groups = fragments
            .fragments
            .iter()
            .zip(groups)
            .enumerate()
            .map(|(index, (fragment, groups))| {
                groups
                    .into_iter()
                    .map(|(outputs, mut folder)| {
                        let mut folded = FoldedSet::new(fragment);
                        if fragment.num_clbits == 0 {
                            for ordinal in 0..folded.expected {
                                folder.fold(&mut tensors, index, ordinal, &engine::TRIVIAL);
                                folded.insert(ordinal);
                            }
                        }
                        Group { outputs, folder, folded, dirty: false }
                    })
                    .collect()
            })
            .collect();
        Folds { groups, tensors }
    }

    /// Folds `batch` in its (ascending key) order. Keys of clbit-free
    /// fragments, of another workload's setting or of a foreign shape are
    /// skipped; a variant seen before is a shot top-up and marks its group
    /// for re-folding.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidCutSolution`] when a key references a fragment
    /// outside the plan; nothing of the batch is folded then.
    fn fold(&mut self, fragments: &FragmentSet, batch: &ExecutionResults) -> Result<(), CoreError> {
        if let Some((key, _)) = batch.entries().last() {
            // keys sort by fragment first: the last names the largest
            if key.fragment >= fragments.fragments.len() {
                return Err(CoreError::InvalidCutSolution {
                    reason: format!(
                        "streamed batch references fragment {} but the plan has {}",
                        key.fragment,
                        fragments.fragments.len()
                    ),
                });
            }
        }
        for (key, dist) in batch.entries() {
            if fragments.fragments[key.fragment].num_clbits > 0 {
                self.offer(key, dist);
            }
        }
        Ok(())
    }

    /// Folds one variant into its group, if it has one.
    fn offer(&mut self, key: &VariantKey, dist: &Shared) {
        let Folds { groups, tensors } = self;
        let Some(group) = groups[key.fragment].iter_mut().find(|g| g.outputs == key.outputs) else {
            return;
        };
        if key.ordinal >= group.folded.expected {
            return;
        }
        if group.folded.contains(key.ordinal) {
            group.dirty = true;
        } else {
            group.folder.fold(tensors, key.fragment, key.ordinal, dist);
            group.folded.insert(key.ordinal);
        }
    }

    /// Readies the tensors for contraction: re-folds every dirty group from
    /// `store` in canonical order, checks that every group is complete, and
    /// refreshes liveness in place (idempotent).
    ///
    /// # Errors
    ///
    /// [`CoreError::MissingVariant`] when some group's variants have not all
    /// arrived yet.
    fn settle(
        &mut self,
        fragments: &FragmentSet,
        store: &ExecutionResults,
    ) -> Result<(), CoreError> {
        for (index, fragment) in fragments.fragments.iter().enumerate() {
            for g in 0..self.groups[index].len() {
                let group = &mut self.groups[index][g];
                if group.dirty {
                    group.dirty = false;
                    group.folded = FoldedSet::new(fragment);
                    for target in group.folder.targets() {
                        self.tensors[target][index].clear();
                    }
                    let outputs = group.outputs;
                    for (key, dist) in store.entries() {
                        if key.fragment == index && key.outputs == outputs {
                            self.offer(key, dist);
                        }
                    }
                }
                let folded = &self.groups[index][g].folded;
                if folded.len() < folded.expected {
                    return Err(CoreError::MissingVariant { fragment: index });
                }
            }
        }
        self.tensors.iter_mut().flatten().for_each(CutTensor::refresh_active);
        Ok(())
    }

    /// `(folded, expected)` distinct-variant counts over the groups.
    fn progress(&self) -> (u64, u64) {
        self.groups
            .iter()
            .flatten()
            .fold((0, 0), |(f, e), group| (f + group.folded.len(), e + group.folded.expected))
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
    folds: Folds<FragmentFolder>,
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
        let (tensors, folders): (Vec<CutTensor>, Vec<FragmentFolder>) =
            fragments.fragments.iter().map(FragmentFolder::probability).unzip();
        let groups = folders.into_iter().map(|folder| vec![(0, folder)]).collect();
        Ok(ProbabilityAccumulator {
            fragments,
            options,
            strategy,
            plan,
            folds: Folds::new(fragments, groups, vec![tensors]),
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
        self.folds.fold(self.fragments, &partial)?;
        self.store.extend(partial);
        Ok(())
    }

    /// `(folded, expected)` distinct-variant counts across all fragments —
    /// reconstruction progress while the stream is still running.
    pub fn progress(&self) -> (u64, u64) {
        self.folds.progress()
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
        self.folds.settle(self.fragments, &self.store)?;
        Ok(self.contract())
    }

    /// The blocking reconstruction: `batch` folds as one borrowed chunk,
    /// then contracts.
    pub(super) fn reconstruct(
        mut self,
        batch: &ExecutionResults,
    ) -> Result<(Vec<f64>, ReconstructionReport), CoreError> {
        self.folds.fold(self.fragments, batch)?;
        self.folds.settle(self.fragments, batch)?;
        Ok(self.contract())
    }

    /// Contracts the settled tensors. Only the contract path clones, because
    /// normalisation and pruning mutate the tensors it is handed and later
    /// absorb/finish cycles still need the originals.
    fn contract(&self) -> (Vec<f64>, ReconstructionReport) {
        let mut report = ReconstructionReport::new(self.strategy, &self.options);
        let tensors = &self.folds.tensors[0];
        let probabilities = match self.strategy {
            ReconstructionStrategy::Contract => engine::contract_probabilities_from_tensors(
                self.fragments,
                tensors.clone(),
                &self.plan,
                self.options.prune_tolerance,
                &mut report,
            ),
            _ => engine::dense_probabilities(self.fragments, tensors),
        };
        (probabilities, report)
    }
}

/// Incremental expectation-value reconstruction over streamed
/// [`ExecutionResults`] chunks — the expectation counterpart of
/// [`ProbabilityAccumulator`], for wire- **and** gate-cut plans.
///
/// Every chunk absorbed folds each contained variant once into its
/// fragment's measurement-setting group, which writes the scalar cut tensor
/// of every Pauli term that setting serves, and
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
    /// Coefficient of every Pauli term that can contribute (a term with X or
    /// Y on an idle wire is identically zero and never folds), parallel to
    /// the fold targets.
    coefficients: Vec<f64>,
    folds: Folds<SignatureFolder>,
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
        let terms = contributing_terms(fragments, observable)?;
        let groups = fragments
            .fragments
            .iter()
            .enumerate()
            .map(|(index, fragment)| {
                // the terms grouped by their measurement setting on this
                // fragment, groups in first-seen order
                let mut settings: Vec<(u64, Vec<_>)> = Vec::new();
                for (t, term) in terms.iter().enumerate() {
                    let outputs = term.settings[index];
                    match settings.iter_mut().find(|(s, _)| *s == outputs) {
                        Some((_, served)) => served.push((t, term.string)),
                        None => settings.push((outputs, vec![(t, term.string)])),
                    }
                }
                settings
                    .into_iter()
                    .map(|(outputs, served)| (outputs, SignatureFolder::new(fragment, &served)))
                    .collect()
            })
            .collect();
        let tensors = terms
            .iter()
            .map(|_| fragments.fragments.iter().map(SignatureFolder::tensor).collect())
            .collect();
        Ok(ExpectationAccumulator {
            fragments,
            options,
            strategy,
            plan,
            coefficients: terms.iter().map(|term| term.coefficient).collect(),
            folds: Folds::new(fragments, groups, tensors),
            store: ExecutionResults::default(),
        })
    }

    /// Folds a partial batch into every term's fragment tensors, in
    /// canonical order.
    ///
    /// New variants fold immediately, once, into every term their
    /// measurement setting serves on their fragment; a variant seen before
    /// is a shot top-up — its distribution replaces the stored one and only
    /// its fragment's setting group is marked for re-folding at the next
    /// [`finish`](ExpectationAccumulator::finish). Variants that belong to
    /// other workloads (other observables' bases) are skipped, so a batch
    /// shared between workloads streams fine.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidCutSolution`] when a key references a fragment
    /// outside the plan; nothing of the batch is folded then.
    pub fn absorb(&mut self, partial: ExecutionResults) -> Result<(), CoreError> {
        self.folds.fold(self.fragments, &partial)?;
        self.store.extend(partial);
        Ok(())
    }

    /// `(folded, expected)` distinct-variant counts summed over every
    /// fragment's setting groups — reconstruction progress while the
    /// stream is still running.
    pub fn progress(&self) -> (u64, u64) {
        self.folds.progress()
    }

    /// Runs the final per-term contraction over the accumulated scalar
    /// tensors and sums the observable, re-folding any group dirtied by a
    /// shot top-up first.
    ///
    /// Callable repeatedly: absorb more chunks (or top-ups) and finish again
    /// for a refined estimate — only dirty groups re-fold.
    ///
    /// # Errors
    ///
    /// [`CoreError::MissingVariant`] when some fragment still lacks
    /// variants.
    pub fn finish(&mut self) -> Result<(f64, ReconstructionReport), CoreError> {
        self.folds.settle(self.fragments, &self.store)?;
        Ok(self.contract())
    }

    /// The blocking reconstruction: `batch` folds as one borrowed chunk,
    /// then contracts.
    pub(super) fn reconstruct(
        mut self,
        batch: &ExecutionResults,
    ) -> Result<(f64, ReconstructionReport), CoreError> {
        self.folds.fold(self.fragments, batch)?;
        self.folds.settle(self.fragments, batch)?;
        Ok(self.contract())
    }

    /// Contracts every term's settled tensors and sums the observable. The
    /// contract path gets clones for the same reason as
    /// [`ProbabilityAccumulator`]'s.
    fn contract(&self) -> (f64, ReconstructionReport) {
        let mut report = ReconstructionReport::new(self.strategy, &self.options);
        let mut total = 0.0;
        for (coefficient, tensors) in self.coefficients.iter().zip(&self.folds.tensors) {
            let value = match self.strategy {
                ReconstructionStrategy::Contract => engine::contract_expectation_from_tensors(
                    self.fragments,
                    tensors.clone(),
                    &self.plan,
                    self.options.prune_tolerance,
                    &mut report,
                ),
                _ => engine::dense_expectation(self.fragments, tensors),
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
        assert!(acc.folds.groups[0][0].dirty);
        assert!(acc.folds.groups[1..].iter().flatten().all(|group| !group.dirty));
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
        // setting group folding them must dirty, and only fragment 0's
        let fragment0: Vec<_> = requests.iter().filter(|r| r.key.fragment == 0).cloned().collect();
        let topup = execute_requests(&fragments, &fragment0, &backend).unwrap();
        acc.absorb(topup).unwrap();
        let groups = &acc.folds.groups;
        assert!(groups[0].iter().all(|g| g.dirty), "every group of fragment 0 must be dirty");
        assert!(groups[1..].iter().flatten().all(|group| !group.dirty));
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
    /// the same distributions, assembled another way.
    fn reinserted(results: &ExecutionResults) -> ExecutionResults {
        let entries: Vec<_> = results.iter().collect();
        let mut rebuilt = ExecutionResults::default();
        for (key, dist) in entries.into_iter().rev() {
            rebuilt.insert(*key, dist.to_vec());
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
