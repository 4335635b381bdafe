//! Classical post-processing: reconstructing the original circuit's output
//! from subcircuit-variant distributions.
//!
//! Both reconstructors follow the batch-first protocol of
//! [`crate::execute`]: they **enumerate** the variant requests they need
//! (`requests`), leave deduplication and batch execution to the caller, and
//! **consume** the resulting
//! [`ExecutionResults`](crate::execute::ExecutionResults) (`reconstruct`) —
//! they never call a backend per variant.
//!
//! # One fold path
//!
//! Every reconstruction folds through an accumulator. A streamed run
//! absorbs chunks as they arrive; a blocking `reconstruct` is a one-batch
//! fold of the borrowed batch, so it equals a one-chunk stream bit for bit.
//! Within each batch the variants fold in one canonical order, sorted by
//! `(fragment, variant ordinal)`, and a shot top-up re-folds its fragment in
//! that same order. The answer therefore never depends on the order a
//! batch's `HashMap` happens to iterate in.
//!
//! # Reconstruction strategies
//!
//! Every executed variant is first folded into one cut-indexed
//! `engine` tensor per fragment; what happens next is selected by
//! [`ReconstructionStrategy`] (via
//! [`QrccConfig`](crate::QrccConfig::with_reconstruction_strategy) or
//! [`ReconstructionOptions`]):
//!
//! * [`ReconstructionStrategy::Dense`] — the paper's FRP/FRE model: one
//!   global mixed-radix loop over all `4^wire · 6^gate` attribution
//!   components, multiplying every fragment's tensor entry per combination.
//!   The probability path splits its **output** into contiguous slices that
//!   rayon tasks fill independently (each slot sums its combos in one fixed
//!   order, so any thread count gives the same bits) and never visits idle
//!   wires; the scalar expectation path splits the component loop into
//!   deterministic chunks. Limited to [`MAX_DENSE_CUTS`] wire cuts.
//! * [`ReconstructionStrategy::Contract`] — the paper's ARP
//!   (divide-and-conquer) model made executable: fragment tensors are merged
//!   **pairwise along shared cuts**, order chosen greedily by the size of the
//!   intermediate tensor. Only the cut legs alive in one pairwise merge are
//!   ever enumerated together, so plans whose *total* cut count exceeds
//!   [`MAX_DENSE_CUTS`] reconstruct fine as long as every single merge stays
//!   under the cap. Supports **sparse term pruning**: attribution entries
//!   whose accumulated absolute weight falls below a tolerance are dropped,
//!   and the dropped mass is reported in a [`ReconstructionReport`].
//! * [`ReconstructionStrategy::Auto`] — compares the [`cost`] models of the
//!   two executable paths ([`cost::frp_log2_flops`] /
//!   [`cost::fre_log2_flops`] against [`cost::contract_log2_flops`] of the
//!   greedy schedule) and picks the cheaper feasible one. In practice:
//!   `Dense` on small, densely connected cut graphs; `Contract` as soon as
//!   the cut graph is chain- or tree-like, or the total cut count exceeds
//!   the dense cap.
//!
//! * [`ProbabilityReconstructor`] — enumerates and blocking-reconstructs the
//!   full probability vector of wire-cut fragments (the CutQC-style path;
//!   gate cuts are not allowed).
//! * [`ExpectationReconstructor`] — enumerates and blocking-reconstructs the
//!   expectation value of a Pauli observable from wire- *and* gate-cut
//!   fragments (paper §4.3).
//! * [`ProbabilityAccumulator`] / [`ExpectationAccumulator`] — the fold
//!   itself: [`ExecutionResults`](crate::execute::ExecutionResults) chunks
//!   fold into fragment tensors as they arrive (from a chunked
//!   [`Scheduler`](crate::schedule::Scheduler), or as the single batch of a
//!   blocking call) — full output distributions for the probability
//!   workload, per-Pauli scalar tensors for expectation observables — so
//!   only the final contraction remains once the last chunk lands; shot
//!   top-ups re-fold only the touched fragment.
//! * [`cost`] — analytic floating-point-operation cost models of the
//!   reconstruction strategies compared in Figure 6.
//!
//! # What each kernel costs
//!
//! Every kernel does work proportional to what it writes. For a fragment
//! with `in` incoming and `out` outgoing wire cuts whose executed variant
//! returns a distribution over `c` classical bits, `#Z ≤ out` of them
//! Z-basis cut measurements:
//!
//! | kernel | work | instead of |
//! |---|---|---|
//! | expectation fold, per variant | `2^c · #Z + 3^in · 2^#Z` | `2^c · 4^out · out + 4^in · 4^out` |
//! | probability fold, per variant | `2^c · (c + 3^in)` | `2^c · 4^in · 4^out · (in + out)` |
//! | dense probability readout | `4^cuts · 2^m` multiply-adds, one `2^m` scratch | `4^cuts · 2^m · m` bit gathers, 64 `2^m` partials |
//!
//! (`m` = measured, i.e. non-idle, qubits.) The folds get there by
//! sum-factorising Eq. (3): for a variant's fixed initialisation states only
//! `≤ 3^in` incoming component combos have a non-zero weight, and for its
//! fixed measurement bases each outcome has exactly one non-zero outgoing
//! combo — the structurally vanishing basis elements are never visited. The
//! component-grid loops they replaced survive as the unit tests' oracle.

mod engine;
mod expectation;
mod probability;
mod streaming;

pub mod cost;

pub(crate) use engine::{expectation_variants, probability_variants, resolve_strategy};
pub use engine::{ReconstructionOptions, ReconstructionReport, ReconstructionStrategy, Workload};
pub use expectation::ExpectationReconstructor;
pub use probability::ProbabilityReconstructor;
pub use streaming::{ExpectationAccumulator, ProbabilityAccumulator};

#[cfg(test)]
use crate::fragment::CutBasis;
use crate::fragment::InitState;

/// Maximum number of wire cuts the dense reconstructors accept (4^k terms),
/// and the per-contraction leg cap of the `Contract` strategy.
pub const MAX_DENSE_CUTS: usize = 14;

/// Weight of an executed initialisation state in the downstream combination
/// of attribution component `component` (paper Eq. (3): the four terms
/// A₁..A₄ expressed over the four initialisation runs).
pub(crate) fn init_weight(component: usize, state: InitState) -> f64 {
    match (component, state) {
        (0, InitState::Zero) => 1.0,
        (1, InitState::One) => 1.0,
        (2, InitState::Plus) => 2.0,
        (2, InitState::Zero) | (2, InitState::One) => -1.0,
        (3, InitState::PlusI) => 2.0,
        (3, InitState::Zero) | (3, InitState::One) => -1.0,
        _ => 0.0,
    }
}

/// The measurement basis attribution component `component` requires on the
/// upstream side. The production folds specialise this per variant (see
/// `engine::WireSlots`); the definition stays as the test oracle's reference.
#[cfg(test)]
pub(crate) fn required_basis(component: usize) -> CutBasis {
    match component {
        0 | 1 => CutBasis::Z,
        2 => CutBasis::X,
        3 => CutBasis::Y,
        _ => unreachable!("component index out of range"),
    }
}

/// Weight of a measured cut bit for attribution component `component` (the
/// upstream factors of Eq. (3): `2·p(0)`, `2·p(1)`, `Tr(ρX)`, `Tr(ρY)`).
/// Test-only for the same reason as [`required_basis`].
#[cfg(test)]
pub(crate) fn cut_bit_weight(component: usize, bit: bool) -> f64 {
    match component {
        0 => {
            if bit {
                0.0
            } else {
                2.0
            }
        }
        1 => {
            if bit {
                2.0
            } else {
                0.0
            }
        }
        2 | 3 => {
            if bit {
                -1.0
            } else {
                1.0
            }
        }
        _ => unreachable!("component index out of range"),
    }
}

/// An allocation-free mixed-radix odometer: enumerates all digit vectors for
/// a fixed per-digit radix list, reusing **one** internal digit buffer.
///
/// This is the hot-loop counterpart of [`mixed_radix`]: `next` hands out a
/// borrowed `&[usize]` instead of a fresh `Vec`, so the innermost loops of
/// tensor building and reconstruction never allocate. The borrow ends before
/// the next `next` call (a lending iterator), which is exactly the shape of
/// every `while let Some(digits) = od.next()` loop in this module.
#[derive(Debug, Clone)]
pub(crate) struct Odometer {
    digits: Vec<usize>,
    radices: Vec<usize>,
    /// `false` until the first `next` call (which yields the all-zero state).
    started: bool,
    done: bool,
}

impl Odometer {
    /// An odometer over `radices[i]` values per digit `i` (least significant
    /// digit first, matching the tensor stride convention).
    pub(crate) fn new(radices: Vec<usize>) -> Self {
        let done = radices.contains(&0);
        Odometer { digits: vec![0; radices.len()], radices, started: false, done }
    }

    /// An odometer with `len` digits all of radix `radix`.
    pub(crate) fn uniform(len: usize, radix: usize) -> Self {
        Odometer::new(vec![radix; len])
    }

    /// Rewinds to the all-zero state.
    pub(crate) fn reset(&mut self) {
        self.digits.iter_mut().for_each(|d| *d = 0);
        self.started = false;
        self.done = self.radices.contains(&0);
    }

    /// Positions the odometer so the next `next` call yields the digit
    /// vector whose little-endian mixed-radix value is `index`.
    pub(crate) fn seek(&mut self, mut index: usize) {
        self.reset();
        for (digit, &radix) in self.digits.iter_mut().zip(&self.radices) {
            *digit = index % radix;
            index /= radix;
        }
    }

    /// The next digit vector, or `None` once every combination was yielded.
    #[allow(clippy::should_implement_trait)] // lending: the borrow ties to &mut self
    pub(crate) fn next(&mut self) -> Option<&[usize]> {
        if self.done {
            return None;
        }
        if !self.started {
            self.started = true;
            return Some(&self.digits);
        }
        for (digit, &radix) in self.digits.iter_mut().zip(&self.radices) {
            *digit += 1;
            if *digit < radix {
                return Some(&self.digits);
            }
            *digit = 0;
        }
        self.done = true;
        None
    }

    /// Total number of combinations.
    #[cfg(test)]
    pub(crate) fn combinations(&self) -> usize {
        self.radices.iter().product()
    }
}

/// Iterates mixed-radix counters: all vectors of length `len` with entries in
/// `0..radix`.
///
/// This owned-`Vec` form exists for variant *enumeration*, where the digits
/// are moved into [`FragmentVariant`](crate::fragment::FragmentVariant)s; the
/// reconstruction hot loops use the allocation-free [`Odometer`] instead.
pub(crate) fn mixed_radix(len: usize, radix: usize) -> impl Iterator<Item = Vec<usize>> {
    let mut odometer = Odometer::uniform(len, radix);
    std::iter::from_fn(move || odometer.next().map(<[usize]>::to_vec))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_weights_reproduce_the_four_terms() {
        // component 2 is 2|+⟩⟨+| − |0⟩⟨0| − |1⟩⟨1|
        assert_eq!(init_weight(2, InitState::Plus), 2.0);
        assert_eq!(init_weight(2, InitState::Zero), -1.0);
        assert_eq!(init_weight(2, InitState::One), -1.0);
        assert_eq!(init_weight(2, InitState::PlusI), 0.0);
        // components 0/1 are pure projectors
        assert_eq!(init_weight(0, InitState::Zero), 1.0);
        assert_eq!(init_weight(0, InitState::One), 0.0);
        assert_eq!(init_weight(1, InitState::One), 1.0);
    }

    #[test]
    fn each_component_requires_one_basis() {
        assert_eq!(required_basis(0), CutBasis::Z);
        assert_eq!(required_basis(1), CutBasis::Z);
        assert_eq!(required_basis(2), CutBasis::X);
        assert_eq!(required_basis(3), CutBasis::Y);
    }

    #[test]
    fn cut_bit_weights_match_trace_identities() {
        // component 0: 2·p(outcome 0)
        assert_eq!(cut_bit_weight(0, false), 2.0);
        assert_eq!(cut_bit_weight(0, true), 0.0);
        // component 2/3: expectation of the Pauli, i.e. ±1 per outcome
        assert_eq!(cut_bit_weight(2, false), 1.0);
        assert_eq!(cut_bit_weight(2, true), -1.0);
    }

    #[test]
    fn mixed_radix_enumerates_all_combinations() {
        let all: Vec<Vec<usize>> = mixed_radix(2, 3).collect();
        assert_eq!(all.len(), 9);
        assert_eq!(all[0], vec![0, 0]);
        assert_eq!(all[8], vec![2, 2]);
        assert_eq!(mixed_radix(0, 4).count(), 1);
    }

    #[test]
    fn odometer_matches_mixed_radix_without_allocating_per_step() {
        let mut od = Odometer::uniform(3, 4);
        let mut seen = Vec::new();
        while let Some(digits) = od.next() {
            seen.push(digits.to_vec());
        }
        let expected: Vec<Vec<usize>> = mixed_radix(3, 4).collect();
        assert_eq!(seen, expected);
        assert_eq!(od.combinations(), 64);
        // reset replays from the start
        od.reset();
        assert_eq!(od.next().unwrap(), &[0, 0, 0]);
    }

    #[test]
    fn odometer_seek_starts_mid_sequence() {
        let mut od = Odometer::uniform(3, 4);
        od.seek(27); // 27 = 3 + 2·4 + 1·16
        assert_eq!(od.next().unwrap(), &[3, 2, 1]);
        assert_eq!(od.next().unwrap(), &[0, 3, 1]);
        // a zero-length odometer yields exactly the empty vector
        let mut empty = Odometer::uniform(0, 4);
        assert_eq!(empty.next().unwrap(), &[] as &[usize]);
        assert!(empty.next().is_none());
        // mixed radices count correctly
        let mut mixed = Odometer::new(vec![4, 6]);
        assert_eq!(mixed.combinations(), 24);
        let mut count = 0;
        while mixed.next().is_some() {
            count += 1;
        }
        assert_eq!(count, 24);
    }
}
