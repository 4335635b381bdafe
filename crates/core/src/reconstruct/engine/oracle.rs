//! Test oracles for variant enumeration and the reconstruction kernels.
//!
//! * The enumerator the integer [`VariantKey`] replaced: one
//!   [`FragmentVariant`] of four slot vectors per combination, per Pauli
//!   term (measured in the bases of its qubit-wise-commuting group,
//!   [`grouped_bases`]), deduplicated afterwards — checked against the keys
//!   the reconstructors enumerate, decoded slot by slot, and the structural
//!   circuit dedup it fed, checked against the ordinal rule. The grouping
//!   itself is checked by brute force against its invariants.
//! * The component-grid loops the production folds replaced, kept verbatim
//!   in spirit — every outcome is distributed over the full `4^in · 4^out`
//!   component grid through [`init_weight`] / [`required_basis`] /
//!   [`cut_bit_weight`], one Pauli term at a time, and the dense readout
//!   gathers each fragment's payload index bit by bit per output — so the
//!   sum-factorised, signature-grouped folds and the output-sliced readout
//!   are checked against Eq. (3) as written, not against themselves.
//! * The probability fold as it gathered each outcome's bits one at a time,
//!   the bitwise reference for its half-width outcome tables, and the
//!   gather itself, the reference for where the tables place each outcome.

use super::{gather_bits, CutTensor, FragmentFolder, Leg, OutcomeTables};
use crate::fragment::{CutBasis, Fragment, FragmentSet, InitState, VariantKey};
use crate::gatecut::instance_measures;
use crate::reconstruct::{cut_bit_weight, init_weight, mixed_radix, required_basis, Odometer};
use qrcc_circuit::observable::{Pauli, PauliString};

/// One executable configuration of a fragment, slot by slot: what a
/// [`VariantKey`] encodes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(super) struct FragmentVariant {
    /// Initialisation state per incoming cut.
    pub(super) init_states: Vec<InitState>,
    /// Measurement basis per outgoing cut.
    pub(super) cut_bases: Vec<CutBasis>,
    /// Gate-cut instance (1..=6) per gate-cut role.
    pub(super) gate_instances: Vec<usize>,
    /// Measurement basis per original-circuit output (`I` normalised to
    /// `Z`).
    pub(super) output_bases: Vec<Pauli>,
}

/// Decodes `key` slot by slot through place values, independently of the
/// production decoders.
pub(super) fn decode(fragment: &Fragment, key: &VariantKey) -> FragmentVariant {
    let (num_in, num_out) = (fragment.incoming_cuts.len(), fragment.outgoing_cuts.len());
    let digit = |place: u64, radix: u64| (key.ordinal / place % radix) as usize;
    let init_base = 3u64.pow(num_out as u32);
    let gate_base = init_base * 4u64.pow(num_in as u32);
    FragmentVariant {
        init_states: (0..num_in)
            .map(|i| InitState::ALL[digit(init_base * 4u64.pow(i as u32), 4)])
            .collect(),
        cut_bases: (0..num_out).map(|j| CutBasis::ALL[digit(3u64.pow(j as u32), 3)]).collect(),
        gate_instances: (0..fragment.gate_cut_roles.len())
            .map(|r| digit(gate_base * 6u64.pow(r as u32), 6) + 1)
            .collect(),
        output_bases: (0..fragment.output_clbits.len())
            .map(|k| [Pauli::Z, Pauli::X, Pauli::Y][(key.outputs >> (2 * k) & 3) as usize])
            .collect(),
    }
}

/// Every variant the probability workload needs from one fragment: all
/// `4^incoming · 3^outgoing` combinations, outputs measured in Z.
pub(super) fn probability_variants(
    fragment: &Fragment,
) -> impl Iterator<Item = FragmentVariant> + '_ {
    variants(fragment, vec![Pauli::Z; fragment.output_clbits.len()])
}

/// The output bases each of `strings` is measured in on `fragment`,
/// re-derived slot by slot from the grouping rule: terms whose bases agree
/// once I is read as Z form a class constraining the slots its terms are not
/// I on; in first-seen order each class joins the first earlier group that
/// agrees with it on every slot both constrain; unconstrained slots read Z.
fn grouped_bases(fragment: &Fragment, strings: &[&PauliString]) -> Vec<Vec<Pauli>> {
    let bases = |string: &PauliString| -> Vec<Option<Pauli>> {
        fragment
            .output_clbits
            .iter()
            .map(|&(orig, _)| Some(string.pauli(orig)).filter(|&p| p != Pauli::I))
            .collect()
    };
    let as_z = |bases: &[Option<Pauli>]| -> Vec<Pauli> {
        bases.iter().map(|b| b.unwrap_or(Pauli::Z)).collect()
    };
    let mut classes: Vec<(Vec<Pauli>, Vec<Option<Pauli>>)> = Vec::new();
    let mut class_of = Vec::new();
    for string in strings {
        let own = bases(string);
        let key = as_z(&own);
        let class = classes.iter().position(|(k, _)| *k == key).unwrap_or_else(|| {
            classes.push((key, vec![None; own.len()]));
            classes.len() - 1
        });
        for (slot, basis) in classes[class].1.iter_mut().zip(&own) {
            *slot = slot.or(*basis);
        }
        class_of.push(class);
    }
    let agree = |a: &[Option<Pauli>], b: &[Option<Pauli>]| {
        a.iter().zip(b).all(|pair| match pair {
            (Some(x), Some(y)) => x == y,
            _ => true,
        })
    };
    let mut groups: Vec<Vec<Option<Pauli>>> = Vec::new();
    let mut group_of = Vec::new();
    for (_, constraint) in &classes {
        let group = match groups.iter().position(|g| agree(g, constraint)) {
            Some(group) => {
                for (slot, basis) in groups[group].iter_mut().zip(constraint) {
                    *slot = slot.or(*basis);
                }
                group
            }
            None => {
                groups.push(constraint.clone());
                groups.len() - 1
            }
        };
        group_of.push(group);
    }
    class_of.into_iter().map(|class| as_z(&groups[group_of[class]])).collect()
}

/// All slot combinations with fixed `output_bases`: cut bases varying
/// fastest, then init states, then gate instances, slot 0 first in each.
fn variants(
    fragment: &Fragment,
    output_bases: Vec<Pauli>,
) -> impl Iterator<Item = FragmentVariant> + '_ {
    let num_in = fragment.incoming_cuts.len();
    let num_out = fragment.outgoing_cuts.len();
    mixed_radix(fragment.gate_cut_roles.len(), 6).flat_map(move |instance_digits| {
        let instances: Vec<usize> = instance_digits.iter().map(|&d| d + 1).collect();
        let output_bases = output_bases.clone();
        mixed_radix(num_in, 4).flat_map(move |init_digits| {
            let init_states: Vec<InitState> =
                init_digits.iter().map(|&d| InitState::ALL[d]).collect();
            let instances = instances.clone();
            let output_bases = output_bases.clone();
            mixed_radix(num_out, 3).map(move |basis_digits| FragmentVariant {
                init_states: init_states.clone(),
                cut_bases: basis_digits.iter().map(|&d| CutBasis::ALL[d]).collect(),
                gate_instances: instances.clone(),
                output_bases: output_bases.clone(),
            })
        })
    })
}

/// Weight of outgoing component combo `out_components` for one outcome's
/// cut bits under the variant's measurement bases (0 when incompatible).
fn outgoing_weight(
    out_components: &[usize],
    variant: &FragmentVariant,
    fragment: &Fragment,
    outcome: usize,
) -> f64 {
    let mut w = 1.0;
    for (slot, &component) in out_components.iter().enumerate() {
        if required_basis(component) != variant.cut_bases[slot] {
            return 0.0;
        }
        let bit = outcome & (1 << fragment.cut_clbits[slot].1) != 0;
        w *= cut_bit_weight(component, bit);
    }
    w
}

/// The component-grid probability fold: `O(2^c · 4^in · 4^out · (in + out))`.
pub(super) fn fold_partial(
    tensor: &mut CutTensor,
    fragment: &Fragment,
    variant: &FragmentVariant,
    dist: &[f64],
) {
    let num_in = fragment.incoming_cuts.len();
    let mut in_od = Odometer::uniform(num_in, 4);
    let mut out_od = Odometer::uniform(fragment.outgoing_cuts.len(), 4);
    for (outcome, &p) in dist.iter().enumerate() {
        if p == 0.0 {
            continue;
        }
        let mut y = 0usize;
        for (bit, &(_, clbit)) in fragment.output_clbits.iter().enumerate() {
            if outcome & (1 << clbit) != 0 {
                y |= 1 << bit;
            }
        }
        in_od.reset();
        while let Some(in_components) = in_od.next() {
            let mut weight = p;
            let mut idx_in = 0usize;
            for (slot, &component) in in_components.iter().enumerate() {
                weight *= init_weight(component, variant.init_states[slot]);
                idx_in += component * tensor.strides[slot];
            }
            out_od.reset();
            while let Some(out_components) = out_od.next() {
                let w = weight * outgoing_weight(out_components, variant, fragment, outcome);
                let idx_out: usize = out_components
                    .iter()
                    .enumerate()
                    .map(|(slot, &component)| component * tensor.strides[num_in + slot])
                    .sum();
                tensor.data[(idx_in + idx_out) * tensor.payload_len + y] += w;
            }
        }
    }
}

/// `-value` when `bits` has odd parity, `value` otherwise.
fn signed_by_parity(value: f64, bits: usize) -> f64 {
    if bits.count_ones() & 1 == 1 {
        -value
    } else {
        value
    }
}

/// The probability fold gathering each outcome's output bits and Z cut bits
/// one at a time — what [`CutTensor::fold_partial`] computed before its
/// half-width tables, addition for addition.
pub(super) fn gather_fold_partial(
    tensor: &mut CutTensor,
    folder: &mut FragmentFolder,
    ordinal: u64,
    dist: &[f64],
) {
    let slots = &mut folder.slots;
    slots.select(&tensor.strides, ordinal);
    let scale = slots.out_scale();
    for (outcome, &p) in dist.iter().enumerate() {
        if p == 0.0 {
            continue;
        }
        let y = gather_bits(outcome, &folder.output_bit_positions);
        let weight = signed_by_parity(scale * p, outcome & slots.sign_mask);
        let idx_out = slots.out_index(gather_bits(outcome, &slots.z_positions));
        for &(idx_in, in_weight) in &slots.in_terms {
            tensor.data[(idx_in + idx_out) * tensor.payload_len + y] += in_weight * weight;
        }
    }
}

/// The component-grid expectation fold: `O(2^c · 4^out · out + 4^in · 4^out)`.
pub(super) fn fold_expectation_partial(
    tensor: &mut CutTensor,
    fragment: &Fragment,
    string: &PauliString,
    variant: &FragmentVariant,
    dist: &[f64],
) {
    let num_in = fragment.incoming_cuts.len();
    let num_out = fragment.outgoing_cuts.len();
    let out_stride = 4usize.pow(num_in as u32);
    let mut idx_gate = 0usize;
    let mut stride = 4usize.pow((num_in + num_out) as u32);
    for &instance in &variant.gate_instances {
        idx_gate += (instance - 1) * stride;
        stride *= 6;
    }

    let mut weighted = vec![0.0f64; 4usize.pow(num_out as u32)];
    let mut out_od = Odometer::uniform(num_out, 4);
    for (outcome, &p) in dist.iter().enumerate() {
        let mut sign = 1.0;
        for &(orig, clbit) in &fragment.output_clbits {
            if string.pauli(orig) != Pauli::I && outcome & (1 << clbit) != 0 {
                sign = -sign;
            }
        }
        for (role, &instance) in variant.gate_instances.iter().enumerate() {
            if instance_measures(instance, fragment.gate_cut_roles[role].1)
                && outcome & (1 << fragment.gatecut_clbits[role].1) != 0
            {
                sign = -sign;
            }
        }
        out_od.reset();
        let mut combo = 0usize;
        while let Some(out_components) = out_od.next() {
            weighted[combo] +=
                p * sign * outgoing_weight(out_components, variant, fragment, outcome);
            combo += 1;
        }
    }

    let mut in_od = Odometer::uniform(num_in, 4);
    while let Some(in_components) = in_od.next() {
        let mut in_weight = 1.0;
        let mut idx_in = 0usize;
        for (slot, &component) in in_components.iter().enumerate() {
            in_weight *= init_weight(component, variant.init_states[slot]);
            idx_in += component * tensor.strides[slot];
        }
        for (combo, &value) in weighted.iter().enumerate() {
            tensor.data[idx_in + combo * out_stride + idx_gate] += in_weight * value;
        }
    }
}

/// The gather-per-output dense readout: for each of the `4^cuts` combos and
/// each of the `2^N` outputs, every fragment's payload index is re-gathered
/// bit by bit — `O(4^cuts · 2^N · N)`, serial.
pub(super) fn dense_probabilities(fragments: &FragmentSet, tensors: &[CutTensor]) -> Vec<f64> {
    let cuts = fragments.num_wire_cuts();
    let scale = 0.5f64.powi(cuts as i32);
    let mut probabilities = vec![0.0f64; 1 << fragments.original_qubits];
    let mut od = Odometer::uniform(cuts, 4);
    while let Some(components) = od.next() {
        let factors: Vec<&[f64]> = tensors
            .iter()
            .map(|tensor| {
                let idx: usize = tensor
                    .strides
                    .iter()
                    .zip(&tensor.legs)
                    .map(|(&stride, &leg)| match leg {
                        Leg::Wire(cut) => components[cut] * stride,
                        Leg::Gate(_) => unreachable!("probability tensors carry wire legs only"),
                    })
                    .sum();
                tensor.payload(idx)
            })
            .collect();
        for (x, slot) in probabilities.iter_mut().enumerate() {
            // idle wires always read 0
            if fragments
                .output_owner
                .iter()
                .enumerate()
                .any(|(q, o)| o.is_none() && x >> q & 1 == 1)
            {
                continue;
            }
            let mut term = scale;
            for (factor, fragment) in factors.iter().zip(&fragments.fragments) {
                let mut y = 0usize;
                for (bit, &(orig, _)) in fragment.output_clbits.iter().enumerate() {
                    if x & (1 << orig) != 0 {
                        y |= 1 << bit;
                    }
                }
                term *= factor[y];
            }
            *slot += term;
        }
    }
    probabilities
}

mod tests {
    use super::super::{
        dense_probabilities, Fold, FragmentFolder, ReconstructionOptions, ReconstructionStrategy,
        SignatureFolder, TRIVIAL,
    };
    use super::*;
    use crate::execute::{execute_requests, prepare_batch, ExactBackend, ExecutionResults};
    use crate::fragment::VariantRequest;
    use crate::gatecut::GateHalf;
    use crate::planner::CutPlanner;
    use crate::reconstruct::expectation::contributing_terms;
    use crate::reconstruct::{ExpectationReconstructor, ProbabilityReconstructor};
    use crate::QrccConfig;
    use proptest::prelude::*;
    use qrcc_circuit::generators::{self, HamiltonianKind};
    use qrcc_circuit::observable::PauliObservable;
    use qrcc_circuit::Circuit;
    use qrcc_sim::StateVector;
    use std::collections::{HashMap, HashSet};
    use std::time::Duration;

    /// SplitMix64: derives a whole synthetic case from one seed.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound as u64) as usize
        }

        fn shuffle<T>(&mut self, items: &mut [T]) {
            for i in (1..items.len()).rev() {
                items.swap(i, self.below(i + 1));
            }
        }
    }

    /// A synthetic fragment with the requested slot counts, its classical
    /// bits assigned to the slots in random order.
    fn fragment(
        rng: &mut Rng,
        num_in: usize,
        num_out: usize,
        roles: usize,
        outputs: usize,
    ) -> Fragment {
        let num_clbits = num_out + roles + outputs;
        let mut clbits: Vec<usize> = (0..num_clbits).collect();
        rng.shuffle(&mut clbits);
        let mut clbits = clbits.into_iter();
        let cut_clbits = (0..num_out).map(|s| (num_in + s, clbits.next().unwrap())).collect();
        let gate_roles = (0..roles)
            .map(|g| {
                let half = if rng.below(2) == 0 { GateHalf::Top } else { GateHalf::Bottom };
                (g, half, clbits.next().unwrap())
            })
            .collect();
        let output_clbits = (0..outputs).map(|q| (q, clbits.next().unwrap())).collect();
        Fragment::with_slots(
            num_clbits,
            (0..num_in).collect(),
            cut_clbits,
            gate_roles,
            output_clbits,
        )
    }

    /// Twelve random `(ordinal, distribution)` pairs for `fragment`; about a
    /// quarter of every distribution's outcomes are exactly zero.
    fn executed(rng: &mut Rng, fragment: &Fragment) -> Vec<(u64, Vec<f64>)> {
        (0..12)
            .map(|_| {
                let ordinal = rng.next() % fragment.variant_count();
                let dist =
                    (0..1usize << fragment.num_clbits)
                        .map(|_| {
                            if rng.below(4) == 0 {
                                0.0
                            } else {
                                rng.next() as f64 / u64::MAX as f64
                            }
                        })
                        .collect();
                (ordinal, dist)
            })
            .collect()
    }

    /// `terms` random Pauli strings over the fragment's outputs that share
    /// one output-basis signature: each output is X, Y, or — per term — I or
    /// Z.
    fn sharing_strings(rng: &mut Rng, outputs: usize, terms: usize) -> Vec<PauliString> {
        let shared: Vec<Option<Pauli>> =
            (0..outputs).map(|_| [None, Some(Pauli::X), Some(Pauli::Y)][rng.below(3)]).collect();
        (0..terms)
            .map(|_| {
                PauliString::from_paulis(
                    shared
                        .iter()
                        .map(|basis| basis.unwrap_or([Pauli::I, Pauli::Z][rng.below(2)]))
                        .collect(),
                )
            })
            .collect()
    }

    /// One fragment's probability tensor, folded from `results` in ordinal
    /// order.
    fn folded_tensor(index: usize, fragment: &Fragment, results: &ExecutionResults) -> CutTensor {
        let (mut tensor, mut folder) = FragmentFolder::probability(fragment);
        for ordinal in 0..fragment.variant_count() {
            let dist: &[f64] = if fragment.num_clbits == 0 {
                &TRIVIAL
            } else {
                results.distribution(&VariantKey::new(index, ordinal, 0)).unwrap()
            };
            tensor.fold_partial(&mut folder, ordinal, dist);
        }
        tensor.refresh_active();
        tensor
    }

    fn assert_close(got: &CutTensor, want: &CutTensor) -> Result<(), TestCaseError> {
        for (entry, (a, b)) in got.data.iter().zip(&want.data).enumerate() {
            prop_assert!((a - b).abs() < 1e-12, "slot {}: fold {} vs oracle {}", entry, a, b);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The signature-grouped expectation fold equals the per-term
        /// component-grid oracle for every term it serves, in one batch and
        /// re-delivered as shuffled chunks.
        #[test]
        fn grouped_expectation_fold_matches_the_per_term_component_grid(
            num_in in 0..4usize,
            num_out in 0..4usize,
            roles in 0..3usize,
            outputs in 0..3usize,
            terms in 1..5usize,
            seed in any::<u64>(),
        ) {
            let mut rng = Rng(seed);
            let fragment = fragment(&mut rng, num_in, num_out, roles, outputs);
            let strings = sharing_strings(&mut rng, outputs, terms);
            let served: Vec<(usize, &PauliString)> = strings.iter().enumerate().collect();
            let mut batch = executed(&mut rng, &fragment);

            let fresh = || vec![vec![SignatureFolder::tensor(&fragment)]; terms];
            let mut want = fresh();
            let mut got = fresh();
            let mut folder = SignatureFolder::new(&fragment, &served);
            for (ordinal, dist) in &batch {
                let variant = decode(&fragment, &VariantKey::new(0, *ordinal, 0));
                for (t, string) in strings.iter().enumerate() {
                    fold_expectation_partial(&mut want[t][0], &fragment, string, &variant, dist);
                }
                folder.fold(&mut got, 0, *ordinal, dist);
            }
            for (got, want) in got.iter().zip(&want) {
                assert_close(&got[0], &want[0])?;
            }

            rng.shuffle(&mut batch);
            let mut chunked = fresh();
            for chunk in batch.chunks(5) {
                for (ordinal, dist) in chunk {
                    folder.fold(&mut chunked, 0, *ordinal, dist);
                }
            }
            for (got, want) in chunked.iter().zip(&want) {
                assert_close(&got[0], &want[0])?;
            }
        }

        /// The one-combo-per-outcome probability fold equals the
        /// component-grid oracle, in one batch and as shuffled chunks.
        #[test]
        fn probability_fold_matches_the_component_grid(
            num_in in 0..4usize,
            num_out in 0..4usize,
            outputs in 0..3usize,
            seed in any::<u64>(),
        ) {
            let mut rng = Rng(seed);
            let fragment = fragment(&mut rng, num_in, num_out, 0, outputs);
            let mut batch = executed(&mut rng, &fragment);

            let (mut want, _) = FragmentFolder::probability(&fragment);
            let (mut got, mut folder) = FragmentFolder::probability(&fragment);
            for (ordinal, dist) in &batch {
                let variant = decode(&fragment, &VariantKey::new(0, *ordinal, 0));
                fold_partial(&mut want, &fragment, &variant, dist);
                got.fold_partial(&mut folder, *ordinal, dist);
            }
            assert_close(&got, &want)?;

            rng.shuffle(&mut batch);
            let (mut chunked, _) = FragmentFolder::probability(&fragment);
            for chunk in batch.chunks(5) {
                for (ordinal, dist) in chunk {
                    chunked.fold_partial(&mut folder, *ordinal, dist);
                }
            }
            assert_close(&chunked, &want)?;
        }

        /// Every outcome of a (possibly mis-sized) distribution lands where
        /// gathering its bits one at a time puts it: the tables' output
        /// index, strided offset and sign parity are the gather's.
        #[test]
        fn outcome_tables_place_every_outcome_as_the_gather_did(
            len in 0..600usize,
            picks in collection::vec((0..10usize, 0..3u8, 1..50usize), 0..10),
            sign_mask in 0..1024usize,
        ) {
            let mut y_positions = Vec::new();
            let mut strided = Vec::new();
            for (position, role, stride) in picks {
                let taken = y_positions.contains(&position)
                    || strided.iter().any(|&(p, _)| p == position);
                match role {
                    _ if taken => {}
                    0 => y_positions.push(position),
                    1 => strided.push((position, stride)),
                    _ => {}
                }
            }
            let mut tables = OutcomeTables::default();
            let low_len = tables.build(len, &y_positions, strided.iter().copied(), sign_mask);
            prop_assert!(tables.low.len() * tables.high.len() >= len);
            for outcome in 0..len {
                let spot = tables.low[outcome % low_len].join(tables.high[outcome / low_len]);
                prop_assert_eq!(spot.y, gather_bits(outcome, &y_positions));
                let out: usize =
                    strided.iter().map(|&(p, stride)| (outcome >> p & 1) * stride).sum();
                prop_assert_eq!(spot.out, out);
                prop_assert_eq!(spot.odd, (outcome & sign_mask).count_ones() % 2 == 1);
            }
        }

        /// The table-driven probability fold makes the gathering fold's
        /// additions in the gathering fold's order: equal bit for bit, also
        /// on a distribution shorter than the fragment's clbits.
        #[test]
        fn probability_fold_tables_match_the_gathering_fold_bitwise(
            num_in in 0..4usize,
            num_out in 0..4usize,
            outputs in 0..4usize,
            cut_short in 0..3usize,
            seed in any::<u64>(),
        ) {
            let mut rng = Rng(seed);
            let fragment = fragment(&mut rng, num_in, num_out, 0, outputs);
            let batch = executed(&mut rng, &fragment);
            let (mut want, mut gathering) = FragmentFolder::probability(&fragment);
            let (mut got, mut folder) = FragmentFolder::probability(&fragment);
            for (ordinal, dist) in &batch {
                gather_fold_partial(&mut want, &mut gathering, *ordinal, dist);
                got.fold_partial(&mut folder, *ordinal, dist);
                let short = &dist[..dist.len() >> cut_short.min(dist.len().trailing_zeros() as usize)];
                gather_fold_partial(&mut want, &mut gathering, *ordinal, short);
                got.fold_partial(&mut folder, *ordinal, short);
            }
            let bits = |t: &CutTensor| t.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    /// The output-sliced readout equals the gather-per-output oracle (and
    /// the uncut state vector) on a single-slice plan, a multi-slice plan
    /// and a plan with an idle wire.
    #[test]
    fn sliced_dense_readout_matches_the_gathering_loop() {
        let chain = |n: usize| {
            let mut c = Circuit::new(n);
            c.h(0);
            for q in 0..n - 1 {
                c.cx(q, q + 1).ry(0.1 * (q as f64 + 1.0), q + 1);
            }
            c
        };
        let mut idle = Circuit::new(6);
        idle.h(0).cx(0, 1).ry(0.7, 1).cx(1, 2).t(2).cx(2, 4).rx(1.1, 4).cx(4, 5); // wire 3 idles
        let cases = [
            (chain(5), QrccConfig::new(3).with_subcircuit_range(2, 3)),
            (idle, QrccConfig::new(3).with_subcircuit_range(2, 4)),
            // 2^13 outputs: two 2^12 slices, the last fragment split across them
            (chain(13), QrccConfig::new(5).with_subcircuit_range(3, 4).with_qubit_reuse(false)),
        ];
        for (circuit, config) in cases {
            let plan =
                CutPlanner::new(config.with_ilp_time_limit(Duration::ZERO)).plan(&circuit).unwrap();
            let fragments = FragmentSet::from_plan(&plan).unwrap();
            let requests = ProbabilityReconstructor::new().requests(&fragments).unwrap();
            let results = execute_requests(&fragments, &requests, &ExactBackend::new()).unwrap();
            let tensors: Vec<CutTensor> = fragments
                .fragments
                .iter()
                .enumerate()
                .map(|(index, f)| folded_tensor(index, f, &results))
                .collect();
            let got = dense_probabilities(&fragments, &tensors);
            let want = super::dense_probabilities(&fragments, &tensors);
            let exact = StateVector::from_circuit(&circuit).unwrap().probabilities();
            assert_eq!(got.len(), exact.len());
            for (x, ((g, w), e)) in got.iter().zip(&want).zip(&exact).enumerate() {
                assert!((g - w).abs() < 1e-12, "output {x}: sliced {g} vs oracle {w}");
                assert!((g - e).abs() < 1e-9, "output {x}: sliced {g} vs exact {e}");
            }
        }
    }

    /// The Pauli strings of `observable` that can contribute: none acts
    /// with X or Y on an idle wire.
    fn contributing(fragments: &FragmentSet, observable: &PauliObservable) -> Vec<PauliString> {
        observable
            .terms()
            .iter()
            .map(|(_, string)| string.clone())
            .filter(|string| {
                !(0..fragments.original_qubits).any(|q| {
                    fragments.output_owner[q].is_none()
                        && matches!(string.pauli(q), Pauli::X | Pauli::Y)
                })
            })
            .collect()
    }

    /// The old enumerator's keys, deduplicated in first-seen order: every
    /// contributing term's variants of every executing fragment, in the
    /// bases of the term's group there (`observable`), or every fragment's
    /// probability variants (`None`).
    fn old_keys(
        fragments: &FragmentSet,
        observable: Option<&PauliObservable>,
    ) -> Vec<(usize, FragmentVariant)> {
        let executing = || fragments.fragments.iter().enumerate().filter(|(_, f)| f.num_clbits > 0);
        let requested: Vec<(usize, FragmentVariant)> = match observable {
            None => executing()
                .flat_map(|(i, f)| probability_variants(f).map(move |v| (i, v)))
                .collect(),
            Some(observable) => {
                let strings = contributing(fragments, observable);
                let strings: Vec<&PauliString> = strings.iter().collect();
                let bases: Vec<Vec<Vec<Pauli>>> =
                    fragments.fragments.iter().map(|f| grouped_bases(f, &strings)).collect();
                (0..strings.len())
                    .flat_map(|t| {
                        let bases = &bases;
                        executing().flat_map(move |(i, f)| {
                            variants(f, bases[i][t].clone()).map(move |v| (i, v))
                        })
                    })
                    .collect()
            }
        };
        let mut seen = HashSet::new();
        requested.into_iter().filter(|key| seen.insert(key.clone())).collect()
    }

    /// Brute-force check of the measurement grouping on every fragment that
    /// measures outputs: each term's setting agrees with the term wherever
    /// it is not I, every setting serves some term and is requested, a
    /// fragment has no more settings than distinct I→Z signatures, and no
    /// two of its settings could merge (they disagree on a slot both
    /// groups constrain). Returns the settings per fragment.
    fn check_groups(fragments: &FragmentSet, observable: &PauliObservable) -> Vec<usize> {
        let terms = contributing_terms(fragments, observable).unwrap();
        let requests = ExpectationReconstructor::new().requests(fragments, observable).unwrap();
        fragments
            .fragments
            .iter()
            .enumerate()
            .filter(|(_, f)| f.num_clbits > 0)
            .map(|(i, fragment)| {
                let support = |string: &PauliString| -> Vec<Option<Pauli>> {
                    fragment
                        .output_clbits
                        .iter()
                        .map(|&(orig, _)| Some(string.pauli(orig)).filter(|&p| p != Pauli::I))
                        .collect()
                };
                let mut signatures = HashSet::new();
                let mut groups: Vec<(u64, Vec<Option<Pauli>>)> = Vec::new();
                for term in &terms {
                    let setting = decode(fragment, &VariantKey::new(i, 0, term.settings[i]));
                    let own = support(term.string);
                    for (slot, basis) in own.iter().enumerate() {
                        if let Some(basis) = basis {
                            assert_eq!(
                                setting.output_bases[slot], *basis,
                                "fragment {i}: a setting disagrees with its term on slot {slot}"
                            );
                        }
                    }
                    signatures
                        .insert(own.iter().map(|b| b.unwrap_or(Pauli::Z)).collect::<Vec<_>>());
                    let at = match groups.iter().position(|(s, _)| *s == term.settings[i]) {
                        Some(at) => at,
                        None => {
                            groups.push((term.settings[i], vec![None; own.len()]));
                            groups.len() - 1
                        }
                    };
                    for (slot, basis) in groups[at].1.iter_mut().zip(&own) {
                        *slot = slot.or(*basis);
                    }
                }
                let requested: HashSet<u64> = requests
                    .iter()
                    .filter(|r| r.key.fragment == i)
                    .map(|r| r.key.outputs)
                    .collect();
                let served: HashSet<u64> = groups.iter().map(|&(s, _)| s).collect();
                assert_eq!(
                    requested, served,
                    "fragment {i}: requested settings differ from served"
                );
                assert!(
                    groups.len() <= signatures.len(),
                    "fragment {i}: more settings than signatures"
                );
                for (a, (_, first)) in groups.iter().enumerate() {
                    for (_, second) in &groups[a + 1..] {
                        let conflict = first
                            .iter()
                            .zip(second)
                            .any(|pair| matches!(pair, (Some(x), Some(y)) if x != y));
                        assert!(conflict, "fragment {i}: two settings could share one group");
                    }
                }
                groups.len()
            })
            .collect()
    }

    /// The structural circuit dedup the ordinal rule replaced: every key
    /// instantiated, circuits numbered in first-seen order of structural
    /// equality (hash buckets, equality checked on collisions), across
    /// fragments.
    fn structural_partition(fragments: &FragmentSet, requests: &[VariantRequest]) -> Vec<usize> {
        let mut circuits: Vec<Circuit> = Vec::new();
        let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
        requests
            .iter()
            .map(|request| {
                let circuit = fragments.instantiate_key(&request.key).unwrap();
                let bucket = buckets.entry(circuit.structural_hash()).or_default();
                match bucket.iter().copied().find(|&i| circuits[i].structurally_equal(&circuit)) {
                    Some(i) => i,
                    None => {
                        circuits.push(circuit);
                        bucket.push(circuits.len() - 1);
                        circuits.len() - 1
                    }
                }
            })
            .collect()
    }

    /// Checks one workload's enumeration and dedup against the oracles and
    /// returns its `(unique variants, executed circuits)`. The ordinal rule
    /// must never merge circuits the structural dedup keeps apart; with
    /// `exact` it must also find every identity the structural dedup finds.
    fn check_workload(
        fragments: &FragmentSet,
        observable: Option<&PauliObservable>,
        exact: bool,
    ) -> (usize, usize) {
        let requests = match observable {
            Some(observable) => {
                ExpectationReconstructor::new().requests(fragments, observable).unwrap()
            }
            None => ProbabilityReconstructor::new().requests(fragments).unwrap(),
        };
        if let Some(observable) = observable {
            check_groups(fragments, observable);
        }
        let decoded: Vec<(usize, FragmentVariant)> = requests
            .iter()
            .map(|r| (r.key.fragment, decode(&fragments.fragments[r.key.fragment], &r.key)))
            .collect();
        assert_eq!(decoded, old_keys(fragments, observable), "keys or their order differ");
        let batch = prepare_batch(fragments, &requests).unwrap();
        assert_eq!(batch.keys.len(), requests.len(), "enumerated keys are unique");
        // keys the rule maps to one circuit build structurally equal ones
        let structural = structural_partition(fragments, &requests);
        let mut class = vec![None; batch.circuits.len()];
        for (&rule, &found) in batch.circuit_of_key.iter().zip(&structural) {
            assert!(
                *class[rule].get_or_insert(found) == found,
                "the rule merged distinct circuits"
            );
        }
        if exact {
            assert_eq!(batch.circuit_of_key, structural, "the rule missed an identity");
        }
        (batch.keys.len(), batch.circuits.len())
    }

    fn fragments_of(circuit: &Circuit, config: QrccConfig) -> FragmentSet {
        let plan =
            CutPlanner::new(config.with_ilp_time_limit(Duration::ZERO)).plan(circuit).unwrap();
        FragmentSet::from_plan(&plan).unwrap()
    }

    #[test]
    fn benchmark_families_enumerate_the_old_keys_and_dedup_like_the_structural_hash() {
        let (tfim, lattice) = generators::hamiltonian_simulation(
            HamiltonianKind::TransverseFieldIsing,
            3,
            4,
            false,
            1,
            0.1,
        );
        let ising = PauliObservable::ising(&lattice, 1.0, 0.5);
        let fragments = fragments_of(&tfim, QrccConfig::new(8));
        assert_eq!(check_workload(&fragments, Some(&ising), true), (674, 674));

        let (reg8, graph) = generators::qaoa_regular(8, 3, 1, 3);
        let fragments = fragments_of(&reg8, QrccConfig::new(5).with_gate_cuts(true));
        let maxcut = PauliObservable::maxcut(&graph);
        assert_eq!(check_workload(&fragments, Some(&maxcut), true), (1512, 875));

        let fragments = fragments_of(&generators::aqft(20, 4), QrccConfig::new(12));
        assert_eq!(check_workload(&fragments, None, true), (91, 91));

        let vqe = generators::vqe_two_local(20, 2, 7);
        let fragments = fragments_of(&vqe, QrccConfig::new(12));
        assert_eq!(check_workload(&fragments, Some(&PauliObservable::all_z(20)), true), (25, 25));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// On small random plans, with and without gate cuts, the
        /// enumerated keys decode to the old enumerator's unique keys in its
        /// order, and the ordinal rule only groups keys whose circuits the
        /// structural hash found equal. (A wire cut passing through a
        /// fragment with no gate between its preparation and measurement
        /// gives the hash identities the rule leaves apart, e.g. |+⟩
        /// measured in Z and |0⟩ measured in X.)
        #[test]
        fn random_plans_enumerate_the_old_keys_and_never_merge_distinct_circuits(
            seed in any::<u64>(),
            gate_cuts in any::<bool>(),
        ) {
            let mut rng = Rng(seed);
            let Some((_, fragments)) = random_plan(&mut rng, gate_cuts) else { return Ok(()) };
            prop_assume!(fragments.num_wire_cuts() + fragments.num_gate_cuts() <= 6);
            let observable = random_observable(&mut rng, fragments.original_qubits, 3);
            check_workload(&fragments, Some(&observable), false);
            if fragments.num_gate_cuts() == 0 {
                check_workload(&fragments, None, false);
            }
        }

        /// Random I/X/Y/Z observables on small random plans, with and
        /// without gate cuts: the measurement grouping keeps its invariants
        /// ([`check_groups`]), the same observable with X and Y read as Z
        /// gets the single all-Z setting per fragment, and the grouped
        /// reconstruction equals the state vector to 1e-9 under `Dense` and
        /// `Contract`.
        #[test]
        fn random_observables_group_into_settings_and_reconstruct_exactly(
            seed in any::<u64>(),
            gate_cuts in any::<bool>(),
            terms in 1..9usize,
        ) {
            let mut rng = Rng(seed);
            let Some((circuit, fragments)) = random_plan(&mut rng, gate_cuts) else {
                return Ok(());
            };
            prop_assume!(fragments.num_wire_cuts() + fragments.num_gate_cuts() <= 5);
            let n = fragments.original_qubits;
            let observable = random_observable(&mut rng, n, terms);
            check_groups(&fragments, &observable);

            let mut z_only = PauliObservable::new(n);
            for (coefficient, string) in observable.terms() {
                let paulis = string.paulis().iter().map(|&p| if p == Pauli::I { p } else { Pauli::Z });
                z_only.add_term(*coefficient, PauliString::from_paulis(paulis.collect()));
            }
            prop_assert!(check_groups(&fragments, &z_only).iter().all(|&settings| settings == 1));

            let requests = ExpectationReconstructor::new().requests(&fragments, &observable).unwrap();
            let results = execute_requests(&fragments, &requests, &ExactBackend::new()).unwrap();
            let exact = StateVector::from_circuit(&circuit).unwrap().expectation(&observable);
            for strategy in [ReconstructionStrategy::Dense, ReconstructionStrategy::Contract] {
                let options = ReconstructionOptions { strategy, ..ReconstructionOptions::default() };
                let got = ExpectationReconstructor::with_options(options)
                    .reconstruct(&fragments, &results, &observable)
                    .unwrap();
                prop_assert!((got - exact).abs() < 1e-9, "{:?}: {} vs exact {}", strategy, got, exact);
            }
        }
    }

    /// A small random plan: a 4–6 qubit CX ladder plus 4–11 random gates,
    /// cut for a 3-qubit device, with gate cuts when `gate_cuts`; `None`
    /// when the planner finds no plan.
    fn random_plan(rng: &mut Rng, gate_cuts: bool) -> Option<(Circuit, FragmentSet)> {
        let n = 4 + rng.below(3);
        let mut circuit = Circuit::new(n);
        circuit.h(0);
        for q in 0..n - 1 {
            circuit.cx(q, q + 1);
        }
        for _ in 0..4 + rng.below(8) {
            let (a, b) = (rng.below(n), rng.below(n));
            let theta = rng.next() as f64 / u64::MAX as f64 * 3.0;
            match rng.below(4) {
                0 if a != b => circuit.rzz(theta, a, b),
                1 if a != b => circuit.cx(a, b),
                2 => circuit.ry(theta, a),
                _ => circuit.h(a),
            };
        }
        let config = QrccConfig::new(3)
            .with_subcircuit_range(2, 3)
            .with_gate_cuts(gate_cuts)
            .with_ilp_time_limit(Duration::ZERO);
        let plan = CutPlanner::new(config).plan(&circuit).ok()?;
        let fragments = FragmentSet::from_plan(&plan).unwrap();
        Some((circuit, fragments))
    }

    /// `terms` unit-weight Pauli strings on `n` qubits, each qubit I, X, Y
    /// or Z uniformly.
    fn random_observable(rng: &mut Rng, n: usize, terms: usize) -> PauliObservable {
        let mut observable = PauliObservable::new(n);
        for _ in 0..terms {
            let paulis = (0..n).map(|_| [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z][rng.below(4)]);
            observable.add_term(1.0, PauliString::from_paulis(paulis.collect()));
        }
        observable
    }
}
