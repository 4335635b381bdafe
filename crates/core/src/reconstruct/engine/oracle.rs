//! Test oracle for the reconstruction kernels: the component-grid loops the
//! production kernels replaced, kept verbatim in spirit — every outcome is
//! distributed over the full `4^in · 4^out` component grid through
//! [`init_weight`] / [`required_basis`] / [`cut_bit_weight`], and the dense
//! readout gathers each fragment's payload index bit by bit per output — so
//! the sum-factorised folds and the output-sliced readout are checked
//! against Eq. (3) as written, not against themselves.

use super::{CutTensor, Leg};
use crate::fragment::{Fragment, FragmentSet, FragmentVariant};
use crate::gatecut::instance_measures;
use crate::reconstruct::{cut_bit_weight, init_weight, required_basis, Odometer};
use qrcc_circuit::observable::{Pauli, PauliString};

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
        dense_probabilities, probability_variants, ExpectationFolder, FragmentFolder, TRIVIAL,
    };
    use super::*;
    use crate::execute::{execute_requests, ExactBackend, ExecutionResults};
    use crate::fragment::{CutBasis, InitState, VariantKey};
    use crate::gatecut::GateHalf;
    use crate::planner::CutPlanner;
    use crate::reconstruct::ProbabilityReconstructor;
    use crate::QrccConfig;
    use proptest::prelude::*;
    use qrcc_circuit::Circuit;
    use qrcc_sim::StateVector;
    use std::time::Duration;

    /// SplitMix64: derives a whole synthetic fold case from one seed.
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

    /// Twelve random `(variant, distribution)` pairs for `fragment`; about a
    /// quarter of every distribution's outcomes are exactly zero.
    fn executed(rng: &mut Rng, fragment: &Fragment) -> Vec<(FragmentVariant, Vec<f64>)> {
        (0..12)
            .map(|_| {
                let variant = FragmentVariant {
                    init_states: (0..fragment.incoming_cuts.len())
                        .map(|_| InitState::ALL[rng.below(4)])
                        .collect(),
                    cut_bases: (0..fragment.outgoing_cuts.len())
                        .map(|_| CutBasis::ALL[rng.below(3)])
                        .collect(),
                    gate_instances: (0..fragment.gate_cut_roles.len())
                        .map(|_| 1 + rng.below(6))
                        .collect(),
                    output_bases: vec![Pauli::Z; fragment.output_clbits.len()],
                };
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
                (variant, dist)
            })
            .collect()
    }

    /// One fragment's probability tensor, folded from `results` in
    /// enumeration order.
    fn folded_tensor(fragment: &Fragment, results: &ExecutionResults) -> CutTensor {
        let (mut tensor, mut folder) = FragmentFolder::probability(fragment);
        for variant in probability_variants(fragment) {
            let key = VariantKey::new(fragment.index, variant);
            let dist: &[f64] = if fragment.num_clbits == 0 {
                &TRIVIAL
            } else {
                results.distribution(&key).unwrap()
            };
            tensor.fold_partial(&mut folder, &key.variant, dist);
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

        /// The sum-factorised expectation fold equals the component-grid
        /// oracle, in one batch and re-delivered as shuffled chunks.
        #[test]
        fn expectation_fold_matches_the_component_grid(
            num_in in 0..4usize,
            num_out in 0..4usize,
            roles in 0..3usize,
            outputs in 0..3usize,
            seed in any::<u64>(),
        ) {
            let mut rng = Rng(seed);
            let fragment = fragment(&mut rng, num_in, num_out, roles, outputs);
            let string = PauliString::from_paulis(
                (0..outputs).map(|_| [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z][rng.below(4)]).collect(),
            );
            let mut batch = executed(&mut rng, &fragment);

            let (mut want, _) = ExpectationFolder::expectation(&fragment, &string);
            let (mut got, mut folder) = ExpectationFolder::expectation(&fragment, &string);
            for (variant, dist) in &batch {
                fold_expectation_partial(&mut want, &fragment, &string, variant, dist);
                got.fold_expectation_partial(&mut folder, variant, dist);
            }
            assert_close(&got, &want)?;

            rng.shuffle(&mut batch);
            let (mut chunked, _) = ExpectationFolder::expectation(&fragment, &string);
            for chunk in batch.chunks(5) {
                // every chunk arrives at a folder another variant last used
                for (variant, dist) in chunk {
                    chunked.fold_expectation_partial(&mut folder, variant, dist);
                }
            }
            assert_close(&chunked, &want)?;
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
            for (variant, dist) in &batch {
                fold_partial(&mut want, &fragment, variant, dist);
                got.fold_partial(&mut folder, variant, dist);
            }
            assert_close(&got, &want)?;

            rng.shuffle(&mut batch);
            let (mut chunked, _) = FragmentFolder::probability(&fragment);
            for chunk in batch.chunks(5) {
                for (variant, dist) in chunk {
                    chunked.fold_partial(&mut folder, variant, dist);
                }
            }
            assert_close(&chunked, &want)?;
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
            let tensors: Vec<CutTensor> =
                fragments.fragments.iter().map(|f| folded_tensor(f, &results)).collect();
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
}
