//! Subcircuit fragments: the executable pieces a cut plan produces.
//!
//! A [`Fragment`] is one subcircuit, already mapped onto physical qubits
//! (with qubit reuse applied), with *slots* at every cut point:
//!
//! * incoming wire cuts become preparation slots (|0⟩, |1⟩, |+⟩ or |i⟩ per
//!   variant),
//! * outgoing wire cuts become measurement slots (Z, X or Y basis per
//!   variant),
//! * gate-cut halves become instance slots (one of the six Mitarai–Fujii
//!   instances per variant),
//! * original-circuit outputs become terminal measurements (optionally
//!   rotated into a Pauli basis for expectation-value workloads).
//!
//! A variant is the integer [`VariantKey`] `(fragment, ordinal, outputs)`,
//! and [`Fragment::instantiate`] turns a fragment plus a variant's ordinal
//! and output bases into a concrete [`Circuit`] ready for a device or
//! simulator, from a skeleton lowered once per fragment.

use crate::gatecut::{instance_op, zz_form, GateHalf, InstanceOp, ZzForm};
use crate::planner::CutPlan;
use crate::spec::{assign_intervals, Segment, WireCutPoint};
use crate::CoreError;
use qrcc_circuit::dag::NodeId;
use qrcc_circuit::{Circuit, Gate, Operation, QubitId};
use std::collections::HashMap;

/// Initial state of a wire-cut initialisation slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InitState {
    /// |0⟩
    Zero,
    /// |1⟩
    One,
    /// |+⟩
    Plus,
    /// |i⟩ = (|0⟩ + i|1⟩)/√2
    PlusI,
}

impl InitState {
    /// All four initialisation states, in reconstruction order.
    pub const ALL: [InitState; 4] =
        [InitState::Zero, InitState::One, InitState::Plus, InitState::PlusI];
}

/// Measurement basis of a wire-cut measurement slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CutBasis {
    /// Computational (Z) basis — also covers the identity attribution.
    Z,
    /// X basis.
    X,
    /// Y basis.
    Y,
}

impl CutBasis {
    /// All three bases, in reconstruction order.
    pub const ALL: [CutBasis; 3] = [CutBasis::Z, CutBasis::X, CutBasis::Y];
}

/// Identity of one fragment variant, as three integers (the CutQC
/// "subcircuit, indexed combination" shape).
///
/// * `ordinal` is a little-endian mixed-radix index over the fragment's
///   slots: the outgoing-cut bases ([`CutBasis::ALL`], radix 3) in the
///   lowest digits, then the incoming-cut init states ([`InitState::ALL`],
///   radix 4), then the gate-cut instances (1..=6 as digits 0..=5, radix 6),
///   slot 0 of each group least significant. It runs over
///   `0..`[`Fragment::variant_count`].
/// * `outputs` packs the measurement basis of every original-circuit output
///   (parallel to [`Fragment::output_clbits`]) in 2 bits each, slot `i` at
///   bits `2i..2i + 2`: 0 measures in Z (which an identity factor shares),
///   1 in X, 2 in Y.
///
/// Ordinal 0 with outputs 0 is the identity configuration: |0⟩ inits, Z
/// bases everywhere, gate-cut instance 1. Keys order by `(fragment,
/// ordinal, outputs)`, the order every fold walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VariantKey {
    /// Index of the fragment within its [`FragmentSet`].
    pub fragment: usize,
    /// Mixed-radix index of the slot configuration.
    pub ordinal: u64,
    /// Output bases, 2 bits per output.
    pub outputs: u64,
}

impl VariantKey {
    /// The key of variant `ordinal` of `fragment` with packed output bases
    /// `outputs`.
    pub fn new(fragment: usize, ordinal: u64, outputs: u64) -> Self {
        VariantKey { fragment, ordinal, outputs }
    }
}

/// A variant ordinal read digit by digit in [`VariantKey`] order: every
/// outgoing-cut basis, then every init state, then every gate-cut instance.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Digits(pub(crate) u64);

impl Digits {
    fn next(&mut self, radix: u64) -> usize {
        let digit = self.0 % radix;
        self.0 /= radix;
        digit as usize
    }

    pub(crate) fn basis(&mut self) -> CutBasis {
        CutBasis::ALL[self.next(3)]
    }

    pub(crate) fn init(&mut self) -> InitState {
        InitState::ALL[self.next(4)]
    }

    /// The next gate-cut instance, `1..=6`.
    pub(crate) fn instance(&mut self) -> usize {
        self.next(6) + 1
    }
}

/// A request for one fragment-variant execution, as pure data.
///
/// Reconstructors *enumerate* the requests they need (each variant once),
/// the pipeline maps them to circuits and executes one batch, and the
/// reconstructors then *consume* the resulting
/// [`ExecutionResults`](crate::execute::ExecutionResults).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VariantRequest {
    /// The requested variant.
    pub key: VariantKey,
}

/// One operation of a fragment's skeleton, lowered once when the fragment
/// is built: a slot reads its digit of a variant's ordinal at `place`.
#[derive(Debug, Clone, PartialEq)]
pub enum SkeletonOp {
    /// An operation every variant runs unchanged (a gate or a reset).
    Fixed(Operation),
    /// An incoming wire cut: prepares one of [`InitState::ALL`] (digit
    /// `ordinal / place % 4`).
    Prep {
        /// Place value of the slot's digit.
        place: u64,
        /// The prepared qubit.
        qubit: QubitId,
    },
    /// An outgoing wire cut: measures in one of [`CutBasis::ALL`] (digit
    /// `ordinal / place % 3`).
    CutMeasure {
        /// Place value of the slot's digit.
        place: u64,
        /// The measured qubit.
        qubit: QubitId,
        /// The classical bit receiving the outcome.
        clbit: usize,
    },
    /// An original-circuit output: measures in the basis packed at bits
    /// `shift..shift + 2` of a variant's `outputs`.
    OutputMeasure {
        /// Bit offset of the output's basis code.
        shift: u32,
        /// The measured qubit.
        qubit: QubitId,
        /// The classical bit receiving the outcome.
        clbit: usize,
    },
    /// One half of a gate cut: the local gates around the ZZ core, with
    /// one of the six instances (digit `ordinal / place % 6`) in between.
    GateCutHalf {
        /// Place value of the slot's digit.
        place: u64,
        /// Which half of the cut gate this is.
        half: GateHalf,
        /// The half's qubit.
        qubit: QubitId,
        /// The classical bit a measuring instance writes.
        clbit: usize,
        /// Local gates before the instance.
        pre: Vec<Operation>,
        /// Local gates after the instance.
        post: Vec<Operation>,
    },
}

/// Everything instantiating a fragment's variants reads: registers, slot
/// layout and the lowered skeleton. A [`Fragment`] owns one; a remote
/// worker receives it once per connection and then instantiates
/// `(ordinal, outputs)` pairs against it, so [`FragmentBody::new`] checks
/// every invariant [`FragmentBody::instantiate`] relies on.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentBody {
    name: String,
    num_qubits: usize,
    num_clbits: usize,
    num_outputs: usize,
    variant_count: u64,
    skeleton: Vec<SkeletonOp>,
    weight: usize,
}

/// One unit per operation plus one per barrier operand: the
/// [`FragmentBody::weight`] of a plain operation.
fn operation_weight(op: &Operation) -> usize {
    match op {
        Operation::Barrier { qubits } => 1 + qubits.len(),
        _ => 1,
    }
}

impl FragmentBody {
    /// A body over `num_qubits` qubits and `num_clbits` classical bits
    /// with `num_outputs` output slots and `variant_count` slot
    /// configurations.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidCutSolution`] when an operation names a qubit or
    /// classical bit outside the registers, a gate has the wrong arity, a
    /// repeated qubit or a non-finite angle, a slot has place 0, an output
    /// shift is not the even bit offset of an output slot, or the slot
    /// radices (4 per prep, 3 per cut measure, 6 per gate-cut half) do not
    /// multiply to `variant_count`.
    pub fn new(
        name: String,
        num_qubits: usize,
        num_clbits: usize,
        num_outputs: usize,
        variant_count: u64,
        skeleton: Vec<SkeletonOp>,
    ) -> Result<Self, CoreError> {
        let invalid = |reason: String| CoreError::InvalidCutSolution { reason };
        if num_outputs > 32 {
            return Err(invalid(format!("{num_outputs} outputs do not pack into 64 bits")));
        }
        let qubit_ok = |qubit: &QubitId| qubit.index() < num_qubits;
        let check_op = |op: &Operation| -> Result<(), CoreError> {
            let fits = match op {
                Operation::Single { gate, qubit } => gate.is_single_qubit() && qubit_ok(qubit),
                Operation::Two { gate, qubits } => {
                    gate.is_two_qubit() && qubits[0] != qubits[1] && qubits.iter().all(qubit_ok)
                }
                Operation::Measure { qubit, clbit } => qubit_ok(qubit) && *clbit < num_clbits,
                Operation::Reset { qubit } => qubit_ok(qubit),
                Operation::Barrier { qubits } => qubits.iter().all(qubit_ok),
            };
            let finite = op.as_gate().is_none_or(Gate::params_finite);
            if fits && finite {
                Ok(())
            } else {
                Err(invalid(format!(
                    "operation {op:?} does not fit a {num_qubits}-qubit, \
                     {num_clbits}-clbit fragment"
                )))
            }
        };
        let slot = |place: u64, qubit: &QubitId, clbit: Option<usize>| {
            if place == 0 || !qubit_ok(qubit) || clbit.is_some_and(|c| c >= num_clbits) {
                Err(invalid(format!("slot at place {place} on {qubit} does not fit the fragment")))
            } else {
                Ok(())
            }
        };
        let mut radix_product = Some(1u64);
        let mut weight = name.len();
        for op in &skeleton {
            // the most operations each entry instantiates to
            weight += match op {
                SkeletonOp::Fixed(op) => operation_weight(op),
                SkeletonOp::Prep { .. } => 2,
                SkeletonOp::CutMeasure { .. } | SkeletonOp::OutputMeasure { .. } => 3,
                SkeletonOp::GateCutHalf { pre, post, .. } => {
                    1 + pre.iter().chain(post).map(operation_weight).sum::<usize>()
                }
            };
            let radix = match op {
                SkeletonOp::Fixed(op) => {
                    check_op(op)?;
                    continue;
                }
                SkeletonOp::Prep { place, qubit } => {
                    slot(*place, qubit, None)?;
                    4
                }
                SkeletonOp::CutMeasure { place, qubit, clbit } => {
                    slot(*place, qubit, Some(*clbit))?;
                    3
                }
                SkeletonOp::OutputMeasure { shift, qubit, clbit } => {
                    if shift % 2 != 0 || *shift as usize / 2 >= num_outputs {
                        return Err(invalid(format!(
                            "output shift {shift} names no slot of {num_outputs} outputs"
                        )));
                    }
                    slot(1, qubit, Some(*clbit))?;
                    continue;
                }
                SkeletonOp::GateCutHalf { place, qubit, clbit, pre, post, .. } => {
                    slot(*place, qubit, Some(*clbit))?;
                    pre.iter().chain(post).try_for_each(check_op)?;
                    6
                }
            };
            radix_product = radix_product.and_then(|p| p.checked_mul(radix));
        }
        if radix_product != Some(variant_count) {
            return Err(invalid(format!(
                "slot radices multiply to {radix_product:?}, not {variant_count} variants"
            )));
        }
        Ok(FragmentBody {
            name,
            num_qubits,
            num_clbits,
            num_outputs,
            variant_count,
            skeleton,
            weight,
        })
    }

    /// The name every instantiated circuit carries.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Qubits of every instantiated circuit.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Classical bits of every instantiated circuit.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// Output slots, 2 bits each in a variant's `outputs`.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// The range of a variant ordinal.
    pub fn variant_count(&self) -> u64 {
        self.variant_count
    }

    /// The lowered skeleton, in emission order.
    pub fn skeleton(&self) -> &[SkeletonOp] {
        &self.skeleton
    }

    /// An upper bound on the size of one instantiated circuit, counting
    /// each operation, each barrier operand and each byte of the name as
    /// one unit: what a remote worker budgets its memory by.
    pub fn weight(&self) -> usize {
        self.weight
    }

    /// Checks `(ordinal, outputs)` against this body: the ordinal is below
    /// [`FragmentBody::variant_count`], and `outputs` sets only output
    /// slots, each to a valid basis code.
    ///
    /// # Errors
    ///
    /// A description of the mismatch.
    pub fn check_variant(&self, ordinal: u64, outputs: u64) -> Result<(), String> {
        if ordinal >= self.variant_count {
            return Err(format!(
                "variant ordinal {ordinal} out of range ({} variants)",
                self.variant_count
            ));
        }
        let slots = 2 * self.num_outputs as u32;
        let stray = slots < 64 && outputs >> slots != 0;
        let bad_code = outputs & outputs >> 1 & 0x5555_5555_5555_5555 != 0;
        if stray || bad_code {
            return Err(format!(
                "output bases {outputs:#x} do not fit {} outputs",
                self.num_outputs
            ));
        }
        Ok(())
    }

    /// Builds the concrete circuit of variant `ordinal` with packed output
    /// bases `outputs` (see [`VariantKey`]).
    ///
    /// # Panics
    ///
    /// Panics if `ordinal` is not below [`FragmentBody::variant_count`].
    pub fn instantiate(&self, ordinal: u64, outputs: u64) -> Circuit {
        assert!(ordinal < self.variant_count, "variant ordinal out of range");
        let mut circuit = Circuit::with_clbits(self.num_qubits, self.num_clbits);
        // room for the skeleton plus one rotation gate pair per slot
        circuit.set_name(self.name.as_str()).reserve(2 * self.skeleton.len());
        let gate = |circuit: &mut Circuit, gate: Gate, qubit: QubitId| {
            circuit.push(Operation::Single { gate, qubit });
        };
        let rotate_to = |circuit: &mut Circuit, basis: u64, qubit: QubitId| match basis {
            0 => {}
            1 => gate(circuit, Gate::H, qubit),
            _ => {
                gate(circuit, Gate::Sdg, qubit);
                gate(circuit, Gate::H, qubit);
            }
        };
        for op in &self.skeleton {
            match op {
                SkeletonOp::Fixed(op) => {
                    circuit.push(op.clone());
                }
                &SkeletonOp::Prep { place, qubit } => {
                    match InitState::ALL[(ordinal / place % 4) as usize] {
                        InitState::Zero => {}
                        InitState::One => gate(&mut circuit, Gate::X, qubit),
                        InitState::Plus => gate(&mut circuit, Gate::H, qubit),
                        InitState::PlusI => {
                            gate(&mut circuit, Gate::H, qubit);
                            gate(&mut circuit, Gate::S, qubit);
                        }
                    }
                }
                &SkeletonOp::CutMeasure { place, qubit, clbit } => {
                    rotate_to(&mut circuit, ordinal / place % 3, qubit);
                    circuit.push(Operation::Measure { qubit, clbit });
                }
                &SkeletonOp::OutputMeasure { shift, qubit, clbit } => {
                    rotate_to(&mut circuit, outputs >> shift & 3, qubit);
                    circuit.push(Operation::Measure { qubit, clbit });
                }
                SkeletonOp::GateCutHalf { place, half, qubit, clbit, pre, post } => {
                    for op in pre {
                        circuit.push(op.clone());
                    }
                    let instance = (ordinal / place % 6) as usize + 1;
                    match instance_op(instance, *half) {
                        InstanceOp::Nothing => {}
                        InstanceOp::PauliZ => gate(&mut circuit, Gate::Z, *qubit),
                        InstanceOp::Rz(angle) => gate(&mut circuit, Gate::Rz(angle), *qubit),
                        InstanceOp::MeasureSign => {
                            circuit.push(Operation::Measure { qubit: *qubit, clbit: *clbit });
                        }
                    }
                    for op in post {
                        circuit.push(op.clone());
                    }
                }
            }
        }
        circuit
    }
}

/// One subcircuit of a cut plan, mapped to physical qubits.
#[derive(Debug, Clone, PartialEq)]
pub struct Fragment {
    /// Subcircuit index within the plan.
    pub index: usize,
    /// Number of physical qubits the fragment needs.
    pub num_physical: usize,
    /// Number of classical bits of every instantiated variant.
    pub num_clbits: usize,
    body: FragmentBody,
    /// Global wire-cut ids whose initialisation side lands in this fragment.
    pub incoming_cuts: Vec<usize>,
    /// Global wire-cut ids whose measurement side lands in this fragment.
    pub outgoing_cuts: Vec<usize>,
    /// Gate-cut roles hosted by this fragment: (global gate-cut id, half).
    pub gate_cut_roles: Vec<(usize, GateHalf)>,
    /// `(original qubit, classical bit)` pairs for the original-circuit
    /// outputs this fragment produces.
    pub output_clbits: Vec<(usize, usize)>,
    /// `(global wire-cut id, classical bit)` pairs for outgoing-cut
    /// measurements.
    pub cut_clbits: Vec<(usize, usize)>,
    /// `(global gate-cut id, classical bit)` pairs for gate-cut instance
    /// measurements (the bit is only written by measuring instances).
    pub gatecut_clbits: Vec<(usize, usize)>,
}

#[cfg(test)]
impl Fragment {
    /// A skeleton-free fragment with the given slot layout, for the
    /// reconstruction-kernel tests that fold synthetic distributions: it can
    /// be folded but not instantiated.
    pub(crate) fn with_slots(
        num_clbits: usize,
        incoming_cuts: Vec<usize>,
        cut_clbits: Vec<(usize, usize)>,
        gate_roles: Vec<(usize, GateHalf, usize)>,
        output_clbits: Vec<(usize, usize)>,
    ) -> Fragment {
        let mut fragment = Fragment {
            index: 0,
            num_physical: 0,
            num_clbits,
            body: FragmentBody {
                name: String::new(),
                num_qubits: 0,
                num_clbits,
                num_outputs: output_clbits.len(),
                variant_count: 0,
                skeleton: Vec::new(),
                weight: 0,
            },
            incoming_cuts,
            outgoing_cuts: cut_clbits.iter().map(|&(cut, _)| cut).collect(),
            gate_cut_roles: gate_roles.iter().map(|&(cut, half, _)| (cut, half)).collect(),
            output_clbits,
            cut_clbits,
            gatecut_clbits: gate_roles.iter().map(|&(cut, _, clbit)| (cut, clbit)).collect(),
        };
        fragment.body.variant_count = fragment.variant_count();
        fragment
    }
}

impl Fragment {
    /// The number of cut legs this fragment carries: incoming and outgoing
    /// wire cuts plus gate-cut roles — the axes of its reconstruction tensor.
    pub fn cut_leg_count(&self) -> usize {
        self.incoming_cuts.len() + self.outgoing_cuts.len() + self.gate_cut_roles.len()
    }

    /// The place value of the first gate-cut instance digit in a variant
    /// ordinal: `4^incoming · 3^outgoing`, the number of wire-slot
    /// configurations.
    pub(crate) fn gate_place(&self) -> u64 {
        4u64.pow(self.incoming_cuts.len() as u32) * 3u64.pow(self.outgoing_cuts.len() as u32)
    }

    /// The number of executable variants this fragment has:
    /// `4^incoming · 3^outgoing · 6^gate_roles` (ignoring output-basis
    /// changes) — the range of a [`VariantKey::ordinal`].
    pub fn variant_count(&self) -> u64 {
        self.gate_place() * 6u64.pow(self.gate_cut_roles.len() as u32)
    }

    /// The ordinal of the variant whose circuit `ordinal` instantiates to.
    /// The two measuring instances of a gate-cut half differ only in the
    /// other half's rotation, so they build the same circuit here: on the
    /// Top half instance 4 maps to 3, on the Bottom half 6 maps to 5. Every
    /// other slot change alters the circuit.
    pub(crate) fn canonical_ordinal(&self, ordinal: u64) -> u64 {
        let mut place = self.gate_place();
        let mut canonical = ordinal;
        for &(_, half) in &self.gate_cut_roles {
            let alias = match half {
                GateHalf::Top => 3,
                GateHalf::Bottom => 5,
            };
            if ordinal / place % 6 == alias {
                canonical -= place;
            }
            place *= 6;
        }
        canonical
    }

    /// What instantiating this fragment's variants reads — the part a
    /// remote worker receives.
    pub fn body(&self) -> &FragmentBody {
        &self.body
    }

    /// Builds the concrete circuit of variant `ordinal` with packed output
    /// bases `outputs` (see [`VariantKey`]).
    ///
    /// # Panics
    ///
    /// Panics if `ordinal` is not below [`Fragment::variant_count`].
    pub fn instantiate(&self, ordinal: u64, outputs: u64) -> Circuit {
        self.body.instantiate(ordinal, outputs)
    }
}

/// All fragments of a cut plan plus the bookkeeping needed to reconstruct.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentSet {
    /// The fragments, indexed by subcircuit id.
    pub fragments: Vec<Fragment>,
    /// The plan's wire cuts; global wire-cut id = index into this vector.
    pub wire_cuts: Vec<WireCutPoint>,
    /// The plan's gate-cut DAG nodes; global gate-cut id = index.
    pub gate_cut_nodes: Vec<NodeId>,
    /// ZZ normal form of every gate cut (indexed by gate-cut id).
    pub gate_cut_forms: Vec<ZzForm>,
    /// Number of qubits of the original circuit.
    pub original_qubits: usize,
    /// For each original qubit, the fragment producing its final value
    /// (`None` for idle wires, which stay in |0⟩).
    pub output_owner: Vec<Option<usize>>,
}

impl FragmentSet {
    /// Number of wire cuts.
    pub fn num_wire_cuts(&self) -> usize {
        self.wire_cuts.len()
    }

    /// Number of gate cuts.
    pub fn num_gate_cuts(&self) -> usize {
        self.gate_cut_nodes.len()
    }

    /// Total number of subcircuit instances that need to be executed
    /// (the paper's "42 instances" accounting for its Table 3 example).
    pub fn total_variants(&self) -> u64 {
        self.fragments.iter().map(Fragment::variant_count).sum()
    }

    /// For each wire cut id, the fragments hosting its two sides:
    /// `(measuring fragment, preparing fragment)`. A side is `None` only for
    /// inconsistent plans (every planner-produced cut has both).
    pub fn wire_cut_endpoints(&self) -> Vec<(Option<usize>, Option<usize>)> {
        let mut endpoints = vec![(None, None); self.num_wire_cuts()];
        for fragment in &self.fragments {
            for &cut in &fragment.outgoing_cuts {
                endpoints[cut].0 = Some(fragment.index);
            }
            for &cut in &fragment.incoming_cuts {
                endpoints[cut].1 = Some(fragment.index);
            }
        }
        endpoints
    }

    /// For each gate cut id, the fragments hosting its two halves:
    /// `(top fragment, bottom fragment)`.
    pub fn gate_cut_endpoints(&self) -> Vec<(Option<usize>, Option<usize>)> {
        let mut endpoints = vec![(None, None); self.num_gate_cuts()];
        for fragment in &self.fragments {
            for &(cut, half) in &fragment.gate_cut_roles {
                match half {
                    GateHalf::Top => endpoints[cut].0 = Some(fragment.index),
                    GateHalf::Bottom => endpoints[cut].1 = Some(fragment.index),
                }
            }
        }
        endpoints
    }

    /// The cut graph over fragments: `adjacency[f]` lists the fragments that
    /// share at least one wire or gate cut with fragment `f`, sorted and
    /// deduplicated. The contraction engine's pairwise merges walk the edges
    /// of this graph; its connectivity determines how far the `Contract`
    /// strategy can undercut the dense `4^cuts` loop.
    pub fn cut_adjacency(&self) -> Vec<Vec<usize>> {
        let mut adjacency = vec![Vec::new(); self.fragments.len()];
        let link = |a: Option<usize>, b: Option<usize>, adjacency: &mut Vec<Vec<usize>>| {
            if let (Some(a), Some(b)) = (a, b) {
                if a != b {
                    adjacency[a].push(b);
                    adjacency[b].push(a);
                }
            }
        };
        for (measure, prepare) in self.wire_cut_endpoints() {
            link(measure, prepare, &mut adjacency);
        }
        for (top, bottom) in self.gate_cut_endpoints() {
            link(top, bottom, &mut adjacency);
        }
        for neighbours in &mut adjacency {
            neighbours.sort_unstable();
            neighbours.dedup();
        }
        adjacency
    }

    /// The fragment `key` names, once `key` is checked against it: the
    /// fragment exists, the ordinal is below its
    /// [`variant_count`](Fragment::variant_count), and `outputs` sets only
    /// the fragment's output slots, each to a valid basis code.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidCutSolution`] naming the mismatch.
    pub fn fragment_of(&self, key: &VariantKey) -> Result<&Fragment, CoreError> {
        let invalid = |reason: String| Err(CoreError::InvalidCutSolution { reason });
        let Some(fragment) = self.fragments.get(key.fragment) else {
            return invalid(format!(
                "variant key references fragment {} but the set has {}",
                key.fragment,
                self.fragments.len()
            ));
        };
        fragment.body.check_variant(key.ordinal, key.outputs).map_err(|reason| {
            CoreError::InvalidCutSolution { reason: format!("fragment {}: {reason}", key.fragment) }
        })?;
        Ok(fragment)
    }

    /// Instantiates the circuit a [`VariantKey`] identifies, validating the
    /// key against this set first.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidCutSolution`] when the key does not fit
    /// the set ([`FragmentSet::fragment_of`]).
    pub fn instantiate_key(&self, key: &VariantKey) -> Result<Circuit, CoreError> {
        Ok(self.fragment_of(key)?.instantiate(key.ordinal, key.outputs))
    }

    /// Builds the fragments of a cut plan.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::GateNotCuttable`] if the plan gate-cuts a gate
    /// without a ZZ normal form (the planner never does), and
    /// [`CoreError::InvalidCutSolution`] on internal inconsistencies.
    pub fn from_plan(plan: &CutPlan) -> Result<Self, CoreError> {
        let dag = plan.dag();
        let solution = plan.solution();
        let circuit = plan.circuit();
        let reuse = plan.config().qubit_reuse_enabled;

        let wire_cuts = solution.wire_cuts(dag);
        let segments = solution.segments(dag);
        let gate_cut_nodes = solution.gate_cuts.clone();
        let mut gate_cut_forms = Vec::with_capacity(gate_cut_nodes.len());
        for &node in &gate_cut_nodes {
            let gate = dag.node(node).op.as_gate().expect("gate-cut node is a gate");
            let form = zz_form(gate)
                .ok_or_else(|| CoreError::GateNotCuttable { gate: gate.name().to_string() })?;
            gate_cut_forms.push(form);
        }

        let mut output_owner = vec![None; circuit.num_qubits()];
        let mut fragments = Vec::with_capacity(solution.num_subcircuits);
        for sub in 0..solution.num_subcircuits {
            let fragment =
                build_fragment(sub, plan, &segments, &gate_cut_nodes, &gate_cut_forms, reuse)?;
            for &(orig, _) in &fragment.output_clbits {
                output_owner[orig] = Some(sub);
            }
            fragments.push(fragment);
        }

        Ok(FragmentSet {
            fragments,
            wire_cuts,
            gate_cut_nodes,
            gate_cut_forms,
            original_qubits: circuit.num_qubits(),
            output_owner,
        })
    }
}

fn build_fragment(
    sub: usize,
    plan: &CutPlan,
    all_segments: &[Segment],
    gate_cut_nodes: &[NodeId],
    gate_cut_forms: &[ZzForm],
    reuse: bool,
) -> Result<Fragment, CoreError> {
    let dag = plan.dag();
    let solution = plan.solution();

    // Segments of this fragment, ordered by (start layer, qubit) so that the
    // interval assignment below is deterministic.
    let mut segment_ids: Vec<usize> =
        (0..all_segments.len()).filter(|&i| all_segments[i].subcircuit == sub).collect();
    segment_ids.sort_by_key(|&i| (all_segments[i].start_layer, all_segments[i].qubit.index()));

    // Physical qubit per segment.
    let intervals: Vec<(usize, usize)> =
        segment_ids.iter().map(|&i| all_segments[i].interval()).collect();
    let physical: Vec<usize> = if reuse {
        assign_intervals(&intervals).physical
    } else {
        (0..segment_ids.len()).collect()
    };
    let num_physical = physical.iter().copied().max().map_or(0, |m| m + 1);

    // Map (node, wire) -> local segment slot.
    let mut node_segment: HashMap<(NodeId, usize), usize> = HashMap::new();
    let mut in_fragment = vec![false; dag.nodes().len()];
    for (slot, &seg_id) in segment_ids.iter().enumerate() {
        let seg = &all_segments[seg_id];
        for &node in &seg.nodes {
            node_segment.insert((node, seg.qubit.index()), slot);
            in_fragment[node] = true;
        }
    }

    // Classical bit layout: outputs (by original qubit), then outgoing cuts
    // (by cut id), then gate-cut roles (by gate-cut id).
    let mut output_clbits = Vec::new();
    let mut cut_clbits = Vec::new();
    let mut incoming_cuts = Vec::new();
    let mut outgoing_cuts = Vec::new();
    let mut output_segments: Vec<(usize, usize)> = Vec::new(); // (orig qubit, slot)
    for (slot, &seg_id) in segment_ids.iter().enumerate() {
        let seg = &all_segments[seg_id];
        if let Some(cut) = seg.incoming_cut {
            incoming_cuts.push((cut, slot));
        }
        if let Some(cut) = seg.outgoing_cut {
            outgoing_cuts.push((cut, slot));
        } else {
            output_segments.push((seg.qubit.index(), slot));
        }
    }
    output_segments.sort_unstable();
    incoming_cuts.sort_unstable();
    outgoing_cuts.sort_unstable();

    let mut clbit = 0usize;
    let mut output_clbit_of_slot: HashMap<usize, usize> = HashMap::new();
    for &(orig, slot) in &output_segments {
        output_clbits.push((orig, clbit));
        output_clbit_of_slot.insert(slot, clbit);
        clbit += 1;
    }
    let mut cut_clbit_of_slot: HashMap<usize, usize> = HashMap::new();
    for &(cut, slot) in &outgoing_cuts {
        cut_clbits.push((cut, clbit));
        cut_clbit_of_slot.insert(slot, clbit);
        clbit += 1;
    }

    // Gate-cut roles hosted by this fragment.
    let mut gate_cut_roles = Vec::new();
    let mut gatecut_clbits = Vec::new();
    for (cut_id, &node) in gate_cut_nodes.iter().enumerate() {
        let pos = solution.gate_cuts.iter().position(|&g| g == node).expect("listed gate cut");
        let (top, bottom) = solution.gate_cut_assignment[pos];
        if top == sub {
            gate_cut_roles.push((cut_id, GateHalf::Top));
        } else if bottom == sub {
            gate_cut_roles.push((cut_id, GateHalf::Bottom));
        } else {
            continue;
        }
        gatecut_clbits.push((cut_id, clbit));
        clbit += 1;
    }

    // Place value of every slot's digit in a variant ordinal: outgoing bases
    // lowest, then init states, then gate instances (see `VariantKey`).
    let init_place = 3u64.pow(outgoing_cuts.len() as u32);
    let gate_place = init_place * 4u64.pow(incoming_cuts.len() as u32);
    let prep_place: HashMap<usize, u64> = incoming_cuts
        .iter()
        .enumerate()
        .map(|(i, &(_, slot))| (slot, init_place * 4u64.pow(i as u32)))
        .collect();
    let measure_place: HashMap<usize, (u64, usize)> = outgoing_cuts
        .iter()
        .enumerate()
        .map(|(j, &(_, slot))| (slot, (3u64.pow(j as u32), cut_clbit_of_slot[&slot])))
        .collect();
    let output_shift: HashMap<usize, (u32, usize)> = output_segments
        .iter()
        .enumerate()
        .map(|(k, &(_, slot))| (slot, (2 * k as u32, output_clbit_of_slot[&slot])))
        .collect();
    let lowered = |gate: Gate, qubits: &[usize]| {
        let ids: Vec<QubitId> = qubits.iter().map(|&q| QubitId::new(q)).collect();
        Operation::gate(gate, &ids).expect("valid skeleton gate")
    };

    let mut skeleton = Vec::new();
    let mut physical_dirty = vec![false; num_physical.max(1)];
    let mut remaining_in_segment: Vec<usize> =
        segment_ids.iter().map(|&i| all_segments[i].nodes.len()).collect();
    let mut started_segment = vec![false; segment_ids.len()];

    // Emit the skeleton in the DAG's emission order.
    for node in dag.emission_order().into_iter().filter(|&node| in_fragment[node]) {
        let dag_node = dag.node(node);
        let node_qubits = dag_node.op.qubits();
        // start any segments this node begins (on wires owned by this fragment)
        for q in &node_qubits {
            if let Some(&slot) = node_segment.get(&(node, q.index())) {
                if !started_segment[slot] {
                    started_segment[slot] = true;
                    let phys = physical[slot];
                    let qubit = QubitId::new(phys);
                    if physical_dirty[phys] {
                        skeleton.push(SkeletonOp::Fixed(Operation::Reset { qubit }));
                    }
                    physical_dirty[phys] = true;
                    if let Some(&place) = prep_place.get(&slot) {
                        skeleton.push(SkeletonOp::Prep { place, qubit });
                    }
                }
            }
        }
        // emit the node itself
        if let Some(cut_id) = gate_cut_nodes.iter().position(|&g| g == node) {
            if let Some(role) = gate_cut_roles.iter().position(|&(cut, _)| cut == cut_id) {
                let half = gate_cut_roles[role].1;
                let wire_slot = match half {
                    GateHalf::Top => node_qubits[0].index(),
                    GateHalf::Bottom => node_qubits[1].index(),
                };
                let phys = physical[node_segment[&(node, wire_slot)]];
                let (pre, post) = gate_cut_forms[cut_id].locals(half);
                let local = |gates: &[Gate]| gates.iter().map(|&g| lowered(g, &[phys])).collect();
                skeleton.push(SkeletonOp::GateCutHalf {
                    place: gate_place * 6u64.pow(role as u32),
                    half,
                    qubit: QubitId::new(phys),
                    clbit: gatecut_clbits[role].1,
                    pre: local(pre),
                    post: local(post),
                });
            }
        } else {
            let phys = |q: &QubitId| physical[node_segment[&(node, q.index())]];
            let op = match &dag_node.op {
                Operation::Single { gate, qubit } => lowered(*gate, &[phys(qubit)]),
                Operation::Two { gate, qubits } => {
                    lowered(*gate, &[phys(&qubits[0]), phys(&qubits[1])])
                }
                other => {
                    return Err(CoreError::InvalidCutSolution {
                        reason: format!("unexpected non-gate operation {other:?} in cut circuit"),
                    })
                }
            };
            skeleton.push(SkeletonOp::Fixed(op));
        }
        // finish any segments this node ends
        for q in &node_qubits {
            if let Some(&slot) = node_segment.get(&(node, q.index())) {
                remaining_in_segment[slot] -= 1;
                if remaining_in_segment[slot] == 0 {
                    let qubit = QubitId::new(physical[slot]);
                    if let Some(&(place, clbit)) = measure_place.get(&slot) {
                        skeleton.push(SkeletonOp::CutMeasure { place, qubit, clbit });
                    } else if let Some(&(shift, clbit)) = output_shift.get(&slot) {
                        skeleton.push(SkeletonOp::OutputMeasure { shift, qubit, clbit });
                    }
                }
            }
        }
    }

    Ok(Fragment {
        index: sub,
        num_physical: num_physical.max(1),
        num_clbits: clbit,
        body: FragmentBody::new(
            format!("fragment_{sub}"),
            num_physical.max(1),
            clbit,
            output_segments.len(),
            gate_place * 6u64.pow(gate_cut_roles.len() as u32),
            skeleton,
        )?,
        incoming_cuts: incoming_cuts.iter().map(|&(c, _)| c).collect(),
        outgoing_cuts: outgoing_cuts.iter().map(|&(c, _)| c).collect(),
        gate_cut_roles,
        output_clbits,
        cut_clbits,
        gatecut_clbits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::CutPlanner;
    use crate::QrccConfig;
    use qrcc_circuit::generators;
    use std::time::Duration;

    fn plan_chain(n: usize, d: usize) -> CutPlan {
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        c.rz(0.3, n - 1);
        CutPlanner::new(
            QrccConfig::new(d).with_subcircuit_range(2, 3).with_ilp_time_limit(Duration::ZERO),
        )
        .plan(&c)
        .unwrap()
    }

    #[test]
    fn fragments_respect_the_device_budget() {
        let plan = plan_chain(6, 3);
        let set = FragmentSet::from_plan(&plan).unwrap();
        assert_eq!(set.fragments.len(), plan.num_subcircuits());
        for fragment in &set.fragments {
            assert!(fragment.num_physical <= 3, "fragment width {}", fragment.num_physical);
            // every variant instantiates to a circuit that fits the device
            let circuit = fragment.instantiate(0, 0);
            assert!(circuit.num_qubits() <= 3);
            assert_eq!(circuit.num_clbits(), fragment.num_clbits);
        }
        // every original qubit's output is produced by exactly one fragment
        assert!(set.output_owner.iter().all(Option::is_some));
    }

    #[test]
    fn cut_accounting_matches_the_plan() {
        let plan = plan_chain(6, 3);
        let set = FragmentSet::from_plan(&plan).unwrap();
        assert_eq!(set.num_wire_cuts(), plan.wire_cut_count());
        assert_eq!(set.num_gate_cuts(), plan.gate_cut_count());
        let incoming: usize = set.fragments.iter().map(|f| f.incoming_cuts.len()).sum();
        let outgoing: usize = set.fragments.iter().map(|f| f.outgoing_cuts.len()).sum();
        assert_eq!(incoming, set.num_wire_cuts());
        assert_eq!(outgoing, set.num_wire_cuts());
        let legs: usize = set.fragments.iter().map(Fragment::cut_leg_count).sum();
        assert_eq!(legs, 2 * set.num_wire_cuts() + 2 * set.num_gate_cuts());
    }

    #[test]
    fn cut_adjacency_connects_every_cut_endpoint_pair() {
        let plan = plan_chain(6, 3);
        let set = FragmentSet::from_plan(&plan).unwrap();
        // every wire cut has both endpoints, in different fragments
        for (cut, (measure, prepare)) in set.wire_cut_endpoints().into_iter().enumerate() {
            let measure = measure.unwrap_or_else(|| panic!("cut {cut} lacks a measuring side"));
            let prepare = prepare.unwrap_or_else(|| panic!("cut {cut} lacks a preparing side"));
            assert_ne!(measure, prepare, "cut {cut} must cross fragments");
            let adjacency = set.cut_adjacency();
            assert!(adjacency[measure].contains(&prepare));
            assert!(adjacency[prepare].contains(&measure));
        }
        // a chain plan's cut graph is connected: no isolated fragment
        let adjacency = set.cut_adjacency();
        assert!(adjacency.iter().all(|n| !n.is_empty()));
    }

    #[test]
    fn variant_count_matches_paper_formula() {
        let plan = plan_chain(5, 3);
        let set = FragmentSet::from_plan(&plan).unwrap();
        for fragment in &set.fragments {
            let expected = 4u64.pow(fragment.incoming_cuts.len() as u32)
                * 3u64.pow(fragment.outgoing_cuts.len() as u32)
                * 6u64.pow(fragment.gate_cut_roles.len() as u32);
            assert_eq!(fragment.variant_count(), expected);
        }
    }

    #[test]
    fn instantiation_reflects_variant_choices() {
        let plan = plan_chain(6, 3);
        let set = FragmentSet::from_plan(&plan).unwrap();
        // find a fragment with an incoming cut and one with an outgoing cut
        let downstream =
            set.fragments.iter().find(|f| !f.incoming_cuts.is_empty()).expect("has incoming");
        // init slot 0 is the digit above the outgoing bases; |i> is digit 3
        let plus_i = 3 * 3u64.pow(downstream.outgoing_cuts.len() as u32);
        let circuit = downstream.instantiate(plus_i, 0);
        // |i> preparation adds an H and an S
        assert!(circuit.count_ops().get("s").copied().unwrap_or(0) >= 1);

        let upstream =
            set.fragments.iter().find(|f| !f.outgoing_cuts.is_empty()).expect("has outgoing");
        // cut slot 0 is the lowest digit; Y is digit 2
        let circuit = upstream.instantiate(2, 0);
        assert!(circuit.count_ops().get("sdg").copied().unwrap_or(0) >= 1);
    }

    #[test]
    fn gate_cut_fragments_host_instance_slots() {
        let (circuit, _) = generators::qaoa_regular(6, 3, 1, 11);
        let config = QrccConfig::new(4)
            .with_subcircuit_range(2, 3)
            .with_gate_cuts(true)
            .with_ilp_time_limit(Duration::ZERO);
        let plan = CutPlanner::new(config).plan(&circuit).unwrap();
        let set = FragmentSet::from_plan(&plan).unwrap();
        if set.num_gate_cuts() == 0 {
            // the heuristic decided wire cuts alone were cheaper; nothing to check
            return;
        }
        let roles: usize = set.fragments.iter().map(|f| f.gate_cut_roles.len()).sum();
        assert_eq!(roles, 2 * set.num_gate_cuts());
        // a measuring instance adds a mid-circuit measurement
        let fragment =
            set.fragments.iter().find(|f| !f.gate_cut_roles.is_empty()).expect("has role");
        // role 0's instance is the lowest gate digit: instance 3 on the Top
        // half and 5 on the Bottom half measure
        let half = fragment.gate_cut_roles[0].1;
        let digit = if half == GateHalf::Top { 2 } else { 4 };
        let measuring = fragment.instantiate(digit * fragment.gate_place(), 0);
        let baseline = fragment.instantiate(0, 0);
        assert_eq!(measuring.count_ops()["measure"], baseline.count_ops()["measure"] + 1);
    }

    #[test]
    fn fragment_bodies_refuse_broken_invariants() {
        let q = QubitId::new;
        let body = |skeleton: Vec<SkeletonOp>, variants: u64| {
            FragmentBody::new("f".into(), 2, 2, 1, variants, skeleton)
        };
        let base = vec![
            SkeletonOp::Prep { place: 3, qubit: q(0) },
            SkeletonOp::Fixed(Operation::Two { gate: Gate::Cx, qubits: [q(0), q(1)] }),
            SkeletonOp::CutMeasure { place: 1, qubit: q(1), clbit: 1 },
            SkeletonOp::OutputMeasure { shift: 0, qubit: q(0), clbit: 0 },
        ];
        let valid = body(base.clone(), 12).unwrap();
        assert_eq!(valid.variant_count(), 12);
        let broken = [
            (0, SkeletonOp::Prep { place: 0, qubit: q(0) }),
            (0, SkeletonOp::Prep { place: 3, qubit: q(2) }),
            (1, SkeletonOp::Fixed(Operation::Two { gate: Gate::Cx, qubits: [q(0), q(2)] })),
            (1, SkeletonOp::Fixed(Operation::Two { gate: Gate::Cx, qubits: [q(1), q(1)] })),
            (1, SkeletonOp::Fixed(Operation::Single { gate: Gate::Cx, qubit: q(0) })),
            (1, SkeletonOp::Fixed(Operation::Single { gate: Gate::Rz(f64::NAN), qubit: q(0) })),
            (1, SkeletonOp::Fixed(Operation::Measure { qubit: q(0), clbit: 2 })),
            (1, SkeletonOp::Fixed(Operation::Barrier { qubits: vec![q(0), q(5)] })),
            (2, SkeletonOp::CutMeasure { place: 1, qubit: q(1), clbit: 2 }),
            (3, SkeletonOp::OutputMeasure { shift: 2, qubit: q(0), clbit: 0 }),
            (3, SkeletonOp::OutputMeasure { shift: 1, qubit: q(0), clbit: 0 }),
        ];
        for (at, op) in broken {
            let mut skeleton = base.clone();
            skeleton[at] = op.clone();
            assert!(
                matches!(body(skeleton, 12), Err(CoreError::InvalidCutSolution { .. })),
                "{op:?} must be refused"
            );
        }
        // the radix product must match, and must not wrap
        assert!(body(base, 13).is_err());
        let many = vec![SkeletonOp::Prep { place: 1, qubit: q(0) }; 40];
        assert!(body(many, 0).is_err(), "4^40 overflows u64");
        assert!(FragmentBody::new("f".into(), 1, 1, 33, 1, Vec::new()).is_err());

        assert!(valid.check_variant(11, 0b10).is_ok());
        assert!(valid.check_variant(12, 0).is_err(), "ordinal out of range");
        assert!(valid.check_variant(0, 0b11).is_err(), "no basis has code 3");
        assert!(valid.check_variant(0, 0b100).is_err(), "a second output does not exist");
    }

    #[test]
    fn bodies_match_their_fragments() {
        let (circuit, _) = generators::qaoa_regular(6, 3, 1, 11);
        let config = QrccConfig::new(4)
            .with_subcircuit_range(2, 3)
            .with_gate_cuts(true)
            .with_ilp_time_limit(Duration::ZERO);
        let plan = CutPlanner::new(config).plan(&circuit).unwrap();
        for fragment in &FragmentSet::from_plan(&plan).unwrap().fragments {
            let body = fragment.body();
            assert_eq!(body.variant_count(), fragment.variant_count());
            assert_eq!(body.num_qubits(), fragment.num_physical);
            assert_eq!(body.num_clbits(), fragment.num_clbits);
            assert_eq!(body.num_outputs(), fragment.output_clbits.len());
            // the weight bounds every instantiation's size
            let outputs = (0..body.num_outputs()).fold(0, |packed, slot| packed | 2 << (2 * slot));
            for ordinal in 0..body.variant_count() {
                let circuit = body.instantiate(ordinal, outputs);
                let size = circuit.name().len()
                    + circuit.operations().iter().map(operation_weight).sum::<usize>();
                assert!(size <= body.weight(), "{size} > {}", body.weight());
            }
        }
    }
}
