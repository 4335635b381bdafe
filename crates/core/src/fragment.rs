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
//! [`Fragment::instantiate`] turns a fragment plus a [`FragmentVariant`] into
//! a concrete [`Circuit`] ready for a device or simulator.

use crate::gatecut::{instance_op, zz_form, GateHalf, InstanceOp, ZzForm};
use crate::planner::CutPlan;
use crate::reuse::assign_intervals;
use crate::spec::WireCutPoint;
use crate::CoreError;
use qrcc_circuit::dag::NodeId;
use qrcc_circuit::observable::Pauli;
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

/// One executable configuration of a fragment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FragmentVariant {
    /// Initialisation state per incoming cut (parallel to
    /// [`Fragment::incoming_cuts`]).
    pub init_states: Vec<InitState>,
    /// Measurement basis per outgoing cut (parallel to
    /// [`Fragment::outgoing_cuts`]).
    pub cut_bases: Vec<CutBasis>,
    /// Gate-cut instance (1..=6) per gate-cut role (parallel to
    /// [`Fragment::gate_cut_roles`]).
    pub gate_instances: Vec<usize>,
    /// Measurement basis per original-circuit output (parallel to
    /// [`Fragment::output_clbits`]); `Pauli::I`/`Pauli::Z` measure in the
    /// computational basis.
    pub output_bases: Vec<Pauli>,
}

/// Structural identity of one fragment variant: the fragment index plus the
/// full slot configuration. Two requests with equal keys instantiate to the
/// same circuit, so the execution layer deduplicates on this key — no QASM
/// serialisation involved.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VariantKey {
    /// Index of the fragment within its [`FragmentSet`].
    pub fragment: usize,
    /// The slot configuration.
    pub variant: FragmentVariant,
}

impl VariantKey {
    /// Builds a key for `fragment` with the given slot configuration.
    pub fn new(fragment: usize, variant: FragmentVariant) -> Self {
        VariantKey { fragment, variant }
    }
}

/// A request for one fragment-variant execution, as pure data.
///
/// Reconstructors *enumerate* the requests they need, the pipeline
/// *deduplicates* them by [`VariantKey`] and executes one batch, and the
/// reconstructors then *consume* the resulting
/// [`ExecutionResults`](crate::execute::ExecutionResults).
///
/// Beyond the structural key, a request carries a caller-supplied
/// reconstruction `weight` (default `1.0`). The shot
/// [`allocator`](crate::schedule) multiplies this by the structural variance
/// weight it derives from the cut coefficients, so callers can bias the shot
/// split (e.g. by an observable coefficient) without re-deriving the cut
/// structure.
#[derive(Debug, Clone)]
pub struct VariantRequest {
    /// The structural identity of the requested variant.
    pub key: VariantKey,
    /// Caller-supplied reconstruction weight multiplier (default `1.0`);
    /// must be non-negative and finite.
    pub weight: f64,
}

impl VariantRequest {
    /// Builds a request for `fragment` with the given slot configuration and
    /// the default weight of `1.0`.
    pub fn new(fragment: usize, variant: FragmentVariant) -> Self {
        VariantRequest { key: VariantKey::new(fragment, variant), weight: 1.0 }
    }

    /// Sets the caller-supplied reconstruction weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or not finite.
    pub fn with_weight(mut self, weight: f64) -> Self {
        assert!(weight.is_finite() && weight >= 0.0, "request weight must be finite and >= 0");
        self.weight = weight;
        self
    }
}

impl PartialEq for VariantRequest {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.weight.to_bits() == other.weight.to_bits()
    }
}

impl Eq for VariantRequest {}

impl std::hash::Hash for VariantRequest {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.key.hash(state);
        self.weight.to_bits().hash(state);
    }
}

/// One operation of a fragment's skeleton.
#[derive(Debug, Clone, PartialEq)]
enum FragmentOp {
    Gate { gate: Gate, qubits: Vec<usize> },
    Prep { slot: usize, phys: usize },
    CutMeasure { slot: usize, phys: usize, clbit: usize },
    OutputMeasure { slot: usize, phys: usize, clbit: usize },
    GateCutHalf { role: usize, phys: usize, clbit: usize },
    Reset { phys: usize },
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
    skeleton: Vec<FragmentOp>,
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
    /// ZZ normal form of each gate cut this fragment participates in.
    gate_forms: HashMap<usize, ZzForm>,
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
        Fragment {
            index: 0,
            num_physical: 0,
            num_clbits,
            skeleton: Vec::new(),
            incoming_cuts,
            outgoing_cuts: cut_clbits.iter().map(|&(cut, _)| cut).collect(),
            gate_cut_roles: gate_roles.iter().map(|&(cut, half, _)| (cut, half)).collect(),
            output_clbits,
            cut_clbits,
            gatecut_clbits: gate_roles.iter().map(|&(cut, _, clbit)| (cut, clbit)).collect(),
            gate_forms: HashMap::new(),
        }
    }
}

impl Fragment {
    /// The number of cut legs this fragment carries: incoming and outgoing
    /// wire cuts plus gate-cut roles — the axes of its reconstruction tensor.
    pub fn cut_leg_count(&self) -> usize {
        self.incoming_cuts.len() + self.outgoing_cuts.len() + self.gate_cut_roles.len()
    }

    /// The number of executable variants this fragment has:
    /// `4^incoming · 3^outgoing · 6^gate_roles` (ignoring output-basis
    /// changes).
    pub fn variant_count(&self) -> u64 {
        4u64.pow(self.incoming_cuts.len() as u32)
            * 3u64.pow(self.outgoing_cuts.len() as u32)
            * 6u64.pow(self.gate_cut_roles.len() as u32)
    }

    /// A variant with |0⟩ initialisations, Z bases everywhere and gate-cut
    /// instance 1 — the "identity" configuration.
    pub fn default_variant(&self) -> FragmentVariant {
        FragmentVariant {
            init_states: vec![InitState::Zero; self.incoming_cuts.len()],
            cut_bases: vec![CutBasis::Z; self.outgoing_cuts.len()],
            gate_instances: vec![1; self.gate_cut_roles.len()],
            output_bases: vec![Pauli::Z; self.output_clbits.len()],
        }
    }

    /// Builds the concrete circuit of one variant.
    ///
    /// # Panics
    ///
    /// Panics if the variant's vectors do not match the fragment's slot
    /// counts or a gate instance index is outside `1..=6`.
    pub fn instantiate(&self, variant: &FragmentVariant) -> Circuit {
        assert_eq!(variant.init_states.len(), self.incoming_cuts.len(), "init slot mismatch");
        assert_eq!(variant.cut_bases.len(), self.outgoing_cuts.len(), "basis slot mismatch");
        assert_eq!(
            variant.gate_instances.len(),
            self.gate_cut_roles.len(),
            "instance slot mismatch"
        );
        assert_eq!(variant.output_bases.len(), self.output_clbits.len(), "output basis mismatch");

        let mut circuit = Circuit::with_clbits(self.num_physical.max(1), self.num_clbits);
        circuit.set_name(format!("fragment_{}", self.index));
        for op in &self.skeleton {
            match op {
                FragmentOp::Gate { gate, qubits } => {
                    let ids: Vec<QubitId> = qubits.iter().map(|&q| QubitId::new(q)).collect();
                    circuit.push(Operation::gate(*gate, &ids).expect("valid skeleton gate"));
                }
                FragmentOp::Prep { slot, phys } => match variant.init_states[*slot] {
                    InitState::Zero => {}
                    InitState::One => {
                        circuit.x(*phys);
                    }
                    InitState::Plus => {
                        circuit.h(*phys);
                    }
                    InitState::PlusI => {
                        circuit.h(*phys).s(*phys);
                    }
                },
                FragmentOp::CutMeasure { slot, phys, clbit } => {
                    match variant.cut_bases[*slot] {
                        CutBasis::Z => {}
                        CutBasis::X => {
                            circuit.h(*phys);
                        }
                        CutBasis::Y => {
                            circuit.sdg(*phys).h(*phys);
                        }
                    }
                    circuit.measure(*phys, *clbit);
                }
                FragmentOp::OutputMeasure { slot, phys, clbit } => {
                    match variant.output_bases[*slot] {
                        Pauli::I | Pauli::Z => {}
                        Pauli::X => {
                            circuit.h(*phys);
                        }
                        Pauli::Y => {
                            circuit.sdg(*phys).h(*phys);
                        }
                    }
                    circuit.measure(*phys, *clbit);
                }
                FragmentOp::GateCutHalf { role, phys, clbit } => {
                    let (cut_id, half) = self.gate_cut_roles[*role];
                    let form = &self.gate_forms[&cut_id];
                    let (pre, post) = form.locals(half);
                    for g in pre {
                        circuit.push(
                            Operation::gate(*g, &[QubitId::new(*phys)])
                                .expect("single-qubit local"),
                        );
                    }
                    let instance = variant.gate_instances[*role];
                    match instance_op(instance, half) {
                        InstanceOp::Nothing => {}
                        InstanceOp::PauliZ => {
                            circuit.z(*phys);
                        }
                        InstanceOp::Rz(angle) => {
                            circuit.rz(angle, *phys);
                        }
                        InstanceOp::MeasureSign => {
                            circuit.measure(*phys, *clbit);
                        }
                    }
                    for g in post {
                        circuit.push(
                            Operation::gate(*g, &[QubitId::new(*phys)])
                                .expect("single-qubit local"),
                        );
                    }
                }
                FragmentOp::Reset { phys } => {
                    circuit.reset(*phys);
                }
            }
        }
        circuit
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

    /// Instantiates the circuit a [`VariantKey`] identifies, validating the
    /// key against this set first.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidCutSolution`] when the fragment index is
    /// out of range or a slot vector's length does not match the fragment.
    pub fn instantiate_key(&self, key: &VariantKey) -> Result<Circuit, CoreError> {
        let fragment =
            self.fragments.get(key.fragment).ok_or_else(|| CoreError::InvalidCutSolution {
                reason: format!(
                    "variant key references fragment {} but the set has {}",
                    key.fragment,
                    self.fragments.len()
                ),
            })?;
        let v = &key.variant;
        let slots_match = v.init_states.len() == fragment.incoming_cuts.len()
            && v.cut_bases.len() == fragment.outgoing_cuts.len()
            && v.gate_instances.len() == fragment.gate_cut_roles.len()
            && v.output_bases.len() == fragment.output_clbits.len();
        if !slots_match {
            return Err(CoreError::InvalidCutSolution {
                reason: format!("variant key slot counts do not match fragment {}", key.fragment),
            });
        }
        if v.gate_instances.iter().any(|&i| !(1..=6).contains(&i)) {
            return Err(CoreError::InvalidCutSolution {
                reason: format!(
                    "gate-cut instance outside 1..=6 in key for fragment {}",
                    key.fragment
                ),
            });
        }
        Ok(fragment.instantiate(v))
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
            let fragment = build_fragment(
                sub,
                plan,
                &segments,
                &wire_cuts,
                &gate_cut_nodes,
                &gate_cut_forms,
                reuse,
            )?;
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
    all_segments: &[crate::spec::Segment],
    wire_cuts: &[WireCutPoint],
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
    let intervals: Vec<(usize, usize)> = segment_ids
        .iter()
        .map(|&i| (all_segments[i].start_layer, all_segments[i].end_layer))
        .collect();
    let physical: Vec<usize> = if reuse {
        assign_intervals(&intervals).physical
    } else {
        (0..segment_ids.len()).collect()
    };
    let num_physical = physical.iter().copied().max().map_or(0, |m| m + 1);

    // Map (node, wire) -> local segment slot.
    let mut node_segment: HashMap<(NodeId, usize), usize> = HashMap::new();
    for (slot, &seg_id) in segment_ids.iter().enumerate() {
        let seg = &all_segments[seg_id];
        for &node in &seg.nodes {
            node_segment.insert((node, seg.qubit.index()), slot);
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
    let mut gate_forms = HashMap::new();
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
        gate_forms.insert(cut_id, gate_cut_forms[cut_id].clone());
        gatecut_clbits.push((cut_id, clbit));
        clbit += 1;
    }
    let role_of_cut: HashMap<usize, usize> =
        gate_cut_roles.iter().enumerate().map(|(i, &(cut, _))| (cut, i)).collect();
    let gatecut_clbit_of_role: HashMap<usize, usize> =
        gate_cut_roles.iter().enumerate().map(|(i, _)| (i, gatecut_clbits[i].1)).collect();

    // Emit the skeleton in (layer, node id) order.
    let mut nodes: Vec<NodeId> = Vec::new();
    for &seg_id in &segment_ids {
        nodes.extend(all_segments[seg_id].nodes.iter().copied());
    }
    nodes.sort_unstable();
    nodes.dedup();
    nodes.sort_by_key(|&id| (dag.node(id).layer, id));

    let mut skeleton = Vec::new();
    let mut physical_dirty = vec![false; num_physical.max(1)];
    let mut remaining_in_segment: Vec<usize> =
        segment_ids.iter().map(|&i| all_segments[i].nodes.len()).collect();
    let mut started_segment = vec![false; segment_ids.len()];

    let incoming_slot_order: Vec<usize> = incoming_cuts.iter().map(|&(c, _)| c).collect();
    let slot_prep_index: HashMap<usize, usize> =
        incoming_cuts.iter().enumerate().map(|(i, &(_, slot))| (slot, i)).collect();
    let slot_cutmeasure_index: HashMap<usize, usize> =
        outgoing_cuts.iter().enumerate().map(|(i, &(_, slot))| (slot, i)).collect();
    let slot_output_index: HashMap<usize, usize> =
        output_segments.iter().enumerate().map(|(i, &(_, slot))| (slot, i)).collect();

    for &node in &nodes {
        let dag_node = dag.node(node);
        let node_qubits = dag_node.op.qubits();
        // start any segments this node begins (on wires owned by this fragment)
        for q in &node_qubits {
            if let Some(&slot) = node_segment.get(&(node, q.index())) {
                if !started_segment[slot] {
                    started_segment[slot] = true;
                    let phys = physical[slot];
                    if physical_dirty[phys] {
                        skeleton.push(FragmentOp::Reset { phys });
                    }
                    physical_dirty[phys] = true;
                    if let Some(&prep_index) = slot_prep_index.get(&slot) {
                        skeleton.push(FragmentOp::Prep { slot: prep_index, phys });
                    }
                }
            }
        }
        // emit the node itself
        if let Some(cut_id) = gate_cut_nodes.iter().position(|&g| g == node) {
            if let Some(&role) = role_of_cut.get(&cut_id) {
                let half = gate_cut_roles[role].1;
                let wire_slot = match half {
                    GateHalf::Top => node_qubits[0].index(),
                    GateHalf::Bottom => node_qubits[1].index(),
                };
                let slot = node_segment[&(node, wire_slot)];
                skeleton.push(FragmentOp::GateCutHalf {
                    role,
                    phys: physical[slot],
                    clbit: gatecut_clbit_of_role[&role],
                });
            }
        } else {
            match &dag_node.op {
                Operation::Single { gate, qubit } => {
                    let slot = node_segment[&(node, qubit.index())];
                    skeleton.push(FragmentOp::Gate { gate: *gate, qubits: vec![physical[slot]] });
                }
                Operation::Two { gate, qubits } => {
                    let slot_a = node_segment[&(node, qubits[0].index())];
                    let slot_b = node_segment[&(node, qubits[1].index())];
                    skeleton.push(FragmentOp::Gate {
                        gate: *gate,
                        qubits: vec![physical[slot_a], physical[slot_b]],
                    });
                }
                other => {
                    return Err(CoreError::InvalidCutSolution {
                        reason: format!("unexpected non-gate operation {other:?} in cut circuit"),
                    })
                }
            }
        }
        // finish any segments this node ends
        for q in &node_qubits {
            if let Some(&slot) = node_segment.get(&(node, q.index())) {
                remaining_in_segment[slot] -= 1;
                if remaining_in_segment[slot] == 0 {
                    let phys = physical[slot];
                    if let Some(&idx) = slot_cutmeasure_index.get(&slot) {
                        skeleton.push(FragmentOp::CutMeasure {
                            slot: idx,
                            phys,
                            clbit: cut_clbit_of_slot[&slot],
                        });
                    } else if let Some(&idx) = slot_output_index.get(&slot) {
                        skeleton.push(FragmentOp::OutputMeasure {
                            slot: idx,
                            phys,
                            clbit: output_clbit_of_slot[&slot],
                        });
                    }
                }
            }
        }
    }

    let _ = wire_cuts;
    Ok(Fragment {
        index: sub,
        num_physical: num_physical.max(1),
        num_clbits: clbit,
        skeleton,
        incoming_cuts: incoming_slot_order,
        outgoing_cuts: outgoing_cuts.iter().map(|&(c, _)| c).collect(),
        gate_cut_roles,
        output_clbits,
        cut_clbits,
        gatecut_clbits,
        gate_forms,
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
            let circuit = fragment.instantiate(&fragment.default_variant());
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
        let mut variant = downstream.default_variant();
        variant.init_states[0] = InitState::PlusI;
        let circuit = downstream.instantiate(&variant);
        // |i> preparation adds an H and an S
        assert!(circuit.count_ops().get("s").copied().unwrap_or(0) >= 1);

        let upstream =
            set.fragments.iter().find(|f| !f.outgoing_cuts.is_empty()).expect("has outgoing");
        let mut variant = upstream.default_variant();
        variant.cut_bases[0] = CutBasis::Y;
        let circuit = upstream.instantiate(&variant);
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
        let mut variant = fragment.default_variant();
        let half = fragment.gate_cut_roles[0].1;
        variant.gate_instances[0] = if half == GateHalf::Top { 3 } else { 5 };
        let measuring = fragment.instantiate(&variant);
        let baseline = fragment.instantiate(&fragment.default_variant());
        assert_eq!(measuring.count_ops()["measure"], baseline.count_ops()["measure"] + 1);
    }
}
