//! Domain-specific heuristic cut search.
//!
//! The exact ILP model (see [`crate::model`]) is only tractable for small
//! circuits without a commercial solver, so the planner's workhorse is this
//! heuristic: several structured initial assignments (qubit blocks, a
//! layer/qubit staircase, and a temporal split), followed by first-improvement
//! local search over single-node moves, and a final pass that converts
//! beneficial pairs of wire cuts into gate cuts. The result is always a
//! *valid* [`CutSolution`]; feasibility (widths ≤ D) is driven by a large
//! penalty term in the search objective.
//!
//! # Two evaluators, one objective
//!
//! [`solution_cost`] (through [`CutSolution::metrics`]) evaluates a *whole*
//! solution by walking every wire; the planner, the tests and the end of
//! every search use it. The search itself asks a narrower question — what
//! does the objective become if *this one node* moves? — tens of thousands of
//! times per plan, and answers it from a private `SearchState` holding only
//! the integers the objective reads (wire cuts, gate cuts, and per
//! subcircuit the two-qubit gates and the width), updated per move. A move
//! re-assigns the node's one or two (node, operand) *slots*, and a slot is
//! compared with its two wire neighbours only, so per slot a move costs
//!
//! * O(1) for the cut count (at most two comparisons);
//! * O(layer gap to those neighbours) for the live-wire coverage: one
//!   contiguous layer range in the row the slot leaves and one in the row it
//!   joins, and nothing in any other row;
//! * O(layers) for the maximum of the row it leaves, and only when that range
//!   held the maximum (the row it joins is maximised over the range alone;
//!   without reuse the width is a run count and O(1) as well);
//!
//! against O(nodes + cuts) for a re-derivation. **Invariant:** both
//! evaluators hand their integers to the same arithmetic, `objective`, so a
//! state's cost is bit-identical to [`solution_cost`] of the solution it
//! stands for, and every accept/reject decision, every RNG draw and therefore
//! every plan is the one the whole-solution evaluator would have produced.
//! Debug builds check it at the end of every search, the property test below
//! after every move, and the old whole-plan loops survive as a test oracle.

use crate::spec::{CutMetrics, CutSolution};
use crate::QrccConfig;
use qrcc_circuit::dag::{CircuitDag, NodeId};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Penalty applied per qubit of device-size violation and per cut above the
/// configured cut budgets; large enough to dominate any realistic objective.
const INFEASIBILITY_PENALTY: f64 = 10_000.0;

/// Local-search sweep budget per initialisation (a search ends earlier, at
/// the first sweep that improves nothing).
const MAX_SWEEPS: usize = 40;

/// The search objective: post-processing cost and fidelity balancing as in
/// Eq. (18), plus infeasibility penalties for oversized subcircuits or
/// exceeded cut budgets. Lower is better.
pub fn solution_cost(solution: &CutSolution, dag: &CircuitDag, config: &QrccConfig) -> f64 {
    metrics_cost(&solution.metrics(dag, config.qubit_reuse_enabled), config)
}

/// [`solution_cost`] of a solution whose metrics are already derived.
pub(crate) fn metrics_cost(metrics: &CutMetrics, config: &QrccConfig) -> f64 {
    objective(
        &metrics.subcircuit_widths,
        metrics.wire_cuts,
        metrics.gate_cuts,
        metrics.max_two_qubit_gates,
        config,
    )
}

/// The objective's arithmetic, shared by the whole-solution evaluator and the
/// search state so that their costs agree to the last bit.
fn objective(
    widths: &[usize],
    wire_cuts: usize,
    gate_cuts: usize,
    max_two_qubit_gates: usize,
    config: &QrccConfig,
) -> f64 {
    let mut penalty = 0.0;
    for &w in widths {
        penalty += w.saturating_sub(config.device_size) as f64 * INFEASIBILITY_PENALTY;
    }
    penalty += wire_cuts.saturating_sub(config.max_wire_cuts) as f64 * INFEASIBILITY_PENALTY;
    penalty += gate_cuts.saturating_sub(config.max_gate_cuts) as f64 * INFEASIBILITY_PENALTY;
    let pp_cost = config.linear_post_processing_cost(wire_cuts, gate_cuts);
    // The paper's example fidelity term f(TE) = 0.75·TE + 23 maps the
    // max-two-qubit-gate count into the same value range as PPCost.
    let c_error = 0.75 * max_two_qubit_gates as f64 + 23.0;
    penalty + config.delta * pp_cost + (1.0 - config.delta) * c_error
}

/// Whether every subcircuit of the solution fits the device and the cut
/// budgets are respected.
pub fn is_feasible(solution: &CutSolution, dag: &CircuitDag, config: &QrccConfig) -> bool {
    metrics_fit(&solution.metrics(dag, config.qubit_reuse_enabled), config)
}

/// [`is_feasible`] of a solution whose metrics are already derived.
pub(crate) fn metrics_fit(metrics: &CutMetrics, config: &QrccConfig) -> bool {
    metrics.subcircuit_widths.iter().all(|&w| w <= config.device_size)
        && metrics.wire_cuts <= config.max_wire_cuts
        && metrics.gate_cuts <= config.max_gate_cuts
}

/// Remaps subcircuit indices so that they are dense (no empty subcircuits)
/// and ordered by first appearance in program order.
pub fn normalize(solution: &mut CutSolution, dag: &CircuitDag) {
    let halves = solution.gate_cut_halves(dag.nodes().len());
    let mut order: Vec<Option<usize>> = vec![None; solution.num_subcircuits];
    let mut next = 0usize;
    let mut visit = |sub: usize, order: &mut Vec<Option<usize>>| {
        if order[sub].is_none() {
            order[sub] = Some(next);
            next += 1;
        }
    };
    for (node, cut) in halves.iter().enumerate() {
        if let Some((t, b)) = *cut {
            visit(t, &mut order);
            visit(b, &mut order);
        } else {
            visit(solution.assignment[node], &mut order);
        }
    }
    let map = |sub: usize| order[sub].expect("every used subcircuit was visited");
    for (node, a) in solution.assignment.iter_mut().enumerate() {
        if halves[node].is_none() {
            *a = map(*a);
        }
    }
    for pair in &mut solution.gate_cut_assignment {
        *pair = (map(pair.0), map(pair.1));
    }
    // Gate-cut nodes keep an assignment entry for bookkeeping; point it at the
    // top half's subcircuit.
    for (i, &node) in solution.gate_cuts.iter().enumerate() {
        solution.assignment[node] = solution.gate_cut_assignment[i].0;
    }
    solution.num_subcircuits = next;
}

/// Produces an initial assignment of nodes to `num_subs` subcircuits by
/// partitioning the original qubits into contiguous index blocks; each gate
/// goes to the block of its first qubit.
fn init_qubit_blocks(dag: &CircuitDag, num_subs: usize) -> CutSolution {
    let n = dag.num_qubits().max(1);
    let block = |q: usize| (q * num_subs / n).min(num_subs - 1);
    let assignment = dag.nodes().iter().map(|node| block(node.op.qubits()[0].index())).collect();
    CutSolution {
        num_subcircuits: num_subs,
        assignment,
        gate_cuts: Vec::new(),
        gate_cut_assignment: Vec::new(),
    }
}

/// Initial assignment using a "staircase" score mixing qubit index and layer,
/// which suits triangular circuits such as the QFT where early layers touch
/// low qubits and late layers touch high qubits.
fn init_staircase(dag: &CircuitDag, num_subs: usize) -> CutSolution {
    let n = dag.num_qubits().max(1) as f64;
    let layers = dag.num_layers().max(1) as f64;
    let assignment = dag
        .nodes()
        .iter()
        .map(|node| {
            let q = node.op.qubits()[0].index() as f64 / n;
            let l = node.layer as f64 / layers;
            let score = 0.5 * q + 0.5 * l;
            ((score * num_subs as f64) as usize).min(num_subs - 1)
        })
        .collect();
    CutSolution {
        num_subcircuits: num_subs,
        assignment,
        gate_cuts: Vec::new(),
        gate_cut_assignment: Vec::new(),
    }
}

/// Initial assignment splitting the circuit temporally into equal layer bands.
fn init_temporal(dag: &CircuitDag, num_subs: usize) -> CutSolution {
    let layers = dag.num_layers().max(1);
    let assignment =
        dag.nodes().iter().map(|node| (node.layer * num_subs / layers).min(num_subs - 1)).collect();
    CutSolution {
        num_subcircuits: num_subs,
        assignment,
        gate_cuts: Vec::new(),
        gate_cut_assignment: Vec::new(),
    }
}

/// Whether `node` is a two-qubit gate the gate-cutting protocol applies to.
fn is_cuttable(dag: &CircuitDag, node: NodeId) -> bool {
    let op = &dag.node(node).op;
    op.is_two_qubit_gate() && op.as_gate().is_some_and(|g| g.is_gate_cuttable())
}

/// Like [`init_qubit_blocks`], but immediately gate-cuts every cuttable
/// two-qubit gate whose qubits land in different blocks (the Figure 2(d)
/// shape). Only used when gate cuts are enabled.
fn init_qubit_blocks_with_gate_cuts(dag: &CircuitDag, num_subs: usize) -> CutSolution {
    let n = dag.num_qubits().max(1);
    let block = |q: usize| (q * num_subs / n).min(num_subs - 1);
    let mut solution = init_qubit_blocks(dag, num_subs);
    for (id, node) in dag.nodes().iter().enumerate() {
        if !is_cuttable(dag, id) {
            continue;
        }
        let qubits = node.op.qubits();
        let (top, bottom) = (block(qubits[0].index()), block(qubits[1].index()));
        if top != bottom {
            solution.gate_cuts.push(id);
            solution.gate_cut_assignment.push((top, bottom));
        }
    }
    solution
}

/// One operand of one node: the subcircuit it is in and where it sits on its
/// wire.
#[derive(Debug, Clone, Copy)]
struct Slot {
    sub: usize,
    layer: usize,
    /// The slot before / after this one on the same wire.
    prev: Option<usize>,
    next: Option<usize>,
}

/// The integers the objective reads, kept current under single-slot
/// re-assignments (the module docs give the cost of one).
///
/// A *run* is a maximal stretch of consecutive slots of one wire in one
/// subcircuit — what [`CutSolution::segments`] calls a segment. Layers
/// strictly increase along a wire, so the layers a slot contributes to the
/// runs of subcircuit `s` are one contiguous range: it reaches back to just
/// after the previous slot if that one is in `s` and forward to just before
/// the next slot if that one is, and is the slot's own layer otherwise. With
/// `k` of the two neighbours in `s`, taking the slot out of `s` makes a run
/// vanish (`k = 0`), shrink (1) or split (2) and putting it in makes one
/// appear, extend or merge: `k` wire cuts open or heal and the run count
/// moves by `±(1 - k)`.
struct SearchState<'a> {
    config: &'a QrccConfig,
    slots: Vec<Slot>,
    /// `first_slot[node]..first_slot[node + 1]` are the slots of `node` in
    /// operand order (a two-qubit gate's top half first).
    first_slot: Vec<usize>,
    /// The gate-cut nodes, in the order [`CutSolution::gate_cuts`] lists them.
    gate_cuts: Vec<NodeId>,
    is_gate_cut: Vec<bool>,
    wire_cuts: usize,
    two_qubit_gates: Vec<usize>,
    /// Per subcircuit: with reuse the maximum of its `coverage` row, without
    /// (the CutQC model) its number of runs.
    widths: Vec<usize>,
    num_layers: usize,
    /// `subcircuits × layers`, row-major: how many runs of the subcircuit are
    /// live at the layer. Empty without reuse.
    coverage: Vec<u32>,
}

impl<'a> SearchState<'a> {
    /// The state standing for `solution`, which must be valid for `dag`.
    fn new(dag: &CircuitDag, config: &'a QrccConfig, solution: &CutSolution) -> Self {
        let num_nodes = dag.nodes().len();
        let num_subs = solution.num_subcircuits;
        let num_layers = dag.num_layers();
        let halves = solution.gate_cut_halves(num_nodes);
        let coverage_len = if config.qubit_reuse_enabled { num_subs * num_layers } else { 0 };
        let mut state = SearchState {
            config,
            slots: Vec::with_capacity(2 * num_nodes),
            first_slot: Vec::with_capacity(num_nodes + 1),
            gate_cuts: solution.gate_cuts.clone(),
            is_gate_cut: halves.iter().map(Option::is_some).collect(),
            wire_cuts: 0,
            two_qubit_gates: vec![0; num_subs],
            widths: vec![0; num_subs],
            num_layers,
            coverage: vec![0; coverage_len],
        };
        // Program order is wire order: the last slot seen on a wire precedes
        // the next one, and a new slot joins the runs formed so far.
        let mut last_on_wire: Vec<Option<usize>> = vec![None; dag.num_qubits()];
        for (id, node) in dag.nodes().iter().enumerate() {
            state.first_slot.push(state.slots.len());
            if node.op.is_two_qubit_gate() && halves[id].is_none() {
                state.two_qubit_gates[solution.assignment[id]] += 1;
            }
            for (operand, qubit) in node.op.qubits().into_iter().enumerate() {
                let sub = match halves[id] {
                    Some((top, bottom)) => [top, bottom][operand],
                    None => solution.assignment[id],
                };
                let slot = state.slots.len();
                let prev = last_on_wire[qubit.index()].replace(slot);
                state.slots.push(Slot { sub, layer: node.layer, prev, next: None });
                if let Some(prev) = prev {
                    state.slots[prev].next = Some(slot);
                    state.wire_cuts += 1; // healed below if `prev` is in `sub`
                }
                state.link(slot, sub, true);
            }
        }
        state.first_slot.push(state.slots.len());
        state
    }

    /// Puts `slot` into (`joining`) or takes it out of the runs of `sub`.
    fn link(&mut self, slot: usize, sub: usize, joining: bool) {
        let Slot { layer, prev, next, .. } = self.slots[slot];
        let in_sub = |n: Option<usize>| n.map(|n| self.slots[n]).filter(|n| n.sub == sub);
        let (before, after) = (in_sub(prev), in_sub(next));
        let same = usize::from(before.is_some()) + usize::from(after.is_some());
        let width = &mut self.widths[sub];
        if joining {
            self.wire_cuts -= same;
        } else {
            self.wire_cuts += same;
        }
        if !self.config.qubit_reuse_enabled {
            *width = if joining { *width + 1 - same } else { *width + same - 1 };
            return;
        }
        let row = sub * self.num_layers..(sub + 1) * self.num_layers;
        let lo = row.start + before.map_or(layer, |p| p.layer + 1);
        let hi = row.start + after.map_or(layer + 1, |n| n.layer);
        if joining {
            for live in &mut self.coverage[lo..hi] {
                *live += 1;
                *width = (*width).max(*live as usize);
            }
        } else {
            let mut held_maximum = false;
            for live in &mut self.coverage[lo..hi] {
                held_maximum |= *live as usize == *width;
                *live -= 1;
            }
            if held_maximum {
                *width = self.coverage[row].iter().copied().max().unwrap_or(0) as usize;
            }
        }
    }

    /// Re-assigns one slot.
    fn assign(&mut self, slot: usize, to: usize) {
        let from = self.slots[slot].sub;
        if from != to {
            self.link(slot, from, false);
            self.slots[slot].sub = to;
            self.link(slot, to, true);
        }
    }

    /// The subcircuit of an uncut node.
    fn home(&self, node: NodeId) -> usize {
        self.slots[self.first_slot[node]].sub
    }

    /// Moves an uncut node, i.e. all of its slots, to subcircuit `to`.
    fn move_node(&mut self, node: NodeId, to: usize) {
        let slots = self.first_slot[node]..self.first_slot[node + 1];
        // two operands: the node is a two-qubit gate
        if slots.len() == 2 {
            let from = self.home(node);
            self.two_qubit_gates[from] -= 1;
            self.two_qubit_gates[to] += 1;
        }
        for slot in slots {
            self.assign(slot, to);
        }
    }

    /// Gate-cuts an uncut two-qubit gate: its halves go to `top` and `bottom`
    /// and it stops counting as a two-qubit gate of its subcircuit.
    fn cut_gate(&mut self, node: NodeId, top: usize, bottom: usize) {
        let first = self.first_slot[node];
        let home = self.slots[first].sub;
        self.two_qubit_gates[home] -= 1;
        self.is_gate_cut[node] = true;
        self.gate_cuts.push(node);
        self.assign(first, top);
        self.assign(first + 1, bottom);
    }

    /// Undoes the latest [`SearchState::cut_gate`], putting the whole gate
    /// back into subcircuit `home`.
    fn uncut_gate(&mut self, home: usize) {
        let node = self.gate_cuts.pop().expect("a gate cut to undo");
        let first = self.first_slot[node];
        self.is_gate_cut[node] = false;
        self.assign(first, home);
        self.assign(first + 1, home);
        self.two_qubit_gates[home] += 1;
    }

    /// The objective at the current state; equals [`solution_cost`] of
    /// [`SearchState::solution`] bit for bit.
    fn cost(&self) -> f64 {
        let max_two_qubit_gates = self.two_qubit_gates.iter().copied().max().unwrap_or(0);
        objective(
            &self.widths,
            self.wire_cuts,
            self.gate_cuts.len(),
            max_two_qubit_gates,
            self.config,
        )
    }

    /// The solution the state stands for.
    fn solution(&self) -> CutSolution {
        let halves = |node: NodeId| {
            let first = self.first_slot[node];
            (self.slots[first].sub, self.slots[first + 1].sub)
        };
        CutSolution {
            num_subcircuits: self.widths.len(),
            assignment: (0..self.is_gate_cut.len()).map(|node| self.home(node)).collect(),
            gate_cuts: self.gate_cuts.clone(),
            gate_cut_assignment: self.gate_cuts.iter().map(|&node| halves(node)).collect(),
        }
    }
}

/// First-improvement local search over single-node reassignment moves.
fn local_search(state: &mut SearchState<'_>, rng: &mut StdRng, max_sweeps: usize) {
    let num_nodes = state.is_gate_cut.len();
    let num_subs = state.widths.len();
    let mut current_cost = state.cost();
    for _ in 0..max_sweeps {
        let mut improved = false;
        let mut node_order: Vec<usize> = (0..num_nodes).collect();
        node_order.shuffle(rng);
        for node in node_order {
            if state.is_gate_cut[node] {
                continue;
            }
            let original = state.home(node);
            let mut best = (original, current_cost);
            for target in 0..num_subs {
                if target == original {
                    continue;
                }
                state.move_node(node, target);
                let cost = state.cost();
                if cost < best.1 - 1e-9 {
                    best = (target, cost);
                }
            }
            state.move_node(node, best.0);
            if best.0 != original {
                current_cost = best.1;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
}

/// Converts wire cuts into gate cuts where this lowers the objective: a
/// cuttable two-qubit gate sitting on a subcircuit boundary often needs two
/// wire cuts (cost 2α) that a single gate cut (cost β) can replace. Every
/// (top, bottom) subcircuit pair is tried for each cuttable gate.
fn gate_cut_pass(state: &mut SearchState<'_>, dag: &CircuitDag) {
    if !state.config.gate_cuts_enabled {
        return;
    }
    let num_subs = state.widths.len();
    let mut current_cost = state.cost();
    for node in 0..dag.nodes().len() {
        if state.is_gate_cut[node] || !is_cuttable(dag, node) {
            continue;
        }
        let home = state.home(node);
        let mut best: Option<((usize, usize), f64)> = None;
        for t in 0..num_subs {
            for b in 0..num_subs {
                if t == b {
                    continue;
                }
                state.cut_gate(node, t, b);
                let cost = state.cost();
                state.uncut_gate(home);
                if cost < current_cost - 1e-9 && best.map(|(_, c)| cost < c).unwrap_or(true) {
                    best = Some(((t, b), cost));
                }
            }
        }
        if let Some(((t, b), cost)) = best {
            state.cut_gate(node, t, b);
            current_cost = cost;
        }
    }
}

/// The structured starting points every search is run from.
fn initialisations(dag: &CircuitDag, config: &QrccConfig, num_subs: usize) -> Vec<CutSolution> {
    let mut initialisations = vec![
        init_qubit_blocks(dag, num_subs),
        init_staircase(dag, num_subs),
        init_temporal(dag, num_subs),
    ];
    if config.gate_cuts_enabled {
        initialisations.push(init_qubit_blocks_with_gate_cuts(dag, num_subs));
    }
    initialisations
}

/// Each candidate gets its own deterministic RNG stream so that adding or
/// removing initialisations never perturbs the others.
fn candidate_rng(config: &QrccConfig, num_subs: usize, candidate_index: usize) -> StdRng {
    StdRng::seed_from_u64(
        config.seed ^ ((num_subs as u64) << 32) ^ ((candidate_index as u64) << 48),
    )
}

/// Runs the full heuristic for a fixed number of subcircuits and returns the
/// best solution found (which may be infeasible — the caller checks with
/// [`is_feasible`]).
pub fn search_with_subcircuits(
    dag: &CircuitDag,
    config: &QrccConfig,
    num_subs: usize,
) -> CutSolution {
    let mut best: Option<(CutSolution, f64)> = None;
    let starts = initialisations(dag, config, num_subs);
    for (candidate_index, start) in starts.into_iter().enumerate() {
        let mut rng = candidate_rng(config, num_subs, candidate_index);
        let mut state = SearchState::new(dag, config, &start);
        local_search(&mut state, &mut rng, MAX_SWEEPS);
        gate_cut_pass(&mut state, dag);
        // Gate cuts change the boundary structure, so give the node moves one
        // more chance to clean up around them.
        local_search(&mut state, &mut rng, MAX_SWEEPS / 2 + 1);
        let mut candidate = state.solution();
        debug_assert_eq!(state.cost(), solution_cost(&candidate, dag, config));
        normalize(&mut candidate, dag);
        let cost = solution_cost(&candidate, dag, config);
        if best.as_ref().map(|(_, c)| cost < *c).unwrap_or(true) {
            best = Some((candidate, cost));
        }
    }
    best.expect("at least one initialisation ran").0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qrcc_circuit::{generators, Circuit};

    /// The search as it ran before [`SearchState`]: every candidate move is
    /// priced by re-deriving the whole plan through [`solution_cost`]. Kept
    /// as the reference the incremental search must reproduce plan for plan.
    mod oracle {
        use super::super::*;

        fn local_search(
            solution: &mut CutSolution,
            dag: &CircuitDag,
            config: &QrccConfig,
            rng: &mut StdRng,
            max_sweeps: usize,
        ) {
            let num_nodes = dag.nodes().len();
            let mut current_cost = solution_cost(solution, dag, config);
            for _ in 0..max_sweeps {
                let mut improved = false;
                let mut node_order: Vec<usize> = (0..num_nodes).collect();
                node_order.shuffle(rng);
                for node in node_order {
                    if solution.gate_cuts.contains(&node) {
                        continue;
                    }
                    let original = solution.assignment[node];
                    let mut best = (original, current_cost);
                    for target in 0..solution.num_subcircuits {
                        if target == original {
                            continue;
                        }
                        solution.assignment[node] = target;
                        let cost = solution_cost(solution, dag, config);
                        if cost < best.1 - 1e-9 {
                            best = (target, cost);
                        }
                    }
                    solution.assignment[node] = best.0;
                    if best.0 != original {
                        current_cost = best.1;
                        improved = true;
                    }
                }
                if !improved {
                    break;
                }
            }
        }

        fn gate_cut_pass(solution: &mut CutSolution, dag: &CircuitDag, config: &QrccConfig) {
            if !config.gate_cuts_enabled {
                return;
            }
            let mut current_cost = solution_cost(solution, dag, config);
            for node in 0..dag.nodes().len() {
                if solution.gate_cuts.contains(&node) || !is_cuttable(dag, node) {
                    continue;
                }
                let mut best: Option<((usize, usize), f64)> = None;
                for t in 0..solution.num_subcircuits {
                    for b in 0..solution.num_subcircuits {
                        if t == b {
                            continue;
                        }
                        solution.gate_cuts.push(node);
                        solution.gate_cut_assignment.push((t, b));
                        let cost = solution_cost(solution, dag, config);
                        solution.gate_cuts.pop();
                        solution.gate_cut_assignment.pop();
                        if cost < current_cost - 1e-9 && best.map(|(_, c)| cost < c).unwrap_or(true)
                        {
                            best = Some(((t, b), cost));
                        }
                    }
                }
                if let Some(((t, b), cost)) = best {
                    solution.gate_cuts.push(node);
                    solution.gate_cut_assignment.push((t, b));
                    current_cost = cost;
                }
            }
        }

        pub fn search_with_subcircuits(
            dag: &CircuitDag,
            config: &QrccConfig,
            num_subs: usize,
        ) -> CutSolution {
            let mut best: Option<(CutSolution, f64)> = None;
            let starts = initialisations(dag, config, num_subs);
            for (candidate_index, mut candidate) in starts.into_iter().enumerate() {
                let mut rng = candidate_rng(config, num_subs, candidate_index);
                local_search(&mut candidate, dag, config, &mut rng, MAX_SWEEPS);
                gate_cut_pass(&mut candidate, dag, config);
                local_search(&mut candidate, dag, config, &mut rng, MAX_SWEEPS / 2 + 1);
                normalize(&mut candidate, dag);
                let cost = solution_cost(&candidate, dag, config);
                if best.as_ref().map(|(_, c)| cost < *c).unwrap_or(true) {
                    best = Some((candidate, cost));
                }
            }
            best.expect("at least one initialisation ran").0
        }
    }

    #[test]
    fn incremental_search_returns_the_whole_plan_searchs_solution() {
        let gate_cut = |d: usize| QrccConfig::new(d).with_gate_cuts(true);
        let cases: Vec<(&str, Circuit, QrccConfig)> = vec![
            ("qft10", generators::qft(10), QrccConfig::new(6)),
            ("aqft12", generators::aqft(12, 4), QrccConfig::new(7)),
            ("spm3x4", generators::supremacy(3, 4, 8, 11), QrccConfig::new(7)),
            ("add5", generators::ripple_carry_adder(5, 1), QrccConfig::new(7)),
            ("vqe10", generators::vqe_two_local(10, 2, 5), QrccConfig::new(6)),
            ("reg10_gate", generators::qaoa_regular(10, 3, 1, 3).0, gate_cut(6)),
            (
                "reg10_gate_balanced",
                generators::qaoa_regular(10, 3, 1, 3).0,
                gate_cut(6).with_delta(0.5),
            ),
            ("qft10_no_reuse", generators::qft(10), QrccConfig::cutqc(7)),
        ];
        for (name, circuit, config) in cases {
            let dag = CircuitDag::from_circuit(&circuit);
            for num_subs in 2..=4 {
                assert_eq!(
                    search_with_subcircuits(&dag, &config, num_subs),
                    oracle::search_with_subcircuits(&dag, &config, num_subs),
                    "{name} into {num_subs} subcircuits"
                );
            }
        }
    }

    /// Everything the objective reads, from the state and from the
    /// whole-solution evaluator over the solution the state stands for.
    fn assert_state_matches_metrics(
        state: &SearchState<'_>,
        dag: &CircuitDag,
    ) -> Result<(), TestCaseError> {
        let solution = state.solution();
        prop_assert!(solution.validate(dag).is_ok(), "{:?}", solution.validate(dag));
        let metrics = solution.metrics(dag, state.config.qubit_reuse_enabled);
        prop_assert_eq!(state.wire_cuts, metrics.wire_cuts);
        prop_assert_eq!(state.gate_cuts.len(), metrics.gate_cuts);
        prop_assert_eq!(&state.widths, &metrics.subcircuit_widths);
        prop_assert_eq!(&state.two_qubit_gates, &metrics.two_qubit_gate_counts);
        // exactly, not to a tolerance: the search's decisions hang on it
        prop_assert_eq!(state.cost(), solution_cost(&solution, dag, state.config));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// After every node move, gate cut and revert — and straight after
        /// construction — the state agrees with `CutSolution::metrics` and
        /// its cost equals `solution_cost` exactly.
        #[test]
        fn state_tracks_the_full_evaluator_through_any_move_sequence(
            num_qubits in 2..7usize,
            num_ops in 1..28usize,
            num_subs in 2..5usize,
            reuse in any::<bool>(),
            device in 1..4usize,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            // the last wire stays idle in half of the cases
            let busy = num_qubits - usize::from(num_qubits > 2 && rng.gen::<bool>());
            let mut circuit = Circuit::new(num_qubits);
            for _ in 0..num_ops {
                let a = rng.gen_range(0..busy);
                let b = (a + rng.gen_range(1..busy)) % busy;
                match rng.gen_range(0..8) {
                    0 => circuit.h(a),
                    1 => circuit.rz(0.3, a),
                    2 => circuit.measure(a, a),
                    3 => circuit.reset(a),
                    4 => circuit.swap(a, b), // two-qubit, not cuttable
                    5 => circuit.cx(a, b),
                    6 => circuit.cz(a, b),
                    _ => circuit.rzz(0.7, a, b),
                };
            }
            let dag = CircuitDag::from_circuit(&circuit);
            let num_nodes = dag.nodes().len();
            let cuttable: Vec<NodeId> = (0..num_nodes).filter(|&n| is_cuttable(&dag, n)).collect();
            // tight budgets, so the penalty terms of the objective are live
            let config = QrccConfig::new(device)
                .with_qubit_reuse(reuse)
                .with_gate_cuts(true)
                .with_max_wire_cuts(3)
                .with_max_gate_cuts(1)
                .with_delta(0.5);

            // a random start, some of its cuttable gates already gate-cut
            let mut start = CutSolution {
                num_subcircuits: num_subs,
                assignment: (0..num_nodes).map(|_| rng.gen_range(0..num_subs)).collect(),
                gate_cuts: Vec::new(),
                gate_cut_assignment: Vec::new(),
            };
            for &node in &cuttable {
                if rng.gen_range(0..4) == 0 {
                    let top = rng.gen_range(0..num_subs);
                    let bottom = (top + rng.gen_range(1..num_subs)) % num_subs;
                    start.gate_cuts.push(node);
                    start.gate_cut_assignment.push((top, bottom));
                }
            }
            let mut state = SearchState::new(&dag, &config, &start);
            assert_state_matches_metrics(&state, &dag)?;

            for _ in 0..40 {
                let node = rng.gen_range(0..num_nodes);
                if state.is_gate_cut[node] {
                    continue;
                }
                let home = state.home(node);
                let to = rng.gen_range(0..num_subs);
                if cuttable.contains(&node) && to != home && rng.gen::<bool>() {
                    state.cut_gate(node, home, to);
                    assert_state_matches_metrics(&state, &dag)?;
                    if rng.gen::<bool>() {
                        state.uncut_gate(home);
                        assert_state_matches_metrics(&state, &dag)?;
                    }
                } else {
                    state.move_node(node, to);
                    assert_state_matches_metrics(&state, &dag)?;
                    if rng.gen::<bool>() {
                        state.move_node(node, home);
                        assert_state_matches_metrics(&state, &dag)?;
                    }
                }
            }
        }
    }

    /// `h(0) h(0) h(0)` plus a bystander wire, so that a three-slot wire can
    /// be walked through the four leave/join cases by hand.
    fn three_node_wire() -> CircuitDag {
        let mut c = Circuit::new(2);
        c.h(0).h(0).h(0).h(1);
        CircuitDag::from_circuit(&c)
    }

    fn state_of<'a>(
        dag: &CircuitDag,
        config: &'a QrccConfig,
        assignment: [usize; 4],
    ) -> SearchState<'a> {
        let solution = CutSolution {
            num_subcircuits: 3,
            assignment: assignment.to_vec(),
            gate_cuts: Vec::new(),
            gate_cut_assignment: Vec::new(),
        };
        SearchState::new(dag, config, &solution)
    }

    #[test]
    fn leaving_a_run_splits_shrinks_or_removes_it() {
        let dag = three_node_wire();
        let reuse = QrccConfig::new(2);
        let plain = QrccConfig::new(2).with_qubit_reuse(false);
        // split: the middle of a run of three leaves for an empty subcircuit
        let mut state = state_of(&dag, &reuse, [0, 0, 0, 2]);
        state.move_node(1, 1);
        assert_eq!(state.wire_cuts, 2);
        assert_eq!(state.coverage, [1, 0, 1, 0, 1, 0, 1, 0, 0]);
        assert_eq!(state.widths, [1, 1, 1]);
        let mut state = state_of(&dag, &plain, [0, 0, 0, 2]);
        state.move_node(1, 1);
        assert_eq!((state.wire_cuts, &state.widths), (2, &vec![2, 1, 1]));
        // shrink: the end of the run leaves
        let mut state = state_of(&dag, &reuse, [0, 0, 0, 2]);
        state.move_node(2, 1);
        assert_eq!(state.wire_cuts, 1);
        assert_eq!(state.coverage, [1, 1, 0, 0, 0, 1, 1, 0, 0]);
        let mut state = state_of(&dag, &plain, [0, 0, 0, 2]);
        state.move_node(2, 1);
        assert_eq!((state.wire_cuts, &state.widths), (1, &vec![1, 1, 1]));
        // vanish: a run of one leaves, and no cut count changes
        let mut state = state_of(&dag, &reuse, [1, 0, 1, 2]);
        state.move_node(1, 2);
        assert_eq!(state.wire_cuts, 2);
        assert_eq!(state.coverage, [0, 0, 0, 1, 0, 1, 1, 1, 0]);
        assert_eq!(state.widths, [0, 1, 1]);
        let mut state = state_of(&dag, &plain, [1, 0, 1, 2]);
        state.move_node(1, 2);
        assert_eq!((state.wire_cuts, &state.widths), (2, &vec![0, 2, 2]));
    }

    #[test]
    fn joining_a_run_merges_extends_or_creates_it() {
        let dag = three_node_wire();
        let reuse = QrccConfig::new(2);
        let plain = QrccConfig::new(2).with_qubit_reuse(false);
        // merge: the slot between two runs of one subcircuit joins them
        let mut state = state_of(&dag, &reuse, [0, 1, 0, 2]);
        state.move_node(1, 0);
        assert_eq!(state.wire_cuts, 0);
        assert_eq!(state.coverage, [1, 1, 1, 0, 0, 0, 1, 0, 0]);
        assert_eq!(state.widths, [1, 0, 1]);
        let mut state = state_of(&dag, &plain, [0, 1, 0, 2]);
        state.move_node(1, 0);
        assert_eq!((state.wire_cuts, &state.widths), (0, &vec![1, 0, 1]));
        // extend: the slot joins the run before it only
        let mut state = state_of(&dag, &reuse, [0, 1, 2, 2]);
        state.move_node(1, 0);
        assert_eq!(state.wire_cuts, 1);
        assert_eq!(state.coverage, [1, 1, 0, 0, 0, 0, 1, 0, 1]);
        let mut state = state_of(&dag, &plain, [0, 1, 2, 2]);
        state.move_node(1, 0);
        assert_eq!((state.wire_cuts, &state.widths), (1, &vec![1, 0, 2]));
        // appear: neither neighbour is in the subcircuit joined
        let mut state = state_of(&dag, &reuse, [0, 0, 0, 0]);
        state.move_node(1, 1);
        assert_eq!(state.wire_cuts, 2);
        assert_eq!(state.coverage, [2, 0, 1, 0, 1, 0, 0, 0, 0]);
        assert_eq!(state.widths, [2, 1, 0]);
    }

    #[test]
    fn coverage_bridges_the_idle_layers_between_wire_neighbours() {
        // q1's two gates sit at layers 0 and 3 with nothing between them
        let mut c = Circuit::new(2);
        c.h(1).h(0).h(0).h(0).cx(0, 1);
        let dag = CircuitDag::from_circuit(&c);
        let config = QrccConfig::new(2);
        let solution = CutSolution::trivial(&dag);
        let mut state = SearchState::new(&dag, &config, &solution);
        assert_eq!(state.coverage, [2, 2, 2, 2]);
        // cutting q1 between them frees layers 1 and 2 of its row
        state = SearchState::new(&dag, &config, &CutSolution { num_subcircuits: 2, ..solution });
        state.move_node(0, 1);
        assert_eq!(state.coverage, [1, 1, 1, 2, 1, 0, 0, 0]);
        assert_eq!((state.wire_cuts, &state.widths), (1, &vec![2, 1]));
    }

    #[test]
    fn ghz_chain_splits_cleanly() {
        let mut c = Circuit::new(6);
        c.h(0);
        for q in 0..5 {
            c.cx(q, q + 1);
        }
        let dag = CircuitDag::from_circuit(&c);
        let config = QrccConfig::new(4).with_subcircuit_range(2, 3);
        let solution = search_with_subcircuits(&dag, &config, 2);
        assert!(solution.validate(&dag).is_ok());
        assert!(is_feasible(&solution, &dag, &config));
        let metrics = solution.metrics(&dag, true);
        // a linear chain needs at most one wire cut (zero if the search
        // discovers that qubit reuse alone already fits the device)
        assert!(metrics.wire_cuts <= 1);
        assert_eq!(metrics.gate_cuts, 0);
    }

    #[test]
    fn qubit_reuse_makes_tighter_devices_feasible() {
        let mut c = Circuit::new(6);
        c.h(0);
        for q in 0..5 {
            c.cx(q, q + 1);
        }
        let dag = CircuitDag::from_circuit(&c);
        // with reuse, a GHZ chain split in two halves fits a 4-qubit device
        // comfortably; without reuse the initialization qubit pushes one
        // subcircuit to 4 qubits as well, but a 3-qubit device separates them:
        let config_reuse = QrccConfig::new(3).with_subcircuit_range(2, 3);
        let with_reuse = search_with_subcircuits(&dag, &config_reuse, 2);
        assert!(is_feasible(&with_reuse, &dag, &config_reuse));
        let config_plain = config_reuse.clone().with_qubit_reuse(false);
        let without_reuse = search_with_subcircuits(&dag, &config_plain, 2);
        let m_plain = without_reuse.metrics(&dag, false);
        let m_reuse = with_reuse.metrics(&dag, true);
        // reuse never needs more cuts than the no-reuse plan at equal #SC
        assert!(m_reuse.wire_cuts <= m_plain.wire_cuts + 1);
    }

    #[test]
    fn gate_cut_pass_replaces_expensive_wire_cuts() {
        // QAOA-style circuit where every entangler is cuttable.
        let (c, _) = generators::qaoa_regular(6, 2, 1, 7);
        let dag = CircuitDag::from_circuit(&c);
        let without = QrccConfig::new(4).with_subcircuit_range(2, 2).with_gate_cuts(false);
        let with = without.clone().with_gate_cuts(true);
        let sol_without = search_with_subcircuits(&dag, &without, 2);
        let sol_with = search_with_subcircuits(&dag, &with, 2);
        assert!(sol_with.validate(&dag).is_ok());
        let cost_without = solution_cost(&sol_without, &dag, &without);
        let cost_with = solution_cost(&sol_with, &dag, &with);
        assert!(
            cost_with <= cost_without + 1e-9,
            "gate cuts should never make the objective worse ({cost_with} vs {cost_without})"
        );
    }

    #[test]
    fn normalize_removes_empty_subcircuits() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let dag = CircuitDag::from_circuit(&c);
        let mut solution = CutSolution {
            num_subcircuits: 4,
            assignment: vec![3, 3],
            gate_cuts: Vec::new(),
            gate_cut_assignment: Vec::new(),
        };
        normalize(&mut solution, &dag);
        assert_eq!(solution.num_subcircuits, 1);
        assert_eq!(solution.assignment, vec![0, 0]);
    }

    #[test]
    fn cost_penalises_oversized_subcircuits() {
        // The QFT has all-to-all interactions, so qubit reuse cannot shrink
        // it below its full width and the uncut circuit violates D = 2.
        let c = generators::qft(4);
        let dag = CircuitDag::from_circuit(&c);
        let config = QrccConfig::new(2);
        let trivial = CutSolution::trivial(&dag);
        assert!(solution_cost(&trivial, &dag, &config) >= INFEASIBILITY_PENALTY);
        assert!(!is_feasible(&trivial, &dag, &config));
    }
}
