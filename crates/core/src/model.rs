//! The QRCC ILP model (paper §4.2).
//!
//! The model assigns every DAG node to a subcircuit (variables (5)), lets
//! cuttable two-qubit gates be gate-cut with their two halves in different
//! subcircuits (variables (7)–(8), constraints (10)), derives wire cuts from
//! membership changes along each wire (the linearised form of constraints
//! (13)–(14)), and bounds the number of *live* wires of each subcircuit at
//! every layer by the device size — the qubit-reuse-aware capacity constraint
//! (11). The objective is the paper's Eq. (18): a δ-weighted combination of
//! the linearised post-processing cost (15) and the fidelity-balancing term
//! (16)–(17).
//!
//! [`QrccConfig::qubit_reuse_enabled`] picks the capacity form, the same
//! width model [`CutSolution::subcircuit_widths`] applies to a plan:
//!
//! * **reuse on** — constraint (11): at every layer, a subcircuit's live
//!   wires (a node on the wire at that layer, or a "bridge" binary when the
//!   layer falls between two of the wire's nodes in that subcircuit) number
//!   at most `D`;
//! * **reuse off** — CutQC's capacity: every wire segment of a subcircuit
//!   holds its own physical qubit for the whole run, so the subcircuit's
//!   segment count is at most `D`. A segment starts at the wire's first node
//!   or at a wire boundary whose downstream node is in the subcircuit and
//!   whose upstream node is not (CutQC's initialisation qubit), counted by
//!   one `init ≥ m_b − m_a` binary per (boundary, subcircuit).
//!
//! Subcircuit labels are interchangeable, so every plan has `C!` relabelled
//! copies for branch-and-bound to wade through. Symmetry-breaking rows keep
//! one: labels open in order of first appearance, which also puts the first
//! node in subcircuit 0. [`QrccModel::warm_start`] relabels its solution the
//! same way, so a heuristic warm start stays feasible.
//!
//! The model is solved with the self-contained branch-and-bound solver of
//! [`qrcc_ilp`], warm-started by the heuristic solution, so it is exact on
//! small instances and falls back gracefully on larger ones.

use crate::spec::CutSolution;
use crate::QrccConfig;
use qrcc_circuit::dag::{CircuitDag, NodeId};
use qrcc_circuit::QubitId;
use qrcc_ilp::{solver, LinExpr, Model, SolverConfig, VarId};
use std::collections::HashMap;
use std::time::Duration;

/// Variable handles of a built QRCC model, needed to warm-start the solver
/// and to read a [`CutSolution`] back out of an ILP solution.
#[derive(Debug, Clone)]
pub struct QrccModel {
    /// The underlying ILP.
    pub ilp: Model,
    /// Number of subcircuits the model was built for.
    pub num_subcircuits: usize,
    /// `assign[node][c]` — node is in subcircuit `c`.
    assign: Vec<Vec<VarId>>,
    /// `gate_cut[node]` for cuttable two-qubit gates.
    gate_cut: HashMap<NodeId, VarId>,
    /// `gate_top[node][c]`, `gate_bottom[node][c]` for cuttable gates.
    gate_top: HashMap<NodeId, Vec<VarId>>,
    gate_bottom: HashMap<NodeId, Vec<VarId>>,
    /// Wire-cut indicator per consecutive node pair `(wire, from, to)`.
    wire_cut: HashMap<(usize, NodeId, NodeId), VarId>,
    /// Live-wire bridge per `(wire, layer, subcircuit)`, for the layers that
    /// fall strictly between two consecutive nodes of the wire (reuse on).
    bridge: HashMap<(usize, usize, usize), VarId>,
    /// Segment-start indicator per `(wire, from, to, subcircuit)`: the wire
    /// boundary `from → to` opens a segment of the subcircuit (reuse off).
    init: HashMap<(usize, NodeId, NodeId, usize), VarId>,
    /// `TE`, the two-qubit-gate count of the largest subcircuit.
    te: VarId,
}

impl QrccModel {
    /// Builds the ILP for cutting `dag` into exactly `num_subcircuits`
    /// subcircuits under `config`.
    pub fn build(dag: &CircuitDag, config: &QrccConfig, num_subcircuits: usize) -> Self {
        let mut ilp = Model::new();
        let num_nodes = dag.nodes().len();
        let c_range = 0..num_subcircuits;

        // ---- assignment variables -------------------------------------
        let assign: Vec<Vec<VarId>> = (0..num_nodes)
            .map(|x| c_range.clone().map(|c| ilp.add_binary(format!("a_{x}_{c}"))).collect())
            .collect();

        let mut gate_cut = HashMap::new();
        let mut gate_top: HashMap<NodeId, Vec<VarId>> = HashMap::new();
        let mut gate_bottom: HashMap<NodeId, Vec<VarId>> = HashMap::new();
        if config.gate_cuts_enabled {
            for (x, node) in dag.nodes().iter().enumerate() {
                let cuttable = node
                    .op
                    .as_gate()
                    .map(|g| g.is_gate_cuttable() && node.op.is_two_qubit_gate())
                    .unwrap_or(false);
                if cuttable {
                    gate_cut.insert(x, ilp.add_binary(format!("g_{x}")));
                    gate_top.insert(
                        x,
                        c_range.clone().map(|c| ilp.add_binary(format!("gt_{x}_{c}"))).collect(),
                    );
                    gate_bottom.insert(
                        x,
                        c_range.clone().map(|c| ilp.add_binary(format!("gb_{x}_{c}"))).collect(),
                    );
                }
            }
        }

        // ---- membership constraints (paper Eq. (10)) --------------------
        for x in 0..num_nodes {
            let mut expr = LinExpr::new();
            for &a in &assign[x] {
                expr.add_term(1.0, a);
            }
            if let Some(&g) = gate_cut.get(&x) {
                expr.add_term(1.0, g);
            }
            ilp.add_eq(expr, 1.0);
            if let Some(&g) = gate_cut.get(&x) {
                let mut top_sum = LinExpr::new();
                for &t in &gate_top[&x] {
                    top_sum.add_term(1.0, t);
                }
                top_sum.add_term(-1.0, g);
                ilp.add_eq(top_sum, 0.0);
                let mut bottom_sum = LinExpr::new();
                for &b in &gate_bottom[&x] {
                    bottom_sum.add_term(1.0, b);
                }
                bottom_sum.add_term(-1.0, g);
                ilp.add_eq(bottom_sum, 0.0);
                for c in c_range.clone() {
                    ilp.add_le(
                        LinExpr::new().term(1.0, gate_top[&x][c]).term(1.0, gate_bottom[&x][c]),
                        1.0,
                    );
                }
            }
        }

        // ---- symmetry breaking: labels open in order ---------------------
        // a node opens a subcircuit by its assignment or by either gate half
        open_labels_in_order(&mut ilp, num_nodes, num_subcircuits, |x, c| {
            let mut expr = LinExpr::new().term(1.0, assign[x][c]);
            if let Some(top) = gate_top.get(&x) {
                expr.add_term(1.0, top[c]);
                expr.add_term(1.0, gate_bottom[&x][c]);
            }
            expr
        });

        // Membership of node x on wire q in subcircuit c, as a linear
        // expression over the variables above.
        let membership = |x: NodeId, qubit_slot: usize, c: usize| -> LinExpr {
            let mut expr = LinExpr::new().term(1.0, assign[x][c]);
            if gate_cut.contains_key(&x) {
                let halves = if qubit_slot == 0 { &gate_top } else { &gate_bottom };
                expr.add_term(1.0, halves[&x][c]);
            }
            expr
        };
        let slot_of = |x: NodeId, wire: usize| -> usize {
            let qs = dag.node(x).op.qubits();
            qs.iter().position(|q| q.index() == wire).expect("node touches wire")
        };

        // ---- wire-cut indicators (paper Eqs. (13)-(14), linearised) ------
        let mut wire_cut = HashMap::new();
        for wire in 0..dag.num_qubits() {
            let nodes = dag.wire(QubitId::new(wire));
            for pair in nodes.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                let w = ilp.add_binary(format!("w_{wire}_{a}_{b}"));
                wire_cut.insert((wire, a, b), w);
                for c in c_range.clone() {
                    let ma = membership(a, slot_of(a, wire), c);
                    let mb = membership(b, slot_of(b, wire), c);
                    // w >= ma - mb  and  w >= mb - ma
                    let mut diff = LinExpr::new().term(-1.0, w);
                    diff.add_scaled(1.0, &ma);
                    diff.add_scaled(-1.0, &mb);
                    ilp.add_le(diff, 0.0);
                    let mut diff2 = LinExpr::new().term(-1.0, w);
                    diff2.add_scaled(1.0, &mb);
                    diff2.add_scaled(-1.0, &ma);
                    ilp.add_le(diff2, 0.0);
                }
            }
        }

        // ---- capacity constraints ----------------------------------------
        let mut bridge = HashMap::new();
        let mut init = HashMap::new();
        if config.qubit_reuse_enabled {
            // Reuse-aware (paper Eq. (11)): for every layer l and subcircuit
            // c, the number of live wires of c at l must not exceed D. A wire
            // contributes its node's membership when it has a node at layer
            // l, and an auxiliary "bridge" variable when l falls strictly
            // between two of its nodes (the bridge is forced to 1 only when
            // both neighbouring nodes are in c).
            let cells = live_cells(dag);
            for c in c_range.clone() {
                for (layer, row) in cells.iter().enumerate() {
                    let mut usage = LinExpr::new();
                    for &(wire, cell) in row {
                        match cell {
                            Live::Node(x) => {
                                usage.add_scaled(1.0, &membership(x, slot_of(x, wire), c))
                            }
                            Live::Bridge(a, b) => {
                                let z = ilp.add_binary(format!("live_{wire}_{layer}_{c}"));
                                bridge.insert((wire, layer, c), z);
                                // z >= ma + mb - 1
                                let mut expr = LinExpr::new().term(-1.0, z);
                                expr.add_scaled(1.0, &membership(a, slot_of(a, wire), c));
                                expr.add_scaled(1.0, &membership(b, slot_of(b, wire), c));
                                ilp.add_le(expr, 1.0);
                                usage.add_term(1.0, z);
                            }
                        }
                    }
                    if !usage.is_empty() {
                        ilp.add_le(usage, config.device_size as f64);
                    }
                }
            }
        } else {
            // No reuse (CutQC): every segment of c holds its own qubit for
            // the whole run, so c's segment count must not exceed D. The
            // wire's first node opens a segment when it is in c, and a
            // boundary (a, b) opens one when b is in c and a is not,
            // `init >= mb - ma`.
            for c in c_range.clone() {
                let mut segments = LinExpr::new();
                for wire in 0..dag.num_qubits() {
                    let nodes = dag.wire(QubitId::new(wire));
                    let Some(&first) = nodes.first() else { continue };
                    segments.add_scaled(1.0, &membership(first, slot_of(first, wire), c));
                    for pair in nodes.windows(2) {
                        let (a, b) = (pair[0], pair[1]);
                        let opens = ilp.add_binary(format!("init_{wire}_{a}_{b}_{c}"));
                        init.insert((wire, a, b, c), opens);
                        let mut expr = LinExpr::new().term(-1.0, opens);
                        expr.add_scaled(1.0, &membership(b, slot_of(b, wire), c));
                        expr.add_scaled(-1.0, &membership(a, slot_of(a, wire), c));
                        ilp.add_le(expr, 0.0);
                        segments.add_term(1.0, opens);
                    }
                }
                if !segments.is_empty() {
                    ilp.add_le(segments, config.device_size as f64);
                }
            }
        }

        // ---- cut budgets (paper Eq. (12)) ---------------------------------
        let mut total_wire = LinExpr::new();
        for &w in wire_cut.values() {
            total_wire.add_term(1.0, w);
        }
        if !total_wire.is_empty() {
            ilp.add_le(total_wire.clone(), config.max_wire_cuts as f64);
        }
        let mut total_gate = LinExpr::new();
        for &g in gate_cut.values() {
            total_gate.add_term(1.0, g);
        }
        if !total_gate.is_empty() {
            ilp.add_le(total_gate.clone(), config.max_gate_cuts as f64);
        }

        // ---- fidelity balancing (paper Eqs. (16)-(17)) --------------------
        let two_qubit_bound =
            dag.nodes().iter().filter(|n| n.op.is_two_qubit_gate()).count() as f64;
        let te = ilp.add_continuous("te", 0.0, two_qubit_bound.max(1.0));
        for c in c_range {
            let mut expr = LinExpr::new().term(-1.0, te);
            for (x, node) in dag.nodes().iter().enumerate() {
                if node.op.is_two_qubit_gate() {
                    expr.add_term(1.0, assign[x][c]);
                }
            }
            ilp.add_le(expr, 0.0);
        }

        // ---- objective (paper Eqs. (15), (18)) -----------------------------
        let mut objective = LinExpr::new();
        objective.add_scaled(config.delta * crate::config::ALPHA_WIRE_CUT, &total_wire);
        objective.add_scaled(config.delta * crate::config::BETA_GATE_CUT, &total_gate);
        if config.delta < 1.0 {
            objective.add_term((1.0 - config.delta) * 0.75, te);
            objective.add_constant((1.0 - config.delta) * 23.0);
        }
        ilp.minimize(objective);

        QrccModel {
            ilp,
            num_subcircuits,
            assign,
            gate_cut,
            gate_top,
            gate_bottom,
            wire_cut,
            bridge,
            init,
            te,
        }
    }

    /// Encodes a [`CutSolution`] as a variable assignment usable as a warm
    /// start for the solver, its labels renumbered in order of first
    /// appearance as the symmetry-breaking rows require.
    pub fn warm_start(&self, solution: &CutSolution, dag: &CircuitDag) -> Vec<f64> {
        let mut solution = solution.clone();
        crate::heuristic::normalize(&mut solution, dag);
        let mut values = vec![0.0; self.ilp.num_vars()];
        for (x, &sub) in solution.assignment.iter().enumerate() {
            if solution.is_gate_cut(x) {
                continue;
            }
            values[self.assign[x][sub].index()] = 1.0;
        }
        for (i, &x) in solution.gate_cuts.iter().enumerate() {
            let (top, bottom) = solution.gate_cut_assignment[i];
            if let Some(&g) = self.gate_cut.get(&x) {
                values[g.index()] = 1.0;
                values[self.gate_top[&x][top].index()] = 1.0;
                values[self.gate_bottom[&x][bottom].index()] = 1.0;
            }
        }
        // derived wire cuts, each opening a segment in its downstream
        // subcircuit
        for cut in solution.wire_cuts(dag) {
            let wire = cut.qubit.index();
            if let Some(&w) = self.wire_cut.get(&(wire, cut.from, cut.to)) {
                values[w.index()] = 1.0;
            }
            if let Some(&opens) = self.init.get(&(wire, cut.from, cut.to, cut.to_sub)) {
                values[opens.index()] = 1.0;
            }
        }
        // a bridge is 1 in the subcircuit holding both nodes around it
        for (layer, row) in live_cells(dag).into_iter().enumerate() {
            for (wire, cell) in row {
                let Live::Bridge(a, b) = cell else { continue };
                let qubit = QubitId::new(wire);
                let sub = solution.membership(dag, a, qubit);
                if sub != solution.membership(dag, b, qubit) {
                    continue;
                }
                if let Some(&z) = self.bridge.get(&(wire, layer, sub)) {
                    values[z.index()] = 1.0;
                }
            }
        }
        let te_value = solution.two_qubit_gate_counts(dag).into_iter().max().unwrap_or(0) as f64;
        values[self.te.index()] = te_value;
        values
    }

    /// Decodes an ILP solution back into a [`CutSolution`]. Labels the
    /// solution leaves unused are dropped: the symmetry rows open labels in
    /// order, so they are the trailing ones.
    pub fn extract(&self, solution: &qrcc_ilp::Solution) -> CutSolution {
        let num_nodes = self.assign.len();
        let mut assignment = vec![0usize; num_nodes];
        let mut gate_cuts = Vec::new();
        let mut gate_cut_assignment = Vec::new();
        for (x, slot) in assignment.iter_mut().enumerate() {
            if let Some(&g) = self.gate_cut.get(&x) {
                if solution.is_one(g) {
                    let top = (0..self.num_subcircuits)
                        .find(|&c| solution.is_one(self.gate_top[&x][c]))
                        .unwrap_or(0);
                    let bottom = (0..self.num_subcircuits)
                        .find(|&c| solution.is_one(self.gate_bottom[&x][c]))
                        .unwrap_or(if top == 0 { 1 } else { 0 });
                    gate_cuts.push(x);
                    gate_cut_assignment.push((top, bottom));
                    *slot = top;
                    continue;
                }
            }
            *slot = (0..self.num_subcircuits)
                .find(|&c| solution.is_one(self.assign[x][c]))
                .unwrap_or(0);
        }
        let used = assignment.iter().chain(gate_cut_assignment.iter().map(|(_, bottom)| bottom));
        CutSolution {
            num_subcircuits: used.max().map_or(1, |&last| last + 1),
            assignment,
            gate_cuts,
            gate_cut_assignment,
        }
    }
}

/// What makes a wire live at a layer in constraint (11).
#[derive(Debug, Clone, Copy)]
enum Live {
    /// The wire's node at that layer.
    Node(NodeId),
    /// The layer falls strictly between the wire's consecutive nodes `a` and
    /// `b`: the wire is live there when both are in the same subcircuit.
    Bridge(NodeId, NodeId),
}

/// The live cells of every layer, `(wire, Live)` in wire order, from one walk
/// over each wire's consecutive node pairs. A wire is live at the layer of
/// each of its nodes and, bridged, at the layers between two consecutive
/// ones, so a run of the wire in one subcircuit is live over `[layer(first),
/// layer(last)]`, the interval [`Segment::interval`](crate::Segment::interval)
/// gives it.
fn live_cells(dag: &CircuitDag) -> Vec<Vec<(usize, Live)>> {
    let mut cells = vec![Vec::new(); dag.num_layers()];
    for wire in 0..dag.num_qubits() {
        let nodes = dag.wire(QubitId::new(wire));
        if let Some(&first) = nodes.first() {
            cells[dag.node(first).layer].push((wire, Live::Node(first)));
        }
        for pair in nodes.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            for row in &mut cells[dag.node(a).layer + 1..dag.node(b).layer] {
                row.push((wire, Live::Bridge(a, b)));
            }
            cells[dag.node(b).layer].push((wire, Live::Node(b)));
        }
    }
    cells
}

/// Adds the symmetry-breaking rows that keep one of a plan's `C!` relabelled
/// copies: a node may use subcircuit `c` only if `c − 1` is used by it or by
/// an earlier node, `open(x, c) ≤ Σ_{y ≤ x} open(y, c − 1)`, where
/// `open(x, c)` counts node `x`'s uses of subcircuit `c`. Labels then open in
/// order of first appearance, and the first node sits in subcircuit 0.
fn open_labels_in_order(
    ilp: &mut Model,
    num_nodes: usize,
    num_subcircuits: usize,
    open: impl Fn(NodeId, usize) -> LinExpr,
) {
    for c in 1..num_subcircuits {
        let mut opened_before = LinExpr::new();
        for x in 0..num_nodes {
            opened_before.add_scaled(1.0, &open(x, c - 1));
            let mut row = open(x, c);
            row.add_scaled(-1.0, &opened_before);
            ilp.add_le(row, 0.0);
        }
    }
}

/// Builds and solves the QRCC ILP for the same subcircuit count as the warm
/// solution, returning a refined solution if the solver produced one.
///
/// Returns `None` when the solver fails (time limit with no feasible point,
/// infeasible due to the exact layer-wise capacity being stricter than the
/// heuristic's interval accounting, ...); callers keep the heuristic solution
/// in that case.
pub fn refine_with_ilp(
    dag: &CircuitDag,
    warm: &CutSolution,
    config: &QrccConfig,
) -> Option<CutSolution> {
    let model = QrccModel::build(dag, config, warm.num_subcircuits.max(2));
    let warm_values = model.warm_start(warm, dag);
    let solver_config =
        SolverConfig { time_limit: config.ilp_time_limit, ..SolverConfig::default() };
    let solution =
        solver::solve_with_warm_start(&model.ilp, &solver_config, Some(&warm_values)).ok()?;
    let extracted = model.extract(&solution);
    extracted.validate(dag).ok()?;
    Some(extracted)
}

/// Builds and solves the QRCC model from scratch (no warm start), returning
/// the cut solution, the solver status and the wall-clock time. Used by the
/// search-time comparison experiment (Table 4), which solves it under
/// [`QrccConfig::new`] and [`QrccConfig::cutqc`].
pub fn solve_qrcc_model(
    dag: &CircuitDag,
    config: &QrccConfig,
    num_subcircuits: usize,
    time_limit: Duration,
) -> Option<(CutSolution, qrcc_ilp::SolveStatus, Duration)> {
    let start = std::time::Instant::now();
    let model = QrccModel::build(dag, config, num_subcircuits);
    let solver_config = SolverConfig { time_limit, ..SolverConfig::default() };
    let solution = solver::solve(&model.ilp, &solver_config).ok()?;
    let status = solution.status();
    let extracted = model.extract(&solution);
    Some((extracted, status, start.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic;
    use crate::planner::CutPlanner;
    use qrcc_circuit::{generators, Circuit};

    fn ghz(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.set_name(format!("ghz_{n}"));
        c.h(0);
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        c
    }

    fn ghz_chain(n: usize) -> CircuitDag {
        CircuitDag::from_circuit(&ghz(n))
    }

    #[test]
    fn model_size_scales_with_nodes_and_subcircuits() {
        let dag = ghz_chain(4);
        let config = QrccConfig::new(3);
        let model = QrccModel::build(&dag, &config, 2);
        // 4 nodes x 2 subcircuits assignment vars at minimum
        assert!(model.ilp.num_vars() >= 8);
        assert!(model.ilp.num_constraints() > 4);
    }

    #[test]
    fn ilp_finds_reuse_only_solution_for_ghz_chain() {
        let dag = ghz_chain(5);
        let config = QrccConfig::new(3);
        let (solution, status, _) =
            solve_qrcc_model(&dag, &config, 2, Duration::from_secs(20)).expect("solvable");
        assert_eq!(status, qrcc_ilp::SolveStatus::Optimal);
        solution.validate(&dag).unwrap();
        let metrics = solution.metrics(&dag, true);
        // With qubit reuse a linear GHZ chain fits a 3-qubit device without
        // any cut at all (the exact optimum), which the ILP should discover.
        assert_eq!(metrics.wire_cuts, 0, "reuse makes the chain fit without cuts");
        assert!(metrics.subcircuit_widths.iter().all(|&w| w <= 3));
    }

    #[test]
    fn warm_start_round_trips_through_the_model() {
        let dag = ghz_chain(5);
        for reuse in [true, false] {
            let config = QrccConfig::new(3).with_qubit_reuse(reuse);
            let heuristic_solution = heuristic::search_with_subcircuits(&dag, &config, 2);
            let widths = heuristic_solution.subcircuit_widths(&dag, reuse);
            assert!(widths.iter().all(|&w| w <= 3), "reuse {reuse}: widths {widths:?}");
            let model = QrccModel::build(&dag, &config, 2);
            let warm = model.warm_start(&heuristic_solution, &dag);
            assert!(
                model.ilp.is_feasible(&warm, 1e-6),
                "reuse {reuse}: heuristic warm start must satisfy the ILP constraints"
            );
        }
    }

    #[test]
    fn capacity_rows_follow_the_reuse_flag() {
        // q1 idles through layers 1 and 2; the wires have 3 + 1 boundaries
        let mut c = Circuit::new(2);
        c.h(1).h(0).h(0).h(0).cx(0, 1);
        let dag = CircuitDag::from_circuit(&c);
        let reuse = QrccModel::build(&dag, &QrccConfig::new(2), 2);
        assert_eq!((reuse.bridge.len(), reuse.init.len()), (2 * 2, 0));
        let no_reuse = QrccModel::build(&dag, &QrccConfig::cutqc(2), 2);
        assert_eq!((no_reuse.bridge.len(), no_reuse.init.len()), (0, 4 * 2));
        let uncut = CutSolution { num_subcircuits: 2, ..CutSolution::trivial(&dag) };
        assert!(no_reuse.ilp.is_feasible(&no_reuse.warm_start(&uncut, &dag), 1e-6));
    }

    #[test]
    fn extract_drops_the_labels_an_optimum_leaves_unused() {
        // reuse runs the chain uncut on two qubits, so the optimum over two
        // labels leaves label 1 empty; without reuse one cut splits it in
        // two, and the optimum over three labels leaves label 2 empty
        let limit = Duration::from_secs(20);
        let dag = ghz_chain(5);
        let (solution, _, _) = solve_qrcc_model(&dag, &QrccConfig::new(3), 2, limit).unwrap();
        assert_eq!(solution.num_subcircuits, 1);
        assert_eq!(solution.subcircuit_widths(&dag, true), vec![2]);
        let (solution, _, _) = solve_qrcc_model(&dag, &QrccConfig::cutqc(3), 3, limit).unwrap();
        assert_eq!(solution.num_subcircuits, 2);
        assert_eq!(solution.subcircuit_widths(&dag, false), vec![3, 3]);
    }

    #[test]
    fn cutqc_preset_plans_without_gate_cuts_or_reuse() {
        let circuit = generators::qft(5);
        let config = QrccConfig::cutqc(4);
        assert!(!config.gate_cuts_enabled);
        assert!(!config.qubit_reuse_enabled);
        let plan =
            CutPlanner::new(config.with_ilp_time_limit(Duration::ZERO)).plan(&circuit).unwrap();
        assert_eq!(plan.gate_cut_count(), 0);
        assert!(plan.subcircuit_widths().iter().all(|&w| w <= 4));
        assert_eq!(plan.subcircuit_widths(), plan.solution().subcircuit_widths(plan.dag(), false));
    }

    #[test]
    fn no_reuse_model_solves_small_chains() {
        let dag = ghz_chain(4);
        let (solution, _status, _time) =
            solve_qrcc_model(&dag, &QrccConfig::cutqc(3), 2, Duration::from_secs(20))
                .expect("solvable");
        solution.validate(&dag).unwrap();
        // without reuse, splitting a 4-qubit chain for a 3-qubit device needs
        // at least one cut
        assert!(!solution.wire_cuts(&dag).is_empty());
        assert!(solution.subcircuit_widths(&dag, false).iter().all(|&w| w <= 3));
    }

    #[test]
    fn model_optimum_matches_exhaustive_search() {
        // every two-subcircuit assignment, judged by the widths of the
        // model's own reuse setting: the model's proven optimum, or its
        // proof that none fits, must agree
        let cases = [
            (generators::qft(4), 3),
            (generators::qft(5), 4),
            (generators::aqft(5, 2), 4),
            (generators::vqe_two_local(4, 1, 3), 3),
            (ghz(5), 3),
            (generators::aqft(7, 3), 5),
        ];
        for ((circuit, device), reuse) in
            cases.iter().flat_map(|case| [(case, false), (case, true)])
        {
            let dag = CircuitDag::from_circuit(circuit);
            let nodes = dag.nodes().len();
            // node 0 sits in subcircuit 0: the other half are relabellings
            let exhaustive = (0..1u32 << (nodes - 1))
                .filter_map(|mask| {
                    let solution = CutSolution {
                        num_subcircuits: 2,
                        assignment: (0..nodes).map(|x| ((mask << 1) >> x & 1) as usize).collect(),
                        gate_cuts: Vec::new(),
                        gate_cut_assignment: Vec::new(),
                    };
                    let widths = solution.subcircuit_widths(&dag, reuse);
                    widths.iter().all(|w| w <= device).then(|| solution.wire_cuts(&dag).len())
                })
                .min();
            let config = QrccConfig::new(*device).with_qubit_reuse(reuse);
            let solved = solve_qrcc_model(&dag, &config, 2, Duration::from_secs(60));
            let name = format!("{} on {device} qubits, reuse {reuse}", circuit.name());
            match (exhaustive, solved) {
                (None, None) => {}
                (Some(cuts), Some((solution, status, _))) => {
                    assert_eq!(status, qrcc_ilp::SolveStatus::Optimal, "{name}");
                    assert_eq!(solution.wire_cuts(&dag).len(), cuts, "{name}");
                    let widths = solution.subcircuit_widths(&dag, reuse);
                    assert!(widths.iter().all(|w| w <= device), "{name}: widths {widths:?}");
                }
                (exhaustive, solved) => {
                    panic!("{name}: exhaustive {exhaustive:?}, model {:?}", solved.map(|s| s.1))
                }
            }
        }
    }

    #[test]
    fn warm_start_relabels_an_out_of_order_plan_to_satisfy_the_symmetry_rows() {
        let dag = ghz_chain(5);
        let config = QrccConfig::new(3);
        let mut swapped = heuristic::search_with_subcircuits(&dag, &config, 2);
        swapped.num_subcircuits = 2;
        for sub in &mut swapped.assignment {
            *sub = 1 - *sub;
        }
        assert_eq!(swapped.assignment[0], 1, "the first node opens label 1");
        let model = QrccModel::build(&dag, &config, 2);
        assert!(model.ilp.is_feasible(&model.warm_start(&swapped, &dag), 1e-6));
    }

    #[test]
    fn warm_start_relabels_the_halves_of_a_gate_cut() {
        // the h opens label 1 and the cut cz's top half joins it, the bottom
        // half opens label 0
        let mut c = Circuit::new(2);
        c.h(0).cz(0, 1);
        let dag = CircuitDag::from_circuit(&c);
        let config = QrccConfig::new(1).with_gate_cuts(true);
        let cut = CutSolution {
            num_subcircuits: 2,
            assignment: vec![1, 1],
            gate_cuts: vec![1],
            gate_cut_assignment: vec![(1, 0)],
        };
        cut.validate(&dag).unwrap();
        let model = QrccModel::build(&dag, &config, 2);
        let warm = model.warm_start(&cut, &dag);
        assert!(model.ilp.is_feasible(&warm, 1e-6));
        assert_eq!(warm[model.gate_top[&1][0].index()], 1.0);
        assert_eq!(warm[model.gate_bottom[&1][1].index()], 1.0);
    }

    #[test]
    fn warm_start_sets_the_bridges_and_te_of_an_idle_stretch() {
        // q1 is touched at layers 0 and 3 only, so layers 1 and 2 of its wire
        // are bridged; a warm start leaving those bridges at 0 is infeasible
        let mut c = Circuit::new(2);
        c.h(1).h(0).h(0).h(0).cx(0, 1);
        let dag = CircuitDag::from_circuit(&c);
        let model = QrccModel::build(&dag, &QrccConfig::new(2), 2);
        assert_eq!(model.bridge.len(), 2 * 2, "two layers in each of two subcircuits");
        let uncut = CutSolution { num_subcircuits: 2, ..CutSolution::trivial(&dag) };
        let warm = model.warm_start(&uncut, &dag);
        assert!(model.ilp.is_feasible(&warm, 1e-6));
        assert_eq!(warm[model.bridge[&(1, 1, 0)].index()], 1.0);
        assert_eq!(warm[model.bridge[&(1, 2, 0)].index()], 1.0);
        assert_eq!(warm[model.bridge[&(1, 1, 1)].index()], 0.0);
        assert_eq!(warm[model.te.index()], 1.0);
        assert_eq!(model.ilp.var_name(model.te), "te");
    }

    #[test]
    fn refine_never_returns_invalid_solutions() {
        let dag = ghz_chain(6);
        let config = QrccConfig::new(4).with_ilp_time_limit(Duration::from_secs(5));
        let warm = heuristic::search_with_subcircuits(&dag, &config, 2);
        if let Some(refined) = refine_with_ilp(&dag, &warm, &config) {
            refined.validate(&dag).unwrap();
        }
    }

    #[test]
    fn gate_cut_variables_are_created_only_when_enabled() {
        let mut c = Circuit::new(2);
        c.h(0).cz(0, 1);
        let dag = CircuitDag::from_circuit(&c);
        let without = QrccModel::build(&dag, &QrccConfig::new(1), 2);
        let with = QrccModel::build(&dag, &QrccConfig::new(1).with_gate_cuts(true), 2);
        assert!(with.ilp.num_vars() > without.ilp.num_vars());
        assert!(without.gate_cut.is_empty());
        assert_eq!(with.gate_cut.len(), 1);
    }
}
