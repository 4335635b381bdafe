//! Wire-dependency DAG over circuit operations and ASAP layering.
//!
//! Each node of the [`CircuitDag`] is one operation of the source circuit;
//! there is an edge from node `a` to node `b` when `b` is the next operation
//! after `a` on some qubit wire. The ASAP layer of each node is the clock of
//! qubit reuse: a run of a wire's nodes holds a physical qubit from the
//! layer of its first node to the layer of its last, both inclusive, and
//! [`CircuitDag::emission_order`] is the order in which circuits sharing
//! physical qubits are written out.

use crate::{Circuit, Operation, QubitId};

/// Identifier of a node (operation) inside a [`CircuitDag`].
pub type NodeId = usize;

/// A node of the circuit DAG: one operation plus its wire neighbours.
#[derive(Debug, Clone, PartialEq)]
pub struct DagNode {
    /// Index of the operation in the source circuit.
    pub op_index: usize,
    /// The operation itself.
    pub op: Operation,
    /// Predecessor node on each qubit the operation touches (same order as
    /// [`Operation::qubits`]); `None` when the operation is the first on that
    /// wire.
    pub predecessors: Vec<Option<NodeId>>,
    /// Successor node on each qubit the operation touches; `None` when the
    /// operation is the last on that wire.
    pub successors: Vec<Option<NodeId>>,
    /// ASAP layer of the node (0-based).
    pub layer: usize,
}

/// Dependency DAG of a [`Circuit`] with ASAP layering.
///
/// ```rust
/// use qrcc_circuit::{Circuit, dag::CircuitDag};
///
/// let mut c = Circuit::new(3);
/// c.h(0).cx(0, 1).cx(1, 2);
/// let dag = CircuitDag::from_circuit(&c);
/// assert_eq!(dag.num_layers(), 3);
/// assert_eq!(dag.nodes().len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitDag {
    nodes: Vec<DagNode>,
    num_qubits: usize,
    /// For each qubit, the nodes touching it in program order.
    wire_nodes: Vec<Vec<NodeId>>,
    num_layers: usize,
}

impl CircuitDag {
    /// Builds the DAG of `circuit` (barriers are skipped: they do not carry
    /// data dependencies for the purposes of cutting and reuse).
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let num_qubits = circuit.num_qubits();
        let mut nodes: Vec<DagNode> = Vec::new();
        let mut wire_nodes: Vec<Vec<NodeId>> = vec![Vec::new(); num_qubits];
        let mut last_on_wire: Vec<Option<NodeId>> = vec![None; num_qubits];
        let mut wire_depth: Vec<usize> = vec![0; num_qubits];

        for (op_index, op) in circuit.operations().iter().enumerate() {
            if op.is_barrier() {
                continue;
            }
            let qubits = op.qubits();
            let id = nodes.len();
            let layer = qubits.iter().map(|q| wire_depth[q.index()]).max().unwrap_or(0);
            let mut predecessors = Vec::with_capacity(qubits.len());
            for q in &qubits {
                let prev = last_on_wire[q.index()];
                if let Some(p) = prev {
                    // find which slot of p corresponds to this qubit
                    let pq = nodes[p].op.qubits();
                    for (slot, pqq) in pq.iter().enumerate() {
                        if pqq == q {
                            nodes[p].successors[slot] = Some(id);
                        }
                    }
                }
                predecessors.push(prev);
            }
            let successors = vec![None; qubits.len()];
            for q in &qubits {
                last_on_wire[q.index()] = Some(id);
                wire_depth[q.index()] = layer + 1;
                wire_nodes[q.index()].push(id);
            }
            nodes.push(DagNode { op_index, op: op.clone(), predecessors, successors, layer });
        }

        let num_layers = nodes.iter().map(|n| n.layer + 1).max().unwrap_or(0);
        CircuitDag { nodes, num_qubits, wire_nodes, num_layers }
    }

    /// All nodes, in program order (which is also a topological order).
    pub fn nodes(&self) -> &[DagNode] {
        &self.nodes
    }

    /// The node with the given id.
    pub fn node(&self, id: NodeId) -> &DagNode {
        &self.nodes[id]
    }

    /// Number of qubits of the underlying circuit.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of ASAP layers.
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// The nodes touching qubit `q`, in program order.
    pub fn wire(&self, q: QubitId) -> &[NodeId] {
        &self.wire_nodes[q.index()]
    }

    /// Every node in `(layer, id)` order, the order in which the nodes of
    /// runs sharing physical qubits are emitted. It is topological, and every
    /// node of a layer comes after every node of the layers before it, so a
    /// run that ends at layer `l` is finished (measured) before a run
    /// starting after `l` takes over its physical qubit.
    pub fn emission_order(&self) -> Vec<NodeId> {
        let mut order: Vec<NodeId> = (0..self.nodes.len()).collect();
        order.sort_by_key(|&id| (self.nodes[id].layer, id));
        order
    }

    /// All transitive predecessors of `id` (the causal cone feeding into it),
    /// excluding `id` itself.
    pub fn ancestors(&self, id: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            for pred in self.nodes[n].predecessors.iter().flatten() {
                if !seen[*pred] {
                    seen[*pred] = true;
                    stack.push(*pred);
                }
            }
        }
        seen.iter().enumerate().filter_map(|(i, &s)| if s { Some(i) } else { None }).collect()
    }

    /// All transitive successors of `id`, excluding `id` itself.
    pub fn descendants(&self, id: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            for succ in self.nodes[n].successors.iter().flatten() {
                if !seen[*succ] {
                    seen[*succ] = true;
                    stack.push(*succ);
                }
            }
        }
        seen.iter().enumerate().filter_map(|(i, &s)| if s { Some(i) } else { None }).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gate;

    #[test]
    fn linear_chain_layers() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let dag = CircuitDag::from_circuit(&c);
        assert_eq!(dag.num_layers(), 3);
        assert_eq!(dag.node(0).layer, 0);
        assert_eq!(dag.node(1).layer, 1);
        assert_eq!(dag.node(2).layer, 2);
    }

    #[test]
    fn parallel_gates_share_a_layer() {
        let mut c = Circuit::new(4);
        c.h(0).h(1).cx(0, 1).cx(2, 3);
        let dag = CircuitDag::from_circuit(&c);
        assert_eq!(dag.node(2).layer, 1); // cx(0,1) waits for both h gates
        assert_eq!(dag.node(3).layer, 0); // cx(2,3) has no predecessors
        assert_eq!(dag.num_layers(), 2);
    }

    #[test]
    fn wire_links_are_consistent() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).h(1);
        let dag = CircuitDag::from_circuit(&c);
        // node 0 (h q0) successor on q0 is node 1 (cx)
        assert_eq!(dag.node(0).successors, vec![Some(1)]);
        // node 1 predecessors: q0 -> node 0, q1 -> none
        assert_eq!(dag.node(1).predecessors, vec![Some(0), None]);
        // node 1 successors: q0 -> none, q1 -> node 2
        assert_eq!(dag.node(1).successors, vec![None, Some(2)]);
        assert_eq!(dag.wire(QubitId::new(1)), &[1, 2]);
    }

    #[test]
    fn barriers_are_skipped() {
        let mut c = Circuit::new(2);
        c.h(0).barrier().cx(0, 1);
        let dag = CircuitDag::from_circuit(&c);
        assert_eq!(dag.nodes().len(), 2);
    }

    #[test]
    fn ancestors_and_descendants() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).h(2);
        let dag = CircuitDag::from_circuit(&c);
        assert_eq!(dag.ancestors(0), Vec::<usize>::new());
        assert_eq!(dag.ancestors(2), vec![0, 1]);
        assert_eq!(dag.descendants(0), vec![1, 2, 3]);
        assert_eq!(dag.descendants(3), Vec::<usize>::new());
    }

    #[test]
    fn wire_first_and_last_layers() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let dag = CircuitDag::from_circuit(&c);
        let layer = |id: Option<&NodeId>| id.map(|&id| dag.node(id).layer);
        assert_eq!(layer(dag.wire(QubitId::new(2)).first()), Some(2));
        assert_eq!(layer(dag.wire(QubitId::new(0)).last()), Some(1));
        let idle = Circuit::new(2);
        assert!(CircuitDag::from_circuit(&idle).wire(QubitId::new(0)).is_empty());
    }

    #[test]
    fn emission_order_is_by_layer_then_id() {
        // program order interleaves the layers: cx(2,3) (node 3) sits at
        // layer 0 behind two layer-1 nodes
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).h(0).cx(2, 3).cx(1, 2);
        let dag = CircuitDag::from_circuit(&c);
        let layers: Vec<usize> = dag.nodes().iter().map(|n| n.layer).collect();
        assert_eq!(layers, [0, 1, 2, 0, 2]);
        assert_eq!(dag.emission_order(), [0, 3, 1, 2, 4]);
    }

    #[test]
    fn measure_and_reset_participate_in_the_dag() {
        let mut c = Circuit::new(1);
        c.h(0).measure(0, 0).reset(0).x(0);
        let dag = CircuitDag::from_circuit(&c);
        assert_eq!(dag.nodes().len(), 4);
        assert_eq!(dag.num_layers(), 4);
        assert!(dag.node(1).op.is_measure());
        assert!(matches!(dag.node(3).op.as_gate(), Some(Gate::X)));
    }
}
