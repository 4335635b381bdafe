//! Cross-crate integration tests for the planning side: device budgets are
//! respected, qubit reuse behaves like the CaQR-style pass, and the QRCC
//! planner compares favourably against the CutQC-style baseline (the paper's
//! Tables 1 and 6 in miniature).

use qrcc::circuit::generators;
use qrcc::core::fragment::FragmentSet;
use qrcc::core::reuse::ReusePass;
use qrcc::prelude::*;
use qrcc::sim::branching::classical_distribution;
use std::time::Duration;

fn heuristic_config(device: usize) -> QrccConfig {
    QrccConfig::new(device).with_ilp_time_limit(Duration::ZERO)
}

#[test]
fn every_fragment_fits_the_device_for_assorted_benchmarks() {
    let workloads: Vec<(Circuit, usize)> = vec![
        (generators::qft(8), 5),
        (generators::aqft(10, 3), 6),
        (generators::ripple_carry_adder(4, 2), 6),
        (generators::supremacy(2, 4, 5, 3), 5),
        (generators::vqe_two_local(10, 2, 3), 6),
        (generators::qaoa_regular(10, 3, 1, 4).0, 6),
    ];
    // the planner prices a subcircuit at the width model of its config, and
    // the fragment built from it must be exactly that wide, reuse on or off;
    // without reuse some of these circuits have no plan on the device at all
    let mut checked_without_reuse = 0;
    for ((circuit, device), reuse) in workloads.iter().flat_map(|w| [(w, true), (w, false)]) {
        let device = *device;
        let config = heuristic_config(device).with_qubit_reuse(reuse);
        let plan = match CutPlanner::new(config).plan(circuit) {
            Ok(plan) => plan,
            Err(_) if !reuse => continue,
            Err(e) => panic!("no plan for {} on {device} qubits: {e}", circuit.name()),
        };
        checked_without_reuse += usize::from(!reuse);
        assert!(
            plan.subcircuit_widths().iter().all(|&w| w <= device),
            "{}: widths {:?} exceed device {device}",
            circuit.name(),
            plan.subcircuit_widths()
        );
        let widths = plan.solution().subcircuit_widths(plan.dag(), reuse);
        let fragments = FragmentSet::from_plan(&plan).expect("fragments");
        for fragment in &fragments.fragments {
            assert!(fragment.num_physical <= device);
            assert_eq!(
                fragment.num_physical,
                widths[fragment.index].max(1),
                "{} (reuse {reuse}): fragment {} against the planned widths {widths:?}",
                circuit.name(),
                fragment.index
            );
            let instantiated = fragment.instantiate(0, 0);
            assert!(instantiated.num_qubits() <= device);
        }
    }
    assert!(checked_without_reuse >= 5, "{checked_without_reuse} plans without reuse");
}

#[test]
fn reuse_pass_preserves_distributions_and_shrinks_width() {
    let mut circuit = Circuit::new(5);
    circuit.h(0).cx(0, 1).ry(0.4, 1).cx(1, 2).cx(2, 3).rz(0.8, 3).cx(3, 4);
    let reused = ReusePass::new().apply(&circuit).expect("reuse");
    assert!(reused.num_physical <= 3, "chain should need at most 3 physical qubits");
    let exact = StateVector::from_circuit(&circuit).unwrap().probabilities();
    let transformed = classical_distribution(&reused.circuit).unwrap();
    for (a, b) in exact.iter().zip(&transformed) {
        assert!((a - b).abs() < 1e-9);
    }
}

#[test]
fn qrcc_never_needs_more_cuts_than_the_baseline_on_reuse_friendly_workloads() {
    // Linear-entanglement workloads expose many reuse opportunities, which is
    // exactly where the paper reports the largest gains. Both planners run
    // the heuristic alone, so the comparison is of search spaces, not of
    // how far a time-limited ILP refinement gets.
    for (circuit, device) in [
        (generators::vqe_two_local(10, 2, 1), 6),
        (generators::vqe_two_local(8, 2, 3), 5),
        (generators::ripple_carry_adder(4, 7), 6),
    ] {
        let qrcc = CutPlanner::new(heuristic_config(device)).plan(&circuit).expect("qrcc plan");
        let baseline =
            CutPlanner::new(QrccConfig::cutqc(device).with_ilp_time_limit(Duration::ZERO));
        // The baseline failing outright is an even stronger form of the claim.
        if let Ok(cutqc) = baseline.plan(&circuit) {
            assert!(
                qrcc.wire_cut_count() <= cutqc.wire_cut_count(),
                "{}: qrcc {} cuts vs cutqc {} cuts",
                circuit.name(),
                qrcc.wire_cut_count(),
                cutqc.wire_cut_count()
            );
        }
    }
}

#[test]
fn gate_cuts_only_appear_when_enabled() {
    let (circuit, _) = generators::qaoa_regular(8, 3, 1, 2);
    let without = CutPlanner::new(heuristic_config(5)).plan(&circuit).expect("plan");
    assert_eq!(without.gate_cut_count(), 0);
    let with =
        CutPlanner::new(heuristic_config(5).with_gate_cuts(true)).plan(&circuit).expect("plan");
    // gate cuts are allowed (not required); the planner must still satisfy
    // the budget either way
    assert!(with.subcircuit_widths().iter().all(|&w| w <= 5));
}

#[test]
fn planner_reports_unsatisfiable_budgets() {
    let circuit = generators::qft(6);
    let err = CutPlanner::new(heuristic_config(1)).plan(&circuit);
    assert!(err.is_err());
    let err = CutPlanner::new(heuristic_config(9)).plan(&circuit);
    assert!(err.is_err(), "device larger than the circuit must be rejected");
}

#[test]
fn total_instance_count_follows_the_4_3_6_rule() {
    let (circuit, _) = generators::qaoa_regular(6, 2, 1, 5);
    let config = heuristic_config(4).with_gate_cuts(true).with_subcircuit_range(2, 3);
    let pipeline = QrccPipeline::plan(&circuit, config).expect("plan");
    let fragments = pipeline.fragments();
    let expected: u64 = fragments
        .fragments
        .iter()
        .map(|f| {
            4u64.pow(f.incoming_cuts.len() as u32)
                * 3u64.pow(f.outgoing_cuts.len() as u32)
                * 6u64.pow(f.gate_cut_roles.len() as u32)
        })
        .sum();
    assert_eq!(pipeline.total_instances(), expected);
}
