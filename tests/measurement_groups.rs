//! Qubit-wise-commuting measurement groups end to end: Pauli terms that agree
//! on the outputs they both act on share a fragment's measurement setting,
//! and so its variants. The grouped requests must still reconstruct exactly
//! (equal the uncut state vector to 1e-9 under `Dense` and `Contract`,
//! streamed in chunks), and a sampled request must spend exactly its budget
//! on exactly the grouped circuits.

use qrcc::circuit::generators::{self, HamiltonianKind};
use qrcc::circuit::observable::Pauli;
use qrcc::prelude::*;
use std::collections::HashSet;
use std::time::Duration;

fn config(device: usize) -> QrccConfig {
    QrccConfig::new(device).with_subcircuit_range(2, 3).with_ilp_time_limit(Duration::ZERO)
}

/// TFIM on a 2×3 lattice (6 qubits), one Trotter step, and its Ising
/// observable `Σ ZZ + 0.5 Σ X`.
fn tfim() -> (Circuit, PauliObservable) {
    let (circuit, lattice) = generators::hamiltonian_simulation(
        HamiltonianKind::TransverseFieldIsing,
        2,
        3,
        false,
        1,
        0.3,
    );
    (circuit, PauliObservable::ising(&lattice, 1.0, 0.5))
}

/// The `(fragment, outputs)` measurement settings `observable`'s requests
/// enumerate, and how many of them an ungrouped enumeration would list: one
/// per distinct output-basis signature (I read as Z) per executing fragment.
fn settings(
    fragments: &FragmentSet,
    observable: &PauliObservable,
) -> (HashSet<(usize, u64)>, usize) {
    let requests = ExpectationReconstructor::new().requests(fragments, observable).unwrap();
    let grouped: HashSet<(usize, u64)> =
        requests.iter().map(|r| (r.key.fragment, r.key.outputs)).collect();
    let per_signature: usize = fragments
        .fragments
        .iter()
        .filter(|f| f.num_clbits > 0)
        .map(|f| {
            let signatures: HashSet<Vec<Pauli>> = observable
                .terms()
                .iter()
                .map(|(_, string)| {
                    f.output_clbits
                        .iter()
                        .map(|&(orig, _)| match string.pauli(orig) {
                            Pauli::I => Pauli::Z,
                            p => p,
                        })
                        .collect()
                })
                .collect();
            signatures.len()
        })
        .sum();
    (grouped, per_signature)
}

/// Streams `observable` through a one-entry exact registry in chunks of 5,
/// under `Dense` and `Contract`, and checks both against the state vector.
fn assert_streams_exactly(circuit: &Circuit, observable: &PauliObservable, config: QrccConfig) {
    let exact = StateVector::from_circuit(circuit).unwrap().expectation(observable);
    for strategy in [ReconstructionStrategy::Dense, ReconstructionStrategy::Contract] {
        let pipeline =
            QrccPipeline::plan(circuit, config.clone().with_reconstruction_strategy(strategy))
                .unwrap();
        let (grouped, per_signature) = settings(pipeline.fragments(), observable);
        assert!(grouped.len() <= per_signature, "more settings than signatures");
        let mut registry = DeviceRegistry::new();
        registry.register("exact", ExactBackend::new());
        let scheduler = Scheduler::new(&registry, SchedulePolicy::default().with_chunk_size(5));
        let (value, _, report) =
            pipeline.execute_observables_streaming(&scheduler, observable).unwrap();
        assert!(report.chunks > 1, "the request must stream in several chunks");
        assert!(
            (value - exact).abs() < 1e-9,
            "{strategy:?}: reconstructed {value} vs exact {exact}"
        );
    }
}

/// An 8-qubit Heisenberg chain: XX, YY and ZZ terms on bonds that share a
/// qubit disagree there, so they never share a setting.
#[test]
fn heisenberg_xx_yy_zz_terms_stream_exactly() {
    let (circuit, lattice) =
        generators::hamiltonian_simulation(HamiltonianKind::Heisenberg, 1, 8, false, 1, 0.3);
    let observable = PauliObservable::heisenberg(&lattice, 1.0, 0.7, 0.4);
    assert_streams_exactly(&circuit, &observable, config(4));
}

#[test]
fn tfim_terms_stream_exactly_and_group_into_fewer_settings() {
    let (circuit, observable) = tfim();
    let pipeline = QrccPipeline::plan(&circuit, config(4)).unwrap();
    let (grouped, per_signature) = settings(pipeline.fragments(), &observable);
    // on each fragment the ZZ terms share the all-Z setting and the X-field
    // terms one all-X setting
    assert_eq!((grouped.len(), per_signature), (4, 8));
    assert_streams_exactly(&circuit, &observable, config(4));
}

/// X, Y and Z mixed within and across terms, plus the identity, on a QAOA
/// plan with a wire cut and a gate cut.
#[test]
fn mixed_terms_stream_exactly_on_a_gate_cut_plan() {
    let (circuit, _) = generators::qaoa_regular(6, 2, 1, 13);
    let mut observable = PauliObservable::new(6);
    let terms = ["XXIIII", "IXXIII", "ZIIIIZ", "IIYYII", "IIIZXI", "XIIIIY", "IIIIII", "YZXIII"];
    for (t, term) in terms.iter().enumerate() {
        let paulis = term.chars().map(|c| match c {
            'X' => Pauli::X,
            'Y' => Pauli::Y,
            'Z' => Pauli::Z,
            _ => Pauli::I,
        });
        observable.add_term(0.25 + 0.125 * t as f64, PauliString::from_paulis(paulis.collect()));
    }
    let config = config(4).with_gate_cuts(true);
    let pipeline = QrccPipeline::plan(&circuit, config.clone()).unwrap();
    assert!(pipeline.fragments().num_gate_cuts() >= 1, "the plan must cut a gate");
    assert_streams_exactly(&circuit, &observable, config);
}

/// A seeded sampled TFIM request over two shot-sampling devices under one
/// budget.
fn sampled_tfim(
    pipeline: &QrccPipeline,
    observable: &PauliObservable,
    seed: u64,
) -> (f64, ScheduleReport) {
    let mut registry = DeviceRegistry::new();
    for (name, stream) in [("a", seed), ("b", seed ^ 0x5eed)] {
        let device = Device::new(DeviceConfig::ideal(4).with_seed(stream));
        registry.register(name, ShotsBackend::new(device, 1_000));
    }
    let policy = SchedulePolicy::with_budget(BUDGET).with_min_shots(64).with_chunk_size(16);
    let (value, _, report) = pipeline
        .execute_observables_streaming(&Scheduler::new(&registry, policy), observable)
        .unwrap();
    (value, report)
}

const BUDGET: u64 = 2_000_000;

/// Tolerance on the sampled TFIM estimate at [`BUDGET`] shots. Over the
/// device seeds 0–23 of [`sampled_tfim`] the error's RMS was 0.032 and its
/// largest magnitude 0.058; 0.16 is 5 RMS.
const SAMPLED_TOLERANCE: f64 = 0.16;

#[test]
fn sampled_grouped_request_spends_the_budget_on_the_grouped_circuits() {
    let (circuit, observable) = tfim();
    let pipeline = QrccPipeline::plan(&circuit, config(4)).unwrap();
    assert_eq!(pipeline.fragments().num_gate_cuts(), 0, "a wire-cut plan: one circuit per key");
    let (grouped, _) = settings(pipeline.fragments(), &observable);
    let grouped_circuits: u64 =
        grouped.iter().map(|&(f, _)| pipeline.fragments().fragments[f].variant_count()).sum();
    let exact = StateVector::from_circuit(&circuit).unwrap().expectation(&observable);
    for seed in [3, 11] {
        let (value, report) = sampled_tfim(&pipeline, &observable, seed);
        assert_eq!(report.total_shots, BUDGET, "the whole budget must be spent");
        assert_eq!(report.circuits, grouped_circuits, "every variant of every grouped setting");
        assert_eq!(report.backends.len(), 2, "both devices must receive work");
        assert!(
            (value - exact).abs() < SAMPLED_TOLERANCE,
            "seed {seed}: sampled {value} vs exact {exact}"
        );
    }
}
