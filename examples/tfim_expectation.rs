//! Measurement grouping on a many-term observable: one Trotter step of the
//! transverse-field Ising model on a 3×4 lattice (12 qubits), evaluated on
//! an 8-qubit device. The Ising energy `Σ ZᵢZⱼ + 0.5 Σ Xᵢ` has 29 Pauli terms,
//! but on each fragment they fall into two qubit-wise-commuting groups —
//! every ZZ term reads one all-Z measurement, every X term one all-X
//! measurement — so each fragment runs its variants in two settings, not
//! once per distinct output-basis signature.
//!
//! Run with: `cargo run --release --example tfim_expectation`

use qrcc::circuit::generators::{self, HamiltonianKind};
use qrcc::circuit::observable::{Pauli, PauliObservable};
use qrcc::prelude::*;
use std::collections::HashSet;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (circuit, lattice) = generators::hamiltonian_simulation(
        HamiltonianKind::TransverseFieldIsing,
        3,
        4,
        false,
        1,
        0.1,
    );
    let observable = PauliObservable::ising(&lattice, 1.0, 0.5);
    let config = QrccConfig::new(8).with_ilp_time_limit(Duration::ZERO);
    let pipeline = QrccPipeline::plan(&circuit, config)?;
    let fragments = pipeline.fragments();
    println!(
        "TFIM 3x4: {} qubits, {} Pauli terms; plan: {} wire cuts, widths {:?}",
        circuit.num_qubits(),
        observable.terms().len(),
        fragments.num_wire_cuts(),
        pipeline.plan_ref().subcircuit_widths()
    );

    // one setting per distinct output-basis signature (I read as Z), as an
    // enumeration without grouping would run each executing fragment
    let (mut signatures, mut signature_keys) = (0, 0);
    for fragment in fragments.fragments.iter().filter(|f| f.num_clbits > 0) {
        let distinct: HashSet<Vec<Pauli>> = observable
            .terms()
            .iter()
            .map(|(_, string)| {
                let basis = |&(orig, _): &(usize, usize)| match string.pauli(orig) {
                    Pauli::I => Pauli::Z,
                    p => p,
                };
                fragment.output_clbits.iter().map(basis).collect()
            })
            .collect();
        signatures += distinct.len();
        signature_keys += distinct.len() as u64 * fragment.variant_count();
    }
    let requests = ExpectationReconstructor::new().requests(fragments, &observable)?;
    let settings: HashSet<(usize, u64)> =
        requests.iter().map(|r| (r.key.fragment, r.key.outputs)).collect();
    println!("per-signature settings: {signatures} ({signature_keys} variant keys)");
    println!("grouped settings:       {} ({} variant keys)", settings.len(), requests.len());

    let mut registry = DeviceRegistry::new();
    registry.register("exact", ExactBackend::new());
    let scheduler = Scheduler::new(&registry, SchedulePolicy::default());
    let (reconstructed, _, schedule) =
        pipeline.execute_observables_streaming(&scheduler, &observable)?;
    println!("circuits executed:      {}", schedule.circuits);

    let exact = StateVector::from_circuit(&circuit)?.expectation(&observable);
    println!("⟨H⟩ from reconstruction = {reconstructed:.12}");
    println!("⟨H⟩ from simulation     = {exact:.12}");
    assert!(settings.len() < signatures, "grouping must merge settings on this observable");
    assert!(
        (reconstructed - exact).abs() < 1e-9,
        "grouped reconstruction {reconstructed} is off the state vector {exact}"
    );
    println!("match within 1e-9 — grouped settings reconstruct exactly.");
    Ok(())
}
