//! Differential tests for the compiled kernel path: the compiled simulator
//! must agree with the gate-by-gate interpreter (the reference) to 1e-12 on
//! every IR gate, on random circuits and on every benchmark generator
//! family. A variant batch compiled on many threads must read out exactly
//! as it does compiled on one. The compiled readout branches only
//! where it has to; the interpreted enumerator, which branches at every
//! measure, is the oracle it is held to — and the exact readout in turn is
//! what the shots of both devices, compiled (one sampled readout) and
//! interpreted (one trajectory per shot), have to fit.

use proptest::prelude::*;
use qrcc_circuit::generators::{
    aqft, hamiltonian_simulation, qaoa_regular, qft, qft_no_swap, ripple_carry_adder, supremacy,
    vqe_two_local, HamiltonianKind,
};
use qrcc_circuit::Circuit;
use qrcc_sim::branching::classical_distribution;
use qrcc_sim::compile::FramedProgram;
use qrcc_sim::device::{Device, DeviceConfig};
use qrcc_sim::{Counts, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// Asserts the compiled unitary run matches the interpreted state vector
/// amplitude-for-amplitude at 1e-12.
fn assert_compiled_matches_interpreted(circuit: &Circuit) {
    let interpreted = StateVector::from_circuit(circuit).unwrap();
    let program = FramedProgram::compile(circuit);
    let compiled = program.run_unitary().unwrap();
    for (i, (a, b)) in interpreted.amplitudes().iter().zip(compiled.amplitudes()).enumerate() {
        assert!(
            (*a - *b).abs() < 1e-12,
            "amplitude {i} diverges in {}: interpreted {a:?} vs compiled {b:?}",
            circuit.name()
        );
    }
}

/// Asserts compiled and interpreted classical distributions agree at 1e-12
/// for a circuit with measurements (exercising branch enumeration).
fn assert_distributions_match(circuit: &Circuit) {
    let interpreted = classical_distribution(circuit).unwrap();
    let compiled = FramedProgram::compile(circuit).classical_distribution().unwrap();
    assert_eq!(interpreted.len(), compiled.len());
    for (i, (a, b)) in interpreted.iter().zip(&compiled).enumerate() {
        assert!((a - b).abs() < 1e-12, "P[{i}] diverges: {a} vs {b}");
    }
}

/// A circuit applying every single-qubit gate of the IR at least once.
fn every_1q_gate(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        let t = 0.3 + 0.1 * q as f64;
        c.id(q)
            .h(q)
            .x(q)
            .y(q)
            .z(q)
            .s(q)
            .sdg(q)
            .t(q)
            .tdg(q)
            .sx(q)
            .rx(t, q)
            .ry(1.3 * t, q)
            .rz(0.7 * t, q)
            .p(0.9 * t, q)
            .u3(t, 0.2, 1.1, q);
    }
    c
}

/// A circuit applying every two-qubit gate of the IR at least once.
fn every_2q_gate(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    for a in 0..n {
        let b = (a + 1) % n;
        let t = 0.4 + 0.15 * a as f64;
        c.cx(a, b)
            .cy(a, b)
            .cz(a, b)
            .swap(a, b)
            .rzz(t, a, b)
            .rxx(1.2 * t, a, b)
            .ryy(0.8 * t, a, b)
            .cp(0.6 * t, a, b);
    }
    c
}

#[test]
fn every_ir_gate_matches_interpreted() {
    assert_compiled_matches_interpreted(&every_1q_gate(3));
    assert_compiled_matches_interpreted(&every_2q_gate(4));
    let mut both = every_1q_gate(4);
    both.compose(&every_2q_gate(4));
    both.ccx(0, 1, 2).barrier().ccx(2, 3, 0);
    assert_compiled_matches_interpreted(&both);
}

#[test]
fn benchmark_families_match_interpreted() {
    let families: Vec<Circuit> = vec![
        qft(6),
        qft_no_swap(6),
        aqft(6, 3),
        supremacy(2, 3, 4, 7),
        ripple_carry_adder(2, 11),
        qaoa_regular(6, 3, 2, 5).0,
        hamiltonian_simulation(HamiltonianKind::TransverseFieldIsing, 2, 3, false, 2, 0.1).0,
        hamiltonian_simulation(HamiltonianKind::Xy, 2, 2, false, 2, 0.2).0,
        hamiltonian_simulation(HamiltonianKind::Heisenberg, 2, 2, false, 1, 0.15).0,
        vqe_two_local(6, 2, 13),
    ];
    for circuit in &families {
        assert_compiled_matches_interpreted(circuit);
        let mut measured = circuit.clone();
        measured.measure_all();
        assert_distributions_match(&measured);
    }
}

#[test]
fn mid_circuit_measure_and_reset_distributions_match() {
    let mut c = Circuit::new(3);
    c.h(0).cx(0, 1).measure(0, 0).reset(0).h(0).cx(1, 2).measure(1, 1).x(0).measure_all();
    assert_distributions_match(&c);

    // reset after superposition: the reset branch probabilities must agree
    let mut r = Circuit::new(2);
    r.h(0).h(1).cz(0, 1).reset(1).h(1).measure_all();
    assert_distributions_match(&r);
}

/// Asserts that `counts` is a plausible draw of `shots` shots from `exact`:
/// Pearson's χ² over the cells expecting more than 5 shots (the rest pooled
/// into one cell if together they do) stays below `dof + 5·√(2·dof)`, and a
/// cell of probability exactly 0 is empty.
fn assert_fits(counts: &Counts, exact: &[f64], shots: u64, what: &str) {
    assert_eq!(counts.shots(), shots, "{what}: every shot is recorded once");
    let (mut chi2, mut cells) = (0.0, 0usize);
    let (mut rest_expected, mut rest_observed) = (0.0, 0.0);
    let mut cell = |expected: f64, observed: f64| {
        chi2 += (observed - expected).powi(2) / expected;
        cells += 1;
    };
    for (outcome, &p) in exact.iter().enumerate() {
        let observed = counts.count(outcome as u64);
        if p == 0.0 {
            assert_eq!(observed, 0, "{what}: impossible outcome {outcome:b} was sampled");
        } else if p * shots as f64 > 5.0 {
            cell(p * shots as f64, observed as f64);
        } else {
            rest_expected += p * shots as f64;
            rest_observed += observed as f64;
        }
    }
    if rest_expected > 5.0 {
        cell(rest_expected, rest_observed);
    }
    let dof = cells.saturating_sub(1).max(1) as f64;
    let bound = dof + 5.0 * (2.0 * dof).sqrt();
    assert!(chi2 < bound, "{what}: chi2 {chi2:.1} over {cells} cells exceeds {bound:.1}");
}

/// Asserts that the shots of a compiled and of an interpreted device, both
/// seeded with `seed`, fit the exact readout of `circuit`.
fn assert_sampling_fits_the_exact_readout(circuit: &Circuit, seed: u64) {
    const SHOTS: u64 = 4096;
    // a device measures every wire of a circuit that measures none
    let mut measured = circuit.clone();
    if !measured.operations().iter().any(|op| op.is_measure()) {
        measured.measure_all();
    }
    let exact = FramedProgram::compile(&measured).read_out().unwrap().distribution;
    let config = DeviceConfig::ideal(circuit.num_qubits()).with_seed(seed);
    for (what, device) in
        [("compiled", Device::new(config)), ("interpreted", Device::new(config.interpreted()))]
    {
        let counts = device.execute(circuit, SHOTS).unwrap();
        assert_fits(&counts, &exact, SHOTS, &format!("{what} device, seed {seed}"));
    }
}

#[test]
fn sampled_shots_fit_the_exact_readout_on_each_branching_shape() {
    // a biased mid-circuit measure whose wire is used again: dealing the
    // shots by p0 instead of p1 swaps the branch populations
    let mut biased = Circuit::with_clbits(2, 3);
    biased.ry(0.9, 0).cx(0, 1).measure(0, 0).h(0).measure(0, 1).measure(1, 2);
    // a reset that reads 1 more often than not: without the X after it the
    // reused wire starts from |1⟩
    let mut reset = Circuit::with_clbits(2, 2);
    reset.ry(2.2, 0).cx(0, 1).reset(0).ry(0.5, 0).measure(0, 0).measure(1, 1);
    // a clbit written mid-circuit (mostly 1) and again by a terminal measure
    // (mostly 0): the branch's bit must not survive the overwrite
    let mut overwritten = Circuit::with_clbits(2, 2);
    overwritten.ry(2.4, 0).measure(0, 0).ry(0.7, 1).h(0).measure(0, 1).measure(1, 0);
    // the trajectory shape the byte-equality tests used to pin
    let mut reuse = Circuit::new(4);
    reuse.h(0).cx(0, 1).measure(0, 0).reset(0).ry(0.7, 0).cx(1, 2).cx(2, 3).t(3).measure_all();
    for circuit in [&biased, &reset, &overwritten, &reuse] {
        for seed in [1u64, 7, 42] {
            assert_sampling_fits_the_exact_readout(circuit, seed);
        }
    }
}

/// A qubit-reuse chain: `pairs` measure→reset rounds on wire 0 of four, then
/// the other three wires read out — two branch points per round, of which
/// only the measure ever splits.
fn reuse_chain(pairs: usize) -> Circuit {
    let mut c = Circuit::with_clbits(4, pairs + 3);
    for round in 0..pairs {
        c.h(0).cx(0, 1 + round % 3).measure(0, round).reset(0);
    }
    c.measure(1, pairs).measure(2, pairs + 1).measure(3, pairs + 2);
    c
}

#[test]
fn seeded_streams_are_independent_of_thread_count_and_batch_order() {
    // a noiseless reuse circuit: the sampled readout, not the trajectories
    let circuit = reuse_chain(5);
    let config = DeviceConfig::ideal(4).with_seed(11);
    let serial = Device::new(config);
    let expected: Vec<Counts> = (0..6).map(|_| serial.execute(&circuit, 300).unwrap()).collect();
    for (threads, order) in
        [("1", [0u64, 1, 2, 3, 4, 5]), ("2", [5, 4, 3, 2, 1, 0]), ("4", [2, 5, 0, 3, 1, 4])]
    {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let batched = Device::new(config);
        let base = batched.reserve_streams(6);
        let counts: Vec<Counts> = order
            .to_vec()
            .into_par_iter()
            .map(|stream| batched.execute_stream(&circuit, 300, base + stream).unwrap())
            .collect();
        for (stream, counts) in order.iter().zip(&counts) {
            assert_eq!(counts, &expected[*stream as usize], "{threads} threads, stream {stream}");
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

#[test]
fn a_variant_batch_reads_out_alike_compiled_on_any_thread() {
    // A QRCC-style variant batch: one shared body, differing init prologues
    // and measurement epilogues. Backends compile each variant on whichever
    // thread runs it, so compiling the batch in parallel — twice — must
    // reproduce the serial per-variant compile bit for bit.
    let mut body = Circuit::new(3);
    body.h(0).cx(0, 1).t(1).cx(1, 2).rz(0.4, 2).cx(0, 2).s(0);

    let mut variants = Vec::new();
    for init in 0..4usize {
        for basis in 0..2usize {
            let mut v = Circuit::new(3);
            // init prologue: prepare qubit 0 in one of the cut states
            match init {
                0 => {}
                1 => {
                    v.x(0);
                }
                2 => {
                    v.h(0);
                }
                _ => {
                    v.h(0).s(0);
                }
            }
            v.compose(&body);
            // measurement epilogue: basis rotation + terminal measures
            if basis == 1 {
                v.h(2);
            }
            v.measure_all();
            variants.push(v);
        }
    }

    let serial: Vec<Vec<f64>> = variants
        .iter()
        .map(|v| FramedProgram::compile(v).classical_distribution().unwrap())
        .collect();
    for pass in 0..2 {
        let parallel: Vec<Vec<f64>> = variants
            .par_iter()
            .map(|v| FramedProgram::compile(v).classical_distribution().unwrap())
            .collect();
        assert_eq!(parallel, serial, "pass {pass}: compiling is deterministic");
    }
    // the init prologues still tell the variants apart
    assert_ne!(serial[0], serial[4]);
}

#[test]
fn all_terminal_program_is_one_leaf_and_no_branch_points() {
    // 14 entangled wires, all measured: the every-measure-branches build
    // would hold 2^14 states of 2^14 amplitudes (4 GiB); the walk reads the
    // one final state.
    let mut c = vqe_two_local(14, 2, 13);
    c.measure_all();
    let program = FramedProgram::compile(&c);
    assert_eq!(program.stats().terminal_measures, 14);
    assert_eq!(program.stats().branch_points, 0);
    assert_eq!(program.readout_map().len(), 14);
    let readout = program.read_out().unwrap();
    assert_eq!(readout.leaves, 1);
    let sampled = program.sample(100, &mut StdRng::seed_from_u64(3)).unwrap();
    assert_eq!((sampled.leaves, sampled.counts.shots()), (1, 100));
    let unitary = c.without_non_unitary();
    let expected = StateVector::from_circuit(&unitary).unwrap().probabilities();
    for (i, (a, b)) in readout.distribution.iter().zip(&expected).enumerate() {
        assert!((a - b).abs() < 1e-12, "P[{i}]: {a} vs {b}");
    }
}

#[test]
fn branch_points_bound_the_leaves() {
    // nine measure→reset pairs on one wire of four: 18 branch points, but a
    // reset after a measure never splits, so 2^9 leaves survive pruning
    let c = reuse_chain(9);
    let program = FramedProgram::compile(&c);
    assert_eq!(program.stats().branch_points, 18);
    assert_eq!(program.stats().terminal_measures, 3);
    let readout = program.read_out().unwrap();
    assert_eq!(readout.leaves, 1 << 9);
    assert!((readout.distribution.iter().sum::<f64>() - 1.0).abs() < 1e-10);
    assert_distributions_match(&c);
    // ... and shots bound them too: eight shots reach at most eight of the
    // 512, so sampling never sweeps more than a trajectory per shot would
    for seed in 0..20 {
        let sampled = program.sample(8, &mut StdRng::seed_from_u64(seed)).unwrap();
        assert!((1..=8).contains(&sampled.leaves), "seed {seed}: {} leaves", sampled.leaves);
        assert_eq!(sampled.counts.shots(), 8);
    }
}

/// Strategy producing a random four-wire, four-clbit circuit that mixes
/// every measurement shape the readout classifies: gates and barriers,
/// mid-circuit measures, measure→reset→reuse, a wire measured twice, clbits
/// drawn from a small pool (so they get written twice), then terminal
/// measures on the wires of `tail` — the rest stay unmeasured — optionally
/// followed by nothing but a barrier.
fn random_measured_circuit() -> impl Strategy<Value = Circuit> {
    let step = (0..14usize, 0..4usize, 0..4usize, -3.0f64..3.0);
    (proptest::collection::vec(step, 1..22), 0..16usize, 0..2usize).prop_map(
        |(steps, tail, fence)| {
            let mut c = Circuit::with_clbits(4, 4);
            let mut branching = 0;
            for (kind, a, b, theta) in steps {
                // keep the oracle's 2^(measures + resets) states affordable
                let kind = if kind >= 9 && branching >= 10 { kind - 9 } else { kind };
                match kind {
                    0 => {
                        c.h(a);
                    }
                    1 => {
                        c.rx(theta, a);
                    }
                    2 => {
                        c.rz(theta, a);
                    }
                    3 => {
                        c.x(a);
                    }
                    4 if a != b => {
                        c.cx(a, b);
                    }
                    5 if a != b => {
                        c.rxx(theta, a, b);
                    }
                    6 if a != b => {
                        c.swap(a, b);
                    }
                    7 if a != b => {
                        c.cz(a, b);
                    }
                    8 => {
                        c.barrier();
                    }
                    9 => {
                        c.measure(a, b);
                        branching += 1;
                    }
                    10 => {
                        c.reset(a);
                        branching += 1;
                    }
                    11 => {
                        c.measure(a, b).reset(a).h(a);
                        branching += 2;
                    }
                    12 => {
                        c.measure(a, b).measure(a, (b + 1) % 4);
                        branching += 2;
                    }
                    _ => {
                        c.ry(theta, a);
                    }
                }
            }
            for q in (0..4).filter(|q| tail & (1 << q) != 0) {
                c.measure(q, q);
            }
            if fence == 1 {
                c.barrier();
            }
            c
        },
    )
}

/// Strategy producing a random unitary circuit drawing from every gate
/// family the compiler specializes: fusable 1q runs, diagonal gates,
/// permutations, controlled flips and dense two-qubit kernels.
fn random_compilable_circuit(n: usize, max_gates: usize) -> impl Strategy<Value = Circuit> {
    let gate = (0..14usize, 0..n, 0..n, -3.0f64..3.0);
    proptest::collection::vec(gate, 1..max_gates).prop_map(move |gates| {
        let mut c = Circuit::new(n);
        for (kind, a, b, theta) in gates {
            match kind {
                0 => {
                    c.h(a);
                }
                1 => {
                    c.rx(theta, a);
                }
                2 => {
                    c.rz(theta, a);
                }
                3 => {
                    c.t(a);
                }
                4 => {
                    c.x(a);
                }
                5 => {
                    c.s(a);
                }
                6 => {
                    c.u3(theta, 0.3, 0.9, a);
                }
                7 if a != b => {
                    c.cx(a, b);
                }
                8 if a != b => {
                    c.cz(a, b);
                }
                9 if a != b => {
                    c.swap(a, b);
                }
                10 if a != b => {
                    c.rzz(theta, a, b);
                }
                11 if a != b => {
                    c.rxx(theta, a, b);
                }
                12 if a != b => {
                    c.cy(a, b);
                }
                _ => {
                    c.sdg(a);
                }
            }
        }
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn compiled_equals_interpreted_on_random_circuits(c in random_compilable_circuit(4, 40)) {
        assert_compiled_matches_interpreted(&c);
    }

    #[test]
    fn compiled_distributions_match_with_mid_circuit_measures(
        c in random_compilable_circuit(3, 20),
        cut in 0..3usize,
    ) {
        let mut measured = Circuit::new(3);
        measured.compose(&c);
        measured.measure(cut, 0).reset(cut).h(cut);
        measured.measure_all();
        assert_distributions_match(&measured);
    }

    #[test]
    fn readout_matches_the_branching_oracle_on_every_measurement_shape(
        c in random_measured_circuit(),
    ) {
        assert_distributions_match(&c);
        let readout = FramedProgram::compile(&c).read_out().unwrap();
        prop_assert!((readout.distribution.iter().sum::<f64>() - 1.0).abs() < 1e-10);
        let branch_points = FramedProgram::compile(&c).stats().branch_points;
        prop_assert!(readout.leaves <= 1 << branch_points);
    }

    #[test]
    fn sampled_shots_fit_the_exact_readout_on_every_measurement_shape(
        c in random_measured_circuit(),
        seed in 0..1000u64,
    ) {
        assert_sampling_fits_the_exact_readout(&c, seed);
    }

    #[test]
    fn shots_and_branch_points_bound_the_sampled_leaves(
        c in random_measured_circuit(),
        shots in 1..40u64,
        seed in 0..1000u64,
    ) {
        let program = FramedProgram::compile(&c);
        let sampled = program.sample(shots, &mut StdRng::seed_from_u64(seed)).unwrap();
        prop_assert_eq!(sampled.counts.shots(), shots);
        prop_assert!(sampled.leaves >= 1);
        prop_assert!(sampled.leaves <= shots.min(1 << program.stats().branch_points));
    }
}
