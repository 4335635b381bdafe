//! Property test: the OpenQASM parser is the exporter's inverse.
//!
//! The remote execution transport ships circuits as `to_qasm` text and
//! parses them back on the worker, so `from_qasm(to_qasm(c))` must
//! reproduce `c` **structurally** (equal registers, equal operation
//! sequences, bit-exact parameters) for every circuit the benchmark
//! generators can produce — they jointly exercise the whole gate set
//! (H/T/SX/U3 singles, CX/CZ/CP/RZZ/RXX/SWAP twos, measure).

use proptest::prelude::*;
use qrcc_circuit::generators::{self, HamiltonianKind};
use qrcc_circuit::{qasm, Circuit};

/// One circuit from each of the paper's generator families, over a small
/// range of sizes and seeds.
fn generator_circuit() -> impl Strategy<Value = Circuit> {
    (0..9usize, 0..3usize, 0..1_000u64).prop_map(|(family, size, seed)| {
        let n = 4 + size;
        match family {
            0 => generators::qft(n),
            1 => generators::aqft(n, 2),
            2 => generators::qft_no_swap(n),
            3 => generators::supremacy(2, 2 + size, 3, seed),
            4 => generators::ripple_carry_adder(2 + size, seed),
            5 => generators::qaoa_regular(n, 2, 1, seed).0,
            6 => generators::qaoa_erdos_renyi(n, 0.5, 1, seed).0,
            7 => {
                let kind = match seed % 3 {
                    0 => HamiltonianKind::TransverseFieldIsing,
                    1 => HamiltonianKind::Xy,
                    _ => HamiltonianKind::Heisenberg,
                };
                generators::hamiltonian_simulation(kind, 2, 2 + size, seed % 2 == 0, 1, 0.1).0
            }
            _ => generators::vqe_two_local(n, 1 + size % 2, seed),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn from_qasm_inverts_to_qasm_on_generator_circuits(circuit in generator_circuit()) {
        let text = qasm::to_qasm(&circuit);
        let parsed = qasm::from_qasm(&text).unwrap();
        prop_assert!(parsed.structurally_equal(&circuit), "parsed circuit differs structurally");
        prop_assert_eq!(parsed.structural_hash(), circuit.structural_hash());
        prop_assert_eq!(parsed.num_qubits(), circuit.num_qubits());
        prop_assert_eq!(parsed.num_clbits(), circuit.num_clbits());
        // serialising the parsed circuit reproduces the wire text exactly
        prop_assert_eq!(qasm::to_qasm(&parsed), text);
    }

    #[test]
    fn measured_circuits_round_trip_with_their_classical_register(
        circuit in generator_circuit()
    ) {
        let mut measured = circuit;
        measured.measure_all();
        let parsed = qasm::from_qasm(&qasm::to_qasm(&measured)).unwrap();
        prop_assert!(parsed.structurally_equal(&measured));
        prop_assert_eq!(parsed.num_clbits(), measured.num_clbits());
    }
}

/// What a parsed hostile document must satisfy: every operation fits the
/// declared registers, and the circuit survives its own round trip.
fn check_parsed(circuit: &Circuit) -> Result<(), TestCaseError> {
    let mut rebuilt = Circuit::with_clbits(circuit.num_qubits(), circuit.num_clbits());
    for op in circuit.operations() {
        prop_assert!(rebuilt.try_push(op.clone()).is_ok(), "operation {:?} out of range", op);
    }
    let reparsed = qasm::from_qasm(&qasm::to_qasm(circuit)).unwrap();
    prop_assert!(reparsed.structurally_equal(circuit));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// `SubmitBatch` carries untrusted OpenQASM: arbitrary bytes — bare,
    /// or after a valid header — parse to a typed error or a well-formed
    /// circuit, never a panic.
    #[test]
    fn arbitrary_text_never_panics_the_parser(
        bytes in proptest::collection::vec(any::<u8>(), 0..160),
        headed in any::<bool>(),
    ) {
        const ALPHABET: &[u8] = b"0123456789qcregmasuxyzhp[](),;->.*/ \n\t-+epi";
        let mut text = if headed {
            String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\n")
        } else {
            String::new()
        };
        // half the bytes from the language's own alphabet, so statements
        // get past the tokenizer often enough to reach the checks
        let chars: Vec<u8> = bytes
            .iter()
            .map(|&b| if b < 128 { ALPHABET[b as usize % ALPHABET.len()] } else { b })
            .collect();
        text.push_str(&String::from_utf8_lossy(&chars));
        if let Ok(circuit) = qasm::from_qasm(&text) {
            check_parsed(&circuit)?;
        }
    }

    /// A valid document with a few characters replaced, inserted or
    /// deleted parses to a typed error or a well-formed circuit.
    #[test]
    fn mutated_documents_never_panic_the_parser(
        circuit in generator_circuit(),
        mutations in proptest::collection::vec((any::<usize>(), any::<u8>(), 0..3u8), 1..6),
    ) {
        const ALPHABET: &[u8] = b"0123456789qc[](),;.-e ";
        let mut measured = circuit;
        measured.measure_all();
        let mut text = qasm::to_qasm(&measured).into_bytes();
        for (at, byte, kind) in mutations {
            let byte = if byte < 160 { ALPHABET[byte as usize % ALPHABET.len()] } else { byte };
            let at = at % (text.len() + 1);
            match kind {
                0 if at < text.len() => text[at] = byte,
                1 => text.insert(at, byte),
                _ if at < text.len() => {
                    text.remove(at);
                }
                _ => text.push(byte),
            }
        }
        if let Ok(circuit) = qasm::from_qasm(&String::from_utf8_lossy(&text)) {
            check_parsed(&circuit)?;
        }
    }
}
