//! Minimal OpenQASM 2-style serialisation of circuits — emit **and** parse.
//!
//! The exporter is intentionally small: it exists so that circuits produced
//! by the generators and by the cutting pipeline can be inspected with
//! external tooling, and so harness output can embed circuits textually. It
//! emits the `qelib1`-style gate names used by [`Gate::name`](crate::Gate::name);
//! gates outside OpenQASM 2's standard library (e.g. `rzz`) are emitted with
//! the same call syntax and documented here.
//!
//! [`from_qasm`] is the exporter's inverse and the foundation of the remote
//! execution transport: circuits travel over the wire as [`to_qasm`] text and
//! are parsed back on the worker. It accepts exactly the dialect [`to_qasm`]
//! produces — one statement per line, a single `q` quantum register and a
//! single `c` classical register, the gate set of [`Gate`] —
//! plus `//` comments and blank lines. Parameters are printed with Rust's
//! shortest-round-trip float formatting, so `from_qasm(to_qasm(c))`
//! reproduces `c` bit-for-bit
//! ([`Circuit::structurally_equal`](crate::Circuit::structurally_equal)).

use crate::{Circuit, CircuitError, Gate, Operation, QubitId};
use std::fmt::Write as _;

/// Renders a circuit as OpenQASM 2-style text.
///
/// ```rust
/// use qrcc_circuit::{Circuit, qasm};
///
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1).measure_all();
/// let text = qasm::to_qasm(&c);
/// assert!(text.contains("h q[0];"));
/// assert!(text.contains("cx q[0],q[1];"));
/// ```
pub fn to_qasm(circuit: &Circuit) -> String {
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    let _ = writeln!(out, "qreg q[{}];", circuit.num_qubits());
    if circuit.num_clbits() > 0 {
        let _ = writeln!(out, "creg c[{}];", circuit.num_clbits());
    }
    for op in circuit.operations() {
        match op {
            Operation::Single { gate, qubit } => {
                let params = gate.params();
                if params.is_empty() {
                    let _ = writeln!(out, "{} q[{}];", gate.name(), qubit.index());
                } else {
                    let rendered: Vec<String> = params.iter().map(|p| format!("{p}")).collect();
                    let _ = writeln!(
                        out,
                        "{}({}) q[{}];",
                        gate.name(),
                        rendered.join(","),
                        qubit.index()
                    );
                }
            }
            Operation::Two { gate, qubits } => {
                let params = gate.params();
                if params.is_empty() {
                    let _ = writeln!(
                        out,
                        "{} q[{}],q[{}];",
                        gate.name(),
                        qubits[0].index(),
                        qubits[1].index()
                    );
                } else {
                    let rendered: Vec<String> = params.iter().map(|p| format!("{p}")).collect();
                    let _ = writeln!(
                        out,
                        "{}({}) q[{}],q[{}];",
                        gate.name(),
                        rendered.join(","),
                        qubits[0].index(),
                        qubits[1].index()
                    );
                }
            }
            Operation::Measure { qubit, clbit } => {
                let _ = writeln!(out, "measure q[{}] -> c[{}];", qubit.index(), clbit);
            }
            Operation::Reset { qubit } => {
                let _ = writeln!(out, "reset q[{}];", qubit.index());
            }
            Operation::Barrier { qubits } => {
                let args: Vec<String> =
                    qubits.iter().map(|q| format!("q[{}]", q.index())).collect();
                let _ = writeln!(out, "barrier {};", args.join(","));
            }
        }
    }
    out
}

/// Parses OpenQASM 2-style text (the dialect [`to_qasm`] emits) back into a
/// [`Circuit`].
///
/// Register declarations may appear in any order but must precede nothing —
/// operations are validated against them once the whole document is read, so
/// a `creg` after the first `measure` is still accepted. Exactly one `qreg`
/// (named `q`) is required; the `creg` (named `c`) is optional.
///
/// ```rust
/// use qrcc_circuit::{Circuit, qasm};
///
/// let mut c = Circuit::new(2);
/// c.h(0).rzz(0.5, 0, 1).measure_all();
/// let parsed = qasm::from_qasm(&qasm::to_qasm(&c)).unwrap();
/// assert!(parsed.structurally_equal(&c));
/// ```
///
/// # Errors
///
/// Returns [`CircuitError::QasmParse`] (with the 1-based line number and,
/// where the error can be pinned to a token, the 1-based column) for
/// unsupported versions, malformed statements, unknown gates, wrong
/// parameter counts, or out-of-range bit indices.
pub fn from_qasm(text: &str) -> Result<Circuit, CircuitError> {
    let mut num_qubits: Option<usize> = None;
    let mut num_clbits: Option<usize> = None;
    let mut ops: Vec<(usize, usize, Operation)> = Vec::new();

    for (index, raw) in text.lines().enumerate() {
        let line = index + 1;
        let stmt = raw.split("//").next().unwrap_or("").trim();
        if stmt.is_empty() {
            continue;
        }
        if let Some(version) = stmt.strip_prefix("OPENQASM") {
            let version = version.trim().trim_end_matches(';').trim();
            if version != "2" && !version.starts_with("2.") {
                return Err(parse_error_at(
                    line,
                    column_of(raw, version),
                    format!("unsupported OpenQASM version {version}"),
                ));
            }
            continue;
        }
        if stmt.starts_with("include") {
            continue;
        }
        let stmt = match stmt.strip_suffix(';') {
            Some(s) => s.trim(),
            None => {
                return Err(parse_error_at(
                    line,
                    column_of(raw, stmt),
                    "statement is missing a trailing ';'",
                ))
            }
        };
        if let Some(decl) = stmt.strip_prefix("qreg") {
            let size = parse_register(decl.trim(), 'q').ok_or_else(|| {
                parse_error_at(
                    line,
                    column_of(raw, decl.trim()),
                    format!("malformed qreg declaration '{stmt}'"),
                )
            })?;
            if num_qubits.replace(size).is_some() {
                return Err(parse_error_at(
                    line,
                    column_of(raw, stmt),
                    "duplicate qreg declaration",
                ));
            }
            continue;
        }
        if let Some(decl) = stmt.strip_prefix("creg") {
            let size = parse_register(decl.trim(), 'c').ok_or_else(|| {
                parse_error_at(
                    line,
                    column_of(raw, decl.trim()),
                    format!("malformed creg declaration '{stmt}'"),
                )
            })?;
            if num_clbits.replace(size).is_some() {
                return Err(parse_error_at(
                    line,
                    column_of(raw, stmt),
                    "duplicate creg declaration",
                ));
            }
            continue;
        }
        ops.push((line, column_of(raw, stmt), parse_statement(stmt, line, raw)?));
    }

    let num_qubits =
        num_qubits.ok_or_else(|| parse_error(0, "document declares no qreg register"))?;
    let mut circuit = Circuit::with_clbits(num_qubits, num_clbits.unwrap_or(0));
    for (line, column, op) in ops {
        circuit.try_push(op).map_err(|e| parse_error_at(line, column, e.to_string()))?;
    }
    Ok(circuit)
}

fn parse_error(line: usize, reason: impl Into<String>) -> CircuitError {
    CircuitError::QasmParse { line, column: 0, reason: reason.into() }
}

fn parse_error_at(line: usize, column: usize, reason: impl Into<String>) -> CircuitError {
    CircuitError::QasmParse { line, column, reason: reason.into() }
}

/// 1-based byte column of `token`'s first occurrence in the raw line (0 when
/// the token cannot be located, so the error degrades to line-only).
fn column_of(raw: &str, token: &str) -> usize {
    let token = token.trim();
    if token.is_empty() {
        return 0;
    }
    raw.find(token).map_or(0, |offset| offset + 1)
}

/// Parses `name[size]` for a declaration like `qreg q[3]`, returning the size
/// when the register name matches the single-letter name [`to_qasm`] uses.
fn parse_register(decl: &str, name: char) -> Option<usize> {
    let rest = decl.strip_prefix(name)?;
    let size = rest.strip_prefix('[')?.strip_suffix(']')?;
    size.parse().ok()
}

/// Parses `q[i]` (or `c[i]` for measure targets) into a raw index.
fn parse_bit_ref(token: &str, register: char) -> Option<usize> {
    parse_register(token.trim(), register)
}

/// Parses one operation statement (gate call, measure, reset or barrier);
/// the trailing `;` is already stripped. `raw` is the original line, used to
/// pin errors to the offending token's column.
fn parse_statement(stmt: &str, line: usize, raw: &str) -> Result<Operation, CircuitError> {
    if let Some(rest) = stmt.strip_prefix("measure ") {
        let (qubit, clbit) = rest
            .split_once("->")
            .and_then(|(q, c)| Some((parse_bit_ref(q, 'q')?, parse_bit_ref(c, 'c')?)))
            .ok_or_else(|| {
                parse_error_at(
                    line,
                    column_of(raw, rest),
                    format!("malformed measure statement '{stmt}'"),
                )
            })?;
        return Ok(Operation::Measure { qubit: QubitId::new(qubit), clbit });
    }
    if let Some(rest) = stmt.strip_prefix("reset ") {
        let qubit = parse_bit_ref(rest, 'q').ok_or_else(|| {
            parse_error_at(
                line,
                column_of(raw, rest),
                format!("malformed reset statement '{stmt}'"),
            )
        })?;
        return Ok(Operation::Reset { qubit: QubitId::new(qubit) });
    }
    if stmt == "barrier" || stmt.starts_with("barrier ") {
        let args = stmt.strip_prefix("barrier").unwrap_or("").trim();
        let mut qubits = Vec::new();
        if !args.is_empty() {
            for token in args.split(',') {
                let qubit = parse_bit_ref(token, 'q').ok_or_else(|| {
                    parse_error_at(
                        line,
                        column_of(raw, token),
                        format!("malformed barrier operand '{token}'"),
                    )
                })?;
                qubits.push(QubitId::new(qubit));
            }
        }
        return Ok(Operation::Barrier { qubits });
    }

    // A gate call: `name q[i]` / `name(p,...) q[i],q[j]`.
    let name_end = stmt.find(|c: char| c == '(' || c.is_whitespace()).unwrap_or(stmt.len());
    let (name, rest) = stmt.split_at(name_end);
    let rest = rest.trim_start();
    let (params, operands) = if let Some(after_open) = rest.strip_prefix('(') {
        let (inside, after) = after_open.split_once(')').ok_or_else(|| {
            parse_error_at(
                line,
                column_of(raw, rest),
                format!("unterminated parameter list in '{stmt}'"),
            )
        })?;
        let mut params = Vec::new();
        for token in inside.split(',') {
            let value: f64 = token.trim().parse().map_err(|_| {
                parse_error_at(
                    line,
                    column_of(raw, token),
                    format!("malformed gate parameter '{}'", token.trim()),
                )
            })?;
            params.push(value);
        }
        (params, after.trim_start())
    } else {
        (Vec::new(), rest)
    };
    if operands.is_empty() {
        return Err(parse_error_at(
            line,
            column_of(raw, name),
            format!("gate '{name}' names no qubits"),
        ));
    }
    let mut qubits = Vec::new();
    for token in operands.split(',') {
        let qubit = parse_bit_ref(token, 'q').ok_or_else(|| {
            parse_error_at(line, column_of(raw, token), format!("malformed gate operand '{token}'"))
        })?;
        qubits.push(QubitId::new(qubit));
    }
    let gate = gate_from_name(name, &params).ok_or_else(|| {
        parse_error_at(
            line,
            column_of(raw, name),
            format!("unknown gate '{name}' with {} parameter(s)", params.len()),
        )
    })?;
    Operation::gate(gate, &qubits)
        .map_err(|e| parse_error_at(line, column_of(raw, name), e.to_string()))
}

/// Maps a QASM gate name plus parameter list back to the [`Gate`] that
/// [`Gate::name`](crate::Gate::name) serialises it as. `None` for unknown
/// names or wrong parameter counts.
fn gate_from_name(name: &str, params: &[f64]) -> Option<Gate> {
    let gate = match (name, params) {
        ("id", []) => Gate::I,
        ("h", []) => Gate::H,
        ("x", []) => Gate::X,
        ("y", []) => Gate::Y,
        ("z", []) => Gate::Z,
        ("s", []) => Gate::S,
        ("sdg", []) => Gate::Sdg,
        ("t", []) => Gate::T,
        ("tdg", []) => Gate::Tdg,
        ("sx", []) => Gate::SqrtX,
        ("rx", &[t]) => Gate::Rx(t),
        ("ry", &[t]) => Gate::Ry(t),
        ("rz", &[t]) => Gate::Rz(t),
        ("p", &[t]) => Gate::Phase(t),
        ("u3", &[a, b, c]) => Gate::U3(a, b, c),
        ("cx", []) => Gate::Cx,
        ("cy", []) => Gate::Cy,
        ("cz", []) => Gate::Cz,
        ("swap", []) => Gate::Swap,
        ("rzz", &[t]) => Gate::Rzz(t),
        ("rxx", &[t]) => Gate::Rxx(t),
        ("ryy", &[t]) => Gate::Ryy(t),
        ("cp", &[t]) => Gate::CPhase(t),
        _ => return None,
    };
    Some(gate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qasm_header_and_registers() {
        let mut c = Circuit::new(3);
        c.h(0).measure(0, 0);
        let text = to_qasm(&c);
        assert!(text.starts_with("OPENQASM 2.0;"));
        assert!(text.contains("qreg q[3];"));
        assert!(text.contains("creg c[1];"));
        assert!(text.contains("measure q[0] -> c[0];"));
    }

    #[test]
    fn parameterised_gates_serialise_with_arguments() {
        let mut c = Circuit::new(2);
        c.rz(0.25, 0).rzz(0.5, 0, 1).reset(1).barrier();
        let text = to_qasm(&c);
        assert!(text.contains("rz(0.25) q[0];"));
        assert!(text.contains("rzz(0.5) q[0],q[1];"));
        assert!(text.contains("reset q[1];"));
        assert!(text.contains("barrier q[0],q[1];"));
    }

    #[test]
    fn parser_round_trips_every_operation_kind() {
        let mut c = Circuit::new(3);
        c.h(0)
            .sx(1)
            .u3(0.1, -0.2, 0.3, 2)
            .cp(0.7, 0, 2)
            .rzz(-1.5, 1, 2)
            .swap(0, 1)
            .reset(2)
            .barrier()
            .measure(0, 0)
            .measure(2, 1);
        let parsed = from_qasm(&to_qasm(&c)).unwrap();
        assert!(parsed.structurally_equal(&c));
        assert_eq!(parsed.structural_hash(), c.structural_hash());
        assert_eq!(parsed.num_clbits(), 2);
    }

    #[test]
    fn parser_preserves_exact_parameter_bits() {
        let theta = std::f64::consts::PI / 7.0 + 1e-13;
        let mut c = Circuit::new(2);
        c.rz(theta, 0).ry(-theta, 1).rxx(1e-17, 0, 1);
        let parsed = from_qasm(&to_qasm(&c)).unwrap();
        let params: Vec<f64> =
            parsed.operations().iter().flat_map(|op| op.as_gate().unwrap().params()).collect();
        assert_eq!(params[0].to_bits(), theta.to_bits());
        assert_eq!(params[1].to_bits(), (-theta).to_bits());
        assert_eq!(params[2].to_bits(), 1e-17f64.to_bits());
    }

    #[test]
    fn parser_accepts_comments_blank_lines_and_clbit_free_circuits() {
        let text =
            "OPENQASM 2.0;\n\n// a comment\nqreg q[2];\nh q[0]; // trailing\ncx q[0],q[1];\n";
        let parsed = from_qasm(text).unwrap();
        assert_eq!(parsed.num_qubits(), 2);
        assert_eq!(parsed.num_clbits(), 0);
        assert_eq!(parsed.len(), 2);
    }

    #[test]
    fn parser_rejects_malformed_documents_with_line_numbers() {
        let unknown = from_qasm("qreg q[2];\nbogus q[0];\n");
        assert!(
            matches!(unknown, Err(CircuitError::QasmParse { line: 2, column: 1, .. })),
            "{unknown:?}"
        );
        let version = from_qasm("OPENQASM 3.0;\nqreg q[1];\n");
        assert!(matches!(version, Err(CircuitError::QasmParse { line: 1, .. })));
        let no_semicolon = from_qasm("qreg q[1];\nh q[0]\n");
        assert!(matches!(no_semicolon, Err(CircuitError::QasmParse { line: 2, .. })));
        let no_qreg = from_qasm("h q[0];\n");
        assert!(matches!(no_qreg, Err(CircuitError::QasmParse { line: 0, .. })));
        let wrong_arity = from_qasm("qreg q[2];\ncx q[0];\n");
        assert!(matches!(wrong_arity, Err(CircuitError::QasmParse { line: 2, .. })));
        let wrong_params = from_qasm("qreg q[1];\nrz q[0];\n");
        assert!(matches!(wrong_params, Err(CircuitError::QasmParse { line: 2, .. })));
        let out_of_range = from_qasm("qreg q[1];\nh q[4];\n");
        assert!(matches!(out_of_range, Err(CircuitError::QasmParse { line: 2, .. })));
        let oob_clbit = from_qasm("qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[3];\n");
        assert!(matches!(oob_clbit, Err(CircuitError::QasmParse { line: 3, .. })));
        let dup_qreg = from_qasm("qreg q[1];\nqreg q[2];\n");
        assert!(matches!(dup_qreg, Err(CircuitError::QasmParse { line: 2, .. })));
        let dup_creg = from_qasm("qreg q[1];\ncreg c[4];\ncreg c[1];\n");
        assert!(matches!(dup_creg, Err(CircuitError::QasmParse { line: 3, .. })));
        let future_version = from_qasm("OPENQASM 20.0;\nqreg q[1];\n");
        assert!(matches!(future_version, Err(CircuitError::QasmParse { line: 1, .. })));
    }

    #[test]
    fn parse_errors_pin_the_offending_token_column() {
        // out-of-range indices are caught at whole-document validation, so
        // they point at the statement start (column 1 of `h q[4];`)
        let out_of_range = from_qasm("qreg q[1];\nh q[4];\n");
        assert!(
            matches!(out_of_range, Err(CircuitError::QasmParse { line: 2, column: 1, .. })),
            "{out_of_range:?}"
        );
        // the malformed operand `q(0)` starts at column 4 of `cx q(0),q[1];`
        let operand = from_qasm("qreg q[2];\ncx q(0),q[1];\n");
        assert!(
            matches!(operand, Err(CircuitError::QasmParse { line: 2, column: 4, .. })),
            "{operand:?}"
        );
        // indentation shifts the column: `bogus` behind two spaces is column 3
        let indented = from_qasm("qreg q[1];\n  bogus q[0];\n");
        assert!(
            matches!(indented, Err(CircuitError::QasmParse { line: 2, column: 3, .. })),
            "{indented:?}"
        );
        // document-level errors cannot name a token: line 0, column 0
        let no_qreg = from_qasm("h q[0];\n");
        assert!(matches!(no_qreg, Err(CircuitError::QasmParse { line: 0, column: 0, .. })));
        // the display message includes the column when one is known
        let message = from_qasm("qreg q[1];\nh q[4];\n").unwrap_err().to_string();
        assert!(message.contains("line 2, column 1"), "{message}");
    }

    #[test]
    fn parser_accepts_registers_declared_after_use_sites() {
        // Whole-document validation: a creg below the measure is still fine.
        let text = "qreg q[1];\nmeasure q[0] -> c[0];\ncreg c[1];\n";
        let parsed = from_qasm(text).unwrap();
        assert_eq!(parsed.num_clbits(), 1);
    }
}
