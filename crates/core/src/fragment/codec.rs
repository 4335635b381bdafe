//! The one binary encoding of a [`FragmentBody`]: what a remote worker
//! receives in a `DefineFragment` frame, and what a result-cache snapshot
//! stores (as hex) for each body it holds.
//!
//! All integers are big-endian, angles travel as their IEEE-754 bit
//! patterns ([`Gate::code`] then [`Gate::params`]), and strings and lists
//! are `u32`-length-prefixed. A body is its name, its qubit, classical-bit
//! and output counts (`u32` each), its variant count (`u64`) and its
//! skeleton:
//!
//! * skeleton codes: 0 fixed operation, 1 prep, 2 cut measure, 3 output
//!   measure, 4 gate-cut half (half 0 top, 1 bottom);
//! * operation codes: 0 one-qubit gate, 1 two-qubit gate, 2 measure,
//!   3 reset, 4 barrier.
//!
//! [`FragmentBody::decode`] treats its input as hostile: a truncated,
//! garbled or invariant-breaking body is a typed [`DecodeError`], never a
//! panic, and a body heavier than the caller's budget is refused while it
//! is read, before it is held. [`Reader`] is the byte cursor the decoder
//! reads through; the wire protocol reads its frames through it too.

use super::{FragmentBody, SkeletonOp};
use crate::gatecut::GateHalf;
use qrcc_circuit::{Gate, Operation, QubitId};
use std::fmt;

/// Why encoded bytes did not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What was wrong, and where.
    pub detail: String,
}

impl DecodeError {
    /// An error saying `detail`.
    pub fn new(detail: impl Into<String>) -> Self {
        DecodeError { detail: detail.into() }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.detail)
    }
}

impl std::error::Error for DecodeError {}

/// Appends `value`, big-endian.
#[inline]
pub fn put_u16(out: &mut Vec<u8>, value: u16) {
    out.extend_from_slice(&value.to_be_bytes());
}

/// Appends `value`, big-endian.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_be_bytes());
}

/// Appends `value`, big-endian.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_be_bytes());
}

/// Appends `value` behind its `u32` byte length.
#[inline]
pub fn put_string(out: &mut Vec<u8>, value: &str) {
    put_u32(out, value.len() as u32);
    out.extend_from_slice(value.as_bytes());
}

/// Appends `items` behind their `u32` count, each with `put`.
#[inline]
pub fn put_list<T>(out: &mut Vec<u8>, items: &[T], mut put: impl FnMut(&mut Vec<u8>, &T)) {
    put_u32(out, items.len() as u32);
    items.iter().for_each(|item| put(out, item));
}

/// A cursor over encoded bytes: every read fails with a [`DecodeError`]
/// rather than run past the end.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
    /// What the fragment body being decoded may still weigh.
    weight_left: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, at: 0, weight_left: 0 }
    }

    /// The next `n` bytes, or an error when fewer are left.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.bytes.len() - self.at {
            return Err(DecodeError::new(format!(
                "payload truncated at byte {} (wanted {n} more of {})",
                self.at,
                self.bytes.len()
            )));
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    /// The next byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// The next big-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().expect("two bytes")))
    }

    /// The next big-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("four bytes")))
    }

    /// The next big-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("eight bytes")))
    }

    /// The next `f64`, from its IEEE-754 bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// The next length-prefixed string, or an error when it is not UTF-8.
    #[inline]
    pub fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::new("string is not valid utf-8"))
    }

    /// A `u32` count, then that many items read with `item`. Room for at
    /// most 1 024 is reserved up front, so a hostile count allocates no
    /// more than the bytes that follow it back.
    #[inline]
    pub fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let count = self.u32()? as usize;
        let mut items = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// Checks that every byte was read.
    #[inline]
    pub fn finish(&self) -> Result<(), DecodeError> {
        match self.bytes.len() - self.at {
            0 => Ok(()),
            left => Err(DecodeError::new(format!("{left} trailing byte(s) after the last field"))),
        }
    }
}

fn put_qubit(out: &mut Vec<u8>, qubit: QubitId) {
    put_u32(out, qubit.index() as u32);
}

fn put_operation(out: &mut Vec<u8>, op: &Operation) {
    fn put_gate(out: &mut Vec<u8>, gate: &Gate) {
        out.push(gate.code());
        for angle in gate.params() {
            put_u64(out, angle.to_bits());
        }
    }
    match op {
        Operation::Single { gate, qubit } => {
            out.push(0);
            put_gate(out, gate);
            put_qubit(out, *qubit);
        }
        Operation::Two { gate, qubits } => {
            out.push(1);
            put_gate(out, gate);
            put_qubit(out, qubits[0]);
            put_qubit(out, qubits[1]);
        }
        Operation::Measure { qubit, clbit } => {
            out.push(2);
            put_qubit(out, *qubit);
            put_u32(out, *clbit as u32);
        }
        Operation::Reset { qubit } => {
            out.push(3);
            put_qubit(out, *qubit);
        }
        Operation::Barrier { qubits } => {
            out.push(4);
            put_list(out, qubits, |out, &qubit| put_qubit(out, qubit));
        }
    }
}

impl SkeletonOp {
    /// Appends this skeleton operation's encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            SkeletonOp::Fixed(op) => {
                out.push(0);
                put_operation(out, op);
            }
            SkeletonOp::Prep { place, qubit } => {
                out.push(1);
                put_u64(out, *place);
                put_qubit(out, *qubit);
            }
            SkeletonOp::CutMeasure { place, qubit, clbit } => {
                out.push(2);
                put_u64(out, *place);
                put_qubit(out, *qubit);
                put_u32(out, *clbit as u32);
            }
            SkeletonOp::OutputMeasure { shift, qubit, clbit } => {
                out.push(3);
                put_u32(out, *shift);
                put_qubit(out, *qubit);
                put_u32(out, *clbit as u32);
            }
            SkeletonOp::GateCutHalf { place, half, qubit, clbit, pre, post } => {
                out.push(4);
                put_u64(out, *place);
                out.push(matches!(half, GateHalf::Bottom) as u8);
                put_qubit(out, *qubit);
                put_u32(out, *clbit as u32);
                put_list(out, pre, put_operation);
                put_list(out, post, put_operation);
            }
        }
    }
}

/// The body decoder's reads.
impl Reader<'_> {
    /// Counts `units` against the body being decoded, refusing it before it
    /// outgrows its cap. One unit is charged per name byte, operation,
    /// barrier operand and slot, never more than the body's
    /// [`FragmentBody::weight`], so decoding allocates at most the cap's
    /// worth; the exact weight is checked once the body is built.
    fn charge(&mut self, units: usize) -> Result<(), DecodeError> {
        self.weight_left = self
            .weight_left
            .checked_sub(units)
            .ok_or_else(|| DecodeError::new("fragment body outweighs its weight cap"))?;
        Ok(())
    }

    fn qubit(&mut self) -> Result<QubitId, DecodeError> {
        Ok(QubitId::new(self.u32()? as usize))
    }

    fn gate(&mut self) -> Result<Gate, DecodeError> {
        let code = self.u8()?;
        Gate::from_code(code, || self.f64())?
            .ok_or_else(|| DecodeError::new(format!("unknown gate code {code}")))
    }

    /// The inverse of `put_operation`; gates go through
    /// [`Operation::gate`], which checks arity, repeated qubits and angles.
    fn operation(&mut self) -> Result<Operation, DecodeError> {
        self.charge(1)?;
        let gate_op = |gate: Gate, qubits: &[QubitId]| {
            Operation::gate(gate, qubits).map_err(|e| DecodeError::new(e.to_string()))
        };
        Ok(match self.u8()? {
            0 => {
                let gate = self.gate()?;
                gate_op(gate, &[self.qubit()?])?
            }
            1 => {
                let gate = self.gate()?;
                gate_op(gate, &[self.qubit()?, self.qubit()?])?
            }
            2 => Operation::Measure { qubit: self.qubit()?, clbit: self.u32()? as usize },
            3 => Operation::Reset { qubit: self.qubit()? },
            4 => Operation::Barrier {
                qubits: self.list(|r| {
                    r.charge(1)?;
                    r.qubit()
                })?,
            },
            code => return Err(DecodeError::new(format!("unknown operation code {code}"))),
        })
    }

    fn skeleton_op(&mut self) -> Result<SkeletonOp, DecodeError> {
        let code = self.u8()?;
        if code != 0 {
            self.charge(1)?; // a slot; a fixed operation charges itself
        }
        Ok(match code {
            0 => SkeletonOp::Fixed(self.operation()?),
            1 => SkeletonOp::Prep { place: self.u64()?, qubit: self.qubit()? },
            2 => SkeletonOp::CutMeasure {
                place: self.u64()?,
                qubit: self.qubit()?,
                clbit: self.u32()? as usize,
            },
            3 => SkeletonOp::OutputMeasure {
                shift: self.u32()?,
                qubit: self.qubit()?,
                clbit: self.u32()? as usize,
            },
            4 => SkeletonOp::GateCutHalf {
                place: self.u64()?,
                half: match self.u8()? {
                    0 => GateHalf::Top,
                    1 => GateHalf::Bottom,
                    half => return Err(DecodeError::new(format!("unknown gate half {half}"))),
                },
                qubit: self.qubit()?,
                clbit: self.u32()? as usize,
                pre: self.list(Self::operation)?,
                post: self.list(Self::operation)?,
            },
            code => return Err(DecodeError::new(format!("unknown skeleton code {code}"))),
        })
    }
}

impl FragmentBody {
    /// Appends this body's encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_string(out, self.name());
        put_u32(out, self.num_qubits() as u32);
        put_u32(out, self.num_clbits() as u32);
        put_u32(out, self.num_outputs() as u32);
        put_u64(out, self.variant_count());
        put_list(out, self.skeleton(), |out, op| op.encode(out));
    }

    /// Reads one body [`FragmentBody::encode`] wrote from `reader`,
    /// refusing it as soon as it outweighs `max_weight`
    /// ([`FragmentBody::weight`]). [`FragmentBody::new`] checks every
    /// invariant instantiation relies on, so a hostile body is an error
    /// here, never a panic later.
    ///
    /// # Errors
    ///
    /// A [`DecodeError`] for truncated or garbled bytes, a body breaking an
    /// invariant, or one heavier than `max_weight`.
    pub fn decode(reader: &mut Reader<'_>, max_weight: usize) -> Result<FragmentBody, DecodeError> {
        reader.weight_left = max_weight;
        let name = reader.string()?;
        reader.charge(name.len())?;
        let num_qubits = reader.u32()? as usize;
        let num_clbits = reader.u32()? as usize;
        let num_outputs = reader.u32()? as usize;
        let variant_count = reader.u64()?;
        let skeleton = reader.list(Reader::skeleton_op)?;
        let body =
            FragmentBody::new(name, num_qubits, num_clbits, num_outputs, variant_count, skeleton)
                .map_err(|e| DecodeError::new(e.to_string()))?;
        if body.weight() > max_weight {
            return Err(DecodeError::new(format!(
                "fragment body of weight {} outweighs the {max_weight}-unit cap",
                body.weight()
            )));
        }
        Ok(body)
    }
}
