//! The flat kernel IR and its amplitude-sweep executors.
//!
//! Each [`Kernel`] is one pass over the state vector. Sweeps are serial below
//! [`PAR_THRESHOLD`] amplitudes (or whenever rayon would run single-threaded)
//! and rayon-chunked above it; every chunking scheme partitions the index
//! space into disjoint write sets, so results are bit-identical regardless of
//! thread count.
//!
//! **Instruction set.** The sweep bodies are one source compiled twice: for
//! the baseline target ([`Kernel::apply_portable`]) and, on x86-64, with AVX2
//! enabled, where the serial drivers inline into a `#[target_feature]`
//! wrapper and LLVM vectorizes them 4 `f64` lanes wide. [`Kernel::apply`]
//! picks the AVX2 copy when [`avx2_sweeps`] detects the feature at run time
//! (no build flag is involved). The dense [`Kernel::Two`] sweep, which AVX2
//! does not speed up, is one out-of-line portable function that `apply`
//! never sends to the AVX2 copy. Neither copy uses fused multiply-add, and
//! Rust never reassociates or contracts floating-point operations, so both
//! give bit-identical amplitudes — to each other and to the interpreted
//! [`StateVector`](crate::StateVector), which stays portable because it is
//! the oracle. Rayon-chunked sweeps run the portable copy.

use crate::matrix::{Matrix2, Matrix4};
use crate::Complex;
use rayon::prelude::*;

/// States with at least this many amplitudes run their sweeps in parallel;
/// smaller states (the common per-branch / per-trajectory case) stay serial
/// to avoid fan-out overhead.
pub const PAR_THRESHOLD: usize = 1 << 16;

/// Amplitudes per parallel work item — sized so a chunk's reads and writes
/// stay within L1/L2 (8192 amplitudes × 16 bytes = 128 KiB per half-pair).
const CHUNK: usize = 1 << 13;

/// Quad base-indices per parallel work item for two-qubit sweeps (each quad
/// touches 4 amplitudes, so this also bounds the working set).
const QUAD_CHUNK: usize = 1 << 11;

/// Whether [`Kernel::apply`] runs its AVX2-compiled sweep bodies on this
/// CPU: an x86-64 processor that reports AVX2 at run time. Detection is a
/// cached flag test, cheap enough to make per kernel.
pub fn avx2_sweeps() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    return false;
}

/// One compiled operation: a single sweep over the amplitude array.
///
/// Unitary kernels are applied with [`Kernel::apply`]; `Measure` / `Reset`
/// are *control kernels* — they mark where an executor must branch, sample
/// or project, and carry the index of their source [`Operation`]
/// (relative to the compiled operation slice) for error parity with the
/// interpreted path.
///
/// [`Operation`]: qrcc_circuit::Operation
#[derive(Debug, Clone, PartialEq)]
pub enum Kernel {
    /// A general fused 2×2 matrix on one qubit (gather/scatter pair sweep).
    Unary {
        /// Target qubit index.
        qubit: usize,
        /// Fused 2×2 unitary.
        m: Matrix2,
    },
    /// A diagonal 2×2: multiply-only sweep, no pair gathering.
    Diag1 {
        /// Target qubit index.
        qubit: usize,
        /// Phase applied where the qubit bit is 0.
        p0: Complex,
        /// Phase applied where the qubit bit is 1.
        p1: Complex,
    },
    /// An anti-diagonal 2×2 (X-like): a pair swap with two coefficients.
    Flip1 {
        /// Target qubit index.
        qubit: usize,
        /// Coefficient of the |1⟩ amplitude landing on |0⟩ (matrix entry m01).
        c01: Complex,
        /// Coefficient of the |0⟩ amplitude landing on |1⟩ (matrix entry m10).
        c10: Complex,
    },
    /// A diagonal two-qubit gate (CZ / CPhase / RZZ): multiply-only sweep.
    Diag2 {
        /// Bit mask of the first listed qubit (the matrix high bit).
        qa: usize,
        /// Bit mask of the second listed qubit (the matrix low bit).
        qb: usize,
        /// Phases indexed by `(bit_a << 1) | bit_b`.
        p: [Complex; 4],
    },
    /// A pure index permutation exchanging the two qubits' bits (SWAP).
    SwapPerm {
        /// First qubit index.
        qa: usize,
        /// Second qubit index.
        qb: usize,
    },
    /// A controlled flip (CX / CY): acts only where the control bit is set.
    CFlip {
        /// Control qubit index.
        control: usize,
        /// Target qubit index.
        target: usize,
        /// Coefficient of the target-|1⟩ amplitude landing on target-|0⟩.
        c01: Complex,
        /// Coefficient of the target-|0⟩ amplitude landing on target-|1⟩.
        c10: Complex,
    },
    /// A general two-qubit gate: cache-blocked 4-amplitude sweep.
    Two {
        /// First listed qubit index (matrix high bit).
        qa: usize,
        /// Second listed qubit index (matrix low bit).
        qb: usize,
        /// Dense 4×4 unitary over basis `(bit_a << 1) | bit_b`.
        m: Matrix4,
    },
    /// Control kernel: projective measurement into a classical bit.
    Measure {
        /// Measured qubit index.
        qubit: usize,
        /// Classical bit receiving the outcome.
        clbit: usize,
        /// Index of the source operation in the compiled slice.
        op_index: usize,
    },
    /// Control kernel: reset the qubit to |0⟩.
    Reset {
        /// Reset qubit index.
        qubit: usize,
        /// Index of the source operation in the compiled slice.
        op_index: usize,
    },
}

impl Kernel {
    /// Whether this is a `Measure` / `Reset` control kernel (an executor must
    /// branch or sample here; [`Kernel::apply`] would panic).
    pub fn is_control(&self) -> bool {
        matches!(self, Kernel::Measure { .. } | Kernel::Reset { .. })
    }

    /// Applies a unitary kernel to the amplitude array in place.
    ///
    /// On an x86-64 CPU that reports AVX2 this runs the sweep body compiled
    /// for AVX2 (4-wide `f64` lanes), elsewhere the portable body; the dense
    /// [`Kernel::Two`] sweep is portable code in either. Both are compiled
    /// from one source with no fused multiply-add, and Rust never contracts
    /// or reassociates floating-point operations, so every amplitude is
    /// bit-identical whichever path runs.
    ///
    /// # Panics
    ///
    /// Panics on `Measure` / `Reset` control kernels — those require an
    /// executor that owns branching or sampling (see
    /// [`FramedProgram`](super::FramedProgram)).
    pub fn apply(&self, amps: &mut [Complex]) {
        #[cfg(target_arch = "x86_64")]
        if !matches!(self, Kernel::Two { .. }) && avx2_sweeps() {
            // SAFETY: `apply_avx2` needs only AVX2, which `avx2_sweeps`
            // just detected on this CPU.
            return unsafe { self.apply_avx2(amps) };
        }
        self.apply_portable(amps)
    }

    /// The portable sweep body compiled with AVX2 enabled: the serial sweep
    /// drivers and the per-class arithmetic inline into it, so LLVM
    /// vectorizes them for 256-bit registers.
    ///
    /// # Safety
    ///
    /// Outside AVX2 code a call is `unsafe`: the caller must know the CPU
    /// has AVX2, as [`avx2_sweeps`] reports.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn apply_avx2(&self, amps: &mut [Complex]) {
        self.apply_portable(amps)
    }

    /// [`Kernel::apply`] on the baseline instruction set, whatever the CPU
    /// supports: the reference the dispatched sweeps are held to bit for
    /// bit.
    #[inline(always)]
    pub fn apply_portable(&self, amps: &mut [Complex]) {
        match *self {
            Kernel::Unary { qubit, m } => for_each_pair(amps, qubit, move |a, b| {
                let (x, y) = (*a, *b);
                *a = m[0][0] * x + m[0][1] * y;
                *b = m[1][0] * x + m[1][1] * y;
            }),
            Kernel::Diag1 { qubit, p0, p1 } => for_each_pair(amps, qubit, move |a, b| {
                *a = p0 * *a;
                *b = p1 * *b;
            }),
            Kernel::Flip1 { qubit, c01, c10 } => for_each_pair(amps, qubit, move |a, b| {
                let x = *a;
                *a = c01 * *b;
                *b = c10 * x;
            }),
            Kernel::Diag2 { qa, qb, p } => {
                let (ba, bb) = (1usize << qa, 1usize << qb);
                for_each_indexed(amps, move |i, a| {
                    let idx = (usize::from(i & ba != 0) << 1) | usize::from(i & bb != 0);
                    *a = p[idx] * *a;
                });
            }
            Kernel::SwapPerm { qa, qb } => for_each_quad(amps, qa, qb, |_a00, a01, a10, _a11| {
                std::mem::swap(a01, a10);
            }),
            Kernel::CFlip { control, target, c01, c10 } => {
                for_each_quad(amps, control, target, move |_a00, _a01, a10, a11| {
                    let x = *a10;
                    *a10 = c01 * *a11;
                    *a11 = c10 * x;
                })
            }
            Kernel::Two { qa, qb, m } => dense_two(amps, qa, qb, m),
            Kernel::Measure { .. } | Kernel::Reset { .. } => {
                panic!("control kernels must be executed by a branching or trajectory driver")
            }
        }
    }
}

/// The dense [`Kernel::Two`] sweep: a 4×4 complex matrix on every quad.
/// Kept out of line and portable: [`Kernel::apply`] never sends it to the
/// AVX2 body, where LLVM's 4-wide packing of the product read up to 25 %
/// slower in `bench_kernels` (a split real/imaginary layout no better), and
/// inlined into the dispatching `apply` the loop ran about 10 % slower at 8
/// qubits than alone.
#[inline(never)]
fn dense_two(amps: &mut [Complex], qa: usize, qb: usize, m: Matrix4) {
    for_each_quad(amps, qa, qb, move |a00, a01, a10, a11| {
        let v = [*a00, *a01, *a10, *a11];
        let mut out = [Complex::ZERO; 4];
        for (r, out_r) in out.iter_mut().enumerate() {
            for (c, v_c) in v.iter().enumerate() {
                *out_r += m[r][c] * *v_c;
            }
        }
        *a00 = out[0];
        *a01 = out[1];
        *a10 = out[2];
        *a11 = out[3];
    })
}

/// Serial pair sweep over one contiguous block whose length is a multiple of
/// `2 * bit`: for every pair `(i, i | bit)`, calls `f(&mut amps[i], &mut
/// amps[i | bit])`. The three lowest qubits, whose pairs sit in runs of one
/// to four amplitudes, take a copy with the run length fixed at compile
/// time, which unrolls and vectorizes where the general loop pays its
/// per-run overhead on every pair.
#[inline(always)]
fn pair_sweep_serial<F>(block: &mut [Complex], bit: usize, f: &F)
where
    F: Fn(&mut Complex, &mut Complex),
{
    let span = bit << 1;
    debug_assert_eq!(block.len() % span, 0);
    match bit {
        1 => pair_sweep_fixed::<1, F>(block, f),
        2 => pair_sweep_fixed::<2, F>(block, f),
        4 => pair_sweep_fixed::<4, F>(block, f),
        _ => {
            for chunk in block.chunks_mut(span) {
                let (lo, hi) = chunk.split_at_mut(bit);
                for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
                    f(a, b);
                }
            }
        }
    }
}

/// [`pair_sweep_serial`] for `bit == BIT`.
#[inline(always)]
fn pair_sweep_fixed<const BIT: usize, F>(block: &mut [Complex], f: &F)
where
    F: Fn(&mut Complex, &mut Complex),
{
    for chunk in block.chunks_exact_mut(2 * BIT) {
        let (lo, hi) = chunk.split_at_mut(BIT);
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            f(a, b);
        }
    }
}

/// Runs `f` over every amplitude pair `(i, i | 1 << q)`.
///
/// Parallel above [`PAR_THRESHOLD`]: for low qubits the array splits into
/// contiguous [`CHUNK`]-sized blocks (each closed under pairing); for high
/// qubits each `2^(q+1)` block splits into lo/hi halves whose matching
/// sub-chunks become work items. Both schemes give every work item a disjoint
/// write set, so the result is independent of thread count.
#[inline(always)]
pub(crate) fn for_each_pair<F>(amps: &mut [Complex], q: usize, f: F)
where
    F: Fn(&mut Complex, &mut Complex) + Sync,
{
    let bit = 1usize << q;
    let n = amps.len();
    debug_assert!(bit < n);
    if n < PAR_THRESHOLD || rayon::current_num_threads() <= 1 {
        pair_sweep_serial(amps, bit, &f);
        return;
    }
    pair_sweep_chunked(amps, bit, &f);
}

/// Parallel pair sweep: for low qubits the array splits into contiguous
/// [`CHUNK`]-sized blocks (each closed under pairing); for high qubits each
/// `2^(q+1)` block splits into lo/hi halves whose matching sub-chunks become
/// work items. Both schemes give every work item a disjoint write set.
fn pair_sweep_chunked<F>(amps: &mut [Complex], bit: usize, f: &F)
where
    F: Fn(&mut Complex, &mut Complex) + Sync,
{
    let n = amps.len();
    let span = bit << 1;
    if span <= CHUNK {
        let blocks: Vec<&mut [Complex]> = amps.chunks_mut(CHUNK).collect();
        blocks.into_par_iter().for_each(|block| pair_sweep_serial(block, bit, f));
    } else {
        let mut jobs: Vec<(&mut [Complex], &mut [Complex])> = Vec::with_capacity(n / CHUNK / 2);
        for block in amps.chunks_mut(span) {
            let (lo, hi) = block.split_at_mut(bit);
            for (lc, hc) in lo.chunks_mut(CHUNK).zip(hi.chunks_mut(CHUNK)) {
                jobs.push((lc, hc));
            }
        }
        jobs.into_par_iter().for_each(|(lo, hi)| {
            for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
                f(a, b);
            }
        });
    }
}

/// Runs `f(global_index, &mut amp)` over every amplitude — the multiply-only
/// driver for diagonal kernels (no partner amplitude is ever read).
#[inline(always)]
pub(crate) fn for_each_indexed<F>(amps: &mut [Complex], f: F)
where
    F: Fn(usize, &mut Complex) + Sync,
{
    if amps.len() < PAR_THRESHOLD || rayon::current_num_threads() <= 1 {
        for (i, a) in amps.iter_mut().enumerate() {
            f(i, a);
        }
        return;
    }
    indexed_sweep_chunked(amps, &f);
}

/// Parallel indexed sweep: contiguous [`CHUNK`]-sized blocks, each carrying
/// its base offset so `f` still sees global indices.
fn indexed_sweep_chunked<F>(amps: &mut [Complex], f: &F)
where
    F: Fn(usize, &mut Complex) + Sync,
{
    let jobs: Vec<(usize, &mut [Complex])> =
        amps.chunks_mut(CHUNK).enumerate().map(|(ci, c)| (ci * CHUNK, c)).collect();
    jobs.into_par_iter().for_each(|(base, chunk)| {
        for (off, a) in chunk.iter_mut().enumerate() {
            f(base + off, a);
        }
    });
}

/// Serial quad sweep: enumerates the `n/4` base indices with both target
/// bits clear via carry-ripple stepping (`((i | mask) + 1) & !mask` advances
/// to the next index with the masked bits clear), touching each quad's four
/// amplitudes directly. The step is a handful of ALU ops regardless of which
/// qubits are targeted, so the sweep stays ahead of a full-array
/// scan-and-mask loop at every qubit position.
#[inline(always)]
fn quad_sweep_serial<F>(amps: &mut [Complex], qa: usize, qb: usize, f: &F)
where
    F: Fn(&mut Complex, &mut Complex, &mut Complex, &mut Complex),
{
    let n = amps.len();
    let bit_a = 1usize << qa;
    let bit_b = 1usize << qb;
    let mask = bit_a | bit_b;
    let (lo_mask, hi_mask) = ((1usize << qa.min(qb)) - 1, (1usize << qa.max(qb)) - 1);
    let ptr = amps.as_mut_ptr();
    let mut i00 = 0usize;
    let mut k = 0usize;
    while i00 < n {
        // overlap check: the ripple step lands on quad k's base, so the
        // visited quartets are the partition `quad_base` enumerates
        debug_assert_eq!(i00, quad_base(k, lo_mask, hi_mask), "quad {k} off its base");
        // SAFETY: the four indices are distinct (they differ in the qa/qb
        // bits), in bounds (i00 < n with both bits clear), and this serial
        // sweep holds the only live references into `amps`.
        unsafe {
            f(
                &mut *ptr.add(i00),
                &mut *ptr.add(i00 | bit_b),
                &mut *ptr.add(i00 | bit_a),
                &mut *ptr.add(i00 | mask),
            )
        }
        i00 = ((i00 | mask) + 1) & !mask;
        k += 1;
    }
    debug_assert_eq!(k, n >> 2, "the ripple step visits every quad once");
}

/// Expands quad number `k` (an index over the `n/4` base states with both
/// target bits clear) to the full basis index with zeros inserted at bit
/// positions `lo` and `hi` (`lo < hi`).
#[inline(always)]
fn quad_base(k: usize, lo_mask: usize, hi_mask: usize) -> usize {
    let t = ((k & !lo_mask) << 1) | (k & lo_mask);
    ((t & !hi_mask) << 1) | (t & hi_mask)
}

/// Raw amplitude pointer shared across sweep threads. Safe because every
/// quad chunk writes a disjoint set of indices (see [`for_each_quad`]).
struct AmpsPtr(*mut Complex);
unsafe impl Send for AmpsPtr {}
unsafe impl Sync for AmpsPtr {}

impl AmpsPtr {
    /// Accessor (rather than field read) so closures capture the Sync
    /// wrapper, not the bare non-Sync `*mut` field.
    fn get(&self) -> *mut Complex {
        self.0
    }
}

/// Runs `f(a00, a01, a10, a11)` over every 4-amplitude group of qubits
/// `(qa, qb)`, where `a01` has only the `qb` bit set and `a10` only the `qa`
/// bit (matching the `(bit_a << 1) | bit_b` matrix convention).
///
/// Serial sweeps ripple-step base indices ([`quad_sweep_serial`]); parallel
/// sweeps (above [`PAR_THRESHOLD`] with more than one thread) enumerate quad
/// base indices in cache-blocked chunks ([`quad_sweep_chunked`]). Distinct
/// quad numbers expand to disjoint index quartets that partition the array,
/// so chunked writes never alias and results are independent of thread count.
#[inline(always)]
pub(crate) fn for_each_quad<F>(amps: &mut [Complex], qa: usize, qb: usize, f: F)
where
    F: Fn(&mut Complex, &mut Complex, &mut Complex, &mut Complex) + Sync,
{
    let n = amps.len();
    debug_assert!(qa != qb && (1 << qa) < n && (1 << qb) < n);
    if n < PAR_THRESHOLD || rayon::current_num_threads() <= 1 {
        quad_sweep_serial(amps, qa, qb, &f);
        return;
    }
    quad_sweep_chunked(amps, qa, qb, &f);
}

/// Parallel quad sweep: [`QUAD_CHUNK`]-sized ranges of quad numbers, each
/// expanded to base indices via [`quad_base`] bit insertion.
fn quad_sweep_chunked<F>(amps: &mut [Complex], qa: usize, qb: usize, f: &F)
where
    F: Fn(&mut Complex, &mut Complex, &mut Complex, &mut Complex) + Sync,
{
    let n = amps.len();
    let (lo, hi) = (qa.min(qb), qa.max(qb));
    let lo_mask = (1usize << lo) - 1;
    let hi_mask = (1usize << hi) - 1;
    let bit_a = 1usize << qa;
    let bit_b = 1usize << qb;
    let quads = n >> 2;
    let ptr = AmpsPtr(amps.as_mut_ptr());

    let nchunks = quads.div_ceil(QUAD_CHUNK);
    (0..nchunks).into_par_iter().for_each(|c| {
        let p = ptr.get();
        let start = c * QUAD_CHUNK;
        for k in start..(start + QUAD_CHUNK).min(quads) {
            let i00 = quad_base(k, lo_mask, hi_mask);
            // overlap check: the quartet has both target bits free and
            // stays in bounds
            debug_assert!(
                i00 & (bit_a | bit_b) == 0 && (i00 | bit_a | bit_b) < n,
                "quad {k} leaves the array or overlaps its own quartet"
            );
            // SAFETY: i00/i01/i10/i11 are four distinct in-bounds indices.
            // `quad_base` only inserts zero bits, so it is strictly
            // increasing in k: distinct k have distinct bases with both
            // target bits clear, whose quartets are disjoint (they partition
            // 0..n). Chunks hold disjoint k ranges, so no two concurrent
            // chunks touch the same amplitude.
            unsafe {
                f(
                    &mut *p.add(i00),
                    &mut *p.add(i00 | bit_b),
                    &mut *p.add(i00 | bit_a),
                    &mut *p.add(i00 | bit_a | bit_b),
                )
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n_qubits: usize) -> Vec<Complex> {
        (0..1usize << n_qubits).map(|i| Complex::new(i as f64, -(i as f64))).collect()
    }

    #[test]
    fn pair_sweep_visits_every_pair_once() {
        for q in 0..4 {
            let mut amps = ramp(4);
            // f increments the low member by the high member's index marker
            for_each_pair(&mut amps, q, |a, b| {
                *a += Complex::new(1000.0, 0.0);
                *b += Complex::new(2000.0, 0.0);
            });
            let bit = 1 << q;
            for (i, a) in amps.iter().enumerate() {
                let expected = i as f64 + if i & bit == 0 { 1000.0 } else { 2000.0 };
                assert_eq!(a.re, expected, "q={q} i={i}");
            }
        }
    }

    #[test]
    fn quad_bases_partition_the_index_space() {
        use std::collections::HashSet;
        let n = 1 << 5;
        for qa in 0..5 {
            for qb in 0..5 {
                if qa == qb {
                    continue;
                }
                let (lo, hi) = (qa.min(qb), qa.max(qb));
                let lo_mask = (1usize << lo) - 1;
                let hi_mask = (1usize << hi) - 1;
                let (ba, bb) = (1usize << qa, 1usize << qb);
                let mut seen = HashSet::new();
                for k in 0..n / 4 {
                    let i00 = quad_base(k, lo_mask, hi_mask);
                    assert_eq!(i00 & (ba | bb), 0);
                    for idx in [i00, i00 | bb, i00 | ba, i00 | ba | bb] {
                        assert!(idx < n);
                        assert!(seen.insert(idx), "index {idx} visited twice");
                    }
                }
                assert_eq!(seen.len(), n);
            }
        }
    }

    #[test]
    fn swap_kernel_is_an_involution() {
        let mut amps = ramp(4);
        let orig = amps.clone();
        let k = Kernel::SwapPerm { qa: 1, qb: 3 };
        k.apply(&mut amps);
        assert_ne!(amps, orig);
        k.apply(&mut amps);
        assert_eq!(amps, orig);
    }

    #[test]
    fn chunked_sweeps_match_serial_bitwise() {
        // Drive the parallel chunked partitioning directly (the driver fns
        // would route to serial on a single-core host) and require bit-equal
        // results against the serial sweeps, for low, middle and high qubits
        // — both multi-chunk regimes of the pair sweep included.
        let n_qubits = 14; // 16384 amps: 2 blocks of CHUNK, 2 ranges of QUAD_CHUNK
        let rot = |a: &mut Complex, b: &mut Complex| {
            let (x, y) = (*a, *b);
            *a = Complex::new(0.6, 0.1) * x + Complex::new(0.2, -0.3) * y;
            *b = Complex::new(-0.2, 0.3) * x + Complex::new(0.6, 0.1) * y;
        };
        for q in [0usize, 7, 13] {
            let mut serial = ramp(n_qubits);
            let mut chunked = ramp(n_qubits);
            pair_sweep_serial(&mut serial, 1 << q, &rot);
            pair_sweep_chunked(&mut chunked, 1 << q, &rot);
            assert_eq!(serial, chunked, "pair sweep q={q}");
        }
        let quad_rot = |a: &mut Complex, b: &mut Complex, c: &mut Complex, d: &mut Complex| {
            let (x, y, z, w) = (*a, *b, *c, *d);
            *a = Complex::new(0.5, 0.0) * x + Complex::new(0.1, 0.2) * w;
            *b = Complex::new(0.5, 0.0) * y + Complex::new(0.2, -0.1) * z;
            *c = Complex::new(0.5, 0.0) * z + Complex::new(-0.2, 0.1) * y;
            *d = Complex::new(0.5, 0.0) * w + Complex::new(-0.1, -0.2) * x;
        };
        for (qa, qb) in [(0usize, 1usize), (0, 13), (6, 7), (13, 5)] {
            let mut serial = ramp(n_qubits);
            let mut chunked = ramp(n_qubits);
            quad_sweep_serial(&mut serial, qa, qb, &quad_rot);
            quad_sweep_chunked(&mut chunked, qa, qb, &quad_rot);
            assert_eq!(serial, chunked, "quad sweep qa={qa} qb={qb}");
        }
        let phase = |i: usize, a: &mut Complex| {
            *a = Complex::new(0.0, 1e-3 * (i % 7) as f64) * *a;
        };
        let mut serial = ramp(n_qubits);
        let mut chunked = ramp(n_qubits);
        for (i, a) in serial.iter_mut().enumerate() {
            phase(i, a);
        }
        indexed_sweep_chunked(&mut chunked, &phase);
        assert_eq!(serial, chunked, "indexed sweep");
    }

    /// Every unitary kernel class at every target (or ordered target pair)
    /// of an `n`-qubit state, with coefficients drawn from `rng`.
    fn every_placement(n: usize, rng: &mut impl rand::Rng) -> Vec<Kernel> {
        let mut c = || Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
        let mut kernels = Vec::new();
        for q in 0..n {
            let m = [[c(), c()], [c(), c()]];
            kernels.push(Kernel::Unary { qubit: q, m });
            kernels.push(Kernel::Diag1 { qubit: q, p0: c(), p1: c() });
            kernels.push(Kernel::Flip1 { qubit: q, c01: c(), c10: c() });
        }
        for qa in 0..n {
            for qb in (0..n).filter(|&qb| qb != qa) {
                kernels.push(Kernel::Diag2 { qa, qb, p: [c(), c(), c(), c()] });
                kernels.push(Kernel::SwapPerm { qa, qb });
                kernels.push(Kernel::CFlip { control: qa, target: qb, c01: c(), c10: c() });
                let m = [
                    [c(), c(), c(), c()],
                    [c(), c(), c(), c()],
                    [c(), c(), c(), c()],
                    [c(), c(), c(), c()],
                ];
                kernels.push(Kernel::Two { qa, qb, m });
            }
        }
        kernels
    }

    fn bits(amps: &[Complex]) -> Vec<(u64, u64)> {
        amps.iter().map(|a| (a.re.to_bits(), a.im.to_bits())).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// `apply` — AVX2-compiled where the CPU has it — against the
        /// portable body, bit for bit (trivially equal on a host without
        /// AVX2), and the two classes the interpreter has a twin for against
        /// it too.
        #[test]
        fn dispatched_sweeps_match_portable_bitwise(
            n in 1..13usize,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use crate::StateVector;
            use qrcc_circuit::QubitId;
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let state: Vec<Complex> = (0..1usize << n)
                .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            for kernel in every_placement(n, &mut rng) {
                let (mut portable, mut dispatched) = (state.clone(), state.clone());
                kernel.apply_portable(&mut portable);
                kernel.apply(&mut dispatched);
                proptest::prop_assert!(
                    bits(&portable) == bits(&dispatched),
                    "{kernel:?} on {n} qubits"
                );
                let mut sv = StateVector::new(n);
                sv.amps_mut().copy_from_slice(&state);
                match kernel {
                    Kernel::Unary { qubit, m } => sv.apply_matrix1(&m, QubitId::new(qubit)),
                    Kernel::Two { qa, qb, m } => {
                        sv.apply_matrix2(&m, QubitId::new(qa), QubitId::new(qb))
                    }
                    _ => continue,
                }
                proptest::prop_assert!(
                    bits(sv.amplitudes()) == bits(&dispatched),
                    "{kernel:?} against the interpreter"
                );
            }
        }
    }

    #[test]
    fn parallel_sweeps_match_interpreted_bitwise() {
        // 17 qubits crosses PAR_THRESHOLD, so on multi-core hosts the kernels
        // take the parallel chunked path (single-core hosts route to the
        // serial ripple sweep) while StateVector's interpreted sweep is always
        // the naive scan. The per-pair / per-quad arithmetic is identical, so
        // amplitudes must be bit-equal — proving neither the enumeration
        // scheme nor the thread count can change results.
        use crate::StateVector;
        use qrcc_circuit::{Circuit, Gate, QubitId};
        let n_qubits = 17;
        let mut c = Circuit::new(n_qubits);
        for q in 0..n_qubits {
            c.h(q).rz(0.1 + q as f64, q);
        }
        let mut sv = StateVector::from_circuit(&c).unwrap();
        let mut amps = sv.amplitudes().to_vec();
        let m1 = crate::matrix::single_qubit_matrix(&Gate::Ry(0.7));
        for q in [0usize, 8, 16] {
            Kernel::Unary { qubit: q, m: m1 }.apply(&mut amps);
            sv.apply_matrix1(&m1, QubitId::new(q));
        }
        let m2 = crate::matrix::two_qubit_matrix(&Gate::Rxx(0.3));
        for (qa, qb) in [(0usize, 16usize), (5, 6), (16, 2)] {
            Kernel::Two { qa, qb, m: m2 }.apply(&mut amps);
            sv.apply_matrix2(&m2, QubitId::new(qa), QubitId::new(qb));
        }
        assert_eq!(amps.as_slice(), sv.amplitudes());
    }
}
