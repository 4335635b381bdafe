//! Compiled-program cache keyed by [`Circuit::structural_hash`].
//!
//! QRCC's variant enumeration produces batches of circuits that differ only
//! in their init-state prologue (a prefix of single-qubit gates) and their
//! measurement/output-basis epilogue (a suffix of single-qubit gates and
//! measurements) around an identical body. The cache canonicalises each
//! request into that three-part frame split, compiles the body **once**, and
//! re-derives only the cheap frames per request.

use super::{lower_ops, CompileStats, FramedProgram, Kernel, KernelProgram, Measurements};
use qrcc_circuit::{Circuit, Operation};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

struct CachedBody {
    /// The canonical body circuit, kept for structural-equality collision
    /// checks (two distinct bodies may share a 64-bit hash).
    circuit: Circuit,
    program: Arc<KernelProgram>,
}

/// A thread-safe cache of compiled circuit bodies.
///
/// ```rust
/// use qrcc_circuit::Circuit;
/// use qrcc_sim::compile::KernelCache;
///
/// let cache = KernelCache::new();
/// let mut a = Circuit::new(2);
/// a.h(0).cx(0, 1).measure_all(); // variant A: no init frame
/// let mut b = Circuit::new(2);
/// b.x(0).h(0).cx(0, 1).measure_all(); // variant B: |1⟩ init prologue
/// let pa = cache.get_or_compile(&a);
/// let pb = cache.get_or_compile(&b);
/// // same cx body compiled once, shared by both variants
/// assert!(std::sync::Arc::ptr_eq(pa.body(), pb.body()));
/// assert_eq!(cache.hits(), 1);
/// ```
pub struct KernelCache {
    buckets: Mutex<HashMap<u64, Vec<CachedBody>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    aggregate: Mutex<CompileStats>,
}

impl KernelCache {
    /// An empty cache.
    pub fn new() -> Self {
        KernelCache {
            buckets: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            aggregate: Mutex::new(CompileStats::default()),
        }
    }

    /// Compiles `circuit` (or patches frames around an already-compiled
    /// body) into a [`FramedProgram`].
    ///
    /// The prologue is the maximal prefix of single-qubit gates, the
    /// epilogue the maximal suffix of single-qubit gates and measurements;
    /// the body between them is looked up by structural hash (with a full
    /// structural-equality check against collisions) and compiled at most
    /// once. Compilation happens under the bucket lock so a batch of
    /// identical bodies arriving concurrently compiles exactly once.
    pub fn get_or_compile(&self, circuit: &Circuit) -> FramedProgram {
        let ops = circuit.operations();
        let prologue_len =
            ops.iter().take_while(|op| matches!(op, Operation::Single { .. })).count();
        let mut epilogue_start = ops.len();
        while epilogue_start > prologue_len
            && matches!(
                ops[epilogue_start - 1],
                Operation::Single { .. } | Operation::Measure { .. }
            )
        {
            epilogue_start -= 1;
        }

        let mut body = Circuit::with_clbits(circuit.num_qubits(), circuit.num_clbits());
        for op in &ops[prologue_len..epilogue_start] {
            body.push(op.clone());
        }
        let hash = body.structural_hash();

        let (program, hit) = {
            let mut buckets = self.buckets.lock().expect("kernel cache poisoned");
            let bucket = buckets.entry(hash).or_default();
            match bucket.iter().find(|cb| cb.circuit.structurally_equal(&body)) {
                Some(cb) => (Arc::clone(&cb.program), true),
                None => {
                    let program = Arc::new(KernelProgram::compile(&body));
                    bucket.push(CachedBody { circuit: body, program: Arc::clone(&program) });
                    (program, false)
                }
            }
        };

        let mut frame_stats = CompileStats::default();
        let prologue = lower_slice(circuit.num_qubits(), &ops[..prologue_len], &mut frame_stats);
        let epilogue = lower_slice(circuit.num_qubits(), &ops[epilogue_start..], &mut frame_stats);
        let measurements = Measurements::of_kernels(
            circuit.num_qubits(),
            circuit.num_clbits(),
            prologue.iter().chain(program.kernels()).chain(&epilogue),
        );
        measurements.count_into(&mut frame_stats);
        if hit {
            frame_stats.cache_hits = 1;
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            frame_stats.cache_misses = 1;
            self.misses.fetch_add(1, Ordering::Relaxed);
        }

        {
            // The aggregate counts compiler work actually done: frames and
            // the measurement classification every request, each distinct
            // body once.
            let mut agg = self.aggregate.lock().expect("kernel cache poisoned");
            agg.merge(&frame_stats);
            if !hit {
                agg.merge(program.stats());
            }
        }

        let mut stats = frame_stats;
        stats.merge(program.stats());
        FramedProgram {
            num_qubits: circuit.num_qubits(),
            num_clbits: circuit.num_clbits(),
            prologue,
            body: program,
            epilogue,
            body_op_offset: prologue_len,
            epilogue_op_offset: epilogue_start,
            measurements,
            stats,
        }
    }

    /// Requests served from an already-compiled body.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that compiled a new body.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct compiled bodies resident in the cache.
    pub fn compiled_bodies(&self) -> usize {
        self.buckets.lock().expect("kernel cache poisoned").values().map(Vec::len).sum()
    }

    /// Cumulative compile telemetry: frame compilations for every request,
    /// each distinct body once, plus total cache hit/miss counts.
    pub fn stats(&self) -> CompileStats {
        self.aggregate.lock().expect("kernel cache poisoned").clone()
    }
}

impl Default for KernelCache {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for KernelCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelCache")
            .field("bodies", &self.compiled_bodies())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

fn lower_slice(num_qubits: usize, ops: &[Operation], stats: &mut CompileStats) -> Vec<Kernel> {
    let mut kernels = Vec::new();
    lower_ops(num_qubits, ops, &mut kernels, stats);
    kernels
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds init-frame variants around a shared entangling body, mimicking
    /// the variant batches the cutting pipeline enumerates.
    fn variant(init: &[&str]) -> Circuit {
        let mut c = Circuit::with_clbits(2, 2);
        for g in init {
            match *g {
                "x" => c.x(0),
                "h" => c.h(0),
                "s" => c.s(0),
                _ => unreachable!(),
            };
        }
        c.cx(0, 1).rzz(0.4, 0, 1);
        c.h(1).measure(0, 0).measure(1, 1);
        c
    }

    #[test]
    fn variants_share_one_compiled_body() {
        let cache = KernelCache::new();
        let inits: [&[&str]; 4] = [&[], &["x"], &["h"], &["h", "s"]];
        let programs: Vec<FramedProgram> =
            inits.iter().map(|i| cache.get_or_compile(&variant(i))).collect();
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 3);
        assert_eq!(cache.compiled_bodies(), 1);
        for p in &programs[1..] {
            assert!(Arc::ptr_eq(programs[0].body(), p.body()));
        }
        // distributions still reflect the differing prologues
        let d0 = programs[0].classical_distribution().unwrap();
        let d1 = programs[1].classical_distribution().unwrap();
        assert!((d0.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_ne!(d0, d1);
    }

    #[test]
    fn distinct_bodies_do_not_collide() {
        let cache = KernelCache::new();
        let mut a = Circuit::new(2);
        a.h(0).cx(0, 1).measure_all();
        let mut b = Circuit::new(2);
        b.h(0).cz(0, 1).measure_all();
        cache.get_or_compile(&a);
        cache.get_or_compile(&b);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.compiled_bodies(), 2);
    }

    #[test]
    fn all_single_qubit_circuit_has_empty_body() {
        let cache = KernelCache::new();
        let mut c = Circuit::with_clbits(1, 1);
        c.h(0).t(0).measure(0, 0);
        let p = cache.get_or_compile(&c);
        assert!(p.body().kernels().is_empty());
        let d = p.classical_distribution().unwrap();
        assert!((d[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn aggregate_stats_count_bodies_once() {
        let cache = KernelCache::new();
        for _ in 0..3 {
            let mut c = Circuit::new(2);
            c.h(0).cx(0, 1).measure_all();
            cache.get_or_compile(&c);
        }
        let stats = cache.stats();
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.cache_misses, 1);
        // body (cx) compiled once; prologue h compiled per request
        assert_eq!(stats.families["cx"].gates, 1);
        assert_eq!(stats.families["h"].gates, 3);
    }
}
