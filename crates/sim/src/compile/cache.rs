//! Compiled-program cache keyed by [`Circuit::structural_hash`].
//!
//! QRCC's variant enumeration produces batches of circuits that differ only
//! in their init-state prologue (a prefix of single-qubit gates) and their
//! measurement/output-basis epilogue (a suffix of single-qubit gates and
//! measurements) around an identical body. The cache canonicalises each
//! request into that three-part frame split, compiles the body **once**, and
//! re-derives only the cheap frames per request.
//!
//! The cache is **bounded**: at most [`KernelCache::BODY_BUDGET`] compiled
//! bodies stay resident, evicted in two generations, so a long-lived backend
//! under a parameter sweep (every new angle is a new body) holds a constant
//! amount of compiled code instead of growing per request.

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
///
/// # Eviction
///
/// Bodies live in two generations of [`KernelCache::BODY_BUDGET`]` / 2` each.
/// New and re-used bodies go to the young generation; when it is full the
/// old generation is dropped and the young one takes its place. So at most
/// `BODY_BUDGET` bodies are ever resident, a body survives as long as it is
/// used at least once per `BODY_BUDGET / 2` distinct other bodies, and any
/// batch with up to `BODY_BUDGET / 2` distinct bodies compiles each exactly
/// once however often it repeats. An evicted body simply recompiles (to the
/// same program) on its next use; [`CompileStats::cache_evictions`] counts
/// them.
pub struct KernelCache {
    generations: Mutex<Generations>,
    hits: AtomicU64,
    misses: AtomicU64,
    aggregate: Mutex<CompileStats>,
}

/// Compiled bodies by structural hash, in a young and an old generation.
#[derive(Default)]
struct Generations {
    young: HashMap<u64, Vec<CachedBody>>,
    young_len: usize,
    old: HashMap<u64, Vec<CachedBody>>,
    old_len: usize,
}

impl Generations {
    /// The resident program of `body`, if any. A hit in the old generation
    /// is promoted to the young one (so the next retirement spares it); the
    /// second value counts the bodies that promotion evicted.
    fn get(&mut self, hash: u64, body: &Circuit) -> Option<(Arc<KernelProgram>, u64)> {
        let matches = |cb: &CachedBody| cb.circuit.structurally_equal(body);
        if let Some(cb) =
            self.young.get(&hash).and_then(|bucket| bucket.iter().find(|cb| matches(cb)))
        {
            return Some((Arc::clone(&cb.program), 0));
        }
        let bucket = self.old.get_mut(&hash)?;
        let found = bucket.swap_remove(bucket.iter().position(matches)?);
        self.old_len -= 1;
        let program = Arc::clone(&found.program);
        Some((program, self.admit(hash, found)))
    }

    /// Admits a body to the young generation, first retiring the old
    /// generation if the young one is full. Returns the number of bodies
    /// evicted.
    fn admit(&mut self, hash: u64, body: CachedBody) -> u64 {
        let mut evicted = 0;
        if self.young_len >= KernelCache::BODY_BUDGET / 2 {
            evicted = self.old_len as u64;
            self.old = std::mem::take(&mut self.young);
            self.old_len = std::mem::take(&mut self.young_len);
        }
        self.young.entry(hash).or_default().push(body);
        self.young_len += 1;
        evicted
    }
}

impl KernelCache {
    /// Most compiled bodies ever resident. A constant, not a knob: it only
    /// has to exceed twice the distinct bodies of one request (a few hundred
    /// at this repository's circuit sizes) for the cache to behave as if
    /// unbounded within a request.
    pub const BODY_BUDGET: usize = 4096;

    /// An empty cache.
    pub fn new() -> Self {
        KernelCache {
            generations: Mutex::new(Generations::default()),
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

        let (program, hit, evicted) = {
            let mut generations = self.generations.lock().expect("kernel cache poisoned");
            match generations.get(hash, &body) {
                Some((program, evicted)) => (program, true, evicted),
                None => {
                    let program = Arc::new(KernelProgram::compile(&body));
                    let cached = CachedBody { circuit: body, program: Arc::clone(&program) };
                    (program, false, generations.admit(hash, cached))
                }
            }
        };

        let mut frame_stats = CompileStats { cache_evictions: evicted, ..CompileStats::default() };
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
        let generations = self.generations.lock().expect("kernel cache poisoned");
        generations.young_len + generations.old_len
    }

    /// Cumulative compile telemetry: frame compilations for every request,
    /// each body once per compilation, plus total cache hit/miss/eviction
    /// counts.
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

    /// One distinct two-qubit body per `index` (the angle differs).
    fn distinct_body(index: usize) -> Circuit {
        let mut c = Circuit::with_clbits(2, 2);
        c.h(0).rzz(0.001 * (index as f64 + 1.0), 0, 1).cx(0, 1);
        c.measure(0, 0).measure(1, 1);
        c
    }

    #[test]
    fn residency_stays_within_the_budget_and_evicted_bodies_recompile_identically() {
        let cache = KernelCache::new();
        let first = cache.get_or_compile(&distinct_body(0));
        let reference = first.classical_distribution().unwrap();
        for index in 1..10 * KernelCache::BODY_BUDGET {
            cache.get_or_compile(&distinct_body(index));
            assert!(cache.compiled_bodies() <= KernelCache::BODY_BUDGET);
        }
        let stats = cache.stats();
        assert_eq!(stats.cache_misses, 10 * KernelCache::BODY_BUDGET as u64);
        assert_eq!(
            stats.cache_evictions + cache.compiled_bodies() as u64,
            stats.cache_misses,
            "every compiled body is either resident or counted as evicted"
        );

        // body 0 is long gone: it recompiles (a miss) to the same program
        let again = cache.get_or_compile(&distinct_body(0));
        assert_eq!(cache.misses(), 10 * KernelCache::BODY_BUDGET as u64 + 1);
        assert!(!Arc::ptr_eq(first.body(), again.body()));
        assert_eq!(first.body().kernels().len(), again.body().kernels().len());
        assert_eq!(again.classical_distribution().unwrap(), reference);
    }

    #[test]
    fn a_body_in_steady_use_survives_any_number_of_retirements() {
        let cache = KernelCache::new();
        let hot = cache.get_or_compile(&distinct_body(0));
        for index in 1..3 * KernelCache::BODY_BUDGET {
            cache.get_or_compile(&distinct_body(index));
            if index % (KernelCache::BODY_BUDGET / 4) == 0 {
                let again = cache.get_or_compile(&distinct_body(0));
                assert!(Arc::ptr_eq(hot.body(), again.body()), "promoted, never recompiled");
            }
        }
        assert!(cache.stats().cache_evictions > 0);
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
