//! Shot-aware fragment result cache, addressed by variant key.
//!
//! Cut-and-reuse workloads re-execute the same fragment variants: parameter
//! sweeps, retries and multi-tenant fleets resubmit mostly-identical
//! fragments, and the variant batch itself repeats across runs.
//! [`ResultCache`] memoises executed distributions under the key
//! `(fragment body, canonical ordinal, outputs)` — the same integers a
//! [`VariantKey`] carries, with the fragment index replaced by the body it
//! names. The init prologue, body and measurement epilogue of a variant are
//! all fixed by that key, so it content-addresses the instantiated circuit
//! without building it.
//!
//! **Body identity.** A body enters the key once it is interned
//! ([`ResultCache::intern`]): interning hashes it
//! ([`FragmentBody::structural_hash`], computed when the body was built) and
//! checks full equality ([`FragmentBody::structurally_equal`]) against the
//! held bodies of that hash, so two different bodies never share an id.
//! The dispatcher interns every fragment once per request and a fleet
//! worker once per batch; after that a lookup compares three integers.
//! Two fragments with structurally equal bodies (names aside) share
//! entries. Each entry keeps its body alive; the interning table holds them
//! weakly, so a body goes with its last entry. A bare circuit
//! ([`ResultCache::lookup`], [`ResultCache::store`], a fleet worker's
//! OpenQASM batch) is the one variant of a body of fixed operations
//! ([`FragmentBody::from_circuit`]): a circuit sent as OpenQASM and the same
//! variant sent as a key are different keys and do not share an entry.
//!
//! **Shot semantics.** Every entry stores the shot count its distribution
//! was estimated from (`None` = exact, noise-free). A lookup asking for
//! `requested ≤ stored` shots is a **full hit**: the stored distribution is
//! at least as converged as the request needs. A lookup asking for
//! `requested > stored` is a **delta hit**: the caller executes only the
//! top-up (`requested − stored` shots), merges via [`merge_distributions`]
//! and writes the merged entry back, so the cache monotonically warms.
//! Exact entries serve any request; sampled entries never serve an exact
//! request.
//!
//! **Serving.** [`serve`] is the one front a backend call goes through, in a
//! dispatch worker and in a fleet worker alike: it looks each key up,
//! answers full hits, runs every miss and delta top-up in one backend call —
//! which is where a variant is first instantiated, if at all — settles each
//! fresh result into the cache and reports the shots it spent. Nothing on
//! the hit path builds or hashes a circuit.
//!
//! **Eviction.** The cache is sharded ([`ResultCache::SHARDS`] mutexes, one
//! key map each) and bounded by a total weight budget counted in stored
//! distribution values (`f64` slots). Inserting past the budget evicts
//! least-recently-used entries per shard. Every touch draws a fresh tick
//! from its shard's counter, and each shard keeps a recency index (tick →
//! key) beside its map, so the shard's LRU entry is the index's first key:
//! a lookup, a store and an eviction each cost O(log n) in the shard's
//! entry count, and no operation scans the shard.
//!
//! **Sharing.** Entries hold distributions as the `Arc<Vec<f64>>` an
//! [`ExecutionResults`](crate::execute::ExecutionResults) carries: a hit
//! hands out the stored buffer and a store keeps the buffer it is given, so
//! neither copies a distribution. A stored buffer is never written again — an
//! upgrade or a delta merge replaces the entry's buffer with a new one — so
//! a reader's buffer never changes under it.
//!
//! **Validation.** A record is only cached when it is a distribution over
//! its body's classical bits: exactly `1 << num_clbits` values, each finite
//! and non-negative. A store drops any other record.
//!
//! **Persistence.** With [`ResultCachePolicy::persist_path`] set,
//! [`ResultCache::persist`] writes an atomic snapshot (temp file + rename)
//! and [`ResultCache::open`] reloads it, so a restarted worker serves hits
//! immediately. Snapshots carry a format version header; a mismatched,
//! unparseable or invalid snapshot — one entry failing the validation above
//! is enough — is ignored whole (the cache starts empty) rather than
//! failing the worker or half-loading; [`CacheStats::snapshot_ignored`]
//! records that this happened. A snapshot stores each body once, as the
//! hex of the encoding a remote worker receives it in
//! ([`FragmentBody::encode`], decoded as hostile input with
//! [`FragmentBody::decode`]), and each entry as the body's place in the
//! file, its ordinal, outputs, shots and distribution values as `f64` bit
//! patterns. All of it round-trips exactly, so a reloaded entry hits on
//! precisely the keys the live entry did.

use crate::execute::Shared;
use crate::fragment::codec::Reader;
use crate::fragment::{FragmentBody, VariantKey};
use crate::CoreError;
use parking_lot::Mutex;
use qrcc_circuit::Circuit;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Version of the on-disk snapshot format. Bumped whenever the layout (or
/// the semantics of a stored entry) changes; [`ResultCache::open`] ignores
/// snapshots written under any other version.
pub const SNAPSHOT_VERSION: u32 = 3;

/// First token of a snapshot's header line.
const SNAPSHOT_MAGIC: &str = "QRCC-RESULT-CACHE";

/// Default capacity: 4 Mi stored distribution values (32 MiB of `f64`s).
pub const DEFAULT_CACHE_CAPACITY: u64 = 1 << 22;

/// Configuration for the result cache, consumed by
/// [`DeviceRegistry::with_result_cache`](crate::schedule::DeviceRegistry::with_result_cache)
/// and `QrccServer::with_result_cache` — the two places a cache is
/// attached.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultCachePolicy {
    /// Total weight budget, counted in stored distribution values (`f64`
    /// slots) across all shards. Zero means nothing can be stored.
    #[serde(default)]
    pub capacity: u64,
    /// Snapshot file for persistence across worker restarts, or `None` for
    /// a purely in-memory cache.
    #[serde(default)]
    pub persist_path: Option<String>,
}

impl Default for ResultCachePolicy {
    fn default() -> Self {
        ResultCachePolicy { capacity: DEFAULT_CACHE_CAPACITY, persist_path: None }
    }
}

impl ResultCachePolicy {
    /// An in-memory policy with the default capacity (the default policy).
    pub fn in_memory() -> Self {
        ResultCachePolicy::default()
    }

    /// A policy persisting snapshots to `path`.
    pub fn persisted(path: impl Into<String>) -> Self {
        ResultCachePolicy { persist_path: Some(path.into()), ..ResultCachePolicy::default() }
    }

    /// Sets the weight budget (stored distribution values).
    #[must_use]
    pub fn with_capacity(mut self, capacity: u64) -> Self {
        self.capacity = capacity;
        self
    }
}

/// Cumulative counters of one [`ResultCache`], snapshotted by
/// [`ResultCache::stats`]. A scheduled run reports the registry cache's
/// snapshot in
/// [`ScheduleReport::result_cache`](crate::schedule::ScheduleReport::result_cache).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheStats {
    /// Lookups fully served from the cache (no execution needed).
    pub hits: u64,
    /// Lookups served partially: the caller executed only the shot top-up.
    /// Through [`serve`], a delta hit counts once, when its top-up settles.
    pub delta_hits: u64,
    /// Lookups that found nothing usable. Through [`serve`], a miss counts
    /// once, when its execution settles: a failed attempt and its retry
    /// are one miss.
    pub misses: u64,
    /// Entries inserted or upgraded by write-backs.
    pub insertions: u64,
    /// Entries evicted to stay under the weight budget.
    pub evictions: u64,
    /// Device shots the cache absorbed: the full request on a hit, the
    /// stored portion on a delta hit. Exact requests save no shots.
    pub shots_saved: u64,
    /// Entries currently held.
    pub entries: u64,
    /// Current weight (stored distribution values).
    pub weight: u64,
    /// Entries restored from a persisted snapshot at open.
    pub snapshot_loaded: u64,
    /// Whether a snapshot existed but was ignored (version mismatch,
    /// unparseable content or an invalid entry) — the cache started empty
    /// instead of failing.
    pub snapshot_ignored: bool,
}

impl CacheStats {
    /// Total lookups performed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.delta_hits + self.misses
    }

    /// Fraction of lookups served fully or partially, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            (self.hits + self.delta_hits) as f64 / self.lookups() as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits + {} delta / {} lookups ({:.1}% served), {} shots saved, \
             {} entries ({} values held, {} evicted)",
            self.hits,
            self.delta_hits,
            self.lookups(),
            100.0 * self.hit_rate(),
            self.shots_saved,
            self.entries,
            self.weight,
            self.evictions,
        )
    }
}

/// Outcome of one [`ResultCache::lookup`].
#[derive(Debug, Clone, PartialEq)]
pub enum CacheLookup {
    /// Nothing usable cached: execute the full request, then
    /// [`store`](ResultCache::store) the outcome.
    Miss,
    /// Fully served: the distribution satisfies the requested shot count.
    /// The buffer is the stored one, not a copy.
    Hit(Arc<Vec<f64>>),
    /// Partially served: execute `missing` shots, merge with the stored
    /// `base` via [`merge_distributions`], and store the merge back.
    Delta {
        /// The cached distribution (the stored buffer).
        base: Arc<Vec<f64>>,
        /// Shots the cached distribution was estimated from.
        base_shots: u64,
        /// The shot top-up still to execute (`requested − base_shots`).
        missing: u64,
    },
}

/// A fragment body interned in a [`ResultCache`]: the body part of the keys
/// its variants are cached under. Cheap to clone; see
/// [`ResultCache::intern`].
#[derive(Debug, Clone)]
pub struct CachedBody(Arc<Interned>);

impl CachedBody {
    /// The interned body.
    pub fn body(&self) -> &FragmentBody {
        &self.0.body
    }
}

/// One interned body and the id its keys carry.
#[derive(Debug)]
struct Interned {
    id: u64,
    body: FragmentBody,
}

/// An entry's key: interned body id, canonical ordinal, outputs.
type Key = (u64, u64, u64);

/// One cached variant: the executed distribution and its provenance.
struct Entry {
    /// Keeps the body interned (and writable to a snapshot) while the entry
    /// lives.
    body: Arc<Interned>,
    distribution: Shared,
    /// Shots the distribution was estimated from (`None` = exact).
    shots: Option<u64>,
    /// Its shard's LRU tick of the last touch.
    last_used: u64,
}

impl Entry {
    fn weight(&self) -> u64 {
        self.distribution.len() as u64
    }

    /// How many requested shots this entry can serve (`u64::MAX` = any).
    fn serves(&self) -> u64 {
        self.shots.unwrap_or(u64::MAX)
    }
}

/// One lock domain: the entries by key, their recency index and their total
/// weight.
#[derive(Default)]
struct Shard {
    entries: HashMap<Key, Entry>,
    /// Every held entry once, keyed by its `last_used` tick (ticks are
    /// unique): the first key is the least-recently-used entry.
    recency: BTreeMap<u64, Key>,
    weight: u64,
    /// The last tick drawn.
    tick: u64,
}

impl Shard {
    /// Moves `entry` (held under `key`) to `tick` in the recency index.
    fn touch(recency: &mut BTreeMap<u64, Key>, entry: &mut Entry, key: Key, tick: u64) {
        recency.remove(&entry.last_used);
        recency.insert(tick, key);
        entry.last_used = tick;
    }

    /// Removes the least-recently-used entry. Returns whether anything was
    /// removed.
    fn evict_lru(&mut self) -> bool {
        let Some((_, key)) = self.recency.pop_first() else {
            return false;
        };
        let entry = self.entries.remove(&key).expect("indexed entry exists");
        self.weight -= entry.weight();
        true
    }
}

/// The interned bodies by structural hash, held weakly: entries own them.
#[derive(Default)]
struct Interner {
    bodies: HashMap<u64, Vec<Weak<Interned>>>,
    next_id: u64,
    /// Hashes held when dead references were last dropped everywhere; the
    /// next sweep runs once twice as many are held.
    swept_at: usize,
}

/// A sharded, shot-count-aware result cache addressed by variant key. See
/// the [module docs](self) for key, shot and persistence semantics.
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    interner: Mutex<Interner>,
    capacity: u64,
    persist_path: Option<PathBuf>,
    hits: AtomicU64,
    delta_hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    shots_saved: AtomicU64,
    snapshot_loaded: u64,
    snapshot_ignored: bool,
}

impl fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResultCache")
            .field("stats", &self.stats())
            .field("persist_path", &self.persist_path)
            .finish()
    }
}

impl ResultCache {
    /// Number of independent lock domains.
    pub const SHARDS: usize = 16;

    /// An in-memory cache bounded by `capacity` stored distribution values.
    pub fn new(capacity: u64) -> Self {
        ResultCache {
            shards: (0..Self::SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            interner: Mutex::new(Interner::default()),
            capacity,
            persist_path: None,
            hits: AtomicU64::new(0),
            delta_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            shots_saved: AtomicU64::new(0),
            snapshot_loaded: 0,
            snapshot_ignored: false,
        }
    }

    /// Opens a cache under `policy`: in-memory unless a persist path is set,
    /// in which case an existing snapshot is loaded. A snapshot written
    /// under a different [`SNAPSHOT_VERSION`] (or otherwise unparseable) is
    /// ignored and the cache starts empty; [`CacheStats::snapshot_ignored`]
    /// reports it.
    pub fn open(policy: &ResultCachePolicy) -> Self {
        let mut cache = ResultCache::new(policy.capacity);
        if let Some(path) = &policy.persist_path {
            cache.persist_path = Some(PathBuf::from(path));
            let path = Path::new(path);
            if path.exists() {
                match std::fs::read_to_string(path)
                    .map_err(|e| e.to_string())
                    .and_then(|text| parse_snapshot(&text))
                {
                    Ok((bodies, entries)) => {
                        let bodies: Vec<CachedBody> =
                            bodies.iter().map(|body| cache.intern(body)).collect();
                        for (body, key, distribution, shots) in entries {
                            let body = &bodies[body].0;
                            if cache.insert(body, key, Arc::new(distribution), shots) {
                                cache.snapshot_loaded += 1;
                            }
                        }
                    }
                    Err(_) => cache.snapshot_ignored = true,
                }
            }
        }
        cache
    }

    /// The snapshot path this cache persists to, if any.
    pub fn persist_path(&self) -> Option<&Path> {
        self.persist_path.as_deref()
    }

    /// The cache's handle for `body`: the one already interned when a
    /// structurally equal body is (checked in full), else a new one holding
    /// a copy of `body`. Variants of one handle share keys; call it once per
    /// fragment, not per variant.
    pub fn intern(&self, body: &FragmentBody) -> CachedBody {
        self.intern_hashed(body, body.structural_hash())
    }

    /// [`intern`](Self::intern) under a given structural hash.
    fn intern_hashed(&self, body: &FragmentBody, hash: u64) -> CachedBody {
        let mut interner = self.interner.lock();
        let Interner { bodies, next_id, swept_at } = &mut *interner;
        let held = bodies.entry(hash).or_default();
        held.retain(|weak| weak.strong_count() > 0);
        if let Some(found) =
            held.iter().filter_map(Weak::upgrade).find(|held| held.body.structurally_equal(body))
        {
            return CachedBody(found);
        }
        let interned = Arc::new(Interned { id: *next_id, body: body.clone() });
        *next_id += 1;
        held.push(Arc::downgrade(&interned));
        if bodies.len() > 2 * *swept_at {
            bodies.retain(|_, held| {
                held.retain(|weak| weak.strong_count() > 0);
                !held.is_empty()
            });
            *swept_at = bodies.len().max(64);
        }
        CachedBody(interned)
    }

    /// Looks up the bare `circuit` (the one variant of
    /// [`FragmentBody::from_circuit`]) for a request of `requested_shots`
    /// (`None` = the caller needs an exact distribution). Touches the entry
    /// for LRU and counts the hit/delta/miss.
    pub fn lookup(&self, circuit: &Circuit, requested_shots: Option<u64>) -> CacheLookup {
        let lookup = match FragmentBody::from_circuit(circuit) {
            Ok(body) => self.lookup_key(&self.intern(&body), (0, 0), requested_shots),
            Err(_) => CacheLookup::Miss,
        };
        match &lookup {
            CacheLookup::Hit(_) => {}
            CacheLookup::Delta { base_shots, .. } => self.count_run(Some(*base_shots)),
            CacheLookup::Miss => self.count_run(None),
        }
        lookup
    }

    /// Looks up variant `(ordinal, outputs)` of `body`, counting only a hit:
    /// a miss or a delta hit is the caller's to count
    /// ([`count_run`](Self::count_run)).
    fn lookup_key(
        &self,
        body: &CachedBody,
        (ordinal, outputs): (u64, u64),
        requested_shots: Option<u64>,
    ) -> CacheLookup {
        let key = (body.0.id, ordinal, outputs);
        let mut shard = self.shards[shard_of(key)].lock();
        shard.tick += 1;
        let Shard { entries, recency, tick, .. } = &mut *shard;
        let tick = *tick;
        let Some(entry) = entries.get_mut(&key) else {
            return CacheLookup::Miss;
        };
        match (entry.shots, requested_shots) {
            // An exact entry serves anything; a sufficiently-sampled entry
            // serves any smaller sampled request.
            (None, requested) => {
                Shard::touch(recency, entry, key, tick);
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.shots_saved.fetch_add(requested.unwrap_or(0), Ordering::Relaxed);
                CacheLookup::Hit(Arc::clone(&entry.distribution))
            }
            (Some(stored), Some(requested)) if stored >= requested => {
                Shard::touch(recency, entry, key, tick);
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.shots_saved.fetch_add(requested, Ordering::Relaxed);
                CacheLookup::Hit(Arc::clone(&entry.distribution))
            }
            (Some(stored), Some(requested)) => {
                Shard::touch(recency, entry, key, tick);
                CacheLookup::Delta {
                    base: Arc::clone(&entry.distribution),
                    base_shots: stored,
                    missing: requested - stored,
                }
            }
            // A sampled entry can never serve an exact request.
            (Some(_), None) => CacheLookup::Miss,
        }
    }

    /// Counts a lookup the backend had to answer: a miss, or a delta hit
    /// whose base of `base_shots` the cache absorbed.
    fn count_run(&self, base_shots: Option<u64>) {
        match base_shots {
            Some(stored) => {
                self.delta_hits.fetch_add(1, Ordering::Relaxed);
                self.shots_saved.fetch_add(stored, Ordering::Relaxed);
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Stores (or upgrades) the bare `circuit`'s distribution. An existing
    /// entry is replaced only when the new record serves more shots (exact
    /// beats sampled; more shots beat fewer), so concurrent write-backs keep
    /// the best-converged distribution. Inserting past the weight budget
    /// evicts least-recently-used entries of the shard. A record that is not
    /// a distribution over `circuit`'s classical bits (see the
    /// [module docs](self)) is dropped.
    pub fn store(&self, circuit: &Circuit, distribution: &[f64], shots: Option<u64>) {
        if let Ok(body) = FragmentBody::from_circuit(circuit) {
            let distribution = Arc::new(distribution.to_vec());
            self.store_key(&self.intern(&body), (0, 0), &distribution, shots);
        }
    }

    /// [`store`](Self::store) for variant `(ordinal, outputs)` of `body`;
    /// the entry keeps `distribution` itself.
    fn store_key(
        &self,
        body: &CachedBody,
        variant: (u64, u64),
        distribution: &Shared,
        shots: Option<u64>,
    ) {
        if is_distribution_over(body.body().num_clbits(), distribution)
            && self.insert(&body.0, variant, Arc::clone(distribution), shots)
        {
            self.insertions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The insertion path shared by stores and snapshot loading, both of
    /// which validate the record first. Returns whether the record was
    /// inserted or upgraded.
    fn insert(
        &self,
        body: &Arc<Interned>,
        (ordinal, outputs): (u64, u64),
        distribution: Shared,
        shots: Option<u64>,
    ) -> bool {
        let key = (body.id, ordinal, outputs);
        let weight = distribution.len() as u64;
        let index = shard_of(key);
        let capacity = self.shard_capacity(index);
        if weight > capacity {
            return false; // wider than a whole shard: uncacheable
        }
        let mut shard = self.shards[index].lock();
        shard.tick += 1;
        let serves = shots.map_or(u64::MAX, |s| s);
        let Shard { entries, recency, tick, .. } = &mut *shard;
        let tick = *tick;
        let gained = match entries.get_mut(&key) {
            Some(existing) if existing.serves() >= serves => return false,
            Some(existing) => {
                let replaced = existing.weight();
                existing.distribution = distribution;
                existing.shots = shots;
                Shard::touch(recency, existing, key, tick);
                weight as i64 - replaced as i64
            }
            None => {
                let body = Arc::clone(body);
                entries.insert(key, Entry { body, distribution, shots, last_used: tick });
                recency.insert(tick, key);
                weight as i64
            }
        };
        shard.weight = shard.weight.saturating_add_signed(gained);
        while shard.weight > capacity {
            if !shard.evict_lru() {
                break;
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Shard `index`'s share of the weight budget: the budget split as
    /// evenly as whole values allow, so the shares sum to exactly the budget.
    fn shard_capacity(&self, index: usize) -> u64 {
        let shards = Self::SHARDS as u64;
        self.capacity / shards + u64::from((index as u64) < self.capacity % shards)
    }

    /// Number of entries currently held.
    pub fn entries(&self) -> usize {
        self.shards.iter().map(|s| s.lock().recency.len()).sum()
    }

    /// Snapshot of the cumulative counters plus current entry/weight gauges.
    pub fn stats(&self) -> CacheStats {
        let (mut entries, mut weight) = (0u64, 0u64);
        for shard in &self.shards {
            let shard = shard.lock();
            entries += shard.recency.len() as u64;
            weight += shard.weight;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            delta_hits: self.delta_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            shots_saved: self.shots_saved.load(Ordering::Relaxed),
            entries,
            weight,
            snapshot_loaded: self.snapshot_loaded,
            snapshot_ignored: self.snapshot_ignored,
        }
    }

    /// Writes an atomic snapshot (temp file + rename) of every held entry to
    /// the configured persist path. A cache without one is a no-op.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors of the temp-file write or the rename.
    pub fn persist(&self) -> std::io::Result<()> {
        let Some(path) = &self.persist_path else {
            return Ok(());
        };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut snapshot = Snapshot::default();
        for shard in &self.shards {
            let shard = shard.lock();
            for (&(_, ordinal, outputs), entry) in &shard.entries {
                let body = snapshot.body(&entry.body);
                snapshot.entry(body, (ordinal, outputs), &entry.distribution, entry.shots);
            }
        }
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, snapshot.finish())?;
        std::fs::rename(&tmp, path)
    }
}

/// The shard holding `key`.
fn shard_of((body, ordinal, outputs): Key) -> usize {
    // SplitMix64's finaliser over the key's words
    let mut x = body ^ ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ outputs.rotate_left(29);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((x ^ (x >> 31)) % ResultCache::SHARDS as u64) as usize
}

/// Whether `distribution` can be the outcome distribution of a circuit over
/// `clbits` classical bits: one finite, non-negative value per pattern.
fn is_distribution_over(clbits: usize, distribution: &[f64]) -> bool {
    let patterns = u32::try_from(clbits).ok().and_then(|n| 1usize.checked_shl(n));
    patterns == Some(distribution.len()) && distribution.iter().all(|v| v.is_finite() && *v >= 0.0)
}

/// Merges a cached `base` distribution (estimated from `base_shots`) with a
/// freshly executed `delta` distribution (`delta_shots`): the shot-weighted
/// average, i.e. exactly the empirical distribution of the union of both
/// shot sets.
pub fn merge_distributions(
    base: &[f64],
    base_shots: u64,
    delta: &[f64],
    delta_shots: u64,
) -> Vec<f64> {
    if base.len() != delta.len() || base_shots + delta_shots == 0 {
        return delta.to_vec(); // foreign shapes: trust the fresh execution
    }
    let total = (base_shots + delta_shots) as f64;
    let (wb, wd) = (base_shots as f64 / total, delta_shots as f64 / total);
    base.iter().zip(delta).map(|(b, d)| b * wb + d * wd).collect()
}

/// One variant as [`serve`] answered it.
#[derive(Debug)]
pub struct Served {
    /// The distribution to deliver — the stored buffer on a full hit, the
    /// settled fresh result otherwise (merged with its base on a delta hit)
    /// — or the error its execution ended in.
    pub distribution: Result<Arc<Vec<f64>>, CoreError>,
    /// Device shots the backend spent on the variant: 0 on a full hit, on
    /// an exact backend and on an error; the top-up on a delta hit; the
    /// requested count otherwise.
    pub spent: u64,
    /// Whether the cache served the variant in full, without the backend.
    pub cached: bool,
}

/// Serves one backend call's variants `keys` through a cache: the one
/// lookup → run → settle → store path of the dispatch workers and the fleet
/// worker.
///
/// With a cache, `cache` pairs it with the interned bodies the keys index:
/// variant `i` is `(bodies[keys[i].fragment], keys[i].ordinal,
/// keys[i].outputs)`. Variant `i` asks for `shots[i]` shots, or without
/// `shots` for the backend's `shots_per_circuit` (`None` = an exact
/// backend). Full hits are answered from the cache; every miss and delta
/// top-up then runs together in **one** `run(picked, counts)` call, `picked`
/// being their indices into `keys` in batch order — the only place a
/// variant may be built. `counts` carries one shot count per picked variant
/// (the top-up for a delta hit, the request otherwise) when the caller gave
/// counts or a delta hit needs them, and is `None` otherwise; when every
/// variant hits, `run` is not called. Without a cache nothing is looked up
/// or stored, so `run` receives every variant and the caller's `shots`.
///
/// A `run` that panics, or returns other than one result per picked
/// variant, fails each picked variant with
/// [`CoreError::BackendUnavailable`] naming `backend`. Each fresh result is
/// settled — a sampled top-up is merged with its base at the summed shots
/// ([`merge_distributions`]); a top-up that ran on an exact backend replaces
/// the base; anything else is stored as it came — and stored. A full hit
/// is counted at its lookup; a miss or a delta hit only when its result
/// settles, so a variant that fails and comes back on a retry counts once.
///
/// Returns one [`Served`] per key, in order.
///
/// # Panics
///
/// Panics if a key's `fragment` indexes no body of `cache`.
pub fn serve(
    cache: Option<(&ResultCache, &[CachedBody])>,
    backend: &str,
    shots_per_circuit: Option<u64>,
    keys: &[VariantKey],
    shots: Option<&[u64]>,
    run: impl FnOnce(&[usize], Option<&[u64]>) -> Vec<Result<Vec<f64>, CoreError>>,
) -> Vec<Served> {
    /// How a variant is answered: from the cache, or by the backend (a
    /// delta hit carrying its cached base and that base's shots).
    enum Slot {
        Hit(Shared),
        Run(Option<(Shared, u64)>),
    }
    let tracer = crate::obs::tracer();
    // the cache spans nest under the caller's open span (a dispatch
    // worker's `job.execute`); a fleet worker's connection thread has none
    // — it hand-builds its client's spans — and records none here
    let traced = cache.is_some() && tracer.enabled() && tracer.current() != 0;
    let span = |name: &'static str| traced.then(|| tracer.span(name));
    let variant = |key: &VariantKey| (key.ordinal, key.outputs);

    let mut slots = Vec::with_capacity(keys.len());
    let mut picked = Vec::with_capacity(keys.len());
    let mut counts = Vec::with_capacity(keys.len());
    let lookup_span = span("cache.lookup");
    for (i, key) in keys.iter().enumerate() {
        let requested = shots.map_or(shots_per_circuit, |shots| Some(shots[i]));
        let lookup = match cache {
            Some((cache, bodies)) => {
                cache.lookup_key(&bodies[key.fragment], variant(key), requested)
            }
            None => CacheLookup::Miss,
        };
        let (slot, count) = match lookup {
            CacheLookup::Hit(distribution) => {
                slots.push(Slot::Hit(distribution));
                continue;
            }
            CacheLookup::Delta { base, base_shots, missing } => {
                (Slot::Run(Some((base, base_shots))), missing)
            }
            // a count is only passed when the caller gave counts or a delta
            // hit exists, and either makes `requested` a count
            CacheLookup::Miss => (Slot::Run(None), requested.unwrap_or(0)),
        };
        slots.push(slot);
        picked.push(i);
        counts.push(count);
    }
    drop(lookup_span);

    let explicit = shots.is_some() || slots.iter().any(|slot| matches!(slot, Slot::Run(Some(_))));
    let fresh = if picked.is_empty() {
        Vec::new()
    } else {
        let call = std::panic::AssertUnwindSafe(|| run(&picked, explicit.then_some(&counts[..])));
        let outcome = match std::panic::catch_unwind(call) {
            Ok(results) if results.len() == picked.len() => Ok(results),
            Ok(results) => {
                Err(format!("returned {} results for {} circuits", results.len(), picked.len()))
            }
            Err(panic) => Err(format!("backend panicked: {}", panic_message(panic.as_ref()))),
        };
        outcome.unwrap_or_else(|reason| {
            let unavailable = || CoreError::BackendUnavailable {
                backend: backend.to_string(),
                reason: reason.clone(),
            };
            picked.iter().map(|_| Err(unavailable())).collect()
        })
    };

    let _store_span = span("cache.store");
    let mut runs = picked.into_iter().zip(counts).zip(fresh);
    slots
        .into_iter()
        .map(|slot| match slot {
            Slot::Hit(distribution) => {
                Served { distribution: Ok(distribution), spent: 0, cached: true }
            }
            Slot::Run(base) => {
                let ((i, count), result) = runs.next().expect("one result per variant run");
                match result {
                    Ok(distribution) => {
                        // the shots the execution ran, `None` on an exact backend
                        let ran_shots = shots_per_circuit.map(|_| count);
                        let base_shots = base.as_ref().map(|(_, shots)| *shots);
                        let (distribution, stored) =
                            settle(Arc::new(distribution), ran_shots, base);
                        if let Some((cache, bodies)) = cache {
                            let key = &keys[i];
                            cache.count_run(base_shots);
                            cache.store_key(
                                &bodies[key.fragment],
                                variant(key),
                                &distribution,
                                stored,
                            );
                        }
                        Served {
                            distribution: Ok(distribution),
                            spent: ran_shots.unwrap_or(0),
                            cached: false,
                        }
                    }
                    Err(error) => Served { distribution: Err(error), spent: 0, cached: false },
                }
            }
        })
        .collect()
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = panic.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = panic.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// How a freshly executed result settles into the cache: the distribution
/// to deliver and store, and the shots to store it at (`None` = exact).
///
/// `ran` is the shots the execution spent, `None` when the backend that ran
/// it is exact; `delta` is the cached base and its shots when the execution
/// was a delta hit's top-up.
///
/// * A top-up that ran sampled is merged with its base
///   ([`merge_distributions`]) and stored at `base + ran` shots.
/// * A top-up that a retry re-routed onto an exact backend replaces the
///   base and is stored as exact: it beats any sampled merge.
/// * Any other result is stored as it came, at its own shots or as exact.
fn settle(
    fresh: Arc<Vec<f64>>,
    ran: Option<u64>,
    delta: Option<(Arc<Vec<f64>>, u64)>,
) -> (Arc<Vec<f64>>, Option<u64>) {
    match (delta, ran) {
        (Some((base, base_shots)), Some(ran)) => {
            (Arc::new(merge_distributions(&base, base_shots, &fresh, ran)), Some(base_shots + ran))
        }
        (_, ran) => (fresh, ran),
    }
}

/// A snapshot document being written: its body and entry sections, and
/// each interned body's place among the written bodies.
#[derive(Default)]
struct Snapshot {
    bodies: String,
    entries: String,
    placed: HashMap<u64, usize>,
}

impl Snapshot {
    /// The place of `interned` in the document, writing the body the first
    /// time: a `body` line holding its encoding
    /// ([`FragmentBody::encode`]) as hex.
    fn body(&mut self, interned: &Interned) -> usize {
        let next = self.placed.len();
        let place = *self.placed.entry(interned.id).or_insert(next);
        if place == next {
            let mut encoded = Vec::new();
            interned.body.encode(&mut encoded);
            let hex: String = encoded.iter().map(|byte| format!("{byte:02x}")).collect();
            let _ = writeln!(self.bodies, "body {hex}");
        }
        place
    }

    /// Appends one `entry` line: the body's place, the variant, its shots
    /// and its distribution's bit patterns.
    fn entry(
        &mut self,
        body: usize,
        (ordinal, outputs): (u64, u64),
        dist: &[f64],
        shots: Option<u64>,
    ) {
        let shots = shots.map_or_else(|| "exact".to_string(), |s| s.to_string());
        let dist: Vec<String> = dist.iter().map(|v| format!("{:016x}", v.to_bits())).collect();
        let _ = writeln!(
            self.entries,
            "entry body={body} ordinal={ordinal} outputs={outputs} shots={shots} dist={}",
            dist.join(",")
        );
    }

    /// The whole document: header, bodies, entries.
    fn finish(self) -> String {
        format!("{SNAPSHOT_MAGIC} v{SNAPSHOT_VERSION}\n{}{}", self.bodies, self.entries)
    }
}

/// Parses a snapshot header line, returning its version.
fn parse_header(line: &str) -> Option<u32> {
    let rest = line.strip_prefix(SNAPSHOT_MAGIC)?.trim().strip_prefix('v')?;
    rest.parse().ok()
}

/// One snapshot entry: the place of its body, its variant, distribution and
/// shots.
type SnapshotEntry = (usize, (u64, u64), Vec<f64>, Option<u64>);

/// The `name=value` fields of a `body` or `entry` line.
fn fields(line: &str) -> HashMap<&str, &str> {
    line.split_whitespace().filter_map(|field| field.split_once('=')).collect()
}

/// The value of field `name`, parsed.
fn field<T: std::str::FromStr>(fields: &HashMap<&str, &str>, name: &str) -> Result<T, String> {
    let value = fields.get(name).ok_or_else(|| format!("line missing {name}="))?;
    value.parse().map_err(|_| format!("bad {name}: {value}"))
}

/// Parses a full snapshot document into its bodies and entries. Any
/// malformed line or invalid body or entry fails the whole parse — a torn
/// or corrupt snapshot must not half-load.
fn parse_snapshot(text: &str) -> Result<(Vec<FragmentBody>, Vec<SnapshotEntry>), String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty snapshot")?;
    match parse_header(header) {
        Some(version) if version == SNAPSHOT_VERSION => {}
        Some(version) => return Err(format!("snapshot version v{version} != v{SNAPSHOT_VERSION}")),
        None => return Err("missing snapshot header".to_string()),
    }
    let (mut bodies, mut entries) = (Vec::new(), Vec::new());
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        if let Some(hex) = line.strip_prefix("body ") {
            // no weight cap: a body never weighs more than its encoding's
            // length, so the file's own length bounds what decoding holds
            let bytes = unhex(hex).ok_or("body is not hex")?;
            let mut reader = Reader::new(&bytes);
            let body = FragmentBody::decode(&mut reader, usize::MAX).map_err(|e| e.to_string())?;
            reader.finish().map_err(|e| e.to_string())?;
            bodies.push(body);
        } else if let Some(rest) = line.strip_prefix("entry ") {
            let fields = fields(rest);
            let place: usize = field(&fields, "body")?;
            let body = bodies.get(place).ok_or_else(|| format!("entry names body {place}"))?;
            let (ordinal, outputs) = (field(&fields, "ordinal")?, field(&fields, "outputs")?);
            body.check_variant(ordinal, outputs)?;
            let shots = match *fields.get("shots").ok_or("entry missing shots=")? {
                "exact" => None,
                value => Some(value.parse().map_err(|_| format!("bad shot count: {value}"))?),
            };
            let dist = fields
                .get("dist")
                .ok_or("entry missing dist=")?
                .split(',')
                .map(|word| {
                    u64::from_str_radix(word, 16)
                        .map(f64::from_bits)
                        .map_err(|_| format!("bad distribution word: {word}"))
                })
                .collect::<Result<Vec<f64>, String>>()?;
            if !is_distribution_over(body.num_clbits(), &dist) {
                return Err(format!(
                    "{} values is not a distribution over {} clbits",
                    dist.len(),
                    body.num_clbits()
                ));
            }
            entries.push((place, (ordinal, outputs), dist, shots));
        } else {
            return Err(format!("bad snapshot line: {line}"));
        }
    }
    Ok((bodies, entries))
}

/// The bytes spelled by `hex`, two digits each.
fn unhex(hex: &str) -> Option<Vec<u8>> {
    let digit = |c: u8| (c as char).to_digit(16);
    let pairs = hex.as_bytes().chunks(2);
    pairs.map(|pair| Some((digit(pair[0])? * 16 + digit(*pair.get(1)?)?) as u8)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::SkeletonOp;
    use crate::gatecut::GateHalf;
    use proptest::prelude::*;
    use qrcc_circuit::{Gate, Operation, QubitId};
    use std::sync::atomic::AtomicUsize;

    /// A full hit serving `distribution`.
    fn hit(distribution: Vec<f64>) -> CacheLookup {
        CacheLookup::Hit(Arc::new(distribution))
    }

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        c
    }

    fn rotated(theta: f64) -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).ry(theta, 1).cx(0, 1).measure_all();
        c
    }

    /// The cache's handle for the bare `circuit`.
    fn bare(cache: &ResultCache, circuit: &Circuit) -> CachedBody {
        cache.intern(&FragmentBody::from_circuit(circuit).unwrap())
    }

    /// A 2-qubit, 2-clbit body with `preps` init slots on qubit 0 (so
    /// `4^preps` variants) rotated by `theta`: distinct variants and bodies
    /// to key entries by.
    fn slotted(preps: u32, theta: f64) -> FragmentBody {
        let q = QubitId::new;
        let mut skeleton: Vec<SkeletonOp> =
            (0..preps).map(|i| SkeletonOp::Prep { place: 4u64.pow(i), qubit: q(0) }).collect();
        skeleton.push(SkeletonOp::Fixed(Operation::Single { gate: Gate::Ry(theta), qubit: q(1) }));
        skeleton.push(SkeletonOp::Fixed(Operation::Measure { qubit: q(0), clbit: 0 }));
        skeleton.push(SkeletonOp::Fixed(Operation::Measure { qubit: q(1), clbit: 1 }));
        FragmentBody::new("slotted".into(), 2, 2, 0, 4u64.pow(preps), skeleton).unwrap()
    }

    /// A collision-free scratch path under the OS temp dir.
    fn scratch(name: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("qrcc-cache-{}-{name}-{n}", std::process::id()))
    }

    #[test]
    fn miss_then_hit() {
        let cache = ResultCache::new(1 << 16);
        let c = bell();
        assert_eq!(cache.lookup(&c, Some(100)), CacheLookup::Miss);
        cache.store(&c, &[0.5, 0.0, 0.0, 0.5], Some(100));
        assert_eq!(cache.lookup(&c, Some(100)), hit(vec![0.5, 0.0, 0.0, 0.5]));
        assert_eq!(cache.lookup(&c, Some(40)), hit(vec![0.5, 0.0, 0.0, 0.5]));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.delta_hits), (2, 1, 0));
        assert_eq!(stats.shots_saved, 140);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn a_full_hit_hands_out_the_stored_buffer() {
        let cache = ResultCache::new(1 << 16);
        let c = bell();
        let stored = Arc::new(vec![0.5, 0.0, 0.0, 0.5]);
        cache.store_key(&bare(&cache, &c), (0, 0), &stored, None);
        for requested in [None, Some(100)] {
            let CacheLookup::Hit(served) = cache.lookup(&c, requested) else {
                panic!("an exact entry serves {requested:?}");
            };
            assert!(Arc::ptr_eq(&served, &stored), "a hit must not copy");
        }
    }

    #[test]
    fn a_store_keeps_the_buffer_it_was_delivered() {
        let cache = ResultCache::new(1 << 16);
        let c = bell();
        let body = bare(&cache, &c);
        let delivered = Arc::new(vec![0.25; 4]);
        cache.store_key(&body, (0, 0), &delivered, Some(64));
        assert_eq!(Arc::strong_count(&delivered), 2, "the entry holds the delivered buffer");
        let shard = cache.shards[shard_of((body.0.id, 0, 0))].lock();
        let entry = shard.entries.values().next().expect("one entry");
        assert!(Arc::ptr_eq(&entry.distribution, &delivered));
        drop(shard);
        // the copying wrapper stores a buffer of its own
        let copied = [0.5, 0.5, 0.0, 0.0];
        cache.store(&c, &copied, Some(128));
        let CacheLookup::Hit(served) = cache.lookup(&c, Some(128)) else { panic!("stored") };
        assert_eq!(served[..], copied[..]);
        assert_eq!(Arc::strong_count(&delivered), 1, "the upgrade released the old buffer");
    }

    #[test]
    fn two_bodies_forced_into_one_hash_never_serve_each_others_entries() {
        let cache = ResultCache::new(1 << 16);
        let (a, b) = (slotted(1, 0.3), slotted(1, 0.7));
        assert!(!a.structurally_equal(&b));
        let hash = a.structural_hash();
        let (held_a, held_b) = (cache.intern_hashed(&a, hash), cache.intern_hashed(&b, hash));
        assert_ne!(held_a.0.id, held_b.0.id, "equality, not the hash, decides identity");
        let stored_a = Arc::new(vec![0.5, 0.0, 0.0, 0.5]);
        cache.store_key(&held_a, (2, 0), &stored_a, None);
        assert_eq!(cache.lookup_key(&held_b, (2, 0), None), CacheLookup::Miss, "collision guard");
        // both live side by side, each serving only its own body's keys
        let stored_b = Arc::new(vec![0.25; 4]);
        cache.store_key(&held_b, (2, 0), &stored_b, None);
        assert_eq!(cache.stats().entries, 2);
        // a structurally equal body under another name interns to the same id
        let renamed = FragmentBody::new("renamed".into(), 2, 2, 0, 4, a.skeleton().to_vec());
        let renamed = renamed.unwrap();
        assert_eq!(cache.intern_hashed(&renamed, hash).0.id, held_a.0.id);
        for (body, stored) in [(&held_a, &stored_a), (&held_b, &stored_b)] {
            let CacheLookup::Hit(served) = cache.lookup_key(body, (2, 0), None) else {
                panic!("stored")
            };
            assert!(Arc::ptr_eq(&served, stored));
        }
        assert_eq!(cache.lookup_key(&held_a, (1, 0), None), CacheLookup::Miss, "another variant");
    }

    #[test]
    fn a_body_goes_with_its_last_entry() {
        // 4 values per shard: one entry each, so a second store in a shard
        // evicts the first
        let cache = ResultCache::new(16 * 4);
        let first = cache.intern(&slotted(1, 0.1));
        let id = first.0.id;
        cache.store_key(&first, (0, 0), &Arc::new(vec![0.25; 4]), None);
        drop(first);
        assert_eq!(cache.intern(&slotted(1, 0.1)).0.id, id, "the entry keeps the body interned");
        let other = cache.intern(&slotted(5, 0.9));
        let ordinal =
            (0..).find(|&k| shard_of((other.0.id, k, 0)) == shard_of((id, 0, 0))).unwrap();
        cache.store_key(&other, (ordinal, 0), &Arc::new(vec![0.25; 4]), None);
        assert_eq!(cache.stats().evictions, 1);
        assert_ne!(cache.intern(&slotted(1, 0.1)).0.id, id, "the body went with its last entry");
    }

    #[test]
    fn a_delta_merge_stores_a_new_buffer_and_never_mutates_a_held_one() {
        let cache = ResultCache::new(1 << 16);
        let body = bare(&cache, &bell());
        let first = vec![1.0, 0.0, 0.0, 0.0];
        cache.store_key(&body, (0, 0), &Arc::new(first.clone()), Some(100));
        let CacheLookup::Hit(reader) = cache.lookup_key(&body, (0, 0), Some(100)) else {
            panic!("stored")
        };
        let CacheLookup::Delta { base, base_shots, missing } =
            cache.lookup_key(&body, (0, 0), Some(300))
        else {
            panic!("more shots than stored is a delta hit")
        };
        assert!(Arc::ptr_eq(&base, &reader) && (base_shots, missing) == (100, 200));
        let merged = merge_distributions(&base, base_shots, &[0.0, 0.0, 0.0, 1.0], missing);
        let merged = Arc::new(merged);
        cache.store_key(&body, (0, 0), &merged, Some(300));
        assert_eq!(reader[..], first[..], "a reader's buffer never changes");
        let CacheLookup::Hit(served) = cache.lookup_key(&body, (0, 0), Some(300)) else {
            panic!("the merge serves 300 shots")
        };
        assert!(Arc::ptr_eq(&served, &merged) && !Arc::ptr_eq(&served, &reader));
    }

    #[test]
    fn shot_semantics_drive_hit_class() {
        let cache = ResultCache::new(1 << 16);
        let c = bell();
        cache.store(&c, &[0.4, 0.1, 0.1, 0.4], Some(1_000));
        // more shots requested than stored: delta hit with the exact top-up
        match cache.lookup(&c, Some(1_600)) {
            CacheLookup::Delta { base_shots, missing, .. } => {
                assert_eq!(base_shots, 1_000);
                assert_eq!(missing, 600);
            }
            other => panic!("expected delta hit, got {other:?}"),
        }
        // a sampled entry never serves an exact request
        assert_eq!(cache.lookup(&c, None), CacheLookup::Miss);
        // an exact entry serves everything, sampled or exact
        cache.store(&c, &[0.5, 0.0, 0.0, 0.5], None);
        assert!(matches!(cache.lookup(&c, None), CacheLookup::Hit(_)));
        assert!(matches!(cache.lookup(&c, Some(1 << 40)), CacheLookup::Hit(_)));
    }

    #[test]
    fn write_back_upgrades_monotonically() {
        let cache = ResultCache::new(1 << 16);
        let c = bell();
        cache.store(&c, &[1.0, 0.0, 0.0, 0.0], Some(500));
        // a weaker record never downgrades the entry
        cache.store(&c, &[0.0, 1.0, 0.0, 0.0], Some(100));
        assert_eq!(cache.lookup(&c, Some(500)), hit(vec![1.0, 0.0, 0.0, 0.0]));
        // a stronger record upgrades it
        cache.store(&c, &[0.5, 0.5, 0.0, 0.0], Some(900));
        assert_eq!(cache.lookup(&c, Some(900)), hit(vec![0.5, 0.5, 0.0, 0.0]));
        assert_eq!(cache.stats().entries, 1, "upgrades replace, never duplicate");
    }

    #[test]
    fn merge_is_the_shot_weighted_average() {
        let merged = merge_distributions(&[1.0, 0.0], 300, &[0.0, 1.0], 100);
        assert!((merged[0] - 0.75).abs() < 1e-12);
        assert!((merged[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn settle_merges_a_sampled_top_up_at_the_summed_shots() {
        let base = Arc::new(vec![1.0, 0.0]);
        let (stored, shots) = settle(Arc::new(vec![0.0, 1.0]), Some(100), Some((base, 300)));
        assert_eq!(*stored, merge_distributions(&[1.0, 0.0], 300, &[0.0, 1.0], 100));
        assert_eq!(shots, Some(400));
    }

    #[test]
    fn settle_replaces_the_base_with_a_top_up_retried_on_an_exact_backend() {
        let fresh = Arc::new(vec![0.25, 0.75]);
        let (stored, shots) =
            settle(Arc::clone(&fresh), None, Some((Arc::new(vec![1.0, 0.0]), 300)));
        assert!(Arc::ptr_eq(&stored, &fresh), "the fresh buffer, unmerged");
        assert_eq!(shots, None);
    }

    #[test]
    fn settle_stores_a_result_without_a_base_as_it_came() {
        let fresh = Arc::new(vec![0.5, 0.5]);
        for ran in [Some(64), None] {
            let (stored, shots) = settle(Arc::clone(&fresh), ran, None);
            assert!(Arc::ptr_eq(&stored, &fresh));
            assert_eq!(shots, ran);
        }
    }

    /// One recorded backend call of [`serve`]: the picked indices and the
    /// shot counts it was handed.
    type Call = (Vec<usize>, Option<Vec<u64>>);

    /// Serves the bare `circuits` (variant `(0, 0)` of body `i`) through
    /// `cache` on a sampling backend of 100 shots per circuit whose every
    /// result is the uniform 2-clbit distribution, recording each backend
    /// call.
    fn serve_recorded(
        cache: Option<&ResultCache>,
        circuits: &[&Circuit],
        shots: Option<&[u64]>,
    ) -> (Vec<Served>, Vec<Call>) {
        let bodies: Vec<CachedBody> =
            cache.map_or_else(Vec::new, |cache| circuits.iter().map(|c| bare(cache, c)).collect());
        let keys: Vec<VariantKey> = (0..circuits.len()).map(|i| VariantKey::new(i, 0, 0)).collect();
        let mut calls = Vec::new();
        let cache = cache.map(|cache| (cache, &bodies[..]));
        let served = serve(cache, "rec", Some(100), &keys, shots, |picked, counts| {
            calls.push((picked.to_vec(), counts.map(<[u64]>::to_vec)));
            picked.iter().map(|_| Ok(vec![0.25; 4])).collect()
        });
        (served, calls)
    }

    #[test]
    fn the_front_runs_a_delta_and_a_miss_in_one_call_and_skips_the_hit() {
        let cache = ResultCache::new(1 << 16);
        let (hit_circuit, delta_circuit, miss_circuit) = (bell(), rotated(0.3), rotated(0.7));
        cache.store(&hit_circuit, &[0.5, 0.0, 0.0, 0.5], Some(100));
        cache.store(&delta_circuit, &[1.0, 0.0, 0.0, 0.0], Some(40));
        let circuits = [&hit_circuit, &delta_circuit, &miss_circuit];

        let (served, calls) = serve_recorded(Some(&cache), &circuits, None);
        // the delta switches the call to explicit counts: [top-up, requested]
        assert_eq!(calls, vec![(vec![1, 2], Some(vec![60, 100]))]);
        let spent: Vec<u64> = served.iter().map(|s| s.spent).collect();
        let cached: Vec<bool> = served.iter().map(|s| s.cached).collect();
        assert_eq!((spent, cached), (vec![0, 60, 100], vec![true, false, false]));
        let delivered: Vec<Vec<f64>> =
            served.into_iter().map(|s| s.distribution.unwrap().to_vec()).collect();
        let merged = merge_distributions(&[1.0, 0.0, 0.0, 0.0], 40, &[0.25; 4], 60);
        assert_eq!(delivered, vec![vec![0.5, 0.0, 0.0, 0.5], merged, vec![0.25; 4]]);

        // the merge and the miss were stored at 100 shots: everything hits
        // now, and the backend is not called
        let (served, calls) = serve_recorded(Some(&cache), &circuits, None);
        assert!(calls.is_empty(), "an all-hit call reaches no backend");
        assert!(served.iter().all(|s| s.cached && s.spent == 0));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.delta_hits, stats.misses), (4, 1, 1));
    }

    #[test]
    fn without_a_cache_the_front_passes_the_call_through() {
        let circuits = [&bell(), &rotated(0.3)];
        for shots in [None, Some(&[7u64, 9][..])] {
            let (served, calls) = serve_recorded(None, &circuits, shots);
            assert_eq!(calls, vec![(vec![0, 1], shots.map(<[u64]>::to_vec))]);
            let spent: Vec<u64> = served.iter().map(|s| s.spent).collect();
            assert_eq!(spent, shots.map_or(vec![100, 100], <[u64]>::to_vec));
            assert!(served.iter().all(|s| !s.cached && s.distribution.is_ok()));
        }
    }

    #[test]
    fn a_panicking_or_miscounting_backend_fails_each_circuit_it_was_handed() {
        let cache = ResultCache::new(1 << 16);
        let (hit_circuit, miss_circuit) = (bell(), rotated(0.3));
        cache.store(&hit_circuit, &[0.5, 0.0, 0.0, 0.5], None);
        let bodies = [bare(&cache, &hit_circuit), bare(&cache, &miss_circuit)];
        let keys = [VariantKey::new(0, 0, 0), VariantKey::new(1, 0, 0)];
        let keyed = Some((&cache, &bodies[..]));
        let panicking = serve(keyed, "dev", None, &keys, None, |_, _| panic!("boom"));
        let short = serve(keyed, "dev", None, &keys, None, |_, _| Vec::new());
        for (served, reason) in [(panicking, "backend panicked: boom"), (short, "returned 0")] {
            assert!(served[0].distribution.is_ok() && served[0].cached, "the hit is still served");
            match &served[1].distribution {
                Err(CoreError::BackendUnavailable { backend, reason: got }) => {
                    assert_eq!(backend, "dev");
                    assert!(got.starts_with(reason), "{got}");
                }
                other => panic!("expected BackendUnavailable, got {other:?}"),
            }
            assert_eq!((served[1].spent, served[1].cached), (0, false));
        }
        assert_eq!(cache.stats().entries, 1, "a failed circuit stores nothing");
    }

    #[test]
    fn lru_evicts_the_least_recently_touched_entry_of_a_shard() {
        // 8 values per shard: two 4-value entries fit, a third evicts one
        let cache = ResultCache::new(16 * 8);
        let body = cache.intern(&slotted(5, 0.2));
        let shard = shard_of((body.0.id, 0, 0));
        let [a, b, c]: [u64; 3] = (0..)
            .filter(|&k| shard_of((body.0.id, k, 0)) == shard)
            .take(3)
            .collect::<Vec<_>>()
            .try_into()
            .unwrap();
        let store =
            |k: u64, dist: Vec<f64>| cache.store_key(&body, (k, 0), &Arc::new(dist), Some(10));
        store(a, vec![0.25; 4]);
        store(b, vec![0.5, 0.5, 0.0, 0.0]);
        assert!(matches!(cache.lookup_key(&body, (a, 0), Some(10)), CacheLookup::Hit(_)));
        store(c, vec![0.0, 0.0, 0.5, 0.5]);
        let stats = cache.stats();
        assert_eq!((stats.evictions, stats.entries, stats.weight), (1, 2, 8));
        assert_eq!(
            cache.lookup_key(&body, (b, 0), Some(10)),
            CacheLookup::Miss,
            "B was least recently used"
        );
        assert_eq!(cache.lookup_key(&body, (a, 0), Some(10)), hit(vec![0.25; 4]));
        assert_eq!(cache.lookup_key(&body, (c, 0), Some(10)), hit(vec![0.0, 0.0, 0.5, 0.5]));
    }

    #[test]
    fn weight_never_exceeds_a_budget_that_does_not_divide_by_the_shards() {
        // 113 values over 16 shards: one share of 8 values, fifteen of 7 —
        // rounding every share up to 8 would let the shards hold 128
        let cache = ResultCache::new(113);
        for i in 0..200 {
            cache.store(&rotated(0.01 * (i + 1) as f64), &[0.25; 4], Some(10));
            assert!(cache.stats().weight <= 113, "weight over budget after store {i}");
        }
        let total: u64 = (0..ResultCache::SHARDS).map(|i| cache.shard_capacity(i)).sum();
        assert_eq!(total, 113, "shard shares must sum to the budget");
    }

    #[test]
    fn mis_sized_or_non_probability_records_are_refused() {
        let cache = ResultCache::new(1 << 16);
        let c = bell();
        for bad in [&[1.0, 0.0, 0.0][..], &[0.5, 0.5, 0.0, 0.0, 0.0], &[f64::NAN, 0.0, 0.0, 1.0]] {
            cache.store(&c, bad, None);
        }
        cache.store(&c, &[1.5, -0.5, 0.0, 0.0], None);
        cache.store(&c, &[f64::INFINITY, 0.0, 0.0, 0.0], None);
        assert_eq!(cache.lookup(&c, None), CacheLookup::Miss);
        assert_eq!(cache.stats().insertions, 0);
    }

    /// A snapshot document holding the bare `entries` verbatim, valid or
    /// not.
    fn snapshot_text(entries: &[(Circuit, Vec<f64>, Option<u64>)]) -> String {
        let mut snapshot = Snapshot::default();
        for (id, (circuit, dist, shots)) in entries.iter().enumerate() {
            let body = FragmentBody::from_circuit(circuit).unwrap();
            let place = snapshot.body(&Interned { id: id as u64, body });
            snapshot.entry(place, (0, 0), dist, *shots);
        }
        snapshot.finish()
    }

    #[test]
    fn a_snapshot_with_a_mis_sized_distribution_is_ignored() {
        let path = scratch("missized");
        let policy = ResultCachePolicy::persisted(path.to_string_lossy().to_string());
        let good = (rotated(0.7), vec![0.25; 4], None);
        for bad in [vec![1.0, 0.0, 0.0], vec![1.5, -0.5, 0.0, 0.0], vec![f64::NAN, 0.0, 0.0, 1.0]] {
            std::fs::write(&path, snapshot_text(&[good.clone(), (bell(), bad, None)])).unwrap();
            let cache = ResultCache::open(&policy);
            let stats = cache.stats();
            assert!(stats.snapshot_ignored, "an invalid entry must void the snapshot");
            assert_eq!((stats.snapshot_loaded, stats.entries), (0, 0));
            assert_eq!(cache.lookup(&bell(), None), CacheLookup::Miss);
            assert_eq!(cache.lookup(&rotated(0.7), None), CacheLookup::Miss);
        }
        // the same snapshot without the bad entry loads
        std::fs::write(&path, snapshot_text(&[good])).unwrap();
        assert_eq!(ResultCache::open(&policy).stats().snapshot_loaded, 1);
        std::fs::remove_file(&path).unwrap();
    }

    /// A `qubits`-wide CX ladder with one angle: distinct angles give
    /// structurally distinct circuits over `qubits` clbits.
    fn ladder(qubits: usize, theta: f64) -> Circuit {
        let mut c = Circuit::new(qubits);
        c.h(0);
        for q in 1..qubits {
            c.cx(q - 1, q);
        }
        c.ry(theta, qubits - 1).measure_all();
        c
    }

    /// One entry of the scan oracle.
    struct ScanEntry {
        /// Index into the test's key universe.
        variant: usize,
        distribution: Vec<f64>,
        shots: Option<u64>,
        last_used: u64,
    }

    /// The cache as it was before its recency index, kept as the oracle for
    /// it: one flat entry list per shard, whose eviction victim is found by
    /// scanning every entry of the shard for the oldest touch.
    struct ScanOracle {
        capacities: Vec<u64>,
        shards: Vec<Vec<ScanEntry>>,
        tick: u64,
        evictions: u64,
    }

    impl ScanOracle {
        fn new(cache: &ResultCache) -> Self {
            ScanOracle {
                capacities: (0..ResultCache::SHARDS).map(|i| cache.shard_capacity(i)).collect(),
                shards: (0..ResultCache::SHARDS).map(|_| Vec::new()).collect(),
                tick: 0,
                evictions: 0,
            }
        }

        fn lookup(&mut self, shard: usize, variant: usize, requested: Option<u64>) -> CacheLookup {
            self.tick += 1;
            let Some(e) = self.shards[shard].iter_mut().find(|e| e.variant == variant) else {
                return CacheLookup::Miss;
            };
            let found = match (e.shots, requested) {
                (None, _) => hit(e.distribution.clone()),
                (Some(stored), Some(r)) if stored >= r => hit(e.distribution.clone()),
                (Some(stored), Some(r)) => CacheLookup::Delta {
                    base: Arc::new(e.distribution.clone()),
                    base_shots: stored,
                    missing: r - stored,
                },
                (Some(_), None) => return CacheLookup::Miss,
            };
            e.last_used = self.tick;
            found
        }

        fn store(&mut self, shard: usize, variant: usize, dist: &[f64], shots: Option<u64>) {
            let capacity = self.capacities[shard];
            if dist.len() as u64 > capacity {
                return;
            }
            self.tick += 1;
            let serves = |shots: Option<u64>| shots.unwrap_or(u64::MAX);
            let entries = &mut self.shards[shard];
            match entries.iter_mut().find(|e| e.variant == variant) {
                Some(e) if serves(e.shots) >= serves(shots) => return,
                Some(e) => {
                    e.distribution = dist.to_vec();
                    e.shots = shots;
                    e.last_used = self.tick;
                }
                None => entries.push(ScanEntry {
                    variant,
                    distribution: dist.to_vec(),
                    shots,
                    last_used: self.tick,
                }),
            }
            while entries.iter().map(|e| e.distribution.len() as u64).sum::<u64>() > capacity {
                let victim = (0..entries.len()).min_by_key(|&i| entries[i].last_used).unwrap();
                entries.remove(victim);
                self.evictions += 1;
            }
        }
    }

    /// One held entry: key, distribution bit patterns, shots.
    type Held = (Key, Vec<u64>, Option<u64>);

    /// Every held entry as `(key, distribution bits, shots)`, sorted; and a
    /// check that each shard's recency index holds exactly its entries,
    /// each under its own tick.
    fn held_entries(cache: &ResultCache) -> Result<Vec<Held>, String> {
        let mut held = Vec::new();
        for shard in &cache.shards {
            let shard = shard.lock();
            if shard.recency.len() != shard.entries.len() {
                return Err(format!(
                    "index holds {} ticks for {} entries",
                    shard.recency.len(),
                    shard.entries.len()
                ));
            }
            for (&tick, key) in &shard.recency {
                if shard.entries.get(key).is_none_or(|e| e.last_used != tick) {
                    return Err(format!("tick {tick} indexes no entry under {key:?}"));
                }
            }
            let weight: u64 = shard.entries.values().map(Entry::weight).sum();
            if weight != shard.weight {
                return Err(format!("shard weight {} != held {weight}", shard.weight));
            }
            for (&key, e) in &shard.entries {
                let bits = e.distribution.iter().map(|v| v.to_bits()).collect();
                held.push((key, bits, e.shots));
            }
        }
        held.sort();
        Ok(held)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random store/lookup sequences on a small cache whose variants —
        /// of three bodies over 1, 2 and 3 clbits — crowd two shards: every
        /// lookup answers as the scan oracle does, the surviving entries are
        /// the oracle's, and the recency index stays exactly in step with
        /// the entries.
        #[test]
        fn recency_index_evicts_exactly_what_the_scan_did(
            ops in collection::vec(
                (any::<bool>(), 0..10usize, 0..4u64, 0..3usize),
                1..120,
            )
        ) {
            // 195 values: shards 0-2 hold 13, the rest 12
            let cache = ResultCache::new(16 * 12 + 3);
            let bodies: Vec<CachedBody> = (1..=3)
                .map(|width| {
                    let ladder = ladder(width, 0.1 * width as f64);
                    let mut skeleton: Vec<SkeletonOp> = (0..3)
                        .map(|i| SkeletonOp::Prep { place: 4u64.pow(i), qubit: QubitId::new(0) })
                        .collect();
                    skeleton.extend(ladder.operations().iter().cloned().map(SkeletonOp::Fixed));
                    let body = FragmentBody::new("l".into(), width, width, 0, 64, skeleton).unwrap();
                    cache.intern(&body)
                })
                .collect();
            let universe: Vec<(&CachedBody, u64)> = (0..64)
                .flat_map(|ordinal| bodies.iter().map(move |body| (body, ordinal)))
                .filter(|(body, ordinal)| shard_of((body.0.id, *ordinal, 0)) < 2)
                .take(10)
                .collect();
            prop_assert_eq!(universe.len(), 10);
            let mut oracle = ScanOracle::new(&cache);
            for (is_store, id, shots, variant) in ops {
                let (body, ordinal) = universe[id];
                let shard = shard_of((body.0.id, ordinal, 0));
                let shots = (shots > 0).then_some(100 * shots);
                if is_store {
                    let len = 1usize << body.body().num_clbits();
                    let dist: Vec<f64> = (0..len).map(|k| ((k + variant) % 3) as f64).collect();
                    cache.store_key(body, (ordinal, 0), &Arc::new(dist.clone()), shots);
                    oracle.store(shard, id, &dist, shots);
                } else {
                    let got = cache.lookup_key(body, (ordinal, 0), shots);
                    prop_assert_eq!(got, oracle.lookup(shard, id, shots));
                }
            }
            let held = held_entries(&cache).map_err(TestCaseError::fail)?;
            let mut expected: Vec<Held> = oracle
                .shards
                .iter()
                .flatten()
                .map(|e| {
                    let (body, ordinal) = universe[e.variant];
                    let bits = e.distribution.iter().map(|v| v.to_bits()).collect();
                    ((body.0.id, ordinal, 0), bits, e.shots)
                })
                .collect();
            expected.sort();
            prop_assert_eq!(held, expected);
            prop_assert_eq!(cache.stats().evictions, oracle.evictions);
        }
    }

    /// Opens a cache over `bytes` written to `path` and checks the loader's
    /// contract: the snapshot is ignored whole, or every entry it loaded is a
    /// distribution over its body's classical bits.
    fn open_hostile(path: &Path, bytes: &[u8]) -> Result<(), TestCaseError> {
        std::fs::write(path, bytes).unwrap();
        let policy = ResultCachePolicy::persisted(path.to_string_lossy().to_string());
        let cache = ResultCache::open(&policy);
        let stats = cache.stats();
        if stats.snapshot_ignored {
            prop_assert_eq!((stats.snapshot_loaded, stats.entries), (0, 0));
        }
        for shard in &cache.shards {
            for (&(_, ordinal, outputs), e) in &shard.lock().entries {
                let body = &e.body.body;
                prop_assert!(body.check_variant(ordinal, outputs).is_ok());
                let clbits = body.num_clbits();
                prop_assert!(clbits < 64 && e.distribution.len() == 1 << clbits);
                prop_assert!(e.distribution.iter().all(|v| v.is_finite() && *v >= 0.0));
            }
        }
        Ok(())
    }

    /// A body with every slot kind: a prep, a cut measure, a gate-cut half
    /// with locals on both sides, an output measure and a reset.
    fn every_slot() -> FragmentBody {
        let q = QubitId::new;
        let single = |gate, qubit| Operation::Single { gate, qubit };
        let skeleton = vec![
            SkeletonOp::Prep { place: 3, qubit: q(0) },
            SkeletonOp::Fixed(Operation::Two { gate: Gate::Cx, qubits: [q(0), q(1)] }),
            SkeletonOp::GateCutHalf {
                place: 12,
                half: GateHalf::Bottom,
                qubit: q(1),
                clbit: 2,
                pre: vec![single(Gate::Rz(0.25), q(1))],
                post: vec![single(Gate::H, q(1)), single(Gate::S, q(1))],
            },
            SkeletonOp::CutMeasure { place: 1, qubit: q(1), clbit: 1 },
            SkeletonOp::Fixed(Operation::Reset { qubit: q(1) }),
            SkeletonOp::OutputMeasure { shift: 0, qubit: q(0), clbit: 0 },
        ];
        FragmentBody::new("every".into(), 2, 3, 1, 72, skeleton).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Arbitrary bytes, bare or behind a valid header, never panic the
        /// loader.
        #[test]
        fn arbitrary_snapshot_bytes_never_panic_the_loader(
            bytes in collection::vec(any::<u8>(), 0..256),
            headed in any::<bool>(),
        ) {
            let path = scratch("arbitrary");
            let header = format!("{SNAPSHOT_MAGIC} v{SNAPSHOT_VERSION}\n");
            let mut text = if headed { header.into_bytes() } else { Vec::new() };
            text.extend(bytes);
            open_hostile(&path, &text)?;
            std::fs::remove_file(&path).unwrap();
        }

        /// A valid snapshot with a few bytes replaced, inserted or deleted —
        /// mostly bytes of the format's own alphabet, so mutants reach deep
        /// into the hex body decoder and the entry parser — never panics the
        /// loader.
        #[test]
        fn mutated_snapshots_never_panic_the_loader(
            mutations in collection::vec((any::<usize>(), any::<u8>(), 0..3u8), 1..6),
        ) {
            const ALPHABET: &[u8] = b"0123456789abcdef,=:; \n-.[]()qxpmotfy";
            let mut snapshot = Snapshot::default();
            let every = snapshot.body(&Interned { id: 0, body: every_slot() });
            snapshot.entry(every, (71, 2), &[0.125; 8], Some(512));
            snapshot.entry(every, (5, 0), &[0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0], None);
            for (id, (circuit, dist)) in
                [(bell(), vec![0.5, 0.0, 0.0, 0.5]), (ladder(3, 1.1), vec![0.125; 8])].iter().enumerate()
            {
                let body = FragmentBody::from_circuit(circuit).unwrap();
                let place = snapshot.body(&Interned { id: id as u64 + 1, body });
                snapshot.entry(place, (0, 0), dist, None);
            }
            let text = snapshot.finish();
            prop_assert_eq!(parse_snapshot(&text).map(|(bodies, entries)| (bodies.len(), entries.len())), Ok((3, 4)));
            let mut text = text.into_bytes();
            for (at, byte, kind) in mutations {
                let byte = if byte < 128 { ALPHABET[byte as usize % ALPHABET.len()] } else { byte };
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
            let path = scratch("mutated");
            open_hostile(&path, &text)?;
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let cache = ResultCache::new(0);
        let c = bell();
        cache.store(&c, &[0.5, 0.0, 0.0, 0.5], Some(100));
        assert_eq!(cache.lookup(&c, Some(10)), CacheLookup::Miss);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn structural_keying_ignores_names_but_not_structure() {
        let cache = ResultCache::new(1 << 16);
        let c = bell();
        cache.store(&c, &[0.5, 0.0, 0.0, 0.5], None);
        let mut renamed = bell();
        renamed.set_name("same_structure_other_name");
        assert!(matches!(cache.lookup(&renamed, None), CacheLookup::Hit(_)));
        assert_eq!(cache.lookup(&rotated(0.3), None), CacheLookup::Miss);
    }

    #[test]
    fn a_bare_circuit_round_trips_through_lookup_and_store() {
        // the bare front is the keyed one: the circuit is variant (0, 0) of
        // its own fixed-operation body, and a variant of another body that
        // instantiates to the same circuit is another key
        let cache = ResultCache::new(1 << 16);
        let circuit = ladder(2, 0.4);
        let body = FragmentBody::from_circuit(&circuit).unwrap();
        assert!(body.instantiate(0, 0).structurally_equal(&circuit));
        cache.store(&circuit, &[0.25; 4], Some(64));
        let handle = bare(&cache, &circuit);
        assert_eq!(cache.lookup_key(&handle, (0, 0), Some(64)), hit(vec![0.25; 4]));
        cache.store_key(&handle, (0, 0), &Arc::new(vec![0.5, 0.5, 0.0, 0.0]), None);
        assert_eq!(cache.lookup(&circuit, Some(64)), hit(vec![0.5, 0.5, 0.0, 0.0]));
        let mut prepped = vec![SkeletonOp::Prep { place: 1, qubit: QubitId::new(0) }];
        prepped.extend(circuit.operations().iter().cloned().map(SkeletonOp::Fixed));
        let keyed = cache.intern(&FragmentBody::new("k".into(), 2, 2, 0, 4, prepped).unwrap());
        assert!(keyed.body().instantiate(0, 0).structurally_equal(&circuit));
        assert_eq!(cache.lookup_key(&keyed, (0, 0), None), CacheLookup::Miss);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn persistence_round_trips_bit_exactly() {
        let path = scratch("roundtrip");
        let policy =
            ResultCachePolicy::persisted(path.to_string_lossy().to_string()).with_capacity(1 << 16);
        let cache = ResultCache::open(&policy);
        let dist = vec![0.123_456_789_012_345, 0.3, 0.0, 1.0 - 0.123_456_789_012_345 - 0.3];
        cache.store(&bell(), &dist, Some(4_321));
        cache.store(&rotated(1.234_567_890_123), &[0.25; 4], None);
        cache.persist().unwrap();

        let restarted = ResultCache::open(&policy);
        let stats = restarted.stats();
        assert_eq!(stats.snapshot_loaded, 2);
        assert!(!stats.snapshot_ignored);
        assert_eq!(restarted.lookup(&bell(), Some(4_321)), hit(dist));
        assert!(matches!(restarted.lookup(&rotated(1.234_567_890_123), None), CacheLookup::Hit(_)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_snapshot_stores_each_body_once_and_reloads_its_keys_exactly() {
        let path = scratch("keyed");
        let policy = ResultCachePolicy::persisted(path.to_string_lossy().to_string());
        let cache = ResultCache::open(&policy);
        let body = cache.intern(&every_slot());
        let stored = [(0, 0), (71, 2), (36, 1)];
        for (i, &variant) in stored.iter().enumerate() {
            let mut dist = vec![0.0; 8];
            dist[i] = 1.0;
            cache.store_key(&body, variant, &Arc::new(dist), Some(100 + i as u64));
        }
        cache.persist().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("QRCC-RESULT-CACHE v3\n"), "{text}");
        assert_eq!(text.lines().filter(|line| line.starts_with("body ")).count(), 1, "{text}");
        assert_eq!(text.lines().filter(|line| line.starts_with("entry ")).count(), 3);

        let restarted = ResultCache::open(&policy);
        assert_eq!(restarted.stats().snapshot_loaded, 3);
        let reloaded = restarted.intern(&every_slot());
        for (i, &variant) in stored.iter().enumerate() {
            let CacheLookup::Hit(served) = restarted.lookup_key(&reloaded, variant, Some(100))
            else {
                panic!("{variant:?} was persisted")
            };
            assert_eq!(served[i], 1.0);
        }
        for other in [(0, 1), (1, 0), (70, 2)] {
            assert_eq!(restarted.lookup_key(&reloaded, other, None), CacheLookup::Miss);
        }
        assert!(reloaded.body().structurally_equal(&every_slot()), "the layout round-trips");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn version_mismatch_is_ignored_not_fatal() {
        let path = scratch("version");
        std::fs::write(&path, "QRCC-RESULT-CACHE v999\nentry shots=exact dist=0 qasm_lines=0\n")
            .unwrap();
        let policy = ResultCachePolicy::persisted(path.to_string_lossy().to_string());
        let cache = ResultCache::open(&policy);
        let stats = cache.stats();
        assert!(stats.snapshot_ignored);
        assert_eq!(stats.entries, 0);
        // garbage is equally non-fatal
        std::fs::write(&path, "not a snapshot at all").unwrap();
        assert!(ResultCache::open(&policy).stats().snapshot_ignored);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_version_1_snapshot_is_ignored() {
        // the circuit-addressed format this one replaced: valid as it was
        // written, it no longer loads
        let path = scratch("v1");
        let qasm = qrcc_circuit::qasm::to_qasm(&bell());
        let v1 = format!(
            "QRCC-RESULT-CACHE v1\nentry shots=exact dist={} qasm_lines={}\n{qasm}",
            ["3fe0000000000000", "0000000000000000", "0000000000000000", "3fe0000000000000"]
                .join(","),
            qasm.lines().count()
        );
        std::fs::write(&path, v1).unwrap();
        let cache = ResultCache::open(&ResultCachePolicy::persisted(path.to_string_lossy()));
        let stats = cache.stats();
        assert!(stats.snapshot_ignored);
        assert_eq!((stats.snapshot_loaded, stats.entries), (0, 0));
        assert_eq!(cache.lookup(&bell(), None), CacheLookup::Miss);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_version_2_snapshot_is_ignored() {
        // the layout-plus-OpenQASM body format this one replaced: valid as
        // it was written, it no longer loads
        let path = scratch("v2");
        let v2 = "QRCC-RESULT-CACHE v2\n\
                  body outputs=0 variants=1 layout=f,f,f,f qasm_lines=8\n\
                  OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n\
                  h q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n\
                  entry body=0 ordinal=0 outputs=0 shots=exact \
                  dist=3fe0000000000000,0000000000000000,0000000000000000,3fe0000000000000\n";
        std::fs::write(&path, v2).unwrap();
        let cache = ResultCache::open(&ResultCachePolicy::persisted(path.to_string_lossy()));
        let stats = cache.stats();
        assert!(stats.snapshot_ignored);
        assert_eq!((stats.snapshot_loaded, stats.entries), (0, 0));
        assert_eq!(cache.lookup(&bell(), None), CacheLookup::Miss);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_snapshot_body_is_the_wire_encoding_and_reloads_every_variant() {
        use crate::planner::CutPlanner;
        use crate::QrccConfig;
        // wire cuts only, and wire plus gate cuts: every skeleton kind
        let mut chain = Circuit::new(5);
        chain.h(0).cx(0, 1).cx(1, 2).rz(0.3, 2).cx(2, 3).cx(3, 4);
        let (qaoa, _) = qrcc_circuit::generators::qaoa_regular(6, 3, 1, 11);
        let plans = [(chain, QrccConfig::new(3)), (qaoa, QrccConfig::new(4).with_gate_cuts(true))];
        let mut snapshot = Snapshot::default();
        let mut bodies = Vec::new();
        for (circuit, config) in plans {
            let config =
                config.with_subcircuit_range(2, 3).with_ilp_time_limit(std::time::Duration::ZERO);
            let plan = CutPlanner::new(config).plan(&circuit).unwrap();
            for fragment in crate::fragment::FragmentSet::from_plan(&plan).unwrap().fragments {
                let body = fragment.body().clone();
                snapshot.body(&Interned { id: bodies.len() as u64, body: body.clone() });
                bodies.push(body);
            }
        }
        let gate_cut = |op: &SkeletonOp| matches!(op, SkeletonOp::GateCutHalf { .. });
        assert!(bodies.iter().any(|body| body.skeleton().iter().any(gate_cut)));
        let text = snapshot.finish();
        let lines: Vec<&str> = text.lines().filter(|line| line.starts_with("body ")).collect();
        let (reloaded, _) = parse_snapshot(&text).unwrap();
        assert_eq!((lines.len(), reloaded.len()), (bodies.len(), bodies.len()));
        for ((body, line), decoded) in bodies.iter().zip(lines).zip(&reloaded) {
            let mut encoded = Vec::new();
            body.encode(&mut encoded);
            assert_eq!(unhex(&line["body ".len()..]), Some(encoded), "{}", body.name());
            assert_eq!(decoded, body);
            for ordinal in 0..body.variant_count() {
                assert_eq!(decoded.instantiate(ordinal, 0), body.instantiate(ordinal, 0));
            }
        }
    }

    #[test]
    fn policy_serde_round_trips() {
        let policy = ResultCachePolicy::persisted("/tmp/cache.snap").with_capacity(1 << 10);
        let json = serde_json_like(&policy);
        assert_eq!(json.capacity, 1 << 10);
        assert_eq!(json.persist_path.as_deref(), Some("/tmp/cache.snap"));
        assert_eq!(ResultCachePolicy::default(), ResultCachePolicy::in_memory());
    }

    /// The vendored serde shim has no serde_json; clone-compare stands in
    /// for a full round trip (derive coverage is what matters).
    fn serde_json_like(policy: &ResultCachePolicy) -> ResultCachePolicy {
        policy.clone()
    }
}
