//! Sharded LRU query cache for the search service.
//!
//! Production query streams are heavily skewed (the §5.2 log analysis:
//! a handful of template shapes dominate), so the engine memoizes whole
//! result lists keyed by `(normalized query, k)`. Keys shard across
//! independently locked maps so concurrent readers on different shards
//! never contend.
//!
//! **Lookup.** A lookup borrows the query, hashes `(query, k)` once and
//! allocates nothing of its own. Three bits of that hash pick the shard —
//! bits the shard's table does not index by — and the whole hash keys an
//! identity-hashed map, so the string is never hashed a second time. Each
//! entry stores its `(query, k)` and every probe compares them: two keys
//! sharing a hash share a slot, where a lookup of the one that is not
//! resident is a miss and its insert replaces the other — never a wrong
//! answer. The hash is SipHash under a fixed key, so which shard a query
//! lands in (and with it every hit, miss and eviction of a serial request
//! sequence) repeats from run to run; what a crafted set of queries can
//! cost is bounded by the shard capacity, and a full 64-bit collision only
//! ever costs a miss.
//!
//! **Invalidation.** Click feedback changes scores, so every cached entry
//! is stamped with the [`crate::feedback::FeedbackStore`] generation it was
//! computed under. A lookup whose generation no longer matches is treated
//! as a miss and the stale entry is dropped — this covers writers that
//! reach the store directly, while [`crate::QunitSearchEngine::record_click`]
//! additionally clears the cache eagerly to release memory.
//!
//! **Key space.** Keys are `(normalized query, k)` and nothing else — in
//! particular they do **not** include [`crate::EngineConfig::search_shards`]
//! or any other execution-plan knob. That is deliberate and load-bearing:
//! the sharded query path guarantees bit-identical result lists at every
//! shard count, so an entry computed under one shard layout is equally
//! valid under any other, and no capacity is wasted on duplicate entries
//! per plan. Do not add an execution parameter to the key unless it can
//! change the *result*; conversely, any config knob that changes results
//! must either enter the key or (like feedback) bump a generation.
//!
//! Hit/miss counters are plain atomics so benches (and operators) can read
//! throughput-relevant stats without taking any shard lock.

use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of independently locked shards. A small fixed power of two keeps
/// shard selection a mask-free modulo and is plenty for CPU-count threads.
const NUM_SHARDS: usize = 8;

/// Where the shard-picking bits sit in the key hash. The standard table
/// takes its bucket from the low bits and its control byte from the top
/// seven, so bits 32..35 are free until a shard holds 2³² buckets; picking
/// the shard from the low bits instead would leave seven of every eight
/// buckets of each shard's table unused.
const SHARD_SHIFT: u32 = 32;

/// Counters snapshot (see [`QueryCache::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the engine (including stale entries).
    pub misses: u64,
    /// Entries currently resident across all shards.
    pub entries: usize,
}

/// SipHash of `(query, k)` under the fixed default key.
fn key_hash(query: &str, k: usize) -> u64 {
    let mut h = DefaultHasher::new();
    (query, k).hash(&mut h);
    h.finish()
}

/// Hasher of the shard tables, whose keys are already hashes.
#[derive(Debug, Default)]
struct Identity(u64);

impl Hasher for Identity {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("shard tables are keyed by u64");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

#[derive(Debug)]
struct Entry<V> {
    /// The key, compared on every probe: the table only knows its hash.
    query: String,
    k: usize,
    /// Feedback generation the value was computed under.
    generation: u64,
    /// Shard-local recency stamp (larger = more recently used).
    used: u64,
    value: V,
}

#[derive(Debug)]
struct Shard<V> {
    /// Key hash → entry.
    map: HashMap<u64, Entry<V>, BuildHasherDefault<Identity>>,
    /// Monotonic recency clock for this shard.
    clock: u64,
}

impl<V> Default for Shard<V> {
    fn default() -> Self {
        Shard {
            map: HashMap::default(),
            clock: 0,
        }
    }
}

/// A sharded, generation-checked LRU cache from `(query, k)` to a cloneable
/// value (the engine stores full result lists).
#[derive(Debug)]
pub struct QueryCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    /// Maximum entries per shard; 0 disables the cache entirely.
    shard_capacity: usize,
    /// [`key_hash`], except in the tests that force two keys onto one hash.
    hash: fn(&str, usize) -> u64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V: Clone> QueryCache<V> {
    /// Cache holding up to `capacity` entries total (rounded up to a
    /// multiple of the shard count). `capacity == 0` disables caching:
    /// every lookup misses without counting, every insert is a no-op.
    pub fn new(capacity: usize) -> Self {
        let shard_capacity = capacity.div_ceil(NUM_SHARDS);
        QueryCache {
            shards: (0..NUM_SHARDS)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            shard_capacity: if capacity == 0 { 0 } else { shard_capacity },
            hash: key_hash,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// True iff the cache can hold anything.
    pub fn is_enabled(&self) -> bool {
        self.shard_capacity > 0
    }

    /// The key's hash and the index of the shard it selects.
    fn route(&self, query: &str, k: usize) -> (u64, usize) {
        let hash = (self.hash)(query, k);
        (hash, (hash >> SHARD_SHIFT) as usize % NUM_SHARDS)
    }

    /// Look up `(query, k)` computed under feedback generation `generation`.
    /// An entry from an older generation is stale: it is evicted and the
    /// lookup counts as a miss.
    pub fn get(&self, query: &str, k: usize, generation: u64) -> Option<V> {
        if !self.is_enabled() {
            return None;
        }
        let (hash, shard) = self.route(query, k);
        let mut shard = self.shards[shard].lock();
        // Tick the recency clock up front (a miss consuming a tick is
        // harmless — the clock only needs to be monotonic) so the hit fast
        // path is a single map lookup: bump-and-clone through one
        // `get_mut`, with the second lookup (`remove`) paid only by the
        // rare stale-generation case.
        shard.clock += 1;
        let clock = shard.clock;
        let value = match shard.map.get_mut(&hash) {
            Some(e) if e.k == k && e.query == query => {
                if e.generation == generation {
                    e.used = clock;
                    Some(e.value.clone())
                } else {
                    shard.map.remove(&hash);
                    None
                }
            }
            // Absent, or the slot holds another key with this hash.
            _ => None,
        };
        let counter = if value.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// Insert a value computed under `generation`, evicting the
    /// least-recently-used entry of the target shard when it is full.
    pub fn insert(&self, query: String, k: usize, generation: u64, value: V) {
        if !self.is_enabled() {
            return;
        }
        let (hash, shard) = self.route(&query, k);
        let mut shard = self.shards[shard].lock();
        if shard.map.len() >= self.shard_capacity && !shard.map.contains_key(&hash) {
            // O(shard) scan; shards are small and eviction is off the read
            // fast path, so a linked-list LRU would be complexity for nothing.
            let lru = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.used)
                .map(|(h, _)| *h);
            if let Some(lru) = lru {
                shard.map.remove(&lru);
            }
        }
        shard.clock += 1;
        let used = shard.clock;
        // Replaces the key's own older entry, or another key's on a hash
        // collision.
        shard.map.insert(
            hash,
            Entry {
                query,
                k,
                generation,
                used,
                value,
            },
        );
    }

    /// Drop every entry (counters are preserved).
    pub fn invalidate_all(&self) {
        for shard in &self.shards {
            shard.lock().map.clear();
        }
    }

    /// Current counters and residency.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.shards.iter().map(|s| s.lock().map.len()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert_miss_before() {
        let c: QueryCache<Vec<u32>> = QueryCache::new(16);
        assert_eq!(c.get("q", 5, 0), None);
        c.insert("q".into(), 5, 0, vec![1, 2]);
        assert_eq!(c.get("q", 5, 0), Some(vec![1, 2]));
        // same query, different k is a distinct key
        assert_eq!(c.get("q", 3, 0), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 1));
    }

    #[test]
    fn stale_generation_is_a_miss_and_evicts() {
        let c: QueryCache<u8> = QueryCache::new(16);
        c.insert("q".into(), 1, 7, 42);
        assert_eq!(c.get("q", 1, 8), None, "newer generation must miss");
        assert_eq!(c.stats().entries, 0, "stale entry dropped");
        assert_eq!(c.get("q", 1, 7), None, "stale entry must not resurrect");
    }

    #[test]
    fn capacity_bounds_total_residency() {
        // Single-entry shards: every insert into an occupied shard evicts.
        let c: QueryCache<u8> = QueryCache::new(NUM_SHARDS);
        for i in 0..4 * NUM_SHARDS {
            c.insert(format!("q{i}"), 0, 0, i as u8);
        }
        assert!(c.stats().entries <= NUM_SHARDS);
    }

    #[test]
    fn lru_evicts_least_recently_used_within_shard() {
        // Two-entry shards; probe the (private) shard router for three keys
        // that collide on one shard so the recency policy is observable.
        let c: QueryCache<u8> = QueryCache::new(2 * NUM_SHARDS);
        let target = c.route("seed", 0).1;
        let colliding: Vec<String> = (0..1000)
            .map(|i| format!("q{i}"))
            .filter(|q| c.route(q, 0).1 == target)
            .take(3)
            .collect();
        let [a, b, d] = colliding.as_slice() else {
            panic!("shard router failed to collide 3 of 1000 keys");
        };
        c.insert("seed".into(), 0, 0, 0);
        c.insert(a.clone(), 0, 0, 1);
        // evicts "seed" (the shard holds 2); then touch `a` so `b` is LRU
        c.insert(b.clone(), 0, 0, 2);
        assert_eq!(c.get(a, 0, 0), Some(1));
        c.insert(d.clone(), 0, 0, 3);
        assert_eq!(c.get(a, 0, 0), Some(1), "recently used entry survives");
        assert_eq!(c.get(b, 0, 0), None, "least recently used is the victim");
        assert_eq!(c.get(d, 0, 0), Some(3));
    }

    #[test]
    fn keys_sharing_a_hash_never_answer_for_each_other() {
        let c: QueryCache<u8> = QueryCache {
            hash: |_, _| 7,
            ..QueryCache::new(16)
        };
        c.insert("a".into(), 1, 0, 1);
        assert_eq!(
            c.get("b", 1, 0),
            None,
            "b is not resident: a holds the slot"
        );
        assert_eq!(c.get("a", 2, 0), None, "same query, other k, same hash");
        assert_eq!(c.get("a", 1, 0), Some(1), "a survives b's misses");
        c.insert("b".into(), 1, 0, 2);
        assert_eq!(c.get("a", 1, 0), None, "b's insert replaced a");
        assert_eq!(c.get("b", 1, 0), Some(2));
        // A stale generation evicts only the entry whose key it is.
        assert_eq!(c.get("a", 1, 1), None);
        assert_eq!(c.stats().entries, 1, "a's stale lookup leaves b alone");
        assert_eq!(c.get("b", 1, 1), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 5, 0));
    }

    /// The cache against the plain map it replaced: `(query, k)` keys, the
    /// same per-shard clock and LRU rule, over a seeded random sequence of
    /// every operation. Two-entry shards and 24 keys keep evictions, stale
    /// generations and replacements all frequent.
    #[test]
    fn matches_a_plain_map_model_step_by_step() {
        struct ModelEntry {
            shard: usize,
            generation: u64,
            used: u64,
            value: u64,
        }
        let c: QueryCache<u64> = QueryCache::new(2 * NUM_SHARDS);
        let mut model: HashMap<(String, usize), ModelEntry> = HashMap::new();
        let mut clocks = [0u64; NUM_SHARDS];
        let (mut hits, mut misses) = (0u64, 0u64);
        // splitmix64
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |below: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % below
        };
        let mut generation = 0u64;
        for step in 0..20_000u64 {
            let query = format!("q{}", next(8));
            let k = [1, 5, 10][next(3) as usize];
            let shard = c.route(&query, k).1;
            let key = (query.clone(), k);
            match next(100) {
                0 => {
                    c.invalidate_all();
                    model.clear();
                }
                1..=4 => generation += 1,
                5..=39 => {
                    if model.values().filter(|e| e.shard == shard).count() >= 2
                        && !model.contains_key(&key)
                    {
                        let lru = model
                            .iter()
                            .filter(|(_, e)| e.shard == shard)
                            .min_by_key(|(_, e)| e.used)
                            .map(|(key, _)| key.clone())
                            .expect("the shard is full");
                        model.remove(&lru);
                    }
                    clocks[shard] += 1;
                    let entry = ModelEntry {
                        shard,
                        generation,
                        used: clocks[shard],
                        value: step,
                    };
                    model.insert(key, entry);
                    c.insert(query, k, generation, step);
                }
                _ => {
                    // Mostly the current generation, sometimes the last one.
                    let asked = generation - u64::from(generation > 0 && next(10) == 0);
                    clocks[shard] += 1;
                    let expected = match model.get_mut(&key) {
                        Some(e) if e.generation == asked => {
                            e.used = clocks[shard];
                            Some(e.value)
                        }
                        Some(_) => {
                            model.remove(&key);
                            None
                        }
                        None => None,
                    };
                    if expected.is_some() {
                        hits += 1;
                    } else {
                        misses += 1;
                    }
                    assert_eq!(c.get(&query, k, asked), expected, "step {step}");
                }
            }
            let s = c.stats();
            assert_eq!(
                (s.hits, s.misses, s.entries),
                (hits, misses, model.len()),
                "step {step}"
            );
        }
        assert!(
            hits > 1_000 && misses > 1_000,
            "{hits} hits, {misses} misses"
        );
    }

    #[test]
    fn invalidate_all_clears_but_keeps_counters() {
        let c: QueryCache<u8> = QueryCache::new(8);
        c.insert("q".into(), 1, 0, 9);
        assert_eq!(c.get("q", 1, 0), Some(9));
        c.invalidate_all();
        assert_eq!(c.get("q", 1, 0), None);
        let s = c.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn zero_capacity_disables_everything() {
        let c: QueryCache<u8> = QueryCache::new(0);
        assert!(!c.is_enabled());
        c.insert("q".into(), 1, 0, 9);
        assert_eq!(c.get("q", 1, 0), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
    }

    #[test]
    fn concurrent_mixed_use_is_safe() {
        use std::sync::Arc;
        let c: Arc<QueryCache<usize>> = Arc::new(QueryCache::new(64));
        let mut handles = Vec::new();
        for t in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..200 {
                    let q = format!("q{}", (t + i) % 16);
                    if let Some(v) = c.get(&q, 10, 0) {
                        assert_eq!(v, (t + i) % 16);
                    } else {
                        c.insert(q, 10, 0, (t + i) % 16);
                    }
                    if i % 50 == 0 {
                        c.invalidate_all();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 8 * 200);
    }
}
