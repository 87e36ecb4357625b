//! The sharded L2 diagram cache: ARC replacement, one mutex per shard.
//!
//! Keys are pattern [`Fingerprint`]s; values are [`Arc`]s of immutable
//! [`CompiledEntry`]s whose rendered artifacts materialize lazily per
//! format. Each shard is one `Mutex<Shard>` around the map and the
//! **ARC** (adaptive replacement) lists: resident `T1` (seen once) and
//! `T2` (seen again), ghost `B1`/`B2` remembering recently evicted keys,
//! and the adaptation target `p`. ARC is scan-resistant: a sequential
//! sweep of one-shot keys churns through `T1` while the re-referenced hot
//! set stays in `T2`, and ghost hits steer `p` toward whichever half the
//! workload actually re-references.
//!
//! Every operation holds its shard's lock for a hash lookup plus O(1)
//! list surgery. A hit counts itself and promotes the entry to `T2` MRU
//! at once (ARC's own per-access rule); an insert runs the ARC miss
//! algorithm. Callers leave with an `Arc` clone, so rendering and reply
//! serialization never run under the lock.

use crate::compile::CompiledEntry;
use crate::fingerprint::Fingerprint;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Cache configuration.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Total entries across all shards.
    pub capacity: usize,
    /// Number of independent shards.
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 4096,
            shards: 16,
        }
    }
}

/// Aggregated counters across all shards. Each shard is read under its
/// lock, so a shard's figures can never tear against an in-flight
/// eviction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub entries: usize,
    pub capacity: usize,
    pub shards: usize,
}

impl CacheStats {
    /// Hits over lookups, `None` before the first lookup.
    pub fn hit_rate(&self) -> Option<f64> {
        let lookups = self.hits + self.misses;
        (lookups > 0).then(|| self.hits as f64 / lookups as f64)
    }
}

const NIL: usize = usize::MAX;

/// ARC list ids. `T1`/`T2` hold residents (key and value); `B1`/`B2`
/// hold ghosts (key only).
const T1: usize = 0;
const T2: usize = 1;
const B1: usize = 2;
const B2: usize = 3;

struct Node {
    key: u128,
    /// `Some` for residents, `None` for ghosts.
    value: Option<Arc<CompiledEntry>>,
    list: usize,
    prev: usize,
    next: usize,
}

#[derive(Clone, Copy)]
struct ListHead {
    head: usize,
    tail: usize,
    len: usize,
}

impl ListHead {
    const fn new() -> ListHead {
        ListHead {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }
}

/// One shard's state: the ARC lists over a slab, and its counters.
struct Shard {
    map: HashMap<u128, usize>,
    slab: Vec<Node>,
    free: Vec<usize>,
    lists: [ListHead; 4],
    /// ARC's adaptation target for `|T1|`.
    p: usize,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard {
            map: HashMap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            lists: [ListHead::new(); 4],
            p: 0,
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (list, prev, next) = {
            let n = &self.slab[idx];
            (n.list, n.prev, n.next)
        };
        if prev == NIL {
            self.lists[list].head = next;
        } else {
            self.slab[prev].next = next;
        }
        if next == NIL {
            self.lists[list].tail = prev;
        } else {
            self.slab[next].prev = prev;
        }
        self.lists[list].len -= 1;
    }

    /// Push `idx` at the MRU (head) end of `list`.
    fn push_mru(&mut self, list: usize, idx: usize) {
        let head = self.lists[list].head;
        {
            let n = &mut self.slab[idx];
            n.list = list;
            n.prev = NIL;
            n.next = head;
        }
        if head != NIL {
            self.slab[head].prev = idx;
        }
        self.lists[list].head = idx;
        if self.lists[list].tail == NIL {
            self.lists[list].tail = idx;
        }
        self.lists[list].len += 1;
    }

    fn alloc(&mut self, node: Node) -> usize {
        match self.free.pop() {
            Some(idx) => {
                self.slab[idx] = node;
                idx
            }
            None => {
                self.slab.push(node);
                self.slab.len() - 1
            }
        }
    }

    /// Delete a ghost node entirely (its key is forgotten).
    fn drop_ghost(&mut self, idx: usize) {
        debug_assert!(self.slab[idx].value.is_none());
        self.unlink(idx);
        let key = self.slab[idx].key;
        self.map.remove(&key);
        self.free.push(idx);
    }

    fn resident_len(&self) -> usize {
        self.lists[T1].len + self.lists[T2].len
    }

    /// The slab index of `key` if it is resident (a ghost is not).
    fn resident(&self, key: u128) -> Option<usize> {
        self.map
            .get(&key)
            .copied()
            .filter(|&idx| self.slab[idx].value.is_some())
    }

    /// ARC hit: promote a resident to `T2` MRU.
    fn promote(&mut self, idx: usize) {
        self.unlink(idx);
        self.push_mru(T2, idx);
    }

    /// A counted lookup: a hit promotes the entry.
    fn get(&mut self, key: u128) -> Option<Arc<CompiledEntry>> {
        let Some(idx) = self.resident(key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.promote(idx);
        self.slab[idx].value.clone()
    }

    /// ARC REPLACE: demote one resident to its ghost list, dropping its
    /// value. Returns the demoted key.
    fn replace(&mut self, in_b2: bool) -> Option<u128> {
        let t1 = self.lists[T1].len;
        let from = if t1 >= 1 && ((in_b2 && t1 == self.p) || t1 > self.p) {
            T1
        } else if self.lists[T2].len >= 1 {
            T2
        } else if t1 >= 1 {
            T1
        } else {
            return None;
        };
        let victim = self.lists[from].tail;
        debug_assert_ne!(victim, NIL);
        self.unlink(victim);
        let ghost_list = if from == T1 { B1 } else { B2 };
        self.slab[victim].value = None;
        self.push_mru(ghost_list, victim);
        self.evictions += 1;
        Some(self.slab[victim].key)
    }

    /// Case IV(A) with `B1` empty: the `T1` LRU leaves the cache without
    /// a ghost. Returns its key.
    fn evict_outright(&mut self) -> u128 {
        let victim = self.lists[T1].tail;
        debug_assert_ne!(victim, NIL);
        self.unlink(victim);
        let key = self.slab[victim].key;
        self.slab[victim].value = None;
        self.map.remove(&key);
        self.free.push(victim);
        self.evictions += 1;
        key
    }

    /// Insert, running the ARC miss algorithm. Returns the resident entry
    /// and the key of the resident this insert pushed out of residency,
    /// if any.
    fn insert(
        &mut self,
        key: u128,
        value: Arc<CompiledEntry>,
    ) -> (Arc<CompiledEntry>, Option<u128>) {
        if let Some(&idx) = self.map.get(&key) {
            if let Some(incumbent) = self.slab[idx].value.clone() {
                // Racing compilers can insert the same fingerprint twice;
                // keep the incumbent (first insert wins), refresh recency.
                self.promote(idx);
                return (incumbent, None);
            }
            // Ghost hit: adapt p, make room, resurrect as a T2 resident.
            let in_b2 = self.slab[idx].list == B2;
            let (b1, b2) = (self.lists[B1].len, self.lists[B2].len);
            if in_b2 {
                self.p = self.p.saturating_sub((b1 / b2.max(1)).max(1));
            } else {
                self.p = (self.p + (b2 / b1.max(1)).max(1)).min(self.capacity);
            }
            let evicted = self.replace(in_b2);
            self.unlink(idx);
            self.slab[idx].value = Some(Arc::clone(&value));
            self.push_mru(T2, idx);
            return (value, evicted);
        }

        // Fresh miss: ARC case IV.
        let l1 = self.lists[T1].len + self.lists[B1].len;
        let total = l1 + self.lists[T2].len + self.lists[B2].len;
        let evicted = if l1 == self.capacity {
            if self.lists[T1].len < self.capacity {
                let ghost = self.lists[B1].tail;
                self.drop_ghost(ghost);
                self.replace(false)
            } else {
                // B1 empty and T1 full: evict the T1 LRU outright — it
                // leaves no ghost behind.
                Some(self.evict_outright())
            }
        } else if total >= self.capacity {
            if total == 2 * self.capacity {
                let ghost = self.lists[B2].tail;
                self.drop_ghost(ghost);
            }
            self.replace(false)
        } else {
            None
        };
        let idx = self.alloc(Node {
            key,
            value: Some(Arc::clone(&value)),
            list: T1,
            prev: NIL,
            next: NIL,
        });
        self.map.insert(key, idx);
        self.push_mru(T1, idx);
        (value, evicted)
    }
}

/// The sharded cache.
pub struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
}

impl ShardedCache {
    pub fn new(config: CacheConfig) -> ShardedCache {
        let shards = config.shards.max(1);
        // Distribute capacity across shards, at least one entry each.
        let per_shard = config.capacity.div_ceil(shards).max(1);
        ShardedCache {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
        }
    }

    fn shard(&self, fingerprint: Fingerprint) -> MutexGuard<'_, Shard> {
        self.shards[fingerprint.shard(self.shards.len())]
            .lock()
            .expect("cache shard poisoned")
    }

    /// Look up a fingerprint, recording recency. Counts a hit or a miss.
    pub fn get(&self, fingerprint: Fingerprint) -> Option<Arc<CompiledEntry>> {
        self.shard(fingerprint).get(fingerprint.0)
    }

    /// Insert a compiled entry, demoting a resident per ARC if full.
    /// Returns the entry now resident under the key: if racing compilers
    /// insert the same fingerprint, the incumbent is kept and returned, so
    /// every caller ends up serving the same entry.
    pub fn insert(
        &self,
        fingerprint: Fingerprint,
        value: Arc<CompiledEntry>,
    ) -> Arc<CompiledEntry> {
        self.insert_reporting(fingerprint, value).0
    }

    /// [`ShardedCache::insert`] that also reports the fingerprint this
    /// insert evicted from residency, if any — the hook the service uses
    /// to invalidate L1 memo entries the moment their L2 entry stops
    /// being servable (a key demoted to a ghost list is *not* servable;
    /// ghosts only remember history).
    pub fn insert_reporting(
        &self,
        fingerprint: Fingerprint,
        value: Arc<CompiledEntry>,
    ) -> (Arc<CompiledEntry>, Option<Fingerprint>) {
        let (resident, evicted) = self.shard(fingerprint).insert(fingerprint.0, value);
        (resident, evicted.map(Fingerprint))
    }

    /// Look up without touching recency or counters. Used where a lookup
    /// is a consistency re-check rather than request traffic (e.g. the
    /// owner's post-claim re-check in the in-flight path).
    pub fn peek(&self, fingerprint: Fingerprint) -> Option<Arc<CompiledEntry>> {
        let shard = self.shard(fingerprint);
        let idx = shard.resident(fingerprint.0)?;
        shard.slab[idx].value.clone()
    }

    /// Peek without touching recency or counters (used by tests/stats).
    pub fn contains(&self, fingerprint: Fingerprint) -> bool {
        self.peek(fingerprint).is_some()
    }

    /// Aggregate counters across shards, locking each shard in turn.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats {
            shards: self.shards.len(),
            ..CacheStats::default()
        };
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard poisoned");
            stats.hits += shard.hits;
            stats.misses += shard.misses;
            stats.evictions += shard.evictions;
            stats.entries += shard.resident_len();
            stats.capacity += shard.capacity;
        }
        stats
    }

    /// The representative SQL of every resident entry, shard by shard —
    /// the warm-cache persistence hook: recompiling these texts in a
    /// fresh process reproduces the cache's diagram set (entries are pure
    /// functions of their representative's text). Takes each shard's
    /// lock briefly; order is unspecified.
    pub fn representatives(&self) -> Vec<Arc<str>> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for node in &shard.slab {
                if let Some(value) = &node.value {
                    out.push(Arc::clone(value.representative_shared()));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_representative;
    use crate::fingerprint::fingerprint_sql;
    use queryvis::QueryVisOptions;

    fn entry(sql: &str) -> (Fingerprint, Arc<CompiledEntry>) {
        let fq = fingerprint_sql(sql, QueryVisOptions::default()).unwrap();
        let fp = fq.fingerprint;
        (fp, Arc::new(compile_representative(fq)))
    }

    fn synthetic_key(i: u64) -> Fingerprint {
        Fingerprint(u128::from(i) << 64 | u128::from(i))
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = ShardedCache::new(CacheConfig::default());
        let (fp, value) = entry("SELECT T.a FROM T");
        assert!(cache.get(fp).is_none());
        cache.insert(fp, value);
        assert!(cache.get(fp).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.hit_rate(), Some(0.5));
    }

    #[test]
    fn recently_hit_entry_survives_eviction_pressure() {
        // Single shard of capacity 2 so recency order is easy to steer.
        let cache = ShardedCache::new(CacheConfig {
            capacity: 2,
            shards: 1,
        });
        let (_, value) = entry("SELECT T.a FROM T");
        let (a, b, c) = (synthetic_key(1), synthetic_key(2), synthetic_key(3));
        cache.insert(a, Arc::clone(&value));
        cache.insert(b, Arc::clone(&value));
        // Touch `a` so `b` is the replacement victim.
        assert!(cache.get(a).is_some());
        cache.insert(c, Arc::clone(&value));
        assert!(cache.contains(a));
        assert!(!cache.contains(b), "b was never re-referenced: demoted");
        assert!(cache.contains(c));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn demoted_key_is_reported_for_l1_invalidation() {
        let cache = ShardedCache::new(CacheConfig {
            capacity: 2,
            shards: 1,
        });
        let (_, value) = entry("SELECT T.a FROM T");
        let (a, b, c) = (synthetic_key(1), synthetic_key(2), synthetic_key(3));
        cache.insert(a, Arc::clone(&value));
        cache.insert(b, Arc::clone(&value));
        let (_, evicted) = cache.insert_reporting(c, Arc::clone(&value));
        assert_eq!(evicted, Some(a), "a was LRU of T1");
        // A ghost is not servable.
        assert!(!cache.contains(a));
    }

    #[test]
    fn reinsert_keeps_incumbent_and_counts_nothing() {
        let cache = ShardedCache::new(CacheConfig {
            capacity: 4,
            shards: 1,
        });
        let (fp, value) = entry("SELECT T.a FROM T");
        cache.insert(fp, Arc::clone(&value));
        let incumbent = cache.get(fp).unwrap();
        let (_, other) = entry("SELECT T.a FROM T");
        let resident = cache.insert(fp, other);
        assert!(
            Arc::ptr_eq(&resident, &incumbent),
            "insert returns incumbent"
        );
        assert!(Arc::ptr_eq(&cache.get(fp).unwrap(), &incumbent));
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn churn_is_bounded_by_twice_capacity() {
        let cache = ShardedCache::new(CacheConfig {
            capacity: 2,
            shards: 1,
        });
        let (_, value) = entry("SELECT T.a FROM T");
        for i in 0..100 {
            cache.insert(synthetic_key(i), Arc::clone(&value));
        }
        let state = cache.shards[0].lock().unwrap();
        // Residents + ghosts are bounded by 2c; the slab reuses freed
        // ghost nodes instead of growing with traffic.
        assert!(
            state.map.len() <= 2 * state.capacity,
            "map grew: {}",
            state.map.len()
        );
        assert!(
            state.slab.len() <= 2 * state.capacity + 1,
            "slab grew: {}",
            state.slab.len()
        );
        assert_eq!(state.resident_len(), 2);
    }

    #[test]
    fn shards_partition_the_keyspace() {
        let cache = ShardedCache::new(CacheConfig {
            capacity: 64,
            shards: 8,
        });
        let (_, value) = entry("SELECT T.a FROM T");
        for i in 0..64u64 {
            cache.insert(Fingerprint(u128::from(i) << 64), Arc::clone(&value));
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 64);
        assert_eq!(stats.shards, 8);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn ghost_hit_resurrects_into_t2_and_adapts() {
        let cache = ShardedCache::new(CacheConfig {
            capacity: 2,
            shards: 1,
        });
        let (_, value) = entry("SELECT T.a FROM T");
        let (a, b, c) = (synthetic_key(1), synthetic_key(2), synthetic_key(3));
        cache.insert(a, Arc::clone(&value));
        cache.insert(b, Arc::clone(&value));
        // Promote a to T2 so the next miss demotes b into the B1 ghost
        // list (with all residents in T1, eviction is outright instead).
        assert!(cache.get(a).is_some());
        cache.insert(c, Arc::clone(&value)); // demotes b → B1 ghost
        assert!(!cache.contains(b));
        // Reinserting b is a B1 ghost hit: p grows, b resurrects in T2.
        cache.insert(b, Arc::clone(&value));
        assert!(cache.contains(b));
        let state = cache.shards[0].lock().unwrap();
        assert!(state.p >= 1, "B1 hit must grow p (got {})", state.p);
        let b_idx = state.map[&b.0];
        assert_eq!(state.slab[b_idx].list, T2, "ghost hit lands in T2");
    }

    #[test]
    fn sequential_scan_cannot_flush_the_rereferenced_set() {
        // The scan-resistance property that motivates ARC: a hot set that
        // keeps getting re-referenced survives a long one-shot sweep that
        // would flush an LRU of the same size.
        let cache = ShardedCache::new(CacheConfig {
            capacity: 8,
            shards: 1,
        });
        let (_, value) = entry("SELECT T.a FROM T");
        let hot: Vec<Fingerprint> = (0..4).map(synthetic_key).collect();
        for fp in &hot {
            cache.insert(*fp, Arc::clone(&value));
        }
        for _ in 0..3 {
            for fp in &hot {
                assert!(cache.get(*fp).is_some());
            }
        }
        // One-shot sweep of 100 cold keys, never re-referenced.
        for i in 0..100 {
            cache.insert(synthetic_key(1000 + i), Arc::clone(&value));
        }
        for fp in &hot {
            assert!(
                cache.contains(*fp),
                "hot key {fp:?} flushed by a one-shot scan"
            );
        }
    }

    #[test]
    fn stats_snapshot_is_coherent_under_writer_churn() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let cache = ShardedCache::new(CacheConfig {
            capacity: 4,
            shards: 1,
        });
        let (_, value) = entry("SELECT T.a FROM T");
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..5_000u64 {
                    cache.insert(synthetic_key(i % 64), Arc::clone(&value));
                }
                stop.store(true, Ordering::Relaxed);
            });
            scope.spawn(|| {
                let mut last_evictions = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let stats = cache.stats();
                    assert!(stats.entries <= stats.capacity);
                    assert!(stats.evictions >= last_evictions, "evictions went back");
                    last_evictions = stats.evictions;
                }
            });
        });
    }
}
