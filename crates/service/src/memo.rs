//! The L1 text→fingerprint memo: repeat SQL texts skip the frontend.
//!
//! Without it, a warm cache *hit* still pays nearly the whole request
//! cost in lex→parse→translate→canonicalize — the L2 diagram cache
//! removes compilation, not fingerprinting. This module removes
//! fingerprinting for *repeat texts*: a sharded memo keyed by the SQL
//! text exactly as the request sent it maps straight to the pattern
//! [`Fingerprint`] (plus the §4.8 word count, the only other per-request
//! value the frontend produces), so a memoized request goes directly to
//! the L2 entry lookup.
//!
//! ## Keys
//!
//! The key is the text, byte for byte. A respelling of a memoized text
//! (other whitespace, comments or keyword case, `SOME` for `ANY`, `!=`
//! for `<>`, a trailing `;`) misses: it runs the frontend once, L2
//! serves it the same entry without a compile, and from then on it has
//! an entry of its own. A lookup hashes the text once with the memo's
//! [`RandomState`], takes the shard lock, and compares the entry filed
//! under that hash with the text, so a hash collision costs a compare,
//! never a wrong answer. It allocates nothing. The memo is populated only
//! after a successful full-frontend run, so a text the frontend rejects
//! is never a key: a malformed text always reaches the frontend and
//! produces its error, independent of cache state.
//!
//! ## Lifecycle
//!
//! Entries are bounded per shard with FIFO replacement (replacement order
//! does not affect response bytes — the memo only short-circuits work) and
//! are **invalidated eagerly when L2 evicts their fingerprint**, via a
//! per-shard reverse index, so the memo never keeps pointing at patterns
//! the diagram cache has dropped. A lost race (eviction between L1 lookup
//! and L2 get) falls back to the full frontend, which re-publishes both
//! levels.

use crate::fingerprint::Fingerprint;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, RandomState};
use std::sync::{Mutex, MutexGuard};

/// Aggregated memo counters (entries/evictions/invalidations; hit and
/// miss counts live in `ServiceStats`, where a "hit" means the request
/// actually bypassed the frontend).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    pub entries: usize,
    pub capacity: usize,
    pub shards: usize,
    pub evictions: u64,
    /// Entries dropped because L2 evicted their fingerprint.
    pub invalidations: u64,
}

struct MemoEntry {
    text: Box<str>,
    fingerprint: Fingerprint,
    sql_words: u32,
}

struct MemoShard {
    /// Text hash → entry (the exact text verified on every lookup, so a
    /// hash collision costs a compare, never a wrong answer).
    /// One entry per hash: a text whose hash a resident text already holds
    /// is not memoized, so a 64-bit collision only costs its recompute.
    map: HashMap<u64, Box<MemoEntry>>,
    /// FIFO replacement order. Invalidation leaves stale hashes behind
    /// (skipped when popped); [`MemoShard::compact_fifo`] rebuilds the
    /// queue whenever staleness exceeds the live count, so the deque is
    /// bounded by `2 × capacity` even when invalidations keep the shard
    /// below capacity forever.
    fifo: VecDeque<u64>,
    /// Fingerprint → text hashes resident in this shard, for O(1)
    /// eager invalidation when L2 evicts.
    by_fingerprint: HashMap<u128, Vec<u64>>,
    len: usize,
    capacity: usize,
    evictions: u64,
    invalidations: u64,
}

impl MemoShard {
    fn new(capacity: usize) -> MemoShard {
        MemoShard {
            map: HashMap::new(),
            fifo: VecDeque::new(),
            by_fingerprint: HashMap::new(),
            len: 0,
            capacity,
            evictions: 0,
            invalidations: 0,
        }
    }

    fn unindex(&mut self, fingerprint: Fingerprint, hash: u64) {
        if let Some(hashes) = self.by_fingerprint.get_mut(&fingerprint.0) {
            if let Some(at) = hashes.iter().position(|h| *h == hash) {
                hashes.swap_remove(at);
            }
            if hashes.is_empty() {
                self.by_fingerprint.remove(&fingerprint.0);
            }
        }
    }

    /// Evict the FIFO-oldest entry.
    fn evict_one(&mut self) {
        while let Some(hash) = self.fifo.pop_front() {
            let Some(entry) = self.map.remove(&hash) else {
                continue; // stale FIFO entry left by invalidation
            };
            self.len -= 1;
            self.evictions += 1;
            self.unindex(entry.fingerprint, hash);
            return;
        }
    }

    /// Drop stale FIFO slots (hashes whose entries were invalidated),
    /// keeping each live hash's first slot, in order. Runs
    /// when stale slots outnumber live ones, so its O(fifo) cost is
    /// amortized O(1) per insert and the deque never exceeds ~2×capacity —
    /// without it, an invalidation-heavy workload (L2 thrashing) would
    /// grow the queue one slot per compiled request, forever, while `len`
    /// stays below capacity and `evict_one` never reclaims anything.
    fn compact_fifo(&mut self) {
        let mut live: HashSet<u64> = self.map.keys().copied().collect();
        let mut compacted = VecDeque::with_capacity(self.len);
        for hash in self.fifo.drain(..) {
            if live.remove(&hash) {
                compacted.push_back(hash);
            }
        }
        self.fifo = compacted;
        debug_assert_eq!(self.fifo.len(), self.len);
    }

    /// The entry memoized for `text`, which hashes to `hash`.
    fn lookup(&self, hash: u64, text: &str) -> Option<&MemoEntry> {
        let entry = self.map.get(&hash)?;
        (*entry.text == *text).then_some(&**entry)
    }

    fn insert(&mut self, hash: u64, text: &str, fingerprint: Fingerprint, words: u32) {
        if self.map.contains_key(&hash) {
            // The incumbent wins: the same text (racing inserts agree
            // anyway) or, vanishingly rarely, one whose hash collides.
            return;
        }
        while self.len >= self.capacity {
            self.evict_one();
        }
        if self.fifo.len() >= (2 * self.len).max(16) {
            self.compact_fifo();
        }
        let entry = MemoEntry {
            text: text.into(),
            fingerprint,
            sql_words: words,
        };
        self.map.insert(hash, Box::new(entry));
        self.fifo.push_back(hash);
        self.by_fingerprint
            .entry(fingerprint.0)
            .or_default()
            .push(hash);
        self.len += 1;
    }

    fn invalidate(&mut self, fingerprint: Fingerprint) -> usize {
        let Some(hashes) = self.by_fingerprint.remove(&fingerprint.0) else {
            return 0;
        };
        let mut removed = 0usize;
        for hash in hashes {
            if self
                .map
                .get(&hash)
                .is_some_and(|e| e.fingerprint == fingerprint)
            {
                self.map.remove(&hash);
                removed += 1;
            }
        }
        self.len -= removed;
        self.invalidations += removed as u64;
        removed
    }
}

/// The sharded L1 memo. See the module docs.
pub struct L1Memo {
    shards: Vec<Mutex<MemoShard>>,
    hasher: RandomState,
}

impl L1Memo {
    /// A memo of `capacity` texts over `shards` shards.
    pub fn new(capacity: usize, shards: usize) -> L1Memo {
        let shards = shards.max(1);
        let per_shard = capacity.div_ceil(shards).max(1);
        L1Memo {
            shards: (0..shards)
                .map(|_| Mutex::new(MemoShard::new(per_shard)))
                .collect(),
            hasher: RandomState::new(),
        }
    }

    fn shard(&self, hash: u64) -> MutexGuard<'_, MemoShard> {
        self.shards[(hash % self.shards.len() as u64) as usize]
            .lock()
            .expect("memo shard poisoned")
    }

    /// Look up the fingerprint and word count memoized for exactly this
    /// text. The lookup performs no allocation.
    pub fn lookup(&self, sql: &str) -> Option<(Fingerprint, u32)> {
        let hash = self.hasher.hash_one(sql);
        let shard = self.shard(hash);
        let entry = shard.lookup(hash, sql)?;
        Some((entry.fingerprint, entry.sql_words))
    }

    /// Memoize a text after a successful full-frontend run.
    pub fn insert(&self, sql: &str, fingerprint: Fingerprint, sql_words: u32) {
        let hash = self.hasher.hash_one(sql);
        self.shard(hash).insert(hash, sql, fingerprint, sql_words);
    }

    /// Drop every memo entry pointing at `fingerprint` (called when L2
    /// evicts it). Returns how many entries were dropped.
    pub fn invalidate(&self, fingerprint: Fingerprint) -> usize {
        // The memo shards by text hash, not by fingerprint, so the reverse
        // index of every shard is consulted; evictions are rare (L2 at
        // capacity), lookups and inserts never take more than their own
        // shard lock.
        self.shards
            .iter()
            .map(|shard| {
                shard
                    .lock()
                    .expect("memo shard poisoned")
                    .invalidate(fingerprint)
            })
            .sum()
    }

    /// Aggregate counters across shards.
    pub fn stats(&self) -> MemoStats {
        let mut stats = MemoStats {
            shards: self.shards.len(),
            ..MemoStats::default()
        };
        for shard in &self.shards {
            let shard = shard.lock().expect("memo shard poisoned");
            stats.entries += shard.len;
            stats.capacity += shard.capacity;
            stats.evictions += shard.evictions;
            stats.invalidations += shard.invalidations;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn new_memo() -> L1Memo {
        L1Memo::new(4 * 4096, 16)
    }

    #[test]
    fn texts_and_their_variants_hit_and_near_keys_miss() {
        // (text, respellings of it, texts one byte longer at the end):
        // each spelling hits once it is memoized in its own right.
        let cases: [(&str, &[&str], &[&str]); 3] = [
            (
                "SELECT T.a FROM T",
                &["select T.a  from T;", "SELECT /* c */ T.a\nFROM T -- t"],
                &["SELECT T.a FROM T2", "SELECT T.a FROM T;"],
            ),
            (
                "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
                 (SELECT * FROM Serves S WHERE S.bar = F.bar)",
                &["select F.person from Frequents F where not exists\n\
                   (select * from Serves S where S.bar = F.bar);"],
                &["SELECT F.person FROM Frequents F WHERE NOT EXISTS \
                   (SELECT * FROM Serves S WHERE S.bar = F.bar) "],
            ),
            (
                "x = 'it''s' AND y != 3.5 -- c",
                &["x='it''s' and y<>3.5"],
                &["x = 'it''s' AND y != 3.5 -- cc"],
            ),
        ];
        for (sql, variants, longer) in cases {
            let memo = new_memo();
            memo.insert(sql, Fingerprint(1), 4);
            for text in variants {
                assert_eq!(memo.lookup(text), None, "{text:?}");
                memo.insert(text, Fingerprint(1), 4);
            }
            for text in std::iter::once(&sql).chain(variants) {
                assert_eq!(memo.lookup(text), Some((Fingerprint(1), 4)), "{text:?}");
            }
            for text in longer {
                assert_eq!(memo.lookup(text), None, "{text:?}");
                // And the other way round: the shorter text misses too.
                let other = new_memo();
                other.insert(text, Fingerprint(2), 4);
                assert_eq!(other.lookup(sql), None, "{sql:?}");
            }
            // Within one bucket, the compare alone rejects a text one
            // byte longer or shorter at the end.
            let hash = memo.hasher.hash_one(sql);
            let shard = memo.shard(hash);
            assert!(shard.lookup(hash, sql).is_some(), "{sql:?}");
            assert!(shard.lookup(hash, &format!("{sql}!")).is_none(), "{sql:?}");
            assert!(
                shard.lookup(hash, &sql[..sql.len() - 1]).is_none(),
                "{sql:?}"
            );
        }
    }

    #[test]
    fn memo_round_trip_and_exactness() {
        let memo = new_memo();
        let fp = Fingerprint(42);
        memo.insert("SELECT T.a FROM T", fp, 4);
        assert_eq!(memo.lookup("SELECT T.a FROM T"), Some((fp, 4)));
        // A respelling is another text.
        assert_eq!(memo.lookup("select T.a  from T;"), None);
        assert_eq!(memo.lookup("SELECT T.b FROM T"), None);
        assert_eq!(memo.stats().entries, 1);
        // Re-inserting the text keeps the incumbent.
        memo.insert("SELECT T.a FROM T", Fingerprint(43), 9);
        assert_eq!(memo.lookup("SELECT T.a FROM T"), Some((fp, 4)));
        assert_eq!(memo.stats().entries, 1);
    }

    #[test]
    fn invalidation_drops_every_text_of_a_fingerprint() {
        let memo = new_memo();
        let (fp_a, fp_b) = (Fingerprint(1), Fingerprint(2));
        memo.insert("SELECT T.a FROM T", fp_a, 4);
        // Distinct text, same pattern fingerprint (an alias rename).
        memo.insert("SELECT U.a FROM T U", fp_a, 5);
        memo.insert("SELECT T.b FROM T", fp_b, 4);
        assert_eq!(memo.stats().entries, 3);
        assert_eq!(memo.invalidate(fp_a), 2);
        assert_eq!(memo.stats().entries, 1);
        assert_eq!(memo.lookup("SELECT T.a FROM T"), None);
        assert_eq!(memo.lookup("SELECT U.a FROM T U"), None);
        assert_eq!(memo.lookup("SELECT T.b FROM T"), Some((fp_b, 4)));
        assert_eq!(memo.stats().invalidations, 2);
    }

    #[test]
    fn capacity_is_bounded_with_fifo_replacement() {
        let memo = L1Memo::new(4, 1);
        for i in 0..10 {
            memo.insert(&format!("SELECT T.c{i} FROM T"), Fingerprint(i), 4);
        }
        let stats = memo.stats();
        assert_eq!(stats.entries, 4);
        assert_eq!(stats.evictions, 6);
        // The newest entries survive.
        assert_eq!(memo.lookup("SELECT T.c9 FROM T"), Some((Fingerprint(9), 4)));
        assert_eq!(memo.lookup("SELECT T.c0 FROM T"), None);
    }

    #[test]
    fn fifo_stays_bounded_under_invalidation_heavy_traffic() {
        // Insert-then-invalidate forever (the L2-thrashing pattern): the
        // shard never reaches capacity, so eviction alone would never
        // reclaim the stale FIFO slots — compaction must keep the queue
        // proportional to the live entry count, not to total traffic.
        let memo = L1Memo::new(64, 1);
        for i in 0..10_000u64 {
            memo.insert(
                &format!("SELECT T.c{i} FROM T"),
                Fingerprint(u128::from(i)),
                4,
            );
            memo.invalidate(Fingerprint(u128::from(i)));
        }
        let shard = memo.shards[0].lock().unwrap();
        assert_eq!(shard.len, 0);
        assert!(
            shard.fifo.len() <= 2 * shard.capacity.max(16),
            "fifo grew unboundedly: {} slots",
            shard.fifo.len()
        );
    }

    #[test]
    fn eviction_after_invalidation_skips_stale_fifo_hashes() {
        let memo = L1Memo::new(2, 1);
        memo.insert("SELECT T.a FROM T", Fingerprint(1), 4);
        memo.insert("SELECT T.b FROM T", Fingerprint(2), 4);
        assert_eq!(memo.invalidate(Fingerprint(1)), 1);
        // Filling back up walks past the stale FIFO slot without panicking
        // or double-counting.
        memo.insert("SELECT T.c FROM T", Fingerprint(3), 4);
        memo.insert("SELECT T.d FROM T", Fingerprint(4), 4);
        let stats = memo.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(memo.lookup("SELECT T.b FROM T"), None, "FIFO evicted");
        assert!(memo.lookup("SELECT T.d FROM T").is_some());
    }
}
