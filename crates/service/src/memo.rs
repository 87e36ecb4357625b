//! The L1 text→fingerprint memo: repeat SQL texts skip the frontend.
//!
//! Without it, a warm cache *hit* still pays nearly the whole request
//! cost in lex→parse→translate→canonicalize — the L2 diagram cache
//! removes compilation, not fingerprinting. This module removes
//! fingerprinting for *repeat texts*: a sharded memo keyed by the
//! **normalized bytes** of the raw SQL maps straight to the pattern
//! [`Fingerprint`] (plus the §4.8 word count, the only other per-request
//! value the frontend produces), so a memoized request goes directly to
//! the L2 entry lookup.
//!
//! ## Normalization
//!
//! The key is produced by a single cheap byte-level scan — no
//! tokenization into `Token`s, no interning, no parse:
//!
//! * whitespace runs and comments (`-- …`, nested `/* … */`) disappear;
//!   tokens are joined by exactly one space;
//! * words that spell a keyword (case-insensitively) are folded to the
//!   keyword's canonical spelling (`select` → `SELECT`, and `SOME` →
//!   `ANY`, exactly mirroring `Keyword::lookup`); all other identifiers
//!   are kept verbatim (identifier case is significant to the pipeline);
//! * string literals are kept verbatim, quotes and `''` escapes included,
//!   so distinct literals never share a key; numbers likewise;
//! * `!=` folds to its lexer normalization `<>`; a single *trailing*
//!   semicolon is dropped (the parser ignores exactly one).
//!
//! **Soundness.** The scan replicates the lexer's token boundaries
//! (identifier/number/operator/comment rules are byte-for-byte the same,
//! via the `queryvis_sql::lexer` predicates), so two texts with equal
//! normalized bytes produce identical token streams — and therefore equal
//! fingerprints — or fail identically. Equality is **exact**: lookups
//! compare normalized bytes, never just a hash, so the memo can only ever
//! repeat what the full frontend already computed for an equal-modulo-
//! normalization text. The memo is populated only after a successful
//! full-frontend run, and texts the lexer rejects at scan level
//! (unterminated block comment or string literal) are flagged by the
//! scanner and can never match a memoized key — a malformed text always
//! reaches the full frontend and produces its error deterministically,
//! independent of cache state.
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
//!
//! ## One scan per lookup
//!
//! A lookup normalizes the text once, into a per-thread key buffer that
//! every lookup and insert on the thread clears and reuses. It hashes
//! that key once with the memo's [`RandomState`], takes the shard lock,
//! and compares the entry filed under that hash with the key by slice
//! equality; a dirty scan returns before the lock. A key is at most
//! twice its text (one separator per token), and the scan reserves that
//! much, so the buffer keeps the capacity of the longest text its thread
//! looked up: at most about 2× `--max-line`. Once a thread has looked up
//! its longest text, a hit and a miss are both allocation-free.
//!
//! The service memoizes a missed text after the full frontend has run,
//! on the thread that looked it up. `L1Memo::lookup_key` hands it the
//! lookup's hash as a `MemoKey`, and `L1Memo::insert_key` copies the
//! key out of the thread's buffer into the entry without scanning the
//! text again. The buffer counts the texts normalized into it, and a
//! `MemoKey` whose count no longer matches scans again, so a key is
//! never filed under another text's hash.

use crate::fingerprint::Fingerprint;
use queryvis_sql::lexer::is_ident_start;
use queryvis_sql::scan as swar;
use queryvis_sql::token::Keyword;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, RandomState};
use std::marker::PhantomData;
use std::sync::{Mutex, MutexGuard};

// ---------------------------------------------------------------------
// Normalization: one scanner writing the key
// ---------------------------------------------------------------------

thread_local! {
    /// The key buffer every lookup and insert on this thread normalizes
    /// into (see "One scan per lookup" in the module docs).
    static KEY: RefCell<KeyBuffer> = const {
        RefCell::new(KeyBuffer {
            bytes: Vec::new(),
            texts: 0,
        })
    };
}

/// A thread's key buffer: the last text's key, and how many texts have
/// been normalized into it.
struct KeyBuffer {
    bytes: Vec<u8>,
    texts: u64,
}

impl KeyBuffer {
    /// Normalize `sql` into the buffer; `false` for a dirty text.
    fn load(&mut self, sql: &str) -> bool {
        self.texts += 1;
        normalize_into(sql, &mut self.bytes)
    }
}

/// Separator/flush state around the token scan: exactly one `b' '`
/// between tokens, semicolons held back so a single trailing one drops.
struct KeyWriter<'a> {
    out: &'a mut Vec<u8>,
    pending_semis: u32,
}

impl KeyWriter<'_> {
    fn raw(&mut self, bytes: &[u8]) {
        if !self.out.is_empty() {
            self.out.push(b' ');
        }
        self.out.extend_from_slice(bytes);
    }

    fn token(&mut self, bytes: &[u8]) {
        self.flush_semis();
        self.raw(bytes);
    }

    fn flush_semis(&mut self) {
        while self.pending_semis > 0 {
            self.pending_semis -= 1;
            self.raw(b";");
        }
    }

    fn finish(&mut self) {
        // One trailing `;` is parser-ignored — drop it so `…;` and `…`
        // share a key. Two or more are a parse error and must stay
        // distinct from both.
        if self.pending_semis != 1 {
            self.flush_semis();
        }
    }
}

/// The normalization scanner: writes the normalized bytes of `source`
/// into `out` (cleared first). Token boundaries replicate the lexer
/// exactly (see the module docs for the soundness argument).
///
/// Returns `false` if the text contains a construct the lexer rejects at
/// scan level (an unterminated block comment or string literal). Such a
/// text has no trustworthy normalization — dropping the dangling rest
/// could make it byte-equal to a *valid* memoized text — so a lookup
/// treats `false` as "never matches" and an insert as "nothing to
/// memoize".
#[must_use]
fn normalize_into(source: &str, out: &mut Vec<u8>) -> bool {
    let bytes = source.as_bytes();
    out.clear();
    out.reserve_exact(2 * bytes.len());
    let mut key = KeyWriter {
        out,
        pending_semis: 0,
    };
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => i = swar::ws_run_end(bytes, i + 1),
            b'-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                i = swar::find_byte(bytes, i + 2, b'\n').unwrap_or(bytes.len());
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let mut depth = 1usize;
                i += 2;
                while depth > 0 {
                    // Only `*` and `/` can open or close a delimiter, so
                    // the scan leaps between them.
                    match swar::find_byte2(bytes, i, b'*', b'/') {
                        Some(at) if at + 1 < bytes.len() => match (bytes[at], bytes[at + 1]) {
                            (b'/', b'*') => {
                                depth += 1;
                                i = at + 2;
                            }
                            (b'*', b'/') => {
                                depth -= 1;
                                i = at + 2;
                            }
                            _ => i = at + 1,
                        },
                        // Unterminated comment: the lexer rejects this
                        // text, so it has no key that may match a
                        // memoized (necessarily valid) one.
                        _ => return false,
                    }
                }
            }
            b'\'' => {
                // String literal, verbatim (quotes and '' escapes kept).
                let start = i;
                i += 1;
                loop {
                    // Unterminated literal: lexer error; see above.
                    let Some(at) = swar::find_byte(bytes, i, b'\'') else {
                        return false;
                    };
                    i = at + 1;
                    if bytes.get(i) != Some(&b'\'') {
                        break;
                    }
                    i += 1;
                }
                key.token(&bytes[start..i]);
            }
            b'0'..=b'9' => {
                // Number, verbatim; the `.`-absorption rule matches the
                // lexer (`3.5` is one token, `L1.a`'s dot is not).
                let start = i;
                let mut end = swar::digit_run_end(bytes, i + 1);
                if end + 1 < bytes.len() && bytes[end] == b'.' && bytes[end + 1].is_ascii_digit() {
                    end = swar::digit_run_end(bytes, end + 1);
                }
                i = end;
                key.token(&bytes[start..i]);
            }
            b';' => {
                key.pending_semis += 1;
                i += 1;
            }
            b'!' if i + 1 < bytes.len() && bytes[i + 1] == b'=' => {
                key.token(b"<>");
                i += 2;
            }
            b'<' if i + 1 < bytes.len() && matches!(bytes[i + 1], b'>' | b'=') => {
                key.token(&bytes[i..i + 2]);
                i += 2;
            }
            b'>' if i + 1 < bytes.len() && bytes[i + 1] == b'=' => {
                key.token(&bytes[i..i + 2]);
                i += 2;
            }
            _ if is_ident_start(b) => {
                let start = i;
                i = swar::ident_run_end(bytes, i + 1);
                let word = &source[start..i];
                match Keyword::lookup(word) {
                    Some(kw) => key.token(kw.as_str().as_bytes()),
                    None => key.token(word.as_bytes()),
                }
            }
            _ => {
                // Any other byte is a lex error downstream; keep it
                // verbatim so distinct broken texts stay distinct.
                key.token(&bytes[i..i + 1]);
                i += 1;
            }
        }
    }
    key.finish();
    true
}

// ---------------------------------------------------------------------
// The sharded memo
// ---------------------------------------------------------------------

/// L1 memo configuration.
#[derive(Debug, Clone, Copy)]
pub struct MemoConfig {
    /// Total entries across all shards. Sized larger than the L2 cache by
    /// default: many distinct texts share one pattern entry.
    pub capacity: usize,
    /// Number of independent shards.
    pub shards: usize,
}

impl Default for MemoConfig {
    fn default() -> Self {
        MemoConfig {
            capacity: 4 * 4096,
            shards: 16,
        }
    }
}

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
    normalized: Box<[u8]>,
    fingerprint: Fingerprint,
    sql_words: u32,
}

struct MemoShard {
    /// Normalized-hash → entry (exact normalized bytes verified on every
    /// lookup, so a hash collision costs a compare, never a wrong answer).
    /// One entry per hash: a text whose hash a resident text already holds
    /// is not memoized, so a 64-bit collision only costs its recompute.
    map: HashMap<u64, Box<MemoEntry>>,
    /// FIFO replacement order. Invalidation leaves stale hashes behind
    /// (skipped when popped); [`MemoShard::compact_fifo`] rebuilds the
    /// queue whenever staleness exceeds the live count, so the deque is
    /// bounded by `2 × capacity` even when invalidations keep the shard
    /// below capacity forever.
    fifo: VecDeque<u64>,
    /// Fingerprint → normalized-hashes resident in this shard, for O(1)
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

    /// The entry memoized under `key`, which hashes to `hash`.
    fn lookup(&self, hash: u64, key: &[u8]) -> Option<&MemoEntry> {
        let entry = self.map.get(&hash)?;
        (*entry.normalized == *key).then_some(&**entry)
    }

    fn insert(&mut self, hash: u64, key: &[u8], fingerprint: Fingerprint, words: u32) {
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
            normalized: key.into(),
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

/// A looked-up text's key, for [`L1Memo::insert_key`]: its hash, while
/// the key itself stays in the thread's buffer. Not `Send`, because the
/// buffer belongs to the thread that looked the text up.
pub(crate) struct MemoKey {
    /// `None` for a dirty text, which has no key.
    hash: Option<u64>,
    /// The buffer's text count right after this text was normalized.
    text: u64,
    _thread: PhantomData<*const ()>,
}

/// The sharded L1 memo. See the module docs.
pub struct L1Memo {
    shards: Vec<Mutex<MemoShard>>,
    hasher: RandomState,
}

impl L1Memo {
    pub fn new(config: MemoConfig) -> L1Memo {
        let shards = config.shards.max(1);
        let per_shard = config.capacity.div_ceil(shards).max(1);
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

    /// Look up the fingerprint and word count memoized for a text. The
    /// miss/hit decision is exact (normalized-byte equality), and once
    /// the thread has looked up a text at least this long, the lookup
    /// performs no allocation. Texts the lexer would reject at scan level
    /// (unterminated comment/string) never hit — they must reach the full
    /// frontend and produce their error deterministically.
    pub fn lookup(&self, sql: &str) -> Option<(Fingerprint, u32)> {
        self.lookup_key(sql).0
    }

    /// [`L1Memo::lookup`], also returning the text's key for a later
    /// [`L1Memo::insert_key`] on this thread.
    pub(crate) fn lookup_key(&self, sql: &str) -> (Option<(Fingerprint, u32)>, MemoKey) {
        KEY.with_borrow_mut(|buffer| {
            let hash = buffer
                .load(sql)
                .then(|| self.hasher.hash_one(buffer.bytes.as_slice()));
            let hit = hash.and_then(|hash| {
                let shard = self.shard(hash);
                let entry = shard.lookup(hash, &buffer.bytes)?;
                Some((entry.fingerprint, entry.sql_words))
            });
            let key = MemoKey {
                hash,
                text: buffer.texts,
                _thread: PhantomData,
            };
            (hit, key)
        })
    }

    /// Memoize a text after a successful full-frontend run. A text the
    /// lexer rejects at scan level has no key and is not memoized.
    pub fn insert(&self, sql: &str, fingerprint: Fingerprint, sql_words: u32) {
        KEY.with_borrow_mut(|buffer| {
            if !buffer.load(sql) {
                return;
            }
            let hash = self.hasher.hash_one(buffer.bytes.as_slice());
            self.shard(hash)
                .insert(hash, &buffer.bytes, fingerprint, sql_words);
        });
    }

    /// [`L1Memo::insert`] for the text `key` was looked up for: unless
    /// the thread has normalized another text since, the key is still in
    /// its buffer and is filed under the lookup's hash without a scan.
    pub(crate) fn insert_key(
        &self,
        key: MemoKey,
        sql: &str,
        fingerprint: Fingerprint,
        sql_words: u32,
    ) {
        let filed = KEY.with_borrow(|buffer| {
            if buffer.texts != key.text {
                return false;
            }
            if let Some(hash) = key.hash {
                self.shard(hash)
                    .insert(hash, &buffer.bytes, fingerprint, sql_words);
            }
            true
        });
        if !filed {
            self.insert(sql, fingerprint, sql_words);
        }
    }

    /// Drop every memo entry pointing at `fingerprint` (called when L2
    /// evicts it). Returns how many entries were dropped.
    pub fn invalidate(&self, fingerprint: Fingerprint) -> usize {
        // The memo shards by normalized-text hash, not by fingerprint, so
        // the reverse index of every shard is consulted; evictions are
        // rare (L2 at capacity), lookups and inserts never take more than
        // their own shard lock.
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

    fn norm(sql: &str) -> String {
        let mut key = Vec::new();
        assert!(normalize_into(sql, &mut key), "{sql:?}");
        String::from_utf8(key).unwrap()
    }

    #[test]
    fn whitespace_comments_and_keyword_case_normalize_away() {
        let canonical = norm("SELECT T.a FROM T");
        assert_eq!(canonical, "SELECT T . a FROM T");
        for variant in [
            "select T.a from T",
            "  SELECT\n\tT.a\r\n FROM   T  ",
            "SELECT /* projection */ T.a FROM T -- trailing",
            "SELECT T.a FROM T;",
            "SeLeCt T . a FrOm T",
        ] {
            assert_eq!(norm(variant), canonical, "variant: {variant:?}");
        }
    }

    #[test]
    fn identifier_case_and_literals_stay_significant() {
        assert_ne!(norm("SELECT T.a FROM T"), norm("SELECT t.a FROM t"));
        assert_ne!(
            norm("SELECT B.x FROM B WHERE B.c = 'red'"),
            norm("SELECT B.x FROM B WHERE B.c = 'green'")
        );
        assert_ne!(
            norm("SELECT B.x FROM B WHERE B.c = 1"),
            norm("SELECT B.x FROM B WHERE B.c = 2")
        );
    }

    #[test]
    fn operator_spellings_fold_like_the_lexer() {
        assert_eq!(norm("a != b"), norm("a <> b"));
        assert_eq!(norm("a<>b"), norm("a <> b"));
        assert_ne!(norm("a < b"), norm("a <= b"));
        // `< >` is two tokens, `<>` one; they must not share a key.
        assert_ne!(norm("a < > b"), norm("a <> b"));
    }

    #[test]
    fn number_lexing_is_replicated() {
        assert_eq!(norm("x = 3.5"), "x = 3.5");
        assert_eq!(norm("L1.a"), "L1 . a");
        // `3 . 5` is three tokens and must stay distinct from `3.5`.
        assert_ne!(norm("x = 3 . 5"), norm("x = 3.5"));
    }

    #[test]
    fn keyword_alias_folds_with_the_lexer() {
        // SOME and ANY lex to the same keyword.
        assert_eq!(norm("x = SOME (y)"), norm("x = any (y)"));
    }

    #[test]
    fn widened_fragment_keywords_fold() {
        // The ISSUE-4 keywords case-fold like every other keyword …
        assert_eq!(norm("a join b on a.x = b.x"), norm("a JOIN b ON a.x = b.x"));
        assert_eq!(norm("group by x having count(*) > 1"), {
            norm("GROUP BY x HAVING COUNT(*) > 1")
        });
        assert_eq!(norm("a union all b"), norm("a UNION ALL b"));
        assert_eq!(norm("x = 1 or y = 2"), norm("x = 1 OR y = 2"));
        assert_eq!(norm("inner left right full outer cross"), {
            norm("INNER LEFT RIGHT FULL OUTER CROSS")
        });
        // … and remain significant tokens: UNION vs UNION ALL, and a
        // keyword vs a same-spelling identifier context, stay distinct.
        assert_ne!(norm("a UNION b"), norm("a UNION ALL b"));
        assert_ne!(norm("a JOIN b ON c"), norm("a , b WHERE c"));
    }

    #[test]
    fn trailing_semicolons() {
        assert_eq!(norm("SELECT T.a FROM T;"), norm("SELECT T.a FROM T"));
        // Exactly one is dropped; more are a parse error, kept distinct.
        assert_ne!(norm("SELECT T.a FROM T;;"), norm("SELECT T.a FROM T"));
        // An interior semicolon is significant.
        assert_ne!(norm("SELECT ; T.a FROM T"), norm("SELECT T.a FROM T"));
    }

    #[test]
    fn string_literals_shield_comment_markers() {
        assert_eq!(norm("x = 'a -- b'"), "x = 'a -- b'");
        assert_eq!(norm("x = 'a /* b */'"), "x = 'a /* b */'");
        assert_eq!(norm("x = 'it''s'"), "x = 'it''s'");
    }

    #[test]
    fn texts_and_their_variants_hit_and_near_keys_miss() {
        // (text, variants with an equal key, texts whose key is the
        // text's key plus one trailing byte; a key ending in `)` has no
        // such text, since any later token brings a separator too)
        let cases: [(&str, &[&str], &[&str]); 4] = [
            (
                "SELECT T.a FROM T",
                &["select T.a  from T;", "SELECT /* c */ T.a\nFROM T -- t"],
                &["SELECT T.a FROM T2"],
            ),
            (
                "select  t.a\nfrom t ;",
                &["SELECT t.a FROM t", "select t . a from t"],
                &["select t.a from tt"],
            ),
            (
                "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
                 (SELECT * FROM Serves S WHERE S.bar = F.bar)",
                &["select F.person from Frequents F where not exists\n\
                   (select * from Serves S where S.bar = F.bar);"],
                &[],
            ),
            (
                "x = 'it''s' AND y != 3.5 -- c",
                &["x='it''s' and y<>3.5", "x = 'it''s' AND y != 3.5;"],
                &["x = 'it''s' AND y != 3.55"],
            ),
        ];
        for (sql, variants, longer) in cases {
            let memo = L1Memo::new(MemoConfig::default());
            memo.insert(sql, Fingerprint(1), 4);
            for text in std::iter::once(&sql).chain(variants) {
                assert_eq!(memo.lookup(text), Some((Fingerprint(1), 4)), "{text:?}");
            }
            for text in longer {
                assert_eq!(memo.lookup(text), None, "{text:?}");
                // And the other way round: the shorter key misses too.
                let other = L1Memo::new(MemoConfig::default());
                other.insert(text, Fingerprint(2), 4);
                assert_eq!(other.lookup(sql), None, "{sql:?}");
            }
            // Within one bucket, the compare alone rejects a key one
            // byte longer or shorter at the end.
            let mut key = Vec::new();
            assert!(normalize_into(sql, &mut key));
            let hash = memo.hasher.hash_one(key.as_slice());
            let shard = memo.shard(hash);
            assert!(shard.lookup(hash, &key).is_some(), "{sql:?}");
            key.push(b'!');
            assert!(shard.lookup(hash, &key).is_none(), "{sql:?}");
            key.truncate(key.len() - 2);
            assert!(shard.lookup(hash, &key).is_none(), "{sql:?}");
        }
    }

    #[test]
    fn unterminated_constructs_never_match_a_memoized_key() {
        // An unterminated block comment (or string) would otherwise
        // normalize to the same bytes as the valid text, letting a
        // malformed request hit the memo and skip the lexer's error.
        let memo = L1Memo::new(MemoConfig::default());
        memo.insert("SELECT T.a FROM T", Fingerprint(7), 4);
        assert_eq!(memo.lookup("SELECT T.a FROM T /* oops"), None);
        assert_eq!(memo.lookup("SELECT T.a FROM T /* a /* b */"), None);
        assert_eq!(
            memo.lookup("SELECT T.a FROM T --ok"),
            Some((Fingerprint(7), 4))
        );
        memo.insert("SELECT B.x FROM B WHERE B.c = 'red'", Fingerprint(8), 8);
        assert_eq!(memo.lookup("SELECT B.x FROM B WHERE B.c = 'red"), None);
        assert_eq!(memo.lookup("SELECT B.x FROM B WHERE B.c = 'red''"), None);
        // Nor is such a text ever memoized under its clean prefix.
        memo.insert("SELECT T.c FROM T /* oops", Fingerprint(9), 4);
        assert_eq!(memo.lookup("SELECT T.c FROM T"), None);
        assert_eq!(memo.stats().entries, 2);
    }

    #[test]
    fn memo_round_trip_and_exactness() {
        let memo = L1Memo::new(MemoConfig::default());
        let fp = Fingerprint(42);
        memo.insert("SELECT T.a FROM T", fp, 4);
        assert_eq!(memo.lookup("select T.a  from T;"), Some((fp, 4)));
        assert_eq!(memo.lookup("SELECT T.b FROM T"), None);
        assert_eq!(memo.stats().entries, 1);
        // Equal-normalization reinsert keeps the incumbent.
        memo.insert("select T.a from T", Fingerprint(43), 9);
        assert_eq!(memo.lookup("SELECT T.a FROM T"), Some((fp, 4)));
        assert_eq!(memo.stats().entries, 1);
    }

    #[test]
    fn insert_key_files_the_looked_up_text() {
        let memo = L1Memo::new(MemoConfig::default());
        let (hit, key) = memo.lookup_key("select T.a  from T;");
        assert_eq!(hit, None);
        memo.insert_key(key, "select T.a  from T;", Fingerprint(1), 4);
        assert_eq!(memo.lookup("SELECT T.a FROM T"), Some((Fingerprint(1), 4)));
        // Another text normalized in between: the key scans its own
        // text again instead of filing the buffer's.
        let (_, key) = memo.lookup_key("SELECT T.b FROM T");
        assert_eq!(memo.lookup("SELECT T.c FROM T"), None);
        memo.insert_key(key, "SELECT T.b FROM T", Fingerprint(2), 4);
        assert_eq!(memo.lookup("SELECT T.b FROM T"), Some((Fingerprint(2), 4)));
        assert_eq!(memo.lookup("SELECT T.c FROM T"), None);
        // A dirty text memoizes nothing, scanned again or not.
        let (_, key) = memo.lookup_key("SELECT T.d FROM T /* oops");
        memo.insert_key(key, "SELECT T.d FROM T /* oops", Fingerprint(3), 4);
        let (_, key) = memo.lookup_key("SELECT T.e FROM T 'oops");
        memo.lookup("SELECT T.a FROM T");
        memo.insert_key(key, "SELECT T.e FROM T 'oops", Fingerprint(4), 4);
        assert_eq!(memo.lookup("SELECT T.d FROM T"), None);
        assert_eq!(memo.lookup("SELECT T.e FROM T"), None);
        assert_eq!(memo.stats().entries, 2);
    }

    #[test]
    fn invalidation_drops_every_text_of_a_fingerprint() {
        let memo = L1Memo::new(MemoConfig::default());
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
        let memo = L1Memo::new(MemoConfig {
            capacity: 4,
            shards: 1,
        });
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
        let memo = L1Memo::new(MemoConfig {
            capacity: 64,
            shards: 1,
        });
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
        let memo = L1Memo::new(MemoConfig {
            capacity: 2,
            shards: 1,
        });
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
