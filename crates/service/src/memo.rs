//! The L1 text→fingerprint memo: repeat SQL texts skip the frontend.
//!
//! BENCH_service.json showed that a warm cache *hit* still paid nearly the
//! whole request cost in lex→parse→translate→canonicalize — the L2
//! diagram cache removes compilation, not fingerprinting. This module
//! removes fingerprinting for *repeat texts*: a sharded memo keyed by the
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
//! Each shard is one mutex. A lookup hashes the text's normalization
//! before it takes the lock, then compares the bucket's candidates with
//! the text under it; neither step allocates.

use crate::fingerprint::Fingerprint;
use queryvis_sql::lexer::is_ident_start;
use queryvis_sql::scan as swar;
use queryvis_sql::token::Keyword;
use std::collections::{HashMap, VecDeque};
use std::sync::{Mutex, MutexGuard};

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

// ---------------------------------------------------------------------
// Normalization: one scanner, three consumers (bytes / hash / compare)
// ---------------------------------------------------------------------

/// Separator/flush state around the token scan: exactly one `b' '`
/// between tokens, semicolons held back so a single trailing one drops.
struct Sink<'a> {
    emit: &'a mut dyn FnMut(&[u8]),
    started: bool,
    pending_semis: u32,
}

impl Sink<'_> {
    fn raw(&mut self, bytes: &[u8]) {
        if self.started {
            (self.emit)(b" ");
        }
        self.started = true;
        (self.emit)(bytes);
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

/// The normalization scanner: streams the normalized byte sequence of
/// `source` into `emit`, chunk by chunk. Token boundaries replicate the
/// lexer exactly (see the module docs for the soundness argument).
///
/// Returns `false` if the text contains a construct the lexer rejects at
/// scan level (an unterminated block comment or string literal). Such a
/// text has no trustworthy normalization — dropping the dangling rest
/// could make it byte-equal to a *valid* memoized text — so lookups must
/// treat `false` as "never matches" and the insert path must never be
/// reached with one (it only runs after a successful lex).
#[must_use]
fn scan(source: &str, emit: &mut dyn FnMut(&[u8])) -> bool {
    let bytes = source.as_bytes();
    let mut sink = Sink {
        emit,
        started: false,
        pending_semis: 0,
    };
    let mut clean = true;
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
                        _ => {
                            // Unterminated comment: the lexer rejects this
                            // text. Mark the scan dirty so it can never
                            // match a memoized (necessarily valid) key.
                            clean = false;
                            i = bytes.len();
                            break;
                        }
                    }
                }
            }
            b'\'' => {
                // String literal, verbatim (quotes and '' escapes kept).
                let start = i;
                let mut terminated = false;
                i += 1;
                while let Some(at) = swar::find_byte(bytes, i, b'\'') {
                    if at + 1 < bytes.len() && bytes[at + 1] == b'\'' {
                        i = at + 2;
                    } else {
                        i = at + 1;
                        terminated = true;
                        break;
                    }
                }
                if !terminated {
                    // Unterminated literal: lexer error; see above.
                    clean = false;
                    i = bytes.len();
                }
                sink.token(&bytes[start..i]);
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
                sink.token(&bytes[start..i]);
            }
            b';' => {
                sink.pending_semis += 1;
                i += 1;
            }
            b'!' if i + 1 < bytes.len() && bytes[i + 1] == b'=' => {
                sink.token(b"<>");
                i += 2;
            }
            b'<' if i + 1 < bytes.len() && matches!(bytes[i + 1], b'>' | b'=') => {
                sink.token(&bytes[i..i + 2]);
                i += 2;
            }
            b'>' if i + 1 < bytes.len() && bytes[i + 1] == b'=' => {
                sink.token(&bytes[i..i + 2]);
                i += 2;
            }
            _ if is_ident_start(b) => {
                let start = i;
                i = swar::ident_run_end(bytes, i + 1);
                let word = &source[start..i];
                match Keyword::lookup(word) {
                    Some(kw) => sink.token(kw.as_str().as_bytes()),
                    None => sink.token(word.as_bytes()),
                }
            }
            _ => {
                // Any other byte is a lex error downstream; keep it
                // verbatim so distinct broken texts stay distinct.
                sink.token(&bytes[i..i + 1]);
                i += 1;
            }
        }
    }
    sink.finish();
    clean
}

/// The normalized byte sequence, materialized (insert path only — which
/// runs strictly after a successful lex, so the scan is always clean
/// there).
pub fn normalized_bytes(sql: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(sql.len());
    let clean = scan(sql, &mut |chunk| out.extend_from_slice(chunk));
    debug_assert!(clean, "memo inserts only happen after a successful lex");
    out
}

/// FNV-1a/64 of the normalized byte sequence, computed streaming — the
/// lookup path allocates nothing. `None` when the text has no
/// trustworthy normalization (unterminated comment/string): such a text
/// must take the full frontend and fail there.
fn normalized_hash(sql: &str) -> Option<u64> {
    let mut hash = FNV64_OFFSET;
    let clean = scan(sql, &mut |chunk| {
        for &b in chunk {
            hash = (hash ^ u64::from(b)).wrapping_mul(FNV64_PRIME);
        }
    });
    clean.then_some(hash)
}

fn hash_of(normalized: &[u8]) -> u64 {
    let mut hash = FNV64_OFFSET;
    for &b in normalized {
        hash = (hash ^ u64::from(b)).wrapping_mul(FNV64_PRIME);
    }
    hash
}

/// Streaming equality of `sql`'s normalization against a stored key,
/// without materializing the normalization. A dirty scan (unterminated
/// comment/string) never matches: stored keys only come from texts the
/// lexer accepted.
fn normalized_matches(sql: &str, key: &[u8]) -> bool {
    let mut offset = 0usize;
    let mut ok = true;
    let clean = scan(sql, &mut |chunk| {
        if ok && key[offset..].starts_with(chunk) {
            offset += chunk.len();
        } else {
            ok = false;
        }
    });
    clean && ok && offset == key.len()
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
    /// Normalized-hash → entries (exact normalized bytes verified on every
    /// lookup, so hash collisions cost a compare, never a wrong answer).
    map: HashMap<u64, Vec<MemoEntry>>,
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
            let Some(bucket) = self.map.get_mut(&hash) else {
                continue; // stale FIFO entry left by invalidation
            };
            if bucket.is_empty() {
                self.map.remove(&hash);
                continue;
            }
            let entry = bucket.remove(0);
            if bucket.is_empty() {
                self.map.remove(&hash);
            }
            self.len -= 1;
            self.evictions += 1;
            self.unindex(entry.fingerprint, hash);
            return;
        }
    }

    /// Drop stale FIFO slots (hashes whose entries were invalidated),
    /// preserving order and per-hash multiplicity for live entries. Runs
    /// when stale slots outnumber live ones, so its O(fifo) cost is
    /// amortized O(1) per insert and the deque never exceeds ~2×capacity —
    /// without it, an invalidation-heavy workload (L2 thrashing) would
    /// grow the queue one slot per compiled request, forever, while `len`
    /// stays below capacity and `evict_one` never reclaims anything.
    fn compact_fifo(&mut self) {
        let mut live: HashMap<u64, usize> = HashMap::with_capacity(self.map.len());
        for (hash, bucket) in &self.map {
            live.insert(*hash, bucket.len());
        }
        let mut compacted = VecDeque::with_capacity(self.len);
        for hash in self.fifo.drain(..) {
            if let Some(remaining) = live.get_mut(&hash) {
                if *remaining > 0 {
                    *remaining -= 1;
                    compacted.push_back(hash);
                }
            }
        }
        self.fifo = compacted;
        debug_assert_eq!(self.fifo.len(), self.len);
    }

    /// The entry memoized for `sql`, whose normalization hashes to `hash`.
    fn lookup(&self, hash: u64, sql: &str) -> Option<&MemoEntry> {
        self.map
            .get(&hash)?
            .iter()
            .find(|entry| normalized_matches(sql, &entry.normalized))
    }

    fn insert(&mut self, hash: u64, normalized: Vec<u8>, fingerprint: Fingerprint, words: u32) {
        if let Some(bucket) = self.map.get(&hash) {
            if bucket.iter().any(|e| *e.normalized == *normalized) {
                return; // incumbent wins; racing inserts agree anyway
            }
        }
        while self.len >= self.capacity {
            self.evict_one();
        }
        if self.fifo.len() >= (2 * self.len).max(16) {
            self.compact_fifo();
        }
        self.map.entry(hash).or_default().push(MemoEntry {
            normalized: normalized.into_boxed_slice(),
            fingerprint,
            sql_words: words,
        });
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
            if let Some(bucket) = self.map.get_mut(&hash) {
                let before = bucket.len();
                bucket.retain(|entry| entry.fingerprint != fingerprint);
                removed += before - bucket.len();
                if bucket.is_empty() {
                    self.map.remove(&hash);
                }
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
}

impl L1Memo {
    pub fn new(config: MemoConfig) -> L1Memo {
        let shards = config.shards.max(1);
        let per_shard = config.capacity.div_ceil(shards).max(1);
        L1Memo {
            shards: (0..shards)
                .map(|_| Mutex::new(MemoShard::new(per_shard)))
                .collect(),
        }
    }

    fn shard(&self, hash: u64) -> MutexGuard<'_, MemoShard> {
        self.shards[(hash % self.shards.len() as u64) as usize]
            .lock()
            .expect("memo shard poisoned")
    }

    /// Look up the fingerprint and word count memoized for a text. The
    /// miss/hit decision is exact (normalized-byte equality), and the
    /// lookup performs no allocation. Texts the lexer would reject at
    /// scan level (unterminated comment/string) never hit — they must
    /// reach the full frontend and produce their error deterministically.
    pub fn lookup(&self, sql: &str) -> Option<(Fingerprint, u32)> {
        let hash = normalized_hash(sql)?;
        let shard = self.shard(hash);
        let entry = shard.lookup(hash, sql)?;
        Some((entry.fingerprint, entry.sql_words))
    }

    /// Memoize a text after a successful full-frontend run.
    pub fn insert(&self, sql: &str, fingerprint: Fingerprint, sql_words: u32) {
        let normalized = normalized_bytes(sql);
        let hash = hash_of(&normalized);
        self.shard(hash)
            .insert(hash, normalized, fingerprint, sql_words);
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
        String::from_utf8(normalized_bytes(sql)).unwrap()
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
    fn streaming_hash_and_compare_agree_with_materialization() {
        let sqls = [
            "SELECT T.a FROM T",
            "select  t.a\nfrom t ;",
            "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
             (SELECT * FROM Serves S WHERE S.bar = F.bar)",
            "x = 'it''s' AND y != 3.5 -- c",
        ];
        for sql in sqls {
            let bytes = normalized_bytes(sql);
            assert_eq!(normalized_hash(sql), Some(hash_of(&bytes)), "{sql:?}");
            assert!(normalized_matches(sql, &bytes), "{sql:?}");
            let mut other = bytes.clone();
            other.push(b'!');
            assert!(!normalized_matches(sql, &other));
            if !bytes.is_empty() {
                assert!(!normalized_matches(sql, &bytes[..bytes.len() - 1]));
            }
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
