//! Canonical-pattern fingerprints: the cache key of the serving layer.
//!
//! QueryVis's key observation (paper §1.1, App. G; also "Principles of
//! Query Visualization" and "On the Reasonable Effectiveness of Relational
//! Diagrams") is that the diagram is a function of the query's *logical
//! pattern*, not its text: alias renames, predicate reordering, sibling
//! subquery reordering, and even schema swaps leave the pattern — and
//! therefore the diagram shape — unchanged. A serving layer can exploit
//! that: canonicalize, hash, and deduplicate compilation across every
//! textually-distinct query that shares a pattern.
//!
//! The fingerprint is a 128-bit FNV-1a hash of the canonical pattern
//! **token stream** from [`queryvis::PatternKey`]: with interned names the
//! canonicalization is id arithmetic, and the hash covers 4-byte `u32`
//! symbol-erased tokens instead of a re-built canonical string — the
//! always-executed half of every request got cheaper with the IR refactor.
//! FNV-1a is fully specified (no per-process seeding, unlike
//! `DefaultHasher`), and the token stream is independent of symbol ids
//! (names are erased to dense first-use indices, and join operands are
//! oriented by their text), so fingerprints are a function of the
//! query's pattern alone: stable across runs, platforms, and releases of
//! this workspace — safe to persist or shard on. The names themselves
//! live in the query's own table and leave with the request; only a
//! pattern's representative keeps its table, inside its cache entry. At 128 bits, accidental
//! collisions are out of reach for any realistic corpus; the
//! adversarial-collision caveats of the canonicalization itself are
//! documented in `queryvis::pattern`.

use queryvis::{PatternKey, PreparedQuery, QueryVisError, QueryVisOptions};
use queryvis_telemetry::StageDef;
use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

/// Canonical-token emission + 128-bit hashing (DESIGN.md §6). Parse and
/// lowering inside `QueryVis::prepare` carry their own stage spans.
static STAGE_CANONICALIZE: StageDef = StageDef::new("stage.canonicalize");

thread_local! {
    /// Per-thread canonical token-stream scratch: fingerprinting a batch
    /// reuses one `Vec<u32>` instead of allocating a stream per query.
    static PATTERN_TOKENS: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// A stable 128-bit cache key identifying a canonical query pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

impl Fingerprint {
    /// Hash a canonical pattern string (FNV-1a, 128-bit). Retained for
    /// diagnostics and tests; the serving path hashes the id-based token
    /// stream via [`Fingerprint::of_key`].
    pub fn of_pattern(pattern: &str) -> Fingerprint {
        let mut hash = FNV128_OFFSET;
        for byte in pattern.as_bytes() {
            hash ^= u128::from(*byte);
            hash = hash.wrapping_mul(FNV128_PRIME);
        }
        Fingerprint(hash)
    }

    /// Hash a canonical pattern key (FNV-1a over the `u32` token stream).
    pub fn of_key(key: &PatternKey) -> Fingerprint {
        Fingerprint(key.fingerprint128())
    }

    /// The shard index for this fingerprint given a shard count.
    ///
    /// Folds the high half into the low half before reducing — FNV-1a's
    /// high bits mix slowly on short inputs, and `shards` need not be a
    /// power of two.
    pub fn shard(&self, shards: usize) -> usize {
        debug_assert!(shards > 0);
        let folded = (self.0 as u64) ^ ((self.0 >> 64) as u64);
        (folded % shards as u64) as usize
    }
}

impl fmt::Display for Fingerprint {
    /// Fixed-width lowercase hex — 32 characters.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// A request that has passed the front half of the pipeline and knows its
/// cache key. Produced by [`fingerprint_sql`].
#[derive(Debug, Clone)]
pub struct FingerprintedQuery {
    pub prepared: PreparedQuery,
    pub fingerprint: Fingerprint,
}

impl FingerprintedQuery {
    /// The canonical pattern key behind the fingerprint, recomputed from
    /// the prepared logic tree. The service never materializes the key,
    /// on hits or misses — [`fingerprint_sql`] hashes the token stream out
    /// of a reused buffer — so callers that want the key itself (tests,
    /// diagnostics) rebuild it here, at the cost of a second
    /// canonicalization.
    pub fn pattern_key(&self) -> PatternKey {
        self.prepared.pattern_key()
    }
}

/// Parse + translate + canonicalize + hash one SQL string.
///
/// This is the always-executed part of serving a request that the L1 text
/// memo cannot short-circuit; the expensive back half (diagram build,
/// layout, rendering) only runs on cache misses. No canonical pattern
/// *string* — and no canonical token `Vec` — is built here: the tokens go
/// into a per-thread scratch buffer and only their 128-bit hash survives.
pub fn fingerprint_sql(
    sql: &str,
    options: impl Into<Arc<QueryVisOptions>>,
) -> Result<FingerprintedQuery, QueryVisError> {
    let prepared = queryvis::QueryVis::prepare(sql, options)?;
    Ok(fingerprint_prepared(prepared))
}

/// Canonicalize + hash an already-prepared query: the back half of
/// [`fingerprint_sql`], for callers that time or drive the frontend stages
/// themselves. Byte-identical to what [`fingerprint_sql`] computes for the
/// same text.
pub fn fingerprint_prepared(prepared: PreparedQuery) -> FingerprintedQuery {
    let _span = STAGE_CANONICALIZE.span();
    let fingerprint = PATTERN_TOKENS.with(|cell| match cell.try_borrow_mut() {
        Ok(mut tokens) => {
            // Union/OR-split queries canonicalize across all branches
            // (order-canonicalized); single-block queries produce exactly
            // the legacy per-tree stream.
            prepared.pattern_tokens_into(&mut tokens);
            Fingerprint(PatternKey::fingerprint128_of(&tokens))
        }
        // Re-entrant fingerprinting on this thread (not a pipeline path):
        // fall back to a one-off key.
        Err(_) => Fingerprint::of_key(&prepared.pattern_key()),
    });
    FingerprintedQuery {
        prepared,
        fingerprint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(sql: &str) -> Fingerprint {
        fingerprint_sql(sql, QueryVisOptions::default())
            .unwrap()
            .fingerprint
    }

    #[test]
    fn stable_across_calls_and_known_value() {
        // FNV-1a test vector: hashing the empty string yields the offset
        // basis, so the constants are wired correctly.
        assert_eq!(Fingerprint::of_pattern("").0, FNV128_OFFSET);
        assert_eq!(fp("SELECT T.a FROM T"), fp("SELECT T.a FROM T"));
    }

    #[test]
    fn alias_renames_collide_on_purpose() {
        let a = fp("SELECT F.person FROM Frequents F WHERE F.bar = 'Owl'");
        let b = fp("SELECT X.person FROM Frequents X WHERE X.bar = 'Tap'");
        assert_eq!(a, b);
    }

    #[test]
    fn different_patterns_do_not_collide() {
        let a = fp("SELECT T.a FROM T");
        let b = fp("SELECT T.a FROM T, T u WHERE T.a = u.a");
        assert_ne!(a, b);
    }

    #[test]
    fn shards_cover_the_range() {
        let mut seen = vec![false; 8];
        for i in 0..256u32 {
            let f = Fingerprint::of_pattern(&format!("p{i}"));
            let s = f.shard(8);
            assert!(s < 8);
            seen[s] = true;
        }
        assert!(seen.iter().all(|s| *s), "all shards reachable: {seen:?}");
    }

    #[test]
    fn display_is_fixed_width_hex() {
        let f = Fingerprint(0xabc);
        assert_eq!(f.to_string().len(), 32);
        assert!(f.to_string().ends_with("abc"));
    }
}
