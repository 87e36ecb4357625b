//! Thread-safe string interning with copy-type [`Symbol`] ids.
//!
//! The interner is the single point where name strings enter the compile
//! pipeline: the SQL lexer interns every identifier and literal once, and
//! from then on all layers (AST, pattern IR, diagram model, fingerprints)
//! carry 4-byte [`Symbol`]s. Equality is an integer compare, hashing is an
//! integer hash, and the canonical-pattern fingerprint hashes ids instead
//! of re-hashing string bytes on every request.
//!
//! ## Design
//!
//! * **Sharded lookup** — `intern` hashes the string (FNV-1a, independent
//!   of the map's own hasher) to pick one of [`SHARD_COUNT`] mutex-striped
//!   maps, mirroring the serving layer's sharded cache so concurrent
//!   requests interning disjoint names rarely contend.
//! * **Append-only, leaked storage** — each distinct string is copied once
//!   into a `Box::leak`ed `&'static str`. Interners never forget a string
//!   (by definition of interning), so leaking trades an unreclaimable but
//!   *bounded-by-unique-names* allocation for `resolve` being a plain
//!   index load with no lifetime gymnastics. Operational consequence for
//!   long-running servers: memory grows with the number of **distinct**
//!   names ever seen (identifiers *and* constant literals — both are
//!   query-controlled), never with request count. `Interner::len()` is
//!   exported as `ServiceStats::interned_symbols` precisely so deployments
//!   can watch that curve; a per-epoch or GC'd interner is the designed
//!   escape hatch if a workload's name vocabulary turns out not to
//!   plateau.
//! * **Process-global default** — [`Interner::global()`] is the interner
//!   of the whole pipeline; [`Symbol::intern`]/[`Symbol::as_str`] and all
//!   `From<&str>` conversions go through it. Fresh instances
//!   ([`Interner::new`]) exist for tests that must prove resolution
//!   stability is a property of the *text*, not of id assignment order.
//!
//! ## Invariants
//!
//! * A [`Symbol`] is only meaningful to the interner that created it.
//!   [`Symbol::as_str`] resolves against the global interner; resolving a
//!   foreign symbol panics (out of range) or aliases another string — use
//!   [`Interner::resolve`] explicitly when working with a local interner.
//! * `Symbol`'s `Ord` is **id order** (first-interned first), not
//!   lexicographic order. Anything that must be stable across processes or
//!   across differently-interned inputs (the canonical pattern, rendered
//!   artifacts) must not depend on raw id order; see `queryvis::pattern`.

use std::collections::HashMap;
use std::fmt;
use std::num::NonZeroU32;
use std::sync::{Mutex, OnceLock, RwLock};

/// Number of mutex-striped lookup shards.
pub const SHARD_COUNT: usize = 16;

/// A 4-byte interned-string id. `Copy`, integer-compared, integer-hashed.
///
/// Ids start at 1 so `Option<Symbol>` is pointer-width-free (niche
/// optimization): an `Option<Symbol>` is still 4 bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(NonZeroU32);

impl Symbol {
    /// Intern `text` in the process-global interner.
    pub fn intern(text: &str) -> Symbol {
        Interner::global().intern(text)
    }

    /// Resolve against the process-global interner.
    ///
    /// Panics if `self` was created by a different [`Interner`] and its id
    /// is out of the global interner's range (a foreign id *within* range
    /// silently aliases — never mix symbols from different interners).
    pub fn as_str(self) -> &'static str {
        Interner::global().resolve(self)
    }

    /// Zero-based dense index of this symbol (stable within its interner).
    pub fn index(self) -> u32 {
        self.0.get() - 1
    }

    fn from_index(index: u32) -> Symbol {
        Symbol(NonZeroU32::new(index + 1).expect("u32 overflow in interner"))
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match Interner::global().try_resolve(*self) {
            Some(text) => write!(f, "s{:?}", text),
            None => write!(f, "Symbol#{}", self.index()),
        }
    }
}

impl From<&str> for Symbol {
    fn from(text: &str) -> Symbol {
        Symbol::intern(text)
    }
}

impl From<&String> for Symbol {
    fn from(text: &String) -> Symbol {
        Symbol::intern(text)
    }
}

impl From<String> for Symbol {
    fn from(text: String) -> Symbol {
        Symbol::intern(&text)
    }
}

impl From<&Symbol> for Symbol {
    fn from(sym: &Symbol) -> Symbol {
        *sym
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Symbol {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Symbol> for str {
    fn eq(&self, other: &Symbol) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Symbol> for &str {
    fn eq(&self, other: &Symbol) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Symbol> for String {
    fn eq(&self, other: &Symbol) -> bool {
        self.as_str() == other.as_str()
    }
}

/// A lookup key for read-only by-name accessors (`Diagram::table_by_binding`,
/// `LogicTree::owner_of`, …): an existing [`Symbol`] passes through; string
/// types probe the global interner **without inserting** — a name that was
/// never interned cannot label anything in any IR, so the lookup simply
/// misses. This keeps pure queries pure: probing with an unknown string
/// neither mutates the interner nor leaks the probe text.
pub trait SymbolQuery {
    fn find(self) -> Option<Symbol>;
}

impl SymbolQuery for Symbol {
    fn find(self) -> Option<Symbol> {
        Some(self)
    }
}

impl SymbolQuery for &Symbol {
    fn find(self) -> Option<Symbol> {
        Some(*self)
    }
}

impl SymbolQuery for &str {
    fn find(self) -> Option<Symbol> {
        Interner::global().get(self)
    }
}

impl SymbolQuery for &String {
    fn find(self) -> Option<Symbol> {
        Interner::global().get(self)
    }
}

impl SymbolQuery for String {
    fn find(self) -> Option<Symbol> {
        Interner::global().get(&self)
    }
}

/// FNV-1a 64-bit, used only to pick a shard (stable, hasher-independent).
fn shard_of(text: &str) -> usize {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % SHARD_COUNT as u64) as usize
}

/// A thread-safe, append-only string interner.
pub struct Interner {
    /// Text → id lookup, striped by a stable hash of the text.
    shards: [Mutex<HashMap<&'static str, Symbol>>; SHARD_COUNT],
    /// Id → text resolution (index = `Symbol::index()`).
    strings: RwLock<Vec<&'static str>>,
}

impl Default for Interner {
    fn default() -> Self {
        Interner::new()
    }
}

impl Interner {
    /// A fresh, empty interner. Its [`Symbol`]s are only valid with this
    /// instance's [`Interner::resolve`]; the pipeline itself always uses
    /// [`Interner::global`].
    pub fn new() -> Interner {
        Interner {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            strings: RwLock::new(Vec::new()),
        }
    }

    /// The process-global interner shared by every pipeline layer (and, in
    /// the serving layer, by every shard of every service in the process).
    pub fn global() -> &'static Interner {
        static GLOBAL: OnceLock<Interner> = OnceLock::new();
        GLOBAL.get_or_init(Interner::new)
    }

    /// Intern `text`, returning its stable id. O(1) amortized; the hot
    /// path (already-interned text) takes one shard lock.
    pub fn intern(&self, text: &str) -> Symbol {
        let mut shard = self.shards[shard_of(text)]
            .lock()
            .expect("interner shard poisoned");
        if let Some(&sym) = shard.get(text) {
            return sym;
        }
        // First sighting: copy once, leak, publish. The shard lock is held
        // across the strings append so an id is visible for resolution
        // before any other thread can observe it through the lookup map.
        let leaked: &'static str = Box::leak(text.to_owned().into_boxed_str());
        let sym = {
            let mut strings = self.strings.write().expect("interner strings poisoned");
            let sym = Symbol::from_index(u32::try_from(strings.len()).expect("interner overflow"));
            strings.push(leaked);
            sym
        };
        shard.insert(leaked, sym);
        sym
    }

    /// Look up `text` **without inserting**: `Some(id)` iff the text has
    /// already been interned. Read-only probes (diagram/table lookups by
    /// user-supplied names) use this so a miss neither mutates the
    /// interner nor leaks the probe string.
    pub fn get(&self, text: &str) -> Option<Symbol> {
        self.shards[shard_of(text)]
            .lock()
            .expect("interner shard poisoned")
            .get(text)
            .copied()
    }

    /// Resolve an id created by **this** interner. Panics on foreign ids
    /// outside this interner's range.
    pub fn resolve(&self, sym: Symbol) -> &'static str {
        self.try_resolve(sym)
            .expect("Symbol resolved against an interner that did not create it")
    }

    /// Non-panicking [`Interner::resolve`].
    pub fn try_resolve(&self, sym: Symbol) -> Option<&'static str> {
        self.strings
            .read()
            .expect("interner strings poisoned")
            .get(sym.index() as usize)
            .copied()
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.strings
            .read()
            .expect("interner strings poisoned")
            .len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interner")
            .field("strings", &self.len())
            .field("shards", &SHARD_COUNT)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_text_same_symbol() {
        let a = Symbol::intern("drinker");
        let b = Symbol::intern("drinker");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "drinker");
    }

    #[test]
    fn distinct_text_distinct_symbols() {
        assert_ne!(Symbol::intern("Likes"), Symbol::intern("Serves"));
    }

    #[test]
    fn symbol_is_small_and_niche_optimized() {
        assert_eq!(std::mem::size_of::<Symbol>(), 4);
        assert_eq!(std::mem::size_of::<Option<Symbol>>(), 4);
    }

    #[test]
    fn string_comparisons_work_both_ways() {
        let s = Symbol::intern("bar");
        assert_eq!(s, "bar");
        assert_eq!("bar", s);
        assert_eq!(s, "bar".to_string());
        assert_ne!(s, "baz");
    }

    #[test]
    fn fresh_interner_is_independent() {
        let local = Interner::new();
        let a = local.intern("zebra");
        let b = local.intern("aardvark");
        assert_eq!(local.resolve(a), "zebra");
        assert_eq!(local.resolve(b), "aardvark");
        assert_eq!(local.len(), 2);
        // Ids are dense and in first-interned order.
        assert!(a < b);
    }

    #[test]
    fn resolution_is_stable_across_interners() {
        // The same text interned into two interners (in different orders)
        // resolves to the same text — resolution depends on the text alone.
        let a = Interner::new();
        let b = Interner::new();
        let words = ["Likes", "Frequents", "Serves", "drinker"];
        let in_a: Vec<Symbol> = words.iter().map(|w| a.intern(w)).collect();
        let in_b: Vec<Symbol> = words.iter().rev().map(|w| b.intern(w)).collect();
        for (i, word) in words.iter().enumerate() {
            assert_eq!(a.resolve(in_a[i]), *word);
            assert_eq!(b.resolve(in_b[words.len() - 1 - i]), *word);
        }
    }

    #[test]
    fn concurrent_interning_agrees() {
        let local = std::sync::Arc::new(Interner::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let local = std::sync::Arc::clone(&local);
            handles.push(std::thread::spawn(move || {
                let mut ids = Vec::new();
                for i in 0..200 {
                    // Every thread interns the same 50 names (plus skew).
                    ids.push(local.intern(&format!("name{}", (i + t) % 50)));
                }
                ids
            }));
        }
        for handle in handles {
            for sym in handle.join().unwrap() {
                assert!(local.resolve(sym).starts_with("name"));
            }
        }
        assert_eq!(local.len(), 50);
    }

    #[test]
    fn get_probes_without_inserting() {
        let local = Interner::new();
        local.intern("known");
        assert_eq!(local.len(), 1);
        assert!(local.get("unknown").is_none());
        assert_eq!(local.len(), 1, "a missed probe must not intern");
        assert_eq!(local.get("known"), local.get("known"));
        assert!(local.get("known").is_some());
    }

    #[test]
    fn symbol_query_miss_does_not_grow_the_global_interner() {
        // SymbolQuery string probes use get(), so by-name accessors stay
        // pure: an unknown probe string is not leaked into the interner.
        // Other tests intern into the global interner on parallel
        // threads, so check the probe's own text, not the global count.
        let probe = "never-interned-probe-7f3a9";
        assert!(SymbolQuery::find(probe).is_none());
        assert_eq!(Interner::global().get(probe), None);
    }

    #[test]
    fn try_resolve_rejects_foreign_ids() {
        let local = Interner::new();
        let sym = local.intern("only");
        assert_eq!(local.try_resolve(sym), Some("only"));
        let far = Symbol::from_index(9_999_999);
        assert_eq!(local.try_resolve(far), None);
    }
}
