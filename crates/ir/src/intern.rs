//! The interner: per-query name tables. [`Names`] maps each distinct name
//! one query spells to a copy-type [`Symbol`] and back.
//!
//! The SQL lexer interns every identifier and literal of a query into the
//! table that query owns (`QueryExpr::names`); translation adds the
//! binding keys it makes up (`alias#n`). From then on every layer (AST,
//! logic tree, diagram model, fingerprints) carries 4-byte [`Symbol`]s:
//! equality is an integer compare, hashing an integer hash, and text comes
//! back only where something resolves a symbol through its table.
//!
//! ## Design
//!
//! * **Owned by its query.** A request's table is dropped with the
//!   request; a cache entry keeps only its representative's. Memory tracks
//!   the queries that are resident, never every name the process has
//!   seen.
//! * **One buffer, no lock.** All texts sit back to back in one `String`
//!   and each symbol's end offset in a `Vec<u32>`, so resolving is two
//!   index loads and a slice. Lookup by text probes an open-addressing
//!   table of symbol ids, keyed by the standard library's randomly seeded
//!   hasher because names come from requests. No name is allocated on its
//!   own and nothing is shared between threads, so nothing locks.
//! * **Two reserved names.** Every table starts with [`Names::SELECT`] and
//!   [`Names::STAR`], the names the diagram builder makes up (the select
//!   table and `COUNT(*)`'s row), so building a diagram only reads the
//!   table.
//!
//! ## Invariants
//!
//! * A [`Symbol`] is meaningful only to the table that made it. Code that
//!   meets two queries compares resolved text or canonical coordinates,
//!   never symbols.
//! * `Symbol`'s `Ord` is first-interned order within one table: the two
//!   reserved names, then the query's names in the order they were lexed.
//!   Anything that must not depend on how a query was spelled (the
//!   canonical pattern, rendered artifacts) orders by resolved text; see
//!   `queryvis::pattern`.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;
use std::num::NonZeroU32;

/// A 4-byte id of a name in one [`Names`] table. `Copy`, integer-compared,
/// integer-hashed.
///
/// Ids start at 1 so `Option<Symbol>` is still 4 bytes (niche
/// optimization).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(NonZeroU32);

impl Symbol {
    /// Zero-based dense index of this symbol within its table.
    pub fn index(self) -> u32 {
        self.0.get() - 1
    }

    /// The symbol at `index`. Checked in every build profile: an id past
    /// `u32::MAX - 1` panics instead of wrapping to another name.
    fn from_index(index: usize) -> Symbol {
        u32::try_from(index)
            .ok()
            .and_then(|i| i.checked_add(1))
            .and_then(NonZeroU32::new)
            .map(Symbol)
            .expect("name table overflow")
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol#{}", self.index())
    }
}

/// A query's name table: the text of every [`Symbol`] it hands out.
#[derive(Clone)]
pub struct Names {
    /// Every name's text, back to back, in id order.
    text: String,
    /// `ends[i]`: where symbol `i`'s text ends in `text` (it starts where
    /// symbol `i - 1`'s ends).
    ends: Vec<u32>,
    /// Open-addressing lookup by text: each slot is empty or holds a
    /// symbol and the low half of its text's hash, which growing re-files
    /// by and probes compare before text. Its length is a power of two,
    /// kept at least twice the number of names.
    slots: Vec<(Option<Symbol>, u32)>,
    /// Places names in `slots`; seeded per table, so request text cannot
    /// be crafted to collide.
    hasher: RandomState,
}

impl Default for Names {
    fn default() -> Self {
        Names::new()
    }
}

impl Names {
    /// The select table's binding, alias and header (`SELECT`).
    pub const SELECT: Symbol = Symbol(NonZeroU32::MIN);
    /// The row name of `COUNT(*)` (`*`).
    pub const STAR: Symbol = Symbol(NonZeroU32::MIN.saturating_add(1));

    /// A table holding only the two reserved names, with room for 30
    /// more in 128 bytes of text: enough for 78–83 % of the generated
    /// queries the benchmark compiles or serves and for every edit-session
    /// buffer (EXPERIMENTS.md), so most tables never grow.
    pub fn new() -> Names {
        let mut names = Names {
            text: String::with_capacity(128),
            ends: Vec::with_capacity(32),
            slots: vec![(None, 0); 64],
            hasher: RandomState::new(),
        };
        names.intern("SELECT");
        names.intern("*");
        names
    }

    /// The symbol of `text`, adding it if the table does not hold it yet.
    pub fn intern(&mut self, text: &str) -> Symbol {
        if 2 * (self.ends.len() + 1) > self.slots.len() {
            self.grow();
        }
        let hash = self.hasher.hash_one(text) as u32;
        let slot = match self.probe(text, hash) {
            Ok(sym) => return sym,
            Err(slot) => slot,
        };
        let end = u32::try_from(self.text.len() + text.len()).expect("name table overflow");
        let sym = Symbol::from_index(self.ends.len());
        self.text.push_str(text);
        self.ends.push(end);
        self.slots[slot] = (Some(sym), hash);
        sym
    }

    /// The symbol of `text` if the table holds it; never adds.
    pub fn get(&self, text: &str) -> Option<Symbol> {
        self.probe(text, self.hasher.hash_one(text) as u32).ok()
    }

    /// `Ok(symbol)` if `text`, whose hash is `hash`, is in the table, else
    /// `Err(slot)`: the empty slot where it would go. The table must have
    /// a free slot.
    fn probe(&self, text: &str, hash: u32) -> Result<Symbol, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.slots[slot] {
                (None, _) => return Err(slot),
                (Some(sym), h) if h == hash && self.resolve(sym) == text => return Ok(sym),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Double the lookup table and re-file every name in it by its stored
    /// hash.
    fn grow(&mut self) {
        let len = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![(None, 0); len]);
        for (sym, hash) in old.into_iter().filter(|(sym, _)| sym.is_some()) {
            let mut slot = hash as usize & (len - 1);
            while self.slots[slot].0.is_some() {
                slot = (slot + 1) & (len - 1);
            }
            self.slots[slot] = (sym, hash);
        }
    }

    /// The text of `sym`. Panics if this table did not make it.
    #[inline]
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.try_resolve(sym)
            .expect("Symbol resolved against a table that did not make it")
    }

    /// The text of `sym`, or `None` if it is past this table's end.
    #[inline]
    pub fn try_resolve(&self, sym: Symbol) -> Option<&str> {
        let index = sym.index() as usize;
        let end = *self.ends.get(index)? as usize;
        let start = index.checked_sub(1).map_or(0, |i| self.ends[i] as usize);
        Some(&self.text[start..end])
    }

    /// Number of names in the table, the two reserved ones included.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if the table holds no name (never, once built by
    /// [`Names::new`]).
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// `value` paired with this table, so it can be written with `{}`.
    pub fn show<'a, T: NamedDisplay + ?Sized>(&'a self, value: &'a T) -> Named<'a, T> {
        Named { value, names: self }
    }
}

/// Two tables are equal when they hold the same names under the same ids.
impl PartialEq for Names {
    fn eq(&self, other: &Names) -> bool {
        self.ends == other.ends && self.text == other.text
    }
}

impl fmt::Debug for Names {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries((0..self.len()).map(|i| self.resolve(Symbol::from_index(i))))
            .finish()
    }
}

/// `Display` for values that hold [`Symbol`]s: they are written through
/// the table their names live in. [`Names::show`] pairs a value with its
/// table.
pub trait NamedDisplay {
    fn fmt_named(&self, names: &Names, f: &mut fmt::Formatter<'_>) -> fmt::Result;
}

/// A value paired with its name table; see [`Names::show`].
pub struct Named<'a, T: ?Sized> {
    value: &'a T,
    names: &'a Names,
}

impl<T: NamedDisplay + ?Sized> fmt::Display for Named<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.value.fmt_named(self.names, f)
    }
}

impl NamedDisplay for Symbol {
    fn fmt_named(&self, names: &Names, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(names.resolve(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_text_same_symbol() {
        let mut names = Names::new();
        let a = names.intern("drinker");
        let b = names.intern("drinker");
        assert_eq!(a, b);
        assert_eq!(names.resolve(a), "drinker");
    }

    #[test]
    fn distinct_text_distinct_symbols() {
        let mut names = Names::new();
        assert_ne!(names.intern("Likes"), names.intern("Serves"));
    }

    #[test]
    fn symbol_is_small_and_niche_optimized() {
        assert_eq!(std::mem::size_of::<Symbol>(), 4);
        assert_eq!(std::mem::size_of::<Option<Symbol>>(), 4);
    }

    #[test]
    fn reserved_names_come_first() {
        let mut names = Names::new();
        assert_eq!(names.len(), 2);
        assert_eq!(names.resolve(Names::SELECT), "SELECT");
        assert_eq!(names.resolve(Names::STAR), "*");
        assert_eq!(names.intern("*"), Names::STAR);
        assert_eq!(names.intern("SELECT"), Names::SELECT);
        assert_eq!(names.len(), 2);
    }

    #[test]
    fn fresh_interner_is_independent() {
        let mut names = Names::new();
        let a = names.intern("zebra");
        let b = names.intern("aardvark");
        assert_eq!(names.resolve(a), "zebra");
        assert_eq!(names.resolve(b), "aardvark");
        assert_eq!(names.len(), 4);
        assert_eq!((a.index(), b.index()), (2, 3));
        assert!(a < b);
    }

    #[test]
    fn resolution_is_stable_across_interners() {
        // The same text interned into two tables (in different orders)
        // resolves to the same text: resolution depends on the text alone.
        let mut a = Names::new();
        let mut b = Names::new();
        let words = ["Likes", "Frequents", "Serves", "drinker"];
        let in_a: Vec<Symbol> = words.iter().map(|w| a.intern(w)).collect();
        let in_b: Vec<Symbol> = words.iter().rev().map(|w| b.intern(w)).collect();
        for (i, word) in words.iter().enumerate() {
            assert_eq!(a.resolve(in_a[i]), *word);
            assert_eq!(b.resolve(in_b[words.len() - 1 - i]), *word);
        }
    }

    #[test]
    fn many_names_survive_growth() {
        // Thousands of names force the lookup table through many
        // doublings; every name keeps its id and text, and lookups of the
        // empty string and of a prefix find their own entries.
        let mut names = Names::new();
        let syms: Vec<Symbol> = (0..5000).map(|i| names.intern(&format!("n{i}"))).collect();
        let empty = names.intern("");
        let prefix = names.intern("n1");
        assert_eq!(prefix, syms[1]);
        for (i, &sym) in syms.iter().enumerate() {
            assert_eq!(names.resolve(sym), format!("n{i}"));
            assert_eq!(names.get(&format!("n{i}")), Some(sym));
        }
        assert_eq!(names.resolve(empty), "");
        assert_eq!(names.len(), 5003);
    }

    #[test]
    fn get_probes_without_inserting() {
        let mut names = Names::new();
        names.intern("known");
        assert_eq!(names.len(), 3);
        assert!(names.get("unknown").is_none());
        assert_eq!(names.len(), 3, "a missed probe must not intern");
        assert_eq!(names.get("known"), names.get("known"));
        assert!(names.get("known").is_some());
    }

    #[test]
    fn try_resolve_rejects_foreign_ids() {
        let mut names = Names::new();
        let sym = names.intern("only");
        assert_eq!(names.try_resolve(sym), Some("only"));
        let far = Symbol::from_index(9_999_999);
        assert_eq!(names.try_resolve(far), None);
        let last = Symbol::from_index(u32::MAX as usize - 1);
        assert_eq!(last.index(), u32::MAX - 1);
        assert_eq!(names.try_resolve(last), None);
    }

    #[test]
    #[should_panic(expected = "name table overflow")]
    fn ids_past_u32_panic_instead_of_wrapping() {
        Symbol::from_index(u32::MAX as usize);
    }

    #[test]
    fn equal_tables_hold_equal_names_under_equal_ids() {
        let mut a = Names::new();
        let mut b = Names::new();
        a.intern("x");
        b.intern("x");
        assert_eq!(a, b);
        b.intern("y");
        assert_ne!(a, b);
        assert_eq!(format!("{a:?}"), r#"["SELECT", "*", "x"]"#);
    }

    #[test]
    fn show_writes_through_the_table() {
        let mut names = Names::new();
        let sym = names.intern("Serves");
        assert_eq!(names.show(&sym).to_string(), "Serves");
        assert_eq!(format!("{sym:?}"), "Symbol#2");
    }
}
