//! # queryvis-ir
//!
//! The shared intermediate representation underneath every layer of the
//! QueryVis pipeline (Leventidis et al., SIGMOD 2020). The pattern
//! abstraction — a tree of quantified query blocks over named tables and
//! attributes — is the load-bearing data structure of this workspace: the
//! SQL front end lowers into it, the logic layer rewrites it, the diagram
//! builder consumes it, and the serving layer fingerprints it. This crate
//! owns that representation and the vocabulary it is written in:
//!
//! * [`intern`] — [`Names`], the name table one query owns, handing out
//!   copy-type [`Symbol`] ids. Table names, column names, aliases, and
//!   constant literals are interned **once** at lex time into the query's
//!   table; every downstream layer moves 4-byte ids instead of
//!   re-allocating `String`s, and resolves ids back to text through that
//!   table ([`Names::show`]) only where text is needed. The table is a
//!   plain single-threaded value: resolving a name takes no lock, and the
//!   names go when the query does.
//! * [`arena`] — [`Arena<T>`]: the `NodeId`-indexed flat storage backing
//!   the pattern tree (no `Box`/`Rc` graphs, no deep pointer chasing).
//! * [`pattern`] — the pattern IR itself: [`LogicTree`], its nodes,
//!   predicates, and attribute references, all `Symbol`-based.
//! * [`ops`] — the shared operator vocabulary ([`CompareOp`], [`AggFunc`],
//!   [`Value`]) used by both the SQL AST and the pattern IR.
//!
//! The steps that run over this IR — the ∄·∄ → ∀·∃ rewrite, the §5
//! validity checks — are plain functions in `queryvis-logic`, called in
//! order by the `queryvis` pipeline; this crate has no dependencies.
//!
//! ## Where strings may exist
//!
//! The invariant this crate enforces by construction: **owned name strings
//! exist only outside the compile pipeline** — in raw SQL text before the
//! lexer, and in rendered artifacts (ascii/dot/svg/JSON) after the render
//! boundary. Between those two edges, names are `Symbol`s, and their text
//! lives once, in the query's [`Names`].

pub mod arena;
pub mod intern;
pub mod ops;
pub mod pattern;

pub use arena::Arena;
pub use intern::{Named, NamedDisplay, Names, Symbol};
pub use ops::{AggFunc, CompareOp, Value};
pub use pattern::{
    AttrRef, LogicTree, LtHaving, LtNode, LtOperand, LtPredicate, LtTable, NodeId, Quantifier,
    SelectAttr,
};
