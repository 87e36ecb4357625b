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
//! * [`intern`] — a thread-safe, sharded string [`Interner`] handing out
//!   copy-type [`Symbol`] ids. Table names, column names, aliases, and
//!   constant literals are interned **once** at lex/parse time; every
//!   downstream layer moves 4-byte ids instead of re-allocating `String`s,
//!   and resolves ids back to text only at the final rendering boundary.
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
//! boundary. Between those two edges, names are `Symbol`s.

pub mod arena;
pub mod intern;
pub mod ops;
pub mod pattern;

pub use arena::Arena;
pub use intern::{Interner, Symbol, SymbolQuery};
pub use ops::{AggFunc, CompareOp, Value};
pub use pattern::{
    AttrRef, LogicTree, LtHaving, LtNode, LtOperand, LtPredicate, LtTable, NodeId, Quantifier,
    SelectAttr,
};
