//! # queryvis
//!
//! **QueryVis: logic-based diagrams for understanding SQL queries** — a
//! from-scratch Rust implementation of Leventidis et al., SIGMOD 2020.
//!
//! QueryVis automatically transforms a large fragment of SQL (nested
//! conjunctive queries with inequalities, plus a GROUP BY extension) into
//! minimal, unambiguous visual diagrams grounded in first-order logic.
//!
//! ## Quick start
//!
//! ```
//! use queryvis::QueryVis;
//!
//! let qv = QueryVis::from_sql(
//!     "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
//!      (SELECT * FROM Serves S WHERE S.bar = F.bar AND NOT EXISTS \
//!      (SELECT L.drink FROM Likes L WHERE L.person = F.person \
//!       AND S.drink = L.drink))",
//! ).unwrap();
//!
//! // The full pipeline ran: SQL → TRC/logic tree → ∀-simplification →
//! // diagram. Render it however you like:
//! let svg = qv.svg();
//! assert!(svg.starts_with("<svg"));
//! println!("{}", qv.ascii());
//! println!("{}", qv.reading());
//! ```
//!
//! ## Crate map
//!
//! This facade re-exports the component crates: `sql` (parser), `logic`
//! (TRC / logic trees), `diagram` (the visual model), `layout`, `render`,
//! and `corpus` (every schema and query of the paper). On top it adds:
//!
//! * [`pipeline`] — the [`QueryVis`] one-stop API, split into a cheap
//!   front half ([`QueryVis::prepare`]) and an expensive back half
//!   ([`PreparedQuery::complete`]) so caching layers can fingerprint
//!   without compiling;
//! * [`pattern`] — canonical logical patterns: two queries share a visual
//!   pattern iff their canonical forms are equal (paper §1.1, App. G);
//! * [`inverse`] — diagram → logic-tree recovery (App. B);
//! * [`unambiguity`] — the Proposition 5.1 verification harness
//!   (every valid diagram has exactly one interpretation).
//!
//! The serving layer lives in the separate `queryvis-service` crate: a
//! concurrent diagram-compilation service with canonical-pattern
//! fingerprint caching and a JSON-lines front end. Build instructions,
//! the full crate map, and protocol examples are in the repository
//! [README](https://github.com/queryvis/queryvis#readme) —
//! `README.md` at the workspace root.

pub mod decompose;
pub mod inverse;
pub mod pattern;
pub mod pipeline;
pub mod unambiguity;

pub use decompose::{recover_depths_decomposition, recovered_depth_by_binding};
pub use inverse::{recover_logic_tree, GroupGraph, InverseError};
pub use pattern::{canonical_pattern, canonical_pattern_branches, PatternKey, TreeErasure};
pub use pipeline::{
    PreparedQuery, QueryVis, QueryVisError, QueryVisOptions, UnionBranch, MAX_QUERY_BRANCHES,
};
pub use queryvis_ir as ir;
pub use unambiguity::{valid_path_patterns, verify_path_patterns, PathPattern};

// Re-export the component crates under stable names.
pub use queryvis_corpus as corpus;
pub use queryvis_diagram as diagram;
pub use queryvis_layout as layout;
pub use queryvis_logic as logic;
pub use queryvis_render as render;
pub use queryvis_sql as sql;
