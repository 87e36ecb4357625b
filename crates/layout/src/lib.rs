//! # queryvis-layout
//!
//! A from-scratch layered layout engine for QueryVis diagrams — the
//! substitute for GraphViz, which the paper uses for rendering
//! (Appendix A.4) but which is not available to this reproduction.
//!
//! Only the diagram's *topology* carries meaning (enclosure, arrows,
//! labels — paper §4); the layout's job is to place it legibly:
//!
//! * tables are arranged in **columns by nesting depth** (SELECT leftmost,
//!   root block next, deeper blocks further right), which makes the
//!   default left-to-right reading order follow the arrows;
//! * tables of one query block stay **contiguous**, so its quantifier box
//!   is a simple padded rectangle;
//! * vertical order within a column is refined by a few **barycenter**
//!   passes (the classic Sugiyama crossing-reduction heuristic);
//! * edges attach to the left/right midpoint of their attribute rows and
//!   carry an optional operator label at the midpoint.

pub mod carrier;
pub mod engine;
pub mod geometry;
pub mod number;
pub mod scene;
pub mod text;

pub use carrier::{escape_json, Carrier, JsonEscaped, Lit};
pub use engine::{layout_diagram, BoxLayout, EdgeLayout, Layout, TableLayout};
pub use geometry::{Point, Rect};
pub use number::{write_shortest, write_tenths, write_whole};
pub use scene::{
    build_scene, compose_union, EdgeKind, EdgeMark, IdHashBuilder, IdHasher, Mark, MarkRole,
    RectMark, Scene, SceneBadge, SceneBranch, StyleClass, TextMark, TextRole, UNION_BADGE_HEIGHT,
};
pub use text::MarkText;
