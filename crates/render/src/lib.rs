//! # queryvis-render
//!
//! Render backends for QueryVis diagrams. Since the scene-graph
//! rearchitecture, the geometric backends are thin walkers over the
//! [`Scene`] display-list IR produced by `queryvis-layout`: layout runs
//! once, [`queryvis_layout::build_scene`] resolves it into marks, and
//! [`queryvis_layout::compose_union`] stacks union branches exactly once
//! — so the backends cannot disagree about geometry or union
//! composition.
//!
//! * [`svg`] — standalone SVG styled like the paper's figures: black
//!   table headers with white text, a gray `SELECT` header, yellow
//!   selection rows, gray group-by rows, dashed ∄ boxes, double-lined ∀
//!   boxes, arrowheads and operator labels on edges.
//! * [`ascii`] — a plain-text rasterization of the same scene for
//!   terminals, examples, and golden tests.
//! * [`dot`] — GraphViz DOT export (HTML-like labels + dashed clusters)
//!   for users who want to reproduce the paper's original GraphViz
//!   rendering pipeline (Appendix A.4, reference 32 of the paper). DOT
//!   is semantic, not geometric — GraphViz lays out itself — so it walks
//!   the diagram, but pulls its label styling from the same
//!   [`style`] classes as the scene backends.
//!
//! Machine clients consume the scene directly: the `queryvis-service`
//! crate serializes it as the `scene_json` format.

pub mod ascii;
pub mod dot;
pub mod style;
pub mod svg;

pub use ascii::to_ascii;
pub use dot::{to_dot, to_dot_union};
pub use svg::{to_svg, SvgTheme};

use queryvis_diagram::Diagram;
use queryvis_layout::{build_scene, layout_diagram, Scene};

/// Convenience: lay out one diagram and resolve it into a single-branch
/// [`Scene`].
pub fn diagram_scene(diagram: &Diagram) -> Scene {
    build_scene(diagram, &layout_diagram(diagram))
}

/// Convenience: lay out and render a diagram as SVG in the default theme.
pub fn render_svg(diagram: &Diagram) -> String {
    to_svg(&diagram_scene(diagram), &SvgTheme::default())
}

/// Convenience: lay out and render a diagram as plain text.
pub fn render_ascii(diagram: &Diagram) -> String {
    to_ascii(&diagram_scene(diagram))
}
