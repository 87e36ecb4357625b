//! The **Scene display-list IR** — the single product of layout and the
//! single input to every geometric render backend.
//!
//! "Principles of Query Visualization" argues the visual encoding should
//! be specified once, independent of the output medium. Before this
//! module existed, each backend re-derived geometry on its own: ASCII ran
//! a private grid layout, SVG walked [`Layout`] directly, and the union
//! (multi-branch) stacking logic was triplicated per format. A [`Scene`]
//! fixes that: [`build_scene`] resolves one diagram + one layout into a
//! flat, ordered list of *marks* — rectangles, text runs, and edges with
//! every label already a string — and [`compose_union`] stacks branch
//! scenes (offsets, badges, total extent) exactly once. Backends are
//! then thin walkers: they *project* mark coordinates into their medium
//! (px for SVG, char cells for ASCII, JSON for machine clients) but never
//! invent geometry.
//!
//! Mark order is paint order (painter's algorithm): quantifier boxes
//! first (beneath everything), then edges (beneath tables so lines
//! visually attach to row borders), then tables — for each table a
//! [`MarkRole::Frame`] rect followed by its header, title, rows, and row
//! texts. A sequential consumer (the ASCII rasterizer, a browser canvas)
//! can therefore rebuild per-table structure without lookups: content
//! between one `Frame` and the next belongs to that frame.

use crate::engine::Layout;
use crate::geometry::{Point, Rect};
use queryvis_diagram::{Diagram, RowKind};
use queryvis_logic::Quantifier;

/// Abstract style classes. Backends resolve them to their medium: the SVG
/// theme maps classes to fills/strokes, ASCII to marker glyphs, DOT to
/// HTML-label `bgcolor`s. The class vocabulary — not any backend — is
/// what the diagram model's semantics (selection/group/aggregate rows,
/// ∄ vs ∀ boxes) compile down to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StyleClass {
    /// Black table header (base tables).
    HeaderTable,
    /// Light header of the special `SELECT` table.
    HeaderSelect,
    /// Plain attribute / aggregate row.
    Row,
    /// Selection or HAVING predicate row (yellow in the paper).
    RowSelection,
    /// Group-by row (gray in the paper).
    RowGroup,
    /// ∄ box (dashed).
    BoxNotExists,
    /// ∀ box, outer line (double-lined in the paper).
    BoxForAll,
    /// ∀ box, inner line.
    BoxForAllInner,
    /// Table outline (char-medium border; vector media tile header+rows).
    Frame,
}

/// What a rectangle mark *is* (independent of how it is styled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkRole {
    /// Full table outline (header + rows). Vector backends skip it — the
    /// header and row rects tile the same area — while char backends draw
    /// the border from it.
    Frame,
    /// Table header band.
    Header,
    /// One attribute row band.
    Row,
    /// Quantifier bounding box.
    QuantifierBox,
}

/// What a text run *is*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TextRole {
    /// Table header text (the base-table name, or `SELECT`).
    Title,
    /// Char-medium title addendum: `(alias) ∄`. Vector backends skip it —
    /// they encode the quantifier as box style and omit the alias, exactly
    /// like the paper's figures.
    TitleAnnotation,
    /// One row's display text.
    RowText,
    /// An edge's comparison-operator label.
    EdgeLabel,
}

/// A rectangle mark.
#[derive(Debug, Clone, PartialEq)]
pub struct RectMark {
    /// Stable structural identity (see [`build_scene`]): equal across
    /// rebuilds of edited queries whenever the mark plays the same
    /// structural role, which is what scene diffing keys on.
    pub id: u32,
    pub rect: Rect,
    pub role: MarkRole,
    pub class: StyleClass,
    /// Corner radius (0 for sharp corners; quantifier boxes are rounded).
    pub radius: f64,
}

/// A text run, anchored at the *center* of the band it labels (backends
/// apply their own baseline/centering projection).
#[derive(Debug, Clone, PartialEq)]
pub struct TextMark {
    /// Stable structural identity (see [`build_scene`]).
    pub id: u32,
    pub text: String,
    pub anchor: Point,
    pub role: TextRole,
    /// Style class of the band this text sits on (header/row classes); lets
    /// char backends derive row markers and vector backends pick text color.
    pub class: StyleClass,
}

/// Whether an edge draws an arrowhead at its `to` end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Arrowhead at `to` (the paper's arrow rules, §4.5).
    Directed,
    /// Plain line (equijoin / SELECT membership).
    Undirected,
}

/// An edge mark: a straight polyline between two row anchors, plus the
/// resolved endpoint names every non-geometric medium needs (ASCII's edge
/// legend, a browser client's tooltips).
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeMark {
    /// Stable structural identity (see [`build_scene`]).
    pub id: u32,
    pub from: Point,
    pub to: Point,
    pub kind: EdgeKind,
    /// Operator label text (`<>`, `<`, …); `None` for the unlabeled
    /// equijoin (§4.3.1 minimality).
    pub label: Option<String>,
    /// Where the label is anchored, when present.
    pub label_pos: Point,
    /// Qualified source endpoint, e.g. `F.bar`.
    pub from_text: String,
    /// Qualified target endpoint, e.g. `S.bar`.
    pub to_text: String,
}

/// One mark of the display list.
#[derive(Debug, Clone, PartialEq)]
pub enum Mark {
    Rect(RectMark),
    Text(TextMark),
    Edge(EdgeMark),
}

impl Mark {
    /// The mark's stable structural identity (unique within its branch).
    pub fn id(&self) -> u32 {
        match self {
            Mark::Rect(m) => m.id,
            Mark::Text(m) => m.id,
            Mark::Edge(m) => m.id,
        }
    }
}

/// A mark's structural path (`"rowr:<alias>:<i>"`, `"edge:<from><op><to>"`,
/// …), hashed as its pieces arrive instead of being formatted into a
/// string: FNV-1a 32 (the id's basis) and FNV-1a 64 (the occurrence key)
/// over the same bytes the formatted path would have.
#[derive(Clone, Copy)]
struct Path {
    h32: u32,
    h64: u64,
}

impl Path {
    fn new() -> Path {
        Path {
            h32: 0x811c_9dc5,
            h64: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn str(mut self, s: &str) -> Path {
        for &b in s.as_bytes() {
            self.h32 = (self.h32 ^ u32::from(b)).wrapping_mul(0x0100_0193);
            self.h64 = (self.h64 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// The decimal digits of `n`, as `{n}` prints them.
    fn num(self, n: usize) -> Path {
        self.str(crate::number::fixed_digits(&mut [0; 24], n as u64, 0))
    }
}

/// Assigns mark ids within one branch: FNV-1a over a structural [`Path`]
/// plus an occurrence counter for repeated paths (duplicate aliases),
/// linearly probed to uniqueness. Purely deterministic — two builds of the
/// same diagram assign identical ids, and a mark that survives an edit in
/// the same structural role keeps its id, which is what lets scene diffs
/// pair marks across recompiles. Occurrences are counted per 64-bit path
/// hash, which stands in for the path itself.
struct MarkIds {
    used: std::collections::HashSet<u32>,
    seen: std::collections::HashMap<u64, u32>,
}

impl MarkIds {
    fn new() -> MarkIds {
        MarkIds {
            used: std::collections::HashSet::new(),
            seen: std::collections::HashMap::new(),
        }
    }

    fn id(&mut self, path: Path) -> u32 {
        let occurrence = self.seen.entry(path.h64).or_insert(0);
        *occurrence += 1;
        let mut h = path.h32;
        h ^= *occurrence;
        h = h.wrapping_mul(0x0100_0193);
        while !self.used.insert(h) {
            h = h.wrapping_mul(0x0100_0193) ^ 0x9e37;
        }
        h
    }
}

/// One diagram's marks within a (possibly multi-branch) scene, already
/// offset-assigned by [`compose_union`].
#[derive(Debug, Clone, PartialEq)]
pub struct SceneBranch {
    /// Vertical offset of this branch within the composed scene. Mark
    /// coordinates are branch-local; backends add `dy` (SVG via a group
    /// transform, ASCII by stacking).
    pub dy: f64,
    pub width: f64,
    pub height: f64,
    pub marks: Vec<Mark>,
}

/// The separator band between two union branches: `badges[i]` sits
/// between `branches[i]` and `branches[i + 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneBadge {
    /// Vertical midpoint of the band, in composed-scene coordinates.
    pub y_mid: f64,
    /// `UNION` or `UNION ALL`.
    pub label: String,
}

/// A fully resolved diagram drawing: flat marks, one or more branches,
/// union badges, total extent. Everything any backend needs; nothing any
/// backend may re-derive.
#[derive(Debug, Clone, PartialEq)]
pub struct Scene {
    pub width: f64,
    pub height: f64,
    pub branches: Vec<SceneBranch>,
    pub badges: Vec<SceneBadge>,
    /// True when the branches combine under `UNION ALL`.
    pub union_all: bool,
}

impl Scene {
    /// All marks of all branches, with each branch's offset. (Convenience
    /// for consumers that don't care about branch structure.)
    pub fn marks(&self) -> impl Iterator<Item = (&Mark, f64)> {
        self.branches
            .iter()
            .flat_map(|b| b.marks.iter().map(move |m| (m, b.dy)))
    }
}

/// Height of the separator band between branches of a union scene.
pub const UNION_BADGE_HEIGHT: f64 = 28.0;

/// Inset of the inner line of a ∀ box relative to the outer line.
const FORALL_INNER_INSET: f64 = 3.0;

/// Corner radii of quantifier boxes (outer / ∀-inner).
const BOX_RADIUS: f64 = 8.0;
const BOX_RADIUS_INNER: f64 = 6.0;

/// The style class of one table row — the single row-semantics → style
/// mapping every backend shares (SVG fills, ASCII markers, DOT bgcolors).
pub fn row_class(kind: &RowKind) -> StyleClass {
    match kind {
        RowKind::Selection { .. } | RowKind::Having { .. } => StyleClass::RowSelection,
        RowKind::GroupBy => StyleClass::RowGroup,
        RowKind::Attribute | RowKind::Aggregate { .. } => StyleClass::Row,
    }
}

/// The style class of a table header.
pub fn header_class(is_select: bool) -> StyleClass {
    if is_select {
        StyleClass::HeaderSelect
    } else {
        StyleClass::HeaderTable
    }
}

/// The char-medium title annotation for a table: `(alias)` when the alias
/// differs from the base name, plus the quantifier symbol when the table
/// sits in a box. Empty for plain tables.
pub fn title_annotation(diagram: &Diagram, table: queryvis_diagram::TableId) -> String {
    let t = &diagram.tables[table];
    let mut out = String::new();
    if t.alias != t.name && !t.is_select {
        out.push('(');
        out.push_str(t.alias.as_str());
        out.push(')');
    }
    if let Some(qbox) = diagram.box_of(table) {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(qbox.quantifier.symbol());
    }
    out
}

/// Resolve one laid-out diagram into a single-branch [`Scene`].
///
/// This is the only place diagram topology meets geometry: every label is
/// resolved from its interned [`Symbol`](queryvis_diagram::model) here,
/// every derived rect (the ∀ inner line, text anchors) is computed here,
/// and backends downstream only project.
pub fn build_scene(diagram: &Diagram, layout: &Layout) -> Scene {
    let mut marks: Vec<Mark> = Vec::with_capacity(
        layout.boxes.len() * 2 + layout.edges.len() * 2 + layout.tables.len() * 4,
    );
    let mut ids = MarkIds::new();

    // Quantifier boxes first (beneath tables). Box identity keys on the
    // first table's alias — content-addressed, so box ids survive edits
    // that add or remove *other* boxes (positional indices would shift).
    let box_key = |qbox: &queryvis_diagram::QuantifierBox| {
        qbox.tables
            .first()
            .map_or("", |&t| diagram.tables[t].alias.as_str())
    };
    for bl in &layout.boxes {
        let qbox = &diagram.boxes[bl.box_index];
        match qbox.quantifier {
            Quantifier::NotExists => marks.push(Mark::Rect(RectMark {
                id: ids.id(Path::new().str("box:").str(box_key(qbox)).str(":ne")),
                rect: bl.rect,
                role: MarkRole::QuantifierBox,
                class: StyleClass::BoxNotExists,
                radius: BOX_RADIUS,
            })),
            Quantifier::ForAll => {
                marks.push(Mark::Rect(RectMark {
                    id: ids.id(Path::new().str("box:").str(box_key(qbox)).str(":fa")),
                    rect: bl.rect,
                    role: MarkRole::QuantifierBox,
                    class: StyleClass::BoxForAll,
                    radius: BOX_RADIUS,
                }));
                marks.push(Mark::Rect(RectMark {
                    id: ids.id(Path::new().str("boxi:").str(box_key(qbox))),
                    rect: Rect::new(
                        bl.rect.x + FORALL_INNER_INSET,
                        bl.rect.y + FORALL_INNER_INSET,
                        bl.rect.w - 2.0 * FORALL_INNER_INSET,
                        bl.rect.h - 2.0 * FORALL_INNER_INSET,
                    ),
                    role: MarkRole::QuantifierBox,
                    class: StyleClass::BoxForAllInner,
                    radius: BOX_RADIUS_INNER,
                }));
            }
            Quantifier::Exists => {}
        }
    }

    // Edges beneath tables so lines visually attach to row borders.
    for el in &layout.edges {
        let edge = &diagram.edges[el.edge_index];
        let from_table = &diagram.tables[edge.from.table];
        let to_table = &diagram.tables[edge.to.table];
        let from_text = format!(
            "{}.{}",
            from_table.alias, from_table.rows[edge.from.row].column
        );
        let to_text = format!("{}.{}", to_table.alias, to_table.rows[edge.to.row].column);
        let op = edge.label.map_or("-", |op| op.as_str());
        marks.push(Mark::Edge(EdgeMark {
            id: ids.id(Path::new()
                .str("edge:")
                .str(&from_text)
                .str(op)
                .str(&to_text)),
            from: el.from,
            to: el.to,
            kind: if edge.directed {
                EdgeKind::Directed
            } else {
                EdgeKind::Undirected
            },
            label: edge.label.map(|op| op.as_str().to_string()),
            label_pos: el.label_pos,
            from_text,
            to_text,
        }));
    }

    // Tables: frame, header band + title, then row bands + texts.
    for tl in &layout.tables {
        let table = &diagram.tables[tl.table];
        let alias = table.alias.as_str();
        let header = header_class(table.is_select);
        marks.push(Mark::Rect(RectMark {
            id: ids.id(Path::new().str("frame:").str(alias)),
            rect: tl.rect,
            role: MarkRole::Frame,
            class: StyleClass::Frame,
            radius: 0.0,
        }));
        marks.push(Mark::Rect(RectMark {
            id: ids.id(Path::new().str("hdr:").str(alias)),
            rect: tl.header,
            role: MarkRole::Header,
            class: header,
            radius: 0.0,
        }));
        marks.push(Mark::Text(TextMark {
            id: ids.id(Path::new().str("title:").str(alias)),
            text: table.name.as_str().to_string(),
            anchor: tl.header.center(),
            role: TextRole::Title,
            class: header,
        }));
        let annotation = title_annotation(diagram, tl.table);
        if !annotation.is_empty() {
            marks.push(Mark::Text(TextMark {
                id: ids.id(Path::new().str("ann:").str(alias)),
                text: annotation,
                anchor: tl.header.right_mid(),
                role: TextRole::TitleAnnotation,
                class: header,
            }));
        }
        for (i, row) in table.rows.iter().enumerate() {
            let class = row_class(&row.kind);
            let rect = tl.row_rects[i];
            marks.push(Mark::Rect(RectMark {
                id: ids.id(Path::new().str("rowr:").str(alias).str(":").num(i)),
                rect,
                role: MarkRole::Row,
                class,
                radius: 0.0,
            }));
            marks.push(Mark::Text(TextMark {
                id: ids.id(Path::new().str("rowt:").str(alias).str(":").num(i)),
                text: row.display(),
                anchor: rect.center(),
                role: TextRole::RowText,
                class,
            }));
        }
    }

    Scene {
        width: layout.width,
        height: layout.height,
        branches: vec![SceneBranch {
            dy: 0.0,
            width: layout.width,
            height: layout.height,
            marks,
        }],
        badges: Vec::new(),
        union_all: false,
    }
}

/// Stack branch scenes into one: branches in written order, separated by
/// labeled union badges. This is the **only** place in the workspace that
/// computes union offsets and extents — every backend renders the same
/// stacking because none of them owns it.
pub fn compose_union(scenes: Vec<Scene>, all: bool) -> Scene {
    if scenes.len() == 1 {
        return scenes.into_iter().next().expect("checked length");
    }
    let width = scenes.iter().map(|s| s.width).fold(0.0f64, f64::max);
    let height = scenes.iter().map(|s| s.height).sum::<f64>()
        + UNION_BADGE_HEIGHT * scenes.len().saturating_sub(1) as f64;
    let label = if all { "UNION ALL" } else { "UNION" };
    let mut branches = Vec::with_capacity(scenes.len());
    let mut badges = Vec::with_capacity(scenes.len().saturating_sub(1));
    let mut y = 0.0f64;
    for (i, scene) in scenes.into_iter().enumerate() {
        if i > 0 {
            badges.push(SceneBadge {
                y_mid: y + UNION_BADGE_HEIGHT / 2.0,
                label: label.to_string(),
            });
            y += UNION_BADGE_HEIGHT;
        }
        // Nested compositions flatten: each inner branch (and each inner
        // badge) keeps its own offset relative to the outer stack. Badges
        // are pushed in ascending-y order, preserving the walkers'
        // invariant that `badges[i - 1]` separates branches `i - 1`/`i`.
        for badge in scene.badges {
            badges.push(SceneBadge {
                y_mid: y + badge.y_mid,
                ..badge
            });
        }
        for branch in scene.branches {
            branches.push(SceneBranch {
                dy: y + branch.dy,
                ..branch
            });
        }
        y += scene.height;
    }
    Scene {
        width,
        height,
        branches,
        badges,
        union_all: all,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::layout_diagram;
    use queryvis_diagram::build_diagram;
    use queryvis_logic::translate;
    use queryvis_sql::parse_query;

    fn scene(sql: &str) -> Scene {
        let d = build_diagram(&translate(&parse_query(sql).unwrap(), None).unwrap());
        let l = layout_diagram(&d);
        build_scene(&d, &l)
    }

    const QNEG: &str = "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
         (SELECT * FROM Serves S WHERE S.bar = F.bar)";

    #[test]
    fn scene_marks_cover_the_diagram() {
        let s = scene(QNEG);
        assert_eq!(s.branches.len(), 1);
        let marks = &s.branches[0].marks;
        let frames = marks
            .iter()
            .filter(|m| matches!(m, Mark::Rect(r) if r.role == MarkRole::Frame))
            .count();
        assert_eq!(frames, 3, "SELECT + F + S");
        let boxes = marks
            .iter()
            .filter(|m| matches!(m, Mark::Rect(r) if r.role == MarkRole::QuantifierBox))
            .count();
        assert_eq!(boxes, 1, "one dashed ∄ box");
        let edges: Vec<&EdgeMark> = marks
            .iter()
            .filter_map(|m| match m {
                Mark::Edge(e) => Some(e),
                _ => None,
            })
            .collect();
        assert_eq!(edges.len(), 2);
        assert!(edges
            .iter()
            .any(|e| e.from_text == "F.bar" && e.to_text == "S.bar"));
    }

    #[test]
    fn paint_order_is_boxes_edges_tables() {
        let s = scene(QNEG);
        let marks = &s.branches[0].marks;
        let first_box = marks
            .iter()
            .position(|m| matches!(m, Mark::Rect(r) if r.role == MarkRole::QuantifierBox))
            .unwrap();
        let first_edge = marks
            .iter()
            .position(|m| matches!(m, Mark::Edge(_)))
            .unwrap();
        let first_frame = marks
            .iter()
            .position(|m| matches!(m, Mark::Rect(r) if r.role == MarkRole::Frame))
            .unwrap();
        assert!(first_box < first_edge && first_edge < first_frame);
    }

    #[test]
    fn title_annotation_carries_alias_and_quantifier() {
        let s = scene(QNEG);
        let annotations: Vec<&str> = s.branches[0]
            .marks
            .iter()
            .filter_map(|m| match m {
                Mark::Text(t) if t.role == TextRole::TitleAnnotation => Some(t.text.as_str()),
                _ => None,
            })
            .collect();
        assert!(annotations.contains(&"(S) \u{2204}"), "{annotations:?}");
        assert!(annotations.contains(&"(F)"));
    }

    #[test]
    fn forall_box_emits_inner_line() {
        let d = build_diagram(&queryvis_logic::simplify(
            &translate(
                &parse_query(
                    "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
                     (SELECT * FROM Serves S WHERE S.bar = F.bar AND NOT EXISTS \
                     (SELECT L.drink FROM Likes L WHERE L.person = F.person \
                      AND S.drink = L.drink))",
                )
                .unwrap(),
                None,
            )
            .unwrap(),
        ));
        let l = layout_diagram(&d);
        let s = build_scene(&d, &l);
        let boxes: Vec<&RectMark> = s.branches[0]
            .marks
            .iter()
            .filter_map(|m| match m {
                Mark::Rect(r) if r.role == MarkRole::QuantifierBox => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(boxes.len(), 2, "outer + inner ∀ lines");
        assert_eq!(boxes[0].class, StyleClass::BoxForAll);
        assert_eq!(boxes[1].class, StyleClass::BoxForAllInner);
        assert!(boxes[1].rect.x > boxes[0].rect.x);
        assert!(boxes[1].rect.w < boxes[0].rect.w);
    }

    #[test]
    fn compose_union_stacks_and_badges() {
        let a = scene("SELECT F.person FROM Frequents F");
        let b = scene("SELECT L.person FROM Likes L");
        let (ha, hb) = (a.height, b.height);
        let (wa, wb) = (a.width, b.width);
        let composed = compose_union(vec![a, b], false);
        assert_eq!(composed.branches.len(), 2);
        assert_eq!(composed.badges.len(), 1);
        assert_eq!(composed.badges[0].label, "UNION");
        assert_eq!(composed.width, wa.max(wb));
        assert_eq!(composed.height, ha + hb + UNION_BADGE_HEIGHT);
        assert_eq!(composed.branches[0].dy, 0.0);
        assert_eq!(composed.branches[1].dy, ha + UNION_BADGE_HEIGHT);
        assert_eq!(composed.badges[0].y_mid, ha + UNION_BADGE_HEIGHT / 2.0);
        assert!(!composed.union_all);
    }

    #[test]
    fn nested_composition_flattens_badges_with_branches() {
        let scene_of = |sql: &str| scene(sql);
        let inner = compose_union(
            vec![
                scene_of("SELECT F.person FROM Frequents F"),
                scene_of("SELECT L.person FROM Likes L"),
            ],
            false,
        );
        let inner_heights: Vec<f64> = inner.branches.iter().map(|b| b.height).collect();
        let outer = compose_union(vec![inner, scene_of("SELECT S.bar FROM Serves S")], false);
        // Every consecutive branch pair is separated by exactly one badge:
        // the walkers index `badges[i - 1]` for branch `i`.
        assert_eq!(outer.branches.len(), 3);
        assert_eq!(outer.badges.len(), outer.branches.len() - 1);
        // Badges sit strictly between their neighboring branches, in
        // ascending order.
        for (i, badge) in outer.badges.iter().enumerate() {
            let above = &outer.branches[i];
            let below = &outer.branches[i + 1];
            assert!(
                above.dy + above.height <= badge.y_mid && badge.y_mid <= below.dy,
                "badge {i} not between branches {i}/{}",
                i + 1
            );
        }
        // The inner badge survived the flattening (shifted, not dropped).
        assert_eq!(
            outer.badges[0].y_mid,
            inner_heights[0] + UNION_BADGE_HEIGHT / 2.0
        );
    }

    #[test]
    fn compose_union_single_branch_is_identity() {
        let a = scene(QNEG);
        let composed = compose_union(vec![a.clone()], true);
        assert_eq!(composed, a);
    }
}
