//! SVG rendering, styled after the paper's figures.
//!
//! A thin [`Scene`] walker: every coordinate, label, and derived rect
//! (the ∀ inner line, union offsets) comes pre-resolved from the scene;
//! this module only maps style classes to theme colors and text anchors
//! to SVG baselines. It contains no layout arithmetic.

use queryvis_layout::{
    write_tenths, write_whole, EdgeKind, Mark, MarkRole, Rect, Scene, StyleClass, TextRole,
};

/// Colors and strokes for the SVG output. Defaults mirror the paper (black
/// headers, lighter SELECT header, yellow selection rows, gray group rows)
/// and are shared with the DOT exporter's fixed palette
/// (see [`crate::style`]).
#[derive(Debug, Clone)]
pub struct SvgTheme {
    pub background: String,
    pub header_fill: String,
    pub header_text: String,
    pub select_header_fill: String,
    pub select_header_text: String,
    pub row_fill: String,
    pub selection_row_fill: String,
    pub group_row_fill: String,
    pub border: String,
    pub edge: String,
    pub font_family: String,
    pub font_size: f64,
}

impl Default for SvgTheme {
    fn default() -> Self {
        SvgTheme {
            background: "#ffffff".into(),
            header_fill: crate::style::HEADER_FILL.into(),
            header_text: "#ffffff".into(),
            select_header_fill: crate::style::SELECT_HEADER_FILL.into(),
            select_header_text: "#000000".into(),
            row_fill: "#ffffff".into(),
            selection_row_fill: crate::style::SELECTION_ROW_FILL.into(),
            group_row_fill: crate::style::GROUP_ROW_FILL.into(),
            border: "#333333".into(),
            edge: "#222222".into(),
            font_family: "Helvetica, Arial, sans-serif".into(),
            font_size: 12.0,
        }
    }
}

/// Append `text` with the five XML special characters escaped, in one
/// pass: clean runs are copied whole (every special byte is ASCII, so run
/// boundaries are char boundaries).
fn push_escaped(out: &mut String, text: &str) {
    let mut run = 0;
    for (i, byte) in text.bytes().enumerate() {
        let entity = match byte {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'\'' => "&apos;",
            b'"' => "&quot;",
            _ => continue,
        };
        out.push_str(&text[run..i]);
        out.push_str(entity);
        run = i + 1;
    }
    out.push_str(&text[run..]);
}

/// Append ` name="value"` for each pair, the value printed as `{:.1}`.
fn push_tenths(out: &mut String, attrs: &[(&str, f64)]) {
    for &(name, value) in attrs {
        out.push(' ');
        out.push_str(name);
        out.push_str("=\"");
        write_tenths(out, value);
        out.push('"');
    }
}

/// Render a scene as a standalone SVG document.
pub fn to_svg(scene: &Scene, theme: &SvgTheme) -> String {
    let mut out = String::with_capacity(2048);
    write_svg(&mut out, scene, theme);
    out
}

/// [`to_svg`] into a caller-owned buffer (the serving layer renders into
/// reusable per-worker buffers).
///
/// Written with plain pushes and the scene's number writers, not
/// `write!`: coordinates print as `{:.1}` would print them, document
/// extents, corner radii and the font size as `{:.0}`.
pub fn write_svg(out: &mut String, scene: &Scene, theme: &SvgTheme) {
    // ` font-family="…" font-size="…"` is shared by every text element.
    let mut font = String::with_capacity(64);
    font.push_str(" font-family=\"");
    font.push_str(&theme.font_family);
    font.push_str("\" font-size=\"");
    write_whole(&mut font, theme.font_size);
    font.push('"');
    let svg = Svg { theme, font };

    out.push_str(r#"<svg xmlns="http://www.w3.org/2000/svg" width=""#);
    write_whole(out, scene.width);
    out.push_str(r#"" height=""#);
    write_whole(out, scene.height);
    out.push_str(r#"" viewBox="0 0 "#);
    write_whole(out, scene.width);
    out.push(' ');
    write_whole(out, scene.height);
    out.push_str("\">\n");
    out.push_str(r#"<defs><marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" markerWidth="7" markerHeight="7" orient="auto-start-reverse"><path d="M 0 0 L 10 5 L 0 10 z" fill=""#);
    out.push_str(&theme.edge);
    out.push_str("\"/></marker></defs>\n");
    out.push_str(r#"<rect x="0" y="0" width=""#);
    write_whole(out, scene.width);
    out.push_str(r#"" height=""#);
    write_whole(out, scene.height);
    out.push_str(r#"" fill=""#);
    out.push_str(&theme.background);
    out.push_str("\"/>\n");
    if let [branch] = scene.branches.as_slice() {
        svg.marks(out, &branch.marks);
    } else {
        for (i, branch) in scene.branches.iter().enumerate() {
            if i > 0 {
                // The union badge: a rule with the connective label on it.
                let badge = &scene.badges[i - 1];
                out.push_str(r#"<line x1="0""#);
                push_tenths(
                    out,
                    &[
                        ("y1", badge.y_mid),
                        ("x2", scene.width),
                        ("y2", badge.y_mid),
                    ],
                );
                out.push_str(r#" stroke=""#);
                out.push_str(&theme.border);
                out.push_str(
                    "\" stroke-width=\"1\" stroke-dasharray=\"2,3\" class=\"union-rule\"/>\n",
                );
                svg.text_open(out, scene.width / 2.0, badge.y_mid - 4.0);
                out.push_str(r#" font-weight="bold" fill=""#);
                out.push_str(&theme.border);
                out.push_str(r#"" class="union-badge">"#);
                out.push_str(&badge.label);
                out.push_str("</text>\n");
            }
            out.push_str(r#"<g transform="translate(0,"#);
            write_tenths(out, branch.dy);
            out.push_str(")\" class=\"union-branch\">\n");
            svg.marks(out, &branch.marks);
            out.push_str("</g>\n");
        }
    }
    out.push_str("</svg>\n");
}

/// Per-document writer state: the theme plus its pre-rendered font
/// attributes.
struct Svg<'a> {
    theme: &'a SvgTheme,
    font: String,
}

impl Svg<'_> {
    /// `<text x="{:.1}" y="{:.1}" text-anchor="middle" font-family=… font-size=…`
    fn text_open(&self, out: &mut String, x: f64, y: f64) {
        out.push_str("<text");
        push_tenths(out, &[("x", x), ("y", y)]);
        out.push_str(r#" text-anchor="middle""#);
        out.push_str(&self.font);
    }

    /// `<rect x=… y=… width=… height=…` (all `{:.1}`), then the rest.
    fn rect_open(&self, out: &mut String, r: &Rect) {
        out.push_str("<rect");
        push_tenths(
            out,
            &[("x", r.x), ("y", r.y), ("width", r.w), ("height", r.h)],
        );
    }

    /// A header or row band: ` fill="…" stroke="…" class="…"/>`.
    fn band(&self, out: &mut String, r: &Rect, fill: &str, class: &str) {
        self.rect_open(out, r);
        out.push_str(r#" fill=""#);
        out.push_str(fill);
        out.push_str(r#"" stroke=""#);
        out.push_str(&self.theme.border);
        out.push_str(r#"" class=""#);
        out.push_str(class);
        out.push_str("\"/>\n");
    }

    /// Write one branch's marks into an open SVG context, in scene paint
    /// order.
    fn marks(&self, out: &mut String, marks: &[Mark]) {
        let theme = self.theme;
        for mark in marks {
            match mark {
                Mark::Rect(rect) => {
                    let r = &rect.rect;
                    match rect.role {
                        // Vector media tile the frame with header + row bands.
                        MarkRole::Frame => {}
                        MarkRole::QuantifierBox => {
                            let (extra, class) = match rect.class {
                                StyleClass::BoxNotExists => {
                                    (r#" stroke-dasharray="6,4""#, "box not-exists")
                                }
                                StyleClass::BoxForAll => ("", "box for-all"),
                                _ => ("", "box for-all-inner"),
                            };
                            self.rect_open(out, r);
                            out.push_str(r#" rx=""#);
                            write_whole(out, rect.radius);
                            out.push_str(r#"" fill="none" stroke=""#);
                            out.push_str(&theme.border);
                            out.push_str(r#"" stroke-width="1.5""#);
                            out.push_str(extra);
                            out.push_str(r#" class=""#);
                            out.push_str(class);
                            out.push_str("\"/>\n");
                        }
                        MarkRole::Header => {
                            let fill = if rect.class == StyleClass::HeaderSelect {
                                &theme.select_header_fill
                            } else {
                                &theme.header_fill
                            };
                            self.band(out, r, fill, "header");
                        }
                        MarkRole::Row => {
                            let fill = match rect.class {
                                StyleClass::RowSelection => &theme.selection_row_fill,
                                StyleClass::RowGroup => &theme.group_row_fill,
                                _ => &theme.row_fill,
                            };
                            self.band(out, r, fill, "row");
                        }
                    }
                }
                Mark::Text(text) => {
                    let fill = match text.role {
                        // Char-medium decoration; the box style already
                        // encodes it.
                        TextRole::TitleAnnotation => continue,
                        // Edge labels are emitted with their edge mark
                        // below, so the scene may omit them as standalone
                        // runs.
                        TextRole::EdgeLabel => continue,
                        TextRole::Title if text.class == StyleClass::HeaderSelect => {
                            &theme.select_header_text
                        }
                        TextRole::Title => &theme.header_text,
                        TextRole::RowText => "#000000",
                    };
                    let baseline = text.anchor.y + theme.font_size / 3.0;
                    self.text_open(out, text.anchor.x, baseline);
                    if text.role == TextRole::Title {
                        out.push_str(r#" font-weight="bold""#);
                    }
                    out.push_str(r#" fill=""#);
                    out.push_str(fill);
                    out.push_str("\">");
                    push_escaped(out, &text.text);
                    out.push_str("</text>\n");
                }
                Mark::Edge(edge) => {
                    out.push_str("<line");
                    push_tenths(
                        out,
                        &[
                            ("x1", edge.from.x),
                            ("y1", edge.from.y),
                            ("x2", edge.to.x),
                            ("y2", edge.to.y),
                        ],
                    );
                    out.push_str(r#" stroke=""#);
                    out.push_str(&theme.edge);
                    out.push_str(r#"" stroke-width="1.4""#);
                    if edge.kind == EdgeKind::Directed {
                        out.push_str(r#" marker-end="url(#arrow)""#);
                    }
                    out.push_str(" class=\"edge\"/>\n");
                    if let Some(label) = &edge.label {
                        self.text_open(out, edge.label_pos.x, edge.label_pos.y);
                        out.push_str(r#" font-weight="bold" fill=""#);
                        out.push_str(&theme.edge);
                        out.push_str(r#"" class="edge-label">"#);
                        push_escaped(out, label);
                        out.push_str("</text>\n");
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagram_scene;
    use queryvis_diagram::build_diagram;
    use queryvis_layout::compose_union;
    use queryvis_logic::{simplify, translate};
    use queryvis_sql::parse_query;

    fn svg(sql: &str, simplified: bool) -> String {
        let lt = translate(&parse_query(sql).unwrap(), None).unwrap();
        let lt = if simplified { simplify(&lt) } else { lt };
        let d = build_diagram(&lt);
        to_svg(&diagram_scene(&d), &SvgTheme::default())
    }

    const QONLY: &str = "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
        (SELECT * FROM Serves S WHERE S.bar = F.bar AND NOT EXISTS \
        (SELECT L.drink FROM Likes L WHERE L.person = F.person AND S.drink = L.drink))";

    #[test]
    fn svg_is_well_formed_enough() {
        let s = svg(QONLY, false);
        assert!(s.starts_with("<svg"));
        assert!(s.trim_end().ends_with("</svg>"));
        assert_eq!(s.matches("<svg").count(), 1);
        // Every mark element is self-closing; nothing is left unterminated.
        for tag in ["<rect", "<line", "<text", "<path"] {
            assert!(
                s.matches(tag).count() > 0 || tag == "<path",
                "{tag} missing"
            );
        }
        assert_eq!(s.matches("<text").count(), s.matches("</text>").count());
    }

    #[test]
    fn dashed_box_for_not_exists() {
        let s = svg(QONLY, false);
        assert_eq!(s.matches("stroke-dasharray").count(), 2);
        assert!(!s.contains("for-all"));
    }

    #[test]
    fn double_box_for_forall() {
        let s = svg(QONLY, true);
        assert!(s.contains(r#"class="box for-all""#));
        assert!(s.contains(r#"class="box for-all-inner""#));
        assert_eq!(s.matches("stroke-dasharray").count(), 0);
    }

    #[test]
    fn arrowheads_present_on_directed_edges() {
        let s = svg(QONLY, false);
        assert_eq!(s.matches("marker-end").count(), 3);
    }

    #[test]
    fn selection_row_highlighted() {
        let s = svg("SELECT B.bid FROM Boat B WHERE B.color = 'red'", false);
        assert!(s.contains("#ffe9a8"));
        assert!(s.contains("color = &apos;red&apos;"));
    }

    #[test]
    fn label_rendered_for_inequality() {
        let s = svg("SELECT A.x FROM T A, T B WHERE A.x <> B.x", false);
        assert!(s.contains("&lt;&gt;"));
    }

    #[test]
    fn select_header_uses_light_fill() {
        let s = svg("SELECT L.beer FROM Likes L", false);
        assert!(s.contains("#bdbdbd"));
    }

    #[test]
    fn union_scene_renders_badge_and_branch_groups() {
        let scenes: Vec<_> = [
            "SELECT F.person FROM Frequents F WHERE F.bar = 'Owl'",
            "SELECT L.person FROM Likes L WHERE L.beer = 'IPA'",
        ]
        .iter()
        .map(|sql| {
            diagram_scene(&build_diagram(
                &translate(&parse_query(sql).unwrap(), None).unwrap(),
            ))
        })
        .collect();
        let s = to_svg(&compose_union(scenes, false), &SvgTheme::default());
        assert_eq!(s.matches("<svg").count(), 1);
        assert!(s.contains(">UNION</text>"));
        assert_eq!(s.matches(r#"class="union-branch""#).count(), 2);
        assert_eq!(s.matches(r#"class="union-rule""#).count(), 1);
    }
}
