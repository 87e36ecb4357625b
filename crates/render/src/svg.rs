//! SVG rendering, styled after the paper's figures.
//!
//! A thin [`Scene`] walker: every coordinate, label, and derived rect
//! (the ∀ inner line, union offsets) comes pre-resolved from the scene;
//! this module only maps style classes to theme colors and text anchors
//! to SVG baselines. It contains no layout arithmetic.

use queryvis_layout::{
    lit, write_tenths, write_whole, Carrier, EdgeKind, Lit, Mark, MarkRole, Rect, Scene,
    StyleClass, TextRole,
};
use std::marker::PhantomData;

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
/// pass: clean runs go to `out` whole as text (every special byte is
/// ASCII, so run boundaries are char boundaries), each entity as a `lit!`.
fn push_escaped<C: Carrier>(out: &mut C, text: &str) {
    let mut run = 0;
    for (i, byte) in text.bytes().enumerate() {
        let entity = match byte {
            b'&' => lit!("&amp;"),
            b'<' => lit!("&lt;"),
            b'>' => lit!("&gt;"),
            b'\'' => lit!("&apos;"),
            b'"' => lit!("&quot;"),
            _ => continue,
        };
        out.text(&text[run..i]);
        out.lit(entity);
        run = i + 1;
    }
    out.text(&text[run..]);
}

/// `value` XML-escaped, in `C`'s form: a theme value formed once per
/// document and copied into every mark that uses it.
fn formed<C: Carrier>(value: &str) -> String {
    let mut out = C::default();
    push_escaped(&mut out, value);
    std::mem::take(out.plain())
}

/// Append ` name="value"` for each pair, the value printed as `{:.1}`.
fn push_tenths<C: Carrier>(out: &mut C, attrs: &[(Lit, f64)]) {
    for &(name, value) in attrs {
        out.lit(name);
        write_tenths(out.plain(), value);
        out.lit(lit!("\""));
    }
}

/// Render a scene as a standalone SVG document.
pub fn to_svg(scene: &Scene, theme: &SvgTheme) -> String {
    let mut out = String::with_capacity(2048);
    write_svg(&mut out, scene, theme);
    out
}

/// [`to_svg`] into a caller-owned [`Carrier`]: a `String`, or the
/// JSON-escaped form a service reply stores.
///
/// Written with plain pushes and the scene's number writers, not
/// `write!`: coordinates print as `{:.1}` would print them, document
/// extents, corner radii and the font size as `{:.0}`. Theme values are
/// XML-escaped, since a CSS font list may quote a family name.
pub fn write_svg<C: Carrier>(out: &mut C, scene: &Scene, theme: &SvgTheme) {
    let svg = Svg::<C>::new(theme);
    out.lit(lit!(r#"<svg xmlns="http://www.w3.org/2000/svg" width=""#));
    write_whole(out.plain(), scene.width);
    out.lit(lit!(r#"" height=""#));
    write_whole(out.plain(), scene.height);
    out.lit(lit!(r#"" viewBox="0 0 "#));
    write_whole(out.plain(), scene.width);
    out.plain().push(' ');
    write_whole(out.plain(), scene.height);
    out.lit(lit!("\">\n"));
    out.lit(lit!(r#"<defs><marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" markerWidth="7" markerHeight="7" orient="auto-start-reverse"><path d="M 0 0 L 10 5 L 0 10 z" fill=""#));
    out.plain().push_str(&svg.theme.edge);
    out.lit(lit!("\"/></marker></defs>\n"));
    out.lit(lit!(r#"<rect x="0" y="0" width=""#));
    write_whole(out.plain(), scene.width);
    out.lit(lit!(r#"" height=""#));
    write_whole(out.plain(), scene.height);
    out.lit(lit!(r#"" fill=""#));
    out.plain().push_str(&svg.theme.background);
    out.lit(lit!("\"/>\n"));
    if let [branch] = scene.branches.as_slice() {
        svg.marks(out, &branch.marks);
    } else {
        for (i, branch) in scene.branches.iter().enumerate() {
            if i > 0 {
                // The union badge: a rule with the connective label on it.
                let badge = &scene.badges[i - 1];
                out.lit(lit!(r#"<line x1="0""#));
                push_tenths(
                    out,
                    &[
                        (lit!(r#" y1=""#), badge.y_mid),
                        (lit!(r#" x2=""#), scene.width),
                        (lit!(r#" y2=""#), badge.y_mid),
                    ],
                );
                out.lit(lit!(r#" stroke=""#));
                out.plain().push_str(&svg.theme.border);
                out.lit(lit!(
                    "\" stroke-width=\"1\" stroke-dasharray=\"2,3\" class=\"union-rule\"/>\n"
                ));
                svg.text_open(out, scene.width / 2.0, badge.y_mid - 4.0);
                out.lit(lit!(r#" font-weight="bold" fill=""#));
                out.plain().push_str(&svg.theme.border);
                out.lit(lit!(r#"" class="union-badge">"#));
                out.text(&badge.label);
                out.lit(lit!("</text>\n"));
            }
            out.lit(lit!(r#"<g transform="translate(0,"#));
            write_tenths(out.plain(), branch.dy);
            out.lit(lit!(")\" class=\"union-branch\">\n"));
            svg.marks(out, &branch.marks);
            out.lit(lit!("</g>\n"));
        }
    }
    out.lit(lit!("</svg>\n"));
}

/// Per-document writer state: the theme with each value formed in the
/// carrier's form, plus the pre-rendered font attributes.
struct Svg<C> {
    /// The caller's theme, every string XML-escaped and in `C`'s form.
    theme: SvgTheme,
    /// ` font-family="…" font-size="…"`, in `C`'s form.
    font: String,
    carrier: PhantomData<C>,
}

impl<C: Carrier> Svg<C> {
    fn new(theme: &SvgTheme) -> Self {
        let mut font = C::default();
        font.lit(lit!(r#" font-family=""#));
        push_escaped(&mut font, &theme.font_family);
        font.lit(lit!(r#"" font-size=""#));
        write_whole(font.plain(), theme.font_size);
        font.lit(lit!("\""));
        Svg {
            theme: SvgTheme {
                background: formed::<C>(&theme.background),
                header_fill: formed::<C>(&theme.header_fill),
                header_text: formed::<C>(&theme.header_text),
                select_header_fill: formed::<C>(&theme.select_header_fill),
                select_header_text: formed::<C>(&theme.select_header_text),
                row_fill: formed::<C>(&theme.row_fill),
                selection_row_fill: formed::<C>(&theme.selection_row_fill),
                group_row_fill: formed::<C>(&theme.group_row_fill),
                border: formed::<C>(&theme.border),
                edge: formed::<C>(&theme.edge),
                // Unused: `font` holds the whole attribute pair.
                font_family: String::new(),
                font_size: theme.font_size,
            },
            font: std::mem::take(font.plain()),
            carrier: PhantomData,
        }
    }

    /// `<text x="{:.1}" y="{:.1}" text-anchor="middle" font-family=… font-size=…`
    fn text_open(&self, out: &mut C, x: f64, y: f64) {
        out.lit(lit!("<text"));
        push_tenths(out, &[(lit!(r#" x=""#), x), (lit!(r#" y=""#), y)]);
        out.lit(lit!(r#" text-anchor="middle""#));
        out.plain().push_str(&self.font);
    }

    /// `<rect x=… y=… width=… height=…` (all `{:.1}`), then the rest.
    fn rect_open(&self, out: &mut C, r: &Rect) {
        out.lit(lit!("<rect"));
        push_tenths(
            out,
            &[
                (lit!(r#" x=""#), r.x),
                (lit!(r#" y=""#), r.y),
                (lit!(r#" width=""#), r.w),
                (lit!(r#" height=""#), r.h),
            ],
        );
    }

    /// A header or row band: ` fill="…" stroke="…" class="…"/>`, `fill`
    /// already formed.
    fn band(&self, out: &mut C, r: &Rect, fill: &str, class: Lit) {
        self.rect_open(out, r);
        out.lit(lit!(r#" fill=""#));
        out.plain().push_str(fill);
        out.lit(lit!(r#"" stroke=""#));
        out.plain().push_str(&self.theme.border);
        out.lit(class);
    }

    /// Write one branch's marks into an open SVG context, in scene paint
    /// order.
    fn marks(&self, out: &mut C, marks: &[Mark]) {
        let theme = &self.theme;
        for mark in marks {
            match mark {
                Mark::Rect(rect) => {
                    let r = &rect.rect;
                    match rect.role {
                        // Vector media tile the frame with header + row bands.
                        MarkRole::Frame => {}
                        MarkRole::QuantifierBox => {
                            let class = match rect.class {
                                StyleClass::BoxNotExists => lit!(
                                    "\" stroke-width=\"1.5\" stroke-dasharray=\"6,4\" class=\"box not-exists\"/>\n"
                                ),
                                StyleClass::BoxForAll => {
                                    lit!("\" stroke-width=\"1.5\" class=\"box for-all\"/>\n")
                                }
                                _ => lit!(
                                    "\" stroke-width=\"1.5\" class=\"box for-all-inner\"/>\n"
                                ),
                            };
                            self.rect_open(out, r);
                            out.lit(lit!(r#" rx=""#));
                            write_whole(out.plain(), rect.radius);
                            out.lit(lit!(r#"" fill="none" stroke=""#));
                            out.plain().push_str(&theme.border);
                            out.lit(class);
                        }
                        MarkRole::Header => {
                            let fill = if rect.class == StyleClass::HeaderSelect {
                                &theme.select_header_fill
                            } else {
                                &theme.header_fill
                            };
                            self.band(out, r, fill, lit!("\" class=\"header\"/>\n"));
                        }
                        MarkRole::Row => {
                            let fill = match rect.class {
                                StyleClass::RowSelection => &theme.selection_row_fill,
                                StyleClass::RowGroup => &theme.group_row_fill,
                                _ => &theme.row_fill,
                            };
                            self.band(out, r, fill, lit!("\" class=\"row\"/>\n"));
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
                        out.lit(lit!(r#" font-weight="bold""#));
                    }
                    out.lit(lit!(r#" fill=""#));
                    out.plain().push_str(fill);
                    out.lit(lit!("\">"));
                    push_escaped(out, &text.text);
                    out.lit(lit!("</text>\n"));
                }
                Mark::Edge(edge) => {
                    out.lit(lit!("<line"));
                    push_tenths(
                        out,
                        &[
                            (lit!(r#" x1=""#), edge.from.x),
                            (lit!(r#" y1=""#), edge.from.y),
                            (lit!(r#" x2=""#), edge.to.x),
                            (lit!(r#" y2=""#), edge.to.y),
                        ],
                    );
                    out.lit(lit!(r#" stroke=""#));
                    out.plain().push_str(&theme.edge);
                    out.lit(lit!(r#"" stroke-width="1.4""#));
                    if edge.kind == EdgeKind::Directed {
                        out.lit(lit!(r#" marker-end="url(#arrow)""#));
                    }
                    out.lit(lit!(" class=\"edge\"/>\n"));
                    if let Some(label) = &edge.label {
                        self.text_open(out, edge.label_pos.x, edge.label_pos.y);
                        out.lit(lit!(r#" font-weight="bold" fill=""#));
                        out.plain().push_str(&theme.edge);
                        out.lit(lit!(r#"" class="edge-label">"#));
                        push_escaped(out, label);
                        out.lit(lit!("</text>\n"));
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
    use queryvis_sql::{parse_query, Names};

    fn lt(sql: &str) -> (queryvis_logic::LogicTree, Names) {
        let mut names = Names::new();
        let query = parse_query(sql, &mut names).unwrap();
        (translate(&query, None, &mut names).unwrap(), names)
    }

    fn scene_of(sql: &str) -> queryvis_layout::Scene {
        let (tree, names) = lt(sql);
        diagram_scene(&build_diagram(&tree), &names)
    }

    fn svg(sql: &str, simplified: bool) -> String {
        let (lt, names) = lt(sql);
        let lt = if simplified { simplify(&lt) } else { lt };
        let d = build_diagram(&lt);
        to_svg(&diagram_scene(&d, &names), &SvgTheme::default())
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

    /// Theme values are XML-escaped: a CSS font list quoting a family
    /// name must not close the attribute early.
    #[test]
    fn theme_values_are_escaped_into_attributes() {
        let theme = SvgTheme {
            font_family: r#""Helvetica Neue", Arial"#.into(),
            edge: "#222<>".into(),
            ..SvgTheme::default()
        };
        let scene = scene_of("SELECT A.x FROM T A, T B WHERE A.x <> B.x");
        let s = to_svg(&scene, &theme);
        assert!(s.contains(r#"font-family="&quot;Helvetica Neue&quot;, Arial""#));
        assert!(s.contains(r##"stroke="#222&lt;&gt;""##));
        assert!(!s.contains("Neue\""));
    }

    #[test]
    fn union_scene_renders_badge_and_branch_groups() {
        let scenes: Vec<_> = [
            "SELECT F.person FROM Frequents F WHERE F.bar = 'Owl'",
            "SELECT L.person FROM Likes L WHERE L.beer = 'IPA'",
        ]
        .iter()
        .map(|sql| scene_of(sql))
        .collect();
        let s = to_svg(&compose_union(scenes, false), &SvgTheme::default());
        assert_eq!(s.matches("<svg").count(), 1);
        assert!(s.contains(">UNION</text>"));
        assert_eq!(s.matches(r#"class="union-branch""#).count(), 2);
        assert_eq!(s.matches(r#"class="union-rule""#).count(), 1);
    }
}
