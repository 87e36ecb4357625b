//! Plain-text rendering for terminals, examples, and golden tests.
//!
//! A [`Scene`] rasterizer: the shared layout's geometry decides *where*
//! everything goes — which column a table lands in, the stacking order
//! within a column, which tables align — via an x/y → col/row projection,
//! and this module only draws it with box characters. The pre-scene
//! renderer ran a private grid layout here; that is gone, so ASCII and
//! SVG can no longer disagree about arrangement.
//!
//! Widths are measured in **chars**, not bytes (a char-cell medium cannot
//! honor subpixel or multibyte-inflated widths): titles containing ∃/∀/∄
//! or accented identifiers pad correctly. Tables are drawn as boxes, each
//! title annotated with its alias and quantifier symbol; selection rows
//! are marked `*`, group-by rows `#`. Edges are listed below the grid in
//! reading form, straight from the scene's resolved endpoint names.

use queryvis_layout::{
    lit, Carrier, EdgeKind, EdgeMark, Mark, MarkRole, Scene, StyleClass, TextRole,
};

/// Width of the `====… UNION …====` badge line between union branches.
const BADGE_WIDTH: usize = 35;

/// Render a scene as plain text (union branches separated by a badge
/// line).
pub fn to_ascii(scene: &Scene) -> String {
    let mut out = String::with_capacity(1024);
    write_ascii(&mut out, scene);
    out
}

/// [`to_ascii`] into a caller-owned [`Carrier`]: a `String`, or the
/// JSON-escaped form a service reply stores. Box rules and padding read
/// the same in both forms; only names and labels are text.
pub fn write_ascii<C: Carrier>(out: &mut C, scene: &Scene) {
    for (i, branch) in scene.branches.iter().enumerate() {
        if i > 0 {
            let label = &scene.badges[i - 1].label;
            // Project the badge rule into a fixed-width char rule with the
            // label centered on it.
            let pad = BADGE_WIDTH.saturating_sub(label.chars().count() + 2);
            push_repeated(out.plain(), '=', pad / 2 + pad % 2);
            out.plain().push(' ');
            out.text(label);
            out.plain().push(' ');
            push_repeated(out.plain(), '=', pad / 2);
            out.lit(lit!("\n"));
        }
        write_branch(out, &branch.marks);
    }
}

fn push_repeated(out: &mut String, c: char, n: usize) {
    out.extend(std::iter::repeat_n(c, n));
}

/// The ASCII row marker of a row-band style class (shared semantics with
/// the SVG fills and DOT bgcolors — see [`queryvis_layout::scene::row_class`]).
fn marker(class: StyleClass) -> char {
    match class {
        StyleClass::RowSelection => '*',
        StyleClass::RowGroup => '#',
        _ => ' ',
    }
}

/// One table box, rebuilt from the display list: the frame rect plus the
/// content runs that followed it in paint order, borrowed from the scene
/// and drawn line by line straight into the output.
struct Block<'a> {
    x: f64,
    right: f64,
    y: f64,
    /// The title in pieces: the title run, then `" "` and each annotation.
    title: Vec<&'a str>,
    rows: Vec<(char, &'a str)>,
    /// Interior width in chars: the widest of the title and the rows
    /// (each row one char wider for its marker).
    width: usize,
}

impl Block<'_> {
    /// Box height in lines: three rules, the title, the rows.
    fn height(&self) -> usize {
        self.rows.len() + 4
    }

    /// Write line `line` of the box: a `+---+` rule, `| title |`, or
    /// `| <marker>row |`, padded to the box width.
    fn write_line<C: Carrier>(&self, out: &mut C, line: usize) {
        if line == 0 || line == 2 || line == self.height() - 1 {
            let rule = out.plain();
            rule.push('+');
            push_repeated(rule, '-', self.width + 2);
            rule.push('+');
            return;
        }
        out.plain().push_str("| ");
        let used = if line == 1 {
            self.title.iter().for_each(|piece| out.text(piece));
            chars(&self.title)
        } else {
            let (marker, text) = self.rows[line - 3];
            out.plain().push(marker);
            out.text(text);
            text.chars().count() + 1
        };
        push_repeated(out.plain(), ' ', self.width - used);
        out.plain().push_str(" |");
    }
}

fn chars(pieces: &[&str]) -> usize {
    pieces.iter().map(|piece| piece.chars().count()).sum()
}

fn write_branch<C: Carrier>(out: &mut C, marks: &[Mark]) {
    // -------- Pass 1: rebuild per-table content from mark order --------
    // A Frame rect opens a table; Title/Annotation/RowText runs up to the
    // next Frame belong to it. Edge marks feed the legend.
    let mut blocks: Vec<Block> = Vec::new();
    let mut edges: Vec<&EdgeMark> = Vec::new();
    for mark in marks {
        match mark {
            Mark::Rect(rect) if rect.role == MarkRole::Frame => blocks.push(Block {
                x: rect.rect.x,
                right: rect.rect.right(),
                y: rect.rect.y,
                title: Vec::new(),
                rows: Vec::new(),
                width: 0,
            }),
            Mark::Text(text) => {
                if let Some(block) = blocks.last_mut() {
                    match text.role {
                        TextRole::Title => {
                            if chars(&block.title) == 0 {
                                block.title = vec![&text.text];
                            }
                        }
                        TextRole::TitleAnnotation => {
                            block.title.extend([" ", text.text.as_str()]);
                        }
                        TextRole::RowText => block.rows.push((marker(text.class), &text.text)),
                        TextRole::EdgeLabel => {}
                    }
                }
            }
            Mark::Edge(edge) => edges.push(edge),
            Mark::Rect(_) => {}
        }
    }
    for block in &mut blocks {
        block.width = block
            .rows
            .iter()
            .map(|(_, text)| text.chars().count() + 1)
            .fold(chars(&block.title), usize::max);
    }

    // -------- Pass 2: project x → column, y → order within column --------
    // Tables of one layout column overlap horizontally (they share the
    // column's center); distinct columns are separated by the column gap.
    // Chaining x-overlaps therefore recovers the column structure without
    // re-deriving it. Box interiors size to their text in char cells;
    // positions (columns, stacking) come from the scene geometry.
    let mut order: Vec<usize> = (0..blocks.len()).collect();
    order.sort_by(|&a, &b| {
        blocks[a]
            .x
            .partial_cmp(&blocks[b].x)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut columns: Vec<Vec<usize>> = Vec::new();
    let mut column_right = f64::NEG_INFINITY;
    for idx in order {
        let block = &blocks[idx];
        if columns.is_empty() || block.x >= column_right {
            columns.push(Vec::new());
            column_right = block.right;
        } else {
            column_right = column_right.max(block.right);
        }
        columns.last_mut().expect("non-empty").push(idx);
    }
    for column in &mut columns {
        column.sort_by(|&a, &b| {
            blocks[a]
                .y
                .partial_cmp(&blocks[b].y)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
    }

    // -------- Pass 3: stack within columns, join side by side --------
    // A column is its boxes top to bottom with one blank line between
    // them; each column pads to its widest box plus a three-space gutter.
    // Trailing blanks are never written: box lines end in `+` or `|`, so
    // a line ends at its last non-blank cell.
    let widths: Vec<usize> = columns
        .iter()
        .map(|ids| {
            ids.iter()
                .map(|&id| blocks[id].width + 4)
                .max()
                .unwrap_or(0)
        })
        .collect();
    let max_height = columns
        .iter()
        .map(|ids| ids.iter().map(|&id| blocks[id].height() + 1).sum::<usize>() - 1)
        .max()
        .unwrap_or(0);
    for line in 0..max_height {
        let mut pending = 0;
        for (column, &width) in columns.iter().zip(&widths) {
            match cell(&blocks, column, line) {
                Some((block, block_line)) => {
                    push_repeated(out.plain(), ' ', pending);
                    block.write_line(out, block_line);
                    pending = width - (block.width + 4) + 3;
                }
                None => pending += width + 3,
            }
        }
        out.lit(lit!("\n"));
    }

    // -------- Edge legend --------
    if !edges.is_empty() {
        out.lit(lit!("\n"));
        for edge in edges {
            let arrow = if edge.kind == EdgeKind::Directed {
                " --> "
            } else {
                " --- "
            };
            out.text(&edge.from_text);
            out.plain().push_str(arrow);
            out.text(&edge.to_text);
            if let Some(label) = &edge.label {
                out.plain().push_str(" [");
                out.text(label);
                out.plain().push(']');
            }
            out.lit(lit!("\n"));
        }
    }
}

/// The box (and its line) that `line` of a column shows, or `None` for a
/// blank cell: a separator between boxes, or below the column's end.
fn cell<'b, 'a>(
    blocks: &'b [Block<'a>],
    column: &[usize],
    mut line: usize,
) -> Option<(&'b Block<'a>, usize)> {
    for &id in column {
        let height = blocks[id].height();
        if line < height {
            return Some((&blocks[id], line));
        }
        if line == height {
            return None;
        }
        line -= height + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagram_scene;
    use queryvis_diagram::build_diagram;
    use queryvis_layout::compose_union;
    use queryvis_logic::translate;
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

    fn ascii(sql: &str) -> String {
        to_ascii(&scene_of(sql))
    }

    #[test]
    fn ascii_contains_tables_and_edges() {
        let s = ascii(
            "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
             (SELECT * FROM Serves S WHERE S.bar = F.bar)",
        );
        assert!(s.contains("SELECT"));
        assert!(s.contains("Frequents"));
        assert!(s.contains("Serves (S) \u{2204}"));
        assert!(s.contains("F.bar --> S.bar"));
        assert!(s.contains("SELECT.person --- F.person"));
    }

    #[test]
    fn selection_rows_marked() {
        let s = ascii("SELECT B.bid FROM Boat B WHERE B.color = 'red'");
        assert!(s.contains("*color = 'red'"));
    }

    #[test]
    fn group_rows_marked() {
        let s = ascii("SELECT T.a, COUNT(T.b) FROM T GROUP BY T.a");
        assert!(s.contains("#a"));
        assert!(s.contains("COUNT(b)"));
    }

    #[test]
    fn label_in_edge_legend() {
        let s = ascii("SELECT A.x FROM T A, T B WHERE A.x <> B.x");
        assert!(s.contains("[<>]"));
    }

    #[test]
    fn union_badge_lines_match_legacy_format() {
        let scene = scene_of;
        let a = "SELECT F.person FROM Frequents F";
        let b = "SELECT L.person FROM Likes L";
        let union = to_ascii(&compose_union(vec![scene(a), scene(b)], false));
        assert!(
            union.contains("============== UNION =============="),
            "{union}"
        );
        let union_all = to_ascii(&compose_union(vec![scene(a), scene(b)], true));
        assert!(
            union_all.contains("============ UNION ALL ============"),
            "{union_all}"
        );
    }

    /// Multibyte regression: a quantified table (∄ in the title) and a
    /// unicode literal in a selection row must measure in *chars*. The
    /// byte-counting bug inflated the box width by 2 per non-ASCII symbol,
    /// so the widest row no longer sat flush against its border.
    #[test]
    fn multibyte_text_keeps_boxes_aligned() {
        let s = ascii(
            "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
             (SELECT * FROM Serves S WHERE S.bar = F.bar AND S.drink = 'Žatec beer')",
        );
        // The widest row of the Serves block sits flush: exactly one space
        // before the closing border, no byte-inflated padding.
        let row = "| *drink = 'Žatec beer' |";
        assert!(s.contains(row), "row not flush against its border:\n{s}");
        // The quantified title pads to the same char width as that row.
        let width = "*drink = 'Žatec beer'".chars().count();
        let title = format!("| {:<width$} |", "Serves (S) \u{2204}");
        assert!(
            s.contains(&title),
            "title misaligned (padded in bytes?):\n{s}"
        );
        // And the block's border rule matches the content width in chars.
        assert!(s.contains(&format!("+{}+", "-".repeat(width + 2))));
    }
}
