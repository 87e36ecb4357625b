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
//!
//! The grid is written line by line with no rescanning. A branch's rows
//! sit in one flat list, each row's char count taken once. Its columns are
//! ranges over one list of table indices, sorted by x and then, within
//! each column, by y. Each column keeps a cursor, its current table and
//! that table's line, which advances one line per output line. Padding,
//! rules and the badge fill are cut from constant runs.

use queryvis_layout::{
    lit, Carrier, EdgeKind, EdgeMark, Mark, MarkRole, Scene, StyleClass, TextRole,
};
use std::cmp::Ordering;
use std::ops::Range;

/// Width of the `====… UNION …====` badge line between union branches.
const BADGE_WIDTH: usize = 35;

/// The constant runs padding, rules and the badge fill are cut from.
const SPACES: &str = "                                ";
const DASHES: &str = "--------------------------------";
const EQUALS: &str = "================================";

/// Append `n` chars of `run`, a run of one ASCII char, in slices of it.
fn push_run(out: &mut String, run: &str, mut n: usize) {
    while n > 0 {
        let take = n.min(run.len());
        out.push_str(&run[..take]);
        n -= take;
    }
}

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
            push_run(out.plain(), EQUALS, pad / 2 + pad % 2);
            out.plain().push(' ');
            out.text(label);
            out.plain().push(' ');
            push_run(out.plain(), EQUALS, pad / 2);
            out.lit(lit!("\n"));
        }
        write_branch(out, &branch.marks);
    }
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

/// One row run of a branch, borrowed from the scene.
struct Row<'a> {
    marker: char,
    text: &'a str,
    /// `text`'s char count.
    chars: usize,
}

/// A branch's text runs, in paint order: every table's title pieces, and
/// every table's rows.
#[derive(Default)]
struct Runs<'a> {
    titles: Vec<&'a str>,
    rows: Vec<Row<'a>>,
}

/// One table box, rebuilt from the display list: the frame rect plus the
/// content runs that followed it in paint order, drawn line by line
/// straight into the output.
struct Block {
    x: f64,
    right: f64,
    y: f64,
    /// The title's pieces in [`Runs::titles`]: the first non-empty title
    /// run, then `" "` and each annotation run after it.
    title: Range<usize>,
    /// The title's char count.
    title_chars: usize,
    /// The table's rows in [`Runs::rows`].
    rows: Range<usize>,
    /// Interior width in chars: the widest of the title and the rows
    /// (each row one char wider for its marker).
    width: usize,
}

impl Block {
    /// Box height in lines: three rules, the title, the rows.
    fn height(&self) -> usize {
        self.rows.len() + 4
    }

    /// Write line `line` of the box: a `+---+` rule, `| title |`, or
    /// `| <marker>row |`, padded to the box width.
    fn write_line<C: Carrier>(&self, out: &mut C, runs: &Runs, line: usize) {
        if line == 0 || line == 2 || line == self.height() - 1 {
            let rule = out.plain();
            rule.push('+');
            push_run(rule, DASHES, self.width + 2);
            rule.push('+');
            return;
        }
        out.plain().push_str("| ");
        let used = if line == 1 {
            for piece in &runs.titles[self.title.clone()] {
                out.text(piece);
            }
            self.title_chars
        } else {
            let row = &runs.rows[self.rows.start + line - 3];
            out.plain().push(row.marker);
            out.text(row.text);
            row.chars + 1
        };
        push_run(out.plain(), SPACES, self.width - used);
        out.plain().push_str(" |");
    }
}

/// Where a column's output stands: the position of its current table in
/// the sorted index list, and that table's line. The line one past the
/// table's last is the blank line below it.
struct Cursor {
    at: usize,
    line: usize,
}

fn write_branch<C: Carrier>(out: &mut C, marks: &[Mark]) {
    // -------- Pass 1: rebuild per-table content from mark order --------
    // A Frame rect opens a table; Title/Annotation/RowText runs up to the
    // next Frame belong to it, and so sit at the end of the run lists
    // while it is open. Edge marks feed the legend.
    let mut blocks: Vec<Block> = Vec::new();
    let mut runs = Runs::default();
    let mut edges: Vec<&EdgeMark> = Vec::new();
    for mark in marks {
        match mark {
            Mark::Rect(rect) if rect.role == MarkRole::Frame => blocks.push(Block {
                x: rect.rect.x,
                right: rect.rect.right(),
                y: rect.rect.y,
                title: runs.titles.len()..runs.titles.len(),
                title_chars: 0,
                rows: runs.rows.len()..runs.rows.len(),
                width: 0,
            }),
            Mark::Text(text) => {
                if let Some(block) = blocks.last_mut() {
                    match text.role {
                        TextRole::Title if block.title_chars == 0 => {
                            runs.titles.truncate(block.title.start);
                            runs.titles.push(&text.text);
                            block.title_chars = text.text.chars().count();
                        }
                        TextRole::TitleAnnotation => {
                            runs.titles.extend([" ", text.text.as_str()]);
                            block.title_chars += 1 + text.text.chars().count();
                        }
                        TextRole::RowText => {
                            let chars = text.text.chars().count();
                            runs.rows.push(Row {
                                marker: marker(text.class),
                                text: &text.text,
                                chars,
                            });
                            block.width = block.width.max(chars + 1);
                        }
                        TextRole::Title | TextRole::EdgeLabel => {}
                    }
                    block.title.end = runs.titles.len();
                    block.rows.end = runs.rows.len();
                }
            }
            Mark::Edge(edge) => edges.push(edge),
            Mark::Rect(_) => {}
        }
    }
    for block in &mut blocks {
        block.width = block.width.max(block.title_chars);
    }

    // -------- Pass 2: project x → column, y → order within column --------
    // Tables of one layout column overlap horizontally (they share the
    // column's center); distinct columns are separated by the column gap.
    // Chaining x-overlaps therefore recovers the column structure without
    // re-deriving it. Box interiors size to their text in char cells;
    // positions (columns, stacking) come from the scene geometry.
    let by = |key: fn(&Block) -> f64| {
        let blocks = &blocks;
        move |&a: &usize, &b: &usize| {
            key(&blocks[a])
                .partial_cmp(&key(&blocks[b]))
                .unwrap_or(Ordering::Equal)
                .then(a.cmp(&b))
        }
    };
    let mut order: Vec<usize> = (0..blocks.len()).collect();
    order.sort_by(by(|block| block.x));
    let mut columns: Vec<Range<usize>> = Vec::new();
    let mut column_right = f64::NEG_INFINITY;
    for (at, &idx) in order.iter().enumerate() {
        let block = &blocks[idx];
        if columns.is_empty() || block.x >= column_right {
            columns.push(at..at);
            column_right = block.right;
        } else {
            column_right = column_right.max(block.right);
        }
        columns.last_mut().expect("non-empty").end = at + 1;
    }
    for column in &columns {
        order[column.clone()].sort_by(by(|block| block.y));
    }

    // -------- Pass 3: stack within columns, join side by side --------
    // A column is its boxes top to bottom with one blank line between
    // them; each column pads to its widest box plus a three-space gutter.
    // Trailing blanks are never written: box lines end in `+` or `|`, so
    // a line ends at its last non-blank cell.
    let column_blocks = |column: &Range<usize>| order[column.clone()].iter().map(|&id| &blocks[id]);
    let widths: Vec<usize> = columns
        .iter()
        .map(|column| {
            column_blocks(column)
                .map(|block| block.width + 4)
                .max()
                .unwrap_or(0)
        })
        .collect();
    let max_height = columns
        .iter()
        .map(|column| {
            column_blocks(column)
                .map(|block| block.height() + 1)
                .sum::<usize>()
                - 1
        })
        .max()
        .unwrap_or(0);
    let mut cursors: Vec<Cursor> = columns
        .iter()
        .map(|column| Cursor {
            at: column.start,
            line: 0,
        })
        .collect();
    for _ in 0..max_height {
        let mut pending = 0;
        for ((column, cursor), &width) in columns.iter().zip(&mut cursors).zip(&widths) {
            let block = (cursor.at < column.end).then(|| &blocks[order[cursor.at]]);
            match block {
                Some(block) if cursor.line < block.height() => {
                    push_run(out.plain(), SPACES, pending);
                    block.write_line(out, &runs, cursor.line);
                    pending = width - (block.width + 4) + 3;
                    cursor.line += 1;
                }
                _ => {
                    // A blank cell: the line below a table, which moves
                    // the cursor to the next, or past the column's end.
                    pending += width + 3;
                    if block.is_some() {
                        cursor.at += 1;
                        cursor.line = 0;
                    }
                }
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
