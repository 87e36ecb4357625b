//! The layered layout algorithm.
//!
//! Pipeline: measure tables → assign columns (SELECT, then nesting depth)
//! → group tables by query block → order groups within each column by
//! barycenter passes → assign coordinates → compute quantifier-box rects
//! → anchor edges at row midpoints.
//!
//! Everything is indexed by position, nothing is hashed: per-table values
//! live in vectors indexed by `TableId` (a table's index in
//! `Diagram::tables`), per-group values in the group list, and a table's
//! group membership is one compare of `group_of[t]`. Each row's text is
//! written once, here, as a [`MarkText`] joined from the row-text pieces
//! (`TableRow::text_pieces`): its char count sizes the table, and
//! [`Layout::row_texts`] hands it on to the scene, so no row is resolved
//! twice. Barycenter passes visit each column's group pairs, listed once
//! in edge order, instead of every edge once per column.

use crate::geometry::{Point, Rect};
use crate::text::MarkText;
use queryvis_diagram::{Diagram, TableId};
use queryvis_logic::Names;

// Layout constants, in px; they mirror the paper's visual density.

/// Estimated width of one character of row text.
const CHAR_WIDTH: f64 = 7.2;
/// Height of the table header row.
const HEADER_HEIGHT: f64 = 24.0;
/// Height of one attribute row.
const ROW_HEIGHT: f64 = 20.0;
/// Horizontal padding inside a row.
const CELL_PADDING: f64 = 8.0;
/// Minimum table width.
const MIN_TABLE_WIDTH: f64 = 90.0;
/// Padding between a quantifier box and its tables.
const BOX_PADDING: f64 = 12.0;
/// Horizontal gap between columns.
const COLUMN_GAP: f64 = 70.0;
/// Vertical gap between stacked groups in a column.
const GROUP_GAP: f64 = 34.0;
/// Vertical gap between tables within one group.
const TABLE_GAP: f64 = 14.0;
/// Outer margin of the drawing.
const MARGIN: f64 = 20.0;
/// Number of barycenter ordering sweeps.
const BARYCENTER_PASSES: usize = 3;

/// Geometry of one table composite mark.
#[derive(Debug, Clone)]
pub struct TableLayout {
    pub table: TableId,
    /// Full outline (header + rows).
    pub rect: Rect,
    pub header: Rect,
    pub row_rects: Vec<Rect>,
}

/// Geometry of one quantifier bounding box (indexes `diagram.boxes`).
#[derive(Debug, Clone)]
pub struct BoxLayout {
    pub box_index: usize,
    pub rect: Rect,
}

/// Geometry of one edge (indexes `diagram.edges`).
#[derive(Debug, Clone)]
pub struct EdgeLayout {
    pub edge_index: usize,
    pub from: Point,
    pub to: Point,
    /// Where to place the operator label, if the edge has one.
    pub label_pos: Point,
}

/// A fully positioned diagram.
#[derive(Debug, Clone)]
pub struct Layout {
    /// Exactly one entry per diagram table, in `TableId` order:
    /// `tables[id].table == id`, which [`Layout::table`] indexes by.
    pub tables: Vec<TableLayout>,
    pub boxes: Vec<BoxLayout>,
    pub edges: Vec<EdgeLayout>,
    /// The text of every row, in `TableId` and then row order, written
    /// once: it sized its table here, and
    /// [`build_scene`](crate::build_scene) moves it into the row's mark.
    pub row_texts: Vec<MarkText>,
    /// Total drawing size.
    pub width: f64,
    pub height: f64,
}

impl Layout {
    /// The layout of table `id`.
    pub fn table(&self, id: TableId) -> &TableLayout {
        &self.tables[id]
    }
}

/// Lay out a diagram whose names live in `names` (table widths follow
/// their text).
pub fn layout_diagram(diagram: &Diagram, names: &Names) -> Layout {
    layout_with_passes(diagram, names, BARYCENTER_PASSES)
}

/// [`layout_diagram`] with `barycenter_passes` ordering sweeps (0 keeps
/// the groups in construction order).
fn layout_with_passes(diagram: &Diagram, names: &Names, barycenter_passes: usize) -> Layout {
    let (sizes, row_texts) = measure_tables(diagram, names);

    // -------- Column assignment --------
    // Column 0: SELECT table. Column d+1: tables at nesting depth d.
    // Grouping unit: the LT node (so boxes stay contiguous); the SELECT
    // table forms a group of its own.
    #[derive(Default)]
    struct Group {
        tables: Vec<TableId>,
        column: usize,
        /// Mutable ordering key within the column.
        order: f64,
        /// `BOX_PADDING` when the group's query block is drawn in a
        /// quantifier box, else 0.
        pad: f64,
        /// Footprint, box padding included.
        width: f64,
        height: f64,
    }

    let mut groups = vec![Group {
        tables: vec![diagram.select_table],
        ..Group::default()
    }];
    // Group 0 holds the SELECT table, so no node's group is 0 and
    // `node_group[node] == 0` reads "not met yet".
    let mut group_of: Vec<usize> = vec![0; diagram.tables.len()];
    let nodes = diagram.tables.iter().filter_map(|t| t.node).max();
    let mut node_group: Vec<usize> = vec![0; nodes.map_or(0, |n| n + 1)];
    for table in &diagram.tables {
        if table.is_select {
            continue;
        }
        let node = table.node.expect("non-select tables carry their node");
        if node_group[node] == 0 {
            node_group[node] = groups.len();
            groups.push(Group {
                column: table.depth + 1,
                order: groups.len() as f64,
                ..Group::default()
            });
        }
        let gidx = node_group[node];
        groups[gidx].tables.push(table.id);
        group_of[table.id] = gidx;
    }

    let n_columns = groups.iter().map(|g| g.column).max().unwrap_or(0) + 1;

    // -------- Barycenter ordering --------
    // A group's new order is the mean order of the groups its edges reach
    // outside it, summed in edge order. Orders change only at the end of
    // each column, so every group of a column reads the orders the column
    // started with. A group's column never changes, so each column's
    // (inside, outside) pairs are listed once, in edge order (the sort is
    // stable), and each pass visits each pair once.
    let mut pairs: Vec<(usize, usize, usize)> = Vec::with_capacity(2 * diagram.edges.len());
    for edge in &diagram.edges {
        let (a, b) = (group_of[edge.from.table], group_of[edge.to.table]);
        if a != b {
            pairs.push((groups[a].column, a, b));
            pairs.push((groups[b].column, b, a));
        }
    }
    pairs.sort_by_key(|&(column, _, _)| column);
    let mut sums = vec![(0.0_f64, 0_usize); groups.len()];
    for _ in 0..barycenter_passes {
        for column in pairs.chunk_by(|p, q| p.0 == q.0) {
            for &(_, inside, outside) in column {
                sums[inside].0 += groups[outside].order;
                sums[inside].1 += 1;
            }
            for &(_, inside, _) in column {
                let sum = &mut sums[inside];
                if sum.1 > 0 {
                    groups[inside].order = sum.0 / sum.1 as f64;
                    *sum = (0.0, 0);
                }
            }
        }
    }

    // -------- Coordinate assignment --------
    for group in &mut groups {
        let boxed = group
            .tables
            .first()
            .is_some_and(|&t| diagram.box_of(t).is_some());
        group.pad = if boxed { BOX_PADDING } else { 0.0 };
        let width = group
            .tables
            .iter()
            .map(|&t| sizes[t].0)
            .fold(0.0_f64, f64::max);
        let tables: f64 = group.tables.iter().map(|&t| sizes[t].1).sum();
        let gaps = TABLE_GAP * (group.tables.len().saturating_sub(1)) as f64;
        group.width = width + 2.0 * group.pad;
        group.height = tables + gaps + 2.0 * group.pad;
    }

    // Column widths: widest group footprint.
    let mut column_width = vec![0.0_f64; n_columns];
    for group in &groups {
        column_width[group.column] = column_width[group.column].max(group.width);
    }
    let mut column_x = vec![0.0_f64; n_columns];
    let mut x = MARGIN;
    for col in 0..n_columns {
        column_x[col] = x;
        x += column_width[col] + COLUMN_GAP;
    }
    let total_width = x - COLUMN_GAP + MARGIN;

    // Column heights, then vertical placement (groups sorted by order;
    // the sort is stable, so equal orders keep group index order).
    let mut column_height = vec![0.0_f64; n_columns];
    let mut per_column: Vec<Vec<usize>> = vec![Vec::new(); n_columns];
    for (gidx, group) in groups.iter().enumerate() {
        per_column[group.column].push(gidx);
    }
    for col in 0..n_columns {
        per_column[col].sort_by(|&a, &b| groups[a].order.total_cmp(&groups[b].order));
        column_height[col] = per_column[col]
            .iter()
            .map(|&g| groups[g].height)
            .sum::<f64>()
            + GROUP_GAP * (per_column[col].len().saturating_sub(1)) as f64;
    }
    let max_height = column_height.iter().copied().fold(0.0_f64, f64::max);
    let total_height = max_height + 2.0 * MARGIN;

    // Place tables, each into its `TableId` slot.
    let mut placed: Vec<Option<TableLayout>> = vec![None; diagram.tables.len()];
    for col in 0..n_columns {
        // Center the column's stack vertically.
        let mut y = MARGIN + (max_height - column_height[col]) / 2.0;
        for &gidx in &per_column[col] {
            let group = &groups[gidx];
            let mut ty = y + group.pad;
            for &tid in &group.tables {
                let (w, h) = sizes[tid];
                // Center the table horizontally within its column slot.
                let tx = column_x[col] + (column_width[col] - w) / 2.0;
                let row_ys =
                    std::iter::successors(Some(ty + HEADER_HEIGHT), |ry| Some(ry + ROW_HEIGHT));
                placed[tid] = Some(TableLayout {
                    table: tid,
                    rect: Rect::new(tx, ty, w, h),
                    header: Rect::new(tx, ty, w, HEADER_HEIGHT),
                    row_rects: row_ys
                        .take(diagram.tables[tid].rows.len())
                        .map(|ry| Rect::new(tx, ry, w, ROW_HEIGHT))
                        .collect(),
                });
                ty += h + TABLE_GAP;
            }
            y += group.height + GROUP_GAP;
        }
    }
    let mut layout = Layout {
        tables: placed
            .into_iter()
            .map(|t| t.expect("every table sits in a group"))
            .collect(),
        boxes: Vec::with_capacity(diagram.boxes.len()),
        edges: Vec::new(),
        row_texts,
        width: total_width,
        height: total_height,
    };

    // Quantifier boxes: bounding rect of member tables, inflated.
    for (box_index, qbox) in diagram.boxes.iter().enumerate() {
        let rects = qbox.tables.iter().map(|&tid| layout.table(tid).rect);
        if let Some(rect) = rects.reduce(|acc, r| acc.union(&r)) {
            let rect = rect.inflate(BOX_PADDING);
            layout.boxes.push(BoxLayout { box_index, rect });
        }
    }

    // Edge anchors: left/right row midpoints facing the other endpoint.
    let edges = diagram.edges.iter().enumerate().map(|(edge_index, edge)| {
        let from_rect = layout.table(edge.from.table).row_rects[edge.from.row];
        let to_rect = layout.table(edge.to.table).row_rects[edge.to.row];
        let (from, to) = if from_rect.center().x <= to_rect.center().x {
            (from_rect.right_mid(), to_rect.left_mid())
        } else {
            (from_rect.left_mid(), to_rect.right_mid())
        };
        let mid = from.midpoint(to);
        EdgeLayout {
            edge_index,
            from,
            to,
            label_pos: Point::new(mid.x, mid.y - 6.0),
        }
    });
    layout.edges = edges.collect();
    layout
}

/// Each table's `(width, height)`, indexed by `TableId`, and the text of
/// every row, in `TableId` and row order.
fn measure_tables(diagram: &Diagram, names: &Names) -> (Vec<(f64, f64)>, Vec<MarkText>) {
    let rows = diagram.tables.iter().map(|t| t.rows.len()).sum();
    let mut row_texts = Vec::with_capacity(rows);
    let sizes = diagram
        .tables
        .iter()
        .map(|table| {
            // Width is per displayed character, so text is measured in
            // chars, not bytes: a multibyte name (`café`, `Übersicht`)
            // must not inflate its table.
            let title_chars = names.resolve(table.name).chars().count();
            let mut text_width = title_chars as f64 * CHAR_WIDTH;
            for row in &table.rows {
                let text = MarkText::from_pieces(&row.text_pieces(names));
                text_width = text_width.max(text.chars().count() as f64 * CHAR_WIDTH);
                row_texts.push(text);
            }
            let w = (text_width + 2.0 * CELL_PADDING).max(MIN_TABLE_WIDTH);
            let h = HEADER_HEIGHT + ROW_HEIGHT * table.rows.len() as f64;
            (w, h)
        })
        .collect();
    (sizes, row_texts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::segments_cross;
    use queryvis_diagram::{build_diagram, TableRow};
    use queryvis_logic::{simplify, translate, translate_branches};
    use queryvis_sql::{parse_query, Names};

    fn lt(sql: &str) -> (queryvis_logic::LogicTree, Names) {
        let mut names = Names::new();
        let query = parse_query(sql, &mut names).unwrap();
        (translate(&query, None, &mut names).unwrap(), names)
    }

    fn layout(sql: &str) -> (Diagram, Layout, Names) {
        let (tree, names) = lt(sql);
        let d = build_diagram(&tree);
        let l = layout_diagram(&d, &names);
        (d, l, names)
    }

    /// Pairwise proper crossings between edge segments: the quality
    /// measure barycenter ordering exists to lower.
    fn crossing_count(layout: &Layout) -> usize {
        let mut count = 0;
        for i in 0..layout.edges.len() {
            for j in (i + 1)..layout.edges.len() {
                let a = &layout.edges[i];
                let b = &layout.edges[j];
                if segments_cross(a.from, a.to, b.from, b.to) {
                    count += 1;
                }
            }
        }
        count
    }

    const UNIQUE_SET: &str = "SELECT L1.drinker FROM Likes L1 WHERE NOT EXISTS( \
        SELECT * FROM Likes L2 WHERE L1.drinker <> L2.drinker \
        AND NOT EXISTS( \
          SELECT * FROM Likes L3 WHERE L3.drinker = L2.drinker \
          AND NOT EXISTS( \
            SELECT * FROM Likes L4 WHERE L4.drinker = L1.drinker \
            AND L4.beer = L3.beer)) \
        AND NOT EXISTS( \
          SELECT * FROM Likes L5 WHERE L5.drinker = L1.drinker \
          AND NOT EXISTS( \
            SELECT * FROM Likes L6 WHERE L6.drinker = L2.drinker \
            AND L6.beer = L5.beer)))";

    #[test]
    fn every_table_and_edge_is_placed() {
        let (d, l, _) = layout(UNIQUE_SET);
        assert_eq!(l.tables.len(), d.tables.len());
        assert_eq!(l.edges.len(), d.edges.len());
        assert_eq!(l.boxes.len(), d.boxes.len());
        assert!(l.width > 0.0 && l.height > 0.0);
    }

    #[test]
    fn columns_follow_nesting_depth() {
        let (d, l, names) = layout(UNIQUE_SET);
        let x_of = |binding: &str| {
            let id = d.table_by_binding(names.get(binding).unwrap()).unwrap().id;
            l.table(id).rect.x
        };
        assert!(x_of("SELECT") < x_of("L1"));
        assert!(x_of("L1") < x_of("L2"));
        assert!(x_of("L2") < x_of("L3"));
        assert!(x_of("L3") < x_of("L4"));
        // L3 and L5 share depth 2 → same column x.
        assert_eq!(x_of("L3"), x_of("L5"));
        assert_eq!(x_of("L4"), x_of("L6"));
    }

    #[test]
    fn tables_do_not_overlap() {
        let (_, l, _) = layout(UNIQUE_SET);
        for i in 0..l.tables.len() {
            for j in (i + 1)..l.tables.len() {
                assert!(
                    !l.tables[i].rect.intersects(&l.tables[j].rect),
                    "tables {i} and {j} overlap"
                );
            }
        }
    }

    #[test]
    fn boxes_contain_their_tables() {
        let (d, l, _) = layout(UNIQUE_SET);
        for bl in &l.boxes {
            for &tid in &d.boxes[bl.box_index].tables {
                let tr = l.table(tid).rect;
                assert!(bl.rect.x <= tr.x && bl.rect.right() >= tr.right());
                assert!(bl.rect.y <= tr.y && bl.rect.bottom() >= tr.bottom());
            }
        }
    }

    #[test]
    fn boxes_do_not_overlap_each_other() {
        let (_, l, _) = layout(UNIQUE_SET);
        for i in 0..l.boxes.len() {
            for j in (i + 1)..l.boxes.len() {
                assert!(
                    !l.boxes[i].rect.intersects(&l.boxes[j].rect),
                    "boxes {i} and {j} overlap"
                );
            }
        }
    }

    #[test]
    fn edge_anchors_touch_their_rows() {
        let (d, l, _) = layout(UNIQUE_SET);
        for el in &l.edges {
            let edge = &d.edges[el.edge_index];
            let from_row = l.table(edge.from.table).row_rects[edge.from.row];
            let to_row = l.table(edge.to.table).row_rects[edge.to.row];
            let on_boundary = |p: Point, r: Rect| {
                ((p.x - r.x).abs() < 1e-6 || (p.x - r.right()).abs() < 1e-6)
                    && p.y >= r.y
                    && p.y <= r.bottom()
            };
            assert!(on_boundary(el.from, from_row));
            assert!(on_boundary(el.to, to_row));
        }
    }

    #[test]
    fn rows_stack_below_header() {
        let (_, l, _) = layout("SELECT L.drinker, L.beer FROM Likes L WHERE L.beer = 'IPA'");
        for t in &l.tables {
            let mut y = t.header.bottom();
            for r in &t.row_rects {
                assert_eq!(r.y, y);
                y = r.bottom();
            }
            assert_eq!(t.rect.bottom(), y);
        }
    }

    #[test]
    fn barycenter_does_not_increase_crossings_on_reference_diagrams() {
        let (tree, names) = lt(UNIQUE_SET);
        let d = build_diagram(&tree);
        let with = layout_diagram(&d, &names);
        let without = layout_with_passes(&d, &names, 0);
        assert!(crossing_count(&with) <= crossing_count(&without));
    }

    /// `town = 'Žatec ∄'` holds 16 chars in 19 bytes, its twin 16 in 16.
    /// Each row is its table's widest, past the minimum width, so the two
    /// tables are equally wide only if layout counts chars.
    #[test]
    fn multibyte_text_is_as_wide_as_its_char_count() {
        let width = |town: &str| {
            let (d, l, names) = layout(&format!(
                "SELECT B.name FROM Brewery B WHERE B.town = '{town}'"
            ));
            l.table(d.table_by_binding(names.get("B").unwrap()).unwrap().id)
                .rect
                .w
        };
        assert!(width("Zatec E") > MIN_TABLE_WIDTH);
        assert_eq!(width("Žatec ∄"), width("Zatec E"));
    }

    /// Layout writes each row's text once, and it is the text the row
    /// displays, for every row kind, multibyte names and literals included:
    /// `Übersicht` holds 9 chars in 10 bytes. The row texts follow table
    /// and row order, and each table is as wide as its widest text in
    /// chars; a count of bytes would widen these tables.
    #[test]
    fn row_texts_are_the_displayed_texts_sized_in_chars() {
        let (tree, mut names) = lt("SELECT T.a, AVG(T.b) FROM T WHERE T.c <> 'Žatec ∄' \
             GROUP BY T.a HAVING COUNT(T.d) >= 3");
        let mut d = build_diagram(&tree);
        let wide = names.intern("Übersicht");
        for row in d.tables.iter_mut().flat_map(|t| &mut t.rows) {
            row.column = wide;
        }
        let l = layout_diagram(&d, &names);
        let rows: Vec<&TableRow> = d.tables.iter().flat_map(|t| &t.rows).collect();
        let texts: Vec<&str> = l.row_texts.iter().map(MarkText::as_str).collect();
        let displayed: Vec<String> = rows.iter().map(|row| row.display(&names)).collect();
        assert_eq!(texts, displayed);
        for kind in ["Attribute", "GroupBy", "Selection", "Aggregate", "Having"] {
            assert!(
                rows.iter()
                    .any(|row| format!("{:?}", row.kind).starts_with(kind)),
                "no {kind} row"
            );
        }
        for text in &texts {
            assert!(text.chars().count() < text.len(), "{text} is multibyte");
        }
        for table in &d.tables {
            let chars = table
                .rows
                .iter()
                .map(|row| row.display(&names).chars().count())
                .fold(names.resolve(table.name).chars().count(), usize::max);
            let width = (chars as f64 * CHAR_WIDTH + 2.0 * CELL_PADDING).max(MIN_TABLE_WIDTH);
            assert_eq!(
                l.table(table.id).rect.w,
                width,
                "{}",
                names.resolve(table.name)
            );
        }
    }

    /// `Layout::table` indexes `tables` directly: one entry per diagram
    /// table, in `TableId` order, on every diagram of the paper corpus.
    #[test]
    fn tables_are_in_table_id_order_over_the_paper_corpus() {
        let grid = queryvis_corpus::pattern_grid();
        let mut sqls = vec![
            queryvis_corpus::unique_set_sql(),
            queryvis_corpus::qsome_sql(),
            queryvis_corpus::qonly_sql(),
        ];
        sqls.extend(queryvis_corpus::sailors_only_variants());
        sqls.extend(grid.iter().map(|q| q.sql.as_str()));
        sqls.extend(queryvis_corpus::study_questions().iter().map(|q| q.sql));
        sqls.extend(
            queryvis_corpus::qualification_questions()
                .iter()
                .map(|q| q.sql),
        );
        sqls.extend(queryvis_corpus::tutorial_examples().iter().map(|e| e.sql));
        let mut diagrams = 0;
        for sql in sqls {
            let mut names = Names::new();
            let query = parse_query(sql, &mut names).unwrap();
            for tree in translate_branches(&query, None, &mut names).unwrap() {
                for d in [build_diagram(&tree), build_diagram(&simplify(&tree))] {
                    let l = layout_diagram(&d, &names);
                    assert_eq!(l.tables.len(), d.tables.len(), "{sql}");
                    for (i, t) in l.tables.iter().enumerate() {
                        assert_eq!(t.table, i, "{sql}");
                    }
                    diagrams += 1;
                }
            }
        }
        assert!(diagrams >= 60, "{diagrams} diagrams");
    }

    #[test]
    fn drawing_fits_all_rects() {
        let (_, l, _) = layout(UNIQUE_SET);
        for t in &l.tables {
            assert!(t.rect.x >= 0.0 && t.rect.right() <= l.width);
            assert!(t.rect.y >= 0.0 && t.rect.bottom() <= l.height);
        }
        for b in &l.boxes {
            assert!(b.rect.x >= 0.0 && b.rect.right() <= l.width + 1e-6);
            assert!(b.rect.y >= 0.0 && b.rect.bottom() <= l.height + 1e-6);
        }
    }
}
