//! The layered layout algorithm.
//!
//! Pipeline: measure tables → assign columns (SELECT, then nesting depth)
//! → group tables by query block → order groups within each column by
//! barycenter passes → assign coordinates → compute quantifier-box rects
//! → anchor edges at row midpoints.

use crate::geometry::{Point, Rect};
use queryvis_diagram::{Diagram, TableId};
use std::collections::HashMap;

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
    pub tables: Vec<TableLayout>,
    pub boxes: Vec<BoxLayout>,
    pub edges: Vec<EdgeLayout>,
    /// Total drawing size.
    pub width: f64,
    pub height: f64,
}

impl Layout {
    pub fn table(&self, id: TableId) -> &TableLayout {
        self.tables
            .iter()
            .find(|t| t.table == id)
            .expect("every diagram table has a layout")
    }
}

/// Lay out a diagram.
pub fn layout_diagram(diagram: &Diagram) -> Layout {
    layout_with_passes(diagram, BARYCENTER_PASSES)
}

/// [`layout_diagram`] with `barycenter_passes` ordering sweeps (0 keeps
/// the groups in construction order).
fn layout_with_passes(diagram: &Diagram, barycenter_passes: usize) -> Layout {
    let sizes = measure_tables(diagram);

    // -------- Column assignment --------
    // Column 0: SELECT table. Column d+1: tables at nesting depth d.
    // Grouping unit: the LT node (so boxes stay contiguous); the SELECT
    // table and each root table form singleton groups.
    #[derive(Debug)]
    struct Group {
        tables: Vec<TableId>,
        column: usize,
        /// Mutable ordering key within the column.
        order: f64,
    }

    let mut groups: Vec<Group> = Vec::new();
    let mut group_of: HashMap<TableId, usize> = HashMap::new();

    groups.push(Group {
        tables: vec![diagram.select_table],
        column: 0,
        order: 0.0,
    });
    group_of.insert(diagram.select_table, 0);

    // Group non-select tables by their LT node.
    let mut node_groups: HashMap<usize, usize> = HashMap::new();
    for table in &diagram.tables {
        if table.is_select {
            continue;
        }
        let node = table.node.expect("non-select tables carry their node");
        let gidx = *node_groups.entry(node).or_insert_with(|| {
            groups.push(Group {
                tables: Vec::new(),
                column: table.depth + 1,
                order: groups.len() as f64,
            });
            groups.len() - 1
        });
        groups[gidx].tables.push(table.id);
        group_of.insert(table.id, gidx);
    }

    let n_columns = groups.iter().map(|g| g.column).max().unwrap_or(0) + 1;

    // -------- Barycenter ordering --------
    // Connection list at the table level for barycenter computation.
    let mut adjacency: Vec<(TableId, TableId)> = Vec::new();
    for edge in &diagram.edges {
        adjacency.push((edge.from.table, edge.to.table));
    }
    for _ in 0..barycenter_passes {
        for col in 0..n_columns {
            // Current vertical rank of each table = order of its group.
            let rank: HashMap<TableId, f64> = group_of
                .iter()
                .map(|(&t, &g)| (t, groups[g].order))
                .collect();
            let mut updates: Vec<(usize, f64)> = Vec::new();
            for (gidx, group) in groups.iter().enumerate() {
                if group.column != col {
                    continue;
                }
                let mut total = 0.0;
                let mut count = 0;
                for &(a, b) in &adjacency {
                    let (inside, outside) = if group.tables.contains(&a) {
                        (a, b)
                    } else if group.tables.contains(&b) {
                        (b, a)
                    } else {
                        continue;
                    };
                    let _ = inside;
                    if group_of[&outside] != gidx {
                        total += rank[&outside];
                        count += 1;
                    }
                }
                if count > 0 {
                    updates.push((gidx, total / count as f64));
                }
            }
            for (gidx, order) in updates {
                groups[gidx].order = order;
            }
        }
    }

    // -------- Coordinate assignment --------
    // Column widths: widest group footprint (box padding included when the
    // group is boxed).
    let is_boxed = |group: &Group| -> bool {
        group
            .tables
            .first()
            .is_some_and(|&t| diagram.box_of(t).is_some())
    };
    let group_width = |group: &Group| -> f64 {
        let w = group
            .tables
            .iter()
            .map(|t| sizes[t].0)
            .fold(0.0_f64, f64::max);
        if is_boxed(group) {
            w + 2.0 * BOX_PADDING
        } else {
            w
        }
    };
    let group_height = |group: &Group| -> f64 {
        let tables: f64 = group.tables.iter().map(|t| sizes[t].1).sum();
        let gaps = TABLE_GAP * (group.tables.len().saturating_sub(1)) as f64;
        let inner = tables + gaps;
        if is_boxed(group) {
            inner + 2.0 * BOX_PADDING
        } else {
            inner
        }
    };

    let mut column_width = vec![0.0_f64; n_columns];
    for group in &groups {
        column_width[group.column] = column_width[group.column].max(group_width(group));
    }
    let mut column_x = vec![0.0_f64; n_columns];
    let mut x = MARGIN;
    for col in 0..n_columns {
        column_x[col] = x;
        x += column_width[col] + COLUMN_GAP;
    }
    let total_width = x - COLUMN_GAP + MARGIN;

    // Column heights, then vertical placement (groups sorted by order).
    let mut column_height = vec![0.0_f64; n_columns];
    let mut per_column: Vec<Vec<usize>> = vec![Vec::new(); n_columns];
    for (gidx, group) in groups.iter().enumerate() {
        per_column[group.column].push(gidx);
    }
    for col in 0..n_columns {
        per_column[col].sort_by(|&a, &b| {
            groups[a]
                .order
                .partial_cmp(&groups[b].order)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let h: f64 = per_column[col]
            .iter()
            .map(|&g| group_height(&groups[g]))
            .sum::<f64>()
            + GROUP_GAP * (per_column[col].len().saturating_sub(1)) as f64;
        column_height[col] = h;
    }
    let max_height = column_height.iter().copied().fold(0.0_f64, f64::max);
    let total_height = max_height + 2.0 * MARGIN;

    // Place tables.
    let mut table_layouts: HashMap<TableId, TableLayout> = HashMap::new();
    for col in 0..n_columns {
        // Center the column's stack vertically.
        let mut y = MARGIN + (max_height - column_height[col]) / 2.0;
        for &gidx in &per_column[col] {
            let group = &groups[gidx];
            let boxed = is_boxed(group);
            let pad = if boxed { BOX_PADDING } else { 0.0 };
            let mut ty = y + pad;
            for &tid in &group.tables {
                let (w, h) = sizes[&tid];
                // Center the table horizontally within its column slot.
                let tx = column_x[col] + (column_width[col] - w) / 2.0;
                let rect = Rect::new(tx, ty, w, h);
                let header = Rect::new(tx, ty, w, HEADER_HEIGHT);
                let mut row_rects = Vec::new();
                let mut ry = ty + HEADER_HEIGHT;
                for _ in &diagram.tables[tid].rows {
                    row_rects.push(Rect::new(tx, ry, w, ROW_HEIGHT));
                    ry += ROW_HEIGHT;
                }
                table_layouts.insert(
                    tid,
                    TableLayout {
                        table: tid,
                        rect,
                        header,
                        row_rects,
                    },
                );
                ty += h + TABLE_GAP;
            }
            y += group_height(group) + GROUP_GAP;
        }
    }

    // Quantifier boxes: bounding rect of member tables, inflated.
    let mut box_layouts = Vec::new();
    for (box_index, qbox) in diagram.boxes.iter().enumerate() {
        let mut rect: Option<Rect> = None;
        for &tid in &qbox.tables {
            let r = table_layouts[&tid].rect;
            rect = Some(match rect {
                Some(acc) => acc.union(&r),
                None => r,
            });
        }
        if let Some(rect) = rect {
            box_layouts.push(BoxLayout {
                box_index,
                rect: rect.inflate(BOX_PADDING),
            });
        }
    }

    // Edge anchors: left/right row midpoints facing the other endpoint.
    let mut edge_layouts = Vec::new();
    for (edge_index, edge) in diagram.edges.iter().enumerate() {
        let from_rect = table_layouts[&edge.from.table].row_rects[edge.from.row];
        let to_rect = table_layouts[&edge.to.table].row_rects[edge.to.row];
        let (from, to) = if from_rect.center().x <= to_rect.center().x {
            (from_rect.right_mid(), to_rect.left_mid())
        } else {
            (from_rect.left_mid(), to_rect.right_mid())
        };
        let mid = from.midpoint(to);
        edge_layouts.push(EdgeLayout {
            edge_index,
            from,
            to,
            label_pos: Point::new(mid.x, mid.y - 6.0),
        });
    }

    let mut tables: Vec<TableLayout> = table_layouts.into_values().collect();
    tables.sort_by_key(|t| t.table);

    Layout {
        tables,
        boxes: box_layouts,
        edges: edge_layouts,
        width: total_width,
        height: total_height,
    }
}

fn measure_tables(diagram: &Diagram) -> HashMap<TableId, (f64, f64)> {
    diagram
        .tables
        .iter()
        .map(|table| {
            // Width is per displayed character, so text is measured in
            // chars, not bytes: a multibyte name (`café`, `Übersicht`)
            // must not inflate its table.
            let chars = |s: &str| s.chars().count() as f64;
            let mut text_width = chars(table.name.as_str()) * CHAR_WIDTH;
            for row in &table.rows {
                text_width = text_width.max(chars(&row.display()) * CHAR_WIDTH);
            }
            let w = (text_width + 2.0 * CELL_PADDING).max(MIN_TABLE_WIDTH);
            let h = HEADER_HEIGHT + ROW_HEIGHT * table.rows.len() as f64;
            (table.id, (w, h))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::segments_cross;
    use queryvis_diagram::build_diagram;
    use queryvis_logic::translate;
    use queryvis_sql::parse_query;

    fn layout(sql: &str) -> (Diagram, Layout) {
        let d = build_diagram(&translate(&parse_query(sql).unwrap(), None).unwrap());
        let l = layout_diagram(&d);
        (d, l)
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
        let (d, l) = layout(UNIQUE_SET);
        assert_eq!(l.tables.len(), d.tables.len());
        assert_eq!(l.edges.len(), d.edges.len());
        assert_eq!(l.boxes.len(), d.boxes.len());
        assert!(l.width > 0.0 && l.height > 0.0);
    }

    #[test]
    fn columns_follow_nesting_depth() {
        let (d, l) = layout(UNIQUE_SET);
        let x_of = |binding: &str| {
            let id = d.table_by_binding(binding).unwrap().id;
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
        let (_, l) = layout(UNIQUE_SET);
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
        let (d, l) = layout(UNIQUE_SET);
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
        let (_, l) = layout(UNIQUE_SET);
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
        let (d, l) = layout(UNIQUE_SET);
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
        let (_, l) = layout("SELECT L.drinker, L.beer FROM Likes L WHERE L.beer = 'IPA'");
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
        let d = build_diagram(&translate(&parse_query(UNIQUE_SET).unwrap(), None).unwrap());
        let with = layout_diagram(&d);
        let without = layout_with_passes(&d, 0);
        assert!(crossing_count(&with) <= crossing_count(&without));
    }

    #[test]
    fn drawing_fits_all_rects() {
        let (_, l) = layout(UNIQUE_SET);
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
