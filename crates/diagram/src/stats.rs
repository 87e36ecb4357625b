//! Visual-element counting for the minimality analysis (paper §4.8).
//!
//! The paper compares the visual complexity of diagrams against the textual
//! complexity of SQL: Fig. 2b (nested-∄ Qonly) has "13% more visual
//! elements" than Fig. 2a (conjunctive Qsome), which the ∀ simplification
//! reduces to 7% — while the SQL text itself grows far more.
//!
//! We count a **visual element** as one of: a table composite mark, a row
//! within a table, an edge, or a quantifier bounding box. With this
//! counting Fig. 2a has 15 elements, Fig. 2b has 17 (+13.3 %), and Fig. 2c
//! has 16 (+6.7 %) — reproducing the paper's numbers exactly. Arrowheads
//! and operator labels are *channels* on the line mark rather than separate
//! marks, so they are reported separately but not added to the total.

use crate::model::{Diagram, RowKind};

/// Mark/channel counts for one diagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiagramStats {
    /// Table composite marks (including the SELECT table).
    pub tables: usize,
    /// Total rows across all tables (headers excluded — one header per
    /// table is already counted by the table mark itself).
    pub rows: usize,
    /// Line marks.
    pub edges: usize,
    /// Quantifier bounding boxes.
    pub boxes: usize,
    /// Arrowhead channels (directed edges).
    pub arrowheads: usize,
    /// Operator-label channels (non-equijoin edges).
    pub labels: usize,
    /// Highlighted selection-predicate rows (subset of `rows`).
    pub selection_rows: usize,
    /// Highlighted group-by rows (subset of `rows`).
    pub group_rows: usize,
    /// Highlighted HAVING rows (subset of `rows`).
    pub having_rows: usize,
}

impl DiagramStats {
    /// The §4.8 visual-element count: tables + rows + edges + boxes.
    pub fn visual_elements(&self) -> usize {
        self.tables + self.rows + self.edges + self.boxes
    }

    /// Relative increase of `self` over `base` in visual elements.
    pub fn increase_over(&self, base: &DiagramStats) -> f64 {
        let a = self.visual_elements() as f64;
        let b = base.visual_elements() as f64;
        (a - b) / b
    }

    /// Field-wise sum — used to aggregate the stats of a multi-branch
    /// (UNION) rendering.
    pub fn combine(&self, other: &DiagramStats) -> DiagramStats {
        DiagramStats {
            tables: self.tables + other.tables,
            rows: self.rows + other.rows,
            edges: self.edges + other.edges,
            boxes: self.boxes + other.boxes,
            arrowheads: self.arrowheads + other.arrowheads,
            labels: self.labels + other.labels,
            selection_rows: self.selection_rows + other.selection_rows,
            group_rows: self.group_rows + other.group_rows,
            having_rows: self.having_rows + other.having_rows,
        }
    }
}

/// Count the marks and channels of a diagram.
pub fn diagram_stats(diagram: &Diagram) -> DiagramStats {
    let tables = diagram.tables.len();
    let rows = diagram.tables.iter().map(|t| t.rows.len()).sum();
    let edges = diagram.edges.len();
    let boxes = diagram.boxes.len();
    let arrowheads = diagram.edges.iter().filter(|e| e.directed).count();
    let labels = diagram.edges.iter().filter(|e| e.label.is_some()).count();
    let selection_rows = diagram
        .tables
        .iter()
        .flat_map(|t| t.rows.iter())
        .filter(|r| matches!(r.kind, RowKind::Selection { .. }))
        .count();
    let group_rows = diagram
        .tables
        .iter()
        .flat_map(|t| t.rows.iter())
        .filter(|r| matches!(r.kind, RowKind::GroupBy))
        .count();
    let having_rows = diagram
        .tables
        .iter()
        .flat_map(|t| t.rows.iter())
        .filter(|r| matches!(r.kind, RowKind::Having { .. }))
        .count();
    DiagramStats {
        tables,
        rows,
        edges,
        boxes,
        arrowheads,
        labels,
        selection_rows,
        group_rows,
        having_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_diagram;
    use queryvis_logic::{simplify, translate};
    use queryvis_sql::{parse_query, Names};

    const QSOME: &str = "SELECT F.person FROM Frequents F, Likes L, Serves S \
        WHERE F.person = L.person AND F.bar = S.bar AND L.drink = S.drink";

    const QONLY: &str = "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
        (SELECT * FROM Serves S WHERE S.bar = F.bar AND NOT EXISTS \
        (SELECT L.drink FROM Likes L WHERE L.person = F.person AND S.drink = L.drink))";

    fn stats(sql: &str, simplified: bool) -> DiagramStats {
        let mut names = Names::new();
        let query = parse_query(sql, &mut names).unwrap();
        let lt = translate(&query, None, &mut names).unwrap();
        let lt = if simplified { simplify(&lt) } else { lt };
        diagram_stats(&build_diagram(&lt))
    }

    #[test]
    fn fig2a_element_count() {
        let s = stats(QSOME, false);
        assert_eq!(s.tables, 4);
        assert_eq!(s.rows, 7);
        assert_eq!(s.edges, 4);
        assert_eq!(s.boxes, 0);
        assert_eq!(s.visual_elements(), 15);
    }

    #[test]
    fn fig2b_is_13_percent_more_complex() {
        let base = stats(QSOME, false);
        let nested = stats(QONLY, false);
        assert_eq!(nested.visual_elements(), 17);
        let inc = nested.increase_over(&base);
        assert!((inc - 0.1333).abs() < 0.01, "got {inc:.4}");
    }

    #[test]
    fn fig2c_is_7_percent_more_complex() {
        let base = stats(QSOME, false);
        let simplified = stats(QONLY, true);
        assert_eq!(simplified.visual_elements(), 16);
        let inc = simplified.increase_over(&base);
        assert!((inc - 0.0667).abs() < 0.01, "got {inc:.4}");
    }

    #[test]
    fn channels_counted_separately() {
        let s = stats(QONLY, false);
        assert_eq!(s.arrowheads, 3); // three cross-depth join edges
        assert_eq!(s.labels, 0); // all equijoins
        let s2 = stats(
            "SELECT A.x FROM T A, T B WHERE A.x < B.x AND A.y = B.y",
            false,
        );
        assert_eq!(s2.labels, 1);
    }
}
