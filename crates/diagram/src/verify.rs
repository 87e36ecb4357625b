//! Structural well-formedness checks for diagrams.
//!
//! [`verify_diagram`] enforces the invariants every QueryVis diagram must
//! satisfy regardless of the query it came from — useful as a debug
//! assertion after construction, as a guard before rendering diagrams
//! built by hand (e.g. the unambiguity harness's synthetic patterns), and
//! as a test oracle.

use crate::model::{Diagram, RowKind};
use std::fmt;

/// A violated diagram invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiagramDefect {
    /// `tables[i].id != i`.
    MisnumberedTable { index: usize },
    /// No table marked `is_select`, or `select_table` points elsewhere.
    MissingSelectTable,
    /// More than one SELECT table.
    MultipleSelectTables,
    /// An edge endpoint references a table or row that does not exist.
    DanglingEndpoint { edge: usize },
    /// An edge endpoint lands on a selection-predicate row (edges may only
    /// attach to attribute/group-by/aggregate rows).
    EdgeIntoSelectionRow { edge: usize },
    /// A box is empty, contains the SELECT table, or shares a table with
    /// another box.
    MalformedBox { box_index: usize },
    /// An edge connects a table to itself.
    SelfLoop { edge: usize },
    /// An equijoin carries a label (labels are reserved for non-`=` ops).
    RedundantEqualityLabel { edge: usize },
}

impl fmt::Display for DiagramDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiagramDefect::MisnumberedTable { index } => {
                write!(f, "table at position {index} has a mismatched id")
            }
            DiagramDefect::MissingSelectTable => write!(f, "no SELECT table"),
            DiagramDefect::MultipleSelectTables => write!(f, "more than one SELECT table"),
            DiagramDefect::DanglingEndpoint { edge } => {
                write!(f, "edge {edge} references a missing table or row")
            }
            DiagramDefect::EdgeIntoSelectionRow { edge } => {
                write!(f, "edge {edge} attaches to a selection-predicate row")
            }
            DiagramDefect::MalformedBox { box_index } => {
                write!(f, "box {box_index} is empty, overlaps, or encloses SELECT")
            }
            DiagramDefect::SelfLoop { edge } => write!(f, "edge {edge} is a self-loop"),
            DiagramDefect::RedundantEqualityLabel { edge } => {
                write!(f, "edge {edge} labels an equijoin with `=`")
            }
        }
    }
}

/// Check every structural invariant; returns all defects found.
pub fn verify_diagram(diagram: &Diagram) -> Vec<DiagramDefect> {
    let mut defects = Vec::new();

    for (i, table) in diagram.tables.iter().enumerate() {
        if table.id != i {
            defects.push(DiagramDefect::MisnumberedTable { index: i });
        }
    }

    let select_count = diagram.tables.iter().filter(|t| t.is_select).count();
    match select_count {
        0 => defects.push(DiagramDefect::MissingSelectTable),
        1 => {
            if diagram
                .tables
                .get(diagram.select_table)
                .is_none_or(|t| !t.is_select)
            {
                defects.push(DiagramDefect::MissingSelectTable);
            }
        }
        _ => defects.push(DiagramDefect::MultipleSelectTables),
    }

    for (i, edge) in diagram.edges.iter().enumerate() {
        let mut dangling = false;
        for end in [edge.from, edge.to] {
            match diagram.tables.get(end.table) {
                None => dangling = true,
                Some(table) => match table.rows.get(end.row) {
                    None => dangling = true,
                    Some(row) => {
                        if matches!(row.kind, RowKind::Selection { .. }) {
                            defects.push(DiagramDefect::EdgeIntoSelectionRow { edge: i });
                        }
                    }
                },
            }
        }
        if dangling {
            defects.push(DiagramDefect::DanglingEndpoint { edge: i });
            continue;
        }
        if edge.from.table == edge.to.table {
            defects.push(DiagramDefect::SelfLoop { edge: i });
        }
        if edge.label == Some(queryvis_sql::CompareOp::Eq) {
            defects.push(DiagramDefect::RedundantEqualityLabel { edge: i });
        }
    }

    let mut boxed = std::collections::HashSet::new();
    for (i, qbox) in diagram.boxes.iter().enumerate() {
        let mut bad = qbox.tables.is_empty();
        for &t in &qbox.tables {
            match diagram.tables.get(t) {
                Some(table) if !table.is_select => {
                    if !boxed.insert(t) {
                        bad = true; // shared with another box
                    }
                }
                _ => bad = true,
            }
        }
        if bad {
            defects.push(DiagramDefect::MalformedBox { box_index: i });
        }
    }

    defects
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_diagram;
    use crate::model::{Edge, EdgeEndpoint};
    use queryvis_logic::translate;
    use queryvis_sql::{parse_query, Names};

    fn diagram(sql: &str) -> (Diagram, Names) {
        let mut names = Names::new();
        let query = parse_query(sql, &mut names).unwrap();
        (
            build_diagram(&translate(&query, None, &mut names).unwrap()),
            names,
        )
    }

    #[test]
    fn built_diagrams_are_clean() {
        for sql in [
            "SELECT L.drinker FROM Likes L WHERE L.beer = 'IPA'",
            "SELECT F.person FROM Frequents F, Likes L WHERE F.person = L.person",
            "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
             (SELECT * FROM Serves S WHERE S.bar = F.bar)",
            "SELECT T.a, COUNT(T.b) FROM T GROUP BY T.a",
        ] {
            assert!(verify_diagram(&diagram(sql).0).is_empty(), "{sql}");
        }
    }

    #[test]
    fn detects_dangling_endpoint() {
        let (mut d, _) = diagram("SELECT L.drinker FROM Likes L");
        d.edges.push(Edge {
            from: EdgeEndpoint { table: 0, row: 99 },
            to: EdgeEndpoint { table: 42, row: 0 },
            directed: false,
            label: None,
        });
        let defects = verify_diagram(&d);
        assert!(defects
            .iter()
            .any(|x| matches!(x, DiagramDefect::DanglingEndpoint { .. })));
    }

    #[test]
    fn detects_self_loop() {
        let (mut d, names) = diagram("SELECT L.drinker, L.beer FROM Likes L");
        let likes = d.table_by_binding(names.get("L").unwrap()).unwrap().id;
        d.edges.push(Edge {
            from: EdgeEndpoint {
                table: likes,
                row: 0,
            },
            to: EdgeEndpoint {
                table: likes,
                row: 1,
            },
            directed: false,
            label: None,
        });
        assert!(verify_diagram(&d)
            .iter()
            .any(|x| matches!(x, DiagramDefect::SelfLoop { .. })));
    }

    #[test]
    fn detects_redundant_equality_label() {
        let (mut d, _) =
            diagram("SELECT F.person FROM Frequents F, Likes L WHERE F.person = L.person");
        // Force a `=` label onto the first join edge.
        let idx = d.edges.iter().position(|e| !e.directed).unwrap();
        d.edges[idx].label = Some(queryvis_sql::CompareOp::Eq);
        assert!(verify_diagram(&d)
            .iter()
            .any(|x| matches!(x, DiagramDefect::RedundantEqualityLabel { .. })));
    }

    #[test]
    fn detects_box_enclosing_select() {
        let (mut d, _) = diagram(
            "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
             (SELECT * FROM Serves S WHERE S.bar = F.bar)",
        );
        d.boxes[0].tables.push(d.select_table);
        assert!(verify_diagram(&d)
            .iter()
            .any(|x| matches!(x, DiagramDefect::MalformedBox { .. })));
    }

    #[test]
    fn detects_missing_select_table() {
        let (mut d, _) = diagram("SELECT L.drinker FROM Likes L");
        let sel = d.select_table;
        d.tables[sel].is_select = false;
        assert!(verify_diagram(&d).contains(&DiagramDefect::MissingSelectTable));
    }
}
