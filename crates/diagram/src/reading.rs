//! The default reading order of a diagram (paper §4.6) and a mechanical
//! natural-language reading.
//!
//! > "QueryVis diagrams are read by starting from the SELECT table and
//! > following a depth-first traversal with restarts from unvisited source
//! > nodes (i.e. those without incoming arrows)."
//!
//! For the unique-set query (Fig. 1b) this produces L1→L2→L3→L4, then a
//! restart at the source L5 continuing L5→L6 — exactly the order the
//! paper's footnote 1 describes.

use crate::model::{Diagram, TableId};
use queryvis_ir::Names;
use queryvis_logic::Quantifier;

/// One step of the reading order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadingStep {
    pub table: TableId,
    /// Quantifier of the enclosing box (`None` for root-block tables and
    /// boxless ∃ blocks).
    pub quantifier: Option<Quantifier>,
    /// True if this step began a restart at a source table.
    pub restart: bool,
}

/// Compute the reading order over the diagram's tables (the SELECT table is
/// the implicit origin and not included in the result).
pub fn reading_order(diagram: &Diagram) -> Vec<ReadingStep> {
    let n = diagram.tables.len();
    let mut visited = vec![false; n];
    let mut steps = Vec::new();
    visited[diagram.select_table] = true;

    // Incoming-arrow counts (for restart source detection).
    let mut incoming = vec![0usize; n];
    for edge in &diagram.edges {
        if edge.directed {
            incoming[edge.to.table] += 1;
        }
    }

    // Neighbors in edge-insertion order: directed edges forward only,
    // undirected edges both ways.
    let neighbors = |t: TableId| -> Vec<TableId> {
        let mut out = Vec::new();
        for edge in &diagram.edges {
            if edge.directed {
                if edge.from.table == t {
                    out.push(edge.to.table);
                }
            } else if edge.from.table == t {
                out.push(edge.to.table);
            } else if edge.to.table == t {
                out.push(edge.from.table);
            }
        }
        out
    };

    fn dfs(
        diagram: &Diagram,
        t: TableId,
        restart: bool,
        visited: &mut [bool],
        steps: &mut Vec<ReadingStep>,
        neighbors: &dyn Fn(TableId) -> Vec<TableId>,
    ) {
        visited[t] = true;
        steps.push(ReadingStep {
            table: t,
            quantifier: diagram.box_of(t).map(|b| b.quantifier),
            restart,
        });
        for next in neighbors(t) {
            if !visited[next] {
                dfs(diagram, next, false, visited, steps, neighbors);
            }
        }
    }

    // Phase 1: start from the SELECT table's neighbors.
    for start in neighbors(diagram.select_table) {
        if !visited[start] {
            dfs(diagram, start, false, &mut visited, &mut steps, &neighbors);
        }
    }
    // Phase 2: restarts at unvisited source tables, lowest id first; fall
    // back to any unvisited table (cycles) if no source remains.
    loop {
        let next_source = (0..n)
            .find(|&t| !visited[t] && incoming[t] == 0)
            .or_else(|| (0..n).find(|&t| !visited[t]));
        match next_source {
            Some(t) => dfs(diagram, t, true, &mut visited, &mut steps, &neighbors),
            None => break,
        }
    }
    steps
}

/// Render a mechanical natural-language reading of the diagram, following
/// the reading order and the interpretation rule of §4.6: an edge from
/// `S.attr1` to a ∄-quantified `T.attr2` labeled `<` reads "there does not
/// exist any tuple in T where S.attr1 < T.attr2".
///
/// The diagram's names live in `names`.
pub fn render_reading(diagram: &Diagram, names: &Names) -> String {
    let steps = reading_order(diagram);
    let mut out = String::new();

    // Head: the SELECT clause (HAVING rows are conditions, not outputs —
    // they read at the end).
    let select = &diagram.tables[diagram.select_table];
    let cols: Vec<String> = select
        .rows
        .iter()
        .filter(|r| !matches!(r.kind, crate::model::RowKind::Having { .. }))
        .map(|r| r.display(names))
        .collect();
    out.push_str(&format!("Return {}", cols.join(", ")));

    for step in &steps {
        let table = &diagram.tables[step.table];
        let phrase = match step.quantifier {
            Some(Quantifier::NotExists) => "there does not exist a tuple",
            Some(Quantifier::ForAll) => "for all tuples",
            Some(Quantifier::Exists) | None => {
                if table.depth == 0 {
                    "taking a tuple"
                } else {
                    "there exists a tuple"
                }
            }
        };
        let connective = if step.restart { "; and" } else { "," };
        let (alias, name) = (names.resolve(table.alias), names.resolve(table.name));
        out.push_str(&format!("{connective} {phrase} {alias} in {name}"));

        // Conditions: edges between this table and tables already read.
        let mut conds = Vec::new();
        for edge in diagram.edges_of(step.table) {
            let (here, there) = if edge.from.table == step.table {
                (edge.from, edge.to)
            } else {
                (edge.to, edge.from)
            };
            if there.table == diagram.select_table {
                continue;
            }
            let other = &diagram.tables[there.table];
            // Only mention edges to tables read strictly before this one.
            let read_before = steps
                .iter()
                .position(|s| s.table == there.table)
                .is_some_and(|p| p < steps.iter().position(|s| s.table == step.table).unwrap());
            if !read_before {
                continue;
            }
            let here_col = names.resolve(diagram.tables[step.table].rows[here.row].column);
            let there_col = names.resolve(other.rows[there.row].column);
            // Orient the operator so it reads here-first.
            let op = match edge.label {
                None => queryvis_sql::CompareOp::Eq,
                Some(op) => {
                    if edge.from.table == step.table {
                        op
                    } else {
                        op.flip()
                    }
                }
            };
            let other_alias = names.resolve(other.alias);
            conds.push(format!("{alias}.{here_col} {op} {other_alias}.{there_col}"));
        }
        // Selection rows read as in-place conditions.
        for row in &table.rows {
            if let crate::model::RowKind::Selection { .. } = row.kind {
                conds.push(format!("{alias}.{}", row.display(names)));
            }
        }
        if !conds.is_empty() {
            out.push_str(&format!(" with {}", conds.join(" and ")));
        }
    }
    // HAVING rows read as group-level conditions after the traversal.
    let having: Vec<String> = select
        .rows
        .iter()
        .filter(|r| matches!(r.kind, crate::model::RowKind::Having { .. }))
        .map(|r| r.display(names))
        .collect();
    if !having.is_empty() {
        out.push_str(&format!(
            "; keeping only groups where {}",
            having.join(" and ")
        ));
    }
    out.push('.');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_diagram;
    use queryvis_logic::{simplify, translate};
    use queryvis_sql::{parse_query, Names};

    fn diagram(sql: &str) -> (Diagram, Names) {
        let mut names = Names::new();
        let query = parse_query(sql, &mut names).unwrap();
        (
            build_diagram(&translate(&query, None, &mut names).unwrap()),
            names,
        )
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
    fn unique_set_reading_matches_footnote_1() {
        // Expected: L1 → L2 → L3 → L4, restart at source L5, then L6.
        let (d, names) = diagram(UNIQUE_SET);
        let steps = reading_order(&d);
        let order: Vec<&str> = steps
            .iter()
            .map(|s| names.resolve(d.tables[s.table].binding))
            .collect();
        assert_eq!(order, vec!["L1", "L2", "L3", "L4", "L5", "L6"]);
        assert!(steps[4].restart, "L5 must begin a restart");
        assert!(!steps[1].restart);
    }

    #[test]
    fn conjunctive_reading_visits_everything() {
        let (d, _) = diagram(
            "SELECT F.person FROM Frequents F, Likes L, Serves S \
             WHERE F.person = L.person AND F.bar = S.bar AND L.drink = S.drink",
        );
        let steps = reading_order(&d);
        assert_eq!(steps.len(), 3);
        assert!(steps.iter().all(|s| s.quantifier.is_none()));
    }

    #[test]
    fn reading_text_mentions_quantifiers_in_order() {
        let mut names = Names::new();
        let q = parse_query(
            "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
             (SELECT * FROM Serves S WHERE S.bar = F.bar AND NOT EXISTS \
             (SELECT L.drink FROM Likes L WHERE L.person = F.person AND S.drink = L.drink))",
            &mut names,
        )
        .unwrap();
        let d = build_diagram(&simplify(&translate(&q, None, &mut names).unwrap()));
        let text = render_reading(&d, &names);
        assert!(text.starts_with("Return person"));
        let forall_pos = text.find("for all tuples").unwrap();
        let exists_pos = text.find("there exists a tuple").unwrap();
        assert!(forall_pos < exists_pos, "{text}");
        assert!(text.contains("S.bar = F.bar"), "{text}");
    }

    #[test]
    fn reading_includes_selection_conditions() {
        let (d, names) = diagram("SELECT B.bid FROM Boat B WHERE B.color = 'red'");
        let text = render_reading(&d, &names);
        assert!(text.contains("B.color = 'red'"), "{text}");
    }

    #[test]
    fn reading_orients_operator_along_visit_order() {
        let (d, names) = diagram(
            "SELECT B.x FROM T B WHERE NOT EXISTS \
             (SELECT * FROM U S WHERE S.y > B.x)",
        );
        let text = render_reading(&d, &names);
        // Reading visits B then S; when S is read the condition must be
        // stated from S's perspective: S.y > B.x.
        assert!(text.contains("S.y > B.x"), "{text}");
    }
}
