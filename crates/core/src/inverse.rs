//! The inverse mapping: QueryVis diagram → logic tree (Appendix B).
//!
//! QueryVis deliberately omits an explicit encoding of the nesting
//! hierarchy; Appendix B proves that for *valid* diagrams (generated from
//! non-degenerate queries of depth ≤ 3 in ∄-normal form) the hierarchy is
//! nonetheless recoverable — uniquely — from the arrow rules alone.
//!
//! This module implements the recovery as explicit constraint checking:
//! every possible parent assignment over the diagram's *table groups*
//! (bounding boxes + the root group) is checked against
//!
//! 1. the arrow rules (same depth → undirected; Δdepth = 1 → shallow →
//!    deep; Δdepth > 1 → deep → shallow),
//! 2. the scope rule (cross-group edges only between ancestor and
//!    descendant), and
//! 3. Property 5.2 (connected subqueries),
//!
//! and the unique surviving assignment is rebuilt into a [`LogicTree`].
//! Finding **exactly one** consistent assignment for every valid diagram
//! is precisely Proposition 5.1; the [`crate::unambiguity`] harness
//! exercises it exhaustively over the Appendix B path patterns and
//! randomized branching trees.

use queryvis_diagram::{Diagram, RowKind, TableId};
use queryvis_logic::{AttrRef, LogicTree, LtPredicate, LtTable, Quantifier};
use std::fmt;

/// Errors from the inverse mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InverseError {
    /// The diagram is outside the scope of the Appendix B proof:
    /// ∀ boxes (simplified form), aggregates/grouping, or no root tables.
    Unsupported(String),
    /// No depth assignment satisfies the arrow rules — the diagram cannot
    /// have come from a valid query.
    NoInterpretation,
    /// More than one logic tree maps to this diagram (only possible for
    /// degenerate inputs; never for valid diagrams, per Prop. 5.1).
    Ambiguous { interpretations: usize },
}

impl fmt::Display for InverseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InverseError::Unsupported(why) => write!(f, "unsupported diagram: {why}"),
            InverseError::NoInterpretation => {
                write!(f, "no logic tree is consistent with this diagram")
            }
            InverseError::Ambiguous { interpretations } => write!(
                f,
                "diagram admits {interpretations} logic trees (degenerate input)"
            ),
        }
    }
}

impl std::error::Error for InverseError {}

/// A table group: one query block as visible in the diagram.
#[derive(Debug, Clone)]
pub struct Group {
    pub tables: Vec<TableId>,
    /// `None` for the root group; `Some(∄)` for boxed groups.
    pub quantifier: Option<Quantifier>,
}

/// The diagram viewed as a graph over table groups.
#[derive(Debug, Clone)]
pub struct GroupGraph {
    /// `groups[0]` is always the root group.
    pub groups: Vec<Group>,
    /// Group index of every table (the SELECT table maps to `usize::MAX`).
    pub group_of: Vec<usize>,
}

/// Build the group graph of a diagram, validating the Appendix B scope.
pub fn group_graph(diagram: &Diagram) -> Result<GroupGraph, InverseError> {
    for qbox in &diagram.boxes {
        if qbox.quantifier == Quantifier::ForAll {
            return Err(InverseError::Unsupported(
                "∀ boxes: run the inverse on the unsimplified (∄-normal form) diagram".into(),
            ));
        }
    }
    for table in &diagram.tables {
        for row in &table.rows {
            if matches!(row.kind, RowKind::Aggregate { .. } | RowKind::GroupBy) {
                return Err(InverseError::Unsupported(
                    "grouping/aggregate rows are outside the unambiguity proof".into(),
                ));
            }
        }
    }
    let mut group_of = vec![usize::MAX; diagram.tables.len()];
    let mut groups = vec![Group {
        tables: Vec::new(),
        quantifier: None,
    }];
    for (i, qbox) in diagram.boxes.iter().enumerate() {
        for &t in &qbox.tables {
            group_of[t] = i + 1;
        }
        groups.push(Group {
            tables: qbox.tables.clone(),
            quantifier: Some(qbox.quantifier),
        });
    }
    for table in &diagram.tables {
        if table.is_select {
            continue;
        }
        if group_of[table.id] == usize::MAX {
            group_of[table.id] = 0;
            groups[0].tables.push(table.id);
        }
    }
    if groups[0].tables.is_empty() {
        return Err(InverseError::Unsupported("no root-group tables".into()));
    }
    Ok(GroupGraph { groups, group_of })
}

/// One cross-group edge, at group granularity.
#[derive(Debug, Clone, Copy)]
struct CrossEdge {
    from_group: usize,
    to_group: usize,
    directed: bool,
}

fn cross_edges(diagram: &Diagram, gg: &GroupGraph) -> Vec<CrossEdge> {
    diagram
        .edges
        .iter()
        .filter_map(|e| {
            let a = gg.group_of[e.from.table];
            let b = gg.group_of[e.to.table];
            if a == usize::MAX || b == usize::MAX || a == b {
                return None; // SELECT edges and intra-group edges
            }
            Some(CrossEdge {
                from_group: a,
                to_group: b,
                directed: e.directed,
            })
        })
        .collect()
}

/// All parent assignments (one parent per non-root group) consistent with
/// the arrow rules, the scope rule, and — when `enforce_connectivity` —
/// Property 5.2. Exposed at crate level for the unambiguity harness.
pub(crate) fn consistent_assignments(
    diagram: &Diagram,
    gg: &GroupGraph,
    enforce_connectivity: bool,
) -> Vec<Vec<usize>> {
    let k = gg.groups.len();
    if k == 1 {
        return vec![Vec::new()];
    }
    let edges = cross_edges(diagram, gg);
    let mut found = Vec::new();
    // Parent candidates for groups 1..k (each can be any other group).
    let mut parent = vec![0usize; k]; // parent[0] unused
    enumerate(1, k, &mut parent, &mut |parent: &[usize]| {
        if let Some(depths) = tree_depths(parent, k) {
            if depths.iter().any(|&d| d > 3) {
                return;
            }
            if check_edges(&edges, parent, &depths)
                && (!enforce_connectivity || check_connectivity(&edges, parent, k))
            {
                found.push(parent[1..].to_vec());
            }
        }
    });
    found
}

fn enumerate(i: usize, k: usize, parent: &mut Vec<usize>, f: &mut impl FnMut(&[usize])) {
    if i == k {
        f(parent);
        return;
    }
    for p in 0..k {
        if p == i {
            continue;
        }
        parent[i] = p;
        enumerate(i + 1, k, parent, f);
    }
}

/// Depths of all groups if `parent` forms a tree rooted at 0, else `None`.
fn tree_depths(parent: &[usize], k: usize) -> Option<Vec<usize>> {
    let mut depths = vec![usize::MAX; k];
    depths[0] = 0;
    for start in 1..k {
        // Walk to a resolved ancestor; detect cycles by bounding steps.
        let mut chain = Vec::new();
        let mut cur = start;
        let mut steps = 0;
        while depths[cur] == usize::MAX {
            chain.push(cur);
            cur = parent[cur];
            steps += 1;
            if steps > k {
                return None; // cycle
            }
        }
        let mut d = depths[cur];
        for &node in chain.iter().rev() {
            d += 1;
            depths[node] = d;
        }
    }
    Some(depths)
}

fn is_ancestor(parent: &[usize], ancestor: usize, mut node: usize, k: usize) -> bool {
    let mut steps = 0;
    while node != 0 {
        node = parent[node];
        if node == ancestor {
            return true;
        }
        steps += 1;
        if steps > k {
            return false;
        }
    }
    ancestor == 0
}

fn check_edges(edges: &[CrossEdge], parent: &[usize], depths: &[usize]) -> bool {
    let k = depths.len();
    for e in edges {
        let (a, b) = (e.from_group, e.to_group);
        // Scope: endpoints must be in an ancestor–descendant relation.
        let related = is_ancestor(parent, a, b, k) || is_ancestor(parent, b, a, k);
        if !related {
            return false;
        }
        let (da, db) = (depths[a], depths[b]);
        if da == db {
            return false; // distinct same-depth groups cannot join
        }
        if !e.directed {
            return false; // cross-group edges are always directed
        }
        let diff = da.abs_diff(db);
        let ok = if diff == 1 { da < db } else { da > db };
        if !ok {
            return false;
        }
    }
    true
}

/// Property 5.2 at group granularity.
fn check_connectivity(edges: &[CrossEdge], parent: &[usize], k: usize) -> bool {
    let connected = |a: usize, b: usize| {
        edges.iter().any(|e| {
            (e.from_group == a && e.to_group == b) || (e.from_group == b && e.to_group == a)
        })
    };
    for g in 1..k {
        let p = parent[g];
        if connected(g, p) {
            continue;
        }
        let children: Vec<usize> = (1..k).filter(|&c| parent[c] == g).collect();
        let bridged =
            !children.is_empty() && children.iter().all(|&c| connected(c, g) && connected(c, p));
        if !bridged {
            return false;
        }
    }
    true
}

/// Recover the unique logic tree of a valid (∄-normal form) diagram.
pub fn recover_logic_tree(diagram: &Diagram) -> Result<LogicTree, InverseError> {
    let gg = group_graph(diagram)?;
    let assignments = consistent_assignments(diagram, &gg, true);
    match assignments.len() {
        0 => Err(InverseError::NoInterpretation),
        1 => Ok(rebuild(diagram, &gg, &assignments[0])),
        n => Err(InverseError::Ambiguous { interpretations: n }),
    }
}

/// Rebuild a [`LogicTree`] from a recovered parent assignment.
fn rebuild(diagram: &Diagram, gg: &GroupGraph, parents: &[usize]) -> LogicTree {
    let k = gg.groups.len();
    let parent_of = |g: usize| -> usize {
        debug_assert!(g >= 1);
        parents[g - 1]
    };

    // Create LT nodes in BFS order over the recovered tree.
    let mut tree = LogicTree::with_root();
    let mut node_of_group = vec![usize::MAX; k];
    node_of_group[0] = 0;
    let mut queue = std::collections::VecDeque::from([0usize]);
    while let Some(g) = queue.pop_front() {
        for child in 1..k {
            if parent_of(child) == g {
                let node = tree.add_child(node_of_group[g], Quantifier::NotExists);
                node_of_group[child] = node;
                queue.push_back(child);
            }
        }
    }

    // Tables.
    let mut depths = vec![0usize; k];
    for g in 1..k {
        depths[g] = tree.node(node_of_group[g]).depth;
    }
    for (g, group) in gg.groups.iter().enumerate() {
        for &tid in &group.tables {
            let t = &diagram.tables[tid];
            tree.node_mut(node_of_group[g]).tables.push(LtTable {
                key: t.binding,
                alias: t.alias,
                table: t.name,
            });
        }
    }

    // Selection-row predicates belong to their own group's block.
    for table in &diagram.tables {
        if table.is_select {
            continue;
        }
        let g = gg.group_of[table.id];
        for row in &table.rows {
            if let RowKind::Selection { op, value } = &row.kind {
                tree.node_mut(node_of_group[g])
                    .predicates
                    .push(LtPredicate::selection(
                        AttrRef::new(table.binding, row.column),
                        *op,
                        *value,
                    ));
            }
        }
    }

    // Join predicates: each non-SELECT edge becomes a predicate in the
    // deeper endpoint's block (or the shared block for intra-group edges),
    // reading `from op to` with `=` for unlabeled edges.
    let attr_of = |tid: TableId, row: usize| -> AttrRef {
        let t = &diagram.tables[tid];
        AttrRef::new(t.binding, t.rows[row].column)
    };
    for edge in &diagram.edges {
        let ga = gg.group_of[edge.from.table];
        let gb = gg.group_of[edge.to.table];
        if ga == usize::MAX || gb == usize::MAX {
            continue; // SELECT edge
        }
        let owner = if depths[ga] >= depths[gb] { ga } else { gb };
        let op = edge.label.unwrap_or(queryvis_sql::CompareOp::Eq);
        tree.node_mut(node_of_group[owner])
            .predicates
            .push(LtPredicate::join(
                attr_of(edge.from.table, edge.from.row),
                op,
                attr_of(edge.to.table, edge.to.row),
            ));
    }

    // Select list: rows of the SELECT table, resolved via their edges.
    let select = &diagram.tables[diagram.select_table];
    for (row_idx, _row) in select.rows.iter().enumerate() {
        for edge in &diagram.edges {
            let (here, there) = (edge.from, edge.to);
            if here.table == diagram.select_table && here.row == row_idx {
                tree.select.push(queryvis_logic::SelectAttr::Column(attr_of(
                    there.table,
                    there.row,
                )));
            } else if there.table == diagram.select_table && there.row == row_idx {
                tree.select.push(queryvis_logic::SelectAttr::Column(attr_of(
                    here.table, here.row,
                )));
            }
        }
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use queryvis_corpus::{chinook_schema, study_questions, unique_set_sql};
    use queryvis_diagram::build_diagram;
    use queryvis_logic::{simplify, translate};
    use queryvis_sql::{parse_query, Names};

    fn lt(sql: &str, schema: Option<&queryvis_sql::Schema>) -> (LogicTree, Names) {
        let mut names = Names::new();
        let query = parse_query(sql, &mut names).unwrap();
        (translate(&query, schema, &mut names).unwrap(), names)
    }

    fn roundtrip(sql: &str, schema: Option<&queryvis_sql::Schema>) {
        let (lt, names) = lt(sql, schema);
        let diagram = build_diagram(&lt);
        let recovered = recover_logic_tree(&diagram)
            .unwrap_or_else(|e| panic!("recovery failed: {e}\n{}", names.show(&diagram)));
        assert!(
            lt.structural_eq(&names, &recovered, &names),
            "round trip changed the tree\noriginal:\n{}\nrecovered:\n{}",
            names.show(&lt),
            names.show(&recovered)
        );
    }

    #[test]
    fn unique_set_roundtrips() {
        roundtrip(unique_set_sql(), None);
    }

    #[test]
    fn qonly_roundtrips() {
        roundtrip(
            "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
             (SELECT * FROM Serves S WHERE S.bar = F.bar AND NOT EXISTS \
             (SELECT L.drink FROM Likes L WHERE L.person = F.person AND S.drink = L.drink))",
            None,
        );
    }

    #[test]
    fn nested_study_questions_roundtrip() {
        let schema = chinook_schema();
        for q in study_questions() {
            // Only the nested, non-grouping questions are in ∄-normal form.
            if q.category == queryvis_corpus::QuestionCategory::Nested {
                roundtrip(q.sql, Some(&schema));
            }
        }
    }

    #[test]
    fn conjunctive_queries_roundtrip_trivially() {
        roundtrip(
            "SELECT F.person FROM Frequents F, Likes L, Serves S \
             WHERE F.person = L.person AND F.bar = S.bar AND L.drink = S.drink",
            None,
        );
    }

    #[test]
    fn multi_table_blocks_roundtrip() {
        roundtrip(
            "SELECT A.ArtistId FROM Artist A WHERE NOT EXISTS \
             (SELECT * FROM Album AL, Track T WHERE A.ArtistId = AL.ArtistId \
              AND AL.AlbumId = T.AlbumId AND T.Composer = A.Name)",
            None,
        );
    }

    #[test]
    fn selection_predicates_roundtrip() {
        roundtrip(
            "SELECT S.sname FROM Sailor S WHERE NOT EXISTS( \
             SELECT * FROM Reserves R WHERE R.sid = S.sid AND NOT EXISTS( \
             SELECT * FROM Boat B WHERE B.color = 'red' AND R.bid = B.bid))",
            None,
        );
    }

    #[test]
    fn inequality_labels_roundtrip() {
        roundtrip(
            "SELECT B.x FROM T B WHERE NOT EXISTS \
             (SELECT * FROM U S WHERE S.y > B.x)",
            None,
        );
    }

    #[test]
    fn forall_diagram_rejected() {
        let lt = lt(
            "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
                 (SELECT * FROM Serves S WHERE S.bar = F.bar AND NOT EXISTS \
                 (SELECT * FROM Likes L WHERE L.person = F.person AND S.drink = L.drink))",
            None,
        )
        .0;
        let simplified_diagram = build_diagram(&simplify(&lt));
        let err = recover_logic_tree(&simplified_diagram).unwrap_err();
        assert!(matches!(err, InverseError::Unsupported(_)));
    }

    #[test]
    fn grouping_diagram_rejected() {
        let lt = lt("SELECT T.a, COUNT(T.b) FROM T GROUP BY T.a", None).0;
        let err = recover_logic_tree(&build_diagram(&lt)).unwrap_err();
        assert!(matches!(err, InverseError::Unsupported(_)));
    }

    #[test]
    fn disconnected_block_has_no_interpretation() {
        // A degenerate query (violates Property 5.2): the subquery block
        // never references the outer block.
        let lt = lt(
            "SELECT A.x FROM A WHERE NOT EXISTS (SELECT * FROM B WHERE B.y = 'z')",
            None,
        )
        .0;
        let err = recover_logic_tree(&build_diagram(&lt)).unwrap_err();
        assert_eq!(err, InverseError::NoInterpretation);
    }

    #[test]
    fn dropping_property_52_admits_multiple_interpretations() {
        // The same degenerate diagram, without the connectivity rule: a
        // single isolated ∄ group with two more-deeply-nested candidates
        // becomes ambiguous — demonstrating that Property 5.2 is what
        // makes recovery unique.
        let lt = lt(
            "SELECT A.x FROM A WHERE NOT EXISTS (SELECT * FROM B WHERE B.y = 'z') \
                 AND NOT EXISTS (SELECT * FROM C WHERE C.u = A.x)",
            None,
        )
        .0;
        let diagram = build_diagram(&lt);
        let gg = group_graph(&diagram).unwrap();
        let with = consistent_assignments(&diagram, &gg, true);
        let without = consistent_assignments(&diagram, &gg, false);
        assert!(without.len() > 1, "expected ambiguity, got {without:?}");
        assert!(with.len() < without.len());
    }
}
