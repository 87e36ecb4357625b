//! Logic tree → QueryVis diagram construction (paper §4.7, Appendix A.3).
//!
//! The construction follows Appendix A.3 step by step:
//!
//! 1. One diagram table per table bound in any LT node (BFS order).
//! 2. A quantifier bounding box per ∄ / ∀ node (∃ nodes and the root get
//!    none).
//! 3. Selection predicates written in place as highlighted rows.
//! 4. Edges for join predicates with the **arrow rules**: let `d1`, `d2` be
//!    the nesting depths of the two endpoint tables —
//!    * `d1 == d2` → undirected (an arrow is still drawn for ordered
//!      operators, whose operand order matters, §4.3.1);
//!    * `|d1 − d2| == 1` → arrow from the shallower to the deeper table;
//!    * `|d1 − d2| > 1` → arrow from the deeper to the shallower table.
//!
//!    Labels carry non-`=` operators, re-oriented so the edge reads
//!    `from op to` (§4.5.1: "we must rewrite the join with the
//!    equivalent condition"). Same-depth edges with ordered operators
//!    keep an arrowhead to show operand order.
//! 5. A SELECT table connected by undirected edges to the selected
//!    attributes (plus group-by/aggregate rows for the study extension).

use crate::model::{
    Diagram, DiagramTable, Edge, EdgeEndpoint, QuantifierBox, RowKind, TableId, TableRow,
};
use queryvis_ir::Symbol;
use queryvis_logic::{AttrRef, LogicTree, LtOperand, Quantifier, SelectAttr};
use std::collections::HashMap;

/// Build the QueryVis diagram of a logic tree.
///
/// Pass the *simplified* tree (see [`queryvis_logic::simplify`](fn@queryvis_logic::simplify)) to obtain
/// ∀ boxes (paper Fig. 2c / Fig. 12b); the raw tree yields the nested-∄
/// form (Fig. 2b / Fig. 12a).
pub fn build_diagram(tree: &LogicTree) -> Diagram {
    Builder::new(tree).build()
}

struct Builder<'t> {
    tree: &'t LogicTree,
    tables: Vec<DiagramTable>,
    boxes: Vec<QuantifierBox>,
    edges: Vec<Edge>,
    by_binding: HashMap<Symbol, TableId>,
}

impl<'t> Builder<'t> {
    fn new(tree: &'t LogicTree) -> Self {
        Builder {
            tree,
            tables: Vec::new(),
            boxes: Vec::new(),
            edges: Vec::new(),
            by_binding: HashMap::new(),
        }
    }

    fn build(mut self) -> Diagram {
        // Step 1+2: tables in BFS node order, with quantifier boxes.
        for node_id in self.tree.bfs() {
            let node = self.tree.node(node_id);
            let mut group = Vec::new();
            for lt_table in &node.tables {
                let id = self.tables.len();
                self.tables.push(DiagramTable {
                    id,
                    binding: lt_table.key,
                    alias: lt_table.alias,
                    name: lt_table.table,
                    rows: Vec::new(),
                    node: Some(node_id),
                    depth: node.depth,
                    is_select: false,
                });
                self.by_binding.insert(lt_table.key, id);
                group.push(id);
            }
            if !node.is_root()
                && matches!(node.quantifier, Quantifier::NotExists | Quantifier::ForAll)
            {
                self.boxes.push(QuantifierBox {
                    node: node_id,
                    quantifier: node.quantifier,
                    tables: group,
                });
            }
        }

        // Step 3+4: rows and edges, node by node in BFS order so row order
        // is deterministic and mirrors the query's reading order.
        for node_id in self.tree.bfs() {
            let node = self.tree.node(node_id);
            for pred in &node.predicates {
                match pred.rhs {
                    LtOperand::Const(value) => {
                        let table = self.by_binding[&pred.lhs.binding];
                        self.tables[table].rows.push(TableRow {
                            column: pred.lhs.column,
                            kind: RowKind::Selection { op: pred.op, value },
                        });
                    }
                    LtOperand::Attr(rhs) => {
                        self.join_edge(pred.lhs, pred.op, rhs);
                    }
                }
            }
        }

        // Step 5: the SELECT table, wired to its source attributes.
        let select_table = self.build_select_table();

        // Group-by highlighting (study extension): mark grouped attributes
        // gray in their source tables.
        for attr in &self.tree.group_by {
            let table = self.by_binding[&attr.binding];
            let row = self.ensure_attr_row(table, attr.column);
            self.tables[table].rows[row].kind = RowKind::GroupBy;
        }

        // HAVING conjuncts: highlighted rows on the SELECT (grouping)
        // table, wired to the aggregated attribute's source table like
        // select-list aggregates.
        for h in &self.tree.having.clone() {
            let column = h
                .arg
                .map(|a| a.column)
                .unwrap_or_else(|| Symbol::intern("*"));
            self.tables[select_table].rows.push(TableRow {
                column,
                kind: RowKind::Having {
                    func: h.func,
                    op: h.op,
                    value: h.value,
                },
            });
            let having_row = self.tables[select_table].rows.len() - 1;
            if let Some(a) = h.arg {
                let source = self.by_binding[&a.binding];
                let source_row = self.ensure_attr_row(source, a.column);
                self.edges.push(Edge {
                    from: EdgeEndpoint {
                        table: select_table,
                        row: having_row,
                    },
                    to: EdgeEndpoint {
                        table: source,
                        row: source_row,
                    },
                    directed: false,
                    label: None,
                });
            }
        }

        Diagram {
            tables: self.tables,
            boxes: self.boxes,
            edges: self.edges,
            select_table,
        }
    }

    /// Row index of `column` in `table`, creating a plain attribute row on
    /// first reference (rows appear in order of first use).
    fn ensure_attr_row(&mut self, table: TableId, column: Symbol) -> usize {
        if let Some(idx) = self.tables[table].attr_row(column) {
            return idx;
        }
        self.tables[table].rows.push(TableRow {
            column,
            kind: RowKind::Attribute,
        });
        self.tables[table].rows.len() - 1
    }

    /// Create the edge for a join predicate `lhs op rhs`, applying the
    /// arrow rules.
    fn join_edge(&mut self, lhs: AttrRef, op: queryvis_sql::CompareOp, rhs: AttrRef) {
        let lhs_table = self.by_binding[&lhs.binding];
        let rhs_table = self.by_binding[&rhs.binding];
        let lhs_row = self.ensure_attr_row(lhs_table, lhs.column);
        let rhs_row = self.ensure_attr_row(rhs_table, rhs.column);
        let d1 = self.tables[lhs_table].depth;
        let d2 = self.tables[rhs_table].depth;

        // Decide which endpoint the edge starts from (arrow rules).
        let (from_is_lhs, directed) = if d1 == d2 {
            // Same depth: undirected for symmetric operators; ordered
            // operators keep an arrow indicating operand order.
            (true, !op.is_symmetric())
        } else {
            let diff = d1.abs_diff(d2);
            let lhs_first = if diff == 1 { d1 < d2 } else { d1 > d2 };
            (lhs_first, true)
        };

        let (from, to, oriented_op) = if from_is_lhs {
            (
                EdgeEndpoint {
                    table: lhs_table,
                    row: lhs_row,
                },
                EdgeEndpoint {
                    table: rhs_table,
                    row: rhs_row,
                },
                op,
            )
        } else {
            // The edge is drawn rhs → lhs, so the operator must be flipped
            // to read correctly along the edge.
            (
                EdgeEndpoint {
                    table: rhs_table,
                    row: rhs_row,
                },
                EdgeEndpoint {
                    table: lhs_table,
                    row: lhs_row,
                },
                op.flip(),
            )
        };
        let label = (oriented_op != queryvis_sql::CompareOp::Eq).then_some(oriented_op);
        self.edges.push(Edge {
            from,
            to,
            directed,
            label,
        });
    }

    fn build_select_table(&mut self) -> TableId {
        let select_id = self.tables.len();
        self.tables.push(DiagramTable {
            id: select_id,
            binding: "SELECT".into(),
            alias: "SELECT".into(),
            name: "SELECT".into(),
            rows: Vec::new(),
            node: None,
            depth: 0,
            is_select: true,
        });
        for attr in &self.tree.select.clone() {
            match attr {
                SelectAttr::Column(a) => {
                    let grouped = self.tree.group_by.contains(a);
                    let kind = if grouped {
                        RowKind::GroupBy
                    } else {
                        RowKind::Attribute
                    };
                    self.tables[select_id].rows.push(TableRow {
                        column: a.column,
                        kind,
                    });
                    let select_row = self.tables[select_id].rows.len() - 1;
                    let source = self.by_binding[&a.binding];
                    let source_row = self.ensure_attr_row(source, a.column);
                    self.edges.push(Edge {
                        from: EdgeEndpoint {
                            table: select_id,
                            row: select_row,
                        },
                        to: EdgeEndpoint {
                            table: source,
                            row: source_row,
                        },
                        directed: false,
                        label: None,
                    });
                }
                SelectAttr::Aggregate { func, arg } => {
                    let column = arg
                        .as_ref()
                        .map(|a| a.column)
                        .unwrap_or_else(|| Symbol::intern("*"));
                    self.tables[select_id].rows.push(TableRow {
                        column,
                        kind: RowKind::Aggregate { func: *func },
                    });
                    let select_row = self.tables[select_id].rows.len() - 1;
                    // The aggregate also appears as a row in the source
                    // table (tutorial page 6), connected to the SELECT copy.
                    if let Some(a) = arg {
                        let source = self.by_binding[&a.binding];
                        self.tables[source].rows.push(TableRow {
                            column: a.column,
                            kind: RowKind::Aggregate { func: *func },
                        });
                        let source_row = self.tables[source].rows.len() - 1;
                        self.edges.push(Edge {
                            from: EdgeEndpoint {
                                table: select_id,
                                row: select_row,
                            },
                            to: EdgeEndpoint {
                                table: source,
                                row: source_row,
                            },
                            directed: false,
                            label: None,
                        });
                    }
                }
            }
        }
        select_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use queryvis_logic::{simplify, translate};
    use queryvis_sql::{parse_query, CompareOp};

    fn diagram(sql: &str) -> Diagram {
        build_diagram(&translate(&parse_query(sql).unwrap(), None).unwrap())
    }

    fn diagram_simplified(sql: &str) -> Diagram {
        build_diagram(&simplify(
            &translate(&parse_query(sql).unwrap(), None).unwrap(),
        ))
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
    fn conjunctive_diagram_structure() {
        // Fig. 2a: Qsome — 3 base tables + SELECT, 4 edges, no boxes.
        let d = diagram(
            "SELECT F.person FROM Frequents F, Likes L, Serves S \
             WHERE F.person = L.person AND F.bar = S.bar AND L.drink = S.drink",
        );
        assert_eq!(d.tables.len(), 4);
        assert_eq!(d.boxes.len(), 0);
        assert_eq!(d.edges.len(), 4);
        assert!(d.edges.iter().all(|e| !e.directed));
        assert!(d.edges.iter().all(|e| e.label.is_none()));
    }

    #[test]
    fn unique_set_diagram_matches_fig1b() {
        let d = diagram(UNIQUE_SET);
        // 6 Likes tables + SELECT.
        assert_eq!(d.tables.len(), 7);
        // 5 dashed boxes (L2..L6 blocks), none for the root.
        assert_eq!(d.boxes.len(), 5);
        assert!(d
            .boxes
            .iter()
            .all(|b| b.quantifier == Quantifier::NotExists));
        // 7 join edges + 1 SELECT edge.
        assert_eq!(d.edges.len(), 8);
        // Exactly one labeled edge: the <> between L1 and L2.
        let labeled: Vec<&Edge> = d.edges.iter().filter(|e| e.label.is_some()).collect();
        assert_eq!(labeled.len(), 1);
        assert_eq!(labeled[0].label, Some(CompareOp::Ne));
    }

    #[test]
    fn unique_set_arrow_directions_match_appendix_a() {
        let d = diagram(UNIQUE_SET);
        let edge = |from: &str, to: &str| {
            let f = d.table_by_binding(from).unwrap().id;
            let t = d.table_by_binding(to).unwrap().id;
            d.edges
                .iter()
                .find(|e| e.directed && e.from.table == f && e.to.table == t)
                .unwrap_or_else(|| panic!("missing edge {from}->{to}\n{d}"))
        };
        // Appendix A.3 step 4 (with the SQL of Fig. 1a as ground truth):
        edge("L1", "L2"); // depth 0 -> 1 (diff 1)
        edge("L2", "L3"); // depth 1 -> 2 (diff 1): L3.drinker = L2.drinker
        edge("L3", "L4"); // depth 2 -> 3 (diff 1): L4.beer = L3.beer
        edge("L4", "L1"); // depth 3 -> 0 (diff 3): L4.drinker = L1.drinker
        edge("L5", "L1"); // depth 2 -> 0 (diff 2): L5.drinker = L1.drinker
        edge("L5", "L6"); // depth 2 -> 3 (diff 1): L6.beer = L5.beer
        edge("L6", "L2"); // depth 3 -> 1 (diff 2): L6.drinker = L2.drinker
    }

    #[test]
    fn qonly_boxes_dashed_then_forall_after_simplify() {
        const QONLY: &str = "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
             (SELECT * FROM Serves S WHERE S.bar = F.bar AND NOT EXISTS \
             (SELECT L.drink FROM Likes L WHERE L.person = F.person AND S.drink = L.drink))";
        let raw = diagram(QONLY);
        assert_eq!(raw.boxes.len(), 2);
        assert!(raw
            .boxes
            .iter()
            .all(|b| b.quantifier == Quantifier::NotExists));
        let simp = diagram_simplified(QONLY);
        // Fig. 2c: one ∀ box; the inner ∃ block loses its box.
        assert_eq!(simp.boxes.len(), 1);
        assert_eq!(simp.boxes[0].quantifier, Quantifier::ForAll);
    }

    #[test]
    fn selection_predicate_written_in_row() {
        let d = diagram("SELECT B.bid FROM Boat B WHERE B.color = 'red'");
        let boat = d.table_by_binding("B").unwrap();
        let sel_row = boat
            .rows
            .iter()
            .find(|r| matches!(r.kind, RowKind::Selection { .. }))
            .unwrap();
        assert_eq!(sel_row.display(), "color = 'red'");
    }

    #[test]
    fn ordered_op_same_depth_gets_arrow_and_label() {
        let d = diagram("SELECT A.x FROM T A, T B WHERE A.x < B.x");
        let e = d.edges.iter().find(|e| e.label.is_some()).unwrap();
        assert!(e.directed);
        assert_eq!(e.label, Some(CompareOp::Lt));
        assert_eq!(d.tables[e.from.table].binding, "A");
    }

    #[test]
    fn ordered_op_across_depth_is_reoriented() {
        // B is the parent of the subquery block; predicate is written
        // `S.y > B.x` but the arrow must go B -> S (diff 1), so the label
        // must flip to `<` to read `B.x < S.y`.
        let d = diagram(
            "SELECT B.x FROM T B WHERE NOT EXISTS \
             (SELECT * FROM U S WHERE S.y > B.x)",
        );
        let e = d.edges.iter().find(|e| e.label.is_some()).unwrap();
        assert_eq!(d.tables[e.from.table].binding, "B");
        assert_eq!(d.tables[e.to.table].binding, "S");
        assert_eq!(e.label, Some(CompareOp::Lt));
    }

    #[test]
    fn select_table_edges_are_undirected() {
        let d = diagram("SELECT L.drinker, L.beer FROM Likes L");
        let select = &d.tables[d.select_table];
        assert!(select.is_select);
        assert_eq!(select.rows.len(), 2);
        assert_eq!(d.edges.len(), 2);
        assert!(d.edges.iter().all(|e| !e.directed));
    }

    #[test]
    fn group_by_rows_marked() {
        let d = diagram("SELECT T.AlbumId, MAX(T.Milliseconds) FROM Track T GROUP BY T.AlbumId");
        let track = d.table_by_binding("T").unwrap();
        let album_row = &track.rows[track.attr_row("AlbumId").unwrap()];
        assert_eq!(album_row.kind, RowKind::GroupBy);
        // Aggregate rows exist on both SELECT and source tables.
        assert!(track
            .rows
            .iter()
            .any(|r| matches!(r.kind, RowKind::Aggregate { .. })));
        let select = &d.tables[d.select_table];
        assert!(select
            .rows
            .iter()
            .any(|r| r.display() == "MAX(Milliseconds)"));
        assert!(select
            .rows
            .iter()
            .any(|r| r.kind == RowKind::GroupBy && r.column == "AlbumId"));
    }

    #[test]
    fn count_star_has_no_source_edge() {
        let d = diagram("SELECT COUNT(*) FROM T GROUP BY T.a");
        let select = &d.tables[d.select_table];
        assert_eq!(select.rows[0].display(), "COUNT(*)");
        // Only edges: none for COUNT(*) (no source attribute).
        assert!(d.edges.iter().all(
            |e| e.from.table != d.select_table || d.tables[e.to.table].attr_row("a").is_some()
        ));
    }

    #[test]
    fn exists_block_has_no_box() {
        let d = diagram(
            "SELECT L.drinker FROM Likes L WHERE EXISTS \
             (SELECT * FROM Serves S WHERE S.beer = L.beer)",
        );
        assert_eq!(d.boxes.len(), 0);
        // But the join edge is still directed by depth (0 -> 1).
        let e = d.edges.iter().find(|e| e.directed).unwrap();
        assert_eq!(d.tables[e.from.table].binding, "L");
    }

    #[test]
    fn rows_appear_in_first_use_order() {
        let d = diagram(UNIQUE_SET);
        let l4 = d.table_by_binding("L4").unwrap();
        let cols: Vec<&str> = l4.rows.iter().map(|r| r.column.as_str()).collect();
        assert_eq!(cols, vec!["drinker", "beer"]);
    }
}
