//! Diagram data structures.
//!
//! These types capture the *topology* of a QueryVis diagram — tables, rows,
//! quantifier boxes, and edges — independently of geometry (positions come
//! from `queryvis-layout`) and of pixels (colors/strokes come from
//! `queryvis-render`).

use queryvis_ir::{NamedDisplay, Names, Symbol};
use queryvis_logic::{NodeId, Quantifier};
use queryvis_sql::{AggFunc, CompareOp, Value};
use std::fmt;

/// Index of a table within [`Diagram::tables`].
pub type TableId = usize;

/// The kind of one row in a table composite mark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowKind {
    /// A plain attribute row (participates in a join or the select list).
    Attribute,
    /// A selection predicate row, rendered highlighted (yellow): `attr op value`.
    Selection { op: CompareOp, value: Value },
    /// A group-by attribute row, rendered highlighted (gray).
    GroupBy,
    /// An aggregate row (`SUM(Quantity)`), in the SELECT table and the
    /// source table of the aggregated attribute.
    Aggregate { func: AggFunc },
    /// A HAVING predicate row, rendered highlighted like a selection:
    /// `AGG(attr) op value` on the SELECT (grouping) table.
    Having {
        func: AggFunc,
        op: CompareOp,
        value: Value,
    },
}

/// One row of a table composite mark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRow {
    /// The attribute name (for aggregates, the argument attribute name, or
    /// [`Names::STAR`] for `COUNT(*)`).
    pub column: Symbol,
    pub kind: RowKind,
}

impl TableRow {
    /// The row's text as the pieces it is written from, in order, with
    /// unused trailing pieces empty: `column`, `column op value`,
    /// `FUNC(column)` or `FUNC(column) op value`, a string value in single
    /// quotes. This is the one definition of the row text (render-boundary
    /// resolution: here the query's `names` become strings again).
    /// [`TableRow::display`] joins the pieces, and layout joins them into
    /// the scene's row text, which also sets its table's width.
    pub fn text_pieces<'a>(&'a self, names: &'a Names) -> [&'a str; 9] {
        let column = names.resolve(self.column);
        let quote = |value: &Value| match value {
            Value::Number(_) => "",
            Value::Str(_) => "'",
        };
        match &self.kind {
            RowKind::Attribute | RowKind::GroupBy => [column, "", "", "", "", "", "", "", ""],
            RowKind::Selection { op, value } => {
                let q = quote(value);
                [
                    column,
                    " ",
                    op.as_str(),
                    " ",
                    q,
                    value.text(names),
                    q,
                    "",
                    "",
                ]
            }
            RowKind::Aggregate { func } => [func.as_str(), "(", column, ")", "", "", "", "", ""],
            RowKind::Having { func, op, value } => {
                let q = quote(value);
                [
                    func.as_str(),
                    "(",
                    column,
                    ") ",
                    op.as_str(),
                    " ",
                    q,
                    value.text(names),
                    q,
                ]
            }
        }
    }

    /// The text displayed in the row, in one exact-size allocation.
    pub fn display(&self, names: &Names) -> String {
        self.text_pieces(names).concat()
    }
}

/// A table composite mark: black header + stacked rows.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagramTable {
    pub id: TableId,
    /// Unique binding key within the diagram (`SELECT` for the select table).
    pub binding: Symbol,
    /// Alias as written in the query (display; equals `binding` unless the
    /// alias was shadowed).
    pub alias: Symbol,
    /// Header text: the base table name, or `SELECT`.
    pub name: Symbol,
    pub rows: Vec<TableRow>,
    /// The logic-tree node that introduced this table; `None` for SELECT.
    pub node: Option<NodeId>,
    /// Nesting depth of the owning node (0 for the root and SELECT).
    pub depth: usize,
    pub is_select: bool,
}

impl DiagramTable {
    /// Index of the first attribute/group-by row for `column`, if present.
    pub fn attr_row(&self, column: Symbol) -> Option<usize> {
        self.rows.iter().position(|r| {
            r.column == column && matches!(r.kind, RowKind::Attribute | RowKind::GroupBy)
        })
    }
}

/// A quantifier bounding box around all tables of one query block.
///
/// Only ∄ (dashed) and ∀ (double-lined) produce boxes; ∃ blocks are drawn
/// without enclosure ("treated as if T has the ∃ quantifier applied", §4.6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantifierBox {
    pub node: NodeId,
    pub quantifier: Quantifier,
    pub tables: Vec<TableId>,
}

/// One endpoint of an edge: a specific row of a specific table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeEndpoint {
    pub table: TableId,
    pub row: usize,
}

/// An edge between two attribute rows.
///
/// `directed == true` draws an arrowhead at `to`. `label == None` denotes an
/// equijoin (the `=` label is omitted per the minimality argument, §4.3.1);
/// otherwise the label shows the comparison operator, oriented so the edge
/// reads `from.row  label  to.row`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    pub from: EdgeEndpoint,
    pub to: EdgeEndpoint,
    pub directed: bool,
    pub label: Option<CompareOp>,
}

/// A complete QueryVis diagram.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagram {
    pub tables: Vec<DiagramTable>,
    pub boxes: Vec<QuantifierBox>,
    pub edges: Vec<Edge>,
    /// Id of the SELECT table (always present; every diagram has a root).
    pub select_table: TableId,
}

impl Diagram {
    pub fn table(&self, id: TableId) -> &DiagramTable {
        &self.tables[id]
    }

    /// Find a table by its binding key.
    pub fn table_by_binding(&self, binding: Symbol) -> Option<&DiagramTable> {
        self.tables.iter().find(|t| t.binding == binding)
    }

    /// Find a table by its display alias (first match).
    pub fn table_by_alias(&self, alias: Symbol) -> Option<&DiagramTable> {
        self.tables
            .iter()
            .find(|t| t.alias == alias && !t.is_select)
    }

    /// The quantifier box containing `table`, if any.
    pub fn box_of(&self, table: TableId) -> Option<&QuantifierBox> {
        self.boxes.iter().find(|b| b.tables.contains(&table))
    }

    /// Edges incident to `table` (either endpoint).
    pub fn edges_of(&self, table: TableId) -> impl Iterator<Item = &Edge> {
        self.edges
            .iter()
            .filter(move |e| e.from.table == table || e.to.table == table)
    }

    /// Directed edges leaving `table`.
    pub fn out_edges(&self, table: TableId) -> impl Iterator<Item = &Edge> {
        self.edges
            .iter()
            .filter(move |e| e.directed && e.from.table == table)
    }

    /// Directed edges entering `table`.
    pub fn in_edges(&self, table: TableId) -> impl Iterator<Item = &Edge> {
        self.edges
            .iter()
            .filter(move |e| e.directed && e.to.table == table)
    }
}

impl NamedDisplay for Diagram {
    /// A compact text dump used in logs and golden tests.
    fn fmt_named(&self, names: &Names, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for table in &self.tables {
            let boxed = match self.box_of(table.id) {
                Some(b) => format!(" [{}]", b.quantifier),
                None => String::new(),
            };
            let name = names.resolve(table.name);
            writeln!(f, "table {} `{name}`{boxed}:", table.id)?;
            for row in &table.rows {
                writeln!(f, "  | {}", row.display(names))?;
            }
        }
        let end = |e: &EdgeEndpoint| {
            let table = &self.tables[e.table];
            let column = table.rows[e.row].column;
            format!("{}.{}", names.resolve(table.binding), names.resolve(column))
        };
        for edge in &self.edges {
            let arrow = if edge.directed { "->" } else { "--" };
            let label = edge.label.map(|op| format!(" [{op}]")).unwrap_or_default();
            let (from, to) = (end(&edge.from), end(&edge.to));
            writeln!(f, "edge {from} {arrow} {to}{label}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_display_variants() {
        let mut names = Names::new();
        let attr = TableRow {
            column: names.intern("drinker"),
            kind: RowKind::Attribute,
        };
        let sel = TableRow {
            column: names.intern("color"),
            kind: RowKind::Selection {
                op: CompareOp::Eq,
                value: Value::Str(names.intern("red")),
            },
        };
        let agg = TableRow {
            column: names.intern("Quantity"),
            kind: RowKind::Aggregate { func: AggFunc::Sum },
        };
        assert_eq!(attr.display(&names), "drinker");
        assert_eq!(sel.display(&names), "color = 'red'");
        assert_eq!(agg.display(&names), "SUM(Quantity)");
    }

    #[test]
    fn attr_row_lookup_skips_selection_rows() {
        let mut names = Names::new();
        let mut n = |text: &str| names.intern(text);
        let (b, boat, color, red, bid) = (n("B"), n("Boat"), n("color"), n("red"), n("bid"));
        let table = DiagramTable {
            id: 0,
            binding: b,
            alias: b,
            name: boat,
            rows: vec![
                TableRow {
                    column: color,
                    kind: RowKind::Selection {
                        op: CompareOp::Eq,
                        value: Value::Str(red),
                    },
                },
                TableRow {
                    column: bid,
                    kind: RowKind::Attribute,
                },
            ],
            node: Some(1),
            depth: 1,
            is_select: false,
        };
        assert_eq!(table.attr_row(bid), Some(1));
        assert_eq!(table.attr_row(color), None);
    }
}
