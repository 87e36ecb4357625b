//! Abstract syntax tree for the QueryVis SQL fragment (paper Fig. 4 plus the
//! GROUP BY / aggregate extension exercised by study questions Q7–Q9).
//!
//! The AST mirrors the grammar one-to-one: a [`Query`] is a single query
//! block (`SELECT`–`FROM`–`WHERE`[–`GROUP BY`]) whose `WHERE` clause is a
//! *conjunction* of [`Predicate`]s; subqueries appear only inside predicates
//! (`EXISTS`, `IN`, `ANY`/`ALL`), exactly as in the paper.
//!
//! All names — table names, aliases, column names, and constant literals —
//! are interned [`Symbol`]s emitted by the lexer; the operator vocabulary
//! ([`CompareOp`], [`AggFunc`], [`Value`]) is shared with the pattern IR
//! and re-exported from `queryvis-ir`.

use queryvis_ir::Symbol;
use std::fmt;

pub use queryvis_ir::{AggFunc, CompareOp, Value};

/// A (possibly qualified) column reference: `[T.]A`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Table alias qualifier; `None` for unqualified references that are
    /// resolved against the FROM clause during semantic analysis.
    pub table: Option<Symbol>,
    pub column: Symbol,
}

impl ColumnRef {
    pub fn new(table: impl Into<Symbol>, column: impl Into<Symbol>) -> Self {
        ColumnRef {
            table: Some(table.into()),
            column: column.into(),
        }
    }

    pub fn unqualified(column: impl Into<Symbol>) -> Self {
        ColumnRef {
            table: None,
            column: column.into(),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// One side of a comparison predicate: a column or a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    Column(ColumnRef),
    Value(Value),
}

impl Operand {
    pub fn as_column(&self) -> Option<&ColumnRef> {
        match self {
            Operand::Column(c) => Some(c),
            Operand::Value(_) => None,
        }
    }

    pub fn is_constant(&self) -> bool {
        matches!(self, Operand::Value(_))
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Column(c) => write!(f, "{c}"),
            Operand::Value(v) => write!(f, "{v}"),
        }
    }
}

/// An aggregate call `AGG(T.A)` or `COUNT(*)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AggCall {
    pub func: AggFunc,
    /// `None` encodes `COUNT(*)`.
    pub arg: Option<ColumnRef>,
}

impl fmt::Display for AggCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.arg {
            Some(c) => write!(f, "{}({c})", self.func),
            None => write!(f, "{}(*)", self.func),
        }
    }
}

/// A SELECT-list item: plain column or aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectItem {
    Column(ColumnRef),
    Aggregate(AggCall),
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Column(c) => write!(f, "{c}"),
            SelectItem::Aggregate(a) => write!(f, "{a}"),
        }
    }
}

/// `SELECT *` or an explicit item list.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SelectList {
    Star,
    Items(Vec<SelectItem>),
}

impl SelectList {
    pub fn items(&self) -> &[SelectItem] {
        match self {
            SelectList::Star => &[],
            SelectList::Items(items) => items,
        }
    }

    /// Plain (non-aggregate) columns of the select list.
    pub fn columns(&self) -> impl Iterator<Item = &ColumnRef> {
        self.items().iter().filter_map(|item| match item {
            SelectItem::Column(c) => Some(c),
            SelectItem::Aggregate(_) => None,
        })
    }
}

/// A FROM-clause entry: `Table [AS] Alias`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableRef {
    pub table: Symbol,
    pub alias: Option<Symbol>,
}

impl TableRef {
    pub fn new(table: impl Into<Symbol>) -> Self {
        TableRef {
            table: table.into(),
            alias: None,
        }
    }

    pub fn aliased(table: impl Into<Symbol>, alias: impl Into<Symbol>) -> Self {
        TableRef {
            table: table.into(),
            alias: Some(alias.into()),
        }
    }

    /// The name this table is referenced by in predicates: the alias if
    /// present, otherwise the table name itself.
    pub fn binding(&self) -> Symbol {
        self.alias.unwrap_or(self.table)
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.alias {
            Some(a) => write!(f, "{} {a}", self.table),
            None => write!(f, "{}", self.table),
        }
    }
}

/// Whether a quantified comparison uses `ANY` or `ALL`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubqueryQuantifier {
    Any,
    All,
}

impl SubqueryQuantifier {
    pub fn as_str(self) -> &'static str {
        match self {
            SubqueryQuantifier::Any => "ANY",
            SubqueryQuantifier::All => "ALL",
        }
    }
}

/// A single conjunct of a WHERE clause.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `C O C` (join predicate) or `C O V` (selection predicate).
    Compare {
        lhs: Operand,
        op: CompareOp,
        rhs: Operand,
    },
    /// `[NOT] EXISTS (Q)`.
    Exists { negated: bool, query: Box<Query> },
    /// `C [NOT] IN (Q)`.
    InSubquery {
        column: ColumnRef,
        negated: bool,
        query: Box<Query>,
    },
    /// `C O {ANY | ALL} (Q)`, possibly under a leading `NOT`.
    Quantified {
        column: ColumnRef,
        op: CompareOp,
        quantifier: SubqueryQuantifier,
        negated: bool,
        query: Box<Query>,
    },
    /// A disjunction of conjunctions: `(P AND P OR P AND P ...)`.
    ///
    /// `AND` binds tighter than `OR`, so every branch is a non-empty
    /// conjunction. The parser never produces a single-branch,
    /// single-predicate `Or` (it inlines that case); a single branch with
    /// several conjuncts encodes a parenthesized group `(P AND P)`.
    /// Disjunctions are *lowered away* before translation — see
    /// `queryvis_logic::disjunction`.
    Or(Vec<Vec<Predicate>>),
}

impl Predicate {
    /// Convenience constructor for an equijoin predicate.
    pub fn equi(
        lt: impl Into<Symbol>,
        lc: impl Into<Symbol>,
        rt: impl Into<Symbol>,
        rc: impl Into<Symbol>,
    ) -> Predicate {
        Predicate::Compare {
            lhs: Operand::Column(ColumnRef::new(lt, lc)),
            op: CompareOp::Eq,
            rhs: Operand::Column(ColumnRef::new(rt, rc)),
        }
    }

    /// True if this predicate contains a nested subquery (anywhere, for
    /// `Or`: in any branch).
    pub fn has_subquery(&self) -> bool {
        match self {
            Predicate::Compare { .. } => false,
            Predicate::Exists { .. }
            | Predicate::InSubquery { .. }
            | Predicate::Quantified { .. } => true,
            Predicate::Or(branches) => branches
                .iter()
                .any(|b| b.iter().any(Predicate::has_subquery)),
        }
    }

    /// The directly nested query of a subquery predicate. `None` for
    /// comparisons and for `Or` (which may hold many — use
    /// [`Predicate::subqueries`]).
    pub fn subquery(&self) -> Option<&Query> {
        match self {
            Predicate::Compare { .. } | Predicate::Or(_) => None,
            Predicate::Exists { query, .. }
            | Predicate::InSubquery { query, .. }
            | Predicate::Quantified { query, .. } => Some(query),
        }
    }

    /// Every query nested in this predicate, including inside `Or` branches.
    pub fn subqueries(&self) -> Vec<&Query> {
        let mut out = Vec::new();
        self.collect_subqueries(&mut out);
        out
    }

    fn collect_subqueries<'a>(&'a self, out: &mut Vec<&'a Query>) {
        match self {
            Predicate::Compare { .. } => {}
            Predicate::Exists { query, .. }
            | Predicate::InSubquery { query, .. }
            | Predicate::Quantified { query, .. } => out.push(query),
            Predicate::Or(branches) => {
                for branch in branches {
                    for pred in branch {
                        pred.collect_subqueries(out);
                    }
                }
            }
        }
    }

    /// Visit every `Compare` predicate in this conjunct, descending into
    /// `Or` branches but **not** into subqueries.
    pub fn for_each_compare(&self, f: &mut impl FnMut(&Operand, CompareOp, &Operand)) {
        match self {
            Predicate::Compare { lhs, op, rhs } => f(lhs, *op, rhs),
            Predicate::Exists { .. }
            | Predicate::InSubquery { .. }
            | Predicate::Quantified { .. } => {}
            Predicate::Or(branches) => {
                for branch in branches {
                    for pred in branch {
                        pred.for_each_compare(f);
                    }
                }
            }
        }
    }
}

/// A post-grouping predicate: `AGG([T.]A | *) O V` (the `HAVING` fragment —
/// aggregates compared against constants only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HavingPredicate {
    pub agg: AggCall,
    pub op: CompareOp,
    pub value: Value,
}

impl fmt::Display for HavingPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.agg, self.op, self.value)
    }
}

/// A query block (`SELECT`–`FROM`–`WHERE`\[–`GROUP BY`\[–`HAVING`\]\]).
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub select: SelectList,
    pub from: Vec<TableRef>,
    /// Conjunction of predicates; empty means no WHERE clause. Explicit
    /// `JOIN … ON` conditions are desugared into this list by the parser
    /// (preceding any WHERE conjuncts), so the AST never distinguishes
    /// join syntax.
    pub where_clause: Vec<Predicate>,
    /// GROUP BY columns (study extension); empty means no grouping.
    pub group_by: Vec<ColumnRef>,
    /// HAVING conjuncts (post-grouping predicates); requires `group_by`.
    pub having: Vec<HavingPredicate>,
}

impl Query {
    pub fn new(select: SelectList, from: Vec<TableRef>) -> Self {
        Query {
            select,
            from,
            where_clause: Vec::new(),
            group_by: Vec::new(),
            having: Vec::new(),
        }
    }

    /// Maximum nesting depth of the query: 0 for a flat (conjunctive) query,
    /// +1 per level of subquery (`NOT EXISTS`, `IN`, `ANY`/`ALL`).
    pub fn nesting_depth(&self) -> usize {
        self.where_clause
            .iter()
            .flat_map(Predicate::subqueries)
            .map(|q| 1 + q.nesting_depth())
            .max()
            .unwrap_or(0)
    }

    /// Total number of query blocks (this block plus all subquery blocks).
    pub fn block_count(&self) -> usize {
        1 + self
            .where_clause
            .iter()
            .flat_map(Predicate::subqueries)
            .map(Query::block_count)
            .sum::<usize>()
    }

    /// Total number of table references across all blocks — the paper's
    /// "number of table aliases referenced" complexity measure (§6.1).
    pub fn table_ref_count(&self) -> usize {
        self.from.len()
            + self
                .where_clause
                .iter()
                .flat_map(Predicate::subqueries)
                .map(Query::table_ref_count)
                .sum::<usize>()
    }

    /// Total number of join predicates (column-to-column comparisons) across
    /// all blocks — the other half of the paper's complexity measure.
    /// Comparisons inside `Or` branches count.
    pub fn join_count(&self) -> usize {
        let mut own = 0usize;
        for pred in &self.where_clause {
            pred.for_each_compare(&mut |lhs, _, rhs| {
                if matches!((lhs, rhs), (Operand::Column(_), Operand::Column(_))) {
                    own += 1;
                }
            });
        }
        own + self
            .where_clause
            .iter()
            .flat_map(Predicate::subqueries)
            .map(Query::join_count)
            .sum::<usize>()
    }

    /// True if any WHERE conjunct (at any nesting level of this block or
    /// its subqueries) is a disjunction.
    pub fn has_disjunction(&self) -> bool {
        self.where_clause
            .iter()
            .any(|p| matches!(p, Predicate::Or(_)))
            || self
                .where_clause
                .iter()
                .flat_map(Predicate::subqueries)
                .any(Query::has_disjunction)
    }

    /// True if the query uses grouping, a HAVING clause, or any aggregate
    /// select item.
    pub fn uses_grouping(&self) -> bool {
        !self.group_by.is_empty()
            || !self.having.is_empty()
            || self
                .select
                .items()
                .iter()
                .any(|i| matches!(i, SelectItem::Aggregate(_)))
    }
}

/// A top-level query expression: one query block, or a `UNION [ALL]` chain
/// of blocks. Single-block expressions (the entire pre-widening fragment)
/// have exactly one branch and `all == false`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryExpr {
    /// The union branches, in written order (always ≥ 1).
    pub branches: Vec<Query>,
    /// True for `UNION ALL` (bag semantics); `false` for `UNION` and for
    /// single-block expressions. Mixing the two flavors in one chain is
    /// outside the fragment.
    pub all: bool,
}

impl QueryExpr {
    /// Wrap a single query block.
    pub fn single(query: Query) -> Self {
        QueryExpr {
            branches: vec![query],
            all: false,
        }
    }

    /// True when the expression is a plain single-block query.
    pub fn is_single(&self) -> bool {
        self.branches.len() == 1
    }

    /// The first (or only) branch.
    pub fn first(&self) -> &Query {
        &self.branches[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_op_negate_roundtrip() {
        for op in [
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Eq,
            CompareOp::Ne,
            CompareOp::Ge,
            CompareOp::Gt,
        ] {
            assert_eq!(op.negate().negate(), op);
            assert_eq!(op.flip().flip(), op);
        }
    }

    #[test]
    fn compare_op_symmetry() {
        assert!(CompareOp::Eq.is_symmetric());
        assert!(CompareOp::Ne.is_symmetric());
        assert!(!CompareOp::Lt.is_symmetric());
        assert_eq!(CompareOp::Lt.flip(), CompareOp::Gt);
        assert_eq!(CompareOp::Le.negate(), CompareOp::Gt);
    }

    #[test]
    fn binding_prefers_alias() {
        assert_eq!(TableRef::aliased("Likes", "L1").binding(), "L1");
        assert_eq!(TableRef::new("Likes").binding(), "Likes");
    }

    #[test]
    fn depth_and_counts() {
        let inner = Query::new(SelectList::Star, vec![TableRef::aliased("Likes", "L2")]);
        let mut outer = Query::new(
            SelectList::Items(vec![SelectItem::Column(ColumnRef::new("L1", "drinker"))]),
            vec![TableRef::aliased("Likes", "L1")],
        );
        outer.where_clause.push(Predicate::Exists {
            negated: true,
            query: Box::new(inner),
        });
        assert_eq!(outer.nesting_depth(), 1);
        assert_eq!(outer.block_count(), 2);
        assert_eq!(outer.table_ref_count(), 2);
        assert_eq!(outer.join_count(), 0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ColumnRef::new("T", "a").to_string(), "T.a");
        assert_eq!(Value::Str("Rock".into()).to_string(), "'Rock'");
        assert_eq!(
            AggCall {
                func: AggFunc::Count,
                arg: None
            }
            .to_string(),
            "COUNT(*)"
        );
    }
}
