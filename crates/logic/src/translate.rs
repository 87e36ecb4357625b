//! SQL AST → Logic Tree translation (paper §4.7, Appendix A.1).
//!
//! Each query block becomes one [`LtNode`](queryvis_ir::LtNode). Subquery predicates are
//! de-sugared into quantified child nodes, removing the syntactic variance
//! of SQL (`IN`, `NOT IN`, `ANY`, `ALL` "do not add expressiveness"):
//!
//! | SQL predicate            | child quantifier | extra predicate in child |
//! |--------------------------|------------------|--------------------------|
//! | `EXISTS (Q)`             | ∃                | —                        |
//! | `NOT EXISTS (Q)`         | ∄                | —                        |
//! | `x IN (Q)`               | ∃                | `x = sel(Q)`             |
//! | `x NOT IN (Q)`           | ∄                | `x = sel(Q)`             |
//! | `x op ANY (Q)`           | ∃                | `x op sel(Q)`            |
//! | `NOT x op ANY (Q)`       | ∄                | `x op sel(Q)`            |
//! | `x op ALL (Q)`           | ∄                | `x ¬op sel(Q)`           |
//! | `NOT x op ALL (Q)`       | ∃                | `x ¬op sel(Q)`           |
//!
//! where `sel(Q)` is the single column of `Q`'s SELECT list and `¬op` is the
//! logical negation of `op` (`x op ALL Q ≡ ∄ t ∈ Q : x ¬op t`).

use crate::lt::{
    AttrRef, LogicTree, LtHaving, LtPredicate, LtTable, NodeId, Quantifier, SelectAttr,
};
use queryvis_ir::Symbol;
use queryvis_sql::{
    ColumnRef, CompareOp, Operand, Predicate, Query, Schema, SelectItem, SelectList,
};
use std::collections::HashMap;
use std::fmt;

/// Errors produced during SQL → LT translation.
#[derive(Debug, Clone, PartialEq)]
pub enum TranslateError {
    /// A qualified column names a binding that is not in scope.
    UnknownBinding { binding: String },
    /// An unqualified column cannot be resolved (no schema given and more
    /// than one candidate binding in scope, or schema lookup failed).
    UnresolvedColumn { column: String },
    /// An unqualified column matches several bindings.
    AmbiguousColumn { column: String },
    /// A FROM table is missing from the provided schema.
    UnknownTable { table: String },
    /// An `IN`/`ANY`/`ALL` subquery whose SELECT list is not one plain column.
    BadSubquerySelect,
    /// A predicate compares two constants (outside the fragment).
    ConstantComparison,
    /// Aggregates / GROUP BY in a nested block (the extension covers only
    /// the root block, matching the study stimuli).
    NestedAggregate,
    /// A positive-polarity disjunction reached [`translate`] unlowered:
    /// it splits the query into several union branches, so the caller must
    /// go through [`translate_branches`] (or the diagram pipeline).
    UnloweredDisjunction { branches: usize },
    /// Disjunction lowering exceeded
    /// [`crate::disjunction::MAX_DISJUNCTION_BRANCHES`] branches.
    DisjunctionTooWide { branches: usize },
    /// An `OR` that would split a grouped (GROUP BY / aggregate) root
    /// block into union branches — that changes aggregate semantics, so it
    /// stays outside the supported fragment.
    DisjunctiveAggregate,
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::UnknownBinding { binding } => {
                write!(f, "unknown table alias `{binding}`")
            }
            TranslateError::UnresolvedColumn { column } => {
                write!(f, "cannot resolve unqualified column `{column}`")
            }
            TranslateError::AmbiguousColumn { column } => {
                write!(f, "unqualified column `{column}` is ambiguous")
            }
            TranslateError::UnknownTable { table } => write!(f, "unknown table `{table}`"),
            TranslateError::BadSubquerySelect => write!(
                f,
                "IN/ANY/ALL subqueries must SELECT exactly one plain column"
            ),
            TranslateError::ConstantComparison => {
                write!(f, "predicate compares two constants")
            }
            TranslateError::NestedAggregate => {
                write!(
                    f,
                    "aggregates/GROUP BY are only supported in the root block"
                )
            }
            TranslateError::UnloweredDisjunction { branches } => {
                write!(
                    f,
                    "disjunction splits the query into {branches} union branches; \
                     translate it with translate_branches (the pipeline does)"
                )
            }
            TranslateError::DisjunctionTooWide { branches } => {
                write!(
                    f,
                    "disjunction lowering would produce {branches} branches, \
                     beyond the supported bound of {}",
                    crate::disjunction::MAX_DISJUNCTION_BRANCHES
                )
            }
            TranslateError::DisjunctiveAggregate => {
                write!(
                    f,
                    "`OR` that splits a grouped query into union branches is \
                     outside the supported fragment (it would change aggregate \
                     results); only disjunctions under an odd number of \
                     negations are allowed with GROUP BY"
                )
            }
        }
    }
}

impl std::error::Error for TranslateError {}

/// Translate a parsed query into its logic tree.
///
/// If `schema` is given, unqualified column references are resolved through
/// it; without a schema, unqualified references resolve only when the
/// enclosing scope has a single binding.
///
/// Disjunctions are lowered first (see [`crate::disjunction`]); if the
/// lowering stays within one branch (negative-polarity `OR`s become
/// sibling ∄-groups) the tree comes back directly, otherwise the query is
/// a union of conjunctive branches and the caller must use
/// [`translate_branches`].
pub fn translate(query: &Query, schema: Option<&Schema>) -> Result<LogicTree, TranslateError> {
    if crate::disjunction::has_disjunction(query) {
        let mut trees = translate_branches(query, schema)?;
        if trees.len() != 1 {
            return Err(TranslateError::UnloweredDisjunction {
                branches: trees.len(),
            });
        }
        return Ok(trees.pop().expect("one branch"));
    }
    translate_conjunctive(query, schema)
}

/// Translate a query into one logic tree per union branch after lowering
/// its disjunctions. OR-free queries yield exactly one tree.
pub fn translate_branches(
    query: &Query,
    schema: Option<&Schema>,
) -> Result<Vec<LogicTree>, TranslateError> {
    crate::disjunction::lower_disjunctions(query)?
        .iter()
        .map(|q| translate_conjunctive(q, schema))
        .collect()
}

/// [`translate`] for a query already known to be OR-free.
fn translate_conjunctive(
    query: &Query,
    schema: Option<&Schema>,
) -> Result<LogicTree, TranslateError> {
    let mut translator = Translator {
        tree: LogicTree::with_root(),
        scopes: Vec::new(),
        schema,
        used_keys: HashMap::new(),
    };
    translator.block(query, 0, true)?;
    Ok(translator.tree)
}

/// One in-scope binding: (alias as written, unique key, base table name).
#[derive(Clone, Copy)]
struct Binding {
    alias: Symbol,
    key: Symbol,
    table: Symbol,
}

struct Translator<'a> {
    tree: LogicTree,
    /// Stack of per-block binding lists, innermost last.
    scopes: Vec<Vec<Binding>>,
    schema: Option<&'a Schema>,
    /// Disambiguation counters for shadowed aliases.
    used_keys: HashMap<Symbol, usize>,
}

impl<'a> Translator<'a> {
    /// Translate one query block into node `node_id`; returns the resolved
    /// single select attribute if the block selects exactly one plain column
    /// (used for `IN`/`ANY`/`ALL` de-sugaring).
    fn block(
        &mut self,
        query: &Query,
        node_id: NodeId,
        is_root: bool,
    ) -> Result<Option<AttrRef>, TranslateError> {
        if !is_root && query.uses_grouping() {
            return Err(TranslateError::NestedAggregate);
        }

        // Bind the FROM tables.
        let mut bindings = Vec::new();
        for table_ref in &query.from {
            let alias = table_ref.binding();
            let key = self.unique_key(alias);
            self.tree.node_mut(node_id).tables.push(LtTable {
                key,
                alias,
                table: table_ref.table,
            });
            bindings.push(Binding {
                alias,
                key,
                table: table_ref.table,
            });
        }
        self.scopes.push(bindings);

        let result = self.block_body(query, node_id, is_root);
        self.scopes.pop();
        result
    }

    fn block_body(
        &mut self,
        query: &Query,
        node_id: NodeId,
        is_root: bool,
    ) -> Result<Option<AttrRef>, TranslateError> {
        // Select list (root: recorded on the tree; nested: returned for
        // de-sugaring).
        let mut single_select = None;
        match &query.select {
            SelectList::Star => {}
            SelectList::Items(items) => {
                if is_root {
                    for item in items {
                        let attr = match item {
                            SelectItem::Column(c) => SelectAttr::Column(self.resolve(c)?),
                            SelectItem::Aggregate(agg) => SelectAttr::Aggregate {
                                func: agg.func,
                                arg: match &agg.arg {
                                    Some(c) => Some(self.resolve(c)?),
                                    None => None,
                                },
                            },
                        };
                        self.tree.select.push(attr);
                    }
                } else if let [SelectItem::Column(c)] = items.as_slice() {
                    single_select = Some(self.resolve(c)?);
                }
            }
        }
        if is_root {
            for c in &query.group_by {
                let attr = self.resolve(c)?;
                self.tree.group_by.push(attr);
            }
            for h in &query.having {
                let arg = match &h.agg.arg {
                    Some(c) => Some(self.resolve(c)?),
                    None => None,
                };
                self.tree.having.push(LtHaving {
                    func: h.agg.func,
                    arg,
                    op: h.op,
                    value: h.value,
                });
            }
        }

        // Predicates.
        for pred in &query.where_clause {
            match pred {
                Predicate::Compare { lhs, op, rhs } => {
                    let lt_pred = self.comparison(lhs, *op, rhs)?;
                    self.tree.node_mut(node_id).predicates.push(lt_pred);
                }
                Predicate::Exists { negated, query } => {
                    let quant = if *negated {
                        Quantifier::NotExists
                    } else {
                        Quantifier::Exists
                    };
                    let child = self.tree.add_child(node_id, quant);
                    self.block(query, child, false)?;
                }
                Predicate::InSubquery {
                    column,
                    negated,
                    query,
                } => {
                    let outer = self.resolve(column)?;
                    let quant = if *negated {
                        Quantifier::NotExists
                    } else {
                        Quantifier::Exists
                    };
                    self.desugar_subquery(node_id, quant, outer, CompareOp::Eq, query)?;
                }
                Predicate::Quantified {
                    column,
                    op,
                    quantifier,
                    negated,
                    query,
                } => {
                    let outer = self.resolve(column)?;
                    use queryvis_sql::ast::SubqueryQuantifier as SQ;
                    let (quant, child_op) = match (quantifier, negated) {
                        (SQ::Any, false) => (Quantifier::Exists, *op),
                        (SQ::Any, true) => (Quantifier::NotExists, *op),
                        (SQ::All, false) => (Quantifier::NotExists, op.negate()),
                        (SQ::All, true) => (Quantifier::Exists, op.negate()),
                    };
                    self.desugar_subquery(node_id, quant, outer, child_op, query)?;
                }
                // Lowering runs before translation (see `translate`); a
                // surviving disjunction means the caller skipped it.
                Predicate::Or(branches) => {
                    return Err(TranslateError::UnloweredDisjunction {
                        branches: branches.len(),
                    })
                }
            }
        }
        Ok(single_select)
    }

    /// Translate a membership/quantified subquery into a quantified child
    /// node carrying the linking predicate `outer op sel(child)`.
    fn desugar_subquery(
        &mut self,
        parent: NodeId,
        quant: Quantifier,
        outer: AttrRef,
        op: CompareOp,
        query: &Query,
    ) -> Result<(), TranslateError> {
        let child = self.tree.add_child(parent, quant);
        let sel = self
            .block(query, child, false)?
            .ok_or(TranslateError::BadSubquerySelect)?;
        self.tree
            .node_mut(child)
            .predicates
            .push(LtPredicate::join(outer, op, sel));
        Ok(())
    }

    fn comparison(
        &mut self,
        lhs: &Operand,
        op: CompareOp,
        rhs: &Operand,
    ) -> Result<LtPredicate, TranslateError> {
        match (lhs, rhs) {
            (Operand::Column(l), Operand::Column(r)) => {
                Ok(LtPredicate::join(self.resolve(l)?, op, self.resolve(r)?))
            }
            (Operand::Column(l), Operand::Value(v)) => {
                Ok(LtPredicate::selection(self.resolve(l)?, op, *v))
            }
            // Constant-first comparisons are flipped so the attribute leads.
            (Operand::Value(v), Operand::Column(r)) => {
                Ok(LtPredicate::selection(self.resolve(r)?, op.flip(), *v))
            }
            (Operand::Value(_), Operand::Value(_)) => Err(TranslateError::ConstantComparison),
        }
    }

    /// Resolve a column reference to a unique binding key, honoring SQL
    /// scope rules (innermost block first; inner aliases shadow outer ones).
    fn resolve(&self, column: &ColumnRef) -> Result<AttrRef, TranslateError> {
        match column.table {
            Some(alias) => {
                for scope in self.scopes.iter().rev() {
                    // Fast path: exact symbol match (the common case, since
                    // queries almost always spell an alias consistently).
                    if let Some(b) = scope.iter().find(|b| {
                        b.alias == alias || b.alias.as_str().eq_ignore_ascii_case(alias.as_str())
                    }) {
                        return Ok(AttrRef::new(b.key, column.column));
                    }
                }
                Err(TranslateError::UnknownBinding {
                    binding: alias.to_string(),
                })
            }
            None => {
                // Schema-aware resolution if available; otherwise only a
                // unique binding in the innermost non-empty scope works.
                for scope in self.scopes.iter().rev() {
                    let candidates: Vec<&Binding> = match self.schema {
                        Some(schema) => scope
                            .iter()
                            .filter(|b| {
                                schema
                                    .table(b.table.as_str())
                                    .is_some_and(|t| t.has_column(column.column.as_str()))
                            })
                            .collect(),
                        None => scope.iter().collect(),
                    };
                    match candidates.len() {
                        0 => continue,
                        1 => return Ok(AttrRef::new(candidates[0].key, column.column)),
                        _ => {
                            return Err(TranslateError::AmbiguousColumn {
                                column: column.column.to_string(),
                            })
                        }
                    }
                }
                Err(TranslateError::UnresolvedColumn {
                    column: column.column.to_string(),
                })
            }
        }
    }

    /// Produce a globally unique binding key for an alias (shadowed aliases
    /// get a numeric suffix: `L`, `L#2`, `L#3`, ...).
    fn unique_key(&mut self, alias: Symbol) -> Symbol {
        let count = self.used_keys.entry(alias).or_insert(0);
        *count += 1;
        if *count == 1 {
            alias
        } else {
            Symbol::intern(&format!("{alias}#{count}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lt::LtOperand;
    use queryvis_sql::parse_query;
    use queryvis_sql::schema::beers_schema;

    fn lt(sql: &str) -> LogicTree {
        translate(&parse_query(sql).unwrap(), None).unwrap()
    }

    #[test]
    fn conjunctive_query_single_node() {
        let tree = lt("SELECT F.person FROM Frequents F, Likes L, Serves S \
             WHERE F.person = L.person AND F.bar = S.bar AND L.drink = S.drink");
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.root().tables.len(), 3);
        assert_eq!(tree.root().predicates.len(), 3);
        assert_eq!(tree.select.len(), 1);
    }

    #[test]
    fn exists_becomes_child() {
        let tree = lt("SELECT F.person FROM Frequents F WHERE NOT EXISTS \
             (SELECT * FROM Serves S WHERE S.bar = F.bar)");
        assert_eq!(tree.node_count(), 2);
        assert_eq!(tree.node(1).quantifier, Quantifier::NotExists);
        assert_eq!(tree.node(1).depth, 1);
        assert_eq!(tree.node(1).predicates.len(), 1);
    }

    #[test]
    fn in_subquery_desugars_to_exists_with_equality() {
        let tree = lt("SELECT S.sname FROM Sailor S WHERE S.sid IN \
             (SELECT R.sid FROM Reserves R)");
        assert_eq!(tree.node(1).quantifier, Quantifier::Exists);
        let p = &tree.node(1).predicates[0];
        assert_eq!(p.lhs, AttrRef::new("S", "sid"));
        assert_eq!(p.op, CompareOp::Eq);
        assert_eq!(p.rhs, LtOperand::Attr(AttrRef::new("R", "sid")));
    }

    #[test]
    fn not_in_desugars_to_not_exists() {
        let tree = lt("SELECT S.sname FROM Sailor S WHERE S.sid NOT IN \
             (SELECT R.sid FROM Reserves R)");
        assert_eq!(tree.node(1).quantifier, Quantifier::NotExists);
    }

    #[test]
    fn all_desugars_to_not_exists_with_negated_op() {
        let tree = lt("SELECT T.TrackId FROM Track T WHERE T.ms >= ALL \
             (SELECT T2.ms FROM Track T2)");
        assert_eq!(tree.node(1).quantifier, Quantifier::NotExists);
        let p = &tree.node(1).predicates[0];
        assert_eq!(p.op, CompareOp::Lt); // ¬(>=) = <
    }

    #[test]
    fn negated_any_desugars_to_not_exists() {
        let tree = lt("SELECT S.sname FROM Sailor S WHERE NOT S.sid = ANY \
             (SELECT R.sid FROM Reserves R)");
        assert_eq!(tree.node(1).quantifier, Quantifier::NotExists);
        assert_eq!(tree.node(1).predicates[0].op, CompareOp::Eq);
    }

    #[test]
    fn fig24_variants_share_fingerprint() {
        let v1 = lt("SELECT S.sname FROM Sailor S WHERE NOT EXISTS( \
             SELECT * FROM Reserves R WHERE R.sid = S.sid AND NOT EXISTS( \
             SELECT * FROM Boat B WHERE B.color = 'red' AND R.bid = B.bid))");
        let v2 = lt("SELECT S.sname FROM Sailor S WHERE S.sid NOT IN( \
             SELECT R.sid FROM Reserves R WHERE R.bid NOT IN( \
             SELECT B.bid FROM Boat B WHERE B.color = 'red'))");
        let v3 = lt("SELECT S.sname FROM Sailor S WHERE NOT S.sid = ANY( \
             SELECT R.sid FROM Reserves R WHERE NOT R.bid = ANY( \
             SELECT B.bid FROM Boat B WHERE B.color = 'red'))");
        assert!(v1.structural_eq(&v2), "\n{v1}\nvs\n{v2}");
        assert!(v2.structural_eq(&v3), "\n{v2}\nvs\n{v3}");
    }

    #[test]
    fn shadowed_alias_gets_unique_key() {
        let tree = lt("SELECT L.drinker FROM Likes L WHERE NOT EXISTS \
             (SELECT * FROM Serves L WHERE L.bar = 'Owl')");
        assert_eq!(tree.node(0).tables[0].key, "L");
        assert_eq!(tree.node(1).tables[0].key, "L#2");
        // The inner predicate must reference the inner (shadowing) binding.
        assert_eq!(tree.node(1).predicates[0].lhs.binding, "L#2");
    }

    #[test]
    fn constant_flipped_to_rhs() {
        let tree = lt("SELECT T.a FROM T WHERE 3 < T.a");
        let p = &tree.root().predicates[0];
        assert_eq!(p.lhs, AttrRef::new("T", "a"));
        assert_eq!(p.op, CompareOp::Gt);
    }

    #[test]
    fn unqualified_resolution_without_schema_single_binding() {
        let tree = lt("SELECT drinker FROM Likes WHERE beer = 'IPA'");
        assert_eq!(tree.select.len(), 1);
        assert_eq!(tree.root().predicates[0].lhs.binding, "Likes");
    }

    #[test]
    fn unqualified_resolution_with_schema() {
        let q =
            parse_query("SELECT drinker FROM Frequents F, Serves S WHERE F.bar = S.bar").unwrap();
        let tree = translate(&q, Some(&beers_schema())).unwrap();
        // `drinker` exists only on Frequents.
        match &tree.select[0] {
            SelectAttr::Column(a) => assert_eq!(a.binding, "F"),
            other => panic!("unexpected select {other:?}"),
        }
    }

    #[test]
    fn ambiguous_unqualified_without_schema_errors() {
        let q = parse_query("SELECT drinker FROM Likes L, Frequents F WHERE L.a = F.b").unwrap();
        let err = translate(&q, None).unwrap_err();
        assert_eq!(
            err,
            TranslateError::AmbiguousColumn {
                column: "drinker".into()
            }
        );
    }

    #[test]
    fn nested_aggregate_rejected() {
        let q =
            parse_query("SELECT T.a FROM T WHERE EXISTS (SELECT COUNT(S.x) FROM S GROUP BY S.x)")
                .unwrap();
        assert_eq!(
            translate(&q, None).unwrap_err(),
            TranslateError::NestedAggregate
        );
    }

    #[test]
    fn group_by_recorded_on_tree() {
        let tree = lt("SELECT T.AlbumId, MAX(T.ms) FROM Track T GROUP BY T.AlbumId");
        assert_eq!(tree.group_by.len(), 1);
        assert_eq!(tree.select.len(), 2);
        assert!(matches!(
            tree.select[1],
            SelectAttr::Aggregate {
                func: queryvis_sql::AggFunc::Max,
                ..
            }
        ));
    }
}
