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
//!
//! The translator walks blocks, not copies of them: an OR-free query as
//! written, or the OR-free blocks [`crate::disjunction`] lowers a
//! disjunctive one into, each a written `&Query` (select list, FROM list,
//! grouping) with its own conjunct list. Nothing of the AST is cloned.

use crate::disjunction::{Conjunct, Lowering};
use crate::lt::{
    AttrRef, LogicTree, LtHaving, LtPredicate, LtTable, NodeId, Quantifier, SelectAttr,
};
use queryvis_ir::{Names, Symbol};
use queryvis_sql::{
    ColumnRef, CompareOp, Operand, Predicate, Query, Schema, SelectItem, SelectList,
};
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
///
/// The query's names live in `names`; the binding keys translation makes
/// up for shadowed aliases (`L#2`) go into it too.
pub fn translate(
    query: &Query,
    schema: Option<&Schema>,
    names: &mut Names,
) -> Result<LogicTree, TranslateError> {
    let mut trees = translate_branches(query, schema, names)?;
    if trees.len() != 1 {
        return Err(TranslateError::UnloweredDisjunction {
            branches: trees.len(),
        });
    }
    Ok(trees.pop().expect("one branch"))
}

/// Translate a query into one logic tree per union branch after lowering
/// its disjunctions, in branch order; the first error wins, lowering's
/// before any branch's. OR-free queries yield exactly one tree, walked as
/// written; a disjunctive query is walked through its lowered blocks,
/// which borrow the query and copy none of it.
pub fn translate_branches(
    query: &Query,
    schema: Option<&Schema>,
    names: &mut Names,
) -> Result<Vec<LogicTree>, TranslateError> {
    if !query.has_disjunction() {
        return Ok(vec![translate_block(Block::Written(query), schema, names)?]);
    }
    let lowering = Lowering::of(query)?;
    lowering
        .roots()
        .map(|root| translate_block(Block::Lowered(&lowering, root), schema, names))
        .collect()
}

/// Translate one OR-free block and everything nested in it.
fn translate_block(
    block: Block<'_>,
    schema: Option<&Schema>,
    names: &mut Names,
) -> Result<LogicTree, TranslateError> {
    let mut translator = Translator {
        tree: LogicTree::with_root(),
        scopes: Vec::new(),
        schema,
        used_keys: vec![0; names.len()],
        names,
    };
    translator.block(block, 0, true)?;
    Ok(translator.tree)
}

/// A block the translator walks: an OR-free block as written, or a block
/// of a [`Lowering`].
#[derive(Clone, Copy)]
enum Block<'a> {
    Written(&'a Query),
    Lowered(&'a Lowering<'a>, u32),
}

impl<'a> Block<'a> {
    /// The written block: select list, FROM list and grouping.
    fn query(self) -> &'a Query {
        match self {
            Block::Written(query) => query,
            Block::Lowered(lowering, block) => lowering.query(block),
        }
    }

    fn conjunct_count(self) -> usize {
        match self {
            Block::Written(query) => query.where_clause.len(),
            Block::Lowered(lowering, block) => lowering.conjuncts(block).len(),
        }
    }

    /// Conjunct `k`: its predicate and, for a subquery predicate, the block
    /// of its subquery.
    fn conjunct(self, k: usize) -> (&'a Predicate, Option<Block<'a>>) {
        match self {
            Block::Written(query) => {
                let predicate = &query.where_clause[k];
                (predicate, predicate.subquery().map(Block::Written))
            }
            Block::Lowered(lowering, block) => match lowering.conjuncts(block)[k] {
                Conjunct::Compare(predicate) => (predicate, None),
                Conjunct::Subquery(predicate, sub) => {
                    (predicate, Some(Block::Lowered(lowering, sub)))
                }
            },
        }
    }
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
    /// The query's name table.
    names: &'a mut Names,
    /// Disambiguation counters for shadowed aliases, indexed by the
    /// alias's [`Symbol::index`].
    used_keys: Vec<u32>,
}

impl<'a> Translator<'a> {
    /// Translate one query block into node `node_id`; returns the resolved
    /// single select attribute if the block selects exactly one plain column
    /// (used for `IN`/`ANY`/`ALL` de-sugaring).
    fn block(
        &mut self,
        block: Block<'_>,
        node_id: NodeId,
        is_root: bool,
    ) -> Result<Option<AttrRef>, TranslateError> {
        let query = block.query();
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

        let result = self.block_body(block, node_id, is_root);
        self.scopes.pop();
        result
    }

    fn block_body(
        &mut self,
        block: Block<'_>,
        node_id: NodeId,
        is_root: bool,
    ) -> Result<Option<AttrRef>, TranslateError> {
        let query = block.query();
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
        for k in 0..block.conjunct_count() {
            match block.conjunct(k) {
                (Predicate::Compare { lhs, op, rhs }, _) => {
                    let lt_pred = self.comparison(lhs, *op, rhs)?;
                    self.tree.node_mut(node_id).predicates.push(lt_pred);
                }
                (Predicate::Exists { negated, .. }, Some(sub)) => {
                    let quant = if *negated {
                        Quantifier::NotExists
                    } else {
                        Quantifier::Exists
                    };
                    let child = self.tree.add_child(node_id, quant);
                    self.block(sub, child, false)?;
                }
                (
                    Predicate::InSubquery {
                        column, negated, ..
                    },
                    Some(sub),
                ) => {
                    let outer = self.resolve(column)?;
                    let quant = if *negated {
                        Quantifier::NotExists
                    } else {
                        Quantifier::Exists
                    };
                    self.desugar_subquery(node_id, quant, outer, CompareOp::Eq, sub)?;
                }
                (
                    Predicate::Quantified {
                        column,
                        op,
                        quantifier,
                        negated,
                        ..
                    },
                    Some(sub),
                ) => {
                    let outer = self.resolve(column)?;
                    use queryvis_sql::ast::SubqueryQuantifier as SQ;
                    let (quant, child_op) = match (quantifier, negated) {
                        (SQ::Any, false) => (Quantifier::Exists, *op),
                        (SQ::Any, true) => (Quantifier::NotExists, *op),
                        (SQ::All, false) => (Quantifier::NotExists, op.negate()),
                        (SQ::All, true) => (Quantifier::Exists, op.negate()),
                    };
                    self.desugar_subquery(node_id, quant, outer, child_op, sub)?;
                }
                // Lowering runs before translation (see `translate`); a
                // surviving disjunction means the caller skipped it.
                (Predicate::Or(branches), _) => {
                    return Err(TranslateError::UnloweredDisjunction {
                        branches: branches.len(),
                    })
                }
                (_, None) => unreachable!("a subquery predicate has a block"),
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
        block: Block<'_>,
    ) -> Result<(), TranslateError> {
        let child = self.tree.add_child(parent, quant);
        let sel = self
            .block(block, child, false)?
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
                let text = self.names.resolve(alias);
                for scope in self.scopes.iter().rev() {
                    // Fast path: exact symbol match (the common case, since
                    // queries almost always spell an alias consistently).
                    if let Some(b) = scope.iter().find(|b| {
                        b.alias == alias || self.names.resolve(b.alias).eq_ignore_ascii_case(text)
                    }) {
                        return Ok(AttrRef::new(b.key, column.column));
                    }
                }
                Err(TranslateError::UnknownBinding {
                    binding: text.to_string(),
                })
            }
            None => {
                // Schema-aware resolution if available; otherwise only a
                // unique binding in the innermost non-empty scope works.
                let column_name = self.names.resolve(column.column);
                for scope in self.scopes.iter().rev() {
                    let candidates: Vec<&Binding> = match self.schema {
                        Some(schema) => scope
                            .iter()
                            .filter(|b| {
                                schema
                                    .table(self.names.resolve(b.table))
                                    .is_some_and(|t| t.has_column(column_name))
                            })
                            .collect(),
                        None => scope.iter().collect(),
                    };
                    match candidates.len() {
                        0 => continue,
                        1 => return Ok(AttrRef::new(candidates[0].key, column.column)),
                        _ => {
                            return Err(TranslateError::AmbiguousColumn {
                                column: column_name.to_string(),
                            })
                        }
                    }
                }
                Err(TranslateError::UnresolvedColumn {
                    column: column_name.to_string(),
                })
            }
        }
    }

    /// Produce a globally unique binding key for an alias (shadowed aliases
    /// get a numeric suffix: `L`, `L#2`, `L#3`, ...).
    fn unique_key(&mut self, alias: Symbol) -> Symbol {
        let index = alias.index() as usize;
        if index >= self.used_keys.len() {
            self.used_keys.resize(index + 1, 0);
        }
        let count = &mut self.used_keys[index];
        *count += 1;
        if *count == 1 {
            alias
        } else {
            let key = format!("{}#{count}", self.names.resolve(alias));
            self.names.intern(&key)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lt::LtOperand;
    use queryvis_sql::parse_query;
    use queryvis_sql::schema::beers_schema;

    fn lt(sql: &str) -> (LogicTree, Names) {
        let mut names = Names::new();
        let query = parse_query(sql, &mut names).unwrap();
        (translate(&query, None, &mut names).unwrap(), names)
    }

    fn parse(sql: &str, names: &mut Names) -> Query {
        parse_query(sql, names).unwrap()
    }

    #[test]
    fn conjunctive_query_single_node() {
        let (tree, _) = lt("SELECT F.person FROM Frequents F, Likes L, Serves S \
             WHERE F.person = L.person AND F.bar = S.bar AND L.drink = S.drink");
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.root().tables.len(), 3);
        assert_eq!(tree.root().predicates.len(), 3);
        assert_eq!(tree.select.len(), 1);
    }

    #[test]
    fn exists_becomes_child() {
        let (tree, _) = lt("SELECT F.person FROM Frequents F WHERE NOT EXISTS \
             (SELECT * FROM Serves S WHERE S.bar = F.bar)");
        assert_eq!(tree.node_count(), 2);
        assert_eq!(tree.node(1).quantifier, Quantifier::NotExists);
        assert_eq!(tree.node(1).depth, 1);
        assert_eq!(tree.node(1).predicates.len(), 1);
    }

    #[test]
    fn in_subquery_desugars_to_exists_with_equality() {
        let (tree, names) = lt("SELECT S.sname FROM Sailor S WHERE S.sid IN \
             (SELECT R.sid FROM Reserves R)");
        assert_eq!(tree.node(1).quantifier, Quantifier::Exists);
        let p = &tree.node(1).predicates[0];
        assert_eq!(names.show(p).to_string(), "(S.sid = R.sid)");
        assert!(matches!(p.rhs, LtOperand::Attr(_)));
    }

    #[test]
    fn not_in_desugars_to_not_exists() {
        let (tree, _) = lt("SELECT S.sname FROM Sailor S WHERE S.sid NOT IN \
             (SELECT R.sid FROM Reserves R)");
        assert_eq!(tree.node(1).quantifier, Quantifier::NotExists);
    }

    #[test]
    fn all_desugars_to_not_exists_with_negated_op() {
        let (tree, _) = lt("SELECT T.TrackId FROM Track T WHERE T.ms >= ALL \
             (SELECT T2.ms FROM Track T2)");
        assert_eq!(tree.node(1).quantifier, Quantifier::NotExists);
        let p = &tree.node(1).predicates[0];
        assert_eq!(p.op, CompareOp::Lt); // ¬(>=) = <
    }

    #[test]
    fn negated_any_desugars_to_not_exists() {
        let (tree, _) = lt("SELECT S.sname FROM Sailor S WHERE NOT S.sid = ANY \
             (SELECT R.sid FROM Reserves R)");
        assert_eq!(tree.node(1).quantifier, Quantifier::NotExists);
        assert_eq!(tree.node(1).predicates[0].op, CompareOp::Eq);
    }

    #[test]
    fn fig24_variants_share_fingerprint() {
        let (v1, n1) = lt("SELECT S.sname FROM Sailor S WHERE NOT EXISTS( \
             SELECT * FROM Reserves R WHERE R.sid = S.sid AND NOT EXISTS( \
             SELECT * FROM Boat B WHERE B.color = 'red' AND R.bid = B.bid))");
        let (v2, n2) = lt("SELECT S.sname FROM Sailor S WHERE S.sid NOT IN( \
             SELECT R.sid FROM Reserves R WHERE R.bid NOT IN( \
             SELECT B.bid FROM Boat B WHERE B.color = 'red'))");
        let (v3, n3) = lt("SELECT S.sname FROM Sailor S WHERE NOT S.sid = ANY( \
             SELECT R.sid FROM Reserves R WHERE NOT R.bid = ANY( \
             SELECT B.bid FROM Boat B WHERE B.color = 'red'))");
        let (s1, s2, s3) = (n1.show(&v1), n2.show(&v2), n3.show(&v3));
        assert!(v1.structural_eq(&n1, &v2, &n2), "\n{s1}\nvs\n{s2}");
        assert!(v2.structural_eq(&n2, &v3, &n3), "\n{s2}\nvs\n{s3}");
    }

    #[test]
    fn from_order_does_not_change_structure() {
        // Written `FROM B Y, A X`, the query lexes Y before X, so Y's
        // symbol id is the smaller one; orienting `X.a = Y.b` by id
        // would flip it in one spelling and not the other. Orientation
        // goes by resolved name, so the two trees compare equal.
        let (xy, nxy) = lt("SELECT Z.c FROM C Z WHERE EXISTS \
             (SELECT * FROM A X, B Y WHERE X.a = Y.b AND Y.b = Z.c)");
        let (yx, nyx) = lt("SELECT Z.c FROM C Z WHERE EXISTS \
             (SELECT * FROM B Y, A X WHERE X.a = Y.b AND Y.b = Z.c)");
        let (x, y) = (nxy.get("X").unwrap(), nxy.get("Y").unwrap());
        assert!(x < y && nyx.get("Y").unwrap() < nyx.get("X").unwrap());
        assert!(xy.structural_eq(&nxy, &yx, &nyx));
    }

    #[test]
    fn shadowed_alias_gets_unique_key() {
        let (tree, names) = lt("SELECT L.drinker FROM Likes L WHERE NOT EXISTS \
             (SELECT * FROM Serves L WHERE L.bar = 'Owl')");
        assert_eq!(names.resolve(tree.node(0).tables[0].key), "L");
        assert_eq!(names.resolve(tree.node(1).tables[0].key), "L#2");
        // The inner predicate must reference the inner (shadowing) binding.
        assert_eq!(names.resolve(tree.node(1).predicates[0].lhs.binding), "L#2");
    }

    #[test]
    fn constant_flipped_to_rhs() {
        let (tree, names) = lt("SELECT T.a FROM T WHERE 3 < T.a");
        let p = &tree.root().predicates[0];
        assert_eq!(names.show(&p.lhs).to_string(), "T.a");
        assert_eq!(p.op, CompareOp::Gt);
    }

    #[test]
    fn unqualified_resolution_without_schema_single_binding() {
        let (tree, names) = lt("SELECT drinker FROM Likes WHERE beer = 'IPA'");
        assert_eq!(tree.select.len(), 1);
        assert_eq!(
            names.resolve(tree.root().predicates[0].lhs.binding),
            "Likes"
        );
    }

    #[test]
    fn unqualified_resolution_with_schema() {
        let mut names = Names::new();
        let q = parse(
            "SELECT drinker FROM Frequents F, Serves S WHERE F.bar = S.bar",
            &mut names,
        );
        let tree = translate(&q, Some(&beers_schema()), &mut names).unwrap();
        // `drinker` exists only on Frequents.
        match &tree.select[0] {
            SelectAttr::Column(a) => assert_eq!(names.resolve(a.binding), "F"),
            other => panic!("unexpected select {other:?}"),
        }
    }

    #[test]
    fn ambiguous_unqualified_without_schema_errors() {
        let mut names = Names::new();
        let q = parse(
            "SELECT drinker FROM Likes L, Frequents F WHERE L.a = F.b",
            &mut names,
        );
        let err = translate(&q, None, &mut names).unwrap_err();
        assert_eq!(
            err,
            TranslateError::AmbiguousColumn {
                column: "drinker".into()
            }
        );
    }

    #[test]
    fn nested_aggregate_rejected() {
        let mut names = Names::new();
        let sql = "SELECT T.a FROM T WHERE EXISTS (SELECT COUNT(S.x) FROM S GROUP BY S.x)";
        let q = parse(sql, &mut names);
        assert_eq!(
            translate(&q, None, &mut names).unwrap_err(),
            TranslateError::NestedAggregate
        );
    }

    #[test]
    fn group_by_recorded_on_tree() {
        let (tree, _) = lt("SELECT T.AlbumId, MAX(T.ms) FROM Track T GROUP BY T.AlbumId");
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
