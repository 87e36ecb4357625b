//! Relational schema catalog and semantic validation.
//!
//! A [`Schema`] is a named set of [`Table`]s; [`Schema::check_query`]
//! validates a parsed [`Query`] against it, resolving column references
//! through the *scope* rules of the paper's §4.4: table aliases defined in a
//! query block are valid in that block and in every nested block (so
//! correlated subqueries may reference outer aliases), innermost binding
//! first.

use crate::ast::{ColumnRef, Operand, Predicate, Query, QueryExpr, SelectItem, SelectList};
use crate::error::SemanticError;
use queryvis_ir::Names;

/// A table definition: name plus ordered column names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    pub name: String,
    pub columns: Vec<String>,
}

impl Table {
    pub fn new(name: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            name: name.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
        }
    }

    pub fn has_column(&self, column: &str) -> bool {
        self.columns.iter().any(|c| c.eq_ignore_ascii_case(column))
    }
}

/// A named database schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    pub name: String,
    pub tables: Vec<Table>,
}

impl Schema {
    pub fn new(name: impl Into<String>) -> Self {
        Schema {
            name: name.into(),
            tables: Vec::new(),
        }
    }

    pub fn with_table(mut self, table: Table) -> Self {
        self.tables.push(table);
        self
    }

    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables
            .iter()
            .find(|t| t.name.eq_ignore_ascii_case(name))
    }

    /// Validate a query against this schema. Checks, in order:
    /// table existence, alias uniqueness per block, column resolution
    /// (including correlation to outer blocks), no constant–constant
    /// comparisons, and single-column SELECT lists for `IN`/`ANY`/`ALL`
    /// subqueries.
    ///
    /// The query's names live in `names`.
    pub fn check_query(&self, query: &Query, names: &Names) -> Result<(), SemanticError> {
        let mut scopes: Vec<Vec<(&str, &Table)>> = Vec::new();
        self.check_block(names, query, &mut scopes, false)
    }

    /// Validate a full query expression: every `UNION` branch checks
    /// individually, and branches with explicit select lists must agree on
    /// arity (union compatibility).
    pub fn check_query_expr(&self, expr: &QueryExpr) -> Result<(), SemanticError> {
        let mut arity: Option<usize> = None;
        for branch in &expr.branches {
            self.check_query(branch, &expr.names)?;
            if let SelectList::Items(items) = &branch.select {
                match arity {
                    None => arity = Some(items.len()),
                    Some(n) if n != items.len() => {
                        return Err(SemanticError::UnionArity {
                            left: n,
                            right: items.len(),
                        })
                    }
                    Some(_) => {}
                }
            }
        }
        Ok(())
    }

    fn check_block<'s, 'n>(
        &'s self,
        names: &'n Names,
        query: &Query,
        scopes: &mut Vec<Vec<(&'n str, &'s Table)>>,
        needs_single_column: bool,
    ) -> Result<(), SemanticError> {
        // Register this block's bindings.
        let mut bindings: Vec<(&str, &Table)> = Vec::new();
        for table_ref in &query.from {
            let name = names.resolve(table_ref.table);
            let table = self
                .table(name)
                .ok_or_else(|| SemanticError::UnknownTable {
                    table: name.to_string(),
                })?;
            let binding = names.resolve(table_ref.binding());
            if bindings.iter().any(|(b, _)| *b == binding) {
                return Err(SemanticError::DuplicateAlias {
                    alias: binding.to_string(),
                });
            }
            bindings.push((binding, table));
        }
        scopes.push(bindings);

        let result = (|| {
            // SELECT list.
            match &query.select {
                SelectList::Star => {
                    if needs_single_column {
                        // `x IN (SELECT * ...)` is only well-formed when the
                        // subquery produces one column; `*` over a base table
                        // never does in our schemas, so reject it outright.
                        return Err(SemanticError::SubqueryArity { found: 0 });
                    }
                }
                SelectList::Items(items) => {
                    if needs_single_column && items.len() != 1 {
                        return Err(SemanticError::SubqueryArity { found: items.len() });
                    }
                    for item in items {
                        match item {
                            SelectItem::Column(c) => {
                                self.resolve(names, c, scopes)?;
                            }
                            SelectItem::Aggregate(agg) => {
                                if let Some(c) = &agg.arg {
                                    self.resolve(names, c, scopes)?;
                                }
                            }
                        }
                    }
                }
            }
            // GROUP BY columns.
            for c in &query.group_by {
                self.resolve(names, c, scopes)?;
            }
            // HAVING aggregates (arguments resolve like any other column).
            for h in &query.having {
                if let Some(c) = &h.agg.arg {
                    self.resolve(names, c, scopes)?;
                }
            }
            // WHERE predicates.
            for pred in &query.where_clause {
                self.check_predicate(names, pred, scopes)?;
            }
            Ok(())
        })();

        scopes.pop();
        result
    }

    fn check_predicate<'s, 'n>(
        &'s self,
        names: &'n Names,
        pred: &Predicate,
        scopes: &mut Vec<Vec<(&'n str, &'s Table)>>,
    ) -> Result<(), SemanticError> {
        match pred {
            Predicate::Compare { lhs, op: _, rhs } => {
                if lhs.is_constant() && rhs.is_constant() {
                    return Err(SemanticError::ConstantComparison);
                }
                for operand in [lhs, rhs] {
                    if let Operand::Column(c) = operand {
                        self.resolve(names, c, scopes)?;
                    }
                }
                Ok(())
            }
            Predicate::Exists { query, .. } => self.check_block(names, query, scopes, false),
            Predicate::InSubquery { column, query, .. }
            | Predicate::Quantified { column, query, .. } => {
                self.resolve(names, column, scopes)?;
                self.check_block(names, query, scopes, true)
            }
            Predicate::Or(branches) => {
                for branch in branches {
                    for pred in branch {
                        self.check_predicate(names, pred, scopes)?;
                    }
                }
                Ok(())
            }
        }
    }

    /// Resolve a column reference against the scope stack (innermost block
    /// first, matching SQL's correlation rules).
    fn resolve<'s>(
        &'s self,
        names: &Names,
        column: &ColumnRef,
        scopes: &[Vec<(&str, &'s Table)>],
    ) -> Result<&'s Table, SemanticError> {
        let column_name = names.resolve(column.column);
        match column.table {
            Some(binding) => {
                let binding = names.resolve(binding);
                for scope in scopes.iter().rev() {
                    if let Some((_, table)) =
                        scope.iter().find(|(b, _)| b.eq_ignore_ascii_case(binding))
                    {
                        if table.has_column(column_name) {
                            return Ok(table);
                        }
                        return Err(SemanticError::UnknownColumn {
                            binding: binding.to_string(),
                            column: column_name.to_string(),
                        });
                    }
                }
                Err(SemanticError::UnknownBinding {
                    binding: binding.to_string(),
                })
            }
            None => {
                // Unqualified: must match exactly one binding, searching
                // innermost scope outward, stopping at the first scope with
                // any match (standard SQL shadowing).
                for scope in scopes.iter().rev() {
                    let matches: Vec<&(&str, &Table)> = scope
                        .iter()
                        .filter(|(_, t)| t.has_column(column_name))
                        .collect();
                    match matches.len() {
                        0 => continue,
                        1 => return Ok(matches[0].1),
                        _ => {
                            return Err(SemanticError::AmbiguousColumn {
                                column: column_name.to_string(),
                                candidates: matches.iter().map(|(b, _)| b.to_string()).collect(),
                            })
                        }
                    }
                }
                Err(SemanticError::UnresolvedColumn {
                    column: column_name.to_string(),
                })
            }
        }
    }
}

/// The beer-drinkers schema of Ullman \[78\] used throughout the paper:
/// `Likes(drinker, beer)`, `Frequents(drinker, bar)`, `Serves(bar, beer)`.
///
/// Note the paper uses both `person`/`drinker` and `drink`/`beer` naming in
/// different figures; we provide the superset so every figure's query
/// validates.
pub fn beers_schema() -> Schema {
    Schema::new("beers")
        .with_table(Table::new("Likes", &["drinker", "person", "beer", "drink"]))
        .with_table(Table::new("Frequents", &["drinker", "person", "bar"]))
        .with_table(Table::new("Serves", &["bar", "beer", "drink"]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn check(sql: &str) -> Result<(), SemanticError> {
        let mut names = Names::new();
        let query = parse_query(sql, &mut names).unwrap();
        beers_schema().check_query(&query, &names)
    }

    #[test]
    fn valid_conjunctive() {
        check(
            "SELECT F.person FROM Frequents F, Likes L, Serves S \
             WHERE F.person = L.person AND F.bar = S.bar AND L.drink = S.drink",
        )
        .unwrap();
    }

    #[test]
    fn correlated_subquery_resolves_outer_alias() {
        check(
            "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
             (SELECT * FROM Serves S WHERE S.bar = F.bar)",
        )
        .unwrap();
    }

    #[test]
    fn unknown_table() {
        let err = check("SELECT X.a FROM Xyzzy X").unwrap_err();
        assert_eq!(
            err,
            SemanticError::UnknownTable {
                table: "Xyzzy".into()
            }
        );
    }

    #[test]
    fn unknown_binding() {
        let err = check("SELECT Z.bar FROM Frequents F").unwrap_err();
        assert!(matches!(err, SemanticError::UnknownBinding { .. }));
    }

    #[test]
    fn unknown_column() {
        let err = check("SELECT F.wine FROM Frequents F").unwrap_err();
        assert!(matches!(err, SemanticError::UnknownColumn { .. }));
    }

    #[test]
    fn ambiguous_unqualified_column() {
        let err = check("SELECT bar FROM Frequents F, Serves S WHERE F.bar = S.bar").unwrap_err();
        assert!(matches!(err, SemanticError::AmbiguousColumn { .. }));
    }

    #[test]
    fn unqualified_column_unique_resolves() {
        check("SELECT drinker FROM Frequents WHERE drinker = 'Alice'").unwrap();
    }

    #[test]
    fn duplicate_alias_rejected() {
        let err = check("SELECT L.beer FROM Likes L, Serves L").unwrap_err();
        assert!(matches!(err, SemanticError::DuplicateAlias { .. }));
    }

    #[test]
    fn constant_comparison_rejected() {
        let err = check("SELECT L.beer FROM Likes L WHERE 1 = 1").unwrap_err();
        assert_eq!(err, SemanticError::ConstantComparison);
    }

    #[test]
    fn in_subquery_needs_one_column() {
        let err = check(
            "SELECT L.drinker FROM Likes L WHERE L.beer IN \
             (SELECT * FROM Serves S)",
        )
        .unwrap_err();
        assert!(matches!(err, SemanticError::SubqueryArity { .. }));
        check(
            "SELECT L.drinker FROM Likes L WHERE L.beer IN \
             (SELECT S.beer FROM Serves S)",
        )
        .unwrap();
    }

    #[test]
    fn exists_star_is_fine() {
        check(
            "SELECT L.drinker FROM Likes L WHERE EXISTS \
             (SELECT * FROM Serves S WHERE S.beer = L.beer)",
        )
        .unwrap();
    }

    #[test]
    fn inner_alias_shadows_outer() {
        // L is bound in both blocks; inner references must hit the inner one.
        check(
            "SELECT L.drinker FROM Likes L WHERE NOT EXISTS \
             (SELECT * FROM Serves L WHERE L.bar = 'Owl')",
        )
        .unwrap();
    }

    #[test]
    fn case_insensitive_table_and_column() {
        check("SELECT f.PERSON FROM frequents f").unwrap();
    }
}
