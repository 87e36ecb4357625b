//! # queryvis-sql
//!
//! Lexer, parser, AST, pretty-printer, schema catalog, and text-complexity
//! metrics for the SQL fragment supported by QueryVis (Leventidis et al.,
//! SIGMOD 2020, Figure 4), extended with the `GROUP BY` / aggregate subset
//! used by the paper's user study (Appendix F, Q7–Q9).
//!
//! The paper's grammar (Figure 4), widened per ISSUE 4 with inner joins,
//! disjunction, `HAVING`, and top-level unions:
//!
//! ```text
//! E ::= Q [UNION [ALL] Q ...]         top-level union of blocks
//! Q ::= SELECT C [, C ...] | *        select clause
//!     | FROM S [, S ...]              from clause (incl. JOIN … ON)
//!     | [WHERE D]                     where clause
//!     | [GROUP BY C [, C ...]         (study extension)
//!        [HAVING H [AND H ...]]]      post-grouping predicates
//! C ::= [T.]A | AGG([T.]A) | AGG(*)   column / aggregate
//! S ::= T [AS T] [[INNER] JOIN T [AS T] ON P [AND P ...] ...]
//! D ::= B [OR B ...]                  disjunction (AND binds tighter)
//! B ::= P [AND P ... AND P]           conjunction
//! P ::= C O C                         join predicate
//!     | C O V                         selection predicate
//!     | [NOT] EXISTS (Q)              existential subquery
//!     | C [NOT] IN (Q)                membership subquery
//!     | C O {ALL | ANY} (Q)           quantified subquery
//!     | ( D )                         parenthesized group
//! H ::= AGG([T.]A | *) O V            aggregate-vs-constant comparison
//! O ::= < | <= | = | <> | >= | >      comparison operator
//! ```
//!
//! `JOIN … ON` desugars at parse time (the AST records only the implicit
//! form); `OR` is lowered before translation (see
//! `queryvis_logic::disjunction`). Outer/cross joins, `DISTINCT`,
//! `ORDER BY`, subquery-level `UNION`, and non-constant `HAVING`
//! comparisons remain outside the fragment, each rejected with a precise,
//! spanned error.

pub mod ast;
pub mod error;
pub mod incremental;
pub mod lexer;
pub mod metrics;
pub mod parser;
pub mod printer;
pub mod scan;
pub mod schema;
pub mod token;

pub use ast::{
    AggCall, AggFunc, ColumnRef, CompareOp, HavingPredicate, Operand, Predicate, Query, QueryExpr,
    SelectItem, SelectList, TableRef, Value,
};
pub use error::{ParseError, SemanticError};
pub use incremental::{apply_edit, Edit};
pub use lexer::{tokenize, tokenize_into};
pub use parser::{parse_query, parse_query_expr};
pub use printer::{to_sql, to_sql_expr};
pub use queryvis_ir::{Names, Symbol};
pub use schema::{Schema, Table};

/// Parse a query into `names` and semantically validate it against a
/// schema in one call.
pub fn parse_and_check(
    sql: &str,
    names: &mut Names,
    schema: &Schema,
) -> Result<Query, error::SqlError> {
    let query = parse_query(sql, names).map_err(error::SqlError::Parse)?;
    schema
        .check_query(&query, names)
        .map_err(error::SqlError::Semantic)?;
    Ok(query)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_check_smoke() {
        let schema = Schema::new("beers")
            .with_table(Table::new("Likes", &["drinker", "beer"]))
            .with_table(Table::new("Frequents", &["drinker", "bar"]))
            .with_table(Table::new("Serves", &["bar", "beer"]));
        let q = parse_and_check(
            "SELECT F.drinker FROM Frequents F, Likes L, Serves S \
             WHERE F.drinker = L.drinker AND F.bar = S.bar AND L.beer = S.beer",
            &mut Names::new(),
            &schema,
        )
        .unwrap();
        assert_eq!(q.from.len(), 3);
        assert_eq!(q.where_clause.len(), 3);
    }
}
