//! Canonical pretty-printer for the SQL fragment.
//!
//! The study stimuli (paper §2, Fig. 3, App. F) present SQL "auto-indented,
//! keywords capitalized"; this printer reproduces that canonical layout so
//! that (a) round-trip tests can compare ASTs after re-parsing and (b) the
//! word-count complexity metric (§4.8) is computed over a normalized form
//! rather than over incidental whitespace choices.

use crate::ast::*;
use queryvis_ir::{NamedDisplay, Names};
use std::fmt::{self, Write};

/// Render a query, whose names live in `names`, as canonical multi-line
/// SQL text.
pub fn to_sql(query: &Query, names: &Names) -> String {
    let mut out = String::new();
    let _ = write_sql(&mut out, query, names);
    out
}

/// [`to_sql`]'s text, written into any [`fmt::Write`] sink.
pub(crate) fn write_sql(out: &mut impl Write, query: &Query, names: &Names) -> fmt::Result {
    write_query(out, names, query, 0)?;
    out.write_char(';')
}

/// Render a full query expression (a query block or a `UNION [ALL]` chain)
/// as canonical multi-line SQL text.
pub fn to_sql_expr(expr: &QueryExpr) -> String {
    let mut out = String::new();
    let _ = write_sql_expr(&mut out, expr);
    out
}

/// [`to_sql_expr`]'s text, written into any [`fmt::Write`] sink.
pub(crate) fn write_sql_expr(out: &mut impl Write, expr: &QueryExpr) -> fmt::Result {
    for (i, branch) in expr.branches.iter().enumerate() {
        if i > 0 {
            out.write_str(if expr.all {
                "\nUNION ALL\n"
            } else {
                "\nUNION\n"
            })?;
        }
        write_query(out, &expr.names, branch, 0)?;
    }
    out.write_char(';')
}

/// Render a query on a single line (used in logs and error messages).
pub fn to_sql_one_line(query: &Query, names: &Names) -> String {
    to_sql(query, names)
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
}

fn indent(out: &mut impl Write, level: usize) -> fmt::Result {
    for _ in 0..level {
        out.write_str("  ")?;
    }
    Ok(())
}

fn write_query<W: Write>(out: &mut W, names: &Names, query: &Query, level: usize) -> fmt::Result {
    indent(out, level)?;
    out.write_str("SELECT ")?;
    match &query.select {
        SelectList::Star => out.write_char('*')?,
        SelectList::Items(items) => write_joined(out, names, items, ", ")?,
    }
    out.write_char('\n')?;
    indent(out, level)?;
    out.write_str("FROM ")?;
    write_joined(out, names, &query.from, ", ")?;
    if !query.where_clause.is_empty() {
        out.write_char('\n')?;
        indent(out, level)?;
        out.write_str("WHERE ")?;
        for (i, pred) in query.where_clause.iter().enumerate() {
            if i > 0 {
                out.write_char('\n')?;
                indent(out, level)?;
                out.write_str("AND ")?;
            }
            write_predicate(out, names, pred, level)?;
        }
    }
    if !query.group_by.is_empty() {
        out.write_char('\n')?;
        indent(out, level)?;
        out.write_str("GROUP BY ")?;
        write_joined(out, names, &query.group_by, ", ")?;
    }
    if !query.having.is_empty() {
        out.write_char('\n')?;
        indent(out, level)?;
        out.write_str("HAVING ")?;
        write_joined(out, names, &query.having, " AND ")?;
    }
    Ok(())
}

/// Write `items` through `names`, separated by `sep`.
fn write_joined<T: NamedDisplay>(
    out: &mut impl Write,
    names: &Names,
    items: &[T],
    sep: &str,
) -> fmt::Result {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.write_str(sep)?;
        }
        write!(out, "{}", names.show(item))?;
    }
    Ok(())
}

fn write_predicate<W: Write>(
    out: &mut W,
    names: &Names,
    pred: &Predicate,
    level: usize,
) -> fmt::Result {
    match pred {
        Predicate::Compare { lhs, op, rhs } => {
            write!(out, "{} {op} {}", names.show(lhs), names.show(rhs))
        }
        Predicate::Exists { negated, query } => {
            if *negated {
                out.write_str("NOT ")?;
            }
            out.write_str("EXISTS (\n")?;
            write_query(out, names, query, level + 1)?;
            out.write_char(')')
        }
        Predicate::InSubquery {
            column,
            negated,
            query,
        } => {
            write!(out, "{} ", names.show(column))?;
            if *negated {
                out.write_str("NOT ")?;
            }
            out.write_str("IN (\n")?;
            write_query(out, names, query, level + 1)?;
            out.write_char(')')
        }
        Predicate::Quantified {
            column,
            op,
            quantifier,
            negated,
            query,
        } => {
            if *negated {
                out.write_str("NOT ")?;
            }
            let column = names.show(column);
            writeln!(out, "{column} {op} {} (", quantifier.as_str())?;
            write_query(out, names, query, level + 1)?;
            out.write_char(')')
        }
        // A disjunction prints parenthesized so precedence survives the
        // round trip: `(a AND b OR c)` re-parses to the same branches.
        Predicate::Or(branches) => {
            out.write_char('(')?;
            for (i, branch) in branches.iter().enumerate() {
                if i > 0 {
                    out.write_str(" OR ")?;
                }
                for (j, pred) in branch.iter().enumerate() {
                    if j > 0 {
                        out.write_str(" AND ")?;
                    }
                    write_predicate(out, names, pred, level)?;
                }
            }
            out.write_char(')')
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn roundtrip(sql: &str) {
        // Both parses intern into one table, so equal ASTs mean equal names.
        let mut names = Names::new();
        let q1 = parse_query(sql, &mut names).unwrap();
        let printed = to_sql(&q1, &names);
        let q2 = parse_query(&printed, &mut names)
            .unwrap_or_else(|e| panic!("re-parse of printed SQL failed: {e}\n{printed}"));
        assert_eq!(q1, q2, "round trip changed the AST:\n{printed}");
    }

    #[test]
    fn roundtrip_conjunctive() {
        roundtrip(
            "SELECT F.person FROM Frequents F, Likes L, Serves S \
             WHERE F.person = L.person AND F.bar = S.bar AND L.drink = S.drink",
        );
    }

    #[test]
    fn roundtrip_nested() {
        roundtrip(
            "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
             (SELECT * FROM Serves S WHERE S.bar = F.bar AND NOT EXISTS \
             (SELECT L.drink FROM Likes L WHERE L.person = F.person AND S.drink = L.drink))",
        );
    }

    #[test]
    fn roundtrip_in_and_quantified() {
        roundtrip(
            "SELECT S.sname FROM Sailor S WHERE S.sid NOT IN \
             (SELECT R.sid FROM Reserves R WHERE R.bid = ANY \
             (SELECT B.bid FROM Boat B WHERE B.color = 'red'))",
        );
        roundtrip(
            "SELECT S.sname FROM Sailor S WHERE NOT S.sid = ANY (SELECT R.sid FROM Reserves R)",
        );
    }

    fn roundtrip_expr(sql: &str) {
        let e1 = crate::parser::parse_query_expr(sql).unwrap();
        let printed = to_sql_expr(&e1);
        let e2 = crate::parser::parse_query_expr(&printed)
            .unwrap_or_else(|e| panic!("re-parse of printed SQL failed: {e}\n{printed}"));
        // Equal tables too: the printed form lexes the names in their
        // original first-seen order.
        assert_eq!(e1, e2, "round trip changed the AST:\n{printed}");
    }

    #[test]
    fn roundtrip_or_and_groups() {
        roundtrip("SELECT t.a FROM t WHERE t.a = 1 AND t.b = 2 OR t.c = 3");
        roundtrip("SELECT t.a FROM t WHERE t.a = 1 AND (t.b = 2 OR t.c = 3)");
        roundtrip(
            "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
             (SELECT * FROM Serves S WHERE S.bar = F.bar AND \
             (S.drink = 'IPA' OR S.drink = 'Stout'))",
        );
    }

    #[test]
    fn roundtrip_having() {
        roundtrip("SELECT T.a, COUNT(T.b) FROM T GROUP BY T.a HAVING COUNT(T.b) > 2");
        roundtrip("SELECT T.a FROM T GROUP BY T.a HAVING COUNT(*) >= 3 AND MIN(T.c) < 9");
    }

    #[test]
    fn roundtrip_union_expr() {
        roundtrip_expr("SELECT t.a FROM t UNION SELECT s.b FROM s");
        roundtrip_expr(
            "SELECT t.a FROM t WHERE t.a = 1 UNION ALL SELECT s.b FROM s \
             UNION ALL SELECT u.c FROM u",
        );
    }

    #[test]
    fn join_prints_in_desugared_form() {
        let mut names = Names::new();
        let sql = "SELECT F.person FROM Frequents F JOIN Serves S ON F.bar = S.bar";
        let printed = to_sql(&parse_query(sql, &mut names).unwrap(), &names);
        assert!(printed.contains("FROM Frequents F, Serves S"), "{printed}");
        assert!(printed.contains("WHERE F.bar = S.bar"), "{printed}");
        roundtrip("SELECT F.person FROM Frequents F JOIN Serves S ON F.bar = S.bar");
    }

    #[test]
    fn roundtrip_group_by() {
        roundtrip(
            "SELECT T.AlbumId, MAX(T.Milliseconds) FROM Track T, Genre G \
             WHERE T.GenreId = G.GenreId AND G.Name = 'Classical' GROUP BY T.AlbumId",
        );
    }

    #[test]
    fn printed_form_is_canonical() {
        let mut names = Names::new();
        let q = parse_query("select   a from t where t.a=1", &mut names).unwrap();
        let printed = to_sql(&q, &names);
        assert!(printed.starts_with("SELECT a\nFROM t\nWHERE t.a = 1"));
    }

    #[test]
    fn one_line_has_no_newlines() {
        let mut names = Names::new();
        let q = parse_query(
            "SELECT F.person FROM Frequents F WHERE NOT EXISTS (SELECT * FROM Serves S)",
            &mut names,
        )
        .unwrap();
        assert!(!to_sql_one_line(&q, &names).contains('\n'));
    }
}
