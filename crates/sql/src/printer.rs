//! Canonical pretty-printer for the SQL fragment.
//!
//! The study stimuli (paper §2, Fig. 3, App. F) present SQL "auto-indented,
//! keywords capitalized"; this printer reproduces that canonical layout so
//! that (a) round-trip tests can compare ASTs after re-parsing and (b) the
//! word-count complexity metric (§4.8) is computed over a normalized form
//! rather than over incidental whitespace choices. The metric counts the
//! pieces of this same walk (the crate-private `Sink`) without keeping
//! the text.

use crate::ast::*;
use queryvis_ir::Names;

/// Where the printer's walk goes: the pieces of the canonical text —
/// keywords, punctuation, resolved names and literal text — in order. A
/// `String` keeps them; the §4.8 word counter only counts them.
pub(crate) trait Sink {
    fn put(&mut self, piece: &str);
}

impl Sink for String {
    #[inline]
    fn put(&mut self, piece: &str) {
        self.push_str(piece);
    }
}

/// Render a query, whose names live in `names`, as canonical multi-line
/// SQL text.
pub fn to_sql(query: &Query, names: &Names) -> String {
    let mut out = String::new();
    write_sql(&mut out, query, names);
    out
}

/// [`to_sql`]'s text, put into any [`Sink`].
pub(crate) fn write_sql(out: &mut impl Sink, query: &Query, names: &Names) {
    write_query(out, names, query, 0);
    out.put(";");
}

/// Render a full query expression (a query block or a `UNION [ALL]` chain)
/// as canonical multi-line SQL text.
pub fn to_sql_expr(expr: &QueryExpr) -> String {
    let mut out = String::new();
    write_sql_expr(&mut out, expr);
    out
}

/// [`to_sql_expr`]'s text, put into any [`Sink`].
pub(crate) fn write_sql_expr(out: &mut impl Sink, expr: &QueryExpr) {
    for (i, branch) in expr.branches.iter().enumerate() {
        if i > 0 {
            out.put(if expr.all {
                "\nUNION ALL\n"
            } else {
                "\nUNION\n"
            });
        }
        write_query(out, &expr.names, branch, 0);
    }
    out.put(";");
}

/// Render a query on a single line (used in logs and error messages).
pub fn to_sql_one_line(query: &Query, names: &Names) -> String {
    to_sql(query, names)
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
}

/// A new line at nesting `level`.
fn line(out: &mut impl Sink, level: usize) {
    out.put("\n");
    for _ in 0..level {
        out.put("  ");
    }
}

fn write_query<S: Sink>(out: &mut S, names: &Names, query: &Query, level: usize) {
    for _ in 0..level {
        out.put("  ");
    }
    out.put("SELECT ");
    match &query.select {
        SelectList::Star => out.put("*"),
        SelectList::Items(items) => write_joined(out, ", ", items, |out, item| match item {
            SelectItem::Column(c) => write_column(out, names, c),
            SelectItem::Aggregate(a) => write_aggregate(out, names, a),
        }),
    }
    line(out, level);
    out.put("FROM ");
    write_joined(out, ", ", &query.from, |out, t| {
        out.put(names.resolve(t.table));
        if let Some(alias) = t.alias {
            out.put(" ");
            out.put(names.resolve(alias));
        }
    });
    if !query.where_clause.is_empty() {
        line(out, level);
        out.put("WHERE ");
        for (i, pred) in query.where_clause.iter().enumerate() {
            if i > 0 {
                line(out, level);
                out.put("AND ");
            }
            write_predicate(out, names, pred, level);
        }
    }
    if !query.group_by.is_empty() {
        line(out, level);
        out.put("GROUP BY ");
        write_joined(out, ", ", &query.group_by, |out, c| {
            write_column(out, names, c)
        });
    }
    if !query.having.is_empty() {
        line(out, level);
        out.put("HAVING ");
        write_joined(out, " AND ", &query.having, |out, h| {
            write_aggregate(out, names, &h.agg);
            out.put(" ");
            out.put(h.op.as_str());
            out.put(" ");
            write_value(out, names, &h.value);
        });
    }
}

/// Write each of `items` with `write`, separated by `sep`.
fn write_joined<S: Sink, T>(
    out: &mut S,
    sep: &str,
    items: &[T],
    mut write: impl FnMut(&mut S, &T),
) {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.put(sep);
        }
        write(out, item);
    }
}

fn write_column(out: &mut impl Sink, names: &Names, column: &ColumnRef) {
    if let Some(table) = column.table {
        out.put(names.resolve(table));
        out.put(".");
    }
    out.put(names.resolve(column.column));
}

fn write_aggregate(out: &mut impl Sink, names: &Names, agg: &AggCall) {
    out.put(agg.func.as_str());
    out.put("(");
    match &agg.arg {
        Some(c) => write_column(out, names, c),
        None => out.put("*"),
    }
    out.put(")");
}

fn write_value(out: &mut impl Sink, names: &Names, value: &Value) {
    match value {
        Value::Number(n) => out.put(names.resolve(*n)),
        Value::Str(s) => {
            out.put("'");
            out.put(names.resolve(*s));
            out.put("'");
        }
    }
}

fn write_operand(out: &mut impl Sink, names: &Names, operand: &Operand) {
    match operand {
        Operand::Column(c) => write_column(out, names, c),
        Operand::Value(v) => write_value(out, names, v),
    }
}

fn write_predicate<S: Sink>(out: &mut S, names: &Names, pred: &Predicate, level: usize) {
    match pred {
        Predicate::Compare { lhs, op, rhs } => {
            write_operand(out, names, lhs);
            out.put(" ");
            out.put(op.as_str());
            out.put(" ");
            write_operand(out, names, rhs);
        }
        Predicate::Exists { negated, query } => {
            if *negated {
                out.put("NOT ");
            }
            out.put("EXISTS (\n");
            write_query(out, names, query, level + 1);
            out.put(")");
        }
        Predicate::InSubquery {
            column,
            negated,
            query,
        } => {
            write_column(out, names, column);
            out.put(" ");
            if *negated {
                out.put("NOT ");
            }
            out.put("IN (\n");
            write_query(out, names, query, level + 1);
            out.put(")");
        }
        Predicate::Quantified {
            column,
            op,
            quantifier,
            negated,
            query,
        } => {
            if *negated {
                out.put("NOT ");
            }
            write_column(out, names, column);
            out.put(" ");
            out.put(op.as_str());
            out.put(" ");
            out.put(quantifier.as_str());
            out.put(" (\n");
            write_query(out, names, query, level + 1);
            out.put(")");
        }
        // A disjunction prints parenthesized so precedence survives the
        // round trip: `(a AND b OR c)` re-parses to the same branches.
        Predicate::Or(branches) => {
            out.put("(");
            write_joined(out, " OR ", branches, |out, branch| {
                write_joined(out, " AND ", branch, |out, pred| {
                    write_predicate(out, names, pred, level)
                })
            });
            out.put(")");
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
