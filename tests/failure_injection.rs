//! Failure injection: everything outside the supported fragment (or
//! outside the unambiguity guarantees) must be rejected with a precise,
//! actionable error — never a panic, never a silently wrong diagram.

use queryvis::corpus::beers_schema;
use queryvis::{QueryVis, QueryVisError, QueryVisOptions};
use queryvis_logic::{check_valid_diagram_source, translate, DegeneracyError, TranslateError};
use queryvis_sql::{parse_query, SemanticError};

fn strict(sql: &str) -> Result<QueryVis, QueryVisError> {
    QueryVis::with_options(
        sql,
        QueryVisOptions {
            strict: true,
            ..QueryVisOptions::default()
        },
    )
}

/// The exact degeneracy error strict mode refuses `sql` with.
fn strict_refusal(sql: &str) -> DegeneracyError {
    match strict(sql) {
        Err(QueryVisError::Degenerate(e)) => e,
        Err(other) => panic!("expected a degeneracy refusal, got {other}"),
        Ok(_) => panic!("strict mode drew {sql}"),
    }
}

// ---------- lexical / syntactic ----------

#[test]
fn malformed_sql_catalog() {
    let cases: &[(&str, &str)] = &[
        ("", "expected `SELECT`"),
        ("SELECT", "expected"),
        ("SELECT a", "FROM"),
        ("SELECT a FROM", "table name"),
        ("SELECT a FROM t WHERE", "column reference or constant"),
        ("SELECT a FROM t WHERE a =", "column reference or constant"),
        (
            "SELECT a FROM t WHERE a = 1 AND",
            "column reference or constant",
        ),
        ("SELECT a FROM t WHERE EXISTS SELECT", "expected `(`"),
        (
            "SELECT a FROM t WHERE EXISTS (SELECT * FROM s",
            "expected `)`",
        ),
        ("SELECT a FROM t; SELECT b FROM s", "trailing"),
        ("SELECT a FROM t WHERE a = 'unterminated", "unterminated"),
        ("SELECT a FROM t WHERE a @ 1", "unexpected character"),
    ];
    for (sql, expected) in cases {
        let err = parse_query(sql).unwrap_err();
        assert!(
            err.message.contains(expected),
            "for `{sql}`: expected message containing `{expected}`, got `{}`",
            err.message
        );
    }
}

/// The constructs that remain outside the widened fragment must keep
/// targeted, spanned "outside the supported fragment"-style messages —
/// through `parse_query_expr` (the pipeline's entry point), so warm and
/// cold service paths reject identically (errors are never memoized).
#[test]
fn out_of_fragment_constructs_have_targeted_messages() {
    let cases: &[(&str, &str)] = &[
        ("SELECT DISTINCT a FROM t", "DISTINCT"),
        ("SELECT a FROM t ORDER BY a", "ORDER"),
        ("SELECT a FROM t LEFT JOIN s ON t.x = s.x", "outer joins"),
        ("SELECT a FROM t RIGHT JOIN s ON t.x = s.x", "outer joins"),
        (
            "SELECT a FROM t FULL OUTER JOIN s ON t.x = s.x",
            "outer joins",
        ),
        ("SELECT a FROM t CROSS JOIN s", "CROSS JOIN"),
        (
            "SELECT a FROM t JOIN s ON EXISTS (SELECT * FROM u)",
            "comparison predicates",
        ),
        ("SELECT a FROM t JOIN s ON t.x = s.x OR t.y = s.y", "OR"),
        ("SELECT a FROM t HAVING COUNT(a) > 1", "GROUP BY"),
        ("SELECT a FROM t GROUP BY a HAVING a > 1", "aggregate"),
        (
            "SELECT a FROM t GROUP BY a HAVING COUNT(*) > t.b",
            "constant",
        ),
        (
            "SELECT a FROM t GROUP BY a HAVING COUNT(*) > 1 OR COUNT(*) < 9",
            "OR",
        ),
        (
            "SELECT a FROM t WHERE EXISTS (SELECT b FROM s UNION SELECT c FROM u)",
            "top level",
        ),
        (
            "SELECT a FROM t UNION SELECT b FROM s UNION ALL SELECT c FROM u",
            "mixing",
        ),
        (
            "SELECT a FROM t WHERE EXISTS (SELECT * FROM s ORDER BY s.x)",
            "ORDER",
        ),
    ];
    for (sql, token) in cases {
        let err = queryvis_sql::parse_query_expr(sql).unwrap_err();
        assert!(
            err.message.contains(token),
            "for `{sql}`: got `{}`",
            err.message
        );
        // Spans must be real: every error points at a line/column.
        assert!(err.line >= 1 && err.column >= 1, "{sql}");
    }
}

/// Fragment limits enforced below the parser (lowering/translation) also
/// surface as errors through the pipeline, not panics.
#[test]
fn out_of_fragment_lowering_limits() {
    // OR that would split a grouped root block.
    let err =
        QueryVis::from_sql("SELECT T.a, COUNT(T.b) FROM T WHERE T.a = 1 OR T.b = 2 GROUP BY T.a")
            .unwrap_err();
    assert!(
        err.to_string().contains("outside the supported fragment"),
        "{err}"
    );
    // Cross-product explosion past the branch cap.
    let wide = format!(
        "SELECT T.a FROM T WHERE {}",
        (0..6)
            .map(|i| format!("(T.a{i} = 1 OR T.b{i} = 2)"))
            .collect::<Vec<_>>()
            .join(" AND ")
    );
    let err = QueryVis::from_sql(&wide).unwrap_err();
    assert!(err.to_string().contains("branches"), "{err}");
}

#[test]
fn parse_errors_carry_positions() {
    let err = parse_query("SELECT a\nFROM t\nORDER BY a").unwrap_err();
    assert_eq!(err.line, 3, "error on line 3, got {}", err.line);
    let err = parse_query("SELECT a FROM t\nLEFT JOIN s ON t.x = s.x").unwrap_err();
    assert_eq!(err.line, 2, "error on line 2, got {}", err.line);
}

// ---------- semantic ----------

#[test]
fn schema_violations() {
    type Check = fn(&SemanticError) -> bool;
    let schema = beers_schema();
    let cases: &[(&str, Check)] = &[
        ("SELECT X.a FROM Nope X", |e| {
            matches!(e, SemanticError::UnknownTable { .. })
        }),
        ("SELECT Z.bar FROM Frequents F", |e| {
            matches!(e, SemanticError::UnknownBinding { .. })
        }),
        ("SELECT F.wine FROM Frequents F", |e| {
            matches!(e, SemanticError::UnknownColumn { .. })
        }),
        (
            "SELECT bar FROM Frequents F, Serves S WHERE F.bar = S.bar",
            |e| matches!(e, SemanticError::AmbiguousColumn { .. }),
        ),
        ("SELECT L.beer FROM Likes L, Serves L", |e| {
            matches!(e, SemanticError::DuplicateAlias { .. })
        }),
        ("SELECT L.beer FROM Likes L WHERE 1 = 2", |e| {
            matches!(e, SemanticError::ConstantComparison)
        }),
    ];
    for (sql, check) in cases {
        let query = parse_query(sql).unwrap();
        let err = schema.check_query(&query).unwrap_err();
        assert!(check(&err), "for `{sql}`: got {err:?}");
    }
}

// ---------- translation ----------

#[test]
fn in_subquery_with_star_rejected() {
    let q = parse_query("SELECT a FROM t WHERE t.a IN (SELECT * FROM s)").unwrap();
    assert_eq!(
        translate(&q, None).unwrap_err(),
        TranslateError::BadSubquerySelect
    );
}

#[test]
fn nested_group_by_rejected() {
    let q = parse_query("SELECT t.a FROM t WHERE EXISTS (SELECT s.x FROM s GROUP BY s.x)").unwrap();
    assert_eq!(
        translate(&q, None).unwrap_err(),
        TranslateError::NestedAggregate
    );
}

// ---------- degeneracy (strict mode) ----------

#[test]
fn smuggled_disjunction_rejected_in_strict_mode() {
    // The paper's §5.1 example: a selection predicate placed below its
    // natural scope encodes a disjunction.
    let err = strict_refusal(
        "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
         (SELECT * FROM Serves S WHERE S.bar = F.bar AND F.bar = 'Owl')",
    );
    assert_eq!(
        err,
        DegeneracyError::NonLocalPredicate {
            node: 1,
            predicate: "(F.bar = 'Owl')".to_string(),
        }
    );
}

#[test]
fn disconnected_subquery_rejected_in_strict_mode() {
    let err =
        strict_refusal("SELECT A.x FROM A WHERE NOT EXISTS (SELECT * FROM B WHERE B.y = 'z')");
    assert_eq!(err, DegeneracyError::DisconnectedBlock { node: 1 });
}

#[test]
fn depth_four_rejected_in_strict_mode() {
    // Depth 4 with every block connected and local: only the depth bound
    // (not Properties 5.1/5.2 alone) refuses it.
    let err = strict_refusal(
        "SELECT A.a FROM A WHERE NOT EXISTS( \
          SELECT * FROM B WHERE B.a = A.a AND NOT EXISTS( \
           SELECT * FROM C WHERE C.b = B.b AND NOT EXISTS( \
            SELECT * FROM D WHERE D.c = C.c AND NOT EXISTS( \
             SELECT * FROM E WHERE E.d = D.d))))",
    );
    assert_eq!(err, DegeneracyError::TooDeep { depth: 4 });
    // Lenient mode still draws it (depth > 3 just voids the proof).
    QueryVis::from_sql(
        "SELECT A.a FROM A WHERE NOT EXISTS( \
          SELECT * FROM B WHERE B.a = A.a AND NOT EXISTS( \
           SELECT * FROM C WHERE C.b = B.b AND NOT EXISTS( \
            SELECT * FROM D WHERE D.c = C.c AND NOT EXISTS( \
             SELECT * FROM E WHERE E.d = D.d))))",
    )
    .unwrap();
}

// ---------- robustness: no panics on adversarial input ----------

#[test]
fn no_panics_on_fuzzy_inputs() {
    let garbage = [
        "SELECT SELECT SELECT",
        "((((((((((",
        "SELECT * FROM",
        "WHERE WHERE WHERE",
        "SELECT a FROM t WHERE t.a IN IN (SELECT b FROM s)",
        "'just a string'",
        "SELECT \u{1F980} FROM t",
        "NOT NOT NOT EXISTS",
    ];
    for sql in garbage {
        // Must return an error, not panic.
        let _ = QueryVis::from_sql(sql).unwrap_err();
    }
    // An escaped quote is *valid*: `''''` is the one-character string `'`.
    QueryVis::from_sql("SELECT a FROM t WHERE a = ''''").unwrap();
}

#[test]
fn deeply_nested_input_is_handled() {
    // 12 levels of nesting: parse + translate fine, strict mode rejects.
    let mut sql = String::from("SELECT T0.a FROM T0 WHERE NOT EXISTS (");
    for i in 1..12 {
        sql.push_str(&format!(
            "SELECT * FROM T{i} WHERE T{i}.a = T{}.a AND NOT EXISTS (",
            i - 1
        ));
    }
    sql.push_str("SELECT * FROM T99 WHERE T99.a = T11.a");
    sql.push_str(&")".repeat(12));
    let qv = QueryVis::from_sql(&sql).unwrap();
    assert_eq!(qv.logic_tree.max_depth(), 12);
    assert_eq!(strict_refusal(&sql), DegeneracyError::TooDeep { depth: 12 });
}

#[test]
fn strict_mode_checks_every_branch() {
    // Each query's first branch is valid on its own; only the second
    // branch (a written UNION branch, then a positive-polarity OR split)
    // violates a property. Lenient mode draws both branches.
    let union = "SELECT A.x FROM A UNION SELECT F.person FROM Frequents F WHERE NOT EXISTS \
                 (SELECT * FROM Serves S WHERE S.bar = F.bar AND F.bar = 'Owl')";
    let or_split =
        "SELECT A.x FROM A WHERE A.y = 1 OR NOT EXISTS (SELECT * FROM B WHERE B.z = 'q')";
    for sql in [union, or_split] {
        let lenient = QueryVis::from_sql(sql).unwrap();
        assert_eq!(lenient.rest.len(), 1, "{sql}");
        check_valid_diagram_source(&lenient.logic_tree)
            .unwrap_or_else(|e| panic!("first branch of {sql} is valid: {e}"));
    }
    assert_eq!(
        strict_refusal(union),
        DegeneracyError::NonLocalPredicate {
            node: 1,
            predicate: "(F.bar = 'Owl')".to_string(),
        }
    );
    assert_eq!(
        strict_refusal(or_split),
        DegeneracyError::DisconnectedBlock { node: 1 }
    );
}
