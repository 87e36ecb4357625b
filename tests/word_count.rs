//! Word-count property: the §4.8 word count, which counts words as the
//! printer writes them without keeping the text, equals the word count of
//! the printed text, `to_sql_expr(e).split_whitespace().count()`.
//!
//! The inputs are the paper corpus, fixed queries that cover every form
//! the printer writes, `canonical_digest.rs`'s fixed-seed `sqlgen` draw,
//! and string literals whose whitespace (spaces, tabs, newlines, U+00A0
//! and other Unicode spaces, leading, trailing and embedded) the printer
//! copies into the text verbatim.

use proptest::sqlgen::{gen_query, GenConfig};
use proptest::test_runner::TestRng;
use queryvis_service::paper_corpus_requests;
use queryvis_sql::metrics::{word_count, word_count_expr};
use queryvis_sql::{parse_query_expr, to_sql, to_sql_expr};

/// `canonical_digest.rs`'s draw: the widened grammar at nesting depth 3.
const DRAW: GenConfig = GenConfig {
    max_depth: 3,
    max_tables: 3,
    max_preds: 3,
    with_or: true,
    with_union: true,
    with_having: true,
};
const DRAW_CASES: u64 = 600;

/// One query per form the printer writes: each subquery form with and
/// without `NOT`, `OR` groups whose branches are conjunctions, grouping
/// with `COUNT(*)`, `UNION ALL`, `JOIN … ON` and a whitespace-only literal.
const FORMS: [&str; 10] = [
    "SELECT S.sname FROM Sailor S WHERE S.sid IN (SELECT R.sid FROM Reserves R) \
     AND S.age NOT IN (SELECT B.bid FROM Boat B WHERE B.color = 'red')",
    "SELECT T.a FROM T WHERE T.a = ANY (SELECT U.b FROM U) \
     AND NOT T.c = ANY (SELECT V.d FROM V WHERE V.e > 3)",
    "SELECT T.a FROM T WHERE T.a >= ALL (SELECT U.b FROM U) \
     AND NOT T.c < ALL (SELECT V.d FROM V)",
    "SELECT F.person FROM Frequents F WHERE EXISTS (SELECT * FROM Likes L \
     WHERE L.person = F.person AND NOT EXISTS (SELECT * FROM Serves S \
     WHERE S.bar = F.bar AND S.drink = L.drink))",
    "SELECT T.a FROM T WHERE T.x = 1 AND (T.a = 1 AND T.b = 2 OR T.c = 3 AND T.d = 'x y' \
     OR EXISTS (SELECT * FROM U WHERE U.k = T.a))",
    "SELECT T.a, COUNT(*), MAX(T.b) FROM T WHERE T.c = 1 GROUP BY T.a, T.d \
     HAVING COUNT(*) >= 3 AND SUM(T.b) < 10",
    "SELECT T.a FROM T WHERE T.a = 1 UNION ALL SELECT U.b FROM U \
     UNION ALL SELECT V.c FROM V WHERE V.c <> 'z'",
    "SELECT F.person FROM Frequents F JOIN Serves S ON F.bar = S.bar \
     JOIN Likes L ON L.drink = S.drink WHERE L.person = F.person",
    "SELECT T.a FROM T WHERE T.b = ' ' AND T.c = '\t\n' AND '  ' = T.d",
    "SELECT a FROM T WHERE b = 2.50 OR c = 10",
];

/// Literal contents drawn per generated case, and their length cap.
const LITERAL_CASES: u64 = 256;
const LITERAL_LEN: u64 = 12;

/// What a generated literal is made of: words and every kind of space.
const ALPHABET: [char; 9] = [
    'a', 'Z', '7', ' ', '\t', '\n', '\u{a0}', '\u{2003}', '\u{3000}',
];

/// Check the property for `sql`, as an expression and per branch.
fn check(sql: &str) {
    let expr = parse_query_expr(sql).unwrap_or_else(|e| panic!("{sql}: {e:?}"));
    let printed = to_sql_expr(&expr);
    assert_eq!(
        word_count_expr(&expr),
        printed.split_whitespace().count(),
        "{printed:?}"
    );
    for branch in &expr.branches {
        let printed = to_sql(branch, &expr.names);
        assert_eq!(
            word_count(branch, &expr.names),
            printed.split_whitespace().count(),
            "{printed:?}"
        );
    }
}

/// A one-selection query comparing against the string literal `text`.
fn with_literal(text: &str) -> String {
    format!("SELECT T.a FROM T WHERE T.b = '{text}'")
}

#[test]
fn word_count_matches_the_printed_text_on_the_corpus() {
    for request in paper_corpus_requests(&[]) {
        check(&request.sql);
    }
    for sql in FORMS {
        check(sql);
    }
}

#[test]
fn word_count_matches_the_printed_text_on_the_draw() {
    for case in 0..DRAW_CASES {
        let mut rng = TestRng::for_case("render_digest", case);
        check(&gen_query(&DRAW, &mut rng).canonical());
    }
}

#[test]
fn word_count_matches_the_printed_text_across_literal_whitespace() {
    for text in [
        "",
        " ",
        "  lead",
        "trail  ",
        "in side",
        "\ttab\t",
        "new\nline",
        "\n",
        "\u{a0}",
        "\u{a0}nbsp\u{a0}",
        "non\u{a0}breaking",
        " a \t b \n c \u{a0} d ",
    ] {
        check(&with_literal(text));
    }
    for case in 0..LITERAL_CASES {
        let mut rng = TestRng::for_case("word_count", case);
        let len = rng.below(LITERAL_LEN + 1);
        let text: String = (0..len)
            .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize])
            .collect();
        check(&with_literal(&text));
        check(&format!(
            "{} UNION {}",
            with_literal(&text),
            with_literal(&text)
        ));
    }
}
