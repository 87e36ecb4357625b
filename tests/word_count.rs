//! Word-count property: the §4.8 word count, which counts words as the
//! printer writes them without keeping the text, equals the word count of
//! the printed text, `to_sql_expr(e).split_whitespace().count()`.
//!
//! The inputs are the paper corpus, `canonical_digest.rs`'s fixed-seed
//! `sqlgen` draw, and string literals whose whitespace (spaces, tabs,
//! newlines, U+00A0 and other Unicode spaces, leading, trailing and
//! embedded) the printer copies into the text verbatim.

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
