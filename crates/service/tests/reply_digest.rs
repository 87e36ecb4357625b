//! Reply-digest byte-identity test: every reply line the service writes
//! for a fixed input set, folded into one FNV-1a digest and compared with
//! a recorded constant.
//!
//! `tests/render_digest.rs` pins the artifact bytes the renderers produce;
//! this pins the reply lines `Response::write_json_line` builds around
//! them. It serves the same inputs (the paper corpus, the shadowed-alias
//! query and a fixed-seed `sqlgen` draw) through `DiagramService::handle`
//! in all five formats, then one `rows` request and one compile error, so
//! every member a reply line can carry is covered. The corpus holds
//! pattern-equivalent pairs, so some replies disclose `representative_sql`.
//!
//! It also pins the edge cases of `OR` lowering: each polarity under each
//! subquery form, dedup, a shadowed alias inside a disjunction, `UNION`
//! branches that split, and the refusals, including which error a query
//! with several reports.
//!
//! An intentional wire change re-records the constant: run
//! `cargo test -p queryvis-service --test reply_digest -- --nocapture`
//! and copy the printed digest.

use proptest::sqlgen::{gen_query, GenConfig};
use proptest::test_runner::TestRng;
use queryvis_service::{paper_corpus_requests, DiagramService, Format, Request, ServiceConfig};

/// The widened grammar at the paper's nesting bound of 3, as in
/// `tests/render_digest.rs`.
const DRAW: GenConfig = GenConfig {
    max_depth: 3,
    max_tables: 3,
    max_preds: 3,
    with_or: true,
    with_union: true,
    with_having: true,
};
/// The whole of `tests/render_digest.rs`'s draw (about 3 s in debug).
const DRAW_CASES: u64 = 600;

const SHADOWED_ALIAS: &str =
    "SELECT a.x FROM T a WHERE NOT EXISTS (SELECT * FROM U a WHERE a.y = 1)";
/// `OR` lowering edge cases, each served in all five formats.
const LOWERING: [&str; 13] = [
    // `a OR a` dedups to one branch.
    "SELECT T.a FROM T WHERE T.a = 1 OR T.a = 1",
    // A parenthesized group with no `OR`.
    "SELECT T.a FROM T WHERE T.c = 3 AND (T.a = 1 AND T.b = 2)",
    // Negative polarity: sibling ∄-groups in one diagram.
    "SELECT F.person FROM Frequents F WHERE NOT EXISTS (SELECT * FROM Serves S \
     WHERE S.bar = F.bar AND (S.drink = 'IPA' OR S.drink = 'Stout'))",
    "SELECT S.sname FROM Sailor S WHERE S.sid NOT IN (SELECT R.sid FROM Reserves R \
     WHERE R.bid = 1 OR R.day = 'Mon')",
    "SELECT T.a FROM T WHERE T.a >= ALL (SELECT S.b FROM S WHERE S.x = 1 OR S.y = 2)",
    "SELECT T.a FROM T WHERE NOT T.a = ANY (SELECT S.b FROM S WHERE S.x = 1 OR S.y = 2)",
    // Positive polarity: the split lifts to the root.
    "SELECT F.person FROM Frequents F WHERE EXISTS (SELECT * FROM Serves S \
     WHERE S.bar = F.bar AND (S.drink = 'IPA' OR S.drink = 'Stout'))",
    "SELECT S.sname FROM Sailor S WHERE S.sid IN (SELECT R.sid FROM Reserves R \
     WHERE R.bid = 1 OR R.day = 'Mon')",
    "SELECT T.a FROM T WHERE NOT T.a >= ALL (SELECT S.b FROM S WHERE S.x = 1 OR S.y = 2)",
    // Both polarities in one query.
    "SELECT T.a FROM T WHERE T.a = 1 OR EXISTS (SELECT * FROM U WHERE U.k = T.a \
     AND NOT EXISTS (SELECT * FROM V WHERE V.k = U.k AND (V.x = 1 OR V.y = 2)))",
    // A shadowed alias inside an `OR`: the sibling groups key `L#2`, `L#3`.
    "SELECT L.drinker FROM Likes L WHERE NOT EXISTS (SELECT * FROM Serves L \
     WHERE L.bar = 'Owl' OR L.bar = 'Tap') OR L.beer = 'IPA'",
    // `UNION` and `UNION ALL` whose branches each split.
    "SELECT T.a FROM T WHERE T.a = 1 OR T.b = 2 UNION SELECT U.a FROM U \
     WHERE U.c = 3 OR EXISTS (SELECT * FROM V WHERE V.k = U.a AND (V.x = 1 OR V.y = 2))",
    "SELECT T.a FROM T WHERE T.a = 1 OR T.b = 2 UNION ALL SELECT U.a FROM U \
     WHERE U.c = 3 OR U.d = 4",
];
const ROWS_SQL: &str = "SELECT F.person FROM Frequents F WHERE F.bar = 'Owl'";
const BROKEN_SQL: &str = "SELECT FROM WHERE";

const EXPECTED: u64 = 0x65632906b3368d62;

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, then a 0xff separator (no reply line contains
/// it: all are UTF-8), so adjacent lines cannot trade bytes unnoticed.
fn fold(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes.iter().chain(&[0xff]) {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV64_PRIME);
    }
}

/// `n` two-way `OR`s over `T`, joined by `AND`: 2^n branches.
fn ors(n: usize) -> String {
    (0..n)
        .map(|i| format!("(T.a{i} = 1 OR T.b{i} = 2)"))
        .collect::<Vec<_>>()
        .join(" AND ")
}

/// Lowering refusals. The last two pin which error wins when a query has
/// several: written branches lower and translate in order, and the total
/// branch count is checked last.
fn refusals() -> Vec<String> {
    let six = format!("SELECT T.a FROM T WHERE {}", ors(6));
    let five = format!("SELECT T.a FROM T WHERE {}", ors(5));
    let unknown = "SELECT X.a FROM T WHERE X.a = 1";
    vec![
        // 64 branches in one block, refused by the cross product's cap.
        six.clone(),
        // 32 + 32 branches, refused by the whole query's cap.
        format!("{five} UNION {five}"),
        // A root split of a grouped block.
        "SELECT T.a, COUNT(T.b) FROM T WHERE T.a = 1 OR T.b = 2 GROUP BY T.a".to_string(),
        // The unknown alias of the first branch wins.
        format!("{unknown} UNION {six}"),
        // The 64-branch refusal of the first branch wins.
        format!("{six} UNION {unknown}"),
    ]
}

fn requests() -> Vec<Request> {
    let mut sqls: Vec<String> = paper_corpus_requests(&[])
        .into_iter()
        .map(|r| r.sql)
        .collect();
    sqls.push(SHADOWED_ALIAS.to_string());
    sqls.extend(LOWERING.iter().map(|sql| sql.to_string()));
    sqls.extend(refusals());
    for case in 0..DRAW_CASES {
        let mut rng = TestRng::for_case("render_digest", case);
        sqls.push(gen_query(&DRAW, &mut rng).canonical());
    }
    let mut requests: Vec<Request> = sqls
        .into_iter()
        .map(|sql| Request {
            id: 0,
            sql,
            formats: Format::ALL.to_vec(),
            rows: None,
        })
        .collect();
    requests.push(Request {
        id: 0,
        sql: ROWS_SQL.to_string(),
        formats: vec![Format::Reading],
        rows: Some(3),
    });
    requests.push(Request {
        id: 0,
        sql: BROKEN_SQL.to_string(),
        formats: Vec::new(),
        rows: None,
    });
    for (i, request) in requests.iter_mut().enumerate() {
        request.id = i as u64;
    }
    requests
}

#[test]
fn reply_lines_match_recorded_digest() {
    let service = DiagramService::new(ServiceConfig::default());
    let mut digest = FNV64_OFFSET;
    let (mut disclosed, mut errors, mut with_rows) = (0usize, 0usize, 0usize);
    let mut line = String::new();
    for request in requests() {
        let response = service.handle(&request);
        match &response.outcome {
            Ok(artifacts) => disclosed += usize::from(artifacts.representative_sql.is_some()),
            Err(_) => errors += 1,
        }
        line.clear();
        response.write_json_line(&mut line);
        with_rows += usize::from(line.contains(",\"rows\":["));
        fold(&mut digest, line.as_bytes());
    }

    assert!(
        disclosed > 0,
        "no reply disclosed a pattern-equivalent representative"
    );
    assert_eq!(
        errors,
        1 + refusals().len(),
        "exactly the refusals and the broken query fail"
    );
    assert_eq!(with_rows, 1, "exactly the rows request carries rows");
    println!("{disclosed} replies disclosed a representative");
    println!("{digest:#018x}");
    assert_eq!(digest, EXPECTED, "reply bytes drifted");
}
