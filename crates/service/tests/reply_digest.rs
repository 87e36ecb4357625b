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
const ROWS_SQL: &str = "SELECT F.person FROM Frequents F WHERE F.bar = 'Owl'";
const BROKEN_SQL: &str = "SELECT FROM WHERE";

const EXPECTED: u64 = 0xc9b11b4d04702b30;

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

fn requests() -> Vec<Request> {
    let mut sqls: Vec<String> = paper_corpus_requests(&[])
        .into_iter()
        .map(|r| r.sql)
        .collect();
    sqls.push(SHADOWED_ALIAS.to_string());
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
    assert_eq!(errors, 1, "exactly the broken query fails");
    assert_eq!(with_rows, 1, "exactly the rows request carries rows");
    println!("{disclosed} replies disclosed a representative");
    println!("{digest:#018x}");
    assert_eq!(digest, EXPECTED, "reply bytes drifted");
}
