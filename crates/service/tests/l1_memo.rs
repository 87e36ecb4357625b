//! End-to-end semantics of the L1 text→fingerprint memo: exact text
//! keys (a respelling is an L1 miss that L2 serves without a compile,
//! then an L1 hit), coherence with L2 eviction, and the property that a
//! memoized fingerprint always equals the recomputed one.

use proptest::sqlgen::{gen_query, GenConfig};
use proptest::test_runner::TestRng;
use queryvis::QueryVisOptions;
use queryvis_service::{
    fingerprint_sql, paper_corpus_requests, Artifacts, CacheConfig, DiagramService, Fingerprint,
    Format, L1Memo, Request, Response, ServiceConfig,
};

fn request(id: u64, sql: &str) -> Request {
    Request {
        id,
        sql: sql.to_string(),
        formats: vec![Format::Ascii],
        rows: None,
    }
}

fn service() -> DiagramService {
    DiagramService::new(ServiceConfig::default())
}

/// Serve `sql`, a respelling of a text `service` has served, twice. The
/// first sighting misses L1 and L2 serves it without a compile; the
/// second hits L1. Both reply with `expected`'s fingerprint and artifacts.
fn serve_respelling(service: &DiagramService, sql: &str, expected: &Artifacts) {
    let before = service.stats();
    let first = service.handle(&request(1, sql));
    let after = service.stats();
    assert_eq!(after.l1_hits, before.l1_hits, "L1 miss: {sql}");
    assert_eq!(after.cache.hits, before.cache.hits + 1, "L2 hit: {sql}");
    assert_eq!(after.compiles, before.compiles, "no compile: {sql}");
    let artifacts = first.outcome.as_ref().expect("respelling serves");
    assert_eq!(artifacts.fingerprint, expected.fingerprint, "{sql}");
    assert_eq!(artifacts.rendered, expected.rendered, "{sql}");
    let second = service.handle(&request(1, sql));
    assert_eq!(service.stats().l1_hits, after.l1_hits + 1, "L1 hit: {sql}");
    assert_eq!(second.to_json_line(), first.to_json_line(), "{sql}");
}

/// For each `(text, respellings)` case on a fresh service: each
/// respelling runs the frontend once, shares the text's L2 entry and
/// gets an L1 entry of its own.
fn check_respellings(cases: &[(&str, &[&str])]) {
    for (canonical, variants) in cases {
        let service = service();
        let first = service.handle(&request(0, canonical));
        let expected = first.outcome.as_ref().unwrap();
        assert_eq!(
            service.stats().l1_hits,
            0,
            "first sighting runs the frontend"
        );
        for variant in *variants {
            serve_respelling(&service, variant, expected);
        }
        let stats = service.stats();
        assert_eq!(stats.l1_hits, variants.len() as u64, "{canonical}");
        assert_eq!(stats.memo.entries, 1 + variants.len(), "{canonical}");
        assert_eq!(stats.compiles, 1, "{canonical}");
    }
}

/// Whitespace, comments, keyword case and a trailing `;` make another
/// text.
#[test]
fn respellings_miss_l1_once_and_share_the_l2_entry() {
    check_respellings(&[(
        "SELECT T.a FROM T",
        &[
            "select T.a from T",
            "  SELECT\n\tT.a\r\n FROM   T  ",
            "SELECT /* projection */ T.a FROM T -- trailing",
            "SELECT T.a FROM T;",
        ],
    )]);
}

/// The widened-fragment keywords (`JOIN`/`ON`/`HAVING`/`UNION`) behave
/// like the rest: a respelling is another text.
#[test]
fn widened_keyword_respellings_miss_l1_once_and_share_the_l2_entry() {
    check_respellings(&[
        (
            "SELECT F.a FROM Frequents F JOIN Serves S ON F.b = S.b",
            &[
                "select F.a from Frequents F join Serves S on F.b = S.b",
                "SELECT F.a FROM Frequents F Join /* inner */ Serves S oN F.b = S.b",
                "SELECT F.a\nFROM Frequents F\n  JOIN Serves S\n  ON F.b = S.b;",
            ],
        ),
        (
            "SELECT T.a FROM T GROUP BY T.a HAVING COUNT(*) > 2",
            &[
                "select T.a from T group by T.a having count(*) > 2",
                "SELECT T.a FROM T GROUP BY T.a\n\tHaViNg COUNT(*) > 2",
            ],
        ),
        (
            "SELECT T.a FROM T UNION SELECT S.b FROM S",
            &[
                "select T.a from T union select S.b from S",
                "SELECT T.a FROM T  union  SELECT S.b FROM S;",
            ],
        ),
    ]);
}

/// `UNION` and `UNION ALL` must never share a memo entry (or a
/// fingerprint): the `ALL` keyword is a significant token.
#[test]
fn union_vs_union_all_never_share_a_memo_entry() {
    let service = service();
    let union = "SELECT T.a FROM T UNION SELECT S.b FROM S";
    let union_all = "SELECT T.a FROM T UNION ALL SELECT S.b FROM S";
    let a = service.handle(&request(0, union));
    let b = service.handle(&request(1, union_all));
    let stats = service.stats();
    assert_eq!(
        stats.l1_hits, 0,
        "distinct texts must both run the frontend"
    );
    assert_eq!(stats.memo.entries, 2);
    assert_eq!(stats.compiles, 2);
    assert_ne!(
        a.outcome.as_ref().unwrap().fingerprint,
        b.outcome.as_ref().unwrap().fingerprint,
        "UNION and UNION ALL are different patterns"
    );
    // A lowercase re-send is its own text, served from its pattern's
    // entry: `union` from UNION's, `union all` from UNION ALL's.
    serve_respelling(
        &service,
        "select T.a from T union select S.b from S",
        a.outcome.as_ref().unwrap(),
    );
    serve_respelling(
        &service,
        "select T.a from T union all select S.b from S",
        b.outcome.as_ref().unwrap(),
    );
    assert_eq!(service.stats().memo.entries, 4);
    assert_eq!(service.stats().compiles, 2);
}

#[test]
fn malformed_texts_error_identically_warm_and_cold() {
    // A warm memo must never rescue a malformed text: a key that dropped
    // `/* oops` would make this text equal to the memoized valid one and
    // serve artifacts for an unlexable request.
    let malformed = [
        "SELECT T.a FROM T /* oops",
        "SELECT T.a FROM T /* a /* b */",
        "SELECT T.a FROM T WHERE T.a = 'oops",
    ];
    let cold = service();
    let cold_lines: Vec<String> = malformed
        .iter()
        .enumerate()
        .map(|(i, sql)| cold.handle(&request(i as u64, sql)).to_json_line())
        .collect();
    let warm = service();
    warm.handle(&request(99, "SELECT T.a FROM T"));
    warm.handle(&request(98, "SELECT T.a FROM T WHERE T.a = 'oops'"));
    let warm_lines: Vec<String> = malformed
        .iter()
        .enumerate()
        .map(|(i, sql)| warm.handle(&request(i as u64, sql)).to_json_line())
        .collect();
    assert_eq!(cold_lines, warm_lines, "cache state must not change bytes");
    for line in &warm_lines {
        assert!(line.contains("error"), "malformed text must error: {line}");
    }
    assert_eq!(warm.stats().l1_hits, 0);
}

#[test]
fn distinct_literals_do_not_share_an_l1_key() {
    let service = service();
    // Same *pattern* (constants are erased), different literal text: the
    // pattern cache may share the entry, but the L1 memo must not guess —
    // each text runs the frontend once.
    let red = "SELECT B.bid FROM Boat B WHERE B.color = 'red'";
    let green = "SELECT B.bid FROM Boat B WHERE B.color = 'green'";
    service.handle(&request(0, red));
    let response = service.handle(&request(1, green));
    assert!(response.outcome.is_ok());
    let stats = service.stats();
    assert_eq!(stats.l1_hits, 0, "distinct literals are distinct texts");
    assert_eq!(stats.memo.entries, 2);
    // And likewise for distinct numeric literals.
    service.handle(&request(2, "SELECT T.a FROM T WHERE T.a = 1"));
    service.handle(&request(3, "SELECT T.a FROM T WHERE T.a = 2"));
    assert_eq!(service.stats().l1_hits, 0);
    assert_eq!(service.stats().memo.entries, 4);
}

#[test]
fn identifier_case_is_not_folded() {
    let service = service();
    service.handle(&request(0, "SELECT T.a FROM T"));
    // Table/alias case differs: a different text (and a different query).
    service.handle(&request(1, "SELECT t.a FROM t"));
    assert_eq!(service.stats().l1_hits, 0);
    assert_eq!(service.stats().memo.entries, 2);
}

#[test]
fn l2_eviction_invalidates_l1_and_the_service_recovers() {
    // One-entry, one-shard L2: every new pattern evicts the previous one.
    let service = DiagramService::new(ServiceConfig {
        cache: CacheConfig {
            capacity: 1,
            shards: 1,
        },
        options: QueryVisOptions::default(),
        default_formats: vec![Format::Ascii],
    });
    let a = "SELECT T.a FROM T";
    let b = "SELECT T.a FROM T, T u WHERE T.a = u.a";
    let fp_a = service.handle(&request(0, a)).outcome.unwrap().fingerprint;
    assert!(service.memo().lookup(a).is_some(), "A memoized");
    // Serving B evicts A's entry from L2 — the memo entry for A's text
    // must be invalidated eagerly, not left dangling.
    service.handle(&request(1, b));
    assert!(
        service.memo().lookup(a).is_none(),
        "L2 eviction must invalidate the L1 text entry"
    );
    assert_eq!(service.stats().memo.invalidations, 1);
    assert!(service.memo().lookup(b).is_some(), "B memoized");
    // Serving A again recompiles (full frontend) and re-publishes both
    // levels, with the same fingerprint as before.
    let compiles_before = service.stats().compiles;
    let again = service.handle(&request(2, a)).outcome.unwrap();
    assert_eq!(again.fingerprint, fp_a);
    assert_eq!(service.stats().compiles, compiles_before + 1);
    assert!(service.memo().lookup(a).is_some(), "A re-memoized");
    // No spurious L1 hits were recorded along the way.
    assert_eq!(service.stats().l1_hits, 0);
}

/// What eager invalidation buys under eviction pressure: the texts of an
/// evicted pattern leave the memo at once, instead of filling its FIFO
/// and pushing out texts whose entries are still resident. So on a pass
/// that evicts, every L2 hit is reached through an L1 hit. The property
/// holds for any L2 eviction policy.
#[test]
fn resident_entries_keep_their_texts_memoized_under_eviction() {
    // The memo gets 4× the cache's capacity (32 texts), one shard each.
    let service = DiagramService::new(ServiceConfig {
        cache: CacheConfig {
            capacity: 8,
            shards: 1,
        },
        options: QueryVisOptions::default(),
        default_formats: vec![Format::Ascii],
    });
    let requests = paper_corpus_requests(&[Format::Ascii]);
    let serve = || {
        for request in &requests {
            assert!(service.handle(request).outcome.is_ok(), "{}", request.sql);
        }
    };
    serve();
    for pass in 2..=3 {
        let before = service.stats();
        serve();
        let after = service.stats();
        assert!(
            after.cache.evictions > before.cache.evictions,
            "pass {pass} must evict from L2"
        );
        let l2_hits = after.cache.hits - before.cache.hits;
        assert!(l2_hits > 0, "pass {pass} must hit L2");
        assert_eq!(
            after.l1_hits - before.l1_hits,
            l2_hits,
            "pass {pass}: a resident entry's texts stay memoized"
        );
    }
}

#[test]
fn memoized_fingerprints_equal_recomputed_ones_across_the_corpus() {
    // Property over the whole paper corpus: after serving, every memoized
    // (text → fingerprint) pair must agree exactly with a fresh
    // run of the full frontend — the memo may only ever skip work, never
    // change an answer.
    let service = service();
    let requests = paper_corpus_requests(&[Format::Ascii]);
    let serve = || -> Vec<Response> { requests.iter().map(|r| service.handle(r)).collect() };
    let responses = serve();
    for (request, response) in requests.iter().zip(&responses) {
        let artifacts = response.outcome.as_ref().expect("corpus queries serve");
        let memoized = service
            .memo()
            .lookup(&request.sql)
            .expect("served texts are memoized");
        let recomputed = fingerprint_sql(&request.sql, QueryVisOptions::default())
            .expect("corpus queries fingerprint");
        assert_eq!(memoized.0, recomputed.fingerprint, "{}", request.sql);
        assert_eq!(memoized.0, artifacts.fingerprint, "{}", request.sql);
    }
    // Second pass is served entirely through the memo, byte-identically.
    let hits_before = service.stats().l1_hits;
    let warm = serve();
    let stats = service.stats();
    assert_eq!(stats.l1_hits - hits_before, requests.len() as u64);
    let cold_lines: Vec<String> = responses.iter().map(|r| r.to_json_line()).collect();
    let warm_lines: Vec<String> = warm.iter().map(|r| r.to_json_line()).collect();
    assert_eq!(cold_lines, warm_lines, "the memo must not change bytes");
}

#[test]
fn corpus_variants_hit_the_memo_after_one_sighting() {
    // Deterministic respellings that keep the token stream: keyword case,
    // whitespace shape, an injected comment, a trailing semicolon.
    // Identifier spelling and string-literal contents are left untouched —
    // those are significant.
    fn mutate(sql: &str, salt: usize) -> String {
        let mut out = String::with_capacity(sql.len() + 32);
        out.push_str("/* warm-path variant */  ");
        let mut in_string = false;
        let mut word = String::new();
        let flush = |word: &mut String, out: &mut String, salt: usize| {
            if word.is_empty() {
                return;
            }
            let is_keyword = [
                "SELECT", "FROM", "WHERE", "AND", "NOT", "EXISTS", "IN", "ANY", "SOME", "ALL",
                "GROUP", "BY", "AS", "COUNT", "SUM", "AVG", "MIN", "MAX",
            ]
            .iter()
            .any(|kw| kw.eq_ignore_ascii_case(word));
            if is_keyword {
                if salt.is_multiple_of(2) {
                    out.push_str(&word.to_ascii_lowercase());
                } else {
                    out.push_str(&word.to_ascii_uppercase());
                }
            } else {
                out.push_str(word);
            }
            word.clear();
        };
        for (i, ch) in sql.chars().enumerate() {
            if in_string {
                out.push(ch);
                if ch == '\'' {
                    in_string = false;
                }
                continue;
            }
            match ch {
                '\'' => {
                    flush(&mut word, &mut out, salt);
                    in_string = true;
                    out.push(ch);
                }
                c if c.is_ascii_alphanumeric() || c == '_' => word.push(c),
                ' ' | '\n' | '\t' | '\r' => {
                    flush(&mut word, &mut out, salt);
                    if (i + salt).is_multiple_of(3) {
                        out.push_str("\n\t  ");
                    } else {
                        out.push(' ');
                    }
                }
                other => {
                    flush(&mut word, &mut out, salt);
                    out.push(other);
                }
            }
        }
        flush(&mut word, &mut out, salt);
        out.push_str(" ;");
        out
    }
    let requests = paper_corpus_requests(&[Format::Ascii]);
    let serve_corpus = |service: &DiagramService| -> Vec<Response> {
        requests.iter().map(|r| service.handle(r)).collect()
    };
    // The reference has served the corpus alone: it holds the same
    // representatives and has seen none of the variants.
    let fresh = service();
    serve_corpus(&fresh);
    let service = service();
    let baseline = serve_corpus(&service);
    let mut checked = 0;
    for (i, (original, response)) in requests.iter().zip(&baseline).enumerate() {
        let Ok(artifacts) = &response.outcome else {
            continue;
        };
        let mutated = request(10_000 + i as u64, &mutate(&original.sql, i));
        let before = service.stats();
        let varied = service.handle(&mutated);
        let line = varied.to_json_line();
        assert_eq!(
            line,
            fresh.handle(&mutated).to_json_line(),
            "{}",
            mutated.sql
        );
        let varied = varied.outcome.expect("mutated corpus text still serves");
        assert_eq!(varied.fingerprint, artifacts.fingerprint, "{}", mutated.sql);
        let after = service.stats();
        assert_eq!(after.l1_hits, before.l1_hits, "{}", mutated.sql);
        assert_eq!(after.compiles, before.compiles, "{}", mutated.sql);
        // The second sighting is an L1 hit, with the same bytes.
        assert_eq!(service.handle(&mutated).to_json_line(), line);
        assert_eq!(
            service.stats().l1_hits,
            after.l1_hits + 1,
            "a variant is memoized after one sighting: {}",
            mutated.sql
        );
        checked += 1;
    }
    assert!(checked >= 30, "corpus coverage: {checked}");
}

#[test]
fn one_byte_mutations_hit_exactly_when_the_text_is_unchanged() {
    // Keys are exact: once the original is memoized, a mutated text hits
    // exactly when it equals the original, whether or not it lexes like
    // it (the noisy variants respell whitespace, comments, keyword case,
    // `SOME` and `!=`).
    const TEXTS: u64 = 150;
    const MUTATIONS: u64 = 40;
    const BYTES: &[u8] = b"'-/*;!<>=. \n0123456789\
        abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
    let config = GenConfig {
        max_depth: 3,
        max_tables: 3,
        max_preds: 3,
        with_or: true,
        with_union: true,
        with_having: true,
    };
    let mut misses = 0u64;
    for case in 0..TEXTS {
        let mut rng = TestRng::for_case("l1_lexer_agreement", case);
        let query = gen_query(&config, &mut rng);
        let original = if case % 2 == 0 {
            query.canonical()
        } else {
            query.text_variant(case)
        };
        let memo = L1Memo::new(4 * 4096, 16);
        memo.insert(&original, Fingerprint(1), 1);
        assert_eq!(memo.lookup(&original), Some((Fingerprint(1), 1)));
        for _ in 0..MUTATIONS {
            let mut bytes = original.clone().into_bytes();
            let op = rng.below(3);
            let at = rng.below(bytes.len() as u64 + u64::from(op == 0)) as usize;
            let byte = BYTES[rng.below(BYTES.len() as u64) as usize];
            match op {
                0 => bytes.insert(at, byte),
                1 => {
                    bytes.remove(at);
                }
                _ => bytes[at] = byte,
            }
            let Ok(mutated) = String::from_utf8(bytes) else {
                continue; // cut through a multi-byte character
            };
            let hit = memo.lookup(&mutated).is_some();
            assert_eq!(
                hit,
                mutated == original,
                "original: {original:?}\nmutated:  {mutated:?}"
            );
            misses += u64::from(!hit);
        }
    }
    assert!(misses >= TEXTS * MUTATIONS / 20, "misses: {misses}");
}
