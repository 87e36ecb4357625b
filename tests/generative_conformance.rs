//! Generative conformance suite for the widened SQL fragment (ISSUE 4).
//!
//! A fragment-aware generator (`proptest::sqlgen`) emits random queries
//! over the *full* widened grammar — `JOIN … ON`, `OR` (polarity-tracked),
//! `GROUP BY` + `HAVING`, and top-level `UNION [ALL]` — and these
//! properties pin the end-to-end guarantees that make the enlarged
//! surface safe to serve:
//!
//! 1. **Round-trip**: `parse(print(q)) == q` on every generated query.
//! 2. **Compilation**: every generated query compiles to diagrams through
//!    the real pipeline (the only admissible refusal is the documented
//!    disjunction-width cap), and every artifact renders.
//! 3. **Pattern stability**: a pattern-preserving rewrite (order-keeping
//!    renames, join-operand flips, `JOIN … ON` syntax, union-branch
//!    rotation) keeps the canonical fingerprint; across distinct queries,
//!    equal pattern ⟺ equal fingerprint.
//! 4. **Warm ≡ cold**: repeat texts serve byte-identical replies through
//!    the L1 memo; a spelling-only rewrite, which must keep the
//!    fingerprint, misses L1 and is served the same artifacts from L2
//!    without a compile; and the memoized fingerprint always equals the
//!    recomputed one.

use proptest::prelude::*;
use proptest::sqlgen::{gen_query, GenConfig};
use proptest::test_runner::TestRng;
use queryvis::{QueryVis, QueryVisError, QueryVisOptions};
use queryvis_service::{fingerprint_sql, DiagramService, Format, Request, ServiceConfig};
use queryvis_sql::{parse_query_expr, to_sql_expr};

fn gen(seed: u64) -> proptest::sqlgen::GenQuery {
    let mut rng = TestRng::for_case("generative_conformance", seed);
    gen_query(&GenConfig::default(), &mut rng)
}

/// The only admissible compile failure on generated input: the documented
/// disjunction-width cap.
fn admissible(err: &QueryVisError) -> bool {
    matches!(
        err,
        QueryVisError::Translate(queryvis::logic::TranslateError::DisjunctionTooWide { .. })
    )
}

proptest! {
    /// Property 1: parse ∘ print is the identity on generated queries.
    #[test]
    fn parse_print_roundtrip(seed in 0u64..100_000) {
        let sql = gen(seed).canonical();
        let expr = parse_query_expr(&sql)
            .unwrap_or_else(|e| panic!("generated SQL failed to parse: {e}\n{sql}"));
        let printed = to_sql_expr(&expr);
        let reparsed = parse_query_expr(&printed)
            .unwrap_or_else(|e| panic!("printed SQL failed to re-parse: {e}\n{printed}"));
        prop_assert!(expr == reparsed, "round trip changed the AST:\n{printed}");
    }

    /// Property 2: the full widened grammar compiles end-to-end and every
    /// artifact renders, union badges included.
    #[test]
    fn widened_grammar_compiles_end_to_end(seed in 0u64..100_000) {
        let q = gen(seed);
        let sql = q.canonical();
        let qv = match QueryVis::from_sql(&sql) {
            Ok(qv) => qv,
            Err(e) => {
                prop_assert!(admissible(&e), "unexpected failure: {e}\n{sql}");
                return Ok(());
            }
        };
        let n = qv.diagrams().len();
        prop_assert!(n >= q.branch_count(), "branches lost:\n{sql}");
        let svg = qv.svg();
        prop_assert!(svg.starts_with("<svg") && svg.trim_end().ends_with("</svg>"));
        prop_assert!(qv.dot().starts_with("digraph"));
        prop_assert!(!qv.ascii().is_empty());
        prop_assert!(qv.reading().starts_with("Return"));
        prop_assert!(qv.stats().visual_elements() > 0);
        if n > 1 {
            let badge = if qv.union_all { "UNION ALL" } else { "UNION" };
            prop_assert!(qv.ascii().contains(badge), "missing ascii badge:\n{}", qv.ascii());
            prop_assert!(svg.contains("union-badge"), "missing svg badge");
        }
        // Every branch diagram is structurally well-formed.
        for d in qv.diagrams() {
            let defects = queryvis::diagram::verify_diagram(d);
            prop_assert!(defects.is_empty(), "defects {defects:?}\n{sql}");
        }
    }

    /// Property 3a: pattern-preserving rewrites keep the fingerprint.
    #[test]
    fn pattern_variants_share_fingerprint(seed in 0u64..100_000, salt in 0u64..30) {
        let q = gen(seed);
        let canonical = q.canonical();
        let variant = q.pattern_variant(salt);
        let a = fingerprint_sql(&canonical, QueryVisOptions::default());
        let b = fingerprint_sql(&variant, QueryVisOptions::default());
        match (a, b) {
            (Ok(a), Ok(b)) => {
                prop_assert!(
                    a.fingerprint == b.fingerprint,
                    "pattern variant changed the fingerprint:\n{canonical}\nvs\n{variant}\npatterns:\n{}\nvs\n{}",
                    a.pattern_key().render(),
                    b.pattern_key().render()
                );
                prop_assert_eq!(a.pattern_key().render(), b.pattern_key().render());
            }
            (Err(ea), Err(eb)) => prop_assert!(ea.to_string() == eb.to_string()),
            (a, b) => prop_assert!(
                false,
                "variant diverged in outcome: {:?} vs {:?}\n{}\nvs\n{}",
                a.is_ok(), b.is_ok(), canonical, variant
            ),
        }
    }

    /// Property 4: repeat texts are byte-identical warm vs cold, and a
    /// spelling-only rewrite misses L1 and is served the same fingerprint
    /// and artifacts from L2 without a compile; the fingerprint memoized
    /// for it equals the recomputed one.
    #[test]
    fn warm_and_cold_responses_are_byte_identical(seed in 0u64..100_000, salt in 0u64..8) {
        let q = gen(seed);
        let canonical = q.canonical();
        let service = DiagramService::new(ServiceConfig {
            default_formats: vec![Format::Ascii, Format::Dot, Format::Reading],
            ..ServiceConfig::default()
        });
        let request = |sql: &str| Request {
            id: 1,
            sql: sql.to_string(),
            formats: vec![],
            rows: None,
        };
        let cold = service.handle(&request(&canonical));
        let warm = service.handle(&request(&canonical));
        prop_assert!(
            cold.to_json_line() == warm.to_json_line(),
            "warm response diverged from cold:\n{canonical}"
        );
        if cold.outcome.is_err() {
            // Errors are never memoized; they must still repeat verbatim.
            prop_assert_eq!(service.stats().l1_hits, 0);
            return Ok(());
        }
        prop_assert!(service.stats().l1_hits == 1, "repeat text missed the L1 memo");

        // A spelling-only rewrite is another text: it misses L1, and L2
        // serves it the same artifacts without a compile (only the
        // representative-SQL disclosure may appear, since the text
        // differs).
        let variant = q.text_variant(salt);
        prop_assert!(
            service.memo().lookup(&variant).is_none(),
            "an unseen spelling hit the memo:\n{}\nvs\n{}", canonical, variant
        );
        let compiles = service.stats().compiles;
        let warm_variant = service.handle(&request(&variant));
        let (cold_art, warm_art) = match (&cold.outcome, &warm_variant.outcome) {
            (Ok(a), Ok(b)) => (a, b),
            _ => return Err("variant response failed".to_string()),
        };
        prop_assert_eq!(&cold_art.fingerprint_hex, &warm_art.fingerprint_hex);
        prop_assert!(cold_art.rendered == warm_art.rendered, "artifacts diverged");
        prop_assert_eq!(service.stats().compiles, compiles);
        let memoized = service.memo().lookup(&variant);
        prop_assert!(memoized.is_some(), "a served spelling is memoized:\n{}", variant);
        let recomputed = fingerprint_sql(&variant, QueryVisOptions::default()).unwrap();
        prop_assert!(
            memoized.unwrap().0 == recomputed.fingerprint,
            "memoized fingerprint != recomputed"
        );
    }
}

/// Property 3b: across a generated batch, equal pattern ⟺ equal
/// fingerprint (no collisions, no misses).
#[test]
fn equal_pattern_iff_equal_fingerprint_across_batch() {
    let mut seen: Vec<(String, u128, String)> = Vec::new();
    let cases: u64 = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    for seed in 0..cases.max(16) {
        let q = gen(seed * 7919);
        let sql = q.canonical();
        let Ok(fq) = fingerprint_sql(&sql, QueryVisOptions::default()) else {
            continue;
        };
        seen.push((fq.pattern_key().render(), fq.fingerprint.0, sql));
    }
    assert!(seen.len() >= 8, "too few compilable generated queries");
    for (i, (pa, fa, sa)) in seen.iter().enumerate() {
        for (pb, fb, sb) in seen.iter().skip(i + 1) {
            assert_eq!(
                pa == pb,
                fa == fb,
                "pattern/fingerprint equality diverged:\n{sa}\nvs\n{sb}\n{pa}\nvs\n{pb}"
            );
        }
    }
}

/// The golden equivalence the widening licenses: a positive-polarity OR
/// and the equivalent written UNION compile to the same fingerprint, in
/// either branch order; `UNION ALL` stays distinct.
#[test]
fn or_union_equivalences() {
    let fp = |sql: &str| {
        fingerprint_sql(sql, QueryVisOptions::default())
            .unwrap()
            .fingerprint
    };
    let or = fp("SELECT A.x FROM T A WHERE A.x = 1 OR A.y = 2");
    let union = fp("SELECT A.x FROM T A WHERE A.x = 1 UNION SELECT A.x FROM T A WHERE A.y = 2");
    let union_rotated =
        fp("SELECT A.x FROM T A WHERE A.y = 2 UNION SELECT A.x FROM T A WHERE A.x = 1");
    let union_all =
        fp("SELECT A.x FROM T A WHERE A.x = 1 UNION ALL SELECT A.x FROM T A WHERE A.y = 2");
    assert_eq!(or, union, "OR must lower to the written-UNION pattern");
    assert_eq!(union, union_rotated, "branch order must canonicalize");
    assert_ne!(union, union_all, "UNION ALL must not collide with UNION");
    // Single-block queries keep their legacy fingerprints (no union frame).
    let single = fp("SELECT A.x FROM T A WHERE A.x = 1");
    assert_ne!(single, union);
}
