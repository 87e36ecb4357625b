//! Fingerprint semantics over the paper corpus: pattern-equivalent queries
//! must share a fingerprint (and therefore one cache compile); everything
//! else must not collide.

use queryvis::QueryVisOptions;
use queryvis_corpus::{pattern_grid, sailors_only_variants, PatternKind};
use queryvis_service::{
    fingerprint_sql, paper_corpus_requests, DiagramService, Format, Request, ServiceConfig,
};

fn fingerprint(sql: &str) -> queryvis_service::Fingerprint {
    fingerprint_sql(sql, QueryVisOptions::default())
        .unwrap_or_else(|e| panic!("corpus query must fingerprint: {e}\n{sql}"))
        .fingerprint
}

fn request(id: u64, sql: &str) -> Request {
    Request {
        id,
        sql: sql.to_string(),
        formats: vec![Format::Ascii],
        rows: None,
    }
}

#[test]
fn alias_renamed_equivalents_share_fingerprint_and_compile_once() {
    // §1.1: the drinkers/bars unique-set pair — alpha-renamed, reordered,
    // over different relations — is the paper's flagship equivalent pair.
    let drinkers = "SELECT L1.drinker FROM Likes L1 WHERE NOT EXISTS( \
         SELECT * FROM Likes L2 WHERE L1.drinker <> L2.drinker \
         AND NOT EXISTS(SELECT * FROM Likes L3 WHERE L3.drinker = L2.drinker \
           AND NOT EXISTS(SELECT * FROM Likes L4 WHERE L4.drinker = L1.drinker \
             AND L4.beer = L3.beer)) \
         AND NOT EXISTS(SELECT * FROM Likes L5 WHERE L5.drinker = L1.drinker \
           AND NOT EXISTS(SELECT * FROM Likes L6 WHERE L6.drinker = L2.drinker \
             AND L6.beer = L5.beer)))";
    let bars = "SELECT F1.bar FROM Frequents F1 WHERE NOT EXISTS( \
         SELECT * FROM Frequents F2 WHERE F1.bar <> F2.bar \
         AND NOT EXISTS(SELECT * FROM Frequents F3 WHERE F3.bar = F2.bar \
           AND NOT EXISTS(SELECT * FROM Frequents F4 WHERE F4.bar = F1.bar \
             AND F4.person = F3.person)) \
         AND NOT EXISTS(SELECT * FROM Frequents F5 WHERE F5.bar = F1.bar \
           AND NOT EXISTS(SELECT * FROM Frequents F6 WHERE F6.bar = F2.bar \
             AND F6.person = F5.person)))";
    assert_eq!(fingerprint(drinkers), fingerprint(bars));

    // Serving both costs exactly one compile; the second request is a pure
    // cache hit.
    let service = DiagramService::new(ServiceConfig::default());
    assert!(service.handle(&request(0, drinkers)).outcome.is_ok());
    assert!(service.handle(&request(1, bars)).outcome.is_ok());
    let stats = service.stats();
    assert_eq!(stats.compiles, 1, "equivalents must compile once");
    assert_eq!(stats.cache.hits, 1, "second request must hit");
    assert_eq!(stats.cache.misses, 1);
}

#[test]
fn sailors_syntactic_variants_share_fingerprint() {
    // Fig. 24: NOT EXISTS / NOT IN / <> ALL spellings of one pattern.
    let fps: Vec<_> = sailors_only_variants()
        .iter()
        .map(|s| fingerprint(s))
        .collect();
    assert_eq!(fps[0], fps[1]);
    assert_eq!(fps[1], fps[2]);
}

#[test]
fn pattern_grid_rows_share_and_columns_differ() {
    // App. G / Fig. 26: each pattern spans three schemas (one fingerprint),
    // and the three patterns are pairwise distinct.
    let grid = pattern_grid();
    let mut by_kind: Vec<(PatternKind, Vec<queryvis_service::Fingerprint>)> = Vec::new();
    for kind in [PatternKind::No, PatternKind::Only, PatternKind::All] {
        let fps: Vec<_> = grid
            .iter()
            .filter(|q| q.kind == kind)
            .map(|q| fingerprint(&q.sql))
            .collect();
        assert_eq!(fps.len(), 3, "{kind:?} spans three schemas");
        assert!(
            fps.windows(2).all(|w| w[0] == w[1]),
            "{kind:?} must share one fingerprint across schemas"
        );
        by_kind.push((kind, fps));
    }
    for i in 0..by_kind.len() {
        for j in (i + 1)..by_kind.len() {
            assert_ne!(
                by_kind[i].1[0], by_kind[j].1[0],
                "{:?} and {:?} must not collide",
                by_kind[i].0, by_kind[j].0
            );
        }
    }
}

#[test]
fn no_fingerprint_collisions_across_the_full_paper_corpus() {
    // Fingerprints must agree exactly with canonical-pattern equality over
    // every corpus query: equal pattern ⇒ equal fingerprint (soundness of
    // the cache key), distinct pattern ⇒ distinct fingerprint (no false
    // sharing of diagrams).
    let requests = paper_corpus_requests(&[Format::Ascii]);
    let fingerprinted: Vec<_> = requests
        .iter()
        .map(|r| {
            fingerprint_sql(&r.sql, QueryVisOptions::default())
                .unwrap_or_else(|e| panic!("corpus query {} must fingerprint: {e}", r.id))
        })
        .collect();
    let mut equivalent_pairs = 0;
    for a in &fingerprinted {
        for b in &fingerprinted {
            assert_eq!(
                a.pattern_key() == b.pattern_key(),
                a.fingerprint == b.fingerprint,
                "fingerprint equality must mirror pattern equality:\n{}\nvs\n{}",
                a.prepared.sql,
                b.prepared.sql
            );
            if !std::ptr::eq(a, b) && a.pattern_key() == b.pattern_key() {
                equivalent_pairs += 1;
            }
        }
    }
    assert!(
        equivalent_pairs > 0,
        "the corpus is known to contain pattern-equivalent queries"
    );
}

#[test]
fn corpus_served_twice_compiles_each_pattern_once() {
    let service = DiagramService::new(ServiceConfig::default());
    let requests = paper_corpus_requests(&[Format::Ascii]);
    let unique_patterns = {
        let mut patterns: Vec<String> = requests
            .iter()
            .map(|r| {
                fingerprint_sql(&r.sql, QueryVisOptions::default())
                    .unwrap()
                    .pattern_key()
                    .render()
            })
            .collect();
        patterns.sort();
        patterns.dedup();
        patterns.len()
    };
    for request in &requests {
        service.handle(request);
    }
    let first = service.stats();
    assert_eq!(first.compiles as usize, unique_patterns);
    for request in &requests {
        service.handle(request);
    }
    let second = service.stats();
    assert_eq!(second.compiles as usize, unique_patterns, "no recompiles");
    assert_eq!(
        (second.cache.hits - first.cache.hits) as usize,
        requests.len(),
        "second pass must be all hits"
    );
}
