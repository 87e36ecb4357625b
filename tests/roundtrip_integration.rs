//! Diagram → logic-tree inverse round-trips across the corpus (the
//! executable content of Proposition 5.1).

use queryvis::corpus::{chinook_schema, study_questions, unique_set_sql, QuestionCategory};
use queryvis::diagram::build_diagram;
use queryvis::logic::translate;
use queryvis::unambiguity::random_valid_tree;
use queryvis::{recover_logic_tree, verify_path_patterns, QueryVis};
use queryvis_sql::{parse_query, Names};

#[test]
fn all_sixteen_path_patterns_are_unambiguous() {
    let results = verify_path_patterns();
    assert_eq!(results.len(), 16);
    for v in &results {
        assert!(v.unambiguous, "{:?}: {}", v.pattern.edges, v.detail);
    }
}

#[test]
fn nested_corpus_queries_roundtrip() {
    let schema = chinook_schema();
    for q in study_questions() {
        if q.category != QuestionCategory::Nested {
            continue;
        }
        let mut names = Names::new();
        let query = parse_query(q.sql, &mut names).unwrap();
        let lt = translate(&query, Some(&schema), &mut names).unwrap();
        let recovered =
            recover_logic_tree(&build_diagram(&lt)).unwrap_or_else(|e| panic!("{}: {e}", q.id));
        assert!(
            lt.structural_eq(&names, &recovered, &names),
            "{} round trip differs",
            q.id
        );
    }
}

#[test]
fn unique_set_roundtrips_through_raw_diagram() {
    let qv = QueryVis::from_sql(unique_set_sql()).unwrap();
    let recovered = recover_logic_tree(qv.raw_diagram()).unwrap();
    assert!(qv
        .logic_tree
        .structural_eq(qv.names(), &recovered, qv.names()));
}

#[test]
fn two_hundred_random_trees_roundtrip() {
    for seed in 200..400 {
        let (tree, names) = random_valid_tree(seed);
        let recovered = recover_logic_tree(&build_diagram(&tree))
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(
            tree.structural_eq(&names, &recovered, &names),
            "seed {seed}"
        );
    }
}
