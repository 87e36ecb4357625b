//! Natural-language readings: the §4.6 reading order must produce
//! coherent interpretations for the study corpus, structurally aligned
//! with the correct MCQ answers.

use queryvis::corpus::{chinook_schema, study_questions, tutorial_examples};
use queryvis::QueryVis;

#[test]
fn readings_mention_every_table_alias() {
    let schema = chinook_schema();
    for q in study_questions() {
        let qv = QueryVis::with_schema(q.sql, &schema).unwrap();
        let reading = qv.reading();
        for table in qv.diagram.tables.iter().filter(|t| !t.is_select) {
            let names = qv.names();
            let (alias, name) = (names.resolve(table.alias), names.resolve(table.name));
            assert!(
                reading.contains(&format!(" {alias} in {name}")),
                "{}: reading misses {name} {alias}\n{reading}",
                q.id,
            );
        }
    }
}

#[test]
fn readings_state_selection_constants() {
    let schema = chinook_schema();
    for q in study_questions() {
        let qv = QueryVis::with_schema(q.sql, &schema).unwrap();
        let reading = qv.reading();
        // Every string constant in the query must appear in the reading.
        for constant in ["'Rock'", "'Pop'", "'Michigan'", "'Jazz'", "'Carlos'"] {
            if q.sql.contains(constant) {
                assert!(
                    reading.contains(constant),
                    "{}: reading misses {constant}\n{reading}",
                    q.id
                );
            }
        }
    }
}

#[test]
fn nested_readings_use_quantifier_phrases() {
    let schema = chinook_schema();
    for q in study_questions() {
        if q.category != queryvis::corpus::QuestionCategory::Nested {
            continue;
        }
        let qv = QueryVis::with_schema(q.sql, &schema).unwrap();
        let reading = qv.reading();
        assert!(
            reading.contains("there does not exist") || reading.contains("for all"),
            "{}: nested reading lacks quantifier phrases:\n{reading}",
            q.id
        );
    }
}

#[test]
fn tutorial_readings_run() {
    let schema = chinook_schema();
    for ex in tutorial_examples() {
        let qv = QueryVis::with_schema(ex.sql, &schema).unwrap();
        let reading = qv.reading();
        assert!(reading.starts_with("Return"), "page {}", ex.page);
        assert!(reading.ends_with('.'), "page {}", ex.page);
    }
}

#[test]
fn unique_set_reading_is_golden() {
    let qv = QueryVis::with_schema(
        queryvis::corpus::unique_set_sql(),
        &queryvis::corpus::beers_schema(),
    )
    .unwrap();
    let reading = qv.reading();
    // The reading must traverse L1..L6 in the paper's order.
    let mut last = 0;
    for alias in ["L1", "L2", "L3", "L4", "L5", "L6"] {
        let pos = reading
            .find(&format!(" {alias} in Likes"))
            .unwrap_or_else(|| panic!("missing {alias} in: {reading}"));
        assert!(pos > last, "{alias} out of order in: {reading}");
        last = pos;
    }
    // ∀ phrasing appears (the simplified diagram is read).
    assert!(reading.contains("for all tuples"), "{reading}");
}
