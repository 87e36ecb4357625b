//! # queryvis-corpus
//!
//! Every schema and query that appears in the paper, transcribed verbatim
//! (modulo whitespace) and exposed as typed data:
//!
//! * [`schemas`] — the beer-drinkers schema (Ullman \[78\]), the three
//!   Appendix G schemas (sailors, students, actors, Fig. 22), and the
//!   Chinook music-store schema used by the study (tutorial page 2).
//! * [`paper`] — the running examples: the unique-set query (Fig. 1a),
//!   Qsome / Qonly (Fig. 3), the three syntactically different but
//!   semantically equal variants of "sailors who reserve only red boats"
//!   (Fig. 24), and the 3 × 3 not/only/all pattern grid (Figs. 23/25).
//! * [`study`] — the 12 multiple-choice study questions of Appendix F,
//!   with their four answer choices, category, and complexity level.
//! * [`qualification`] — the 6 qualification-exam questions of Appendix D.
//!
//! Correct answer indices were re-derived by manual interpretation of each
//! query (the paper's appendix does not mark them); they feed the study
//! simulator, whose analysis depends only on correctness as a bit.

pub mod paper;
pub mod qualification;
pub mod schemas;
pub mod study;
pub mod tutorial;

pub use paper::{
    pattern_grid, qonly_sql, qsome_sql, sailors_only_variants, unique_set_sql, PatternKind,
    PatternQuery,
};
pub use qualification::{qualification_questions, QUALIFICATION_PASS_THRESHOLD};
pub use schemas::{actors_schema, beers_schema, chinook_schema, sailors_schema, students_schema};
pub use study::{study_questions, Complexity, McqQuestion, QuestionCategory};
pub use tutorial::{tutorial_examples, TutorialExample};

#[cfg(test)]
mod tests {
    use super::*;
    use queryvis_sql::parse_and_check;

    #[test]
    fn every_study_question_parses_and_checks() {
        let schema = chinook_schema();
        for q in study_questions() {
            parse_and_check(q.sql, &schema)
                .unwrap_or_else(|e| panic!("study {} failed: {e}", q.id));
        }
    }

    #[test]
    fn every_qualification_question_parses_and_checks() {
        let schema = chinook_schema();
        for q in qualification_questions() {
            parse_and_check(q.sql, &schema)
                .unwrap_or_else(|e| panic!("qualification {} failed: {e}", q.id));
        }
    }

    #[test]
    fn every_pattern_query_parses_and_checks() {
        for q in pattern_grid() {
            parse_and_check(&q.sql, &q.schema)
                .unwrap_or_else(|e| panic!("pattern {}/{:?} failed: {e}", q.schema.name, q.kind));
        }
    }

    #[test]
    fn running_examples_parse() {
        let beers = beers_schema();
        parse_and_check(unique_set_sql(), &beers).unwrap();
        parse_and_check(qsome_sql(), &beers).unwrap();
        parse_and_check(qonly_sql(), &beers).unwrap();
        let sailors = sailors_schema();
        for v in sailors_only_variants() {
            parse_and_check(v, &sailors).unwrap();
        }
    }
}
