//! Stimulus complexity: what a participant actually has to read.
//!
//! For each of the 12 study questions we measure, from the *real* stimuli:
//!
//! * the **word count** of the SQL text (what the SQL condition shows);
//! * the **visual-element count** of the generated QueryVis diagram (what
//!   the QV condition shows), built through the same pipeline as the
//!   paper's figures (translate → simplify → diagram);
//! * structural covariates (nesting depth, join count) used by the error
//!   model.

use queryvis_corpus::{chinook_schema, study_questions, McqQuestion};
use queryvis_diagram::{build_diagram, diagram_stats};
use queryvis_logic::{simplify, translate};
use queryvis_sql::metrics;
use queryvis_sql::{parse_query, Names};

/// Complexity measures for one study question.
#[derive(Debug, Clone)]
pub struct StimulusComplexity {
    pub question: McqQuestion,
    /// Words of SQL text (whitespace tokens of the canonical rendering).
    pub sql_words: usize,
    /// Visual elements of the (simplified) QueryVis diagram
    /// (tables + rows + edges + boxes, the §4.8 counting).
    pub diagram_elements: usize,
    /// Words across the four answer choices (read in every condition).
    pub choice_words: usize,
    pub nesting_depth: usize,
    pub joins: usize,
    pub table_refs: usize,
}

/// Compute complexities for all 12 study questions, in presentation order.
pub fn stimulus_complexities() -> Vec<StimulusComplexity> {
    let schema = chinook_schema();
    study_questions()
        .into_iter()
        .map(|question| {
            let mut names = Names::new();
            let ast = parse_query(question.sql, &mut names).expect("corpus SQL parses");
            let lt = translate(&ast, Some(&schema), &mut names).expect("corpus SQL translates");
            let diagram = build_diagram(&simplify(&lt));
            let stats = diagram_stats(&diagram);
            let choice_words = question
                .choices
                .iter()
                .map(|c| c.split_whitespace().count())
                .sum();
            StimulusComplexity {
                sql_words: metrics::word_count(&ast, &names),
                diagram_elements: stats.visual_elements(),
                choice_words,
                nesting_depth: ast.nesting_depth(),
                joins: ast.join_count(),
                table_refs: ast.table_ref_count(),
                question,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use queryvis_corpus::Complexity;

    #[test]
    fn all_twelve_have_positive_complexity() {
        let stimuli = stimulus_complexities();
        assert_eq!(stimuli.len(), 12);
        for s in &stimuli {
            assert!(s.sql_words > 10, "{}: {} words", s.question.id, s.sql_words);
            assert!(
                s.diagram_elements > 5,
                "{}: {} elements",
                s.question.id,
                s.diagram_elements
            );
            assert!(s.choice_words > 20);
        }
    }

    #[test]
    fn complex_questions_outrank_simple_ones() {
        // §6.1 designates complexity "based on the number of joins and
        // number of table aliases referenced in the query" — check that
        // criterion within each category.
        let stimuli = stimulus_complexities();
        for cat_questions in stimuli.chunks(3) {
            let rank = |s: &StimulusComplexity| s.joins + s.table_refs;
            let simple = cat_questions
                .iter()
                .find(|s| s.question.complexity == Complexity::Simple)
                .unwrap();
            let complex = cat_questions
                .iter()
                .find(|s| s.question.complexity == Complexity::Complex)
                .unwrap();
            assert!(
                rank(complex) > rank(simple),
                "{}: {} vs {}: {}",
                complex.question.id,
                rank(complex),
                simple.question.id,
                rank(simple)
            );
        }
    }

    #[test]
    fn print_complexity_table() {
        // Not an assertion test: documents the measured stimulus space
        // (visible with `cargo test -- --nocapture print_complexity`).
        for s in stimulus_complexities() {
            println!(
                "{:>4}  words={:>3}  elements={:>3}  depth={}  joins={:>2}",
                s.question.id, s.sql_words, s.diagram_elements, s.nesting_depth, s.joins
            );
        }
    }
}
