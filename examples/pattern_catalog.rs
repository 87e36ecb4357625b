//! Appendix G: the same logical pattern recognized across schemas.
//!
//! QueryVis's central usability claim is that queries with the same
//! *logical pattern* get the same diagram, even across schemas — sailors
//! reserving only red boats, students taking only art classes, and actors
//! playing only in Hitchcock movies all look alike. This example prints
//! the 3 × 3 pattern grid of Fig. 26 and verifies the claim with the
//! canonical-pattern machinery.
//!
//! Run with: `cargo run --example pattern_catalog`

use queryvis::corpus::{pattern_grid, sailors_only_variants, PatternKind};
use queryvis::{canonical_pattern, QueryVis};
use std::collections::HashMap;

fn main() {
    let grid = pattern_grid();
    let mut by_pattern: HashMap<String, Vec<String>> = HashMap::new();

    for cell in &grid {
        let qv = QueryVis::with_schema(&cell.sql, &cell.schema).unwrap();
        println!(
            "---- {} ({:?} over {}) ----",
            cell.description, cell.kind, cell.schema.name
        );
        println!("{}", qv.ascii());
        by_pattern
            .entry(canonical_pattern(&qv.logic_tree, qv.names()))
            .or_default()
            .push(cell.description.clone());
    }

    println!("== Canonical pattern classes ==");
    let mut classes: Vec<(&String, &Vec<String>)> = by_pattern.iter().collect();
    classes.sort_by_key(|(k, _)| k.len());
    for (i, (_, members)) in classes.iter().enumerate() {
        println!("class {}:", i + 1);
        for m in *members {
            println!("    {m}");
        }
    }
    assert_eq!(
        by_pattern.len(),
        3,
        "the 9 queries must collapse into exactly 3 pattern classes"
    );

    // Fig. 24: syntactic variants collapse too.
    let forms: Vec<String> = sailors_only_variants()
        .iter()
        .map(|sql| {
            let qv = QueryVis::from_sql(sql).unwrap();
            canonical_pattern(&qv.logic_tree, qv.names())
        })
        .collect();
    assert!(forms.windows(2).all(|w| w[0] == w[1]));
    println!("\nFig. 24: NOT EXISTS / NOT IN / NOT = ANY all share one pattern ✓");

    let _ = PatternKind::Only; // (documented in the grid printout above)
}
