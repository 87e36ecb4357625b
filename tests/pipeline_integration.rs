//! Cross-crate integration: every query in the corpus must flow through
//! the complete pipeline (parse → validate → translate → simplify →
//! diagram → layout → SVG/DOT/ASCII) and satisfy the structural
//! invariants of each stage.

use queryvis::corpus::{
    beers_schema, chinook_schema, pattern_grid, qonly_sql, qsome_sql, qualification_questions,
    sailors_only_variants, study_questions, unique_set_sql,
};
use queryvis::QueryVis;
use queryvis_layout::layout_diagram;
use queryvis_sql::Schema;

/// Every (sql, schema) pair the paper mentions.
fn full_corpus() -> Vec<(String, Schema)> {
    let mut corpus: Vec<(String, Schema)> = Vec::new();
    let beers = beers_schema();
    corpus.push((unique_set_sql().to_string(), beers.clone()));
    corpus.push((qsome_sql().to_string(), beers.clone()));
    corpus.push((qonly_sql().to_string(), beers.clone()));
    let chinook = chinook_schema();
    for q in study_questions() {
        corpus.push((q.sql.to_string(), chinook.clone()));
    }
    for q in qualification_questions() {
        corpus.push((q.sql.to_string(), chinook.clone()));
    }
    for q in pattern_grid() {
        corpus.push((q.sql.clone(), q.schema.clone()));
    }
    for v in sailors_only_variants() {
        corpus.push((v.to_string(), queryvis::corpus::sailors_schema()));
    }
    corpus
}

#[test]
fn full_corpus_runs_end_to_end() {
    let corpus = full_corpus();
    assert!(
        corpus.len() >= 30,
        "expected a rich corpus, got {}",
        corpus.len()
    );
    for (sql, schema) in &corpus {
        let qv = QueryVis::with_schema(sql, schema)
            .unwrap_or_else(|e| panic!("pipeline failed on:\n{sql}\n{e}"));
        assert!(qv.svg().contains("</svg>"));
        assert!(qv.dot().starts_with("digraph"));
        assert!(!qv.ascii().is_empty());
        assert!(qv.reading().starts_with("Return"));
    }
}

#[test]
fn diagram_invariants_hold_for_full_corpus() {
    for (sql, schema) in &full_corpus() {
        let qv = QueryVis::with_schema(sql, schema).unwrap();
        let d = &qv.diagram;
        // The structural validator must find nothing (both variants).
        assert!(
            queryvis::diagram::verify_diagram(d).is_empty(),
            "defects in:\n{sql}"
        );
        assert!(
            queryvis::diagram::verify_diagram(qv.raw_diagram()).is_empty(),
            "defects in raw diagram of:\n{sql}"
        );
        // Table ids are their indices.
        for (i, table) in d.tables.iter().enumerate() {
            assert_eq!(table.id, i);
        }
        // Exactly one SELECT table.
        assert_eq!(d.tables.iter().filter(|t| t.is_select).count(), 1);
        assert!(d.tables[d.select_table].is_select);
        // Edge endpoints reference valid rows.
        for edge in &d.edges {
            for end in [edge.from, edge.to] {
                assert!(end.table < d.tables.len(), "{sql}");
                assert!(
                    end.row < d.tables[end.table].rows.len(),
                    "edge references a missing row in:\n{sql}\n{}",
                    qv.names().show(d)
                );
            }
        }
        // Boxes are non-empty and pairwise disjoint.
        let mut seen = std::collections::HashSet::new();
        for qbox in &d.boxes {
            assert!(!qbox.tables.is_empty());
            for &t in &qbox.tables {
                assert!(seen.insert(t), "table {t} in two boxes:\n{sql}");
                assert!(!d.tables[t].is_select);
            }
        }
    }
}

#[test]
fn layout_invariants_hold_for_full_corpus() {
    for (sql, schema) in &full_corpus() {
        let qv = QueryVis::with_schema(sql, schema).unwrap();
        let layout = layout_diagram(&qv.diagram, qv.names());
        assert_eq!(layout.tables.len(), qv.diagram.tables.len());
        // No overlapping tables.
        for i in 0..layout.tables.len() {
            for j in (i + 1)..layout.tables.len() {
                assert!(
                    !layout.tables[i].rect.intersects(&layout.tables[j].rect),
                    "overlap in:\n{sql}"
                );
            }
        }
        // Boxes contain their tables.
        for bl in &layout.boxes {
            for &tid in &qv.diagram.boxes[bl.box_index].tables {
                let tr = layout.table(tid).rect;
                assert!(bl.rect.x <= tr.x && bl.rect.right() >= tr.right(), "{sql}");
                assert!(
                    bl.rect.y <= tr.y && bl.rect.bottom() >= tr.bottom(),
                    "{sql}"
                );
            }
        }
    }
}

#[test]
fn reading_orders_cover_all_tables() {
    for (sql, schema) in &full_corpus() {
        let qv = QueryVis::with_schema(sql, schema).unwrap();
        let steps = queryvis::diagram::reading_order(&qv.diagram);
        // Every non-select table appears exactly once.
        let mut seen = std::collections::HashSet::new();
        for step in &steps {
            assert!(
                seen.insert(step.table),
                "duplicate table in reading:\n{sql}"
            );
        }
        assert_eq!(
            seen.len(),
            qv.diagram.tables.len() - 1,
            "reading misses tables in:\n{sql}"
        );
    }
}

#[test]
fn svg_escapes_special_characters() {
    // AC/DC and <> labels must not break the SVG.
    let qv = QueryVis::with_schema(
        "SELECT A.Name FROM Artist A, Album AL \
         WHERE A.ArtistId = AL.ArtistId AND A.Name = 'AC/DC' AND A.ArtistId <> AL.AlbumId",
        &chinook_schema(),
    )
    .unwrap();
    let svg = qv.svg();
    assert!(svg.contains("AC/DC"));
    assert!(!svg.contains("<>"), "raw <> must be escaped in SVG text");
    assert!(svg.contains("&lt;&gt;"));
}

#[test]
fn deterministic_outputs() {
    let (sql, schema) = (unique_set_sql(), beers_schema());
    let a = QueryVis::with_schema(sql, &schema).unwrap();
    let b = QueryVis::with_schema(sql, &schema).unwrap();
    assert_eq!(a.svg(), b.svg());
    assert_eq!(a.dot(), b.dot());
    assert_eq!(a.ascii(), b.ascii());
    assert_eq!(a.reading(), b.reading());
}
