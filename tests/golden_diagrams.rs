//! Golden structural tests: the exact diagrams of the paper's figures.

use queryvis::corpus::{beers_schema, chinook_schema, study_questions, unique_set_sql};
use queryvis::logic::Quantifier;
use queryvis::{QueryVis, QueryVisOptions};

/// Fig. 6 shows study question Q10 in the `Both` condition; its diagram
/// contains the SELECT table (ArtistId, Name), Artist, and a dashed box
/// around {Album, Track}.
#[test]
fn fig6_q10_diagram_structure() {
    let q10 = study_questions()
        .into_iter()
        .find(|q| q.id == "Q10")
        .unwrap();
    let qv = QueryVis::with_schema(q10.sql, &chinook_schema()).unwrap();
    let d = &qv.diagram;
    let names = qv.names();

    // 3 base tables + SELECT.
    assert_eq!(d.tables.len(), 4);
    let select = &d.tables[d.select_table];
    let select_cols: Vec<&str> = select
        .rows
        .iter()
        .map(|r| names.resolve(r.column))
        .collect();
    assert_eq!(select_cols, vec!["ArtistId", "Name"]);

    // One dashed box holding Album and Track together.
    assert_eq!(d.boxes.len(), 1);
    assert_eq!(d.boxes[0].quantifier, Quantifier::NotExists);
    let boxed: Vec<&str> = d.boxes[0]
        .tables
        .iter()
        .map(|&t| names.resolve(d.tables[t].name))
        .collect();
    assert_eq!(boxed, vec!["Album", "Track"]);

    // Artist is outside any box.
    let artist = d.table_by_alias(names.get("A").unwrap()).unwrap();
    assert!(d.box_of(artist.id).is_none());

    // Edges: 2 SELECT edges + 3 join predicates.
    assert_eq!(d.edges.len(), 5);
    // The A.ArtistId = AL.ArtistId join is drawn Artist → Album (Δ=1).
    let album = d.table_by_alias(names.get("AL").unwrap()).unwrap();
    assert!(d
        .edges
        .iter()
        .any(|e| e.directed && e.from.table == artist.id && e.to.table == album.id));
}

/// Fig. 1b's full structural census.
#[test]
fn fig1b_unique_set_census() {
    let qv = QueryVis::with_options(
        unique_set_sql(),
        QueryVisOptions {
            schema: Some(beers_schema()),
            no_simplify: true,
            ..QueryVisOptions::default()
        },
    )
    .unwrap();
    let d = &qv.diagram;
    let names = qv.names();
    assert_eq!(d.tables.len(), 7); // L1..L6 + SELECT
    assert_eq!(d.boxes.len(), 5); // L2..L6 each in a ∄ box
    assert_eq!(d.edges.len(), 8); // 7 joins + 1 select edge
    assert_eq!(d.edges.iter().filter(|e| e.directed).count(), 7);
    assert_eq!(d.edges.iter().filter(|e| e.label.is_some()).count(), 1);

    // Row census: L1, L2 show only `drinker`; L3..L6 show drinker + beer.
    for alias in ["L1", "L2"] {
        let t = d.table_by_binding(names.get(alias).unwrap()).unwrap();
        let cols: Vec<&str> = t.rows.iter().map(|r| names.resolve(r.column)).collect();
        assert_eq!(cols, vec!["drinker"], "{alias}");
    }
    for alias in ["L3", "L4", "L5", "L6"] {
        let t = d.table_by_binding(names.get(alias).unwrap()).unwrap();
        let mut cols: Vec<&str> = t.rows.iter().map(|r| names.resolve(r.column)).collect();
        cols.sort_unstable();
        assert_eq!(cols, vec!["beer", "drinker"], "{alias}");
    }
}

/// Fig. 12b: the simplified unique-set diagram — L3/L5 in ∀ boxes, L4/L6
/// unboxed.
#[test]
fn fig12b_simplified_unique_set() {
    let qv = QueryVis::with_schema(unique_set_sql(), &beers_schema()).unwrap();
    let d = &qv.diagram;
    let names = qv.names();
    assert_eq!(d.boxes.len(), 3); // L2 ∄; L3 ∀; L5 ∀
    let quant_of = |alias: &str| {
        let id = d.table_by_binding(names.get(alias).unwrap()).unwrap().id;
        d.box_of(id).map(|b| b.quantifier)
    };
    assert_eq!(quant_of("L2"), Some(Quantifier::NotExists));
    assert_eq!(quant_of("L3"), Some(Quantifier::ForAll));
    assert_eq!(quant_of("L5"), Some(Quantifier::ForAll));
    assert_eq!(quant_of("L4"), None);
    assert_eq!(quant_of("L6"), None);
}

// ---------- widened fragment (ISSUE 4): one golden per new construct ----------

/// `JOIN … ON` desugars to the implicit form: the two syntaxes build the
/// *same* diagram, structure and rows included.
#[test]
fn join_on_golden_matches_implicit_join() {
    let explicit = QueryVis::with_schema(
        "SELECT F.person FROM Frequents F JOIN Serves S ON F.bar = S.bar \
         WHERE S.drink = 'IPA'",
        &beers_schema(),
    )
    .unwrap();
    let implicit = QueryVis::with_schema(
        "SELECT F.person FROM Frequents F, Serves S \
         WHERE F.bar = S.bar AND S.drink = 'IPA'",
        &beers_schema(),
    )
    .unwrap();
    // Both queries lex their names in the same order, so their tables
    // agree id for id and the diagrams compare field by field.
    assert_eq!(explicit.names(), implicit.names());
    assert_eq!(explicit.diagram, implicit.diagram);
    let d = &explicit.diagram;
    let names = explicit.names();
    assert_eq!(d.tables.len(), 3); // F, S, SELECT
    assert_eq!(d.boxes.len(), 0);
    let serves = d.table_by_binding(names.get("S").unwrap()).unwrap();
    assert!(serves
        .rows
        .iter()
        .any(|r| r.display(names) == "drink = 'IPA'"));
}

/// A negative-polarity OR splits into *sibling ∄-groups*: one dashed box
/// per disjunct, each holding its own copy of the subquery table.
#[test]
fn or_splits_into_sibling_groups_golden() {
    let qv = QueryVis::with_options(
        "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
         (SELECT * FROM Serves S WHERE S.bar = F.bar AND \
          (S.drink = 'IPA' OR S.drink = 'Stout'))",
        QueryVisOptions {
            schema: Some(beers_schema()),
            no_simplify: true,
            ..QueryVisOptions::default()
        },
    )
    .unwrap();
    let d = &qv.diagram;
    let names = qv.names();
    assert!(!qv.is_union(), "negative OR stays one diagram");
    // Two sibling ∄ boxes, each with one Serves table.
    assert_eq!(d.boxes.len(), 2);
    assert!(d
        .boxes
        .iter()
        .all(|b| b.quantifier == Quantifier::NotExists));
    assert!(d.boxes.iter().all(|b| b.tables.len() == 1));
    let serves: Vec<_> = d
        .tables
        .iter()
        .filter(|t| names.resolve(t.name) == "Serves")
        .collect();
    assert_eq!(serves.len(), 2, "one Serves copy per disjunct");
    // Each copy carries its disjunct's selection row.
    let mut selections: Vec<String> = serves
        .iter()
        .flat_map(|t| t.rows.iter())
        .filter(|r| matches!(r.kind, queryvis::diagram::RowKind::Selection { .. }))
        .map(|r| r.display(names))
        .collect();
    selections.sort();
    assert_eq!(selections, vec!["drink = 'IPA'", "drink = 'Stout'"]);
}

/// HAVING attaches to the grouping block: a highlighted row on the SELECT
/// table, wired to the aggregated source attribute.
#[test]
fn having_golden() {
    let qv = QueryVis::from_sql(
        "SELECT T.AlbumId, COUNT(T.TrackId) FROM Track T \
         GROUP BY T.AlbumId HAVING COUNT(T.TrackId) > 2",
    )
    .unwrap();
    let d = &qv.diagram;
    let names = qv.names();
    let select = &d.tables[d.select_table];
    let having_row = select
        .rows
        .iter()
        .find(|r| matches!(r.kind, queryvis::diagram::RowKind::Having { .. }))
        .expect("HAVING row on the SELECT table");
    assert_eq!(having_row.display(names), "COUNT(TrackId) > 2");
    // The HAVING row connects (undirected) to the source attribute.
    let having_idx = select
        .rows
        .iter()
        .position(|r| matches!(r.kind, queryvis::diagram::RowKind::Having { .. }))
        .unwrap();
    assert!(qv
        .diagram
        .edges
        .iter()
        .any(|e| !e.directed && e.from.table == d.select_table && e.from.row == having_idx));
    // The reading reports it as a group-level condition.
    assert!(
        qv.reading()
            .contains("keeping only groups where COUNT(TrackId) > 2"),
        "{}",
        qv.reading()
    );
}

/// A 2-branch UNION compiles to one diagram per branch plus a union badge
/// in every artifact.
#[test]
fn union_two_branch_golden() {
    let qv = QueryVis::with_schema(
        "SELECT F.person FROM Frequents F WHERE F.bar = 'Owl' \
         UNION \
         SELECT L.person FROM Likes L WHERE L.beer = 'IPA'",
        &beers_schema(),
    )
    .unwrap();
    assert!(qv.is_union());
    assert!(!qv.union_all);
    assert_eq!(qv.diagrams().len(), 2);
    // Each branch: one base table + its own SELECT table.
    for d in qv.diagrams() {
        assert_eq!(d.tables.len(), 2);
        assert_eq!(d.boxes.len(), 0);
    }
    assert_eq!(qv.rest.len(), 1);
    assert_eq!(
        qv.names().resolve(qv.rest[0].diagram.tables[0].name),
        "Likes"
    );
    // Badges in every artifact.
    let ascii = qv.ascii();
    assert!(ascii.contains("UNION"), "{ascii}");
    assert!(
        ascii.contains("Frequents") && ascii.contains("Likes"),
        "{ascii}"
    );
    let svg = qv.svg();
    assert_eq!(svg.matches("<svg").count(), 1, "one combined document");
    assert!(svg.contains(">UNION</text>"), "svg badge missing");
    let dot = qv.dot();
    assert!(dot.contains("label=\"UNION\""), "{dot}");
    assert!(dot.contains("cluster_branch_0") && dot.contains("cluster_branch_1"));
    // A positive-polarity OR over one table is the same pattern as the
    // equivalent written UNION (the equivalence the lowering implements).
    let by_or = QueryVis::with_schema(
        "SELECT F.person FROM Frequents F WHERE F.bar = 'Owl' OR F.bar = 'Tap'",
        &beers_schema(),
    )
    .unwrap();
    let by_union = QueryVis::with_schema(
        "SELECT F.person FROM Frequents F WHERE F.bar = 'Owl' \
         UNION SELECT F.person FROM Frequents F WHERE F.bar = 'Tap'",
        &beers_schema(),
    )
    .unwrap();
    assert_eq!(by_or.pattern(), by_union.pattern());
    // UNION ALL is a different pattern (and a different badge).
    let by_union_all = QueryVis::with_schema(
        "SELECT F.person FROM Frequents F WHERE F.bar = 'Owl' \
         UNION ALL SELECT F.person FROM Frequents F WHERE F.bar = 'Tap'",
        &beers_schema(),
    )
    .unwrap();
    assert_ne!(by_union.pattern(), by_union_all.pattern());
    assert!(by_union_all.ascii().contains("UNION ALL"));
}

/// The ASCII golden for Qsome (Fig. 2a) — small enough to pin exactly.
#[test]
fn fig2a_ascii_golden() {
    let qv = QueryVis::with_schema(
        "SELECT F.person FROM Frequents F, Likes L, Serves S \
         WHERE F.person = L.person AND F.bar = S.bar AND L.drink = S.drink",
        &beers_schema(),
    )
    .unwrap();
    let ascii = qv.ascii();
    for expected in [
        "| SELECT",
        "| Frequents (F)",
        "| Likes (L)",
        "| Serves (S)",
        "F.person --- L.person",
        "F.bar --- S.bar",
        "L.drink --- S.drink",
        "SELECT.person --- F.person",
    ] {
        assert!(
            ascii.contains(expected),
            "missing `{expected}` in:\n{ascii}"
        );
    }
}
