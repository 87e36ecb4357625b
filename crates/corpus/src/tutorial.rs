//! The six worked examples of the study tutorial (Appendix E).
//!
//! Participants saw a self-paced tutorial (mean time ≈ 3 minutes)
//! introducing the visual notation through six annotated SQL/diagram
//! pairs over the Chinook schema. The SQL is transcribed from the
//! tutorial pages; page 6's query references `T.TrackId` without binding
//! `T` (a paper typo) — fixed here to `IL.TrackId`.

/// One tutorial page: a query, its intended interpretation, and which
/// notational feature the page introduces.
#[derive(Debug, Clone)]
pub struct TutorialExample {
    /// Tutorial page number (3–9 of the 10-page deck).
    pub page: usize,
    pub title: &'static str,
    pub sql: &'static str,
    /// The interpretation printed under the diagram in the tutorial.
    pub interpretation: &'static str,
    /// True if the page shows the ∀-simplified diagram of its query.
    pub uses_forall: bool,
}

/// All six tutorial examples in page order.
pub fn tutorial_examples() -> Vec<TutorialExample> {
    vec![
        TutorialExample {
            page: 3,
            title: "Basic conjunctive query",
            sql: "SELECT T.TrackId FROM Track T WHERE T.UnitPrice > 2",
            interpretation: "Find TrackId of Tracks whose UnitPrice is greater than 2.",
            uses_forall: false,
        },
        TutorialExample {
            page: 5,
            title: "Basic query with joins",
            sql: "SELECT T.TrackId\n\
                  FROM Track T, PlaylistTrack PT, Playlist P, Genre G\n\
                  WHERE T.GenreId = G.GenreId\n\
                  AND T.TrackId = PT.TrackId\n\
                  AND PT.PlaylistId = P.PlaylistId\n\
                  AND G.Name <> P.Name",
            interpretation: "Find the TrackId of Tracks that are in some Playlist whose name \
                             is different from the Genre of the Track.",
            uses_forall: false,
        },
        TutorialExample {
            page: 6,
            title: "Group By queries with aggregates",
            sql: "SELECT IL.TrackId, SUM(IL.Quantity)\n\
                  FROM InvoiceLine IL, Invoice I\n\
                  WHERE IL.InvoiceId = I.InvoiceId\n\
                  AND I.CustomerId = 123\n\
                  GROUP BY IL.TrackId",
            interpretation: "For each TrackId find the total sale quantity bought by the \
                             customer with ID = 123.",
            uses_forall: false,
        },
        TutorialExample {
            page: 7,
            title: "Basic nested (NOT EXISTS) query",
            sql: "SELECT AL.AlbumId, AL.Title\n\
                  FROM Album AL\n\
                  WHERE NOT EXISTS\n\
                  (SELECT *\n\
                  FROM Track T, MediaType MT\n\
                  WHERE AL.AlbumId = T.AlbumId\n\
                  AND T.MediaTypeId = MT.MediaTypeId\n\
                  AND MT.Name = 'ACC audio file')",
            interpretation: "Find AlbumId and Title of Albums for which no Track is available \
                             as 'ACC audio file' MediaType.",
            uses_forall: false,
        },
        TutorialExample {
            page: 8,
            title: "Double-nested SQL query",
            sql: "SELECT A.Name, A.ArtistId\n\
                  FROM Artist A\n\
                  WHERE NOT EXISTS\n\
                  (SELECT *\n\
                  FROM Album AL\n\
                  WHERE AL.ArtistId = A.ArtistId\n\
                  AND NOT EXISTS\n\
                  (SELECT *\n\
                  FROM Track T, MediaType MT\n\
                  WHERE AL.AlbumId = T.AlbumId\n\
                  AND T.MediaTypeId = MT.MediaTypeId\n\
                  AND MT.Name = 'ACC audio file'))",
            interpretation: "Find Name and ArtistId of Artists who have no Album that does not \
                             have any Track whose MediaType name is 'ACC audio file'.",
            uses_forall: false,
        },
        TutorialExample {
            page: 9,
            title: "Double-nested query with the FOR-ALL simplification",
            sql: "SELECT A.Name, A.ArtistId\n\
                  FROM Artist A\n\
                  WHERE NOT EXISTS\n\
                  (SELECT *\n\
                  FROM Album AL\n\
                  WHERE AL.ArtistId = A.ArtistId\n\
                  AND NOT EXISTS\n\
                  (SELECT *\n\
                  FROM Track T, MediaType MT\n\
                  WHERE AL.AlbumId = T.AlbumId\n\
                  AND T.MediaTypeId = MT.MediaTypeId\n\
                  AND MT.Name = 'ACC audio file'))",
            interpretation: "Find Name and ArtistId of Artists for whom all their Albums \
                             contain at least one Track whose MediaType name is 'ACC audio \
                             file'.",
            uses_forall: true,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemas::chinook_schema;
    use queryvis_sql::{parse_and_check, Names};

    #[test]
    fn six_examples_in_page_order() {
        let examples = tutorial_examples();
        assert_eq!(examples.len(), 6);
        for w in examples.windows(2) {
            assert!(w[0].page < w[1].page);
        }
    }

    #[test]
    fn all_examples_parse_and_check() {
        let schema = chinook_schema();
        for ex in tutorial_examples() {
            parse_and_check(ex.sql, &mut Names::new(), &schema)
                .unwrap_or_else(|e| panic!("tutorial page {}: {e}", ex.page));
        }
    }

    #[test]
    fn pages_8_and_9_share_sql_but_differ_in_rendering() {
        let examples = tutorial_examples();
        let p8 = examples.iter().find(|e| e.page == 8).unwrap();
        let p9 = examples.iter().find(|e| e.page == 9).unwrap();
        assert_eq!(p8.sql, p9.sql);
        assert!(!p8.uses_forall);
        assert!(p9.uses_forall);
    }

    #[test]
    fn feature_coverage() {
        // The tutorial demonstrates, in order: selection predicates,
        // non-equijoins, grouping, single nesting, and double nesting —
        // everything the test questions need.
        let examples = tutorial_examples();
        assert!(examples[0].sql.contains("> 2"));
        assert!(examples[1].sql.contains("<>"));
        assert!(examples[2].sql.contains("GROUP BY"));
        assert!(examples[3].sql.contains("NOT EXISTS"));
        assert_eq!(examples[4].sql.matches("NOT EXISTS").count(), 2);
    }
}
