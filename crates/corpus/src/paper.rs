//! The paper's running example queries (Figs. 1, 3, 23–26).

use crate::schemas::{actors_schema, sailors_schema, students_schema};
use queryvis_sql::Schema;

/// The unique-set query of Fig. 1a: *find drinkers who like a unique set of
/// beers* — the paper's flagship depth-3 example.
pub fn unique_set_sql() -> &'static str {
    "SELECT L1.drinker\n\
     FROM Likes L1\n\
     WHERE NOT EXISTS(\n\
       SELECT *\n\
       FROM Likes L2\n\
       WHERE L1.drinker <> L2.drinker\n\
       AND NOT EXISTS(\n\
         SELECT *\n\
         FROM Likes L3\n\
         WHERE L3.drinker = L2.drinker\n\
         AND NOT EXISTS(\n\
           SELECT *\n\
           FROM Likes L4\n\
           WHERE L4.drinker = L1.drinker\n\
           AND L4.beer = L3.beer))\n\
       AND NOT EXISTS(\n\
         SELECT *\n\
         FROM Likes L5\n\
         WHERE L5.drinker = L1.drinker\n\
         AND NOT EXISTS(\n\
           SELECT *\n\
           FROM Likes L6\n\
           WHERE L6.drinker = L2.drinker\n\
           AND L6.beer = L5.beer)))"
}

/// Fig. 3a — Qsome: *find persons who frequent some bar that serves some
/// drink they like* (a plain conjunctive query).
pub fn qsome_sql() -> &'static str {
    "SELECT F.person\n\
     FROM Frequents F, Likes L, Serves S\n\
     WHERE F.person = L.person\n\
     AND F.bar = S.bar\n\
     AND L.drink = S.drink"
}

/// Fig. 3b — Qonly: *find persons who frequent some bar that serves only
/// drinks they like* (double-negated nesting).
pub fn qonly_sql() -> &'static str {
    "SELECT F.person\n\
     FROM Frequents F\n\
     WHERE not exists\n\
       (SELECT *\n\
        FROM Serves S\n\
        WHERE S.bar = F.bar\n\
        AND not exists\n\
          (SELECT L.drink\n\
           FROM Likes L\n\
           WHERE L.person = F.person\n\
           AND S.drink = L.drink))"
}

/// Fig. 24 — three syntactically different but semantically equivalent SQL
/// queries for "sailors who reserve only red boats". All three map to the
/// same logic tree and hence the same diagram.
pub fn sailors_only_variants() -> [&'static str; 3] {
    [
        // NOT EXISTS / NOT EXISTS
        "SELECT S.sname FROM Sailor S WHERE NOT EXISTS(\n\
           SELECT * FROM Reserves R WHERE R.sid = S.sid AND NOT EXISTS(\n\
             SELECT * FROM Boat B WHERE B.color = 'red' AND R.bid = B.bid))",
        // NOT IN / NOT IN
        "SELECT S.sname FROM Sailor S WHERE S.sid NOT IN(\n\
           SELECT R.sid FROM Reserves R WHERE R.bid NOT IN(\n\
             SELECT B.bid FROM Boat B WHERE B.color = 'red'))",
        // NOT = ANY / NOT = ANY
        "SELECT S.sname FROM Sailor S WHERE NOT S.sid = ANY(\n\
           SELECT R.sid FROM Reserves R WHERE NOT R.bid = ANY(\n\
             SELECT B.bid FROM Boat B WHERE B.color = 'red'))",
    ]
}

/// The three logical patterns of Appendix G (Figs. 23/25).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternKind {
    /// "… reserve **no** red boat": ∄ · ∃.
    No,
    /// "… reserve **only** red boats": ∄ · ∄ (≡ ∀ · ∃).
    Only,
    /// "… reserve **all** red boats": ∄ · ∄ with the blocks swapped.
    All,
}

/// One cell of the Appendix G pattern grid: a pattern applied to a schema.
#[derive(Debug, Clone)]
pub struct PatternQuery {
    pub kind: PatternKind,
    pub schema: Schema,
    /// Human description, e.g. "sailors who reserve only red boats".
    pub description: String,
    pub sql: String,
}

struct GridSchema {
    schema: fn() -> Schema,
    entity: &'static str,          // Sailor
    entity_attr: &'static str,     // sname
    entity_key: &'static str,      // sid
    link: &'static str,            // Reserves
    link_entity_key: &'static str, // sid
    link_target_key: &'static str, // bid
    target: &'static str,          // Boat
    target_key: &'static str,      // bid
    filter_attr: &'static str,     // color
    filter_value: &'static str,    // red
    noun: &'static str,
    verb: &'static str,
    object: &'static str,
}

const GRID: [GridSchema; 3] = [
    GridSchema {
        schema: sailors_schema,
        entity: "Sailor",
        entity_attr: "sname",
        entity_key: "sid",
        link: "Reserves",
        link_entity_key: "sid",
        link_target_key: "bid",
        target: "Boat",
        target_key: "bid",
        filter_attr: "color",
        filter_value: "red",
        noun: "sailors",
        verb: "reserve",
        object: "red boats",
    },
    GridSchema {
        schema: students_schema,
        entity: "Student",
        entity_attr: "sname",
        entity_key: "sid",
        link: "Takes",
        link_entity_key: "sid",
        link_target_key: "cid",
        target: "Class",
        target_key: "cid",
        filter_attr: "department",
        filter_value: "art",
        noun: "students",
        verb: "take",
        object: "art classes",
    },
    GridSchema {
        schema: actors_schema,
        entity: "Actor",
        entity_attr: "aname",
        entity_key: "aid",
        link: "Casts",
        link_entity_key: "aid",
        link_target_key: "mid",
        target: "Movie",
        target_key: "mid",
        filter_attr: "director",
        filter_value: "Hitchcock",
        noun: "actors",
        verb: "play in",
        object: "movies by Hitchcock",
    },
];

/// The full 3 × 3 grid of Appendix G: {no, only, all} × {sailors,
/// students, actors}, transcribed from Fig. 25. Each pattern produces the
/// same canonical diagram across schemas.
pub fn pattern_grid() -> Vec<PatternQuery> {
    let mut grid = Vec::with_capacity(9);
    for gs in &GRID {
        for kind in [PatternKind::No, PatternKind::Only, PatternKind::All] {
            grid.push(build_pattern(gs, kind));
        }
    }
    grid
}

fn build_pattern(gs: &GridSchema, kind: PatternKind) -> PatternQuery {
    let GridSchema {
        entity,
        entity_attr,
        entity_key,
        link,
        link_entity_key,
        link_target_key,
        target,
        target_key,
        filter_attr,
        filter_value,
        noun,
        verb,
        object,
        ..
    } = gs;
    // Single-letter aliases matching Fig. 25: E(ntity), L(ink), T(arget).
    let (sql, wording) = match kind {
        PatternKind::No => (
            format!(
                "SELECT E.{entity_attr} FROM {entity} E WHERE NOT EXISTS(\n\
                   SELECT * FROM {link} L WHERE L.{link_entity_key} = E.{entity_key} AND EXISTS(\n\
                     SELECT * FROM {target} T WHERE T.{filter_attr} = '{filter_value}' \
                      AND L.{link_target_key} = T.{target_key}))"
            ),
            format!("{noun} who {verb} no {object}"),
        ),
        PatternKind::Only => (
            format!(
                "SELECT E.{entity_attr} FROM {entity} E WHERE NOT EXISTS(\n\
                   SELECT * FROM {link} L WHERE L.{link_entity_key} = E.{entity_key} AND NOT EXISTS(\n\
                     SELECT * FROM {target} T WHERE T.{filter_attr} = '{filter_value}' \
                      AND L.{link_target_key} = T.{target_key}))"
            ),
            format!("{noun} who {verb} only {object}"),
        ),
        PatternKind::All => (
            format!(
                "SELECT E.{entity_attr} FROM {entity} E WHERE NOT EXISTS(\n\
                   SELECT * FROM {target} T WHERE T.{filter_attr} = '{filter_value}' AND NOT EXISTS(\n\
                     SELECT * FROM {link} L WHERE L.{link_target_key} = T.{target_key} \
                      AND L.{link_entity_key} = E.{entity_key}))"
            ),
            format!("{noun} who {verb} all {object}"),
        ),
    };
    PatternQuery {
        kind,
        schema: (gs.schema)(),
        description: wording,
        sql,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use queryvis_logic::translate;
    use queryvis_sql::{parse_query, Names};

    #[test]
    fn grid_has_nine_cells() {
        let grid = pattern_grid();
        assert_eq!(grid.len(), 9);
        let only: Vec<&PatternQuery> = grid
            .iter()
            .filter(|q| q.kind == PatternKind::Only)
            .collect();
        assert_eq!(only.len(), 3);
    }

    #[test]
    fn fig24_variants_have_identical_logic_trees() {
        let fps: Vec<String> = sailors_only_variants()
            .iter()
            .map(|sql| {
                let mut names = Names::new();
                let query = parse_query(sql, &mut names).unwrap();
                let tree = translate(&query, None, &mut names).unwrap();
                tree.fingerprint(&names)
            })
            .collect();
        assert_eq!(fps[0], fps[1]);
        assert_eq!(fps[1], fps[2]);
    }

    #[test]
    fn no_vs_only_differ_in_inner_quantifier() {
        let grid = pattern_grid();
        let no = grid
            .iter()
            .find(|q| q.kind == PatternKind::No && q.schema.name == "sailors")
            .unwrap();
        let only = grid
            .iter()
            .find(|q| q.kind == PatternKind::Only && q.schema.name == "sailors")
            .unwrap();
        assert!(no.sql.contains("AND EXISTS"));
        assert!(only.sql.contains("AND NOT EXISTS"));
    }

    #[test]
    fn unique_set_is_depth_three() {
        let q = parse_query(unique_set_sql(), &mut Names::new()).unwrap();
        assert_eq!(q.nesting_depth(), 3);
        assert_eq!(q.table_ref_count(), 6);
    }

    #[test]
    fn descriptions_are_human_readable() {
        let grid = pattern_grid();
        assert!(grid
            .iter()
            .any(|q| q.description == "sailors who reserve only red boats"));
        assert!(grid
            .iter()
            .any(|q| q.description == "actors who play in all movies by Hitchcock"));
    }
}
