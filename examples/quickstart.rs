//! Quickstart: turn a nested SQL query into a QueryVis diagram.
//!
//! Run with: `cargo run --example quickstart`

use queryvis::QueryVis;

fn main() {
    // Fig. 3b of the paper: "find persons who frequent some bar that
    // serves only drinks they like" — a correlated double-negation that is
    // notoriously hard to read as SQL.
    let sql = "SELECT F.person
FROM Frequents F
WHERE NOT EXISTS
  (SELECT *
   FROM Serves S
   WHERE S.bar = F.bar
   AND NOT EXISTS
     (SELECT L.drink
      FROM Likes L
      WHERE L.person = F.person
      AND S.drink = L.drink))";

    let qv = QueryVis::from_sql(sql).expect("query is in the supported fragment");

    println!("== SQL ==\n{sql}\n");
    println!("== Tuple relational calculus ==\n{}\n", qv.trc());
    println!(
        "== Logic tree (after the FOR-ALL simplification) ==\n{}",
        qv.names().show(&qv.simplified)
    );
    println!("== Diagram ==\n{}", qv.ascii());
    println!("== Reading ==\n{}\n", qv.reading());

    let stats = qv.stats();
    println!(
        "The diagram uses {} visual elements ({} tables, {} rows, {} edges, {} boxes).",
        stats.visual_elements(),
        stats.tables,
        stats.rows,
        stats.edges,
        stats.boxes
    );

    let svg_path = std::env::temp_dir().join("queryvis_quickstart.svg");
    std::fs::write(&svg_path, qv.svg()).unwrap();
    println!("SVG written to {}", svg_path.display());
}
