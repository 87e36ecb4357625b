//! The paper's flagship example (Fig. 1): the *unique-set query* — find
//! drinkers who like a unique set of beers — traced through every stage of
//! the pipeline, exactly as Appendix A describes it.
//!
//! Run with: `cargo run --example unique_set`

use queryvis::corpus::{beers_schema, unique_set_sql};
use queryvis::{QueryVis, QueryVisOptions};

fn main() {
    let schema = beers_schema();

    // Stage 1: parse + validate (Fig. 8, step "Valid SQL Query").
    let qv = QueryVis::with_schema(unique_set_sql(), &schema).unwrap();
    println!("== Fig. 1a: the SQL ==\n{}\n", qv.sql);

    // Stage 2: TRC / logic tree (Figs. 9a, 10a).
    println!("== Fig. 9a: tuple relational calculus ==\n{}\n", qv.trc());
    let names = qv.names();
    println!("== Fig. 10a: logic tree ==\n{}", names.show(&qv.logic_tree));

    // Stage 3: the optional ∀ simplification (Figs. 9b, 10b).
    println!(
        "== Fig. 10b: simplified logic tree ==\n{}",
        names.show(&qv.simplified)
    );

    // Stage 4: the diagram (Figs. 1b, 12).
    println!("== Fig. 1b: the diagram ==\n{}", qv.ascii());

    // The reading order of footnote 1: L1 -> L2 -> L3 -> L4, restart L5 -> L6.
    println!("== Reading ==\n{}\n", qv.reading());

    // Both diagram variants as SVG (Fig. 12a uses the unsimplified tree).
    let raw = QueryVis::with_options(
        unique_set_sql(),
        QueryVisOptions {
            schema: Some(schema),
            no_simplify: true,
            ..QueryVisOptions::default()
        },
    )
    .unwrap();
    let dir = std::env::temp_dir();
    std::fs::write(dir.join("unique_set_fig12a.svg"), raw.svg()).unwrap();
    std::fs::write(dir.join("unique_set_fig12b.svg"), qv.svg()).unwrap();
    println!(
        "SVGs written to {} (fig12a = nested NOT-EXISTS, fig12b = with FOR-ALL)",
        dir.display()
    );

    // And the inverse: the diagram alone determines the logic tree (§5).
    let recovered = queryvis::recover_logic_tree(qv.raw_diagram()).unwrap();
    assert!(qv
        .logic_tree
        .structural_eq(qv.names(), &recovered, qv.names()));
    println!("\nInverse check: the diagram maps back to exactly one logic tree ✓");
}
