//! Property-based tests (proptest) over the core data structures:
//! parser/printer round-trips on generated ASTs, statistics invariants,
//! and diagram/inverse invariants on generated logic trees.

use proptest::prelude::*;
use queryvis::diagram::{build_diagram, diagram_stats};
use queryvis::logic::{simplify, translate, Quantifier};
use queryvis_sql::ast::*;
use queryvis_sql::{parse_query, printer::to_sql, Names};

// ---------- generators ----------

fn ident() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9_]{0,6}".prop_filter("not a keyword", |s| {
        queryvis_sql::token::Keyword::lookup(s).is_none()
    })
}

/// A generated operand before interning: a column of alias `T{t}` (by
/// index into the generated column names), a number or a string.
#[derive(Debug, Clone)]
enum GenOperand {
    Column(usize, usize),
    Number(u32),
    Str(String),
}

fn value() -> impl Strategy<Value = GenOperand> {
    prop_oneof![
        (0u32..100000).prop_map(GenOperand::Number),
        "[a-zA-Z0-9 /]{1,10}".prop_map(GenOperand::Str),
    ]
}

fn compare_op() -> impl Strategy<Value = CompareOp> {
    prop_oneof![
        Just(CompareOp::Lt),
        Just(CompareOp::Le),
        Just(CompareOp::Eq),
        Just(CompareOp::Ne),
        Just(CompareOp::Ge),
        Just(CompareOp::Gt),
    ]
}

/// A random flat (conjunctive) query block over aliases T0..Tk, with the
/// name table its symbols live in.
fn conjunctive_query(max_tables: usize) -> impl Strategy<Value = (Query, Names)> {
    (1..=max_tables, proptest::collection::vec(ident(), 1..=4)).prop_flat_map(
        move |(n_tables, columns)| {
            let col = (0..n_tables, 0..columns.len()).prop_map(|(t, c)| GenOperand::Column(t, c));
            let predicate = (col.clone(), compare_op(), prop_oneof![col.clone(), value()]);
            (col, proptest::collection::vec(predicate, 0..5)).prop_map(
                move |(select_col, preds)| {
                    let mut names = Names::new();
                    let mut operand = |o: &GenOperand| match o {
                        GenOperand::Column(t, c) => Operand::Column(ColumnRef::new(
                            names.intern(&format!("T{t}")),
                            names.intern(&columns[*c]),
                        )),
                        GenOperand::Number(n) => {
                            Operand::Value(Value::Number(names.intern(&n.to_string())))
                        }
                        GenOperand::Str(s) => Operand::Value(Value::Str(names.intern(s))),
                    };
                    let Operand::Column(select) = operand(&select_col) else {
                        unreachable!("the select item is a column")
                    };
                    let where_clause = preds
                        .iter()
                        .map(|(l, op, r)| Predicate::Compare {
                            lhs: operand(l),
                            op: *op,
                            rhs: operand(r),
                        })
                        .collect();
                    let tables = (0..n_tables)
                        .map(|i| {
                            let table = names.intern(&format!("Rel{i}"));
                            TableRef::aliased(table, names.intern(&format!("T{i}")))
                        })
                        .collect();
                    let mut q =
                        Query::new(SelectList::Items(vec![SelectItem::Column(select)]), tables);
                    q.where_clause = where_clause;
                    (q, names)
                },
            )
        },
    )
}

// ---------- parser / printer ----------

/// Every name symbol of a query, resolved through `resolve`, in a fixed
/// traversal order (select list, FROM, WHERE recursive, GROUP BY).
fn resolved_names(query: &Query, resolve: &dyn Fn(queryvis_sql::Symbol) -> String) -> Vec<String> {
    fn column(
        c: &ColumnRef,
        resolve: &dyn Fn(queryvis_sql::Symbol) -> String,
        out: &mut Vec<String>,
    ) {
        if let Some(t) = c.table {
            out.push(resolve(t));
        }
        out.push(resolve(c.column));
    }
    fn operand(
        o: &Operand,
        resolve: &dyn Fn(queryvis_sql::Symbol) -> String,
        out: &mut Vec<String>,
    ) {
        match o {
            Operand::Column(c) => column(c, resolve, out),
            Operand::Value(Value::Number(s)) | Operand::Value(Value::Str(s)) => {
                out.push(resolve(*s))
            }
        }
    }
    fn walk(
        query: &Query,
        resolve: &dyn Fn(queryvis_sql::Symbol) -> String,
        out: &mut Vec<String>,
    ) {
        for item in query.select.items() {
            match item {
                SelectItem::Column(c) => column(c, resolve, out),
                SelectItem::Aggregate(agg) => {
                    if let Some(c) = &agg.arg {
                        column(c, resolve, out);
                    }
                }
            }
        }
        for table in &query.from {
            out.push(resolve(table.table));
            if let Some(alias) = table.alias {
                out.push(resolve(alias));
            }
        }
        fn pred_names(
            pred: &Predicate,
            resolve: &dyn Fn(queryvis_sql::Symbol) -> String,
            out: &mut Vec<String>,
        ) {
            match pred {
                Predicate::Compare { lhs, rhs, .. } => {
                    operand(lhs, resolve, out);
                    operand(rhs, resolve, out);
                }
                Predicate::Exists { query, .. } => walk(query, resolve, out),
                Predicate::InSubquery {
                    column: c, query, ..
                }
                | Predicate::Quantified {
                    column: c, query, ..
                } => {
                    column(c, resolve, out);
                    walk(query, resolve, out);
                }
                Predicate::Or(branches) => {
                    for branch in branches {
                        for pred in branch {
                            pred_names(pred, resolve, out);
                        }
                    }
                }
            }
        }
        for pred in &query.where_clause {
            pred_names(pred, resolve, out);
        }
        for c in &query.group_by {
            column(c, resolve, out);
        }
    }
    let mut out = Vec::new();
    walk(query, resolve, &mut out);
    out
}

/// Assert that parsing `printed` through two *fresh* name tables (one of
/// them pre-polluted so id assignment orders diverge) resolves every name
/// to `expected`: symbol resolution is a function of the source text,
/// never of id order.
fn assert_symbol_resolution_stable(printed: &str, expected: &[String]) {
    let mut fresh = Names::new();
    let mut polluted = Names::new();
    for i in 0..17 {
        polluted.intern(&format!("unrelated_name_{i}"));
    }
    let fresh_ast = parse_query(printed, &mut fresh).unwrap();
    let polluted_ast = parse_query(printed, &mut polluted).unwrap();
    let fresh_names = resolved_names(&fresh_ast, &|s| fresh.resolve(s).to_string());
    let polluted_names = resolved_names(&polluted_ast, &|s| polluted.resolve(s).to_string());
    assert_eq!(expected, fresh_names, "fresh table diverged:\n{printed}");
    assert_eq!(
        expected, polluted_names,
        "polluted table diverged:\n{printed}"
    );
}

proptest! {
    #[test]
    fn printer_parser_roundtrip(generated in conjunctive_query(4)) {
        let (query, mut names) = generated;
        // Re-parsed into the generating table, so equal ASTs mean equal
        // names.
        let printed = to_sql(&query, &names);
        let reparsed = parse_query(&printed, &mut names)
            .unwrap_or_else(|e| panic!("re-parse failed: {e}\n{printed}"));
        prop_assert_eq!(query, reparsed);
    }

    #[test]
    fn symbol_resolution_stable_across_fresh_interners(generated in conjunctive_query(4)) {
        let (query, names) = generated;
        // parse(print(ast)) round-trips through tables with entirely
        // different id assignments; the resolved names must be identical.
        let expected = resolved_names(&query, &|s| names.resolve(s).to_string());
        assert_symbol_resolution_stable(&to_sql(&query, &names), &expected);
    }

    #[test]
    fn nested_corpus_symbol_resolution_stable(index in 0usize..39) {
        // The proptest generator is conjunctive-only; run the same
        // stability check over the (nested, grouped, quantified) paper
        // corpus so every predicate shape crosses a fresh interner.
        let corpus = queryvis_service::paper_corpus_requests(&[]);
        let request = &corpus[index % corpus.len()];
        let mut names = Names::new();
        let query = parse_query(&request.sql, &mut names).unwrap();
        let expected = resolved_names(&query, &|s| names.resolve(s).to_string());
        assert_symbol_resolution_stable(&to_sql(&query, &names), &expected);
    }

    #[test]
    fn word_count_positive_and_stable(generated in conjunctive_query(3)) {
        let (query, names) = generated;
        let w1 = queryvis_sql::metrics::word_count(&query, &names);
        let mut fresh = Names::new();
        let reparsed = parse_query(&to_sql(&query, &names), &mut fresh).unwrap();
        let w2 = queryvis_sql::metrics::word_count(&reparsed, &fresh);
        prop_assert!(w1 >= 4);
        prop_assert_eq!(w1, w2);
    }
}

// ---------- statistics ----------

proptest! {
    #[test]
    fn bh_adjustment_invariants(ps in proptest::collection::vec(0.0f64..=1.0, 1..12)) {
        let adjusted = queryvis_stats::benjamini_hochberg(&ps);
        prop_assert_eq!(adjusted.len(), ps.len());
        for (a, p) in adjusted.iter().zip(&ps) {
            prop_assert!(*a >= *p - 1e-12);
            prop_assert!(*a <= 1.0 + 1e-12);
        }
        // Monotone: smaller raw p => adjusted no larger.
        let mut pairs: Vec<(f64, f64)> =
            ps.iter().copied().zip(adjusted.iter().copied()).collect();
        pairs.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap());
        for w in pairs.windows(2) {
            prop_assert!(w[0].1 <= w[1].1 + 1e-12);
        }
    }

    #[test]
    fn ranks_sum_invariant(data in proptest::collection::vec(-1e6f64..1e6, 1..50)) {
        let ranks = queryvis_stats::ranks(&data);
        let n = data.len() as f64;
        let sum: f64 = ranks.iter().sum();
        prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn wilcoxon_p_in_unit_interval(
        x in proptest::collection::vec(0.1f64..1000.0, 3..40),
    ) {
        let y: Vec<f64> = x.iter().enumerate()
            .map(|(i, v)| v + if i % 2 == 0 { 5.0 } else { -3.0 })
            .collect();
        if let Some(r) = queryvis_stats::wilcoxon_signed_rank_less(&x, &y) {
            prop_assert!(r.p_value >= 0.0 && r.p_value <= 1.0);
        }
    }

    #[test]
    fn bootstrap_interval_ordered(
        data in proptest::collection::vec(0.0f64..100.0, 5..30),
        seed in 0u64..1000,
    ) {
        // Skip constant samples (degenerate bootstrap).
        prop_assume!(data.windows(2).any(|w| w[0] != w[1]));
        let ci = queryvis_stats::bca_interval(&data, &queryvis_stats::mean, 0.9, 200, seed);
        prop_assert!(ci.lower <= ci.upper + 1e-9);
    }

    #[test]
    fn median_is_order_statistic(data in proptest::collection::vec(-1e3f64..1e3, 1..40)) {
        let m = queryvis_stats::median(&data);
        let below = data.iter().filter(|x| **x <= m + 1e-12).count();
        let above = data.iter().filter(|x| **x >= m - 1e-12).count();
        prop_assert!(below * 2 >= data.len());
        prop_assert!(above * 2 >= data.len());
    }
}

// ---------- diagrams over generated logic trees ----------

proptest! {
    #[test]
    fn diagram_counts_match_tree(seed in 0u64..500) {
        let (tree, _) = queryvis::unambiguity::random_valid_tree(seed);
        let diagram = build_diagram(&tree);
        let stats = diagram_stats(&diagram);
        // One diagram table per binding plus the SELECT table.
        let bindings = tree.bindings().count();
        prop_assert_eq!(stats.tables, bindings + 1);
        // One box per non-root ∄/∀ node.
        let boxed_nodes = tree
            .nodes()
            .filter(|n| !n.is_root() && n.quantifier != Quantifier::Exists)
            .count();
        prop_assert_eq!(stats.boxes, boxed_nodes);
        // Edges = join predicates + select edges.
        let joins: usize = tree.nodes().map(|n| n.joins().count()).sum();
        prop_assert_eq!(stats.edges, joins + tree.select.len());
    }

    #[test]
    fn simplify_never_increases_elements(seed in 0u64..500) {
        let (tree, _) = queryvis::unambiguity::random_valid_tree(seed);
        let raw = diagram_stats(&build_diagram(&tree)).visual_elements();
        let simplified = diagram_stats(&build_diagram(&simplify(&tree))).visual_elements();
        prop_assert!(simplified <= raw);
    }
}

// ---------- translation invariants ----------

proptest! {
    #[test]
    fn translation_preserves_block_counts(generated in conjunctive_query(4)) {
        let (query, mut names) = generated;
        // Flat queries map to a single-node tree with the same table count.
        if let Ok(tree) = translate(&query, None, &mut names) {
            prop_assert_eq!(tree.node_count(), 1);
            prop_assert_eq!(tree.root().tables.len(), query.from.len());
        }
    }
}

// ---------- layout over generated logic trees ----------

proptest! {
    #[test]
    fn layout_never_overlaps_tables(seed in 0u64..300) {
        let (tree, names) = queryvis::unambiguity::random_valid_tree(seed);
        let diagram = build_diagram(&tree);
        let layout = queryvis_layout::layout_diagram(&diagram, &names);
        for i in 0..layout.tables.len() {
            for j in (i + 1)..layout.tables.len() {
                prop_assert!(
                    !layout.tables[i].rect.intersects(&layout.tables[j].rect),
                    "seed {seed}: tables {i}/{j} overlap"
                );
            }
        }
        // Everything inside the canvas.
        for t in &layout.tables {
            prop_assert!(t.rect.x >= 0.0 && t.rect.right() <= layout.width + 1e-6);
            prop_assert!(t.rect.y >= 0.0 && t.rect.bottom() <= layout.height + 1e-6);
        }
    }

    #[test]
    fn svg_escapes_arbitrary_constants(value in "[ -~]{1,20}") {
        // Any printable-ASCII constant must yield well-formed-ish SVG.
        let escaped = value.replace('\'', "''");
        let sql = format!("SELECT B.bid FROM Boat B WHERE B.color = '{escaped}'");
        if let Ok(qv) = queryvis::QueryVis::from_sql(&sql) {
            let svg = qv.svg();
            // No raw angle brackets outside of tags: every `<` opens a
            // known element and the text content is escaped.
            prop_assert_eq!(svg.matches("<text").count(), svg.matches("</text>").count());
            prop_assert!(!svg.contains("<<"));
        }
    }

    #[test]
    fn reading_order_is_a_permutation(seed in 0u64..300) {
        let (tree, _) = queryvis::unambiguity::random_valid_tree(seed);
        let diagram = build_diagram(&tree);
        let steps = queryvis::diagram::reading_order(&diagram);
        let mut seen: Vec<usize> = steps.iter().map(|s| s.table).collect();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), diagram.tables.len() - 1);
    }

    #[test]
    fn decomposition_agrees_with_bruteforce(seed in 300u64..450) {
        let (tree, _) = queryvis::unambiguity::random_valid_tree(seed);
        let diagram = build_diagram(&tree);
        let constructive = queryvis::recovered_depth_by_binding(&diagram).unwrap();
        for node in tree.nodes() {
            for table in &node.tables {
                prop_assert_eq!(constructive[&table.key], node.depth);
            }
        }
    }
}
