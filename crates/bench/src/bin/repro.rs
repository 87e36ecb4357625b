//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! Usage: `cargo run -p queryvis-bench --bin repro -- <target>` where
//! `<target>` is one of
//!
//! `fig1 fig2 fig5 fig7 fig18 fig19 fig20 fig21 complexity power latin
//!  unambiguity patterns corpus all`
//!
//! Each target prints the same rows/series the paper reports, computed
//! from this repository's implementation (see `EXPERIMENTS.md` for the
//! side-by-side comparison with the paper's numbers).

use queryvis::corpus::{
    beers_schema, chinook_schema, pattern_grid, qonly_sql, qsome_sql, qualification_questions,
    sailors_only_variants, study_questions, unique_set_sql,
};
use queryvis::diagram::diagram_stats;
use queryvis::{canonical_pattern, verify_path_patterns, QueryVis, QueryVisOptions};
use queryvis_bench::{banner, fmt_ci, fmt_ci3, fmt_p, fmt_pct, text_histogram};
use queryvis_study::{
    analyze, classify_participants, exclusion::scatter_points, model::ParticipantKind,
    pilot_power_estimate, population::CANONICAL_SEED, simulate_pilot, simulate_study,
    AnalysisScope, ParticipantClass, StudyAnalysis,
};

fn main() {
    let target = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    match target.as_str() {
        "fig1" => fig1(),
        "fig2" => fig2(),
        "fig5" => fig5(),
        "fig7" => fig7(),
        "fig18" => fig18(),
        "fig19" => fig19(),
        "fig20" => fig20(),
        "fig21" => fig21(),
        "complexity" => complexity(),
        "power" => power(),
        "latin" => latin(),
        "unambiguity" => unambiguity(),
        "patterns" => patterns(),
        "corpus" => corpus(),
        "tutorial" => tutorial(),
        "funnel" => funnel(),
        "all" => {
            fig1();
            fig2();
            fig5();
            complexity();
            latin();
            power();
            unambiguity();
            patterns();
            tutorial();
            funnel();
            corpus();
            fig18();
            fig7();
            fig19();
            fig20();
            fig21();
        }
        other => {
            eprintln!(
                "unknown target `{other}`; expected one of: fig1 fig2 fig5 fig7 fig18 \
                 fig19 fig20 fig21 complexity power latin unambiguity patterns corpus tutorial funnel all"
            );
            std::process::exit(2);
        }
    }
}

/// Fig. 1 (and Figs. 9–12): the unique-set query end to end.
fn fig1() {
    println!("{}", banner("Fig. 1 / Figs. 9-12: the unique-set query"));
    let qv = QueryVis::with_schema(unique_set_sql(), &beers_schema()).unwrap();
    println!("--- SQL (Fig. 1a) ---\n{}", qv.sql);
    println!("\n--- TRC (Fig. 9a) ---\n{}", qv.trc());
    let names = qv.names();
    println!(
        "\n--- Logic tree (Fig. 10a) ---\n{}",
        names.show(&qv.logic_tree)
    );
    println!(
        "--- Simplified logic tree (Fig. 10b) ---\n{}",
        names.show(&qv.simplified)
    );
    println!("--- Diagram (Fig. 1b / Fig. 12b) ---\n{}", qv.ascii());
    println!("--- Reading order (footnote 1) ---\n{}", qv.reading());
    qv.check_unambiguous().unwrap();
    println!("\nunambiguity: non-degenerate, depth <= 3: diagram provably unambiguous");
}

/// Fig. 2: the three reference diagrams of §4.8.
fn fig2() {
    println!("{}", banner("Fig. 2: Qsome / Qonly diagrams"));
    let schema = beers_schema();
    let some = QueryVis::with_schema(qsome_sql(), &schema).unwrap();
    println!("--- (a) Qsome, conjunctive ---\n{}", some.ascii());
    let only_raw = QueryVis::with_options(
        qonly_sql(),
        QueryVisOptions {
            schema: Some(schema.clone()),
            no_simplify: true,
            ..QueryVisOptions::default()
        },
    )
    .unwrap();
    println!(
        "--- (b) Qonly with nested NOT-EXISTS ---\n{}",
        only_raw.ascii()
    );
    let only = QueryVis::with_schema(qonly_sql(), &schema).unwrap();
    println!(
        "--- (c) Qonly with the FOR-ALL simplification ---\n{}",
        only.ascii()
    );
}

/// Fig. 5: logic-tree rendering of the unique-set query.
fn fig5() {
    println!("{}", banner("Fig. 5: logic tree of the unique-set query"));
    let qv = QueryVis::with_schema(unique_set_sql(), &beers_schema()).unwrap();
    println!("{}", qv.names().show(&qv.logic_tree));
}

fn print_study(analysis: &StudyAnalysis, paper: &[&str]) {
    println!("n = {} legitimate participants", analysis.n);
    println!("\ncondition   median time/question       mean error/question");
    for summary in [&analysis.sql, &analysis.qv, &analysis.both] {
        println!(
            "{:<10}  {:<25}  {}",
            summary.condition.label(),
            fmt_ci(&summary.time_ci),
            fmt_ci3(&summary.error_ci),
        );
    }
    println!("\nhypothesis                 measured              paper");
    let rows = [
        ("time:  QV   < SQL", analysis.time_qv_vs_sql),
        ("time:  Both < SQL", analysis.time_both_vs_sql),
        ("error: QV   < SQL", analysis.error_qv_vs_sql),
        ("error: Both < SQL", analysis.error_both_vs_sql),
    ];
    for ((label, h), paper_val) in rows.iter().zip(paper) {
        println!(
            "{label}    {:>7} ({:<10})  {paper_val}",
            fmt_pct(h.percent_change),
            fmt_p(h.p_adjusted),
        );
    }
    println!(
        "\nShapiro-Wilk on raw times (SQL, QV, Both): p = {:.4}, {:.4}, {:.4} \
         -> non-normal, non-parametric tests justified",
        analysis.shapiro_time_p[0], analysis.shapiro_time_p[1], analysis.shapiro_time_p[2]
    );
}

/// Fig. 7: the main study result over the 9 non-grouping questions.
fn fig7() {
    println!(
        "{}",
        banner("Fig. 7: study results, 9 questions (simulated study)")
    );
    let analysis = analyze(&simulate_study(CANONICAL_SEED), AnalysisScope::CoreNine, 7);
    print_study(
        &analysis,
        &[
            "-20%  (p < 0.001)",
            " -1%  (p = 0.30)",
            "-21%  (p = 0.15)",
            "-17%  (p = 0.16)",
        ],
    );
    println!(
        "\nper-participant QV - SQL:  mean dt = {:.1}s (paper -17.3s), median dt = {:.1}s \
         (paper -19.7s), {:.0}% faster with QV (paper 71%)",
        analysis.qv_deltas.mean_time_delta,
        analysis.qv_deltas.median_time_delta,
        analysis.qv_deltas.frac_faster * 100.0
    );
}

/// Fig. 18: the exclusion scatter.
fn fig18() {
    println!(
        "{}",
        banner("Fig. 18: speeders & cheaters among all 80 participants")
    );
    let data = simulate_study(CANONICAL_SEED);
    let points = scatter_points(&data);
    println!("participant  mean t/q   mistakes  class               ground truth");
    for p in &points {
        println!(
            "{:>11}  {:>8.1}  {:>8}  {:<18}  {:?}",
            p.participant,
            p.mean_time,
            p.mistakes,
            format!("{:?}", p.class),
            p.true_kind
        );
    }
    let classes = classify_participants(&data);
    let count = |c: ParticipantClass| classes.iter().filter(|(_, x)| *x == c).count();
    println!(
        "\nfunnel: {} legitimate (paper 42), {} excluded by the 30s rule (paper 34), \
         {} excluded manually (paper 4)",
        count(ParticipantClass::Legitimate),
        count(ParticipantClass::ExcludedByCutoff),
        count(ParticipantClass::ExcludedManually)
    );
    let misclassified = points
        .iter()
        .filter(|p| {
            (p.true_kind == ParticipantKind::Legitimate)
                != (p.class == ParticipantClass::Legitimate)
        })
        .count();
    println!("misclassified vs ground truth: {misclassified}");
}

/// Fig. 19: study results over all 12 questions.
fn fig19() {
    println!(
        "{}",
        banner("Fig. 19: study results, all 12 questions (incl. GROUP BY)")
    );
    let analysis = analyze(
        &simulate_study(CANONICAL_SEED),
        AnalysisScope::AllTwelve,
        19,
    );
    print_study(
        &analysis,
        &[
            "-23%  (p < 0.001)",
            " -5%  (p = 0.35)",
            "-23%  (p = 0.06)",
            "-12%  (p = 0.16)",
        ],
    );
}

fn deltas(scope: AnalysisScope, title: &str, paper: &str) {
    println!("{}", banner(title));
    let analysis = analyze(&simulate_study(CANONICAL_SEED), scope, 20);
    let d = &analysis.qv_deltas;
    println!("QV - SQL time differences (seconds):\n");
    println!("{}", text_histogram(&d.time_deltas, 10, 40));
    println!(
        "mean dt = {:.1}s, median dt = {:.1}s, {:.0}% faster with QV / {:.0}% faster with SQL",
        d.mean_time_delta,
        d.median_time_delta,
        d.frac_faster * 100.0,
        (1.0 - d.frac_faster) * 100.0
    );
    println!("\nQV - SQL error-rate differences:\n");
    println!("{}", text_histogram(&d.error_deltas, 7, 40));
    println!(
        "{:.0}% fewer errors with QV / {:.0}% more / {:.0}% same",
        d.frac_fewer_errors * 100.0,
        d.frac_more_errors * 100.0,
        d.frac_same_errors * 100.0
    );
    println!("\npaper: {paper}");
}

/// Fig. 20: per-participant differences, 9 questions.
fn fig20() {
    deltas(
        AnalysisScope::CoreNine,
        "Fig. 20: QV - SQL per-participant differences (9 questions)",
        "mean dt = -17.3s, median dt = -19.7s, 71%/29% faster; errors 36%/26%/38%",
    );
}

/// Fig. 21: per-participant differences, 12 questions.
fn fig21() {
    deltas(
        AnalysisScope::AllTwelve,
        "Fig. 21: QV - SQL per-participant differences (12 questions)",
        "mean dt = -21.0s, median dt = -17.5s, 76%/24% faster; errors 40%/29%/31%",
    );
}

/// §4.8: the visual-complexity vs word-count comparison.
fn complexity() {
    println!("{}", banner("Section 4.8: minimal visual complexity"));
    let schema = beers_schema();
    let some = QueryVis::with_schema(qsome_sql(), &schema).unwrap();
    let only_raw = QueryVis::with_options(
        qonly_sql(),
        QueryVisOptions {
            schema: Some(schema.clone()),
            no_simplify: true,
            ..QueryVisOptions::default()
        },
    )
    .unwrap();
    let only = QueryVis::with_schema(qonly_sql(), &schema).unwrap();

    let s_some = diagram_stats(&some.diagram);
    let s_raw = diagram_stats(&only_raw.diagram);
    let s_simpl = diagram_stats(&only.diagram);
    let w_some = some.sql_word_count();
    let w_only = only.sql_word_count();

    println!("diagram                 elements   vs Qsome   paper");
    println!(
        "Qsome   (Fig. 2a)       {:>8}       --        --",
        s_some.visual_elements()
    );
    println!(
        "Qonly ne (Fig. 2b)      {:>8}   {:>8}   +13%",
        s_raw.visual_elements(),
        fmt_pct(s_raw.increase_over(&s_some))
    );
    println!(
        "Qonly fa (Fig. 2c)      {:>8}   {:>8}   +7%",
        s_simpl.visual_elements(),
        fmt_pct(s_simpl.increase_over(&s_some))
    );
    println!(
        "\nSQL text words: Qsome = {w_some}, Qonly = {w_only} ({} — paper reports +167% \
         with its own word-counting convention; direction and 'much wordier' shape hold)",
        fmt_pct((w_only as f64 - w_some as f64) / w_some as f64)
    );
}

/// §6.2: the pilot power analysis.
fn power() {
    println!(
        "{}",
        banner("Section 6.2: power analysis on the n = 12 pilot")
    );
    let estimate = pilot_power_estimate(&simulate_pilot(CANONICAL_SEED));
    println!(
        "pilot means: SQL = {:.1}s, QV = {:.1}s, pooled sd = {:.1}s",
        estimate.mean_sql, estimate.mean_qv, estimate.pooled_sd
    );
    println!(
        "one-tailed, alpha = 5%, power = 90%: n = {} per group -> {} total, \
         rounded up to a multiple of 6: n = {}   (paper: n = 84)",
        estimate.required_per_group, estimate.required_total, estimate.rounded_total
    );
}

/// §6.1: the Latin-square design.
fn latin() {
    println!(
        "{}",
        banner("Section 6.1: Latin-square condition sequences")
    );
    let labels = ["SQL", "QV", "Both"];
    for (i, seq) in queryvis_stats::condition_sequences().iter().enumerate() {
        let names: Vec<&str> = seq.iter().map(|&c| labels[c]).collect();
        println!("S{}: {}", i + 1, names.join(" -> "));
    }
    println!("\nround-robin over 42 participants: 7 per sequence;");
    println!("each participant sees each condition 3x over 9 questions (4x over 12).");
}

/// §5 / Appendix B: Proposition 5.1.
fn unambiguity() {
    println!(
        "{}",
        banner("Prop. 5.1 / Appendix B: unambiguity verification")
    );
    let results = verify_path_patterns();
    println!("all 16 valid depth-3 path patterns:");
    for v in &results {
        let edges: Vec<String> = v.pattern.edges.iter().map(|e| format!("{e:?}")).collect();
        println!(
            "  family {:<7} edges {{{}}}: {}",
            v.pattern.family,
            edges.join(","),
            if v.unambiguous { "unique ok" } else { "FAILED" }
        );
    }
    let ok = results.iter().filter(|v| v.unambiguous).count();
    println!("\n{ok}/16 path patterns recover a unique logic tree");

    let mut roundtrips = 0;
    for seed in 0..200 {
        let (tree, names) = queryvis::unambiguity::random_valid_tree(seed);
        let diagram = queryvis::diagram::build_diagram(&tree);
        if let Ok(recovered) = queryvis::recover_logic_tree(&diagram) {
            if tree.structural_eq(&names, &recovered, &names) {
                roundtrips += 1;
            }
        }
    }
    println!("{roundtrips}/200 random non-degenerate branching trees round-trip uniquely");
}

/// Appendix G: the pattern grid.
fn patterns() {
    println!(
        "{}",
        banner("Appendix G / Figs. 23-26: logical patterns across schemas")
    );
    let grid = pattern_grid();
    println!("pattern x schema -> canonical form (identical within a row):\n");
    for kind in [
        queryvis::corpus::PatternKind::No,
        queryvis::corpus::PatternKind::Only,
        queryvis::corpus::PatternKind::All,
    ] {
        let row: Vec<&queryvis::corpus::PatternQuery> =
            grid.iter().filter(|q| q.kind == kind).collect();
        let forms: Vec<String> = row
            .iter()
            .map(|q| {
                let qv = QueryVis::with_schema(&q.sql, &q.schema).unwrap();
                canonical_pattern(&qv.logic_tree, qv.names())
            })
            .collect();
        let all_equal = forms.windows(2).all(|w| w[0] == w[1]);
        println!(
            "{:?}: {} | {} | {}  -> identical: {}",
            kind, row[0].schema.name, row[1].schema.name, row[2].schema.name, all_equal
        );
    }
    println!("\nFig. 24: three syntactic variants of 'only red boats':");
    let forms: Vec<String> = sailors_only_variants()
        .iter()
        .map(|sql| {
            let qv = QueryVis::from_sql(sql).unwrap();
            canonical_pattern(&qv.logic_tree, qv.names())
        })
        .collect();
    println!(
        "NOT EXISTS == NOT IN == NOT =ANY : {}",
        forms[0] == forms[1] && forms[1] == forms[2]
    );
}

/// Appendix D/F: the study corpus summary.
fn corpus() {
    println!("{}", banner("Appendix D/F: study corpus"));
    let schema = chinook_schema();
    println!("12 study questions:");
    for q in study_questions() {
        let qv = QueryVis::with_schema(q.sql, &schema).unwrap();
        let stats = qv.stats();
        println!(
            "  {:>3}  {:<12} {:<8}  words={:>3}  elements={:>3}",
            q.id,
            format!("{:?}", q.category),
            format!("{:?}", q.complexity),
            qv.sql_word_count(),
            stats.visual_elements()
        );
    }
    println!("\n6 qualification questions (pass: >= 4 correct):");
    for q in qualification_questions() {
        let qv = QueryVis::with_schema(q.sql, &schema).unwrap();
        println!(
            "  {:>3}  words={:>3}  elements={:>3}",
            q.id,
            qv.sql_word_count(),
            qv.stats().visual_elements()
        );
    }
}

// ---- appended targets ----

/// Appendix E: the six tutorial examples, rendered.
fn tutorial() {
    println!("{}", banner("Appendix E: the 6-example tutorial"));
    let schema = chinook_schema();
    for ex in queryvis::corpus::tutorial_examples() {
        let qv = QueryVis::with_options(
            ex.sql,
            QueryVisOptions {
                schema: Some(schema.clone()),
                no_simplify: !ex.uses_forall,
                ..QueryVisOptions::default()
            },
        )
        .unwrap();
        println!("--- page {}: {} ---", ex.page, ex.title);
        println!("{}", qv.ascii());
        println!("interpretation: {}\n", ex.interpretation);
    }
}

/// §6.1: the recruitment funnel (710 → 114 → 80 → 42).
fn funnel() {
    println!("{}", banner("Section 6.1: recruitment funnel"));
    let q = queryvis_study::simulate_qualification(CANONICAL_SEED, 710);
    println!(
        "qualification: {} attempted -> {} passed (paper: 710 -> 114), {} started the study",
        q.attempted, q.passed, q.started
    );
    let data = simulate_study(CANONICAL_SEED);
    let classes = classify_participants(&data);
    let legit = classes
        .iter()
        .filter(|(_, c)| *c == ParticipantClass::Legitimate)
        .count();
    println!(
        "study: {} started -> {} legitimate after exclusion (paper: 80 -> 42)",
        data.participants.len(),
        legit
    );
}
