//! Scene-IR integration tests: golden snapshots and cross-backend
//! consistency.
//!
//! * **SVG byte-identity goldens** — `tests/golden/*.svg` were captured
//!   from the pre-scene renderer; the scene-routed pipeline must
//!   reproduce them byte for byte (EXPERIMENTS.md relies on this).
//! * **Scene snapshots** — `tests/golden/*.scene.json` pin the display
//!   list itself for the canonical paper queries (single-block, nested
//!   ∄-chain, 2-branch UNION).
//! * **ASCII goldens** — `tests/golden/*.ascii` pin the char-cell
//!   projection of the same three scenes byte for byte.
//! * **Backend consistency** — svg and ascii rendered from the *same*
//!   scene agree on table count, row text, and edge endpoints, for every
//!   query of the paper corpus.
//!
//! Regenerate the snapshots after an intentional visual change with
//! `cargo test --test scene_integration -- --ignored regenerate`.

use queryvis::layout::{Mark, MarkRole, TextRole};
use queryvis::render::{to_ascii, to_svg, SvgTheme};
use queryvis::QueryVis;
use queryvis_service::{paper_corpus_requests, scene_json, Format};

/// The canonical queries pinned by goldens: a single-block join query
/// (Fig. 2a), a nested ∄-chain (Qonly, which simplifies to a ∀ box), and
/// a two-branch UNION.
const GOLDEN_CASES: [(&str, &str); 3] = [
    (
        "single_block",
        "SELECT F.person FROM Frequents F, Likes L, Serves S \
          WHERE F.person = L.person AND F.bar = S.bar AND L.drink = S.drink",
    ),
    (
        "nested_chain",
        "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
          (SELECT * FROM Serves S WHERE S.bar = F.bar AND NOT EXISTS \
          (SELECT L.drink FROM Likes L WHERE L.person = F.person AND S.drink = L.drink))",
    ),
    (
        "union_two_branch",
        "SELECT F.person FROM Frequents F WHERE F.bar = 'Owl' \
          UNION SELECT L.person FROM Likes L WHERE L.beer = 'IPA'",
    ),
];

fn golden_path(name: &str, ext: &str) -> String {
    format!("{}/tests/golden/{name}.{ext}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn svg_goldens_are_byte_identical() {
    for (name, sql) in GOLDEN_CASES {
        let golden = std::fs::read_to_string(golden_path(name, "svg"))
            .unwrap_or_else(|e| panic!("{name}.svg golden missing: {e}"));
        let rendered = QueryVis::from_sql(sql).unwrap().svg();
        assert_eq!(
            rendered, golden,
            "{name}: svg output drifted from the pre-scene golden"
        );
    }
}

#[test]
fn scene_snapshots_are_stable() {
    for (name, sql) in GOLDEN_CASES {
        let golden = std::fs::read_to_string(golden_path(name, "scene.json"))
            .unwrap_or_else(|e| panic!("{name}.scene.json golden missing: {e}"));
        let rendered = scene_json(&QueryVis::from_sql(sql).unwrap().scene());
        assert_eq!(
            rendered,
            golden.trim_end(),
            "{name}: scene display list drifted"
        );
    }
}

#[test]
fn ascii_goldens_are_byte_identical() {
    for (name, sql) in GOLDEN_CASES {
        let golden = std::fs::read_to_string(golden_path(name, "ascii"))
            .unwrap_or_else(|e| panic!("{name}.ascii golden missing: {e}"));
        let rendered = QueryVis::from_sql(sql).unwrap().ascii();
        assert_eq!(rendered, golden, "{name}: ascii output drifted");
    }
}

/// Re-capture the scene snapshots (run explicitly after an intentional
/// visual change; the svg goldens are pre-refactor captures and should
/// only change together with an EXPERIMENTS.md note).
#[test]
#[ignore]
fn regenerate() {
    for (name, sql) in GOLDEN_CASES {
        let qv = QueryVis::from_sql(sql).unwrap();
        std::fs::write(golden_path(name, "svg"), qv.svg()).unwrap();
        std::fs::write(golden_path(name, "ascii"), qv.ascii()).unwrap();
        let mut scene = scene_json(&qv.scene());
        scene.push('\n');
        std::fs::write(golden_path(name, "scene.json"), scene).unwrap();
    }
}

/// svg and ascii are walkers over the same scene: they must agree on what
/// they draw. Checked across the whole paper corpus.
#[test]
fn svg_and_ascii_agree_on_scene_content() {
    for request in paper_corpus_requests(&[Format::Ascii]) {
        let qv = QueryVis::from_sql(&request.sql)
            .unwrap_or_else(|e| panic!("corpus query {}: {e}", request.id));
        let scene = qv.scene();
        let svg = to_svg(&scene, &SvgTheme::default());
        let ascii = to_ascii(&scene);

        // Table count: one header band per table in svg; ascii draws each
        // table box with 3 border rules of 2 `+` corners each.
        let frames = scene
            .marks()
            .filter(|(m, _)| matches!(m, Mark::Rect(r) if r.role == MarkRole::Frame))
            .count();
        assert_eq!(
            svg.matches(r#"class="header""#).count(),
            frames,
            "{}: svg header count",
            request.id
        );
        let plus_count = ascii.matches('+').count();
        assert_eq!(plus_count, frames * 6, "{}: ascii box census", request.id);

        // Row text: every row run appears in both media (svg escapes).
        for (mark, _) in scene.marks() {
            if let Mark::Text(text) = mark {
                if text.role == TextRole::RowText {
                    let escaped = text
                        .text
                        .replace('&', "&amp;")
                        .replace('<', "&lt;")
                        .replace('>', "&gt;")
                        .replace('\'', "&apos;")
                        .replace('"', "&quot;");
                    assert!(
                        svg.contains(&format!(">{escaped}</text>")),
                        "{}: svg misses row {:?}",
                        request.id,
                        text.text
                    );
                    assert!(
                        ascii.contains(text.text.as_str()),
                        "{}: ascii misses row {:?}",
                        request.id,
                        text.text
                    );
                }
            }
        }

        // Edge endpoints: svg draws one line per edge mark at the scene's
        // coordinates; ascii lists the same edges by resolved names.
        let mut svg_lines = 0usize;
        let mut legend_lines = 0usize;
        for (mark, dy) in scene.marks() {
            if let Mark::Edge(edge) = mark {
                svg_lines += 1;
                assert!(
                    svg.contains(&format!(
                        r#"<line x1="{:.1}" y1="{:.1}" x2="{:.1}" y2="{:.1}""#,
                        edge.from.x, edge.from.y, edge.to.x, edge.to.y
                    )),
                    "{}: svg misses edge at scene coordinates (dy {dy})",
                    request.id
                );
                let arrow = if matches!(edge.kind, queryvis::layout::EdgeKind::Directed) {
                    "-->"
                } else {
                    "---"
                };
                let legend = format!("{} {arrow} {}", edge.from_text, edge.to_text);
                assert!(
                    ascii.contains(&legend),
                    "{}: ascii misses edge {legend:?}",
                    request.id
                );
                legend_lines += 1;
            }
        }
        assert_eq!(
            svg.matches(r#"class="edge""#).count(),
            svg_lines,
            "{}",
            request.id
        );
        let _ = legend_lines;
    }
}
