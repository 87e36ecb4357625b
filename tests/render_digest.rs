//! Render-digest byte-identity test: every geometric artifact the service
//! writes, folded into one FNV-1a digest per format over a fixed input
//! set, compared with constants recorded before the writers were
//! rewritten for speed.
//!
//! The goldens pin three hand-picked diagrams; this pins hundreds. The
//! inputs are the paper corpus, one shadowed-alias query (the inner `a`
//! repeats the outer alias, which exercises the repeated-path counter of
//! mark ids), and a fixed-seed `sqlgen` draw from the widened grammar.
//! Per input it digests the ascii, svg, scene_json and scene_json_v2
//! bytes of the composed scene, plus the scene-diff patch from the
//! previous input's scene, so a change to any number or text writer, or
//! to any mark id, moves a constant.
//!
//! The draw also has to reach coordinates whose shortest `{}` form has
//! more than one decimal (for example `…39999999999998`): the goldens
//! have none, and they are where a fast number writer must fall back to
//! `core::fmt`.
//!
//! An intentional visual change re-records the constants: run
//! `cargo test --test render_digest -- --nocapture` and copy the printed
//! digests.

use proptest::sqlgen::{gen_query, GenConfig};
use proptest::test_runner::TestRng;
use queryvis::layout::{Mark, Scene};
use queryvis::render::{to_ascii, to_svg, SvgTheme};
use queryvis::QueryVis;
use queryvis_service::{
    diff_scenes, paper_corpus_requests, scene_json, scene_json_v2, write_patch_ops,
};

/// The widened grammar at the paper's nesting bound of 3.
const DRAW: GenConfig = GenConfig {
    max_depth: 3,
    max_tables: 3,
    max_preds: 3,
    with_or: true,
    with_union: true,
    with_having: true,
};
/// Queries drawn; at least [`MIN_DRAWN`] of them must compile.
const DRAW_CASES: u64 = 600;
const MIN_DRAWN: usize = 500;

const SHADOWED_ALIAS: &str =
    "SELECT a.x FROM T a WHERE NOT EXISTS (SELECT * FROM U a WHERE a.y = 1)";

/// Digests recorded before the writer rewrite.
const EXPECTED: [(&str, u64); 5] = [
    ("ascii", 0x5057903e70cf8f08),
    ("svg", 0x38b07d500b195010),
    ("scene_json", 0x05b3db3e2adbb1ea),
    ("scene_json_v2", 0x6bc6daf782e97632),
    ("patch", 0xca0128900ad5c59e),
];

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, then a 0xff separator (no artifact contains it:
/// all are UTF-8), so adjacent artifacts cannot trade bytes unnoticed.
fn fold(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes.iter().chain(&[0xff]) {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV64_PRIME);
    }
}

fn inputs() -> Vec<String> {
    let mut sqls: Vec<String> = paper_corpus_requests(&[])
        .into_iter()
        .map(|r| r.sql)
        .collect();
    sqls.push(SHADOWED_ALIAS.to_string());
    for case in 0..DRAW_CASES {
        let mut rng = TestRng::for_case("render_digest", case);
        sqls.push(gen_query(&DRAW, &mut rng).canonical());
    }
    sqls
}

/// Every coordinate a scene writer prints.
fn coordinates(scene: &Scene) -> Vec<f64> {
    let mut out = vec![scene.width, scene.height];
    out.extend(scene.badges.iter().map(|b| b.y_mid));
    for branch in &scene.branches {
        out.extend([branch.dy, branch.width, branch.height]);
        for mark in &branch.marks {
            match mark {
                Mark::Rect(r) => out.extend([r.rect.x, r.rect.y, r.rect.w, r.rect.h, r.radius]),
                Mark::Text(t) => out.extend([t.anchor.x, t.anchor.y]),
                Mark::Edge(e) => out.extend([
                    e.from.x,
                    e.from.y,
                    e.to.x,
                    e.to.y,
                    e.label_pos.x,
                    e.label_pos.y,
                ]),
            }
        }
    }
    out
}

fn long_decimal(value: f64) -> bool {
    format!("{value}")
        .split_once('.')
        .is_some_and(|(_, frac)| frac.len() > 1)
}

#[test]
fn rendered_bytes_match_recorded_digests() {
    let theme = SvgTheme::default();
    let mut digests = [FNV64_OFFSET; 5];
    let (mut compiled, mut patches, mut long_coordinates) = (0usize, 0usize, 0usize);
    let mut previous: Option<std::sync::Arc<Scene>> = None;
    let mut patch = String::new();
    for sql in inputs() {
        let Ok(qv) = QueryVis::from_sql(&sql) else {
            continue;
        };
        compiled += 1;
        let scene = qv.scene();
        fold(&mut digests[0], to_ascii(&scene).as_bytes());
        fold(&mut digests[1], to_svg(&scene, &theme).as_bytes());
        fold(&mut digests[2], scene_json(&scene).as_bytes());
        fold(&mut digests[3], scene_json_v2(&scene).as_bytes());
        patch.clear();
        if let Some(ops) = previous.as_ref().and_then(|old| diff_scenes(old, &scene)) {
            write_patch_ops(&mut patch, &ops);
            patches += usize::from(!ops.is_empty());
        }
        fold(&mut digests[4], patch.as_bytes());
        long_coordinates += coordinates(&scene)
            .into_iter()
            .filter(|&v| long_decimal(v))
            .count();
        previous = Some(scene);
    }

    let corpus = paper_corpus_requests(&[]).len();
    assert!(
        compiled >= corpus + 1 + MIN_DRAWN,
        "only {compiled} inputs compiled"
    );
    assert!(
        long_coordinates > 0,
        "the draw no longer reaches a coordinate with a long `{{}}` form"
    );
    assert!(patches > 0, "no consecutive scenes diffed to a patch");
    for ((name, _), actual) in EXPECTED.iter().zip(digests) {
        println!("(\"{name}\", {actual:#018x}),");
    }
    println!(
        "{compiled} inputs compiled, {patches} patches, \
         {long_coordinates} long-decimal coordinates"
    );
    let actual: Vec<(&str, u64)> = EXPECTED.iter().map(|(n, _)| *n).zip(digests).collect();
    assert_eq!(actual, EXPECTED, "rendered bytes drifted");
}
