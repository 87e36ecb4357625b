//! Render-digest byte-identity test: every geometric artifact the service
//! writes, folded into one FNV-1a digest per format over a fixed input
//! set, compared with constants recorded before the writers were
//! rewritten for speed.
//!
//! The goldens pin three hand-picked diagrams; this pins hundreds. The
//! inputs are the paper corpus, one shadowed-alias query (the inner `a`
//! repeats the outer alias, which exercises the repeated-path counter of
//! mark ids), fixed queries with long labels, and a fixed-seed `sqlgen`
//! draw from the widened grammar.
//! Per input it digests the ascii, svg, scene_json and scene_json_v2
//! bytes of the composed scene, plus the scene-diff patch from the
//! previous input's scene, so a change to any number or text writer, or
//! to any mark id, moves a constant.
//!
//! The draw's labels are short: a title, row text or edge endpoint past 22
//! bytes, the most a mark's text holds inline, is rare in it. The long-label inputs pin that side on purpose: a
//! long string literal, table name, alias, `alias.column` endpoint and
//! HAVING row, a label of exactly 22 bytes, and one whose 22nd byte falls
//! inside a multi-byte char.
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

/// Labels longer than 22 bytes, and the lengths on either side of it.
const LONG_LABELS: [&str; 7] = [
    // A selection row with a long string literal.
    "SELECT B.bid FROM Boat B WHERE B.color = 'a rather long literal past the inline bound'",
    // A long table name.
    "SELECT R.a FROM ReservationsArchiveOfTheYear R",
    // Long `alias.column` edge endpoints, on both sides of an edge.
    "SELECT Reservation.customerIdentifier FROM Reservations Reservation, Customers C \
     WHERE Reservation.customerIdentifier = C.identifier",
    // A long HAVING row.
    "SELECT O.customer, SUM(O.amount) FROM Orders O GROUP BY O.customer \
     HAVING SUM(O.totalAmount) >= 1000000",
    // A 22-byte title, a 22-byte row (`x = '…'`) and a 23-byte row.
    "SELECT T.a FROM TwentyTwoByteTableName T \
     WHERE T.x = 'abcdefghijklmnop' AND T.y = 'abcdefghijklmnopq'",
    // 21 ASCII bytes, then `é` across the 22nd and 23rd.
    "SELECT T.a FROM T WHERE T.x = 'abcdefghijklmnop\u{e9}'",
    // A long alias in a quantified title annotation and an endpoint.
    "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
     (SELECT * FROM Serves ServesWithALongAlias WHERE ServesWithALongAlias.bar = F.bar)",
];

/// Digests recorded before the writer rewrite, and re-recorded on that
/// code when the long-label inputs were added.
const EXPECTED: [(&str, u64); 5] = [
    ("ascii", 0xe851732be41cba68),
    ("svg", 0x0c12e65826a383c1),
    ("scene_json", 0x66f2f0c9cc1cdd22),
    ("scene_json_v2", 0x001583612417a7e4),
    ("patch", 0x335329030fed4e15),
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
    sqls.extend(LONG_LABELS.map(str::to_string));
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

/// Every label of the scene's marks longer than 22 bytes.
fn long_labels(scene: &Scene) -> usize {
    let long = |text: &str| usize::from(text.len() > 22);
    scene
        .marks()
        .map(|(mark, _)| match mark {
            Mark::Rect(_) => 0,
            Mark::Text(t) => long(&t.text),
            Mark::Edge(e) => {
                long(&e.from_text) + long(&e.to_text) + e.label.as_deref().map_or(0, long)
            }
        })
        .sum()
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
    let mut long_labels_seen = 0usize;
    let mut previous: Option<std::sync::Arc<Scene>> = None;
    let mut patch = String::new();
    for sql in inputs() {
        let Ok(qv) = QueryVis::from_sql(&sql) else {
            assert!(
                !LONG_LABELS.contains(&sql.as_str()),
                "{sql} does not compile"
            );
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
        long_labels_seen += long_labels(&scene);
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
    assert!(
        long_labels_seen >= 15,
        "only {long_labels_seen} labels are longer than 22 bytes"
    );
    for ((name, _), actual) in EXPECTED.iter().zip(digests) {
        println!("(\"{name}\", {actual:#018x}),");
    }
    println!(
        "{compiled} inputs compiled, {patches} patches, \
         {long_coordinates} long-decimal coordinates, {long_labels_seen} labels past 22 bytes"
    );
    let actual: Vec<(&str, u64)> = EXPECTED.iter().map(|(n, _)| *n).zip(digests).collect();
    assert_eq!(actual, EXPECTED, "rendered bytes drifted");
}
