//! `scene_json` — the machine-readable diagram export.
//!
//! Serializes the [`Scene`] display-list IR as one JSON document: the
//! format a browser client renders from without running any layout of
//! its own. The writer takes a [`Carrier`]: a `String` receives the
//! document, and the service's cache entries hand it the JSON-escaped
//! carrier, which receives the document as the body of the JSON string
//! literal a reply stores. Keys, punctuation and the role, class and
//! edge-kind names are [`lit!`] constants, whose escaped form exists at
//! compile time; names and labels go through the service's own
//! [`json`](crate::json) layer (`escape_into`, in the carrier's form; no
//! serde in the image), and numbers through `write_u64` and the scene's
//! number writer, [`write_shortest`], which prints each coordinate as
//! `{}` would. The output parses back with
//! [`json::parse`](crate::json::parse), which CI verifies over the whole
//! paper corpus.
//!
//! Document shape (coordinates in diagram px, `y` growing downward):
//!
//! ```json
//! {"v": 1, "w": 640, "h": 480, "union_all": false,
//!  "badges": [{"y": 214, "label": "UNION"}],
//!  "branches": [
//!    {"dy": 0, "w": 640, "h": 200, "marks": [
//!      {"t": "rect", "role": "header", "class": "header_table",
//!       "x": 20, "y": 20, "w": 120, "h": 24, "r": 0},
//!      {"t": "text", "role": "title", "class": "header_table",
//!       "x": 80, "y": 32, "s": "Likes"},
//!      {"t": "edge", "kind": "directed", "x1": 140, "y1": 54,
//!       "x2": 230, "y2": 54, "label": "<>", "lx": 185, "ly": 48,
//!       "from": "F.bar", "to": "S.bar"}
//!    ]}
//!  ]}
//! ```
//!
//! Mark order within a branch is paint order; a client that draws marks
//! in sequence reproduces the SVG backend's stacking.

use crate::json::{escape_into, write_u64};
use queryvis::layout::{
    lit, write_shortest, Carrier, EdgeKind, EdgeMark, Lit, Mark, MarkRole, RectMark, Scene,
    StyleClass, TextMark, TextRole,
};

/// Schema version of the scene_json artifact document.
const VERSION: u64 = 1;

/// Schema version of the session-path document: identical to v1 plus a
/// stable `"id"` per mark — the identity scene-diff patch ops address.
const VERSION_SESSION: u64 = 2;

fn class_name(class: StyleClass) -> Lit {
    match class {
        StyleClass::HeaderTable => lit!("\"header_table\""),
        StyleClass::HeaderSelect => lit!("\"header_select\""),
        StyleClass::Row => lit!("\"row\""),
        StyleClass::RowSelection => lit!("\"row_selection\""),
        StyleClass::RowGroup => lit!("\"row_group\""),
        StyleClass::BoxNotExists => lit!("\"box_not_exists\""),
        StyleClass::BoxForAll => lit!("\"box_for_all\""),
        StyleClass::BoxForAllInner => lit!("\"box_for_all_inner\""),
        StyleClass::Frame => lit!("\"frame\""),
    }
}

fn role_name(role: MarkRole) -> Lit {
    match role {
        MarkRole::Frame => lit!("\"frame\""),
        MarkRole::Header => lit!("\"header\""),
        MarkRole::Row => lit!("\"row\""),
        MarkRole::QuantifierBox => lit!("\"quantifier_box\""),
    }
}

fn text_role_name(role: TextRole) -> Lit {
    match role {
        TextRole::Title => lit!("\"title\""),
        TextRole::TitleAnnotation => lit!("\"title_annotation\""),
        TextRole::RowText => lit!("\"row_text\""),
        TextRole::EdgeLabel => lit!("\"edge_label\""),
    }
}

/// `"id":N,` when the document carries mark ids.
fn write_id<C: Carrier>(out: &mut C, id: u32, with_id: bool) {
    if with_id {
        out.lit(lit!("\"id\":"));
        write_u64(out.plain(), u64::from(id));
        out.plain().push(',');
    }
}

fn write_rect_with<C: Carrier>(out: &mut C, rect: &RectMark, with_id: bool) {
    out.lit(lit!("{\"t\":\"rect\","));
    write_id(out, rect.id, with_id);
    out.lit(lit!("\"role\":"));
    out.lit(role_name(rect.role));
    out.lit(lit!(",\"class\":"));
    out.lit(class_name(rect.class));
    out.lit(lit!(",\"x\":"));
    write_shortest(out.plain(), rect.rect.x);
    out.lit(lit!(",\"y\":"));
    write_shortest(out.plain(), rect.rect.y);
    out.lit(lit!(",\"w\":"));
    write_shortest(out.plain(), rect.rect.w);
    out.lit(lit!(",\"h\":"));
    write_shortest(out.plain(), rect.rect.h);
    out.lit(lit!(",\"r\":"));
    write_shortest(out.plain(), rect.radius);
    out.plain().push('}');
}

fn write_text_with<C: Carrier>(out: &mut C, text: &TextMark, with_id: bool) {
    out.lit(lit!("{\"t\":\"text\","));
    write_id(out, text.id, with_id);
    out.lit(lit!("\"role\":"));
    out.lit(text_role_name(text.role));
    out.lit(lit!(",\"class\":"));
    out.lit(class_name(text.class));
    out.lit(lit!(",\"x\":"));
    write_shortest(out.plain(), text.anchor.x);
    out.lit(lit!(",\"y\":"));
    write_shortest(out.plain(), text.anchor.y);
    out.lit(lit!(",\"s\":"));
    escape_into(out, &text.text);
    out.plain().push('}');
}

fn write_edge_with<C: Carrier>(out: &mut C, edge: &EdgeMark, with_id: bool) {
    out.lit(lit!("{\"t\":\"edge\","));
    write_id(out, edge.id, with_id);
    out.lit(match edge.kind {
        EdgeKind::Directed => lit!("\"kind\":\"directed\""),
        EdgeKind::Undirected => lit!("\"kind\":\"undirected\""),
    });
    out.lit(lit!(",\"x1\":"));
    write_shortest(out.plain(), edge.from.x);
    out.lit(lit!(",\"y1\":"));
    write_shortest(out.plain(), edge.from.y);
    out.lit(lit!(",\"x2\":"));
    write_shortest(out.plain(), edge.to.x);
    out.lit(lit!(",\"y2\":"));
    write_shortest(out.plain(), edge.to.y);
    if let Some(label) = &edge.label {
        out.lit(lit!(",\"label\":"));
        escape_into(out, label);
        out.lit(lit!(",\"lx\":"));
        write_shortest(out.plain(), edge.label_pos.x);
        out.lit(lit!(",\"ly\":"));
        write_shortest(out.plain(), edge.label_pos.y);
    }
    out.lit(lit!(",\"from\":"));
    escape_into(out, &edge.from_text);
    out.lit(lit!(",\"to\":"));
    escape_into(out, &edge.to_text);
    out.plain().push('}');
}

/// Serialize one mark as a v2 (id-carrying) JSON object — shared with the
/// scene-diff writer's `add` ops so patched and full documents agree byte
/// for byte.
pub(crate) fn write_mark_v2(out: &mut String, mark: &Mark) {
    write_mark(out, mark, true);
}

fn write_mark<C: Carrier>(out: &mut C, mark: &Mark, with_id: bool) {
    match mark {
        Mark::Rect(rect) => write_rect_with(out, rect, with_id),
        Mark::Text(text) => write_text_with(out, text, with_id),
        Mark::Edge(edge) => write_edge_with(out, edge, with_id),
    }
}

/// Serialize a scene into `out` (no trailing newline): a `String`, or the
/// JSON-escaped form a service reply stores.
pub fn write_scene_json<C: Carrier>(out: &mut C, scene: &Scene) {
    write_scene_json_with(out, scene, VERSION, false)
}

/// Serialize the session-path v2 document: v1 plus `"id"` per mark.
pub fn write_scene_json_v2(out: &mut String, scene: &Scene) {
    write_scene_json_with(out, scene, VERSION_SESSION, true)
}

fn write_scene_json_with<C: Carrier>(out: &mut C, scene: &Scene, version: u64, with_ids: bool) {
    out.lit(lit!("{\"v\":"));
    write_u64(out.plain(), version);
    out.lit(lit!(",\"w\":"));
    write_shortest(out.plain(), scene.width);
    out.lit(lit!(",\"h\":"));
    write_shortest(out.plain(), scene.height);
    out.lit(if scene.union_all {
        lit!(",\"union_all\":true,\"badges\":[")
    } else {
        lit!(",\"union_all\":false,\"badges\":[")
    });
    for (i, badge) in scene.badges.iter().enumerate() {
        if i > 0 {
            out.plain().push(',');
        }
        out.lit(lit!("{\"y\":"));
        write_shortest(out.plain(), badge.y_mid);
        out.lit(lit!(",\"label\":"));
        escape_into(out, &badge.label);
        out.plain().push('}');
    }
    out.lit(lit!("],\"branches\":["));
    for (i, branch) in scene.branches.iter().enumerate() {
        if i > 0 {
            out.plain().push(',');
        }
        out.lit(lit!("{\"dy\":"));
        write_shortest(out.plain(), branch.dy);
        out.lit(lit!(",\"w\":"));
        write_shortest(out.plain(), branch.width);
        out.lit(lit!(",\"h\":"));
        write_shortest(out.plain(), branch.height);
        out.lit(lit!(",\"marks\":["));
        for (j, mark) in branch.marks.iter().enumerate() {
            if j > 0 {
                out.plain().push(',');
            }
            write_mark(out, mark, with_ids);
        }
        out.plain().push_str("]}");
    }
    out.plain().push_str("]}");
}

/// [`write_scene_json`] into a fresh string.
pub fn scene_json(scene: &Scene) -> String {
    let mut out = String::with_capacity(4096);
    write_scene_json(&mut out, scene);
    out
}

/// [`write_scene_json_v2`] into a fresh string.
pub fn scene_json_v2(scene: &Scene) -> String {
    let mut out = String::with_capacity(4096);
    write_scene_json_v2(&mut out, scene);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use queryvis::QueryVis;

    fn scene_of(sql: &str) -> String {
        scene_json(&QueryVis::from_sql(sql).unwrap().scene())
    }

    #[test]
    fn output_parses_with_own_parser() {
        let text = scene_of(
            "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
             (SELECT * FROM Serves S WHERE S.bar = F.bar)",
        );
        let doc = json::parse(&text).expect("scene_json parses");
        assert_eq!(doc.get("v").and_then(Json::as_u64), Some(1));
        let branches = doc.get("branches").and_then(Json::as_arr).unwrap();
        assert_eq!(branches.len(), 1);
        let marks = branches[0].get("marks").and_then(Json::as_arr).unwrap();
        assert!(marks.len() > 5);
        // A frame, a header, a title, and an edge with resolved endpoints.
        let kinds: Vec<&str> = marks
            .iter()
            .filter_map(|m| m.get("t").and_then(Json::as_str))
            .collect();
        assert!(kinds.contains(&"rect") && kinds.contains(&"text") && kinds.contains(&"edge"));
        assert!(marks.iter().any(|m| {
            m.get("from").and_then(Json::as_str) == Some("F.bar")
                && m.get("to").and_then(Json::as_str) == Some("S.bar")
        }));
    }

    #[test]
    fn union_scene_exports_badges_and_offsets() {
        let text = scene_of(
            "SELECT F.person FROM Frequents F WHERE F.bar = 'Owl' \
             UNION ALL SELECT L.person FROM Likes L WHERE L.beer = 'IPA'",
        );
        let doc = json::parse(&text).unwrap();
        assert_eq!(doc.get("union_all"), Some(&Json::Bool(true)));
        let badges = doc.get("badges").and_then(Json::as_arr).unwrap();
        assert_eq!(badges.len(), 1);
        assert_eq!(
            badges[0].get("label").and_then(Json::as_str),
            Some("UNION ALL")
        );
        let branches = doc.get("branches").and_then(Json::as_arr).unwrap();
        assert_eq!(branches.len(), 2);
        let dy = |i: usize| match branches[i].get("dy") {
            Some(Json::Int(n)) => *n as f64,
            Some(Json::Num(n)) => *n,
            other => panic!("dy missing: {other:?}"),
        };
        assert_eq!(dy(0), 0.0);
        assert!(dy(1) > 0.0);
    }

    #[test]
    fn strings_with_quotes_and_unicode_round_trip() {
        let text = scene_of(r#"SELECT B.bid FROM Boat B WHERE B.name = 'the "Žatec"'"#);
        let doc = json::parse(&text).expect("escaped output parses");
        let branches = doc.get("branches").and_then(Json::as_arr).unwrap();
        let marks = branches[0].get("marks").and_then(Json::as_arr).unwrap();
        assert!(marks.iter().any(|m| {
            m.get("s")
                .and_then(Json::as_str)
                .is_some_and(|s| s.contains(r#"name = 'the "Žatec"'"#))
        }));
    }
}
