//! `scene_json` — the machine-readable diagram export.
//!
//! Serializes the [`Scene`] display-list IR as one JSON document: the
//! format a browser client renders from without running any layout of
//! its own. The writer is the service's own [`json`](crate::json) layer
//! (`escape_into` + `write_u64` — no serde in the image) plus the scene's
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
    write_shortest, EdgeKind, EdgeMark, Mark, MarkRole, RectMark, Scene, StyleClass, TextMark,
    TextRole,
};

/// Schema version of the scene_json artifact document.
const VERSION: u64 = 1;

/// Schema version of the session-path document: identical to v1 plus a
/// stable `"id"` per mark — the identity scene-diff patch ops address.
const VERSION_SESSION: u64 = 2;

fn class_name(class: StyleClass) -> &'static str {
    match class {
        StyleClass::HeaderTable => "header_table",
        StyleClass::HeaderSelect => "header_select",
        StyleClass::Row => "row",
        StyleClass::RowSelection => "row_selection",
        StyleClass::RowGroup => "row_group",
        StyleClass::BoxNotExists => "box_not_exists",
        StyleClass::BoxForAll => "box_for_all",
        StyleClass::BoxForAllInner => "box_for_all_inner",
        StyleClass::Frame => "frame",
    }
}

fn role_name(role: MarkRole) -> &'static str {
    match role {
        MarkRole::Frame => "frame",
        MarkRole::Header => "header",
        MarkRole::Row => "row",
        MarkRole::QuantifierBox => "quantifier_box",
    }
}

fn text_role_name(role: TextRole) -> &'static str {
    match role {
        TextRole::Title => "title",
        TextRole::TitleAnnotation => "title_annotation",
        TextRole::RowText => "row_text",
        TextRole::EdgeLabel => "edge_label",
    }
}

fn write_rect_with(out: &mut String, rect: &RectMark, with_id: bool) {
    out.push_str("{\"t\":\"rect\",");
    if with_id {
        out.push_str("\"id\":");
        write_u64(out, u64::from(rect.id));
        out.push(',');
    }
    out.push_str("\"role\":");
    escape_into(out, role_name(rect.role));
    out.push_str(",\"class\":");
    escape_into(out, class_name(rect.class));
    out.push_str(",\"x\":");
    write_shortest(out, rect.rect.x);
    out.push_str(",\"y\":");
    write_shortest(out, rect.rect.y);
    out.push_str(",\"w\":");
    write_shortest(out, rect.rect.w);
    out.push_str(",\"h\":");
    write_shortest(out, rect.rect.h);
    out.push_str(",\"r\":");
    write_shortest(out, rect.radius);
    out.push('}');
}

fn write_text_with(out: &mut String, text: &TextMark, with_id: bool) {
    out.push_str("{\"t\":\"text\",");
    if with_id {
        out.push_str("\"id\":");
        write_u64(out, u64::from(text.id));
        out.push(',');
    }
    out.push_str("\"role\":");
    escape_into(out, text_role_name(text.role));
    out.push_str(",\"class\":");
    escape_into(out, class_name(text.class));
    out.push_str(",\"x\":");
    write_shortest(out, text.anchor.x);
    out.push_str(",\"y\":");
    write_shortest(out, text.anchor.y);
    out.push_str(",\"s\":");
    escape_into(out, &text.text);
    out.push('}');
}

fn write_edge_with(out: &mut String, edge: &EdgeMark, with_id: bool) {
    out.push_str("{\"t\":\"edge\",");
    if with_id {
        out.push_str("\"id\":");
        write_u64(out, u64::from(edge.id));
        out.push(',');
    }
    out.push_str("\"kind\":");
    escape_into(
        out,
        match edge.kind {
            EdgeKind::Directed => "directed",
            EdgeKind::Undirected => "undirected",
        },
    );
    out.push_str(",\"x1\":");
    write_shortest(out, edge.from.x);
    out.push_str(",\"y1\":");
    write_shortest(out, edge.from.y);
    out.push_str(",\"x2\":");
    write_shortest(out, edge.to.x);
    out.push_str(",\"y2\":");
    write_shortest(out, edge.to.y);
    if let Some(label) = &edge.label {
        out.push_str(",\"label\":");
        escape_into(out, label);
        out.push_str(",\"lx\":");
        write_shortest(out, edge.label_pos.x);
        out.push_str(",\"ly\":");
        write_shortest(out, edge.label_pos.y);
    }
    out.push_str(",\"from\":");
    escape_into(out, &edge.from_text);
    out.push_str(",\"to\":");
    escape_into(out, &edge.to_text);
    out.push('}');
}

/// Serialize one mark as a v2 (id-carrying) JSON object — shared with the
/// scene-diff writer's `add` ops so patched and full documents agree byte
/// for byte.
pub(crate) fn write_mark_v2(out: &mut String, mark: &Mark) {
    match mark {
        Mark::Rect(rect) => write_rect_with(out, rect, true),
        Mark::Text(text) => write_text_with(out, text, true),
        Mark::Edge(edge) => write_edge_with(out, edge, true),
    }
}

/// Serialize a scene into `out` (no trailing newline).
pub fn write_scene_json(out: &mut String, scene: &Scene) {
    write_scene_json_with(out, scene, VERSION, false)
}

/// Serialize the session-path v2 document: v1 plus `"id"` per mark.
pub fn write_scene_json_v2(out: &mut String, scene: &Scene) {
    write_scene_json_with(out, scene, VERSION_SESSION, true)
}

fn write_scene_json_with(out: &mut String, scene: &Scene, version: u64, with_ids: bool) {
    out.push_str("{\"v\":");
    write_u64(out, version);
    out.push_str(",\"w\":");
    write_shortest(out, scene.width);
    out.push_str(",\"h\":");
    write_shortest(out, scene.height);
    out.push_str(",\"union_all\":");
    out.push_str(if scene.union_all { "true" } else { "false" });
    out.push_str(",\"badges\":[");
    for (i, badge) in scene.badges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"y\":");
        write_shortest(out, badge.y_mid);
        out.push_str(",\"label\":");
        escape_into(out, &badge.label);
        out.push('}');
    }
    out.push_str("],\"branches\":[");
    for (i, branch) in scene.branches.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"dy\":");
        write_shortest(out, branch.dy);
        out.push_str(",\"w\":");
        write_shortest(out, branch.width);
        out.push_str(",\"h\":");
        write_shortest(out, branch.height);
        out.push_str(",\"marks\":[");
        for (j, mark) in branch.marks.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            match mark {
                Mark::Rect(rect) => write_rect_with(out, rect, with_ids),
                Mark::Text(text) => write_text_with(out, text, with_ids),
                Mark::Edge(edge) => write_edge_with(out, edge, with_ids),
            }
        }
        out.push_str("]}");
    }
    out.push_str("]}");
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
