//! Scene diffs for live-editing sessions: compute, serialize, parse, and
//! apply patch ops between two [`Scene`]s.
//!
//! A session `edit` response may carry `{"patch": [...]}` instead of a
//! full `scene_json` v2 document: a list of ops that transform the
//! session's last acknowledged scene into the new one. Patch ops address
//! marks by the stable structural ids [`build_scene`](queryvis::layout::build_scene) assigns (see
//! `queryvis_layout::scene`), scoped to a branch index.
//!
//! Op vocabulary (also documented in DESIGN.md §9):
//!
//! * `{"op":"meta","w":W,"h":H}` — scene extent changed;
//! * `{"op":"badges","badges":[{"y":Y,"label":L},…]}` — badge band list
//!   replaced wholesale (bands are tiny; per-band deltas don't pay);
//! * `{"op":"branch","i":I,"dy":DY,"w":W,"h":H}` — branch I's offset or
//!   extent changed;
//! * `{"op":"remove","i":I,"id":ID}` — mark ID leaves branch I;
//! * `{"op":"add","i":I,"k":K,"mark":{…}}` — a new mark (full v2 object)
//!   enters branch I at paint-order index K;
//! * `{"op":"move","i":I,"id":ID,"k":K,"mark":{…}}` — a surviving mark
//!   re-geometried and/or re-ordered: replaced by the full v2 object at
//!   index K (its text, if any, is part of the object — no separate op
//!   needed when both change);
//! * `{"op":"retext","i":I,"id":ID,"s":S}` — a text mark whose string
//!   alone changed (the common case for identifier renames).
//!
//! The differ and applier share one order-reconstruction discipline: ops
//! `add`/`move` pin marks to explicit final indices, and every other
//! surviving mark keeps its relative paint order. [`apply_patch`] rebuilds
//! the scene *structurally*, so a pinned test can render the patched scene
//! and assert byte-equality with the independently rendered full scene —
//! if the vocabulary ever under-describes a change, that test fails rather
//! than a client drifting silently.
//!
//! Escape hatch: [`diff_scenes`] returns `None` (→ full resync) when the
//! branch structure changed (count or union flavor) — identity across a
//! branch split is not meaningful — and the session layer additionally
//! falls back to a full scene whenever the serialized patch would not be
//! smaller than the document it replaces.

use crate::json::{escape_into, write_u64, Json};
use crate::scene_json::write_mark_v2;
use queryvis::layout::{
    write_shortest, EdgeKind, EdgeMark, Mark, MarkRole, Point, Rect, RectMark, Scene, SceneBadge,
    StyleClass, TextMark, TextRole,
};

/// One scene patch op. Geometry travels as the full v2 mark object — the
/// writer and the full-document writer share byte-level serialization, so
/// patched and full renders cannot drift.
#[derive(Debug, Clone, PartialEq)]
pub enum PatchOp {
    Meta {
        w: f64,
        h: f64,
    },
    Badges {
        badges: Vec<SceneBadge>,
    },
    Branch {
        i: usize,
        dy: f64,
        w: f64,
        h: f64,
    },
    Remove {
        i: usize,
        id: u32,
    },
    Add {
        i: usize,
        k: usize,
        mark: Mark,
    },
    Move {
        i: usize,
        id: u32,
        k: usize,
        mark: Mark,
    },
    Retext {
        i: usize,
        id: u32,
        s: String,
    },
}

impl PatchOp {
    fn branch_index(&self) -> Option<usize> {
        match self {
            PatchOp::Meta { .. } | PatchOp::Badges { .. } => None,
            PatchOp::Branch { i, .. }
            | PatchOp::Remove { i, .. }
            | PatchOp::Add { i, .. }
            | PatchOp::Move { i, .. }
            | PatchOp::Retext { i, .. } => Some(*i),
        }
    }
}

fn marks_equal_sans_text(a: &Mark, b: &Mark) -> bool {
    match (a, b) {
        (Mark::Text(x), Mark::Text(y)) => {
            x.id == y.id && x.anchor == y.anchor && x.role == y.role && x.class == y.class
        }
        _ => a == b,
    }
}

/// Diff two scenes into patch ops, or `None` when only a full resync is
/// sound (branch count or union flavor changed).
pub fn diff_scenes(old: &Scene, new: &Scene) -> Option<Vec<PatchOp>> {
    if old.branches.len() != new.branches.len() || old.union_all != new.union_all {
        return None;
    }
    let mut ops = Vec::new();
    if old.width != new.width || old.height != new.height {
        ops.push(PatchOp::Meta {
            w: new.width,
            h: new.height,
        });
    }
    if old.badges != new.badges {
        ops.push(PatchOp::Badges {
            badges: new.badges.clone(),
        });
    }
    for (i, (ob, nb)) in old.branches.iter().zip(&new.branches).enumerate() {
        if ob.dy != nb.dy || ob.width != nb.width || ob.height != nb.height {
            ops.push(PatchOp::Branch {
                i,
                dy: nb.dy,
                w: nb.width,
                h: nb.height,
            });
        }
        diff_marks(i, &ob.marks, &nb.marks, &mut ops)?;
    }
    Some(ops)
}

fn diff_marks(i: usize, old: &[Mark], new: &[Mark], ops: &mut Vec<PatchOp>) -> Option<()> {
    use std::collections::HashMap;
    let old_by_id: HashMap<u32, &Mark> = old.iter().map(|m| (m.id(), m)).collect();
    let new_ids: std::collections::HashSet<u32> = new.iter().map(|m| m.id()).collect();
    if old_by_id.len() != old.len() || new_ids.len() != new.len() {
        // Duplicate ids would make addressing ambiguous; resync. (The id
        // assigner probes to uniqueness per branch, so this cannot happen
        // unless a future refactor breaks it — fail safe, not subtle.)
        return None;
    }
    for m in old {
        if !new_ids.contains(&m.id()) {
            ops.push(PatchOp::Remove { i, id: m.id() });
        }
    }
    // Simulate the applier's order reconstruction: surviving old marks
    // (minus ones we decide to move) keep relative order; walk new marks
    // and pin any mark that is new, changed, or out of order to its index.
    let mut queue: std::collections::VecDeque<&Mark> =
        old.iter().filter(|m| new_ids.contains(&m.id())).collect();
    for (k, nm) in new.iter().enumerate() {
        let id = nm.id();
        match old_by_id.get(&id) {
            None => ops.push(PatchOp::Add {
                i,
                k,
                mark: nm.clone(),
            }),
            Some(om) => {
                let in_order = queue.front().is_some_and(|front| front.id() == id);
                if in_order && marks_equal_sans_text(om, nm) {
                    queue.pop_front();
                    if *om != nm {
                        let Mark::Text(t) = nm else { unreachable!() };
                        ops.push(PatchOp::Retext {
                            i,
                            id,
                            s: t.text.clone(),
                        });
                    }
                } else {
                    let pos = queue.iter().position(|m| m.id() == id).expect("survivor");
                    queue.remove(pos);
                    ops.push(PatchOp::Move {
                        i,
                        id,
                        k,
                        mark: nm.clone(),
                    });
                }
            }
        }
    }
    Some(())
}

/// Apply patch ops to a scene, producing the patched scene. Errors signal
/// a malformed or misdirected patch (unknown id, index out of range) —
/// the applier never panics on wire input.
pub fn apply_patch(base: &Scene, ops: &[PatchOp]) -> Result<Scene, String> {
    let mut scene = base.clone();
    for op in ops {
        if let Some(i) = op.branch_index() {
            if i >= scene.branches.len() {
                return Err(format!(
                    "patch addresses branch {i} of {}",
                    scene.branches.len()
                ));
            }
        }
        match op {
            PatchOp::Meta { w, h } => {
                scene.width = *w;
                scene.height = *h;
            }
            PatchOp::Badges { badges } => scene.badges = badges.clone(),
            PatchOp::Branch { i, dy, w, h } => {
                let b = &mut scene.branches[*i];
                b.dy = *dy;
                b.width = *w;
                b.height = *h;
            }
            _ => {}
        }
    }
    // Rebuild each touched branch's mark list with the shared
    // order-reconstruction discipline.
    for (i, branch) in scene.branches.iter_mut().enumerate() {
        let branch_ops: Vec<&PatchOp> = ops
            .iter()
            .filter(|op| op.branch_index() == Some(i))
            .collect();
        if !branch_ops.iter().any(|op| {
            matches!(
                op,
                PatchOp::Remove { .. }
                    | PatchOp::Add { .. }
                    | PatchOp::Move { .. }
                    | PatchOp::Retext { .. }
            )
        }) {
            continue;
        }
        let mut removed: std::collections::HashSet<u32> = std::collections::HashSet::new();
        let mut pinned: std::collections::HashMap<usize, &PatchOp> =
            std::collections::HashMap::new();
        let mut retext: std::collections::HashMap<u32, &str> = std::collections::HashMap::new();
        let mut moved: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for op in &branch_ops {
            match op {
                PatchOp::Remove { id, .. } => {
                    removed.insert(*id);
                }
                // The guard's insert is the work; a clash (true) takes
                // the arm, a fresh pin (false) falls through to `_`.
                PatchOp::Add { k, .. } if pinned.insert(*k, op).is_some() => {
                    return Err(format!("two ops pin index {k} in branch {i}"));
                }
                PatchOp::Move { k, id, .. } => {
                    moved.insert(*id);
                    if pinned.insert(*k, op).is_some() {
                        return Err(format!("two ops pin index {k} in branch {i}"));
                    }
                }
                PatchOp::Retext { id, s, .. } => {
                    retext.insert(*id, s);
                }
                _ => {}
            }
        }
        let mut survivors: std::collections::VecDeque<&Mark> = branch
            .marks
            .iter()
            .filter(|m| !removed.contains(&m.id()) && !moved.contains(&m.id()))
            .collect();
        let known: std::collections::HashSet<u32> = branch.marks.iter().map(|m| m.id()).collect();
        for id in removed.iter().chain(moved.iter()).chain(retext.keys()) {
            if !known.contains(id) {
                return Err(format!(
                    "patch addresses unknown mark id {id} in branch {i}"
                ));
            }
        }
        let len = survivors.len() + pinned.len();
        let mut marks: Vec<Mark> = Vec::with_capacity(len);
        for k in 0..len {
            let mark = match pinned.get(&k) {
                Some(PatchOp::Add { mark, .. }) | Some(PatchOp::Move { mark, .. }) => mark.clone(),
                Some(_) => unreachable!("only add/move are pinned"),
                None => {
                    let m = survivors
                        .pop_front()
                        .ok_or_else(|| format!("patch underflows branch {i} at index {k}"))?;
                    m.clone()
                }
            };
            marks.push(mark);
        }
        if !survivors.is_empty() {
            return Err(format!(
                "patch leaves {} unplaced marks in branch {i}",
                survivors.len()
            ));
        }
        for mark in &mut marks {
            if let Some(s) = retext.get(&mark.id()) {
                match mark {
                    Mark::Text(t) => t.text = (*s).to_string(),
                    _ => return Err(format!("retext addresses non-text mark {}", mark.id())),
                }
            }
        }
        branch.marks = marks;
    }
    Ok(scene)
}

/// Serialize patch ops as the `"patch"` array's contents (the ops only,
/// no surrounding brackets — the protocol writer owns the envelope).
pub fn write_patch_ops(out: &mut String, ops: &[PatchOp]) {
    for (n, op) in ops.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        match op {
            PatchOp::Meta { w, h } => {
                out.push_str("{\"op\":\"meta\",\"w\":");
                write_shortest(out, *w);
                out.push_str(",\"h\":");
                write_shortest(out, *h);
                out.push('}');
            }
            PatchOp::Badges { badges } => {
                out.push_str("{\"op\":\"badges\",\"badges\":[");
                for (j, badge) in badges.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"y\":");
                    write_shortest(out, badge.y_mid);
                    out.push_str(",\"label\":");
                    escape_into(out, &badge.label);
                    out.push('}');
                }
                out.push_str("]}");
            }
            PatchOp::Branch { i, dy, w, h } => {
                out.push_str("{\"op\":\"branch\",\"i\":");
                write_u64(out, *i as u64);
                out.push_str(",\"dy\":");
                write_shortest(out, *dy);
                out.push_str(",\"w\":");
                write_shortest(out, *w);
                out.push_str(",\"h\":");
                write_shortest(out, *h);
                out.push('}');
            }
            PatchOp::Remove { i, id } => {
                out.push_str("{\"op\":\"remove\",\"i\":");
                write_u64(out, *i as u64);
                out.push_str(",\"id\":");
                write_u64(out, u64::from(*id));
                out.push('}');
            }
            PatchOp::Add { i, k, mark } => {
                out.push_str("{\"op\":\"add\",\"i\":");
                write_u64(out, *i as u64);
                out.push_str(",\"k\":");
                write_u64(out, *k as u64);
                out.push_str(",\"mark\":");
                write_mark_v2(out, mark);
                out.push('}');
            }
            PatchOp::Move { i, id, k, mark } => {
                out.push_str("{\"op\":\"move\",\"i\":");
                write_u64(out, *i as u64);
                out.push_str(",\"id\":");
                write_u64(out, u64::from(*id));
                out.push_str(",\"k\":");
                write_u64(out, *k as u64);
                out.push_str(",\"mark\":");
                write_mark_v2(out, mark);
                out.push('}');
            }
            PatchOp::Retext { i, id, s } => {
                out.push_str("{\"op\":\"retext\",\"i\":");
                write_u64(out, *i as u64);
                out.push_str(",\"id\":");
                write_u64(out, u64::from(*id));
                out.push_str(",\"s\":");
                escape_into(out, s);
                out.push('}');
            }
        }
    }
}

fn as_f64(v: &Json) -> Option<f64> {
    match v {
        Json::Int(n) => Some(*n as f64),
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

fn field_f64(obj: &Json, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(as_f64)
        .ok_or_else(|| format!("patch op missing number {key:?}"))
}

fn field_usize(obj: &Json, key: &str) -> Result<usize, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .map(|n| n as usize)
        .ok_or_else(|| format!("patch op missing integer {key:?}"))
}

fn field_id(obj: &Json, key: &str) -> Result<u32, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| format!("patch op missing mark id {key:?}"))
}

fn field_str<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("patch op missing string {key:?}"))
}

fn class_of(name: &str) -> Result<StyleClass, String> {
    Ok(match name {
        "header_table" => StyleClass::HeaderTable,
        "header_select" => StyleClass::HeaderSelect,
        "row" => StyleClass::Row,
        "row_selection" => StyleClass::RowSelection,
        "row_group" => StyleClass::RowGroup,
        "box_not_exists" => StyleClass::BoxNotExists,
        "box_for_all" => StyleClass::BoxForAll,
        "box_for_all_inner" => StyleClass::BoxForAllInner,
        "frame" => StyleClass::Frame,
        other => return Err(format!("unknown style class {other:?}")),
    })
}

/// Parse one v2 mark object (as written by the scene_json v2 writer and
/// the `add`/`move` ops) back into a [`Mark`].
pub fn parse_mark(obj: &Json) -> Result<Mark, String> {
    let id = field_id(obj, "id")?;
    match field_str(obj, "t")? {
        "rect" => Ok(Mark::Rect(RectMark {
            id,
            rect: Rect::new(
                field_f64(obj, "x")?,
                field_f64(obj, "y")?,
                field_f64(obj, "w")?,
                field_f64(obj, "h")?,
            ),
            role: match field_str(obj, "role")? {
                "frame" => MarkRole::Frame,
                "header" => MarkRole::Header,
                "row" => MarkRole::Row,
                "quantifier_box" => MarkRole::QuantifierBox,
                other => return Err(format!("unknown rect role {other:?}")),
            },
            class: class_of(field_str(obj, "class")?)?,
            radius: field_f64(obj, "r")?,
        })),
        "text" => Ok(Mark::Text(TextMark {
            id,
            text: field_str(obj, "s")?.to_string(),
            anchor: Point {
                x: field_f64(obj, "x")?,
                y: field_f64(obj, "y")?,
            },
            role: match field_str(obj, "role")? {
                "title" => TextRole::Title,
                "title_annotation" => TextRole::TitleAnnotation,
                "row_text" => TextRole::RowText,
                "edge_label" => TextRole::EdgeLabel,
                other => return Err(format!("unknown text role {other:?}")),
            },
            class: class_of(field_str(obj, "class")?)?,
        })),
        "edge" => {
            let label = obj.get("label").and_then(Json::as_str).map(str::to_string);
            let (lx, ly) = if label.is_some() {
                (field_f64(obj, "lx")?, field_f64(obj, "ly")?)
            } else {
                (0.0, 0.0)
            };
            Ok(Mark::Edge(EdgeMark {
                id,
                from: Point {
                    x: field_f64(obj, "x1")?,
                    y: field_f64(obj, "y1")?,
                },
                to: Point {
                    x: field_f64(obj, "x2")?,
                    y: field_f64(obj, "y2")?,
                },
                kind: match field_str(obj, "kind")? {
                    "directed" => EdgeKind::Directed,
                    "undirected" => EdgeKind::Undirected,
                    other => return Err(format!("unknown edge kind {other:?}")),
                },
                label,
                label_pos: Point { x: lx, y: ly },
                from_text: field_str(obj, "from")?.to_string(),
                to_text: field_str(obj, "to")?.to_string(),
            }))
        }
        other => Err(format!("unknown mark type {other:?}")),
    }
}

/// Parse a `"patch"` array back into ops — the inverse of
/// [`write_patch_ops`], used by the equivalence tests to prove the wire
/// form carries everything the applier needs.
pub fn parse_patch_ops(arr: &[Json]) -> Result<Vec<PatchOp>, String> {
    let mut ops = Vec::with_capacity(arr.len());
    for obj in arr {
        let op = match field_str(obj, "op")? {
            "meta" => PatchOp::Meta {
                w: field_f64(obj, "w")?,
                h: field_f64(obj, "h")?,
            },
            "badges" => {
                let badges = obj
                    .get("badges")
                    .and_then(Json::as_arr)
                    .ok_or("badges op missing array")?;
                PatchOp::Badges {
                    badges: badges
                        .iter()
                        .map(|b| {
                            Ok(SceneBadge {
                                y_mid: field_f64(b, "y")?,
                                label: field_str(b, "label")?.to_string(),
                            })
                        })
                        .collect::<Result<Vec<_>, String>>()?,
                }
            }
            "branch" => PatchOp::Branch {
                i: field_usize(obj, "i")?,
                dy: field_f64(obj, "dy")?,
                w: field_f64(obj, "w")?,
                h: field_f64(obj, "h")?,
            },
            "remove" => PatchOp::Remove {
                i: field_usize(obj, "i")?,
                id: field_id(obj, "id")?,
            },
            "add" => PatchOp::Add {
                i: field_usize(obj, "i")?,
                k: field_usize(obj, "k")?,
                mark: parse_mark(obj.get("mark").ok_or("add op missing mark")?)?,
            },
            "move" => PatchOp::Move {
                i: field_usize(obj, "i")?,
                id: field_id(obj, "id")?,
                k: field_usize(obj, "k")?,
                mark: parse_mark(obj.get("mark").ok_or("move op missing mark")?)?,
            },
            "retext" => PatchOp::Retext {
                i: field_usize(obj, "i")?,
                id: field_id(obj, "id")?,
                s: field_str(obj, "s")?.to_string(),
            },
            other => return Err(format!("unknown patch op {other:?}")),
        };
        ops.push(op);
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::scene_json::scene_json_v2;
    use queryvis::QueryVis;
    use std::sync::Arc;

    fn scene_of(sql: &str) -> Arc<Scene> {
        QueryVis::from_sql(sql).unwrap().scene()
    }

    /// Diff → serialize → parse → apply → render must equal the full
    /// render of the new scene, byte for byte.
    fn round_trip(old_sql: &str, new_sql: &str) -> Vec<PatchOp> {
        let (old, new) = (scene_of(old_sql), scene_of(new_sql));
        let ops = diff_scenes(&old, &new)
            .unwrap_or_else(|| panic!("expected a patch for {old_sql:?} → {new_sql:?}"));
        let mut wire = String::from("[");
        write_patch_ops(&mut wire, &ops);
        wire.push(']');
        let parsed = json::parse(&wire).expect("patch serializes as valid JSON");
        let reops = parse_patch_ops(parsed.as_arr().unwrap()).expect("patch parses back");
        // Unlabeled edges don't serialize `label_pos` (it is never
        // rendered), so compare the wire form, not the structs.
        let mut rewire = String::from("[");
        write_patch_ops(&mut rewire, &reops);
        rewire.push(']');
        assert_eq!(rewire, wire, "wire round trip changed the patch");
        let patched = apply_patch(&old, &reops).expect("patch applies");
        assert_eq!(
            scene_json_v2(&patched),
            scene_json_v2(&new),
            "patched scene != full scene for {old_sql:?} → {new_sql:?}"
        );
        ops
    }

    #[test]
    fn identical_scenes_diff_to_nothing() {
        let sql = "SELECT F.person FROM Frequents F WHERE F.bar = 'Owl'";
        let ops = round_trip(sql, sql);
        assert!(ops.is_empty(), "{ops:?}");
    }

    #[test]
    fn constant_edit_is_a_retext() {
        // Same-length literal: geometry is untouched, so the whole edit
        // is one retext of the predicate row's text.
        let ops = round_trip(
            "SELECT F.person FROM Frequents F WHERE F.bar = 'Owl'",
            "SELECT F.person FROM Frequents F WHERE F.bar = 'Ow1'",
        );
        assert_eq!(ops.len(), 1, "{ops:?}");
        assert!(matches!(&ops[0], PatchOp::Retext { s, .. } if s.contains("Ow1")));
    }

    #[test]
    fn added_predicate_adds_marks() {
        let ops = round_trip(
            "SELECT F.person FROM Frequents F",
            "SELECT F.person FROM Frequents F WHERE F.bar = 'Owl'",
        );
        assert!(ops.iter().any(|op| matches!(op, PatchOp::Add { .. })));
    }

    #[test]
    fn dropped_table_removes_marks() {
        round_trip(
            "SELECT F.person FROM Frequents F, Likes L WHERE F.person = L.person",
            "SELECT F.person FROM Frequents F",
        );
    }

    #[test]
    fn branch_count_change_forces_resync() {
        let old = scene_of("SELECT F.person FROM Frequents F");
        let new = scene_of("SELECT F.person FROM Frequents F UNION SELECT L.person FROM Likes L");
        assert_eq!(diff_scenes(&old, &new), None);
    }

    #[test]
    fn union_branch_edit_patches_in_place() {
        round_trip(
            "SELECT F.person FROM Frequents F UNION SELECT L.person FROM Likes L",
            "SELECT F.person FROM Frequents F UNION SELECT L.person FROM Likes L WHERE L.beer = 'IPA'",
        );
    }

    #[test]
    fn subquery_edits_round_trip() {
        round_trip(
            "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
             (SELECT * FROM Serves S WHERE S.bar = F.bar)",
            "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
             (SELECT * FROM Serves S WHERE S.bar = F.bar AND S.beer = 'IPA')",
        );
    }

    #[test]
    fn applier_rejects_malformed_patches() {
        let scene = scene_of("SELECT F.person FROM Frequents F");
        assert!(apply_patch(&scene, &[PatchOp::Remove { i: 9, id: 1 }]).is_err());
        assert!(apply_patch(
            &scene,
            &[PatchOp::Remove {
                i: 0,
                id: 0xdead_beef
            }]
        )
        .is_err());
        assert!(apply_patch(
            &scene,
            &[PatchOp::Retext {
                i: 0,
                id: 0xdead_beef,
                s: String::new()
            }]
        )
        .is_err());
    }
}
