//! Generative equivalence suite for live-editing sessions (DESIGN.md §9):
//! random edit scripts replayed through a [`SessionStore`] must be
//! *observationally identical* to compiling every intermediate buffer
//! from scratch.
//!
//! Each case generates a query with `proptest::sqlgen`, opens a session
//! on its canonical text, then morphs the buffer through a chain of
//! targets — a spelling variant, a pattern-equivalent rewrite, an
//! unrelated query, and back — one tiny byte-range edit at a time. The
//! intermediate buffers routinely fail to parse (a half-typed identifier,
//! a dangling keyword); those steps must return exactly the from-scratch
//! error, and the ones that compile must return the from-scratch
//! fingerprint, word count, representative disclosure, and — after
//! applying the scene patch (or taking the resync) — the byte-identical
//! scene document. A shadow client applies every patch, so this is also
//! the end-to-end proof of the patch-op vocabulary.

use proptest::sqlgen::{gen_query, GenConfig};
use proptest::test_runner::TestRng;
use queryvis::layout::Scene;
use queryvis_service::json;
use queryvis_service::{
    apply_patch, fingerprint_sql, parse_patch_ops, scene_json_v2, DiagramService, ServiceConfig,
    SessionConfig, SessionStore,
};
use queryvis_sql::Edit;
use std::sync::Arc;

/// Split the `from → to` rewrite into single-digit-byte edits: common
/// prefix/suffix preserved, the damaged middle deleted and retyped in
/// random chunks. Every chunk boundary is a state the server compiles.
fn morph_edits(from: &str, to: &str, rng: &mut TestRng) -> Vec<Edit> {
    let from_b = from.as_bytes();
    let to_b = to.as_bytes();
    let mut p = 0;
    while p < from_b.len() && p < to_b.len() && from_b[p] == to_b[p] {
        p += 1;
    }
    let mut s = 0;
    while s < from_b.len() - p
        && s < to_b.len() - p
        && from_b[from_b.len() - 1 - s] == to_b[to_b.len() - 1 - s]
    {
        s += 1;
    }
    let mut edits = Vec::new();
    let mut remaining = from_b.len() - p - s;
    while remaining > 0 {
        let chunk = (1 + (rng.next_u64() as usize % 3)).min(remaining);
        edits.push(Edit {
            offset: p,
            deleted: chunk,
            inserted: String::new(),
        });
        remaining -= chunk;
    }
    let mut rest = &to[p..to.len() - s];
    let mut at = p;
    while !rest.is_empty() {
        let mut chunk = (1 + (rng.next_u64() as usize % 4)).min(rest.len());
        while !rest.is_char_boundary(chunk) {
            chunk += 1;
        }
        let (head, tail) = rest.split_at(chunk);
        edits.push(Edit {
            offset: at,
            deleted: 0,
            inserted: head.to_string(),
        });
        at += head.len();
        rest = tail;
    }
    edits
}

/// From-scratch oracle: the standard pipeline over the whole text, on the
/// same service (so cache state — and therefore representative choice —
/// matches what the session sees).
fn oracle(
    service: &Arc<DiagramService>,
    sql: &str,
) -> Result<(String, Option<String>, Arc<Scene>), String> {
    match fingerprint_sql(sql, Arc::new(Default::default())) {
        Err(e) => Err(e.to_string()),
        Ok(fq) => {
            let entry = service.entry_for(fq).map_err(|e| e.message)?;
            let representative =
                (entry.representative_sql() != sql).then(|| entry.representative_sql().to_string());
            Ok((
                entry.fingerprint_hex().to_string(),
                representative,
                Arc::clone(entry.scene()),
            ))
        }
    }
}

#[test]
fn random_edit_scripts_match_from_scratch_compiles_at_every_step() {
    let cfg = GenConfig::default();
    let mut checked_states = 0usize;
    let mut error_states = 0usize;
    let mut l1_hits = 0u64;
    for case in 0..30u64 {
        let mut rng = TestRng::for_case("session_equivalence", case);
        let service = Arc::new(DiagramService::new(ServiceConfig::default()));
        let store = SessionStore::new(Arc::clone(&service), SessionConfig::default());

        let q = gen_query(&cfg, &mut rng);
        let other = gen_query(&cfg, &mut rng);
        let start = q.canonical();
        // The morph chain: spelling-only, pattern-equivalent rewrite, a
        // structurally different query, and back home.
        let targets = [
            q.text_variant(case),
            q.pattern_variant(case + 1),
            other.canonical(),
            q.canonical(),
        ];

        let (id, opened) = store.open(&start, 1).expect("canonical text fits budget");
        let opened = opened.expect("generated queries compile");
        let (fp, _, scene) = oracle(&service, &start).expect("oracle agrees open compiles");
        assert_eq!(opened.fingerprint_hex.as_ref(), fp);
        assert_eq!(
            opened.scene.as_deref(),
            Some(scene_json_v2(&scene).as_str()),
            "case {case}: open must sync the full scene"
        );
        // The shadow client's acked state: scene struct + serialized form.
        let mut client_scene = scene;
        let mut buffer = start.clone();

        for target in &targets {
            for edit in morph_edits(&buffer.clone(), target, &mut rng) {
                queryvis_sql::apply_edit(&mut buffer, &edit).expect("morph edits are in-range");
                let reply = store
                    .edit(id, &[edit], 1)
                    .expect("edit request well-formed");
                checked_states += 1;
                match oracle(&service, &buffer) {
                    Err(expected) => {
                        error_states += 1;
                        let got = reply.expect_err(&format!(
                            "case {case}: session compiled {buffer:?} but the pipeline rejects it"
                        ));
                        assert_eq!(
                            got.message, expected,
                            "case {case}: error text diverged on {buffer:?}"
                        );
                    }
                    Ok((fp, representative, scene)) => {
                        let reply = reply.unwrap_or_else(|e| {
                            panic!(
                                "case {case}: session rejected {buffer:?} which compiles: {}",
                                e.message
                            )
                        });
                        assert_eq!(
                            reply.fingerprint_hex.as_ref(),
                            fp,
                            "case {case}: fingerprint diverged on {buffer:?}"
                        );
                        assert_eq!(
                            reply.representative_sql.as_deref(),
                            representative.as_deref(),
                            "case {case}: representative disclosure diverged on {buffer:?}"
                        );
                        // Advance the shadow client: apply the patch onto
                        // the last acked scene, or take the resync.
                        let expected_bytes = scene_json_v2(&scene);
                        match (&reply.patch, &reply.scene) {
                            (Some(patch), None) => {
                                let doc = json::parse(&format!("[{patch}]"))
                                    .expect("patch ops serialize as JSON");
                                let ops = parse_patch_ops(doc.as_arr().expect("array"))
                                    .expect("patch ops parse back");
                                client_scene = Arc::new(
                                    apply_patch(&client_scene, &ops)
                                        .expect("patch applies onto acked scene"),
                                );
                            }
                            (None, Some(_)) => client_scene = Arc::clone(&scene),
                            other => panic!(
                                "case {case}: reply must carry exactly one of patch/scene, got {:?}",
                                (other.0.is_some(), other.1.is_some())
                            ),
                        }
                        assert_eq!(
                            scene_json_v2(&client_scene),
                            expected_bytes,
                            "case {case}: client scene diverged from scratch compile on {buffer:?}"
                        );
                    }
                }
            }
            assert_eq!(&buffer, target, "morph script must land on its target");
        }
        l1_hits += service.stats().l1_hits;
        store
            .close(id, 1)
            .expect("session survives the whole script");
    }
    // The suite is only meaningful if it really exercised both regimes.
    assert!(
        checked_states > 300,
        "expected a substantial script, checked {checked_states}"
    );
    assert!(
        error_states > 30,
        "expected transient parse errors along the morphs, saw {error_states}"
    );
    // Edits take the plain request path; prove they reach its L1 memo
    // (a morph that returns to a text seen before is answered there).
    assert!(l1_hits > 0, "no edit was answered by the L1 memo");
}
