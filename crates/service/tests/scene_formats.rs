//! Serving-layer acceptance for the scene rearchitecture: the
//! `scene_json` format, one-layout-per-entry sharing, format
//! negotiation, and unchanged L1/L2 cache semantics.

use queryvis_service::json::{self, Json};
use queryvis_service::{
    compile_representative, fingerprint_sql, paper_corpus_requests, DiagramService, Format,
    Request, Response, ServiceConfig,
};
use std::sync::Arc;

fn service() -> DiagramService {
    DiagramService::new(ServiceConfig::default())
}

fn request(id: u64, sql: &str, formats: &[Format]) -> Request {
    Request {
        id,
        sql: sql.to_string(),
        formats: formats.to_vec(),
        rows: None,
    }
}

/// Every corpus query's scene_json artifact parses with the service's own
/// JSON parser and carries the expected document shape. The entry stores
/// it as a JSON string literal, so it is decoded first. (CI runs this in
/// release mode as the scene_json validation step.)
#[test]
fn corpus_scene_json_parses_with_own_parser() {
    let service = service();
    let requests = paper_corpus_requests(&[Format::SceneJson]);
    let responses: Vec<Response> = requests.iter().map(|r| service.handle(r)).collect();
    assert_eq!(responses.len(), requests.len());
    for response in &responses {
        let artifacts = response.outcome.as_ref().expect("corpus compiles");
        let (format, literal) = &artifacts.rendered[0];
        assert_eq!(*format, Format::SceneJson);
        let Ok(Json::Str(text)) = json::parse(literal) else {
            panic!("request {}: artifact is not a string literal", response.id);
        };
        let doc = json::parse(&text)
            .unwrap_or_else(|e| panic!("scene_json of request {} invalid: {e}", response.id));
        assert_eq!(doc.get("v").and_then(Json::as_u64), Some(1));
        let branches = doc.get("branches").and_then(Json::as_arr).unwrap();
        assert!(!branches.is_empty(), "request {}", response.id);
        for branch in branches {
            let marks = branch.get("marks").and_then(Json::as_arr).unwrap();
            assert!(!marks.is_empty(), "request {}", response.id);
        }
        // The whole response line (scene_json embedded as a string field)
        // survives a wire round trip too.
        let line = response.to_json_line();
        let parsed = json::parse(&line).expect("response line parses");
        assert_eq!(
            parsed
                .get("artifacts")
                .and_then(|a| a.get("scene_json"))
                .and_then(Json::as_str),
            Some(text.as_str())
        );
    }
}

/// Format negotiation: `scene_json` parses by name, round-trips through
/// the request grammar, and serves alongside the other formats.
#[test]
fn scene_json_format_negotiation() {
    assert_eq!(Format::parse("scene_json"), Some(Format::SceneJson));
    let r = Request::from_json_line(
        r#"{"id": 1, "sql": "SELECT T.a FROM T", "formats": ["ascii", "scene_json", "svg"]}"#,
        0,
    )
    .unwrap();
    assert_eq!(
        r.formats,
        vec![Format::Ascii, Format::SceneJson, Format::Svg]
    );
    let response = service().handle(&r);
    let artifacts = response.outcome.expect("compiles");
    let names: Vec<&str> = artifacts.rendered.iter().map(|(f, _)| f.name()).collect();
    assert_eq!(names, vec!["ascii", "scene_json", "svg"]);
}

/// One entry served in all three geometric formats runs layout exactly
/// once: the scene is `OnceLock`ed, so ascii, svg, and scene_json share
/// one `Arc<Scene>` pointer (layout only runs inside that init).
#[test]
fn three_formats_one_layout() {
    let sql = "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
               (SELECT * FROM Serves S WHERE S.bar = F.bar)";
    let entry =
        compile_representative(fingerprint_sql(sql, queryvis::QueryVisOptions::default()).unwrap());
    entry.render(Format::Ascii);
    let scene = Arc::as_ptr(entry.scene());
    entry.render(Format::Svg);
    entry.render(Format::SceneJson);
    assert_eq!(scene, Arc::as_ptr(entry.scene()), "scene rebuilt");
    assert_eq!(
        entry.rendered_formats(),
        vec![Format::Ascii, Format::Svg, Format::SceneJson]
    );
}

/// Per-format lazy render stays one-shot under concurrency: many threads
/// racing different formats on one cached entry end up sharing the same
/// artifact and scene pointers.
#[test]
fn concurrent_formats_render_once() {
    let service = Arc::new(service());
    let sql = "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
               (SELECT * FROM Serves S WHERE S.bar = F.bar AND NOT EXISTS \
               (SELECT L.drink FROM Likes L WHERE L.person = F.person \
                AND S.drink = L.drink))";
    // Warm the entry (compile once), then race all geometric formats.
    service.handle(&request(0, sql, &[Format::Reading]));
    let formats = [Format::Ascii, Format::Svg, Format::SceneJson];
    let responses: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..12)
            .map(|i| {
                let service = Arc::clone(&service);
                scope.spawn(move || service.handle(&request(i, sql, &[formats[i as usize % 3]])))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(service.stats().compiles, 1, "no recompiles under races");
    // Responses of one format all share a single artifact allocation.
    for format in formats {
        let ptrs: Vec<*const str> = responses
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .flat_map(|a| a.rendered.iter())
            .filter(|(f, _)| *f == format)
            .map(|(_, text)| Arc::as_ptr(text))
            .collect();
        assert!(!ptrs.is_empty());
        assert!(
            ptrs.windows(2).all(|w| std::ptr::eq(w[0], w[1])),
            "{}: artifact rendered more than once",
            format.name()
        );
    }
}

/// L1/L2 semantics are untouched by the new format: a repeat scene_json
/// text is an L1 hit served from the L2 entry, with no extra compiles.
#[test]
fn scene_json_requests_hit_both_cache_levels() {
    let service = service();
    let sql = "SELECT T.a FROM T WHERE T.b = 'x'";
    service.handle(&request(0, sql, &[Format::SceneJson]));
    let before = service.stats();
    assert_eq!(before.compiles, 1);
    // A lowercase respelling is another text: an L1 miss that L2 serves.
    let variant = "select T.a from T where T.b = 'x';";
    let response = service.handle(&request(1, variant, &[Format::SceneJson]));
    assert!(response.outcome.is_ok());
    let after = service.stats();
    assert_eq!(after.compiles, 1, "no recompile");
    assert_eq!(after.l1_hits, before.l1_hits, "L1 miss");
    assert_eq!(after.cache.hits, before.cache.hits + 1, "L2 hit");
    // Sent again, it is an L1 hit (and an L2 hit behind it).
    let again = service.handle(&request(2, variant, &[Format::SceneJson]));
    assert!(again.outcome.is_ok());
    let last = service.stats();
    assert_eq!(last.compiles, 1, "no recompile");
    assert_eq!(last.l1_hits, after.l1_hits + 1, "L1 hit");
    assert_eq!(last.cache.hits, after.cache.hits + 1, "L2 hit");
}
