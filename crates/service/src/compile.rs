//! Compiled cache entries: the diagram plus lazily rendered artifacts.
//!
//! An entry is immutable once built; the rendered artifacts materialize on
//! first request per format behind [`OnceLock`]s, so a pattern that is only
//! ever served as ASCII never pays for SVG text, while concurrent
//! renderers of the same entry do the work exactly once.
//!
//! **One form per artifact: the reply's.** Each artifact is stored once,
//! as the JSON string literal a reply line carries (quotes and escapes
//! included), in an `Arc<str>` shared into every response. The svg, ascii
//! and scene_json writers write that literal directly, through a
//! [`JsonEscaped`] carrier, inside the render's `OnceLock` init and its
//! `stage.render.*` span: constant markup arrives in its compile-time JSON
//! form and only names, labels and theme values are escaped, so a miss
//! makes no second pass over the artifact. Dot and reading, whose writers
//! take no carrier, are rendered raw and escaped once. A warm reply then
//! copies the literal's bytes instead of escaping the artifact again. No
//! raw copy is kept beside it:
//! a caller that wants the raw text decodes the literal with
//! [`json::parse`]. The 32-hex-character fingerprint string and the
//! representative's SQL stay raw (they are short, and sessions and the
//! disclosure check compare them raw), shared once per entry. The
//! canonical pattern string is not kept at all: the fingerprint, hashed
//! from the pattern's token stream, is the entry's whole identity, so a
//! cache miss canonicalizes once (while fingerprinting) and never again.
//!
//! **One layout per entry.** The geometric formats (svg, ascii,
//! scene_json) all render from one shared [`Scene`] behind its own
//! `OnceLock<Arc<Scene>>`: the first geometric request runs
//! `layout_diagram` + scene resolution + union composition, and every
//! later format walks the cached display list. Before the scene IR, an
//! entry served as ascii-then-svg laid the same diagram out twice.
//!
//! **Representative semantics.** Entries are keyed by canonical-pattern
//! fingerprint, and pattern-equivalent queries (alias renames, predicate
//! reordering, even schema swaps — paper App. G) share one entry. The
//! diagram and artifacts are rendered from the *pattern representative*:
//! the query whose compile of the pattern was inserted first. That is the
//! deduplication the paper licenses — "the visual diagram remains the same
//! for queries with identical logical patterns" — traded at the granularity
//! of whole diagrams, concrete label text included.

use crate::fingerprint::{Fingerprint, FingerprintedQuery};
use crate::json::{self, Json};
use crate::protocol::Format;
use crate::scene_json::{scene_json_v2, write_scene_json};
use queryvis::diagram::DiagramStats;
use queryvis::layout::{JsonEscaped, Scene};
use queryvis::render::{ascii, svg, SvgTheme};
use queryvis::QueryVis;
use queryvis_telemetry::StageDef;
use std::sync::{Arc, OnceLock};

/// Per-format render stages (DESIGN.md §6). Each span covers one *actual*
/// materialization — memoized re-serves of an artifact record nothing, so
/// the histograms count renders, not requests. A geometric format builds
/// the entry's scene before its span opens, so `stage.scene` is never
/// timed inside a render span.
static STAGE_RENDER_ASCII: StageDef = StageDef::new("stage.render.ascii");
static STAGE_RENDER_DOT: StageDef = StageDef::new("stage.render.dot");
static STAGE_RENDER_SVG: StageDef = StageDef::new("stage.render.svg");
static STAGE_RENDER_READING: StageDef = StageDef::new("stage.render.reading");
static STAGE_RENDER_SCENE_JSON: StageDef = StageDef::new("stage.render.scene_json");
static STAGE_RENDER_ROWS: StageDef = StageDef::new("stage.render.rows");

/// Hard cap on sample rows computed (and cached) per entry; requests ask
/// for up to this many via the `rows` field.
pub const MAX_SAMPLE_ROWS: usize = 20;
/// Fixed sample-data parameters: the rows shown next to a diagram are a
/// deterministic function of the pattern, never of request timing.
const SAMPLE_SEED: u64 = 1;
const SAMPLE_ROWS_PER_TABLE: usize = 4;
/// Executor work cap for the sample path — a hostile pattern (many nested
/// quantifiers) fails with a `rows_error` instead of stalling a worker.
const SAMPLE_BUDGET: u64 = 200_000;

/// Per-entry sample rows: each row pre-rendered as one JSON array
/// fragment (e.g. `[1,"a",null]`), shared by every response that asks.
#[derive(Debug, Clone)]
pub struct SampleRows {
    pub rows: Arc<[Arc<str>]>,
    /// True when the full result had more than [`MAX_SAMPLE_ROWS`] rows.
    pub truncated: bool,
}

fn datum_json(d: &queryvis_exec::Datum) -> Json {
    match d {
        queryvis_exec::Datum::Null => Json::Null,
        queryvis_exec::Datum::Num(n) => Json::Num(*n),
        queryvis_exec::Datum::Str(s) => Json::Str(s.clone()),
    }
}

/// A compiled pattern: the finished pipeline result for the pattern's
/// representative query, with per-format render caches.
pub struct CompiledEntry {
    fingerprint: Fingerprint,
    /// The fingerprint as 32 lowercase hex characters, rendered once at
    /// entry construction and shared by every response.
    hex: Arc<str>,
    /// The representative's SQL, shared (not cloned) into disclosing
    /// responses.
    representative: Arc<str>,
    qv: QueryVis,
    /// The composed scene every geometric artifact renders from; built on
    /// the first svg/ascii/scene_json request, then shared.
    scene: OnceLock<Arc<Scene>>,
    ascii: OnceLock<Arc<str>>,
    dot: OnceLock<Arc<str>>,
    svg: OnceLock<Arc<str>>,
    reading: OnceLock<Arc<str>>,
    scene_json: OnceLock<Arc<str>>,
    /// Byte length of the scene's `scene_json` v2 document, the size a
    /// session edit's patch must beat; serialized once per entry.
    scene_json_v2_len: OnceLock<usize>,
    /// Sample result rows over the pattern's transport-generated database,
    /// computed once per entry on first `rows` request.
    samples: OnceLock<Result<SampleRows, Arc<str>>>,
}

impl CompiledEntry {
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// The fingerprint's fixed-width hex rendering, shared per entry.
    pub fn fingerprint_hex(&self) -> &Arc<str> {
        &self.hex
    }

    /// The SQL of the representative query the artifacts were rendered from.
    pub fn representative_sql(&self) -> &str {
        &self.representative
    }

    /// The representative SQL as a shareable `Arc<str>` (for responses
    /// that disclose it without copying).
    pub fn representative_shared(&self) -> &Arc<str> {
        &self.representative
    }

    /// Mark/channel statistics of the diagram (§4.8).
    pub fn stats(&self) -> DiagramStats {
        self.qv.stats()
    }

    /// The entry's composed [`Scene`] — layout, mark resolution, and
    /// union composition run exactly once per entry, on first geometric
    /// render, and the `Arc` is shared by every format that needs it
    /// (delegating to [`QueryVis::scene`]'s own memoization).
    pub fn scene(&self) -> &Arc<Scene> {
        self.scene.get_or_init(|| self.qv.scene())
    }

    /// `scene_json_v2(self.scene()).len()`, serialized on first call and
    /// remembered: a session edit compares its patch with this length
    /// and serializes the document only when it resyncs.
    pub fn scene_json_v2_len(&self) -> usize {
        *self
            .scene_json_v2_len
            .get_or_init(|| scene_json_v2(self.scene()).len())
    }

    /// Render (or fetch the memoized) artifact for one format, as its
    /// JSON string literal: quotes and escapes included, the exact bytes a
    /// reply line carries. The returned `Arc` is shared: responses clone
    /// the pointer, and writing a reply copies the literal. Geometric
    /// formats walk the shared [`CompiledEntry::scene`]; only dot
    /// (semantic GraphViz export) and reading (prose) bypass it.
    pub fn render(&self, format: Format) -> &Arc<str> {
        match format {
            Format::Ascii => self.ascii.get_or_init(|| {
                let scene = self.scene();
                let _span = STAGE_RENDER_ASCII.span();
                written(1024, |out| ascii::write_ascii(out, scene))
            }),
            Format::Dot => self.dot.get_or_init(|| {
                let _span = STAGE_RENDER_DOT.span();
                literal(&self.qv.dot())
            }),
            Format::Svg => self.svg.get_or_init(|| {
                let scene = self.scene();
                let _span = STAGE_RENDER_SVG.span();
                written(2048, |out| svg::write_svg(out, scene, &SvgTheme::default()))
            }),
            Format::Reading => self.reading.get_or_init(|| {
                let _span = STAGE_RENDER_READING.span();
                literal(&self.qv.reading())
            }),
            Format::SceneJson => self.scene_json.get_or_init(|| {
                let scene = self.scene();
                let _span = STAGE_RENDER_SCENE_JSON.span();
                written(4096, |out| write_scene_json(out, scene))
            }),
        }
    }

    /// Sample rows for the `rows` request field: the representative
    /// executed over its own deterministic transport database
    /// ([`queryvis_exec::sample_rows`]), capped at [`MAX_SAMPLE_ROWS`] and
    /// memoized per entry. Errors (budget, fragment limits) memoize too —
    /// they are a property of the pattern, not of the request.
    pub fn sample_rows(&self) -> &Result<SampleRows, Arc<str>> {
        self.samples.get_or_init(|| {
            let _span = STAGE_RENDER_ROWS.span();
            queryvis_exec::sample_rows(
                &self.qv.trees(),
                self.qv.union_all,
                self.qv.names(),
                SAMPLE_SEED,
                SAMPLE_ROWS_PER_TABLE,
                MAX_SAMPLE_ROWS,
                SAMPLE_BUDGET,
            )
            .map(|(rows, truncated)| SampleRows {
                rows: rows
                    .iter()
                    .map(|row| {
                        Arc::from(Json::Arr(row.iter().map(datum_json).collect()).to_string())
                    })
                    .collect(),
                truncated,
            })
            .map_err(|e| Arc::from(e.to_string()))
        })
    }

    /// Which formats have been rendered so far (observability only).
    pub fn rendered_formats(&self) -> Vec<Format> {
        let mut formats = Vec::new();
        for (format, slot) in [
            (Format::Ascii, &self.ascii),
            (Format::Dot, &self.dot),
            (Format::Svg, &self.svg),
            (Format::Reading, &self.reading),
            (Format::SceneJson, &self.scene_json),
        ] {
            if slot.get().is_some() {
                formats.push(format);
            }
        }
        formats
    }
}

/// `raw` as a JSON string literal, stored at its exact length: the dot
/// and reading artifacts, whose writers take no carrier.
fn literal(raw: &str) -> Arc<str> {
    let mut out = String::with_capacity(2 * raw.len() + 2);
    json::escape_into(&mut out, raw);
    Arc::from(out)
}

/// The JSON string literal of the document `write` puts into a
/// [`JsonEscaped`] carrier, written in one pass and stored at its exact
/// length. `capacity` is the buffer's first size; the `Arc` copy drops
/// its slack, which, kept, measured a third more peak memory over a run
/// of cold compiles.
fn written(capacity: usize, write: impl FnOnce(&mut JsonEscaped)) -> Arc<str> {
    let mut out = JsonEscaped(String::with_capacity(capacity));
    out.0.push('"');
    write(&mut out);
    out.0.push('"');
    Arc::from(out.0)
}

/// Run the expensive back half of the pipeline for a pattern representative.
pub fn compile_representative(fingerprinted: FingerprintedQuery) -> CompiledEntry {
    let FingerprintedQuery {
        prepared,
        fingerprint,
    } = fingerprinted;
    let qv = prepared.complete();
    CompiledEntry {
        fingerprint,
        hex: fingerprint.to_string().into(),
        representative: qv.sql.as_str().into(),
        qv,
        scene: OnceLock::new(),
        ascii: OnceLock::new(),
        dot: OnceLock::new(),
        svg: OnceLock::new(),
        reading: OnceLock::new(),
        scene_json: OnceLock::new(),
        scene_json_v2_len: OnceLock::new(),
        samples: OnceLock::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fingerprint_sql;
    use crate::protocol::Request;
    use crate::scene_json::scene_json;
    use crate::service::{DiagramService, ServiceConfig};
    use queryvis::QueryVisOptions;

    fn compiled(sql: &str) -> CompiledEntry {
        compile_representative(fingerprint_sql(sql, QueryVisOptions::default()).unwrap())
    }

    /// Every request's names live in its own table, dropped with the
    /// request; the one resident entry keeps only its representative's.
    /// Fresh spellings of one pattern therefore leave the entry, and
    /// everything else resident, exactly as the first request left it.
    #[test]
    fn fresh_names_leave_the_resident_entry_unchanged() {
        let service = DiagramService::new(ServiceConfig::default());
        let request = |id: usize, sql: String| Request {
            id: id as u64,
            sql,
            formats: vec![Format::Ascii],
            rows: None,
        };
        let sql = |i: usize| format!("SELECT T{i}.c{i} FROM T{i} WHERE T{i}.c{i} = 'v{i}'");
        let first = service.handle(&request(0, sql(0)));
        let fingerprint = first.outcome.expect("compiles").fingerprint;
        let resident = || {
            service
                .cache()
                .peek(fingerprint)
                .expect("resident")
                .qv
                .names()
                .len()
        };
        // `T0`, `c0` and `v0` beside the two reserved names.
        assert_eq!(resident(), 5);
        for i in 1..2_000 {
            let served = service.handle(&request(i, sql(i)));
            assert_eq!(served.outcome.expect("serves").fingerprint, fingerprint);
        }
        assert_eq!(service.stats().compiles, 1);
        assert_eq!(resident(), 5);
    }

    /// Each stored artifact is a JSON string literal that decodes to
    /// exactly the library facade's raw rendering of the representative.
    #[test]
    fn artifacts_render_lazily_and_memoize() {
        let sql = "SELECT F.person FROM Frequents F WHERE F.bar = 'Owl'";
        let entry = compiled(sql);
        assert!(entry.rendered_formats().is_empty());
        let first = Arc::as_ptr(entry.render(Format::Ascii));
        assert_eq!(entry.rendered_formats(), vec![Format::Ascii]);
        let second = Arc::as_ptr(entry.render(Format::Ascii));
        assert_eq!(first, second, "memoized render must be reused");
        assert_literals_decode_to_facade_bytes(sql, &entry);
    }

    /// Each of the entry's five stored literals parses back to exactly the
    /// library facade's raw rendering of `sql`.
    fn assert_literals_decode_to_facade_bytes(sql: &str, entry: &CompiledEntry) {
        let qv = QueryVis::from_sql(sql).unwrap();
        for (format, raw) in [
            (Format::Ascii, qv.ascii()),
            (Format::Dot, qv.dot()),
            (Format::Svg, qv.svg()),
            (Format::Reading, qv.reading()),
            (Format::SceneJson, scene_json(&qv.scene())),
        ] {
            assert_eq!(
                json::parse(entry.render(format)),
                Ok(Json::Str(raw)),
                "{} of {sql}",
                format.name()
            );
        }
    }

    /// Label text holding every byte either escape rewrites (`"`, `\`,
    /// tab, newline, a control byte, XML specials) and multi-byte chars:
    /// the artifacts written straight into their literals, scene_json's
    /// nested escapes included, decode to the facade's bytes.
    #[test]
    fn stored_literals_decode_to_facade_bytes_on_hostile_labels() {
        let boat = |literal: &str| format!("SELECT B.bid FROM Boat B WHERE B.name = {literal}");
        let mut queries: Vec<String> = [
            r#"'say "hi" \ there'"#,
            "'tab\there'",
            "'ctl\u{1}byte'",
            "'a&b<c>d''e'",
            "'Žatec </text> ∄'",
            "'line\nbreak'",
        ]
        .into_iter()
        .map(boat)
        .collect();
        queries.push(
            r#"SELECT F.person FROM Frequents F WHERE NOT EXISTS (SELECT * FROM Serves S WHERE S.bar = F.bar AND S.drink = 'q"\\z') UNION SELECT L.person FROM Likes L WHERE L.beer < 'x\y'"#
                .to_string(),
        );
        queries.push(r#"SELECT A.x FROM T A, T B WHERE A.x <> B.x AND A.y >= '"'"#.to_string());
        queries.extend(crate::paper_corpus_requests(&[]).into_iter().map(|r| r.sql));
        for sql in &queries {
            assert_literals_decode_to_facade_bytes(sql, &compiled(sql));
        }
        // The scene_json literal holds the label's JSON escape escaped once
        // more: `"hi"` → `\"hi\"` in the document → `\\\"hi\\\"` stored.
        let entry = compiled(&queries[0]);
        assert!(entry
            .render(Format::SceneJson)
            .contains(r#"say \\\"hi\\\" \\\\ there"#));
    }

    /// The acceptance property of the scene rearchitecture: an entry
    /// served in all three geometric formats lays out exactly once — the
    /// `OnceLock`ed scene is built by the first format and pointer-shared
    /// by the rest (layout only ever runs inside that scene build).
    #[test]
    fn geometric_formats_share_one_scene() {
        let entry = compiled("SELECT F.person FROM Frequents F WHERE F.bar = 'Owl'");
        assert!(entry.scene.get().is_none(), "no layout before first render");
        entry.render(Format::Ascii);
        let scene = Arc::as_ptr(entry.scene());
        entry.render(Format::Svg);
        entry.render(Format::SceneJson);
        assert_eq!(
            scene,
            Arc::as_ptr(entry.scene()),
            "svg/scene_json re-laid-out instead of sharing the scene"
        );
        // Reading and dot don't need geometry and must not build it
        // eagerly either (checked by construction: they bypass scene()).
        assert_eq!(entry.rendered_formats().len(), 3);
    }

    #[test]
    fn scene_json_v2_len_is_the_document_length() {
        for request in crate::paper_corpus_requests(&[]) {
            let entry = compiled(&request.sql);
            assert_eq!(
                entry.scene_json_v2_len(),
                scene_json_v2(entry.scene()).len(),
                "{}",
                request.sql
            );
        }
    }

    #[test]
    fn entry_remembers_its_identity() {
        let entry = compiled("SELECT T.a FROM T");
        assert_eq!(entry.representative_sql(), "SELECT T.a FROM T");
        assert!(entry.stats().visual_elements() > 0);
        assert_eq!(
            entry.fingerprint_hex().as_ref(),
            entry.fingerprint().to_string()
        );
        assert_eq!(entry.fingerprint_hex().len(), 32);
    }
}
