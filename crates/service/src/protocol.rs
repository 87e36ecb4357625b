//! The JSON-lines request/response protocol of the `service` binary.
//!
//! One request per input line, one response per output line, matched by
//! `id`. Requests:
//!
//! ```json
//! {"id": 7, "sql": "SELECT T.a FROM T", "formats": ["ascii", "svg"]}
//! ```
//!
//! `id` defaults to the (zero-based) input line index and `formats` to the
//! front end's default format list; a list that names a format twice is a
//! `bad_request`. Responses carry the pattern fingerprint, the SQL
//! text-complexity word count (paper §4.8, from `queryvis_sql::metrics`),
//! and one artifact string per requested format:
//!
//! ```json
//! {"id":7,"fingerprint":"<32 hex>","sql_words":4,"artifacts":{"ascii":"..."}}
//! {"id":8,"error":"parse error: ...","error_kind":"compile"}
//! ```
//!
//! Failed requests carry a machine-readable `error_kind` next to the prose
//! `error` message, so clients and the fault-injection harness can react
//! to failure *classes* (`bad_request`, `compile`, `too_large`, `timeout`,
//! `overloaded`, `panic`, `draining`) without parsing text.
//!
//! When a request is served from a *different* query's compiled entry (a
//! pattern-equivalent representative), the response additionally carries
//! `"representative_sql"` so the substitution is visible to clients.
//!
//! An optional `"rows": n` request field opts into up to `n` sample
//! result rows next to the diagram (server-capped), computed by executing
//! the representative over its deterministic generated database. They
//! arrive as `"rows": [[…], …]` (with `"rows_truncated": true` when rows
//! were dropped), or as a `"rows_error"` string when the executor
//! declines — the diagram itself is still served.

use crate::fingerprint::Fingerprint;
use crate::json::{self, Json};
use std::sync::Arc;

/// An artifact format the service can serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    Ascii,
    Dot,
    Svg,
    /// The natural-language reading of the diagram (§4.6).
    Reading,
    /// The machine-readable [`Scene`](queryvis::layout::Scene) display
    /// list as one JSON document — what a browser client renders from.
    SceneJson,
}

impl Format {
    pub const ALL: [Format; 5] = [
        Format::Ascii,
        Format::Dot,
        Format::Svg,
        Format::Reading,
        Format::SceneJson,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Format::Ascii => "ascii",
            Format::Dot => "dot",
            Format::Svg => "svg",
            Format::Reading => "reading",
            Format::SceneJson => "scene_json",
        }
    }

    pub fn parse(name: &str) -> Option<Format> {
        Format::ALL.into_iter().find(|f| f.name() == name)
    }

    /// Read the comma-separated list of the `--format` flag both binaries
    /// take.
    pub fn parse_list(list: &str) -> Result<Vec<Format>, String> {
        read_formats(list.split(',').map(|name| {
            Format::parse(name.trim()).ok_or_else(|| format!("unknown format `{name}`"))
        }))
    }
}

/// The one reader of a format list, for request lines and the `--format`
/// flag alike: the first error wins, and a format named twice is an
/// error, since a reply would carry its artifact once per mention.
fn read_formats(
    formats: impl IntoIterator<Item = Result<Format, String>>,
) -> Result<Vec<Format>, String> {
    let mut list = Vec::new();
    for format in formats {
        let format = format?;
        if list.contains(&format) {
            return Err(format!("format `{}` is named twice", format.name()));
        }
        list.push(format);
    }
    Ok(list)
}

/// Machine-readable classification of a failed request, carried on the
/// wire as `error_kind`. The set is the protocol's failure vocabulary:
/// front ends map every failure onto exactly one kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// The line was not a well-formed request (bad JSON, wrong field
    /// shapes, unknown format or operation).
    BadRequest,
    /// The SQL failed inside the pipeline (lex, parse, validate,
    /// translate, or lower).
    Compile,
    /// The request line exceeded the front end's line budget. The
    /// offending line is consumed (and discarded) to its newline, so the
    /// connection survives.
    TooLarge,
    /// The client did not deliver a complete request line within the read
    /// deadline (slowloris protection); the connection is closed after
    /// this response.
    Timeout,
    /// Admission control shed this connection under overload instead of
    /// queueing it; retry against a less-loaded server.
    Overloaded,
    /// The compile panicked. The fault was isolated to this request — the
    /// connection and the process survive.
    Panic,
    /// The server is draining toward shutdown and no longer serves new
    /// requests.
    Draining,
}

impl ErrorKind {
    pub const ALL: [ErrorKind; 7] = [
        ErrorKind::BadRequest,
        ErrorKind::Compile,
        ErrorKind::TooLarge,
        ErrorKind::Timeout,
        ErrorKind::Overloaded,
        ErrorKind::Panic,
        ErrorKind::Draining,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Compile => "compile",
            ErrorKind::TooLarge => "too_large",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Panic => "panic",
            ErrorKind::Draining => "draining",
        }
    }

    pub fn parse(name: &str) -> Option<ErrorKind> {
        ErrorKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// A classified request failure: the `error` / `error_kind` pair of a
/// failed response line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError {
    pub kind: ErrorKind,
    pub message: String,
}

impl ServiceError {
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> ServiceError {
        ServiceError {
            kind,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// One unit of work for the service.
#[derive(Debug, Clone)]
pub struct Request {
    pub id: u64,
    pub sql: String,
    /// Requested artifact formats; empty means "use the service default".
    pub formats: Vec<Format>,
    /// Opt-in sample rows: `Some(n)` asks for up to `n` example result
    /// rows next to the diagram, executed over deterministic generated
    /// data (capped server-side).
    pub rows: Option<usize>,
}

impl Request {
    /// Parse one JSON line. `default_id` is the line index, used when the
    /// request does not carry an explicit `id`.
    pub fn from_json_line(line: &str, default_id: u64) -> Result<Request, String> {
        let value = json::parse(line).map_err(|e| e.to_string())?;
        Request::from_json(&value, default_id)
    }

    /// Read a request from an already parsed line.
    pub fn from_json(value: &Json, default_id: u64) -> Result<Request, String> {
        let sql = value
            .get("sql")
            .and_then(Json::as_str)
            .ok_or_else(|| "request needs a string `sql` field".to_string())?
            .to_string();
        let id = match value.get("id") {
            None => default_id,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| "`id` must be a non-negative integer".to_string())?,
        };
        let formats = match value.get("formats") {
            None => Vec::new(),
            Some(v) => read_formats(
                v.as_arr()
                    .ok_or_else(|| "`formats` must be an array".to_string())?
                    .iter()
                    .map(|f| {
                        f.as_str()
                            .and_then(Format::parse)
                            .ok_or_else(|| format!("unknown format {f}"))
                    }),
            )?,
        };
        let rows = match value.get("rows") {
            None => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| "`rows` must be a non-negative integer".to_string())?
                    as usize,
            ),
        };
        Ok(Request {
            id,
            sql,
            formats,
            rows,
        })
    }
}

/// The successful payload of a response.
///
/// Every string in here is an `Arc<str>` **shared with the cache entry**
/// that served the request — building a response copies pointers, never
/// artifact text. The bytes on the wire are produced straight from these
/// shared strings by [`Response::write_json_line`]: the artifacts are
/// stored as JSON string literals and copied, the short fields are raw
/// and escaped on write.
#[derive(Debug, Clone)]
pub struct Artifacts {
    pub fingerprint: Fingerprint,
    /// The fingerprint's 32-character hex form, rendered once per cache
    /// entry and shared by every response it serves.
    pub fingerprint_hex: Arc<str>,
    /// Word count of this request's own SQL (not the representative's).
    pub sql_words: usize,
    /// The SQL of the pattern representative the artifacts were rendered
    /// from, when it is *not* this request's own SQL. Pattern-equivalent
    /// queries deliberately share one diagram (paper App. G), so artifact
    /// label text (table names, aliases, constants) comes from the
    /// representative; this field is the disclosure that lets clients
    /// detect the substitution.
    pub representative_sql: Option<Arc<str>>,
    /// `(format, literal)` in request order. Each string is the artifact
    /// as a JSON string literal, quotes and escapes included, exactly as
    /// the reply line carries it; [`json::parse`] decodes it to the raw
    /// text as a [`Json::Str`].
    pub rendered: Vec<(Format, Arc<str>)>,
    /// Sample result rows, present only when the request opted in via
    /// `rows`. Row fragments are pre-rendered JSON arrays shared with the
    /// cache entry.
    pub sample_rows: Option<SampleOutcome>,
}

/// Outcome of the opt-in sample-rows execution for one response.
#[derive(Debug, Clone)]
pub enum SampleOutcome {
    Rows {
        /// Pre-rendered JSON array fragments, one per row.
        rows: Vec<Arc<str>>,
        /// True when rows were dropped by the request's count or the
        /// server cap.
        truncated: bool,
    },
    /// The executor declined (work budget, fragment limits): the diagram
    /// is still served; the failure rides along as `rows_error`.
    Error(Arc<str>),
}

/// One response line.
#[derive(Debug, Clone)]
pub struct Response {
    pub id: u64,
    pub outcome: Result<Artifacts, ServiceError>,
}

impl Response {
    /// A compile-class error response (the historical default: every
    /// pipeline failure is a `compile` error). Use [`Response::error_kind`]
    /// for the other failure classes.
    pub fn error(id: u64, message: impl Into<String>) -> Response {
        Response::error_kind(id, ErrorKind::Compile, message)
    }

    pub fn error_kind(id: u64, kind: ErrorKind, message: impl Into<String>) -> Response {
        Response {
            id,
            outcome: Err(ServiceError::new(kind, message)),
        }
    }

    /// Serialize as one JSON line (no trailing newline) into `out`,
    /// straight from the shared `Arc<str>`s — no intermediate [`Json`]
    /// tree, no per-field `String`s. Each artifact is already a JSON
    /// string literal, so it is appended with one copy and never escaped
    /// here; only the short raw fields (fingerprint, representative SQL,
    /// `rows_error`, error message) go through [`json::escape_into`].
    /// Callers on the output hot path keep one reusable buffer per worker
    /// and `clear()` it between lines.
    pub fn write_json_line(&self, out: &mut String) {
        out.push_str("{\"id\":");
        json::write_u64(out, self.id);
        match &self.outcome {
            Ok(artifacts) => {
                out.push_str(",\"fingerprint\":");
                json::escape_into(out, &artifacts.fingerprint_hex);
                out.push_str(",\"sql_words\":");
                json::write_u64(out, artifacts.sql_words as u64);
                if let Some(representative) = &artifacts.representative_sql {
                    out.push_str(",\"representative_sql\":");
                    json::escape_into(out, representative);
                }
                out.push_str(",\"artifacts\":{");
                for (i, (format, literal)) in artifacts.rendered.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    json::escape_into(out, format.name());
                    out.push(':');
                    out.push_str(literal);
                }
                out.push('}');
                match &artifacts.sample_rows {
                    None => {}
                    Some(SampleOutcome::Rows { rows, truncated }) => {
                        out.push_str(",\"rows\":[");
                        for (i, row) in rows.iter().enumerate() {
                            if i > 0 {
                                out.push(',');
                            }
                            // Fragments are already JSON arrays — emitted
                            // raw, not re-escaped.
                            out.push_str(row);
                        }
                        out.push(']');
                        if *truncated {
                            out.push_str(",\"rows_truncated\":true");
                        }
                    }
                    Some(SampleOutcome::Error(message)) => {
                        out.push_str(",\"rows_error\":");
                        json::escape_into(out, message);
                    }
                }
                out.push('}');
            }
            Err(error) => {
                out.push_str(",\"error\":");
                json::escape_into(out, &error.message);
                out.push_str(",\"error_kind\":");
                json::escape_into(out, error.kind.name());
                out.push('}');
            }
        }
    }

    /// [`Response::write_json_line`] into a fresh `String` (tests and
    /// one-off callers; the service binary reuses a buffer instead).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(64);
        self.write_json_line(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_defaults() {
        let r = Request::from_json_line(r#"{"sql": "SELECT T.a FROM T"}"#, 9).unwrap();
        assert_eq!(r.id, 9);
        assert_eq!(r.sql, "SELECT T.a FROM T");
        assert!(r.formats.is_empty());
    }

    #[test]
    fn request_explicit_fields() {
        let r = Request::from_json_line(
            r#"{"id": 3, "sql": "SELECT T.a FROM T", "formats": ["svg", "dot"]}"#,
            0,
        )
        .unwrap();
        assert_eq!(r.id, 3);
        assert_eq!(r.formats, vec![Format::Svg, Format::Dot]);
    }

    #[test]
    fn request_rejects_bad_shapes() {
        assert!(Request::from_json_line("{}", 0).is_err());
        assert!(Request::from_json_line(r#"{"sql": 7}"#, 0).is_err());
        assert!(Request::from_json_line(r#"{"sql": "x", "formats": ["png"]}"#, 0).is_err());
        assert!(Request::from_json_line("not json", 0).is_err());
    }

    #[test]
    fn a_format_named_twice_is_rejected() {
        let line = r#"{"id": 4, "sql": "SELECT T.a FROM T", "formats": ["svg", "ascii", "svg"]}"#;
        let value = json::parse(line).unwrap();
        assert_eq!(
            Request::from_json(&value, 0).unwrap_err(),
            "format `svg` is named twice"
        );
        assert_eq!(
            Format::parse_list("svg, svg").unwrap_err(),
            "format `svg` is named twice"
        );
        assert_eq!(
            Format::parse_list("ascii,svg").unwrap(),
            vec![Format::Ascii, Format::Svg]
        );
        assert_eq!(
            Format::parse_list("ascii,png").unwrap_err(),
            "unknown format `png`"
        );
    }

    fn hex(fingerprint: Fingerprint) -> Arc<str> {
        fingerprint.to_string().into()
    }

    #[test]
    fn response_lines_are_single_line_json() {
        let ok = Response {
            id: 1,
            outcome: Ok(Artifacts {
                fingerprint: Fingerprint(0xff),
                fingerprint_hex: hex(Fingerprint(0xff)),
                sql_words: 4,
                representative_sql: None,
                rendered: vec![(Format::Ascii, r#""a\nb""#.into())],
                sample_rows: None,
            }),
        };
        let line = ok.to_json_line();
        assert!(!line.contains('\n'));
        let parsed = crate::json::parse(&line).unwrap();
        assert_eq!(parsed.get("id").unwrap().as_u64(), Some(1));
        assert_eq!(
            parsed
                .get("artifacts")
                .unwrap()
                .get("ascii")
                .unwrap()
                .as_str(),
            Some("a\nb")
        );

        assert!(
            parsed.get("representative_sql").is_none(),
            "omitted when the artifacts come from the request's own SQL"
        );

        let err = Response::error(2, "boom").to_json_line();
        let parsed = crate::json::parse(&err).unwrap();
        assert_eq!(parsed.get("error").unwrap().as_str(), Some("boom"));
        assert_eq!(parsed.get("error_kind").unwrap().as_str(), Some("compile"));
    }

    #[test]
    fn error_kinds_roundtrip_and_reach_the_wire() {
        for kind in ErrorKind::ALL {
            assert_eq!(ErrorKind::parse(kind.name()), Some(kind));
            let line = Response::error_kind(3, kind, "x").to_json_line();
            let parsed = crate::json::parse(&line).unwrap();
            assert_eq!(
                parsed.get("error_kind").unwrap().as_str(),
                Some(kind.name())
            );
        }
        assert_eq!(ErrorKind::parse("nope"), None);
    }

    #[test]
    fn representative_sql_is_disclosed_when_substituted() {
        let response = Response {
            id: 4,
            outcome: Ok(Artifacts {
                fingerprint: Fingerprint(1),
                fingerprint_hex: hex(Fingerprint(1)),
                sql_words: 4,
                representative_sql: Some("SELECT T.a FROM T".into()),
                rendered: Vec::new(),
                sample_rows: None,
            }),
        };
        let parsed = crate::json::parse(&response.to_json_line()).unwrap();
        assert_eq!(
            parsed.get("representative_sql").unwrap().as_str(),
            Some("SELECT T.a FROM T")
        );
    }

    #[test]
    fn rows_request_field_parses_and_rejects_bad_shapes() {
        let r = Request::from_json_line(r#"{"sql": "SELECT T.a FROM T"}"#, 0).unwrap();
        assert_eq!(r.rows, None);
        let r = Request::from_json_line(r#"{"sql": "SELECT T.a FROM T", "rows": 5}"#, 0).unwrap();
        assert_eq!(r.rows, Some(5));
        assert!(Request::from_json_line(r#"{"sql": "x", "rows": "many"}"#, 0).is_err());
        assert!(Request::from_json_line(r#"{"sql": "x", "rows": -1}"#, 0).is_err());
    }

    #[test]
    fn sample_rows_reach_the_wire_as_raw_json() {
        let response = Response {
            id: 5,
            outcome: Ok(Artifacts {
                fingerprint: Fingerprint(2),
                fingerprint_hex: hex(Fingerprint(2)),
                sql_words: 4,
                representative_sql: None,
                rendered: vec![(Format::Ascii, r#""d""#.into())],
                sample_rows: Some(SampleOutcome::Rows {
                    rows: vec!["[1,\"a\",null]".into(), "[2,\"b\",null]".into()],
                    truncated: true,
                }),
            }),
        };
        let line = response.to_json_line();
        assert!(!line.contains('\n'));
        let parsed = crate::json::parse(&line).unwrap();
        let rows = parsed.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].as_arr().unwrap()[1].as_str(), Some("a"));
        assert_eq!(rows[0].as_arr().unwrap()[2], crate::json::Json::Null);
        assert_eq!(
            parsed.get("rows_truncated").and_then(|v| match v {
                crate::json::Json::Bool(b) => Some(*b),
                _ => None,
            }),
            Some(true)
        );

        let err = Response {
            id: 6,
            outcome: Ok(Artifacts {
                fingerprint: Fingerprint(2),
                fingerprint_hex: hex(Fingerprint(2)),
                sql_words: 4,
                representative_sql: None,
                rendered: Vec::new(),
                sample_rows: Some(SampleOutcome::Error("execution budget exceeded".into())),
            }),
        };
        let parsed = crate::json::parse(&err.to_json_line()).unwrap();
        assert_eq!(
            parsed.get("rows_error").unwrap().as_str(),
            Some("execution budget exceeded")
        );
        assert!(parsed.get("rows").is_none());
    }

    #[test]
    fn format_names_roundtrip() {
        for f in Format::ALL {
            assert_eq!(Format::parse(f.name()), Some(f));
        }
        assert_eq!(Format::parse("png"), None);
    }
}
