//! One request line in, one reply line out: the wire protocol both front
//! ends speak, minus framing.
//!
//! The stdin `service` binary and the TCP [`crate::server`] read lines
//! through the same [`crate::net::LineReader`] and hand each one, in
//! order, to [`Frontend::serve_line`], so the two answer any line with the
//! same bytes. The line's JSON is parsed once and routed to one of three
//! handlers:
//!
//! * a plain request (no `op` key) → [`DiagramService::handle`];
//! * a session op (`open`, `edit`, `close`) → [`SessionStore`];
//! * a control op: `ping`, `stats`, `shutdown`.
//!
//! Any other `op` is a `bad_request`. Every reply echoes the line's own
//! `id` when it is a non-negative integer, and the line index otherwise
//! (always for lines that are not JSON at all).

use crate::json::{self, Json};
use crate::protocol::{ErrorKind, Request, Response};
use crate::service::DiagramService;
use crate::session::{SessionConfig, SessionStore};
use crate::stats_json::{service_stats_json, session_stats_json, telemetry_json};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// What [`Frontend::serve_line`] left for its caller to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// The reply line is in the buffer (no trailing newline).
    Reply,
    /// A `{"op":"stats"}` line: the caller builds the reply with
    /// [`Frontend::stats_reply`], adding its own section if it has one.
    Stats,
    /// The shutdown ack is in the buffer: write it, then stop serving.
    Shutdown,
}

/// The diagram service and the edit sessions one front end serves.
pub struct Frontend {
    pub service: Arc<DiagramService>,
    pub sessions: SessionStore,
}

impl Frontend {
    pub fn new(service: Arc<DiagramService>) -> Frontend {
        Frontend {
            sessions: SessionStore::new(Arc::clone(&service), SessionConfig::default()),
            service,
        }
    }

    /// Serve one non-blank request line into `out` (cleared first).
    /// `line_id` is the line's index, the reply id when the line names
    /// none; `owner` scopes the sessions the line opens. A panic anywhere
    /// in handling fails this line alone with a `panic` reply.
    pub fn serve_line(&self, text: &str, line_id: u64, owner: u64, out: &mut String) -> Served {
        out.clear();
        catch_unwind(AssertUnwindSafe(|| self.route(text, line_id, owner, out))).unwrap_or_else(
            |_| {
                out.clear();
                Response::error_kind(
                    line_id,
                    ErrorKind::Panic,
                    "request handling panicked; the fault was isolated to this request",
                )
                .write_json_line(out);
                Served::Reply
            },
        )
    }

    fn route(&self, text: &str, line_id: u64, owner: u64, out: &mut String) -> Served {
        let value = match json::parse(text) {
            Ok(value) => value,
            Err(e) => {
                bad_request(line_id, format!("bad request: {e}"), out);
                return Served::Reply;
            }
        };
        let id = value.get("id").and_then(Json::as_u64).unwrap_or(line_id);
        match value.get("op").and_then(Json::as_str) {
            None => match Request::from_json(&value, id) {
                Ok(request) => self.service.handle(&request).write_json_line(out),
                Err(message) => bad_request(id, format!("bad request: {message}"), out),
            },
            Some("open" | "edit" | "close") => {
                out.push_str(&self.sessions.dispatch_value(&value, line_id, owner));
            }
            Some("ping") => out.push_str("{\"op\":\"ping\",\"ok\":true}"),
            Some("stats") => return Served::Stats,
            Some("shutdown") => {
                out.push_str("{\"op\":\"shutdown\",\"draining\":true}");
                return Served::Shutdown;
            }
            Some(other) => bad_request(
                id,
                format!("unknown op `{other}` (ping, stats, shutdown, open, edit, close)"),
                out,
            ),
        }
        Served::Reply
    }

    /// The `{"op":"stats"}` reply into `out` (cleared first): the
    /// caller's own `server` section, when it has one, then the service,
    /// session and telemetry snapshots.
    pub fn stats_reply(&self, server: Option<Json>, out: &mut String) {
        let mut fields = vec![("op".to_string(), Json::Str("stats".to_string()))];
        if let Some(server) = server {
            fields.push(("server".to_string(), server));
        }
        fields.extend([
            (
                "service".to_string(),
                service_stats_json(&self.service.stats()),
            ),
            (
                "sessions".to_string(),
                session_stats_json(&self.sessions.snapshot()),
            ),
            (
                "telemetry".to_string(),
                telemetry_json(&queryvis_telemetry::global().snapshot()),
            ),
        ]);
        out.clear();
        out.push_str(&Json::Obj(fields).to_string());
    }
}

/// The reply to a line longer than the `max_line` budget, into `out`
/// (cleared first). `len` is how much of it had arrived when it tripped
/// the budget, which depends on read chunking.
pub fn too_large_reply(line_id: u64, max_line: usize, len: usize, out: &mut String) {
    out.clear();
    Response::error_kind(
        line_id,
        ErrorKind::TooLarge,
        format!("request line exceeded the {max_line} byte budget (received at least {len})"),
    )
    .write_json_line(out);
}

fn bad_request(id: u64, message: String, out: &mut String) {
    Response::error_kind(id, ErrorKind::BadRequest, message).write_json_line(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;

    fn frontend() -> Frontend {
        Frontend::new(Arc::new(DiagramService::new(ServiceConfig::default())))
    }

    fn reply(frontend: &Frontend, text: &str, line_id: u64) -> (Served, Json) {
        let mut out = String::new();
        let served = frontend.serve_line(text, line_id, 0, &mut out);
        let value = json::parse(&out).unwrap_or_else(|e| panic!("reply is not JSON ({e}): {out}"));
        (served, value)
    }

    fn id_and_kind(value: &Json) -> (Option<u64>, Option<&str>) {
        (
            value.get("id").and_then(Json::as_u64),
            value.get("error_kind").and_then(Json::as_str),
        )
    }

    #[test]
    fn replies_echo_the_lines_own_id() {
        let frontend = frontend();
        for (line, want) in [
            (r#"{"op":"frobnicate","id":5,"sql":"SELECT T.a FROM T"}"#, 5),
            (r#"{"id":9,"sql":7}"#, 9),
            (r#"{"id":-1,"sql":"SELECT T.a FROM T"}"#, 3),
            (r#"{"id":"x","sql":7}"#, 3),
            ("{{{not json", 3),
        ] {
            let (served, value) = reply(&frontend, line, 3);
            assert_eq!(served, Served::Reply);
            assert_eq!(
                id_and_kind(&value),
                (Some(want), Some("bad_request")),
                "{line}"
            );
        }
        let (_, value) = reply(&frontend, r#"{"id":12,"sql":"SELECT T.a FROM T"}"#, 3);
        assert_eq!(id_and_kind(&value), (Some(12), None));
        let (_, value) = reply(&frontend, r#"{"sql":"SELECT T.a FROM T"}"#, 3);
        assert_eq!(id_and_kind(&value), (Some(3), None));
    }

    #[test]
    fn control_ops_route_apart_from_requests() {
        let frontend = frontend();
        let mut out = String::new();
        assert_eq!(
            frontend.serve_line(r#"{"op":"ping"}"#, 0, 0, &mut out),
            Served::Reply
        );
        assert_eq!(out, r#"{"op":"ping","ok":true}"#);
        assert_eq!(
            frontend.serve_line(r#"{"op":"stats"}"#, 1, 0, &mut out),
            Served::Stats
        );
        assert!(out.is_empty(), "the caller builds the stats reply");
        assert_eq!(
            frontend.serve_line(r#"{"op":"shutdown"}"#, 2, 0, &mut out),
            Served::Shutdown
        );
        assert_eq!(out, r#"{"op":"shutdown","draining":true}"#);

        frontend.stats_reply(None, &mut out);
        let doc = json::parse(&out).unwrap();
        assert!(doc.get("server").is_none());
        for key in ["service", "sessions", "telemetry"] {
            assert!(doc.get(key).is_some(), "{key} missing");
        }
        frontend.stats_reply(Some(Json::Obj(Vec::new())), &mut out);
        assert!(json::parse(&out).unwrap().get("server").is_some());
    }
}
