//! `edit_session`: live editing. One editor keeps a session open per base
//! query and replays seeded keystroke traces through the session wire
//! ops: in every session, typing appended at the end, a predicate
//! inserted mid-query, and a same-length table rename. Every trace
//! returns its buffer to the base text, so rounds repeat exactly. As in a real editor, most intermediate
//! buffers do not parse. Replies carry scene patches or full resyncs
//! instead of rendered artifacts.

use crate::inputs::{self, EditInputs, Scale};
use crate::measure::{digest, fold, Recorder};
use crate::trace::{Layer, Tracer};
use crate::workload::{serve_line, Budget, Phase, ServiceDelta, Workload};
use queryvis::layout::Scene;
use queryvis::sql::parse_query_expr;
use queryvis::{QueryVis, QueryVisOptions};
use queryvis_service::json::{self, Json};
use queryvis_service::{
    apply_patch, diff_scenes, fingerprint_prepared, fingerprint_sql, parse_patch_ops,
    scene_json_v2, write_patch_ops, DiagramService, ErrorKind, Fingerprint, Response,
    ServiceConfig, SessionConfig, SessionStore,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The connection every session belongs to (the stdin front end's owner).
const OWNER: u64 = 0;

pub struct Edit {
    inputs: EditInputs,
    open_lines: Vec<String>,
}

impl Edit {
    pub fn new(seed: u64, scale: &Scale) -> Edit {
        let inputs = inputs::edit(seed, scale);
        let open_lines = inputs
            .sessions
            .iter()
            .enumerate()
            .map(|(i, s)| inputs::open_line(i as u64, &s.base))
            .collect();
        let keys: usize = inputs.sessions.iter().map(|s| s.trace.len()).sum();
        eprintln!(
            "edit_session: {} sessions, {} keystrokes per round, dropped {:?}",
            inputs.sessions.len(),
            keys,
            inputs.dropped
        );
        Edit { inputs, open_lines }
    }
}

pub struct EditState {
    service: Arc<DiagramService>,
    store: SessionStore,
    /// Server-assigned session id per base query.
    ids: Vec<u64>,
    checker: Option<Checker>,
}

/// The per-line path of a session op, minus framing.
fn dispatch(store: &SessionStore, line: &str, id: u64) -> String {
    match json::parse(line) {
        Ok(value) => store.dispatch_value(&value, id, OWNER),
        Err(e) => Response::error_kind(id, ErrorKind::BadRequest, format!("bad request: {e}"))
            .to_json_line(),
    }
}

impl Workload for Edit {
    type State = EditState;

    /// Open every session, then replay every trace once.
    fn setup(&self) -> EditState {
        let service = Arc::new(DiagramService::new(ServiceConfig::default()));
        let store = SessionStore::new(Arc::clone(&service), SessionConfig::default());
        let ids: Vec<u64> = self
            .open_lines
            .iter()
            .enumerate()
            .map(|(i, line)| {
                let reply = dispatch(&store, line, i as u64);
                json::parse(&reply)
                    .ok()
                    .and_then(|r| r.get("session").and_then(Json::as_u64))
                    .expect("every base query opens a session")
            })
            .collect();
        let mut line = String::new();
        for (session, &sid) in self.inputs.sessions.iter().zip(&ids) {
            for (k, key) in session.trace.iter().enumerate() {
                inputs::edit_line(k as u64, sid, key, &mut line);
                dispatch(&store, &line, k as u64);
            }
        }
        EditState {
            service,
            store,
            ids,
            checker: None,
        }
    }

    fn phase(&self, state: &mut EditState, budget: Budget, trace: bool) -> Phase {
        let mut checker = match state.checker.take() {
            Some(checker) => checker,
            None => Checker::new(&self.inputs, &state.service),
        };
        let options = Arc::new(QueryVisOptions::default());
        // The replay's view of each session's last acknowledged scene.
        let mut replay_scenes: Vec<Option<Arc<Scene>>> = self
            .inputs
            .sessions
            .iter()
            .map(|s| entry_scene(&state.service, &s.base))
            .collect();
        let before = state.service.stats();
        let started = Instant::now();
        let round_len = self.inputs.sessions.iter().map(|s| s.trace.len()).sum();
        let mut recorder = Recorder::new(round_len);
        let mut tracer = trace.then(|| Tracer::new(0, started));
        let (mut line, mut scratch) = (String::new(), String::new());
        let mut phase = Phase {
            clients: Vec::new(),
            tracer: None,
            attempted: 0,
            failed: 0,
            digest: 0,
            service: ServiceDelta::default(),
            session_ok: 0,
            session_patched: 0,
        };
        let mut rounds = 0;
        while budget.another_round(started, rounds) {
            let mut id = 0u64;
            for (s, session) in self.inputs.sessions.iter().enumerate() {
                for key in &session.trace {
                    inputs::edit_line(id, state.ids[s], key, &mut line);
                    key.apply(&mut checker.texts[s]);
                    let op = phase.attempted as u32;
                    let (t0, reply, t1) = match tracer.as_mut() {
                        None => {
                            let t0 = Instant::now();
                            let reply = dispatch(&state.store, &line, id);
                            (t0, reply, Instant::now())
                        }
                        Some(tr) => traced_dispatch(tr, op, &state.store, &line, id),
                    };
                    recorder.record((t1 - t0).as_nanos() as u64, reply.len());
                    phase.attempted += 1;
                    match checker.check(s, &reply) {
                        Verdict::Failed => phase.failed += 1,
                        Verdict::Refused => {}
                        Verdict::Compiled { patched } => {
                            phase.session_ok += 1;
                            phase.session_patched += u64::from(patched);
                        }
                    }
                    phase.digest = fold(phase.digest, digest(reply.as_bytes()));
                    if let Some(tr) = tracer.as_mut() {
                        tr.record(op, Layer::Op, t0, t1);
                        let text = &checker.texts[s];
                        let last = &mut replay_scenes[s];
                        replay(
                            tr,
                            op,
                            &line,
                            &reply,
                            text,
                            state,
                            last,
                            &options,
                            &mut scratch,
                        );
                    }
                    id += 1;
                }
            }
            recorder.end_round();
            rounds += 1;
        }
        phase.clients.push(recorder);
        phase.tracer = tracer;
        phase.service = ServiceDelta::between(&before, &state.service.stats());
        state.checker = Some(checker);
        phase
    }

    fn input_digest(&self) -> u64 {
        let mut acc = 0;
        for session in &self.inputs.sessions {
            acc = fold(acc, digest(session.base.as_bytes()));
            for key in &session.trace {
                let packed = ((key.at as u64) << 8) | key.del as u64;
                acc = fold(fold(acc, packed), digest(key.ins.as_bytes()));
            }
        }
        acc
    }
}

/// [`dispatch`] with `dispatch_value` timed as its own span.
fn traced_dispatch(
    tr: &mut Tracer,
    op: u32,
    store: &SessionStore,
    line: &str,
    id: u64,
) -> (Instant, String, Instant) {
    let t0 = Instant::now();
    let reply = match json::parse(line) {
        Ok(value) => {
            let d0 = Instant::now();
            let reply = store.dispatch_value(&value, id, OWNER);
            tr.record(op, Layer::SessionEdit, d0, Instant::now());
            reply
        }
        Err(e) => Response::error_kind(id, ErrorKind::BadRequest, format!("bad request: {e}"))
            .to_json_line(),
    };
    (t0, reply, Instant::now())
}

/// The scene of the service's entry for `sql`'s pattern.
fn entry_scene(service: &DiagramService, sql: &str) -> Option<Arc<Scene>> {
    let fq = fingerprint_sql(sql, QueryVisOptions::default()).ok()?;
    let entry = service.cache().peek(fq.fingerprint)?;
    Some(Arc::clone(entry.scene()))
}

/// Replay one edit: the protocol parse, the frontend stages the reply's
/// `path` says the session ran, and the scene serialization and diff
/// every successful edit pays; then, outside the op, a plain request for
/// the same buffer text.
#[allow(clippy::too_many_arguments)]
fn replay(
    tr: &mut Tracer,
    op: u32,
    line: &str,
    reply: &str,
    text: &str,
    state: &EditState,
    last: &mut Option<Arc<Scene>>,
    options: &Arc<QueryVisOptions>,
    buf: &mut String,
) {
    let _ = tr.span(op, Layer::ProtocolParse, || json::parse(line));
    let Ok(reply) = json::parse(reply) else {
        return;
    };
    let compiled = reply.get("error").is_none();
    let path = reply.get("path").and_then(Json::as_str);
    if !compiled || !matches!(path, Some("tokens")) {
        if let Ok(expr) = tr.span(op, Layer::SqlParse, || parse_query_expr(text)) {
            if let Ok(prepared) = tr.span(op, Layer::LogicLower, || {
                QueryVis::prepare_parsed(text, expr, Arc::clone(options))
            }) {
                tr.span(op, Layer::Canonicalize, || fingerprint_prepared(prepared));
            }
        }
    }
    let fingerprint = reply
        .get("fingerprint")
        .and_then(Json::as_str)
        .and_then(|hex| u128::from_str_radix(hex, 16).ok());
    let entry = fingerprint.and_then(|fp| state.service.cache().peek(Fingerprint(fp)));
    if let (true, Some(entry)) = (compiled, entry) {
        let scene = Arc::clone(entry.scene());
        tr.span(op, Layer::SceneJsonV2, || scene_json_v2(&scene));
        if let Some(old) = last.as_ref() {
            tr.span(op, Layer::SceneDiff, || {
                diff_scenes(old, &scene).map(|ops| {
                    buf.clear();
                    write_patch_ops(buf, &ops)
                })
            });
        }
        *last = Some(scene);
    }
    let plain = inputs::request_line(0, text, r#"["scene_json"]"#);
    let p0 = Instant::now();
    serve_line(&state.service, &plain, 0, buf);
    tr.record(op, Layer::SessionPlain, p0, Instant::now());
}

enum Verdict {
    Failed,
    /// A compile error on a buffer a plain request also refuses.
    Refused,
    Compiled {
        patched: bool,
    },
}

/// A shadow client: it tracks every session's buffer and last
/// acknowledged scene, and holds each reply to what a plain request for
/// the same text and the library facade would give.
struct Checker {
    texts: Vec<String>,
    scenes: Vec<Scene>,
    /// Plain-request fingerprint per buffer text (by digest); `None` when
    /// the plain request is refused.
    plain: HashMap<u64, Option<Fingerprint>>,
    /// Digest of the facade's `scene_json_v2` per representative text.
    facade: HashMap<u64, u64>,
}

impl Checker {
    /// After set-up every buffer is back at its base text, showing the
    /// scene of its pattern's representative.
    fn new(inputs: &EditInputs, service: &DiagramService) -> Checker {
        let scenes = inputs
            .sessions
            .iter()
            .map(|s| {
                let fq = fingerprint_sql(&s.base, QueryVisOptions::default())
                    .expect("base queries compile");
                let entry = service
                    .cache()
                    .peek(fq.fingerprint)
                    .expect("set-up compiled it");
                facade_scene(entry.representative_sql()).expect("representatives compile")
            })
            .collect();
        Checker {
            texts: inputs.sessions.iter().map(|s| s.base.clone()).collect(),
            scenes,
            plain: HashMap::new(),
            facade: HashMap::new(),
        }
    }

    fn check(&mut self, s: usize, line: &str) -> Verdict {
        match self.verify(s, line) {
            Some(verdict) => verdict,
            None => Verdict::Failed,
        }
    }

    fn verify(&mut self, s: usize, line: &str) -> Option<Verdict> {
        let reply = json::parse(line).ok()?;
        let text = &self.texts[s];
        let plain = *self
            .plain
            .entry(digest(text.as_bytes()))
            .or_insert_with(|| {
                fingerprint_sql(text, QueryVisOptions::default())
                    .ok()
                    .map(|fq| fq.fingerprint)
            });
        if reply.get("error").is_some() {
            let compile_error = reply.get("error_kind")?.as_str()? == ErrorKind::Compile.name();
            return (compile_error && plain.is_none()).then_some(Verdict::Refused);
        }
        let fingerprint = plain?.to_string();
        if reply.get("fingerprint")?.as_str()? != fingerprint {
            return None;
        }
        let representative = match reply.get("representative_sql") {
            Some(rep) => rep.as_str()?,
            None => text.as_str(),
        };
        let rep_key = digest(representative.as_bytes());
        let expected = match self.facade.get(&rep_key) {
            Some(d) => *d,
            None => {
                let d = digest(scene_json_v2(&facade_scene(representative)?).as_bytes());
                self.facade.insert(rep_key, d);
                d
            }
        };
        let (next, patched) = match (reply.get("patch"), reply.get("scene")) {
            (Some(patch), None) => {
                let ops = parse_patch_ops(patch.as_arr()?).ok()?;
                (apply_patch(&self.scenes[s], &ops).ok()?, true)
            }
            (None, Some(scene)) => {
                let fresh = facade_scene(representative)?;
                let fresh_doc = json::parse(&scene_json_v2(&fresh)).ok()?;
                (*scene == fresh_doc).then_some((fresh, false))?
            }
            _ => return None,
        };
        if digest(scene_json_v2(&next).as_bytes()) != expected {
            return None;
        }
        self.scenes[s] = next;
        Some(Verdict::Compiled { patched })
    }
}

/// The scene the library facade composes for `sql`.
fn facade_scene(sql: &str) -> Option<Scene> {
    let qv = QueryVis::from_sql(sql).ok()?;
    let scene = qv.scene();
    Some(Scene::clone(&scene))
}
