//! Live-editing sessions (DESIGN.md §9).
//!
//! A session pins one SQL buffer server-side. The client opens it once
//! (`{"op":"open","sql":…}`), then streams byte-range edits
//! (`{"op":"edit","session":S,"edits":[{"at":O,"del":N,"ins":T}]}`)
//! instead of re-sending the whole text per keystroke. The server applies
//! each edit to its copy of the buffer with [`apply_edit`] and serves the
//! result through the path a plain request takes
//! (`DiagramService::resolve`): the L1 memo answers texts it has seen
//! (modulo whitespace, comments and keyword case), anything else runs the
//! frontend and the L2 cache. A session reply therefore carries exactly
//! the plain reply's fingerprint, word count, `representative_sql`
//! disclosure and error text.
//!
//! Scenes are serialized as `scene_json` v2 (stable mark ids); an `edit`
//! response carries either a [`crate::scene_diff`] patch against the
//! session's last acknowledged scene or a full-scene resync when the patch
//! would not be smaller (or the branch structure changed).
//!
//! Sessions are bounded ([`SessionConfig`]): at most `max_sessions` live
//! at once (least-recently-used is evicted), each buffer capped at
//! `max_source_bytes`. A transient parse error keeps the session (and
//! its edited buffer) alive — the next edit may recover — and keeps the
//! last acknowledged scene, so the recovery reply patches from it.

use crate::fingerprint::Fingerprint;
use crate::json::{escape_into, write_u64, Json};
use crate::protocol::{ErrorKind, ServiceError};
use crate::scene_diff::{diff_scenes, write_patch_ops};
use crate::scene_json::scene_json_v2;
use crate::service::DiagramService;
use queryvis::layout::Scene;
use queryvis_sql::{apply_edit, Edit};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Bounds on per-session server state.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Concurrent open sessions; opening one more evicts the
    /// least-recently-used.
    pub max_sessions: usize,
    /// Byte cap on a session's source buffer; an `open` or `edit` that
    /// would exceed it is refused with a `too_large` error (the buffer is
    /// left unchanged).
    pub max_source_bytes: usize,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            max_sessions: 64,
            max_source_bytes: 64 * 1024,
        }
    }
}

/// Counter snapshot for the `sessions` stats section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStatsSnapshot {
    /// Sessions open right now.
    pub open: u64,
    pub opened_total: u64,
    pub closed: u64,
    /// Closed by LRU eviction (a new `open` needed the slot).
    pub evicted: u64,
    /// Closed because their connection went away without `close`.
    pub reaped: u64,
    /// Edit requests applied (each may carry several byte-range edits).
    pub edits: u64,
    /// Edits (or opens) whose buffer does not currently compile.
    pub parse_errors: u64,
    /// Edit responses answered with a scene patch.
    pub patches: u64,
    /// Edit responses answered with a full-scene resync.
    pub resyncs: u64,
}

struct Session {
    owner: u64,
    source: String,
    /// The scene the client last acknowledged — the base scene diffs are
    /// computed against. Survives error states (the client keeps showing
    /// it) so the recovery response patches from the right base.
    last_scene: Option<Arc<Scene>>,
    last_used: u64,
    edits: u64,
}

struct Inner {
    sessions: HashMap<u64, Session>,
    next_id: u64,
    tick: u64,
}

/// The compile body of a successful `open`/`edit` response.
#[derive(Debug, Clone)]
pub struct SessionReply {
    pub session: u64,
    pub fingerprint: Fingerprint,
    pub fingerprint_hex: Arc<str>,
    pub sql_words: usize,
    /// Disclosure, as in plain responses: the artifacts/scene come from
    /// this pattern-equivalent representative, not the session's text.
    pub representative_sql: Option<Arc<str>>,
    /// Serialized `scene_json` v2 document (open and resync responses) …
    pub scene: Option<String>,
    /// … or serialized patch ops (the contents of the `patch` array).
    pub patch: Option<String>,
}

fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The bounded, evictable session table in front of one
/// [`DiagramService`]. All front ends (stdin `service`, TCP `server`)
/// share one store per service so `stats` sees one ledger.
pub struct SessionStore {
    service: Arc<DiagramService>,
    config: SessionConfig,
    inner: Mutex<Inner>,
    opened_total: AtomicU64,
    closed: AtomicU64,
    evicted: AtomicU64,
    reaped: AtomicU64,
    edits: AtomicU64,
    parse_errors: AtomicU64,
    patches: AtomicU64,
    resyncs: AtomicU64,
}

impl SessionStore {
    pub fn new(service: Arc<DiagramService>, config: SessionConfig) -> SessionStore {
        SessionStore {
            service,
            config,
            inner: Mutex::new(Inner {
                sessions: HashMap::new(),
                next_id: 1,
                tick: 0,
            }),
            opened_total: AtomicU64::new(0),
            closed: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            reaped: AtomicU64::new(0),
            edits: AtomicU64::new(0),
            parse_errors: AtomicU64::new(0),
            patches: AtomicU64::new(0),
            resyncs: AtomicU64::new(0),
        }
    }

    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    pub fn open_count(&self) -> usize {
        lock_unpoisoned(&self.inner).sessions.len()
    }

    pub fn snapshot(&self) -> SessionStatsSnapshot {
        SessionStatsSnapshot {
            open: self.open_count() as u64,
            opened_total: self.opened_total.load(Ordering::Relaxed),
            closed: self.closed.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            reaped: self.reaped.load(Ordering::Relaxed),
            edits: self.edits.load(Ordering::Relaxed),
            parse_errors: self.parse_errors.load(Ordering::Relaxed),
            patches: self.patches.load(Ordering::Relaxed),
            resyncs: self.resyncs.load(Ordering::Relaxed),
        }
    }

    /// Open a session over `sql`. The outer `Err` means the open was
    /// refused (buffer too large) and no session exists; the inner result
    /// is the first compile, which may fail (the session still opens —
    /// live editing may well start from broken text).
    pub fn open(
        &self,
        sql: &str,
        owner: u64,
    ) -> Result<(u64, Result<SessionReply, ServiceError>), ServiceError> {
        if sql.len() > self.config.max_source_bytes {
            return Err(ServiceError::new(
                ErrorKind::TooLarge,
                format!(
                    "session source exceeds the {} byte budget ({} bytes)",
                    self.config.max_source_bytes,
                    sql.len()
                ),
            ));
        }
        let mut inner = lock_unpoisoned(&self.inner);
        let inner = &mut *inner;
        if inner.sessions.len() >= self.config.max_sessions.max(1) {
            let victim = inner
                .sessions
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(id, _)| *id)
                .expect("non-empty table");
            inner.sessions.remove(&victim);
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.tick += 1;
        let mut session = Session {
            owner,
            source: sql.to_string(),
            last_scene: None,
            last_used: inner.tick,
            edits: 0,
        };
        self.opened_total.fetch_add(1, Ordering::Relaxed);
        // An open always syncs the full scene.
        let reply = self.compile(id, sql).map(|(mut reply, scene)| {
            reply.scene = Some(scene_json_v2(&scene));
            session.last_scene = Some(scene);
            reply
        });
        inner.sessions.insert(id, session);
        Ok((id, reply))
    }

    /// Apply `edits` (in order, each offset relative to the buffer the
    /// previous ones produced) and recompile the buffer. The outer
    /// `Err` means the request was refused — unknown session, foreign
    /// owner, invalid edit range, or buffer overflow — and the session
    /// state is unchanged. The inner result is the compile outcome: on
    /// error the buffer *is* updated (the text really is broken) and the
    /// session stays open.
    pub fn edit(
        &self,
        session_id: u64,
        edits: &[Edit],
        owner: u64,
    ) -> Result<Result<SessionReply, ServiceError>, ServiceError> {
        let mut inner = lock_unpoisoned(&self.inner);
        let inner = &mut *inner;
        inner.tick += 1;
        let tick = inner.tick;
        let Some(session) = inner.sessions.get_mut(&session_id) else {
            return Err(ServiceError::new(
                ErrorKind::BadRequest,
                format!("unknown session {session_id}"),
            ));
        };
        if session.owner != owner {
            return Err(ServiceError::new(
                ErrorKind::BadRequest,
                format!("session {session_id} belongs to another connection"),
            ));
        }
        session.last_used = tick;
        // Stage the edits on a copy: a mid-sequence failure must leave
        // the session exactly as it was (client and server buffers agree
        // on every acknowledged state, never on a half-applied one).
        let mut source = session.source.clone();
        for edit in edits {
            apply_edit(&mut source, edit)
                .map_err(|m| ServiceError::new(ErrorKind::BadRequest, format!("bad edit: {m}")))?;
            if source.len() > self.config.max_source_bytes {
                return Err(ServiceError::new(
                    ErrorKind::TooLarge,
                    format!(
                        "edit would grow the session past the {} byte budget",
                        self.config.max_source_bytes
                    ),
                ));
            }
        }
        session.source = source;
        session.edits += edits.len() as u64;
        self.edits.fetch_add(1, Ordering::Relaxed);
        Ok(self
            .compile(session_id, &session.source)
            .map(|(mut reply, scene)| {
                self.attach_scene(&mut reply, session.last_scene.as_deref(), &scene);
                session.last_scene = Some(scene);
                reply
            }))
    }

    /// Close a session, returning how many edits it absorbed.
    pub fn close(&self, session_id: u64, owner: u64) -> Result<u64, ServiceError> {
        let mut inner = lock_unpoisoned(&self.inner);
        match inner.sessions.get(&session_id) {
            None => Err(ServiceError::new(
                ErrorKind::BadRequest,
                format!("unknown session {session_id}"),
            )),
            Some(s) if s.owner != owner => Err(ServiceError::new(
                ErrorKind::BadRequest,
                format!("session {session_id} belongs to another connection"),
            )),
            Some(_) => {
                let session = inner.sessions.remove(&session_id).expect("present");
                self.closed.fetch_add(1, Ordering::Relaxed);
                Ok(session.edits)
            }
        }
    }

    /// Drop every session belonging to `owner` — the disconnect hook (a
    /// client that vanishes mid-edit must not pin buffer memory).
    pub fn reap_owner(&self, owner: u64) -> usize {
        let mut inner = lock_unpoisoned(&self.inner);
        let doomed: Vec<u64> = inner
            .sessions
            .iter()
            .filter(|(_, s)| s.owner == owner)
            .map(|(id, _)| *id)
            .collect();
        for id in &doomed {
            inner.sessions.remove(id);
        }
        let n = doomed.len();
        self.reaped.fetch_add(n as u64, Ordering::Relaxed);
        n
    }

    /// Close every session (graceful drain). Returns how many were open.
    pub fn close_all(&self) -> usize {
        let mut inner = lock_unpoisoned(&self.inner);
        let n = inner.sessions.len();
        inner.sessions.clear();
        self.closed.fetch_add(n as u64, Ordering::Relaxed);
        n
    }

    /// Decide patch vs resync for an edit reply: patch when the branch
    /// structure held and the serialized ops are smaller than the full
    /// document they replace.
    fn attach_scene(&self, reply: &mut SessionReply, last: Option<&Scene>, scene: &Scene) {
        let full = scene_json_v2(scene);
        let patch = last.and_then(|last| diff_scenes(last, scene)).map(|ops| {
            let mut patch = String::with_capacity(256);
            write_patch_ops(&mut patch, &ops);
            patch
        });
        match patch {
            Some(patch) if patch.len() < full.len() => {
                self.patches.fetch_add(1, Ordering::Relaxed);
                reply.patch = Some(patch);
            }
            _ => {
                self.resyncs.fetch_add(1, Ordering::Relaxed);
                reply.scene = Some(full);
            }
        }
    }

    /// Compile a session buffer exactly as a plain request for the same
    /// text would, returning the reply body (no scene yet) and the scene
    /// of the entry that served it.
    fn compile(
        &self,
        session_id: u64,
        source: &str,
    ) -> Result<(SessionReply, Arc<Scene>), ServiceError> {
        let (sql_words, entry) = self.service.resolve(source).inspect_err(|e| {
            // A compile panic is not a parse error: the buffer parsed.
            if e.kind == ErrorKind::Compile {
                self.parse_errors.fetch_add(1, Ordering::Relaxed);
            }
        })?;
        let reply = SessionReply {
            session: session_id,
            fingerprint: entry.fingerprint(),
            fingerprint_hex: Arc::clone(entry.fingerprint_hex()),
            sql_words,
            representative_sql: (entry.representative_sql() != source)
                .then(|| Arc::clone(entry.representative_shared())),
            scene: None,
            patch: None,
        };
        Ok((reply, Arc::clone(entry.scene())))
    }
}

// ---------------------------------------------------------------------
// Wire layer: `open` / `edit` / `close` ops over the JSON-lines framing.
// ---------------------------------------------------------------------

fn error_line(id: u64, session: Option<u64>, error: &ServiceError) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"id\":");
    write_u64(&mut out, id);
    if let Some(session) = session {
        out.push_str(",\"session\":");
        write_u64(&mut out, session);
    }
    out.push_str(",\"error\":");
    escape_into(&mut out, &error.message);
    out.push_str(",\"error_kind\":");
    escape_into(&mut out, error.kind.name());
    out.push('}');
    out
}

fn reply_line(id: u64, reply: &SessionReply) -> String {
    let mut out = String::with_capacity(512);
    out.push_str("{\"id\":");
    write_u64(&mut out, id);
    out.push_str(",\"session\":");
    write_u64(&mut out, reply.session);
    out.push_str(",\"fingerprint\":");
    escape_into(&mut out, &reply.fingerprint_hex);
    out.push_str(",\"sql_words\":");
    write_u64(&mut out, reply.sql_words as u64);
    if let Some(representative) = &reply.representative_sql {
        out.push_str(",\"representative_sql\":");
        escape_into(&mut out, representative);
    }
    if let Some(patch) = &reply.patch {
        out.push_str(",\"patch\":[");
        out.push_str(patch);
        out.push(']');
    }
    if let Some(scene) = &reply.scene {
        out.push_str(",\"scene\":");
        out.push_str(scene); // already a JSON document
    }
    out.push('}');
    out
}

impl SessionStore {
    /// Serve one parsed session-op line, returning the response line (no
    /// trailing newline). [`crate::frontend::Frontend`] routes the
    /// `open`, `edit` and `close` ops here.
    pub fn dispatch_value(&self, value: &Json, default_id: u64, owner: u64) -> String {
        let id = match value.get("id") {
            None => default_id,
            Some(v) => match v.as_u64() {
                Some(id) => id,
                None => {
                    return error_line(
                        default_id,
                        None,
                        &ServiceError::new(
                            ErrorKind::BadRequest,
                            "`id` must be a non-negative integer",
                        ),
                    )
                }
            },
        };
        match value.get("op").and_then(Json::as_str) {
            Some("open") => {
                let Some(sql) = value.get("sql").and_then(Json::as_str) else {
                    return error_line(
                        id,
                        None,
                        &ServiceError::new(
                            ErrorKind::BadRequest,
                            "open needs a string `sql` field",
                        ),
                    );
                };
                match self.open(sql, owner) {
                    Err(e) => error_line(id, None, &e),
                    Ok((_session, Ok(reply))) => reply_line(id, &reply),
                    Ok((session, Err(e))) => error_line(id, Some(session), &e),
                }
            }
            Some("edit") => {
                let Some(session) = value.get("session").and_then(Json::as_u64) else {
                    return error_line(
                        id,
                        None,
                        &ServiceError::new(
                            ErrorKind::BadRequest,
                            "edit needs a numeric `session` field",
                        ),
                    );
                };
                let edits = match parse_edits(value) {
                    Ok(edits) => edits,
                    Err(message) => {
                        return error_line(
                            id,
                            Some(session),
                            &ServiceError::new(ErrorKind::BadRequest, message),
                        )
                    }
                };
                match self.edit(session, &edits, owner) {
                    Err(e) => error_line(id, Some(session), &e),
                    Ok(Ok(reply)) => reply_line(id, &reply),
                    Ok(Err(e)) => error_line(id, Some(session), &e),
                }
            }
            Some("close") => {
                let Some(session) = value.get("session").and_then(Json::as_u64) else {
                    return error_line(
                        id,
                        None,
                        &ServiceError::new(
                            ErrorKind::BadRequest,
                            "close needs a numeric `session` field",
                        ),
                    );
                };
                match self.close(session, owner) {
                    Err(e) => error_line(id, Some(session), &e),
                    Ok(edits) => {
                        let mut out = String::with_capacity(64);
                        out.push_str("{\"id\":");
                        write_u64(&mut out, id);
                        out.push_str(",\"session\":");
                        write_u64(&mut out, session);
                        out.push_str(",\"closed\":true,\"edits\":");
                        write_u64(&mut out, edits);
                        out.push('}');
                        out
                    }
                }
            }
            _ => error_line(
                id,
                None,
                &ServiceError::new(ErrorKind::BadRequest, "not a session op"),
            ),
        }
    }
}

/// Parse the `edits` array: `[{"at":N,"del":N,"ins":"text"}, …]` (`del`
/// and `ins` optional, defaulting to 0 / empty).
fn parse_edits(value: &Json) -> Result<Vec<Edit>, String> {
    let Some(arr) = value.get("edits").and_then(Json::as_arr) else {
        return Err("edit needs an `edits` array".to_string());
    };
    let mut edits = Vec::with_capacity(arr.len());
    for item in arr {
        let at = item
            .get("at")
            .and_then(Json::as_u64)
            .ok_or("each edit needs a numeric `at` offset")?;
        let del = match item.get("del") {
            None => 0,
            Some(v) => v.as_u64().ok_or("`del` must be a non-negative integer")?,
        };
        let ins = match item.get("ins") {
            None => "",
            Some(v) => v.as_str().ok_or("`ins` must be a string")?,
        };
        edits.push(Edit {
            offset: at as usize,
            deleted: del as usize,
            inserted: ins.to_string(),
        });
    }
    Ok(edits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Format;
    use crate::service::{DiagramService, ServiceConfig};
    use crate::{apply_patch, fingerprint_sql, parse_patch_ops};

    fn store() -> SessionStore {
        SessionStore::new(
            Arc::new(DiagramService::new(ServiceConfig::default())),
            SessionConfig::default(),
        )
    }

    fn ins(at: usize, text: &str) -> Edit {
        Edit {
            offset: at,
            deleted: 0,
            inserted: text.to_string(),
        }
    }

    fn del(at: usize, n: usize) -> Edit {
        Edit {
            offset: at,
            deleted: n,
            inserted: String::new(),
        }
    }

    /// Compile `sql` from scratch and return the fingerprint hex + v2
    /// scene — the oracle every session reply must match byte for byte.
    fn oracle(service: &DiagramService, sql: &str) -> (String, String) {
        let fq = fingerprint_sql(sql, service.config().options.clone()).unwrap();
        let fingerprint = fq.fingerprint.to_string();
        let entry = service.entry_for(fq).unwrap();
        (fingerprint, scene_json_v2(entry.scene()))
    }

    #[test]
    fn open_edit_close_lifecycle() {
        let store = store();
        let (id, reply) = store.open("SELECT T.a FROM T", 1).unwrap();
        let reply = reply.unwrap();
        assert!(reply.scene.is_some());
        assert_eq!(store.open_count(), 1);

        // Whitespace edit: the L1 memo recognizes the text, nothing
        // compiles, and the unchanged scene ships as an empty patch.
        let before = store.service.stats();
        let reply = store.edit(id, &[ins(6, "  ")], 1).unwrap().unwrap();
        let after = store.service.stats();
        assert_eq!(after.l1_hits, before.l1_hits + 1);
        assert_eq!(after.compiles, before.compiles);
        assert_eq!(reply.patch.as_deref(), Some(""));

        assert_eq!(store.close(id, 1).unwrap(), 1);
        assert_eq!(store.open_count(), 0);
        let stats = store.snapshot();
        assert_eq!(stats.opened_total, 1);
        assert_eq!(stats.closed, 1);
        assert_eq!(stats.patches, 1);
    }

    #[test]
    fn edits_track_the_from_scratch_compile() {
        let store = store();
        let base = "SELECT F.person FROM Frequents F WHERE F.bar = 'Owl'";
        let (id, reply) = store.open(base, 1).unwrap();
        assert!(reply.is_ok());
        let target = base.find("'Owl'").unwrap();
        let reply = store
            .edit(id, &[del(target + 1, 3), ins(target + 1, "Tap")], 1)
            .unwrap()
            .unwrap();
        let now = "SELECT F.person FROM Frequents F WHERE F.bar = 'Tap'";
        let (fp, _scene) = oracle(&store.service, now);
        assert_eq!(reply.fingerprint_hex.as_ref(), fp);
    }

    #[test]
    fn union_branch_edit_patches_to_the_from_scratch_scene() {
        let store = store();
        let sql = "SELECT F.person FROM Frequents F WHERE F.bar = 'Owl' \
                   UNION SELECT L.person FROM Likes L WHERE L.beer = 'IPA'";
        let (id, reply) = store.open(sql, 1).unwrap();
        assert!(reply.is_ok());
        // Edit only the second branch's constant (same length: retext).
        let at = sql.find("'IPA'").unwrap() + 1;
        let reply = store
            .edit(id, &[del(at, 3), ins(at, "ALE")], 1)
            .unwrap()
            .unwrap();
        let now = sql.replace("'IPA'", "'ALE'");
        let (fp, scene) = oracle(&store.service, &now);
        assert_eq!(reply.fingerprint_hex.as_ref(), fp);
        // The patch applies onto the open scene and reproduces the
        // from-scratch scene byte for byte.
        let patch = reply.patch.expect("small edit should patch");
        let parsed = crate::json::parse(&format!("[{patch}]")).unwrap();
        let ops = parse_patch_ops(parsed.as_arr().unwrap()).unwrap();
        let base_scene = {
            let fq = fingerprint_sql(sql, store.service.config().options.clone()).unwrap();
            let entry = store.service.entry_for(fq).unwrap();
            Arc::clone(entry.scene())
        };
        let patched = apply_patch(&base_scene, &ops).unwrap();
        assert_eq!(scene_json_v2(&patched), scene);
    }

    /// A structural edit (the branch count changes) has no patch: the
    /// reply falls back to the full scene.
    #[test]
    fn structural_edit_falls_back_to_full() {
        let store = store();
        let (id, reply) = store.open("SELECT T.a FROM T", 1).unwrap();
        assert!(reply.is_ok());
        let suffix = " UNION SELECT U.b FROM U";
        let reply = store
            .edit(id, &[ins("SELECT T.a FROM T".len(), suffix)], 1)
            .unwrap()
            .unwrap();
        assert!(reply.scene.is_some(), "branch split must resync");
        assert_eq!(store.snapshot().resyncs, 1);
    }

    #[test]
    fn transient_parse_errors_keep_the_session_and_recover() {
        let store = store();
        let sql = "SELECT T.a FROM T";
        let (id, reply) = store.open(sql, 1).unwrap();
        let before = reply.unwrap().fingerprint_hex;
        // Break it: dangling WHERE.
        let err = store.edit(id, &[ins(sql.len(), " WHERE")], 1).unwrap();
        let err = err.unwrap_err();
        assert_eq!(err.kind, ErrorKind::Compile);
        // Canonical error text: same as compiling the text from scratch.
        let oracle_err = fingerprint_sql(
            "SELECT T.a FROM T WHERE",
            store.service.config().options.clone(),
        )
        .unwrap_err();
        assert_eq!(err.message, oracle_err.to_string());
        // Recover by deleting the damage: back to the original text, which
        // the open memoized, so L1 answers it without a compile.
        let stats = store.service.stats();
        let reply = store
            .edit(id, &[del(sql.len(), " WHERE".len())], 1)
            .unwrap()
            .unwrap();
        assert_eq!(store.service.stats().l1_hits, stats.l1_hits + 1);
        assert_eq!(store.service.stats().compiles, stats.compiles);
        assert_eq!(reply.fingerprint_hex, before);
        assert_eq!(store.snapshot().parse_errors, 1);
    }

    #[test]
    fn sessions_are_bounded_and_lru_evicted() {
        let store = SessionStore::new(
            Arc::new(DiagramService::new(ServiceConfig::default())),
            SessionConfig {
                max_sessions: 2,
                max_source_bytes: 256,
            },
        );
        let (a, _) = store.open("SELECT T.a FROM T", 1).unwrap();
        let (b, _) = store.open("SELECT U.b FROM U", 1).unwrap();
        // Touch a so b is the LRU.
        store.edit(a, &[ins(6, " ")], 1).unwrap().unwrap();
        let (_c, _) = store.open("SELECT V.c FROM V", 1).unwrap();
        assert_eq!(store.open_count(), 2);
        assert!(store.edit(b, &[ins(0, " ")], 1).is_err(), "b was evicted");
        assert!(store.edit(a, &[ins(6, " ")], 1).is_ok(), "a survives");
        assert_eq!(store.snapshot().evicted, 1);

        // Oversized open refused; oversized edit refused, buffer intact.
        let big = "x".repeat(300);
        assert_eq!(store.open(&big, 1).unwrap_err().kind, ErrorKind::TooLarge);
        let grow = "y".repeat(300);
        let err = store.edit(a, &[ins(0, &grow)], 1).unwrap_err();
        assert_eq!(err.kind, ErrorKind::TooLarge);
        // The session still works after the refusal.
        assert!(store.edit(a, &[ins(6, " ")], 1).unwrap().is_ok());
    }

    /// Every way a session ends is counted once, so the `sessions`
    /// ledger balances after each of them.
    #[test]
    fn session_ledger_adds_up() {
        let store = SessionStore::new(
            Arc::new(DiagramService::new(ServiceConfig::default())),
            SessionConfig {
                max_sessions: 2,
                max_source_bytes: 256,
            },
        );
        let ledger = || {
            let s = store.snapshot();
            assert_eq!(
                s.open,
                s.opened_total - s.closed - s.evicted - s.reaped,
                "{s:?}"
            );
            (s.open, s.opened_total, s.closed, s.evicted, s.reaped)
        };
        let open = |sql: &str, owner: u64| {
            let (id, reply) = store.open(sql, owner).unwrap();
            reply.unwrap();
            id
        };
        let a = open("SELECT T.a FROM T", 1);
        assert_eq!(ledger(), (1, 1, 0, 0, 0));
        store.close(a, 1).unwrap();
        assert_eq!(ledger(), (0, 1, 1, 0, 0));
        open("SELECT T.a FROM T", 1);
        open("SELECT U.b FROM U", 2);
        // A third open evicts the least recently used session.
        open("SELECT V.c FROM V", 1);
        assert_eq!(ledger(), (2, 4, 1, 1, 0));
        assert_eq!(store.reap_owner(2), 1);
        assert_eq!(ledger(), (1, 4, 1, 1, 1));
        assert_eq!(store.close_all(), 1);
        assert_eq!(ledger(), (0, 4, 2, 1, 1));
    }

    #[test]
    fn owner_isolation_and_reaping() {
        let store = store();
        let (id, _) = store.open("SELECT T.a FROM T", 7).unwrap();
        assert!(store.edit(id, &[ins(6, " ")], 8).is_err());
        assert!(store.close(id, 8).is_err());
        assert_eq!(store.reap_owner(7), 1);
        assert_eq!(store.open_count(), 0);
        assert_eq!(store.snapshot().reaped, 1);
    }

    #[test]
    fn wire_ops_round_trip() {
        let store = store();
        let open = crate::json::parse(r#"{"op":"open","id":1,"sql":"SELECT T.a FROM T"}"#).unwrap();
        let line = store.dispatch_value(&open, 0, 1);
        let doc = crate::json::parse(&line).unwrap();
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(1));
        let session = doc.get("session").and_then(Json::as_u64).unwrap();
        assert!(doc.get("path").is_none(), "replies name no compile tier");
        assert_eq!(
            doc.get("scene")
                .and_then(|s| s.get("v"))
                .and_then(Json::as_u64),
            Some(2)
        );

        let edit = crate::json::parse(&format!(
            r#"{{"op":"edit","id":2,"session":{session},"edits":[{{"at":6,"ins":" "}}]}}"#
        ))
        .unwrap();
        let line = store.dispatch_value(&edit, 0, 1);
        let doc = crate::json::parse(&line).unwrap();
        assert!(doc.get("path").is_none(), "replies name no compile tier");
        assert!(doc.get("patch").is_some());

        let close =
            crate::json::parse(&format!(r#"{{"op":"close","id":3,"session":{session}}}"#)).unwrap();
        let line = store.dispatch_value(&close, 0, 1);
        let doc = crate::json::parse(&line).unwrap();
        assert_eq!(doc.get("closed"), Some(&Json::Bool(true)));

        // Unknown session → structured bad_request.
        let line = store.dispatch_value(&close, 0, 1);
        let doc = crate::json::parse(&line).unwrap();
        assert_eq!(
            doc.get("error_kind").and_then(Json::as_str),
            Some("bad_request")
        );
    }

    #[test]
    fn default_formats_do_not_leak_into_session_scene() {
        // Sessions always serve scene_json v2 regardless of the service's
        // default format list.
        let service = Arc::new(DiagramService::new(ServiceConfig {
            default_formats: vec![Format::Svg],
            ..ServiceConfig::default()
        }));
        let store = SessionStore::new(service, SessionConfig::default());
        let (_, reply) = store.open("SELECT T.a FROM T", 1).unwrap();
        let scene = reply.unwrap().scene.unwrap();
        assert!(scene.starts_with("{\"v\":2,"));
    }
}
