//! The diagram-compilation service: L1 memo → fingerprint → L2 cache →
//! compile → render.
//!
//! [`DiagramService::handle`] serves one request, deduplicating concurrent
//! identical fingerprints through an in-flight table (`Mutex<HashMap>` +
//! condvar): the first thread to claim a missing fingerprint compiles it,
//! racers park and are handed the finished entry — one compile no matter
//! how many concurrent duplicates. Session opens and edits
//! ([`crate::session`]) take the same path. Both front ends serve their
//! lines through it one at a time and in order, so a pattern's
//! representative is the first request of that pattern the service
//! serves.
//!
//! **The warm path.** Before any lexing happens, the request text is
//! probed in the [`L1Memo`]: a repeat text (modulo whitespace, comments,
//! and keyword case) resolves straight to its pattern fingerprint and
//! word count, skipping parse, translation, and canonicalization
//! entirely, and proceeds to the L2 entry whose `Arc<str>` artifacts are
//! shared — not copied — into the response. L1 and L2 stay coherent: an
//! L2 eviction eagerly invalidates every L1 text pointing at the evicted
//! fingerprint, and the rare lost race (evicted between L1 probe and L2
//! get) falls back to the full frontend. The memo never changes response
//! bytes — it only skips recomputing them.

use crate::cache::{CacheConfig, CacheStats, ShardedCache};
use crate::compile::{compile_representative, CompiledEntry};
use crate::fingerprint::{fingerprint_sql, Fingerprint, FingerprintedQuery};
use crate::memo::{L1Memo, MemoConfig, MemoStats};
use crate::protocol::{
    Artifacts, ErrorKind, Format, Request, Response, SampleOutcome, ServiceError,
};
use queryvis::ir::Interner;
use queryvis::QueryVisOptions;
use queryvis_telemetry::StageDef;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// End-to-end request latency: `handle()` wall time.
static STAGE_REQUEST: StageDef = StageDef::new("request");

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    pub cache: CacheConfig,
    /// Geometry of the L1 text→fingerprint memo.
    pub memo: MemoConfig,
    /// Pipeline options applied to every request (schema, strictness, …).
    pub options: QueryVisOptions,
    /// Formats served when a request does not name any.
    pub default_formats: Vec<Format>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache: CacheConfig::default(),
            memo: MemoConfig::default(),
            options: QueryVisOptions::default(),
            default_formats: vec![Format::Ascii],
        }
    }
}

/// A snapshot of every service counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests accepted (including ones that failed to parse).
    pub requests: u64,
    /// Full pipeline compilations actually executed.
    pub compiles: u64,
    /// Requests served by joining another request's in-flight compile
    /// instead of compiling themselves.
    pub coalesced: u64,
    /// Requests that failed (parse/semantic/translation errors).
    pub errors: u64,
    /// Requests whose frontend (lex→parse→translate→canonicalize) was
    /// skipped because the L1 memo recognized the text.
    pub l1_hits: u64,
    /// Compile panics caught and converted into per-request `panic`
    /// errors (the process survived every one of them).
    pub panics_caught: u64,
    /// Texts currently memoized in L1: `memo.entries`, from the same read
    /// of the memo shards.
    pub l1_entries: usize,
    /// Distinct names resident in the shared interner (process-wide; grows
    /// monotonically with the vocabulary of table/column/alias/constant
    /// names the service has seen).
    pub interned_symbols: u64,
    pub cache: CacheStats,
    pub memo: MemoStats,
}

/// Lock a mutex, recovering the guard from a poisoned lock. Every mutex
/// in the service guards state that is valid at all times (inserts and
/// removes are single operations, never multi-step invariants), so a
/// panic that unwound through a critical section leaves usable data
/// behind. Propagating poison instead would turn one isolated request
/// panic into a process-wide failure: every later request would panic on
/// the poisoned `lock().expect(..)` — exactly the amplification the
/// serving layer promises not to have.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One in-flight compilation that racing requests can join. The slot is
/// filled with `Err` if the owning compile unwinds, so joiners get an
/// error response instead of parking forever.
struct Flight {
    slot: Mutex<Option<Result<Arc<CompiledEntry>, ServiceError>>>,
    ready: Condvar,
}

/// Retires a [`Flight`] even if the owning compile panics: on unwind the
/// guard fails the slot, wakes every joiner, and removes the in-flight
/// entry so later requests for the fingerprint retry instead of
/// deadlocking. Disarmed on the success path.
struct FlightGuard<'a> {
    service: &'a DiagramService,
    fingerprint: Fingerprint,
    flight: &'a Flight,
    armed: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        *lock_unpoisoned(&self.flight.slot) = Some(Err(ServiceError::new(
            ErrorKind::Panic,
            "diagram compilation panicked",
        )));
        self.flight.ready.notify_all();
        lock_unpoisoned(&self.service.inflight).remove(&self.fingerprint.0);
    }
}

/// The compilation service.
pub struct DiagramService {
    config: ServiceConfig,
    /// Shared copy of `config.options` so the per-request front half never
    /// clones a configured schema.
    options: Arc<QueryVisOptions>,
    /// The shared string interner behind every request's names. One
    /// sharded, mutex-striped interner serves the whole process (all
    /// services, all cache shards): symbols are 4-byte ids, so cache keys,
    /// pattern tokens, and diagram models never re-hash or re-allocate
    /// name strings, and artifacts resolve ids back to text only at the
    /// render boundary.
    interner: &'static Interner,
    /// L1: normalized request text → fingerprint (+ word count).
    memo: L1Memo,
    /// L2: fingerprint → compiled entry.
    cache: ShardedCache,
    inflight: Mutex<HashMap<u128, Arc<Flight>>>,
    requests: AtomicU64,
    compiles: AtomicU64,
    coalesced: AtomicU64,
    errors: AtomicU64,
    l1_hits: AtomicU64,
    panics_caught: AtomicU64,
}

impl DiagramService {
    pub fn new(config: ServiceConfig) -> DiagramService {
        DiagramService {
            cache: ShardedCache::new(config.cache),
            memo: L1Memo::new(config.memo),
            options: Arc::new(config.options.clone()),
            interner: Interner::global(),
            config,
            inflight: Mutex::new(HashMap::new()),
            requests: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            l1_hits: AtomicU64::new(0),
            panics_caught: AtomicU64::new(0),
        }
    }

    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The L1 text memo (exposed for tests and diagnostics).
    pub fn memo(&self) -> &L1Memo {
        &self.memo
    }

    /// The L2 cache (exposed for warm-snapshot export and tests).
    pub fn cache(&self) -> &ShardedCache {
        &self.cache
    }

    /// Pre-warm both cache levels with one SQL text, as if a request for
    /// it had been served (counted as a normal request/compile). Returns
    /// false when the text does not compile — a stale snapshot line must
    /// not prevent startup.
    pub fn warm(&self, sql: &str) -> bool {
        let request = Request {
            id: 0,
            sql: sql.to_string(),
            formats: Vec::new(),
            rows: None,
        };
        self.handle(&request).outcome.is_ok()
    }

    pub fn stats(&self) -> ServiceStats {
        let memo = self.memo.stats();
        ServiceStats {
            requests: self.requests.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            l1_hits: self.l1_hits.load(Ordering::Relaxed),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            l1_entries: memo.entries,
            interned_symbols: self.interner.len() as u64,
            cache: self.cache.stats(),
            memo,
        }
    }

    /// Serve one request, consulting and filling both cache levels.
    pub fn handle(&self, request: &Request) -> Response {
        // Inert (one relaxed load each) unless telemetry is enabled; the
        // span records full wall time into the `request` histogram and the
        // scope tags this thread's stage spans with the request id.
        let _request_span = STAGE_REQUEST.span();
        let _trace_scope = queryvis_telemetry::global()
            .tracing()
            .then(|| queryvis_telemetry::request_scope(request.id));
        match self.resolve(&request.sql) {
            Ok((words, entry)) => self.respond(request, words, &entry),
            Err(error) => Response {
                id: request.id,
                outcome: Err(error),
            },
        }
    }

    /// The single-request path: resolve `sql` to its word count and its
    /// resident compiled entry. Plain requests and session opens/edits
    /// both come through here, so both count alike in `requests`,
    /// `l1_hits` and `errors`. A frontend failure is a `compile` error;
    /// a compile panic keeps the `panic` kind [`Self::entry_for`] gives it.
    #[inline]
    pub(crate) fn resolve(&self, sql: &str) -> Result<(usize, Arc<CompiledEntry>), ServiceError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        // L1: a repeat text resolves to its fingerprint without touching
        // the frontend at all.
        if let Some((fingerprint, words)) = self.memo.lookup(sql) {
            if let Some(entry) = self.cache.get(fingerprint) {
                self.l1_hits.fetch_add(1, Ordering::Relaxed);
                return Ok((words as usize, entry));
            }
            // L2 evicted this fingerprint between the eager invalidation
            // and our probe (or we raced it): fall through to the full
            // path, which recompiles and re-publishes both levels.
        }
        self.resolve_miss(sql)
    }

    /// [`Self::resolve`] past the L1 probe: frontend, L2 lookup or
    /// compile, then memoize the text. Kept out of line so the L1-hit
    /// path that `handle` inlines stays small: with this body inlined
    /// too, warm serving p50 read ~8 % slower (2-vCPU x86-64 host).
    #[inline(never)]
    fn resolve_miss(&self, sql: &str) -> Result<(usize, Arc<CompiledEntry>), ServiceError> {
        let resolved = fingerprint_sql(sql, Arc::clone(&self.options))
            .map_err(|e| ServiceError::new(ErrorKind::Compile, e.to_string()))
            .and_then(|fingerprinted| {
                let words = fingerprinted.prepared.sql_word_count();
                let fingerprint = fingerprinted.fingerprint;
                let entry = self.entry_for(fingerprinted)?;
                // Memoize only after the entry is resident in L2, so an L1
                // hit almost always finds its L2 entry.
                self.memo.insert(sql, fingerprint, words as u32);
                Ok((words, entry))
            });
        if resolved.is_err() {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        resolved
    }

    /// Look up or compile the entry for a fingerprinted query, joining an
    /// in-flight compile of the same fingerprint when one exists. `Err`
    /// means the compile failed or panicked (classified by its kind).
    /// Public so tests can build a from-scratch oracle that fills L2
    /// without touching L1 or the request counters.
    pub fn entry_for(
        &self,
        fingerprinted: FingerprintedQuery,
    ) -> Result<Arc<CompiledEntry>, ServiceError> {
        let fingerprint = fingerprinted.fingerprint;
        if let Some(entry) = self.cache.get(fingerprint) {
            return Ok(entry);
        }
        let (flight, is_owner) = {
            let mut inflight = lock_unpoisoned(&self.inflight);
            match inflight.get(&fingerprint.0) {
                Some(flight) => (Arc::clone(flight), false),
                None => {
                    let flight = Arc::new(Flight {
                        slot: Mutex::new(None),
                        ready: Condvar::new(),
                    });
                    inflight.insert(fingerprint.0, Arc::clone(&flight));
                    (flight, true)
                }
            }
        };
        if !is_owner {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            let guard = lock_unpoisoned(&flight.slot);
            let guard = flight
                .ready
                .wait_while(guard, |slot| slot.is_none())
                .unwrap_or_else(PoisonError::into_inner);
            return guard.as_ref().expect("woken with a filled slot").clone();
        }
        let mut guard = FlightGuard {
            service: self,
            fingerprint,
            flight: &flight,
            armed: true,
        };
        // Re-check after winning ownership: a previous owner may have
        // compiled, published, and retired its flight between our cache
        // miss and the inflight claim — recompiling would be wasted work.
        // (Counter-free peek: the miss was already counted above.)
        let resident = match self.cache.peek(fingerprint) {
            Some(entry) => entry,
            None => match self.compile(fingerprinted) {
                // Publish to the cache before retiring the flight so there
                // is no window where the entry is reachable through
                // neither; serve the *resident* entry (the incumbent, if
                // another compile won a race) so owner and joiners agree.
                Ok(entry) => self.publish(fingerprint, Arc::new(entry)),
                Err(error) => {
                    // A caught compile panic: hand joiners the classified
                    // error (not the guard's generic one) and fail only
                    // this fingerprint's requests.
                    guard.armed = false;
                    self.retire_flight(&flight, fingerprint, Err(error.clone()));
                    return Err(error);
                }
            },
        };
        guard.armed = false;
        self.retire_flight(&flight, fingerprint, Ok(Arc::clone(&resident)));
        Ok(resident)
    }

    /// Fill a flight's slot, wake its joiners, and drop it from the
    /// in-flight table.
    fn retire_flight(
        &self,
        flight: &Flight,
        fingerprint: Fingerprint,
        result: Result<Arc<CompiledEntry>, ServiceError>,
    ) {
        *lock_unpoisoned(&flight.slot) = Some(result);
        flight.ready.notify_all();
        lock_unpoisoned(&self.inflight).remove(&fingerprint.0);
    }

    /// Run the back half of the pipeline with panic isolation: an unwind
    /// anywhere in simplify → diagram → layout (including an injected
    /// fault, see [`crate::fault`]) is caught here and classified as a
    /// `panic` error for this request alone. The process, the caches, and
    /// every other connection survive.
    fn compile(&self, fingerprinted: FingerprintedQuery) -> Result<CompiledEntry, ServiceError> {
        self.compiles.fetch_add(1, Ordering::Relaxed);
        catch_unwind(AssertUnwindSafe(|| {
            crate::fault::maybe_panic_compile(&fingerprinted.prepared.sql);
            compile_representative(fingerprinted)
        }))
        .map_err(|payload| {
            self.panics_caught.fetch_add(1, Ordering::Relaxed);
            let detail = if let Some(s) = payload.downcast_ref::<&str>() {
                s
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.as_str()
            } else {
                "non-string panic payload"
            };
            ServiceError::new(
                ErrorKind::Panic,
                format!("diagram compilation panicked: {detail}"),
            )
        })
    }

    /// Publish a compiled entry into L2, invalidating whatever L1 texts
    /// pointed at the fingerprint the insert evicted. Returns the entry
    /// resident after the insert (the incumbent, if a race was lost).
    fn publish(&self, fingerprint: Fingerprint, entry: Arc<CompiledEntry>) -> Arc<CompiledEntry> {
        let (resident, evicted) = self.cache.insert_reporting(fingerprint, entry);
        if let Some(evicted) = evicted {
            self.memo.invalidate(evicted);
        }
        resident
    }

    fn respond(&self, request: &Request, sql_words: usize, entry: &CompiledEntry) -> Response {
        let formats: &[Format] = if request.formats.is_empty() {
            &self.config.default_formats
        } else {
            &request.formats
        };
        // Disclose when the artifacts were rendered from a different
        // (pattern-equivalent) query's SQL — labels may differ. The
        // disclosure shares the entry's Arc, like every artifact string.
        let representative_sql = (entry.representative_sql() != request.sql)
            .then(|| Arc::clone(entry.representative_shared()));
        // Opt-in sample rows: executed (and memoized) per entry, sliced
        // per request. Note the rows — like the diagram — come from the
        // pattern representative.
        let sample_rows = request.rows.map(|wanted| match entry.sample_rows() {
            Ok(samples) => {
                let take = wanted.min(samples.rows.len());
                SampleOutcome::Rows {
                    rows: samples.rows[..take].iter().map(Arc::clone).collect(),
                    truncated: samples.truncated || take < samples.rows.len(),
                }
            }
            Err(message) => SampleOutcome::Error(Arc::clone(message)),
        });
        Response {
            id: request.id,
            outcome: Ok(Artifacts {
                fingerprint: entry.fingerprint(),
                fingerprint_hex: Arc::clone(entry.fingerprint_hex()),
                sql_words,
                representative_sql,
                rendered: formats
                    .iter()
                    .map(|format| (*format, Arc::clone(entry.render(*format))))
                    .collect(),
                sample_rows,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(id: u64, sql: &str) -> Request {
        Request {
            id,
            sql: sql.to_string(),
            formats: vec![Format::Ascii],
            rows: None,
        }
    }

    fn service() -> DiagramService {
        DiagramService::new(ServiceConfig::default())
    }

    /// Serve `requests` one at a time, in order, as both front ends do.
    fn serve_all(service: &DiagramService, requests: &[Request]) -> Vec<Response> {
        requests.iter().map(|r| service.handle(r)).collect()
    }

    #[test]
    fn single_request_miss_then_hit() {
        let service = service();
        let a = service.handle(&request(0, "SELECT T.a FROM T"));
        let b = service.handle(&request(1, "SELECT T.a FROM T"));
        assert!(a.outcome.is_ok() && b.outcome.is_ok());
        let stats = service.stats();
        assert_eq!(stats.compiles, 1);
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.misses, 1);
    }

    #[test]
    fn sample_rows_ride_along_when_requested() {
        let service = service();
        let mut with_rows = request(0, "SELECT T.a FROM T WHERE T.a > 1");
        with_rows.rows = Some(2);

        // Opted out: no rows key at all.
        let plain = service.handle(&request(1, "SELECT T.a FROM T WHERE T.a > 1"));
        let line = plain.to_json_line();
        let parsed = crate::json::parse(&line).unwrap();
        assert!(parsed.get("rows").is_none());
        assert!(parsed.get("rows_error").is_none());

        // Opted in: rows arrive as JSON arrays next to the artifacts, and
        // the diagram itself is unchanged.
        let served = service.handle(&with_rows);
        let line = served.to_json_line();
        let parsed = crate::json::parse(&line).unwrap();
        let rows = parsed
            .get("rows")
            .unwrap_or_else(|| panic!("no rows in {line}"))
            .as_arr()
            .unwrap();
        assert!(rows.len() <= 2);
        for row in rows {
            assert_eq!(row.as_arr().unwrap().len(), 1, "one select column");
        }
        assert!(parsed.get("artifacts").unwrap().get("ascii").is_some());

        // Deterministic: same request, same rows (served from the entry's
        // memoized samples on the warm path).
        let again = service.handle(&with_rows);
        assert_eq!(line, again.to_json_line());

        // A request with a huge count is capped, not a DoS: capped at the
        // entry's sample set.
        let mut greedy = request(2, "SELECT T.a FROM T WHERE T.a > 1");
        greedy.rows = Some(1_000_000);
        assert!(service.handle(&greedy).outcome.is_ok());
    }

    #[test]
    fn errors_are_reported_not_cached() {
        let service = service();
        let r = service.handle(&request(0, "SELECT FROM"));
        assert!(r.outcome.is_err());
        let stats = service.stats();
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.compiles, 0);
        assert_eq!(stats.cache.entries, 0);
    }

    #[test]
    fn batch_deduplicates_equivalent_queries() {
        let service = service();
        let requests = vec![
            request(0, "SELECT T.a FROM T"),
            request(1, "SELECT U.a FROM T U"),
            request(2, "SELECT T.a FROM T"),
        ];
        let responses = serve_all(&service, &requests);
        assert!(responses.iter().all(|r| r.outcome.is_ok()));
        let stats = service.stats();
        assert_eq!(stats.compiles, 1, "one compile for three equivalents");
        // All three share the representative's artifacts and fingerprint.
        let fingerprints: Vec<String> = responses
            .iter()
            .map(|r| r.outcome.as_ref().unwrap().fingerprint.to_string())
            .collect();
        assert_eq!(fingerprints[0], fingerprints[1]);
        assert_eq!(fingerprints[1], fingerprints[2]);
        // The representative (request 0) serves its own SQL; the
        // alias-renamed equivalent is told whose artifacts it received.
        let representative_of = |i: usize| {
            responses[i]
                .outcome
                .as_ref()
                .unwrap()
                .representative_sql
                .as_deref()
                .map(str::to_string)
        };
        assert_eq!(representative_of(0), None);
        assert_eq!(representative_of(1), Some("SELECT T.a FROM T".to_string()));
        assert_eq!(representative_of(2), None, "textually identical");
    }

    #[test]
    fn second_batch_is_all_hits() {
        let service = service();
        // Six structurally distinct patterns (join chains of growing arity),
        // so the first batch compiles six entries.
        let requests: Vec<Request> = (0..6)
            .map(|i| {
                let tables: Vec<String> = (0..=i).map(|t| format!("T{t}")).collect();
                let joins: Vec<String> = (1..=i).map(|t| format!("T0.a = T{t}.a")).collect();
                let sql = if joins.is_empty() {
                    format!("SELECT T0.a FROM {}", tables.join(", "))
                } else {
                    format!(
                        "SELECT T0.a FROM {} WHERE {}",
                        tables.join(", "),
                        joins.join(" AND ")
                    )
                };
                request(i as u64, &sql)
            })
            .collect();
        serve_all(&service, &requests);
        let before = service.stats();
        serve_all(&service, &requests);
        let after = service.stats();
        assert_eq!(after.compiles, before.compiles, "no new compiles");
        assert_eq!(after.cache.misses, before.cache.misses, "no new misses");
        assert_eq!(after.cache.hits - before.cache.hits, 6);
    }

    #[test]
    fn concurrent_handles_compile_once() {
        let service = Arc::new(service());
        let sql = "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
                   (SELECT * FROM Serves S WHERE S.bar = F.bar AND NOT EXISTS \
                   (SELECT L.drink FROM Likes L WHERE L.person = F.person \
                    AND S.drink = L.drink))";
        std::thread::scope(|scope| {
            for i in 0..8 {
                let service = Arc::clone(&service);
                scope.spawn(move || {
                    let r = service.handle(&request(i, sql));
                    assert!(r.outcome.is_ok());
                });
            }
        });
        assert_eq!(service.stats().compiles, 1);
        assert_eq!(service.stats().requests, 8);
    }
}
