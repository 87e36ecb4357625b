//! `queryvis-server`: the fault-tolerant TCP front end (DESIGN.md §7).
//!
//! One listener, thread-per-connection over `std::net` (the workspace
//! carries no async runtime), JSON-lines request/response with pipelining
//! on persistent connections. Every robustness promise is structural:
//!
//! * **Admission control.** At most `max_conns` concurrent connections;
//!   excess connections get one `overloaded` error line (best effort) and
//!   are closed instead of queueing unboundedly.
//! * **Bounded input.** [`crate::net::LineReader`] caps request lines at
//!   `max_line` bytes — an oversized line costs one `too_large` error and
//!   is discarded to its newline; the connection survives.
//! * **Slowloris defense.** A *partial* line that does not complete
//!   within `read_deadline` earns a `timeout` error and disconnect. Idle
//!   connections (no partial line) live indefinitely.
//! * **Bounded output.** Responses are written with a stall budget
//!   (`write_stall`): a reader that stops draining is disconnected, so no
//!   connection can pin unbounded output memory.
//! * **Panic isolation.** [`Frontend::serve_line`] runs each line under
//!   `catch_unwind` (on top of the service's own compile isolation): a
//!   poisoned request fails alone with a `panic` error; connection and
//!   process survive.
//! * **Graceful drain.** On shutdown (the `{"op":"shutdown"}` wire op or
//!   [`ServerHandle::shutdown`]) the listener stops accepting, backlog
//!   connections are refused with a `draining` error line, in-flight
//!   requests finish and flush, and [`Server::run`] returns a
//!   [`DrainReport`] whose `dropped` field is the accepted-but-unanswered
//!   count — zero in any clean drain.
//!
//! Each line is answered by [`Frontend::serve_line`], the function the
//! stdin `service` binary serves through too. Wire operations besides
//! compile requests: `{"op":"ping"}` (liveness), `{"op":"stats"}` (one
//! JSON line: server counters + the service, session and telemetry
//! snapshots), `{"op":"shutdown"}` (ack, then drain).

use crate::frontend::{too_large_reply, Frontend, Served};
use crate::json::Json;
use crate::net::{write_all_stall_bounded, LineReader, Poll};
use crate::protocol::{ErrorKind, Response};
use crate::service::DiagramService;
use queryvis_telemetry::CounterDef;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

static C_CONNECTIONS: CounterDef = CounterDef::new("net.connections");
static C_SHEDS: CounterDef = CounterDef::new("net.sheds");
static C_TIMEOUTS: CounterDef = CounterDef::new("net.timeouts");
static C_TOO_LARGE: CounterDef = CounterDef::new("net.too_large");
static C_SLOW: CounterDef = CounterDef::new("net.slow_disconnects");

/// Serving knobs. The defaults are sized for the fault-injection and soak
/// harnesses; production fronts would tune per deployment.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 asks the OS for a free port (tests, CI).
    pub addr: String,
    /// Concurrent-connection ceiling; connection `max_conns + 1` is shed.
    pub max_conns: usize,
    /// Request-line byte budget (newline excluded).
    pub max_line: usize,
    /// Budget for a *partial* line to complete (slowloris defense).
    pub read_deadline: Duration,
    /// Budget for one zero-progress write slice (slow-reader defense).
    pub write_stall: Duration,
    /// Scheduling quantum: accept-loop sleep and read-timeout slice.
    /// Deadline precision is ± one tick.
    pub tick: Duration,
    /// Grace window for serving lines that are already in flight once
    /// drain begins; whatever completes inside it is answered.
    pub drain_grace: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_conns: 64,
            max_line: 1 << 20,
            read_deadline: Duration::from_secs(10),
            write_stall: Duration::from_secs(5),
            tick: Duration::from_millis(25),
            drain_grace: Duration::from_millis(500),
        }
    }
}

/// What the server did with its lifetime, returned by [`Server::run`]
/// after a drain completes. `accepted` counts complete request lines read
/// off sockets; `responded` counts response lines fully written; their
/// difference is `dropped` — zero unless a client vanished (or stalled
/// past its write budget) between sending a request and reading its
/// answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    pub accepted: u64,
    pub responded: u64,
    pub dropped: u64,
    pub connections: u64,
    pub sheds: u64,
    pub drain_refusals: u64,
    pub timeouts: u64,
    pub too_large: u64,
    pub slow_disconnects: u64,
    /// Edit sessions still open when the drain completed, closed by it —
    /// zero when every client closed (or lost) its sessions first.
    pub sessions_closed: u64,
}

impl DrainReport {
    pub fn json(&self) -> Json {
        Json::Obj(vec![
            ("accepted".to_string(), Json::Int(self.accepted)),
            ("responded".to_string(), Json::Int(self.responded)),
            ("dropped".to_string(), Json::Int(self.dropped)),
            ("connections".to_string(), Json::Int(self.connections)),
            ("sheds".to_string(), Json::Int(self.sheds)),
            ("drain_refusals".to_string(), Json::Int(self.drain_refusals)),
            ("timeouts".to_string(), Json::Int(self.timeouts)),
            ("too_large".to_string(), Json::Int(self.too_large)),
            (
                "slow_disconnects".to_string(),
                Json::Int(self.slow_disconnects),
            ),
            (
                "sessions_closed".to_string(),
                Json::Int(self.sessions_closed),
            ),
        ])
    }
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    frontend: Frontend,
    config: ServerConfig,
    draining: AtomicBool,
    open_conns: AtomicUsize,
    connections: AtomicU64,
    accepted: AtomicU64,
    responded: AtomicU64,
    sheds: AtomicU64,
    drain_refusals: AtomicU64,
    timeouts: AtomicU64,
    too_large: AtomicU64,
    slow_disconnects: AtomicU64,
}

impl Shared {
    fn report(&self) -> DrainReport {
        let accepted = self.accepted.load(Ordering::Relaxed);
        let responded = self.responded.load(Ordering::Relaxed);
        DrainReport {
            accepted,
            responded,
            dropped: accepted.saturating_sub(responded),
            connections: self.connections.load(Ordering::Relaxed),
            sheds: self.sheds.load(Ordering::Relaxed),
            drain_refusals: self.drain_refusals.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            too_large: self.too_large.load(Ordering::Relaxed),
            slow_disconnects: self.slow_disconnects.load(Ordering::Relaxed),
            sessions_closed: 0, // filled in by the drain in `run`
        }
    }

    /// The `{"op":"stats"}` reply: live server counters, then the
    /// sections every front end reports.
    fn stats_reply(&self, out: &mut String) {
        let server = Json::Obj(vec![
            (
                "accepted".to_string(),
                Json::Int(self.accepted.load(Ordering::Relaxed)),
            ),
            (
                "responded".to_string(),
                Json::Int(self.responded.load(Ordering::Relaxed)),
            ),
            (
                "connections_total".to_string(),
                Json::Int(self.connections.load(Ordering::Relaxed)),
            ),
            (
                "connections_open".to_string(),
                Json::Int(self.open_conns.load(Ordering::Relaxed) as u64),
            ),
            (
                "sheds".to_string(),
                Json::Int(self.sheds.load(Ordering::Relaxed)),
            ),
            (
                "timeouts".to_string(),
                Json::Int(self.timeouts.load(Ordering::Relaxed)),
            ),
            (
                "too_large".to_string(),
                Json::Int(self.too_large.load(Ordering::Relaxed)),
            ),
            (
                "slow_disconnects".to_string(),
                Json::Int(self.slow_disconnects.load(Ordering::Relaxed)),
            ),
            (
                "draining".to_string(),
                Json::Bool(self.draining.load(Ordering::Acquire)),
            ),
        ]);
        self.frontend.stats_reply(Some(server), out);
    }

    /// Best-effort one-line refusal on a connection we will not serve
    /// (admission shed or drain), then close. The write gets a short
    /// budget so a non-reading client cannot stall the accept loop.
    fn refuse(&self, mut stream: TcpStream, kind: ErrorKind, message: &str) {
        match kind {
            ErrorKind::Overloaded => {
                self.sheds.fetch_add(1, Ordering::Relaxed);
                C_SHEDS.add(1);
            }
            _ => {
                self.drain_refusals.fetch_add(1, Ordering::Relaxed);
            }
        }
        let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
        let mut line = Response::error_kind(0, kind, message).to_json_line();
        line.push('\n');
        let _ = write_all_stall_bounded(&mut stream, line.as_bytes());
        let _ = stream.shutdown(Shutdown::Both);
    }
}

/// A bound, not-yet-running server. [`Server::run`] blocks the calling
/// thread in the accept loop; [`Server::spawn`] runs it on its own thread
/// and returns the control handle.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

/// Remote control for a running server: its bound address, a drain
/// trigger, and the join that yields the final [`DrainReport`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: Option<thread::JoinHandle<DrainReport>>,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begin the drain (idempotent): stop accepting, finish in-flight
    /// requests, flush, exit.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::Release);
    }

    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// Wait for the drain to complete. `None` when this handle did not
    /// own the server thread ([`Server::run`] callers get the report from
    /// `run` itself).
    pub fn join(mut self) -> Option<DrainReport> {
        self.thread
            .take()
            .map(|t| t.join().expect("server thread must not panic"))
    }
}

impl Server {
    /// Bind the listener (port 0 supported) with a service the caller
    /// configured. No thread starts until `run`/`spawn`.
    pub fn bind(service: Arc<DiagramService>, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            shared: Arc::new(Shared {
                frontend: Frontend::new(service),
                config,
                draining: AtomicBool::new(false),
                open_conns: AtomicUsize::new(0),
                connections: AtomicU64::new(0),
                accepted: AtomicU64::new(0),
                responded: AtomicU64::new(0),
                sheds: AtomicU64::new(0),
                drain_refusals: AtomicU64::new(0),
                timeouts: AtomicU64::new(0),
                too_large: AtomicU64::new(0),
                slow_disconnects: AtomicU64::new(0),
            }),
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A control handle usable from other threads while `run` blocks.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.addr,
            shared: Arc::clone(&self.shared),
            thread: None,
        }
    }

    /// Run the accept loop to drain completion on this thread.
    pub fn run(self) -> DrainReport {
        let Server {
            listener, shared, ..
        } = self;
        let mut workers: Vec<thread::JoinHandle<()>> = Vec::new();
        while !shared.draining.load(Ordering::Acquire) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    workers.retain(|w| !w.is_finished());
                    if shared.open_conns.load(Ordering::Acquire) >= shared.config.max_conns {
                        shared.refuse(
                            stream,
                            ErrorKind::Overloaded,
                            "connection limit reached; retry against a less-loaded server",
                        );
                        continue;
                    }
                    shared.open_conns.fetch_add(1, Ordering::AcqRel);
                    // The connection ordinal doubles as the session owner
                    // id: sessions opened here die with this connection.
                    let owner = shared.connections.fetch_add(1, Ordering::Relaxed) + 1;
                    C_CONNECTIONS.add(1);
                    let conn_shared = Arc::clone(&shared);
                    workers.push(thread::spawn(move || {
                        serve_connection(&conn_shared, stream, owner);
                        conn_shared.frontend.sessions.reap_owner(owner);
                        conn_shared.open_conns.fetch_sub(1, Ordering::AcqRel);
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(shared.config.tick);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => thread::sleep(shared.config.tick),
            }
        }
        // Drain: refuse whatever is still in the backlog with a
        // structured notice, then stop listening and let in-flight
        // connections finish.
        while let Ok((stream, _peer)) = listener.accept() {
            shared.refuse(
                stream,
                ErrorKind::Draining,
                "server is draining toward shutdown",
            );
        }
        drop(listener);
        for worker in workers {
            let _ = worker.join();
        }
        // Workers have reaped their own sessions on the way out; whatever
        // is left (none, in a clean drain) is closed here so the ledger
        // balances.
        let sessions_closed = shared.frontend.sessions.close_all() as u64;
        let mut report = shared.report();
        report.sessions_closed = sessions_closed;
        report
    }

    /// Run on a dedicated thread; the returned handle joins for the
    /// [`DrainReport`].
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let shared = Arc::clone(&self.shared);
        let thread = thread::spawn(move || self.run());
        ServerHandle {
            addr,
            shared,
            thread: Some(thread),
        }
    }
}

/// Write one response line; a stall past the write budget (or any other
/// write failure) kills the connection. Returns whether the line was
/// fully written.
fn write_response(shared: &Shared, writer: &mut TcpStream, line: &mut String) -> bool {
    line.push('\n');
    match write_all_stall_bounded(writer, line.as_bytes()) {
        Ok(()) => {
            shared.responded.fetch_add(1, Ordering::Relaxed);
            true
        }
        Err(e) => {
            if e.kind() == io::ErrorKind::TimedOut {
                shared.slow_disconnects.fetch_add(1, Ordering::Relaxed);
                C_SLOW.add(1);
            }
            false
        }
    }
}

fn serve_connection(shared: &Shared, stream: TcpStream, owner: u64) {
    let config = &shared.config;
    // Read in `tick` slices so deadline and drain checks interleave with
    // blocking reads; writes carry the stall budget.
    if stream.set_read_timeout(Some(config.tick)).is_err() {
        return;
    }
    let _ = stream.set_write_timeout(Some(config.write_stall));
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = LineReader::new(stream, config.max_line);
    let mut line_no: u64 = 0;
    // One reply buffer for the connection's lifetime.
    let mut reply = String::with_capacity(4096);
    // Start of the current partial line (slowloris deadline anchor).
    let mut partial_since: Option<Instant> = None;
    // When drain was first observed on this connection.
    let mut drain_since: Option<Instant> = None;

    loop {
        if shared.draining.load(Ordering::Acquire) {
            let since = drain_since.get_or_insert_with(Instant::now);
            if since.elapsed() >= config.drain_grace {
                break; // whatever is still partial was never accepted
            }
        }
        match reader.poll() {
            Poll::Line(text) => {
                partial_since = None;
                let id = line_no;
                line_no += 1;
                if text.trim().is_empty() {
                    continue;
                }
                shared.accepted.fetch_add(1, Ordering::Relaxed);
                let served = shared.frontend.serve_line(&text, id, owner, &mut reply);
                if served == Served::Stats {
                    shared.stats_reply(&mut reply);
                }
                let ok = write_response(shared, &mut writer, &mut reply);
                if served == Served::Shutdown {
                    shared.draining.store(true, Ordering::Release);
                }
                if !ok {
                    return;
                }
            }
            Poll::TooLarge { len } => {
                partial_since = None;
                let id = line_no;
                line_no += 1;
                shared.too_large.fetch_add(1, Ordering::Relaxed);
                C_TOO_LARGE.add(1);
                // The line was received (and discarded): count it so the
                // error response keeps accepted == responded.
                shared.accepted.fetch_add(1, Ordering::Relaxed);
                too_large_reply(id, config.max_line, len, &mut reply);
                if !write_response(shared, &mut writer, &mut reply) {
                    return;
                }
            }
            Poll::Idle => {
                if reader.partial_len() == 0 {
                    partial_since = None;
                    if shared.draining.load(Ordering::Acquire) {
                        break; // between requests and draining: done
                    }
                    continue;
                }
                let since = partial_since.get_or_insert_with(Instant::now);
                if since.elapsed() >= config.read_deadline {
                    shared.timeouts.fetch_add(1, Ordering::Relaxed);
                    C_TIMEOUTS.add(1);
                    let mut line = Response::error_kind(
                        line_no,
                        ErrorKind::Timeout,
                        format!(
                            "request line did not complete within {:?}",
                            config.read_deadline
                        ),
                    )
                    .to_json_line();
                    line.push('\n');
                    let _ = write_all_stall_bounded(&mut writer, line.as_bytes());
                    break;
                }
            }
            Poll::Eof => break,
            Poll::Fatal(_) => break,
        }
    }
    let _ = writer.flush();
    let _ = writer.shutdown(Shutdown::Both);
}
