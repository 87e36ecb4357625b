//! The TCP front end over real sockets: every fault class the server
//! promises to survive, driven in-process against `Server::spawn` —
//! pipelining, malformed frames, oversized lines, slowloris, half-close,
//! connection floods, injected compile panics, and graceful drain with
//! zero accepted-but-dropped requests.

use queryvis_service::json::{self, Json};
use queryvis_service::{fault, DiagramService, Server, ServerConfig, ServerHandle, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn spawn_server(mut config: ServerConfig) -> ServerHandle {
    config.addr = "127.0.0.1:0".to_string();
    config.tick = Duration::from_millis(10);
    let service = Arc::new(DiagramService::new(ServiceConfig::default()));
    Server::bind(service, config)
        .expect("bind on a free port")
        .spawn()
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

/// Send one line, read one response line, parse it.
fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Json {
    stream.write_all(line.as_bytes()).expect("send");
    stream.write_all(b"\n").expect("send newline");
    read_line(reader)
}

fn read_line(reader: &mut BufReader<TcpStream>) -> Json {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    assert!(line.ends_with('\n'), "response must be a complete line");
    json::parse(&line).unwrap_or_else(|e| panic!("response must be JSON ({e}): {line}"))
}

fn paired(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = connect(addr);
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

/// The counter at `path` in a stats reply's `service` section.
fn service_counter(stats: &Json, path: &[&str]) -> u64 {
    let mut json = stats.get("service").expect("service section");
    for key in path {
        json = json.get(key).unwrap_or_else(|| panic!("no {key}"));
    }
    json.as_u64().expect("a count")
}

fn error_kind(response: &Json) -> Option<String> {
    response
        .get("error_kind")
        .and_then(Json::as_str)
        .map(str::to_string)
}

#[test]
fn pipelined_requests_answer_in_order_on_one_connection() {
    let server = spawn_server(ServerConfig::default());
    let (mut stream, mut reader) = paired(server.addr());

    // Pipeline: write every request before reading any response.
    let mut batch = String::new();
    for id in 0..8 {
        batch.push_str(&format!(
            "{{\"id\":{id},\"sql\":\"SELECT T.a FROM T WHERE T.a = {id}\"}}\n"
        ));
    }
    stream.write_all(batch.as_bytes()).expect("pipeline");
    for id in 0..8 {
        let response = read_line(&mut reader);
        assert_eq!(response.get("id").and_then(Json::as_u64), Some(id));
        assert!(response.get("artifacts").is_some(), "id {id} must succeed");
    }

    server.shutdown();
    let report = server.join().expect("report");
    assert_eq!(report.accepted, 8);
    assert_eq!(report.responded, 8);
    assert_eq!(report.dropped, 0);
}

#[test]
fn malformed_and_unknown_frames_get_structured_errors_and_the_connection_survives() {
    let server = spawn_server(ServerConfig::default());
    let (mut stream, mut reader) = paired(server.addr());

    let bad = roundtrip(&mut stream, &mut reader, "{{{not json");
    assert_eq!(error_kind(&bad).as_deref(), Some("bad_request"));
    let bad = roundtrip(&mut stream, &mut reader, "{\"sql\":7}");
    assert_eq!(error_kind(&bad).as_deref(), Some("bad_request"));
    let bad = roundtrip(&mut stream, &mut reader, "{\"op\":\"reboot\"}");
    assert_eq!(error_kind(&bad).as_deref(), Some("bad_request"));
    assert_eq!(bad.get("id").and_then(Json::as_u64), Some(2), "line index");
    // A line that names its id gets it back, whatever is wrong with it.
    let bad = roundtrip(
        &mut stream,
        &mut reader,
        "{\"op\":\"frobnicate\",\"id\":5,\"sql\":\"SELECT T.a FROM T\"}",
    );
    assert_eq!(error_kind(&bad).as_deref(), Some("bad_request"));
    assert_eq!(bad.get("id").and_then(Json::as_u64), Some(5));
    let bad = roundtrip(&mut stream, &mut reader, "{\"id\":9,\"sql\":7}");
    assert_eq!(error_kind(&bad).as_deref(), Some("bad_request"));
    assert_eq!(bad.get("id").and_then(Json::as_u64), Some(9));
    // A compile-rejected query is an error, not a disconnect.
    let bad = roundtrip(
        &mut stream,
        &mut reader,
        "{\"id\":4,\"sql\":\"DROP TABLE T\"}",
    );
    assert_eq!(error_kind(&bad).as_deref(), Some("compile"));
    // Same connection still serves good requests afterwards.
    let ok = roundtrip(
        &mut stream,
        &mut reader,
        "{\"id\":9,\"sql\":\"SELECT T.a FROM T\"}",
    );
    assert!(
        ok.get("artifacts").is_some(),
        "connection must survive: {ok:?}"
    );

    server.shutdown();
    assert_eq!(server.join().expect("report").dropped, 0);
}

#[test]
fn oversized_line_costs_one_too_large_error_not_the_connection() {
    let server = spawn_server(ServerConfig {
        max_line: 4096,
        ..ServerConfig::default()
    });
    let (mut stream, mut reader) = paired(server.addr());

    let huge = format!(
        "{{\"id\":1,\"sql\":\"SELECT T.a FROM T WHERE T.a = {}\"}}",
        "1".repeat(64 * 1024)
    );
    let response = roundtrip(&mut stream, &mut reader, &huge);
    assert_eq!(error_kind(&response).as_deref(), Some("too_large"));
    // The oversized line was discarded to its newline; the stream is clean.
    let ok = roundtrip(
        &mut stream,
        &mut reader,
        "{\"id\":2,\"sql\":\"SELECT T.a FROM T\"}",
    );
    assert!(ok.get("artifacts").is_some(), "stream must recover: {ok:?}");

    server.shutdown();
    let report = server.join().expect("report");
    assert_eq!(report.too_large, 1);
    assert_eq!(report.dropped, 0);
}

#[test]
fn slowloris_partial_line_times_out_with_a_structured_error() {
    let server = spawn_server(ServerConfig {
        read_deadline: Duration::from_millis(150),
        ..ServerConfig::default()
    });
    let (mut stream, mut reader) = paired(server.addr());

    // Trickle partial-line bytes far slower than the deadline allows;
    // the writes start failing once the server gives up on us.
    let doomed = b"{\"id\":1,\"sql\":\"SELECT ";
    for &byte in doomed.iter().cycle().take(40) {
        if stream.write_all(&[byte]).is_err() {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    // If the timeout line survived the teardown race, it is classified;
    // the server-side counter below is the authoritative assertion.
    let mut line = String::new();
    if reader.read_line(&mut line).is_ok() && !line.trim().is_empty() {
        let parsed = json::parse(line.trim()).expect("timeout line parses");
        assert_eq!(error_kind(&parsed).as_deref(), Some("timeout"));
    }

    server.shutdown();
    assert_eq!(server.join().expect("report").timeouts, 1);
}

#[test]
fn half_closed_client_still_receives_every_buffered_response() {
    let server = spawn_server(ServerConfig::default());
    let (mut stream, mut reader) = paired(server.addr());

    let mut batch = String::new();
    for id in 0..4 {
        batch.push_str(&format!("{{\"id\":{id},\"sql\":\"SELECT T.a FROM T\"}}\n"));
    }
    stream.write_all(batch.as_bytes()).expect("batch");
    // Half-close: we are done writing, but still reading.
    stream.shutdown(Shutdown::Write).expect("half-close");
    for id in 0..4 {
        let response = read_line(&mut reader);
        assert_eq!(response.get("id").and_then(Json::as_u64), Some(id));
        assert!(response.get("artifacts").is_some());
    }
    // Then the server winds the connection down cleanly.
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap_or(0), 0, "clean EOF");

    server.shutdown();
    let report = server.join().expect("report");
    assert_eq!(report.accepted, 4);
    assert_eq!(report.dropped, 0);
}

#[test]
fn mid_request_disconnect_leaves_the_server_serving() {
    let server = spawn_server(ServerConfig::default());

    // Abandon a connection with a partial line in flight.
    {
        let mut stream = connect(server.addr());
        stream
            .write_all(b"{\"id\":1,\"sql\":\"SELECT T.")
            .expect("partial");
        // Dropped here: RST/FIN with an incomplete request.
    }
    // And one that vanishes right after a complete request.
    {
        let mut stream = connect(server.addr());
        stream
            .write_all(b"{\"id\":2,\"sql\":\"SELECT T.a FROM T\"}\n")
            .expect("complete");
        stream.shutdown(Shutdown::Both).expect("vanish");
    }
    std::thread::sleep(Duration::from_millis(100));
    // The server still serves new connections.
    let (mut stream, mut reader) = paired(server.addr());
    let ok = roundtrip(
        &mut stream,
        &mut reader,
        "{\"id\":3,\"sql\":\"SELECT T.a FROM T\"}",
    );
    assert!(ok.get("artifacts").is_some(), "server must survive: {ok:?}");

    server.shutdown();
    let report = server.join().expect("report");
    // The abandoned partial line was never accepted; the vanished-but-
    // complete request may or may not have been answered in time, but the
    // live connection's request must be.
    assert!(report.responded >= 1);
}

#[test]
fn connection_flood_is_shed_with_overloaded_not_queued() {
    let server = spawn_server(ServerConfig {
        max_conns: 2,
        ..ServerConfig::default()
    });

    // Fill the admission budget with two held-open connections.
    let (mut s1, mut r1) = paired(server.addr());
    let ok = roundtrip(&mut s1, &mut r1, "{\"id\":1,\"sql\":\"SELECT T.a FROM T\"}");
    assert!(ok.get("artifacts").is_some());
    let (mut s2, mut r2) = paired(server.addr());
    let ok = roundtrip(&mut s2, &mut r2, "{\"id\":2,\"sql\":\"SELECT T.a FROM T\"}");
    assert!(ok.get("artifacts").is_some());

    // The flood: every further connection gets one `overloaded` line.
    let mut sheds = 0;
    for _ in 0..5 {
        let stream = connect(server.addr());
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap_or(0) > 0 {
            let parsed = json::parse(&line).expect("shed line parses");
            assert_eq!(error_kind(&parsed).as_deref(), Some("overloaded"));
            sheds += 1;
        }
    }
    assert!(
        sheds >= 4,
        "flood must be shed with structured errors, got {sheds}"
    );

    // Capacity frees up once a held connection leaves.
    drop((s1, r1));
    std::thread::sleep(Duration::from_millis(100));
    let (mut s3, mut r3) = paired(server.addr());
    let ok = roundtrip(&mut s3, &mut r3, "{\"id\":3,\"sql\":\"SELECT T.a FROM T\"}");
    assert!(ok.get("artifacts").is_some(), "slot must free: {ok:?}");

    server.shutdown();
    let report = server.join().expect("report");
    assert!(report.sheds >= 4);
    assert_eq!(report.dropped, 0);
}

#[test]
fn injected_compile_panic_is_contained_to_one_request_over_the_wire() {
    fault::arm_compile_panic("Wire_Poison_xyzzy");
    let server = spawn_server(ServerConfig::default());
    let (mut stream, mut reader) = paired(server.addr());

    let poisoned = roundtrip(
        &mut stream,
        &mut reader,
        "{\"id\":1,\"sql\":\"SELECT P.a FROM Wire_Poison_xyzzy P WHERE P.a = 1 AND P.b = 2\"}",
    );
    assert_eq!(error_kind(&poisoned).as_deref(), Some("panic"));
    // Connection survives; the process-level counter saw the panic.
    let ok = roundtrip(
        &mut stream,
        &mut reader,
        "{\"id\":2,\"sql\":\"SELECT T.a FROM T\"}",
    );
    assert!(
        ok.get("artifacts").is_some(),
        "connection must survive: {ok:?}"
    );
    let stats = roundtrip(&mut stream, &mut reader, "{\"op\":\"stats\"}");
    let panics = stats
        .get("service")
        .and_then(|s| s.get("panics_caught"))
        .and_then(Json::as_u64);
    assert_eq!(panics, Some(1), "stats must report the caught panic");
    fault::disarm_compile_panic();

    server.shutdown();
    let report = server.join().expect("report");
    assert_eq!(report.dropped, 0);
}

#[test]
fn shutdown_op_drains_gracefully_and_refuses_stragglers() {
    let server = spawn_server(ServerConfig {
        drain_grace: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let (mut stream, mut reader) = paired(server.addr());

    // Requests pipelined *before* the shutdown op must all be answered.
    let mut batch = String::new();
    for id in 0..4 {
        batch.push_str(&format!("{{\"id\":{id},\"sql\":\"SELECT T.a FROM T\"}}\n"));
    }
    batch.push_str("{\"op\":\"shutdown\"}\n");
    stream.write_all(batch.as_bytes()).expect("batch");
    for id in 0..4 {
        let response = read_line(&mut reader);
        assert_eq!(response.get("id").and_then(Json::as_u64), Some(id));
        assert!(response.get("artifacts").is_some(), "pre-drain id {id}");
    }
    let ack = read_line(&mut reader);
    assert_eq!(ack.get("draining"), Some(&Json::Bool(true)));

    // A connection arriving during the drain gets a structured refusal
    // (or, once the listener is gone, a connect error) — never a hang.
    if let Ok(stream) = TcpStream::connect(server.addr()) {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap_or(0) > 0 {
            let parsed = json::parse(&line).expect("refusal parses");
            assert_eq!(error_kind(&parsed).as_deref(), Some("draining"));
        } // else: closed before a line — also a refusal, not a hang
    }

    let report = server.join().expect("report");
    assert_eq!(report.accepted, 5, "4 requests + shutdown op");
    assert_eq!(report.responded, 5, "4 responses + shutdown ack");
    assert_eq!(report.dropped, 0, "graceful drain loses nothing accepted");
}

#[test]
fn stats_op_reports_server_service_and_telemetry_sections() {
    let server = spawn_server(ServerConfig::default());
    let (mut stream, mut reader) = paired(server.addr());

    let ok = roundtrip(
        &mut stream,
        &mut reader,
        "{\"id\":1,\"sql\":\"SELECT T.a FROM T\"}",
    );
    assert!(ok.get("artifacts").is_some());
    // Same text again: must be an L1 memo hit.
    let ok = roundtrip(
        &mut stream,
        &mut reader,
        "{\"id\":2,\"sql\":\"SELECT T.a FROM T\"}",
    );
    assert!(ok.get("artifacts").is_some());

    let stats = roundtrip(&mut stream, &mut reader, "{\"op\":\"stats\"}");
    assert_eq!(stats.get("op").and_then(Json::as_str), Some("stats"));
    let server_section = stats.get("server").expect("server section");
    for key in [
        "accepted",
        "responded",
        "connections_total",
        "connections_open",
        "sheds",
        "timeouts",
        "too_large",
        "slow_disconnects",
        "draining",
    ] {
        assert!(server_section.get(key).is_some(), "server.{key} missing");
    }
    assert_eq!(
        server_section
            .get("connections_open")
            .and_then(Json::as_u64),
        Some(1)
    );
    let service = stats.get("service").expect("service section");
    assert_eq!(service.get("requests").and_then(Json::as_u64), Some(2));
    assert_eq!(service.get("l1_hits").and_then(Json::as_u64), Some(1));
    assert!(stats.get("telemetry").is_some(), "telemetry section");

    let ping = roundtrip(&mut stream, &mut reader, "{\"op\":\"ping\"}");
    assert_eq!(ping.get("ok"), Some(&Json::Bool(true)));

    server.shutdown();
    assert_eq!(server.join().expect("report").dropped, 0);
}

#[test]
fn session_ops_compile_incrementally_over_the_wire() {
    let server = spawn_server(ServerConfig::default());
    let (mut stream, mut reader) = paired(server.addr());

    let opened = roundtrip(
        &mut stream,
        &mut reader,
        "{\"op\":\"open\",\"id\":1,\"sql\":\"SELECT T.a FROM T\"}",
    );
    let session = opened
        .get("session")
        .and_then(Json::as_u64)
        .expect("open assigns a session id");
    assert_eq!(
        opened
            .get("scene")
            .and_then(|s| s.get("v"))
            .and_then(Json::as_u64),
        Some(2),
        "open syncs a v2 scene document"
    );
    let cold_fp = opened.get("fingerprint").and_then(Json::as_str).unwrap();

    // Whitespace keystroke: a new text, so an L1 miss, but L2 serves
    // its pattern without a compile; fingerprint unchanged, empty patch
    // against the acked scene.
    let before = roundtrip(&mut stream, &mut reader, "{\"op\":\"stats\"}");
    let edited = roundtrip(
        &mut stream,
        &mut reader,
        &format!(
            "{{\"op\":\"edit\",\"id\":2,\"session\":{session},\"edits\":[{{\"at\":6,\"ins\":\" \"}}]}}"
        ),
    );
    let after = roundtrip(&mut stream, &mut reader, "{\"op\":\"stats\"}");
    assert_eq!(
        edited.get("fingerprint").and_then(Json::as_str),
        Some(cold_fp)
    );
    assert_eq!(
        edited
            .get("patch")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(0),
        "the unchanged scene ships an empty patch"
    );
    for (path, added) in [
        (&["l1_hits"][..], 0),
        (&["cache", "hits"][..], 1),
        (&["compiles"][..], 0),
    ] {
        assert_eq!(
            service_counter(&after, path),
            service_counter(&before, path) + added,
            "{path:?}"
        );
    }

    // A broken intermediate state is an error, not a lost session.
    let broken = roundtrip(
        &mut stream,
        &mut reader,
        &format!(
            "{{\"op\":\"edit\",\"id\":3,\"session\":{session},\"edits\":[{{\"at\":18,\"ins\":\" WHERE\"}}]}}"
        ),
    );
    assert_eq!(error_kind(&broken).as_deref(), Some("compile"));
    let recovered = roundtrip(
        &mut stream,
        &mut reader,
        &format!(
            "{{\"op\":\"edit\",\"id\":4,\"session\":{session},\"edits\":[{{\"at\":18,\"del\":6}}]}}"
        ),
    );
    for reply in [&opened, &edited, &recovered] {
        assert!(reply.get("path").is_none(), "replies name no compile tier");
    }

    // The stats op carries the session ledger; the recovery, which
    // restores the whitespace edit's text, was answered by the service's
    // L1 memo.
    let stats = roundtrip(&mut stream, &mut reader, "{\"op\":\"stats\"}");
    let sessions = stats.get("sessions").expect("sessions section");
    assert_eq!(sessions.get("open").and_then(Json::as_u64), Some(1));
    assert_eq!(sessions.get("edits").and_then(Json::as_u64), Some(3));
    let service = stats.get("service").expect("service section");
    assert_eq!(service.get("l1_hits").and_then(Json::as_u64), Some(1));
    assert_eq!(sessions.get("parse_errors").and_then(Json::as_u64), Some(1));

    let closed = roundtrip(
        &mut stream,
        &mut reader,
        &format!("{{\"op\":\"close\",\"id\":5,\"session\":{session}}}"),
    );
    assert_eq!(closed.get("closed"), Some(&Json::Bool(true)));

    server.shutdown();
    let report = server.join().expect("report");
    assert_eq!(report.dropped, 0);
    assert_eq!(report.sessions_closed, 0, "client closed its own session");
}

#[test]
fn sessions_are_owner_scoped_reaped_on_disconnect_and_closed_by_drain() {
    let server = spawn_server(ServerConfig::default());

    // Connection A opens a session, then vanishes without closing it.
    let leaked_session;
    {
        let (mut stream, mut reader) = paired(server.addr());
        let opened = roundtrip(
            &mut stream,
            &mut reader,
            "{\"op\":\"open\",\"id\":1,\"sql\":\"SELECT T.a FROM T\"}",
        );
        leaked_session = opened.get("session").and_then(Json::as_u64).unwrap();
        stream.shutdown(Shutdown::Both).expect("vanish");
    }
    std::thread::sleep(Duration::from_millis(150));

    // Connection B cannot see A's (now reaped) session, and its own edit
    // against it is a structured refusal either way.
    let (mut stream, mut reader) = paired(server.addr());
    let foreign = roundtrip(
        &mut stream,
        &mut reader,
        &format!(
            "{{\"op\":\"edit\",\"id\":1,\"session\":{leaked_session},\"edits\":[{{\"at\":0,\"ins\":\" \"}}]}}"
        ),
    );
    assert_eq!(error_kind(&foreign).as_deref(), Some("bad_request"));
    let stats = roundtrip(&mut stream, &mut reader, "{\"op\":\"stats\"}");
    let sessions = stats.get("sessions").expect("sessions section");
    assert_eq!(sessions.get("reaped").and_then(Json::as_u64), Some(1));
    assert_eq!(sessions.get("open").and_then(Json::as_u64), Some(0));

    // B opens a session and leaves it open across the drain: the drain
    // must close it and say so in the report.
    let opened = roundtrip(
        &mut stream,
        &mut reader,
        "{\"op\":\"open\",\"id\":2,\"sql\":\"SELECT U.b FROM U\"}",
    );
    assert!(opened.get("session").is_some());
    stream
        .write_all(b"{\"op\":\"shutdown\"}\n")
        .expect("shutdown op");
    let ack = read_line(&mut reader);
    assert_eq!(ack.get("draining"), Some(&Json::Bool(true)));
    drop((stream, reader));

    let report = server.join().expect("report");
    assert_eq!(report.dropped, 0);
    // The open session was cleaned up by disconnect-reap or the drain
    // sweep (whichever won the race); nothing may leak.
    assert!(report.sessions_closed <= 1);
}
