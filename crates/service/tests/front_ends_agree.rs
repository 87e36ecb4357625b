//! The two front ends answer one script with the same bytes: the stdin
//! `service` binary and, over one TCP connection, the `server` binary,
//! both started with the same `--max-line`. Both serve every line through
//! `Frontend::serve_line`; this pins that nothing in either binary's
//! framing or bookkeeping changes a reply.
//!
//! The one reply compared loosely is `too_large`: its "received at least
//! N" counts the bytes buffered when the line tripped the budget, which
//! depends on how reads were chunked. It is compared by `id` and
//! `error_kind`.

use queryvis_service::json::{self, Json};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const MAX_LINE: usize = 4096;

/// Kills the child if the test fails before it exits on its own.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn script() -> String {
    let oversized = format!(
        r#"{{"id":30,"sql":"SELECT T.a FROM T WHERE T.a = {}"}}"#,
        "1".repeat(2 * MAX_LINE)
    );
    let lines = [
        // Every format, then sample rows.
        r#"{"id":1,"sql":"SELECT T.a FROM T","formats":["ascii","dot","svg","reading","scene_json"]}"#,
        r#"{"id":2,"sql":"SELECT T.a FROM T WHERE T.a > 1","rows":3}"#,
        // A pattern-equivalent alias rename discloses its representative;
        // an exact repeat does not.
        r#"{"id":3,"sql":"SELECT U.a FROM T U","formats":["ascii","svg"]}"#,
        r#"{"id":4,"sql":"SELECT T.a FROM T","formats":["svg"]}"#,
        r#"{"id":5,"sql":"SELECT FROM"}"#,
        // Malformed lines: bad JSON, bad field shapes with explicit ids,
        // an unknown op.
        "{{{not json",
        r#"{"id":9,"sql":7}"#,
        r#"{"id":10,"sql":"SELECT T.a FROM T","formats":["png"]}"#,
        r#"{"op":"frobnicate","id":11,"sql":"SELECT T.a FROM T"}"#,
        r#"{"op":"ping"}"#,
        // A blank line still takes a line index: the next default ids
        // shift by one.
        "",
        r#"{"sql":"SELECT T.b FROM T WHERE T.b = 2"}"#,
        r#"{"sql":7}"#,
        // One edit session: open, a patching edit, a broken edit, the
        // recovery, close, and a stale close.
        r#"{"op":"open","id":20,"sql":"SELECT T.a FROM T WHERE T.a = 1"}"#,
        r#"{"op":"edit","id":21,"session":1,"edits":[{"at":31,"del":0,"ins":" AND T.b = 2"}]}"#,
        r#"{"op":"edit","id":22,"session":1,"edits":[{"at":0,"del":6,"ins":"SELEC"}]}"#,
        r#"{"op":"edit","id":23,"session":1,"edits":[{"at":0,"del":5,"ins":"SELECT"}]}"#,
        r#"{"op":"close","id":24,"session":1}"#,
        r#"{"op":"close","id":25,"session":1}"#,
        // One oversized line, then proof the stream recovered.
        &oversized,
        r#"{"id":31,"sql":"SELECT T.a FROM T"}"#,
    ];
    let mut script = lines.join("\n");
    script.push('\n');
    script
}

fn via_stdin(script: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_service"))
        .args(["--max-line", &MAX_LINE.to_string()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn service");
    let mut stdin = child.stdin.take().expect("stdin");
    stdin.write_all(script.as_bytes()).expect("feed stdin");
    drop(stdin);
    let output = child.wait_with_output().expect("service output");
    assert!(
        output.status.success(),
        "service exited with {}",
        output.status
    );
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

fn via_socket(script: &str) -> String {
    let mut server = Reaped(
        Command::new(env!("CARGO_BIN_EXE_server"))
            .args(["--addr", "127.0.0.1:0", "--max-line", &MAX_LINE.to_string()])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn server"),
    );
    let mut stdout = BufReader::new(server.0.stdout.take().expect("server stdout"));
    let mut listening = String::new();
    stdout.read_line(&mut listening).expect("listening line");
    let addr = json::parse(&listening)
        .ok()
        .and_then(|v| {
            v.get("listening")
                .and_then(Json::as_str)
                .map(str::to_string)
        })
        .unwrap_or_else(|| panic!("no listening address in {listening:?}"));

    let connect = || {
        let stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        stream
    };
    // The whole script on one connection, then half-close: the server
    // answers every line it read before it closes its side.
    let mut stream = connect();
    stream.write_all(script.as_bytes()).expect("send script");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut replies = String::new();
    stream.read_to_string(&mut replies).expect("read replies");

    let mut control = connect();
    control
        .write_all(b"{\"op\":\"shutdown\"}\n")
        .expect("send shutdown");
    let mut ack = String::new();
    BufReader::new(control).read_line(&mut ack).expect("ack");
    assert_eq!(ack, "{\"op\":\"shutdown\",\"draining\":true}\n");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("drain report");
    assert!(server.0.wait().expect("server exit").success(), "{rest}");
    assert!(rest.contains("\"dropped\":0"), "{rest}");
    replies
}

#[test]
fn stdin_and_socket_answer_one_script_with_the_same_bytes() {
    let script = script();
    let stdin = via_stdin(&script);
    let socket = via_socket(&script);
    let stdin: Vec<&str> = stdin.lines().collect();
    let socket: Vec<&str> = socket.lines().collect();
    // One reply per non-blank line.
    let expected = script.lines().filter(|l| !l.trim().is_empty()).count();
    assert_eq!(stdin.len(), expected, "stdin replies: {stdin:#?}");
    assert_eq!(socket.len(), expected, "socket replies: {socket:#?}");

    let mut too_large = 0;
    for (a, b) in stdin.iter().zip(&socket) {
        let parsed = json::parse(a).unwrap_or_else(|e| panic!("reply is not JSON ({e}): {a}"));
        if parsed.get("error_kind").and_then(Json::as_str) == Some("too_large") {
            let other = json::parse(b).expect("socket reply is JSON");
            assert_eq!(parsed.get("id"), other.get("id"));
            assert_eq!(parsed.get("error_kind"), other.get("error_kind"));
            too_large += 1;
        } else {
            assert_eq!(a, b);
        }
    }
    assert_eq!(too_large, 1);

    // The script reached every handler it was written for.
    let has = |needle: &str| stdin.iter().any(|line| line.contains(needle));
    assert!(has("\"representative_sql\":\"SELECT T.a FROM T\""));
    assert!(has("\"rows\":["));
    assert!(has("\"patch\":["));
    assert!(has("\"closed\":true"));
    assert!(has("{\"op\":\"ping\",\"ok\":true}"));
    assert!(has("{\"id\":11,\"fingerprint\":"), "blank line shifts ids");
    for (id, kind) in [
        (5, "compile"),
        (5, "bad_request"), // `{{{not json` is line index 5
        (9, "bad_request"),
        (10, "bad_request"),
        (11, "bad_request"),
        (12, "bad_request"), // `{"sql":7}`, shifted by the blank line
        (22, "compile"),
        (25, "bad_request"),
    ] {
        let prefix = format!("{{\"id\":{id},");
        let kind = format!("\"error_kind\":\"{kind}\"");
        assert!(
            stdin
                .iter()
                .any(|l| l.starts_with(&prefix) && l.contains(&kind)),
            "no {kind} reply with id {id}: {stdin:#?}"
        );
    }
}
