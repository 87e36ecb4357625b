//! The stdin `service` binary answers lines as they arrive: with stdin
//! still open, enough requests to fill its 8 KB stdout buffer must bring
//! replies back, and closing stdin then brings every remaining reply, in
//! order.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

/// Requests written before any reply is awaited; their svg replies come
/// to far more than the 8 KB stdout buffer.
const REQUESTS: usize = 64;
const WAIT: Duration = Duration::from_secs(30);

/// Kills the child if the test fails before it exits on its own.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn replies_arrive_before_stdin_closes() {
    let mut child = Reaped(
        Command::new(env!("CARGO_BIN_EXE_service"))
            .args(["--format", "svg"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn service"),
    );
    let stdout = child.0.stdout.take().expect("stdout");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            if tx.send(line.expect("utf-8 reply")).is_err() {
                break;
            }
        }
    });
    let mut stdin = child.0.stdin.take().expect("stdin");
    for id in 0..REQUESTS {
        writeln!(
            stdin,
            r#"{{"id":{id},"sql":"SELECT T.a FROM T WHERE T.a = {id}"}}"#
        )
        .expect("write request");
    }
    stdin.flush().expect("flush requests");
    let first = rx
        .recv_timeout(WAIT)
        .expect("no reply while stdin was open: the input is buffered whole");
    drop(stdin);
    let mut replies = vec![first];
    replies.extend(rx.iter());
    assert_eq!(replies.len(), REQUESTS, "one reply per request");
    for (id, reply) in replies.iter().enumerate() {
        assert!(
            reply.starts_with(&format!(r#"{{"id":{id},"#)),
            "reply {id} out of order: {reply:.60}"
        );
    }
    let status = child.0.wait().expect("service exit");
    assert!(status.success(), "service exited with {status}");
}
