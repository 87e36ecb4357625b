//! `server` — the TCP front end of the diagram-compilation service.
//!
//! Serves the same JSON-lines protocol as the stdin `service` binary over
//! persistent TCP connections (pipelining supported), with the robustness
//! envelope of [`queryvis_service::server`]: admission control, bounded
//! lines, read deadlines, write stall budgets, panic isolation, and
//! graceful drain.
//!
//! Startup prints exactly one line to stdout —
//! `{"listening":"127.0.0.1:PORT"}` — so harnesses binding port 0 learn
//! the real address; the drain report is printed as one JSON line on exit.
//!
//! Quickstart (see README):
//!
//! ```text
//! server --addr 127.0.0.1:7878 &
//! printf '%s\n' '{"id":1,"sql":"SELECT T.a FROM T"}' | nc 127.0.0.1 7878
//! ```

use queryvis_service::{
    fault, CacheConfig, DiagramService, Format, MemoConfig, Server, ServerConfig, ServiceConfig,
};
use std::sync::Arc;
use std::time::Duration;

struct Cli {
    server: ServerConfig,
    capacity: usize,
    shards: usize,
    default_formats: Vec<Format>,
    stats: bool,
    snapshot: Option<String>,
}

const USAGE: &str = "
server — QueryVis diagram-compilation service (JSON lines over TCP)

  --addr HOST:PORT       bind address; port 0 picks a free port   [default: 127.0.0.1:0]
  --max-conns N          concurrent connection ceiling            [default: 64]
  --max-line BYTES       request line budget                      [default: 1048576]
  --read-deadline-ms N   budget for a partial line to complete    [default: 10000]
  --write-stall-ms N     budget for a zero-progress write slice   [default: 5000]
  --drain-grace-ms N     in-flight window once drain begins       [default: 500]
  --capacity N           total cache entries across shards        [default: 4096]
  --shards N             cache shard count                        [default: 16]
  --format LIST          default formats (comma-separated from
                         ascii,dot,svg,reading,scene_json)        [default: ascii]
  --stats                enable process telemetry (the `stats` op
                         reports counters and latency histograms)
  --snapshot PATH        warm-cache persistence: on startup recompile the
                         representative texts listed in PATH (one SQL per
                         line, missing file tolerated); on graceful drain
                         rewrite PATH from the live cache, so a restarted
                         server answers its working set warm

Request lines:  {\"id\": 1, \"sql\": \"SELECT T.a FROM T\", \"formats\": [\"ascii\"]}
Operations:     {\"op\": \"ping\"} | {\"op\": \"stats\"} | {\"op\": \"shutdown\"}
Sessions:       {\"op\": \"open\", \"sql\": …} | {\"op\": \"edit\", \"session\": N,
                \"edits\": [{\"at\": O, \"del\": N, \"ins\": \"text\"}]} |
                {\"op\": \"close\", \"session\": N}
";

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        server: ServerConfig::default(),
        capacity: 4096,
        shards: 16,
        default_formats: vec![Format::Ascii],
        stats: false,
        snapshot: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut number = |name: &str| -> Result<usize, String> {
            args.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse::<usize>()
                .map_err(|_| format!("{name} needs an unsigned integer"))
        };
        match arg.as_str() {
            "--addr" => {
                cli.server.addr = args.next().ok_or("--addr needs a value")?;
            }
            "--max-conns" => cli.server.max_conns = number("--max-conns")?.max(1),
            "--max-line" => cli.server.max_line = number("--max-line")?.max(1),
            "--read-deadline-ms" => {
                cli.server.read_deadline =
                    Duration::from_millis(number("--read-deadline-ms")?.max(1) as u64);
            }
            "--write-stall-ms" => {
                cli.server.write_stall =
                    Duration::from_millis(number("--write-stall-ms")?.max(1) as u64);
            }
            "--drain-grace-ms" => {
                cli.server.drain_grace = Duration::from_millis(number("--drain-grace-ms")? as u64);
            }
            "--capacity" => cli.capacity = number("--capacity")?.max(1),
            "--shards" => cli.shards = number("--shards")?.max(1),
            "--format" => {
                let list = args.next().ok_or("--format needs a value")?;
                cli.default_formats = Format::parse_list(&list)?;
            }
            "--stats" => cli.stats = true,
            "--snapshot" => {
                cli.snapshot = Some(args.next().ok_or("--snapshot needs a path")?);
            }
            "--help" | "-h" => {
                println!("{}", USAGE.trim());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
    }
    Ok(cli)
}

fn main() {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("server: {message}");
            std::process::exit(2);
        }
    };
    if cli.stats {
        queryvis_telemetry::global().set_enabled(true);
    }
    // The fault-injection suite arms the compile-panic hook through the
    // environment; unset, this is inert.
    fault::arm_from_env();

    let service = Arc::new(DiagramService::new(ServiceConfig {
        cache: CacheConfig {
            capacity: cli.capacity,
            shards: cli.shards,
        },
        memo: MemoConfig {
            capacity: cli.capacity.saturating_mul(4),
            shards: cli.shards,
        },
        options: Default::default(),
        default_formats: cli.default_formats.clone(),
    }));
    // Warm-cache persistence (DESIGN.md §9): replay the previous run's
    // representative texts through the normal request path so the L2
    // cache starts populated. A missing or partly stale file costs
    // nothing but the failed recompiles.
    if let Some(path) = &cli.snapshot {
        if let Ok(body) = std::fs::read_to_string(path) {
            let mut warmed = 0usize;
            for line in body.lines().filter(|l| !l.trim().is_empty()) {
                if service.warm(line) {
                    warmed += 1;
                }
            }
            eprintln!("server: warmed {warmed} cache entries from {path}");
        }
    }
    let server = match Server::bind(Arc::clone(&service), cli.server) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("server: cannot bind: {e}");
            std::process::exit(1);
        }
    };
    println!("{{\"listening\":\"{}\"}}", server.local_addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();

    let report = server.run();
    // Snapshot on the way out of a graceful drain: one representative SQL
    // text per line, newline-escaped texts skipped (none exist today —
    // the lexer rejects raw newlines inside texts it accepts, but guard
    // the file format anyway).
    if let Some(path) = &cli.snapshot {
        let mut body = String::new();
        for sql in service.cache().representatives() {
            if !sql.contains('\n') {
                body.push_str(&sql);
                body.push('\n');
            }
        }
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("server: cannot write --snapshot {path}: {e}");
        }
    }
    println!("{{\"drain_report\":{}}}", report.json());
    if report.dropped > 0 {
        std::process::exit(1);
    }
}
