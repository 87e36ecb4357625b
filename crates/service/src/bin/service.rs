//! `service` — the JSON-lines front end of the diagram-compilation service.
//!
//! Reads one request per stdin line and writes one reply per stdout line,
//! in request order, serving each line as it arrives. Every line goes through
//! [`Frontend::serve_line`](queryvis_service::Frontend::serve_line), the
//! function the TCP `server` answers its lines with, so both front ends
//! answer a line with the same bytes. With `--stats` it prints one JSON
//! stats line per pass to **stderr**, so stdout stays a pure reply stream.
//!
//! ```text
//! Usage: service [OPTIONS]
//!   --capacity N       total cache entries across shards       [default: 4096]
//!   --shards N         cache shard count                       [default: 16]
//!   --passes N         serve the whole input N times           [default: 1]
//!   --max-line BYTES   stdin request-line budget; longer lines
//!                      become structured `too_large` errors     [default: 1048576]
//!   --format LIST      default formats for requests without a
//!                      `formats` field, comma-separated        [default: ascii]
//!   --corpus           serve the built-in paper corpus instead of stdin
//!   --stats            print per-pass stats JSON to stderr
//!                      (enables telemetry: each line carries the pass's
//!                      request-latency percentiles and the cumulative
//!                      per-stage timing breakdown)
//!   --stats-json PATH  write the full stats snapshot (ServiceStats +
//!                      telemetry registry) as one JSON document to PATH
//!   --trace-jsonl PATH dump per-request span records (JSON lines) to PATH
//!   --help             this text
//! ```
//!
//! The cache persists across passes, so `--passes 2 --stats` demonstrates
//! the steady-state hit rate: pass 2 of any fixed input is 100 % hits.
//! Only a run with more than one pass keeps its input lines, to replay
//! them; a pass-1 stats line over stdin times the wait for input too.
//! A `{"op":"shutdown"}` line ends the run after its ack.
//! `--stats`, `--stats-json`, and `--trace-jsonl` all enable process
//! telemetry; without them every span stays a single relaxed atomic
//! load.

use queryvis_service::frontend::too_large_reply;
use queryvis_service::json::{self, Json};
use queryvis_service::net::{LineReader, Poll};
use queryvis_service::stats_json::{histogram_json, stats_snapshot_json, write_trace_jsonl};
use queryvis_service::{
    paper_corpus_requests, CacheConfig, DiagramService, Format, Frontend, Served, ServiceConfig,
    ServiceStats,
};
use queryvis_telemetry::TelemetrySnapshot;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

struct Cli {
    capacity: usize,
    shards: usize,
    passes: usize,
    max_line: usize,
    default_formats: Vec<Format>,
    corpus: bool,
    stats: bool,
    stats_json: Option<String>,
    trace_jsonl: Option<String>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        capacity: 4096,
        shards: 16,
        passes: 1,
        max_line: 1 << 20,
        default_formats: vec![Format::Ascii],
        corpus: false,
        stats: false,
        stats_json: None,
        trace_jsonl: None,
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
            "--capacity" => cli.capacity = number("--capacity")?.max(1),
            "--shards" => cli.shards = number("--shards")?.max(1),
            "--passes" => cli.passes = number("--passes")?.max(1),
            "--max-line" => cli.max_line = number("--max-line")?.max(1),
            "--format" => {
                let list = args.next().ok_or("--format needs a value")?;
                cli.default_formats = Format::parse_list(&list)?;
            }
            "--corpus" => cli.corpus = true,
            "--stats" => cli.stats = true,
            "--stats-json" => {
                cli.stats_json = Some(args.next().ok_or("--stats-json needs a path")?);
            }
            "--trace-jsonl" => {
                cli.trace_jsonl = Some(args.next().ok_or("--trace-jsonl needs a path")?);
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

const USAGE: &str = "
service — QueryVis diagram-compilation service (JSON lines on stdin/stdout)

  --capacity N   total cache entries across shards       [default: 4096]
  --shards N     cache shard count                       [default: 16]
  --passes N     serve the whole input N times           [default: 1]
  --max-line BYTES  stdin request-line budget (longer lines become
                 structured too_large errors)           [default: 1048576]
  --format LIST  default formats (comma-separated from
                 ascii,dot,svg,reading,scene_json)       [default: ascii]
  --corpus       serve the built-in paper corpus instead of stdin
  --stats        print per-pass stats JSON to stderr (with latency
                 percentiles and per-stage timing breakdown)
  --stats-json PATH   write the full stats snapshot document to PATH
  --trace-jsonl PATH  dump per-request span records (JSON lines) to PATH

Request lines:  {\"id\": 1, \"sql\": \"SELECT T.a FROM T\", \"formats\": [\"ascii\"]}
Response lines: {\"id\":1,\"fingerprint\":\"…\",\"sql_words\":4,\"artifacts\":{\"ascii\":\"…\"}}
Session lines:  {\"op\":\"open\",\"id\":1,\"sql\":\"SELECT T.a FROM T\"}
                {\"op\":\"edit\",\"id\":2,\"session\":1,\"edits\":[{\"at\":9,\"del\":0,\"ins\":\"a\"}]}
                {\"op\":\"close\",\"id\":3,\"session\":1}
Control lines:  {\"op\":\"ping\"}  {\"op\":\"stats\"}  {\"op\":\"shutdown\"}
";

/// One input line as the bounded framer delivered it.
enum Input {
    Line(String),
    /// A line past `--max-line`, discarded to its newline; `usize` is how
    /// much of it had arrived when it tripped the budget.
    TooLarge(usize),
}

/// The paper corpus as request lines (`--corpus`).
fn corpus_input() -> Vec<Input> {
    paper_corpus_requests(&[])
        .iter()
        .map(|request| {
            let mut line = String::from("{\"id\":");
            json::write_u64(&mut line, request.id);
            line.push_str(",\"sql\":");
            json::escape_into(&mut line, &request.sql);
            line.push('}');
            Input::Line(line)
        })
        .collect()
}

/// The next stdin line, or `None` at the end of input. Stdin goes through
/// the same bounded line framer the TCP server uses: a line past
/// `max_line` bytes is *discarded to its newline* (never buffered whole —
/// a hostile or corrupt input cannot balloon memory through one giant
/// line) and answers `too_large` at its position.
fn next_line<R: std::io::Read>(reader: &mut LineReader<R>) -> Option<Input> {
    loop {
        match reader.poll() {
            Poll::Line(line) => return Some(Input::Line(line)),
            Poll::TooLarge { len } => return Some(Input::TooLarge(len)),
            // Blocking stdin never reports Idle, but stay total.
            Poll::Idle => {}
            Poll::Eof => return None,
            Poll::Fatal(e) => {
                eprintln!("service: stdin read error: {e}");
                return None;
            }
        }
    }
}

fn stats_line(
    pass: usize,
    stats: &ServiceStats,
    delta_hits: u64,
    delta_lookups: u64,
    elapsed_secs: f64,
    served: usize,
    telemetry: Option<(&TelemetrySnapshot, &TelemetrySnapshot)>,
) -> String {
    let pass_hit_rate = if delta_lookups > 0 {
        delta_hits as f64 / delta_lookups as f64
    } else {
        0.0
    };
    let qps = if elapsed_secs > 0.0 {
        served as f64 / elapsed_secs
    } else {
        0.0
    };
    let mut line = Json::Obj(vec![
        ("pass".into(), Json::Num(pass as f64)),
        ("requests".into(), Json::Num(stats.requests as f64)),
        ("compiles".into(), Json::Num(stats.compiles as f64)),
        ("errors".into(), Json::Num(stats.errors as f64)),
        ("l1_hits".into(), Json::Num(stats.l1_hits as f64)),
        ("l1_entries".into(), Json::Num(stats.memo.entries as f64)),
        (
            "l1_invalidations".into(),
            Json::Num(stats.memo.invalidations as f64),
        ),
        ("cache_hits".into(), Json::Num(stats.cache.hits as f64)),
        ("cache_misses".into(), Json::Num(stats.cache.misses as f64)),
        (
            "cache_evictions".into(),
            Json::Num(stats.cache.evictions as f64),
        ),
        (
            "cache_entries".into(),
            Json::Num(stats.cache.entries as f64),
        ),
        (
            "pass_hit_rate".into(),
            Json::Num((pass_hit_rate * 1e4).round() / 1e4),
        ),
        (
            "elapsed_ms".into(),
            Json::Num((elapsed_secs * 1e5).round() / 1e2),
        ),
        ("qps".into(), Json::Num(qps.round())),
    ]);
    let Some((before, after)) = telemetry else {
        return line.to_string();
    };
    let Json::Obj(fields) = &mut line else {
        unreachable!("stats line is an object");
    };
    // This pass's request-latency window: the `request` histogram diffed
    // against its state before the pass.
    let window = match (after.histogram("request"), before.histogram("request")) {
        (Some(after), Some(before)) => Some(after.diff(before)),
        (Some(after), None) => Some(after.clone()),
        _ => None,
    };
    if let Some(window) = window {
        fields.push(("latency".into(), histogram_json(&window)));
    }
    // Cumulative per-stage breakdown: every pipeline stage and rewrite
    // pass histogram, name-sorted (the snapshot is pre-sorted).
    let stages: Vec<(String, Json)> = after
        .histograms
        .iter()
        .filter(|(name, _)| name.starts_with("stage.") || name.starts_with("pass."))
        .map(|(name, h)| (name.clone(), histogram_json(h)))
        .collect();
    fields.push(("stages".into(), Json::Obj(stages)));
    line.to_string()
}

fn main() {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("service: {message}");
            std::process::exit(2);
        }
    };
    // Any observability output enables telemetry for the process; tracing
    // (span records) only when a trace sink was requested.
    let telemetry_on = cli.stats || cli.stats_json.is_some() || cli.trace_jsonl.is_some();
    if telemetry_on {
        queryvis_telemetry::global().set_enabled(true);
    }
    if cli.trace_jsonl.is_some() {
        queryvis_telemetry::global().set_tracing(true);
    }
    let service = Arc::new(DiagramService::new(ServiceConfig {
        cache: CacheConfig {
            capacity: cli.capacity,
            shards: cli.shards,
        },
        options: Default::default(),
        default_formats: cli.default_formats.clone(),
    }));
    let frontend = Frontend::new(Arc::clone(&service));
    // Pass 1 serves stdin as it arrives; its lines are kept only for the
    // passes that replay them, so a one-pass run holds one line at a time.
    let mut stdin = (!cli.corpus).then(|| LineReader::new(std::io::stdin().lock(), cli.max_line));
    let mut kept = if cli.corpus {
        corpus_input()
    } else {
        Vec::new()
    };

    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    // One reusable reply buffer for the whole output stream: each reply
    // escapes directly from the cache entry's shared artifacts into it —
    // no per-response JSON tree or artifact clone.
    let mut reply = String::with_capacity(4096);
    let mut shutdown = false;
    for pass in 1..=cli.passes {
        let before = service.stats();
        let telemetry_before = telemetry_on.then(|| queryvis_telemetry::global().snapshot());
        let start = Instant::now();
        let mut served = 0usize;
        // Answer one line; true once it asked to shut down.
        let mut serve = |line_id: usize, line: &Input| {
            let line_id = line_id as u64;
            // Stdin is one client: owner 0 holds every session it opens.
            let outcome = match line {
                Input::Line(text) if text.trim().is_empty() => return false,
                Input::Line(text) => frontend.serve_line(text, line_id, 0, &mut reply),
                Input::TooLarge(len) => {
                    too_large_reply(line_id, cli.max_line, *len, &mut reply);
                    Served::Reply
                }
            };
            if outcome == Served::Stats {
                frontend.stats_reply(None, &mut reply);
            }
            reply.push('\n');
            out.write_all(reply.as_bytes()).expect("stdout write");
            served += 1;
            outcome == Served::Shutdown
        };
        match stdin.take() {
            Some(mut reader) => {
                let mut line_id = 0;
                while let Some(line) = next_line(&mut reader) {
                    shutdown = serve(line_id, &line);
                    if cli.passes > 1 {
                        kept.push(line);
                    }
                    line_id += 1;
                    if shutdown {
                        break;
                    }
                }
            }
            None => {
                for (line_id, line) in kept.iter().enumerate() {
                    shutdown = serve(line_id, line);
                    if shutdown {
                        break;
                    }
                }
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        let after = service.stats();
        out.flush().expect("stdout flush");

        if cli.stats {
            let delta_hits = after.cache.hits - before.cache.hits;
            let delta_lookups = delta_hits + (after.cache.misses - before.cache.misses);
            let telemetry_after = queryvis_telemetry::global().snapshot();
            eprintln!(
                "{}",
                stats_line(
                    pass,
                    &after,
                    delta_hits,
                    delta_lookups,
                    elapsed,
                    served,
                    telemetry_before.as_ref().map(|b| (b, &telemetry_after)),
                )
            );
        }
        if shutdown {
            break;
        }
    }

    if let Some(path) = &cli.stats_json {
        let doc = stats_snapshot_json(
            &service.stats(),
            &queryvis_telemetry::global().snapshot(),
            Some(&frontend.sessions.snapshot()),
        );
        if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
            eprintln!("service: cannot write --stats-json {path}: {e}");
            std::process::exit(1);
        }
    }
    if let Some(path) = &cli.trace_jsonl {
        let records = queryvis_telemetry::global().drain_trace();
        let mut body = String::new();
        write_trace_jsonl(&mut body, &records);
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("service: cannot write --trace-jsonl {path}: {e}");
            std::process::exit(1);
        }
    }
}
