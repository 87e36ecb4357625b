//! Machine-readable stats export: [`ServiceStats`] + the process-wide
//! telemetry snapshot as one JSON document, built with the service's own
//! [`json`](crate::json) writer (the workspace carries no serde).
//!
//! Shape (fields in a fixed order, histograms sorted by name, so the
//! document is schema-stable run to run):
//!
//! ```json
//! {
//!   "service":   { "requests": 123, ..., "cache": {...}, "memo": {...} },
//!   "telemetry": {
//!     "enabled": true,
//!     "histograms": {
//!       "pass.simplify-forall": { "count": 60, "p50_ns": ..., "p999_ns": ... },
//!       "request":              { "count": 123, ... },
//!       "stage.parse": { ... }, ...
//!     },
//!     "trace_dropped": 0
//!   },
//!   "sessions":  { "open": 0, "opened_total": 0, ... }
//! }
//! ```
//!
//! Every service, cache, memo and session event is counted once, in the
//! instance that owns it, and appears only in the `service` and
//! `sessions` sections. The `telemetry` section is the process-global
//! histogram registry: one latency histogram per span name, including
//! the `pass.simplify-forall` rewrite timed inside `stage.diagram`.

use crate::json::Json;
use crate::service::ServiceStats;
use crate::session::SessionStatsSnapshot;
use queryvis_telemetry::{HistogramSnapshot, TelemetrySnapshot, TraceRecord};

fn usize_json(n: usize) -> Json {
    Json::Int(n as u64)
}

/// An `f64` in parser-normal form: the writer prints integral floats
/// without a decimal point and the parser reads those back as `Int`, so
/// integral values must be emitted as `Int` for serialize → parse to be
/// the identity.
fn f64_json(x: f64) -> Json {
    const MAX_EXACT: f64 = 9_007_199_254_740_991.0; // 2^53 − 1
    if x >= 0.0 && x.fract() == 0.0 && x <= MAX_EXACT {
        Json::Int(x as u64)
    } else {
        Json::Num(x)
    }
}

/// One histogram as a JSON object: count, percentiles, extremes, mean.
pub fn histogram_json(h: &HistogramSnapshot) -> Json {
    Json::Obj(vec![
        ("count".to_string(), Json::Int(h.count())),
        ("sum_ns".to_string(), Json::Int(h.sum())),
        ("min_ns".to_string(), Json::Int(h.min())),
        ("max_ns".to_string(), Json::Int(h.max())),
        ("mean_ns".to_string(), f64_json(h.mean())),
        ("p50_ns".to_string(), Json::Int(h.p50())),
        ("p90_ns".to_string(), Json::Int(h.p90())),
        ("p99_ns".to_string(), Json::Int(h.p99())),
        ("p999_ns".to_string(), Json::Int(h.p999())),
    ])
}

/// The per-instance service counters as the `service` section.
pub fn service_stats_json(stats: &ServiceStats) -> Json {
    Json::Obj(vec![
        ("requests".to_string(), Json::Int(stats.requests)),
        ("compiles".to_string(), Json::Int(stats.compiles)),
        ("errors".to_string(), Json::Int(stats.errors)),
        ("l1_hits".to_string(), Json::Int(stats.l1_hits)),
        ("panics_caught".to_string(), Json::Int(stats.panics_caught)),
        (
            "cache".to_string(),
            Json::Obj(vec![
                ("hits".to_string(), Json::Int(stats.cache.hits)),
                ("misses".to_string(), Json::Int(stats.cache.misses)),
                ("evictions".to_string(), Json::Int(stats.cache.evictions)),
                ("entries".to_string(), usize_json(stats.cache.entries)),
                ("capacity".to_string(), usize_json(stats.cache.capacity)),
                ("shards".to_string(), usize_json(stats.cache.shards)),
            ]),
        ),
        (
            "memo".to_string(),
            Json::Obj(vec![
                ("entries".to_string(), usize_json(stats.memo.entries)),
                ("capacity".to_string(), usize_json(stats.memo.capacity)),
                ("shards".to_string(), usize_json(stats.memo.shards)),
                ("evictions".to_string(), Json::Int(stats.memo.evictions)),
                (
                    "invalidations".to_string(),
                    Json::Int(stats.memo.invalidations),
                ),
            ]),
        ),
    ])
}

/// The process-wide telemetry registry as the `telemetry` section. The
/// snapshot's histograms are already name-sorted, so field order — and
/// therefore serialization — is deterministic.
pub fn telemetry_json(snapshot: &TelemetrySnapshot) -> Json {
    Json::Obj(vec![
        ("enabled".to_string(), Json::Bool(snapshot.enabled)),
        (
            "histograms".to_string(),
            Json::Obj(
                snapshot
                    .histograms
                    .iter()
                    .map(|(name, h)| (name.clone(), histogram_json(h)))
                    .collect(),
            ),
        ),
        (
            "trace_dropped".to_string(),
            Json::Int(queryvis_telemetry::global().trace_dropped()),
        ),
    ])
}

/// The session ledger as the `sessions` section (DESIGN.md §9): how many
/// sessions exist, how many edits they took and how many failed to
/// compile, and how their scene updates shipped.
pub fn session_stats_json(s: &SessionStatsSnapshot) -> Json {
    Json::Obj(vec![
        ("open".to_string(), Json::Int(s.open)),
        ("opened_total".to_string(), Json::Int(s.opened_total)),
        ("closed".to_string(), Json::Int(s.closed)),
        ("evicted".to_string(), Json::Int(s.evicted)),
        ("reaped".to_string(), Json::Int(s.reaped)),
        ("edits".to_string(), Json::Int(s.edits)),
        ("parse_errors".to_string(), Json::Int(s.parse_errors)),
        ("patches".to_string(), Json::Int(s.patches)),
        ("resyncs".to_string(), Json::Int(s.resyncs)),
    ])
}

/// The full stats document: `ServiceStats` + telemetry snapshot, plus
/// the `sessions` ledger when the front end ran one. This is what
/// `service --stats-json` emits and what the acceptance smoke round-trips
/// through [`crate::json::parse`].
pub fn stats_snapshot_json(
    stats: &ServiceStats,
    snapshot: &TelemetrySnapshot,
    sessions: Option<&SessionStatsSnapshot>,
) -> Json {
    let mut fields = vec![
        ("service".to_string(), service_stats_json(stats)),
        ("telemetry".to_string(), telemetry_json(snapshot)),
    ];
    if let Some(sessions) = sessions {
        fields.push(("sessions".to_string(), session_stats_json(sessions)));
    }
    Json::Obj(fields)
}

/// Serialize trace records as JSON lines (one span per line) into `out`.
/// The `--trace-jsonl` flag drains the global sink through this.
pub fn write_trace_jsonl(out: &mut String, records: &[TraceRecord]) {
    for r in records {
        let line = Json::Obj(vec![
            (
                "request".to_string(),
                if r.request == queryvis_telemetry::NO_REQUEST {
                    Json::Null
                } else {
                    Json::Int(r.request)
                },
            ),
            ("stage".to_string(), Json::Str(r.stage.to_string())),
            ("start_ns".to_string(), Json::Int(r.start_ns)),
            ("dur_ns".to_string(), Json::Int(r.dur_ns)),
            ("thread".to_string(), Json::Int(u64::from(r.thread))),
        ]);
        out.push_str(&line.to_string());
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn snapshot_round_trips_through_parse() {
        let stats = ServiceStats {
            requests: 5,
            compiles: 2,
            errors: 0,
            l1_hits: 2,
            panics_caught: 0,
            cache: Default::default(),
            memo: Default::default(),
        };
        let snapshot = queryvis_telemetry::global().snapshot();
        let sessions = SessionStatsSnapshot {
            open: 1,
            opened_total: 4,
            edits: 9,
            ..Default::default()
        };
        let doc = stats_snapshot_json(&stats, &snapshot, Some(&sessions));
        let text = doc.to_string();
        let parsed = json::parse(&text).expect("stats JSON must parse");
        assert_eq!(parsed, doc, "serialize → parse must be the identity");
        assert_eq!(
            parsed
                .get("service")
                .and_then(|s| s.get("requests"))
                .and_then(Json::as_u64),
            Some(5)
        );
        assert!(parsed.get("telemetry").is_some());
        assert_eq!(
            parsed
                .get("sessions")
                .and_then(|s| s.get("edits"))
                .and_then(Json::as_u64),
            Some(9)
        );
        // Without a session front end the section is absent, keeping the
        // legacy document shape byte-stable.
        let bare = stats_snapshot_json(&stats, &snapshot, None);
        assert!(bare.get("sessions").is_none());
    }

    #[test]
    fn trace_lines_parse_individually() {
        let records = vec![
            TraceRecord {
                request: 7,
                stage: "stage.parse",
                start_ns: 100,
                dur_ns: 50,
                thread: 0,
            },
            TraceRecord {
                request: queryvis_telemetry::NO_REQUEST,
                stage: "stage.render.svg",
                start_ns: 200,
                dur_ns: 75,
                thread: 1,
            },
        ];
        let mut out = String::new();
        write_trace_jsonl(&mut out, &records);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = json::parse(lines[0]).unwrap();
        assert_eq!(first.get("request").and_then(Json::as_u64), Some(7));
        assert_eq!(
            first.get("stage").and_then(Json::as_str),
            Some("stage.parse")
        );
        let second = json::parse(lines[1]).unwrap();
        assert_eq!(second.get("request"), Some(&Json::Null));
    }
}
