//! The machine-readable stats contract, end to end over the paper
//! corpus: two in-order corpus passes through one service (second pass
//! all L1 hits), snapshot through [`stats_snapshot_json`], and assert the
//! document (a) round-trips through the service's own `json::parse`,
//! (b) exposes the schema-stable key set the CI acceptance smoke greps,
//! and (c) reports the legacy numbers `ServiceStats` always has — 39 L1
//! hits for the repeated 39-query corpus — mirrored consistently into
//! the telemetry counters.
//!
//! This test is its own integration binary: it enables the
//! process-global telemetry flag, and the global counters it asserts on
//! would be perturbed by concurrent instrumented tests in the same
//! process.

use queryvis_service::json::{self, Json};
use queryvis_service::{
    paper_corpus_requests, stats_snapshot_json, DiagramService, Format, ServiceConfig,
};

#[test]
fn corpus_stats_snapshot_is_parseable_schema_stable_and_consistent() {
    queryvis_telemetry::global().set_enabled(true);
    let baseline = queryvis_telemetry::global().snapshot();

    let service = DiagramService::new(ServiceConfig::default());
    let requests = paper_corpus_requests(&[Format::Ascii, Format::Svg]);
    let n = requests.len() as u64;
    let serve = || {
        for request in &requests {
            service.handle(request);
        }
    };
    serve();
    let first = service.stats();
    serve(); // second pass: pure L1 hits
    let stats = service.stats();
    let snapshot = queryvis_telemetry::global().snapshot();
    queryvis_telemetry::global().set_enabled(false);

    // (c) the legacy ServiceStats view: every second-pass request resolved
    // through the L1 memo. (Pass 1 adds one more: corpus queries 37 and 38
    // are the same text, so the second of them is already an L1 hit.)
    assert_eq!(stats.requests, 2 * n);
    let pass2_l1_hits = stats.l1_hits - first.l1_hits;
    assert_eq!(pass2_l1_hits, n, "one L1 hit per repeated corpus query");
    assert_eq!(pass2_l1_hits, 39, "paper corpus is 39 queries");
    assert!(stats.compiles > 0 && stats.compiles < n);
    assert_eq!(stats.errors, 0);

    // (a) serialize → parse is the identity on the full document.
    let doc = stats_snapshot_json(&stats, &snapshot, None);
    let text = doc.to_string();
    let parsed = json::parse(&text).expect("stats document must parse");
    assert_eq!(parsed, doc);

    // (b) schema-stable key set, exactly the names CI greps for.
    let service_obj = parsed.get("service").expect("service section");
    for key in [
        "requests",
        "compiles",
        "coalesced",
        "errors",
        "l1_hits",
        "panics_caught",
        "l1_entries",
        "interned_symbols",
        "cache",
        "memo",
    ] {
        assert!(service_obj.get(key).is_some(), "service.{key} missing");
    }
    let telemetry = parsed.get("telemetry").expect("telemetry section");
    for key in [
        "enabled",
        "counters",
        "gauges",
        "histograms",
        "trace_dropped",
    ] {
        assert!(telemetry.get(key).is_some(), "telemetry.{key} missing");
    }
    let histograms = telemetry.get("histograms").expect("histograms object");
    for stage in [
        "request",
        "stage.lex",
        "stage.parse",
        "stage.lower",
        "stage.canonicalize",
        "stage.diagram",
        "stage.scene",
        "stage.render.ascii",
        "stage.render.svg",
    ] {
        let h = histograms
            .get(stage)
            .unwrap_or_else(|| panic!("histograms.{stage} missing"));
        for field in [
            "count", "sum_ns", "min_ns", "max_ns", "mean_ns", "p50_ns", "p90_ns", "p99_ns",
            "p999_ns",
        ] {
            assert!(h.get(field).is_some(), "{stage}.{field} missing");
        }
    }
    // PassManager timings surface as pass.* histograms (satellite of the
    // write-only-timing fix): at least one named pass must be present.
    let has_pass = match histograms {
        Json::Obj(fields) => fields.iter().any(|(name, _)| name.starts_with("pass.")),
        _ => false,
    };
    assert!(has_pass, "no pass.* histogram in snapshot");

    // Telemetry counters mirror the per-instance ServiceStats deltas for
    // this window (baseline-subtracted: the registry is process-global).
    let counter_delta =
        |name: &str| snapshot.counter(name).unwrap_or(0) - baseline.counter(name).unwrap_or(0);
    assert_eq!(counter_delta("requests"), stats.requests);
    assert_eq!(counter_delta("compiles"), stats.compiles);
    assert_eq!(counter_delta("l1_hits"), stats.l1_hits);
    assert_eq!(counter_delta("errors"), stats.errors);
    assert_eq!(counter_delta("l2_hits"), stats.cache.hits);
    assert_eq!(counter_delta("l2_misses"), stats.cache.misses);

    // The request histogram saw every batch request exactly once.
    let request_hist = snapshot
        .histogram("request")
        .expect("request histogram registered");
    let baseline_count = baseline.histogram("request").map_or(0, |h| h.count());
    assert_eq!(request_hist.count() - baseline_count, stats.requests);
}
