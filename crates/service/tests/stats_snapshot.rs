//! The machine-readable stats contract, end to end over the paper
//! corpus: two in-order corpus passes through one service (second pass
//! all L1 hits), snapshot through [`stats_snapshot_json`], and assert the
//! document (a) round-trips through the service's own `json::parse`,
//! (b) exposes the schema-stable key set the CI acceptance smoke greps,
//! and (c) reports the numbers `ServiceStats` always has — 39 L1 hits
//! for the repeated 39-query corpus — while the global telemetry
//! registry counts none of those events a second time.
//!
//! This test is its own integration binary: it enables the
//! process-global telemetry flag, and the global registry it asserts on
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

    // (c) the ServiceStats view: every second-pass request resolved
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
    // The telemetry section is exactly these keys, in this order: the
    // global registry holds histograms only, and every service event is
    // counted once, in the instance.
    let telemetry = parsed.get("telemetry").expect("telemetry section");
    let telemetry_keys: Vec<&str> = match telemetry {
        Json::Obj(fields) => fields.iter().map(|(name, _)| name.as_str()).collect(),
        other => panic!("telemetry is not an object: {other:?}"),
    };
    assert_eq!(telemetry_keys, ["enabled", "histograms", "trace_dropped"]);
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
        "pass.simplify-forall",
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

    // The request histogram saw every batch request exactly once.
    let request_hist = snapshot
        .histogram("request")
        .expect("request histogram registered");
    let baseline_count = baseline.histogram("request").map_or(0, |h| h.count());
    assert_eq!(request_hist.count() - baseline_count, stats.requests);
}
