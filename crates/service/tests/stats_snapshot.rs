//! The machine-readable stats contract, end to end over the paper
//! corpus: two in-order corpus passes through one service (second pass
//! all L1 hits), snapshot through [`stats_snapshot_json`], and assert the
//! document (a) round-trips through the service's own `json::parse`,
//! (b) exposes the schema-stable key set the CI acceptance smoke greps,
//! and (c) reports the numbers `ServiceStats` always has — 39 L1 hits
//! for the repeated 39-query corpus — while the global telemetry
//! registry counts none of those events a second time. The passes run
//! traced, and (d) no stage span lies inside another except the one
//! child stage (DESIGN.md §6), so a sum over stages counts nothing twice.
//!
//! This test is its own integration binary: it enables the
//! process-global telemetry flag, and the global registry it asserts on
//! would be perturbed by concurrent instrumented tests in the same
//! process.

use queryvis_service::json::{self, Json};
use queryvis_service::{
    paper_corpus_requests, stats_snapshot_json, DiagramService, Format, ServiceConfig,
};
use queryvis_telemetry::TraceRecord;
use std::collections::{BTreeSet, HashMap};

/// The field names of a JSON object, in order.
fn keys(object: &Json) -> Vec<&str> {
    match object {
        Json::Obj(fields) => fields.iter().map(|(name, _)| name.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

/// Every `(inner, outer)` pair of stage names where a stage span lies
/// inside another on the same request and thread. The `request` span
/// encloses every stage and is not itself a stage.
fn nested_stages(trace: &[TraceRecord]) -> BTreeSet<(&'static str, &'static str)> {
    let mut groups: HashMap<(u64, u32), Vec<&TraceRecord>> = HashMap::new();
    for record in trace.iter().filter(|r| r.stage != "request") {
        groups
            .entry((record.request, record.thread))
            .or_default()
            .push(record);
    }
    let end = |r: &TraceRecord| r.start_ns + r.dur_ns;
    let mut nested = BTreeSet::new();
    for records in groups.values() {
        for inner in records {
            for outer in records {
                if !std::ptr::eq(*inner, *outer)
                    && outer.start_ns <= inner.start_ns
                    && end(inner) <= end(outer)
                {
                    nested.insert((inner.stage, outer.stage));
                }
            }
        }
    }
    nested
}

#[test]
fn corpus_stats_snapshot_is_parseable_schema_stable_and_consistent() {
    let telemetry = queryvis_telemetry::global();
    telemetry.set_enabled(true);
    telemetry.set_tracing(true);
    let baseline = telemetry.snapshot();

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
    let snapshot = telemetry.snapshot();
    telemetry.set_tracing(false);
    telemetry.set_enabled(false);
    let trace = telemetry.drain_trace();

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

    // (b) schema-stable key sets, exactly these keys in this order: a
    // dropped or added key fails here.
    let service_obj = parsed.get("service").expect("service section");
    assert_eq!(
        keys(service_obj),
        [
            "requests",
            "compiles",
            "errors",
            "l1_hits",
            "panics_caught",
            "cache",
            "memo",
        ]
    );
    assert_eq!(
        keys(service_obj.get("cache").expect("service.cache")),
        [
            "hits",
            "misses",
            "evictions",
            "entries",
            "capacity",
            "shards"
        ]
    );
    assert_eq!(
        keys(service_obj.get("memo").expect("service.memo")),
        [
            "entries",
            "capacity",
            "shards",
            "evictions",
            "invalidations"
        ]
    );
    // The telemetry section: the global registry holds histograms only,
    // and every service event is counted once, in the instance.
    let telemetry_section = parsed.get("telemetry").expect("telemetry section");
    assert_eq!(
        keys(telemetry_section),
        ["enabled", "histograms", "trace_dropped"]
    );
    assert_eq!(
        telemetry_section
            .get("trace_dropped")
            .and_then(Json::as_u64),
        Some(0)
    );
    let histograms = telemetry_section
        .get("histograms")
        .expect("histograms object");
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

    // (d) Stage spans do not nest, except the ∀-rewrite pass inside the
    // diagram stage that runs it. A geometric render builds the scene
    // before its own span opens.
    assert_eq!(telemetry.trace_dropped(), 0);
    assert!(trace.iter().any(|r| r.stage == "stage.scene"));
    assert_eq!(
        nested_stages(&trace),
        BTreeSet::from([("pass.simplify-forall", "stage.diagram")])
    );
}
