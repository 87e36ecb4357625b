//! `qvbench`: the end-to-end benchmark of the QueryVis diagram service.
//!
//! ```text
//! qvbench --workload <cold_compile|serve_warm|edit_session> --seed <n>
//!         --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its workload's inputs from the seed, drives the
//! program in-process through the per-line path both front ends use
//! (minus socket framing), checks every reply outside the timed windows,
//! and prints one JSON object as its last stdout line: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Program telemetry stays at its default (off); all timing is done here.
//!
//! A traced run spends half its time untraced and half traced, so it can
//! report the tracing overhead, and writes its spans as JSON lines to
//! `$CARGO_TARGET_DIR/qvbench-spans/<workload>.jsonl` (the last traced
//! run of each workload).

mod cold;
mod edit;
mod inputs;
mod measure;
mod pace;
mod serve;
mod trace;
mod workload;

use inputs::Scale;
use measure::{median, peak_rss_mb, summarize, Recorder};
use std::time::Instant;
use trace::{Layer, LAYERS};
use workload::{Budget, Phase, Workload};

const USAGE: &str = "usage: qvbench --workload <cold_compile|serve_warm|edit_session> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Largest `unattributed_us` on `cold_compile`, as a share of traced op
/// time, before the trace no longer explains where an op's time goes.
const ATTRIBUTION_TOLERANCE: f64 = 0.15;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    input_digest: u64,
    reply_digest: u64,
    compiles: u64,
    spans: Option<String>,
}

fn run_named(
    name: &str,
    seed: u64,
    scale: &Scale,
    budget: Budget,
    trace: bool,
) -> Result<Report, String> {
    match name {
        "cold_compile" => Ok(run(&cold::Cold::new(seed, scale), scale, budget, trace)),
        "serve_warm" => Ok(run(&serve::Serve::new(seed, scale), scale, budget, trace)),
        "edit_session" => Ok(run(&edit::Edit::new(seed, scale), scale, budget, trace)),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn run<W: Workload>(w: &W, scale: &Scale, budget: Budget, trace: bool) -> Report {
    // Set-up repetitions are split around the timed phase, so their
    // median spans the run rather than the host's pace in its first
    // seconds.
    let early = scale.setup_reps.div_ceil(2);
    let mut setup_s = Vec::with_capacity(scale.setup_reps);
    let mut raw_setup_s = Vec::with_capacity(scale.setup_reps);
    let mut pace = pace::Pace::new();
    let mut timed_setup = || {
        let before = pace.measure();
        let t0 = Instant::now();
        let state = w.setup();
        let secs = t0.elapsed().as_secs_f64();
        let after = pace.measure();
        raw_setup_s.push(secs);
        setup_s.push(secs * 2.0 * pace::REFERENCE_NS / (before + after));
        state
    };
    let mut state = timed_setup();
    for _ in 1..early {
        drop(state);
        state = timed_setup();
    }
    if !trace {
        let phase = w.phase(&mut state, budget, false);
        let rss = peak_rss_mb();
        drop(state);
        for _ in early..scale.setup_reps {
            drop(timed_setup());
        }
        let shown: Vec<String> = setup_s.iter().map(|s| format!("{s:.4}")).collect();
        println!(
            "set-up runs (s, scaled): {}; raw median {:.4}",
            shown.join(" "),
            median(&mut raw_setup_s)
        );
        let s = summarize(&phase.clients);
        println!(
            "samples: {} op latencies over {} client rounds; failed {}; error_rate {}",
            s.ops,
            s.rounds,
            phase.failed,
            phase.failed as f64 / phase.attempted as f64,
        );
        println!(
            "host pace: kernel median {:.0} ns against a reference of {:.0} ns; \
             raw throughput {:.1} ops/s",
            s.pace_ns,
            pace::REFERENCE_NS,
            s.raw_throughput_ops
        );
        let metrics = vec![
            metric("throughput_ops", s.throughput_ops, "ops/s"),
            metric("latency_p50_us", s.latency_p50_us, "us"),
            metric("latency_p99_us", s.latency_p99_us, "us"),
            metric("setup_s", median(&mut setup_s), "s"),
            metric("peak_rss_mb", rss, "MiB"),
            metric("response_bytes_per_op", s.response_bytes_per_op, "bytes"),
            metric(
                "success_rate",
                1.0 - phase.failed as f64 / phase.attempted as f64,
                "fraction",
            ),
        ];
        return report(w, &phase, metrics, None);
    }
    let untraced = w.phase(&mut state, budget.half(), false);
    let traced = w.phase(&mut state, budget.half(), true);
    let metrics = layer_metrics(&untraced, &traced, W::ATTRIBUTION_BOUNDED);
    let tracer = traced.tracer.as_ref().expect("a traced phase has spans");
    let mut rep = report(w, &traced, metrics, Some(tracer.to_jsonl()));
    rep.attempted += untraced.attempted;
    rep.failed += untraced.failed;
    rep
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    assert!(value.is_finite(), "{name} is not a number: {value}");
    Metric { name, value, unit }
}

fn report<W: Workload>(
    w: &W,
    phase: &Phase,
    metrics: Vec<Metric>,
    spans: Option<String>,
) -> Report {
    Report {
        metrics,
        attempted: phase.attempted,
        failed: phase.failed,
        input_digest: w.input_digest(),
        reply_digest: phase.digest,
        compiles: phase.service.compiles,
        spans,
    }
}

/// Per-layer metrics. Leaf-layer times are µs per op (so they add up to
/// op time with `unattributed_us`); `service.hit_us` and the session
/// times are µs per call; `*_calls` and `service.compiles` are per op.
/// Service counter ratios come from the untraced half, whose ops are the
/// only traffic; the rest from the traced half.
fn layer_metrics(untraced: &Phase, traced: &Phase, bounded: bool) -> Vec<Metric> {
    let tr = traced.tracer.as_ref().expect("a traced phase has spans");
    let ops = tr.calls(Layer::Op) as f64;
    let per_op = |layer| tr.total_ns(layer) as f64 / ops / 1e3;
    let calls = |layer| tr.calls(layer) as f64 / ops;
    let leaf_ns: u64 = LAYERS
        .iter()
        .filter(|l| l.is_leaf())
        .map(|l| tr.total_ns(*l))
        .sum();
    let op_us = per_op(Layer::Op);
    let layers_us = leaf_ns as f64 / ops / 1e3;
    let unattributed_us = op_us - layers_us;
    let share = unattributed_us / op_us;
    // Both halves' op latencies are scaled to the reference pace, so the
    // host's drift between the halves does not read as overhead.
    let mean_us = |phase: &Phase| {
        phase
            .clients
            .iter()
            .map(Recorder::scaled_mean_us)
            .sum::<f64>()
            / phase.clients.len() as f64
    };
    let overhead = mean_us(traced) / mean_us(untraced) - 1.0;
    let verdict = match (bounded, share.abs() <= ATTRIBUTION_TOLERANCE) {
        (false, _) => "reported, not bounded, on this workload".to_string(),
        (true, met) => format!(
            "tolerance {:.0}%: {}",
            ATTRIBUTION_TOLERANCE * 100.0,
            if met { "met" } else { "exceeded" }
        ),
    };
    println!(
        "attribution: traced op {op_us:.3} us = layers {layers_us:.3} us + unattributed \
         {unattributed_us:.3} us ({:.1}% of op; {verdict})",
        share * 100.0,
    );
    println!(
        "tracing overhead: {:.1}% of untraced op time",
        overhead * 100.0
    );
    let d = &untraced.service;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let (checked, split, refused) = inputs::constant_splits();
    println!(
        "constant-literal rewrites: {split} of {checked} queries got a second fingerprint \
         ({refused} rewrites refused)"
    );
    vec![
        metric("layout.scene_us", per_op(Layer::Scene), "us"),
        metric("render.ascii_us", per_op(Layer::RenderAscii), "us"),
        metric("render.svg_us", per_op(Layer::RenderSvg), "us"),
        metric("render.scene_json_us", per_op(Layer::RenderSceneJson), "us"),
        metric(
            "render.artifact_bytes",
            tr.artifact_bytes as f64 / ops,
            "bytes",
        ),
        metric("core.canonicalize_us", per_op(Layer::Canonicalize), "us"),
        metric(
            "core.canonicalize_calls",
            calls(Layer::Canonicalize),
            "1/op",
        ),
        metric("core.pattern_render_us", per_op(Layer::PatternRender), "us"),
        metric("sql.parse_us", per_op(Layer::SqlParse), "us"),
        metric("sql.parse_calls", calls(Layer::SqlParse), "1/op"),
        metric("logic.lower_us", per_op(Layer::LogicLower), "us"),
        metric("diagram.complete_us", per_op(Layer::Complete), "us"),
        metric(
            "service.protocol.parse_us",
            per_op(Layer::ProtocolParse),
            "us",
        ),
        metric(
            "service.protocol.write_us",
            per_op(Layer::ProtocolWrite),
            "us",
        ),
        metric("service.memo.lookup_us", per_op(Layer::MemoLookup), "us"),
        metric("service.cache.peek_us", per_op(Layer::CachePeek), "us"),
        metric("service.hit_us", tr.per_call_us(Layer::HitHandle), "us"),
        metric(
            "service.l1_hit_ratio",
            ratio(d.l1_hits, d.requests),
            "fraction",
        ),
        metric(
            "service.l2_hit_ratio",
            ratio(d.l2_hits, d.l2_hits + d.l2_misses),
            "fraction",
        ),
        metric(
            "service.compiles",
            ratio(d.compiles, untraced.attempted),
            "1/op",
        ),
        metric(
            "service.session.edit_us",
            tr.per_call_us(Layer::SessionEdit),
            "us",
        ),
        metric(
            "service.session.plain_us",
            tr.per_call_us(Layer::SessionPlain),
            "us",
        ),
        metric(
            "service.session.ok_ratio",
            ratio(traced.session_ok, traced.attempted),
            "fraction",
        ),
        metric(
            "service.session.patch_ratio",
            ratio(traced.session_patched, traced.session_ok),
            "fraction",
        ),
        metric("service.scene_json.v2_us", per_op(Layer::SceneJsonV2), "us"),
        metric("service.scene_diff.diff_us", per_op(Layer::SceneDiff), "us"),
        metric("core.constant_split_queries", split as f64, "count"),
        metric("op_us", op_us, "us"),
        metric("unattributed_us", unattributed_us, "us"),
        metric("unattributed_share", share, "fraction"),
        metric("trace_overhead", overhead, "fraction"),
    ]
}

fn write_spans(workload: &str, spans: &str) {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "qvbench/target".into());
    let dir = std::path::Path::new(&target).join("qvbench-spans");
    let path = dir.join(format!("{workload}.jsonl"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans)) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!("qvbench: could not write spans to {}: {e}", path.display()),
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("qvbench: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let budget = Budget::Seconds(args.seconds);
    let report = match run_named(&args.workload, args.seed, &inputs::FULL, budget, args.trace) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("qvbench: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "digests: inputs {:016x}, replies {:016x}; timed-phase compiles {}",
        report.input_digest, report.reply_digest, report.compiles
    );
    if let Some(spans) = &report.spans {
        write_spans(&args.workload, spans);
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use queryvis_service::json::{self, Json};

    const SMALL: Scale = Scale {
        cold_pool: 30,
        cold_per_service: 40,
        cold_warmup: 10,
        serve_patterns: 20,
        edit_sessions: 6,
        setup_reps: 2,
    };

    /// Inputs, op counts, compile counts and reply digests repeat exactly
    /// on one seed and differ across seeds; every reply passes its check.
    #[test]
    fn workloads_repeat_on_a_seed_and_differ_across_seeds() {
        for name in ["cold_compile", "serve_warm", "edit_session"] {
            let go = |seed| run_named(name, seed, &SMALL, Budget::Rounds(2), false).unwrap();
            let (a, b, c) = (go(11), go(11), go(12));
            let key = |r: &Report| (r.input_digest, r.attempted, r.compiles, r.reply_digest);
            assert_eq!(key(&a), key(&b), "{name}: same seed, different run");
            assert_ne!(a.input_digest, c.input_digest, "{name}: seeds share inputs");
            assert_ne!(
                a.reply_digest, c.reply_digest,
                "{name}: seeds share replies"
            );
            for r in [&a, &b, &c] {
                assert_eq!(r.failed, 0, "{name}: failed replies");
            }
        }
    }

    /// The metrics a run prints are exactly those `BENCHMARK.json`
    /// declares, with the same units.
    fn declared(section: &str) -> Vec<(String, String)> {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let field = |m: &Json, k| m.get(k).and_then(Json::as_str).unwrap().to_string();
        let metrics = doc.get(section).and_then(Json::as_arr).unwrap();
        metrics
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    fn printed(r: &Report) -> Vec<(String, String)> {
        let pair = |m: &Metric| (m.name.to_string(), m.unit.to_string());
        r.metrics.iter().map(pair).collect()
    }

    #[test]
    fn runs_print_the_declared_metrics() {
        let plain = run_named("edit_session", 3, &SMALL, Budget::Rounds(1), false).unwrap();
        assert_eq!(printed(&plain), declared("end_to_end"));
        let traced = run_named("cold_compile", 3, &SMALL, Budget::Rounds(1), true).unwrap();
        assert_eq!(traced.failed, 0);
        assert_eq!(printed(&traced), declared("per_layer"));
        assert!(traced.spans.is_some_and(|s| s.lines().count() > 0));
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(args("--workload cold_compile --seed 1 --seconds 10 --trace 0").is_ok());
        assert!(args("--workload cold_compile --seed 1 --seconds 10").is_err());
        assert!(args("--workload cold_compile --seed x --seconds 10 --trace 0").is_err());
        assert!(args("--workload cold_compile --seed 1 --seconds 10 --trace 2").is_err());
        assert!(run_named("nope", 1, &SMALL, Budget::Rounds(1), false).is_err());
    }
}
