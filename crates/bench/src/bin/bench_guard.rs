//! `bench_guard` — the CI bench-regression gate.
//!
//! Compares a freshly generated `BENCH_service.json` against a committed
//! baseline and fails (exit 1) if any guarded row's `per_iter_ns` regressed
//! by more than the allowed fraction. Guarded rows are the warm-path
//! contract of the serving layer (`warm_hit`, `warm_l1_hit`, `warm_batch`,
//! the shared-scene `warm_multiformat` rows, the eviction-policy replay
//! rows, and the session `keystroke` rows); cold rows are
//! reported but not gated — they are compile-bound and noisy on shared CI
//! hardware. (The *relative* keystroke contract — edit p99 < cold p50 —
//! is asserted inside the bench itself, where both sides share a run.)
//!
//! Beyond per-row latency, three structural gates:
//!
//! * **hit-rate floor** — any row carrying a `hit_rate` in the baseline
//!   must stay within 0.02 of it (the traces are seeded, so a drop means
//!   the eviction policy changed behavior, not the hardware);
//! * **ARC ≥ LRU** — within the *current* run, each policy trace's `arc`
//!   row must hit at least as often as its `lru_ref` row (the
//!   scan-resistance contract of the ARC cache);
//! * **client-scaling ratio** — current `warm_batch/4_threads` (four
//!   concurrent clients, one quarter of the batch each) must cost
//!   ≤ 1.25 × `warm_batch/1_threads` (one client, the whole batch) per
//!   iteration: a warm hit holds each per-shard lock for one lookup, so
//!   splitting a batch across clients must not cost much more than
//!   serving it from one, and a regression here means a lock or shared
//!   cache line crept back into the warm path.
//!
//! ```text
//! Usage: bench_guard <current.json> <baseline.json> [--max-regression 0.30]
//! ```
//!
//! Caveats, by design:
//!
//! * the committed baseline is quick-mode numbers from the development
//!   host; CI hardware differs, so the threshold is deliberately loose
//!   (30%) and gates *relative* regressions of the same binary shape, not
//!   absolute latency;
//! * an intentional perf trade (or a baseline refresh after a hardware
//!   change) ships by updating `.github/bench-baseline.json` in the same
//!   PR, or by labeling the PR `bench-baseline-reset`, which skips this
//!   gate (see `.github/workflows/ci.yml`).

use queryvis_service::json::{self, Json};
use std::process::ExitCode;

/// Row-name substrings that are gated. Everything else is informational.
const GUARDED: [&str; 7] = [
    "warm_hit",
    "warm_batch",
    "warm_l1_hit",
    "warm_multiformat",
    "zipfian_skew",
    "hot_scan",
    "keystroke",
];

/// Absolute hit-rate slack against the baseline. The replay traces are
/// seeded and deterministic, so this only absorbs float printing — a real
/// policy change moves hit rates by far more.
const HIT_RATE_SLACK: f64 = 0.02;

/// Ceiling on current `warm_batch/4_threads` ÷ `warm_batch/1_threads`.
const WARM_BATCH_THREAD_RATIO: f64 = 1.25;

struct Row {
    name: String,
    per_iter_ns: f64,
    hit_rate: Option<f64>,
}

fn load_rows(path: &str) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let value = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let rows = value
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: missing `rows` array"))?;
    rows.iter()
        .map(|row| {
            let name = row
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}: row without a `name`"))?
                .to_string();
            let per_iter_ns = match row.get("per_iter_ns") {
                Some(Json::Num(n)) => *n,
                Some(Json::Int(n)) => *n as f64,
                _ => return Err(format!("{path}: row {name} without `per_iter_ns`")),
            };
            // Optional: only the eviction-policy rows carry one (absent
            // entirely in baselines that predate the field).
            let hit_rate = match row.get("hit_rate") {
                Some(Json::Num(n)) => Some(*n),
                Some(Json::Int(n)) => Some(*n as f64),
                _ => None,
            };
            Ok(Row {
                name,
                per_iter_ns,
                hit_rate,
            })
        })
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut max_regression = 0.30f64;
    let mut files: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--max-regression" => {
                i += 1;
                max_regression = match args.get(i).and_then(|v| v.parse::<f64>().ok()) {
                    Some(v) if v > 0.0 => v,
                    _ => {
                        eprintln!("bench_guard: --max-regression needs a positive number");
                        return ExitCode::from(2);
                    }
                };
            }
            other => files.push(other),
        }
        i += 1;
    }
    let [current_path, baseline_path] = files.as_slice() else {
        eprintln!("Usage: bench_guard <current.json> <baseline.json> [--max-regression 0.30]");
        return ExitCode::from(2);
    };
    let (current, baseline) = match (load_rows(current_path), load_rows(baseline_path)) {
        (Ok(c), Ok(b)) => (c, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_guard: {e}");
            return ExitCode::from(2);
        }
    };

    let mut failures = 0usize;
    let mut guarded_seen = 0usize;
    println!(
        "{:<45} {:>12} {:>12} {:>8}  gate",
        "row", "baseline ns", "current ns", "delta"
    );
    for base in &baseline {
        let Some(cur) = current.iter().find(|r| r.name == base.name) else {
            // A *guarded* row disappearing is a failure: the gate must not
            // silently pass because the bench stopped measuring it.
            if GUARDED.iter().any(|g| base.name.contains(g)) {
                println!("{:<45} guarded row missing from current results", base.name);
                failures += 1;
            }
            continue;
        };
        let delta = if base.per_iter_ns > 0.0 {
            cur.per_iter_ns / base.per_iter_ns - 1.0
        } else {
            0.0
        };
        let guarded = GUARDED.iter().any(|g| base.name.contains(g));
        let failed = guarded && delta > max_regression;
        if guarded {
            guarded_seen += 1;
        }
        if failed {
            failures += 1;
        }
        println!(
            "{:<45} {:>12.0} {:>12.0} {:>+7.1}%  {}",
            base.name,
            base.per_iter_ns,
            cur.per_iter_ns,
            delta * 100.0,
            if failed {
                "FAIL"
            } else if guarded {
                "ok"
            } else {
                "info"
            }
        );
        // Hit-rate floor: deterministic seeded traces, so any drop beyond
        // slack is a behavioral change in the eviction policy.
        if let (Some(base_rate), Some(cur_rate)) = (base.hit_rate, cur.hit_rate) {
            if cur_rate < base_rate - HIT_RATE_SLACK {
                println!(
                    "{:<45} hit rate {cur_rate:.4} fell below baseline {base_rate:.4} - {HIT_RATE_SLACK}",
                    base.name
                );
                failures += 1;
            }
        }
    }

    // ARC ≥ LRU within the current run: each policy trace's real-cache
    // row must hit at least as often as its same-geometry LRU reference.
    for trace in ["zipfian_skew", "hot_scan"] {
        let rate_of = |suffix: &str| {
            current
                .iter()
                .find(|r| r.name == format!("service/{trace}/{suffix}"))
                .and_then(|r| r.hit_rate)
        };
        match (rate_of("arc"), rate_of("lru_ref")) {
            (Some(arc), Some(lru)) => {
                if arc < lru {
                    println!("service/{trace}: arc hit rate {arc:.4} below lru reference {lru:.4}");
                    failures += 1;
                } else {
                    println!(
                        "service/{trace}: arc hit rate {arc:.4} >= lru reference {lru:.4}  ok"
                    );
                }
            }
            _ => {
                println!("service/{trace}: arc/lru_ref hit-rate pair missing from current results");
                failures += 1;
            }
        }
    }

    // Client-scaling ratio: four clients splitting the warm batch must
    // not serialize on a shared lock.
    {
        let per_iter_of = |name: &str| {
            current
                .iter()
                .find(|r| r.name == name)
                .map(|r| r.per_iter_ns)
        };
        match (
            per_iter_of("service/warm_batch/1_threads"),
            per_iter_of("service/warm_batch/4_threads"),
        ) {
            (Some(one), Some(four)) if one > 0.0 => {
                let ratio = four / one;
                if ratio > WARM_BATCH_THREAD_RATIO {
                    println!(
                        "warm_batch 4_threads/1_threads ratio {ratio:.2} exceeds \
                         {WARM_BATCH_THREAD_RATIO} — the warm path re-serialized"
                    );
                    failures += 1;
                } else {
                    println!(
                        "warm_batch 4_threads/1_threads ratio {ratio:.2} <= \
                         {WARM_BATCH_THREAD_RATIO}  ok"
                    );
                }
            }
            _ => {
                println!("warm_batch thread-ratio pair missing from current results");
                failures += 1;
            }
        }
    }
    if guarded_seen == 0 {
        eprintln!("bench_guard: baseline contains no guarded rows (warm_hit/warm_batch)");
        return ExitCode::from(2);
    }
    if failures > 0 {
        eprintln!(
            "bench_guard: {failures} gate failure(s) — latency regression beyond {:.0}%, \
             hit-rate drop, or thread-scaling breach \
             (refresh .github/bench-baseline.json or label the PR \
             `bench-baseline-reset` if intentional)",
            max_regression * 100.0
        );
        return ExitCode::FAILURE;
    }
    println!(
        "bench_guard: all guarded rows within {:.0}% of baseline",
        max_regression * 100.0
    );
    ExitCode::SUCCESS
}
