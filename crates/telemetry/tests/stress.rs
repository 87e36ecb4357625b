//! Concurrency stress: 12 writer threads hammer a shared stage histogram
//! while a reader thread takes `snapshot()`s the whole time. The
//! contract under test is the one `--stats` depends on:
//!
//! * snapshots taken mid-flight are never *torn* — a histogram
//!   snapshot's per-bucket counts always sum to its reported `count`
//!   (the total is derived from the buckets, not a separate counter);
//! * successive snapshots never report a decreasing histogram count or
//!   histogram sum (relaxed atomics, but counts only ever increase);
//! * after all writers join, the totals are exact — no lost updates in
//!   the histogram buckets;
//! * per-thread owned snapshots merge to the same result in any order.
//!
//! This test is its own integration binary: it flips the process-global
//! telemetry flag, which must not race other tests' expectations.

use queryvis_telemetry::{HistogramSnapshot, StageDef};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

static STAGE_WORK: StageDef = StageDef::new("stress.work");

const WRITERS: usize = 12;
const OPS_PER_WRITER: u64 = 20_000;

#[test]
fn concurrent_writers_and_snapshots_stay_consistent() {
    queryvis_telemetry::global().set_enabled(true);

    let done = Arc::new(AtomicBool::new(false));
    let reader = {
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let mut last_count = 0u64;
            let mut last_sum = 0u64;
            let mut snapshots = 0u64;
            while !done.load(Ordering::Acquire) {
                let snap = queryvis_telemetry::global().snapshot();
                if let Some(h) = snap.histogram("stress.work") {
                    assert!(
                        h.count() >= last_count,
                        "histogram count went backwards: {} < {last_count}",
                        h.count()
                    );
                    assert!(
                        h.sum() >= last_sum,
                        "histogram sum went backwards: {} < {last_sum}",
                        h.sum()
                    );
                    // Not torn: percentiles of a mid-flight snapshot stay
                    // inside its own [min, max] envelope.
                    if !h.is_empty() {
                        assert!(h.min() <= h.p50() && h.p50() <= h.max());
                        assert!(h.p50() <= h.p999());
                    }
                    last_count = h.count();
                    last_sum = h.sum();
                }
                snapshots += 1;
            }
            snapshots
        })
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            thread::spawn(move || {
                let mut local = HistogramSnapshot::empty();
                for i in 0..OPS_PER_WRITER {
                    // Deterministic per-thread values spanning several
                    // octaves, so merges exercise many buckets.
                    let value = (w as u64 + 1) * 100 + (i % 1000);
                    STAGE_WORK.record_ns(value);
                    local.record(value);
                }
                local
            })
        })
        .collect();

    let locals: Vec<HistogramSnapshot> = writers.into_iter().map(|w| w.join().unwrap()).collect();
    done.store(true, Ordering::Release);
    let snapshots_taken = reader.join().unwrap();
    assert!(snapshots_taken > 0, "reader never ran");

    // Exact final totals: no lost updates.
    let total = WRITERS as u64 * OPS_PER_WRITER;
    let global = STAGE_WORK.snapshot();
    assert_eq!(global.count(), total);

    // Per-thread histograms merge to the global one (counts and sum;
    // min/max too — same value stream), in any merge order.
    let mut forward = HistogramSnapshot::empty();
    for local in &locals {
        forward.merge(local);
    }
    let mut reverse = HistogramSnapshot::empty();
    for local in locals.iter().rev() {
        reverse.merge(local);
    }
    assert_eq!(forward, reverse, "merge must be order-independent");
    assert_eq!(forward.count(), global.count());
    assert_eq!(forward.sum(), global.sum());
    assert_eq!(forward.min(), global.min());
    assert_eq!(forward.max(), global.max());

    queryvis_telemetry::global().set_enabled(false);
}
