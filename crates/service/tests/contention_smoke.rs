//! Release-mode contention smoke (CI runs this with `--ignored` after the
//! release build): eight threads hammer a fully warm service and the
//! output must stay byte-identical to the single-threaded run while
//! clearing a conservative throughput floor. Catches both correctness
//! regressions under real contention and the warm path serializing
//! again: one global lock, or a lock held across a whole request, would
//! collapse multi-thread throughput well below the floor. The per-shard
//! locks of the memo and the cache are held only for a lookup, so they
//! do not.

use queryvis_service::{paper_corpus_requests, DiagramService, Format, ServiceConfig};
use std::time::Instant;

/// Aggregate warm lookups/sec the 8-thread run must clear. A warm hit
/// costs single-digit microseconds on one thread, so even a fully
/// serialized single-core CI box clears this by an order of magnitude —
/// unless warm requests start queueing behind each other.
const MIN_WARM_HITS_PER_SEC: f64 = 50_000.0;

#[test]
#[ignore = "release-mode contention smoke; run explicitly in CI"]
fn eight_thread_warm_batch_is_identical_and_fast() {
    let service = DiagramService::new(ServiceConfig::default());
    let requests = paper_corpus_requests(&[Format::Ascii, Format::Dot]);
    let render = |threads: usize| -> Vec<String> {
        service
            .execute_batch(&requests, threads)
            .iter()
            .map(|response| {
                let mut line = String::new();
                response.write_json_line(&mut line);
                line
            })
            .collect()
    };
    let cold = render(1); // populate both cache levels
    let reference = render(1); // warm single-thread reference
    assert_eq!(cold, reference, "warm output must match cold output");

    // 8-thread warm rounds: byte-identity every round, throughput floor
    // over the whole contended phase.
    let rounds = 40usize;
    let started = Instant::now();
    for _ in 0..rounds {
        assert_eq!(render(8), reference, "8-thread warm output diverged");
    }
    let elapsed = started.elapsed().as_secs_f64();
    let lookups = (rounds * requests.len()) as f64;
    let rate = lookups / elapsed;
    assert!(
        rate >= MIN_WARM_HITS_PER_SEC,
        "warm throughput collapsed: {rate:.0} req/s < {MIN_WARM_HITS_PER_SEC} floor"
    );

    let stats = service.stats();
    assert!(
        stats.l1_hits >= (rounds * requests.len()) as u64,
        "warm rounds must be memo hits"
    );
}
