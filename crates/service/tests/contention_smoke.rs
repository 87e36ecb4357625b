//! Release-mode contention smoke (CI runs this with `--ignored` after the
//! release build): eight clients hammer a fully warm service, every reply
//! must stay byte-identical to the single-client warm reference, and the
//! run must clear a conservative throughput floor. Catches both
//! correctness regressions under real contention and the warm path
//! serializing again: one global lock, or a lock held across a whole
//! request, would collapse multi-client throughput well below the floor.
//! The per-shard locks of the memo and the cache are held only for a
//! lookup, so they do not.
//!
//! The clients are spawned once, outside the timed phase, so the rate
//! measures requests, not thread spawns.

use queryvis_service::{paper_corpus_requests, DiagramService, Format, Request, ServiceConfig};
use std::time::Instant;

/// Aggregate warm lookups/sec the 8-client run must clear. A warm hit
/// costs single-digit microseconds on one thread, so even a fully
/// serialized single-core CI box clears this by an order of magnitude —
/// unless warm requests start queueing behind each other.
const MIN_WARM_HITS_PER_SEC: f64 = 50_000.0;

const CLIENTS: usize = 8;

fn reply(service: &DiagramService, request: &Request, line: &mut String) {
    line.clear();
    service.handle(request).write_json_line(line);
}

#[test]
#[ignore = "release-mode contention smoke; run explicitly in CI"]
fn eight_thread_warm_batch_is_identical_and_fast() {
    let service = DiagramService::new(ServiceConfig::default());
    let requests = paper_corpus_requests(&[Format::Ascii, Format::Dot]);
    let serve_all = || -> Vec<String> {
        requests
            .iter()
            .map(|request| {
                let mut line = String::new();
                reply(&service, request, &mut line);
                line
            })
            .collect()
    };
    let cold = serve_all(); // populate both cache levels
    let reference = serve_all(); // warm single-client reference
    assert_eq!(cold, reference, "warm output must match cold output");

    // 8-client warm phase: the clients together serve `rounds` copies of
    // the corpus (request k of the flattened sequence goes to client
    // k % CLIENTS), comparing every reply with the reference; the
    // throughput floor covers the whole contended phase.
    let rounds = 40usize;
    let total = rounds * requests.len();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (service, requests, reference) = (&service, &requests, &reference);
            scope.spawn(move || {
                let mut line = String::new();
                for k in (client..total).step_by(CLIENTS) {
                    let i = k % requests.len();
                    reply(service, &requests[i], &mut line);
                    assert_eq!(line, reference[i], "8-client warm reply diverged");
                }
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    let rate = total as f64 / elapsed;
    eprintln!("contention smoke: {rate:.0} req/s over {total} warm requests");
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
