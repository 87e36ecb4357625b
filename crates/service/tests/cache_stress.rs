//! Concurrency stress for the L1 memo and the L2 cache.
//!
//! Three properties the per-shard locks must keep under real thread
//! interleavings:
//!
//! * **no torn reads** — an L2 `get` racing writers either misses or
//!   returns the entry actually published under that fingerprint (the
//!   entry self-identifies, so a mismatched `(key, entry)` pair would be
//!   caught);
//! * **no stale-text L1 hit** — a memo lookup racing inserts,
//!   invalidations, evictions and FIFO compaction either misses or
//!   returns exactly the fingerprint memoized for that text;
//! * **warm batches are memo hits** — once the working set is resident,
//!   a repeat batch resolves through L1.

use queryvis::QueryVisOptions;
use queryvis_service::{
    compile_representative, fingerprint_sql, paper_corpus_requests, CacheConfig, CompiledEntry,
    DiagramService, Fingerprint, Format, L1Memo, Response, ServiceConfig, ShardedCache,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn distinct_entries(n: usize) -> Vec<(Fingerprint, Arc<CompiledEntry>)> {
    // Canonicalization anonymizes attribute names and literals, so
    // pattern distinctness needs structural variation: predicate count.
    let entries: Vec<(Fingerprint, Arc<CompiledEntry>)> = (0..n)
        .map(|i| {
            let mut sql = String::from("SELECT T.a FROM T WHERE T.a = 0");
            for j in 0..i {
                sql.push_str(&format!(" AND T.b{j} = {j}"));
            }
            let fq = fingerprint_sql(&sql, QueryVisOptions::default()).unwrap();
            let fp = fq.fingerprint;
            (fp, Arc::new(compile_representative(fq)))
        })
        .collect();
    let unique: std::collections::HashSet<Fingerprint> =
        entries.iter().map(|(fp, _)| *fp).collect();
    assert_eq!(unique.len(), n, "stress keys must be distinct patterns");
    entries
}

#[test]
fn l2_readers_never_see_a_torn_entry_under_writer_churn() {
    // Tiny cache, big keyspace: every insert demotes or evicts while
    // readers probe.
    let cache = ShardedCache::new(CacheConfig {
        capacity: 16,
        shards: 2,
    });
    let entries = distinct_entries(64);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for w in 0..2usize {
            let cache = &cache;
            let entries = &entries;
            let stop = &stop;
            scope.spawn(move || {
                for round in 0..5_000usize {
                    let (fp, entry) = &entries[(round * 2 + w) % entries.len()];
                    cache.insert(*fp, Arc::clone(entry));
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
        for r in 0..4usize {
            let cache = &cache;
            let entries = &entries;
            let stop = &stop;
            scope.spawn(move || {
                let mut i = r;
                while !stop.load(Ordering::Relaxed) {
                    let (fp, _) = &entries[i % entries.len()];
                    if let Some(found) = cache.get(*fp) {
                        // The entry self-identifies: a hit must hand back
                        // the entry published under this fingerprint.
                        assert_eq!(found.fingerprint(), *fp, "torn L2 read");
                    }
                    i += 3;
                }
            });
        }
    });
    let stats = cache.stats();
    assert!(stats.entries <= stats.capacity);
    assert!(stats.evictions > 0, "churn must actually evict");
}

#[test]
fn l1_lookups_never_return_a_stale_fingerprint_under_churn() {
    // Writers insert texts and invalidate their fingerprints while
    // readers look the same texts up: a hit must always carry the
    // fingerprint memoized for that exact text. Tiny shards force
    // eviction and FIFO compaction.
    let memo = L1Memo::new(32, 2);
    let texts: Vec<(String, Fingerprint, u32)> = (0..64u32)
        .map(|i| {
            (
                format!("SELECT T.c{i} FROM T"),
                Fingerprint(u128::from(i) + 1),
                i,
            )
        })
        .collect();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for w in 0..2usize {
            let memo = &memo;
            let texts = &texts;
            let stop = &stop;
            scope.spawn(move || {
                for round in 0..3_000usize {
                    let (sql, fp, words) = &texts[(round * 2 + w) % texts.len()];
                    memo.insert(sql, *fp, *words);
                    if round % 5 == w {
                        memo.invalidate(*fp);
                    }
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
        for r in 0..4usize {
            let memo = &memo;
            let texts = &texts;
            let stop = &stop;
            scope.spawn(move || {
                let mut i = r;
                while !stop.load(Ordering::Relaxed) {
                    let (sql, fp, words) = &texts[i % texts.len()];
                    if let Some((found_fp, found_words)) = memo.lookup(sql) {
                        assert_eq!(found_fp, *fp, "stale-text L1 hit for {sql:?}");
                        assert_eq!(found_words, *words);
                    }
                    i += 3;
                }
            });
        }
    });
    let stats = memo.stats();
    assert!(stats.entries <= stats.capacity);
    assert!(stats.invalidations > 0);
}

#[test]
fn warm_batches_hit_the_memo() {
    // Warm the service once, then serve the same batch twice more, in
    // order. Repeat texts must resolve through L1.
    let service = DiagramService::new(ServiceConfig::default());
    let requests = paper_corpus_requests(&[Format::Ascii, Format::Dot]);
    let serve = || -> Vec<Response> { requests.iter().map(|r| service.handle(r)).collect() };
    let cold = serve();
    assert_eq!(cold.len(), requests.len());
    for _ in 0..2 {
        let warm = serve();
        assert_eq!(warm.len(), requests.len());
    }
    let stats = service.stats();
    assert!(stats.l1_hits > 0, "warm runs must hit the memo");
}
