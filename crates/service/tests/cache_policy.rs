//! Eviction policy on seeded traces: the L2 cache's ARC against a strict
//! per-shard LRU reference with the same shard geometry (DESIGN.md §4a).
//!
//! Two deterministic key traces, replayed through a fresh
//! [`ShardedCache`] (get, and insert on a miss) and through the LRU
//! reference:
//!
//! * a Zipfian stream (256 keys, s = 1.0), where recency and frequency
//!   mostly agree and ARC should edge out LRU;
//! * a hot set re-referenced between one-shot scans of cold keys, the
//!   pattern that flushes an LRU and that ARC's ghost lists resist.
//!
//! The traces are seeded, so every hit count is exact: a change to the
//! eviction policy, the shard mapping or the vendored PRNG moves them.

use queryvis::QueryVisOptions;
use queryvis_service::{
    compile_representative, fingerprint_sql, CacheConfig, CompiledEntry, Fingerprint, ShardedCache,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

const GEOMETRY: CacheConfig = CacheConfig {
    capacity: 64,
    shards: 4,
};

/// Zipfian key trace: `accesses` draws over `n_keys` ranks with exponent
/// `s`, by inverse-CDF sampling. Rank 0 is the hottest key.
fn zipf_trace(n_keys: usize, s: f64, accesses: usize, seed: u64) -> Vec<u64> {
    let weights: Vec<f64> = (1..=n_keys).map(|k| 1.0 / (k as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(n_keys);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    (0..accesses)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0..1.0);
            cdf.partition_point(|&c| c < u).min(n_keys - 1) as u64
        })
        .collect()
}

/// Hot-set-with-cold-scan trace: `cycles` times, `hot_runs` random draws
/// from a hot set of `hot_keys`, then a burst of `scan_len` cold keys
/// that never repeat.
fn hot_scan_trace(
    hot_keys: u64,
    cycles: usize,
    hot_runs: usize,
    scan_len: usize,
    seed: u64,
) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_cold = 1_000_000u64;
    let mut trace = Vec::with_capacity(cycles * (hot_runs + scan_len));
    for _ in 0..cycles {
        for _ in 0..hot_runs {
            trace.push(rng.gen_range(0..hot_keys));
        }
        for _ in 0..scan_len {
            trace.push(next_cold);
            next_cold += 1;
        }
    }
    trace
}

/// Low-half synthetic keys, so `Fingerprint::shard` (lo ^ hi, mod shards)
/// spreads consecutive keys across shards as real fingerprints do.
fn trace_fingerprint(key: u64) -> Fingerprint {
    Fingerprint(u128::from(key) + 1)
}

/// Hits of the real cache (ARC) over `trace`. One shared entry stands in
/// for every value: the eviction policy sees only keys.
fn arc_hits(trace: &[u64]) -> usize {
    let entry: Arc<CompiledEntry> = {
        let fq = fingerprint_sql(
            "SELECT T.a FROM T WHERE T.a = 0",
            QueryVisOptions::default(),
        )
        .expect("policy entry compiles");
        Arc::new(compile_representative(fq))
    };
    let cache = ShardedCache::new(GEOMETRY);
    let mut hits = 0;
    for &key in trace {
        let fp = trace_fingerprint(key);
        if cache.get(fp).is_some() {
            hits += 1;
        } else {
            cache.insert(fp, Arc::clone(&entry));
        }
    }
    hits
}

/// Hits of the LRU reference over `trace`: strict LRU per shard, with the
/// cache's shard mapping and per-shard capacity (`div_ceil`), so it
/// differs from [`arc_hits`] in eviction policy only.
fn lru_hits(trace: &[u64]) -> usize {
    let per_shard = GEOMETRY.capacity.div_ceil(GEOMETRY.shards);
    let mut shards: Vec<HashMap<u128, u64>> = vec![HashMap::new(); GEOMETRY.shards];
    let mut hits = 0;
    for (stamp, &key) in trace.iter().enumerate() {
        let fp = trace_fingerprint(key);
        let shard = &mut shards[fp.shard(GEOMETRY.shards)];
        if shard.insert(fp.0, stamp as u64).is_some() {
            hits += 1;
        } else if shard.len() > per_shard {
            let coldest = *shard
                .iter()
                .min_by_key(|&(_, s)| *s)
                .map(|(k, _)| k)
                .unwrap();
            shard.remove(&coldest);
        }
    }
    hits
}

/// Replays `trace` through both policies. The hit counts are pinned
/// exactly and may be re-recorded when the policy changes on purpose;
/// the ARC ≥ LRU ordering may not change.
fn check(trace: &[u64], arc_pinned: usize, lru_pinned: usize) {
    let (arc, lru) = (arc_hits(trace), lru_hits(trace));
    let rate = |hits: usize| hits as f64 / trace.len() as f64;
    assert!(
        arc >= lru,
        "ARC hit rate {:.4} below LRU {:.4}",
        rate(arc),
        rate(lru)
    );
    assert_eq!((arc, lru), (arc_pinned, lru_pinned), "(ARC, LRU) hits");
}

#[test]
fn arc_beats_lru_on_zipfian_traffic() {
    let trace = zipf_trace(256, 1.0, 10_000, 0x5eed);
    // Hit rates 0.6963 (ARC) and 0.6770 (LRU).
    check(&trace, 6_963, 6_770);
}

#[test]
fn arc_beats_lru_on_a_hot_set_under_cold_scans() {
    let trace = hot_scan_trace(48, 40, 60, 100, 0x5eed);
    assert_eq!(trace.len(), 6_400);
    // Hit rates 0.3625 (ARC) and 0.1573 (LRU).
    check(&trace, 2_320, 1_007);
}
