//! Timing, percentiles, peak memory and reply digests shared by every
//! workload.
//!
//! A client's timed phase replays a fixed, seeded list of ops — a
//! *round* — until the run's time is up, and always ends on a round
//! boundary, so byte counts per op are exact for a seed. Every op is
//! timed from send to reply and scaled to the host's reference pace
//! ([`crate::pace`]): after each window of about 10 ms of op time the
//! client times the pace kernel, and the window's ops are scaled by
//! `REFERENCE_NS` over the mean of the kernel times at its two ends.
//! Percentiles are taken over every op served; every round holds at
//! least 1,000 ops, so at least ten samples lie past p99.

use crate::pace::{Pace, REFERENCE_NS};

/// Op time between two pace measurements.
const WINDOW_NS: u64 = 10_000_000;

/// Scaled samples per storage chunk. Samples grow in fixed chunks, never
/// by copying into a doubled buffer, so the benchmark's own memory adds
/// little and smoothly to `peak_rss_mb`.
const CHUNK: usize = 1 << 16;

/// Every op latency and byte count of one client.
pub struct Recorder {
    pace: Pace,
    /// Kernel time at the start of the open window.
    window_pace: f64,
    /// Raw latencies (ns) of the open window's ops.
    window: Vec<u64>,
    window_ns: u64,
    /// Every closed window's ops, scaled, in ns.
    scaled: Vec<Vec<u32>>,
    scaled_ns: f64,
    /// Every kernel time measured, in ns.
    paces: Vec<f64>,
    round_len: usize,
    pos: usize,
    rounds: usize,
    ops: u64,
    raw_ns: u64,
    bytes: u64,
}

impl Recorder {
    pub fn new(round_len: usize) -> Recorder {
        assert!(round_len > 0, "a round holds at least one op");
        let mut pace = Pace::new();
        let first = pace.measure();
        Recorder {
            pace,
            window_pace: first,
            window: Vec::new(),
            window_ns: 0,
            scaled: Vec::new(),
            scaled_ns: 0.0,
            paces: vec![first],
            round_len,
            pos: 0,
            rounds: 0,
            ops: 0,
            raw_ns: 0,
            bytes: 0,
        }
    }

    /// Record the next op of the round: its latency from send to reply,
    /// and the reply size. Call between ops: it may time the pace kernel.
    pub fn record(&mut self, ns: u64, reply_bytes: usize) {
        self.window.push(ns);
        self.window_ns += ns;
        self.pos += 1;
        self.ops += 1;
        self.raw_ns += ns;
        self.bytes += reply_bytes as u64;
        if self.window_ns >= WINDOW_NS {
            self.close_window();
        }
    }

    fn close_window(&mut self) {
        if self.window.is_empty() {
            return;
        }
        let now = self.pace.measure();
        self.paces.push(now);
        let scale = 2.0 * REFERENCE_NS / (self.window_pace + now);
        for ns in self.window.drain(..) {
            let scaled = ns as f64 * scale;
            self.scaled_ns += scaled;
            if self.scaled.last().is_none_or(|c| c.len() == CHUNK) {
                self.scaled.push(Vec::with_capacity(CHUNK));
            }
            let chunk = self.scaled.last_mut().expect("a chunk with room");
            chunk.push(scaled.round().min(f64::from(u32::MAX)) as u32);
        }
        self.window_pace = now;
        self.window_ns = 0;
    }

    pub fn end_round(&mut self) {
        assert_eq!(self.pos, self.round_len, "rounds are replayed whole");
        self.close_window();
        self.pos = 0;
        self.rounds += 1;
    }

    /// Mean scaled latency over every op served.
    pub fn scaled_mean_us(&self) -> f64 {
        self.scaled_ns / self.ops as f64 / 1e3
    }
}

/// The nearest-rank percentile of sorted samples.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> T {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// End-to-end figures of one timed phase, over every client.
pub struct Summary {
    pub ops: u64,
    pub rounds: usize,
    pub throughput_ops: f64,
    pub latency_p50_us: f64,
    pub latency_p99_us: f64,
    pub response_bytes_per_op: f64,
    /// Throughput from raw (unscaled) op times.
    pub raw_throughput_ops: f64,
    /// Median kernel time over every pace measurement, in ns.
    pub pace_ns: f64,
}

/// Throughput is each client's ops over its summed scaled op time, added
/// up over clients; percentiles pool every client's scaled op latencies.
pub fn summarize(clients: &[Recorder]) -> Summary {
    let (mut throughput, mut raw_throughput) = (0.0, 0.0);
    let mut latencies: Vec<u32> = Vec::new();
    let mut paces: Vec<f64> = Vec::new();
    let (mut ops, mut bytes, mut rounds) = (0u64, 0u64, 0usize);
    for client in clients {
        assert!(client.rounds > 0, "every client finishes a round");
        throughput += client.ops as f64 / (client.scaled_ns / 1e9);
        raw_throughput += client.ops as f64 / (client.raw_ns as f64 / 1e9);
        for chunk in &client.scaled {
            latencies.extend_from_slice(chunk);
        }
        paces.extend_from_slice(&client.paces);
        ops += client.ops;
        bytes += client.bytes;
        rounds += client.rounds;
    }
    latencies.sort_unstable();
    Summary {
        ops,
        rounds,
        throughput_ops: throughput,
        latency_p50_us: f64::from(nearest_rank(&latencies, 0.50)) / 1e3,
        latency_p99_us: f64::from(nearest_rank(&latencies, 0.99)) / 1e3,
        response_bytes_per_op: bytes as f64 / ops as f64,
        raw_throughput_ops: raw_throughput,
        pace_ns: median(&mut paces),
    }
}

/// The process's peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("peak memory is read from /proc/self/status (Linux only)");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kib / 1024.0
}

/// A fast 64-bit digest of reply bytes. Replies are compared against
/// digests of expected bytes, so no reply text has to be kept around.
pub fn digest(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = K ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("chunks of eight bytes"));
        h = (h ^ w).wrapping_mul(K);
        h ^= h >> 29;
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(K);
        h ^= h >> 29;
    }
    h
}

/// Fold `value` into an order-dependent running digest.
pub fn fold(acc: u64, value: u64) -> u64 {
    (acc ^ value)
        .wrapping_mul(0xD6E8_FEB8_6659_FD93)
        .rotate_left(23)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_of_a_thousand_leaves_ten_samples_above() {
        let samples: Vec<u64> = (1..=1000).collect();
        let p99 = nearest_rank(&samples, 0.99);
        assert_eq!(samples.iter().filter(|s| **s > p99).count(), 10);
        assert_eq!(nearest_rank(&samples, 0.5), 500);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn every_op_is_a_sample_and_rounds_are_whole() {
        let mut r = Recorder::new(2);
        for (a, b) in [(500, 90), (100, 300)] {
            r.record(a, 10);
            r.record(b, 30);
            r.end_round();
        }
        let s = summarize(&[r]);
        assert_eq!((s.ops, s.rounds), (4, 2));
        assert_eq!(s.response_bytes_per_op, 20.0);
        // One factor scales every op of a window, so the samples keep
        // their order.
        assert!(s.latency_p50_us < s.latency_p99_us);
        assert!((s.raw_throughput_ops - 4.0 / 990e-9).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "rounds are replayed whole")]
    fn a_round_cut_short_is_refused() {
        let mut r = Recorder::new(2);
        r.record(1, 1);
        r.end_round();
    }

    #[test]
    fn digest_separates_lengths_and_contents() {
        assert_ne!(digest(b"abcdefgh"), digest(b"abcdefgi"));
        assert_ne!(digest(b""), digest(b"\0"));
        assert_eq!(digest(b"same bytes here"), digest(b"same bytes here"));
    }
}
