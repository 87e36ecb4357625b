//! The host's pace, so op times can be scaled to a reference speed.
//!
//! On the host this was sized on (2 shared vCPUs), identical work runs up
//! to 1.5x slower for stretches of seconds to minutes, from load outside
//! this process: thread CPU time tracks wall time and no steal shows. Two
//! unrelated kernels (string building with hash maps; sorting with
//! pointer chasing over 4 MiB), alternated for 40 s, each varied in time
//! per second with a coefficient of variation of about 20%, while the
//! ratio of their times varied by 2%. The slowdown is common to all work,
//! so a fixed kernel timed between ops measures it.
//!
//! The kernel is the benchmark's own code, never the program's, so a
//! change to the program does not change the work it times; it works on
//! a few KiB that it warms before timing, so the program's cache
//! footprint barely moves its time. It runs on the client's own thread
//! between ops, so work the program did on other threads at that moment
//! would slow it and be scaled away; the paths driven here run none.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time, in ns, at the host's reference pace: about its
/// fastest time on the host this was sized on. A scaled time is what the
/// work would have taken at that pace.
pub const REFERENCE_NS: f64 = 50_000.0;

/// A fixed kernel of string building, hashing, hash-map updates and
/// sorting: the kinds of work the program does.
pub struct Pace {
    text: String,
    counts: HashMap<u64, u32, BuildHasherDefault<DefaultHasher>>,
    keys: Vec<u64>,
}

impl Pace {
    pub fn new() -> Pace {
        Pace {
            text: String::with_capacity(16 * 1024),
            counts: HashMap::default(),
            keys: Vec::with_capacity(1024),
        }
    }

    fn kernel(&mut self) -> u64 {
        self.text.clear();
        for i in 0..300u64 {
            let _ = write!(
                self.text,
                "<text x=\"{}\" y=\"{}\">t{}.c{}</text>",
                i * 37 % 1009,
                i * 11 % 97,
                i % 7,
                i % 13
            );
        }
        self.counts.clear();
        for word in self.text.as_bytes().chunks(12) {
            let h = crate::measure::digest(word);
            *self.counts.entry(h % 509).or_default() += 1;
        }
        self.keys.clear();
        let spread = self
            .counts
            .iter()
            .map(|(k, n)| k.wrapping_mul(0x9E37_79B9) ^ u64::from(*n));
        self.keys.extend(spread);
        self.keys.sort_unstable();
        self.keys
            .iter()
            .fold(0, |acc, k| crate::measure::fold(acc, *k))
    }

    /// Time the kernel: one untimed run to warm its data, then the
    /// faster of two timed runs, in ns.
    pub fn measure(&mut self) -> f64 {
        black_box(self.kernel());
        let mut best = u64::MAX;
        for _ in 0..2 {
            let t0 = Instant::now();
            black_box(self.kernel());
            best = best.min(t0.elapsed().as_nanos() as u64);
        }
        best as f64
    }
}
