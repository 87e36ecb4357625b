//! Canonical-digest test: the canonical pattern of a fixed input set, name
//! maps included, folded into one FNV-1a digest and compared with a
//! recorded constant.
//!
//! `crates/service/tests/reply_digest.rs` pins the fingerprints the
//! service discloses; it does not pin the canonical name assignment that
//! the semantic oracle's data transport reads from
//! [`PatternKey::branch_erasures`]. This test pins both: per input, the
//! [`PatternKey::of_branches`] token stream and, per branch, the rank,
//! the token stream and every binding and `(binding, column)` slot of the
//! name maps. Symbols are folded as their text, never as ids, because ids
//! depend on the order a query spells its names.
//!
//! The inputs are the paper corpus, `reply_digest.rs`'s fixed-seed
//! `sqlgen` draw, the star `T.a{i} = U.k` at n = 8 and n = 25 in three
//! conjunct orders each, a 23-conjunct query whose tied probes split
//! its fingerprint across conjunct orders, in eight fixed permutations,
//! and the self-join path `R{i}.b = R{i+1}.a` and its closed cycle at
//! n = 50, in three conjunct orders each.
//! The star and the split query reach the tie lookahead and exhaust its
//! work budget, so a change to the tie-break order moves the constant.
//!
//! An intentional change to canonicalization re-records the constant:
//! run `cargo test --release --test canonical_digest -- --nocapture` and
//! copy the printed digest.
//!
//! A second test bounds the cost of the self-join path at n = 400, whose
//! canonicalization grew as about n^3.8 while every probe built a sharing
//! descriptor for each fresh column it touched.

use proptest::sqlgen::{gen_query, GenConfig};
use proptest::test_runner::TestRng;
use queryvis::{PatternKey, QueryVis, QueryVisOptions};
use queryvis_service::paper_corpus_requests;
use std::time::{Duration, Instant};

/// `reply_digest.rs`'s draw: the widened grammar at nesting depth 3.
const DRAW: GenConfig = GenConfig {
    max_depth: 3,
    max_tables: 3,
    max_preds: 3,
    with_or: true,
    with_union: true,
    with_having: true,
};
const DRAW_CASES: u64 = 600;

const STAR_SIZES: [usize; 2] = [8, 25];
const SPLIT_PERMUTATIONS: u64 = 8;
const SELF_JOIN_SIZE: usize = 50;

/// The timed self-join path. Canonicalizing it took 14–22 s when probes
/// built sharing descriptors, and takes 1.3–4 ms in a release build (about
/// 36 ms in a debug build) on a shared 2-vCPU x86-64 container now; the
/// bound is over 60 times the release time and over 50 times below the
/// old one.
const COST_SIZE: usize = 400;
const COST_BOUND: Duration = Duration::from_millis(250);

const EXPECTED: u64 = 0xcb42aa9a34291e65;

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Digest(u64);

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV64_PRIME);
        }
    }

    fn word(&mut self, w: u32) {
        self.bytes(&w.to_le_bytes());
    }

    /// A name, length first, so adjacent names cannot trade bytes.
    fn text(&mut self, s: &str) {
        self.word(s.len() as u32);
        self.bytes(s.as_bytes());
    }

    fn tokens(&mut self, tokens: &[u32]) {
        self.word(tokens.len() as u32);
        for &t in tokens {
            self.word(t);
        }
    }
}

/// Fisher–Yates over `items`, driven by a fixed-seed case generator.
fn shuffled<T>(mut items: Vec<T>, case: u64) -> Vec<T> {
    let mut rng = TestRng::for_case("canonical_digest", case);
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
    items
}

/// ROADMAP item 1's star: `n` join conjuncts that probe to one tuple.
fn star(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("T.a{i} = U.k")).collect()
}

/// ROADMAP item 1's fingerprint split: 23 conjuncts, tied in pairs.
fn split() -> Vec<String> {
    let mut conjuncts = Vec::new();
    for i in 0..9 {
        conjuncts.push(format!("T.a{i} = U.k"));
        conjuncts.push(format!("T.a{i} = U.m"));
    }
    for c in [
        "T.a2 = W.z",
        "W.q = U.k",
        "T.a5 > 3",
        "T.a1 = V.y",
        "V.y = W.q",
    ] {
        conjuncts.push(c.to_string());
    }
    conjuncts
}

/// ROADMAP item 1's self-join path over `n` bindings of one table,
/// closed into a cycle by `R{n-1}.b = R0.a` when `cycle` is set.
fn self_join(n: usize, cycle: bool) -> (String, Vec<String>) {
    let from: Vec<String> = (0..n).map(|i| format!("R R{i}")).collect();
    let mut conjuncts: Vec<String> = (1..n).map(|i| format!("R{}.b = R{i}.a", i - 1)).collect();
    if cycle {
        conjuncts.push(format!("R{}.b = R0.a", n - 1));
    }
    (format!("SELECT R0.a FROM {}", from.join(", ")), conjuncts)
}

/// `conjuncts` as written, reversed, and shuffled by `case`.
fn three_orders(conjuncts: Vec<String>, case: u64) -> [Vec<String>; 3] {
    let mut reversed = conjuncts.clone();
    reversed.reverse();
    let mixed = shuffled(conjuncts.clone(), case);
    [conjuncts, reversed, mixed]
}

fn inputs() -> Vec<String> {
    let mut sqls: Vec<String> = paper_corpus_requests(&[])
        .into_iter()
        .map(|r| r.sql)
        .collect();
    for case in 0..DRAW_CASES {
        let mut rng = TestRng::for_case("render_digest", case);
        sqls.push(gen_query(&DRAW, &mut rng).canonical());
    }
    for n in STAR_SIZES {
        for order in three_orders(star(n), n as u64) {
            sqls.push(format!(
                "SELECT T.a0 FROM T, U WHERE {}",
                order.join(" AND ")
            ));
        }
    }
    for case in 0..SPLIT_PERMUTATIONS {
        let order = shuffled(split(), 100 + case);
        sqls.push(format!(
            "SELECT T.a0 FROM T, U, W, V WHERE {}",
            order.join(" AND ")
        ));
    }
    for (cycle, case) in [(false, 200), (true, 300)] {
        let (head, conjuncts) = self_join(SELF_JOIN_SIZE, cycle);
        for order in three_orders(conjuncts, case) {
            sqls.push(format!("{head} WHERE {}", order.join(" AND ")));
        }
    }
    sqls
}

#[test]
fn canonical_patterns_and_name_maps_match_recorded_digest() {
    let mut digest = Digest(FNV64_OFFSET);
    let mut multi_branch = 0usize;
    for sql in inputs() {
        let prepared = QueryVis::prepare(&sql, QueryVisOptions::default())
            .unwrap_or_else(|e| panic!("{sql}: {e:?}"));
        let (trees, names) = (prepared.trees(), prepared.names());
        multi_branch += usize::from(trees.len() > 1);
        digest.tokens(PatternKey::of_branches(&trees, prepared.union_all, names).tokens());
        let erasures = PatternKey::branch_erasures(&trees, names);
        digest.word(erasures.len() as u32);
        for e in &erasures {
            digest.word(e.rank as u32);
            digest.tokens(&e.tokens);
            digest.word(e.bindings.len() as u32);
            for &(key, b) in &e.bindings {
                digest.text(names.resolve(key));
                digest.word(b);
            }
            digest.word(e.attrs.len() as u32);
            for &(key, column, (b, c)) in &e.attrs {
                digest.text(names.resolve(key));
                digest.text(names.resolve(column));
                digest.word(b);
                digest.word(c);
            }
        }
    }
    assert!(multi_branch > 0, "the draw reached no multi-branch query");
    println!("{:#018x}", digest.0);
    assert_eq!(digest.0, EXPECTED, "canonicalization drifted");
}

#[test]
fn self_join_path_fingerprints_within_its_cost_bound() {
    let (head, conjuncts) = self_join(COST_SIZE, false);
    let sql = format!("{head} WHERE {}", conjuncts.join(" AND "));
    let prepared = QueryVis::prepare(&sql, QueryVisOptions::default()).unwrap();
    let mut tokens = Vec::new();
    let start = Instant::now();
    prepared.pattern_tokens_into(&mut tokens);
    let elapsed = start.elapsed();
    println!("self-join path n = {COST_SIZE}: {elapsed:?}");
    assert!(
        elapsed < COST_BOUND,
        "n = {COST_SIZE} self-join path took {elapsed:?}, bound {COST_BOUND:?}"
    );
}
