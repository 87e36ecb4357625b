//! Seeded input generation. Every workload's inputs are a function of the
//! `--seed` argument alone; the program only ever sees the generated text.
//!
//! Queries come from `proptest::sqlgen`'s widened grammar. Their
//! structures form a fixed suite, drawn once with [`SUITE`], much as a
//! database benchmark fixes its query templates; `--seed` draws the rest:
//! the names a `cold_compile` query uses and the serving order, the
//! spellings and op order of `serve_warm`, and the names and keystroke
//! traces of `edit_session`. Compile cost is heavy-tailed in structure
//! (a few queries with many `OR`s canonicalize in milliseconds), so when
//! each seed drew its own structures, the dozens of queries past p99
//! differed from seed to seed, and p99 and throughput spread by 12–22%
//! across seeds, against 1–6% with the suite fixed.
//!
//! Spellings of one pattern come only from rewrites the program is known
//! to map to one fingerprint: `text_variant`, order-preserving alias
//! renames, and `pattern_variant` salts that do not put `JOIN … ON` in
//! front of a block of three or more tables (the `ON` clause may then
//! name a table listed after it, which does not parse). Numeric-literal
//! rewrites are *not* used for same-pattern traffic: they can split
//! fingerprints, which the `core.constant_split_queries` side set counts
//! instead.

use proptest::sqlgen::{gen_query, GenConfig, GenQuery};
use proptest::test_runner::TestRng;
use queryvis::logic::TranslateError;
use queryvis::{QueryVis, QueryVisError, QueryVisOptions};
use queryvis_service::{fingerprint_sql, json, Fingerprint};
use std::collections::HashSet;

/// The widened grammar at the paper's nesting bound of 3.
pub const WIDE: GenConfig = GenConfig {
    max_depth: 3,
    max_tables: 3,
    max_preds: 3,
    with_or: true,
    with_union: true,
    with_having: true,
};

/// Input sizes. The self-test runs the same generators at a small scale.
#[derive(Clone, Copy)]
pub struct Scale {
    /// Generated queries in the `cold_compile` timed pool (corpus and
    /// golden queries come on top).
    pub cold_pool: usize,
    /// Pool queries served by one fresh service before the next takes
    /// over; bounds memory to one service of this many entries.
    pub cold_per_service: usize,
    /// Generated queries in the separate warm-up slice.
    pub cold_warmup: usize,
    pub serve_patterns: usize,
    pub edit_sessions: usize,
    /// Set-up repetitions per run; `setup_s` is their median.
    pub setup_reps: usize,
}

pub const FULL: Scale = Scale {
    cold_pool: 3000,
    cold_per_service: 1000,
    cold_warmup: 300,
    serve_patterns: 300,
    edit_sessions: 64,
    setup_reps: 7,
};

/// Why generated queries were left out of a pool.
#[derive(Default, Debug)]
pub struct Dropped {
    pub disjunction_too_wide: usize,
    pub other_errors: usize,
    pub duplicate_patterns: usize,
}

/// The seed of the query-structure suite every run shares.
const SUITE: u64 = 1;

fn rng(label: &str, seed: u64, case: u64) -> TestRng {
    TestRng::for_case(&format!("qvbench/{label}/{seed}"), case)
}

/// Fingerprint `sql` through the plain-request frontend, or say why the
/// program refuses it.
pub fn admit(sql: &str) -> Result<Fingerprint, QueryVisError> {
    fingerprint_sql(sql, QueryVisOptions::default()).map(|fq| fq.fingerprint)
}

fn note_refusal(dropped: &mut Dropped, error: &QueryVisError) {
    match error {
        QueryVisError::Translate(TranslateError::DisjunctionTooWide { .. }) => {
            dropped.disjunction_too_wide += 1
        }
        _ => dropped.other_errors += 1,
    }
}

/// Draw `n` suite queries and return their draw cases sorted by canonical
/// text length (ties in draw order). Inputs are then taken at evenly spaced
/// ranks of this order, so the suite spans the sizes evenly.
fn cases_by_length(label: &str, cfg: &GenConfig, n: usize) -> Vec<u64> {
    let mut keyed: Vec<(usize, u64)> = (0..n as u64)
        .map(|case| {
            (
                gen_query(cfg, &mut rng(label, SUITE, case))
                    .canonical()
                    .len(),
                case,
            )
        })
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, case)| case).collect()
}

/// The first suite query among `cases` the program accepts (and, with
/// `seen`, whose pattern is not in it yet).
fn first_admitted(
    label: &str,
    cfg: &GenConfig,
    cases: &[u64],
    dropped: &mut Dropped,
    mut seen: Option<&mut HashSet<Fingerprint>>,
) -> Option<(GenQuery, Fingerprint)> {
    for &case in cases {
        let query = gen_query(cfg, &mut rng(label, SUITE, case));
        match admit(&query.canonical()) {
            Ok(fingerprint) => {
                if let Some(seen) = seen.as_deref_mut() {
                    if !seen.insert(fingerprint) {
                        dropped.duplicate_patterns += 1;
                        continue;
                    }
                }
                return Some((query, fingerprint));
            }
            Err(e) => note_refusal(dropped, &e),
        }
    }
    None
}

/// A plain request line as a front end receives it.
pub fn request_line(id: u64, sql: &str, formats: &str) -> String {
    let mut line = String::with_capacity(sql.len() + 64);
    line.push_str("{\"id\":");
    json::write_u64(&mut line, id);
    line.push_str(",\"sql\":");
    json::escape_into(&mut line, sql);
    line.push_str(",\"formats\":");
    line.push_str(formats);
    line.push('}');
    line
}

// ---------------------------------------------------------------------
// cold_compile
// ---------------------------------------------------------------------

/// The queries pinned by `tests/golden`, with their file stems.
pub const GOLDEN: [(&str, &str); 3] = [
    (
        "single_block",
        "SELECT F.person FROM Frequents F, Likes L, Serves S \
          WHERE F.person = L.person AND F.bar = S.bar AND L.drink = S.drink",
    ),
    (
        "nested_chain",
        "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
          (SELECT * FROM Serves S WHERE S.bar = F.bar AND NOT EXISTS \
          (SELECT L.drink FROM Likes L WHERE L.person = F.person AND S.drink = L.drink))",
    ),
    (
        "union_two_branch",
        "SELECT F.person FROM Frequents F WHERE F.bar = 'Owl' \
          UNION SELECT L.person FROM Likes L WHERE L.beer = 'IPA'",
    ),
];

pub struct ColdInputs {
    /// Timed pool in serving order: the golden queries first (so each is
    /// its own pattern representative), then the paper corpus, then the
    /// generated queries.
    pub sqls: Vec<String>,
    /// Request lines of `sqls`; a line's id is its pool index.
    pub lines: Vec<String>,
    /// Request lines of the separate warm-up slice.
    pub warmup: Vec<String>,
    pub dropped: Dropped,
}

pub const COLD_FORMATS: &str = r#"["ascii","svg","scene_json"]"#;

/// Candidates drawn per input: the length-ranked candidates are cut into
/// strata of this many, and each stratum yields at most one input.
const STRATUM: usize = 16;
const COLD_STRATUM: usize = 8;

/// The suite's queries with their aliases renamed for `seed`
/// ([`fresh_spelling`]): the same patterns, in text the seed decides.
fn renamed(queries: Vec<String>, label: &str, seed: u64) -> Vec<String> {
    let mut r = rng(label, seed, 0);
    let mut out = String::new();
    queries
        .iter()
        .map(|sql| {
            fresh_spelling(sql, &mut r, &mut out);
            out.clone()
        })
        .collect()
}

pub fn cold(seed: u64, scale: &Scale) -> ColdInputs {
    let mut dropped = Dropped::default();
    let mut sqls: Vec<String> = GOLDEN.iter().map(|(_, sql)| sql.to_string()).collect();
    sqls.extend(
        queryvis_service::paper_corpus_requests(&[])
            .into_iter()
            .map(|r| r.sql),
    );
    let cases = cases_by_length("cold", &WIDE, COLD_STRATUM * scale.cold_pool);
    let strata: Vec<&[u64]> = cases.chunks(COLD_STRATUM).collect();
    // The pool takes the tail of each stratum, the warm-up slice the head
    // of evenly spaced strata, so the two never share a query.
    let split = COLD_STRATUM / 4;
    let mut pick = |cases: &[u64]| first_admitted("cold", &WIDE, cases, &mut dropped, None);
    let pool: Vec<String> = strata
        .iter()
        .filter_map(|stratum| pick(&stratum[split..]))
        .map(|(q, _)| q.canonical())
        .collect();
    let warmup: Vec<String> = (0..scale.cold_warmup)
        .filter_map(|i| pick(&strata[i * strata.len() / scale.cold_warmup][..split]))
        .map(|(q, _)| q.canonical())
        .collect();
    let mut pool = renamed(pool, "cold-names", seed);
    let warmup = renamed(warmup, "cold-warmup-names", seed);
    // Serve sizes mixed, so every service slice holds a share of each.
    let mut r = rng("cold-order", seed, 0);
    for i in (1..pool.len()).rev() {
        pool.swap(i, r.below(i as u64 + 1) as usize);
    }
    sqls.extend(pool);
    let lines = sqls
        .iter()
        .enumerate()
        .map(|(i, sql)| request_line(i as u64, sql, COLD_FORMATS))
        .collect();
    let warmup = warmup
        .iter()
        .enumerate()
        .map(|(i, sql)| request_line(i as u64, sql, COLD_FORMATS))
        .collect();
    ColdInputs {
        sqls,
        lines,
        warmup,
        dropped,
    }
}

// ---------------------------------------------------------------------
// serve_warm
// ---------------------------------------------------------------------

/// Zipf exponent of pattern popularity.
const ZIPF_S: f64 = 1.0;

pub struct Pattern {
    pub fingerprint: Fingerprint,
    /// Popular spellings; `[0]` is the canonical text, which set-up
    /// compiles first so it is the pattern's representative.
    pub popular: Vec<String>,
    /// Texts that fresh spellings rename: the canonical text and a
    /// `text_variant`.
    pub fresh_bases: [String; 2],
}

/// One op of a client round: a pattern and which spelling to send.
#[derive(Clone, Copy)]
pub struct ServeOp {
    pub pattern: u16,
    pub spelling: Spelling,
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Spelling {
    Popular(u8),
    /// A never-seen rename of `fresh_bases[i]`.
    Fresh(u8),
}

pub struct ServeInputs {
    pub patterns: Vec<Pattern>,
    /// One fixed round of ops per client.
    pub rounds: Vec<Vec<ServeOp>>,
    pub dropped: Dropped,
}

pub const SERVE_FORMATS: &str = r#"["svg"]"#;
pub const SERVE_CLIENTS: usize = 2;

/// True when some block of `sql` (a canonical sqlgen text) lists three or
/// more tables. Every generated block has a WHERE clause, which ends its
/// FROM list.
fn has_wide_from(sql: &str) -> bool {
    sql.match_indices("FROM ").any(|(at, _)| {
        let list = &sql[at..];
        let end = list.find(" WHERE").unwrap_or(list.len());
        list[..end].matches(',').count() >= 2
    })
}

/// `pattern_variant` salts `salt % 5 < 2` write a block's first
/// comparison as `JOIN … ON`.
fn join_safe(salt: u64, wide_from: bool) -> bool {
    !(wide_from && salt % 5 < 2)
}

pub fn serve(seed: u64, scale: &Scale) -> ServeInputs {
    let mut dropped = Dropped::default();
    let mut seen = HashSet::new();
    // The working set spans the middle 80% of the length order: the
    // longest tenth of the widened grammar canonicalizes in milliseconds
    // and would alone decide this workload's p99.
    let n = scale.serve_patterns;
    let cases = cases_by_length("serve", &WIDE, STRATUM * n * 10 / 8);
    let middle = &cases[STRATUM * n / 8..STRATUM * n * 9 / 8];
    let mut patterns: Vec<Pattern> = Vec::with_capacity(n);
    for (j, stratum) in middle.chunks(STRATUM).enumerate() {
        let picked = first_admitted("serve", &WIDE, stratum, &mut dropped, Some(&mut seen));
        let Some((query, fingerprint)) = picked else {
            continue;
        };
        let canonical = query.canonical();
        let wide_from = has_wide_from(&canonical);
        let mut r = rng("serve-spellings", seed, j as u64);
        // Two join-safe pattern variants with different name sets
        // (`salt % 3` picks the alias/table/column prefixes).
        let mut salts: Vec<u64> = Vec::new();
        while salts.len() < 2 {
            let salt = r.below(1 << 20);
            if join_safe(salt, wide_from) && salts.iter().all(|s| s % 3 != salt % 3) {
                salts.push(salt);
            }
        }
        let text_salt = r.below(2);
        let mut popular = vec![canonical.clone(), query.text_variant(text_salt)];
        popular.extend(salts.iter().map(|s| query.pattern_variant(*s)));
        patterns.push(Pattern {
            fingerprint,
            popular,
            fresh_bases: [canonical, query.text_variant(1 - text_salt)],
        });
    }
    // Zipf ranks are dealt center-out over the patterns ordered by svg
    // size: the most popular pattern has the median reply, and popularity
    // falls off towards both the smallest and the largest. Under a plain
    // shuffle, whichever query a seed happened to make most popular set
    // a sixth of its traffic (reply sizes differed 14–24 KB per op).
    let n = patterns.len();
    let mut by_size: Vec<(usize, usize)> = patterns
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let qv = QueryVis::from_sql(&p.popular[0]).expect("admitted queries compile");
            (qv.svg().len(), i)
        })
        .collect();
    by_size.sort_unstable();
    let mid = n / 2;
    let order: Vec<u16> = (0..n)
        .map(|rank| {
            let at = if rank % 2 == 1 {
                mid - rank.div_ceil(2)
            } else {
                mid + rank / 2
            };
            by_size[at].1 as u16
        })
        .collect();
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(ZIPF_S)).collect();
    let rounds = (0..SERVE_CLIENTS)
        .map(|client| serve_round(&order, &weights, &patterns, seed, client))
        .collect();
    ServeInputs {
        patterns,
        rounds,
        dropped,
    }
}

/// Popular ops per fresh op: three ops in four are L1 hits.
const POPULAR_PER_FRESH: usize = 3;

/// One client's round. Popular ops give each rank its Zipf share exactly
/// (largest remainders), taking the pattern's popular spellings in turn;
/// fresh spellings are spread evenly, the same number for every pattern,
/// as a new spelling is as likely for a rarely viewed pattern as for a
/// popular one. The seed shuffles the order. Drawing each op at random
/// let the mix, and with it reply sizes and the p99, move from seed to
/// seed; so did fresh spellings that followed popularity, because then
/// the one or two patterns that happened to canonicalize slowly among
/// the popular ones decided the p99.
fn serve_round(
    order: &[u16],
    weights: &[f64],
    patterns: &[Pattern],
    seed: u64,
    client: usize,
) -> Vec<ServeOp> {
    // One fresh spelling of each fresh base per pattern.
    let fresh: usize = patterns.iter().map(|p| p.fresh_bases.len()).sum();
    let popular = POPULAR_PER_FRESH * fresh;
    let total: f64 = weights.iter().sum();
    let shares: Vec<f64> = weights.iter().map(|w| w / total * popular as f64).collect();
    let mut counts: Vec<usize> = shares.iter().map(|s| *s as usize).collect();
    let mut by_remainder: Vec<usize> = (0..shares.len()).collect();
    let remainder = |rank: usize| shares[rank] - counts[rank] as f64;
    by_remainder.sort_by(|&a, &b| remainder(b).total_cmp(&remainder(a)));
    let short = popular - counts.iter().sum::<usize>();
    for &rank in &by_remainder[..short] {
        counts[rank] += 1;
    }
    let mut ops = Vec::with_capacity(popular + fresh);
    for (rank, &count) in counts.iter().enumerate() {
        let pattern = order[rank];
        let spellings = patterns[pattern as usize].popular.len();
        for k in 0..count {
            let spelling = Spelling::Popular((k % spellings) as u8);
            ops.push(ServeOp { pattern, spelling });
        }
    }
    for (pattern, p) in patterns.iter().enumerate() {
        for base in 0..p.fresh_bases.len() {
            let spelling = Spelling::Fresh(base as u8);
            ops.push(ServeOp {
                pattern: pattern as u16,
                spelling,
            });
        }
    }
    let mut r = rng("serve-round", seed, client as u64);
    for i in (1..ops.len()).rev() {
        ops.swap(i, r.below(i as u64 + 1) as usize);
    }
    ops
}

/// The per-client generator of fresh spellings.
pub fn fresh_rng(seed: u64, client: usize) -> TestRng {
    rng("serve-fresh", seed, client as u64)
}

/// An alias of a canonical-named sqlgen text starting at byte `i`: `t`
/// and two or more digits, as a whole word. Returns its end and number.
fn alias_at(text: &str, i: usize) -> Option<(usize, u32)> {
    let bytes = text.as_bytes();
    let word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    if bytes[i] != b't' || (i > 0 && word(bytes[i - 1])) {
        return None;
    }
    let digits = bytes[i + 1..]
        .iter()
        .take_while(|d| d.is_ascii_digit())
        .count();
    let end = i + 1 + digits;
    if digits < 2 || (end < bytes.len() && word(bytes[end])) {
        return None;
    }
    Some((end, text[i + 1..end].parse().ok()?))
}

/// Calls `f` on each byte offset of `text` outside string literals.
fn outside_strings(text: &str, mut f: impl FnMut(usize) -> usize) {
    let mut i = 0;
    while i < text.len() {
        if text.as_bytes()[i] == b'\'' {
            i = text[i + 1..].find('\'').map_or(text.len(), |e| i + e + 2);
        } else {
            i = f(i);
        }
    }
}

/// Alias-number slots of a fresh spelling: two digits.
const ALIAS_SLOTS: u64 = 100;

/// A spelling of a canonical-named sqlgen text that the L1 memo has
/// almost surely never seen: every alias gets the same random two-letter
/// prefix, and the alias numbers map in order onto random slots 00–99.
/// The aliases keep their relative order, which canonical join
/// orientation depends on, and names stay within 676 × 100: each new
/// name is interned for the life of the process, so unbounded fresh
/// names would grow memory with run length.
pub fn fresh_spelling(text: &str, r: &mut TestRng, out: &mut String) {
    let mut numbers: Vec<u32> = Vec::new();
    outside_strings(text, |i| match alias_at(text, i) {
        Some((end, n)) => {
            numbers.push(n);
            end
        }
        None => i + text[i..].chars().next().map_or(1, char::len_utf8),
    });
    numbers.sort_unstable();
    numbers.dedup();
    let k = numbers.len() as u64;
    assert!(k <= ALIAS_SLOTS, "more aliases than slots");
    // Floyd's sampling of k distinct slots.
    let mut slots: Vec<u64> = Vec::with_capacity(numbers.len());
    for j in ALIAS_SLOTS - k..ALIAS_SLOTS {
        let t = r.below(j + 1);
        slots.push(if slots.contains(&t) { j } else { t });
    }
    slots.sort_unstable();
    let prefix = [b'a' + r.below(26) as u8, b'a' + r.below(26) as u8];
    let prefix = std::str::from_utf8(&prefix).expect("ASCII letters");
    out.clear();
    let mut copied = 0;
    outside_strings(text, |i| match alias_at(text, i) {
        Some((end, n)) => {
            let slot = slots[numbers.binary_search(&n).expect("collected above")];
            out.push_str(&text[copied..i]);
            out.push_str(prefix);
            out.push_str(&format!("{slot:02}"));
            copied = end;
            end
        }
        None => i + text[i..].chars().next().map_or(1, char::len_utf8),
    });
    out.push_str(&text[copied..]);
}

// ---------------------------------------------------------------------
// edit_session
// ---------------------------------------------------------------------

/// One keystroke: replace `del` bytes at `at` with `ins`.
#[derive(Clone, Debug)]
pub struct Key {
    pub at: usize,
    pub del: usize,
    pub ins: String,
}

impl Key {
    pub fn apply(&self, text: &mut String) {
        text.replace_range(self.at..self.at + self.del, &self.ins);
    }
}

pub struct EditSession {
    pub base: String,
    /// A keystroke trace that returns the buffer to `base`.
    pub trace: Vec<Key>,
}

pub struct EditInputs {
    pub sessions: Vec<EditSession>,
    pub dropped: Dropped,
}

/// Base queries: the default grammar without GROUP BY, so text typed at
/// the end always extends the last block's WHERE conjunction.
const EDIT_BASES: GenConfig = GenConfig {
    max_depth: 2,
    max_tables: 2,
    max_preds: 3,
    with_or: true,
    with_union: true,
    with_having: false,
};

/// Byte offsets of `needle` in `text` at parenthesis depth 0.
fn depth0_matches(text: &str, needle: &str) -> Vec<usize> {
    let mut depth = 0i32;
    let mut out = Vec::new();
    for (i, b) in text.bytes().enumerate() {
        match b {
            b'(' => depth += 1,
            b')' => depth -= 1,
            _ if depth == 0 && text[i..].starts_with(needle) => out.push(i),
            _ => {}
        }
    }
    out
}

/// The alias of the first table listed after the FROM at `from`.
fn first_alias(text: &str, from: usize) -> &str {
    let list = &text[from + "FROM ".len()..];
    let mut words = list.split([' ', ',']).filter(|w| !w.is_empty());
    words.next().expect("a table name follows FROM");
    words.next().expect("canonical sqlgen tables are aliased")
}

/// Type `text` at `at` one character per key, then delete it again.
fn type_and_unwind(at: usize, text: &str) -> Vec<Key> {
    let mut keys = Vec::new();
    let mut off = at;
    for ch in text.chars() {
        keys.push(Key {
            at: off,
            del: 0,
            ins: ch.to_string(),
        });
        off += ch.len_utf8();
    }
    for ch in text.chars().rev() {
        off -= ch.len_utf8();
        keys.push(Key {
            at: off,
            del: ch.len_utf8(),
            ins: String::new(),
        });
    }
    keys
}

/// Rename every occurrence of `from` to the same-length `to`, one
/// changed character per key, then rename it back.
fn rename_and_back(text: &str, from: &str, to: &str) -> Vec<Key> {
    let sites: Vec<usize> = text.match_indices(from).map(|(i, _)| i).collect();
    let mut keys = Vec::new();
    for (old, new) in [(from, to), (to, from)] {
        for &site in &sites {
            for (i, (a, b)) in old.bytes().zip(new.bytes()).enumerate() {
                if a != b {
                    keys.push(Key {
                        at: site + i,
                        del: 1,
                        ins: (b as char).to_string(),
                    });
                }
            }
        }
    }
    keys
}

pub fn edit(seed: u64, scale: &Scale) -> EditInputs {
    let mut dropped = Dropped::default();
    // Bases come from the middle half of the length order, four
    // candidates per session: the session layer, not the canonicalization
    // of a few outsized queries, should set this workload's tail.
    let n = scale.edit_sessions;
    let cases = cases_by_length("edit", &EDIT_BASES, 8 * n);
    let drawn: Vec<(GenQuery, Fingerprint)> = cases[2 * n..6 * n]
        .chunks(4)
        .filter_map(|stratum| first_admitted("edit", &EDIT_BASES, stratum, &mut dropped, None))
        .collect();
    let bases = renamed(
        drawn.iter().map(|(query, _)| query.canonical()).collect(),
        "edit-names",
        seed,
    );
    let sessions = bases
        .into_iter()
        .enumerate()
        .map(|(i, base)| {
            let mut r = rng("edit-trace", seed, i as u64);
            let mut trace = Vec::new();
            // Typing appended at the end: a new conjunct of the last block.
            let from = *depth0_matches(&base, "FROM ").last().expect("a FROM");
            let alias = first_alias(&base, from);
            let col = r.below(4);
            let typed = if r.below(2) == 0 {
                format!(" AND {alias}.c{col} = 'k{}'", r.below(26))
            } else {
                format!(" AND {alias}.c{col} > {}", r.below(10_000))
            };
            trace.extend(type_and_unwind(base.len(), &typed));
            // A predicate inserted mid-query, in front of the first
            // block's first conjunct.
            let from = depth0_matches(&base, "FROM ")[0];
            let alias = first_alias(&base, from);
            let at = depth0_matches(&base, "WHERE ")[0] + "WHERE ".len();
            let col = r.below(4);
            let typed = format!("{alias}.c{col} < {} AND ", r.below(10_000));
            trace.extend(type_and_unwind(at, &typed));
            // A same-length rename of the most used table name.
            let table = (0..4)
                .map(|t| format!("Rel{t} "))
                .max_by_key(|t| base.matches(t.as_str()).count())
                .expect("four table names");
            trace.extend(rename_and_back(
                &base,
                &table,
                &table.replacen("Rel", "Tab", 1),
            ));
            EditSession { base, trace }
        })
        .collect();
    EditInputs { sessions, dropped }
}

/// An edit op line as a front end receives it.
pub fn edit_line(id: u64, session: u64, key: &Key, out: &mut String) {
    out.clear();
    out.push_str("{\"op\":\"edit\",\"id\":");
    json::write_u64(out, id);
    out.push_str(",\"session\":");
    json::write_u64(out, session);
    out.push_str(",\"edits\":[{\"at\":");
    json::write_u64(out, key.at as u64);
    out.push_str(",\"del\":");
    json::write_u64(out, key.del as u64);
    out.push_str(",\"ins\":");
    json::escape_into(out, &key.ins);
    out.push_str("}]}");
}

pub fn open_line(id: u64, sql: &str) -> String {
    let mut line = String::from("{\"op\":\"open\",\"id\":");
    json::write_u64(&mut line, id);
    line.push_str(",\"sql\":");
    json::escape_into(&mut line, sql);
    line.push('}');
    line
}

// ---------------------------------------------------------------------
// core.constant_split_queries
// ---------------------------------------------------------------------

/// Rewrite every numeric literal of a canonical sqlgen text (a digit run
/// that starts a token) to a fresh value.
fn rewrite_numbers(text: &str, r: &mut TestRng) -> String {
    let bytes = text.as_bytes();
    let mut out = String::with_capacity(text.len() + 8);
    let mut i = 0;
    while i < bytes.len() {
        let starts_token = i == 0 || matches!(bytes[i - 1], b' ' | b'(');
        if bytes[i].is_ascii_digit() && starts_token {
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            out.push_str(&r.below(10_000).to_string());
        } else {
            let len = text[i..].chars().next().map_or(1, char::len_utf8);
            out.push_str(&text[i..i + len]);
            i += len;
        }
    }
    out
}

/// The fixed side set: 500 default-grammar queries on each of seeds 1–3,
/// each rewritten 8 times in its numeric literals only. Returns (queries
/// checked, queries that got a second fingerprint, rewrites refused).
pub fn constant_splits() -> (usize, usize, usize) {
    const SEEDS: [u64; 3] = [1, 2, 3];
    const PER_SEED: u64 = 500;
    const REWRITES: u64 = 8;
    let (mut checked, mut split, mut refused) = (0, 0, 0);
    for seed in SEEDS {
        for case in 0..PER_SEED {
            let query = gen_query(&GenConfig::default(), &mut rng("constants", seed, case));
            let canonical = query.canonical();
            let Ok(fingerprint) = admit(&canonical) else {
                continue;
            };
            checked += 1;
            let mut r = rng("constants-rewrite", seed, case);
            let mut splits = false;
            for _ in 0..REWRITES {
                match admit(&rewrite_numbers(&canonical, &mut r)) {
                    Ok(fp) => splits |= fp != fingerprint,
                    Err(_) => refused += 1,
                }
            }
            split += usize::from(splits);
        }
    }
    (checked, split, refused)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_spellings_rename_aliases_in_order() {
        let text = "SELECT t03.c1 FROM Rel1 t03, Rel2 t10 WHERE t03.c1 = 't10' AND t10.c0 > 7";
        let mut r = rng("t", 0, 0);
        let mut out = String::new();
        fresh_spelling(text, &mut r, &mut out);
        let renamed = |w: &&str| {
            w.len() == 4
                && w.bytes().take(2).all(|b| b.is_ascii_lowercase())
                && w.bytes().skip(2).all(|b| b.is_ascii_digit())
        };
        let names: Vec<&str> = out
            .split(|c: char| !c.is_ascii_alphanumeric())
            .filter(renamed)
            .collect();
        let (a, b) = (names[0], names[2]);
        assert_eq!(names, [a, a, b, a, b], "{out}");
        assert_eq!(a[..2], b[..2], "one prefix for every alias: {out}");
        assert!(a < b, "alias order kept: {out}");
        assert!(
            out.contains("= 't10' AND"),
            "string literals untouched: {out}"
        );
    }

    #[test]
    fn fresh_spellings_keep_the_fingerprint() {
        let inputs = serve(9, &FULL);
        let mut r = fresh_rng(9, 0);
        let mut out = String::new();
        for p in inputs.patterns.iter().take(40) {
            for base in &p.fresh_bases {
                fresh_spelling(base, &mut r, &mut out);
                assert_eq!(admit(&out).ok(), Some(p.fingerprint), "{out}");
            }
            for spelling in &p.popular {
                assert_eq!(admit(spelling).ok(), Some(p.fingerprint), "{spelling}");
            }
        }
    }

    #[test]
    fn number_rewrites_touch_only_literals() {
        let mut r = rng("t", 0, 0);
        let text = "SELECT t00.c1 FROM Rel1 t00 WHERE t00.c1 < 3955 AND (t00.c0 = 'k25')";
        let out = rewrite_numbers(text, &mut r);
        assert!(out.starts_with("SELECT t00.c1 FROM Rel1 t00 WHERE t00.c1 < "));
        assert!(out.ends_with(" AND (t00.c0 = 'k25')"));
    }

    #[test]
    fn wide_from_lists_are_detected() {
        assert!(has_wide_from(
            "SELECT t00.c0 FROM Rel1 t00, Rel2 t01, Rel0 t02 WHERE t00.c0 = t01.c1"
        ));
        assert!(!has_wide_from(
            "SELECT t00.c0, COUNT(*) FROM Rel1 t00, Rel2 t01 WHERE t00.c0 = t01.c1"
        ));
    }

    #[test]
    fn traces_return_to_their_base() {
        let inputs = edit(5, &FULL);
        for session in &inputs.sessions {
            let mut text = session.base.clone();
            for key in &session.trace {
                key.apply(&mut text);
            }
            assert_eq!(text, session.base);
            assert!(!session.trace.is_empty());
        }
    }
}
