//! Word-at-a-time (SWAR) byte scanning.
//!
//! The lexer spends most of its time in four loops: skipping whitespace
//! runs, consuming identifier runs (`[A-Za-z0-9_]`), consuming digit
//! runs, and hunting for a delimiter byte (`\n`, `'`, `*`, `/`). This
//! module replaces the byte-at-a-time versions with SIMD-friendly 8-lane
//! scans over a `u64` register — no intrinsics, so the same code
//! vectorizes on every target the toolchain supports and degrades to
//! plain scalar code nowhere worse than the original loop.
//!
//! ## The lane formulas
//!
//! All masks put their verdict in the MSB of each lane (`0x80` = true).
//! The classic `hasless` trick (`(x - ONES*n) & !x & MSB`) is **not**
//! used: its subtraction borrows across lanes, so a byte can corrupt its
//! neighbor's verdict. Instead each comparison runs entirely inside the
//! low 7 bits, where addition cannot carry out of the lane:
//!
//! ```text
//! lt(x, n)   (1 ≤ n ≤ 128):
//!     !((x & 0x7f…) + splat(128 - n)) & !x & 0x80…
//! ```
//!
//! Per lane with value `b = m·128 + v` (`m` the MSB, `v` the low 7
//! bits): `v + (128 - n)` sets bit 7 iff `v ≥ n`, and the sum is at most
//! `127 + 127 < 256`, so no lane overflows into the next. Negating gives
//! "`v < n`", and `& !x` clears lanes whose own MSB was set — a byte
//! `≥ 0x80` is correctly "not less" for any `n ≤ 128`. Equality is
//! `lt(x ^ splat(c), 1)` (XOR zeroes exactly the matching lanes), and
//! ranges with `hi ≤ 127` compose as `lt(x, hi+1) & !lt(x, lo)`.
//!
//! Letters fold case first (`x | 0x20…`) and then range-check
//! `['a','z']`. The fold is exact: the only bytes whose fold lands in
//! `['a','z']` are the letters themselves (a byte with bit 5 clear folds
//! from `['A','Z']`, one with bit 5 set was already in `['a','z']`, and
//! bytes `≥ 0x80` keep their MSB, which the range check rejects).
//!
//! Lane order: words are read with `from_le_bytes`, which by definition
//! places slice byte `j` at bits `8j..8j+8` regardless of host
//! endianness — so `trailing_zeros() / 8` of a verdict mask is always
//! the index of the first matching byte.
//!
//! Tails shorter than 8 bytes load zero-padded; `0x00` fails every run
//! predicate here, so padding can only *stop* a run (the index is then
//! clamped to the slice length), and `find_byte*` double-checks that a
//! hit landed inside the slice before trusting it.

const ONES: u64 = 0x0101_0101_0101_0101;
const MSB: u64 = 0x8080_8080_8080_8080;
const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
const LANES: usize = 8;

#[inline(always)]
const fn splat(b: u8) -> u64 {
    ONES.wrapping_mul(b as u64)
}

/// MSB-per-lane mask of bytes strictly less than `N` (`1 ≤ N ≤ 128`).
#[inline(always)]
const fn lt<const N: u8>(x: u64) -> u64 {
    !((x & LOW7).wrapping_add(splat(128 - N))) & !x & MSB
}

/// MSB-per-lane mask of bytes equal to `B`.
#[inline(always)]
const fn eq<const B: u8>(x: u64) -> u64 {
    lt::<1>(x ^ splat(B))
}

/// MSB-per-lane mask of identifier bytes, exactly `[A-Za-z0-9_]`.
#[inline(always)]
fn ident_mask(x: u64) -> u64 {
    let folded = x | splat(0x20);
    let letter = lt::<{ b'z' + 1 }>(folded) & !lt::<b'a'>(folded);
    let digit = lt::<{ b'9' + 1 }>(x) & !lt::<b'0'>(x);
    (letter | digit | eq::<b'_'>(x)) & MSB
}

/// MSB-per-lane mask of decimal digits.
#[inline(always)]
fn digit_mask(x: u64) -> u64 {
    lt::<{ b'9' + 1 }>(x) & !lt::<b'0'>(x) & MSB
}

/// MSB-per-lane mask of SQL whitespace (space, tab, CR, LF). Explicit
/// equalities — *not* `lt(0x21)` — because control characters are lex
/// errors and must terminate the run, not be skipped.
#[inline(always)]
fn ws_mask(x: u64) -> u64 {
    eq::<b' '>(x) | eq::<b'\t'>(x) | eq::<b'\r'>(x) | eq::<b'\n'>(x)
}

/// Load 8 bytes at `i`, zero-padding past the end of the slice.
#[inline(always)]
fn load(bytes: &[u8], i: usize) -> u64 {
    let rest = &bytes[i.min(bytes.len())..];
    if rest.len() >= LANES {
        u64::from_le_bytes(rest[..LANES].try_into().expect("8-byte slice"))
    } else {
        let mut buf = [0u8; LANES];
        buf[..rest.len()].copy_from_slice(rest);
        u64::from_le_bytes(buf)
    }
}

#[inline(always)]
fn run_end(bytes: &[u8], start: usize, classify: impl Fn(u64) -> u64) -> usize {
    let mut i = start;
    loop {
        let stop = !classify(load(bytes, i)) & MSB;
        if stop != 0 {
            // Zero padding fails every predicate, so a stop inside the
            // padding clamps to the slice end.
            return (i + stop.trailing_zeros() as usize / LANES).min(bytes.len());
        }
        i += LANES;
    }
}

/// End of the whitespace run starting at `start` (space/tab/CR/LF only).
#[inline]
pub fn ws_run_end(bytes: &[u8], start: usize) -> usize {
    run_end(bytes, start, ws_mask)
}

/// End of the identifier run starting at `start` (`[A-Za-z0-9_]`).
#[inline]
pub fn ident_run_end(bytes: &[u8], start: usize) -> usize {
    run_end(bytes, start, ident_mask)
}

/// End of the digit run starting at `start`.
#[inline]
pub fn digit_run_end(bytes: &[u8], start: usize) -> usize {
    run_end(bytes, start, digit_mask)
}

/// First occurrence of `needle` at or after `start` (memchr).
#[inline]
pub fn find_byte(bytes: &[u8], start: usize, needle: u8) -> Option<usize> {
    find_with(bytes, start, |x| match needle {
        // Monomorphized dispatch for the needles the lexer uses keeps the
        // comparison constant-folded; the fallback handles the rest.
        b'\n' => eq::<b'\n'>(x),
        b'\'' => eq::<b'\''>(x),
        _ => lt::<1>(x ^ splat(needle)),
    })
}

/// First occurrence of `a` *or* `b` at or after `start`.
#[inline]
pub fn find_byte2(bytes: &[u8], start: usize, a: u8, b: u8) -> Option<usize> {
    find_with(bytes, start, |x| {
        lt::<1>(x ^ splat(a)) | lt::<1>(x ^ splat(b))
    })
}

#[inline(always)]
fn find_with(bytes: &[u8], start: usize, classify: impl Fn(u64) -> u64) -> Option<usize> {
    let mut i = start;
    while i < bytes.len() {
        let hit = classify(load(bytes, i));
        if hit != 0 {
            let at = i + hit.trailing_zeros() as usize / LANES;
            // A hit in the zero padding (only possible for needle 0) is
            // not a hit in the slice.
            return (at < bytes.len()).then_some(at);
        }
        i += LANES;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_ident(b: u8) -> bool {
        b.is_ascii_alphanumeric() || b == b'_'
    }

    fn naive_ws(b: u8) -> bool {
        matches!(b, b' ' | b'\t' | b'\r' | b'\n')
    }

    /// Tiny deterministic generator — no external rand dependency here.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    #[test]
    fn lane_masks_agree_with_scalar_predicates_for_every_byte() {
        for b in 0..=255u8 {
            let x = splat(b);
            assert_eq!(
                ident_mask(x) != 0,
                naive_ident(b),
                "ident_mask disagrees at byte {b:#04x}"
            );
            assert_eq!(
                digit_mask(x) != 0,
                b.is_ascii_digit(),
                "digit_mask disagrees at byte {b:#04x}"
            );
            assert_eq!(
                ws_mask(x) != 0,
                naive_ws(b),
                "ws_mask disagrees at byte {b:#04x}"
            );
            // A splatted lane verdict must also be all-lanes, not partial.
            for mask in [ident_mask(x), digit_mask(x), ws_mask(x)] {
                assert!(mask == 0 || mask == MSB, "partial verdict for {b:#04x}");
            }
        }
    }

    #[test]
    fn neighbor_lanes_never_corrupt_a_verdict() {
        // Every (left, right) byte pair, checked in adjacent lanes — this
        // is the test the borrowing `hasless` formula fails.
        for hot in [
            0u8, 1, b'0', b'9', b'A', b'Z', b'_', b'a', b'z', 0x7f, 0x80, 0xff,
        ] {
            for other in 0..=255u8 {
                let mut buf = [other; 8];
                buf[3] = hot;
                let x = u64::from_le_bytes(buf);
                let lane = |mask: u64| mask >> (8 * 3 + 7) & 1 == 1;
                assert_eq!(
                    lane(ident_mask(x)),
                    naive_ident(hot),
                    "{hot:#04x}/{other:#04x}"
                );
                assert_eq!(
                    lane(digit_mask(x)),
                    hot.is_ascii_digit(),
                    "{hot:#04x}/{other:#04x}"
                );
                assert_eq!(lane(ws_mask(x)), naive_ws(hot), "{hot:#04x}/{other:#04x}");
            }
        }
    }

    #[test]
    fn run_ends_match_naive_scans_on_random_bytes() {
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        for round in 0..2000 {
            let len = (rng.next() % 40) as usize;
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    // Bias toward interesting classes so runs actually form.
                    match rng.next() % 6 {
                        0 => b' ',
                        1 => b'a' + (rng.next() % 26) as u8,
                        2 => b'0' + (rng.next() % 10) as u8,
                        3 => b'_',
                        4 => b'\n',
                        _ => (rng.next() % 256) as u8,
                    }
                })
                .collect();
            let start = (rng.next() as usize) % (len + 1);
            let naive_end = |pred: &dyn Fn(u8) -> bool| {
                let mut j = start;
                while j < bytes.len() && pred(bytes[j]) {
                    j += 1;
                }
                j
            };
            assert_eq!(
                ident_run_end(&bytes, start),
                naive_end(&naive_ident),
                "round {round} bytes {bytes:?} start {start}"
            );
            assert_eq!(ws_run_end(&bytes, start), naive_end(&naive_ws));
            assert_eq!(
                digit_run_end(&bytes, start),
                naive_end(&|b: u8| b.is_ascii_digit())
            );
        }
    }

    #[test]
    fn find_byte_matches_naive_search() {
        let mut rng = XorShift(0xdead_beef_cafe_f00d);
        for _ in 0..2000 {
            let len = (rng.next() % 40) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| (rng.next() % 8) as u8 + b'a').collect();
            let start = (rng.next() as usize) % (len + 1);
            let needle = (rng.next() % 10) as u8 + b'a'; // sometimes absent
            let expect = bytes[start..]
                .iter()
                .position(|&b| b == needle)
                .map(|p| p + start);
            assert_eq!(find_byte(&bytes, start, needle), expect);
            let (a, b) = (needle, (rng.next() % 10) as u8 + b'a');
            let expect2 = bytes[start..]
                .iter()
                .position(|&x| x == a || x == b)
                .map(|p| p + start);
            assert_eq!(find_byte2(&bytes, start, a, b), expect2);
        }
    }

    #[test]
    fn zero_padding_is_never_a_false_hit() {
        // Needle 0 can match the tail padding; the index check rejects it.
        assert_eq!(find_byte(b"abc", 0, 0), None);
        assert_eq!(find_byte2(b"abc", 0, 0, 0), None);
        assert_eq!(find_byte(b"ab\0c", 0, 0), Some(2));
        // Runs that reach the end clamp to the length.
        assert_eq!(ident_run_end(b"abc", 0), 3);
        assert_eq!(ws_run_end(b"   ", 1), 3);
        assert_eq!(digit_run_end(b"12", 0), 2);
        assert_eq!(ident_run_end(b"", 0), 0);
        assert_eq!(find_byte(b"", 0, b'x'), None);
    }

    #[test]
    fn delimiters_the_lexer_hunts_for() {
        let src = b"SELECT a -- comment\nFROM t /* x */ WHERE s = 'it''s'";
        assert_eq!(find_byte(src, 0, b'\n'), Some(19));
        assert_eq!(find_byte2(src, 28, b'*', b'/'), Some(28));
        assert_eq!(find_byte2(src, 29, b'*', b'/'), Some(32));
        assert_eq!(find_byte(src, 46, b'\''), Some(48));
    }
}
