//! Decimal writers for scene geometry: the bytes `core::fmt` prints for
//! `{}`, `{:.1}` and `{:.0}` of an `f64`, without going through it.
//!
//! Every backend that prints [`Scene`](crate::Scene) coordinates (SVG
//! attributes, scene_json, scene patches) writes hundreds of numbers per
//! diagram, and the formatting machinery was the largest cost of each. The
//! contract is byte identity with `core::fmt`, so each writer has a fast
//! path only where its result is provably the same, and hands every other
//! value to `core::fmt`:
//!
//! - **Fast domain.** Non-negative values below `FAST_LIMIT` (which
//!   excludes −0.0, NaN and ±∞). Layout coordinates live here.
//! - **`{:.1}` / `{:.0}`.** `core::fmt` rounds the *exact* binary value to
//!   the requested digit, ties to even. The writer rounds the floating
//!   product `y = v × 10` (or `v` itself) instead. Below the limit, `y`
//!   lies within half an ulp of the exact product, and every half-integer
//!   `n + ½` near `y` is itself a multiple of that ulp. So whenever `y`'s
//!   fraction is not exactly one half, the exact product lies on the same
//!   side of `n + ½` as `y`, and rounding `y` is rounding the exact value.
//!   A fraction of exactly one half is a tie or a near-tie (`0.35 × 10`
//!   rounds to `3.5`, but `{:.1}` of 0.35 is `0.3`); those fall back.
//! - **`{}`.** `core::fmt` prints the shortest decimal that parses back to
//!   the value. An integer prints as itself. Otherwise, if `t / 10^d`
//!   parses back (checked with one correctly rounded division, which is
//!   what parsing does) for `d` = 1 or 2 and `t` the nearest integer to
//!   `v × 10^d`, that is the shortest form: no shorter decimal is an
//!   integer, and below the limit no two `d`-digit decimals share a value.
//!   Longer forms (`…39999999999998`) fall back.
//!
//! A fast path writes its digits two at a time from a `00`–`99` pair
//! table, into a stack buffer, and pushes them as chars after one
//! reserve: it never re-validates its own ASCII output as UTF-8. Mark-id
//! path hashing reads the same digits as bytes.

use std::fmt::Write;

/// Upper bound (exclusive) of the fast domain. Below it, `v × 100` stays
/// far under 2^52, so every half-integer near it is representable.
const FAST_LIMIT: f64 = 1e7;

/// Append `value` exactly as `format!("{value}")` prints it.
pub fn write_shortest(out: &mut String, value: f64) {
    if in_fast_domain(value) {
        let whole = value as u64;
        if whole as f64 == value {
            return write_fixed(out, whole, 0);
        }
        for (decimals, scale) in [(1, 10.0), (2, 100.0)] {
            let scaled = (value * scale + 0.5) as u64;
            if scaled as f64 / scale == value {
                return write_fixed(out, scaled, decimals);
            }
        }
    }
    let _ = write!(out, "{value}");
}

/// Append `value` exactly as `format!("{value:.1}")` prints it.
pub fn write_tenths(out: &mut String, value: f64) {
    match round_scaled(value, 10.0) {
        Some(tenths) => write_fixed(out, tenths, 1),
        None => {
            let _ = write!(out, "{value:.1}");
        }
    }
}

/// Append `value` exactly as `format!("{value:.0}")` prints it.
pub fn write_whole(out: &mut String, value: f64) {
    match round_scaled(value, 1.0) {
        Some(whole) => write_fixed(out, whole, 0),
        None => {
            let _ = write!(out, "{value:.0}");
        }
    }
}

fn in_fast_domain(value: f64) -> bool {
    !value.is_sign_negative() && value < FAST_LIMIT
}

/// `value × scale` rounded to an integer the way `core::fmt` rounds the
/// exact product, or `None` when that cannot be decided from the floating
/// product (see the module docs): outside the fast domain, or when the
/// product's fraction is exactly one half.
fn round_scaled(value: f64, scale: f64) -> Option<u64> {
    if !in_fast_domain(value) {
        return None;
    }
    let scaled = value * scale;
    let floor = scaled as u64;
    // Exact: `floor` and `scaled` are within a factor of two of each
    // other (Sterbenz), or `floor` is zero.
    let fraction = scaled - floor as f64;
    if fraction == 0.5 {
        return None;
    }
    Some(floor + u64::from(fraction > 0.5))
}

/// Write `scaled / 10^decimals` with exactly `decimals` fractional digits.
fn write_fixed(out: &mut String, scaled: u64, decimals: usize) {
    let mut buf = [0; 24];
    let digits = fixed_digits(&mut buf, scaled, decimals);
    out.extend(digits.iter().map(|&digit| char::from(digit)));
}

/// `00`, `01`, …, `99`: the two ASCII digits of `n < 100` at `2n`.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Put the two digits of `n < 100` just before `buf[*at]`.
fn put_pair(buf: &mut [u8; 24], at: &mut usize, n: u64) {
    let pair = n as usize * 2;
    *at -= 2;
    buf[*at..*at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
}

/// `scaled / 10^decimals` with exactly `decimals` fractional digits, as
/// ASCII bytes formatted into the end of `buf`, two digits per step.
pub(crate) fn fixed_digits(buf: &mut [u8; 24], mut scaled: u64, decimals: usize) -> &[u8] {
    let mut at = buf.len();
    for _ in 0..decimals / 2 {
        put_pair(buf, &mut at, scaled % 100);
        scaled /= 100;
    }
    if decimals % 2 == 1 {
        at -= 1;
        buf[at] = b'0' + (scaled % 10) as u8;
        scaled /= 10;
    }
    if decimals > 0 {
        at -= 1;
        buf[at] = b'.';
    }
    while scaled >= 100 {
        put_pair(buf, &mut at, scaled % 100);
        scaled /= 100;
    }
    if scaled >= 10 {
        put_pair(buf, &mut at, scaled);
    } else {
        at -= 1;
        buf[at] = b'0' + scaled as u8;
    }
    &buf[at..]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Check all three writers against `core::fmt` for one value.
    fn check(value: f64) {
        let mut out = String::new();
        write_shortest(&mut out, value);
        assert_eq!(
            out,
            format!("{value}"),
            "{{}} of {value:e} ({:#x})",
            value.to_bits()
        );
        out.clear();
        write_tenths(&mut out, value);
        assert_eq!(
            out,
            format!("{value:.1}"),
            "{{:.1}} of {value:e} ({:#x})",
            value.to_bits()
        );
        out.clear();
        write_whole(&mut out, value);
        assert_eq!(
            out,
            format!("{value:.0}"),
            "{{:.0}} of {value:e} ({:#x})",
            value.to_bits()
        );
    }

    /// `value` and its neighbours up to three ulps away on either side.
    fn check_with_neighbours(value: f64) {
        check(value);
        let bits = value.to_bits();
        for ulps in 1..=3 {
            check(f64::from_bits(bits + ulps));
            if bits >= ulps {
                check(f64::from_bits(bits - ulps));
            }
        }
    }

    /// SplitMix64, seeded: a fixed sample without a dependency.
    fn sample(seed: u64, n: usize) -> impl Iterator<Item = u64> {
        let mut state = seed;
        (0..n).map(move |_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
    }

    fn unit(bits: u64) -> f64 {
        (bits >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn ties_round_to_even_like_core_fmt() {
        let tenths = |v: f64| {
            let mut out = String::new();
            write_tenths(&mut out, v);
            out
        };
        let whole = |v: f64| {
            let mut out = String::new();
            write_whole(&mut out, v);
            out
        };
        assert_eq!(tenths(0.25), "0.2");
        assert_eq!(tenths(0.75), "0.8");
        assert_eq!(tenths(0.35), "0.3");
        assert_eq!(whole(0.5), "0");
        assert_eq!(whole(1.5), "2");
        assert_eq!(whole(2.5), "2");
    }

    #[test]
    fn seeded_sample_matches_core_fmt() {
        for bits in sample(1, 100_000) {
            check(unit(bits) * FAST_LIMIT);
        }
        // Layout-sized values, where most coordinates live.
        for bits in sample(2, 100_000) {
            check(unit(bits) * 2000.0);
        }
        // Hundredths, the longest form the `{}` fast path prints.
        for bits in sample(3, 100_000) {
            check((bits % 1_000_000_000) as f64 / 100.0);
        }
    }

    /// Twentieths, and each power-of-ten boundary the pair table crosses
    /// below the limit, where a value gains a digit: `10^k − 1`, `10^k`
    /// and `10^k + 1`, whole and as tenths and hundredths.
    #[test]
    fn twentieths_and_their_neighbours_match_core_fmt() {
        for k in 0..200_000u32 {
            check_with_neighbours(f64::from(k) / 20.0);
        }
        for k in 0..=7 {
            let power = 10f64.powi(k);
            for whole in [power - 1.0, power, power + 1.0] {
                for divisor in [1.0, 10.0, 100.0] {
                    check_with_neighbours(whole / divisor);
                }
            }
        }
    }

    #[test]
    fn values_outside_the_fast_domain_match_core_fmt() {
        for value in [
            0.0,
            -0.0,
            -0.25,
            -1.0,
            -2.5,
            -123.456,
            -1e7,
            f64::MIN,
            FAST_LIMIT,
            1e7 + 0.5,
            123_456_789.125,
            1e15 + 0.3,
            2f64.powi(52) + 0.5,
            2f64.powi(53),
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            check_with_neighbours(value);
        }
        for bits in sample(4, 20_000) {
            // Anything at all: random bit patterns, every sign and exponent.
            check(f64::from_bits(bits));
        }
    }
}
