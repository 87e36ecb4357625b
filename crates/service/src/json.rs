//! A minimal JSON reader/writer for the JSON-lines protocol.
//!
//! The workspace builds without crates.io access, so the service carries its
//! own ~200-line JSON implementation instead of serde. It supports the full
//! JSON grammar the protocol needs: objects, arrays, strings (with escapes
//! and `\uXXXX`, including surrogate pairs), numbers, booleans, and null.
//! The reader takes RFC 8259's grammar exactly: a number such as `01`,
//! `+1` or `.5`, or a `\u` escape that is not four hex digits, is an
//! error, so a request line carrying one is a `bad_request`.
//!
//! The writer's [`escape_into`] is not a per-reply loop over artifact
//! text: a cache entry stores each artifact as the JSON string literal
//! replies copy, written in that form by its scene writer (svg, ascii,
//! scene_json) or escaped once (dot, reading). [`escape_into`] is quotes
//! around the layout crate's [`escape_json`], the one JSON escape loop.

use queryvis::layout::{escape_json, lit, Carrier};
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A non-negative integer that fits `u64`, kept exact (ids can exceed
    /// the 2^53 range where `f64` loses integer precision).
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered, so serialization is deterministic.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer. Non-negative integer
    /// literals parse into [`Json::Int`] and stay exact up to `u64::MAX`;
    /// a float is accepted only while exactly representable (below 2^53),
    /// since silently returning a rounded id would break the protocol's
    /// request/response matching contract.
    pub fn as_u64(&self) -> Option<u64> {
        const MAX_EXACT: f64 = 9_007_199_254_740_991.0; // 2^53 − 1
        match self {
            Json::Int(n) => Some(*n),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_EXACT => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// A parse failure with a byte offset into the input line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Maximum container nesting the parser accepts. The protocol needs depth
/// 3; the bound exists so a hostile input line degrades into a per-line
/// error response instead of a recursion-driven stack overflow that takes
/// the whole service down.
const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters after JSON value"));
    }
    Ok(value)
}

fn err(offset: usize, message: &str) -> JsonError {
    JsonError {
        offset,
        message: message.to_string(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, &format!("expected `{}`", byte as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    if depth > MAX_DEPTH {
        return Err(err(*pos, "nesting deeper than 128 levels"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(err(*pos, &format!("expected `{literal}`")))
    }
}

/// Scan the run of number characters at `pos` and accept it only in RFC
/// 8259's form, `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`. Rust's
/// own parsers are laxer (`+1`, `01`, `.5` and `1.` all parse), so the
/// grammar is checked here first.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = &bytes[start..*pos];
    if !is_json_number(text) {
        return Err(err(start, "malformed number"));
    }
    let text = std::str::from_utf8(text).expect("ascii digits");
    // Plain non-negative integer literals stay exact as u64; everything
    // else (sign, fraction, exponent, overflow) goes through f64.
    if text.bytes().all(|b| b.is_ascii_digit()) {
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::Int(n));
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err(start, "malformed number"))
}

fn is_json_number(text: &[u8]) -> bool {
    let mut i = usize::from(text.first() == Some(&b'-'));
    let digits = |i: &mut usize| {
        let from = *i;
        while text.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        *i > from
    };
    match text.get(i) {
        Some(b'0') => i += 1,
        Some(b'1'..=b'9') => {
            digits(&mut i);
        }
        _ => return false,
    }
    if text.get(i) == Some(&b'.') {
        i += 1;
        if !digits(&mut i) {
            return false;
        }
    }
    if matches!(text.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(text.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        if !digits(&mut i) {
            return false;
        }
    }
    i == text.len()
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let escape = *bytes
                    .get(*pos)
                    .ok_or_else(|| err(*pos, "dangling escape"))?;
                *pos += 1;
                match escape {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let unit = parse_hex4(bytes, pos)?;
                        let ch = if (0xD800..0xDC00).contains(&unit) {
                            // High surrogate: a `\uXXXX` low surrogate must follow.
                            if bytes.get(*pos) == Some(&b'\\') && bytes.get(*pos + 1) == Some(&b'u')
                            {
                                *pos += 2;
                                let low = parse_hex4(bytes, pos)?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(err(*pos, "invalid low surrogate"));
                                }
                                let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| err(*pos, "invalid surrogate pair"))?
                            } else {
                                return Err(err(*pos, "lone high surrogate"));
                            }
                        } else if (0xDC00..0xE000).contains(&unit) {
                            return Err(err(*pos, "lone low surrogate"));
                        } else {
                            char::from_u32(unit).ok_or_else(|| err(*pos, "invalid codepoint"))?
                        };
                        out.push(ch);
                    }
                    other => {
                        return Err(err(*pos, &format!("unknown escape `\\{}`", other as char)))
                    }
                }
            }
            Some(&b) if b < 0x20 => return Err(err(*pos, "raw control character in string")),
            Some(_) => {
                // Copy the whole unescaped run at once (the delimiters `"`,
                // backslash, and control bytes are ASCII, so a run boundary
                // is always a UTF-8 character boundary). One validation per
                // run keeps parsing O(n) on large strings.
                let run_start = *pos;
                while *pos < bytes.len()
                    && bytes[*pos] != b'"'
                    && bytes[*pos] != b'\\'
                    && bytes[*pos] >= 0x20
                {
                    *pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&bytes[run_start..*pos])
                        .map_err(|_| err(run_start, "invalid UTF-8"))?,
                );
            }
        }
    }
}

/// Exactly four ASCII hex digits (`u32::from_str_radix` would also take
/// a sign, reading `\u+041` as `A`).
fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
    let digits = bytes
        .get(*pos..*pos + 4)
        .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
    let mut unit = 0;
    for &b in digits {
        let digit = char::from(b)
            .to_digit(16)
            .ok_or_else(|| err(*pos, "malformed \\u escape"))?;
        unit = unit * 16 + digit;
    }
    *pos += 4;
    Ok(unit)
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected `,` or `]` in array")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth + 1)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(err(*pos, "expected `,` or `}` in object")),
        }
    }
}

/// Write a string as a quoted JSON value into `out`, in `out`'s form:
/// quotes around [`escape_json`], the one JSON escape loop.
///
/// Public because `Response::write_json_line` (for the short raw fields)
/// and the scene_json writer (for names and labels) both write into a
/// caller buffer without building a [`Json`] tree. Into a `String` this
/// is the string's JSON literal; into a
/// [`JsonEscaped`](queryvis::layout::JsonEscaped) carrier it is that
/// literal escaped once more, as it sits inside a stored scene_json
/// artifact.
pub fn escape_into<C: Carrier>(out: &mut C, s: &str) {
    out.lit(lit!("\""));
    escape_json(out, s);
    out.lit(lit!("\""));
}

/// Write a decimal `u64` into `out` without allocating.
pub fn write_u64(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ascii digits"));
}

impl fmt::Display for Json {
    /// Compact single-line serialization (safe for JSON-lines framing:
    /// newlines inside strings are escaped).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

impl Json {
    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => write_u64(out, *n),
            Json::Num(n) => {
                if !n.is_finite() {
                    // JSON has no NaN/Infinity literal; `format!` would
                    // emit `inf`/`NaN` and corrupt the document.
                    out.push_str("null");
                } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Str(s) => escape_into(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use queryvis::layout::JsonEscaped;

    #[test]
    fn roundtrip_request_shape() {
        let line = r#"{"id": 3, "sql": "SELECT \"x\" FROM T", "formats": ["ascii", "svg"]}"#;
        let value = parse(line).unwrap();
        assert_eq!(value.get("id").unwrap().as_u64(), Some(3));
        assert_eq!(
            value.get("sql").unwrap().as_str(),
            Some("SELECT \"x\" FROM T")
        );
        assert_eq!(value.get("formats").unwrap().as_arr().unwrap().len(), 2);
        // Serialize → parse → identical tree.
        assert_eq!(parse(&value.to_string()).unwrap(), value);
    }

    /// `escape_into` is quotes around the carrier's text escape, for every
    /// ASCII byte and a multi-byte string: into a `String` it writes `"`,
    /// what the escaped carrier's `text` writes, `"`, and that parses back;
    /// into the escaped carrier it writes the escape of that literal.
    #[test]
    fn escape_into_is_quotes_around_the_carrier_text_escape() {
        let texts = (0u8..0x80)
            .map(|byte| char::from(byte).to_string())
            .chain(["Žatec ∄ 😀 \"q\" \\ \u{1}".to_string()]);
        for text in texts {
            let mut quoted = String::new();
            escape_into(&mut quoted, &text);
            let mut body = JsonEscaped::default();
            body.text(&text);
            assert_eq!(quoted, format!("\"{}\"", body.0), "{text:?}");
            assert_eq!(parse(&quoted), Ok(Json::Str(text.clone())));
            let mut nested = JsonEscaped::default();
            escape_into(&mut nested, &text);
            let mut twice = String::new();
            escape_json(&mut twice, &quoted);
            assert_eq!(nested.0, twice, "{text:?}");
        }
    }

    #[test]
    fn escapes_and_unicode() {
        let value = parse(r#""a\n\tA😀b""#).unwrap();
        assert_eq!(value.as_str(), Some("a\n\tA😀b"));
        let reser = value.to_string();
        assert!(!reser.contains('\n'), "newline must stay escaped: {reser}");
        assert_eq!(parse(&reser).unwrap(), value);
    }

    #[test]
    fn numbers() {
        assert_eq!(parse("42").unwrap(), Json::Int(42));
        assert_eq!(parse("-3.5e2").unwrap(), Json::Num(-350.0));
        assert_eq!(Json::Int(42).to_string(), "42");
        assert_eq!(Json::Num(42.0).to_string(), "42");
        assert_eq!(
            parse(&Json::Num(0.25).to_string()).unwrap(),
            Json::Num(0.25)
        );
    }

    #[test]
    fn non_finite_floats_serialize_as_null_and_round_trip() {
        // `format!("{n}")` renders `inf`/`NaN`, which are not JSON: the
        // serialized document would fail to parse. Non-finite must map to
        // `null`.
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let doc = Json::Obj(vec![("v".to_string(), Json::Num(bad))]).to_string();
            assert_eq!(doc, r#"{"v":null}"#);
            assert!(
                parse(&doc).is_ok(),
                "serializer emitted invalid JSON: {doc}"
            );
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("\"\u{1}\"").is_err());
        // Numbers and `\u` escapes RFC 8259 forbids, which Rust's own
        // parsers accept.
        for bad in ["+1", "01", "00", "-01", ".5", "1.", "-.5", r#""\u+041""#] {
            assert!(parse(bad).is_err(), "{bad} parsed");
        }
        assert!(parse(r#"{"id":01,"sql":"SELECT T.a FROM T"}"#).is_err());
        assert_eq!(parse("-0").unwrap(), Json::Num(-0.0));
        assert_eq!(parse("1E+2").unwrap(), Json::Num(100.0));
        assert_eq!(parse("0.0e-0").unwrap(), Json::Num(0.0));
        assert_eq!(parse("18446744073709551615").unwrap(), Json::Int(u64::MAX));
    }

    #[test]
    fn depth_limit_is_an_error_not_a_crash() {
        let deep_ok = format!("{}0{}", "[".repeat(100), "]".repeat(100));
        assert!(parse(&deep_ok).is_ok());
        let too_deep = format!("{}0{}", "[".repeat(50_000), "]".repeat(50_000));
        let e = parse(&too_deep).unwrap_err();
        assert!(e.message.contains("nesting"), "{e}");
        let unclosed = "[".repeat(50_000);
        assert!(parse(&unclosed).is_err());
    }

    #[test]
    fn integer_ids_are_exact_up_to_u64_max() {
        assert_eq!(
            parse("9007199254740993").unwrap().as_u64(),
            Some((1 << 53) + 1),
            "integer literals must not round through f64"
        );
        assert_eq!(
            parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        assert_eq!(
            parse("18446744073709551615").unwrap().to_string(),
            "18446744073709551615"
        );
        // Beyond u64 falls back to f64 and is rejected as an id.
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        // Exactly-representable floats are still accepted.
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
    }

    #[test]
    fn long_strings_parse_quickly() {
        // Regression guard for the O(n^2) per-character validation the
        // string parser used to do.
        let big = "x".repeat(2_000_000);
        let line = format!("{{\"sql\": \"{big}\"}}");
        let start = std::time::Instant::now();
        let parsed = parse(&line).unwrap();
        assert!(start.elapsed() < std::time::Duration::from_secs(2));
        assert_eq!(
            parsed.get("sql").unwrap().as_str().map(str::len),
            Some(2_000_000)
        );
    }

    #[test]
    fn nested_structures() {
        let v = parse(r#"{"a":[{"b":null},{"c":[true,false,1.5]}]}"#).unwrap();
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }
}
