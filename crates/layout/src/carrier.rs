//! Output carriers: one scene writer, two forms of its document.
//!
//! The scene writers (svg, ascii, scene_json) write through a [`Carrier`]
//! rather than into a `String` directly. A `String` receives the document
//! as it is. A [`JsonEscaped`] receives the same document already escaped
//! as the body of a JSON string literal, the form a service reply carries
//! an artifact in, so a served artifact is written once instead of being
//! rendered and then escaped in a second pass.
//!
//! A writer hands its bytes over in three kinds:
//!
//! - **Constant markup** goes through [`lit!`](crate::lit), which pairs
//!   the constant with its JSON form, computed at compile time. A carrier
//!   copies one form or the other and never scans it. A constant holding a
//!   control byte other than `\n`, `\r` or `\t` fails to compile.
//! - **Document text** (names, labels, theme values) goes through
//!   [`Carrier::text`]. The `String` carrier pushes it; the escaped
//!   carrier JSON-escapes it.
//! - **Bytes that read the same in both forms** go straight into
//!   [`Carrier::plain`]: digits, box rules, padding, and fragments a
//!   writer has already formed in its carrier's form.
//!
//! A writer's own escape is written in terms of these. SVG's XML entities
//! are `lit!`s between text runs, and a JSON string inside scene_json is
//! [`escape_json`] between quote `lit!`s, so a label's `"` inside the
//! escaped scene_json comes out as `\\\"` without a second pass.
//! [`escape_json`] is the one JSON escape loop: the escaped carrier's
//! `text` is that loop into its `String`.

/// Where a scene writer puts its document. See the [module docs](self)
/// for which bytes go through which method.
pub trait Carrier: Default {
    /// Append constant markup in this carrier's form.
    fn lit(&mut self, lit: Lit);
    /// Append document text in this carrier's form.
    fn text(&mut self, text: &str);
    /// The buffer itself, for bytes that read the same in both forms.
    fn plain(&mut self) -> &mut String;
}

/// Constant markup together with its JSON-escaped form. Built only by
/// [`lit!`](crate::lit), which computes the escaped form at compile time.
#[derive(Clone, Copy, Debug)]
pub struct Lit {
    raw: &'static str,
    json: &'static str,
}

impl Lit {
    /// The [`lit!`](crate::lit) macro's constructor: `json` is
    /// [`json_form`] of `raw`.
    #[doc(hidden)]
    pub const fn from_forms(raw: &'static str, json: &'static [u8]) -> Lit {
        match core::str::from_utf8(json) {
            Ok(json) => Lit { raw, json },
            Err(_) => panic!("lit!: escaping keeps UTF-8 valid"),
        }
    }
}

/// `Lit` for a constant `&str`, its JSON-escaped form computed at compile
/// time.
///
/// ```
/// use queryvis_layout::{lit, Carrier, JsonEscaped};
/// let mut out = JsonEscaped::default();
/// out.lit(lit!("<text class=\"edge\">\n"));
/// assert_eq!(out.0, r#"<text class=\"edge\">\n"#);
/// ```
///
/// A control byte other than `\n`, `\r` or `\t` is a compile error:
///
/// ```compile_fail
/// let bell = queryvis_layout::lit!("\u{7}");
/// ```
#[macro_export]
macro_rules! lit {
    ($raw:expr) => {{
        const RAW: &str = $raw;
        const JSON: &[u8; $crate::carrier::json_len(RAW)] = &$crate::carrier::json_form(RAW);
        const LIT: $crate::carrier::Lit = $crate::carrier::Lit::from_forms(RAW, JSON);
        LIT
    }};
}

/// Byte length of `raw` JSON-escaped; a compile error, through
/// [`lit!`](crate::lit), for a control byte other than `\n`, `\r`, `\t`.
#[doc(hidden)]
pub const fn json_len(raw: &str) -> usize {
    let bytes = raw.as_bytes();
    let (mut i, mut len) = (0, 0);
    while i < bytes.len() {
        len += match bytes[i] {
            b'"' | b'\\' | b'\n' | b'\r' | b'\t' => 2,
            0..=0x1f => panic!("lit!: a constant holds a control byte other than \\n, \\r, \\t"),
            _ => 1,
        };
        i += 1;
    }
    len
}

/// `raw` JSON-escaped, as [`escape_json`] writes it; `N` is
/// [`json_len`] of `raw`.
#[doc(hidden)]
pub const fn json_form<const N: usize>(raw: &str) -> [u8; N] {
    let bytes = raw.as_bytes();
    let mut out = [0; N];
    let (mut i, mut o) = (0, 0);
    while i < bytes.len() {
        let escaped = match bytes[i] {
            b'"' => b'"',
            b'\\' => b'\\',
            b'\n' => b'n',
            b'\r' => b'r',
            b'\t' => b't',
            byte => {
                out[o] = byte;
                o += 1;
                i += 1;
                continue;
            }
        };
        out[o] = b'\\';
        out[o + 1] = escaped;
        o += 2;
        i += 1;
    }
    out
}

/// The document as it is.
impl Carrier for String {
    #[inline]
    fn lit(&mut self, lit: Lit) {
        self.push_str(lit.raw);
    }

    #[inline]
    fn text(&mut self, text: &str) {
        self.push_str(text);
    }

    #[inline]
    fn plain(&mut self) -> &mut String {
        self
    }
}

/// The document JSON-escaped: the body of the JSON string literal that
/// carries it, without the quotes, which are the caller's to write.
#[derive(Debug, Default)]
pub struct JsonEscaped(pub String);

impl Carrier for JsonEscaped {
    #[inline]
    fn lit(&mut self, lit: Lit) {
        self.0.push_str(lit.json);
    }

    fn text(&mut self, text: &str) {
        escape_json(&mut self.0, text);
    }

    #[inline]
    fn plain(&mut self) -> &mut String {
        &mut self.0
    }
}

/// Append `text` JSON-escaped (RFC 8259: `"`, `\` and control bytes),
/// without quotes, in `out`'s form.
///
/// Works in clean *runs*: every byte that needs an escape is ASCII, so run
/// boundaries are char boundaries, and each run goes to `out` whole. Into
/// a `String` this is the JSON escape itself; into [`JsonEscaped`] it
/// writes the escape of the escape.
pub fn escape_json<C: Carrier>(out: &mut C, text: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run = 0;
    for (i, byte) in text.bytes().enumerate() {
        if byte != b'"' && byte != b'\\' && byte >= 0x20 {
            continue;
        }
        out.text(&text[run..i]);
        match byte {
            b'"' => out.lit(lit!("\\\"")),
            b'\\' => out.lit(lit!("\\\\")),
            b'\n' => out.lit(lit!("\\n")),
            b'\r' => out.lit(lit!("\\r")),
            b'\t' => out.lit(lit!("\\t")),
            control => {
                out.lit(lit!("\\u00"));
                let plain = out.plain();
                plain.push(char::from(HEX[usize::from(control >> 4)]));
                plain.push(char::from(HEX[usize::from(control & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.text(&text[run..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escaped(text: &str) -> String {
        let mut out = String::new();
        escape_json(&mut out, text);
        out
    }

    /// The compile-time form of every constant is the runtime escape of
    /// its raw form. Together the constants hold each byte the escape
    /// rewrites, plain ASCII and multi-byte chars.
    #[test]
    fn compile_time_form_is_the_runtime_escape() {
        for lit in [
            lit!(""),
            lit!("\""),
            lit!("\\"),
            lit!("\n"),
            lit!("\r"),
            lit!("\t"),
            lit!("<rect x=\""),
            lit!("{\"t\":\"rect\","),
            lit!("\\u00"),
            lit!("a\\b\"c\nd\re\tf"),
            lit!("∄ Žatec 😀 \"∀\"\n"),
            lit!(" ~!#$%&'()*+,-./0123456789:;<=>?@[]^_`{|}\u{7f}"),
        ] {
            assert_eq!(lit.json, escaped(lit.raw), "{:?}", lit.raw);
            let mut raw = String::new();
            raw.lit(lit);
            assert_eq!(raw, lit.raw);
            let mut json = JsonEscaped::default();
            json.lit(lit);
            assert_eq!(json.0, lit.json);
        }
    }

    #[test]
    fn escape_rewrites_quotes_backslashes_and_control_bytes() {
        assert_eq!(escaped("plain ∄ text"), "plain ∄ text");
        assert_eq!(escaped("a\"b\\c"), r#"a\"b\\c"#);
        assert_eq!(escaped("\n\r\t"), r"\n\r\t");
        assert_eq!(escaped("\u{1}x\u{1f}"), r"\u0001x\u001f");
    }

    /// Into the escaped carrier, text is escaped once and escapes twice:
    /// decoding the outer layer gives the plain escape back.
    #[test]
    fn escaped_carrier_escapes_the_escape() {
        let text = "say \"hi\" \\ there\t\u{1}";
        let mut once = JsonEscaped::default();
        once.text(text);
        assert_eq!(once.0, escaped(text));
        let mut twice = JsonEscaped::default();
        escape_json(&mut twice, text);
        assert_eq!(twice.0, escaped(&escaped(text)));
    }
}
