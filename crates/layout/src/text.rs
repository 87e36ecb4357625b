//! Mark text: a label that holds short text inline and long text on the
//! heap.
//!
//! A scene carries dozens of labels per diagram (titles, title
//! annotations, row texts, edge endpoints and operators), and nearly all
//! of them are a few bytes long. [`MarkText`] keeps up to 22 bytes inside
//! the value and boxes only longer text, so building a scene allocates
//! nothing per label in the common case. With its tag and length byte an
//! inline value fills the 24 bytes of a `String`, so no mark grows; 22 is
//! that size, not a setting.
//!
//! A value is built from the pieces its text is joined from, copied in
//! order, and read as a `&str` through `Deref`: the writers read it as
//! they read a `String`. Reading inline text checks its bytes as UTF-8,
//! at most 22 of them. Equality, `Debug` and `Display` go by the text,
//! whichever form holds it.

use std::fmt;
use std::ops::Deref;

/// The most bytes held inline: a `String`'s 24 less the tag and the length
/// byte.
const INLINE: usize = 22;

/// Text of one scene mark. See the [module docs](self).
#[derive(Clone)]
pub struct MarkText(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, bytes: [u8; INLINE] },
    Heap(Box<str>),
}

impl MarkText {
    /// The text `pieces` join to, without building it first: pieces of up
    /// to 22 bytes in all are copied inline, longer text into one
    /// exact-size box.
    pub fn from_pieces(pieces: &[&str]) -> MarkText {
        let len: usize = pieces.iter().map(|piece| piece.len()).sum();
        if len > INLINE {
            return MarkText(Repr::Heap(pieces.concat().into_boxed_str()));
        }
        let mut bytes = [0; INLINE];
        let mut at = 0;
        for piece in pieces {
            bytes[at..at + piece.len()].copy_from_slice(piece.as_bytes());
            at += piece.len();
        }
        MarkText(Repr::Inline {
            len: len as u8,
            bytes,
        })
    }

    /// The text, as `String::as_str` reads a `String`.
    pub fn as_str(&self) -> &str {
        self
    }
}

impl Deref for MarkText {
    type Target = str;

    fn deref(&self) -> &str {
        match &self.0 {
            // `bytes[..len]` holds whole `&str` pieces copied in order by
            // `from_pieces`, never cut or edited, so the check always
            // passes. Skipping it (`from_utf8_unchecked`) sped up the
            // writers in a hot loop but not a request (EXPERIMENTS.md).
            Repr::Inline { len, bytes } => std::str::from_utf8(&bytes[..usize::from(*len)])
                .expect("inline text is whole str pieces"),
            Repr::Heap(text) => text,
        }
    }
}

impl From<&str> for MarkText {
    fn from(text: &str) -> MarkText {
        MarkText::from_pieces(&[text])
    }
}

impl PartialEq for MarkText {
    fn eq(&self, other: &MarkText) -> bool {
        **self == **other
    }
}

impl PartialEq<&str> for MarkText {
    fn eq(&self, other: &&str) -> bool {
        **self == **other
    }
}

impl fmt::Debug for MarkText {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl fmt::Display for MarkText {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_inline(text: &MarkText) -> bool {
        matches!(text.0, Repr::Inline { .. })
    }

    #[test]
    fn is_as_large_as_a_string() {
        assert_eq!(size_of::<MarkText>(), size_of::<String>());
        assert_eq!(size_of::<Option<MarkText>>(), size_of::<String>());
    }

    /// Lengths on both sides of the inline bound read back as written,
    /// from one piece and from many.
    #[test]
    fn text_reads_back_at_every_length() {
        let source = "abcdefghijklmnopqrstuvwxyz0123456789ABCD";
        for len in [0, 1, 21, 22, 23, 40] {
            let text = &source[..len];
            let whole = MarkText::from(text);
            let split = MarkText::from_pieces(&[&text[..len / 3], "", &text[len / 3..]]);
            for built in [&whole, &split] {
                assert_eq!(&**built, text);
                assert_eq!(built.len(), len);
                assert_eq!(is_inline(built), len <= INLINE, "{len} bytes");
            }
        }
    }

    /// 21 ASCII bytes and a two-byte `é` make 23 bytes: the text goes to
    /// the heap whole, never cut at the inline bound. Twenty ASCII bytes
    /// and the `é` fill the inline bytes exactly.
    #[test]
    fn a_multibyte_char_across_the_bound_is_kept_whole() {
        let across = MarkText::from_pieces(&["abcdefghijklmnopqrstu", "\u{e9}"]);
        assert!(!is_inline(&across));
        assert_eq!(across, "abcdefghijklmnopqrstu\u{e9}");
        assert_eq!(across.chars().count(), 22);
        let filled = MarkText::from_pieces(&["abcdefghijklmnopqrst", "\u{e9}"]);
        assert!(is_inline(&filled));
        assert_eq!(filled.chars().last(), Some('\u{e9}'));
        assert_eq!(filled.len(), INLINE);
    }

    /// Equality, `Debug` and `Display` see the text, not its form: equal
    /// texts compare and print alike, inline or boxed.
    #[test]
    fn equality_and_formatting_go_by_the_text() {
        let short = MarkText::from_pieces(&["F", ".", "bar"]);
        assert_eq!(short, MarkText::from("F.bar"));
        assert_eq!(short, "F.bar");
        assert_ne!(short, MarkText::from("F.baz"));
        assert_eq!(format!("{short:?}"), format!("{:?}", "F.bar"));
        assert_eq!(format!("{short}"), "F.bar");
        assert_eq!(format!("[{short:>7}]"), "[  F.bar]");

        let long_text = "Reservation.customerIdentifier";
        let long = MarkText::from_pieces(&["Reservation", ".", "customerIdentifier"]);
        assert!(!is_inline(&long) && is_inline(&short));
        assert_eq!(long, MarkText::from(long_text));
        assert_ne!(long, short);
        assert_ne!(MarkText::from(&long_text[..22]), long);
        assert_eq!(format!("{long:?}"), format!("{long_text:?}"));
        assert_eq!(format!("{long}"), long_text);
        assert_eq!(
            format!("{:?}", MarkText::from("tab\t\"q\"")),
            r#""tab\t\"q\"""#
        );

        // The same text held on the heap, which `from_pieces` never does
        // for short text, is still the same text.
        let boxed = MarkText(Repr::Heap(Box::from("F.bar")));
        assert!(!is_inline(&boxed));
        assert_eq!(boxed, short);
        assert_eq!(short, boxed);
        assert_eq!(format!("{boxed:?}"), format!("{short:?}"));
        assert_eq!(format!("{boxed}"), format!("{short}"));
    }
}
