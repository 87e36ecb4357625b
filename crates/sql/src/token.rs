//! Token definitions for the SQL lexer.

use queryvis_ir::{NamedDisplay, Names, Symbol};
use std::fmt;

/// A half-open byte range into the original source text.
///
/// Spans are carried on every token so that parse errors can point at the
/// exact offending location (`line:column`), which matters for the longer
/// study queries (some span 25+ lines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub start: usize,
    pub end: usize,
}

impl Span {
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// Merge two spans into the smallest span covering both.
    pub fn cover(self, other: Span) -> Span {
        Span::new(self.start.min(other.start), self.end.max(other.end))
    }

    /// 1-based (line, column) of the span start within `source`.
    pub fn line_col(&self, source: &str) -> (usize, usize) {
        let mut line = 1;
        let mut col = 1;
        for (i, ch) in source.char_indices() {
            if i >= self.start {
                break;
            }
            if ch == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        (line, col)
    }
}

/// SQL keywords recognized by the fragment. Keywords are case-insensitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keyword {
    Select,
    From,
    Where,
    And,
    As,
    Not,
    Exists,
    In,
    Any,
    All,
    Group,
    By,
    // Aggregates (study extension).
    Count,
    Sum,
    Avg,
    Min,
    Max,
    // Widened-fragment constructs (ISSUE 4): disjunction, explicit inner
    // joins, post-grouping predicates, and top-level unions.
    Or,
    Having,
    Join,
    On,
    Inner,
    Union,
    // Recognized so we can reject them with a targeted message instead of a
    // generic "unexpected identifier".
    Left,
    Right,
    Full,
    Outer,
    Cross,
    Distinct,
    OrderKw,
}

/// Keyword spellings grouped by length, each packed into a `u64` by
/// [`pack_upper`], so lookup packs the candidate word once and compares
/// it with a handful of same-length spellings, one integer compare each
/// (the lexer and the service's L1 memo call this for every word in
/// every query).
const KEYWORDS_BY_LEN: [&[(u64, Keyword)]; 9] = [
    &[], // 0
    &[], // 1
    &[
        kw("IN", Keyword::In),
        kw("BY", Keyword::By),
        kw("OR", Keyword::Or),
        kw("AS", Keyword::As),
        kw("ON", Keyword::On),
    ], // 2
    &[
        kw("AND", Keyword::And),
        kw("NOT", Keyword::Not),
        kw("ANY", Keyword::Any),
        kw("ALL", Keyword::All),
        kw("SUM", Keyword::Sum),
        kw("AVG", Keyword::Avg),
        kw("MIN", Keyword::Min),
        kw("MAX", Keyword::Max),
    ], // 3
    &[
        kw("FROM", Keyword::From),
        kw("SOME", Keyword::Any),
        kw("JOIN", Keyword::Join),
        kw("LEFT", Keyword::Left),
        kw("FULL", Keyword::Full),
    ], // 4
    &[
        kw("WHERE", Keyword::Where),
        kw("GROUP", Keyword::Group),
        kw("COUNT", Keyword::Count),
        kw("UNION", Keyword::Union),
        kw("ORDER", Keyword::OrderKw),
        kw("INNER", Keyword::Inner),
        kw("RIGHT", Keyword::Right),
        kw("OUTER", Keyword::Outer),
        kw("CROSS", Keyword::Cross),
    ], // 5
    &[
        kw("SELECT", Keyword::Select),
        kw("EXISTS", Keyword::Exists),
        kw("HAVING", Keyword::Having),
    ], // 6
    &[], // 7
    &[kw("DISTINCT", Keyword::Distinct)], // 8
];

/// A table entry: `spelling` packed by [`pack_upper`].
const fn kw(spelling: &str, keyword: Keyword) -> (u64, Keyword) {
    (pack_upper(spelling.as_bytes()), keyword)
}

/// The ASCII-uppercased bytes of a word of at most 8 bytes, packed
/// little-endian into a `u64`. Among words of one length the packing is
/// injective, so equal packed words are case-insensitively equal words.
const fn pack_upper(word: &[u8]) -> u64 {
    debug_assert!(word.len() <= 8);
    let mut packed = 0u64;
    let mut i = 0;
    while i < word.len() {
        packed |= (word[i].to_ascii_uppercase() as u64) << (8 * i);
        i += 1;
    }
    packed
}

impl Keyword {
    pub fn lookup(ident: &str) -> Option<Keyword> {
        let candidates = KEYWORDS_BY_LEN.get(ident.len())?;
        let packed = pack_upper(ident.as_bytes());
        candidates
            .iter()
            .find(|(spelling, _)| *spelling == packed)
            .map(|(_, kw)| *kw)
    }

    pub fn as_str(&self) -> &'static str {
        match self {
            Keyword::Select => "SELECT",
            Keyword::From => "FROM",
            Keyword::Where => "WHERE",
            Keyword::And => "AND",
            Keyword::As => "AS",
            Keyword::Not => "NOT",
            Keyword::Exists => "EXISTS",
            Keyword::In => "IN",
            Keyword::Any => "ANY",
            Keyword::All => "ALL",
            Keyword::Group => "GROUP",
            Keyword::By => "BY",
            Keyword::Count => "COUNT",
            Keyword::Sum => "SUM",
            Keyword::Avg => "AVG",
            Keyword::Min => "MIN",
            Keyword::Max => "MAX",
            Keyword::Or => "OR",
            Keyword::Having => "HAVING",
            Keyword::Join => "JOIN",
            Keyword::On => "ON",
            Keyword::Inner => "INNER",
            Keyword::Union => "UNION",
            Keyword::Left => "LEFT",
            Keyword::Right => "RIGHT",
            Keyword::Full => "FULL",
            Keyword::Outer => "OUTER",
            Keyword::Cross => "CROSS",
            Keyword::Distinct => "DISTINCT",
            Keyword::OrderKw => "ORDER",
        }
    }
}

/// Lexical token kinds.
///
/// Identifiers and literals are [`Symbol`]s of the query's [`Names`]: the
/// lexer is the one place in the pipeline where name text is copied; every
/// later layer moves 4-byte ids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenKind {
    Keyword(Keyword),
    /// Unquoted identifier (table, alias, or attribute name).
    Ident(Symbol),
    /// Numeric literal, kept as source text to print back verbatim.
    Number(Symbol),
    /// Single-quoted string literal (contents interned, quotes stripped).
    Str(Symbol),
    LParen,
    RParen,
    Comma,
    Dot,
    Star,
    Semicolon,
    Lt,
    Le,
    Eq,
    Ne,
    Ge,
    Gt,
    Eof,
}

impl NamedDisplay for TokenKind {
    fn fmt_named(&self, names: &Names, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Keyword(k) => write!(f, "{}", k.as_str()),
            TokenKind::Ident(s) | TokenKind::Number(s) => f.write_str(names.resolve(*s)),
            TokenKind::Str(s) => write!(f, "'{}'", names.resolve(*s)),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::Dot => write!(f, "."),
            TokenKind::Star => write!(f, "*"),
            TokenKind::Semicolon => write!(f, ";"),
            TokenKind::Lt => write!(f, "<"),
            TokenKind::Le => write!(f, "<="),
            TokenKind::Eq => write!(f, "="),
            TokenKind::Ne => write!(f, "<>"),
            TokenKind::Ge => write!(f, ">="),
            TokenKind::Gt => write!(f, ">"),
            TokenKind::Eof => write!(f, "<end of input>"),
        }
    }
}

/// A token together with its source span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub span: Span,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup_is_case_insensitive() {
        assert_eq!(Keyword::lookup("select"), Some(Keyword::Select));
        assert_eq!(Keyword::lookup("SeLeCt"), Some(Keyword::Select));
        assert_eq!(Keyword::lookup("NOT"), Some(Keyword::Not));
        assert_eq!(Keyword::lookup("drinker"), None);
    }

    #[test]
    fn some_is_alias_for_any() {
        assert_eq!(Keyword::lookup("SOME"), Some(Keyword::Any));
    }

    /// Every `(spelling, keyword)` of the table, spellings unpacked.
    fn spellings() -> Vec<(String, Keyword)> {
        let mut all = Vec::new();
        for (len, entries) in KEYWORDS_BY_LEN.iter().enumerate() {
            for &(packed, keyword) in *entries {
                let bytes: Vec<u8> = (0..len).map(|i| (packed >> (8 * i)) as u8).collect();
                all.push((String::from_utf8(bytes).unwrap(), keyword));
            }
        }
        all
    }

    /// The lookup as a linear case-insensitive scan over the whole table.
    fn reference_lookup(table: &[(String, Keyword)], word: &str) -> Option<Keyword> {
        table
            .iter()
            .find(|(spelling, _)| spelling.eq_ignore_ascii_case(word))
            .map(|(_, keyword)| *keyword)
    }

    #[test]
    fn every_case_mix_of_every_spelling_finds_its_keyword() {
        let table = spellings();
        assert_eq!(table.len(), 31);
        for (spelling, keyword) in &table {
            let alias = spelling == "SOME" && *keyword == Keyword::Any;
            assert!(alias || spelling == keyword.as_str(), "{spelling}");
            for mask in 0u32..1 << spelling.len() {
                let mixed: String = spelling
                    .chars()
                    .enumerate()
                    .map(|(i, c)| {
                        if mask & (1 << i) != 0 {
                            c.to_ascii_lowercase()
                        } else {
                            c
                        }
                    })
                    .collect();
                assert_eq!(Keyword::lookup(&mixed), Some(*keyword), "{mixed}");
            }
        }
    }

    #[test]
    fn words_one_edit_from_a_spelling_agree_with_a_table_scan() {
        let table = spellings();
        let alphabet: Vec<u8> = (b'a'..=b'z')
            .chain(b'A'..=b'Z')
            .chain(b'0'..=b'9')
            .chain([b'_'])
            .collect();
        let mut checked = 0;
        let mut check = |word: Vec<u8>| {
            let word = String::from_utf8(word).unwrap();
            assert!((1..=9).contains(&word.len()), "{word}");
            assert_eq!(
                Keyword::lookup(&word),
                reference_lookup(&table, &word),
                "{word}"
            );
            checked += 1;
        };
        for (spelling, _) in &table {
            let bytes = spelling.as_bytes();
            for at in 0..=bytes.len() {
                for &b in &alphabet {
                    let mut inserted = bytes.to_vec();
                    inserted.insert(at, b);
                    check(inserted);
                    if at < bytes.len() {
                        let mut replaced = bytes.to_vec();
                        replaced[at] = b;
                        check(replaced);
                    }
                }
                if at < bytes.len() {
                    let mut deleted = bytes.to_vec();
                    deleted.remove(at);
                    check(deleted);
                }
            }
        }
        assert!(checked > 10_000, "{checked}");
    }

    #[test]
    fn span_cover_and_line_col() {
        let s = Span::new(4, 8).cover(Span::new(2, 5));
        assert_eq!(s, Span::new(2, 8));
        let src = "ab\ncd\nef";
        assert_eq!(Span::new(0, 1).line_col(src), (1, 1));
        assert_eq!(Span::new(3, 4).line_col(src), (2, 1));
        assert_eq!(Span::new(7, 8).line_col(src), (3, 2));
    }
}
