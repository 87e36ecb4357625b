//! Hand-written lexer for the QueryVis SQL fragment.
//!
//! The lexer is the string→[`Symbol`] boundary of the pipeline: every
//! identifier and literal is interned exactly once here, and all later
//! layers (parser, logic tree, diagram, fingerprints) carry ids.
//!
//! The main loop dispatches on a 256-entry byte-class table (`CLASS`) —
//! one indexed load per input byte decides the whole token shape, and no
//! UTF-8 decoding happens outside the cold error path (multi-byte
//! characters can only appear inside string literals, which are scanned
//! bytewise, or as lex errors). String literals without the `''` escape
//! are interned straight from the source slice; only escaped literals
//! allocate an unescaping buffer. [`tokenize_into`] lexes into a
//! caller-owned buffer so batch callers reuse one token vector.
//!
//! Comments: `-- ...` line comments and `/* ... */` block comments are
//! skipped; block comments nest (`/* outer /* inner */ still out */`),
//! matching the SQL standard's bracketed-comment rule, and an unterminated
//! block comment is a spanned error.

use crate::error::ParseError;
use crate::scan;
use crate::token::{Keyword, Span, Token, TokenKind};
use queryvis_ir::{Interner, Symbol};

/// Byte classes of the dispatch table: every input byte maps to exactly
/// one class, and the class decides which scanning routine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Class {
    /// Space, tab, CR, LF.
    Ws,
    /// `[A-Za-z_]` — identifier or keyword start.
    Ident,
    /// `[0-9]` — number start.
    Digit,
    /// `'` — string literal start.
    Quote,
    /// Single-byte tokens: `( ) , . * ; =`.
    LParen,
    RParen,
    Comma,
    Dot,
    Star,
    Semi,
    Eq,
    /// Possibly two-byte tokens / comment openers.
    Lt,
    Gt,
    Bang,
    Minus,
    Slash,
    /// Anything else — a lex error (decoded to a char only then).
    Other,
}

const fn classify(b: u8) -> Class {
    match b {
        b' ' | b'\t' | b'\r' | b'\n' => Class::Ws,
        b'A'..=b'Z' | b'a'..=b'z' | b'_' => Class::Ident,
        b'0'..=b'9' => Class::Digit,
        b'\'' => Class::Quote,
        b'(' => Class::LParen,
        b')' => Class::RParen,
        b',' => Class::Comma,
        b'.' => Class::Dot,
        b'*' => Class::Star,
        b';' => Class::Semi,
        b'=' => Class::Eq,
        b'<' => Class::Lt,
        b'>' => Class::Gt,
        b'!' => Class::Bang,
        b'-' => Class::Minus,
        b'/' => Class::Slash,
        _ => Class::Other,
    }
}

/// The 256-entry byte-class dispatch table.
static CLASS: [Class; 256] = {
    let mut table = [Class::Other; 256];
    let mut i = 0;
    while i < 256 {
        table[i] = classify(i as u8);
        i += 1;
    }
    table
};

/// Tokenize `source` into a vector of tokens ending with a single
/// [`TokenKind::Eof`] token, interning names in the global interner.
pub fn tokenize(source: &str) -> Result<Vec<Token>, ParseError> {
    tokenize_in(source, Interner::global())
}

/// [`tokenize`] with an explicit interner. Symbols in the returned tokens
/// are only meaningful to `interner` (resolve them on the same instance —
/// never through global-resolving Display/as_str paths); the property
/// tests use this to prove that resolution is a function of the text, not
/// of id assignment order.
pub fn tokenize_in(source: &str, interner: &Interner) -> Result<Vec<Token>, ParseError> {
    let mut tokens = Vec::new();
    tokenize_into(source, interner, &mut tokens)?;
    Ok(tokens)
}

/// [`tokenize_in`] into a caller-owned buffer (cleared first), so a batch
/// of queries reuses one token allocation. The buffer is left holding the
/// token stream on success and cleared state-unspecified on error.
pub fn tokenize_into(
    source: &str,
    interner: &Interner,
    tokens: &mut Vec<Token>,
) -> Result<(), ParseError> {
    tokens.clear();
    let bytes = source.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match scan_token(source, bytes, i, interner)? {
            Step::Tok(token, next) => {
                tokens.push(token);
                i = next;
            }
            Step::Gap(next) => i = next,
        }
    }
    tokens.push(tok(TokenKind::Eof, bytes.len(), bytes.len()));
    Ok(())
}

/// One step of the lexer's main loop at position `i` (which must be a
/// token or separator boundary — any position a previous step returned,
/// or 0).
enum Step {
    /// A token, and the position after it.
    Tok(Token, usize),
    /// Whitespace or a comment was skipped; resume at the position.
    Gap(usize),
}

fn scan_token(
    source: &str,
    bytes: &[u8],
    start: usize,
    interner: &Interner,
) -> Result<Step, ParseError> {
    let mut i = start;
    let b = bytes[i];
    match CLASS[b as usize] {
        Class::Ws => Ok(Step::Gap(scan::ws_run_end(bytes, i + 1))),
        Class::Minus => {
            if i + 1 < bytes.len() && bytes[i + 1] == b'-' {
                // Line comment: skip to end of line.
                Ok(Step::Gap(
                    scan::find_byte(bytes, i + 2, b'\n').unwrap_or(bytes.len()),
                ))
            } else {
                Err(unexpected_char(source, start))
            }
        }
        Class::Slash => {
            if i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                // Block comment; nests per the SQL standard. Only `*`
                // and `/` can open or close a delimiter, so the scan
                // leaps between them.
                let mut depth = 1usize;
                i += 2;
                while depth > 0 {
                    let at = scan::find_byte2(bytes, i, b'*', b'/');
                    match at {
                        Some(at) if at + 1 < bytes.len() => match (bytes[at], bytes[at + 1]) {
                            (b'/', b'*') => {
                                depth += 1;
                                i = at + 2;
                            }
                            (b'*', b'/') => {
                                depth -= 1;
                                i = at + 2;
                            }
                            _ => i = at + 1,
                        },
                        _ => {
                            return Err(ParseError::new(
                                "unterminated block comment",
                                Span::new(start, bytes.len()),
                                source,
                            ));
                        }
                    }
                }
                Ok(Step::Gap(i))
            } else {
                Err(unexpected_char(source, start))
            }
        }
        Class::LParen => Ok(Step::Tok(tok(TokenKind::LParen, start, i + 1), i + 1)),
        Class::RParen => Ok(Step::Tok(tok(TokenKind::RParen, start, i + 1), i + 1)),
        Class::Comma => Ok(Step::Tok(tok(TokenKind::Comma, start, i + 1), i + 1)),
        Class::Dot => Ok(Step::Tok(tok(TokenKind::Dot, start, i + 1), i + 1)),
        Class::Star => Ok(Step::Tok(tok(TokenKind::Star, start, i + 1), i + 1)),
        Class::Semi => Ok(Step::Tok(tok(TokenKind::Semicolon, start, i + 1), i + 1)),
        Class::Eq => Ok(Step::Tok(tok(TokenKind::Eq, start, i + 1), i + 1)),
        Class::Lt => {
            if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                Ok(Step::Tok(tok(TokenKind::Ne, start, i + 2), i + 2))
            } else if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                Ok(Step::Tok(tok(TokenKind::Le, start, i + 2), i + 2))
            } else {
                Ok(Step::Tok(tok(TokenKind::Lt, start, i + 1), i + 1))
            }
        }
        Class::Gt => {
            if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                Ok(Step::Tok(tok(TokenKind::Ge, start, i + 2), i + 2))
            } else {
                Ok(Step::Tok(tok(TokenKind::Gt, start, i + 1), i + 1))
            }
        }
        Class::Bang => {
            if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                // Accept the common `!=` spelling, normalized to `<>`.
                Ok(Step::Tok(tok(TokenKind::Ne, start, i + 2), i + 2))
            } else {
                Err(ParseError::new(
                    "unexpected character `!` (did you mean `!=`?)",
                    Span::new(start, start + 1),
                    source,
                ))
            }
        }
        Class::Quote => {
            // String literal; doubled quote ('') escapes a quote. The
            // scan is bytewise: `'` is ASCII, so it can never be a
            // continuation byte of a multi-byte UTF-8 character, and
            // the source is already valid UTF-8.
            i += 1;
            let body_start = i;
            let mut escaped: Option<String> = None;
            let Some(at) = scan::find_byte(bytes, i, b'\'') else {
                return Err(ParseError::new(
                    "unterminated string literal",
                    Span::new(start, bytes.len()),
                    source,
                ));
            };
            i = at;
            if i + 1 < bytes.len() && bytes[i + 1] == b'\'' {
                // First escape: switch to the unescaping buffer.
                let value = escaped.get_or_insert_with(String::new);
                value.push_str(&source[body_start..i]);
                // From here on, re-slice per segment.
                i += 2;
                value.push('\'');
                // Continue scanning segments until the closing
                // quote, copying each unescaped run whole.
                let mut seg = i;
                loop {
                    let Some(at) = scan::find_byte(bytes, i, b'\'') else {
                        return Err(ParseError::new(
                            "unterminated string literal",
                            Span::new(start, bytes.len()),
                            source,
                        ));
                    };
                    i = at;
                    if i + 1 < bytes.len() && bytes[i + 1] == b'\'' {
                        value.push_str(&source[seg..i]);
                        value.push('\'');
                        i += 2;
                        seg = i;
                    } else {
                        value.push_str(&source[seg..i]);
                        i += 1;
                        break;
                    }
                }
            } else {
                i += 1;
            }
            let symbol = match &escaped {
                // Escape-free literal: intern straight from the source.
                None => interner.intern(&source[body_start..i - 1]),
                Some(value) => interner.intern(value),
            };
            Ok(Step::Tok(tok(TokenKind::Str(symbol), start, i), i))
        }
        Class::Digit => {
            let mut j = scan::digit_run_end(bytes, i + 1);
            // One fractional part: absorb `.` only when a digit
            // follows (so `L1.a` and a trailing `1.` keep their dot).
            if j + 1 < bytes.len() && bytes[j] == b'.' && bytes[j + 1].is_ascii_digit() {
                j = scan::digit_run_end(bytes, j + 1);
            }
            Ok(Step::Tok(
                tok(TokenKind::Number(interner.intern(&source[i..j])), start, j),
                j,
            ))
        }
        Class::Ident => {
            let j = scan::ident_run_end(bytes, i + 1);
            let text = &source[i..j];
            let kind = match Keyword::lookup(text) {
                Some(kw) => TokenKind::Keyword(kw),
                None => TokenKind::Ident(interner.intern(text)),
            };
            Ok(Step::Tok(tok(kind, start, j), j))
        }
        Class::Other => Err(unexpected_char(source, start)),
    }
}

/// Cold path: decode the offending character for the error message only.
#[cold]
fn unexpected_char(source: &str, at: usize) -> ParseError {
    let ch = source[at..].chars().next().unwrap();
    ParseError::new(
        format!("unexpected character `{ch}`"),
        Span::new(at, at + ch.len_utf8()),
        source,
    )
}

fn tok(kind: TokenKind, start: usize, end: usize) -> Token {
    Token {
        kind,
        span: Span::new(start, end),
    }
}

/// Whether `b` can start an identifier (`[A-Za-z_]`). Public so byte-level
/// scanners outside the lexer (the service's L1 text normalizer) classify
/// word boundaries exactly the way the lexer does.
pub fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

/// Whether `b` can continue an identifier (`[A-Za-z0-9_]`). See
/// [`is_ident_start`] for why this is public.
pub fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Convenience for tests and diagnostics: intern in the global interner.
pub fn sym(text: &str) -> Symbol {
    Symbol::intern(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::{Keyword, TokenKind as T};

    fn kinds(src: &str) -> Vec<T> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lex_simple_select() {
        let ks = kinds("SELECT a FROM t;");
        assert_eq!(
            ks,
            vec![
                T::Keyword(Keyword::Select),
                T::Ident("a".into()),
                T::Keyword(Keyword::From),
                T::Ident("t".into()),
                T::Semicolon,
                T::Eof,
            ]
        );
    }

    #[test]
    fn lex_operators() {
        let ks = kinds("a < b <= c = d <> e >= f > g != h");
        let ops: Vec<_> = ks
            .iter()
            .filter(|k| matches!(k, T::Lt | T::Le | T::Eq | T::Ne | T::Ge | T::Gt))
            .cloned()
            .collect();
        assert_eq!(ops, vec![T::Lt, T::Le, T::Eq, T::Ne, T::Ge, T::Gt, T::Ne]);
    }

    #[test]
    fn lex_string_with_escape() {
        let ks = kinds("name = 'AC/DC' AND x = 'it''s'");
        assert!(ks.contains(&T::Str("AC/DC".into())));
        assert!(ks.contains(&T::Str("it's".into())));
    }

    #[test]
    fn lex_numbers() {
        let ks = kinds("x = 270000 AND y = 3.5");
        assert!(ks.contains(&T::Number("270000".into())));
        assert!(ks.contains(&T::Number("3.5".into())));
    }

    #[test]
    fn lex_line_comment() {
        let ks = kinds("SELECT a -- the select list\nFROM t");
        assert_eq!(ks.len(), 5); // SELECT a FROM t EOF
    }

    #[test]
    fn lex_block_comment() {
        let ks = kinds("SELECT a /* the select\n   list */ FROM t");
        assert_eq!(ks.len(), 5); // SELECT a FROM t EOF
    }

    #[test]
    fn lex_block_comment_between_tokens_is_a_separator() {
        let ks = kinds("SELECT a/*x*/b FROM t");
        assert_eq!(
            ks[..3],
            [
                T::Keyword(Keyword::Select),
                T::Ident("a".into()),
                T::Ident("b".into()),
            ]
        );
    }

    #[test]
    fn lex_nested_block_comment() {
        let ks = kinds("SELECT a /* outer /* inner */ still outer */ FROM t");
        assert_eq!(ks.len(), 5); // SELECT a FROM t EOF
    }

    #[test]
    fn lex_unterminated_block_comment() {
        let err = tokenize("SELECT a /* never closed").unwrap_err();
        assert!(err.message.contains("unterminated block comment"));
        assert_eq!(err.column, 10);
    }

    #[test]
    fn lex_unterminated_nested_block_comment() {
        // The inner comment closes; the outer one does not.
        let err = tokenize("SELECT a /* outer /* inner */ oops").unwrap_err();
        assert!(err.message.contains("unterminated block comment"));
    }

    #[test]
    fn block_comment_close_without_open_is_an_error() {
        // `*/` outside a comment hits the generic unexpected-character path
        // on `*` being legal (Star) but `/` not: the `/` is rejected.
        let err = tokenize("SELECT a */ FROM t").unwrap_err();
        assert!(err.message.contains('/'), "{}", err.message);
    }

    #[test]
    fn lex_unterminated_string() {
        let err = tokenize("x = 'oops").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn lex_unexpected_char() {
        let err = tokenize("x # y").unwrap_err();
        assert!(err.message.contains('#'));
        assert_eq!(err.column, 3);
    }

    #[test]
    fn spans_are_byte_accurate() {
        let toks = tokenize("ab cd").unwrap();
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].span, Span::new(3, 5));
    }

    #[test]
    fn keywords_case_insensitive() {
        let ks = kinds("select From WHERE and Not exists");
        assert_eq!(
            ks[..6],
            [
                T::Keyword(Keyword::Select),
                T::Keyword(Keyword::From),
                T::Keyword(Keyword::Where),
                T::Keyword(Keyword::And),
                T::Keyword(Keyword::Not),
                T::Keyword(Keyword::Exists),
            ]
        );
    }

    #[test]
    fn number_then_dot_ident_not_merged() {
        // `L1.drinker` style references must lex as Ident Dot Ident, and a
        // trailing `1.` must not swallow the dot when not followed by digits.
        let ks = kinds("L1.drinker");
        assert_eq!(
            ks[..3],
            [T::Ident("L1".into()), T::Dot, T::Ident("drinker".into())]
        );
    }

    #[test]
    fn idents_intern_to_the_same_symbol() {
        let toks = tokenize("SELECT a FROM t WHERE a = a").unwrap();
        let ids: Vec<Symbol> = toks
            .iter()
            .filter_map(|t| match t.kind {
                T::Ident(s) if s == "a" => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(ids.len(), 3);
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn explicit_interner_receives_the_names() {
        let local = Interner::new();
        let toks = tokenize_in("SELECT abc FROM xyz", &local).unwrap();
        let names: Vec<&str> = toks
            .iter()
            .filter_map(|t| match t.kind {
                T::Ident(s) => Some(local.resolve(s)),
                _ => None,
            })
            .collect();
        assert_eq!(names, vec!["abc", "xyz"]);
        assert_eq!(local.len(), 2);
    }
}
