//! The shared operator/constant vocabulary of the fragment.
//!
//! These types are used verbatim by the SQL AST (`queryvis-sql`), the
//! pattern IR ([`crate::pattern`]), and the diagram model — they live here,
//! at the bottom of the crate graph, so no layer has to translate between
//! per-crate copies. `queryvis-sql` re-exports them under its old paths.

use crate::intern::{NamedDisplay, Names, Symbol};
use std::fmt;

/// The six comparison operators of the fragment: `< <= = <> >= >`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareOp {
    Lt,
    Le,
    Eq,
    Ne,
    Ge,
    Gt,
}

impl CompareOp {
    /// Logical negation: `¬(a < b) ≡ a >= b`, etc. Used when de-sugaring
    /// `x op ALL (Q)` into `∄ t ∈ Q : x ¬op t` (§4.7).
    pub fn negate(self) -> CompareOp {
        match self {
            CompareOp::Lt => CompareOp::Ge,
            CompareOp::Le => CompareOp::Gt,
            CompareOp::Eq => CompareOp::Ne,
            CompareOp::Ne => CompareOp::Eq,
            CompareOp::Ge => CompareOp::Lt,
            CompareOp::Gt => CompareOp::Le,
        }
    }

    /// Operand swap: `a < b ≡ b > a`. Used by the arrow rules when the drawn
    /// edge direction disagrees with the operand order (§4.5.1).
    pub fn flip(self) -> CompareOp {
        match self {
            CompareOp::Lt => CompareOp::Gt,
            CompareOp::Le => CompareOp::Ge,
            CompareOp::Eq => CompareOp::Eq,
            CompareOp::Ne => CompareOp::Ne,
            CompareOp::Ge => CompareOp::Le,
            CompareOp::Gt => CompareOp::Lt,
        }
    }

    /// True for the symmetric operators `=` and `<>` whose operand order is
    /// irrelevant (no arrowhead needed per §4.3.1).
    pub fn is_symmetric(self) -> bool {
        matches!(self, CompareOp::Eq | CompareOp::Ne)
    }

    pub fn as_str(self) -> &'static str {
        match self {
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Eq => "=",
            CompareOp::Ne => "<>",
            CompareOp::Ge => ">=",
            CompareOp::Gt => ">",
        }
    }

    /// Small dense code for canonical-pattern token streams.
    pub fn code(self) -> u32 {
        match self {
            CompareOp::Lt => 0,
            CompareOp::Le => 1,
            CompareOp::Eq => 2,
            CompareOp::Ne => 3,
            CompareOp::Ge => 4,
            CompareOp::Gt => 5,
        }
    }
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Aggregate functions of the GROUP BY extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    pub fn as_str(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }

    /// Small dense code for canonical-pattern token streams.
    pub fn code(self) -> u32 {
        match self {
            AggFunc::Count => 0,
            AggFunc::Sum => 1,
            AggFunc::Avg => 2,
            AggFunc::Min => 3,
            AggFunc::Max => 4,
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A constant value (`V` in the grammar): number or string, interned.
///
/// Numeric literals keep their *source text* (`270000`, `3.5`) so printing
/// is lossless and equality is textual — exactly the old `String` semantics
/// at 4 bytes per operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Value {
    Number(Symbol),
    Str(Symbol),
}

impl Value {
    /// The literal as a typed number, when it is one. Numeric literals are
    /// stored as source text (so `3.50` and `3.5` are *different* symbols);
    /// semantic consumers — the executor above all — must compare them
    /// numerically, and this is the one place that parse lives.
    pub fn numeric(&self, names: &Names) -> Option<f64> {
        match self {
            Value::Number(n) => names
                .resolve(*n)
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite()),
            Value::Str(_) => None,
        }
    }

    /// The literal's text without quoting: the string contents for a string
    /// literal, the source digits for a number.
    pub fn text<'a>(&self, names: &'a Names) -> &'a str {
        match self {
            Value::Number(n) | Value::Str(n) => names.resolve(*n),
        }
    }
}

impl NamedDisplay for Value {
    fn fmt_named(&self, names: &Names, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Number(n) => f.write_str(names.resolve(*n)),
            Value::Str(s) => write!(f, "'{}'", names.resolve(*s)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_op_involutions() {
        for op in [
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Eq,
            CompareOp::Ne,
            CompareOp::Ge,
            CompareOp::Gt,
        ] {
            assert_eq!(op.negate().negate(), op);
            assert_eq!(op.flip().flip(), op);
        }
    }

    #[test]
    fn codes_are_dense_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for op in [
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Eq,
            CompareOp::Ne,
            CompareOp::Ge,
            CompareOp::Gt,
        ] {
            assert!(seen.insert(op.code()));
            assert!(op.code() < 6);
        }
    }

    #[test]
    fn value_display_quotes_strings() {
        let mut names = Names::new();
        let rock = Value::Str(names.intern("Rock"));
        let number = Value::Number(names.intern("3.5"));
        assert_eq!(names.show(&rock).to_string(), "'Rock'");
        assert_eq!(names.show(&number).to_string(), "3.5");
    }

    #[test]
    fn numeric_access_is_typed_not_textual() {
        // `3.50` and `3.5` are different symbols (textual equality) but the
        // same number — the executor compares through `numeric()`.
        let mut names = Names::new();
        let mut num = |text: &str| Value::Number(names.intern(text));
        let (padded, plain, big, answer) = (num("3.50"), num("3.5"), num("270000"), num("42"));
        let (text, rock) = (
            Value::Str(names.intern("3.5")),
            Value::Str(names.intern("Rock")),
        );
        assert_ne!(padded, plain);
        assert_eq!(padded.numeric(&names), Some(3.5));
        assert_eq!(big.numeric(&names), Some(270000.0));
        assert_eq!(text.numeric(&names), None);
        assert_eq!(rock.text(&names), "Rock");
        assert_eq!(answer.text(&names), "42");
    }

    #[test]
    fn value_is_copy_sized() {
        assert_eq!(std::mem::size_of::<Value>(), 8);
    }
}
