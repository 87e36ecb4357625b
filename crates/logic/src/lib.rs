//! # queryvis-logic
//!
//! The first-order-logic layer of QueryVis (paper §4.7, §5.1, Appendix A):
//!
//! * [`lt`] — the **Logic Tree (LT)**: a rooted tree of query blocks, each
//!   holding its tables, conjunctive predicates, and quantifier (∃, ∄, ∀).
//! * [`translate`](mod@translate) — SQL AST → LT, de-sugaring `IN` / `NOT IN` /
//!   `ANY` / `ALL` into the corresponding quantifiers (and `HAVING` into
//!   post-grouping predicates on the root block).
//! * [`disjunction`] — polarity-aware `OR` lowering: negative-polarity
//!   disjunctions become sibling ∄-groups, positive-polarity ones split
//!   the query into union branches (`translate_branches`).
//! * [`simplify`](mod@simplify) — the De Morgan rewrite ∄·∄ → ∀·∃ that introduces the
//!   universal quantifier (a construct SQL itself lacks).
//! * [`validate`] — the *non-degeneracy* properties 5.1 (local attributes)
//!   and 5.2 (connected subqueries) under which diagrams are provably
//!   unambiguous, plus the depth ≤ 3 validity bound.
//! * [`trc`] — rendering of an LT as a tuple-relational-calculus expression
//!   (paper Fig. 9).

pub mod disjunction;
pub mod lt;
pub mod simplify;
pub mod translate;
pub mod trc;
pub mod validate;

pub use disjunction::MAX_DISJUNCTION_BRANCHES;
pub use lt::{
    AttrRef, LogicTree, LtHaving, LtNode, LtOperand, LtPredicate, LtTable, NodeId, Quantifier,
    SelectAttr,
};
pub use queryvis_ir::{Names, Symbol};
pub use simplify::{simplify, simplify_in_place};
pub use translate::{translate, translate_branches, TranslateError};
pub use trc::to_trc;
pub use validate::{
    check_non_degenerate, check_valid_diagram_source, DegeneracyError, MAX_DIAGRAM_DEPTH,
};

#[cfg(test)]
mod tests {
    use super::*;
    use queryvis_sql::{parse_query, Names};

    #[test]
    fn end_to_end_unique_set() {
        let mut names = Names::new();
        let q = parse_query(
            "SELECT L1.drinker FROM Likes L1 WHERE NOT EXISTS( \
               SELECT * FROM Likes L2 WHERE L1.drinker <> L2.drinker \
               AND NOT EXISTS( \
                 SELECT * FROM Likes L3 WHERE L3.drinker = L2.drinker \
                 AND NOT EXISTS( \
                   SELECT * FROM Likes L4 WHERE L4.drinker = L1.drinker \
                   AND L4.beer = L3.beer)) \
               AND NOT EXISTS( \
                 SELECT * FROM Likes L5 WHERE L5.drinker = L1.drinker \
                 AND NOT EXISTS( \
                   SELECT * FROM Likes L6 WHERE L6.drinker = L2.drinker \
                   AND L6.beer = L5.beer)))",
            &mut names,
        )
        .unwrap();
        let lt = translate(&q, None, &mut names).unwrap();
        assert_eq!(lt.node_count(), 6);
        assert_eq!(lt.max_depth(), 3);
        check_non_degenerate(&lt, &names).unwrap();

        let simplified = simplify(&lt);
        // L3 and L5 become ∀; L4 and L6 become ∃; L2 stays ∄ (two children).
        let foralls = simplified
            .nodes()
            .filter(|n| n.quantifier == Quantifier::ForAll)
            .count();
        let exists = simplified
            .nodes()
            .filter(|n| n.quantifier == Quantifier::Exists && !n.is_root())
            .count();
        assert_eq!(foralls, 2);
        assert_eq!(exists, 2);
    }
}
