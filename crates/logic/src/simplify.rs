//! Logic simplification: the ∄·∄ → ∀·∃ rewrite (paper §4.7).
//!
//! SQL has no universal quantifier, so "for all" intent is written as a
//! double negation (`NOT EXISTS ... NOT EXISTS ...`). The rewrite recovers
//! the ∀ through De Morgan's law plus implication introduction:
//!
//! ```text
//! ¬∃S.(p₁ ∧ … ∧ pₖ ∧ ¬∃T.(pₖ₊₁ ∧ … ∧ pₖ₊ₗ))            (1)
//! ≡ ∀S.¬((p₁ ∧ … ∧ pₖ) ∧ ¬∃T.(pₖ₊₁ ∧ … ∧ pₖ₊ₗ))        (2)
//! ≡ ∀S.((p₁ ∧ … ∧ pₖ) → ∃T.(pₖ₊₁ ∧ … ∧ pₖ₊ₗ))          (3)
//! ```
//!
//! The rule applies to an LT node ψ with quantifier ∄ whose **only** child
//! ψ′ is also ∄: ψ becomes ∀ and ψ′ becomes ∃.

use crate::lt::{LogicTree, Quantifier};

/// Return a simplified copy of the tree with all applicable ∄·∄ pairs
/// rewritten to ∀·∃. The rewrite is applied top-down, so chains of four ∄
/// nodes become ∀∃∀∃.
pub fn simplify(tree: &LogicTree) -> LogicTree {
    let mut out = tree.clone();
    simplify_in_place(&mut out);
    out
}

/// The in-place rewrite behind [`simplify`]; returns the number of ∄·∄
/// pairs rewritten. `PreparedQuery::complete` (in `queryvis`) calls it
/// once per compiled branch, timed as the `pass.simplify-forall` stage.
pub fn simplify_in_place(tree: &mut LogicTree) -> usize {
    let mut rewritten = 0;
    for id in tree.preorder() {
        let node = &tree.nodes[id];
        if node.quantifier != Quantifier::NotExists || node.children.len() != 1 {
            continue;
        }
        let child = node.children[0];
        if tree.nodes[child].quantifier == Quantifier::NotExists {
            tree.nodes[id].quantifier = Quantifier::ForAll;
            tree.nodes[child].quantifier = Quantifier::Exists;
            rewritten += 1;
        }
    }
    rewritten
}

/// Count how many ∄·∄ pairs the simplifier would rewrite, leaving `tree`
/// as it is.
pub fn rewritable_pairs(tree: &LogicTree) -> usize {
    simplify_in_place(&mut tree.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::translate;
    use queryvis_sql::parse_query;

    fn lt(sql: &str) -> LogicTree {
        translate(&parse_query(sql).unwrap(), None).unwrap()
    }

    #[test]
    fn qonly_becomes_forall_exists() {
        let tree = lt("SELECT F.person FROM Frequents F WHERE NOT EXISTS \
             (SELECT * FROM Serves S WHERE S.bar = F.bar AND NOT EXISTS \
             (SELECT L.drink FROM Likes L WHERE L.person = F.person AND S.drink = L.drink))");
        let s = simplify(&tree);
        assert_eq!(s.node(1).quantifier, Quantifier::ForAll);
        assert_eq!(s.node(2).quantifier, Quantifier::Exists);
        assert_eq!(rewritable_pairs(&tree), 1);
    }

    #[test]
    fn branching_not_exists_untouched() {
        // A ∄ node with two ∄ children must not be rewritten (paper Fig. 10b:
        // L2 keeps ∄ because it has two children).
        let tree = lt("SELECT A.a FROM A WHERE NOT EXISTS( \
               SELECT * FROM B WHERE B.a = A.a \
               AND NOT EXISTS(SELECT * FROM C WHERE C.b = B.b) \
               AND NOT EXISTS(SELECT * FROM D WHERE D.b = B.b))");
        let s = simplify(&tree);
        assert_eq!(s.node(1).quantifier, Quantifier::NotExists);
        // But the two grandchildren pairs are leaves, so they stay ∄ too.
        assert_eq!(s.node(2).quantifier, Quantifier::NotExists);
        assert_eq!(s.node(3).quantifier, Quantifier::NotExists);
    }

    #[test]
    fn unique_set_matches_fig10b() {
        let tree = lt("SELECT L1.drinker FROM Likes L1 WHERE NOT EXISTS( \
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
                   AND L6.beer = L5.beer)))");
        let s = simplify(&tree);
        let quant_of = |alias: &str| {
            let id = s.owner_of(alias).unwrap();
            s.node(id).quantifier
        };
        assert_eq!(quant_of("L2"), Quantifier::NotExists);
        assert_eq!(quant_of("L3"), Quantifier::ForAll);
        assert_eq!(quant_of("L4"), Quantifier::Exists);
        assert_eq!(quant_of("L5"), Quantifier::ForAll);
        assert_eq!(quant_of("L6"), Quantifier::Exists);
        assert_eq!(rewritable_pairs(&tree), 2);
    }

    #[test]
    fn four_chain_alternates() {
        let tree = lt("SELECT A.a FROM A WHERE NOT EXISTS( \
              SELECT * FROM B WHERE B.a = A.a AND NOT EXISTS( \
               SELECT * FROM C WHERE C.b = B.b AND NOT EXISTS( \
                SELECT * FROM D WHERE D.c = C.c AND NOT EXISTS( \
                 SELECT * FROM E WHERE E.d = D.d))))");
        let s = simplify(&tree);
        let quants: Vec<Quantifier> = (1..=4).map(|i| s.node(i).quantifier).collect();
        assert_eq!(
            quants,
            vec![
                Quantifier::ForAll,
                Quantifier::Exists,
                Quantifier::ForAll,
                Quantifier::Exists
            ]
        );
    }

    #[test]
    fn exists_chain_untouched() {
        let tree = lt("SELECT A.a FROM A WHERE EXISTS( \
             SELECT * FROM B WHERE B.a = A.a AND EXISTS( \
             SELECT * FROM C WHERE C.b = B.b))");
        let s = simplify(&tree);
        assert_eq!(s.node(1).quantifier, Quantifier::Exists);
        assert_eq!(s.node(2).quantifier, Quantifier::Exists);
        assert_eq!(rewritable_pairs(&tree), 0);
    }

    #[test]
    fn simplify_is_idempotent() {
        let tree = lt("SELECT F.person FROM Frequents F WHERE NOT EXISTS \
             (SELECT * FROM Serves S WHERE S.bar = F.bar AND NOT EXISTS \
             (SELECT L.drink FROM Likes L WHERE L.person = F.person))");
        let once = simplify(&tree);
        let twice = simplify(&once);
        assert_eq!(once, twice);
    }
}
