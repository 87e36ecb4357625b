//! Disjunction lowering: rewrite `OR` out of the AST before translation.
//!
//! QueryVis diagrams render *conjunctive* blocks; the follow-up work the
//! reproduction tracks (Principles of Query Visualization; the Tutorial on
//! Visual Representations of Relational Queries) handles disjunction by
//! normalizing it away. This module implements that convention,
//! **polarity-aware**:
//!
//! * Under an *even* number of negations (the root block, `EXISTS`, `IN`,
//!   `= ANY`, `NOT … ALL`), a disjunction distributes outward:
//!   `∃t(a ∨ b) ≡ ∃t(a) ∨ ∃t(b)`. The split propagates to the top and the
//!   query becomes a **union of conjunctive queries** — rendered exactly
//!   like a written `UNION`, one diagram per branch.
//! * Under an *odd* number of negations (`NOT EXISTS`, `NOT IN`, `ALL`,
//!   `NOT … ANY`), De Morgan turns the disjunction into a conjunction of
//!   sibling negated blocks: `¬∃t(a ∨ b) ≡ ¬∃t(a) ∧ ¬∃t(b)`. The block
//!   splits into **sibling ∄-groups** inside one diagram — the tutorial's
//!   sibling-group convention.
//!
//! Both rewrites preserve set semantics (the fragment's implied semantics;
//! under `UNION ALL` a root split may change multiplicities, which the
//! docs call out). The cross-product of independent disjunctions is capped
//! at [`MAX_DISJUNCTION_BRANCHES`] per block so an adversarial request
//! cannot blow up the service; grouped queries refuse root-level splits
//! (splitting a `GROUP BY` across branches would change aggregate results).

use crate::translate::TranslateError;
use queryvis_sql::{Predicate, Query};

/// Upper bound on the conjunctive branches any single block may expand
/// into (and on the final number of root branches).
pub const MAX_DISJUNCTION_BRANCHES: usize = 32;

/// True if the query contains any `OR` anywhere (cheap pre-check so
/// OR-free queries skip lowering entirely, clone included).
pub fn has_disjunction(query: &Query) -> bool {
    query.has_disjunction()
}

/// Lower every disjunction in `query`, returning the equivalent union of
/// OR-free conjunctive queries (in deterministic branch order: choices
/// expand left-to-right, textual order first). A query without `OR`
/// returns itself as the single branch.
pub fn lower_disjunctions(query: &Query) -> Result<Vec<Query>, TranslateError> {
    if !has_disjunction(query) {
        return Ok(vec![query.clone()]);
    }
    let branches = expand_query(query)?;
    if branches.len() > 1 && query.uses_grouping() {
        return Err(TranslateError::DisjunctiveAggregate);
    }
    Ok(branches)
}

/// Cross a running set of conjunctions with one conjunct's choices,
/// enforcing the branch cap **before** materializing the product — an
/// adversarial chain of independent disjunctions must fail in O(1), not
/// after cloning an exponential number of predicate vectors.
fn cross_capped(
    base: Vec<Vec<Predicate>>,
    choices: &[Vec<Predicate>],
) -> Result<Vec<Vec<Predicate>>, TranslateError> {
    let product = base.len().saturating_mul(choices.len());
    if product > MAX_DISJUNCTION_BRANCHES {
        return Err(TranslateError::DisjunctionTooWide { branches: product });
    }
    let mut next = Vec::with_capacity(product);
    for combination in &base {
        for choice in choices {
            let mut combined = combination.clone();
            combined.extend(choice.iter().cloned());
            next.push(combined);
        }
    }
    Ok(next)
}

/// Expand one block into OR-free queries whose union is equivalent.
fn expand_query(query: &Query) -> Result<Vec<Query>, TranslateError> {
    // Each conjunct contributes a *choice list*: the disjunctive
    // alternatives it expands to, each alternative being a conjunction
    // chunk. The block's expansions are the cross product of the choices.
    let mut wheres: Vec<Vec<Predicate>> = vec![Vec::new()];
    for conjunct in &query.where_clause {
        let choices = pred_choices(conjunct)?;
        wheres = cross_capped(wheres, &choices)?;
    }
    // Dedup identical branches (`a OR a`), preserving first-seen order.
    let mut unique: Vec<Vec<Predicate>> = Vec::with_capacity(wheres.len());
    for w in wheres {
        if !unique.contains(&w) {
            unique.push(w);
        }
    }
    Ok(unique
        .into_iter()
        .map(|where_clause| Query {
            select: query.select.clone(),
            from: query.from.clone(),
            where_clause,
            group_by: query.group_by.clone(),
            having: query.having.clone(),
        })
        .collect())
}

/// The disjunctive alternatives one conjunct expands to. A single-element
/// result means the conjunct does not split (possibly because its inner
/// disjunctions De-Morganed into a conjunction of siblings).
fn pred_choices(pred: &Predicate) -> Result<Vec<Vec<Predicate>>, TranslateError> {
    match pred {
        Predicate::Compare { .. } => Ok(vec![vec![pred.clone()]]),
        // ∃-flavored subqueries (positive polarity): the subquery's union
        // branches become alternatives of this conjunct.
        Predicate::Exists {
            negated: false,
            query,
        } => Ok(expand_query(query)?
            .into_iter()
            .map(|q| {
                vec![Predicate::Exists {
                    negated: false,
                    query: Box::new(q),
                }]
            })
            .collect()),
        // ∄-flavored subqueries (negative polarity): De Morgan — one
        // alternative holding a sibling negated block per union branch.
        Predicate::Exists {
            negated: true,
            query,
        } => Ok(vec![expand_query(query)?
            .into_iter()
            .map(|q| Predicate::Exists {
                negated: true,
                query: Box::new(q),
            })
            .collect()]),
        Predicate::InSubquery {
            column,
            negated,
            query,
        } => {
            let rebuilt = |q: Query| Predicate::InSubquery {
                column: *column,
                negated: *negated,
                query: Box::new(q),
            };
            let subs = expand_query(query)?;
            if *negated {
                Ok(vec![subs.into_iter().map(rebuilt).collect()])
            } else {
                Ok(subs.into_iter().map(|q| vec![rebuilt(q)]).collect())
            }
        }
        Predicate::Quantified {
            column,
            op,
            quantifier,
            negated,
            query,
        } => {
            use queryvis_sql::ast::SubqueryQuantifier as SQ;
            let rebuilt = |q: Query| Predicate::Quantified {
                column: *column,
                op: *op,
                quantifier: *quantifier,
                negated: *negated,
                query: Box::new(q),
            };
            // The quantifier's effective polarity mirrors the translator's
            // de-sugaring table: ANY ≈ ∃, ALL ≈ ∄, NOT flips.
            let positive = match (quantifier, negated) {
                (SQ::Any, false) | (SQ::All, true) => true,
                (SQ::Any, true) | (SQ::All, false) => false,
            };
            let subs = expand_query(query)?;
            if positive {
                Ok(subs.into_iter().map(|q| vec![rebuilt(q)]).collect())
            } else {
                Ok(vec![subs.into_iter().map(rebuilt).collect()])
            }
        }
        // A written disjunction: the alternatives of every branch, in
        // branch order. Branches are conjunctions, so each expands through
        // its own cross product first.
        Predicate::Or(branches) => {
            let mut choices = Vec::new();
            for branch in branches {
                let mut partial: Vec<Vec<Predicate>> = vec![Vec::new()];
                for conjunct in branch {
                    let conjunct_choices = pred_choices(conjunct)?;
                    partial = cross_capped(partial, &conjunct_choices)?;
                }
                choices.extend(partial);
                if choices.len() > MAX_DISJUNCTION_BRANCHES {
                    return Err(TranslateError::DisjunctionTooWide {
                        branches: choices.len(),
                    });
                }
            }
            Ok(choices)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use queryvis_sql::printer::to_sql_one_line;
    use queryvis_sql::{parse_query, Names};

    fn branches(sql: &str) -> Vec<String> {
        let mut names = Names::new();
        let query = parse_query(sql, &mut names).unwrap();
        lower_disjunctions(&query)
            .unwrap()
            .iter()
            .map(|q| to_sql_one_line(q, &names))
            .collect()
    }

    #[test]
    fn or_free_query_is_untouched() {
        let q = parse_query("SELECT T.a FROM T WHERE T.a = 1", &mut Names::new()).unwrap();
        let lowered = lower_disjunctions(&q).unwrap();
        assert_eq!(lowered, vec![q]);
    }

    #[test]
    fn root_or_splits_into_union_branches() {
        let bs = branches("SELECT T.a FROM T WHERE T.a = 1 OR T.b = 2");
        assert_eq!(bs.len(), 2);
        assert!(bs[0].contains("T.a = 1") && !bs[0].contains("T.b"));
        assert!(bs[1].contains("T.b = 2") && !bs[1].contains("T.a = 1"));
    }

    #[test]
    fn and_distributes_over_or() {
        let bs = branches("SELECT T.a FROM T WHERE T.x = 9 AND (T.a = 1 OR T.b = 2)");
        assert_eq!(bs.len(), 2);
        for b in &bs {
            assert!(b.contains("T.x = 9"), "{b}");
        }
    }

    #[test]
    fn two_disjunctions_cross_product() {
        let bs = branches("SELECT T.a FROM T WHERE (T.a = 1 OR T.b = 2) AND (T.c = 3 OR T.d = 4)");
        assert_eq!(bs.len(), 4);
    }

    #[test]
    fn not_exists_or_becomes_sibling_groups() {
        // ¬∃S(a ∨ b) ≡ ¬∃S(a) ∧ ¬∃S(b): one branch, two sibling blocks.
        let bs = branches(
            "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
             (SELECT * FROM Serves S WHERE S.bar = F.bar AND \
              (S.drink = 'IPA' OR S.drink = 'Stout'))",
        );
        assert_eq!(bs.len(), 1, "{bs:?}");
        assert_eq!(bs[0].matches("NOT EXISTS").count(), 2, "{bs:?}");
    }

    #[test]
    fn exists_or_lifts_to_the_root() {
        let bs = branches(
            "SELECT F.person FROM Frequents F WHERE EXISTS \
             (SELECT * FROM Serves S WHERE S.bar = F.bar AND \
              (S.drink = 'IPA' OR S.drink = 'Stout'))",
        );
        assert_eq!(bs.len(), 2, "{bs:?}");
    }

    #[test]
    fn all_quantifier_is_negative_polarity() {
        let bs = branches(
            "SELECT T.a FROM T WHERE T.a >= ALL \
             (SELECT S.b FROM S WHERE S.x = 1 OR S.y = 2)",
        );
        assert_eq!(bs.len(), 1, "{bs:?}");
        assert_eq!(bs[0].matches(">= ALL").count(), 2, "{bs:?}");
    }

    #[test]
    fn duplicate_disjuncts_dedup() {
        let bs = branches("SELECT T.a FROM T WHERE T.a = 1 OR T.a = 1");
        assert_eq!(bs.len(), 1);
    }

    #[test]
    fn grouped_query_refuses_root_split() {
        let q = parse_query(
            "SELECT T.a, COUNT(T.b) FROM T WHERE T.a = 1 OR T.b = 2 GROUP BY T.a",
            &mut Names::new(),
        )
        .unwrap();
        assert_eq!(
            lower_disjunctions(&q).unwrap_err(),
            TranslateError::DisjunctiveAggregate
        );
        // But a negative-polarity OR under grouping is fine.
        let q = parse_query(
            "SELECT T.a, COUNT(T.b) FROM T WHERE NOT EXISTS \
             (SELECT * FROM S WHERE S.a = T.a AND (S.x = 1 OR S.y = 2)) \
             GROUP BY T.a",
            &mut Names::new(),
        )
        .unwrap();
        assert_eq!(lower_disjunctions(&q).unwrap().len(), 1);
    }

    #[test]
    fn explosion_inside_an_or_branch_fails_fast() {
        // An OR whose branch is a conjunction of subqueries, each itself
        // expanding to many branches: the per-conjunct cap must fire on
        // the *product size* before materializing it (a few-hundred-token
        // request must never clone an exponential number of predicate
        // vectors — this returned after 32^4 clones before the cap moved
        // into the cross product).
        let exists = |i: usize| {
            format!(
                "EXISTS (SELECT * FROM E{i} WHERE E{i}.k = T.a AND {})",
                (0..5)
                    .map(|j| format!("(E{i}.a{j} = 1 OR E{i}.b{j} = 2)"))
                    .collect::<Vec<_>>()
                    .join(" AND ")
            )
        };
        let sql = format!(
            "SELECT T.a FROM T WHERE ({} OR T.x = 0)",
            (0..4).map(exists).collect::<Vec<_>>().join(" AND ")
        );
        let q = parse_query(&sql, &mut Names::new()).unwrap();
        let start = std::time::Instant::now();
        assert!(matches!(
            lower_disjunctions(&q).unwrap_err(),
            TranslateError::DisjunctionTooWide { .. }
        ));
        assert!(
            start.elapsed() < std::time::Duration::from_millis(250),
            "cap fired only after materializing the cross product"
        );
    }

    #[test]
    fn explosion_is_capped() {
        // 2^6 = 64 > 32 branches.
        let sql = format!(
            "SELECT T.a FROM T WHERE {}",
            (0..6)
                .map(|i| format!("(T.a{i} = 1 OR T.b{i} = 2)"))
                .collect::<Vec<_>>()
                .join(" AND ")
        );
        let q = parse_query(&sql, &mut Names::new()).unwrap();
        assert!(matches!(
            lower_disjunctions(&q).unwrap_err(),
            TranslateError::DisjunctionTooWide { .. }
        ));
    }
}
