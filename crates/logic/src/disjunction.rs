//! Disjunction lowering: expand `OR` into OR-free blocks before
//! translation, without copying the AST.
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
//!
//! The lowered blocks point into the written AST. A `Lowering` is one
//! arena of OR-free blocks, each its written block (`&Query`: select list,
//! FROM list, grouping) plus its own list of `Conjunct`s. A conjunct is a
//! written comparison, or a written subquery predicate paired with the
//! arena index of one lowered block of its subquery. Conjuncts are `Copy`,
//! so a cross product copies conjunct lists, never a predicate, subquery,
//! select or FROM list. OR-free queries are never lowered at all: the
//! translator walks them as written.

use crate::translate::TranslateError;
use queryvis_sql::ast::SubqueryQuantifier;
use queryvis_sql::{Predicate, Query};
use std::ops::Range;

/// Upper bound on the conjunctive branches any single block may expand
/// into (and on the final number of root branches).
pub const MAX_DISJUNCTION_BRANCHES: usize = 32;

/// One conjunct of a lowered block.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Conjunct<'q> {
    /// A comparison, as written.
    Compare(&'q Predicate),
    /// A subquery predicate whose subquery is the given lowered block. The
    /// predicate supplies the head (column, operator, quantifier,
    /// negation); its written subquery is read only through that block.
    Subquery(&'q Predicate, u32),
}

/// One OR-free block: its written block and its own conjuncts, a range of
/// [`Lowering::conjuncts`].
#[derive(Debug)]
struct LoweredBlock<'q> {
    query: &'q Query,
    conjuncts: Range<u32>,
}

/// A written block lowered into OR-free blocks, all in one arena. The
/// roots are the union branches the written block is equivalent to, in
/// branch order: choices expand left to right, written order first.
#[derive(Debug)]
pub(crate) struct Lowering<'q> {
    blocks: Vec<LoweredBlock<'q>>,
    conjuncts: Vec<Conjunct<'q>>,
    roots: Range<u32>,
}

impl<'q> Lowering<'q> {
    /// Lower every disjunction in `query`. A root split of a grouped
    /// block is refused (it would change aggregate results).
    pub(crate) fn of(query: &'q Query) -> Result<Lowering<'q>, TranslateError> {
        let mut lowering = Lowering {
            blocks: Vec::new(),
            conjuncts: Vec::new(),
            roots: 0..0,
        };
        lowering.roots = lowering.expand(query)?;
        if lowering.roots.len() > 1 && query.uses_grouping() {
            return Err(TranslateError::DisjunctiveAggregate);
        }
        Ok(lowering)
    }

    /// The root branches' block indices.
    pub(crate) fn roots(&self) -> Range<u32> {
        self.roots.clone()
    }

    /// The written block behind lowered block `block`.
    pub(crate) fn query(&self, block: u32) -> &'q Query {
        self.blocks[block as usize].query
    }

    /// Lowered block `block`'s conjuncts, in order.
    pub(crate) fn conjuncts(&self, block: u32) -> &[Conjunct<'q>] {
        let range = &self.blocks[block as usize].conjuncts;
        &self.conjuncts[range.start as usize..range.end as usize]
    }

    /// Expand one written block into OR-free blocks whose union is
    /// equivalent, appended to the arena; returns their indices. Each
    /// conjunct contributes its alternatives, and the block's expansions
    /// are the cross product of them, deduplicated in first-seen order
    /// (`a OR a`).
    fn expand(&mut self, query: &'q Query) -> Result<Range<u32>, TranslateError> {
        let mut wheres = Alternatives::one_empty();
        for predicate in &query.where_clause {
            wheres = self.conjoin(wheres, predicate)?;
        }
        let start = self.blocks.len();
        for where_clause in wheres.iter() {
            let seen = (start..self.blocks.len())
                .any(|b| self.same_conjuncts(self.conjuncts(b as u32), where_clause));
            if !seen {
                let begin = self.conjuncts.len() as u32;
                self.conjuncts.extend_from_slice(where_clause);
                let end = self.conjuncts.len() as u32;
                self.blocks.push(LoweredBlock {
                    query,
                    conjuncts: begin..end,
                });
            }
        }
        Ok(start as u32..self.blocks.len() as u32)
    }

    /// Conjoin `predicate` to each of `wheres`: the cross product with
    /// the disjunctive alternatives the predicate expands to. A single
    /// alternative means the predicate does not split (possibly because
    /// its inner disjunctions De-Morganed into a conjunction of siblings).
    fn conjoin(
        &mut self,
        mut wheres: Alternatives<'q>,
        predicate: &'q Predicate,
    ) -> Result<Alternatives<'q>, TranslateError> {
        let choices = match predicate {
            // One alternative of one conjunct: appended in place.
            Predicate::Compare { .. } => {
                wheres.append(Conjunct::Compare(predicate));
                return Ok(wheres);
            }
            Predicate::Or(branches) => self.or_choices(branches)?,
            Predicate::Exists { negated, query } | Predicate::InSubquery { negated, query, .. } => {
                self.subquery_choices(predicate, query, !negated)?
            }
            // The quantifier's effective polarity mirrors the translator's
            // de-sugaring table: ANY ≈ ∃, ALL ≈ ∄, NOT flips.
            Predicate::Quantified {
                quantifier,
                negated,
                query,
                ..
            } => {
                let positive = match quantifier {
                    SubqueryQuantifier::Any => !negated,
                    SubqueryQuantifier::All => *negated,
                };
                self.subquery_choices(predicate, query, positive)?
            }
        };
        wheres.cross_capped(&choices)
    }

    /// A written disjunction's alternatives: those of every branch, in
    /// branch order. Branches are conjunctions, so each expands through
    /// its own cross product first.
    fn or_choices(
        &mut self,
        branches: &'q [Vec<Predicate>],
    ) -> Result<Alternatives<'q>, TranslateError> {
        let mut choices = Alternatives::default();
        for branch in branches {
            let mut partial = Alternatives::one_empty();
            for conjunct in branch {
                partial = self.conjoin(partial, conjunct)?;
            }
            choices.extend(&partial);
            if choices.len() > MAX_DISJUNCTION_BRANCHES {
                return Err(TranslateError::DisjunctionTooWide {
                    branches: choices.len(),
                });
            }
        }
        Ok(choices)
    }

    /// A subquery predicate's alternatives, from its subquery's lowered
    /// blocks.
    fn subquery_choices(
        &mut self,
        predicate: &'q Predicate,
        subquery: &'q Query,
        positive: bool,
    ) -> Result<Alternatives<'q>, TranslateError> {
        let blocks = self.expand(subquery)?;
        let mut choices = Alternatives::default();
        for block in blocks {
            choices.items.push(Conjunct::Subquery(predicate, block));
            // ∃-flavored: each of the subquery's branches is an
            // alternative of this conjunct.
            if positive {
                choices.close();
            }
        }
        // ∄-flavored: De Morgan — one alternative holding a sibling
        // negated block per branch.
        if !positive {
            choices.close();
        }
        Ok(choices)
    }

    /// Conjunct lists compare as the lowered `Vec<Predicate>`s they stand
    /// for would: comparisons by value, subquery predicates by head and
    /// lowered block.
    fn same_conjuncts(&self, a: &[Conjunct<'q>], b: &[Conjunct<'q>]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|pair| match pair {
                (Conjunct::Compare(p), Conjunct::Compare(q)) => p == q,
                (Conjunct::Subquery(p, i), Conjunct::Subquery(q, j)) => {
                    same_head(p, q) && self.same_block(*i, *j)
                }
                _ => false,
            })
    }

    /// Two lowered blocks compare as the lowered queries they stand for:
    /// select, FROM and grouping of their written blocks, and their
    /// conjuncts.
    fn same_block(&self, i: u32, j: u32) -> bool {
        if i == j {
            return true;
        }
        let (a, b) = (self.query(i), self.query(j));
        let same_frame = std::ptr::eq(a, b)
            || (a.select == b.select
                && a.from == b.from
                && a.group_by == b.group_by
                && a.having == b.having);
        same_frame && self.same_conjuncts(self.conjuncts(i), self.conjuncts(j))
    }
}

/// Two subquery predicates have the same head: variant, column, operator,
/// quantifier and negation, everything but the subquery.
fn same_head(p: &Predicate, q: &Predicate) -> bool {
    match (p, q) {
        (Predicate::Exists { negated: a, .. }, Predicate::Exists { negated: b, .. }) => a == b,
        (
            Predicate::InSubquery {
                column: c1,
                negated: n1,
                ..
            },
            Predicate::InSubquery {
                column: c2,
                negated: n2,
                ..
            },
        ) => c1 == c2 && n1 == n2,
        (
            Predicate::Quantified {
                column: c1,
                op: o1,
                quantifier: q1,
                negated: n1,
                ..
            },
            Predicate::Quantified {
                column: c2,
                op: o2,
                quantifier: q2,
                negated: n2,
                ..
            },
        ) => c1 == c2 && o1 == o2 && q1 == q2 && n1 == n2,
        _ => false,
    }
}

/// A list of alternatives, each a conjunct list, stored flat: alternative
/// `i` is `items[ends[i - 1]..ends[i]]` (from 0 for the first).
#[derive(Default)]
struct Alternatives<'q> {
    items: Vec<Conjunct<'q>>,
    ends: Vec<u32>,
}

impl<'q> Alternatives<'q> {
    /// The unit of the cross product: one empty alternative.
    fn one_empty() -> Self {
        Alternatives {
            items: Vec::new(),
            ends: vec![0],
        }
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    /// End the alternative the items pushed since the last end form.
    fn close(&mut self) {
        self.ends.push(self.items.len() as u32);
    }

    fn iter(&self) -> impl Iterator<Item = &[Conjunct<'q>]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.items[start as usize..end as usize])
    }

    /// Append `conjunct` to every alternative: the cross product with a
    /// single one-conjunct alternative, which never exceeds the cap (no
    /// list of alternatives is longer than the cap).
    fn append(&mut self, conjunct: Conjunct<'q>) {
        if let [end] = self.ends.as_mut_slice() {
            self.items.push(conjunct);
            *end += 1;
            return;
        }
        let mut next = Alternatives::default();
        for alternative in self.iter() {
            next.items.extend_from_slice(alternative);
            next.items.push(conjunct);
            next.close();
        }
        *self = next;
    }

    /// Append `other`'s alternatives after these.
    fn extend(&mut self, other: &Alternatives<'q>) {
        for alternative in other.iter() {
            self.items.extend_from_slice(alternative);
            self.close();
        }
    }

    /// Cross these alternatives with `choices`, enforcing the branch cap
    /// **before** materializing the product — an adversarial chain of
    /// independent disjunctions must fail in O(1), not after building an
    /// exponential number of conjunct lists.
    fn cross_capped(self, choices: &Alternatives<'q>) -> Result<Self, TranslateError> {
        let product = self.len().saturating_mul(choices.len());
        if product > MAX_DISJUNCTION_BRANCHES {
            return Err(TranslateError::DisjunctionTooWide { branches: product });
        }
        let mut next = Alternatives {
            items: Vec::with_capacity(
                choices.len() * self.items.len() + self.len() * choices.items.len(),
            ),
            ends: Vec::with_capacity(product),
        };
        for combination in self.iter() {
            for choice in choices.iter() {
                next.items.extend_from_slice(combination);
                next.items.extend_from_slice(choice);
                next.close();
            }
        }
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use queryvis_sql::printer::to_sql_one_line;
    use queryvis_sql::{parse_query, Names};

    /// Materialize a query's lowered branches as OR-free queries, for
    /// printing (OR-free queries come back as written).
    fn lower_disjunctions(query: &Query) -> Result<Vec<Query>, TranslateError> {
        if !query.has_disjunction() {
            return Ok(vec![query.clone()]);
        }
        let lowering = Lowering::of(query)?;
        Ok(lowering
            .roots()
            .map(|b| materialize(&lowering, b))
            .collect())
    }

    fn materialize(lowering: &Lowering<'_>, block: u32) -> Query {
        let written = lowering.query(block);
        let where_clause = lowering
            .conjuncts(block)
            .iter()
            .map(|conjunct| match *conjunct {
                Conjunct::Compare(p) => p.clone(),
                Conjunct::Subquery(p, sub) => {
                    let query = Box::new(materialize(lowering, sub));
                    match p {
                        Predicate::Exists { negated, .. } => Predicate::Exists {
                            negated: *negated,
                            query,
                        },
                        Predicate::InSubquery {
                            column, negated, ..
                        } => Predicate::InSubquery {
                            column: *column,
                            negated: *negated,
                            query,
                        },
                        Predicate::Quantified {
                            column,
                            op,
                            quantifier,
                            negated,
                            ..
                        } => Predicate::Quantified {
                            column: *column,
                            op: *op,
                            quantifier: *quantifier,
                            negated: *negated,
                            query,
                        },
                        Predicate::Compare { .. } | Predicate::Or(_) => unreachable!(),
                    }
                }
            })
            .collect();
        Query {
            where_clause,
            ..written.clone()
        }
    }

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
        // request must never build an exponential number of conjunct
        // lists — this returned after 32^4 clones before the cap moved
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
