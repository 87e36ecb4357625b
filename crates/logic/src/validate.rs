//! Non-degeneracy validation (paper §5.1) and diagram-validity bounds.
//!
//! QueryVis diagrams are provably unambiguous only for *non-degenerate*
//! queries of nesting depth ≤ 3. The two properties:
//!
//! * **Property 5.1 (local attributes)** — every predicate in a query block
//!   references at least one attribute of a table from that same block.
//!   A violating predicate could be pulled up to an ancestor, and after
//!   De Morgan it would express a *disjunction*, which is outside the
//!   fragment.
//! * **Property 5.2 (connected subqueries)** — every nested block either
//!   has a predicate referencing an attribute of its parent block, or each
//!   of its directly nested blocks references both it and its parent.

use crate::lt::{LogicTree, LtNode, LtOperand, NodeId};
use std::fmt;

/// The depth bound for which diagrams are proven unambiguous (paper §5.2).
pub const MAX_DIAGRAM_DEPTH: usize = 3;

/// A violation of the non-degeneracy properties (or the depth bound).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegeneracyError {
    /// Property 5.1: a predicate without any local attribute.
    NonLocalPredicate { node: NodeId, predicate: String },
    /// Property 5.2: a block with no logical connection to its parent.
    DisconnectedBlock { node: NodeId },
    /// The tree exceeds the unambiguity depth bound of 3.
    TooDeep { depth: usize },
    /// A HAVING predicate on a tree with no grouping attributes — the
    /// post-grouping block it would attach to does not exist. The parser
    /// cannot produce this; it guards hand-constructed trees.
    HavingWithoutGrouping,
}

impl fmt::Display for DegeneracyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegeneracyError::NonLocalPredicate { node, predicate } => write!(
                f,
                "Property 5.1 violated: predicate {predicate} in block {node} \
                 references no local attribute (it encodes a disjunction)"
            ),
            DegeneracyError::DisconnectedBlock { node } => write!(
                f,
                "Property 5.2 violated: block {node} has no predicate linking \
                 it (or all of its children) to its parent block"
            ),
            DegeneracyError::TooDeep { depth } => write!(
                f,
                "nesting depth {depth} exceeds the unambiguity bound of {MAX_DIAGRAM_DEPTH}"
            ),
            DegeneracyError::HavingWithoutGrouping => write!(
                f,
                "HAVING predicates require grouping attributes on the root block"
            ),
        }
    }
}

impl std::error::Error for DegeneracyError {}

/// Check Properties 5.1 and 5.2 (plus the HAVING attachment rule).
/// Returns the first violation found.
pub fn check_non_degenerate(tree: &LogicTree) -> Result<(), DegeneracyError> {
    check_local_attributes(tree)?;
    check_connected_subqueries(tree)?;
    check_having_attachment(tree)?;
    Ok(())
}

/// HAVING conjuncts attach to the grouping block; a tree carrying them
/// without grouping attributes has no such block.
pub fn check_having_attachment(tree: &LogicTree) -> Result<(), DegeneracyError> {
    if !tree.having.is_empty() && tree.group_by.is_empty() {
        return Err(DegeneracyError::HavingWithoutGrouping);
    }
    Ok(())
}

/// Check non-degeneracy *and* the depth ≤ 3 bound — i.e. whether the tree
/// is a valid source for a provably unambiguous diagram (paper §5.2).
pub fn check_valid_diagram_source(tree: &LogicTree) -> Result<(), DegeneracyError> {
    let depth = tree.max_depth();
    if depth > MAX_DIAGRAM_DEPTH {
        return Err(DegeneracyError::TooDeep { depth });
    }
    check_non_degenerate(tree)
}

/// Property 5.1.
pub fn check_local_attributes(tree: &LogicTree) -> Result<(), DegeneracyError> {
    for node in tree.nodes() {
        for pred in &node.predicates {
            if !references_local(node, pred) {
                return Err(DegeneracyError::NonLocalPredicate {
                    node: node.id,
                    predicate: pred.to_string(),
                });
            }
        }
    }
    Ok(())
}

fn references_local(node: &LtNode, pred: &crate::lt::LtPredicate) -> bool {
    if node.defines(pred.lhs.binding) {
        return true;
    }
    match pred.rhs {
        LtOperand::Attr(a) => node.defines(a.binding),
        LtOperand::Const(_) => false,
    }
}

/// Property 5.2.
pub fn check_connected_subqueries(tree: &LogicTree) -> Result<(), DegeneracyError> {
    for node in tree.nodes() {
        let Some(parent) = node.parent else { continue };
        if references_node(tree, node, parent) {
            continue;
        }
        // Fallback: every direct child must reference both `node` and its
        // parent.
        let ok = !node.children.is_empty()
            && node.children.iter().all(|&c| {
                let child = tree.node(c);
                references_node(tree, child, node.id) && references_node(tree, child, parent)
            });
        if !ok {
            return Err(DegeneracyError::DisconnectedBlock { node: node.id });
        }
    }
    Ok(())
}

/// True if any predicate of `node` references an attribute of a table
/// introduced by block `target`.
fn references_node(tree: &LogicTree, node: &LtNode, target: NodeId) -> bool {
    let target_node = tree.node(target);
    node.predicates.iter().any(|p| {
        target_node.defines(p.lhs.binding)
            || matches!(p.rhs, LtOperand::Attr(a) if target_node.defines(a.binding))
    })
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
    fn well_formed_query_passes() {
        let tree = lt("SELECT F.person FROM Frequents F WHERE NOT EXISTS \
             (SELECT * FROM Serves S WHERE S.bar = F.bar AND NOT EXISTS \
             (SELECT L.drink FROM Likes L WHERE L.person = F.person AND S.drink = L.drink))");
        check_non_degenerate(&tree).unwrap();
        check_valid_diagram_source(&tree).unwrap();
    }

    #[test]
    fn paper_example_violates_local_attributes() {
        // §5.1: the predicate F.bar = 'Owl' sits in the Serves block but
        // references only the outer Frequents binding — a smuggled
        // disjunction.
        let tree = lt("SELECT F.person FROM Frequents F WHERE NOT EXISTS \
             (SELECT * FROM Serves S WHERE S.bar = F.bar AND F.bar = 'Owl')");
        let err = check_non_degenerate(&tree).unwrap_err();
        assert!(
            matches!(err, DegeneracyError::NonLocalPredicate { node: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn non_local_join_predicate_detected() {
        // Both sides of the join live in ancestor blocks.
        let tree = lt("SELECT A.x FROM A, B WHERE A.x = B.x AND NOT EXISTS \
             (SELECT * FROM C WHERE A.y = B.y)");
        let err = check_local_attributes(&tree).unwrap_err();
        assert!(matches!(err, DegeneracyError::NonLocalPredicate { .. }));
    }

    #[test]
    fn disconnected_block_detected() {
        // The subquery never references the outer block.
        let tree = lt("SELECT A.x FROM A WHERE NOT EXISTS \
             (SELECT * FROM B WHERE B.y = 'z')");
        let err = check_connected_subqueries(&tree).unwrap_err();
        assert_eq!(err, DegeneracyError::DisconnectedBlock { node: 1 });
    }

    #[test]
    fn grandchild_bridge_satisfies_property_52() {
        // Block B does not reference A directly, but its only child C
        // references both B and A — the second arm of Property 5.2.
        let tree = lt("SELECT A.x FROM A WHERE NOT EXISTS( \
               SELECT * FROM B WHERE B.k = 1 AND NOT EXISTS( \
                 SELECT * FROM C WHERE C.u = B.u AND C.v = A.v))");
        check_connected_subqueries(&tree).unwrap();
    }

    #[test]
    fn grandchild_bridge_must_cover_all_children() {
        // Two children; only one bridges to the grandparent.
        let tree = lt("SELECT A.x FROM A WHERE NOT EXISTS( \
               SELECT * FROM B WHERE B.k = 1 \
               AND NOT EXISTS(SELECT * FROM C WHERE C.u = B.u AND C.v = A.v) \
               AND NOT EXISTS(SELECT * FROM D WHERE D.u = B.u))");
        let err = check_connected_subqueries(&tree).unwrap_err();
        assert_eq!(err, DegeneracyError::DisconnectedBlock { node: 1 });
    }

    #[test]
    fn depth_bound_enforced() {
        let tree = lt("SELECT A.a FROM A WHERE NOT EXISTS( \
              SELECT * FROM B WHERE B.a = A.a AND NOT EXISTS( \
               SELECT * FROM C WHERE C.b = B.b AND NOT EXISTS( \
                SELECT * FROM D WHERE D.c = C.c AND NOT EXISTS( \
                 SELECT * FROM E WHERE E.d = D.d))))");
        assert_eq!(
            check_valid_diagram_source(&tree).unwrap_err(),
            DegeneracyError::TooDeep { depth: 4 }
        );
        // Non-degeneracy itself holds; only the depth bound fails.
        check_non_degenerate(&tree).unwrap();
    }

    #[test]
    fn selection_predicate_is_local() {
        let tree = lt("SELECT B.bid FROM Boat B WHERE B.color = 'red'");
        check_non_degenerate(&tree).unwrap();
    }
}
