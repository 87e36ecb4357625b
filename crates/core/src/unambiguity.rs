//! The Proposition 5.1 verification harness (paper §5.2, Appendix B).
//!
//! The paper proves unambiguity by (a) enumerating all 16 valid depth-3
//! *path* patterns — the three families ⟨A,B⟩, ⟨A,B̄⟩, ⟨Ā⟩ over the six
//! possible inter-depth edges of Fig. 13a — and (b) reducing arbitrary
//! branching via the depth-0/1/2 decompositions. This module regenerates
//! that enumeration and verifies, through the executable inverse mapping,
//! that each pattern (and randomized branching trees) recovers exactly
//! one logic tree with the correct depths.
//!
//! Edge naming (Fig. 13a; nodes are labeled by their depth):
//!
//! | edge | endpoints | drawn direction (arrow rules) |
//! |------|-----------|-------------------------------|
//! | A    | 0 – 1     | 0 → 1 (Δ = 1)                 |
//! | B    | 1 – 2     | 1 → 2 (Δ = 1)                 |
//! | D    | 2 – 3     | 2 → 3 (Δ = 1)                 |
//! | C    | 0 – 2     | 2 → 0 (Δ = 2)                 |
//! | E    | 1 – 3     | 3 → 1 (Δ = 2)                 |
//! | F    | 0 – 3     | 3 → 0 (Δ = 3)                 |

use crate::inverse::recover_logic_tree;
use queryvis_diagram::{
    Diagram, DiagramTable, Edge, EdgeEndpoint, QuantifierBox, RowKind, TableRow,
};
use queryvis_logic::{Names, Quantifier};

/// The six Fig. 13a edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathEdge {
    A,
    B,
    C,
    D,
    E,
    F,
}

impl PathEdge {
    /// `(shallow endpoint, deep endpoint)` by depth.
    pub fn endpoints(self) -> (usize, usize) {
        match self {
            PathEdge::A => (0, 1),
            PathEdge::B => (1, 2),
            PathEdge::C => (0, 2),
            PathEdge::D => (2, 3),
            PathEdge::E => (1, 3),
            PathEdge::F => (0, 3),
        }
    }

    /// `(from, to)` as drawn, per the arrow rules.
    pub fn drawn(self) -> (usize, usize) {
        let (shallow, deep) = self.endpoints();
        if deep - shallow == 1 {
            (shallow, deep)
        } else {
            (deep, shallow)
        }
    }
}

/// One valid path pattern: a set of present edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathPattern {
    pub edges: Vec<PathEdge>,
    /// Which of the three proof families it belongs to.
    pub family: &'static str,
}

/// Enumerate the 16 valid depth-3 path patterns of Appendix B.1:
///
/// * family ⟨A,B⟩ — A, B, D present; C, E, F optional (8 patterns);
/// * family ⟨A,B̄⟩ — A, D, E present, B absent; C, F optional (4);
/// * family ⟨Ā⟩ — B, C, D present, A absent; E, F optional (4).
pub fn valid_path_patterns() -> Vec<PathPattern> {
    let mut patterns = Vec::with_capacity(16);
    // ⟨A,B⟩: optional subsets of {C, E, F}.
    for mask in 0..8u8 {
        let mut edges = vec![PathEdge::A, PathEdge::B, PathEdge::D];
        if mask & 1 != 0 {
            edges.push(PathEdge::C);
        }
        if mask & 2 != 0 {
            edges.push(PathEdge::E);
        }
        if mask & 4 != 0 {
            edges.push(PathEdge::F);
        }
        patterns.push(PathPattern {
            edges,
            family: "<A,B>",
        });
    }
    // ⟨A,B̄⟩: optional subsets of {C, F}.
    for mask in 0..4u8 {
        let mut edges = vec![PathEdge::A, PathEdge::D, PathEdge::E];
        if mask & 1 != 0 {
            edges.push(PathEdge::C);
        }
        if mask & 2 != 0 {
            edges.push(PathEdge::F);
        }
        patterns.push(PathPattern {
            edges,
            family: "<A,!B>",
        });
    }
    // ⟨Ā⟩: optional subsets of {E, F}.
    for mask in 0..4u8 {
        let mut edges = vec![PathEdge::B, PathEdge::C, PathEdge::D];
        if mask & 1 != 0 {
            edges.push(PathEdge::E);
        }
        if mask & 2 != 0 {
            edges.push(PathEdge::F);
        }
        patterns.push(PathPattern {
            edges,
            family: "<!A>",
        });
    }
    patterns
}

/// Build the synthetic QueryVis diagram of a path pattern: four one-table
/// groups T0..T3 at depths 0..3 (T1..T3 in ∄ boxes), each present edge
/// drawn per the arrow rules, plus the SELECT table, with the names it
/// makes up in a table of its own.
pub fn pattern_diagram(pattern: &PathPattern) -> (Diagram, Names) {
    let mut names = Names::new();
    let mut tables = Vec::new();
    for depth in 0..4 {
        let name = names.intern(&format!("T{depth}"));
        tables.push(DiagramTable {
            id: depth,
            binding: name,
            alias: name,
            name,
            rows: Vec::new(),
            node: Some(depth),
            depth,
            is_select: false,
        });
    }
    let select_id = 4;
    let x = names.intern("x");
    tables.push(DiagramTable {
        id: select_id,
        binding: Names::SELECT,
        alias: Names::SELECT,
        name: Names::SELECT,
        rows: vec![TableRow {
            column: x,
            kind: RowKind::Attribute,
        }],
        node: None,
        depth: 0,
        is_select: true,
    });

    let mut edges = Vec::new();
    // One attribute row per edge endpoint, named after the edge.
    let row_of =
        |tables: &mut Vec<DiagramTable>, table: usize, col: queryvis_ir::Symbol| -> usize {
            if let Some(idx) = tables[table].rows.iter().position(|r| r.column == col) {
                return idx;
            }
            tables[table].rows.push(TableRow {
                column: col,
                kind: RowKind::Attribute,
            });
            tables[table].rows.len() - 1
        };
    for edge in &pattern.edges {
        let (from, to) = edge.drawn();
        let col = names.intern(&format!("{edge:?}").to_lowercase());
        let from_row = row_of(&mut tables, from, col);
        let to_row = row_of(&mut tables, to, col);
        edges.push(Edge {
            from: EdgeEndpoint {
                table: from,
                row: from_row,
            },
            to: EdgeEndpoint {
                table: to,
                row: to_row,
            },
            directed: true,
            label: None,
        });
    }
    // SELECT edge to the root table.
    let root_row = row_of(&mut tables, 0, x);
    edges.push(Edge {
        from: EdgeEndpoint {
            table: select_id,
            row: 0,
        },
        to: EdgeEndpoint {
            table: 0,
            row: root_row,
        },
        directed: false,
        label: None,
    });

    let boxes = (1..4)
        .map(|depth| QuantifierBox {
            node: depth,
            quantifier: Quantifier::NotExists,
            tables: vec![depth],
        })
        .collect();

    let diagram = Diagram {
        tables,
        boxes,
        edges,
        select_table: select_id,
    };
    (diagram, names)
}

/// Verification result for one pattern.
#[derive(Debug, Clone)]
pub struct PatternVerification {
    pub pattern: PathPattern,
    /// True iff the inverse recovered exactly one tree with the intended
    /// depths 0–3.
    pub unambiguous: bool,
    pub detail: String,
}

/// Run the Prop. 5.1 verification over all 16 valid path patterns.
pub fn verify_path_patterns() -> Vec<PatternVerification> {
    valid_path_patterns()
        .into_iter()
        .map(|pattern| {
            let (diagram, names) = pattern_diagram(&pattern);
            match recover_logic_tree(&diagram) {
                Ok(tree) => {
                    // Depth of each group's table must match its label.
                    let ok = (0..4).all(|i| {
                        names
                            .get(&format!("T{i}"))
                            .and_then(|binding| tree.owner_of(binding))
                            .is_some_and(|node| tree.node(node).depth == i)
                    });
                    PatternVerification {
                        unambiguous: ok,
                        detail: if ok {
                            "unique tree, depths 0-3 recovered".into()
                        } else {
                            format!("recovered wrong depths:\n{}", names.show(&tree))
                        },
                        pattern,
                    }
                }
                Err(e) => PatternVerification {
                    unambiguous: false,
                    detail: format!("recovery failed: {e}"),
                    pattern,
                },
            }
        })
        .collect()
}

/// Generate a pseudo-random non-degenerate ∄-normal-form logic tree of
/// depth ≤ 3 (used by property tests and the `repro unambiguity` harness).
///
/// Every non-root node gets an equijoin to its parent (satisfying
/// Properties 5.1/5.2) plus optional extra joins to ancestors. The tree's
/// names (`R{i}`, `Rel{i}`, `a`, `b`) are in the table that comes with it.
pub fn random_valid_tree(seed: u64) -> (queryvis_logic::LogicTree, Names) {
    use queryvis_logic::{AttrRef, LogicTree, LtTable};
    // Tiny deterministic PRNG (xorshift) to avoid a rand dependency here.
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut next = move |bound: usize| -> usize {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };

    let mut names = Names::new();
    let (a, b) = (names.intern("a"), names.intern("b"));
    let mut tree = LogicTree::with_root();
    let r0 = names.intern("R0");
    tree.node_mut(0).tables.push(LtTable {
        key: r0,
        alias: r0,
        table: names.intern("Rel0"),
    });
    tree.select
        .push(queryvis_logic::SelectAttr::Column(AttrRef::new(r0, a)));

    let extra_nodes = 1 + next(5); // 2..=6 nodes total
    for i in 0..extra_nodes {
        // Pick a parent with remaining depth budget.
        let candidates: Vec<usize> = tree.nodes().filter(|n| n.depth < 3).map(|n| n.id).collect();
        let parent = candidates[next(candidates.len())];
        let node = tree.add_child(parent, Quantifier::NotExists);
        let key = names.intern(&format!("R{}", i + 1));
        let table = names.intern(&format!("Rel{}", i + 1));
        tree.node_mut(node).tables.push(LtTable {
            key,
            alias: key,
            table,
        });
        // Mandatory join to the parent block (Property 5.2).
        let parent_key = tree.node(parent).tables[0].key;
        let pred = queryvis_logic::LtPredicate::join(
            AttrRef::new(key, a),
            queryvis_sql::CompareOp::Eq,
            AttrRef::new(parent_key, a),
        );
        tree.node_mut(node).predicates.push(pred);
        // Optional extra join to a random strict ancestor.
        if next(3) == 0 {
            let mut ancestors = Vec::new();
            let mut cur = tree.node(node).parent;
            while let Some(a) = cur {
                ancestors.push(a);
                cur = tree.node(a).parent;
            }
            let anc = ancestors[next(ancestors.len())];
            let anc_key = tree.node(anc).tables[0].key;
            let pred = queryvis_logic::LtPredicate::join(
                AttrRef::new(key, b),
                queryvis_sql::CompareOp::Eq,
                AttrRef::new(anc_key, b),
            );
            tree.node_mut(node).predicates.push(pred);
        }
    }
    (tree, names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use queryvis_diagram::build_diagram;
    use queryvis_logic::check_non_degenerate;

    #[test]
    fn exactly_sixteen_valid_patterns() {
        let patterns = valid_path_patterns();
        assert_eq!(patterns.len(), 16);
        assert_eq!(patterns.iter().filter(|p| p.family == "<A,B>").count(), 8);
        assert_eq!(patterns.iter().filter(|p| p.family == "<A,!B>").count(), 4);
        assert_eq!(patterns.iter().filter(|p| p.family == "<!A>").count(), 4);
        // All distinct.
        for i in 0..16 {
            for j in (i + 1)..16 {
                let mut a = patterns[i].edges.clone();
                let mut b = patterns[j].edges.clone();
                a.sort_by_key(|e| format!("{e:?}"));
                b.sort_by_key(|e| format!("{e:?}"));
                assert_ne!(a, b, "patterns {i} and {j} coincide");
            }
        }
    }

    #[test]
    fn every_pattern_contains_edge_d() {
        // Appendix B.1: "Edge D must be always present according to
        // Property 5.2."
        for p in valid_path_patterns() {
            assert!(p.edges.contains(&PathEdge::D), "{p:?}");
        }
    }

    #[test]
    fn proposition_5_1_holds_for_all_path_patterns() {
        for v in verify_path_patterns() {
            assert!(
                v.unambiguous,
                "pattern {:?} ({}) failed: {}",
                v.pattern.edges, v.pattern.family, v.detail
            );
        }
    }

    #[test]
    fn random_branching_trees_roundtrip() {
        for seed in 0..60 {
            let (tree, names) = random_valid_tree(seed);
            check_non_degenerate(&tree, &names)
                .unwrap_or_else(|e| panic!("seed {seed}: generator broke invariants: {e}"));
            assert!(tree.max_depth() <= 3);
            let diagram = build_diagram(&tree);
            let shown = names.show(&tree);
            let recovered = recover_logic_tree(&diagram)
                .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}\n{shown}"));
            assert!(
                tree.structural_eq(&names, &recovered, &names),
                "seed {seed}:\noriginal:\n{shown}\nrecovered:\n{}",
                names.show(&recovered)
            );
        }
    }

    #[test]
    fn drawn_directions_follow_arrow_rules() {
        assert_eq!(PathEdge::A.drawn(), (0, 1));
        assert_eq!(PathEdge::B.drawn(), (1, 2));
        assert_eq!(PathEdge::D.drawn(), (2, 3));
        assert_eq!(PathEdge::C.drawn(), (2, 0));
        assert_eq!(PathEdge::E.drawn(), (3, 1));
        assert_eq!(PathEdge::F.drawn(), (3, 0));
    }
}
