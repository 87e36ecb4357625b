//! The constructive depth-recovery algorithm of Appendix B.
//!
//! Where [`crate::inverse`] verifies uniqueness by checking *every*
//! candidate parent assignment, this module recovers the nesting depths
//! the way the paper's proof does — constructively, via the depth-0,
//! depth-1, and depth-2 **decompositions** (Appendix B.2) with the
//! path-pattern case analysis of Appendix B.1 at the base:
//!
//! 1. *Depth-0 decomposition*: remove the root group; each connected
//!    component is one subtree of the root.
//! 2. *Depth-1 identification* (B.2.2): if the root has an outgoing edge
//!    into the component, its target is the depth-1 node; otherwise the
//!    depth-1 node is the candidate whose removal disconnects the
//!    component, or — when every node keeps the component connected —
//!    the node attached (directly, or via all of its children) to the
//!    max-out-degree depth-2 node.
//! 3. *Depth-2 identification* (B.2.3): within each sub-component left
//!    after removing the root and the depth-1 node, the depth-2 node is
//!    the target of a depth-1 out-edge, or the max-out-degree node.
//!    Everything else in the sub-component sits at depth 3.
//!
//! The unit tests cross-validate this constructive recovery against the
//! exhaustive checker on all 16 valid path patterns and hundreds of
//! random branching trees.

use crate::inverse::{group_graph, GroupGraph, InverseError};
use queryvis_diagram::Diagram;
use queryvis_ir::Symbol;
use std::collections::{HashMap, HashSet};

/// Recover the depth of every table group constructively. Returns
/// `depths[group] = nesting depth` with the root group at depth 0.
pub fn recover_depths_decomposition(diagram: &Diagram) -> Result<Vec<usize>, InverseError> {
    let gg = group_graph(diagram)?;
    let k = gg.groups.len();
    let mut depths = vec![usize::MAX; k];
    depths[0] = 0;
    if k == 1 {
        return Ok(depths);
    }

    // Directed group-level edges (SELECT and intra-group edges dropped).
    let edges = group_edges(diagram, &gg);
    let root = 0usize;

    // --- Depth-0 decomposition ---
    let non_root: HashSet<usize> = (1..k).collect();
    for component in components(&non_root, &edges) {
        solve_component(&component, root, &edges, &mut depths)?;
    }
    if depths.contains(&usize::MAX) {
        return Err(InverseError::NoInterpretation);
    }
    Ok(depths)
}

fn group_edges(diagram: &Diagram, gg: &GroupGraph) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    for e in &diagram.edges {
        let a = gg.group_of[e.from.table];
        let b = gg.group_of[e.to.table];
        if a == usize::MAX || b == usize::MAX || a == b {
            continue;
        }
        edges.push((a, b));
    }
    edges
}

/// Undirected connected components of `nodes` under `edges`.
fn components(nodes: &HashSet<usize>, edges: &[(usize, usize)]) -> Vec<HashSet<usize>> {
    let mut remaining: HashSet<usize> = nodes.clone();
    let mut out = Vec::new();
    while let Some(&start) = remaining.iter().next() {
        let mut component = HashSet::new();
        let mut stack = vec![start];
        while let Some(n) = stack.pop() {
            if !remaining.remove(&n) {
                continue;
            }
            component.insert(n);
            for &(a, b) in edges {
                if a == n && remaining.contains(&b) {
                    stack.push(b);
                }
                if b == n && remaining.contains(&a) {
                    stack.push(a);
                }
            }
        }
        out.push(component);
    }
    out
}

fn out_targets(node: usize, scope: &HashSet<usize>, edges: &[(usize, usize)]) -> Vec<usize> {
    edges
        .iter()
        .filter(|(a, b)| *a == node && scope.contains(b))
        .map(|(_, b)| *b)
        .collect()
}

/// Assign depths 1..3 within one depth-0 component.
fn solve_component(
    component: &HashSet<usize>,
    root: usize,
    edges: &[(usize, usize)],
    depths: &mut [usize],
) -> Result<(), InverseError> {
    // --- Depth-1 identification (B.2.2) ---
    let depth1 = match identify_depth1(component, root, edges)? {
        Depth1::Node(node) => node,
        Depth1::PathSolved(assignment) => {
            // The component was a pure path; B.1's finite case analysis
            // already fixed every depth.
            for (node, depth) in assignment {
                depths[node] = depth;
            }
            return Ok(());
        }
    };
    depths[depth1] = 1;

    // --- Depth-1 decomposition: remove root and depth1 ---
    let mut rest: HashSet<usize> = component.clone();
    rest.remove(&depth1);
    for sub in components(&rest, edges) {
        // --- Depth-2 identification (B.2.3) ---
        let depth2 = identify_depth2(&sub, depth1, edges)?;
        depths[depth2] = 2;
        for &n in &sub {
            if n != depth2 {
                // Anything else in the sub-component is at depth 3; a
                // deeper node would violate the depth-3 validity bound.
                if depths[n] != usize::MAX {
                    return Err(InverseError::NoInterpretation);
                }
                depths[n] = 3;
            }
        }
    }
    Ok(())
}

/// Outcome of depth-1 identification: either the depth-1 node, or — for
/// pure path components — a complete depth assignment from the B.1 case
/// analysis.
enum Depth1 {
    Node(usize),
    PathSolved(Vec<(usize, usize)>),
}

fn identify_depth1(
    component: &HashSet<usize>,
    root: usize,
    edges: &[(usize, usize)],
) -> Result<Depth1, InverseError> {
    // Case 1: the root has an outgoing edge into the component; its target
    // is the depth-1 node (a Δ = 1 edge is the only root out-edge kind).
    let root_targets = out_targets(root, component, edges);
    if let Some(&v) = root_targets.first() {
        if root_targets.iter().any(|&t| t != v) {
            // Two different depth-1 nodes in one component is impossible.
            return Err(InverseError::Ambiguous { interpretations: 2 });
        }
        return Ok(Depth1::Node(v));
    }
    // Candidates exclude nodes with an edge *into* the root: per B.2.2, a
    // depth-1 node's edge with the root would point the other way, so
    // such nodes sit at depth ≥ 2.
    let into_root: HashSet<usize> = edges
        .iter()
        .filter(|(a, b)| *b == root && component.contains(a))
        .map(|(a, _)| *a)
        .collect();
    // Case 2a: the candidate whose removal splits the component in two
    // had multiple depth-2 children — it is the depth-1 node.
    for &candidate in component {
        if into_root.contains(&candidate) {
            continue;
        }
        let mut without: HashSet<usize> = component.clone();
        without.remove(&candidate);
        if without.is_empty() {
            continue;
        }
        if components(&without, edges).len() > 1 {
            return Ok(Depth1::Node(candidate));
        }
    }
    // Case 2b: no candidate disconnects — the depth-1 node has one child.
    // Find the depth-2 node: the unique node with out-degree > 1 within
    // the component, if any (it fans out to its children and/or depth-1).
    let out_degree = |n: usize| out_targets(n, component, edges).len();
    let max_out = component.iter().map(|&n| out_degree(n)).max().unwrap_or(0);
    if max_out > 1 {
        let depth2 = *component
            .iter()
            .find(|&&n| out_degree(n) == max_out)
            .unwrap();
        // Depth-1 connects directly to depth-2 ...
        if let Some(&x) = component
            .iter()
            .find(|&&x| x != depth2 && out_targets(x, component, edges).contains(&depth2))
        {
            return Ok(Depth1::Node(x));
        }
        // ... or indirectly via all of depth-2's children (B.2.2 case 3):
        // the children of depth-2 point back at depth-1 (Δ = 2 edges).
        let children: HashSet<usize> = out_targets(depth2, component, edges).into_iter().collect();
        for &x in component {
            if x == depth2 || children.contains(&x) {
                continue;
            }
            let hits = children
                .iter()
                .filter(|&&c| out_targets(c, component, edges).contains(&x))
                .count();
            if hits == children.len() && hits > 0 {
                return Ok(Depth1::Node(x));
            }
        }
        return Err(InverseError::NoInterpretation);
    }
    // Path case: every within-component out-degree is ≤ 1, so the
    // component is one of the B.1 path patterns (≤ 3 nodes). Resolve it
    // exactly the way the proof does — by the finite case analysis over
    // all depth orderings, of which exactly one is edge-consistent.
    solve_path(component, root, edges).map(Depth1::PathSolved)
}

/// B.1's finite case analysis for a path component: try every assignment
/// of depths 1..=n to the nodes and keep the unique one consistent with
/// the arrow rules (including edges to/from the root at depth 0).
fn solve_path(
    component: &HashSet<usize>,
    root: usize,
    edges: &[(usize, usize)],
) -> Result<Vec<(usize, usize)>, InverseError> {
    let nodes: Vec<usize> = {
        let mut v: Vec<usize> = component.iter().copied().collect();
        v.sort_unstable();
        v
    };
    let n = nodes.len();
    if n > 3 {
        return Err(InverseError::Unsupported(
            "path component deeper than the depth-3 validity bound".into(),
        ));
    }
    let mut consistent: Vec<Vec<(usize, usize)>> = Vec::new();
    let mut order: Vec<usize> = (0..n).collect();
    permutations(&mut order, 0, &mut |perm| {
        // perm[i] = position of nodes[i] in the path → depth = position+1.
        let depth_of = |x: usize| -> usize {
            if x == root {
                return 0;
            }
            let i = nodes.iter().position(|&m| m == x).unwrap();
            perm[i] + 1
        };
        let ok = edges
            .iter()
            .filter(|(a, b)| {
                (component.contains(a) || *a == root) && (component.contains(b) || *b == root)
            })
            .all(|&(a, b)| {
                let (da, db) = (depth_of(a), depth_of(b));
                if da == db {
                    return false;
                }
                let diff = da.abs_diff(db);
                if diff == 1 {
                    da < db
                } else {
                    da > db
                }
            });
        // Property 5.2 along the path: each node must connect to its
        // parent (the node one depth up, or the root at depth 1), or be
        // bridged by its child — exactly the argument B.1 uses to rule
        // out alternative orderings in the ⟨Ā⟩ family.
        let connected = |x: usize, y: usize| {
            edges
                .iter()
                .any(|&(a, b)| (a == x && b == y) || (a == y && b == x))
        };
        let node_at = |d: usize| -> Option<usize> {
            if d == 0 {
                return Some(root);
            }
            nodes.iter().copied().find(|&m| depth_of(m) == d)
        };
        let satisfies_52 = ok
            && nodes.iter().all(|&x| {
                let d = depth_of(x);
                let Some(parent) = node_at(d - 1) else {
                    return false;
                };
                if connected(x, parent) {
                    return true;
                }
                match node_at(d + 1) {
                    Some(child) => connected(child, x) && connected(child, parent),
                    None => false,
                }
            });
        if satisfies_52 {
            consistent.push(nodes.iter().map(|&m| (m, depth_of(m))).collect());
        }
    });
    match consistent.len() {
        0 => Err(InverseError::NoInterpretation),
        1 => Ok(consistent.pop().unwrap()),
        k => Err(InverseError::Ambiguous { interpretations: k }),
    }
}

fn permutations(order: &mut Vec<usize>, at: usize, f: &mut impl FnMut(&[usize])) {
    if at == order.len() {
        f(order);
        return;
    }
    for i in at..order.len() {
        order.swap(at, i);
        permutations(order, at + 1, f);
        order.swap(at, i);
    }
}

fn identify_depth2(
    sub: &HashSet<usize>,
    depth1: usize,
    edges: &[(usize, usize)],
) -> Result<usize, InverseError> {
    if sub.len() == 1 {
        return Ok(*sub.iter().next().unwrap());
    }
    // Direct edge depth1 → x pins x at depth 2.
    let direct = out_targets(depth1, sub, edges);
    if let Some(&x) = direct.first() {
        if direct.iter().any(|&t| t != x) {
            return Err(InverseError::Ambiguous { interpretations: 2 });
        }
        return Ok(x);
    }
    // Otherwise: max out-degree within the sub-component (its children's
    // Δ = 1 edges leave it; depth-3 nodes' edges exit the sub-component).
    let out_degree = |n: usize| out_targets(n, sub, edges).len();
    let max_out = sub.iter().map(|&n| out_degree(n)).max().unwrap_or(0);
    if max_out == 0 {
        return Err(InverseError::NoInterpretation);
    }
    let candidates: Vec<usize> = sub
        .iter()
        .copied()
        .filter(|&n| out_degree(n) == max_out)
        .collect();
    match candidates.as_slice() {
        [single] => Ok(*single),
        _ => Err(InverseError::Ambiguous {
            interpretations: candidates.len(),
        }),
    }
}

/// A map from binding key to recovered depth, convenient for assertions.
pub fn recovered_depth_by_binding(
    diagram: &Diagram,
) -> Result<HashMap<Symbol, usize>, InverseError> {
    let gg = group_graph(diagram)?;
    let depths = recover_depths_decomposition(diagram)?;
    let mut map = HashMap::new();
    for (g, group) in gg.groups.iter().enumerate() {
        for &tid in &group.tables {
            map.insert(diagram.tables[tid].binding, depths[g]);
        }
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inverse::recover_logic_tree;
    use crate::unambiguity::{pattern_diagram, random_valid_tree, valid_path_patterns};
    use queryvis_diagram::build_diagram;

    #[test]
    fn decomposition_solves_all_path_patterns() {
        for pattern in valid_path_patterns() {
            let diagram = pattern_diagram(&pattern);
            let by_binding = recovered_depth_by_binding(&diagram)
                .unwrap_or_else(|e| panic!("{:?}: {e}", pattern.edges));
            for depth in 0..4 {
                assert_eq!(
                    by_binding[&Symbol::intern(&format!("T{depth}"))],
                    depth,
                    "pattern {:?}",
                    pattern.edges
                );
            }
        }
    }

    #[test]
    fn decomposition_agrees_with_exhaustive_checker() {
        // On every random branching tree, the constructive depths must
        // match the brute-force-unique recovery.
        for seed in 0..150 {
            let tree = random_valid_tree(seed);
            let diagram = build_diagram(&tree);
            let constructive = recovered_depth_by_binding(&diagram)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{tree}"));
            let exhaustive = recover_logic_tree(&diagram).unwrap();
            for table in tree.bindings() {
                let expected = exhaustive
                    .node(exhaustive.owner_of(table.key).unwrap())
                    .depth;
                assert_eq!(
                    constructive[&table.key], expected,
                    "seed {seed}, binding {}",
                    table.key
                );
            }
        }
    }

    #[test]
    fn decomposition_matches_original_depths() {
        for seed in 150..250 {
            let tree = random_valid_tree(seed);
            let diagram = build_diagram(&tree);
            let constructive = recovered_depth_by_binding(&diagram).unwrap();
            for node in tree.nodes() {
                for table in &node.tables {
                    assert_eq!(constructive[&table.key], node.depth, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn single_block_diagram_is_trivial() {
        let tree = {
            let mut t = queryvis_logic::LogicTree::with_root();
            t.node_mut(0).tables.push(queryvis_logic::LtTable {
                key: "A".into(),
                alias: "A".into(),
                table: "T".into(),
            });
            t.select.push(queryvis_logic::SelectAttr::Column(
                queryvis_logic::AttrRef::new("A", "x"),
            ));
            t
        };
        let by_binding = recovered_depth_by_binding(&build_diagram(&tree)).unwrap();
        assert_eq!(by_binding[&Symbol::intern("A")], 0);
    }
}
