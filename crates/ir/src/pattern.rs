//! The pattern IR: the Logic Tree (LT) representation (paper §4.7, Fig. 5).
//!
//! An LT is a rooted tree in which every node represents one *query block*:
//! the set of tables (aliases) the block introduces, the conjunctive
//! predicates it states, and the quantifier applied to it (∃, ∄, or — after
//! simplification — ∀). The tree structure encodes the nesting hierarchy:
//! tables of a node may be referenced anywhere in its subtree.
//!
//! The tree is stored as a flat [`Arena`] of nodes indexed by [`NodeId`]
//! because the diagram builder, the inverse mapping, and the unambiguity
//! checker all need random access by id and parent/child navigation.
//!
//! **All names are interned.** Binding keys, aliases, base-table names, and
//! attribute names are [`Symbol`]s of the query's [`Names`] table; every
//! node payload ([`LtTable`]/[`LtPredicate`]/[`SelectAttr`]) is `Copy`, so
//! cloning a tree is a flat memcpy of id-sized values and comparing names
//! is an integer compare. Strings reappear only where a table resolves
//! them ([`NamedDisplay`], written with [`Names::show`]).

use crate::arena::Arena;
use crate::intern::{NamedDisplay, Names, Symbol};
use crate::ops::{AggFunc, CompareOp, Value};
use std::collections::HashMap;
use std::fmt;

/// Index of a node within [`LogicTree::nodes`]. The root is always id 0.
pub type NodeId = usize;

/// The quantifier applied to a query block.
///
/// The root block conceptually carries ∃ (its tables are the query's free
/// range variables); [`LtNode::is_root`] distinguishes it where needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quantifier {
    Exists,
    NotExists,
    ForAll,
}

impl Quantifier {
    pub fn symbol(self) -> &'static str {
        match self {
            Quantifier::Exists => "\u{2203}",    // ∃
            Quantifier::NotExists => "\u{2204}", // ∄
            Quantifier::ForAll => "\u{2200}",    // ∀
        }
    }

    /// Small dense code for canonical-pattern token streams.
    pub fn code(self) -> u32 {
        match self {
            Quantifier::Exists => 0,
            Quantifier::NotExists => 1,
            Quantifier::ForAll => 2,
        }
    }
}

impl fmt::Display for Quantifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A table bound in a query block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LtTable {
    /// Globally unique binding key within the tree (aliases may shadow
    /// across blocks in SQL; keys never collide).
    pub key: Symbol,
    /// The alias as written in the query (display name).
    pub alias: Symbol,
    /// The base table name.
    pub table: Symbol,
}

/// A fully resolved attribute reference: binding key + column name.
///
/// `Ord` is *id order* (first-interned order within one [`Names`] table),
/// not lexicographic; predicate orientation goes by resolved name instead
/// (see [`LtPredicate::normalized`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrRef {
    pub binding: Symbol,
    pub column: Symbol,
}

impl AttrRef {
    pub fn new(binding: Symbol, column: Symbol) -> Self {
        AttrRef { binding, column }
    }

    /// The `(binding, column)` texts, the key predicates orient by.
    fn name<'a>(&self, names: &'a Names) -> (&'a str, &'a str) {
        (names.resolve(self.binding), names.resolve(self.column))
    }
}

impl NamedDisplay for AttrRef {
    fn fmt_named(&self, names: &Names, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (binding, column) = self.name(names);
        write!(f, "{binding}.{column}")
    }
}

/// Right-hand side of an LT predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LtOperand {
    Attr(AttrRef),
    Const(Value),
}

impl NamedDisplay for LtOperand {
    fn fmt_named(&self, names: &Names, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LtOperand::Attr(a) => a.fmt_named(names, f),
            LtOperand::Const(v) => v.fmt_named(names, f),
        }
    }
}

/// A conjunct of a query block: `lhs op rhs` with `lhs` always an attribute
/// (the translator flips constant-first comparisons).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LtPredicate {
    pub lhs: AttrRef,
    pub op: CompareOp,
    pub rhs: LtOperand,
}

impl LtPredicate {
    pub fn join(lhs: AttrRef, op: CompareOp, rhs: AttrRef) -> Self {
        LtPredicate {
            lhs,
            op,
            rhs: LtOperand::Attr(rhs),
        }
    }

    pub fn selection(lhs: AttrRef, op: CompareOp, value: Value) -> Self {
        LtPredicate {
            lhs,
            op,
            rhs: LtOperand::Const(value),
        }
    }

    /// True for column-to-column (join) predicates.
    pub fn is_join(&self) -> bool {
        matches!(self.rhs, LtOperand::Attr(_))
    }

    /// Canonical orientation: join operands are put in resolved-name
    /// order, flipping the operator when they swap. Names are text, so two
    /// separately parsed trees (two tables, two id orders) orient alike.
    /// A self-comparison `x op x` has equal names, so it orients by
    /// operator code: `x <= x` and its flipped spelling `x >= x` are the
    /// same predicate.
    pub fn normalized(&self, names: &Names) -> LtPredicate {
        let LtOperand::Attr(rhs) = self.rhs else {
            return *self;
        };
        let (lhs_name, rhs_name) = (self.lhs.name(names), rhs.name(names));
        if rhs_name < lhs_name || (rhs_name == lhs_name && self.op.flip().code() < self.op.code()) {
            LtPredicate::join(rhs, self.op.flip(), self.lhs)
        } else {
            *self
        }
    }
}

impl NamedDisplay for LtPredicate {
    fn fmt_named(&self, names: &Names, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (lhs, rhs) = (names.show(&self.lhs), names.show(&self.rhs));
        write!(f, "({lhs} {} {rhs})", self.op)
    }
}

/// A post-grouping (HAVING) conjunct on the root block: an aggregate
/// compared against a constant, e.g. `COUNT(T.b) > 2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LtHaving {
    pub func: AggFunc,
    /// `None` encodes `COUNT(*)`.
    pub arg: Option<AttrRef>,
    pub op: CompareOp,
    pub value: Value,
}

impl NamedDisplay for LtHaving {
    fn fmt_named(&self, names: &Names, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let value = names.show(&self.value);
        match &self.arg {
            Some(a) => write!(f, "{}({}) {} {value}", self.func, names.show(a), self.op),
            None => write!(f, "{}(*) {} {value}", self.func, self.op),
        }
    }
}

/// An item of the root block's select list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectAttr {
    Column(AttrRef),
    Aggregate {
        func: AggFunc,
        /// `None` encodes `COUNT(*)`.
        arg: Option<AttrRef>,
    },
}

impl NamedDisplay for SelectAttr {
    fn fmt_named(&self, names: &Names, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectAttr::Column(a) => a.fmt_named(names, f),
            SelectAttr::Aggregate { func, arg: Some(a) } => write!(f, "{func}({})", names.show(a)),
            SelectAttr::Aggregate { func, arg: None } => write!(f, "{func}(*)"),
        }
    }
}

/// One query block of the logic tree.
#[derive(Debug, Clone, PartialEq)]
pub struct LtNode {
    pub id: NodeId,
    pub parent: Option<NodeId>,
    pub children: Vec<NodeId>,
    /// Nesting depth: 0 for the root block.
    pub depth: usize,
    pub quantifier: Quantifier,
    pub tables: Vec<LtTable>,
    pub predicates: Vec<LtPredicate>,
}

impl LtNode {
    pub fn is_root(&self) -> bool {
        self.parent.is_none()
    }

    /// True if `binding` is introduced by this block.
    pub fn defines(&self, binding: Symbol) -> bool {
        self.tables.iter().any(|t| t.key == binding)
    }

    /// Join predicates of this block (column-to-column).
    pub fn joins(&self) -> impl Iterator<Item = &LtPredicate> {
        self.predicates.iter().filter(|p| p.is_join())
    }

    /// Selection predicates of this block (column-to-constant).
    pub fn selections(&self) -> impl Iterator<Item = &LtPredicate> {
        self.predicates.iter().filter(|p| !p.is_join())
    }
}

/// A complete logic tree: arena of nodes plus the root's select list and
/// (for the GROUP BY / HAVING extension) grouping attributes and
/// post-grouping predicates.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicTree {
    pub nodes: Arena<LtNode>,
    pub select: Vec<SelectAttr>,
    pub group_by: Vec<AttrRef>,
    /// HAVING conjuncts attached to the grouping (root) block.
    pub having: Vec<LtHaving>,
}

impl LogicTree {
    /// Create a tree containing only an (empty) root node.
    pub fn with_root() -> Self {
        LogicTree {
            nodes: vec![LtNode {
                id: 0,
                parent: None,
                children: Vec::new(),
                depth: 0,
                quantifier: Quantifier::Exists,
                tables: Vec::new(),
                predicates: Vec::new(),
            }]
            .into(),
            select: Vec::new(),
            group_by: Vec::new(),
            having: Vec::new(),
        }
    }

    pub fn root(&self) -> &LtNode {
        &self.nodes[0]
    }

    pub fn node(&self, id: NodeId) -> &LtNode {
        &self.nodes[id]
    }

    pub fn node_mut(&mut self, id: NodeId) -> &mut LtNode {
        &mut self.nodes[id]
    }

    /// Append a fresh child node under `parent` and return its id.
    pub fn add_child(&mut self, parent: NodeId, quantifier: Quantifier) -> NodeId {
        let depth = self.nodes[parent].depth + 1;
        let id = self.nodes.alloc(LtNode {
            id: 0, // fixed up below (alloc returns the real id)
            parent: Some(parent),
            children: Vec::new(),
            depth,
            quantifier,
            tables: Vec::new(),
            predicates: Vec::new(),
        });
        self.nodes[id].id = id;
        self.nodes[parent].children.push(id);
        id
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Iterate nodes in id (preorder-of-construction) order.
    pub fn nodes(&self) -> impl Iterator<Item = &LtNode> {
        self.nodes.iter()
    }

    /// Maximum nesting depth in the tree.
    pub fn max_depth(&self) -> usize {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    /// Map from binding key to the node that introduces it.
    pub fn binding_owners(&self) -> HashMap<Symbol, NodeId> {
        let mut map = HashMap::new();
        for node in self.nodes.iter() {
            for table in &node.tables {
                map.insert(table.key, node.id);
            }
        }
        map
    }

    /// The node introducing `binding`, if any.
    pub fn owner_of(&self, binding: Symbol) -> Option<NodeId> {
        self.nodes.iter().find(|n| n.defines(binding)).map(|n| n.id)
    }

    /// Look up a table by binding key.
    pub fn table(&self, binding: Symbol) -> Option<&LtTable> {
        self.nodes
            .iter()
            .flat_map(|n| n.tables.iter())
            .find(|t| t.key == binding)
    }

    /// All binding keys in the tree, in node/table order.
    pub fn bindings(&self) -> impl Iterator<Item = &LtTable> {
        self.nodes.iter().flat_map(|n| n.tables.iter())
    }

    /// True if `ancestor` is a strict ancestor of `descendant`.
    pub fn is_ancestor(&self, ancestor: NodeId, descendant: NodeId) -> bool {
        let mut cur = self.nodes[descendant].parent;
        while let Some(id) = cur {
            if id == ancestor {
                return true;
            }
            cur = self.nodes[id].parent;
        }
        false
    }

    /// Node ids in preorder (root first, children in insertion order).
    pub fn preorder(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![0];
        while let Some(id) = stack.pop() {
            order.push(id);
            // Push children reversed so the leftmost child is visited first.
            for &child in self.nodes[id].children.iter().rev() {
                stack.push(child);
            }
        }
        order
    }

    /// Node ids in breadth-first order (used by diagram construction,
    /// Appendix A.3 step 1).
    pub fn bfs(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut queue = std::collections::VecDeque::from([0]);
        while let Some(id) = queue.pop_front() {
            order.push(id);
            queue.extend(self.nodes[id].children.iter().copied());
        }
        order
    }

    /// An order-insensitive structural fingerprint of the tree, keeping
    /// alias and table names but normalizing predicate operand order and
    /// sorting conjuncts and subtrees. Two syntactic variants of the same
    /// logical query (paper Fig. 24) share a fingerprint.
    ///
    /// This is the *named* fingerprint (debugging and structural-equality
    /// oracle), a function of the names' text: trees over two tables
    /// compare through it. The serving layer's cross-query cache key is
    /// the erased canonical pattern in `queryvis::pattern`.
    pub fn fingerprint(&self, names: &Names) -> String {
        fn node_fp(tree: &LogicTree, names: &Names, id: NodeId) -> String {
            let node = tree.node(id);
            let mut tables: Vec<String> = node
                .tables
                .iter()
                .map(|t| format!("{}:{}", names.show(&t.alias), names.show(&t.table)))
                .collect();
            tables.sort();
            let mut preds: Vec<String> = node
                .predicates
                .iter()
                .map(|p| names.show(&p.normalized(names)).to_string())
                .collect();
            preds.sort();
            let mut kids: Vec<String> = node
                .children
                .iter()
                .map(|&c| node_fp(tree, names, c))
                .collect();
            kids.sort();
            format!(
                "{}{{T[{}]P[{}]C[{}]}}",
                node.quantifier,
                tables.join(","),
                preds.join(","),
                kids.join(",")
            )
        }
        let select: Vec<String> = shown(names, &self.select);
        let group: Vec<String> = shown(names, &self.group_by);
        let mut having: Vec<String> = shown(names, &self.having);
        having.sort();
        format!(
            "S[{}]G[{}]H[{}]{}",
            select.join(","),
            group.join(","),
            having.join(","),
            node_fp(self, names, 0)
        )
    }

    /// True if two trees, each with its own name table, are structurally
    /// equal up to conjunct and subtree ordering and predicate operand
    /// orientation.
    pub fn structural_eq(&self, names: &Names, other: &LogicTree, other_names: &Names) -> bool {
        self.fingerprint(names) == other.fingerprint(other_names)
    }
}

/// Each item written through `names`.
fn shown<T: NamedDisplay>(names: &Names, items: &[T]) -> Vec<String> {
    items.iter().map(|i| names.show(i).to_string()).collect()
}

impl NamedDisplay for LogicTree {
    /// Renders the tree in the style of the paper's Fig. 5.
    fn fmt_named(&self, names: &Names, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn write_node(
            tree: &LogicTree,
            names: &Names,
            id: NodeId,
            prefix: &str,
            f: &mut fmt::Formatter<'_>,
        ) -> fmt::Result {
            let node = tree.node(id);
            let tables: Vec<String> = node
                .tables
                .iter()
                .map(|t| format!("{} {}", names.show(&t.table), names.show(&t.alias)))
                .collect();
            let preds: Vec<String> = shown(names, &node.predicates);
            let quant = if node.is_root() {
                String::new()
            } else {
                format!("Q: {}  ", node.quantifier)
            };
            writeln!(
                f,
                "{prefix}{quant}T: {{{}}}  P: {{{}}}",
                tables.join(", "),
                preds.join(", ")
            )?;
            if node.is_root() {
                let select = shown(names, &tree.select);
                writeln!(f, "{prefix}Selection Attributes: {{{}}}", select.join(", "))?;
                if !tree.group_by.is_empty() {
                    let group = shown(names, &tree.group_by);
                    writeln!(f, "{prefix}Group By: {{{}}}", group.join(", "))?;
                }
                if !tree.having.is_empty() {
                    let having = shown(names, &tree.having);
                    writeln!(f, "{prefix}Having: {{{}}}", having.join(", "))?;
                }
            }
            let child_prefix = format!("{prefix}    ");
            for &child in &node.children {
                write_node(tree, names, child, &child_prefix, f)?;
            }
            Ok(())
        }
        write_node(self, names, 0, "", f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(names: &mut Names, alias: &str, table: &str) -> LtTable {
        let alias = names.intern(alias);
        LtTable {
            key: alias,
            alias,
            table: names.intern(table),
        }
    }

    fn attr(names: &mut Names, binding: &str, column: &str) -> AttrRef {
        AttrRef::new(names.intern(binding), names.intern(column))
    }

    fn sample_tree(names: &mut Names) -> LogicTree {
        let mut lt = LogicTree::with_root();
        lt.nodes[0].tables.push(table(names, "L1", "Likes"));
        lt.select
            .push(SelectAttr::Column(attr(names, "L1", "drinker")));
        let c = lt.add_child(0, Quantifier::NotExists);
        lt.node_mut(c).tables.push(table(names, "L2", "Likes"));
        lt.node_mut(c).predicates.push(LtPredicate::join(
            attr(names, "L1", "drinker"),
            CompareOp::Ne,
            attr(names, "L2", "drinker"),
        ));
        lt
    }

    #[test]
    fn arena_structure() {
        let mut names = Names::new();
        let lt = sample_tree(&mut names);
        assert_eq!(lt.node_count(), 2);
        assert_eq!(lt.root().children, vec![1]);
        assert_eq!(lt.node(1).parent, Some(0));
        assert_eq!(lt.node(1).depth, 1);
        assert_eq!(lt.max_depth(), 1);
        assert_eq!(lt.owner_of(names.intern("L2")), Some(1));
        assert!(lt.is_ancestor(0, 1));
        assert!(!lt.is_ancestor(1, 0));
    }

    #[test]
    fn node_payloads_are_copy_and_small() {
        // The whole point of the IR: pattern nodes carry ids, not strings.
        assert_eq!(std::mem::size_of::<LtTable>(), 12);
        assert_eq!(std::mem::size_of::<AttrRef>(), 8);
        assert!(std::mem::size_of::<LtPredicate>() <= 24);
        let table = table(&mut Names::new(), "K", "T");
        let copy = table; // Copy, not Clone
        assert_eq!(copy, table);
    }

    #[test]
    fn traversal_orders() {
        let mut lt = sample_tree(&mut Names::new());
        let c1 = 1;
        let g1 = lt.add_child(c1, Quantifier::NotExists);
        let g2 = lt.add_child(c1, Quantifier::NotExists);
        assert_eq!(lt.preorder(), vec![0, c1, g1, g2]);
        assert_eq!(lt.bfs(), vec![0, c1, g1, g2]);
    }

    #[test]
    fn fingerprint_ignores_operand_and_child_order() {
        let (mut na, mut nb) = (Names::new(), Names::new());
        // b's table meets the names in another order, so its ids differ.
        nb.intern("Y");
        let mut a = sample_tree(&mut na);
        let mut b = sample_tree(&mut nb);
        // Flip the predicate in b: L2.drinker <> L1.drinker.
        b.node_mut(1).predicates[0] = LtPredicate::join(
            attr(&mut nb, "L2", "drinker"),
            CompareOp::Ne,
            attr(&mut nb, "L1", "drinker"),
        );
        assert!(a.structural_eq(&na, &b, &nb));
        // Add two children in opposite orders.
        let x = a.add_child(1, Quantifier::Exists);
        a.node_mut(x).tables.push(table(&mut na, "X", "T1"));
        let y = a.add_child(1, Quantifier::NotExists);
        a.node_mut(y).tables.push(table(&mut na, "Y", "T2"));
        let y2 = b.add_child(1, Quantifier::NotExists);
        b.node_mut(y2).tables.push(table(&mut nb, "Y", "T2"));
        let x2 = b.add_child(1, Quantifier::Exists);
        b.node_mut(x2).tables.push(table(&mut nb, "X", "T1"));
        assert!(a.structural_eq(&na, &b, &nb));
    }

    #[test]
    fn fingerprint_distinguishes_quantifiers() {
        let mut names = Names::new();
        let a = sample_tree(&mut names);
        let mut b = a.clone();
        b.node_mut(1).quantifier = Quantifier::ForAll;
        assert!(!a.structural_eq(&names, &b, &names));
    }

    #[test]
    fn predicate_normalization_is_canonical() {
        // normalized() must be an idempotent canonical form that agrees for
        // a predicate and its operand-swapped mirror.
        let mut names = Names::new();
        let p = LtPredicate::join(
            attr(&mut names, "B", "x"),
            CompareOp::Lt,
            attr(&mut names, "A", "y"),
        );
        let mirrored = LtPredicate::join(
            attr(&mut names, "A", "y"),
            CompareOp::Gt,
            attr(&mut names, "B", "x"),
        );
        let n = p.normalized(&names);
        assert_eq!(n, mirrored.normalized(&names));
        assert_eq!(n.normalized(&names), n);
        // The normalized orientation puts the name-smaller operand first,
        // although `B` was interned before `A`.
        assert_eq!(names.show(&n).to_string(), "(A.y > B.x)");
        // A self-comparison orients by operator code.
        let a = attr(&mut names, "A", "y");
        let ge = LtPredicate::join(a, CompareOp::Ge, a);
        let le = LtPredicate::join(a, CompareOp::Le, a);
        assert_eq!(ge.normalized(&names), le.normalized(&names));
    }

    #[test]
    fn display_matches_fig5_style() {
        let mut names = Names::new();
        let lt = sample_tree(&mut names);
        let text = names.show(&lt).to_string();
        assert!(text.contains("T: {Likes L1}"));
        assert!(text.contains("Selection Attributes: {L1.drinker}"));
        assert!(text.contains("Q: \u{2204}"));
        assert!(text.contains("(L1.drinker <> L2.drinker)"));
    }
}
