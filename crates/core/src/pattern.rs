//! Canonical logical patterns (paper §1.1, Appendix G).
//!
//! "The logical pattern behind a particular query is not unique to the
//! query, and the visual diagram remains the same for queries with
//! identical logical patterns ... even across schemas."
//!
//! [`PatternKey::of_tree`] erases all schema-specific names from a logic
//! tree — binding keys, base-table names, attribute names, and constant
//! values — and serializes the remaining structure deterministically as a
//! compact `u32` **token stream**: children are ordered by their recursive
//! structural signature, bindings are renamed `b0, b1, …` in canonical
//! traversal order, attributes `c0, c1, …` per binding in order of first
//! use, and constants become a placeholder. Two queries obtain the same
//! token stream iff they share the paper's notion of a visual pattern.
//!
//! The token stream is the serving layer's **hot path**: with interned
//! [`Symbol`] names the whole canonicalization is id arithmetic (symbol →
//! dense canonical index, the position of the name in a short vector),
//! and the 128-bit cache fingerprint is an FNV-1a hash of the `u32`
//! tokens — no canonical *string* is ever built on a cache hit.
//! [`canonical_pattern`] renders the stream into the human-readable
//! `S[…]…{…}` form for debugging, protocol disclosure, and tests; string
//! equality and token equality coincide by construction (the renderer is
//! injective on streams).
//!
//! Anywhere the canonical form must not depend on written conjunct order
//! — sibling subtrees whose *name-free structural signatures* tie, and
//! the predicate/HAVING conjunct lists themselves — ordering is decided
//! by **speculative erasure**: each candidate is erased against the live
//! canonical-name state, which is then rolled back to where the probe
//! began, and the smallest resulting stream commits first — streams that
//! tie fall back to the constants the erasure recorded, then to a
//! rename-invariant physical-sharing trail.
//! Naming in written order and sorting afterwards is not enough, because
//! naming *assigns* the `c` indices the sort keys are made of. (The
//! semantic oracle, ISSUE 9, caught the failure modes of the old scheme
//! one by one: an insertion-order tie-break for structurally identical
//! siblings, conjunct-order column naming, tied probes resolved without
//! lookahead, and token-symmetric conjuncts whose cross-binding column
//! sharing — erased from the stream but compared by the oracle's data
//! transport — depended on written order.)

use queryvis_logic::{AttrRef, LogicTree, LtOperand, LtPredicate, NodeId, SelectAttr};
use queryvis_sql::{AggFunc, CompareOp, Symbol, Value};
use std::cmp::Ordering;
use std::ops::Range;

// Token tags. Kept well clear of the dense payload ranges so a tag can
// never be confused with a canonical index in a stream comparison.
const T_SELECT: u32 = 0xF000_0001;
const T_SEL_COL: u32 = 0xF000_0002;
const T_SEL_AGG: u32 = 0xF000_0003;
const T_GROUP: u32 = 0xF000_0004;
const T_GROUP_ATTR: u32 = 0xF000_0005;
const T_OPEN: u32 = 0xF000_0006;
const T_BINDING: u32 = 0xF000_0007;
const T_PRED_JOIN: u32 = 0xF000_0008;
const T_PRED_SEL: u32 = 0xF000_0009;
const T_CLOSE: u32 = 0xF000_000A;
const T_NO_ARG: u32 = 0xF000_000B;
const T_HAS_ARG: u32 = 0xF000_000C;
const T_HAVING: u32 = 0xF000_000D;
const T_HAV_PRED: u32 = 0xF000_000E;
const T_UNION: u32 = 0xF000_000F;
const T_BRANCH: u32 = 0xF000_0010;

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// The canonical pattern of a query as a compact token stream.
///
/// Equality of [`PatternKey`]s is the paper's pattern equivalence; the
/// [`PatternKey::fingerprint128`] is the serving layer's cache key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PatternKey {
    tokens: Vec<u32>,
}

/// The canonical-name assignment recorded while erasing one branch — the
/// readable companion of the branch's token stream, produced by
/// [`PatternKey::branch_erasures`]. Consumers (the semantic oracle's data
/// transport) use it to translate concrete names into the canonical
/// `(b, c)` coordinate space the fingerprint is expressed in.
#[derive(Debug, Clone)]
pub struct TreeErasure {
    /// Position of this branch's stream in the canonical (sorted) branch
    /// order used by [`PatternKey::of_branches`]; 0 for single-branch
    /// queries.
    pub rank: usize,
    /// The branch's canonical token stream.
    pub tokens: Vec<u32>,
    /// Binding key → canonical binding index, sorted by (dense) index.
    pub bindings: Vec<(Symbol, u32)>,
    /// (binding key, column) → canonical `(b, c)` slot, sorted by slot.
    pub attrs: Vec<(Symbol, Symbol, (u32, u32))>,
}

/// Canonical-name erasure state, flat and in allocation order: a binding's
/// canonical index is its position in `bindings`, and `slots` lists every
/// named column with its index. Speculative probes (the tie-breaks in
/// [`erase_all`] and `walk`) erase against this live state and then
/// [`Eraser::rollback`] to the [`Mark`] taken before them, so a probe
/// costs what it erases, not a copy of everything named so far.
struct Eraser<'p> {
    /// Binding key and the next free column index of that binding, by
    /// canonical binding index.
    bindings: Vec<(Symbol, u32)>,
    /// `(b, column, c)`: column `column` of binding `b` is canonical
    /// column `c`, in allocation order.
    slots: Vec<(u32, Symbol, u32)>,
    /// Constant values seen, in erasure order. *Not* part of the token
    /// stream (the pattern erases constant values) — recorded only as a
    /// deterministic tie-break between candidates whose erased streams
    /// tie, so the canonical *name maps* ([`TreeErasure`]) stay stable
    /// under conjunct reordering whenever the constants can tell the
    /// candidates apart. The semantic oracle's data transport depends on
    /// that stability to pair up slots across equal-fingerprint queries.
    consts: Vec<ConstKey>,
    /// Physical-sharing profile of the query being erased (see
    /// [`physical_shares`]), borrowed by every branch's eraser.
    share_of: &'p ShareProfile,
    /// Sharing descriptors of freshly allocated columns, in allocation
    /// order — the last-resort tie-break trail. Candidates can be fully
    /// token-symmetric (identical probes *and* identical continuations:
    /// `B.p = A.x AND B.q = A.y`) yet erase physically different columns,
    /// and cross-binding column sharing — invisible to the token stream
    /// by design, but compared by the oracle's transport — then differs
    /// between written orders. Each descriptor is rename-invariant (the
    /// canonical indices of already-named co-sharers, plus a count of
    /// not-yet-named ones), so ordering on the trail keeps the name maps
    /// spelling-independent without re-admitting names into the pattern.
    shares: Vec<ShareKey<'p>>,
}

/// The lengths of an [`Eraser`]'s vectors before a speculative probe.
#[derive(Clone, Copy)]
struct Mark {
    bindings: usize,
    slots: usize,
    consts: usize,
    shares: usize,
}

/// One fresh column's sharing descriptor, compared component-wise:
///
/// 1. For every *other* binding referencing the same physical column
///    that is already named at allocation time, its canonical binding
///    index and the canonical column index it gave the shared column
///    (`u32::MAX` when it has not touched the column yet), sorted.
/// 2. A count of co-sharing bindings not named at all yet (including
///    bindings in sibling branches, which erase separately).
/// 3. The (binding, column)'s total reference count across the query —
///    which sees references in child blocks that the conjunct-list
///    lookahead cannot reach.
/// 4. The physical column's reference-context profile (see [`CtxTag`]) —
///    which sees *how* sibling branches use the shared column even
///    though their erasures are independent.
///
/// Every component is an erasure output or a structural count, never a
/// concrete name — two sharing classes of equal size still compare
/// differently when their members sit at different canonical coordinates
/// or are used differently elsewhere in the query.
type ShareKey<'p> = (Vec<(u32, u32)>, u32, u32, &'p [CtxTag]);

/// One reference context of a physical column, name-free: selected
/// column, aggregate argument (with function), grouping column, HAVING
/// argument (function + operator), predicate vs constant (operator), or
/// predicate vs attribute (operator folded with its flip, so the
/// name-based orientation of a join cannot leak in).
type CtxTag = (u8, u32, u32);

/// Rename-invariant sharing profile of a query, consulted by the erasure
/// tie-break. It is a function of the query's reference *structure* only
/// (never of written conjunct order or concrete names), so it is safe to
/// consult inside canonicalization. Flat: one entry per referenced
/// (binding key, column), sorted for binary search, with the sharing
/// classes and context multisets concatenated into two vectors.
struct ShareProfile {
    entries: Vec<ShareEntry>,
    members: Vec<Symbol>,
    contexts: Vec<CtxTag>,
}

/// What [`ShareProfile`] records for one (binding key, column).
struct ShareEntry {
    key: (Symbol, Symbol),
    /// Total number of references across all branches (predicates,
    /// select list, grouping, aggregate args).
    refs: u32,
    /// Range of `members`: the physical column's sharing class, the
    /// distinct bindings, across all branches, of the same base table
    /// referencing a column of that name. Exactly the relation the
    /// semantic oracle's transport partitions columns by.
    class: Range<usize>,
    /// Range of `contexts`: the physical column's sorted context
    /// multiset, shared by every member of its sharing class.
    contexts: Range<usize>,
}

impl ShareProfile {
    /// Reference count, sharing class and context multiset of one
    /// (binding key, column); nothing for a column the query never
    /// references.
    fn of(&self, binding: Symbol, column: Symbol) -> (u32, &[Symbol], &[CtxTag]) {
        match self
            .entries
            .binary_search_by_key(&(binding, column), |e| e.key)
        {
            Ok(i) => {
                let e = &self.entries[i];
                (
                    e.refs,
                    &self.members[e.class.clone()],
                    &self.contexts[e.contexts.clone()],
                )
            }
            Err(_) => (0, &[], &[]),
        }
    }
}

fn physical_shares(trees: &[&LogicTree]) -> ShareProfile {
    // Binding key → base table, sorted by key. A key bound twice keeps
    // its last binding.
    let mut table_of: Vec<(Symbol, Symbol)> = trees
        .iter()
        .flat_map(|tree| tree.bindings())
        .map(|t| (t.key, t.table))
        .collect();
    table_of.reverse();
    table_of.sort_by_key(|&(key, _)| key);
    table_of.dedup_by_key(|&mut (key, _)| key);
    // Every reference as (base table, column, binding key, context), so
    // sorting groups the references by physical column and, within one,
    // by binding. A binding without a table shares with nothing.
    let mut refs: Vec<(Option<Symbol>, Symbol, Symbol, CtxTag)> = Vec::new();
    {
        let mut add = |a: &AttrRef, tag: CtxTag| {
            let table = table_of
                .binary_search_by_key(&a.binding, |&(key, _)| key)
                .ok()
                .map(|i| table_of[i].1);
            refs.push((table, a.column, a.binding, tag));
        };
        for tree in trees {
            for s in &tree.select {
                match s {
                    SelectAttr::Column(a) => add(a, (0, 0, 0)),
                    SelectAttr::Aggregate { func, arg } => {
                        if let Some(a) = arg {
                            add(a, (1, func.code(), 0));
                        }
                    }
                }
            }
            for a in &tree.group_by {
                add(a, (2, 0, 0));
            }
            for h in &tree.having {
                if let Some(a) = &h.arg {
                    add(a, (3, h.func.code(), h.op.code()));
                }
            }
            for node in tree.nodes() {
                for p in &node.predicates {
                    match &p.rhs {
                        LtOperand::Const(_) => add(&p.lhs, (4, p.op.code(), 0)),
                        LtOperand::Attr(a) => {
                            let op = p.op.code().min(p.op.flip().code());
                            add(&p.lhs, (5, op, 0));
                            add(a, (5, op, 0));
                        }
                    }
                }
            }
        }
    }
    refs.sort_unstable();
    let mut entries = Vec::new();
    let mut members = Vec::new();
    let mut contexts = Vec::new();
    for column in refs.chunk_by(|x, y| (x.0, x.1) == (y.0, y.1)) {
        let (class, tags) = (members.len(), contexts.len());
        let bindings = || column.chunk_by(|x, y| x.2 == y.2);
        if column[0].0.is_some() {
            members.extend(bindings().map(|run| run[0].2));
            contexts.extend(column.iter().map(|r| r.3));
            contexts[tags..].sort_unstable();
        }
        for run in bindings() {
            entries.push(ShareEntry {
                key: (run[0].2, run[0].1),
                refs: run.len() as u32,
                class: class..members.len(),
                contexts: tags..contexts.len(),
            });
        }
    }
    entries.sort_unstable_by_key(|e| e.key);
    ShareProfile {
        entries,
        members,
        contexts,
    }
}

/// Order-comparable digest of a constant: numerics by value (sign-folded
/// IEEE bits give total order), everything else by text. Symbol *ids* are
/// never compared — they depend on interner history.
type ConstKey = (u8, u64, &'static str);

/// What one speculative continuation recorded, in comparison order:
/// erased streams first, then the constants trail, then the sharing
/// trail, then the committed candidate (index or node).
type ErasedTrail<'p, S, C> = (S, Vec<ConstKey>, Vec<ShareKey<'p>>, C);

fn const_key(v: Value) -> ConstKey {
    match v.numeric() {
        Some(n) => {
            let bits = n.to_bits();
            let ordered = if bits >> 63 == 1 {
                !bits
            } else {
                bits | 1 << 63
            };
            (1, ordered, "")
        }
        None => (2, 0, v.text()),
    }
}

impl<'p> Eraser<'p> {
    fn new(share_of: &'p ShareProfile) -> Eraser<'p> {
        Eraser {
            bindings: Vec::new(),
            slots: Vec::new(),
            consts: Vec::new(),
            share_of,
            shares: Vec::new(),
        }
    }

    fn mark(&self) -> Mark {
        Mark {
            bindings: self.bindings.len(),
            slots: self.slots.len(),
            consts: self.consts.len(),
            shares: self.shares.len(),
        }
    }

    /// Undo everything erased since `mark`. A binding's next free column
    /// index goes back to the smallest index it handed out since then.
    fn rollback(&mut self, mark: Mark) {
        for &(b, _, c) in self.slots[mark.slots..].iter().rev() {
            self.bindings[b as usize].1 = c;
        }
        self.bindings.truncate(mark.bindings);
        self.slots.truncate(mark.slots);
        self.consts.truncate(mark.consts);
        self.shares.truncate(mark.shares);
    }

    fn binding_of(&self, key: Symbol) -> Option<u32> {
        self.bindings
            .iter()
            .position(|&(k, _)| k == key)
            .map(|b| b as u32)
    }

    fn column_of(&self, b: u32, column: Symbol) -> Option<u32> {
        self.slots
            .iter()
            .find(|&&(sb, sc, _)| sb == b && sc == column)
            .map(|&(_, _, c)| c)
    }

    fn binding(&mut self, key: Symbol) -> u32 {
        self.binding_of(key).unwrap_or_else(|| {
            self.bindings.push((key, 0));
            self.bindings.len() as u32 - 1
        })
    }

    fn attr(&mut self, binding: Symbol, column: Symbol) -> (u32, u32) {
        let b = self.binding(binding);
        if let Some(c) = self.column_of(b, column) {
            return (b, c);
        }
        // Fresh column: record its sharing descriptor (see [`ShareKey`])
        // before committing the index.
        let (refs, class, ctx) = self.share_of.of(binding, column);
        let mut named: Vec<(u32, u32)> = Vec::new();
        let mut unnamed = 0u32;
        for &k in class.iter().filter(|&&k| k != binding) {
            match self.binding_of(k) {
                Some(bk) => named.push((bk, self.column_of(bk, column).unwrap_or(u32::MAX))),
                None => unnamed += 1,
            }
        }
        named.sort_unstable();
        self.shares.push((named, unnamed, refs, ctx));
        let next = &mut self.bindings[b as usize].1;
        let c = *next;
        *next += 1;
        self.slots.push((b, column, c));
        (b, c)
    }
}

/// Orient a join predicate so the lexicographically smaller attribute (by
/// resolved name) leads. This is deliberately *name*-based, not id-based:
/// pattern-equal queries over different alias/attribute names (the paper's
/// cross-schema patterns) must orient corresponding predicates the same
/// way, and interner id order depends on process history.
fn orient(p: &LtPredicate) -> LtPredicate {
    match p.rhs {
        LtOperand::Attr(rhs) => {
            let lhs_name = (p.lhs.binding.as_str(), p.lhs.column.as_str());
            let rhs_name = (rhs.binding.as_str(), rhs.column.as_str());
            // Equal names (a self-comparison `x op x`): names cannot break
            // the tie, so orient by operator code — `x <= x` and its
            // flipped spelling `x >= x` are the same predicate.
            let flip =
                rhs_name < lhs_name || (rhs_name == lhs_name && p.op.flip().code() < p.op.code());
            if flip {
                LtPredicate {
                    lhs: rhs,
                    op: p.op.flip(),
                    rhs: LtOperand::Attr(p.lhs),
                }
            } else {
                *p
            }
        }
        LtOperand::Const(_) => *p,
    }
}

/// Erase one (already oriented) predicate through the name state, pushing
/// its constant (if any) onto the tie-break trail.
fn erase_pred(p: &LtPredicate, eraser: &mut Eraser) -> [u32; 6] {
    let (lb, lc) = eraser.attr(p.lhs.binding, p.lhs.column);
    match p.rhs {
        LtOperand::Attr(a) => {
            let (rb, rc) = eraser.attr(a.binding, a.column);
            [T_PRED_JOIN, p.op.code(), lb, lc, rb, rc]
        }
        LtOperand::Const(v) => {
            eraser.consts.push(const_key(v));
            [T_PRED_SEL, p.op.code(), lb, lc, 0, 0]
        }
    }
}

/// Work cap on recursive tie lookahead, counted in probe erasures. Real
/// conjunct lists resolve in a handful of probes; the cap only exists so
/// an adversarial query with many mutually indistinguishable conjuncts
/// degrades to first-wins (still deterministic per normalized text)
/// instead of factorial work in the service's fingerprint path.
const TIE_LOOKAHEAD_BUDGET: u32 = 10_000;

/// Greedily order a conjunct list: at each step erase every remaining
/// item against the current name state (rolled back after each probe) and
/// commit the smallest resulting tuple (ties broken by the constants the
/// erasure recorded).
/// Committing the minimum first keeps the emitted sequence sorted — a
/// later item's final tuple can only grow past its earlier candidate,
/// because committed names are fixed and fresh `c` indices only increase
/// — while guaranteeing the `c` assignment itself is independent of the
/// written conjunct order.
///
/// Probes that tie *exactly* (same tuple, same constants, same sharing)
/// can still erase different physical columns — `T.a = U.k AND T.b = U.k`
/// probes both conjuncts to the same `JOIN` tuple, yet whichever commits
/// first hands its column the smaller fresh index, and a later conjunct
/// touching one of them would then name it differently depending on
/// written order. So exact ties are broken by lookahead: erase the whole
/// remaining list under each tied candidate and commit the one whose full
/// continuation is smallest. Candidates that stay tied even through the
/// lookahead (fully token-symmetric conjuncts) are ordered by the
/// physical-sharing trail — see [`Eraser::shares`] — before falling back
/// to written order.
fn greedy_erase<'p, T>(
    items: &[T],
    eraser: &mut Eraser<'p>,
    erase: impl Fn(&T, &mut Eraser<'p>) -> [u32; 6],
) -> Vec<[u32; 6]> {
    let mut remaining: Vec<&T> = items.iter().collect();
    let mut ordered = Vec::with_capacity(items.len());
    let mut budget = TIE_LOOKAHEAD_BUDGET;
    erase_all(&mut remaining, eraser, &erase, &mut budget, &mut ordered);
    ordered
}

fn erase_all<'p, T>(
    remaining: &mut Vec<&T>,
    eraser: &mut Eraser<'p>,
    erase: &impl Fn(&T, &mut Eraser<'p>) -> [u32; 6],
    budget: &mut u32,
    out: &mut Vec<[u32; 6]>,
) {
    while !remaining.is_empty() {
        let mark = eraser.mark();
        // Probe every item, keeping the smallest probe so far and the
        // items that tie it exactly, in written order.
        let mut min: Option<([u32; 6], Vec<ConstKey>, Vec<ShareKey<'p>>)> = None;
        let mut candidates: Vec<usize> = Vec::new();
        for (i, item) in remaining.iter().enumerate() {
            let tuple = erase(item, eraser);
            let consts = &eraser.consts[mark.consts..];
            let shares = &eraser.shares[mark.shares..];
            let order = match &min {
                None => Ordering::Less,
                Some((t, k, s)) => (&tuple, consts, shares).cmp(&(t, k.as_slice(), s.as_slice())),
            };
            match order {
                Ordering::Less => {
                    min = Some((tuple, consts.to_vec(), shares.to_vec()));
                    candidates.clear();
                    candidates.push(i);
                }
                Ordering::Equal => candidates.push(i),
                Ordering::Greater => {}
            }
            eraser.rollback(mark);
            *budget = budget.saturating_sub(1);
        }
        let chosen = if candidates.len() == 1 || *budget == 0 {
            candidates[0]
        } else {
            // Exact tie: identical probes over different columns. Compare
            // whole continuations (tokens, then constants, then the
            // physical-sharing trail) and commit the candidate yielding
            // the smallest one.
            let mut best: Option<ErasedTrail<'p, Vec<[u32; 6]>, usize>> = None;
            for &c in &candidates {
                let mut trail = vec![erase(remaining[c], eraser)];
                let mut rest: Vec<&T> = remaining
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != c)
                    .map(|(_, item)| *item)
                    .collect();
                erase_all(&mut rest, eraser, erase, budget, &mut trail);
                let consts = &eraser.consts[mark.consts..];
                let shares = &eraser.shares[mark.shares..];
                let better = match &best {
                    None => true,
                    Some((t, k, s, _)) => {
                        (&trail, consts, shares) < (t, k.as_slice(), s.as_slice())
                    }
                };
                if better {
                    best = Some((trail, consts.to_vec(), shares.to_vec(), c));
                }
                eraser.rollback(mark);
            }
            best.unwrap().3
        };
        let item = remaining.remove(chosen);
        out.push(erase(item, eraser));
    }
}

impl PatternKey {
    /// Canonicalize a logic tree into its pattern token stream.
    pub fn of_tree(tree: &LogicTree) -> PatternKey {
        let mut tokens = Vec::new();
        PatternKey::of_tree_into(tree, &mut tokens);
        PatternKey { tokens }
    }

    /// [`PatternKey::of_tree`] into a caller-owned token buffer (cleared
    /// first), so the serving layer's per-request fingerprinting reuses
    /// one `Vec<u32>` across a whole batch instead of allocating a stream
    /// per query. Combine with [`PatternKey::fingerprint128_of`] to hash
    /// without ever materializing a `PatternKey`.
    pub fn of_tree_into(tree: &LogicTree, tokens: &mut Vec<u32>) {
        let share_of = physical_shares(&[tree]);
        Self::canonicalize_into(tree, &mut Eraser::new(&share_of), tokens);
    }

    /// The full canonicalization, erasing through caller-provided state so
    /// [`PatternKey::branch_erasures`] can read the name assignment back
    /// out of the `Eraser` afterwards.
    fn canonicalize_into(tree: &LogicTree, eraser: &mut Eraser, tokens: &mut Vec<u32>) {
        // Phase 1: structural signatures, bottom-up, name-free. Used to
        // order children deterministically before assigning canonical
        // names. Signatures are token streams themselves (compared
        // lexicographically), so sibling ordering never hinges on a hash.
        let mut signature: Vec<Vec<u32>> = vec![Vec::new(); tree.node_count()];
        for &id in tree.preorder().iter().rev() {
            let node = tree.node(id);
            let mut child_sigs: Vec<&[u32]> = node
                .children
                .iter()
                .map(|&c| signature[c].as_slice())
                .collect();
            child_sigs.sort();
            // Predicate *shapes* only (join vs selection, operator), no
            // names. Shapes come from the *oriented* predicate: the
            // written `A.x > B.y` and its flipped spelling `B.y < A.x`
            // must contribute the same shape, or operand-flipped variants
            // could sort siblings differently and diverge in erasure.
            let mut pred_shapes: Vec<(u32, u32)> = node
                .predicates
                .iter()
                .map(|p| {
                    let p = orient(p);
                    match p.rhs {
                        LtOperand::Attr(_) => (0, p.op.code()),
                        LtOperand::Const(_) => (1, p.op.code()),
                    }
                })
                .collect();
            pred_shapes.sort_unstable();
            let mut sig = Vec::with_capacity(8 + 2 * pred_shapes.len());
            sig.push(T_OPEN);
            sig.push(node.quantifier.code());
            sig.push(node.tables.len() as u32);
            for (kind, op) in &pred_shapes {
                sig.push(*kind);
                sig.push(*op);
            }
            for child in child_sigs {
                sig.extend_from_slice(child);
            }
            sig.push(T_CLOSE);
            signature[id] = sig;
        }

        // Phase 2: canonical traversal (children ordered by signature),
        // with name erasure into dense indices.
        tokens.clear();
        tokens.reserve(16 * tree.node_count());

        // Select list first (arity and attribute identity matter for the
        // pattern: "find drinkers" vs "find beers" differ in which binding
        // is projected).
        tokens.push(T_SELECT);
        for attr in &tree.select {
            match attr {
                SelectAttr::Column(a) => {
                    let (b, c) = eraser.attr(a.binding, a.column);
                    tokens.extend_from_slice(&[T_SEL_COL, b, c]);
                }
                SelectAttr::Aggregate { func, arg } => {
                    tokens.extend_from_slice(&[T_SEL_AGG, func.code()]);
                    match arg {
                        Some(a) => {
                            let (b, c) = eraser.attr(a.binding, a.column);
                            tokens.extend_from_slice(&[T_HAS_ARG, b, c]);
                        }
                        None => tokens.push(T_NO_ARG),
                    }
                }
            }
        }
        if !tree.group_by.is_empty() {
            tokens.push(T_GROUP);
            for attr in &tree.group_by {
                let (b, c) = eraser.attr(attr.binding, attr.column);
                tokens.extend_from_slice(&[T_GROUP_ATTR, b, c]);
            }
        }
        if !tree.having.is_empty() {
            // HAVING conjuncts: erased like selections (the constant is a
            // placeholder), order-canonicalized by greedy erasure so an
            // aggregate argument's `c` index never depends on which
            // conjunct was written first.
            tokens.push(T_HAVING);
            let rendered = greedy_erase(&tree.having, eraser, |h, eraser| {
                eraser.consts.push(const_key(h.value));
                match h.arg {
                    Some(a) => {
                        let (b, c) = eraser.attr(a.binding, a.column);
                        [T_HAV_PRED, h.func.code(), h.op.code(), T_HAS_ARG, b, c]
                    }
                    None => [T_HAV_PRED, h.func.code(), h.op.code(), T_NO_ARG, 0, 0],
                }
            });
            for pred in &rendered {
                let len = if pred[3] == T_HAS_ARG { 6 } else { 4 };
                tokens.extend_from_slice(&pred[..len]);
            }
        }

        fn walk(
            tree: &LogicTree,
            id: NodeId,
            signature: &[Vec<u32>],
            eraser: &mut Eraser,
            tokens: &mut Vec<u32>,
        ) {
            let node = tree.node(id);
            tokens.push(T_OPEN);
            tokens.push(node.quantifier.code());
            // Bindings in FROM order get canonical names on first visit.
            for table in &node.tables {
                let b = eraser.binding(table.key);
                tokens.extend_from_slice(&[T_BINDING, b]);
            }
            // Predicates: oriented, then greedily ordered-and-named.
            // Naming in written conjunct order and sorting afterwards is
            // not order-insensitive — naming *assigns* the `c` indices
            // the sort keys are made of (the semantic oracle's second
            // catch: `B.z = 3 AND A.x = B.y` vs the swapped spelling gave
            // `B.y`/`B.z` opposite indices and split the fingerprint).
            let oriented: Vec<LtPredicate> = node.predicates.iter().map(orient).collect();
            let rendered = greedy_erase(&oriented, eraser, erase_pred);
            for pred in &rendered {
                let len = if pred[0] == T_PRED_JOIN { 6 } else { 4 };
                tokens.extend_from_slice(&pred[..len]);
            }
            // Children in canonical (signature) order. Signatures are
            // name-free, so structurally identical siblings *tie* even when
            // they are cross-linked to different outer bindings (e.g. two
            // one-table ∄ blocks, one joining back to `a`, one to `b`).
            // Ties used to fall back to insertion order, which made the
            // erased stream depend on the written conjunct order — the
            // semantic oracle's first catch. Resolve a tied run by erasing
            // each candidate subtree against the current eraser, rolled
            // back after each, and ordering on the resulting streams:
            // candidate streams only reference outer bindings (already
            // named) and a sibling's own fresh bindings (named
            // deterministically from the marked state), never another
            // sibling's, so they are stable while the run commits and the
            // greedy order is canonical.
            let mut children = node.children.clone();
            children.sort_by(|&a, &b| signature[a].cmp(&signature[b]));
            let mut start = 0;
            while start < children.len() {
                let mut end = start + 1;
                while end < children.len() && signature[children[end]] == signature[children[start]]
                {
                    end += 1;
                }
                if end - start > 1 {
                    // Sort key: the candidate's erased stream, then the
                    // constants its erasure saw (identical streams can
                    // still differ in erased constant values, and the
                    // name-map transport needs those paired canonically),
                    // then the physical-sharing trail (token-symmetric
                    // candidates can still erase differently shared
                    // columns), then node id for full determinism.
                    let mark = eraser.mark();
                    let mut keyed: Vec<ErasedTrail<Vec<u32>, NodeId>> = children[start..end]
                        .iter()
                        .map(|&child| {
                            let mut stream = Vec::new();
                            walk(tree, child, signature, eraser, &mut stream);
                            let key = (
                                stream,
                                eraser.consts[mark.consts..].to_vec(),
                                eraser.shares[mark.shares..].to_vec(),
                                child,
                            );
                            eraser.rollback(mark);
                            key
                        })
                        .collect();
                    keyed.sort();
                    for (offset, (_, _, _, child)) in keyed.into_iter().enumerate() {
                        children[start + offset] = child;
                    }
                }
                start = end;
            }
            for child in children {
                walk(tree, child, signature, eraser, tokens);
            }
            tokens.push(T_CLOSE);
        }
        walk(tree, 0, &signature, eraser, tokens);
    }

    /// Canonicalize a multi-branch (UNION / OR-split) query. A single
    /// branch yields exactly [`PatternKey::of_tree`]'s stream — the entire
    /// pre-widening fingerprint domain is unchanged. Multiple branches are
    /// canonicalized independently (each with its own name erasure — the
    /// diagrams are separate), **order-canonicalized** by sorting the
    /// branch token streams, and framed with union tokens carrying the
    /// `UNION` vs `UNION ALL` distinction.
    pub fn of_branches(trees: &[&LogicTree], all: bool) -> PatternKey {
        let mut tokens = Vec::new();
        PatternKey::of_branches_into(trees, all, &mut tokens);
        PatternKey { tokens }
    }

    /// [`PatternKey::of_branches`] into a caller-owned buffer (cleared
    /// first) — the serving layer's fingerprinting path.
    pub fn of_branches_into(trees: &[&LogicTree], all: bool, tokens: &mut Vec<u32>) {
        if let [single] = trees {
            PatternKey::of_tree_into(single, tokens);
            return;
        }
        // The sharing profile spans all branches (column sharing is a
        // query-wide relation), so every branch erases against one profile.
        let share_of = physical_shares(trees);
        let mut branch_streams: Vec<Vec<u32>> = trees
            .iter()
            .map(|tree| {
                let mut stream = Vec::new();
                PatternKey::canonicalize_into(tree, &mut Eraser::new(&share_of), &mut stream);
                stream
            })
            .collect();
        branch_streams.sort();
        tokens.clear();
        tokens.push(T_UNION);
        tokens.push(u32::from(all));
        tokens.push(branch_streams.len() as u32);
        for stream in &branch_streams {
            tokens.push(T_BRANCH);
            tokens.extend_from_slice(stream);
        }
    }

    /// Canonicalize every branch of a query and return, per branch, the
    /// recorded canonical-name assignment: which binding key became which
    /// `b` index and which `(binding, column)` became which `(b, c)` slot,
    /// plus the branch's position in the canonical (sorted-stream) branch
    /// order.
    ///
    /// This is the bridge the semantic oracle's *data transport* is built
    /// on: two equal-fingerprint queries assign corresponding bindings the
    /// same `b` and corresponding attributes the same `(b, c)`, so a
    /// database generated per canonical slot executes both queries over
    /// "the same" data even when every concrete name differs.
    pub fn branch_erasures(trees: &[&LogicTree]) -> Vec<TreeErasure> {
        let share_of = physical_shares(trees);
        let mut trails: Vec<(Vec<ConstKey>, Vec<ShareKey>)> = Vec::with_capacity(trees.len());
        let mut erasures: Vec<TreeErasure> = trees
            .iter()
            .map(|tree| {
                let mut eraser = Eraser::new(&share_of);
                let mut tokens = Vec::new();
                PatternKey::canonicalize_into(tree, &mut eraser, &mut tokens);
                let bindings: Vec<(Symbol, u32)> = (0..)
                    .zip(&eraser.bindings)
                    .map(|(b, &(key, _))| (key, b))
                    .collect();
                let mut attrs: Vec<(Symbol, Symbol, (u32, u32))> = eraser
                    .slots
                    .iter()
                    .map(|&(b, column, c)| (bindings[b as usize].0, column, (b, c)))
                    .collect();
                attrs.sort_by_key(|&(_, _, slot)| slot);
                trails.push((eraser.consts, eraser.shares));
                TreeErasure {
                    rank: 0,
                    tokens,
                    bindings,
                    attrs,
                }
            })
            .collect();
        // Ranks mirror `of_branches_into`'s stream sort, so rank k here is
        // branch k of the fingerprint's canonical branch order. Branches
        // with *equal* streams sort the same under any order, but the
        // transport pairs branch k of one query with branch k of the
        // other — so tied streams are rank-ordered by their erasure
        // trails (constants, then physical sharing; both invariant under
        // branch rotation and renaming) before falling back to written
        // branch order.
        let mut order: Vec<usize> = (0..erasures.len()).collect();
        order.sort_by(|&i, &j| {
            erasures[i]
                .tokens
                .cmp(&erasures[j].tokens)
                .then_with(|| trails[i].cmp(&trails[j]))
                .then(i.cmp(&j))
        });
        for (rank, &index) in order.iter().enumerate() {
            erasures[index].rank = rank;
        }
        erasures
    }

    /// The raw token stream (exposed for tests).
    pub fn tokens(&self) -> &[u32] {
        &self.tokens
    }

    /// 128-bit FNV-1a over the token stream (little-endian `u32`s) — the
    /// serving layer's cache key. Hashes `4 * tokens.len()` bytes of ids
    /// instead of a re-built canonical string.
    pub fn fingerprint128(&self) -> u128 {
        PatternKey::fingerprint128_of(&self.tokens)
    }

    /// [`PatternKey::fingerprint128`] over a raw token slice, for callers
    /// that canonicalized into a reusable buffer via
    /// [`PatternKey::of_tree_into`] and never build a `PatternKey`.
    pub fn fingerprint128_of(tokens: &[u32]) -> u128 {
        let mut hash = FNV128_OFFSET;
        for token in tokens {
            for byte in token.to_le_bytes() {
                hash ^= u128::from(byte);
                hash = hash.wrapping_mul(FNV128_PRIME);
            }
        }
        hash
    }

    /// Render the human-readable canonical form (`S[b0.c0;]∃{b0;(…)}`).
    /// Injective on token streams: two keys render equal strings iff they
    /// are equal.
    pub fn render(&self) -> String {
        fn op_str(code: u32) -> &'static str {
            for op in [
                CompareOp::Lt,
                CompareOp::Le,
                CompareOp::Eq,
                CompareOp::Ne,
                CompareOp::Ge,
                CompareOp::Gt,
            ] {
                if op.code() == code {
                    return op.as_str();
                }
            }
            "?"
        }
        fn agg_str(code: u32) -> &'static str {
            for func in [
                AggFunc::Count,
                AggFunc::Sum,
                AggFunc::Avg,
                AggFunc::Min,
                AggFunc::Max,
            ] {
                if func.code() == code {
                    return func.as_str();
                }
            }
            "?"
        }
        fn quant_str(code: u32) -> &'static str {
            match code {
                0 => "\u{2203}",
                1 => "\u{2204}",
                _ => "\u{2200}",
            }
        }

        let mut out = String::with_capacity(4 * self.tokens.len());
        let t = &self.tokens;
        let mut i = 0;
        let mut select_open = false;
        while i < t.len() {
            match t[i] {
                T_SELECT => {
                    out.push_str("S[");
                    select_open = true;
                    i += 1;
                }
                T_SEL_COL => {
                    out.push_str(&format!("b{}.c{};", t[i + 1], t[i + 2]));
                    i += 3;
                }
                T_SEL_AGG => {
                    out.push_str(agg_str(t[i + 1]));
                    out.push('(');
                    i += 2;
                    if t[i] == T_HAS_ARG {
                        out.push_str(&format!("b{}.c{}", t[i + 1], t[i + 2]));
                        i += 3;
                    } else {
                        i += 1; // T_NO_ARG
                    }
                    out.push_str(");");
                }
                T_GROUP => {
                    if select_open {
                        out.push(']');
                        select_open = false;
                    }
                    out.push_str("G[");
                    i += 1;
                    while i < t.len() && t[i] == T_GROUP_ATTR {
                        out.push_str(&format!("b{}.c{};", t[i + 1], t[i + 2]));
                        i += 3;
                    }
                    out.push(']');
                }
                T_HAVING => {
                    if select_open {
                        out.push(']');
                        select_open = false;
                    }
                    out.push_str("H[");
                    i += 1;
                    while i < t.len() && t[i] == T_HAV_PRED {
                        let (func, op) = (t[i + 1], t[i + 2]);
                        out.push_str(agg_str(func));
                        out.push('(');
                        if t[i + 3] == T_HAS_ARG {
                            out.push_str(&format!("b{}.c{}", t[i + 4], t[i + 5]));
                            i += 6;
                        } else {
                            out.push('*');
                            i += 4;
                        }
                        out.push_str(&format!("){}K;", op_str(op)));
                    }
                    out.push(']');
                }
                T_UNION => {
                    out.push_str(if t[i + 1] == 1 { "UNION-ALL" } else { "UNION" });
                    out.push_str(&format!("({})", t[i + 2]));
                    i += 3;
                }
                T_BRANCH => {
                    out.push('\u{27E8}'); // ⟨ — branch delimiter
                    i += 1;
                }
                T_OPEN => {
                    if select_open {
                        out.push(']');
                        select_open = false;
                    }
                    out.push_str(quant_str(t[i + 1]));
                    out.push('{');
                    i += 2;
                }
                T_BINDING => {
                    out.push_str(&format!("b{};", t[i + 1]));
                    i += 2;
                }
                T_PRED_JOIN => {
                    out.push_str(&format!(
                        "(b{}.c{}{}b{}.c{})",
                        t[i + 2],
                        t[i + 3],
                        op_str(t[i + 1]),
                        t[i + 4],
                        t[i + 5],
                    ));
                    i += 6;
                }
                T_PRED_SEL => {
                    out.push_str(&format!(
                        "(b{}.c{}{}K)",
                        t[i + 2],
                        t[i + 3],
                        op_str(t[i + 1]),
                    ));
                    i += 4;
                }
                T_CLOSE => {
                    out.push('}');
                    i += 1;
                }
                other => {
                    // Unreachable by construction; keep rendering total.
                    out.push_str(&format!("<{other:#x}>"));
                    i += 1;
                }
            }
        }
        out
    }
}

/// Compute the canonical pattern string of a logic tree (the rendered form
/// of [`PatternKey::of_tree`]).
pub fn canonical_pattern(tree: &LogicTree) -> String {
    PatternKey::of_tree(tree).render()
}

/// [`canonical_pattern`] over the branches of a multi-root (UNION /
/// OR-split) query.
pub fn canonical_pattern_branches(trees: &[&LogicTree], all: bool) -> String {
    PatternKey::of_branches(trees, all).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use queryvis_corpus::{pattern_grid, sailors_only_variants, PatternKind};
    use queryvis_logic::translate;
    use queryvis_sql::parse_query;

    fn key(sql: &str) -> PatternKey {
        PatternKey::of_tree(&translate(&parse_query(sql).unwrap(), None).unwrap())
    }

    fn pattern(sql: &str) -> String {
        canonical_pattern(&translate(&parse_query(sql).unwrap(), None).unwrap())
    }

    #[test]
    fn same_pattern_across_schemas() {
        // Appendix G / Fig. 26: each row of the grid (a pattern over 3
        // schemas) yields one canonical form; different rows differ.
        let grid = pattern_grid();
        for kind in [PatternKind::No, PatternKind::Only, PatternKind::All] {
            let forms: Vec<String> = grid
                .iter()
                .filter(|q| q.kind == kind)
                .map(|q| pattern(&q.sql))
                .collect();
            assert_eq!(forms.len(), 3);
            assert_eq!(forms[0], forms[1], "{kind:?} differs across schemas");
            assert_eq!(forms[1], forms[2], "{kind:?} differs across schemas");
        }
        let no = pattern(&grid.iter().find(|q| q.kind == PatternKind::No).unwrap().sql);
        let only = pattern(
            &grid
                .iter()
                .find(|q| q.kind == PatternKind::Only)
                .unwrap()
                .sql,
        );
        let all = pattern(
            &grid
                .iter()
                .find(|q| q.kind == PatternKind::All)
                .unwrap()
                .sql,
        );
        assert_ne!(no, only);
        assert_ne!(only, all);
        assert_ne!(no, all);
    }

    #[test]
    fn syntactic_variants_share_pattern() {
        // Fig. 24: NOT EXISTS / NOT IN / NOT = ANY variants.
        let forms: Vec<String> = sailors_only_variants()
            .iter()
            .map(|sql| pattern(sql))
            .collect();
        assert_eq!(forms[0], forms[1]);
        assert_eq!(forms[1], forms[2]);
    }

    #[test]
    fn unique_set_same_pattern_for_drinkers_and_bars() {
        // §1.1: "find bars that have a unique set of visitors" has the
        // same diagram as "drinkers with a unique set of beers".
        let drinkers = pattern(
            "SELECT L1.drinker FROM Likes L1 WHERE NOT EXISTS( \
               SELECT * FROM Likes L2 WHERE L1.drinker <> L2.drinker \
               AND NOT EXISTS(SELECT * FROM Likes L3 WHERE L3.drinker = L2.drinker \
                 AND NOT EXISTS(SELECT * FROM Likes L4 WHERE L4.drinker = L1.drinker \
                   AND L4.beer = L3.beer)) \
               AND NOT EXISTS(SELECT * FROM Likes L5 WHERE L5.drinker = L1.drinker \
                 AND NOT EXISTS(SELECT * FROM Likes L6 WHERE L6.drinker = L2.drinker \
                   AND L6.beer = L5.beer)))",
        );
        let bars = pattern(
            "SELECT F1.bar FROM Frequents F1 WHERE NOT EXISTS( \
               SELECT * FROM Frequents F2 WHERE F1.bar <> F2.bar \
               AND NOT EXISTS(SELECT * FROM Frequents F3 WHERE F3.bar = F2.bar \
                 AND NOT EXISTS(SELECT * FROM Frequents F4 WHERE F4.bar = F1.bar \
                   AND F4.person = F3.person)) \
               AND NOT EXISTS(SELECT * FROM Frequents F5 WHERE F5.bar = F1.bar \
                 AND NOT EXISTS(SELECT * FROM Frequents F6 WHERE F6.bar = F2.bar \
                   AND F6.person = F5.person)))",
        );
        assert_eq!(drinkers, bars);
    }

    #[test]
    fn different_operators_break_the_pattern() {
        let eq = pattern("SELECT A.x FROM T A, T B WHERE A.x = B.x");
        let ne = pattern("SELECT A.x FROM T A, T B WHERE A.x <> B.x");
        assert_ne!(eq, ne);
    }

    #[test]
    fn selection_constant_value_is_erased() {
        let red = pattern("SELECT B.bid FROM Boat B WHERE B.color = 'red'");
        let green = pattern("SELECT B.bid FROM Boat B WHERE B.color = 'green'");
        assert_eq!(red, green);
    }

    #[test]
    fn projection_identity_matters() {
        // Selecting a different attribute is a different pattern.
        let a = pattern("SELECT L.drinker FROM Likes L WHERE L.beer = 'X'");
        let b = pattern("SELECT L.beer FROM Likes L WHERE L.beer = 'X'");
        assert_ne!(a, b);
    }

    #[test]
    fn self_comparison_orientation_is_canonical() {
        // `x <= x` and `x >= x` are operand-swapped spellings of one
        // predicate; names tie, so the operator must break the tie.
        let a = pattern("SELECT T.a FROM T WHERE T.a <= T.a");
        let b = pattern("SELECT T.a FROM T WHERE T.a >= T.a");
        assert_eq!(a, b);
        // Symmetric self-comparisons are trivially stable.
        let c = pattern("SELECT T.a FROM T WHERE T.a <> T.a");
        let d = pattern("SELECT T.a FROM T WHERE T.a <> T.a");
        assert_eq!(c, d);
    }

    #[test]
    fn child_order_is_canonicalized() {
        let ab = pattern(
            "SELECT A.x FROM A WHERE NOT EXISTS(SELECT * FROM B WHERE B.x = A.x AND B.y = 'k') \
             AND NOT EXISTS(SELECT * FROM C WHERE C.x = A.x)",
        );
        let ba = pattern(
            "SELECT A.x FROM A WHERE NOT EXISTS(SELECT * FROM C WHERE C.x = A.x) \
             AND NOT EXISTS(SELECT * FROM B WHERE B.x = A.x AND B.y = 'k')",
        );
        assert_eq!(ab, ba);
    }

    #[test]
    fn tied_sibling_signatures_ignore_conjunct_order() {
        // Minimized repro of the canonicalization divergence the semantic
        // oracle flushed out (ISSUE 9). The two ∄ blocks are structurally
        // identical — same shape signature — but cross-linked to
        // *different* outer bindings (`b.x` vs `a.x`). With the old
        // insertion-order tie-break, swapping the conjuncts changed which
        // subtree erased first, handed the subtrees different canonical
        // binding indices, and split one pattern into two fingerprints.
        let ab = key("SELECT A.x FROM T A, T B \
             WHERE NOT EXISTS(SELECT * FROM S S1 WHERE S1.k = B.x) \
             AND NOT EXISTS(SELECT * FROM S S2 WHERE S2.k = A.x)");
        let ba = key("SELECT A.x FROM T A, T B \
             WHERE NOT EXISTS(SELECT * FROM S S2 WHERE S2.k = A.x) \
             AND NOT EXISTS(SELECT * FROM S S1 WHERE S1.k = B.x)");
        assert_eq!(ab, ba, "sibling-tie order leaked into the fingerprint");
        // The cross-links still matter: retargeting one of them is a
        // different pattern, not a collision.
        let both_a = key("SELECT A.x FROM T A, T B \
             WHERE NOT EXISTS(SELECT * FROM S S1 WHERE S1.k = A.x) \
             AND NOT EXISTS(SELECT * FROM S S2 WHERE S2.k = A.x)");
        assert_ne!(ab, both_a);
    }

    #[test]
    fn tied_siblings_with_nested_structure_stay_order_insensitive() {
        // Same tie class one level deeper: the tied ∄ blocks each carry a
        // nested ∃, so the speculative erasure must recurse.
        let ab = key("SELECT A.x FROM T A, T B WHERE \
             NOT EXISTS(SELECT * FROM S S1 WHERE S1.k = B.x AND \
               EXISTS(SELECT * FROM U U1 WHERE U1.v = S1.k)) AND \
             NOT EXISTS(SELECT * FROM S S2 WHERE S2.k = A.x AND \
               EXISTS(SELECT * FROM U U2 WHERE U2.v = S2.k))");
        let ba = key("SELECT A.x FROM T A, T B WHERE \
             NOT EXISTS(SELECT * FROM S S2 WHERE S2.k = A.x AND \
               EXISTS(SELECT * FROM U U2 WHERE U2.v = S2.k)) AND \
             NOT EXISTS(SELECT * FROM S S1 WHERE S1.k = B.x AND \
               EXISTS(SELECT * FROM U U1 WHERE U1.v = S1.k))");
        assert_eq!(ab, ba);
    }

    #[test]
    fn conjunct_order_does_not_leak_into_column_naming() {
        // The oracle's second catch (ISSUE 9): `c` indices were assigned
        // in written conjunct order *before* the order-canonicalizing
        // sort, so the sort keys themselves depended on conjunct order.
        // Here `B.y` and `B.z` are fresh at predicate-erasure time; the
        // old scheme named whichever conjunct came first `c1`.
        let ab = key("SELECT A.x FROM T A, T B WHERE B.z = 3 AND A.x = B.y");
        let ba = key("SELECT A.x FROM T A, T B WHERE A.x = B.y AND B.z = 3");
        assert_eq!(ab, ba, "conjunct order leaked into column naming");
    }

    #[test]
    fn having_conjunct_order_does_not_leak_into_column_naming() {
        // Same bug class in the HAVING list: each aggregate argument is a
        // fresh column, so naming order must come from greedy erasure,
        // not the written conjunct order.
        let ab = key("SELECT T.a FROM T GROUP BY T.a HAVING MIN(T.b) > 1 AND MAX(T.c) > 2");
        let ba = key("SELECT T.a FROM T GROUP BY T.a HAVING MAX(T.c) > 2 AND MIN(T.b) > 1");
        assert_eq!(ab, ba, "HAVING order leaked into column naming");
    }

    #[test]
    fn tied_probes_over_different_columns_break_by_lookahead() {
        // The oracle's third catch (ISSUE 9): `A.p = B.k` and `A.q = B.k`
        // probe to the *same* erasure tuple (each allocates a fresh `A`
        // column), yet whichever commits first hands its column the
        // smaller index — and the trailing `A.q > 5` then renders as a
        // different selection tuple depending on written order. The tie
        // must be broken by whole-continuation lookahead.
        let pq = key("SELECT A.x FROM T A, U B WHERE A.p = B.k AND A.q = B.k AND A.q > 5");
        let qp = key("SELECT A.x FROM T A, U B WHERE A.q > 5 AND A.q = B.k AND A.p = B.k");
        assert_eq!(pq, qp, "tied join probes resolved by written order");
    }

    #[test]
    fn token_symmetric_conjuncts_break_ties_by_physical_sharing() {
        // The oracle's fourth catch (ISSUE 9): `B.p = A.x` and `B.q = A.y`
        // are *fully* token-symmetric — identical probes and identical
        // continuations — so neither constants nor lookahead can order
        // them, and written order used to decide which `A` column got the
        // smaller index. The fingerprint survives (the streams really are
        // symmetric), but the recorded name maps differed: `A.y` shares a
        // physical column with `C.y` (same base table `R`), a fact the
        // token stream erases but the semantic oracle's data transport
        // compares — so the two spellings of one query produced different
        // column partitions and the pair became unprovable. Sharing-class
        // sizes are rename-invariant, so they may break the tie.
        let sql = |preds: &str| {
            format!(
                "SELECT A.s FROM R A WHERE EXISTS(SELECT * FROM S B WHERE {preds}) \
                 AND EXISTS(SELECT * FROM R C WHERE C.y > 0)"
            )
        };
        let xy = sql("B.p = A.x AND B.q = A.y");
        let yx = sql("B.q = A.y AND B.p = A.x");
        assert_eq!(key(&xy), key(&yx), "symmetric conjuncts must not split");
        let tree_xy = translate(&parse_query(&xy).unwrap(), None).unwrap();
        let tree_yx = translate(&parse_query(&yx).unwrap(), None).unwrap();
        let e_xy = &PatternKey::branch_erasures(&[&tree_xy])[0];
        let e_yx = &PatternKey::branch_erasures(&[&tree_yx])[0];
        assert_eq!(
            e_xy.attrs, e_yx.attrs,
            "conjunct order leaked into the canonical name maps"
        );
    }

    #[test]
    fn cross_branch_reference_context_breaks_symmetric_join_ties() {
        // A 4096-case oracle catch: `B.p = A.x` and `B.q = A.x` are fully
        // tie-equivalent inside their branch — same probes, same
        // continuations, same sharer sets ({B, C}, with C not yet named
        // because it lives in the *other* UNION branch), same reference
        // counts. The only discriminating fact is *how* the sibling
        // branch uses the shared physical columns: `C.p` is selected
        // while `C.q` sits under a constant comparison. The ShareKey's
        // context profile records exactly that, so the name maps must not
        // depend on written conjunct order.
        let branch = |preds: &str| {
            translate(
                &parse_query(&format!(
                    "SELECT A.s FROM R A WHERE EXISTS(SELECT * FROM S B WHERE {preds})"
                ))
                .unwrap(),
                None,
            )
            .unwrap()
        };
        let sibling = translate(
            &parse_query("SELECT C.p FROM S C WHERE C.q > 5").unwrap(),
            None,
        )
        .unwrap();
        let pq = branch("B.p = A.x AND B.q = A.x");
        let qp = branch("B.q = A.x AND B.p = A.x");
        let e_pq = PatternKey::branch_erasures(&[&pq, &sibling]);
        let e_qp = PatternKey::branch_erasures(&[&qp, &sibling]);
        assert_eq!(e_pq[0].tokens, e_qp[0].tokens, "symmetric pair split");
        assert_eq!(
            e_pq[0].attrs, e_qp[0].attrs,
            "conjunct order leaked into the name maps past a cross-branch tie"
        );
    }

    #[test]
    fn identically_tokenized_branches_rank_by_structure_not_rotation() {
        // Another oracle catch: two UNION branches whose erased streams
        // are *identical* (tables and constants are erased) used to take
        // their ranks from written order, so rotating the branches
        // re-paired them under the transport and broke provability. The
        // per-branch (constants, shares) trails must pin the ranks.
        let tree = |sql: &str| translate(&parse_query(sql).unwrap(), None).unwrap();
        let r = tree("SELECT A.x FROM R A WHERE A.y = 1");
        let s = tree("SELECT B.x FROM S B WHERE B.y = 2");
        let rs = PatternKey::branch_erasures(&[&r, &s]);
        let sr = PatternKey::branch_erasures(&[&s, &r]);
        assert_eq!(rs[0].tokens, rs[1].tokens, "branches must tokenize alike");
        assert_eq!(
            rs[0].rank, sr[1].rank,
            "the R branch's rank must survive rotation"
        );
        assert_eq!(
            rs[1].rank, sr[0].rank,
            "the S branch's rank must survive rotation"
        );
    }

    #[test]
    fn branch_erasures_record_the_canonical_name_maps() {
        let tree = translate(
            &parse_query("SELECT A.x FROM T A, T B WHERE A.x = B.y AND B.z = 3").unwrap(),
            None,
        )
        .unwrap();
        let erasures = PatternKey::branch_erasures(&[&tree]);
        assert_eq!(erasures.len(), 1);
        let e = &erasures[0];
        assert_eq!(e.rank, 0);
        assert_eq!(e.tokens, PatternKey::of_tree(&tree).tokens());
        // Select list erases first: A → b0, A.x → (0,0).
        let b_of = |name: &str| {
            e.bindings
                .iter()
                .find(|(k, _)| k.as_str() == name)
                .map(|&(_, b)| b)
        };
        assert_eq!(b_of("A"), Some(0));
        assert_eq!(b_of("B"), Some(1));
        let slot_of = |binding: &str, column: &str| {
            e.attrs
                .iter()
                .find(|(k, c, _)| k.as_str() == binding && c.as_str() == column)
                .map(|&(_, _, slot)| slot)
        };
        assert_eq!(slot_of("A", "x"), Some((0, 0)));
        assert_eq!(slot_of("B", "y"), Some((1, 0)));
        assert_eq!(slot_of("B", "z"), Some((1, 1)));
    }

    #[test]
    fn key_equality_matches_rendered_equality() {
        let sqls = [
            "SELECT T.a FROM T",
            "SELECT U.a FROM T U",
            "SELECT A.x FROM T A, T B WHERE A.x = B.x",
            "SELECT A.x FROM T A, T B WHERE A.x <> B.x",
            "SELECT B.bid FROM Boat B WHERE B.color = 'red'",
            "SELECT T.AlbumId, MAX(T.ms) FROM Track T GROUP BY T.AlbumId",
            "SELECT COUNT(*) FROM T GROUP BY T.a",
        ];
        for a in &sqls {
            for b in &sqls {
                let (ka, kb) = (key(a), key(b));
                assert_eq!(
                    ka == kb,
                    ka.render() == kb.render(),
                    "token/string equality diverged for {a} vs {b}"
                );
                assert_eq!(
                    ka == kb,
                    ka.fingerprint128() == kb.fingerprint128(),
                    "token/fingerprint equality diverged for {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn rendered_form_keeps_the_legacy_shape() {
        let p = pattern("SELECT B.bid FROM Boat B WHERE B.color = 'red'");
        assert!(p.starts_with("S[b0.c0;]"), "{p}");
        assert!(p.contains("(b0.c1=K)"), "{p}");
        let g = pattern("SELECT T.a, COUNT(T.b) FROM T GROUP BY T.a");
        assert!(g.starts_with("S[b0.c0;COUNT(b0.c1);]G[b0.c0;]"), "{g}");
    }

    #[test]
    fn fingerprint_is_stable_for_a_fixed_stream() {
        // FNV-1a sanity: empty stream hashes to the offset basis, and the
        // hash depends on token order.
        let empty = PatternKey { tokens: vec![] };
        assert_eq!(empty.fingerprint128(), super::FNV128_OFFSET);
        let ab = PatternKey { tokens: vec![1, 2] };
        let ba = PatternKey { tokens: vec![2, 1] };
        assert_ne!(ab.fingerprint128(), ba.fingerprint128());
    }
}
