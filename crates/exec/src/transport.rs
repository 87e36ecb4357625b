//! Canonical data transport: generate databases so that equal-fingerprint
//! queries execute over *isomorphic* data.
//!
//! The fingerprint erases names and constants, so the oracle cannot just
//! run both queries against one fixed database — corresponding tables may
//! be spelled differently on each side. Instead, each query's database is
//! generated in the **canonical coordinate space** the fingerprint itself
//! is expressed in ([`queryvis::TreeErasure`]): binding classes (bindings
//! of one base table), physical columns within a class, and *value
//! groups* (columns connected by join predicates) whose value pools are
//! derived from the query's own comparison constants. Two queries whose
//! canonical structure *and* constant shapes line up get databases that
//! are isomorphic up to the constant renaming — so equal fingerprints
//! must yield equal (literal-pool) or isomorphic results, and any
//! difference is a real semantic divergence.
//!
//! When the structures do *not* line up — the fingerprint deliberately
//! does not capture table sharing, column sharing, or constant values —
//! the pair is classified [`incompatible`](Analysis::compatible) with a
//! reason, and the oracle skips it honestly instead of reporting a bogus
//! divergence. DESIGN.md §8 spells out what each check proves.

use crate::datum::{Datum, DatumKey};
use crate::db::{Database, Table};
use crate::eval::ExecError;
use queryvis::PatternKey;
use queryvis_logic::{LogicTree, LtOperand, SelectAttr};
use queryvis_sql::{AggFunc, Names, Symbol, Value};
use std::collections::HashMap;

/// Global binding id: (canonical branch rank, canonical binding index).
type Gid = (usize, u32);
/// Physical column id: (class index, column index within the class).
type SlotId = (usize, usize);
/// Erased attribute coordinate: (rank, b, c).
type Coord = (usize, u32, u32);

#[derive(Debug)]
struct BranchMap {
    rank: usize,
    bindings: HashMap<Symbol, u32>,
    attrs: HashMap<(Symbol, Symbol), (u32, u32)>,
}

#[derive(Debug)]
struct ClassInfo {
    /// Base table name — in *this* query's spelling.
    table: Symbol,
    /// Column symbols in canonical column order.
    columns: Vec<Symbol>,
}

#[derive(Debug)]
struct GroupInfo {
    /// The ordered value pool data is drawn from: `NULL` first, then the
    /// numeric region, then the string region, strictly ascending.
    pool: Vec<Datum>,
    /// Positions (in `pool`) of the comparison constants, in ascending
    /// constant order — the pool "shape" compatibility compares.
    const_positions: Vec<usize>,
    /// Output-visible groups must match *literally* across a pair, not
    /// just structurally: their values surface in the result rows.
    needs_literal: bool,
}

/// One constraint constant with its provenance, in comparable form.
/// `kind`: 0 = selection predicate, 1 = MIN/MAX HAVING (palette constants
/// — compared by pool *position*), 2 = COUNT/SUM/AVG HAVING (cardinality
/// and sum constants — compared by literal value).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct ConstUse {
    kind: u8,
    func: u32,
    op: u32,
    slot: Option<SlotId>,
    group: usize,
    /// Palette kinds: position in the group pool. Literal kinds: 0.
    position: usize,
    /// Literal kinds: the constant itself. Palette kinds: Null.
    literal: DatumKey,
}

/// Everything the compatibility check compares, in canonical coordinates
/// only — no names from either side.
#[derive(Debug, PartialEq)]
struct Profile {
    union_all: bool,
    branch_count: usize,
    /// Binding classes as sorted member lists (partition of all Gids).
    binding_partition: Vec<Vec<Gid>>,
    /// Per class: physical columns as sorted erased-coordinate lists.
    column_partition: Vec<Vec<Vec<Coord>>>,
    /// Value groups as sorted slot lists (partition of all slots).
    group_partition: Vec<Vec<SlotId>>,
    /// Per group: the pool type tags (0 null / 1 num / 2 str) and the
    /// constants' pool positions.
    group_shapes: Vec<(Vec<u8>, Vec<usize>)>,
    /// Per group: the literal pool when the group is output-visible.
    literal_pools: Vec<Option<Vec<DatumKey>>>,
    /// Every constraint constant with provenance, sorted.
    const_uses: Vec<ConstUse>,
}

/// The transport analysis of one prepared query: canonical name maps plus
/// the generated-data plan. Build with [`Analysis::of`], compare two with
/// [`Analysis::compatible`], materialize data with [`Analysis::database`].
pub struct Analysis {
    branches: Vec<BranchMap>,
    classes: Vec<ClassInfo>,
    groups: Vec<GroupInfo>,
    group_of: HashMap<SlotId, usize>,
    profile: Profile,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mix(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut z = splitmix64(seed ^ 0x5157_4F52_4143_4C45); // "QVORACLE" salt
    z = splitmix64(z ^ a);
    z = splitmix64(z ^ b);
    splitmix64(z ^ c)
}

/// Build a group's value pool from its comparison constants: `NULL`,
/// then (if any numeric constants, or no constants at all) a numeric
/// region covering below / at / strictly-between / above the constants,
/// then a string region built the same way. Entries are strictly
/// ascending in the total order, so pool *index* equality is value
/// equality — the isomorphism the transport argument needs. Returns the
/// pool and the constants' positions (ascending constant order).
fn build_pool(nums: &[f64], strs: &[String]) -> (Vec<Datum>, Vec<usize>) {
    let mut pool = vec![Datum::Null];
    let mut positions = Vec::new();
    if nums.is_empty() && strs.is_empty() {
        pool.extend([0.0, 1.0, 2.0].map(Datum::Num));
        return (pool, positions);
    }
    if !nums.is_empty() {
        let lo = nums[0] - 1.0;
        if lo < nums[0] {
            pool.push(Datum::Num(lo));
        }
        for (i, &n) in nums.iter().enumerate() {
            positions.push(pool.len());
            pool.push(Datum::Num(n));
            if let Some(&next) = nums.get(i + 1) {
                let mid = n + (next - n) / 2.0;
                if mid > n && mid < next {
                    pool.push(Datum::Num(mid));
                }
            }
        }
        let last = nums[nums.len() - 1];
        if last + 1.0 > last {
            pool.push(Datum::Num(last + 1.0));
        }
    }
    if !strs.is_empty() {
        if !strs[0].is_empty() {
            pool.push(Datum::Str(String::new()));
        }
        for (i, s) in strs.iter().enumerate() {
            positions.push(pool.len());
            pool.push(Datum::Str(s.clone()));
            if let Some(next) = strs.get(i + 1) {
                let mid = format!("{s}\u{1}");
                if &mid < next {
                    pool.push(Datum::Str(mid));
                }
            }
        }
        pool.push(Datum::Str(format!("{}\u{1}", strs[strs.len() - 1])));
    }
    (pool, positions)
}

/// Union-find over flat slot indices.
struct Uf {
    parent: Vec<usize>,
}

impl Uf {
    fn new(n: usize) -> Uf {
        Uf {
            parent: (0..n).collect(),
        }
    }
    fn find(&mut self, i: usize) -> usize {
        if self.parent[i] != i {
            let root = self.find(self.parent[i]);
            self.parent[i] = root;
        }
        self.parent[i]
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

fn internal(msg: &str) -> ExecError {
    ExecError::MissingBinding(format!("transport internal: {msg}"))
}

impl Analysis {
    /// Analyze one query's branches (the [`queryvis::PreparedQuery::trees`]
    /// order) for data transport.
    /// The trees' names live in `names`; the database it materializes is
    /// keyed by that table's symbols.
    pub fn of(trees: &[&LogicTree], union_all: bool, names: &Names) -> Result<Analysis, ExecError> {
        let erasures = PatternKey::branch_erasures(trees, names);
        let branches: Vec<BranchMap> = erasures
            .iter()
            .map(|e| BranchMap {
                rank: e.rank,
                bindings: e.bindings.iter().map(|&(k, b)| (k, b)).collect(),
                attrs: e
                    .attrs
                    .iter()
                    .map(|&(k, col, slot)| ((k, col), slot))
                    .collect(),
            })
            .collect();

        // Binding classes: group every (rank, b) by its base table symbol.
        let mut by_table: HashMap<Symbol, Vec<Gid>> = HashMap::new();
        let mut table_of: HashMap<Gid, Symbol> = HashMap::new();
        for (tree, bm) in trees.iter().zip(&branches) {
            for t in tree.bindings() {
                let &b = bm
                    .bindings
                    .get(&t.key)
                    .ok_or_else(|| internal("binding missing from erasure"))?;
                let gid = (bm.rank, b);
                table_of.insert(gid, t.table);
                by_table.entry(t.table).or_default().push(gid);
            }
        }
        let mut binding_partition: Vec<Vec<Gid>> = by_table
            .values()
            .map(|members| {
                let mut m = members.clone();
                m.sort_unstable();
                m.dedup();
                m
            })
            .collect();
        binding_partition.sort();
        let class_of: HashMap<Gid, usize> = binding_partition
            .iter()
            .enumerate()
            .flat_map(|(k, members)| members.iter().map(move |&g| (g, k)))
            .collect();

        // Physical columns per class: erased attrs grouped by column
        // symbol (same base table + same column name = same column).
        let mut cols_by_class: Vec<HashMap<Symbol, Vec<Coord>>> = (0..binding_partition.len())
            .map(|_| HashMap::new())
            .collect();
        for bm in &branches {
            for (&(_key, col), &(b, c)) in &bm.attrs {
                let gid = (bm.rank, b);
                let &k = class_of
                    .get(&gid)
                    .ok_or_else(|| internal("attr on unknown binding"))?;
                cols_by_class[k]
                    .entry(col)
                    .or_default()
                    .push((bm.rank, b, c));
            }
        }
        let mut classes = Vec::with_capacity(binding_partition.len());
        let mut column_partition = Vec::with_capacity(binding_partition.len());
        let mut slot_of: HashMap<Coord, SlotId> = HashMap::new();
        for (k, members) in binding_partition.iter().enumerate() {
            let table = *table_of
                .get(&members[0])
                .ok_or_else(|| internal("class without table"))?;
            let mut cols: Vec<(Symbol, Vec<Coord>)> = cols_by_class[k]
                .iter()
                .map(|(&sym, coords)| {
                    let mut cs = coords.clone();
                    cs.sort_unstable();
                    (sym, cs)
                })
                .collect();
            cols.sort_by(|a, b| a.1.cmp(&b.1));
            let mut col_syms = Vec::with_capacity(cols.len());
            let mut col_coords = Vec::with_capacity(cols.len());
            for (j, (sym, coords)) in cols.into_iter().enumerate() {
                for &coord in &coords {
                    slot_of.insert(coord, (k, j));
                }
                col_syms.push(sym);
                col_coords.push(coords);
            }
            classes.push(ClassInfo {
                table,
                columns: col_syms,
            });
            column_partition.push(col_coords);
        }

        // Flat slot indexing for union-find.
        let mut flat_of: HashMap<SlotId, usize> = HashMap::new();
        let mut slots: Vec<SlotId> = Vec::new();
        for (k, class) in classes.iter().enumerate() {
            for j in 0..class.columns.len() {
                flat_of.insert((k, j), slots.len());
                slots.push((k, j));
            }
        }
        let mut uf = Uf::new(slots.len());

        let slot_of_attr =
            |bm: &BranchMap, binding: Symbol, column: Symbol| -> Result<SlotId, ExecError> {
                let &(b, c) = bm
                    .attrs
                    .get(&(binding, column))
                    .ok_or_else(|| internal("attr missing from erasure"))?;
                slot_of
                    .get(&(bm.rank, b, c))
                    .copied()
                    .ok_or_else(|| internal("slot missing"))
            };

        // Join predicates (any operator) connect their two slots into one
        // value group: the pool must be shared for comparisons to be
        // meaningful on generated data.
        for (tree, bm) in trees.iter().zip(&branches) {
            for node in tree.nodes() {
                for p in &node.predicates {
                    if let LtOperand::Attr(rhs) = p.rhs {
                        let ls = slot_of_attr(bm, p.lhs.binding, p.lhs.column)?;
                        let rs = slot_of_attr(bm, rhs.binding, rhs.column)?;
                        uf.union(flat_of[&ls], flat_of[&rs]);
                    }
                }
            }
        }
        // Canonical group ids: order groups by their minimum flat slot.
        let mut root_to_group: HashMap<usize, usize> = HashMap::new();
        let mut group_partition: Vec<Vec<SlotId>> = Vec::new();
        for (flat, &slot) in slots.iter().enumerate() {
            let root = uf.find(flat);
            let g = *root_to_group.entry(root).or_insert_with(|| {
                group_partition.push(Vec::new());
                group_partition.len() - 1
            });
            group_partition[g].push(slot);
        }
        let group_of: HashMap<SlotId, usize> = group_partition
            .iter()
            .enumerate()
            .flat_map(|(g, members)| members.iter().map(move |&s| (s, g)))
            .collect();

        // Comparison constants per group, with provenance; literal marks.
        let mut group_nums: Vec<Vec<f64>> = vec![Vec::new(); group_partition.len()];
        let mut group_strs: Vec<Vec<String>> = vec![Vec::new(); group_partition.len()];
        let mut needs_literal = vec![false; group_partition.len()];
        // (kind, func, op, slot, group, raw const) — positions resolved
        // after the pools exist.
        let mut raw_uses: Vec<(u8, u32, u32, Option<SlotId>, usize, Value)> = Vec::new();

        let add_const =
            |g: usize, v: Value, nums: &mut [Vec<f64>], strs: &mut [Vec<String>]| match v
                .numeric(names)
            {
                Some(n) => nums[g].push(n),
                None => strs[g].push(v.text(names).to_string()),
            };

        for (tree, bm) in trees.iter().zip(&branches) {
            // Output-visible slots: selected columns and aggregate
            // arguments — their values (or sums over them) surface in the
            // result rows, so the pair's pools must match literally.
            for s in &tree.select {
                let arg = match s {
                    SelectAttr::Column(a) => Some(*a),
                    SelectAttr::Aggregate { arg, .. } => *arg,
                };
                if let Some(a) = arg {
                    let slot = slot_of_attr(bm, a.binding, a.column)?;
                    needs_literal[group_of[&slot]] = true;
                }
            }
            // Selection constants.
            for node in tree.nodes() {
                for p in &node.predicates {
                    if let LtOperand::Const(v) = p.rhs {
                        let slot = slot_of_attr(bm, p.lhs.binding, p.lhs.column)?;
                        let g = group_of[&slot];
                        add_const(g, v, &mut group_nums, &mut group_strs);
                        raw_uses.push((0, 0, p.op.code(), Some(slot), g, v));
                    }
                }
            }
            // HAVING constants: MIN/MAX compare within the argument's
            // pool (palette constants); COUNT/SUM/AVG compare against
            // cardinalities or sums, which only transport when the
            // constant (and for SUM/AVG the summed pool) is literal.
            for h in &tree.having {
                match h.func {
                    AggFunc::Min | AggFunc::Max => {
                        // `MIN(*)` parses but is outside the executable
                        // fragment — a documented limit, not a bug.
                        let a = h.arg.ok_or_else(|| {
                            ExecError::BadLiteral(format!(
                                "{}(*) is not in the fragment",
                                h.func.as_str()
                            ))
                        })?;
                        let slot = slot_of_attr(bm, a.binding, a.column)?;
                        let g = group_of[&slot];
                        add_const(g, h.value, &mut group_nums, &mut group_strs);
                        raw_uses.push((1, h.func.code(), h.op.code(), Some(slot), g, h.value));
                    }
                    AggFunc::Count | AggFunc::Sum | AggFunc::Avg => {
                        let slot = match h.arg {
                            Some(a) => {
                                let slot = slot_of_attr(bm, a.binding, a.column)?;
                                if h.func != AggFunc::Count {
                                    needs_literal[group_of[&slot]] = true;
                                }
                                Some(slot)
                            }
                            None => None,
                        };
                        let g = slot.map(|s| group_of[&s]).unwrap_or(usize::MAX);
                        raw_uses.push((2, h.func.code(), h.op.code(), slot, g, h.value));
                    }
                }
            }
        }

        // Pools.
        let mut groups = Vec::with_capacity(group_partition.len());
        for g in 0..group_partition.len() {
            let mut nums = std::mem::take(&mut group_nums[g]);
            nums.sort_by(|a, b| a.total_cmp(b));
            nums.dedup_by(|a, b| a.total_cmp(b).is_eq());
            let mut strs = std::mem::take(&mut group_strs[g]);
            strs.sort();
            strs.dedup();
            let (pool, const_positions) = build_pool(&nums, &strs);
            groups.push(GroupInfo {
                pool,
                const_positions,
                needs_literal: needs_literal[g],
            });
        }

        // Resolve constant uses against the pools.
        let mut const_uses: Vec<ConstUse> = raw_uses
            .into_iter()
            .map(|(kind, func, op, slot, g, v)| {
                let datum = match v.numeric(names) {
                    Some(n) => Datum::Num(n),
                    None => Datum::Str(v.text(names).to_string()),
                };
                if kind == 2 {
                    // Literal kind: carried by value.
                    return Ok(ConstUse {
                        kind,
                        func,
                        op,
                        slot,
                        group: g,
                        position: 0,
                        literal: DatumKey(datum),
                    });
                }
                let position = groups[g]
                    .pool
                    .iter()
                    .position(|d| crate::datum::total_cmp(d, &datum).is_eq())
                    .ok_or_else(|| internal("constant missing from its pool"))?;
                Ok(ConstUse {
                    kind,
                    func,
                    op,
                    slot,
                    group: g,
                    position,
                    literal: DatumKey(Datum::Null),
                })
            })
            .collect::<Result<_, ExecError>>()?;
        const_uses.sort();

        let group_shapes = groups
            .iter()
            .map(|gi| {
                let tags = gi
                    .pool
                    .iter()
                    .map(|d| match d {
                        Datum::Null => 0u8,
                        Datum::Num(_) => 1,
                        Datum::Str(_) => 2,
                    })
                    .collect();
                (tags, gi.const_positions.clone())
            })
            .collect();
        let literal_pools = groups
            .iter()
            .map(|gi| {
                gi.needs_literal
                    .then(|| gi.pool.iter().cloned().map(DatumKey).collect())
            })
            .collect();

        let profile = Profile {
            union_all,
            branch_count: trees.len(),
            binding_partition,
            column_partition,
            group_partition,
            group_shapes,
            literal_pools,
            const_uses,
        };
        Ok(Analysis {
            branches,
            classes,
            groups,
            group_of,
            profile,
        })
    }

    /// Can results of `a` and `b` be compared meaningfully over
    /// transported data? `Err(reason)` means the pair is outside what the
    /// transport can prove (not that the queries differ).
    pub fn compatible(a: &Analysis, b: &Analysis) -> Result<(), String> {
        let (pa, pb) = (&a.profile, &b.profile);
        if pa.branch_count != pb.branch_count || pa.union_all != pb.union_all {
            return Err("branch structure differs".to_string());
        }
        if pa.binding_partition != pb.binding_partition {
            return Err(
                "table-sharing differs: the fingerprint does not capture which bindings \
                 range over the same base table"
                    .to_string(),
            );
        }
        if pa.column_partition != pb.column_partition {
            return Err(
                "column-sharing differs: same-table bindings reference physical columns \
                 in a different pattern"
                    .to_string(),
            );
        }
        if pa.group_partition != pb.group_partition {
            return Err("join-connected value groups differ".to_string());
        }
        if pa.group_shapes != pb.group_shapes {
            return Err(
                "constant shapes differ: comparison constants relate to their value \
                 group differently on each side"
                    .to_string(),
            );
        }
        if pa.const_uses != pb.const_uses {
            return Err(
                "constant provenance differs: a constant pairs with a different \
                 predicate/aggregate role on each side"
                    .to_string(),
            );
        }
        if pa.literal_pools != pb.literal_pools {
            return Err(
                "output-visible constants differ: projected values would differ by \
                 constant renaming alone"
                    .to_string(),
            );
        }
        Ok(())
    }

    /// Materialize this query's database: `rows_per_table` rows per base
    /// table, every cell drawn from its value group's pool by a
    /// deterministic seed/class/column/row mix. Two compatible analyses
    /// produce isomorphic databases for the same `(seed, rows_per_table)`.
    pub fn database(&self, seed: u64, rows_per_table: usize) -> Database {
        let mut db = Database::default();
        for (k, class) in self.classes.iter().enumerate() {
            let mut rows = Vec::with_capacity(rows_per_table);
            for r in 0..rows_per_table {
                let mut row = Vec::with_capacity(class.columns.len());
                for j in 0..class.columns.len() {
                    let pool = &self.groups[self.group_of[&(k, j)]].pool;
                    let idx = mix(seed, k as u64, j as u64, r as u64) as usize % pool.len();
                    row.push(pool[idx].clone());
                }
                rows.push(row);
            }
            db.tables.insert(
                class.table,
                Table {
                    columns: class.columns.clone(),
                    rows,
                },
            );
        }
        db
    }

    /// Number of branches analyzed.
    pub fn branch_count(&self) -> usize {
        self.branches.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{execute, DEFAULT_BUDGET};
    use queryvis::{PreparedQuery, QueryVisOptions};

    fn prepare(sql: &str) -> PreparedQuery {
        queryvis::QueryVis::prepare(sql, QueryVisOptions::default()).unwrap()
    }

    fn analysis_of(q: &PreparedQuery) -> Analysis {
        Analysis::of(&q.trees(), q.union_all, q.names()).unwrap()
    }

    fn analysis(sql: &str) -> Analysis {
        analysis_of(&prepare(sql))
    }

    #[test]
    fn pool_brackets_the_constants() {
        let (pool, positions) = build_pool(&[3.0, 10.0], &[]);
        assert_eq!(
            pool,
            vec![
                Datum::Null,
                Datum::Num(2.0),
                Datum::Num(3.0),
                Datum::Num(6.5),
                Datum::Num(10.0),
                Datum::Num(11.0),
            ]
        );
        assert_eq!(positions, vec![2, 4]);
        let (pool, _) = build_pool(&[], &[]);
        assert_eq!(pool.len(), 4); // NULL + default trio
        let (pool, positions) = build_pool(&[], &["red".to_string()]);
        assert_eq!(pool[0], Datum::Null);
        assert_eq!(pool[1], Datum::Str(String::new()));
        assert_eq!(pool[2], Datum::Str("red".to_string()));
        assert_eq!(positions, vec![2]);
    }

    #[test]
    fn renamed_queries_are_compatible_and_agree() {
        let a = prepare("SELECT A.x FROM T A, T B WHERE A.x = B.y AND B.z > 5");
        let b = prepare("SELECT P.u FROM Rel P, Rel Q WHERE P.u = Q.v AND Q.w > 9");
        let (aa, ab) = (analysis_of(&a), analysis_of(&b));
        // The differing constants (5 vs 9) sit on a non-projected group
        // (`z` alone), so the shapes line up and the pair is provable.
        Analysis::compatible(&aa, &ab).unwrap();
        for seed in [1, 2, 3] {
            let (da, dbb) = (aa.database(seed, 5), ab.database(seed, 5));
            let ra = execute(&a.trees(), a.union_all, a.names(), &da, DEFAULT_BUDGET).unwrap();
            let rb = execute(&b.trees(), b.union_all, b.names(), &dbb, DEFAULT_BUDGET).unwrap();
            assert_eq!(ra, rb, "seed {seed}");
        }
    }

    #[test]
    fn output_visible_constant_renaming_is_incompatible_not_divergent() {
        // Same fingerprint (constants erased) but the projected column is
        // compared against a different constant — result rows would
        // literally differ, which is a constant renaming, not a bug.
        let a = analysis("SELECT B.color FROM Boat B WHERE B.color = 'red'");
        let b = analysis("SELECT B.color FROM Boat B WHERE B.color = 'green'");
        let err = Analysis::compatible(&a, &b).unwrap_err();
        assert!(err.contains("output-visible"), "{err}");
    }

    #[test]
    fn table_sharing_differences_are_incompatible() {
        // The fingerprint does not see base-table names: two bindings of
        // one table vs two different tables erase identically.
        let a = analysis("SELECT A.x FROM T A, T B WHERE A.x = B.x");
        let b = analysis("SELECT A.x FROM T A, U B WHERE A.x = B.x");
        let err = Analysis::compatible(&a, &b).unwrap_err();
        assert!(err.contains("table-sharing"), "{err}");
    }

    #[test]
    fn constant_role_swaps_are_incompatible() {
        // `x > 1 AND y < 5` vs `x > 5 AND y < 1`: same erased structure,
        // same constant *set*, different pairing to the predicates — not
        // order-isomorphic, so the transport must refuse.
        let a = analysis("SELECT T.a FROM T WHERE T.x > 1 AND T.x < 5");
        let b = analysis("SELECT T.a FROM T WHERE T.x > 5 AND T.x < 1");
        let err = Analysis::compatible(&a, &b).unwrap_err();
        assert!(
            err.contains("provenance") || err.contains("constant"),
            "{err}"
        );
    }

    #[test]
    fn database_generation_is_deterministic() {
        let q = prepare("SELECT T.a FROM T WHERE T.a > 3");
        let (a, t) = (analysis_of(&q), q.names().get("T").unwrap());
        let d1 = a.database(7, 4);
        let d2 = a.database(7, 4);
        let t1 = d1.table(t).unwrap();
        let t2 = d2.table(t).unwrap();
        assert_eq!(t1.rows, t2.rows);
        let d3 = a.database(8, 4);
        assert_ne!(t1.rows, d3.table(t).unwrap().rows);
    }
}
