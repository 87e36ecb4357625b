//! Tree-walking executor for lowered logic trees.
//!
//! The execution plan *is* the [`LogicTree`]: the root block enumerates
//! its bindings (scan + filter + join), every child block is a quantified
//! condition (`∃` semi-join, `∄` anti-join, `∀` division), the root's
//! select/group/having fields drive projection and aggregation, and
//! multiple trees combine under `UNION [ALL]`. Predicates evaluate under
//! SQL three-valued logic ([`crate::datum::eval_op`]): a block assignment
//! only *satisfies* when every conjunct is TRUE — UNKNOWN filters exactly
//! like a database.
//!
//! Semantics decisions (DESIGN.md §8): bag semantics at the root (no
//! DISTINCT in the fragment), `UNION` deduplicates with `NULL`s equal,
//! GROUP BY keys treat `NULL`s as equal, `COUNT(c)` counts non-`NULL`s,
//! `SUM`/`AVG` sum numeric non-`NULL`s and return `NULL` on empty,
//! `MIN`/`MAX` take the total-order extreme of the non-`NULL`s.

use crate::datum::{eval_op, row_cmp, Datum, DatumKey};
use crate::db::{Database, Table};
use queryvis_logic::{AttrRef, LogicTree, NodeId, Quantifier, SelectAttr};
use queryvis_logic::{LtOperand, LtPredicate};
use queryvis_sql::{AggFunc, Names, Symbol, Value};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Work budget: one unit per complete block assignment visited. Far above
/// anything the oracle generates, low enough to bound a hostile request
/// in the service's sample-rows path.
pub const DEFAULT_BUDGET: u64 = 2_000_000;

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The work budget ran out — the query is too expensive for this
    /// executor (nested quantifiers multiply scan products).
    Budget,
    MissingTable(String),
    MissingColumn(String),
    MissingBinding(String),
    /// A numeric literal that does not parse as a finite number, or an
    /// aggregate shape outside the fragment (e.g. `SUM(*)`).
    BadLiteral(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Budget => f.write_str("execution budget exceeded"),
            ExecError::MissingTable(t) => write!(f, "no such table: {t}"),
            ExecError::MissingColumn(c) => write!(f, "no such column: {c}"),
            ExecError::MissingBinding(b) => write!(f, "unbound alias: {b}"),
            ExecError::BadLiteral(v) => write!(f, "literal outside the executable fragment: {v}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// A normalized (sorted) bag of result rows. Equality is multiset
/// equality of rows under the total order — the oracle's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    pub rows: Vec<Vec<Datum>>,
}

impl ResultSet {
    fn normalize(mut rows: Vec<Vec<Datum>>) -> ResultSet {
        rows.sort_by(|a, b| row_cmp(a, b));
        ResultSet { rows }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Multiset difference both ways: rows only in `self`, rows only in
    /// `other`. Linear merge over the normalized row lists.
    pub fn diff(&self, other: &ResultSet) -> (Vec<Vec<Datum>>, Vec<Vec<Datum>>) {
        let (mut i, mut j) = (0, 0);
        let (mut left, mut right) = (Vec::new(), Vec::new());
        while i < self.rows.len() && j < other.rows.len() {
            match row_cmp(&self.rows[i], &other.rows[j]) {
                Ordering::Less => {
                    left.push(self.rows[i].clone());
                    i += 1;
                }
                Ordering::Greater => {
                    right.push(other.rows[j].clone());
                    j += 1;
                }
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        left.extend(self.rows[i..].iter().cloned());
        right.extend(other.rows[j..].iter().cloned());
        (left, right)
    }
}

/// Render a row the way divergence reports show it: `(1, 'a', NULL)`.
pub fn render_row(row: &[Datum]) -> String {
    let cells: Vec<String> = row.iter().map(|d| d.to_string()).collect();
    format!("({})", cells.join(", "))
}

/// Execute a (possibly multi-branch) lowered query against `db`.
///
/// `trees` are the query's branch logic trees ([`queryvis::PreparedQuery::trees`]
/// order); more than one branch combines under `UNION ALL` when
/// `union_all`, plain deduplicating `UNION` otherwise. Their names live in
/// `names`, the table `db` is keyed by.
pub fn execute(
    trees: &[&LogicTree],
    union_all: bool,
    names: &Names,
    db: &Database,
    budget: u64,
) -> Result<ResultSet, ExecError> {
    let mut budget = budget;
    let mut all_rows = Vec::new();
    for tree in trees {
        let mut ev = Evaluator {
            tree,
            names,
            db,
            budget: &mut budget,
        };
        all_rows.extend(ev.run()?);
    }
    if !union_all && trees.len() > 1 {
        // UNION: set semantics; DISTINCT-style dedup treats NULLs equal.
        all_rows.sort_by(|a, b| row_cmp(a, b));
        all_rows.dedup_by(|a, b| row_cmp(a, b) == Ordering::Equal);
    }
    Ok(ResultSet::normalize(all_rows))
}

/// Alias binding environment: binding key → (base table, row index).
type Env = HashMap<Symbol, (Symbol, usize)>;

struct Evaluator<'a> {
    tree: &'a LogicTree,
    names: &'a Names,
    db: &'a Database,
    budget: &'a mut u64,
}

fn const_datum(v: Value, names: &Names) -> Result<Datum, ExecError> {
    match v {
        Value::Number(_) => v
            .numeric(names)
            .map(Datum::Num)
            .ok_or_else(|| ExecError::BadLiteral(names.show(&v).to_string())),
        Value::Str(_) => Ok(Datum::Str(v.text(names).to_string())),
    }
}

impl<'a> Evaluator<'a> {
    fn spend(&mut self) -> Result<(), ExecError> {
        if *self.budget == 0 {
            return Err(ExecError::Budget);
        }
        *self.budget -= 1;
        Ok(())
    }

    fn table(&self, name: Symbol) -> Result<&'a Table, ExecError> {
        self.db
            .tables
            .get(&name)
            .ok_or_else(|| ExecError::MissingTable(self.names.resolve(name).to_string()))
    }

    fn value(&self, env: &Env, a: AttrRef) -> Result<Datum, ExecError> {
        let &(table, row) = env
            .get(&a.binding)
            .ok_or_else(|| ExecError::MissingBinding(self.names.resolve(a.binding).to_string()))?;
        let t = self.table(table)?;
        let ci = t
            .col(a.column)
            .ok_or_else(|| ExecError::MissingColumn(self.names.show(&a).to_string()))?;
        Ok(t.rows[row][ci].clone())
    }

    /// TRUE under 3VL for *every* conjunct of the node.
    fn preds_true(&self, preds: &[LtPredicate], env: &Env) -> Result<bool, ExecError> {
        for p in preds {
            let lhs = self.value(env, p.lhs)?;
            let rhs = match p.rhs {
                LtOperand::Attr(a) => self.value(env, a)?,
                LtOperand::Const(v) => const_datum(v, self.names)?,
            };
            if eval_op(p.op, &lhs, &rhs) != Some(true) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Does the quantified condition at `id` hold under `env`?
    fn holds(&mut self, id: NodeId, env: &mut Env) -> Result<bool, ExecError> {
        match self.tree.node(id).quantifier {
            Quantifier::Exists => self.any(id, 0, env),
            Quantifier::NotExists => Ok(!self.any(id, 0, env)?),
            Quantifier::ForAll => self.forall(id, 0, env),
        }
    }

    /// ∃ an assignment of this block's tables with all predicates TRUE
    /// and all child conditions holding.
    fn any(&mut self, id: NodeId, ti: usize, env: &mut Env) -> Result<bool, ExecError> {
        let tree = self.tree;
        let node = tree.node(id);
        if ti == node.tables.len() {
            self.spend()?;
            if !self.preds_true(&node.predicates, env)? {
                return Ok(false);
            }
            for &child in &node.children {
                if !self.holds(child, env)? {
                    return Ok(false);
                }
            }
            return Ok(true);
        }
        let t = &node.tables[ti];
        let nrows = self.table(t.table)?.rows.len();
        for row in 0..nrows {
            env.insert(t.key, (t.table, row));
            if self.any(id, ti + 1, env)? {
                env.remove(&t.key);
                return Ok(true);
            }
        }
        env.remove(&t.key);
        Ok(false)
    }

    /// ∀ assignments of this block's tables: predicates TRUE implies all
    /// child conditions hold (relational division; vacuously true).
    fn forall(&mut self, id: NodeId, ti: usize, env: &mut Env) -> Result<bool, ExecError> {
        let tree = self.tree;
        let node = tree.node(id);
        if ti == node.tables.len() {
            self.spend()?;
            if !self.preds_true(&node.predicates, env)? {
                return Ok(true);
            }
            for &child in &node.children {
                if !self.holds(child, env)? {
                    return Ok(false);
                }
            }
            return Ok(true);
        }
        let t = &node.tables[ti];
        let nrows = self.table(t.table)?.rows.len();
        for row in 0..nrows {
            env.insert(t.key, (t.table, row));
            if !self.forall(id, ti + 1, env)? {
                env.remove(&t.key);
                return Ok(false);
            }
        }
        env.remove(&t.key);
        Ok(true)
    }

    /// Collect every satisfying root assignment (bag semantics).
    fn collect_root(
        &mut self,
        ti: usize,
        env: &mut Env,
        out: &mut Vec<Env>,
    ) -> Result<(), ExecError> {
        let tree = self.tree;
        let node = tree.root();
        if ti == node.tables.len() {
            self.spend()?;
            if self.preds_true(&node.predicates, env)? {
                let mut ok = true;
                for &child in &node.children {
                    if !self.holds(child, env)? {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    out.push(env.clone());
                }
            }
            return Ok(());
        }
        let t = &node.tables[ti];
        let nrows = self.table(t.table)?.rows.len();
        for row in 0..nrows {
            env.insert(t.key, (t.table, row));
            self.collect_root(ti + 1, env, out)?;
        }
        env.remove(&t.key);
        Ok(())
    }

    fn aggregate(
        &self,
        func: AggFunc,
        arg: Option<AttrRef>,
        members: &[Env],
    ) -> Result<Datum, ExecError> {
        let values = |a: AttrRef| -> Result<Vec<Datum>, ExecError> {
            members.iter().map(|env| self.value(env, a)).collect()
        };
        match func {
            AggFunc::Count => match arg {
                None => Ok(Datum::Num(members.len() as f64)),
                Some(a) => Ok(Datum::Num(
                    values(a)?.iter().filter(|d| !d.is_null()).count() as f64,
                )),
            },
            AggFunc::Sum | AggFunc::Avg => {
                let a = arg.ok_or_else(|| {
                    ExecError::BadLiteral(format!("{}(*) is not in the fragment", func.as_str()))
                })?;
                let mut sum = 0.0;
                let mut n = 0u64;
                for d in values(a)? {
                    if let Datum::Num(v) = d {
                        sum += v;
                        n += 1;
                    }
                }
                if n == 0 {
                    Ok(Datum::Null)
                } else if func == AggFunc::Sum {
                    Ok(Datum::Num(sum))
                } else {
                    Ok(Datum::Num(sum / n as f64))
                }
            }
            AggFunc::Min | AggFunc::Max => {
                let a = arg.ok_or_else(|| {
                    ExecError::BadLiteral(format!("{}(*) is not in the fragment", func.as_str()))
                })?;
                let mut best: Option<Datum> = None;
                for d in values(a)? {
                    if d.is_null() {
                        continue;
                    }
                    best = Some(match best {
                        None => d,
                        Some(b) => {
                            let keep_new = match crate::datum::total_cmp(&d, &b) {
                                Ordering::Less => func == AggFunc::Min,
                                Ordering::Greater => func == AggFunc::Max,
                                Ordering::Equal => false,
                            };
                            if keep_new {
                                d
                            } else {
                                b
                            }
                        }
                    });
                }
                Ok(best.unwrap_or(Datum::Null))
            }
        }
    }

    fn run(&mut self) -> Result<Vec<Vec<Datum>>, ExecError> {
        let tree = self.tree;
        let mut sats = Vec::new();
        let mut env = Env::new();
        self.collect_root(0, &mut env, &mut sats)?;
        let grouped = !tree.group_by.is_empty()
            || !tree.having.is_empty()
            || tree
                .select
                .iter()
                .any(|s| matches!(s, SelectAttr::Aggregate { .. }));
        if !grouped {
            let mut rows = Vec::with_capacity(sats.len());
            for env in &sats {
                let mut row = Vec::with_capacity(tree.select.len());
                for s in &tree.select {
                    match s {
                        SelectAttr::Column(a) => row.push(self.value(env, *a)?),
                        SelectAttr::Aggregate { .. } => unreachable!("grouped checked above"),
                    }
                }
                rows.push(row);
            }
            return Ok(rows);
        }
        // Grouped path. GROUP BY keys use the total order, so NULL keys
        // group together (SQL GROUP BY semantics, unlike `=`).
        let mut groups: BTreeMap<Vec<DatumKey>, Vec<Env>> = BTreeMap::new();
        for env in sats {
            let mut key = Vec::with_capacity(tree.group_by.len());
            for a in &tree.group_by {
                key.push(DatumKey(self.value(&env, *a)?));
            }
            groups.entry(key).or_default().push(env);
        }
        if groups.is_empty() && tree.group_by.is_empty() {
            // Global aggregate over an empty input still yields one row
            // (COUNT = 0, other aggregates NULL).
            groups.insert(Vec::new(), Vec::new());
        }
        let mut rows = Vec::new();
        'group: for members in groups.values() {
            for h in &tree.having {
                let agg = self.aggregate(h.func, h.arg, members)?;
                let rhs = const_datum(h.value, self.names)?;
                if eval_op(h.op, &agg, &rhs) != Some(true) {
                    continue 'group;
                }
            }
            let mut row = Vec::with_capacity(tree.select.len());
            for s in &tree.select {
                match s {
                    SelectAttr::Column(a) => match members.first() {
                        // A selected plain column is a grouping key in
                        // legal SQL: constant within the group.
                        Some(env) => row.push(self.value(env, *a)?),
                        None => row.push(Datum::Null),
                    },
                    SelectAttr::Aggregate { func, arg } => {
                        row.push(self.aggregate(*func, *arg, members)?)
                    }
                }
            }
            rows.push(row);
        }
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tables by name: column names and rows.
    type Tables = Vec<(String, Vec<String>, Vec<Vec<Datum>>)>;

    #[allow(clippy::type_complexity)]
    fn db(tables: &[(&str, &[&str], &[&[Datum]])]) -> Tables {
        tables
            .iter()
            .map(|(name, cols, rows)| {
                let cols = cols.iter().map(|c| c.to_string()).collect();
                (
                    name.to_string(),
                    cols,
                    rows.iter().map(|r| r.to_vec()).collect(),
                )
            })
            .collect()
    }

    /// The database of `tables` for one query: its names interned into a
    /// copy of the query's table, which the query's symbols resolve in.
    fn materialize(tables: &Tables, q: &queryvis::PreparedQuery) -> (Database, Names) {
        let mut names = q.names().clone();
        let mut d = Database::default();
        for (name, cols, rows) in tables {
            let columns = cols.iter().map(|c| names.intern(c)).collect();
            let rows = rows.clone();
            d.tables.insert(names.intern(name), Table { columns, rows });
        }
        (d, names)
    }

    fn prepare(sql: &str) -> queryvis::PreparedQuery {
        queryvis::QueryVis::prepare(sql, queryvis::QueryVisOptions::default()).unwrap()
    }

    fn run(sql: &str, tables: &Tables) -> ResultSet {
        let q = prepare(sql);
        let (d, names) = materialize(tables, &q);
        execute(&q.trees(), q.union_all, &names, &d, DEFAULT_BUDGET).unwrap()
    }

    fn num(n: f64) -> Datum {
        Datum::Num(n)
    }

    #[test]
    fn filter_join_and_null_logic() {
        let d = db(&[
            (
                "T",
                &["a", "b"],
                &[
                    &[num(1.0), num(10.0)],
                    &[num(2.0), Datum::Null],
                    &[num(3.0), num(30.0)],
                ],
            ),
            ("U", &["k"], &[&[num(10.0)], &[num(30.0)], &[Datum::Null]]),
        ]);
        // NULL b never joins — not even against the NULL in U.
        let r = run("SELECT T.a FROM T, U WHERE T.b = U.k", &d);
        assert_eq!(r.rows, vec![vec![num(1.0)], vec![num(3.0)]]);
        // 3VL: a NULL comparison is UNKNOWN, which filters.
        let r = run("SELECT T.a FROM T WHERE T.b > 5", &d);
        assert_eq!(r.rows, vec![vec![num(1.0)], vec![num(3.0)]]);
        let r = run("SELECT T.a FROM T WHERE T.b <= 5", &d);
        assert!(r.is_empty());
    }

    #[test]
    fn not_exists_is_an_anti_join_with_null_trap() {
        let d = db(&[
            ("T", &["a"], &[&[num(1.0)], &[num(2.0)], &[num(4.0)]]),
            ("U", &["k"], &[&[num(1.0)], &[Datum::Null]]),
        ]);
        let r = run(
            "SELECT T.a FROM T WHERE NOT EXISTS(SELECT * FROM U WHERE U.k = T.a)",
            &d,
        );
        // 2 and 4 survive: the NULL in U matches nothing under 3VL.
        assert_eq!(r.rows, vec![vec![num(2.0)], vec![num(4.0)]]);
    }

    #[test]
    fn group_having_and_empty_aggregate() {
        let d = db(&[(
            "T",
            &["g", "v"],
            &[
                &[num(1.0), num(10.0)],
                &[num(1.0), num(20.0)],
                &[num(2.0), num(5.0)],
                &[num(2.0), Datum::Null],
            ],
        )]);
        let r = run("SELECT T.g, COUNT(T.v), SUM(T.v) FROM T GROUP BY T.g", &d);
        assert_eq!(
            r.rows,
            vec![
                vec![num(1.0), num(2.0), num(30.0)],
                vec![num(2.0), num(1.0), num(5.0)],
            ]
        );
        let r = run(
            "SELECT T.g FROM T GROUP BY T.g HAVING COUNT(*) > 1 AND MIN(T.v) >= 10",
            &d,
        );
        assert_eq!(r.rows, vec![vec![num(1.0)]]);
        // Global aggregate over an empty scan: COUNT is 0, SUM is NULL.
        let r = run("SELECT COUNT(*), SUM(T.v) FROM T WHERE T.g > 99", &d);
        assert_eq!(r.rows, vec![vec![num(0.0), Datum::Null]]);
    }

    #[test]
    fn union_dedups_and_union_all_does_not() {
        let d = db(&[
            ("T", &["a"], &[&[num(1.0)], &[num(2.0)]]),
            ("U", &["a"], &[&[num(2.0)], &[num(3.0)]]),
        ]);
        let r = run("SELECT T.a FROM T UNION SELECT U.a FROM U", &d);
        assert_eq!(r.rows, vec![vec![num(1.0)], vec![num(2.0)], vec![num(3.0)]]);
        let r = run("SELECT T.a FROM T UNION ALL SELECT U.a FROM U", &d);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn budget_guard_trips() {
        let rows: Vec<Vec<Datum>> = (0..50).map(|i| vec![num(i as f64)]).collect();
        let row_refs: Vec<&[Datum]> = rows.iter().map(|r| r.as_slice()).collect();
        let q = prepare("SELECT A.a FROM T A, T B, T C, T D WHERE A.a = B.a");
        let (d, names) = materialize(&db(&[("T", &["a"], &row_refs)]), &q);
        let err = execute(&q.trees(), q.union_all, &names, &d, 1000).unwrap_err();
        assert_eq!(err, ExecError::Budget);
    }
}
