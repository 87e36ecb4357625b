//! A fragment-aware SQL query generator for the *widened* QueryVis
//! grammar (ISSUE 4): weighted production rules covering nested
//! subqueries (`EXISTS` / `IN` / `ANY` / `ALL`, negated or not),
//! `JOIN … ON`, `OR` disjunctions (polarity-tracked), `GROUP BY` +
//! `HAVING`, and top-level `UNION [ALL]` — with bounded nesting and
//! bounded disjunction width so every generated query stays inside the
//! pipeline's caps.
//!
//! The generator is deliberately **dependency-free** (it emits SQL text,
//! not `queryvis-sql` ASTs) so the vendored proptest crate stays at the
//! bottom of the workspace graph. It produces a structured internal query
//! which can be emitted several ways:
//!
//! * [`GenQuery::canonical`] — uppercase keywords, single spacing;
//! * [`GenQuery::pattern_variant`] — a *pattern-preserving* rewrite:
//!   order-preserving alias/table/column renames, join-operand flips,
//!   union-branch rotation, and `JOIN … ON` syntax for eligible blocks.
//!   The variant parses to a different (or differently spelled) text with
//!   the **same canonical pattern fingerprint**;
//! * [`GenQuery::text_variant`] — a *spelling-only* rewrite: the same
//!   token stream with other whitespace, comments, keyword case, `!=`
//!   and `SOME` spellings, and a trailing semicolon. The variant must
//!   keep the canonical text's fingerprint.
//!
//! Emission is deterministic: the same [`TestRng`] seed yields the same
//! query and variants.

use crate::test_runner::TestRng;

/// Weighted-grammar knobs. Defaults exercise the full widened fragment.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Maximum subquery nesting depth (0 = flat queries only).
    pub max_depth: usize,
    /// Maximum tables per block.
    pub max_tables: usize,
    /// Maximum predicates per block (before subquery/OR additions).
    pub max_preds: usize,
    /// Generate `OR` disjunctions (polarity-tracked).
    pub with_or: bool,
    /// Generate top-level `UNION [ALL]` chains.
    pub with_union: bool,
    /// Generate `GROUP BY` + `HAVING` root blocks.
    pub with_having: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_depth: 2,
            max_tables: 2,
            max_preds: 3,
            with_or: true,
            with_union: true,
            with_having: true,
        }
    }
}

const N_TABLES: usize = 4;
const N_COLUMNS: usize = 4;
const OPS: [&str; 6] = ["<", "<=", "=", "<>", ">=", ">"];
const FLIPPED: [usize; 6] = [5, 4, 2, 3, 1, 0];
const AGGS: [&str; 5] = ["COUNT", "SUM", "AVG", "MIN", "MAX"];

/// A column reference: (global alias id, column index).
#[derive(Debug, Clone, Copy)]
struct Col {
    alias: usize,
    col: usize,
}

#[derive(Debug, Clone, Copy)]
enum Rhs {
    Col(Col),
    Num(u32),
    Str(u8),
}

#[derive(Debug, Clone)]
enum Pred {
    Cmp {
        lhs: Col,
        op: usize,
        rhs: Rhs,
    },
    /// `[NOT] EXISTS (block)`.
    Exists {
        negated: bool,
        block: Block,
    },
    /// `col [NOT] IN (block)`.
    In {
        col: Col,
        negated: bool,
        block: Block,
    },
    /// `col op {ANY|ALL} (block)`.
    Quant {
        col: Col,
        op: usize,
        all: bool,
        block: Block,
    },
    /// Two-branch disjunction of small conjunctions.
    Or(Vec<Vec<Pred>>),
}

#[derive(Debug, Clone)]
enum Select {
    Star,
    Col(Col),
    /// `group_col, AGG(arg)` with HAVING conjuncts.
    Grouped {
        group: Col,
        agg: (usize, Option<Col>),
        having: Vec<(usize, Option<Col>, usize, u32)>,
    },
}

#[derive(Debug, Clone)]
struct Block {
    /// (table index, global alias id) in FROM order.
    tables: Vec<(usize, usize)>,
    select: Select,
    preds: Vec<Pred>,
}

/// A generated query: one or more union branches.
#[derive(Debug, Clone)]
pub struct GenQuery {
    branches: Vec<Block>,
    union_all: bool,
}

/// Generate one random query of the widened fragment.
pub fn gen_query(cfg: &GenConfig, rng: &mut TestRng) -> GenQuery {
    let mut next_alias = 0usize;
    let unioned = cfg.with_union && rng.below(3) == 0;
    if unioned {
        let n = 2 + rng.below(2) as usize;
        // Union branches select exactly one column each (arity-compatible)
        // and never group.
        let branches = (0..n)
            .map(|_| gen_block(cfg, rng, &mut next_alias, 0, &[], true, false, true))
            .collect();
        GenQuery {
            branches,
            union_all: rng.below(2) == 0,
        }
    } else {
        let grouped = cfg.with_having && rng.below(3) == 0;
        let root = gen_block(cfg, rng, &mut next_alias, 0, &[], true, grouped, true);
        GenQuery {
            branches: vec![root],
            union_all: false,
        }
    }
}

/// `grouped_root` is whether the *root* block groups; `positive_path` is
/// whether every quantifier from the root to this block is ∃-flavored —
/// exactly the condition under which an `OR` here would split the root
/// into union branches (which a grouped root refuses).
#[allow(clippy::too_many_arguments)]
fn gen_block(
    cfg: &GenConfig,
    rng: &mut TestRng,
    next_alias: &mut usize,
    depth: usize,
    outer: &[usize],
    is_root: bool,
    grouped_root: bool,
    positive_path: bool,
) -> Block {
    let n_tables = 1 + rng.below(cfg.max_tables.max(1) as u64) as usize;
    let mut tables = Vec::with_capacity(n_tables);
    let mut local = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        let id = *next_alias;
        *next_alias += 1;
        tables.push((rng.below(N_TABLES as u64) as usize, id));
        local.push(id);
    }
    let mut scope: Vec<usize> = outer.to_vec();
    scope.extend_from_slice(&local);

    let local_col = |rng: &mut TestRng| Col {
        alias: local[rng.below(local.len() as u64) as usize],
        col: rng.below(N_COLUMNS as u64) as usize,
    };
    let scope_col = |rng: &mut TestRng, scope: &[usize]| Col {
        alias: scope[rng.below(scope.len() as u64) as usize],
        col: rng.below(N_COLUMNS as u64) as usize,
    };

    let select = if is_root && grouped_root {
        let group = local_col(rng);
        let agg_func = rng.below(AGGS.len() as u64) as usize;
        let agg_arg = (rng.below(3) != 0).then(|| local_col(rng));
        let n_having = 1 + rng.below(2) as usize;
        let having = (0..n_having)
            .map(|_| {
                (
                    rng.below(AGGS.len() as u64) as usize,
                    (rng.below(3) != 0).then(|| local_col(rng)),
                    rng.below(OPS.len() as u64) as usize,
                    rng.below(100) as u32,
                )
            })
            .collect();
        Select::Grouped {
            group,
            agg: (agg_func, agg_arg),
            having,
        }
    } else {
        Select::Col(local_col(rng))
    };

    let mut preds = Vec::new();
    let n_preds = 1 + rng.below(cfg.max_preds.max(1) as u64) as usize;
    let mut used_or = false;
    for _ in 0..n_preds {
        let cmp = |rng: &mut TestRng, scope: &[usize]| {
            let lhs = local_col(rng);
            let op = rng.below(OPS.len() as u64) as usize;
            let rhs = match rng.below(3) {
                0 => Rhs::Num(rng.below(10_000) as u32),
                1 => Rhs::Str(rng.below(26) as u8),
                _ => {
                    // Join comparisons stay cross-alias: a same-alias
                    // column pair would draw a self-loop edge, which the
                    // diagram conventions exclude.
                    let mut rhs = scope_col(rng, scope);
                    if rhs.alias == lhs.alias {
                        match scope.iter().find(|a| **a != lhs.alias) {
                            Some(&other) => rhs.alias = other,
                            None => {
                                return Pred::Cmp {
                                    lhs,
                                    op,
                                    rhs: Rhs::Num(rng.below(10_000) as u32),
                                }
                            }
                        }
                    }
                    Rhs::Col(rhs)
                }
            };
            Pred::Cmp { lhs, op, rhs }
        };
        // A grouped root refuses root-splitting ORs (the lowering would
        // reject them), and an OR splits the root exactly when every
        // quantifier above it is ∃-flavored; anywhere below a ∄-flavored
        // quantifier it De-Morgans into sibling groups and is fine. One
        // OR per block keeps the DNF expansion far below the branch cap.
        let or_ok = cfg.with_or && !used_or && !(grouped_root && positive_path);
        let roll = rng.below(10);
        if or_ok && roll < 2 {
            used_or = true;
            let n_branches = 2;
            let branches = (0..n_branches)
                .map(|_| {
                    let n = 1 + rng.below(2) as usize;
                    (0..n).map(|_| cmp(rng, &scope)).collect()
                })
                .collect();
            preds.push(Pred::Or(branches));
        } else if depth < cfg.max_depth && roll < 5 {
            match rng.below(3) {
                0 => {
                    let negated = rng.below(2) == 0;
                    let mut block = gen_block(
                        cfg,
                        rng,
                        next_alias,
                        depth + 1,
                        &scope,
                        false,
                        grouped_root,
                        positive_path && !negated,
                    );
                    block.select = Select::Star;
                    // Correlate the subquery with its parent so diagrams
                    // stay connected (and interesting).
                    let inner = block.tables[0].1;
                    block.preds.push(Pred::Cmp {
                        lhs: Col {
                            alias: inner,
                            col: rng.below(N_COLUMNS as u64) as usize,
                        },
                        op: 2, // =
                        rhs: Rhs::Col(Col {
                            alias: local[rng.below(local.len() as u64) as usize],
                            col: rng.below(N_COLUMNS as u64) as usize,
                        }),
                    });
                    preds.push(Pred::Exists { negated, block });
                }
                1 => {
                    let negated = rng.below(2) == 0;
                    let mut block = gen_block(
                        cfg,
                        rng,
                        next_alias,
                        depth + 1,
                        &scope,
                        false,
                        grouped_root,
                        positive_path && !negated,
                    );
                    let inner = block.tables[0].1;
                    block.select = Select::Col(Col {
                        alias: inner,
                        col: rng.below(N_COLUMNS as u64) as usize,
                    });
                    preds.push(Pred::In {
                        col: local_col(rng),
                        negated,
                        block,
                    });
                }
                _ => {
                    let all = rng.below(2) == 0;
                    let mut block = gen_block(
                        cfg,
                        rng,
                        next_alias,
                        depth + 1,
                        &scope,
                        false,
                        grouped_root,
                        positive_path && !all,
                    );
                    let inner = block.tables[0].1;
                    block.select = Select::Col(Col {
                        alias: inner,
                        col: rng.below(N_COLUMNS as u64) as usize,
                    });
                    preds.push(Pred::Quant {
                        col: local_col(rng),
                        op: rng.below(OPS.len() as u64) as usize,
                        all,
                        block,
                    });
                }
            }
        } else {
            preds.push(cmp(rng, &scope));
        }
    }

    Block {
        tables,
        select,
        preds,
    }
}

// ---------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------

/// How a [`GenQuery`] is rendered to SQL text.
#[derive(Debug, Clone, Copy)]
struct EmitOptions {
    /// Name prefixes. Renames keep the numeric (zero-padded) suffix, so
    /// relative name order — which the canonical join orientation depends
    /// on — is preserved.
    alias_prefix: &'static str,
    table_prefix: &'static str,
    column_prefix: &'static str,
    /// Emit join comparisons operand-flipped (with the flipped operator).
    flip_joins: bool,
    /// Rotate the union branch order by this many positions.
    rotate_branches: usize,
    /// Render each block's leading comparison as `JOIN … ON` when the
    /// block has ≥ 2 tables (AST-identical to the implicit form).
    join_syntax: bool,
    /// Lowercase keywords, `!=` / `SOME` spellings, noisy whitespace,
    /// comments, and a trailing semicolon (L1-normalization-equal).
    noisy: bool,
    /// Emit each block's WHERE conjuncts (and HAVING conjuncts) in
    /// reverse written order — pattern-preserving because conjunct lists
    /// canonicalize order-insensitively.
    reverse_conjuncts: bool,
}

const CANONICAL: EmitOptions = EmitOptions {
    alias_prefix: "t",
    table_prefix: "Rel",
    column_prefix: "c",
    flip_joins: false,
    rotate_branches: 0,
    join_syntax: false,
    noisy: false,
    reverse_conjuncts: false,
};

impl GenQuery {
    /// Canonical rendering: uppercase keywords, implicit joins, written
    /// branch order.
    pub fn canonical(&self) -> String {
        self.emit(&CANONICAL)
    }

    /// A pattern-preserving rewrite (see the module docs); `salt` selects
    /// among the rewrite combinations deterministically.
    pub fn pattern_variant(&self, salt: u64) -> String {
        let names: [(&str, &str, &str); 3] =
            [("u", "Src", "k"), ("q", "Zrel", "m"), ("a", "Base", "f")];
        let (alias_prefix, table_prefix, column_prefix) = names[(salt % 3) as usize];
        self.emit(&EmitOptions {
            alias_prefix,
            table_prefix,
            column_prefix,
            flip_joins: salt.is_multiple_of(2),
            rotate_branches: (salt as usize / 2) % self.branches.len().max(1),
            join_syntax: salt % 5 < 2,
            noisy: false,
            reverse_conjuncts: salt % 7 >= 4,
        })
    }

    /// A spelling-only rewrite of the canonical text (same token stream):
    /// it must keep the canonical text's fingerprint.
    pub fn text_variant(&self, salt: u64) -> String {
        let mut opts = CANONICAL;
        opts.noisy = true;
        let mut text = self.emit(&opts);
        if salt.is_multiple_of(2) {
            text.push(';');
        }
        text
    }

    /// Number of union branches (before any OR lowering downstream).
    pub fn branch_count(&self) -> usize {
        self.branches.len()
    }

    /// True when this query uses `UNION ALL`.
    pub fn union_all(&self) -> bool {
        self.union_all
    }

    fn emit(&self, opts: &EmitOptions) -> String {
        let mut w = Writer::new(*opts);
        let n = self.branches.len();
        for i in 0..n {
            if i > 0 {
                w.kw("UNION");
                if self.union_all {
                    w.kw("ALL");
                }
            }
            let branch = &self.branches[(i + opts.rotate_branches) % n];
            emit_block(&mut w, branch);
        }
        w.out
    }
}

struct Writer {
    out: String,
    opts: EmitOptions,
    /// Deterministic counter driving the noisy-whitespace choices.
    tick: usize,
}

impl Writer {
    fn new(opts: EmitOptions) -> Writer {
        Writer {
            out: String::new(),
            opts,
            tick: 0,
        }
    }

    fn sep(&mut self) {
        if self.out.is_empty() || self.out.ends_with('(') {
            return;
        }
        if self.opts.noisy {
            self.tick += 1;
            match self.tick % 5 {
                0 => self.out.push_str("  "),
                1 => self.out.push('\n'),
                2 => self.out.push_str(" /* g */ "),
                3 => self.out.push('\t'),
                _ => self.out.push(' '),
            }
        } else {
            self.out.push(' ');
        }
    }

    fn kw(&mut self, word: &str) {
        self.sep();
        if self.opts.noisy {
            self.tick += 1;
            if self.tick.is_multiple_of(2) {
                self.out.push_str(&word.to_ascii_lowercase());
            } else {
                self.out.push_str(word);
            }
        } else {
            self.out.push_str(word);
        }
    }

    fn raw(&mut self, text: &str) {
        self.sep();
        self.out.push_str(text);
    }

    /// Append without a leading separator (e.g. `(` after a function).
    fn glue(&mut self, text: &str) {
        self.out.push_str(text);
    }

    fn alias(&self, id: usize) -> String {
        format!("{}{:02}", self.opts.alias_prefix, id)
    }

    fn column(&self, c: Col) -> String {
        format!(
            "{}.{}{}",
            self.alias(c.alias),
            self.opts.column_prefix,
            c.col
        )
    }

    fn op(&mut self, op: usize) {
        if self.opts.noisy && op == 3 {
            self.raw("!=");
        } else {
            self.raw(OPS[op]);
        }
    }
}

fn emit_rhs(w: &mut Writer, rhs: Rhs) {
    match rhs {
        Rhs::Col(c) => {
            let t = w.column(c);
            w.raw(&t);
        }
        Rhs::Num(n) => w.raw(&n.to_string()),
        Rhs::Str(s) => w.raw(&format!("'k{s}'")),
    }
}

fn emit_cmp(w: &mut Writer, lhs: Col, op: usize, rhs: Rhs) {
    // Flipping is pattern-preserving only for column-column joins (the
    // canonicalization orients them); constant comparisons stay put.
    if w.opts.flip_joins {
        if let Rhs::Col(r) = rhs {
            let t = w.column(r);
            w.raw(&t);
            w.op(FLIPPED[op]);
            let t = w.column(lhs);
            w.raw(&t);
            return;
        }
    }
    let t = w.column(lhs);
    w.raw(&t);
    w.op(op);
    emit_rhs(w, rhs);
}

fn emit_pred(w: &mut Writer, pred: &Pred) {
    match pred {
        Pred::Cmp { lhs, op, rhs } => emit_cmp(w, *lhs, *op, *rhs),
        Pred::Exists { negated, block } => {
            if *negated {
                w.kw("NOT");
            }
            w.kw("EXISTS");
            w.raw("(");
            emit_block(w, block);
            w.glue(")");
        }
        Pred::In {
            col,
            negated,
            block,
        } => {
            let t = w.column(*col);
            w.raw(&t);
            if *negated {
                w.kw("NOT");
            }
            w.kw("IN");
            w.raw("(");
            emit_block(w, block);
            w.glue(")");
        }
        Pred::Quant {
            col,
            op,
            all,
            block,
        } => {
            let t = w.column(*col);
            w.raw(&t);
            w.op(*op);
            if *all {
                w.kw("ALL");
            } else if w.opts.noisy {
                w.kw("SOME");
            } else {
                w.kw("ANY");
            }
            w.raw("(");
            emit_block(w, block);
            w.glue(")");
        }
        Pred::Or(branches) => {
            w.raw("(");
            for (i, branch) in branches.iter().enumerate() {
                if i > 0 {
                    w.kw("OR");
                }
                for (j, pred) in branch.iter().enumerate() {
                    if j > 0 {
                        w.kw("AND");
                    }
                    emit_pred(w, pred);
                }
            }
            w.glue(")");
        }
    }
}

fn emit_block(w: &mut Writer, block: &Block) {
    w.kw("SELECT");
    match &block.select {
        Select::Star => w.raw("*"),
        Select::Col(c) => {
            let t = w.column(*c);
            w.raw(&t);
        }
        Select::Grouped { group, agg, .. } => {
            let t = w.column(*group);
            w.raw(&t);
            w.glue(",");
            w.kw(AGGS[agg.0]);
            w.glue("(");
            match agg.1 {
                Some(c) => {
                    let t = w.column(c);
                    w.glue(&t);
                }
                None => w.glue("*"),
            }
            w.glue(")");
        }
    }
    w.kw("FROM");
    let preds: Vec<&Pred> = if w.opts.reverse_conjuncts {
        block.preds.iter().rev().collect()
    } else {
        block.preds.iter().collect()
    };
    // `JOIN … ON` syntax is AST-identical to the implicit form when the
    // block's first predicate is a plain comparison: the parser desugars
    // ON conjuncts to *leading* WHERE conjuncts.
    let join_eligible = w.opts.join_syntax
        && block.tables.len() >= 2
        && matches!(preds.first(), Some(Pred::Cmp { .. }));
    let mut remaining: &[&Pred] = &preds;
    if join_eligible {
        let (table, alias) = block.tables[0];
        let t = format!("{}{} {}", w.opts.table_prefix, table, w.alias(alias));
        w.raw(&t);
        w.kw("JOIN");
        let (table, alias) = block.tables[1];
        let t = format!("{}{} {}", w.opts.table_prefix, table, w.alias(alias));
        w.raw(&t);
        w.kw("ON");
        emit_pred(w, preds[0]);
        remaining = &preds[1..];
        for &(table, alias) in &block.tables[2..] {
            w.glue(",");
            let t = format!("{}{} {}", w.opts.table_prefix, table, w.alias(alias));
            w.raw(&t);
        }
    } else {
        for (i, &(table, alias)) in block.tables.iter().enumerate() {
            if i > 0 {
                w.glue(",");
            }
            let t = format!("{}{} {}", w.opts.table_prefix, table, w.alias(alias));
            w.raw(&t);
        }
    }
    if !remaining.is_empty() {
        w.kw("WHERE");
        for (i, pred) in remaining.iter().enumerate() {
            if i > 0 {
                w.kw("AND");
            }
            emit_pred(w, pred);
        }
    }
    if let Select::Grouped { group, having, .. } = &block.select {
        w.kw("GROUP");
        w.kw("BY");
        let t = w.column(*group);
        w.raw(&t);
        if !having.is_empty() {
            w.kw("HAVING");
            let clauses: Vec<_> = if w.opts.reverse_conjuncts {
                having.iter().rev().collect()
            } else {
                having.iter().collect()
            };
            for (i, &&(func, arg, op, value)) in clauses.iter().enumerate() {
                if i > 0 {
                    w.kw("AND");
                }
                w.kw(AGGS[func]);
                w.glue("(");
                match arg {
                    Some(c) => {
                        let t = w.column(c);
                        w.glue(&t);
                    }
                    None => w.glue("*"),
                }
                w.glue(")");
                w.op(op);
                w.raw(&value.to_string());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        let mut a = TestRng::for_case("sqlgen", 7);
        let mut b = TestRng::for_case("sqlgen", 7);
        assert_eq!(
            gen_query(&cfg, &mut a).canonical(),
            gen_query(&cfg, &mut b).canonical()
        );
    }

    #[test]
    fn grammar_features_all_appear() {
        let cfg = GenConfig::default();
        let mut seen_or = false;
        let mut seen_union = false;
        let mut seen_having = false;
        let mut seen_nested = false;
        for case in 0..200 {
            let mut rng = TestRng::for_case("coverage", case);
            let sql = gen_query(&cfg, &mut rng).canonical();
            seen_or |= sql.contains(" OR ");
            seen_union |= sql.contains("UNION");
            seen_having |= sql.contains("HAVING");
            seen_nested |= sql.contains("EXISTS") || sql.contains(" IN (");
        }
        assert!(seen_or, "no OR generated in 200 cases");
        assert!(seen_union, "no UNION generated in 200 cases");
        assert!(seen_having, "no HAVING generated in 200 cases");
        assert!(seen_nested, "no subquery generated in 200 cases");
    }

    #[test]
    fn join_syntax_appears_in_pattern_variants() {
        let cfg = GenConfig::default();
        let mut seen_join = false;
        for case in 0..100 {
            let mut rng = TestRng::for_case("joins", case);
            let q = gen_query(&cfg, &mut rng);
            seen_join |= q.pattern_variant(0).contains(" JOIN ");
        }
        assert!(seen_join, "no JOIN emitted in 100 pattern variants");
    }

    #[test]
    fn text_variant_differs_only_in_spelling() {
        let cfg = GenConfig::default();
        let mut rng = TestRng::for_case("textvar", 3);
        let q = gen_query(&cfg, &mut rng);
        let canonical = q.canonical();
        let variant = q.text_variant(0);
        assert_ne!(canonical, variant);
        // Identifiers survive verbatim.
        assert!(variant.contains("t00"));
    }
}
