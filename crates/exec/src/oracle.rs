//! The differential conformance oracle: equal fingerprints must mean
//! equal answers.
//!
//! [`check_pair`] is the single verdict path for both kinds of pair the
//! suite feeds it — sqlgen pattern-preserving rewrite pairs and
//! equal-fingerprint corpus pairs. It builds each side's transport
//! [`Analysis`], classifies pairs the transport cannot prove as
//! [`PairOutcome::Incompatible`] (with the reason — never a silent pass),
//! executes both sides over isomorphic generated databases, and on any
//! mismatch **shrinks** to the smallest rows-per-table that still
//! diverges before reporting. Reports are fully deterministic: same pair,
//! same seed, same text.

use crate::datum::Datum;
use crate::eval::{execute, ExecError, ResultSet, DEFAULT_BUDGET};
use crate::transport::Analysis;
use queryvis::PreparedQuery;
use queryvis_logic::LogicTree;

/// A minimized, reproducible semantic divergence between two queries
/// that were expected to agree.
#[derive(Debug, Clone)]
pub struct Divergence {
    pub seed: u64,
    /// Smallest rows-per-table that still reproduces the divergence.
    pub rows_per_table: usize,
    pub left_sql: String,
    pub right_sql: String,
    /// Rendered rows only the left / only the right side produced.
    pub left_only: Vec<String>,
    pub right_only: Vec<String>,
}

impl Divergence {
    /// Deterministic report for artifacts and panics.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str("semantic divergence (equal fingerprints, different answers)\n");
        out.push_str(&format!(
            "seed={} rows_per_table={}\n",
            self.seed, self.rows_per_table
        ));
        out.push_str(&format!("left:  {}\n", self.left_sql));
        out.push_str(&format!("right: {}\n", self.right_sql));
        out.push_str(&format!("rows only in left ({}):\n", self.left_only.len()));
        for row in &self.left_only {
            out.push_str(&format!("  {row}\n"));
        }
        out.push_str(&format!(
            "rows only in right ({}):\n",
            self.right_only.len()
        ));
        for row in &self.right_only {
            out.push_str(&format!("  {row}\n"));
        }
        out
    }
}

/// Verdict on one pair of queries.
#[derive(Debug, Clone)]
pub enum PairOutcome {
    /// Identical result sets at every probed size.
    Equal,
    /// The data transport cannot prove this pair (differing table
    /// sharing, constant shapes, output-visible constants, …) — skipped,
    /// with the reason.
    Incompatible(String),
    /// A real semantic divergence, minimized.
    Divergent(Divergence),
}

fn render_diff(left: &ResultSet, right: &ResultSet) -> (Vec<String>, Vec<String>) {
    let (l, r) = left.diff(right);
    let render = |rows: Vec<Vec<Datum>>| rows.iter().map(|r| crate::eval::render_row(r)).collect();
    (render(l), render(r))
}

/// Differentially execute two queries that are expected to be
/// semantically equal (equal fingerprints or a pattern-preserving
/// rewrite pair), over canonically transported data.
pub fn check_pair(
    left: &PreparedQuery,
    right: &PreparedQuery,
    seed: u64,
    rows_per_table: usize,
) -> Result<PairOutcome, ExecError> {
    let la = Analysis::of(&left.trees(), left.union_all)?;
    let ra = Analysis::of(&right.trees(), right.union_all)?;
    if let Err(reason) = Analysis::compatible(&la, &ra) {
        return Ok(PairOutcome::Incompatible(reason));
    }
    let run = |rows: usize| -> Result<Option<Divergence>, ExecError> {
        let ldb = la.database(seed, rows);
        let rdb = ra.database(seed, rows);
        let lres = execute(&left.trees(), left.union_all, &ldb, DEFAULT_BUDGET)?;
        let rres = execute(&right.trees(), right.union_all, &rdb, DEFAULT_BUDGET)?;
        if lres == rres {
            return Ok(None);
        }
        let (left_only, right_only) = render_diff(&lres, &rres);
        Ok(Some(Divergence {
            seed,
            rows_per_table: rows,
            left_sql: left.sql.clone(),
            right_sql: right.sql.clone(),
            left_only,
            right_only,
        }))
    };
    if run(rows_per_table)?.is_none() {
        return Ok(PairOutcome::Equal);
    }
    // Shrink: the smallest table size that still diverges (the full size
    // diverged, so the loop always lands on something).
    for rows in 1..=rows_per_table {
        if let Some(d) = run(rows)? {
            return Ok(PairOutcome::Divergent(d));
        }
    }
    unreachable!("divergence at rows_per_table must re-occur in the shrink loop");
}

/// Differentially execute a query's raw trees against their
/// [`queryvis_logic::simplify`](fn@queryvis_logic::simplify)d forms on the same generated database —
/// the ∀-introduction rewrite must be answer-preserving.
pub fn check_simplify(
    query: &PreparedQuery,
    seed: u64,
    rows_per_table: usize,
) -> Result<Option<Divergence>, ExecError> {
    let analysis = Analysis::of(&query.trees(), query.union_all)?;
    let simplified: Vec<LogicTree> = query
        .trees()
        .iter()
        .map(|t| queryvis_logic::simplify(t))
        .collect();
    let simp_refs: Vec<&LogicTree> = simplified.iter().collect();
    let run = |rows: usize| -> Result<Option<Divergence>, ExecError> {
        let db = analysis.database(seed, rows);
        let raw = execute(&query.trees(), query.union_all, &db, DEFAULT_BUDGET)?;
        let simp = execute(&simp_refs, query.union_all, &db, DEFAULT_BUDGET)?;
        if raw == simp {
            return Ok(None);
        }
        let (left_only, right_only) = render_diff(&raw, &simp);
        Ok(Some(Divergence {
            seed,
            rows_per_table: rows,
            left_sql: query.sql.clone(),
            right_sql: format!("[simplified] {}", query.sql),
            left_only,
            right_only,
        }))
    };
    if run(rows_per_table)?.is_none() {
        return Ok(None);
    }
    for rows in 1..=rows_per_table {
        if let Some(d) = run(rows)? {
            return Ok(Some(d));
        }
    }
    unreachable!("divergence at rows_per_table must re-occur in the shrink loop");
}

/// Execute a query over its own transport-generated database and return
/// up to `cap` normalized result rows plus a truncation flag — the
/// service's sample-rows scenario.
pub fn sample_rows(
    trees: &[&LogicTree],
    union_all: bool,
    seed: u64,
    rows_per_table: usize,
    cap: usize,
    budget: u64,
) -> Result<(Vec<Vec<Datum>>, bool), ExecError> {
    let analysis = Analysis::of(trees, union_all)?;
    let db = analysis.database(seed, rows_per_table);
    let result = execute(trees, union_all, &db, budget)?;
    let truncated = result.rows.len() > cap;
    let mut rows = result.rows;
    rows.truncate(cap);
    Ok((rows, truncated))
}

#[cfg(test)]
mod tests {
    use super::*;
    use queryvis::QueryVisOptions;

    fn prepare(sql: &str) -> PreparedQuery {
        queryvis::QueryVis::prepare(sql, QueryVisOptions::default()).unwrap()
    }

    #[test]
    fn equal_pairs_come_back_equal() {
        let a = prepare(
            "SELECT S.sname FROM Sailors S WHERE NOT EXISTS \
             (SELECT * FROM Reserves R WHERE R.sid = S.sid)",
        );
        let b = prepare(
            "SELECT M.name FROM Mariners M WHERE NOT EXISTS \
             (SELECT * FROM Bookings K WHERE K.mid = M.mid)",
        );
        assert_eq!(
            a.pattern_key().fingerprint128(),
            b.pattern_key().fingerprint128()
        );
        for seed in [1, 2, 3] {
            match check_pair(&a, &b, seed, 5).unwrap() {
                PairOutcome::Equal => {}
                other => panic!("expected Equal, got {other:?}"),
            }
        }
    }

    #[test]
    fn genuinely_different_queries_diverge_with_a_minimized_report() {
        // Force a divergence through the oracle plumbing by comparing two
        // *different* queries that are nonetheless transport-compatible:
        // same structure, but one negates the subquery.
        let a = prepare("SELECT T.a FROM T WHERE EXISTS(SELECT * FROM U WHERE U.k = T.a)");
        let b = prepare("SELECT T.a FROM T WHERE NOT EXISTS(SELECT * FROM U WHERE U.k = T.a)");
        // Their fingerprints differ (quantifier is in the pattern) — the
        // oracle still compares them; this tests the divergence path, not
        // the invariant.
        let d = match check_pair(&a, &b, 1, 6).unwrap() {
            PairOutcome::Divergent(d) => d,
            other => panic!("expected Divergent, got {other:?}"),
        };
        assert!(d.rows_per_table <= 6);
        assert!(!d.left_only.is_empty() || !d.right_only.is_empty());
        // Deterministic shrink-and-report: same inputs, same text.
        let d2 = match check_pair(&a, &b, 1, 6).unwrap() {
            PairOutcome::Divergent(d) => d,
            other => panic!("expected Divergent, got {other:?}"),
        };
        assert_eq!(d.report(), d2.report());
        assert!(d.report().contains("seed=1"));
    }

    #[test]
    fn simplify_is_answer_preserving_on_the_classic_pattern() {
        let q = prepare(
            "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
             (SELECT * FROM Serves S WHERE S.bar = F.bar AND NOT EXISTS \
             (SELECT L.drink FROM Likes L WHERE L.person = F.person \
              AND S.drink = L.drink))",
        );
        for seed in [1, 2, 3, 4] {
            assert!(check_simplify(&q, seed, 4).unwrap().is_none());
        }
    }

    #[test]
    fn sample_rows_caps_and_flags_truncation() {
        let q = prepare("SELECT A.x FROM T A, T B");
        let (rows, truncated) =
            sample_rows(&q.trees(), q.union_all, 1, 5, 3, DEFAULT_BUDGET).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(truncated); // 25 assignments > 3
    }
}
