//! The one-stop [`QueryVis`] pipeline: SQL → logic tree → simplification →
//! diagram → layout → scene → rendering (the Fig. 8 flowchart, with the
//! layout/render boundary reified as the [`Scene`] display-list IR:
//! geometry and union composition are computed once in
//! [`QueryVis::scene`], and every geometric backend walks the result).

use crate::pattern::PatternKey;
use queryvis_diagram::{build_diagram, diagram_stats, render_reading, Diagram, DiagramStats};
use queryvis_layout::{build_scene, compose_union, layout_diagram, Layout, Scene};
use queryvis_logic::{
    check_non_degenerate, check_valid_diagram_source, simplify_in_place, to_trc, DegeneracyError,
    LogicTree, TranslateError,
};
use queryvis_render::{to_ascii, to_dot_union, to_svg, SvgTheme};
use queryvis_sql::{
    metrics::word_count_expr, parse_query_expr, ParseError, Query, QueryExpr, Schema, SemanticError,
};
use queryvis_telemetry::StageDef;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Telemetry stages for the pipeline's back half (DESIGN.md §6). Lex and
/// parse are spanned inside `queryvis-sql`; these cover lowering +
/// translation, diagram construction (with the ∄·∄ → ∀·∃ rewrite of each
/// branch nested inside it), and scene composition.
static STAGE_LOWER: StageDef = StageDef::new("stage.lower");
static STAGE_DIAGRAM: StageDef = StageDef::new("stage.diagram");
static PASS_SIMPLIFY: StageDef = StageDef::new("pass.simplify-forall");
static STAGE_SCENE: StageDef = StageDef::new("stage.scene");

/// Hard cap on lowered branches per request (`UNION` branches times each
/// branch's OR expansion) — the same bound the disjunction lowering
/// enforces per block, applied to the whole expression so a request can
/// never fan out into an unbounded number of diagrams.
pub const MAX_QUERY_BRANCHES: usize = queryvis_logic::MAX_DISJUNCTION_BRANCHES;

/// Errors from any pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryVisError {
    Parse(ParseError),
    Semantic(SemanticError),
    Translate(TranslateError),
    /// The query violates the non-degeneracy properties (§5.1) — a diagram
    /// could still be drawn, but it would not be provably unambiguous, so
    /// strict mode refuses.
    Degenerate(DegeneracyError),
}

impl fmt::Display for QueryVisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryVisError::Parse(e) => write!(f, "{e}"),
            QueryVisError::Semantic(e) => write!(f, "{e}"),
            QueryVisError::Translate(e) => write!(f, "{e}"),
            QueryVisError::Degenerate(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for QueryVisError {}

impl From<ParseError> for QueryVisError {
    fn from(e: ParseError) -> Self {
        QueryVisError::Parse(e)
    }
}

impl From<TranslateError> for QueryVisError {
    fn from(e: TranslateError) -> Self {
        QueryVisError::Translate(e)
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone, Default)]
pub struct QueryVisOptions {
    /// Validate column references against this schema before translating.
    pub schema: Option<Schema>,
    /// Reject queries violating the non-degeneracy properties (§5.1)
    /// instead of drawing a possibly-ambiguous diagram.
    pub strict: bool,
    /// Skip the ∄∄ → ∀∃ simplification (Fig. 2b instead of Fig. 2c).
    pub no_simplify: bool,
}

/// One lowered branch of a multi-root query, fully compiled. Branches
/// beyond the first (written `UNION` branches and positive-polarity
/// OR splits) live in [`QueryVis::rest`]; the first branch occupies the
/// struct's primary fields so single-block queries — the entire
/// pre-widening fragment — read exactly as before.
#[derive(Debug, Clone)]
pub struct UnionBranch {
    /// The branch's (lowered, OR-free) AST.
    pub query: Query,
    /// Logic tree straight from translation (all ∃/∄).
    pub logic_tree: LogicTree,
    /// Logic tree after the ∀ simplification.
    pub simplified: LogicTree,
    /// The branch's rendered diagram.
    pub diagram: Diagram,
}

/// The result of running the full QueryVis pipeline over one query.
#[derive(Debug, Clone)]
pub struct QueryVis {
    /// Original SQL text.
    pub sql: String,
    /// The parsed top-level expression (original, before OR lowering).
    pub expr: QueryExpr,
    /// First lowered branch's AST (the whole query when single-block).
    pub query: Query,
    /// First branch's logic tree straight from translation (all ∃/∄).
    pub logic_tree: LogicTree,
    /// First branch's logic tree after the ∀ simplification.
    pub simplified: LogicTree,
    /// First branch's diagram (from `simplified` unless `no_simplify`).
    pub diagram: Diagram,
    /// Branches beyond the first, in written/lowering order; empty for
    /// single-block queries.
    pub rest: Vec<UnionBranch>,
    /// True when the branches combine under `UNION ALL`.
    pub union_all: bool,
    /// Lazily built diagram of the first branch's unsimplified tree — see
    /// [`QueryVis::raw_diagram`].
    raw: OnceLock<Diagram>,
    /// Lazily built composed scene shared by every geometric render —
    /// see [`QueryVis::scene`].
    scene: OnceLock<Arc<Scene>>,
}

/// The front half of the pipeline — parsed, lowered, and translated, but
/// with no diagram built yet. Produced by [`QueryVis::prepare`].
///
/// Splitting the pipeline here is what makes pattern-keyed caching work:
/// the canonical pattern (and therefore a cache key) is available from the
/// logic trees alone, while diagram construction, layout, and rendering —
/// the expensive stages — can be skipped entirely on a cache hit.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// Original SQL text.
    pub sql: String,
    /// The parsed top-level expression (original, before OR lowering).
    pub expr: QueryExpr,
    /// First lowered branch's AST (the whole query when single-block).
    pub query: Query,
    /// First branch's logic tree straight from translation (all ∃/∄).
    pub logic_tree: LogicTree,
    /// Lowered branches beyond the first: (OR-free AST, logic tree).
    pub rest: Vec<(Query, LogicTree)>,
    /// True when the branches combine under `UNION ALL`.
    pub union_all: bool,
    options: Arc<QueryVisOptions>,
}

impl PreparedQuery {
    /// The options this query was prepared with (shared, not cloned).
    pub fn options(&self) -> &Arc<QueryVisOptions> {
        &self.options
    }

    /// All branch logic trees, first branch first.
    pub fn trees(&self) -> Vec<&LogicTree> {
        std::iter::once(&self.logic_tree)
            .chain(self.rest.iter().map(|(_, tree)| tree))
            .collect()
    }

    /// Number of lowered branches (1 for every single-block query).
    pub fn branch_count(&self) -> usize {
        1 + self.rest.len()
    }

    /// The canonical pattern key (App. G): equal keys ⟺ same visual
    /// pattern. This id-based token stream is what the serving layer
    /// fingerprints — no canonical string is built on the hot path.
    /// Union/OR branches are order-canonicalized inside the key.
    pub fn pattern_key(&self) -> PatternKey {
        PatternKey::of_branches(&self.trees(), self.union_all)
    }

    /// Canonicalize into a caller-owned token buffer (cleared first) — the
    /// serving layer's per-request fingerprinting path.
    pub fn pattern_tokens_into(&self, tokens: &mut Vec<u32>) {
        PatternKey::of_branches_into(&self.trees(), self.union_all, tokens);
    }

    /// The canonical logical pattern (App. G) rendered as a string: equal
    /// strings ⟺ same visual pattern.
    pub fn pattern(&self) -> String {
        self.pattern_key().render()
    }

    /// The §4.8 word count of the canonical rendering of the *original*
    /// expression (OR lowering does not inflate it).
    pub fn sql_word_count(&self) -> usize {
        word_count_expr(&self.expr)
    }

    /// Run the back half of the pipeline: simplification and diagram
    /// construction, per branch. Infallible — every error the fragment can
    /// produce is already surfaced by [`QueryVis::prepare`].
    pub fn complete(self) -> QueryVis {
        let _span = STAGE_DIAGRAM.span();
        let PreparedQuery {
            sql,
            expr,
            query,
            logic_tree,
            rest,
            union_all,
            options,
        } = self;
        let compile_branch = |logic_tree: &LogicTree| {
            let mut simplified = logic_tree.clone();
            {
                let _span = PASS_SIMPLIFY.span();
                simplify_in_place(&mut simplified);
            }
            let diagram = if options.no_simplify {
                build_diagram(logic_tree)
            } else {
                build_diagram(&simplified)
            };
            (simplified, diagram)
        };
        let (simplified, diagram) = compile_branch(&logic_tree);
        let raw = OnceLock::new();
        if options.no_simplify {
            // The rendered diagram *is* the raw diagram; seed the lazy slot
            // so `raw_diagram()` never rebuilds it.
            let _ = raw.set(diagram.clone());
        }
        let rest = rest
            .into_iter()
            .map(|(query, logic_tree)| {
                let (simplified, diagram) = compile_branch(&logic_tree);
                UnionBranch {
                    query,
                    logic_tree,
                    simplified,
                    diagram,
                }
            })
            .collect();
        QueryVis {
            sql,
            expr,
            query,
            logic_tree,
            simplified,
            diagram,
            rest,
            union_all,
            raw,
            scene: OnceLock::new(),
        }
    }
}

impl QueryVis {
    /// Run the pipeline with default options (no schema, lenient,
    /// simplification on).
    pub fn from_sql(sql: &str) -> Result<QueryVis, QueryVisError> {
        QueryVis::with_options(sql, QueryVisOptions::default())
    }

    /// Run the pipeline with schema validation.
    pub fn with_schema(sql: &str, schema: &Schema) -> Result<QueryVis, QueryVisError> {
        QueryVis::with_options(
            sql,
            QueryVisOptions {
                schema: Some(schema.clone()),
                ..QueryVisOptions::default()
            },
        )
    }

    /// Run the pipeline with explicit options.
    pub fn with_options(sql: &str, options: QueryVisOptions) -> Result<QueryVis, QueryVisError> {
        Ok(QueryVis::prepare(sql, options)?.complete())
    }

    /// Run only the cheap front half of the pipeline: parse, schema check,
    /// translation, and (in strict mode) degeneracy validation. The result
    /// carries everything needed to compute the canonical pattern, so a
    /// caching layer can decide whether the expensive back half (diagram
    /// construction, layout, rendering) is needed at all — see
    /// [`PreparedQuery::complete`].
    ///
    /// Accepts either owned options or a shared `Arc<QueryVisOptions>`;
    /// long-running callers (the service) pass the `Arc` so the per-request
    /// front half never deep-clones a configured schema.
    pub fn prepare(
        sql: &str,
        options: impl Into<Arc<QueryVisOptions>>,
    ) -> Result<PreparedQuery, QueryVisError> {
        let options = options.into();
        let expr = parse_query_expr(sql)?;
        QueryVis::prepare_parsed(sql, expr, options)
    }

    /// [`QueryVis::prepare`] starting from an already-parsed expression:
    /// the schema check, OR lowering, translation and (in strict mode)
    /// degeneracy validation, byte-for-byte as `prepare` runs them.
    pub fn prepare_parsed(
        sql: &str,
        expr: QueryExpr,
        options: impl Into<Arc<QueryVisOptions>>,
    ) -> Result<PreparedQuery, QueryVisError> {
        let options = options.into();
        if let Some(schema) = &options.schema {
            schema
                .check_query_expr(&expr)
                .map_err(QueryVisError::Semantic)?;
        }
        // Lower each written UNION branch (negative-polarity ORs become
        // sibling ∄-groups in place; positive-polarity ORs split into
        // further branches) and translate every resulting conjunctive
        // query into its own logic tree, keeping AST and tree paired.
        let _span = STAGE_LOWER.span();
        let mut branches: Vec<(Query, LogicTree)> = Vec::with_capacity(expr.branches.len());
        for written in &expr.branches {
            if queryvis_logic::has_disjunction(written) {
                for lowered in queryvis_logic::lower_disjunctions(written)? {
                    let tree = queryvis_logic::translate(&lowered, options.schema.as_ref())?;
                    branches.push((lowered, tree));
                }
            } else {
                let tree = queryvis_logic::translate(written, options.schema.as_ref())?;
                branches.push((written.clone(), tree));
            }
        }
        if branches.len() > MAX_QUERY_BRANCHES {
            return Err(QueryVisError::Translate(
                TranslateError::DisjunctionTooWide {
                    branches: branches.len(),
                },
            ));
        }
        if options.strict {
            // Non-degeneracy (Properties 5.1/5.2) plus the depth ≤ 3
            // bound, on every branch.
            for (_, tree) in &branches {
                check_valid_diagram_source(tree).map_err(QueryVisError::Degenerate)?;
            }
        }
        let union_all = expr.all;
        let mut iter = branches.into_iter();
        let (query, logic_tree) = iter.next().expect("at least one branch");
        Ok(PreparedQuery {
            sql: sql.to_string(),
            expr,
            query,
            logic_tree,
            rest: iter.collect(),
            union_all,
            options,
        })
    }

    /// True when the query compiled to more than one diagram (a written
    /// `UNION` or a positive-polarity OR split).
    pub fn is_union(&self) -> bool {
        !self.rest.is_empty()
    }

    /// All branch diagrams, first branch first.
    pub fn diagrams(&self) -> Vec<&Diagram> {
        std::iter::once(&self.diagram)
            .chain(self.rest.iter().map(|b| &b.diagram))
            .collect()
    }

    /// All branch logic trees (unsimplified), first branch first.
    pub fn trees(&self) -> Vec<&LogicTree> {
        std::iter::once(&self.logic_tree)
            .chain(self.rest.iter().map(|b| &b.logic_tree))
            .collect()
    }

    /// The diagram of the first branch's unsimplified tree (Fig. 2b form)
    /// — the input to the inverse mapping (App. B). Built lazily on first
    /// access: the serving hot path only renders [`QueryVis::diagram`], so
    /// cache-miss compiles skip this second diagram construction entirely.
    pub fn raw_diagram(&self) -> &Diagram {
        self.raw.get_or_init(|| build_diagram(&self.logic_tree))
    }

    /// Lay out the first branch's diagram (deterministic).
    pub fn layout(&self) -> Layout {
        layout_diagram(&self.diagram)
    }

    /// Resolve each branch into its own single-branch [`Scene`] (layout +
    /// mark resolution, no union composition).
    pub fn scenes(&self) -> Vec<Scene> {
        self.diagrams()
            .iter()
            .map(|d| build_scene(d, &layout_diagram(d)))
            .collect()
    }

    /// The fully composed scene of the whole query: every branch laid
    /// out, resolved into marks, and union-stacked — the single input
    /// every geometric backend renders from. Built lazily on first
    /// access and memoized, so an `ascii()`-then-`svg()` caller (or a
    /// serving layer rendering three formats) runs `layout_diagram`
    /// exactly once per branch.
    pub fn scene(&self) -> Arc<Scene> {
        Arc::clone(self.scene.get_or_init(|| {
            let _span = STAGE_SCENE.span();
            Arc::new(compose_union(self.scenes(), self.union_all))
        }))
    }

    /// Render to a standalone SVG document (union branches stack
    /// vertically under a union badge).
    pub fn svg(&self) -> String {
        to_svg(&self.scene(), &SvgTheme::default())
    }

    /// Export to GraphViz DOT (union branches become labeled clusters).
    pub fn dot(&self) -> String {
        to_dot_union(&self.diagrams(), self.union_all)
    }

    /// Render to plain text (union branches separated by a badge line).
    pub fn ascii(&self) -> String {
        to_ascii(&self.scene())
    }

    /// The natural-language reading along the default reading order (§4.6);
    /// union branches read in sequence, joined by the connective.
    pub fn reading(&self) -> String {
        let readings: Vec<String> = self.diagrams().iter().map(|d| render_reading(d)).collect();
        let connective = if self.union_all {
            "\nUNION ALL\n"
        } else {
            "\nUNION\n"
        };
        readings.join(connective)
    }

    /// The tuple-relational-calculus form (Fig. 9); union branches join
    /// with `∪`.
    pub fn trc(&self) -> String {
        let forms: Vec<String> = self.trees().iter().map(|t| to_trc(t)).collect();
        forms.join(" \u{222A} ")
    }

    /// Mark/channel statistics of the rendered diagram(s) (§4.8) — summed
    /// across union branches.
    pub fn stats(&self) -> DiagramStats {
        self.diagrams()
            .iter()
            .map(|d| diagram_stats(d))
            .reduce(|a, b| a.combine(&b))
            .expect("at least one diagram")
    }

    /// The canonical logical pattern of this query (App. G): equal strings
    /// ⟺ same visual pattern, across schemas (union branches
    /// order-canonicalized).
    pub fn pattern(&self) -> String {
        crate::pattern::canonical_pattern_branches(&self.trees(), self.union_all)
    }

    /// Whether the query is non-degenerate (Properties 5.1/5.2) — every
    /// branch must pass.
    pub fn check_non_degenerate(&self) -> Result<(), DegeneracyError> {
        for tree in self.trees() {
            check_non_degenerate(tree)?;
        }
        Ok(())
    }

    /// Whether the diagram is *provably unambiguous* (non-degenerate and
    /// nesting depth ≤ 3, §5.2) — every branch must pass.
    pub fn check_unambiguous(&self) -> Result<(), DegeneracyError> {
        for tree in self.trees() {
            check_valid_diagram_source(tree)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use queryvis_corpus::{beers_schema, chinook_schema, study_questions, unique_set_sql};

    #[test]
    fn pipeline_end_to_end_on_unique_set() {
        let qv = QueryVis::with_schema(unique_set_sql(), &beers_schema()).unwrap();
        assert_eq!(qv.logic_tree.node_count(), 6);
        assert_eq!(qv.diagram.tables.len(), 7);
        assert!(qv.svg().contains("</svg>"));
        assert!(qv.dot().starts_with("digraph"));
        assert!(qv.ascii().contains("Likes"));
        assert!(qv.reading().starts_with("Return"));
        assert!(qv.trc().starts_with("{Q("));
        qv.check_unambiguous().unwrap();
    }

    #[test]
    fn pipeline_runs_on_every_study_question() {
        let schema = chinook_schema();
        for q in study_questions() {
            let qv =
                QueryVis::with_schema(q.sql, &schema).unwrap_or_else(|e| panic!("{}: {e}", q.id));
            assert!(qv.stats().visual_elements() > 0);
            assert!(qv.svg().contains("</svg>"), "{}", q.id);
        }
    }

    #[test]
    fn strict_mode_rejects_degenerate_queries() {
        let sql = "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
                   (SELECT * FROM Serves S WHERE S.bar = F.bar AND F.bar = 'Owl')";
        // Lenient: builds a diagram anyway.
        QueryVis::from_sql(sql).unwrap();
        // Strict: refuses.
        let err = QueryVis::with_options(
            sql,
            QueryVisOptions {
                strict: true,
                ..QueryVisOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, QueryVisError::Degenerate(_)));
    }

    #[test]
    fn no_simplify_keeps_dashed_boxes() {
        let sql = "SELECT F.person FROM Frequents F WHERE NOT EXISTS \
                   (SELECT * FROM Serves S WHERE S.bar = F.bar AND NOT EXISTS \
                   (SELECT * FROM Likes L WHERE L.person = F.person AND S.drink = L.drink))";
        let simplified = QueryVis::from_sql(sql).unwrap();
        assert_eq!(simplified.diagram.boxes.len(), 1); // one ∀ box
        let raw = QueryVis::with_options(
            sql,
            QueryVisOptions {
                no_simplify: true,
                ..QueryVisOptions::default()
            },
        )
        .unwrap();
        assert_eq!(raw.diagram.boxes.len(), 2); // two ∄ boxes
    }

    #[test]
    fn scene_is_memoized_across_renders() {
        let qv = QueryVis::from_sql(
            "SELECT F.person FROM Frequents F WHERE F.bar = 'Owl' \
             UNION SELECT L.person FROM Likes L",
        )
        .unwrap();
        // ascii() and svg() share the composed scene: the second render
        // (and any direct scene() call) gets the same Arc, so layout runs
        // once per branch for the whole QueryVis lifetime.
        let first = Arc::as_ptr(&qv.scene());
        let _ = qv.ascii();
        let _ = qv.svg();
        assert_eq!(first, Arc::as_ptr(&qv.scene()), "scene was rebuilt");
    }

    #[test]
    fn parse_errors_surface() {
        let err = QueryVis::from_sql("SELECT FROM").unwrap_err();
        assert!(matches!(err, QueryVisError::Parse(_)));
        let err = QueryVis::with_schema("SELECT X.a FROM Xyz X", &beers_schema()).unwrap_err();
        assert!(matches!(err, QueryVisError::Semantic(_)));
    }
}
