//! Recursive-descent parser for the (widened) QueryVis SQL fragment.
//!
//! The core grammar is a direct transcription of the paper's Figure 4 (see
//! the crate docs), widened with four constructs (ISSUE 4):
//!
//! * `JOIN … ON` — inner joins, desugared at parse time into the FROM list
//!   plus WHERE conjuncts (the AST never records join syntax);
//! * `OR` — disjunctions with standard precedence (`AND` binds tighter),
//!   plus parenthesized boolean groups; represented as [`Predicate::Or`]
//!   and lowered before translation;
//! * `HAVING` — post-grouping predicates comparing an aggregate to a
//!   constant;
//! * top-level `UNION [ALL]` — parsed by [`parse_query_expr`] into a
//!   multi-branch [`QueryExpr`].
//!
//! Constructs that remain outside the fragment (`OUTER`/`CROSS` joins,
//! `DISTINCT`, `ORDER BY`, `UNION` in subqueries, …) are rejected with
//! targeted, spanned error messages instead of a generic
//! "unexpected token".
//!
//! Names go into a [`Names`] table: [`parse_query_expr`] makes one and
//! returns it inside the [`QueryExpr`], which owns it from then on;
//! [`parse_query`] interns into a table the caller passes, so several
//! parses can share one when their symbols must compare.

use crate::ast::*;
use crate::error::ParseError;
use crate::lexer::tokenize_into;
use crate::token::{Keyword, Span, Token, TokenKind};
use queryvis_ir::{Named, Names, Symbol};
use queryvis_telemetry::StageDef;
use std::cell::RefCell;

/// Telemetry stages for the SQL front end (see DESIGN.md §6): inert single
/// branches unless the process enables telemetry.
static STAGE_LEX: StageDef = StageDef::new("stage.lex");
static STAGE_PARSE: StageDef = StageDef::new("stage.parse");

thread_local! {
    /// Per-thread token scratch: the parser borrows the token stream, so
    /// every `parse_query` call on a thread reuses one buffer instead of
    /// allocating a fresh `Vec<Token>` per query. Sized by the largest
    /// query the thread has seen, which plateaus immediately on serving
    /// workloads.
    static TOKEN_SCRATCH: RefCell<Vec<Token>> = const { RefCell::new(Vec::new()) };
}

/// Parse a single query (optionally terminated by `;`) into an AST,
/// interning its names into `names`.
///
/// Top-level `UNION` is rejected here with a pointer at
/// [`parse_query_expr`], which the diagram pipeline uses; every other
/// widened construct (`JOIN … ON`, `OR`, `HAVING`) parses.
pub fn parse_query(source: &str, names: &mut Names) -> Result<Query, ParseError> {
    with_scratch(|scratch| {
        tokenize_into(source, names, scratch)?;
        let mut parser = Parser::new(scratch, source, names);
        let query = parser.query_block()?;
        if matches!(parser.peek_kind(), TokenKind::Keyword(Keyword::Union)) {
            return Err(parser.err_here(
                "top-level `UNION` is supported through the query-expression entry \
                 points (`parse_query_expr` / the diagram pipeline), not `parse_query`",
            ));
        }
        parser.finish()?;
        Ok(query)
    })
}

/// Parse a full query expression — a query block or a top-level
/// `UNION [ALL]` chain of blocks — into an expression that owns the name
/// table its symbols resolve through.
pub fn parse_query_expr(source: &str) -> Result<QueryExpr, ParseError> {
    let mut names = Names::new();
    let (branches, all) = with_scratch(|scratch| {
        {
            let _span = STAGE_LEX.span();
            tokenize_into(source, &mut names, scratch)?;
        }
        let _span = STAGE_PARSE.span();
        let mut parser = Parser::new(scratch, source, &names);
        let branches_all = parser.query_expr()?;
        parser.finish()?;
        Ok::<_, ParseError>(branches_all)
    })?;
    Ok(QueryExpr {
        branches,
        all,
        names,
    })
}

/// Run `parse` with this thread's token scratch buffer, or with a fresh
/// one on a re-entrant parse (which the pipeline never does, but a caller
/// that nests stays correct).
fn with_scratch<R>(parse: impl FnOnce(&mut Vec<Token>) -> R) -> R {
    TOKEN_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => parse(&mut scratch),
        Err(_) => parse(&mut Vec::new()),
    })
}

/// Maximum combined nesting (subquery blocks + parenthesized predicate
/// groups) the parser accepts. The recursive-descent parser — and every
/// recursive stage downstream of it (translation, simplification, pattern
/// canonicalization, diagram build) — consumes stack proportional to
/// nesting depth, so without a bound a hostile request like
/// `WHERE (((((…)))))` overflows the stack and *aborts* the process (an
/// abort, not an unwind — `catch_unwind` cannot contain it). The paper
/// corpus tops out at depth 3; 64 leaves two orders of magnitude of
/// headroom while keeping worst-case stack use in the tens of kilobytes.
pub const MAX_NESTING_DEPTH: usize = 64;

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    source: &'a str,
    names: &'a Names,
    /// Bindings in scope, outermost first: each query block pushes its
    /// FROM bindings as they are parsed (so `JOIN … ON` sees exactly the
    /// tables introduced *before* it, plus every enclosing block's) and
    /// truncates back on exit.
    scope: Vec<Symbol>,
    /// Current recursion depth (see [`MAX_NESTING_DEPTH`]).
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(tokens: &'a [Token], source: &'a str, names: &'a Names) -> Self {
        Parser {
            tokens,
            pos: 0,
            source,
            names,
            scope: Vec::new(),
            depth: 0,
        }
    }

    /// An optional `;`, then the end of input.
    fn finish(&mut self) -> Result<(), ParseError> {
        self.eat_if(&TokenKind::Semicolon);
        self.expect_eof()
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    /// The current token, written for an error message.
    fn found(&self) -> Named<'_, TokenKind> {
        self.names.show(self.peek_kind())
    }

    fn peek2_kind(&self) -> &TokenKind {
        let i = (self.pos + 1).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn advance(&mut self) -> Token {
        let tok = self.tokens[self.pos];
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        tok
    }

    fn err(&self, message: impl Into<String>, span: Span) -> ParseError {
        ParseError::new(message, span, self.source)
    }

    fn err_here(&self, message: impl Into<String>) -> ParseError {
        self.err(message, self.peek().span)
    }

    /// Enter one nesting level (subquery block or parenthesized predicate
    /// group), rejecting the query once [`MAX_NESTING_DEPTH`] is reached.
    /// Callers decrement `self.depth` on their success path; error paths
    /// abandon the parser wholesale, so an unmatched increment there is
    /// harmless.
    fn descend(&mut self) -> Result<(), ParseError> {
        if self.depth >= MAX_NESTING_DEPTH {
            return Err(self.err_here(format!(
                "query nesting exceeds the supported depth ({MAX_NESTING_DEPTH})"
            )));
        }
        self.depth += 1;
        Ok(())
    }

    fn eat_if(&mut self, kind: &TokenKind) -> bool {
        if self.peek_kind() == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, kw: Keyword) -> bool {
        if matches!(self.peek_kind(), TokenKind::Keyword(k) if *k == kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: Keyword) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err_here(format!(
                "expected `{}`, found `{}`",
                kw.as_str(),
                self.found()
            )))
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<(), ParseError> {
        if self.eat_if(&kind) {
            Ok(())
        } else {
            Err(self.err_here(format!(
                "expected `{}`, found `{}`",
                self.names.show(&kind),
                self.found()
            )))
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        match self.peek_kind() {
            TokenKind::Eof => Ok(()),
            _ => Err(self.err_here(format!("unexpected trailing input `{}`", self.found()))),
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<Symbol, ParseError> {
        match *self.peek_kind() {
            TokenKind::Ident(name) => {
                self.advance();
                Ok(name)
            }
            _ => Err(self.err_here(format!("expected {what}, found `{}`", self.found()))),
        }
    }

    /// Reject unsupported keywords with a message pointing at the fragment.
    fn check_unsupported(&self) -> Result<(), ParseError> {
        let unsupported = match self.peek_kind() {
            TokenKind::Keyword(Keyword::Distinct) => {
                Some("`DISTINCT` is outside the supported fragment (set semantics are implied)")
            }
            TokenKind::Keyword(Keyword::OrderKw) => {
                Some("`ORDER BY` is outside the supported fragment")
            }
            _ => None,
        };
        match unsupported {
            Some(msg) => Err(self.err_here(msg)),
            None => Ok(()),
        }
    }

    // E ::= Q [UNION [ALL] Q ...]
    /// The branches and whether they combine under `UNION ALL`.
    fn query_expr(&mut self) -> Result<(Vec<Query>, bool), ParseError> {
        let mut branches = vec![self.query_block()?];
        let mut all: Option<bool> = None;
        while matches!(self.peek_kind(), TokenKind::Keyword(Keyword::Union)) {
            let union_span = self.peek().span;
            self.advance();
            let this_all = self.eat_keyword(Keyword::All);
            match all {
                None => all = Some(this_all),
                Some(prev) if prev != this_all => {
                    return Err(self.err(
                        "mixing `UNION` and `UNION ALL` in one query is outside \
                         the supported fragment",
                        union_span,
                    ))
                }
                Some(_) => {}
            }
            branches.push(self.query_block()?);
        }
        Ok((branches, all.unwrap_or(false)))
    }

    // Q ::= SELECT ... FROM ... [WHERE ...] [GROUP BY ... [HAVING ...]]
    fn query_block(&mut self) -> Result<Query, ParseError> {
        // This block's FROM bindings live on the scope stack only while
        // the block (subqueries included) is being parsed.
        self.descend()?;
        let scope_mark = self.scope.len();
        let result = self.query_block_scoped();
        self.scope.truncate(scope_mark);
        self.depth -= 1;
        result
    }

    fn query_block_scoped(&mut self) -> Result<Query, ParseError> {
        self.expect_keyword(Keyword::Select)?;
        self.check_unsupported()?;
        let select = self.select_list()?;
        self.expect_keyword(Keyword::From)?;
        let (from, on_predicates) = self.table_refs()?;
        let mut query = Query::new(select, from);
        // `JOIN … ON` conditions desugar to leading WHERE conjuncts.
        query.where_clause = on_predicates;
        if self.eat_keyword(Keyword::Where) {
            let mut where_preds = self.disjunction()?;
            query.where_clause.append(&mut where_preds);
        }
        if self.eat_keyword(Keyword::Group) {
            self.expect_keyword(Keyword::By)?;
            loop {
                query.group_by.push(self.column_ref()?);
                if !self.eat_if(&TokenKind::Comma) {
                    break;
                }
            }
            if self.eat_keyword(Keyword::Having) {
                query.having = self.having_predicates()?;
            }
        } else if matches!(self.peek_kind(), TokenKind::Keyword(Keyword::Having)) {
            return Err(
                self.err_here("`HAVING` without `GROUP BY` is outside the supported fragment")
            );
        }
        self.check_unsupported()?;
        Ok(query)
    }

    fn select_list(&mut self) -> Result<SelectList, ParseError> {
        if self.eat_if(&TokenKind::Star) {
            return Ok(SelectList::Star);
        }
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if !self.eat_if(&TokenKind::Comma) {
                break;
            }
        }
        Ok(SelectList::Items(items))
    }

    /// The aggregate function named by the current token, if any.
    fn peek_agg_func(&self) -> Option<AggFunc> {
        match self.peek_kind() {
            TokenKind::Keyword(Keyword::Count) => Some(AggFunc::Count),
            TokenKind::Keyword(Keyword::Sum) => Some(AggFunc::Sum),
            TokenKind::Keyword(Keyword::Avg) => Some(AggFunc::Avg),
            TokenKind::Keyword(Keyword::Min) => Some(AggFunc::Min),
            TokenKind::Keyword(Keyword::Max) => Some(AggFunc::Max),
            _ => None,
        }
    }

    /// `AGG([T.]A)` or `AGG(*)`, with the function keyword already peeked.
    fn agg_call(&mut self, func: AggFunc) -> Result<AggCall, ParseError> {
        self.advance();
        self.expect(TokenKind::LParen)?;
        let arg = if self.eat_if(&TokenKind::Star) {
            None
        } else {
            Some(self.column_ref()?)
        };
        self.expect(TokenKind::RParen)?;
        Ok(AggCall { func, arg })
    }

    fn select_item(&mut self) -> Result<SelectItem, ParseError> {
        if let Some(func) = self.peek_agg_func() {
            return Ok(SelectItem::Aggregate(self.agg_call(func)?));
        }
        Ok(SelectItem::Column(self.column_ref()?))
    }

    /// The HAVING clause: `AGG(...) O V [AND ...]` — aggregates compared
    /// against constants, conjunction only.
    fn having_predicates(&mut self) -> Result<Vec<HavingPredicate>, ParseError> {
        let mut preds = Vec::new();
        loop {
            let Some(func) = self.peek_agg_func() else {
                return Err(self.err_here(
                    "HAVING predicates must start with an aggregate \
                     (COUNT/SUM/AVG/MIN/MAX) in this fragment",
                ));
            };
            let agg = self.agg_call(func)?;
            let op = self.compare_op()?;
            let value = match *self.peek_kind() {
                TokenKind::Number(n) => {
                    self.advance();
                    Value::Number(n)
                }
                TokenKind::Str(s) => {
                    self.advance();
                    Value::Str(s)
                }
                _ => {
                    return Err(self
                        .err_here("HAVING compares an aggregate to a constant in this fragment"))
                }
            };
            preds.push(HavingPredicate { agg, op, value });
            if matches!(self.peek_kind(), TokenKind::Keyword(Keyword::Or)) {
                return Err(self.err_here("`OR` in HAVING is outside the supported fragment"));
            }
            if !self.eat_keyword(Keyword::And) {
                break;
            }
        }
        Ok(preds)
    }

    /// `T [[AS] alias]` — one FROM-clause table reference.
    fn table_ref(&mut self) -> Result<TableRef, ParseError> {
        let table = self.expect_ident("a table name")?;
        let alias = if self.eat_keyword(Keyword::As) {
            Some(self.expect_ident("an alias after AS")?)
        } else if let TokenKind::Ident(name) = *self.peek_kind() {
            self.advance();
            Some(name)
        } else {
            None
        };
        Ok(TableRef { table, alias })
    }

    /// Reject the join flavors outside the fragment with targeted errors.
    fn check_unsupported_join(&self) -> Result<(), ParseError> {
        let message = match self.peek_kind() {
            TokenKind::Keyword(Keyword::Left | Keyword::Right | Keyword::Full) => Some(
                "outer joins (`LEFT`/`RIGHT`/`FULL [OUTER] JOIN`) are outside the \
                 supported fragment; only inner `JOIN … ON` desugars into it",
            ),
            TokenKind::Keyword(Keyword::Outer) => Some(
                "`OUTER JOIN` is outside the supported fragment; only inner \
                 `JOIN … ON` desugars into it",
            ),
            TokenKind::Keyword(Keyword::Cross) => Some(
                "`CROSS JOIN` is outside the supported fragment; list the tables \
                 in the FROM clause instead",
            ),
            _ => None,
        };
        match message {
            Some(msg) => Err(self.err_here(msg)),
            None => Ok(()),
        }
    }

    /// The FROM clause: comma-separated table references, each optionally
    /// followed by a chain of `[INNER] JOIN T ON cond [AND cond ...]`.
    /// Inner joins desugar on the spot: the joined table lands in the FROM
    /// list and the ON conjuncts are returned for the WHERE clause.
    fn table_refs(&mut self) -> Result<(Vec<TableRef>, Vec<Predicate>), ParseError> {
        let mut refs = Vec::new();
        let mut on_predicates = Vec::new();
        loop {
            let table_ref = self.table_ref()?;
            self.scope.push(table_ref.binding());
            refs.push(table_ref);
            loop {
                self.check_unsupported_join()?;
                if self.eat_keyword(Keyword::Inner) {
                    self.expect_keyword(Keyword::Join)?;
                } else if !self.eat_keyword(Keyword::Join) {
                    break;
                }
                let table_ref = self.table_ref()?;
                self.scope.push(table_ref.binding());
                refs.push(table_ref);
                self.expect_keyword(Keyword::On)?;
                on_predicates.append(&mut self.join_on_conjunction()?);
            }
            if !self.eat_if(&TokenKind::Comma) {
                break;
            }
        }
        Ok((refs, on_predicates))
    }

    /// The condition of a `JOIN … ON`: a conjunction of comparison
    /// predicates (subqueries and disjunctions stay WHERE-only). Unlike
    /// WHERE — which the desugaring folds these conjuncts into — ON sees
    /// only the bindings introduced *up to this point* (this block's
    /// earlier FROM entries plus enclosing blocks), matching real SQL
    /// scoping; a forward reference into the rest of the FROM list is a
    /// spanned error here, not a silently accepted diagram.
    fn join_on_conjunction(&mut self) -> Result<Vec<Predicate>, ParseError> {
        let mut preds = Vec::new();
        loop {
            if matches!(
                self.peek_kind(),
                TokenKind::Keyword(Keyword::Not | Keyword::Exists) | TokenKind::LParen
            ) {
                return Err(self.err_here(
                    "only comparison predicates are supported in `JOIN … ON`; \
                     put subqueries and groups in the WHERE clause",
                ));
            }
            let pred_span = self.peek().span;
            let pred = self.comparison_like()?;
            self.check_on_scope(&pred, pred_span)?;
            preds.push(pred);
            if matches!(self.peek_kind(), TokenKind::Keyword(Keyword::Or)) {
                return Err(self.err_here(
                    "`OR` in `JOIN … ON` is outside the supported fragment; \
                     move the disjunction into the WHERE clause",
                ));
            }
            if !self.eat_keyword(Keyword::And) {
                break;
            }
        }
        Ok(preds)
    }

    /// Qualified columns in an ON condition must name a binding already in
    /// scope (case-insensitively, matching the translator's resolution).
    /// Unqualified columns resolve against the schema later and are not
    /// checked here.
    fn check_on_scope(&self, pred: &Predicate, span: Span) -> Result<(), ParseError> {
        let Predicate::Compare { lhs, rhs, .. } = pred else {
            return Ok(());
        };
        for operand in [lhs, rhs] {
            let Operand::Column(column) = operand else {
                continue;
            };
            let Some(qualifier) = column.table else {
                continue;
            };
            let qualifier_text = self.names.resolve(qualifier);
            let known = self.scope.iter().any(|binding| {
                *binding == qualifier
                    || self
                        .names
                        .resolve(*binding)
                        .eq_ignore_ascii_case(qualifier_text)
            });
            if !known {
                return Err(self.err(
                    format!(
                        "`{qualifier_text}` is not in scope in this `JOIN … ON` \
                         condition; ON may only reference tables introduced \
                         earlier in the FROM clause (or an enclosing block)"
                    ),
                    span,
                ));
            }
        }
        Ok(())
    }

    /// A WHERE clause: `conjunction (OR conjunction)*` with standard
    /// precedence. A single branch yields the plain conjunction; several
    /// branches yield one [`Predicate::Or`] conjunct.
    fn disjunction(&mut self) -> Result<Vec<Predicate>, ParseError> {
        let mut branches = vec![self.conjunction()?];
        while self.eat_keyword(Keyword::Or) {
            branches.push(self.conjunction()?);
        }
        if branches.len() == 1 {
            Ok(branches.pop().expect("one branch"))
        } else {
            Ok(vec![Predicate::Or(branches)])
        }
    }

    fn conjunction(&mut self) -> Result<Vec<Predicate>, ParseError> {
        let mut preds = vec![self.predicate()?];
        loop {
            self.check_unsupported()?;
            if !self.eat_keyword(Keyword::And) {
                break;
            }
            preds.push(self.predicate()?);
        }
        Ok(preds)
    }

    fn predicate(&mut self) -> Result<Predicate, ParseError> {
        self.check_unsupported()?;
        // A parenthesized boolean group `(P AND P OR P ...)` — anything but
        // a subquery opener after `(`.
        if matches!(self.peek_kind(), TokenKind::LParen)
            && !matches!(self.peek2_kind(), TokenKind::Keyword(Keyword::Select))
        {
            self.descend()?;
            self.advance();
            let mut branches = vec![self.conjunction()?];
            while self.eat_keyword(Keyword::Or) {
                branches.push(self.conjunction()?);
            }
            self.expect(TokenKind::RParen)?;
            self.depth -= 1;
            if branches.len() == 1 && branches[0].len() == 1 {
                return Ok(branches.pop().expect("one branch").pop().expect("one pred"));
            }
            return Ok(Predicate::Or(branches));
        }
        // `NOT EXISTS (Q)` or a leading `NOT` on IN / ANY / ALL forms.
        if matches!(self.peek_kind(), TokenKind::Keyword(Keyword::Not)) {
            let not_span = self.peek().span;
            self.advance();
            if self.eat_keyword(Keyword::Exists) {
                let query = self.subquery()?;
                return Ok(Predicate::Exists {
                    negated: true,
                    query,
                });
            }
            // e.g. `NOT S.sid = ANY (Q)` — Fig. 24 third variant.
            let inner = self.comparison_like()?;
            return match inner {
                Predicate::InSubquery {
                    column,
                    negated,
                    query,
                } => Ok(Predicate::InSubquery {
                    column,
                    negated: !negated,
                    query,
                }),
                Predicate::Quantified {
                    column,
                    op,
                    quantifier,
                    negated,
                    query,
                } => Ok(Predicate::Quantified {
                    column,
                    op,
                    quantifier,
                    negated: !negated,
                    query,
                }),
                Predicate::Compare { .. } | Predicate::Exists { .. } | Predicate::Or(_) => {
                    Err(self.err(
                        "`NOT` may only prefix EXISTS, IN, or ANY/ALL predicates in this fragment",
                        not_span,
                    ))
                }
            };
        }
        if self.eat_keyword(Keyword::Exists) {
            let query = self.subquery()?;
            return Ok(Predicate::Exists {
                negated: false,
                query,
            });
        }
        self.comparison_like()
    }

    /// `C O C` | `C O V` | `V O C` | `C [NOT] IN (Q)` | `C O {ANY|ALL} (Q)`.
    fn comparison_like(&mut self) -> Result<Predicate, ParseError> {
        let lhs = self.operand()?;
        // `C [NOT] IN (Q)`
        if let Operand::Column(col) = &lhs {
            if matches!(self.peek_kind(), TokenKind::Keyword(Keyword::Not))
                && matches!(self.peek2_kind(), TokenKind::Keyword(Keyword::In))
            {
                self.advance();
                self.advance();
                let query = self.subquery()?;
                return Ok(Predicate::InSubquery {
                    column: *col,
                    negated: true,
                    query,
                });
            }
            if self.eat_keyword(Keyword::In) {
                let query = self.subquery()?;
                return Ok(Predicate::InSubquery {
                    column: *col,
                    negated: false,
                    query,
                });
            }
        }
        let op = self.compare_op()?;
        // `C O ANY (Q)` / `C O ALL (Q)`
        let quantifier = if self.eat_keyword(Keyword::Any) {
            Some(SubqueryQuantifier::Any)
        } else if self.eat_keyword(Keyword::All) {
            Some(SubqueryQuantifier::All)
        } else {
            None
        };
        if let Some(quantifier) = quantifier {
            let column = match lhs {
                Operand::Column(c) => c,
                Operand::Value(_) => {
                    return Err(self
                        .err_here("the left-hand side of an ANY/ALL comparison must be a column"))
                }
            };
            let query = self.subquery()?;
            return Ok(Predicate::Quantified {
                column,
                op,
                quantifier,
                negated: false,
                query,
            });
        }
        let rhs = self.operand()?;
        Ok(Predicate::Compare { lhs, op, rhs })
    }

    fn subquery(&mut self) -> Result<Box<Query>, ParseError> {
        self.expect(TokenKind::LParen)?;
        let query = self.query_block()?;
        if matches!(self.peek_kind(), TokenKind::Keyword(Keyword::Union)) {
            return Err(
                self.err_here("`UNION` is only supported at the top level, not inside subqueries")
            );
        }
        self.expect(TokenKind::RParen)?;
        Ok(Box::new(query))
    }

    fn compare_op(&mut self) -> Result<CompareOp, ParseError> {
        let op = match self.peek_kind() {
            TokenKind::Lt => CompareOp::Lt,
            TokenKind::Le => CompareOp::Le,
            TokenKind::Eq => CompareOp::Eq,
            TokenKind::Ne => CompareOp::Ne,
            TokenKind::Ge => CompareOp::Ge,
            TokenKind::Gt => CompareOp::Gt,
            _ => {
                return Err(self.err_here(format!(
                    "expected a comparison operator (< <= = <> >= >), found `{}`",
                    self.found()
                )))
            }
        };
        self.advance();
        Ok(op)
    }

    fn operand(&mut self) -> Result<Operand, ParseError> {
        match *self.peek_kind() {
            TokenKind::Number(n) => {
                self.advance();
                Ok(Operand::Value(Value::Number(n)))
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(Operand::Value(Value::Str(s)))
            }
            TokenKind::Ident(_) => Ok(Operand::Column(self.column_ref()?)),
            _ => Err(self.err_here(format!(
                "expected a column reference or constant, found `{}`",
                self.found()
            ))),
        }
    }

    fn column_ref(&mut self) -> Result<ColumnRef, ParseError> {
        let first = self.expect_ident("a column reference")?;
        if self.eat_if(&TokenKind::Dot) {
            let column = self.expect_ident("a column name after `.`")?;
            Ok(ColumnRef {
                table: Some(first),
                column,
            })
        } else {
            Ok(ColumnRef {
                table: None,
                column: first,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse into a table of its own, for tests that read no names.
    fn parse(sql: &str) -> Result<Query, ParseError> {
        parse_query(sql, &mut Names::new())
    }

    #[test]
    fn pathological_nesting_errors_instead_of_overflowing() {
        // Regression: 50k nested predicate groups used to recurse the
        // parser (and everything downstream) off the stack — an abort, not
        // an unwind. The depth guard must turn this into a spanned error.
        let depth = 50_000;
        let sql = format!(
            "SELECT T.a FROM T WHERE {}T.a = 1{}",
            "(".repeat(depth),
            ")".repeat(depth)
        );
        let err = parse(&sql).expect_err("deep nesting must be rejected");
        assert!(
            err.to_string().contains("nesting exceeds"),
            "unexpected message: {err}"
        );

        // Deep *subquery* nesting takes the other recursion path
        // (query_block), and must hit the same guard.
        let mut sql = String::from("SELECT T.a FROM T");
        for _ in 0..depth {
            sql.push_str(" WHERE T.a IN (SELECT T.a FROM T");
        }
        sql.push_str(&")".repeat(depth));
        let err = parse(&sql).expect_err("deep subqueries must be rejected");
        assert!(
            err.to_string().contains("nesting exceeds"),
            "unexpected message: {err}"
        );

        // Depth just under the limit still parses.
        let shallow = 16;
        let sql = format!(
            "SELECT T.a FROM T WHERE {}T.a = 1{}",
            "(".repeat(shallow),
            ")".repeat(shallow)
        );
        parse(&sql).expect("shallow nesting stays accepted");
    }

    #[test]
    fn parse_conjunctive_query() {
        let q = parse(
            "SELECT F.person FROM Frequents F, Likes L, Serves S \
             WHERE F.person = L.person AND F.bar = S.bar AND L.drink = S.drink",
        )
        .unwrap();
        assert_eq!(q.from.len(), 3);
        assert_eq!(q.where_clause.len(), 3);
        assert_eq!(q.nesting_depth(), 0);
        assert_eq!(q.join_count(), 3);
    }

    #[test]
    fn parse_qonly_nested() {
        let q = parse(
            "SELECT F.person FROM Frequents F WHERE not exists \
             (SELECT * FROM Serves S WHERE S.bar = F.bar AND not exists \
             (SELECT L.drink FROM Likes L WHERE L.person = F.person AND S.drink = L.drink))",
        )
        .unwrap();
        assert_eq!(q.nesting_depth(), 2);
        assert_eq!(q.block_count(), 3);
        assert_eq!(q.table_ref_count(), 3);
    }

    #[test]
    fn parse_unique_set_query() {
        // Fig. 1a of the paper, depth-3 nesting, 6 aliases of the same table.
        let q = parse(
            "SELECT L1.drinker FROM Likes L1 WHERE NOT EXISTS( \
               SELECT * FROM Likes L2 WHERE L1.drinker <> L2.drinker \
               AND NOT EXISTS( \
                 SELECT * FROM Likes L3 WHERE L3.drinker = L2.drinker \
                 AND NOT EXISTS( \
                   SELECT * FROM Likes L4 WHERE L4.drinker = L1.drinker \
                   AND L4.beer = L3.beer)) \
               AND NOT EXISTS( \
                 SELECT * FROM Likes L5 WHERE L5.drinker = L1.drinker \
                 AND NOT EXISTS( \
                   SELECT * FROM Likes L6 WHERE L6.drinker = L2.drinker \
                   AND L6.beer = L5.beer)))",
        )
        .unwrap();
        assert_eq!(q.nesting_depth(), 3);
        assert_eq!(q.block_count(), 6);
        assert_eq!(q.table_ref_count(), 6);
        assert_eq!(q.join_count(), 7);
    }

    #[test]
    fn parse_in_and_any_variants() {
        // The three semantically equivalent variants of Fig. 24.
        let v2 = parse(
            "SELECT S.sname FROM Sailor S WHERE S.sid NOT IN( \
             SELECT R.sid FROM Reserves R WHERE R.bid NOT IN( \
             SELECT B.bid FROM Boat B WHERE B.color = 'red'))",
        )
        .unwrap();
        assert_eq!(v2.nesting_depth(), 2);
        let v3 = parse(
            "SELECT S.sname FROM Sailor S WHERE NOT S.sid = ANY( \
             SELECT R.sid FROM Reserves R WHERE NOT R.bid = ANY( \
             SELECT B.bid FROM Boat B WHERE B.color = 'red'))",
        )
        .unwrap();
        assert_eq!(v3.nesting_depth(), 2);
        match &v3.where_clause[0] {
            Predicate::Quantified {
                negated,
                quantifier,
                op,
                ..
            } => {
                assert!(*negated);
                assert_eq!(*quantifier, SubqueryQuantifier::Any);
                assert_eq!(*op, CompareOp::Eq);
            }
            other => panic!("expected quantified predicate, got {other:?}"),
        }
    }

    #[test]
    fn parse_all_comparison() {
        let q = parse(
            "SELECT T.TrackId FROM Track T WHERE T.Milliseconds >= ALL \
             (SELECT T2.Milliseconds FROM Track T2)",
        )
        .unwrap();
        match &q.where_clause[0] {
            Predicate::Quantified { quantifier, .. } => {
                assert_eq!(*quantifier, SubqueryQuantifier::All)
            }
            other => panic!("expected quantified predicate, got {other:?}"),
        }
    }

    #[test]
    fn parse_group_by_with_aggregates() {
        let q = parse(
            "SELECT P.PlaylistId, G.Name, COUNT(T.TrackId) \
             FROM Playlist P, PlaylistTrack PT, Track T, Genre G \
             WHERE P.PlaylistId = PT.PlaylistId AND PT.TrackId = T.TrackId \
             AND T.GenreId = G.GenreId GROUP BY P.PlaylistId, G.Name",
        )
        .unwrap();
        assert!(q.uses_grouping());
        assert_eq!(q.group_by.len(), 2);
        assert_eq!(q.select.items().len(), 3);
    }

    #[test]
    fn parse_selection_predicates() {
        let q =
            parse("SELECT T.TrackId FROM Track T WHERE T.UnitPrice > 2 AND T.Name = 'Bohemian'")
                .unwrap();
        assert_eq!(q.where_clause.len(), 2);
        assert_eq!(q.join_count(), 0);
    }

    #[test]
    fn or_parses_with_and_precedence() {
        let q = parse("SELECT t.a FROM t WHERE t.a = 1 AND t.b = 2 OR t.c = 3").unwrap();
        assert_eq!(q.where_clause.len(), 1);
        match &q.where_clause[0] {
            Predicate::Or(branches) => {
                assert_eq!(branches.len(), 2);
                assert_eq!(branches[0].len(), 2, "AND binds tighter than OR");
                assert_eq!(branches[1].len(), 1);
            }
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn parenthesized_group_keeps_or_inside_conjunction() {
        let q = parse("SELECT t.a FROM t WHERE t.a = 1 AND (t.b = 2 OR t.c = 3)").unwrap();
        assert_eq!(q.where_clause.len(), 2);
        assert!(matches!(q.where_clause[0], Predicate::Compare { .. }));
        match &q.where_clause[1] {
            Predicate::Or(branches) => assert_eq!(branches.len(), 2),
            other => panic!("expected Or, got {other:?}"),
        }
        // A redundant single-predicate group is inlined.
        let q = parse("SELECT t.a FROM t WHERE (t.a = 1)").unwrap();
        assert!(matches!(q.where_clause[0], Predicate::Compare { .. }));
    }

    #[test]
    fn join_on_desugars_to_from_and_where() {
        // One table for both, so equal ASTs mean equal names.
        let mut names = Names::new();
        let explicit = parse_query(
            "SELECT F.person FROM Frequents F JOIN Serves S ON F.bar = S.bar \
             WHERE S.drink = 'IPA'",
            &mut names,
        )
        .unwrap();
        let implicit = parse_query(
            "SELECT F.person FROM Frequents F, Serves S \
             WHERE F.bar = S.bar AND S.drink = 'IPA'",
            &mut names,
        )
        .unwrap();
        assert_eq!(
            explicit, implicit,
            "JOIN … ON must desugar to the implicit form"
        );
        // INNER JOIN is the same thing; chains and multi-conjunct ON work.
        let chained = parse(
            "SELECT F.person FROM Frequents F INNER JOIN Serves S ON F.bar = S.bar \
             JOIN Likes L ON L.person = F.person AND L.beer = S.beer",
        )
        .unwrap();
        assert_eq!(chained.from.len(), 3);
        assert_eq!(chained.where_clause.len(), 3);
    }

    #[test]
    fn join_mixes_with_comma_list() {
        let q = parse("SELECT A.x FROM T A JOIN U B ON A.x = B.x, V C WHERE C.y = A.y").unwrap();
        assert_eq!(q.from.len(), 3);
        assert_eq!(q.where_clause.len(), 2);
    }

    #[test]
    fn join_on_scoping_is_left_to_right() {
        // Forward reference into the rest of the FROM list: invalid SQL,
        // must not silently desugar into a valid-looking diagram.
        let err = parse("SELECT A.x FROM T A JOIN U B ON A.x = C.y, V C").unwrap_err();
        assert!(err.message.contains("not in scope"), "{}", err.message);
        assert!(err.message.contains("`C`"), "{}", err.message);
        // A completely unknown binding is rejected the same way.
        let err = parse("SELECT A.x FROM T A JOIN U B ON A.x = Z.y").unwrap_err();
        assert!(err.message.contains("not in scope"), "{}", err.message);
        // ON in a correlated subquery may reference enclosing bindings.
        parse(
            "SELECT F.x FROM T F WHERE EXISTS \
             (SELECT * FROM U B JOIN V C ON B.k = C.k AND C.y = F.x)",
        )
        .unwrap();
        // Alias matching is case-insensitive, like the translator's.
        parse("SELECT A.x FROM T A JOIN U B ON a.x = b.y").unwrap();
    }

    #[test]
    fn reject_outer_and_cross_joins() {
        for (sql, token) in [
            ("SELECT a FROM t LEFT JOIN s ON t.x = s.x", "outer joins"),
            ("SELECT a FROM t RIGHT JOIN s ON t.x = s.x", "outer joins"),
            (
                "SELECT a FROM t FULL OUTER JOIN s ON t.x = s.x",
                "outer joins",
            ),
            ("SELECT a FROM t CROSS JOIN s", "CROSS JOIN"),
        ] {
            let err = parse(sql).unwrap_err();
            assert!(err.message.contains(token), "{sql}: {}", err.message);
        }
    }

    #[test]
    fn having_parses_after_group_by() {
        let q = parse(
            "SELECT T.a, COUNT(T.b) FROM T GROUP BY T.a \
             HAVING COUNT(T.b) > 2 AND MAX(T.c) <= 10",
        )
        .unwrap();
        assert_eq!(q.having.len(), 2);
        assert_eq!(q.having[0].agg.func, AggFunc::Count);
        assert_eq!(q.having[0].op, CompareOp::Gt);
        assert!(q.uses_grouping());
    }

    #[test]
    fn having_requires_group_by_and_aggregates() {
        let err = parse("SELECT t.a FROM t HAVING COUNT(t.a) > 1").unwrap_err();
        assert!(err.message.contains("GROUP BY"), "{}", err.message);
        let err = parse("SELECT t.a FROM t GROUP BY t.a HAVING t.a > 1").unwrap_err();
        assert!(err.message.contains("aggregate"), "{}", err.message);
        let err = parse("SELECT t.a FROM t GROUP BY t.a HAVING COUNT(*) > t.b").unwrap_err();
        assert!(err.message.contains("constant"), "{}", err.message);
    }

    #[test]
    fn union_parses_as_expression() {
        let expr =
            parse_query_expr("SELECT t.a FROM t WHERE t.a = 1 UNION SELECT s.b FROM s;").unwrap();
        assert_eq!(expr.branches.len(), 2);
        assert!(!expr.all);
        let expr = parse_query_expr("SELECT t.a FROM t UNION ALL SELECT s.b FROM s").unwrap();
        assert!(expr.all);
        // Single-block expressions stay single.
        assert!(parse_query_expr("SELECT t.a FROM t").unwrap().is_single());
    }

    #[test]
    fn union_rejected_where_unsupported() {
        let err = parse("SELECT t.a FROM t UNION SELECT s.b FROM s").unwrap_err();
        assert!(err.message.contains("parse_query_expr"), "{}", err.message);
        let err = parse_query_expr(
            "SELECT t.a FROM t UNION SELECT s.b FROM s UNION ALL SELECT u.c FROM u",
        )
        .unwrap_err();
        assert!(err.message.contains("mixing"), "{}", err.message);
        let err = parse_query_expr(
            "SELECT t.a FROM t WHERE EXISTS (SELECT s.b FROM s UNION SELECT u.c FROM u)",
        )
        .unwrap_err();
        assert!(err.message.contains("top level"), "{}", err.message);
    }

    #[test]
    fn reject_not_before_plain_comparison() {
        let err = parse("SELECT a FROM t WHERE NOT t.a = 3").unwrap_err();
        assert!(err.message.contains("NOT"), "{}", err.message);
    }

    #[test]
    fn reject_trailing_garbage() {
        let err = parse("SELECT a FROM t WHERE t.a = 1 banana").unwrap_err();
        assert!(err.message.contains("alias") || err.message.contains("trailing"));
    }

    #[test]
    fn reject_missing_from() {
        let err = parse("SELECT a").unwrap_err();
        assert!(err.message.contains("FROM"));
    }

    #[test]
    fn alias_with_and_without_as() {
        let mut names = Names::new();
        let sql = "SELECT a FROM Likes AS L1, Serves S2 WHERE L1.a = S2.b";
        let q = parse_query(sql, &mut names).unwrap();
        assert_eq!(names.resolve(q.from[0].binding()), "L1");
        assert_eq!(names.resolve(q.from[1].binding()), "S2");
    }

    #[test]
    fn semicolon_is_optional() {
        assert!(parse("SELECT a FROM t;").is_ok());
        assert!(parse("SELECT a FROM t").is_ok());
    }

    #[test]
    fn error_carries_line_and_column() {
        let err = parse("SELECT a\nFROM t\nWHERE a ==").unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn count_star() {
        let q = parse("SELECT COUNT(*) FROM t GROUP BY t.a").unwrap();
        match &q.select.items()[0] {
            SelectItem::Aggregate(AggCall { func, arg }) => {
                assert_eq!(*func, AggFunc::Count);
                assert!(arg.is_none());
            }
            other => panic!("expected aggregate, got {other:?}"),
        }
    }
}
