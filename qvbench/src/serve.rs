//! `serve_warm`: repeat viewing under concurrency. Two closed-loop
//! clients share one service warmed with a few hundred Zipf-popular
//! patterns, well under the 4,096-entry L2. About three ops in four
//! repeat a popular spelling (an L1 hit); the rest are never-seen
//! spellings of a warmed pattern (an L1 miss, the full frontend, then an
//! L2 hit). Every request asks for svg, and the timed phase compiles
//! nothing, so rendering does no work here.

use crate::inputs::{
    self, fresh_spelling, Scale, ServeInputs, Spelling, SERVE_CLIENTS, SERVE_FORMATS,
};
use crate::measure::{digest, fold, Recorder};
use crate::trace::{Layer, Tracer};
use crate::workload::{serve_line, Budget, Phase, ServiceDelta, Workload};
use proptest::test_runner::TestRng;
use queryvis::sql::parse_query_expr;
use queryvis::{QueryVis, QueryVisOptions};
use queryvis_service::{
    fingerprint_prepared, DiagramService, ErrorKind, Request, Response, ServiceConfig,
};
use std::sync::Arc;
use std::time::Instant;

pub struct Serve {
    seed: u64,
    inputs: ServeInputs,
    /// Request lines of every popular spelling, per pattern.
    warm_lines: Vec<Vec<String>>,
}

impl Serve {
    pub fn new(seed: u64, scale: &Scale) -> Serve {
        let inputs = inputs::serve(seed, scale);
        let warm_lines = inputs
            .patterns
            .iter()
            .map(|p| {
                p.popular
                    .iter()
                    .map(|sql| inputs::request_line(0, sql, SERVE_FORMATS))
                    .collect()
            })
            .collect();
        eprintln!(
            "serve_warm: {} patterns x {} popular spellings, {} clients x {} ops per round, dropped {:?}",
            inputs.patterns.len(),
            inputs.patterns[0].popular.len(),
            SERVE_CLIENTS,
            inputs.rounds[0].len(),
            inputs.dropped
        );
        Serve {
            seed,
            inputs,
            warm_lines,
        }
    }
}

pub struct ServeState {
    service: DiagramService,
    /// Per pattern: fingerprint hex and the digests of the warm-up reply
    /// after its id, for the representative's own spelling and for any
    /// other spelling (which discloses `representative_sql`).
    expected: Option<Vec<(String, [u64; 2])>>,
    /// Each client's fresh-spelling generator, carried across phases.
    fresh: Vec<TestRng>,
}

struct ClientRun {
    fresh: TestRng,
    recorder: Recorder,
    tracer: Option<Tracer>,
    attempted: u64,
    failed: u64,
    digest: u64,
}

impl Workload for Serve {
    type State = ServeState;

    /// Compile the whole working set (what a `server --snapshot` restart
    /// pays), then memoize every popular spelling.
    fn setup(&self) -> ServeState {
        let service = DiagramService::new(ServiceConfig::default());
        let mut out = String::new();
        for lines in &self.warm_lines {
            serve_line(&service, &lines[0], 0, &mut out);
        }
        for lines in &self.warm_lines {
            for line in &lines[1..] {
                serve_line(&service, line, 0, &mut out);
            }
        }
        ServeState {
            service,
            expected: None,
            fresh: (0..SERVE_CLIENTS)
                .map(|c| inputs::fresh_rng(self.seed, c))
                .collect(),
        }
    }

    fn phase(&self, state: &mut ServeState, budget: Budget, trace: bool) -> Phase {
        if state.expected.is_none() {
            state.expected = Some(self.expected_replies(&state.service));
        }
        let fresh = std::mem::take(&mut state.fresh);
        let shared = &*state;
        let before = shared.service.stats();
        let started = Instant::now();
        let runs: Vec<ClientRun> = std::thread::scope(|scope| {
            let clients: Vec<_> = fresh
                .into_iter()
                .enumerate()
                .map(|(c, rng)| {
                    scope.spawn(move || self.client(c, rng, shared, budget, trace, started))
                })
                .collect();
            clients
                .into_iter()
                .map(|h| h.join().expect("client threads do not panic"))
                .collect()
        });
        let service = ServiceDelta::between(&before, &shared.service.stats());
        let mut fresh = Vec::with_capacity(SERVE_CLIENTS);
        let mut phase = Phase {
            clients: Vec::new(),
            tracer: None,
            attempted: 0,
            failed: 0,
            digest: 0,
            service,
            session_ok: 0,
            session_patched: 0,
        };
        for run in runs {
            fresh.push(run.fresh);
            phase.clients.push(run.recorder);
            phase.attempted += run.attempted;
            phase.failed += run.failed;
            phase.digest = fold(phase.digest, run.digest);
            if let Some(tr) = run.tracer {
                match phase.tracer.as_mut() {
                    Some(merged) => merged.merge(tr),
                    None => phase.tracer = Some(tr),
                }
            }
        }
        state.fresh = fresh;
        phase
    }

    fn input_digest(&self) -> u64 {
        let mut acc = 0;
        for p in &self.inputs.patterns {
            for text in p.popular.iter().chain(&p.fresh_bases) {
                acc = fold(acc, digest(text.as_bytes()));
            }
        }
        for round in &self.inputs.rounds {
            for op in round {
                let spelling = match op.spelling {
                    Spelling::Popular(i) => u64::from(i),
                    Spelling::Fresh(i) => 0x100 | u64::from(i),
                };
                acc = fold(acc, (u64::from(op.pattern) << 16) | spelling);
            }
        }
        acc
    }
}

impl Serve {
    /// The warm-up replies every timed reply is compared with.
    fn expected_replies(&self, service: &DiagramService) -> Vec<(String, [u64; 2])> {
        let mut out = String::new();
        self.warm_lines
            .iter()
            .zip(&self.inputs.patterns)
            .map(|(lines, pattern)| {
                let mut tails = [0; 2];
                for (k, tail) in tails.iter_mut().enumerate() {
                    serve_line(service, &lines[k], 0, &mut out);
                    *tail = digest(out.strip_prefix("{\"id\":0,").unwrap_or("").as_bytes());
                }
                (pattern.fingerprint.to_string(), tails)
            })
            .collect()
    }

    fn client(
        &self,
        c: usize,
        fresh: TestRng,
        state: &ServeState,
        budget: Budget,
        trace: bool,
        started: Instant,
    ) -> ClientRun {
        let expected = state.expected.as_ref().expect("computed before the phase");
        let service = &state.service;
        let options = Arc::new(QueryVisOptions::default());
        let round = &self.inputs.rounds[c];
        let mut run = ClientRun {
            fresh,
            recorder: Recorder::new(round.len()),
            tracer: trace.then(|| Tracer::new(c, started)),
            attempted: 0,
            failed: 0,
            digest: 0,
        };
        let (mut spelled, mut out, mut scratch) = (String::new(), String::new(), String::new());
        let mut rounds = 0;
        while budget.another_round(started, rounds) {
            for (k, op) in round.iter().enumerate() {
                let pattern = &self.inputs.patterns[op.pattern as usize];
                let sql = match op.spelling {
                    Spelling::Popular(i) => &pattern.popular[i as usize],
                    Spelling::Fresh(b) => {
                        fresh_spelling(
                            &pattern.fresh_bases[b as usize],
                            &mut run.fresh,
                            &mut spelled,
                        );
                        &spelled
                    }
                };
                let id = k as u64;
                let line = inputs::request_line(id, sql, SERVE_FORMATS);
                let op_id = run.attempted as u32;
                let (t0, t1) = match run.tracer.as_mut() {
                    None => {
                        let t0 = Instant::now();
                        serve_line(service, &line, id, &mut out);
                        (t0, Instant::now())
                    }
                    Some(tr) => {
                        let fresh_op = matches!(op.spelling, Spelling::Fresh(_));
                        traced_op(
                            tr,
                            op_id,
                            service,
                            &line,
                            id,
                            fresh_op,
                            &options,
                            &mut out,
                            &mut scratch,
                        )
                    }
                };
                run.recorder.record((t1 - t0).as_nanos() as u64, out.len());
                run.attempted += 1;
                let (hex, tails) = &expected[op.pattern as usize];
                let own = matches!(op.spelling, Spelling::Popular(0));
                let ok = reply_matches(&out, id, hex, tails[usize::from(!own)]);
                run.failed += u64::from(!ok);
                run.digest = fold(run.digest, digest(out.as_bytes()));
            }
            run.recorder.end_round();
            rounds += 1;
        }
        run
    }
}

/// A reply matches when it echoes the id, names the warmed fingerprint,
/// and is otherwise byte-identical to the warm-up reply.
fn reply_matches(line: &str, id: u64, hex: &str, tail_digest: u64) -> bool {
    let Some(rest) = line.strip_prefix("{\"id\":") else {
        return false;
    };
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    if rest[..digits].parse::<u64>().ok() != Some(id) {
        return false;
    }
    let Some(tail) = rest[digits..].strip_prefix(',') else {
        return false;
    };
    let names_fingerprint = tail
        .strip_prefix("\"fingerprint\":\"")
        .is_some_and(|t| t.starts_with(hex));
    names_fingerprint && digest(tail.as_bytes()) == tail_digest
}

/// One op with its layer spans: the real op (with `handle` timed on L1
/// hits), then the replay of its input through each layer. Returns the
/// real op's start and end.
#[allow(clippy::too_many_arguments)]
fn traced_op(
    tr: &mut Tracer,
    op: u32,
    service: &DiagramService,
    line: &str,
    id: u64,
    fresh: bool,
    options: &Arc<QueryVisOptions>,
    out: &mut String,
    buf: &mut String,
) -> (Instant, Instant) {
    let t0 = Instant::now();
    let response = match Request::from_json_line(line, id) {
        Ok(request) => {
            let h0 = Instant::now();
            let response = service.handle(&request);
            if !fresh {
                tr.record(op, Layer::HitHandle, h0, Instant::now());
            }
            response
        }
        Err(m) => Response::error_kind(id, ErrorKind::BadRequest, format!("bad request: {m}")),
    };
    out.clear();
    response.write_json_line(out);
    let t1 = Instant::now();
    tr.record(op, Layer::Op, t0, t1);

    let Ok(request) = tr.span(op, Layer::ProtocolParse, || {
        Request::from_json_line(line, id)
    }) else {
        return (t0, t1);
    };
    let sql = request.sql.as_str();
    let memo = tr.span(op, Layer::MemoLookup, || service.memo().lookup(sql));
    let fingerprint = if fresh {
        let Ok(expr) = tr.span(op, Layer::SqlParse, || parse_query_expr(sql)) else {
            return (t0, t1);
        };
        let Ok(prepared) = tr.span(op, Layer::LogicLower, || {
            QueryVis::prepare_parsed(sql, expr, Arc::clone(options))
        }) else {
            return (t0, t1);
        };
        tr.span(op, Layer::Canonicalize, || fingerprint_prepared(prepared))
            .fingerprint
    } else {
        match memo {
            Some((fingerprint, _)) => fingerprint,
            None => return (t0, t1),
        }
    };
    tr.span(op, Layer::CachePeek, || service.cache().peek(fingerprint));
    tr.span(op, Layer::ProtocolWrite, || {
        buf.clear();
        response.write_json_line(buf)
    });
    (t0, t1)
}
