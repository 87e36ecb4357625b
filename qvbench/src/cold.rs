//! `cold_compile`: the first view of a diagram. One client; nearly every
//! op is a pattern the service has not seen, so scene building, rendering
//! and the two canonicalizations do nearly all the work.
//!
//! Each round is one pass over the pool, served in slices of about 1,000
//! queries, each by a fresh default `DiagramService` (4,096 entries, far
//! above a slice): nothing is evicted, every pass does the same work, and
//! memory stays that of one slice's service. The golden and corpus
//! queries open the first slice, so each golden query is its own
//! pattern representative.

use crate::inputs::{self, ColdInputs, Scale, GOLDEN};
use crate::measure::{digest, fold, Recorder};
use crate::trace::{Layer, Tracer};
use crate::workload::{serve_line, Budget, Phase, ServiceDelta, Workload};
use queryvis::layout::compose_union;
use queryvis::render::{to_ascii, to_svg, SvgTheme};
use queryvis::sql::parse_query_expr;
use queryvis::{QueryVis, QueryVisOptions};
use queryvis_service::json::{self, Json};
use queryvis_service::{
    fingerprint_prepared, fingerprint_sql, scene_json, DiagramService, Request, Response,
    ServiceConfig,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The pinned bytes of the golden queries, in `GOLDEN` order: (svg,
/// scene.json).
const GOLDEN_BYTES: [(&str, &str); 3] = [
    (
        include_str!("../../tests/golden/single_block.svg"),
        include_str!("../../tests/golden/single_block.scene.json"),
    ),
    (
        include_str!("../../tests/golden/nested_chain.svg"),
        include_str!("../../tests/golden/nested_chain.scene.json"),
    ),
    (
        include_str!("../../tests/golden/union_two_branch.svg"),
        include_str!("../../tests/golden/union_two_branch.scene.json"),
    ),
];

pub struct Cold {
    inputs: ColdInputs,
    per_service: usize,
}

impl Cold {
    pub fn new(seed: u64, scale: &Scale) -> Cold {
        let inputs = inputs::cold(seed, scale);
        eprintln!(
            "cold_compile: pool {} ({} golden, {} corpus), warm-up slice {}, dropped {:?}",
            inputs.lines.len(),
            GOLDEN.len(),
            inputs.lines.len() - GOLDEN.len() - scale.cold_pool,
            inputs.warmup.len(),
            inputs.dropped
        );
        Cold {
            inputs,
            per_service: scale.cold_per_service,
        }
    }
}

pub struct ColdState {
    /// The set-up service, kept so its teardown is not timed.
    _warm: DiagramService,
    checker: Checker,
}

impl Workload for Cold {
    type State = ColdState;

    const ATTRIBUTION_BOUNDED: bool = true;

    /// Service construction plus a pass over the separate warm-up slice.
    fn setup(&self) -> ColdState {
        let service = DiagramService::new(ServiceConfig::default());
        let mut out = String::new();
        for (i, line) in self.inputs.warmup.iter().enumerate() {
            serve_line(&service, line, i as u64, &mut out);
        }
        ColdState {
            _warm: service,
            checker: Checker::new(self.inputs.lines.len()),
        }
    }

    fn phase(&self, state: &mut ColdState, budget: Budget, trace: bool) -> Phase {
        let started = Instant::now();
        let mut recorder = Recorder::new(self.inputs.lines.len());
        let mut tracer = trace.then(|| Tracer::new(0, started));
        let options = Arc::new(QueryVisOptions::default());
        let (mut out, mut scratch) = (String::new(), String::new());
        let (mut attempted, mut failed, mut reply_digest) = (0, 0, 0);
        let mut delta = ServiceDelta::default();
        let mut rounds = 0;
        while budget.another_round(started, rounds) {
            let lines = self.inputs.lines.iter().enumerate();
            let mut service = DiagramService::new(ServiceConfig::default());
            let mut before = service.stats();
            for (i, line) in lines {
                if i > 0 && i % self.per_service == 0 {
                    delta.add(ServiceDelta::between(&before, &service.stats()));
                    service = DiagramService::new(ServiceConfig::default());
                    before = service.stats();
                }
                let t0 = Instant::now();
                let response = serve_line(&service, line, i as u64, &mut out);
                let t1 = Instant::now();
                recorder.record((t1 - t0).as_nanos() as u64, out.len());
                let op = attempted as u32;
                attempted += 1;
                failed += u64::from(!state.checker.check(i, &out, &self.inputs.sqls[i]));
                reply_digest = fold(reply_digest, digest(out.as_bytes()));
                if let Some(tr) = tracer.as_mut() {
                    tr.record(op, Layer::Op, t0, t1);
                    replay(tr, op, line, &service, &response, &options, &mut scratch);
                }
            }
            delta.add(ServiceDelta::between(&before, &service.stats()));
            recorder.end_round();
            rounds += 1;
        }
        Phase {
            clients: vec![recorder],
            tracer,
            attempted,
            failed,
            digest: reply_digest,
            service: delta,
            session_ok: 0,
            session_patched: 0,
        }
    }

    fn input_digest(&self) -> u64 {
        let lines = self.inputs.lines.iter().chain(&self.inputs.warmup);
        lines.fold(0, |acc, line| fold(acc, digest(line.as_bytes())))
    }
}

/// Replay one cold op through each layer's public function.
fn replay(
    tr: &mut Tracer,
    op: u32,
    line: &str,
    service: &DiagramService,
    response: &Response,
    options: &Arc<QueryVisOptions>,
    buf: &mut String,
) {
    let Ok(request) = tr.span(op, Layer::ProtocolParse, || {
        Request::from_json_line(line, 0)
    }) else {
        return;
    };
    let sql = request.sql.as_str();
    tr.span(op, Layer::MemoLookup, || service.memo().lookup(sql));
    let Ok(expr) = tr.span(op, Layer::SqlParse, || parse_query_expr(sql)) else {
        return;
    };
    let Ok(prepared) = tr.span(op, Layer::LogicLower, || {
        QueryVis::prepare_parsed(sql, expr, Arc::clone(options))
    }) else {
        return;
    };
    let fq = tr.span(op, Layer::Canonicalize, || fingerprint_prepared(prepared));
    tr.span(op, Layer::CachePeek, || {
        service.cache().peek(fq.fingerprint)
    });
    tr.span(op, Layer::PatternRender, || fq.pattern_key().render());
    let qv = tr.span(op, Layer::Complete, || fq.prepared.complete());
    let scene = tr.span(op, Layer::Scene, || {
        compose_union(qv.scenes(), qv.union_all)
    });
    let ascii = tr.span(op, Layer::RenderAscii, || to_ascii(&scene));
    let svg = tr.span(op, Layer::RenderSvg, || {
        to_svg(&scene, &SvgTheme::default())
    });
    let scene_doc = tr.span(op, Layer::RenderSceneJson, || scene_json(&scene));
    tr.artifact_bytes += (ascii.len() + svg.len() + scene_doc.len()) as u64;
    tr.span(op, Layer::ProtocolWrite, || {
        buf.clear();
        response.write_json_line(buf)
    });
}

/// Checks cold replies. A reply is verified in full the first time its
/// pool index is served; later passes, which must repeat it byte for
/// byte, compare a digest.
struct Checker {
    verified: Vec<Option<u64>>,
    /// Per representative SQL text: its fingerprint and digests of the
    /// library facade's (ascii, svg, scene_json).
    facade: HashMap<String, (String, [u64; 3])>,
}

impl Checker {
    fn new(pool: usize) -> Checker {
        Checker {
            verified: vec![None; pool],
            facade: HashMap::new(),
        }
    }

    fn check(&mut self, i: usize, line: &str, sql: &str) -> bool {
        let seen = digest(line.as_bytes());
        if self.verified[i] == Some(seen) {
            return true;
        }
        let ok = self.verify(i, line, sql).is_some();
        if ok {
            self.verified[i] = Some(seen);
        }
        ok
    }

    /// Golden queries must return the pinned bytes and be their own
    /// representative; every other reply must match the facade's
    /// rendering of the representative SQL it names.
    fn verify(&mut self, i: usize, line: &str, sql: &str) -> Option<()> {
        let reply = json::parse(line).ok()?;
        let fq = fingerprint_sql(sql, QueryVisOptions::default()).ok()?;
        let fingerprint = fq.fingerprint.to_string();
        check(reply.get("id")?.as_u64()? == i as u64)?;
        check(reply.get("fingerprint")?.as_str()? == fingerprint)?;
        check(reply.get("sql_words")?.as_u64()? == fq.prepared.sql_word_count() as u64)?;
        let representative = match reply.get("representative_sql") {
            Some(rep) => rep.as_str()?,
            None => sql,
        };
        let artifacts = reply.get("artifacts")?;
        let field = |name| artifacts.get(name).and_then(Json::as_str);
        let (ascii, svg, scene) = (field("ascii")?, field("svg")?, field("scene_json")?);
        if let Some((golden_svg, golden_scene)) = GOLDEN_BYTES.get(i) {
            check(representative == sql)?;
            check(svg == *golden_svg && scene == golden_scene.trim_end())?;
        }
        if !self.facade.contains_key(representative) {
            let rep_fq = fingerprint_sql(representative, QueryVisOptions::default()).ok()?;
            let qv = QueryVis::from_sql(representative).ok()?;
            let rendered = [
                digest(qv.ascii().as_bytes()),
                digest(qv.svg().as_bytes()),
                digest(scene_json(&qv.scene()).as_bytes()),
            ];
            let rep_fingerprint = rep_fq.fingerprint.to_string();
            self.facade
                .insert(representative.to_string(), (rep_fingerprint, rendered));
        }
        let (rep_fingerprint, rendered) = &self.facade[representative];
        check(*rep_fingerprint == fingerprint)?;
        check(*rendered == [ascii, svg, scene].map(|a| digest(a.as_bytes())))
    }
}

fn check(condition: bool) -> Option<()> {
    condition.then_some(())
}
