//! The traced run's spans.
//!
//! A span wraps one public call the benchmark makes. The real op is one
//! `op` span; calls that cross several layers (`handle`, `dispatch_value`)
//! are opaque, so after each op the traced run replays the op's input
//! through the public function of every layer and times each call as that
//! layer's self time. `unattributed` is op time minus the summed layer
//! self times: the orchestration no named layer accounts for, plus any
//! difference between the replay and what the op really did.
//!
//! Spans of one op share its op id. They stay in memory (up to
//! [`SPAN_CAP`] per client; totals keep counting past it) and are written
//! out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Spans each client keeps for the JSON-lines dump.
pub const SPAN_CAP: usize = 100_000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// The real op, from send to reply.
    Op,
    /// `handle` on an L1 hit, inside a real op.
    HitHandle,
    /// `dispatch_value`, inside a real op.
    SessionEdit,
    /// A plain request (`handle` + `write_json_line`) for an edit's buffer
    /// text: the baseline a session edit is compared with.
    SessionPlain,
    // Leaf layers, replayed; their sum is the attributed op time.
    ProtocolParse,
    MemoLookup,
    CachePeek,
    SqlParse,
    LogicLower,
    Canonicalize,
    PatternRender,
    Complete,
    Scene,
    RenderAscii,
    RenderSvg,
    RenderSceneJson,
    ProtocolWrite,
    SceneJsonV2,
    SceneDiff,
}

pub const LAYERS: [Layer; 19] = [
    Layer::Op,
    Layer::HitHandle,
    Layer::SessionEdit,
    Layer::SessionPlain,
    Layer::ProtocolParse,
    Layer::MemoLookup,
    Layer::CachePeek,
    Layer::SqlParse,
    Layer::LogicLower,
    Layer::Canonicalize,
    Layer::PatternRender,
    Layer::Complete,
    Layer::Scene,
    Layer::RenderAscii,
    Layer::RenderSvg,
    Layer::RenderSceneJson,
    Layer::ProtocolWrite,
    Layer::SceneJsonV2,
    Layer::SceneDiff,
];

impl Layer {
    /// The per-layer metric this layer's time reports under.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::HitHandle => "service.hit",
            Layer::SessionEdit => "service.session.edit",
            Layer::SessionPlain => "service.session.plain",
            Layer::ProtocolParse => "service.protocol.parse",
            Layer::MemoLookup => "service.memo.lookup",
            Layer::CachePeek => "service.cache.peek",
            Layer::SqlParse => "sql.parse",
            Layer::LogicLower => "logic.lower",
            Layer::Canonicalize => "core.canonicalize",
            Layer::PatternRender => "core.pattern_render",
            Layer::Complete => "diagram.complete",
            Layer::Scene => "layout.scene",
            Layer::RenderAscii => "render.ascii",
            Layer::RenderSvg => "render.svg",
            Layer::RenderSceneJson => "render.scene_json",
            Layer::ProtocolWrite => "service.protocol.write",
            Layer::SceneJsonV2 => "service.scene_json.v2",
            Layer::SceneDiff => "service.scene_diff.diff",
        }
    }

    /// Leaf layers partition an op's time; the others contain leaves.
    pub fn is_leaf(self) -> bool {
        !matches!(
            self,
            Layer::Op | Layer::HitHandle | Layer::SessionEdit | Layer::SessionPlain
        )
    }

    fn index(self) -> usize {
        LAYERS
            .iter()
            .position(|l| *l == self)
            .expect("every layer is listed")
    }
}

struct Span {
    client: u8,
    op: u32,
    layer: Layer,
    start_ns: u64,
    dur_ns: u64,
}

/// One client's spans and per-layer totals.
pub struct Tracer {
    client: u8,
    origin: Instant,
    spans: Vec<Span>,
    total_ns: [u64; LAYERS.len()],
    calls: [u64; LAYERS.len()],
    /// Bytes of artifacts the replay rendered.
    pub artifact_bytes: u64,
}

impl Tracer {
    pub fn new(client: usize, origin: Instant) -> Tracer {
        Tracer {
            client: client as u8,
            origin,
            spans: Vec::new(),
            total_ns: [0; LAYERS.len()],
            calls: [0; LAYERS.len()],
            artifact_bytes: 0,
        }
    }

    /// Time `f` as one `layer` span of op `op`.
    pub fn span<T>(&mut self, op: u32, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = std::hint::black_box(f());
        self.record(op, layer, start, Instant::now());
        value
    }

    /// Record a span measured by the caller.
    pub fn record(&mut self, op: u32, layer: Layer, start: Instant, end: Instant) {
        let dur_ns = (end - start).as_nanos() as u64;
        let i = layer.index();
        self.total_ns[i] += dur_ns;
        self.calls[i] += 1;
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                client: self.client,
                op,
                layer,
                start_ns: (start - self.origin).as_nanos() as u64,
                dur_ns,
            });
        }
    }

    pub fn merge(&mut self, other: Tracer) {
        for i in 0..LAYERS.len() {
            self.total_ns[i] += other.total_ns[i];
            self.calls[i] += other.calls[i];
        }
        self.artifact_bytes += other.artifact_bytes;
        self.spans.extend(other.spans);
    }

    pub fn total_ns(&self, layer: Layer) -> u64 {
        self.total_ns[layer.index()]
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer.index()]
    }

    /// Mean µs per call of `layer` (0 when it was never called).
    pub fn per_call_us(&self, layer: Layer) -> f64 {
        match self.calls(layer) {
            0 => 0.0,
            n => self.total_ns(layer) as f64 / n as f64 / 1e3,
        }
    }

    /// The spans as JSON lines, in the order they were recorded.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 72);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"client\":{},\"op\":{},\"layer\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                s.client,
                s.op,
                s.layer.name(),
                s.start_ns,
                s.dur_ns
            );
        }
        out
    }
}
