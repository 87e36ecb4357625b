//! # queryvis-telemetry
//!
//! The workspace's vendored observability layer (no crates.io): one
//! process-wide [`Telemetry`] instance holding
//!
//! * **log-linear latency histograms** ([`histogram`]) — fixed buckets,
//!   ≤3.1% relative quantization error over all of `u64`, mergeable,
//!   exact-extreme p50/p90/p99/p999 queries — registered once by name
//!   ([`registry`]) behind `static` [`StageDef`] handles;
//! * a lightweight **span API** ([`StageDef::span`]) — an RAII guard that
//!   times a pipeline stage into the stage's histogram and, when tracing
//!   is on, appends a per-request [`TraceRecord`] to the trace sink.
//!
//! ## The disabled path
//!
//! Everything is gated on one relaxed [`Telemetry::enabled`] flag, off by
//! default: a disabled span or record is a single atomic load and a
//! predictable branch — no clock reads, no atomics written, no
//! allocation — which keeps it out of a warm hit's roughly 2 µs. The
//! benchmark (`qvbench/`) runs with telemetry off, so its bounds on warm
//! serving guard the disabled cost. Enabling at runtime (`--stats`,
//! `--trace-jsonl`) costs two `Instant` reads and one histogram record
//! per span.
//!
//! ## Who records what
//!
//! Stage spans live where the stages live: `queryvis-sql` times lex and
//! parse, `queryvis` (core) times lowering, diagram construction (with
//! the `pass.simplify-forall` rewrite of each branch nested inside it)
//! and scene composition, and `queryvis-service` times canonicalization,
//! per-format rendering, and end-to-end request latency. The service
//! counts its own events (cache hits, compiles, sessions, connections)
//! in per-instance fields, not here, and exports those next to this
//! registry's snapshot as one JSON document via its own `json` writer
//! (`stats_json` module there); this crate deliberately has no
//! serialization and no dependencies.

pub mod histogram;
pub mod registry;

pub use histogram::{Histogram, HistogramSnapshot};

use registry::Registry;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Sentinel request id for spans recorded outside any request scope.
pub const NO_REQUEST: u64 = u64::MAX;

/// Upper bound on buffered trace records; beyond it records are counted
/// as dropped instead of growing without bound.
const MAX_TRACE_RECORDS: usize = 1 << 20;

/// One completed span, for offline analysis (`service --trace-jsonl`).
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// The request id active when the span closed ([`NO_REQUEST`] if none).
    pub request: u64,
    /// Stage name (the owning [`StageDef`]'s name).
    pub stage: &'static str,
    /// Span start, nanoseconds since the trace epoch (first telemetry use
    /// in the process).
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Stable per-thread ordinal.
    pub thread: u32,
}

/// The process-wide telemetry state. Use [`global()`]; the struct is
/// public only so its methods can be documented and called through the
/// global reference.
pub struct Telemetry {
    enabled: AtomicBool,
    tracing: AtomicBool,
    histograms: Registry<Histogram>,
    trace: Mutex<Vec<TraceRecord>>,
    trace_dropped: AtomicU64,
    epoch: OnceLock<Instant>,
}

static GLOBAL: Telemetry = Telemetry {
    enabled: AtomicBool::new(false),
    tracing: AtomicBool::new(false),
    histograms: Registry::new(),
    trace: Mutex::new(Vec::new()),
    trace_dropped: AtomicU64::new(0),
    epoch: OnceLock::new(),
};

/// The process-wide telemetry instance.
#[inline]
pub fn global() -> &'static Telemetry {
    &GLOBAL
}

/// Whether telemetry is recording (one relaxed load).
#[inline]
pub fn enabled() -> bool {
    GLOBAL.enabled.load(Ordering::Relaxed)
}

impl Telemetry {
    /// Turn recording on or off at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn span tracing on or off. Tracing implies nothing about
    /// `enabled` — callers that want traces enable both.
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::Relaxed);
        if on {
            self.epoch(); // pin the epoch before the first span
        }
    }

    pub fn tracing(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    fn epoch(&self) -> Instant {
        *self.epoch.get_or_init(Instant::now)
    }

    /// Drain every buffered trace record (oldest first).
    pub fn drain_trace(&self) -> Vec<TraceRecord> {
        std::mem::take(&mut *self.trace.lock().expect("trace sink poisoned"))
    }

    /// Records dropped because the trace sink was full.
    pub fn trace_dropped(&self) -> u64 {
        self.trace_dropped.load(Ordering::Relaxed)
    }

    fn push_trace(&self, record: TraceRecord) {
        let mut sink = self.trace.lock().expect("trace sink poisoned");
        if sink.len() >= MAX_TRACE_RECORDS {
            drop(sink);
            self.trace_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        sink.push(record);
    }

    fn histogram_id(&self, def: &StageDef) -> u32 {
        *def.id
            .get_or_init(|| self.histograms.register(def.name, Histogram::new))
    }

    /// A full snapshot of every histogram, sorted by name so exports are
    /// schema-stable.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut histograms: Vec<(String, HistogramSnapshot)> = self
            .histograms
            .entries()
            .into_iter()
            .map(|(name, h)| (name, h.snapshot()))
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        TelemetrySnapshot {
            enabled: self.enabled(),
            histograms,
        }
    }
}

/// A point-in-time copy of every histogram, sorted by name.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    pub enabled: bool,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl TelemetrySnapshot {
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

// ---------------------------------------------------------------------
// Static stage handles
// ---------------------------------------------------------------------

/// A named pipeline stage backed by a latency histogram. Declared
/// `static` where the stage is implemented:
///
/// ```
/// use queryvis_telemetry::StageDef;
/// static PARSE: StageDef = StageDef::new("stage.parse");
/// let _span = PARSE.span(); // records on drop; inert when disabled
/// ```
pub struct StageDef {
    name: &'static str,
    id: OnceLock<u32>,
}

impl StageDef {
    pub const fn new(name: &'static str) -> StageDef {
        StageDef {
            name,
            id: OnceLock::new(),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Open an RAII span over this stage. When telemetry is disabled the
    /// guard is inert (no clock read happens at all).
    #[inline]
    pub fn span(&'static self) -> SpanGuard {
        if !enabled() {
            return SpanGuard { active: None };
        }
        SpanGuard {
            active: Some((Instant::now(), self)),
        }
    }

    /// Record an externally measured duration into this stage's histogram.
    #[inline]
    pub fn record_ns(&'static self, ns: u64) {
        let t = global();
        if !t.enabled() {
            return;
        }
        t.histograms.get(t.histogram_id(self)).record(ns);
    }

    /// This stage's histogram so far (registers it when never recorded).
    pub fn snapshot(&'static self) -> HistogramSnapshot {
        let t = global();
        t.histograms.get(t.histogram_id(self)).snapshot()
    }
}

/// The RAII guard returned by [`StageDef::span`]: on drop it records the
/// elapsed nanoseconds into the stage histogram and, when tracing is on,
/// appends a [`TraceRecord`] tagged with the current request id.
pub struct SpanGuard {
    active: Option<(Instant, &'static StageDef)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((start, stage)) = self.active.take() else {
            return;
        };
        let dur_ns = start.elapsed().as_nanos() as u64;
        let t = global();
        // `enabled` may have flipped mid-span; record anyway — the guard
        // already paid for the clock reads, and a histogram point from the
        // enable/disable boundary is harmless.
        t.histograms.get(t.histogram_id(stage)).record(dur_ns);
        if t.tracing() {
            let start_ns = start.duration_since(t.epoch()).as_nanos() as u64;
            t.push_trace(TraceRecord {
                request: current_request(),
                stage: stage.name,
                start_ns,
                dur_ns,
                thread: registry::thread_ordinal() as u32,
            });
        }
    }
}

// ---------------------------------------------------------------------
// Per-request context (trace attribution)
// ---------------------------------------------------------------------

thread_local! {
    static CURRENT_REQUEST: Cell<u64> = const { Cell::new(NO_REQUEST) };
}

/// The request id spans on this thread are currently attributed to.
pub fn current_request() -> u64 {
    CURRENT_REQUEST.with(Cell::get)
}

/// Attribute spans on this thread to `request` until the guard drops
/// (restores the previous attribution, so scopes nest).
pub fn request_scope(request: u64) -> RequestScope {
    let prev = CURRENT_REQUEST.with(|c| c.replace(request));
    RequestScope { prev }
}

pub struct RequestScope {
    prev: u64,
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        CURRENT_REQUEST.with(|c| c.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global telemetry instance is process-wide, so tests use
    // uniquely named metrics, only assert deltas they created, and
    // serialize on ENABLE_LOCK because they toggle the shared flag.
    static ENABLE_LOCK: Mutex<()> = Mutex::new(());

    fn enable_lock() -> std::sync::MutexGuard<'static, ()> {
        ENABLE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn spans_record_into_stage_histograms() {
        static S: StageDef = StageDef::new("test.span_stage");
        let _serial = enable_lock();
        global().set_enabled(true);
        {
            let _span = S.span();
            std::hint::black_box(1 + 1);
        }
        let snap = S.snapshot();
        assert_eq!(snap.count(), 1);
        global().set_enabled(false);
        {
            let _span = S.span();
        }
        assert_eq!(S.snapshot().count(), 1, "disabled span must not record");
    }

    #[test]
    fn request_scopes_nest_and_restore() {
        assert_eq!(current_request(), NO_REQUEST);
        {
            let _outer = request_scope(7);
            assert_eq!(current_request(), 7);
            {
                let _inner = request_scope(9);
                assert_eq!(current_request(), 9);
            }
            assert_eq!(current_request(), 7);
        }
        assert_eq!(current_request(), NO_REQUEST);
    }

    #[test]
    fn tracing_captures_request_tagged_records() {
        static S: StageDef = StageDef::new("test.trace_stage");
        let _serial = enable_lock();
        let t = global();
        t.set_enabled(true);
        t.set_tracing(true);
        t.drain_trace();
        {
            let _scope = request_scope(42);
            let _span = S.span();
        }
        t.set_tracing(false);
        t.set_enabled(false);
        let records: Vec<TraceRecord> = t
            .drain_trace()
            .into_iter()
            .filter(|r| r.stage == "test.trace_stage")
            .collect();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].request, 42);
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        static HB: StageDef = StageDef::new("test.snap_b");
        static HA: StageDef = StageDef::new("test.snap_a");
        let _serial = enable_lock();
        global().set_enabled(true);
        HB.record_ns(2);
        HB.record_ns(2);
        HA.record_ns(1);
        global().set_enabled(false);
        let snap = global().snapshot();
        assert_eq!(snap.histogram("test.snap_a").map(|h| h.count()), Some(1));
        assert_eq!(snap.histogram("test.snap_b").map(|h| h.count()), Some(2));
        let names: Vec<&String> = snap.histograms.iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "histograms must be name-sorted");
    }
}
