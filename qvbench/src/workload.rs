//! What every workload provides to the run loop in `main.rs`: a set-up
//! it times, and timed phases of closed-loop clients whose every reply is
//! checked.

use crate::measure::Recorder;
use crate::trace::Tracer;
use queryvis_service::{DiagramService, ErrorKind, Request, Response, ServiceStats};
use std::time::Instant;

/// How long a timed phase runs. Phases always end on a round boundary.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Start rounds until this many seconds have passed (at least one).
    Seconds(f64),
    /// Exactly this many rounds per client.
    #[cfg_attr(not(test), allow(dead_code))] // only the self-test fixes rounds
    Rounds(usize),
}

impl Budget {
    /// The budget of each of the traced run's two phases.
    pub fn half(self) -> Budget {
        match self {
            Budget::Seconds(s) => Budget::Seconds(s / 2.0),
            Budget::Rounds(n) => Budget::Rounds(n),
        }
    }

    /// Whether a client that has finished `rounds` starts another.
    pub fn another_round(self, started: Instant, rounds: usize) -> bool {
        match self {
            Budget::Seconds(s) => rounds == 0 || started.elapsed().as_secs_f64() < s,
            Budget::Rounds(n) => rounds < n,
        }
    }
}

/// Service counters moved by one phase's real ops.
#[derive(Default, Clone, Copy)]
pub struct ServiceDelta {
    pub requests: u64,
    pub l1_hits: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub compiles: u64,
}

impl ServiceDelta {
    pub fn between(before: &ServiceStats, after: &ServiceStats) -> ServiceDelta {
        ServiceDelta {
            requests: after.requests - before.requests,
            l1_hits: after.l1_hits - before.l1_hits,
            l2_hits: after.cache.hits - before.cache.hits,
            l2_misses: after.cache.misses - before.cache.misses,
            compiles: after.compiles - before.compiles,
        }
    }

    pub fn add(&mut self, other: ServiceDelta) {
        self.requests += other.requests;
        self.l1_hits += other.l1_hits;
        self.l2_hits += other.l2_hits;
        self.l2_misses += other.l2_misses;
        self.compiles += other.compiles;
    }
}

/// The outcome of one timed phase.
pub struct Phase {
    pub clients: Vec<Recorder>,
    /// Present on traced phases: every client's spans, merged.
    pub tracer: Option<Tracer>,
    pub attempted: u64,
    pub failed: u64,
    /// Digest of every reply, in a fixed order (client by client).
    pub digest: u64,
    pub service: ServiceDelta,
    /// Successful and patched session replies, read off the wire.
    pub session_ok: u64,
    pub session_patched: u64,
}

pub trait Workload: Sync {
    type State;

    /// Whether the traced run holds `unattributed_us` to the attribution
    /// tolerance; elsewhere the gap is reported only.
    const ATTRIBUTION_BOUNDED: bool = false;

    /// The program work a user pays before the first op.
    fn setup(&self) -> Self::State;

    /// Run closed-loop clients for `budget`, checking every reply outside
    /// the timed windows. With `trace`, each op is followed by its replay.
    fn phase(&self, state: &mut Self::State, budget: Budget, trace: bool) -> Phase;

    /// Digest of the generated inputs.
    fn input_digest(&self) -> u64;
}

/// The per-line path of a plain request, minus framing.
pub fn serve_line(service: &DiagramService, line: &str, id: u64, out: &mut String) -> Response {
    let response = match Request::from_json_line(line, id) {
        Ok(request) => service.handle(&request),
        Err(m) => Response::error_kind(id, ErrorKind::BadRequest, format!("bad request: {m}")),
    };
    out.clear();
    response.write_json_line(out);
    response
}
