//! # queryvis-service
//!
//! A high-throughput diagram-compilation service over the `queryvis`
//! pipeline, built on the paper's observation that *queries sharing a
//! logical pattern share one diagram* (§1.1, App. G): the serving layer
//! canonicalizes each query, hashes the pattern into a stable 128-bit
//! [`Fingerprint`], and serves every pattern-equivalent query from the
//! one entry resident under it (misses that race on a new pattern may
//! each compile it; the first insert wins).
//!
//! Architecture (two cache levels; a request descends only as far as it
//! must — repeat texts skip the frontend, repeat patterns skip the
//! compile):
//!
//! ```text
//! SQL text → L1 memo (exact text → fingerprint)
//!              │ miss: parse → translate → canonical pattern → fingerprint
//!              ▼
//!            L2 sharded ARC cache (fingerprint → compiled entry)
//!              │  miss → simplify → diagram → layout → scene →
//!              │         render into the reply's JSON string literal
//!              │         (lazy, once per format)
//!              └→ artifacts (JSON string literals in Arc<str>, shared
//!                 into responses, copied into reply lines)
//! ```
//!
//! * [`memo`] — the L1 text→fingerprint memo (keyed by the text as sent,
//!   exact match, invalidated on L2 eviction);
//! * [`fingerprint`] — canonical-pattern cache keys;
//! * [`cache`] — the N-shard ARC cache, one mutex per shard, with
//!   hit/miss/eviction counters;
//! * [`compile`] — immutable compiled entries (pattern representatives)
//!   with lazily rendered, `Arc`-shared per-format artifacts, each stored
//!   once as the JSON string literal a reply carries;
//! * [`service`] — [`DiagramService`]: single-request serving; a miss
//!   compiles and publishes, and when misses race the first insert wins;
//! * [`protocol`] / [`json`] — the JSON-lines wire format (see the
//!   repository `README.md` for examples), serialized without
//!   intermediate trees by [`Response::write_json_line`], which copies
//!   each artifact's stored literal instead of escaping it;
//! * [`frontend`] — [`Frontend::serve_line`], the one line→reply function
//!   both front ends (the stdin `service` binary and the TCP [`server`])
//!   serve every request line through;
//! * [`scene_json`](mod@scene_json) — the machine-readable scene export: one entry's
//!   shared [`Scene`](queryvis::layout::Scene) display list (svg, ascii,
//!   and scene_json all render from it — one layout per entry) as a JSON
//!   document a browser client can draw directly;
//! * [`stats_json`] — the observability export: [`ServiceStats`] (each
//!   service event counted once, in the instance) plus the process-wide
//!   `queryvis-telemetry` snapshot (per-stage latency histograms,
//!   `pass.simplify-forall` among them) as one schema-stable JSON
//!   document, and the `--trace-jsonl` span dump.

#![forbid(unsafe_code)]

pub mod cache;
pub mod compile;
pub mod fault;
pub mod fingerprint;
pub mod frontend;
pub mod json;
pub mod memo;
pub mod net;
pub mod protocol;
pub mod scene_diff;
pub mod scene_json;
pub mod server;
pub mod service;
pub mod session;
pub mod stats_json;

pub use cache::{CacheConfig, CacheStats, ShardedCache};
pub use compile::{compile_representative, CompiledEntry};
pub use fingerprint::{fingerprint_prepared, fingerprint_sql, Fingerprint, FingerprintedQuery};
pub use frontend::{Frontend, Served};
pub use memo::{L1Memo, MemoStats};
pub use protocol::{Artifacts, ErrorKind, Format, Request, Response, ServiceError};
pub use scene_diff::{apply_patch, diff_scenes, parse_patch_ops, write_patch_ops, PatchOp};
pub use scene_json::{scene_json, scene_json_v2, write_scene_json, write_scene_json_v2};
pub use server::{DrainReport, Server, ServerConfig, ServerHandle};
pub use service::{DiagramService, ServiceConfig, ServiceStats};
pub use session::{SessionConfig, SessionReply, SessionStatsSnapshot, SessionStore};
pub use stats_json::{session_stats_json, stats_snapshot_json, write_trace_jsonl};

/// Every query of the paper corpus as a list of requests — the standard
/// workload of the `service` binary's `--corpus` mode and the throughput
/// benchmark. Ids are assigned in corpus order.
pub fn paper_corpus_requests(formats: &[Format]) -> Vec<Request> {
    let mut sqls: Vec<String> = Vec::new();
    sqls.push(queryvis_corpus::unique_set_sql().to_string());
    sqls.push(queryvis_corpus::qsome_sql().to_string());
    sqls.push(queryvis_corpus::qonly_sql().to_string());
    sqls.extend(
        queryvis_corpus::sailors_only_variants()
            .iter()
            .map(|s| s.to_string()),
    );
    sqls.extend(
        queryvis_corpus::pattern_grid()
            .iter()
            .map(|q| q.sql.clone()),
    );
    sqls.extend(
        queryvis_corpus::study_questions()
            .iter()
            .map(|q| q.sql.to_string()),
    );
    sqls.extend(
        queryvis_corpus::qualification_questions()
            .iter()
            .map(|q| q.sql.to_string()),
    );
    sqls.extend(
        queryvis_corpus::tutorial_examples()
            .iter()
            .map(|e| e.sql.to_string()),
    );
    sqls.into_iter()
        .enumerate()
        .map(|(i, sql)| Request {
            id: i as u64,
            sql,
            formats: formats.to_vec(),
            rows: None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_batch_is_substantial_and_well_formed() {
        let requests = paper_corpus_requests(&[Format::Ascii]);
        assert!(
            requests.len() >= 36,
            "corpus has {} queries",
            requests.len()
        );
        for (i, r) in requests.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert!(!r.sql.is_empty());
        }
    }
}
