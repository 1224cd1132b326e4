//! Server-wide statistics: session counters plus the aggregated
//! [`EngineStats`] of every completed session.
//!
//! The JSON rendering deliberately *is* the one-shot CLI's `--stats-json`
//! schema (`spex_core::stats_json`) with two additions spliced in before the
//! closing brace: a `faults` object in the exact shape the one-shot schema
//! uses under a recovery policy, and a `server` object with the
//! serve-specific counters. Line-scanning tooling written for the one-shot
//! schema parses a server dump unchanged.

use spex_core::{EngineStats, FaultTotals};
use spex_xml::Fault;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Thread-safe server-wide statistics. Counters are atomics; the aggregated
/// engine statistics and fault totals sit behind a mutex taken once per
/// completed session.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted and queued.
    pub sessions_started: AtomicU64,
    /// Sessions that ran to a clean `END`.
    pub sessions_completed: AtomicU64,
    /// Connections rejected with `BUSY` by admission control.
    pub sessions_rejected: AtomicU64,
    /// Sessions closed early by an error (protocol, syntax, I/O, resource).
    pub sessions_failed: AtomicU64,
    /// Documents evaluated across all sessions.
    pub documents: AtomicU64,
    /// Compiled-plan cache hits on registration.
    pub plan_cache_hits: AtomicU64,
    /// Compiled-plan cache misses (fresh compilations).
    pub plan_cache_misses: AtomicU64,
    /// Durable session logs rolled (a snapshot written at a document
    /// boundary, DESIGN.md §15).
    pub checkpoints: AtomicU64,
    engine: Mutex<(EngineStats, FaultTotals)>,
}

impl ServerStats {
    /// Fresh zeroed statistics.
    pub fn new() -> Self {
        ServerStats::default()
    }

    /// Fold one completed session's engine statistics into the aggregate.
    pub fn absorb_engine(&self, stats: &EngineStats) {
        let mut guard = self.engine.lock().expect("stats mutex poisoned");
        guard.0.absorb(stats);
    }

    /// Fold one recovery session's fault accounting into the aggregate.
    pub fn absorb_faults(
        &self,
        faults: &[Fault],
        truncated: bool,
        delivered: u64,
        quarantined: u64,
    ) {
        let mut guard = self.engine.lock().expect("stats mutex poisoned");
        guard.1.absorb(faults, truncated, delivered, quarantined);
    }

    /// Snapshot the aggregated engine statistics.
    pub fn engine_totals(&self) -> EngineStats {
        self.engine.lock().expect("stats mutex poisoned").0.clone()
    }

    /// Render the server statistics as one line of JSON in the one-shot
    /// `--stats-json` schema (empty `transducers` array — per-node rows are
    /// per-session, reported in each session's `STAT` frame), extended with
    /// a `faults` object when any recovery session ran and a `server`
    /// counters object.
    pub fn to_json(&self) -> String {
        let (engine, faults) = {
            let guard = self.engine.lock().expect("stats mutex poisoned");
            (guard.0.clone(), guard.1.clone())
        };
        let mut out = spex_core::stats_json(&engine, &[], None);
        // The pop must happen in release builds too — inside a
        // debug_assert! it would be compiled out and the sections below
        // would land after the closing brace.
        let closing = out.pop();
        debug_assert_eq!(closing, Some('}'));
        if faults.total > 0 || faults.truncated_sessions > 0 {
            faults.push_json(&mut out);
        }
        out.push_str(&format!(
            ",\"server\":{{\"sessions_started\":{},\"sessions_completed\":{},\
             \"sessions_rejected\":{},\"sessions_failed\":{},\"documents\":{},\
             \"plan_cache_hits\":{},\"plan_cache_misses\":{},\"checkpoints\":{}}}",
            self.sessions_started.load(Ordering::Relaxed),
            self.sessions_completed.load(Ordering::Relaxed),
            self.sessions_rejected.load(Ordering::Relaxed),
            self.sessions_failed.load(Ordering::Relaxed),
            self.documents.load(Ordering::Relaxed),
            self.plan_cache_hits.load(Ordering::Relaxed),
            self.plan_cache_misses.load(Ordering::Relaxed),
            self.checkpoints.load(Ordering::Relaxed),
        ));
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spex_xml::FaultKind;

    /// Brace depth of a JSON blob with no braces inside strings — zero for
    /// a well-formed object, nonzero when a section was spliced in after
    /// the closing brace.
    fn brace_depth(json: &str) -> i64 {
        json.chars().fold(0, |d, c| match c {
            '{' => d + 1,
            '}' => d - 1,
            _ => d,
        })
    }

    #[test]
    fn json_extends_the_one_shot_schema() {
        let stats = ServerStats::new();
        let e = EngineStats {
            ticks: 7,
            results: 3,
            peak_arena_bytes: 100,
            interned_symbols: 5,
            ..EngineStats::default()
        };
        stats.absorb_engine(&e);
        stats.sessions_started.fetch_add(2, Ordering::Relaxed);
        stats.sessions_completed.fetch_add(1, Ordering::Relaxed);
        let json = stats.to_json();
        // One-shot schema keys are all present…
        for key in [
            "\"ticks\":7",
            "\"results\":3",
            "\"peak_arena_bytes\":100",
            "\"interned_symbols\":5",
            "\"transducers\":[]",
        ] {
            assert!(json.contains(key), "{key} missing in {json}");
        }
        // …plus the server section.
        assert!(json.contains("\"server\":{\"sessions_started\":2"));
        assert!(json.contains("\"plan_cache_misses\":0,\"checkpoints\":0}"));
        // No recovery sessions ran: no faults key, like a Strict one-shot.
        assert!(!json.contains("\"faults\""));
        assert!(json.ends_with('}'));
        assert_eq!(brace_depth(&json), 0, "unbalanced: {json}");
    }

    #[test]
    fn fault_totals_render_in_one_shot_shape() {
        let stats = ServerStats::new();
        let fault = Fault {
            kind: FaultKind::StrayClose,
            position: spex_xml::Position {
                offset: 12,
                line: 1,
                column: 13,
            },
            action: spex_xml::FaultAction::Dropped,
            detail: String::new(),
            event_from: 3,
            event_to: 5,
        };
        stats.absorb_faults(&[fault], false, 4, 1);
        let json = stats.to_json();
        assert!(json.contains("\"faults\":{\"total\":1,\"truncated\":false"));
        assert!(json.contains("\"delivered\":4"));
        assert!(json.contains("\"quarantined\":1"));
        assert!(json.contains("\"stray-close\":1"));
        assert!(json.contains("\"first\":{\"kind\":\"stray-close\",\"offset\":12"));
        assert_eq!(brace_depth(&json), 0, "unbalanced: {json}");
    }

    #[test]
    fn engine_totals_add_counters_and_max_peaks() {
        let stats = ServerStats::new();
        let a = EngineStats {
            ticks: 5,
            peak_arena_bytes: 10,
            ..EngineStats::default()
        };
        let b = EngineStats {
            ticks: 7,
            peak_arena_bytes: 4,
            ..EngineStats::default()
        };
        stats.absorb_engine(&a);
        stats.absorb_engine(&b);
        let total = stats.engine_totals();
        assert_eq!(total.ticks, 12);
        assert_eq!(total.peak_arena_bytes, 10);
    }
}
