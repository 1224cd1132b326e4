//! Shared infrastructure for the SPEX benchmark suite.
//!
//! Every table and figure of the paper's evaluation section (§VI) is
//! regenerated by the `harness` binary (paper-style tables and memory
//! measurements). The per-experiment index lives in DESIGN.md §6; the
//! measured results in EXPERIMENTS.md.
//!
//! The three *processors* compared are the stand-ins defined in
//! `spex-baseline` (see DESIGN.md §5 for the substitution rationale):
//!
//! | paper | here |
//! |---|---|
//! | SPEX prototype | [`Processor::Spex`] |
//! | Saxon 6.5.2 | [`Processor::Dom`] (in-memory set semantics) |
//! | Fxgrep | [`Processor::TreeNfa`] (automaton over the materialized tree) |
//!
//! All processors consume the same pre-parsed event stream, so the
//! comparison isolates *evaluation* strategy (streamed vs materialize) from
//! XML parsing.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod crash;
pub mod diff;
pub mod fault;
pub mod rig;

use spex_baseline::{DomEvaluator, TreeNfaEvaluator};
use spex_core::{CompiledNetwork, CountingSink, EngineStats, Evaluator, TransducerStats};
use spex_query::Rpeq;
use spex_xml::{Document, XmlEvent};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The compared evaluation strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Processor {
    /// The SPEX transducer network (streamed, progressive).
    Spex,
    /// The Saxon stand-in: materialize, then set-semantics evaluation.
    Dom,
    /// The Fxgrep stand-in: materialize, then tree-automaton evaluation.
    TreeNfa,
}

impl Processor {
    /// All processors, in the paper's presentation order.
    pub const ALL: [Processor; 3] = [Processor::Spex, Processor::Dom, Processor::TreeNfa];

    /// Short column label, and the name `harness mem-probe` takes.
    pub fn label(&self) -> &'static str {
        match self {
            Processor::Spex => "spex",
            Processor::Dom => "dom",
            Processor::TreeNfa => "treenfa",
        }
    }
}

/// Outcome of one measured run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Wall-clock time of the evaluation.
    pub elapsed: Duration,
    /// Number of selected nodes.
    pub results: usize,
    /// Engine statistics (SPEX only).
    pub stats: Option<EngineStats>,
    /// Per-transducer snapshots (SPEX only).
    pub transducer_stats: Option<Vec<TransducerStats>>,
    /// Operator steps the VM's schedule took, by node kind (SPEX only; see
    /// `Machine::ops_stepped_by_kind`).
    pub ops_stepped: Option<Vec<(String, u64)>>,
}

/// Evaluate `query` over `events` with `processor`, returning time and
/// result count. For the in-memory processors the timing *includes* building
/// the document tree — that is the cost SPEX avoids, exactly as in the
/// paper's comparison.
pub fn run_query(processor: Processor, query: &Rpeq, events: &[XmlEvent]) -> RunResult {
    if processor == Processor::Spex {
        return run_spex_streaming(query, events.iter().cloned());
    }
    let start = Instant::now();
    let doc = Document::from_events(events.to_vec()).expect("well-formed");
    RunResult {
        results: select_in_tree(processor, &doc, query),
        elapsed: start.elapsed(),
        stats: None,
        transducer_stats: None,
        ops_stepped: None,
    }
}

/// The number of nodes `query` selects in the materialized `doc`, by the
/// in-memory `processor` (`Dom` or `TreeNfa`).
pub fn select_in_tree(processor: Processor, doc: &Document, query: &Rpeq) -> usize {
    match processor {
        Processor::Dom => DomEvaluator::new(doc).evaluate(query).len(),
        _ => TreeNfaEvaluator::new(doc).evaluate(query).len(),
    }
}

/// Evaluate with SPEX over a streaming event source (for datasets too large
/// to buffer).
pub fn run_spex_streaming(query: &Rpeq, events: impl Iterator<Item = XmlEvent>) -> RunResult {
    let network = CompiledNetwork::compile(query);
    let mut sink = CountingSink::new();
    let start = Instant::now();
    let mut eval = Evaluator::new(&network, &mut sink);
    for ev in events {
        eval.push(ev);
    }
    let ops_stepped = eval.ops_stepped_by_kind();
    let (stats, transducers) = eval.finish_full();
    RunResult {
        elapsed: start.elapsed(),
        results: sink.results,
        stats: Some(stats),
        transducer_stats: Some(transducers),
        ops_stepped: Some(ops_stepped),
    }
}

/// Cached MONDIAL events (generated once per process).
pub fn mondial_events() -> &'static [XmlEvent] {
    static EVENTS: OnceLock<Vec<XmlEvent>> = OnceLock::new();
    EVENTS.get_or_init(spex_workloads::mondial)
}

/// Cached WordNet events.
pub fn wordnet_events() -> &'static [XmlEvent] {
    static EVENTS: OnceLock<Vec<XmlEvent>> = OnceLock::new();
    EVENTS.get_or_init(spex_workloads::wordnet)
}

/// The DMOZ scale factor: 1.0 reproduces the paper's 300 MB / 1 GB files.
/// Defaults to 0.1; `SPEX_BENCH_FULL=1` selects full scale and
/// `SPEX_BENCH_SCALE=x` overrides explicitly.
pub fn dmoz_scale() -> f64 {
    if std::env::var_os("SPEX_BENCH_FULL").is_some() {
        return 1.0;
    }
    std::env::var("SPEX_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.1)
}

/// Peak resident set size of this process in kB (Linux `VmHWM`).
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches("kB").trim().parse().ok();
        }
    }
    None
}

/// Serialized byte size of an event stream (the paper's stream size *s*).
pub fn stream_bytes<'a>(events: impl IntoIterator<Item = &'a XmlEvent>) -> u64 {
    events.into_iter().map(|e| e.to_string().len() as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processors_agree_on_mondial_queries() {
        // Small sanity check shared by all benches: every processor counts
        // the same results on the benchmark queries.
        let events: Vec<XmlEvent> =
            spex_workloads::mondial::mondial_with(&spex_workloads::mondial::MondialConfig {
                seed: 11,
                countries: 25,
            });
        for qc in spex_workloads::queries_for(spex_workloads::Dataset::Mondial) {
            let q = qc.rpeq();
            let counts: Vec<usize> = Processor::ALL
                .iter()
                .map(|p| run_query(*p, &q, &events).results)
                .collect();
            assert_eq!(counts[0], counts[1], "class {} spex vs dom", qc.class);
            assert_eq!(counts[1], counts[2], "class {} dom vs nfa", qc.class);
            assert!(counts[0] > 0, "class {} selected nothing", qc.class);
        }
    }

    #[test]
    fn scale_parsing() {
        // Default without env vars.
        if std::env::var_os("SPEX_BENCH_FULL").is_none()
            && std::env::var_os("SPEX_BENCH_SCALE").is_none()
        {
            assert_eq!(dmoz_scale(), 0.1);
        }
    }

    #[test]
    fn peak_rss_readable_on_linux() {
        assert!(peak_rss_kb().unwrap_or(0) > 0);
    }
}
