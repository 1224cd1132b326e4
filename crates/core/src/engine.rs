//! The user-facing evaluator: couples an XML event source with a run of the
//! compiled plan ([`PlanRun`]).
//!
//! ```
//! use spex_core::{CompiledNetwork, Evaluator, FragmentCollector};
//!
//! let net = CompiledNetwork::compile(&"_*.c".parse().unwrap());
//! let mut sink = FragmentCollector::new();
//! let mut eval = Evaluator::new(&net, &mut sink);
//! eval.push_str("<a><c>1</c><b><c>2</c></b></a>").unwrap();
//! let stats = eval.finish();
//! assert_eq!(sink.fragments(), ["<c>1</c>".to_string(), "<c>2</c>".to_string()]);
//! assert_eq!(stats.results, 2);
//! ```

use crate::compile::CompiledNetwork;
use crate::limits::{LimitBreach, LimitKind, ResourceLimits};
use crate::pump::Yield;
use crate::sink::{FragmentCollector, ResultSink};
use crate::stats::{EngineStats, TransducerStats};
#[cfg(doc)]
use crate::vm::Machine;
use crate::vm::PlanRun;
use spex_query::Rpeq;
use spex_xml::{XmlError, XmlEvent};
use std::fmt;

/// Errors surfaced by the evaluator and the convenience functions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The query text did not parse.
    Query(spex_query::ParseError),
    /// The query parsed but lies outside the compilable fragment.
    Compile(crate::compile::CompileError),
    /// The XML stream was malformed.
    Xml(XmlError),
    /// A configured [`ResourceLimits`] cap was exceeded. Recoverable: the
    /// run is drained (already-determined results flushed, buffers
    /// released) but stays queryable for statistics.
    ResourceExhausted {
        /// The exceeded cap.
        kind: LimitKind,
        /// The configured cap value.
        limit: u64,
        /// The measured value that exceeded it.
        observed: u64,
    },
}

impl EvalError {
    /// The failure class and its exit code — the one taxonomy behind the
    /// CLI's exit codes and the server's `e` frames.
    pub fn class(&self) -> (&'static str, i32) {
        match self {
            EvalError::Query(_) | EvalError::Compile(_) => ("usage", 1),
            EvalError::Xml(e) if e.kind().is_syntax_class() => ("syntax", 2),
            EvalError::Xml(_) => ("io", 3),
            EvalError::ResourceExhausted { .. } => ("resource", 4),
        }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Query(e) => write!(f, "{e}"),
            EvalError::Compile(e) => write!(f, "{e}"),
            EvalError::Xml(e) => write!(f, "{e}"),
            EvalError::ResourceExhausted {
                kind,
                limit,
                observed,
            } => {
                write!(
                    f,
                    "{}",
                    LimitBreach {
                        kind: *kind,
                        limit: *limit,
                        observed: *observed
                    }
                )
            }
        }
    }
}

impl std::error::Error for EvalError {
    /// Uniform source chaining: each wrapping variant exposes the
    /// underlying error, so `anyhow`-style consumers and the CLI's exit-code
    /// mapping can walk the chain.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::Query(e) => Some(e),
            EvalError::Compile(e) => Some(e),
            EvalError::Xml(e) => Some(e),
            EvalError::ResourceExhausted { .. } => None,
        }
    }
}

impl From<LimitBreach> for EvalError {
    fn from(b: LimitBreach) -> Self {
        EvalError::ResourceExhausted {
            kind: b.kind,
            limit: b.limit,
            observed: b.observed,
        }
    }
}

impl From<spex_query::ParseError> for EvalError {
    fn from(e: spex_query::ParseError) -> Self {
        EvalError::Query(e)
    }
}

impl From<XmlError> for EvalError {
    fn from(e: XmlError) -> Self {
        EvalError::Xml(e)
    }
}

impl From<crate::compile::CompileError> for EvalError {
    fn from(e: crate::compile::CompileError) -> Self {
        EvalError::Compile(e)
    }
}

/// A streaming evaluation of one compiled query over one stream.
///
/// Push events (or whole documents) as they arrive; results reach the sink
/// progressively. The evaluator survives multiple consecutive documents on
/// the same stream (each `<$>…</$>` pair is processed independently, as in
/// the paper's infinite-stream experiments) — transducer stacks are balanced
/// and return to their initial states at every `</$>`.
///
/// This is the in-process convenience over a [`PlanRun`]: owned events,
/// strings and readers. Byte streams go through the pump's event loop
/// ([`Evaluator::push_from`]); a caller that feeds bytes as they arrive,
/// checkpoints, or recovers from malformed input runs a
/// [`crate::Pump`].
///
/// The evaluator derefs to its [`PlanRun`] (and through it to the
/// [`Machine`]): `push` and `try_push` feed owned events, and `stats`,
/// `reset_session`, `checkpoint`, `set_tracer`, `determination_latency` and
/// the rest read or steer the run directly.
pub struct Evaluator<S: ResultSink> {
    run: PlanRun<S>,
}

impl<S: ResultSink> std::ops::Deref for Evaluator<S> {
    type Target = PlanRun<S>;

    fn deref(&self) -> &PlanRun<S> {
        &self.run
    }
}

impl<S: ResultSink> std::ops::DerefMut for Evaluator<S> {
    fn deref_mut(&mut self) -> &mut PlanRun<S> {
        &mut self.run
    }
}

impl<S: ResultSink> Evaluator<S> {
    /// Start an evaluation of the single-query `network` delivering results
    /// to `sink`. The evaluation owns `sink`; pass `&mut sink` to read it
    /// afterwards (a driver that needs its sink back by value runs a
    /// [`PlanRun`] itself).
    pub fn new(network: &CompiledNetwork, sink: S) -> Self {
        Evaluator {
            run: network.run(vec![sink]),
        }
    }

    /// Like [`Evaluator::new`], with resource caps attached. Each cap is
    /// checked after every event; a breached run returns
    /// [`EvalError::ResourceExhausted`] from the push methods and refuses
    /// further input, but statistics remain readable and results already
    /// determined have reached the sink.
    pub fn with_limits(network: &CompiledNetwork, sink: S, limits: ResourceLimits) -> Self {
        Evaluator {
            run: network.run_with_limits(vec![sink], limits),
        }
    }

    /// Parse `xml` and feed every event (one complete document).
    pub fn push_str(&mut self, xml: &str) -> Result<(), EvalError> {
        let mut reader = spex_xml::Reader::from_bytes(xml.as_bytes().to_vec());
        self.push_from(&mut reader)
    }

    /// Feed every event from a byte source (streaming, constant memory).
    pub fn push_reader<R: std::io::Read>(&mut self, input: R) -> Result<(), EvalError> {
        let mut reader = spex_xml::Reader::new(input);
        self.push_from(&mut reader)
    }

    /// Drain an already-configured reader through the pump's event loop
    /// ([`crate::pump`]): each event is parsed straight into the run's event
    /// arena and pushed by handle, so the hot loop moves `u32`s, not
    /// strings, and the run is reset at every `</$>`. Stops at the first
    /// reader error or resource-limit breach.
    pub fn push_from<R: std::io::Read>(
        &mut self,
        reader: &mut spex_xml::Reader<R>,
    ) -> Result<(), EvalError> {
        loop {
            let (machine, sinks) = self.run.parts();
            match crate::pump::pump_events(reader, machine, sinks, usize::MAX)? {
                Yield::NeedMore => reader.fill(),
                Yield::End => return Ok(()),
                Yield::Boundary | Yield::Budget => {}
            }
        }
    }

    /// Finish the evaluation, flushing the output transducer.
    pub fn finish(self) -> EngineStats {
        self.run.finish()
    }

    /// Like [`Evaluator::finish`], also returning the per-transducer
    /// snapshots.
    pub fn finish_full(self) -> (EngineStats, Vec<TransducerStats>) {
        self.run.finish_full()
    }
}

/// Evaluate a query (text syntax) against a complete XML document, returning
/// the serialized result fragments in document order.
pub fn evaluate_str(query: &str, xml: &str) -> Result<Vec<String>, EvalError> {
    let q: Rpeq = query.parse()?;
    let net = CompiledNetwork::try_compile(&q)?;
    let mut sink = FragmentCollector::new();
    let mut eval = Evaluator::new(&net, &mut sink);
    eval.push_str(xml)?;
    eval.finish();
    Ok(sink.into_fragments())
}

/// Evaluate a parsed query against an event sequence.
pub fn evaluate_events(
    query: &Rpeq,
    events: impl IntoIterator<Item = XmlEvent>,
) -> (Vec<String>, EngineStats) {
    let net = CompiledNetwork::compile(query);
    let mut sink = FragmentCollector::new();
    let mut eval = Evaluator::new(&net, &mut sink);
    for ev in events {
        eval.push(ev);
    }
    let stats = eval.finish();
    (sink.into_fragments(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG1: &str = "<a><a><c/></a><b/><c/></a>";

    #[test]
    fn example_iii_1_child_steps() {
        // `a.c` selects c-children of a-children of the root: only the
        // second <c>.
        assert_eq!(evaluate_str("a.c", FIG1).unwrap(), vec!["<c></c>"]);
    }

    #[test]
    fn example_iii_2_closures() {
        // `a+.c+` selects both <c> elements (each reached through a chain of
        // a's then a chain of c's).
        assert_eq!(
            evaluate_str("a+.c+", FIG1).unwrap(),
            vec!["<c></c>", "<c></c>"]
        );
    }

    #[test]
    fn complete_example_iii_10() {
        // `_*.a[b].c`: candidate₁ (the inner c) is dropped — its a-parent
        // has no b child; candidate₂ (the outer c) is a result.
        assert_eq!(evaluate_str("_*.a[b].c", FIG1).unwrap(), vec!["<c></c>"]);
    }

    #[test]
    fn wildcard_and_descendants() {
        let xml = "<r><x><y/></x><y/></r>";
        assert_eq!(
            evaluate_str("_*.y", xml).unwrap(),
            vec!["<y></y>", "<y></y>"]
        );
        assert_eq!(evaluate_str("r.y", xml).unwrap(), vec!["<y></y>"]);
        assert_eq!(evaluate_str("r.x.y", xml).unwrap(), vec!["<y></y>"]);
    }

    #[test]
    fn nested_results_from_wildcard_query() {
        // Class-3 query `_*._`: every element is a result, fragments nest.
        let frags = evaluate_str("_*._", "<r><x><y/></x></r>").unwrap();
        assert_eq!(
            frags,
            vec!["<r><x><y></y></x></r>", "<x><y></y></x>", "<y></y>"]
        );
    }

    #[test]
    fn union_queries() {
        let xml = "<r><x/><y/><z/></r>";
        assert_eq!(
            evaluate_str("r.(x|z)", xml).unwrap(),
            vec!["<x></x>", "<z></z>"]
        );
    }

    #[test]
    fn optional_queries() {
        let xml = "<r><x><y/></x><y/></r>";
        // r.x?.y — y children of r or of x-children of r.
        let frags = evaluate_str("r.x?.y", xml).unwrap();
        assert_eq!(frags, vec!["<y></y>", "<y></y>"]);
    }

    #[test]
    fn star_queries() {
        let xml = "<r><a><a><b/></a></a><b/></r>";
        // r.a*.b — b children of r, r/a, r/a/a.
        let frags = evaluate_str("r.a*.b", xml).unwrap();
        assert_eq!(frags, vec!["<b></b>", "<b></b>"]);
    }

    #[test]
    fn epsilon_selects_the_document() {
        let frags = evaluate_str("%", "<r><x/></r>").unwrap();
        assert_eq!(frags, vec!["<r><x></x></r>"]);
    }

    #[test]
    fn qualifier_with_descendant_condition() {
        let xml = "<lib><book><meta><isbn/></meta></book><book/></lib>";
        // Books having an isbn somewhere below.
        let frags = evaluate_str("lib.book[_*.isbn]", xml).unwrap();
        assert_eq!(frags, vec!["<book><meta><isbn></isbn></meta></book>"]);
    }

    #[test]
    fn past_conditions_stream_immediately() {
        // Class-4 style: the qualifier is satisfied *before* the candidate
        // appears, so the result streams without buffering.
        let xml = "<r><a><b/><c>late</c></a></r>";
        let q: Rpeq = "_*.a[b].c".parse().unwrap();
        let net = CompiledNetwork::compile(&q);
        let mut sink = FragmentCollector::new();
        let mut eval = Evaluator::new(&net, &mut sink);
        eval.push_str(xml).unwrap();
        eval.finish();
        assert_eq!(sink.fragments(), ["<c>late</c>".to_string()]);
        let (start, first_delivery) = sink.timing[0];
        // Delivered the moment it started: past condition.
        assert_eq!(start, first_delivery);
    }

    #[test]
    fn future_conditions_buffer_until_determined() {
        // Class-2 style: the qualifier is satisfied *after* the candidate.
        let xml = "<r><a><c>early</c><b/></a></r>";
        let q: Rpeq = "_*.a[b].c".parse().unwrap();
        let net = CompiledNetwork::compile(&q);
        let mut sink = FragmentCollector::new();
        let mut eval = Evaluator::new(&net, &mut sink);
        eval.push_str(xml).unwrap();
        eval.finish();
        assert_eq!(sink.fragments(), ["<c>early</c>".to_string()]);
        let (start, first_delivery) = sink.timing[0];
        assert!(first_delivery > start, "future condition must buffer");
    }

    #[test]
    fn text_content_is_preserved_in_fragments() {
        let frags = evaluate_str("r.x", "<r><x a=\"1\">t<y>u</y>v</x></r>").unwrap();
        assert_eq!(frags, vec![r#"<x a="1">t<y>u</y>v</x>"#]);
    }

    #[test]
    fn multiple_documents_on_one_stream() {
        // SDI scenario: consecutive documents, same evaluator.
        let q: Rpeq = "r.x".parse().unwrap();
        let net = CompiledNetwork::compile(&q);
        let mut sink = FragmentCollector::new();
        let mut eval = Evaluator::new(&net, &mut sink);
        for _ in 0..3 {
            eval.push_str("<r><x/></r>").unwrap();
        }
        let stats = eval.finish();
        assert_eq!(sink.fragments().len(), 3);
        assert_eq!(stats.results, 3);
    }

    #[test]
    fn session_reuse_keeps_arena_and_symbols_bounded() {
        // Satellite regression, on the VM and the reference executor: 1000
        // documents with disjoint vocabularies through one run. Without the
        // between-document reset the symbol table would grow by one name
        // per document; with it both the table and the arena high-water
        // mark stay bounded by a single document's footprint.
        fn check(engine: &str, stats: &EngineStats, delivered: usize, first_doc_peak: usize) {
            assert_eq!(stats.results, 1000, "{engine}");
            assert_eq!(delivered, 1000, "{engine}");
            // Symbols: $, r, x, plus at most one live per-document name.
            assert!(
                stats.interned_symbols <= 4,
                "symbol table leaked on {engine}: {} interned",
                stats.interned_symbols
            );
            // The arena never held more than one document's events
            // (documents grow by ~one digit of the counter; allow slack
            // for that).
            assert!(
                stats.peak_arena_bytes <= first_doc_peak + 64,
                "arena leaked on {engine}: peak {} vs first-document peak {}",
                stats.peak_arena_bytes,
                first_doc_peak
            );
        }
        // `Evaluator` derefs to a `PlanRun`, the reference `Run` to its
        // `Machine`: the same method names on both, no shared trait.
        macro_rules! thousand_documents {
            ($run:expr) => {{
                let mut run = $run;
                let mut first_doc_peak = 0;
                for i in 0..1000 {
                    let xml = format!("<r><unique{i}/><x>doc {i}</x></r>");
                    for ev in spex_xml::reader::parse_events(&xml).unwrap() {
                        run.push(ev);
                    }
                    if i == 0 {
                        first_doc_peak = run.stats().peak_arena_bytes;
                    }
                    run.reset_session();
                }
                (run.finish(), first_doc_peak)
            }};
        }
        let q: Rpeq = "r.x".parse().unwrap();
        let net = CompiledNetwork::compile(&q);
        let mut sink = FragmentCollector::new();
        let (stats, peak) = thousand_documents!(Evaluator::new(&net, &mut sink));
        check("vm", &stats, sink.fragments().len(), peak);
        let mut sink = FragmentCollector::new();
        let (stats, peak) =
            thousand_documents!(crate::network::Run::new(net.spec(), vec![&mut sink]));
        check("reference", &stats, sink.fragments().len(), peak);
    }

    #[test]
    fn reset_session_discards_stale_candidates() {
        // Cut a document off while a candidate is still buffered
        // undetermined; after the reset the next document must see none of
        // it.
        let q: Rpeq = "_*.a[b].c".parse().unwrap();
        let net = CompiledNetwork::compile(&q);
        let mut sink = FragmentCollector::new();
        let mut eval = Evaluator::new(&net, &mut sink);
        let events = spex_xml::reader::parse_events("<a><c>stale</c><b/></a>").unwrap();
        // Stop right after </c>: the candidate is complete but its
        // b-qualifier is still undetermined, so it sits buffered.
        for ev in events.iter().take(5) {
            eval.push(ev.clone());
        }
        assert!(eval.stats().peak_buffered_events > 0);
        eval.reset_session();
        eval.push_str("<a><c>fresh</c><b/></a>").unwrap();
        eval.finish();
        assert_eq!(sink.fragments(), ["<c>fresh</c>".to_string()]);
    }

    #[test]
    fn no_match_no_results() {
        assert!(evaluate_str("nope", FIG1).unwrap().is_empty());
        assert!(evaluate_str("a.nope.c", FIG1).unwrap().is_empty());
        assert!(evaluate_str("_*.a[nope]", FIG1).unwrap().is_empty());
    }

    #[test]
    fn query_errors_reported() {
        assert!(matches!(
            evaluate_str("a..b", "<a/>"),
            Err(EvalError::Query(_))
        ));
        assert!(matches!(evaluate_str("a", "<a"), Err(EvalError::Xml(_))));
    }

    #[test]
    fn stats_populated() {
        let q: Rpeq = "_*.a[b].c".parse().unwrap();
        let (frags, stats) = evaluate_events(&q, spex_xml::reader::parse_events(FIG1).unwrap());
        assert_eq!(frags.len(), 1);
        assert_eq!(stats.ticks, 12);
        assert_eq!(stats.vars_created, 2); // co1, co2 of §III.10
        assert_eq!(stats.candidates_created, 2); // candidate1 and candidate2
        assert_eq!(stats.results, 1);
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.max_stream_depth, 4); // $, a, a, c
    }
}
