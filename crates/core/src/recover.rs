//! Fault-tolerant evaluation: recovery policies, truncation handling and
//! the [`RunReport`] surfaced instead of a bare error.
//!
//! This is the engine half of the recovery layer (the reader half lives in
//! `spex_xml::recover`). A [`crate::Pump`] under a recovery policy — and so
//! [`evaluate_recovering`], its one-shot form — drives a repaired event
//! stream through a compiled network while *quarantining* results whose
//! lifetime overlaps a repaired region:
//!
//! 1. The reader runs under a `Repair`/`SkipSubtree` policy and reports
//!    each fix as a [`Fault`] carrying a damage interval in event ticks.
//! 2. All result fragments are buffered (with their `[start_tick,
//!    last_delivery_tick]` lifetime) instead of being forwarded directly.
//! 3. At end of stream, fragments overlapping any damage interval are
//!    dropped; the rest are replayed into the caller's sink in order.
//!
//! Because the query language is purely structural and every repair's
//! damage interval conservatively covers the events whose tree position may
//! differ from the clean stream, the surviving fragments are — for the
//! fault classes produced by the mutators in `spex-bench` — a *subset* of
//! the clean-stream oracle results. `tests/recovery.rs` checks exactly
//! this, mutant by mutant.
//!
//! Truncation (unexpected EOF, or a failing transport mid-stream) gets a
//! dedicated knob, [`TruncationOutcome`]: candidates still undetermined
//! when the stream breaks off either drop ([`TruncationOutcome::Drop`],
//! the sound default) or resolve against the synthesized closes
//! ([`TruncationOutcome::ForceFalse`] — "the missing suffix contains
//! nothing", which can only turn qualifiers false, never fabricate them).

use crate::compile::CompiledNetwork;
use crate::engine::EvalError;
use crate::limits::{LimitBreach, ResourceLimits};
use crate::pump::Pump;
use crate::sink::{ResultMeta, ResultSink};
use crate::stats::{EngineStats, TransducerStats};
use spex_xml::{EventStore, Fault, FaultKind, RawEvent, RecoveryPolicy};
use std::io::Read;

/// How candidates still undetermined at an unexpected end of stream are
/// resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TruncationOutcome {
    /// Drop every fragment whose lifetime reaches the truncation point
    /// (the sound default: nothing is claimed about the missing suffix).
    #[default]
    Drop,
    /// Evaluate against the synthesized closes: conditions that needed the
    /// missing suffix resolve as if the stream ended there ("force false").
    /// Fragments already determined true are emitted, with their synthesized
    /// closes included.
    ForceFalse,
}

impl TruncationOutcome {
    /// Stable lowercase name (used by the CLI and in JSON output).
    pub fn as_str(&self) -> &'static str {
        match self {
            TruncationOutcome::Drop => "drop",
            TruncationOutcome::ForceFalse => "force-false",
        }
    }
}

impl std::fmt::Display for TruncationOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for TruncationOutcome {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "drop" => Ok(TruncationOutcome::Drop),
            "force-false" => Ok(TruncationOutcome::ForceFalse),
            other => Err(format!(
                "unknown truncation outcome `{other}` (expected drop or force-false)"
            )),
        }
    }
}

/// Configuration for a fault-tolerant run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryOptions {
    /// The reader-side repair policy.
    pub policy: RecoveryPolicy,
    /// What to do with fragments overlapping a truncation.
    pub on_truncation: TruncationOutcome,
    /// Treat the input as a sequence of documents (see
    /// [`spex_xml::Reader::multi_document`]).
    pub multi_document: bool,
    /// Which byte-scanning strategy the reader uses (see
    /// [`spex_xml::ScannerKind`]; defaults to the SWAR fast path, with
    /// `Classic` retained as the differential oracle).
    pub scanner: spex_xml::ScannerKind,
}

/// The outcome of a fault-tolerant run: what was delivered, what was
/// repaired, and what had to be withheld.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Every fault repaired or contained by the reader, in stream order.
    pub faults: Vec<Fault>,
    /// Did the stream end prematurely (EOF / transport failure)?
    pub truncated: bool,
    /// Fragments delivered to the sink.
    pub results: u64,
    /// Fragments withheld because their lifetime overlapped a damage
    /// interval (quarantined).
    pub dropped: u64,
    /// A resource-limit breach, if the run was drained early (the report is
    /// still produced; see `ResourceLimits`).
    pub exhausted: Option<LimitBreach>,
    /// Engine statistics for the run.
    pub stats: EngineStats,
    /// Per-transducer statistics for the run.
    pub transducers: Vec<TransducerStats>,
}

impl RunReport {
    /// Count of recorded faults of `kind`.
    pub fn fault_count(&self, kind: FaultKind) -> usize {
        self.faults.iter().filter(|f| f.kind == kind).count()
    }
}

/// One buffered result fragment with its delivery lifetime.
struct BufferedFragment {
    start: u64,
    last: u64,
    delivered: u64,
    /// Push indices of its events in the quarantine's store.
    events: std::ops::Range<usize>,
}

/// Buffers all fragments until end of run so damaged ones can be withheld.
///
/// Under a recovery policy a [`crate::Pump`] holds one per query in front
/// of the caller's sink, carries its fragments across snapshots, and
/// [`Quarantine::drain_into`]s the survivors once the reader's faults are
/// known — the one drain every recovering caller (one-shot, `spex serve`,
/// crash-diff) shares. The fragments' events outlive the run's arena, so
/// they are copied into a store of the quarantine's own.
pub(crate) struct Quarantine {
    store: EventStore,
    done: Vec<BufferedFragment>,
    current: Option<BufferedFragment>,
}

impl Quarantine {
    /// An empty quarantine buffer.
    #[must_use]
    pub fn new() -> Self {
        Quarantine {
            store: EventStore::new(),
            done: Vec::new(),
            current: None,
        }
    }

    /// Export the buffered fragments for a durable checkpoint.
    ///
    /// Only complete fragments are exported; checkpoints are taken at
    /// document boundaries, where no fragment is mid-delivery (`current` is
    /// `None`). The returned states round-trip through
    /// [`Quarantine::import_fragments`] so a restarted session withholds
    /// exactly the fragments the uninterrupted run would have. The owned
    /// events of the snapshot's form are built here, at the checkpoint only.
    #[must_use]
    pub fn export_fragments(&self) -> Vec<crate::snapshot::FragmentState> {
        self.done
            .iter()
            .map(|f| crate::snapshot::FragmentState {
                start: f.start,
                last: f.last,
                delivered: f.delivered,
                events: self
                    .store
                    .ids(f.events.clone())
                    .map(|id| self.store.get(id).to_owned_event())
                    .collect(),
            })
            .collect()
    }

    /// Restore fragments exported by [`Quarantine::export_fragments`] into
    /// this (empty) buffer, ahead of any fragments the resumed stream
    /// produces.
    pub fn import_fragments(&mut self, frags: &[crate::snapshot::FragmentState]) {
        for f in frags {
            let from = self.store.len();
            for event in &f.events {
                self.store.push_view(&event.into());
            }
            self.done.push(BufferedFragment {
                start: f.start,
                last: f.last,
                delivered: f.delivered,
                events: from..self.store.len(),
            });
        }
    }

    /// Replay the buffered fragments into `sink` in document order,
    /// withholding every fragment whose `[start, last]` lifetime overlaps a
    /// damage interval in `faults`. With
    /// [`TruncationOutcome::ForceFalse`], truncation faults do not taint
    /// (the synthesized closes are part of the result). Returns
    /// `(delivered, dropped)` counts and leaves the buffer (and its store)
    /// empty for the next document.
    pub fn drain_into(
        &mut self,
        faults: &[Fault],
        on_truncation: TruncationOutcome,
        sink: &mut dyn ResultSink,
    ) -> (u64, u64) {
        let exempt_truncation = on_truncation == TruncationOutcome::ForceFalse;
        let mut results = 0u64;
        let mut dropped = 0u64;
        self.current = None;
        for frag in self.done.drain(..) {
            let damaged = faults.iter().any(|f| {
                if exempt_truncation && f.kind == FaultKind::Truncated {
                    return false;
                }
                f.overlaps(frag.start, frag.last)
            });
            if damaged {
                dropped += 1;
                continue;
            }
            results += 1;
            sink.begin(
                ResultMeta {
                    start_tick: frag.start,
                },
                frag.delivered,
            );
            for id in self.store.ids(frag.events) {
                sink.event(&self.store.get(id), frag.delivered);
            }
            sink.end(frag.last);
        }
        self.store.reset();
        (results, dropped)
    }
}

impl ResultSink for Quarantine {
    fn begin(&mut self, meta: ResultMeta, now: u64) {
        let at = self.store.len();
        self.current = Some(BufferedFragment {
            start: meta.start_tick,
            last: now,
            delivered: now,
            events: at..at,
        });
    }

    fn event(&mut self, event: &RawEvent<'_>, now: u64) {
        if let Some(cur) = &mut self.current {
            self.store.push_view(event);
            cur.events.end = self.store.len();
            cur.last = cur.last.max(now);
        }
    }

    fn end(&mut self, now: u64) {
        if let Some(mut cur) = self.current.take() {
            cur.last = cur.last.max(now);
            self.done.push(cur);
        }
    }
}

/// Evaluate a (possibly corrupted) XML byte stream against a compiled
/// network under a recovery policy, delivering surviving fragments to
/// `sink` and returning a [`RunReport`] instead of a bare error.
///
/// A one-shot [`Pump`] over `input`. With [`RecoveryPolicy::Strict`] this
/// behaves like a plain [`crate::Evaluator::push_reader`] run: the first
/// input fault is returned as an error. Under `Repair`/`SkipSubtree`, input
/// faults are repaired by the reader and any fragment whose lifetime
/// overlaps a repaired region is quarantined (counted in
/// [`RunReport::dropped`], not delivered). A resource-limit breach does not
/// abort either: the run drains what was determined and the breach is
/// reported in [`RunReport::exhausted`].
pub fn evaluate_recovering<R: Read>(
    network: &CompiledNetwork,
    mut input: R,
    options: RecoveryOptions,
    limits: ResourceLimits,
    sink: &mut dyn ResultSink,
) -> Result<RunReport, EvalError> {
    let run = network.run_with_limits(vec![sink], limits);
    let mut pump = Pump::new(run, options);
    match pump.run_from(&mut input) {
        Ok(()) | Err(EvalError::ResourceExhausted { .. }) => {}
        Err(e) => return Err(e),
    }
    let exhausted = pump.machine().exhausted();
    let done = pump.finish();
    // Strict runs stream straight into `sink`: nothing was withheld.
    Ok(done.report.unwrap_or(RunReport {
        faults: Vec::new(),
        truncated: false,
        results: done.stats.results,
        dropped: 0,
        exhausted,
        stats: done.stats,
        transducers: done.transducers,
    }))
}

/// Convenience wrapper: compile `query`, run [`evaluate_recovering`] over
/// `xml`, and return the surviving fragments (serialized) plus the report.
pub fn evaluate_str_recovering(
    query: &str,
    xml: &str,
    options: RecoveryOptions,
) -> Result<(Vec<String>, RunReport), EvalError> {
    let q: spex_query::Rpeq = query.parse()?;
    let network = CompiledNetwork::compile(&q);
    let mut collector = crate::sink::FragmentCollector::new();
    let report = evaluate_recovering(
        &network,
        std::io::Cursor::new(xml.as_bytes().to_vec()),
        options,
        ResourceLimits::default(),
        &mut collector,
    )?;
    Ok((collector.into_fragments(), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate_str;

    fn repair() -> RecoveryOptions {
        RecoveryOptions {
            policy: RecoveryPolicy::Repair,
            ..RecoveryOptions::default()
        }
    }

    #[test]
    fn clean_stream_matches_plain_evaluation() {
        let xml = "<a><a><c/></a><b/><c/></a>";
        let query = "_*.a[b].c";
        let (frags, report) = evaluate_str_recovering(query, xml, repair()).unwrap();
        assert_eq!(frags, evaluate_str(query, xml).unwrap());
        assert!(report.faults.is_empty());
        assert!(!report.truncated);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.results, 1);
    }

    #[test]
    fn strict_policy_surfaces_errors() {
        let err =
            evaluate_str_recovering("a", "<a><b></a>", RecoveryOptions::default()).unwrap_err();
        assert!(matches!(err, EvalError::Xml(_)));
    }

    #[test]
    fn damaged_fragments_are_quarantined() {
        // `</b>` deleted: the close of `a` auto-closes `b`; the root's
        // fragment contains repaired events and is withheld, while the
        // clean sibling `<c/>` result survives.
        let xml = "<a><b><x/><c/></a>";
        let (frags, report) = evaluate_str_recovering("_*.c", xml, repair()).unwrap();
        // `<c/>` sits inside the damaged region (its position moved), so
        // even it is quarantined: subset-soundness over completeness.
        assert!(frags.is_empty(), "got {frags:?}");
        assert_eq!(report.dropped, 1);
        assert_eq!(report.fault_count(FaultKind::MismatchedClose), 1);
    }

    #[test]
    fn fragments_before_the_damage_survive() {
        // A stray close taints back to the *innermost open* element's start
        // (`<x>` here) — the earlier sibling subtree `<a>` closed before
        // that, so its fragment survives the quarantine.
        let xml = "<r><a><b/></a><x></nope></x></r>";
        let (frags, report) = evaluate_str_recovering("r.a", xml, repair()).unwrap();
        assert_eq!(frags, vec!["<a><b></b></a>"]);
        assert_eq!(report.fault_count(FaultKind::StrayClose), 1);
        assert_eq!(report.results, 1);
        assert_eq!(report.dropped, 0);
    }

    #[test]
    fn truncation_drop_withholds_open_candidates() {
        // The stream breaks off inside `<b>`: under `Drop`, candidates
        // reaching the truncation point are withheld.
        let xml = "<a><c/><b><x/>";
        let (frags, report) = evaluate_str_recovering("a.b", xml, repair()).unwrap();
        assert!(frags.is_empty());
        assert!(report.truncated);
        assert_eq!(report.dropped, 1);
    }

    #[test]
    fn truncation_force_false_emits_repaired_fragments() {
        let xml = "<a><c/><b><x/>";
        let options = RecoveryOptions {
            policy: RecoveryPolicy::Repair,
            on_truncation: TruncationOutcome::ForceFalse,
            ..RecoveryOptions::default()
        };
        let (frags, report) = evaluate_str_recovering("a.b", xml, options).unwrap();
        // The synthesized `</b>` completes the fragment.
        assert_eq!(frags, vec!["<b><x></x></b>"]);
        assert!(report.truncated);
        assert_eq!(report.dropped, 0);
    }

    #[test]
    fn completed_results_survive_a_later_truncation() {
        // `a.c` matched and closed before the stream broke: emitted under
        // both truncation outcomes.
        let xml = "<a><c><y/></c><b>";
        for outcome in [TruncationOutcome::Drop, TruncationOutcome::ForceFalse] {
            let options = RecoveryOptions {
                policy: RecoveryPolicy::Repair,
                on_truncation: outcome,
                ..RecoveryOptions::default()
            };
            let (frags, report) = evaluate_str_recovering("a.c", xml, options).unwrap();
            assert_eq!(frags, vec!["<c><y></y></c>"], "under {outcome}");
            assert!(report.truncated);
        }
    }

    #[test]
    fn resource_breach_is_reported_not_raised() {
        let xml = "<a><b><c><d><e/></d></c></b></a>";
        let q: spex_query::Rpeq = "_*.e".parse().unwrap();
        let network = CompiledNetwork::compile(&q);
        let mut collector = crate::sink::FragmentCollector::new();
        let report = evaluate_recovering(
            &network,
            std::io::Cursor::new(xml.as_bytes().to_vec()),
            repair(),
            ResourceLimits::default().with_max_stream_depth(3),
            &mut collector,
        )
        .unwrap();
        assert!(report.exhausted.is_some());
    }

    #[test]
    fn quarantine_fragments_survive_export_import() {
        // One clean document; then a stream whose damaged second document
        // is withheld and whose held fragments carry attributes with
        // entities, UTF-8 text, a comment and a PI.
        let stream = RecoveryOptions {
            multi_document: true,
            ..repair()
        };
        let cases = [
            (
                "a._",
                "<a><b/><c/></a>",
                repair(),
                vec!["<b></b>", "<c></c>"],
            ),
            (
                "r.i",
                "<r><i k='a &amp; b' n=\"&#233;\">grüße<!-- c --><?pi d?></i></r>\n\
                 <r><i>x<j></i></r>\n<r><i k='&lt;'>東京<?p?></i></r>",
                stream,
                vec![
                    "<i k=\"a &amp; b\" n=\"é\">grüße<!-- c --><?pi d?></i>",
                    "<i k=\"&lt;\">東京<?p?></i>",
                ],
            ),
        ];
        for (query, xml, options, expected) in cases {
            let (direct, _) = evaluate_str_recovering(query, xml, options).unwrap();
            assert_eq!(direct, expected);
            let mut quarantine = Quarantine::new();
            evaluate_recovering(
                &CompiledNetwork::compile(&query.parse().unwrap()),
                std::io::Cursor::new(xml.as_bytes().to_vec()),
                options,
                ResourceLimits::default(),
                &mut quarantine,
            )
            .unwrap();
            let exported = quarantine.export_fragments();
            let mut restored = Quarantine::new();
            restored.import_fragments(&exported);
            assert_eq!(restored.export_fragments(), exported);
            let mut collector = crate::sink::FragmentCollector::new();
            restored.drain_into(&[], TruncationOutcome::Drop, &mut collector);
            assert_eq!(collector.into_fragments(), direct);
            assert!(restored.store.is_empty());
        }
    }

    #[test]
    fn truncation_outcome_round_trips_through_str() {
        for o in [TruncationOutcome::Drop, TruncationOutcome::ForceFalse] {
            assert_eq!(o.as_str().parse::<TruncationOutcome>().unwrap(), o);
        }
        assert!("bogus".parse::<TruncationOutcome>().is_err());
    }
}
