//! The pump: the one loop that drives a byte stream through a run.
//!
//! Every caller that evaluates a byte stream does the same thing: poll the
//! push [`Parser`] into the run's event arena, push each event through the
//! plan, and at every `</$>` reset the run for the next document, so an
//! unbounded stream of documents runs in memory bounded by the candidates
//! still undetermined (paper §III.2, §VI). Under a recovery policy every
//! result is held in a quarantine until the reader's damage intervals are
//! known and drained once, at the end; a durable caller snapshots the run at
//! document boundaries.
//!
//! [`Pump`] owns all of it — the parser, the [`PlanRun`], the
//! [`RecoveryOptions`] and the bookkeeping a snapshot carries — and
//! [`Pump::step`] yields at exactly four points ([`Yield`]). The one-shot CLI,
//! [`crate::evaluate_recovering`], `spex serve` sessions and the crash-diff
//! rig differ only in what they do there: feed bytes on `NeedMore`,
//! checkpoint on `Boundary`, reschedule on `Budget`, [`Pump::finish`] on
//! `End`. The per-event loop itself is one non-generic function over the
//! run's type-erased sinks, compiled once, in this crate.
//!
//! The pump is also the one place results are flushed
//! ([`ResultSink::flush`]): at every yield except `Budget`, on an error, and
//! after the final drain — so output leaves when the program would wait for
//! input, not once per fragment.
//!
//! Two rules of durable sessions live here and nowhere else (DESIGN.md §15):
//!
//! * a `</$>` the parser synthesized for a stream that broke off
//!   mid-document is not a boundary of the input — the source is about to
//!   resend that document's tail — so [`Pump::checkpoint`] returns `None`
//!   there;
//! * a resumed run's faults are the restored ones followed by the live ones,
//!   in every snapshot and in the final drain, so fragments quarantined
//!   before a restart stay tainted after it.

use crate::engine::EvalError;
use crate::recover::{Quarantine, RecoveryOptions, RunReport};
use crate::sink::{ResultMeta, ResultSink, SlotSinks};
use crate::snapshot::{SessionState, Snapshot, SnapshotError};
use crate::stats::{EngineStats, TransducerStats};
use crate::vm::{Machine, PlanRun};
use spex_xml::{Fault, FaultKind, Parser, Poll, RawEvent, RecoveryPolicy, StoredKind};
use std::io::Read;

/// Where [`Pump::step`] handed control back to its caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Yield {
    /// The parser needs input: feed, end or fail it through
    /// [`Pump::parser_mut`] (a caller reading a [`std::io::Read`] calls
    /// [`Parser::read_from`]) and step again.
    NeedMore,
    /// A document ended (`</$>`) and the run has already been reset for the
    /// next one; [`Pump::checkpoint`] is legal until the next step.
    Boundary,
    /// The event budget is spent; more events may be ready.
    Budget,
    /// The stream is over: [`Pump::finish`] the run.
    End,
}

/// One query's end of a pump: the caller's sink, the quarantine a recovery
/// policy holds its results in, and how many fragments reached the sink.
struct QuerySink<S> {
    sink: S,
    /// `Some` under a recovery policy until [`Pump::finish`] drains it.
    quarantine: Option<Quarantine>,
    /// Fragments delivered to `sink`, counting from the restored snapshot's.
    delivered: u64,
}

impl<S: ResultSink> ResultSink for QuerySink<S> {
    fn begin(&mut self, meta: ResultMeta, now: u64) {
        match &mut self.quarantine {
            Some(q) => q.begin(meta, now),
            None => self.sink.begin(meta, now),
        }
    }

    fn event(&mut self, event: &RawEvent<'_>, now: u64) {
        match &mut self.quarantine {
            Some(q) => q.event(event, now),
            None => self.sink.event(event, now),
        }
    }

    fn end(&mut self, now: u64) {
        match &mut self.quarantine {
            Some(q) => q.end(now),
            None => {
                self.delivered += 1;
                self.sink.end(now);
            }
        }
    }

    fn flush(&mut self) {
        self.sink.flush();
    }
}

/// What [`Pump::finish`] hands back.
pub struct Finished<S> {
    /// Engine statistics for the run.
    pub stats: EngineStats,
    /// Per-transducer statistics for the run.
    pub transducers: Vec<TransducerStats>,
    /// Faults, quarantine counts and any limit breach; `Some` exactly under
    /// a recovery policy.
    pub report: Option<RunReport>,
    /// The caller's sinks, in logical-query order, after the drain.
    pub sinks: Vec<S>,
}

/// A run driven from bytes: see the [module documentation](self).
pub struct Pump<S: ResultSink> {
    parser: Parser,
    run: PlanRun<QuerySink<S>>,
    options: RecoveryOptions,
    /// Faults the restored snapshot carried; the parser logs only the live
    /// ones.
    restored_faults: Vec<Fault>,
    /// Documents completed before the restored snapshot.
    restored_documents: u64,
    /// Document boundaries stepped past by this pump.
    documents: u64,
    /// The last step ended at a boundary of the input stream.
    at_boundary: bool,
    /// The stream failed with an XML error.
    failed: bool,
}

impl<S: ResultSink> Pump<S> {
    /// Drive `run` from a parser configured by `options`. Under a recovery
    /// policy every sink's results are quarantined until [`Pump::finish`].
    pub fn new(run: PlanRun<S>, options: RecoveryOptions) -> Self {
        let recovering = options.policy != RecoveryPolicy::Strict;
        let mut parser = Parser::new()
            .with_recovery(options.policy)
            .with_scanner(options.scanner);
        if options.multi_document {
            parser = parser.multi_document();
        }
        Pump {
            parser,
            run: run.map_sinks(|sink| QuerySink {
                sink,
                quarantine: recovering.then(Quarantine::new),
                delivered: 0,
            }),
            options,
            restored_faults: Vec::new(),
            restored_documents: 0,
            documents: 0,
            at_boundary: false,
            failed: false,
        }
    }

    /// Restore a snapshot taken by [`Pump::checkpoint`] into this freshly
    /// built pump: the run's accumulators, and from the session section the
    /// parser's resume point, the faults, documents, quarantines and
    /// delivery counts. The bytes fed afterwards must start at the
    /// snapshot's `position.offset`.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        self.run.restore(snap)?;
        let Some(session) = &snap.session else {
            return Ok(());
        };
        self.parser = std::mem::take(&mut self.parser).resume_at(
            session.reader_emitted,
            session.position,
            session.lt_consumed,
        );
        self.restored_faults.clone_from(&session.faults);
        self.restored_documents = session.documents;
        for (i, sink) in self.run.sinks_mut().iter_mut().enumerate() {
            sink.delivered = session.delivered.get(i).copied().unwrap_or(0);
            if let (Some(q), Some(held)) = (&mut sink.quarantine, session.quarantines.get(i)) {
                q.import_fragments(held);
            }
        }
        Ok(())
    }

    /// Push up to `budget` events through the run and report why it
    /// stopped. An error ends the stream: a malformed input or a failed
    /// transport ([`EvalError::Xml`]), or a resource-limit breach, after
    /// which the run has drained what was already determined.
    ///
    /// Unless the budget was spent, every sink is flushed
    /// ([`ResultSink::flush`]) before the step returns — flush before
    /// block: whatever the input determined so far has left before the
    /// caller waits for more input, writes a snapshot that counts those
    /// fragments as delivered, or reports an error.
    pub fn step(&mut self, budget: usize) -> Result<Yield, EvalError> {
        let (machine, sinks) = self.run.parts();
        let step = pump_events(&mut self.parser, machine, sinks, budget);
        if !matches!(step, Ok(Yield::Budget)) {
            self.run.sinks_mut().iter_mut().for_each(ResultSink::flush);
        }
        match &step {
            Ok(Yield::Boundary) => {
                self.documents += 1;
                self.at_boundary = self
                    .parser
                    .faults()
                    .last()
                    .is_none_or(|f| f.kind != FaultKind::Truncated);
            }
            // Nothing was pushed since the last boundary: it stays
            // checkpointable once the stream has ended.
            Ok(Yield::End) => {}
            Err(EvalError::Xml(_)) => {
                self.failed = true;
                self.at_boundary = false;
            }
            _ => self.at_boundary = false,
        }
        step
    }

    /// Step to the end of `input`, reading from it whenever the parser needs
    /// more: the one-shot loop, for callers with nothing to do at boundaries.
    pub fn run_from<R: Read + ?Sized>(&mut self, input: &mut R) -> Result<(), EvalError> {
        loop {
            match self.step(usize::MAX)? {
                Yield::NeedMore => self.parser.read_from(input),
                Yield::End => return Ok(()),
                Yield::Boundary | Yield::Budget => {}
            }
        }
    }

    /// The complete snapshot of the run at the boundary the last step
    /// yielded: engine accumulators plus the session section — faults
    /// (restored then live), the parser's resume point, documents,
    /// quarantines and delivery counts. `None` anywhere else, including at a
    /// `</$>` synthesized for a truncated stream.
    pub fn checkpoint(&self) -> Option<Snapshot> {
        if !self.at_boundary {
            return None;
        }
        let mut snap = self.run.checkpoint().ok()?;
        let (reader_emitted, position, lt_consumed) = self.parser.resume_point();
        let sinks = self.run.sinks();
        snap.session = Some(SessionState {
            faults: self.faults().cloned().collect(),
            quarantines: sinks
                .iter()
                .filter_map(|s| s.quarantine.as_ref())
                .map(Quarantine::export_fragments)
                .collect(),
            delivered: sinks.iter().map(|s| s.delivered).collect(),
            reader_emitted,
            position,
            lt_consumed,
            documents: self.restored_documents + self.documents,
        });
        Some(snap)
    }

    /// Every fault so far: the restored snapshot's, then the live parser's.
    pub fn faults(&self) -> impl Iterator<Item = &Fault> {
        self.restored_faults.iter().chain(self.parser.faults())
    }

    /// Document boundaries this pump has stepped past (not counting the
    /// documents of a restored snapshot).
    pub fn documents(&self) -> u64 {
        self.documents
    }

    /// The parser, for its position and counters.
    pub fn parser(&self) -> &Parser {
        &self.parser
    }

    /// The parser, to hand it input on [`Yield::NeedMore`].
    pub fn parser_mut(&mut self) -> &mut Parser {
        &mut self.parser
    }

    /// The run's sink-free half: statistics, limits, determination latency.
    pub fn machine(&self) -> &Machine {
        &self.run
    }

    /// End the run: flush it (or, after an XML error, abandon it as it
    /// stands — a broken stream leaves candidates that can never be
    /// determined), then drain every quarantine into its sink, withholding
    /// the fragments that overlap a fault, and flush every sink
    /// ([`ResultSink::flush`]). With a tracer attached, the
    /// parser's `xml.events` / `xml.bytes` / `xml.faults` counters are
    /// emitted beside the engine's records.
    pub fn finish(self) -> Finished<S> {
        let Pump {
            mut parser,
            run,
            options,
            restored_faults,
            failed,
            ..
        } = self;
        let tracer = run.tracer();
        if tracer.enabled() {
            tracer.counter("xml.events", parser.events_emitted());
            tracer.counter("xml.bytes", parser.position().offset);
            tracer.counter("xml.faults", parser.faults().len() as u64);
        }
        let exhausted = run.exhausted();
        let (stats, transducers, sinks) = if failed {
            let stats = run.stats().clone();
            let transducers = run.transducer_stats().to_vec();
            (stats, transducers, run.into_sinks())
        } else {
            run.finish_into_sinks()
        };
        let mut faults = restored_faults;
        faults.extend(parser.take_faults());
        let (mut results, mut dropped) = (0, 0);
        let sinks = sinks
            .into_iter()
            .map(|query| {
                let mut sink = query.sink;
                if let Some(mut held) = query.quarantine {
                    let (d, p) = held.drain_into(&faults, options.on_truncation, &mut sink);
                    results += d;
                    dropped += p;
                }
                sink.flush();
                sink
            })
            .collect();
        let report = (options.policy != RecoveryPolicy::Strict).then(|| RunReport {
            truncated: faults.iter().any(|f| f.kind == FaultKind::Truncated),
            faults,
            results,
            dropped,
            exhausted,
            stats: stats.clone(),
            transducers: transducers.clone(),
        });
        Finished {
            stats,
            transducers,
            report,
            sinks,
        }
    }
}

/// The per-event loop, compiled once: poll the next event into the arena,
/// push it through the plan, and at `</$>` reset the run — the next document
/// starts from operators in their fresh state with this one's symbols and
/// arena bytes forgotten.
pub(crate) fn pump_events(
    parser: &mut Parser,
    machine: &mut Machine,
    sinks: &mut dyn SlotSinks,
    budget: usize,
) -> Result<Yield, EvalError> {
    for _ in 0..budget {
        let id = match parser.poll_into(machine.store_mut())? {
            Poll::Event(id) => id,
            Poll::NeedMore => return Ok(Yield::NeedMore),
            Poll::End => return Ok(Yield::End),
        };
        let boundary = machine.store().stored(id).kind == StoredKind::EndDocument;
        machine.try_push_id(id, sinks)?;
        if boundary {
            machine.reset_session();
            return Ok(Yield::Boundary);
        }
    }
    Ok(Yield::Budget)
}
