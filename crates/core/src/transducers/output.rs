//! The output transducer OU — §III.8 of the paper.
//!
//! The sink of a SPEX network. "Its task is to identify and store
//! candidates, to evaluate condition formulas so as to decide whether a
//! result candidate is a result, and to output results in document order."
//!
//! A *candidate* is the range of document messages from an activated opening
//! message to its matching close. Its life cycle:
//!
//! * **created** when an activation message is followed by a document open
//!   message (the activation's formula is attached),
//! * **updated** by condition determination messages `{c,v}` — formulas are
//!   updated by substitution,
//! * **accepted** when its formula becomes `true` — the fragment is streamed
//!   to the sink as soon as every earlier candidate is decided *and
//!   completely emitted* (document order), and *progressively*: an accepted
//!   frontier candidate's content is forwarded as it arrives rather than
//!   buffered,
//! * **rejected** when its formula becomes `false` — its events are released
//!   immediately ("SPEX does store parts of the input data stream in memory
//!   only if their appartenence to the query result is not yet determined",
//!   §I).
//!
//! This is the only SPEX transducer needing the power of a general 2-DPDT
//! (random access to candidates and their formulas, Theorem IV.2); its
//! worst-case memory is linear in the stream size (Lemma V.2 (5)) — e.g.
//! for the nested-result query `_*._`, where the outermost fragment stays
//! open for the whole stream and everything behind it must wait its turn.
//!
//! The stream is stored once: the run's event arena ([`EventStore`]) holds
//! every event in order and is not reset while a candidate is live, so a
//! candidate is an *interval* of arena indices, `from` (the first event not
//! yet forwarded) to `to` (one past its close; unset while open). The OU
//! tracks the index of the last event it was handed, not the arena's
//! length, which may already hold events the OU has not seen.
//!
//! Routing a document event is O(1): `open_live` buffered events are added
//! (one per open, unrejected candidate), and a close completes at most the
//! innermost open candidate (`open_stack`'s top, if the closing element's
//! stream depth, which the document message carries, matches). An OU with
//! no live candidate therefore keeps no state about the stream: the VM
//! steps it only while it holds a candidate or receives a message.
//! `var_index` (condition variable → candidates whose formula mentions it)
//! makes a determination touch only the affected candidates.

use crate::message::{Determination, DocEvent, Message};
use crate::sink::{ResultMeta, ResultSink};
use crate::stats::EngineStats;
use spex_formula::{CondVar, Formula};
use spex_trace::Histogram;
use spex_xml::EventStore;
use std::collections::{HashMap, VecDeque};

#[derive(Debug)]
struct Candidate {
    formula: Formula,
    start_tick: u64,
    /// Arena index of the first event not yet forwarded to the sink.
    from: usize,
    /// One past the arena index of the fragment's closing event; `None`
    /// while the fragment is open.
    to: Option<usize>,
    /// `begin` has been sent to the sink (the candidate is accepted and is
    /// the emission frontier).
    begin_sent: bool,
    rejected: bool,
    /// The formula has been decided (either way) and the determination
    /// latency recorded; guards against double-counting a candidate.
    determined: bool,
}

impl Candidate {
    /// One past the last event held, `next` being [`Output::next`].
    fn end(&self, next: usize) -> usize {
        self.to.unwrap_or(next)
    }
}

/// The output transducer. See the [module documentation](self).
#[derive(Debug, Default)]
pub struct Output {
    /// Activation formulas awaiting their opening document message.
    pending: Vec<Formula>,
    /// Candidates in creation (= document) order; the candidate with
    /// sequence id `base + i` lives at index `i`.
    candidates: VecDeque<Candidate>,
    /// Sequence id of `candidates[0]`.
    base: u64,
    /// Open candidates, outermost first: sequence id and the stream depth
    /// of the element. A rejected one popped from `candidates` while open
    /// completes nothing.
    open_stack: Vec<(u64, u32)>,
    /// Open candidates that are not rejected.
    open_live: usize,
    /// One past the arena index of the last event handed to the OU.
    next: usize,
    /// Condition variable → sequence ids of candidates mentioning it.
    var_index: HashMap<CondVar, Vec<u64>>,
    /// Emptied `var_index` lists, kept for the next variable's.
    spare: Vec<Vec<u64>>,
    /// Current number of buffered events (for peak statistics): the sum of
    /// the candidates' interval lengths.
    buffered: usize,
    /// Determination latency in *events*: for every candidate, the ticks
    /// elapsed between entering the buffer and its formula becoming decided
    /// (accepted or rejected) — the paper's earliness measure, exported via
    /// the trace layer (DESIGN.md §13). Accumulates across
    /// [`Output::reset`].
    latency: Histogram,
}

impl Output {
    /// Create an output transducer.
    pub fn new() -> Self {
        Output::default()
    }

    /// Index in `candidates` of sequence id `id`, unless it is already
    /// emitted or dropped.
    fn index(&self, id: u64) -> Option<usize> {
        let idx = id.checked_sub(self.base)? as usize;
        (idx < self.candidates.len()).then_some(idx)
    }

    /// Reject the candidate at index `idx`: its events are released at
    /// once, and while open it no longer collects content.
    fn reject(&mut self, idx: usize, stats: &mut EngineStats) {
        let cand = &mut self.candidates[idx];
        cand.rejected = true;
        self.buffered -= cand.end(self.next) - cand.from;
        if cand.to.is_none() {
            self.open_live -= 1;
        }
        stats.dropped += 1;
    }

    /// Process one message arriving at the network sink.
    pub fn step(
        &mut self,
        msg: Message,
        sink: &mut dyn ResultSink,
        now: u64,
        stats: &mut EngineStats,
        store: &EventStore,
    ) {
        match msg {
            Message::Activate(f) => {
                stats.observe_formula(f.size());
                self.pending.push(f);
            }
            Message::Determine(c, v) => {
                for f in &mut self.pending {
                    *f = v.apply(c, f);
                }
                // A conditional determination `{c := c ∨ r}` keeps the
                // candidates dependent on `c` (another match may still
                // satisfy the instance; their ids stay indexed under `c`)
                // and additionally makes them depend on the residual's
                // variables, which are indexed here.
                let residual = match &v {
                    Determination::Implied(r) => Some(r.vars()),
                    _ => None,
                };
                let conditional = residual.is_some();
                let mut ids = if conditional {
                    self.var_index.get(&c).cloned().unwrap_or_default()
                } else {
                    self.var_index.remove(&c).unwrap_or_default()
                };
                let mut reindex: Vec<(CondVar, u64)> = Vec::new();
                for &id in &ids {
                    let Some(idx) = self.index(id) else {
                        continue;
                    };
                    let cand = &mut self.candidates[idx];
                    if cand.rejected {
                        continue;
                    }
                    cand.formula = v.apply(c, &cand.formula);
                    // The determination moment: the formula just became
                    // constant. Record the earliness measure (events between
                    // buffer entry and decision) exactly once per candidate.
                    if !cand.determined && (cand.formula.is_false() || cand.formula.is_true()) {
                        cand.determined = true;
                        self.latency.record(now.saturating_sub(cand.start_tick));
                    }
                    if cand.formula.is_false() {
                        self.reject(idx, stats);
                    } else if let Some(residual) = &residual {
                        for &nv in residual {
                            if nv != c && cand.formula.contains(nv) {
                                reindex.push((nv, id));
                            }
                        }
                    }
                }
                for (nv, id) in reindex {
                    self.index_var(nv, id);
                }
                if ids.capacity() > 0 {
                    ids.clear();
                    self.spare.push(ids);
                }
                self.flush(sink, now, stats, store);
            }
            Message::Doc(doc) => {
                let at = doc.payload().index();
                debug_assert!(
                    self.candidates.is_empty() || at == self.next,
                    "event {at} handed to the output transducer while a candidate is live \
                     does not follow event {}",
                    self.next.wrapping_sub(1)
                );
                self.next = at + 1;
                // Content belongs to every open candidate: each interval
                // grows by this one event.
                self.buffered += self.open_live;
                match doc {
                    DocEvent::Open { depth, .. } => {
                        // A pending activation plus an opening message
                        // create a new candidate.
                        if !self.pending.is_empty() {
                            self.create(at, depth, now, stats);
                        }
                    }
                    DocEvent::Close { depth, .. } => {
                        // Only the innermost open candidate can complete at
                        // a close.
                        if self.open_stack.last().is_some_and(|e| e.1 == depth) {
                            let (id, _) = self.open_stack.pop().expect("checked above");
                            if let Some(idx) = self.index(id) {
                                let cand = &mut self.candidates[idx];
                                cand.to = Some(self.next);
                                if !cand.rejected {
                                    self.open_live -= 1;
                                }
                            }
                        }
                    }
                    DocEvent::Item { .. } => {}
                }
                if !matches!(doc, DocEvent::Open { .. }) {
                    // An activation not followed by an open message cannot
                    // denote a fragment; the compiler never produces this.
                    debug_assert!(
                        self.pending.is_empty(),
                        "activation message not followed by an opening document message"
                    );
                    self.pending.clear();
                }
                stats.peak_live_candidates = stats.peak_live_candidates.max(self.candidates.len());
                self.flush(sink, now, stats, store);
                stats.peak_buffered_events = stats.peak_buffered_events.max(self.buffered);
            }
        }
    }

    /// Record that candidate `id` mentions `v`.
    fn index_var(&mut self, v: CondVar, id: u64) {
        let spare = &mut self.spare;
        let ids = self
            .var_index
            .entry(v)
            .or_insert_with(|| spare.pop().unwrap_or_default());
        if ids.last() != Some(&id) {
            ids.push(id);
        }
    }

    /// Open a candidate at arena index `at`, the element at stream depth
    /// `depth` (unless its formula is `false`).
    fn create(&mut self, at: usize, depth: u32, now: u64, stats: &mut EngineStats) {
        // The singleton pop keeps `pending`'s capacity for the next
        // activation; `disj` of one normalized formula is that formula.
        let formula = if self.pending.len() == 1 {
            self.pending.pop().expect("length checked")
        } else {
            Formula::disj(std::mem::take(&mut self.pending))
        };
        if formula.is_false() {
            return;
        }
        stats.candidates_created += 1;
        let id = self.base + self.candidates.len() as u64;
        formula.for_each_var(&mut |v| self.index_var(v, id));
        // A past condition decides the candidate at birth: zero
        // determination latency.
        let determined = formula.is_true();
        if determined {
            self.latency.record(0);
        }
        self.candidates.push_back(Candidate {
            formula,
            start_tick: now,
            from: at,
            to: None,
            begin_sent: false,
            rejected: false,
            determined,
        });
        self.open_stack.push((id, depth));
        self.open_live += 1;
        self.buffered += 1;
    }

    /// Emit every decidable frontier candidate, preserving document order.
    fn flush(
        &mut self,
        sink: &mut dyn ResultSink,
        now: u64,
        stats: &mut EngineStats,
        store: &EventStore,
    ) {
        while let Some(front) = self.candidates.front_mut() {
            if front.rejected {
                self.candidates.pop_front();
                self.base += 1;
                continue;
            }
            if !front.formula.is_true() {
                // Undetermined: wait for more input.
                break;
            }
            if !front.begin_sent {
                sink.begin(
                    ResultMeta {
                        start_tick: front.start_tick,
                    },
                    now,
                );
                front.begin_sent = true;
            }
            // Stream out whatever is buffered, resolving the interval
            // against the arena (views borrow; nothing is copied).
            let end = front.end(self.next);
            for id in store.ids(front.from..end) {
                sink.event(&store.get(id), now);
            }
            self.buffered -= end - front.from;
            front.from = end;
            if front.to.is_none() {
                // Accepted but still open: wait for more input.
                break;
            }
            sink.end(now);
            stats.results += 1;
            self.candidates.pop_front();
            self.base += 1;
        }
        if self.candidates.is_empty() && !self.var_index.is_empty() {
            // Every indexed id is gone: an idle output indexes nothing.
            self.unindex_all();
        }
    }

    /// Empty `var_index`, keeping its lists for the next variables.
    #[cold]
    fn unindex_all(&mut self) {
        for (_, mut ids) in self.var_index.drain() {
            ids.clear();
            self.spare.push(ids);
        }
    }

    /// No further input will be processed: every remaining variable's scope
    /// has closed, so a still-undetermined variable can never become true.
    /// Resolve every remaining formula (end of input is itself the
    /// determination) and reject the false ones.
    fn resolve_remaining(&mut self, now: u64, stats: &mut EngineStats) {
        for idx in 0..self.candidates.len() {
            let cand = &mut self.candidates[idx];
            if cand.rejected {
                continue;
            }
            for v in cand.formula.vars() {
                cand.formula = cand.formula.assign(v, false);
            }
            if !cand.determined {
                cand.determined = true;
                self.latency.record(now.saturating_sub(cand.start_tick));
            }
            if cand.formula.is_false() {
                self.reject(idx, stats);
            }
        }
    }

    fn clear(&mut self) {
        self.candidates.clear();
        self.open_stack.clear();
        self.open_live = 0;
        self.unindex_all();
        self.pending.clear();
        self.buffered = 0;
    }

    /// Return to the freshly created state (a session reset), keeping every
    /// allocation and the determination-latency histogram.
    pub fn reset(&mut self) {
        self.clear();
        self.base = 0;
        self.next = 0;
    }

    /// End of stream: resolve the remaining formulas and flush. (With a
    /// complete network VC has already determined everything and this is a
    /// no-op.)
    pub fn finish(
        &mut self,
        sink: &mut dyn ResultSink,
        now: u64,
        stats: &mut EngineStats,
        store: &EventStore,
    ) {
        self.resolve_remaining(now, stats);
        self.flush(sink, now, stats, store);
        debug_assert!(
            self.candidates.is_empty(),
            "incomplete candidates at end of stream"
        );
        self.clear();
    }

    /// Abort the evaluation early (resource exhaustion): resolve the
    /// remaining formulas as at end of stream, emit every accepted result,
    /// and leave the transducer empty. An accepted fragment cut off
    /// mid-flight is delivered truncated (the sink's `begin` cannot be
    /// unsent); an undetermined one resolves to `false` and is dropped.
    pub fn abort(
        &mut self,
        sink: &mut dyn ResultSink,
        now: u64,
        stats: &mut EngineStats,
        store: &EventStore,
    ) {
        self.resolve_remaining(now, stats);
        // Alternate flushing decided-and-complete candidates with force-
        // closing the (accepted but incomplete) frontier fragment, so the
        // complete results queued behind an open one still get out.
        loop {
            self.flush(sink, now, stats, store);
            // Every formula is constant now, so `flush` stopped at an
            // accepted fragment that is still open.
            let Some(front) = self.candidates.pop_front() else {
                break;
            };
            debug_assert!(front.begin_sent && front.to.is_none());
            self.base += 1;
            sink.end(now);
            stats.results += 1;
        }
        self.clear();
    }

    /// No candidate and no pending activation: a determination would
    /// change nothing here (nothing holds a formula to apply it to).
    pub fn idle(&self) -> bool {
        self.candidates.is_empty() && self.pending.is_empty()
    }

    /// Number of live (buffering or streaming) candidates. An OU with none
    /// buffers nothing.
    pub fn live_candidates(&self) -> usize {
        self.candidates.len()
    }

    /// Determination-latency histogram: for every candidate decided so far,
    /// the number of events between its entering the buffer and its formula
    /// becoming constant — the paper's earliness measure. A latency of 0
    /// means the condition was already known when the candidate appeared
    /// (a *past* condition, streamed without buffering); large values mark
    /// the *future* conditions that force buffering.
    pub fn determination_latency(&self) -> &Histogram {
        &self.latency
    }

    /// Put back the histogram a snapshot carried (a restore into a fresh
    /// run).
    pub fn restore_latency(&mut self, latency: Histogram) {
        self.latency = latency;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Determination;
    use crate::sink::FragmentCollector;
    use crate::transducers::test_util::stream_of;
    use spex_formula::{CondVar, Formula};

    fn run(messages: Vec<Message>, store: &EventStore) -> (FragmentCollector, EngineStats) {
        let mut out = Output::new();
        let mut sink = FragmentCollector::new();
        let mut stats = EngineStats::default();
        let now = drive(&mut out, messages, 0, &mut sink, &mut stats, store);
        out.finish(&mut sink, now, &mut stats, store);
        (sink, stats)
    }

    /// Step `out` through `messages` from tick `now`, advancing the tick
    /// after each document message; returns the tick reached.
    fn drive(
        out: &mut Output,
        messages: Vec<Message>,
        mut now: u64,
        sink: &mut FragmentCollector,
        stats: &mut EngineStats,
        store: &EventStore,
    ) -> u64 {
        for m in messages {
            let is_doc = m.is_doc();
            out.step(m, sink, now, stats, store);
            if is_doc {
                now += 1;
            }
        }
        now
    }

    #[test]
    fn true_candidate_streams_immediately() {
        let mut store = EventStore::new();
        let stream = stream_of(&mut store, "<a><b>t</b></a>");
        // Activate the <b> fragment with [true].
        let mut msgs = Vec::new();
        for (i, m) in stream.iter().enumerate() {
            if i == 2 {
                msgs.push(Message::Activate(Formula::True));
            }
            msgs.push(m.clone());
        }
        let (sink, stats) = run(msgs, &store);
        assert_eq!(sink.fragments(), ["<b>t</b>".to_string()]);
        assert_eq!(stats.results, 1);
        assert_eq!(stats.dropped, 0);
        // Progressive: delivery began at the tick of the opening message.
        assert_eq!(sink.timing, vec![(2, 2)]);
    }

    #[test]
    fn an_idle_output_indexes_nothing() {
        // `v1 ∨ v2` is accepted by `v1` alone: once the fragment is out,
        // `v2` indexes no candidate, and a determination of it (which the
        // VM counts at an idle output without stepping it) has nothing to
        // clean up.
        let mut store = EventStore::new();
        let stream = stream_of(&mut store, "<a><b>t</b></a>");
        let (v1, v2) = (CondVar::new(0, 1), CondVar::new(0, 2));
        let mut msgs = Vec::new();
        for (i, m) in stream.iter().enumerate() {
            if i == 2 {
                let f = Formula::or(Formula::Var(v1), Formula::Var(v2));
                msgs.push(Message::Activate(f));
            }
            if i == 4 {
                msgs.push(Message::Determine(v1, Determination::True));
            }
            msgs.push(m.clone());
        }
        let mut out = Output::new();
        let (mut sink, mut stats) = (FragmentCollector::new(), EngineStats::default());
        assert!(out.idle());
        drive(&mut out, msgs, 0, &mut sink, &mut stats, &store);
        assert_eq!(sink.fragments(), ["<b>t</b>".to_string()]);
        assert!(out.idle());
        assert!(out.var_index.is_empty());
    }

    #[test]
    fn future_condition_buffers_until_true() {
        let mut store = EventStore::new();
        let stream = stream_of(&mut store, "<a><b>t</b><c/></a>");
        let v = CondVar::new(0, 1);
        let mut msgs = Vec::new();
        for (i, m) in stream.iter().enumerate() {
            if i == 2 {
                msgs.push(Message::Activate(Formula::Var(v)));
            }
            if i == 5 {
                // Determined true at the <c> tick — after </b>.
                msgs.push(Message::Determine(v, Determination::True));
            }
            msgs.push(m.clone());
        }
        let (sink, stats) = run(msgs, &store);
        assert_eq!(sink.fragments(), ["<b>t</b>".to_string()]);
        // Delivery only began at tick 5 (when the variable was determined).
        assert_eq!(sink.timing, vec![(2, 5)]);
        // `<b>`, `t`, `</b>` waited for the determination.
        assert_eq!(stats.peak_buffered_events, 3);
    }

    #[test]
    fn false_candidate_dropped_and_buffer_released() {
        let mut store = EventStore::new();
        let stream = stream_of(&mut store, "<a><b>t</b></a>");
        let v = CondVar::new(0, 1);
        let mut msgs = Vec::new();
        for (i, m) in stream.iter().enumerate() {
            if i == 2 {
                msgs.push(Message::Activate(Formula::Var(v)));
            }
            if i == 4 {
                msgs.push(Message::Determine(v, Determination::False));
            }
            msgs.push(m.clone());
        }
        let (sink, stats) = run(msgs, &store);
        assert!(sink.fragments().is_empty());
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.results, 0);
    }

    #[test]
    fn document_order_is_preserved_across_decisions() {
        // Candidate 1 (undetermined, later true) starts before candidate 2
        // (immediately true): 2 must wait for 1.
        let mut store = EventStore::new();
        let stream = stream_of(&mut store, "<a><b>x</b><c>y</c></a>");
        let v = CondVar::new(0, 1);
        let mut msgs = Vec::new();
        for (i, m) in stream.iter().enumerate() {
            if i == 2 {
                msgs.push(Message::Activate(Formula::Var(v))); // <b…>
            }
            if i == 5 {
                msgs.push(Message::Activate(Formula::True)); // <c…>
            }
            msgs.push(m.clone());
            if i == 7 {
                // Determine v late, after </c>.
                msgs.push(Message::Determine(v, Determination::True));
            }
        }
        let (sink, _stats) = run(msgs, &store);
        assert_eq!(
            sink.fragments(),
            ["<b>x</b>".to_string(), "<c>y</c>".to_string()]
        );
        // Fragment 2 started at tick 5 but could only be delivered once the
        // late determination arrived (after the </c> tick advanced to 8).
        assert_eq!(sink.timing, vec![(2, 8), (5, 8)]);
    }

    #[test]
    fn nested_candidates_each_get_full_fragments() {
        let mut store = EventStore::new();
        let stream = stream_of(&mut store, "<a><b><c>t</c></b></a>");
        let mut msgs = Vec::new();
        for (i, m) in stream.iter().enumerate() {
            if i == 2 || i == 3 {
                msgs.push(Message::Activate(Formula::True)); // <b> and <c>
            }
            msgs.push(m.clone());
        }
        let (sink, _stats) = run(msgs, &store);
        assert_eq!(
            sink.fragments(),
            ["<b><c>t</c></b>".to_string(), "<c>t</c>".to_string()]
        );
    }

    #[test]
    fn sibling_candidates_after_nested_ones() {
        // Exercises the open-stack bookkeeping: open, close, open again.
        let mut store = EventStore::new();
        let stream = stream_of(&mut store, "<a><b>1</b><b>2</b><b>3</b></a>");
        let mut msgs = Vec::new();
        for (i, m) in stream.iter().enumerate() {
            if i == 2 || i == 5 || i == 8 {
                msgs.push(Message::Activate(Formula::True));
            }
            msgs.push(m.clone());
        }
        let (sink, stats) = run(msgs, &store);
        assert_eq!(
            sink.fragments(),
            [
                "<b>1</b>".to_string(),
                "<b>2</b>".to_string(),
                "<b>3</b>".to_string()
            ]
        );
        assert_eq!(stats.results, 3);
        // Each streamed immediately — nothing accumulated.
        assert!(sink.timing.iter().all(|(s, d)| s == d));
    }

    #[test]
    fn rejected_open_candidate_stops_buffering() {
        // A candidate rejected while still open must not keep accumulating.
        let mut store = EventStore::new();
        let stream = stream_of(&mut store, "<a><b><x/><y/><z/></b></a>");
        let v = CondVar::new(0, 1);
        let mut msgs = Vec::new();
        for (i, m) in stream.iter().enumerate() {
            if i == 2 {
                msgs.push(Message::Activate(Formula::Var(v))); // <b>
            }
            if i == 4 {
                msgs.push(Message::Determine(v, Determination::False)); // reject mid-flight
            }
            msgs.push(m.clone());
        }
        let (sink, stats) = run(msgs, &store);
        assert!(sink.fragments().is_empty());
        assert_eq!(stats.dropped, 1);
        // Buffer peak stays at the prefix seen before rejection: `<b><x>`.
        assert_eq!(stats.peak_buffered_events, 2);
    }

    #[test]
    fn nested_candidates_buffer_exactly_their_intervals() {
        // Both undetermined until after `</b>`: `<b>` holds `<b><c>t</c></b>`
        // (5 events) and the nested `<c>` holds `<c>t</c>` (3 events) — the
        // arena stores each event once, but each candidate counts its own.
        let mut store = EventStore::new();
        let stream = stream_of(&mut store, "<a><b><c>t</c></b></a>");
        let v = CondVar::new(0, 1);
        let mut msgs = Vec::new();
        for (i, m) in stream.iter().enumerate() {
            if i == 2 || i == 3 {
                msgs.push(Message::Activate(Formula::Var(v))); // <b>, <c>
            }
            if i == 7 {
                msgs.push(Message::Determine(v, Determination::True)); // before </a>
            }
            msgs.push(m.clone());
        }
        let (sink, stats) = run(msgs, &store);
        assert_eq!(
            sink.fragments(),
            ["<b><c>t</c></b>".to_string(), "<c>t</c>".to_string()]
        );
        assert_eq!(stats.peak_buffered_events, 8);
        assert_eq!(sink.timing, vec![(2, 7), (3, 7)]);
    }

    #[test]
    fn accepted_frontier_streams_while_open() {
        // An accepted frontier candidate forwards each event as it arrives:
        // its interval's start advances mid-fragment and nothing stays
        // buffered.
        let mut store = EventStore::new();
        let stream = stream_of(&mut store, "<a><b><x/>t<y/></b></a>");
        let mut out = Output::new();
        let mut sink = FragmentCollector::new();
        let mut stats = EngineStats::default();
        for (i, m) in stream.iter().enumerate() {
            let now = i as u64;
            if i == 2 {
                out.step(
                    Message::Activate(Formula::True),
                    &mut sink,
                    now,
                    &mut stats,
                    &store,
                );
            }
            out.step(m.clone(), &mut sink, now, &mut stats, &store);
            if (2..8).contains(&i) {
                // `<b>` through `</y>`: open, and forwarded up to event i.
                assert_eq!(out.candidates[0].from, i + 1);
                assert_eq!(out.candidates[0].to, None);
                assert_eq!(out.buffered, 0);
            }
        }
        out.finish(&mut sink, stream.len() as u64, &mut stats, &store);
        assert_eq!(sink.fragments(), ["<b><x></x>t<y></y></b>".to_string()]);
        assert_eq!(stats.peak_buffered_events, 0);

        // A streaming outer candidate leaves the interval of an undetermined
        // inner one alone: `<c>` keeps `<c>t</c>` while `<b>` moves on.
        let mut store = EventStore::new();
        let stream = stream_of(&mut store, "<a><b><c>t</c></b></a>");
        let v = CondVar::new(0, 1);
        let mut msgs = Vec::new();
        for (i, m) in stream.iter().enumerate() {
            match i {
                2 => msgs.push(Message::Activate(Formula::True)), // <b>
                3 => msgs.push(Message::Activate(Formula::Var(v))), // <c>
                7 => msgs.push(Message::Determine(v, Determination::True)),
                _ => {}
            }
            msgs.push(m.clone());
        }
        let (sink, stats) = run(msgs, &store);
        assert_eq!(
            sink.fragments(),
            ["<b><c>t</c></b>".to_string(), "<c>t</c>".to_string()]
        );
        assert_eq!(sink.timing, vec![(2, 2), (3, 7)]);
        assert_eq!(stats.peak_buffered_events, 3);
    }

    #[test]
    fn rejected_outer_candidate_popped_while_open_leaves_inner_intact() {
        // `<b>` is rejected mid-flight and popped from the front while still
        // open. Its stale `open_stack` entry must neither complete the inner
        // `<c>` nor disturb `<d>`, opened above it later; at `</b>` it
        // completes nothing.
        let mut store = EventStore::new();
        let stream = stream_of(&mut store, "<a><b><c>t</c><d/></b></a>");
        let v = CondVar::new(0, 1);
        let mut msgs = Vec::new();
        for (i, m) in stream.iter().enumerate() {
            match i {
                2 => msgs.push(Message::Activate(Formula::Var(v))), // <b>
                3 | 6 => msgs.push(Message::Activate(Formula::True)), // <c>, <d>
                4 => msgs.push(Message::Determine(v, Determination::False)),
                _ => {}
            }
            msgs.push(m.clone());
        }
        let mut out = Output::new();
        let mut sink = FragmentCollector::new();
        let mut stats = EngineStats::default();
        let split = msgs.len() - 4; // up to and including `<d>`
        let rest = msgs.split_off(split);
        let now = drive(&mut out, msgs, 0, &mut sink, &mut stats, &store);
        // `<b>`'s entry is stale (below `base`), `<d>`'s is live above it.
        assert_eq!(out.open_stack.len(), 2);
        assert!(out.open_stack[0].0 < out.base);
        assert_eq!(out.open_live, 1);
        let now = drive(&mut out, rest, now, &mut sink, &mut stats, &store);
        assert!(out.open_stack.is_empty());
        assert_eq!(out.open_live, 0);
        out.finish(&mut sink, now, &mut stats, &store);
        assert_eq!(
            sink.fragments(),
            ["<c>t</c>".to_string(), "<d></d>".to_string()]
        );
        assert_eq!((stats.results, stats.dropped), (2, 1));
        // `<b>` held `<b><c>` and `<c>` held `<c>` when the rejection came.
        assert_eq!(stats.peak_buffered_events, 3);
    }

    #[test]
    fn unresolved_variables_are_false_at_end_of_stream() {
        let mut store = EventStore::new();
        let stream = stream_of(&mut store, "<a><b/></a>");
        let v = CondVar::new(0, 1);
        let mut msgs = Vec::new();
        for (i, m) in stream.iter().enumerate() {
            if i == 2 {
                msgs.push(Message::Activate(Formula::Var(v)));
            }
            msgs.push(m.clone());
        }
        let (sink, stats) = run(msgs, &store);
        assert!(sink.fragments().is_empty());
        assert_eq!(stats.dropped, 1);
    }

    #[test]
    fn whole_document_candidate() {
        // An ε query activates at <$>: the full document is the fragment.
        let mut store = EventStore::new();
        let stream = stream_of(&mut store, "<a><b/></a>");
        let mut msgs = vec![Message::Activate(Formula::True)];
        msgs.extend(stream.iter().cloned());
        let (sink, _stats) = run(msgs, &store);
        assert_eq!(sink.fragments().len(), 1);
        // `<$>`/`</$>` render as nothing printable in fragments; the
        // serialized fragment contains the root element.
        assert!(sink.fragments()[0].contains("<a><b></b></a>"));
    }

    #[test]
    fn determination_latency_measures_the_buffering_gap() {
        // Candidate enters at tick 2; its variable is determined at tick 5:
        // latency 3 (the paper's earliness measure for a future condition).
        let mut store = EventStore::new();
        let stream = stream_of(&mut store, "<a><b>t</b><c/></a>");
        let v = CondVar::new(0, 1);
        let mut out = Output::new();
        let mut sink = FragmentCollector::new();
        let mut stats = EngineStats::default();
        for (i, m) in stream.iter().enumerate() {
            let now = i as u64;
            if i == 2 {
                out.step(
                    Message::Activate(Formula::Var(v)),
                    &mut sink,
                    now,
                    &mut stats,
                    &store,
                );
            }
            if i == 5 {
                out.step(
                    Message::Determine(v, Determination::True),
                    &mut sink,
                    now,
                    &mut stats,
                    &store,
                );
            }
            out.step(m.clone(), &mut sink, now, &mut stats, &store);
        }
        out.finish(&mut sink, stream.len() as u64, &mut stats, &store);
        let h = out.determination_latency();
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 3);
        assert_eq!(h.max(), 3);
    }

    #[test]
    fn past_conditions_have_zero_determination_latency() {
        // An already-true activation decides the candidate at birth.
        let mut store = EventStore::new();
        let stream = stream_of(&mut store, "<a><b>t</b></a>");
        let mut out = Output::new();
        let mut sink = FragmentCollector::new();
        let mut stats = EngineStats::default();
        for (i, m) in stream.iter().enumerate() {
            if i == 2 {
                out.step(
                    Message::Activate(Formula::True),
                    &mut sink,
                    i as u64,
                    &mut stats,
                    &store,
                );
            }
            out.step(m.clone(), &mut sink, i as u64, &mut stats, &store);
        }
        out.finish(&mut sink, stream.len() as u64, &mut stats, &store);
        let h = out.determination_latency();
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 0);
        // A rejected-at-end candidate also counts exactly once.
        let mut out2 = Output::new();
        let v = CondVar::new(0, 1);
        for (i, m) in stream.iter().enumerate() {
            if i == 2 {
                out2.step(
                    Message::Activate(Formula::Var(v)),
                    &mut sink,
                    i as u64,
                    &mut stats,
                    &store,
                );
            }
            out2.step(m.clone(), &mut sink, i as u64, &mut stats, &store);
        }
        out2.finish(&mut sink, stream.len() as u64, &mut stats, &store);
        assert_eq!(out2.determination_latency().count(), 1);
        // Entered at tick 2, resolved at end of stream (tick 7): latency 5.
        assert_eq!(out2.determination_latency().max(), 5);
    }

    #[test]
    fn determination_for_long_gone_candidate_is_harmless() {
        let mut store = EventStore::new();
        let stream = stream_of(&mut store, "<a><b/><c/></a>");
        let v = CondVar::new(0, 1);
        let mut msgs = Vec::new();
        for (i, m) in stream.iter().enumerate() {
            if i == 2 {
                msgs.push(Message::Activate(Formula::Var(v)));
            }
            if i == 3 {
                msgs.push(Message::Determine(v, Determination::True));
            }
            msgs.push(m.clone());
            if i == 5 {
                // A duplicate/straggler determination after emission.
                msgs.push(Message::Determine(v, Determination::False));
            }
        }
        let (sink, stats) = run(msgs, &store);
        assert_eq!(sink.fragments(), ["<b></b>".to_string()]);
        assert_eq!(stats.results, 1);
    }
}
