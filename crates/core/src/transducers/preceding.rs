//! The preceding transducer PR(l) — an extension beyond the paper's
//! transducer set (§I notes the prototype supported `preceding`).
//!
//! `preceding::l` selects the `l` elements that *end before the context node
//! begins*. In a stream the context arrives **after** its preceding matches,
//! so the matches cannot be confirmed at their own position — they are
//! emitted *speculatively*: each matching `<l>` is announced with a fresh
//! condition variable `p` (`[p];<l>`), and `p` is satisfied retroactively
//! when a context activation arrives after `</l>`:
//!
//! * context with a determined (true) formula → `{p, true}` for every
//!   already-closed candidate, which are then purged;
//! * context with an undetermined formula `f` → the conditional
//!   determination `{p := p ∨ f}` (the candidate is a preceding-match iff
//!   the context is real);
//! * end of document → `{p, false}` for every still-unsatisfied candidate.
//!
//! This is the paper's "future conditions" machinery turned inside out, and
//! it is why `Determination::Implied` exists. Unlike every other matching
//! transducer, PR's candidate set grows with the number of `l` elements seen
//! (purged on true contexts) — the same O(s) worst case as the output
//! transducer's candidate store, and unavoidable: any streamed `preceding`
//! must remember its potential matches.

use super::child::MatchLabel;
use super::{Trace, Transducer};
use crate::message::{Determination, DocEvent, Message};
use spex_formula::{CondVar, Formula, QualifierId, VarFactory};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Depth {
    /// Ordinary level.
    Level,
    /// A speculative match is open at this level; its variable is the
    /// corresponding entry of the parallel `open_vars` stack.
    Match,
}

/// The preceding transducer. See the [module documentation](self).
#[derive(Debug)]
pub struct Preceding {
    label: MatchLabel,
    /// Qualifier id under which the speculative variables are minted.
    qualifier: QualifierId,
    depth: Vec<Depth>,
    /// Variables of matches still open (parallel to the `Match` entries).
    open_vars: Vec<CondVar>,
    /// Variables of matches that closed and await a context.
    closed_vars: Vec<CondVar>,
    trace: Trace,
}

impl Preceding {
    /// Create a preceding transducer.
    pub fn new(label: MatchLabel, qualifier: QualifierId) -> Self {
        Preceding {
            label,
            qualifier,
            depth: Vec::new(),
            open_vars: Vec::new(),
            closed_vars: Vec::new(),
            trace: Trace::default(),
        }
    }
}

impl Transducer for Preceding {
    fn step(&mut self, msg: Message, vars: &mut VarFactory, out: &mut Vec<Message>) {
        match msg {
            // (1) a context arrives: every closed candidate is satisfied —
            // outright, or conditionally on the context's own formula.
            Message::Activate(f) => {
                self.trace.fire(1);
                if f.is_true() {
                    for p in self.closed_vars.drain(..) {
                        out.push(Message::Determine(p, Determination::True));
                    }
                } else if !f.is_false() {
                    for p in &self.closed_vars {
                        out.push(Message::Determine(*p, Determination::Implied(f.clone())));
                    }
                }
                // The activation is consumed: downstream continues from the
                // speculative matches, not from the context.
            }
            Message::Doc(doc) => match &doc {
                DocEvent::Open { label, .. } => {
                    if self.label.matches(*label) {
                        // (2) speculative match.
                        self.trace.fire(2);
                        let p = vars.fresh(self.qualifier);
                        self.open_vars.push(p);
                        self.depth.push(Depth::Match);
                        out.push(Message::Activate(Formula::Var(p)));
                    } else {
                        self.depth.push(Depth::Level);
                    }
                    out.push(Message::Doc(doc));
                }
                DocEvent::Close { .. } => {
                    match self.depth.pop() {
                        // (3) a candidate closes: from now on a context can
                        // satisfy it.
                        Some(Depth::Match) => {
                            self.trace.fire(3);
                            if let Some(p) = self.open_vars.pop() {
                                self.closed_vars.push(p);
                            }
                        }
                        Some(Depth::Level) | None => {}
                    }
                    if self.depth.is_empty() {
                        // (4) `</$>`: unsatisfied candidates can never be
                        // preceded by a context — resolve them to false,
                        // before the end-document message so the output
                        // transducer settles within the document.
                        self.trace.fire(4);
                        for p in self.closed_vars.drain(..) {
                            out.push(Message::Determine(p, Determination::False));
                        }
                        self.open_vars.clear();
                    }
                    out.push(Message::Doc(doc));
                }
                DocEvent::Item { .. } => out.push(Message::Doc(doc)),
            },
            // (5) determinations pass through; the candidate variables are
            // plain names here, nothing to update.
            det @ Message::Determine(..) => {
                self.trace.fire(5);
                out.push(det);
            }
        }
    }

    fn reset(&mut self) {
        self.depth.clear();
        self.open_vars.clear();
        self.closed_vars.clear();
        self.trace.clear();
    }

    fn stack_sizes(&self, _stream_depth: usize) -> (usize, usize) {
        (
            self.depth.len(),
            self.open_vars.len() + self.closed_vars.len(),
        )
    }

    fn set_tracing(&mut self, on: bool) {
        self.trace.set_enabled(on);
    }

    fn take_transitions(&mut self) -> Vec<u8> {
        self.trace.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transducers::test_util::stream_of;
    use spex_xml::EventStore;

    fn pr(store: &mut EventStore, label: &str) -> Preceding {
        let l = store.symbols_mut().intern(label);
        Preceding::new(MatchLabel::Symbol(l), QualifierId(0))
    }

    /// `^b` with a context arriving at the second <a>: the first <b> (which
    /// closed before) is satisfied; the later <b> resolves to false.
    #[test]
    fn closed_candidates_satisfied_by_later_context() {
        let mut vars = VarFactory::new();
        let mut store = EventStore::new();
        let stream = stream_of(&mut store, "<r><b/><a/><b/></r>");
        let mut t = pr(&mut store, "b");
        let mut tape = Vec::new();
        for (i, m) in stream.iter().enumerate() {
            if i == 4 {
                // context <a> opens at index 4.
                t.step(Message::Activate(Formula::True), &mut vars, &mut tape);
            }
            t.step(m.clone(), &mut vars, &mut tape);
        }
        let dets: Vec<String> = tape
            .iter()
            .filter(|m| matches!(m, Message::Determine(..)))
            .map(|m| m.to_string())
            .collect();
        // First b's variable true (context), second b's false (end of doc).
        assert_eq!(dets, vec!["{c0.1,true}", "{c0.2,false}"]);
        // Two speculative activations were emitted.
        let acts = tape
            .iter()
            .filter(|m| matches!(m, Message::Activate(_)))
            .count();
        assert_eq!(acts, 2);
    }

    /// A conditional context produces conditional determinations.
    #[test]
    fn conditional_context_implies() {
        use spex_formula::CondVar;
        let mut vars = VarFactory::new();
        let mut store = EventStore::new();
        let stream = stream_of(&mut store, "<r><b/><a/></r>");
        let mut t = pr(&mut store, "b");
        let ctx = Formula::Var(CondVar::new(9, 9));
        let mut tape = Vec::new();
        for (i, m) in stream.iter().enumerate() {
            if i == 4 {
                t.step(Message::Activate(ctx.clone()), &mut vars, &mut tape);
            }
            t.step(m.clone(), &mut vars, &mut tape);
        }
        let dets: Vec<String> = tape
            .iter()
            .filter(|m| matches!(m, Message::Determine(..)))
            .map(|m| m.to_string())
            .collect();
        // Conditionally satisfied, then resolved false at end of document
        // (the residual c9.9 remains in downstream formulas).
        assert_eq!(dets, vec!["{c0.1,∨c9.9}", "{c0.1,false}"]);
    }

    /// Still-open candidates are not satisfied (ancestors are excluded).
    #[test]
    fn open_candidates_not_satisfied() {
        let mut vars = VarFactory::new();
        let mut store = EventStore::new();
        let stream = stream_of(&mut store, "<b><a/></b>");
        let mut t = pr(&mut store, "b");
        let mut tape = Vec::new();
        for (i, m) in stream.iter().enumerate() {
            if i == 2 {
                t.step(Message::Activate(Formula::True), &mut vars, &mut tape);
            }
            t.step(m.clone(), &mut vars, &mut tape);
        }
        let dets: Vec<String> = tape
            .iter()
            .filter(|m| matches!(m, Message::Determine(..)))
            .map(|m| m.to_string())
            .collect();
        // The <b> is an ancestor of the context: only the end-of-document
        // false resolution.
        assert_eq!(dets, vec!["{c0.1,false}"]);
    }
}
