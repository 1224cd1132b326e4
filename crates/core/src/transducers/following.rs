//! The following transducer FO(l) — an extension beyond the paper's
//! transducer set.
//!
//! §I of the paper notes that "the prototype supports also other XPath
//! navigational capabilities, i.e. following and preceding". FO(l)
//! implements the `following::l` axis in the SPEX architecture: it selects
//! every `<l>` document message that opens *after the activating element has
//! closed* — the streaming reading of XPath's "all nodes after the context
//! node in document order, excluding its descendants" (descendants all open
//! before the context's close, so they are excluded for free).
//!
//! Mechanics: like VC, the transducer marks the activator's level with `s`
//! on its depth stack and keeps the activation formula on its condition
//! stack; when the scope closes, the formula moves into the accumulated
//! disjunction `closed` — the condition under which *any* context node has
//! already ended. From then on every matching open is announced with
//! `[closed]`. At `</$>` (depth stack empty) the accumulator resets, so
//! consecutive documents on one stream stay independent.
//!
//! FO is a 1-DPDT like the other matching transducers: one synchronized
//! depth/condition stack plus a formula register.

use super::child::MatchLabel;
use super::{Trace, Transducer};
use crate::message::{DocEvent, Message};
use spex_formula::{Formula, VarFactory};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Depth {
    /// Ordinary level.
    Level,
    /// An activator's level: its close completes a context node.
    Scope,
}

/// The following transducer. See the [module documentation](self).
#[derive(Debug)]
pub struct Following {
    label: MatchLabel,
    depth: Vec<Depth>,
    /// Formulas of activators whose elements are still open (parallel to
    /// the `Scope` entries of `depth`).
    pending: Vec<Formula>,
    /// Disjunction of the formulas of all context nodes that have closed.
    closed: Formula,
    /// An activation has been received; the next open is its activator.
    armed: bool,
    trace: Trace,
}

impl Following {
    /// Create a following transducer for `label`.
    pub fn new(label: MatchLabel) -> Self {
        Following {
            label,
            depth: Vec::new(),
            pending: Vec::new(),
            closed: Formula::False,
            armed: false,
            trace: Trace::default(),
        }
    }
}

impl Transducer for Following {
    fn step(&mut self, msg: Message, _vars: &mut VarFactory, out: &mut Vec<Message>) {
        match msg {
            // (1) activation: remember the formula, await its activator.
            Message::Activate(f) => {
                self.trace.fire(1);
                if self.armed {
                    // Defensive (the compiler's UN prevents this): merge.
                    if let Some(top) = self.pending.last_mut() {
                        *top = Formula::or(top.clone(), f);
                    }
                } else {
                    self.pending.push(f);
                    self.armed = true;
                }
            }
            Message::Doc(doc) => match &doc {
                DocEvent::Open { label, .. } => {
                    // (2)/(3) a match fires for every element opening after
                    // at least one context closed (possibly conditionally).
                    if self.label.matches(*label) && !self.closed.is_false() {
                        self.trace.fire(2);
                        out.push(Message::Activate(self.closed.clone()));
                    }
                    if self.armed {
                        self.trace.fire(3);
                        self.depth.push(Depth::Scope);
                        self.armed = false;
                    } else {
                        self.depth.push(Depth::Level);
                    }
                    out.push(Message::Doc(doc));
                }
                DocEvent::Close { .. } => {
                    match self.depth.pop() {
                        // (4) a context node ends: its formula joins the
                        // accumulated disjunction.
                        Some(Depth::Scope) => {
                            self.trace.fire(4);
                            if let Some(f) = self.pending.pop() {
                                self.closed = Formula::or(self.closed.clone(), f);
                            }
                        }
                        Some(Depth::Level) | None => {}
                    }
                    if self.depth.is_empty() {
                        // `</$>`: reset for the next document on the stream.
                        self.closed = Formula::False;
                        self.pending.clear();
                        self.armed = false;
                    }
                    out.push(Message::Doc(doc));
                }
                DocEvent::Item { .. } => out.push(Message::Doc(doc)),
            },
            // (5) determination: update all held formulas, forward.
            Message::Determine(c, v) => {
                self.trace.fire(5);
                for f in &mut self.pending {
                    *f = v.apply(c, f);
                }
                self.closed = v.apply(c, &self.closed);
                out.push(Message::Determine(c, v));
            }
        }
    }

    fn stack_sizes(&self) -> (usize, usize) {
        (self.depth.len(), self.pending.len())
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
    use crate::transducers::test_util::{render, stream_of};
    use spex_xml::EventStore;

    /// `~b` activated at the root: only `b` elements after `</a₁>` match.
    #[test]
    fn matches_only_after_scope_close() {
        let mut vars = VarFactory::new();
        let mut store = EventStore::new();
        let stream = stream_of(&mut store, "<r><a><b/></a><b/><c><b/></c></r>");
        let b = store.symbols_mut().intern("b");
        // Activate with the first <a> (index 2) as context.
        let mut t = Following::new(MatchLabel::Symbol(b));
        let mut tape = Vec::new();
        for (i, m) in stream.iter().enumerate() {
            if i == 2 {
                t.step(Message::Activate(Formula::True), &mut vars, &mut tape);
            }
            t.step(m.clone(), &mut vars, &mut tape);
        }
        let matches: Vec<usize> = tape
            .iter()
            .enumerate()
            .filter(|(_, m)| matches!(m, Message::Activate(_)))
            .map(|(i, _)| i)
            .collect();
        // The <b> inside <a> does NOT match (context still open); the
        // sibling <b> and the nested <b> inside <c> do.
        assert_eq!(matches.len(), 2);
        // Each match activation directly precedes its <b>.
        for i in matches {
            assert_eq!(render(&store, &tape[i + 1]), "<b>");
        }
    }

    #[test]
    fn resets_between_documents() {
        let mut vars = VarFactory::new();
        let mut store = EventStore::new();
        let b = store.symbols_mut().intern("b");
        let mut t = Following::new(MatchLabel::Symbol(b));
        let mut tape = Vec::new();
        let doc = stream_of(&mut store, "<r><a/><b/></r>");
        // First document: activate at <a>.
        for (i, m) in doc.iter().enumerate() {
            if i == 2 {
                t.step(Message::Activate(Formula::True), &mut vars, &mut tape);
            }
            t.step(m.clone(), &mut vars, &mut tape);
        }
        let first: usize = tape
            .iter()
            .filter(|m| matches!(m, Message::Activate(_)))
            .count();
        assert_eq!(first, 1);
        // Second document without activation: no carried-over matches.
        tape.clear();
        for m in &doc {
            t.step(m.clone(), &mut vars, &mut tape);
        }
        assert!(tape.iter().all(|m| !matches!(m, Message::Activate(_))));
        assert_eq!(t.stack_sizes(), (0, 0));
    }

    #[test]
    fn multiple_contexts_disjoin() {
        use spex_formula::CondVar;
        let mut vars = VarFactory::new();
        let mut store = EventStore::new();
        let x = store.symbols_mut().intern("x");
        let mut t = Following::new(MatchLabel::Symbol(x));
        let stream = stream_of(&mut store, "<r><a/><a/><x/></r>");
        let va = Formula::Var(CondVar::new(0, 1));
        let vb = Formula::Var(CondVar::new(0, 2));
        let mut tape = Vec::new();
        for (i, m) in stream.iter().enumerate() {
            if i == 2 {
                t.step(Message::Activate(va.clone()), &mut vars, &mut tape);
            }
            if i == 4 {
                t.step(Message::Activate(vb.clone()), &mut vars, &mut tape);
            }
            t.step(m.clone(), &mut vars, &mut tape);
        }
        let act: Vec<&Message> = tape
            .iter()
            .filter(|m| matches!(m, Message::Activate(_)))
            .collect();
        assert_eq!(act.len(), 1);
        assert!(matches!(act[0], Message::Activate(f) if *f == Formula::or(va, vb)));
    }
}
