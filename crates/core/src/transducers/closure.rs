//! The closure transducer CL(l) — Fig. 3 of the paper.
//!
//! Implements positive closure `l+`: it matches chains of nested `<l>`
//! elements starting at children of the activating document message. The
//! depth-stack alphabet is {l, s, ns, e}: `s` marks the beginning of an
//! outermost match scope, `ns` a *nested* match scope (a new activation
//! arriving while matching), `e` the beginning of a subtree that interrupts
//! matching (a non-`l` element), and `l` an ordinary level.
//!
//! A distinguishing feature (transition 12) is that a nested scope pushes
//! the *disjunction* of the incoming formula and the topmost stack formula:
//! inside the nested scope, the transducer can match on behalf of both the
//! nesting and the nested activation. The disjunction is normalized so "a
//! formula contains at most one reference to a condition variable" (§III.4).
//!
//! The depth stack is stored sparsely: an entry `(stream depth, symbol)`
//! for each `s`, `ns` and `e`. Every `l` is implied by the stream depth each
//! document message carries: while matching, the levels above the top entry
//! are the matched chain elements of transition (7), closed by (9); while
//! waiting, they are the plain levels of (2), closed by (3). Neither changes
//! the stored state, so a closure in a live scope wakes on every open and
//! on the close of its top entry's level, and an idle one on nothing but an
//! activation.
//!
//! The transition numbers are exactly those of Fig. 3; the traces of Fig. 5
//! (example III.2, query `a+.c+`) are reproduced in the tests.

use super::child::MatchLabel;
use super::{Trace, Transducer, Watch};
use crate::message::{DocEvent, Message};
use spex_formula::{Formula, VarFactory};

/// Depth-stack alphabet Γ_depth = {l, s, ns, e} of Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Depth {
    /// `l` — ordinary level (never stored: implied by the stream depth).
    Level,
    /// `s` — scope start (outermost activation scope).
    Scope,
    /// `ns` — nested scope start.
    NestedScope,
    /// `e` — excursion into a non-matching subtree.
    Excursion,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Waiting,
    Matching,
    Activated1,
    Activated2,
}

/// The closure transducer. See the [module documentation](self).
#[derive(Debug)]
pub struct Closure {
    label: MatchLabel,
    state: State,
    /// The depth stack's `s`, `ns` and `e` entries, `(stream depth,
    /// symbol)`, bottom first.
    depth: Vec<(u32, Depth)>,
    cond: Vec<Formula>,
    trace: Trace,
}

impl Closure {
    /// Create a closure transducer for `label`.
    pub fn new(label: MatchLabel) -> Self {
        Closure {
            label,
            state: State::Waiting,
            depth: Vec::new(),
            cond: Vec::new(),
            trace: Trace::default(),
        }
    }

    /// The dense stack's top symbol when the element at stream depth `at`
    /// closes (see [`super::child`]).
    fn top_at(&self, at: u32) -> Option<Depth> {
        match self.depth.last() {
            Some(&(d, symbol)) if d == at => Some(symbol),
            _ if at > 0 => Some(Depth::Level),
            _ => None,
        }
    }
}

impl Transducer for Closure {
    fn step(&mut self, msg: Message, _vars: &mut VarFactory, out: &mut Vec<Message>) {
        match msg {
            Message::Activate(f) => match self.state {
                // (1) activation while waiting.
                State::Waiting => {
                    self.trace.fire(1);
                    self.cond.push(f);
                    self.state = State::Activated1;
                }
                // (6) activation while matching: a nested scope is coming.
                State::Matching => {
                    self.trace.fire(6);
                    self.cond.push(f);
                    self.state = State::Activated2;
                }
                State::Activated1 | State::Activated2 => {
                    debug_assert!(
                        false,
                        "consecutive activations reached a closure transducer"
                    );
                    if let Some(top) = self.cond.last_mut() {
                        *top = Formula::or(top.clone(), f);
                    }
                }
            },
            Message::Doc(doc) => match &doc {
                DocEvent::Open { label, depth, .. } => {
                    let (label, at) = (*label, *depth);
                    match self.state {
                        // (2) a level opens while waiting: an implied `l`.
                        State::Waiting => {
                            self.trace.fire(2);
                            out.push(Message::Doc(doc));
                        }
                        // (5) the activator element opens a fresh scope.
                        State::Activated1 => {
                            self.trace.fire(5);
                            self.depth.push((at, Depth::Scope));
                            self.state = State::Matching;
                            out.push(Message::Doc(doc));
                        }
                        State::Matching => {
                            if self.label.matches(label) {
                                // (7) match: stay matching — descendants of a
                                // matched element continue the chain. Its `l`
                                // is implied.
                                self.trace.fire(7);
                                let f = self.cond.last().cloned().unwrap_or(Formula::True);
                                out.push(Message::Activate(f));
                                out.push(Message::Doc(doc));
                            } else {
                                // (8) chain broken: excursion until the
                                // element closes.
                                self.trace.fire(8);
                                self.depth.push((at, Depth::Excursion));
                                self.state = State::Waiting;
                                out.push(Message::Doc(doc));
                            }
                        }
                        State::Activated2 => {
                            if self.label.matches(label) {
                                // (12) nested scope on a matching element:
                                // the element matches for the *outer* scope
                                // (second formula), and inside it both scopes
                                // are active — push their disjunction.
                                self.trace.fire(12);
                                let f1 = self.cond.pop().unwrap_or(Formula::True);
                                let f2 = self.cond.last().cloned().unwrap_or(Formula::True);
                                self.cond.push(Formula::or(f1, f2.clone()));
                                self.depth.push((at, Depth::NestedScope));
                                self.state = State::Matching;
                                out.push(Message::Activate(f2));
                                out.push(Message::Doc(doc));
                            } else {
                                // (13) nested scope on a non-matching
                                // element: only the nested activation can
                                // match inside (the outer chain is broken
                                // here), so the incoming formula stays on
                                // top.
                                self.trace.fire(13);
                                self.depth.push((at, Depth::NestedScope));
                                self.state = State::Matching;
                                out.push(Message::Doc(doc));
                            }
                        }
                    }
                }
                DocEvent::Close { depth, .. } => {
                    match (self.state, self.top_at(*depth)) {
                        // (3) ordinary level closes while waiting.
                        (State::Waiting, Some(Depth::Level)) => {
                            self.trace.fire(3);
                        }
                        // (4) excursion ends: resume matching.
                        (State::Waiting, Some(Depth::Excursion)) => {
                            self.trace.fire(4);
                            self.depth.pop();
                            self.state = State::Matching;
                        }
                        // (9) a matched chain element closes: continue
                        // matching at the level above (same scope).
                        (State::Matching, Some(Depth::Level)) => {
                            self.trace.fire(9);
                        }
                        // (10) a nested scope ends: drop its (merged)
                        // formula, the outer scope is still active.
                        (State::Matching, Some(Depth::NestedScope)) => {
                            self.trace.fire(10);
                            self.depth.pop();
                            self.cond.pop();
                        }
                        // (11) the outermost scope ends.
                        (State::Matching, Some(Depth::Scope)) => {
                            self.trace.fire(11);
                            self.depth.pop();
                            self.cond.pop();
                            self.state = State::Waiting;
                        }
                        _ => {}
                    }
                    out.push(Message::Doc(doc));
                }
                DocEvent::Item { .. } => out.push(Message::Doc(doc)),
            },
            // (14) determination: update every stored formula, forward.
            Message::Determine(c, v) => {
                self.trace.fire(14);
                for f in &mut self.cond {
                    *f = v.apply(c, f);
                }
                out.push(Message::Determine(c, v));
            }
        }
    }

    fn stack_sizes(&self, stream_depth: usize) -> (usize, usize) {
        (stream_depth, self.cond.len())
    }

    fn watch(&self) -> Watch {
        let top = self.depth.last().map(|e| e.0);
        match self.state {
            // Waiting: only the top excursion's close (4) matters.
            State::Waiting => Watch {
                open: None,
                open_label: None,
                close: top,
            },
            // A live scope: every open matches (7) or breaks the chain (8);
            // the scope's own close ends it (10, 11).
            State::Matching | State::Activated1 | State::Activated2 => Watch {
                open: Some(Watch::ANY_OPEN),
                open_label: None,
                close: top,
            },
        }
    }

    fn reset(&mut self) {
        self.state = State::Waiting;
        self.depth.clear();
        self.cond.clear();
        self.trace.clear();
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
    use crate::transducers::format_transitions;
    use crate::transducers::test_util::{fig1_stream, render};
    use spex_xml::EventStore;

    /// Drive the two-closure-transducer chain of example III.2 (`a+.c+`)
    /// over the Fig. 1 stream and compare the transition traces — verbatim —
    /// to Fig. 5 of the paper.
    #[test]
    fn figure_5_transition_traces() {
        let mut vars = VarFactory::new();
        let mut store = EventStore::new();
        let stream = fig1_stream(&mut store);
        let a = store.symbols_mut().intern("a");
        let c = store.symbols_mut().intern("c");

        let mut input = crate::transducers::input::Input::new();
        let mut t1 = Closure::new(MatchLabel::Symbol(a));
        let mut t2 = Closure::new(MatchLabel::Symbol(c));
        t1.set_tracing(true);
        t2.set_tracing(true);

        let mut trace1 = Vec::new();
        let mut trace2 = Vec::new();
        for msg in stream {
            let mut tape0 = Vec::new();
            input.step(msg, &mut vars, &mut tape0);
            let mut tape1 = Vec::new();
            for m in tape0 {
                t1.step(m, &mut vars, &mut tape1);
            }
            let mut tape2 = Vec::new();
            for m in tape1 {
                t2.step(m, &mut vars, &mut tape2);
            }
            trace1.push(format_transitions(&t1.take_transitions()));
            trace2.push(format_transitions(&t2.take_transitions()));
        }

        // Fig. 5, row T1.
        assert_eq!(
            trace1,
            vec!["1,5", "7", "7", "8", "4", "9", "8", "4", "8", "4", "9", "11"]
        );
        // Fig. 5, row T2.
        assert_eq!(
            trace2,
            vec!["2", "1,5", "6,13", "7", "9", "10", "8", "4", "7", "9", "11", "3"]
        );
    }

    /// Example III.2 produces two result candidates: the inner `<c>` (child
    /// of the nested `<a>`) and the later `<c>` (child of the outer `<a>`).
    #[test]
    fn example_iii_2_matches() {
        let mut vars = VarFactory::new();
        let mut store = EventStore::new();
        let stream = fig1_stream(&mut store);
        let a = store.symbols_mut().intern("a");
        let c = store.symbols_mut().intern("c");

        let mut input = crate::transducers::input::Input::new();
        let mut t1 = Closure::new(MatchLabel::Symbol(a));
        let mut t2 = Closure::new(MatchLabel::Symbol(c));

        let mut final_tape = Vec::new();
        for msg in stream {
            let mut tape0 = Vec::new();
            input.step(msg, &mut vars, &mut tape0);
            let mut tape1 = Vec::new();
            for m in tape0 {
                t1.step(m, &mut vars, &mut tape1);
            }
            for m in tape1 {
                t2.step(m, &mut vars, &mut final_tape);
            }
        }
        let mut matches = 0;
        for w in final_tape.windows(2) {
            if matches!(&w[0], Message::Activate(_)) && render(&store, &w[1]) == "<c>" {
                matches += 1;
            }
        }
        assert_eq!(matches, 2);
    }

    /// Nested scopes on matching elements merge formulas by disjunction
    /// (transition 12).
    #[test]
    fn nested_scope_disjunction() {
        use spex_formula::{CondVar, Formula};
        let mut vars = VarFactory::new();
        let mut store = EventStore::new();
        let a = store.symbols_mut().intern("a");
        let mut t = Closure::new(MatchLabel::Symbol(a));
        let va = Formula::Var(CondVar::new(0, 1));
        let vb = Formula::Var(CondVar::new(0, 2));
        let mut out = Vec::new();
        // Activate with va, open activator (the root-ish element).
        t.step(Message::Activate(va.clone()), &mut vars, &mut out);
        let open_x = crate::transducers::test_util::stream_of(&mut store, "<x><a><a/></a></x>");
        t.step(open_x[1].clone(), &mut vars, &mut out); // <x> → (5) scope
                                                        // First <a> matches with va (7).
        out.clear();
        t.step(open_x[2].clone(), &mut vars, &mut out);
        assert!(matches!(&out[0], Message::Activate(f) if *f == va));
        // A nested activation with vb arrives, followed by a matching <a>:
        // (6) then (12) — the match is announced with the *outer* formula va,
        // and the stack top becomes va ∨ vb.
        out.clear();
        t.step(Message::Activate(vb.clone()), &mut vars, &mut out);
        t.step(open_x[3].clone(), &mut vars, &mut out);
        assert!(matches!(&out[0], Message::Activate(f) if *f == va));
        assert_eq!(*t.cond.last().unwrap(), Formula::or(va, vb));
    }

    #[test]
    fn stacks_balance_over_a_document() {
        let mut vars = VarFactory::new();
        let mut store = EventStore::new();
        let stream = crate::transducers::test_util::stream_of(&mut store, "<a><a><b/><a/></a></a>");
        let mut input = crate::transducers::input::Input::new();
        let mut t = Closure::new(MatchLabel::Symbol(store.symbols_mut().intern("a")));
        for msg in stream {
            let mut tape0 = Vec::new();
            input.step(msg, &mut vars, &mut tape0);
            let mut out = Vec::new();
            for m in tape0 {
                t.step(m, &mut vars, &mut out);
            }
        }
        assert_eq!(t.stack_sizes(0), (0, 0));
        assert!(t.depth.is_empty());
    }
}
