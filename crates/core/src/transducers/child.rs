//! The child transducer CH(l) — Fig. 2 of the paper.
//!
//! Represents one label step: it matches `<l>` document messages that are
//! *direct children* of the activating document message. The depth stack
//! marks tree levels with `l` (plain level) and `m` (match level — the level
//! of children of the activator); the condition stack carries the formulas
//! of active activations.
//!
//! The transition numbers below are exactly those of Fig. 2; the traces of
//! Fig. 4 (example III.1, query `a.c`) are reproduced in the tests.

use super::{Trace, Transducer};
use crate::message::{DocEvent, Message};
use spex_formula::{Formula, VarFactory};
use spex_query::Label;

/// Depth-stack alphabet Γ_depth = {m, l} of Fig. 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Depth {
    /// `l` — an ordinary tree level.
    Level,
    /// `m` — the match level of an activation scope.
    Match,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Waiting,
    Matching,
    /// Activated out of `waiting`: the next document message opens the
    /// activator element.
    Activated1,
    /// Activated out of `matching`: the next document message is at the
    /// current match level *and* opens a new (nested) activator.
    Activated2,
}

/// The child transducer. See the [module documentation](self).
#[derive(Debug)]
pub struct Child {
    /// The label `l_m` this transducer matches (wildcard matches anything
    /// except the virtual root `$`).
    label: MatchLabel,
    state: State,
    depth: Vec<Depth>,
    cond: Vec<Formula>,
    trace: Trace,
}

/// A resolved match label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchLabel {
    /// Matches every element label (but not `$`).
    Wildcard,
    /// Matches one interned symbol.
    Symbol(crate::message::Symbol),
}

impl MatchLabel {
    /// Resolve a query label against the symbol table.
    pub fn resolve(label: &Label, symbols: &mut crate::message::SymbolTable) -> MatchLabel {
        match label {
            Label::Wildcard => MatchLabel::Wildcard,
            Label::Name(n) => MatchLabel::Symbol(symbols.intern(n)),
        }
    }

    /// Does an element with interned label `sym` match?
    pub fn matches(&self, sym: crate::message::Symbol) -> bool {
        match self {
            // `_` matches every node label, but `$` is not a node label.
            MatchLabel::Wildcard => sym != crate::message::DOC_SYMBOL,
            MatchLabel::Symbol(s) => *s == sym,
        }
    }
}

impl Child {
    /// Create a child transducer for `label`.
    pub fn new(label: MatchLabel) -> Self {
        Child {
            label,
            state: State::Waiting,
            depth: Vec::new(),
            cond: Vec::new(),
            trace: Trace::default(),
        }
    }
}

impl Transducer for Child {
    fn step(&mut self, msg: Message, _vars: &mut VarFactory, out: &mut Vec<Message>) {
        match msg {
            Message::Activate(f) => match self.state {
                // (1) activation while waiting.
                State::Waiting => {
                    self.trace.fire(1);
                    self.cond.push(f);
                    self.state = State::Activated1;
                }
                // (6) activation while matching.
                State::Matching => {
                    self.trace.fire(6);
                    self.cond.push(f);
                    self.state = State::Activated2;
                }
                // Not in the paper's table: a second activation for the same
                // document message. The compiler inserts union connectors so
                // this cannot occur; merge defensively by disjunction.
                State::Activated1 | State::Activated2 => {
                    debug_assert!(false, "consecutive activations reached a child transducer");
                    if let Some(top) = self.cond.last_mut() {
                        *top = Formula::or(top.clone(), f);
                    }
                }
            },
            Message::Doc(doc) => match &doc {
                DocEvent::Open { label, .. } => {
                    let label = *label;
                    match self.state {
                        // (2) a level opens while waiting.
                        State::Waiting => {
                            self.trace.fire(2);
                            self.depth.push(Depth::Level);
                            out.push(Message::Doc(doc));
                        }
                        // (5) the activator element opens.
                        State::Activated1 => {
                            self.trace.fire(5);
                            self.depth.push(Depth::Level);
                            self.state = State::Matching;
                            out.push(Message::Doc(doc));
                        }
                        State::Matching => {
                            if self.label.matches(label) {
                                // (7) match: emit an activation with the top
                                // formula, remember the match level.
                                self.trace.fire(7);
                                let f = self.cond.last().cloned().unwrap_or(Formula::True);
                                self.depth.push(Depth::Match);
                                self.state = State::Waiting;
                                out.push(Message::Activate(f));
                                out.push(Message::Doc(doc));
                            } else {
                                // (8) no match: remember the level anyway so
                                // the close message restores `matching`.
                                self.trace.fire(8);
                                self.depth.push(Depth::Match);
                                self.state = State::Waiting;
                                out.push(Message::Doc(doc));
                            }
                        }
                        State::Activated2 => {
                            // The element both sits at the *old* activation's
                            // match level and opens the *new* activation's
                            // scope. A match therefore uses the second
                            // formula from the top (the old activation).
                            if self.label.matches(label) {
                                // (11)
                                self.trace.fire(11);
                                let n = self.cond.len();
                                debug_assert!(n >= 2, "activated2 needs two formulas");
                                let f2 = if n >= 2 {
                                    self.cond[n - 2].clone()
                                } else {
                                    self.cond.last().cloned().unwrap_or(Formula::True)
                                };
                                self.depth.push(Depth::Match);
                                self.state = State::Matching;
                                out.push(Message::Activate(f2));
                                out.push(Message::Doc(doc));
                            } else {
                                // (12)
                                self.trace.fire(12);
                                self.depth.push(Depth::Match);
                                self.state = State::Matching;
                                out.push(Message::Doc(doc));
                            }
                        }
                    }
                }
                DocEvent::Close { .. } => {
                    match (self.state, self.depth.last().copied()) {
                        // (3) closing an ordinary level while waiting.
                        (State::Waiting, Some(Depth::Level)) => {
                            self.trace.fire(3);
                            self.depth.pop();
                        }
                        // (4) closing the match level: resume matching.
                        (State::Waiting, Some(Depth::Match)) => {
                            self.trace.fire(4);
                            self.depth.pop();
                            self.state = State::Matching;
                        }
                        // (9) the activator element closes: the activation is
                        // finished, pop its formula.
                        (State::Matching, Some(Depth::Level)) => {
                            self.trace.fire(9);
                            self.depth.pop();
                            self.cond.pop();
                            self.state = State::Waiting;
                        }
                        // (10) a nested activator (from activated2) closes:
                        // drop the nested activation's formula, keep matching
                        // for the outer one.
                        (State::Matching, Some(Depth::Match)) => {
                            self.trace.fire(10);
                            self.depth.pop();
                            self.cond.pop();
                        }
                        // Defensive: close with an empty depth stack (cannot
                        // happen on well-formed input).
                        _ => {}
                    }
                    out.push(Message::Doc(doc));
                }
                // Depth-neutral content: forward (implicit transition).
                DocEvent::Item { .. } => out.push(Message::Doc(doc)),
            },
            // (13) determination: update every stored formula, forward.
            Message::Determine(c, v) => {
                self.trace.fire(13);
                for f in &mut self.cond {
                    *f = v.apply(c, f);
                }
                out.push(Message::Determine(c, v));
            }
        }
    }

    fn stack_sizes(&self) -> (usize, usize) {
        (self.depth.len(), self.cond.len())
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

    /// Drive the two-child-transducer chain of example III.1 (`a.c`) over
    /// the Fig. 1 stream and compare the transition traces to Fig. 4.
    #[test]
    fn figure_4_transition_traces() {
        let mut vars = VarFactory::new();
        let mut store = EventStore::new();
        let stream = fig1_stream(&mut store);
        let a = store.symbols_mut().intern("a");
        let c = store.symbols_mut().intern("c");

        let mut input = crate::transducers::input::Input::new();
        let mut t1 = Child::new(MatchLabel::Symbol(a));
        let mut t2 = Child::new(MatchLabel::Symbol(c));
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

        // Fig. 4, row T1.
        assert_eq!(
            trace1,
            vec!["1,5", "7", "2", "2", "3", "3", "2", "3", "2", "3", "4", "9"]
        );
        // Fig. 4, row T2.
        assert_eq!(
            trace2,
            vec!["2", "1,5", "8", "2", "3", "4", "8", "4", "7", "4", "9", "3"]
        );
    }

    /// The matched `<c>` of example III.1 is announced with an activation.
    #[test]
    fn example_iii_1_emits_one_match() {
        let mut vars = VarFactory::new();
        let mut store = EventStore::new();
        let stream = fig1_stream(&mut store);
        let a = store.symbols_mut().intern("a");
        let c = store.symbols_mut().intern("c");

        let mut input = crate::transducers::input::Input::new();
        let mut t1 = Child::new(MatchLabel::Symbol(a));
        let mut t2 = Child::new(MatchLabel::Symbol(c));

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
        let activations: Vec<String> = final_tape
            .iter()
            .filter(|m| matches!(m, Message::Activate(_)))
            .map(|m| m.to_string())
            .collect();
        assert_eq!(activations, vec!["[true]"]);
        // The activation directly precedes the ninth document message
        // (the second <c> of the stream).
        let pos = final_tape
            .iter()
            .position(|m| matches!(m, Message::Activate(_)))
            .unwrap();
        assert_eq!(render(&store, &final_tape[pos + 1]), "<c>");
    }

    #[test]
    fn wildcard_matches_every_element_but_not_root() {
        assert!(MatchLabel::Wildcard.matches(5));
        assert!(!MatchLabel::Wildcard.matches(crate::message::DOC_SYMBOL));
        assert!(MatchLabel::Symbol(3).matches(3));
        assert!(!MatchLabel::Symbol(3).matches(4));
    }

    #[test]
    fn stack_sizes_track_depth() {
        let mut vars = VarFactory::new();
        let mut store = EventStore::new();
        let stream =
            crate::transducers::test_util::stream_of(&mut store, "<a><b><b><b/></b></b></a>");
        let mut t = Child::new(MatchLabel::Symbol(store.symbols_mut().intern("a")));
        let mut max_depth = 0;
        let mut out = Vec::new();
        // Never activated: the depth stack still tracks every level.
        for msg in stream {
            t.step(msg, &mut vars, &mut out);
            max_depth = max_depth.max(t.stack_sizes().0);
            assert_eq!(t.stack_sizes().1, 0);
        }
        assert_eq!(max_depth, 5); // $, a, b, b, b
        assert_eq!(t.stack_sizes(), (0, 0)); // balanced at end
    }

    #[test]
    fn determination_updates_stored_formulas() {
        use spex_formula::{CondVar, Formula};
        let mut vars = VarFactory::new();
        let mut t = Child::new(MatchLabel::Symbol(1));
        let v = CondVar::new(0, 1);
        let mut out = Vec::new();
        t.step(Message::Activate(Formula::Var(v)), &mut vars, &mut out);
        assert_eq!(t.cond, vec![Formula::Var(v)]);
        t.step(
            Message::Determine(v, crate::message::Determination::True),
            &mut vars,
            &mut out,
        );
        assert_eq!(t.cond, vec![Formula::True]);
        // The determination was forwarded.
        assert!(matches!(
            out.last(),
            Some(Message::Determine(_, crate::message::Determination::True))
        ));
    }
}
