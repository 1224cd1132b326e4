//! The child transducer CH(l) — Fig. 2 of the paper.
//!
//! Represents one label step: it matches `<l>` document messages that are
//! *direct children* of the activating document message. The depth stack
//! marks tree levels with `l` (plain level) and `m` (match level — the level
//! of children of the activator); the condition stack carries the formulas
//! of active activations.
//!
//! The depth stack is stored sparsely, as entries `(stream depth, symbol)`
//! at *activated* levels only: the activator's level (transition 5, an `l`)
//! and a nested activator's (11, 12, an `m`). Every other level is implied
//! by the stream depth each document message carries: the `m` of a child of
//! the activator (7, 8) is the level one below the top entry, and every
//! level deeper is a plain `l` (2, 3). So is the state: with an activator's
//! level on top, the child is *matching* while the stream is at that level
//! and *waiting* while the stream is inside one of its children. The logical
//! stack height is the stream depth; a close finds the symbol the dense
//! stack would have on top from its depth. The condition stack is already
//! sparse (one formula per activation).
//!
//! A child whose stack holds no entry reacts to nothing but an activation;
//! one with entries only to the events its [`Watch`] names: an open one
//! level below the top entry's (7, 8) and the close of the top entry's
//! level (9, 10). The other events fire (2), (3) or (4), which change
//! nothing stored.
//!
//! The transition numbers below are exactly those of Fig. 2; the traces of
//! Fig. 4 (example III.1, query `a.c`) are reproduced in the tests.

use super::{Trace, Transducer, Watch};
use crate::message::{DocEvent, Message};
use spex_formula::{Formula, VarFactory};
use spex_query::Label;

/// Depth-stack alphabet Γ_depth = {m, l} of Fig. 2, for the stored
/// (activated) levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Depth {
    /// `l` — an activator's level, pushed by transition 5.
    Level,
    /// `m` — a nested activator's level, pushed by transitions 11 and 12:
    /// the match level of the activation below it.
    Match,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// `waiting` or `matching`: which one, the stream depth tells (see the
    /// module documentation).
    Settled,
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
    /// The depth stack's activated levels, `(stream depth, symbol)`,
    /// bottom first.
    depth: Vec<(u32, Depth)>,
    cond: Vec<Formula>,
    /// The stream depth after the last document message (see
    /// [`Child::catch_up`]).
    at: u32,
    trace: Trace,
}

/// A resolved match label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchLabel {
    /// Matches every element label (but not `$`).
    Wildcard,
    /// Matches one interned symbol.
    Symbol(crate::message::Symbol),
    /// A label switch's test: matches each symbol `s` with `members[s]`
    /// set, the index of the switch member whose label `s` is (`u32::MAX`
    /// for none). See [`crate::vm`].
    OneOf(Box<[u32]>),
}

impl MatchLabel {
    /// Resolve a query label against the symbol table.
    pub fn resolve(label: &Label, symbols: &mut crate::message::SymbolTable) -> MatchLabel {
        match label {
            Label::Wildcard => MatchLabel::Wildcard,
            Label::Name(n) => MatchLabel::Symbol(symbols.intern(n)),
        }
    }

    /// The one symbol this label matches, if there is just one.
    pub fn symbol(&self) -> Option<crate::message::Symbol> {
        match self {
            MatchLabel::Symbol(s) => Some(*s),
            MatchLabel::Wildcard | MatchLabel::OneOf(_) => None,
        }
    }

    /// Does an element with interned label `sym` match?
    pub fn matches(&self, sym: crate::message::Symbol) -> bool {
        match self {
            // `_` matches every node label, but `$` is not a node label.
            MatchLabel::Wildcard => sym != crate::message::DOC_SYMBOL,
            MatchLabel::Symbol(s) => *s == sym,
            MatchLabel::OneOf(_) => self.member(sym).is_some(),
        }
    }

    /// For a switch's test, the member whose label `sym` is.
    pub fn member(&self, sym: crate::message::Symbol) -> Option<usize> {
        match self {
            MatchLabel::OneOf(members) => members
                .get(sym as usize)
                .filter(|&&m| m != u32::MAX)
                .map(|&m| m as usize),
            _ => None,
        }
    }
}

impl Child {
    /// Create a child transducer for `label`.
    pub fn new(label: MatchLabel) -> Self {
        Child {
            label,
            state: State::Settled,
            depth: Vec::new(),
            cond: Vec::new(),
            at: 0,
            trace: Trace::default(),
        }
    }

    /// Tell a child that sat out the events since its last step where the
    /// stream is now (the depth after the last event): the one thing an
    /// activation needs to tell `waiting` (1) from `matching` (6). A child
    /// stepped on every document message keeps track itself.
    pub fn catch_up(&mut self, stream_depth: u32) {
        self.at = stream_depth;
    }

    /// The label this child matches.
    pub fn label(&self) -> &MatchLabel {
        &self.label
    }

    /// `matching` (a settled child whose stream is at its top entry's level).
    fn matching(&self) -> bool {
        self.depth.last().is_some_and(|e| e.0 == self.at)
    }

    /// The stream depth one below the top entry's: where its children open.
    fn child_level(&self) -> Option<u32> {
        self.depth.last().map(|e| e.0 + 1)
    }
}

impl Transducer for Child {
    fn step(&mut self, msg: Message, _vars: &mut VarFactory, out: &mut Vec<Message>) {
        match msg {
            Message::Activate(f) => match self.state {
                // (6) activation while matching.
                State::Settled if self.matching() => {
                    self.trace.fire(6);
                    self.cond.push(f);
                    self.state = State::Activated2;
                }
                // (1) activation while waiting.
                State::Settled => {
                    self.trace.fire(1);
                    self.cond.push(f);
                    self.state = State::Activated1;
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
                DocEvent::Open { label, depth, .. } => {
                    let (label, at) = (*label, *depth);
                    match self.state {
                        // (5) the activator element opens.
                        State::Activated1 => {
                            self.trace.fire(5);
                            self.depth.push((at, Depth::Level));
                            self.state = State::Settled;
                        }
                        // The element both sits at the *old* activation's
                        // match level and opens the *new* activation's
                        // scope. A match therefore uses the second formula
                        // from the top (the old activation).
                        State::Activated2 => {
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
                                out.push(Message::Activate(f2));
                            } else {
                                // (12)
                                self.trace.fire(12);
                            }
                            self.depth.push((at, Depth::Match));
                            self.state = State::Settled;
                        }
                        // A child of the activator opens: its `m` level is
                        // implied, and the child is waiting inside it.
                        State::Settled if self.child_level() == Some(at) => {
                            if self.label.matches(label) {
                                // (7) match: emit an activation with the top
                                // formula.
                                self.trace.fire(7);
                                let f = self.cond.last().cloned().unwrap_or(Formula::True);
                                out.push(Message::Activate(f));
                            } else {
                                // (8) no match.
                                self.trace.fire(8);
                            }
                        }
                        // (2) a level opens while waiting: an implied `l`.
                        State::Settled => self.trace.fire(2),
                    }
                    self.at = at;
                    out.push(Message::Doc(doc));
                }
                DocEvent::Close { depth, .. } => {
                    let at = *depth;
                    match (self.state, self.depth.last().copied()) {
                        // (9) the activator element closes: the activation is
                        // finished, pop its formula.
                        (State::Settled, Some((d, Depth::Level))) if d == at => {
                            self.trace.fire(9);
                            self.depth.pop();
                            self.cond.pop();
                        }
                        // (10) a nested activator (from activated2) closes:
                        // drop the nested activation's formula, keep matching
                        // for the outer one.
                        (State::Settled, Some((d, Depth::Match))) if d == at => {
                            self.trace.fire(10);
                            self.depth.pop();
                            self.cond.pop();
                        }
                        // (4) closing the implied match level: resume
                        // matching.
                        (State::Settled, Some((d, _))) if d + 1 == at => self.trace.fire(4),
                        // (3) closing an implied `l` while waiting.
                        (State::Settled, _) if at > 0 => self.trace.fire(3),
                        // Defensive: close with an empty depth stack, or
                        // right after an activation (cannot happen on
                        // well-formed input).
                        _ => {}
                    }
                    self.at = at.saturating_sub(1);
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

    fn stack_sizes(&self, stream_depth: usize) -> (usize, usize) {
        (stream_depth, self.cond.len())
    }

    fn watch(&self) -> Watch {
        match self.state {
            // A child of the activator that matches opens one level below
            // it (7; a non-matching one, 8, changes nothing stored); the
            // activator's close ends the activation (9, 10). Nothing in
            // between changes what is stored. A switch's test names no one
            // label, so it watches every open there.
            State::Settled => match self.depth.last() {
                Some(&(d, _)) => Watch {
                    open: Some(d + 1),
                    open_label: self.label.symbol(),
                    close: Some(d),
                },
                None => Watch::default(),
            },
            // Within a tick only: the activator's open follows.
            State::Activated1 | State::Activated2 => Watch {
                open: Some(Watch::ANY_OPEN),
                open_label: None,
                close: None,
            },
        }
    }

    fn reset(&mut self) {
        self.state = State::Settled;
        self.depth.clear();
        self.cond.clear();
        self.at = 0;
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
        let switch = MatchLabel::OneOf(vec![u32::MAX, 1, u32::MAX, 0].into());
        assert!(switch.matches(1) && switch.matches(3));
        assert!(!switch.matches(0) && !switch.matches(2) && !switch.matches(9));
        assert_eq!((switch.member(3), switch.member(1)), (Some(0), Some(1)));
        assert_eq!(switch.symbol(), None);
    }

    #[test]
    fn depth_entries_only_at_activated_levels() {
        let mut vars = VarFactory::new();
        let mut store = EventStore::new();
        let stream =
            crate::transducers::test_util::stream_of(&mut store, "<a><b><b><b/></b></b></a>");
        let b = store.symbols_mut().intern("b");
        let mut t = Child::new(MatchLabel::Symbol(b));
        let mut out = Vec::new();
        // Never activated: every level is an implied `l`, nothing is stored
        // and nothing wakes the transducer.
        for msg in &stream {
            t.step(msg.clone(), &mut vars, &mut out);
            assert!(t.depth.is_empty());
            assert_eq!(t.watch(), Watch::default());
        }
        // Activated at `<a>` (depth 2): the activator's level is the only
        // entry, however deep the stream goes, and the child wakes only for
        // the opens of `<a>`'s `<b>` children and for `</a>`.
        t.step(stream[0].clone(), &mut vars, &mut out); // <$>
        t.step(Message::Activate(Formula::True), &mut vars, &mut out);
        t.step(stream[1].clone(), &mut vars, &mut out); // <a> (5)
        let watch = Watch {
            open: Some(3),
            open_label: Some(b),
            close: Some(2),
        };
        assert_eq!(t.watch(), watch);
        for msg in &stream[2..5] {
            t.step(msg.clone(), &mut vars, &mut out); // <b> (7), <b> (2), <b> (2)
        }
        assert_eq!(t.depth, vec![(2, Depth::Level)]);
        assert_eq!(t.stack_sizes(5), (5, 1));
        assert_eq!(t.watch(), watch);
        for msg in &stream[5..] {
            t.step(msg.clone(), &mut vars, &mut out);
        }
        assert!(t.depth.is_empty() && t.cond.is_empty());
        assert_eq!(t.watch(), Watch::default());
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
