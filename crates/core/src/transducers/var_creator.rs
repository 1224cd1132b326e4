//! The variable-creator transducer VC(q) — Fig. 6 of the paper.
//!
//! For every activation `[f]` it mints a fresh condition variable `c` (one
//! *instance* of the qualifier `q`), emits `[f ∧ c]`, and remembers `c` on
//! its condition stack. When the scope of the instance — the activating
//! element — closes without the qualifier having been satisfied for good,
//! VC emits the determination `{c, false}` (transition 4). The
//! variable-determinant VD is responsible for `{c, true}`.

use super::{Trace, Transducer};
use crate::message::{DocEvent, Message};
use spex_formula::{CondVar, Formula, QualifierId, VarFactory};

/// Depth-stack alphabet Γ_depth = {l, s} of Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Depth {
    /// `l` — ordinary level.
    Level,
    /// `s` — scope start: the level of an activating element.
    Scope,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Working,
    /// An activation has been received; the next document message opens the
    /// scope of the freshly created variable.
    Activate,
}

/// The variable-creator transducer. See the [module documentation](self).
#[derive(Debug)]
pub struct VarCreator {
    qualifier: QualifierId,
    state: State,
    depth: Vec<Depth>,
    /// Condition stack: the variable names of open instances (Fig. 6 keeps
    /// `c` entries, not formulas).
    vars: Vec<CondVar>,
    trace: Trace,
}

impl VarCreator {
    /// Create a variable creator for `qualifier`; each step mints from the
    /// run-wide factory it is handed.
    pub fn new(qualifier: QualifierId) -> Self {
        VarCreator {
            qualifier,
            state: State::Working,
            depth: Vec::new(),
            vars: Vec::new(),
            trace: Trace::default(),
        }
    }
}

impl Transducer for VarCreator {
    fn step(&mut self, msg: Message, vars: &mut VarFactory, out: &mut Vec<Message>) {
        match msg {
            // (1) activation: mint an instance, emit [f ∧ c].
            Message::Activate(f) => {
                debug_assert_eq!(
                    self.state,
                    State::Working,
                    "activation while already activated"
                );
                self.trace.fire(1);
                let c = vars.fresh(self.qualifier);
                self.vars.push(c);
                self.state = State::Activate;
                out.push(Message::Activate(Formula::and(f, Formula::Var(c))));
            }
            Message::Doc(doc) => match &doc {
                DocEvent::Open { .. } => match self.state {
                    // (2) ordinary level.
                    State::Working => {
                        self.trace.fire(2);
                        self.depth.push(Depth::Level);
                        out.push(Message::Doc(doc));
                    }
                    // (5) the scope of the newest instance opens.
                    State::Activate => {
                        self.trace.fire(5);
                        self.depth.push(Depth::Scope);
                        self.state = State::Working;
                        out.push(Message::Doc(doc));
                    }
                },
                DocEvent::Close { .. } => {
                    match self.depth.last().copied() {
                        // (3) ordinary level closes.
                        Some(Depth::Level) => {
                            self.trace.fire(3);
                            self.depth.pop();
                            out.push(Message::Doc(doc));
                        }
                        // (4) an instance's scope closes: invalidate it.
                        Some(Depth::Scope) => {
                            self.trace.fire(4);
                            self.depth.pop();
                            if let Some(c) = self.vars.pop() {
                                out.push(Message::Determine(
                                    c,
                                    crate::message::Determination::False,
                                ));
                            }
                            out.push(Message::Doc(doc));
                        }
                        None => out.push(Message::Doc(doc)),
                    }
                }
                DocEvent::Item { .. } => out.push(Message::Doc(doc)),
            },
            // (6) determinations pass through; the stack stores variable
            // names, not formulas, so there is nothing to update.
            Message::Determine(c, v) => {
                self.trace.fire(6);
                out.push(Message::Determine(c, v));
            }
        }
    }

    fn stack_sizes(&self) -> (usize, usize) {
        (self.depth.len(), self.vars.len())
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
    use crate::message::Determination;
    use crate::transducers::test_util::stream_of;
    use spex_xml::EventStore;

    fn vc() -> VarCreator {
        VarCreator::new(QualifierId(1))
    }

    #[test]
    fn creates_conjunction_with_fresh_variable() {
        let mut vars = VarFactory::new();
        let mut t = vc();
        let mut out = Vec::new();
        t.step(Message::Activate(Formula::True), &mut vars, &mut out);
        match &out[0] {
            Message::Activate(f) => {
                assert_eq!(f.to_string(), "c1.1");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn invalidates_on_scope_close() {
        let mut vars = VarFactory::new();
        let mut store = EventStore::new();
        let stream = stream_of(&mut store, "<a><b/></a>");
        let mut t = vc();
        let mut tape = Vec::new();
        // Activate before the <a> element (index 1): <a> is the scope.
        t.step(stream[0].clone(), &mut vars, &mut tape); // <$> (2)
        t.step(Message::Activate(Formula::True), &mut vars, &mut tape); // (1)
        t.step(stream[1].clone(), &mut vars, &mut tape); // <a> (5) scope opens
        t.step(stream[2].clone(), &mut vars, &mut tape); // <b> (2)
        t.step(stream[3].clone(), &mut vars, &mut tape); // </b> (3)
        tape.clear();
        t.step(stream[4].clone(), &mut vars, &mut tape); // </a> (4): {c,false};</a>
        assert_eq!(tape.len(), 2);
        assert!(matches!(&tape[0], Message::Determine(c, Determination::False) if c.serial == 1));
        assert!(matches!(&tape[1], Message::Doc(DocEvent::Close { .. })));
        assert_eq!(t.stack_sizes().1, 0);
    }

    #[test]
    fn nested_instances_stack() {
        let mut vars = VarFactory::new();
        let mut store = EventStore::new();
        let stream = stream_of(&mut store, "<a><a/></a>");
        let mut t = vc();
        let mut tape = Vec::new();
        t.step(stream[0].clone(), &mut vars, &mut tape); // <$>
        t.step(Message::Activate(Formula::True), &mut vars, &mut tape);
        t.step(stream[1].clone(), &mut vars, &mut tape); // outer <a>: scope of c1
        t.step(Message::Activate(Formula::True), &mut vars, &mut tape);
        t.step(stream[2].clone(), &mut vars, &mut tape); // inner <a>: scope of c2
        assert_eq!(t.stack_sizes().1, 2);
        tape.clear();
        t.step(stream[3].clone(), &mut vars, &mut tape); // inner </a>: {c2,false}
        assert!(matches!(&tape[0], Message::Determine(c, Determination::False) if c.serial == 2));
        tape.clear();
        t.step(stream[4].clone(), &mut vars, &mut tape); // outer </a>: {c1,false}
        assert!(matches!(&tape[0], Message::Determine(c, Determination::False) if c.serial == 1));
    }

    #[test]
    fn figure_13_t3_trace() {
        let mut vars = VarFactory::new();
        // The VC(q) row (T3) of Fig. 13 for `_*.a[b].c` over the Fig. 1
        // stream: VC is activated at both <a> messages (because CL(_)·CH(a)
        // matched them) and fires 4 at both </a>.
        let mut store = EventStore::new();
        let stream = stream_of(&mut store, "<a><a><c/></a><b/><c/></a>");
        let mut t = vc();
        t.set_tracing(true);
        let mut traces = Vec::new();
        // Activations arrive together with the two <a> open messages
        // (indices 1 and 2).
        for (i, msg) in stream.iter().enumerate() {
            let mut out = Vec::new();
            if i == 1 || i == 2 {
                t.step(Message::Activate(Formula::True), &mut vars, &mut out);
            }
            t.step(msg.clone(), &mut vars, &mut out);
            traces.push(crate::transducers::format_transitions(
                &t.take_transitions(),
            ));
        }
        assert_eq!(
            traces,
            vec!["2", "1,5", "1,5", "2", "3", "4", "2", "3", "2", "3", "4", "3"]
        );
    }
}
