//! The union connector UN — Fig. 10 of the paper.
//!
//! A connector "creates a condition formula from two formulas it receives":
//! placed after a join, it merges the activation messages the two branches
//! produced for the *same* document message into one activation carrying
//! their disjunction (transitions 1–2); a lone activation passes through
//! with its document message (transition 3).
//!
//! Two generalizations over the literal table of Fig. 10, both noted in
//! DESIGN.md:
//!
//! * **k-ary accumulation**: if more than two activations precede a document
//!   message, all of them are merged into a single disjunction (Fig. 10
//!   would emit an activation after the second one and restart, leaving two
//!   activations for one document message — which no downstream transducer
//!   accepts). For k ≤ 2 the behaviour coincides with the paper's table.
//! * **determination updates**: a determination message passing through
//!   (transition 4) also updates the formula(s) held on the condition stack.
//!   Fig. 10 forwards it without updating, which would let a stale variable
//!   value survive inside the pending formula; updating is required for
//!   correctness and matches what every other formula-holding transducer
//!   (child, closure) does in its update transition.

use super::{Trace, Transducer};
use crate::message::{Determination, Message};
use spex_formula::{CondVar, Formula, VarFactory};

/// The union connector. See the [module documentation](self).
#[derive(Debug, Default)]
pub struct Union {
    /// Activations accumulated since the last document message.
    pending: Vec<Formula>,
    /// Determinations that arrived while activations were pending. They are
    /// re-emitted *after* the merged activation so they never overtake an
    /// activation whose formula references their variable (which would
    /// orphan that variable downstream). Relative determination order is
    /// preserved.
    pending_dets: Vec<(CondVar, Determination)>,
    trace: Trace,
}

impl Union {
    /// Create a union connector.
    pub fn new() -> Self {
        Union::default()
    }
}

impl Transducer for Union {
    fn step(&mut self, msg: Message, _vars: &mut VarFactory, out: &mut Vec<Message>) {
        match msg {
            Message::Activate(f) => {
                // (1) first formula stored; (2) later formulas join the
                // disjunction (emitted with the document message).
                self.trace.fire(if self.pending.is_empty() { 1 } else { 2 });
                self.pending.push(f);
            }
            doc @ Message::Doc(_) => {
                if !self.pending.is_empty() {
                    // (2)/(3): emit the merged activation before the
                    // document message.
                    self.trace.fire(3);
                    // The singleton pop keeps `pending`'s capacity for the
                    // next tick; `disj` of one normalized formula is that
                    // formula.
                    let merged = if self.pending.len() == 1 {
                        self.pending.pop().expect("length checked")
                    } else {
                        Formula::disj(std::mem::take(&mut self.pending))
                    };
                    out.push(Message::Activate(merged));
                }
                for (c, v) in self.pending_dets.drain(..) {
                    out.push(Message::Determine(c, v));
                }
                out.push(doc);
            }
            Message::Determine(c, v) => {
                // (4) forward, updating any pending formulas. While an
                // activation is held, the determination is held too so it
                // cannot overtake it (see `pending_dets`).
                self.trace.fire(4);
                for f in &mut self.pending {
                    *f = v.apply(c, f);
                }
                if self.pending.is_empty() {
                    out.push(Message::Determine(c, v));
                } else {
                    self.pending_dets.push((c, v));
                }
            }
        }
    }

    fn stack_sizes(&self) -> (usize, usize) {
        (0, self.pending.len())
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
    use spex_formula::CondVar;
    use spex_xml::EventStore;

    fn var(s: u32) -> Formula {
        Formula::Var(CondVar::new(0, s))
    }

    #[test]
    fn two_activations_merge_to_disjunction() {
        let mut vars = VarFactory::new();
        let mut store = EventStore::new();
        let a = stream_of(&mut store, "<a/>")[1].clone();
        let mut u = Union::new();
        let mut out = Vec::new();
        u.step(Message::Activate(var(1)), &mut vars, &mut out);
        u.step(Message::Activate(var(2)), &mut vars, &mut out);
        assert!(out.is_empty()); // nothing until the document message
        u.step(a, &mut vars, &mut out);
        let rendered: Vec<String> = out.iter().map(|m| render(&store, m)).collect();
        assert_eq!(rendered, vec!["[c0.1 ∨ c0.2]", "<a>"]);
    }

    #[test]
    fn single_activation_passes() {
        let mut vars = VarFactory::new();
        let mut store = EventStore::new();
        let a = stream_of(&mut store, "<a/>")[1].clone();
        let mut u = Union::new();
        let mut out = Vec::new();
        u.step(Message::Activate(var(1)), &mut vars, &mut out);
        u.step(a, &mut vars, &mut out);
        let rendered: Vec<String> = out.iter().map(|m| render(&store, m)).collect();
        assert_eq!(rendered, vec!["[c0.1]", "<a>"]);
    }

    #[test]
    fn three_activations_merge() {
        let mut vars = VarFactory::new();
        let mut store = EventStore::new();
        let a = stream_of(&mut store, "<a/>")[1].clone();
        let mut u = Union::new();
        let mut out = Vec::new();
        for s in 1..=3 {
            u.step(Message::Activate(var(s)), &mut vars, &mut out);
        }
        u.step(a, &mut vars, &mut out);
        assert_eq!(out[0].to_string(), "[c0.1 ∨ c0.2 ∨ c0.3]");
    }

    #[test]
    fn plain_documents_forwarded() {
        let mut vars = VarFactory::new();
        let mut store = EventStore::new();
        let stream = stream_of(&mut store, "<a><b/></a>");
        let mut u = Union::new();
        let mut out = Vec::new();
        for m in &stream {
            u.step(m.clone(), &mut vars, &mut out);
        }
        assert_eq!(out.len(), stream.len());
    }

    #[test]
    fn determination_updates_pending_formula() {
        let mut vars = VarFactory::new();
        let mut store = EventStore::new();
        let a = stream_of(&mut store, "<a/>")[1].clone();
        let mut u = Union::new();
        let mut out = Vec::new();
        let c = CondVar::new(0, 1);
        u.step(Message::Activate(Formula::Var(c)), &mut vars, &mut out);
        u.step(
            Message::Determine(c, crate::message::Determination::True),
            &mut vars,
            &mut out,
        );
        u.step(a, &mut vars, &mut out);
        let rendered: Vec<String> = out.iter().map(|m| render(&store, m)).collect();
        // The determination was held behind the pending activation (so it
        // cannot overtake it) and re-emitted after the — already updated —
        // merged activation.
        assert_eq!(rendered, vec!["[true]", "{c0.1,true}", "<a>"]);
    }

    #[test]
    fn duplicate_conjuncts_removed() {
        let mut vars = VarFactory::new();
        // "Note, that such a disjunction can be normalized by removing
        // multiple occurrences of the same conjuncts" (§III.4).
        let mut store = EventStore::new();
        let a = stream_of(&mut store, "<a/>")[1].clone();
        let mut u = Union::new();
        let mut out = Vec::new();
        u.step(Message::Activate(var(1)), &mut vars, &mut out);
        u.step(Message::Activate(var(1)), &mut vars, &mut out);
        u.step(a, &mut vars, &mut out);
        assert_eq!(out[0].to_string(), "[c0.1]");
    }
}
