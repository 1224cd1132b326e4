//! The variable-determinant transducer VD — Fig. 7 of the paper.
//!
//! "Every instance c of q that reaches this transducer via an activation
//! message is satisfied": the qualifier sub-network upstream only produces
//! an activation when the qualifier expression matched. For each `q`-variable
//! `c` in the activation formula `f`, VD emits a determination:
//!
//! * `{c, true}` when the match is unconditional (the paper's transition 1),
//! * `{c := c ∨ r}` when the match itself still depends on *inner* qualifier
//!   instances — `r` is the residual of `f` after projecting out `c` and
//!   every variable of a non-inner qualifier (those express the validity of
//!   the *outer* context, which is structurally guaranteed here). This
//!   conditional form is what makes nested qualifiers (`a[b[c]]`) correct:
//!   the paper's Fig. 7 only covers the unconditional case.
//!
//! Incoming determinations of inner qualifiers are forwarded (the candidates
//! downstream now reference those variables through residuals); the
//! positive variable-filter upstream has already dropped all others, so —
//! as with Fig. 7's transition 2 — nothing is duplicated at the join.

use super::{Trace, Transducer};
use crate::message::{Determination, Message};
use spex_formula::{QualifierId, VarFactory};
use std::ops::Range;

/// The variable-determinant transducer. See the [module documentation](self).
#[derive(Debug)]
pub struct VarDeterminant {
    qualifier: QualifierId,
    /// Qualifier ids allocated inside this qualifier's sub-network.
    inner: Range<u32>,
    trace: Trace,
}

impl VarDeterminant {
    /// Create a variable determinant for `qualifier` with the given inner
    /// qualifier id range.
    pub fn new(qualifier: QualifierId, inner: Range<u32>) -> Self {
        VarDeterminant {
            qualifier,
            inner,
            trace: Trace::default(),
        }
    }
}

impl Transducer for VarDeterminant {
    fn step(&mut self, msg: Message, _vars: &mut VarFactory, out: &mut Vec<Message>) {
        match msg {
            // (1) a qualifier-path match: determine every instance variable.
            Message::Activate(f) => {
                self.trace.fire(1);
                for c in f.vars_of(self.qualifier) {
                    // Residual: the instance variable itself and every
                    // variable conditioning the *outer* context are
                    // structurally satisfied at this point; only inner
                    // qualifier variables remain as genuine conditions.
                    let mut r = f.assign(c, true);
                    for v in r.vars() {
                        if !self.inner.contains(&v.qualifier.0) {
                            r = r.assign(v, true);
                        }
                    }
                    let det = if r.is_true() {
                        Determination::True
                    } else {
                        Determination::Implied(r)
                    };
                    out.push(Message::Determine(c, det));
                }
            }
            // (2) inner determinations pass (VF(q+) dropped all others).
            det @ Message::Determine(..) => {
                self.trace.fire(2);
                out.push(det);
            }
            doc @ Message::Doc(_) => out.push(doc),
        }
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
    use spex_formula::{CondVar, Formula};

    #[test]
    fn unconditional_activation_becomes_true_determination() {
        let mut vars = VarFactory::new();
        let mut t = VarDeterminant::new(QualifierId(1), 2..2);
        let mut out = Vec::new();
        let c = CondVar::new(1, 4);
        t.step(Message::Activate(Formula::Var(c)), &mut vars, &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(&out[0], Message::Determine(v, Determination::True) if *v == c));
    }

    #[test]
    fn outer_variables_are_projected_out() {
        let mut vars = VarFactory::new();
        // f = c0.7 ∧ c1.4 — the outer context variable c0.7 is structurally
        // satisfied; the q1 instance is satisfied unconditionally.
        let mut t = VarDeterminant::new(QualifierId(1), 2..2);
        let mut out = Vec::new();
        let f = Formula::and(
            Formula::Var(CondVar::new(0, 7)),
            Formula::Var(CondVar::new(1, 4)),
        );
        t.step(Message::Activate(f), &mut vars, &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            &out[0],
            Message::Determine(v, Determination::True) if *v == CondVar::new(1, 4)
        ));
    }

    #[test]
    fn inner_variables_become_residuals() {
        let mut vars = VarFactory::new();
        // f = c1.4 ∧ c2.9 with q2 nested inside q1: the match is conditional
        // on the inner instance — {c1.4 := c1.4 ∨ c2.9}.
        let mut t = VarDeterminant::new(QualifierId(1), 2..3);
        let mut out = Vec::new();
        let inner = CondVar::new(2, 9);
        let f = Formula::and(Formula::Var(CondVar::new(1, 4)), Formula::Var(inner));
        t.step(Message::Activate(f), &mut vars, &mut out);
        assert_eq!(out.len(), 1);
        match &out[0] {
            Message::Determine(v, Determination::Implied(r)) => {
                assert_eq!(*v, CondVar::new(1, 4));
                assert_eq!(*r, Formula::Var(inner));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn incoming_determinations_forwarded() {
        let mut vars = VarFactory::new();
        let mut t = VarDeterminant::new(QualifierId(1), 2..3);
        let mut out = Vec::new();
        t.step(
            Message::Determine(CondVar::new(2, 4), Determination::False),
            &mut vars,
            &mut out,
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn document_messages_forwarded() {
        use spex_xml::EventStore;
        let mut vars = VarFactory::new();
        let mut store = EventStore::new();
        let stream = crate::transducers::test_util::stream_of(&mut store, "<a>x</a>");
        let mut t = VarDeterminant::new(QualifierId(0), 1..1);
        let mut out = Vec::new();
        for m in &stream {
            t.step(m.clone(), &mut vars, &mut out);
        }
        assert_eq!(out.len(), stream.len());
    }
}
