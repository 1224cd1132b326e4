//! The variable-filter transducers VF(q+) and VF(q−) — §III.5.2.
//!
//! A variable filter is "sensitive to condition variables created for \[one\]
//! qualifier":
//!
//! * the **positive** filter VF(q+) lets through exactly the activation
//!   messages that carry at least one `q`-variable — those announce matches
//!   of the qualifier's path — and drops the rest. For determination
//!   messages it distinguishes provenance: determinations of qualifiers
//!   *nested inside this qualifier's sub-network* (the `inner` id range)
//!   originate on this branch only and must pass; all others also travel on
//!   the main branch of the enclosing split and are dropped here, exactly so
//!   the join does not duplicate them (the purpose served by Fig. 7's
//!   transition 2 in the paper).
//!
//!   *Deviation, documented in DESIGN.md:* the paper's VF(q+) already
//!   decomposes formulas "into a stream of condition variables"; here the
//!   decomposition (and the residual computation that nested qualifiers
//!   require) lives in the variable-determinant, so VF forwards the full
//!   formula.
//!
//! * the **negative** filter VF(q−) drops the variables created for `q` from
//!   the formulas passing through, projecting them out existentially. It is
//!   not used by the rpeq translation of Fig. 11 but by multi-sink
//!   conjunctive-query networks (§VII).

use super::{Trace, Transducer};
use crate::message::Message;
use spex_formula::{QualifierId, VarFactory};
use std::ops::Range;

/// The variable-filter transducer. See the [module documentation](self).
#[derive(Debug)]
pub struct VarFilter {
    qualifier: QualifierId,
    /// Qualifier ids allocated inside this qualifier's sub-network
    /// (positive polarity only).
    inner: Range<u32>,
    positive: bool,
    trace: Trace,
}

impl VarFilter {
    /// A positive filter VF(q+). `inner` is the range of qualifier ids
    /// compiled within this qualifier's sub-expression.
    pub fn positive(qualifier: QualifierId, inner: Range<u32>) -> Self {
        VarFilter {
            qualifier,
            inner,
            positive: true,
            trace: Trace::default(),
        }
    }

    /// A negative filter VF(q−).
    pub fn negative(qualifier: QualifierId) -> Self {
        VarFilter {
            qualifier,
            inner: 0..0,
            positive: false,
            trace: Trace::default(),
        }
    }
}

impl Transducer for VarFilter {
    fn step(&mut self, msg: Message, _vars: &mut VarFactory, out: &mut Vec<Message>) {
        match msg {
            Message::Activate(f) => {
                if self.positive {
                    if !f.vars_of(self.qualifier).is_empty() {
                        self.trace.fire(1);
                        out.push(Message::Activate(f));
                    }
                } else {
                    self.trace.fire(2);
                    // Existential projection: assigning true removes the
                    // variable without strengthening the formula.
                    let mut g = f;
                    for v in g.vars_of(self.qualifier) {
                        g = g.assign(v, true);
                    }
                    out.push(Message::Activate(g));
                }
            }
            Message::Determine(c, v) => {
                if self.positive {
                    if self.inner.contains(&c.qualifier.0) {
                        out.push(Message::Determine(c, v));
                    }
                    // Others are dropped: the main branch carries them.
                } else if c.qualifier != self.qualifier {
                    out.push(Message::Determine(c, v));
                }
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
    use crate::message::Determination;
    use spex_formula::{CondVar, Formula};

    fn f_mixed() -> Formula {
        // c1.1 ∧ (c1.2 ∨ c2.3)
        Formula::and(
            Formula::Var(CondVar::new(1, 1)),
            Formula::or(
                Formula::Var(CondVar::new(1, 2)),
                Formula::Var(CondVar::new(2, 3)),
            ),
        )
    }

    #[test]
    fn positive_filter_passes_activations_with_q_vars() {
        let mut vars = VarFactory::new();
        let mut t = VarFilter::positive(QualifierId(1), 2..3);
        let mut out = Vec::new();
        t.step(Message::Activate(f_mixed()), &mut vars, &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(&out[0], Message::Activate(f) if *f == f_mixed()));
    }

    #[test]
    fn positive_filter_drops_foreign_activations() {
        let mut vars = VarFactory::new();
        let mut t = VarFilter::positive(QualifierId(9), 10..10);
        let mut out = Vec::new();
        t.step(Message::Activate(f_mixed()), &mut vars, &mut out);
        t.step(Message::Activate(Formula::True), &mut vars, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn positive_filter_forwards_only_inner_determinations() {
        let mut vars = VarFactory::new();
        let mut t = VarFilter::positive(QualifierId(1), 2..4);
        let mut out = Vec::new();
        // Inner qualifier (id 2): passes.
        t.step(
            Message::Determine(CondVar::new(2, 5), Determination::True),
            &mut vars,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        // Own qualifier and outer qualifiers: dropped (main branch has them).
        t.step(
            Message::Determine(CondVar::new(1, 1), Determination::False),
            &mut vars,
            &mut out,
        );
        t.step(
            Message::Determine(CondVar::new(0, 7), Determination::True),
            &mut vars,
            &mut out,
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn negative_filter_projects_out_qualifier_vars() {
        let mut vars = VarFactory::new();
        let mut t = VarFilter::negative(QualifierId(1));
        let mut out = Vec::new();
        // Conjunction: dropping c1.1 leaves the rest.
        let f = Formula::and(
            Formula::Var(CondVar::new(1, 1)),
            Formula::Var(CondVar::new(2, 3)),
        );
        t.step(Message::Activate(f), &mut vars, &mut out);
        match &out[0] {
            Message::Activate(f) => assert_eq!(f.to_string(), "c2.3"),
            other => panic!("unexpected {other:?}"),
        }
        out.clear();
        // Disjunction: existential projection makes it trivially true.
        t.step(Message::Activate(f_mixed()), &mut vars, &mut out);
        match &out[0] {
            Message::Activate(f) => assert!(f.is_true()),
            other => panic!("unexpected {other:?}"),
        }
        out.clear();
        t.step(
            Message::Determine(CondVar::new(1, 1), Determination::False),
            &mut vars,
            &mut out,
        );
        assert!(out.is_empty());
        t.step(
            Message::Determine(CondVar::new(2, 3), Determination::False),
            &mut vars,
            &mut out,
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn document_messages_pass_both_polarities() {
        use spex_xml::EventStore;
        let mut vars = VarFactory::new();
        let mut store = EventStore::new();
        let stream = crate::transducers::test_util::stream_of(&mut store, "<a/>");
        for mut t in [
            VarFilter::positive(QualifierId(1), 2..2),
            VarFilter::negative(QualifierId(1)),
        ] {
            let mut out = Vec::new();
            for m in &stream {
                t.step(m.clone(), &mut vars, &mut out);
            }
            assert_eq!(out.len(), stream.len());
        }
    }
}
