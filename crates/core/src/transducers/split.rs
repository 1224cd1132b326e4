//! The split transducer SP — Fig. 8 of the paper.
//!
//! "Its task is to forward every received message to both of the output
//! tapes." In this implementation fan-out is a property of the network (a
//! node's emitted messages are copied to every outgoing tape), so the split
//! transducer itself is the identity — it exists as an explicit node so
//! networks have the exact shape of Fig. 12 and its transition (1) can be
//! traced.

use super::{Trace, Transducer};
use crate::message::Message;
use spex_formula::VarFactory;

/// The split transducer. See the [module documentation](self).
#[derive(Debug, Default)]
pub struct Split {
    trace: Trace,
}

impl Split {
    /// Create a split transducer.
    pub fn new() -> Self {
        Split::default()
    }
}

impl Transducer for Split {
    fn step(&mut self, msg: Message, _vars: &mut VarFactory, out: &mut Vec<Message>) {
        // (1) any symbol is forwarded (to both tapes, via network fan-out).
        self.trace.fire(1);
        out.push(msg);
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
    use spex_formula::Formula;

    #[test]
    fn forwards_everything() {
        let mut vars = VarFactory::new();
        let mut t = Split::new();
        let mut out = Vec::new();
        t.step(Message::Activate(Formula::True), &mut vars, &mut out);
        t.step(
            Message::Determine(
                spex_formula::CondVar::new(0, 1),
                crate::message::Determination::True,
            ),
            &mut vars,
            &mut out,
        );
        assert_eq!(out.len(), 2);
        t.set_tracing(true);
        t.step(Message::Activate(Formula::True), &mut vars, &mut out);
        assert_eq!(t.take_transitions(), vec![1]);
    }
}
