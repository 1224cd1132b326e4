//! The input transducer IN (§III.2).
//!
//! The source of every SPEX network. It "has the task of sending an
//! activation message on the start document message and of forwarding one
//! document message at a time": when `<$>` arrives it emits `[true]`
//! followed by `<$>`; every other message is forwarded unchanged. The
//! one-message-at-a-time discipline is realized by the tick-synchronous
//! network executor.

use super::{Trace, Transducer};
use crate::message::{DocEvent, Message, DOC_SYMBOL};
use spex_formula::{Formula, VarFactory};

/// The network source. See the [module documentation](self).
#[derive(Debug, Default)]
pub struct Input {
    trace: Trace,
}

impl Input {
    /// Create an input transducer.
    pub fn new() -> Self {
        Input::default()
    }
}

impl Transducer for Input {
    fn step(&mut self, msg: Message, _vars: &mut VarFactory, out: &mut Vec<Message>) {
        if let Message::Doc(DocEvent::Open {
            label: DOC_SYMBOL, ..
        }) = &msg
        {
            self.trace.fire(1);
            out.push(Message::Activate(Formula::True));
        }
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
    use crate::transducers::test_util::fig1_stream;
    use spex_xml::EventStore;

    #[test]
    fn activation_sent_on_start_document() {
        let mut vars = VarFactory::new();
        let mut store = EventStore::new();
        let stream = fig1_stream(&mut store);
        let mut t = Input::new();
        let mut out = Vec::new();
        t.step(stream[0].clone(), &mut vars, &mut out);
        assert_eq!(out.len(), 2);
        assert!(matches!(&out[0], Message::Activate(f) if f.is_true()));
        assert!(matches!(
            &out[1],
            Message::Doc(DocEvent::Open { label: 0, .. })
        ));
    }

    #[test]
    fn other_messages_forwarded_verbatim() {
        let mut vars = VarFactory::new();
        let mut store = EventStore::new();
        let stream = fig1_stream(&mut store);
        let mut t = Input::new();
        for msg in &stream[1..] {
            let mut out = Vec::new();
            t.step(msg.clone(), &mut vars, &mut out);
            assert_eq!(out.len(), 1);
        }
    }
}
