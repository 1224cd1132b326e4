//! The join transducer JO — Fig. 9 of the paper.
//!
//! JO has two input tapes and synchronizes the two branches of a split:
//! "a signal level (here a document message) is produced at the output when
//! on both inputs that signal level is encountered" — each document message
//! arrives once per branch and leaves the join exactly once, which also
//! performs the duplicate elimination the union operation needs (§III.7).
//!
//! Within one network tick every branch delivers its control messages
//! followed by exactly one document message; the join merges the two queues
//! and emits, in order:
//!
//! 1. every **activation** (left branch's in order, then right branch's),
//! 2. every **determination** (same),
//! 3. the document message, once.
//!
//! Putting activations before determinations generalizes the normalization
//! the paper's own transitions 6/7 perform on mixed pairs ("(6) (`[f]`,{c,v})
//! ⊢ `[f]`;{c,v}" — activation first), and it is the *safe* direction: a
//! determination must never overtake an activation whose formula references
//! its variable (the variable would be orphaned downstream — formulas are
//! updated on receipt, so the opposite order is always harmless). The
//! paper's literal positional pairing (transition 9 emits two determinations
//! as they pair up) can violate this when one branch's determination pairs
//! against the other branch's still-queued activation.

use super::Trace;
use crate::message::Message;

/// The join transducer. Unlike the single-input transducers it consumes the
/// per-tick message queues of both inputs at once.
#[derive(Debug, Default)]
pub struct Join {
    /// Determinations held back behind the tick's activations (empty
    /// between steps; kept for its capacity).
    determinations: Vec<Message>,
    trace: Trace,
}

impl Join {
    /// Create a join transducer.
    pub fn new() -> Self {
        Join::default()
    }

    /// Process one tick: all messages of the left and right input tapes.
    pub fn step2(
        &mut self,
        mut left: Vec<Message>,
        mut right: Vec<Message>,
        out: &mut Vec<Message>,
    ) {
        self.step2_drain(&mut left, &mut right, out);
    }

    /// Like [`Join::step2`], draining the queues in place so the caller can
    /// keep their allocated capacity across ticks (the VM's hot path).
    pub fn step2_drain(
        &mut self,
        left: &mut Vec<Message>,
        right: &mut Vec<Message>,
        out: &mut Vec<Message>,
    ) {
        // Common tick: each branch delivers exactly the document message and
        // nothing else — the join reduces to deduplication (1).
        if left.len() == 1 && right.len() == 1 && left[0].is_doc() && right[0].is_doc() {
            self.trace.fire(1);
            right.clear();
            if let Some(d) = left.pop() {
                out.push(d);
            }
            return;
        }
        let mut determinations = std::mem::take(&mut self.determinations);
        let mut doc: Option<Message> = None;
        for queue in [left, right] {
            for m in queue.drain(..) {
                match m {
                    a @ Message::Activate(_) => {
                        self.trace.fire(8);
                        out.push(a);
                    }
                    d @ Message::Determine(..) => {
                        self.trace.fire(9);
                        determinations.push(d);
                    }
                    d @ Message::Doc(_) => {
                        if doc.is_none() {
                            doc = Some(d);
                        } else {
                            // The second branch's copy of the same document
                            // message: synchronized and deduplicated (1).
                            self.trace.fire(1);
                        }
                    }
                }
            }
        }
        out.append(&mut determinations);
        self.determinations = determinations;
        if let Some(d) = doc {
            out.push(d);
        }
    }

    /// Like [`Join::step2_drain`] for a tick whose document message is not
    /// on the tapes but in the run's document register: merge the control
    /// messages of both branches, then synchronize the register's two copies
    /// (1).
    pub fn step_register(
        &mut self,
        left: &mut Vec<Message>,
        right: &mut Vec<Message>,
        out: &mut Vec<Message>,
    ) {
        self.step2_drain(left, right, out);
        self.trace.fire(1);
    }

    /// Return to the freshly created state (a session reset).
    pub fn reset(&mut self) {
        self.trace.clear();
    }

    /// Enable transition tracing.
    pub fn set_tracing(&mut self, on: bool) {
        self.trace.set_enabled(on);
    }

    /// Drain fired transition numbers.
    pub fn take_transitions(&mut self) -> Vec<u8> {
        self.trace.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Determination;
    use crate::transducers::test_util::{render, stream_of};
    use spex_formula::{CondVar, Formula};
    use spex_xml::EventStore;

    fn doc(store: &mut EventStore, xml: &str, idx: usize) -> Message {
        stream_of(store, xml)[idx].clone()
    }

    #[test]
    fn both_docs_emit_once() {
        let mut store = EventStore::new();
        let a = doc(&mut store, "<a/>", 1);
        let mut j = Join::new();
        let mut out = Vec::new();
        j.step2(vec![a.clone()], vec![a], &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].is_doc());
    }

    #[test]
    fn left_activation_precedes_doc() {
        // Left branch: [f];<a>. Right branch: <a>. Output: [f];<a>.
        let mut store = EventStore::new();
        let a = doc(&mut store, "<a/>", 1);
        let f = Message::Activate(Formula::True);
        let mut j = Join::new();
        let mut out = Vec::new();
        j.step2(vec![f, a.clone()], vec![a], &mut out);
        let rendered: Vec<String> = out.iter().map(|m| render(&store, m)).collect();
        assert_eq!(rendered, vec!["[true]", "<a>"]);
    }

    #[test]
    fn right_determination_with_left_doc() {
        // Main branch delivers <b> only; qualifier branch delivers
        // {c,true};<b>. Output: {c,true};<b>.
        let mut store = EventStore::new();
        let b = doc(&mut store, "<b/>", 1);
        let det = Message::Determine(CondVar::new(1, 1), Determination::True);
        let mut j = Join::new();
        let mut out = Vec::new();
        j.step2(vec![b.clone()], vec![det, b], &mut out);
        let rendered: Vec<String> = out.iter().map(|m| render(&store, m)).collect();
        assert_eq!(rendered, vec!["{c1.1,true}", "<b>"]);
    }

    #[test]
    fn activations_always_precede_determinations() {
        // Left: {c,false};<a>; right: [f];<a> — the activation is emitted
        // first (the generalized (6)/(7) normalization).
        let mut store = EventStore::new();
        let a = doc(&mut store, "<a/>", 1);
        let f = Message::Activate(Formula::True);
        let det = Message::Determine(CondVar::new(1, 1), Determination::False);
        let mut j = Join::new();
        let mut out = Vec::new();
        j.step2(vec![det, a.clone()], vec![f, a], &mut out);
        let rendered: Vec<String> = out.iter().map(|m| render(&store, m)).collect();
        assert_eq!(rendered, vec!["[true]", "{c1.1,false}", "<a>"]);
    }

    #[test]
    fn determination_never_overtakes_activation_with_its_variable() {
        // Regression for the nested-nullable-qualifier bug: left queue holds
        // a determination for c2 paired positionally against the right
        // queue's activation *referencing* c2. The activation must win.
        let mut store = EventStore::new();
        let a = doc(&mut store, "<a/>", 1);
        let c1 = CondVar::new(0, 1);
        let c2 = CondVar::new(1, 2);
        let left = vec![
            Message::Determine(c1, Determination::True),
            Message::Activate(Formula::Var(c2)),
            a.clone(),
        ];
        let right = vec![Message::Determine(c2, Determination::True), a];
        let mut j = Join::new();
        let mut out = Vec::new();
        j.step2(left, right, &mut out);
        let rendered: Vec<String> = out.iter().map(|m| render(&store, m)).collect();
        assert_eq!(
            rendered,
            vec!["[c1.2]", "{c0.1,true}", "{c1.2,true}", "<a>"]
        );
    }

    #[test]
    fn two_activations_both_pass() {
        let mut store = EventStore::new();
        let a = doc(&mut store, "<a/>", 1);
        let f1 = Message::Activate(Formula::Var(CondVar::new(0, 1)));
        let f2 = Message::Activate(Formula::Var(CondVar::new(0, 2)));
        let mut j = Join::new();
        let mut out = Vec::new();
        j.step2(vec![f1, a.clone()], vec![f2, a], &mut out);
        let rendered: Vec<String> = out.iter().map(|m| render(&store, m)).collect();
        assert_eq!(rendered, vec!["[c0.1]", "[c0.2]", "<a>"]);
    }

    #[test]
    fn per_branch_determination_order_is_preserved() {
        let mut store = EventStore::new();
        let a = doc(&mut store, "<a/>", 1);
        let d1 = Message::Determine(CondVar::new(1, 1), Determination::True);
        let d2 = Message::Determine(CondVar::new(1, 2), Determination::False);
        let mut j = Join::new();
        let mut out = Vec::new();
        j.step2(vec![a.clone()], vec![d1, d2, a], &mut out);
        let rendered: Vec<String> = out.iter().map(|m| render(&store, m)).collect();
        assert_eq!(rendered, vec!["{c1.1,true}", "{c1.2,false}", "<a>"]);
    }

    #[test]
    fn whole_stream_passes_unharmed() {
        let mut store = EventStore::new();
        let stream = stream_of(&mut store, "<a><b>t</b><c/></a>");
        let mut j = Join::new();
        let mut out = Vec::new();
        for m in &stream {
            j.step2(vec![m.clone()], vec![m.clone()], &mut out);
        }
        assert_eq!(out.len(), stream.len());
    }
}
