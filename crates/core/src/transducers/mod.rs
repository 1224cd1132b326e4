//! The SPEX transducers of §III.
//!
//! Every transducer is a deterministic pushdown machine with (up to) two
//! stacks — a *depth stack* counting tree levels and a *condition stack*
//! holding condition formulas — implemented exactly as the numbered
//! transition tables of the paper's figures:
//!
//! | Transducer | Figure | Module |
//! |---|---|---|
//! | input IN | §III.2 | [`input`] |
//! | child CH(l) | Fig. 2 | [`child`] |
//! | closure CL(l) | Fig. 3 | [`closure`] |
//! | following FO(l) (extension, §I) | — | [`following`] |
//! | preceding PR(l) (extension, §I) | — | [`preceding`] |
//! | variable-creator VC(q) | Fig. 6 | [`var_creator`] |
//! | variable-filter VF(q±) | §III.5.2 | [`var_filter`] |
//! | variable-determinant VD | Fig. 7 | [`var_determinant`] |
//! | split SP | Fig. 8 | [`split`] |
//! | join JO | Fig. 9 | [`join`] |
//! | union UN | Fig. 10 | [`union_`] |
//! | output OU | §III.8 | [`output`] |
//!
//! Each `step` records the numbers of the transitions it fires (when tracing
//! is enabled), which lets the test suite reproduce the transition traces of
//! Figs. 4, 5 and 13 of the paper verbatim.
//!
//! A document message carries the stream depth of its element, so the
//! downward transducers (child, closure, variable-creator) keep depth-stack
//! entries only at the levels an activation marked: a plain level `l` pushed
//! by an open and popped by its close is implied by the depth itself (see
//! DESIGN.md §14). That is also what lets the VM leave such a transducer
//! alone on every event its [`Watch`] does not name.

pub mod child;
pub mod closure;
pub mod following;
pub mod input;
pub mod join;
pub mod output;
pub mod preceding;
pub mod split;
pub mod union_;
pub mod var_creator;
pub mod var_determinant;
pub mod var_filter;

use crate::message::Message;
use spex_formula::VarFactory;

/// Transition-number trace recorder shared by all transducers.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    enabled: bool,
    fired: Vec<u8>,
}

impl Trace {
    /// Record that transition `n` fired (if tracing is on).
    pub fn fire(&mut self, n: u8) {
        if self.enabled {
            self.fired.push(n);
        }
    }

    /// Enable or disable recording.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Drain the recorded transition numbers.
    pub fn take(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.fired)
    }

    /// Forget the recorded transition numbers (a session reset); recording
    /// stays as it was.
    pub fn clear(&mut self) {
        self.fired.clear();
    }
}

/// The document events that can change a transducer's state when no control
/// message reaches it: its wake-up conditions in the VM's schedule. Every
/// other open, close or content event leaves the transducer as it was, so
/// the VM does not step it. Empty (the default) for a transducer that only
/// control messages can change.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Watch {
    /// An open that reaches this stream depth; [`Watch::ANY_OPEN`] for
    /// every open.
    pub open: Option<u32>,
    /// With `open`: only an open of this label (an element with another
    /// label changes nothing).
    pub open_label: Option<crate::message::Symbol>,
    /// The close of the element at this stream depth.
    pub close: Option<u32>,
}

impl Watch {
    /// `open` value for "every open" (no element opens at depth 0).
    pub const ANY_OPEN: u32 = 0;
}

/// A single-input transducer. (The two-input join and the sink output
/// transducer have their own interfaces; see [`join`] and [`output`].)
pub trait Transducer {
    /// Process one input message, appending any output messages to `out`.
    /// `vars` is the run-wide condition-variable namespace (§III.5); only the
    /// transducers that mint instances (VC, PR) touch it.
    fn step(&mut self, msg: Message, vars: &mut VarFactory, out: &mut Vec<Message>);

    /// Current (depth stack, condition stack) heights, for instrumentation,
    /// with the stream at `stream_depth`. A transducer whose every open
    /// pushes one depth entry and every close pops one reports
    /// `stream_depth`, however sparsely it stores the entries.
    fn stack_sizes(&self, _stream_depth: usize) -> (usize, usize) {
        (0, 0)
    }

    /// The document events that can change this transducer's state when no
    /// control message reaches it, given its current state.
    fn watch(&self) -> Watch {
        Watch::default()
    }

    /// Return to the freshly created state (a session reset), keeping every
    /// allocation and the tracing switch.
    fn reset(&mut self);

    /// Enable transition tracing.
    fn set_tracing(&mut self, on: bool);

    /// Drain the transition numbers fired since the last call.
    fn take_transitions(&mut self) -> Vec<u8>;
}

/// Render a transition trace the way the paper's figures do: `"1,5"`.
pub fn format_transitions(ts: &[u8]) -> String {
    ts.iter()
        .map(|t| t.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
pub(crate) mod test_util {
    //! Helpers shared by the transducer unit tests.

    use crate::message::{DocEvent, Message};
    use spex_xml::{EventId, EventStore, StoredKind};

    /// Build the document-message sequence of the paper's Fig. 1 stream:
    /// `<$> <a> <a> <c> </c> </a> <b> </b> <c> </c> </a> </$>`.
    pub fn fig1_stream(store: &mut EventStore) -> Vec<Message> {
        stream_of(store, "<a><a><c/></a><b/><c/></a>")
    }

    /// Parse `xml` into document messages: events go into the arena, labels
    /// are interned by the store's symbol table.
    pub fn stream_of(store: &mut EventStore, xml: &str) -> Vec<Message> {
        let mut depth = 0;
        spex_xml::reader::parse_events(xml)
            .expect("well-formed test document")
            .iter()
            .map(|ev| {
                let id = store.push_owned(ev);
                Message::Doc(doc_event(store, id, &mut depth))
            })
            .collect()
    }

    /// Render a message the way the paper's figures do: doc messages by
    /// their payload (`<a>`, `</a>`, text), control messages by `Display`.
    /// (The bare `Message` `Display` renders doc payloads as arena handles.)
    pub fn render(store: &EventStore, m: &Message) -> String {
        match m {
            Message::Doc(d) => store.get(d.payload()).to_string(),
            other => other.to_string(),
        }
    }

    /// Build the document message for an event already in the arena, with
    /// the stream at `depth` before it (updated past it).
    pub fn doc_event(store: &EventStore, id: EventId, depth: &mut u32) -> DocEvent {
        let rec = store.stored(id);
        match rec.kind {
            StoredKind::StartDocument | StoredKind::Start => {
                *depth += 1;
                DocEvent::Open {
                    label: rec.sym,
                    payload: id,
                    depth: *depth,
                }
            }
            StoredKind::EndDocument | StoredKind::End => {
                *depth -= 1;
                DocEvent::Close {
                    label: rec.sym,
                    payload: id,
                    depth: *depth + 1,
                }
            }
            StoredKind::Text | StoredKind::Comment | StoredKind::Pi => {
                DocEvent::Item { payload: id }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_records_only_when_enabled() {
        let mut t = Trace::default();
        t.fire(1);
        assert!(t.take().is_empty());
        t.set_enabled(true);
        t.fire(1);
        t.fire(5);
        assert_eq!(t.take(), vec![1, 5]);
        assert!(t.take().is_empty());
    }

    #[test]
    fn format_matches_paper_style() {
        assert_eq!(format_transitions(&[1, 5]), "1,5");
        assert_eq!(format_transitions(&[7]), "7");
        assert_eq!(format_transitions(&[]), "");
    }
}
