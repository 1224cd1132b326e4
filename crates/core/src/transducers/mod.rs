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
}

/// A single-input transducer. (The two-input join and the sink output
/// transducer have their own interfaces; see [`join`] and [`output`].)
pub trait Transducer {
    /// Process one input message, appending any output messages to `out`.
    /// `vars` is the run-wide condition-variable namespace (§III.5); only the
    /// transducers that mint instances (VC, PR) touch it.
    fn step(&mut self, msg: Message, vars: &mut VarFactory, out: &mut Vec<Message>);

    /// Current (depth stack, condition stack) heights, for instrumentation.
    fn stack_sizes(&self) -> (usize, usize) {
        (0, 0)
    }

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
        spex_xml::reader::parse_events(xml)
            .expect("well-formed test document")
            .iter()
            .map(|ev| {
                let id = store.push_owned(ev);
                Message::Doc(doc_event(store, id))
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

    /// Build the document message for an event already in the arena.
    pub fn doc_event(store: &EventStore, id: EventId) -> DocEvent {
        let rec = store.stored(id);
        match rec.kind {
            StoredKind::StartDocument | StoredKind::Start => DocEvent::Open {
                label: rec.sym,
                payload: id,
            },
            StoredKind::EndDocument | StoredKind::End => DocEvent::Close {
                label: rec.sym,
                payload: id,
            },
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
