//! SPEX messages (Definition 2 of the paper) and label interning.
//!
//! Three kinds of messages travel through a SPEX network:
//!
//! * **document messages** `<a>` / `</a>` — the stream itself,
//! * **activation messages** `[f]` — "activate transducers with a condition
//!   formula f, i.e. make transducers return results when f becomes true",
//! * **condition determination messages** `{c,v}` — "signal the value v of a
//!   condition variable c".
//!
//! Element labels are interned to dense [`Symbol`]s at parse time (the
//! table lives in the stream layer, [`spex_xml::symbol`], and is owned by
//! the run's [`spex_xml::EventStore`]) so the label comparisons in the
//! child/closure transducers are integer compares. Event payloads live in
//! the run's append-only event arena; document messages carry a 4-byte
//! [`EventId`] handle, so fan-out through split transducers copies `u32`s,
//! never text, and an output candidate is an interval of arena indices
//! (`transducers::output`).

use spex_formula::{CondVar, Formula};
use spex_xml::EventId;
use std::fmt;

pub use spex_xml::{Symbol, SymbolTable, DOC_SYMBOL};

/// A document message as it travels through the network.
#[derive(Debug, Clone, Copy)]
pub enum DocEvent {
    /// `<l>` — an element (or `<$>`) opens. Affects tree depth.
    Open {
        /// Interned label ([`DOC_SYMBOL`] for `<$>`).
        label: Symbol,
        /// Arena handle of the original event.
        payload: EventId,
    },
    /// `</l>` — an element (or `</$>`) closes. Affects tree depth.
    Close {
        /// Interned label, matching the corresponding `Open`.
        label: Symbol,
        /// Arena handle of the original event.
        payload: EventId,
    },
    /// Depth-neutral content: text, comments, processing instructions. The
    /// paper omits these "for reasons of conciseness"; transducers forward
    /// them untouched and only the output transducer looks at them (they
    /// belong to result fragments).
    Item {
        /// Arena handle of the original event.
        payload: EventId,
    },
}

impl DocEvent {
    /// The arena handle of the underlying event (resolve it against the
    /// run's [`spex_xml::EventStore`]).
    pub fn payload(&self) -> EventId {
        match self {
            DocEvent::Open { payload, .. }
            | DocEvent::Close { payload, .. }
            | DocEvent::Item { payload } => *payload,
        }
    }

    /// The interned label for open/close messages.
    pub fn label(&self) -> Option<Symbol> {
        match self {
            DocEvent::Open { label, .. } | DocEvent::Close { label, .. } => Some(*label),
            DocEvent::Item { .. } => None,
        }
    }
}

/// The value carried by a condition determination message.
///
/// The paper's `{c,v}` messages carry `true` or `false`. Nested qualifiers
/// need a third, *conditional* form (see `transducers::var_determinant`):
/// a match of an outer qualifier's path may itself still depend on inner
/// qualifier instances, in which case the outer instance is satisfied only
/// if the residual formula `r` becomes true — the determination
/// `{c := c ∨ r}`. Substitution keeps `c` because other matches may yet
/// satisfy the instance unconditionally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Determination {
    /// `{c,true}` — the instance is satisfied.
    True,
    /// `{c,false}` — the instance's scope closed unsatisfied.
    False,
    /// `{c := c ∨ r}` — satisfied if the residual `r` becomes true.
    Implied(Formula),
}

impl Determination {
    /// Apply this determination for variable `c` to a formula.
    pub fn apply(&self, c: CondVar, f: &Formula) -> Formula {
        match self {
            Determination::True => f.assign(c, true),
            Determination::False => f.assign(c, false),
            Determination::Implied(r) => f.substitute(c, &Formula::or(Formula::Var(c), r.clone())),
        }
    }
}

impl fmt::Display for Determination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Determination::True => write!(f, "true"),
            Determination::False => write!(f, "false"),
            Determination::Implied(r) => write!(f, "∨{r}"),
        }
    }
}

/// A message on a SPEX network tape (Definition 2).
#[derive(Debug, Clone)]
pub enum Message {
    /// A document message.
    Doc(DocEvent),
    /// An activation message `[f]`.
    Activate(Formula),
    /// A condition determination message `{c,v}`.
    Determine(CondVar, Determination),
}

impl Message {
    /// Is this a document message (as opposed to a control message)?
    pub fn is_doc(&self) -> bool {
        matches!(self, Message::Doc(_))
    }

    /// The formula size carried, for instrumentation (`o(φ)` of §V).
    pub fn formula_size(&self) -> usize {
        match self {
            Message::Activate(f) => f.size(),
            _ => 0,
        }
    }
}

impl fmt::Display for Message {
    /// Paper-style rendering: `[f]`, `{c,v}`. Document messages render as
    /// `<sym@id>` / `</sym@id>` — the payload text lives in the event arena,
    /// which a bare message cannot reach; use
    /// [`spex_xml::EventStore::get`] on the payload handle for the full
    /// paper notation.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Message::Doc(DocEvent::Open { label, payload }) => write!(f, "<{label}{payload}>"),
            Message::Doc(DocEvent::Close { label, payload }) => write!(f, "</{label}{payload}>"),
            Message::Doc(DocEvent::Item { payload }) => write!(f, "({payload})"),
            Message::Activate(formula) => write!(f, "[{formula}]"),
            Message::Determine(c, v) => write!(f, "{{{c},{v}}}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spex_formula::Formula;
    use spex_xml::{EventStore, XmlEvent};

    #[test]
    fn symbol_table_interns_densely() {
        let mut t = SymbolTable::new();
        assert_eq!(t.name(DOC_SYMBOL), "$");
        let a = t.intern("a");
        let b = t.intern("b");
        let a2 = t.intern("a");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.name(a), "a");
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn doc_event_accessors() {
        let mut store = EventStore::new();
        let open_id = store.push_owned(&XmlEvent::open("x"));
        let open = DocEvent::Open {
            label: 3,
            payload: open_id,
        };
        assert_eq!(open.label(), Some(3));
        let text_id = store.push_owned(&XmlEvent::text("t"));
        let item = DocEvent::Item { payload: text_id };
        assert_eq!(item.label(), None);
        assert_eq!(store.get(item.payload()).to_string(), "t");
    }

    #[test]
    fn message_display_matches_paper() {
        let m = Message::Activate(Formula::True);
        assert_eq!(m.to_string(), "[true]");
        let d = Message::Determine(CondVar::new(1, 2), Determination::False);
        assert_eq!(d.to_string(), "{c1.2,false}");
        let i = Message::Determine(
            CondVar::new(1, 2),
            Determination::Implied(Formula::Var(CondVar::new(2, 3))),
        );
        assert_eq!(i.to_string(), "{c1.2,∨c2.3}");
        let mut store = EventStore::new();
        let id = store.push_owned(&XmlEvent::open("a"));
        let doc = Message::Doc(DocEvent::Open {
            label: 1,
            payload: id,
        });
        assert_eq!(doc.to_string(), "<1@0>");
        assert_eq!(store.get(id).to_string(), "<a>");
        assert!(doc.is_doc());
        assert!(!m.is_doc());
    }

    #[test]
    fn formula_size_instrumentation() {
        let f = Formula::and(
            Formula::Var(CondVar::new(0, 1)),
            Formula::Var(CondVar::new(0, 2)),
        );
        assert_eq!(Message::Activate(f).formula_size(), 2);
        assert_eq!(
            Message::Determine(CondVar::new(0, 1), Determination::True).formula_size(),
            0
        );
    }
}
