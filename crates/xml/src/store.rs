//! Append-only event arena: the zero-copy backbone of the pipeline.
//!
//! A [`EventStore`] holds one run's document messages as compact
//! [`StoredEvent`] records (an interned label [`Symbol`] plus a payload
//! range) over a single shared byte buffer. The reader
//! ([`crate::reader::Parser::poll_into`]) writes every event into one once,
//! with both scanners; every consumer downstream — transducer fan-out,
//! candidate buffering, result serialization, the recovery quarantine —
//! copies only `u32` [`EventId`] handles or push-index ranges
//! ([`EventStore::ids`]), or a view into a store of its own
//! ([`EventStore::push_view`]). Events are read back as borrowing
//! [`RawEvent`] views; the owned [`XmlEvent`] conversion
//! ([`RawEvent::to_owned_event`]) is for the edges that hand out owned
//! events: the pull iterator and the tree/DOM oracle.
//!
//! The arena is reset between result-free stretches of the stream (the
//! engine resets it whenever no output candidate is live),
//! so its high-water mark — exposed via [`EventStore::peak_bytes`] — tracks
//! exactly the paper's notion of "buffering only undetermined fragments"
//! (§VI), measured in bytes rather than event counts.

use std::fmt;

use crate::escape::{escape_attr, escape_text};
use crate::event::{Attribute, XmlEvent};
use crate::symbol::{Symbol, SymbolTable};

/// A handle to an event stored in an [`EventStore`].
///
/// Handles are dense indices in push order; they are `Copy` and 4 bytes,
/// which is the whole point: fan-out moves handles, never event payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u32);

impl EventId {
    /// The index of this event in its store (push order).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// Discriminant of a [`StoredEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoredKind {
    /// `<$>`.
    StartDocument,
    /// `</$>`.
    EndDocument,
    /// `<name …>`; the payload range indexes the attribute slab.
    Start,
    /// `</name>`.
    End,
    /// Character data; the payload range indexes the byte buffer.
    Text,
    /// A comment; the payload range indexes the byte buffer.
    Comment,
    /// A processing instruction; the payload range is one attribute record
    /// holding target and data.
    Pi,
}

/// A compact stored event: a kind, an interned label and a payload range.
///
/// For [`StoredKind::Text`]/[`StoredKind::Comment`] the range `lo..hi`
/// indexes the shared byte buffer; for [`StoredKind::Start`] and
/// [`StoredKind::Pi`] it indexes the attribute slab. 16 bytes total.
#[derive(Debug, Clone, Copy)]
pub struct StoredEvent {
    /// Event discriminant.
    pub kind: StoredKind,
    /// Interned element label (for `Start`/`End`), [`crate::symbol::DOC_SYMBOL`]
    /// for document boundaries, `DOC_SYMBOL` (unused) otherwise.
    pub sym: Symbol,
    lo: u32,
    hi: u32,
}

/// One attribute of a stored start element: two ranges into the shared
/// byte buffer.
#[derive(Debug, Clone, Copy)]
pub struct StoredAttr {
    name_lo: u32,
    name_hi: u32,
    val_lo: u32,
    val_hi: u32,
}

/// How far an [`EventStore`] was filled; [`EventStore::truncate`] rolls
/// back to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreMark {
    events: usize,
    bytes: usize,
    attrs: usize,
}

/// The per-run append-only event arena. See the module docs.
#[derive(Debug, Default, Clone)]
pub struct EventStore {
    symbols: SymbolTable,
    bytes: Vec<u8>,
    events: Vec<StoredEvent>,
    attrs: Vec<StoredAttr>,
    peak_bytes: usize,
}

fn expect_utf8(bytes: &[u8]) -> &str {
    // The arena only ever stores byte ranges copied from `&str` payloads,
    // so slices at stored boundaries are always valid UTF-8.
    std::str::from_utf8(bytes).expect("event arena ranges are always valid UTF-8")
}

impl EventStore {
    /// Create an empty store with the document label pre-interned.
    #[must_use]
    pub fn new() -> Self {
        EventStore {
            symbols: SymbolTable::new(),
            ..EventStore::default()
        }
    }

    /// The store's interning table.
    #[must_use]
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Mutable access to the interning table (for resolving query labels
    /// against the same symbol space the stream is parsed into).
    pub fn symbols_mut(&mut self) -> &mut SymbolTable {
        &mut self.symbols
    }

    /// Number of events currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the store empty (no events since the last reset)?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Bytes currently held by the arena (payload bytes plus event and
    /// attribute records). Symbol-table memory is excluded: it is a
    /// document-lifetime dictionary, not per-event buffering.
    #[must_use]
    pub fn bytes_used(&self) -> usize {
        self.bytes.len()
            + self.events.len() * std::mem::size_of::<StoredEvent>()
            + self.attrs.len() * std::mem::size_of::<StoredAttr>()
    }

    /// High-water mark of [`Self::bytes_used`] over the store's lifetime,
    /// including across [`Self::reset`] calls.
    #[must_use]
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes.max(self.bytes_used())
    }

    /// Seed the high-water mark from a restored snapshot, so a resumed
    /// run's reported peak covers the pre-checkpoint documents too. Never
    /// lowers the current peak.
    pub fn restore_peak(&mut self, peak: usize) {
        self.peak_bytes = self.peak_bytes.max(peak);
    }

    /// Forget all stored events, keeping interned symbols and allocated
    /// capacity. Outstanding [`EventId`]s are invalidated.
    pub fn reset(&mut self) {
        self.peak_bytes = self.peak_bytes.max(self.bytes_used());
        self.bytes.clear();
        self.events.clear();
        self.attrs.clear();
    }

    /// The store's current length, for [`Self::truncate`].
    #[must_use]
    pub fn mark(&self) -> StoreMark {
        StoreMark {
            events: self.events.len(),
            bytes: self.bytes.len(),
            attrs: self.attrs.len(),
        }
    }

    /// Forget the events pushed since `mark` was taken (an attempt the
    /// reader rolled back), keeping interned symbols. Their bytes never
    /// count towards [`Self::peak_bytes`].
    pub fn truncate(&mut self, mark: StoreMark) {
        self.events.truncate(mark.events);
        self.bytes.truncate(mark.bytes);
        self.attrs.truncate(mark.attrs);
    }

    /// The handles of the events at push indices `range`.
    ///
    /// # Panics
    /// Panics if `range` reaches past the stored events.
    pub fn ids(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = EventId> {
        assert!(range.end <= self.events.len(), "event range out of bounds");
        range.map(|i| EventId(u32::try_from(i).unwrap_or(u32::MAX)))
    }

    fn push_record(&mut self, kind: StoredKind, sym: Symbol, lo: usize, hi: usize) -> EventId {
        let id = u32::try_from(self.events.len()).unwrap_or(u32::MAX);
        self.events.push(StoredEvent {
            kind,
            sym,
            lo: u32::try_from(lo).unwrap_or(u32::MAX),
            hi: u32::try_from(hi).unwrap_or(u32::MAX),
        });
        EventId(id)
    }

    fn push_bytes(&mut self, s: &str) -> (usize, usize) {
        let lo = self.bytes.len();
        self.bytes.extend_from_slice(s.as_bytes());
        (lo, self.bytes.len())
    }

    fn push_attr(&mut self, name: &str, value: &str) {
        let (name_lo, name_hi) = self.push_bytes(name);
        let (val_lo, val_hi) = self.push_bytes(value);
        self.attrs.push(StoredAttr {
            name_lo: u32::try_from(name_lo).unwrap_or(u32::MAX),
            name_hi: u32::try_from(name_hi).unwrap_or(u32::MAX),
            val_lo: u32::try_from(val_lo).unwrap_or(u32::MAX),
            val_hi: u32::try_from(val_hi).unwrap_or(u32::MAX),
        });
    }

    /// Append a `<$>` start-document event.
    pub fn push_start_document(&mut self) -> EventId {
        self.push_record(StoredKind::StartDocument, crate::symbol::DOC_SYMBOL, 0, 0)
    }

    /// Append a `</$>` end-document event.
    pub fn push_end_document(&mut self) -> EventId {
        self.push_record(StoredKind::EndDocument, crate::symbol::DOC_SYMBOL, 0, 0)
    }

    /// Append a start-element event, interning its label and copying the
    /// attribute strings into the shared buffer.
    pub fn push_start<'n, A>(&mut self, name: &str, attributes: A) -> EventId
    where
        A: IntoIterator<Item = (&'n str, &'n str)>,
    {
        let sym = self.symbols.intern(name);
        let lo = self.attrs.len();
        for (n, v) in attributes {
            self.push_attr(n, v);
        }
        self.push_record(StoredKind::Start, sym, lo, self.attrs.len())
    }

    /// Append an end-element event.
    pub fn push_end(&mut self, name: &str) -> EventId {
        let sym = self.symbols.intern(name);
        self.push_record(StoredKind::End, sym, 0, 0)
    }

    /// Append a text event, copying the (already entity-decoded) payload.
    pub fn push_text(&mut self, text: &str) -> EventId {
        let (lo, hi) = self.push_bytes(text);
        self.push_record(StoredKind::Text, crate::symbol::DOC_SYMBOL, lo, hi)
    }

    /// Append a comment event.
    pub fn push_comment(&mut self, comment: &str) -> EventId {
        let (lo, hi) = self.push_bytes(comment);
        self.push_record(StoredKind::Comment, crate::symbol::DOC_SYMBOL, lo, hi)
    }

    /// Append a processing-instruction event.
    pub fn push_pi(&mut self, target: &str, data: &str) -> EventId {
        let lo = self.attrs.len();
        self.push_attr(target, data);
        self.push_record(
            StoredKind::Pi,
            crate::symbol::DOC_SYMBOL,
            lo,
            self.attrs.len(),
        )
    }

    /// Append a copy of a view (of another store, or of an owned event).
    pub fn push_view(&mut self, event: &RawEvent<'_>) -> EventId {
        match *event {
            RawEvent::StartDocument => self.push_start_document(),
            RawEvent::EndDocument => self.push_end_document(),
            RawEvent::StartElement { name, attributes } => self.push_start(name, attributes.iter()),
            RawEvent::EndElement { name } => self.push_end(name),
            RawEvent::Text(t) => self.push_text(t),
            RawEvent::Comment(c) => self.push_comment(c),
            RawEvent::ProcessingInstruction { target, data } => self.push_pi(target, data),
        }
    }

    /// Append an owned event by copying its payload into the arena.
    pub fn push_owned(&mut self, event: &XmlEvent) -> EventId {
        self.push_view(&RawEvent::from_event(event))
    }

    /// The compact record behind `id`.
    ///
    /// # Panics
    /// Panics if `id` is not live in this store (e.g. after [`Self::reset`]).
    #[must_use]
    pub fn stored(&self, id: EventId) -> StoredEvent {
        self.events[id.index()]
    }

    /// A borrowing view of the event behind `id`.
    ///
    /// # Panics
    /// Panics if `id` is not live in this store (e.g. after [`Self::reset`]).
    #[must_use]
    pub fn get(&self, id: EventId) -> RawEvent<'_> {
        let ev = self.events[id.index()];
        let byte_range = |lo: u32, hi: u32| expect_utf8(&self.bytes[lo as usize..hi as usize]);
        match ev.kind {
            StoredKind::StartDocument => RawEvent::StartDocument,
            StoredKind::EndDocument => RawEvent::EndDocument,
            StoredKind::Start => RawEvent::StartElement {
                name: self.symbols.name(ev.sym),
                attributes: AttrsView::Stored {
                    attrs: &self.attrs[ev.lo as usize..ev.hi as usize],
                    bytes: &self.bytes,
                },
            },
            StoredKind::End => RawEvent::EndElement {
                name: self.symbols.name(ev.sym),
            },
            StoredKind::Text => RawEvent::Text(byte_range(ev.lo, ev.hi)),
            StoredKind::Comment => RawEvent::Comment(byte_range(ev.lo, ev.hi)),
            StoredKind::Pi => {
                let a = self.attrs[ev.lo as usize];
                RawEvent::ProcessingInstruction {
                    target: expect_utf8(&self.bytes[a.name_lo as usize..a.name_hi as usize]),
                    data: expect_utf8(&self.bytes[a.val_lo as usize..a.val_hi as usize]),
                }
            }
        }
    }
}

/// A borrowed view of a document message: the zero-copy counterpart of
/// [`XmlEvent`], with names and payloads as string slices into either the
/// event arena or an owned event.
#[derive(Debug, Clone, Copy)]
pub enum RawEvent<'buf> {
    /// The start-document message `<$>`.
    StartDocument,
    /// The end-document message `</$>`.
    EndDocument,
    /// `<name attr="…">`.
    StartElement {
        /// Element name.
        name: &'buf str,
        /// Attributes in document order.
        attributes: AttrsView<'buf>,
    },
    /// `</name>`.
    EndElement {
        /// Element name.
        name: &'buf str,
    },
    /// Character data (entity references already decoded).
    Text(&'buf str),
    /// `<!-- … -->`.
    Comment(&'buf str),
    /// `<?target data?>`.
    ProcessingInstruction {
        /// PI target.
        target: &'buf str,
        /// Raw data after the target, possibly empty.
        data: &'buf str,
    },
}

impl<'buf> RawEvent<'buf> {
    /// Borrow a view from an owned event (to hand an owned event to code
    /// that consumes views, such as [`EventStore::push_view`]).
    #[must_use]
    pub fn from_event(event: &'buf XmlEvent) -> Self {
        match event {
            XmlEvent::StartDocument => RawEvent::StartDocument,
            XmlEvent::EndDocument => RawEvent::EndDocument,
            XmlEvent::StartElement { name, attributes } => RawEvent::StartElement {
                name,
                attributes: AttrsView::Owned(attributes),
            },
            XmlEvent::EndElement { name } => RawEvent::EndElement { name },
            XmlEvent::Text(t) => RawEvent::Text(t),
            XmlEvent::Comment(c) => RawEvent::Comment(c),
            XmlEvent::ProcessingInstruction { target, data } => {
                RawEvent::ProcessingInstruction { target, data }
            }
        }
    }

    /// Copy this view into an owned [`XmlEvent`] (the conversion at the
    /// edges that hand out owned events).
    #[must_use]
    pub fn to_owned_event(&self) -> XmlEvent {
        match *self {
            RawEvent::StartDocument => XmlEvent::StartDocument,
            RawEvent::EndDocument => XmlEvent::EndDocument,
            RawEvent::StartElement { name, attributes } => XmlEvent::StartElement {
                name: name.to_string(),
                attributes: attributes
                    .iter()
                    .map(|(n, v)| Attribute::new(n, v))
                    .collect(),
            },
            RawEvent::EndElement { name } => XmlEvent::EndElement {
                name: name.to_string(),
            },
            RawEvent::Text(t) => XmlEvent::Text(t.to_string()),
            RawEvent::Comment(c) => XmlEvent::Comment(c.to_string()),
            RawEvent::ProcessingInstruction { target, data } => XmlEvent::ProcessingInstruction {
                target: target.to_string(),
                data: data.to_string(),
            },
        }
    }

    /// The element name if this is a start or end element event.
    #[must_use]
    pub fn element_name(&self) -> Option<&'buf str> {
        match self {
            RawEvent::StartElement { name, .. } | RawEvent::EndElement { name } => Some(name),
            _ => None,
        }
    }
}

impl<'buf> From<&'buf XmlEvent> for RawEvent<'buf> {
    fn from(event: &'buf XmlEvent) -> Self {
        RawEvent::from_event(event)
    }
}

impl fmt::Display for RawEvent<'_> {
    /// Same compact paper-figure rendering as [`XmlEvent`]'s `Display`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RawEvent::StartDocument => write!(f, "<$>"),
            RawEvent::EndDocument => write!(f, "</$>"),
            RawEvent::StartElement { name, attributes } => {
                write!(f, "<{name}")?;
                for (n, v) in attributes.iter() {
                    write!(f, " {}=\"{}\"", n, escape_attr(v))?;
                }
                write!(f, ">")
            }
            RawEvent::EndElement { name } => write!(f, "</{name}>"),
            RawEvent::Text(t) => write!(f, "{}", escape_text(t)),
            RawEvent::Comment(c) => write!(f, "<!--{c}-->"),
            RawEvent::ProcessingInstruction { target, data } => {
                if data.is_empty() {
                    write!(f, "<?{target}?>")
                } else {
                    write!(f, "<?{target} {data}?>")
                }
            }
        }
    }
}

/// Borrowed attribute list of a [`RawEvent::StartElement`].
#[derive(Debug, Clone, Copy)]
pub enum AttrsView<'buf> {
    /// Attributes stored in an [`EventStore`] slab.
    Stored {
        /// Attribute records.
        attrs: &'buf [StoredAttr],
        /// The store's shared byte buffer.
        bytes: &'buf [u8],
    },
    /// Attributes of an owned [`XmlEvent`].
    Owned(&'buf [Attribute]),
}

impl<'buf> AttrsView<'buf> {
    /// Number of attributes.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            AttrsView::Stored { attrs, .. } => attrs.len(),
            AttrsView::Owned(attrs) => attrs.len(),
        }
    }

    /// Is the attribute list empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate `(name, value)` pairs in document order.
    pub fn iter(&self) -> impl Iterator<Item = (&'buf str, &'buf str)> + '_ {
        let view = *self;
        (0..self.len()).map(move |i| match view {
            AttrsView::Stored { attrs, bytes } => {
                let a = attrs[i];
                (
                    expect_utf8(&bytes[a.name_lo as usize..a.name_hi as usize]),
                    expect_utf8(&bytes[a.val_lo as usize..a.val_hi as usize]),
                )
            }
            AttrsView::Owned(attrs) => (attrs[i].name.as_str(), attrs[i].value.as_str()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_every_event_kind() {
        let events = [
            XmlEvent::StartDocument,
            XmlEvent::StartElement {
                name: "a".into(),
                attributes: vec![Attribute::new("x", "1"), Attribute::new("y", "<&>")],
            },
            XmlEvent::Text("t & u".into()),
            XmlEvent::Comment(" note ".into()),
            XmlEvent::ProcessingInstruction {
                target: "pi".into(),
                data: "d".into(),
            },
            XmlEvent::close("a"),
            XmlEvent::EndDocument,
        ];
        let mut store = EventStore::new();
        let ids: Vec<EventId> = events.iter().map(|e| store.push_owned(e)).collect();
        for (ev, id) in events.iter().zip(&ids) {
            assert_eq!(&store.get(*id).to_owned_event(), ev);
            assert_eq!(store.get(*id).to_string(), ev.to_string());
        }
    }

    #[test]
    fn views_borrow_without_copying() {
        let mut store = EventStore::new();
        let id = store.push_start("item", [("k", "v")]);
        match store.get(id) {
            RawEvent::StartElement { name, attributes } => {
                assert_eq!(name, "item");
                assert_eq!(attributes.len(), 1);
                assert_eq!(attributes.iter().next(), Some(("k", "v")));
            }
            other => panic!("unexpected view {other:?}"),
        }
    }

    #[test]
    fn interning_is_shared_across_events() {
        let mut store = EventStore::new();
        let a = store.push_start("a", []);
        let b = store.push_end("a");
        assert_eq!(store.stored(a).sym, store.stored(b).sym);
        assert_eq!(store.symbols().len(), 2); // "$" and "a"
    }

    #[test]
    fn reset_keeps_symbols_and_records_peak() {
        let mut store = EventStore::new();
        store.push_text("some payload worth counting");
        let used = store.bytes_used();
        assert!(used > 0);
        store.reset();
        assert!(store.is_empty());
        assert_eq!(store.symbols().len(), 1);
        assert!(store.peak_bytes() >= used);
        assert_eq!(store.bytes_used(), 0);
    }

    #[test]
    fn from_event_view_matches_stored_view() {
        let ev = XmlEvent::StartElement {
            name: "n".into(),
            attributes: vec![Attribute::new("a", "b")],
        };
        let mut store = EventStore::new();
        let id = store.push_owned(&ev);
        assert_eq!(
            RawEvent::from_event(&ev).to_string(),
            store.get(id).to_string()
        );
        assert_eq!(RawEvent::from_event(&ev).to_owned_event(), ev);
    }
}
