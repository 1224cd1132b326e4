//! # spex-xml — XML stream substrate for SPEX
//!
//! This crate implements the XML stream data model of the SPEX paper
//! (*An Evaluation of Regular Path Expressions with Qualifiers against XML
//! Streams*, §II.1): an XML stream is the sequence of document messages
//! produced by a depth-first left-to-right traversal of the document tree,
//! wrapped in a start-document and an end-document message.
//!
//! Everything is written from scratch — no third-party XML parser is used —
//! because building the substrate is part of the reproduction.
//!
//! Contents:
//!
//! * [`event`] — the [`XmlEvent`] message type (SAX-like events),
//! * [`reader`] — a streaming, non-validating XML parser that never
//!   materializes the document: a resumable push core ([`Parser`]: feed
//!   bytes, poll events) and a pull adapter over `std::io::Read`
//!   ([`Reader`]),
//! * [`writer`] — an escaping serializer ([`Writer`]) turning event streams
//!   back into XML text,
//! * [`tree`] — an arena-allocated in-memory document tree ([`Document`]),
//!   used by the in-memory baselines and as the test oracle,
//! * [`symbol`] — label interning ([`SymbolTable`]): dense `u32` symbols
//!   assigned at parse time so upper layers route by handle, not string,
//! * [`store`] — the append-only event arena ([`EventStore`]) and the
//!   borrowing [`RawEvent`] view: one shared byte buffer per run, `u32`
//!   handles everywhere else,
//! * [`scan`] — vendored SWAR `memchr`/`memchr2`/`memchr3` delimiter
//!   search: the branch-light primitives under the parser's structural
//!   fast path ([`ScannerKind`], DESIGN.md §18),
//! * [`escape`] — text/attribute escaping and entity decoding,
//! * [`stats`] — stream statistics (size, element count, maximum depth)
//!   matching the figures reported in the paper's evaluation section.
//!
//! DESIGN.md §10 specifies the recovery layer built on [`Reader`]'s fault
//! reporting, and DESIGN.md §11 the zero-copy pipeline around
//! [`EventStore`]. This crate deliberately does *not* depend on
//! `spex-trace`: consumers report the parser's own counters
//! ([`Parser::events_emitted`], `position`, `faults`) after the stream
//! drains (DESIGN.md §13).
//!
//! ## Example
//!
//! ```
//! use spex_xml::{Reader, XmlEvent};
//!
//! let xml = "<a><b attr='1'>hi</b></a>";
//! let events: Vec<XmlEvent> = Reader::from_str(xml)
//!     .map(|r| r.unwrap())
//!     .collect();
//! assert!(matches!(events.first(), Some(XmlEvent::StartDocument)));
//! assert!(matches!(events.last(), Some(XmlEvent::EndDocument)));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// Input-handling code must never panic on malformed bytes: unwrap/expect in
// non-test code is a lint error (the fault-injection sweep in tests/recovery.rs
// enforces the same property dynamically).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod error;
pub mod escape;
pub mod event;
pub mod reader;
pub mod recover;
pub mod scan;
pub mod stats;
pub mod store;
pub mod symbol;
pub mod tree;
pub mod writer;

pub use error::{Position, XmlError, XmlErrorKind};
pub use event::{Attribute, XmlEvent};
pub use reader::{Parser, Poll, Reader, ScannerKind};
pub use recover::{Fault, FaultAction, FaultKind, RecoveryPolicy};
pub use stats::StreamStats;
pub use store::{AttrsView, EventId, EventStore, RawEvent, StoredEvent, StoredKind};
pub use symbol::{Symbol, SymbolTable, DOC_SYMBOL};
pub use tree::{Document, NodeId, NodeKind, TreeBuilder};
pub use writer::{WriteOptions, Writer};
