//! A streaming XML parser: a resumable push core and a pull adapter.
//!
//! [`Parser`] owns its buffer and is driven by the stream: the caller
//! [`feed`](Parser::feed)s bytes as they arrive and
//! [`poll`](Parser::poll_into)s events out until the parser reports
//! [`Poll::NeedMore`]. It never blocks and never reads; memory is bounded by
//! the open-element stack (the document depth) and the size of the one
//! construct in flight. This is the property SPEX relies on: the stream is
//! never materialized.
//!
//! [`Reader`] is the pull view over any [`std::io::Read`]: it polls the
//! parser and, on `NeedMore`, reads straight into the parser's spare
//! capacity.
//!
//! The parser is non-validating but checks well-formedness: tags must nest
//! properly, exactly one root element must exist, attribute values must be
//! quoted, and entities must be decodable.
//!
//! Layout: `framing` holds the buffer and the *finder* (where does the
//! construct in flight end, and how far has it been looked for), `parse` the
//! slice parsers (structural fast path and classic state machine), `recover`
//! the fault log, the repair policy and the resumable discard-scans.

mod framing;
mod parse;
mod recover;
#[cfg(test)]
mod tests;

use crate::error::{Position, Result, XmlError};
use crate::event::XmlEvent;
use crate::recover::{Fault, FaultKind, RecoveryPolicy};
use crate::store::{EventId, EventStore, StoredKind};
use framing::{Buffer, Context, Input};
use std::io::Read;
use std::ops::{Deref, DerefMut};

/// Which byte-scanning strategy [`Parser::poll_into`] uses (see
/// `DESIGN.md` §18).
///
/// `Fast` layers a SWAR-accelerated structural fast path (built on
/// [`crate::scan`]) over the byte-at-a-time state machine: the common
/// shapes — an open tag whose attributes contain no entities, a text run
/// with no entity references, a close tag matching the innermost open
/// element — are recognized in bulk and written straight into the
/// [`EventStore`]. Everything else (CDATA, comments, PIs, entities,
/// non-ASCII names, and *any* malformed input) falls back to the classic
/// scanner **without having consumed a byte**, so the two scanners are
/// event-, fault- and position-identical by construction; `Classic`
/// disables the fast path and serves as the differential oracle.
///
/// Every entry point runs the configured scanner, the owned pull API
/// ([`Reader::next_event`], the `Iterator`) included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScannerKind {
    /// SWAR delimiter search + structural fast path, classic fallback.
    #[default]
    Fast,
    /// The byte-at-a-time state machine alone (the differential oracle).
    Classic,
}

/// What one [`Parser`] poll produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Poll {
    /// The next event.
    Event(EventId),
    /// The construct in flight is incomplete: [`Parser::feed`] more bytes
    /// (or close the input) and poll again. Never returned once the input
    /// is closed.
    NeedMore,
    /// The stream finished cleanly (after `EndDocument` was delivered).
    End,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Nothing emitted yet: the next event is `StartDocument`.
    Fresh,
    /// Before the root element (prolog).
    Prolog,
    /// Inside the root element.
    Content,
    /// After the root element closed (epilog).
    Epilog,
    /// Multi-document mode: a new document begins; emit `EndDocument`
    /// first, then restart at `Fresh`.
    Boundary,
    /// `EndDocument` has been emitted (or a fatal error occurred).
    Done,
}

/// Element names packed into one `String`, so a steady-state parse
/// allocates nothing per name: the open-element stack, and the element
/// closes waiting to be delivered.
#[derive(Debug, Default)]
struct Names {
    text: String,
    /// Where each name ends in `text`.
    ends: Vec<usize>,
}

impl Names {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn get(&self, i: usize) -> &str {
        let lo = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[lo..self.ends[i]]
    }

    fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    fn last(&self) -> Option<&str> {
        Some(self.get(self.len().checked_sub(1)?))
    }

    fn push(&mut self, name: &str) {
        self.text.push_str(name);
        self.ends.push(self.text.len());
    }

    fn pop(&mut self) {
        self.ends.pop();
        self.text.truncate(self.ends.last().copied().unwrap_or(0));
    }

    fn clear(&mut self) {
        self.text.clear();
        self.ends.clear();
    }
}

/// The events the parser synthesizes instead of reading, in delivery
/// order: the close of an `<a/>`, and a repair's element closes and `</$>`.
#[derive(Debug, Default)]
struct Closes {
    elements: Names,
    /// How many of `elements` were delivered.
    delivered: usize,
    /// A `</$>` follows the element closes.
    document: bool,
}

impl Closes {
    fn is_empty(&self) -> bool {
        self.delivered == self.elements.len() && !self.document
    }

    /// Write the next synthesized close into `store`.
    fn pop_into(&mut self, store: &mut EventStore) -> Option<EventId> {
        if self.delivered < self.elements.len() {
            let id = store.push_end(self.elements.get(self.delivered));
            self.delivered += 1;
            if self.delivered == self.elements.len() {
                self.elements.clear();
                self.delivered = 0;
            }
            return Some(id);
        }
        std::mem::take(&mut self.document).then(|| store.push_end_document())
    }
}

/// Resumable push parser. See the [module documentation](self).
///
/// Input arrives through [`Parser::feed`] and is closed by
/// [`Parser::end_input`] (clean end of stream) or [`Parser::fail_input`]
/// (transport failure); events leave through [`Parser::poll_into`].
#[derive(Debug)]
pub struct Parser {
    bytes: Buffer,
    state: State,
    /// Open-element stack, bounded by the document depth.
    stack: Names,
    /// Emitted-event index at which each open element's start event was
    /// delivered (parallel to `stack`); used to compute damage intervals.
    open_ticks: Vec<u64>,
    /// Closes awaiting delivery (a repair can synthesize several at once,
    /// e.g. a cascade of auto-closes).
    closes: Closes,
    /// A recovery discard-scan in progress; it finishes before any close
    /// is delivered.
    skim: Option<recover::Skim>,
    /// Accept a sequence of documents back to back (see
    /// [`Parser::multi_document`]).
    multi: bool,
    /// A `<` was already consumed while detecting a document boundary in
    /// multi-document mode; the prolog continues right after it.
    lt_consumed: bool,
    /// How to respond to malformed input (see [`crate::recover`]).
    policy: RecoveryPolicy,
    /// Faults repaired or contained so far (empty under `Strict`).
    faults: Vec<Fault>,
    /// Number of events delivered so far; the index of the *next* event.
    emitted: u64,
    /// Emitted-event index of the current document's root start element.
    root_open_tick: u64,
    /// Scanning strategy for [`Parser::poll_into`] (see [`ScannerKind`]).
    scanner: ScannerKind,
    /// The classic state machine's bytes for the construct in flight (a
    /// name, attribute names and values, text), reused across constructs.
    scratch: Vec<u8>,
    /// Attribute spans of the open tag in flight (into the input chunk on
    /// the fast path, into `scratch` on the classic one), reused across
    /// tags.
    attrs: Vec<parse::AttrSpan>,
}

impl Default for Parser {
    fn default() -> Self {
        Parser::new()
    }
}

impl Parser {
    /// Create a parser with no input yet.
    pub fn new() -> Self {
        Parser {
            bytes: Buffer::new(),
            state: State::Fresh,
            stack: Names::default(),
            open_ticks: Vec::new(),
            closes: Closes::default(),
            skim: None,
            multi: false,
            lt_consumed: false,
            policy: RecoveryPolicy::Strict,
            faults: Vec::new(),
            emitted: 0,
            root_open_tick: 0,
            scanner: ScannerKind::default(),
            scratch: Vec::new(),
            attrs: Vec::new(),
        }
    }

    /// Select the scanning strategy for [`Parser::poll_into`] (default:
    /// [`ScannerKind::Fast`]). `Classic` disables the structural fast path
    /// and is retained as the differential oracle; see [`ScannerKind`].
    pub fn with_scanner(mut self, scanner: ScannerKind) -> Self {
        self.scanner = scanner;
        self
    }

    /// Set the recovery policy (default: [`RecoveryPolicy::Strict`]).
    ///
    /// Under `Repair` or `SkipSubtree` the parser fixes or contains input
    /// faults instead of failing, records each one (see [`Parser::faults`])
    /// and always delivers a balanced event stream ending in `EndDocument`.
    /// Only unrecoverable conditions (an I/O failure before any document
    /// content in strict mode, for instance) still surface as errors.
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Accept a *sequence* of documents on one byte stream (back to back or
    /// whitespace-separated): after a root element closes, the next `<name`
    /// begins a new document — the parser emits `EndDocument` followed by a
    /// fresh `StartDocument`. This is the paper's unbounded-stream setting
    /// (§I): the SPEX engine evaluates consecutive documents on one
    /// evaluator without reset.
    pub fn multi_document(mut self) -> Self {
        self.multi = true;
        self
    }

    /// Current position in the input: just past the last consumed byte.
    pub fn position(&self) -> Position {
        self.bytes.position
    }

    /// The parser's resume point: `(events_emitted, position, lt_consumed)`.
    ///
    /// Meaningful at a document boundary (right after `EndDocument` was
    /// delivered). In multi-document mode the boundary was detected by
    /// consuming the next root's `<`, so the position points just past that
    /// byte and `lt_consumed` records the consumption; a parser restored
    /// with [`Parser::resume_at`] then continues byte-for-byte identically.
    pub fn resume_point(&self) -> (u64, Position, bool) {
        (self.emitted, self.bytes.position, self.lt_consumed)
    }

    /// The bytes fed but not consumed yet: `position().offset` plus their
    /// length is the number of bytes fed so far. At a document boundary
    /// they are exactly what a parser restored at [`Parser::resume_point`]
    /// must be fed before any later input.
    pub fn unconsumed(&self) -> &[u8] {
        self.bytes.rest()
    }

    /// Restore a *fresh* parser to a document-boundary resume point captured
    /// by [`Parser::resume_point`]. The bytes fed afterwards must start at
    /// `position.offset` — the caller skips the input the original parser
    /// consumed before the boundary.
    pub fn resume_at(mut self, emitted: u64, position: Position, lt_consumed: bool) -> Self {
        self.emitted = emitted;
        self.bytes.position = position;
        self.lt_consumed = lt_consumed;
        self
    }

    /// Current element nesting depth (number of open elements).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// The recovery policy this parser runs under.
    pub fn recovery_policy(&self) -> RecoveryPolicy {
        self.policy
    }

    /// Faults repaired or contained so far (always empty under
    /// [`RecoveryPolicy::Strict`]).
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Take ownership of the recorded faults, leaving the log empty.
    pub fn take_faults(&mut self) -> Vec<Fault> {
        std::mem::take(&mut self.faults)
    }

    /// Did the input end prematurely (EOF or I/O failure while elements
    /// were still open) and get repaired by synthesizing closes?
    pub fn truncated(&self) -> bool {
        self.faults.iter().any(|f| f.kind == FaultKind::Truncated)
    }

    /// Number of events delivered so far (the next event's index / tick).
    pub fn events_emitted(&self) -> u64 {
        self.emitted
    }

    /// Append the next bytes of the stream, in any chunking.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.bytes.feed(bytes);
    }

    /// The stream ended cleanly: whatever is buffered is all there is.
    pub fn end_input(&mut self) {
        if matches!(self.bytes.input, Input::Open) {
            self.bytes.input = Input::Ended;
        }
    }

    /// The transport failed. Events already buffered are still delivered;
    /// the failure surfaces where the parser would have needed the next
    /// byte — as an I/O-class error under `Strict`, as a `truncated` fault
    /// under a recovery policy.
    pub fn fail_input(&mut self, error: std::io::Error) {
        if matches!(self.bytes.input, Input::Open) {
            self.bytes.input = Input::Failed(error.to_string());
        }
    }

    /// Read once from `input` straight into the parser's spare capacity: a
    /// zero-byte read ends the input, an error fails it, an interrupted read
    /// leaves it open. What a caller reading a [`std::io::Read`] does on
    /// [`Poll::NeedMore`]; [`Reader`]'s pulls call it too.
    pub fn read_from<R: Read + ?Sized>(&mut self, input: &mut R) {
        match input.read(self.bytes.spare()) {
            Ok(0) => self.end_input(),
            Ok(n) => self.bytes.commit(n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => self.fail_input(e),
        }
    }

    /// Parse the next event directly into an [`EventStore`], returning its
    /// arena handle. Labels are interned into the store's symbol table at
    /// parse time and payload bytes are copied once into the shared buffer,
    /// so feed/poll is the zero-copy producer side of the pipeline.
    ///
    /// A poll that reports [`Poll::NeedMore`] has consumed whole constructs
    /// only (silent ones: an XML declaration, a DOCTYPE, input a recovery
    /// policy discards); the incomplete one is untouched, so
    /// [`Parser::position`], [`Parser::faults`], [`Parser::events_emitted`],
    /// [`Parser::depth`] and [`Parser::resume_point`] stand at a construct
    /// boundary, `store` holds no more events than before, and polling again
    /// without feeding changes none of them.
    pub fn poll_into(&mut self, store: &mut EventStore) -> Result<Poll> {
        let polled = match self.fast_poll(store) {
            Some(id) => Poll::Event(id),
            None => self.poll_classic(store)?,
        };
        if matches!(polled, Poll::Event(_)) {
            self.emitted += 1;
        }
        Ok(polled)
    }

    /// The classic state machine. Kept out of line so that `poll_into`, the
    /// fast path's entry, stays small: inlined into it, this loop cost the
    /// WordNet-shaped documents of `oneshot-flat` about 1.5% CPU.
    #[inline(never)]
    fn poll_classic(&mut self, store: &mut EventStore) -> Result<Poll> {
        let id = loop {
            if !self.run_skim() {
                return Ok(Poll::NeedMore);
            }
            if let Some(id) = self.closes.pop_into(store) {
                break id;
            }
            let ctx = match self.state {
                State::Fresh => {
                    self.state = State::Prolog;
                    break store.push_start_document();
                }
                State::Boundary => {
                    self.state = State::Fresh;
                    continue;
                }
                State::Done => return Ok(Poll::End),
                State::Prolog => Context::Prolog {
                    lt_consumed: self.lt_consumed,
                },
                State::Content => Context::Content,
                State::Epilog => Context::Epilog { multi: self.multi },
            };
            if !self.bytes.find_end(ctx) {
                return Ok(Poll::NeedMore);
            }
            // One attempt at the construct in flight. Running off the
            // buffer means end of input to the slice parsers; whether it
            // was is decided here.
            let mark = (self.bytes.begin(), self.state, self.lt_consumed);
            let (faults_before, stored_before) = (self.faults.len(), store.mark());
            self.scratch.clear();
            let mut step = self.construct_event(store);
            if self.bytes.hit_end() {
                match &self.bytes.input {
                    Input::Open => {
                        self.bytes.rollback(mark.0);
                        (self.state, self.lt_consumed) = (mark.1, mark.2);
                        self.faults.truncate(faults_before);
                        store.truncate(stored_before);
                        self.bytes.start_find(ctx);
                        return Ok(Poll::NeedMore);
                    }
                    // A failed transport is an I/O error wherever a clean
                    // end would have been end of input — except that a
                    // repair policy salvages the text received so far
                    // (the failure resurfaces, as a truncation, on the
                    // next poll).
                    Input::Failed(msg)
                        if self.policy == RecoveryPolicy::Strict
                            || !matches!(step, Ok(Some(id))
                                    if store.stored(id).kind == StoredKind::Text) =>
                    {
                        self.state = mark.1;
                        store.truncate(stored_before);
                        step = Err(XmlError::Io(msg.clone()));
                    }
                    _ => {}
                }
            }
            self.bytes.construct_done();
            match step {
                Ok(Some(id)) => break id,
                // The epilog ended the document (end of input, or the
                // next document's first construct).
                Ok(None) if matches!(self.state, State::Done | State::Boundary) => {
                    break store.push_end_document();
                }
                Ok(None) => {}
                Err(e) if self.policy == RecoveryPolicy::Strict => return Err(e),
                Err(e) => self.recover(e)?,
            }
        };
        Ok(Poll::Event(id))
    }

    /// Queue the close of the innermost open element and pop it, returning
    /// the tick of its start event.
    fn close_innermost(&mut self) -> Option<u64> {
        self.closes.elements.push(self.stack.last()?);
        self.stack.pop();
        self.open_ticks.pop()
    }

    /// Stop after a fatal error: nothing further is delivered.
    fn abort(&mut self) {
        self.state = State::Done;
        self.closes = Closes::default();
        self.skim = None;
    }
}

/// Streaming pull parser: a [`Parser`] fed from a [`std::io::Read`] source.
///
/// `Reader` dereferences to its [`Parser`] for everything but input
/// ([`Parser::position`], [`Parser::faults`], …) and implements
/// [`Iterator`] over `Result<XmlEvent, XmlError>`; after the first error
/// (or after `EndDocument`) the iterator yields `None`.
pub struct Reader<R: Read> {
    parser: Parser,
    input: R,
    /// Where the owned pull API ([`Reader::next_event`]) parses each event
    /// before converting it (made on its first use); empty between pulls.
    owned: Option<EventStore>,
}

impl Reader<&'static [u8]> {
    /// Parse from a string slice. (Not the `FromStr` trait: the returned
    /// reader is a different `Reader` instantiation.)
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Reader<std::io::Cursor<Vec<u8>>> {
        Reader::new(std::io::Cursor::new(s.as_bytes().to_vec()))
    }

    /// Parse from an owned byte vector.
    pub fn from_bytes(bytes: Vec<u8>) -> Reader<std::io::Cursor<Vec<u8>>> {
        Reader::new(std::io::Cursor::new(bytes))
    }
}

impl<R: Read> Reader<R> {
    /// Create a reader over an arbitrary byte source.
    pub fn new(input: R) -> Self {
        Reader {
            parser: Parser::new(),
            input,
            owned: None,
        }
    }

    /// See [`Parser::with_scanner`].
    pub fn with_scanner(mut self, scanner: ScannerKind) -> Self {
        self.parser = self.parser.with_scanner(scanner);
        self
    }

    /// See [`Parser::with_recovery`].
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.parser = self.parser.with_recovery(policy);
        self
    }

    /// See [`Parser::multi_document`].
    pub fn multi_document(mut self) -> Self {
        self.parser = self.parser.multi_document();
        self
    }

    /// See [`Parser::position`]. (Spelled out because method lookup would
    /// otherwise stop at `Iterator::position` before dereferencing.)
    pub fn position(&self) -> Position {
        self.parser.position()
    }

    /// Pull the next event as an owned [`XmlEvent`]: parsed into a private
    /// store like any other, then copied out. `Ok(None)` means the stream
    /// finished cleanly (after `EndDocument` was delivered).
    pub fn next_event(&mut self) -> Result<Option<XmlEvent>> {
        let owned = self.owned.get_or_insert_with(EventStore::new);
        let id = pull(&mut self.parser, &mut self.input, owned);
        let event = id.map(|id| id.map(|id| owned.get(id).to_owned_event()));
        owned.reset();
        event
    }

    /// Pull the next event directly into an [`EventStore`], returning its
    /// arena handle (see [`Parser::poll_into`]): the loop
    /// `while let Some(id) = reader.next_into(&mut store)? { … }` is the
    /// zero-copy producer side of the pipeline.
    pub fn next_into(&mut self, store: &mut EventStore) -> Result<Option<EventId>> {
        pull(&mut self.parser, &mut self.input, store)
    }

    /// Read once from the byte source into the parser
    /// ([`Parser::read_from`]): for callers that poll the parser themselves
    /// and pull only on [`Poll::NeedMore`].
    pub fn fill(&mut self) {
        self.parser.read_from(&mut self.input);
    }
}

/// Poll until an event or the end, reading from `input` on `NeedMore`.
fn pull<R: Read>(
    parser: &mut Parser,
    input: &mut R,
    store: &mut EventStore,
) -> Result<Option<EventId>> {
    loop {
        match parser.poll_into(store)? {
            Poll::Event(id) => return Ok(Some(id)),
            Poll::End => return Ok(None),
            Poll::NeedMore => parser.read_from(input),
        }
    }
}

impl<R: Read> Deref for Reader<R> {
    type Target = Parser;

    fn deref(&self) -> &Parser {
        &self.parser
    }
}

impl<R: Read> DerefMut for Reader<R> {
    fn deref_mut(&mut self) -> &mut Parser {
        &mut self.parser
    }
}

impl<R: Read> Iterator for Reader<R> {
    type Item = Result<XmlEvent>;

    fn next(&mut self) -> Option<Self::Item> {
        let next = self.next_event().transpose();
        if matches!(next, Some(Err(_))) {
            self.parser.abort();
        }
        next
    }
}

/// Parse a complete string into a vector of events (convenience for tests
/// and small documents; not for streaming use).
pub fn parse_events(xml: &str) -> Result<Vec<XmlEvent>> {
    Reader::from_str(xml).collect()
}

/// Parse a complete string under a recovery policy, returning the repaired
/// event stream and the faults that were fixed or contained along the way.
/// Convenience for tests and small documents; not for streaming use.
pub fn parse_events_recovering(
    xml: &str,
    policy: RecoveryPolicy,
) -> Result<(Vec<XmlEvent>, Vec<Fault>)> {
    let mut reader = Reader::from_str(xml).with_recovery(policy);
    let events = (&mut reader).collect::<Result<_>>()?;
    Ok((events, reader.take_faults()))
}
