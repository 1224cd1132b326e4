//! The slice parsers: the structural fast path ([`ScannerKind::Fast`]) and
//! the byte-at-a-time classic state machine, both over the bytes already
//! buffered in [`super::framing::Buffer`].
//!
//! Nothing here waits for input. A classic parser that runs off the buffer
//! sees end of input (`None`); the poll loop in [`super`] decides afterwards
//! whether that was the real end or the attempt must be rolled back.

use super::framing::Scan;
use super::{Parser, ScannerKind, State};
use crate::error::{Result, XmlError};
use crate::escape::{unescape, unescape_lossy};
use crate::event::{Attribute, XmlEvent};
use crate::recover::{FaultAction, FaultKind, RecoveryPolicy};
use crate::scan::{memchr, memchr3_or_non_ascii};
use crate::store::{EventId, EventStore};

/// Chunk-relative byte spans of one attribute recognized by the structural
/// fast path: `name` and `value` index into the parser's buffered chunk.
#[derive(Debug, Clone, Copy)]
pub(super) struct AttrSpan {
    name_lo: usize,
    name_hi: usize,
    value_lo: usize,
    value_hi: usize,
}

/// View validated-ASCII bytes as `&str`. The fast path proves slices ASCII
/// (via [`memchr3_or_non_ascii`]) before calling this; the fallback value is
/// unreachable and exists only to keep the function total without `unwrap`.
fn ascii_str(bytes: &[u8]) -> &str {
    debug_assert!(bytes.is_ascii());
    std::str::from_utf8(bytes).unwrap_or_default()
}

/// Upper bound on pooled buffers; beyond this, buffers are simply dropped
/// (a document with thousands of attributes should not pin memory forever).
const POOL_CAP: usize = 64;

impl Parser {
    // ----- structural fast path (ScannerKind::Fast; see DESIGN.md §18) -----
    //
    // Every method here either recognizes one *complete, well-formed*
    // construct inside the buffered chunk and consumes exactly its bytes,
    // or returns `None` having consumed nothing — in which case the classic
    // state machine re-reads the same bytes and handles the construct
    // (including raising the identical error/fault at the identical
    // position).

    /// Try to deliver the next event via the structural fast path. `None`
    /// means "no byte consumed, use the classic scanner".
    pub(super) fn fast_poll(&mut self, store: &mut EventStore) -> Option<EventId> {
        if self.scanner != ScannerKind::Fast
            || self.skim.is_some()
            || !self.queue.is_empty()
            || self.pending.is_some()
        {
            return None; // skims, repair events, the close of `<a/>`: classic order
        }
        // Prolog/epilog/boundary constructs are rare: classic. So is a
        // construct already found incomplete, until its end has arrived.
        if self.state != State::Content || !self.bytes.find_end(super::Context::Content) {
            return None;
        }
        let chunk = self.bytes.rest();
        let id = match (*chunk.first()?, chunk.get(1).copied()) {
            (b'<', Some(b'/')) => self.fast_close_tag(store),
            (b'<', Some(b)) if b < 0x80 && is_name_start(b) => self.fast_open_tag(store),
            (b'<', None) => self.incomplete(),
            // `<!`, `<?`, non-ASCII names.
            (b'<', _) => None,
            _ => self.fast_text(store),
        }?;
        self.bytes.construct_done();
        Some(id)
    }

    /// The sweep ran off the buffered bytes without finding the construct's
    /// end: have the finder track it, so the classic scanner is not tried
    /// on it either until the rest has arrived.
    fn incomplete(&mut self) -> Option<EventId> {
        self.bytes.start_find(super::Context::Content);
        None
    }

    /// Fast text run: ASCII character data up to a `<` inside the buffered
    /// chunk, with no entity reference. One fused sweep finds the end *and*
    /// proves the run entity-free ASCII; the bytes go into the store
    /// verbatim (entity decoding and the latin-1 widening repack are both
    /// no-ops on this shape).
    fn fast_text(&mut self, store: &mut EventStore) -> Option<EventId> {
        let chunk = self.bytes.rest();
        // A `&` hit is an entity reference (classic decode-and-fault path);
        // a non-ASCII hit is UTF-8 text (classic widen/repack path).
        let Some(stop) = memchr3_or_non_ascii(b'<', b'&', b'&', chunk) else {
            let n = chunk.len();
            self.bytes.examine(n);
            return self.incomplete();
        };
        if chunk[stop] != b'<' {
            self.bytes.examine(stop);
            return None;
        }
        let id = store.push_text(ascii_str(&chunk[..stop]));
        self.bytes.consume_bulk(stop);
        Some(id)
    }

    /// Fast close tag: `</name>` (optionally with trailing whitespace before
    /// `>`) whose name matches the innermost open element. Mismatched and
    /// stray closes fall back to the classic path's fault machinery.
    fn fast_close_tag(&mut self, store: &mut EventStore) -> Option<EventId> {
        let chunk = self.bytes.rest();
        let Some(gt) = memchr(b'>', &chunk[2..]) else {
            return self.incomplete();
        };
        let gt = gt + 2;
        let inner = &chunk[2..gt];
        let first = *inner.first()?;
        if first >= 0x80 || !is_name_start(first) {
            return None;
        }
        let name_len = inner
            .iter()
            .position(|&b| !is_name_char(b))
            .unwrap_or(inner.len());
        if !inner[name_len..].iter().all(|b| b.is_ascii_whitespace()) {
            return None; // junk between name and `>`: classic error path
        }
        let name = &inner[..name_len];
        match self.stack.last() {
            Some(top) if top.as_bytes() == name => {}
            _ => return None, // mismatch/stray close: classic fault handling
        }
        let id = store.push_end(ascii_str(name));
        if let Some(popped) = self.stack.pop() {
            self.recycle_string(popped);
        }
        self.open_ticks.pop();
        if self.stack.is_empty() {
            self.state = State::Epilog;
        }
        self.bytes.consume_bulk(gt + 1);
        Some(id)
    }

    /// Fast open tag: `<name a="v" ...>` or `<name .../>` complete inside
    /// the buffered chunk, all ASCII, no entity reference or `<` anywhere in
    /// the tag. The attribute spans are collected into a reusable scratch
    /// vector, then handed to [`EventStore::push_start`] as borrowed `&str`s
    /// straight out of the input buffer — no intermediate `String`.
    ///
    /// A `>` inside a quoted attribute value makes the candidate fail
    /// validation (the quote never closes before the first `>`), so it falls
    /// back rather than mis-parsing.
    fn fast_open_tag(&mut self, store: &mut EventStore) -> Option<EventId> {
        self.fast_attrs.clear();
        let chunk = self.bytes.rest();
        // One fused sweep: the first `>`, `<`, `&` or non-ASCII byte after
        // the opening `<`. Only a `>` keeps the candidate — anything else is
        // UTF-8 names/values, an entity, or malformed nesting, and a
        // quoted-value `>` before those merely fails the attribute walk
        // below (the quote never closes), so nothing is ever mis-parsed.
        let Some(gt) = memchr3_or_non_ascii(b'>', b'<', b'&', &chunk[1..]) else {
            return self.incomplete();
        };
        let gt = gt + 1;
        if chunk[gt] != b'>' {
            return None;
        }
        // Name: byte 1 is a name-start (checked by the dispatcher).
        let mut i = 1;
        while i < gt && is_name_char(chunk[i]) {
            i += 1;
        }
        let name_hi = i;
        let mut self_closing = false;
        loop {
            while i < gt && chunk[i].is_ascii_whitespace() {
                i += 1;
            }
            if i == gt {
                break;
            }
            if chunk[i] == b'/' {
                if i + 1 == gt {
                    self_closing = true;
                    break;
                }
                return None; // `/` not directly before `>`: classic error path
            }
            if !is_name_start(chunk[i]) {
                return None;
            }
            let name_lo = i;
            while i < gt && is_name_char(chunk[i]) {
                i += 1;
            }
            let attr_name_hi = i;
            while i < gt && chunk[i].is_ascii_whitespace() {
                i += 1;
            }
            if i == gt || chunk[i] != b'=' {
                return None;
            }
            i += 1;
            while i < gt && chunk[i].is_ascii_whitespace() {
                i += 1;
            }
            if i == gt || (chunk[i] != b'"' && chunk[i] != b'\'') {
                return None;
            }
            let quote = chunk[i];
            i += 1;
            let value_lo = i;
            let value_hi = value_lo + memchr(quote, &chunk[i..gt])?;
            i = value_hi + 1;
            self.fast_attrs.push(AttrSpan {
                name_lo,
                name_hi: attr_name_hi,
                value_lo,
                value_hi,
            });
        }
        let name = ascii_str(&chunk[1..name_hi]);
        let attrs = self.fast_attrs.iter().map(|span| {
            (
                ascii_str(&chunk[span.name_lo..span.name_hi]),
                ascii_str(&chunk[span.value_lo..span.value_hi]),
            )
        });
        let id = store.push_start(name, attrs);
        let mut open = self.str_pool.pop().unwrap_or_default();
        open.clear();
        open.push_str(name);
        if self_closing {
            // Same bookkeeping as the classic path: the close is pre-parsed
            // into `pending` and delivered on the next pull.
            self.pending = Some(XmlEvent::EndElement { name: open });
        } else {
            self.stack.push(open);
            // The start event is delivered right after this return, so its
            // tick is the current `emitted` index (as in the classic path).
            self.open_ticks.push(self.emitted);
        }
        // The sweep and the attribute walk each passed over the tag once
        // before it is consumed.
        self.bytes.examine(gt + 1);
        self.bytes.consume_bulk(gt + 1);
        Some(id)
    }

    // ----- buffer recycling (the no-allocation steady state) -----

    fn take_string(&mut self) -> String {
        let mut s = self.str_pool.pop().unwrap_or_default();
        s.clear();
        s
    }

    fn recycle_string(&mut self, s: String) {
        if self.str_pool.len() < POOL_CAP && s.capacity() > 0 {
            self.str_pool.push(s);
        }
    }

    fn take_attrs(&mut self) -> Vec<Attribute> {
        self.attr_pool.pop().unwrap_or_default()
    }

    /// Reclaim the payload buffers of a consumed event.
    pub(super) fn recycle_event(&mut self, event: XmlEvent) {
        match event {
            XmlEvent::StartElement {
                name,
                mut attributes,
            } => {
                self.recycle_string(name);
                for a in attributes.drain(..) {
                    self.recycle_string(a.name);
                    self.recycle_string(a.value);
                }
                if self.attr_pool.len() < POOL_CAP {
                    self.attr_pool.push(attributes);
                }
            }
            XmlEvent::EndElement { name } => self.recycle_string(name),
            XmlEvent::Text(t) | XmlEvent::Comment(t) => self.recycle_string(t),
            XmlEvent::ProcessingInstruction { target, data } => {
                self.recycle_string(target);
                self.recycle_string(data);
            }
            XmlEvent::StartDocument | XmlEvent::EndDocument => {}
        }
    }

    // ----- the classic state machine -----

    /// Handle one prolog construct. Returns an event to deliver, or `None`
    /// if the construct was consumed silently (whitespace, XML declaration,
    /// DOCTYPE).
    pub(super) fn prolog_event(&mut self) -> Result<Option<XmlEvent>> {
        if !self.lt_consumed {
            self.skip_whitespace();
        }
        match if self.lt_consumed {
            Some(b'<')
        } else {
            self.bytes.peek()
        } {
            None => Err(XmlError::EmptyDocument),
            Some(b'<') => {
                if self.lt_consumed {
                    self.lt_consumed = false;
                } else {
                    self.bytes.next();
                }
                match self.bytes.peek() {
                    Some(b'?') => {
                        self.bytes.next();
                        self.parse_pi()
                    }
                    Some(b'!') => {
                        self.bytes.next();
                        match self.bytes.peek() {
                            Some(b'-') => Ok(Some(self.parse_comment()?)),
                            Some(b'D') => {
                                self.skip_doctype()?;
                                Ok(None)
                            }
                            _ => Err(XmlError::syntax(
                                "unexpected `<!` construct in prolog",
                                self.bytes.position,
                            )),
                        }
                    }
                    Some(b'/') => Err(XmlError::syntax(
                        "close tag before any element was opened",
                        self.bytes.position,
                    )),
                    _ => {
                        self.root_open_tick = self.emitted;
                        let ev = self.parse_open_tag()?;
                        // A self-closing root (`<a/>`) leaves the stack empty:
                        // go straight to the epilog once the pending
                        // `EndElement` is delivered.
                        self.state = if self.stack.is_empty() {
                            State::Epilog
                        } else {
                            State::Content
                        };
                        Ok(Some(ev))
                    }
                }
            }
            Some(_) => Err(XmlError::syntax(
                "character data before the root element",
                self.bytes.position,
            )),
        }
    }

    /// Handle one content construct. `Ok(None)` means the construct was
    /// consumed without producing an event directly (a repaired close tag
    /// queues its events instead).
    pub(super) fn content_event(&mut self) -> Result<Option<XmlEvent>> {
        match self.bytes.peek() {
            None => Err(XmlError::UnexpectedEof {
                open_element: self.stack.last().cloned(),
                position: self.bytes.position,
            }),
            Some(b'<') => self.markup_event(),
            Some(_) => {
                let text = self.parse_text()?;
                Ok(Some(XmlEvent::Text(text)))
            }
        }
    }

    /// Parse a `<...>` construct in content context.
    fn markup_event(&mut self) -> Result<Option<XmlEvent>> {
        self.bytes.next(); // consume '<'
        match self.bytes.peek() {
            Some(b'/') => {
                self.bytes.next();
                self.parse_close_tag()
            }
            Some(b'?') => {
                self.bytes.next();
                match self.parse_pi()? {
                    Some(ev) => Ok(Some(ev)),
                    // The XML declaration is only legal at the very start;
                    // treat it here as a syntax error.
                    None => Err(XmlError::syntax(
                        "XML declaration inside the document",
                        self.bytes.position,
                    )),
                }
            }
            Some(b'!') => {
                self.bytes.next();
                match self.bytes.peek() {
                    Some(b'-') => self.parse_comment().map(Some),
                    Some(b'[') => {
                        let text = self.parse_cdata()?;
                        Ok(Some(XmlEvent::Text(text)))
                    }
                    _ => Err(XmlError::syntax(
                        "unexpected `<!` construct in content",
                        self.bytes.position,
                    )),
                }
            }
            _ => self.parse_open_tag().map(Some),
        }
    }

    /// Handle one epilog construct. `Ok(None)` with the state moved to
    /// `Done` or `Boundary` means the document ended.
    pub(super) fn epilog_event(&mut self) -> Result<Option<XmlEvent>> {
        self.skip_whitespace();
        match self.bytes.peek() {
            None => {
                self.state = State::Done;
                Ok(None)
            }
            Some(b'<') => {
                self.bytes.next();
                match self.bytes.peek() {
                    Some(b'?') => {
                        self.bytes.next();
                        self.parse_pi()
                    }
                    Some(b'!') => {
                        self.bytes.next();
                        match self.bytes.peek() {
                            Some(b'-') => Ok(Some(self.parse_comment()?)),
                            Some(b'D') if self.multi => {
                                // DOCTYPE of the *next* document.
                                self.skip_doctype()?;
                                self.state = State::Boundary;
                                Ok(None)
                            }
                            _ => Err(XmlError::TrailingContent {
                                position: self.bytes.position,
                            }),
                        }
                    }
                    Some(b) if self.multi && is_name_start(b) => {
                        // A new root element: document boundary. The `<` is
                        // already consumed; the next prolog continues after
                        // it.
                        self.state = State::Boundary;
                        self.lt_consumed = true;
                        Ok(None)
                    }
                    _ => Err(XmlError::TrailingContent {
                        position: self.bytes.position,
                    }),
                }
            }
            Some(_) => Err(XmlError::TrailingContent {
                position: self.bytes.position,
            }),
        }
    }

    fn skip_whitespace(&mut self) {
        self.bytes.skip_while(|b| b.is_ascii_whitespace());
    }

    /// Parse a name (element or attribute). The first byte must already be
    /// valid; subsequent bytes follow the (ASCII-approximated) NameChar rules.
    /// Non-ASCII bytes are accepted verbatim so UTF-8 names pass through.
    fn parse_name(&mut self) -> Result<String> {
        let start = self.bytes.position;
        match self.bytes.peek() {
            Some(b) if is_name_start(b) => {}
            _ => return Err(XmlError::syntax("expected a name", start)),
        }
        let mut name = self.take_string();
        let mut high = false;
        // `b >= 0x80` passes through UTF-8 continuation/start bytes.
        self.bytes
            .scan_into(&mut name, &mut high, |b| is_name_char(b) || b >= 0x80);
        Ok(if high { fix_latin(name) } else { name })
    }

    fn parse_open_tag(&mut self) -> Result<XmlEvent> {
        let name = self.parse_name()?;
        let mut attributes = self.take_attrs();
        loop {
            self.skip_whitespace();
            match self.bytes.peek() {
                Some(b'>') => {
                    self.bytes.next();
                    // Copy the name into a pooled buffer for the open-element
                    // stack instead of `clone()`: no allocation once warm.
                    let mut open = self.take_string();
                    open.push_str(&name);
                    self.stack.push(open);
                    // The start event is delivered right after this return,
                    // so its tick is the current `emitted` index.
                    self.open_ticks.push(self.emitted);
                    return Ok(XmlEvent::StartElement { name, attributes });
                }
                Some(b'/') => {
                    self.bytes.next();
                    if self.bytes.next_or_eof()? != b'>' {
                        return Err(XmlError::syntax(
                            "expected `>` after `/` in empty-element tag",
                            self.bytes.position,
                        ));
                    }
                    // Self-closing element: two events, nothing pushed to the
                    // open-element stack (the element opens and closes
                    // atomically). If this was the root element the caller
                    // transitions to the epilog based on the empty stack.
                    let mut close = self.take_string();
                    close.push_str(&name);
                    self.pending = Some(XmlEvent::EndElement { name: close });
                    return Ok(XmlEvent::StartElement { name, attributes });
                }
                Some(b) if is_name_start(b) => {
                    let attr_name = self.parse_name()?;
                    self.skip_whitespace();
                    if self.bytes.next_or_eof()? != b'=' {
                        return Err(XmlError::syntax(
                            format!("expected `=` after attribute name `{attr_name}`"),
                            self.bytes.position,
                        ));
                    }
                    self.skip_whitespace();
                    let value = self.parse_attr_value()?;
                    attributes.push(Attribute {
                        name: attr_name,
                        value,
                    });
                }
                Some(_) => {
                    return Err(XmlError::syntax(
                        "unexpected character in start tag",
                        self.bytes.position,
                    ))
                }
                None => {
                    return Err(XmlError::UnexpectedEof {
                        open_element: Some(name),
                        position: self.bytes.position,
                    })
                }
            }
        }
    }

    fn parse_attr_value(&mut self) -> Result<String> {
        let start = self.bytes.position;
        let quote = self.bytes.next_or_eof()?;
        if quote != b'"' && quote != b'\'' {
            return Err(XmlError::syntax("attribute value must be quoted", start));
        }
        let mut raw = self.take_string();
        let mut high = false;
        match self
            .bytes
            .scan_into(&mut raw, &mut high, |b| b != quote && b != b'<')
        {
            Scan::Stopped => {
                if self.bytes.next() != Some(quote) {
                    return Err(XmlError::syntax(
                        "`<` in attribute value",
                        self.bytes.position,
                    ));
                }
            }
            Scan::Eof => {
                return Err(XmlError::UnexpectedEof {
                    open_element: self.stack.last().cloned(),
                    position: self.bytes.position,
                })
            }
        }
        let raw = if high { fix_latin(raw) } else { raw };
        self.decode_entities(raw, start)
    }

    /// Decode entity references in `raw`; under a repair policy undecodable
    /// references become U+FFFD replacement text and are reported as a
    /// [`FaultKind::BadEntity`] fault instead of an error.
    fn decode_entities(&mut self, raw: String, start: crate::Position) -> Result<String> {
        // No reference, no work: hand the buffer back untouched. (This is
        // the dominant path; it also means no copy out of a pooled buffer.)
        if !raw.contains('&') {
            return Ok(raw);
        }
        match unescape(&raw) {
            Some(v) => {
                // `raw` contains `&`, so a successful decode is always owned.
                let v = v.into_owned();
                self.recycle_string(raw);
                Ok(v)
            }
            None if self.policy == RecoveryPolicy::Strict => Err(XmlError::BadEntity {
                entity: raw,
                position: start,
            }),
            None => {
                let (fixed, replaced) = unescape_lossy(&raw);
                self.record_fault(
                    FaultKind::BadEntity,
                    start,
                    FaultAction::Replaced,
                    format!("replaced {replaced} undecodable entity reference(s)"),
                    self.emitted,
                    self.emitted,
                );
                self.recycle_string(raw);
                Ok(fixed)
            }
        }
    }

    /// Parse a close tag (`</` already consumed). Under a repair policy a
    /// mismatched close auto-closes the intervening open elements (queueing
    /// their end events) and a stray close is dropped; both return
    /// `Ok(None)` with a recorded [`crate::Fault`].
    fn parse_close_tag(&mut self) -> Result<Option<XmlEvent>> {
        let pos = self.bytes.position;
        let name = self.parse_name()?;
        self.skip_whitespace();
        if self.bytes.next_or_eof()? != b'>' {
            return Err(XmlError::syntax(
                "expected `>` in close tag",
                self.bytes.position,
            ));
        }
        match self.stack.last() {
            Some(open) if *open == name => {
                if let Some(popped) = self.stack.pop() {
                    self.recycle_string(popped);
                }
                self.open_ticks.pop();
                if self.stack.is_empty() {
                    self.state = State::Epilog;
                }
                Ok(Some(XmlEvent::EndElement { name }))
            }
            Some(open) if self.policy == RecoveryPolicy::Strict => Err(XmlError::MismatchedTag {
                expected: open.clone(),
                found: name,
                position: pos,
            }),
            Some(_) => {
                if let Some(idx) = self.stack.iter().rposition(|n| *n == name) {
                    // Mismatched close: auto-close everything above the
                    // matching open, then close it. The damage interval
                    // starts at the outermost auto-closed element's open:
                    // every event since then may sit at the wrong depth.
                    let auto = self.stack.len() - idx - 1;
                    let damage_from = self.open_ticks.get(idx + 1).copied().unwrap_or(0);
                    while self.stack.len() > idx {
                        if let Some(top) = self.stack.pop() {
                            self.open_ticks.pop();
                            self.queue.push_back(XmlEvent::EndElement { name: top });
                        }
                    }
                    self.record_fault(
                        FaultKind::MismatchedClose,
                        pos,
                        FaultAction::AutoClosed,
                        format!("auto-closed {auto} open element(s) at </{name}>"),
                        damage_from,
                        self.emitted + auto as u64,
                    );
                    if self.stack.is_empty() {
                        self.state = State::Epilog;
                    }
                } else {
                    // Stray close: no such element is open. Conservatively
                    // taint everything since the innermost open element's
                    // start (a duplicated close may have silently closed a
                    // same-named ancestor earlier).
                    let damage_from = self.open_ticks.last().copied().unwrap_or(0);
                    self.record_fault(
                        FaultKind::StrayClose,
                        pos,
                        FaultAction::Dropped,
                        format!("dropped stray close tag </{name}>"),
                        damage_from,
                        self.emitted,
                    );
                }
                Ok(None)
            }
            None => Err(XmlError::syntax("close tag without open element", pos)),
        }
    }

    /// Parse raw character data up to the next `<` (or the end of input),
    /// decoding entities.
    fn parse_text(&mut self) -> Result<String> {
        let start = self.bytes.position;
        let mut raw = self.take_string();
        let mut high = false;
        self.bytes.scan_into(&mut raw, &mut high, |b| b != b'<');
        let raw = if high { fix_latin(raw) } else { raw };
        self.decode_entities(raw, start)
    }

    /// The `UnexpectedEof` raised inside a comment, CDATA section or PI.
    fn eof_in_markup(&self) -> XmlError {
        XmlError::UnexpectedEof {
            open_element: self.stack.last().cloned(),
            position: self.bytes.position,
        }
    }

    /// Parse a comment; the leading `<!` is already consumed and `-` peeked.
    fn parse_comment(&mut self) -> Result<XmlEvent> {
        let pos = self.bytes.position;
        for _ in 0..2 {
            if self.bytes.next_or_eof()? != b'-' {
                return Err(XmlError::syntax("malformed comment opener", pos));
            }
        }
        let mut content = self.take_string();
        let mut dashes = 0usize;
        loop {
            match self.bytes.next() {
                None => return Err(self.eof_in_markup()),
                Some(b'-') => dashes += 1,
                Some(b'>') if dashes >= 2 => {
                    // remove the two trailing dashes we buffered
                    for _ in 0..dashes.saturating_sub(2) {
                        content.push('-');
                    }
                    return Ok(XmlEvent::Comment(fix_latin(content)));
                }
                Some(b) => {
                    for _ in 0..dashes {
                        content.push('-');
                    }
                    dashes = 0;
                    content.push(b as char);
                }
            }
        }
    }

    /// Parse `<![CDATA[ ... ]]>`; `<!` consumed, `[` peeked.
    fn parse_cdata(&mut self) -> Result<String> {
        let pos = self.bytes.position;
        for expected in b"[CDATA[" {
            if self.bytes.next_or_eof()? != *expected {
                return Err(XmlError::syntax("malformed CDATA opener", pos));
            }
        }
        let mut content = self.take_string();
        let mut brackets = 0usize;
        loop {
            match self.bytes.next() {
                None => return Err(self.eof_in_markup()),
                Some(b']') => brackets += 1,
                Some(b'>') if brackets >= 2 => {
                    for _ in 0..brackets.saturating_sub(2) {
                        content.push(']');
                    }
                    return Ok(fix_latin(content));
                }
                Some(b) => {
                    for _ in 0..brackets {
                        content.push(']');
                    }
                    brackets = 0;
                    content.push(b as char);
                }
            }
        }
    }

    /// Parse a processing instruction; `<?` already consumed. Returns `None`
    /// for the XML declaration (`<?xml ...?>`), which is consumed silently.
    fn parse_pi(&mut self) -> Result<Option<XmlEvent>> {
        let target = self.parse_name()?;
        let mut data = self.take_string();
        let mut question = false;
        loop {
            match self.bytes.next() {
                None => return Err(self.eof_in_markup()),
                Some(b'?') => {
                    if question {
                        data.push('?');
                    }
                    question = true;
                }
                Some(b'>') if question => break,
                Some(b) => {
                    if question {
                        data.push('?');
                        question = false;
                    }
                    data.push(b as char);
                }
            }
        }
        if target.eq_ignore_ascii_case("xml") {
            self.recycle_string(target);
            self.recycle_string(data);
            return Ok(None);
        }
        // Trim in place rather than `data.trim().to_string()`.
        data.truncate(data.trim_end().len());
        let lead = data.len() - data.trim_start().len();
        if lead > 0 {
            data.drain(..lead);
        }
        let data = fix_latin(data);
        Ok(Some(XmlEvent::ProcessingInstruction { target, data }))
    }

    /// Skip `<!DOCTYPE ...>`, including an internal subset `[...]`.
    fn skip_doctype(&mut self) -> Result<()> {
        for expected in b"DOCTYPE" {
            if self.bytes.next_or_eof()? != *expected {
                return Err(XmlError::syntax("malformed DOCTYPE", self.bytes.position));
            }
        }
        let mut depth = 0usize;
        loop {
            match self.bytes.next_or_eof()? {
                b'[' => depth += 1,
                b']' => depth = depth.saturating_sub(1),
                b'>' if depth == 0 => return Ok(()),
                _ => {}
            }
        }
    }
}

/// Bytes were pushed into `String`s as single chars (latin-1 style); re-pack
/// any bytes ≥ 0x80 back into proper UTF-8.
///
/// The parser reads byte-wise and stores each byte as a `char`; for ASCII
/// documents this is already correct, and for UTF-8 input the bytes ≥ 0x80
/// were widened to chars U+0080..U+00FF. This helper re-encodes them as the
/// original byte sequence and validates the result as UTF-8; invalid UTF-8 is
/// replaced (lossily) so the parser never fails on encoding alone.
fn fix_latin(s: String) -> String {
    if s.is_ascii() {
        return s;
    }
    let bytes: Vec<u8> = s
        .chars()
        .map(|c| {
            let v = c as u32;
            debug_assert!(v < 0x100, "parser only widens single bytes");
            v as u8
        })
        .collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

pub(super) fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
}

fn is_name_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b':' | b'-' | b'.')
}
