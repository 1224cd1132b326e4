//! The slice parsers: the structural fast path ([`ScannerKind::Fast`]) and
//! the byte-at-a-time classic state machine, both over the bytes already
//! buffered in [`super::framing::Buffer`].
//!
//! Both write each event straight into the caller's [`EventStore`]. Nothing
//! here waits for input. A classic parser that runs off the buffer sees end
//! of input (`None`); the poll loop in [`super`] decides afterwards whether
//! that was the real end or the attempt must be rolled back.

use super::framing::Scan;
use super::{Parser, ScannerKind, State};
use crate::error::{Position, Result, XmlError};
use crate::escape::unescape_lossy;
use crate::recover::{FaultAction, FaultKind, RecoveryPolicy};
use crate::scan::{memchr, memchr3_or_non_ascii};
use crate::store::{EventId, EventStore};
use std::borrow::Cow;
use std::ops::Range;

/// Byte spans of one attribute (name, value) of the open tag in flight:
/// into the buffered chunk on the fast path, into the parser's scratch
/// bytes on the classic one.
pub(super) type AttrSpan = (Range<usize>, Range<usize>);

/// View bytes already proven UTF-8 as `&str`: ASCII by the fast path's
/// sweep ([`memchr3_or_non_ascii`]), or repaired by the classic parser's
/// `finish_piece`. The fallback value is unreachable and exists only to
/// keep the function total without `unwrap`.
fn utf8(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).unwrap_or_default()
}

impl Parser {
    /// Push a start tag's event — `name` and the `attrs` spans index the
    /// buffered chunk (`in_chunk`, the fast path) or `scratch` — and open
    /// its element. Nothing enters the open-element stack for an `<a/>`:
    /// its close is queued, for the next pull. The start event is delivered
    /// right after this, so its tick is the current `emitted` index.
    fn open_element(
        &mut self,
        store: &mut EventStore,
        name: Range<usize>,
        self_closing: bool,
        in_chunk: bool,
    ) -> EventId {
        let bytes = if in_chunk {
            self.bytes.rest()
        } else {
            &self.scratch
        };
        let name = utf8(&bytes[name]);
        let attrs = self
            .attrs
            .iter()
            .map(|(name, value)| (utf8(&bytes[name.clone()]), utf8(&bytes[value.clone()])));
        let id = store.push_start(name, attrs);
        if self_closing {
            self.closes.elements.push(name);
        } else {
            self.stack.push(name);
            self.open_ticks.push(self.emitted);
        }
        id
    }

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
        if self.scanner != ScannerKind::Fast || self.skim.is_some() || !self.closes.is_empty() {
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
    /// verbatim (entity decoding and the UTF-8 repair are both no-ops on
    /// this shape).
    fn fast_text(&mut self, store: &mut EventStore) -> Option<EventId> {
        let chunk = self.bytes.rest();
        // A `&` hit is an entity reference (classic decode-and-fault path);
        // a non-ASCII hit is UTF-8 text (classic UTF-8 repair path).
        let Some(stop) = memchr3_or_non_ascii(b'<', b'&', b'&', chunk) else {
            let n = chunk.len();
            self.bytes.examine(n);
            return self.incomplete();
        };
        if chunk[stop] != b'<' {
            self.bytes.examine(stop);
            return None;
        }
        let id = store.push_text(utf8(&chunk[..stop]));
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
        let id = store.push_end(utf8(name));
        self.stack.pop();
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
    /// straight out of the input buffer.
    ///
    /// A `>` inside a quoted attribute value makes the candidate fail
    /// validation (the quote never closes before the first `>`), so it falls
    /// back rather than mis-parsing.
    fn fast_open_tag(&mut self, store: &mut EventStore) -> Option<EventId> {
        self.attrs.clear();
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
            self.attrs.push((name_lo..attr_name_hi, value_lo..value_hi));
        }
        let id = self.open_element(store, 1..name_hi, self_closing, true);
        // The sweep and the attribute walk each passed over the tag once
        // before it is consumed.
        self.bytes.examine(gt + 1);
        self.bytes.consume_bulk(gt + 1);
        Some(id)
    }

    // ----- the classic state machine -----
    //
    // A construct's bytes collect in `scratch` (cleared by the poll loop
    // before each attempt) and become an event in the store only once the
    // construct is complete.

    /// Handle one construct of the prolog, the root element's content or
    /// the epilog. `Ok(None)` means it produced no event of its own:
    /// whitespace, an XML declaration or DOCTYPE, a repaired close tag
    /// (which queues its closes instead), or the end of the document (the
    /// state is then `Done` or `Boundary`).
    pub(super) fn construct_event(&mut self, store: &mut EventStore) -> Result<Option<EventId>> {
        let state = self.state;
        let trailing = |p: &Self| XmlError::TrailingContent {
            position: p.bytes.position,
        };
        if state != State::Content && !self.lt_consumed {
            self.skip_whitespace();
        }
        // Multi-document mode: the previous document's epilog consumed this
        // root's `<` already.
        if !std::mem::take(&mut self.lt_consumed) {
            match (self.bytes.peek(), state) {
                (Some(b'<'), _) => {
                    self.bytes.next();
                }
                (None, State::Prolog) => return Err(XmlError::EmptyDocument),
                (None, State::Content) => return Err(self.unexpected_eof()),
                (None, _) => {
                    self.state = State::Done;
                    return Ok(None);
                }
                (Some(_), State::Prolog) => {
                    return Err(XmlError::syntax(
                        "character data before the root element",
                        self.bytes.position,
                    ))
                }
                (Some(_), State::Content) => {
                    let text = self.parse_text()?;
                    return Ok(Some(store.push_text(utf8(&self.scratch[text]))));
                }
                (Some(_), _) => return Err(trailing(self)),
            }
        }
        match (self.bytes.peek(), state) {
            (Some(b'?'), _) => {
                self.bytes.next();
                match self.parse_pi(store)? {
                    // The XML declaration is only legal at the very start.
                    None if state == State::Content => Err(XmlError::syntax(
                        "XML declaration inside the document",
                        self.bytes.position,
                    )),
                    pi => Ok(pi),
                }
            }
            (Some(b'!'), _) => {
                self.bytes.next();
                match (self.bytes.peek(), state) {
                    (Some(b'-'), _) => self.parse_comment(store).map(Some),
                    (Some(b'['), State::Content) => {
                        let text = self.parse_cdata()?;
                        Ok(Some(store.push_text(utf8(&self.scratch[text]))))
                    }
                    (Some(b'D'), State::Prolog) => self.skip_doctype().map(|()| None),
                    (Some(b'D'), State::Epilog) if self.multi => {
                        // DOCTYPE of the *next* document.
                        self.skip_doctype()?;
                        self.state = State::Boundary;
                        Ok(None)
                    }
                    (_, State::Prolog) => Err(XmlError::syntax(
                        "unexpected `<!` construct in prolog",
                        self.bytes.position,
                    )),
                    (_, State::Content) => Err(XmlError::syntax(
                        "unexpected `<!` construct in content",
                        self.bytes.position,
                    )),
                    _ => Err(trailing(self)),
                }
            }
            (Some(b'/'), State::Content) => {
                self.bytes.next();
                self.parse_close_tag()
            }
            (Some(b'/'), State::Prolog) => Err(XmlError::syntax(
                "close tag before any element was opened",
                self.bytes.position,
            )),
            (Some(b), State::Epilog) if self.multi && is_name_start(b) => {
                // A new root element: document boundary. The next prolog
                // continues right after the `<`.
                self.state = State::Boundary;
                self.lt_consumed = true;
                Ok(None)
            }
            (_, State::Epilog) => Err(trailing(self)),
            (_, State::Content) => self.parse_open_tag(store).map(Some),
            _ => {
                self.root_open_tick = self.emitted;
                let id = self.parse_open_tag(store)?;
                // A self-closing root (`<a/>`) leaves the stack empty: go
                // straight to the epilog once its close is delivered.
                self.state = if self.stack.is_empty() {
                    State::Epilog
                } else {
                    State::Content
                };
                Ok(Some(id))
            }
        }
    }

    fn skip_whitespace(&mut self) {
        self.bytes.skip_while(|b| b.is_ascii_whitespace());
    }

    /// Turn the raw bytes `scratch[lo..]` into the piece's text in place:
    /// invalid UTF-8 becomes U+FFFD and, for text and attribute values
    /// (`refs` says where the raw bytes start in the input, and where a
    /// repair reports them), entity references are decoded — under a repair
    /// policy an undecodable one becomes U+FFFD and a
    /// [`FaultKind::BadEntity`] fault. Returns the piece's range.
    fn finish_piece(
        &mut self,
        lo: usize,
        refs: Option<(Position, Position)>,
    ) -> Result<Range<usize>> {
        let raw = &self.scratch[lo..];
        let text = String::from_utf8_lossy(raw);
        // Replacements made, and the first bad reference: its text and how
        // many `&` precede it.
        let (mut replaced, mut first_bad) = (0, None);
        let fixed = match refs {
            // No reference, no work: the dominant path, and no copy.
            Some(_) if text.contains('&') => Some(unescape_lossy(&text, |amp, entity| {
                replaced += 1;
                first_bad
                    .get_or_insert_with(|| (text[..amp].matches('&').count(), entity.to_string()));
            })),
            _ => match text {
                Cow::Owned(fixed) => Some(fixed),
                Cow::Borrowed(_) => None,
            },
        };
        if let (Some((at, fault_at)), Some((nth, entity))) = (refs, first_bad) {
            if self.policy == RecoveryPolicy::Strict {
                // The UTF-8 repair keeps ASCII bytes in order, so the bad
                // reference's `&` is the `nth` one in `raw` too.
                let amp = (0..raw.len()).filter(|&i| raw[i] == b'&').nth(nth);
                let mut position = at;
                position.advance_bulk(&raw[..amp.unwrap_or(0)]);
                return Err(XmlError::BadEntity { entity, position });
            }
            self.record_fault(
                FaultKind::BadEntity,
                fault_at,
                FaultAction::Replaced,
                format!("replaced {replaced} undecodable entity reference(s)"),
                self.emitted,
                self.emitted,
            );
        }
        if let Some(fixed) = fixed {
            self.scratch.truncate(lo);
            self.scratch.extend_from_slice(fixed.as_bytes());
        }
        Ok(lo..self.scratch.len())
    }

    /// Parse a name (element or attribute) into `scratch`. The first byte
    /// must already be valid; subsequent bytes follow the
    /// (ASCII-approximated) NameChar rules. Non-ASCII bytes are accepted
    /// verbatim so UTF-8 names pass through.
    fn parse_name(&mut self) -> Result<Range<usize>> {
        let start = self.bytes.position;
        match self.bytes.peek() {
            Some(b) if is_name_start(b) => {}
            _ => return Err(XmlError::syntax("expected a name", start)),
        }
        let lo = self.scratch.len();
        // `b >= 0x80` passes through UTF-8 continuation/start bytes.
        self.bytes
            .scan_into(&mut self.scratch, |b| is_name_char(b) || b >= 0x80);
        self.finish_piece(lo, None)
    }

    fn parse_open_tag(&mut self, store: &mut EventStore) -> Result<EventId> {
        let name = self.parse_name()?;
        self.attrs.clear();
        let self_closing = loop {
            self.skip_whitespace();
            match self.bytes.peek() {
                Some(b'>') => {
                    self.bytes.next();
                    break false;
                }
                Some(b'/') => {
                    self.bytes.next();
                    if self.bytes.next_or_eof()? != b'>' {
                        return Err(XmlError::syntax(
                            "expected `>` after `/` in empty-element tag",
                            self.bytes.position,
                        ));
                    }
                    break true;
                }
                Some(b) if is_name_start(b) => {
                    let attr_name = self.parse_name()?;
                    self.skip_whitespace();
                    if self.bytes.next_or_eof()? != b'=' {
                        return Err(XmlError::syntax(
                            format!(
                                "expected `=` after attribute name `{}`",
                                utf8(&self.scratch[attr_name])
                            ),
                            self.bytes.position,
                        ));
                    }
                    self.skip_whitespace();
                    let value = self.parse_attr_value()?;
                    self.attrs.push((attr_name, value));
                }
                Some(_) => {
                    return Err(XmlError::syntax(
                        "unexpected character in start tag",
                        self.bytes.position,
                    ))
                }
                None => {
                    return Err(XmlError::UnexpectedEof {
                        open_element: Some(utf8(&self.scratch[name]).to_string()),
                        position: self.bytes.position,
                    })
                }
            }
        };
        Ok(self.open_element(store, name, self_closing, false))
    }

    fn parse_attr_value(&mut self) -> Result<Range<usize>> {
        let start = self.bytes.position;
        let quote = self.bytes.next_or_eof()?;
        if quote != b'"' && quote != b'\'' {
            return Err(XmlError::syntax("attribute value must be quoted", start));
        }
        let value_at = self.bytes.position;
        let lo = self.scratch.len();
        match self
            .bytes
            .scan_into(&mut self.scratch, |b| b != quote && b != b'<')
        {
            Scan::Stopped => {
                if self.bytes.next() != Some(quote) {
                    return Err(XmlError::syntax(
                        "`<` in attribute value",
                        self.bytes.position,
                    ));
                }
            }
            Scan::Eof => return Err(self.unexpected_eof()),
        }
        self.finish_piece(lo, Some((value_at, start)))
    }

    /// Parse a close tag (`</` already consumed) and queue its close. Under
    /// a repair policy a mismatched close first auto-closes the intervening
    /// open elements and a stray close is dropped, each with a recorded
    /// [`crate::Fault`].
    fn parse_close_tag(&mut self) -> Result<Option<EventId>> {
        let pos = self.bytes.position;
        let name = self.parse_name()?;
        self.skip_whitespace();
        if self.bytes.next_or_eof()? != b'>' {
            return Err(XmlError::syntax(
                "expected `>` in close tag",
                self.bytes.position,
            ));
        }
        let name = utf8(&self.scratch[name]);
        let Some(open) = self.stack.last() else {
            return Err(XmlError::syntax("close tag without open element", pos));
        };
        if open != name && self.policy == RecoveryPolicy::Strict {
            return Err(XmlError::MismatchedTag {
                expected: open.to_string(),
                found: name.to_string(),
                position: pos,
            });
        }
        let Some(idx) = (0..self.stack.len()).rfind(|&i| self.stack.get(i) == name) else {
            // Stray close: no such element is open. Conservatively taint
            // everything since the innermost open element's start (a
            // duplicated close may have silently closed a same-named
            // ancestor earlier).
            let detail = format!("dropped stray close tag </{name}>");
            let damage_from = self.open_ticks.last().copied().unwrap_or(0);
            let to = self.emitted;
            self.record_fault(
                FaultKind::StrayClose,
                pos,
                FaultAction::Dropped,
                detail,
                damage_from,
                to,
            );
            return Ok(None);
        };
        // The close is queued, after the auto-closes of a mismatched close:
        // everything above the matching open. Their damage interval starts
        // at the outermost auto-closed element's open: every event since
        // then may sit at the wrong depth.
        let auto = self.stack.len() - idx - 1;
        if auto > 0 {
            let detail = format!("auto-closed {auto} open element(s) at </{name}>");
            let damage_from = self.open_ticks[idx + 1];
            let to = self.emitted + auto as u64;
            self.record_fault(
                FaultKind::MismatchedClose,
                pos,
                FaultAction::AutoClosed,
                detail,
                damage_from,
                to,
            );
        }
        while self.stack.len() > idx {
            self.close_innermost();
        }
        if self.stack.is_empty() {
            self.state = State::Epilog;
        }
        Ok(None)
    }

    /// Parse raw character data up to the next `<` (or the end of input)
    /// into `scratch`, decoding entities.
    fn parse_text(&mut self) -> Result<Range<usize>> {
        let start = self.bytes.position;
        let lo = self.scratch.len();
        self.bytes.scan_into(&mut self.scratch, |b| b != b'<');
        self.finish_piece(lo, Some((start, start)))
    }

    /// The `UnexpectedEof` raised in content, an attribute value, a comment,
    /// CDATA section or PI.
    fn unexpected_eof(&self) -> XmlError {
        XmlError::UnexpectedEof {
            open_element: self.stack.last().map(str::to_string),
            position: self.bytes.position,
        }
    }

    /// Collect the raw bytes of a comment, CDATA section or PI into
    /// `scratch`: up to a `>` after a run of at least `n` `term`s (`-->`,
    /// `]]>`, `?>`), whose last `n` end the construct.
    fn scan_until(&mut self, term: u8, n: usize) -> Result<()> {
        let mut run = 0usize;
        loop {
            match self.bytes.next() {
                None => return Err(self.unexpected_eof()),
                Some(b) if b == term => run += 1,
                Some(b'>') if run >= n => {
                    self.scratch.resize(self.scratch.len() + run - n, term);
                    return Ok(());
                }
                Some(b) => {
                    self.scratch.resize(self.scratch.len() + run, term);
                    run = 0;
                    self.scratch.push(b);
                }
            }
        }
    }

    /// Parse a comment; the leading `<!` is already consumed and `-` peeked.
    fn parse_comment(&mut self, store: &mut EventStore) -> Result<EventId> {
        let pos = self.bytes.position;
        for _ in 0..2 {
            if self.bytes.next_or_eof()? != b'-' {
                return Err(XmlError::syntax("malformed comment opener", pos));
            }
        }
        self.scan_until(b'-', 2)?;
        let comment = self.finish_piece(0, None)?;
        Ok(store.push_comment(utf8(&self.scratch[comment])))
    }

    /// Parse `<![CDATA[ ... ]]>` into `scratch`; `<!` consumed, `[` peeked.
    fn parse_cdata(&mut self) -> Result<Range<usize>> {
        let pos = self.bytes.position;
        for expected in b"[CDATA[" {
            if self.bytes.next_or_eof()? != *expected {
                return Err(XmlError::syntax("malformed CDATA opener", pos));
            }
        }
        self.scan_until(b']', 2)?;
        self.finish_piece(0, None)
    }

    /// Parse a processing instruction; `<?` already consumed. Returns `None`
    /// for the XML declaration (`<?xml ...?>`), which is consumed silently.
    fn parse_pi(&mut self, store: &mut EventStore) -> Result<Option<EventId>> {
        let target = self.parse_name()?;
        self.scan_until(b'?', 1)?;
        if utf8(&self.scratch[target.clone()]).eq_ignore_ascii_case("xml") {
            return Ok(None);
        }
        // Trim the data. Bytes that are whitespace as latin-1 characters
        // (U+0085 and U+00A0 too) are trimmed, as before UTF-8 decoding.
        let space = |b: &u8| char::from(*b).is_whitespace();
        let data = &self.scratch[target.end..];
        let end = target.end + data.iter().rposition(|b| !space(b)).map_or(0, |i| i + 1);
        let lead = self.scratch[target.end..end]
            .iter()
            .take_while(|b| space(b))
            .count();
        self.scratch.truncate(end);
        self.scratch.drain(target.end..target.end + lead);
        let data = self.finish_piece(target.end, None)?;
        Ok(Some(store.push_pi(
            utf8(&self.scratch[target]),
            utf8(&self.scratch[data]),
        )))
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

pub(super) fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
}

fn is_name_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b':' | b'-' | b'.')
}
