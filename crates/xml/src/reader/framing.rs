//! Layer zero of the push parser: the owned byte buffer, the state of the
//! input behind it, and the one piece of code that decides where an XML
//! construct ends before it is parsed (the *finder*).
//!
//! The slice parsers in [`super::parse`] read through [`Buffer::peek`] /
//! [`Buffer::next`] and never wait: running off the buffered bytes sets
//! [`Buffer::hit_end`], and the poll loop then either rolls the attempt
//! back and reports "need more" (input still open) or lets the end-of-input
//! outcome stand. The finder exists so that an incomplete construct is
//! *not* re-parsed on every feed: after one failed attempt it remembers how
//! far it has looked ([`Buffer::find_end`]'s `scan` memo) and examines each
//! later byte exactly once, whatever the chunking.

use crate::error::{Position, Result, XmlError};
use crate::scan::memchr;

/// Minimum buffer allocation, and the read size [`Buffer::spare`] aims for.
pub(super) const BUF_SIZE: usize = 8 * 1024;

/// What is known about the bytes that have not arrived yet.
#[derive(Debug)]
pub(super) enum Input {
    /// More bytes may be fed.
    Open,
    /// The stream ended cleanly; running off the buffer is end of input.
    Ended,
    /// The transport failed; running off the buffer is this I/O error.
    Failed(String),
}

/// Outcome of a bulk scan: did it stop at a byte, or run off the buffer?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Scan {
    /// A byte failing the predicate was reached (and not consumed).
    Stopped,
    /// Every buffered byte was consumed.
    Eof,
}

/// The grammar position a construct starts in: decides whether leading
/// whitespace belongs to it and which `<!…` forms exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Context {
    /// Before the root element; `lt_consumed` when the boundary detection
    /// of the previous document already consumed the `<`.
    Prolog { lt_consumed: bool },
    /// Inside the root element.
    Content,
    /// After the root element; `multi` when a new root may follow.
    Epilog { multi: bool },
}

/// Resumable quote-aware scan for the `>` that ends a tag.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct TagScan {
    /// The open attribute quote, or 0 outside a quoted value.
    quote: u8,
    /// The byte before the one scanned last (`/` right before `>` marks an
    /// empty-element tag).
    pub(super) prev: u8,
}

impl TagScan {
    /// Index just past the `>` outside quotes that ends the tag — or, with
    /// `stop_at_lt`, just past the first `<` (which no tag may contain, so
    /// the parser needs nothing beyond it to reject the tag).
    pub(super) fn end(&mut self, bytes: &[u8], stop_at_lt: bool) -> Option<usize> {
        for (i, &b) in bytes.iter().enumerate() {
            if self.quote != 0 {
                if b == self.quote {
                    self.quote = 0;
                }
            } else if b == b'"' || b == b'\'' {
                self.quote = b;
            } else if b == b'>' {
                return Some(i + 1);
            }
            if stop_at_lt && b == b'<' {
                return Some(i + 1);
            }
            self.prev = b;
        }
        None
    }
}

/// Resumable search for `term`: index just past its first occurrence in
/// `bytes`, with `matched` carrying a partial match across calls.
///
/// The terminators used (`-->`, `]]>`, `?>`, `>`) all have prefixes made of
/// one repeated character, so staying at full prefix length on a repeat
/// (`--->`) is exact.
pub(super) fn terminator_end(term: &[u8], matched: &mut usize, bytes: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < bytes.len() {
        if *matched == 0 {
            i += memchr(term[0], &bytes[i..])?;
        }
        let b = bytes[i];
        i += 1;
        if b == term[*matched] {
            *matched += 1;
            if *matched == term.len() {
                return Some(i);
            }
        } else if *matched > 0 && b == term[0] && term[*matched - 1] == b {
            // e.g. `-->` over `--->`: stay matched.
        } else {
            *matched = usize::from(b == term[0]);
        }
    }
    None
}

/// The finder's memo: what kind of construct starts at `pos`, as far as the
/// bytes seen so far tell.
#[derive(Debug, Clone, Copy)]
enum Find {
    /// Nothing is known: the parser has not attempted this construct yet.
    Unknown,
    /// Still classifying (leading whitespace before `scan` is skipped).
    Head,
    /// Character data: complete once a `<` follows.
    Text,
    /// An open or close tag.
    Tag(TagScan),
    /// A comment, CDATA section or processing instruction body.
    Until { term: &'static [u8], matched: usize },
    /// A DOCTYPE declaration, by internal-subset bracket depth.
    Doctype { depth: usize },
    /// Every byte the parser needs is buffered.
    Complete,
}

const fn until(term: &'static [u8]) -> Find {
    Find::Until { term, matched: 0 }
}

/// Compare the buffered bytes against a fixed opener (`--`, `[CDATA[`,
/// `DOCTYPE`): a mismatch lets the parser reject at once, a proper prefix
/// needs more, a match starts `body` right after it.
fn opener(have: &[u8], want: &[u8], body: Find, offset: usize) -> Option<(Find, usize)> {
    let n = have.len().min(want.len());
    if have[..n] != want[..n] {
        Some((Find::Complete, 0))
    } else if n < want.len() {
        None
    } else {
        Some((body, offset + want.len()))
    }
}

/// Classify the construct starting at `b[0]` (the first byte after any
/// whitespace the context allows): what to look for, starting how many
/// bytes in — [`Find::Complete`] when the parser can decide (or reject)
/// with what is buffered, `None` when there are too few bytes to tell.
fn head(b: &[u8], ctx: Context) -> Option<(Find, usize)> {
    let (body, lt) = if ctx == (Context::Prolog { lt_consumed: true }) {
        (b, 0)
    } else {
        match *b.first()? {
            b'<' => (&b[1..], 1),
            _ if ctx == Context::Content => return Some((Find::Text, 1)),
            // Character data outside the root element: an error either way.
            _ => return Some((Find::Complete, 0)),
        }
    };
    Some(match (*body.first()?, ctx) {
        (b'?', _) => (until(b"?>"), lt + 1),
        (b'!', _) => match (*body.get(1)?, ctx) {
            (b'-', _) => return opener(&body[1..], b"--", until(b"-->"), lt + 1),
            (b'[', Context::Content) => {
                return opener(&body[1..], b"[CDATA[", until(b"]]>"), lt + 1)
            }
            (b'D', Context::Prolog { .. } | Context::Epilog { multi: true }) => {
                return opener(&body[1..], b"DOCTYPE", Find::Doctype { depth: 0 }, lt + 1)
            }
            _ => (Find::Complete, 0),
        },
        // After the root, a document boundary or trailing content; before
        // it, a close tag with nothing open: decided by this one byte.
        (_, Context::Epilog { .. }) | (b'/', Context::Prolog { .. }) => (Find::Complete, 0),
        _ => (Find::Tag(TagScan::default()), lt),
    })
}

/// The parser's byte buffer: owned storage, the unconsumed window
/// `buf[pos..len]`, position tracking, the input state and the finder memo.
#[derive(Debug)]
pub(super) struct Buffer {
    /// Initialized storage; bytes past `len` are spare capacity.
    buf: Vec<u8>,
    pos: usize,
    len: usize,
    pub(super) position: Position,
    pub(super) input: Input,
    /// A read ran off the buffered bytes since [`Buffer::begin`].
    hit_end: bool,
    find: Find,
    /// Finder memo: every byte of `buf[pos..scan]` has been examined.
    scan: usize,
    /// Bytes examined by the finder, the fast path and the slice parsers.
    #[cfg(test)]
    pub(super) examined: u64,
    /// Times the storage was reallocated.
    #[cfg(test)]
    pub(super) grows: u64,
}

impl Buffer {
    pub(super) fn new() -> Self {
        Buffer {
            buf: Vec::new(),
            pos: 0,
            len: 0,
            position: Position::start(),
            input: Input::Open,
            hit_end: false,
            find: Find::Unknown,
            scan: 0,
            #[cfg(test)]
            examined: 0,
            #[cfg(test)]
            grows: 0,
        }
    }

    /// Count `n` bytes as examined (test builds only; see the drip-cost
    /// test).
    #[inline]
    pub(super) fn examine(&mut self, _n: usize) {
        #[cfg(test)]
        {
            self.examined += _n as u64;
        }
    }

    // ----- input side -----

    /// Make `need` bytes of spare capacity after `len`: slide the
    /// unconsumed window to the front, then double the storage.
    fn make_room(&mut self, need: usize) {
        if self.buf.len() - self.len >= need {
            return;
        }
        if self.pos > 0 {
            self.buf.copy_within(self.pos..self.len, 0);
            self.len -= self.pos;
            self.scan = self.scan.saturating_sub(self.pos);
            self.pos = 0;
        }
        if self.buf.len() - self.len < need {
            let size = (self.len + need).max(self.buf.len() * 2).max(BUF_SIZE);
            self.buf.resize(size, 0);
            #[cfg(test)]
            {
                self.grows += 1;
            }
        }
    }

    pub(super) fn feed(&mut self, bytes: &[u8]) {
        self.make_room(bytes.len());
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    /// Spare capacity for a reader to fill in place; follow with
    /// [`Buffer::commit`].
    pub(super) fn spare(&mut self) -> &mut [u8] {
        self.make_room(BUF_SIZE / 2);
        &mut self.buf[self.len..]
    }

    /// Accept the first `n` bytes written into [`Buffer::spare`].
    pub(super) fn commit(&mut self, n: usize) {
        self.len = (self.len + n).min(self.buf.len());
    }

    // ----- parser side -----

    /// The unconsumed buffered bytes.
    pub(super) fn rest(&self) -> &[u8] {
        &self.buf[self.pos..self.len]
    }

    /// Start an attempt at the construct at `pos`; returns the rollback
    /// point.
    pub(super) fn begin(&mut self) -> (usize, Position) {
        self.hit_end = false;
        (self.pos, self.position)
    }

    /// Undo everything consumed since the matching [`Buffer::begin`].
    pub(super) fn rollback(&mut self, (pos, position): (usize, Position)) {
        self.pos = pos;
        self.position = position;
    }

    /// Did the attempt since [`Buffer::begin`] run off the buffered bytes?
    pub(super) fn hit_end(&self) -> bool {
        self.hit_end
    }

    /// The construct at the old `pos` is consumed: forget the finder memo.
    pub(super) fn construct_done(&mut self) {
        self.find = Find::Unknown;
        self.scan = self.pos;
    }

    pub(super) fn peek(&mut self) -> Option<u8> {
        let b = self.rest().first().copied();
        if b.is_none() {
            self.hit_end = true;
        }
        b
    }

    pub(super) fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        self.position.advance(b);
        self.examine(1);
        Some(b)
    }

    /// Consume the next byte, failing with `UnexpectedEof` at the end.
    pub(super) fn next_or_eof(&mut self) -> Result<u8> {
        self.next().ok_or(XmlError::UnexpectedEof {
            open_element: None,
            position: self.position,
        })
    }

    /// Consume `n` buffered bytes at once, updating the position exactly as
    /// `n` calls to [`Buffer::next`] would. The caller guarantees
    /// `n <= rest().len()`.
    pub(super) fn consume_bulk(&mut self, n: usize) {
        let end = self.pos + n;
        self.position.advance_bulk(&self.buf[self.pos..end]);
        self.pos = end;
        self.examine(n);
    }

    /// Consume bytes while `pred` holds.
    pub(super) fn skip_while(&mut self, pred: impl Fn(u8) -> bool) -> Scan {
        let rest = self.rest();
        let take = rest.iter().position(|&b| !pred(b)).unwrap_or(rest.len());
        self.consume_bulk(take);
        if self.pos < self.len {
            Scan::Stopped
        } else {
            self.hit_end = true;
            Scan::Eof
        }
    }

    /// [`Buffer::skip_while`], appending the consumed bytes to `out`.
    pub(super) fn scan_into(&mut self, out: &mut Vec<u8>, pred: impl Fn(u8) -> bool) -> Scan {
        let from = self.pos;
        let scan = self.skip_while(pred);
        out.extend_from_slice(&self.buf[from..self.pos]);
        scan
    }

    // ----- the finder -----

    /// May the parser attempt the construct at `pos`? `true` when nothing
    /// is known yet (the attempt itself will tell), when the input is
    /// closed (running off the buffer is then end of input), or when the
    /// construct's end is buffered; `false` while a construct already found
    /// incomplete still is, after examining only the bytes that arrived
    /// since the last call.
    pub(super) fn find_end(&mut self, ctx: Context) -> bool {
        if matches!(self.find, Find::Unknown) || !matches!(self.input, Input::Open) {
            return true;
        }
        let from = self.scan;
        let complete = self.advance_find(ctx);
        self.examine(self.scan - from);
        complete
    }

    /// An attempt just ran off the buffer: start tracking this construct so
    /// the next attempt waits for its end.
    pub(super) fn start_find(&mut self, ctx: Context) {
        if matches!(self.find, Find::Unknown) {
            self.find = Find::Head;
            self.scan = self.pos;
        }
        self.find_end(ctx);
    }

    fn advance_find(&mut self, ctx: Context) -> bool {
        let bytes = &self.buf[..self.len];
        loop {
            let fresh = &bytes[self.scan..];
            let end = match &mut self.find {
                Find::Unknown | Find::Complete => return true,
                Find::Head => {
                    if !matches!(
                        ctx,
                        Context::Content | Context::Prolog { lt_consumed: true }
                    ) {
                        self.scan += fresh
                            .iter()
                            .position(|b| !b.is_ascii_whitespace())
                            .unwrap_or(fresh.len());
                    }
                    let Some((find, offset)) = head(&bytes[self.scan..], ctx) else {
                        return false;
                    };
                    self.find = find;
                    self.scan += offset;
                    continue;
                }
                Find::Text => memchr(b'<', fresh),
                Find::Tag(tag) => tag.end(fresh, true),
                Find::Until { term, matched } => terminator_end(term, matched, fresh),
                Find::Doctype { depth } => fresh.iter().position(|&b| {
                    match b {
                        b'[' => *depth += 1,
                        b']' => *depth = depth.saturating_sub(1),
                        _ => {}
                    }
                    b == b'>' && *depth == 0
                }),
            };
            return match end {
                Some(n) => {
                    self.scan += n;
                    self.find = Find::Complete;
                    true
                }
                None => {
                    self.scan = self.len;
                    false
                }
            };
        }
    }
}
