//! The spex-serve wire protocol: length-prefixed frames over TCP.
//!
//! Every frame is `kind (1 byte) · length (u32, big-endian) · payload
//! (length bytes)`. The kind bytes are printable ASCII so a session is
//! legible in a packet dump: uppercase kinds flow client → server,
//! lowercase kinds flow server → client.
//!
//! ```text
//! client → server                      server → client
//!   'R'  register "name=expr"            'k'  ok (ack, payload = name)
//!   'D'  data (XML bytes, any chunking)  'r'  result (name-len·name·fragment)
//!   'E'  end of session input            'f'  fault report (JSON)
//!   'S'  server stats request            's'  stats (JSON, one-shot schema)
//!   'T'  trace summary request           't'  trace summary (JSON)
//!   'Q'  graceful shutdown request       'e'  error (JSON: class/code/message)
//!   'M'  resume a durable session        'm'  resume accepted (replay offset)
//!                                        'b'  busy (admission reject)
//!                                        'n'  end of session
//! ```
//!
//! A `RESULT` payload is `name_len (u8) · name · fragment bytes`; the
//! fragment bytes include the trailing newline, so concatenating them for
//! one query reproduces the one-shot CLI's stdout byte for byte.

use std::io::{Read, Write};

/// Default cap on a single frame's payload (1 MiB). Streams of any size fit
/// by chunking `DATA` frames; the cap bounds per-frame buffering only.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Frame type tags. See the [module documentation](self) for the grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server: register a named query (`name=expr`).
    Register,
    /// Client → server: a chunk of the XML input stream.
    Data,
    /// Client → server: end of the session's input.
    End,
    /// Client → server: request a server-wide statistics snapshot.
    Stats,
    /// Client → server: request a server-wide trace summary (admission
    /// wait, session duration and determination-latency histograms).
    TraceRequest,
    /// Client → server: request a graceful server shutdown.
    Shutdown,
    /// Client → server: resume a durable session in place of registration.
    /// Payload: `version (u8) · token_len (u8) · token · nqueries (u32 BE)
    /// · nqueries × received (u64 BE)` — the per-query count of result
    /// fragments the client already holds, so the server can suppress
    /// replayed fragments.
    Resume,
    /// Server → client: acknowledgement (registration accepted, …).
    Ok,
    /// Server → client: a resume was accepted. Payload: the durable input
    /// byte count (u64 BE) — how many input bytes the server recovered and
    /// will replay internally; the client continues streaming from there.
    ResumeOk,
    /// Server → client: one result fragment of one query.
    Result,
    /// Server → client: one repaired input fault (recovery sessions only).
    Fault,
    /// Server → client: a statistics JSON document.
    Stat,
    /// Server → client: a trace summary JSON document (the answer to
    /// [`FrameKind::TraceRequest`]; see DESIGN.md §13 for the field shapes).
    Trace,
    /// Server → client: a structured error (JSON: class, code, message).
    Error,
    /// Server → client: admission control rejected the connection.
    Busy,
    /// Server → client: the session is complete.
    SessionEnd,
}

impl FrameKind {
    /// The wire tag.
    pub fn byte(self) -> u8 {
        match self {
            FrameKind::Register => b'R',
            FrameKind::Data => b'D',
            FrameKind::End => b'E',
            FrameKind::Stats => b'S',
            FrameKind::TraceRequest => b'T',
            FrameKind::Shutdown => b'Q',
            FrameKind::Resume => b'M',
            FrameKind::Ok => b'k',
            FrameKind::ResumeOk => b'm',
            FrameKind::Result => b'r',
            FrameKind::Fault => b'f',
            FrameKind::Stat => b's',
            FrameKind::Trace => b't',
            FrameKind::Error => b'e',
            FrameKind::Busy => b'b',
            FrameKind::SessionEnd => b'n',
        }
    }

    /// Decode a wire tag.
    pub fn from_byte(b: u8) -> Option<FrameKind> {
        Some(match b {
            b'R' => FrameKind::Register,
            b'D' => FrameKind::Data,
            b'E' => FrameKind::End,
            b'S' => FrameKind::Stats,
            b'T' => FrameKind::TraceRequest,
            b'Q' => FrameKind::Shutdown,
            b'M' => FrameKind::Resume,
            b'k' => FrameKind::Ok,
            b'm' => FrameKind::ResumeOk,
            b'r' => FrameKind::Result,
            b'f' => FrameKind::Fault,
            b's' => FrameKind::Stat,
            b't' => FrameKind::Trace,
            b'e' => FrameKind::Error,
            b'b' => FrameKind::Busy,
            b'n' => FrameKind::SessionEnd,
            _ => return None,
        })
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame type.
    pub kind: FrameKind,
    /// The payload bytes (may be empty).
    pub payload: Vec<u8>,
}

/// A violation of the frame grammar (as opposed to a transport error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The kind byte is not part of the protocol.
    UnknownKind(u8),
    /// The declared payload length exceeds the configured cap.
    Oversized {
        /// Declared payload length.
        len: usize,
        /// The configured cap.
        max: usize,
    },
    /// The stream ended in the middle of a frame.
    TruncatedFrame,
    /// A frame kind arrived in a phase where it is not allowed.
    UnexpectedKind(FrameKind),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::UnknownKind(b) => write!(f, "unknown frame kind byte 0x{b:02x}"),
            ProtocolError::Oversized { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            ProtocolError::TruncatedFrame => write!(f, "stream ended mid-frame"),
            ProtocolError::UnexpectedKind(k) => {
                write!(f, "frame kind '{}' not allowed here", k.byte() as char)
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// A frame-read failure: either the transport failed or the peer broke the
/// frame grammar.
#[derive(Debug)]
pub enum ReadError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The peer sent bytes violating the frame grammar.
    Protocol(ProtocolError),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "{e}"),
            ReadError::Protocol(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Read one frame. Returns `Ok(None)` on a clean end of stream (EOF at a
/// frame boundary); EOF inside a frame is
/// [`ProtocolError::TruncatedFrame`].
pub fn read_frame(r: &mut dyn Read, max_frame: usize) -> Result<Option<Frame>, ReadError> {
    let mut head = [0u8; 5];
    let mut filled = 0;
    while filled < head.len() {
        match r.read(&mut head[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(ReadError::Protocol(ProtocolError::TruncatedFrame));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
    let kind = FrameKind::from_byte(head[0])
        .ok_or(ReadError::Protocol(ProtocolError::UnknownKind(head[0])))?;
    let len = u32::from_be_bytes([head[1], head[2], head[3], head[4]]) as usize;
    if len > max_frame {
        return Err(ReadError::Protocol(ProtocolError::Oversized {
            len,
            max: max_frame,
        }));
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match r.read(&mut payload[filled..]) {
            Ok(0) => return Err(ReadError::Protocol(ProtocolError::TruncatedFrame)),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
    Ok(Some(Frame { kind, payload }))
}

/// An incremental frame decoder: feed bytes in arbitrary chunks, pull
/// complete frames out. This is the nonblocking twin of [`read_frame`] —
/// for every chunking of the same byte stream it yields the same frame
/// sequence and the same [`ProtocolError`] classes (property-tested in
/// `tests/reactor.rs`), but it never blocks mid-frame: with an incomplete
/// frame buffered, [`FrameDecoder::next_frame`] returns `Ok(None)` and the
/// caller resumes when more bytes arrive.
///
/// Errors are sticky: after an `UnknownKind` or `Oversized` violation the
/// stream has no recoverable framing, so every further `next` repeats the
/// error.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
    max_frame: usize,
    error: Option<ProtocolError>,
}

impl FrameDecoder {
    /// A decoder enforcing the given per-frame payload cap.
    pub fn new(max_frame: usize) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            pos: 0,
            max_frame,
            error: None,
        }
    }

    /// Append raw stream bytes (any chunking, including one byte at a
    /// time).
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact lazily: only when the consumed prefix dominates the
        // buffer, so steady-state decoding is amortized O(1) per byte.
        if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Decode the next complete frame. `Ok(None)` means more bytes are
    /// needed; grammar violations mirror [`read_frame`]'s error classes.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, ProtocolError> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        let avail = &self.buf[self.pos..];
        if avail.len() < 5 {
            return Ok(None);
        }
        let kind = match FrameKind::from_byte(avail[0]) {
            Some(k) => k,
            None => {
                let e = ProtocolError::UnknownKind(avail[0]);
                self.error = Some(e.clone());
                return Err(e);
            }
        };
        let len = u32::from_be_bytes([avail[1], avail[2], avail[3], avail[4]]) as usize;
        if len > self.max_frame {
            let e = ProtocolError::Oversized {
                len,
                max: self.max_frame,
            };
            self.error = Some(e.clone());
            return Err(e);
        }
        if avail.len() < 5 + len {
            return Ok(None);
        }
        let payload = avail[5..5 + len].to_vec();
        self.pos += 5 + len;
        Ok(Some(Frame { kind, payload }))
    }

    /// Whether undecoded bytes are buffered (a partially received frame).
    /// At end of stream this is exactly [`ProtocolError::TruncatedFrame`] —
    /// the same condition [`read_frame`] reports when EOF lands mid-frame.
    pub fn mid_frame(&self) -> bool {
        self.pos < self.buf.len()
    }

    /// Number of buffered, not-yet-decoded bytes.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Write one frame (header + payload; no flush).
pub fn write_frame(w: &mut dyn Write, kind: FrameKind, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame payload too large")
    })?;
    w.write_all(&[kind.byte()])?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)
}

/// Build a `RESULT` payload: `name_len (u8) · name · fragment`.
///
/// # Panics
/// Panics if `name` is longer than 255 bytes (registration rejects such
/// names, so a server-built payload can't hit this).
pub fn result_payload(name: &str, fragment: &[u8]) -> Vec<u8> {
    let n = u8::try_from(name.len()).expect("query names are at most 255 bytes");
    let mut out = Vec::with_capacity(1 + name.len() + fragment.len());
    out.push(n);
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(fragment);
    out
}

/// Split a `RESULT` payload into `(name, fragment)`.
pub fn split_result(payload: &[u8]) -> Option<(&str, &[u8])> {
    let (&n, rest) = payload.split_first()?;
    if rest.len() < n as usize {
        return None;
    }
    let (name, fragment) = rest.split_at(n as usize);
    Some((std::str::from_utf8(name).ok()?, fragment))
}

/// The resume-frame format version this build speaks. A server receiving a
/// different version answers with a `protocol` error naming both versions
/// (see PROTOCOL.md §Resume for the negotiation rules).
pub const RESUME_VERSION: u8 = 1;

/// Build a `RESUME` payload: `version (u8) · token_len (u8) · token ·
/// nqueries (u32 BE) · nqueries × received (u64 BE)`.
///
/// # Panics
/// Panics if `token` is longer than 255 bytes (durable tokens are at most
/// 64 bytes, so a client using server-issued tokens can't hit this).
pub fn resume_payload(token: &str, received: &[u64]) -> Vec<u8> {
    let n = u8::try_from(token.len()).expect("session tokens are at most 64 bytes");
    let mut out = Vec::with_capacity(2 + token.len() + 4 + 8 * received.len());
    out.push(RESUME_VERSION);
    out.push(n);
    out.extend_from_slice(token.as_bytes());
    out.extend_from_slice(&(received.len() as u32).to_be_bytes());
    for &r in received {
        out.extend_from_slice(&r.to_be_bytes());
    }
    out
}

/// Split a `RESUME` payload into `(version, token, received)`. Returns
/// `None` on any structural violation; an unsupported version is returned
/// (not rejected) so the server can answer with a versioned error.
pub fn split_resume(payload: &[u8]) -> Option<(u8, &str, Vec<u64>)> {
    let (&version, rest) = payload.split_first()?;
    let (&token_len, rest) = rest.split_first()?;
    if rest.len() < token_len as usize + 4 {
        return None;
    }
    let (token, rest) = rest.split_at(token_len as usize);
    let token = std::str::from_utf8(token).ok()?;
    let (count, mut rest) = rest.split_at(4);
    let count = u32::from_be_bytes(count.try_into().ok()?) as usize;
    if rest.len() != count * 8 {
        return None;
    }
    let mut received = Vec::with_capacity(count);
    for _ in 0..count {
        let (chunk, tail) = rest.split_at(8);
        received.push(u64::from_be_bytes(chunk.try_into().ok()?));
        rest = tail;
    }
    Some((version, token, received))
}

/// Build an `ERROR` payload: one line of JSON with the error class (matches
/// the CLI's exit-code classes: `usage`, `syntax`, `io`, `resource`, plus
/// `protocol` for frame-grammar violations), the numeric exit code the
/// one-shot CLI would have used, and a human-readable message.
pub fn error_payload(class: &str, code: i32, message: &str) -> Vec<u8> {
    format!(
        "{{\"class\":\"{}\",\"code\":{},\"message\":\"{}\"}}",
        spex_trace::escape_json(class),
        code,
        spex_trace::escape_json(message),
    )
    .into_bytes()
}

/// Extract the `class` field from an `ERROR` payload (tolerant line scan;
/// the workspace has no JSON parser dependency).
pub fn error_class(payload: &[u8]) -> Option<String> {
    let text = std::str::from_utf8(payload).ok()?;
    let rest = text.split("\"class\":\"").nth(1)?;
    Some(rest.split('"').next()?.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Register, b"q=a.b").unwrap();
        write_frame(&mut buf, FrameKind::Data, b"<a/>").unwrap();
        write_frame(&mut buf, FrameKind::End, b"").unwrap();
        let mut cur = std::io::Cursor::new(buf);
        let f1 = read_frame(&mut cur, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(f1.kind, FrameKind::Register);
        assert_eq!(f1.payload, b"q=a.b");
        let f2 = read_frame(&mut cur, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(f2.kind, FrameKind::Data);
        let f3 = read_frame(&mut cur, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(f3.kind, FrameKind::End);
        assert!(f3.payload.is_empty());
        assert!(read_frame(&mut cur, DEFAULT_MAX_FRAME).unwrap().is_none());
    }

    #[test]
    fn every_kind_byte_round_trips() {
        for kind in [
            FrameKind::Register,
            FrameKind::Data,
            FrameKind::End,
            FrameKind::Stats,
            FrameKind::TraceRequest,
            FrameKind::Shutdown,
            FrameKind::Resume,
            FrameKind::Ok,
            FrameKind::ResumeOk,
            FrameKind::Result,
            FrameKind::Fault,
            FrameKind::Stat,
            FrameKind::Trace,
            FrameKind::Error,
            FrameKind::Busy,
            FrameKind::SessionEnd,
        ] {
            assert_eq!(FrameKind::from_byte(kind.byte()), Some(kind));
        }
        assert_eq!(FrameKind::from_byte(b'?'), None);
    }

    #[test]
    fn oversized_frames_are_rejected_without_reading_the_payload() {
        let mut buf = Vec::new();
        buf.push(b'D');
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        let mut cur = std::io::Cursor::new(buf);
        match read_frame(&mut cur, 1024) {
            Err(ReadError::Protocol(ProtocolError::Oversized { len, max })) => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, 1024);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn unknown_kind_and_truncation_are_protocol_errors() {
        let mut cur = std::io::Cursor::new(vec![0xFFu8, 0, 0, 0, 0]);
        assert!(matches!(
            read_frame(&mut cur, 1024),
            Err(ReadError::Protocol(ProtocolError::UnknownKind(0xFF)))
        ));
        // Header cut short.
        let mut cur = std::io::Cursor::new(vec![b'D', 0, 0]);
        assert!(matches!(
            read_frame(&mut cur, 1024),
            Err(ReadError::Protocol(ProtocolError::TruncatedFrame))
        ));
        // Payload cut short.
        let mut cur = std::io::Cursor::new(vec![b'D', 0, 0, 0, 9, b'x']);
        assert!(matches!(
            read_frame(&mut cur, 1024),
            Err(ReadError::Protocol(ProtocolError::TruncatedFrame))
        ));
    }

    #[test]
    fn result_payload_round_trips() {
        let p = result_payload("cities", b"<city/>\n");
        let (name, frag) = split_result(&p).unwrap();
        assert_eq!(name, "cities");
        assert_eq!(frag, b"<city/>\n");
        assert!(split_result(&[]).is_none());
        assert!(split_result(&[200]).is_none());
    }

    #[test]
    fn resume_payload_round_trips() {
        let p = resume_payload("s3-99", &[7, 0, 12]);
        let (version, token, received) = split_resume(&p).unwrap();
        assert_eq!(version, RESUME_VERSION);
        assert_eq!(token, "s3-99");
        assert_eq!(received, vec![7, 0, 12]);
        // Structural violations are None, not panics.
        assert!(split_resume(&[]).is_none());
        assert!(split_resume(&[1]).is_none());
        assert!(split_resume(&[1, 200, b'x']).is_none());
        let mut short = resume_payload("t", &[1, 2]);
        short.truncate(short.len() - 3);
        assert!(split_resume(&short).is_none());
    }

    #[test]
    fn error_payload_is_scannable() {
        let p = error_payload("syntax", 2, "bad \"query\"");
        assert_eq!(error_class(&p).as_deref(), Some("syntax"));
        let text = String::from_utf8(p).unwrap();
        assert!(text.contains("\"code\":2"));
        assert!(text.contains("\\\"query\\\""));
    }
}
