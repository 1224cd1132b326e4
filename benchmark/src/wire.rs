//! The serve wire protocol as a client sees it (crates/server/PROTOCOL.md
//! §1–2, frozen): `kind (1 B) · length (u32 BE) · payload`. Written from the
//! specification, not linked from `spex-serve`, so the end-to-end half of
//! the benchmark pins the protocol and nothing else.

use std::io::{self, BufReader, Read};

/// Append one frame to `out`.
pub fn put_frame(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
}

/// One frame as bytes.
pub fn frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + payload.len());
    put_frame(&mut out, kind, payload);
    out
}

/// `xml` cut into `D` frames of at most `chunk` payload bytes, back to back.
/// Returns the framed bytes and, per frame, the XML offset its payload ends at.
pub fn data_frames(xml: &[u8], chunk: usize) -> (Vec<u8>, Vec<usize>) {
    let mut framed = Vec::with_capacity(xml.len() + 5 * (xml.len() / chunk + 1));
    let mut ends = Vec::new();
    let mut offset = 0;
    for piece in xml.chunks(chunk) {
        put_frame(&mut framed, b'D', piece);
        offset += piece.len();
        ends.push(offset);
    }
    (framed, ends)
}

/// Largest server frame this client accepts; the workloads' fragments are
/// tens of bytes, the `s`/`t` JSON a few tens of KiB.
const MAX_FRAME: usize = 16 << 20;

/// Blocking frame reader over the receiving half of a connection.
pub struct FrameReader<R: Read> {
    input: BufReader<R>,
    payload: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    pub fn new(input: R) -> Self {
        FrameReader {
            input: BufReader::with_capacity(64 << 10, input),
            payload: Vec::new(),
        }
    }

    /// The next frame's kind and payload; `None` when the peer hung up
    /// between frames.
    pub fn next_frame(&mut self) -> io::Result<Option<(u8, &[u8])>> {
        let mut header = [0u8; 5];
        match self.input.read_exact(&mut header[..1]) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        }
        self.input.read_exact(&mut header[1..])?;
        let len = u32::from_be_bytes([header[1], header[2], header[3], header[4]]) as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("server frame of {len} bytes exceeds the client cap"),
            ));
        }
        self.payload.resize(len, 0);
        self.input.read_exact(&mut self.payload)?;
        Ok(Some((header[0], &self.payload)))
    }
}

/// Split an `r` payload (`name_len · name · fragment`) into name and fragment.
pub fn split_result(payload: &[u8]) -> Option<(&[u8], &[u8])> {
    let (&len, rest) = payload.split_first()?;
    (rest.len() >= len as usize).then(|| rest.split_at(len as usize))
}
