//! Durable run-state snapshots: a compact, versioned, checksummed binary
//! serialization of everything an evaluator needs to resume a run at a
//! document boundary.
//!
//! # Why document boundaries
//!
//! The engine's state compresses sharply at *quiescent* points: once every
//! output candidate is determined, the event arena is empty, the per-node
//! pushdown stacks are at depth zero, and the inter-transducer inboxes are
//! drained. After [`crate::Machine::reset_session`] the live transducer
//! state is what a freshly built run would hold (the output operators'
//! latency histograms aside, which are accumulators) — so a snapshot needs
//! only the *accumulators*: engine statistics, per-node
//! statistics, determination-latency histograms, the condition-variable
//! serial high-water mark, the interned symbol list, and (for fault-tolerant
//! runs) the quarantine sets and damage intervals. That is what this module
//! serializes. A future mid-document checkpoint would be a new section, not
//! a new format.
//!
//! # Wire format
//!
//! ```text
//! magic "SPXS" | version u32 LE | payload-len u32 LE | crc32 u32 LE | payload
//! ```
//!
//! The payload is a sequence of tagged sections (`tag u8 | len u32 LE |
//! body`); unknown tags are skipped, which is the forward-compatibility
//! mechanism within a version. All integers are little-endian; strings are
//! `len u32 LE` + UTF-8 bytes. Decoding is total: corrupt or truncated input
//! of any shape yields a structured [`SnapshotError`], never a panic.

use crate::limits::{LimitBreach, LimitKind, ResourceLimits};
use crate::stats::{EngineStats, TransducerStats};
use spex_trace::Histogram;
use spex_xml::{Attribute, Fault, FaultAction, FaultKind, Position, XmlEvent};

/// The four magic bytes opening every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"SPXS";

/// The current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

const SEC_CORE: u8 = 1;
const SEC_SYMBOLS: u8 = 2;
// Tag 3 is retired, not free: older snapshots carry an always-empty
// event-arena section under it, which decoding skips as an unknown tag.
const SEC_SESSION: u8 = 4;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected), slicing-by-16. Shared with the server's
// write-ahead log records, so the whole durability layer has one checksum.
// ---------------------------------------------------------------------------

/// Lookup tables for slicing-by-16: `CRC_TABLES[0]` is the classic
/// byte-at-a-time table, `CRC_TABLES[k]` advances a byte `k` positions
/// further. The WAL checksums every input byte on the hot path, so the
/// per-byte cost is part of the append overhead.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// Incremental CRC-32 (IEEE), so a WAL record's checksum can cover the kind
/// byte plus the payload without concatenating them first.
#[derive(Debug, Clone)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// A checksum over no bytes yet.
    #[must_use]
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Extend the checksum over `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        #[inline(always)]
        fn word(data: &[u8], at: usize) -> u32 {
            u32::from_le_bytes([data[at], data[at + 1], data[at + 2], data[at + 3]])
        }
        #[inline(always)]
        fn fold(t: usize, w: u32) -> u32 {
            CRC_TABLES[t + 3][(w & 0xFF) as usize]
                ^ CRC_TABLES[t + 2][((w >> 8) & 0xFF) as usize]
                ^ CRC_TABLES[t + 1][((w >> 16) & 0xFF) as usize]
                ^ CRC_TABLES[t][(w >> 24) as usize]
        }
        let mut c = self.0;
        while data.len() >= 16 {
            c = fold(12, word(data, 0) ^ c)
                ^ fold(8, word(data, 4))
                ^ fold(4, word(data, 8))
                ^ fold(0, word(data, 12));
            data = &data[16..];
        }
        for &b in data {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    /// The checksum of every byte passed to [`Crc32::update`].
    #[must_use]
    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// CRC-32 (IEEE) of `data`. Used for snapshot payloads and WAL records.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Everything that can go wrong taking, encoding, or decoding a snapshot.
/// Decoding is total: arbitrary bytes produce one of these, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the declared structure did.
    Truncated,
    /// The first four bytes are not [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The payload checksum does not match the header.
    BadChecksum {
        /// CRC declared in the header.
        expected: u32,
        /// CRC computed over the payload.
        found: u32,
    },
    /// The bytes are structurally invalid (bad enum tag, length overrun,
    /// invalid UTF-8, missing required section, …).
    Corrupt(String),
    /// A checkpoint was requested while the run was not at a quiescent
    /// document boundary (open elements, undetermined candidates, or a
    /// non-empty arena).
    NotQuiescent,
    /// The snapshot does not fit the run it is being restored into
    /// (different network shape, sink count, or query labels).
    Mismatch(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::BadChecksum { expected, found } => {
                write!(
                    f,
                    "snapshot checksum mismatch (header {expected:#010x}, payload {found:#010x})"
                )
            }
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::NotQuiescent => {
                write!(f, "run is not at a quiescent document boundary")
            }
            SnapshotError::Mismatch(what) => write!(f, "snapshot does not match run: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

fn corrupt(what: &str) -> SnapshotError {
    SnapshotError::Corrupt(what.to_string())
}

// ---------------------------------------------------------------------------
// Snapshot model
// ---------------------------------------------------------------------------

/// One quarantined (still-withheld) result fragment, exported from a
/// [`crate::Pump`]'s recovery quarantine so fault reports survive a restart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragmentState {
    /// Emitted-event index at which the fragment's match started.
    pub start: u64,
    /// Emitted-event index of the last event observed for it.
    pub last: u64,
    /// Emitted-event index at which its condition was determined.
    pub delivered: u64,
    /// The buffered fragment events, owned.
    pub events: Vec<XmlEvent>,
}

/// Consumer-side continuation state carried alongside the engine
/// accumulators: reader resume point, prior faults, quarantine sets, and
/// per-query delivery counts. Everything the *driver* of an evaluation
/// needs to pick up where the crashed process left off; written by
/// [`crate::Pump::checkpoint`] and read back by [`crate::Pump::restore`],
/// whoever drives the pump (server session, CLI, crash-diff rig).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionState {
    /// Faults recorded before the checkpoint (the resumed reader starts
    /// with an empty fault log; reports concatenate these in front).
    pub faults: Vec<Fault>,
    /// Per-query quarantined fragments (order = query registration order;
    /// single-query runs use one entry).
    pub quarantines: Vec<Vec<FragmentState>>,
    /// Per-query count of result fragments already delivered downstream.
    pub delivered: Vec<u64>,
    /// Events the reader had emitted at the checkpoint (the next tick).
    pub reader_emitted: u64,
    /// Byte position of the reader at the checkpoint. Input replay skips
    /// exactly `position.offset` bytes.
    pub position: Position,
    /// A `<` was consumed while detecting the document boundary (see
    /// `Reader::resume_point`).
    pub lt_consumed: bool,
    /// Documents fully evaluated before the checkpoint.
    pub documents: u64,
}

/// A decoded run-state snapshot: the full accumulator state of one engine
/// run at a quiescent document boundary, plus optional session state.
///
/// Produced by [`crate::Machine::checkpoint`] (with the session section, by
/// [`crate::Pump::checkpoint`]), serialized with [`Snapshot::encode`],
/// revived with [`Snapshot::decode`] and applied with `restore` (the
/// node-kind list is the shape witness).
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Ticks (document messages) pushed before the checkpoint.
    pub tick: u64,
    /// Engine-level accumulated statistics.
    pub stats: EngineStats,
    /// Per-node accumulated statistics; the `kind` strings double as the
    /// network-shape witness checked on restore.
    pub transducers: Vec<TransducerStats>,
    /// Condition-variable serials minted so far.
    pub minted: u32,
    /// Determination-latency accumulators, one per node by id (only
    /// outputs record; every other entry is empty).
    pub det_latency: Vec<Histogram>,
    /// A resource breach recorded before the checkpoint, if any.
    pub exhausted: Option<LimitBreach>,
    /// The resource limits the run was configured with.
    pub limits: ResourceLimits,
    /// High-water mark of the event arena, in bytes.
    pub arena_peak: u64,
    /// The full interned symbol list (the run's query-label baseline is a
    /// prefix of this; restore verifies the prefix and interns the tail).
    pub symbols: Vec<String>,
    /// Driver continuation state, when the producer attached one.
    pub session: Option<SessionState>,
}

// ---------------------------------------------------------------------------
// Little-endian primitives
// ---------------------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    put_u8(buf, u8::from(v));
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, u32::try_from(s.len()).unwrap_or(u32::MAX));
    buf.extend_from_slice(s.as_bytes());
}

fn put_usize(buf: &mut Vec<u8>, v: usize) {
    put_u64(buf, v as u64);
}

fn put_opt_usize(buf: &mut Vec<u8>, v: Option<usize>) {
    match v {
        Some(v) => {
            put_u8(buf, 1);
            put_usize(buf, v);
        }
        None => put_u8(buf, 0),
    }
}

/// Bounds-checked little-endian reader over a byte slice. Every accessor
/// returns a [`SnapshotError`] instead of slicing out of range.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| corrupt("size does not fit this platform"))
    }

    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(corrupt("invalid boolean")),
        }
    }

    fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.count(1)?;
        let b = self.bytes(n)?;
        std::str::from_utf8(b)
            .map(str::to_string)
            .map_err(|_| corrupt("invalid UTF-8 string"))
    }

    /// Read an element count and sanity-check it against the bytes left
    /// (`min_elem` = smallest possible encoding of one element), so a
    /// corrupted length cannot trigger a huge allocation.
    fn count(&mut self, min_elem: usize) -> Result<usize, SnapshotError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem.max(1)) > self.remaining() {
            return Err(corrupt("length field exceeds remaining bytes"));
        }
        Ok(n)
    }

    fn opt_usize(&mut self) -> Result<Option<usize>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.usize()?)),
            _ => Err(corrupt("invalid option flag")),
        }
    }
}

// ---------------------------------------------------------------------------
// Domain codecs
// ---------------------------------------------------------------------------

/// The core section opens with the tag of the engine that took the
/// snapshot. There is one engine now, written as `0`; `1` is what binaries
/// with an `--engine network` wrote, and restores the same (snapshots were
/// engine-portable by construction).
const ENGINE_TAG: u8 = 0;
const ENGINE_TAG_LEGACY_NETWORK: u8 = 1;

fn limit_kind_tag(k: LimitKind) -> u8 {
    match k {
        LimitKind::StreamDepth => 0,
        LimitKind::BufferedEvents => 1,
        LimitKind::BufferedBytes => 2,
        LimitKind::LiveCandidates => 3,
        LimitKind::FormulaSize => 4,
        LimitKind::TotalMessages => 5,
    }
}

fn limit_kind_from(tag: u8) -> Result<LimitKind, SnapshotError> {
    Ok(match tag {
        0 => LimitKind::StreamDepth,
        1 => LimitKind::BufferedEvents,
        2 => LimitKind::BufferedBytes,
        3 => LimitKind::LiveCandidates,
        4 => LimitKind::FormulaSize,
        5 => LimitKind::TotalMessages,
        _ => return Err(corrupt("invalid limit kind")),
    })
}

fn fault_kind_tag(k: FaultKind) -> u8 {
    match k {
        FaultKind::MismatchedClose => 0,
        FaultKind::StrayClose => 1,
        FaultKind::BadEntity => 2,
        FaultKind::Garbage => 3,
        FaultKind::TrailingContent => 4,
        FaultKind::Truncated => 5,
    }
}

fn fault_kind_from(tag: u8) -> Result<FaultKind, SnapshotError> {
    Ok(match tag {
        0 => FaultKind::MismatchedClose,
        1 => FaultKind::StrayClose,
        2 => FaultKind::BadEntity,
        3 => FaultKind::Garbage,
        4 => FaultKind::TrailingContent,
        5 => FaultKind::Truncated,
        _ => return Err(corrupt("invalid fault kind")),
    })
}

fn fault_action_tag(a: FaultAction) -> u8 {
    match a {
        FaultAction::AutoClosed => 0,
        FaultAction::Dropped => 1,
        FaultAction::Replaced => 2,
        FaultAction::SkippedSubtree => 3,
        FaultAction::SynthesizedCloses => 4,
    }
}

fn fault_action_from(tag: u8) -> Result<FaultAction, SnapshotError> {
    Ok(match tag {
        0 => FaultAction::AutoClosed,
        1 => FaultAction::Dropped,
        2 => FaultAction::Replaced,
        3 => FaultAction::SkippedSubtree,
        4 => FaultAction::SynthesizedCloses,
        _ => return Err(corrupt("invalid fault action")),
    })
}

fn put_position(buf: &mut Vec<u8>, p: Position) {
    put_u64(buf, p.offset);
    put_u32(buf, p.line);
    put_u32(buf, p.column);
}

fn get_position(d: &mut Dec<'_>) -> Result<Position, SnapshotError> {
    Ok(Position {
        offset: d.u64()?,
        line: d.u32()?,
        column: d.u32()?,
    })
}

fn put_fault(buf: &mut Vec<u8>, f: &Fault) {
    put_u8(buf, fault_kind_tag(f.kind));
    put_position(buf, f.position);
    put_u8(buf, fault_action_tag(f.action));
    put_str(buf, &f.detail);
    put_u64(buf, f.event_from);
    put_u64(buf, f.event_to);
}

fn get_fault(d: &mut Dec<'_>) -> Result<Fault, SnapshotError> {
    Ok(Fault {
        kind: fault_kind_from(d.u8()?)?,
        position: get_position(d)?,
        action: fault_action_from(d.u8()?)?,
        detail: d.str()?,
        event_from: d.u64()?,
        event_to: d.u64()?,
    })
}

fn put_event(buf: &mut Vec<u8>, ev: &XmlEvent) {
    match ev {
        XmlEvent::StartDocument => put_u8(buf, 0),
        XmlEvent::EndDocument => put_u8(buf, 1),
        XmlEvent::StartElement { name, attributes } => {
            put_u8(buf, 2);
            put_str(buf, name);
            put_u32(buf, u32::try_from(attributes.len()).unwrap_or(u32::MAX));
            for a in attributes {
                put_str(buf, &a.name);
                put_str(buf, &a.value);
            }
        }
        XmlEvent::EndElement { name } => {
            put_u8(buf, 3);
            put_str(buf, name);
        }
        XmlEvent::Text(t) => {
            put_u8(buf, 4);
            put_str(buf, t);
        }
        XmlEvent::Comment(c) => {
            put_u8(buf, 5);
            put_str(buf, c);
        }
        XmlEvent::ProcessingInstruction { target, data } => {
            put_u8(buf, 6);
            put_str(buf, target);
            put_str(buf, data);
        }
    }
}

fn get_event(d: &mut Dec<'_>) -> Result<XmlEvent, SnapshotError> {
    Ok(match d.u8()? {
        0 => XmlEvent::StartDocument,
        1 => XmlEvent::EndDocument,
        2 => {
            let name = d.str()?;
            let n = d.count(8)?;
            let mut attributes = Vec::with_capacity(n);
            for _ in 0..n {
                let name = d.str()?;
                let value = d.str()?;
                attributes.push(Attribute { name, value });
            }
            XmlEvent::StartElement { name, attributes }
        }
        3 => XmlEvent::EndElement { name: d.str()? },
        4 => XmlEvent::Text(d.str()?),
        5 => XmlEvent::Comment(d.str()?),
        6 => XmlEvent::ProcessingInstruction {
            target: d.str()?,
            data: d.str()?,
        },
        _ => return Err(corrupt("invalid event tag")),
    })
}

fn put_histogram(buf: &mut Vec<u8>, h: &Histogram) {
    let raw = h.export_raw();
    put_u32(buf, u32::try_from(raw.len()).unwrap_or(u32::MAX));
    for v in raw {
        put_u64(buf, v);
    }
}

fn get_histogram(d: &mut Dec<'_>) -> Result<Histogram, SnapshotError> {
    let n = d.count(8)?;
    let mut raw = Vec::with_capacity(n);
    for _ in 0..n {
        raw.push(d.u64()?);
    }
    Histogram::import_raw(&raw).ok_or_else(|| corrupt("invalid histogram state"))
}

fn put_fragment(buf: &mut Vec<u8>, f: &FragmentState) {
    put_u64(buf, f.start);
    put_u64(buf, f.last);
    put_u64(buf, f.delivered);
    put_u32(buf, u32::try_from(f.events.len()).unwrap_or(u32::MAX));
    for ev in &f.events {
        put_event(buf, ev);
    }
}

fn get_fragment(d: &mut Dec<'_>) -> Result<FragmentState, SnapshotError> {
    let start = d.u64()?;
    let last = d.u64()?;
    let delivered = d.u64()?;
    let n = d.count(1)?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        events.push(get_event(d)?);
    }
    Ok(FragmentState {
        start,
        last,
        delivered,
        events,
    })
}

// ---------------------------------------------------------------------------
// Sections
// ---------------------------------------------------------------------------

fn encode_core(s: &Snapshot) -> Vec<u8> {
    let mut b = Vec::new();
    put_u8(&mut b, ENGINE_TAG);
    put_u64(&mut b, s.tick);
    let st = &s.stats;
    put_u64(&mut b, st.ticks);
    put_u64(&mut b, st.messages);
    put_usize(&mut b, st.max_formula_size);
    put_usize(&mut b, st.max_cond_stack);
    put_usize(&mut b, st.max_depth_stack);
    put_usize(&mut b, st.max_stream_depth);
    put_usize(&mut b, st.peak_buffered_events);
    put_usize(&mut b, st.peak_live_candidates);
    put_u64(&mut b, st.candidates_created);
    put_u64(&mut b, st.results);
    put_u64(&mut b, st.dropped);
    put_u64(&mut b, st.vars_created);
    put_usize(&mut b, st.peak_arena_bytes);
    put_usize(&mut b, st.interned_symbols);
    put_u32(&mut b, s.minted);
    put_u64(&mut b, s.arena_peak);
    match s.exhausted {
        Some(x) => {
            put_u8(&mut b, 1);
            put_u8(&mut b, limit_kind_tag(x.kind));
            put_u64(&mut b, x.limit);
            put_u64(&mut b, x.observed);
        }
        None => put_u8(&mut b, 0),
    }
    let l = &s.limits;
    put_opt_usize(&mut b, l.max_stream_depth);
    put_opt_usize(&mut b, l.max_buffered_events);
    put_opt_usize(&mut b, l.max_buffered_bytes);
    put_opt_usize(&mut b, l.max_live_candidates);
    put_opt_usize(&mut b, l.max_formula_size);
    match l.max_total_messages {
        Some(v) => {
            put_u8(&mut b, 1);
            put_u64(&mut b, v);
        }
        None => put_u8(&mut b, 0),
    }
    put_u32(
        &mut b,
        u32::try_from(s.transducers.len()).unwrap_or(u32::MAX),
    );
    for t in &s.transducers {
        put_usize(&mut b, t.node);
        put_str(&mut b, &t.kind);
        put_u64(&mut b, t.messages);
        put_usize(&mut b, t.max_depth_stack);
        put_usize(&mut b, t.max_cond_stack);
        put_usize(&mut b, t.max_formula_size);
    }
    put_u32(
        &mut b,
        u32::try_from(s.det_latency.len()).unwrap_or(u32::MAX),
    );
    for h in &s.det_latency {
        put_histogram(&mut b, h);
    }
    b
}

fn decode_core(d: &mut Dec<'_>, s: &mut Snapshot) -> Result<(), SnapshotError> {
    if !matches!(d.u8()?, ENGINE_TAG | ENGINE_TAG_LEGACY_NETWORK) {
        return Err(corrupt("invalid engine tag"));
    }
    s.tick = d.u64()?;
    s.stats = EngineStats {
        ticks: d.u64()?,
        messages: d.u64()?,
        max_formula_size: d.usize()?,
        max_cond_stack: d.usize()?,
        max_depth_stack: d.usize()?,
        max_stream_depth: d.usize()?,
        peak_buffered_events: d.usize()?,
        peak_live_candidates: d.usize()?,
        candidates_created: d.u64()?,
        results: d.u64()?,
        dropped: d.u64()?,
        vars_created: d.u64()?,
        peak_arena_bytes: d.usize()?,
        interned_symbols: d.usize()?,
    };
    s.minted = d.u32()?;
    s.arena_peak = d.u64()?;
    s.exhausted = match d.u8()? {
        0 => None,
        1 => Some(LimitBreach {
            kind: limit_kind_from(d.u8()?)?,
            limit: d.u64()?,
            observed: d.u64()?,
        }),
        _ => return Err(corrupt("invalid breach flag")),
    };
    s.limits = ResourceLimits::default();
    s.limits.max_stream_depth = d.opt_usize()?;
    s.limits.max_buffered_events = d.opt_usize()?;
    s.limits.max_buffered_bytes = d.opt_usize()?;
    s.limits.max_live_candidates = d.opt_usize()?;
    s.limits.max_formula_size = d.opt_usize()?;
    s.limits.max_total_messages = match d.u8()? {
        0 => None,
        1 => Some(d.u64()?),
        _ => return Err(corrupt("invalid option flag")),
    };
    let n = d.count(8)?;
    s.transducers = Vec::with_capacity(n);
    for _ in 0..n {
        s.transducers.push(TransducerStats {
            node: d.usize()?,
            kind: d.str()?,
            messages: d.u64()?,
            max_depth_stack: d.usize()?,
            max_cond_stack: d.usize()?,
            max_formula_size: d.usize()?,
        });
    }
    let n = d.count(4)?;
    s.det_latency = Vec::with_capacity(n);
    for _ in 0..n {
        s.det_latency.push(get_histogram(d)?);
    }
    Ok(())
}

fn encode_session(sess: &SessionState) -> Vec<u8> {
    let mut b = Vec::new();
    put_u32(&mut b, u32::try_from(sess.faults.len()).unwrap_or(u32::MAX));
    for f in &sess.faults {
        put_fault(&mut b, f);
    }
    put_u32(
        &mut b,
        u32::try_from(sess.quarantines.len()).unwrap_or(u32::MAX),
    );
    for q in &sess.quarantines {
        put_u32(&mut b, u32::try_from(q.len()).unwrap_or(u32::MAX));
        for frag in q {
            put_fragment(&mut b, frag);
        }
    }
    put_u32(
        &mut b,
        u32::try_from(sess.delivered.len()).unwrap_or(u32::MAX),
    );
    for v in &sess.delivered {
        put_u64(&mut b, *v);
    }
    put_u64(&mut b, sess.reader_emitted);
    put_position(&mut b, sess.position);
    put_bool(&mut b, sess.lt_consumed);
    put_u64(&mut b, sess.documents);
    b
}

fn decode_session(d: &mut Dec<'_>) -> Result<SessionState, SnapshotError> {
    let n = d.count(1)?;
    let mut faults = Vec::with_capacity(n);
    for _ in 0..n {
        faults.push(get_fault(d)?);
    }
    let n = d.count(4)?;
    let mut quarantines = Vec::with_capacity(n);
    for _ in 0..n {
        let m = d.count(1)?;
        let mut frags = Vec::with_capacity(m);
        for _ in 0..m {
            frags.push(get_fragment(d)?);
        }
        quarantines.push(frags);
    }
    let n = d.count(8)?;
    let mut delivered = Vec::with_capacity(n);
    for _ in 0..n {
        delivered.push(d.u64()?);
    }
    Ok(SessionState {
        faults,
        quarantines,
        delivered,
        reader_emitted: d.u64()?,
        position: get_position(d)?,
        lt_consumed: d.bool()?,
        documents: d.u64()?,
    })
}

impl Snapshot {
    /// Serialize to the versioned, checksummed wire format.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        let mut section = |tag: u8, body: Vec<u8>| {
            put_u8(&mut payload, tag);
            put_u32(&mut payload, u32::try_from(body.len()).unwrap_or(u32::MAX));
            payload.extend_from_slice(&body);
        };
        section(SEC_CORE, encode_core(self));
        let mut syms = Vec::new();
        put_u32(
            &mut syms,
            u32::try_from(self.symbols.len()).unwrap_or(u32::MAX),
        );
        for name in &self.symbols {
            put_str(&mut syms, name);
        }
        section(SEC_SYMBOLS, syms);
        if let Some(sess) = &self.session {
            section(SEC_SESSION, encode_session(sess));
        }

        let mut out = Vec::with_capacity(16 + payload.len());
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        put_u32(&mut out, SNAPSHOT_VERSION);
        put_u32(&mut out, u32::try_from(payload.len()).unwrap_or(u32::MAX));
        put_u32(&mut out, crc32(&payload));
        out.extend_from_slice(&payload);
        out
    }

    /// Decode a snapshot from bytes. Total: any input yields `Ok` or a
    /// structured [`SnapshotError`], never a panic.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        if bytes.len() < 16 {
            return Err(SnapshotError::Truncated);
        }
        if bytes[0..4] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let mut head = Dec::new(&bytes[4..16]);
        let version = head.u32().map_err(|_| SnapshotError::Truncated)?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let payload_len = head.u32().map_err(|_| SnapshotError::Truncated)? as usize;
        let expected = head.u32().map_err(|_| SnapshotError::Truncated)?;
        let body = &bytes[16..];
        if body.len() < payload_len {
            return Err(SnapshotError::Truncated);
        }
        if body.len() > payload_len {
            return Err(corrupt("trailing bytes after payload"));
        }
        let found = crc32(body);
        if found != expected {
            return Err(SnapshotError::BadChecksum { expected, found });
        }

        let mut snap = Snapshot::default();
        let mut have_core = false;
        let mut have_symbols = false;
        let mut d = Dec::new(body);
        while d.remaining() > 0 {
            let tag = d.u8()?;
            let len = d.u32()? as usize;
            let section = d
                .bytes(len)
                .map_err(|_| corrupt("section length overrun"))?;
            let mut sd = Dec::new(section);
            match tag {
                SEC_CORE => {
                    decode_core(&mut sd, &mut snap)?;
                    have_core = true;
                }
                SEC_SYMBOLS => {
                    let n = sd.count(4)?;
                    let mut symbols = Vec::with_capacity(n);
                    for _ in 0..n {
                        symbols.push(sd.str()?);
                    }
                    snap.symbols = symbols;
                    have_symbols = true;
                }
                SEC_SESSION => {
                    snap.session = Some(decode_session(&mut sd)?);
                }
                // Unknown sections are the forward-compatibility valve.
                _ => {}
            }
        }
        if !have_core {
            return Err(corrupt("missing core section"));
        }
        if !have_symbols {
            return Err(corrupt("missing symbol section"));
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        let mut det = Histogram::new();
        det.record(3);
        det.record(900);
        Snapshot {
            tick: 42,
            stats: EngineStats {
                ticks: 42,
                messages: 1234,
                max_formula_size: 7,
                max_cond_stack: 3,
                max_depth_stack: 5,
                max_stream_depth: 6,
                peak_buffered_events: 11,
                peak_live_candidates: 2,
                candidates_created: 9,
                results: 4,
                dropped: 5,
                vars_created: 9,
                peak_arena_bytes: 4096,
                interned_symbols: 13,
            },
            transducers: vec![
                TransducerStats {
                    node: 0,
                    kind: "IN".into(),
                    messages: 100,
                    max_depth_stack: 4,
                    max_cond_stack: 0,
                    max_formula_size: 1,
                },
                TransducerStats {
                    node: 1,
                    kind: "OU(out)".into(),
                    messages: 50,
                    max_depth_stack: 2,
                    max_cond_stack: 1,
                    max_formula_size: 3,
                },
            ],
            minted: 9,
            det_latency: vec![det],
            exhausted: Some(LimitBreach {
                kind: LimitKind::BufferedEvents,
                limit: 10,
                observed: 11,
            }),
            limits: ResourceLimits::default()
                .with_max_buffered_events(10)
                .with_max_total_messages(1_000_000),
            arena_peak: 8192,
            symbols: vec!["$".into(), "a".into(), "b".into()],
            session: Some(SessionState {
                faults: vec![Fault {
                    kind: FaultKind::MismatchedClose,
                    position: Position {
                        offset: 17,
                        line: 2,
                        column: 3,
                    },
                    action: FaultAction::AutoClosed,
                    detail: "closed <a> at </b>".into(),
                    event_from: 3,
                    event_to: 5,
                }],
                quarantines: vec![
                    vec![FragmentState {
                        start: 1,
                        last: 4,
                        delivered: 4,
                        events: vec![
                            XmlEvent::StartElement {
                                name: "x".into(),
                                attributes: vec![],
                            },
                            XmlEvent::Text("t".into()),
                            XmlEvent::close("x"),
                        ],
                    }],
                    vec![],
                ],
                delivered: vec![3, 0],
                reader_emitted: 42,
                position: Position {
                    offset: 999,
                    line: 10,
                    column: 1,
                },
                lt_consumed: true,
                documents: 3,
            }),
        }
    }

    fn assert_round_trip(s: &Snapshot) {
        let bytes = s.encode();
        let back = Snapshot::decode(&bytes).expect("decode");
        assert_eq!(back.tick, s.tick);
        assert_eq!(back.stats, s.stats);
        assert_eq!(back.transducers, s.transducers);
        assert_eq!(back.minted, s.minted);
        assert_eq!(back.det_latency.len(), s.det_latency.len());
        for (a, b) in back.det_latency.iter().zip(&s.det_latency) {
            assert_eq!(a.export_raw(), b.export_raw());
        }
        assert_eq!(back.exhausted, s.exhausted);
        assert_eq!(back.limits, s.limits);
        assert_eq!(back.arena_peak, s.arena_peak);
        assert_eq!(back.symbols, s.symbols);
        assert_eq!(back.session, s.session);
        // Re-encoding the decoded snapshot is byte-identical.
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn full_snapshot_round_trips() {
        assert_round_trip(&sample_snapshot());
    }

    #[test]
    fn minimal_snapshot_round_trips() {
        assert_round_trip(&Snapshot::default());
    }

    #[test]
    fn bad_magic_is_reported() {
        let mut bytes = sample_snapshot().encode();
        bytes[0] = b'X';
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn future_version_is_reported() {
        let mut bytes = sample_snapshot().encode();
        bytes[4] = 99;
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn every_truncation_is_structured() {
        let bytes = sample_snapshot().encode();
        for n in 0..bytes.len() {
            let err = Snapshot::decode(&bytes[..n]).expect_err("truncated must fail");
            // Any structured error is acceptable; panics are not.
            let _ = err.to_string();
        }
    }

    #[test]
    fn every_single_bit_flip_is_structured() {
        let bytes = sample_snapshot().encode();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut m = bytes.clone();
                m[i] ^= 1 << bit;
                match Snapshot::decode(&m) {
                    // Flips in the header are allowed to produce any
                    // structured error; flips in the payload must be caught
                    // by the checksum.
                    Ok(_) => panic!("bit flip at byte {i} bit {bit} went undetected"),
                    Err(e) if i >= 16 => {
                        assert!(
                            matches!(e, SnapshotError::BadChecksum { .. }),
                            "payload flip at byte {i} bit {bit} gave {e:?}"
                        );
                    }
                    Err(_) => {}
                }
            }
        }
    }

    #[test]
    fn checksum_catches_payload_corruption() {
        let mut bytes = sample_snapshot().encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(SnapshotError::BadChecksum { .. })
        ));
    }

    #[test]
    fn unknown_sections_are_skipped() {
        let snap = sample_snapshot();
        let bytes = snap.encode();
        // Rebuild with extra sections appended to the payload: the empty
        // arena section (tag 3, an event count of 0) older binaries wrote,
        // and a tag nothing has used.
        let payload_len = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
        let mut payload = bytes[16..16 + payload_len].to_vec();
        for (tag, body) in [(3u8, &[0u8; 4][..]), (200, b"extra")] {
            payload.push(tag);
            payload.extend_from_slice(&(body.len() as u32).to_le_bytes());
            payload.extend_from_slice(body);
        }
        let mut out = Vec::new();
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(u32::try_from(payload.len()).unwrap()).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        let back = Snapshot::decode(&out).expect("unknown section must be skipped");
        assert_eq!(back.stats, snap.stats);
    }

    /// Re-seal `bytes` with the engine tag (first byte of the core section,
    /// which `encode` writes first) replaced.
    fn retagged(bytes: &[u8], tag: u8) -> Vec<u8> {
        let mut out = bytes.to_vec();
        assert_eq!(out[16], SEC_CORE);
        out[21] = tag;
        let crc = crc32(&out[16..]);
        out[12..16].copy_from_slice(&crc.to_le_bytes());
        out
    }

    #[test]
    fn legacy_network_engine_tag_still_restores() {
        // A snapshot the parent binary took under `--engine network` carries
        // tag 1; it must resume exactly like one tagged 0.
        let net = crate::CompiledNetwork::compile(&"_*.a[b].c".parse().unwrap());
        let docs = ["<a><c>1</c><b/></a>", "<a><a><c>2</c></a><b/><c>3</c></a>"];
        let mut head = crate::FragmentCollector::new();
        let mut eval = crate::Evaluator::new(&net, &mut head);
        eval.push_str(docs[0]).unwrap();
        eval.reset_session();
        let bytes = eval.checkpoint().unwrap().encode();
        assert_eq!(bytes[21], ENGINE_TAG);
        let resume = |bytes: &[u8]| {
            let mut sink = crate::FragmentCollector::new();
            let mut eval = crate::Evaluator::new(&net, &mut sink);
            eval.restore(&Snapshot::decode(bytes).expect("decode"))
                .expect("restore");
            eval.push_str(docs[1]).unwrap();
            let stats = eval.finish_full();
            (sink.into_fragments(), stats)
        };
        let legacy = retagged(&bytes, ENGINE_TAG_LEGACY_NETWORK);
        assert_eq!(resume(&legacy), resume(&bytes));
        // …and identically to never having stopped.
        eval.push_str(docs[1]).unwrap();
        assert_eq!(resume(&legacy).1, eval.finish_full());

        let err = Snapshot::decode(&retagged(&bytes, 2)).expect_err("tag 2");
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value, plus lengths that exercise both
        // the slicing-by-16 fast path and the byte-at-a-time tail.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        let long: Vec<u8> = (0..1021u32).map(|i| (i % 251) as u8).collect();
        let mut slow = 0xFFFF_FFFFu32;
        for &b in &long {
            slow = CRC_TABLES[0][((slow ^ u32::from(b)) & 0xFF) as usize] ^ (slow >> 8);
        }
        assert_eq!(crc32(&long), slow ^ 0xFFFF_FFFF);
        // Incremental updates across an arbitrary split agree with one-shot.
        let mut inc = Crc32::new();
        inc.update(&long[..13]);
        inc.update(&long[13..]);
        assert_eq!(inc.finish(), crc32(&long));
    }
}
