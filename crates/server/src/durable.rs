//! Durable session state: a per-session write-ahead log of input frames
//! plus an atomically-replaced snapshot of engine state, so a killed
//! server (or dropped connection) can resume a session with byte-identical
//! continuation output.
//!
//! Layout under the configured durable root (`--durable-dir`):
//!
//! ```text
//! <root>/<token>/
//!     queries.txt                 one `name=expr` line per registered query
//!     wal-00000000000000000000.log  input segments; the filename encodes the
//!     wal-00000000000001048576.log  total payload byte offset at which the
//!     ...                           segment starts
//!     snapshot.bin                latest quiescent-point snapshot (optional)
//! ```
//!
//! Each WAL record is `len: u32 LE` + `crc32: u32 LE` (over kind byte and
//! payload) + `kind: u8` + payload. `kind` is [`REC_DATA`] for a data frame
//! payload or [`REC_END`] for the end-of-stream marker (empty payload).
//! Recovery takes the *longest valid prefix*: a torn or corrupted record
//! ends its segment, and replay continues into the next segment only when
//! that segment's start offset equals the bytes recovered so far — a
//! resumed session always opens a fresh segment at the recovered total, so
//! a torn tail can never be mistaken for the live end of the log.

use spex_core::snapshot::{crc32, Crc32};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// Rotate to a new WAL segment once the current one holds this many payload
/// bytes (checked after each append, so a single oversized record still
/// lands in one segment).
const SEGMENT_BYTES: u64 = 1024 * 1024;

/// Userspace write buffer on the active segment. Appends are coalesced into
/// buffer-sized `write` calls; every fsync point (and rotation) flushes the
/// buffer first, so the durability guarantees of each [`FsyncPolicy`] are
/// unchanged — only the per-append syscall cost goes away.
const SEGMENT_BUF: usize = 64 * 1024;

/// WAL record kind: the payload of one `Data` frame.
pub const REC_DATA: u8 = 1;
/// WAL record kind: the client ended its input stream (empty payload).
pub const REC_END: u8 = 2;

/// When the session log calls `fsync` on the active segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Sync after every appended record — maximal durability, slowest.
    Always,
    /// Sync at document boundaries (just before a snapshot is taken) and
    /// at end-of-stream. The default: a crash loses at most the tail of
    /// the in-flight document, which the client still holds.
    #[default]
    OnDocument,
    /// Never sync explicitly; rely on the OS flushing dirty pages. The
    /// cheapest policy, used by the WAL-overhead benchmark.
    Never,
}

impl FsyncPolicy {
    /// Stable textual form (CLI flag value).
    pub fn as_str(&self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::OnDocument => "document",
            FsyncPolicy::Never => "never",
        }
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for FsyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "document" | "on-document" => Ok(FsyncPolicy::OnDocument),
            "never" => Ok(FsyncPolicy::Never),
            other => Err(format!(
                "unknown fsync policy `{other}` (expected always, document, or never)"
            )),
        }
    }
}

/// True if `token` is safe to use as a directory name under the durable
/// root: non-empty, at most 64 bytes, lowercase alphanumerics and dashes
/// only. Rejects anything that could traverse out of the root.
pub fn valid_token(token: &str) -> bool {
    !token.is_empty()
        && token.len() <= 64
        && token
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
}

/// Mint a fresh session token from a server-wide sequence number and the
/// wall clock, e.g. `s42-1754700000123456789`. Unique per server process
/// (the sequence) and overwhelmingly unique across restarts (the clock).
pub fn new_token(seq: u64) -> String {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    format!("s{seq}-{nanos}")
}

/// Segment filename for the segment whose first payload byte is `start`.
fn segment_name(start: u64) -> String {
    format!("wal-{start:020}.log")
}

/// Everything read back from a session's durable directory at resume time.
#[derive(Debug)]
pub struct RecoveredSession {
    /// Registered queries, in registration order, as `(name, expression)`.
    pub queries: Vec<(String, String)>,
    /// The latest snapshot bytes, if a snapshot was ever written.
    pub snapshot: Option<Vec<u8>>,
    /// The full recovered WAL payload (every valid data record,
    /// concatenated in order).
    pub wal: Vec<u8>,
    /// Input offset of `wal`'s first byte: the start of the earliest
    /// retained segment (0 unless pruning ran).
    pub wal_start: u64,
    /// True if the WAL records that the client already ended its stream.
    pub ended: bool,
}

/// A live per-session write-ahead log rooted at `<root>/<token>/`.
///
/// All appends go through [`SessionLog::append_data`] /
/// [`SessionLog::append_end`] *before* the engine consumes the bytes, so
/// any input the engine has seen is re-derivable from disk.
#[derive(Debug)]
pub struct SessionLog {
    dir: PathBuf,
    fsync: FsyncPolicy,
    segment: BufWriter<File>,
    /// First payload byte offset of the active segment.
    segment_start: u64,
    /// Payload bytes appended to the active segment so far.
    segment_bytes: u64,
    /// Total payload bytes in the log (across all segments).
    total: u64,
    ended: bool,
    /// Raw bytes written to WAL segments (records incl. headers) — the
    /// `wal.bytes` trace counter.
    wal_bytes: u64,
}

impl SessionLog {
    /// Create a fresh session directory and its first WAL segment, writing
    /// `queries.txt` so the session can be re-registered at resume.
    pub fn create(
        root: &Path,
        token: &str,
        queries: &[(String, String)],
        fsync: FsyncPolicy,
    ) -> io::Result<Self> {
        let dir = root.join(token);
        fs::create_dir_all(&dir)?;
        let mut qf = File::create(dir.join("queries.txt"))?;
        for (name, expr) in queries {
            writeln!(qf, "{name}={expr}")?;
        }
        qf.sync_all()?;
        let segment = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(dir.join(segment_name(0)))?;
        Ok(SessionLog {
            dir,
            fsync,
            segment: BufWriter::with_capacity(SEGMENT_BUF, segment),
            segment_start: 0,
            segment_bytes: 0,
            total: 0,
            ended: false,
            wal_bytes: 0,
        })
    }

    /// Reopen the log of a recovered session for further appends. A *new*
    /// segment is started at `total` (truncating any torn segment of the
    /// same name), which is what makes torn tails unambiguous: replay never
    /// continues past a valid prefix into bytes a previous incarnation
    /// wrote after it.
    pub fn append_after(
        root: &Path,
        token: &str,
        total: u64,
        ended: bool,
        fsync: FsyncPolicy,
    ) -> io::Result<Self> {
        let dir = root.join(token);
        let segment = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(dir.join(segment_name(total)))?;
        Ok(SessionLog {
            dir,
            fsync,
            segment: BufWriter::with_capacity(SEGMENT_BUF, segment),
            segment_start: total,
            segment_bytes: 0,
            total,
            ended,
            wal_bytes: 0,
        })
    }

    /// Total payload bytes recorded (parse offset of the next input byte).
    pub fn total_bytes(&self) -> u64 {
        self.total
    }

    /// Raw segment bytes written by this handle (headers included).
    pub fn wal_bytes_written(&self) -> u64 {
        self.wal_bytes
    }

    /// True once [`SessionLog::append_end`] has been recorded.
    pub fn ended(&self) -> bool {
        self.ended
    }

    fn append_record(&mut self, kind: u8, payload: &[u8]) -> io::Result<()> {
        let mut crc = Crc32::new();
        crc.update(&[kind]);
        crc.update(payload);
        let mut header = [0u8; 9];
        header[..4].copy_from_slice(&((1 + payload.len()) as u32).to_le_bytes());
        header[4..8].copy_from_slice(&crc.finish().to_le_bytes());
        header[8] = kind;
        self.segment.write_all(&header)?;
        self.segment.write_all(payload)?;
        self.wal_bytes += (header.len() + payload.len()) as u64;
        self.segment_bytes += payload.len() as u64;
        self.total += payload.len() as u64;
        if self.fsync == FsyncPolicy::Always {
            self.segment.flush()?;
            self.segment.get_ref().sync_data()?;
        }
        if self.segment_bytes >= SEGMENT_BYTES {
            self.rotate()?;
        }
        Ok(())
    }

    fn rotate(&mut self) -> io::Result<()> {
        // Seal the finished segment before opening the next one — except
        // under `Never`, where durability is explicitly best-effort and a
        // rotation must not smuggle an fsync onto the hot path.
        self.segment.flush()?;
        if self.fsync != FsyncPolicy::Never {
            self.segment.get_ref().sync_data()?;
        }
        self.segment_start = self.total;
        self.segment_bytes = 0;
        let segment = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(self.dir.join(segment_name(self.segment_start)))?;
        self.segment = BufWriter::with_capacity(SEGMENT_BUF, segment);
        Ok(())
    }

    /// Append one data-frame payload. Must be called before the engine
    /// consumes the bytes (write-*ahead*).
    pub fn append_data(&mut self, payload: &[u8]) -> io::Result<()> {
        self.append_record(REC_DATA, payload)
    }

    /// Record the client's end-of-stream marker.
    pub fn append_end(&mut self) -> io::Result<()> {
        self.append_record(REC_END, &[])?;
        self.ended = true;
        // Always hand the END record to the OS — even under `Never` a clean
        // process exit should leave a complete log on disk.
        self.segment.flush()?;
        if self.fsync != FsyncPolicy::Never {
            self.segment.get_ref().sync_data()?;
        }
        Ok(())
    }

    /// Document-boundary sync point: under [`FsyncPolicy::OnDocument`] (and
    /// `Always`) the active segment is flushed to disk, so the snapshot
    /// about to be written never refers to WAL bytes that could vanish.
    pub fn sync_for_document(&mut self) -> io::Result<()> {
        self.segment.flush()?;
        if self.fsync != FsyncPolicy::Never {
            self.segment.get_ref().sync_data()?;
        }
        Ok(())
    }

    /// Atomically replace `snapshot.bin` with `bytes` (write to a temp file
    /// in the same directory, sync, rename). Under [`FsyncPolicy::Never`]
    /// the sync is skipped like every other one: the rename still keeps the
    /// swap atomic, durability is best-effort by choice.
    pub fn write_snapshot(&self, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join("snapshot.tmp");
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        if self.fsync != FsyncPolicy::Never {
            f.sync_all()?;
        }
        drop(f);
        fs::rename(&tmp, self.dir.join("snapshot.bin"))
    }

    /// Remove closed WAL segments that end at or before `offset` (the
    /// parse offset the latest snapshot resumes from). The active segment
    /// is never pruned.
    pub fn prune(&self, offset: u64) -> io::Result<()> {
        let segments = list_segments(&self.dir)?;
        // A closed segment covers [start, next_start). It is safe to
        // remove only if everything it holds is at or before `offset`,
        // i.e. the *next* segment starts at or before `offset`.
        for pair in segments.windows(2) {
            let ((start, path), (next, _)) = (&pair[0], &pair[1]);
            if *start < self.segment_start && *next <= offset {
                fs::remove_file(path)?;
            }
        }
        Ok(())
    }
}

/// All WAL segments in `dir`, sorted by their start offset.
fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(rest) = name.strip_prefix("wal-") {
            if let Some(digits) = rest.strip_suffix(".log") {
                if let Ok(start) = digits.parse::<u64>() {
                    segments.push((start, entry.path()));
                }
            }
        }
    }
    segments.sort_by_key(|(s, _)| *s);
    Ok(segments)
}

/// Scan one segment file, appending every valid record's payload to `out`.
/// Returns `(payload_bytes, ended, clean)`: `clean` is false if the scan
/// stopped at a torn or corrupted record (payload bytes before the tear are
/// still recovered).
fn scan_segment(path: &Path, out: &mut Vec<u8>) -> io::Result<(u64, bool, bool)> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let mut pos = 0usize;
    let mut payload_bytes = 0u64;
    let mut ended = false;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        let body_start = pos + 8;
        let body_end = match body_start.checked_add(len) {
            Some(e) if e <= bytes.len() && len >= 1 => e,
            _ => return Ok((payload_bytes, ended, false)), // torn tail
        };
        let body = &bytes[body_start..body_end];
        if crc32(body) != crc {
            return Ok((payload_bytes, ended, false)); // corrupted record
        }
        match body[0] {
            REC_DATA => {
                out.extend_from_slice(&body[1..]);
                payload_bytes += (len - 1) as u64;
            }
            REC_END => ended = true,
            _ => return Ok((payload_bytes, ended, false)), // unknown kind
        }
        pos = body_end;
    }
    // Trailing partial header (< 8 bytes) is a torn tail too, but the
    // records before it are all valid.
    Ok((payload_bytes, ended, pos == bytes.len()))
}

/// Read back everything the durable directory holds for `token`: queries,
/// the latest snapshot (if any), and the longest valid WAL prefix.
/// Returns `Ok(None)` if no such session directory exists.
pub fn recover(root: &Path, token: &str) -> io::Result<Option<RecoveredSession>> {
    let dir = root.join(token);
    if !dir.is_dir() {
        return Ok(None);
    }
    let queries_text = fs::read_to_string(dir.join("queries.txt"))?;
    let mut queries = Vec::new();
    for line in queries_text.lines() {
        if let Some((name, expr)) = line.split_once('=') {
            queries.push((name.to_string(), expr.to_string()));
        }
    }
    let snapshot = fs::read(dir.join("snapshot.bin")).ok();
    let segments = list_segments(&dir)?;
    let mut wal = Vec::new();
    // After pruning, the earliest retained segment may start past 0; the
    // recovered WAL then covers [wal_start, total).
    let wal_start = segments.first().map(|(s, _)| *s).unwrap_or(0);
    let mut total = wal_start;
    let mut ended = false;
    for (start, path) in segments {
        if start != total {
            break; // gap or duplicate: stop at the valid prefix
        }
        let (payload, seg_ended, _clean) = scan_segment(&path, &mut wal)?;
        total += payload;
        ended |= seg_ended;
        if ended {
            break; // END is always the last record
        }
        // A torn tail does NOT end the scan by itself: a resumed session
        // opens a fresh segment named by the recovered total, so the
        // `start != total` gate above is what distinguishes "torn final
        // segment" (no successor at `total` → loop ends) from "torn
        // mid-log segment followed by a resume's continuation".
    }
    // If pruning removed early segments, `wal` holds only bytes from the
    // first remaining segment onward — but then a snapshot at or past that
    // segment's start exists, so resume never needs the pruned bytes.
    // Callers slice `wal` relative to the first retained segment's start.
    Ok(Some(RecoveredSession {
        queries,
        snapshot,
        wal,
        wal_start,
        ended,
    }))
}

/// Remove a session's durable directory entirely (clean session end).
pub fn remove(root: &Path, token: &str) -> io::Result<()> {
    let dir = root.join(token);
    if dir.is_dir() {
        fs::remove_dir_all(dir)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("spex-durable-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn queries() -> Vec<(String, String)> {
        vec![("q".to_string(), "a.b".to_string())]
    }

    #[test]
    fn wal_round_trips_payloads_and_end() {
        let root = temp_root("roundtrip");
        let mut log = SessionLog::create(&root, "t1", &queries(), FsyncPolicy::Never).unwrap();
        log.append_data(b"<a>").unwrap();
        log.append_data(b"<b/></a>").unwrap();
        log.append_end().unwrap();
        assert_eq!(log.total_bytes(), 11);
        assert!(log.ended());
        drop(log);
        let rec = recover(&root, "t1").unwrap().expect("session exists");
        assert_eq!(rec.queries, queries());
        assert_eq!(rec.wal, b"<a><b/></a>");
        assert!(rec.ended);
        assert!(rec.snapshot.is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_tail_recovers_longest_valid_prefix() {
        let root = temp_root("torn");
        let mut log = SessionLog::create(&root, "t1", &queries(), FsyncPolicy::Never).unwrap();
        log.append_data(b"<a>good</a>").unwrap();
        drop(log);
        // Simulate a crash mid-write: append a record header that promises
        // more bytes than exist.
        let seg = root.join("t1").join(segment_name(0));
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[0xFF, 0x00, 0x00, 0x00, 0xAA, 0xBB]).unwrap();
        drop(f);
        let rec = recover(&root, "t1").unwrap().unwrap();
        assert_eq!(rec.wal, b"<a>good</a>");
        assert!(!rec.ended);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupted_crc_ends_the_segment() {
        let root = temp_root("crc");
        let mut log = SessionLog::create(&root, "t1", &queries(), FsyncPolicy::Never).unwrap();
        log.append_data(b"first").unwrap();
        log.append_data(b"second").unwrap();
        drop(log);
        // Flip a byte inside the second record's payload.
        let seg = root.join("t1").join(segment_name(0));
        let mut bytes = fs::read(&seg).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&seg, &bytes).unwrap();
        let rec = recover(&root, "t1").unwrap().unwrap();
        assert_eq!(rec.wal, b"first");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn resume_opens_fresh_segment_past_torn_tail() {
        let root = temp_root("resume");
        let mut log = SessionLog::create(&root, "t1", &queries(), FsyncPolicy::Never).unwrap();
        log.append_data(b"alpha").unwrap();
        drop(log);
        // Torn garbage after the valid record.
        let seg = root.join("t1").join(segment_name(0));
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[9, 0, 0, 0]).unwrap();
        drop(f);
        let rec = recover(&root, "t1").unwrap().unwrap();
        assert_eq!(rec.wal, b"alpha");
        // Resume appends from the recovered total (5): a new segment.
        let mut log = SessionLog::append_after(&root, "t1", 5, false, FsyncPolicy::Never).unwrap();
        log.append_data(b"-beta").unwrap();
        drop(log);
        let rec = recover(&root, "t1").unwrap().unwrap();
        assert_eq!(rec.wal, b"alpha-beta");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn segments_rotate_and_recover_in_order() {
        let root = temp_root("rotate");
        let mut log = SessionLog::create(&root, "t1", &queries(), FsyncPolicy::Never).unwrap();
        let chunk = vec![b'x'; 700 * 1024];
        log.append_data(&chunk).unwrap(); // < 1 MiB, stays in segment 0
        log.append_data(&chunk).unwrap(); // crosses 1 MiB, rotates after
        log.append_data(b"tail").unwrap(); // lands in segment at 1400 KiB
        drop(log);
        let segs = list_segments(&root.join("t1")).unwrap();
        assert_eq!(segs.len(), 2, "one rotation expected");
        assert_eq!(segs[1].0, 1400 * 1024);
        let rec = recover(&root, "t1").unwrap().unwrap();
        assert_eq!(rec.wal.len(), 1400 * 1024 + 4);
        assert!(rec.wal.ends_with(b"tail"));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn snapshot_is_atomic_and_prune_keeps_needed_segments() {
        let root = temp_root("prune");
        let mut log = SessionLog::create(&root, "t1", &queries(), FsyncPolicy::Never).unwrap();
        let mib = 1024 * 1024;
        let chunk = vec![b'y'; mib as usize];
        // Three closed segments starting at 0, 1 MiB and 2 MiB, and the
        // active one at 3 MiB.
        for _ in 0..3 {
            log.append_data(&chunk).unwrap();
        }
        log.append_data(b"doc2").unwrap();
        log.write_snapshot(b"SNAPSHOT").unwrap();
        let starts = |root: &Path| -> Vec<u64> {
            let segs = list_segments(&root.join("t1")).unwrap();
            segs.into_iter().map(|(start, _)| start).collect()
        };
        assert_eq!(starts(&root), [0, mib, 2 * mib, 3 * mib]);
        // A snapshot at 2 MiB + 5 covers segment 0 and segment 1 (which
        // ends at 2 MiB), but not segment 2.
        log.prune(2 * mib + 5).unwrap();
        assert_eq!(starts(&root), [2 * mib, 3 * mib]);
        // The active segment survives even when the offset passes it.
        log.prune(3 * mib + 4).unwrap();
        drop(log);
        assert_eq!(starts(&root), [3 * mib]);
        let rec = recover(&root, "t1").unwrap().unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"SNAPSHOT"[..]));
        // Recovered WAL now starts at the retained segment's offset.
        assert_eq!(rec.wal_start, 3 * mib);
        assert_eq!(rec.wal, b"doc2");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn tokens_validate_and_mint() {
        assert!(valid_token("s1-123"));
        assert!(valid_token("abc-def-0"));
        assert!(!valid_token(""));
        assert!(!valid_token("../escape"));
        assert!(!valid_token("UPPER"));
        assert!(!valid_token("has space"));
        assert!(!valid_token(&"x".repeat(65)));
        let t = new_token(7);
        assert!(valid_token(&t), "minted token must validate: {t}");
        assert!(t.starts_with("s7-"));
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(
            "always".parse::<FsyncPolicy>().unwrap(),
            FsyncPolicy::Always
        );
        assert_eq!(
            "document".parse::<FsyncPolicy>().unwrap(),
            FsyncPolicy::OnDocument
        );
        assert_eq!("never".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::Never);
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
        assert_eq!(FsyncPolicy::default(), FsyncPolicy::OnDocument);
        assert_eq!(FsyncPolicy::OnDocument.to_string(), "document");
    }

    #[test]
    fn remove_deletes_session_dir() {
        let root = temp_root("remove");
        let log = SessionLog::create(&root, "t1", &queries(), FsyncPolicy::Never).unwrap();
        drop(log);
        assert!(root.join("t1").is_dir());
        remove(&root, "t1").unwrap();
        assert!(!root.join("t1").exists());
        assert!(recover(&root, "t1").unwrap().is_none());
        let _ = fs::remove_dir_all(&root);
    }
}
