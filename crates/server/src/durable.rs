//! Durable session state: one self-contained write-ahead log per session,
//! so a killed server (or dropped connection) can resume a session with
//! byte-identical continuation output.
//!
//! Layout under the configured durable root (`--durable-dir`):
//!
//! ```text
//! <root>/<token>/
//!     queries.txt                   one `name=expr` line per registered query
//!     wal-00000000000000123456.log  the log: the snapshot that resumes at
//!                                   input offset 123456 (none at offset 0),
//!                                   then the input records after it
//!     wal.tmp                       the next log, only while a roll writes it
//! ```
//!
//! Each record is `len: u32 LE` + `crc32: u32 LE` (over kind byte and
//! payload) + `kind: u8` + payload. `kind` is [`REC_SNAPSHOT`] for the head
//! of a log past offset 0, [`REC_DATA`] for a data frame payload, or
//! [`REC_END`] for the end-of-stream marker (empty payload).
//!
//! A *roll* ([`SessionLog::roll`]) replaces the log at a document boundary
//! when one is due ([`SessionLog::roll_due`]): the snapshot, the input bytes
//! the parser has not consumed yet and the END record (if logged) go into
//! `wal.tmp`, which is synced unless `--fsync` is `never`, renamed to
//! `wal-<boundary offset>.log`, and the older log is deleted. Recovery reads the log with the highest offset: a roll cut off
//! before its rename leaves the old log whole, one cut off after it leaves
//! an older log the newer one supersedes. It takes that log's longest valid
//! prefix (a torn or corrupted record ends it), and a resume truncates the
//! log to that prefix and appends after it.

use spex_core::snapshot::{crc32, Crc32};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// Userspace write buffer on the log. Appends are coalesced into
/// buffer-sized `write` calls; every sync point flushes the buffer first,
/// so the durability guarantees of each [`FsyncPolicy`] are unchanged —
/// only the per-append syscall cost goes away.
const LOG_BUF: usize = 64 * 1024;

/// The file a roll writes the next log into before renaming it.
const ROLL_TMP: &str = "wal.tmp";

/// Log record kind: the payload of one `Data` frame.
pub const REC_DATA: u8 = 1;
/// Log record kind: the client ended its input stream (empty payload).
pub const REC_END: u8 = 2;
/// Log record kind: the encoded snapshot that resumes at the log's offset.
/// Only ever the first record of a log past offset 0.
pub const REC_SNAPSHOT: u8 = 3;

/// When the session log calls `fsync`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Sync after every appended record — maximal durability, slowest.
    Always,
    /// Sync at a document boundary when records were appended since the
    /// last sync, at every roll and at end-of-stream. The default: a crash
    /// loses at most the tail of the in-flight document, which the client
    /// still holds.
    #[default]
    OnDocument,
    /// Never sync explicitly; rely on the OS flushing dirty pages. The
    /// cheapest policy: only a kernel or power failure can lose logged
    /// bytes.
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

/// Filename of the log whose head snapshot resumes at input offset `start`.
fn log_name(start: u64) -> String {
    format!("wal-{start:020}.log")
}

/// Write one record; returns the bytes written.
fn write_record(out: &mut impl Write, kind: u8, payload: &[u8]) -> io::Result<u64> {
    let mut crc = Crc32::new();
    crc.update(&[kind]);
    crc.update(payload);
    let mut header = [0u8; 9];
    header[..4].copy_from_slice(&((1 + payload.len()) as u32).to_le_bytes());
    header[4..8].copy_from_slice(&crc.finish().to_le_bytes());
    header[8] = kind;
    out.write_all(&header)?;
    out.write_all(payload)?;
    Ok((header.len() + payload.len()) as u64)
}

/// Everything read back from a session's durable directory at resume time.
#[derive(Debug)]
pub struct RecoveredSession {
    /// Registered queries, in registration order, as `(name, expression)`.
    pub queries: Vec<(String, String)>,
    /// The log's head snapshot, absent for a log at offset 0.
    pub snapshot: Option<Vec<u8>>,
    /// Every valid data record after the head, concatenated in order.
    pub wal: Vec<u8>,
    /// Input offset of `wal`'s first byte: the offset the head snapshot
    /// resumes at (0 without one).
    pub wal_start: u64,
    /// True if the log records that the client already ended its stream.
    pub ended: bool,
}

/// A session directory read back: the recovered state, the log it came
/// from, that log's valid prefix, and the files an interrupted roll left.
struct Scan {
    recovered: RecoveredSession,
    path: PathBuf,
    valid: u64,
    stale: Vec<PathBuf>,
}

/// Read the session directory `dir`; `Ok(None)` if it does not exist. A
/// log past offset 0 that does not open with a snapshot record (a torn
/// head, or the segment layout of earlier builds) is an `InvalidData`
/// error: resuming without its snapshot would be a wrong resume.
fn scan(dir: &Path) -> io::Result<Option<Scan>> {
    if !dir.is_dir() {
        return Ok(None);
    }
    let queries = fs::read_to_string(dir.join("queries.txt"))?
        .lines()
        .filter_map(|line| line.split_once('='))
        .map(|(name, expr)| (name.to_string(), expr.to_string()))
        .collect();
    let mut logs = Vec::new();
    let mut stale = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        let start = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|digits| digits.parse::<u64>().ok());
        match start {
            Some(start) => logs.push((start, path)),
            None if name == ROLL_TMP => stale.push(path),
            None => {}
        }
    }
    logs.sort();
    // Created with `queries.txt` but killed before its first log: empty.
    let (start, path) = logs.pop().unwrap_or_else(|| (0, dir.join(log_name(0))));
    stale.extend(logs.into_iter().map(|(_, older)| older));
    let bytes = match fs::read(&path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        read => read?,
    };

    let mut recovered = RecoveredSession {
        queries,
        snapshot: None,
        wal: Vec::new(),
        wal_start: start,
        ended: false,
    };
    let mut pos = 0usize;
    while let Some((kind, payload)) = read_record(&bytes[pos..]) {
        match kind {
            REC_SNAPSHOT if pos == 0 && start > 0 => recovered.snapshot = Some(payload.to_vec()),
            REC_DATA => recovered.wal.extend_from_slice(payload),
            REC_END => recovered.ended = true,
            _ => break, // unknown kind, or a snapshot out of place
        }
        pos += 9 + payload.len();
    }
    if start > 0 && recovered.snapshot.is_none() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} does not open with a snapshot", log_name(start)),
        ));
    }
    Ok(Some(Scan {
        recovered,
        path,
        valid: pos as u64,
        stale,
    }))
}

/// Decode the record at the front of `bytes`: `None` if it is torn (cut
/// off, or shorter than its kind byte) or fails its checksum.
fn read_record(bytes: &[u8]) -> Option<(u8, &[u8])> {
    let len = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
    let crc = u32::from_le_bytes(bytes.get(4..8)?.try_into().ok()?);
    let body = bytes.get(8..8usize.checked_add(len)?)?;
    (!body.is_empty() && crc32(body) == crc).then(|| (body[0], &body[1..]))
}

/// Read back everything the durable directory holds for `token`: queries,
/// the log's head snapshot (if any), and the longest valid prefix of its
/// input records. Returns `Ok(None)` if no such session directory exists.
pub fn recover(root: &Path, token: &str) -> io::Result<Option<RecoveredSession>> {
    Ok(scan(&root.join(token))?.map(|scan| scan.recovered))
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
    file: BufWriter<File>,
    /// The live log, `wal-<start>.log`.
    path: PathBuf,
    /// Input offset the head snapshot resumes at (0: no head).
    start: u64,
    /// Encoded size of the head snapshot (0 without one).
    head_bytes: u64,
    /// Total input bytes recorded (parse offset of the next input byte).
    total: u64,
    ended: bool,
    /// This handle has rolled the log at least once.
    rolled: bool,
    /// Records were appended since the last sync point.
    dirty: bool,
    /// Raw log bytes written by this handle (records incl. headers, rolls
    /// included) — the `wal.bytes` trace counter.
    wal_bytes: u64,
    /// `fdatasync` calls made by this handle.
    syncs: u64,
}

impl SessionLog {
    /// Create a fresh session directory, writing `queries.txt` so the
    /// session can be re-registered at resume, and open its log at offset 0.
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
        let (log, _) = SessionLog::resume(root, token, fsync)?.ok_or(io::ErrorKind::NotFound)?;
        Ok(log)
    }

    /// Reopen the log of the session `token` for a new life: read it back
    /// ([`recover`]), delete what an interrupted roll left, truncate the log
    /// to its valid prefix and append after it. `Ok(None)` if there is no
    /// such session.
    pub fn resume(
        root: &Path,
        token: &str,
        fsync: FsyncPolicy,
    ) -> io::Result<Option<(Self, RecoveredSession)>> {
        let dir = root.join(token);
        let Some(scan) = scan(&dir)? else {
            return Ok(None);
        };
        for stale in &scan.stale {
            fs::remove_file(stale)?;
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&scan.path)?;
        file.set_len(scan.valid)?;
        let rec = scan.recovered;
        let log = SessionLog {
            dir,
            fsync,
            file: BufWriter::with_capacity(LOG_BUF, file),
            path: scan.path,
            start: rec.wal_start,
            head_bytes: rec.snapshot.as_ref().map_or(0, |s| s.len() as u64),
            total: rec.wal_start + rec.wal.len() as u64,
            ended: rec.ended,
            rolled: false,
            dirty: false,
            wal_bytes: 0,
            syncs: 0,
        };
        Ok(Some((log, rec)))
    }

    /// Total input bytes recorded (parse offset of the next input byte).
    pub fn total_bytes(&self) -> u64 {
        self.total
    }

    /// Raw log bytes written by this handle (headers and rolls included).
    pub fn wal_bytes_written(&self) -> u64 {
        self.wal_bytes
    }

    /// `fdatasync` calls made by this handle.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// True once [`SessionLog::append_end`] has been recorded.
    pub fn ended(&self) -> bool {
        self.ended
    }

    /// Hand the buffered records to the OS and, unless the policy is
    /// `never`, sync them.
    fn sync(&mut self) -> io::Result<()> {
        self.file.flush()?;
        if self.fsync != FsyncPolicy::Never {
            self.file.get_ref().sync_data()?;
            self.syncs += 1;
        }
        self.dirty = false;
        Ok(())
    }

    fn append_record(&mut self, kind: u8, payload: &[u8]) -> io::Result<()> {
        self.wal_bytes += write_record(&mut self.file, kind, payload)?;
        self.total += payload.len() as u64;
        self.dirty = true;
        if self.fsync == FsyncPolicy::Always {
            self.sync()?;
        }
        Ok(())
    }

    /// Append one data-frame payload. Must be called before the engine
    /// consumes the bytes (write-*ahead*).
    pub fn append_data(&mut self, payload: &[u8]) -> io::Result<()> {
        self.append_record(REC_DATA, payload)
    }

    /// Record the client's end-of-stream marker. It always reaches the OS —
    /// even under `never` a clean process exit leaves a complete log.
    pub fn append_end(&mut self) -> io::Result<()> {
        self.append_record(REC_END, &[])?;
        self.ended = true;
        self.sync()
    }

    /// Document-boundary sync point: the records appended since the last
    /// one reach the OS, and are synced unless the policy is `never`. A
    /// boundary with nothing new to sync costs nothing, so a frame of many
    /// documents is synced once.
    pub fn sync_for_document(&mut self) -> io::Result<()> {
        if self.dirty {
            self.sync()?;
        }
        Ok(())
    }

    /// Whether a roll at the boundary at input offset `offset`, carrying
    /// `carried` unconsumed bytes, is due: at this handle's first boundary,
    /// and after that once the input consumed since the head is at least
    /// the head's snapshot size plus `carried`. Rolls then write at most
    /// about as many bytes as the input, and a resume replays at most one
    /// snapshot's worth of input plus one frame and one document.
    pub fn roll_due(&self, offset: u64, carried: usize) -> bool {
        !self.rolled || offset - self.start >= self.head_bytes + carried as u64
    }

    /// Remove the session's durable directory entirely (clean session end).
    pub fn remove(self) -> io::Result<()> {
        fs::remove_dir_all(&self.dir)
    }

    /// Replace the log at the document boundary at input offset `offset`:
    /// write `snapshot` (which resumes there), the `unconsumed` input bytes
    /// and, if logged, END into the roll's temp file, sync it unless the
    /// policy is `never`, rename it to `wal-<offset>.log` and delete the
    /// older log. A failure before the rename leaves the old log live.
    pub fn roll(&mut self, offset: u64, snapshot: &[u8], unconsumed: &[u8]) -> io::Result<()> {
        debug_assert_eq!(
            offset + unconsumed.len() as u64,
            self.total,
            "a roll must carry every logged byte past its boundary"
        );
        let tmp = self.dir.join(ROLL_TMP);
        let mut file = BufWriter::with_capacity(LOG_BUF, File::create(&tmp)?);
        let mut bytes = write_record(&mut file, REC_SNAPSHOT, snapshot)?;
        bytes += write_record(&mut file, REC_DATA, unconsumed)?;
        if self.ended {
            bytes += write_record(&mut file, REC_END, &[])?;
        }
        file.flush()?;
        if self.fsync != FsyncPolicy::Never {
            file.get_ref().sync_data()?;
            self.syncs += 1;
        }
        let path = self.dir.join(log_name(offset));
        fs::rename(&tmp, &path)?;
        // The old log's buffered records are superseded: drop them unwritten.
        let _ = std::mem::replace(&mut self.file, file).into_parts();
        self.dirty = false;
        let old = std::mem::replace(&mut self.path, path);
        self.start = offset;
        self.head_bytes = snapshot.len() as u64;
        self.rolled = true;
        self.wal_bytes += bytes;
        if self.fsync != FsyncPolicy::Never {
            // The rename is durable before the log it supersedes goes.
            File::open(&self.dir)?.sync_all()?;
        }
        if old != self.path {
            fs::remove_file(old)?;
        }
        Ok(())
    }
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

    /// The file names in a session directory, sorted.
    fn files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// The input a recovered session stands for, from its resume offset on.
    fn resumes_at(rec: &RecoveredSession) -> (u64, &[u8], bool) {
        (rec.wal_start, &rec.wal, rec.ended)
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
        let path = root.join("t1").join(log_name(0));
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xFF, 0x00, 0x00, 0x00, 0xAA, 0xBB]).unwrap();
        drop(f);
        let rec = recover(&root, "t1").unwrap().unwrap();
        assert_eq!(rec.wal, b"<a>good</a>");
        assert!(!rec.ended);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupted_crc_ends_the_log() {
        let root = temp_root("crc");
        let mut log = SessionLog::create(&root, "t1", &queries(), FsyncPolicy::Never).unwrap();
        log.append_data(b"first").unwrap();
        log.append_data(b"second").unwrap();
        drop(log);
        // Flip a byte inside the second record's payload.
        let path = root.join("t1").join(log_name(0));
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let rec = recover(&root, "t1").unwrap().unwrap();
        assert_eq!(rec.wal, b"first");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn resume_truncates_a_torn_tail_and_appends_after_it() {
        let root = temp_root("resume");
        let mut log = SessionLog::create(&root, "t1", &queries(), FsyncPolicy::Never).unwrap();
        log.append_data(b"alpha").unwrap();
        drop(log);
        let path = root.join("t1").join(log_name(0));
        let valid = fs::metadata(&path).unwrap().len();
        // Torn garbage after the valid record.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[9, 0, 0, 0]).unwrap();
        drop(f);
        let (mut log, rec) = SessionLog::resume(&root, "t1", FsyncPolicy::Never)
            .unwrap()
            .unwrap();
        assert_eq!(rec.wal, b"alpha");
        assert_eq!(log.total_bytes(), 5);
        assert_eq!(fs::metadata(&path).unwrap().len(), valid, "tail not cut");
        log.append_data(b"-beta").unwrap();
        drop(log);
        let rec = recover(&root, "t1").unwrap().unwrap();
        assert_eq!(rec.wal, b"alpha-beta");
        assert_eq!(files(&root.join("t1")), ["queries.txt", &log_name(0)]);
        assert!(SessionLog::resume(&root, "t2", FsyncPolicy::Never)
            .unwrap()
            .is_none());
        let _ = fs::remove_dir_all(&root);
    }

    /// A roll replaces the log with one that opens with the snapshot and
    /// carries the unconsumed bytes: the session directory holds one log,
    /// which recovers the same input, and appends continue after it.
    #[test]
    fn a_roll_leaves_one_log_that_recovers_the_same_input() {
        let root = temp_root("roll");
        let mut log = SessionLog::create(&root, "t1", &queries(), FsyncPolicy::Always).unwrap();
        log.append_data(b"<a/><b").unwrap();
        log.append_data(b"/><c/>").unwrap();
        assert!(log.roll_due(4, 8), "the first boundary of a life rolls");
        log.roll(4, b"SNAP", b"<b/><c/>").unwrap();
        assert_eq!(files(&root.join("t1")), ["queries.txt", &log_name(4)]);
        let rec = recover(&root, "t1").unwrap().unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"SNAP"[..]));
        assert_eq!(resumes_at(&rec), (4, &b"<b/><c/>"[..], false));
        // Due again once the input consumed since the head (offset 4) is
        // the head's 4 snapshot bytes plus what the roll would carry.
        assert!(!log.roll_due(8, 4));
        assert!(log.roll_due(8, 0));
        assert!(log.roll_due(12, 0));
        log.append_data(b"<d/>").unwrap();
        log.append_end().unwrap();
        log.roll(12, b"SNAP2", b"<d/>").unwrap();
        drop(log);
        assert_eq!(files(&root.join("t1")), ["queries.txt", &log_name(12)]);
        let rec = recover(&root, "t1").unwrap().unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"SNAP2"[..]));
        assert_eq!(resumes_at(&rec), (12, &b"<d/>"[..], true));
        let _ = fs::remove_dir_all(&root);
    }

    /// A roll cut off at any point recovers the same input: the temp file
    /// torn at every byte (the old log is whole beside it), or renamed with
    /// the old log not yet deleted. A resume then leaves one log.
    #[test]
    fn a_roll_cut_off_anywhere_recovers_the_same_input() {
        let root = temp_root("cut");
        let input = b"<a/><b/><c/>";
        let mut log = SessionLog::create(&root, "t1", &queries(), FsyncPolicy::Never).unwrap();
        log.append_data(input).unwrap();
        log.sync_for_document().unwrap();
        let old = fs::read(root.join("t1").join(log_name(0))).unwrap();
        log.roll(4, b"SNAPSHOT", &input[4..]).unwrap();
        drop(log);
        let rolled = fs::read(root.join("t1").join(log_name(4))).unwrap();
        let full = |rec: &RecoveredSession| -> Vec<u8> {
            let mut bytes = input[..rec.wal_start as usize].to_vec();
            bytes.extend_from_slice(&rec.wal);
            bytes
        };

        let cut = |tmp: Option<&[u8]>, new: bool| {
            let _ = fs::remove_dir_all(root.join("t2"));
            drop(SessionLog::create(&root, "t2", &queries(), FsyncPolicy::Never).unwrap());
            let dir = root.join("t2");
            fs::write(dir.join(log_name(0)), &old).unwrap();
            if let Some(tmp) = tmp {
                fs::write(dir.join(ROLL_TMP), tmp).unwrap();
            }
            if new {
                fs::write(dir.join(log_name(4)), &rolled).unwrap();
            }
            let rec = recover(&root, "t2").unwrap().unwrap();
            assert_eq!(full(&rec), input, "tmp {tmp:?} new {new}");
            assert!(!rec.ended);
            assert_eq!(rec.snapshot.is_some(), new);
            let (log, _) = SessionLog::resume(&root, "t2", FsyncPolicy::Never)
                .unwrap()
                .unwrap();
            assert_eq!(log.total_bytes(), input.len() as u64);
            let live = log_name(if new { 4 } else { 0 });
            assert_eq!(files(&dir), ["queries.txt", &live]);
        };
        for torn in 0..=rolled.len() {
            cut(Some(&rolled[..torn]), false);
        }
        cut(None, true);
        let _ = fs::remove_dir_all(&root);
    }

    /// A directory in the segment layout of earlier builds — a log past
    /// offset 0 that starts with a DATA record, beside `snapshot.bin` — is
    /// an error, never a resume that skips the missing input.
    #[test]
    fn a_log_without_its_head_snapshot_is_an_error() {
        let root = temp_root("layout");
        drop(SessionLog::create(&root, "t1", &queries(), FsyncPolicy::Never).unwrap());
        let dir = root.join("t1");
        fs::remove_file(dir.join(log_name(0))).unwrap();
        let mut segment = Vec::new();
        write_record(&mut segment, REC_DATA, b"<b/>").unwrap();
        fs::write(dir.join(log_name(1 << 20)), &segment).unwrap();
        fs::write(dir.join("snapshot.bin"), b"SPXS").unwrap();
        let err = recover(&root, "t1").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = SessionLog::resume(&root, "t1", FsyncPolicy::Never).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = fs::remove_dir_all(&root);
    }

    /// `document` syncs at a boundary only when records were appended
    /// since the last sync: one frame of a thousand documents, one sync.
    #[test]
    fn document_policy_syncs_once_per_append() {
        let root = temp_root("syncs");
        let syncs = |fsync: FsyncPolicy| {
            let mut log = SessionLog::create(&root, fsync.as_str(), &queries(), fsync).unwrap();
            log.append_data(b"<a/>").unwrap();
            for _ in 0..1000 {
                log.sync_for_document().unwrap();
            }
            log.append_data(b"<a/>").unwrap();
            log.sync_for_document().unwrap();
            log.sync_for_document().unwrap();
            log.syncs()
        };
        assert_eq!(syncs(FsyncPolicy::OnDocument), 2);
        assert_eq!(syncs(FsyncPolicy::Always), 2);
        assert_eq!(syncs(FsyncPolicy::Never), 0);
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
        assert!(root.join("t1").is_dir());
        log.remove().unwrap();
        assert!(!root.join("t1").exists());
        assert!(recover(&root, "t1").unwrap().is_none());
        let _ = fs::remove_dir_all(&root);
    }
}
