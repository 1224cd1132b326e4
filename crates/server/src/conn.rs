//! Shared per-connection state between the reactor (which owns the
//! socket) and the worker that runs the connection's session machine.
//!
//! The reactor is the only thread that touches the socket: it shovels
//! received bytes into the [`Inbox`] and flushes the [`Outbound`] buffer
//! when the socket is writable. The session machine, pinned to one worker,
//! decodes frames out of the inbox and appends frames to the outbound
//! buffer; neither side ever blocks on the other — coordination is a pair
//! of small mutex-guarded buffers and a few atomics.

use crate::poll::Waker;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Pause socket reads once this many undecoded bytes sit in the inbox;
/// the sender is backpressured through TCP instead of server memory.
pub(crate) const INBOX_HIGH: usize = 1 << 20;
/// Resume socket reads once the machine drained the inbox below this.
pub(crate) const INBOX_LOW: usize = 64 * 1024;
/// Suspend a session once this many unsent bytes are buffered outbound;
/// it resumes when the peer has read enough (writability backpressure).
pub(crate) const OUT_HIGH: usize = 256 * 1024;
/// Resume a write-suspended session below this outbound backlog.
pub(crate) const OUT_LOW: usize = 64 * 1024;

/// `Conn::needs` bit: the machine is suspended until input arrives.
pub(crate) const WANT_INPUT: u8 = 1;
/// `Conn::needs` bit: the machine is suspended until the outbound buffer
/// drains below [`OUT_LOW`].
pub(crate) const WANT_WRITE: u8 = 2;

/// Bytes received but not yet decoded, plus the input-side termination
/// state.
#[derive(Default)]
pub(crate) struct Inbox {
    pub(crate) buf: Vec<u8>,
    /// Peer sent EOF (orderly shutdown of its write half).
    pub(crate) ended: bool,
    /// Socket error, or a deadline the reactor imposed (`TimedOut`).
    pub(crate) error: Option<std::io::ErrorKind>,
    /// The reactor disarmed read interest at the [`INBOX_HIGH`] watermark;
    /// the drainer must request a sync once it falls below [`INBOX_LOW`].
    pub(crate) paused: bool,
}

/// Bytes queued toward the socket.
#[derive(Default)]
pub(crate) struct Outbound {
    pub(crate) buf: Vec<u8>,
    /// Prefix of `buf` already written to the socket.
    pub(crate) pos: usize,
    /// Sticky write failure: further frames are dropped, the session
    /// outcome is decided by the input side (or the reactor's deadline).
    pub(crate) dead: bool,
}

impl Outbound {
    /// Unsent byte count.
    pub(crate) fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reclaim the written prefix once it dominates the buffer.
    pub(crate) fn compact(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// One connection's shared state. The reactor holds the socket and one
/// `Arc<Conn>`; the pinned worker's session machine holds another.
pub(crate) struct Conn {
    /// Reactor token, unique for the server's lifetime.
    pub(crate) id: u64,
    /// Peer address (the per-tenant fairness key is its IP).
    pub(crate) peer: Option<SocketAddr>,
    /// Index of the worker this connection is pinned to.
    pub(crate) worker: usize,
    pub(crate) accepted_at: Instant,
    pub(crate) inbox: Mutex<Inbox>,
    pub(crate) outbound: Mutex<Outbound>,
    /// [`WANT_INPUT`] / [`WANT_WRITE`]: why the machine is suspended.
    pub(crate) needs: AtomicU8,
    /// Already sitting in its worker's ready queue (dedupe).
    pub(crate) queued: AtomicBool,
    /// A session machine exists (first bytes were seen).
    pub(crate) started: AtomicBool,
    /// The machine finished; the reactor flushes outbound, then closes.
    pub(crate) done: AtomicBool,
    /// The reactor hard-closed the connection (write deadline, shutdown);
    /// the machine short-circuits to `Failed`.
    pub(crate) killed: AtomicBool,
    /// Milliseconds after `accepted_at` of the last *completed* frame
    /// (u64::MAX = none yet) — the idle-reaping clock: a slowloris peer
    /// trickling bytes that never finish a frame does not refresh it.
    pub(crate) last_frame_ms: AtomicU64,
    /// When the connection first became runnable (first bytes), for the
    /// admission-wait histogram; taken by the worker on first pop.
    pub(crate) first_ready: Mutex<Option<Instant>>,
}

impl Conn {
    pub(crate) fn new(id: u64, peer: Option<SocketAddr>, worker: usize) -> Conn {
        Conn {
            id,
            peer,
            worker,
            accepted_at: Instant::now(),
            inbox: Mutex::new(Inbox::default()),
            outbound: Mutex::new(Outbound::default()),
            needs: AtomicU8::new(0),
            queued: AtomicBool::new(false),
            started: AtomicBool::new(false),
            done: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            last_frame_ms: AtomicU64::new(u64::MAX),
            first_ready: Mutex::new(None),
        }
    }

    /// Append one frame to the outbound buffer (dropped after a sticky
    /// write failure, like the old blocking `FrameWriter`). The reactor
    /// learns about the new bytes at the next sync.
    pub(crate) fn send_frame(&self, kind: crate::protocol::FrameKind, payload: &[u8]) {
        let mut out = self.outbound.lock().expect("outbound lock poisoned");
        if out.dead {
            return;
        }
        out.buf.push(kind.byte());
        out.buf
            .extend_from_slice(&(payload.len() as u32).to_be_bytes());
        out.buf.extend_from_slice(payload);
    }

    /// Unsent outbound bytes.
    pub(crate) fn outbound_pending(&self) -> usize {
        self.outbound
            .lock()
            .expect("outbound lock poisoned")
            .pending()
    }

    /// Record a completed inbound frame, refreshing the idle clock.
    /// Returns whether this was the connection's *first* complete frame
    /// (for the accept-to-first-frame histogram).
    pub(crate) fn note_frame_complete(&self) -> bool {
        let ms = self.accepted_at.elapsed().as_millis() as u64;
        self.last_frame_ms.swap(ms, Ordering::Relaxed) == u64::MAX
    }

    /// After draining the inbox: if the reactor had paused reads at the
    /// high watermark, ask it to reconcile (and re-arm) this connection.
    pub(crate) fn note_inbox_drained(&self, notifier: &Notifier) {
        let paused = {
            let inbox = self.inbox.lock().expect("inbox lock poisoned");
            inbox.paused && inbox.buf.len() < INBOX_LOW
        };
        if paused {
            notifier.sync(self.id);
        }
    }
}

/// The worker→reactor command channel: connection ids whose shared state
/// changed (new outbound bytes, a drained inbox, a finished machine). The
/// reactor drains it after every poll wakeup and reconciles each listed
/// connection against its socket interest set.
pub(crate) struct Notifier {
    cmds: Mutex<Vec<u64>>,
    waker: Waker,
}

impl Notifier {
    pub(crate) fn new(waker: Waker) -> Notifier {
        Notifier {
            cmds: Mutex::new(Vec::new()),
            waker,
        }
    }

    /// Ask the reactor to reconcile connection `id`.
    pub(crate) fn sync(&self, id: u64) {
        let mut cmds = self.cmds.lock().expect("cmd lock poisoned");
        let wake = cmds.is_empty();
        cmds.push(id);
        drop(cmds);
        if wake {
            self.waker.wake();
        }
    }

    /// Wake the reactor without a specific connection (shutdown).
    pub(crate) fn wake(&self) {
        self.waker.wake();
    }

    pub(crate) fn drain(&self, into: &mut Vec<u64>) {
        let mut cmds = self.cmds.lock().expect("cmd lock poisoned");
        into.append(&mut cmds);
    }
}
