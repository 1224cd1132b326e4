//! The reactor: one thread that owns every socket and does nothing but
//! byte shoveling — accept, nonblocking reads into per-connection inboxes,
//! outbound-buffer flushes, deadlines, close. All protocol work happens in
//! [`SessionMachine`]s on the worker pool; the two sides meet only in the
//! [`Conn`] buffers and a handful of atomics.
//!
//! ## Scheduling
//!
//! A connection becomes *ready* when its first bytes arrive, when input
//! lands while its machine is suspended on [`WANT_INPUT`], or when the
//! outbound backlog drains below [`OUT_LOW`] while it is suspended on
//! [`WANT_WRITE`]. Ready connections are enqueued to the worker they are
//! pinned to (connection id modulo pool size — the engine run is not
//! `Send`, so a machine never migrates). Each worker's queue is fair *per
//! tenant*: connections are bucketed by peer IP and buckets are served
//! round-robin, so one tenant opening a thousand hot connections cannot
//! starve another tenant's single session; within its slice a machine is
//! bounded to a fixed event budget before it is rotated to the back.
//!
//! ## Suspend/resume protocol
//!
//! The worker, after a machine reports `NeedInput`/`NeedWrite`, sets the
//! matching `Conn::needs` bit and *re-checks* the condition; the reactor,
//! on the matching edge, *clears* the bit and enqueues if it was set.
//! Whichever side loses the race still observes the other's write, so a
//! wakeup is never lost.
//!
//! ## Deadlines
//!
//! A binary heap of `(instant, conn, kind)` with lazy re-validation: each
//! entry is checked against the connection's authoritative clock when it
//! pops, and pushed back if the clock moved. Read deadlines re-arm on any
//! ingress; idle deadlines re-arm only on a *completed* frame (so a
//! slowloris peer trickling single bytes is reaped); write deadlines fire
//! when the peer accepts no bytes for the whole window while output is
//! pending.

use crate::conn::{Conn, INBOX_HIGH, INBOX_LOW, OUT_LOW, WANT_INPUT, WANT_WRITE};
use crate::poll::{fd_of, fd_of_listener, soft_fd_limit, Interest, Poller, WAKE_TOKEN};
use crate::server::Shared;
use crate::session::{Advance, SessionEnd, SessionMachine};
use crate::signal;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The listener's poll token; connection ids start at 1.
const LISTENER_TOKEN: u64 = 0;

/// How long a rejected (`BUSY`) or drain-abandoned connection may take to
/// flush before it is dropped.
const GRACE: Duration = Duration::from_millis(250);

/// File descriptors reserved for everything that is not a connection
/// (listener, waker pair, trace sink, durable logs, stdio).
const FD_HEADROOM: u64 = 64;

/// Fairness bucket for peers with no resolvable address.
const NO_PEER: IpAddr = IpAddr::V4(Ipv4Addr::UNSPECIFIED);

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum DlKind {
    Read,
    Idle,
    Write,
    Grace,
}

/// Reactor-side state for one registered socket.
struct Active {
    conn: Arc<Conn>,
    stream: TcpStream,
    interest: Interest,
    /// Last time any bytes arrived (the read-deadline clock).
    last_ingress: Instant,
    /// Set while a nonempty outbound buffer is making no progress (the
    /// write-deadline clock); cleared on any accepted byte.
    write_stall_since: Option<Instant>,
    /// A `BUSY` shed: flush the one frame, then close. Never a machine.
    reject: bool,
}

pub(crate) struct Reactor {
    shared: Arc<Shared>,
    poller: Poller,
    listener: Option<TcpListener>,
    conns: HashMap<u64, Active>,
    deadlines: BinaryHeap<Reverse<(Instant, u64, DlKind)>>,
    next_id: u64,
    /// Effective concurrent-connection cap: `cfg.max_conns` clamped under
    /// the process's soft fd limit.
    max_conns: usize,
    draining: bool,
    /// Scratch buffers reused across iterations.
    events: Vec<crate::poll::PollEvent>,
    cmds: Vec<u64>,
}

impl Reactor {
    pub(crate) fn new(
        shared: Arc<Shared>,
        poller: Poller,
        listener: TcpListener,
    ) -> std::io::Result<Reactor> {
        let mut poller = poller;
        poller.register(fd_of_listener(&listener), LISTENER_TOKEN, Interest::READ)?;
        let mut max_conns = shared.cfg.max_conns.max(1);
        if let Some(limit) = soft_fd_limit() {
            let usable = limit.saturating_sub(FD_HEADROOM).max(8) as usize;
            max_conns = max_conns.min(usable);
        }
        Ok(Reactor {
            shared,
            poller,
            listener: Some(listener),
            conns: HashMap::new(),
            deadlines: BinaryHeap::new(),
            next_id: 1,
            max_conns,
            draining: false,
            events: Vec::new(),
            cmds: Vec::new(),
        })
    }

    /// Shovel bytes until shutdown is requested and every connection has
    /// drained. Never returns early on transient I/O errors.
    pub(crate) fn run(mut self) {
        loop {
            if self.shared.cfg.watch_signals && signal::requested() {
                self.shared.begin_shutdown();
            }
            if !self.draining && self.shared.shutdown.load(Ordering::SeqCst) {
                self.start_drain();
            }
            if self.draining && self.conns.is_empty() {
                return;
            }
            let timeout = self.next_timeout();
            let mut events = std::mem::take(&mut self.events);
            events.clear();
            if self.poller.wait(Some(timeout), &mut events).is_err() {
                // A failed wait (EBADF from a torn-down fd, say) must not
                // spin the thread; back off and retry.
                std::thread::sleep(Duration::from_millis(1));
            }
            for ev in &events {
                match ev.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKE_TOKEN => {}
                    id => {
                        if ev.readable {
                            self.read_ready(id);
                        }
                        if ev.writable {
                            self.flush(id);
                        }
                    }
                }
            }
            self.events = events;
            self.drain_notifier();
            self.fire_deadlines();
        }
    }

    fn next_timeout(&mut self) -> Duration {
        let cap = Duration::from_millis(100);
        match self.deadlines.peek() {
            Some(Reverse((when, _, _))) => when.saturating_duration_since(Instant::now()).min(cap),
            None => cap,
        }
    }

    fn arm(&mut self, when: Instant, id: u64, kind: DlKind) {
        self.deadlines.push(Reverse((when, id, kind)));
    }

    // --- Accept ----------------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    if self.conns.len() >= self.max_conns {
                        self.reject(stream, Some(peer));
                        continue;
                    }
                    let id = self.next_id;
                    self.next_id += 1;
                    let worker = id as usize % self.shared.workers.len();
                    let conn = Arc::new(Conn::new(id, Some(peer), worker));
                    if self
                        .poller
                        .register(fd_of(&stream), id, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    let now = Instant::now();
                    if let Some(t) = self.shared.cfg.read_timeout {
                        self.arm(now + t, id, DlKind::Read);
                    }
                    if let Some(t) = self.shared.cfg.idle_timeout {
                        self.arm(now + t, id, DlKind::Idle);
                    }
                    self.conns.insert(
                        id,
                        Active {
                            conn,
                            stream,
                            interest: Interest::READ,
                            last_ingress: now,
                            write_stall_since: None,
                            reject: false,
                        },
                    );
                    self.shared
                        .stats
                        .sessions_started
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // Transient accept failures (EMFILE, aborted handshake):
                // skip, the next readiness report retries.
                Err(_) => return,
            }
        }
    }

    /// Shed a connection with a single `BUSY` frame. The frame usually
    /// fits the socket buffer of a fresh connection; if it does not, the
    /// socket is registered for writability under a short grace deadline.
    fn reject(&mut self, stream: TcpStream, peer: Option<std::net::SocketAddr>) {
        self.shared
            .stats
            .sessions_rejected
            .fetch_add(1, Ordering::Relaxed);
        let id = self.next_id;
        self.next_id += 1;
        let conn = Arc::new(Conn::new(id, peer, 0));
        conn.send_frame(crate::protocol::FrameKind::Busy, b"");
        let active = Active {
            conn,
            stream,
            interest: Interest {
                read: false,
                write: true,
            },
            last_ingress: Instant::now(),
            write_stall_since: None,
            reject: true,
        };
        self.conns.insert(id, active);
        self.flush(id);
        if self.conns.contains_key(&id) {
            let registered = {
                let active = &self.conns[&id];
                self.poller
                    .register(
                        fd_of(&active.stream),
                        id,
                        Interest {
                            read: false,
                            write: true,
                        },
                    )
                    .is_ok()
            };
            if registered {
                self.arm(Instant::now() + GRACE, id, DlKind::Grace);
            } else {
                self.conns.remove(&id);
            }
        }
    }

    // --- Socket I/O ------------------------------------------------------

    fn read_ready(&mut self, id: u64) {
        let Some(active) = self.conns.get_mut(&id) else {
            return;
        };
        if active.reject {
            // Anything the peer sends after a BUSY is discarded; a hangup
            // shows up as the flush failing.
            let mut sink = [0u8; 4096];
            while matches!(active.stream.read(&mut sink), Ok(n) if n > 0) {}
            return;
        }
        let mut buf = [0u8; 32 * 1024];
        let mut ingress = false;
        loop {
            let full = {
                let inbox = active.conn.inbox.lock().expect("inbox lock poisoned");
                inbox.ended || inbox.error.is_some() || inbox.buf.len() >= INBOX_HIGH
            };
            if full {
                break;
            }
            match active.stream.read(&mut buf) {
                Ok(0) => {
                    active.conn.inbox.lock().expect("inbox lock poisoned").ended = true;
                    ingress = true;
                    break;
                }
                Ok(n) => {
                    let mut inbox = active.conn.inbox.lock().expect("inbox lock poisoned");
                    inbox.buf.extend_from_slice(&buf[..n]);
                    if inbox.buf.len() >= INBOX_HIGH {
                        // Backpressure the sender through TCP: stop
                        // reading until the machine drains the inbox.
                        inbox.paused = true;
                    }
                    ingress = true;
                    if n < buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    let mut inbox = active.conn.inbox.lock().expect("inbox lock poisoned");
                    if inbox.error.is_none() {
                        inbox.error = Some(e.kind());
                    }
                    ingress = true;
                    break;
                }
            }
        }
        if ingress {
            active.last_ingress = Instant::now();
            self.on_ingress(id);
        }
        self.update_interest(id);
    }

    /// React to new inbox content: spin up the session (first bytes), or
    /// resume a machine suspended on input. Machine-less terminations (a probe that connected and hung
    /// up without a byte) are settled here — the only sessions the reactor
    /// itself counts.
    fn on_ingress(&mut self, id: u64) {
        let Some(active) = self.conns.get(&id) else {
            return;
        };
        let conn = Arc::clone(&active.conn);
        let (empty, ended, errored) = {
            let inbox = conn.inbox.lock().expect("inbox lock poisoned");
            (inbox.buf.is_empty(), inbox.ended, inbox.error.is_some())
        };
        if !conn.started.load(Ordering::Acquire) {
            if !empty {
                if !conn.started.swap(true, Ordering::AcqRel) {
                    *conn.first_ready.lock().expect("first_ready lock poisoned") =
                        Some(Instant::now());
                    self.enqueue(&conn);
                }
            } else if errored {
                self.close(id, Some(SessionEnd::Failed));
            } else if ended {
                self.close(id, Some(SessionEnd::Completed));
            }
            return;
        }
        if (!empty || ended || errored)
            && conn.needs.fetch_and(!WANT_INPUT, Ordering::AcqRel) & WANT_INPUT != 0
        {
            self.enqueue(&conn);
        }
    }

    /// Flush the outbound buffer toward the socket; track write-stall
    /// time, resume write-suspended machines under the low watermark, and
    /// close once a finished session has fully drained.
    fn flush(&mut self, id: u64) {
        let Some(active) = self.conns.get_mut(&id) else {
            return;
        };
        let conn = Arc::clone(&active.conn);
        // Snapshot `done` *before* the write loop: the worker appends every
        // final frame before its `done.store(Release)`, so observing `done`
        // here (Acquire) guarantees those frames are already visible to the
        // flush below. Loading it after draining would race — the worker
        // could append the session's closing frames between our last write
        // and the load, and we would close with them still buffered.
        let done = conn.done.load(Ordering::Acquire);
        let mut progressed = false;
        let pending = {
            let mut out = conn.outbound.lock().expect("outbound lock poisoned");
            while out.pending() > 0 && !out.dead {
                match active.stream.write(&out.buf[out.pos..]) {
                    Ok(0) => break,
                    Ok(n) => {
                        out.pos += n;
                        progressed = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        // Sticky write failure: drop everything queued and
                        // everything yet to be queued; the session outcome
                        // is decided by the input side.
                        out.dead = true;
                        out.pos = out.buf.len();
                        progressed = true;
                    }
                }
            }
            out.compact();
            out.pending()
        };
        if pending == 0 || progressed {
            active.write_stall_since = None;
        } else if active.write_stall_since.is_none() {
            if let Some(t) = self.shared.cfg.write_timeout {
                let now = Instant::now();
                active.write_stall_since = Some(now);
                self.arm(now + t, id, DlKind::Write);
            }
        }
        if pending <= OUT_LOW
            && conn.needs.fetch_and(!WANT_WRITE, Ordering::AcqRel) & WANT_WRITE != 0
        {
            self.enqueue(&conn);
        }
        if pending == 0 {
            let reject = self.conns.get(&id).map(|a| a.reject).unwrap_or(false);
            if reject {
                self.close(id, None);
                return;
            }
            if done {
                // The worker already counted this session.
                self.close(id, None);
                return;
            }
        }
        self.update_interest(id);
    }

    /// Reconcile the poller's interest set with the connection's state:
    /// read while the inbox is open and under its watermark, write while
    /// output is pending.
    fn update_interest(&mut self, id: u64) {
        let Some(active) = self.conns.get_mut(&id) else {
            return;
        };
        let want_read = if active.reject {
            false
        } else {
            let inbox = active.conn.inbox.lock().expect("inbox lock poisoned");
            !inbox.ended && inbox.error.is_none() && !inbox.paused
        };
        let want_write = active.conn.outbound_pending() > 0;
        let desired = Interest {
            read: want_read,
            write: want_write,
        };
        if desired != active.interest {
            active.interest = desired;
            let _ = self.poller.reregister(fd_of(&active.stream), id, desired);
        }
    }

    fn enqueue(&self, conn: &Arc<Conn>) {
        let depth = self.shared.workers[conn.worker].push(Arc::clone(conn));
        if let Some(depth) = depth {
            self.shared.trace.ready_depth.record(depth as u64);
        }
    }

    /// Drop the connection. `count` settles machine-less sessions; worker-
    /// counted sessions pass `None`.
    fn close(&mut self, id: u64, count: Option<SessionEnd>) {
        let Some(active) = self.conns.remove(&id) else {
            return;
        };
        let _ = self.poller.deregister(fd_of(&active.stream), id);
        match count {
            Some(SessionEnd::Completed) => {
                self.shared
                    .stats
                    .sessions_completed
                    .fetch_add(1, Ordering::Relaxed);
            }
            Some(SessionEnd::Failed) => {
                self.shared
                    .stats
                    .sessions_failed
                    .fetch_add(1, Ordering::Relaxed);
            }
            None => {}
        }
    }

    /// Hard-close with a live machine: mark the connection killed so the
    /// machine short-circuits to `Failed`, wake it, drop the socket now.
    fn kill(&mut self, id: u64) {
        let Some(active) = self.conns.get(&id) else {
            return;
        };
        let conn = Arc::clone(&active.conn);
        conn.killed.store(true, Ordering::Release);
        {
            let mut inbox = conn.inbox.lock().expect("inbox lock poisoned");
            if inbox.error.is_none() {
                inbox.error = Some(std::io::ErrorKind::TimedOut);
            }
        }
        if conn.needs.fetch_and(0, Ordering::AcqRel) & (WANT_INPUT | WANT_WRITE) != 0 {
            self.enqueue(&conn);
        }
        self.close(id, None);
    }

    // --- Worker notifications --------------------------------------------

    fn drain_notifier(&mut self) {
        let mut ids = std::mem::take(&mut self.cmds);
        self.shared.notifier.drain(&mut ids);
        for id in ids.drain(..) {
            self.reconcile(id);
        }
        self.cmds = ids;
    }

    /// A worker changed this connection's shared state: flush any new
    /// output (which also handles close-when-done), and resume reading if
    /// the machine drained a paused inbox below the low watermark.
    fn reconcile(&mut self, id: u64) {
        let Some(active) = self.conns.get(&id) else {
            return;
        };
        {
            let mut inbox = active.conn.inbox.lock().expect("inbox lock poisoned");
            if inbox.paused && inbox.buf.len() < INBOX_LOW {
                inbox.paused = false;
            }
        }
        self.flush(id);
    }

    // --- Deadlines --------------------------------------------------------

    fn fire_deadlines(&mut self) {
        let now = Instant::now();
        while let Some(Reverse((when, _, _))) = self.deadlines.peek() {
            if *when > now {
                break;
            }
            let Reverse((_, id, kind)) = self.deadlines.pop().expect("peeked");
            self.fire(id, kind, now);
        }
    }

    fn fire(&mut self, id: u64, kind: DlKind, now: Instant) {
        let (conn, last_ingress, write_stall_since, reject) = match self.conns.get(&id) {
            Some(a) => (
                Arc::clone(&a.conn),
                a.last_ingress,
                a.write_stall_since,
                a.reject,
            ),
            None => return,
        };
        if conn.done.load(Ordering::Acquire) {
            return;
        }
        match kind {
            DlKind::Read => {
                let Some(t) = self.shared.cfg.read_timeout else {
                    return;
                };
                let due = last_ingress + t;
                if due > now {
                    self.arm(due, id, DlKind::Read);
                    return;
                }
                self.expire_input(id, t, kind);
            }
            DlKind::Idle => {
                let Some(t) = self.shared.cfg.idle_timeout else {
                    return;
                };
                let ms = conn.last_frame_ms.load(Ordering::Relaxed);
                let base = if ms == u64::MAX {
                    conn.accepted_at
                } else {
                    conn.accepted_at + Duration::from_millis(ms)
                };
                let due = base + t;
                if due > now {
                    self.arm(due, id, DlKind::Idle);
                    return;
                }
                self.expire_input(id, t, kind);
            }
            DlKind::Write => {
                let Some(t) = self.shared.cfg.write_timeout else {
                    return;
                };
                let Some(since) = write_stall_since else {
                    return;
                };
                let due = since + t;
                if due > now {
                    self.arm(due, id, DlKind::Write);
                    return;
                }
                if conn.outbound_pending() > 0 {
                    // The peer stopped reading: with a machine the kill
                    // marker makes it conclude `Failed`; a machine-less
                    // stall (a shed BUSY frame) just drops.
                    if reject || !conn.started.load(Ordering::Acquire) {
                        self.close(id, None);
                    } else {
                        self.kill(id);
                    }
                }
            }
            DlKind::Grace => {
                // Rejects that never flushed, and drain-abandoned idle
                // connections.
                if reject {
                    self.close(id, None);
                } else if !conn.started.load(Ordering::Acquire) {
                    self.close(id, Some(SessionEnd::Completed));
                }
            }
        }
    }

    /// An input-side deadline (read or idle) expired. A connection that
    /// never spoke closes silently; a live machine gets a `TimedOut`
    /// marker and a wakeup, and fails through its normal error path
    /// (silently in the register phase, with an `io`-class error frame
    /// mid-eval) — the same classes the blocking server's socket timeout
    /// produced.
    fn expire_input(&mut self, id: u64, timeout: Duration, kind: DlKind) {
        let Some(active) = self.conns.get(&id) else {
            return;
        };
        let conn = Arc::clone(&active.conn);
        if !conn.started.load(Ordering::Acquire) {
            self.close(id, Some(SessionEnd::Failed));
            return;
        }
        // A machine that is runnable (not waiting for input) is not
        // stalled on the peer — recheck one timeout later.
        if conn.needs.load(Ordering::Acquire) & WANT_INPUT == 0 {
            self.arm(Instant::now() + timeout, id, kind);
            return;
        }
        {
            let mut inbox = conn.inbox.lock().expect("inbox lock poisoned");
            if inbox.error.is_none() {
                inbox.error = Some(std::io::ErrorKind::TimedOut);
            }
        }
        if conn.needs.fetch_and(!WANT_INPUT, Ordering::AcqRel) & WANT_INPUT != 0 {
            self.enqueue(&conn);
        }
    }

    // --- Drain ------------------------------------------------------------

    /// Shutdown was requested: stop accepting, give connections that never
    /// became sessions a short grace to hang up, let live machines run to
    /// completion (bounded by their own timeouts).
    fn start_drain(&mut self) {
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            let _ = self
                .poller
                .deregister(fd_of_listener(&listener), LISTENER_TOKEN);
        }
        let grace_at = Instant::now() + GRACE;
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, a)| !a.reject && !a.conn.started.load(Ordering::Acquire))
            .map(|(id, _)| *id)
            .collect();
        for id in idle {
            self.arm(grace_at, id, DlKind::Grace);
        }
    }
}

// --- Worker pool ---------------------------------------------------------

struct Ready {
    peers: HashMap<IpAddr, VecDeque<Arc<Conn>>>,
    rr: VecDeque<IpAddr>,
    last: Option<IpAddr>,
    exit: bool,
}

/// One worker's ready queue, fair per peer IP: each bucket yields one
/// connection per round-robin turn.
pub(crate) struct WorkerQueue {
    ready: Mutex<Ready>,
    cond: Condvar,
}

impl WorkerQueue {
    pub(crate) fn new() -> WorkerQueue {
        WorkerQueue {
            ready: Mutex::new(Ready {
                peers: HashMap::new(),
                rr: VecDeque::new(),
                last: None,
                exit: false,
            }),
            cond: Condvar::new(),
        }
    }

    /// Enqueue unless already queued. Returns the queue depth after the
    /// push (for the ready-depth histogram), or `None` if deduplicated.
    pub(crate) fn push(&self, conn: Arc<Conn>) -> Option<usize> {
        if conn.queued.swap(true, Ordering::AcqRel) {
            return None;
        }
        let key = conn.peer.map(|p| p.ip()).unwrap_or(NO_PEER);
        let mut ready = self.ready.lock().expect("ready lock poisoned");
        let bucket = ready.peers.entry(key).or_default();
        let fresh = bucket.is_empty();
        bucket.push_back(conn);
        if fresh {
            ready.rr.push_back(key);
        }
        let depth: usize = ready.peers.values().map(|q| q.len()).sum();
        drop(ready);
        self.cond.notify_one();
        Some(depth)
    }

    /// Blocking pop; `None` means exit (shutdown and the queue is empty).
    /// The `bool` reports whether the scheduler rotated to a different
    /// peer than the previous pop served.
    pub(crate) fn pop(&self) -> Option<(Arc<Conn>, bool)> {
        let mut ready = self.ready.lock().expect("ready lock poisoned");
        loop {
            if let Some(key) = ready.rr.pop_front() {
                let conn = {
                    let bucket = ready.peers.get_mut(&key).expect("rr key has a bucket");
                    let conn = bucket.pop_front().expect("rr bucket is nonempty");
                    if bucket.is_empty() {
                        ready.peers.remove(&key);
                    } else {
                        ready.rr.push_back(key);
                    }
                    conn
                };
                let rotated = ready.last != Some(key);
                ready.last = Some(key);
                return Some((conn, rotated));
            }
            if ready.exit {
                return None;
            }
            let (guard, _) = self
                .cond
                .wait_timeout(ready, Duration::from_millis(200))
                .expect("ready lock poisoned");
            ready = guard;
        }
    }

    /// Tell the worker to exit once its queue is empty.
    pub(crate) fn close(&self) {
        self.ready.lock().expect("ready lock poisoned").exit = true;
        self.cond.notify_all();
    }
}

/// One worker thread: pop ready connections, lazily build their machines,
/// advance them, and run the suspend/resume handshake for whatever the
/// machine reported. Machines live in a thread-local map — the engine run
/// is not `Send`, so a connection is pinned to this worker for life.
pub(crate) fn worker_loop(index: usize, shared: &Arc<Shared>) {
    let queue = Arc::clone(&shared.workers[index]);
    let mut machines: HashMap<u64, SessionMachine> = HashMap::new();
    while let Some((conn, rotated)) = queue.pop() {
        conn.queued.store(false, Ordering::Release);
        if rotated {
            shared.trace.rotations.fetch_add(1, Ordering::Relaxed);
        }
        shared.trace.slices.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = conn
            .first_ready
            .lock()
            .expect("first_ready lock poisoned")
            .take()
        {
            shared
                .trace
                .admission_wait_us
                .record(t.elapsed().as_micros() as u64);
        }
        if conn.done.load(Ordering::Acquire) {
            machines.remove(&conn.id);
            continue;
        }
        let machine = machines
            .entry(conn.id)
            .or_insert_with(|| SessionMachine::new(Arc::clone(&conn), Arc::clone(shared)));
        // A panicking session must not take its worker (and the server's
        // capacity) down with it.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| machine.advance()));
        match outcome {
            Err(_) => {
                machines.remove(&conn.id);
                shared.stats.sessions_failed.fetch_add(1, Ordering::Relaxed);
                conn.done.store(true, Ordering::Release);
                shared.notifier.sync(conn.id);
            }
            Ok(Advance::Done(end)) => {
                machines.remove(&conn.id);
                shared
                    .trace
                    .session_us
                    .record(conn.accepted_at.elapsed().as_micros() as u64);
                let counter = match end {
                    SessionEnd::Completed => &shared.stats.sessions_completed,
                    SessionEnd::Failed => &shared.stats.sessions_failed,
                };
                counter.fetch_add(1, Ordering::Relaxed);
                conn.done.store(true, Ordering::Release);
                shared.notifier.sync(conn.id);
            }
            Ok(Advance::Working) => {
                // Rotate to the back so siblings get their turn; tell the
                // reactor to flush whatever the slice produced.
                shared.notifier.sync(conn.id);
                queue.push(Arc::clone(&conn));
            }
            Ok(Advance::NeedInput) => {
                conn.needs.fetch_or(WANT_INPUT, Ordering::AcqRel);
                // Re-check after publishing the bit: if input raced in
                // while the machine was deciding to suspend, the reactor
                // saw the bit clear and did nothing — reclaim the wakeup.
                let pending = conn.killed.load(Ordering::Acquire) || {
                    let inbox = conn.inbox.lock().expect("inbox lock poisoned");
                    !inbox.buf.is_empty() || inbox.ended || inbox.error.is_some()
                };
                if pending && conn.needs.fetch_and(!WANT_INPUT, Ordering::AcqRel) & WANT_INPUT != 0
                {
                    queue.push(Arc::clone(&conn));
                }
                shared.notifier.sync(conn.id);
            }
            Ok(Advance::NeedWrite) => {
                conn.needs.fetch_or(WANT_WRITE, Ordering::AcqRel);
                shared.notifier.sync(conn.id);
                if conn.outbound_pending() <= OUT_LOW
                    && conn.needs.fetch_and(!WANT_WRITE, Ordering::AcqRel) & WANT_WRITE != 0
                {
                    queue.push(Arc::clone(&conn));
                }
            }
        }
    }
}
