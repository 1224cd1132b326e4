//! The connection owners. The [`Acceptor`] runs on the thread that calls
//! `Server::run`: it accepts, sheds `BUSY` past `max_conns`, watches
//! signals, and hands each stream to worker `id % workers`. From then on
//! that [`Worker`] owns the connection end to end: it polls the socket,
//! reads into the session's decoder, runs the session one slice at a time,
//! writes what a step produced as soon as the step returns, and keeps the
//! connection's deadlines. The engine run is not `Send`, so a session
//! never leaves the thread that created it, and no other thread touches
//! its socket or buffers.
//!
//! ## Scheduling
//!
//! A connection is *ready* when its first bytes arrive, when input lands
//! while its session waits for input, or when its outbound backlog drains
//! below [`OUT_LOW`] while its session waits for the peer to read. A
//! session's socket is read only while the session wants input; while it
//! works or waits on a slow reader, TCP flow control holds the sender
//! back. The ready queue is fair *per tenant*: connections are bucketed by
//! peer IP and buckets are served round-robin, so one tenant opening a
//! thousand hot connections cannot starve another tenant's single session;
//! each turn is one slice of a bounded number of events.
//!
//! ## Deadlines
//!
//! A binary heap of `(instant, conn, kind)` with lazy re-validation: each
//! entry is checked against the connection's clock when it pops, and
//! pushed back if the clock moved. Read deadlines re-arm on any ingress;
//! idle deadlines re-arm only on a *completed* frame (so a slowloris peer
//! trickling single bytes is reaped); write deadlines fire when the peer
//! accepts no bytes for the whole window while output is pending.

use crate::poll::{fd_of, fd_of_listener, soft_fd_limit, Interest, Poller, Waker, WAKE_TOKEN};
use crate::protocol::{write_frame, FrameKind};
use crate::server::Shared;
use crate::session::{Advance, Inbound, OutCell, SessionEnd, SessionMachine, OUT_LOW};
use crate::signal;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The listener's poll token; connection ids start at 1.
const LISTENER_TOKEN: u64 = 0;

/// How long a connection that never sent a byte may stay once shutdown
/// has begun.
const GRACE: Duration = Duration::from_millis(250);

/// File descriptors reserved for everything that is not a connection
/// (listener, waker pairs, trace sink, durable logs, stdio).
const FD_HEADROOM: u64 = 64;

/// The longest any poll sleeps, so the accept loop sees signals promptly.
const TICK: Duration = Duration::from_millis(100);

/// Bytes read from one socket per turn, at most: a session's decoder holds
/// one partial frame plus this much.
const READ_BUDGET: usize = 256 * 1024;

// --- Accept --------------------------------------------------------------

/// A stream on its way from the acceptor to its worker.
struct Handoff {
    id: u64,
    stream: TcpStream,
    peer: SocketAddr,
}

/// One worker's intake: streams handed over but not yet adopted, whether
/// the acceptor has stopped, and the waker that tells the worker to look.
pub(crate) struct Intake {
    queue: Mutex<(Vec<Handoff>, bool)>,
    waker: Waker,
}

impl Intake {
    pub(crate) fn new(waker: Waker) -> Intake {
        Intake {
            queue: Mutex::new((Vec::new(), false)),
            waker,
        }
    }

    /// Hand a stream over; the worker is woken only when its intake was
    /// empty, so a burst of connections costs one wakeup.
    fn push(&self, handoff: Handoff) {
        let mut queue = self.queue.lock().expect("intake lock poisoned");
        queue.0.push(handoff);
        let wake = queue.0.len() == 1;
        drop(queue);
        if wake {
            self.waker.wake();
        }
    }

    fn close(&self) {
        self.queue.lock().expect("intake lock poisoned").1 = true;
        self.waker.wake();
    }

    /// The pending streams, and whether the acceptor has stopped (no
    /// stream follows).
    fn take(&self) -> (Vec<Handoff>, bool) {
        let mut queue = self.queue.lock().expect("intake lock poisoned");
        (std::mem::take(&mut queue.0), queue.1)
    }
}

/// Accept a connection and make it nonblocking and no-delay: a result
/// frame leaves as soon as its step is written, not when the peer's next
/// ACK arrives.
fn accept(listener: &TcpListener) -> std::io::Result<(TcpStream, SocketAddr)> {
    let (stream, peer) = listener.accept()?;
    stream.set_nonblocking(true)?;
    stream.set_nodelay(true)?;
    Ok((stream, peer))
}

/// The accept loop: the listener and the poller it waits on.
pub(crate) struct Acceptor {
    poller: Poller,
    listener: TcpListener,
}

impl Acceptor {
    pub(crate) fn new(listener: TcpListener) -> std::io::Result<Acceptor> {
        listener.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        poller.register(fd_of_listener(&listener), LISTENER_TOKEN, Interest::READ)?;
        Ok(Acceptor { poller, listener })
    }

    /// Wakes [`Acceptor::run`] (a shutdown request).
    pub(crate) fn waker(&self) -> Waker {
        self.poller.waker()
    }

    /// Accept until shutdown is requested, then close every intake; each
    /// worker exits once its connections have drained.
    pub(crate) fn run(mut self, shared: &Shared, intakes: &[Arc<Intake>]) {
        let mut max_conns = shared.cfg.max_conns.max(1);
        if let Some(limit) = soft_fd_limit() {
            let usable = limit.saturating_sub(FD_HEADROOM).max(8) as usize;
            max_conns = max_conns.min(usable);
        }
        let mut next_id = 1u64;
        let mut events = Vec::new();
        loop {
            if shared.cfg.watch_signals && signal::requested() {
                shared.begin_shutdown();
            }
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            events.clear();
            if self.poller.wait(Some(TICK), &mut events).is_err() {
                // A failed wait must not spin the thread; back off.
                std::thread::sleep(Duration::from_millis(1));
            }
            if !events.iter().any(|ev| ev.token == LISTENER_TOKEN) {
                continue;
            }
            loop {
                let (stream, peer) = match accept(&self.listener) {
                    Ok(accepted) => accepted,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    // WouldBlock, or a transient failure (EMFILE, an
                    // aborted handshake): the next readiness report retries.
                    Err(_) => break,
                };
                if shared.live.load(Ordering::Acquire) >= max_conns {
                    shed(shared, stream);
                    continue;
                }
                shared.live.fetch_add(1, Ordering::AcqRel);
                shared
                    .stats
                    .sessions_started
                    .fetch_add(1, Ordering::Relaxed);
                let id = next_id;
                next_id += 1;
                intakes[id as usize % intakes.len()].push(Handoff { id, stream, peer });
            }
        }
        for intake in intakes {
            intake.close();
        }
    }
}

/// Answer a connection past `max_conns` with one `BUSY` frame and close
/// it. A fresh socket's send buffer always has room for five bytes.
fn shed(shared: &Shared, mut stream: TcpStream) {
    shared
        .stats
        .sessions_rejected
        .fetch_add(1, Ordering::Relaxed);
    let mut frame = Vec::with_capacity(5);
    write_frame(&mut frame, FrameKind::Busy, b"").expect("a frame fits a Vec");
    shared.trace.writes.fetch_add(1, Ordering::Relaxed);
    let _ = stream.write(&frame);
}

// --- Workers ---------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum DlKind {
    Read,
    Idle,
    Write,
    Grace,
}

/// What a connection is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    /// Input: its first bytes (no session yet), or its session's next
    /// frame.
    Input,
    /// The peer to read the backlog down to [`OUT_LOW`].
    Write,
    /// Its turn: it sits in the ready queue.
    Turn,
    /// Nothing: the session is over; close once the backlog is written.
    Closing,
}

/// One connection, owned by its worker.
struct Conn {
    stream: TcpStream,
    peer: SocketAddr,
    accepted_at: Instant,
    inbound: Inbound,
    out: OutCell,
    /// Created on the connection's first bytes; gone once it finished.
    session: Option<SessionMachine>,
    wait: Wait,
    interest: Interest,
    /// Last time any bytes arrived (the read-deadline clock).
    last_ingress: Instant,
    /// Set while a nonempty backlog makes no progress (the write-deadline
    /// clock); cleared on any accepted byte.
    write_stall_since: Option<Instant>,
    /// When the first bytes made the connection ready, until its first
    /// turn (the admission-wait histogram).
    first_ready: Option<Instant>,
}

impl Conn {
    /// Read what the socket holds, up to [`READ_BUDGET`], into the
    /// session's decoder. Returns whether anything arrived: bytes, EOF or
    /// an error.
    fn read(&mut self, scratch: &mut [u8]) -> bool {
        let mut arrived = 0usize;
        let mut progressed = false;
        while arrived < READ_BUDGET && !self.inbound.ended && self.inbound.error.is_none() {
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.inbound.ended = true;
                    progressed = true;
                }
                Ok(n) => {
                    self.inbound.decoder.push(&scratch[..n]);
                    arrived += n;
                    progressed = true;
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.inbound.error = Some(e.kind());
                    progressed = true;
                }
            }
        }
        if progressed {
            self.last_ingress = Instant::now();
        }
        progressed
    }

    /// Once a session is over, discard what the peer still sends: closing
    /// a socket with unread input resets it, and the reset can overtake
    /// the last frames.
    fn discard(&mut self, scratch: &mut [u8]) {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => self.inbound.ended = true,
                Ok(_) => continue,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => self.inbound.error = Some(e.kind()),
            }
            return;
        }
    }

    fn pending(&self) -> usize {
        self.out.lock().expect("outbound lock poisoned").pending()
    }
}

/// One worker's ready queue, fair per peer IP: each bucket yields one
/// connection per round-robin turn.
#[derive(Default)]
struct Ready {
    peers: HashMap<IpAddr, VecDeque<u64>>,
    rr: VecDeque<IpAddr>,
    last: Option<IpAddr>,
    len: usize,
}

impl Ready {
    /// Enqueue; returns the queue depth after the push.
    fn push(&mut self, key: IpAddr, id: u64) -> usize {
        let bucket = self.peers.entry(key).or_default();
        if bucket.is_empty() {
            self.rr.push_back(key);
        }
        bucket.push_back(id);
        self.len += 1;
        self.len
    }

    /// The next connection, and whether the round-robin rotated to a
    /// different peer than the previous pop served.
    fn pop(&mut self) -> Option<(u64, bool)> {
        let key = self.rr.pop_front()?;
        let bucket = self.peers.get_mut(&key).expect("rr key has a bucket");
        let id = bucket.pop_front().expect("rr bucket is nonempty");
        if bucket.is_empty() {
            self.peers.remove(&key);
        } else {
            self.rr.push_back(key);
        }
        self.len -= 1;
        let rotated = self.last != Some(key);
        self.last = Some(key);
        Some((id, rotated))
    }
}

/// One worker thread and every connection pinned to it.
pub(crate) struct Worker {
    shared: Arc<Shared>,
    poller: Poller,
    intake: Arc<Intake>,
    conns: HashMap<u64, Conn>,
    ready: Ready,
    deadlines: BinaryHeap<Reverse<(Instant, u64, DlKind)>>,
    draining: bool,
    /// The acceptor stopped: exit once every connection has closed.
    closed: bool,
    /// Scratch buffers reused across iterations.
    events: Vec<crate::poll::PollEvent>,
    scratch: Vec<u8>,
}

impl Worker {
    pub(crate) fn new(shared: Arc<Shared>, poller: Poller, intake: Arc<Intake>) -> Worker {
        Worker {
            shared,
            poller,
            intake,
            conns: HashMap::new(),
            ready: Ready::default(),
            deadlines: BinaryHeap::new(),
            draining: false,
            closed: false,
            events: Vec::new(),
            scratch: vec![0; 64 * 1024],
        }
    }

    /// Serve this worker's connections until the acceptor has stopped and
    /// every connection has closed.
    pub(crate) fn run(mut self) {
        loop {
            if !self.draining && self.shared.shutdown.load(Ordering::SeqCst) {
                self.start_drain();
            }
            if self.closed && self.conns.is_empty() {
                return;
            }
            let timeout = if self.ready.len > 0 {
                Duration::ZERO
            } else {
                self.next_timeout()
            };
            let mut events = std::mem::take(&mut self.events);
            events.clear();
            if self.poller.wait(Some(timeout), &mut events).is_err() {
                std::thread::sleep(Duration::from_millis(1));
            }
            for ev in &events {
                if ev.token == WAKE_TOKEN {
                    self.adopt();
                    continue;
                }
                if ev.readable {
                    self.on_readable(ev.token);
                }
                if ev.writable {
                    self.flush(ev.token);
                }
            }
            self.events = events;
            self.fire_deadlines();
            // One turn for every connection ready now; those that stay
            // ready go again after the next poll.
            for _ in 0..self.ready.len {
                let Some((id, rotated)) = self.ready.pop() else {
                    break;
                };
                self.turn(id, rotated);
            }
        }
    }

    fn next_timeout(&self) -> Duration {
        match self.deadlines.peek() {
            Some(Reverse((when, _, _))) => when.saturating_duration_since(Instant::now()).min(TICK),
            None => TICK,
        }
    }

    fn arm(&mut self, when: Instant, id: u64, kind: DlKind) {
        self.deadlines.push(Reverse((when, id, kind)));
    }

    /// Register the streams the acceptor handed over (it wakes the worker
    /// whenever the intake was empty).
    fn adopt(&mut self) {
        let (handoffs, closed) = self.intake.take();
        self.closed = closed;
        let now = Instant::now();
        for Handoff { id, stream, peer } in handoffs {
            if self
                .poller
                .register(fd_of(&stream), id, Interest::READ)
                .is_err()
            {
                self.shared.live.fetch_sub(1, Ordering::AcqRel);
                self.shared
                    .stats
                    .sessions_failed
                    .fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if let Some(t) = self.shared.cfg.read_timeout {
                self.arm(now + t, id, DlKind::Read);
            }
            if let Some(t) = self.shared.cfg.idle_timeout {
                self.arm(now + t, id, DlKind::Idle);
            }
            if self.draining {
                self.arm(now + GRACE, id, DlKind::Grace);
            }
            self.conns.insert(
                id,
                Conn {
                    stream,
                    peer,
                    accepted_at: now,
                    inbound: Inbound::new(self.shared.cfg.max_frame),
                    out: OutCell::default(),
                    session: None,
                    wait: Wait::Input,
                    interest: Interest::READ,
                    last_ingress: now,
                    write_stall_since: None,
                    first_ready: None,
                },
            );
        }
    }

    fn on_readable(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        match conn.wait {
            Wait::Input => {
                if conn.read(&mut self.scratch) {
                    self.on_input(id);
                }
            }
            Wait::Closing => {
                conn.discard(&mut self.scratch);
                self.settle(id);
            }
            // The session reads when it wants input.
            Wait::Write | Wait::Turn => {}
        }
    }

    /// Input arrived for a connection waiting for it: its first bytes
    /// start a session; a peer that hung up (or failed) without a byte
    /// never becomes one.
    fn on_input(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if conn.session.is_none() {
            if conn.inbound.decoder.buffered() == 0 {
                let end = if conn.inbound.error.is_some() {
                    SessionEnd::Failed
                } else {
                    SessionEnd::Completed
                };
                self.close(id, Some(end));
                return;
            }
            conn.session = Some(SessionMachine::new(
                Arc::clone(&self.shared),
                Arc::clone(&conn.out),
                Some(conn.peer),
                conn.accepted_at,
            ));
            conn.first_ready = Some(Instant::now());
        }
        self.make_ready(id);
    }

    fn make_ready(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if conn.wait == Wait::Turn {
            return;
        }
        conn.wait = Wait::Turn;
        let depth = self.ready.push(conn.peer.ip(), id);
        self.shared.trace.ready_depth.record(depth as u64);
        self.settle(id);
    }

    /// One turn: advance the session by one slice, write what it produced,
    /// and wait for whatever it reported. A panicking session must not
    /// take its worker (and the server's capacity) down with it.
    fn turn(&mut self, id: u64, rotated: bool) {
        let shared = &self.shared;
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let Some(session) = conn.session.as_mut() else {
            return;
        };
        shared.trace.slices.fetch_add(1, Ordering::Relaxed);
        if rotated {
            shared.trace.rotations.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(t) = conn.first_ready.take() {
            shared
                .trace
                .admission_wait_us
                .record(t.elapsed().as_micros() as u64);
        }
        let inbound = &mut conn.inbound;
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.advance(inbound)));
        conn.wait = match outcome {
            Ok(Advance::NeedInput) => Wait::Input,
            Ok(Advance::NeedWrite) => Wait::Write,
            Ok(Advance::Working) => {
                // Back of the queue, so its siblings get their turn.
                let depth = self.ready.push(conn.peer.ip(), id);
                shared.trace.ready_depth.record(depth as u64);
                Wait::Turn
            }
            Ok(Advance::Done(end)) => {
                shared
                    .trace
                    .session_us
                    .record(conn.accepted_at.elapsed().as_micros() as u64);
                let counter = match end {
                    SessionEnd::Completed => &shared.stats.sessions_completed,
                    SessionEnd::Failed => &shared.stats.sessions_failed,
                };
                counter.fetch_add(1, Ordering::Relaxed);
                conn.session = None;
                Wait::Closing
            }
            Err(_) => {
                shared.stats.sessions_failed.fetch_add(1, Ordering::Relaxed);
                conn.session = None;
                Wait::Closing
            }
        };
        self.flush(id);
        // A session reads only when it wants input, and only once its
        // output has left.
        if let Some(conn) = self.conns.get_mut(&id) {
            if conn.wait == Wait::Input && conn.read(&mut self.scratch) {
                self.make_ready(id);
            }
        }
    }

    /// Write the backlog, then settle the connection's state.
    fn flush(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let mut progressed = false;
        let pending = {
            let mut out = conn.out.lock().expect("outbound lock poisoned");
            while out.pending() > 0 && !out.dead {
                self.shared.trace.writes.fetch_add(1, Ordering::Relaxed);
                match conn.stream.write(&out.buf[out.pos..]) {
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
        // The write-deadline clock runs from the last accepted byte while
        // a backlog remains, so a socket that fills mid-write is timed too.
        if pending == 0 {
            conn.write_stall_since = None;
        } else if progressed || conn.write_stall_since.is_none() {
            if let Some(t) = self.shared.cfg.write_timeout {
                let now = Instant::now();
                if conn.write_stall_since.replace(now).is_none() {
                    self.arm(now + t, id, DlKind::Write);
                }
            }
        }
        self.settle(id);
    }

    /// Act on the backlog: close a finished connection once it is written,
    /// resume a write-suspended session under the low watermark, and poll
    /// for what the connection waits on.
    fn settle(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let pending = conn.pending();
        if conn.wait == Wait::Closing && pending == 0 {
            conn.discard(&mut self.scratch);
            self.close(id, None);
            return;
        }
        if conn.wait == Wait::Write && pending <= OUT_LOW {
            self.make_ready(id);
            return;
        }
        // Readability is watched except while the session waits on a slow
        // reader: a report that finds the session busy is ignored (the
        // socket is read only when it wants input), but one for a session
        // that cannot run would spin the loop.
        let open = !conn.inbound.ended && conn.inbound.error.is_none();
        let desired = Interest {
            read: open && conn.wait != Wait::Write,
            write: pending > 0,
        };
        if desired != conn.interest {
            conn.interest = desired;
            let _ = self.poller.reregister(fd_of(&conn.stream), id, desired);
        }
    }

    /// Drop the connection. `count` settles sessions not counted yet.
    fn close(&mut self, id: u64, count: Option<SessionEnd>) {
        let Some(conn) = self.conns.remove(&id) else {
            return;
        };
        let _ = self.poller.deregister(fd_of(&conn.stream), id);
        self.shared.live.fetch_sub(1, Ordering::AcqRel);
        let counter = match count {
            Some(SessionEnd::Completed) => &self.shared.stats.sessions_completed,
            Some(SessionEnd::Failed) => &self.shared.stats.sessions_failed,
            None => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
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
        let Some(conn) = self.conns.get(&id) else {
            return;
        };
        let cfg = &self.shared.cfg;
        let (timeout, clock) = match kind {
            DlKind::Read => (cfg.read_timeout, Some(conn.last_ingress)),
            DlKind::Idle => (
                cfg.idle_timeout,
                Some(conn.inbound.last_frame.unwrap_or(conn.accepted_at)),
            ),
            DlKind::Write => (cfg.write_timeout, conn.write_stall_since),
            DlKind::Grace => {
                // Connections that never sent a byte when shutdown began.
                if conn.session.is_none() && conn.wait == Wait::Input {
                    self.close(id, Some(SessionEnd::Completed));
                }
                return;
            }
        };
        let (Some(timeout), Some(clock)) = (timeout, clock) else {
            return;
        };
        if clock + timeout > now {
            self.arm(clock + timeout, id, kind);
            return;
        }
        match kind {
            DlKind::Write => self.cut_off(id),
            _ => self.expire_input(id, timeout, kind),
        }
    }

    /// The peer accepted no output for a whole write deadline: a live
    /// session concludes `Failed`, and the socket closes now.
    fn cut_off(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if conn.pending() == 0 {
            return;
        }
        let count = conn.session.take().map(|mut session| {
            session.abandon();
            self.shared
                .trace
                .session_us
                .record(conn.accepted_at.elapsed().as_micros() as u64);
            SessionEnd::Failed
        });
        self.close(id, count);
    }

    /// An input-side deadline (read or idle) expired. A connection that
    /// never spoke closes silently; a session waiting for input gets a
    /// `TimedOut` marker and a turn, and fails through its normal error
    /// path (silently in the register phase, with an `io`-class error
    /// frame mid-eval).
    fn expire_input(&mut self, id: u64, timeout: Duration, kind: DlKind) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        match (conn.wait, conn.session.is_some()) {
            (Wait::Closing, _) => {}
            (_, false) => self.close(id, Some(SessionEnd::Failed)),
            // A session that is not waiting for input is not stalled on
            // the peer — recheck one timeout later.
            (Wait::Write | Wait::Turn, true) => self.arm(Instant::now() + timeout, id, kind),
            (Wait::Input, true) => {
                conn.inbound
                    .error
                    .get_or_insert(std::io::ErrorKind::TimedOut);
                self.make_ready(id);
            }
        }
    }

    // --- Drain ------------------------------------------------------------

    /// Shutdown was requested: connections that never became sessions get
    /// a short grace to hang up; live sessions run to completion (bounded
    /// by their own deadlines).
    fn start_drain(&mut self) {
        self.draining = true;
        let grace_at = Instant::now() + GRACE;
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.session.is_none() && c.wait == Wait::Input)
            .map(|(id, _)| *id)
            .collect();
        for id in idle {
            self.arm(grace_at, id, DlKind::Grace);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Client, Server, ServerConfig};

    /// Every accepted stream has Nagle's algorithm off.
    #[test]
    fn accepted_streams_are_no_delay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = accept(&listener).unwrap();
        assert_eq!(stream.nodelay().ok(), Some(true));
    }

    /// A feed session's output leaves once per step: N one-document `DATA`
    /// frames of nine results each cost at most N + 2 socket writes (the
    /// registration ack and the closing frames being the other two).
    #[test]
    fn a_feed_session_writes_once_per_document() {
        const DOCS: usize = 40;
        let server = Server::bind(ServerConfig::default()).unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());

        let mut client = Client::connect(addr).unwrap();
        let expect = |client: &mut Client, kind: FrameKind, want: usize| {
            let mut seen = 0;
            while seen < want {
                let frame = client.next_frame().unwrap().unwrap();
                assert_ne!(frame.kind, FrameKind::Error);
                seen += usize::from(frame.kind == kind);
            }
        };
        client.register("q", "d.x").unwrap();
        expect(&mut client, FrameKind::Ok, 1);
        let doc = format!("<d>{}</d>", "<x/>".repeat(9));
        for _ in 0..DOCS {
            client.send_xml(doc.as_bytes()).unwrap();
            expect(&mut client, FrameKind::Result, 9);
        }
        client.end().unwrap();
        expect(&mut client, FrameKind::SessionEnd, 1);

        let mut probe = Client::connect(addr).unwrap();
        probe.request_trace().unwrap();
        let json = String::from_utf8(probe.next_frame().unwrap().unwrap().payload).unwrap();
        let writes: usize = json
            .split("\"writes\":")
            .nth(1)
            .and_then(|rest| rest.split('}').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no write count in {json}"));
        assert!(writes <= DOCS + 2, "{writes} writes for {DOCS} documents");
        drop(probe);
        handle.shutdown();
        join.join().unwrap().unwrap();
    }
}
