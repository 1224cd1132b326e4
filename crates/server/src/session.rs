//! One client session as a nonblocking state machine: the register phase,
//! the streaming eval phase, and the closing `STAT`/`END` exchange —
//! driven by readiness instead of a dedicated blocking thread.
//!
//! The worker that owns the connection (see [`crate::reactor`]) reads the
//! socket into the session's [`Inbound`] decoder and writes its
//! [`Outbound`] buffer; this module owns all protocol logic. A
//! [`SessionMachine`] lives on that worker and is advanced whenever its
//! connection is ready: [`SessionMachine::advance`] consumes decoded
//! frames, drives the session's [`Pump`], appends frames to the bounded
//! outbound buffer, and reports why it suspended ([`Advance::NeedInput`],
//! [`Advance::NeedWrite`] for writability backpressure,
//! [`Advance::Working`] when its CPU slice is spent) or how it finished.
//! The worker writes what a step appended as soon as `advance` returns.
//!
//! The phases are unchanged from the blocking server:
//!
//! 1. **Register**: `R` frames (`name=expr`) are parsed and acknowledged
//!    one by one (`k` with the name, or `e` with a structured error that
//!    does *not* kill the session). `S` answers with server-wide stats;
//!    `Q` requests a graceful server shutdown (honored for loopback peers,
//!    or any peer under `ServerConfig::allow_remote_shutdown`).
//! 2. **Eval**: the first `D`/`E` frame freezes the registration and the
//!    plan is fetched from (or compiled into) the shared registry. `D`
//!    payloads are the XML byte stream, chunked arbitrarily: each is fed to
//!    the pump's push [`Parser`] as it is decoded (after the WAL append of a
//!    durable session) and the pump is stepped until it needs more input,
//!    the CPU slice is spent, or the outbound buffer is full. A
//!    construct cut off by a frame edge simply stays in the parser until
//!    the rest arrives; every wait is [`Advance::NeedInput`] under the
//!    worker's read/idle deadlines — a worker never waits for bytes. At a
//!    document boundary a durable session rolls its log when a roll is due
//!    ([`SessionLog::roll_due`]), and syncs it otherwise.
//! 3. **Close**: on `E` (or an error) the machine queues any `f` fault
//!    frames, a `s` stats frame in the one-shot `--stats-json` schema, and
//!    `n`; the worker flushes and closes.
//!
//! Errors mirror the one-shot CLI's exit-code classes (`usage`=1,
//! `syntax`=2, `io`=3, `resource`=4) plus `protocol` for frame-grammar
//! violations; an error closes *this* session only.

use crate::durable::{self, SessionLog};
use crate::protocol::{
    error_payload, split_resume, write_frame, Frame, FrameDecoder, FrameKind, ProtocolError,
    RESUME_VERSION,
};
use crate::server::Shared;
use spex_core::{
    stats_json, EvalError, Pump, RecoveryOptions, ResultMeta, ResultSink, Snapshot, Yield,
};
use spex_query::Rpeq;
use spex_xml::{Parser, RawEvent};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Maximum events pushed per [`SessionMachine::advance`] before the
/// machine yields [`Advance::Working`], so one firehose session cannot
/// starve its worker's other ready sessions.
const SLICE_EVENTS: usize = 4096;

/// Suspend a session once this many unsent bytes are buffered outbound;
/// it resumes when the peer has read enough (writability backpressure).
pub(crate) const OUT_HIGH: usize = 256 * 1024;
/// Resume a write-suspended session below this outbound backlog.
pub(crate) const OUT_LOW: usize = 64 * 1024;

/// The connection's input side: the decoder its worker reads the socket
/// into, and how the byte stream ended.
pub(crate) struct Inbound {
    pub(crate) decoder: FrameDecoder,
    /// The peer sent EOF (orderly shutdown of its write half).
    pub(crate) ended: bool,
    /// A socket error, or `TimedOut` from a read or idle deadline.
    pub(crate) error: Option<std::io::ErrorKind>,
    /// When the last *complete* frame was decoded — the idle-reaping
    /// clock: a slowloris peer trickling bytes that never finish a frame
    /// does not refresh it.
    pub(crate) last_frame: Option<Instant>,
}

impl Inbound {
    pub(crate) fn new(max_frame: usize) -> Inbound {
        Inbound {
            decoder: FrameDecoder::new(max_frame),
            ended: false,
            error: None,
            last_frame: None,
        }
    }

    /// Decode the next complete frame, refreshing the idle clock.
    fn next_frame(&mut self) -> Result<Option<Frame>, ProtocolError> {
        let frame = self.decoder.next_frame();
        if let Ok(Some(_)) = frame {
            self.last_frame = Some(Instant::now());
        }
        frame
    }

    /// Where the input stands once no complete frame is left to decode —
    /// the one end-of-input rule of both session phases. Decoded frames
    /// come first, as a blocking reader would consume buffered data before
    /// hitting the socket error or hangup; both are sticky.
    fn end(&self) -> InputEnd {
        match (self.ended, self.error) {
            (_, Some(kind)) => InputEnd::Failed(kind),
            (false, None) => InputEnd::Open,
            (true, None) if !self.decoder.mid_frame() => InputEnd::Closed,
            // Parity with the blocking `read_frame`: a cut-off frame header
            // (5 bytes) is a protocol-level truncation, a cut-off payload an
            // I/O-level unexpected EOF.
            (true, None) if self.decoder.buffered() < 5 => InputEnd::TruncatedHeader,
            (true, None) => InputEnd::TruncatedPayload,
        }
    }
}

/// See [`Inbound::end`].
enum InputEnd {
    /// No hangup and no failure yet: wait for bytes.
    Open,
    /// A socket error, or `TimedOut` from a read or idle deadline.
    Failed(std::io::ErrorKind),
    /// The peer hung up mid-header: [`ProtocolError::TruncatedFrame`].
    TruncatedHeader,
    /// The peer hung up mid-payload: an I/O unexpected EOF.
    TruncatedPayload,
    /// The peer hung up at a frame boundary: the input is over.
    Closed,
}

/// Bytes queued toward the socket. The session appends, its worker
/// writes; both run on the worker's thread, so the cell's lock is never
/// contended.
#[derive(Default)]
pub(crate) struct Outbound {
    pub(crate) buf: Vec<u8>,
    /// Prefix of `buf` already written to the socket.
    pub(crate) pos: usize,
    /// Sticky write failure: further frames are dropped, the session
    /// outcome is decided by the input side (or the write deadline).
    pub(crate) dead: bool,
}

/// The outbound cell a session and its sinks append to.
pub(crate) type OutCell = Arc<Mutex<Outbound>>;

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

/// Append one frame to a session's outbound cell (dropped after a sticky
/// write failure).
fn send(out: &OutCell, kind: FrameKind, payload: &[u8]) {
    let mut out = out.lock().expect("outbound lock poisoned");
    if !out.dead {
        write_frame(&mut out.buf, kind, payload).expect("a frame fits a Vec");
    }
}

/// How the session ended, for the server-wide counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SessionEnd {
    /// Ran to a clean `END` (including stats-only connections).
    Completed,
    /// Closed early by an error (protocol, syntax, I/O, resource).
    Failed,
}

/// Why [`SessionMachine::advance`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Advance {
    /// No complete frame/event is available; re-run when bytes arrive.
    NeedInput,
    /// The outbound buffer is over its high watermark; re-run once the
    /// peer has read it below the low watermark.
    NeedWrite,
    /// The CPU slice was spent with work remaining; re-queue (rotated
    /// behind other ready sessions).
    Working,
    /// The session is over; drop the machine, flush and close the socket.
    Done(SessionEnd),
}

/// A structured session error, mirroring the CLI's exit-code classes.
struct SessionError {
    class: &'static str,
    code: i32,
    message: String,
}

impl SessionError {
    fn new(class: &'static str, code: i32, message: impl Into<String>) -> Self {
        SessionError {
            class,
            code,
            message: message.into(),
        }
    }

    fn usage(message: impl Into<String>) -> Self {
        SessionError::new("usage", 1, message)
    }

    fn protocol(message: impl Into<String>) -> Self {
        SessionError::new("protocol", 1, message)
    }
}

/// One query's end of the network, owned by the session's pump. Each
/// fragment that reaches it is serialized and sent as a result frame the
/// moment it completes: under `strict` as the run determines it, under a
/// recovery policy when the pump's closing drain replays the survivors of
/// its quarantine. The pump counts what reached the sink for snapshots.
struct SessionSink {
    /// The `RESULT` payload under construction, reused across fragments:
    /// the query-name header, then the fragment serialized byte for byte
    /// as the one-shot CLI writes it, then a newline.
    payload: spex_xml::Writer<Vec<u8>>,
    /// Length of the name header that stays in `payload`.
    header: usize,
    out: OutCell,
    /// Upcoming fragments to swallow instead of sending: at resume,
    /// `client_received - snapshot_delivered`, the fragments the replayed
    /// input will regenerate.
    suppress: u64,
}

impl SessionSink {
    fn new(name: &str, out: OutCell, suppress: u64) -> SessionSink {
        let header = crate::protocol::result_payload(name, b"");
        SessionSink {
            header: header.len(),
            payload: spex_xml::Writer::new(header),
            out,
            suppress,
        }
    }
}

impl ResultSink for SessionSink {
    fn begin(&mut self, _meta: ResultMeta, _now: u64) {}

    fn event(&mut self, event: &RawEvent<'_>, _now: u64) {
        self.payload
            .write_view(event)
            .expect("writing a fragment to a Vec cannot fail");
    }

    /// While `suppress` is positive the fragment is a replay the client
    /// already holds, so it is not sent.
    fn end(&mut self, _now: u64) {
        let payload = self.payload.get_mut();
        if self.suppress > 0 {
            self.suppress -= 1;
        } else {
            payload.push(b'\n');
            send(&self.out, FrameKind::Result, payload);
        }
        payload.truncate(self.header);
    }
}

/// Everything the eval phase needs to keep a session durable: its token,
/// the live log (which owns the session's directory), and (for resumes)
/// the recovered continuation.
struct DurableCtx {
    token: String,
    log: SessionLog,
    /// The log's head snapshot, restored before consuming input (resumes
    /// past offset 0 only).
    snapshot: Option<Snapshot>,
    /// Per-query count of replayed fragments to suppress.
    suppress: Vec<u64>,
}

/// Whether this peer may stop the server with an in-band `SHUTDOWN`
/// frame: loopback peers always can (a local client stopping its own
/// server), anyone else only when the operator opted in — an unknown peer
/// (no resolvable address) is never trusted.
fn shutdown_permitted(allow_remote: bool, peer: Option<std::net::SocketAddr>) -> bool {
    allow_remote || peer.map(|p| p.ip().is_loopback()).unwrap_or(false)
}

/// Queue the closing error (optional) + `END` frame sequence.
fn close_frames(out: &OutCell, error: Option<&SessionError>) {
    if let Some(e) = error {
        send(
            out,
            FrameKind::Error,
            &error_payload(e.class, e.code, &e.message),
        );
    }
    send(out, FrameKind::SessionEnd, b"");
}

/// The wire side of the eval phase: decodes frames out of the connection's
/// [`Inbound`] and hands the parser its input. `END` — or the peer hanging
/// up at a frame boundary — ends the input (a hangup mid-document is then
/// exactly a truncated stream: a syntax error under `strict`, a
/// `truncated` fault under a recovery policy). Any other frame kind
/// mid-stream is a protocol violation, a socket error or a hangup
/// mid-frame an I/O failure; both fail the parser's input, which surfaces
/// the failure only after the events already fed.
#[derive(Default)]
struct EvalInput {
    /// The frame-grammar violation that failed the input, if one did:
    /// `spex_xml::XmlError` stringifies I/O errors, so the session
    /// re-classifies the parser's I/O error as a protocol error from here.
    violation: Option<ProtocolError>,
}

impl EvalInput {
    fn violate(&mut self, v: ProtocolError) -> std::io::Error {
        let e = std::io::Error::new(std::io::ErrorKind::InvalidData, v.to_string());
        self.violation = Some(v);
        e
    }

    /// Hand the parser the next piece of its input: one `DATA` payload, or
    /// the end (or failure) of the stream. `false` means nothing has
    /// arrived yet — the session suspends on [`Advance::NeedInput`].
    ///
    /// A durable session passes its WAL as `log`: every incoming `DATA`
    /// payload is appended *before* the parser sees the bytes (write-ahead).
    /// Replayed bytes fed at resume bypass this hook, so they are never
    /// logged twice. A WAL append failure fails the input (and so the
    /// session): input the engine consumed but the log lost could not be
    /// replayed.
    fn pump(
        &mut self,
        inbound: &mut Inbound,
        parser: &mut Parser,
        mut log: Option<&mut SessionLog>,
    ) -> bool {
        let fed = match inbound.next_frame() {
            Ok(Some(frame)) => match frame.kind {
                FrameKind::Data => log
                    .as_mut()
                    .map_or(Ok(()), |log| log.append_data(&frame.payload))
                    .map(|()| parser.feed(&frame.payload)),
                FrameKind::End => log
                    .as_mut()
                    .map_or(Ok(()), |log| log.append_end())
                    .map(|()| parser.end_input()),
                other => Err(self.violate(ProtocolError::UnexpectedKind(other))),
            },
            Err(p) => Err(self.violate(p)),
            Ok(None) => match inbound.end() {
                InputEnd::Open => return false,
                InputEnd::Failed(kind) => Err(std::io::Error::from(kind)),
                InputEnd::TruncatedHeader => Err(self.violate(ProtocolError::TruncatedFrame)),
                InputEnd::TruncatedPayload => Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                )),
                // Same as END: the XML layer decides whether the byte stream
                // was complete.
                InputEnd::Closed => {
                    parser.end_input();
                    Ok(())
                }
            },
        };
        if let Err(e) = fed {
            parser.fail_input(e);
        }
        true
    }
}

/// The eval phase's working state. The pump owns the parser, the plan
/// share and the per-query sinks; `durable` owns the WAL.
struct EvalPhase {
    pump: Pump<SessionSink>,
    input: EvalInput,
    durable: Option<DurableCtx>,
}

enum Phase {
    /// Registering: the queries acknowledged so far.
    Register(Vec<(String, Rpeq)>),
    Eval(Box<EvalPhase>),
    Finished,
}

/// What a register step decided.
enum Step {
    /// Yield this outcome to the worker.
    Ready(Advance),
    /// The machine transitioned into the eval phase; keep advancing.
    Enter,
}

/// One connection's protocol state machine. Created by the connection's
/// worker when its first bytes arrive; dropped when
/// [`SessionMachine::advance`] returns [`Advance::Done`].
pub(crate) struct SessionMachine {
    shared: Arc<Shared>,
    out: OutCell,
    accepted_at: Instant,
    shutdown_allowed: bool,
    span: spex_trace::Span,
    state: Phase,
}

impl SessionMachine {
    pub(crate) fn new(
        shared: Arc<Shared>,
        out: OutCell,
        peer: Option<SocketAddr>,
        accepted_at: Instant,
    ) -> SessionMachine {
        SessionMachine {
            span: shared.trace.tracer.span("serve.session"),
            shutdown_allowed: shutdown_permitted(shared.cfg.allow_remote_shutdown, peer),
            shared,
            out,
            accepted_at,
            state: Phase::Register(Vec::new()),
        }
    }

    /// Run until the session suspends or finishes. Never blocks; bounded by
    /// the CPU slice and the outbound watermark.
    pub(crate) fn advance(&mut self, inbound: &mut Inbound) -> Advance {
        loop {
            match std::mem::replace(&mut self.state, Phase::Finished) {
                Phase::Register(queries) => match self.step_register(queries, inbound) {
                    Step::Ready(adv) => return adv,
                    Step::Enter => continue,
                },
                Phase::Eval(phase) => return self.step_eval(phase, inbound),
                Phase::Finished => return Advance::NeedInput,
            }
        }
    }

    /// End the session without a word to the peer: its worker cut the
    /// connection off (write deadline).
    pub(crate) fn abandon(&mut self) {
        self.conclude(None, SessionEnd::Failed, false);
    }

    /// Queue the closing frames (if `send_frames`), stamp the span and
    /// finish.
    fn conclude(
        &mut self,
        error: Option<&SessionError>,
        end: SessionEnd,
        send_frames: bool,
    ) -> Advance {
        if send_frames {
            close_frames(&self.out, error);
        }
        self.span.set_attr(
            "end",
            match end {
                SessionEnd::Completed => "completed",
                SessionEnd::Failed => "failed",
            },
        );
        self.state = Phase::Finished;
        Advance::Done(end)
    }

    // --- Register phase -------------------------------------------------

    fn step_register(&mut self, mut queries: Vec<(String, Rpeq)>, inbound: &mut Inbound) -> Step {
        loop {
            let first = inbound.last_frame.is_none();
            match inbound.next_frame() {
                Ok(Some(frame)) => {
                    if first {
                        self.shared
                            .trace
                            .accept_to_first_frame_us
                            .record(self.accepted_at.elapsed().as_micros() as u64);
                    }
                    match frame.kind {
                        FrameKind::Register => register_one(&frame, &mut queries, &self.out),
                        FrameKind::Resume => {
                            return match handle_resume(&frame, &self.shared, &mut queries) {
                                Ok(prep) => {
                                    self.enter_eval(queries, FirstInput::Resume(Box::new(prep)))
                                }
                                Err(e) => {
                                    Step::Ready(self.conclude(Some(&e), SessionEnd::Failed, true))
                                }
                            };
                        }
                        FrameKind::Stats => {
                            let json = self.shared.stats.to_json();
                            send(&self.out, FrameKind::Stat, json.as_bytes());
                        }
                        FrameKind::TraceRequest => {
                            let json = self.shared.trace.to_json();
                            send(&self.out, FrameKind::Trace, json.as_bytes());
                        }
                        FrameKind::Shutdown => {
                            // Loopback peers (or all peers, when the
                            // operator opted in) may stop the server;
                            // anyone else gets a refusal that leaves their
                            // session usable — otherwise a single
                            // unauthenticated remote frame is a denial of
                            // service.
                            if self.shutdown_allowed {
                                self.shared.begin_shutdown();
                                send(&self.out, FrameKind::Ok, b"shutdown");
                            } else {
                                send(
                                    &self.out,
                                    FrameKind::Error,
                                    &error_payload(
                                        "usage",
                                        1,
                                        "shutdown is not permitted from this peer",
                                    ),
                                );
                            }
                        }
                        FrameKind::Data => {
                            return self.enter_eval(
                                queries,
                                FirstInput::Fresh {
                                    first_data: Some(frame.payload),
                                },
                            );
                        }
                        FrameKind::End => {
                            return self
                                .enter_eval(queries, FirstInput::Fresh { first_data: None });
                        }
                        other => {
                            let e = SessionError::protocol(
                                ProtocolError::UnexpectedKind(other).to_string(),
                            );
                            return Step::Ready(self.conclude(Some(&e), SessionEnd::Failed, true));
                        }
                    }
                }
                Ok(None) => {
                    return Step::Ready(match inbound.end() {
                        InputEnd::Open => {
                            self.state = Phase::Register(queries);
                            Advance::NeedInput
                        }
                        // Socket-level failure or a cut-off payload: silent
                        // close, like the blocking server's
                        // `Err(ReadError::Io)` arm.
                        InputEnd::Failed(_) | InputEnd::TruncatedPayload => {
                            self.conclude(None, SessionEnd::Failed, false)
                        }
                        InputEnd::TruncatedHeader => {
                            let e =
                                SessionError::protocol(ProtocolError::TruncatedFrame.to_string());
                            self.conclude(Some(&e), SessionEnd::Failed, true)
                        }
                        // Clean hangup before streaming: a stats-only or
                        // no-op connection ran to completion.
                        InputEnd::Closed => self.conclude(None, SessionEnd::Completed, false),
                    });
                }
                Err(p) => {
                    let e = SessionError::protocol(p.to_string());
                    return Step::Ready(self.conclude(Some(&e), SessionEnd::Failed, true));
                }
            }
        }
    }

    // --- Register → eval transition -------------------------------------

    fn enter_eval(&mut self, queries: Vec<(String, Rpeq)>, first: FirstInput) -> Step {
        // Canonicalize the registration list once (sorted by name +
        // canonical expression, duplicates dropped): from here on every
        // positional index — plan sinks, delivered/suppress counters,
        // durable queries.txt lines, resume received-counts — speaks the
        // combiner's logical query order, whatever order the client
        // registered in. A session registering nothing adopts the server's
        // preloaded standing set (the CLI's `--queries FILE`), if any.
        let queries = if queries.is_empty() {
            if self.shared.cfg.preload_queries.is_empty() {
                let e = SessionError::usage("no queries registered before DATA/END");
                return Step::Ready(self.conclude(Some(&e), SessionEnd::Failed, true));
            }
            self.shared.cfg.preload_queries.clone()
        } else {
            spex_combine::canonicalize_registrations(&queries)
        };

        let plan = match self.shared.registry.get_or_compile(&queries) {
            Ok((plan, hit)) => {
                let counter = if hit {
                    &self.shared.stats.plan_cache_hits
                } else {
                    &self.shared.stats.plan_cache_misses
                };
                counter.fetch_add(1, Ordering::Relaxed);
                plan
            }
            Err(e) => {
                let e = SessionError::usage(e.to_string());
                return Step::Ready(self.conclude(Some(&e), SessionEnd::Failed, true));
            }
        };

        // --- Durable state ----------------------------------------------
        // Resumes carry their recovered WAL tail as the preloaded byte
        // buffer; fresh sessions under `--durable-dir` mint a token, open
        // a log and write-ahead the first DATA payload already in hand.
        let (durable_ctx, preload, source_ended) = match first {
            FirstInput::Resume(prep) => {
                let (ctx, replay, replay_ended) = *prep;
                // The durable input byte count, announced before any
                // replayed result frames so the client knows where to
                // continue its stream from.
                let total = ctx.log.total_bytes();
                send(&self.out, FrameKind::ResumeOk, &total.to_be_bytes());
                (Some(ctx), replay, replay_ended)
            }
            FirstInput::Fresh { first_data } => {
                let was_end = first_data.is_none();
                let preload = first_data.unwrap_or_default();
                match self.shared.cfg.durable_dir.as_deref() {
                    Some(root) => {
                        let root = Path::new(root);
                        let token =
                            durable::new_token(self.shared.seq.fetch_add(1, Ordering::Relaxed));
                        let exprs: Vec<(String, String)> = queries
                            .iter()
                            .map(|(n, q)| (n.clone(), q.to_string()))
                            .collect();
                        let log = SessionLog::create(root, &token, &exprs, self.shared.cfg.fsync)
                            .and_then(|mut log| {
                                if was_end {
                                    log.append_end()?;
                                } else {
                                    log.append_data(&preload)?;
                                }
                                Ok(log)
                            });
                        match log {
                            Ok(log) => {
                                send(
                                    &self.out,
                                    FrameKind::Ok,
                                    format!("session={token}").as_bytes(),
                                );
                                let ctx = DurableCtx {
                                    token,
                                    log,
                                    snapshot: None,
                                    suppress: vec![0; queries.len()],
                                };
                                (Some(ctx), preload, was_end)
                            }
                            Err(e) => {
                                let e = SessionError::new(
                                    "io",
                                    3,
                                    format!("opening the durable session log failed: {e}"),
                                );
                                return Step::Ready(self.conclude(
                                    Some(&e),
                                    SessionEnd::Failed,
                                    true,
                                ));
                            }
                        }
                    }
                    None => (None, preload, was_end),
                }
            }
        };

        // --- Build the eval pipeline ------------------------------------
        // One sink per logical query, in the plan's query order; a resume
        // suppresses the replayed fragments the client already holds.
        let sinks = plan
            .ids()
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let suppress = durable_ctx
                    .as_ref()
                    .and_then(|d| d.suppress.get(i).copied());
                SessionSink::new(name, Arc::clone(&self.out), suppress.unwrap_or(0))
            })
            .collect();
        let mut run = plan.run_with_limits(sinks, self.shared.cfg.limits);
        run.set_tracer(self.shared.trace.tracer.clone());
        let mut pump = Pump::new(
            run,
            RecoveryOptions {
                policy: self.shared.cfg.recovery,
                on_truncation: self.shared.cfg.on_truncation,
                multi_document: true,
                ..RecoveryOptions::default()
            },
        );
        if let Some(d) = &durable_ctx {
            if let Some(snap) = &d.snapshot {
                // The replayed WAL tail starts exactly at the snapshot's
                // byte offset; the parser continues in the original
                // coordinates, and the pump takes back the faults,
                // quarantines and delivery counts of the lives before.
                let mut span = self.shared.trace.tracer.span("serve.restore");
                span.set_attr("token", d.token.as_str());
                if let Err(e) = pump.restore(snap) {
                    let e = SessionError::new(
                        "io",
                        3,
                        format!("restoring the durable snapshot failed: {e}"),
                    );
                    return Step::Ready(self.conclude(Some(&e), SessionEnd::Failed, true));
                }
            }
        }
        // Already logged: a resume's WAL tail, or the first `DATA` payload
        // a fresh durable session write-ahead-logged above.
        pump.parser_mut().feed(&preload);
        drop(preload);
        if source_ended {
            pump.parser_mut().end_input();
        }
        self.state = Phase::Eval(Box::new(EvalPhase {
            pump,
            input: EvalInput::default(),
            durable: durable_ctx,
        }));
        Step::Enter
    }

    // --- Eval phase ------------------------------------------------------

    fn step_eval(&mut self, mut phase: Box<EvalPhase>, inbound: &mut Inbound) -> Advance {
        let mut events = 0usize;
        loop {
            if events >= SLICE_EVENTS {
                self.state = Phase::Eval(phase);
                return Advance::Working;
            }
            if self.out.lock().expect("outbound lock poisoned").pending() > OUT_HIGH {
                self.state = Phase::Eval(phase);
                return Advance::NeedWrite;
            }
            match phase.pump.step(1) {
                Ok(Yield::Budget) => events += 1,
                Ok(Yield::Boundary) => {
                    events += 1;
                    if let Some(d) = &mut phase.durable {
                        checkpoint(d, &phase.pump, &self.shared);
                    }
                }
                Ok(Yield::NeedMore) => {
                    let log = phase.durable.as_mut().map(|d| &mut d.log);
                    if !phase.input.pump(inbound, phase.pump.parser_mut(), log) {
                        self.state = Phase::Eval(phase);
                        return Advance::NeedInput;
                    }
                }
                Ok(Yield::End) => return self.finish_eval(phase, None),
                // An I/O failure that is really a peer protocol violation is
                // re-classified in `finish_eval`.
                Err(e) => return self.finish_eval(phase, Some(e)),
            }
        }
    }

    /// The closing sequence: fold the session into the server-wide stats,
    /// send the fault frames, finish the pump (which drains the recovery
    /// quarantines as result frames), settle durable state, then queue
    /// `STAT` + optional error + `END`.
    fn finish_eval(&mut self, phase: Box<EvalPhase>, error: Option<EvalError>) -> Advance {
        let shared = Arc::clone(&self.shared);
        let EvalPhase {
            pump,
            input,
            durable,
        } = *phase;
        shared
            .stats
            .documents
            .fetch_add(pump.documents(), Ordering::Relaxed);
        // Fold this session's determination latency into the server-wide
        // aggregate behind the `T` frame. This must happen while the run
        // is live; `</$>` boundaries already harvested every closed
        // document, so only the tail of a truncated stream is missing
        // here.
        for (_, hist) in pump.machine().determination_latency() {
            shared.trace.det_latency.merge(&hist);
        }
        // Faults first, so a client sees why fragments were withheld
        // before the surviving results arrive. A resumed session re-reports
        // the faults recorded before the crash.
        for fault in pump.faults() {
            send(&self.out, FrameKind::Fault, fault_json(fault).as_bytes());
        }
        let done = pump.finish();
        shared.stats.absorb_engine(&done.stats);
        if let Some(r) = &done.report {
            shared
                .stats
                .absorb_faults(&r.faults, r.truncated, r.results, r.dropped);
        }

        // Classified by `EvalError::class`, as the CLI's exit codes are,
        // unless the peer broke the frame grammar: the I/O error that the
        // violation caused is a protocol error.
        let session_error = error.as_ref().map(|e| match &input.violation {
            Some(v) => SessionError::protocol(v.to_string()),
            None => {
                let (class, code) = e.class();
                SessionError::new(class, code, e.to_string())
            }
        });

        if let Some(d) = durable {
            shared
                .trace
                .tracer
                .counter("wal.bytes", d.log.wal_bytes_written());
            // A clean END means the session is over and will never be
            // resumed; a hangup or error keeps the durable state for a
            // later `M` frame.
            if session_error.is_none() && d.log.ended() {
                let _ = d.log.remove();
            }
        }

        let json = stats_json(&done.stats, &done.transducers, done.report.as_ref());
        send(&self.out, FrameKind::Stat, json.as_bytes());
        let end = if session_error.is_some() {
            SessionEnd::Failed
        } else {
            SessionEnd::Completed
        };
        self.conclude(session_error.as_ref(), end, true)
    }
}

/// The register-phase input handoff into the eval phase.
enum FirstInput {
    Fresh {
        /// The first `DATA` payload (`None` when `END` arrived first).
        first_data: Option<Vec<u8>>,
    },
    Resume(Box<(DurableCtx, Vec<u8>, bool)>),
}

/// Handle an `M` frame: validate it and reopen the session's log for a new
/// life (queries, head snapshot, longest valid prefix of the records after
/// it). Returns the assembled [`DurableCtx`], the logged input to replay
/// (the bytes past the head snapshot's resume offset) and whether the log
/// already holds the end-of-stream marker.
fn handle_resume(
    frame: &Frame,
    shared: &Arc<Shared>,
    queries: &mut Vec<(String, Rpeq)>,
) -> Result<(DurableCtx, Vec<u8>, bool), SessionError> {
    let Some(root) = shared.cfg.durable_dir.as_deref() else {
        return Err(SessionError::usage(
            "resume requires a server started with --durable-dir",
        ));
    };
    let Some((version, token, received)) = split_resume(&frame.payload) else {
        return Err(SessionError::protocol("malformed RESUME payload"));
    };
    if version != RESUME_VERSION {
        return Err(SessionError::protocol(format!(
            "unsupported resume version {version} (this server speaks version {RESUME_VERSION})"
        )));
    }
    if !durable::valid_token(token) {
        return Err(SessionError::usage(format!(
            "invalid session token `{token}`"
        )));
    }
    let resumed = SessionLog::resume(Path::new(root), token, shared.cfg.fsync).map_err(|e| {
        SessionError::new(
            "io",
            3,
            format!("reading durable session state failed: {e}"),
        )
    })?;
    let Some((log, recovered)) = resumed else {
        return Err(SessionError::usage(format!(
            "unknown session token `{token}`"
        )));
    };
    // The durable registration is authoritative: a client may resume with
    // no `R` frames at all (the query set is adopted from `queries.txt`),
    // but if it did re-register, the sets must agree — resuming a session
    // under a different query set would silently change its meaning.
    let recovered_queries: Vec<(String, Rpeq)> = recovered
        .queries
        .iter()
        .map(|(name, expr)| {
            let q = expr.parse::<Rpeq>().map_err(|e| {
                SessionError::new("io", 3, format!("durable queries.txt is corrupt: {e}"))
            })?;
            Ok((name.clone(), q))
        })
        .collect::<Result<_, SessionError>>()?;
    // queries.txt is written canonicalized; canonicalize again anyway so
    // the positional index math below cannot drift from the plan's order.
    let recovered_queries = spex_combine::canonicalize_registrations(&recovered_queries);
    if recovered_queries.is_empty() {
        return Err(SessionError::new(
            "io",
            3,
            "durable queries.txt holds no queries",
        ));
    }
    if !queries.is_empty() {
        // Compare canonical forms: a resume may re-register the same set in
        // any order or spelling.
        let registered: Vec<(String, String)> = spex_combine::canonicalize_registrations(queries)
            .iter()
            .map(|(n, q)| (n.clone(), q.to_string()))
            .collect();
        let durable: Vec<(String, String)> = recovered_queries
            .iter()
            .map(|(n, q)| (n.clone(), q.to_string()))
            .collect();
        if registered != durable {
            return Err(SessionError::usage(format!(
                "resume registration does not match session `{token}` \
                 ({} registered vs {} durable queries)",
                registered.len(),
                durable.len()
            )));
        }
    }
    *queries = recovered_queries;
    if received.len() != queries.len() {
        return Err(SessionError::usage(format!(
            "resume carries {} received counts for {} queries",
            received.len(),
            queries.len()
        )));
    }
    // The head snapshot must resume exactly where the logged input starts;
    // one that does not is a structured error, never a wrong resume.
    let snapshot = recovered
        .snapshot
        .as_deref()
        .map(Snapshot::decode)
        .transpose()
        .map_err(|e| SessionError::new("io", 3, format!("durable snapshot is corrupt: {e}")))?;
    let session = snapshot.as_ref().and_then(|snap| snap.session.as_ref());
    if session.map_or(0, |s| s.position.offset) != recovered.wal_start {
        return Err(SessionError::new(
            "io",
            3,
            "durable snapshot does not resume where its log starts",
        ));
    }
    let suppress = received
        .iter()
        .enumerate()
        .map(|(i, received)| {
            let base = session.and_then(|s| s.delivered.get(i).copied());
            received.saturating_sub(base.unwrap_or(0))
        })
        .collect();
    Ok((
        DurableCtx {
            token: token.to_string(),
            log,
            snapshot,
            suppress,
        },
        recovered.wal,
        recovered.ended,
    ))
}

/// Handle one `REGISTER` frame; acknowledges with `k` (payload = name) or
/// an `e` frame that leaves the session usable.
fn register_one(frame: &Frame, queries: &mut Vec<(String, Rpeq)>, out: &OutCell) {
    let reject = |message: String| {
        send(out, FrameKind::Error, &error_payload("usage", 1, &message));
    };
    let Ok(text) = std::str::from_utf8(&frame.payload) else {
        reject("registration is not valid UTF-8".to_string());
        return;
    };
    let Some((name, expr)) = text.split_once('=') else {
        reject(format!(
            "registration `{text}` is not of the form name=expr"
        ));
        return;
    };
    if name.is_empty() || name.len() > 255 {
        reject(format!("query name `{name}` must be 1..=255 bytes"));
        return;
    }
    if queries.iter().any(|(n, _)| n == name) {
        reject(format!("query name `{name}` is already registered"));
        return;
    }
    match expr.parse::<Rpeq>() {
        Ok(q) => {
            queries.push((name.to_string(), q));
            send(out, FrameKind::Ok, name.as_bytes());
        }
        Err(e) => reject(format!("query `{expr}`: {e}")),
    }
}

/// Document-boundary checkpoint: when a roll is due, the log is rolled onto
/// the pump's snapshot (run, faults, quarantines, delivery counts, parser
/// resume point) and the parser's unconsumed bytes; otherwise it is synced.
/// All disk failures are absorbed — a failed checkpoint costs replay time
/// on the next resume, never the live session.
fn checkpoint(d: &mut DurableCtx, pump: &Pump<SessionSink>, shared: &Arc<Shared>) {
    let parser = pump.parser();
    let (offset, unconsumed) = (parser.position().offset, parser.unconsumed());
    // `None` at a `</$>` synthesized for a truncated stream: the client
    // resends that document's tail to the next life.
    let due = d.log.roll_due(offset, unconsumed.len());
    let Some(snap) = due.then(|| pump.checkpoint()).flatten() else {
        let _ = d.log.sync_for_document();
        return;
    };
    let mut span = shared.trace.tracer.span("serve.checkpoint");
    span.set_attr("token", d.token.as_str());
    if d.log.roll(offset, &snap.encode(), unconsumed).is_ok() {
        shared.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
    }
}

/// One fault as a line of JSON (same field names as the one-shot schema's
/// `first`/`last` entries, plus the action and detail).
fn fault_json(fault: &spex_xml::Fault) -> String {
    format!(
        "{{\"kind\":\"{}\",\"offset\":{},\"line\":{},\"column\":{},\"action\":\"{}\",\"detail\":\"{}\"}}",
        fault.kind.as_str(),
        fault.position.offset,
        fault.position.line,
        fault.position.column,
        fault.action.as_str(),
        spex_trace::escape_json(&fault.detail),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use spex_xml::Poll;

    #[test]
    fn shutdown_gate_trusts_loopback_peers_only() {
        let lo4: std::net::SocketAddr = "127.0.0.1:1".parse().unwrap();
        let lo6: std::net::SocketAddr = "[::1]:1".parse().unwrap();
        let remote: std::net::SocketAddr = "10.0.0.9:1".parse().unwrap();
        assert!(shutdown_permitted(false, Some(lo4)));
        assert!(shutdown_permitted(false, Some(lo6)));
        assert!(!shutdown_permitted(false, Some(remote)));
        assert!(!shutdown_permitted(false, None));
        assert!(shutdown_permitted(true, Some(remote)));
        assert!(shutdown_permitted(true, None));
    }

    /// A `DATA` frame split across two socket reads is fed only once
    /// complete; until then the pump reports that nothing has arrived.
    #[test]
    fn pump_feeds_whole_payloads_and_waits_otherwise() {
        let mut framed = Vec::new();
        write_frame(&mut framed, FrameKind::Data, b"<a/>").unwrap();
        let mut inbound = Inbound::new(1024);
        let mut input = EvalInput::default();
        let mut parser = Parser::new();
        let mut store = spex_xml::EventStore::new();
        assert!(!input.pump(&mut inbound, &mut parser, None));
        inbound.decoder.push(&framed[..7]);
        assert!(!input.pump(&mut inbound, &mut parser, None));
        inbound.decoder.push(&framed[7..]);
        assert!(input.pump(&mut inbound, &mut parser, None));
        // `<$>`, `<a>`, `</a>`; the end of the document waits for more.
        for _ in 0..3 {
            assert!(matches!(parser.poll_into(&mut store), Ok(Poll::Event(_))));
        }
        assert_eq!(parser.poll_into(&mut store), Ok(Poll::NeedMore));
        assert_eq!(parser.position().offset, 4);
    }

    /// A hangup mid-payload is an I/O-class failure; a hangup mid-header is
    /// a protocol-class truncation — parity with `read_frame`.
    #[test]
    fn hangup_truncation_classes_match_blocking_decoder() {
        let mut store = spex_xml::EventStore::new();
        let mut failure = |input: &mut EvalInput, inbound: &mut Inbound| {
            let mut parser = Parser::new();
            assert!(input.pump(inbound, &mut parser, None));
            assert!(matches!(parser.poll_into(&mut store), Ok(Poll::Event(_))));
            parser.poll_into(&mut store).unwrap_err()
        };

        // Mid-payload: full header promising 10 bytes, only 3 delivered.
        let mut inbound = Inbound::new(1024);
        inbound.decoder.push(&[FrameKind::Data.byte()]);
        inbound.decoder.push(&10u32.to_be_bytes());
        inbound.decoder.push(b"abc");
        inbound.ended = true;
        let mut input = EvalInput::default();
        assert!(!failure(&mut input, &mut inbound).kind().is_syntax_class());
        assert!(input.violation.is_none());

        // Mid-header: three header bytes then EOF.
        let mut inbound = Inbound::new(1024);
        inbound.decoder.push(&[FrameKind::Data.byte(), 0, 0]);
        inbound.ended = true;
        let mut input = EvalInput::default();
        assert!(!failure(&mut input, &mut inbound).kind().is_syntax_class());
        assert!(matches!(
            input.violation,
            Some(ProtocolError::TruncatedFrame)
        ));
    }
}
