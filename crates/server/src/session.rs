//! One client session as a nonblocking state machine: the register phase,
//! the streaming eval phase, and the closing `STAT`/`END` exchange —
//! driven by readiness instead of a dedicated blocking thread.
//!
//! The reactor (see [`crate::reactor`]) owns the socket and shovels bytes
//! between it and the connection's [`Conn`] buffers; this module owns all
//! protocol logic. A [`SessionMachine`] is pinned to one worker and advanced
//! whenever its connection is ready: [`SessionMachine::advance`] consumes
//! decoded frames, drives the session's [`Pump`], emits result frames into
//! the bounded outbound buffer, and reports why it
//! suspended ([`Advance::NeedInput`], [`Advance::NeedWrite`] for
//! writability backpressure, [`Advance::Working`] when its CPU slice is
//! spent) or how it finished.
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
//!    reactor's read/idle deadlines — a worker never waits for bytes.
//! 3. **Close**: on `E` (or an error) the machine queues any `f` fault
//!    frames, a `s` stats frame in the one-shot `--stats-json` schema, and
//!    `n`; the reactor flushes and closes.
//!
//! Errors mirror the one-shot CLI's exit-code classes (`usage`=1,
//! `syntax`=2, `io`=3, `resource`=4) plus `protocol` for frame-grammar
//! violations; an error closes *this* session only.

use crate::conn::{Conn, Notifier, OUT_HIGH};
use crate::durable::{self, SessionLog};
use crate::protocol::{
    error_payload, result_payload, split_resume, Frame, FrameDecoder, FrameKind, ProtocolError,
    RESUME_VERSION,
};
use crate::server::Shared;
use spex_core::{
    stats_json, EvalError, Pump, RecoveryOptions, ResultMeta, ResultSink, Snapshot, Yield,
};
use spex_query::Rpeq;
use spex_xml::{Parser, RawEvent};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Maximum events pushed per [`SessionMachine::advance`] before the
/// machine yields [`Advance::Working`], so one firehose session cannot
/// starve its worker's other ready sessions.
const SLICE_EVENTS: usize = 4096;

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
    /// The outbound buffer is over its high watermark; re-run when the
    /// reactor has drained it below the low watermark.
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

/// Classify an engine error exactly like the CLI's exit-code mapping, with
/// `violation` taking precedence: an `EvalError::Xml(Io)` caused by the
/// peer breaking the frame grammar is a protocol error, not an I/O error.
fn classify(err: &EvalError, violation: Option<&ProtocolError>) -> SessionError {
    if let Some(v) = violation {
        return SessionError::protocol(v.to_string());
    }
    match err {
        EvalError::Query(_) | EvalError::Compile(_) => SessionError::usage(err.to_string()),
        EvalError::Xml(e) => {
            if e.kind().is_syntax_class() {
                SessionError::new("syntax", 2, err.to_string())
            } else {
                SessionError::new("io", 3, err.to_string())
            }
        }
        EvalError::ResourceExhausted { .. } => SessionError::new("resource", 4, err.to_string()),
    }
}

/// One query's end of the network, owned by the session's pump. Each
/// fragment that reaches it is serialized and sent as a result frame the
/// moment it completes: under `strict` as the run determines it, under a
/// recovery policy when the pump's closing drain replays the survivors of
/// its quarantine. The pump counts what reached the sink for snapshots.
struct SessionSink {
    name: String,
    conn: Arc<Conn>,
    /// Upcoming fragments to swallow instead of sending: at resume,
    /// `client_received - snapshot_delivered`, the fragments the replayed
    /// input will regenerate.
    suppress: u64,
    /// The fragment being serialized by a fresh [`spex_xml::Writer`], byte
    /// for byte as the one-shot CLI writes it.
    current: Option<spex_xml::Writer<Vec<u8>>>,
}

impl ResultSink for SessionSink {
    fn begin(&mut self, _meta: ResultMeta, _now: u64) {
        self.current = Some(spex_xml::Writer::new(Vec::new()));
    }

    fn event(&mut self, event: &RawEvent<'_>, _now: u64) {
        if let Some(w) = &mut self.current {
            w.write_view(event)
                .expect("writing a fragment to a Vec cannot fail");
        }
    }

    /// While `suppress` is positive the fragment is a replay the client
    /// already holds, so it is not sent. The payload is the fragment plus a
    /// newline (the one-shot CLI's per-line output) behind the query name
    /// header.
    fn end(&mut self, _now: u64) {
        let Some(w) = self.current.take() else { return };
        if self.suppress > 0 {
            self.suppress -= 1;
            return;
        }
        let fragment = w.into_inner().expect("flush to Vec cannot fail");
        let mut payload = result_payload(&self.name, &fragment);
        payload.push(b'\n');
        self.conn.send_frame(FrameKind::Result, &payload);
    }
}

/// Everything the eval phase needs to keep a session durable: where its
/// state lives, the live WAL handle, and (for resumes) the recovered
/// continuation.
struct DurableCtx {
    root: PathBuf,
    token: String,
    log: SessionLog,
    /// The snapshot to restore before consuming input (resumes whose
    /// snapshot is usable; the others replay the whole WAL).
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
fn close_frames(conn: &Conn, error: Option<&SessionError>) {
    if let Some(e) = error {
        conn.send_frame(
            FrameKind::Error,
            &error_payload(e.class, e.code, &e.message),
        );
    }
    conn.send_frame(FrameKind::SessionEnd, b"");
}

/// The wire side of the eval phase: decodes frames out of the connection's
/// inbox and hands the parser its input. `END` — or the peer hanging up at
/// a frame boundary — ends the input (a hangup mid-document is then exactly
/// a truncated stream: a syntax error under `strict`, a `truncated` fault
/// under a recovery policy). Any other frame kind mid-stream is a protocol
/// violation, a socket error or a hangup mid-frame an I/O failure; both
/// fail the parser's input, which surfaces the failure only after the
/// events already fed.
struct EvalInput {
    conn: Arc<Conn>,
    notifier: Arc<Notifier>,
    decoder: FrameDecoder,
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

    /// Move the inbox's bytes into the frame decoder; returns the inbox's
    /// (sticky) hangup and socket-error state.
    fn drain_inbox(&mut self) -> (bool, Option<std::io::ErrorKind>) {
        let (drained, hangup, socket_err) = {
            let mut inbox = self.conn.inbox.lock().expect("inbox lock poisoned");
            let drained = !inbox.buf.is_empty();
            if drained {
                self.decoder.push(&inbox.buf);
                inbox.buf.clear();
            }
            (drained, inbox.ended, inbox.error)
        };
        if drained {
            self.conn.note_inbox_drained(&self.notifier);
        }
        (hangup, socket_err)
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
    fn pump(&mut self, parser: &mut Parser, mut log: Option<&mut SessionLog>) -> bool {
        let mut frame = self.decoder.next_frame();
        let mut closed = (false, None);
        if matches!(frame, Ok(None)) {
            closed = self.drain_inbox();
            frame = self.decoder.next_frame();
        }
        // Decoded frames come before any termination condition, as a
        // blocking reader would consume buffered data before hitting the
        // socket error or hangup; both are sticky in the inbox and seen
        // again once no frame is left.
        let fed = match frame {
            Ok(Some(frame)) => {
                self.conn.note_frame_complete();
                match frame.kind {
                    FrameKind::Data => log
                        .as_mut()
                        .map_or(Ok(()), |log| log.append_data(&frame.payload))
                        .map(|()| parser.feed(&frame.payload)),
                    FrameKind::End => log
                        .as_mut()
                        .map_or(Ok(()), |log| log.append_end())
                        .map(|()| parser.end_input()),
                    other => Err(self.violate(ProtocolError::UnexpectedKind(other))),
                }
            }
            Err(p) => Err(self.violate(p)),
            Ok(None) => match closed {
                (_, Some(kind)) => Err(std::io::Error::from(kind)),
                // Parity with the blocking `read_frame`: a cut-off frame
                // header is a protocol-level truncation, a cut-off payload
                // is an I/O-level unexpected EOF.
                (true, None) if self.decoder.mid_frame() && self.decoder.buffered() < 5 => {
                    Err(self.violate(ProtocolError::TruncatedFrame))
                }
                (true, None) if self.decoder.mid_frame() => Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                )),
                // Hangup at a frame boundary: same as END — the XML layer
                // decides whether the byte stream was complete.
                (true, None) => {
                    parser.end_input();
                    Ok(())
                }
                (false, None) => return false,
            },
        };
        if let Err(e) = fed {
            parser.fail_input(e);
        }
        true
    }
}

/// The register phase's working state.
struct RegisterPhase {
    decoder: FrameDecoder,
    queries: Vec<(String, Rpeq)>,
}

/// The eval phase's working state. The pump owns the parser, the plan
/// share and the per-query sinks; `durable` owns the WAL.
struct EvalPhase {
    pump: Pump<SessionSink>,
    input: EvalInput,
    durable: Option<DurableCtx>,
}

enum Phase {
    Register(RegisterPhase),
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

/// One connection's protocol state machine. Created by the pinned worker
/// when the connection's first bytes arrive; dropped when
/// [`SessionMachine::advance`] returns [`Advance::Done`].
pub(crate) struct SessionMachine {
    conn: Arc<Conn>,
    shared: Arc<Shared>,
    shutdown_allowed: bool,
    span: spex_trace::Span,
    state: Phase,
}

impl SessionMachine {
    pub(crate) fn new(conn: Arc<Conn>, shared: Arc<Shared>) -> SessionMachine {
        let span = shared.trace.tracer.span("serve.session");
        let shutdown_allowed = shutdown_permitted(shared.cfg.allow_remote_shutdown, conn.peer);
        let max_frame = shared.cfg.max_frame;
        SessionMachine {
            conn,
            shared,
            shutdown_allowed,
            span,
            state: Phase::Register(RegisterPhase {
                decoder: FrameDecoder::new(max_frame),
                queries: Vec::new(),
            }),
        }
    }

    /// Run until the session suspends or finishes. Never blocks; bounded by
    /// the CPU slice and the outbound watermark.
    pub(crate) fn advance(&mut self) -> Advance {
        if self.conn.killed.load(Ordering::Relaxed) && !matches!(self.state, Phase::Finished) {
            // The reactor hard-closed the socket (write deadline,
            // shutdown): there is no peer left to talk to.
            return self.conclude(None, SessionEnd::Failed, false);
        }
        loop {
            match std::mem::replace(&mut self.state, Phase::Finished) {
                Phase::Register(reg) => match self.step_register(reg) {
                    Step::Ready(adv) => return adv,
                    Step::Enter => continue,
                },
                Phase::Eval(phase) => return self.step_eval(phase),
                Phase::Finished => return Advance::NeedInput,
            }
        }
    }

    /// Queue the closing frames (unless `silent`), stamp the span and
    /// finish.
    fn conclude(
        &mut self,
        error: Option<&SessionError>,
        end: SessionEnd,
        send_frames: bool,
    ) -> Advance {
        if send_frames {
            close_frames(&self.conn, error);
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

    fn step_register(&mut self, mut reg: RegisterPhase) -> Step {
        let (hangup, socket_err) = {
            let mut inbox = self.conn.inbox.lock().expect("inbox lock poisoned");
            if !inbox.buf.is_empty() {
                reg.decoder.push(&inbox.buf);
                inbox.buf.clear();
            }
            (inbox.ended, inbox.error)
        };
        self.conn.note_inbox_drained(&self.shared.notifier);
        loop {
            match reg.decoder.next_frame() {
                Ok(Some(frame)) => {
                    if self.conn.note_frame_complete() {
                        self.shared
                            .trace
                            .accept_to_first_frame_us
                            .record(self.conn.accepted_at.elapsed().as_micros() as u64);
                    }
                    match frame.kind {
                        FrameKind::Register => register_one(&frame, &mut reg.queries, &self.conn),
                        FrameKind::Resume => {
                            return match handle_resume(&frame, &self.shared, &mut reg.queries) {
                                Ok(prep) => {
                                    self.enter_eval(reg, FirstInput::Resume(Box::new(prep)))
                                }
                                Err(e) => {
                                    Step::Ready(self.conclude(Some(&e), SessionEnd::Failed, true))
                                }
                            };
                        }
                        FrameKind::Stats => {
                            let json = self.shared.stats.to_json();
                            self.conn.send_frame(FrameKind::Stat, json.as_bytes());
                        }
                        FrameKind::TraceRequest => {
                            let json = self.shared.trace.to_json();
                            self.conn.send_frame(FrameKind::Trace, json.as_bytes());
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
                                self.conn.send_frame(FrameKind::Ok, b"shutdown");
                            } else {
                                self.conn.send_frame(
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
                                reg,
                                FirstInput::Fresh {
                                    first_data: Some(frame.payload),
                                },
                            );
                        }
                        FrameKind::End => {
                            return self.enter_eval(reg, FirstInput::Fresh { first_data: None });
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
                    // Socket-level failure: silent close, like the
                    // blocking server's `Err(ReadError::Io)` arm.
                    if socket_err.is_some() {
                        return Step::Ready(self.conclude(None, SessionEnd::Failed, false));
                    }
                    if hangup {
                        if reg.decoder.mid_frame() {
                            if reg.decoder.buffered() < 5 {
                                let e = SessionError::protocol(
                                    ProtocolError::TruncatedFrame.to_string(),
                                );
                                return Step::Ready(self.conclude(
                                    Some(&e),
                                    SessionEnd::Failed,
                                    true,
                                ));
                            }
                            return Step::Ready(self.conclude(None, SessionEnd::Failed, false));
                        }
                        // Clean hangup before streaming: a stats-only or
                        // no-op connection ran to completion.
                        return Step::Ready(self.conclude(None, SessionEnd::Completed, false));
                    }
                    self.state = Phase::Register(reg);
                    return Step::Ready(Advance::NeedInput);
                }
                Err(p) => {
                    let e = SessionError::protocol(p.to_string());
                    return Step::Ready(self.conclude(Some(&e), SessionEnd::Failed, true));
                }
            }
        }
    }

    // --- Register → eval transition -------------------------------------

    fn enter_eval(&mut self, reg: RegisterPhase, first: FirstInput) -> Step {
        let RegisterPhase { decoder, queries } = reg;
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
                self.conn
                    .send_frame(FrameKind::ResumeOk, &total.to_be_bytes());
                (Some(ctx), replay, replay_ended)
            }
            FirstInput::Fresh { first_data } => {
                let was_end = first_data.is_none();
                let preload = first_data.unwrap_or_default();
                match self.shared.cfg.durable_dir.as_deref() {
                    Some(root) => {
                        let root = PathBuf::from(root);
                        let token =
                            durable::new_token(self.shared.seq.fetch_add(1, Ordering::Relaxed));
                        let exprs: Vec<(String, String)> = queries
                            .iter()
                            .map(|(n, q)| (n.clone(), q.to_string()))
                            .collect();
                        let log = SessionLog::create(&root, &token, &exprs, self.shared.cfg.fsync)
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
                                self.conn.send_frame(
                                    FrameKind::Ok,
                                    format!("session={token}").as_bytes(),
                                );
                                let ctx = DurableCtx {
                                    root,
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
            .map(|(i, name)| SessionSink {
                name: name.clone(),
                conn: Arc::clone(&self.conn),
                suppress: durable_ctx
                    .as_ref()
                    .and_then(|d| d.suppress.get(i).copied())
                    .unwrap_or(0),
                current: None,
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
        let input = EvalInput {
            conn: Arc::clone(&self.conn),
            notifier: Arc::clone(&self.shared.notifier),
            decoder,
            violation: None,
        };
        self.state = Phase::Eval(Box::new(EvalPhase {
            pump,
            input,
            durable: durable_ctx,
        }));
        Step::Enter
    }

    // --- Eval phase ------------------------------------------------------

    fn step_eval(&mut self, mut phase: Box<EvalPhase>) -> Advance {
        let mut events = 0usize;
        loop {
            if events >= SLICE_EVENTS {
                self.state = Phase::Eval(phase);
                return Advance::Working;
            }
            if self.conn.outbound_pending() > OUT_HIGH {
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
                    if !phase.input.pump(phase.pump.parser_mut(), log) {
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
            self.conn
                .send_frame(FrameKind::Fault, fault_json(fault).as_bytes());
        }
        let done = pump.finish();
        shared.stats.absorb_engine(&done.stats);
        if let Some(r) = &done.report {
            shared
                .stats
                .absorb_faults(&r.faults, r.truncated, r.results, r.dropped);
        }

        let session_error = error
            .as_ref()
            .map(|e| classify(e, input.violation.as_ref()));

        if let Some(d) = &durable {
            shared
                .trace
                .tracer
                .counter("wal.bytes", d.log.wal_bytes_written());
            // A clean END means the session is over and will never be
            // resumed; a hangup or error keeps the durable state for a
            // later `M` frame.
            if session_error.is_none() && d.log.ended() {
                let _ = durable::remove(&d.root, &d.token);
            }
        }

        let json = stats_json(&done.stats, &done.transducers, done.report.as_ref());
        self.conn.send_frame(FrameKind::Stat, json.as_bytes());
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

/// Handle an `M` frame: validate it, read the session's durable state back
/// (queries, latest snapshot, longest-valid WAL prefix) and reopen the log
/// for appending. Returns the assembled [`DurableCtx`], the WAL tail to
/// replay (input bytes past the snapshot's resume offset) and whether the
/// WAL already holds the end-of-stream marker.
fn handle_resume(
    frame: &Frame,
    shared: &Arc<Shared>,
    queries: &mut Vec<(String, Rpeq)>,
) -> Result<(DurableCtx, Vec<u8>, bool), SessionError> {
    let io_err = |what: &str| {
        let what = what.to_string();
        move |e: std::io::Error| SessionError::new("io", 3, format!("{what}: {e}"))
    };
    let Some(root) = shared.cfg.durable_dir.as_deref() else {
        return Err(SessionError::usage(
            "resume requires a server started with --durable-dir",
        ));
    };
    let root = PathBuf::from(root);
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
    let recovered =
        durable::recover(&root, token).map_err(io_err("reading durable session state failed"))?;
    let Some(recovered) = recovered else {
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
    let wal_start = durable::recovered_wal_start(&root, token)
        .map_err(io_err("reading durable WAL segments failed"))?;
    let total = wal_start + recovered.wal.len() as u64;

    // Decode the snapshot, tolerating corruption: a bad snapshot falls back
    // to replaying the whole WAL (possible until pruning discards early
    // segments) — a structured error either way, never a panic.
    let snapshot = recovered
        .snapshot
        .as_deref()
        .and_then(|bytes| Snapshot::decode(bytes).ok())
        .filter(|snap| {
            snap.session
                .as_ref()
                .is_some_and(|s| s.position.offset >= wal_start && s.position.offset <= total)
        });
    if snapshot.is_none() && wal_start > 0 {
        return Err(SessionError::new(
            "io",
            3,
            "durable snapshot is unusable and early WAL segments were pruned",
        ));
    }
    let session = snapshot.as_ref().and_then(|snap| snap.session.as_ref());
    let offset = session.map_or(0, |s| s.position.offset);
    let replay = recovered.wal[(offset - wal_start) as usize..].to_vec();
    let suppress = received
        .iter()
        .enumerate()
        .map(|(i, received)| {
            let base = session.and_then(|s| s.delivered.get(i).copied());
            received.saturating_sub(base.unwrap_or(0))
        })
        .collect();
    let log = SessionLog::append_after(&root, token, total, recovered.ended, shared.cfg.fsync)
        .map_err(io_err("reopening the durable session log failed"))?;
    let ended = recovered.ended;
    Ok((
        DurableCtx {
            root,
            token: token.to_string(),
            log,
            snapshot,
            suppress,
        },
        replay,
        ended,
    ))
}

/// Handle one `REGISTER` frame; acknowledges with `k` (payload = name) or
/// an `e` frame that leaves the session usable.
fn register_one(frame: &Frame, queries: &mut Vec<(String, Rpeq)>, conn: &Conn) {
    let reject = |message: String| {
        conn.send_frame(FrameKind::Error, &error_payload("usage", 1, &message));
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
            conn.send_frame(FrameKind::Ok, name.as_bytes());
        }
        Err(e) => reject(format!("query `{expr}`: {e}")),
    }
}

/// Document-boundary checkpoint: the pump's snapshot (run, faults,
/// quarantines, delivery counts, parser resume point), durably persisted,
/// then the WAL pruned. All disk failures are absorbed — a failed checkpoint
/// costs replay time on the next resume, never the live session.
fn checkpoint(d: &mut DurableCtx, pump: &Pump<SessionSink>, shared: &Arc<Shared>) {
    // `None` at a `</$>` synthesized for a truncated stream: the client
    // resends that document's tail to the next life.
    let Some(snap) = pump.checkpoint() else {
        return;
    };
    let mut span = shared.trace.tracer.span("serve.checkpoint");
    span.set_attr("token", d.token.as_str());
    let bytes = snap.encode();
    let _ = d.log.sync_for_document();
    let _ = d.log.write_snapshot(&bytes);
    let _ = d.log.prune(pump.parser().position().offset);
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
    use crate::poll::Poller;
    use crate::protocol::write_frame;
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

    fn test_input(conn: Arc<Conn>) -> EvalInput {
        let poller = Poller::new().unwrap();
        EvalInput {
            conn,
            notifier: Arc::new(Notifier::new(poller.waker())),
            decoder: FrameDecoder::new(1024),
            violation: None,
        }
    }

    /// A `DATA` frame split across two inbox deliveries is fed only once
    /// complete; until then the pump reports that nothing has arrived.
    #[test]
    fn pump_feeds_whole_payloads_and_waits_otherwise() {
        let conn = Arc::new(Conn::new(1, None, 0));
        let mut framed = Vec::new();
        write_frame(&mut framed, FrameKind::Data, b"<a/>").unwrap();
        let mut input = test_input(Arc::clone(&conn));
        let mut parser = Parser::new();
        let mut store = spex_xml::EventStore::new();
        assert!(!input.pump(&mut parser, None));
        conn.inbox
            .lock()
            .unwrap()
            .buf
            .extend_from_slice(&framed[..7]);
        assert!(!input.pump(&mut parser, None));
        conn.inbox
            .lock()
            .unwrap()
            .buf
            .extend_from_slice(&framed[7..]);
        assert!(input.pump(&mut parser, None));
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
        let mut failure = |input: &mut EvalInput| {
            let mut parser = Parser::new();
            assert!(input.pump(&mut parser, None));
            assert!(matches!(parser.poll_into(&mut store), Ok(Poll::Event(_))));
            parser.poll_into(&mut store).unwrap_err()
        };

        // Mid-payload: full header promising 10 bytes, only 3 delivered.
        let conn = Arc::new(Conn::new(3, None, 0));
        {
            let mut inbox = conn.inbox.lock().unwrap();
            inbox.buf.push(FrameKind::Data.byte());
            inbox.buf.extend_from_slice(&10u32.to_be_bytes());
            inbox.buf.extend_from_slice(b"abc");
            inbox.ended = true;
        }
        let mut input = test_input(conn);
        assert!(!failure(&mut input).kind().is_syntax_class());
        assert!(input.violation.is_none());

        // Mid-header: three header bytes then EOF.
        let conn = Arc::new(Conn::new(4, None, 0));
        {
            let mut inbox = conn.inbox.lock().unwrap();
            inbox.buf.extend_from_slice(&[FrameKind::Data.byte(), 0, 0]);
            inbox.ended = true;
        }
        let mut input = test_input(conn);
        assert!(!failure(&mut input).kind().is_syntax_class());
        assert!(matches!(
            input.violation,
            Some(ProtocolError::TruncatedFrame)
        ));
    }
}
