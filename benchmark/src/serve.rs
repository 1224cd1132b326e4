//! The served workloads: `spex serve` as a separate process, spoken to over
//! loopback TCP through the wire protocol. Every connection has a reader
//! thread of its own, as the protocol asks (results flow back while input
//! is still being written).

use crate::gen::{Answer, Digest, Feed, StreamDoc};
use crate::oneshot::{Arrivals, Milestones, OP_TIMEOUT};
use crate::sys::{sleep_until, Scratch, Server, SplitCpus};
use crate::wire::{data_frames, frame, split_result, FrameReader};
use crate::workload::{
    Outcome, Plan, SessionTimes, Workload, FEED_BATCH, PACE_PERIOD, STREAM_FRAME,
};
use std::io::{self, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Client connections (and client threads) of a bulk phase: this box has 2
/// cores, and the server runs `--workers 2`.
const CLIENTS: usize = 2;

fn connect(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    // Small frames must leave when written, not when the last ack returns.
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(OP_TIMEOUT))?;
    stream.set_write_timeout(Some(OP_TIMEOUT))?;
    Ok(stream)
}

/// Connect, register `registration` (`NAME=EXPR`) and wait for its `k`.
fn connect_registered(
    addr: &str,
    registration: &str,
) -> io::Result<(TcpStream, FrameReader<TcpStream>, Instant)> {
    let mut stream = connect(addr)?;
    let connected = Instant::now();
    let mut frames = FrameReader::new(stream.try_clone()?);
    stream.write_all(&frame(b'R', registration.as_bytes()))?;
    match frames.next_frame()? {
        Some((b'k', _)) => Ok((stream, frames, connected)),
        other => Err(io::Error::other(format!(
            "registration answered with {:?}",
            other.map(|(kind, _)| kind as char)
        ))),
    }
}

/// Set-up of a served workload: spawn → `listening on` → first connection's
/// `R` → `k`. With `--queries` it includes parsing and combining the file.
/// A third of the cold starts; a run takes them at three points in time so
/// that a slow stretch of the machine does not colour all of them.
fn cold_starts(spex: &Path, extra: &[&str], registration: &str, plan: Plan, outcome: &mut Outcome) {
    let cpus = SplitCpus::new();
    for _ in 0..plan.cold_starts.div_ceil(3) {
        let start = Instant::now();
        let ready = Server::spawn(spex, extra, Some(&cpus))
            .and_then(|server| connect_registered(&server.addr, registration).map(|_| server));
        let took = start.elapsed();
        outcome.ops += 1;
        match ready {
            Ok(_server) => outcome.setup_s.push(took.as_secs_f64()),
            Err(e) => outcome.fail(format!("cold start: {e}")),
        }
    }
}

/// Before `serve-stream`'s paced phase: the server's threads on the last
/// CPU, this thread (and the readers it spawns) on the first, for as long
/// as the guard lives.
/// Lag at a fifth of saturation is a chain of wake-ups — client → reactor →
/// worker → reactor → client — and whether each hop crosses CPUs is the
/// scheduler's choice, run by run: unpinned, `serve-stream`'s median lag
/// reads either 0.5 or 1.0 ms. Bulk phases stay unpinned; they need both CPUs.
fn pin_for_paced(server: &Server) -> SplitCpus {
    let cpus = SplitCpus::new();
    cpus.place_threads(server.pid());
    cpus
}

/// What a stream session sends, prepared once.
struct StreamInput<'a> {
    doc: &'a StreamDoc,
    registration: String,
    framed: Vec<u8>,
    /// Size of one full frame on the wire (the last may be shorter).
    frame_len: usize,
    /// XML offset each frame's payload ends at.
    ends: Vec<usize>,
}

impl<'a> StreamInput<'a> {
    fn new(doc: &'a StreamDoc, chunk: usize) -> Self {
        let (framed, ends) = data_frames(&doc.xml, chunk);
        StreamInput {
            doc,
            registration: format!("q={}", doc.query),
            framed,
            frame_len: chunk + 5,
            ends,
        }
    }
}

/// Why a session ended without its `n`: the server's `e` or `b` frame.
fn refusal(kind: u8, payload: &[u8]) -> String {
    format!(
        "server sent `{}`: {}",
        kind as char,
        String::from_utf8_lossy(payload)
    )
}

const HUNG_UP: &str = "server hung up before `n`";

/// What the reader thread of a stream session saw.
struct Drained {
    answer: Answer,
    first_result: Option<Instant>,
    arrivals: Arrivals,
    end: Instant,
}

fn drain_stream(
    frames: &mut FrameReader<TcpStream>,
    milestones: Option<&Milestones>,
) -> Result<Drained, String> {
    let mut drained = Drained {
        answer: Answer::EMPTY,
        first_result: None,
        arrivals: Arrivals::default(),
        end: Instant::now(),
    };
    loop {
        match frames.next_frame().map_err(|e| format!("reading: {e}"))? {
            Some((b'r', payload)) => {
                let (_, fragment) = split_result(payload).ok_or("malformed r frame")?;
                drained.answer.absorb(fragment, 1);
                if drained.first_result.is_none() || milestones.is_some() {
                    let now = Instant::now();
                    drained.first_result.get_or_insert(now);
                    if let Some(milestones) = milestones {
                        drained
                            .arrivals
                            .advance(milestones, drained.answer.results, now);
                    }
                }
            }
            Some((b'n', _)) => {
                drained.end = Instant::now();
                return Ok(drained);
            }
            Some((kind @ (b'e' | b'b'), payload)) => return Err(refusal(kind, payload)),
            // `s` closes every session; unknown lowercase kinds are skipped.
            Some(_) => {}
            None => return Err(HUNG_UP.to_string()),
        }
    }
}

/// Everything one stream session reports to its caller.
struct Session {
    times: SessionTimes,
    /// Paced sessions: when each frame was due, how late it was written,
    /// and when each milestone's results had arrived.
    due: Vec<Instant>,
    late_ms: Vec<f64>,
    arrivals: Arrivals,
}

/// One session: connect, `R`, the document in `D` frames (all at once, or
/// one per period when `milestones` is given), `E`, drain to `n`.
fn stream_session(
    addr: &str,
    input: &StreamInput,
    milestones: Option<&Milestones>,
) -> Result<Session, String> {
    let start = Instant::now();
    let (mut stream, mut frames, connected) =
        connect_registered(addr, &input.registration).map_err(|e| format!("connecting: {e}"))?;
    let registered = Instant::now();
    let (mut due, mut late_ms) = (Vec::new(), Vec::new());
    let (written, drained) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| drain_stream(&mut frames, milestones));
        let written = (|| -> io::Result<(Instant, Instant)> {
            let first_send = Instant::now();
            if milestones.is_some() {
                for (i, wire_frame) in input.framed.chunks(input.frame_len).enumerate() {
                    due.push(first_send + PACE_PERIOD * i as u32);
                    late_ms.push(sleep_until(due[i]).as_secs_f64() * 1e3);
                    stream.write_all(wire_frame)?;
                }
            } else {
                stream.write_all(&input.framed)?;
            }
            stream.write_all(&frame(b'E', b""))?;
            Ok((first_send, Instant::now()))
        })();
        if written.is_err() {
            // Unblock the reader: nothing more will be asked of the server.
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        (written, reader.join().expect("session reader panicked"))
    });
    let (first_send, sent) = written.map_err(|e| format!("writing: {e}"))?;
    let drained = drained?;
    if drained.answer != input.doc.answer {
        return Err(format!(
            "results {:?} differ from expected {:?}",
            drained.answer, input.doc.answer
        ));
    }
    if let Some(milestones) = milestones {
        if drained.arrivals.at.len() != milestones.need.len() {
            return Err("results missing at milestones".to_string());
        }
    }
    Ok(Session {
        times: SessionTimes {
            start,
            connected,
            registered,
            first_send,
            sent,
            first_result: drained.first_result,
            end: drained.end,
        },
        due,
        late_ms,
        arrivals: drained.arrivals,
    })
}

/// The server's trace summary (`T` → `t`): admission-wait, session and
/// determination-latency histograms of everything it served so far.
fn trace_summary(addr: &str) -> io::Result<String> {
    let mut stream = connect(addr)?;
    stream.write_all(&frame(b'T', b""))?;
    match FrameReader::new(stream).next_frame()? {
        Some((b't', payload)) => Ok(String::from_utf8_lossy(payload).into_owned()),
        other => Err(io::Error::other(format!(
            "`T` answered with {:?}",
            other.map(|(kind, _)| kind as char)
        ))),
    }
}

/// `serve-stream`: bulk sessions from `plan.clients` closed-loop clients,
/// then paced sessions from one.
pub fn run_stream(
    spex: &Path,
    doc: &StreamDoc,
    workload: Workload,
    plan: Plan,
) -> io::Result<Outcome> {
    let mut outcome = Outcome::default();
    let bulk_input = StreamInput::new(doc, STREAM_FRAME);
    let cold =
        |outcome: &mut Outcome| cold_starts(spex, &[], &bulk_input.registration, plan, outcome);
    cold(&mut outcome);

    let server = Server::spawn(spex, &[], None)?;
    let _warm_up = stream_session(&server.addr, &bulk_input, None);

    let before = server.sample()?;
    let bulk_start = Instant::now();
    let per_client: Vec<Vec<Result<Session, String>>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..plan.clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut sessions = Vec::new();
                    while bulk_start.elapsed() < plan.bulk {
                        sessions.push(stream_session(&server.addr, &bulk_input, None));
                    }
                    sessions
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    outcome.bulk_wall_s = bulk_start.elapsed().as_secs_f64();
    let used = server.sample()?.since(&before);
    for session in per_client.into_iter().flatten() {
        outcome.ops += 1;
        match session {
            Ok(session) => {
                let times = session.times;
                outcome
                    .op_ms
                    .push((times.end - times.start).as_secs_f64() * 1e3);
                outcome.bulk_bytes += doc.xml.len() as u64;
                outcome.sessions.push(times);
            }
            Err(e) => outcome.fail(format!("bulk: {e}")),
        }
    }
    outcome.cpu_ms = used.cpu_ms;
    outcome.cpu_bytes = outcome.bulk_bytes;
    outcome.server_ops = outcome.op_ms.len() as u64;
    outcome.server = Some(used);
    cold(&mut outcome);

    let paced_input = StreamInput::new(doc, workload.paced_chunk());
    let milestones = Milestones::new(doc, &paced_input.ends);
    let pinned = pin_for_paced(&server);
    let paced_start = Instant::now();
    while paced_start.elapsed() < plan.paced {
        outcome.ops += 1;
        match stream_session(&server.addr, &paced_input, Some(&milestones)) {
            Ok(session) => {
                outcome
                    .lag_ms
                    .extend(session.arrivals.lags_ms(&milestones, &session.due));
                outcome.late_ms.extend(session.late_ms);
                outcome.paced_bytes += doc.xml.len() as u64;
            }
            Err(e) => outcome.fail(format!("paced: {e}")),
        }
    }
    drop(pinned);
    outcome.server_trace = Some(trace_summary(&server.addr)?);
    outcome.peak_rss_kb = server.sample()?.peak_rss_kb;
    drop(server);
    cold(&mut outcome);
    Ok(outcome)
}

/// The reader thread's side of one feed connection.
struct FeedReader<'a> {
    feed: &'a Feed,
    /// Pool index of this connection's first document.
    first: usize,
    /// Documents whose `end` frame arrived, for the writer to wait on.
    ends_seen: &'a AtomicU64,
    /// Set when the reader stops for any reason.
    done: &'a AtomicBool,
    /// Woken every [`FEED_BATCH`] documents and when the reader stops.
    writer: Thread,
}

/// What a feed connection delivered: when each document's `end` frame
/// arrived, and whether the frames before it were the expected ones.
#[derive(Default)]
struct FeedDelivery {
    arrived: Vec<Instant>,
    verified: Vec<bool>,
    error: Option<String>,
}

impl FeedReader<'_> {
    fn run(&self, frames: &mut FrameReader<TcpStream>) -> FeedDelivery {
        let mut delivery = FeedDelivery::default();
        delivery.error = self.read(frames, &mut delivery).err();
        self.done.store(true, Ordering::Release);
        self.writer.unpark();
        delivery
    }

    fn read(
        &self,
        frames: &mut FrameReader<TcpStream>,
        delivery: &mut FeedDelivery,
    ) -> Result<(), String> {
        let mut digest = Digest::default();
        loop {
            match frames.next_frame().map_err(|e| format!("reading: {e}"))? {
                Some((b'r', payload)) => {
                    digest.add(payload);
                    if payload.starts_with(b"\x03end") {
                        let doc = (self.first + delivery.arrived.len()) % self.feed.docs();
                        delivery.arrived.push(Instant::now());
                        delivery.verified.push(digest == self.feed.digests[doc]);
                        digest = Digest::default();
                        let seen = self.ends_seen.fetch_add(1, Ordering::Release) + 1;
                        if seen.is_multiple_of(FEED_BATCH as u64) {
                            self.writer.unpark();
                        }
                    }
                }
                Some((b'n', _)) => return Ok(()),
                Some((kind @ (b'e' | b'b'), payload)) => return Err(refusal(kind, payload)),
                Some(_) => {}
                None => return Err(HUNG_UP.to_string()),
            }
        }
    }
}

/// Pool index of the `k`-th document connection `conn` sends: each
/// connection cycles through the pool from its own starting point.
fn feed_doc(feed: &Feed, conn: usize, k: usize) -> usize {
    (conn * feed.docs() / CLIENTS + k) % feed.docs()
}

/// Count a connection's documents into the outcome; returns how many of the
/// `sent` were delivered and verified.
fn settle_feed(outcome: &mut Outcome, phase: &str, sent: usize, delivery: &FeedDelivery) -> usize {
    let good = delivery.verified.iter().filter(|&&v| v).count();
    outcome.ops += sent as u64;
    if good < sent {
        outcome.failed += (sent - good) as u64 - 1;
        outcome.fail(format!(
            "{phase}: {} of {sent} documents undelivered or wrong{}",
            sent - good,
            delivery
                .error
                .as_ref()
                .map(|e| format!(" ({e})"))
                .unwrap_or_default()
        ));
    }
    good
}

/// `serve-feed`: a bulk phase (each of 2 clients posts a batch of documents
/// and waits for the batch's last `end` result), then a paced phase (open
/// loop, one document per period over 2 long-lived sessions).
pub fn run_feed(spex: &Path, feed: &Feed, plan: Plan, scratch: &Scratch) -> io::Result<Outcome> {
    let mut outcome = Outcome::default();
    let queries = scratch.write("queries.txt", feed.queries.as_bytes())?;
    let queries = queries.to_string_lossy().into_owned();
    let extra = ["--queries", queries.as_str()];
    let cold =
        |outcome: &mut Outcome| cold_starts(spex, &extra, "probe=catalog.end", plan, outcome);
    cold(&mut outcome);

    let server = Server::spawn(spex, &extra, None)?;
    let doc_bytes = feed.doc_bytes();

    // Bulk, closed loop: post a batch, wait for its last `end`, repeat.
    let _warm_up = feed_client(&server.addr, feed, 0, Instant::now(), Duration::ZERO);
    let bulk_start = Instant::now();
    let per_client: Vec<io::Result<(Vec<f64>, usize, FeedDelivery)>> =
        std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|conn| {
                    let server = &server;
                    scope
                        .spawn(move || feed_client(&server.addr, feed, conn, bulk_start, plan.bulk))
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("feed client panicked"))
                .collect()
        });
    outcome.bulk_wall_s = bulk_start.elapsed().as_secs_f64();
    for client in per_client {
        let (op_ms, sent, delivery) = client?;
        let good = settle_feed(&mut outcome, "bulk", sent, &delivery);
        if good == sent {
            outcome.op_ms.extend(op_ms);
        }
        outcome.bulk_bytes += (good as f64 * doc_bytes) as u64;
    }
    cold(&mut outcome);

    // Paced, open loop: document i is due at i × period and goes to
    // connection i mod 2. CPU is charged here, so idle polling counts.
    // Unpinned, unlike the other paced phases: at this rate the 257-query
    // network takes ≈ 60 % of one CPU, and on one CPU a slow stretch of
    // the machine turns into a backlog that lag would then measure.
    let before = server.sample()?;
    let mut streams: Vec<TcpStream> = (0..CLIENTS)
        .map(|_| connect(&server.addr))
        .collect::<io::Result<_>>()?;
    let ends_seen: Vec<AtomicU64> = (0..CLIENTS).map(|_| AtomicU64::new(0)).collect();
    let done: Vec<AtomicBool> = (0..CLIENTS).map(|_| AtomicBool::new(false)).collect();
    let mut due: Vec<Instant> = Vec::new();
    let deliveries: Vec<FeedDelivery> = std::thread::scope(|scope| -> io::Result<_> {
        let readers: Vec<_> = (0..CLIENTS)
            .map(|conn| {
                let mut frames = FrameReader::new(streams[conn].try_clone()?);
                let reader = FeedReader {
                    feed,
                    first: feed_doc(feed, conn, 0),
                    ends_seen: &ends_seen[conn],
                    done: &done[conn],
                    writer: std::thread::current(),
                };
                Ok(scope.spawn(move || reader.run(&mut frames)))
            })
            .collect::<io::Result<_>>()?;
        let start = Instant::now();
        let sends = (plan.paced.as_secs_f64() / PACE_PERIOD.as_secs_f64()) as usize;
        for i in 0..sends {
            let (conn, k) = (i % CLIENTS, i / CLIENTS);
            due.push(start + PACE_PERIOD * i as u32);
            outcome
                .late_ms
                .push(sleep_until(due[i]).as_secs_f64() * 1e3);
            let doc = feed_doc(feed, conn, k);
            if streams[conn].write_all(feed.frames(doc, doc + 1)).is_err() {
                break;
            }
        }
        for stream in &mut streams {
            let _ = stream.write_all(&frame(b'E', b""));
        }
        Ok(readers
            .into_iter()
            .map(|r| r.join().expect("feed reader panicked"))
            .collect())
    })?;
    let used = server.sample()?.since(&before);
    for (conn, delivery) in deliveries.iter().enumerate() {
        let sent = (due.len() + CLIENTS - 1 - conn) / CLIENTS;
        settle_feed(&mut outcome, "paced", sent, delivery);
        for (k, (at, verified)) in delivery.arrived.iter().zip(&delivery.verified).enumerate() {
            if *verified {
                let lag = at.saturating_duration_since(due[k * CLIENTS + conn]);
                outcome.lag_ms.push(lag.as_secs_f64() * 1e3);
            }
        }
    }
    outcome.paced_bytes = (due.len() as f64 * doc_bytes) as u64;
    outcome.cpu_ms = used.cpu_ms;
    outcome.cpu_bytes = outcome.paced_bytes;
    outcome.server_ops = due.len() as u64;
    outcome.server = Some(used);
    outcome.server_trace = Some(trace_summary(&server.addr)?);
    outcome.peak_rss_kb = server.sample()?.peak_rss_kb;
    drop(server);
    cold(&mut outcome);
    Ok(outcome)
}

/// One closed-loop feed client, posting batches (at least one) until `bulk`
/// has passed since `bulk_start`: returns the time of each batch, the
/// number of documents sent, and what came back.
fn feed_client(
    addr: &str,
    feed: &Feed,
    conn: usize,
    bulk_start: Instant,
    bulk: Duration,
) -> io::Result<(Vec<f64>, usize, FeedDelivery)> {
    let mut stream = connect(addr)?;
    let mut frames = FrameReader::new(stream.try_clone()?);
    let (ends_seen, done) = (AtomicU64::new(0), AtomicBool::new(false));
    let reader = FeedReader {
        feed,
        first: feed_doc(feed, conn, 0),
        ends_seen: &ends_seen,
        done: &done,
        writer: std::thread::current(),
    };
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| reader.run(&mut frames));
        let (mut op_ms, mut sent) = (Vec::new(), 0usize);
        loop {
            let posted = Instant::now();
            let doc = feed_doc(feed, conn, sent);
            if stream
                .write_all(feed.frames(doc, doc + FEED_BATCH))
                .is_err()
            {
                break;
            }
            sent += FEED_BATCH;
            while (ends_seen.load(Ordering::Acquire) as usize) < sent
                && !done.load(Ordering::Acquire)
                && posted.elapsed() < OP_TIMEOUT
            {
                std::thread::park_timeout(OP_TIMEOUT);
            }
            if (ends_seen.load(Ordering::Acquire) as usize) < sent {
                break;
            }
            op_ms.push(posted.elapsed().as_secs_f64() * 1e3);
            if bulk_start.elapsed() >= bulk {
                break;
            }
        }
        if stream.write_all(&frame(b'E', b"")).is_err() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let delivery = reader.join().expect("feed reader panicked");
        Ok((op_ms, sent, delivery))
    })
}
