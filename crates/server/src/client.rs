//! A small blocking client for the spex-serve protocol, used by the CLI
//! example, the integration tests and the harness smokes. It is a
//! thin convenience over [`crate::protocol`] — nothing here is required to
//! talk to the server; `nc` plus a frame encoder is enough.

use crate::protocol::{
    error_class, read_frame, resume_payload, split_result, write_frame, Frame, FrameKind,
    ReadError, DEFAULT_MAX_FRAME,
};
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Everything one session sent back, sorted by frame kind.
#[derive(Debug, Default, Clone)]
pub struct SessionTranscript {
    /// Result fragments in arrival order: `(query name, fragment bytes)`.
    /// Fragment bytes include the trailing newline, so concatenating one
    /// query's fragments reproduces the one-shot CLI's stdout.
    pub results: Vec<(String, Vec<u8>)>,
    /// Registration acknowledgements (payload = query name).
    pub acks: Vec<String>,
    /// Fault reports (JSON lines), recovery sessions only.
    pub faults: Vec<String>,
    /// Structured errors (JSON lines).
    pub errors: Vec<String>,
    /// The session's closing statistics JSON, if one arrived.
    pub stats: Option<String>,
    /// The latest trace summary JSON (`t` frame), if one arrived.
    pub trace: Option<String>,
    /// The server rejected the connection with `BUSY`.
    pub busy: bool,
    /// The server closed the session with an `END` frame.
    pub clean_end: bool,
    /// The durable session token from the server's `session=<token>` ack
    /// (durable servers only). Present after the first `DATA`/`END` frame.
    pub session_token: Option<String>,
    /// The durable input byte count acknowledged by a `RESUME-OK` frame.
    pub resume_ok: Option<u64>,
}

impl SessionTranscript {
    /// Concatenate the fragments of one query — byte-comparable with the
    /// one-shot CLI's stdout for the same query and input.
    pub fn output_of(&self, name: &str) -> Vec<u8> {
        let mut out = Vec::new();
        for (n, fragment) in &self.results {
            if n == name {
                out.extend_from_slice(fragment);
            }
        }
        out
    }

    /// The `class` fields of every error frame.
    pub fn error_classes(&self) -> Vec<String> {
        self.errors
            .iter()
            .filter_map(|e| error_class(e.as_bytes()))
            .collect()
    }
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    max_frame: usize,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let write_half = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
            max_frame: DEFAULT_MAX_FRAME,
        })
    }

    /// Raise (or lower) the largest server frame this client accepts.
    /// Result frames carry whole fragments, so a query matching a large
    /// subtree can exceed the default cap of [`DEFAULT_MAX_FRAME`] bytes.
    pub fn set_max_frame(&mut self, max: usize) {
        self.max_frame = max;
    }

    fn send(&mut self, kind: FrameKind, payload: &[u8]) -> std::io::Result<()> {
        write_frame(&mut self.writer, kind, payload)?;
        self.writer.flush()
    }

    /// Read the next server frame (`None` on hangup).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, ReadError> {
        read_frame(&mut self.reader, self.max_frame)
    }

    /// Register `name=expr`; the acknowledgement (or error) arrives as a
    /// frame — use [`Client::next_frame`] or [`Client::drain`].
    pub fn register(&mut self, name: &str, expr: &str) -> std::io::Result<()> {
        self.send(FrameKind::Register, format!("{name}={expr}").as_bytes())
    }

    /// Send one chunk of the XML input (chunk boundaries are arbitrary).
    pub fn send_xml(&mut self, chunk: &[u8]) -> std::io::Result<()> {
        self.send(FrameKind::Data, chunk)
    }

    /// Declare the end of this session's input.
    pub fn end(&mut self) -> std::io::Result<()> {
        self.send(FrameKind::End, b"")
    }

    /// Ask for a server-wide statistics snapshot (answered with a `STAT`
    /// frame; only valid before streaming starts).
    pub fn request_stats(&mut self) -> std::io::Result<()> {
        self.send(FrameKind::Stats, b"")
    }

    /// Resume a durable session by token, declaring how many result
    /// fragments per registered query this client already received (in the
    /// server's canonical query order: sorted by name, then canonical
    /// expression — the order result counts are reported in, and the
    /// registration order whenever queries were registered name-sorted).
    /// Must follow the `R` frames; the server answers
    /// with `RESUME-OK` and replays the WAL tail, suppressing fragments the
    /// client already holds.
    pub fn resume(&mut self, token: &str, received: &[u64]) -> std::io::Result<()> {
        self.send(FrameKind::Resume, &resume_payload(token, received))
    }

    /// Ask for a server-wide trace summary: admission-wait, session
    /// duration and determination-latency histograms (answered with a
    /// `t` frame; only valid before streaming starts).
    pub fn request_trace(&mut self) -> std::io::Result<()> {
        self.send(FrameKind::TraceRequest, b"")
    }

    /// Ask the server to shut down gracefully. Honored from loopback
    /// peers, or from any peer when the server runs with
    /// `ServerConfig::allow_remote_shutdown`; refused with an error frame
    /// otherwise.
    pub fn request_shutdown(&mut self) -> std::io::Result<()> {
        self.send(FrameKind::Shutdown, b"")
    }

    /// Read frames until the server ends the session (or hangs up),
    /// sorting them into a [`SessionTranscript`].
    pub fn drain(&mut self) -> Result<SessionTranscript, ReadError> {
        let mut transcript = SessionTranscript::default();
        loop {
            let Some(frame) = self.next_frame()? else {
                return Ok(transcript);
            };
            match frame.kind {
                FrameKind::Result => {
                    if let Some((name, fragment)) = split_result(&frame.payload) {
                        transcript
                            .results
                            .push((name.to_string(), fragment.to_vec()));
                    }
                }
                FrameKind::Ok => {
                    let ack = String::from_utf8_lossy(&frame.payload).into_owned();
                    if let Some(token) = ack.strip_prefix("session=") {
                        transcript.session_token = Some(token.to_string());
                    }
                    transcript.acks.push(ack);
                }
                FrameKind::ResumeOk => {
                    if frame.payload.len() == 8 {
                        let mut raw = [0u8; 8];
                        raw.copy_from_slice(&frame.payload);
                        transcript.resume_ok = Some(u64::from_be_bytes(raw));
                    }
                }
                FrameKind::Fault => {
                    transcript
                        .faults
                        .push(String::from_utf8_lossy(&frame.payload).into_owned());
                }
                FrameKind::Error => {
                    transcript
                        .errors
                        .push(String::from_utf8_lossy(&frame.payload).into_owned());
                }
                FrameKind::Stat => {
                    transcript.stats = Some(String::from_utf8_lossy(&frame.payload).into_owned());
                }
                FrameKind::Trace => {
                    transcript.trace = Some(String::from_utf8_lossy(&frame.payload).into_owned());
                }
                FrameKind::Busy => {
                    transcript.busy = true;
                    return Ok(transcript);
                }
                FrameKind::SessionEnd => {
                    transcript.clean_end = true;
                    return Ok(transcript);
                }
                // Client-bound kinds only flow server → client; anything
                // else is a server bug surfaced loudly in tests.
                other => {
                    return Err(ReadError::Protocol(
                        crate::protocol::ProtocolError::UnexpectedKind(other),
                    ))
                }
            }
        }
    }

    /// Convenience: run one complete session — register every query, send
    /// the whole input, end, and drain.
    pub fn run_session(
        &mut self,
        queries: &[(&str, &str)],
        xml: &[u8],
    ) -> Result<SessionTranscript, ReadError> {
        for (name, expr) in queries {
            self.register(name, expr).map_err(ReadError::Io)?;
        }
        // Chunk the document to exercise reassembly (any boundary works).
        for chunk in xml.chunks(64 * 1024) {
            self.send_xml(chunk).map_err(ReadError::Io)?;
        }
        self.end().map_err(ReadError::Io)?;
        self.drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};
    use spex_core::ResourceLimits;
    use spex_xml::RecoveryPolicy;

    /// Boot a server on a free port; returns (addr, handle, join).
    fn boot(
        cfg: ServerConfig,
    ) -> (
        std::net::SocketAddr,
        crate::server::ServerHandle,
        std::thread::JoinHandle<std::io::Result<crate::server::ServerReport>>,
    ) {
        let server = Server::bind(cfg).unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        (addr, handle, join)
    }

    #[test]
    fn end_to_end_session_streams_results() {
        let (addr, handle, join) = boot(ServerConfig::default());
        let mut client = Client::connect(addr).unwrap();
        let t = client
            .run_session(
                &[("c", "_*.c"), ("b", "_*.b")],
                b"<a><c>1</c><b><c>2</c></b></a>",
            )
            .unwrap();
        assert_eq!(t.acks, ["c", "b"]);
        assert!(t.clean_end, "errors: {:?}", t.errors);
        assert!(t.errors.is_empty());
        assert_eq!(t.output_of("c"), b"<c>1</c>\n<c>2</c>\n");
        assert_eq!(t.output_of("b"), b"<b><c>2</c></b>\n");
        let stats = t.stats.expect("session stats frame");
        assert!(stats.contains("\"results\":3"), "{stats}");
        handle.shutdown();
        let report = join.join().unwrap().unwrap();
        assert_eq!(report.sessions_completed, 1);
        assert_eq!(report.sessions_failed, 0);
        assert_eq!(report.documents, 1);
    }

    #[test]
    fn syntax_error_yields_structured_error_frame() {
        let (addr, handle, join) = boot(ServerConfig::default());
        let mut client = Client::connect(addr).unwrap();
        let t = client.run_session(&[("q", "a")], b"<a><b></a>").unwrap();
        assert!(t.clean_end);
        assert_eq!(t.error_classes(), ["syntax"]);
        handle.shutdown();
        let report = join.join().unwrap().unwrap();
        assert_eq!(report.sessions_failed, 1);
    }

    #[test]
    fn resource_breach_closes_only_the_offending_session() {
        let cfg = ServerConfig {
            limits: ResourceLimits::default().with_max_stream_depth(3),
            ..ServerConfig::default()
        };
        let (addr, handle, join) = boot(cfg);
        let mut deep = Client::connect(addr).unwrap();
        let t = deep
            .run_session(&[("q", "_*.e")], b"<a><b><c><d><e/></d></c></b></a>")
            .unwrap();
        assert_eq!(t.error_classes(), ["resource"]);
        assert!(t.clean_end);
        // The server is still healthy for the next session.
        let mut shallow = Client::connect(addr).unwrap();
        let t2 = shallow
            .run_session(&[("q", "a.b")], b"<a><b/></a>")
            .unwrap();
        assert!(t2.errors.is_empty());
        assert_eq!(t2.output_of("q"), b"<b></b>\n");
        handle.shutdown();
        let report = join.join().unwrap().unwrap();
        assert_eq!(report.sessions_failed, 1);
        assert_eq!(report.sessions_completed, 1);
    }

    #[test]
    fn recovery_session_reports_faults_and_quarantines() {
        let cfg = ServerConfig {
            recovery: RecoveryPolicy::Repair,
            ..ServerConfig::default()
        };
        let (addr, handle, join) = boot(cfg);
        let mut client = Client::connect(addr).unwrap();
        // Stray close taints `<x>`; the earlier `r.a` result survives.
        let t = client
            .run_session(&[("q", "r.a")], b"<r><a><b/></a><x></nope></x></r>")
            .unwrap();
        assert!(t.clean_end);
        assert!(t.errors.is_empty());
        assert_eq!(t.faults.len(), 1, "faults: {:?}", t.faults);
        assert!(t.faults[0].contains("\"kind\":\"stray-close\""));
        assert_eq!(t.output_of("q"), b"<a><b></b></a>\n");
        handle.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn multi_document_connection_stays_bounded_and_counts() {
        let (addr, handle, join) = boot(ServerConfig::default());
        let mut client = Client::connect(addr).unwrap();
        client.register("q", "r.x").unwrap();
        for i in 0..10 {
            client
                .send_xml(format!("<r><u{i}/><x>doc {i}</x></r>").as_bytes())
                .unwrap();
        }
        client.end().unwrap();
        let t = client.drain().unwrap();
        assert!(t.clean_end);
        assert_eq!(t.results.len(), 10);
        let stats = t.stats.unwrap();
        // Session reuse keeps the symbol table bounded: `u0`…`u9` are
        // forgotten at each document boundary.
        let interned: u64 = stats
            .split("\"interned_symbols\":")
            .nth(1)
            .and_then(|rest| rest.split(&[',', '}'][..]).next())
            .and_then(|n| n.parse().ok())
            .unwrap();
        assert!(interned <= 4, "interned_symbols {interned} in {stats}");
        handle.shutdown();
        let report = join.join().unwrap().unwrap();
        assert_eq!(report.documents, 10);
    }

    #[test]
    fn stats_only_connection_is_answered() {
        let (addr, handle, join) = boot(ServerConfig::default());
        let mut client = Client::connect(addr).unwrap();
        client.request_stats().unwrap();
        let frame = client.next_frame().unwrap().unwrap();
        assert_eq!(frame.kind, FrameKind::Stat);
        let json = String::from_utf8(frame.payload).unwrap();
        assert!(json.contains("\"server\":{"), "{json}");
        drop(client);
        handle.shutdown();
        let report = join.join().unwrap().unwrap();
        assert_eq!(report.sessions_completed, 1);
    }

    #[test]
    fn trace_frame_reports_histograms_after_a_session() {
        let (addr, handle, join) = boot(ServerConfig::default());
        let mut client = Client::connect(addr).unwrap();
        let t = client
            .run_session(&[("q", "a[b].c")], b"<a><c>1</c><b/></a>")
            .unwrap();
        assert!(t.clean_end, "errors: {:?}", t.errors);
        let mut probe = Client::connect(addr).unwrap();
        probe.request_trace().unwrap();
        let frame = probe.next_frame().unwrap().unwrap();
        assert_eq!(frame.kind, FrameKind::Trace);
        let json = String::from_utf8(frame.payload).unwrap();
        for key in [
            "\"admission_wait_us\":{\"count\":",
            "\"session_us\":",
            "\"determination_latency\":",
        ] {
            assert!(json.contains(key), "{key} missing in {json}");
        }
        // The session above buffered `<c>1</c>` until `<b/>` arrived, so
        // the server-wide determination-latency histogram is non-empty.
        let det = json.split("\"determination_latency\":").nth(1).unwrap();
        assert!(!det.contains("\"count\":0"), "empty histogram in {json}");
        drop(probe);
        drop(client);
        handle.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn trace_jsonl_captures_sessions_and_final_aggregates() {
        let dir = std::env::temp_dir().join("spex-serve-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve-trace.jsonl");
        let cfg = ServerConfig {
            trace_jsonl: Some(path.to_str().unwrap().to_string()),
            ..ServerConfig::default()
        };
        let (addr, handle, join) = boot(cfg);
        let mut client = Client::connect(addr).unwrap();
        let t = client
            .run_session(&[("q", "_*.c")], b"<a><c>1</c></a>")
            .unwrap();
        assert!(t.clean_end, "errors: {:?}", t.errors);
        drop(client);
        handle.shutdown();
        join.join().unwrap().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        for needle in [
            "\"t\":\"span\",\"name\":\"serve.session\"",
            "\"serve.sessions_completed\"",
            "\"serve.admission_wait_us\"",
            "\"engine.determination_latency\"",
        ] {
            assert!(text.contains(needle), "{needle} missing in:\n{text}");
        }
        for line in text.lines() {
            assert!(
                line.starts_with("{\"t\":\"") && line.ends_with('}'),
                "bad record: {line}"
            );
        }
    }

    /// A durable session that loses its connection mid-document resumes by
    /// token with byte-identical continuation: replayed fragments the
    /// client already received are suppressed, the rest arrive exactly as
    /// an uninterrupted session would have delivered them.
    #[test]
    fn durable_session_resumes_after_disconnect() {
        let dir = std::env::temp_dir().join(format!("spex-durable-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = ServerConfig {
            durable_dir: Some(dir.to_str().unwrap().to_string()),
            ..ServerConfig::default()
        };
        let (addr, handle, join) = boot(cfg);

        let doc1 = b"<r><x>one</x></r>";
        let doc2 = b"<r><x>two</x><x>three</x></r>";

        // Interrupted session: doc1 plus a prefix of doc2, then hang up
        // without END. Wait for both fragments so the doc1 checkpoint has
        // deterministically happened before the "crash".
        let mut a = Client::connect(addr).unwrap();
        a.register("q", "r.x").unwrap();
        let frame = a.next_frame().unwrap().unwrap();
        assert_eq!(frame.kind, FrameKind::Ok);
        a.send_xml(doc1).unwrap();
        a.send_xml(&doc2[..13]).unwrap(); // cut after "<r><x>two</x>"
        let mut token = None;
        let mut fragments = 0u64;
        let mut got = Vec::new();
        while token.is_none() || fragments < 2 {
            let frame = a.next_frame().unwrap().unwrap();
            match frame.kind {
                FrameKind::Ok => {
                    let ack = String::from_utf8_lossy(&frame.payload).into_owned();
                    token = ack.strip_prefix("session=").map(str::to_string);
                }
                FrameKind::Result => {
                    let (name, fragment) = split_result(&frame.payload).unwrap();
                    assert_eq!(name, "q");
                    fragments += 1;
                    got.extend_from_slice(fragment);
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        let token = token.expect("session token ack");
        drop(a);
        // Let the server notice the hangup and park the session state.
        std::thread::sleep(std::time::Duration::from_millis(200));

        // Resume: same registration, token, and fragments-received count.
        let mut b = Client::connect(addr).unwrap();
        b.register("q", "r.x").unwrap();
        let frame = b.next_frame().unwrap().unwrap();
        assert_eq!(frame.kind, FrameKind::Ok);
        b.resume(&token, &[2]).unwrap();
        b.send_xml(&doc2[13..]).unwrap();
        b.end().unwrap();
        let t = b.drain().unwrap();
        assert!(t.clean_end, "errors: {:?}", t.errors);
        assert!(t.errors.is_empty(), "{:?}", t.errors);
        let replayed = t.resume_ok.expect("RESUME-OK frame");
        assert!(replayed >= doc1.len() as u64, "durable bytes {replayed}");
        // The continuation delivers exactly the missing fragment…
        assert_eq!(t.output_of("q"), b"<x>three</x>\n");
        // …so crash + resume reproduces the uninterrupted output.
        got.extend_from_slice(&t.output_of("q"));
        assert_eq!(got, b"<x>one</x>\n<x>two</x>\n<x>three</x>\n".to_vec());
        // A clean END retires the durable state.
        assert!(!dir.join(&token).exists(), "durable state not removed");
        handle.shutdown();
        join.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_frame_stops_the_server() {
        let (addr, _handle, join) = boot(ServerConfig::default());
        let mut client = Client::connect(addr).unwrap();
        client.request_shutdown().unwrap();
        let frame = client.next_frame().unwrap().unwrap();
        assert_eq!(frame.kind, FrameKind::Ok);
        drop(client);
        let report = join.join().unwrap().unwrap();
        assert!(report.sessions_started >= 1);
    }
}
