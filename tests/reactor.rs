//! Reactor-path integration: the incremental frame decoder against the
//! blocking decoder (shrinking property — every chunking of a byte stream
//! decodes identically, error classes included), slowloris reaping under
//! `--idle-timeout`, wire-level chunking through a live server, a stalled
//! giant construct (or recovery skim) that must not hold its worker, a
//! session burst admitted in full by one worker, and an in-process idle
//! herd riding through a graceful drain.

use proptest::prelude::*;
use spex_serve::{
    read_frame, write_frame, Client, FrameDecoder, FrameKind, ProtocolError, ReadError, Server,
    ServerConfig, ServerHandle, ServerReport,
};
use spex_workloads::{
    events_to_xml, mondial::mondial_with, mondial::MondialConfig, queries_for, Dataset,
};
use std::io::{Read, Write};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Boot a server on a free loopback port.
fn boot(
    cfg: ServerConfig,
) -> (
    SocketAddr,
    ServerHandle,
    std::thread::JoinHandle<std::io::Result<ServerReport>>,
) {
    let server = Server::bind(cfg).expect("bind loopback");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

// --- Decoder parity property ---------------------------------------------

/// How a decoded stream ends: clean EOF at a frame boundary, or a grammar
/// violation (the only error class a pure byte stream can produce).
#[derive(Debug, PartialEq, Eq)]
enum Terminal {
    Clean,
    Violation(ProtocolError),
}

/// The blocking oracle: `read_frame` over the whole stream.
fn blocking_decode(bytes: &[u8], max_frame: usize) -> (Vec<(FrameKind, Vec<u8>)>, Terminal) {
    let mut cursor = std::io::Cursor::new(bytes);
    let mut frames = Vec::new();
    loop {
        match read_frame(&mut cursor, max_frame) {
            Ok(Some(f)) => frames.push((f.kind, f.payload)),
            Ok(None) => return (frames, Terminal::Clean),
            Err(ReadError::Protocol(p)) => return (frames, Terminal::Violation(p)),
            Err(ReadError::Io(e)) => panic!("in-memory cursor cannot fail: {e}"),
        }
    }
}

/// The incremental decoder fed the same bytes under an arbitrary chunking
/// (chunk sizes applied cyclically), frames pulled after every chunk.
fn incremental_decode(
    bytes: &[u8],
    chunks: &[usize],
    max_frame: usize,
) -> (Vec<(FrameKind, Vec<u8>)>, Terminal) {
    let mut decoder = FrameDecoder::new(max_frame);
    let mut frames = Vec::new();
    let mut offset = 0;
    let mut turn = 0;
    while offset < bytes.len() {
        let n = chunks[turn % chunks.len()].max(1).min(bytes.len() - offset);
        turn += 1;
        decoder.push(&bytes[offset..offset + n]);
        offset += n;
        loop {
            match decoder.next_frame() {
                Ok(Some(f)) => frames.push((f.kind, f.payload)),
                Ok(None) => break,
                Err(p) => return (frames, Terminal::Violation(p)),
            }
        }
    }
    if decoder.mid_frame() {
        // End of stream with a partial frame buffered: the exact condition
        // the blocking decoder reports as a truncation.
        return (frames, Terminal::Violation(ProtocolError::TruncatedFrame));
    }
    (frames, Terminal::Clean)
}

/// Every kind byte in the frame grammar.
const KIND_BYTES: &[u8] = b"RDESTQMkmrfstebn";

const PROP_MAX_FRAME: usize = 64;

/// A way the generated stream can be broken, to exercise error-class
/// parity alongside the happy path.
#[derive(Debug, Clone)]
enum Fault {
    None,
    /// Append a complete header whose kind byte is not in the grammar.
    UnknownKind(u8),
    /// Append a valid-kind header declaring a payload over the cap.
    Oversized(u32),
    /// Drop the last `n` bytes of the stream.
    Truncate(usize),
}

fn fault_strategy() -> impl Strategy<Value = Fault> {
    prop_oneof![
        2 => Just(Fault::None),
        1 => (0x00u8..0x20).prop_map(Fault::UnknownKind),
        1 => ((PROP_MAX_FRAME as u32 + 1)..u32::MAX).prop_map(Fault::Oversized),
        2 => (1usize..9).prop_map(Fault::Truncate),
    ]
}

/// Serialize the generated frames plus the fault into one wire stream.
fn build_stream(frames: &[(usize, Vec<u8>)], fault: &Fault) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (kind_idx, payload) in frames {
        let kind = FrameKind::from_byte(KIND_BYTES[kind_idx % KIND_BYTES.len()]).unwrap();
        write_frame(&mut bytes, kind, payload).unwrap();
    }
    match fault {
        Fault::None => {}
        Fault::UnknownKind(b) => {
            // `from_byte` must agree this is outside the grammar (control
            // bytes never are kind bytes).
            assert!(FrameKind::from_byte(*b).is_none());
            bytes.push(*b);
            bytes.extend_from_slice(&0u32.to_be_bytes());
        }
        Fault::Oversized(len) => {
            bytes.push(b'D');
            bytes.extend_from_slice(&len.to_be_bytes());
        }
        Fault::Truncate(n) => {
            let keep = bytes.len().saturating_sub(*n);
            bytes.truncate(keep);
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(250))]

    /// Satellite: any byte-wise chunking of any frame stream — valid,
    /// unknown-kind, oversized, or truncated — decodes to exactly the
    /// frames and terminal error class of the blocking decoder.
    #[test]
    fn any_chunking_decodes_like_the_blocking_decoder(
        frames in proptest::collection::vec(
            (0usize..KIND_BYTES.len(), proptest::collection::vec(any::<u8>(), 0..48)),
            0..6,
        ),
        fault in fault_strategy(),
        chunks in proptest::collection::vec(1usize..14, 1..8)
    ) {
        let bytes = build_stream(&frames, &fault);
        let expect = blocking_decode(&bytes, PROP_MAX_FRAME);
        let got = incremental_decode(&bytes, &chunks, PROP_MAX_FRAME);
        prop_assert_eq!(&got.0, &expect.0, "frame sequences diverge");
        prop_assert_eq!(&got.1, &expect.1, "terminal conditions diverge");
    }
}

/// The single-byte extreme of the property, pinned as a plain test so a
/// decoder regression fails loudly without proptest in the loop.
#[test]
fn byte_at_a_time_chunking_matches_blocking() {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, FrameKind::Register, b"q=a.b").unwrap();
    write_frame(&mut bytes, FrameKind::Data, b"<a><b/></a>").unwrap();
    write_frame(&mut bytes, FrameKind::End, b"").unwrap();
    let expect = blocking_decode(&bytes, PROP_MAX_FRAME);
    let got = incremental_decode(&bytes, &[1], PROP_MAX_FRAME);
    assert_eq!(got.0, expect.0);
    assert_eq!(got.1, expect.1);
    assert_eq!(got.0.len(), 3);
}

// --- Live-server behavior -------------------------------------------------

/// Satellite: a slowloris peer — a half-sent frame trickling one byte at a
/// time, never completing — is reaped by `--idle-timeout` instead of
/// pinning server resources.
#[test]
fn slowloris_half_frame_is_reaped_by_idle_timeout() {
    let (addr, handle, join) = boot(ServerConfig {
        idle_timeout: Some(Duration::from_millis(200)),
        ..ServerConfig::default()
    });
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    // A REGISTER frame header promising 64 payload bytes, then a trickle
    // that refreshes the socket but never completes the frame — so the
    // idle clock (last *completed* frame) never resets.
    stream.write_all(&[b'R', 0, 0, 0, 64]).expect("header");
    let start = Instant::now();
    let mut reaped = false;
    while start.elapsed() < Duration::from_secs(5) {
        if stream.write_all(b"x").is_err() {
            reaped = true;
            break;
        }
        let mut buf = [0u8; 16];
        match stream.read(&mut buf) {
            Ok(0) => {
                reaped = true;
                break;
            }
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => {
                reaped = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(reaped, "server never reaped the half-open slowloris peer");
    assert!(
        start.elapsed() < Duration::from_secs(3),
        "reap took {:?}, far beyond the 200ms idle timeout",
        start.elapsed()
    );
    drop(stream);
    handle.shutdown();
    let report = join.join().unwrap().unwrap();
    assert_eq!(
        report.sessions_failed, 1,
        "the reaped session counts as failed"
    );
    assert_eq!(report.sessions_completed, 0);
}

/// Wire-level chunking end to end: a session whose bytes arrive in 3-byte
/// slices across every frame boundary produces byte-identical results to a
/// normally framed client session.
#[test]
fn chunked_wire_bytes_evaluate_identically() {
    let (addr, handle, join) = boot(ServerConfig::default());
    let mut xml = String::from("<doc>");
    for i in 0..200 {
        xml.push_str(&format!("<item><name>n{i}</name><v>{i}</v></item>"));
    }
    xml.push_str("</doc>");
    let query = "doc.item[v].name";

    // Reference: a normal client session.
    let mut client = Client::connect(addr).expect("connect");
    let t = client
        .run_session(&[("q", query)], xml.as_bytes())
        .expect("session");
    assert!(t.clean_end, "errors: {:?}", t.errors);
    let reference = t.output_of("q");

    // The same session, wire bytes dribbled 3 at a time (frame headers and
    // payloads split mid-field, DATA payload split mid-tag).
    let mut wire = Vec::new();
    write_frame(
        &mut wire,
        FrameKind::Register,
        format!("q={query}").as_bytes(),
    )
    .unwrap();
    for chunk in xml.as_bytes().chunks(97) {
        write_frame(&mut wire, FrameKind::Data, chunk).unwrap();
    }
    write_frame(&mut wire, FrameKind::End, b"").unwrap();
    let mut stream = std::net::TcpStream::connect(addr).expect("connect raw");
    for piece in wire.chunks(3) {
        stream.write_all(piece).expect("write chunk");
    }
    stream.flush().unwrap();
    let mut reader = std::io::BufReader::new(stream);
    let mut chunked = Vec::new();
    let mut clean = false;
    loop {
        match read_frame(&mut reader, spex_serve::DEFAULT_MAX_FRAME).expect("read frame") {
            Some(f) if f.kind == FrameKind::Result => {
                if let Some((name, fragment)) = spex_serve::split_result(&f.payload) {
                    assert_eq!(name, "q");
                    chunked.extend_from_slice(fragment);
                }
            }
            Some(f) if f.kind == FrameKind::SessionEnd => {
                clean = true;
                break;
            }
            Some(f) if f.kind == FrameKind::Error => {
                panic!("error frame: {}", String::from_utf8_lossy(&f.payload))
            }
            Some(_) => {}
            None => break,
        }
    }
    assert!(clean, "chunked session did not end cleanly");
    assert_eq!(
        chunked, reference,
        "3-byte wire chunking changed the result bytes"
    );
    handle.shutdown();
    let report = join.join().unwrap().unwrap();
    assert_eq!(report.sessions_failed, 0);
}

/// One worker, two sessions: A streams `stalled` and then goes quiet with
/// its connection open; B, an unrelated 15-byte session pinned to the same
/// worker, must complete at once — a worker never waits for A's bytes. A is
/// then reaped by the reactor's read deadline; its transcript is returned.
fn stall_beside_a_live_session(
    recovery: spex::xml::RecoveryPolicy,
    stalled: &[&[u8]],
) -> spex_serve::SessionTranscript {
    let (addr, handle, join) = boot(ServerConfig {
        workers: 1,
        read_timeout: Some(Duration::from_secs(5)),
        recovery,
        ..ServerConfig::default()
    });
    let mut a = Client::connect(addr).expect("connect A");
    a.register("q", "r.x").expect("register A");
    for payload in stalled {
        a.send_xml(payload).expect("stream A");
    }
    let stalled_at = Instant::now();
    // Let the server take in everything A sent before B shows up.
    std::thread::sleep(Duration::from_millis(400));

    let t0 = Instant::now();
    let mut b = Client::connect(addr).expect("connect B");
    let t = b
        .run_session(&[("q", "_*.c")], b"<a><c>1</c></a>")
        .expect("session B");
    let took = t0.elapsed();
    assert!(t.clean_end, "B errors: {:?}", t.errors);
    assert_eq!(t.output_of("q"), b"<c>1</c>\n");
    assert!(
        took < Duration::from_secs(1),
        "B waited {took:?} behind a stalled session on the same worker"
    );

    // A is still open; the read deadline (5 s without a byte) ends it.
    let transcript = a.drain().expect("drain A");
    let reaped_after = stalled_at.elapsed();
    assert!(
        reaped_after >= Duration::from_secs(4) && reaped_after < Duration::from_secs(9),
        "A ended after {reaped_after:?}, not at the 5 s read deadline"
    );
    handle.shutdown();
    join.join().unwrap().unwrap();
    transcript
}

/// Satellite: a text node far larger than any frame, then silence. The
/// parser just keeps the incomplete construct; the session suspends on
/// `NeedInput` and fails with the `io` class every stalled session gets.
#[test]
fn stalled_giant_construct_does_not_pin_its_worker() {
    let text = vec![b'x'; 1 << 20];
    let a = stall_beside_a_live_session(
        spex::xml::RecoveryPolicy::Strict,
        &[b"<r>", &text, &text, &text, &text, &text],
    );
    assert!(a.clean_end);
    assert_eq!(a.errors.len(), 1, "errors: {:?}", a.errors);
    assert_eq!(
        spex_serve::protocol::error_class(a.errors[0].as_bytes()).as_deref(),
        Some("io")
    );
}

/// The same under `skip-subtree`, stalled inside a subtree the parser is
/// discarding after a fault: the skim keeps its place instead of waiting,
/// and the read deadline turns the stall into a `truncated` fault.
#[test]
fn stalled_recovery_skim_does_not_pin_its_worker() {
    let a = stall_beside_a_live_session(
        spex::xml::RecoveryPolicy::SkipSubtree,
        &[b"<r><x>1</x><bad><%%%><y>", b"still inside bad"],
    );
    assert!(a.clean_end && a.errors.is_empty(), "errors: {:?}", a.errors);
    assert_eq!(a.output_of("q"), b"<x>1</x>\n");
    assert!(
        a.faults.iter().any(|f| f.contains("truncated")),
        "faults: {:?}",
        a.faults
    );
}

/// The admission burst: 16 concurrent Mondial sessions against a single
/// worker. The reactor admits by connection count, not by free worker, so
/// every session is served; none is rejected BUSY and none fails.
#[test]
fn one_worker_admits_a_sixteen_session_burst() {
    const BURST: usize = 16;
    let xml = std::sync::Arc::new(events_to_xml(&mondial_with(&MondialConfig {
        countries: 40,
        ..MondialConfig::default()
    })));
    let queries = queries_for(Dataset::Mondial);
    let (addr, handle, join) = boot(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    // Every client connects at once, so the burst is real.
    let start = std::sync::Arc::new(std::sync::Barrier::new(BURST));
    let clients: Vec<_> = (0..BURST)
        .map(|i| {
            let xml = xml.clone();
            let start = start.clone();
            let query = queries[i % queries.len()].text;
            std::thread::spawn(move || {
                start.wait();
                let mut client = Client::connect(addr).expect("connect");
                // Class-3 queries select subtrees the size of the document.
                client.set_max_frame(16 * 1024 * 1024);
                let t = client
                    .run_session(&[("q", query)], xml.as_bytes())
                    .expect("session");
                assert!(!t.busy, "session {i} was rejected BUSY");
                assert!(t.clean_end, "session {i} errors: {:?}", t.errors);
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    handle.shutdown();
    let report = join.join().unwrap().unwrap();
    assert_eq!(report.sessions_rejected, 0);
    assert_eq!(report.sessions_failed, 0);
    assert_eq!(report.sessions_started as usize, BURST);
}

/// An idle herd: hundreds of connected-but-silent peers cost the reactor
/// nothing, live traffic flows past them, and a graceful shutdown drains
/// without waiting on any of them.
#[test]
fn idle_herd_rides_through_live_traffic_and_drain() {
    const HERD: usize = 300;
    let (addr, handle, join) = boot(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let mut herd = Vec::with_capacity(HERD);
    for i in 0..HERD {
        herd.push(std::net::TcpStream::connect(addr).unwrap_or_else(|e| panic!("conn {i}: {e}")));
    }
    // Live sessions through the middle of the herd.
    for i in 0..4 {
        let mut client = Client::connect(addr).expect("connect live");
        let xml = format!("<doc><hit>{i}</hit><miss/></doc>");
        let t = client
            .run_session(&[("q", "doc.hit")], xml.as_bytes())
            .expect("live session");
        assert!(t.clean_end, "errors: {:?}", t.errors);
        assert_eq!(t.output_of("q"), format!("<hit>{i}</hit>\n").as_bytes());
    }
    // Shut down with the whole herd still connected: the drain must not
    // block on peers that never sent a byte.
    let t0 = Instant::now();
    handle.shutdown();
    let report = join.join().unwrap().unwrap();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "drain with {HERD} idle conns took {:?}",
        t0.elapsed()
    );
    drop(herd);
    assert_eq!(report.sessions_failed, 0);
    assert_eq!(report.sessions_rejected, 0);
    assert_eq!(report.sessions_started as usize, HERD + 4);
}
