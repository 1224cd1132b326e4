//! spex-serve connection handling under adverse peers: write-side
//! backpressure, the write deadline and `max_conns` shedding. Each test
//! drives a real server over loopback and observes only the wire and the
//! server's counters.

use spex_serve::{
    read_frame, split_result, write_frame, FrameKind, Server, ServerConfig, ServerHandle,
    ServerReport, DEFAULT_MAX_FRAME,
};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

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

/// Eight queries over one document whose results are as large as its
/// input: 16 MiB of result frames from 2 MiB of XML, far more than the
/// kernel's socket buffers and the server's outbound watermark absorb.
const QUERIES: usize = 8;

fn big_document() -> Vec<u8> {
    let text = "t".repeat(1000);
    let mut xml = b"<r>".to_vec();
    for i in 0..2048 {
        xml.extend_from_slice(format!("<x>{i}{text}</x>").as_bytes());
    }
    xml.extend_from_slice(b"</r>");
    xml
}

/// Register the eight `r.x` queries, stream `xml` in 64 KiB `DATA` frames
/// and send `END`, all from a background thread: the peer writes but does
/// not read. The thread ends early when the server closes the socket.
fn send_session(stream: &TcpStream, xml: Vec<u8>) -> std::thread::JoinHandle<()> {
    let mut w = BufWriter::new(stream.try_clone().expect("clone socket"));
    std::thread::spawn(move || {
        let frames = |w: &mut BufWriter<TcpStream>| -> std::io::Result<()> {
            for q in 0..QUERIES {
                write_frame(w, FrameKind::Register, format!("q{q}=r.x").as_bytes())?;
            }
            for chunk in xml.chunks(64 * 1024) {
                write_frame(w, FrameKind::Data, chunk)?;
            }
            write_frame(w, FrameKind::End, b"")?;
            w.flush()
        };
        let _ = frames(&mut w);
    })
}

/// One-shot CLI output for `r.x` over `xml`: the byte-identity oracle.
fn one_shot(xml: &[u8]) -> Vec<u8> {
    let options = spex_cli::Options {
        query: Some("r.x".to_string()),
        ..spex_cli::Options::default()
    };
    let (mut stdout, mut stderr) = (Vec::new(), Vec::new());
    let code = spex_cli::run(&options, &mut &xml[..], &mut stdout, &mut stderr);
    assert_eq!(code, 0, "{}", String::from_utf8_lossy(&stderr));
    stdout
}

/// A peer that stops reading is suspended once its output backs up; a
/// second session on the same (only) worker still runs to completion, and
/// when the first peer reads again its output is byte-identical to the
/// one-shot CLI's, query by query.
#[test]
fn a_peer_that_stops_reading_does_not_block_its_worker() {
    let xml = big_document();
    let (addr, handle, join) = boot(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let a = TcpStream::connect(addr).expect("connect A");
    let sender = send_session(&a, xml.clone());
    // Give A time to fill every buffer between the server and its socket.
    std::thread::sleep(Duration::from_millis(500));

    let t0 = Instant::now();
    let mut b = spex_serve::Client::connect(addr).expect("connect B");
    let t = b
        .run_session(&[("q", "_*.c")], b"<a><c>1</c></a>")
        .expect("session B");
    assert!(t.clean_end, "B errors: {:?}", t.errors);
    assert_eq!(t.output_of("q"), b"<c>1</c>\n");
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "B waited {:?} behind a peer that does not read",
        t0.elapsed()
    );
    let stats = handle.stats_json();
    assert!(
        stats.contains("\"sessions_completed\":1,"),
        "A finished while its peer was not reading: {stats}"
    );

    let mut reader = BufReader::new(a);
    let mut outputs = vec![Vec::new(); QUERIES];
    let mut ended = false;
    while let Some(frame) = read_frame(&mut reader, DEFAULT_MAX_FRAME).expect("read A") {
        match frame.kind {
            FrameKind::Result => {
                let (name, fragment) = split_result(&frame.payload).expect("result payload");
                let q: usize = name[1..].parse().expect("query name");
                outputs[q].extend_from_slice(fragment);
            }
            FrameKind::Error => panic!("A failed: {:?}", String::from_utf8_lossy(&frame.payload)),
            FrameKind::SessionEnd => ended = true,
            _ => {}
        }
    }
    sender.join().expect("sender thread");
    assert!(ended, "A did not end cleanly");
    let expected = one_shot(&xml);
    assert!(
        outputs.iter().all(|output| *output == expected),
        "A's output differs from the one-shot CLI"
    );
    handle.shutdown();
    let report = join.join().unwrap().unwrap();
    assert_eq!(report.sessions_completed, 2);
    assert_eq!(report.sessions_failed, 0);
}

/// A peer that never reads is cut off by the write deadline, and the
/// session counts as failed.
#[test]
fn a_peer_that_never_reads_is_closed_at_the_write_deadline() {
    let (addr, handle, join) = boot(ServerConfig {
        workers: 1,
        write_timeout: Some(Duration::from_millis(300)),
        ..ServerConfig::default()
    });
    let a = TcpStream::connect(addr).expect("connect");
    let sender = send_session(&a, big_document());
    let t0 = Instant::now();
    while !handle.stats_json().contains("\"sessions_failed\":1,") {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "the stalled peer was never closed: {}",
            handle.stats_json()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    sender.join().expect("sender thread");
    drop(a);
    handle.shutdown();
    let report = join.join().unwrap().unwrap();
    assert_eq!(report.sessions_failed, 1);
    assert_eq!(report.sessions_completed, 0);
}

/// Past `max_conns` a new connection gets one `BUSY` frame and is closed;
/// the admitted ones are untouched.
#[test]
fn connections_past_max_conns_are_shed_busy() {
    let (addr, handle, join) = boot(ServerConfig {
        max_conns: 2,
        ..ServerConfig::default()
    });
    let mut first = spex_serve::Client::connect(addr).expect("connect 1");
    let second = TcpStream::connect(addr).expect("connect 2");
    // Let the server admit both before the third arrives.
    std::thread::sleep(Duration::from_millis(200));
    let mut third = TcpStream::connect(addr).expect("connect 3");
    third
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let frame = read_frame(&mut third, DEFAULT_MAX_FRAME)
        .expect("read BUSY")
        .expect("a frame before the hangup");
    assert_eq!(frame.kind, FrameKind::Busy);
    assert!(frame.payload.is_empty());
    assert!(read_frame(&mut third, DEFAULT_MAX_FRAME).unwrap().is_none());

    let t = first
        .run_session(&[("q", "a.b")], b"<a><b/></a>")
        .expect("session");
    assert!(t.clean_end && !t.busy, "errors: {:?}", t.errors);
    assert_eq!(t.output_of("q"), b"<b></b>\n");
    drop(second);
    handle.shutdown();
    let report = join.join().unwrap().unwrap();
    assert_eq!(report.sessions_rejected, 1);
    assert_eq!(report.sessions_started, 2);
    assert_eq!(report.sessions_failed, 0);
}
