//! When a durable `spex serve` session rolls its log (DESIGN.md §15): a
//! feed of small documents rolls about once per snapshot's worth of input,
//! never leaves more than one log (and, mid-roll, one more file) beside
//! `queries.txt`, and resumes after a hangup byte-identically to the
//! one-shot CLI.

use spex_serve::{Client, FrameKind, FsyncPolicy, Server, ServerConfig};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const DOCS: usize = 20_000;
const DOCS_PER_FRAME: usize = 1_000;
const DOC_BYTES: usize = 64;
const QUERY: &str = "quotes.quote[sym].price";

/// Document `i`: 64 bytes, a third of them without the qualifying `sym`.
fn document(i: usize) -> String {
    let tag = if i.is_multiple_of(3) { "syn" } else { "sym" };
    let doc = format!(
        "<quotes><quote><{tag}>X</{tag}><price>{:02}</price></quote></quotes>",
        i % 100
    );
    format!("{doc:<DOC_BYTES$}")
}

/// The files of a session directory other than `queries.txt`.
fn log_files(dir: &Path) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .filter_map(|e| Some(e.ok()?.file_name().to_string_lossy().into_owned()))
        .filter(|name| name != "queries.txt")
        .collect()
}

/// The `"checkpoints"` counter of the server's `S` answer.
fn checkpoints(addr: std::net::SocketAddr) -> u64 {
    let mut client = Client::connect(addr).expect("connect");
    client.request_stats().unwrap();
    let frame = client.next_frame().unwrap().expect("stats frame");
    assert_eq!(frame.kind, FrameKind::Stat);
    let json = String::from_utf8(frame.payload).unwrap();
    let (_, rest) = json
        .split_once("\"checkpoints\":")
        .expect("checkpoints key");
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap()
}

#[test]
fn durable_rolls_stay_within_the_snapshot_bound() {
    let root = std::env::temp_dir().join(format!("spex-durable-rolls-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let server = Server::bind(ServerConfig {
        durable_dir: Some(root.to_str().unwrap().to_string()),
        fsync: FsyncPolicy::Never,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());

    let stream: String = (0..DOCS).map(document).collect();
    assert_eq!(stream.len(), DOCS * DOC_BYTES);
    let frame = DOCS_PER_FRAME * DOC_BYTES;
    // The first life ends in a hangup in the middle of a document.
    let cut = 15 * frame + frame / 2 + DOC_BYTES / 2;

    // Poll the durable root while the first life streams.
    let done = Arc::new(AtomicBool::new(false));
    let poller = {
        let (root, done) = (root.clone(), Arc::clone(&done));
        std::thread::spawn(move || {
            let mut most = 0;
            while !done.load(Ordering::Relaxed) {
                for session in std::fs::read_dir(&root).unwrap().flatten() {
                    most = most.max(log_files(&session.path()).len());
                }
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            most
        })
    };

    // The first life: register, stream up to the cut, half-close. A reader
    // thread takes the answer meanwhile, so results never back up into
    // the server while the client is still writing.
    let mut life = std::net::TcpStream::connect(addr).expect("connect");
    let reader = {
        let life = life.try_clone().unwrap();
        std::thread::spawn(move || {
            let (mut token, mut results) = (None, Vec::new());
            let mut life = std::io::BufReader::new(life);
            while let Some(frame) =
                spex_serve::read_frame(&mut life, spex_serve::DEFAULT_MAX_FRAME).unwrap()
            {
                match frame.kind {
                    FrameKind::Ok => {
                        let ack = String::from_utf8(frame.payload).unwrap();
                        token = token.or(ack.strip_prefix("session=").map(str::to_string));
                    }
                    FrameKind::Result => {
                        let (_, fragment) = spex_serve::split_result(&frame.payload).unwrap();
                        results.push(fragment.to_vec());
                    }
                    _ => {}
                }
            }
            (token.expect("session token ack"), results)
        })
    };
    let registration = format!("q={QUERY}");
    spex_serve::write_frame(&mut life, FrameKind::Register, registration.as_bytes()).unwrap();
    for chunk in stream.as_bytes()[..cut].chunks(frame) {
        spex_serve::write_frame(&mut life, FrameKind::Data, chunk).unwrap();
    }
    life.shutdown(std::net::Shutdown::Write).unwrap();
    let (token, first) = reader.join().unwrap();
    done.store(true, Ordering::Relaxed);
    let most = poller.join().unwrap();
    assert!(
        most <= 2,
        "a session directory held {most} files beside queries.txt"
    );
    let dir = root.join(&token);
    assert_eq!(log_files(&dir).len(), 1, "{:?}", log_files(&dir));

    // Rolls: about one per snapshot's worth of input, and a resume replays
    // at most a snapshot's worth plus two frames.
    let rec = spex_serve::durable::recover(&root, &token)
        .unwrap()
        .expect("the hangup keeps the session");
    let snapshot = rec.snapshot.as_ref().expect("a head snapshot").len() as u64;
    let rolls = checkpoints(addr);
    assert!(
        rolls <= (cut as u64).div_ceil(snapshot) + 1,
        "{rolls} rolls for {cut} bytes with {snapshot}-byte snapshots"
    );
    assert!(rolls >= 2, "only {rolls} rolls for {cut} bytes");
    assert!(
        rec.wal.len() as u64 <= snapshot + 2 * frame as u64,
        "the log holds {} bytes past its head",
        rec.wal.len()
    );

    // The second life resumes and finishes the stream; both lives together
    // print what the one-shot CLI prints over the whole stream.
    let mut last = Client::connect(addr).expect("connect");
    last.resume(&token, &[first.len() as u64]).unwrap();
    let resumed = last.next_frame().unwrap().expect("resume answer");
    assert_eq!(resumed.kind, FrameKind::ResumeOk, "{resumed:?}");
    assert_eq!(resumed.payload, (cut as u64).to_be_bytes());
    for chunk in stream.as_bytes()[cut..].chunks(frame) {
        last.send_xml(chunk).unwrap();
    }
    last.end().unwrap();
    let t = last.drain().expect("second life");
    assert!(t.clean_end && t.errors.is_empty(), "{t:?}");
    let mut both: Vec<u8> = first.concat();
    both.extend(t.output_of("q"));
    let options = spex_cli::Options {
        query: Some(QUERY.to_string()),
        stream: true,
        ..spex_cli::Options::default()
    };
    let (mut expected, mut stderr) = (Vec::new(), Vec::new());
    let code = spex_cli::run(&options, &mut stream.as_bytes(), &mut expected, &mut stderr);
    assert_eq!(code, 0, "{}", String::from_utf8_lossy(&stderr));
    assert!(
        both == expected,
        "the resumed output differs from the one-shot CLI's"
    );
    assert!(!dir.exists(), "a clean END retires the session");

    handle.shutdown();
    join.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}
