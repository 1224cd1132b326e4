//! spex-serve integration: protocol robustness, session isolation, and
//! byte-identity of server results against the one-shot CLI on every
//! bundled workload query (satellites 3 and 6 of the server milestone).

use spex_serve::{Client, FrameKind, Server, ServerConfig, ServerHandle, ServerReport};
use spex_workloads::{
    dmoz_content, dmoz_structure, events_to_xml, mondial::mondial_with, mondial::MondialConfig,
    queries_for, wordnet::wordnet_with, wordnet::WordnetConfig, Dataset,
};
use std::io::Write;
use std::net::SocketAddr;

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

/// One-shot CLI run over the same bytes: the byte-identity oracle.
fn one_shot(query: &str, xml: &str) -> Vec<u8> {
    let options = spex_cli::Options {
        query: Some(query.to_string()),
        ..spex_cli::Options::default()
    };
    let mut stdout = Vec::new();
    let mut stderr = Vec::new();
    let code = spex_cli::run(&options, &mut xml.as_bytes(), &mut stdout, &mut stderr);
    assert_eq!(
        code,
        0,
        "one-shot failed for {query}: {}",
        String::from_utf8_lossy(&stderr)
    );
    stdout
}

/// Satellite 3: concurrent clients with different queries over different
/// documents never see each other's results.
#[test]
fn concurrent_sessions_are_isolated() {
    let (addr, handle, join) = boot(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });
    let threads: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let name = format!("q{i}");
                let xml = format!("<doc><t{i}>only {i}</t{i}><other/></doc>");
                let mut client = Client::connect(addr).expect("connect");
                let t = client
                    .run_session(&[(name.as_str(), &format!("doc.t{i}"))], xml.as_bytes())
                    .expect("session");
                assert!(t.clean_end, "errors: {:?}", t.errors);
                assert!(t.errors.is_empty());
                // Exactly this session's result, under this session's name.
                assert_eq!(t.results.len(), 1);
                assert_eq!(t.results[0].0, name);
                assert_eq!(
                    t.output_of(&name),
                    format!("<t{i}>only {i}</t{i}>\n").as_bytes()
                );
                for (n, _) in &t.results {
                    assert_eq!(n, &name, "foreign result leaked into session {i}");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    handle.shutdown();
    let report = join.join().unwrap().unwrap();
    assert_eq!(report.sessions_completed, 4);
    assert_eq!(report.sessions_failed, 0);
}

/// Satellite 3: a frame with an unknown kind byte gets a structured
/// `protocol` error frame back — the session is closed, the server lives.
/// A session that registers nothing adopts the server's preloaded standing
/// query set (`spex serve --queries FILE`), and two sessions registering
/// the same set in different orders share one cached plan.
#[test]
fn preloaded_standing_queries_serve_registrationless_sessions() {
    let (addr, handle, join) = boot(ServerConfig {
        preload_queries: vec![
            ("title".to_string(), "doc.title".parse().unwrap()),
            ("tags".to_string(), "doc.(tag|keyword)".parse().unwrap()),
        ],
        ..ServerConfig::default()
    });
    let xml = "<doc><title>t</title><tag>a</tag><keyword>b</keyword></doc>";
    // No R frames at all: the standing set answers.
    let mut client = Client::connect(addr).expect("connect");
    let t = client.run_session(&[], xml.as_bytes()).expect("session");
    assert!(t.clean_end, "errors: {:?}", t.errors);
    assert_eq!(t.output_of("title"), b"<title>t</title>\n");
    assert_eq!(
        t.output_of("tags"),
        b"<tag>a</tag>\n<keyword>b</keyword>\n".as_slice()
    );
    // A session registering the same queries (different order + spelling)
    // hits the preloaded cached plan rather than compiling anew.
    let mut client = Client::connect(addr).expect("connect");
    let t = client
        .run_session(
            &[("tags", "doc.(keyword|tag)"), ("title", "(doc).title")],
            xml.as_bytes(),
        )
        .expect("session");
    assert!(t.clean_end);
    assert_eq!(t.output_of("title"), b"<title>t</title>\n");
    handle.shutdown();
    let report = join.join().expect("server thread").expect("server run");
    // One plan compiled at startup, both sessions were cache hits.
    assert!(
        report.stats_json.contains("\"plan_cache_hits\":2"),
        "{}",
        report.stats_json
    );
    assert!(
        report.stats_json.contains("\"plan_cache_misses\":0"),
        "{}",
        report.stats_json
    );
}

#[test]
fn malformed_frame_yields_protocol_error() {
    let (addr, handle, join) = boot(ServerConfig::default());
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    // Kind 'Z' is not in the grammar; length 0.
    stream.write_all(&[b'Z', 0, 0, 0, 0]).expect("write");
    stream.flush().unwrap();
    let mut reader = std::io::BufReader::new(stream);
    let frame = spex_serve::read_frame(&mut reader, spex_serve::DEFAULT_MAX_FRAME)
        .expect("read")
        .expect("a frame, not a hangup");
    assert_eq!(frame.kind, FrameKind::Error);
    let body = String::from_utf8(frame.payload).unwrap();
    assert!(body.contains("\"class\":\"protocol\""), "{body}");
    // The server is unharmed: a well-formed session still works.
    let mut client = Client::connect(addr).expect("connect");
    let t = client
        .run_session(&[("q", "a.b")], b"<a><b/></a>")
        .expect("session");
    assert!(t.clean_end && t.errors.is_empty());
    handle.shutdown();
    let report = join.join().unwrap().unwrap();
    assert_eq!(report.sessions_failed, 1);
    assert_eq!(report.sessions_completed, 1);
}

/// Satellite 3: a frame whose declared length exceeds the server's cap is
/// rejected before the payload is read, with a structured error frame.
#[test]
fn oversized_frame_yields_protocol_error() {
    let (addr, handle, join) = boot(ServerConfig {
        max_frame: 1024,
        ..ServerConfig::default()
    });
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    // Register first so the oversized frame arrives mid-session.
    spex_serve::write_frame(&mut stream, FrameKind::Register, b"q=a.b").expect("register");
    // DATA declaring 1 MiB against a 1 KiB cap; no payload follows.
    stream
        .write_all(&[b'D', 0x00, 0x10, 0x00, 0x00])
        .expect("write");
    stream.flush().unwrap();
    let read_half = stream.try_clone().unwrap();
    let mut reader = std::io::BufReader::new(read_half);
    let mut saw_protocol_error = false;
    while let Some(frame) =
        spex_serve::read_frame(&mut reader, spex_serve::DEFAULT_MAX_FRAME).expect("read")
    {
        match frame.kind {
            FrameKind::Error => {
                let body = String::from_utf8(frame.payload).unwrap();
                assert!(body.contains("\"class\":\"protocol\""), "{body}");
                saw_protocol_error = true;
            }
            FrameKind::SessionEnd => break,
            _ => {}
        }
    }
    assert!(saw_protocol_error, "no protocol error frame arrived");
    handle.shutdown();
    let report = join.join().unwrap().unwrap();
    assert_eq!(report.sessions_failed, 1);
}

/// Satellite 3: a session breaching its resource limits mid-stream is
/// closed with a `resource` error while a concurrent session streams on.
#[test]
fn resource_exhaustion_closes_only_the_offending_session() {
    let (addr, handle, join) = boot(ServerConfig {
        workers: 2,
        limits: spex_core::ResourceLimits::default().with_max_stream_depth(4),
        ..ServerConfig::default()
    });
    let deep = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client
            .run_session(
                &[("deep", "_*.f")],
                b"<a><b><c><d><e><f/></e></d></c></b></a>",
            )
            .expect("session")
    });
    let shallow = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client
            .run_session(&[("ok", "a.b")], b"<a><b>fine</b></a>")
            .expect("session")
    });
    let t_deep = deep.join().unwrap();
    let t_shallow = shallow.join().unwrap();
    assert_eq!(t_deep.error_classes(), ["resource"]);
    assert!(t_deep.clean_end);
    assert!(t_shallow.errors.is_empty(), "{:?}", t_shallow.errors);
    assert_eq!(t_shallow.output_of("ok"), b"<b>fine</b>\n");
    handle.shutdown();
    let report = join.join().unwrap().unwrap();
    assert_eq!(report.sessions_failed, 1);
    assert_eq!(report.sessions_completed, 1);
}

/// The acceptance bar: for every bundled workload query, the bytes a
/// server session delivers equal the one-shot CLI's stdout on the same
/// document. Workloads are scaled down so the debug-mode run stays quick;
/// the queries are the paper's, verbatim.
#[test]
fn server_results_match_one_shot_cli_on_workload_queries() {
    let corpora: Vec<(Dataset, String)> = vec![
        (
            Dataset::Mondial,
            events_to_xml(&mondial_with(&MondialConfig {
                countries: 40,
                ..MondialConfig::default()
            })),
        ),
        (
            Dataset::Wordnet,
            events_to_xml(&wordnet_with(&WordnetConfig {
                nouns: 1200,
                ..WordnetConfig::default()
            })),
        ),
        (
            Dataset::DmozStructure,
            events_to_xml(&dmoz_structure(0.001).collect::<Vec<_>>()),
        ),
        (
            Dataset::DmozContent,
            events_to_xml(&dmoz_content(0.0005).collect::<Vec<_>>()),
        ),
    ];
    let (addr, handle, join) = boot(ServerConfig::default());
    for (dataset, xml) in &corpora {
        // All of the dataset's query classes in one session, through one
        // shared network — the server's natural mode.
        let classes = queries_for(*dataset);
        let named: Vec<(String, String)> = classes
            .iter()
            .map(|qc| (format!("c{}", qc.class), qc.text.to_string()))
            .collect();
        let queries: Vec<(&str, &str)> = named
            .iter()
            .map(|(n, q)| (n.as_str(), q.as_str()))
            .collect();
        let mut client = Client::connect(addr).expect("connect");
        client.set_max_frame(64 * 1024 * 1024);
        let t = client
            .run_session(&queries, xml.as_bytes())
            .expect("session");
        assert!(t.clean_end, "{:?} errors: {:?}", dataset, t.errors);
        assert!(t.errors.is_empty());
        for qc in &classes {
            let expected = one_shot(qc.text, xml);
            let got = t.output_of(&format!("c{}", qc.class));
            assert_eq!(
                got, expected,
                "{:?} class {} `{}`: server bytes differ from one-shot CLI",
                dataset, qc.class, qc.text
            );
        }
    }
    handle.shutdown();
    let report = join.join().unwrap().unwrap();
    assert_eq!(report.sessions_failed, 0);
}

/// Graceful shutdown drains: a session already admitted keeps streaming to
/// completion after the shutdown flag is raised, and the server exits
/// cleanly with the session counted.
#[test]
fn graceful_shutdown_drains_in_flight_sessions() {
    let (addr, handle, join) = boot(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    client.register("q", "r.x").unwrap();
    // Wait for the ack: the session is now owned by a worker, so the
    // shutdown below must drain it rather than cut it off.
    let ack = client.next_frame().expect("ack").expect("ack frame");
    assert_eq!(ack.kind, FrameKind::Ok);
    client.send_xml(b"<r><x>first half").unwrap();
    // Session is mid-document; ask the server to stop.
    handle.shutdown();
    std::thread::sleep(std::time::Duration::from_millis(50));
    client.send_xml(b", second half</x></r>").unwrap();
    client.end().unwrap();
    let t = client.drain().expect("drain");
    assert!(t.clean_end);
    assert!(t.errors.is_empty());
    assert_eq!(t.output_of("q"), b"<x>first half, second half</x>\n");
    let report = join.join().unwrap().unwrap();
    assert_eq!(report.sessions_completed, 1);
}

/// Collect the distinct `"key":` names appearing in a JSON blob (the
/// repo-wide line-scan idiom — no JSON parser dependency).
fn json_keys(json: &str) -> std::collections::BTreeSet<String> {
    let mut keys = std::collections::BTreeSet::new();
    let bytes = json.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            if let Some(close) = json[i + 1..].find('"') {
                let end = i + 1 + close;
                if bytes.get(end + 1) == Some(&b':') {
                    keys.insert(json[i + 1..end].to_string());
                }
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }
    keys
}

/// Satellite 6: the statistics JSON a session receives is schema-compatible
/// with the one-shot `--stats-json` output — every one-shot key appears,
/// including `peak_arena_bytes` and `interned_symbols`, and a recovery
/// session adds the same `faults` section the one-shot tool emits.
#[test]
fn serve_stats_json_matches_one_shot_schema() {
    // One-shot reference run.
    let options = spex_cli::Options {
        query: Some("a.b".to_string()),
        stats_json: true,
        ..spex_cli::Options::default()
    };
    let (mut stdout, mut stderr) = (Vec::new(), Vec::new());
    let code = spex_cli::run(&options, &mut &b"<a><b/></a>"[..], &mut stdout, &mut stderr);
    assert_eq!(code, 0);
    let stderr = String::from_utf8(stderr).unwrap();
    let one_shot_json = stderr
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("one-shot --stats-json line");

    // Server session over the same document.
    let (addr, handle, join) = boot(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let t = client
        .run_session(&[("q", "a.b")], b"<a><b/></a>")
        .expect("session");
    assert!(t.clean_end);
    let serve_json = t.stats.expect("session stats frame");

    let expected = json_keys(one_shot_json);
    let got = json_keys(&serve_json);
    let missing: Vec<&String> = expected.difference(&got).collect();
    assert!(
        missing.is_empty(),
        "serve stats JSON is missing one-shot keys {missing:?}\none-shot: {one_shot_json}\nserve: {serve_json}"
    );
    for key in ["peak_arena_bytes", "interned_symbols"] {
        assert!(got.contains(key), "missing `{key}` in {serve_json}");
    }

    // A recovery session reports the `faults` section of the shared schema.
    handle.shutdown();
    join.join().unwrap().unwrap();
    let (addr, handle, join) = boot(ServerConfig {
        recovery: spex_xml::RecoveryPolicy::Repair,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    let t = client
        .run_session(&[("q", "r.a")], b"<r><a/><x></nope></x></r>")
        .expect("session");
    assert!(t.clean_end);
    let recovery_json = t.stats.expect("recovery session stats");
    let keys = json_keys(&recovery_json);
    assert!(
        keys.contains("faults"),
        "no faults section in {recovery_json}"
    );
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// A durable recovery session resumed by token is invisible to its client:
/// the results of every life, concatenated, and the final fault frames are
/// byte-identical to one uninterrupted session. Two registrations the
/// combiner aliases onto one physical sink plus one distinct query, a
/// damaged document between clean ones, and two hangups mid-document after
/// `</$>` checkpoints — so the quarantine export/import, the fault list, the
/// per-query `suppress` counts and the alias fan-out all cross a restart,
/// and the second restart resumes from a snapshot a resumed life wrote.
#[test]
fn durable_recovery_session_resumes_byte_identically() {
    let dir = std::env::temp_dir().join(format!("spex-serve-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (addr, handle, join) = boot(ServerConfig {
        durable_dir: Some(dir.to_str().unwrap().to_string()),
        recovery: spex_xml::RecoveryPolicy::Repair,
        ..ServerConfig::default()
    });
    // `alias1` and `alias2` are canonically equal (one shared output
    // transducer); names are registered sorted, the server's query order.
    let queries = [("alias1", "r.x"), ("alias2", "(r).x"), ("other", "r.y")];
    let docs = [
        "<r><x>one</x><y>1</y></r>",
        "<r><x>two</x><y><z></nope></z></y><x>lost</x></r>", // stray close
        "<r><y>3</y><x>three</x></r>",
        "<r><x>four</x><y>4</y></r>",
    ];
    let stream = docs.concat();
    // Mid-document three (after "<r><y>3</y>") and mid-document four (after
    // "<r><x>fou"): each life dies with a document open.
    let cuts = [docs[..2].concat().len() + 11, docs[..3].concat().len() + 9];

    let mut reference = Client::connect(addr).expect("connect");
    let whole = reference
        .run_session(&queries, stream.as_bytes())
        .expect("uninterrupted session");
    assert!(whole.clean_end && whole.errors.is_empty(), "{whole:?}");
    assert!(!whole.faults.is_empty(), "the damaged document went unseen");
    assert!(!whole.output_of("other").is_empty());
    assert_eq!(whole.output_of("alias1"), whole.output_of("alias2"));

    // The interrupted lives: stream up to the cut, then half-close — the
    // server sees a hangup mid-document and drains what survives the
    // truncation to the still-listening client.
    let mut token: Option<String> = None;
    let mut got: Vec<(String, Vec<u8>)> = Vec::new();
    let received = |got: &[(String, Vec<u8>)]| -> Vec<u64> {
        let count = |name: &str| got.iter().filter(|(n, _)| n == name).count() as u64;
        queries.iter().map(|(name, _)| count(name)).collect()
    };
    let mut sent = 0;
    for cut in cuts {
        let mut life = std::net::TcpStream::connect(addr).expect("connect");
        match &token {
            None => {
                for (name, expr) in queries {
                    let registration = format!("{name}={expr}");
                    spex_serve::write_frame(
                        &mut life,
                        FrameKind::Register,
                        registration.as_bytes(),
                    )
                    .unwrap();
                }
            }
            Some(token) => {
                let resume = spex_serve::protocol::resume_payload(token, &received(&got));
                spex_serve::write_frame(&mut life, FrameKind::Resume, &resume).unwrap();
            }
        }
        spex_serve::write_frame(&mut life, FrameKind::Data, &stream.as_bytes()[sent..cut]).unwrap();
        life.shutdown(std::net::Shutdown::Write).unwrap();
        sent = cut;
        let mut reader = std::io::BufReader::new(life);
        while let Some(frame) =
            spex_serve::read_frame(&mut reader, spex_serve::DEFAULT_MAX_FRAME).expect("read")
        {
            let text = String::from_utf8_lossy(&frame.payload).into_owned();
            match frame.kind {
                FrameKind::Ok => {
                    token = token.or(text.strip_prefix("session=").map(str::to_string));
                }
                FrameKind::Result => {
                    let (name, fragment) = spex_serve::split_result(&frame.payload).unwrap();
                    got.push((name.to_string(), fragment.to_vec()));
                }
                FrameKind::Error => panic!("interrupted life failed: {text}"),
                _ => {}
            }
        }
        let token = token.as_deref().expect("session token ack");
        assert!(
            spex_serve::durable::recover(&dir, token)
                .unwrap()
                .is_some_and(|rec| rec.snapshot.is_some()),
            "no checkpoint was written before the hangup"
        );
        assert!(received(&got).iter().all(|&n| n > 0), "nothing to suppress");
    }

    // The last life: resume by token with the received counts, send the
    // rest, end cleanly.
    let mut last = Client::connect(addr).expect("connect");
    last.resume(token.as_deref().unwrap(), &received(&got))
        .unwrap();
    last.send_xml(&stream.as_bytes()[sent..]).unwrap();
    last.end().unwrap();
    let t = last.drain().expect("last life");
    assert!(t.clean_end && t.errors.is_empty(), "{t:?}");
    // Every byte the interrupted lives sent was durable.
    assert_eq!(t.resume_ok, Some(sent as u64));
    assert_eq!(t.faults, whole.faults);
    got.extend(t.results);
    for (name, _) in queries {
        let all: Vec<u8> = got
            .iter()
            .filter(|(n, _)| n == name)
            .flat_map(|(_, fragment)| fragment.iter().copied())
            .collect();
        assert_eq!(
            String::from_utf8_lossy(&all),
            String::from_utf8_lossy(&whole.output_of(name)),
            "query {name}"
        );
    }
    handle.shutdown();
    join.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
