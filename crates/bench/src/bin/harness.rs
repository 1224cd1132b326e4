//! Paper-style harness: regenerates every table/figure of the SPEX paper's
//! evaluation section as text tables (experiments E1–E7, E12 and E14 of
//! DESIGN.md; measured values are recorded in EXPERIMENTS.md), and drives
//! the differential and process-level correctness rigs. End-to-end
//! performance is measured by the repository's one benchmark,
//! `benchmark/run.sh`, not here.
//!
//! ```text
//! harness fig14              Fig. 14: Mondial + WordNet, 3 processors × 4 classes
//! harness fig15              Fig. 15: DMOZ structure + content, SPEX only
//! harness memory             §VI memory claim (peak RSS per processor, child process)
//! harness lemma_v1           Lemma V.1: translation time / network degree vs n
//! harness scaling            Theorem V.1: time vs stream size
//! harness formula_growth     §V: formula size vs depth and #qualified closures
//! harness multiquery         §VIII/E12: many profiles over one stream
//! harness transducers        §V per-transducer bounds, measured (messages, stacks)
//! harness fault-sweep [R [C]]  robustness: R seeds × 6 mutators × 2 recovery
//!                            policies over C-country Mondial (soundness check)
//! harness vm-diff [--cases N] [--seed S] [--fault-rounds R]
//!                            differential rig: N seeded random documents x
//!                            random queries through the VM, the reference
//!                            executor and the DOM baseline simultaneously
//!                            (clean + fault-repaired streams); any
//!                            divergence fails the run
//! harness scan-diff [--cases N] [--seed S] [--fault-rounds R]
//!                            scanner differential rig: the SWAR fast path
//!                            vs the classic scanner through the full
//!                            recovery pipeline (clean + every PR-2 fault
//!                            mutator x both policies);
//!                            fragments, faults, quarantine sets and stats
//!                            must be byte-identical or the run fails
//! harness reactor-smoke [--spex PATH] [--conns N]
//!                            process-level reactor check: a real `spex
//!                            serve` child holds N (default 10,000) idle
//!                            connections plus live sessions, then SIGTERM
//!                            must drain and exit 0 with every idle
//!                            connection still open
//! harness crash-diff [--cases N] [--seed S] [--kills K]
//!                            restart-transparency rig: N random streams x
//!                            queries, killed at K random byte offsets per
//!                            policy, restored from the latest document-
//!                            boundary snapshot and compared byte-for-byte
//!                            against the uninterrupted run (strict/repair/
//!                            skip-subtree, plus corrupt-snapshot and
//!                            torn-WAL structured-error checks);
//!                            any divergence fails the run
//! harness filter-bench [--max N]
//!                            multi-tenant combiner table (E14): 10 → N
//!                            (default 10,000) standing queries compiled
//!                            into one shared plan by spex-combine, vs n
//!                            per-query networks and the boolean NFA
//!                            filter, over shared-prefix / shared-qualifier
//!                            / disjoint profiles; any per-query count that
//!                            differs from independent evaluation fails
//!                            the run
//! harness crash-smoke [--spex PATH]
//!                            process-level restart transparency: SIGKILL a
//!                            real `spex serve --durable-dir` mid-stream,
//!                            restart it, resume by token and require the
//!                            concatenated output byte-identical to the
//!                            one-shot CLI (PATH defaults to the `spex`
//!                            binary next to this harness)
//! harness all                everything above except crash-smoke and
//!                            reactor-smoke (which need the separately
//!                            built `spex` binary)
//! harness mem-probe P D C    (internal) run one evaluation and print peak RSS
//! ```
//!
//! DMOZ runs default to 1/10 of the paper's sizes; set `SPEX_BENCH_FULL=1`
//! for the full 300 MB / 1 GB streams or `SPEX_BENCH_SCALE=x` for a custom
//! factor.

#![forbid(unsafe_code)]

use spex_bench::{
    dmoz_scale, mondial_events, peak_rss_kb, run_query, run_spex_streaming, stream_bytes,
    wordnet_events, Processor, RunResult,
};
use spex_core::CompiledNetwork;
use spex_query::{QueryMetrics, Rpeq};
use spex_workloads::{dmoz_content, dmoz_structure, queries_for, Dataset, QuoteStream};
use spex_xml::XmlEvent;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(|s| s.as_str()).unwrap_or("all");
    match cmd {
        "fig14" => fig14(),
        "fig15" => fig15(),
        "memory" => memory(),
        "lemma_v1" => lemma_v1(),
        "scaling" => scaling(),
        "formula_growth" => formula_growth(),
        "multiquery" => multiquery(),
        "transducers" => transducers(),
        "fault-sweep" => fault_sweep_cmd(&args[1..]),
        "vm-diff" => vm_diff_cmd(&args[1..]),
        "scan-diff" => scan_diff_cmd(&args[1..]),
        "crash-diff" => crash_diff_cmd(&args[1..]),
        "filter-bench" => filter_bench_cmd(&args[1..]),
        "crash-smoke" => crash_smoke_cmd(&args[1..]),
        "reactor-smoke" => reactor_smoke_cmd(&args[1..]),
        "mem-probe" => mem_probe(&args[1..]),
        "all" => {
            fig14();
            fig15();
            memory();
            lemma_v1();
            scaling();
            formula_growth();
            multiquery();
            transducers();
            fault_sweep_cmd(&[]);
            vm_diff_cmd(&[]);
            scan_diff_cmd(&[]);
            crash_diff_cmd(&[]);
            filter_bench_cmd(&[]);
        }
        other => {
            eprintln!("unknown subcommand `{other}`");
            std::process::exit(2);
        }
    }
}

fn header(title: &str) {
    println!();
    println!("== {title} ==");
}

fn secs(r: &RunResult) -> String {
    format!("{:8.3}s", r.elapsed.as_secs_f64())
}

/// Fig. 14: small and medium documents, three processors, the paper's query
/// classes.
fn fig14() {
    for (name, events) in [("Mondial", mondial_events()), ("Wordnet", wordnet_events())] {
        let dataset = if name == "Mondial" {
            Dataset::Mondial
        } else {
            Dataset::Wordnet
        };
        let bytes = stream_bytes(events);
        header(&format!(
            "Fig. 14 — {name} ({:.1} MB, {} events)",
            bytes as f64 / 1e6,
            events.len()
        ));
        println!(
            "{:>6} {:<34} {:>10} {:>10} {:>10} {:>9}",
            "class", "query", "spex", "dom", "treenfa", "results"
        );
        for qc in queries_for(dataset) {
            let q = qc.rpeq();
            let rows: Vec<RunResult> = Processor::ALL
                .iter()
                .map(|p| run_query(*p, &q, events))
                .collect();
            println!(
                "{:>6} {:<34} {:>10} {:>10} {:>10} {:>9}",
                qc.class,
                qc.text,
                secs(&rows[0]),
                secs(&rows[1]),
                secs(&rows[2]),
                rows[0].results
            );
            assert_eq!(rows[0].results, rows[1].results, "processors disagree!");
            assert_eq!(rows[1].results, rows[2].results, "processors disagree!");
        }
    }
}

/// Fig. 15: large documents, SPEX only (the in-memory processors exceed the
/// paper's 512 MB machine; `harness memory` demonstrates the same here).
fn fig15() {
    let scale = dmoz_scale();
    for (name, dataset) in [
        ("DMOZ structure (300 MB full)", Dataset::DmozStructure),
        ("DMOZ content (1 GB full)", Dataset::DmozContent),
    ] {
        header(&format!("Fig. 15 — {name}, scale {scale}"));
        println!(
            "{:>6} {:<34} {:>10} {:>12} {:>9} {:>14}",
            "class", "query", "spex", "MB/s", "results", "peak buffered"
        );
        for qc in queries_for(dataset) {
            let q = qc.rpeq();
            let make = || -> Box<dyn Iterator<Item = XmlEvent>> {
                match dataset {
                    Dataset::DmozStructure => Box::new(dmoz_structure(scale)),
                    _ => Box::new(dmoz_content(scale)),
                }
            };
            let bytes: u64 = make().map(|e| e.to_string().len() as u64).sum();
            let (r, _events) = run_spex_streaming(&q, make());
            println!(
                "{:>6} {:<34} {:>10} {:>12.1} {:>9} {:>14}",
                qc.class,
                qc.text,
                secs(&r),
                bytes as f64 / 1e6 / r.elapsed.as_secs_f64(),
                r.results,
                r.stats
                    .as_ref()
                    .map(|s| s.peak_buffered_events)
                    .unwrap_or(0),
            );
        }
    }
}

/// §VI memory claim: peak RSS per (processor, dataset), measured in a child
/// process so each measurement is isolated. Datasets are written to disk
/// first and the probes parse them *streaming from the file*, so the
/// measured memory is the evaluation strategy's own — SPEX stays constant,
/// the in-memory processors grow with the document.
fn memory() {
    header("§VI memory — peak RSS per processor (child process, class-2 query)");
    let exe = std::env::current_exe().expect("own path");
    let dir = std::env::temp_dir().join("spex-bench-memory");
    std::fs::create_dir_all(&dir).expect("temp dir");
    // Materialize the datasets as XML files once.
    let files = [
        ("mondial", Dataset::Mondial),
        ("wordnet", Dataset::Wordnet),
        ("dmoz-structure", Dataset::DmozStructure),
    ];
    let scale_tag = format!("{}", dmoz_scale());
    for (name, ds) in files {
        let path = dir.join(format!("{name}-{scale_tag}.xml"));
        if path.exists() {
            continue;
        }
        let file = std::fs::File::create(&path).expect("create dataset file");
        let mut w = spex_xml::Writer::new(std::io::BufWriter::new(file));
        match ds {
            Dataset::Mondial => {
                for ev in spex_workloads::mondial() {
                    w.write(&ev).expect("write");
                }
            }
            Dataset::Wordnet => {
                for ev in spex_workloads::wordnet() {
                    w.write(&ev).expect("write");
                }
            }
            _ => {
                for ev in dmoz_structure(dmoz_scale()) {
                    w.write(&ev).expect("write");
                }
            }
        }
    }
    println!(
        "{:>10} {:<18} {:>10} {:>12}",
        "processor", "dataset", "file", "peak RSS"
    );
    for (name, _ds) in files {
        let path = dir.join(format!("{name}-{scale_tag}.xml"));
        let size = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        for proc in ["spex", "dom", "treenfa"] {
            let out = std::process::Command::new(&exe)
                .args(["mem-probe", proc, name, "2", path.to_str().unwrap()])
                .output()
                .expect("spawn mem-probe");
            let text = String::from_utf8_lossy(&out.stdout);
            let kb: u64 = text.trim().parse().unwrap_or(0);
            println!(
                "{:>10} {:<18} {:>7.1} MB {:>9.1} MB",
                proc,
                name,
                size as f64 / 1e6,
                kb as f64 / 1024.0
            );
        }
    }
    println!("(paper: SPEX constant 8.5-11 MB incl. JVM; Saxon/Fxgrep exceeded 512 MB on DMOZ)");
}

/// Internal: run one evaluation streaming from a file, print peak RSS (kB).
fn mem_probe(args: &[String]) {
    let proc = args.first().map(|s| s.as_str()).unwrap_or("spex");
    let dataset = args.get(1).map(|s| s.as_str()).unwrap_or("mondial");
    let class: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(2);
    let path = args.get(3).expect("dataset file path");
    let ds = match dataset {
        "mondial" => Dataset::Mondial,
        "wordnet" => Dataset::Wordnet,
        "dmoz-structure" => Dataset::DmozStructure,
        "dmoz-content" => Dataset::DmozContent,
        _ => {
            eprintln!("unknown dataset");
            std::process::exit(2);
        }
    };
    let q = queries_for(ds)
        .into_iter()
        .find(|qc| qc.class as usize == class)
        .expect("class exists")
        .rpeq();
    let file = std::fs::File::open(path).expect("dataset file");
    let reader = spex_xml::Reader::new(std::io::BufReader::new(file));
    match proc {
        "spex" => {
            let network = CompiledNetwork::compile(&q);
            let mut sink = spex_core::CountingSink::new();
            let mut eval = spex_core::Evaluator::new(&network, &mut sink);
            for ev in reader {
                eval.push(ev.expect("well-formed"));
            }
            eval.finish();
        }
        p => {
            // In-memory processors: build the tree from the streaming
            // parser (no event buffering), then evaluate.
            let mut builder = spex_xml::TreeBuilder::new();
            for ev in reader {
                builder.push(ev.expect("well-formed")).expect("tree");
            }
            let doc = builder.finish().expect("tree");
            let n = match parse_proc(p) {
                Processor::Dom => spex_baseline::DomEvaluator::new(&doc).evaluate(&q).len(),
                _ => spex_baseline::TreeNfaEvaluator::new(&doc)
                    .evaluate(&q)
                    .len(),
            };
            let _ = n;
        }
    }
    println!("{}", peak_rss_kb().unwrap_or(0));
}

/// §V per-transducer bounds, measured: one row per network node for the
/// Mondial class-2 query, so a hot or stack-heavy transducer is visible.
/// Checks the paper's bounds row by row: every depth stack ≤ stream depth.
fn transducers() {
    header("§V — per-transducer measurements (Mondial, class-2 query)");
    let qc = &queries_for(Dataset::Mondial)[1];
    let events = mondial_events();
    let r = run_query(Processor::Spex, &qc.rpeq(), events);
    let stats = r.stats.as_ref().expect("spex stats");
    let rows = r
        .transducer_stats
        .as_ref()
        .expect("spex per-transducer stats");
    println!(
        "query: {} (stream depth {})",
        qc.text, stats.max_stream_depth
    );
    println!(
        "{:>5} {:<16} {:>12} {:>8} {:>8} {:>8}",
        "node", "kind", "messages", "d-stack", "c-stack", "o(phi)"
    );
    for t in rows {
        println!(
            "{:>5} {:<16} {:>12} {:>8} {:>8} {:>8}",
            t.node, t.kind, t.messages, t.max_depth_stack, t.max_cond_stack, t.max_formula_size
        );
        assert!(
            t.max_depth_stack <= stats.max_stream_depth,
            "Lemma V.2 violated at node {}",
            t.node
        );
    }
    let sum: u64 = rows.iter().map(|t| t.messages).sum();
    println!(
        "{:>5} {:<16} {:>12}   (= global message count)",
        "", "total", sum
    );
    assert_eq!(
        sum, stats.messages,
        "per-transducer sum must equal the global count"
    );

    // Faults section: the same query over a deliberately corrupted stream,
    // evaluated under the Repair policy. Shows what the recovery layer
    // reports (and that the damaged results were quarantined, not invented).
    println!();
    println!("faults (same query, one close tag deleted, --recover repair):");
    let xml = spex_xml::writer::events_to_string(events);
    let mutation = spex_bench::fault::mutate(&xml, spex_bench::fault::Mutator::DeleteClose, 5);
    let network = CompiledNetwork::compile(&qc.rpeq());
    let mut collector = spex_core::FragmentCollector::new();
    let report = spex_core::evaluate_recovering(
        &network,
        std::io::Cursor::new(mutation.xml.into_bytes()),
        spex_core::RecoveryOptions {
            policy: spex_xml::RecoveryPolicy::Repair,
            ..Default::default()
        },
        spex_core::ResourceLimits::default(),
        &mut collector,
    )
    .expect("repair run completes");
    println!(
        "{:<20} {:>8}   (injected at byte {})",
        "kind", "count", mutation.offset
    );
    for kind in spex_xml::FaultKind::ALL {
        let n = report.fault_count(kind);
        if n > 0 {
            println!("{:<20} {:>8}", kind.as_str(), n);
        }
    }
    println!(
        "delivered: {}  quarantined: {}  truncated: {}",
        report.results, report.dropped, report.truncated
    );
}

/// Robustness sweep: seeds × mutators × recovery policies over the Mondial
/// workload, asserting panic-freedom and subset soundness against the
/// clean-stream oracle (fixed seed base 0xFA17 for reproducibility).
fn fault_sweep_cmd(args: &[String]) {
    let rounds: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(9);
    let countries: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(30);
    header("robustness — fault-injection sweep (Mondial)");
    let start = Instant::now();
    let workloads = spex_bench::fault::mondial_workloads(countries);
    println!(
        "{} queries x 6 mutators x {} seeds x 2 policies ({} countries)",
        workloads.len(),
        rounds,
        countries
    );
    let outcome = spex_bench::fault::fault_sweep(&workloads, 0xFA17, rounds);
    println!(
        "mutants: {}  unchanged: {}  runs with faults: {}  faults reported: {}",
        outcome.mutants, outcome.unchanged, outcome.faulted_runs, outcome.faults_reported
    );
    println!(
        "delivered: {}  quarantined: {}  elapsed: {:.2}s",
        outcome.delivered,
        outcome.quarantined,
        start.elapsed().as_secs_f64()
    );
    if !outcome.violations.is_empty() {
        for v in &outcome.violations {
            eprintln!("VIOLATION: {}", v.detail);
        }
        eprintln!("{} soundness violation(s)", outcome.violations.len());
        std::process::exit(1);
    }
    println!("soundness: every mutant's results are a subset of the clean oracle");
}

/// The `vm-diff` subcommand: drive the PR-6 differential rig
/// (`spex_bench::diff`) — seeded random documents × random queries through
/// the bytecode VM, the reference executor, and the DOM baseline at once,
/// clean and fault-repaired. Exits 1 on the first run with any divergence.
fn vm_diff_cmd(args: &[String]) {
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse::<u64>().ok())
    };
    let cases = flag("--cases").unwrap_or(250) as usize;
    let seed = flag("--seed").unwrap_or(0xd1ff);
    let fault_rounds = flag("--fault-rounds").unwrap_or(1) as usize;
    header(&format!(
        "vm-diff — {cases} random case(s), seed {seed}, {fault_rounds} fault round(s) each"
    ));
    let outcome = spex_bench::diff::vm_diff(cases, seed, fault_rounds);
    println!(
        "{} clean case(s) compared ({} selected >=1 node, {} fragment(s) agreed byte-for-byte)",
        outcome.cases, outcome.selecting_cases, outcome.fragments
    );
    println!(
        "{} fault comparison(s) (mutator x policy x executor), {} divergence(s)",
        outcome.fault_comparisons,
        outcome.divergences.len()
    );
    for d in &outcome.divergences {
        eprintln!("DIVERGENCE: {d}");
    }
    if !outcome.divergences.is_empty() {
        std::process::exit(1);
    }
}

/// The `scan-diff` subcommand: the PR-10 scanner differential rig
/// (`spex_bench::diff::scan_diff`) — the SWAR fast path against the classic
/// scanner through the full recovery pipeline, clean and fault-injected.
/// Exits 1 on any divergence.
fn scan_diff_cmd(args: &[String]) {
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse::<u64>().ok())
    };
    let cases = flag("--cases").unwrap_or(150) as usize;
    let seed = flag("--seed").unwrap_or(0x5ca7);
    let fault_rounds = flag("--fault-rounds").unwrap_or(1) as usize;
    header(&format!(
        "scan-diff — {cases} random case(s), seed {seed}, {fault_rounds} fault round(s) each"
    ));
    let outcome = spex_bench::diff::scan_diff(cases, seed, fault_rounds);
    println!(
        "{} case(s) compared fast-vs-classic ({} selected >=1 node, {} fragment(s) delivered)",
        outcome.cases, outcome.selecting_cases, outcome.fragments
    );
    println!(
        "{} stream comparison(s) (clean + mutators, x policy), {} divergence(s)",
        outcome.fault_comparisons,
        outcome.divergences.len()
    );
    for d in &outcome.divergences {
        eprintln!("SCANNER DIVERGENCE: {d}");
    }
    if !outcome.divergences.is_empty() {
        std::process::exit(1);
    }
}

fn crash_diff_cmd(args: &[String]) {
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse::<u64>().ok())
    };
    let cases = flag("--cases").unwrap_or(125) as usize;
    let seed = flag("--seed").unwrap_or(0xc4a5);
    let kills = flag("--kills").unwrap_or(3) as usize;
    header(&format!(
        "crash-diff — {cases} random case(s), seed {seed}, {kills} kill-point(s) per policy"
    ));
    let outcome = spex_bench::crash::crash_diff(cases, seed, kills);
    println!(
        "{} case(s) x strict/repair/skip-subtree: {} kill-point(s) resumed \
         ({} restored from a document-boundary snapshot)",
        outcome.cases, outcome.kills, outcome.snapshot_resumes
    );
    println!(
        "{} corrupt-snapshot / torn-WAL check(s), {} divergence(s)",
        outcome.corruption_checks,
        outcome.divergences.len()
    );
    for d in &outcome.divergences {
        eprintln!("DIVERGENCE: {d}");
    }
    if !outcome.divergences.is_empty() {
        std::process::exit(1);
    }
}

fn crash_smoke_cmd(args: &[String]) {
    let spex = args
        .iter()
        .position(|a| a == "--spex")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            // Default: the `spex` binary sitting next to this harness.
            std::env::current_exe()
                .ok()
                .and_then(|p| p.parent().map(|d| d.join("spex")))
                .unwrap_or_else(|| std::path::PathBuf::from("spex"))
        });
    header("crash-smoke — SIGKILL a live durable server, restart, resume by token");
    if !spex.exists() {
        eprintln!(
            "crash-smoke: `{}` not found (build it with `cargo build --release -p spex-cli` \
             or pass --spex PATH)",
            spex.display()
        );
        std::process::exit(2);
    }
    match spex_bench::crash::crash_smoke(&spex) {
        Ok(summary) => println!("{summary}"),
        Err(e) => {
            eprintln!("crash-smoke FAILED: {e}");
            std::process::exit(1);
        }
    }
}

/// The `reactor-smoke` subcommand: a real `spex serve` child process holds
/// thousands of idle connections while live sessions stream through it,
/// then a SIGTERM must drain the live work and exit 0 without waiting on
/// the idle peers. `tests/reactor.rs` holds the in-process versions (a
/// 300-connection herd, a 16-session admission burst on one worker); this
/// is the same reactor with real signals and real fds.
fn reactor_smoke_cmd(args: &[String]) {
    use spex_serve::Client;
    use std::io::Read as _;

    let spex = args
        .iter()
        .position(|a| a == "--spex")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::env::current_exe()
                .ok()
                .and_then(|p| p.parent().map(|d| d.join("spex")))
                .unwrap_or_else(|| std::path::PathBuf::from("spex"))
        });
    let conns_want = args
        .iter()
        .position(|a| a == "--conns")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(10_000);
    header("reactor-smoke — 10k idle connections + live traffic, SIGTERM must drain to exit 0");
    if !spex.exists() {
        eprintln!(
            "reactor-smoke: `{}` not found (build it with `cargo build --release -p spex-cli` \
             or pass --spex PATH)",
            spex.display()
        );
        std::process::exit(2);
    }
    // This process holds one fd per idle connection; the child holds the
    // other end under its own (inherited) limit.
    let fd_budget = spex_serve::soft_fd_limit().unwrap_or(1024) as usize;
    let conns = conns_want.min(fd_budget.saturating_sub(256));
    if conns < conns_want {
        println!(
            "note: fd soft limit {fd_budget} clamps the idle herd to {conns} \
             (raise `ulimit -n` for the full {conns_want})"
        );
    }
    let log_path =
        std::env::temp_dir().join(format!("spex-reactor-smoke-{}.log", std::process::id()));
    let log = std::fs::File::create(&log_path).expect("create server log");
    let mut child = std::process::Command::new(&spex)
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "4"])
        .stderr(log)
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn spex serve");
    // The listen address is announced on stderr once the socket is bound.
    let addr: std::net::SocketAddr = 'addr: {
        for _ in 0..100 {
            if let Ok(text) = std::fs::read_to_string(&log_path) {
                if let Some(line) = text.lines().find(|l| l.contains("listening on ")) {
                    let addr = line.rsplit("listening on ").next().unwrap().trim();
                    break 'addr addr.parse().expect("parse listen address");
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        let _ = child.kill();
        panic!(
            "server never announced its listen address (see {})",
            log_path.display()
        );
    };
    // The idle herd: connected, never sends a byte, stays open through the
    // shutdown below.
    let mut idle: Vec<std::net::TcpStream> = Vec::with_capacity(conns);
    for i in 0..conns {
        let mut tries = 0;
        let stream = loop {
            match std::net::TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(e) if tries < 50 => {
                    tries += 1;
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    let _ = e;
                }
                Err(e) => {
                    let _ = child.kill();
                    panic!("idle conn {i}: {e}");
                }
            }
        };
        idle.push(stream);
    }
    // Live traffic while the herd sits on the reactor.
    let xml = std::sync::Arc::new(spex_xml::writer::events_to_string(mondial_events()));
    let queries: Vec<(String, String)> = queries_for(Dataset::Mondial)
        .into_iter()
        .map(|qc| (format!("c{}", qc.class), qc.text.to_string()))
        .collect();
    let live: Vec<_> = (0..8usize)
        .map(|c| {
            let xml = xml.clone();
            let (name, expr) = queries[c % queries.len()].clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect live");
                client.set_max_frame(16 * 1024 * 1024);
                let t = client
                    .run_session(&[(name.as_str(), expr.as_str())], xml.as_bytes())
                    .expect("live session");
                assert!(t.clean_end && !t.busy, "live session did not complete");
                assert!(t.errors.is_empty(), "live session errors: {:?}", t.errors);
            })
        })
        .collect();
    for t in live {
        t.join().expect("live client thread");
    }
    // SIGTERM with the whole herd still connected. `Child::kill` is
    // SIGKILL, so shell out for the graceful signal.
    let status = std::process::Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(status.success(), "kill -TERM failed");
    let exit = 'exit: {
        for _ in 0..300 {
            if let Some(status) = child.try_wait().expect("wait on server") {
                break 'exit status;
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        let _ = child.kill();
        panic!("server did not exit within 30s of SIGTERM with the idle herd connected");
    };
    drop(idle);
    assert!(
        exit.success(),
        "server exited non-zero after SIGTERM: {exit}"
    );
    let mut log_text = String::new();
    let _ = std::fs::File::open(&log_path).and_then(|mut f| f.read_to_string(&mut log_text));
    assert!(
        log_text.contains("drained"),
        "server log does not report a drained shutdown:\n{log_text}"
    );
    let _ = std::fs::remove_file(&log_path);
    println!(
        "reactor-smoke survived: {conns} idle connection(s) held through 8 live session(s) \
         and a SIGTERM drain to exit 0"
    );
}

fn parse_proc(p: &str) -> Processor {
    match p {
        "dom" => Processor::Dom,
        "treenfa" => Processor::TreeNfa,
        _ => Processor::Spex,
    }
}

/// Lemma V.1: translation time and network degree are linear in the query
/// length.
fn lemma_v1() {
    header("Lemma V.1 — translation time / network degree vs query length");
    println!(
        "{:>6} {:>10} {:>8} {:>14}",
        "n", "AST len", "degree", "compile time"
    );
    for n in [1usize, 2, 4, 8, 16, 32, 64, 128, 256] {
        let text = (0..n)
            .map(|i| format!("_*.s{i}[t{i}]"))
            .collect::<Vec<_>>()
            .join(".");
        let q: Rpeq = text.parse().unwrap();
        let m = QueryMetrics::of(&q);
        // Compile repeatedly for a stable timing.
        let reps = 200;
        let start = Instant::now();
        let mut degree = 0;
        for _ in 0..reps {
            degree = CompiledNetwork::compile(&q).degree();
        }
        let per = start.elapsed() / reps;
        println!("{:>6} {:>10} {:>8} {:>11.1?}", n, m.length, degree, per);
    }
}

/// Theorem V.1: evaluation time linear in the stream size.
fn scaling() {
    header("Theorem V.1 — SPEX time vs stream size (DMOZ structure, class 2)");
    let q = queries_for(Dataset::DmozStructure)[1].rpeq();
    println!("{:>10} {:>12} {:>10} {:>12}", "scale", "MB", "time", "MB/s");
    for scale in [0.005, 0.01, 0.02, 0.04, 0.08] {
        let bytes: u64 = dmoz_structure(scale)
            .map(|e| e.to_string().len() as u64)
            .sum();
        let (r, _) = run_spex_streaming(&q, dmoz_structure(scale));
        println!(
            "{:>10} {:>12.2} {:>10} {:>12.1}",
            scale,
            bytes as f64 / 1e6,
            secs(&r),
            bytes as f64 / 1e6 / r.elapsed.as_secs_f64()
        );
    }
}

/// §V formula-size analysis: o(φ) per language fragment and depth.
fn formula_growth() {
    header("§V — max formula size o(φ) by fragment and stream depth");
    let nested = |d: usize| {
        let mut xml = String::new();
        for _ in 0..d {
            xml.push_str("<a>");
        }
        xml.push_str("<leaf/>");
        for _ in 0..d {
            xml.push_str("</a>");
        }
        xml
    };
    println!("{:>34} {:>6} {:>8}", "query", "d", "o(phi)");
    for d in [4usize, 8, 16, 32] {
        let events: Vec<XmlEvent> = spex_xml::reader::parse_events(&nested(d)).unwrap();
        for q in [
            "_*.a+._*.leaf",
            "_*._[leaf]",
            "_*._[leaf]._*._",
            "_*._[leaf]._*._[leaf]._*._",
        ] {
            let query: Rpeq = q.parse().unwrap();
            let r = run_query(Processor::Spex, &query, &events);
            println!(
                "{:>34} {:>6} {:>8}",
                q,
                d,
                r.stats.as_ref().map(|s| s.max_formula_size).unwrap_or(0)
            );
        }
    }
    println!("(rpeq* stays at 1; one qualified closure grows ~d; stacked qualified closures grow faster — the dⁿ analysis)");
}

/// E12: many profiles over one stream — per-query SPEX networks vs the
/// shared-pass NFA filter (XFilter/YFilter stand-in).
fn multiquery() {
    header("E12 — multi-query filtering, 2,000 quote documents");
    let docs: Vec<XmlEvent> = QuoteStream::new(5, 10).take(2_000 * 130).collect();
    println!(
        "{:>9} {:>14} {:>14} {:>14}",
        "profiles", "spex (each)", "spex (shared)", "nfa filter"
    );
    for n in [1usize, 10, 100] {
        let queries: Vec<Rpeq> = (0..n)
            .map(|i| {
                format!("quotes.quote.sym{}", i % 7)
                    .replace("sym0", "symbol")
                    .parse()
                    .unwrap()
            })
            .collect();
        // SPEX: n independent networks, one pass each … shared event loop.
        let networks: Vec<CompiledNetwork> = queries.iter().map(CompiledNetwork::compile).collect();
        let start = Instant::now();
        let mut sinks: Vec<spex_core::CountingSink> =
            (0..n).map(|_| spex_core::CountingSink::new()).collect();
        {
            let mut evals: Vec<spex_core::Evaluator<_>> = networks
                .iter()
                .zip(sinks.iter_mut())
                .map(|(net, sink)| spex_core::Evaluator::new(net, sink))
                .collect();
            for ev in &docs {
                for e in &mut evals {
                    e.push(ev.clone());
                }
            }
            for e in evals {
                e.finish();
            }
        }
        let spex_time = start.elapsed();
        // Shared SPEX network through the multi-query combiner (the §IX
        // multi-query optimization): canonical forms collapse the seven
        // distinct profiles, the step trie shares the `quotes.quote`
        // prefix, and the remaining duplicates alias sinks on one plan.
        let named: Vec<(String, Rpeq)> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| (format!("q{i}"), q.clone()))
            .collect();
        let shared = spex_combine::combine_set(&named).expect("E12 queries compile");
        let start = Instant::now();
        let (_counts, _stats) = shared.count_events(docs.iter().cloned());
        let shared_time = start.elapsed();
        // NFA filter: one shared pass.
        let mut set = spex_baseline::FilterSet::new();
        for (i, q) in queries.iter().enumerate() {
            set.add(format!("q{i}"), q).unwrap();
        }
        let start = Instant::now();
        let matched = set.matching(&docs);
        let nfa_time = start.elapsed();
        let _ = matched;
        println!(
            "{:>9} {:>13.3}s {:>13.3}s {:>13.3}s",
            n,
            spex_time.as_secs_f64(),
            shared_time.as_secs_f64(),
            nfa_time.as_secs_f64()
        );
    }
    println!("(boolean filtering only — the NFA filter cannot answer qualifier queries, SPEX can)");
}

/// Per-document event stream for `filter-bench`: `count` catalog documents,
/// each one product carrying a rotating window of `fld{k}` children from a
/// pool of `pool` field names, with a `meta.lang` subtree on every other
/// document so qualifier queries actually filter.
fn filter_catalog_docs(count: usize, pool: usize) -> Vec<Vec<XmlEvent>> {
    (0..count)
        .map(|d| {
            let mut ev = vec![
                XmlEvent::StartDocument,
                XmlEvent::open("catalog"),
                XmlEvent::open("product"),
            ];
            if d % 2 == 0 {
                ev.push(XmlEvent::open("meta"));
                ev.push(XmlEvent::open("lang"));
                ev.push(XmlEvent::text("en"));
                ev.push(XmlEvent::close("lang"));
                ev.push(XmlEvent::close("meta"));
            }
            for k in 0..8usize {
                let fld = format!("fld{}", (d * 8 + k) % pool);
                ev.push(XmlEvent::open(&fld));
                ev.push(XmlEvent::text("v"));
                ev.push(XmlEvent::close(&fld));
            }
            ev.push(XmlEvent::close("product"));
            ev.push(XmlEvent::close("catalog"));
            ev.push(XmlEvent::EndDocument);
            ev
        })
        .collect()
}

/// Per-document event stream for the disjoint profile: document `d` is the
/// three-element spine `a{j}.b{j}.c{j}` with `j = d % cap`, so every
/// registered disjoint query matches some documents.
fn filter_disjoint_docs(count: usize, cap: usize) -> Vec<Vec<XmlEvent>> {
    (0..count)
        .map(|d| {
            let j = d % cap;
            vec![
                XmlEvent::StartDocument,
                XmlEvent::open(format!("a{j}")),
                XmlEvent::open(format!("b{j}")),
                XmlEvent::open(format!("c{j}")),
                XmlEvent::text("v"),
                XmlEvent::close(format!("c{j}")),
                XmlEvent::close(format!("b{j}")),
                XmlEvent::close(format!("a{j}")),
                XmlEvent::EndDocument,
            ]
        })
        .collect()
}

/// `n` independently-compiled networks over one flattened stream: the
/// per-query baseline the combiner is measured against.
fn filter_independent(queries: &[(String, Rpeq)], events: &[XmlEvent]) -> (Vec<usize>, f64) {
    let networks: Vec<CompiledNetwork> = queries
        .iter()
        .map(|(_, q)| CompiledNetwork::compile(q))
        .collect();
    let mut sinks: Vec<spex_core::CountingSink> = (0..queries.len())
        .map(|_| spex_core::CountingSink::new())
        .collect();
    let start = Instant::now();
    {
        let mut evals: Vec<spex_core::Evaluator<_>> = networks
            .iter()
            .zip(sinks.iter_mut())
            .map(|(net, sink)| spex_core::Evaluator::new(net, sink))
            .collect();
        for ev in events {
            for e in &mut evals {
                e.push(ev.clone());
            }
        }
        for e in evals {
            e.finish();
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    (sinks.iter().map(|s| s.results).collect(), elapsed)
}

/// The `filter-bench` subcommand (E14): multi-tenant filtering, 10 →
/// 10,000 concurrent standing queries compiled through the spex-combine
/// combiner into **one** shared plan, against (a) n independently-compiled
/// per-query networks and (b) the boolean NFA filter baseline
/// (`spex_baseline::FilterSet`). Three query profiles: shared-prefix
/// (`catalog.product.fld{k}`, k from a pool of 128), shared-qualifier
/// (the same chains behind a `[meta.lang]` qualifier — the baseline cannot
/// express these), and disjoint (`a{i}.b{i}.c{i}`, capped at 1,000). The
/// per-query baseline is measured up to 1,000 queries and linearly
/// extrapolated past that (marked `est.`). Combined per-query counts are
/// checked against the independent counts wherever both run; any mismatch
/// fails the run. The timings are single passes, for the table only; the
/// degree facts behind E14's sublinearity are pinned by `tests/combine.rs`.
/// `--max N` truncates the sweep (CI runs `--max 1000`).
fn filter_bench_cmd(args: &[String]) {
    let max = args
        .iter()
        .position(|a| a == "--max")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(10_000);

    const POOL: usize = 128; // distinct suffix fields across all tenants
    const INDEP_CAP: usize = 1_000; // past this, extrapolate the per-query baseline
    const DISJOINT_CAP: usize = 1_000; // the disjoint profile stops here
    const DOCS: usize = 200;

    let ns: Vec<usize> = [10usize, 100, 1_000, 10_000]
        .into_iter()
        .filter(|n| *n <= max)
        .collect();
    assert!(!ns.is_empty(), "--max must be at least 10");

    header(&format!(
        "filter-bench — multi-tenant combiner sweep, {} → {} standing queries",
        ns[0],
        ns[ns.len() - 1]
    ));
    println!(
        "{:>17} {:>7} {:>9} {:>7} {:>9} {:>11} {:>13} {:>13}",
        "profile",
        "queries",
        "distinct",
        "degree",
        "unshared",
        "comb ns/ev",
        "indep ns/ev",
        "filter ns/ev"
    );

    let catalog_docs = filter_catalog_docs(DOCS, POOL);
    let disjoint_docs = filter_disjoint_docs(DOCS, DISJOINT_CAP);
    // One sweep profile: display name, query template, per-document event
    // stream, and whether the boolean NFA baseline can express it.
    type FilterProfile<'a> = (&'static str, fn(usize) -> String, &'a [Vec<XmlEvent>], bool);
    let profiles: [FilterProfile<'_>; 3] = [
        (
            "shared-prefix",
            |i| format!("catalog.product.fld{}", i % POOL),
            &catalog_docs,
            true,
        ),
        (
            "shared-qualifier",
            |i| format!("catalog.product[meta.lang].fld{}", i % POOL),
            &catalog_docs,
            false, // FilterSet rejects qualifiers
        ),
        (
            "disjoint",
            |i| format!("a{i}.b{i}.c{i}"),
            &disjoint_docs,
            true,
        ),
    ];

    let mut mismatches = 0usize;
    for (profile, make, docs, filterable) in profiles {
        let events: Vec<XmlEvent> = docs.iter().flatten().cloned().collect();
        let per_event = |secs: f64| secs * 1e9 / events.len() as f64;
        for &n in &ns {
            if profile == "disjoint" && n > DISJOINT_CAP {
                println!(
                    "{:>17} {:>7}  (capped at {DISJOINT_CAP}: past it every added query is new topology, scaling is linear by construction)",
                    profile, n
                );
                continue;
            }
            let queries: Vec<(String, Rpeq)> = (0..n)
                .map(|i| {
                    (
                        format!("q{i}"),
                        make(i).parse().expect("bench query parses"),
                    )
                })
                .collect();
            let combined = spex_combine::combine(&queries).expect("bench queries compile");
            let report = combined.report;
            let start = Instant::now();
            let (combined_counts, _stats) = combined.set.count_events(events.iter().cloned());
            let combined_secs = start.elapsed().as_secs_f64();

            // Per-query baseline, measured to INDEP_CAP and extrapolated past
            // it (compiling 10,000 evaluators is exactly the cost the
            // combiner exists to avoid).
            let measured_n = n.min(INDEP_CAP);
            let (indep_counts, indep_secs) = filter_independent(&queries[..measured_n], &events);
            let estimated = measured_n < n;
            let indep_secs_scaled = indep_secs * n as f64 / measured_n as f64;

            // Equivalence spot-check over the measured slice: the combined
            // plan must deliver exactly as many results per query as the
            // query's own network.
            let by_name: std::collections::HashMap<&str, usize> = combined
                .set
                .ids()
                .iter()
                .map(|s| s.as_str())
                .zip(combined_counts.iter().copied())
                .collect();
            for ((name, _), independent) in queries[..measured_n].iter().zip(&indep_counts) {
                let shared = by_name.get(name.as_str()).copied().unwrap_or(usize::MAX);
                if shared != *independent {
                    eprintln!(
                        "MISMATCH [{profile} n={n}] {name}: combined delivered {shared}, independent {independent}"
                    );
                    mismatches += 1;
                }
            }

            // Boolean NFA filter, one matching() pass per document (the SDI
            // scenario: which documents match which profiles).
            let filter_secs = if filterable {
                let mut set = spex_baseline::FilterSet::new();
                for (name, q) in &queries {
                    set.add(name.clone(), q).expect("structure-only profile");
                }
                let start = Instant::now();
                let mut hits = 0usize;
                for doc in docs {
                    hits += set.matching(doc).len();
                }
                std::hint::black_box(hits);
                Some(start.elapsed().as_secs_f64())
            } else {
                None
            };

            println!(
                "{:>17} {:>7} {:>9} {:>7} {:>9} {:>11.0} {:>9.0}{} {:>13}",
                profile,
                n,
                report.distinct,
                report.degree,
                report.unshared_degree,
                per_event(combined_secs),
                per_event(indep_secs_scaled),
                if estimated { " est." } else { "     " },
                filter_secs
                    .map(|v| format!("{:.0}", per_event(v)))
                    .unwrap_or_else(|| "n/a".to_string()),
            );
        }
    }
    println!(
        "(filter column is boolean match/no-match per document — the NFA baseline cannot \
         answer qualifier queries or extract fragments, the shared plan does both)"
    );
    if mismatches > 0 {
        eprintln!("filter-bench: {mismatches} combined-vs-independent count mismatch(es)");
        std::process::exit(1);
    }
}
