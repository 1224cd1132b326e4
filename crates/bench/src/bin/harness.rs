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
//! harness fault-sweep [--rounds R] [--countries C]
//!                            robustness: R (default 9) seeds × 6 mutators ×
//!                            2 recovery policies over C-country (default
//!                            30) Mondial (soundness check)
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
//! harness reactor-smoke [--spex PATH] [--conns N]
//!                            process-level reactor check: a real `spex
//!                            serve` child holds N (default 10,000) idle
//!                            connections plus live sessions, then SIGTERM
//!                            must drain and exit 0 with every idle
//!                            connection still open
//! harness mem-probe P D C F  (internal) run one evaluation and print peak RSS
//! harness all                every table and rig above, in order, except
//!                            crash-smoke and reactor-smoke (which need the
//!                            separately built `spex` binary)
//! ```
//!
//! Every subcommand reads its options through one strict parser
//! (`spex_bench::rig::Flags`) and shares the exit codes: 0 pass, 1 a rig
//! found a failure (each printed on stderr behind the rig's prefix, such as
//! `DIVERGENCE: `), 2 usage (an unknown flag, a flag without its value or a
//! malformed value; a usage line follows).
//!
//! DMOZ runs default to 1/10 of the paper's sizes; set `SPEX_BENCH_FULL=1`
//! for the full 300 MB / 1 GB streams or `SPEX_BENCH_SCALE=x` for a custom
//! factor.

#![forbid(unsafe_code)]

use spex_bench::rig::{spawn_serve, Flags, Report};
use spex_bench::{
    dmoz_scale, mondial_events, peak_rss_kb, run_query, run_spex_streaming, select_in_tree,
    stream_bytes, wordnet_events, Processor, RunResult,
};
use spex_core::CompiledNetwork;
use spex_query::{QueryMetrics, Rpeq};
use spex_workloads::{dmoz_content, dmoz_structure, queries_for, Dataset, QuoteStream};
use spex_xml::XmlEvent;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A subcommand's entry point, by what it is, which decides who runs it.
/// Rigs return their report, or a usage error.
enum Run {
    /// Regenerates a table of the paper's evaluation; `harness all` runs it.
    Table(fn()),
    /// A correctness rig; `harness all` and CI run it.
    Rig(fn(&Flags) -> Result<Report, String>),
    /// A rig that drives the separately built `spex` binary; CI runs it.
    Smoke(fn(&Flags) -> Result<Report, String>),
    /// Neither: `all` runs the others, and `memory` runs `mem-probe`.
    Other(fn(&Flags) -> Result<Report, String>),
}
use Run::*;

/// One subcommand: its name, the options it reads as its usage line shows
/// them (`--flag VALUE`, or a positional `NAME`), and its entry point.
struct Command(&'static str, &'static [&'static str], Run);

/// Every subcommand, in the order `harness all` runs them.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command("fig14", &[], Table(fig14)),
    Command("fig15", &[], Table(fig15)),
    Command("memory", &[], Table(memory)),
    Command("lemma_v1", &[], Table(lemma_v1)),
    Command("scaling", &[], Table(scaling)),
    Command("formula_growth", &[], Table(formula_growth)),
    Command("multiquery", &[], Table(multiquery)),
    Command("transducers", &[], Table(transducers)),
    Command("fault-sweep", &["--rounds R", "--countries C"], Rig(fault_sweep_cmd)),
    Command("vm-diff", &["--cases N", "--seed S", "--fault-rounds R"], Rig(vm_diff_cmd)),
    Command("scan-diff", &["--cases N", "--seed S", "--fault-rounds R"], Rig(scan_diff_cmd)),
    Command("crash-diff", &["--cases N", "--seed S", "--kills K"], Rig(crash_diff_cmd)),
    Command("filter-bench", &["--max N"], Rig(filter_bench_cmd)),
    Command("crash-smoke", &["--spex PATH"], Smoke(crash_smoke_cmd)),
    Command("reactor-smoke", &["--spex PATH", "--conns N"], Smoke(reactor_smoke_cmd)),
    Command("mem-probe", &["PROCESSOR", "DATASET", "CLASS", "FILE"], Other(mem_probe)),
    Command("all", &[], Other(all)),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("all", String::as_str);
    let Some(command) = COMMANDS.iter().find(|c| c.0 == name) else {
        eprintln!("unknown subcommand `{name}`");
        std::process::exit(2);
    };
    std::process::exit(run(command, args.get(1..).unwrap_or_default()));
}

/// Parse `args` for `command`, run it and print its report. Returns the
/// exit code: 0 pass, 1 failure, 2 usage.
fn run(Command(name, options, run): &Command, args: &[String]) -> i32 {
    let report = Flags::parse(args, options).and_then(|flags| match run {
        Table(table) => {
            table();
            Ok(Report::default())
        }
        Rig(rig) | Smoke(rig) | Other(rig) => rig(&flags),
    });
    match report {
        Ok(report) => report.print(),
        Err(usage) => {
            let options: String = options.iter().map(|o| format!(" [{o}]")).collect();
            eprintln!("harness {name}: {usage}\nusage: harness {name}{options}");
            2
        }
    }
}

/// `harness all`: every table and rig in table order, stopping at the
/// first failure.
fn all(_: &Flags) -> Result<Report, String> {
    for command in COMMANDS.iter().filter(|c| matches!(c.2, Table(_) | Rig(_))) {
        let code = run(command, &[]);
        if code != 0 {
            std::process::exit(code);
        }
    }
    Ok(Report::default())
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
            let r = run_spex_streaming(&q, make());
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
/// process so each measurement is isolated. Each dataset is written to disk
/// once and the probes parse it *streaming from the file*, so the
/// measured memory is the evaluation strategy's own — SPEX stays constant,
/// the in-memory processors grow with the document.
fn memory() {
    header("§VI memory — peak RSS per processor (child process, class-2 query)");
    let exe = std::env::current_exe().expect("own path");
    let dir = std::env::temp_dir().join("spex-bench-memory");
    std::fs::create_dir_all(&dir).expect("temp dir");
    type Events = fn() -> Box<dyn Iterator<Item = XmlEvent>>;
    let datasets: [(&str, Events); 3] = [
        ("mondial", || {
            Box::new(spex_workloads::mondial().into_iter())
        }),
        ("wordnet", || {
            Box::new(spex_workloads::wordnet().into_iter())
        }),
        ("dmoz-structure", || Box::new(dmoz_structure(dmoz_scale()))),
    ];
    let scale_tag = format!("{}", dmoz_scale());
    println!(
        "{:>10} {:<18} {:>10} {:>12}",
        "processor", "dataset", "file", "peak RSS"
    );
    for (name, events) in datasets {
        // Materialize the dataset as an XML file once.
        let path = dir.join(format!("{name}-{scale_tag}.xml"));
        if !path.exists() {
            let file = std::fs::File::create(&path).expect("create dataset file");
            let mut w = spex_xml::Writer::new(std::io::BufWriter::new(file));
            for ev in events() {
                w.write(&ev).expect("write");
            }
        }
        let size = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        for proc in Processor::ALL.map(|p| p.label()) {
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
/// SPEX reads the file through the zero-copy pipeline the CLI runs; the
/// in-memory processors build their tree from owned events.
fn mem_probe(flags: &Flags) -> Result<Report, String> {
    let proc: String = flags.value("PROCESSOR")?.unwrap_or_else(|| "spex".into());
    let dataset: String = flags.value("DATASET")?.unwrap_or_else(|| "mondial".into());
    let class: usize = flags.value("CLASS")?.unwrap_or(2);
    let path: PathBuf = flags.value("FILE")?.ok_or("missing FILE")?;
    let processor = Processor::ALL
        .into_iter()
        .find(|p| p.label() == proc)
        .ok_or_else(|| format!("unknown processor `{proc}`"))?;
    let ds = match dataset.as_str() {
        "mondial" => Dataset::Mondial,
        "wordnet" => Dataset::Wordnet,
        "dmoz-structure" => Dataset::DmozStructure,
        "dmoz-content" => Dataset::DmozContent,
        _ => return Err(format!("unknown dataset `{dataset}`")),
    };
    let q = queries_for(ds)
        .into_iter()
        .find(|qc| qc.class as usize == class)
        .expect("class exists")
        .rpeq();
    let file = std::fs::File::open(path).expect("dataset file");
    if processor == Processor::Spex {
        let network = CompiledNetwork::compile(&q);
        let mut sink = spex_core::CountingSink::new();
        let mut eval = spex_core::Evaluator::new(&network, &mut sink);
        eval.push_reader(file).expect("well-formed");
        eval.finish();
    } else {
        // In-memory processors: build the tree from the streaming parser
        // (no event buffering), then evaluate.
        let reader = spex_xml::Reader::new(std::io::BufReader::new(file));
        let mut builder = spex_xml::TreeBuilder::new();
        for ev in reader {
            builder.push(ev.expect("well-formed")).expect("tree");
        }
        let doc = builder.finish().expect("tree");
        std::hint::black_box(select_in_tree(processor, &doc, &q));
    }
    println!("{}", peak_rss_kb().unwrap_or(0));
    Ok(Report::default())
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
fn fault_sweep_cmd(flags: &Flags) -> Result<Report, String> {
    let rounds = flags.value("--rounds")?.unwrap_or(9);
    let countries = flags.value("--countries")?.unwrap_or(30);
    header("robustness — fault-injection sweep (Mondial)");
    let workloads = spex_bench::fault::mondial_workloads(countries);
    println!(
        "{} queries x 6 mutators x {} seeds x 2 policies ({} countries)",
        workloads.len(),
        rounds,
        countries
    );
    Ok(spex_bench::fault::fault_sweep(&workloads, 0xFA17, rounds).report())
}

/// The `vm-diff` subcommand: drive the PR-6 differential rig
/// (`spex_bench::diff`) — seeded random documents × random queries through
/// the bytecode VM, the reference executor, and the DOM baseline at once,
/// clean and fault-repaired. Any divergence fails the run.
fn vm_diff_cmd(flags: &Flags) -> Result<Report, String> {
    let cases = flags.value("--cases")?.unwrap_or(250);
    let seed = flags.value("--seed")?.unwrap_or(0xd1ff);
    let fault_rounds = flags.value("--fault-rounds")?.unwrap_or(1);
    header(&format!(
        "vm-diff — {cases} random case(s), seed {seed}, {fault_rounds} fault round(s) each"
    ));
    Ok(spex_bench::diff::vm_diff(cases, seed, fault_rounds).report())
}

/// The `scan-diff` subcommand: the PR-10 scanner differential rig
/// (`spex_bench::diff::scan_diff`) — the SWAR fast path against the classic
/// scanner through the full recovery pipeline, clean and fault-injected.
/// Any divergence fails the run.
fn scan_diff_cmd(flags: &Flags) -> Result<Report, String> {
    let cases = flags.value("--cases")?.unwrap_or(150);
    let seed = flags.value("--seed")?.unwrap_or(0x5ca7);
    let fault_rounds = flags.value("--fault-rounds")?.unwrap_or(1);
    header(&format!(
        "scan-diff — {cases} random case(s), seed {seed}, {fault_rounds} fault round(s) each"
    ));
    Ok(spex_bench::diff::scan_diff(cases, seed, fault_rounds).report())
}

fn crash_diff_cmd(flags: &Flags) -> Result<Report, String> {
    let cases = flags.value("--cases")?.unwrap_or(125);
    let seed = flags.value("--seed")?.unwrap_or(0xc4a5);
    let kills = flags.value("--kills")?.unwrap_or(3);
    header(&format!(
        "crash-diff — {cases} random case(s), seed {seed}, {kills} kill-point(s) per policy"
    ));
    Ok(spex_bench::crash::crash_diff(cases, seed, kills).report())
}

/// The `spex` binary a smoke drives: `--spex PATH`, or by default the one
/// next to this harness.
fn spex_binary(flags: &Flags) -> Result<PathBuf, String> {
    let spex: PathBuf = flags.value("--spex")?.unwrap_or_else(|| {
        std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|d| d.join("spex")))
            .unwrap_or_else(|| PathBuf::from("spex"))
    });
    if !spex.exists() {
        return Err(format!(
            "`{}` not found (build it with `cargo build --release -p spex-cli` \
             or pass --spex PATH)",
            spex.display()
        ));
    }
    Ok(spex)
}

fn crash_smoke_cmd(flags: &Flags) -> Result<Report, String> {
    let spex = spex_binary(flags)?;
    header("crash-smoke — SIGKILL a live durable server, restart, resume by token");
    let outcome = spex_bench::crash::crash_smoke(&spex);
    Ok(Report::of(outcome, "crash-smoke FAILED: "))
}

/// The `reactor-smoke` subcommand: a real `spex serve` child process holds
/// thousands of idle connections while live sessions stream through it,
/// then a SIGTERM must drain the live work and exit 0 without waiting on
/// the idle peers. `tests/reactor.rs` holds the in-process versions (a
/// 300-connection herd, a 16-session admission burst on one worker); this
/// is the same reactor with real signals and real fds.
fn reactor_smoke_cmd(flags: &Flags) -> Result<Report, String> {
    let spex = spex_binary(flags)?;
    let conns = flags.value("--conns")?.unwrap_or(10_000);
    header("reactor-smoke — 10k idle connections + live traffic, SIGTERM must drain to exit 0");
    Ok(Report::of(
        reactor_smoke(&spex, conns),
        "reactor-smoke FAILED: ",
    ))
}

fn reactor_smoke(spex: &Path, conns_want: usize) -> Result<String, String> {
    use spex_serve::Client;
    use std::io::Read as _;

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
    let mut server = spawn_serve(spex, &["--workers", "4"])?;
    let addr = server.addr;
    // The idle herd: connected, never sends a byte, stays open through the
    // shutdown below.
    let mut idle: Vec<std::net::TcpStream> = Vec::with_capacity(conns);
    for i in 0..conns {
        let mut tries = 0;
        let stream = loop {
            match std::net::TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(_) if tries < 50 => {
                    tries += 1;
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Err(format!("idle conn {i}: {e}")),
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
            std::thread::spawn(move || -> Result<(), String> {
                let mut client = Client::connect(addr).map_err(|e| format!("connect live: {e}"))?;
                client.set_max_frame(16 * 1024 * 1024);
                let t = client
                    .run_session(&[(name.as_str(), expr.as_str())], xml.as_bytes())
                    .map_err(|e| format!("live session: {e}"))?;
                if !t.clean_end || t.busy || !t.errors.is_empty() {
                    return Err(format!("live session did not complete: {:?}", t.errors));
                }
                Ok(())
            })
        })
        .collect();
    for t in live {
        t.join().map_err(|_| "live client thread panicked")??;
    }
    // SIGTERM with the whole herd still connected. `Child::kill` is
    // SIGKILL, so shell out for the graceful signal.
    let status = std::process::Command::new("kill")
        .args(["-TERM", &server.child.id().to_string()])
        .status()
        .map_err(|e| format!("send SIGTERM: {e}"))?;
    if !status.success() {
        return Err("kill -TERM failed".into());
    }
    let mut exit = None;
    for _ in 0..300 {
        exit = server.child.try_wait().map_err(|e| e.to_string())?;
        if exit.is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    let exit =
        exit.ok_or("server did not exit within 30s of SIGTERM with the idle herd connected")?;
    drop(idle);
    if !exit.success() {
        return Err(format!("server exited non-zero after SIGTERM: {exit}"));
    }
    let mut log = String::new();
    let _ = server.stderr.read_to_string(&mut log);
    if !log.contains("drained") {
        return Err(format!(
            "server log does not report a drained shutdown:\n{log}"
        ));
    }
    Ok(format!(
        "reactor-smoke survived: {conns} idle connection(s) held through 8 live session(s) \
         and a SIGTERM drain to exit 0"
    ))
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
        let r = run_spex_streaming(&q, dmoz_structure(scale));
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
        let named: Vec<(String, Rpeq)> = (0..n)
            .map(|i| {
                let query = format!("quotes.quote.sym{}", i % 7).replace("sym0", "symbol");
                (format!("q{i}"), query.parse().unwrap())
            })
            .collect();
        // SPEX: n independent networks, one pass each.
        let (each_counts, spex_secs) = filter_independent(&named, &docs);
        // Shared SPEX network through the multi-query combiner (the §IX
        // multi-query optimization): canonical forms collapse the seven
        // distinct profiles, the step trie shares the `quotes.quote`
        // prefix, and the remaining duplicates alias sinks on one plan.
        // Its ids are `q0..q{n-1}` sorted as strings; the counts must agree
        // with the independent networks' per query.
        let shared = spex_combine::combine(&named)
            .expect("E12 queries compile")
            .set;
        let start = Instant::now();
        let (shared_counts, _stats) = shared.count_events(docs.iter().cloned());
        let shared_time = start.elapsed();
        for (id, count) in shared.ids().iter().zip(&shared_counts) {
            let i: usize = id[1..].parse().expect("E12 ids are q<i>");
            assert_eq!(*count, each_counts[i], "E12 query {id}");
        }
        // NFA filter: one shared pass.
        let mut set = spex_baseline::FilterSet::new();
        for (name, q) in &named {
            set.add(name.clone(), q).unwrap();
        }
        let start = Instant::now();
        let matched = set.matching(&docs);
        let nfa_time = start.elapsed();
        let _ = matched;
        println!(
            "{:>9} {:>13.3}s {:>13.3}s {:>13.3}s",
            n,
            spex_secs,
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
            let meta = if d % 2 == 0 {
                "<meta><lang>en</lang></meta>"
            } else {
                ""
            };
            let fields: String = (0..8)
                .map(|k| format!("<fld{0}>v</fld{0}>", (d * 8 + k) % pool))
                .collect();
            let xml = format!("<catalog><product>{meta}{fields}</product></catalog>");
            spex_xml::reader::parse_events(&xml).expect("catalog document")
        })
        .collect()
}

/// Per-document event stream for the disjoint profile: document `d` is the
/// three-element spine `a{j}.b{j}.c{j}` with `j = d % cap`, so every
/// registered disjoint query matches some documents.
fn filter_disjoint_docs(count: usize, cap: usize) -> Vec<Vec<XmlEvent>> {
    (0..count)
        .map(|d| {
            let xml = format!("<a{0}><b{0}><c{0}>v</c{0}></b{0}></a{0}>", d % cap);
            spex_xml::reader::parse_events(&xml).expect("disjoint document")
        })
        .collect()
}

/// `n` independently-compiled networks, one pass each over one flattened
/// stream: the per-query baseline the combiner is measured against (E12 and
/// E14). Returns the per-query result counts and the seconds taken.
fn filter_independent(queries: &[(String, Rpeq)], events: &[XmlEvent]) -> (Vec<usize>, f64) {
    let networks: Vec<CompiledNetwork> = queries
        .iter()
        .map(|(_, q)| CompiledNetwork::compile(q))
        .collect();
    let start = Instant::now();
    let counts = networks
        .iter()
        .map(|net| net.count_events(events.iter().cloned()).0[0])
        .collect();
    (counts, start.elapsed().as_secs_f64())
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
fn filter_bench_cmd(flags: &Flags) -> Result<Report, String> {
    let max = flags.value("--max")?.unwrap_or(10_000);

    const POOL: usize = 128; // distinct suffix fields across all tenants
    const INDEP_CAP: usize = 1_000; // past this, extrapolate the per-query baseline
    const DISJOINT_CAP: usize = 1_000; // the disjoint profile stops here
    const DOCS: usize = 200;

    let ns: Vec<usize> = [10usize, 100, 1_000, 10_000]
        .into_iter()
        .filter(|n| *n <= max)
        .collect();
    if ns.is_empty() {
        return Err("`--max` must be at least 10".into());
    }

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

    let mut mismatches = Vec::new();
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
                    mismatches.push(format!(
                        "[{profile} n={n}] {name}: combined delivered {shared}, independent {independent}"
                    ));
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
    Ok(Report {
        summary: vec![
            "(filter column is boolean match/no-match per document — the NFA baseline \
             cannot answer qualifier queries or extract fragments, the shared plan does both)"
                .into(),
        ],
        prefix: "MISMATCH ",
        failures: mismatches,
    })
}
