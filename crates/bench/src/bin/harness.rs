//! Paper-style benchmark harness: regenerates every table/figure of the
//! SPEX paper's evaluation section as text tables (experiments E1–E7 and
//! E12 of DESIGN.md; measured values are recorded in EXPERIMENTS.md).
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
//! harness bench [--json]     zero-copy pipeline: throughput, peak arena bytes,
//!                            allocations/event (owned vs zero-copy); --json
//!                            writes BENCH_3.json and guards >10% regressions
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
//! harness scan-bench [--json] [--out PATH]
//!                            SWAR fast scanner vs classic (BENCH_10):
//!                            a parse-only leg (Reader::next_into into the
//!                            arena, no engine) and an end-to-end MB/s leg
//!                            over the bundled workloads plus a synthetic
//!                            attribute-heavy / text-heavy / deep-nesting
//!                            grid; gated at >=1.5x parse-only and >=1.25x
//!                            end-to-end aggregate speedup over classic;
//!                            --json writes BENCH_10.json
//! harness serve-bench [--json] [--clients N] [--docs M]
//!                            spex-serve: N concurrent clients x M documents
//!                            over a loopback server; aggregate events/sec,
//!                            p50/p99 session latency; the burst that drove
//!                            the old blocking server to 94% BUSY must now
//!                            be admitted in full (1 worker, zero rejects),
//!                            and a connection-scalability sweep holds
//!                            100 -> 10,000 mostly-idle connections with a
//!                            hot subset streaming (fd-limit clamped, hot
//!                            p99 gated under the blocking baseline's p50);
//!                            --json writes BENCH_4.json and BENCH_8.json
//!                            (--out8 PATH overrides the latter)
//! harness reactor-smoke [--spex PATH] [--conns N]
//!                            process-level reactor check: a real `spex
//!                            serve` child holds N (default 10,000) idle
//!                            connections plus live sessions, then SIGTERM
//!                            must drain and exit 0 with every idle
//!                            connection still open
//! harness trace-bench [--json]
//!                            spex-trace overhead: the zero-copy pipeline
//!                            with tracing off vs on (JSONL sink), run
//!                            interleaved; --json writes BENCH_5.json and
//!                            the run fails if trace-on is >5% slower
//! harness crash-diff [--cases N] [--seed S] [--kills K]
//!                            restart-transparency rig: N random streams x
//!                            queries, killed at K random byte offsets per
//!                            policy, restored from the latest document-
//!                            boundary snapshot and compared byte-for-byte
//!                            against the uninterrupted run (strict/repair/
//!                            skip-subtree, plus corrupt-snapshot and
//!                            torn-WAL structured-error checks);
//!                            any divergence fails the run
//! harness crash-bench [--json]
//!                            durable-session costs: snapshot size and
//!                            checkpoint/restore latency vs query class and
//!                            document depth, plus write-ahead-log overhead
//!                            on the streaming pipeline; --json writes
//!                            BENCH_7.json and the run fails if WAL-on is
//!                            >5% slower than WAL-off
//! harness filter-bench [--json] [--max N]
//!                            multi-tenant combiner sweep (E14): 10 → N
//!                            (default 10,000) standing queries compiled
//!                            into one shared plan by spex-combine, vs n
//!                            per-query networks and the boolean NFA
//!                            filter, over shared-prefix / shared-qualifier
//!                            / disjoint profiles; per-query counts are
//!                            cross-checked and the shared-prefix per-event
//!                            cost at N must stay within 20x the 10-query
//!                            cost; --json writes BENCH_9.json
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

use spex_bench::{
    dmoz_scale, mondial_events, peak_rss_kb, run_parse_only, run_query, run_spex_owned,
    run_spex_streaming, run_spex_zero_copy, run_spex_zero_copy_scanner, stream_bytes,
    synthetic_attr_heavy, synthetic_deep_nesting, synthetic_text_heavy, wordnet_events, Processor,
    RunResult,
};
use spex_core::CompiledNetwork;
use spex_query::{QueryMetrics, Rpeq};
use spex_workloads::{dmoz_content, dmoz_structure, queries_for, Dataset, QuoteStream};
use spex_xml::{EventStore, ScannerKind, XmlEvent};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counting allocator: wraps the system allocator and counts every
/// allocation and reallocation, so `harness bench` can report heap
/// allocations per event for the owned and zero-copy pipelines. The bench
/// *library* forbids unsafe code; the instrumentation lives here in the
/// binary, behind the narrowest possible surface.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to the system allocator; the counter update has
// no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

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
        "scan-bench" => scan_bench_cmd(&args[1..]),
        "bench" => bench_cmd(&args[1..]),
        "serve-bench" => serve_bench_cmd(&args[1..]),
        "trace-bench" => trace_bench_cmd(&args[1..]),
        "crash-diff" => crash_diff_cmd(&args[1..]),
        "crash-bench" => crash_bench_cmd(&args[1..]),
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
            bench_cmd(&[]);
            scan_bench_cmd(&[]);
            serve_bench_cmd(&[]);
            trace_bench_cmd(&[]);
            crash_diff_cmd(&[]);
            crash_bench_cmd(&[]);
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

/// Per-workload allocation profile of the *event pipeline alone* (parse →
/// event representation, no network attached): owned `XmlEvent`s vs the
/// arena path. This isolates what the zero-copy refactor changed — both
/// end-to-end paths share the same transducer network, so the representation
/// difference is invisible in whole-run counts.
struct PipelineRow {
    workload: &'static str,
    events: usize,
    owned_allocs: u64,
    zero_copy_allocs: u64,
}

impl PipelineRow {
    fn owned_per_event(&self) -> f64 {
        self.owned_allocs as f64 / self.events.max(1) as f64
    }

    fn zero_copy_per_event(&self) -> f64 {
        self.zero_copy_allocs as f64 / self.events.max(1) as f64
    }
}

/// One measured (workload, query) cell of the `bench` table.
struct BenchRow {
    workload: &'static str,
    class: u8,
    query: &'static str,
    events: usize,
    mb: f64,
    results: usize,
    zc_secs: f64,
    zc_allocs: u64,
    peak_arena_bytes: usize,
    interned_symbols: usize,
    ow_secs: f64,
    ow_allocs: u64,
}

impl BenchRow {
    fn zc_allocs_per_event(&self) -> f64 {
        self.zc_allocs as f64 / self.events.max(1) as f64
    }

    fn ow_allocs_per_event(&self) -> f64 {
        self.ow_allocs as f64 / self.events.max(1) as f64
    }

    fn events_per_s(&self) -> f64 {
        self.events as f64 / self.zc_secs.max(1e-9)
    }

    fn mb_per_s(&self) -> f64 {
        self.mb / self.zc_secs.max(1e-9)
    }
}

/// The `bench` subcommand: throughput and allocation profile of the
/// zero-copy event pipeline, per workload × query class. With `--json`,
/// writes `BENCH_3.json` (repo root by default, `--out PATH` overrides) and
/// exits non-zero if throughput regressed by more than 10% against an
/// existing `BENCH_3.json` baseline, or if the zero-copy path fails the
/// ≥2× fewer-allocations-per-event bar against the owned path on Mondial.
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

/// The `scan-bench` subcommand (BENCH_10): the SWAR fast scanner against
/// the classic scanner on two axes — a parse-only leg (`Reader::next_into`
/// into the arena, no engine attached) and an end-to-end leg (the full
/// zero-copy pipeline under the VM engine) — over the bundled workloads
/// plus the synthetic attribute-heavy / text-heavy / deep-nesting grid of
/// EXPERIMENTS.md E15. Interleaved best-of-5 per cell; the aggregate
/// fast/classic speedup is gated at ≥1.5× parse-only and ≥1.25× end-to-end.
fn scan_bench_cmd(args: &[String]) {
    let json = args.iter().any(|a| a == "--json");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| format!("{}/../../BENCH_10.json", env!("CARGO_MANIFEST_DIR")));
    let bench_dmoz_scale = 0.01;
    header("scan-bench — SWAR fast scanner vs classic: parse-only leg (BENCH_10)");
    let workloads: Vec<(&'static str, String)> = vec![
        (
            "mondial",
            spex_xml::writer::events_to_string(mondial_events()),
        ),
        (
            "wordnet",
            spex_xml::writer::events_to_string(wordnet_events()),
        ),
        (
            "dmoz-structure",
            spex_xml::writer::events_to_string(
                &dmoz_structure(bench_dmoz_scale).collect::<Vec<_>>(),
            ),
        ),
        ("attr-heavy", synthetic_attr_heavy(20_000)),
        ("text-heavy", synthetic_text_heavy(10_000)),
        ("deep-nesting", synthetic_deep_nesting(2_000, 30)),
    ];
    struct ParseRow {
        workload: &'static str,
        mb: f64,
        events: u64,
        fast_secs: f64,
        classic_secs: f64,
    }
    println!(
        "{:>14} {:>9} {:>9} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "workload", "MB", "events", "fast MB/s", "clas MB/s", "fast Mev/s", "clas Mev/s", "speedup"
    );
    let mut prows: Vec<ParseRow> = Vec::new();
    for (name, xml) in &workloads {
        let bytes = xml.as_bytes();
        let mut fast = run_parse_only(bytes, ScannerKind::Fast);
        let mut classic = run_parse_only(bytes, ScannerKind::Classic);
        assert_eq!(
            fast.events, classic.events,
            "scanners disagree on event count for {name}"
        );
        assert_eq!(
            fast.bytes, classic.bytes,
            "scanners disagree on bytes consumed for {name}"
        );
        for _ in 0..4 {
            let r = run_parse_only(bytes, ScannerKind::Fast);
            if r.elapsed < fast.elapsed {
                fast = r;
            }
            let r = run_parse_only(bytes, ScannerKind::Classic);
            if r.elapsed < classic.elapsed {
                classic = r;
            }
        }
        println!(
            "{:>14} {:>9.2} {:>9} {:>10.1} {:>10.1} {:>10.2} {:>10.2} {:>7.2}x",
            name,
            bytes.len() as f64 / 1e6,
            fast.events,
            fast.mb_per_s(),
            classic.mb_per_s(),
            fast.mev_per_s(),
            classic.mev_per_s(),
            classic.elapsed.as_secs_f64() / fast.elapsed.as_secs_f64().max(1e-9)
        );
        prows.push(ParseRow {
            workload: name,
            mb: bytes.len() as f64 / 1e6,
            events: fast.events,
            fast_secs: fast.elapsed.as_secs_f64(),
            classic_secs: classic.elapsed.as_secs_f64(),
        });
    }
    let parse_mb: f64 = prows.iter().map(|r| r.mb).sum();
    let parse_fast_secs: f64 = prows.iter().map(|r| r.fast_secs).sum();
    let parse_classic_secs: f64 = prows.iter().map(|r| r.classic_secs).sum();
    let parse_speedup = parse_classic_secs / parse_fast_secs.max(1e-9);
    println!(
        "parse-only aggregate: fast {:.1} MB/s vs classic {:.1} MB/s ({:.2}x)",
        parse_mb / parse_fast_secs.max(1e-9),
        parse_mb / parse_classic_secs.max(1e-9),
        parse_speedup
    );

    header("scan-bench — end-to-end zero-copy pipeline, fast vs classic (BENCH_10)");
    // One representative class-1 path query per workload — the shape the
    // one-shot CLI runs in the common case, where the scanner's share of the
    // pipeline is visible. The engine-bound per-class grid (qualifiers,
    // select-everything) lives in `harness bench`; those cells measure the
    // engine, which is byte-identical under both scanners.
    let mut e2e_specs: Vec<(&'static str, String, Rpeq)> = Vec::new();
    for (name, dataset) in [
        ("mondial", Dataset::Mondial),
        ("wordnet", Dataset::Wordnet),
        ("dmoz-structure", Dataset::DmozStructure),
    ] {
        for qc in queries_for(dataset) {
            if qc.class == 1 {
                e2e_specs.push((name, qc.text.to_string(), qc.rpeq()));
            }
        }
    }
    for (name, q) in [
        ("attr-heavy", "_*.rec"),
        ("text-heavy", "_*.p"),
        ("deep-nesting", "_*.c"),
    ] {
        e2e_specs.push((name, q.to_string(), q.parse().expect("synthetic query")));
    }
    struct E2eRow {
        workload: &'static str,
        query: String,
        mb: f64,
        results: usize,
        fast_secs: f64,
        classic_secs: f64,
    }
    println!(
        "{:>14} {:<28} {:>10} {:>10} {:>8} {:>11}",
        "workload", "query", "fast MB/s", "clas MB/s", "speedup", "results"
    );
    let mut erows: Vec<E2eRow> = Vec::new();
    for (name, text, q) in &e2e_specs {
        let xml = &workloads
            .iter()
            .find(|(n, _)| n == name)
            .expect("workload exists")
            .1;
        let bytes = xml.as_bytes();
        let mut fast = run_spex_zero_copy_scanner(q, bytes, ScannerKind::Fast);
        let mut classic = run_spex_zero_copy_scanner(q, bytes, ScannerKind::Classic);
        assert_eq!(
            fast.results, classic.results,
            "scanners disagree on result count for {name} `{text}`"
        );
        for _ in 0..4 {
            let r = run_spex_zero_copy_scanner(q, bytes, ScannerKind::Fast);
            if r.elapsed < fast.elapsed {
                fast = r;
            }
            let r = run_spex_zero_copy_scanner(q, bytes, ScannerKind::Classic);
            if r.elapsed < classic.elapsed {
                classic = r;
            }
        }
        let mb = bytes.len() as f64 / 1e6;
        println!(
            "{:>14} {:<28} {:>10.1} {:>10.1} {:>7.2}x {:>11}",
            name,
            text,
            mb / fast.elapsed.as_secs_f64().max(1e-9),
            mb / classic.elapsed.as_secs_f64().max(1e-9),
            classic.elapsed.as_secs_f64() / fast.elapsed.as_secs_f64().max(1e-9),
            fast.results
        );
        erows.push(E2eRow {
            workload: name,
            query: text.clone(),
            mb,
            results: fast.results,
            fast_secs: fast.elapsed.as_secs_f64(),
            classic_secs: classic.elapsed.as_secs_f64(),
        });
    }
    let e2e_mb: f64 = erows.iter().map(|r| r.mb).sum();
    let e2e_fast_secs: f64 = erows.iter().map(|r| r.fast_secs).sum();
    let e2e_classic_secs: f64 = erows.iter().map(|r| r.classic_secs).sum();
    let e2e_speedup = e2e_classic_secs / e2e_fast_secs.max(1e-9);
    println!(
        "end-to-end aggregate: fast {:.1} MB/s vs classic {:.1} MB/s ({:.2}x)",
        e2e_mb / e2e_fast_secs.max(1e-9),
        e2e_mb / e2e_classic_secs.max(1e-9),
        e2e_speedup
    );

    // The two BENCH_10 gates. Aggregates are used (total bytes over total
    // best-of-5 seconds) so one noisy cell cannot fail the run; both legs
    // run fast and classic interleaved in the same process, so the ratio
    // cancels machine-wide contention.
    let mut failed = false;
    if parse_speedup < 1.5 {
        eprintln!(
            "SCAN SPEEDUP REGRESSION: parse-only fast scanner only {parse_speedup:.2}x classic (gate: 1.5x)"
        );
        failed = true;
    }
    if e2e_speedup < 1.25 {
        eprintln!(
            "SCAN SPEEDUP REGRESSION: end-to-end fast scanner only {e2e_speedup:.2}x classic (gate: 1.25x)"
        );
        failed = true;
    }
    if json {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"spex-scan-bench-10\",\n");
        out.push_str(&format!("  \"dmoz_scale\": {bench_dmoz_scale},\n"));
        out.push_str("  \"parse\": [\n");
        for (i, r) in prows.iter().enumerate() {
            let sep = if i + 1 == prows.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"workload\":\"{}\",\"mb\":{:.3},\"events\":{},\"fast\":{{\"secs\":{:.6},\"mb_per_s\":{:.3},\"mev_per_s\":{:.3}}},\"classic\":{{\"secs\":{:.6},\"mb_per_s\":{:.3},\"mev_per_s\":{:.3}}},\"speedup\":{:.3}}}{sep}\n",
                r.workload,
                r.mb,
                r.events,
                r.fast_secs,
                r.mb / r.fast_secs.max(1e-9),
                r.events as f64 / 1e6 / r.fast_secs.max(1e-9),
                r.classic_secs,
                r.mb / r.classic_secs.max(1e-9),
                r.events as f64 / 1e6 / r.classic_secs.max(1e-9),
                r.classic_secs / r.fast_secs.max(1e-9),
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"e2e\": [\n");
        for (i, r) in erows.iter().enumerate() {
            let sep = if i + 1 == erows.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"workload\":\"{}\",\"query\":{:?},\"mb\":{:.3},\"results\":{},\"fast\":{{\"secs\":{:.6},\"mb_per_s\":{:.3}}},\"classic\":{{\"secs\":{:.6},\"mb_per_s\":{:.3}}},\"speedup\":{:.3}}}{sep}\n",
                r.workload,
                r.query,
                r.mb,
                r.results,
                r.fast_secs,
                r.mb / r.fast_secs.max(1e-9),
                r.classic_secs,
                r.mb / r.classic_secs.max(1e-9),
                r.classic_secs / r.fast_secs.max(1e-9),
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"summary\": {{\"parse_speedup\":{:.4},\"parse_fast_mb_per_s\":{:.3},\"parse_classic_mb_per_s\":{:.3},\"e2e_speedup\":{:.4},\"e2e_fast_mb_per_s\":{:.3},\"e2e_classic_mb_per_s\":{:.3}}},\n",
            parse_speedup,
            parse_mb / parse_fast_secs.max(1e-9),
            parse_mb / parse_classic_secs.max(1e-9),
            e2e_speedup,
            e2e_mb / e2e_fast_secs.max(1e-9),
            e2e_mb / e2e_classic_secs.max(1e-9),
        ));
        out.push_str("  \"gates\": {\"parse_min_speedup\":1.5,\"e2e_min_speedup\":1.25}\n");
        out.push_str("}\n");
        std::fs::write(&out_path, out).expect("write BENCH_10.json");
        println!("wrote {out_path}");
    }
    if failed {
        std::process::exit(1);
    }
}

fn bench_cmd(args: &[String]) {
    let json = args.iter().any(|a| a == "--json");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| format!("{}/../../BENCH_3.json", env!("CARGO_MANIFEST_DIR")));
    // A smoke-sized DMOZ slice keeps the CI run under a minute; the full
    // figures come from `harness fig15` / SPEX_BENCH_FULL.
    let bench_dmoz_scale = 0.01;
    header("bench — zero-copy pipeline: throughput + allocations per event");
    println!(
        "{:>14} {:>5} {:<28} {:>9} {:>9} {:>9} {:>8} {:>8} {:>6} {:>11}",
        "workload",
        "class",
        "query",
        "Mev/s",
        "MB/s",
        "arena",
        "al/ev",
        "owned",
        "ratio",
        "results"
    );
    let mut rows: Vec<BenchRow> = Vec::new();
    let mut pipeline: Vec<PipelineRow> = Vec::new();
    let workloads: Vec<(&'static str, Dataset, Vec<XmlEvent>)> = vec![
        ("mondial", Dataset::Mondial, mondial_events().to_vec()),
        ("wordnet", Dataset::Wordnet, wordnet_events().to_vec()),
        (
            "dmoz-structure",
            Dataset::DmozStructure,
            dmoz_structure(bench_dmoz_scale).collect(),
        ),
    ];
    for (name, dataset, events) in &workloads {
        let xml = spex_xml::writer::events_to_string(events);
        let mb = xml.len() as f64 / 1e6;
        // Pipeline-only allocation profile: parse the same bytes into owned
        // events, then into the arena, counting allocations around each.
        let before = alloc_count();
        let mut reader = spex_xml::Reader::new(xml.as_bytes());
        let mut n = 0usize;
        while let Some(ev) = reader.next_event().expect("well-formed") {
            n += 1;
            std::hint::black_box(&ev);
        }
        let owned_allocs = alloc_count() - before;
        let before = alloc_count();
        let mut reader = spex_xml::Reader::new(xml.as_bytes());
        let mut store = EventStore::new();
        while let Some(id) = reader.next_into(&mut store).expect("well-formed") {
            std::hint::black_box(id);
        }
        let zero_copy_allocs = alloc_count() - before;
        pipeline.push(PipelineRow {
            workload: name,
            events: n,
            owned_allocs,
            zero_copy_allocs,
        });
        for qc in queries_for(*dataset) {
            let q = qc.rpeq();
            // Owned baseline first, then zero-copy, each bracketed by the
            // allocation counter (compile happens inside but is identical
            // for both paths, so the *difference* is pipeline-only). Timing
            // is best-of-N so run-to-run noise stays inside the 10%
            // regression margin (N=5 for the guarded zero-copy path).
            let before = alloc_count();
            let mut ow = run_spex_owned(&q, xml.as_bytes());
            let ow_allocs = alloc_count() - before;
            let before = alloc_count();
            let mut zc = run_spex_zero_copy(&q, xml.as_bytes());
            let zc_allocs = alloc_count() - before;
            for i in 0..4 {
                if i < 2 {
                    let r = run_spex_owned(&q, xml.as_bytes());
                    if r.elapsed < ow.elapsed {
                        ow = r;
                    }
                }
                let r = run_spex_zero_copy(&q, xml.as_bytes());
                if r.elapsed < zc.elapsed {
                    zc = r;
                }
            }
            assert_eq!(zc.results, ow.results, "pipelines disagree on {name}");
            let stats = zc.stats.as_ref().expect("spex stats");
            let row = BenchRow {
                workload: name,
                class: qc.class,
                query: qc.text,
                events: events.len(),
                mb,
                results: zc.results,
                zc_secs: zc.elapsed.as_secs_f64(),
                zc_allocs,
                peak_arena_bytes: stats.peak_arena_bytes,
                interned_symbols: stats.interned_symbols,
                ow_secs: ow.elapsed.as_secs_f64(),
                ow_allocs,
            };
            println!(
                "{:>14} {:>5} {:<28} {:>9.2} {:>9.1} {:>8}B {:>8.2} {:>8.2} {:>5.1}x {:>11}",
                row.workload,
                row.class,
                row.query,
                row.events_per_s() / 1e6,
                row.mb_per_s(),
                row.peak_arena_bytes,
                row.zc_allocs_per_event(),
                row.ow_allocs_per_event(),
                row.ow_allocs_per_event() / row.zc_allocs_per_event().max(1e-9),
                row.results
            );
            rows.push(row);
        }
    }
    println!();
    println!("event pipeline alone (parse → representation, no network):");
    println!(
        "{:>14} {:>10} {:>14} {:>14} {:>8}",
        "workload", "events", "owned al/ev", "arena al/ev", "ratio"
    );
    for p in &pipeline {
        println!(
            "{:>14} {:>10} {:>14.3} {:>14.3} {:>7.0}x",
            p.workload,
            p.events,
            p.owned_per_event(),
            p.zero_copy_per_event(),
            p.owned_per_event() / p.zero_copy_per_event().max(1e-9)
        );
    }
    // Acceptance bar: on Mondial the arena pipeline must allocate at least
    // 2× less per event than owned `XmlEvent` construction.
    let mut failed = false;
    for p in pipeline.iter().filter(|p| p.workload == "mondial") {
        if p.owned_per_event() < 2.0 * p.zero_copy_per_event() {
            eprintln!(
                "ALLOC REGRESSION: mondial pipeline zero-copy {:.3} allocs/event vs owned {:.3} (< 2x)",
                p.zero_copy_per_event(),
                p.owned_per_event()
            );
            failed = true;
        }
    }
    // Per-workload aggregates: zero-copy and owned throughput (total bytes
    // over total best-of-N seconds across the classes), and their ratio.
    // The regression guard compares the *ratio* — both paths run
    // interleaved in the same process, so machine-wide contention cancels
    // out, while a real slowdown of the zero-copy pipeline does not.
    let mut summary: Vec<(&'static str, f64, f64)> = Vec::new();
    for (name, _, _) in &workloads {
        let cells: Vec<&BenchRow> = rows.iter().filter(|r| r.workload == *name).collect();
        let total_mb: f64 = cells.iter().map(|r| r.mb).sum();
        let zc_secs: f64 = cells.iter().map(|r| r.zc_secs).sum();
        let ow_secs: f64 = cells.iter().map(|r| r.ow_secs).sum();
        summary.push((
            name,
            total_mb / zc_secs.max(1e-9),
            total_mb / ow_secs.max(1e-9),
        ));
    }
    // In-run floor: the zero-copy pipeline must never be >10% slower than
    // the owned pipeline it replaced.
    for (name, zc_mbps, ow_mbps) in &summary {
        if *zc_mbps < ow_mbps * 0.9 {
            eprintln!(
                "THROUGHPUT REGRESSION: {} zero-copy {:.1} MB/s vs owned {:.1} MB/s in the same run (>10% slower)",
                name, zc_mbps, ow_mbps
            );
            failed = true;
        }
    }
    if json {
        let baseline = std::fs::read_to_string(&out_path).ok();
        if let Some(base) = &baseline {
            for (name, zc_mbps, ow_mbps) in &summary {
                let now = zc_mbps / ow_mbps.max(1e-9);
                if let Some(prev) = baseline_vs_owned(base, name) {
                    if now < prev * 0.9 {
                        eprintln!(
                            "THROUGHPUT REGRESSION: {} zero-copy/owned ratio {:.3} vs baseline {:.3} (>10% drop)",
                            name, now, prev
                        );
                        failed = true;
                    }
                }
            }
        }
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"spex-bench-3\",\n");
        out.push_str(&format!("  \"dmoz_scale\": {bench_dmoz_scale},\n"));
        out.push_str("  \"runs\": [\n");
        for (i, r) in rows.iter().enumerate() {
            let sep = if i + 1 == rows.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"workload\":\"{}\",\"class\":{},\"query\":{:?},\"events\":{},\"mb\":{:.3},\"results\":{},\"zero_copy\":{{\"secs\":{:.6},\"events_per_s\":{:.0},\"mb_per_s\":{:.3},\"allocs\":{},\"allocs_per_event\":{:.3},\"peak_arena_bytes\":{},\"interned_symbols\":{}}},\"owned\":{{\"secs\":{:.6},\"allocs\":{},\"allocs_per_event\":{:.3}}}}}{sep}\n",
                r.workload,
                r.class,
                r.query,
                r.events,
                r.mb,
                r.results,
                r.zc_secs,
                r.events_per_s(),
                r.mb_per_s(),
                r.zc_allocs,
                r.zc_allocs_per_event(),
                r.peak_arena_bytes,
                r.interned_symbols,
                r.ow_secs,
                r.ow_allocs,
                r.ow_allocs_per_event(),
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"summary\": [\n");
        for (i, (name, zc_mbps, ow_mbps)) in summary.iter().enumerate() {
            let sep = if i + 1 == summary.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"workload\":\"{name}\",\"mb_per_s\":{zc_mbps:.3},\"owned_mb_per_s\":{ow_mbps:.3},\"vs_owned\":{:.4}}}{sep}\n",
                zc_mbps / ow_mbps.max(1e-9)
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"pipeline\": [\n");
        for (i, p) in pipeline.iter().enumerate() {
            let sep = if i + 1 == pipeline.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"workload\":\"{}\",\"events\":{},\"owned_allocs\":{},\"owned_allocs_per_event\":{:.3},\"zero_copy_allocs\":{},\"zero_copy_allocs_per_event\":{:.3}}}{sep}\n",
                p.workload,
                p.events,
                p.owned_allocs,
                p.owned_per_event(),
                p.zero_copy_allocs,
                p.zero_copy_per_event(),
            ));
        }
        out.push_str("  ]\n}\n");
        std::fs::write(&out_path, out).expect("write BENCH_3.json");
        println!("wrote {out_path}");
    }

    if failed {
        std::process::exit(1);
    }
}

/// Extract a prior run's zero-copy/owned throughput ratio for a workload
/// from the `summary` section of a BENCH_3.json baseline. The file is
/// written one record per line, so a line scan suffices — no JSON parser
/// dependency.
fn baseline_vs_owned(json: &str, workload: &str) -> Option<f64> {
    let tag = format!("{{\"workload\":\"{workload}\",\"mb_per_s\":");
    let line = json.lines().find(|l| l.trim_start().starts_with(&tag))?;
    let at = line.find("\"vs_owned\":")?;
    let rest = &line[at + "\"vs_owned\":".len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// The `serve-bench` subcommand: N concurrent clients, each running M
/// sessions over a loopback spex-serve instance (one Mondial document per
/// session, rotating through the paper's query classes). Reports aggregate
/// engine throughput, p50/p99 session latency, and the reject rate of a
/// deliberately under-provisioned second server (1 worker, queue of 1)
/// under the same burst. With `--json`, writes `BENCH_4.json` (repo root by
/// default, `--out PATH` overrides).
fn serve_bench_cmd(args: &[String]) {
    use spex_serve::{Client, Server, ServerConfig};

    let json = args.iter().any(|a| a == "--json");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse::<usize>().ok())
    };
    let clients = flag("--clients").unwrap_or(4).max(1);
    let docs = flag("--docs").unwrap_or(6).max(1);
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| format!("{}/../../BENCH_4.json", env!("CARGO_MANIFEST_DIR")));
    header(&format!(
        "serve-bench — {clients} clients x {docs} documents over loopback spex-serve"
    ));
    let xml = std::sync::Arc::new(spex_xml::writer::events_to_string(mondial_events()));
    let mb = xml.len() as f64 / 1e6;
    let queries: Vec<(String, String)> = queries_for(Dataset::Mondial)
        .into_iter()
        .map(|qc| (format!("c{}", qc.class), qc.text.to_string()))
        .collect();

    // Main phase: a server provisioned to match the offered concurrency.
    let server = Server::bind(ServerConfig {
        workers: clients,
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    let start = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let xml = xml.clone();
            let queries = queries.clone();
            std::thread::spawn(move || {
                let mut latencies_ms = Vec::with_capacity(docs);
                for d in 0..docs {
                    let (name, expr) = &queries[(c + d) % queries.len()];
                    let t0 = Instant::now();
                    let mut client = Client::connect(addr).expect("connect");
                    // Class-3 queries match subtrees the size of the whole
                    // document; accept result frames that large.
                    client.set_max_frame(16 * 1024 * 1024);
                    let t = client
                        .run_session(&[(name.as_str(), expr.as_str())], xml.as_bytes())
                        .expect("session");
                    assert!(t.clean_end && !t.busy, "session did not complete");
                    assert!(t.errors.is_empty(), "session errors: {:?}", t.errors);
                    latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                }
                latencies_ms
            })
        })
        .collect();
    let mut latencies_ms: Vec<f64> = threads
        .into_iter()
        .flat_map(|t| t.join().expect("client thread"))
        .collect();
    let elapsed = start.elapsed().as_secs_f64();
    handle.shutdown();
    let report = join.join().expect("server thread").expect("server run");
    assert_eq!(report.sessions_failed, 0, "no session may fail");
    assert_eq!(report.documents, (clients * docs) as u64);
    latencies_ms.sort_by(f64::total_cmp);
    let pct = |p: f64| latencies_ms[((latencies_ms.len() - 1) as f64 * p).round() as usize];
    let (p50, p99) = (pct(0.50), pct(0.99));
    let events_per_s = report.engine.ticks as f64 / elapsed.max(1e-9);
    let mb_per_s = mb * (clients * docs) as f64 / elapsed.max(1e-9);
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "sessions", "Mev/s", "MB/s", "p50 ms", "p99 ms", "wall s"
    );
    println!(
        "{:>10} {:>10.2} {:>10.1} {:>10.1} {:>10.1} {:>10.2}",
        latencies_ms.len(),
        events_per_s / 1e6,
        mb_per_s,
        p50,
        p99,
        elapsed
    );

    // Admission phase: the burst that drove the blocking thread-per-session
    // server to 94% BUSY (1 worker, queue of 1 — BENCH_4 history). The
    // reactor admits by connection count, not worker count, so the same
    // burst must now be served in full: zero rejects, zero failures, even
    // on a single worker.
    let burst = (clients * 4).max(8);
    let server = Server::bind(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind admission-phase server");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    let threads: Vec<_> = (0..burst)
        .map(|i| {
            let xml = xml.clone();
            let (name, expr) = queries[i % queries.len()].clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect burst");
                client.set_max_frame(16 * 1024 * 1024);
                let t = client
                    .run_session(&[(name.as_str(), expr.as_str())], xml.as_bytes())
                    .expect("burst session");
                assert!(!t.busy, "burst connection was rejected with BUSY");
                assert!(t.clean_end, "burst session did not complete");
            })
        })
        .collect();
    for t in threads {
        t.join().expect("burst thread");
    }
    handle.shutdown();
    let reject_report = join.join().expect("server thread").expect("server run");
    let offered = reject_report.sessions_started + reject_report.sessions_rejected;
    assert_eq!(
        reject_report.sessions_rejected, 0,
        "the reactor must admit the full burst that the blocking server rejected"
    );
    assert_eq!(
        reject_report.sessions_failed, 0,
        "no burst session may fail"
    );
    let reject_rate = reject_report.sessions_rejected as f64 / (offered as f64).max(1.0);
    println!(
        "admission: {} offered, {} served, {} rejected on 1 worker \
         (the blocking design rejected 94% of this burst)",
        offered, reject_report.sessions_started, reject_report.sessions_rejected,
    );

    // Connection-scalability sweep (BENCH_8): tiers of mostly-idle
    // connections held open while a hot subset streams real sessions. The
    // tier list climbs to 10,000 where the process fd budget allows (both
    // ends of every loopback connection live in this process, so each
    // connection costs two descriptors).
    const BLOCKING_P50_MS: f64 = 329.0; // BENCH_4 p50 of the blocking server
    const HOT_CLIENTS: usize = 4;
    // The latency bar is defined at the acceptance operating point — an
    // optimized build on >=4 cores (CI) — where the hot set is not
    // artificially serialized by the host. Elsewhere the sweep still runs
    // and records, but the bar is advisory.
    let gate_latency = !cfg!(debug_assertions)
        && std::thread::available_parallelism()
            .map(|p| p.get() >= 4)
            .unwrap_or(false);
    let out8_path = args
        .iter()
        .position(|a| a == "--out8")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| format!("{}/../../BENCH_8.json", env!("CARGO_MANIFEST_DIR")));
    let fd_budget = spex_serve::soft_fd_limit().unwrap_or(1024) as usize;
    let idle_cap = fd_budget.saturating_sub(256) / 2;
    let tiers: Vec<usize> = [100usize, 1_000, 10_000]
        .into_iter()
        .filter(|t| *t <= idle_cap)
        .collect();
    if tiers.len() < 3 {
        println!(
            "note: fd soft limit {fd_budget} clamps the sweep to {} idle connection(s); \
             raise `ulimit -n` for the full 10,000-connection tier",
            idle_cap
        );
    }
    struct Tier {
        conns: usize,
        hot_sessions: usize,
        rejected: u64,
        elapsed_s: f64,
        p50: f64,
        p99: f64,
        min: f64,
        max: f64,
    }
    let hot_docs = docs.clamp(1, 3);
    let mut sweep: Vec<Tier> = Vec::new();
    println!(
        "{:>10} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "idle conns", "hot", "p50 ms", "p99 ms", "rejected", "wall s"
    );
    for &tier in &tiers {
        let server = Server::bind(ServerConfig {
            workers: 4,
            max_conns: tier + HOT_CLIENTS + 64,
            ..ServerConfig::default()
        })
        .expect("bind sweep server");
        let addr = server.local_addr();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        // Hold `tier` idle connections open for the whole measurement. A
        // dropped SYN under connect bursts (listener backlog) surfaces as a
        // transient error; retry briefly rather than fail the sweep.
        let mut idle: Vec<std::net::TcpStream> = Vec::with_capacity(tier);
        for _ in 0..tier {
            let mut tries = 0;
            let stream = loop {
                match std::net::TcpStream::connect(addr) {
                    Ok(s) => break s,
                    Err(e) if tries < 50 => {
                        tries += 1;
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        let _ = e;
                    }
                    Err(e) => panic!("sweep: connect idle conn: {e}"),
                }
            };
            idle.push(stream);
        }
        let t0 = Instant::now();
        let threads: Vec<_> = (0..HOT_CLIENTS)
            .map(|c| {
                let xml = xml.clone();
                let queries = queries.clone();
                std::thread::spawn(move || {
                    let mut latencies_ms = Vec::with_capacity(hot_docs);
                    for d in 0..hot_docs {
                        let (name, expr) = &queries[(c + d) % queries.len()];
                        let s0 = Instant::now();
                        let mut client = Client::connect(addr).expect("connect hot");
                        client.set_max_frame(16 * 1024 * 1024);
                        let t = client
                            .run_session(&[(name.as_str(), expr.as_str())], xml.as_bytes())
                            .expect("hot session");
                        assert!(t.clean_end && !t.busy, "hot session did not complete");
                        assert!(t.errors.is_empty(), "hot session errors: {:?}", t.errors);
                        latencies_ms.push(s0.elapsed().as_secs_f64() * 1e3);
                    }
                    latencies_ms
                })
            })
            .collect();
        let mut hot_ms: Vec<f64> = threads
            .into_iter()
            .flat_map(|t| t.join().expect("hot client thread"))
            .collect();
        let elapsed_s = t0.elapsed().as_secs_f64();
        // Shut down with every idle connection still open: the drain must
        // not wait on peers that never sent a byte.
        handle.shutdown();
        let report = join
            .join()
            .expect("sweep server thread")
            .expect("sweep server run");
        drop(idle);
        assert_eq!(
            report.sessions_rejected, 0,
            "sweep tier {tier}: the reactor rejected connections under its cap"
        );
        hot_ms.sort_by(f64::total_cmp);
        let pct = |p: f64| hot_ms[((hot_ms.len() - 1) as f64 * p).round() as usize];
        let (p50, p99) = (pct(0.50), pct(0.99));
        println!(
            "{:>10} {:>8} {:>10.1} {:>10.1} {:>10} {:>10.2}",
            tier,
            hot_ms.len(),
            p50,
            p99,
            report.sessions_rejected,
            elapsed_s
        );
        // The acceptance gate: hot-path p99 with thousands of idle
        // connections multiplexed must beat the blocking baseline's p50.
        if gate_latency {
            assert!(
                p99 < BLOCKING_P50_MS,
                "sweep tier {tier}: hot p99 {p99:.1} ms >= blocking baseline p50 {BLOCKING_P50_MS} ms"
            );
        } else if p99 >= BLOCKING_P50_MS {
            println!(
                "note: hot p99 {p99:.1} ms over the {BLOCKING_P50_MS} ms bar; \
                 gate advisory here (debug build or <4 cores)"
            );
        }
        sweep.push(Tier {
            conns: tier,
            hot_sessions: hot_ms.len(),
            rejected: report.sessions_rejected,
            elapsed_s,
            p50,
            p99,
            min: hot_ms.first().copied().unwrap_or(0.0),
            max: hot_ms.last().copied().unwrap_or(0.0),
        });
    }
    if json {
        let tiers_json: Vec<String> = sweep
            .iter()
            .map(|t| {
                format!(
                    "    {{\"conns\": {}, \"hot_sessions\": {}, \"rejected\": {}, \"elapsed_s\": {:.3}, \
                     \"latency_ms\": {{\"p50\": {:.2}, \"p99\": {:.2}, \"min\": {:.2}, \"max\": {:.2}}}}}",
                    t.conns, t.hot_sessions, t.rejected, t.elapsed_s, t.p50, t.p99, t.min, t.max
                )
            })
            .collect();
        let out = format!(
            "{{\n  \"schema\": \"spex-serve-bench-8\",\n  \"workers\": 4,\n  \
             \"hot_clients\": {HOT_CLIENTS},\n  \"docs_per_hot_client\": {hot_docs},\n  \
             \"workload\": \"mondial\",\n  \"document_mb\": {mb:.3},\n  \
             \"fd_soft_limit\": {fd_budget},\n  \
             \"blocking_baseline_p50_ms\": {BLOCKING_P50_MS},\n  \
             \"latency_gate_enforced\": {gate_latency},\n  \"tiers\": [\n{}\n  ]\n}}\n",
            tiers_json.join(",\n"),
        );
        std::fs::write(&out8_path, out).expect("write BENCH_8.json");
        println!("wrote {out8_path}");
    }

    if json {
        let out = format!(
            "{{\n  \"schema\": \"spex-serve-bench-4\",\n  \"clients\": {clients},\n  \"docs_per_client\": {docs},\n  \"workers\": {clients},\n  \"workload\": \"mondial\",\n  \"document_mb\": {mb:.3},\n  \"sessions\": {},\n  \"documents\": {},\n  \"elapsed_s\": {elapsed:.3},\n  \"events_per_s\": {events_per_s:.0},\n  \"mb_per_s\": {mb_per_s:.3},\n  \"latency_ms\": {{\"p50\": {p50:.2}, \"p99\": {p99:.2}, \"min\": {:.2}, \"max\": {:.2}}},\n  \"reject\": {{\"workers\": 1, \"queue\": 1, \"offered\": {offered}, \"rejected\": {}, \"rate\": {reject_rate:.4}}}\n}}\n",
            latencies_ms.len(),
            report.documents,
            latencies_ms.first().copied().unwrap_or(0.0),
            latencies_ms.last().copied().unwrap_or(0.0),
            reject_report.sessions_rejected,
        );
        std::fs::write(&out_path, out).expect("write BENCH_4.json");
        println!("wrote {out_path}");
    }
}

/// The `trace-bench` subcommand: tracing overhead of the full zero-copy
/// pipeline. Each (workload, query) cell is evaluated with the tracer
/// disabled and with a live JSONL tracer (the `--trace-jsonl`
/// configuration), interleaved best-of-N in one process so machine-wide
/// noise cancels out of the comparison. The acceptance bar from DESIGN.md
/// §13 — trace-on within 5% of trace-off overall — is enforced on every
/// run; with `--json` the measurements are also written to `BENCH_5.json`
/// (repo root by default, `--out PATH` overrides).
fn trace_bench_cmd(args: &[String]) {
    use spex_bench::run_spex_traced;
    use spex_trace::{JsonlSink, Tracer};

    let json = args.iter().any(|a| a == "--json");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| format!("{}/../../BENCH_5.json", env!("CARGO_MANIFEST_DIR")));
    header("trace-bench — spex-trace overhead (tracer off vs JSONL tracer on)");
    let jsonl_path = std::env::temp_dir().join("spex-trace-bench.jsonl");
    let sink = std::sync::Arc::new(JsonlSink::create(&jsonl_path).expect("create trace file"));
    let on = Tracer::to_sink(sink.clone());
    let off = Tracer::disabled();

    struct Cell {
        workload: &'static str,
        class: u8,
        query: &'static str,
        events: usize,
        off_secs: f64,
        on_secs: f64,
    }
    let bench_dmoz_scale = 0.01;
    let workloads: Vec<(&'static str, Dataset, Vec<XmlEvent>)> = vec![
        ("mondial", Dataset::Mondial, mondial_events().to_vec()),
        (
            "dmoz-structure",
            Dataset::DmozStructure,
            dmoz_structure(bench_dmoz_scale).collect(),
        ),
    ];
    println!(
        "{:>14} {:>5} {:<28} {:>10} {:>10} {:>9}",
        "workload", "class", "query", "off", "on", "overhead"
    );
    let mut cells: Vec<Cell> = Vec::new();
    for (name, dataset, events) in &workloads {
        let xml = spex_xml::writer::events_to_string(events);
        for qc in queries_for(*dataset) {
            let q = qc.rpeq();
            // Interleaved best-of-5: off, on, off, on, … so a load spike
            // hits both arms equally and the minimum stays comparable.
            let mut off_secs = f64::INFINITY;
            let mut on_secs = f64::INFINITY;
            for _ in 0..5 {
                let a = run_spex_traced(&q, xml.as_bytes(), &off);
                let b = run_spex_traced(&q, xml.as_bytes(), &on);
                assert_eq!(a.results, b.results, "tracing changed results on {name}");
                off_secs = off_secs.min(a.elapsed.as_secs_f64());
                on_secs = on_secs.min(b.elapsed.as_secs_f64());
            }
            println!(
                "{:>14} {:>5} {:<28} {:>9.1}ms {:>9.1}ms {:>+8.2}%",
                name,
                qc.class,
                qc.text,
                off_secs * 1e3,
                on_secs * 1e3,
                (on_secs / off_secs.max(1e-9) - 1.0) * 100.0
            );
            cells.push(Cell {
                workload: name,
                class: qc.class,
                query: qc.text,
                events: events.len(),
                off_secs,
                on_secs,
            });
        }
    }
    on.flush();
    assert!(!sink.had_error(), "trace sink reported a write error");
    let trace_records = std::fs::read_to_string(&jsonl_path)
        .map(|s| s.lines().count())
        .unwrap_or(0);
    let off_total: f64 = cells.iter().map(|c| c.off_secs).sum();
    let on_total: f64 = cells.iter().map(|c| c.on_secs).sum();
    let overhead_pct = (on_total / off_total.max(1e-9) - 1.0) * 100.0;
    let gate_pct = 5.0;
    let pass = overhead_pct <= gate_pct;
    println!(
        "total: off {:.1}ms, on {:.1}ms, overhead {:+.2}% (gate {}%); {} trace record(s) written",
        off_total * 1e3,
        on_total * 1e3,
        overhead_pct,
        gate_pct,
        trace_records
    );
    if json {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"spex-trace-bench-5\",\n");
        out.push_str(&format!("  \"dmoz_scale\": {bench_dmoz_scale},\n"));
        out.push_str("  \"runs\": [\n");
        for (i, c) in cells.iter().enumerate() {
            let sep = if i + 1 == cells.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"workload\":\"{}\",\"class\":{},\"query\":{:?},\"events\":{},\"off_secs\":{:.6},\"on_secs\":{:.6},\"overhead_pct\":{:.3}}}{sep}\n",
                c.workload,
                c.class,
                c.query,
                c.events,
                c.off_secs,
                c.on_secs,
                (c.on_secs / c.off_secs.max(1e-9) - 1.0) * 100.0,
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"summary\": {{\"off_secs\":{off_total:.6},\"on_secs\":{on_total:.6},\"overhead_pct\":{overhead_pct:.3},\"gate_pct\":{gate_pct},\"pass\":{pass},\"trace_records\":{trace_records}}}\n"
        ));
        out.push_str("}\n");
        std::fs::write(&out_path, out).expect("write BENCH_5.json");
        println!("wrote {out_path}");
    }
    if !pass {
        eprintln!(
            "TRACE OVERHEAD REGRESSION: trace-on {overhead_pct:+.2}% vs trace-off (gate {gate_pct}%)"
        );
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
/// the idle peers. This is the process-level version of the acceptance bar
/// the in-process sweep measures — same reactor, real signals, real fds.
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

/// Drive `xml` to its final document boundary, then time `checkpoint()` +
/// encode and decode + `restore()` into a fresh run (best-of-7 each).
/// Returns (events, snapshot bytes, checkpoint µs, restore µs).
fn measure_snapshot(query: &Rpeq, xml: &str) -> (u64, usize, f64, f64) {
    let network = CompiledNetwork::compile(query);
    let options = spex_core::RecoveryOptions {
        multi_document: true,
        ..Default::default()
    };
    let mut pump = spex_core::Pump::new(network.run(spex_core::CountingSink::new()), options);
    pump.run_from(&mut xml.as_bytes()).expect("clean stream");
    let events = pump.parser().events_emitted();
    let mut checkpoint_us = f64::INFINITY;
    let mut bytes = Vec::new();
    for _ in 0..7 {
        let t = Instant::now();
        let snap = pump.checkpoint().expect("quiescent at document boundary");
        let enc = snap.encode();
        checkpoint_us = checkpoint_us.min(t.elapsed().as_secs_f64() * 1e6);
        bytes = enc;
    }
    let mut restore_us = f64::INFINITY;
    for _ in 0..7 {
        let t = Instant::now();
        let snap = spex_core::Snapshot::decode(&bytes).expect("decode own snapshot");
        let mut fresh = spex_core::Pump::new(network.run(spex_core::CountingSink::new()), options);
        fresh.restore(&snap).expect("restore own snapshot");
        restore_us = restore_us.min(t.elapsed().as_secs_f64() * 1e6);
    }
    (events, bytes.len(), checkpoint_us, restore_us)
}

fn crash_bench_cmd(args: &[String]) {
    use spex_serve::{Client, FsyncPolicy, Server, ServerConfig, SessionLog};

    let json = args.iter().any(|a| a == "--json");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| format!("{}/../../BENCH_7.json", env!("CARGO_MANIFEST_DIR")));
    header("crash-bench — durable sessions: snapshot size/latency and WAL overhead");

    // Snapshot size and checkpoint/restore latency across the paper's query
    // classes.
    struct SnapCell {
        workload: &'static str,
        class: u8,
        query: String,
        events: u64,
        snapshot_bytes: usize,
        checkpoint_us: f64,
        restore_us: f64,
    }
    let mondial_xml = spex_xml::writer::events_to_string(mondial_events());
    let mut snaps: Vec<SnapCell> = Vec::new();
    println!(
        "{:>8} {:>5} {:<28} {:>10} {:>12} {:>11}",
        "workload", "class", "query", "snapshot", "checkpoint", "restore"
    );
    for qc in queries_for(Dataset::Mondial) {
        let q = qc.rpeq();
        let (events, snapshot_bytes, checkpoint_us, restore_us) =
            measure_snapshot(&q, &mondial_xml);
        println!(
            "{:>8} {:>5} {:<28} {:>9}B {:>10.1}us {:>9.1}us",
            "mondial", qc.class, qc.text, snapshot_bytes, checkpoint_us, restore_us
        );
        snaps.push(SnapCell {
            workload: "mondial",
            class: qc.class,
            query: qc.text.to_string(),
            events,
            snapshot_bytes,
            checkpoint_us,
            restore_us,
        });
    }

    // Snapshot size vs document depth: the state captured at a quiescent
    // boundary is O(query), not O(document) — depth should not move it.
    struct DepthCell {
        depth: usize,
        events: u64,
        snapshot_bytes: usize,
        checkpoint_us: f64,
        restore_us: f64,
    }
    let depth_query: Rpeq = "_*.a[b].c".parse().expect("depth-sweep query");
    let mut depths: Vec<DepthCell> = Vec::new();
    println!(
        "{:>8} {:>8} {:>10} {:>12} {:>11}",
        "depth", "events", "snapshot", "checkpoint", "restore"
    );
    for depth in [4usize, 16, 64, 256] {
        let mut xml = String::new();
        for _ in 0..depth {
            xml.push_str("<a><b></b>");
        }
        xml.push_str("<c>leaf</c>");
        for _ in 0..depth {
            xml.push_str("</a>");
        }
        let (events, snapshot_bytes, checkpoint_us, restore_us) =
            measure_snapshot(&depth_query, &xml);
        println!(
            "{:>8} {:>8} {:>9}B {:>10.1}us {:>9.1}us",
            depth, events, snapshot_bytes, checkpoint_us, restore_us
        );
        depths.push(DepthCell {
            depth,
            events,
            snapshot_bytes,
            checkpoint_us,
            restore_us,
        });
    }

    // WAL overhead end-to-end: the same single-query session streamed over
    // loopback against a vanilla server and against one with a durable
    // directory (fsync=never, so the gate prices the append path —
    // checksums, copies, segment and snapshot writes — not disk-sync
    // latency, which is what the fsync policy knob trades away). The first
    // iteration per cell is an uncounted warm-up; the rest are interleaved
    // best-of, since noise only ever inflates a run.
    struct WalCell {
        class: u8,
        query: String,
        off_secs: f64,
        on_secs: f64,
    }
    let wal_root = std::env::temp_dir().join(format!("spex-crash-bench-{}", std::process::id()));
    std::fs::create_dir_all(&wal_root).expect("create WAL scratch dir");
    let off_server = Server::bind(ServerConfig::default()).expect("bind server");
    let off_addr = off_server.local_addr();
    let off_handle = off_server.handle();
    let off_join = std::thread::spawn(move || off_server.run());
    let on_server = Server::bind(ServerConfig {
        durable_dir: Some(wal_root.to_string_lossy().into_owned()),
        fsync: FsyncPolicy::Never,
        ..ServerConfig::default()
    })
    .expect("bind durable server");
    let on_addr = on_server.local_addr();
    let on_handle = on_server.handle();
    let on_join = std::thread::spawn(move || on_server.run());

    let mut wal_cells: Vec<WalCell> = Vec::new();
    println!(
        "{:>5} {:<28} {:>10} {:>10} {:>9}",
        "class", "query", "wal off", "wal on", "overhead"
    );
    for qc in queries_for(Dataset::Mondial) {
        let mut off_secs = f64::INFINITY;
        let mut on_secs = f64::INFINITY;
        for iteration in 0..9 {
            for (addr, secs) in [(off_addr, &mut off_secs), (on_addr, &mut on_secs)] {
                let t0 = Instant::now();
                let mut client = Client::connect(addr).expect("connect");
                // Class-3 queries match subtrees the size of the document.
                client.set_max_frame(16 * 1024 * 1024);
                let t = client
                    .run_session(&[("q", qc.text)], mondial_xml.as_bytes())
                    .expect("session");
                assert!(t.clean_end && !t.busy, "session did not complete");
                assert!(t.errors.is_empty(), "session errors: {:?}", t.errors);
                if iteration > 0 {
                    *secs = secs.min(t0.elapsed().as_secs_f64());
                }
            }
        }
        println!(
            "{:>5} {:<28} {:>9.1}ms {:>9.1}ms {:>+8.2}%",
            qc.class,
            qc.text,
            off_secs * 1e3,
            on_secs * 1e3,
            (on_secs / off_secs.max(1e-9) - 1.0) * 100.0
        );
        wal_cells.push(WalCell {
            class: qc.class,
            query: qc.text.to_string(),
            off_secs,
            on_secs,
        });
    }
    off_handle.shutdown();
    on_handle.shutdown();
    off_join.join().expect("server thread").expect("server run");
    on_join.join().expect("server thread").expect("server run");

    // Raw WAL bytes for one session at the client's 64 KiB frame size, for
    // the report only.
    let mut log = SessionLog::create(
        &wal_root,
        "bytes-probe",
        &[("q".to_string(), "probe".to_string())],
        FsyncPolicy::Never,
    )
    .expect("probe log");
    for chunk in mondial_xml.as_bytes().chunks(64 * 1024) {
        log.append_data(chunk).expect("probe append");
    }
    log.append_end().expect("probe end");
    let wal_bytes = log.wal_bytes_written();
    drop(log);
    let _ = std::fs::remove_dir_all(&wal_root);
    let off_total: f64 = wal_cells.iter().map(|c| c.off_secs).sum();
    let on_total: f64 = wal_cells.iter().map(|c| c.on_secs).sum();
    let overhead_pct = (on_total / off_total.max(1e-9) - 1.0) * 100.0;
    let gate_pct = 5.0;
    let pass = overhead_pct <= gate_pct;
    println!(
        "total: wal-off {:.1}ms, wal-on {:.1}ms, overhead {:+.2}% (gate {}%); {} WAL byte(s) per run",
        off_total * 1e3,
        on_total * 1e3,
        overhead_pct,
        gate_pct,
        wal_bytes
    );

    if json {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"spex-crash-bench-7\",\n");
        out.push_str("  \"snapshots\": [\n");
        for (i, c) in snaps.iter().enumerate() {
            let sep = if i + 1 == snaps.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"workload\":\"{}\",\"class\":{},\"query\":{:?},\"events\":{},\"snapshot_bytes\":{},\"checkpoint_us\":{:.3},\"restore_us\":{:.3}}}{sep}\n",
                c.workload,
                c.class,
                c.query,
                c.events,
                c.snapshot_bytes,
                c.checkpoint_us,
                c.restore_us,
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"depth_sweep\": [\n");
        for (i, c) in depths.iter().enumerate() {
            let sep = if i + 1 == depths.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"depth\":{},\"events\":{},\"snapshot_bytes\":{},\"checkpoint_us\":{:.3},\"restore_us\":{:.3}}}{sep}\n",
                c.depth, c.events, c.snapshot_bytes, c.checkpoint_us, c.restore_us,
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"wal\": {\n");
        out.push_str("    \"runs\": [\n");
        for (i, c) in wal_cells.iter().enumerate() {
            let sep = if i + 1 == wal_cells.len() { "" } else { "," };
            out.push_str(&format!(
                "      {{\"class\":{},\"query\":{:?},\"off_secs\":{:.6},\"on_secs\":{:.6},\"overhead_pct\":{:.3}}}{sep}\n",
                c.class,
                c.query,
                c.off_secs,
                c.on_secs,
                (c.on_secs / c.off_secs.max(1e-9) - 1.0) * 100.0,
            ));
        }
        out.push_str("    ],\n");
        out.push_str(&format!(
            "    \"summary\": {{\"off_secs\":{off_total:.6},\"on_secs\":{on_total:.6},\"overhead_pct\":{overhead_pct:.3},\"gate_pct\":{gate_pct},\"pass\":{pass},\"wal_bytes\":{wal_bytes}}}\n"
        ));
        out.push_str("  }\n");
        out.push_str("}\n");
        std::fs::write(&out_path, out).expect("write BENCH_7.json");
        println!("wrote {out_path}");
    }
    if !pass {
        eprintln!(
            "WAL OVERHEAD REGRESSION: wal-on {overhead_pct:+.2}% vs wal-off (gate {gate_pct}%)"
        );
        std::process::exit(1);
    }
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

/// One `filter-bench` measurement row.
struct FilterRow {
    profile: &'static str,
    queries: usize,
    distinct: usize,
    degree: usize,
    unshared_degree: usize,
    combined_ns: f64,
    independent_ns: Option<f64>,
    independent_estimated: bool,
    filter_ns: Option<f64>,
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
/// fails the run, as does the sublinearity gate: shared-prefix per-event
/// cost at the largest n must stay within 20x the 10-query cost. With
/// `--json`, writes `BENCH_9.json` (`--out PATH` overrides); `--max N`
/// truncates the sweep (CI runs `--max 1000`).
fn filter_bench_cmd(args: &[String]) {
    let json = args.iter().any(|a| a == "--json");
    let max = args
        .iter()
        .position(|a| a == "--max")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(10_000);
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| format!("{}/../../BENCH_9.json", env!("CARGO_MANIFEST_DIR")));

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

    let mut rows: Vec<FilterRow> = Vec::new();
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

            let row = FilterRow {
                profile,
                queries: n,
                distinct: report.distinct,
                degree: report.degree,
                unshared_degree: report.unshared_degree,
                combined_ns: per_event(combined_secs),
                independent_ns: Some(per_event(indep_secs_scaled)),
                independent_estimated: estimated,
                filter_ns: filter_secs.map(per_event),
            };
            println!(
                "{:>17} {:>7} {:>9} {:>7} {:>9} {:>11.0} {:>9.0}{} {:>13}",
                row.profile,
                row.queries,
                row.distinct,
                row.degree,
                row.unshared_degree,
                row.combined_ns,
                row.independent_ns.unwrap(),
                if estimated { " est." } else { "     " },
                row.filter_ns
                    .map(|v| format!("{v:.0}"))
                    .unwrap_or_else(|| "n/a".to_string()),
            );
            rows.push(row);
        }
    }
    println!(
        "(filter column is boolean match/no-match per document — the NFA baseline cannot \
         answer qualifier queries or extract fragments, the shared plan does both)"
    );

    // Sublinearity gate: growing the shared-prefix tenant set from 10 to
    // the sweep maximum must not grow per-event cost by more than 20x —
    // canonical dedup bounds live topology by the distinct-query pool, so
    // cost saturates where per-query compilation keeps growing linearly.
    let prefix_rows: Vec<&FilterRow> = rows
        .iter()
        .filter(|r| r.profile == "shared-prefix")
        .collect();
    let base = prefix_rows.first().expect("shared-prefix rows exist");
    let top = prefix_rows.last().expect("shared-prefix rows exist");
    let ratio = top.combined_ns / base.combined_ns;
    const GATE: f64 = 20.0;
    let gate_pass = ratio <= GATE;
    println!(
        "sublinearity: shared-prefix per-event {:.0} ns @ {} queries vs {:.0} ns @ {} queries — {:.2}x (gate {GATE}x): {}",
        top.combined_ns,
        top.queries,
        base.combined_ns,
        base.queries,
        ratio,
        if gate_pass { "PASS" } else { "FAIL" },
    );

    if json {
        let mut out = String::from("{\n  \"bench\": \"filter\",\n  \"rows\": [\n");
        for (i, r) in rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"profile\": \"{}\", \"queries\": {}, \"distinct\": {}, \"degree\": {}, \
                 \"unshared_degree\": {}, \"combined_ns_per_event\": {:.1}, \
                 \"independent_ns_per_event\": {}, \"independent_estimated\": {}, \
                 \"filter_ns_per_event\": {}}}{}\n",
                r.profile,
                r.queries,
                r.distinct,
                r.degree,
                r.unshared_degree,
                r.combined_ns,
                r.independent_ns
                    .map(|v| format!("{v:.1}"))
                    .unwrap_or_else(|| "null".to_string()),
                r.independent_estimated,
                r.filter_ns
                    .map(|v| format!("{v:.1}"))
                    .unwrap_or_else(|| "null".to_string()),
                if i + 1 == rows.len() { "" } else { "," },
            ));
        }
        out.push_str(&format!(
            "  ],\n  \"summary\": {{\"shared_prefix_ratio\": {ratio:.3}, \
             \"gate_max_ratio\": {GATE:.1}, \"mismatches\": {mismatches}, \"pass\": {}}}\n}}\n",
            gate_pass && mismatches == 0,
        ));
        std::fs::write(&out_path, out).expect("write BENCH_9.json");
        println!("wrote {out_path}");
    }
    if mismatches > 0 {
        eprintln!("filter-bench: {mismatches} combined-vs-independent count mismatch(es)");
        std::process::exit(1);
    }
    if !gate_pass {
        eprintln!("filter-bench: sublinearity gate failed ({ratio:.2}x > {GATE}x)");
        std::process::exit(1);
    }
}
