//! The traced pass: per-layer metrics of one workload, taken from outside.
//!
//! Layers are this repo's modules. A layer that can be called on its own is
//! timed directly (`query`, `core::compile`, `combine`, `serve::protocol`);
//! the streaming layers cannot, so the same bytes go through cumulative
//! passes — reader only, + VM, + sink, + CLI — and a layer's self time is
//! its pass minus the previous one. Every call is a span
//! (`name, start_ns, end_ns, parent, op_id`), kept in memory and written as
//! JSONL under `benchmark/out/` when the run ends. Allocations are counted
//! by a counting global allocator that only this binary links: the `e2e`
//! binary is tracing-free by construction, and `trace.overhead_frac` is the
//! difference between its operations and the same operations run from here.

use spex_benchmark::gen::{self, StreamDoc};
use spex_benchmark::oneshot::{discarded_op, file_op, Launch};
use spex_benchmark::report::{
    check_values, json_number, print_metric, result_line, Reported, PER_LAYER, RUN_SECONDS,
};
use spex_benchmark::stats::median;
use spex_benchmark::sys::{Scratch, SplitCpus};
use spex_benchmark::wire;
use spex_benchmark::workload::{
    self, diagnostics, Env, Outcome, Plan, Workload, FEED_BATCH, FEED_POOL, STREAM_FRAME,
};
use spex_core::{
    CompiledNetwork, CountingSink, Engine, EngineStats, Evaluator, FragmentFnSink, ResultSink,
    StreamingSink,
};
use spex_query::Rpeq;
use spex_serve::{result_payload, write_frame, FrameDecoder, FrameKind, DEFAULT_MAX_FRAME};
use spex_xml::{EventStore, Reader, StoredKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Counts allocations (fresh and grown) while [`COUNTING`] is set; the timed
/// repetitions run with it clear, so counting costs them one relaxed load.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made by `work`.
fn count_allocations<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = work();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op_id: u64,
}

/// Spans of this run, in memory until [`Spans::write`].
struct Spans {
    origin: Instant,
    rows: Vec<Span>,
}

impl Spans {
    fn record(
        &mut self,
        name: &'static str,
        op_id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.rows.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            op_id,
        });
        self.rows.len() - 1
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.rows.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op_id
            )?;
        }
        out.flush()
    }
}

/// What the in-process passes evaluate: one query over one document, or the
/// standing query set over one batch of feed documents.
enum Job {
    Single {
        network: CompiledNetwork,
        xml: Vec<u8>,
    },
    Multi {
        set: spex_core::multi::SharedQuerySet,
        xml: Vec<u8>,
    },
}

impl Job {
    fn xml(&self) -> &[u8] {
        match self {
            Job::Single { xml, .. } | Job::Multi { xml, .. } => xml,
        }
    }
}

/// Pass 1 — `xml.reader` with `xml.store` and `xml.symbol`: tokenize into
/// the arena, recycling it after every event as an idle engine does (with
/// no candidate buffered the run resets its store each tick; keeping the
/// whole document would time an arena no evaluation ever builds).
fn read_only(job: &Job) -> (u64, usize) {
    let mut reader = Reader::new(job.xml());
    if matches!(job, Job::Multi { .. }) {
        reader = reader.multi_document();
    }
    let mut store = EventStore::new();
    let mut events = 0u64;
    while let Some(id) = reader
        .next_into(&mut store)
        .expect("generated XML is well-formed")
    {
        std::hint::black_box(id);
        events += 1;
        store.reset();
    }
    (events, store.symbols().len())
}

/// What an evaluation pass reports besides its time.
struct Evaluated {
    stats: EngineStats,
    /// Determination latency in events: (p50, p99) over all output nodes.
    determination: (u64, u64),
}

/// (p50, p99) of the per-output-node histograms merged into one.
fn merged_determination(histograms: Vec<(usize, spex_trace::Histogram)>) -> (u64, u64) {
    let mut all = spex_trace::Histogram::new();
    for (_, histogram) in &histograms {
        all.merge(histogram);
    }
    (all.quantile(0.5), all.quantile(0.99))
}

/// Passes 2 and 3 — the same bytes through reader and VM into `sinks` (one
/// per logical query): counting sinks for `core.vm`, serializing sinks for
/// `core.sink` + `xml.writer`.
fn evaluate(job: &Job, mut sinks: Vec<&mut dyn ResultSink>) -> Evaluated {
    match job {
        Job::Single { network, xml } => {
            let sink = sinks.pop().expect("one sink for one query");
            let mut eval = Evaluator::new(network, sink);
            let mut reader = Reader::new(xml.as_slice());
            eval.push_from(&mut reader)
                .expect("generated XML evaluates");
            let determination = merged_determination(eval.determination_latency());
            Evaluated {
                stats: eval.finish_full().0,
                determination,
            }
        }
        Job::Multi { set, xml } => {
            // As the server and `spex --stream --query` drive it: reset the
            // session at every document boundary.
            let mut run = set.run_engine(Engine::Vm, sinks);
            let mut reader = Reader::new(xml.as_slice()).multi_document();
            while let Some(id) = reader
                .next_into(run.store_mut())
                .expect("generated XML is well-formed")
            {
                let end_of_document = run.store().stored(id).kind == StoredKind::EndDocument;
                run.try_push_id(id).expect("no limit is set");
                if end_of_document {
                    run.reset_session();
                }
            }
            let determination = merged_determination(run.determination_latency());
            Evaluated {
                stats: run.finish_full().0,
                determination,
            }
        }
    }
}

fn sink_count(job: &Job) -> usize {
    match job {
        Job::Single { .. } => 1,
        Job::Multi { set, .. } => set.ids().len(),
    }
}

fn evaluate_counting(job: &Job) -> Evaluated {
    let mut counters: Vec<CountingSink> =
        (0..sink_count(job)).map(|_| CountingSink::new()).collect();
    evaluate(
        job,
        counters
            .iter_mut()
            .map(|c| c as &mut dyn ResultSink)
            .collect(),
    )
}

/// Pass 3 with the sink its workload uses: `StreamingSink` for the CLI,
/// `FragmentFnSink` for the server. Returns a number that depends on every
/// delivery, so none of them can be optimized away.
fn evaluate_serializing(job: &Job, oneshot: bool) -> u64 {
    if oneshot {
        // Into `io::sink()`: the pass times serialization, not I/O.
        let mut sink = StreamingSink::new(std::io::sink());
        evaluate(job, vec![&mut sink]);
        return sink.results as u64;
    }
    let bytes = Cell::new(0u64);
    let mut sinks: Vec<_> = (0..sink_count(job))
        .map(|_| {
            FragmentFnSink::new(|fragment: &[u8]| bytes.set(bytes.get() + fragment.len() as u64))
        })
        .collect();
    evaluate(
        job,
        sinks.iter_mut().map(|s| s as &mut dyn ResultSink).collect(),
    );
    bytes.get()
}

/// The fragments one operation delivers, with the name of their query, for
/// the `serve.protocol` encode span.
fn collect_fragments(job: &Job) -> Vec<(String, Vec<u8>)> {
    let names: Vec<String> = match job {
        Job::Single { .. } => vec!["q".to_string()],
        Job::Multi { set, .. } => set.ids().to_vec(),
    };
    let collected = RefCell::new(Vec::new());
    let mut sinks: Vec<_> = names
        .iter()
        .map(|name| {
            let collected = &collected;
            FragmentFnSink::new(move |fragment: &[u8]| {
                let mut with_newline = fragment.to_vec();
                with_newline.push(b'\n');
                collected.borrow_mut().push((name.clone(), with_newline));
            })
        })
        .collect();
    evaluate(
        job,
        sinks.iter_mut().map(|s| s as &mut dyn ResultSink).collect(),
    );
    drop(sinks);
    collected.into_inner()
}

/// Pass 4 — `cli`: `spex_cli::run` on the input file, stdout into memory.
fn run_cli(options: &spex_cli::Options, stdout: &mut dyn Write) {
    let code = spex_cli::run(options, &mut std::io::empty(), stdout, &mut std::io::sink());
    assert_eq!(code, 0, "in-process spex_cli::run failed");
}

/// Cumulative pass times of every repetition, ms.
#[derive(Default)]
struct Passes {
    reader: Vec<f64>,
    vm: Vec<f64>,
    sink: Vec<f64>,
    cli: Vec<f64>,
    /// One-shot only: the real process next to the passes, stdout piped
    /// and verified, then stdout discarded.
    piped: Vec<f64>,
    discarded: Vec<f64>,
}

fn ms(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64() * 1e3
}

/// Median over repetitions of `later - earlier`.
fn self_ms(later: &[f64], earlier: &[f64]) -> f64 {
    let diffs: Vec<f64> = later.iter().zip(earlier).map(|(l, e)| l - e).collect();
    median(&diffs).unwrap_or(0.0)
}

/// Median time of `work`, in the unit `scale` converts seconds to.
fn timed_median<T>(reps: usize, scale: f64, mut work: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(work());
            start.elapsed().as_secs_f64() * scale
        })
        .collect();
    median(&times).unwrap_or(0.0)
}

struct Args {
    spex: PathBuf,
    e2e: PathBuf,
    out_dir: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut spex, mut e2e, mut out_dir) = (None, None, PathBuf::from("benchmark/out"));
    let (mut workload, mut seed, mut seconds, mut quick) = (None, 1, f64::from(RUN_SECONDS), false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--spex" => spex = Some(PathBuf::from(value()?)),
            "--e2e" => e2e = Some(PathBuf::from(value()?)),
            "--out" => out_dir = PathBuf::from(value()?),
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                value()?;
            }
            "--quick" => quick = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(Args {
        spex: spex.ok_or("--spex PATH is required (benchmark/run.sh passes it)")?,
        e2e: e2e.ok_or("--e2e PATH is required (benchmark/run.sh passes it)")?,
        out_dir,
        workload: workload.ok_or("--workload NAME is required")?,
        seed,
        seconds,
        quick,
    })
}

/// Share of `--seconds` each of the two client-side runs (untraced by the
/// `e2e` binary, traced from here) measures for; the in-process passes take
/// a fixed number of repetitions on top.
const CLIENT_RUN_SHARE: f64 = 0.4;

/// The `e2e` binary's `op_p50_ms` for this workload: the untraced figure.
fn untraced_op_p50(args: &Args, clients: usize) -> Result<f64, String> {
    let mut command = Command::new(&args.e2e);
    command
        .arg("--spex")
        .arg(&args.spex)
        .arg("--out")
        .arg(&args.out_dir)
        .args(["--workload", args.workload.name(), "--trace", "0"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &(args.seconds * CLIENT_RUN_SHARE).to_string()])
        .args(["--clients", &clients.to_string()]);
    if args.quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("running {}: {e}", args.e2e.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !output.status.success() {
        return Err(format!("the untraced e2e run failed: {last}"));
    }
    json_number(last, &["op_p50_ms", "value"]).ok_or(format!("no op_p50_ms in `{last}`"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark trace: {e}");
            return ExitCode::from(2);
        }
    };
    match trace(&args) {
        Ok(correct) if correct => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark trace: {e}");
            ExitCode::FAILURE
        }
    }
}

fn trace(args: &Args) -> Result<bool, String> {
    let workload = args.workload;
    let io = |e: std::io::Error| e.to_string();
    let scratch = Scratch::create(&args.out_dir).map_err(io)?;
    let mut spans = Spans {
        origin: Instant::now(),
        rows: Vec::new(),
    };
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut problems: Vec<String> = Vec::new();
    let reps = if args.quick { 3 } else { 20 };

    // Inputs, and the query set as the program will see it.
    let generating = Instant::now();
    let mut feed_batch_frames = Vec::new();
    let (queries, job, doc): (Vec<(String, String)>, Job, Option<StreamDoc>) = match workload {
        Workload::ServeFeed => {
            let feed = gen::feed(args.seed, FEED_POOL);
            let queries: Vec<(String, String)> = feed
                .queries
                .lines()
                .filter_map(|l| l.split_once('='))
                .map(|(n, e)| (n.to_string(), e.to_string()))
                .collect();
            // One operation: the first batch, without its frame headers.
            feed_batch_frames = feed.frames(0, FEED_BATCH).to_vec();
            let mut frames = wire::FrameReader::new(feed_batch_frames.as_slice());
            let mut xml = Vec::new();
            while let Some((_, payload)) = frames.next_frame().map_err(io)? {
                xml.extend_from_slice(payload);
            }
            let parsed: Vec<(String, Rpeq)> = parse_all(&queries)?;
            let set = spex_combine::combine(&parsed)
                .map_err(|e| e.to_string())?
                .set;
            (queries, Job::Multi { set, xml }, None)
        }
        _ => {
            let doc = workload::stream_doc(workload, args.seed);
            let query: Rpeq = doc
                .query
                .parse()
                .map_err(|e: spex_query::ParseError| e.to_string())?;
            let job = Job::Single {
                network: CompiledNetwork::compile(&query),
                xml: doc.xml.clone(),
            };
            (
                vec![("q".to_string(), doc.query.to_string())],
                job,
                Some(doc),
            )
        }
    };
    values.insert("gen.setup_s", generating.elapsed().as_secs_f64());

    // Set-up layers, each callable on its own.
    let parsed = parse_all(&queries)?;
    values.insert(
        "query.parse.self_us",
        timed_median(reps * 10, 1e6, || {
            parse_all(&queries).expect("parsed once already")
        }),
    );
    // Network construction and plan lowering of one query; for the standing
    // set the combiner builds the network, so only the lowering is left.
    values.insert(
        "core.compile.self_us",
        timed_median(reps * 10, 1e6, || match &job {
            Job::Single { .. } => CompiledNetwork::compile(&parsed[0].1).plan().len(),
            Job::Multi { set, .. } => spex_core::Plan::compile(set.spec()).len(),
        }),
    );
    values.insert(
        "combine.self_ms",
        timed_median(reps, 1e3, || {
            spex_combine::combine(&parsed)
                .expect("compilable")
                .report
                .degree
        }),
    );
    let report = spex_combine::combine(&parsed)
        .map_err(|e| e.to_string())?
        .report;
    values.insert("combine.distinct", report.distinct as f64);
    values.insert("combine.degree", report.degree as f64);

    // Counts, from one repetition with the allocation counter on.
    let ((events, symbols), reader_allocs) = count_allocations(|| read_only(&job));
    let (evaluated, vm_allocs) = count_allocations(|| evaluate_counting(&job));
    let (_, sink_allocs) = count_allocations(|| evaluate_serializing(&job, workload.is_oneshot()));
    let stats = &evaluated.stats;
    let fragments = collect_fragments(&job);
    let result_bytes: u64 = fragments.iter().map(|(_, f)| f.len() as u64).sum();
    let per_event = |n: u64| n as f64 / events as f64;
    values.insert("xml.reader.events", events as f64);
    values.insert("xml.reader.bytes", job.xml().len() as f64);
    values.insert("xml.reader.allocs_per_event", per_event(reader_allocs));
    values.insert("xml.store.peak_arena_bytes", stats.peak_arena_bytes as f64);
    values.insert(
        "xml.symbol.interned",
        symbols.max(stats.interned_symbols) as f64,
    );
    values.insert("core.vm.ticks", stats.ticks as f64);
    values.insert("core.vm.messages_per_event", per_event(stats.messages));
    values.insert(
        "core.vm.allocs_per_event",
        per_event(vm_allocs.saturating_sub(reader_allocs)),
    );
    values.insert("core.vm.max_formula_size", stats.max_formula_size as f64);
    values.insert("core.vm.vars_created", stats.vars_created as f64);
    values.insert(
        "core.output.candidates_created",
        stats.candidates_created as f64,
    );
    values.insert("core.output.results", stats.results as f64);
    values.insert("core.output.dropped", stats.dropped as f64);
    values.insert(
        "core.output.useful_ratio",
        stats.results as f64 / (stats.candidates_created as f64).max(1.0),
    );
    values.insert(
        "core.output.peak_buffered_events",
        stats.peak_buffered_events as f64,
    );
    values.insert(
        "core.output.peak_live_candidates",
        stats.peak_live_candidates as f64,
    );
    values.insert(
        "core.output.determination_p50_events",
        evaluated.determination.0 as f64,
    );
    values.insert(
        "core.output.determination_p99_events",
        evaluated.determination.1 as f64,
    );
    values.insert("core.sink.result_bytes", result_bytes as f64);
    values.insert(
        "core.sink.allocs_per_result",
        sink_allocs.saturating_sub(vm_allocs) as f64 / (fragments.len() as f64).max(1.0),
    );
    if let Some(doc) = &doc {
        if fragments.len() as u64 != doc.answer.results || result_bytes != doc.answer.bytes {
            problems.push(
                "in-process evaluation disagrees with the generator's expected answer".to_string(),
            );
        }
    }

    // The cumulative passes: sibling spans under one op span per repetition.
    let oneshot = match &doc {
        Some(doc) if workload.is_oneshot() => {
            let file = scratch.write("trace-input.xml", &doc.xml).map_err(io)?;
            let options = spex_cli::Options {
                query: Some(doc.query.to_string()),
                file: Some(file.to_string_lossy().into_owned()),
                ..spex_cli::Options::default()
            };
            Some((doc, file, options))
        }
        _ => None,
    };
    // The real operations run as in the one-shot workloads: the program on
    // the last CPU, this thread (the consumer) on the first.
    let cpus = oneshot.is_some().then(SplitCpus::new);
    let mut passes = Passes::default();
    let mut cli_out = Vec::new();
    for rep in 0..reps as u64 {
        let t0 = Instant::now();
        std::hint::black_box(read_only(&job));
        let t1 = Instant::now();
        std::hint::black_box(evaluate_counting(&job).stats.results);
        let t2 = Instant::now();
        std::hint::black_box(evaluate_serializing(&job, workload.is_oneshot()));
        let t3 = Instant::now();
        let mut end = t3;
        passes.reader.push(ms(t0, t1));
        passes.vm.push(ms(t1, t2));
        passes.sink.push(ms(t2, t3));
        let mut siblings = vec![
            ("pass.reader", t0, t1),
            ("pass.reader+vm", t1, t2),
            ("pass.reader+vm+sink", t2, t3),
        ];
        if let (Some((doc, file, options)), Some(cpus)) = (&oneshot, &cpus) {
            cli_out.clear();
            run_cli(options, &mut cli_out);
            let t4 = Instant::now();
            let launch = Launch {
                spex: &args.spex,
                cpus,
            };
            let (piped, _, checked) = file_op(&launch, doc, file).map_err(io)?;
            if let Err(e) = checked {
                problems.push(format!("traced operation: {e}"));
            }
            let t5 = Instant::now();
            let discarded = discarded_op(&launch, doc, file).map_err(io)?;
            end = Instant::now();
            passes.cli.push(ms(t3, t4));
            passes.piped.push(piped.as_secs_f64() * 1e3);
            passes.discarded.push(discarded.as_secs_f64() * 1e3);
            siblings.extend([
                ("pass.cli", t3, t4),
                ("process.piped", t4, t5),
                ("process.discarded", t5, end),
            ]);
        }
        let op = spans.record("op", rep, None, t0, end);
        for (name, start, end) in siblings {
            spans.record(name, rep, Some(op), start, end);
        }
    }
    drop(cpus);
    let reader_ms = median(&passes.reader).unwrap_or(0.0);
    let vm_ms = self_ms(&passes.vm, &passes.reader);
    let sink_ms = self_ms(&passes.sink, &passes.vm);
    values.insert("xml.reader.self_ms", reader_ms);
    values.insert("core.vm.self_ms", vm_ms);
    values.insert("core.sink.self_ms", sink_ms);
    let mut attributed = reader_ms + vm_ms + sink_ms;

    // `serve.protocol`: decode the operation's exact client bytes, encode
    // every result it delivers.
    if !workload.is_oneshot() {
        let client_bytes = match (&job, &doc) {
            (Job::Single { xml, .. }, Some(doc)) => {
                let mut bytes = wire::frame(b'R', format!("q={}", doc.query).as_bytes());
                bytes.extend(wire::data_frames(xml, STREAM_FRAME).0);
                bytes.extend(wire::frame(b'E', b""));
                bytes
            }
            _ => feed_batch_frames,
        };
        let decode = || {
            let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME);
            let mut frames = 0u64;
            for piece in client_bytes.chunks(STREAM_FRAME) {
                decoder.push(piece);
                while let Some(frame) = decoder.next_frame().expect("well-formed frames") {
                    std::hint::black_box(&frame);
                    frames += 1;
                }
            }
            frames
        };
        let encode = || {
            let mut out = Vec::with_capacity(result_bytes as usize + 16 * fragments.len());
            for (name, fragment) in &fragments {
                let payload = result_payload(name, fragment);
                write_frame(&mut out, FrameKind::Result, &payload).expect("writing to a Vec");
            }
            out.len()
        };
        let (decode_ms, encode_ms) = (
            timed_median(reps, 1e3, decode),
            timed_median(reps, 1e3, encode),
        );
        values.insert("serve.protocol.decode_self_ms", decode_ms);
        values.insert("serve.protocol.encode_self_ms", encode_ms);
        values.insert("serve.protocol.frames_in", decode() as f64);
        values.insert("serve.protocol.frames_out", fragments.len() as f64);
        attributed += decode_ms + encode_ms;
    }

    // The client side, twice: by the `e2e` binary (tracing-free by
    // construction) and from this process (allocator linked, spans kept).
    // `serve-stream` runs one client here, so that nothing contends with
    // the session whose residual is attributed.
    let clients = if workload == Workload::ServeStream {
        1
    } else {
        2
    };
    let untraced_p50 = untraced_op_p50(args, clients)?;
    let mut plan = Plan::from_seconds(args.seconds * CLIENT_RUN_SHARE);
    plan.clients = clients;
    if args.quick {
        plan = plan.quick();
    }
    let env = Env {
        spex: args.spex.clone(),
        out_dir: args.out_dir.clone(),
    };
    let outcome: Outcome = workload::run(workload, args.seed, plan, &env).map_err(io)?;
    problems.extend(outcome.failures.iter().cloned());
    let traced_p50 =
        median(&outcome.op_ms).ok_or("the traced client run completed no operation")?;
    values.insert(
        "trace.overhead_frac",
        (traced_p50 - untraced_p50) / untraced_p50,
    );
    for diagnostic in diagnostics(&outcome) {
        values.insert(diagnostic.name, diagnostic.value);
    }
    for (op_id, s) in outcome.sessions.iter().enumerate() {
        let op_id = op_id as u64;
        let session = spans.record("session", op_id, None, s.start, s.end);
        spans.record("connect", op_id, Some(session), s.start, s.connected);
        spans.record("register", op_id, Some(session), s.connected, s.registered);
        spans.record("send", op_id, Some(session), s.first_send, s.sent);
        if let Some(first_result) = s.first_result {
            spans.record(
                "first_result",
                op_id,
                Some(session),
                s.first_send,
                first_result,
            );
        }
        spans.record("drain", op_id, Some(session), s.sent, s.end);
    }

    if workload.is_oneshot() {
        // The process layer is a cold start plus what delivery through a
        // pipe adds to the same operation writing to /dev/null. Neither
        // figure comes from the in-process passes, so coverage is a test:
        // it is 1 when the passes plus a cold start reproduce the real
        // process with delivery made free.
        let cli_ms = self_ms(&passes.cli, &passes.sink);
        let startup_ms = median(&outcome.setup_s).unwrap_or(0.0) * 1e3;
        let process_ms = startup_ms + self_ms(&passes.piped, &passes.discarded);
        values.insert("cli.self_ms", cli_ms);
        values.insert("process.self_ms", process_ms);
        attributed += cli_ms + process_ms;
    } else {
        let first_results: Vec<f64> = outcome
            .sessions
            .iter()
            .filter_map(|s| Some(ms(s.first_send, s.first_result?)))
            .collect();
        values.insert(
            "serve.first_result_p50_ms",
            median(&first_results).unwrap_or(0.0),
        );
        values.insert("serve.session.residual_ms", traced_p50 - attributed);
        if let (Some(server), ops @ 1..) = (&outcome.server, outcome.server_ops) {
            let per_op = |n: u64| n as f64 / ops as f64;
            values.insert(
                "serve.ctx_switches_per_op",
                per_op(server.voluntary_switches),
            );
        }
        let summary = outcome.server_trace.as_deref().unwrap_or_default();
        for (name, keys) in [
            ("serve.admission_wait_p99_us", ["admission_wait_us", "p99"]),
            ("serve.session_p50_us", ["session_us", "p50"]),
        ] {
            match json_number(summary, &keys) {
                Some(v) => {
                    values.insert(name, v);
                }
                None => problems.push(format!("no {keys:?} in the server's `t` frame")),
            }
        }
    }
    // Against the operations timed next to the passes, not the untraced
    // figure from minutes ago: this box's speed drifts by more than the band.
    let whole_op = if workload.is_oneshot() {
        median(&passes.piped).unwrap_or(0.0)
    } else {
        traced_p50
    };
    let coverage = attributed / whole_op;
    values.insert("trace.coverage", coverage);
    if workload.is_oneshot() && !(0.85..=1.15).contains(&coverage) {
        println!(
            "{:<13} NOTE: trace.coverage {coverage:.3} is outside 0.85–1.15: {:.2} of the operation's \
             {whole_op:.2} ms are unattributed. The in-process passes plus a cold start do not add up \
             to the real process writing to /dev/null; file read and one write(2) per fragment are \
             in neither, so look at `process` first.",
            workload.name(),
            whole_op - attributed
        );
    }

    let spans_path =
        args.out_dir
            .join(format!("trace-{}-seed{}.jsonl", workload.name(), args.seed));
    spans.write(&spans_path).map_err(io)?;
    println!(
        "{:<13} {} spans written to {}",
        workload.name(),
        spans.rows.len(),
        spans_path.display()
    );

    // Every declared per-layer metric, in order; a layer that is not on
    // this workload's path reads 0 (README.md says which are).
    let metrics: Vec<Reported> = PER_LAYER
        .iter()
        .map(|def| Reported {
            name: def.name,
            unit: def.unit,
            value: values.get(def.name).copied().unwrap_or(0.0),
            samples: reps,
        })
        .collect();
    let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    problems.extend(check_values(&declared, &metrics, false));
    for metric in &metrics {
        print_metric(workload, metric, None);
    }
    for problem in &problems {
        println!("{:<13} PROBLEM: {problem}", workload.name());
    }
    let correct = outcome.failed == 0 && problems.is_empty();
    println!(
        "{}",
        result_line(correct, outcome.ops.max(1), outcome.failed, &metrics)
    );
    Ok(correct)
}

fn parse_all(queries: &[(String, String)]) -> Result<Vec<(String, Rpeq)>, String> {
    queries
        .iter()
        .map(|(name, expr)| {
            expr.parse::<Rpeq>()
                .map(|q| (name.clone(), q))
                .map_err(|e| format!("query {name}: {e}"))
        })
        .collect()
}
