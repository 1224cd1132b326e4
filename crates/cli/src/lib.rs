//! Library backing the `spex` command-line tool: argument parsing and the
//! command implementations, factored out of the binary so they can be unit-
//! and integration-tested.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod serve;

use spex_core::{
    stats_json, CompiledNetwork, CountingSink, EngineStats, EvalError, PlanRun, Pump,
    RecoveryOptions, ResourceLimits, ResultSink, RunReport, Snapshot, SpanCollector,
    TransducerStats, TruncationOutcome, Yield,
};
use spex_query::Rpeq;
use spex_trace::{JsonlSink, MemorySink, TeeSink, TraceRecord, TraceSink, Tracer};
use spex_xml::{RecoveryPolicy, XmlError};
use std::io::{Read, Write};
use std::sync::Arc;

/// A CLI failure with its process exit code (see the README's exit-code
/// table): 1 usage/query, 2 malformed XML, 3 I/O, 4 resource limits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Usage, query parse or compile failure (exit code 1).
    Usage(String),
    /// Malformed XML input — any syntax-class [`XmlError`] (exit code 2).
    Syntax(String),
    /// I/O failure: input file, transport, or output pipe (exit code 3).
    Io(String),
    /// A configured resource limit was exceeded (exit code 4).
    Resource(String),
}

impl CliError {
    /// The process exit code for this failure class.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 1,
            CliError::Syntax(_) => 2,
            CliError::Io(_) => 3,
            CliError::Resource(_) => 4,
        }
    }

    /// The message printed to stderr (prefixed with `spex: ` by [`run`]).
    pub fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Syntax(m) | CliError::Io(m) | CliError::Resource(m) => m,
        }
    }
}

impl From<XmlError> for CliError {
    fn from(e: XmlError) -> Self {
        if e.kind().is_syntax_class() {
            CliError::Syntax(e.to_string())
        } else {
            CliError::Io(e.to_string())
        }
    }
}

impl From<EvalError> for CliError {
    fn from(e: EvalError) -> Self {
        match e {
            EvalError::Query(_) | EvalError::Compile(_) => CliError::Usage(e.to_string()),
            EvalError::Xml(x) => x.into(),
            EvalError::ResourceExhausted { .. } => CliError::Resource(e.to_string()),
        }
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e.to_string())
    }
}

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// The query (rpeq syntax, or XPath with `--xpath`).
    pub query: Option<String>,
    /// Input file (stdin when absent).
    pub file: Option<String>,
    /// Interpret the query as XPath.
    pub xpath: bool,
    /// Print only the number of results.
    pub count: bool,
    /// Print result start offsets (event index) instead of fragments.
    pub spans: bool,
    /// Print the compiled network and exit.
    pub explain: bool,
    /// Print evaluation statistics to stderr.
    pub stats: bool,
    /// Print statistics (global + per-transducer) as JSON to stderr.
    pub stats_json: bool,
    /// Resource caps enforced during evaluation.
    pub limits: ResourceLimits,
    /// Generate a dataset instead of evaluating: `mondial`, `wordnet`,
    /// `dmoz-structure`, `dmoz-content`.
    pub generate: Option<String>,
    /// Scale factor for generated datasets.
    pub scale: f64,
    /// Print the help text.
    pub help: bool,
    /// Accept a sequence of documents on the input (SDI streams).
    pub stream: bool,
    /// Recovery policy for malformed input (default: strict).
    pub recover: RecoveryPolicy,
    /// How undetermined candidates resolve at an unexpected end of stream.
    pub on_truncation: TruncationOutcome,
    /// Named queries (`NAME=EXPR`, repeatable) compiled into one shared
    /// network; output lines are prefixed with the query name.
    pub queries: Vec<String>,
    /// Write a JSONL trace (spans, counters, histograms — DESIGN.md §13)
    /// to this path.
    pub trace_jsonl: Option<String>,
    /// Print a human-readable trace summary to stderr after the run.
    pub trace_summary: bool,
    /// Write a run-state snapshot (DESIGN.md §15) to this path at every
    /// document boundary.
    pub checkpoint: Option<String>,
    /// Restore run state from this snapshot and skip the input prefix it
    /// already consumed before evaluating.
    pub resume: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            query: None,
            file: None,
            xpath: false,
            count: false,
            spans: false,
            explain: false,
            stats: false,
            stats_json: false,
            limits: ResourceLimits::default(),
            generate: None,
            scale: 1.0,
            help: false,
            stream: false,
            recover: RecoveryPolicy::Strict,
            on_truncation: TruncationOutcome::Drop,
            queries: Vec::new(),
            trace_jsonl: None,
            trace_summary: false,
            checkpoint: None,
            resume: None,
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
spex — streamed evaluation of regular path expressions with qualifiers

USAGE:
    spex [OPTIONS] QUERY [FILE]
    spex --query NAME=EXPR [--query NAME=EXPR ...] [FILE]
    spex --generate DATASET [--scale X] > out.xml
    spex serve [OPTIONS]          (see `spex serve --help`)

ARGS:
    QUERY   regular path expression, e.g. '_*.country[province].name'
    FILE    XML input (stdin when omitted)

OPTIONS:
    --query NAME=EXPR  register a named query (repeatable); all queries are
                     compiled into ONE shared transducer network and each
                     output line is prefixed with `NAME<TAB>`
    --xpath          parse QUERY as XPath (//country[province]/name)
    --count          print only the number of results
    --spans          print result start offsets (event indices)
    --explain        print the compiled transducer network and exit
    --stats          print evaluation statistics to stderr
    --stats-json     print statistics (global + per-transducer) as JSON to stderr
    --trace-jsonl PATH    write a JSONL trace (spans, counters, histograms;
                     schema in DESIGN.md §13) to PATH
    --trace-summary  print a human-readable trace summary to stderr
    --checkpoint PATH     write a run-state snapshot (DESIGN.md §15) to PATH
                     at every document boundary (atomically replaced)
    --resume PATH    restore run state from the snapshot at PATH, skip the
                     input prefix it already consumed, and continue; the
                     input must be the same stream the snapshot came from
    --stream         treat the input as a sequence of documents (SDI mode)
    --recover P      recovery policy for malformed input:
                     strict (default) | repair | skip-subtree
    --on-truncation O     candidates undetermined at an unexpected EOF:
                     drop (default) | force-false
    --limit-depth N       abort when the stream nesting depth exceeds N
    --limit-buffered N    abort when more than N events are buffered
    --limit-buffered-bytes N  abort when the event arena exceeds N bytes
    --limit-candidates N  abort when more than N candidates are live
    --limit-formula N     abort when a condition formula exceeds size N
    --limit-messages N    abort after more than N transducer messages
    --generate D     emit a synthetic dataset: mondial | wordnet |
                     dmoz-structure | dmoz-content
    --scale X        dataset scale factor (default 1.0)
    -h, --help       this text

EXIT CODES:
    0 success    1 usage or query error    2 malformed XML input
    3 I/O failure    4 resource limit exceeded
";

/// Parse `flag`'s numeric operand; `operand` names it in the missing-operand
/// error (`spex` says "number", `spex serve` "value").
pub(crate) fn number<T: std::str::FromStr>(
    flag: &str,
    it: &mut std::slice::Iter<'_, String>,
    operand: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    it.next()
        .ok_or_else(|| format!("{flag} needs a {operand}"))?
        .parse()
        .map_err(|e| format!("invalid {flag}: {e}"))
}

/// The per-evaluation flags `spex` and `spex serve` share: `--recover`,
/// `--on-truncation` and the six `--limit-*` caps. Consumes `flag`'s operand
/// from `it` and returns `true` if `flag` is one of them; otherwise leaves
/// `it` untouched and returns `false`.
pub(crate) fn parse_session_flag(
    flag: &str,
    it: &mut std::slice::Iter<'_, String>,
    operand: &str,
    limits: &mut ResourceLimits,
    recover: &mut RecoveryPolicy,
    on_truncation: &mut TruncationOutcome,
) -> Result<bool, String> {
    match flag {
        "--recover" => {
            *recover = it
                .next()
                .ok_or_else(|| {
                    "--recover needs a policy (strict, repair, skip-subtree)".to_string()
                })?
                .parse()?
        }
        "--on-truncation" => {
            *on_truncation = it
                .next()
                .ok_or_else(|| "--on-truncation needs an outcome (drop, force-false)".to_string())?
                .parse()?
        }
        "--limit-depth" => limits.max_stream_depth = Some(number(flag, it, operand)?),
        "--limit-buffered" => limits.max_buffered_events = Some(number(flag, it, operand)?),
        "--limit-buffered-bytes" => limits.max_buffered_bytes = Some(number(flag, it, operand)?),
        "--limit-candidates" => limits.max_live_candidates = Some(number(flag, it, operand)?),
        "--limit-formula" => limits.max_formula_size = Some(number(flag, it, operand)?),
        "--limit-messages" => limits.max_total_messages = Some(number(flag, it, operand)?),
        _ => return Ok(false),
    }
    Ok(true)
}

/// Parse command-line arguments (excluding the program name).
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if parse_session_flag(
            a,
            &mut it,
            "number",
            &mut o.limits,
            &mut o.recover,
            &mut o.on_truncation,
        )? {
            continue;
        }
        match a.as_str() {
            "--xpath" => o.xpath = true,
            "--count" => o.count = true,
            "--spans" => o.spans = true,
            "--explain" => o.explain = true,
            "--stats" => o.stats = true,
            "--stats-json" => o.stats_json = true,
            "--trace-summary" => o.trace_summary = true,
            "--trace-jsonl" => {
                o.trace_jsonl = Some(
                    it.next()
                        .ok_or_else(|| "--trace-jsonl needs a file path".to_string())?
                        .clone(),
                )
            }
            "--checkpoint" => {
                o.checkpoint = Some(
                    it.next()
                        .ok_or_else(|| "--checkpoint needs a file path".to_string())?
                        .clone(),
                )
            }
            "--resume" => {
                o.resume = Some(
                    it.next()
                        .ok_or_else(|| "--resume needs a file path".to_string())?
                        .clone(),
                )
            }
            "--stream" => o.stream = true,
            "-h" | "--help" => o.help = true,
            "--query" => o.queries.push(
                it.next()
                    .ok_or_else(|| "--query needs NAME=EXPR".to_string())?
                    .clone(),
            ),
            "--generate" => {
                o.generate = Some(
                    it.next()
                        .ok_or_else(|| "--generate needs a dataset name".to_string())?
                        .clone(),
                )
            }
            "--scale" => {
                o.scale = it
                    .next()
                    .ok_or_else(|| "--scale needs a number".to_string())?
                    .parse()
                    .map_err(|e| format!("invalid --scale: {e}"))?
            }
            other if other.starts_with("--query=") => {
                o.queries.push(other["--query=".len()..].to_string())
            }
            other if other.starts_with("--trace-jsonl=") => {
                o.trace_jsonl = Some(other["--trace-jsonl=".len()..].to_string())
            }
            other if other.starts_with("--checkpoint=") => {
                o.checkpoint = Some(other["--checkpoint=".len()..].to_string())
            }
            other if other.starts_with("--resume=") => {
                o.resume = Some(other["--resume=".len()..].to_string())
            }
            other if other.starts_with("--recover=") => {
                o.recover = other["--recover=".len()..].parse()?
            }
            other if other.starts_with("--on-truncation=") => {
                o.on_truncation = other["--on-truncation=".len()..].parse()?
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown option `{other}`"));
            }
            _ => positional.push(a),
        }
    }
    let mut pos = positional.into_iter();
    o.query = pos.next().cloned();
    o.file = pos.next().cloned();
    if pos.next().is_some() {
        return Err("too many positional arguments".to_string());
    }
    Ok(o)
}

/// The trace destinations a run writes to, built from the `--trace-jsonl`
/// and `--trace-summary` flags. Holding the concrete sinks (not just the
/// type-erased [`Tracer`]) lets the CLI check the JSONL sink's error latch
/// and render the summary from the in-memory records after the run.
struct TraceSetup {
    tracer: Tracer,
    jsonl: Option<(String, Arc<JsonlSink>)>,
    summary: Option<Arc<MemorySink>>,
}

impl TraceSetup {
    fn build(options: &Options) -> Result<TraceSetup, CliError> {
        let mut setup = TraceSetup {
            tracer: Tracer::disabled(),
            jsonl: None,
            summary: None,
        };
        let mut children: Vec<Arc<dyn TraceSink>> = Vec::new();
        if let Some(path) = &options.trace_jsonl {
            let sink = Arc::new(
                JsonlSink::create(std::path::Path::new(path))
                    .map_err(|e| CliError::Io(format!("{path}: {e}")))?,
            );
            setup.jsonl = Some((path.clone(), sink.clone()));
            children.push(sink);
        }
        if options.trace_summary {
            let sink = Arc::new(MemorySink::new());
            setup.summary = Some(sink.clone());
            children.push(sink);
        }
        setup.tracer = match children.len() {
            0 => Tracer::disabled(),
            1 => Tracer::to_sink(children.pop().expect("one child")),
            _ => Tracer::to_sink(Arc::new(TeeSink::new(children))),
        };
        Ok(setup)
    }

    /// Flush the sinks, render the `--trace-summary` table, and surface a
    /// latched JSONL write error as an I/O failure.
    fn finish(&self, stderr: &mut dyn Write) -> Result<(), CliError> {
        self.tracer.flush();
        if let Some(memory) = &self.summary {
            write!(stderr, "{}", render_trace_summary(&memory.records()))?;
        }
        if let Some((path, sink)) = &self.jsonl {
            if sink.had_error() {
                return Err(CliError::Io(format!("{path}: trace write failed")));
            }
        }
        Ok(())
    }
}

/// Render trace records as an aligned human-readable table (the
/// `--trace-summary` output).
fn render_trace_summary(records: &[TraceRecord]) -> String {
    use spex_trace::Value;
    fn label(name: &str, attrs: &[(String, Value)]) -> String {
        if attrs.is_empty() {
            return name.to_string();
        }
        let inner: Vec<String> = attrs
            .iter()
            .map(|(k, v)| match v {
                Value::Str(s) => format!("{k}={s}"),
                Value::U64(n) => format!("{k}={n}"),
            })
            .collect();
        format!("{name}{{{}}}", inner.join(","))
    }
    let rows: Vec<(&'static str, String, String)> = records
        .iter()
        .map(|r| match r {
            TraceRecord::Span { name, us, attrs } => {
                ("span", label(name, attrs), format!("{us}µs"))
            }
            TraceRecord::Counter { name, value, attrs } => {
                ("counter", label(name, attrs), value.to_string())
            }
            TraceRecord::Gauge { name, value, attrs } => {
                ("gauge", label(name, attrs), value.to_string())
            }
            TraceRecord::Hist {
                name,
                summary,
                attrs,
            } => (
                "hist",
                label(name, attrs),
                format!(
                    "count={} min={} max={} p50={} p90={} p99={}",
                    summary.count, summary.min, summary.max, summary.p50, summary.p90, summary.p99
                ),
            ),
        })
        .collect();
    let width = rows.iter().map(|(_, l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::from("trace summary:\n");
    for (kind, label, value) in rows {
        out.push_str(&format!("  {kind:<7} {label:<width$}  {value}\n"));
    }
    out
}

/// Run the tool; returns the process exit code.
pub fn run(
    options: &Options,
    stdin: &mut dyn Read,
    stdout: &mut dyn Write,
    stderr: &mut dyn Write,
) -> i32 {
    match run_inner(options, stdin, stdout, stderr) {
        Ok(()) => 0,
        Err(e) => {
            let _ = writeln!(stderr, "spex: {}", e.message());
            e.exit_code()
        }
    }
}

fn run_inner(
    options: &Options,
    stdin: &mut dyn Read,
    stdout: &mut dyn Write,
    stderr: &mut dyn Write,
) -> Result<(), CliError> {
    if options.help {
        write!(stdout, "{USAGE}")?;
        return Ok(());
    }
    if let Some(dataset) = &options.generate {
        return generate(dataset, options.scale, stdout);
    }
    if options.checkpoint.is_some() || options.resume.is_some() {
        if !options.queries.is_empty() {
            return Err(CliError::Usage(
                "--checkpoint/--resume cannot be combined with --query; use \
                 `spex serve --durable-dir` for durable multi-query sessions"
                    .to_string(),
            ));
        }
        if options.recover != RecoveryPolicy::Strict {
            return Err(CliError::Usage(
                "--checkpoint/--resume require strict parsing (durable recovery \
                 sessions live in `spex serve --durable-dir`)"
                    .to_string(),
            ));
        }
        if options.count || options.spans {
            return Err(CliError::Usage(
                "--checkpoint/--resume only support fragment output \
                 (not --count/--spans: the counters are not part of the snapshot)"
                    .to_string(),
            ));
        }
    }
    if !options.queries.is_empty() {
        return run_multi(options, stdin, stdout, stderr);
    }
    let query_text = options
        .query
        .as_ref()
        .ok_or_else(|| CliError::Usage(format!("missing QUERY\n\n{USAGE}")))?;
    let query: Rpeq = if options.xpath {
        spex_query::xpath::parse_xpath(query_text).map_err(|e| CliError::Usage(e.to_string()))?
    } else {
        query_text
            .parse()
            .map_err(|e: spex_query::ParseError| CliError::Usage(e.to_string()))?
    };
    let network = CompiledNetwork::compile(&query);
    if options.explain {
        writeln!(stdout, "query: {query}")?;
        writeln!(stdout, "network ({} transducers):", network.degree())?;
        write!(stdout, "{}", network.spec().dump())?;
        return Ok(());
    }

    let trace = TraceSetup::build(options)?;
    let file = options.file.as_deref();
    let mut evaluate_into = |sink: &mut dyn ResultSink| {
        evaluate(network.run(sink), options, &trace.tracer, file, stdin)
    };

    // Choose the sink by output mode.
    let (stats, transducers, report) = if options.count {
        let mut sink = CountingSink::new();
        let out = evaluate_into(&mut sink)?;
        writeln!(stdout, "{}", sink.results)?;
        out
    } else if options.spans {
        let mut sink = SpanCollector::new();
        let out = evaluate_into(&mut sink)?;
        for s in &sink.starts {
            writeln!(stdout, "{s}")?;
        }
        out
    } else {
        // Progressive delivery: fragments decided so far reach stdout before
        // spex waits for more input, not after the stream ends. (Under a
        // recovery policy delivery is deferred to end of run — quarantine
        // needs the whole stream.)
        let mut sink = spex_core::StreamingSink::new(&mut *stdout);
        let out = evaluate_into(&mut sink)?;
        if let Some(e) = sink.take_error() {
            return Err(e.into());
        }
        out
    };

    // The summary still prints (and the JSONL sink still flushes) when the
    // run ends in a drained resource breach — but that breach wins as the
    // reported error.
    let outcome = report_outcome(options, &stats, &transducers, report.as_ref(), stderr);
    trace.finish(stderr)?;
    outcome
}

/// Print the `--stats`/`--stats-json` output and the recovery summary,
/// surfacing a drained resource breach as the final error.
fn report_outcome(
    options: &Options,
    stats: &EngineStats,
    transducers: &[TransducerStats],
    report: Option<&RunReport>,
    stderr: &mut dyn Write,
) -> Result<(), CliError> {
    if options.stats_json {
        writeln!(stderr, "{}", stats_json(stats, transducers, report))?;
    }
    if options.stats {
        writeln!(
            stderr,
            "events: {}  depth: {}  results: {}  dropped: {}  vars: {}  \
             peak buffered: {}  max formula: {}  stacks: d={} c={}  \
             arena peak: {}B  symbols: {}",
            stats.ticks,
            stats.max_stream_depth,
            stats.results,
            stats.dropped,
            stats.vars_created,
            stats.peak_buffered_events,
            stats.max_formula_size,
            stats.max_depth_stack,
            stats.max_cond_stack,
            stats.peak_arena_bytes,
            stats.interned_symbols,
        )?;
    }
    if let Some(report) = report {
        if !report.faults.is_empty() {
            writeln!(
                stderr,
                "spex: recovered {} input fault(s); {} result(s) quarantined{}",
                report.faults.len(),
                report.dropped,
                if report.truncated {
                    " (stream truncated)"
                } else {
                    ""
                },
            )?;
        }
        if let Some(breach) = report.exhausted {
            return Err(CliError::Resource(breach.to_string()));
        }
    }
    Ok(())
}

/// The multi-query mode's one output handle: `NAME<TAB>fragment` lines
/// collect in a 64 KiB buffer that reaches stdout when the pump flushes (or
/// the buffer fills). The first write error is kept and ends delivery.
struct TaggedOut<'a> {
    out: std::io::BufWriter<&'a mut dyn Write>,
    error: Option<std::io::Error>,
}

impl TaggedOut<'_> {
    fn attempt(&mut self, write: impl FnOnce(&mut dyn Write) -> std::io::Result<()>) {
        if self.error.is_none() {
            if let Err(e) = write(&mut self.out) {
                self.error = Some(e);
            }
        }
    }
}

/// Per-query fragment sink of the multi-query mode. Fragments of different
/// queries interleave in the stream, so each is serialized into the query's
/// own reusable buffer and written whole, prefixed with `NAME<TAB>`, to the
/// shared [`TaggedOut`].
struct TaggedSink<'a> {
    prefix: Vec<u8>,
    fragment: spex_xml::Writer<Vec<u8>>,
    out: std::rc::Rc<std::cell::RefCell<TaggedOut<'a>>>,
}

impl ResultSink for TaggedSink<'_> {
    fn begin(&mut self, _meta: spex_core::ResultMeta, _now: u64) {}

    fn event(&mut self, event: &spex_xml::RawEvent<'_>, _now: u64) {
        self.fragment
            .write_view(event)
            .expect("writing a fragment to a Vec cannot fail");
    }

    fn end(&mut self, _now: u64) {
        let fragment = self.fragment.get_mut();
        self.out.borrow_mut().attempt(|out| {
            out.write_all(&self.prefix)?;
            out.write_all(fragment)?;
            out.write_all(b"\n")
        });
        fragment.clear();
    }

    fn flush(&mut self) {
        self.out.borrow_mut().attempt(|out| out.flush());
    }
}

/// The multi-query one-shot mode (`--query NAME=EXPR`, repeatable): all
/// queries compile through the multi-query combiner into **one** shared
/// transducer network (common prefixes exist once on the step trie, equal
/// qualifiers are hash-consed, canonically-equal queries collapse to one
/// sink — the paper's multi-query outlook, §IX) and stream over the input
/// together. Every output line is prefixed with `NAME<TAB>` so the
/// interleaved per-query results can be separated again.
fn run_multi(
    options: &Options,
    stdin: &mut dyn Read,
    stdout: &mut dyn Write,
    stderr: &mut dyn Write,
) -> Result<(), CliError> {
    if options.xpath {
        return Err(CliError::Usage(
            "--xpath cannot be combined with --query".to_string(),
        ));
    }
    if options.recover != RecoveryPolicy::Strict {
        return Err(CliError::Usage(
            "--recover is not supported with --query; use `spex serve --recover` \
             for recovering multi-query sessions"
                .to_string(),
        ));
    }
    if options.file.is_some() {
        return Err(CliError::Usage(
            "too many positional arguments (with --query the only positional is FILE)".to_string(),
        ));
    }
    // With --query there is no positional QUERY; the first (only)
    // positional is the input file.
    let file = options.query.as_deref();

    let mut queries: Vec<(String, Rpeq)> = Vec::new();
    for spec in &options.queries {
        let (name, expr) = spec.split_once('=').ok_or_else(|| {
            CliError::Usage(format!("--query `{spec}` is not of the form NAME=EXPR"))
        })?;
        if name.is_empty() {
            return Err(CliError::Usage(format!("--query `{spec}`: empty name")));
        }
        if queries.iter().any(|(n, _)| n == name) {
            return Err(CliError::Usage(format!(
                "--query name `{name}` given twice"
            )));
        }
        let query: Rpeq = expr
            .parse()
            .map_err(|e: spex_query::ParseError| CliError::Usage(format!("--query {name}: {e}")))?;
        queries.push((name.to_string(), query));
    }
    let combined = spex_combine::combine(&queries).map_err(|e| CliError::Usage(e.to_string()))?;
    let (set, report) = (combined.set, combined.report);

    if options.explain {
        for (name, query) in &queries {
            writeln!(stdout, "query {name}: {query}")?;
        }
        writeln!(
            stdout,
            "shared network: {} transducers ({} unshared); \
             {} distinct of {} queries, {}/{} chain steps shared",
            set.degree(),
            set.unshared_degree(),
            report.distinct,
            report.queries,
            report.steps_shared,
            report.steps_total,
        )?;
        write!(stdout, "{}", set.spec().dump())?;
        return Ok(());
    }

    let trace = TraceSetup::build(options)?;
    let mut evaluate_into = |sinks: Vec<&mut dyn ResultSink>| {
        evaluate(set.run(sinks), options, &trace.tracer, file, stdin)
    };
    let (stats, transducers, _) = if options.count {
        let mut counters: Vec<CountingSink> =
            (0..queries.len()).map(|_| CountingSink::new()).collect();
        let out = evaluate_into(counters.iter_mut().map(|c| c as _).collect())?;
        for (name, counter) in set.ids().iter().zip(&counters) {
            writeln!(stdout, "{name}\t{}", counter.results)?;
        }
        out
    } else if options.spans {
        let mut collectors: Vec<SpanCollector> =
            (0..queries.len()).map(|_| SpanCollector::new()).collect();
        let out = evaluate_into(collectors.iter_mut().map(|c| c as _).collect())?;
        for (name, collector) in set.ids().iter().zip(&collectors) {
            for start in &collector.starts {
                writeln!(stdout, "{name}\t{start}")?;
            }
        }
        out
    } else {
        // Progressive delivery, multiplexed: whole fragments (never partial
        // ones), tagged with the query name, leave when the pump flushes.
        let shared_out = std::rc::Rc::new(std::cell::RefCell::new(TaggedOut {
            out: std::io::BufWriter::with_capacity(64 << 10, stdout),
            error: None,
        }));
        let mut sinks: Vec<TaggedSink<'_>> = set
            .ids()
            .iter()
            .map(|name| TaggedSink {
                prefix: format!("{name}\t").into_bytes(),
                fragment: spex_xml::Writer::new(Vec::new()),
                out: shared_out.clone(),
            })
            .collect();
        let out = evaluate_into(sinks.iter_mut().map(|s| s as _).collect())?;
        if let Some(e) = shared_out.borrow_mut().error.take() {
            return Err(e.into());
        }
        out
    };

    let outcome = report_outcome(options, &stats, &transducers, None, stderr);
    trace.finish(stderr)?;
    outcome
}

/// Engine statistics, per-transducer statistics and, under a recovery
/// policy, the fault report.
type EvalOutcome = (EngineStats, Vec<TransducerStats>, Option<RunReport>);

/// The one evaluation loop behind every one-shot mode — single query or
/// shared `--query` set, strict or recovering, `--checkpoint`/`--resume` —
/// pumping `file` (stdin when absent) through `run`. The modes differ only
/// in the sinks `run` delivers to and in the snapshot written at each
/// document boundary under `--checkpoint` (DESIGN.md §15): a killed
/// `--checkpoint` run re-run with `--resume` over the *same* input stream
/// skips the consumed prefix byte-for-byte and delivers exactly the
/// fragments the interrupted run had not yet produced.
fn evaluate(
    mut run: PlanRun<&mut dyn ResultSink>,
    options: &Options,
    tracer: &Tracer,
    file: Option<&str>,
    stdin: &mut dyn Read,
) -> Result<EvalOutcome, CliError> {
    let _span = tracer.span("cli.evaluate");
    let mut input: Box<dyn Read + '_> = match file {
        Some(path) => Box::new(std::io::BufReader::new(
            std::fs::File::open(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?,
        )),
        None => Box::new(stdin),
    };
    run.set_limits(options.limits);
    run.set_tracer(tracer.clone());
    let mut pump = Pump::new(
        run,
        RecoveryOptions {
            policy: options.recover,
            on_truncation: options.on_truncation,
            multi_document: options.stream,
            ..RecoveryOptions::default()
        },
    );
    if let Some(path) = &options.resume {
        resume(&mut pump, path, &mut *input)?;
    }
    loop {
        match pump.step(usize::MAX) {
            Ok(Yield::NeedMore) => pump.parser_mut().read_from(&mut *input),
            Ok(Yield::Boundary) => {
                if let (Some(path), Some(snap)) = (&options.checkpoint, pump.checkpoint()) {
                    write_snapshot_file(path, &snap.encode())?;
                }
            }
            Ok(Yield::Budget) => {}
            Ok(Yield::End) => break,
            // A recovering run has drained what was determined; the breach
            // is reported with the faults.
            Err(EvalError::ResourceExhausted { .. })
                if options.recover != RecoveryPolicy::Strict =>
            {
                break
            }
            Err(e) => return Err(e.into()),
        }
    }
    let done = pump.finish();
    Ok((done.stats, done.transducers, done.report))
}

/// `--resume`: decode the snapshot at `path` (structured errors on
/// corruption — never a panic), skip the input prefix the interrupted run
/// already consumed, and restore the run state into `pump`.
fn resume(
    pump: &mut Pump<&mut dyn ResultSink>,
    path: &str,
    input: &mut dyn Read,
) -> Result<(), CliError> {
    let bytes = std::fs::read(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    let snap = Snapshot::decode(&bytes).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    let offset = snap.session.as_ref().map_or(0, |s| s.position.offset);
    let skipped = std::io::copy(&mut input.take(offset), &mut std::io::sink())?;
    if skipped != offset {
        return Err(CliError::Io(format!(
            "input is shorter ({skipped} bytes) than the {offset} bytes the \
             snapshot already consumed — resume needs the same stream"
        )));
    }
    pump.restore(&snap)
        .map_err(|e| CliError::Io(format!("{path}: {e}")))
}

/// Write a snapshot atomically: tmp file first, then rename — a crash
/// mid-write leaves the previous snapshot intact, never a torn one.
fn write_snapshot_file(path: &str, bytes: &[u8]) -> Result<(), CliError> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, bytes).map_err(|e| CliError::Io(format!("{tmp}: {e}")))?;
    std::fs::rename(&tmp, path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    Ok(())
}

fn generate(dataset: &str, scale: f64, stdout: &mut dyn Write) -> Result<(), CliError> {
    let mut w = spex_xml::Writer::with_options(
        std::io::BufWriter::new(stdout),
        spex_xml::WriteOptions {
            declaration: true,
            indent: None,
        },
    );
    match dataset {
        "mondial" => {
            for ev in spex_workloads::mondial() {
                w.write(&ev).map_err(CliError::from)?;
            }
        }
        "wordnet" => {
            for ev in spex_workloads::wordnet() {
                w.write(&ev).map_err(CliError::from)?;
            }
        }
        "dmoz-structure" => {
            for ev in spex_workloads::dmoz_structure(scale) {
                w.write(&ev).map_err(CliError::from)?;
            }
        }
        "dmoz-content" => {
            for ev in spex_workloads::dmoz_content(scale) {
                w.write(&ev).map_err(CliError::from)?;
            }
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown dataset `{other}` (try mondial, wordnet, dmoz-structure, dmoz-content)"
            )))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_basic() {
        let o = parse_args(&args(&["a.b", "file.xml"])).unwrap();
        assert_eq!(o.query.as_deref(), Some("a.b"));
        assert_eq!(o.file.as_deref(), Some("file.xml"));
        assert!(!o.count);
    }

    #[test]
    fn parse_flags() {
        let o = parse_args(&args(&[
            "--count", "--stats", "--xpath", "//a", "--scale", "0.5",
        ]))
        .unwrap();
        assert!(o.count && o.stats && o.xpath);
        assert_eq!(o.scale, 0.5);
        assert_eq!(o.query.as_deref(), Some("//a"));
    }

    #[test]
    fn parse_errors() {
        assert!(parse_args(&args(&["--scale"])).is_err());
        assert!(parse_args(&args(&["--bogus"])).is_err());
        assert!(parse_args(&args(&["a", "b", "c"])).is_err());
    }

    /// `--scanner` and `--engine` are gone (production always runs the fast
    /// scanner on the VM): unknown options now, in both spellings.
    #[test]
    fn removed_flags_are_unknown_options() {
        for argv in [
            &["--scanner", "classic", "a"][..],
            &["--scanner=fast", "a"],
            &["--engine", "vm", "a"],
            &["--engine=network", "a"],
        ] {
            let err = parse_args(&args(argv)).unwrap_err();
            assert!(err.contains("unknown option"), "{argv:?}: {err}");
        }
    }

    fn run_cli(argv: &[&str], input: &str) -> (i32, String, String) {
        let o = parse_args(&args(argv)).unwrap();
        let mut stdin = input.as_bytes();
        let mut out = Vec::new();
        let mut err = Vec::new();
        let code = run(&o, &mut stdin, &mut out, &mut err);
        (
            code,
            String::from_utf8(out).unwrap(),
            String::from_utf8(err).unwrap(),
        )
    }

    #[test]
    fn evaluate_from_stdin() {
        let (code, out, _) = run_cli(&["a.c"], "<a><a><c/></a><b/><c/></a>");
        assert_eq!(code, 0);
        assert_eq!(out, "<c></c>\n");
    }

    #[test]
    fn count_mode() {
        let (code, out, _) = run_cli(&["--count", "_*._"], "<a><b/><c/></a>");
        assert_eq!(code, 0);
        assert_eq!(out.trim(), "3");
    }

    #[test]
    fn spans_mode() {
        let (code, out, _) = run_cli(&["--spans", "a.c"], "<a><a><c/></a><b/><c/></a>");
        assert_eq!(code, 0);
        assert_eq!(out.trim(), "8");
    }

    #[test]
    fn explain_mode() {
        let (code, out, _) = run_cli(&["--explain", "_*.a[b].c"], "");
        assert_eq!(code, 0);
        assert!(out.contains("VC(q0)"));
        assert!(out.contains("transducers"));
    }

    #[test]
    fn xpath_mode() {
        let (code, out, _) = run_cli(&["--xpath", "//a[b]/c"], "<a><a><c/></a><b/><c/></a>");
        assert_eq!(code, 0);
        assert_eq!(out, "<c></c>\n");
    }

    #[test]
    fn stats_to_stderr() {
        let (code, _, err) = run_cli(&["--stats", "a"], "<a/>");
        assert_eq!(code, 0);
        assert!(err.contains("events: 4"));
    }

    #[test]
    fn parse_limit_flags() {
        let o = parse_args(&args(&[
            "--limit-depth",
            "3",
            "--limit-buffered",
            "100",
            "--limit-candidates",
            "5",
            "--limit-formula",
            "8",
            "--limit-messages",
            "1000",
            "a",
        ]))
        .unwrap();
        assert_eq!(o.limits.max_stream_depth, Some(3));
        assert_eq!(o.limits.max_buffered_events, Some(100));
        assert_eq!(o.limits.max_live_candidates, Some(5));
        assert_eq!(o.limits.max_formula_size, Some(8));
        assert_eq!(o.limits.max_total_messages, Some(1000));
        assert!(parse_args(&args(&["--limit-depth"])).is_err());
        assert!(parse_args(&args(&["--limit-depth", "x"])).is_err());
    }

    #[test]
    fn stats_json_to_stderr() {
        let (code, out, err) = run_cli(&["--stats-json", "a.c"], "<a><c/></a>");
        assert_eq!(code, 0);
        assert_eq!(out, "<c></c>\n");
        let json = err.trim();
        assert!(json.starts_with('{') && json.ends_with('}'), "got {json}");
        assert!(json.contains("\"ticks\":6"));
        assert!(json.contains("\"transducers\":["));
        assert!(json.contains("\"kind\":\"CH(c)\""));
        // Per-transducer message counts sum to the global count.
        let global: u64 = json
            .split("\"messages\":")
            .nth(1)
            .unwrap()
            .split(',')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        let per_node: u64 = json
            .split("\"transducers\":")
            .nth(1)
            .unwrap()
            .split("\"messages\":")
            .skip(1)
            .map(|s| {
                s.split(',')
                    .next()
                    .unwrap()
                    .trim_end_matches(&['}', ']'][..])
            })
            .map(|s| s.parse::<u64>().unwrap())
            .sum();
        assert_eq!(per_node, global, "in {json}");
    }

    #[test]
    fn limit_breach_reports_error_after_flushing_determined_results() {
        // Depth cap of 3 aborts at <d>; the <c> result at depth 3 was
        // already determined and delivered before the abort.
        let (code, out, err) =
            run_cli(&["--limit-depth", "3", "a.c"], "<a><c>1</c><b><d/></b></a>");
        assert_eq!(code, 4);
        assert_eq!(out, "<c>1</c>\n");
        assert!(
            err.contains("resource limit exceeded: stream-depth 4 > limit 3"),
            "got {err}"
        );
        // The same stream passes untouched without the cap.
        let (code, out, _) = run_cli(&["a.c"], "<a><c>1</c><b><d/></b></a>");
        assert_eq!(code, 0);
        assert_eq!(out, "<c>1</c>\n");
    }

    #[test]
    fn bad_query_reports_error() {
        let (code, _, err) = run_cli(&["a..b"], "<a/>");
        assert_eq!(code, 1);
        assert!(err.contains("parse error"));
    }

    #[test]
    fn bad_xml_reports_error() {
        let (code, _, err) = run_cli(&["a"], "<a><b></a>");
        assert_eq!(code, 2);
        assert!(err.contains("mismatched"));
    }

    #[test]
    fn help_prints_usage() {
        let (code, out, _) = run_cli(&["--help"], "");
        assert_eq!(code, 0);
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn generate_mondial_is_valid_xml() {
        let o = parse_args(&args(&["--generate", "mondial"])).unwrap();
        let mut stdin = "".as_bytes();
        let mut out = Vec::new();
        let mut err = Vec::new();
        let code = run(&o, &mut stdin, &mut out, &mut err);
        assert_eq!(code, 0);
        let xml = String::from_utf8(out).unwrap();
        assert!(xml.starts_with("<?xml"));
        let stats = spex_xml::StreamStats::of_str(&xml).unwrap();
        assert!(stats.elements > 20_000);
    }

    #[test]
    fn generate_unknown_dataset_fails() {
        let o = parse_args(&args(&["--generate", "nope"])).unwrap();
        let mut stdin = "".as_bytes();
        let (mut out, mut err) = (Vec::new(), Vec::new());
        assert_eq!(run(&o, &mut stdin, &mut out, &mut err), 1);
    }

    #[test]
    fn stream_mode_accepts_document_sequences() {
        let (code, out, _) = run_cli(&["--stream", "r.x"], "<r><x>1</x></r><r><x>2</x></r>");
        assert_eq!(code, 0);
        assert_eq!(out, "<x>1</x>\n<x>2</x>\n");
        // Without --stream the same input is an error.
        let (code, _, err) = run_cli(&["r.x"], "<r><x>1</x></r><r><x>2</x></r>");
        assert_eq!(code, 2);
        assert!(err.contains("after the root element"));

        // 1,000 documents, each naming an element of its own: every mode
        // resets the run at each document boundary, so the symbol table
        // holds the query labels plus the one live per-document name.
        let many: String = (0..1000)
            .map(|i| format!("<r><u{i}/><x>doc {i}</x></r>"))
            .collect();
        for argv in [
            &["--stream", "--stats-json", "r.x"][..],
            &["--stream", "--recover", "repair", "--stats-json", "r.x"],
            &["--stream", "--stats-json", "--query", "q=r.x"],
        ] {
            let (code, out, err) = run_cli(argv, &many);
            assert_eq!(code, 0, "{argv:?}: {err}");
            assert_eq!(out.lines().count(), 1000, "{argv:?}");
            let symbols: usize = err
                .split("\"interned_symbols\":")
                .nth(1)
                .and_then(|rest| rest.split(',').next())
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("{argv:?}: no symbol count in {err}"));
            assert!(symbols <= 4, "{argv:?}: {symbols} symbols interned");
        }
    }

    #[test]
    fn parse_recovery_flags() {
        let o = parse_args(&args(&["--recover", "repair", "a"])).unwrap();
        assert_eq!(o.recover, RecoveryPolicy::Repair);
        let o = parse_args(&args(&["--recover=skip-subtree", "a"])).unwrap();
        assert_eq!(o.recover, RecoveryPolicy::SkipSubtree);
        let o = parse_args(&args(&["--on-truncation", "force-false", "a"])).unwrap();
        assert_eq!(o.on_truncation, TruncationOutcome::ForceFalse);
        let o = parse_args(&args(&["--on-truncation=drop", "a"])).unwrap();
        assert_eq!(o.on_truncation, TruncationOutcome::Drop);
        assert!(parse_args(&args(&["--recover", "bogus"])).is_err());
        assert!(parse_args(&args(&["--recover"])).is_err());
        assert!(parse_args(&args(&["--on-truncation", "bogus"])).is_err());
    }

    #[test]
    fn repair_mode_recovers_instead_of_failing() {
        // Strict: exit 2. Repair: the stray close is dropped, the clean
        // sibling subtree's result survives, and a summary goes to stderr.
        let xml = "<r><a><b/></a><x></nope></x></r>";
        let (code, _, _) = run_cli(&["r.a"], xml);
        assert_eq!(code, 2);
        let (code, out, err) = run_cli(&["--recover", "repair", "r.a"], xml);
        assert_eq!(code, 0);
        assert_eq!(out, "<a><b></b></a>\n");
        assert!(err.contains("recovered 1 input fault(s)"), "got {err}");
    }

    #[test]
    fn repair_mode_on_clean_input_matches_strict_output() {
        let xml = "<a><a><c/></a><b/><c/></a>";
        let strict = run_cli(&["a.c"], xml);
        let repair = run_cli(&["--recover", "repair", "a.c"], xml);
        assert_eq!(strict, repair);
        assert_eq!(repair.0, 0);
        assert_eq!(repair.2, "", "no fault summary on a clean stream");
    }

    #[test]
    fn truncation_outcome_is_honoured() {
        let xml = "<a><c/><b><x/>";
        let (code, out, err) = run_cli(&["--recover", "repair", "a.b"], xml);
        assert_eq!(code, 0);
        assert_eq!(out, "", "Drop withholds the undetermined candidate");
        assert!(err.contains("(stream truncated)"), "got {err}");
        let (code, out, _) = run_cli(
            &[
                "--recover",
                "repair",
                "--on-truncation",
                "force-false",
                "a.b",
            ],
            xml,
        );
        assert_eq!(code, 0);
        assert_eq!(out, "<b><x></x></b>\n");
    }

    #[test]
    fn recovery_works_with_count_and_spans_sinks() {
        let xml = "<r><a><b/></a><x></nope></x></r>";
        let (code, out, _) = run_cli(&["--recover", "repair", "--count", "r.a"], xml);
        assert_eq!(code, 0);
        assert_eq!(out.trim(), "1");
        let (code, out, _) = run_cli(&["--recover", "repair", "--spans", "r.a"], xml);
        assert_eq!(code, 0);
        assert_eq!(out.trim(), "2");
    }

    #[test]
    fn stats_json_gains_faults_section_only_when_recovering() {
        let xml = "<r><a><b/></a><x></nope></x></r>";
        let (_, _, err) = run_cli(&["--recover", "repair", "--stats-json", "r.a"], xml);
        let json = err.lines().next().unwrap();
        assert!(json.contains("\"faults\":{\"total\":1"), "got {json}");
        assert!(
            json.contains("\"by_kind\":{\"stray-close\":1}"),
            "got {json}"
        );
        assert!(json.contains("\"delivered\":1"), "got {json}");
        assert!(json.contains("\"quarantined\":0"), "got {json}");
        assert!(
            json.contains("\"first\":{\"kind\":\"stray-close\",\"offset\":19,"),
            "got {json}"
        );
        // Strict runs emit byte-identical JSON with no faults key.
        let (_, _, err) = run_cli(&["--stats-json", "a.c"], "<a><c/></a>");
        assert!(!err.contains("\"faults\""), "got {err}");
    }

    #[test]
    fn recovered_limit_breach_still_exits_4() {
        let (code, _, err) = run_cli(
            &["--recover", "repair", "--limit-depth", "2", "a.c"],
            "<a><b><c/></b></a>",
        );
        assert_eq!(code, 4);
        assert!(err.contains("resource limit exceeded"), "got {err}");
    }

    #[test]
    fn skip_subtree_mode_discards_the_damaged_element() {
        // Garbage markup inside <x>: SkipSubtree drops the whole <x>
        // subtree and the sibling <a> result survives.
        let xml = "<r><a><b/></a><x><!bogus </x></r>";
        let (code, out, _) = run_cli(&["--recover", "skip-subtree", "r.a"], xml);
        assert_eq!(code, 0);
        assert_eq!(out, "<a><b></b></a>\n");
    }

    #[test]
    fn multi_query_prefixes_results_with_names() {
        let xml = "<a><c>1</c><b><c>2</c></b></a>";
        let (code, out, _) = run_cli(&["--query", "cs=_*.c", "--query", "bs=_*.b"], xml);
        assert_eq!(code, 0);
        assert_eq!(out, "cs\t<c>1</c>\ncs\t<c>2</c>\nbs\t<b><c>2</c></b>\n");
    }

    #[test]
    fn multi_query_count_and_spans_modes() {
        let xml = "<a><c>1</c><b><c>2</c></b></a>";
        // Summary rows come out in the combiner's canonical (name-sorted)
        // order, not registration order — the same order `spex serve`
        // reports for a shared plan.
        let (code, out, _) = run_cli(&["--count", "--query=cs=_*.c", "--query=bs=_*.b"], xml);
        assert_eq!(code, 0);
        assert_eq!(out, "bs\t1\ncs\t2\n");
        let (code, out, _) = run_cli(&["--spans", "--query", "cs=_*.c"], xml);
        assert_eq!(code, 0);
        assert_eq!(out, "cs\t2\ncs\t6\n");
    }

    #[test]
    fn multi_query_explain_shows_sharing() {
        let (code, out, _) = run_cli(
            &["--explain", "--query", "x=_*.a.b", "--query", "y=_*.a.c"],
            "",
        );
        assert_eq!(code, 0);
        assert!(out.contains("query x: "), "got {out}");
        assert!(out.contains("shared network"), "got {out}");
    }

    #[test]
    fn multi_query_usage_errors() {
        // Not NAME=EXPR.
        let (code, _, err) = run_cli(&["--query", "nope"], "<a/>");
        assert_eq!(code, 1);
        assert!(err.contains("NAME=EXPR"), "got {err}");
        // Duplicate name.
        let (code, _, err) = run_cli(&["--query", "q=a", "--query", "q=b"], "<a/>");
        assert_eq!(code, 1);
        assert!(err.contains("twice"), "got {err}");
        // Bad expression.
        let (code, _, _) = run_cli(&["--query", "q=a..b"], "<a/>");
        assert_eq!(code, 1);
        // Incompatible flags.
        let (code, _, _) = run_cli(&["--xpath", "--query", "q=a"], "<a/>");
        assert_eq!(code, 1);
        let (code, _, err) = run_cli(&["--recover", "repair", "--query", "q=a"], "<a/>");
        assert_eq!(code, 1);
        assert!(err.contains("spex serve"), "got {err}");
    }

    #[test]
    fn multi_query_stream_mode_and_limits() {
        let (code, out, _) = run_cli(
            &["--stream", "--query", "q=r.x"],
            "<r><x>1</x></r><r><x>2</x></r>",
        );
        assert_eq!(code, 0);
        assert_eq!(out, "q\t<x>1</x>\nq\t<x>2</x>\n");
        let (code, _, err) = run_cli(
            &["--limit-depth", "2", "--query", "q=_*.c"],
            "<a><b><c/></b></a>",
        );
        assert_eq!(code, 4);
        assert!(err.contains("resource limit exceeded"), "got {err}");
    }

    #[test]
    fn trace_summary_goes_to_stderr() {
        let (code, out, err) = run_cli(&["--trace-summary", "a.c"], "<a><c/></a>");
        assert_eq!(code, 0);
        assert_eq!(out, "<c></c>\n");
        assert!(err.contains("trace summary:"), "got {err}");
        assert!(err.contains("engine.determination_latency"), "got {err}");
        assert!(err.contains("xml.events"), "got {err}");
        assert!(err.contains("cli.evaluate"), "got {err}");
    }

    #[test]
    fn trace_jsonl_writes_schema_valid_lines() {
        let dir = std::env::temp_dir().join("spex-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let path_str = path.to_str().unwrap().to_string();
        let (code, out, _) = run_cli(&["--trace-jsonl", &path_str, "a.c"], "<a><c/></a>");
        assert_eq!(code, 0);
        assert_eq!(out, "<c></c>\n");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.is_empty());
        for line in text.lines() {
            assert!(
                line.starts_with("{\"t\":\"") && line.ends_with('}'),
                "bad record: {line}"
            );
        }
        assert!(text.contains("\"t\":\"hist\""), "got {text}");
        assert!(text.contains("engine.determination_latency"), "got {text}");
        assert!(text.contains("\"xml.events\""), "got {text}");
        // `--trace-jsonl=PATH` spelling parses too.
        let o = parse_args(&args(&[&format!("--trace-jsonl={path_str}"), "a"])).unwrap();
        assert_eq!(o.trace_jsonl.as_deref(), Some(path_str.as_str()));
        assert!(parse_args(&args(&["--trace-jsonl"])).is_err());
    }

    #[test]
    fn trace_works_under_recovery_and_multi_query() {
        let xml = "<r><a><b/></a><x></nope></x></r>";
        let (code, _, err) = run_cli(&["--recover", "repair", "--trace-summary", "r.a"], xml);
        assert_eq!(code, 0);
        assert!(err.contains("xml.faults"), "got {err}");
        let (code, _, err) = run_cli(&["--trace-summary", "--query", "q=_*.c"], "<a><c/></a>");
        assert_eq!(code, 0);
        assert!(err.contains("trace summary:"), "got {err}");
        assert!(err.contains("engine.determination_latency"), "got {err}");
    }

    /// An interrupted `--checkpoint` run plus a `--resume` run over the
    /// same stream reproduces the uninterrupted output byte-for-byte.
    #[test]
    fn checkpoint_then_resume_reproduces_the_tail() {
        let dir = std::env::temp_dir().join(format!("spex-cli-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("run.snapshot");
        let snap_str = snap.to_str().unwrap().to_string();
        let xml = "<r><x>1</x></r><r><x>2</x></r><r><x>3</x></r>";
        let (code, full, _) = run_cli(&["--stream", "r.x"], xml);
        assert_eq!(code, 0);

        // "Crash" after two documents: run only that prefix.
        let cut = xml.len() / 3 * 2;
        let (code, head, _) = run_cli(&["--stream", "--checkpoint", &snap_str, "r.x"], &xml[..cut]);
        assert_eq!(code, 0);
        assert_eq!(head, "<x>1</x>\n<x>2</x>\n");
        // Resume over the FULL stream: the consumed prefix is skipped.
        let (code, tail, _) = run_cli(&["--stream", "--resume", &snap_str, "r.x"], xml);
        assert_eq!(code, 0);
        assert_eq!(tail, "<x>3</x>\n");
        assert_eq!(format!("{head}{tail}"), full);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Corrupt or truncated snapshot bytes are a structured I/O failure
    /// (exit 3), never a panic; so is resuming past the end of the input.
    #[test]
    fn resume_rejects_corrupt_snapshots_and_short_input() {
        let dir = std::env::temp_dir().join(format!("spex-cli-ckpt-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("run.snapshot");
        let snap_str = snap.to_str().unwrap().to_string();
        let xml = "<r><x>1</x></r><r><x>2</x></r>";
        let (code, _, _) = run_cli(&["--stream", "--checkpoint", &snap_str, "r.x"], xml);
        assert_eq!(code, 0);

        // Bit flip in the payload → CRC failure.
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&snap, &bytes).unwrap();
        let (code, _, err) = run_cli(&["--stream", "--resume", &snap_str, "r.x"], xml);
        assert_eq!(code, 3, "stderr: {err}");

        // Truncation → structured decode error.
        let bytes = std::fs::read(&snap).unwrap();
        std::fs::write(&snap, &bytes[..bytes.len().min(9)]).unwrap();
        let (code, _, _) = run_cli(&["--stream", "--resume", &snap_str, "r.x"], xml);
        assert_eq!(code, 3);

        // A good snapshot against a shorter stream than it consumed.
        let (code, _, _) = run_cli(&["--stream", "--checkpoint", &snap_str, "r.x"], xml);
        assert_eq!(code, 0);
        let (code, _, err) = run_cli(&["--stream", "--resume", &snap_str, "r.x"], "<r/>");
        assert_eq!(code, 3);
        assert!(err.contains("same stream"), "got {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_flag_conflicts_are_usage_errors() {
        for argv in [
            vec!["--checkpoint", "/tmp/s", "--query", "q=a"],
            vec!["--resume", "/tmp/s", "--recover", "repair", "a"],
            vec!["--checkpoint", "/tmp/s", "--count", "a"],
            vec!["--resume", "/tmp/s", "--spans", "a"],
        ] {
            let (code, _, err) = run_cli(&argv, "<a/>");
            assert_eq!(code, 1, "argv {argv:?}: {err}");
        }
        // `--checkpoint=PATH` / `--resume=PATH` spellings parse.
        let o = parse_args(&args(&["--checkpoint=/tmp/s", "--resume=/tmp/r", "a"])).unwrap();
        assert_eq!(o.checkpoint.as_deref(), Some("/tmp/s"));
        assert_eq!(o.resume.as_deref(), Some("/tmp/r"));
        assert!(parse_args(&args(&["--checkpoint"])).is_err());
        assert!(parse_args(&args(&["--resume"])).is_err());
    }

    /// Where a [`run_dripped`] probe is called from.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum At {
        Read,
        Write,
    }

    type Probe<'a> = std::cell::RefCell<&'a mut dyn FnMut(At, &[u8])>;

    /// Stdin of [`run_dripped`]: at most `chunk` bytes per `read`.
    struct Drip<'a> {
        input: &'a [u8],
        chunk: usize,
        reads: usize,
        stdout: &'a std::cell::RefCell<Vec<u8>>,
        probe: &'a Probe<'a>,
    }

    impl Read for Drip<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.reads > 0 {
                (*self.probe.borrow_mut())(At::Read, &self.stdout.borrow());
            }
            self.reads += 1;
            let n = self.chunk.min(buf.len()).min(self.input.len());
            buf[..n].copy_from_slice(&self.input[..n]);
            self.input = &self.input[n..];
            Ok(n)
        }
    }

    /// Stdout of [`run_dripped`]: keeps the bytes and counts `write` calls.
    struct Screen<'a> {
        writes: usize,
        stdout: &'a std::cell::RefCell<Vec<u8>>,
        probe: &'a Probe<'a>,
    }

    impl Write for Screen<'_> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            (*self.probe.borrow_mut())(At::Write, &self.stdout.borrow());
            self.writes += 1;
            self.stdout.borrow_mut().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    struct Dripped {
        code: i32,
        out: String,
        err: String,
        reads: usize,
        writes: usize,
    }

    /// Run `spex` in-process with `input` arriving `chunk` bytes per read.
    /// `probe` sees stdout so far before every read but the first — when
    /// spex is about to wait for input — and before every stdout `write`.
    fn run_dripped(
        argv: &[&str],
        input: &[u8],
        chunk: usize,
        mut probe: impl FnMut(At, &[u8]),
    ) -> Dripped {
        let o = parse_args(&args(argv)).unwrap();
        let stdout = std::cell::RefCell::new(Vec::new());
        let probe: Probe<'_> = std::cell::RefCell::new(&mut probe);
        let mut stdin = Drip {
            input,
            chunk,
            reads: 0,
            stdout: &stdout,
            probe: &probe,
        };
        let mut screen = Screen {
            writes: 0,
            stdout: &stdout,
            probe: &probe,
        };
        let mut err = Vec::new();
        let code = run(&o, &mut stdin, &mut screen, &mut err);
        Dripped {
            code,
            out: String::from_utf8(stdout.take()).unwrap(),
            err: String::from_utf8(err).unwrap(),
            reads: stdin.reads,
            writes: screen.writes,
        }
    }

    fn lines(out: &[u8]) -> usize {
        out.iter().filter(|&&b| b == b'\n').count()
    }

    /// A flat document with `n` results for `r.x` (attribute and escaped
    /// text) and one `_*.y` result per three; what `spex r.x` prints; and
    /// what `spex --query a=r.x --query b=_*.y` prints.
    fn flat_doc(n: usize) -> (String, String, String) {
        let (mut xml, mut single, mut multi) = ("<r>".to_string(), String::new(), String::new());
        for i in 0..n {
            let x = format!("<x id=\"{i}\">v&amp;{i}</x>");
            xml.push_str(&x);
            single.push_str(&format!("{x}\n"));
            multi.push_str(&format!("a\t{x}\n"));
            if i % 3 == 0 {
                xml.push_str("<y/>");
                multi.push_str("b\t<y></y>\n");
            }
        }
        xml.push_str("</r>");
        (xml, single, multi)
    }

    /// Results leave stdout when spex would wait for input: with input
    /// arriving 4 KiB per read, there is at most one stdout `write` per
    /// read (plus the end of run), not one per fragment — in single-query
    /// and in `--query` mode — and the bytes are unchanged.
    #[test]
    fn one_write_per_input_read() {
        let (xml, single, multi) = flat_doc(6000);
        for (argv, expected) in [
            (&["r.x"][..], &single),
            (&["--query", "a=r.x", "--query", "b=_*.y"], &multi),
        ] {
            let run = run_dripped(argv, xml.as_bytes(), 4096, |_, _| {});
            assert_eq!(run.code, 0, "{argv:?}: {}", run.err);
            assert_eq!(&run.out, expected, "{argv:?}");
            assert!(
                run.writes <= run.reads + 2,
                "{argv:?}: {} stdout writes for {} input reads",
                run.writes,
                run.reads
            );
        }
    }

    /// The exact, timing-free form of the benchmark's stalled-stdin check:
    /// whenever spex is about to read again, stdout holds every fragment a
    /// pump stepped over the same input prefix has completed.
    #[test]
    fn results_reach_stdout_before_the_next_read() {
        let (xml, _, _) = flat_doc(3000);
        let network = CompiledNetwork::compile(&"r.x".parse().unwrap());
        let mut pump = Pump::new(network.run(CountingSink::new()), RecoveryOptions::default());
        let mut due = Vec::new();
        for chunk in xml.as_bytes().chunks(4096) {
            pump.parser_mut().feed(chunk);
            while pump.step(usize::MAX).unwrap() != Yield::NeedMore {}
            due.push(pump.machine().stats().results as usize);
        }
        assert!(due.len() > 10 && due[0] > 0 && due[0] < due[due.len() - 1]);

        let mut seen = Vec::new();
        let run = run_dripped(&["r.x"], xml.as_bytes(), 4096, |at, out| {
            if at == At::Read {
                seen.push(lines(out));
            }
        });
        assert_eq!(run.code, 0, "{}", run.err);
        assert_eq!(seen, due);
    }

    /// Under `--checkpoint`, a snapshot never counts a fragment as
    /// delivered before stdout has it: checked before every stdout write
    /// and every read, with several document boundaries per read.
    #[test]
    fn checkpoints_count_only_fragments_stdout_has() {
        let dir = std::env::temp_dir().join(format!("spex-cli-ckpt-order-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("run.snapshot");
        let snap_str = snap.to_str().unwrap().to_string();
        let xml: String = (0..400)
            .map(|i| format!("<r><x>{i}</x><x>{i}b</x></r>"))
            .collect();
        let mut checks = 0;
        let run = run_dripped(
            &["--stream", "--checkpoint", &snap_str, "r.x"],
            xml.as_bytes(),
            64,
            |at, out| {
                let Ok(bytes) = std::fs::read(&snap) else {
                    return;
                };
                let delivered = Snapshot::decode(&bytes).unwrap().session.unwrap().delivered[0];
                assert!(
                    delivered as usize <= lines(out),
                    "{at:?}: snapshot counts {delivered} delivered, stdout has {}",
                    lines(out)
                );
                checks += 1;
            },
        );
        assert_eq!(run.code, 0, "{}", run.err);
        assert_eq!(run.out.lines().count(), 800);
        assert!(checks > 100, "{checks} checks");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A strict syntax error mid-stream still prints every fragment
    /// completed before it — also when they and the error arrive in one
    /// read — and then exits 2.
    #[test]
    fn strict_syntax_error_prints_what_came_before_it() {
        let body: String = (0..500).map(|i| format!("<x>{i}</x>")).collect();
        let xml = format!("<r>{body}<bad></r>");
        let fragments: String = (0..500).map(|i| format!("<x>{i}</x>\n")).collect();
        let tagged: String = (0..500).map(|i| format!("q\t<x>{i}</x>\n")).collect();
        for chunk in [4096, usize::MAX] {
            for (argv, expected) in [(&["r.x"][..], &fragments), (&["--query", "q=r.x"], &tagged)] {
                let run = run_dripped(argv, xml.as_bytes(), chunk, |_, _| {});
                assert_eq!(run.code, 2, "{argv:?} chunk {chunk}");
                assert!(run.err.contains("mismatched"), "{}", run.err);
                assert_eq!(&run.out, expected, "{argv:?} chunk {chunk}");
            }
        }
    }

    #[test]
    fn file_input_and_missing_file() {
        let dir = std::env::temp_dir().join("spex-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.xml");
        std::fs::write(&path, "<a><c/></a>").unwrap();
        let (code, out, _) = run_cli(&["a.c", path.to_str().unwrap()], "");
        assert_eq!(code, 0);
        assert_eq!(out.trim(), "<c></c>");
        let (code, _, err) = run_cli(&["a.c", "/nonexistent/x.xml"], "");
        assert_eq!(code, 3);
        assert!(err.contains("x.xml"));
    }
}
