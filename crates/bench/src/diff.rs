//! The VM ↔ reference-executor differential test rig.
//!
//! The transducer network runs as a flat [`spex_core::Plan`] executed by
//! [`spex_core::PlanRun`]; [`spex_core::network::Run`] is a second schedule
//! over the same [`spex_core::Machine`] — its own wiring and queues, every
//! node stepped on every tick, per-message accounting — and is the
//! reference the VM's scheduling is compared against. The two share
//! everything around a tick (operator states, limits, arena recycling,
//! latency, session reset), so a divergence points at the VM's own
//! schedule: its CSR wiring, wake sets, document register, static
//! document-message accounting or batched accounting. This module is the proof obligation: seeded random
//! documents × seeded random rpeq queries are evaluated by **both**
//! executors (plus the DOM baseline as an outside witness), and the first
//! divergence in delivered fragments, engine statistics, per-transducer
//! statistics or determination-latency histograms fails the run.
//!
//! Layers of comparison:
//!
//! 1. **Clean streams** ([`diff_case`]) — byte-identical fragments, equal
//!    [`spex_core::EngineStats`] / [`spex_core::TransducerStats`], equal
//!    per-output determination-latency summaries, and a result count that
//!    matches the in-memory DOM evaluation.
//! 2. **Corrupted streams** ([`diff_fault_case`]) — every PR-2 fault
//!    [`crate::fault::Mutator`] × recovery policy: the mutant is drained
//!    once through the recovering reader into its repaired event sequence,
//!    and that one sequence goes through both executors under the same
//!    comparison. (The recovery driver's own bookkeeping — `RunReport`,
//!    quarantine — is judged against DOM by `tests/recovery.rs`.)
//! 3. **Sessions** (`diff_session_case`) — a combined set of up to 32
//!    random queries over several random documents in one run, reset at
//!    every `</$>` (one case in four cuts a document short before its
//!    reset): both executors must agree as above, and each document's
//!    fragments must equal a fresh run's over that document alone — the
//!    oracle for the in-place session reset, which both executors share.
//! 4. **Volume** ([`vm_diff`]) — the `harness vm-diff` subcommand and the CI
//!    `vm-diff-smoke` job drive thousands of seeded cases; any entry in
//!    [`DiffOutcome::divergences`] is a bug in the VM's schedule.
//! 5. **Scanners** ([`scan_diff`]) — PR 10 adds a SWAR fast path to the XML
//!    reader; the same generators compare the fast and classic scanners
//!    (clean stream + every mutator × both policies) through the full
//!    recovery pipeline so the byte-scanning optimization stays
//!    observationally invisible.
//!
//! Everything is deterministic per seed so a failing case replays exactly.

use crate::fault::{mutate, Mutator};
use crate::rig::Report;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spex_baseline::DomEvaluator;
use spex_core::{
    evaluate_recovering, CompiledNetwork, FragmentCollector, RecoveryOptions, ResourceLimits,
};
use spex_query::{Label, Rpeq};
use spex_trace::HistogramSummary;
use spex_xml::{Document, RecoveryPolicy, ScannerKind, XmlEvent};

/// The closed label alphabet. Small on purpose: collisions between query
/// labels and document labels are what make random cases select anything.
const LABELS: [&str; 4] = ["a", "b", "c", "d"];

/// Text snippets spliced between elements (entities included, so the
/// fault mutators always find something to corrupt).
const TEXTS: [&str; 4] = ["x", "some text", "a &amp; b", "42"];

fn gen_label(rng: &mut StdRng) -> Label {
    if rng.gen_bool(0.2) {
        Label::Wildcard
    } else {
        Label::name(LABELS[rng.gen_range(0..LABELS.len())])
    }
}

/// One leaf step. `in_qualifier` excludes `^label`: the compiler rejects
/// the preceding axis inside qualifiers (see `CompileError`).
fn gen_atom(rng: &mut StdRng, in_qualifier: bool) -> Rpeq {
    match rng.gen_range(0..12u32) {
        0..=5 => Rpeq::Step(gen_label(rng)),
        6..=7 => Rpeq::Plus(gen_label(rng)),
        8..=9 => Rpeq::Star(gen_label(rng)),
        10 => Rpeq::Following(gen_label(rng)),
        _ if in_qualifier => Rpeq::Step(gen_label(rng)),
        _ => Rpeq::Preceding(gen_label(rng)),
    }
}

/// One composite piece: an atom possibly qualified, unioned, or made
/// optional — the shapes the VM lowering has to get right (qualifier
/// sub-networks, Split/Join pairs, Union merges).
fn gen_piece(rng: &mut StdRng, depth: usize, in_qualifier: bool) -> Rpeq {
    let mut q = gen_atom(rng, in_qualifier);
    if depth == 0 {
        return q;
    }
    if rng.gen_bool(0.35) {
        // Qualifier bodies are full rpeqs: nested qualifiers, unions and
        // closures under them are all fair game.
        let body = gen_piece(rng, depth - 1, true);
        q = q.with_qualifier(body);
    }
    if rng.gen_bool(0.2) {
        q = q.or(gen_piece(rng, depth - 1, in_qualifier));
    }
    if rng.gen_bool(0.15) {
        q = q.optional();
    }
    q
}

/// A seeded random query: a short concatenation chain of composite pieces,
/// usually anchored with the paper's `_*` descendant prefix.
pub fn gen_query(rng: &mut StdRng) -> Rpeq {
    let mut q = if rng.gen_bool(0.6) {
        Rpeq::descend()
    } else {
        gen_piece(rng, 1, false)
    };
    for _ in 0..rng.gen_range(1..4usize) {
        q = q.then(gen_piece(rng, 2, false));
    }
    q
}

fn gen_element(rng: &mut StdRng, out: &mut String, depth: usize) {
    let label = LABELS[rng.gen_range(0..LABELS.len())];
    out.push('<');
    out.push_str(label);
    out.push('>');
    if depth > 0 {
        for _ in 0..rng.gen_range(0..4usize) {
            if rng.gen_bool(0.25) {
                out.push_str(TEXTS[rng.gen_range(0..TEXTS.len())]);
            } else {
                gen_element(rng, out, depth - 1);
            }
        }
    }
    out.push_str("</");
    out.push_str(label);
    out.push('>');
}

/// A seeded random well-formed document over the closed alphabet.
pub fn gen_document(rng: &mut StdRng) -> String {
    let mut out = String::new();
    let depth = rng.gen_range(2..6usize);
    gen_element(rng, &mut out, depth);
    out
}

/// What one executor produced on an event sequence.
#[derive(PartialEq)]
struct Outcome {
    fragments: Vec<String>,
    stats: spex_core::EngineStats,
    transducers: Vec<spex_core::TransducerStats>,
    latency: Vec<(usize, HistogramSummary)>,
}

/// Drive `$run` (a `PlanRun` or the reference `Run`, which derefs to the
/// same `Machine`; `push` and `finish_full` are each type's own, so a
/// macro rather than a trait) over `$events`, delivering into `$sink`. `finish` is for
/// streams that end at a document boundary; one cut at a terminal reader
/// error is compared in the state it reached.
macro_rules! drive {
    ($run:expr, $events:expr, $sink:ident) => {{
        let mut run = $run;
        for ev in &$events.events {
            run.push(ev.clone());
        }
        let latency = run
            .determination_latency()
            .iter()
            .map(|(id, h)| (*id, h.summary()))
            .collect();
        let (stats, transducers) = if $events.complete {
            run.finish_full()
        } else {
            (run.stats().clone(), run.transducer_stats().to_vec())
        };
        Outcome {
            fragments: $sink.into_fragments(),
            stats,
            transducers,
            latency,
        }
    }};
}

/// Push one event sequence through the VM and the reference executor and
/// append one line per divergence, each prefixed with `label`.
fn compare_executors(
    network: &CompiledNetwork,
    events: &EventSequence,
    label: &str,
    divergences: &mut Vec<String>,
) -> Vec<String> {
    let mut sink = FragmentCollector::new();
    let vm = drive!(network.run(vec![&mut sink]), events, sink);
    let mut sink = FragmentCollector::new();
    let reference = drive!(
        spex_core::network::Run::new(network.spec(), vec![&mut sink]),
        events,
        sink
    );
    if vm.fragments != reference.fragments {
        divergences.push(format!(
            "{label}fragments diverge: vm delivered {:?}, network {:?}",
            vm.fragments, reference.fragments
        ));
    }
    if vm.stats != reference.stats {
        divergences.push(format!(
            "{label}engine stats diverge: vm {:?}, network {:?}",
            vm.stats, reference.stats
        ));
    }
    if vm.transducers != reference.transducers {
        divergences.push(format!("{label}per-transducer stats diverge"));
    }
    if vm.latency != reference.latency {
        divergences.push(format!(
            "{label}determination-latency histograms diverge: vm {:?}, network {:?}",
            vm.latency, reference.latency
        ));
    }
    vm.fragments
}

/// What a reader made of one input.
struct EventSequence {
    events: Vec<XmlEvent>,
    /// `false` when the reader gave up with a terminal error, leaving the
    /// sequence cut mid-document.
    complete: bool,
}

/// Drain `xml` through a reader under `policy` into the (repaired) event
/// sequence, up to the terminal error if the reader gives up.
fn repaired_events(xml: &str, policy: RecoveryPolicy) -> EventSequence {
    let mut reader = spex_xml::Reader::from_bytes(xml.as_bytes().to_vec()).with_recovery(policy);
    let mut events = Vec::new();
    let complete = loop {
        match reader.next_event() {
            Ok(Some(ev)) => events.push(ev),
            Ok(None) => break true,
            Err(_) => break false,
        }
    };
    EventSequence { events, complete }
}

/// Run one clean-stream case through VM, reference executor, and the DOM
/// baseline. Returns one human-readable line per divergence (empty =
/// agreement).
pub fn diff_case(query: &Rpeq, xml: &str) -> Vec<String> {
    let mut divergences = Vec::new();
    let network = match CompiledNetwork::try_compile(query) {
        Ok(n) => n,
        Err(e) => return vec![format!("query failed to compile: {e}")],
    };
    let events = repaired_events(xml, RecoveryPolicy::Strict);
    let fragments = compare_executors(&network, &events, "", &mut divergences);
    // Outside witness: the in-memory DOM evaluation must select the same
    // number of nodes as the streamed run delivered fragments. Skipped when
    // a following step sits inside a qualifier body: the streamed engine
    // determines qualifier conditions when the candidate's subtree closes,
    // so a `[~l]` condition satisfiable only by later stream content is
    // decided false, while the DOM evaluates it over the whole document.
    // Both executors implement the streamed semantics identically (the
    // comparison above still covers these queries); the witness is only
    // meaningful where the two models agree.
    if !following_in_qualifier(query) {
        check_dom_witness(query, xml, &fragments, &mut divergences);
    }
    divergences
}

/// Does a `~label` step occur anywhere inside a qualifier body?
fn following_in_qualifier(query: &Rpeq) -> bool {
    fn go(q: &Rpeq, in_qualifier: bool) -> bool {
        match q {
            Rpeq::Following(_) => in_qualifier,
            Rpeq::Empty | Rpeq::Step(_) | Rpeq::Plus(_) | Rpeq::Star(_) | Rpeq::Preceding(_) => {
                false
            }
            Rpeq::Union(a, b) | Rpeq::Concat(a, b) => go(a, in_qualifier) || go(b, in_qualifier),
            Rpeq::Optional(a) => go(a, in_qualifier),
            Rpeq::Qualified(a, qual) => go(a, in_qualifier) || go(qual, true),
        }
    }
    go(query, false)
}

fn check_dom_witness(query: &Rpeq, xml: &str, fragments: &[String], divergences: &mut Vec<String>) {
    if let Ok(events) = spex_xml::reader::parse_events(xml) {
        if let Ok(doc) = Document::from_events(events) {
            let dom = DomEvaluator::new(&doc).evaluate(query).len();
            if dom != fragments.len() {
                divergences.push(format!(
                    "DOM oracle selected {dom} node(s), vm delivered {}",
                    fragments.len()
                ));
            }
        }
    }
}

/// One session of a combined query set over several documents: the events
/// of each document, and whether it is cut short before its reset.
struct SessionDocument {
    events: Vec<XmlEvent>,
    cut: bool,
}

/// What one executor delivered over a session: per document, the fragments
/// each query delivered, plus the run's end-of-run measurements.
struct SessionOutcome {
    per_document: Vec<Vec<Vec<String>>>,
    stats: spex_core::EngineStats,
    transducers: Vec<spex_core::TransducerStats>,
    latency: Vec<(usize, HistogramSummary)>,
}

/// Drive `$run` (a `PlanRun` or the reference `Run`) over the session's
/// documents, resetting after each, and record which fragments each
/// document delivered.
macro_rules! drive_session {
    ($run:expr, $documents:expr) => {{
        let mut run = $run;
        let mut per_document = Vec::new();
        let mut seen = vec![0; run.sinks().len()];
        for doc in $documents {
            for ev in &doc.events {
                run.push(ev.clone());
            }
            run.reset_session();
            per_document.push(
                run.sinks()
                    .iter()
                    .zip(&mut seen)
                    .map(|(sink, seen)| {
                        let new = sink.fragments()[*seen..].to_vec();
                        *seen += new.len();
                        new
                    })
                    .collect::<Vec<_>>(),
            );
        }
        let latency = run
            .determination_latency()
            .iter()
            .map(|(id, h)| (*id, h.summary()))
            .collect();
        let (stats, transducers) = run.finish_full();
        SessionOutcome {
            per_document,
            stats,
            transducers,
            latency,
        }
    }};
}

/// A session case: `queries` combined into one network, run over
/// `documents` with a session reset after each, on the VM and on the
/// reference executor. They must agree on every document's fragments and on
/// the statistics and determination latency of the whole session; and each
/// document's fragments must equal those of a fresh VM run of the set over
/// that document alone (a cut document's: those its prefix delivered, with
/// no end-of-stream flush). Returns one line per divergence, and whether the
/// set's plan runs a label switch.
fn diff_session_case(queries: &[Rpeq], documents: &[SessionDocument]) -> (Vec<String>, bool) {
    let named: Vec<(String, Rpeq)> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| (format!("q{i}"), q.clone()))
        .collect();
    let set = match spex_combine::combine(&named) {
        Ok(c) => c.set,
        Err(e) => return (vec![format!("query set failed to combine: {e}")], false),
    };
    let collectors = || -> Vec<FragmentCollector> {
        (0..set.ids().len())
            .map(|_| FragmentCollector::new())
            .collect()
    };
    let vm = drive_session!(set.run(collectors()), documents);
    let reference = drive_session!(
        spex_core::network::Run::with_slots(set.spec(), collectors(), set.slot_of()),
        documents
    );
    let mut divergences = Vec::new();
    if vm.per_document != reference.per_document {
        divergences.push(format!(
            "session fragments diverge: vm delivered {:?}, network {:?}",
            vm.per_document, reference.per_document
        ));
    }
    if vm.stats != reference.stats {
        divergences.push(format!(
            "session engine stats diverge: vm {:?}, network {:?}",
            vm.stats, reference.stats
        ));
    }
    if vm.transducers != reference.transducers {
        divergences.push("session per-transducer stats diverge".to_string());
    }
    if vm.latency != reference.latency {
        divergences.push(format!(
            "session determination-latency histograms diverge: vm {:?}, network {:?}",
            vm.latency, reference.latency
        ));
    }
    for (k, doc) in documents.iter().enumerate() {
        let mut run = set.run(collectors());
        for ev in &doc.events {
            run.push(ev.clone());
        }
        let fresh: Vec<Vec<String>> = if doc.cut {
            run.into_sinks()
        } else {
            run.finish_into_sinks().2
        }
        .into_iter()
        .map(FragmentCollector::into_fragments)
        .collect();
        if vm.per_document[k] != fresh {
            divergences.push(format!(
                "document {k}{} after a session reset delivered {:?}, a fresh run {:?}",
                if doc.cut { " (cut short)" } else { "" },
                vm.per_document[k],
                fresh
            ));
        }
    }
    (divergences, set.plan().switch_count() > 0)
}

/// A seeded random session: 1–32 queries over 2–6 documents; in one case
/// out of four, one document is cut short (before its `</$>`).
fn gen_session(rng: &mut StdRng) -> (Vec<Rpeq>, Vec<SessionDocument>) {
    let queries = (0..rng.gen_range(1..33usize))
        .map(|_| gen_query(rng))
        .collect();
    let n = rng.gen_range(2..7usize);
    let cut = rng.gen_bool(0.25).then(|| rng.gen_range(0..n));
    let documents = (0..n)
        .map(|k| {
            let mut events =
                spex_xml::reader::parse_events(&gen_document(rng)).expect("generated XML parses");
            let cut = cut == Some(k);
            if cut {
                events.truncate(rng.gen_range(1..events.len()));
            }
            SessionDocument { events, cut }
        })
        .collect();
    (queries, documents)
}

/// Run every PR-2 fault mutator × recovery policy over `xml`: each mutant's
/// repaired event sequence (cut at the terminal error under `strict`) goes
/// through the VM and the reference executor, which must agree on
/// fragments, statistics and determination latency exactly as on a clean
/// stream.
pub fn diff_fault_case(query: &Rpeq, xml: &str, seed: u64) -> Vec<String> {
    let mut divergences = Vec::new();
    let network = match CompiledNetwork::try_compile(query) {
        Ok(n) => n,
        Err(e) => return vec![format!("query failed to compile: {e}")],
    };
    for mutator in Mutator::ALL {
        let mutation = mutate(xml, mutator, seed);
        if !mutation.changed {
            continue;
        }
        for policy in [
            RecoveryPolicy::Strict,
            RecoveryPolicy::Repair,
            RecoveryPolicy::SkipSubtree,
        ] {
            let events = repaired_events(&mutation.xml, policy);
            let label = format!("{mutator}/{policy}: ");
            compare_executors(&network, &events, &label, &mut divergences);
        }
    }
    divergences
}

/// What the recovery pipeline produced on a stream under a recovery policy.
struct FaultOutcome {
    fragments: Vec<String>,
    report: spex_core::RunReport,
}

fn run_recovering(
    network: &CompiledNetwork,
    policy: RecoveryPolicy,
    scanner: ScannerKind,
    xml: &str,
) -> Result<FaultOutcome, String> {
    let mut collector = FragmentCollector::new();
    let options = RecoveryOptions {
        policy,
        scanner,
        ..RecoveryOptions::default()
    };
    let report = evaluate_recovering(
        network,
        std::io::Cursor::new(xml.as_bytes().to_vec()),
        options,
        ResourceLimits::default(),
        &mut collector,
    )
    .map_err(|e| format!("{policy}: {e}"))?;
    Ok(FaultOutcome {
        fragments: collector.into_fragments(),
        report,
    })
}

/// Aggregate outcome of a [`vm_diff`] sweep.
#[derive(Debug, Clone, Default)]
pub struct DiffOutcome {
    /// Clean-stream cases compared.
    pub cases: usize,
    /// Corrupted-stream (mutator × policy pair) comparisons run.
    pub fault_comparisons: usize,
    /// Session cases compared.
    pub sessions: usize,
    /// Documents the session cases ran.
    pub session_documents: usize,
    /// Session documents cut short before their reset.
    pub session_cuts: usize,
    /// Fragments delivered (and agreed on) across all clean cases.
    pub fragments: usize,
    /// Clean cases that selected at least one node.
    pub selecting_cases: usize,
    /// Cases whose clean query or session set formed a label switch.
    pub switch_cases: usize,
    /// Cases whose clean query formed a label switch.
    pub clean_switch_cases: usize,
    /// Every divergence found; must be empty.
    pub divergences: Vec<String>,
    /// Set by [`scan_diff`]: the sweep compared the two scanners, not the
    /// executors.
    pub scanners: bool,
}

impl DiffOutcome {
    /// The sweep's report, as `harness vm-diff` or `harness scan-diff`
    /// prints it.
    pub fn report(self) -> Report {
        let (compared, agreed, comparisons, prefix) = if self.scanners {
            (
                "case(s) compared fast-vs-classic",
                "delivered",
                "stream comparison(s) (clean + mutators, x policy)",
                "SCANNER DIVERGENCE: ",
            )
        } else {
            (
                "clean case(s) compared",
                "agreed byte-for-byte",
                "fault comparison(s) (mutator x policy x executor)",
                "DIVERGENCE: ",
            )
        };
        let mut summary = vec![format!(
            "{} {compared} ({} selected >=1 node, {} fragment(s) {agreed})",
            self.cases, self.selecting_cases, self.fragments
        )];
        let mut failures = self.divergences;
        if self.sessions > 0 {
            summary.push(format!(
                "{} session case(s) compared ({} document(s), {} cut short, reset at each </$>)",
                self.sessions, self.session_documents, self.session_cuts
            ));
            summary.push(format!(
                "{} case(s) formed a label switch ({} by the clean query)",
                self.switch_cases, self.clean_switch_cases
            ));
            // A change that silently stops forming switches would leave the
            // switched schedule uncompared.
            if self.switch_cases * 100 < self.cases {
                failures.push(format!(
                    "only {} of {} case(s) formed a label switch; at least 1 in 100 must",
                    self.switch_cases, self.cases
                ));
            }
        }
        summary.push(format!(
            "{} {comparisons}, {} divergence(s)",
            self.fault_comparisons,
            failures.len()
        ));
        Report {
            summary,
            prefix,
            failures,
        }
    }
}

/// The rig's top-level driver: `cases` seeded random (document, query)
/// pairs through [`diff_case`], plus `fault_rounds` seeds of
/// [`diff_fault_case`] per pair, plus one session case
/// (`diff_session_case`) per pair, drawn from a second stream so the
/// pairs stay those of the same seed without sessions. Deterministic per
/// `seed`.
pub fn vm_diff(cases: usize, seed: u64, fault_rounds: usize) -> DiffOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut session_rng = StdRng::seed_from_u64(seed ^ 0x5e55_1011);
    let mut outcome = DiffOutcome::default();
    for i in 0..cases {
        let (queries, documents) = gen_session(&mut session_rng);
        outcome.sessions += 1;
        outcome.session_documents += documents.len();
        outcome.session_cuts += documents.iter().filter(|d| d.cut).count();
        let (session, session_switch) = diff_session_case(&queries, &documents);
        for d in session {
            let set: Vec<String> = queries.iter().map(ToString::to_string).collect();
            outcome
                .divergences
                .push(format!("session {i} (seed {seed}, queries {set:?}): {d}"));
        }
        let query = gen_query(&mut rng);
        let xml = gen_document(&mut rng);
        let label = format!("case {i} (seed {seed}, query `{query}`)");
        outcome.cases += 1;
        let clean_switch =
            CompiledNetwork::try_compile(&query).is_ok_and(|n| n.plan().switch_count() > 0);
        outcome.clean_switch_cases += usize::from(clean_switch);
        outcome.switch_cases += usize::from(clean_switch || session_switch);
        let clean = diff_case(&query, &xml);
        if clean.is_empty() {
            let n = count_results(&query, &xml);
            outcome.fragments += n;
            if n > 0 {
                outcome.selecting_cases += 1;
            }
        }
        for d in clean {
            outcome
                .divergences
                .push(format!("{label}: {d} [doc: {xml}]"));
        }
        for round in 0..fault_rounds {
            let fault_seed = seed
                .wrapping_add(i as u64)
                .wrapping_mul(7919)
                .wrapping_add(round as u64);
            outcome.fault_comparisons += Mutator::ALL.len();
            for d in diff_fault_case(&query, &xml, fault_seed) {
                outcome
                    .divergences
                    .push(format!("{label} fault seed {fault_seed}: {d} [doc: {xml}]"));
            }
        }
    }
    outcome
}

/// Compare the fast (SWAR) and classic scanners end to end through the full
/// recovery pipeline: the clean document plus every PR-2 fault mutator ×
/// both recovery policies. The surviving fragments (the
/// quarantine sets), fault lists, truncation flags, delivered/dropped counts
/// and engine statistics must be byte-identical — the fast path is only an
/// optimization if nobody can observe it.
pub fn scan_diff_case(query: &Rpeq, xml: &str, seed: u64) -> Vec<String> {
    let mut divergences = Vec::new();
    let network = match CompiledNetwork::try_compile(query) {
        Ok(n) => n,
        Err(e) => return vec![format!("query failed to compile: {e}")],
    };
    let mut streams: Vec<(String, String)> = vec![("clean".to_string(), xml.to_string())];
    for mutator in Mutator::ALL {
        let mutation = mutate(xml, mutator, seed);
        if mutation.changed {
            streams.push((mutator.to_string(), mutation.xml));
        }
    }
    for (label, stream) in &streams {
        for policy in [RecoveryPolicy::Repair, RecoveryPolicy::SkipSubtree] {
            let fast = run_recovering(&network, policy, ScannerKind::Fast, stream);
            let classic = run_recovering(&network, policy, ScannerKind::Classic, stream);
            let (fast, classic) = match (fast, classic) {
                (Ok(f), Ok(c)) => (f, c),
                (Err(e), Ok(_)) => {
                    divergences.push(format!(
                        "{label}/{policy}: fast scanner errored, classic did not: {e}"
                    ));
                    continue;
                }
                (Ok(_), Err(e)) => {
                    divergences.push(format!(
                        "{label}/{policy}: classic scanner errored, fast did not: {e}"
                    ));
                    continue;
                }
                (Err(ef), Err(ec)) => {
                    if ef != ec {
                        divergences.push(format!(
                            "{label}/{policy}: error texts diverge: \
                             fast `{ef}`, classic `{ec}`"
                        ));
                    }
                    continue;
                }
            };
            if fast.fragments != classic.fragments {
                divergences.push(format!(
                    "{label}/{policy}: fragments diverge: fast {:?}, classic {:?}",
                    fast.fragments, classic.fragments
                ));
            }
            let (f, c) = (&fast.report, &classic.report);
            if (f.results, f.dropped, f.truncated) != (c.results, c.dropped, c.truncated) {
                divergences.push(format!(
                    "{label}/{policy}: report counts diverge: fast ({}, {}, {}), \
                     classic ({}, {}, {})",
                    f.results, f.dropped, f.truncated, c.results, c.dropped, c.truncated
                ));
            }
            if format!("{:?}", f.faults) != format!("{:?}", c.faults) {
                divergences.push(format!(
                    "{label}/{policy}: fault lists diverge: fast {:?}, classic {:?}",
                    f.faults, c.faults
                ));
            }
            if format!("{:?}", f.exhausted) != format!("{:?}", c.exhausted) {
                divergences.push(format!("{label}/{policy}: exhaustion reports diverge"));
            }
            if f.stats != c.stats || f.transducers != c.transducers {
                divergences.push(format!("{label}/{policy}: engine statistics diverge"));
            }
        }
    }
    divergences
}

/// The scanner rig's top-level driver, mirroring [`vm_diff`]: `cases` seeded
/// random (document, query) pairs, each compared fast-vs-classic on the clean
/// stream and under `fault_rounds` seeds of every fault mutator.
/// Deterministic per `seed`.
pub fn scan_diff(cases: usize, seed: u64, fault_rounds: usize) -> DiffOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut outcome = DiffOutcome {
        scanners: true,
        ..DiffOutcome::default()
    };
    for i in 0..cases {
        let query = gen_query(&mut rng);
        let xml = gen_document(&mut rng);
        let label = format!("case {i} (seed {seed}, query `{query}`)");
        outcome.cases += 1;
        let n = count_results(&query, &xml);
        outcome.fragments += n;
        if n > 0 {
            outcome.selecting_cases += 1;
        }
        for round in 0..fault_rounds.max(1) {
            let fault_seed = seed
                .wrapping_add(i as u64)
                .wrapping_mul(6361)
                .wrapping_add(round as u64);
            outcome.fault_comparisons += Mutator::ALL.len() + 1;
            for d in scan_diff_case(&query, &xml, fault_seed) {
                outcome
                    .divergences
                    .push(format!("{label} fault seed {fault_seed}: {d} [doc: {xml}]"));
            }
        }
    }
    outcome
}

fn count_results(query: &Rpeq, xml: &str) -> usize {
    spex_core::evaluate_str(&query.to_string(), xml)
        .map(|f| f.len())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        let q1 = gen_query(&mut StdRng::seed_from_u64(9));
        let q2 = gen_query(&mut StdRng::seed_from_u64(9));
        assert_eq!(q1, q2);
        let d1 = gen_document(&mut StdRng::seed_from_u64(9));
        let d2 = gen_document(&mut StdRng::seed_from_u64(9));
        assert_eq!(d1, d2);
    }

    #[test]
    fn generated_queries_compile_and_documents_parse() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let q = gen_query(&mut rng);
            CompiledNetwork::try_compile(&q)
                .unwrap_or_else(|e| panic!("generated query `{q}` rejected: {e}"));
            let doc = gen_document(&mut rng);
            spex_xml::reader::parse_events(&doc)
                .unwrap_or_else(|e| panic!("generated document failed to parse: {e}\n{doc}"));
        }
    }

    #[test]
    fn paper_examples_have_no_divergence() {
        let xml = "<a><a><c/></a><b/><c/></a>";
        for q in [
            "a.c",
            "a+.c+",
            "_*.a[b].c",
            "a[b|c].c?",
            "_*.a[b[c]]",
            "^a",
            "~b",
        ] {
            let query: Rpeq = q.parse().unwrap();
            let d = diff_case(&query, xml);
            assert!(d.is_empty(), "query {q}: {d:?}");
        }
    }

    #[test]
    fn fault_equivalence_on_a_small_document() {
        let xml = "<r><a><b>x</b></a><c><d/>t</c><a><b>y</b></a></r>";
        for q in ["r.a.b", "_*.c[d]", "_*.a[b].b"] {
            let query: Rpeq = q.parse().unwrap();
            let d = diff_fault_case(&query, xml, 77);
            assert!(d.is_empty(), "query {q}: {d:?}");
        }
    }

    #[test]
    fn session_sweep_is_divergence_free() {
        let mut rng = StdRng::seed_from_u64(0x5e55);
        let mut cuts = 0;
        for _ in 0..40 {
            let (queries, documents) = gen_session(&mut rng);
            cuts += documents.iter().filter(|d| d.cut).count();
            let (d, _) = diff_session_case(&queries, &documents);
            assert!(d.is_empty(), "{d:#?}");
        }
        assert!(cuts > 0, "no session cut a document short");
    }

    #[test]
    fn scanner_equivalence_on_paper_examples() {
        let xml = "<a><a><c/></a><b/><c/></a>";
        for q in ["a.c", "_*.a[b].c", "a[b|c].c?"] {
            let query: Rpeq = q.parse().unwrap();
            let d = scan_diff_case(&query, xml, 31);
            assert!(d.is_empty(), "query {q}: {d:?}");
        }
    }

    #[test]
    fn scan_sweep_is_divergence_free() {
        let outcome = scan_diff(25, 0x5ca7, 1);
        assert_eq!(outcome.cases, 25);
        assert!(outcome.fault_comparisons > 0);
        assert!(
            outcome.divergences.is_empty(),
            "divergences: {:#?}",
            outcome.divergences
        );
    }

    #[test]
    fn small_sweep_is_divergence_free() {
        let outcome = vm_diff(40, 0xd1ff, 1);
        assert_eq!(outcome.cases, 40);
        assert!(outcome.fault_comparisons > 0);
        assert!(
            outcome.divergences.is_empty(),
            "divergences: {:#?}",
            outcome.divergences
        );
        // The alphabet is closed, so a healthy fraction of random cases
        // must actually select something — otherwise the rig tests nothing.
        assert!(
            outcome.selecting_cases >= 5,
            "only {} of 40 cases selected anything",
            outcome.selecting_cases
        );
    }
}
