//! Deterministic fault injection for the robustness harness.
//!
//! Six seedable mutators corrupt a well-formed XML byte stream the way real
//! transports do — truncation, lost or duplicated close tags, mangled
//! entities, spliced garbage — and [`fault_sweep`] drives the mutants
//! through the recovery pipeline (`spex_core::evaluate_recovering`),
//! checking two properties for every mutant × policy pair:
//!
//! 1. **Panic freedom / no surfaced error** — a `Repair` or `SkipSubtree`
//!    run over any mutant must complete and produce a `RunReport`.
//! 2. **Subset soundness** — the fragments delivered for the mutant are a
//!    sub-multiset of the clean-stream oracle results (nothing fabricated).
//!
//! No mutator ever fabricates an element *open* tag (the splice strings are
//! chosen to be unparseable), which is what makes the subset property
//! attainable: repairs can only lose or reposition elements, and
//! repositioned ones are quarantined by their damage intervals.
//!
//! The same mutators back `tests/recovery.rs` (table-driven, debug builds)
//! and the `harness fault-sweep` subcommand (larger release-mode sweep).

use crate::rig::Report;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spex_core::{
    evaluate_recovering, CompiledNetwork, FragmentCollector, RecoveryOptions, RunReport,
};
use spex_xml::RecoveryPolicy;
use std::time::{Duration, Instant};

/// One way of corrupting a well-formed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mutator {
    /// Cut the stream at a random byte (snapped to a char boundary).
    TruncateAtByte,
    /// Swap the names of two close tags (both become mismatched).
    SwapClose,
    /// Duplicate a close tag (the copy is a stray close).
    DuplicateClose,
    /// Delete a close tag (its element is auto-closed later, or truncated).
    DeleteClose,
    /// Break an entity reference in text content.
    CorruptEntity,
    /// Splice an unparseable markup fragment between two events.
    SpliceGarbage,
}

impl Mutator {
    /// All mutators, in a fixed order.
    pub const ALL: [Mutator; 6] = [
        Mutator::TruncateAtByte,
        Mutator::SwapClose,
        Mutator::DuplicateClose,
        Mutator::DeleteClose,
        Mutator::CorruptEntity,
        Mutator::SpliceGarbage,
    ];

    /// Stable kebab-case name for tables and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Mutator::TruncateAtByte => "truncate-at-byte",
            Mutator::SwapClose => "swap-close",
            Mutator::DuplicateClose => "duplicate-close",
            Mutator::DeleteClose => "delete-close",
            Mutator::CorruptEntity => "corrupt-entity",
            Mutator::SpliceGarbage => "splice-garbage",
        }
    }
}

impl std::fmt::Display for Mutator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The outcome of applying one mutator: the corrupted bytes and where the
/// corruption was injected (for checking reported fault positions).
#[derive(Debug, Clone)]
pub struct Mutation {
    /// Which mutator produced this.
    pub mutator: Mutator,
    /// Byte offset of the (first) injected corruption in `xml`.
    pub offset: usize,
    /// The corrupted document.
    pub xml: String,
    /// `false` when the document offered no opportunity for this mutator
    /// (e.g. no entity to corrupt) and `xml` is unchanged.
    pub changed: bool,
}

/// Byte spans of every `</name>` close tag in `xml`.
fn close_tag_spans(xml: &str) -> Vec<(usize, usize)> {
    let bytes = xml.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 1 < bytes.len() {
        if bytes[i] == b'<' && bytes[i + 1] == b'/' {
            if let Some(end) = xml[i..].find('>') {
                spans.push((i, i + end + 1));
                i += end + 1;
                continue;
            }
        }
        i += 1;
    }
    spans
}

/// Byte offsets where text content starts (just after a `>` that is
/// followed by a non-`<` character) — safe insertion points for a broken
/// entity.
fn text_starts(xml: &str) -> Vec<usize> {
    let bytes = xml.as_bytes();
    (1..bytes.len())
        .filter(|&i| bytes[i - 1] == b'>' && bytes[i] != b'<' && xml.is_char_boundary(i))
        .collect()
}

/// Apply `mutator` to `xml` deterministically under `seed`.
pub fn mutate(xml: &str, mutator: Mutator, seed: u64) -> Mutation {
    let mut rng = StdRng::seed_from_u64(seed);
    let unchanged = |m: Mutator| Mutation {
        mutator: m,
        offset: 0,
        xml: xml.to_string(),
        changed: false,
    };
    match mutator {
        Mutator::TruncateAtByte => {
            if xml.len() < 2 {
                return unchanged(mutator);
            }
            let mut cut = rng.gen_range(1..xml.len());
            while !xml.is_char_boundary(cut) {
                cut -= 1;
            }
            Mutation {
                mutator,
                offset: cut,
                xml: xml[..cut].to_string(),
                changed: true,
            }
        }
        Mutator::SwapClose => {
            let spans = close_tag_spans(xml);
            if spans.len() < 2 {
                return unchanged(mutator);
            }
            let a = rng.gen_range(0..spans.len());
            let mut b = rng.gen_range(0..spans.len() - 1);
            if b >= a {
                b += 1;
            }
            let (first, second) = if a < b { (a, b) } else { (b, a) };
            let (fs, fe) = spans[first];
            let (ss, se) = spans[second];
            let first_tag = &xml[fs..fe];
            let second_tag = &xml[ss..se];
            if first_tag == second_tag {
                return unchanged(mutator);
            }
            let mut out = String::with_capacity(xml.len());
            out.push_str(&xml[..fs]);
            out.push_str(second_tag);
            out.push_str(&xml[fe..ss]);
            out.push_str(first_tag);
            out.push_str(&xml[se..]);
            Mutation {
                mutator,
                offset: fs,
                xml: out,
                changed: true,
            }
        }
        Mutator::DuplicateClose => {
            let spans = close_tag_spans(xml);
            if spans.is_empty() {
                return unchanged(mutator);
            }
            let (s, e) = spans[rng.gen_range(0..spans.len())];
            let mut out = String::with_capacity(xml.len() + (e - s));
            out.push_str(&xml[..e]);
            out.push_str(&xml[s..e]);
            out.push_str(&xml[e..]);
            Mutation {
                mutator,
                offset: e,
                xml: out,
                changed: true,
            }
        }
        Mutator::DeleteClose => {
            let spans = close_tag_spans(xml);
            if spans.is_empty() {
                return unchanged(mutator);
            }
            let (s, e) = spans[rng.gen_range(0..spans.len())];
            let mut out = String::with_capacity(xml.len());
            out.push_str(&xml[..s]);
            out.push_str(&xml[e..]);
            Mutation {
                mutator,
                offset: s,
                xml: out,
                changed: true,
            }
        }
        Mutator::CorruptEntity => {
            let starts = text_starts(xml);
            if starts.is_empty() {
                return unchanged(mutator);
            }
            let at = starts[rng.gen_range(0..starts.len())];
            let mut out = String::with_capacity(xml.len() + 8);
            out.push_str(&xml[..at]);
            out.push_str("&bogus;");
            out.push_str(&xml[at..]);
            Mutation {
                mutator,
                offset: at,
                xml: out,
                changed: true,
            }
        }
        Mutator::SpliceGarbage => {
            // Every splice string fails to parse as markup; none can be
            // mistaken for a well-formed element open.
            const GARBAGE: [&str; 4] = ["<!JUNK ", "<%%%>", "</zzz-nope>", "<???"];
            let bytes = xml.as_bytes();
            let opens: Vec<usize> = (1..bytes.len()).filter(|&i| bytes[i] == b'<').collect();
            if opens.is_empty() {
                return unchanged(mutator);
            }
            let at = opens[rng.gen_range(0..opens.len())];
            let junk = GARBAGE[rng.gen_range(0..GARBAGE.len())];
            let mut out = String::with_capacity(xml.len() + junk.len());
            out.push_str(&xml[..at]);
            out.push_str(junk);
            out.push_str(&xml[at..]);
            Mutation {
                mutator,
                offset: at,
                xml: out,
                changed: true,
            }
        }
    }
}

/// Multiset subset test: every string of `sub` occurs in `sup` at least as
/// often.
pub fn is_sub_multiset(sub: &[String], sup: &[String]) -> bool {
    let mut counts = std::collections::HashMap::new();
    for s in sup {
        *counts.entry(s.as_str()).or_insert(0i64) += 1;
    }
    sub.iter().all(|s| {
        let c = counts.entry(s.as_str()).or_insert(0);
        *c -= 1;
        *c >= 0
    })
}

/// Aggregate outcome of a sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepOutcome {
    /// Mutants actually produced (mutator applied and changed the bytes).
    pub mutants: usize,
    /// Mutator applications that found nothing to corrupt.
    pub unchanged: usize,
    /// Runs that reported at least one fault.
    pub faulted_runs: usize,
    /// Total faults reported across all runs.
    pub faults_reported: usize,
    /// Result fragments delivered across all runs.
    pub delivered: usize,
    /// Result fragments quarantined across all runs.
    pub quarantined: usize,
    /// Soundness or completion violations, each naming the query, mutator
    /// and seed (must be empty).
    pub violations: Vec<String>,
    /// Wall time of the sweep.
    pub elapsed: Duration,
}

impl SweepOutcome {
    /// The sweep's report, as `harness fault-sweep` prints it.
    pub fn report(self) -> Report {
        let mut summary = vec![
            format!(
                "mutants: {}  unchanged: {}  runs with faults: {}  faults reported: {}",
                self.mutants, self.unchanged, self.faulted_runs, self.faults_reported
            ),
            format!(
                "delivered: {}  quarantined: {}  elapsed: {:.2}s",
                self.delivered,
                self.quarantined,
                self.elapsed.as_secs_f64()
            ),
        ];
        if self.violations.is_empty() {
            summary
                .push("soundness: every mutant's results are a subset of the clean oracle".into());
        }
        Report {
            summary,
            prefix: "VIOLATION: ",
            failures: self.violations,
        }
    }
}

/// Run one mutant through the recovery pipeline, appending to `outcome`.
fn check_mutant(
    network: &CompiledNetwork,
    oracle: &[String],
    mutation: &Mutation,
    policy: RecoveryPolicy,
    label: &str,
    outcome: &mut SweepOutcome,
) -> Option<RunReport> {
    let mut collector = FragmentCollector::new();
    let options = RecoveryOptions {
        policy,
        ..RecoveryOptions::default()
    };
    let report = match evaluate_recovering(
        network,
        std::io::Cursor::new(mutation.xml.as_bytes().to_vec()),
        options,
        spex_core::ResourceLimits::default(),
        &mut collector,
    ) {
        Ok(r) => r,
        Err(e) => {
            outcome
                .violations
                .push(format!("{label}: {policy} run surfaced an error: {e}"));
            return None;
        }
    };
    let frags = collector.into_fragments();
    if !is_sub_multiset(&frags, oracle) {
        outcome.violations.push(format!(
            "{label}: {policy} results not a subset of the clean oracle \
             ({} delivered vs {} clean)",
            frags.len(),
            oracle.len()
        ));
    }
    if !report.faults.is_empty() {
        outcome.faulted_runs += 1;
    }
    outcome.faults_reported += report.faults.len();
    outcome.delivered += frags.len();
    outcome.quarantined += report.dropped as usize;
    Some(report)
}

/// Sweep `rounds` seeds × all mutators × all recovery policies over each
/// `(query, clean_xml)` workload pair. Returns aggregate counts; any entry
/// in [`SweepOutcome::violations`] is a bug.
pub fn fault_sweep(
    workloads: &[(spex_query::Rpeq, String)],
    seed_base: u64,
    rounds: usize,
) -> SweepOutcome {
    let start = Instant::now();
    let mut outcome = SweepOutcome::default();
    for (wi, (query, xml)) in workloads.iter().enumerate() {
        let network = CompiledNetwork::compile(query);
        // The clean oracle: plain evaluation of the uncorrupted stream.
        let oracle = match spex_core::evaluate_str(&query.to_string(), xml) {
            Ok(frags) => frags,
            Err(e) => {
                outcome.violations.push(format!(
                    "workload {wi}: clean stream failed to evaluate: {e}"
                ));
                continue;
            }
        };
        for mutator in Mutator::ALL {
            for round in 0..rounds {
                let seed = seed_base
                    .wrapping_add(wi as u64)
                    .wrapping_mul(6151)
                    .wrapping_add(round as u64)
                    .wrapping_mul(31)
                    .wrapping_add(mutator as u64);
                let mutation = mutate(xml, mutator, seed);
                if !mutation.changed {
                    outcome.unchanged += 1;
                    continue;
                }
                outcome.mutants += 1;
                let label = format!("workload {wi} {mutator} seed {seed}");
                for policy in [RecoveryPolicy::Repair, RecoveryPolicy::SkipSubtree] {
                    check_mutant(&network, &oracle, &mutation, policy, &label, &mut outcome);
                }
            }
        }
    }
    outcome.elapsed = start.elapsed();
    outcome
}

/// The standard sweep workload: a small MONDIAL document × the paper's §VI
/// Mondial query classes. `countries` controls document size (and therefore
/// runtime; keep it small in debug builds).
pub fn mondial_workloads(countries: usize) -> Vec<(spex_query::Rpeq, String)> {
    let events = spex_workloads::mondial::mondial_with(&spex_workloads::mondial::MondialConfig {
        seed: 11,
        countries,
    });
    let xml = spex_xml::writer::events_to_string(&events);
    spex_workloads::queries_for(spex_workloads::Dataset::Mondial)
        .iter()
        .map(|qc| (qc.rpeq(), xml.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "<r><a><b>x</b></a><c><d/>t</c><a><b>y</b></a></r>";

    #[test]
    fn mutators_are_deterministic_per_seed() {
        for m in Mutator::ALL {
            let x = mutate(DOC, m, 42);
            let y = mutate(DOC, m, 42);
            assert_eq!(x.xml, y.xml, "{m}");
            assert_eq!(x.offset, y.offset, "{m}");
            let z = mutate(DOC, m, 43);
            // Different seeds usually differ; at minimum they must not panic.
            let _ = z;
        }
    }

    #[test]
    fn each_mutator_changes_the_document() {
        for m in Mutator::ALL {
            let out = mutate(DOC, m, 7);
            assert!(out.changed, "{m} found nothing to corrupt in {DOC}");
            assert_ne!(out.xml, DOC, "{m} reported change but bytes equal");
            assert!(out.offset < DOC.len() + 1, "{m} offset out of range");
        }
    }

    #[test]
    fn truncation_cuts_at_the_reported_offset() {
        let out = mutate(DOC, Mutator::TruncateAtByte, 3);
        assert_eq!(out.xml.len(), out.offset);
        assert!(DOC.starts_with(&out.xml));
    }

    #[test]
    fn splice_strings_never_parse_as_markup() {
        // Each garbage string must make the document malformed wherever it
        // lands — otherwise the sweep would count clean runs as mutants.
        for seed in 0..32 {
            let out = mutate(DOC, Mutator::SpliceGarbage, seed);
            assert!(
                spex_xml::reader::parse_events(&out.xml).is_err(),
                "seed {seed} produced parseable output: {}",
                out.xml
            );
        }
    }

    #[test]
    fn sub_multiset_counts_duplicates() {
        let a = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(is_sub_multiset(&a(&["x"]), &a(&["x", "y"])));
        assert!(is_sub_multiset(&a(&[]), &a(&[])));
        assert!(!is_sub_multiset(&a(&["x", "x"]), &a(&["x", "y"])));
        assert!(!is_sub_multiset(&a(&["z"]), &a(&["x"])));
    }

    #[test]
    fn small_sweep_is_sound_and_panic_free() {
        let workloads = vec![
            ("r.a.b".parse().unwrap(), DOC.to_string()),
            ("_*.c[d]".parse().unwrap(), DOC.to_string()),
        ];
        let outcome = fault_sweep(&workloads, 1000, 8);
        assert!(outcome.mutants > 50, "only {} mutants", outcome.mutants);
        assert!(
            outcome.violations.is_empty(),
            "violations: {:#?}",
            outcome.violations
        );
        assert!(outcome.faulted_runs > 0, "no run reported any fault");
    }
}
