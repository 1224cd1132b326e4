//! Multi-tenant query-set combination: N standing rpeq queries, one shared
//! SPEX transducer network.
//!
//! The paper's conclusion (§IX) names multi-query processing as the road
//! ahead: "a single transducer network can be used for processing several
//! queries having common subparts". This crate is that combiner. It turns a
//! registration list `[(name, rpeq)]` into one
//! [`spex_core::multi::SharedQuerySet`] in three moves:
//!
//! 1. **Normalization** ([`normalize`]): every query is rewritten into a
//!    canonical normal form (alternation sorted and deduplicated,
//!    concatenation flattened, closures collapsed, qualifier stacks
//!    canonically ordered), so structurally-equal-but-differently-written
//!    expressions become *identical* ASTs. See [`norm`].
//! 2. **Hash-consing + step trie** ([`canon`], [`trie`]): normalized chain
//!    steps and qualifiers are interned into integer [`canon::CanonId`]s,
//!    and the queries are walked through a trie keyed on those ids — every
//!    shared step prefix, and every shared qualifier at a shared tape,
//!    compiles exactly once.
//! 3. **Whole-query dedup with aliased sinks**: queries whose *entire*
//!    canonical form is equal (the limit case of common-suffix merging —
//!    the downstream context is identical) share one physical output
//!    transducer; each registered name still gets its own logical result
//!    stream, fanned out at result-delivery time (the run's slot table,
//!    [`spex_core::PlanRun::with_slots`]). Result delivery is the rare path, so
//!    aliases are free per event — this is what makes per-event cost scale
//!    with the number of *distinct* query structures, not registrations.
//!
//! [`combine`] returns the shared set plus a [`SharingReport`];
//! [`canonical_key`] is the order- and spelling-insensitive cache key the
//! spex-serve plan registry uses.
//!
//! ```
//! use spex_combine::combine;
//!
//! let combined = combine(&[
//!     ("cities".into(), "_*.country.city".parse().unwrap()),
//!     ("also".into(), "_*.(country).city".parse().unwrap()), // same query
//!     ("names".into(), "_*.country.name".parse().unwrap()),
//! ])
//! .unwrap();
//! assert_eq!(combined.report.queries, 3);
//! assert_eq!(combined.report.distinct, 2); // "also" aliases "cities"
//! assert!(combined.set.degree() < combined.set.unshared_degree());
//! ```

#![deny(missing_docs)]

pub mod canon;
pub mod norm;
pub mod trie;

pub use norm::{normalize, nullable};

use canon::CanonPool;
use spex_core::compile::{check_compilable, translate, translate_qualifier, CompiledNetwork};
use spex_core::multi::SharedQuerySet;
use spex_core::network::NetworkBuilder;
use spex_core::CompileError;
use spex_query::Rpeq;
use std::collections::HashMap;
use trie::{StepKey, StepTrie};

/// How much structure a combined set shares — the combiner's census.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharingReport {
    /// Logical queries registered (after dropping exact duplicate
    /// `(name, canonical expression)` registrations).
    pub queries: usize,
    /// Distinct canonical queries — the number of physical sinks.
    pub distinct: usize,
    /// Chain steps walked over all distinct queries (trie edges traversed).
    pub steps_total: usize,
    /// Steps that were already compiled when reached (trie hits); each hit
    /// is a whole shared sub-network.
    pub steps_shared: usize,
    /// The shared network's degree.
    pub degree: usize,
    /// Summed degree of the queries compiled independently.
    pub unshared_degree: usize,
}

/// A combined query set: the shared network plus its sharing census.
#[derive(Debug)]
pub struct Combined {
    /// The shared multi-sink query set, ready to run.
    pub set: SharedQuerySet,
    /// What was shared.
    pub report: SharingReport,
}

/// Combine a registration list into one shared network. Names need not be
/// unique; exact duplicate `(name, canonical expression)` registrations are
/// dropped (a registration list is a set). The resulting logical query
/// order — [`SharedQuerySet::ids`] — is sorted by `(name, canonical
/// expression)`, so any registration order of the same set produces an
/// identical `SharedQuerySet` (this is what makes [`canonical_key`] sound
/// as a cache key).
///
/// # Errors
///
/// [`CompileError`] if any query falls outside the compilable fragment.
///
/// # Panics
///
/// If `queries` is empty (a network needs at least one sink).
pub fn combine(queries: &[(String, Rpeq)]) -> Result<Combined, CompileError> {
    assert!(!queries.is_empty(), "cannot combine an empty query set");
    for (_, q) in queries {
        check_compilable(q)?;
    }
    // Normalize, then order registrations canonically and drop exact
    // duplicates.
    let mut entries: Vec<(String, String, Rpeq, &Rpeq)> = queries
        .iter()
        .map(|(name, q)| {
            let n = normalize(q);
            (name.clone(), n.to_string(), n, q)
        })
        .collect();
    entries.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
    entries.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);

    let (mut builder, source) = NetworkBuilder::with_input();
    let mut pool = CanonPool::new();
    let mut step_trie = StepTrie::new(source);
    // Canonical query string → physical sink slot.
    let mut slot_by_key: HashMap<String, usize> = HashMap::new();
    let mut ids = Vec::with_capacity(entries.len());
    let mut slot_of = Vec::with_capacity(entries.len());
    let mut unshared_degree = 0usize;
    let (mut steps_total, mut steps_shared) = (0usize, 0usize);
    for (name, key, normalized, original) in &entries {
        ids.push(name.clone());
        unshared_degree += CompiledNetwork::compile(original).degree();
        if let Some(&slot) = slot_by_key.get(key) {
            slot_of.push(slot); // whole-query alias: share the sink.
            continue;
        }
        let mut node = step_trie.root();
        for step in chain_of(normalized) {
            let (base, qualifiers) = unwrap_qualifiers(step);
            let base_key = StepKey::Step(pool.intern(base));
            let (next, hit) =
                step_trie.follow_or_insert(node, base_key, |t| translate(base, &mut builder, t));
            steps_total += 1;
            steps_shared += usize::from(hit);
            node = next;
            for qual in qualifiers {
                let qual_key = StepKey::Qual(pool.intern(qual));
                let (next, hit) = step_trie.follow_or_insert(node, qual_key, |t| {
                    translate_qualifier(qual, &mut builder, t)
                });
                steps_total += 1;
                steps_shared += usize::from(hit);
                node = next;
            }
        }
        builder.add_sink(step_trie.tape(node));
        let slot = slot_by_key.len();
        slot_by_key.insert(key.clone(), slot);
        slot_of.push(slot);
    }
    let spec = builder.finish();
    let report = SharingReport {
        queries: ids.len(),
        distinct: slot_by_key.len(),
        steps_total,
        steps_shared,
        degree: spec.degree(),
        unshared_degree,
    };
    let set = SharedQuerySet::from_parts(spec, ids, slot_of, unshared_degree);
    Ok(Combined { set, report })
}

/// Convenience: [`combine`], keeping only the shared set.
pub fn combine_set(queries: &[(String, Rpeq)]) -> Result<SharedQuerySet, CompileError> {
    combine(queries).map(|c| c.set)
}

/// Canonicalize a registration list: normalize every expression, sort by
/// `(name, canonical expression)` and drop exact duplicates — the same
/// transformation [`combine`] applies internally, exposed so protocol
/// boundaries (the spex-serve session) can adopt the combiner's logical
/// query order up front. After this, every positional index — plan sinks,
/// per-query delivery counters, durable `queries.txt` lines, resume
/// received-counts — speaks one order, whatever order the client
/// registered in.
pub fn canonicalize_registrations(queries: &[(String, Rpeq)]) -> Vec<(String, Rpeq)> {
    let mut entries: Vec<(String, String, Rpeq)> = queries
        .iter()
        .map(|(name, q)| {
            let n = normalize(q);
            (name.clone(), n.to_string(), n)
        })
        .collect();
    entries.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
    entries.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
    entries.into_iter().map(|(name, _, q)| (name, q)).collect()
}

/// The canonical, order- and spelling-insensitive cache key of a
/// registration list: sorted, deduplicated `name=canonical-expression`
/// lines. Two lists with equal keys combine to identical
/// [`SharedQuerySet`]s (same ids, same slots, same network), so a compiled
/// plan cached under this key serves every equivalent registration order —
/// the spex-serve plan registry keys its LRU on this.
pub fn canonical_key(queries: &[(String, Rpeq)]) -> String {
    let mut lines: Vec<String> = queries
        .iter()
        .map(|(name, q)| format!("{name}={}\n", normalize(q)))
        .collect();
    lines.sort();
    lines.dedup();
    lines.concat()
}

/// Flatten a normalized query into its top-level concatenation chain.
fn chain_of(query: &Rpeq) -> Vec<&Rpeq> {
    let mut out = Vec::new();
    fn go<'a>(q: &'a Rpeq, out: &mut Vec<&'a Rpeq>) {
        match q {
            Rpeq::Concat(a, b) => {
                go(a, out);
                go(b, out);
            }
            other => out.push(other),
        }
    }
    go(query, &mut out);
    out
}

/// Split a chain step into its base expression and qualifier stack (outermost
/// last) — the trie walks the base edge first, then one edge per qualifier,
/// mirroring how `translate` compiles `Qualified`.
fn unwrap_qualifiers(step: &Rpeq) -> (&Rpeq, Vec<&Rpeq>) {
    let mut qualifiers = Vec::new();
    let mut base = step;
    while let Rpeq::Qualified(b, q) = base {
        qualifiers.push(q.as_ref());
        base = b;
    }
    qualifiers.reverse();
    (base, qualifiers)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qs(texts: &[&str]) -> Vec<(String, Rpeq)> {
        texts
            .iter()
            .enumerate()
            .map(|(i, t)| (format!("q{i}"), t.parse().unwrap()))
            .collect()
    }

    #[test]
    fn spelling_variants_fully_alias() {
        let c = combine(&qs(&["_*.(b|a).c", "_*.(a|b).c", "_*.((a)|b).(c)"])).unwrap();
        assert_eq!(c.report.queries, 3);
        assert_eq!(c.report.distinct, 1);
        assert_eq!(c.set.spec().sink_count(), 1);
        // One OU serves all three logical streams.
        let desc = c.set.spec().describe();
        assert_eq!(desc.iter().filter(|d| *d == "OU").count(), 1);
    }

    #[test]
    fn prefix_sharing_via_the_trie() {
        let c = combine(&qs(&["_*.country.city", "_*.country.name"])).unwrap();
        assert_eq!(c.report.distinct, 2);
        assert!(c.report.steps_shared >= 2); // `_*` and `country` hit twice
        let desc = c.set.spec().describe();
        assert_eq!(desc.iter().filter(|d| *d == "CH(country)").count(), 1);
    }

    #[test]
    fn qualifier_subnetworks_are_hash_consed() {
        // The `[meta.lang]` qualifier compiles once for both queries —
        // same tape, same canonical qualifier.
        let c = combine(&qs(&["_*.p[meta.lang].a", "_*.p[(meta).lang].b"])).unwrap();
        let desc = c.set.spec().describe();
        assert_eq!(desc.iter().filter(|d| d.starts_with("VC")).count(), 1);
    }

    #[test]
    fn qualified_and_bare_steps_share_the_base_child() {
        // `x.a.y` and `x.a[q].z` share CH(x) *and* CH(a): the qualifier is
        // a separate trie edge wrapped around the shared base tape.
        let c = combine(&qs(&["x.a.y", "x.a[q].z"])).unwrap();
        let desc = c.set.spec().describe();
        assert_eq!(desc.iter().filter(|d| *d == "CH(a)").count(), 1);
    }

    #[test]
    fn registration_order_is_immaterial() {
        let a = combine(&qs(&["a.b", "c[d]", "_*.x"])).unwrap();
        let mut rev: Vec<(String, Rpeq)> = qs(&["a.b", "c[d]", "_*.x"]);
        rev.reverse();
        // Re-number the names so the *sets* are equal despite the reversed
        // registration order.
        for (i, e) in rev.iter_mut().enumerate() {
            e.0 = format!("q{}", 2 - i);
        }
        let b = combine(&rev).unwrap();
        assert_eq!(a.set.ids(), b.set.ids());
        assert_eq!(a.set.slot_of(), b.set.slot_of());
        assert_eq!(a.set.spec().describe(), b.set.spec().describe());
        assert_eq!(
            canonical_key(&qs(&["a.b", "c[d]", "_*.x"])),
            canonical_key(&rev)
        );
    }

    #[test]
    fn duplicate_registrations_collapse() {
        let c = combine(&[
            ("x".to_string(), "a.b".parse().unwrap()),
            ("x".to_string(), "a.(b)".parse().unwrap()),
        ])
        .unwrap();
        assert_eq!(c.set.ids(), ["x"]);
        assert_eq!(c.report.queries, 1);
    }

    #[test]
    fn degree_strictly_decreases_on_overlap() {
        let c = combine(&qs(&[
            "_*.catalog.product.name",
            "_*.catalog.product.price",
            "_*.catalog.product[meta.lang].name",
            "_*.catalog.vendor.name",
        ]))
        .unwrap();
        assert!(c.set.degree() < c.set.unshared_degree());
    }

    #[test]
    fn combined_counts_match_independent_evaluation() {
        let texts = [
            "_*.a.b",
            "_*.(b|a)",
            "_*.a[b].c",
            "a.a",
            "_*.a.b", // alias of the first (after q-name renumbering below)
        ];
        // Give the duplicate a duplicate name so it aliases completely.
        let mut queries = qs(&texts);
        queries[4].0 = "q0".to_string();
        let c = combine(&queries).unwrap();
        let xml = "<a><a><b/><c/></a><c/><b><a><b/></a></b></a>";
        let events = spex_xml::reader::parse_events(xml).unwrap();
        let (counts, _) = c.set.count_events(events);
        assert_eq!(c.set.ids().len(), 4); // q0 dup dropped
        for (id, count) in c.set.ids().iter().zip(&counts) {
            let idx: usize = id[1..].parse().unwrap();
            let expected = spex_core::evaluate_str(texts[idx], xml).unwrap().len();
            assert_eq!(*count, expected, "query {id} = {}", texts[idx]);
        }
    }

    #[test]
    fn preceding_in_qualifier_is_rejected() {
        let err = combine(&qs(&["a[^b]"])).unwrap_err();
        let _ = format!("{err}");
    }
}
