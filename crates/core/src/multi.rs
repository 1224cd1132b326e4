//! Multi-query processing with shared sub-networks.
//!
//! The paper's conclusion names this as the road ahead: "a single transducer
//! network can be used for processing several queries having common
//! subparts. Such a multi-query processor could be a corner stone of
//! efficient XSLT and XQuery implementations" (§IX) — and its related work
//! credits YFilter with prefix sharing for boolean filtering (§VIII).
//!
//! [`SharedQuerySet`] compiles many rpeq queries into **one** multi-sink
//! SPEX network, sharing the compiled sub-network of every common prefix:
//! each query is decomposed into its top-level concatenation chain, and a
//! memo table `(input tape, chain element) → output tape` reuses existing
//! transducers whenever a query continues from the same tape with a
//! structurally identical step. The network executor's fan-out does the
//! rest — a shared tape feeds every continuation.
//!
//! ```
//! use spex_core::multi::SharedQuerySet;
//!
//! let set = SharedQuerySet::compile(&[
//!     ("cities".into(), "_*.country.province.city".parse().unwrap()),
//!     ("names".into(),  "_*.country.province.name".parse().unwrap()),
//!     ("codes".into(),  "_*.country.code".parse().unwrap()),
//! ]);
//! // The `_*.country` prefix (and the `province` step) exist only once.
//! assert!(set.degree() < set.unshared_degree());
//! ```

use crate::network::{NetworkBuilder, NetworkSpec, Tape};
use crate::sink::{CountingSink, ResultSink};
use crate::stats::EngineStats;
use crate::vm::{Engine, Plan, PlanRun};
use spex_query::Rpeq;
use spex_xml::XmlEvent;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Many queries compiled into one shared multi-sink network. See the
/// [module documentation](self).
#[derive(Debug, Clone)]
pub struct SharedQuerySet {
    spec: NetworkSpec,
    ids: Vec<String>,
    /// `slot_of[i]` is the physical sink slot serving logical query `i`.
    /// The identity map for [`SharedQuerySet::try_compile`]; the combiner
    /// (`spex-combine`) aliases queries with equal canonical forms onto one
    /// shared physical sink, so several logical queries may share a slot.
    slot_of: Vec<usize>,
    unshared_degree: usize,
    /// The flat VM plan, lowered on first use and shared by every session
    /// (the server's plan registry caches `Arc<SharedQuerySet>`, so the
    /// lowering happens once per cached entry).
    plan: OnceLock<Arc<Plan>>,
}

impl SharedQuerySet {
    /// Compile `queries` (id, expression) into one network with one sink per
    /// query, sharing common prefixes.
    ///
    /// # Panics
    ///
    /// On queries outside the compilable fragment (see
    /// [`crate::CompileError`]); use [`SharedQuerySet::try_compile`] to
    /// handle the error.
    pub fn compile(queries: &[(String, Rpeq)]) -> SharedQuerySet {
        Self::try_compile(queries).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Compile, reporting unsupported constructs as errors.
    pub fn try_compile(queries: &[(String, Rpeq)]) -> Result<SharedQuerySet, crate::CompileError> {
        let (mut builder, source) = NetworkBuilder::with_input();
        // (input tape, pretty-printed chain element) → output tape.
        //
        // Keying by the rendered expression is sound: the text syntax is a
        // faithful canonical form (print∘parse is the identity, by property
        // test), so equal keys mean structurally equal sub-expressions.
        let mut memo: HashMap<(usize, String), Tape> = HashMap::new();
        let mut ids = Vec::with_capacity(queries.len());
        let mut unshared_degree = 2 * queries.len().max(1); // IN + OU per query
        for (_, query) in queries {
            crate::compile::check_compilable(query)?;
        }
        for (id, query) in queries {
            let mut tape = source;
            for step in chain_of(query) {
                let key = (tape.node(), step.to_string());
                tape = match memo.get(&key) {
                    Some(t) => *t,
                    None => {
                        let t = crate::compile::translate(step, &mut builder, tape);
                        memo.insert(key, t);
                        t
                    }
                };
            }
            builder.add_sink(tape);
            ids.push(id.clone());
            unshared_degree += crate::compile::CompiledNetwork::compile(query).degree() - 2;
        }
        let slot_of = (0..ids.len()).collect();
        Ok(SharedQuerySet {
            spec: builder.finish(),
            ids,
            slot_of,
            unshared_degree,
            plan: OnceLock::new(),
        })
    }

    /// Assemble a query set from an externally built shared network — the
    /// constructor the `spex-combine` combiner uses. `ids` are the logical
    /// query names (one sink delivered per name), `slot_of[i]` the physical
    /// sink slot of `spec` serving logical query `i` (aliased queries share
    /// a slot), and `unshared_degree` the summed degree the queries would
    /// have as independently compiled networks.
    ///
    /// # Panics
    ///
    /// If the lengths disagree, a slot index is out of range, or a physical
    /// sink of `spec` is served to no logical query.
    pub fn from_parts(
        spec: NetworkSpec,
        ids: Vec<String>,
        slot_of: Vec<usize>,
        unshared_degree: usize,
    ) -> SharedQuerySet {
        assert_eq!(
            ids.len(),
            slot_of.len(),
            "{} ids for {} slot entries",
            ids.len(),
            slot_of.len()
        );
        let physical = spec.sink_count();
        let mut served = vec![false; physical];
        for &s in &slot_of {
            assert!(s < physical, "sink slot {s} out of range ({physical})");
            served[s] = true;
        }
        if let Some(idle) = served.iter().position(|s| !s) {
            panic!("physical sink {idle} is served to no logical query");
        }
        SharedQuerySet {
            spec,
            ids,
            slot_of,
            unshared_degree,
            plan: OnceLock::new(),
        }
    }

    /// The physical-slot map: `slot_of()[i]` is the sink slot serving
    /// logical query `i` (see [`SharedQuerySet::from_parts`]).
    pub fn slot_of(&self) -> &[usize] {
        &self.slot_of
    }

    /// Query ids, in sink order.
    pub fn ids(&self) -> &[String] {
        &self.ids
    }

    /// A canonical cache key for a registration list: one `name=expr` line
    /// per query with the expression pretty-printed. Print∘parse is the
    /// identity on the text syntax (property-tested), so two
    /// differently-spelled but structurally equal registrations map to the
    /// same key — this is what the server's compiled-plan cache is keyed by.
    pub fn normalized_key(queries: &[(String, Rpeq)]) -> String {
        let mut out = String::new();
        for (id, q) in queries {
            out.push_str(id);
            out.push('=');
            out.push_str(&q.to_string());
            out.push('\n');
        }
        out
    }

    /// The shared network's degree (number of transducers).
    pub fn degree(&self) -> usize {
        self.spec.degree()
    }

    /// The summed degree the queries would have as separate networks
    /// (for measuring the sharing win).
    pub fn unshared_degree(&self) -> usize {
        self.unshared_degree
    }

    /// The network shape.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// Instantiate over a stream with one sink per *logical* query (sink
    /// order == [`SharedQuerySet::ids`] order), owned by the run. Queries
    /// aliased onto one physical sink by the combiner each still receive
    /// their own result stream — the shared sink fans out at delivery time.
    pub fn run<S: ResultSink>(&self, sinks: Vec<S>) -> PlanRun<S> {
        PlanRun::with_slots(Arc::clone(self.plan()), sinks, &self.slot_of)
    }

    /// Like [`SharedQuerySet::run`], with resource caps attached (see
    /// [`crate::ResourceLimits`]); use [`PlanRun::try_push`] to observe a
    /// breach.
    pub fn run_with_limits<S: ResultSink>(
        &self,
        sinks: Vec<S>,
        limits: crate::limits::ResourceLimits,
    ) -> PlanRun<S> {
        let mut run = self.run(sinks);
        run.set_limits(limits);
        run
    }

    /// The flat VM plan, lowered from the shared network on first use and
    /// cached (see [`Plan`] and DESIGN.md §14).
    pub fn plan(&self) -> &Arc<Plan> {
        self.plan
            .get_or_init(|| Arc::new(Plan::compile(&self.spec)))
    }

    // Only for `benchmark/trace` (frozen in this PR), which calls `run_engine(Engine::Vm, …)`; the next `benchmark` PR drops it.
    #[doc(hidden)]
    pub fn run_engine<S: ResultSink>(&self, _engine: Engine, sinks: Vec<S>) -> PlanRun<S> {
        self.run(sinks)
    }

    /// Convenience: evaluate a full event sequence, returning per-query
    /// result counts (id order) and the engine statistics.
    pub fn count_events(
        &self,
        events: impl IntoIterator<Item = XmlEvent>,
    ) -> (Vec<usize>, EngineStats) {
        let counters = (0..self.ids.len()).map(|_| CountingSink::new()).collect();
        let mut run = self.run(counters);
        for ev in events {
            run.push(ev);
        }
        let (stats, _, counters) = run.finish_into_sinks();
        (counters.into_iter().map(|c| c.results).collect(), stats)
    }
}

/// Flatten a query into its top-level concatenation chain.
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

#[cfg(test)]
mod tests {
    use super::*;
    use spex_xml::reader::parse_events;

    fn qs(texts: &[&str]) -> Vec<(String, Rpeq)> {
        texts
            .iter()
            .enumerate()
            .map(|(i, t)| (format!("q{i}"), t.parse().unwrap()))
            .collect()
    }

    #[test]
    fn prefixes_are_shared() {
        let set = SharedQuerySet::compile(&qs(&[
            "_*.country.province.city",
            "_*.country.province.name",
            "_*.country.code",
        ]));
        // Shared: _* (4 nodes) + country + province; distinct: city, name,
        // code; plus IN and 3 OU.
        assert!(set.degree() < set.unshared_degree());
        let desc = set.spec().describe();
        assert_eq!(desc.iter().filter(|d| *d == "CH(country)").count(), 1);
        assert_eq!(desc.iter().filter(|d| *d == "CH(province)").count(), 1);
        assert_eq!(desc.iter().filter(|d| *d == "OU").count(), 3);
    }

    #[test]
    fn shared_results_equal_individual_results() {
        let texts = [
            "_*.a.b",
            "_*.a.c",
            "_*.a[b].c",
            "a.a",
            "_*._",
            "_*.a.b", // duplicate query: full sharing, both sinks served
        ];
        let set = SharedQuerySet::compile(&qs(&texts));
        let xml = "<a><a><b/><c/></a><c/><b><a><b/></a></b></a>";
        let events = parse_events(xml).unwrap();
        let (counts, _) = set.count_events(events);
        for (i, t) in texts.iter().enumerate() {
            let expected = crate::evaluate_str(t, xml).unwrap().len();
            assert_eq!(counts[i], expected, "query {t}");
        }
    }

    #[test]
    fn qualifier_prefixes_share_their_instances() {
        // Both queries share `_*.a[b]` — one VC, one qualifier sub-network.
        let set = SharedQuerySet::compile(&qs(&["_*.a[b].c", "_*.a[b].d"]));
        let desc = set.spec().describe();
        assert_eq!(desc.iter().filter(|d| d.starts_with("VC")).count(), 1);
        let xml = "<r><a><b/><c/><d/></a><a><c/><d/></a></r>";
        let (counts, _) = set.count_events(parse_events(xml).unwrap());
        assert_eq!(counts, vec![1, 1]);
    }

    #[test]
    fn no_false_sharing_across_different_prefixes() {
        let set = SharedQuerySet::compile(&qs(&["a.b", "c.b"]));
        let desc = set.spec().describe();
        // Two distinct CH(b): the `b` steps continue from different tapes.
        assert_eq!(desc.iter().filter(|d| *d == "CH(b)").count(), 2);
        let xml = "<a><b/></a>";
        let (counts, _) = set.count_events(parse_events(xml).unwrap());
        assert_eq!(counts, vec![1, 0]);
    }

    #[test]
    fn single_and_empty_sets() {
        let set = SharedQuerySet::compile(&qs(&["a"]));
        assert_eq!(set.ids(), ["q0"]);
        let (counts, _) = set.count_events(parse_events("<a/>").unwrap());
        assert_eq!(counts, vec![1]);
    }

    #[test]
    fn sharing_scales_with_profile_count() {
        // 50 queries with a common `quotes.quote` prefix: 2 shared steps,
        // 50 distinct heads.
        let texts: Vec<String> = (0..50).map(|i| format!("quotes.quote.s{i}")).collect();
        let queries: Vec<(String, Rpeq)> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| (format!("q{i}"), t.parse().unwrap()))
            .collect();
        let set = SharedQuerySet::compile(&queries);
        // IN + CH(quotes) + CH(quote) + 50×(CH + OU) = 103.
        assert_eq!(set.degree(), 103);
        assert_eq!(set.unshared_degree(), 50 * 5);
    }
}
