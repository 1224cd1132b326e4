//! SPEX networks (Definition 3): the spec, its builder, and the reference
//! executor.
//!
//! A SPEX network is a DAG of transducers with one source (the input
//! transducer) and — for plain rpeq queries — one sink (the output
//! transducer; conjunctive queries, §VII, have one sink per head variable).
//! [`NetworkBuilder`] assembles a [`NetworkSpec`]; [`crate::vm::Plan`]
//! lowers it and [`crate::vm::PlanRun`] executes it.
//!
//! [`Run`] is the *reference* executor: the paper's tick discipline written
//! the obvious way — one boxed transducer per node, a fresh queue per port
//! per tick, every node stepped on every tick. Nothing in production reaches
//! it; `harness vm-diff` and the test suite compare the VM's scheduling
//! against it, so it carries only what a rig compares (fragments in delivery
//! order, statistics, determination latency, limit breaches, transition
//! traces, session reset) and documents itself by pointing at [`PlanRun`].

use crate::engine::EvalError;
use crate::limits::{LimitBreach, ResourceLimits};
use crate::message::{DocEvent, Message};
use crate::sink::{ResultSink, SinkBank, Slot};
use crate::stats::{EngineStats, TransducerStats};
use crate::transducers::child::{Child, MatchLabel};
use crate::transducers::closure::Closure;
use crate::transducers::input::Input;
use crate::transducers::join::Join;
use crate::transducers::output::Output;
use crate::transducers::split::Split;
use crate::transducers::union_::Union;
use crate::transducers::var_creator::VarCreator;
use crate::transducers::var_determinant::VarDeterminant;
use crate::transducers::var_filter::VarFilter;
use crate::transducers::Transducer;
#[cfg(doc)]
use crate::vm::{Machine, PlanRun};
use spex_formula::{QualifierId, VarFactory};
use spex_query::Label;
use spex_trace::Histogram;
use spex_xml::{EventId, EventStore, StoredKind, XmlEvent};

/// The template of one network node — which transducer to instantiate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeSpec {
    /// Input transducer IN (the source).
    Input,
    /// Child transducer CH(label).
    Child(Label),
    /// Closure transducer CL(label).
    Closure(Label),
    /// Following transducer FO(label) — the `following::` axis extension.
    Following(Label),
    /// Preceding transducer PR(label) — the `preceding::` axis extension;
    /// its speculative variables are minted under the qualifier id.
    Preceding(Label, QualifierId),
    /// Variable creator VC(q).
    VarCreator(QualifierId),
    /// Positive variable filter VF(q+); the pair is the id range of
    /// qualifiers nested inside this qualifier's sub-network.
    VarFilterPos(QualifierId, (u32, u32)),
    /// Negative variable filter VF(q−).
    VarFilterNeg(QualifierId),
    /// Variable determinant VD for a qualifier, with the same inner range.
    VarDeterminant(QualifierId, (u32, u32)),
    /// Split SP (two output tapes).
    Split,
    /// Join JO (two input tapes).
    Join,
    /// Union connector UN.
    Union,
    /// Output transducer OU (a sink).
    Output,
}

impl NodeSpec {
    /// Short description in the paper's notation, e.g. `CH(a)`, `VC(q0)`.
    pub fn describe(&self) -> String {
        match self {
            NodeSpec::Input => "IN".to_string(),
            NodeSpec::Child(l) => format!("CH({l})"),
            NodeSpec::Closure(l) => format!("CL({l})"),
            NodeSpec::Following(l) => format!("FO({l})"),
            NodeSpec::Preceding(l, q) => format!("PR({l},{q})"),
            NodeSpec::VarCreator(q) => format!("VC({q})"),
            NodeSpec::VarFilterPos(q, _) => format!("VF({q}+)"),
            NodeSpec::VarFilterNeg(q) => format!("VF({q}-)"),
            NodeSpec::VarDeterminant(..) => "VD".to_string(),
            NodeSpec::Split => "SP".to_string(),
            NodeSpec::Join => "JO".to_string(),
            NodeSpec::Union => "UN".to_string(),
            NodeSpec::Output => "OU".to_string(),
        }
    }
}

/// A tape: the output of a network node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tape {
    pub(crate) node: usize,
}

impl Tape {
    /// The producing node's id (stable within one builder; used as a memo
    /// key by the multi-query compiler).
    pub fn node(&self) -> usize {
        self.node
    }
}

/// An immutable, compiled network shape: nodes in topological order plus the
/// input wiring.
#[derive(Debug, Clone)]
pub struct NetworkSpec {
    pub(crate) nodes: Vec<NodeSpec>,
    /// For each node, its input tapes (upstream node ids) in port order.
    pub(crate) inputs: Vec<Vec<usize>>,
    /// Sink node ids (one per query head).
    pub(crate) sinks: Vec<usize>,
}

impl NetworkSpec {
    /// The network degree — the number of transducers (Definition 3 /
    /// Lemma V.1: linear in the query length).
    pub fn degree(&self) -> usize {
        self.nodes.len()
    }

    /// Number of sink (output transducer) nodes — the count of physical
    /// result streams a run delivers.
    pub fn sink_count(&self) -> usize {
        self.sinks.len()
    }

    /// Node descriptions in topological order (used by tests and by the
    /// CLI's `--explain`).
    pub fn describe(&self) -> Vec<String> {
        self.nodes.iter().map(NodeSpec::describe).collect()
    }

    /// Human-readable wiring, one line per node.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (i, n) in self.nodes.iter().enumerate() {
            let ins: Vec<String> = self.inputs[i].iter().map(|u| u.to_string()).collect();
            out.push_str(&format!(
                "{i:3}: {} <- [{}]\n",
                n.describe(),
                ins.join(", ")
            ));
        }
        out
    }
}

/// Builder used by the compiler (the σ of the denotational semantics).
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    nodes: Vec<NodeSpec>,
    inputs: Vec<Vec<usize>>,
    sinks: Vec<usize>,
    qualifiers: u32,
}

impl NetworkBuilder {
    /// Start an empty network with its input transducer; returns the
    /// builder and the input's output tape.
    pub fn with_input() -> (NetworkBuilder, Tape) {
        let mut b = NetworkBuilder::default();
        let t = b.add(NodeSpec::Input, &[]);
        (b, t)
    }

    /// Add a node reading from the given tapes; returns its output tape.
    pub fn add(&mut self, spec: NodeSpec, inputs: &[Tape]) -> Tape {
        let id = self.nodes.len();
        for t in inputs {
            debug_assert!(t.node < id, "nodes must be added in topological order");
        }
        self.nodes.push(spec);
        self.inputs.push(inputs.iter().map(|t| t.node).collect());
        Tape { node: id }
    }

    /// Add a single-input node in a chain.
    pub fn chain(&mut self, spec: NodeSpec, input: Tape) -> Tape {
        self.add(spec, &[input])
    }

    /// Add a split; both output tapes are the same node (consumers attach to
    /// it independently, fan-out copies messages).
    pub fn split(&mut self, input: Tape) -> (Tape, Tape) {
        let t = self.chain(NodeSpec::Split, input);
        (t, t)
    }

    /// Add a join over two tapes.
    pub fn join(&mut self, left: Tape, right: Tape) -> Tape {
        self.add(NodeSpec::Join, &[left, right])
    }

    /// Mint a fresh qualifier id.
    pub fn fresh_qualifier(&mut self) -> QualifierId {
        let q = QualifierId(self.qualifiers);
        self.qualifiers += 1;
        q
    }

    /// Number of qualifier ids minted so far (used to compute a qualifier's
    /// inner id range).
    pub fn qualifier_count(&self) -> u32 {
        self.qualifiers
    }

    /// Terminate `tape` with an output transducer (a sink).
    pub fn add_sink(&mut self, tape: Tape) -> Tape {
        let t = self.chain(NodeSpec::Output, tape);
        self.sinks.push(t.node);
        t
    }

    /// Finish building.
    pub fn finish(self) -> NetworkSpec {
        debug_assert!(!self.sinks.is_empty(), "a network needs at least one sink");
        NetworkSpec {
            nodes: self.nodes,
            inputs: self.inputs,
            sinks: self.sinks,
        }
    }
}

enum NodeInstance {
    Single(Box<dyn Transducer>),
    Join(Join),
    Output(Box<Output>),
}

/// Instantiate every node of `spec`, resolving match labels against
/// `symbols`. Returns the instances plus, for output nodes, which sink slot
/// each one feeds. Shared by [`Run::new`] and [`Run::reset_session`] (the
/// latter rebuilds the instances so no per-document transducer state can
/// survive into the next document).
fn build_nodes(
    spec: &NetworkSpec,
    symbols: &mut spex_xml::SymbolTable,
) -> (Vec<NodeInstance>, Vec<usize>) {
    let mut nodes = Vec::with_capacity(spec.nodes.len());
    let mut sink_index = vec![usize::MAX; spec.nodes.len()];
    for (i, n) in spec.nodes.iter().enumerate() {
        let inst = match n {
            NodeSpec::Input => NodeInstance::Single(Box::new(Input::new())),
            NodeSpec::Child(l) => {
                NodeInstance::Single(Box::new(Child::new(MatchLabel::resolve(l, symbols))))
            }
            NodeSpec::Closure(l) => {
                NodeInstance::Single(Box::new(Closure::new(MatchLabel::resolve(l, symbols))))
            }
            NodeSpec::Following(l) => NodeInstance::Single(Box::new(
                crate::transducers::following::Following::new(MatchLabel::resolve(l, symbols)),
            )),
            NodeSpec::Preceding(l, q) => NodeInstance::Single(Box::new(
                crate::transducers::preceding::Preceding::new(MatchLabel::resolve(l, symbols), *q),
            )),
            NodeSpec::VarCreator(q) => NodeInstance::Single(Box::new(VarCreator::new(*q))),
            NodeSpec::VarFilterPos(q, inner) => {
                NodeInstance::Single(Box::new(VarFilter::positive(*q, inner.0..inner.1)))
            }
            NodeSpec::VarFilterNeg(q) => NodeInstance::Single(Box::new(VarFilter::negative(*q))),
            NodeSpec::VarDeterminant(q, inner) => {
                NodeInstance::Single(Box::new(VarDeterminant::new(*q, inner.0..inner.1)))
            }
            NodeSpec::Split => NodeInstance::Single(Box::new(Split::new())),
            NodeSpec::Union => NodeInstance::Single(Box::new(Union::new())),
            NodeSpec::Join => NodeInstance::Join(Join::new()),
            NodeSpec::Output => {
                let idx = spec
                    .sinks
                    .iter()
                    .position(|s| *s == i)
                    .expect("output node registered as sink");
                sink_index[i] = idx;
                NodeInstance::Output(Box::new(Output::new()))
            }
        };
        nodes.push(inst);
    }
    (nodes, sink_index)
}

/// The reference executor: a running instantiation of a network over one
/// stream, pushing results into its sinks (one per logical query). Same
/// contract as [`PlanRun`], method for method.
pub struct Run<'n, S: ResultSink> {
    spec: &'n NetworkSpec,
    nodes: Vec<NodeInstance>,
    /// Which sink (index into `sinks`) each node feeds, for output nodes.
    sink_index: Vec<usize>,
    /// inbox[node][port] — messages for the current tick.
    inbox: Vec<Vec<Vec<Message>>>,
    /// consumers[node] — (downstream node, port) pairs.
    consumers: Vec<Vec<(usize, usize)>>,
    store: EventStore,
    vars: VarFactory,
    sinks: SinkBank<S>,
    stats: EngineStats,
    /// Per-node measurements, same indexing as `nodes`.
    node_stats: Vec<TransducerStats>,
    limits: ResourceLimits,
    exhausted: Option<LimitBreach>,
    tick: u64,
    depth: usize,
    tracing: bool,
    symbol_baseline: usize,
    /// Accumulated across [`Run::reset_session`] rebuilds, indexed like
    /// `nodes`.
    det_latency: Vec<Histogram>,
}

impl<'n, S: ResultSink> Run<'n, S> {
    /// Instantiate `spec` with one sink per network sink node.
    pub fn new(spec: &'n NetworkSpec, sinks: Vec<S>) -> Self {
        let identity: Vec<usize> = (0..spec.sinks.len()).collect();
        Self::with_slots(spec, sinks, &identity)
    }

    /// Instantiate `spec` with one sink per logical query, `slot_of[i]`
    /// naming the network sink node serving `sinks[i]` (see
    /// [`PlanRun::with_slots`]).
    pub fn with_slots(spec: &'n NetworkSpec, sinks: Vec<S>, slot_of: &[usize]) -> Self {
        let sinks = SinkBank::new(sinks, slot_of, spec.sinks.len());
        let mut store = EventStore::new();
        let (nodes, sink_index) = build_nodes(spec, store.symbols_mut());
        let symbol_baseline = store.symbols().len();
        // Wire consumers: node u feeds (v, port) for each input edge of v.
        let mut consumers: Vec<Vec<(usize, usize)>> = vec![Vec::new(); spec.nodes.len()];
        for (v, ins) in spec.inputs.iter().enumerate() {
            for (port, u) in ins.iter().enumerate() {
                consumers[*u].push((v, port));
            }
        }
        let inbox = spec
            .inputs
            .iter()
            .map(|ins| vec![Vec::new(); ins.len().max(1)])
            .collect();
        let node_stats = spec
            .nodes
            .iter()
            .enumerate()
            .map(|(node, n)| TransducerStats {
                node,
                kind: n.describe(),
                ..TransducerStats::default()
            })
            .collect();
        let det_latency = vec![Histogram::new(); spec.nodes.len()];
        Run {
            spec,
            nodes,
            sink_index,
            inbox,
            consumers,
            store,
            vars: VarFactory::new(),
            sinks,
            stats: EngineStats::default(),
            node_stats,
            limits: ResourceLimits::default(),
            exhausted: None,
            tick: 0,
            depth: 0,
            tracing: false,
            symbol_baseline,
            det_latency,
        }
    }

    /// See [`Machine::set_limits`].
    pub fn set_limits(&mut self, limits: ResourceLimits) {
        self.limits = limits;
    }

    /// See [`Machine::exhausted`].
    pub fn exhausted(&self) -> Option<LimitBreach> {
        self.exhausted
    }

    /// See [`Machine::set_tracing`].
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        for n in &mut self.nodes {
            match n {
                NodeInstance::Single(t) => t.set_tracing(on),
                NodeInstance::Join(j) => j.set_tracing(on),
                NodeInstance::Output(_) => {}
            }
        }
    }

    /// See [`Machine::take_traces`].
    pub fn take_traces(&mut self) -> Vec<String> {
        self.nodes
            .iter_mut()
            .map(|n| match n {
                NodeInstance::Single(t) => {
                    crate::transducers::format_transitions(&t.take_transitions())
                }
                NodeInstance::Join(j) => {
                    crate::transducers::format_transitions(&j.take_transitions())
                }
                NodeInstance::Output(_) => String::new(),
            })
            .collect()
    }

    /// See [`PlanRun::push`].
    pub fn push(&mut self, event: XmlEvent) {
        let _ = self.try_push(event);
    }

    /// See [`PlanRun::try_push`].
    pub fn try_push(&mut self, event: XmlEvent) -> Result<(), EvalError> {
        if let Some(b) = self.exhausted {
            return Err(b.into());
        }
        let id = self.store.push_owned(&event);
        self.try_push_id(id)
    }

    /// One tick, then the limit check — see [`PlanRun::try_push_id`].
    fn try_push_id(&mut self, id: EventId) -> Result<(), EvalError> {
        if let Some(b) = self.exhausted {
            return Err(b.into());
        }
        self.push_unchecked(id);
        self.stats.peak_arena_bytes = self.stats.peak_arena_bytes.max(self.store.bytes_used());
        self.stats.interned_symbols = self.stats.interned_symbols.max(self.store.symbols().len());
        if let Err(b) = self.limits.check(&self.stats) {
            self.exhausted = Some(b);
            self.abort();
            return Err(b.into());
        }
        if self.outputs_idle() {
            self.store.reset();
        }
        Ok(())
    }

    fn outputs_idle(&self) -> bool {
        self.nodes.iter().all(|n| match n {
            NodeInstance::Output(o) => o.buffered_events() == 0 && o.live_candidates() == 0,
            _ => true,
        })
    }

    fn push_unchecked(&mut self, id: EventId) {
        let rec = self.store.stored(id);
        let doc = match rec.kind {
            StoredKind::StartDocument | StoredKind::Start => DocEvent::Open {
                label: rec.sym,
                payload: id,
            },
            StoredKind::EndDocument | StoredKind::End => DocEvent::Close {
                label: rec.sym,
                payload: id,
            },
            StoredKind::Text | StoredKind::Comment | StoredKind::Pi => {
                DocEvent::Item { payload: id }
            }
        };
        match &doc {
            DocEvent::Open { .. } => {
                self.depth += 1;
                self.stats.max_stream_depth = self.stats.max_stream_depth.max(self.depth);
            }
            DocEvent::Close { .. } => self.depth = self.depth.saturating_sub(1),
            DocEvent::Item { .. } => {}
        }
        self.inbox[0][0].push(Message::Doc(doc));
        self.run_tick();
        self.tick += 1;
    }

    fn run_tick(&mut self) {
        let mut outbuf: Vec<Message> = Vec::new();
        for id in 0..self.nodes.len() {
            outbuf.clear();
            match &mut self.nodes[id] {
                NodeInstance::Single(t) => {
                    let msgs = std::mem::take(&mut self.inbox[id][0]);
                    for m in msgs {
                        self.stats.messages += 1;
                        self.node_stats[id].messages += 1;
                        let size = m.formula_size();
                        self.stats.observe_formula(size);
                        self.node_stats[id].max_formula_size =
                            self.node_stats[id].max_formula_size.max(size);
                        t.step(m, &mut self.vars, &mut outbuf);
                    }
                    let (d, c) = t.stack_sizes();
                    self.stats.observe_stacks(d, c);
                    self.node_stats[id].max_depth_stack =
                        self.node_stats[id].max_depth_stack.max(d);
                    self.node_stats[id].max_cond_stack = self.node_stats[id].max_cond_stack.max(c);
                }
                NodeInstance::Join(j) => {
                    let left = std::mem::take(&mut self.inbox[id][0]);
                    let right = std::mem::take(&mut self.inbox[id][1]);
                    self.stats.messages += (left.len() + right.len()) as u64;
                    self.node_stats[id].messages += (left.len() + right.len()) as u64;
                    j.step2(left, right, &mut outbuf);
                }
                NodeInstance::Output(_) => {
                    let msgs = std::mem::take(&mut self.inbox[id][0]);
                    let sink_idx = self.sink_index[id];
                    // Split borrow: re-borrow the node mutably inside.
                    if let NodeInstance::Output(o) = &mut self.nodes[id] {
                        for m in msgs {
                            self.stats.messages += 1;
                            self.node_stats[id].messages += 1;
                            let size = m.formula_size();
                            self.stats.observe_formula(size);
                            self.node_stats[id].max_formula_size =
                                self.node_stats[id].max_formula_size.max(size);
                            o.step(
                                m,
                                &mut Slot(&mut self.sinks, sink_idx),
                                self.tick,
                                &mut self.stats,
                                &self.store,
                            );
                        }
                    }
                    continue;
                }
            }
            // Fan out to consumers; the last consumer takes ownership.
            let consumers = &self.consumers[id];
            match consumers.len() {
                0 => {}
                1 => {
                    let (v, p) = consumers[0];
                    self.inbox[v][p].append(&mut outbuf);
                }
                _ => {
                    for (v, p) in &consumers[..consumers.len() - 1] {
                        self.inbox[*v][*p].extend(outbuf.iter().cloned());
                    }
                    let (v, p) = consumers[consumers.len() - 1];
                    self.inbox[v][p].append(&mut outbuf);
                }
            }
        }
    }

    /// Drain the run after a limit breach: flush already-determined results,
    /// release undetermined buffers, discard in-flight messages.
    fn abort(&mut self) {
        for id in 0..self.nodes.len() {
            let sink_idx = self.sink_index[id];
            if let NodeInstance::Output(o) = &mut self.nodes[id] {
                o.abort(
                    &mut Slot(&mut self.sinks, sink_idx),
                    self.tick,
                    &mut self.stats,
                    &self.store,
                );
            }
        }
        for ports in &mut self.inbox {
            for p in ports {
                p.clear();
            }
        }
    }

    /// See [`PlanRun::finish`].
    pub fn finish(self) -> EngineStats {
        self.finish_full().0
    }

    /// See [`PlanRun::finish_full`].
    pub fn finish_full(mut self) -> (EngineStats, Vec<TransducerStats>) {
        for id in 0..self.nodes.len() {
            let sink_idx = self.sink_index[id];
            if let NodeInstance::Output(o) = &mut self.nodes[id] {
                o.finish(
                    &mut Slot(&mut self.sinks, sink_idx),
                    self.tick,
                    &mut self.stats,
                    &self.store,
                );
            }
        }
        self.stats.ticks = self.tick;
        self.stats.vars_created = u64::from(self.vars.minted());
        self.stats.peak_arena_bytes = self.stats.peak_arena_bytes.max(self.store.peak_bytes());
        self.stats.interned_symbols = self.stats.interned_symbols.max(self.store.symbols().len());
        self.harvest_latency();
        (self.stats, self.node_stats)
    }

    /// Fold the live output transducers' determination-latency histograms
    /// into the across-reset accumulators.
    fn harvest_latency(&mut self) {
        for (id, n) in self.nodes.iter().enumerate() {
            if let NodeInstance::Output(o) = n {
                self.det_latency[id].merge(o.determination_latency());
            }
        }
    }

    /// See [`Machine::determination_latency`].
    pub fn determination_latency(&self) -> Vec<(usize, Histogram)> {
        let mut out = Vec::new();
        for (id, n) in self.nodes.iter().enumerate() {
            if let NodeInstance::Output(o) = n {
                let mut h = self.det_latency[id].clone();
                h.merge(o.determination_latency());
                out.push((id, h));
            }
        }
        out
    }

    /// See [`Machine::reset_session`]: every transducer instance is rebuilt
    /// from the spec.
    pub fn reset_session(&mut self) {
        self.harvest_latency();
        self.store.reset();
        self.store.symbols_mut().truncate(self.symbol_baseline);
        let (nodes, sink_index) = build_nodes(self.spec, self.store.symbols_mut());
        self.nodes = nodes;
        self.sink_index = sink_index;
        for ports in &mut self.inbox {
            for p in ports {
                p.clear();
            }
        }
        self.depth = 0;
        if self.tracing {
            self.set_tracing(true);
        }
    }

    /// See [`Machine::stats`].
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// See [`Machine::transducer_stats`].
    pub fn transducer_stats(&self) -> &[TransducerStats] {
        &self.node_stats
    }

    /// See [`Machine::tick`].
    pub fn tick(&self) -> u64 {
        self.tick
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::FragmentCollector;

    /// Hand-build the IN → CH(a) → CH(c) → OU network of example III.1 and
    /// run the Fig. 1 stream through the executor.
    #[test]
    fn hand_built_child_chain() {
        let (mut b, t) = NetworkBuilder::with_input();
        let t = b.chain(NodeSpec::Child(Label::name("a")), t);
        let t = b.chain(NodeSpec::Child(Label::name("c")), t);
        b.add_sink(t);
        let spec = b.finish();
        assert_eq!(spec.degree(), 4);
        assert_eq!(spec.describe(), vec!["IN", "CH(a)", "CH(c)", "OU"]);

        let mut sink = FragmentCollector::new();
        let mut run = Run::new(&spec, vec![&mut sink]);
        for ev in spex_xml::reader::parse_events("<a><a><c/></a><b/><c/></a>").unwrap() {
            run.push(ev);
        }
        let stats = run.finish();
        assert_eq!(sink.fragments(), ["<c></c>".to_string()]);
        assert_eq!(stats.results, 1);
        assert_eq!(stats.ticks, 12);
    }

    /// A hand-built split/join pair is transparent for plain streams.
    #[test]
    fn split_join_is_transparent() {
        let (mut b, t) = NetworkBuilder::with_input();
        let (t1, t2) = b.split(t);
        let t = b.join(t1, t2);
        let t = b.chain(NodeSpec::Union, t);
        let t = b.chain(NodeSpec::Child(Label::name("b")), t);
        b.add_sink(t);
        let spec = b.finish();

        let mut sink = FragmentCollector::new();
        let mut run = Run::new(&spec, vec![&mut sink]);
        for ev in spex_xml::reader::parse_events("<a><b>x</b><c/></a>").unwrap() {
            run.push(ev);
        }
        run.finish();
        // `b` is not a child of the root (the root is `a`), so no results…
        assert!(sink.fragments().is_empty());

        // …but a `CH(a)`-prefixed network selects it.
        let (mut b2, t) = NetworkBuilder::with_input();
        let t = b2.chain(NodeSpec::Child(Label::name("a")), t);
        let (t1, t2) = b2.split(t);
        let t = b2.join(t1, t2);
        let t = b2.chain(NodeSpec::Union, t);
        let t = b2.chain(NodeSpec::Child(Label::name("b")), t);
        b2.add_sink(t);
        let spec2 = b2.finish();
        let mut sink2 = FragmentCollector::new();
        let mut run2 = Run::new(&spec2, vec![&mut sink2]);
        for ev in spex_xml::reader::parse_events("<a><b>x</b><c/></a>").unwrap() {
            run2.push(ev);
        }
        run2.finish();
        assert_eq!(sink2.fragments(), ["<b>x</b>".to_string()]);
    }

    #[test]
    fn stats_track_depth_and_messages() {
        let (mut b, t) = NetworkBuilder::with_input();
        let t = b.chain(NodeSpec::Child(Label::name("x")), t);
        b.add_sink(t);
        let spec = b.finish();
        let mut sink = FragmentCollector::new();
        let mut run = Run::new(&spec, vec![&mut sink]);
        for ev in spex_xml::reader::parse_events("<a><b><c/></b></a>").unwrap() {
            run.push(ev);
        }
        let stats = run.finish();
        assert_eq!(stats.max_stream_depth, 4); // $, a, b, c
        assert!(stats.messages >= 8 * 3);
        assert!(stats.max_depth_stack <= 4);
    }

    #[test]
    fn per_transducer_messages_sum_to_global_count() {
        let net = crate::CompiledNetwork::compile(&"_*.a[b].c".parse().unwrap());
        let mut sink = FragmentCollector::new();
        let mut run = Run::new(net.spec(), vec![&mut sink]);
        for ev in spex_xml::reader::parse_events("<a><a><c/></a><b/><c/></a>").unwrap() {
            run.push(ev);
        }
        let per_node: u64 = run.transducer_stats().iter().map(|t| t.messages).sum();
        assert_eq!(per_node, run.stats().messages);
        // Snapshots carry the node descriptions, in topological order.
        let kinds: Vec<&str> = run
            .transducer_stats()
            .iter()
            .map(|t| t.kind.as_str())
            .collect();
        assert_eq!(kinds, net.spec().describe());
        assert_eq!(run.transducer_stats()[0].kind, "IN");
        // Every node's stacks obey the paper's per-transducer bound.
        let d = run.stats().max_stream_depth;
        for t in run.transducer_stats() {
            assert!(t.max_depth_stack <= d, "node {} ({})", t.node, t.kind);
        }
        let (stats, per) = run.finish_full();
        assert_eq!(per.iter().map(|t| t.messages).sum::<u64>(), stats.messages);
    }

    #[test]
    fn limit_breach_drains_and_latches() {
        // `r.x` over a fan-out stream with a message cap low enough to trip
        // mid-stream: results decided before the breach were delivered.
        let net = crate::CompiledNetwork::compile(&"r.x".parse().unwrap());
        let mut sink = FragmentCollector::new();
        let mut run = Run::new(net.spec(), vec![&mut sink]);
        run.set_limits(crate::ResourceLimits::default().with_max_total_messages(40));
        let events =
            spex_xml::reader::parse_events("<r><x>1</x><x>2</x><x>3</x><x>4</x></r>").unwrap();
        let mut err = None;
        for ev in events {
            if let Err(e) = run.try_push(ev) {
                err = Some(e);
                break;
            }
        }
        let breach = run.exhausted().expect("cap must trip");
        assert_eq!(breach.kind, crate::LimitKind::TotalMessages);
        assert!(matches!(err, Some(EvalError::ResourceExhausted { .. })));
        // Latched: further input is refused with the same error.
        assert!(run.try_push(XmlEvent::text("late")).is_err());
        // Still queryable; finish() is safe after the drain.
        assert!(run.stats().messages > 40);
        let breach_tick = run.tick();
        let stats = run.finish();
        assert_eq!(stats.results + stats.dropped, stats.candidates_created);
        // Results decided before the breach reached the sink — delivered no
        // later than the tick the cap tripped on.
        assert!(!sink.fragments().is_empty());
        assert!(sink
            .timing
            .iter()
            .all(|(_, delivered)| *delivered <= breach_tick));
    }

    #[test]
    #[should_panic(expected = "sink")]
    fn sink_count_mismatch_panics() {
        let (mut b, t) = NetworkBuilder::with_input();
        b.add_sink(t);
        let spec = b.finish();
        let _ = Run::<FragmentCollector>::new(&spec, vec![]);
    }
}
