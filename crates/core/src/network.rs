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
//! the obvious way, as a second schedule over the VM's own [`Machine`]. It
//! keeps only what makes it a reference — its wiring, read from the spec's
//! input lists; a plan lowered without label switches; a fresh queue per
//! port per tick; every node stepped on every tick, in topological order;
//! accounting message by message — and shares the rest with the VM: the
//! operator states, the event-to-message mapping, limits, arena recycling,
//! latency, session reset and finish. Because it steps every node as
//! itself, transition tracing (the paper's per-message view) is its own.
//! Nothing in production reaches it; `harness vm-diff` and the test suite
//! compare the VM's scheduling against it, so a divergence can only come
//! from the VM's own schedule (its CSR wiring, its wake sets, its document
//! register and static document-message accounting, its batched
//! accounting): stepping only the woken nodes must equal stepping them all.

use crate::engine::EvalError;
use crate::message::{DocEvent, Message};
use crate::sink::{ResultSink, SlotSinks};
use crate::stats::{EngineStats, TransducerStats};
use crate::vm::{Machine, OpState, Plan, PlanRun};
use spex_formula::QualifierId;
use spex_query::Label;
use spex_xml::XmlEvent;
use std::sync::Arc;
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
    /// Shared with every [`Plan`] lowered from this spec.
    pub(crate) nodes: Arc<[NodeSpec]>,
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
            nodes: self.nodes.into(),
            inputs: self.inputs,
            sinks: self.sinks,
        }
    }
}

/// The reference executor: a [`PlanRun`] over the spec's network, lowered
/// without label switches, ticked by its own schedule. Same contract as
/// [`PlanRun`] for pushing and finishing; transition tracing is its own;
/// everything else (statistics, limits, latency, session reset) is the
/// [`Machine`] it derefs to.
pub struct Run<S: ResultSink> {
    run: PlanRun<S>,
    /// `consumers[u]`: the `(node, port)` pairs reading node `u`'s output,
    /// in ascending node order — taken from [`NetworkSpec`]'s input lists,
    /// not from the plan's lowering of them.
    consumers: Vec<Vec<(usize, usize)>>,
}

impl<S: ResultSink> Run<S> {
    /// Instantiate `spec` with one sink per network sink node.
    pub fn new(spec: &NetworkSpec, sinks: Vec<S>) -> Self {
        let identity: Vec<usize> = (0..spec.sinks.len()).collect();
        Self::with_slots(spec, sinks, &identity)
    }

    /// Instantiate `spec` with one sink per logical query, `slot_of[i]`
    /// naming the network sink node serving `sinks[i]` (see
    /// [`PlanRun::new`]).
    pub fn with_slots(spec: &NetworkSpec, sinks: Vec<S>, slot_of: &[usize]) -> Self {
        let mut consumers = vec![Vec::new(); spec.nodes.len()];
        for (v, ins) in spec.inputs.iter().enumerate() {
            for (port, &u) in ins.iter().enumerate() {
                consumers[u].push((v, port));
            }
        }
        Run {
            run: PlanRun::new(Arc::new(Plan::lower(spec, false)), sinks, slot_of),
            consumers,
        }
    }

    /// Enable transition tracing on every operator (for the golden
    /// paper-trace tests). This schedule steps every node on every tick, so
    /// each fires the transitions the paper's tables list for it, the
    /// implied `l` levels' (2) and (3) included.
    pub fn set_tracing(&mut self, on: bool) {
        for op in &mut self.run.ops {
            op.set_tracing(on);
        }
    }

    /// Drain per-node transition traces fired since the last call, rendered
    /// in the paper's `"1,5"` style, indexed by node id.
    pub fn take_traces(&mut self) -> Vec<String> {
        self.run
            .ops
            .iter_mut()
            .map(|op| crate::transducers::format_transitions(&op.take_transitions()))
            .collect()
    }

    /// See [`PlanRun::push`].
    pub fn push(&mut self, event: XmlEvent) {
        let _ = self.try_push(event);
    }

    /// See [`PlanRun::try_push`].
    pub fn try_push(&mut self, event: XmlEvent) -> Result<(), EvalError> {
        let (machine, sinks) = self.run.parts();
        if let Some(b) = machine.exhausted() {
            return Err(b.into());
        }
        let id = machine.store_mut().push_owned(&event);
        let consumers = &self.consumers;
        machine.tick_with(id, sinks, |m, doc, sinks| {
            reference_tick(m, doc, sinks, consumers)
        })
    }

    /// See [`PlanRun::sinks`].
    pub fn sinks(&self) -> &[S] {
        self.run.sinks()
    }

    /// See [`PlanRun::finish`].
    pub fn finish(self) -> EngineStats {
        self.run.finish()
    }

    /// See [`PlanRun::finish_full`].
    pub fn finish_full(self) -> (EngineStats, Vec<TransducerStats>) {
        self.run.finish_full()
    }
}

impl<S: ResultSink> std::ops::Deref for Run<S> {
    type Target = Machine;

    fn deref(&self) -> &Machine {
        &self.run
    }
}

impl<S: ResultSink> std::ops::DerefMut for Run<S> {
    fn deref_mut(&mut self) -> &mut Machine {
        &mut self.run
    }
}

/// One tick of the paper's discipline (§III.2), the obvious way: every
/// node, in topological order, takes the messages its producers emitted
/// this tick, steps them one at a time with per-message accounting, and
/// copies its output to each consumer.
fn reference_tick(
    m: &mut Machine,
    doc: DocEvent,
    sinks: &mut dyn SlotSinks,
    consumers: &[Vec<(usize, usize)>],
) {
    m.touch_all();
    m.count_every_step();
    let mut inbox: Vec<[Vec<Message>; 2]> = vec![Default::default(); consumers.len()];
    inbox[0][0].push(Message::Doc(doc));
    for id in 0..consumers.len() {
        let [mut msgs, mut right] = std::mem::take(&mut inbox[id]);
        let mut out = Vec::new();
        if let OpState::Join(j) = &mut m.ops[id] {
            let consumed = (msgs.len() + right.len()) as u64;
            m.stats.messages += consumed;
            m.node_stats[id].messages += consumed;
            j.step2_drain(&mut msgs, &mut right, &mut out);
        } else {
            for msg in msgs {
                m.stats.messages += 1;
                m.node_stats[id].messages += 1;
                let size = msg.formula_size();
                m.stats.observe_formula(size);
                m.node_stats[id].max_formula_size = m.node_stats[id].max_formula_size.max(size);
                match &mut m.ops[id] {
                    OpState::Emit(_) => m.step_output(id, msg, sinks),
                    op => op.step(msg, &mut m.vars, &mut out),
                }
            }
        }
        let (d, c) = m.ops[id].stack_sizes(m.depth);
        m.stats.observe_stacks(d, c);
        let ns = &mut m.node_stats[id];
        ns.max_depth_stack = ns.max_depth_stack.max(d);
        ns.max_cond_stack = ns.max_cond_stack.max(c);
        for &(v, port) in &consumers[id] {
            inbox[v][port].extend(out.iter().cloned());
        }
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
        let kinds: Vec<String> = run.transducer_stats().into_iter().map(|t| t.kind).collect();
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
