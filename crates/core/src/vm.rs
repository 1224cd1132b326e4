//! The execution engine: a flat bytecode plan for the transducer network,
//! executed by a small VM.
//!
//! [`Plan::compile`] lowers a built [`NetworkSpec`] into a flat instruction
//! table:
//!
//! * one dense [`Op`] per node (opcode + resolved operand indices) in
//!   topological order,
//! * the inbox ports of all nodes laid out contiguously in one slot array
//!   (CSR layout: `port_base[node] + port`),
//! * the consumer fan-out edges flattened the same way
//!   (`cons[cons_base[node]..cons_base[node + 1]]` are inbox slot ids),
//! * the sink table for output nodes.
//!
//! [`PlanRun`] executes the plan with **no boxed trait objects and no queue
//! re-allocation on the hot path**: operator state lives in a flat
//! `Vec<OpState>` (an enum over the concrete transducer structs — statically
//! dispatched), message buffers are persistent and recycled by
//! `swap`/`drain`, and nodes whose inbox is empty are skipped entirely.
//!
//! [`PlanRun`] is the only executor anything outside a differential rig
//! reaches: [`crate::Evaluator`], the multi-query and conjunctive-query
//! runs, the recovery driver and the server sessions all run on it. Its
//! scheduling is checked against the reference executor in
//! [`crate::network`], which steps the *same* transducer structs one boxed
//! node at a time: `harness vm-diff` and the proptest suite drive random
//! documents × random queries through both (plus the DOM baseline) and fail
//! on the first divergence in outputs, statistics or earliness. See
//! DESIGN.md §14 for the plan IR and a worked lowering example.

use crate::engine::EvalError;
use crate::limits::{LimitBreach, ResourceLimits};
use crate::message::{DocEvent, Message};
use crate::network::{NetworkSpec, NodeSpec};
use crate::sink::{ResultSink, SinkBank, Slot, SlotSinks};
use crate::snapshot::{Snapshot, SnapshotError};
use crate::stats::{EngineStats, TransducerStats};
use crate::transducers::child::{Child, MatchLabel};
use crate::transducers::closure::Closure;
use crate::transducers::following::Following;
use crate::transducers::input::Input;
use crate::transducers::join::Join;
use crate::transducers::output::Output;
use crate::transducers::preceding::Preceding;
use crate::transducers::split::Split;
use crate::transducers::union_::Union;
use crate::transducers::var_creator::VarCreator;
use crate::transducers::var_determinant::VarDeterminant;
use crate::transducers::var_filter::VarFilter;
use crate::transducers::Transducer;
use spex_formula::{QualifierId, VarFactory};
use spex_query::Label;
use spex_trace::{Histogram, Tracer, Value};
use spex_xml::{EventId, EventStore, StoredKind, XmlEvent};
use std::sync::Arc;

// Only for `benchmark/trace` (frozen in this PR), which names `Engine::Vm`; the next `benchmark` PR drops it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The compiled flat-plan VM ([`PlanRun`]) — the only engine.
    #[default]
    Vm,
}

/// One instruction of the flat plan: the opcode for a network node with its
/// operands resolved to dense indices. `Copy`, 16 bytes, one per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// The input transducer IN (always instruction 0).
    Input,
    /// Child transducer CH; the operand indexes the plan's label pool.
    Child(u32),
    /// Closure transducer CL.
    Closure(u32),
    /// Following transducer FO.
    Following(u32),
    /// Preceding transducer PR with its speculative qualifier id.
    Preceding(u32, QualifierId),
    /// Variable creator VC(q).
    VarCreate(QualifierId),
    /// Positive variable filter VF(q+) with the nested qualifier id range.
    VarFilterPos(QualifierId, (u32, u32)),
    /// Negative variable filter VF(q−).
    VarFilterNeg(QualifierId),
    /// Variable determinant VD(q) with the nested id range.
    VarDeterminant(QualifierId, (u32, u32)),
    /// Split SP.
    Split,
    /// Join JO — the only two-port instruction.
    Join,
    /// Union connector UN.
    Union,
    /// Output transducer OU: deliver to the plan-assigned sink.
    Emit,
}

/// A compiled, immutable execution plan — the flat lowering of one
/// [`NetworkSpec`]. Shareable across threads and runs; instantiate with
/// [`PlanRun::new`] (or via [`crate::Evaluator`]).
#[derive(Debug, Clone)]
pub struct Plan {
    /// One instruction per node, topological order.
    code: Vec<Op>,
    /// Match-label operand pool (deduplicated).
    labels: Vec<Label>,
    /// Node descriptions in the paper's notation (for per-node stats).
    kinds: Vec<String>,
    /// `port_base[v]..port_base[v + 1]` are node `v`'s inbox slots.
    port_base: Vec<u32>,
    /// Consumer CSR offsets into [`Plan::cons`].
    cons_base: Vec<u32>,
    /// Flat consumer edges: the inbox slot each produced message lands in.
    cons: Vec<u32>,
    /// For output nodes, which sink (result stream) they feed; `u32::MAX`
    /// everywhere else.
    sink_of: Vec<u32>,
    /// Node ids of the output instructions, ascending.
    outputs: Vec<u32>,
    /// Per-node document-message inflow on an *inert* tick (a text, comment
    /// or PI event). Every transducer forwards such events verbatim without
    /// touching its state or firing a transition, so the per-node message
    /// counts are a static property of the wiring: splits duplicate the
    /// message, joins deduplicate it, everything else forwards one copy per
    /// copy received. The VM uses this to bypass the full propagation on
    /// inert ticks — only the output operators (which buffer the event into
    /// live candidates) actually run.
    item_flow: Vec<u32>,
    /// Sum of [`Plan::item_flow`] — the engine-wide message count of one
    /// inert tick.
    item_total: u64,
}

impl Plan {
    /// Lower `spec` into a flat plan. Linear in the network degree.
    pub fn compile(spec: &NetworkSpec) -> Plan {
        let n = spec.nodes.len();
        let mut labels: Vec<Label> = Vec::new();
        let label_idx = |l: &Label, labels: &mut Vec<Label>| -> u32 {
            match labels.iter().position(|x| x == l) {
                Some(i) => i as u32,
                None => {
                    labels.push(l.clone());
                    (labels.len() - 1) as u32
                }
            }
        };
        let mut code = Vec::with_capacity(n);
        let mut sink_of = vec![u32::MAX; n];
        let mut outputs = Vec::new();
        for (i, node) in spec.nodes.iter().enumerate() {
            let op = match node {
                NodeSpec::Input => Op::Input,
                NodeSpec::Child(l) => Op::Child(label_idx(l, &mut labels)),
                NodeSpec::Closure(l) => Op::Closure(label_idx(l, &mut labels)),
                NodeSpec::Following(l) => Op::Following(label_idx(l, &mut labels)),
                NodeSpec::Preceding(l, q) => Op::Preceding(label_idx(l, &mut labels), *q),
                NodeSpec::VarCreator(q) => Op::VarCreate(*q),
                NodeSpec::VarFilterPos(q, inner) => Op::VarFilterPos(*q, *inner),
                NodeSpec::VarFilterNeg(q) => Op::VarFilterNeg(*q),
                NodeSpec::VarDeterminant(q, inner) => Op::VarDeterminant(*q, *inner),
                NodeSpec::Split => Op::Split,
                NodeSpec::Join => Op::Join,
                NodeSpec::Union => Op::Union,
                NodeSpec::Output => {
                    let idx = spec
                        .sinks
                        .iter()
                        .position(|s| *s == i)
                        .expect("output node registered as sink");
                    sink_of[i] = idx as u32;
                    outputs.push(i as u32);
                    Op::Emit
                }
            };
            code.push(op);
        }
        // Contiguous inbox slots: every node gets max(ports, 1) slots.
        let mut port_base = Vec::with_capacity(n + 1);
        let mut slots = 0u32;
        for ins in &spec.inputs {
            port_base.push(slots);
            slots += ins.len().max(1) as u32;
        }
        port_base.push(slots);
        // Consumer edges, flattened in producer order (ascending consumer id
        // within each producer, exactly like the reference executor's wiring).
        let mut per_node: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (v, ins) in spec.inputs.iter().enumerate() {
            for (port, u) in ins.iter().enumerate() {
                per_node[*u].push(port_base[v] + port as u32);
            }
        }
        let mut cons_base = Vec::with_capacity(n + 1);
        let mut cons = Vec::new();
        for edges in &per_node {
            cons_base.push(cons.len() as u32);
            cons.extend_from_slice(edges);
        }
        cons_base.push(cons.len() as u32);
        // Static document-message flow for inert ticks: one forward pass in
        // topological (ascending id) order. A node consumes what its
        // producers emit; a join collapses its two copies back into one, the
        // outputs consume theirs, everything else forwards.
        let mut inflow = vec![0u32; n];
        let mut item_flow = vec![0u32; n];
        for (v, node) in spec.nodes.iter().enumerate() {
            let consumed = match node {
                NodeSpec::Input => 1,
                _ => inflow[v],
            };
            item_flow[v] = consumed;
            let emitted = match node {
                NodeSpec::Join => consumed.min(1),
                NodeSpec::Output => 0,
                _ => consumed,
            };
            for (w, ins) in spec.inputs.iter().enumerate() {
                inflow[w] += emitted * ins.iter().filter(|&&u| u == v).count() as u32;
            }
        }
        let item_total = item_flow.iter().map(|&f| u64::from(f)).sum();
        Plan {
            code,
            labels,
            kinds: spec.describe(),
            port_base,
            cons_base,
            cons,
            sink_of,
            outputs,
            item_flow,
            item_total,
        }
    }

    /// The number of instructions (== the network degree).
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// `true` for the (impossible in practice) empty plan.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Number of result sinks the plan delivers to.
    pub fn sink_count(&self) -> usize {
        self.outputs.len()
    }

    /// The instruction table (for tests and `--explain`-style dumps).
    pub fn code(&self) -> &[Op] {
        &self.code
    }

    /// Human-readable disassembly, one instruction per line.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for i in 0..self.code.len() {
            let cons: Vec<String> = self.cons
                [self.cons_base[i] as usize..self.cons_base[i + 1] as usize]
                .iter()
                .map(|s| format!("@{s}"))
                .collect();
            out.push_str(&format!(
                "{i:3}: {:<12} -> [{}]\n",
                self.kinds[i],
                cons.join(", ")
            ));
        }
        out
    }

    /// Instantiate the per-run operator states, resolving match labels
    /// against `symbols` in instruction order (the same interning order the
    /// reference executor uses, so symbol ids agree between the two).
    fn instantiate(&self, symbols: &mut spex_xml::SymbolTable) -> Vec<OpState> {
        self.code
            .iter()
            .map(|op| match *op {
                Op::Input => OpState::Input(Input::new()),
                Op::Child(l) => OpState::Child(Child::new(MatchLabel::resolve(
                    &self.labels[l as usize],
                    symbols,
                ))),
                Op::Closure(l) => OpState::Closure(Closure::new(MatchLabel::resolve(
                    &self.labels[l as usize],
                    symbols,
                ))),
                Op::Following(l) => OpState::Following(Following::new(MatchLabel::resolve(
                    &self.labels[l as usize],
                    symbols,
                ))),
                Op::Preceding(l, q) => OpState::Preceding(Preceding::new(
                    MatchLabel::resolve(&self.labels[l as usize], symbols),
                    q,
                )),
                Op::VarCreate(q) => OpState::VarCreator(VarCreator::new(q)),
                Op::VarFilterPos(q, inner) => {
                    OpState::VarFilter(VarFilter::positive(q, inner.0..inner.1))
                }
                Op::VarFilterNeg(q) => OpState::VarFilter(VarFilter::negative(q)),
                Op::VarDeterminant(q, inner) => {
                    OpState::VarDeterminant(VarDeterminant::new(q, inner.0..inner.1))
                }
                Op::Split => OpState::Split(Split::new()),
                Op::Join => OpState::Join(Join::new()),
                Op::Union => OpState::Union(Union::new()),
                Op::Emit => OpState::Emit(Box::new(Output::new())),
            })
            .collect()
    }
}

/// Per-node operator state: the concrete transducer structs, enum-tagged so
/// the VM dispatches with a jump table instead of a vtable. The output
/// transducer is boxed (it is by far the largest variant); everything on the
/// per-message hot path is inline.
enum OpState {
    Input(Input),
    Child(Child),
    Closure(Closure),
    Following(Following),
    Preceding(Preceding),
    VarCreator(VarCreator),
    VarFilter(VarFilter),
    VarDeterminant(VarDeterminant),
    Split(Split),
    Union(Union),
    Join(Join),
    Emit(Box<Output>),
}

impl OpState {
    /// Statically dispatched step for the single-input operators.
    /// Join and Emit are handled directly by the tick loop.
    #[inline]
    fn step(&mut self, msg: Message, vars: &mut VarFactory, out: &mut Vec<Message>) {
        match self {
            OpState::Input(t) => t.step(msg, vars, out),
            OpState::Child(t) => t.step(msg, vars, out),
            OpState::Closure(t) => t.step(msg, vars, out),
            OpState::Following(t) => t.step(msg, vars, out),
            OpState::Preceding(t) => t.step(msg, vars, out),
            OpState::VarCreator(t) => t.step(msg, vars, out),
            OpState::VarFilter(t) => t.step(msg, vars, out),
            OpState::VarDeterminant(t) => t.step(msg, vars, out),
            OpState::Split(t) => t.step(msg, vars, out),
            OpState::Union(t) => t.step(msg, vars, out),
            OpState::Join(_) | OpState::Emit(_) => unreachable!("handled by the tick loop"),
        }
    }

    fn stack_sizes(&self) -> (usize, usize) {
        match self {
            OpState::Input(t) => t.stack_sizes(),
            OpState::Child(t) => t.stack_sizes(),
            OpState::Closure(t) => t.stack_sizes(),
            OpState::Following(t) => t.stack_sizes(),
            OpState::Preceding(t) => t.stack_sizes(),
            OpState::VarCreator(t) => t.stack_sizes(),
            OpState::VarFilter(t) => t.stack_sizes(),
            OpState::VarDeterminant(t) => t.stack_sizes(),
            OpState::Split(t) => t.stack_sizes(),
            OpState::Union(t) => t.stack_sizes(),
            OpState::Join(_) | OpState::Emit(_) => (0, 0),
        }
    }

    fn set_tracing(&mut self, on: bool) {
        match self {
            OpState::Input(t) => t.set_tracing(on),
            OpState::Child(t) => t.set_tracing(on),
            OpState::Closure(t) => t.set_tracing(on),
            OpState::Following(t) => t.set_tracing(on),
            OpState::Preceding(t) => t.set_tracing(on),
            OpState::VarCreator(t) => t.set_tracing(on),
            OpState::VarFilter(t) => t.set_tracing(on),
            OpState::VarDeterminant(t) => t.set_tracing(on),
            OpState::Split(t) => t.set_tracing(on),
            OpState::Union(t) => t.set_tracing(on),
            OpState::Join(j) => j.set_tracing(on),
            OpState::Emit(_) => {}
        }
    }

    fn take_transitions(&mut self) -> Vec<u8> {
        match self {
            OpState::Input(t) => t.take_transitions(),
            OpState::Child(t) => t.take_transitions(),
            OpState::Closure(t) => t.take_transitions(),
            OpState::Following(t) => t.take_transitions(),
            OpState::Preceding(t) => t.take_transitions(),
            OpState::VarCreator(t) => t.take_transitions(),
            OpState::VarFilter(t) => t.take_transitions(),
            OpState::VarDeterminant(t) => t.take_transitions(),
            OpState::Split(t) => t.take_transitions(),
            OpState::Union(t) => t.take_transitions(),
            OpState::Join(j) => j.take_transitions(),
            OpState::Emit(_) => Vec::new(),
        }
    }
}

/// A running instantiation of a [`Plan`] over one stream — the VM, and the
/// type behind [`crate::Evaluator`] and the server sessions.
///
/// The run owns what it runs on: a share of the plan, the run-wide
/// condition-variable namespace, and its sinks — one `S` per logical query,
/// by value (`S` may itself be a borrow: `&mut FragmentCollector` and
/// `&mut dyn ResultSink` are sinks too). A driver that must outlive a call
/// stack therefore holds a `PlanRun` as a plain field and reads its sinks
/// back through [`PlanRun::sinks`] or [`PlanRun::finish_into_sinks`].
///
/// Everything that does not name `S` lives on the [`Machine`] the run derefs
/// to.
pub struct PlanRun<S: ResultSink> {
    machine: Machine,
    /// One sink per logical query, in query order, and which of them each
    /// output instruction's physical slot feeds.
    sinks: SinkBank<S>,
}

impl<S: ResultSink> std::ops::Deref for PlanRun<S> {
    type Target = Machine;

    fn deref(&self) -> &Machine {
        &self.machine
    }
}

impl<S: ResultSink> std::ops::DerefMut for PlanRun<S> {
    fn deref_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }
}

/// A [`PlanRun`] without its sinks: the operator states, the event arena, the
/// statistics — and the tick loop over them. Not generic, so the loop is
/// compiled once, in this crate, where the transducers' transition functions
/// can be inlined into it, rather than once per sink type in whichever crate
/// names one. Built only as part of a [`PlanRun`].
///
/// Each stream event is one *tick*: the paper's discipline that "at any time
/// there is only one \[document\] message in the network" (§III.2). Within a
/// tick every instruction, in topological order, consumes the messages its
/// producers emitted and appends its output to its consumers' inbox slots.
pub struct Machine {
    plan: Arc<Plan>,
    ops: Vec<OpState>,
    /// Flat inbox slots (`plan.port_base` layout). Persistent: capacities
    /// survive across ticks, so the hot path never re-grows a queue.
    inbox: Vec<Vec<Message>>,
    /// Recycled drain buffers (second one for the join's right port).
    scratch: Vec<Message>,
    scratch2: Vec<Message>,
    /// Recycled per-node output buffer.
    outbuf: Vec<Message>,
    /// The run's event arena: payload bytes live here exactly once; the
    /// plan only moves [`spex_xml::EventId`] handles. Owns the symbol table
    /// (labels are interned at push time). Reset whenever no output
    /// operator is buffering, so its high-water mark measures the bytes
    /// buffered for undetermined candidates (paper §VI).
    store: EventStore,
    /// The run-wide variable namespace of §III.5, handed to every step.
    vars: VarFactory,
    stats: EngineStats,
    /// Per-node measurements, indexed by instruction id.
    node_stats: Vec<TransducerStats>,
    limits: ResourceLimits,
    /// The first limit breach, latched; further input is refused.
    exhausted: Option<LimitBreach>,
    tick: u64,
    depth: usize,
    tracing: bool,
    /// Symbol-table size right after the query labels were resolved; session
    /// reuse truncates the table back to this baseline between documents.
    symbol_baseline: usize,
    /// Trace export handle (disabled by default; see [`Machine::set_tracer`]).
    tracer: Tracer,
    /// Determination-latency histograms accumulated across
    /// [`Machine::reset_session`] rebuilds, indexed by instruction id (only
    /// output instructions ever record).
    det_latency: Vec<Histogram>,
}

impl<S: ResultSink> PlanRun<S> {
    /// Instantiate `plan` with one sink per output instruction.
    pub fn new(plan: Arc<Plan>, sinks: Vec<S>) -> Self {
        let identity: Vec<usize> = (0..plan.sink_count()).collect();
        Self::with_slots(plan, sinks, &identity)
    }

    /// Instantiate `plan` with one sink per *logical* query: `slot_of[i]` is
    /// the output instruction (physical sink slot) serving `sinks[i]`. The
    /// combiner aliases canonically equal queries onto one slot; each of
    /// their sinks still receives every fragment.
    ///
    /// # Panics
    ///
    /// If `sinks` and `slot_of` disagree in length, a slot is out of range,
    /// or an output instruction is served to no sink.
    pub fn with_slots(plan: Arc<Plan>, sinks: Vec<S>, slot_of: &[usize]) -> Self {
        let sinks = SinkBank::new(sinks, slot_of, plan.sink_count());
        let mut store = EventStore::new();
        let ops = plan.instantiate(store.symbols_mut());
        let symbol_baseline = store.symbols().len();
        let inbox = (0..*plan.port_base.last().expect("non-empty plan"))
            .map(|_| Vec::new())
            .collect();
        let node_stats = plan
            .kinds
            .iter()
            .enumerate()
            .map(|(node, kind)| TransducerStats {
                node,
                kind: kind.clone(),
                ..TransducerStats::default()
            })
            .collect();
        let det_latency = vec![Histogram::new(); plan.code.len()];
        let machine = Machine {
            plan,
            ops,
            inbox,
            scratch: Vec::new(),
            scratch2: Vec::new(),
            outbuf: Vec::new(),
            store,
            vars: VarFactory::new(),
            stats: EngineStats::default(),
            node_stats,
            limits: ResourceLimits::default(),
            exhausted: None,
            tick: 0,
            depth: 0,
            tracing: false,
            symbol_baseline,
            tracer: Tracer::disabled(),
            det_latency,
        };
        PlanRun { machine, sinks }
    }

    /// The run's sinks, in logical-query order.
    pub fn sinks(&self) -> &[S] {
        &self.sinks.sinks
    }

    /// Mutable access to the run's sinks, in logical-query order.
    pub fn sinks_mut(&mut self) -> &mut [S] {
        &mut self.sinks.sinks
    }

    /// Abandon the run without flushing its output operators, handing the
    /// sinks back as they stand (an errored or killed run).
    pub fn into_sinks(self) -> Vec<S> {
        self.sinks.sinks
    }

    /// The same run delivering to `wrap(sink)` for each of its sinks (the
    /// pump's per-query bookkeeping wraps the caller's sinks this way).
    pub(crate) fn map_sinks<T: ResultSink>(self, wrap: impl FnMut(S) -> T) -> PlanRun<T> {
        PlanRun {
            machine: self.machine,
            sinks: self.sinks.map(wrap),
        }
    }

    /// The machine and the sinks with their type erased: what the pump's
    /// event loop runs on, so that loop is compiled once, in this crate.
    pub(crate) fn parts(&mut self) -> (&mut Machine, &mut dyn SlotSinks) {
        (&mut self.machine, &mut self.sinks)
    }

    /// Feed one owned stream event (one tick). Infallible variant of
    /// [`PlanRun::try_push`]: once a resource limit has been breached the
    /// event is silently discarded (with no limits set — the default —
    /// nothing is ever discarded).
    pub fn push(&mut self, event: XmlEvent) {
        let _ = self.try_push(event);
    }

    /// Feed one owned stream event: copies the event into the arena, then
    /// ticks via [`PlanRun::try_push_id`]. Kept for producers that hold
    /// owned events (tests, the multi-query driver).
    pub fn try_push(&mut self, event: XmlEvent) -> Result<(), EvalError> {
        if let Some(b) = self.machine.exhausted {
            return Err(b.into());
        }
        let id = self.machine.store.push_owned(&event);
        self.try_push_id(id)
    }

    /// Feed the arena event `id` through the plan (one tick), then check the
    /// resource limits. On a breach the run aborts: results already
    /// determined are flushed to the sinks, undetermined buffers are
    /// released, and this and every further call return
    /// [`EvalError::ResourceExhausted`]. Statistics stay readable.
    pub fn try_push_id(&mut self, id: EventId) -> Result<(), EvalError> {
        self.machine.try_push_id(id, &mut self.sinks)
    }

    /// End of stream: flush the output operators and return the collected
    /// statistics.
    pub fn finish(self) -> EngineStats {
        self.finish_full().0
    }

    /// Like [`PlanRun::finish`], also returning per-node snapshots.
    pub fn finish_full(self) -> (EngineStats, Vec<TransducerStats>) {
        let (stats, transducers, _) = self.finish_into_sinks();
        (stats, transducers)
    }

    /// Like [`PlanRun::finish_full`], also handing the run's sinks back (in
    /// logical-query order) with everything the flush delivered.
    pub fn finish_into_sinks(mut self) -> (EngineStats, Vec<TransducerStats>, Vec<S>) {
        self.machine.finish(&mut self.sinks);
        let Machine {
            stats, node_stats, ..
        } = self.machine;
        (stats, node_stats, self.sinks.sinks)
    }
}

impl Machine {
    /// Attach resource caps, checked after every tick (see
    /// [`crate::ResourceLimits`]).
    pub fn set_limits(&mut self, limits: ResourceLimits) {
        self.limits = limits;
    }

    /// Attach a trace export handle. The hot path is never instrumented per
    /// event; the tracer receives one batch of counters, gauges and
    /// histograms (per-node message counts, buffer high-water marks,
    /// determination latency) when the run finishes — see DESIGN.md §13 for
    /// the record schema.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The attached trace export handle.
    pub(crate) fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The first limit breach, if any cap was exceeded.
    pub fn exhausted(&self) -> Option<LimitBreach> {
        self.exhausted
    }

    /// Enable transition tracing on every operator (for the golden
    /// paper-trace tests).
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        for op in &mut self.ops {
            op.set_tracing(on);
        }
    }

    /// Drain per-node transition traces fired since the last call, rendered
    /// in the paper's `"1,5"` style, indexed by instruction id.
    pub fn take_traces(&mut self) -> Vec<String> {
        self.ops
            .iter_mut()
            .map(|op| crate::transducers::format_transitions(&op.take_transitions()))
            .collect()
    }

    /// The run's event arena (for zero-copy producers:
    /// `reader.next_into(run.store_mut())` followed by
    /// [`PlanRun::try_push_id`]).
    pub fn store_mut(&mut self) -> &mut EventStore {
        &mut self.store
    }

    /// Shared view of the run's event arena.
    pub fn store(&self) -> &EventStore {
        &self.store
    }

    pub(crate) fn try_push_id(
        &mut self,
        id: EventId,
        sinks: &mut dyn SlotSinks,
    ) -> Result<(), EvalError> {
        if let Some(b) = self.exhausted {
            return Err(b.into());
        }
        self.push_unchecked(id, sinks);
        self.stats.peak_arena_bytes = self.stats.peak_arena_bytes.max(self.store.bytes_used());
        self.stats.interned_symbols = self.stats.interned_symbols.max(self.store.symbols().len());
        if let Err(b) = self.limits.check(&self.stats) {
            self.exhausted = Some(b);
            self.abort(sinks);
            return Err(b.into());
        }
        // Once no output operator buffers any candidate event, every
        // outstanding handle is dead: recycle the arena (keeps symbols and
        // capacity). This is what bounds memory to the undetermined
        // fragments of the paper's §VI argument.
        if self.outputs_idle() {
            self.store.reset();
        }
        Ok(())
    }

    fn outputs_idle(&self) -> bool {
        self.plan.outputs.iter().all(|&id| {
            if let OpState::Emit(o) = &self.ops[id as usize] {
                o.buffered_events() == 0 && o.live_candidates() == 0
            } else {
                true
            }
        })
    }

    fn push_unchecked(&mut self, id: EventId, sinks: &mut dyn SlotSinks) {
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
            DocEvent::Item { .. } => {
                // Inert tick: the event traverses the DAG unchanged (no
                // operator state, no transitions, no formulas), so the plan's
                // static flow replaces the full propagation. Transition
                // tracing observes per message, so it forces the slow path.
                if !self.tracing {
                    self.run_item_tick(doc, sinks);
                    self.tick += 1;
                    return;
                }
            }
        }
        self.inbox[0].push(Message::Doc(doc));
        self.run_tick(sinks);
        self.tick += 1;
    }

    /// Execute one inert tick (text/comment/PI): account the statically
    /// known per-node message counts, then step only the output operators —
    /// the sole operators whose behaviour depends on such events (they
    /// buffer the event into live candidate fragments).
    fn run_item_tick(&mut self, doc: DocEvent, sinks: &mut dyn SlotSinks) {
        let plan: &Plan = &self.plan;
        self.stats.messages += plan.item_total;
        for (v, &f) in plan.item_flow.iter().enumerate() {
            self.node_stats[v].messages += u64::from(f);
        }
        for &id in &plan.outputs {
            let sink_idx = plan.sink_of[id as usize] as usize;
            if let OpState::Emit(o) = &mut self.ops[id as usize] {
                for _ in 0..plan.item_flow[id as usize] {
                    o.step(
                        Message::Doc(doc),
                        &mut Slot(sinks, sink_idx),
                        self.tick,
                        &mut self.stats,
                        &self.store,
                    );
                }
            }
        }
    }

    /// One tick: execute every instruction, in order, over the messages its
    /// inbox slots hold. Empty nodes are skipped (their stacks cannot have
    /// changed since the last message they consumed, so the observed peaks
    /// are those of stepping every node).
    fn run_tick(&mut self, sinks: &mut dyn SlotSinks) {
        let plan: &Plan = &self.plan;
        for id in 0..plan.code.len() {
            let base = plan.port_base[id] as usize;
            let two_ports = plan.port_base[id + 1] as usize - base == 2;
            if self.inbox[base].is_empty() && (!two_ports || self.inbox[base + 1].is_empty()) {
                continue;
            }
            debug_assert!(self.outbuf.is_empty());
            match &mut self.ops[id] {
                OpState::Split(_) if !self.tracing => {
                    // A split forwards every message verbatim (the fan-out
                    // below duplicates); with no transition trace to record,
                    // the whole inbox slot moves to the consumers in bulk.
                    std::mem::swap(&mut self.inbox[base], &mut self.scratch);
                    let consumed = self.scratch.len() as u64;
                    self.stats.messages += consumed;
                    self.node_stats[id].messages += consumed;
                    let mut max_formula = 0usize;
                    for m in &self.scratch {
                        if let Message::Activate(f) = m {
                            max_formula = max_formula.max(f.size());
                        }
                    }
                    if max_formula > 0 {
                        self.stats.observe_formula(max_formula);
                        self.node_stats[id].max_formula_size =
                            self.node_stats[id].max_formula_size.max(max_formula);
                    }
                    let cs =
                        &plan.cons[plan.cons_base[id] as usize..plan.cons_base[id + 1] as usize];
                    if let Some((&last, rest)) = cs.split_last() {
                        for &s in rest {
                            self.inbox[s as usize].extend(self.scratch.iter().cloned());
                        }
                        let s = last as usize;
                        if self.inbox[s].is_empty() {
                            std::mem::swap(&mut self.inbox[s], &mut self.scratch);
                        } else {
                            self.inbox[s].append(&mut self.scratch);
                        }
                    }
                    self.scratch.clear();
                    continue;
                }
                OpState::Join(j) => {
                    std::mem::swap(&mut self.inbox[base], &mut self.scratch);
                    std::mem::swap(&mut self.inbox[base + 1], &mut self.scratch2);
                    let consumed = (self.scratch.len() + self.scratch2.len()) as u64;
                    self.stats.messages += consumed;
                    self.node_stats[id].messages += consumed;
                    let cs =
                        &plan.cons[plan.cons_base[id] as usize..plan.cons_base[id + 1] as usize];
                    if cs.len() == 1 {
                        // Single consumer: emit straight into its inbox slot,
                        // skipping the outbuf round trip.
                        let s = cs[0] as usize;
                        j.step2_drain(&mut self.scratch, &mut self.scratch2, &mut self.inbox[s]);
                        std::mem::swap(&mut self.inbox[base], &mut self.scratch);
                        std::mem::swap(&mut self.inbox[base + 1], &mut self.scratch2);
                        continue;
                    }
                    j.step2_drain(&mut self.scratch, &mut self.scratch2, &mut self.outbuf);
                    std::mem::swap(&mut self.inbox[base], &mut self.scratch);
                    std::mem::swap(&mut self.inbox[base + 1], &mut self.scratch2);
                }
                OpState::Emit(o) => {
                    if self.inbox[base].len() == 1 {
                        // Common tick: exactly one message (the document
                        // event) — pop it straight through, no buffer swaps.
                        self.stats.messages += 1;
                        self.node_stats[id].messages += 1;
                        let m = self.inbox[base].pop().expect("length checked");
                        if let Message::Activate(f) = &m {
                            let size = f.size();
                            self.stats.observe_formula(size);
                            self.node_stats[id].max_formula_size =
                                self.node_stats[id].max_formula_size.max(size);
                        }
                        let sink_idx = plan.sink_of[id] as usize;
                        o.step(
                            m,
                            &mut Slot(sinks, sink_idx),
                            self.tick,
                            &mut self.stats,
                            &self.store,
                        );
                        continue;
                    }
                    std::mem::swap(&mut self.inbox[base], &mut self.scratch);
                    let sink_idx = plan.sink_of[id] as usize;
                    // Counters batch over the drained slot, and only Activate
                    // messages carry a formula — `formula_size()` is 0 for
                    // everything else and `observe_formula` is a pure max, so
                    // skipping the zeros is observationally identical to
                    // per-message accounting.
                    let consumed = self.scratch.len() as u64;
                    self.stats.messages += consumed;
                    self.node_stats[id].messages += consumed;
                    let mut sink = Slot(sinks, sink_idx);
                    for m in self.scratch.drain(..) {
                        if let Message::Activate(f) = &m {
                            let size = f.size();
                            self.stats.observe_formula(size);
                            self.node_stats[id].max_formula_size =
                                self.node_stats[id].max_formula_size.max(size);
                        }
                        o.step(m, &mut sink, self.tick, &mut self.stats, &self.store);
                    }
                    std::mem::swap(&mut self.inbox[base], &mut self.scratch);
                    continue;
                }
                op => {
                    let cs =
                        &plan.cons[plan.cons_base[id] as usize..plan.cons_base[id + 1] as usize];
                    let single = if cs.len() == 1 {
                        Some(cs[0] as usize)
                    } else {
                        None
                    };
                    if let Some(s) = single {
                        if self.inbox[base].len() == 1 {
                            // Common tick: one message, one consumer — pop it
                            // straight through, no buffer swaps or drains.
                            self.stats.messages += 1;
                            self.node_stats[id].messages += 1;
                            let m = self.inbox[base].pop().expect("length checked");
                            if let Message::Activate(f) = &m {
                                let size = f.size();
                                self.stats.observe_formula(size);
                                self.node_stats[id].max_formula_size =
                                    self.node_stats[id].max_formula_size.max(size);
                            }
                            op.step(m, &mut self.vars, &mut self.inbox[s]);
                            let (d, c) = op.stack_sizes();
                            self.stats.observe_stacks(d, c);
                            self.node_stats[id].max_depth_stack =
                                self.node_stats[id].max_depth_stack.max(d);
                            self.node_stats[id].max_cond_stack =
                                self.node_stats[id].max_cond_stack.max(c);
                            continue;
                        }
                    }
                    std::mem::swap(&mut self.inbox[base], &mut self.scratch);
                    let consumed = self.scratch.len() as u64;
                    self.stats.messages += consumed;
                    self.node_stats[id].messages += consumed;
                    if let Some(s) = single {
                        // Hot path, single consumer: counters batched above,
                        // emissions go straight into the consumer's inbox
                        // slot (skipping the outbuf round trip), and only
                        // formula-carrying messages need a tree walk.
                        let mut max_formula = 0usize;
                        for m in self.scratch.drain(..) {
                            if let Message::Activate(f) = &m {
                                max_formula = max_formula.max(f.size());
                            }
                            op.step(m, &mut self.vars, &mut self.inbox[s]);
                        }
                        if max_formula > 0 {
                            self.stats.observe_formula(max_formula);
                            self.node_stats[id].max_formula_size =
                                self.node_stats[id].max_formula_size.max(max_formula);
                        }
                        std::mem::swap(&mut self.inbox[base], &mut self.scratch);
                        let (d, c) = op.stack_sizes();
                        self.stats.observe_stacks(d, c);
                        self.node_stats[id].max_depth_stack =
                            self.node_stats[id].max_depth_stack.max(d);
                        self.node_stats[id].max_cond_stack =
                            self.node_stats[id].max_cond_stack.max(c);
                        continue;
                    } else {
                        // Hot path, fan-out (or sink) node: batch as above,
                        // buffer emissions for the consumer loop below.
                        let mut max_formula = 0usize;
                        for m in self.scratch.drain(..) {
                            if let Message::Activate(f) = &m {
                                max_formula = max_formula.max(f.size());
                            }
                            op.step(m, &mut self.vars, &mut self.outbuf);
                        }
                        if max_formula > 0 {
                            self.stats.observe_formula(max_formula);
                            self.node_stats[id].max_formula_size =
                                self.node_stats[id].max_formula_size.max(max_formula);
                        }
                    }
                    std::mem::swap(&mut self.inbox[base], &mut self.scratch);
                    let (d, c) = op.stack_sizes();
                    self.stats.observe_stacks(d, c);
                    self.node_stats[id].max_depth_stack =
                        self.node_stats[id].max_depth_stack.max(d);
                    self.node_stats[id].max_cond_stack = self.node_stats[id].max_cond_stack.max(c);
                }
            }
            // Fan out to the consumer slots; the last one takes ownership
            // (and, when its slot is empty, the whole buffer by swap).
            let cs = &plan.cons[plan.cons_base[id] as usize..plan.cons_base[id + 1] as usize];
            match cs.len() {
                0 => self.outbuf.clear(),
                1 => {
                    let s = cs[0] as usize;
                    if self.inbox[s].is_empty() {
                        std::mem::swap(&mut self.inbox[s], &mut self.outbuf);
                    } else {
                        self.inbox[s].append(&mut self.outbuf);
                    }
                }
                _ => {
                    for &s in &cs[..cs.len() - 1] {
                        self.inbox[s as usize].extend(self.outbuf.iter().cloned());
                    }
                    let s = cs[cs.len() - 1] as usize;
                    self.inbox[s].append(&mut self.outbuf);
                }
            }
        }
    }

    /// Drain after a limit breach: flush determined results, release
    /// undetermined buffers, discard in-flight messages.
    fn abort(&mut self, sinks: &mut dyn SlotSinks) {
        for &id in &self.plan.outputs {
            let sink_idx = self.plan.sink_of[id as usize] as usize;
            if let OpState::Emit(o) = &mut self.ops[id as usize] {
                o.abort(
                    &mut Slot(sinks, sink_idx),
                    self.tick,
                    &mut self.stats,
                    &self.store,
                );
            }
        }
        for slot in &mut self.inbox {
            slot.clear();
        }
    }

    /// Flush the output operators and close the books (the body of every
    /// `PlanRun::finish*`).
    fn finish(&mut self, sinks: &mut dyn SlotSinks) {
        for &id in &self.plan.outputs {
            let sink_idx = self.plan.sink_of[id as usize] as usize;
            if let OpState::Emit(o) = &mut self.ops[id as usize] {
                o.finish(
                    &mut Slot(sinks, sink_idx),
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
        if self.tracer.enabled() {
            self.emit_trace();
        }
    }

    fn harvest_latency(&mut self) {
        for &id in &self.plan.outputs {
            if let OpState::Emit(o) = &self.ops[id as usize] {
                self.det_latency[id as usize].merge(o.determination_latency());
            }
        }
    }

    /// Determination-latency histograms, one `(node id, histogram)` pair per
    /// output node, including latencies accumulated across
    /// [`Machine::reset_session`] rebuilds. See
    /// [`Output::determination_latency`] for the measure's definition.
    pub fn determination_latency(&self) -> Vec<(usize, Histogram)> {
        let mut out = Vec::new();
        for &id in &self.plan.outputs {
            if let OpState::Emit(o) = &self.ops[id as usize] {
                let mut h = self.det_latency[id as usize].clone();
                h.merge(o.determination_latency());
                out.push((id as usize, h));
            }
        }
        out
    }

    /// Export the end-of-run measurements as trace records (the engine
    /// section of the DESIGN.md §13 schema). Called once from
    /// [`PlanRun::finish_full`] when a tracer is attached.
    fn emit_trace(&self) {
        let t = &self.tracer;
        t.counter("engine.ticks", self.stats.ticks);
        t.counter("engine.messages", self.stats.messages);
        t.counter("engine.results", self.stats.results);
        t.counter("engine.dropped", self.stats.dropped);
        t.counter("engine.candidates_created", self.stats.candidates_created);
        t.counter("engine.vars_created", self.stats.vars_created);
        t.gauge(
            "engine.peak_buffered_events",
            self.stats.peak_buffered_events as u64,
        );
        t.gauge(
            "engine.peak_live_candidates",
            self.stats.peak_live_candidates as u64,
        );
        t.gauge(
            "engine.peak_arena_bytes",
            self.stats.peak_arena_bytes as u64,
        );
        t.gauge(
            "engine.max_stream_depth",
            self.stats.max_stream_depth as u64,
        );
        for ns in &self.node_stats {
            t.counter_with(
                "engine.node.messages",
                ns.messages,
                &[
                    ("node", Value::U64(ns.node as u64)),
                    ("kind", Value::from(ns.kind.as_str())),
                ],
            );
        }
        // harvest_latency already folded the live outputs in; reading the
        // accumulators directly avoids double counting.
        for &id in &self.plan.outputs {
            t.hist(
                "engine.determination_latency",
                &self.det_latency[id as usize],
                &[
                    ("node", Value::U64(u64::from(id))),
                    ("kind", Value::from("OU")),
                ],
            );
        }
    }

    /// Reset the run for the next document of a long-lived session, keeping
    /// the plan, the accumulated statistics, and every allocation (inbox
    /// slots, drain buffers, the arena's capacity).
    ///
    /// Call at a document boundary. The reset releases everything the
    /// previous document could leak into the next one:
    ///
    /// * every operator state is re-instantiated from the plan, so stale
    ///   candidate buffers, pending activations, and half-popped stacks
    ///   (e.g. after a truncated document) cannot survive,
    /// * in-flight inbox messages are discarded,
    /// * the arena's event bytes are recycled (the high-water mark is folded
    ///   into the stats),
    /// * interned symbols beyond the query-label baseline are forgotten, so
    ///   a session streaming documents with disjoint vocabularies cannot
    ///   grow the symbol table without bound.
    ///
    /// Accumulated statistics and the tick counter continue across the
    /// reset. A latched resource-limit breach is *not* cleared: an exhausted
    /// run stays exhausted (the session must be torn down).
    pub fn reset_session(&mut self) {
        // The rebuild below discards the output operators (and with them
        // the per-document determination latencies) — fold them into the
        // across-reset accumulators first.
        self.harvest_latency();
        self.store.reset();
        self.store.symbols_mut().truncate(self.symbol_baseline);
        self.ops = self.plan.instantiate(self.store.symbols_mut());
        for slot in &mut self.inbox {
            slot.clear();
        }
        self.depth = 0;
        if self.tracing {
            self.set_tracing(true);
        }
    }

    /// Capture the run's accumulator state as a [`Snapshot`], valid only at
    /// a quiescent document boundary (depth zero, no undetermined
    /// candidates, empty arena — the state right after
    /// [`Machine::reset_session`]). At such a boundary the live operator
    /// state equals a freshly instantiated plan's, so the snapshot carries
    /// only what `reset_session` preserves: statistics, per-node counters,
    /// determination-latency accumulators, the variable-serial high-water
    /// mark, limits, and the interned symbols. The returned snapshot has no
    /// session section; drivers attach one before encoding.
    pub fn checkpoint(&self) -> Result<Snapshot, SnapshotError> {
        if self.depth != 0 || !self.outputs_idle() || !self.store.is_empty() {
            return Err(SnapshotError::NotQuiescent);
        }
        // Merge live output latencies into a copy of the accumulators: this
        // is exactly what the continuing run folds in at its next
        // harvest, so checkpoint-then-restore and plain continuation agree.
        let mut det_latency = self.det_latency.clone();
        for &id in &self.plan.outputs {
            if let OpState::Emit(o) = &self.ops[id as usize] {
                det_latency[id as usize].merge(o.determination_latency());
            }
        }
        let symbols = (0..self.store.symbols().len())
            .map(|i| self.store.symbols().name(i as u32).to_string())
            .collect();
        Ok(Snapshot {
            tick: self.tick,
            stats: self.stats.clone(),
            transducers: self.node_stats.clone(),
            minted: self.vars.minted(),
            det_latency,
            exhausted: self.exhausted,
            limits: self.limits,
            arena_peak: self.store.peak_bytes() as u64,
            symbols,
            session: None,
        })
    }

    /// Restore a snapshot into this run. The run must be freshly built over
    /// the *same* network (same query set, same sink count); the snapshot's
    /// per-node kind list is verified against this run's nodes and its
    /// symbol list must extend this run's query-label baseline.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        if self.tick != 0 || self.depth != 0 || !self.store.is_empty() {
            return Err(SnapshotError::NotQuiescent);
        }
        if snap.transducers.len() != self.node_stats.len() {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot has {} nodes, run has {}",
                snap.transducers.len(),
                self.node_stats.len()
            )));
        }
        for (t, mine) in snap.transducers.iter().zip(&self.node_stats) {
            if t.node != mine.node || t.kind != mine.kind {
                return Err(SnapshotError::Mismatch(format!(
                    "node {} is {} in the snapshot but {} in the run",
                    mine.node, t.kind, mine.kind
                )));
            }
        }
        if snap.det_latency.len() != self.det_latency.len() {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot has {} latency accumulators, run has {}",
                snap.det_latency.len(),
                self.det_latency.len()
            )));
        }
        let baseline = self.symbol_baseline;
        if snap.symbols.len() < baseline || self.store.symbols().len() != baseline {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot has {} symbols, run baseline is {}",
                snap.symbols.len(),
                baseline
            )));
        }
        for i in 0..baseline {
            if snap.symbols[i] != self.store.symbols().name(i as u32) {
                return Err(SnapshotError::Mismatch(format!(
                    "symbol {i} is {:?} in the snapshot but {:?} in the run",
                    snap.symbols[i],
                    self.store.symbols().name(i as u32)
                )));
            }
        }
        for name in &snap.symbols[baseline..] {
            self.store.symbols_mut().intern(name);
        }
        self.tick = snap.tick;
        self.stats = snap.stats.clone();
        self.node_stats = snap.transducers.clone();
        self.det_latency = snap.det_latency.clone();
        self.exhausted = snap.exhausted;
        self.limits = snap.limits;
        self.vars.restore_minted(snap.minted);
        self.store
            .restore_peak(usize::try_from(snap.arena_peak).unwrap_or(usize::MAX));
        Ok(())
    }

    /// Statistics so far (final values come from [`PlanRun::finish`]).
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Per-transducer snapshots so far, indexed by instruction id
    /// (topological order). `sum(messages)` equals
    /// [`EngineStats::messages`].
    pub fn transducer_stats(&self) -> &[TransducerStats] {
        &self.node_stats
    }

    /// The current tick number (document messages pushed so far).
    pub fn tick(&self) -> u64 {
        self.tick
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::CompiledNetwork;
    use crate::sink::FragmentCollector;

    const FIG1: &str = "<a><a><c/></a><b/><c/></a>";

    fn run_vm(query: &str, xml: &str) -> (Vec<String>, EngineStats) {
        let net = CompiledNetwork::compile(&query.parse().unwrap());
        let mut sink = FragmentCollector::new();
        let mut run = net.run(&mut sink);
        for ev in spex_xml::reader::parse_events(xml).unwrap() {
            run.push(ev);
        }
        let stats = run.finish();
        (sink.into_fragments(), stats)
    }

    fn run_network(query: &str, xml: &str) -> (Vec<String>, EngineStats) {
        let net = CompiledNetwork::compile(&query.parse().unwrap());
        let mut sink = FragmentCollector::new();
        let mut run = crate::network::Run::new(net.spec(), vec![&mut sink]);
        for ev in spex_xml::reader::parse_events(xml).unwrap() {
            run.push(ev);
        }
        let stats = run.finish();
        (sink.into_fragments(), stats)
    }

    #[test]
    fn plan_lowering_matches_network_shape() {
        // Fig. 12's network, instruction for instruction.
        let net = CompiledNetwork::compile(&"_*.a[b].c".parse().unwrap());
        let plan = Plan::compile(net.spec());
        assert_eq!(plan.len(), net.degree());
        assert_eq!(plan.code()[0], Op::Input);
        assert_eq!(*plan.code().last().unwrap(), Op::Emit);
        assert_eq!(plan.sink_count(), 1);
        // The wildcard closure and the two named children share the label
        // pool: `_`, `a`, `b`, `c`.
        assert_eq!(plan.labels.len(), 4);
        let dump = plan.dump();
        assert!(dump.contains("CL(_)"), "{dump}");
        assert!(dump.contains("VC(q0)"), "{dump}");
    }

    #[test]
    fn vm_matches_network_on_the_paper_examples() {
        // The second document carries a text event: the VM takes the
        // inert-tick bypass for it (static per-node message counts, only the
        // outputs step) while the reference steps every node, so equal
        // statistics assert the bypass's accounting.
        for xml in [FIG1, "<a><a><c/></a><b/><c>t</c></a>"] {
            for query in ["a.c", "a+.c+", "_*.a[b].c", "_*._", "a|b", "a?.c", "b*"] {
                let (vf, vs) = run_vm(query, xml);
                let (nf, ns) = run_network(query, xml);
                assert_eq!(vf, nf, "fragments diverge for `{query}`");
                assert_eq!(vs, ns, "stats diverge for `{query}`");
            }
        }
    }

    #[test]
    fn vm_reproduces_figure_5_transition_traces() {
        // `a+.c+` over the Fig. 1 stream fires exactly the transitions of
        // Fig. 5.
        let net = CompiledNetwork::compile(&"a+.c+".parse().unwrap());
        let mut sink = FragmentCollector::new();
        let mut run = net.run(&mut sink);
        run.set_tracing(true);
        let mut t1 = Vec::new();
        let mut t2 = Vec::new();
        for ev in spex_xml::reader::parse_events(FIG1).unwrap() {
            run.push(ev);
            let traces = run.take_traces();
            t1.push(traces[1].clone());
            t2.push(traces[2].clone());
        }
        assert_eq!(
            t1,
            vec!["1,5", "7", "7", "8", "4", "9", "8", "4", "8", "4", "9", "11"]
        );
        // DAG order within a tick: CL(c) receives an activation (1, 6) on
        // exactly the ticks CL(a) matched an `<a>` (7) — it consumed, in the
        // same tick, what its producer had just appended.
        assert_eq!(
            t2,
            vec!["2", "1,5", "6,13", "7", "9", "10", "8", "4", "7", "9", "11", "3"]
        );
        // Every consumed message is accounted to exactly one node.
        let per_node: u64 = run.transducer_stats().iter().map(|t| t.messages).sum();
        assert_eq!(per_node, run.stats().messages);
    }

    #[test]
    fn vm_session_reset_discards_stale_state() {
        let net = CompiledNetwork::compile(&"_*.a[b].c".parse().unwrap());
        let mut sink = FragmentCollector::new();
        let mut run = net.run(&mut sink);
        let events = spex_xml::reader::parse_events("<a><c>stale</c><b/></a>").unwrap();
        for ev in events.iter().take(5) {
            run.push(ev.clone());
        }
        assert!(run.stats().peak_buffered_events > 0);
        run.reset_session();
        for ev in spex_xml::reader::parse_events("<a><c>fresh</c><b/></a>").unwrap() {
            run.push(ev);
        }
        run.finish();
        assert_eq!(sink.fragments(), ["<c>fresh</c>".to_string()]);
    }

    #[test]
    fn vm_limit_breach_drains_and_latches() {
        let net = CompiledNetwork::compile(&"r.x".parse().unwrap());
        let mut sink = FragmentCollector::new();
        let mut run = net.run(&mut sink);
        run.set_limits(ResourceLimits::default().with_max_total_messages(40));
        let events =
            spex_xml::reader::parse_events("<r><x>1</x><x>2</x><x>3</x><x>4</x></r>").unwrap();
        let mut tripped = false;
        for ev in events {
            if run.try_push(ev).is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped);
        assert_eq!(
            run.exhausted().expect("cap must trip").kind,
            crate::LimitKind::TotalMessages
        );
        assert!(run.try_push(XmlEvent::text("late")).is_err());
        let stats = run.finish();
        assert_eq!(stats.results + stats.dropped, stats.candidates_created);
        assert!(!sink.fragments().is_empty());
    }
}
