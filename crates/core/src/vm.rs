//! The execution engine: a flat plan for the transducer network, executed
//! by a small VM.
//!
//! [`Plan::compile`] lowers a built [`NetworkSpec`] into a flat instruction
//! table:
//!
//! * one instruction per node in topological order — the spec's own
//!   [`NodeSpec`], from which each run instantiates the node's transducer,
//! * the inbox ports of all nodes laid out contiguously in one slot array
//!   (CSR layout: `port_base[node] + port`),
//! * the consumer fan-out edges flattened the same way
//!   (`cons[cons_base[node]..cons_base[node + 1]]` are inbox slot ids),
//! * the sink table for output nodes.
//!
//! [`PlanRun`] executes the plan with **no boxed trait objects and no queue
//! re-allocation on the hot path**: operator state lives in a flat
//! `Vec<OpState>` (an enum over the concrete transducer structs — statically
//! dispatched), and message buffers are persistent and recycled by
//! `swap`/`drain`.
//!
//! The schedule is **activation-driven**. A tick publishes its document
//! message once, in the document register (the `DocEvent` handed to every
//! step, carrying the stream depth); inboxes carry only activations and
//! determinations. A tick steps, in topological order, only the nodes in its
//! *wake set*: those whose inbox a producer filled this tick, those whose
//! [`crate::transducers::Watch`] names this event (the open of a child
//! element with a child transducer's label below its activator, the close of
//! a sparse depth entry's level, an open inside a closure's live scope, `<$>`
//! for the input), the output operators holding a live candidate, and the
//! following/preceding operators on every open and close. A node's watch
//! files it on one wake list per stream depth; an open walks its depth's
//! list and tests a child's label there. Every other node would only
//! forward the document message, so its per-node message count is the
//! static `doc ticks × item_flow[v]`, added when statistics are read (with
//! each node's name, from the plan). A session reset clears in place only
//! the nodes stepped since the last one.
//!
//! The child steps one producer feeds, when their names are pairwise
//! distinct, run as one *label switch*: the first member's operator is one
//! child testing all their labels, which sends an activation only to the
//! consumers of the member whose label opened; the producer feeds only that
//! first member, and the others are never stepped (every member reads the
//! same inbox, so their states, and their statistics, differ only in the
//! label test). A batch of determinations only that reaches an output with
//! nothing to apply it to is counted there, not stepped.
//!
//! [`PlanRun`] is the only executor anything outside a differential rig
//! reaches: [`crate::Evaluator`], the multi-query and conjunctive-query
//! runs, the recovery driver and the server sessions all run on it. Its
//! scheduling is checked against the reference executor in
//! [`crate::network`], a second schedule over the same [`Machine`]: it
//! takes its wiring from the spec, runs a plan lowered without switches,
//! steps every node on every tick and accounts message by message, and it
//! alone traces transitions. `harness vm-diff` and the proptest suite
//! drive random documents × random queries through both (plus the DOM
//! baseline) and fail on the first divergence in outputs, statistics or
//! earliness. See DESIGN.md §14 for the plan IR and a worked lowering
//! example.

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
use crate::transducers::{Transducer, Watch};
use spex_formula::VarFactory;
use spex_query::Label;
use spex_trace::{Histogram, Tracer, Value};
use spex_xml::{EventId, EventStore, StoredKind, XmlEvent};
use std::collections::HashMap;
use std::sync::Arc;

// Only for `benchmark/trace` (frozen in this PR), which names `Engine::Vm`; the next `benchmark` PR drops it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The compiled flat-plan VM ([`PlanRun`]) — the only engine.
    #[default]
    Vm,
}

/// A compiled, immutable execution plan — the flat lowering of one
/// [`NetworkSpec`]. Shareable across threads and runs; instantiate with
/// [`crate::CompiledNetwork::run`] (or via [`crate::Evaluator`]).
#[derive(Debug, Clone)]
pub struct Plan {
    /// One instruction per node, topological order: the spec's node (shared
    /// with the spec), which names the transducer each run instantiates.
    code: Arc<[NodeSpec]>,
    /// `port_base[v]..port_base[v + 1]` are node `v`'s inbox slots.
    port_base: Vec<u32>,
    /// Consumer CSR offsets into [`Plan::cons`].
    cons_base: Vec<u32>,
    /// Flat consumer edges: the inbox slot each produced message lands in.
    /// A producer feeding a label switch lists only its first member.
    cons: Vec<u32>,
    /// For output nodes, which sink (result stream) they feed; `u32::MAX`
    /// everywhere else.
    pub(crate) sink_of: Vec<u32>,
    /// The node owning each inbox slot.
    slot_node: Vec<u32>,
    /// Node ids of the output instructions, ascending.
    outputs: Vec<u32>,
    /// Per-node document-message inflow on every tick. Every transducer
    /// forwards each document message exactly once, after the control
    /// messages the step emits, so the per-node counts are a static property
    /// of the wiring: splits duplicate the message, joins deduplicate it,
    /// everything else forwards one copy per copy received. The VM accounts
    /// them from here instead of moving the message through the inboxes.
    item_flow: Vec<u32>,
    /// Sum of [`Plan::item_flow`] — the engine-wide document-message count
    /// of one tick.
    item_total: u64,
    /// Nodes stepped on every open and close: the following and preceding
    /// operators (their dense stacks are outside the downward-only class),
    /// and any node but a join that receives other than one copy of the
    /// document message per tick (none in a network the builder makes).
    always: Vec<u32>,
    /// Whether any node keeps a depth stack (whose height is the stream
    /// depth).
    has_depth_ops: bool,
    /// Label switches: each one's members, ascending. The first member's
    /// operator is the switch; the others are never stepped.
    switches: Vec<Box<[u32]>>,
    /// The switch each first member leads, `NIL` for every other node.
    switch_of: Vec<u32>,
}

impl Plan {
    /// Lower `spec` into a flat plan. Linear in the network degree.
    pub fn compile(spec: &NetworkSpec) -> Plan {
        Plan::lower(spec, true)
    }

    /// Lower `spec`, forming label switches if `switch` (the VM's plan) or
    /// none (the reference executor's, where every node steps as itself).
    pub(crate) fn lower(spec: &NetworkSpec, switch: bool) -> Plan {
        let n = spec.nodes.len();
        let mut sink_of = vec![u32::MAX; n];
        let mut outputs = Vec::new();
        for (i, node) in spec.nodes.iter().enumerate() {
            if *node == NodeSpec::Output {
                let idx = spec
                    .sinks
                    .iter()
                    .position(|s| *s == i)
                    .expect("output node registered as sink");
                sink_of[i] = idx as u32;
                outputs.push(i as u32);
            }
        }
        // Contiguous inbox slots: every node gets max(ports, 1) slots.
        let mut port_base = Vec::with_capacity(n + 1);
        let mut slots = 0u32;
        for ins in &spec.inputs {
            port_base.push(slots);
            slots += ins.len().max(1) as u32;
        }
        port_base.push(slots);
        // Consumer edges `(node, slot)`, per producer in ascending consumer
        // id, like the reference executor's wiring.
        let mut per_node: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        for (v, ins) in spec.inputs.iter().enumerate() {
            for (port, u) in ins.iter().enumerate() {
                per_node[*u].push((v as u32, port_base[v] + port as u32));
            }
        }
        let mut slot_node = vec![0u32; slots as usize];
        for v in 0..n {
            for slot in &mut slot_node[port_base[v] as usize..port_base[v + 1] as usize] {
                *slot = v as u32;
            }
        }
        // Static document-message flow: one forward pass in topological
        // (ascending id) order. A node consumes what its producers emit; a
        // join collapses its two copies back into one, the outputs consume
        // theirs, everything else forwards.
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
        // Label switches: the CH consumers of one producer whose names are
        // pairwise distinct (a name two of them share, and the wildcard,
        // stay out). The producer's edges keep only the first member.
        let mut switches = Vec::new();
        let mut switch_of = vec![NIL; n];
        let mut cons_base = Vec::with_capacity(n + 1);
        let mut cons = Vec::new();
        for edges in &mut per_node {
            let name = |v: u32| match &spec.nodes[v as usize] {
                NodeSpec::Child(Label::Name(l)) if item_flow[v as usize] == 1 => Some(l),
                _ => None,
            };
            let mut uses: HashMap<&str, u32> = HashMap::new();
            for &(v, _) in edges.iter() {
                if let Some(l) = name(v) {
                    *uses.entry(l).or_default() += 1;
                }
            }
            let member = |v: u32| name(v).is_some_and(|l| uses[l.as_str()] == 1);
            let members: Box<[u32]> = edges.iter().map(|e| e.0).filter(|&v| member(v)).collect();
            if switch && members.len() >= 2 {
                switch_of[members[0] as usize] = switches.len() as u32;
                edges.retain(|&(v, _)| !member(v) || v == members[0]);
                switches.push(members);
            }
            cons_base.push(cons.len() as u32);
            cons.extend(edges.iter().map(|e| e.1));
        }
        cons_base.push(cons.len() as u32);
        let always = (0..n)
            .filter(|&v| match &spec.nodes[v] {
                NodeSpec::Following(_) | NodeSpec::Preceding(..) => true,
                NodeSpec::Join => false,
                _ => item_flow[v] != 1,
            })
            .map(|v| v as u32)
            .collect();
        Plan {
            code: Arc::clone(&spec.nodes),
            port_base,
            cons_base,
            cons,
            sink_of,
            slot_node,
            outputs,
            item_flow,
            item_total,
            always,
            has_depth_ops: spec.nodes.iter().any(tracks_depth),
            switches,
            switch_of,
        }
    }

    /// Node `v`'s consumer slots.
    fn consumers(&self, v: usize) -> &[u32] {
        &self.cons[self.cons_base[v] as usize..self.cons_base[v + 1] as usize]
    }

    /// The number of label switches the VM runs for this plan (see
    /// DESIGN.md §14).
    pub fn switch_count(&self) -> usize {
        self.switches.len()
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

    /// Human-readable disassembly, one instruction per line.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for i in 0..self.code.len() {
            let cons: Vec<String> = self.consumers(i).iter().map(|s| format!("@{s}")).collect();
            out.push_str(&format!(
                "{i:3}: {:<12} -> [{}]\n",
                self.code[i].describe(),
                cons.join(", ")
            ));
        }
        out
    }

    /// Instantiate the per-run operator states, resolving match labels
    /// against `symbols` in instruction order — so a run's symbol ids are a
    /// function of the spec alone, and a snapshot's symbol list lines up
    /// with any run of the same network. A label switch's first member is
    /// the switch: one child testing every member's label.
    fn instantiate(&self, symbols: &mut spex_xml::SymbolTable) -> Vec<OpState> {
        let mut ops: Vec<OpState> = self
            .code
            .iter()
            .map(|node| match node {
                NodeSpec::Input => OpState::Input(Input::new()),
                NodeSpec::Child(l) => OpState::Child(Child::new(MatchLabel::resolve(l, symbols))),
                NodeSpec::Closure(l) => {
                    OpState::Closure(Closure::new(MatchLabel::resolve(l, symbols)))
                }
                NodeSpec::Following(l) => {
                    OpState::Following(Following::new(MatchLabel::resolve(l, symbols)))
                }
                NodeSpec::Preceding(l, q) => {
                    OpState::Preceding(Preceding::new(MatchLabel::resolve(l, symbols), *q))
                }
                NodeSpec::VarCreator(q) => OpState::VarCreator(VarCreator::new(*q)),
                NodeSpec::VarFilterPos(q, inner) => {
                    OpState::VarFilter(VarFilter::positive(*q, inner.0..inner.1))
                }
                NodeSpec::VarFilterNeg(q) => OpState::VarFilter(VarFilter::negative(*q)),
                NodeSpec::VarDeterminant(q, inner) => {
                    OpState::VarDeterminant(VarDeterminant::new(*q, inner.0..inner.1))
                }
                NodeSpec::Split => OpState::Split(Split::new()),
                NodeSpec::Join => OpState::Join(Join::new()),
                NodeSpec::Union => OpState::Union(Union::new()),
                NodeSpec::Output => OpState::Emit(Box::new(Output::new())),
            })
            .collect();
        for members in &self.switches {
            let mut table = Vec::new();
            for (i, &m) in members.iter().enumerate() {
                let OpState::Child(c) = &ops[m as usize] else {
                    unreachable!("switch members are child steps")
                };
                let sym = c.label().symbol().expect("named") as usize;
                if sym >= table.len() {
                    table.resize(sym + 1, NIL);
                }
                table[sym] = i as u32;
            }
            ops[members[0] as usize] = OpState::Child(Child::new(MatchLabel::OneOf(table.into())));
        }
        ops
    }
}

/// Does the node keep a depth stack, one entry per open level (however
/// sparsely stored)? Its height is then the stream depth.
fn tracks_depth(node: &NodeSpec) -> bool {
    matches!(
        node,
        NodeSpec::Child(_)
            | NodeSpec::Closure(_)
            | NodeSpec::VarCreator(_)
            | NodeSpec::Following(_)
            | NodeSpec::Preceding(..)
    )
}

/// Per-node operator state: the concrete transducer structs, enum-tagged so
/// the VM dispatches with a jump table instead of a vtable. The output
/// transducer is boxed (it is by far the largest variant); everything on the
/// per-message hot path is inline.
pub(crate) enum OpState {
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

/// `$body` over the transducer `$t` of a single-input operator state; the
/// join and the output, which have interfaces of their own, take the
/// `Join` and `Emit` arms.
macro_rules! each_op {
    ($op:expr, $t:ident => $body:expr, Join($j:pat) => $join:expr, Emit($o:pat) => $emit:expr) => {
        match $op {
            OpState::Input($t) => $body,
            OpState::Child($t) => $body,
            OpState::Closure($t) => $body,
            OpState::Following($t) => $body,
            OpState::Preceding($t) => $body,
            OpState::VarCreator($t) => $body,
            OpState::VarFilter($t) => $body,
            OpState::VarDeterminant($t) => $body,
            OpState::Split($t) => $body,
            OpState::Union($t) => $body,
            OpState::Join($j) => $join,
            OpState::Emit($o) => $emit,
        }
    };
}

impl OpState {
    /// Statically dispatched step for the single-input operators.
    /// Join and Emit are handled directly by the tick loop.
    #[inline]
    pub(crate) fn step(&mut self, msg: Message, vars: &mut VarFactory, out: &mut Vec<Message>) {
        each_op!(self, t => t.step(msg, vars, out),
            Join(_) => unreachable!("handled by the tick loop"),
            Emit(_) => unreachable!("handled by the tick loop"))
    }

    /// (depth stack, condition stack) heights with the stream at
    /// `stream_depth`.
    pub(crate) fn stack_sizes(&self, stream_depth: usize) -> (usize, usize) {
        each_op!(self, t => t.stack_sizes(stream_depth), Join(_) => (0, 0), Emit(_) => (0, 0))
    }

    /// The document events that can change this node's state with no
    /// control message (see [`Transducer::watch`]).
    fn watch(&self) -> Watch {
        each_op!(self, t => t.watch(), Join(_) => Watch::default(), Emit(_) => Watch::default())
    }

    /// Back to the freshly instantiated state, in place.
    fn reset(&mut self) {
        each_op!(self, t => t.reset(), Join(j) => j.reset(), Emit(o) => o.reset())
    }

    pub(crate) fn set_tracing(&mut self, on: bool) {
        each_op!(self, t => t.set_tracing(on), Join(j) => j.set_tracing(on), Emit(_) => {})
    }

    pub(crate) fn take_transitions(&mut self) -> Vec<u8> {
        each_op!(self, t => t.take_transitions(), Join(j) => j.take_transitions(), Emit(_) => Vec::new())
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
/// there is only one \[document\] message in the network" (§III.2). The tick's
/// document message sits in one register; within the tick every node in the
/// wake set, in topological order, consumes the control messages its
/// producers emitted, then the document message, and appends the control
/// messages it emits to its consumers' inbox slots (waking them).
pub struct Machine {
    pub(crate) plan: Arc<Plan>,
    pub(crate) ops: Vec<OpState>,
    /// Flat inbox slots (`plan.port_base` layout), holding activations and
    /// determinations only. Persistent: capacities survive across ticks, so
    /// the hot path never re-grows a queue. Empty between ticks.
    inbox: Vec<Vec<Message>>,
    /// Recycled drain buffer.
    scratch: Vec<Message>,
    /// Recycled per-node output buffer.
    outbuf: Vec<Message>,
    /// The nodes left to step this tick.
    wake: WakeSet,
    /// Per-depth wake lists: nodes whose watch names an open (a close) at
    /// that stream depth (see [`Watchers`]).
    opens: Watchers,
    closes: Watchers,
    /// Output nodes holding a live candidate; its length is the count that
    /// decides when the arena may be recycled.
    live: LiveOutputs,
    /// Nodes stepped since the last session reset (each once), and the
    /// reference schedule's "all of them".
    touched: Vec<u32>,
    is_touched: Vec<bool>,
    all_touched: bool,
    /// Ticks the VM schedule accounted statically and `node_stats` does not
    /// include yet: node `v` consumed `item_flow[v]` document messages in
    /// each.
    doc_ticks: u64,
    /// Deepest stream depth the VM schedule accounted statically: the depth
    /// stack height every depth-tracking node reached.
    depth_peak: usize,
    /// Steps taken, by node (see [`Machine::ops_stepped`]).
    node_steps: Vec<u64>,
    /// The run's event arena: payload bytes live here exactly once; the
    /// plan only moves [`spex_xml::EventId`] handles. Owns the symbol table
    /// (labels are interned at push time). Reset whenever no output
    /// operator is buffering, so its high-water mark measures the bytes
    /// buffered for undetermined candidates (paper §VI).
    pub(crate) store: EventStore,
    /// The run-wide variable namespace of §III.5, handed to every step.
    pub(crate) vars: VarFactory,
    pub(crate) stats: EngineStats,
    /// Per-node counters, indexed by instruction id (`node` and `kind` are
    /// filled in from the plan when read). Under the VM schedule the
    /// document messages of the last `doc_ticks` ticks are not in
    /// `messages` yet; read them through [`Machine::transducer_stats`].
    pub(crate) node_stats: Vec<TransducerStats>,
    limits: ResourceLimits,
    /// The first limit breach, latched; further input is refused.
    exhausted: Option<LimitBreach>,
    pub(crate) tick: u64,
    pub(crate) depth: usize,
    /// Symbol-table size right after the query labels were resolved; session
    /// reuse truncates the table back to this baseline between documents.
    symbol_baseline: usize,
    /// Trace export handle (disabled by default; see [`Machine::set_tracer`]).
    tracer: Tracer,
}

const NIL: u32 = u32::MAX;

/// The nodes to step in one tick: a two-level bitset, popped in ascending
/// id — topological — order. A node only ever wakes a consumer, whose id is
/// larger, so the pops stay ordered while the set grows.
#[derive(Debug)]
struct WakeSet {
    words: Vec<u64>,
    /// Bit `w` set iff `words[w]` is non-zero.
    summary: Vec<u64>,
}

impl WakeSet {
    fn new(n: usize) -> WakeSet {
        let words = n.div_ceil(64);
        WakeSet {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
        }
    }

    #[inline]
    fn insert(&mut self, id: usize) {
        let w = id >> 6;
        self.words[w] |= 1 << (id & 63);
        self.summary[w >> 6] |= 1 << (w & 63);
    }

    #[inline]
    fn pop_min(&mut self) -> Option<usize> {
        let s = self.summary.iter().position(|&bits| bits != 0)?;
        let bits = self.summary[s];
        let w = (s << 6) | bits.trailing_zeros() as usize;
        let word = self.words[w];
        let rest = word & (word - 1);
        self.words[w] = rest;
        if rest == 0 {
            self.summary[s] = bits & (bits - 1);
        }
        Some((w << 6) | word.trailing_zeros() as usize)
    }
}

/// Wake lists for one kind of document event: one list per stream depth,
/// intrusive and doubly linked. A node sits in at most one list, so moving
/// it is O(1). Beside each node sits the label an open must have to wake it
/// (a child's `Watch::open_label`): an open walks its depth's list, wakes
/// the nodes filed with no label or with its own, and leaves the rest
/// linked.
#[derive(Debug)]
struct Watchers {
    heads: Vec<u32>,
    next: Vec<u32>,
    prev: Vec<u32>,
    /// The depth whose list holds the node, or `NIL`.
    at: Vec<u32>,
    /// The label that wakes the node on an open, or `NIL` for every label.
    label: Vec<u32>,
}

impl Watchers {
    fn new(n: usize) -> Watchers {
        Watchers {
            heads: Vec::new(),
            next: vec![NIL; n],
            prev: vec![NIL; n],
            at: vec![NIL; n],
            label: vec![NIL; n],
        }
    }

    /// File node `id` on the list of `depth` (off every list for `None`),
    /// woken by an open only of `label` if one is given.
    #[inline]
    fn set(&mut self, id: usize, depth: Option<u32>, label: Option<crate::message::Symbol>) {
        self.label[id] = label.unwrap_or(NIL);
        let d = depth.unwrap_or(NIL);
        if self.at[id] == d {
            return;
        }
        self.unlink(id);
        if d == NIL {
            return;
        }
        if d as usize >= self.heads.len() {
            self.heads.resize(d as usize + 1, NIL);
        }
        let h = std::mem::replace(&mut self.heads[d as usize], id as u32);
        self.next[id] = h;
        self.prev[id] = NIL;
        if h != NIL {
            self.prev[h as usize] = id as u32;
        }
        self.at[id] = d;
    }

    fn unlink(&mut self, id: usize) {
        let d = self.at[id];
        if d == NIL {
            return;
        }
        let (p, n) = (self.prev[id], self.next[id]);
        if p == NIL {
            self.heads[d as usize] = n;
        } else {
            self.next[p as usize] = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        }
        self.at[id] = NIL;
    }

    /// Move into `wake` the nodes on the list of `depth` that an event
    /// with `label` wakes: every node for `None` (a close), else those
    /// filed with no label or with `label`.
    #[inline]
    fn drain(&mut self, depth: u32, label: Option<crate::message::Symbol>, wake: &mut WakeSet) {
        let mut id = self.heads.get(depth as usize).copied().unwrap_or(NIL);
        while id != NIL {
            let i = id as usize;
            id = self.next[i];
            if label.is_none_or(|l| self.label[i] == NIL || self.label[i] == l) {
                self.unlink(i);
                wake.insert(i);
            }
        }
    }
}

/// File node `id`'s watch in the open and close wake lists.
#[inline]
fn file_watch(opens: &mut Watchers, closes: &mut Watchers, id: usize, w: Watch) {
    opens.set(id, w.open, w.open_label);
    closes.set(id, w.close, None);
}

/// What one step's fan-out writes: its consumers' inboxes, the wake set, and
/// the message counts of the outputs a batch is counted at instead.
struct Fan<'a> {
    plan: &'a Plan,
    ops: &'a [OpState],
    inbox: &'a mut [Vec<Message>],
    wake: &'a mut WakeSet,
    stats: &'a mut EngineStats,
    node_stats: &'a mut [TransducerStats],
}

impl Fan<'_> {
    /// A switch's fan-out: the activation (7, 11) to the consumers of the
    /// member whose label opened, the determinations (13) to every
    /// member's. Out of line, so the tick loop stays small for plans
    /// without switches.
    #[inline(never)]
    fn route(&mut self, members: &[u32], doc: DocEvent, outbuf: &mut Vec<Message>) {
        let matched = match (&self.ops[members[0] as usize], doc) {
            (OpState::Child(c), DocEvent::Open { label, .. }) => c.label().member(label),
            _ => None,
        };
        if let Some(i) = matched {
            self.deliver(self.plan.consumers(members[i] as usize), outbuf, true);
            outbuf.retain(|m| matches!(m, Message::Determine(..)));
        }
        if !outbuf.is_empty() {
            for (i, &m) in members.iter().enumerate() {
                if matched != Some(i) {
                    self.deliver(self.plan.consumers(m as usize), outbuf, true);
                }
            }
        }
        outbuf.clear();
    }

    /// Append `batch` to the consumer slots `cs`, waking their nodes. Unless
    /// `keep`, the last slot takes the buffer itself (by swap when empty),
    /// leaving `batch` empty. A batch of determinations only that reaches
    /// an output with no candidate and no pending activation is counted
    /// there, not delivered: it would change nothing.
    #[inline(always)]
    fn deliver(&mut self, cs: &[u32], batch: &mut Vec<Message>, keep: bool) {
        let inert = batch.iter().all(|m| matches!(m, Message::Determine(..)));
        let mut last = None;
        for &s in cs {
            let v = self.plan.slot_node[s as usize] as usize;
            if inert && matches!(&self.ops[v], OpState::Emit(o) if o.idle()) {
                let n = batch.len() as u64;
                self.stats.messages += n;
                self.node_stats[v].messages += n;
                continue;
            }
            if let Some(p) = last.replace(s as usize) {
                self.inbox[p].extend(batch.iter().cloned());
            }
            self.wake.insert(v);
        }
        match last {
            Some(s) if keep => self.inbox[s].extend(batch.iter().cloned()),
            Some(s) if self.inbox[s].is_empty() => std::mem::swap(&mut self.inbox[s], batch),
            Some(s) => self.inbox[s].append(batch),
            None => {}
        }
        if !keep {
            batch.clear();
        }
    }
}

/// The output nodes holding a live candidate, with O(1) insert and remove.
#[derive(Debug)]
struct LiveOutputs {
    list: Vec<u32>,
    /// Index of each node in `list`, or `NIL`.
    pos: Vec<u32>,
}

impl LiveOutputs {
    fn new(n: usize) -> LiveOutputs {
        LiveOutputs {
            list: Vec::new(),
            pos: vec![NIL; n],
        }
    }

    /// Record whether output node `id` holds a live candidate after a step.
    #[inline]
    fn note(&mut self, id: usize, live: bool) {
        let p = self.pos[id];
        if live && p == NIL {
            self.pos[id] = self.list.len() as u32;
            self.list.push(id as u32);
        } else if !live && p != NIL {
            self.list.swap_remove(p as usize);
            if let Some(&moved) = self.list.get(p as usize) {
                self.pos[moved as usize] = p;
            }
            self.pos[id] = NIL;
        }
    }

    fn clear(&mut self) {
        for &id in &self.list {
            self.pos[id as usize] = NIL;
        }
        self.list.clear();
    }
}

impl<S: ResultSink> PlanRun<S> {
    /// Instantiate `plan` with one sink per *logical* query: `slot_of[i]` is
    /// the output instruction (physical sink slot) serving `sinks[i]`. The
    /// combiner aliases canonically equal queries onto one slot; each of
    /// their sinks still receives every fragment. Callers normally go
    /// through [`crate::CompiledNetwork::run`], which passes its slot table.
    ///
    /// # Panics
    ///
    /// If `sinks` and `slot_of` disagree in length, a slot is out of range,
    /// or an output instruction is served to no sink.
    pub fn new(plan: Arc<Plan>, sinks: Vec<S>, slot_of: &[usize]) -> Self {
        let sinks = SinkBank::new(sinks, slot_of, plan.sink_count());
        let mut store = EventStore::new();
        let ops = plan.instantiate(store.symbols_mut());
        let symbol_baseline = store.symbols().len();
        let n = plan.code.len();
        let inbox = (0..*plan.port_base.last().expect("non-empty plan"))
            .map(|_| Vec::new())
            .collect();
        let (mut opens, mut closes) = (Watchers::new(n), Watchers::new(n));
        for (id, op) in ops.iter().enumerate() {
            file_watch(&mut opens, &mut closes, id, op.watch());
        }
        let machine = Machine {
            plan,
            ops,
            inbox,
            scratch: Vec::new(),
            outbuf: Vec::new(),
            wake: WakeSet::new(n),
            opens,
            closes,
            live: LiveOutputs::new(n),
            touched: Vec::new(),
            is_touched: vec![false; n],
            all_touched: false,
            doc_ticks: 0,
            depth_peak: 0,
            node_steps: vec![0; n],
            store,
            vars: VarFactory::new(),
            stats: EngineStats::default(),
            node_stats: vec![TransducerStats::default(); n],
            limits: ResourceLimits::default(),
            exhausted: None,
            tick: 0,
            depth: 0,
            symbol_baseline,
            tracer: Tracer::disabled(),
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
        let transducers = self.machine.transducer_stats();
        (self.machine.stats, transducers, self.sinks.sinks)
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
        self.tick_with(id, sinks, Machine::dispatch)
    }

    /// Push the arena event `id` through one tick that `schedule` runs, and
    /// do everything around it that does not depend on the schedule: map
    /// the event to its document message and track the stream depth before;
    /// after, count the tick, fold the arena and symbol peaks, check the
    /// resource limits (aborting on a breach) and recycle the arena. The VM
    /// passes [`Machine::dispatch`]; the reference executor in
    /// [`crate::network`] passes its own schedule.
    pub(crate) fn tick_with(
        &mut self,
        id: EventId,
        sinks: &mut dyn SlotSinks,
        schedule: impl FnOnce(&mut Machine, DocEvent, &mut dyn SlotSinks),
    ) -> Result<(), EvalError> {
        if let Some(b) = self.exhausted {
            return Err(b.into());
        }
        let doc = self.doc_event(id);
        schedule(self, doc, sinks);
        self.tick += 1;
        self.stats.peak_arena_bytes = self.stats.peak_arena_bytes.max(self.store.bytes_used());
        self.stats.interned_symbols = self.stats.interned_symbols.max(self.store.symbols().len());
        if let Err(b) = self.limits.check(&self.stats) {
            self.exhausted = Some(b);
            self.abort(sinks);
            return Err(b.into());
        }
        // Once no output operator holds a live candidate, no arena
        // interval is outstanding: recycle the arena (keeps symbols and
        // capacity). This is what bounds memory to the undetermined
        // fragments of the paper's §VI argument.
        if self.live.list.is_empty() {
            self.store.reset();
        }
        Ok(())
    }

    /// The document message of arena event `id` — the tick's document
    /// register, carrying the stream depth of its element — with the depth
    /// tracked across it.
    fn doc_event(&mut self, id: EventId) -> DocEvent {
        let rec = self.store.stored(id);
        match rec.kind {
            StoredKind::StartDocument | StoredKind::Start => {
                self.depth += 1;
                self.stats.max_stream_depth = self.stats.max_stream_depth.max(self.depth);
                DocEvent::Open {
                    label: rec.sym,
                    payload: id,
                    depth: self.depth as u32,
                }
            }
            StoredKind::EndDocument | StoredKind::End => {
                let depth = self.depth as u32;
                self.depth = self.depth.saturating_sub(1);
                DocEvent::Close {
                    label: rec.sym,
                    payload: id,
                    depth,
                }
            }
            StoredKind::Text | StoredKind::Comment | StoredKind::Pi => {
                DocEvent::Item { payload: id }
            }
        }
    }

    /// Mark every node as stepped this session (the reference schedule steps
    /// them all).
    pub(crate) fn touch_all(&mut self) {
        self.all_touched = true;
    }

    /// Step output node `id` over one message and keep the live-output
    /// count current (the reference schedule's output step).
    pub(crate) fn step_output(&mut self, id: usize, msg: Message, sinks: &mut dyn SlotSinks) {
        if let OpState::Emit(o) = &mut self.ops[id] {
            let slot = self.plan.sink_of[id] as usize;
            o.step(
                msg,
                &mut Slot(sinks, slot),
                self.tick,
                &mut self.stats,
                &self.store,
            );
            self.live.note(id, o.live_candidates() > 0);
        }
    }

    /// The VM's schedule for one tick: account the document message's static
    /// flow, build the wake set, then step the woken nodes in topological
    /// order — each over its inbox, then the register — fanning their
    /// control messages out to (and waking) their consumers. A label
    /// switch is its first member's operator, and routes for every member.
    fn dispatch(&mut self, doc: DocEvent, sinks: &mut dyn SlotSinks) {
        let Machine {
            plan,
            ops,
            inbox,
            scratch,
            outbuf,
            wake,
            opens,
            closes,
            live,
            touched,
            is_touched,
            doc_ticks,
            depth_peak,
            node_steps,
            store,
            vars,
            stats,
            node_stats,
            tick,
            depth,
            ..
        } = self;
        let plan: &Plan = plan;
        stats.messages += plan.item_total;
        *doc_ticks += 1;
        // Wake what this event can change, and note the stream depth before
        // it.
        let before = match doc {
            DocEvent::Open {
                depth: d, label, ..
            } => {
                opens.drain(d, Some(label), wake);
                opens.drain(Watch::ANY_OPEN, Some(label), wake);
                if plan.has_depth_ops {
                    // Every depth stack grew to the stream depth.
                    stats.observe_stacks(d as usize, 0);
                    *depth_peak = (*depth_peak).max(d as usize);
                }
                d - 1
            }
            DocEvent::Close { depth: d, .. } => {
                closes.drain(d, None, wake);
                d
            }
            DocEvent::Item { .. } => *depth as u32,
        };
        if !matches!(doc, DocEvent::Item { .. }) {
            for &id in &plan.always {
                wake.insert(id as usize);
            }
        }
        for &id in &live.list {
            wake.insert(id as usize);
        }
        // A plan without switches skips their lookup on every step.
        let switched = !plan.switches.is_empty();
        while let Some(id) = wake.pop_min() {
            if !is_touched[id] {
                is_touched[id] = true;
                touched.push(id as u32);
            }
            node_steps[id] += 1;
            let base = plan.port_base[id] as usize;
            let sw = if switched { plan.switch_of[id] } else { NIL };
            let ns = &mut node_stats[id];
            match &mut ops[id] {
                OpState::Join(j) => {
                    let (left, right) = inbox.split_at_mut(base + 1);
                    let (left, right) = (&mut left[base], &mut right[0]);
                    let consumed = (left.len() + right.len()) as u64;
                    stats.messages += consumed;
                    ns.messages += consumed;
                    j.step_register(left, right, outbuf);
                }
                OpState::Emit(o) => {
                    let mut sink = Slot(sinks, plan.sink_of[id] as usize);
                    if !inbox[base].is_empty() {
                        std::mem::swap(&mut inbox[base], scratch);
                        let consumed = scratch.len() as u64;
                        stats.messages += consumed;
                        ns.messages += consumed;
                        for m in scratch.drain(..) {
                            if let Message::Activate(f) = &m {
                                ns.max_formula_size = ns.max_formula_size.max(f.size());
                            }
                            o.step(m, &mut sink, *tick, stats, store);
                        }
                        std::mem::swap(&mut inbox[base], scratch);
                    }
                    for _ in 0..plan.item_flow[id] {
                        o.step(Message::Doc(doc), &mut sink, *tick, stats, store);
                    }
                    live.note(id, o.live_candidates() > 0);
                    continue;
                }
                op => {
                    // A split forwards every control message verbatim (the
                    // fan-out below duplicates) and does nothing with the
                    // register: its inbox moves out in bulk.
                    let bulk = matches!(op, OpState::Split(_));
                    if !inbox[base].is_empty() {
                        let consumed = inbox[base].len() as u64;
                        // A switch consumes, once, the messages each member
                        // would.
                        let copies = plan.switches.get(sw as usize).map_or(1, |m| m.len());
                        stats.messages += consumed * copies as u64;
                        ns.messages += consumed;
                        let mut max_formula = 0;
                        for m in &inbox[base] {
                            if let Message::Activate(f) = m {
                                max_formula = max_formula.max(f.size());
                            }
                        }
                        if max_formula > 0 {
                            stats.observe_formula(max_formula);
                            ns.max_formula_size = ns.max_formula_size.max(max_formula);
                        }
                        if bulk {
                            std::mem::swap(&mut inbox[base], outbuf);
                        } else {
                            if let OpState::Child(c) = op {
                                c.catch_up(before);
                            }
                            std::mem::swap(&mut inbox[base], scratch);
                            for m in scratch.drain(..) {
                                op.step(m, vars, outbuf);
                            }
                            std::mem::swap(&mut inbox[base], scratch);
                        }
                    }
                    if !bulk {
                        for _ in 0..plan.item_flow[id] {
                            op.step(Message::Doc(doc), vars, outbuf);
                            // The step forwarded the register last; the
                            // consumers read it from there.
                            let forwarded = outbuf.pop();
                            debug_assert!(matches!(forwarded, Some(Message::Doc(_))));
                        }
                        let (d, c) = op.stack_sizes(*depth);
                        stats.observe_stacks(d, c);
                        ns.max_depth_stack = ns.max_depth_stack.max(d);
                        ns.max_cond_stack = ns.max_cond_stack.max(c);
                        file_watch(opens, closes, id, op.watch());
                    }
                }
            }
            if outbuf.is_empty() {
                continue;
            }
            let mut fan = Fan {
                plan,
                ops,
                inbox,
                wake,
                stats,
                node_stats,
            };
            match plan.switches.get(sw as usize) {
                Some(members) => fan.route(members, doc, outbuf),
                None => fan.deliver(plan.consumers(id), outbuf, false),
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
        self.live.clear();
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
        self.live.clear();
        self.stats.ticks = self.tick;
        self.stats.vars_created = u64::from(self.vars.minted());
        self.stats.peak_arena_bytes = self.stats.peak_arena_bytes.max(self.store.peak_bytes());
        self.stats.interned_symbols = self.stats.interned_symbols.max(self.store.symbols().len());
        if self.tracer.enabled() {
            self.emit_trace();
        }
    }

    /// Determination-latency histograms, one `(node id, histogram)` pair per
    /// output node, including latencies accumulated across
    /// [`Machine::reset_session`] and restored from a snapshot. See
    /// [`Output::determination_latency`] for the measure's definition.
    pub fn determination_latency(&self) -> Vec<(usize, Histogram)> {
        let latency = |&id: &u32| match &self.ops[id as usize] {
            OpState::Emit(o) => Some((id as usize, o.determination_latency().clone())),
            _ => None,
        };
        self.plan.outputs.iter().filter_map(latency).collect()
    }

    /// Export the end-of-run measurements as trace records (the engine
    /// section of the DESIGN.md §13 schema). Called once from
    /// [`PlanRun::finish_full`] when a tracer is attached.
    fn emit_trace(&self) {
        let t = &self.tracer;
        t.counter("engine.ticks", self.stats.ticks);
        t.counter("engine.messages", self.stats.messages);
        t.counter("engine.ops_stepped", self.ops_stepped());
        for (kind, steps) in self.ops_stepped_by_kind() {
            t.counter_with(
                "engine.ops_stepped",
                steps,
                &[("kind", Value::from(kind.as_str()))],
            );
        }
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
        for ns in &self.transducer_stats() {
            t.counter_with(
                "engine.node.messages",
                ns.messages,
                &[
                    ("node", Value::U64(ns.node as u64)),
                    ("kind", Value::from(ns.kind.as_str())),
                ],
            );
        }
        for (id, h) in self.determination_latency() {
            t.hist(
                "engine.determination_latency",
                &h,
                &[("node", Value::U64(id as u64)), ("kind", Value::from("OU"))],
            );
        }
    }

    /// Reset the run for the next document of a long-lived session, keeping
    /// the plan, the accumulated statistics, and every allocation (operator
    /// stacks, inbox slots, drain buffers, the arena's capacity).
    ///
    /// Call at a document boundary. The reset releases everything the
    /// previous document could leak into the next one:
    ///
    /// * every operator the document stepped returns, in place, to its
    ///   freshly instantiated state, so stale candidate buffers, pending
    ///   activations, and half-popped stacks (e.g. after a truncated
    ///   document) cannot survive; an operator the document never stepped
    ///   is still in that state,
    /// * the arena's event bytes are recycled (the high-water mark is folded
    ///   into the stats),
    /// * interned symbols beyond the query-label baseline are forgotten, so
    ///   a session streaming documents with disjoint vocabularies cannot
    ///   grow the symbol table without bound.
    ///
    /// Accumulated statistics, determination latencies and the tick counter
    /// continue across the reset. A latched resource-limit breach is *not*
    /// cleared: an exhausted run stays exhausted (the session must be torn
    /// down).
    pub fn reset_session(&mut self) {
        self.store.reset();
        self.store.symbols_mut().truncate(self.symbol_baseline);
        if self.all_touched {
            self.all_touched = false;
            self.touched.clear();
            self.touched.extend(0..self.ops.len() as u32);
        }
        for &id in &self.touched {
            let id = id as usize;
            self.is_touched[id] = false;
            let op = &mut self.ops[id];
            op.reset();
            file_watch(&mut self.opens, &mut self.closes, id, op.watch());
        }
        self.touched.clear();
        self.live.clear();
        debug_assert!(self.inbox.iter().all(Vec::is_empty));
        self.depth = 0;
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
        if self.depth != 0 || !self.live.list.is_empty() || !self.store.is_empty() {
            return Err(SnapshotError::NotQuiescent);
        }
        // The format carries one histogram per node; only outputs record.
        let mut det_latency = vec![Histogram::new(); self.ops.len()];
        for (id, h) in self.determination_latency() {
            det_latency[id] = h;
        }
        let symbols = (0..self.store.symbols().len())
            .map(|i| self.store.symbols().name(i as u32).to_string())
            .collect();
        Ok(Snapshot {
            tick: self.tick,
            stats: self.stats.clone(),
            transducers: self.transducer_stats(),
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
    /// per-node kind list is verified against the plan's nodes and its
    /// symbol list must extend this run's query-label baseline. Each
    /// output's latency histogram goes back into that output.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        if self.tick != 0 || self.depth != 0 || !self.store.is_empty() {
            return Err(SnapshotError::NotQuiescent);
        }
        let n = self.plan.code.len();
        if snap.transducers.len() != n {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot has {} nodes, run has {n}",
                snap.transducers.len()
            )));
        }
        for (v, (t, node)) in snap
            .transducers
            .iter()
            .zip(self.plan.code.iter())
            .enumerate()
        {
            let kind = node.describe();
            if t.node != v || t.kind != kind {
                return Err(SnapshotError::Mismatch(format!(
                    "node {v} is {} in the snapshot but {kind} in the run",
                    t.kind
                )));
            }
        }
        if snap.det_latency.len() != n {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot has {} latency accumulators, run has {n}",
                snap.det_latency.len()
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
        let counters = |t: &TransducerStats| TransducerStats {
            kind: String::new(),
            ..*t
        };
        self.node_stats = snap.transducers.iter().map(counters).collect();
        for &id in &self.plan.outputs {
            if let OpState::Emit(o) = &mut self.ops[id as usize] {
                o.restore_latency(snap.det_latency[id as usize].clone());
            }
        }
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
    /// [`EngineStats::messages`]. Built on each call: each node's name comes
    /// from the plan, and the document messages the VM accounts statically
    /// are folded in. A label switch's members read one inbox, so each
    /// reports the switch's row, which its first member's counters hold.
    pub fn transducer_stats(&self) -> Vec<TransducerStats> {
        let plan = &self.plan;
        let mut out: Vec<TransducerStats> = self
            .node_stats
            .iter()
            .zip(plan.code.iter())
            .zip(&plan.item_flow)
            .enumerate()
            .map(|(v, ((ns, node), &flow))| {
                let mut t = TransducerStats {
                    node: v,
                    kind: node.describe(),
                    ..*ns
                };
                t.messages += self.doc_ticks * u64::from(flow);
                if tracks_depth(node) {
                    t.max_depth_stack = t.max_depth_stack.max(self.depth_peak);
                }
                t
            })
            .collect();
        for members in plan.switches.iter() {
            for &m in &members[1..] {
                let (node, kind) = (m as usize, std::mem::take(&mut out[m as usize].kind));
                out[node] = TransducerStats {
                    node,
                    kind,
                    ..out[members[0] as usize]
                };
            }
        }
        out
    }

    /// Operator steps taken so far: under the VM's schedule, the nodes its
    /// wake sets held, summed over ticks (the reference executor steps every
    /// node on every tick). Not part of [`EngineStats`] or a snapshot: it
    /// measures the schedule, not the paper's network.
    pub fn ops_stepped(&self) -> u64 {
        self.node_steps.iter().sum()
    }

    /// [`Machine::ops_stepped`] by node kind (`CH`, `OU`, …, and `SW` for
    /// the label switches, whose steps are their first members'), for every
    /// kind the plan has.
    pub fn ops_stepped_by_kind(&self) -> Vec<(String, u64)> {
        let mut kinds: Vec<(String, u64)> = Vec::new();
        let mut switched = 0;
        for (v, node) in self.plan.code.iter().enumerate() {
            let describe = node.describe();
            let kind = describe.split('(').next().unwrap_or_default();
            let mut steps = self.node_steps[v];
            if self.plan.switch_of[v] != NIL {
                switched += std::mem::take(&mut steps);
            }
            match kinds.iter_mut().find(|k| k.0 == kind) {
                Some(k) => k.1 += steps,
                None => kinds.push((kind.to_string(), steps)),
            }
        }
        if !self.plan.switches.is_empty() {
            kinds.push(("SW".to_string(), switched));
        }
        kinds
    }

    /// Count one step of every node (the reference schedule's tick).
    pub(crate) fn count_every_step(&mut self) {
        for n in &mut self.node_steps {
            *n += 1;
        }
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
        let mut run = net.run(vec![&mut sink]);
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
        assert_eq!(plan.code, net.spec().nodes);
        assert_eq!(plan.code[0], NodeSpec::Input);
        assert_eq!(*plan.code.last().unwrap(), NodeSpec::Output);
        assert_eq!(plan.sink_count(), 1);
        let dump = plan.dump();
        assert!(dump.contains("CL(_)"), "{dump}");
        assert!(dump.contains("VC(q0)"), "{dump}");
    }

    #[test]
    fn vm_matches_network_on_the_paper_examples() {
        // The second document carries a text event: the VM steps only the
        // live outputs on it and accounts every node's document message
        // statically, while the reference steps every node, so equal
        // statistics assert the static accounting.
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
    fn vm_session_reset_discards_stale_state() {
        let net = CompiledNetwork::compile(&"_*.a[b].c".parse().unwrap());
        let mut sink = FragmentCollector::new();
        let mut run = net.run(vec![&mut sink]);
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

    fn woken(wake: &mut WakeSet) -> Vec<usize> {
        std::iter::from_fn(|| wake.pop_min()).collect()
    }

    #[test]
    fn wake_lists_test_the_label_in_the_walk() {
        let mut w = Watchers::new(5);
        let mut wake = WakeSet::new(5);
        w.set(0, Some(2), None);
        w.set(1, Some(2), Some(7));
        w.set(2, Some(2), Some(8));
        w.set(3, Some(3), None);
        // An open of label 7 at depth 2 wakes the unlabelled node and the
        // one filed with 7; node 2 stays linked.
        w.drain(2, Some(7), &mut wake);
        assert_eq!(woken(&mut wake), [0, 1]);
        assert_eq!(w.at, [NIL, NIL, 2, 3, NIL]);
        w.drain(2, Some(7), &mut wake);
        assert_eq!(woken(&mut wake), [] as [usize; 0]);
        // A node moves between depths.
        w.set(2, Some(3), Some(8));
        w.drain(2, Some(8), &mut wake);
        assert_eq!(woken(&mut wake), [] as [usize; 0]);
        w.set(4, Some(3), Some(9));
        // A close drains its whole depth, labels or not.
        w.drain(3, None, &mut wake);
        assert_eq!(woken(&mut wake), [2, 3, 4]);
        assert_eq!(w.at, [NIL; 5]);
        assert_eq!(w.heads, [NIL; 4]);
    }

    #[test]
    fn a_child_step_wakes_only_for_its_label() {
        let net = CompiledNetwork::compile(&"r.x".parse().unwrap());
        let mut sink = FragmentCollector::new();
        let mut run = net.run(vec![&mut sink]);
        let xml = format!("<r>{}<x/></r>", "<y/>".repeat(1000));
        for ev in spex_xml::reader::parse_events(&xml).unwrap() {
            run.push(ev);
        }
        let x = (0..run.plan.code.len())
            .find(|&v| run.plan.code[v].describe() == "CH(x)")
            .expect("a CH(x) node");
        assert!(
            run.node_steps[x] <= 4,
            "CH(x) stepped {}",
            run.node_steps[x]
        );
        run.finish();
        assert_eq!(sink.fragments(), ["<x></x>".to_string()]);
    }

    #[test]
    fn vm_limit_breach_drains_and_latches() {
        let net = CompiledNetwork::compile(&"r.x".parse().unwrap());
        let mut sink = FragmentCollector::new();
        let mut run = net.run(vec![&mut sink]);
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
