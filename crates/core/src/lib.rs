//! # spex-core — the SPEX transducer network
//!
//! The primary contribution of the paper *An Evaluation of Regular Path
//! Expressions with Qualifiers against XML Streams*: a regular path
//! expression with qualifiers is translated — in time linear in the query
//! size (Lemma V.1) — into a DAG of communicating pushdown transducers, and
//! the XML stream is pushed through the network one message at a time.
//! Results are emitted progressively; a stream fragment is buffered only
//! while its membership in the result is still undetermined.
//!
//! ## Architecture
//!
//! * [`message`] — the three message kinds of Definition 2: document
//!   messages, activation messages `[f]`, and condition determination
//!   messages `{c,v}`,
//! * [`transducers`] — one module per transducer of §III, each implementing
//!   the *numbered transition tables* of the paper's figures (the numbers are
//!   recorded when tracing is on, so the example traces of Figs. 4, 5 and 13
//!   are reproduced verbatim by the test suite),
//! * [`network`] — the network DAG (Definition 3): its spec, its builder,
//!   and the *reference* executor — the tick discipline of §III.2 written
//!   the obvious way, as a second schedule over the VM's [`Machine`]
//!   (its own wiring and queues, every node stepped, per-message
//!   accounting), which only tests and `harness vm-diff` run,
//! * [`compile`] — the denotational translation `C` of Fig. 11 and
//!   [`CompiledNetwork`], the one compiled-program type: one query, a
//!   conjunctive query, or a multi-query set from the `spex-combine`
//!   combiner (the optimization named in the paper's conclusion),
//! * [`vm`] — the engine: the network lowered to a flat [`Plan`] (the
//!   spec's nodes plus CSR wiring) and executed tick-synchronously by
//!   [`PlanRun`] ("at any time there is only one \[document\] message in
//!   the network", §III.2), which owns what it runs on — a share of the
//!   plan, the run-wide variable namespace and its sinks; everything below
//!   runs on it, and a differential rig keeps its scheduling equal to the
//!   reference executor's (DESIGN.md §14),
//! * [`pump`] — the one loop from bytes to results: [`Pump`] owns the push
//!   parser, the run and the recovery policy, resets the run at every
//!   document boundary, snapshots it there for durable callers, and drains
//!   the recovery quarantine at the end; the CLI, the server sessions and
//!   [`evaluate_recovering`] all drive it,
//! * [`engine`] — the user-facing [`Evaluator`] driving XML events through a
//!   compiled network,
//! * [`sink`] — result delivery (progressive fragments in document order),
//! * [`stats`] — instrumentation backing the §V complexity experiments,
//! * [`cq`] — conjunctive queries with regular path expressions (§VII),
//!   compiled to multi-sink networks via the translation `T` of Fig. 16.
//!
//! The repository-level DESIGN.md maps every module here to its paper
//! section (§1, the system inventory); §8 fixes the result semantics all
//! evaluators share, §9 the resource limits and per-transducer stats, §10
//! the recovery layer ([`evaluate_recovering`]), §11 the zero-copy event
//! pipeline, and §13 the trace records the engine emits when a
//! [`spex_trace::Tracer`] is attached ([`Machine::set_tracer`]).
//!
//! ## Quick start
//!
//! ```
//! use spex_core::evaluate_str;
//!
//! // The complete example of §III.10 of the paper: `_*.a[b].c` against the
//! // stream of Fig. 1 selects the second `c` (the `a` child of the root has
//! // a `b` child); the inner `c` is rejected because the inner `a` has none.
//! let results = evaluate_str("_*.a[b].c", "<a><a><c/></a><b/><c/></a>").unwrap();
//! assert_eq!(results, vec!["<c></c>".to_string()]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod cq;
pub mod engine;
pub mod limits;
pub mod message;
#[doc(hidden)]
pub mod multi;
pub mod network;
pub mod pump;
pub mod recover;
pub mod sink;
pub mod snapshot;
pub mod stats;
pub mod transducers;
pub mod vm;

pub use compile::{CompileError, CompiledNetwork};
pub use engine::{evaluate_events, evaluate_str, EvalError, Evaluator};
pub use limits::{LimitBreach, LimitKind, ResourceLimits};
pub use message::{DocEvent, Message, Symbol, SymbolTable};
pub use pump::{Finished, Pump, Yield};
pub use recover::{
    evaluate_recovering, evaluate_str_recovering, RecoveryOptions, RunReport, TruncationOutcome,
};
pub use sink::{
    CountingSink, FragmentCollector, FragmentFnSink, ResultMeta, ResultSink, SpanCollector,
    StreamingSink,
};
pub use snapshot::{FragmentState, SessionState, Snapshot, SnapshotError};
pub use spex_xml::ScannerKind;
pub use stats::{stats_json, EngineStats, FaultTotals, TransducerStats};
pub use vm::{Engine, Machine, Plan, PlanRun};
