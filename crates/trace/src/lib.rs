//! # spex-trace — end-to-end observability for the SPEX pipeline
//!
//! SPEX's value proposition is *progressive* evaluation: results are emitted
//! as early as possible and only undetermined stream fragments are buffered.
//! End-of-run aggregates (`EngineStats` and friends) cannot show *when* a
//! match was determined or *where* buffered bytes pile up inside the
//! transducer DAG — that is this crate's job. It is the measurement
//! substrate behind the CLI's `--trace-jsonl`/`--trace-summary` flags and
//! the server's `T` stats frame.
//!
//! Design constraints (see DESIGN.md §13 for the full rationale and the
//! normative JSONL schema):
//!
//! * **zero dependencies, std only** — the workspace vendors nothing for
//!   observability; every byte of JSON is hand-rolled here,
//! * **pay only when enabled** — a disabled [`Tracer`] is a `None` check;
//!   the engine's per-event hot path is never instrumented directly (the
//!   paper-relevant measures are accumulated in plain fields and exported
//!   once at stream end),
//! * **quantiles without allocation** — [`Histogram`] uses fixed
//!   power-of-two buckets, so p50/p90/p99 are upper-bound estimates read
//!   from 65 counters, and two histograms merge by addition (sessions fold
//!   into server totals, documents fold into session totals).
//!
//! ## Layout
//!
//! * [`metric`] — [`Histogram`], [`AtomicHistogram`]: the accumulating
//!   primitives,
//! * [`record`] — [`TraceRecord`], the unit of export, plus its JSONL
//!   serialization ([`escape_json`]),
//! * [`sink`] — the pluggable [`TraceSink`] trait and the three shipped
//!   sinks: [`JsonlSink`], [`MemorySink`], [`TeeSink`],
//! * [`tracer`] — [`Tracer`], the cheap cloneable handle the rest of the
//!   workspace threads around, and [`Span`], its RAII monotonic-clock timer.
//!
//! ## Example
//!
//! ```
//! use spex_trace::{Histogram, MemorySink, TraceRecord, Tracer};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(MemorySink::new());
//! let tracer = Tracer::to_sink(sink.clone());
//!
//! // A span measures a region; counters and histograms export aggregates.
//! {
//!     let _span = tracer.span("work").attr_u64("items", 3);
//! }
//! let mut latency = Histogram::new();
//! latency.record(2);
//! latency.record(40);
//! tracer.hist("determination_latency", &latency, &[]);
//!
//! let records = sink.records();
//! assert!(matches!(records[0], TraceRecord::Span { .. }));
//! assert!(matches!(records[1], TraceRecord::Hist { .. }));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod metric;
pub mod record;
pub mod sink;
pub mod tracer;

pub use metric::{AtomicHistogram, Histogram, HistogramSummary};
pub use record::{escape_json, summary_json, TraceRecord, Value};
pub use sink::{JsonlSink, MemorySink, TeeSink, TraceSink};
pub use tracer::{Span, Tracer};
