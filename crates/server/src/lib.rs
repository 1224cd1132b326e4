//! spex-serve: a concurrent streaming query server over shared SPEX
//! transducer networks.
//!
//! The one-shot pipeline (parse → compile → stream → results) becomes a
//! long-running service: clients connect over TCP, register named rpeq
//! queries, stream XML documents in `DATA` frames, and receive result
//! fragments progressively — the paper's progressive evaluation, per
//! connection. Compiled query plans are cached server-wide (see
//! [`Registry`]): sessions registering structurally equal query sets share
//! one [`spex_core::multi::SharedQuerySet`], so the compilation cost of a
//! popular query set is paid once.
//!
//! The crate is std-only (the workspace vendors no async runtime): a
//! single reactor thread owns every socket through a raw readiness poller
//! (epoll on Linux), and sessions are nonblocking state machines advanced
//! by a fixed pool of worker threads — so 10k+ mostly-idle connections
//! cost file descriptors, not threads. The engine's `PlanRun` is
//! intentionally single-threaded (`Rc`-backed interning); concurrency comes
//! from one run per session, pinned to one worker, not from sharing a run.
//!
//! Layers:
//! - [`protocol`]: the length-prefixed frame grammar and codecs, including
//!   the incremental [`FrameDecoder`] the reactor path decodes with.
//! - [`registry`]: the compiled-plan cache.
//! - [`server`] / `reactor` / `session`: the event loop and per-tenant
//!   scheduler, and the per-session state machine over the zero-copy
//!   parser path (`poll` is the readiness backend, `conn` the shared
//!   per-connection buffers).
//! - [`stats`]: server-wide statistics in the one-shot `--stats-json`
//!   schema.
//! - [`client`]: a small blocking client for tests, benches and examples.
//!
//! The wire protocol is normatively specified in `crates/server/PROTOCOL.md`
//! (frame grammar, error codes, versioning, a worked byte-level session);
//! DESIGN.md §12 covers the architecture and DESIGN.md §13 the trace
//! records behind `--trace-jsonl` and the `T`/`t` frames.

#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
mod conn;
pub mod durable;
mod poll;
pub mod protocol;
mod reactor;
pub mod registry;
pub mod server;
mod session;
pub mod signal;
pub mod stats;

pub use client::{Client, SessionTranscript};
pub use durable::{FsyncPolicy, RecoveredSession, SessionLog};
pub use poll::soft_fd_limit;
pub use protocol::{
    error_payload, read_frame, result_payload, split_result, write_frame, Frame, FrameDecoder,
    FrameKind, ProtocolError, ReadError, DEFAULT_MAX_FRAME,
};
pub use registry::{Registry, DEFAULT_PLAN_CAP};
pub use server::{Server, ServerConfig, ServerHandle, ServerReport};
pub use stats::{FaultTotals, ServerStats};
