//! The concurrent server: an epoll-style reactor thread (the caller of
//! [`Server::run`]) that owns every socket, plus a fixed pool of worker
//! threads that advance session state machines (`reactor`,
//! `session`).
//!
//! Concurrency is no longer bounded by the worker count: an idle
//! connection costs one file descriptor and a few hundred bytes of state,
//! so tens of thousands of mostly-idle sessions coexist with a handful of
//! hot ones. Admission control is the `max_conns` cap (clamped under the
//! process's fd limit): past it a new connection is answered with a single
//! `BUSY` frame and closed — the server sheds load instead of buffering it
//! (the same philosophy as the engine's `ResourceLimits`: refuse, don't
//! grow). A slow *reader* no longer pins a worker either: output buffered
//! past a high watermark suspends the session until the peer catches up,
//! so `BUSY` on the wire means admission overload, while backpressure is
//! invisible flow control.
//!
//! Shutdown is cooperative. `SIGINT`/`SIGTERM` (when watched), the in-band
//! `SHUTDOWN` frame, or [`ServerHandle::shutdown`] all set one flag; the
//! reactor stops accepting, idle connections get a short grace then close,
//! every live session runs to completion (no session is cut off
//! mid-stream), and [`Server::run`] returns a final [`ServerReport`].

use crate::conn::Notifier;
use crate::poll::Poller;
use crate::reactor::{worker_loop, Reactor, WorkerQueue};
use crate::registry::Registry;
use crate::signal;
use crate::stats::ServerStats;
use spex_core::{EngineStats, ResourceLimits, TruncationOutcome};
use spex_trace::{summary_json, AtomicHistogram, JsonlSink, Tracer};
use spex_xml::RecoveryPolicy;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Server tuning knobs. The defaults suit tests and local use; the CLI
/// maps `spex serve` flags onto these fields.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Worker threads advancing session machines (CPU-bound concurrency;
    /// connection concurrency is `max_conns`).
    pub workers: usize,
    /// Maximum concurrent connections; past it new connections are shed
    /// with `BUSY`. Clamped at runtime under the process's soft fd limit.
    pub max_conns: usize,
    /// Per-frame payload cap in bytes.
    pub max_frame: usize,
    /// Per-session engine resource caps.
    pub limits: ResourceLimits,
    /// Parser-side recovery policy for every session.
    pub recovery: RecoveryPolicy,
    /// Truncation handling for recovery sessions.
    pub on_truncation: TruncationOutcome,
    /// How long a session waiting for input tolerates no bytes at all
    /// before it fails (a stalled client fails its own session instead of
    /// holding server state forever). `None` disables.
    pub read_timeout: Option<Duration>,
    /// Writability deadline: how long a peer may accept *no bytes* of
    /// pending output before the connection is closed. Under partial
    /// writes the clock resets on every accepted byte, so a slow-but-live
    /// reader is never cut off. `None` disables.
    pub write_timeout: Option<Duration>,
    /// Idle-connection reaping: a connection that completes no frame for
    /// this long is closed. The clock is *completed frames*, so a
    /// slowloris peer trickling single bytes through a partial frame is
    /// reaped all the same. `None` (the default) disables.
    pub idle_timeout: Option<Duration>,
    /// Maximum number of compiled plans the registry caches; past the cap
    /// the least-recently-used plan is evicted, so clients registering
    /// ever-varying queries cannot grow server memory without bound.
    /// `0` disables caching entirely (every registration compiles fresh).
    pub max_cached_plans: usize,
    /// Honor the in-band `SHUTDOWN` frame from non-loopback peers. Off by
    /// default: a loopback client can always stop its own server, but a
    /// remote client stopping a shared one is a denial of service.
    pub allow_remote_shutdown: bool,
    /// Poll SIGINT/SIGTERM in the reactor loop (the CLI turns this on;
    /// tests drive shutdown through [`ServerHandle`] instead).
    pub watch_signals: bool,
    /// Write a JSONL trace (one record per line, DESIGN.md §13 schema) to
    /// this path: per-session spans and engine records as sessions finish,
    /// server-wide aggregates at shutdown. `None` disables tracing (the
    /// in-memory histograms behind the `T` frame are still maintained —
    /// they cost one atomic increment per *session*, not per event).
    pub trace_jsonl: Option<String>,
    /// Root directory for durable session state (write-ahead input logs +
    /// document-boundary snapshots, see [`crate::durable`] and DESIGN.md
    /// §15). `None` (the default) disables durability: sessions are
    /// in-memory only and the `M` resume frame is refused.
    pub durable_dir: Option<String>,
    /// When the write-ahead log syncs to disk (only meaningful with
    /// `durable_dir`).
    pub fsync: crate::durable::FsyncPolicy,
    /// Standing queries preloaded at startup (the CLI's `--queries FILE`).
    /// They are combined and cached in the plan registry before the first
    /// connection, and a session that sends `DATA`/`END` without
    /// registering any query of its own is served this set instead of
    /// being refused. Empty (the default) disables the fallback.
    pub preload_queries: Vec<(String, spex_query::Rpeq)>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            max_conns: 16384,
            max_frame: crate::protocol::DEFAULT_MAX_FRAME,
            limits: ResourceLimits::default(),
            recovery: RecoveryPolicy::Strict,
            on_truncation: TruncationOutcome::default(),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            idle_timeout: None,
            max_cached_plans: 64,
            allow_remote_shutdown: false,
            watch_signals: false,
            trace_jsonl: None,
            durable_dir: None,
            fsync: crate::durable::FsyncPolicy::default(),
            preload_queries: Vec::new(),
        }
    }
}

/// The server's observability state: the (possibly disabled) [`Tracer`]
/// every session shares, plus the cross-thread histograms and scheduler
/// counters behind the `T` protocol frame. The per-session histograms are
/// recorded once per session, the scheduler gauges once per scheduling
/// decision (an atomic increment), so they stay cheap enough to keep
/// unconditionally.
pub(crate) struct ServeTrace {
    /// Shared trace handle; disabled unless `ServerConfig::trace_jsonl`.
    pub(crate) tracer: Tracer,
    /// Microseconds each session waited in a ready queue before its
    /// machine's first advance.
    pub(crate) admission_wait_us: AtomicHistogram,
    /// Microseconds from accept to session close.
    pub(crate) session_us: AtomicHistogram,
    /// Determination latency (events between a candidate entering the
    /// Output buffer and its condition deciding — the paper's earliness
    /// measure), merged across every session.
    pub(crate) det_latency: AtomicHistogram,
    /// Microseconds from accept to the first complete inbound frame.
    pub(crate) accept_to_first_frame_us: AtomicHistogram,
    /// Ready-queue depth observed at each enqueue.
    pub(crate) ready_depth: AtomicHistogram,
    /// Scheduling slices handed out across all workers.
    pub(crate) slices: AtomicU64,
    /// Slices where the per-tenant round-robin switched to a different
    /// peer than the previous slice served.
    pub(crate) rotations: AtomicU64,
}

impl ServeTrace {
    fn new(tracer: Tracer) -> Self {
        ServeTrace {
            tracer,
            admission_wait_us: AtomicHistogram::new(),
            session_us: AtomicHistogram::new(),
            det_latency: AtomicHistogram::new(),
            accept_to_first_frame_us: AtomicHistogram::new(),
            ready_depth: AtomicHistogram::new(),
            slices: AtomicU64::new(0),
            rotations: AtomicU64::new(0),
        }
    }

    /// The `t` frame payload: one JSON object of histogram summaries and
    /// scheduler counters. New keys append after the original three, so
    /// clients reading the old shape keep working.
    pub(crate) fn to_json(&self) -> String {
        format!(
            "{{\"admission_wait_us\":{},\"session_us\":{},\"determination_latency\":{},\
             \"accept_to_first_frame_us\":{},\"ready_depth\":{},\
             \"scheduler\":{{\"slices\":{},\"rotations\":{}}}}}",
            summary_json(&self.admission_wait_us.summary()),
            summary_json(&self.session_us.summary()),
            summary_json(&self.det_latency.summary()),
            summary_json(&self.accept_to_first_frame_us.summary()),
            summary_json(&self.ready_depth.summary()),
            self.slices.load(Ordering::Relaxed),
            self.rotations.load(Ordering::Relaxed),
        )
    }

    /// Emit the server-wide aggregates to the tracer (called once, at
    /// shutdown, after the workers have drained).
    fn emit_final(&self, stats: &ServerStats) {
        if !self.tracer.enabled() {
            return;
        }
        let t = &self.tracer;
        for (name, counter) in [
            ("serve.sessions_started", &stats.sessions_started),
            ("serve.sessions_completed", &stats.sessions_completed),
            ("serve.sessions_rejected", &stats.sessions_rejected),
            ("serve.sessions_failed", &stats.sessions_failed),
            ("serve.documents", &stats.documents),
            ("serve.plan_cache_hits", &stats.plan_cache_hits),
            ("serve.plan_cache_misses", &stats.plan_cache_misses),
        ] {
            t.counter(name, counter.load(Ordering::Relaxed));
        }
        t.counter(
            "serve.scheduler_slices",
            self.slices.load(Ordering::Relaxed),
        );
        t.counter(
            "serve.scheduler_rotations",
            self.rotations.load(Ordering::Relaxed),
        );
        t.hist(
            "serve.admission_wait_us",
            &self.admission_wait_us.snapshot(),
            &[],
        );
        t.hist("serve.session_us", &self.session_us.snapshot(), &[]);
        t.hist(
            "serve.determination_latency",
            &self.det_latency.snapshot(),
            &[],
        );
        t.hist(
            "serve.accept_to_first_frame_us",
            &self.accept_to_first_frame_us.snapshot(),
            &[],
        );
        t.hist("serve.ready_depth", &self.ready_depth.snapshot(), &[]);
        t.flush();
    }
}

/// State shared by the reactor, the workers and every session.
pub(crate) struct Shared {
    pub(crate) cfg: ServerConfig,
    pub(crate) shutdown: AtomicBool,
    pub(crate) registry: Registry,
    pub(crate) stats: ServerStats,
    pub(crate) trace: ServeTrace,
    /// Monotonic sequence for minting durable session tokens.
    pub(crate) seq: AtomicU64,
    /// Worker → reactor command channel (and the reactor's waker).
    pub(crate) notifier: Arc<Notifier>,
    /// Per-worker ready queues; a connection is pinned to
    /// `workers[conn.worker]` for life.
    pub(crate) workers: Vec<Arc<WorkerQueue>>,
}

impl Shared {
    /// Flip the shutdown flag and wake the reactor.
    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.notifier.wake();
    }
}

/// A cloneable remote control for a running server (shutdown + stats),
/// usable from any thread.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Request a graceful shutdown: stop accepting, drain, return.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Snapshot the server-wide statistics as one-shot-schema JSON.
    pub fn stats_json(&self) -> String {
        self.shared.stats.to_json()
    }
}

/// The final accounting [`Server::run`] returns after a graceful shutdown.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Server statistics in the one-shot `--stats-json` schema (with the
    /// `server` extension object).
    pub stats_json: String,
    /// Sessions accepted (admitted under the `max_conns` cap).
    pub sessions_started: u64,
    /// Sessions that ran to a clean `END`.
    pub sessions_completed: u64,
    /// Connections rejected with `BUSY`.
    pub sessions_rejected: u64,
    /// Sessions closed early by an error.
    pub sessions_failed: u64,
    /// Documents evaluated across all sessions.
    pub documents: u64,
    /// Aggregated engine statistics across all sessions.
    pub engine: EngineStats,
}

/// A bound-but-not-yet-running server. [`Server::bind`] then
/// [`Server::run`]; the run consumes the calling thread as the reactor.
pub struct Server {
    listener: TcpListener,
    poller: Poller,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the listen socket and the readiness poller. Nothing is served
    /// until [`Server::run`].
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        // Everything is nonblocking under the reactor, the listener
        // included.
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let poller = Poller::new()?;
        let notifier = Arc::new(Notifier::new(poller.waker()));
        let mut cfg = cfg;
        let registry = Registry::with_cap(cfg.max_cached_plans);
        if !cfg.preload_queries.is_empty() {
            // Canonicalize once so sessions adopting the standing set get
            // the exact cached plan, then compile it up front — a bad
            // standing query fails startup, not the first client.
            cfg.preload_queries = spex_combine::canonicalize_registrations(&cfg.preload_queries);
            registry.get_or_compile(&cfg.preload_queries).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("preloaded query set does not compile: {e}"),
                )
            })?;
        }
        let tracer = match &cfg.trace_jsonl {
            Some(path) => Tracer::to_sink(Arc::new(JsonlSink::create(std::path::Path::new(path))?)),
            None => Tracer::disabled(),
        };
        let workers = (0..cfg.workers.max(1))
            .map(|_| Arc::new(WorkerQueue::new()))
            .collect();
        Ok(Server {
            listener,
            poller,
            addr,
            shared: Arc::new(Shared {
                cfg,
                shutdown: AtomicBool::new(false),
                registry,
                stats: ServerStats::new(),
                trace: ServeTrace::new(tracer),
                seq: AtomicU64::new(0),
                notifier,
                workers,
            }),
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A remote control valid for this server's lifetime.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serve until shutdown is requested, then drain and report. The
    /// calling thread becomes the reactor.
    pub fn run(self) -> std::io::Result<ServerReport> {
        if self.shared.cfg.watch_signals {
            signal::install();
        }
        let workers: Vec<_> = (0..self.shared.workers.len())
            .map(|i| {
                let shared = Arc::clone(&self.shared);
                std::thread::Builder::new()
                    .name(format!("spex-serve-worker-{i}"))
                    .spawn(move || worker_loop(i, &shared))
                    .expect("spawning a worker thread failed")
            })
            .collect();

        let reactor = Reactor::new(Arc::clone(&self.shared), self.poller, self.listener)?;
        // The reactor returns once shutdown was requested and every
        // connection has drained — at that point every machine has either
        // finished or sits in a worker queue one advance from finishing,
        // so closing the queues lets the workers drain and exit.
        reactor.run();
        for queue in &self.shared.workers {
            queue.close();
        }
        for worker in workers {
            let _ = worker.join();
        }

        let stats = &self.shared.stats;
        self.shared.trace.emit_final(stats);
        Ok(ServerReport {
            stats_json: stats.to_json(),
            sessions_started: stats.sessions_started.load(Ordering::Relaxed),
            sessions_completed: stats.sessions_completed.load(Ordering::Relaxed),
            sessions_rejected: stats.sessions_rejected.load(Ordering::Relaxed),
            sessions_failed: stats.sessions_failed.load(Ordering::Relaxed),
            documents: stats.documents.load(Ordering::Relaxed),
            engine: stats.engine_totals(),
        })
    }
}
