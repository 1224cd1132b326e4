//! The four workloads, what one run of a workload measures, and the
//! end-to-end metrics derived from it. Names are permanent.

use crate::gen;
use crate::stats::{median, quantile};
use crate::sys::{ProcSample, Scratch};
use crate::{oneshot, serve};
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OneshotFlat,
    OneshotDeep,
    ServeStream,
    ServeFeed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::OneshotFlat,
        Workload::OneshotDeep,
        Workload::ServeStream,
        Workload::ServeFeed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OneshotFlat => "oneshot-flat",
            Workload::OneshotDeep => "oneshot-deep",
            Workload::ServeStream => "serve-stream",
            Workload::ServeFeed => "serve-feed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json`: why the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::OneshotFlat => {
                "spex CLI, class-1 query on a WordNet-shaped document: many small results, \
                 so the reader and per-fragment delivery (sink, writer, one write(2) each) dominate"
            }
            Workload::OneshotDeep => {
                "spex CLI, qualifier query on 30-deep chains with rare results: the VM, formulas \
                 and the candidate buffer dominate; predicts no change from reader or sink work"
            }
            Workload::ServeStream => {
                "spex serve, 2 closed-loop clients streaming the oneshot-flat document in 64 KiB \
                 frames: frame decode, horizon scan, worker hand-off and result framing in bulk"
            }
            Workload::ServeFeed => {
                "spex serve with 257 standing queries fed one ~220-byte document per frame: tiny \
                 frames, combined network, per-document reset; hand-off and wake-up latency"
            }
        }
    }

    pub fn is_oneshot(self) -> bool {
        matches!(self, Workload::OneshotFlat | Workload::OneshotDeep)
    }
}

/// Entries of the flat document: ≈ 2.4 MB, ≈ 140k events, ≈ 16.8k results —
/// the shape of the paper's 9.8 MB WordNet at a quarter of its size, so that
/// a 10-second run completes the ≥ 100 operations a p90 needs.
pub const FLAT_ENTRIES: usize = 12_000;
/// Chains of the deep document: ≈ 0.53 MB, ≈ 152k events, 156 results.
pub const DEEP_CHAINS: usize = 2_496;
/// Documents in the feed's cyclic pool (a multiple of [`FEED_BATCH`]).
pub const FEED_POOL: usize = 4_000;
/// Documents one closed-loop feed operation posts before it waits.
pub const FEED_BATCH: usize = 200;
/// Payload bytes of the `D` frames a bulk session streams.
pub const STREAM_FRAME: usize = 64 << 10;

/// Interval between two sends of every paced (open-loop) phase.
pub const PACE_PERIOD: Duration = Duration::from_millis(1);

impl Workload {
    /// Bytes per paced send (`serve-feed` sends one document per period
    /// instead): ≈ 20–30 % of what the program sustains at the seed commit,
    /// so that lag measures the pipeline, not a backlog.
    pub fn paced_chunk(self) -> usize {
        match self {
            Workload::OneshotFlat | Workload::ServeStream => 6 << 10,
            Workload::OneshotDeep => 3 << 10,
            Workload::ServeFeed => 0,
        }
    }
}

/// How long each part of a run lasts.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub bulk: Duration,
    pub paced: Duration,
    pub cold_starts: usize,
    /// Client connections of the `serve-stream` bulk phase: 2 end to end
    /// (this box has 2 cores), 1 in the traced pass, where nothing may
    /// contend with the session whose time is attributed.
    pub clients: usize,
}

impl Plan {
    /// Split `--seconds` of measuring: 60 % closed loop, 40 % open loop.
    pub fn from_seconds(seconds: f64) -> Plan {
        Plan {
            bulk: Duration::from_secs_f64(seconds * 0.6),
            paced: Duration::from_secs_f64(seconds * 0.4),
            cold_starts: 25,
            clients: 2,
        }
    }

    /// One tenth of everything, for smoke runs; not comparable.
    pub fn quick(self) -> Plan {
        Plan {
            bulk: self.bulk / 10,
            paced: self.paced / 10,
            cold_starts: 3,
            ..self
        }
    }
}

/// Where the benchmark finds the program and may write.
pub struct Env {
    pub spex: PathBuf,
    pub out_dir: PathBuf,
}

/// When the steps of one served session happened (client side); the traced
/// pass turns them into spans.
#[derive(Debug, Clone, Copy)]
pub struct SessionTimes {
    pub start: Instant,
    pub connected: Instant,
    pub registered: Instant,
    pub first_send: Instant,
    pub sent: Instant,
    pub first_result: Option<Instant>,
    pub end: Instant,
}

/// Everything one run of one workload measured, before it is reduced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed, over all phases.
    pub ops: u64,
    pub failed: u64,
    /// First few failure messages, for the report.
    pub failures: Vec<String>,
    /// Cold starts of the system under test, seconds each.
    pub setup_s: Vec<f64>,
    /// Bulk phase: time of each complete operation, its verified input
    /// bytes and its wall time.
    pub op_ms: Vec<f64>,
    pub bulk_bytes: u64,
    pub bulk_wall_s: f64,
    /// Paced phase: result lag per milestone, lateness of the generator per
    /// send, and input bytes supplied.
    pub lag_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub paced_bytes: u64,
    /// CPU of the system under test and the input it covers.
    pub cpu_ms: f64,
    pub cpu_bytes: u64,
    pub peak_rss_kb: u64,
    /// Time the benchmark spent generating inputs.
    pub gen_setup_s: f64,
    /// Served workloads: server counters over the phase CPU is charged to,
    /// the operations they cover, and client-side step times of each bulk
    /// session (`serve-stream`).
    pub server: Option<ProcSample>,
    pub server_ops: u64,
    pub sessions: Vec<SessionTimes>,
    /// The server's `t` frame (trace summary JSON) after the phases.
    pub server_trace: Option<String>,
}

impl Outcome {
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(message);
        }
    }
}

/// Run one workload once, tracing off.
pub fn run(workload: Workload, seed: u64, plan: Plan, env: &Env) -> std::io::Result<Outcome> {
    let scratch = Scratch::create(&env.out_dir)?;
    let generating = Instant::now();
    match workload {
        Workload::OneshotFlat | Workload::OneshotDeep | Workload::ServeStream => {
            let doc = stream_doc(workload, seed);
            let gen_setup_s = generating.elapsed().as_secs_f64();
            let mut outcome = if workload.is_oneshot() {
                oneshot::run(&env.spex, &doc, workload, plan, &scratch)?
            } else {
                serve::run_stream(&env.spex, &doc, workload, plan)?
            };
            outcome.gen_setup_s = gen_setup_s;
            Ok(outcome)
        }
        Workload::ServeFeed => {
            let feed = gen::feed(seed, FEED_POOL);
            let gen_setup_s = generating.elapsed().as_secs_f64();
            let mut outcome = serve::run_feed(&env.spex, &feed, plan, &scratch)?;
            outcome.gen_setup_s = gen_setup_s;
            Ok(outcome)
        }
    }
}

/// The document of a single-query workload.
pub fn stream_doc(workload: Workload, seed: u64) -> gen::StreamDoc {
    match workload {
        Workload::OneshotDeep => gen::deep(seed, DEEP_CHAINS),
        _ => gen::flat(seed, FLAT_ENTRIES),
    }
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, reported by every workload. README.md says how
/// the bounds came out of the A/A check, and why `op_p90_ms` and the two
/// `result_lag_*` metrics are diagnostics without a bound instead.
pub const END_TO_END: [MetricDef; 5] = [
    MetricDef {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    MetricDef {
        name: "throughput_mb_s",
        unit: "MB/s",
        better: "higher",
        bound: 0.25,
    },
    MetricDef {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    MetricDef {
        name: "cpu_ms_per_mb",
        unit: "ms/MB",
        better: "lower",
        bound: 0.25,
    },
    MetricDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
];

/// One reported value with the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Reported {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// Reduce an outcome to the end-to-end metrics, in [`END_TO_END`] order.
/// `Err(name)` where the run produced no sample (which fails the run).
pub fn end_to_end(outcome: &Outcome) -> Vec<Result<Reported, &'static str>> {
    let mb = |bytes: u64| bytes as f64 / 1e6;
    let ops = outcome.op_ms.len();
    let measured = [
        (median(&outcome.setup_s), outcome.setup_s.len()),
        (
            (outcome.bulk_wall_s > 0.0).then(|| mb(outcome.bulk_bytes) / outcome.bulk_wall_s),
            ops,
        ),
        (median(&outcome.op_ms), ops),
        (
            (outcome.cpu_bytes > 0).then(|| outcome.cpu_ms / mb(outcome.cpu_bytes)),
            ops,
        ),
        (
            (outcome.peak_rss_kb > 0).then(|| outcome.peak_rss_kb as f64 * 1024.0 / 1e6),
            1,
        ),
    ];
    END_TO_END
        .iter()
        .zip(measured)
        .map(|(def, (value, samples))| {
            value
                .map(|value| Reported {
                    name: def.name,
                    unit: def.unit,
                    value,
                    samples,
                })
                .ok_or(def.name)
        })
        .collect()
}

/// The demoted metrics: measured by every run, printed, never gated
/// (0 without samples).
pub fn diagnostics(outcome: &Outcome) -> [Reported; 4] {
    let of = |name, samples: &[f64], q| Reported {
        name,
        unit: "ms",
        value: quantile(samples, q).unwrap_or(0.0),
        samples: samples.len(),
    };
    [
        of("op_p90_ms", &outcome.op_ms, 0.9),
        of("result_lag_p50_ms", &outcome.lag_ms, 0.5),
        of("result_lag_p99_ms", &outcome.lag_ms, 0.99),
        of("gen.late_p99_ms", &outcome.late_ms, 0.99),
    ]
}
