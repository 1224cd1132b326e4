//! The one-shot workloads: `spex QUERY FILE` (bulk, closed loop, one
//! process after another) and `spex QUERY < pipe` (paced, open loop), with
//! stdout piped to the benchmark and checked against the expected answer.

use crate::gen::{Answer, StreamDoc};
use crate::sys::{peak_rss_kb, sleep_until, wait_with_usage, watch, Exit, Scratch, SplitCpus};
use crate::workload::{Outcome, Plan, Workload, PACE_PERIOD};
use std::io::{self, Read, Write};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// An operation that has not finished after this long has failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// Results the stalled-stdin check must see, as a share of what the first
/// half of the document determines, and how long it waits for them.
const STALL_SHARE: f64 = 0.9;
const STALL_WAIT: Duration = Duration::from_millis(250);

/// How every operation of a run starts the program: which binary, and on
/// which CPU (see [`SplitCpus`]).
pub struct Launch<'a> {
    pub spex: &'a Path,
    pub cpus: &'a SplitCpus,
}

impl Launch<'_> {
    fn spawn(&self, query: &str, file: Option<&Path>) -> io::Result<Child> {
        self.spawn_to(query, file, Stdio::piped())
    }

    fn spawn_to(&self, query: &str, file: Option<&Path>, stdout: Stdio) -> io::Result<Child> {
        let mut command = Command::new(self.spex);
        command.arg(query);
        match file {
            Some(path) => command.arg(path).stdin(Stdio::null()),
            None => command.stdin(Stdio::piped()),
        };
        let child = command.stdout(stdout).stderr(Stdio::inherit()).spawn()?;
        self.cpus.place(&child);
        Ok(child)
    }
}

/// One bulk operation whose stdout goes to `/dev/null`: the same process,
/// file read, evaluation and `write(2)` per fragment, but nobody to wake.
/// The traced pass subtracts it from the piped operation next to it to get
/// what delivery through a pipe costs. Only the exit code is checked.
pub fn discarded_op(launch: &Launch, doc: &StreamDoc, file: &Path) -> io::Result<Duration> {
    let start = Instant::now();
    let child = launch.spawn_to(doc.query, Some(file), Stdio::null())?;
    let _deadline = watch(&child, OP_TIMEOUT);
    let exit = wait_with_usage(child)?;
    if exit.code != Some(0) {
        return Err(io::Error::other(format!(
            "spex exited with {:?}",
            exit.code
        )));
    }
    Ok(start.elapsed())
}

/// Which paced sends determine results, and how many results must have
/// arrived by then. A send that determines no new result is no milestone.
pub struct Milestones {
    /// Cumulative results determined once send `send[i]` is written.
    pub need: Vec<u64>,
    pub send: Vec<usize>,
}

impl Milestones {
    /// `ends[i]` is the input offset send `i` ends at.
    pub fn new(doc: &StreamDoc, ends: &[usize]) -> Milestones {
        let (mut need, mut send, mut last) = (Vec::new(), Vec::new(), 0);
        for (i, &end) in ends.iter().enumerate() {
            let results = doc.results_within(end);
            if results > last {
                need.push(results);
                send.push(i);
                last = results;
            }
        }
        Milestones { need, send }
    }
}

/// Arrival times of milestones, filled in by whoever counts results.
#[derive(Default)]
pub struct Arrivals {
    pub at: Vec<Instant>,
}

impl Arrivals {
    /// `seen` results have arrived by `now`.
    pub fn advance(&mut self, milestones: &Milestones, seen: u64, now: Instant) {
        while self.at.len() < milestones.need.len() && milestones.need[self.at.len()] <= seen {
            self.at.push(now);
        }
    }

    /// Lag of every milestone behind the time its send was due.
    pub fn lags_ms(&self, milestones: &Milestones, due: &[Instant]) -> Vec<f64> {
        self.at
            .iter()
            .zip(&milestones.send)
            .map(|(at, &send)| at.saturating_duration_since(due[send]).as_secs_f64() * 1e3)
            .collect()
    }
}

/// Drain a child's stdout: fold it into an [`Answer`] (a result is a line),
/// publish the running result count, and time the milestones.
pub fn drain(
    stdout: &mut impl Read,
    milestones: Option<&Milestones>,
    seen: &AtomicU64,
) -> io::Result<(Answer, Arrivals)> {
    let (mut answer, mut arrivals) = (Answer::EMPTY, Arrivals::default());
    let mut buf = vec![0u8; 64 << 10];
    loop {
        let n = stdout.read(&mut buf)?;
        if n == 0 {
            return Ok((answer, arrivals));
        }
        let lines = buf[..n].iter().filter(|&&b| b == b'\n').count() as u64;
        answer.absorb(&buf[..n], lines);
        seen.store(answer.results, Ordering::Release);
        if let Some(milestones) = milestones {
            arrivals.advance(milestones, answer.results, Instant::now());
        }
    }
}

fn check(exit: &Exit, answer: &Answer, expected: &Answer) -> Result<(), String> {
    if exit.code != Some(0) {
        return Err(format!("spex exited with {:?}", exit.code));
    }
    if answer != expected {
        return Err(format!(
            "output {answer:?} differs from expected {expected:?}"
        ));
    }
    Ok(())
}

/// One bulk operation: spawn → stdout drained → exit.
pub fn file_op(
    launch: &Launch,
    doc: &StreamDoc,
    file: &Path,
) -> io::Result<(Duration, Exit, Result<(), String>)> {
    let start = Instant::now();
    let mut child = launch.spawn(doc.query, Some(file))?;
    let _deadline = watch(&child, OP_TIMEOUT);
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let drained = drain(&mut stdout, None, &AtomicU64::new(0));
    let exit = wait_with_usage(child)?;
    let checked = match drained {
        Ok((answer, _)) => check(&exit, &answer, &doc.answer),
        Err(e) => Err(format!("reading stdout: {e}")),
    };
    Ok((start.elapsed(), exit, checked))
}

/// One operation fed through stdin by `feed`, its stdout drained on a
/// second thread (a pipe holds 64 KiB; not reading would stall the program).
/// Returns what `feed` returned, unless the operation failed.
fn piped_op<T>(
    launch: &Launch,
    doc: &StreamDoc,
    milestones: Option<&Milestones>,
    feed: impl FnOnce(&mut dyn Write, &AtomicU64, u32) -> io::Result<T>,
) -> io::Result<Result<(T, Arrivals), String>> {
    let mut child = launch.spawn(doc.query, None)?;
    let _deadline = watch(&child, OP_TIMEOUT);
    let mut stdin = child.stdin.take().expect("stdin is piped");
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let seen = AtomicU64::new(0);
    let (fed, drained) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| drain(&mut stdout, milestones, &seen));
        let fed = feed(&mut stdin, &seen, child.id());
        drop(stdin);
        (fed, reader.join().expect("stdout reader panicked"))
    });
    let exit = wait_with_usage(child)?;
    Ok((|| {
        let fed = fed.map_err(|e| format!("writing stdin: {e}"))?;
        let (answer, arrivals) = drained.map_err(|e| format!("reading stdout: {e}"))?;
        check(&exit, &answer, &doc.answer)?;
        Ok((fed, arrivals))
    })())
}

/// The progressive-delivery check: feed the first half of the document,
/// then stall. Most of what that half determines must arrive while the
/// program is still waiting for input — a change that buffers everything
/// until end of input fails here instead of winning the bulk phase.
fn stalled_op(launch: &Launch, doc: &StreamDoc) -> io::Result<Result<(), String>> {
    let half = doc.xml.len() / 2;
    let need = (doc.results_within(half) as f64 * STALL_SHARE).ceil() as u64;
    let fed = piped_op(launch, doc, None, |stdin, seen, _| {
        stdin.write_all(&doc.xml[..half])?;
        let deadline = Instant::now() + STALL_WAIT;
        while seen.load(Ordering::Acquire) < need && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let seen_in_stall = seen.load(Ordering::Acquire);
        stdin.write_all(&doc.xml[half..])?;
        Ok(seen_in_stall)
    })?;
    Ok(fed.and_then(|(seen_in_stall, _)| {
        if seen_in_stall >= need {
            Ok(())
        } else {
            Err(format!(
                "progressive delivery: {seen_in_stall} of the {need} results due arrived \
                 within {STALL_WAIT:?} of a stalled stdin"
            ))
        }
    }))
}

pub fn run(
    spex: &Path,
    doc: &StreamDoc,
    workload: Workload,
    plan: Plan,
    scratch: &Scratch,
) -> io::Result<Outcome> {
    let paced_chunk = workload.paced_chunk();
    let mut outcome = Outcome::default();
    let cpus = SplitCpus::new();
    let launch = &Launch { spex, cpus: &cpus };
    let file = scratch.write("input.xml", &doc.xml)?;
    let empty = scratch.write("empty.xml", b"<r/>")?;
    let empty_doc = StreamDoc {
        query: doc.query,
        xml: Vec::new(),
        answer: Answer::EMPTY,
        determined_at: Vec::new(),
    };

    // Set-up: process start, query parse, compile and plan lowering. A
    // third of the cold starts at each of three points of the run, so that a
    // slow stretch of the machine does not colour all of them.
    let cold_starts = |outcome: &mut Outcome| -> io::Result<()> {
        for _ in 0..plan.cold_starts.div_ceil(3) {
            let (took, _, checked) = file_op(launch, &empty_doc, &empty)?;
            outcome.ops += 1;
            outcome.setup_s.push(took.as_secs_f64());
            if let Err(e) = checked {
                outcome.fail(format!("cold start: {e}"));
            }
        }
        Ok(())
    };
    cold_starts(&mut outcome)?;

    // Bulk, closed loop: one complete evaluation after another.
    let _warm_up = file_op(launch, doc, &file)?;
    let bulk_start = Instant::now();
    while bulk_start.elapsed() < plan.bulk {
        let (took, exit, checked) = file_op(launch, doc, &file)?;
        outcome.ops += 1;
        match checked {
            Ok(()) if took <= OP_TIMEOUT => {
                outcome.op_ms.push(took.as_secs_f64() * 1e3);
                outcome.bulk_bytes += doc.xml.len() as u64;
                outcome.cpu_ms += exit.cpu.as_secs_f64() * 1e3;
                outcome.cpu_bytes += doc.xml.len() as u64;
            }
            Ok(()) => outcome.fail(format!("bulk: took {took:?}")),
            Err(e) => outcome.fail(format!("bulk: {e}")),
        }
    }
    outcome.bulk_wall_s = bulk_start.elapsed().as_secs_f64();

    outcome.ops += 1;
    if let Err(e) = stalled_op(launch, doc)? {
        outcome.fail(e);
    }
    cold_starts(&mut outcome)?;

    // Paced, open loop: the document arrives on stdin one chunk per period,
    // on a fixed schedule; lag runs from the time a chunk was due.
    let ends: Vec<usize> = (1..=doc.xml.len().div_ceil(paced_chunk))
        .map(|i| (i * paced_chunk).min(doc.xml.len()))
        .collect();
    let milestones = Milestones::new(doc, &ends);
    let paced_start = Instant::now();
    while paced_start.elapsed() < plan.paced {
        let fed = piped_op(launch, doc, Some(&milestones), |stdin, _, pid| {
            let start = Instant::now();
            let mut due = Vec::with_capacity(ends.len());
            for (i, chunk) in doc.xml.chunks(paced_chunk).enumerate() {
                due.push(start + PACE_PERIOD * i as u32);
                let late = sleep_until(due[i]);
                outcome.late_ms.push(late.as_secs_f64() * 1e3);
                if i + 1 == ends.len() {
                    // All but the last chunk is evaluated and the program
                    // is certainly still there: the time to read its peak.
                    outcome.peak_rss_kb = outcome.peak_rss_kb.max(peak_rss_kb(pid));
                }
                stdin.write_all(chunk)?;
            }
            Ok(due)
        })?;
        outcome.ops += 1;
        match fed {
            Ok((due, arrivals)) if arrivals.at.len() == milestones.need.len() => {
                outcome.lag_ms.extend(arrivals.lags_ms(&milestones, &due));
                outcome.paced_bytes += doc.xml.len() as u64;
            }
            Ok(_) => outcome.fail("paced: results missing at milestones".to_string()),
            Err(e) => outcome.fail(format!("paced: {e}")),
        }
    }
    cold_starts(&mut outcome)?;
    Ok(outcome)
}
