//! What the benchmark needs from the operating system (Linux): a child's
//! resource usage at exit, a running server's counters from `/proc`, and a
//! `spex serve` process to talk to.

use std::fs;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, Once};
use std::time::{Duration, Instant};

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, 14 `long`s.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RawRusage) -> i32;
    fn sysconf(name: i32) -> i64;
    fn kill(pid: i32, signal: i32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

fn set_affinity(pid: u32, mask: &CpuSet) {
    // SAFETY: `mask` is a live `cpu_set_t`-sized value that the call only
    // reads. Failure (the CPU went away, the process ended) is harmless:
    // the scheduler then places the task as it would have anyway.
    let _ = unsafe { sched_setaffinity(pid as i32, std::mem::size_of::<CpuSet>(), mask) };
}

/// Keeps the program under test and the thread that consumes its output on
/// two different CPUs while it lives; restores the thread's mask on drop.
///
/// A pipe between two processes has two speeds: when the scheduler happens
/// to put writer and reader on one CPU a small write wakes nobody, on two
/// CPUs it costs a cross-CPU wake-up per fragment, and on this 2-CPU box
/// that alone halves or doubles `oneshot-flat`. Which one a run gets is the
/// scheduler's choice, run by run; fixing it makes runs comparable, and the
/// split placement is the one that charges the program for every wake-up it
/// causes. With a single CPU allowed nothing is pinned.
pub struct SplitCpus {
    original: CpuSet,
    program: Option<CpuSet>,
}

impl SplitCpus {
    /// Pin the calling thread (and the threads it spawns from here on) to
    /// the first allowed CPU, and reserve the last one for the program.
    pub fn new() -> SplitCpus {
        let mut original: CpuSet = [0; 16];
        // SAFETY: `original` is a live, writable `cpu_set_t`-sized value.
        let got = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut original) };
        let cpus: Vec<usize> = (0..1024)
            .filter(|&c| original[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        let single = |cpu: usize| {
            let mut set: CpuSet = [0; 16];
            set[cpu / 64] = 1 << (cpu % 64);
            set
        };
        match (got, cpus.first(), cpus.last()) {
            (0, Some(&first), Some(&last)) if first != last => {
                set_affinity(0, &single(first));
                SplitCpus {
                    original,
                    program: Some(single(last)),
                }
            }
            _ => SplitCpus {
                original,
                program: None,
            },
        }
    }

    /// Move a freshly spawned program to its CPU.
    pub fn place(&self, child: &Child) {
        if let Some(program) = &self.program {
            set_affinity(child.id(), program);
        }
    }

    /// Move every thread of a running process to the program's CPU.
    pub fn place_threads(&self, pid: u32) {
        let (Some(program), Ok(tasks)) = (&self.program, fs::read_dir(format!("/proc/{pid}/task")))
        else {
            return;
        };
        for task in tasks.flatten() {
            if let Some(tid) = task.file_name().to_str().and_then(|t| t.parse().ok()) {
                set_affinity(tid, program);
            }
        }
    }
}

impl Default for SplitCpus {
    fn default() -> Self {
        SplitCpus::new()
    }
}

impl Drop for SplitCpus {
    fn drop(&mut self) {
        if self.program.is_some() {
            set_affinity(0, &self.original);
        }
    }
}

/// Children under a deadline: `(pid, when to kill it)`.
static WATCHED: Mutex<Vec<(u32, Instant)>> = Mutex::new(Vec::new());
static WATCHDOG: Once = Once::new();

/// A deadline on a child process; dropping it lifts the deadline.
pub struct Watch(u32);

/// Kill `child` if it still runs after `timeout`, so that a hung program
/// ends as a failed operation (its pipes close, its `wait` returns) and not
/// as a hung benchmark. One detached thread serves every deadline; it holds
/// nothing that must be released and ends with the process.
pub fn watch(child: &Child, timeout: Duration) -> Watch {
    WATCHDOG.call_once(|| {
        std::thread::spawn(|| loop {
            std::thread::sleep(Duration::from_millis(250));
            let now = Instant::now();
            let watched = WATCHED.lock().expect("watchdog list poisoned");
            for &(pid, _) in watched.iter().filter(|(_, deadline)| *deadline <= now) {
                const SIGKILL: i32 = 9;
                // SAFETY: kill(2) takes plain integers and touches no memory
                // of ours. A listed pid is a child of ours whose `Watch`
                // is dropped right after it was waited for.
                let _ = unsafe { kill(pid as i32, SIGKILL) };
            }
        });
    });
    let pid = child.id();
    let mut watched = WATCHED.lock().expect("watchdog list poisoned");
    watched.push((pid, Instant::now() + timeout));
    Watch(pid)
}

impl Drop for Watch {
    fn drop(&mut self) {
        if let Ok(mut watched) = WATCHED.lock() {
            watched.retain(|&(pid, _)| pid != self.0);
        }
    }
}

/// How a waited child ended and what it used.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code; `None` when a signal ended the process.
    pub code: Option<i32>,
    pub cpu: Duration,
}

/// Reap `child` with `wait4(2)` — std's `wait` drops the `rusage` that
/// carries the CPU time of exactly this child.
pub fn wait_with_usage(child: Child) -> io::Result<Exit> {
    let pid = child.id() as i32;
    let (mut status, mut usage) = (0i32, RawRusage::default());
    // SAFETY: `status` and `usage` are live, writable and of the layout
    // wait4(2) fills on 64-bit Linux (144-byte rusage); `pid` is our own
    // unreaped child, which `child` (consumed here) can no longer wait on.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    if reaped != pid {
        return Err(io::Error::last_os_error());
    }
    let micros = |tv: [i64; 2]| tv[0].max(0) as u64 * 1_000_000 + tv[1].max(0) as u64;
    Ok(Exit {
        code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
        cpu: Duration::from_micros(micros(usage.utime) + micros(usage.stime)),
    })
}

fn clock_ticks_per_second() -> f64 {
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf(3) takes a plain integer and touches no memory of ours.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// `VmHWM` of a running process, KiB: the peak resident set of the address
/// space it has *now*. (A waited child's `ru_maxrss` is no substitute: exec
/// folds the resident set of the forking parent into it, so it reads the
/// benchmark's own footprint whenever that is the larger one.) 0 once the
/// process has exited.
pub fn peak_rss_kb(pid: u32) -> u64 {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .map(|status| status_field(&status, "VmHWM:"))
        .unwrap_or(0)
}

/// The number after `key` at the start of a line of a `/proc` status file.
fn status_field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Cumulative counters of one running process, all threads included.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    pub cpu_ms: f64,
    pub voluntary_switches: u64,
    pub peak_rss_kb: u64,
}

impl ProcSample {
    /// Read `/proc/<pid>/{stat,status}` and every thread's switch count.
    /// (`/proc/<pid>/io` would add syscall counts, but `syscr`/`syscw` count
    /// `read`/`write` only, and the server's socket I/O is `recv`/`send`.)
    pub fn take(pid: u32) -> io::Result<ProcSample> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let proc_dir = PathBuf::from(format!("/proc/{pid}"));
        let stat = fs::read_to_string(proc_dir.join("stat"))?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the line, i.e. 11 and 12 after the name.
        let after_name = stat.rsplit_once(") ").ok_or_else(|| bad("stat"))?.1;
        let ticks: u64 = after_name
            .split(' ')
            .skip(11)
            .take(2)
            .filter_map(|f| f.parse::<u64>().ok())
            .sum();
        let status = fs::read_to_string(proc_dir.join("status"))?;
        let mut voluntary_switches = 0;
        for task in fs::read_dir(proc_dir.join("task"))? {
            // A thread may exit between the listing and the read.
            if let Ok(text) = fs::read_to_string(task?.path().join("status")) {
                voluntary_switches += status_field(&text, "voluntary_ctxt_switches:");
            }
        }
        Ok(ProcSample {
            cpu_ms: ticks as f64 * 1000.0 / clock_ticks_per_second(),
            voluntary_switches,
            peak_rss_kb: status_field(&status, "VmHWM:"),
        })
    }

    /// Counters accumulated since `earlier` (the peak is not a difference).
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            cpu_ms: self.cpu_ms - earlier.cpu_ms,
            voluntary_switches: self
                .voluntary_switches
                .saturating_sub(earlier.voluntary_switches),
            peak_rss_kb: self.peak_rss_kb,
        }
    }
}

/// A `spex serve` child process on a free loopback port.
pub struct Server {
    child: Child,
    pub addr: String,
    /// Kept open so the server's later stderr lines have somewhere to go.
    _stderr: BufReader<ChildStderr>,
}

impl Server {
    /// Spawn `spex serve --addr 127.0.0.1:0 --workers 2 <extra>` and wait
    /// for its `listening on` line, which carries the chosen port. With
    /// `cpus`, the server starts on the program's CPU.
    pub fn spawn(spex: &Path, extra: &[&str], cpus: Option<&SplitCpus>) -> io::Result<Server> {
        let mut child = Command::new(spex)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        if let Some(cpus) = cpus {
            cpus.place(&child);
        }
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stderr.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("spex serve exited before listening"));
            }
            if let Some((_, addr)) = line.split_once("listening on ") {
                break addr.trim().to_string();
            }
        };
        Ok(Server {
            child,
            addr,
            _stderr: stderr,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn sample(&self) -> io::Result<ProcSample> {
        ProcSample::take(self.pid())
    }
}

impl Drop for Server {
    /// Stop the server and wait until it has ended. Every number the
    /// benchmark wants from it was read from `/proc` while it ran.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A directory under `benchmark/out/` for this run's files (inputs fed to
/// the program by path, the trace's JSONL), removed again on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create(out_dir: &Path) -> io::Result<Scratch> {
        static CREATED: AtomicU32 = AtomicU32::new(0);
        let nth = CREATED.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir.join(format!("run-{}-{nth}", std::process::id()));
        fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn write(&self, name: &str, bytes: &[u8]) -> io::Result<PathBuf> {
        let path = self.0.join(name);
        fs::write(&path, bytes)?;
        Ok(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Sleep until `due`, spinning over the last stretch so that a paced sender
/// is not late by the scheduler's wake-up slack. Returns how late it woke.
pub fn sleep_until(due: Instant) -> Duration {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= due {
            return now - due;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}
