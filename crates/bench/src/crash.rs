//! The crash-diff rig: restart-transparency as a proof obligation.
//!
//! PR 7 adds durable sessions — document-boundary snapshots
//! ([`spex_core::Snapshot`]) plus a write-ahead input log
//! ([`spex_serve::SessionLog`]) — with the claim that a killed run, once
//! restored, continues **byte-identically**: same fragments, same engine
//! statistics, same fault reports, same determination-latency histograms.
//! This module turns that claim into a seeded differential test, the same
//! way [`crate::diff`] proves the VM lowering against the reference executor.
//!
//! One case is a random query over a random multi-document stream,
//! evaluated three ways:
//!
//! 1. **Baseline** — an uninterrupted run that also captures a snapshot at
//!    every `</$>` boundary (exactly what `--checkpoint` and the server's
//!    durable sessions do), recording how many fragments were delivered at
//!    each.
//! 2. **Kill + resume** — a random kill byte offset selects the latest
//!    snapshot at or before it; a **fresh** run restores that snapshot and
//!    consumes only the remaining input. Baseline-prefix + resumed output
//!    must equal the uninterrupted output, and final statistics, fault
//!    lists and latency histograms must be *exactly* the baseline's.
//! 3. **Corruption** — snapshot bytes with bit flips or truncations must
//!    fail decoding with a structured [`spex_core::SnapshotError`] (never a
//!    panic), and a WAL segment torn mid-record must recover to the
//!    longest valid prefix.
//!
//! Every policy (`strict`, `repair`, `skip-subtree`) runs; recovery policies
//! run over mutated (damaged) streams so quarantine sets and damage
//! intervals cross the snapshot too.

use crate::diff::{gen_document, gen_query};
use crate::fault::{mutate, Mutator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spex_core::{CompiledNetwork, FragmentCollector, Pump, RecoveryOptions, Snapshot, Yield};
use spex_trace::HistogramSummary;
use spex_xml::RecoveryPolicy;

/// A snapshot captured at one document boundary of a baseline run.
struct CheckpointAt {
    /// Input byte offset of the boundary (`position.offset`).
    offset: u64,
    /// Fragments delivered before this boundary (strict mode; recovery
    /// delivers only at end of run, so always 0 there).
    delivered: usize,
    snapshot: Snapshot,
}

/// Everything one (engine, policy) run produced, plus its checkpoints.
struct RunResult {
    checkpoints: Vec<CheckpointAt>,
    fragments: Vec<String>,
    /// Debug-formatted final fault list (recovery policies).
    faults: String,
    stats: spex_core::EngineStats,
    transducers: Vec<spex_core::TransducerStats>,
    latency: Vec<(usize, HistogramSummary)>,
}

/// Drive one run to completion on the [`Pump`] the server's sessions run:
/// from the start (`resume == None`) or from a restored snapshot consuming
/// only the input after its boundary. When `checkpoint` is set, the pump's
/// snapshot is captured at every `</$>` — exactly the durable layer's write
/// path, minus the disk.
fn drive(
    network: &CompiledNetwork,
    policy: RecoveryPolicy,
    xml: &str,
    resume: Option<&Snapshot>,
    checkpoint: bool,
) -> Result<RunResult, String> {
    let options = RecoveryOptions {
        policy,
        multi_document: true,
        ..RecoveryOptions::default()
    };
    let mut pump = Pump::new(network.run(FragmentCollector::new()), options);
    let mut input = xml.as_bytes();
    if let Some(snap) = resume {
        pump.restore(snap)
            .map_err(|e| format!("{policy}: restore failed: {e}"))?;
        let offset = snap.session.as_ref().map_or(0, |s| s.position.offset);
        input = &input[offset as usize..];
    }

    let mut checkpoints = Vec::new();
    loop {
        match pump
            .step(usize::MAX)
            .map_err(|e| format!("{policy}: {e}"))?
        {
            Yield::NeedMore => pump.parser_mut().read_from(&mut input),
            Yield::Boundary if checkpoint => {
                if let Some(snapshot) = pump.checkpoint() {
                    let session = snapshot
                        .session
                        .as_ref()
                        .expect("pump snapshots carry a session");
                    checkpoints.push(CheckpointAt {
                        offset: session.position.offset,
                        delivered: session.delivered[0] as usize,
                        snapshot,
                    });
                }
            }
            Yield::End => break,
            Yield::Boundary | Yield::Budget => {}
        }
    }

    let latency = pump
        .machine()
        .determination_latency()
        .iter()
        .map(|(id, h)| (*id, h.summary()))
        .collect();
    let mut done = pump.finish();
    let faults = done.report.map(|r| r.faults).unwrap_or_default();
    Ok(RunResult {
        checkpoints,
        fragments: done
            .sinks
            .pop()
            .expect("one query, one sink")
            .into_fragments(),
        faults: format!("{faults:?}"),
        stats: done.stats,
        transducers: done.transducers,
        latency,
    })
}

/// Aggregate outcome of a [`crash_diff`] sweep.
#[derive(Debug, Clone, Default)]
pub struct CrashOutcome {
    /// (query, stream) cases generated.
    pub cases: usize,
    /// Seeded kill-points exercised (case × policy × kill offset), each one
    /// restore-and-continue run.
    pub kills: usize,
    /// Kill-points that resumed from a real snapshot (not a from-scratch
    /// rerun because the kill landed before the first boundary).
    pub snapshot_resumes: usize,
    /// Corrupt-snapshot decode attempts + torn-WAL recoveries checked.
    pub corruption_checks: usize,
    /// Every restart-transparency violation found; must be empty.
    pub divergences: Vec<String>,
}

const POLICIES: [RecoveryPolicy; 3] = [
    RecoveryPolicy::Strict,
    RecoveryPolicy::Repair,
    RecoveryPolicy::SkipSubtree,
];

/// The rig's top-level driver: `cases` seeded random (multi-document
/// stream, query) pairs; per case and per recovery policy, an
/// uninterrupted checkpointing baseline runs, then `kills` random kill
/// offsets each restore the latest preceding snapshot into a fresh run and
/// the continuation is compared against the baseline. Deterministic per
/// `seed`.
pub fn crash_diff(cases: usize, seed: u64, kills: usize) -> CrashOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = CrashOutcome::default();
    for i in 0..cases {
        let query = gen_query(&mut rng);
        let ndocs = rng.gen_range(2..5usize);
        let clean: String = (0..ndocs).map(|_| gen_document(&mut rng)).collect();
        let network = match CompiledNetwork::try_compile(&query) {
            Ok(n) => n,
            Err(_) => continue,
        };
        out.cases += 1;
        for policy in POLICIES {
            // Recovery policies run over damaged streams, so the snapshot
            // has to carry fault lists and quarantined fragments across
            // the restart, not just engine state.
            let xml = if policy == RecoveryPolicy::Strict {
                clean.clone()
            } else {
                let mutator = Mutator::ALL[rng.gen_range(0..Mutator::ALL.len())];
                mutate(&clean, mutator, rng.gen()).xml
            };
            let label = format!("case {i} (seed {seed}, query `{query}`, {policy})");
            // A stream the reader rejects (e.g. strict over rare
            // still-malformed repairs) has no resume to test.
            let Ok(base) = drive(&network, policy, &xml, None, true) else {
                continue;
            };
            if xml.len() < 2 {
                continue;
            }
            for _ in 0..kills {
                let cut = rng.gen_range(1..xml.len() as u64);
                out.kills += 1;
                let ckpt = base.checkpoints.iter().rev().find(|c| c.offset <= cut);
                if ckpt.is_some() {
                    out.snapshot_resumes += 1;
                }
                let resumed = match drive(&network, policy, &xml, ckpt.map(|c| &c.snapshot), false)
                {
                    Ok(r) => r,
                    Err(e) => {
                        out.divergences.push(format!(
                            "{label}: resume after kill@{cut} errored: {e} [doc: {xml}]"
                        ));
                        continue;
                    }
                };
                let delivered = ckpt.map_or(0, |c| c.delivered);
                if resumed.fragments[..] != base.fragments[delivered..] {
                    out.divergences.push(format!(
                        "{label}: kill@{cut}: continuation fragments diverge: \
                         resumed {:?}, baseline tail {:?} [doc: {xml}]",
                        resumed.fragments,
                        &base.fragments[delivered..]
                    ));
                }
                if resumed.stats != base.stats {
                    out.divergences.push(format!(
                        "{label}: kill@{cut}: final stats diverge: \
                         resumed {:?}, baseline {:?} [doc: {xml}]",
                        resumed.stats, base.stats
                    ));
                }
                if resumed.transducers != base.transducers {
                    out.divergences.push(format!(
                        "{label}: kill@{cut}: per-transducer stats diverge [doc: {xml}]"
                    ));
                }
                if resumed.latency != base.latency {
                    out.divergences.push(format!(
                        "{label}: kill@{cut}: determination-latency diverges: \
                         resumed {:?}, baseline {:?} [doc: {xml}]",
                        resumed.latency, base.latency
                    ));
                }
                if resumed.faults != base.faults {
                    out.divergences.push(format!(
                        "{label}: kill@{cut}: fault reports diverge: \
                         resumed {}, baseline {} [doc: {xml}]",
                        resumed.faults, base.faults
                    ));
                }
            }
            // Corruption leg: snapshot bytes with a random bit flip or
            // truncation must fail decoding with a structured error.
            if let Some(ckpt) = base.checkpoints.first() {
                let bytes = ckpt.snapshot.encode();
                for _ in 0..4 {
                    let mut bad = bytes.clone();
                    let bit = rng.gen_range(0..bad.len() * 8);
                    bad[bit / 8] ^= 1 << (bit % 8);
                    out.corruption_checks += 1;
                    if Snapshot::decode(&bad).is_ok() {
                        out.divergences.push(format!(
                            "{label}: flipped bit {bit} of the snapshot decoded successfully"
                        ));
                    }
                    let cut = rng.gen_range(0..bytes.len());
                    out.corruption_checks += 1;
                    if Snapshot::decode(&bytes[..cut]).is_ok() {
                        out.divergences.push(format!(
                            "{label}: snapshot truncated to {cut} bytes decoded successfully"
                        ));
                    }
                }
            }
        }
        // Torn-WAL leg: a session log whose active segment is cut
        // mid-record must recover exactly the longest valid prefix.
        if i % 16 == 0 {
            out.corruption_checks += 1;
            if let Err(e) = torn_wal_check(&clean, &mut rng) {
                out.divergences
                    .push(format!("case {i} (seed {seed}): torn WAL: {e}"));
            }
        }
    }
    out
}

/// Write the stream into a durable session WAL, tear the final segment at
/// a random byte, and verify recovery returns the longest intact record
/// prefix (a prefix of the input, ending at a record boundary).
fn torn_wal_check(xml: &str, rng: &mut StdRng) -> Result<(), String> {
    use spex_serve::{FsyncPolicy, SessionLog};
    let dir = std::env::temp_dir().join(format!(
        "spex-crash-wal-{}-{}",
        std::process::id(),
        rng.gen::<u64>()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let token = "s0-torn";
    let queries = [("q".to_string(), "a".to_string())];
    let mut log =
        SessionLog::create(&dir, token, &queries, FsyncPolicy::Never).map_err(|e| e.to_string())?;
    // Several records so a torn tail still leaves intact ones.
    for chunk in xml.as_bytes().chunks(16.max(xml.len() / 8)) {
        log.append_data(chunk).map_err(|e| e.to_string())?;
    }
    drop(log);
    // Tear the (single) segment at a random byte.
    let seg_dir = dir.join(token);
    let mut segments: Vec<std::path::PathBuf> = std::fs::read_dir(&seg_dir)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-"))
        })
        .collect();
    segments.sort();
    let seg = segments.last().ok_or("no WAL segment written")?;
    let len = std::fs::metadata(seg).map_err(|e| e.to_string())?.len();
    let torn = rng.gen_range(0..len);
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(seg)
        .map_err(|e| e.to_string())?;
    file.set_len(torn).map_err(|e| e.to_string())?;
    drop(file);
    let recovered = spex_serve::durable::recover(&dir, token)
        .map_err(|e| format!("recover errored on a torn tail: {e}"))?
        .ok_or("recover lost the whole session")?;
    let _ = std::fs::remove_dir_all(&dir);
    if !xml.as_bytes().starts_with(&recovered.wal) {
        return Err(format!(
            "recovered WAL ({} bytes) is not a prefix of the input ({} bytes)",
            recovered.wal.len(),
            xml.len()
        ));
    }
    Ok(())
}

/// The process-level smoke: SIGKILL a real `spex serve --durable-dir`
/// mid-stream, restart it, resume by token, and require the concatenated
/// client-side output byte-identical to the one-shot CLI over the same
/// input. This is the end of the proof chain that [`crash_diff`] starts
/// in-process: same contract, now across an actual process death.
///
/// `spex` is the path to the CLI binary (the harness defaults to its own
/// sibling `spex` in `target/release`).
pub fn crash_smoke(spex: &std::path::Path) -> Result<String, String> {
    use spex_serve::{split_result, Client, FrameKind};
    use std::io::{BufRead, Write};

    let dir = std::env::temp_dir().join(format!("spex-crash-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let dir_arg = dir.to_str().ok_or("non-UTF-8 temp dir")?.to_string();

    /// Start `spex serve` on a free port and parse the bound address from
    /// its "listening on" banner.
    fn spawn_server(
        spex: &std::path::Path,
        dir: &str,
    ) -> Result<(std::process::Child, String), String> {
        let mut child = std::process::Command::new(spex)
            .args(["serve", "--addr", "127.0.0.1:0", "--durable-dir", dir])
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", spex.display()))?;
        let stderr = child.stderr.take().ok_or("no stderr pipe")?;
        let mut lines = std::io::BufReader::new(stderr).lines();
        let addr = loop {
            let line = lines
                .next()
                .ok_or("server exited before its listening banner")?
                .map_err(|e| e.to_string())?;
            if let Some(addr) = line
                .rsplit("listening on ")
                .next()
                .filter(|_| line.contains("listening on "))
            {
                break addr.trim().to_string();
            }
        };
        // Keep draining stderr so the server never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines {});
        Ok((child, addr))
    }

    let doc1: &[u8] = b"<r><x>one</x></r>";
    let doc2: &[u8] = b"<r><x>two</x><x>three</x></r>";
    let full: Vec<u8> = [doc1, doc2].concat();
    let cut = doc1.len() + 13; // mid-document: after "<r><x>two</x>"

    // --- Life one: stream past the first document boundary, then die. ----
    let (mut server, addr) = spawn_server(spex, &dir_arg)?;
    let mut a = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    a.register("q", "r.x").map_err(|e| e.to_string())?;
    let ack = a.next_frame().map_err(|e| e.to_string())?;
    if ack.map(|f| f.kind) != Some(FrameKind::Ok) {
        return Err("registration was not acknowledged".into());
    }
    a.send_xml(&full[..doc1.len()]).map_err(|e| e.to_string())?;
    a.send_xml(&full[doc1.len()..cut])
        .map_err(|e| e.to_string())?;
    // Wait for the token and both early fragments: fragment two comes from
    // document two, so the document-one checkpoint has deterministically
    // been written (and, under the default fsync policy, synced) by then.
    let mut token = None;
    let mut received = 0u64;
    let mut output = Vec::new();
    while token.is_none() || received < 2 {
        let frame = a
            .next_frame()
            .map_err(|e| e.to_string())?
            .ok_or("server hung up before the kill point")?;
        match frame.kind {
            FrameKind::Ok => {
                let ack = String::from_utf8_lossy(&frame.payload).into_owned();
                token = ack.strip_prefix("session=").map(str::to_string);
            }
            FrameKind::Result => {
                let (name, fragment) =
                    split_result(&frame.payload).ok_or("malformed result frame")?;
                if name != "q" {
                    return Err(format!("fragment for unknown query `{name}`"));
                }
                received += 1;
                output.extend_from_slice(fragment);
            }
            other => return Err(format!("unexpected pre-kill frame {other:?}")),
        }
    }
    let token = token.ok_or("no session token ack")?;
    server.kill().map_err(|e| format!("SIGKILL: {e}"))?; // SIGKILL on unix
    let status = server.wait().map_err(|e| e.to_string())?;
    if status.success() {
        return Err("server exited cleanly despite SIGKILL".into());
    }
    drop(a);

    // --- Life two: restart over the same durable root and resume. --------
    let (mut server, addr) = spawn_server(spex, &dir_arg)?;
    let mut b = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    b.register("q", "r.x").map_err(|e| e.to_string())?;
    let ack = b.next_frame().map_err(|e| e.to_string())?;
    if ack.map(|f| f.kind) != Some(FrameKind::Ok) {
        return Err("re-registration was not acknowledged".into());
    }
    b.resume(&token, &[received]).map_err(|e| e.to_string())?;
    // RESUME-OK arrives before any replayed results and tells us where the
    // durable input ends; the kill may have cost the unsynced WAL tail, so
    // the client continues from the server's count, not its own.
    let frame = b
        .next_frame()
        .map_err(|e| e.to_string())?
        .ok_or("server hung up instead of answering the resume")?;
    if frame.kind != FrameKind::ResumeOk {
        return Err(format!(
            "expected RESUME-OK, got {:?} ({})",
            frame.kind,
            String::from_utf8_lossy(&frame.payload)
        ));
    }
    let durable = u64::from_be_bytes(
        frame.payload[..]
            .try_into()
            .map_err(|_| "RESUME-OK payload is not a u64")?,
    ) as usize;
    if durable < doc1.len() || durable > full.len() {
        return Err(format!(
            "durable byte count {durable} outside [{}, {}]",
            doc1.len(),
            full.len()
        ));
    }
    b.send_xml(&full[durable..]).map_err(|e| e.to_string())?;
    b.end().map_err(|e| e.to_string())?;
    let t = b.drain().map_err(|e| e.to_string())?;
    if !t.clean_end || !t.errors.is_empty() {
        return Err(format!(
            "resumed session failed (clean_end={}, errors={:?})",
            t.clean_end, t.errors
        ));
    }
    output.extend_from_slice(&t.output_of("q"));

    // --- Oracle: the one-shot CLI over the uninterrupted stream. ----------
    let mut oneshot = std::process::Command::new(spex)
        .args(["--stream", "r.x"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning one-shot {}: {e}", spex.display()))?;
    oneshot
        .stdin
        .take()
        .ok_or("no stdin pipe")?
        .write_all(&full)
        .map_err(|e| e.to_string())?;
    let oracle = oneshot.wait_with_output().map_err(|e| e.to_string())?;
    if !oracle.status.success() {
        return Err(format!("one-shot CLI failed: {}", oracle.status));
    }
    if output != oracle.stdout {
        return Err(format!(
            "DIVERGENCE: crash+resume output {:?} != one-shot output {:?}",
            String::from_utf8_lossy(&output),
            String::from_utf8_lossy(&oracle.stdout)
        ));
    }

    // --- Graceful teardown: 'Q' must drain and exit 0. --------------------
    let mut q = Client::connect(&addr).map_err(|e| e.to_string())?;
    q.request_shutdown().map_err(|e| e.to_string())?;
    let _ = q.next_frame();
    drop(q);
    let status = server.wait().map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("graceful shutdown exited {status}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(format!(
        "SIGKILL at byte {cut} survived: token {token}, {durable} durable byte(s), \
         {received} pre-kill fragment(s), {} total output byte(s) byte-identical \
         to the one-shot CLI",
        output.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_is_restart_transparent() {
        let outcome = crash_diff(12, 0xc4a5, 2);
        assert_eq!(outcome.cases, 12);
        assert!(outcome.kills >= 60, "only {} kill-points", outcome.kills);
        assert!(
            outcome.divergences.is_empty(),
            "divergences: {:#?}",
            outcome.divergences
        );
        // Kills must actually land after a snapshot sometimes, or the rig
        // only ever tests from-scratch reruns.
        assert!(
            outcome.snapshot_resumes > 0,
            "no kill-point ever resumed from a snapshot"
        );
        assert!(outcome.corruption_checks > 0);
    }

    #[test]
    fn sweeps_are_deterministic_per_seed() {
        let a = crash_diff(4, 7, 1);
        let b = crash_diff(4, 7, 1);
        assert_eq!(a.kills, b.kills);
        assert_eq!(a.snapshot_resumes, b.snapshot_resumes);
        assert_eq!(a.divergences, b.divergences);
    }
}
