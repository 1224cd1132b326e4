//! The `spex serve` subcommand: run the spex-serve TCP server from the
//! command line. Flag parsing mirrors the one-shot tool's flags where they
//! overlap (`--limit-*`, `--recover`, `--on-truncation`, `--stats-json`).

use spex_serve::{Server, ServerConfig};
use std::io::Write;

/// Parsed `spex serve` options.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// The server configuration assembled from the flags.
    pub config: ServerConfig,
    /// Dump server-wide statistics (one-shot `--stats-json` schema) to
    /// stderr on exit.
    pub stats_json: bool,
    /// Print the help text.
    pub help: bool,
}

/// Usage text for `spex serve`.
pub const SERVE_USAGE: &str = "\
spex serve — concurrent streaming query server (length-prefixed frames over TCP)

USAGE:
    spex serve [OPTIONS]

OPTIONS:
    --addr HOST:PORT      listen address (default 127.0.0.1:7878; port 0 = free port)
    --workers N           session-machine worker threads (default 4); every
                          admitted connection runs regardless — workers pace
                          progress, they no longer cap concurrency
    --max-conns N         admitted-connection cap, clamped to the process fd
                          limit; past it new connections get BUSY (default 16384)
    --max-frame N         per-frame payload cap in bytes (default 1048576)
    --max-plans N         compiled-plan cache cap, LRU-evicted past it;
                          0 disables caching (default 64)
    --read-timeout SECS   deadline for the next DATA frame once a session
                          streams, 0 disables (default 30)
    --write-timeout SECS  deadline for writability progress on a stalled
                          peer, 0 disables (default 30)
    --idle-timeout SECS   reap connections with no *completed* frame for
                          SECS (slowloris defense), 0 disables (default 0)
    --allow-remote-shutdown  honor the 'Q' shutdown frame from non-loopback
                          peers (default: loopback peers only)
    --queries FILE        preload standing queries from FILE (one NAME=EXPR
                          per line; `#` starts a comment, blank lines are
                          skipped). The set compiles once through the
                          multi-query combiner into one shared plan; any
                          session that streams DATA without registering
                          queries of its own evaluates the preloaded set
    --recover P           per-session recovery policy: strict | repair | skip-subtree
    --on-truncation O     drop (default) | force-false
    --limit-depth N       per-session stream nesting depth cap
    --limit-buffered N    per-session buffered-event cap
    --limit-buffered-bytes N  per-session event-arena byte cap
    --limit-candidates N  per-session live-candidate cap
    --limit-formula N     per-session condition-formula size cap
    --limit-messages N    per-session transducer-message cap
    --stats-json          dump server statistics as JSON to stderr on exit
    --trace-jsonl PATH    write a JSONL trace (per-session spans and engine
                          records, shutdown aggregates; DESIGN.md §13) to PATH
    --durable-dir DIR     persist session state under DIR: a write-ahead log
                          of input frames plus document-boundary snapshots,
                          so a crashed or disconnected session resumes by
                          token ('M' frame) with identical continuation
                          output (DESIGN.md §15, PROTOCOL.md)
    --fsync P             WAL durability policy under --durable-dir:
                          always | document (default) | never
    -h, --help            this text

PROTOCOL (kind byte · u32 big-endian length · payload; see
crates/server/PROTOCOL.md for the normative specification):
    client:  'R' register name=expr   'D' xml bytes   'E' end
             'S' stats request        'T' trace summary request
             'M' resume durable session (version · token · received counts)
             'Q' graceful shutdown (loopback peers
             only unless --allow-remote-shutdown)
    server:  'k' ok   'r' result   'f' fault   's' stats   't' trace
             'e' error   'b' busy   'n' session end
             'm' resume-ok (durable input byte count)

The server exits 0 after a graceful shutdown (SIGINT, SIGTERM, or a 'Q' frame),
draining all in-flight sessions first.
";

/// Parse a standing-query file (`--queries FILE`): one `NAME=EXPR` per
/// line, `#` starts a comment (whole-line or trailing), blank lines are
/// skipped. Names must be unique; every expression must parse as an rpeq.
pub fn parse_query_file(text: &str) -> Result<Vec<(String, spex_query::Rpeq)>, String> {
    let mut queries: Vec<(String, spex_query::Rpeq)> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = match raw.find('#') {
            Some(i) => &raw[..i],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        let (name, expr) = line
            .split_once('=')
            .ok_or_else(|| format!("line {lineno}: `{line}` is not of the form NAME=EXPR"))?;
        let (name, expr) = (name.trim(), expr.trim());
        if name.is_empty() {
            return Err(format!("line {lineno}: empty query name"));
        }
        if queries.iter().any(|(n, _)| n == name) {
            return Err(format!("line {lineno}: query name `{name}` given twice"));
        }
        let query: spex_query::Rpeq = expr
            .parse()
            .map_err(|e: spex_query::ParseError| format!("line {lineno}: query {name}: {e}"))?;
        queries.push((name.to_string(), query));
    }
    if queries.is_empty() {
        return Err("no queries in file (every line blank or a comment)".to_string());
    }
    Ok(queries)
}

/// Parse `spex serve` arguments (excluding `serve` itself).
pub fn parse_serve_args(args: &[String]) -> Result<ServeOptions, String> {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7878".to_string(),
        watch_signals: true,
        ..ServerConfig::default()
    };
    let mut stats_json = false;
    let mut help = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if crate::parse_session_flag(
            a,
            &mut it,
            "value",
            &mut config.limits,
            &mut config.recovery,
            &mut config.on_truncation,
        )? {
            continue;
        }
        match a.as_str() {
            "--addr" => {
                config.addr = it
                    .next()
                    .ok_or_else(|| "--addr needs host:port".to_string())?
                    .clone()
            }
            "--workers" => config.workers = crate::number("--workers", &mut it, "value")?,
            "--max-conns" => config.max_conns = crate::number("--max-conns", &mut it, "value")?,
            "--max-frame" => config.max_frame = crate::number("--max-frame", &mut it, "value")?,
            "--max-plans" => {
                config.max_cached_plans = crate::number("--max-plans", &mut it, "value")?
            }
            "--read-timeout" => {
                let secs: u64 = crate::number("--read-timeout", &mut it, "value")?;
                config.read_timeout = if secs == 0 {
                    None
                } else {
                    Some(std::time::Duration::from_secs(secs))
                };
            }
            "--write-timeout" => {
                let secs: u64 = crate::number("--write-timeout", &mut it, "value")?;
                config.write_timeout = if secs == 0 {
                    None
                } else {
                    Some(std::time::Duration::from_secs(secs))
                };
            }
            "--idle-timeout" => {
                let secs: u64 = crate::number("--idle-timeout", &mut it, "value")?;
                config.idle_timeout = if secs == 0 {
                    None
                } else {
                    Some(std::time::Duration::from_secs(secs))
                };
            }
            "--allow-remote-shutdown" => config.allow_remote_shutdown = true,
            "--queries" => {
                let path = it
                    .next()
                    .ok_or_else(|| "--queries needs a file path".to_string())?;
                let text =
                    std::fs::read_to_string(path).map_err(|e| format!("--queries {path}: {e}"))?;
                config.preload_queries =
                    parse_query_file(&text).map_err(|e| format!("--queries {path}: {e}"))?;
            }
            "--stats-json" => stats_json = true,
            "--durable-dir" => {
                config.durable_dir = Some(
                    it.next()
                        .ok_or_else(|| "--durable-dir needs a directory path".to_string())?
                        .clone(),
                )
            }
            "--fsync" => {
                config.fsync = it
                    .next()
                    .ok_or_else(|| "--fsync needs a policy (always, document, never)".to_string())?
                    .parse()?
            }
            "--trace-jsonl" => {
                config.trace_jsonl = Some(
                    it.next()
                        .ok_or_else(|| "--trace-jsonl needs a file path".to_string())?
                        .clone(),
                )
            }
            "-h" | "--help" => help = true,
            other => return Err(format!("unknown `spex serve` option `{other}`")),
        }
    }
    Ok(ServeOptions {
        config,
        stats_json,
        help,
    })
}

/// Run the server; returns the process exit code. Blocks until a graceful
/// shutdown (signal or `SHUTDOWN` frame).
pub fn run_serve(options: &ServeOptions, stderr: &mut dyn Write) -> i32 {
    if options.help {
        let _ = write!(stderr, "{SERVE_USAGE}");
        return 0;
    }
    let server = match Server::bind(options.config.clone()) {
        Ok(s) => s,
        Err(e) => {
            let _ = writeln!(stderr, "spex serve: bind {}: {e}", options.config.addr);
            return 3;
        }
    };
    let _ = writeln!(stderr, "spex serve: listening on {}", server.local_addr());
    match server.run() {
        Ok(report) => {
            let _ = writeln!(
                stderr,
                "spex serve: drained; {} session(s) served ({} completed, {} failed, {} rejected), {} document(s)",
                report.sessions_started,
                report.sessions_completed,
                report.sessions_failed,
                report.sessions_rejected,
                report.documents,
            );
            if options.stats_json {
                let _ = writeln!(stderr, "{}", report.stats_json);
            }
            0
        }
        Err(e) => {
            let _ = writeln!(stderr, "spex serve: {e}");
            3
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_serve_flags() {
        let o = parse_serve_args(&args(&[
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "8",
            "--max-frame",
            "4096",
            "--max-plans",
            "8",
            "--read-timeout",
            "0",
            "--write-timeout",
            "5",
            "--allow-remote-shutdown",
            "--recover",
            "repair",
            "--limit-depth",
            "64",
            "--stats-json",
            "--trace-jsonl",
            "/tmp/trace.jsonl",
        ]))
        .unwrap();
        assert_eq!(o.config.addr, "127.0.0.1:0");
        assert_eq!(o.config.workers, 8);
        assert_eq!(o.config.max_frame, 4096);
        assert_eq!(o.config.max_cached_plans, 8);
        assert_eq!(o.config.read_timeout, None);
        assert_eq!(
            o.config.write_timeout,
            Some(std::time::Duration::from_secs(5))
        );
        assert!(o.config.allow_remote_shutdown);
        assert_eq!(o.config.recovery, spex_xml::RecoveryPolicy::Repair);
        assert_eq!(o.config.limits.max_stream_depth, Some(64));
        assert!(o.stats_json);
        assert!(o.config.watch_signals);
        assert_eq!(o.config.trace_jsonl.as_deref(), Some("/tmp/trace.jsonl"));
        assert!(parse_serve_args(&args(&["--bogus"])).is_err());
        assert!(parse_serve_args(&args(&["--workers"])).is_err());
        assert!(parse_serve_args(&args(&["--trace-jsonl"])).is_err());
    }

    /// `--queue` (a no-op since the reactor), `--scanner` and `--engine`
    /// (production always runs the fast scanner on the VM) are gone: unknown
    /// options now.
    #[test]
    fn removed_flags_are_unknown_options() {
        for flag in ["--queue", "--scanner", "--engine"] {
            let err = parse_serve_args(&args(&[flag, "1"])).unwrap_err();
            assert!(err.contains("unknown `spex serve` option"), "{flag}: {err}");
        }
    }

    #[test]
    fn parse_reactor_flags() {
        let o = parse_serve_args(&args(&["--max-conns", "256", "--idle-timeout", "45"])).unwrap();
        assert_eq!(o.config.max_conns, 256);
        assert_eq!(
            o.config.idle_timeout,
            Some(std::time::Duration::from_secs(45))
        );
        // The 0-disables convention, matching the other timeout flags.
        let o = parse_serve_args(&args(&["--idle-timeout", "0"])).unwrap();
        assert_eq!(o.config.idle_timeout, None);
        // Defaults: idle reaping off, admission capped generously.
        let o = parse_serve_args(&args(&[])).unwrap();
        assert_eq!(o.config.idle_timeout, None);
        assert_eq!(o.config.max_conns, 16384);
        assert!(parse_serve_args(&args(&["--max-conns"])).is_err());
        assert!(parse_serve_args(&args(&["--idle-timeout", "soon"])).is_err());
    }

    #[test]
    fn parse_durable_flags() {
        use spex_serve::FsyncPolicy;
        let o = parse_serve_args(&args(&["--durable-dir", "/tmp/spex-durable"])).unwrap();
        assert_eq!(o.config.durable_dir.as_deref(), Some("/tmp/spex-durable"));
        assert_eq!(o.config.fsync, FsyncPolicy::OnDocument);
        for (flag, want) in [
            ("always", FsyncPolicy::Always),
            ("document", FsyncPolicy::OnDocument),
            ("on-document", FsyncPolicy::OnDocument),
            ("never", FsyncPolicy::Never),
        ] {
            let o = parse_serve_args(&args(&["--fsync", flag])).unwrap();
            assert_eq!(o.config.fsync, want, "--fsync {flag}");
        }
        assert!(parse_serve_args(&args(&["--durable-dir"])).is_err());
        assert!(parse_serve_args(&args(&["--fsync"])).is_err());
        assert!(parse_serve_args(&args(&["--fsync", "sometimes"])).is_err());
    }

    #[test]
    fn parse_query_file_lines() {
        let qs = parse_query_file(
            "# standing queries\n\
             title = doc.title\n\
             \n\
             tags=doc.(tag|keyword)   # both element names\n\
             deep = _*.item\n",
        )
        .unwrap();
        assert_eq!(qs.len(), 3);
        assert_eq!(qs[0].0, "title");
        assert_eq!(qs[0].1.to_string(), "doc.title");
        assert_eq!(qs[1].0, "tags");
        assert_eq!(qs[2].0, "deep");

        let e = parse_query_file("just-a-name\n").unwrap_err();
        assert!(e.contains("line 1"), "{e}");
        assert!(e.contains("NAME=EXPR"), "{e}");
        let e = parse_query_file("a=x\na=y\n").unwrap_err();
        assert!(e.contains("given twice"), "{e}");
        let e = parse_query_file("a=((\n").unwrap_err();
        assert!(e.contains("line 1"), "{e}");
        let e = parse_query_file("# nothing here\n\n").unwrap_err();
        assert!(e.contains("no queries"), "{e}");
    }

    #[test]
    fn parse_queries_flag() {
        let dir = std::env::temp_dir().join(format!("spex-queries-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("standing.txt");
        std::fs::write(&path, "a=doc.a\nb=doc.b # comment\n").unwrap();
        let o = parse_serve_args(&args(&["--queries", path.to_str().unwrap()])).unwrap();
        assert_eq!(o.config.preload_queries.len(), 2);
        assert_eq!(o.config.preload_queries[0].0, "a");
        assert_eq!(o.config.preload_queries[1].1.to_string(), "doc.b");
        let e = parse_serve_args(&args(&["--queries"])).unwrap_err();
        assert!(e.contains("--queries"), "{e}");
        let missing = dir.join("no-such-file.txt");
        let e = parse_serve_args(&args(&["--queries", missing.to_str().unwrap()])).unwrap_err();
        assert!(e.contains("no-such-file"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn help_flag_short_circuits() {
        let o = parse_serve_args(&args(&["--help"])).unwrap();
        assert!(o.help);
        let mut err = Vec::new();
        assert_eq!(run_serve(&o, &mut err), 0);
        assert!(String::from_utf8(err).unwrap().contains("spex serve"));
    }
}
