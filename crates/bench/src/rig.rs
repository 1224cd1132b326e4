//! The interface every harness subcommand shares: [`Flags`], the strict
//! `--flag VALUE` parser its options go through; [`Report`], what a rig's
//! outcome renders into for printing and the exit code; and
//! [`spawn_serve`], the launcher of the `spex serve` child that the
//! process-level smokes drive.

use std::fmt::Display;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::str::FromStr;

/// The options one subcommand was given, by the name its usage line shows.
#[derive(Debug, Default)]
pub struct Flags {
    given: Vec<(&'static str, String)>,
}

impl Flags {
    /// Parse `args` against `options`, the subcommand's usage entries:
    /// `"--cases N"` declares a flag that takes a value, `"FILE"` a
    /// positional argument (positionals bind in order). An unknown or
    /// repeated flag, a flag without its value and a surplus positional
    /// argument are errors that name the argument.
    pub fn parse(args: &[String], options: &[&'static str]) -> Result<Flags, String> {
        let names = || options.iter().map(|&o| o.split(' ').next().unwrap_or(o));
        let mut positionals = names().filter(|n| !n.starts_with("--"));
        let mut flags = Flags::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let (name, value) = if arg.starts_with("--") {
                let name = names()
                    .find(|n| n == arg)
                    .ok_or_else(|| format!("unknown flag `{arg}`"))?;
                let value = args.next().filter(|v| !v.starts_with("--"));
                (name, value.ok_or_else(|| format!("`{arg}` needs a value"))?)
            } else {
                let name = positionals.next();
                (
                    name.ok_or_else(|| format!("unexpected argument `{arg}`"))?,
                    arg,
                )
            };
            if flags.given.iter().any(|(n, _)| *n == name) {
                return Err(format!("`{name}` given twice"));
            }
            flags.given.push((name, value.clone()));
        }
        Ok(flags)
    }

    /// The value given for `name`, parsed; `None` when it was not given.
    pub fn value<T: FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        let given = self.given.iter().find(|(n, _)| *n == name);
        given
            .map(|(_, v)| v.parse().map_err(|e| format!("`{name} {v}`: {e}")))
            .transpose()
    }
}

/// What a rig found: summary lines for stdout, and failures for stderr
/// behind the rig's prefix.
#[derive(Debug, Default)]
pub struct Report {
    /// Printed on stdout, one line each.
    pub summary: Vec<String>,
    /// Printed before each failure (`DIVERGENCE: `, `VIOLATION: `, …).
    pub prefix: &'static str,
    /// Every failure found; the rig passes when this is empty.
    pub failures: Vec<String>,
}

impl Report {
    /// A one-line report: the `Ok` line as its summary, or the `Err` as its
    /// one failure behind `prefix`.
    pub fn of(result: Result<String, String>, prefix: &'static str) -> Report {
        let (summary, failures) = match result {
            Ok(line) => (vec![line], Vec::new()),
            Err(failure) => (Vec::new(), vec![failure]),
        };
        Report {
            summary,
            prefix,
            failures,
        }
    }

    /// Print the summary, then every failure, and return the exit code:
    /// 0 when nothing failed, 1 otherwise.
    pub fn print(&self) -> i32 {
        for line in &self.summary {
            println!("{line}");
        }
        for failure in &self.failures {
            eprintln!("{}{failure}", self.prefix);
        }
        i32::from(!self.failures.is_empty())
    }
}

/// A `spex serve` child started by [`spawn_serve`]. Dropping it kills the
/// child.
pub struct Server {
    /// The server process.
    pub child: Child,
    /// The address it announced it listens on.
    pub addr: SocketAddr,
    /// Its stderr past the announcement. The server writes nothing more
    /// until it shuts down, so the pipe needs no draining meanwhile.
    pub stderr: BufReader<ChildStderr>,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Start `spex serve --addr 127.0.0.1:0` with `extra` arguments and wait
/// for the `listening on ADDR` line it writes to stderr once its socket is
/// bound.
pub fn spawn_serve(spex: &Path, extra: &[&str]) -> Result<Server, String> {
    let mut child = Command::new(spex)
        .args(["serve", "--addr", "127.0.0.1:0"])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", spex.display()))?;
    let stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
    let addr = SocketAddr::from(([127, 0, 0, 1], 0));
    let mut server = Server {
        child,
        addr,
        stderr,
    };
    let mut line = String::new();
    loop {
        line.clear();
        let read = server.stderr.read_line(&mut line);
        if read.map_err(|e| e.to_string())? == 0 {
            return Err(format!(
                "{} exited before announcing its address",
                spex.display()
            ));
        }
        if let Some((_, addr)) = line.rsplit_once("listening on ") {
            server.addr = addr.trim().parse().map_err(|e| format!("{line}: {e}"))?;
            return Ok(server);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_are_strict_and_reports_set_the_exit_code() {
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            Flags::parse(&args, &["--cases N", "--spex PATH", "FILE"])
        };
        let flags = parse(&["--spex", "bin/spex", "doc.xml", "--cases", "5"]).unwrap();
        assert_eq!(flags.value("--cases"), Ok(Some(5)));
        assert_eq!(flags.value("FILE"), Ok(Some("doc.xml".to_string())));
        assert_eq!(parse(&[]).unwrap().value::<usize>("--cases"), Ok(None));
        let malformed = parse(&["--cases", "abc"])
            .unwrap()
            .value::<usize>("--cases");
        assert!(malformed.unwrap_err().starts_with("`--cases abc`: "));
        for (args, error) in [
            (&["--case", "5"][..], "unknown flag `--case`"),
            (&["--cases"], "`--cases` needs a value"),
            (&["--cases", "--spex", "x"], "`--cases` needs a value"),
            (&["--cases", "1", "--cases", "2"], "`--cases` given twice"),
            (&["a.xml", "b.xml"], "unexpected argument `b.xml`"),
        ] {
            assert_eq!(parse(args).unwrap_err(), error, "{args:?}");
        }
        assert_eq!(Report::default().print(), 0);
        assert_eq!(Report::of(Ok("fine".into()), "X: ").print(), 0);
        assert_eq!(Report::of(Err("broken".into()), "X: ").print(), 1);
    }
}
