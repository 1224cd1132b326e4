//! Docs claim-check: every benchmark artifact, source file, harness
//! subcommand and bench target the user-facing documents cite must exist. A
//! `BENCH_<n>` (with or without `.json`) must name a file at the repository
//! root; a rooted `crates/…`, `tests/…`, `examples/…` or `benchmark/…` path
//! ending in `.rs` must name a file; and inside code (an inline span or a
//! fenced block) a `harness <subcommand>` must be a row of the harness's
//! command table, a `cargo bench … --bench NAME` must name a `[[bench]]`
//! target of some manifest, and a `--flag` on a `spex` command line must be
//! in `spex --help` (`spex serve --help` after `spex serve`). A
//! `Type::member` in code must name a `struct`, `enum`, `trait` or `type`
//! `Type` and a `fn member` or a `member:` field somewhere under `crates/`
//! or `src/`. Outside comments, `.github/workflows/ci.yml` may cite only
//! harness subcommands, and must run every rig of the table. `benchmark/`
//! is checked by its own runner; ROADMAP.md and CHANGES.md are history and
//! not scanned.

use std::path::Path;

const DOCS: [&str; 5] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "crates/server/PROTOCOL.md",
    ".claude/skills/verify/SKILL.md",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

/// The subcommands of `harness`, from the `Command("name", …)` rows of its
/// table, each with whether it is a rig (`Rig` or `Smoke`), which CI runs.
fn harness_subcommands() -> Vec<(String, bool)> {
    read("crates/bench/src/bin/harness.rs")
        .lines()
        .filter_map(|l| l.trim().strip_prefix("Command(\"")?.split_once('"'))
        .map(|(name, row)| {
            (
                name.to_string(),
                row.contains(" Rig(") || row.contains(" Smoke("),
            )
        })
        .collect()
}

/// The code in a markdown document, one string per inline span or fenced
/// block line, with the line it starts on.
fn code_pieces(text: &str) -> Vec<(usize, String)> {
    let mut pieces = Vec::new();
    let mut fenced = false;
    for (i, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if fenced {
            pieces.push((i + 1, line.to_string()));
        } else {
            for span in line.split('`').skip(1).step_by(2) {
                pieces.push((i + 1, span.to_string()));
            }
        }
    }
    pieces
}

/// Every `harness <subcommand>` (or `harness -- <subcommand>`) in `code`.
fn harness_citations(code: &str) -> Vec<String> {
    let mut cited = Vec::new();
    let mut rest = code;
    while let Some(at) = rest.find("harness") {
        rest = &rest[at + "harness".len()..];
        let after = rest.strip_prefix(' ').map(|r| r.trim_start_matches("-- "));
        let word: String = after
            .unwrap_or("")
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
            .collect();
        if word.starts_with(|c: char| c.is_ascii_lowercase()) {
            cited.push(word);
        }
    }
    cited
}

/// Every `--bench NAME` of a `cargo bench` command in `code`.
fn bench_target_citations(code: &str) -> Vec<String> {
    let mut cited = Vec::new();
    for command in code.split("cargo bench").skip(1) {
        let command = command.split([';', '&', '|']).next().unwrap_or("");
        let mut words = command.split_whitespace();
        while let Some(word) = words.next() {
            if word == "--bench" {
                cited.extend(words.next().map(str::to_string));
            }
        }
    }
    cited
}

/// Every `--flag` on a `spex` command line in `code`, paired with whether
/// the command is `spex serve`. The command line ends at a pipe, `;`, `&`,
/// a redirection or a `#` comment; `--a/--b` cites both flags and
/// `--flag=VALUE` cites `--flag`. A `spex` binary passed to a harness rig
/// (`--spex target/release/spex`) is not a command line.
fn spex_flag_citations(code: &str) -> Vec<(bool, String)> {
    let mut cited = Vec::new();
    let mut words = code.split_whitespace().peekable();
    let mut previous = "";
    while let Some(word) = words.next() {
        let invoked = (word == "spex" || word.ends_with("/spex")) && previous != "--spex";
        previous = word;
        if !invoked {
            continue;
        }
        words.next_if_eq(&"--"); // `cargo run --bin spex -- serve …`
        let serve = words.peek() == Some(&"serve");
        for word in words.by_ref() {
            if word.starts_with(['|', ';', '&', '>', '<', '#']) || word.starts_with("2>") {
                break;
            }
            for flag in word
                .split('/')
                .filter(|w| w.len() > 2 && w.starts_with("--"))
            {
                let flag = flag.split('=').next().unwrap_or(flag);
                let flag = flag.trim_end_matches([',', '.', ')', ';', '\'', '"']);
                cited.push((serve, flag.to_string()));
            }
        }
    }
    cited
}

/// Does `usage` list `flag` as a whole word (not as a prefix of a longer
/// flag)?
fn usage_lists(usage: &str, flag: &str) -> bool {
    usage.match_indices(flag).any(|(at, _)| {
        !usage[at + flag.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-')
    })
}

/// The `[[bench]]` target names of the root manifest and every crate's.
fn bench_targets() -> Vec<String> {
    let crates = std::fs::read_dir(root().join("crates")).expect("crates/ is listable");
    let manifests = crates
        .filter_map(|entry| std::fs::read_to_string(entry.ok()?.path().join("Cargo.toml")).ok());
    let mut names = Vec::new();
    for text in manifests.chain([read("Cargo.toml")]) {
        let mut in_bench = false;
        for line in text.lines().map(str::trim) {
            if line.starts_with('[') {
                in_bench = line == "[[bench]]";
            } else if let Some(name) = line.strip_prefix("name = \"").filter(|_| in_bench) {
                names.push(name.trim_end_matches('"').to_string());
            }
        }
    }
    names
}

/// Every rooted source path in `text`: a `crates/`, `tests/`, `examples/`
/// or `benchmark/` path ending in `.rs`, not preceded by another path
/// segment (a trailing `:line` or sentence period is not part of it).
fn path_citations(text: &str) -> Vec<String> {
    const ROOTS: [&str; 4] = ["crates/", "tests/", "examples/", "benchmark/"];
    text.split(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '/' | '_' | '-' | '.')))
        .map(|run| run.trim_end_matches('.'))
        .filter(|run| run.ends_with(".rs") && ROOTS.iter().any(|r| run.starts_with(r)))
        .map(str::to_string)
        .collect()
}

/// Every `Type::member` in `code` (`spex_core::Pump::step` cites
/// `Pump::step`).
fn member_citations(code: &str) -> Vec<(&str, &str)> {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    code.match_indices("::")
        .filter_map(|(at, _)| {
            let ty = code[..at].rsplit(|c| !ident(c)).next()?;
            let member = code[at + 2..].split(|c| !ident(c)).next()?;
            let lower = |c: char| c.is_ascii_lowercase() || c == '_';
            (ty.starts_with(|c: char| c.is_ascii_uppercase()) && member.starts_with(lower))
                .then_some((ty, member))
        })
        .collect()
}

/// Does the Rust `source` declare a type `ty` and a `fn member` or a
/// `member: ` field?
fn declares(source: &str, ty: &str, member: &str) -> bool {
    let found = |prefix: &str, name: &str, next: &[&str]| {
        let needle = format!("{prefix}{name}");
        source.match_indices(&needle).any(|(at, _)| {
            !source[..at].ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_')
                && next
                    .iter()
                    .any(|n| source[at + needle.len()..].starts_with(n))
        })
    };
    ["struct ", "enum ", "trait ", "type "]
        .iter()
        .any(|kind| found(kind, ty, &[" ", "<", "(", ";"]))
        && (found("fn ", member, &["(", "<"]) || found("", member, &[": "]))
}

/// All Rust source under `dir`, concatenated.
fn rust_source(dir: &Path) -> String {
    let entries = std::fs::read_dir(dir).into_iter().flatten().flatten();
    entries
        .map(|entry| match entry.path() {
            path if path.is_dir() => rust_source(&path),
            path if path.extension().is_some_and(|e| e == "rs") => {
                std::fs::read_to_string(path).unwrap_or_default()
            }
            _ => String::new(),
        })
        .collect()
}

/// Every `BENCH_<n>` in `text`, as the artifact file name it cites.
fn bench_citations(text: &str) -> Vec<String> {
    text.match_indices("BENCH_")
        .filter_map(|(at, _)| {
            let n: String = text[at + "BENCH_".len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            (!n.is_empty()).then(|| format!("BENCH_{n}.json"))
        })
        .collect()
}

#[test]
fn cited_artifacts_and_harness_subcommands_exist() {
    let subcommands = harness_subcommands();
    assert!(
        subcommands.contains(&("vm-diff".into(), true)),
        "{subcommands:?}"
    );
    let arms: Vec<String> = subcommands.iter().map(|(name, _)| name.clone()).collect();
    let targets = bench_targets();
    let source = rust_source(&root().join("crates")) + &rust_source(&root().join("src"));
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = read(doc);
        for (i, line) in text.lines().enumerate() {
            for file in bench_citations(line)
                .into_iter()
                .chain(path_citations(line))
            {
                if !root().join(&file).is_file() {
                    missing.push(format!("{doc}:{}: cites {file}, not in the tree", i + 1));
                }
            }
        }
        for (line, code) in code_pieces(&text) {
            for cmd in harness_citations(&code) {
                if !arms.contains(&cmd) {
                    missing.push(format!("{doc}:{line}: `harness {cmd}` is not a subcommand"));
                }
            }
            for name in bench_target_citations(&code) {
                if !targets.contains(&name) {
                    missing.push(format!(
                        "{doc}:{line}: `--bench {name}` is not a bench target"
                    ));
                }
            }
            for (ty, member) in member_citations(&code) {
                if !declares(&source, ty, member) {
                    missing.push(format!("{doc}:{line}: `{ty}::{member}` names nothing"));
                }
            }
            for (serve, flag) in spex_flag_citations(&code) {
                let (command, usage) = if serve {
                    ("spex serve", spex_cli::serve::SERVE_USAGE)
                } else {
                    ("spex", spex_cli::USAGE)
                };
                if !usage_lists(usage, &flag) {
                    missing.push(format!("{doc}:{line}: `{command} {flag}` is not an option"));
                }
            }
        }
    }
    // CI's harness runs (comments aside) cite only subcommands, and every
    // rig has one.
    let ci = read(".github/workflows/ci.yml");
    let mut ci_cited = Vec::new();
    for (i, line) in ci.lines().enumerate() {
        for cmd in harness_citations(line.split('#').next().unwrap_or("")) {
            if !arms.contains(&cmd) {
                missing.push(format!(
                    "ci.yml:{}: `harness {cmd}` is not a subcommand",
                    i + 1
                ));
            }
            ci_cited.push(cmd);
        }
    }
    for (rig, _) in subcommands.iter().filter(|(_, rig)| *rig) {
        if !ci_cited.contains(rig) {
            missing.push(format!("ci.yml runs no `harness {rig}`"));
        }
    }
    assert!(
        missing.is_empty(),
        "stale citations:\n{}",
        missing.join("\n")
    );
}

#[test]
fn the_scanners_find_what_they_should() {
    assert_eq!(
        harness_citations("cargo run -p spex-bench --bin harness -- vm-diff --cases 9"),
        ["vm-diff"]
    );
    assert_eq!(
        harness_citations("target/release/harness fig14; harness.rs; `harness`"),
        ["fig14"]
    );
    assert_eq!(
        bench_citations("BENCH_7.json, BENCH_6 and BENCH_*.json"),
        ["BENCH_7.json", "BENCH_6.json"]
    );
    assert_eq!(
        path_citations("see crates/core/src/vm.rs:490, tests/docs.rs. Not ./x/tests/a.rs"),
        ["crates/core/src/vm.rs", "tests/docs.rs"]
    );
    assert!(path_citations("crates/bench/benches/*.rs and tests/{a,b}.rs").is_empty());
    assert_eq!(
        bench_target_citations("cargo bench -p spex-bench --bench fig14; cargo bench --bench x"),
        ["fig14", "x"]
    );
    assert!(bench_target_citations("cargo bench --workspace; x --bench y").is_empty());
    assert_eq!(
        spex_flag_citations(
            "target/release/spex --count --trace-jsonl=/tmp/t 'a' f | harness --x; \
             cargo run --bin spex -- serve --addr 1 # --y; cargo test -p spex-cli -- --z; \
             spex --checkpoint/--resume, 2>&1 --w; harness smoke --spex bin/spex --v"
        ),
        [
            (false, "--count".to_string()),
            (false, "--trace-jsonl".to_string()),
            (true, "--addr".to_string()),
            (false, "--checkpoint".to_string()),
            (false, "--resume".to_string()),
        ]
    );
    assert!(usage_lists(
        "--limit-buffered-bytes N",
        "--limit-buffered-bytes"
    ));
    assert!(!usage_lists("--limit-buffered-bytes N", "--limit-buffered"));
    assert_eq!(
        member_citations("spex_core::Pump::step(budget), Vec::<u8>::new, A::b::C"),
        [("Pump", "step"), ("A", "b")]
    );
    assert!(declares(
        "pub struct P<S> {\n    pub step: u8,",
        "P",
        "step"
    ));
    assert!(!declares("struct PP; fn step_two(", "P", "step"));
    let md = "a `harness x` b\n```\nharness y\n```\nharness z";
    assert_eq!(
        code_pieces(md),
        [(1, "harness x".to_string()), (3, "harness y".to_string())]
    );
}
