//! Docs claim-check: every benchmark artifact and every harness subcommand
//! the user-facing documents cite must exist. A `BENCH_<n>` (with or
//! without `.json`) must name a file at the repository root, and a
//! `harness <subcommand>` inside code (an inline span or a fenced block)
//! must be an arm of the harness's `main` match. `benchmark/` is checked by
//! its own runner; ROADMAP.md and CHANGES.md are history and not scanned.

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

/// The subcommands `harness` dispatches on: the string patterns of the
/// match in its `fn main`.
fn harness_subcommands() -> Vec<String> {
    let src = read("crates/bench/src/bin/harness.rs");
    let main = src.split("\nfn main()").nth(1).expect("harness has a main");
    let main = &main[..main.find("\n}\n").expect("main ends")];
    main.lines()
        .filter_map(|l| l.trim().strip_prefix('"')?.split_once("\" =>"))
        .map(|(name, _)| name.to_string())
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
    let arms = harness_subcommands();
    assert!(arms.contains(&"vm-diff".to_string()), "arms: {arms:?}");
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = read(doc);
        for (i, line) in text.lines().enumerate() {
            for file in bench_citations(line) {
                if !root().join(&file).exists() {
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
    let md = "a `harness x` b\n```\nharness y\n```\nharness z";
    assert_eq!(
        code_pieces(md),
        [(1, "harness x".to_string()), (3, "harness y".to_string())]
    );
}
