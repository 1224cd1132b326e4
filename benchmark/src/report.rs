//! What the benchmark prints: every metric by name with its unit, the
//! one-line JSON result of the runner's contract, `BENCHMARK.json` itself
//! (generated from the tables here, so the two cannot drift), and the
//! self-check of all of it.

pub use crate::workload::Reported;
use crate::workload::{MetricDef, Workload, END_TO_END};

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 15;

/// One per-layer metric as `BENCHMARK.json` declares it (no bound), with
/// the prediction written down before measuring: which end-to-end metric it
/// should move, on which workload. README.md carries the same table.
pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> LayerDef {
    LayerDef { name, unit, better }
}

/// The per-layer metrics of the traced pass; layers are the repo's modules.
pub const PER_LAYER: [LayerDef; 46] = [
    layer("op_p90_ms", "ms", "lower"),
    layer("result_lag_p50_ms", "ms", "lower"),
    layer("result_lag_p99_ms", "ms", "lower"),
    layer("query.parse.self_us", "us", "lower"),
    layer("core.compile.self_us", "us", "lower"),
    layer("combine.self_ms", "ms", "lower"),
    layer("combine.distinct", "count", "lower"),
    layer("combine.degree", "count", "lower"),
    layer("xml.reader.self_ms", "ms", "lower"),
    layer("xml.reader.events", "count", "lower"),
    layer("xml.reader.bytes", "bytes", "lower"),
    layer("xml.reader.allocs_per_event", "1/event", "lower"),
    layer("xml.store.peak_arena_bytes", "bytes", "lower"),
    layer("xml.symbol.interned", "count", "lower"),
    layer("core.vm.self_ms", "ms", "lower"),
    layer("core.vm.ticks", "count", "lower"),
    layer("core.vm.messages_per_event", "1/event", "lower"),
    layer("core.vm.allocs_per_event", "1/event", "lower"),
    layer("core.vm.max_formula_size", "count", "lower"),
    layer("core.vm.vars_created", "count", "lower"),
    layer("core.output.candidates_created", "count", "lower"),
    layer("core.output.results", "count", "higher"),
    layer("core.output.dropped", "count", "lower"),
    layer("core.output.useful_ratio", "ratio", "higher"),
    layer("core.output.peak_buffered_events", "count", "lower"),
    layer("core.output.peak_live_candidates", "count", "lower"),
    layer("core.output.determination_p50_events", "events", "lower"),
    layer("core.output.determination_p99_events", "events", "lower"),
    layer("core.sink.self_ms", "ms", "lower"),
    layer("core.sink.result_bytes", "bytes", "lower"),
    layer("core.sink.allocs_per_result", "1/result", "lower"),
    layer("cli.self_ms", "ms", "lower"),
    layer("process.self_ms", "ms", "lower"),
    layer("serve.protocol.decode_self_ms", "ms", "lower"),
    layer("serve.protocol.encode_self_ms", "ms", "lower"),
    layer("serve.protocol.frames_in", "count", "lower"),
    layer("serve.protocol.frames_out", "count", "lower"),
    layer("serve.session.residual_ms", "ms", "lower"),
    layer("serve.admission_wait_p99_us", "us", "lower"),
    layer("serve.session_p50_us", "us", "lower"),
    layer("serve.ctx_switches_per_op", "1/op", "lower"),
    layer("serve.first_result_p50_ms", "ms", "lower"),
    layer("gen.late_p99_ms", "ms", "lower"),
    layer("gen.setup_s", "s", "lower"),
    layer("trace.coverage", "ratio", "higher"),
    layer("trace.overhead_frac", "ratio", "lower"),
];

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_string(w.name()),
                json_string(w.why())
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// Print one metric as a line a person can read.
pub fn print_metric(workload: Workload, metric: &Reported, bound: Option<f64>) {
    let bound = bound
        .map(|b| format!("  bound {:.0}%", b * 100.0))
        .unwrap_or_default();
    println!(
        "{:<13} {:<40} {:>14.4} {:<8} n={}{}",
        workload.name(),
        metric.name,
        metric.value,
        metric.unit,
        metric.samples,
        bound
    );
}

/// The last line of a run: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`; values with all their digits.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Reported]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                m.value,
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// The number that follows `keys` in `json`, each key looked for after the
/// one before it: `json_number(line, &["op_p50_ms", "value"])`. Enough to
/// read back the benchmark's own result line and the server's `t` frame.
pub fn json_number(json: &str, keys: &[&str]) -> Option<f64> {
    let mut rest = json;
    for key in keys {
        let quoted = format!("\"{key}\"");
        rest = &rest[rest.find(&quoted)? + quoted.len()..];
    }
    let number = rest.trim_start_matches([':', ' ']);
    let end = number
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(number.len());
    number[..end].parse().ok()
}

fn name_ok(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Check the declared tables against the runner's limits, and — when the
/// file is there — `BENCHMARK.json` against [`manifest`].
pub fn check_tables(manifest_on_disk: Option<&str>) -> Vec<String> {
    let mut problems = Vec::new();
    let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|m| m.name));
    for name in &names {
        if !name_ok(name) {
            problems.push(format!("name `{name}` is outside [A-Za-z0-9_.-]{{1,64}}"));
        }
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    for pair in sorted.windows(2).filter(|pair| pair[0] == pair[1]) {
        problems.push(format!("name `{}` is used twice", pair[0]));
    }
    let units = END_TO_END.iter().map(|m| (m.name, m.unit));
    for (name, unit) in units.chain(PER_LAYER.iter().map(|m| (m.name, m.unit))) {
        if !unit_ok(unit) {
            problems.push(format!("metric `{name}` has no valid unit (`{unit}`)"));
        }
    }
    for MetricDef { name, bound, .. } in &END_TO_END {
        if !(*bound > 0.0 && *bound <= 0.25) {
            problems.push(format!("bound of `{name}` is outside (0, 0.25]"));
        }
    }
    if !END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower")
    {
        problems.push("no `setup_s` metric in s, lower is better".to_string());
    }
    if Workload::ALL.len() > 8 || END_TO_END.len() > 16 || PER_LAYER.len() > 128 {
        problems.push("more than 8 workloads, 16 end-to-end or 128 per-layer metrics".to_string());
    }
    for w in Workload::ALL {
        if w.why().len() > 200 || w.why().contains('\n') {
            problems.push(format!(
                "`why` of {} is not one line of at most 200 characters",
                w.name()
            ));
        }
    }
    if let Some(on_disk) = manifest_on_disk {
        if on_disk != manifest() {
            problems.push(
                "BENCHMARK.json differs from the benchmark's tables \
                 (regenerate it: benchmark/run.sh --print-manifest > BENCHMARK.json)"
                    .to_string(),
            );
        }
    }
    problems
}

/// Check one run's emitted values: each declared metric exactly once, in
/// order, finite, and (end-to-end) never zero.
pub fn check_values(declared: &[&'static str], emitted: &[Reported], nonzero: bool) -> Vec<String> {
    let mut problems = Vec::new();
    let names: Vec<&str> = emitted.iter().map(|m| m.name).collect();
    if names != declared {
        problems.push(format!(
            "emitted metrics {names:?} are not the declared {declared:?}"
        ));
    }
    for m in emitted {
        if !m.value.is_finite() || (nonzero && m.value == 0.0) {
            problems.push(format!("metric `{}` has the value {}", m.name, m.value));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_pass_their_own_check() {
        assert_eq!(check_tables(None), Vec::<String>::new());
        assert_eq!(check_tables(Some(&manifest())), Vec::<String>::new());
        assert_eq!(check_tables(Some("{}")).len(), 1);
    }

    #[test]
    fn json_number_reads_nested_keys() {
        let t = r#"{"admission_wait_us":{"count":2,"p99":17},"session_us":{"p50":4.5e3}}"#;
        assert_eq!(json_number(t, &["admission_wait_us", "p99"]), Some(17.0));
        assert_eq!(json_number(t, &["session_us", "p50"]), Some(4500.0));
        assert_eq!(json_number(t, &["missing"]), None);
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let line = result_line(
            true,
            3,
            0,
            &[Reported {
                name: "op_p50_ms",
                unit: "ms",
                value: 1.203_456_789_012_3,
                samples: 3,
            }],
        );
        assert_eq!(
            json_number(&line, &["op_p50_ms", "value"]),
            Some(1.203_456_789_012_3)
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"op_p50_ms\": {\"value\": 1.2034567890123, \"unit\": \"ms\"}}}"
        );
    }
}
