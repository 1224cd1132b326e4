//! Engine instrumentation.
//!
//! §V of the paper bounds, per transducer, the depth-stack height (≤ stream
//! depth *d*), the condition-stack height (≤ *d*), the size of condition
//! formulas (*o(φ)*), and the output transducer's candidate buffer (worst
//! case linear in the stream size *s*, but only for fragments whose
//! membership is still undetermined). [`EngineStats`] records the measured
//! counterparts so the complexity experiments (E6/E7 in DESIGN.md) and the
//! bounded-memory tests on infinite streams (E11) can assert them.
//!
//! [`TransducerStats`] breaks the same measurements down per network node,
//! so a hot or stack-heavy transducer can be pinpointed (the paper states
//! its bounds *per transducer*; this is their measured counterpart). Both
//! are readable while the run is live ([`crate::Machine::stats`],
//! [`crate::Machine::transducer_stats`]).

/// Measured resource usage of one evaluation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Document messages pushed through the network (one per tick).
    pub ticks: u64,
    /// Total messages processed across all transducers.
    pub messages: u64,
    /// Largest condition formula observed in any activation message
    /// (the paper's o(φ)).
    pub max_formula_size: usize,
    /// Largest condition stack across all transducers at any tick.
    pub max_cond_stack: usize,
    /// Largest depth stack across all transducers at any tick
    /// (bounded by the stream depth *d*).
    pub max_depth_stack: usize,
    /// Maximum element nesting depth seen in the stream (*d*).
    pub max_stream_depth: usize,
    /// Peak number of events buffered by the output transducer for
    /// undetermined candidates.
    pub peak_buffered_events: usize,
    /// Peak number of simultaneously live (undetermined or still-open)
    /// candidates in the output transducer.
    pub peak_live_candidates: usize,
    /// Result candidates ever created.
    pub candidates_created: u64,
    /// Candidates that became results.
    pub results: u64,
    /// Candidates dropped because their condition became false.
    pub dropped: u64,
    /// Condition variables (qualifier instances) minted.
    pub vars_created: u64,
    /// High-water mark of the run's event arena, in bytes (payload bytes
    /// plus the fixed per-event and per-attribute records). This is the
    /// measured counterpart of the output buffer bound of §V: the arena
    /// holds exactly the events still reachable from undetermined
    /// candidates, plus the current tick.
    pub peak_arena_bytes: usize,
    /// Distinct labels interned by the run's symbol table.
    pub interned_symbols: usize,
}

impl EngineStats {
    /// Record an observed formula size.
    pub fn observe_formula(&mut self, size: usize) {
        self.max_formula_size = self.max_formula_size.max(size);
    }

    /// Record observed stack heights of one transducer.
    pub fn observe_stacks(&mut self, depth_stack: usize, cond_stack: usize) {
        self.max_depth_stack = self.max_depth_stack.max(depth_stack);
        self.max_cond_stack = self.max_cond_stack.max(cond_stack);
    }

    /// Fold another run's statistics into this aggregate: throughput
    /// counters add up, peak/maximum measurements take the larger value.
    /// This is how `spex-serve` rolls per-session statistics into its
    /// server-wide totals.
    pub fn absorb(&mut self, other: &EngineStats) {
        self.ticks += other.ticks;
        self.messages += other.messages;
        self.candidates_created += other.candidates_created;
        self.results += other.results;
        self.dropped += other.dropped;
        self.vars_created += other.vars_created;
        self.max_formula_size = self.max_formula_size.max(other.max_formula_size);
        self.max_cond_stack = self.max_cond_stack.max(other.max_cond_stack);
        self.max_depth_stack = self.max_depth_stack.max(other.max_depth_stack);
        self.max_stream_depth = self.max_stream_depth.max(other.max_stream_depth);
        self.peak_buffered_events = self.peak_buffered_events.max(other.peak_buffered_events);
        self.peak_live_candidates = self.peak_live_candidates.max(other.peak_live_candidates);
        self.peak_arena_bytes = self.peak_arena_bytes.max(other.peak_arena_bytes);
        self.interned_symbols = self.interned_symbols.max(other.interned_symbols);
    }
}

/// Escape `s` for inclusion in a JSON string literal (the workspace has no
/// serde dependency; every JSON producer hand-rolls through this).
pub fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Render run statistics as one line of JSON. This is *the* stats schema:
/// the one-shot CLI (`--stats-json`), the server's `STAT` frames and
/// `--stats-json` exit dump all emit exactly these bytes, so the bench
/// tooling parses every producer with one scanner. Under a recovery policy
/// a `faults` section is appended; plain runs emit no `faults` key at all.
pub fn stats_json(
    stats: &EngineStats,
    transducers: &[TransducerStats],
    report: Option<&crate::recover::RunReport>,
) -> String {
    let mut out = format!(
        "{{\"ticks\":{},\"messages\":{},\"max_formula_size\":{},\"max_cond_stack\":{},\
         \"max_depth_stack\":{},\"max_stream_depth\":{},\"peak_buffered_events\":{},\
         \"peak_live_candidates\":{},\"candidates_created\":{},\"results\":{},\
         \"dropped\":{},\"vars_created\":{},\"peak_arena_bytes\":{},\
         \"interned_symbols\":{},\"transducers\":[",
        stats.ticks,
        stats.messages,
        stats.max_formula_size,
        stats.max_cond_stack,
        stats.max_depth_stack,
        stats.max_stream_depth,
        stats.peak_buffered_events,
        stats.peak_live_candidates,
        stats.candidates_created,
        stats.results,
        stats.dropped,
        stats.vars_created,
        stats.peak_arena_bytes,
        stats.interned_symbols,
    );
    for (i, t) in transducers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"node\":{},\"kind\":\"{}\",\"messages\":{},\"max_depth_stack\":{},\
             \"max_cond_stack\":{},\"max_formula_size\":{}}}",
            t.node,
            json_escape(&t.kind),
            t.messages,
            t.max_depth_stack,
            t.max_cond_stack,
            t.max_formula_size,
        ));
    }
    out.push(']');
    if let Some(report) = report {
        out.push_str(&format!(
            ",\"faults\":{{\"total\":{},\"truncated\":{},\"delivered\":{},\"quarantined\":{},\
             \"by_kind\":{{",
            report.faults.len(),
            report.truncated,
            report.results,
            report.dropped,
        ));
        let mut first_kind = true;
        for kind in spex_xml::FaultKind::ALL {
            let n = report.fault_count(kind);
            if n == 0 {
                continue;
            }
            if !first_kind {
                out.push(',');
            }
            first_kind = false;
            out.push_str(&format!("\"{}\":{n}", kind.as_str()));
        }
        out.push('}');
        fn pos_json(label: &str, f: &spex_xml::Fault) -> String {
            format!(
                ",\"{label}\":{{\"kind\":\"{}\",\"offset\":{},\"line\":{},\"column\":{}}}",
                f.kind.as_str(),
                f.position.offset,
                f.position.line,
                f.position.column,
            )
        }
        if let (Some(first), Some(last)) = (report.faults.first(), report.faults.last()) {
            out.push_str(&pos_json("first", first));
            out.push_str(&pos_json("last", last));
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// Per-transducer measurements: one snapshot row per network node, in
/// topological order. The sum of `messages` over all rows equals
/// [`EngineStats::messages`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransducerStats {
    /// The node's id in the network (topological order).
    pub node: usize,
    /// The node's description in the paper's notation, e.g. `CH(a)`.
    pub kind: String,
    /// Messages this node consumed.
    pub messages: u64,
    /// Largest depth stack this node held at any tick.
    pub max_depth_stack: usize,
    /// Largest condition stack this node held at any tick.
    pub max_cond_stack: usize,
    /// Largest condition formula in any message this node consumed.
    pub max_formula_size: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_keep_maxima() {
        let mut s = EngineStats::default();
        s.observe_formula(3);
        s.observe_formula(1);
        assert_eq!(s.max_formula_size, 3);
        s.observe_stacks(2, 5);
        s.observe_stacks(4, 1);
        assert_eq!(s.max_depth_stack, 4);
        assert_eq!(s.max_cond_stack, 5);
    }
}
