//! Progressive result delivery.
//!
//! The output transducer emits result fragments — the range of document
//! messages from a matched `<l>` to its `</l>` — in document order, as soon
//! as (a) the fragment's condition formula is determined true and (b) all
//! earlier candidates are decided (§III.8). A [`ResultSink`] receives those
//! fragments event by event; the `tick` arguments let tests assert
//! *progressiveness* (content of "past condition" results is delivered
//! before the stream ends).
//!
//! Sinks receive borrowed [`RawEvent`] views into the run's event arena —
//! the zero-copy end of the pipeline. A sink that needs to keep an event
//! past the callback (the recovery quarantine of [`crate::Pump`]) converts it
//! with [`RawEvent::to_owned_event`]; the built-in sinks serialize or count
//! without ever materializing owned events.

use spex_xml::RawEvent;

/// Metadata identifying a result fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResultMeta {
    /// The tick (document-message index, 0-based from `<$>`) at which the
    /// fragment's opening message appeared in the stream. This uniquely
    /// identifies the result node, which the equivalence tests exploit.
    pub start_tick: u64,
}

/// Receives result fragments progressively.
pub trait ResultSink {
    /// A fragment begins. `now` is the current tick (when this became known).
    fn begin(&mut self, meta: ResultMeta, now: u64);
    /// One event of the current fragment, in document order. The view
    /// borrows from the run's event arena and is only valid for the call.
    fn event(&mut self, event: &RawEvent<'_>, now: u64);
    /// The current fragment is complete.
    fn end(&mut self, now: u64);
    /// Hand everything delivered so far to the outside world. [`crate::Pump`]
    /// calls it whenever it hands control back without having spent its
    /// budget — before the caller blocks on input, at a document boundary,
    /// on an error and after the final drain — so a sink that buffers its
    /// output loses no earliness the reader could have observed.
    fn flush(&mut self) {}
}

/// A borrowed sink is a sink: a run that owns its sinks by value takes
/// `&mut FragmentCollector` or `&mut dyn ResultSink` like any other `S`.
impl<T: ResultSink + ?Sized> ResultSink for &mut T {
    fn begin(&mut self, meta: ResultMeta, now: u64) {
        (**self).begin(meta, now);
    }

    fn event(&mut self, event: &RawEvent<'_>, now: u64) {
        (**self).event(event, now);
    }

    fn end(&mut self, now: u64) {
        (**self).end(now);
    }

    fn flush(&mut self) {
        (**self).flush();
    }
}

/// Collects fragments as serialized XML strings.
///
/// Serialization is incremental: each event is written into the fragment's
/// byte buffer as it arrives, so nothing is buffered as events — the arena
/// can recycle the payload immediately after the callback returns.
#[derive(Default)]
pub struct FragmentCollector {
    fragments: Vec<String>,
    current: Option<spex_xml::Writer<Vec<u8>>>,
    /// `(start_tick, first_delivery_tick)` per fragment, for progressiveness
    /// assertions.
    pub timing: Vec<(u64, u64)>,
}

impl std::fmt::Debug for FragmentCollector {
    // Manual impl: `spex_xml::Writer` is not `Debug`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FragmentCollector")
            .field("fragments", &self.fragments)
            .field("in_fragment", &self.current.is_some())
            .field("timing", &self.timing)
            .finish()
    }
}

impl FragmentCollector {
    /// An empty collector.
    pub fn new() -> Self {
        FragmentCollector::default()
    }

    /// The collected fragments, serialized compactly.
    pub fn fragments(&self) -> &[String] {
        &self.fragments
    }

    /// Consume the collector, returning the fragments.
    pub fn into_fragments(self) -> Vec<String> {
        self.fragments
    }
}

impl ResultSink for FragmentCollector {
    fn begin(&mut self, meta: ResultMeta, now: u64) {
        self.current = Some(spex_xml::Writer::new(Vec::new()));
        self.timing.push((meta.start_tick, now));
    }

    fn event(&mut self, event: &RawEvent<'_>, _now: u64) {
        if let Some(w) = &mut self.current {
            w.write_view(event)
                .expect("writing a fragment to a Vec cannot fail");
        }
    }

    fn end(&mut self, _now: u64) {
        if let Some(w) = self.current.take() {
            let bytes = w.into_inner().expect("flush to Vec cannot fail");
            self.fragments
                .push(String::from_utf8(bytes).expect("writer output is valid UTF-8"));
        }
    }
}

/// Counts results without storing them (for throughput benchmarks).
#[derive(Debug, Default)]
pub struct CountingSink {
    /// Number of complete fragments received.
    pub results: usize,
    /// Number of events received across all fragments.
    pub events: usize,
}

impl CountingSink {
    /// A zeroed counter.
    pub fn new() -> Self {
        CountingSink::default()
    }
}

impl ResultSink for CountingSink {
    fn begin(&mut self, _meta: ResultMeta, _now: u64) {}

    fn event(&mut self, _event: &RawEvent<'_>, _now: u64) {
        self.events += 1;
    }

    fn end(&mut self, _now: u64) {
        self.results += 1;
    }
}

/// Writes result fragments to an [`std::io::Write`] sink, one fragment per
/// line, **before the program would wait for input**. This is SPEX's
/// progressive delivery made visible: for past-condition queries, output
/// appears while the input is still streaming in.
///
/// Fragments are serialized into one reusable buffer, allocated by the first
/// result. The buffer reaches `out` — one `write_all`, then `out.flush()` —
/// on [`ResultSink::flush`], which [`crate::Pump`] calls whenever it would
/// block on input, at every document boundary, on an error and at the end;
/// and, without the `flush`, whenever 64 KiB are buffered. A result is
/// therefore never held while the program waits, and a fast producer costs
/// one `write_all` per input read instead of one write per fragment. A
/// caller that drives a run without a pump calls [`ResultSink::flush`]
/// itself.
///
/// Write errors are sticky: the first one is kept and delivery stops;
/// inspect it with [`StreamingSink::take_error`].
pub struct StreamingSink<W: std::io::Write> {
    /// Serialized bytes not yet handed to `out`.
    buffer: spex_xml::Writer<Vec<u8>>,
    out: W,
    error: Option<spex_xml::XmlError>,
    /// Completed fragments so far.
    pub results: usize,
}

/// Buffered bytes at which a [`StreamingSink`] writes them out unasked.
const HIGH_WATER: usize = 64 << 10;

impl<W: std::io::Write> StreamingSink<W> {
    /// Stream fragments to `out`.
    pub fn new(out: W) -> Self {
        StreamingSink {
            buffer: spex_xml::Writer::new(Vec::new()),
            out,
            error: None,
            results: 0,
        }
    }

    /// The first write error, if any occurred.
    pub fn take_error(&mut self) -> Option<spex_xml::XmlError> {
        self.error.take()
    }

    /// Hand the buffered bytes to `out` (without flushing it) and empty the
    /// buffer, keeping its capacity.
    fn write_out(&mut self) {
        let buffered = self.buffer.get_mut();
        if self.error.is_none() && !buffered.is_empty() {
            if let Err(e) = self.out.write_all(buffered) {
                self.error = Some(e.into());
            }
        }
        buffered.clear();
    }
}

impl<W: std::io::Write> ResultSink for StreamingSink<W> {
    fn begin(&mut self, _meta: ResultMeta, _now: u64) {}

    fn event(&mut self, event: &RawEvent<'_>, _now: u64) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.buffer.write_view(event) {
            self.error = Some(e);
        } else if self.buffer.get_mut().len() >= HIGH_WATER {
            self.write_out();
        }
    }

    fn end(&mut self, _now: u64) {
        self.results += 1;
        if self.error.is_none() {
            self.buffer.get_mut().push(b'\n');
        }
    }

    fn flush(&mut self) {
        self.write_out();
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e.into());
            }
        }
    }
}

/// Serializes each fragment into a private buffer and hands the completed
/// bytes to a callback — the serialization is byte-identical to
/// [`StreamingSink`] minus the trailing newline (same [`spex_xml::Writer`]).
/// The buffer is one for the sink's lifetime: cleared after each delivery,
/// it keeps its capacity, so steady-state delivery allocates nothing.
///
/// Within-fragment progressiveness is traded for whole fragments that can
/// be labeled and interleaved safely. Neither the CLI (`TaggedSink`) nor
/// `spex-serve` (`SessionSink`) uses it; `benchmark/trace` does.
pub struct FragmentFnSink<F: FnMut(&[u8])> {
    /// The fragment being serialized.
    buffer: spex_xml::Writer<Vec<u8>>,
    deliver: F,
    /// Completed fragments so far.
    pub results: u64,
}

impl<F: FnMut(&[u8])> FragmentFnSink<F> {
    /// Deliver each completed fragment's serialized bytes to `deliver`.
    pub fn new(deliver: F) -> Self {
        FragmentFnSink {
            buffer: spex_xml::Writer::new(Vec::new()),
            deliver,
            results: 0,
        }
    }
}

impl<F: FnMut(&[u8])> ResultSink for FragmentFnSink<F> {
    fn begin(&mut self, _meta: ResultMeta, _now: u64) {}

    fn event(&mut self, event: &RawEvent<'_>, _now: u64) {
        self.buffer
            .write_view(event)
            .expect("writing a fragment to a Vec cannot fail");
    }

    fn end(&mut self, _now: u64) {
        self.results += 1;
        let bytes = self.buffer.get_mut();
        (self.deliver)(bytes);
        bytes.clear();
    }
}

/// A run's sinks: one per *logical* query, in query order, owned by value.
///
/// The multi-query combiner (`spex-combine`) deduplicates queries whose
/// canonical forms are equal, so one physical OU may serve several
/// registrations: the slot table, built once per run from `slot_of`, maps
/// each physical slot to the logical sinks behind it. Fan-out happens at
/// result-delivery time — the rare path — so aliased queries add zero
/// per-event cost.
pub(crate) struct SinkBank<S> {
    pub(crate) sinks: Vec<S>,
    /// `logical[base[slot]..base[slot + 1]]` are slot's logical sink indices,
    /// in registration order.
    base: Vec<u32>,
    logical: Vec<u32>,
}

impl<S> SinkBank<S> {
    /// `slot_of[i]` names the physical slot `sinks[i]` feeds from; `slots`
    /// is the number of physical sinks.
    ///
    /// # Panics
    ///
    /// If `sinks` and `slot_of` disagree in length, a slot index is out of
    /// range, or a physical slot ends up with no logical sink (every
    /// physical sink must deliver somewhere).
    pub(crate) fn new(sinks: Vec<S>, slot_of: &[usize], slots: usize) -> Self {
        assert_eq!(
            sinks.len(),
            slot_of.len(),
            "{} sink(s) provided for {} logical queries",
            sinks.len(),
            slot_of.len()
        );
        let mut base = vec![0u32; slots + 1];
        for &slot in slot_of {
            assert!(slot < slots, "sink slot {slot} out of range ({slots})");
            base[slot + 1] += 1;
        }
        for slot in 0..slots {
            assert!(
                base[slot + 1] > 0,
                "physical sink {slot} has no logical sink"
            );
            base[slot + 1] += base[slot];
        }
        let mut next = base.clone();
        let mut logical = vec![0u32; slot_of.len()];
        for (i, &slot) in slot_of.iter().enumerate() {
            logical[next[slot] as usize] = i as u32;
            next[slot] += 1;
        }
        SinkBank {
            sinks,
            base,
            logical,
        }
    }

    /// The same slot table over `wrap(sink)` for each sink.
    pub(crate) fn map<T>(self, wrap: impl FnMut(S) -> T) -> SinkBank<T> {
        SinkBank {
            sinks: self.sinks.into_iter().map(wrap).collect(),
            base: self.base,
            logical: self.logical,
        }
    }
}

/// A run's sinks with the sink type erased, addressed by physical slot. This
/// is how the VM's tick loop sees them, so that loop is compiled once — in
/// this crate, next to the transducers it steps — whatever `S` a run
/// delivers to.
pub(crate) trait SlotSinks {
    /// Hand every logical sink behind `slot` to `deliver`, in registration
    /// order.
    fn for_slot(&mut self, slot: usize, deliver: &mut dyn FnMut(&mut dyn ResultSink));
}

impl<S: ResultSink> SlotSinks for SinkBank<S> {
    fn for_slot(&mut self, slot: usize, deliver: &mut dyn FnMut(&mut dyn ResultSink)) {
        for &t in &self.logical[self.base[slot] as usize..self.base[slot + 1] as usize] {
            deliver(&mut self.sinks[t as usize]);
        }
    }
}

/// One physical slot of a run's sinks — what an output transducer delivers
/// to: every logical sink behind the slot receives every callback.
pub(crate) struct Slot<'a>(pub(crate) &'a mut dyn SlotSinks, pub(crate) usize);

impl ResultSink for Slot<'_> {
    fn begin(&mut self, meta: ResultMeta, now: u64) {
        self.0.for_slot(self.1, &mut |s| s.begin(meta, now));
    }

    fn event(&mut self, event: &RawEvent<'_>, now: u64) {
        self.0.for_slot(self.1, &mut |s| s.event(event, now));
    }

    fn end(&mut self, now: u64) {
        self.0.for_slot(self.1, &mut |s| s.end(now));
    }
}

/// Collects only the start ticks of result fragments — the node identities.
/// This is what the SPEX-vs-baseline equivalence tests compare.
#[derive(Debug, Default)]
pub struct SpanCollector {
    /// Start tick of each result, in emission (document) order.
    pub starts: Vec<u64>,
}

impl SpanCollector {
    /// An empty collector.
    pub fn new() -> Self {
        SpanCollector::default()
    }
}

impl ResultSink for SpanCollector {
    fn begin(&mut self, meta: ResultMeta, _now: u64) {
        self.starts.push(meta.start_tick);
    }

    fn event(&mut self, _event: &RawEvent<'_>, _now: u64) {}

    fn end(&mut self, _now: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use spex_xml::{RawEvent, XmlEvent};

    #[test]
    fn fragment_collector_serializes() {
        let mut c = FragmentCollector::new();
        c.begin(ResultMeta { start_tick: 3 }, 5);
        c.event(&RawEvent::from_event(&XmlEvent::open("a")), 5);
        c.event(&RawEvent::Text("x"), 6);
        c.event(&RawEvent::from_event(&XmlEvent::close("a")), 7);
        c.end(7);
        assert_eq!(c.fragments(), ["<a>x</a>".to_string()]);
        assert_eq!(c.timing, vec![(3, 5)]);
    }

    #[test]
    fn counting_sink_counts() {
        let mut c = CountingSink::new();
        for _ in 0..2 {
            c.begin(ResultMeta { start_tick: 0 }, 0);
            c.event(&RawEvent::from_event(&XmlEvent::open("a")), 0);
            c.event(&RawEvent::from_event(&XmlEvent::close("a")), 0);
            c.end(0);
        }
        assert_eq!(c.results, 2);
        assert_eq!(c.events, 4);
    }

    #[test]
    fn streaming_sink_writes_progressively() {
        let mut out = Vec::new();
        {
            let mut s = StreamingSink::new(&mut out);
            s.begin(ResultMeta { start_tick: 1 }, 1);
            s.event(&RawEvent::from_event(&XmlEvent::open("a")), 1);
            s.event(&RawEvent::Text("x"), 2);
            s.event(&RawEvent::from_event(&XmlEvent::close("a")), 3);
            s.end(3);
            s.flush();
            assert_eq!(s.results, 1);
            assert!(s.take_error().is_none());
        }
        assert_eq!(String::from_utf8(out).unwrap(), "<a>x</a>\n");
    }

    #[test]
    fn streaming_sink_keeps_first_write_error() {
        struct Broken;
        impl std::io::Write for Broken {
            fn write(&mut self, _b: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("nope"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut s = StreamingSink::new(Broken);
        s.begin(ResultMeta { start_tick: 0 }, 0);
        s.event(&RawEvent::from_event(&XmlEvent::open("a")), 0);
        s.event(&RawEvent::from_event(&XmlEvent::close("a")), 0);
        s.end(0);
        assert!(
            s.take_error().is_none(),
            "nothing is written before a flush"
        );
        s.flush();
        assert!(s.take_error().is_some());
    }

    /// Without a flush, the buffer goes out only once 64 KiB are pending,
    /// and then in one `write` — never one per fragment.
    #[test]
    fn streaming_sink_writes_unasked_only_past_the_high_water_mark() {
        #[derive(Default)]
        struct Writes(Vec<usize>);
        impl std::io::Write for Writes {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.push(b.len());
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut s = StreamingSink::new(Writes::default());
        let fragment = "<a>x</a>\n".len();
        let mut delivered = 0;
        while delivered < HIGH_WATER + fragment {
            s.begin(ResultMeta { start_tick: 0 }, 0);
            s.event(&RawEvent::from_event(&XmlEvent::open("a")), 0);
            s.event(&RawEvent::Text("x"), 0);
            s.event(&RawEvent::from_event(&XmlEvent::close("a")), 0);
            s.end(0);
            delivered += fragment;
        }
        assert_eq!(s.out.0.len(), 1, "one write at the high-water mark");
        assert!(s.out.0[0] >= HIGH_WATER);
        s.flush();
        assert_eq!(s.out.0.iter().sum::<usize>(), delivered);
        assert!(s.take_error().is_none());
    }

    /// Three fragments with text and attributes arrive byte-identical to
    /// the collector's, through the one reused buffer.
    #[test]
    fn fragment_fn_sink_matches_the_collector() {
        let open_with = |name: &str, key: &str, value: &str| XmlEvent::StartElement {
            name: name.into(),
            attributes: vec![spex_xml::Attribute::new(key, value)],
        };
        let fragments = [
            vec![
                open_with("a", "k", "v & w"),
                XmlEvent::text("x < y"),
                XmlEvent::close("a"),
            ],
            vec![XmlEvent::open("b"), XmlEvent::close("b")],
            vec![
                open_with("c", "n", "1"),
                XmlEvent::open("d"),
                XmlEvent::text("t"),
                XmlEvent::close("d"),
                XmlEvent::close("c"),
            ],
        ];
        let mut delivered = Vec::new();
        let mut collector = FragmentCollector::new();
        {
            let mut s = FragmentFnSink::new(|b: &[u8]| delivered.push(b.to_vec()));
            for (i, events) in fragments.iter().enumerate() {
                let meta = ResultMeta {
                    start_tick: i as u64,
                };
                s.begin(meta, 0);
                collector.begin(meta, 0);
                for ev in events {
                    s.event(&RawEvent::from_event(ev), 0);
                    collector.event(&RawEvent::from_event(ev), 0);
                }
                s.end(0);
                collector.end(0);
            }
            assert_eq!(s.results, 3);
        }
        let delivered: Vec<String> = delivered
            .into_iter()
            .map(|b| String::from_utf8(b).unwrap())
            .collect();
        assert_eq!(delivered, collector.fragments());
        assert_eq!(delivered[0], r#"<a k="v &amp; w">x &lt; y</a>"#);
    }

    #[test]
    fn sink_bank_fans_out_to_every_alias() {
        // Logical sinks 0 and 2 alias physical slot 0; sink 1 is alone on
        // slot 1.
        let sinks = (0..3).map(|_| CountingSink::new()).collect();
        let mut bank = SinkBank::new(sinks, &[0, 1, 0], 2);
        let mut shared = Slot(&mut bank, 0);
        shared.begin(ResultMeta { start_tick: 4 }, 4);
        shared.event(&RawEvent::from_event(&XmlEvent::open("x")), 4);
        shared.end(5);
        let [a, b, c] = &bank.sinks[..] else {
            unreachable!()
        };
        assert_eq!((a.results, b.results, c.results), (1, 0, 1));
        assert_eq!((a.events, c.events), (1, 1));
    }

    #[test]
    #[should_panic(expected = "physical sink 1 has no logical sink")]
    fn sink_bank_rejects_unserved_slots() {
        let _ = SinkBank::new(vec![CountingSink::new()], &[0], 2);
    }

    #[test]
    fn span_collector_records_starts() {
        let mut c = SpanCollector::new();
        c.begin(ResultMeta { start_tick: 2 }, 9);
        c.end(9);
        c.begin(ResultMeta { start_tick: 7 }, 9);
        c.end(9);
        assert_eq!(c.starts, vec![2, 7]);
    }
}
