//! Pluggable trace destinations.
//!
//! A [`TraceSink`] receives finished [`TraceRecord`]s. Three implementations
//! ship:
//!
//! * [`JsonlSink`] — one JSON object per line to any `Write` (the CLI's
//!   `--trace-jsonl PATH`, the server's tail-able live trace),
//! * [`MemorySink`] — collects records in memory for tests and for the
//!   CLI's `--trace-summary` rendering,
//! * [`TeeSink`] — fans every record out to several sinks.

use crate::record::TraceRecord;
use std::io::{BufWriter, Write};
use std::sync::Mutex;

/// A destination for trace records. Implementations must be cheap and must
/// never panic on I/O problems (drop the record instead: observability must
/// not take the observed system down).
pub trait TraceSink: Send + Sync {
    /// Deliver one record.
    fn emit(&self, record: &TraceRecord);
    /// Flush any buffering to the underlying medium.
    fn flush(&self) {}
    /// Force everything emitted so far down to the durable medium. Called at
    /// record boundaries by crash-sensitive producers so an abnormal exit
    /// loses at most the record being written. Default: no-op.
    fn sync(&self) {}
}

/// A line-per-record JSON sink over any writer (file, pipe, socket).
///
/// Records are buffered through a [`BufWriter`] and serialized with
/// [`TraceRecord::to_json`]; I/O errors are swallowed after latching a flag
/// readable via [`JsonlSink::had_error`].
pub struct JsonlSink {
    out: Mutex<BufWriter<Box<dyn Write + Send>>>,
    error: std::sync::atomic::AtomicBool,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("had_error", &self.had_error())
            .finish()
    }
}

impl JsonlSink {
    /// Wrap an arbitrary writer.
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            out: Mutex::new(BufWriter::new(out)),
            error: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Create (truncate) `path` and write records to it.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink::new(Box::new(file)))
    }

    /// True when any write or flush failed since creation.
    pub fn had_error(&self) -> bool {
        self.error.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn latch(&self, r: std::io::Result<()>) {
        if r.is_err() {
            self.error.store(true, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

impl TraceSink for JsonlSink {
    fn emit(&self, record: &TraceRecord) {
        let line = record.to_json();
        let mut out = match self.out.lock() {
            Ok(g) => g,
            Err(_) => return,
        };
        self.latch(out.write_all(line.as_bytes()));
        self.latch(out.write_all(b"\n"));
        // Flush at every record boundary: a crashed process must leave a
        // readable trace up to (at worst) the record in flight.
        let r = out.flush();
        self.latch(r);
    }

    fn flush(&self) {
        if let Ok(mut out) = self.out.lock() {
            let r = out.flush();
            self.latch(r);
        }
    }

    fn sync(&self) {
        TraceSink::flush(self);
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        TraceSink::flush(self);
    }
}

/// An in-memory sink for tests: records are cloned into a vector.
#[derive(Debug, Default)]
pub struct MemorySink {
    records: Mutex<Vec<TraceRecord>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Snapshot of everything emitted so far.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.records.lock().map(|g| g.clone()).unwrap_or_default()
    }

    /// Number of records emitted so far.
    pub fn len(&self) -> usize {
        self.records.lock().map(|g| g.len()).unwrap_or(0)
    }

    /// True when nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for MemorySink {
    fn emit(&self, record: &TraceRecord) {
        if let Ok(mut g) = self.records.lock() {
            g.push(record.clone());
        }
    }
}

/// A fan-out sink: every record goes to every child (the CLI uses this to
/// serve `--trace-jsonl` and `--trace-summary` from one instrumented run).
pub struct TeeSink {
    children: Vec<std::sync::Arc<dyn TraceSink>>,
}

impl std::fmt::Debug for TeeSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TeeSink")
            .field("children", &self.children.len())
            .finish()
    }
}

impl TeeSink {
    /// Fan out to `children`.
    pub fn new(children: Vec<std::sync::Arc<dyn TraceSink>>) -> Self {
        TeeSink { children }
    }
}

impl TraceSink for TeeSink {
    fn emit(&self, record: &TraceRecord) {
        for c in &self.children {
            c.emit(record);
        }
    }

    fn flush(&self) {
        for c in &self.children {
            c.flush();
        }
    }

    fn sync(&self) {
        for c in &self.children {
            c.sync();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Value;

    #[test]
    fn memory_sink_collects_in_order() {
        let sink = MemorySink::new();
        assert!(sink.is_empty());
        for i in 0..3u64 {
            sink.emit(&TraceRecord::Counter {
                name: format!("c{i}"),
                value: i,
                attrs: vec![],
            });
        }
        let records = sink.records();
        assert_eq!(records.len(), 3);
        assert_eq!(records[2].name(), "c2");
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        // Write through a shared Vec<u8> so the test can read it back.
        #[derive(Clone, Default)]
        struct SharedBuf(std::sync::Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = SharedBuf::default();
        let sink = JsonlSink::new(Box::new(buf.clone()));
        sink.emit(&TraceRecord::Span {
            name: "s".into(),
            us: 1,
            attrs: vec![("k".to_string(), Value::from("v"))],
        });
        sink.emit(&TraceRecord::Counter {
            name: "c".into(),
            value: 2,
            attrs: vec![],
        });
        TraceSink::flush(&sink);
        assert!(!sink.had_error());
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"t\":\"span\""));
        assert!(lines[1].starts_with("{\"t\":\"counter\""));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn jsonl_sink_is_durable_at_record_boundaries() {
        // Each emit must reach the underlying writer without an explicit
        // flush call, so a crash after emit loses nothing.
        #[derive(Clone, Default)]
        struct SharedBuf(std::sync::Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = SharedBuf::default();
        let sink = JsonlSink::new(Box::new(buf.clone()));
        sink.emit(&TraceRecord::Counter {
            name: "c".into(),
            value: 1,
            attrs: vec![],
        });
        // No flush() — the record must already be visible.
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.ends_with('\n'));
        assert!(text.contains("\"c\""));
        // sync() is flush for this sink and must not error.
        sink.sync();
        assert!(!sink.had_error());
    }

    #[test]
    fn jsonl_sink_latches_write_errors() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("nope"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("nope"))
            }
        }
        let sink = JsonlSink::new(Box::new(Failing));
        sink.emit(&TraceRecord::Counter {
            name: "c".into(),
            value: 1,
            attrs: vec![],
        });
        TraceSink::flush(&sink);
        assert!(sink.had_error());
    }
}
