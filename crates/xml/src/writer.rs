//! Serialization of event streams back to XML text.
//!
//! [`Writer`] is the inverse of [`crate::Reader`]: it consumes
//! [`XmlEvent`]s and produces well-formed XML text, escaping character data
//! and attribute values. It is used by the SPEX output transducer to emit
//! result fragments and by the workload generators to stream synthetic
//! documents to disk without materializing them.

use crate::error::{Result, XmlError};
use crate::escape::{escape_attr, escape_text};
use crate::event::XmlEvent;
use crate::store::RawEvent;
use std::io::Write;

/// Configuration for a [`Writer`].
#[derive(Debug, Clone, Default)]
pub struct WriteOptions {
    /// Emit an `<?xml version="1.0"?>` declaration at `StartDocument`.
    pub declaration: bool,
    /// Pretty-print with this many spaces per nesting level (`None` = compact).
    pub indent: Option<usize>,
}

/// An event-stream serializer. See the [module documentation](self).
pub struct Writer<W: Write> {
    out: W,
    options: WriteOptions,
    depth: usize,
    /// Whether the current line already has content (pretty-printing).
    midline: bool,
    /// Stack telling whether the current element has element/text children so
    /// far (controls indentation of the close tag).
    had_children: Vec<bool>,
}

impl<W: Write> Writer<W> {
    /// Create a compact writer.
    pub fn new(out: W) -> Self {
        Writer::with_options(out, WriteOptions::default())
    }

    /// Create a writer with explicit options.
    pub fn with_options(out: W, options: WriteOptions) -> Self {
        Writer {
            out,
            options,
            depth: 0,
            midline: false,
            had_children: Vec::new(),
        }
    }

    /// Write one owned event (delegates to [`Writer::write_view`]).
    pub fn write(&mut self, event: &XmlEvent) -> Result<()> {
        self.write_view(&RawEvent::from_event(event))
    }

    /// Write one borrowed event view. This is the zero-copy sink side of the
    /// pipeline: result fragments are serialized straight from the event
    /// arena without materializing owned [`XmlEvent`]s, and without
    /// `std::fmt` — names and escaped text go out as byte slices.
    pub fn write_view(&mut self, event: &RawEvent<'_>) -> Result<()> {
        match event {
            RawEvent::StartDocument => {
                if self.options.declaration {
                    self.out
                        .write_all(b"<?xml version=\"1.0\" encoding=\"UTF-8\"?>")?;
                    self.newline()?;
                }
            }
            RawEvent::EndDocument => {
                self.out.flush()?;
            }
            RawEvent::StartElement { name, attributes } => {
                self.mark_child();
                self.indent()?;
                self.out.write_all(b"<")?;
                self.out.write_all(name.as_bytes())?;
                for (n, v) in attributes.iter() {
                    self.out.write_all(b" ")?;
                    self.out.write_all(n.as_bytes())?;
                    self.out.write_all(b"=\"")?;
                    self.out.write_all(escape_attr(v).as_bytes())?;
                    self.out.write_all(b"\"")?;
                }
                self.out.write_all(b">")?;
                self.depth += 1;
                self.had_children.push(false);
                self.midline = true;
            }
            RawEvent::EndElement { name } => {
                if self.depth == 0 {
                    return Err(XmlError::syntax(
                        format!("close event </{name}> without open element"),
                        Default::default(),
                    ));
                }
                self.depth -= 1;
                let had = self.had_children.pop().unwrap_or(false);
                if had {
                    self.indent()?;
                }
                self.out.write_all(b"</")?;
                self.out.write_all(name.as_bytes())?;
                self.out.write_all(b">")?;
                self.midline = true;
            }
            RawEvent::Text(t) => {
                // Text stays attached to the current line to preserve content.
                self.out.write_all(escape_text(t).as_bytes())?;
                self.midline = true;
            }
            RawEvent::Comment(c) => {
                self.mark_child();
                self.indent()?;
                self.out.write_all(b"<!--")?;
                self.out.write_all(c.as_bytes())?;
                self.out.write_all(b"-->")?;
                self.midline = true;
            }
            RawEvent::ProcessingInstruction { target, data } => {
                self.mark_child();
                self.indent()?;
                self.out.write_all(b"<?")?;
                self.out.write_all(target.as_bytes())?;
                if !data.is_empty() {
                    self.out.write_all(b" ")?;
                    self.out.write_all(data.as_bytes())?;
                }
                self.out.write_all(b"?>")?;
                self.midline = true;
            }
        }
        Ok(())
    }

    /// Write a whole sequence of events.
    pub fn write_all<'a>(&mut self, events: impl IntoIterator<Item = &'a XmlEvent>) -> Result<()> {
        for e in events {
            self.write(e)?;
        }
        Ok(())
    }

    /// Finish writing and recover the underlying sink.
    pub fn into_inner(mut self) -> Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }

    /// The underlying sink, e.g. to hand off and clear a `Vec<u8>` between
    /// balanced fragments.
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.out
    }

    fn mark_child(&mut self) {
        if let Some(top) = self.had_children.last_mut() {
            *top = true;
        }
    }

    fn indent(&mut self) -> Result<()> {
        if let Some(n) = self.options.indent {
            if self.midline {
                self.out.write_all(b"\n")?;
            }
            for _ in 0..self.depth * n {
                self.out.write_all(b" ")?;
            }
            self.midline = false;
        }
        Ok(())
    }

    fn newline(&mut self) -> Result<()> {
        if self.options.indent.is_some() {
            self.out.write_all(b"\n")?;
        }
        Ok(())
    }
}

/// Serialize a sequence of events to a `String` (compact form).
pub fn events_to_string<'a>(events: impl IntoIterator<Item = &'a XmlEvent>) -> String {
    let mut w = Writer::new(Vec::new());
    w.write_all(events).expect("writing to a Vec cannot fail");
    String::from_utf8(w.into_inner().expect("flush to Vec cannot fail"))
        .expect("writer output is valid UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Attribute;
    use crate::reader::parse_events;

    #[test]
    fn compact_roundtrip() {
        let xml = r#"<a x="1"><b>t &amp; u</b><c/></a>"#;
        let events = parse_events(xml).unwrap();
        let out = events_to_string(&events);
        // Self-closing tags are expanded, everything else matches.
        assert_eq!(out, r#"<a x="1"><b>t &amp; u</b><c></c></a>"#);
        // Reparsing gives the same events.
        assert_eq!(parse_events(&out).unwrap(), events);
    }

    #[test]
    fn declaration_written_when_requested() {
        let mut w = Writer::with_options(
            Vec::new(),
            WriteOptions {
                declaration: true,
                indent: None,
            },
        );
        w.write(&XmlEvent::StartDocument).unwrap();
        w.write(&XmlEvent::open("a")).unwrap();
        w.write(&XmlEvent::close("a")).unwrap();
        w.write(&XmlEvent::EndDocument).unwrap();
        let s = String::from_utf8(w.into_inner().unwrap()).unwrap();
        assert!(s.starts_with("<?xml"));
        assert!(s.ends_with("<a></a>"));
    }

    #[test]
    fn pretty_printing_indents_elements() {
        let events = parse_events("<a><b><c/></b></a>").unwrap();
        let mut w = Writer::with_options(
            Vec::new(),
            WriteOptions {
                declaration: false,
                indent: Some(2),
            },
        );
        w.write_all(&events).unwrap();
        let s = String::from_utf8(w.into_inner().unwrap()).unwrap();
        assert_eq!(s, "<a>\n  <b>\n    <c></c>\n  </b>\n</a>");
        // Pretty output reparses to the same element structure (ignoring
        // whitespace text events).
        let evs2: Vec<_> = parse_events(&s)
            .unwrap()
            .into_iter()
            .filter(|e| !matches!(e, XmlEvent::Text(t) if t.trim().is_empty()))
            .collect();
        assert_eq!(evs2, events);
    }

    #[test]
    fn attribute_escaping() {
        let ev = XmlEvent::StartElement {
            name: "a".into(),
            attributes: vec![Attribute::new("t", "x\"<&>y")],
        };
        let s = events_to_string([&ev]);
        assert_eq!(s, r#"<a t="x&quot;&lt;&amp;&gt;y">"#);
    }

    /// Every event kind, byte for byte: attributes and text carrying all
    /// five XML specials, an empty attribute, a comment, PIs with and
    /// without data — compact, and pretty-printed with a declaration.
    #[test]
    fn every_event_kind_serializes_byte_for_byte() {
        let specials = "a&b<c>d\"e'f";
        let events = [
            XmlEvent::StartDocument,
            XmlEvent::StartElement {
                name: "r".into(),
                attributes: vec![Attribute::new("k", specials), Attribute::new("z", "")],
            },
            XmlEvent::Text(specials.into()),
            XmlEvent::open("e"),
            XmlEvent::StartElement {
                name: "f".into(),
                attributes: vec![Attribute::new("n", "1")],
            },
            XmlEvent::close("f"),
            XmlEvent::close("e"),
            XmlEvent::Comment(" c & <d> ".into()),
            XmlEvent::ProcessingInstruction {
                target: "pi".into(),
                data: "x=\"1\" & y".into(),
            },
            XmlEvent::ProcessingInstruction {
                target: "bare".into(),
                data: String::new(),
            },
            XmlEvent::close("r"),
            XmlEvent::EndDocument,
        ];
        let render = |options| {
            let mut w = Writer::with_options(Vec::new(), options);
            w.write_all(&events).unwrap();
            String::from_utf8(w.into_inner().unwrap()).unwrap()
        };
        assert_eq!(
            render(WriteOptions::default()),
            r#"<r k="a&amp;b&lt;c&gt;d&quot;e'f" z="">a&amp;b&lt;c&gt;d"e'f<e><f n="1"></f></e><!-- c & <d> --><?pi x="1" & y?><?bare?></r>"#
        );
        assert_eq!(
            render(WriteOptions {
                declaration: true,
                indent: Some(2),
            }),
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
             <r k=\"a&amp;b&lt;c&gt;d&quot;e'f\" z=\"\">a&amp;b&lt;c&gt;d\"e'f\n  \
             <e>\n    <f n=\"1\"></f>\n  </e>\n  <!-- c & <d> -->\n  \
             <?pi x=\"1\" & y?>\n  <?bare?>\n</r>"
        );
    }

    #[test]
    fn unbalanced_close_is_an_error() {
        let mut w = Writer::new(Vec::new());
        assert!(w.write(&XmlEvent::close("a")).is_err());
    }
}
