//! Escaping of character data and decoding of entity references.
//!
//! The five predefined XML entities (`&lt; &gt; &amp; &apos; &quot;`) and
//! numeric character references (`&#10;`, `&#x1F600;`) are supported.

use std::borrow::Cow;

/// Escape text content: `&`, `<` and `>` are replaced by entities.
///
/// Returns a borrowed string when no escaping is necessary, avoiding an
/// allocation on the (dominant) happy path.
pub fn escape_text(text: &str) -> Cow<'_, str> {
    escape_with(text, false)
}

/// Escape an attribute value for use inside double quotes: additionally
/// escapes `"`.
pub fn escape_attr(text: &str) -> Cow<'_, str> {
    escape_with(text, true)
}

fn escape_with(text: &str, attr: bool) -> Cow<'_, str> {
    // Every special is ASCII, so a byte scan finds them without decoding.
    let needs = |b: u8| matches!(b, b'&' | b'<' | b'>') || (attr && b == b'"');
    if !text.bytes().any(needs) {
        return Cow::Borrowed(text);
    }
    let mut out = String::with_capacity(text.len() + 8);
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' if attr => out.push_str("&quot;"),
            other => out.push(other),
        }
    }
    Cow::Owned(out)
}

/// Decode entity references in raw character data.
///
/// Returns `None` if an entity is unknown or malformed; the caller attaches
/// position information. An unterminated `&...` sequence is rejected the same
/// way, as required for well-formed XML.
pub fn unescape(raw: &str) -> Option<Cow<'_, str>> {
    if !raw.contains('&') {
        return Some(Cow::Borrowed(raw));
    }
    let mut clean = true;
    let decoded = unescape_lossy(raw, |_, _| clean = false);
    clean.then_some(Cow::Owned(decoded))
}

/// Decode entity references *lossily*: every unknown, malformed or
/// unterminated entity is replaced by U+FFFD (the Unicode replacement
/// character) and the rest of the data is preserved. Each replaced
/// reference is reported to `bad` with its byte offset in `raw` and its
/// text: from the `&` through the `;` — or, unterminated (a `&` or `<`
/// before any `;`, or no `;` at all), up to that byte or the end, of which
/// only the `&` is replaced. No report means [`unescape`] would have
/// succeeded identically.
///
/// Text is never worth aborting a stream over under the reader's repair
/// policies (see [`crate::recover`]), because the query language is purely
/// structural.
pub fn unescape_lossy(raw: &str, mut bad: impl FnMut(usize, &str)) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut from = 0;
    while let Some(amp) = raw[from..].find('&').map(|i| from + i) {
        out.push_str(&raw[from..amp]);
        let tail = &raw[amp..];
        let end = tail[1..]
            .find([';', '&', '<'])
            .map_or(tail.len(), |i| i + 1);
        let terminated = tail[end..].starts_with(';');
        match terminated.then(|| decode(&tail[1..end])).flatten() {
            Some(c) => out.push(c),
            None => {
                out.push('\u{FFFD}');
                bad(amp, &tail[..end + usize::from(terminated)]);
            }
        }
        from = if terminated { amp + end + 1 } else { amp + 1 };
    }
    out.push_str(&raw[from..]);
    out
}

/// The character an entity reference's name (between `&` and `;`) stands
/// for: one of the five predefined entities or a numeric reference.
fn decode(entity: &str) -> Option<char> {
    match entity {
        "lt" => Some('<'),
        "gt" => Some('>'),
        "amp" => Some('&'),
        "apos" => Some('\''),
        "quot" => Some('"'),
        _ => {
            let code = if let Some(hex) = entity
                .strip_prefix("#x")
                .or_else(|| entity.strip_prefix("#X"))
            {
                u32::from_str_radix(hex, 16).ok()?
            } else {
                entity.strip_prefix('#')?.parse::<u32>().ok()?
            };
            char::from_u32(code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_borrows_when_clean() {
        assert!(matches!(escape_text("hello world"), Cow::Borrowed(_)));
        assert!(matches!(escape_attr("plain"), Cow::Borrowed(_)));
    }

    /// The decoded text and the number of references replaced.
    fn lossy(raw: &str) -> (String, usize) {
        let mut replaced = 0;
        let decoded = unescape_lossy(raw, |_, _| replaced += 1);
        (decoded, replaced)
    }

    #[test]
    fn unescape_lossy_reports_each_bad_reference() {
        let mut bad = Vec::new();
        let decoded = unescape_lossy("a &nope; &lt;&#xZZ; x &amp y &a&lt;", |at, r| {
            bad.push((at, r.to_string()))
        });
        assert_eq!(decoded, "a \u{FFFD} <\u{FFFD} x \u{FFFD}amp y \u{FFFD}a<");
        let expected = [(2, "&nope;"), (13, "&#xZZ;"), (22, "&amp y "), (29, "&a")];
        assert_eq!(bad, expected.map(|(at, r)| (at, r.to_string())));
    }

    #[test]
    fn escape_text_escapes_markup() {
        assert_eq!(escape_text("a<b&c>d"), "a&lt;b&amp;c&gt;d");
    }

    #[test]
    fn escape_attr_escapes_quotes() {
        assert_eq!(escape_attr(r#"say "hi""#), "say &quot;hi&quot;");
        // Text escaping leaves double quotes alone.
        assert_eq!(escape_text(r#"say "hi""#), r#"say "hi""#);
    }

    #[test]
    fn unescape_predefined_entities() {
        assert_eq!(
            unescape("&lt;a&gt; &amp; &apos;x&apos; &quot;y&quot;").unwrap(),
            "<a> & 'x' \"y\""
        );
    }

    #[test]
    fn unescape_numeric_references() {
        assert_eq!(unescape("&#65;&#x42;&#x63;").unwrap(), "ABc");
        assert_eq!(unescape("&#x1F600;").unwrap(), "\u{1F600}");
    }

    #[test]
    fn unescape_rejects_bad_entities() {
        assert!(unescape("&nope;").is_none());
        assert!(unescape("&#xZZ;").is_none());
        assert!(unescape(
            "&#
;"
        )
        .is_none());
        assert!(unescape("& unterminated").is_none());
        // Surrogate code point is not a char.
        assert!(unescape("&#xD800;").is_none());
    }

    #[test]
    fn unescape_lossy_replaces_and_counts() {
        assert_eq!(lossy("a &lt; b"), ("a < b".to_string(), 0));
        assert_eq!(lossy("x&nope;y"), ("x\u{FFFD}y".to_string(), 1));
        assert_eq!(
            lossy("&bad;&#xZZ;&amp;"),
            ("\u{FFFD}\u{FFFD}&".to_string(), 2)
        );
        // Unterminated reference: the `&` itself is replaced, the tail kept.
        assert_eq!(
            lossy("5 & 6 are &lt; 7"),
            ("5 \u{FFFD} 6 are < 7".to_string(), 1)
        );
        assert_eq!(lossy("&"), ("\u{FFFD}".to_string(), 1));
        assert_eq!(lossy("&;"), ("\u{FFFD}".to_string(), 1));
        // A `&` running into the next `&` only eats itself.
        assert_eq!(lossy("&&amp;"), ("\u{FFFD}&".to_string(), 1));
    }

    #[test]
    fn unescape_lossy_agrees_with_unescape_on_clean_input() {
        for s in ["", "plain", "&lt;&gt;&amp;&apos;&quot;", "&#65;&#x42;"] {
            let (decoded, n) = lossy(s);
            assert_eq!(n, 0, "on {s:?}");
            assert_eq!(decoded, unescape(s).unwrap(), "on {s:?}");
        }
    }

    #[test]
    fn roundtrip_escape_unescape() {
        let samples = ["", "plain", "a<b>c&d\"e'f", "&&&&", "<<<>>>"];
        for s in samples {
            assert_eq!(
                unescape(&escape_attr(s)).unwrap(),
                s,
                "attr roundtrip of {s:?}"
            );
            assert_eq!(
                unescape(&escape_text(s)).unwrap(),
                s,
                "text roundtrip of {s:?}"
            );
        }
    }
}
