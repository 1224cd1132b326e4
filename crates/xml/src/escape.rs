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
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        let tail = &rest[amp..];
        let semi = tail.find(';')?;
        let entity = &tail[1..semi];
        match entity {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "apos" => out.push('\''),
            "quot" => out.push('"'),
            _ => {
                let code = if let Some(hex) = entity
                    .strip_prefix("#x")
                    .or_else(|| entity.strip_prefix("#X"))
                {
                    u32::from_str_radix(hex, 16).ok()?
                } else if let Some(dec) = entity.strip_prefix('#') {
                    dec.parse::<u32>().ok()?
                } else {
                    return None;
                };
                out.push(char::from_u32(code)?);
            }
        }
        rest = &tail[semi + 1..];
    }
    out.push_str(rest);
    Some(Cow::Owned(out))
}

/// Decode entity references *lossily*: every unknown, malformed or
/// unterminated entity is replaced by U+FFFD (the Unicode replacement
/// character) and the rest of the data is preserved. Returns the decoded
/// text plus the number of replacements made (0 means [`unescape`] would
/// have succeeded identically).
///
/// Used by the reader's repair policies (see [`crate::recover`]): text is
/// never worth aborting a stream over, because the query language is purely
/// structural.
pub fn unescape_lossy(raw: &str) -> (String, usize) {
    let mut out = String::with_capacity(raw.len());
    let mut replaced = 0usize;
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        let tail = &rest[amp..];
        // An entity reference ends at the first `;`; a `&` or `<` before it
        // (or no `;` at all) means the reference is unterminated.
        let semi = match tail[1..].find([';', '&', '<']) {
            Some(i) if tail.as_bytes()[1 + i] == b';' => 1 + i,
            _ => {
                out.push('\u{FFFD}');
                replaced += 1;
                rest = &tail[1..];
                continue;
            }
        };
        match unescape(&tail[..semi + 1]) {
            Some(decoded) => out.push_str(&decoded),
            None => {
                out.push('\u{FFFD}');
                replaced += 1;
            }
        }
        rest = &tail[semi + 1..];
    }
    out.push_str(rest);
    (out, replaced)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_borrows_when_clean() {
        assert!(matches!(escape_text("hello world"), Cow::Borrowed(_)));
        assert!(matches!(escape_attr("plain"), Cow::Borrowed(_)));
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
        assert_eq!(unescape_lossy("a &lt; b"), ("a < b".to_string(), 0));
        assert_eq!(unescape_lossy("x&nope;y"), ("x\u{FFFD}y".to_string(), 1));
        assert_eq!(
            unescape_lossy("&bad;&#xZZ;&amp;"),
            ("\u{FFFD}\u{FFFD}&".to_string(), 2)
        );
        // Unterminated reference: the `&` itself is replaced, the tail kept.
        assert_eq!(
            unescape_lossy("5 & 6 are &lt; 7"),
            ("5 \u{FFFD} 6 are < 7".to_string(), 1)
        );
        assert_eq!(unescape_lossy("&"), ("\u{FFFD}".to_string(), 1));
        assert_eq!(unescape_lossy("&;"), ("\u{FFFD}".to_string(), 1));
        // A `&` running into the next `&` only eats itself.
        assert_eq!(unescape_lossy("&&amp;"), ("\u{FFFD}&".to_string(), 1));
    }

    #[test]
    fn unescape_lossy_agrees_with_unescape_on_clean_input() {
        for s in ["", "plain", "&lt;&gt;&amp;&apos;&quot;", "&#65;&#x42;"] {
            let (lossy, n) = unescape_lossy(s);
            assert_eq!(n, 0, "on {s:?}");
            assert_eq!(lossy, unescape(s).unwrap(), "on {s:?}");
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
