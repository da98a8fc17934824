//! Hand-rolled JSON emission.
//!
//! The workspace builds hermetically with zero registry dependencies, so
//! result records (`fp-sim`) and trace archives (`fp-workloads`) emit JSON
//! through this module instead of deriving `serde::Serialize`. Emission
//! only: the repo's own readers use the line formats (`Trace::to_text`,
//! CSV); JSON exists for external tooling (plots, dashboards).

use std::fmt::Write as _;

/// Escapes a string for inclusion inside JSON double quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number (non-finite values become `null`,
/// which JSON cannot represent as numbers).
pub(crate) fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Incremental JSON object emitter.
///
/// # Example
///
/// ```
/// use fp_stats::json::JsonObject;
/// let mut o = JsonObject::new();
/// o.field_str("scheme", "fork").field_u64("requests", 3);
/// assert_eq!(o.finish(), r#"{"scheme":"fork","requests":3}"#);
/// ```
#[derive(Debug, Clone, Default)]
pub struct JsonObject {
    body: String,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, name: &str) -> &mut String {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        let _ = write!(self.body, "\"{}\":", escape(name));
        &mut self.body
    }

    /// Adds a string field.
    pub fn field_str(&mut self, name: &str, value: &str) -> &mut Self {
        let v = format!("\"{}\"", escape(value));
        self.key(name).push_str(&v);
        self
    }

    /// Adds an unsigned integer field.
    pub fn field_u64(&mut self, name: &str, value: u64) -> &mut Self {
        let v = value.to_string();
        self.key(name).push_str(&v);
        self
    }

    /// Adds a float field (`null` if non-finite).
    pub fn field_f64(&mut self, name: &str, value: f64) -> &mut Self {
        let v = number(value);
        self.key(name).push_str(&v);
        self
    }

    /// Adds a boolean field.
    pub fn field_bool(&mut self, name: &str, value: bool) -> &mut Self {
        let v = if value { "true" } else { "false" };
        self.key(name).push_str(v);
        self
    }

    /// Adds a pre-rendered JSON fragment (an object, array, or literal).
    pub fn field_raw(&mut self, name: &str, raw: &str) -> &mut Self {
        self.key(name).push_str(raw);
        self
    }

    /// Renders the object.
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// Renders pre-rendered JSON fragments as a JSON array.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let mut body = String::new();
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&item);
    }
    format!("[{body}]")
}

/// Maximum nesting depth accepted by [`validate`].
const MAX_DEPTH: usize = 512;

/// Validates that `s` is exactly one well-formed JSON value.
///
/// A minimal recursive-descent recognizer (no DOM) used to round-trip
/// check this module's own output: emission bugs such as bare `NaN`/`inf`
/// tokens, unbalanced brackets, or raw control characters fail here.
/// Numbers follow RFC 8259, so `NaN` and `Infinity` are rejected.
///
/// # Errors
///
/// Returns a description and byte offset of the first syntax error.
pub fn validate(s: &str) -> Result<(), String> {
    let mut c = Checker {
        b: s.as_bytes(),
        i: 0,
    };
    c.skip_ws();
    c.value(0)?;
    c.skip_ws();
    if c.i != c.b.len() {
        return Err(c.err("trailing data"));
    }
    Ok(())
}

struct Checker<'a> {
    b: &'a [u8],
    i: usize,
}

impl Checker<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.i)
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        if self.peek() == Some(want) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", want as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<(), String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(())
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn object(&mut self, depth: usize) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            self.value(depth + 1)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.i += 1;
                    self.skip_ws();
                }
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.value(depth + 1)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.i += 1;
                    self.skip_ws();
                }
                Some(b']') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.i += 1;
                        }
                        Some(b'u') => {
                            self.i += 1;
                            for _ in 0..4 {
                                if !self.peek().is_some_and(|c| c.is_ascii_hexdigit()) {
                                    return Err(self.err("bad \\u escape"));
                                }
                                self.i += 1;
                            }
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character")),
                Some(_) => self.i += 1,
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn digits(&mut self) -> Result<(), String> {
        if !self.peek().is_some_and(|c| c.is_ascii_digit()) {
            return Err(self.err("expected a digit"));
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        Ok(())
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        if self.peek() == Some(b'0') {
            self.i += 1;
        } else {
            self.digits()?;
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            self.digits()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn numbers_render_compactly() {
        assert_eq!(number(2.5), "2.5");
        assert_eq!(number(10.0), "10");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn object_emits_all_field_kinds() {
        let mut o = JsonObject::new();
        o.field_str("name", "Mix \"1\"")
            .field_u64("count", 7)
            .field_f64("latency", 1.25)
            .field_bool("ok", true)
            .field_raw("inner", "{\"x\":1}");
        assert_eq!(
            o.finish(),
            r#"{"name":"Mix \"1\"","count":7,"latency":1.25,"ok":true,"inner":{"x":1}}"#
        );
    }

    #[test]
    fn empty_object_and_array() {
        assert_eq!(JsonObject::new().finish(), "{}");
        assert_eq!(array(Vec::new()), "[]");
    }

    #[test]
    fn array_joins_fragments() {
        let rows = vec!["1".to_string(), "{\"a\":2}".to_string()];
        assert_eq!(array(rows), "[1,{\"a\":2}]");
    }

    #[test]
    fn non_finite_fields_round_trip_as_null() {
        let mut o = JsonObject::new();
        o.field_f64("nan", f64::NAN)
            .field_f64("inf", f64::INFINITY)
            .field_f64("ninf", f64::NEG_INFINITY)
            .field_f64("ok", 1.5);
        let s = o.finish();
        assert_eq!(s, r#"{"nan":null,"inf":null,"ninf":null,"ok":1.5}"#);
        assert!(validate(&s).is_ok());
    }

    #[test]
    fn validate_accepts_well_formed_documents() {
        for ok in [
            "null",
            "true",
            " -12.5e+3 ",
            r#""esc \" \\ é""#,
            "[]",
            "[1,[2,{}],\"x\"]",
            r#"{"a":{"b":[1,2,3]},"c":null}"#,
        ] {
            assert!(validate(ok).is_ok(), "rejected {ok:?}");
        }
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        for bad in [
            "",
            "{\"x\":NaN}",
            "{\"x\":inf}",
            "{\"x\":1,}",
            "[1 2]",
            "{\"a\"}",
            "\"unterminated",
            "\"bad\\q\"",
            "01",
            "1.",
            "1e",
            "{} extra",
        ] {
            assert!(validate(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn validate_rejects_overly_deep_nesting() {
        let deep = "[".repeat(600) + &"]".repeat(600);
        assert!(validate(&deep).is_err());
        let fine = "[".repeat(100) + &"]".repeat(100);
        assert!(validate(&fine).is_ok());
    }
}
