//! A lightweight Rust source scanner.
//!
//! `fp-lint` does not parse Rust — it scans it. [`SourceFile`] performs
//! the one lexical analysis every rule needs done correctly:
//!
//! * **stripping** — string/char literal *contents* and comments are
//!   blanked (replaced character-for-character with spaces), so token
//!   searches never fire inside `"a string mentioning Instant"` or a
//!   doc comment, and brace counting is never confused by `"{"`;
//! * **line mapping** — the stripped text keeps the original newline
//!   structure, so every match maps back to a 1-based line number;
//! * **comment capture** — the text of each `//` comment is kept per
//!   line, which is where [`crate::pragma`] finds its directives;
//! * **`#[cfg(test)]` regions** — brace-tracked so rules that only apply
//!   to production code can skip test modules.
//!
//! The scanner understands line and (nested) block comments, plain and
//! raw string literals (`r"…"`, `r#"…"#`), byte strings, char literals,
//! and the char-versus-lifetime ambiguity (`'a'` vs `'a`). It is a
//! heuristic, not a compiler: pathological token sequences could fool
//! it, but it is exact on the idiomatic Rust this workspace contains —
//! and the fixture tests pin the cases that matter.

/// One scanned source file: the derived views rules use.
#[derive(Debug)]
pub struct SourceFile {
    path: String,
    line_count: usize,
    stripped: String,
    line_starts: Vec<usize>,
    comments: Vec<Option<String>>,
    in_test: Vec<bool>,
}

/// Scanner state for string/comment stripping.
enum Mode {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

impl SourceFile {
    /// Scans `raw`, producing the stripped view, per-line comments, and
    /// `#[cfg(test)]` region map. `path` is kept verbatim for reports
    /// (use repo-relative, forward-slash paths).
    pub fn parse(path: &str, raw: &str) -> SourceFile {
        let (stripped, comments) = strip(raw);
        let mut line_starts = vec![0usize];
        for (i, c) in stripped.char_indices() {
            if c == '\n' {
                line_starts.push(i + 1);
            }
        }
        let in_test = mark_test_regions(&stripped, line_starts.len());
        SourceFile {
            path: path.to_string(),
            line_count: raw.lines().count(),
            stripped,
            line_starts,
            comments,
            in_test,
        }
    }

    /// The path this file was parsed under.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The stripped text: original characters where code, spaces where
    /// comments or literal contents were. Same newline structure as the
    /// raw text.
    pub fn stripped(&self) -> &str {
        &self.stripped
    }

    /// Number of lines.
    pub fn line_count(&self) -> usize {
        self.line_count
    }

    /// 1-based line number of a byte offset into [`SourceFile::stripped`].
    pub fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// The stripped text of a 1-based line (empty for out-of-range).
    pub fn line_stripped(&self, line: usize) -> &str {
        if line == 0 || line > self.line_starts.len() {
            return "";
        }
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .map_or(self.stripped.len(), |&e| e - 1);
        &self.stripped[start..end]
    }

    /// The `//` comment text on a 1-based line, if any (text after the
    /// slashes, untrimmed).
    pub fn comment(&self, line: usize) -> Option<&str> {
        self.comments
            .get(line.wrapping_sub(1))
            .and_then(|c| c.as_deref())
    }

    /// Whether a 1-based line lies inside a `#[cfg(test)]` region.
    pub fn in_test(&self, line: usize) -> bool {
        self.in_test
            .get(line.wrapping_sub(1))
            .copied()
            .unwrap_or(false)
    }

    /// Byte offset of the start of a 1-based line in the stripped text.
    pub fn line_offset(&self, line: usize) -> usize {
        self.line_starts
            .get(line.wrapping_sub(1))
            .copied()
            .unwrap_or(self.stripped.len())
    }
}

/// Returns the stripped text plus the per-line `//` comment contents.
fn strip(raw: &str) -> (String, Vec<Option<String>>) {
    let chars: Vec<char> = raw.chars().collect();
    let mut out = String::with_capacity(raw.len());
    let mut comments: Vec<Option<String>> = Vec::new();
    let mut current_comment: Option<String> = None;
    let mut mode = Mode::Code;
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            // Newlines end line comments and are always preserved.
            if matches!(mode, Mode::LineComment) {
                mode = Mode::Code;
            }
            comments.push(current_comment.take());
            out.push('\n');
            i += 1;
            continue;
        }
        match mode {
            Mode::Code => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    mode = Mode::LineComment;
                    // Doc comments (`///`, `//!`) are documentation, not
                    // directives — only plain `//` comments are captured
                    // for pragma parsing, so prose *describing* the
                    // pragma syntax never parses as a pragma.
                    let doc = matches!(chars.get(i + 2), Some(&'/') | Some(&'!'));
                    current_comment = (!doc).then(String::new);
                    out.push_str("  ");
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    mode = Mode::BlockComment(1);
                    out.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    mode = Mode::Str;
                    out.push('"');
                    i += 1;
                } else if c == 'r' && raw_string_hashes(&chars, i).is_some() {
                    let hashes = raw_string_hashes(&chars, i).unwrap_or(0);
                    mode = Mode::RawStr(hashes);
                    // Blank the opening `r##"` itself.
                    for _ in 0..(2 + hashes) {
                        out.push(' ');
                    }
                    i += 2 + hashes as usize;
                } else if c == 'b' && chars.get(i + 1) == Some(&'"') {
                    mode = Mode::Str;
                    out.push_str(" \"");
                    i += 2;
                } else if c == '\'' && is_char_literal(&chars, i) {
                    mode = Mode::Char;
                    out.push('\'');
                    i += 1;
                } else {
                    out.push(c);
                    i += 1;
                }
            }
            Mode::LineComment => {
                if let Some(s) = current_comment.as_mut() {
                    s.push(c);
                }
                out.push(' ');
                i += 1;
            }
            Mode::BlockComment(depth) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    mode = if depth == 1 {
                        Mode::Code
                    } else {
                        Mode::BlockComment(depth - 1)
                    };
                    out.push_str("  ");
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    mode = Mode::BlockComment(depth + 1);
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
            Mode::Str => {
                if c == '\\' && i + 1 < chars.len() {
                    // Blank the backslash; a line-continuation newline is
                    // left for the top of the loop so line structure and
                    // the in-string state both survive it.
                    out.push(' ');
                    i += 1;
                    if chars.get(i) != Some(&'\n') {
                        out.push(' ');
                        i += 1;
                    }
                } else if c == '"' {
                    mode = Mode::Code;
                    out.push('"');
                    i += 1;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
            Mode::RawStr(hashes) => {
                if c == '"' && closes_raw(&chars, i, hashes) {
                    mode = Mode::Code;
                    for _ in 0..=hashes {
                        out.push(' ');
                    }
                    i += 1 + hashes as usize;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
            Mode::Char => {
                if c == '\\' && i + 1 < chars.len() {
                    out.push_str("  ");
                    i += 2;
                } else if c == '\'' {
                    mode = Mode::Code;
                    out.push('\'');
                    i += 1;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
        }
    }
    if matches!(mode, Mode::LineComment) || current_comment.is_some() {
        comments.push(current_comment.take());
    }
    while comments.len() < raw.lines().count() {
        comments.push(None);
    }
    (out, comments)
}

/// If `chars[i..]` opens a raw string (`r"`, `r#"`, `br"`…), returns the
/// hash count; `None` when `r` is just an identifier character.
fn raw_string_hashes(chars: &[char], i: usize) -> Option<u32> {
    // Reject `for`, `ptr`, etc.: `r` must not continue an identifier.
    if i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_') {
        return None;
    }
    let mut j = i + 1;
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (chars.get(j) == Some(&'"')).then_some(hashes)
}

/// Whether the `"` at `i` (inside a raw string with `hashes` hashes)
/// closes it, i.e. is followed by exactly that many `#`.
fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Distinguishes a char literal from a lifetime: `'x'` and `'\n'` are
/// chars, `'a` (no closing quote in range) is a lifetime.
fn is_char_literal(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some('\\') => true,
        Some(_) => chars.get(i + 2) == Some(&'\''),
        None => false,
    }
}

/// Marks lines inside `#[cfg(test)] { … }` regions by brace tracking the
/// stripped text. The attribute arms the *next* opening brace (the test
/// module or function body); nested braces inherit the flag.
fn mark_test_regions(stripped: &str, lines: usize) -> Vec<bool> {
    let mut in_test = vec![false; lines];
    let mut stack: Vec<bool> = Vec::new();
    let mut armed = false;
    let mut line = 0usize;
    let bytes = stripped.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'\n' => line += 1,
            b'#' if bytes[i..].starts_with(b"#[cfg(test)]") => {
                armed = true;
                i += b"#[cfg(test)]".len();
                continue;
            }
            b'{' => {
                let inherited = stack.last().copied().unwrap_or(false);
                stack.push(armed || inherited);
                armed = false;
            }
            b'}' => {
                stack.pop();
            }
            _ => {}
        }
        if stack.last().copied().unwrap_or(false) {
            if let Some(flag) = in_test.get_mut(line) {
                *flag = true;
            }
        }
        i += 1;
    }
    in_test
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let f = SourceFile::parse(
            "x.rs",
            "let a = \"Instant inside\"; // Instant comment\nlet b = Instant::now();\n",
        );
        assert!(!f.line_stripped(1).contains("Instant"));
        assert!(f.line_stripped(2).contains("Instant::now"));
        assert_eq!(f.comment(1).map(str::trim), Some("Instant comment"));
        assert_eq!(f.comment(2), None);
    }

    #[test]
    fn raw_strings_are_blanked() {
        let src = "let s = r#\"has \"quotes\" and Instant\"#;\nInstant\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.line_stripped(1).contains("Instant"));
        assert!(f.line_stripped(2).contains("Instant"));
    }

    #[test]
    fn lifetimes_do_not_open_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nlet c = 'x';\nlet n = '\\n';\nafter\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.line_stripped(1).contains("str"));
        assert!(f.line_stripped(4).contains("after"));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let src = "before\n/* outer /* inner */ still out */ after\n";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.line_stripped(2).trim(), "after");
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src =
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x(); }\n}\nfn prod2() {}\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.in_test(1));
        assert!(f.in_test(4));
        assert!(!f.in_test(6));
    }

    #[test]
    fn line_of_maps_offsets() {
        let f = SourceFile::parse("x.rs", "aaa\nbbb\nccc\n");
        let off = f.stripped().find("ccc").unwrap();
        assert_eq!(f.line_of(off), 3);
    }
}
