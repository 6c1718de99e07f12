//! Source-file model for the analysis: a lightweight lexical pass that
//! separates code from comments/strings and tracks `#[cfg(test)]` regions,
//! so rules never fire on doc examples, string contents or test code. The
//! line rules read its lines directly and the lexer tokenizes them.

/// One analyzed line.
#[derive(Debug, Clone)]
pub struct Line {
    /// Code with string/char-literal contents and comments blanked out
    /// (byte-for-byte replaced by spaces, so columns still line up).
    pub code: String,
    /// Concatenated comment text of the line (no `//` / `/* */` markers).
    pub comment: String,
    /// True when the line sits inside a `#[cfg(test)]` item.
    pub in_test: bool,
}

/// A preprocessed source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Preprocessed lines, 0-indexed (report as `index + 1`).
    pub lines: Vec<Line>,
}

impl SourceFile {
    /// Preprocess raw Rust source.
    pub fn parse(path: &str, raw: &str) -> Self {
        let (code, comments) = strip_non_code(raw);
        let code_lines: Vec<&str> = code.split('\n').collect();
        let comment_lines: Vec<&str> = comments.split('\n').collect();
        let test_mask = test_mask(&code_lines);
        let lines = code_lines
            .iter()
            .zip(&comment_lines)
            .zip(&test_mask)
            .map(|((c, m), &t)| Line {
                code: (*c).to_string(),
                comment: m.trim().to_string(),
                in_test: t,
            })
            .collect();
        Self {
            path: path.replace('\\', "/"),
            lines,
        }
    }

    /// Line numbers (1-based) carrying a `lint: allow(<key>) <reason>`
    /// comment for `key`. An allow covers its own line and the next one.
    /// Allows with an empty reason are returned separately as misuses.
    pub fn allows(&self, key: &str) -> (Vec<usize>, Vec<usize>) {
        let needle = format!("lint: allow({key})");
        let mut allowed = Vec::new();
        let mut missing_reason = Vec::new();
        for (i, line) in self.lines.iter().enumerate() {
            if let Some(pos) = line.comment.find(&needle) {
                let reason = line.comment[pos + needle.len()..].trim();
                if reason.len() < 3 {
                    missing_reason.push(i + 1);
                } else {
                    allowed.push(i + 1);
                    allowed.push(i + 2);
                }
            }
        }
        (allowed, missing_reason)
    }
}

/// Lexical states for [`strip_non_code`].
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(usize),
    Char,
}

/// Split source into (code-only, comments-only) texts of identical length
/// and line structure; non-code bytes in the code text (and vice versa)
/// become spaces. Handles nested block comments, raw strings and the
/// char-literal/lifetime ambiguity well enough for line-level rules.
fn strip_non_code(raw: &str) -> (String, String) {
    let bytes = raw.as_bytes();
    let mut code = Vec::with_capacity(bytes.len());
    let mut comments = Vec::with_capacity(bytes.len());
    let mut state = State::Code;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            code.push(b'\n');
            comments.push(b'\n');
            if matches!(state, State::LineComment) {
                state = State::Code;
            }
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
                    state = State::LineComment;
                    code.push(b' ');
                    comments.push(b' ');
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(1);
                    code.push(b' ');
                    comments.push(b' ');
                } else if b == b'"' {
                    state = State::Str;
                    code.push(b'"');
                    comments.push(b' ');
                } else if b == b'r' && raw_str_hashes(bytes, i).is_some() {
                    let hashes = raw_str_hashes(bytes, i).unwrap_or(0);
                    // Emit `r##"` as code markers, skip to content.
                    for _ in 0..hashes + 2 {
                        code.push(b' ');
                        comments.push(b' ');
                        i += 1;
                    }
                    code.pop();
                    code.push(b'"');
                    state = State::RawStr(hashes);
                    continue;
                } else if b == b'\'' && is_char_literal(bytes, i) {
                    state = State::Char;
                    code.push(b'\'');
                    comments.push(b' ');
                } else {
                    code.push(b);
                    comments.push(b' ');
                }
            }
            State::LineComment => {
                code.push(b' ');
                comments.push(b);
            }
            State::BlockComment(depth) => {
                if b == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    code.push(b' ');
                    code.push(b' ');
                    comments.push(b' ');
                    comments.push(b' ');
                    i += 2;
                    state = if depth > 1 {
                        State::BlockComment(depth - 1)
                    } else {
                        State::Code
                    };
                    continue;
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    code.push(b' ');
                    code.push(b' ');
                    comments.push(b' ');
                    comments.push(b' ');
                    i += 2;
                    state = State::BlockComment(depth + 1);
                    continue;
                }
                code.push(b' ');
                comments.push(b);
            }
            State::Str => {
                if b == b'\\' {
                    code.push(b' ');
                    comments.push(b' ');
                    if bytes.get(i + 1).is_some_and(|&n| n != b'\n') {
                        code.push(b' ');
                        comments.push(b' ');
                        i += 2;
                        continue;
                    }
                } else if b == b'"' {
                    code.push(b'"');
                    comments.push(b' ');
                    state = State::Code;
                } else {
                    code.push(b' ');
                    comments.push(b' ');
                }
            }
            State::RawStr(hashes) => {
                if b == b'"' && closes_raw_str(bytes, i, hashes) {
                    code.push(b'"');
                    comments.push(b' ');
                    for _ in 0..hashes {
                        code.push(b' ');
                        comments.push(b' ');
                        i += 1;
                    }
                    state = State::Code;
                } else {
                    code.push(b' ');
                    comments.push(b' ');
                }
            }
            State::Char => {
                if b == b'\\' && bytes.get(i + 1).is_some_and(|&n| n != b'\n') {
                    code.push(b' ');
                    code.push(b' ');
                    comments.push(b' ');
                    comments.push(b' ');
                    i += 2;
                    continue;
                } else if b == b'\'' {
                    code.push(b'\'');
                    comments.push(b' ');
                    state = State::Code;
                } else {
                    code.push(b' ');
                    comments.push(b' ');
                }
            }
        }
        i += 1;
    }
    // Safety: we only pushed ASCII bytes or original bytes; non-UTF8 is
    // impossible since input was &str and multibyte chars are either kept
    // verbatim (code) or replaced by single spaces per byte.
    (
        String::from_utf8_lossy(&code).into_owned(),
        String::from_utf8_lossy(&comments).into_owned(),
    )
}

/// If `bytes[i..]` starts a raw string (`r"`, `r#"`, `br"`, ...), return
/// the number of hashes.
fn raw_str_hashes(bytes: &[u8], i: usize) -> Option<usize> {
    if bytes.get(i) != Some(&b'r') {
        return None;
    }
    // Avoid matching identifiers ending in `r` (e.g. `var"` cannot occur,
    // but `r` must not be preceded by an ident char).
    if i > 0 {
        let p = bytes[i - 1];
        if p.is_ascii_alphanumeric() || p == b'_' {
            return None;
        }
    }
    let mut j = i + 1;
    let mut hashes = 0;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    (bytes.get(j) == Some(&b'"')).then_some(hashes)
}

/// Does the `"` at `i` close a raw string with `hashes` hashes?
fn closes_raw_str(bytes: &[u8], i: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| bytes.get(i + k) == Some(&b'#'))
}

/// Distinguish `'x'` / `'\n'` char literals from lifetimes `'a`.
fn is_char_literal(bytes: &[u8], i: usize) -> bool {
    match bytes.get(i + 1) {
        Some(&b'\\') => true,
        Some(&c) => bytes.get(i + 2) == Some(&b'\'') && c != b'\'',
        None => false,
    }
}

/// Per-line flag: inside a `#[cfg(test)]` item. Tracks brace depth from
/// the attribute to the end of the item it decorates.
fn test_mask(code_lines: &[&str]) -> Vec<bool> {
    let mut mask = vec![false; code_lines.len()];
    let mut depth: i64 = 0;
    // (closing depth, active) for each open cfg(test) region
    let mut regions: Vec<i64> = Vec::new();
    let mut pending_attr = false;
    for (idx, line) in code_lines.iter().enumerate() {
        let has_attr = line.contains("#[cfg(test)]") || line.contains("#[test]");
        if has_attr {
            pending_attr = true;
        }
        if !regions.is_empty() {
            mask[idx] = true;
        }
        for ch in line.chars() {
            match ch {
                '{' => {
                    if pending_attr {
                        regions.push(depth);
                        pending_attr = false;
                        mask[idx] = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if regions.last().is_some_and(|&d| depth <= d) {
                        regions.pop();
                    }
                }
                ';' => {
                    // `#[cfg(test)] use ...;` — attribute spent on a
                    // braceless item.
                    if pending_attr && depth == 0 {
                        pending_attr = false;
                    }
                }
                _ => {}
            }
        }
        if has_attr {
            mask[idx] = true;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let src = "let x = \"a.unwrap()\"; // .unwrap() in comment\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].comment.contains(".unwrap() in comment"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let src = "let x = r#\"json .unwrap() == 1.0\"#;\nlet y = 1;\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(!f.lines[0].code.contains("=="));
        assert!(f.lines[1].code.contains("let y"));
    }

    #[test]
    fn char_literals_do_not_eat_code() {
        let src = "let c = 'x'; let d: &'static str = \"s\"; a.unwrap();\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(f.lines[0].code.contains("a.unwrap()"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still comment .unwrap() */ let z = 1;\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("let z = 1;"));
    }

    #[test]
    fn cfg_test_region_is_masked() {
        let src = "pub fn lib_code() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn helper() { x.unwrap(); }\n\
                   }\n\
                   pub fn more_lib() {}\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test);
        assert!(f.lines[3].in_test);
        assert!(!f.lines[5].in_test, "code after the test mod is lib code");
    }

    #[test]
    fn allow_comment_requires_reason() {
        let src = "a.unwrap(); // lint: allow(unwrap) startup config is mandatory\n\
                   b.unwrap(); // lint: allow(unwrap)\n";
        let f = SourceFile::parse("t.rs", src);
        let (allowed, missing) = f.allows("unwrap");
        assert!(allowed.contains(&1));
        assert_eq!(missing, vec![2]);
    }
}
