//! A lightweight token stream over the code channel of a
//! [`SourceFile`](crate::source::SourceFile). The semantic passes
//! pattern-match token sequences instead of raw lines, which survives
//! formatting differences (multi-line calls, aligned operators) that defeat
//! the per-line rules.
//!
//! The lexer is deliberately tiny: comments, strings and char literals are
//! already blanked by `strip_non_code`, so only idents, numbers and
//! punctuation remain. Multi-char operators that matter to the passes
//! (`::`, `..`, `..=`, `->`, `=>`) are fused into one token; everything
//! else is a single-byte punct.

use crate::source::SourceFile;

/// Token category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`let`, `as`, `HashMap`, ...).
    Ident,
    /// Integer literal (`64`, `0xA77`, `1_000`).
    Int,
    /// Float literal (`1.0`, `2e-3`); also suffixed forms.
    Float,
    /// A (blanked) string literal — content is always `"…"`.
    Str,
    /// Punctuation / operator, possibly fused (`::`, `..`, `->`).
    Punct,
}

/// One token with its provenance.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokKind,
    /// Token text (owned; blanked strings come through as `"`).
    pub text: String,
    /// 1-based source line.
    pub line: usize,
    /// True when the token sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

impl Token {
    /// Is this an identifier with exactly this text?
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Is this punctuation with exactly this text?
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// Lex the code channel of a preprocessed file into a token stream.
pub fn lex(file: &SourceFile) -> Vec<Token> {
    let mut out = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        let lineno = idx + 1;
        let bytes = line.code.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let b = bytes[i];
            if b.is_ascii_whitespace() {
                i += 1;
                continue;
            }
            if b == b'"' {
                // strip_non_code keeps only the delimiting quotes.
                let mut j = i + 1;
                while j < bytes.len() && bytes[j] != b'"' {
                    j += 1;
                }
                out.push(Token {
                    kind: TokKind::Str,
                    text: "\"\"".to_string(),
                    line: lineno,
                    in_test: line.in_test,
                });
                i = (j + 1).min(bytes.len());
                continue;
            }
            if b.is_ascii_alphabetic() || b == b'_' {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                out.push(Token {
                    kind: TokKind::Ident,
                    text: line.code[start..i].to_string(),
                    line: lineno,
                    in_test: line.in_test,
                });
                continue;
            }
            if b.is_ascii_digit() {
                let start = i;
                let mut is_float = false;
                while i < bytes.len() {
                    let c = bytes[i];
                    if c.is_ascii_alphanumeric() || c == b'_' {
                        i += 1;
                    } else if c == b'.'
                        && bytes.get(i + 1).is_none_or(|n| n.is_ascii_digit())
                        && !is_float
                    {
                        // `1.0` / `1.` but not `1..n` (range) or `1.max(…)`.
                        if bytes.get(i + 1) == Some(&b'.') {
                            break;
                        }
                        is_float = true;
                        i += 1;
                    } else if (c == b'+' || c == b'-')
                        && matches!(bytes.get(i.wrapping_sub(1)), Some(&b'e') | Some(&b'E'))
                    {
                        // Exponent sign inside `1e-3`.
                        is_float = true;
                        i += 1;
                    } else {
                        break;
                    }
                }
                let text = &line.code[start..i];
                let kind = if is_float || text.contains('e') && !text.starts_with("0x") {
                    TokKind::Float
                } else {
                    TokKind::Int
                };
                out.push(Token {
                    kind,
                    text: text.to_string(),
                    line: lineno,
                    in_test: line.in_test,
                });
                continue;
            }
            // Punctuation: fuse the multi-byte operators the passes need.
            let two = bytes.get(i + 1).map(|&n| (b, n));
            let three = bytes.get(i + 2).map(|&n| (b, bytes[i + 1], n));
            let fused: Option<&str> = match (two, three) {
                (_, Some((b'.', b'.', b'='))) => Some("..="),
                (Some((b':', b':')), _) => Some("::"),
                (Some((b'.', b'.')), _) => Some(".."),
                (Some((b'-', b'>')), _) => Some("->"),
                (Some((b'=', b'>')), _) => Some("=>"),
                _ => None,
            };
            let text = match fused {
                Some(s) => s,
                None => &line.code[i..i + 1],
            };
            out.push(Token {
                kind: TokKind::Punct,
                text: text.to_string(),
                line: lineno,
                in_test: line.in_test,
            });
            i += text.len();
        }
    }
    out
}

/// Find the index of the matching close delimiter for the open delimiter
/// at `open` (which must be `(`, `[` or `{`). Returns `None` when
/// unbalanced.
pub fn matching_close(tokens: &[Token], open: usize) -> Option<usize> {
    let (o, c) = match tokens.get(open)?.text.as_str() {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        "{" => ("{", "}"),
        _ => return None,
    };
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Split the token range `tokens[start..end]` on top-level commas
/// (commas not nested inside any bracket pair). Returns the argument
/// sub-ranges.
pub fn split_args(tokens: &[Token], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut arg_start = start;
    for j in start..end {
        match tokens[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if depth == 0 => {
                out.push((arg_start, j));
                arg_start = j + 1;
            }
            _ => {}
        }
    }
    if arg_start < end {
        out.push((arg_start, end));
    }
    out
}

/// Render a token range back to a compact source-like string (for
/// messages and DOT labels).
pub fn render(tokens: &[Token], start: usize, end: usize) -> String {
    let mut out = String::new();
    for (j, t) in tokens[start..end].iter().enumerate() {
        let glue = matches!(t.text.as_str(), "." | "::" | "(" | ")" | "[" | "]" | ",")
            || tokens[start + j.saturating_sub(1)]
                .text
                .ends_with(['.', '(', '['])
            || (j > 0 && tokens[start + j - 1].is_punct("::"));
        if j > 0 && !glue {
            out.push(' ');
        }
        out.push_str(&t.text);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn toks(src: &str) -> Vec<Token> {
        lex(&SourceFile::parse("t.rs", src))
    }

    #[test]
    fn idents_numbers_and_puncts() {
        let t = toks("let h = config.hdim * 2;\n");
        let texts: Vec<&str> = t.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            texts,
            ["let", "h", "=", "config", ".", "hdim", "*", "2", ";"]
        );
        assert_eq!(t[7].kind, TokKind::Int);
        assert!(t.iter().all(|t| t.line == 1));
    }

    #[test]
    fn float_vs_range_vs_method_on_int() {
        let t = toks("a(1.0, 0..n, 2e-3, 1.max(x));\n");
        let kinds: Vec<(TokKind, &str)> = t
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Int | TokKind::Float))
            .map(|t| (t.kind, t.text.as_str()))
            .collect();
        assert_eq!(
            kinds,
            [
                (TokKind::Float, "1.0"),
                (TokKind::Int, "0"),
                (TokKind::Float, "2e-3"),
                (TokKind::Int, "1"),
            ]
        );
        assert!(t.iter().any(|t| t.is_punct("..")));
    }

    #[test]
    fn fused_operators() {
        let t = toks("Dense::new(0..=9, || x -> y => z)\n");
        let fused: Vec<&str> = t
            .iter()
            .filter(|t| t.kind == TokKind::Punct && t.text.len() > 1)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(fused, ["::", "..=", "->", "=>"]);
    }

    #[test]
    fn hex_literals_stay_int() {
        let t = toks("seed ^ 0xA77\n");
        assert_eq!(t[2].kind, TokKind::Int);
        assert_eq!(t[2].text, "0xA77");
    }

    #[test]
    fn matching_close_and_split_args() {
        let t = toks("f(a, g(b, c), [d, e])\n");
        let open = t.iter().position(|t| t.is_punct("(")).unwrap();
        let close = matching_close(&t, open).unwrap();
        assert!(t[close].is_punct(")"));
        let args = split_args(&t, open + 1, close);
        assert_eq!(args.len(), 3);
        assert_eq!(render(&t, args[1].0, args[1].1), "g(b, c)");
    }

    #[test]
    fn test_region_flag_propagates() {
        let t = toks("fn lib() {}\n#[cfg(test)]\nmod tests { fn t() {} }\n");
        assert!(!t[0].in_test);
        assert!(t.iter().any(|t| t.is_ident("tests") && t.in_test));
    }

    #[test]
    fn raw_strings_are_opaque_to_the_code_channel() {
        // The `//`, `"` and `/` inside the raw string must not open a
        // comment or terminate the literal early; `after` still lexes.
        let t = toks("let re = r#\"a \" quote // not a comment / { } \"#; let after = 1;\n");
        assert!(t.iter().any(|t| t.is_ident("after")));
        assert!(t.iter().any(|t| t.kind == TokKind::Str));
        // No stray brace tokens leaked out of the literal.
        assert!(!t.iter().any(|t| t.is_punct("{")));
        assert!(t.iter().any(|t| t.is_ident("re")));
    }

    #[test]
    fn nested_block_comments_close_at_the_outermost_level() {
        let t = toks("let a = 1; /* outer /* inner */ still a comment */ let b = 2;\n");
        let idents: Vec<&str> = t
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, ["let", "a", "let", "b"]);
        assert!(!t.iter().any(|t| t.is_ident("inner")));
    }

    #[test]
    fn char_literals_with_quote_and_slash_do_not_derail_the_lexer() {
        // A '"' char must not open a string state and a '/' char must
        // not pair with the next '/' into a comment.
        let t = toks("if c == '\"' || c == '/' { skip(); } let tail = 9;\n");
        assert!(t.iter().any(|t| t.is_ident("tail")));
        assert!(t.iter().any(|t| t.is_ident("skip")));
        let t2 = toks("let q = '\\''; let z = 3;\n");
        assert!(t2.iter().any(|t| t.is_ident("z")));
    }
}
