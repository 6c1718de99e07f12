//! The lint rules (R1, R2, R4). Each rule is a pure function over a
//! preprocessed [`SourceFile`] so fixture snippets can drive the unit
//! tests directly.

use crate::source::SourceFile;

/// A hard violation (fails the lint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id: "R1", "R2", "R4", or "allow" for malformed allow-comments.
    pub rule: &'static str,
    /// Allow-comment key that suppresses this violation.
    pub key: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

/// Crates exempt from R1: the bench harness and the corpus-ingestion
/// crates whose parsers surface errors by panicking on malformed
/// fixtures. Every *other* workspace member — including the lint
/// tooling itself and any crate added after this list was written — has
/// panic-free non-test library code; exclusion-based so new members are
/// covered the day they appear in the manifest.
pub const R1_EXEMPT: [&str; 3] = ["bench", "socialsim", "text"];

/// The tensor hot-kernel file under R4.
pub const R4_FILE: &str = "crates/nn/src/tensor.rs";

/// Tensor accessors allowed to index the backing buffer directly (they
/// carry the `debug_assert!` bounds guards).
const R4_ACCESSORS: [&str; 6] = ["get", "set", "row", "row_mut", "data", "data_mut"];

/// Does R1 apply to this path? (library code of every non-exempt
/// member crate; `tests/`, `benches/` and `examples/` trees are
/// excluded by the walker.)
pub fn r1_applies(path: &str) -> bool {
    let Some(rest) = path.strip_prefix("crates/") else {
        return false;
    };
    let Some((name, tail)) = rest.split_once('/') else {
        return false;
    };
    !R1_EXEMPT.contains(&name) && tail.starts_with("src/")
}

/// Collect malformed allow-comments for `key` as violations.
fn allow_misuses(file: &SourceFile, key: &'static str, out: &mut Vec<Violation>) {
    let (_, missing) = file.allows(key);
    for line in missing {
        out.push(Violation {
            rule: "allow",
            key,
            path: file.path.clone(),
            line,
            message: format!("`lint: allow({key})` needs a reason after the closing paren"),
        });
    }
}

/// R1: no `.unwrap()` / `.expect(` in non-test library code.
pub fn r1_no_unwrap(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    if !r1_applies(&file.path) {
        return out;
    }
    let (allowed, _) = file.allows("unwrap");
    allow_misuses(file, "unwrap", &mut out);
    for (i, line) in file.lines.iter().enumerate() {
        let n = i + 1;
        if line.in_test || allowed.contains(&n) {
            continue;
        }
        for pat in [".unwrap()", ".expect("] {
            if line.code.contains(pat) {
                out.push(Violation {
                    rule: "R1",
                    key: "unwrap",
                    path: file.path.clone(),
                    line: n,
                    message: format!(
                        "`{pat}` in library code can panic at runtime; return a Result, \
                         handle the None/Err case, or annotate \
                         `// lint: allow(unwrap) <reason>`"
                    ),
                });
            }
        }
    }
    out
}

/// R2: no direct float `==` / `!=` outside tests (float-literal operand
/// heuristic: `x == 1.0`, `y != 0.5f64`, `z == f64::INFINITY`, ...).
pub fn r2_no_float_eq(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    let (allowed, _) = file.allows("float-cmp");
    allow_misuses(file, "float-cmp", &mut out);
    for (i, line) in file.lines.iter().enumerate() {
        let n = i + 1;
        if line.in_test || allowed.contains(&n) {
            continue;
        }
        for (op_pos, op) in find_eq_ops(&line.code) {
            let lhs = token_before(&line.code, op_pos);
            let rhs = token_after(&line.code, op_pos + op.len());
            if is_float_token(&lhs) || is_float_token(&rhs) {
                out.push(Violation {
                    rule: "R2",
                    key: "float-cmp",
                    path: file.path.clone(),
                    line: n,
                    message: format!(
                        "direct float comparison `{lhs} {op} {rhs}`; compare with an \
                         epsilon tolerance or annotate `// lint: allow(float-cmp) <reason>`"
                    ),
                });
            }
        }
    }
    out
}

/// R4: in the tensor hot kernels, the backing buffer must be reached
/// through the `debug_assert!`-guarded accessors, not raw indexing.
pub fn r4_tensor_indexing(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    if !file.path.ends_with(R4_FILE) {
        return out;
    }
    let (allowed, _) = file.allows("index");
    allow_misuses(file, "index", &mut out);
    let mut current_fn = String::new();
    for (i, line) in file.lines.iter().enumerate() {
        let n = i + 1;
        if let Some(name) = fn_name(&line.code) {
            current_fn = name;
        }
        if line.in_test || allowed.contains(&n) {
            continue;
        }
        if R4_ACCESSORS.contains(&current_fn.as_str()) {
            continue;
        }
        if has_raw_data_index(&line.code) {
            out.push(Violation {
                rule: "R4",
                key: "index",
                path: file.path.clone(),
                line: n,
                message: format!(
                    "raw `data[..]` indexing in `{current_fn}`; use the \
                     debug_assert!-guarded accessors (get/set/row/row_mut) or annotate \
                     `// lint: allow(index) <reason>`"
                ),
            });
        }
    }
    out
}

/// Run every rule on one file.
pub fn lint_file(file: &SourceFile) -> Vec<Violation> {
    let mut v = r1_no_unwrap(file);
    v.extend(r2_no_float_eq(file));
    v.extend(r4_tensor_indexing(file));
    v
}

/// Positions of bare `==` / `!=` operators (excluding `<=`, `>=`, `=>`).
fn find_eq_ops(code: &str) -> Vec<(usize, &'static str)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < bytes.len() {
        let pair = (bytes[i], bytes[i + 1]);
        if pair == (b'=', b'=') || pair == (b'!', b'=') {
            let prev = i.checked_sub(1).map(|p| bytes[p]);
            let next = bytes.get(i + 2);
            let standalone = !matches!(prev, Some(b'<') | Some(b'>') | Some(b'=') | Some(b'!'))
                && next != Some(&b'=');
            if standalone {
                out.push((i, if pair.0 == b'=' { "==" } else { "!=" }));
                i += 2;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// The expression token immediately left of byte `pos`.
fn token_before(code: &str, pos: usize) -> String {
    let left = code[..pos].trim_end();
    let start = left
        .rfind(|c: char| {
            !(c.is_alphanumeric() || matches!(c, '_' | '.' | ':' | ')' | ']' | '-' | '+'))
        })
        .map_or(0, |p| p + 1);
    left[start..].to_string()
}

/// The expression token immediately right of byte `pos`.
fn token_after(code: &str, pos: usize) -> String {
    let right = code[pos..].trim_start();
    let stripped = right.strip_prefix('-').unwrap_or(right);
    let end = stripped
        .find(|c: char| !(c.is_alphanumeric() || matches!(c, '_' | '.' | ':')))
        .unwrap_or(stripped.len());
    let sign = if stripped.len() != right.len() {
        "-"
    } else {
        ""
    };
    format!("{sign}{}", &stripped[..end])
}

/// Is this token a float literal / well-known float constant?
fn is_float_token(token: &str) -> bool {
    let t = token.trim_start_matches('-');
    if matches!(
        t,
        "f64::INFINITY"
            | "f64::NEG_INFINITY"
            | "f64::NAN"
            | "f32::INFINITY"
            | "f32::NEG_INFINITY"
            | "f32::NAN"
            | "f64::EPSILON"
            | "f32::EPSILON"
    ) {
        return true;
    }
    let t = t
        .strip_suffix("f64")
        .or_else(|| t.strip_suffix("f32"))
        .unwrap_or(t);
    if t.is_empty() || !t.starts_with(|c: char| c.is_ascii_digit()) {
        // Suffixed literal like `5f64` already handled; `x.0` tuple access
        // and idents are not floats for this heuristic.
        return t.len() != token.trim_start_matches('-').len()
            && t.chars().all(|c| c.is_ascii_digit());
    }
    // Digits with a decimal point (`1.`, `0.5`, `1.0e-3`) or exponent.
    let has_dot = t.contains('.');
    let has_exp = t.contains('e') || t.contains('E');
    let valid = t
        .chars()
        .all(|c| c.is_ascii_digit() || matches!(c, '.' | '_' | 'e' | 'E' | '-' | '+'));
    valid && (has_dot || has_exp || t.len() != token.trim_start_matches('-').len())
}

/// `fn name` extraction for R4 scope tracking.
fn fn_name(code: &str) -> Option<String> {
    let pos = code.find("fn ")?;
    // Require a word boundary before `fn`.
    if pos > 0
        && code[..pos]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
    {
        return None;
    }
    let rest = code[pos + 3..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    (end > 0).then(|| rest[..end].to_string())
}

/// Raw indexing of a `data` buffer: `data[`, `self.data[`, `out.data[`.
fn has_raw_data_index(code: &str) -> bool {
    let mut search = 0;
    while let Some(pos) = code[search..].find("data[") {
        let abs = search + pos;
        let prev = code[..abs].chars().next_back();
        // Word boundary: `.data[`, start-of-expr `data[`; not `metadata[`.
        if prev.is_none_or(|c| !(c.is_alphanumeric() || c == '_')) {
            return true;
        }
        search = abs + 5;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn nn_file(src: &str) -> SourceFile {
        SourceFile::parse("crates/nn/src/example.rs", src)
    }

    // -------- R1 --------

    #[test]
    fn r1_flags_unwrap_and_expect() {
        let f = nn_file("pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\nfn g(r: Result<u8, ()>) -> u8 { r.expect(\"boom\") }\n");
        let v = r1_no_unwrap(&f);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].line, 2);
        assert_eq!(v[1].line, 4);
        assert!(v.iter().all(|x| x.rule == "R1"));
    }

    #[test]
    fn r1_skips_tests_comments_and_strings() {
        let f = nn_file(
            "// a comment mentioning .unwrap()\n\
             const S: &str = \".unwrap()\";\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn t() { Some(1).unwrap(); }\n\
             }\n",
        );
        assert!(r1_no_unwrap(&f).is_empty());
    }

    #[test]
    fn r1_respects_allow_with_reason() {
        let f = nn_file(
            "fn f(x: Option<u8>) -> u8 {\n\
                 // lint: allow(unwrap) invariant: caller checked is_some\n\
                 x.unwrap()\n\
             }\n",
        );
        assert!(r1_no_unwrap(&f).is_empty());
    }

    #[test]
    fn r1_rejects_allow_without_reason() {
        let f = nn_file("fn f(x: Option<u8>) -> u8 { x.unwrap() // lint: allow(unwrap)\n}\n");
        let v = r1_no_unwrap(&f);
        // The malformed allow is itself a violation, and it does NOT
        // suppress the unwrap it points at.
        let rules: Vec<&str> = v.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&"allow"), "{v:?}");
        assert!(rules.contains(&"R1"), "{v:?}");
    }

    #[test]
    fn r1_ignores_out_of_scope_crates() {
        let f = SourceFile::parse("crates/socialsim/src/x.rs", "fn f() { o().unwrap(); }\n");
        assert!(r1_no_unwrap(&f).is_empty());
    }

    #[test]
    fn r1_scope_is_exclusion_based() {
        // Pin the exemption list and the default-in behavior: a member
        // crate added after the list was written is covered without
        // touching R1_EXEMPT.
        assert_eq!(R1_EXEMPT, ["bench", "socialsim", "text"]);
        assert!(r1_applies("crates/brandnew/src/lib.rs"));
        assert!(r1_applies("crates/serving/src/server.rs"));
        assert!(
            r1_applies("crates/xtask/src/rules.rs"),
            "the linter lints itself"
        );
        assert!(!r1_applies("crates/text/src/tokenize.rs"));
        assert!(!r1_applies("crates/nn/tests/gru.rs"), "non-src tree");
        assert!(!r1_applies("src/lib.rs"), "root package");
    }

    // -------- R2 --------

    #[test]
    fn r2_flags_float_literal_comparison() {
        let f = nn_file("fn f(a: f64) -> bool { a == 0.0 }\n");
        let v = r2_no_float_eq(&f);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "R2");
    }

    #[test]
    fn r2_flags_ne_and_suffixed_literals() {
        let f =
            nn_file("fn f(a: f64) -> bool { 1.5f64 != a }\nfn g(b: f32) -> bool { b == 2e-3 }\n");
        assert_eq!(r2_no_float_eq(&f).len(), 2);
    }

    #[test]
    fn r2_skips_integer_comparisons_and_tests() {
        let f = nn_file(
            "fn f(a: usize) -> bool { a == 0 }\n\
             fn h(a: usize) -> bool { a != 10 }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn t() { assert!(x == 1.0); }\n\
             }\n",
        );
        assert!(r2_no_float_eq(&f).is_empty());
    }

    #[test]
    fn r2_skips_compound_operators() {
        let f = nn_file("fn f(a: f64) -> bool { a <= 1.0 && a >= 0.0 }\nfn m() -> u8 { match 1 { _ => 2.0 as u8 } }\n");
        assert!(r2_no_float_eq(&f).is_empty());
    }

    #[test]
    fn r2_respects_allow() {
        let f =
            nn_file("fn f(a: f64) -> bool { a == 0.0 } // lint: allow(float-cmp) exact sentinel\n");
        assert!(r2_no_float_eq(&f).is_empty());
    }

    // -------- R4 --------

    fn tensor_file(src: &str) -> SourceFile {
        SourceFile::parse("crates/nn/src/tensor.rs", src)
    }

    #[test]
    fn r4_flags_raw_indexing_outside_accessors() {
        let f = tensor_file(
            "impl Matrix {\n\
                 pub fn matmul(&self, o: &Matrix) -> f64 {\n\
                     self.data[0] * o.data[1]\n\
                 }\n\
             }\n",
        );
        let v = r4_tensor_indexing(&f);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "R4");
    }

    #[test]
    fn r4_allows_the_guarded_accessors() {
        let f = tensor_file(
            "impl Matrix {\n\
                 pub fn get(&self, r: usize, c: usize) -> f64 {\n\
                     debug_assert!(r < self.rows);\n\
                     self.data[r * self.cols + c]\n\
                 }\n\
                 pub fn row(&self, r: usize) -> &[f64] {\n\
                     &self.data[r * self.cols..(r + 1) * self.cols]\n\
                 }\n\
             }\n",
        );
        assert!(r4_tensor_indexing(&f).is_empty());
    }

    #[test]
    fn r4_ignores_metadata_identifiers_and_other_files() {
        let f = tensor_file("fn f(metadata: &[u8]) -> u8 { metadata[0] }\n");
        assert!(r4_tensor_indexing(&f).is_empty());
        let g = SourceFile::parse(
            "crates/nn/src/dense.rs",
            "fn f(d: &[u8]) -> u8 { d.data[0] }\n",
        );
        assert!(r4_tensor_indexing(&g).is_empty());
    }

    #[test]
    fn r4_respects_allow() {
        let f = tensor_file(
            "fn fast_path(&self) -> f64 {\n\
                 // lint: allow(index) bounds proven by caller loop range\n\
                 self.data[0]\n\
             }\n",
        );
        assert!(r4_tensor_indexing(&f).is_empty());
    }

    // -------- engine --------

    #[test]
    fn lint_file_merges_all_rules() {
        let f = nn_file(
            "fn f(p: f64) -> f64 {\n\
                 // TODO: tighten\n\
                 if p == 0.0 { return 0.0; }\n\
                 Some(p).unwrap()\n\
             }\n",
        );
        let v = lint_file(&f);
        let rules: Vec<&str> = v.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&"R1"), "{rules:?}");
        assert!(rules.contains(&"R2"), "{rules:?}");
    }
}
