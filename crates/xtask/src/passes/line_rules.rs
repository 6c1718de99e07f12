//! R1, R2 and R4, the per-line rules. Each reads the code channel of a
//! [`SourceFile`] a line at a time (comments and string contents
//! blanked, `#[cfg(test)]` lines masked) and reports through the pass
//! manager, which applies their allow keys (`unwrap`, `float-cmp`,
//! `index`) as it does every pass's.

use super::{Context, Finding, Pass, Severity};
use crate::source::SourceFile;

/// A per-line rule: its id, its allow key, and the check that lists
/// `(line, message)` for each violation in one file.
pub struct LineRule {
    id: &'static str,
    key: &'static str,
    check: fn(&SourceFile) -> Vec<(usize, String)>,
}

/// R1: no `.unwrap()` / `.expect(` in non-test library code.
pub const R1: LineRule = LineRule {
    id: "R1",
    key: "unwrap",
    check: r1_no_unwrap,
};

/// R2: no direct float `==` / `!=` outside tests.
pub const R2: LineRule = LineRule {
    id: "R2",
    key: "float-cmp",
    check: r2_no_float_eq,
};

/// R4: no raw `data[..]` indexing in the tensor hot kernels.
pub const R4: LineRule = LineRule {
    id: "R4",
    key: "index",
    check: r4_tensor_indexing,
};

impl Pass for LineRule {
    fn id(&self) -> &'static str {
        self.id
    }

    fn run(&self, ctx: &Context) -> Vec<Finding> {
        let mut out = Vec::new();
        for file in &ctx.files {
            for (line, message) in (self.check)(&file.source) {
                out.push(Finding {
                    rule: self.id,
                    key: self.key,
                    severity: Severity::Error,
                    path: file.source.path.clone(),
                    line,
                    message,
                });
            }
        }
        out
    }
}

/// Crates exempt from R1: the bench harness and the corpus-ingestion
/// crates whose parsers surface errors by panicking on malformed
/// fixtures. Every *other* workspace member — including this analysis
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

fn r1_no_unwrap(file: &SourceFile) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    if !r1_applies(&file.path) {
        return out;
    }
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for pat in [".unwrap()", ".expect("] {
            if line.code.contains(pat) {
                out.push((
                    i + 1,
                    format!(
                        "`{pat}` in library code can panic at runtime; return a Result, \
                         handle the None/Err case, or annotate \
                         `// lint: allow(unwrap) <reason>`"
                    ),
                ));
            }
        }
    }
    out
}

/// The float-literal operand heuristic: `x == 1.0`, `y != 0.5f64`,
/// `z == f64::INFINITY`, ...
fn r2_no_float_eq(file: &SourceFile) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (op_pos, op) in find_eq_ops(&line.code) {
            let lhs = token_before(&line.code, op_pos);
            let rhs = token_after(&line.code, op_pos + op.len());
            if is_float_token(&lhs) || is_float_token(&rhs) {
                out.push((
                    i + 1,
                    format!(
                        "direct float comparison `{lhs} {op} {rhs}`; compare with an \
                         epsilon tolerance or annotate `// lint: allow(float-cmp) <reason>`"
                    ),
                ));
            }
        }
    }
    out
}

/// In the tensor hot kernels, the backing buffer must be reached through
/// the `debug_assert!`-guarded accessors, not raw indexing.
fn r4_tensor_indexing(file: &SourceFile) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    if !file.path.ends_with(R4_FILE) {
        return out;
    }
    let mut current_fn = String::new();
    for (i, line) in file.lines.iter().enumerate() {
        if let Some(name) = fn_name(&line.code) {
            current_fn = name;
        }
        if line.in_test || R4_ACCESSORS.contains(&current_fn.as_str()) {
            continue;
        }
        if has_raw_data_index(&line.code) {
            out.push((
                i + 1,
                format!(
                    "raw `data[..]` indexing in `{current_fn}`; use the \
                     debug_assert!-guarded accessors (get/set/row/row_mut) or annotate \
                     `// lint: allow(index) <reason>`"
                ),
            ));
        }
    }
    out
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
    use crate::passes::run_passes;

    /// `(rule, line, key)` of everything the three line rules and the
    /// pass manager's allow check report on one file.
    fn lint(path: &str, src: &str) -> Vec<(&'static str, usize, &'static str)> {
        let ctx = Context::of(&[(path, src)]);
        run_passes(&ctx, &[Box::new(R1), Box::new(R2), Box::new(R4)])
            .iter()
            .map(|f| (f.rule, f.line, f.key))
            .collect()
    }

    fn nn(src: &str) -> Vec<(&'static str, usize, &'static str)> {
        lint("crates/nn/src/example.rs", src)
    }

    fn tensor(src: &str) -> Vec<(&'static str, usize, &'static str)> {
        lint(R4_FILE, src)
    }

    // -------- R1 --------

    #[test]
    fn r1_flags_unwrap_and_expect() {
        let v = nn("pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\nfn g(r: Result<u8, ()>) -> u8 { r.expect(\"boom\") }\n");
        assert_eq!(v, [("R1", 2, "unwrap"), ("R1", 4, "unwrap")]);
    }

    #[test]
    fn r1_skips_tests_comments_and_strings() {
        let v = nn("// a comment mentioning .unwrap()\n\
             const S: &str = \".unwrap()\";\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn t() { Some(1).unwrap(); }\n\
             }\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r1_respects_allow_with_reason() {
        let v = nn("fn f(x: Option<u8>) -> u8 {\n\
                 // lint: allow(unwrap) invariant: caller checked is_some\n\
                 x.unwrap()\n\
             }\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn a_reasonless_allow_suppresses_no_line_rule() {
        // For each line rule's key: the malformed allow is itself an
        // error, and it does NOT suppress the violation it points at.
        let v = nn("fn f(x: Option<u8>) -> u8 { x.unwrap() // lint: allow(unwrap)\n}\n");
        assert_eq!(v, [("R1", 1, "unwrap"), ("allow", 1, "allow")]);
        let v = nn("fn f(a: f64) -> bool { a == 0.0 } // lint: allow(float-cmp)\n");
        assert_eq!(v, [("R2", 1, "float-cmp"), ("allow", 1, "allow")]);
        let v = tensor("fn f(&self) -> f64 { self.data[0] } // lint: allow(index)\n");
        assert_eq!(v, [("R4", 1, "index"), ("allow", 1, "allow")]);
    }

    #[test]
    fn r1_ignores_out_of_scope_crates() {
        let v = lint("crates/socialsim/src/x.rs", "fn f() { o().unwrap(); }\n");
        assert!(v.is_empty(), "{v:?}");
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
            r1_applies("crates/xtask/src/passes/line_rules.rs"),
            "the analysis checks itself"
        );
        assert!(!r1_applies("crates/text/src/tokenize.rs"));
        assert!(!r1_applies("crates/nn/tests/gru.rs"), "non-src tree");
        assert!(!r1_applies("src/lib.rs"), "root package");
    }

    // -------- R2 --------

    #[test]
    fn r2_flags_float_literal_comparison() {
        let v = nn("fn f(a: f64) -> bool { a == 0.0 }\n");
        assert_eq!(v, [("R2", 1, "float-cmp")]);
    }

    #[test]
    fn r2_flags_ne_and_suffixed_literals() {
        let v = nn("fn f(a: f64) -> bool { 1.5f64 != a }\nfn g(b: f32) -> bool { b == 2e-3 }\n");
        assert_eq!(v, [("R2", 1, "float-cmp"), ("R2", 2, "float-cmp")]);
    }

    #[test]
    fn r2_skips_integer_comparisons_and_tests() {
        let v = nn("fn f(a: usize) -> bool { a == 0 }\n\
             fn h(a: usize) -> bool { a != 10 }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn t() { assert!(x == 1.0); }\n\
             }\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r2_skips_compound_operators() {
        let v = nn("fn f(a: f64) -> bool { a <= 1.0 && a >= 0.0 }\nfn m() -> u8 { match 1 { _ => 2.0 as u8 } }\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r2_respects_allow() {
        let v = nn("fn f(a: f64) -> bool { a == 0.0 } // lint: allow(float-cmp) exact sentinel\n");
        assert!(v.is_empty(), "{v:?}");
    }

    // -------- R4 --------

    #[test]
    fn r4_flags_raw_indexing_outside_accessors() {
        let v = tensor(
            "impl Matrix {\n\
                 pub fn matmul(&self, o: &Matrix) -> f64 {\n\
                     self.data[0] * o.data[1]\n\
                 }\n\
             }\n",
        );
        assert_eq!(v, [("R4", 3, "index")]);
    }

    #[test]
    fn r4_allows_the_guarded_accessors() {
        let v = tensor(
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
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r4_ignores_metadata_identifiers_and_other_files() {
        let v = tensor("fn f(metadata: &[u8]) -> u8 { metadata[0] }\n");
        assert!(v.is_empty(), "{v:?}");
        let v = lint(
            "crates/nn/src/dense.rs",
            "fn f(d: &[u8]) -> u8 { d.data[0] }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r4_respects_allow() {
        let v = tensor(
            "fn fast_path(&self) -> f64 {\n\
                 // lint: allow(index) bounds proven by caller loop range\n\
                 self.data[0]\n\
             }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    // -------- together --------

    #[test]
    fn line_rules_report_together() {
        let v = nn("fn f(p: f64) -> f64 {\n\
                 // TODO: tighten\n\
                 if p == 0.0 { return 0.0; }\n\
                 Some(p).unwrap()\n\
             }\n");
        assert_eq!(v, [("R1", 4, "unwrap"), ("R2", 3, "float-cmp")]);
    }
}
