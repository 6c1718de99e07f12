//! A13 — unsafe-contract discipline.
//!
//! The simd tier holds the workspace's only `unsafe` (the AVX2 kernel
//! dispatch in `nn::tensor`); this pass machine-enforces the
//! contract that made it acceptable, so the next `unsafe` cannot land
//! without the same rigor:
//!
//! - every `unsafe` block/fn/impl must carry a `// SAFETY:` comment on
//!   the same line or in the comment/attribute run immediately above it;
//! - a `#[target_feature]` fn may only be called from a body that
//!   performs runtime `is_x86_feature_detected!` dispatch before the
//!   call — compile-time `cfg` alone is not evidence the CPU has the
//!   feature;
//! - `get_unchecked`/`from_raw_parts`-style unchecked ops and raw
//!   pointer casts outside the blessed simd kernel file are Errors —
//!   the bounds-checked kernels are the only sanctioned hot path.
//!
//! All findings are **Error** severity: an unsafe contract is either
//! upheld or it is not. Suppress (with a reason) via
//! `// lint: allow(unsafe-contract) <reason>`.

use super::{Context, Finding, Pass, Severity};
use crate::items::ItemIndex;
use crate::lexer::TokKind;

pub struct UnsafeContract;

/// The one file whose kernels are allowed unchecked/raw-pointer ops
/// (today none are used even there, but the simd tier owns the budget).
const BLESSED_SIMD_FILE: &str = "crates/nn/src/tensor.rs";

/// How many comment/attribute/blank lines above an `unsafe` token the
/// SAFETY comment may sit (the blessed shape interleaves
/// `#[allow(unsafe_code)]` and a lint-allow comment between the two).
const SAFETY_WINDOW: usize = 6;

/// Unchecked-access/raw-parts idents that demand `unsafe` and escape
/// the bounds-checking discipline.
const UNCHECKED_OPS: [&str; 4] = [
    "get_unchecked",
    "get_unchecked_mut",
    "from_raw_parts",
    "from_raw_parts_mut",
];

impl Pass for UnsafeContract {
    fn id(&self) -> &'static str {
        "A13"
    }

    fn run(&self, ctx: &Context) -> Vec<Finding> {
        let mut out = Vec::new();
        let index = &ctx.graph().index;
        let tf_fns = target_feature_fns(ctx);

        for (fi, file) in ctx.files.iter().enumerate() {
            let toks = &file.tokens;
            let mut findings = Vec::new();
            for k in 0..toks.len() {
                let t = &toks[k];
                if t.in_test || t.kind != TokKind::Ident {
                    continue;
                }
                // (1) `unsafe` without a SAFETY comment.
                if t.text == "unsafe" && !has_safety_comment(file, t.line) {
                    findings.push(Finding {
                        rule: "A13",
                        key: "unsafe-contract",
                        severity: Severity::Error,
                        path: file.source.path.clone(),
                        line: t.line,
                        message: "`unsafe` without a `// SAFETY:` comment — state the \
                                  invariant that makes this sound (on the line above or \
                                  at the end of the unsafe line)"
                            .into(),
                    });
                }
                // (2) `#[target_feature]` fn called outside runtime dispatch.
                if tf_fns.iter().any(|n| n == &t.text)
                    && toks.get(k + 1).is_some_and(|n| n.is_punct("("))
                    && !(k > 0 && toks[k - 1].is_ident("fn"))
                    && !detected_before(ctx, index, fi, k)
                {
                    findings.push(Finding {
                        rule: "A13",
                        key: "unsafe-contract",
                        severity: Severity::Error,
                        path: file.source.path.clone(),
                        line: t.line,
                        message: format!(
                            "`{}` is a #[target_feature] fn but this call is not guarded \
                             by `is_x86_feature_detected!` in the same body — compile-time \
                             cfg does not prove the CPU has the feature",
                            t.text
                        ),
                    });
                }
                // (3) unchecked ops / raw-pointer casts outside the
                // blessed simd kernel file.
                if file.source.path.ends_with(BLESSED_SIMD_FILE) {
                    continue;
                }
                let unchecked = UNCHECKED_OPS.iter().any(|op| t.text == *op)
                    && toks.get(k + 1).is_some_and(|n| n.is_punct("("));
                let raw_cast = t.text == "as"
                    && toks.get(k + 1).is_some_and(|n| n.is_punct("*"))
                    && toks
                        .get(k + 2)
                        .is_some_and(|n| n.is_ident("const") || n.is_ident("mut"));
                if unchecked || raw_cast {
                    findings.push(Finding {
                        rule: "A13",
                        key: "unsafe-contract",
                        severity: Severity::Error,
                        path: file.source.path.clone(),
                        line: t.line,
                        message: format!(
                            "{} outside the blessed simd kernels ({BLESSED_SIMD_FILE}) — \
                             the bounds-checked kernel surface is the only sanctioned \
                             unchecked hot path",
                            if unchecked {
                                format!("unchecked op `{}`", t.text)
                            } else {
                                "raw-pointer cast".to_string()
                            }
                        ),
                    });
                }
            }
            out.extend(findings);
        }
        out
    }
}

/// Does line `lineno` (1-based) carry — or sit under — a `SAFETY:`
/// comment? Walks upward through comment-only, attribute and blank
/// lines (at most [`SAFETY_WINDOW`]); any other code line ends the
/// search.
fn has_safety_comment(file: &super::AnalyzedFile, lineno: usize) -> bool {
    let lines = &file.source.lines;
    let mut idx = lineno.saturating_sub(1); // 0-based
    for step in 0..=SAFETY_WINDOW {
        let Some(line) = lines.get(idx) else {
            return false;
        };
        if line.comment.contains("SAFETY:") {
            return true;
        }
        let code = line.code.trim();
        // The unsafe line itself (step 0) is always allowed to continue
        // upward; above it, only comment/attribute/blank lines may
        // intervene between the contract and the keyword.
        if step > 0 && !(code.is_empty() || code.starts_with('#')) {
            return false;
        }
        if idx == 0 {
            return false;
        }
        idx -= 1;
    }
    false
}

/// Names of fns declared under a `#[target_feature(...)]` attribute,
/// workspace-wide.
fn target_feature_fns(ctx: &Context) -> Vec<String> {
    let mut out = Vec::new();
    for file in &ctx.files {
        let toks = &file.tokens;
        for k in 0..toks.len() {
            if !toks[k].is_ident("target_feature") || toks[k].in_test {
                continue;
            }
            if !(k >= 2 && toks[k - 1].is_punct("[") && toks[k - 2].is_punct("#")) {
                continue;
            }
            // The attribute's fn follows within a few tokens (visibility
            // and further attributes may intervene).
            for m in k + 1..(k + 24).min(toks.len()) {
                if toks[m].is_ident("fn") {
                    if let Some(name) = toks.get(m + 1).filter(|t| t.kind == TokKind::Ident) {
                        out.push(name.text.clone());
                    }
                    break;
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Is the call at token `k` of file `fi` preceded (in its enclosing fn
/// body) by an `is_x86_feature_detected` check?
fn detected_before(ctx: &Context, index: &ItemIndex, fi: usize, k: usize) -> bool {
    let Some(item) = index
        .fns
        .iter()
        .filter(|f| f.file == fi)
        .filter(|f| f.body.is_some_and(|(b0, b1)| b0 <= k && k < b1))
        .min_by_key(|f| f.body.map(|(b0, b1)| b1 - b0).unwrap_or(usize::MAX))
    else {
        return false;
    };
    let Some((b0, _)) = item.body else {
        return false;
    };
    let toks = &ctx.files[fi].tokens;
    (b0..k).any(|m| toks[m].is_ident("is_x86_feature_detected"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::run_passes;

    fn run_on(files: &[(&str, &str)]) -> Vec<Finding> {
        run_passes(&Context::of(files), &[Box::new(UnsafeContract)])
    }

    #[test]
    fn unsafe_without_safety_comment_is_an_error() {
        let f = run_on(&[(
            "crates/nn/src/x.rs",
            "pub fn f(xs: &[f32]) -> f32 {\n\
                 unsafe { *xs.as_ptr() }\n\
             }\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].severity, Severity::Error);
        assert!(f[0].message.contains("SAFETY"));
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn safety_comment_above_or_inline_satisfies_the_contract() {
        let f = run_on(&[(
            "crates/nn/src/x.rs",
            "pub fn f(xs: &[f32]) -> f32 {\n\
                 // SAFETY: xs is non-empty by the caller's contract.\n\
                 #[allow(unsafe_code)]\n\
                 unsafe { *xs.as_ptr() }\n\
             }\n\
             pub fn g(xs: &[f32]) -> f32 {\n\
                 unsafe { *xs.as_ptr() } // SAFETY: same contract as f.\n\
             }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn real_code_between_comment_and_unsafe_breaks_the_window() {
        let f = run_on(&[(
            "crates/nn/src/x.rs",
            "pub fn f(xs: &[f32]) -> f32 {\n\
                 // SAFETY: stale comment about some other block.\n\
                 let n = xs.len();\n\
                 unsafe { *xs.as_ptr().add(n - 1) }\n\
             }\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn target_feature_call_outside_detection_is_an_error() {
        let f = run_on(&[(
            "crates/nn/src/x.rs",
            "#[target_feature(enable = \"avx2\")]\n\
             pub fn kernel_avx2(xs: &mut [f32]) { xs[0] += 1.0; }\n\
             pub fn good(xs: &mut [f32]) {\n\
                 if std::arch::is_x86_feature_detected!(\"avx2\") {\n\
                     // SAFETY: AVX2 verified at runtime on the line above.\n\
                     unsafe { return kernel_avx2(xs); }\n\
                 }\n\
             }\n\
             pub fn bad(xs: &mut [f32]) {\n\
                 // SAFETY: trust me, the build machine has AVX2.\n\
                 unsafe { kernel_avx2(xs) }\n\
             }\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("kernel_avx2"));
        assert!(f[0].message.contains("is_x86_feature_detected"));
    }

    #[test]
    fn unchecked_ops_and_raw_casts_outside_blessed_file_are_errors() {
        let f = run_on(&[
            (
                "crates/ml/src/x.rs",
                "pub fn f(xs: &[f32]) -> f32 {\n\
                     // SAFETY: index checked by caller.\n\
                     unsafe { *xs.get_unchecked(0) }\n\
                 }\n\
                 pub fn g(x: &f32) -> u32 {\n\
                     let p = x as *const f32 as *const u32;\n\
                     // SAFETY: same layout.\n\
                     unsafe { *p }\n\
                 }\n",
            ),
            (
                "crates/nn/src/tensor.rs",
                "pub fn blessed(xs: &[f32]) -> f32 {\n\
                     // SAFETY: kernel contract pins xs length.\n\
                     unsafe { *xs.get_unchecked(0) }\n\
                 }\n",
            ),
        ]);
        let unchecked: Vec<&Finding> = f
            .iter()
            .filter(|x| x.message.contains("get_unchecked"))
            .collect();
        assert_eq!(unchecked.len(), 1, "{f:?}");
        assert_eq!(unchecked[0].path, "crates/ml/src/x.rs");
        assert!(
            f.iter().any(|x| x.message.contains("raw-pointer cast")),
            "{f:?}"
        );
    }

    #[test]
    fn a_reasoned_allow_suppresses_and_a_bare_one_does_not() {
        let f = run_on(&[(
            "crates/nn/src/x.rs",
            "pub fn f(xs: &[f32]) -> f32 {\n\
                 // lint: allow(unsafe-contract) ffi contract documented in DESIGN.md\n\
                 unsafe { *xs.as_ptr() }\n\
             }\n\
             pub fn g(xs: &[f32]) -> f32 {\n\
                 // lint: allow(unsafe-contract)\n\
                 unsafe { *xs.as_ptr() }\n\
             }\n",
        )]);
        let a13: Vec<&Finding> = f.iter().filter(|x| x.rule == "A13").collect();
        assert_eq!(a13.len(), 1, "reasonless allow does not suppress: {f:?}");
    }
}
