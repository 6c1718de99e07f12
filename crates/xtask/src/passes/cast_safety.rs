//! A3 — cast-safety analysis for the numeric kernels (`ml`, `nn`,
//! `diffusion`).
//!
//! Two classes of silent numeric corruption are flagged:
//!
//! 1. **Lossy narrowing `as` casts** (`as u8/u16/u32/i8/i16/i32/f32`) —
//!    warning. `expr as u32` silently truncates above `u32::MAX`;
//!    `usize as i32` wraps negative. Use `TryFrom` (with an explicit
//!    saturation policy) or widen the target type.
//! 2. **Unchecked subtraction in index arithmetic** — warning. Both
//!    `buf[i - 1]`-style subtraction inside an index expression and
//!    `….len() - <literal>` underflow and panic (debug) or wrap
//!    (release) when the container is empty; use `saturating_sub`/
//!    `checked_sub` or guard the emptiness case on the same expression.
//!
//! Suppress with `// lint: allow(lossy-cast) <reason>` /
//! `// lint: allow(index-underflow) <reason>` when an invariant makes
//! the operation safe (and say which invariant).

use super::{Context, Finding, Pass, Severity};
use crate::lexer::TokKind;
use std::collections::BTreeSet;

/// Crates in scope for the cast-safety pass.
const SCOPE: [&str; 3] = ["ml", "nn", "diffusion"];

/// Narrowing cast targets.
const NARROW: [&str; 7] = ["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// Guard identifiers that make a subtraction site safe when present in
/// the same statement.
const SUB_GUARDS: [&str; 3] = ["saturating_sub", "checked_sub", "is_empty"];

pub struct CastSafety;

impl Pass for CastSafety {
    fn id(&self) -> &'static str {
        "A3"
    }

    fn run(&self, ctx: &Context) -> Vec<Finding> {
        let mut out = Vec::new();
        for file in &ctx.files {
            if !SCOPE.contains(&file.crate_name()) {
                continue;
            }
            check_narrowing_casts(file, &mut out);
            check_index_subtraction(file, &mut out);
        }
        out
    }
}

fn check_narrowing_casts(file: &super::AnalyzedFile, findings: &mut Vec<Finding>) {
    let toks = &file.tokens;
    for (j, t) in toks.iter().enumerate() {
        if t.in_test || !t.is_ident("as") {
            continue;
        }
        let Some(target) = toks.get(j + 1) else {
            continue;
        };
        if target.kind != TokKind::Ident || !NARROW.contains(&target.text.as_str()) {
            continue;
        }
        // `u32::MAX as usize`-style constants of the narrow type itself
        // widen, they never truncate; `as` here targets the narrow type,
        // so the cast is narrowing by construction.
        findings.push(Finding {
            rule: "A3",
            key: "lossy-cast",
            severity: Severity::Warning,
            path: file.source.path.clone(),
            line: t.line,
            message: format!(
                "narrowing cast `as {0}` silently truncates/wraps out-of-range \
                 values; use `{0}::try_from` with an explicit policy, or annotate \
                 `// lint: allow(lossy-cast) <invariant>`",
                target.text
            ),
        });
    }
}

fn check_index_subtraction(file: &super::AnalyzedFile, findings: &mut Vec<Finding>) {
    let toks = &file.tokens;
    // Lines already carrying a guard identifier are exempt wholesale
    // (statement-level granularity matches how the fixes read).
    let guarded: BTreeSet<usize> = toks
        .iter()
        .filter(|t| t.kind == TokKind::Ident && SUB_GUARDS.contains(&t.text.as_str()))
        .map(|t| t.line)
        .collect();

    // Track index-bracket nesting: `[` counts as indexing when preceded
    // by an ident, `)` or `]` (expression position), not when it opens a
    // slice/array literal or attribute.
    let mut index_depth = 0usize;
    let mut bracket_stack: Vec<bool> = Vec::new();
    for (j, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "[" => {
                let is_index = j > 0
                    && (toks[j - 1].kind == TokKind::Ident
                        || toks[j - 1].is_punct(")")
                        || toks[j - 1].is_punct("]"));
                bracket_stack.push(is_index);
                if is_index {
                    index_depth += 1;
                }
            }
            "]" => {
                if bracket_stack.pop() == Some(true) {
                    index_depth = index_depth.saturating_sub(1);
                }
            }
            "-" if !t.in_test => {
                // Binary minus between two value-ish tokens.
                let prev_ok = j > 0
                    && (toks[j - 1].kind == TokKind::Ident
                        || toks[j - 1].kind == TokKind::Int
                        || toks[j - 1].is_punct(")")
                        || toks[j - 1].is_punct("]"));
                let next = toks.get(j + 1);
                let next_ok =
                    next.is_some_and(|n| n.kind == TokKind::Ident || n.kind == TokKind::Int);
                if !(prev_ok && next_ok) || guarded.contains(&t.line) {
                    continue;
                }
                let in_index = index_depth > 0;
                // `….len() - <int>` anywhere (slice bounds, loop ranges).
                let after_len = j >= 3
                    && toks[j - 1].is_punct(")")
                    && toks[j - 2].is_punct("(")
                    && toks[j - 3].is_ident("len");
                let underflows =
                    after_len && next.is_some_and(|n| n.kind == TokKind::Int && n.text != "0");
                if in_index || underflows {
                    let what = if underflows {
                        format!(
                            "`.len() - {}` underflows when the container holds fewer \
                             than {} element(s)",
                            next.map_or(String::new(), |n| n.text.clone()),
                            next.map_or(String::new(), |n| n.text.clone()),
                        )
                    } else {
                        "unchecked `usize` subtraction inside an index expression \
                         panics (debug) or wraps to a huge index (release) when the \
                         subtrahend is larger"
                            .to_string()
                    };
                    findings.push(Finding {
                        rule: "A3",
                        key: "index-underflow",
                        severity: Severity::Warning,
                        path: file.source.path.clone(),
                        line: t.line,
                        message: format!(
                            "{what}; use `saturating_sub`/`checked_sub`, guard the \
                             empty case, or annotate `// lint: allow(index-underflow) \
                             <invariant>`"
                        ),
                    });
                }
            }
            _ => {}
        }
    }
    // One finding per line is enough even when both sub-rules fire.
    findings.dedup_by(|a, b| a.line == b.line && a.key == b.key && a.path == b.path);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::run_passes;

    fn run_on(path: &str, src: &str) -> Vec<Finding> {
        run_passes(&Context::of(&[(path, src)]), &[Box::new(CastSafety)])
    }

    #[test]
    fn narrowing_cast_is_flagged() {
        let f = run_on(
            "crates/diffusion/src/x.rs",
            "fn f(target: usize) -> u32 { target as u32 }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("as u32"));
    }

    #[test]
    fn widening_casts_are_clean() {
        let f = run_on(
            "crates/ml/src/x.rs",
            "fn f(x: u32, y: f32) -> f64 { x as f64 + y as f64 + (x as usize as f64) }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn len_minus_one_is_flagged() {
        let f = run_on(
            "crates/ml/src/x.rs",
            "fn f(v: &[f64]) -> f64 {\n    let mut s = 0.0;\n    for k in 0..v.len() - 1 { s += v[k]; }\n    s\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains(".len() - 1"));
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn subtraction_inside_index_is_flagged() {
        let f = run_on(
            "crates/ml/src/x.rs",
            "fn f(col: &[f64], idx: &[usize], j: usize) -> f64 { col[idx[j - 1]] }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("index expression"));
    }

    #[test]
    fn saturating_sub_and_guards_are_clean() {
        let f = run_on(
            "crates/ml/src/x.rs",
            "fn f(v: &[f64]) -> usize {\n\
                 let n = v.len().saturating_sub(1);\n\
                 if v.is_empty() { return 0; }\n\
                 n\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn float_subtraction_outside_indexing_is_clean() {
        let f = run_on(
            "crates/nn/src/x.rs",
            "fn f(a: f64, b: f64) -> f64 { a - b - 1.0 }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn out_of_scope_crates_and_tests_are_skipped() {
        let f = run_on(
            "crates/core/src/x.rs",
            "fn f(x: usize) -> u32 { x as u32 }\n",
        );
        assert!(f.is_empty(), "{f:?}");
        let f = run_on(
            "crates/ml/src/x.rs",
            "#[cfg(test)]\nmod tests {\n    fn t(x: usize) -> u32 { x as u32 }\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn allow_comments_suppress_each_key() {
        let f = run_on(
            "crates/ml/src/x.rs",
            "fn f(x: usize, v: &[f64]) -> u32 {\n\
                 // lint: allow(lossy-cast) ids fit u32 by dataset construction\n\
                 let a = x as u32;\n\
                 // lint: allow(index-underflow) caller guarantees v.len() >= 2\n\
                 let _ = v[v.len() - 1];\n\
                 a\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
