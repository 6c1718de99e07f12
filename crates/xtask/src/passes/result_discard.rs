//! A6 — discarded `Result` detection, workspace-wide.
//!
//! A dropped `Result` silently swallows I/O and fit errors; every
//! fallible call must be propagated (`?`), matched, or logged with
//! context. Two complementary detectors:
//!
//! 1. **Indexed calls**: every resolved call-graph edge whose callee
//!    declares `-> Result<...>` is checked at the call site. Discards are
//!    `let _ = f(...)` and bare statement position `f(...);`; a trailing
//!    `?`, `.ok()`, any other method chain, or use in a larger
//!    expression counts as consumed.
//! 2. **Known-fallible std calls** under `let _ =`: `std::fs` mutations
//!    (`write`, `create_dir_all`, `remove_dir_all`, `remove_file`,
//!    `copy`, `rename`), `write!`/`writeln!`, and `.flush()`/
//!    `.write_all()` — the std surface this workspace actually touches.
//!
//! Findings are **Warning** severity with the allow key
//! `discard-result`; test code is exempt (tests legitimately discard,
//! e.g. pre-cleanup `remove_dir_all`).

use super::{Context, Finding, Pass, Severity};
use crate::lexer::{matching_close, TokKind, Token};

pub struct ResultDiscard;

/// `let _ = <fallible std call>` patterns: path tails that return
/// `Result` and matter when dropped.
const STD_FALLIBLE: [&str; 6] = [
    "write",
    "create_dir_all",
    "remove_dir_all",
    "remove_file",
    "copy",
    "rename",
];

impl Pass for ResultDiscard {
    fn id(&self) -> &'static str {
        "A6"
    }

    fn run(&self, ctx: &Context) -> Vec<Finding> {
        let graph = ctx.graph();
        let mut findings: Vec<Finding> = Vec::new();

        // (1) Resolved calls to workspace fns that return Result.
        for e in &graph.edges {
            let callee = &graph.index.fns[e.callee];
            if !callee.returns_result {
                continue;
            }
            let caller = &graph.index.fns[e.caller];
            if caller.in_test {
                continue;
            }
            let toks = &ctx.files[caller.file].tokens;
            if let Some(how) = discard_kind(toks, e.site) {
                findings.push(finding(
                    &caller.path,
                    e.line,
                    format!(
                        "`Result` from `{}` is {how} in `{}`; propagate with `?`, \
                         match it, or log the error with context",
                        callee.display(),
                        caller.display()
                    ),
                ));
            }
        }

        // (2) `let _ =` over known-fallible std calls, every file.
        for file in &ctx.files {
            let toks = &file.tokens;
            for k in 0..toks.len() {
                if toks[k].in_test || !toks[k].is_ident("let") {
                    continue;
                }
                if !(toks.get(k + 1).is_some_and(|t| t.is_ident("_"))
                    && toks.get(k + 2).is_some_and(|t| t.is_punct("=")))
                {
                    continue;
                }
                // Expression tokens up to `;` at depth 0.
                let mut e = k + 3;
                let mut depth = 0i32;
                let mut hit: Option<String> = None;
                while e < toks.len() {
                    match toks[e].text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        ";" if depth <= 0 => break,
                        "?" => {
                            hit = None;
                            break;
                        }
                        name if toks[e].kind == TokKind::Ident => {
                            let called = toks
                                .get(e + 1)
                                .is_some_and(|n| n.is_punct("(") || n.is_punct("!"));
                            let pathy =
                                e > 0 && (toks[e - 1].is_punct("::") || toks[e - 1].is_punct("."));
                            let fallible = (STD_FALLIBLE.contains(&name) && pathy)
                                || matches!(name, "writeln" | "flush" | "write_all")
                                || (name == "write" && !pathy);
                            if called && fallible && hit.is_none() {
                                hit = Some(name.to_string());
                            }
                        }
                        _ => {}
                    }
                    e += 1;
                }
                if let Some(name) = hit {
                    findings.push(finding(
                        &file.source.path,
                        toks[k].line,
                        format!(
                            "`let _ =` drops the `Result` of `{name}`; propagate with \
                             `?`, match it, or log the error with context"
                        ),
                    ));
                }
            }
        }

        // Dedup (a `let _ = workspace_fallible()` matches both detectors).
        findings.sort_by(|a, b| (a.path.as_str(), a.line).cmp(&(b.path.as_str(), b.line)));
        findings.dedup_by(|a, b| a.path == b.path && a.line == b.line);
        findings
    }
}

fn finding(path: &str, line: usize, message: String) -> Finding {
    Finding {
        rule: "A6",
        key: "discard-result",
        severity: Severity::Warning,
        path: path.to_string(),
        line,
        message,
    }
}

/// Is the call whose name token sits at `site` discarded? Returns a
/// description (`"discarded with let _ ="` / `"ignored as a statement"`)
/// or `None` when the value is consumed.
fn discard_kind(toks: &[Token], site: usize) -> Option<&'static str> {
    let open = site + 1;
    if !toks.get(open)?.is_punct("(") {
        return None;
    }
    let close = matching_close(toks, open)?;
    match toks.get(close + 1).map(|t| t.text.as_str()) {
        Some(";") => {}
        _ => return None, // `?`, chained method, operator, arg position…
    }
    // Walk left over the receiver chain (`a.b.c(` / `mod::f(`): simple
    // ident links only — a `)`/`]` in the chain means the value feeds a
    // larger expression we do not model, so stay silent.
    let mut l = site;
    while l >= 2
        && (toks[l - 1].is_punct(".") || toks[l - 1].is_punct("::"))
        && toks[l - 2].kind == TokKind::Ident
    {
        l -= 2;
    }
    if l >= 1 && (toks[l - 1].is_punct(".") || toks[l - 1].is_punct("::")) {
        return None;
    }
    match l.checked_sub(1).map(|i| &toks[i]) {
        None => Some("ignored as a statement"),
        Some(p) if p.is_punct(";") || p.is_punct("{") || p.is_punct("}") => {
            Some("ignored as a statement")
        }
        Some(p)
            if p.is_punct("=")
                && l >= 3
                && toks[l - 2].is_ident("_")
                && toks[l - 3].is_ident("let") =>
        {
            Some("discarded with `let _ =`")
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::run_passes;

    fn run_on(files: &[(&str, &str)]) -> Vec<Finding> {
        run_passes(&Context::of(files), &[Box::new(ResultDiscard)])
    }

    const FALLIBLE: &str = "pub fn save(v: f64) -> Result<(), String> { Ok(()) }\n";

    #[test]
    fn let_underscore_on_workspace_result_is_flagged() {
        let f = run_on(&[(
            "crates/core/src/x.rs",
            &format!("{FALLIBLE}pub fn run() {{ let _ = save(1.0); }}\n"),
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("core::save"));
        assert!(f[0].message.contains("let _ ="));
    }

    #[test]
    fn statement_position_result_is_flagged() {
        let f = run_on(&[(
            "crates/core/src/x.rs",
            &format!("{FALLIBLE}pub fn run() {{ save(1.0); }}\n"),
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("ignored as a statement"));
    }

    #[test]
    fn propagated_matched_and_chained_results_are_clean() {
        let f = run_on(&[(
            "crates/core/src/x.rs",
            &format!(
                "{FALLIBLE}\
                 pub fn run() -> Result<(), String> {{\n\
                     save(1.0)?;\n\
                     if save(2.0).is_err() {{ return Err(\"x\".into()); }}\n\
                     let r = save(3.0);\n\
                     r\n\
                 }}\n"
            ),
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn std_fs_and_write_macros_under_let_underscore_are_flagged() {
        let f = run_on(&[(
            "crates/xtask/src/x.rs",
            "pub fn run(out: &mut String) {\n\
                 let _ = std::fs::write(\"p\", \"c\");\n\
                 let _ = writeln!(out, \"row\");\n\
             }\n",
        )]);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("write"));
        assert!(f[1].message.contains("writeln"));
    }

    #[test]
    fn test_code_and_allows_are_exempt() {
        let f = run_on(&[(
            "crates/core/src/x.rs",
            &format!(
                "{FALLIBLE}\
                 // lint: allow(discard-result) best-effort cache warm, failure is benign\n\
                 pub fn warm() {{ let _ = save(0.0); }}\n\
                 #[cfg(test)]\n\
                 mod tests {{\n\
                     fn t() {{ let _ = std::fs::remove_dir_all(\"tmp\"); }}\n\
                 }}\n"
            ),
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn non_result_discards_are_clean() {
        let f = run_on(&[(
            "crates/core/src/x.rs",
            "pub fn grad(v: f64) -> f64 { v }\n\
             pub fn run() { let _ = grad(1.0); grad(2.0); }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }
}
