//! A4 — panic reachability.
//!
//! The serving north star requires the training/inference hot path to be
//! panic-free. This pass builds the workspace call graph
//! ([`crate::callgraph`]), takes the hot-path root set (`Retina::
//! {forward,backward}`, `Trainer::fit`, the `nn::par` entry points, the
//! layer step functions, `Classifier::predict*`), and reports every
//! panic source syntactically present in a reachable fn body:
//!
//! - `.unwrap()` / `.expect(...)` and `panic!`/`unreachable!`/`todo!`/
//!   `unimplemented!` — **Error**. Fix by restructuring (carry the value
//!   instead of re-looking it up, encode the invariant in the type) or
//!   annotate a deliberate API-contract panic with
//!   `// lint: allow(panic-reach) <reason>`.
//! - Indexing (`x[i]`) in a reachable fn whose body carries no
//!   `assert!`/`debug_assert!` shape guard — **Warning** (one per
//!   receiver per fn). These are grandfathered via the baseline and
//!   burned down over time.
//!
//! `assert!`-style argument validation is *not* flagged: input asserts
//! are the documented API contract, panicking early with a message
//! rather than corrupting state deep in a kernel.
//!
//! Every finding carries the shortest call chain from a root, so the fix
//! site is obvious without re-deriving the graph by hand.

use super::{Context, Finding, Pass, PassOutput, Severity};
use crate::callgraph::CallGraph;
use crate::lexer::TokKind;
use std::collections::BTreeSet;

pub struct PanicReach;

impl Pass for PanicReach {
    fn id(&self) -> &'static str {
        "A4"
    }

    fn run(&self, ctx: &Context) -> PassOutput {
        let mut out = PassOutput::default();
        let graph = CallGraph::build(ctx);
        let roots = graph.hot_roots();
        let reach = graph.reachable(&roots);

        for (&fid, chain) in &reach {
            let item = &graph.index.fns[fid];
            if item.in_test {
                continue;
            }
            let Some((b0, b1)) = item.body else {
                continue;
            };
            let file = &ctx.files[item.file];
            let toks = &file.tokens;
            let nested: Vec<(usize, usize)> = graph
                .index
                .fns
                .iter()
                .enumerate()
                .filter(|&(i, f)| i != fid && f.file == item.file)
                .filter_map(|(_, f)| f.body)
                .filter(|&(n0, n1)| n0 > b0 && n1 < b1)
                .collect();
            let chain_str = graph.chain_display(chain);
            let has_guard = (b0..b1).any(|k| {
                toks[k].kind == TokKind::Ident
                    && matches!(
                        toks[k].text.as_str(),
                        "assert" | "assert_eq" | "assert_ne" | "debug_assert" | "debug_assert_eq"
                    )
            });
            let mut findings = Vec::new();
            let mut indexed: BTreeSet<String> = BTreeSet::new();
            let mut k = b0;
            'scan: while k < b1 {
                for &(n0, n1) in &nested {
                    if k >= n0 && k < n1 {
                        k = n1;
                        continue 'scan;
                    }
                }
                let t = &toks[k];
                if t.kind != TokKind::Ident {
                    k += 1;
                    continue;
                }
                let next = toks.get(k + 1);
                match t.text.as_str() {
                    "unwrap" | "expect"
                        if k > 0
                            && toks[k - 1].is_punct(".")
                            && next.is_some_and(|n| n.is_punct("(")) =>
                    {
                        findings.push(finding(
                            &file.source.path,
                            t.line,
                            Severity::Error,
                            format!(
                                "hot-path panic source `.{}()` in `{}`, reachable via \
                                 {chain_str}; restructure to be infallible or annotate \
                                 `// lint: allow(panic-reach) <reason>`",
                                t.text,
                                item.display()
                            ),
                        ));
                    }
                    "panic" | "unreachable" | "todo" | "unimplemented"
                        if next.is_some_and(|n| n.is_punct("!")) =>
                    {
                        findings.push(finding(
                            &file.source.path,
                            t.line,
                            Severity::Error,
                            format!(
                                "hot-path panic source `{}!` in `{}`, reachable via \
                                 {chain_str}; restructure to be infallible or annotate \
                                 `// lint: allow(panic-reach) <reason>`",
                                t.text,
                                item.display()
                            ),
                        ));
                    }
                    _ if !has_guard
                        && next.is_some_and(|n| n.is_punct("["))
                        && indexed.insert(t.text.clone()) =>
                    {
                        findings.push(finding(
                            &file.source.path,
                            t.line,
                            Severity::Warning,
                            format!(
                                "unguarded indexing `{}[…]` in `{}` (no assert/debug_assert \
                                 in the body), reachable via {chain_str}; add a shape guard \
                                 or use checked accessors",
                                t.text,
                                item.display()
                            ),
                        ));
                    }
                    _ => {}
                }
                k += 1;
            }
            let (allowed, _) = file.source.allows("panic-reach");
            findings.retain(|f| !allowed.contains(&f.line));
            out.findings.extend(findings);
        }

        // Satellite lint: every allow(panic-reach) must carry a reason.
        for file in &ctx.files {
            let (_, missing) = file.source.allows("panic-reach");
            for line in missing {
                out.findings.push(Finding {
                    rule: "allow",
                    key: "allow",
                    severity: Severity::Error,
                    path: file.source.path.clone(),
                    line,
                    message: "allow(panic-reach) without a reason — state why this panic \
                              is acceptable on the hot path"
                        .into(),
                });
            }
        }
        out
    }
}

fn finding(path: &str, line: usize, severity: Severity, message: String) -> Finding {
    Finding {
        rule: "A4",
        key: "panic-reach",
        severity,
        path: path.to_string(),
        line,
        message,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::passes::AnalyzedFile;
    use crate::source::SourceFile;

    fn run_on(files: &[(&str, &str)]) -> PassOutput {
        let ctx = Context {
            files: files
                .iter()
                .map(|(p, s)| {
                    let source = SourceFile::parse(p, s);
                    let tokens = lex(&source);
                    AnalyzedFile { source, tokens }
                })
                .collect(),
        };
        PanicReach.run(&ctx)
    }

    const MODEL: &str = "pub struct Retina;\n\
                         impl Retina {\n\
                             pub fn forward(&mut self) { helper(); }\n\
                             pub fn backward(&mut self) {}\n\
                         }\n";

    #[test]
    fn unwrap_two_hops_from_a_root_is_an_error_with_the_chain() {
        let out = run_on(&[
            ("crates/core/src/retina.rs", MODEL),
            (
                "crates/core/src/util.rs",
                "pub fn helper() { deeper(); }\n\
                 pub fn deeper() { maybe().unwrap(); }\n\
                 pub fn maybe() -> Option<f64> { None }\n",
            ),
        ]);
        let errs: Vec<&Finding> = out
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .collect();
        assert_eq!(errs.len(), 1, "{:?}", out.findings);
        assert!(errs[0].message.contains(".unwrap()"));
        assert!(
            errs[0]
                .message
                .contains("core::Retina::forward → core::helper → core::deeper"),
            "shortest chain printed: {}",
            errs[0].message
        );
    }

    #[test]
    fn unreachable_code_is_not_flagged() {
        let out = run_on(&[
            ("crates/core/src/retina.rs", MODEL),
            (
                "crates/core/src/util.rs",
                "pub fn helper() {}\n\
                 pub fn cold_path() { maybe().unwrap(); }\n\
                 pub fn maybe() -> Option<f64> { None }\n",
            ),
        ]);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn panic_macros_in_roots_are_errors_and_asserts_are_not() {
        let out = run_on(&[(
            "crates/core/src/retina.rs",
            "pub struct Retina;\n\
             impl Retina {\n\
                 pub fn forward(&mut self, n: usize) {\n\
                     assert!(n > 0, \"validated input\");\n\
                     if n > 9 { panic!(\"boom\"); }\n\
                 }\n\
             }\n",
        )]);
        let errs: Vec<&Finding> = out
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .collect();
        assert_eq!(errs.len(), 1, "{:?}", out.findings);
        assert!(errs[0].message.contains("panic!"));
    }

    #[test]
    fn unguarded_indexing_is_a_warning_and_guarded_is_clean() {
        let out = run_on(&[(
            "crates/core/src/retina.rs",
            "pub struct Retina;\n\
             impl Retina {\n\
                 pub fn forward(&mut self, xs: &[f64]) -> f64 { xs[0] }\n\
                 pub fn backward(&mut self, xs: &[f64]) -> f64 {\n\
                     debug_assert!(!xs.is_empty());\n\
                     xs[0]\n\
                 }\n\
             }\n",
        )]);
        let warns: Vec<&Finding> = out
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
            .collect();
        assert_eq!(warns.len(), 1, "{:?}", out.findings);
        assert!(warns[0].message.contains("xs[…]"));
        assert!(warns[0].message.contains("forward"));
    }

    #[test]
    fn allow_comment_suppresses_and_bare_allow_is_flagged() {
        let out = run_on(&[(
            "crates/core/src/retina.rs",
            "pub struct Retina;\n\
             impl Retina {\n\
                 pub fn forward(&mut self) {\n\
                     // lint: allow(panic-reach) cache is seeded two lines up\n\
                     self.cache.as_ref().expect(\"seeded\");\n\
                     // lint: allow(panic-reach)\n\
                     self.other.unwrap();\n\
                 }\n\
             }\n",
        )]);
        let a4_errors: Vec<&Finding> = out
            .findings
            .iter()
            .filter(|f| f.rule == "A4" && f.severity == Severity::Error)
            .collect();
        // The reasoned allow suppresses the expect; the reasonless one
        // does NOT suppress its unwrap.
        assert_eq!(a4_errors.len(), 1, "{:?}", out.findings);
        assert!(a4_errors[0].message.contains(".unwrap()"));
        let misuses: Vec<&Finding> = out.findings.iter().filter(|f| f.rule == "allow").collect();
        assert_eq!(misuses.len(), 1, "{:?}", out.findings);
        assert!(misuses[0].message.contains("without a reason"));
    }

    #[test]
    fn deterministic_output_across_runs() {
        let files = [
            ("crates/core/src/retina.rs", MODEL),
            (
                "crates/core/src/util.rs",
                "pub fn helper() { a(); b(); }\n\
                 pub fn a() { shared(); }\n\
                 pub fn b() { shared(); }\n\
                 pub fn shared() { maybe().unwrap(); }\n\
                 pub fn maybe() -> Option<f64> { None }\n",
            ),
        ];
        let one = run_on(&files);
        let two = run_on(&files);
        let msgs = |o: &PassOutput| {
            o.findings
                .iter()
                .map(|f| format!("{}:{} {}", f.path, f.line, f.message))
                .collect::<Vec<_>>()
        };
        assert_eq!(msgs(&one), msgs(&two));
        // The tie between the equal-length chains through `a` and `b`
        // breaks the same (sorted) way every time.
        assert!(
            msgs(&one)[0].contains("core::a → core::shared"),
            "{:?}",
            msgs(&one)
        );
    }
}
