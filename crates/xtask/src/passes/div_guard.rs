//! A10 — division/log/sqrt guards on the hot path.
//!
//! Consumes the [`crate::floatflow`] model: every binary `/` (and `/=`
//! and `.recip()`) whose denominator is float-evidenced, every `.ln()`
//! / `.log*()` receiver, and every `.sqrt()` receiver inside a function
//! reachable from the serving/training roots must be provably
//! [`Domain::Positive`]/[`Domain::EpsGuarded`] (non-negative for sqrt)
//! in the value lattice. Anything weaker is one degenerate batch away
//! from a NaN in a served probability, and is an **Error** carrying the
//! operand's defining site and the hot call chain.
//!
//! Deliberate exceptions need `// lint: allow(float-flow) <reason>` —
//! the key is shared with A11/A12 (one annotation covers all numeric-
//! dataflow findings on a line); A10 is the pass that reports bare
//! `allow(float-flow)` misuses.

use super::{Context, Finding, Pass, PassOutput, Severity};
use crate::callgraph::CallGraph;
use crate::floatflow::{hot_reach, CheckKind, FloatFlow};

pub struct DivGuard;

impl Pass for DivGuard {
    fn id(&self) -> &'static str {
        "A10"
    }

    fn run(&self, ctx: &Context) -> PassOutput {
        let mut out = PassOutput::default();
        let graph = CallGraph::build(ctx);
        let flow = FloatFlow::build(ctx, &graph);
        let reach = hot_reach(&graph);

        for site in &flow.sites.checks {
            if site.in_test {
                continue;
            }
            let Some(chain) = reach.get(&site.fn_id) else {
                continue;
            };
            let proven = match site.kind {
                CheckKind::Div | CheckKind::Recip => !site.val.is_float || site.val.pos(),
                CheckKind::Ln | CheckKind::Log => site.val.pos(),
                CheckKind::Sqrt => site.val.ge0(),
            };
            if proven {
                continue;
            }
            let f = &graph.index.fns[site.fn_id];
            let def = match site.val.def {
                Some(l) => format!("; operand defined at {}:{}", f.path, l),
                None => String::new(),
            };
            out.findings.push(Finding {
                rule: "A10",
                key: "float-flow",
                severity: Severity::Error,
                path: f.path.clone(),
                line: site.line,
                message: format!(
                    "{} `{}` in `{}` is not provably {} ({}{def}); hot via {}; \
                     floor it (`.max(EPS)`, `.max(1)` on an integer count) or \
                     annotate `// lint: allow(float-flow) <reason>`",
                    site.kind.what(),
                    site.expr,
                    f.display(),
                    if site.kind == CheckKind::Sqrt {
                        "non-negative"
                    } else {
                        "positive"
                    },
                    site.val.domain.describe(),
                    graph.chain_display(chain)
                ),
            });
        }

        // Allow-comment suppression; A10 owns misuse reporting for the
        // shared `float-flow` key.
        for file in &ctx.files {
            let (allowed, missing) = file.source.allows("float-flow");
            out.findings
                .retain(|f| !(f.path == file.source.path && allowed.contains(&f.line)));
            for line in missing {
                out.findings.push(Finding {
                    rule: "allow",
                    key: "allow",
                    severity: Severity::Error,
                    path: file.source.path.clone(),
                    line,
                    message: "allow(float-flow) without a reason — state why this \
                              value cannot reach zero / leave its domain"
                        .into(),
                });
            }
        }
        out
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
        DivGuard.run(&ctx)
    }

    #[test]
    fn unguarded_hot_division_is_an_error_with_the_defining_site() {
        let out = run_on(&[(
            "crates/serving/src/x.rs",
            "pub fn serve(total: f64, rows: usize) -> f64 {\n\
                 let n = rows as f64;\n\
                 total / n\n\
             }\n",
        )]);
        let errs: Vec<&Finding> = out.findings.iter().filter(|f| f.rule == "A10").collect();
        assert_eq!(errs.len(), 1, "{:?}", out.findings);
        assert_eq!(errs[0].severity, Severity::Error);
        assert!(
            errs[0].message.contains("denominator `n`"),
            "{}",
            errs[0].message
        );
        assert!(errs[0]
            .message
            .contains("defined at crates/serving/src/x.rs:2"));
        assert!(errs[0].message.contains("serving::serve"));
    }

    #[test]
    fn the_guarded_form_is_clean() {
        let out = run_on(&[(
            "crates/serving/src/x.rs",
            "pub fn serve(total: f64, rows: usize) -> f64 {\n\
                 let n = rows.max(1) as f64;\n\
                 total / n\n\
             }\n",
        )]);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn cold_fns_are_out_of_scope() {
        let out = run_on(&[(
            "crates/text/src/x.rs",
            "pub fn helper(a: f64, b: f64) -> f64 { a / b }\n",
        )]);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn transitive_reachability_and_callee_summaries_both_count() {
        // `inner` lives in a cold crate and is reachable only through
        // `serve`; its ln receiver is unproven. `floor`'s summary proves
        // the division in `serve`.
        let out = run_on(&[
            (
                "crates/serving/src/x.rs",
                "pub fn serve(a: f64, b: f64) -> f64 { a / floor(b) + inner(b) }\n",
            ),
            (
                "crates/ml/src/y.rs",
                "pub fn floor(x: f64) -> f64 { x.max(1e-9) }\n\
                 pub fn inner(x: f64) -> f64 { x.ln() }\n",
            ),
        ]);
        let errs: Vec<&Finding> = out.findings.iter().filter(|f| f.rule == "A10").collect();
        assert_eq!(errs.len(), 1, "{:?}", out.findings);
        assert!(errs[0].message.contains("x.ln()"), "{}", errs[0].message);
        assert!(
            errs[0].message.contains("serving::serve → ml::inner"),
            "{}",
            errs[0].message
        );
    }

    #[test]
    fn unknown_sqrt_argument_is_flagged() {
        let out = run_on(&[(
            "crates/serving/src/x.rs",
            "pub fn serve(v: f64) -> f64 { v.sqrt() }\n",
        )]);
        let errs: Vec<&Finding> = out.findings.iter().filter(|f| f.rule == "A10").collect();
        assert_eq!(errs.len(), 1, "{:?}", out.findings);
        assert!(errs[0].message.contains("non-negative"));
    }

    #[test]
    fn allow_comment_suppresses_and_bare_allow_is_flagged() {
        let out = run_on(&[(
            "crates/serving/src/x.rs",
            "pub fn serve(a: f64, b: f64) -> f64 {\n\
                 // lint: allow(float-flow) b is a physical rate, always > 0\n\
                 let r = a / b;\n\
                 // lint: allow(float-flow)\n\
                 r / 2.0\n\
             }\n",
        )]);
        let a10: Vec<&Finding> = out.findings.iter().filter(|f| f.rule == "A10").collect();
        assert!(a10.is_empty(), "{a10:?}");
        let misuses: Vec<&Finding> = out.findings.iter().filter(|f| f.rule == "allow").collect();
        assert_eq!(misuses.len(), 1, "{:?}", out.findings);
    }
}
