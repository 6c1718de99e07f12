//! A11 — probability-domain escapes.
//!
//! Consumes the [`crate::floatflow`] model to check, workspace-wide in
//! non-test code, that values the codebase treats as probabilities are
//! provably inside `[0,1]`:
//!
//! - the first argument of every `WeightedBce::loss_probs(..)` call
//!   (the paper's loss is defined on probabilities; a value outside
//!   `[0,1]` makes `ln(p)`/`ln(1-p)` explode even through the clamp's
//!   gradient),
//! - every `prob`-named `let` binding whose initializer does arithmetic
//!   without a clamp and whose value the lattice cannot place in
//!   `[0,1]`,
//! - every return expression of a `predict_proba*` head under the same
//!   arithmetic-without-clamp condition.
//!
//! This upgrades the token-local R3 guard heuristic to the
//! inter-procedural value domain: sigmoid-family results and clamped
//! values pass by proof, not by pattern. Escapes are **Errors** with
//! the shared `float-flow` allow key (misuse of a bare allow is
//! reported by A10).

use super::{Context, Finding, Pass, PassOutput, Severity};
use crate::callgraph::CallGraph;
use crate::floatflow::FloatFlow;

pub struct ProbDomain;

impl Pass for ProbDomain {
    fn id(&self) -> &'static str {
        "A11"
    }

    fn run(&self, ctx: &Context) -> PassOutput {
        let mut out = PassOutput::default();
        let graph = CallGraph::build(ctx);
        let flow = FloatFlow::build(ctx, &graph);
        let fns = &graph.index.fns;

        for call in &flow.sites.pcalls {
            if call.in_test || call.val.p01 {
                continue;
            }
            let f = &fns[call.fn_id];
            out.findings.push(Finding {
                rule: "A11",
                key: "float-flow",
                severity: Severity::Error,
                path: f.path.clone(),
                line: call.line,
                message: format!(
                    "`{}` flows into `loss_probs` in `{}` but is not provably in \
                     [0,1] ({}); produce it through the sigmoid family or clamp \
                     to [EPS, 1-EPS], or annotate \
                     `// lint: allow(float-flow) <range proof>`",
                    call.arg,
                    f.display(),
                    call.val.domain.describe()
                ),
            });
        }

        for bind in &flow.sites.pbinds {
            if bind.in_test || bind.val.p01 || !bind.has_arith || bind.has_guard {
                continue;
            }
            let f = &fns[bind.fn_id];
            out.findings.push(Finding {
                rule: "A11",
                key: "float-flow",
                severity: Severity::Error,
                path: f.path.clone(),
                line: bind.line,
                message: format!(
                    "prob-named binding `{}` in `{}` is built by arithmetic that \
                     can leave [0,1] and has no clamp ({}); clamp it, or annotate \
                     `// lint: allow(float-flow) <range proof>`",
                    bind.name,
                    f.display(),
                    bind.val.domain.describe()
                ),
            });
        }

        for ret in &flow.sites.prets {
            if ret.in_test || ret.val.p01 || !ret.has_arith || ret.has_guard {
                continue;
            }
            let f = &fns[ret.fn_id];
            out.findings.push(Finding {
                rule: "A11",
                key: "float-flow",
                severity: Severity::Error,
                path: f.path.clone(),
                line: ret.line,
                message: format!(
                    "`{}` returns a probability built by unclamped arithmetic \
                     that is not provably in [0,1] ({}); clamp the head output, \
                     or annotate `// lint: allow(float-flow) <range proof>`",
                    f.display(),
                    ret.val.domain.describe()
                ),
            });
        }

        // Shared-key suppression; misuse reporting lives in A10.
        for file in &ctx.files {
            let (allowed, _) = file.source.allows("float-flow");
            out.findings
                .retain(|f| !(f.path == file.source.path && allowed.contains(&f.line)));
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
        ProbDomain.run(&ctx)
    }

    #[test]
    fn raw_logits_into_loss_probs_are_an_error() {
        let out = run_on(&[(
            "crates/nn/src/x.rs",
            "pub fn bad(l: WeightedBce, z: f64, t: f64) -> f64 {\n\
                 l.loss_probs(&z, &t)\n\
             }\n",
        )]);
        let errs: Vec<&Finding> = out.findings.iter().filter(|f| f.rule == "A11").collect();
        assert_eq!(errs.len(), 1, "{:?}", out.findings);
        assert!(errs[0].message.contains("loss_probs"));
    }

    #[test]
    fn sigmoid_outputs_into_loss_probs_are_proven_clean() {
        let out = run_on(&[(
            "crates/nn/src/x.rs",
            "pub fn good(l: WeightedBce, z: f64, t: f64) -> f64 {\n\
                 let probs = z.map(stable_sigmoid);\n\
                 l.loss_probs(&probs, &t)\n\
             }\n",
        )]);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn unclamped_prob_arithmetic_is_an_error_and_the_clamped_form_clean() {
        let out = run_on(&[(
            "crates/diffusion/src/x.rs",
            "pub fn escape(p: f64, boost: f64) -> f64 {\n\
                 let prob_up = p + boost;\n\
                 prob_up\n\
             }\n\
             pub fn held(p: f64, boost: f64) -> f64 {\n\
                 let prob_ok = (p + boost).clamp(0.0, 1.0);\n\
                 prob_ok\n\
             }\n",
        )]);
        let errs: Vec<&Finding> = out.findings.iter().filter(|f| f.rule == "A11").collect();
        assert_eq!(errs.len(), 1, "{:?}", out.findings);
        assert!(errs[0].message.contains("prob_up"), "{}", errs[0].message);
    }

    #[test]
    fn predict_proba_returns_are_checked() {
        let out = run_on(&[(
            "crates/ml/src/x.rs",
            "pub fn predict_proba(score: f64, bias: f64) -> f64 {\n\
                 score * 0.5 + bias\n\
             }\n\
             pub fn predict_proba_ok(score: f64) -> f64 {\n\
                 sigmoid(score)\n\
             }\n",
        )]);
        let errs: Vec<&Finding> = out.findings.iter().filter(|f| f.rule == "A11").collect();
        assert_eq!(errs.len(), 1, "{:?}", out.findings);
        assert!(
            errs[0].message.contains("predict_proba"),
            "{}",
            errs[0].message
        );
    }

    #[test]
    fn allow_comment_suppresses_without_a_duplicate_misuse_report() {
        let out = run_on(&[(
            "crates/diffusion/src/x.rs",
            "pub fn escape(p: f64, boost: f64) -> f64 {\n\
                 // lint: allow(float-flow) renormalized by the caller\n\
                 let prob_up = p + boost;\n\
                 prob_up\n\
             }\n",
        )]);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn test_code_is_out_of_scope() {
        let out = run_on(&[(
            "crates/nn/src/x.rs",
            "#[cfg(test)]\nmod tests {\n\
                 pub fn t(l: WeightedBce, z: f64) -> f64 {\n\
                     let prob_x = z * 2.0;\n\
                     l.loss_probs(&prob_x, &z)\n\
                 }\n\
             }\n",
        )]);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }
}
