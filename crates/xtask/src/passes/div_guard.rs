//! A10 — division/log/sqrt guards on the hot path and in the loss math.
//!
//! Consumes the [`crate::floatflow`] model: every binary `/` (and `/=`
//! and `.recip()`) whose denominator is float-evidenced, every `.ln()`
//! / `.log*()` receiver, and every `.sqrt()` receiver inside a function
//! reachable from the serving/training roots, or anywhere in
//! `ALWAYS_CHECKED`, must be provably
//! [`Domain::Positive`]/[`Domain::EpsGuarded`] (non-negative for sqrt)
//! in the value lattice. Anything weaker is one degenerate batch away
//! from a NaN in a served probability, and is an **Error** carrying the
//! operand's defining site and the hot call chain.
//!
//! Deliberate exceptions need `// lint: allow(float-flow) <reason>` —
//! the key is shared with A11 (one annotation covers all numeric-
//! dataflow findings on a line).

use super::{Context, Finding, Pass, Severity};
use crate::floatflow::{hot_reach, CheckKind};

pub struct DivGuard;

/// Files whose every non-test fn is checked, hot or not: the loss,
/// attention and GRU math, where a cold helper today is a training
/// path tomorrow.
const ALWAYS_CHECKED: [&str; 3] = [
    "crates/nn/src/loss.rs",
    "crates/nn/src/attention.rs",
    "crates/nn/src/gru.rs",
];

impl Pass for DivGuard {
    fn id(&self) -> &'static str {
        "A10"
    }

    fn run(&self, ctx: &Context) -> Vec<Finding> {
        let mut out = Vec::new();
        let (graph, flow) = (ctx.graph(), ctx.flow());
        let reach = hot_reach(graph);

        for site in &flow.sites.checks {
            let proven = match site.kind {
                CheckKind::Div | CheckKind::Recip => !site.val.is_float || site.val.pos(),
                CheckKind::Ln | CheckKind::Log => site.val.pos(),
                CheckKind::Sqrt => site.val.ge0(),
            };
            if site.in_test || proven {
                continue;
            }
            let f = &graph.index.fns[site.fn_id];
            let scope = match reach.get(&site.fn_id) {
                Some(chain) => format!("hot via {}", graph.chain_display(chain)),
                None if ALWAYS_CHECKED.iter().any(|p| f.path.ends_with(p)) => {
                    format!("every fn in {} is checked", f.path)
                }
                None => continue,
            };
            let def = match site.val.def {
                Some(l) => format!("; operand defined at {}:{}", f.path, l),
                None => String::new(),
            };
            out.push(Finding {
                rule: "A10",
                key: "float-flow",
                severity: Severity::Error,
                path: f.path.clone(),
                line: site.line,
                message: format!(
                    "{} `{}` in `{}` is not provably {} ({}{def}); {scope}; \
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
                ),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::run_passes;

    fn run_on(files: &[(&str, &str)]) -> Vec<Finding> {
        run_passes(&Context::of(files), &[Box::new(DivGuard)])
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
        let errs: Vec<&Finding> = out.iter().filter(|f| f.rule == "A10").collect();
        assert_eq!(errs.len(), 1, "{:?}", out);
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
        assert!(out.is_empty(), "{:?}", out);
    }

    #[test]
    fn every_fn_in_the_loss_attention_and_gru_files_is_checked() {
        // An unguarded `.ln()` and a division by a probability sum, in
        // fns no hot root reaches: errors in `loss.rs`, out of scope in
        // a file outside `ALWAYS_CHECKED`.
        let src = "pub fn nll(p: f64) -> f64 { -p.ln() }\n\
                   pub fn normalize(v: &mut [f64], sum: f64) { for x in v { *x /= sum; } }\n";
        let out = run_on(&[("crates/nn/src/loss.rs", src)]);
        let errs: Vec<(usize, &str)> = out
            .iter()
            .filter(|f| f.rule == "A10" && f.severity == Severity::Error)
            .map(|f| (f.line, f.message.as_str()))
            .collect();
        assert_eq!(errs.len(), 2, "{out:?}");
        assert!(errs[0].1.contains("`p.ln()`"), "{}", errs[0].1);
        assert!(errs[1].1.contains("denominator `sum`"), "{}", errs[1].1);
        assert!(errs
            .iter()
            .all(|(_, m)| m.contains("every fn in crates/nn/src/loss.rs is checked")));
        assert!(run_on(&[("crates/nn/src/dense.rs", src)]).is_empty());
    }

    #[test]
    fn guarded_logs_in_the_loss_file_are_clean() {
        let out = run_on(&[(
            "crates/nn/src/loss.rs",
            "const EPS: f64 = 1e-12;\n\
             pub fn f(p: f64) -> f64 { -(p.max(EPS)).ln() }\n\
             pub fn g(p: f64) -> f64 { -(p.clamp(1e-12, 1.0)).ln() }\n\
             pub fn softplus(x: f64) -> f64 { (1.0 + x.exp()).ln() }\n",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn cold_fns_are_out_of_scope() {
        let out = run_on(&[(
            "crates/text/src/x.rs",
            "pub fn helper(a: f64, b: f64) -> f64 { a / b }\n",
        )]);
        assert!(out.is_empty(), "{:?}", out);
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
        let errs: Vec<&Finding> = out.iter().filter(|f| f.rule == "A10").collect();
        assert_eq!(errs.len(), 1, "{:?}", out);
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
        let errs: Vec<&Finding> = out.iter().filter(|f| f.rule == "A10").collect();
        assert_eq!(errs.len(), 1, "{:?}", out);
        assert!(errs[0].message.contains("non-negative"));
    }

    #[test]
    fn allow_comment_suppresses() {
        let out = run_on(&[(
            "crates/serving/src/x.rs",
            "pub fn serve(a: f64, b: f64) -> f64 {\n\
                 // lint: allow(float-flow) b is a physical rate, always > 0\n\
                 let r = a / b;\n\
                 // lint: allow(float-flow)\n\
                 r / 2.0\n\
             }\n",
        )]);
        let a10: Vec<&Finding> = out.iter().filter(|f| f.rule == "A10").collect();
        assert!(a10.is_empty(), "{a10:?}");
    }
}
