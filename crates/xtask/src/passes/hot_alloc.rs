//! A5 — hot-loop allocation discipline.
//!
//! PR 4 moved the kernel hot path onto pooled scratch buffers
//! (`nn::MatrixPool`, the `*_into` kernels); this pass machine-enforces
//! that discipline instead of leaving it to convention. For every fn
//! reachable from the hot-path roots (the same root set as A4), it flags
//! allocation-shaped calls inside loop bodies:
//!
//! - `Vec::new` / `Vec::with_capacity` / `vec![...]`
//! - `.to_vec()` / `.clone()` / `.collect()` / `.to_owned()`
//! - `String::from` / `.to_string()` / `format!`
//!
//! Findings are **Warning** severity: a steady-state allocation in a hot
//! loop is a throughput bug, not a correctness bug. Pre-existing sites
//! are grandfathered in `xtask-baseline.json` and burned down over
//! time; genuinely setup-only allocations can be annotated with
//! `// lint: allow(hot-alloc) <reason>` (the reason is mandatory).

use super::{Context, Finding, Pass, PassOutput, Severity};
use crate::lexer::{matching_close, TokKind, Token};

pub struct HotAlloc;

impl Pass for HotAlloc {
    fn id(&self) -> &'static str {
        "A5"
    }

    fn run(&self, ctx: &Context) -> PassOutput {
        let mut out = PassOutput::default();
        let graph = ctx.graph();
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
            let in_loop = loop_mask(toks, b0, b1);
            let chain_str = graph.chain_display(chain);
            let mut findings = Vec::new();
            for k in b0..b1 {
                if !in_loop[k - b0] {
                    continue;
                }
                if let Some(call) = alloc_shape(toks, k) {
                    findings.push(Finding {
                        rule: "A5",
                        key: "hot-alloc",
                        severity: Severity::Warning,
                        path: file.source.path.clone(),
                        line: toks[k].line,
                        message: format!(
                            "allocation-shaped call `{call}` inside a loop of `{}`, \
                             reachable via {chain_str}; hot loops must reuse pooled \
                             scratch (nn::MatrixPool / *_into kernels) — annotate \
                             `// lint: allow(hot-alloc) <reason>` if setup-only",
                            item.display()
                        ),
                    });
                }
            }
            out.findings.extend(findings);
        }
        out
    }
}

/// The allocation-shaped call at token `k`, if any — shared with the A7
/// lock pass, which flags the same shapes inside critical sections
/// instead of loop bodies.
pub(crate) fn alloc_shape(toks: &[Token], k: usize) -> Option<String> {
    let t = &toks[k];
    if t.kind != TokKind::Ident {
        return None;
    }
    let next = toks.get(k + 1);
    match t.text.as_str() {
        "new" | "with_capacity" | "from"
            if k >= 2
                && toks[k - 1].is_punct("::")
                && matches!(toks[k - 2].text.as_str(), "Vec" | "String")
                && next.is_some_and(|n| n.is_punct("(")) =>
        {
            Some(format!("{}::{}", toks[k - 2].text, t.text))
        }
        "vec" | "format" if next.is_some_and(|n| n.is_punct("!")) => Some(format!("{}!", t.text)),
        "to_vec" | "clone" | "collect" | "to_string" | "to_owned"
            if k > 0 && toks[k - 1].is_punct(".") && next.is_some_and(|n| n.is_punct("(")) =>
        {
            Some(format!(".{}()", t.text))
        }
        _ => None,
    }
}

/// Per-token flag over `[b0, b1)`: inside at least one `for`/`while`/
/// `loop` body. Loop headers track paren/bracket depth so a closure in
/// the iterated expression does not end the header early.
pub(crate) fn loop_mask(toks: &[Token], b0: usize, b1: usize) -> Vec<bool> {
    let mut mask = vec![false; b1 - b0];
    for k in b0..b1 {
        let t = &toks[k];
        if t.kind != TokKind::Ident || !matches!(t.text.as_str(), "for" | "while" | "loop") {
            continue;
        }
        // `for` in `impl Trait for Type` never appears inside fn bodies.
        let mut open = None;
        let mut depth = 0i32;
        for m in k + 1..b1 {
            match toks[m].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    open = Some(m);
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
        }
        let Some(open) = open else { continue };
        let Some(close) = matching_close(toks, open) else {
            continue;
        };
        for m in open + 1..close.min(b1) {
            mask[m - b0] = true;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::run_passes;

    fn run_on(src: &str) -> Vec<Finding> {
        let ctx = Context::of(&[("crates/core/src/retina.rs", src)]);
        run_passes(&ctx, &[Box::new(HotAlloc)]).findings
    }

    #[test]
    fn allocations_in_reachable_loops_are_warnings() {
        let f = run_on(
            "pub struct Retina;\n\
             impl Retina {\n\
                 pub fn forward(&mut self, xs: &[f64]) {\n\
                     let setup = Vec::with_capacity(xs.len());\n\
                     for x in xs {\n\
                         let mut step = Vec::new();\n\
                         let copy = xs.to_vec();\n\
                         step.push(*x);\n\
                     }\n\
                 }\n\
             }\n",
        );
        let warns: Vec<&Finding> = f.iter().filter(|x| x.rule == "A5").collect();
        assert_eq!(warns.len(), 2, "{f:?}");
        assert!(warns.iter().all(|x| x.severity == Severity::Warning));
        assert!(warns[0].message.contains("Vec::new"));
        assert!(warns[1].message.contains(".to_vec()"));
        assert!(warns[0].message.contains("core::Retina::forward"));
    }

    #[test]
    fn unreachable_and_loopless_allocations_are_clean() {
        let f = run_on(
            "pub struct Retina;\n\
             impl Retina {\n\
                 pub fn forward(&mut self) -> Vec<f64> { Vec::new() }\n\
             }\n\
             pub fn cold() { loop { let v = vec![1]; } }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn while_and_closure_headers_do_not_confuse_the_mask() {
        let f = run_on(
            "pub struct Retina;\n\
             impl Retina {\n\
                 pub fn forward(&mut self, xs: &[f64]) -> usize {\n\
                     let n = xs.iter().map(|v| v.abs()).count();\n\
                     let mut i = 0;\n\
                     while i < n { i += 1; let s = format!(\"{i}\"); }\n\
                     n\n\
                 }\n\
             }\n",
        );
        let warns: Vec<&Finding> = f.iter().filter(|x| x.rule == "A5").collect();
        assert_eq!(warns.len(), 1, "{f:?}");
        assert!(warns[0].message.contains("format!"));
    }

    #[test]
    fn a_reasoned_allow_suppresses_and_a_bare_one_does_not() {
        let f = run_on(
            "pub struct Retina;\n\
             impl Retina {\n\
                 pub fn forward(&mut self, xs: &[f64]) {\n\
                     for _x in xs {\n\
                         // lint: allow(hot-alloc) grows once then stays at capacity\n\
                         let v: Vec<f64> = Vec::new();\n\
                         // lint: allow(hot-alloc)\n\
                         let w: Vec<f64> = Vec::new();\n\
                     }\n\
                 }\n\
             }\n",
        );
        let a5: Vec<&Finding> = f.iter().filter(|x| x.rule == "A5").collect();
        assert_eq!(a5.len(), 1, "reasonless allow does not suppress: {f:?}");
    }
}
