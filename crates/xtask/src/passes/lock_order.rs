//! A7 — lock acquisition order.
//!
//! Builds the global lock-order graph from the [`crate::lockmodel`]
//! regions: an edge `L1 → L2` whenever `L2` is acquired while an `L1`
//! region is open, either directly in the same body or transitively
//! through a call made inside the region. Any cycle in that graph is a
//! potential deadlock — two threads taking the group's locks in
//! different orders can each end up waiting on the other — and is
//! reported as an **Error** carrying every acquisition edge in the
//! cycle, so both chains are visible at the fix site. A self-edge
//! (`L → L`) is re-entrant acquisition of a non-reentrant std lock,
//! which deadlocks a single thread, and is reported the same way.
//!
//! Fix by restructuring to a single global acquisition order (or by
//! narrowing one region so the locks are never held together); a
//! deliberate exception needs `// lint: allow(lock-order) <reason>`.

use super::{Context, Finding, Pass, PassOutput, Severity};
use crate::callgraph::CallGraph;
use crate::lockmodel::LockModel;

pub struct LockOrder;

impl Pass for LockOrder {
    fn id(&self) -> &'static str {
        "A7"
    }

    fn run(&self, ctx: &Context) -> PassOutput {
        let mut out = PassOutput::default();
        let graph = CallGraph::build(ctx);
        let model = LockModel::build(ctx, &graph);

        for group in model.cycles() {
            let Some(first) = group.first() else {
                continue;
            };
            let mut locks: Vec<&str> = group
                .iter()
                .flat_map(|e| [e.from.as_str(), e.to.as_str()])
                .collect();
            locks.sort_unstable();
            locks.dedup();
            let chains: Vec<String> = group
                .iter()
                .map(|e| {
                    let via = match &e.via {
                        Some(callee) => format!(" via `{callee}`"),
                        None => String::new(),
                    };
                    format!(
                        "`{}` → `{}` in `{}`{via} ({}:{})",
                        e.from, e.to, e.fn_disp, e.path, e.line
                    )
                })
                .collect();
            let message = if locks.len() == 1 {
                format!(
                    "re-entrant acquisition of `{}` — a std lock deadlocks when \
                     re-taken by its own thread: {}; drop the guard before the \
                     inner call or pass it down, or annotate \
                     `// lint: allow(lock-order) <reason>`",
                    locks[0],
                    chains.join("; ")
                )
            } else {
                format!(
                    "lock-order cycle between {} — threads taking these locks in \
                     different orders can deadlock: {}; pick one global order \
                     (or narrow a region), or annotate \
                     `// lint: allow(lock-order) <reason>`",
                    locks
                        .iter()
                        .map(|l| format!("`{l}`"))
                        .collect::<Vec<_>>()
                        .join(", "),
                    chains.join("; ")
                )
            };
            out.findings.push(Finding {
                rule: "A7",
                key: "lock-order",
                severity: Severity::Error,
                path: first.path.clone(),
                line: first.line,
                message,
            });
        }

        // Allow-comment suppression on the reported line, per file.
        for file in &ctx.files {
            let (allowed, missing) = file.source.allows("lock-order");
            out.findings
                .retain(|f| !(f.path == file.source.path && allowed.contains(&f.line)));
            for line in missing {
                out.findings.push(Finding {
                    rule: "allow",
                    key: "allow",
                    severity: Severity::Error,
                    path: file.source.path.clone(),
                    line,
                    message: "allow(lock-order) without a reason — state why this \
                              acquisition order cannot deadlock"
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
        LockOrder.run(&ctx)
    }

    const CYCLE: &str = "pub struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
                         impl S {\n\
                             pub fn one(&self) {\n\
                                 let g = self.a.lock();\n\
                                 let h = self.b.lock();\n\
                             }\n\
                             pub fn two(&self) {\n\
                                 let h = self.b.lock();\n\
                                 let g = self.a.lock();\n\
                             }\n\
                         }\n";

    #[test]
    fn a_deliberate_cycle_is_an_error_with_both_chains() {
        let out = run_on(&[("crates/serving/src/x.rs", CYCLE)]);
        let errs: Vec<&Finding> = out.findings.iter().filter(|f| f.rule == "A7").collect();
        assert_eq!(errs.len(), 1, "{:?}", out.findings);
        assert_eq!(errs[0].severity, Severity::Error);
        assert!(errs[0]
            .message
            .contains("`S.a` → `S.b` in `serving::S::one`"));
        assert!(errs[0]
            .message
            .contains("`S.b` → `S.a` in `serving::S::two`"));
    }

    #[test]
    fn the_fixed_ordering_is_clean() {
        let out = run_on(&[(
            "crates/serving/src/x.rs",
            "pub struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
             impl S {\n\
                 pub fn one(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
                 pub fn two(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
             }\n",
        )]);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn transitive_cycles_through_calls_are_detected() {
        let out = run_on(&[(
            "crates/serving/src/x.rs",
            "pub struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
             impl S {\n\
                 pub fn one(&self) { let g = self.a.lock(); self.take_b(); }\n\
                 pub fn take_b(&self) { let h = self.b.lock(); }\n\
                 pub fn two(&self) { let h = self.b.lock(); self.take_a(); }\n\
                 pub fn take_a(&self) { let g = self.a.lock(); }\n\
             }\n",
        )]);
        let errs: Vec<&Finding> = out.findings.iter().filter(|f| f.rule == "A7").collect();
        assert_eq!(errs.len(), 1, "{:?}", out.findings);
        assert!(errs[0].message.contains("via `serving::S::take_b`"));
        assert!(errs[0].message.contains("via `serving::S::take_a`"));
    }

    #[test]
    fn reentrant_self_acquisition_is_its_own_error() {
        let out = run_on(&[(
            "crates/serving/src/x.rs",
            "pub struct S { a: Mutex<u8> }\n\
             impl S {\n\
                 pub fn outer(&self) { let g = self.a.lock(); self.inner(); }\n\
                 pub fn inner(&self) { let g = self.a.lock(); }\n\
             }\n",
        )]);
        let errs: Vec<&Finding> = out.findings.iter().filter(|f| f.rule == "A7").collect();
        assert_eq!(errs.len(), 1, "{:?}", out.findings);
        assert!(errs[0].message.contains("re-entrant acquisition of `S.a`"));
    }

    #[test]
    fn allow_comment_suppresses_and_bare_allow_is_flagged() {
        // The finding lands on the line of the group's first (sorted)
        // edge's inner acquisition.
        let out = run_on(&[(
            "crates/serving/src/x.rs",
            "pub struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
             impl S {\n\
                 pub fn one(&self) {\n\
                     let g = self.a.lock();\n\
                     // lint: allow(lock-order) b is only ever tried, never waited on\n\
                     let h = self.b.lock();\n\
                 }\n\
                 pub fn two(&self) {\n\
                     let h = self.b.lock();\n\
                     // lint: allow(lock-order)\n\
                     let g = self.a.lock();\n\
                 }\n\
             }\n",
        )]);
        let a7: Vec<&Finding> = out.findings.iter().filter(|f| f.rule == "A7").collect();
        assert!(
            a7.is_empty(),
            "reasoned allow on the reported line suppresses: {a7:?}"
        );
        let misuses: Vec<&Finding> = out.findings.iter().filter(|f| f.rule == "allow").collect();
        assert_eq!(misuses.len(), 1, "{:?}", out.findings);
    }
}
