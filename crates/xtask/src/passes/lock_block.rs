//! A8 — blocking calls under a lock.
//!
//! For every fn reachable from the serving hot path (every non-test fn
//! in `crates/serving/src/` plus the public `nn::par` entry points),
//! this pass intersects the call sites with the held-lock sets from the
//! [`crate::lockmodel`] — both locks acquired locally and locks held by
//! a caller across the call edge — and flags:
//!
//! - **Error**: a blocking call while any lock is held — channel
//!   `recv`/`recv_timeout`/`recv_deadline`, `JoinHandle`/`WorkerPool`
//!   `join`, `thread::sleep`, `File`/`fs` IO, print macros — or a
//!   `Condvar::wait*` while holding any lock *other than* the condvar's
//!   own mutex (the wait releases only its own mutex; everything else
//!   stays held for the full sleep).
//! - **Warning**: an allocation-shaped call (the A5 matcher) inside a
//!   lock region — it stretches the critical section and stalls every
//!   other thread on the queue lock.
//!
//! Suppression: `// lint: allow(lock-block) <reason>`.

use super::{Context, Finding, Pass, PassOutput, Severity};
use crate::callgraph::CallGraph;
use crate::lexer::TokKind;
use crate::lockmodel::LockModel;
use std::collections::BTreeMap;

pub struct LockBlock;

impl Pass for LockBlock {
    fn id(&self) -> &'static str {
        "A8"
    }

    fn run(&self, ctx: &Context) -> PassOutput {
        let mut out = PassOutput::default();
        let graph = CallGraph::build(ctx);
        let model = LockModel::build(ctx, &graph);
        let roots: Vec<usize> = graph
            .index
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                !f.in_test
                    && f.body.is_some()
                    && (f.path.starts_with("crates/serving/src/")
                        || (f.is_pub && f.path.ends_with("crates/nn/src/par.rs")))
            })
            .map(|(i, _)| i)
            .collect();
        let reach = graph.reachable(&roots);
        let held = model.held_from(&graph, &roots);

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
            let fl = &model.fns[fid];
            let entry = held.get(&fid);
            let chain_str = graph.chain_display(chain);
            // lock → human description of where it was acquired.
            let held_at = |k: usize| -> BTreeMap<String, String> {
                let mut m = BTreeMap::new();
                if let Some(e) = entry {
                    for (lock, h) in e {
                        m.insert(
                            lock.clone(),
                            format!("held by `{}`:{}", h.acquired_in, h.line),
                        );
                    }
                }
                for r in &fl.regions {
                    if r.contains(k) {
                        m.insert(r.lock.clone(), format!("acquired at line {}", r.line));
                    }
                }
                m
            };
            let describe = |m: &BTreeMap<String, String>| -> String {
                m.iter()
                    .map(|(l, w)| format!("`{l}` ({w})"))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let mut findings = Vec::new();
            let mut push = |line: usize, severity: Severity, msg: String| {
                findings.push(Finding {
                    rule: "A8",
                    key: "lock-block",
                    severity,
                    path: file.source.path.clone(),
                    line,
                    message: msg,
                });
            };

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
                let dot_call = k > 0
                    && toks[k - 1].is_punct(".")
                    && toks.get(k + 1).is_some_and(|n| n.is_punct("("));
                if let Some(w) = fl.waits.iter().find(|w| w.tok == k) {
                    let mut locks = held_at(k);
                    // The condvar's own mutex is released by the wait.
                    if let Some(g) = &w.guard_arg {
                        if let Some(own) = fl
                            .regions
                            .iter()
                            .find(|r| r.guard.as_deref() == Some(g.as_str()) && r.contains(k))
                        {
                            locks.remove(&own.lock);
                        }
                    }
                    if !locks.is_empty() {
                        push(
                            t.line,
                            Severity::Error,
                            format!(
                                "`{}` in `{}` sleeps while holding {} — the wait releases \
                                 only its own mutex, everything else stays locked; \
                                 reachable via {chain_str}; drop the other guard(s) \
                                 first or annotate `// lint: allow(lock-block) <reason>`",
                                w.method,
                                item.display(),
                                describe(&locks)
                            ),
                        );
                    }
                    k += 1;
                    continue;
                }
                let blocking: Option<String> = if dot_call
                    && matches!(t.text.as_str(), "recv" | "recv_timeout" | "recv_deadline")
                {
                    Some(format!("channel `.{}()`", t.text))
                } else if dot_call && t.text == "join" && {
                    // Only a thread join when the receiver's type says so.
                    let recv_ty = k.checked_sub(2).and_then(|i| {
                        let r = &toks[i];
                        if r.kind != TokKind::Ident {
                            return None;
                        }
                        if k >= 4 && toks[k - 3].is_punct(".") && toks[k - 4].is_ident("self") {
                            item.owner
                                .as_ref()
                                .and_then(|o| graph.index.fields.get(&(o.clone(), r.text.clone())))
                                .cloned()
                        } else {
                            fl.hints.get(&r.text).cloned()
                        }
                    });
                    matches!(recv_ty.as_deref(), Some("JoinHandle" | "WorkerPool"))
                } {
                    Some("`.join()` on a thread handle".to_string())
                } else if t.text == "sleep"
                    && k >= 2
                    && toks[k - 1].is_punct("::")
                    && toks[k - 2].is_ident("thread")
                {
                    Some("`thread::sleep`".to_string())
                } else if k >= 2
                    && toks[k - 1].is_punct("::")
                    && matches!(toks[k - 2].text.as_str(), "File" | "fs")
                    && toks.get(k + 1).is_some_and(|n| n.is_punct("("))
                {
                    Some(format!("file IO `{}::{}`", toks[k - 2].text, t.text))
                } else if matches!(t.text.as_str(), "print" | "println" | "eprint" | "eprintln")
                    && toks.get(k + 1).is_some_and(|n| n.is_punct("!"))
                {
                    Some(format!("console IO `{}!`", t.text))
                } else {
                    None
                };
                if let Some(what) = blocking {
                    let locks = held_at(k);
                    if !locks.is_empty() {
                        push(
                            t.line,
                            Severity::Error,
                            format!(
                                "blocking call {what} in `{}` while holding {} — every \
                                 thread contending those locks stalls behind it; \
                                 reachable via {chain_str}; move the call outside the \
                                 region or annotate `// lint: allow(lock-block) <reason>`",
                                item.display(),
                                describe(&locks)
                            ),
                        );
                    }
                } else if let Some(call) = super::hot_alloc::alloc_shape(toks, k) {
                    let locks = held_at(k);
                    if !locks.is_empty() {
                        push(
                            t.line,
                            Severity::Warning,
                            format!(
                                "allocation-shaped call `{call}` in `{}` while holding {} \
                                 — it stretches the critical section; reachable via \
                                 {chain_str}; allocate before taking the lock or annotate \
                                 `// lint: allow(lock-block) <reason>`",
                                item.display(),
                                describe(&locks)
                            ),
                        );
                    }
                }
                k += 1;
            }
            let (allowed, _) = file.source.allows("lock-block");
            findings.retain(|f| !allowed.contains(&f.line));
            out.findings.extend(findings);
        }

        // Satellite lint: every allow(lock-block) must carry a reason.
        for file in &ctx.files {
            let (_, missing) = file.source.allows("lock-block");
            for line in missing {
                out.findings.push(Finding {
                    rule: "allow",
                    key: "allow",
                    severity: Severity::Error,
                    path: file.source.path.clone(),
                    line,
                    message: "allow(lock-block) without a reason — state why blocking \
                              while holding this lock is acceptable"
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
        LockBlock.run(&ctx)
    }

    #[test]
    fn channel_recv_under_a_lock_is_an_error_and_fixed_form_is_clean() {
        let out = run_on(&[(
            "crates/serving/src/server.rs",
            "pub struct S { state: Mutex<u8> }\n\
             impl S {\n\
                 pub fn drain(&self, rx: &Receiver) {\n\
                     let g = self.state.lock();\n\
                     let item = rx.recv();\n\
                 }\n\
             }\n",
        )]);
        let errs: Vec<&Finding> = out.findings.iter().filter(|f| f.rule == "A8").collect();
        assert_eq!(errs.len(), 1, "{:?}", out.findings);
        assert_eq!(errs[0].severity, Severity::Error);
        assert!(errs[0].message.contains("channel `.recv()`"));
        assert!(errs[0].message.contains("`S.state`"));
        let fixed = run_on(&[(
            "crates/serving/src/server.rs",
            "pub struct S { state: Mutex<u8> }\n\
             impl S {\n\
                 pub fn drain(&self, rx: &Receiver) {\n\
                     let item = rx.recv();\n\
                     let g = self.state.lock();\n\
                 }\n\
             }\n",
        )]);
        assert!(fixed.findings.is_empty(), "{:?}", fixed.findings);
    }

    #[test]
    fn blocking_in_a_callee_is_caught_through_the_held_set() {
        let out = run_on(&[(
            "crates/serving/src/server.rs",
            "pub struct S { state: Mutex<u8> }\n\
             impl S {\n\
                 pub fn submit(&self) {\n\
                     let g = self.state.lock();\n\
                     self.log();\n\
                 }\n\
                 fn log(&self) { println!(\"depth\"); }\n\
             }\n",
        )]);
        let errs: Vec<&Finding> = out.findings.iter().filter(|f| f.rule == "A8").collect();
        assert_eq!(errs.len(), 1, "{:?}", out.findings);
        assert!(errs[0].message.contains("console IO `println!`"));
        assert!(errs[0].message.contains("held by `serving::S::submit`"));
    }

    #[test]
    fn wait_holding_only_its_own_mutex_is_fine_foreign_lock_is_not() {
        let ok = run_on(&[(
            "crates/serving/src/server.rs",
            "pub struct S { state: Mutex<u8>, work: Condvar }\n\
             impl S {\n\
                 pub fn park(&self) {\n\
                     let mut state = self.state.lock();\n\
                     while *state == 0 { state = self.work.wait(state); }\n\
                 }\n\
             }\n",
        )]);
        assert!(ok.findings.is_empty(), "{:?}", ok.findings);
        let bad = run_on(&[(
            "crates/serving/src/server.rs",
            "pub struct S { state: Mutex<u8>, other: Mutex<u8>, work: Condvar }\n\
             impl S {\n\
                 pub fn park(&self) {\n\
                     let extra = self.other.lock();\n\
                     let mut state = self.state.lock();\n\
                     while *state == 0 { state = self.work.wait(state); }\n\
                 }\n\
             }\n",
        )]);
        let errs: Vec<&Finding> = bad.findings.iter().filter(|f| f.rule == "A8").collect();
        assert_eq!(errs.len(), 1, "{:?}", bad.findings);
        assert!(errs[0].message.contains("sleeps while holding"));
        assert!(errs[0].message.contains("`S.other`"));
        assert!(
            !errs[0].message.contains("`S.state`"),
            "{}",
            errs[0].message
        );
    }

    #[test]
    fn join_sleep_and_alloc_under_lock_are_flagged() {
        let out = run_on(&[(
            "crates/nn/src/par.rs",
            "pub struct WorkerPool;\n\
             pub struct S { state: Mutex<u8> }\n\
             impl S {\n\
                 pub fn f(&self, pool: WorkerPool) {\n\
                     let g = self.state.lock();\n\
                     pool.join();\n\
                     thread::sleep(dur);\n\
                     let v = names.to_vec();\n\
                 }\n\
             }\n",
        )]);
        let a8: Vec<&Finding> = out.findings.iter().filter(|f| f.rule == "A8").collect();
        assert_eq!(a8.len(), 3, "{:?}", out.findings);
        assert!(a8[0].message.contains("`.join()` on a thread handle"));
        assert_eq!(a8[0].severity, Severity::Error);
        assert!(a8[1].message.contains("`thread::sleep`"));
        assert!(a8[2].message.contains("`.to_vec()`"));
        assert_eq!(a8[2].severity, Severity::Warning);
    }

    #[test]
    fn unreachable_and_unlocked_blocking_calls_are_clean() {
        // A recv with no lock held, and a locked recv in a crate outside
        // the serving/par root set, both stay clean.
        let out = run_on(&[(
            "crates/ml/src/x.rs",
            "pub struct S { state: Mutex<u8> }\n\
             impl S {\n\
                 pub fn elsewhere(&self, rx: &Receiver) {\n\
                     let g = self.state.lock();\n\
                     let item = rx.recv();\n\
                 }\n\
             }\n",
        )]);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn allow_comment_suppresses_and_bare_allow_is_flagged() {
        let out = run_on(&[(
            "crates/serving/src/server.rs",
            "pub struct S { state: Mutex<u8> }\n\
             impl S {\n\
                 pub fn f(&self, rx: &Receiver) {\n\
                     let g = self.state.lock();\n\
                     // lint: allow(lock-block) startup only, nothing contends yet\n\
                     let item = rx.recv();\n\
                     // lint: allow(lock-block)\n\
                     let other = rx.recv_timeout(t);\n\
                 }\n\
             }\n",
        )]);
        let a8: Vec<&Finding> = out.findings.iter().filter(|f| f.rule == "A8").collect();
        assert_eq!(a8.len(), 1, "{:?}", out.findings);
        assert!(a8[0].message.contains("recv_timeout"));
        let misuses: Vec<&Finding> = out.findings.iter().filter(|f| f.rule == "allow").collect();
        assert_eq!(misuses.len(), 1, "{:?}", out.findings);
    }
}
