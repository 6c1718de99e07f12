//! A9 — condvar discipline.
//!
//! Three rules over the [`crate::lockmodel`] wait/notify sites,
//! workspace-wide:
//!
//! - **Error** — a `Condvar::wait`/`wait_timeout` outside a `while`/
//!   `loop` predicate loop. Condvars wake spuriously and by design wake
//!   more threads than have work; an `if`-guarded wait re-checks
//!   nothing and proceeds on stale state. (`wait_while` carries its own
//!   predicate and is exempt.)
//! - **Warning** — a wait whose guard cannot be pinned to exactly one
//!   live mutex region (zero candidate guards in scope, several, or a
//!   guard argument matching none): the condvar↔mutex pairing is
//!   ambiguous and the model (and the next reader) cannot tell which
//!   state the predicate protects.
//! - **Warning** — a state mutation inside a region of a mutex
//!   associated with a condvar (deref-assign, field assign, or a
//!   growing call like `push_back`) with no `notify_*` afterwards on
//!   any path of the fn: waiters can miss the update and sleep forever.
//!   Bare guard rebinds (`state = next`) and shrinking calls
//!   (`pop`/`take`/`drain`) are exempt — removing work wakes nobody.
//!
//! Suppression: `// lint: allow(condvar) <reason>`.

use super::{Context, Finding, Pass, PassOutput, Severity};
use crate::callgraph::CallGraph;
use crate::lexer::{TokKind, Token};
use crate::lockmodel::{collect_path_backwards, LockKind, LockModel};
use std::collections::{BTreeMap, BTreeSet};

/// Calls that add work a waiter could be sleeping for.
const GROW_CALLS: [&str; 6] = [
    "append",
    "extend",
    "insert",
    "push",
    "push_back",
    "push_front",
];

pub struct CondvarDiscipline;

impl Pass for CondvarDiscipline {
    fn id(&self) -> &'static str {
        "A9"
    }

    fn run(&self, ctx: &Context) -> PassOutput {
        let mut out = PassOutput::default();
        let graph = CallGraph::build(ctx);
        let model = LockModel::build(ctx, &graph);
        // mutex lock id → condvars it guards state for.
        let mut condvars_of: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (cv, mutexes) in &model.assoc {
            for m in mutexes {
                condvars_of.entry(m).or_default().insert(cv);
            }
        }

        for (fid, fl) in model.fns.iter().enumerate() {
            if fl.waits.is_empty() && fl.regions.is_empty() {
                continue;
            }
            let item = &graph.index.fns[fid];
            let Some((b0, b1)) = item.body else {
                continue;
            };
            let file = &ctx.files[item.file];
            let toks = &file.tokens;
            let in_loop = super::hot_alloc::loop_mask(toks, b0, b1);
            let mut findings = Vec::new();
            let mut push = |line: usize, severity: Severity, msg: String| {
                findings.push(Finding {
                    rule: "A9",
                    key: "condvar",
                    severity,
                    path: file.source.path.clone(),
                    line,
                    message: msg,
                });
            };

            for w in &fl.waits {
                let cv = w.condvar.as_deref().unwrap_or("<condvar>");
                if w.method != "wait_while" && !in_loop[w.tok - b0] {
                    push(
                        w.line,
                        Severity::Error,
                        format!(
                            "`{}` on `{cv}` in `{}` is not inside a `while`/`loop` \
                             predicate loop — condvars wake spuriously, so the woken \
                             thread must re-check its predicate before proceeding; \
                             wrap the wait in `while !predicate {{ … }}` or annotate \
                             `// lint: allow(condvar) <reason>`",
                            w.method,
                            item.display()
                        ),
                    );
                }
                let candidates: Vec<&str> = fl
                    .regions
                    .iter()
                    .filter(|r| r.kind == LockKind::Mutex && r.guard.is_some() && r.contains(w.tok))
                    .map(|r| r.lock.as_str())
                    .collect();
                let matched = w.guard_arg.as_deref().is_some_and(|g| {
                    fl.regions.iter().any(|r| {
                        r.kind == LockKind::Mutex
                            && r.guard.as_deref() == Some(g)
                            && r.contains(w.tok)
                    })
                });
                if !matched && candidates.len() != 1 {
                    push(
                        w.line,
                        Severity::Warning,
                        format!(
                            "`{}` on `{cv}` in `{}` has {} candidate mutex guard(s) in \
                             scope — the condvar↔mutex pairing is ambiguous; hold \
                             exactly the mutex whose state the predicate checks, or \
                             annotate `// lint: allow(condvar) <reason>`",
                            w.method,
                            item.display(),
                            candidates.len()
                        ),
                    );
                }
            }

            // Mutations of condvar-associated state need a notify after.
            for r in &fl.regions {
                let Some(cvs) = condvars_of.get(r.lock.as_str()) else {
                    continue;
                };
                let Some(guard) = r.guard.as_deref() else {
                    continue;
                };
                let mutations = find_mutations(toks, b0, r.acq + 1, r.end.min(b1), guard);
                let Some(&(last_mut, line)) = mutations.last() else {
                    continue;
                };
                let notified = fl.notifies.iter().any(|n| {
                    n.tok > last_mut && n.condvar.as_deref().is_none_or(|cv| cvs.contains(cv))
                });
                if !notified {
                    push(
                        line,
                        Severity::Warning,
                        format!(
                            "`{}` (guarding {}) is mutated in `{}` with no following \
                             `notify_*` — a parked waiter can miss this update and \
                             sleep forever; notify after the mutation or annotate \
                             `// lint: allow(condvar) <reason>`",
                            r.lock,
                            cvs.iter()
                                .map(|c| format!("`{c}`"))
                                .collect::<Vec<_>>()
                                .join(", "),
                            item.display()
                        ),
                    );
                }
            }
            let (allowed, _) = file.source.allows("condvar");
            findings.retain(|f| !allowed.contains(&f.line));
            out.findings.extend(findings);
        }

        // Satellite lint: every allow(condvar) must carry a reason.
        for file in &ctx.files {
            let (_, missing) = file.source.allows("condvar");
            for line in missing {
                out.findings.push(Finding {
                    rule: "allow",
                    key: "allow",
                    severity: Severity::Error,
                    path: file.source.path.clone(),
                    line,
                    message: "allow(condvar) without a reason — state why this wait/\
                              notify discipline deviation is safe"
                        .into(),
                });
            }
        }
        out
    }
}

/// `(token, line)` of every mutation of `guard`'s state in `[s, e)`:
/// assignments whose left-hand side roots at the guard (except a bare
/// `guard = …` rebind — that is the wait-reacquisition pattern), and
/// growing container calls on it.
fn find_mutations(
    toks: &[Token],
    b0: usize,
    s: usize,
    e: usize,
    guard: &str,
) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for m in s..e {
        let t = &toks[m];
        if t.is_punct("=") {
            // A single `=` that is not `==`/`<=`/`>=`/`!=`; a compound
            // operator before it (`+=`) still assigns.
            let prev = m.checked_sub(1).map(|i| toks[i].text.as_str());
            if matches!(prev, Some("=" | "<" | ">" | "!"))
                || toks.get(m + 1).is_some_and(|n| n.is_punct("="))
            {
                continue;
            }
            let lhs_end = match prev {
                Some("+" | "-" | "*" | "/" | "%" | "&" | "|" | "^") => m.saturating_sub(2),
                _ => m.saturating_sub(1),
            };
            // Statement start: after the previous `;`/`{`/`}`.
            let mut ls = lhs_end;
            while ls > b0 && !matches!(toks[ls - 1].text.as_str(), ";" | "{" | "}") {
                ls -= 1;
            }
            if toks[ls].is_ident("let") {
                continue; // a new binding, not a mutation
            }
            let mut derefs = 0usize;
            while toks[ls].is_punct("*") && ls < lhs_end {
                derefs += 1;
                ls += 1;
            }
            let Some(segs) = collect_path_backwards(toks, b0, lhs_end) else {
                continue;
            };
            if segs.first().map(String::as_str) != Some(guard) {
                continue;
            }
            let bare_rebind = derefs == 0 && segs.len() == 1 && ls == lhs_end;
            if !bare_rebind {
                out.push((m, t.line));
            }
        } else if t.kind == TokKind::Ident
            && GROW_CALLS.contains(&t.text.as_str())
            && m > 0
            && toks[m - 1].is_punct(".")
            && toks.get(m + 1).is_some_and(|n| n.is_punct("("))
        {
            let root = m
                .checked_sub(2)
                .and_then(|i| collect_path_backwards(toks, b0, i))
                .and_then(|segs| segs.first().cloned());
            if root.as_deref() == Some(guard) {
                out.push((m, t.line));
            }
        }
    }
    out
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
        CondvarDiscipline.run(&ctx)
    }

    #[test]
    fn if_guarded_wait_is_an_error_and_while_loop_is_clean() {
        let bad = run_on(&[(
            "crates/serving/src/server.rs",
            "pub struct S { state: Mutex<u8>, work: Condvar }\n\
             impl S {\n\
                 pub fn park(&self) {\n\
                     let mut state = self.state.lock();\n\
                     if *state == 0 { state = self.work.wait(state); }\n\
                 }\n\
             }\n",
        )]);
        let errs: Vec<&Finding> = bad.findings.iter().filter(|f| f.rule == "A9").collect();
        assert_eq!(errs.len(), 1, "{:?}", bad.findings);
        assert_eq!(errs[0].severity, Severity::Error);
        assert!(errs[0].message.contains("not inside a `while`/`loop`"));
        assert!(errs[0].message.contains("`S.work`"));
        let good = run_on(&[(
            "crates/serving/src/server.rs",
            "pub struct S { state: Mutex<u8>, work: Condvar }\n\
             impl S {\n\
                 pub fn park(&self) {\n\
                     let mut state = self.state.lock();\n\
                     while *state == 0 { state = self.work.wait(state); }\n\
                 }\n\
             }\n",
        )]);
        assert!(good.findings.is_empty(), "{:?}", good.findings);
    }

    #[test]
    fn wait_with_no_candidate_guard_is_ambiguous() {
        let out = run_on(&[(
            "crates/serving/src/server.rs",
            "pub struct S { work: Condvar }\n\
             impl S {\n\
                 pub fn park(&self, g: G) {\n\
                     loop { self.work.wait(g); }\n\
                 }\n\
             }\n",
        )]);
        let warns: Vec<&Finding> = out
            .findings
            .iter()
            .filter(|f| f.rule == "A9" && f.severity == Severity::Warning)
            .collect();
        assert_eq!(warns.len(), 1, "{:?}", out.findings);
        assert!(warns[0].message.contains("0 candidate mutex guard(s)"));
    }

    #[test]
    fn mutation_without_notify_is_a_warning_and_with_notify_is_clean() {
        let park = "pub fn park(s: &S) {\n\
                        let mut state = s.state.lock();\n\
                        while state.pending == 0 { state = s.work.wait(state); }\n\
                    }\n";
        let bad = run_on(&[(
            "crates/serving/src/server.rs",
            &format!(
                "pub struct S {{ state: Mutex<Q>, work: Condvar }}\n\
                 {park}\
                 pub fn submit(s: &S) {{\n\
                     let mut state = s.state.lock();\n\
                     state.pending += 1;\n\
                 }}\n"
            ),
        )]);
        let warns: Vec<&Finding> = bad
            .findings
            .iter()
            .filter(|f| f.rule == "A9" && f.severity == Severity::Warning)
            .collect();
        assert_eq!(warns.len(), 1, "{:?}", bad.findings);
        assert!(warns[0].message.contains("no following `notify_*`"));
        assert!(warns[0].message.contains("serving::submit"));
        let good = run_on(&[(
            "crates/serving/src/server.rs",
            &format!(
                "pub struct S {{ state: Mutex<Q>, work: Condvar }}\n\
                 {park}\
                 pub fn submit(s: &S) {{\n\
                     let mut state = s.state.lock();\n\
                     state.pending += 1;\n\
                     drop(state);\n\
                     s.work.notify_one();\n\
                 }}\n"
            ),
        )]);
        assert!(good.findings.is_empty(), "{:?}", good.findings);
    }

    #[test]
    fn rebinds_and_shrinking_calls_are_not_mutations() {
        let out = run_on(&[(
            "crates/serving/src/server.rs",
            "pub struct S { state: Mutex<Q>, work: Condvar }\n\
             pub fn park(s: &S) {\n\
                 let mut state = s.state.lock();\n\
                 while state.queue.is_empty() { state = s.work.wait(state); }\n\
                 let job = state.queue.pop_front();\n\
             }\n",
        )]);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn grow_calls_count_as_mutations() {
        let out = run_on(&[(
            "crates/serving/src/server.rs",
            "pub struct S { state: Mutex<Q>, work: Condvar }\n\
             pub fn park(s: &S) {\n\
                 let mut state = s.state.lock();\n\
                 while state.queue.is_empty() { state = s.work.wait(state); }\n\
             }\n\
             pub fn submit(s: &S) {\n\
                 let mut state = s.state.lock();\n\
                 state.queue.push_back(1);\n\
             }\n",
        )]);
        let warns: Vec<&Finding> = out
            .findings
            .iter()
            .filter(|f| f.rule == "A9" && f.severity == Severity::Warning)
            .collect();
        assert_eq!(warns.len(), 1, "{:?}", out.findings);
    }

    #[test]
    fn allow_comment_suppresses_and_bare_allow_is_flagged() {
        let out = run_on(&[(
            "crates/serving/src/server.rs",
            "pub struct S { state: Mutex<u8>, work: Condvar }\n\
             impl S {\n\
                 pub fn park(&self) {\n\
                     let mut state = self.state.lock();\n\
                     // lint: allow(condvar) single-shot gate, checked once by design\n\
                     if *state == 0 { state = self.work.wait(state); }\n\
                 }\n\
                 pub fn park2(&self) {\n\
                     let mut state = self.state.lock();\n\
                     // lint: allow(condvar)\n\
                     if *state == 0 { state = self.work.wait(state); }\n\
                 }\n\
             }\n",
        )]);
        let a9: Vec<&Finding> = out.findings.iter().filter(|f| f.rule == "A9").collect();
        assert_eq!(a9.len(), 1, "reasonless allow does not suppress: {a9:?}");
        let misuses: Vec<&Finding> = out.findings.iter().filter(|f| f.rule == "allow").collect();
        assert_eq!(misuses.len(), 1, "{:?}", out.findings);
    }
}
