//! A7 — lock discipline.
//!
//! One structural rule per fn body, with no lock identities and no
//! held-set propagation. A *critical section* runs from an acquisition —
//! `.lock()`, a zero-argument `.read()`/`.write()`, or a call to a fn
//! whose return type is a guard ([`crate::items::FnItem::returns_guard`])
//! — to the guard's death:
//!
//! - `let [mut] g = ACQ[.unwrap()|.expect(..)|.unwrap_or_else(..)][?];`
//!   binds a guard. It lives to its block's end, a same-depth `drop(g)`
//!   or a shadowing `let g`; `g = cv.wait(g)…` keeps it alive.
//! - Anything else is a temporary and dies at the end of its statement.
//!   An `if let`/`match`/`while let`/`for` statement ends at its last
//!   block's `}`, because edition 2021 keeps scrutinee temporaries alive
//!   through every arm; a plain `if`/`while` condition ends at its block.
//!   A closure's expression body ends its own temporaries.
//!
//! Inside a critical section these are **Errors**: a second
//! acquisition; any call except `drop(..)`, a capitalised constructor
//! (`Some`, `Err`, …) and a method whose name has no workspace candidate
//! in the call graph (an edge or an ambiguous `Unresolved` at the site
//! is one); `.recv*()`, a zero-argument `.join()` and the print macros.
//! The wait on the section's own guard is allowed. In
//! `crates/serving/src` and `nn/src/par.rs` an allocation-shaped method
//! call ([`crate::memflow::alloc_shape`]) is a **Warning**.
//!
//! Condvars: a `wait`/`wait_timeout` that is not inside a `while`/`loop`
//! opened after its guard's acquisition is an **Error** (condvars wake
//! spuriously). A `wait*` whose first argument is not a live guard is a
//! **Warning**, and so is an assignment or grow call (`push*`/`insert`/
//! `extend`/`append`) through a guard with no later `notify_*` in the
//! fn, when the guard's lock ends in the same path segment as a waited
//! guard's lock (`state` in `lock(&self.shared.state)`). Rebinds and
//! shrinking calls are not changes.
//!
//! Suppression: `// lint: allow(lock) <reason>`.

use super::{Context, Finding, Pass, Severity};
use crate::callgraph::{CallGraph, CALL_KEYWORDS};
use crate::lexer::{matching_close, render, split_args, TokKind, Token};
use crate::memflow::alloc_shape;
use std::collections::{BTreeMap, BTreeSet};

pub struct Locks;

impl Pass for Locks {
    fn id(&self) -> &'static str {
        "A7"
    }

    fn run(&self, ctx: &Context) -> Vec<Finding> {
        let graph = ctx.graph();
        // (file, call-site token) → the callee, or `None` for a method
        // name with several workspace candidates.
        let mut calls = BTreeMap::new();
        for e in &graph.edges {
            calls.insert((graph.index.fns[e.caller].file, e.site), Some(e.callee));
        }
        for u in &graph.unresolved {
            if u.reason.starts_with("ambiguous") {
                calls.insert((graph.index.fns[u.caller].file, u.site), None);
            }
        }
        let mut scans = Vec::new();
        let mut waited = BTreeSet::new();
        for item in &graph.index.fns {
            let Some((b0, b1)) = item.body.filter(|_| !item.in_test) else {
                continue;
            };
            let nested = (graph.index.fns.iter())
                .filter(|f| f.file == item.file)
                .filter_map(|f| f.body)
                .filter(|&(n0, n1)| n0 > b0 && n1 < b1)
                .collect();
            let mut scan = FnScan {
                toks: &ctx.files[item.file].tokens,
                graph,
                calls: &calls,
                file: item.file,
                name: item.display(),
                path: &item.path,
                b0,
                b1,
                nested,
                sections: Vec::new(),
                findings: Vec::new(),
            };
            scan.scan(&mut waited);
            scans.push(scan);
        }
        let mut out = Vec::new();
        for mut scan in scans {
            scan.check_notify(&waited);
            out.append(&mut scan.findings);
        }
        out
    }
}

/// One critical section: the acquisition call's name at `acq`, guarded
/// tokens `[start, end)`.
struct Section {
    acq: usize,
    start: usize,
    end: usize,
    /// The let-bound guard; `None` for a temporary.
    guard: Option<String>,
    /// The locked expression (`self.shared.state`) and its last path
    /// segment (`state`).
    lock: String,
    seg: String,
}

struct FnScan<'a> {
    toks: &'a [Token],
    graph: &'a CallGraph,
    calls: &'a BTreeMap<(usize, usize), Option<usize>>,
    file: usize,
    name: String,
    path: &'a str,
    b0: usize,
    b1: usize,
    /// Bodies of fns nested in this one, which are scanned on their own.
    nested: Vec<(usize, usize)>,
    sections: Vec<Section>,
    findings: Vec<Finding>,
}

impl FnScan<'_> {
    fn is(&self, i: usize, text: &str) -> bool {
        self.toks.get(i).is_some_and(|t| t.text == text)
    }

    fn own(&self, i: usize) -> bool {
        !self.nested.iter().any(|&(n0, n1)| i >= n0 && i < n1)
    }

    fn method_call(&self, i: usize) -> bool {
        self.toks[i].kind == TokKind::Ident && self.is(i - 1, ".") && self.is(i + 1, "(")
    }

    fn is_acq(&self, i: usize) -> bool {
        let callee = self.calls.get(&(self.file, i)).copied().flatten();
        callee.is_some_and(|c| self.graph.index.fns[c].returns_guard)
            || (["lock", "read", "write"].contains(&self.toks[i].text.as_str())
                && self.method_call(i)
                && self.is(i + 2, ")"))
    }

    fn push(&mut self, i: usize, severity: Severity, text: String) {
        self.findings.push(Finding {
            rule: "A7",
            key: "lock",
            severity,
            path: self.path.to_string(),
            line: self.toks[i].line,
            message: format!(
                "`{}` {text}, or annotate `// lint: allow(lock) <reason>`",
                self.name
            ),
        });
    }

    fn scan(&mut self, waited: &mut BTreeSet<String>) {
        let own: Vec<usize> = (self.b0..self.b1).filter(|&i| self.own(i)).collect();
        self.sections = (own.iter().filter(|&&k| self.is_acq(k)))
            .filter_map(|&k| self.section(k))
            .collect();
        for n in 0..self.sections.len() {
            self.check_section(n);
        }
        for i in own {
            if self.toks[i].text.starts_with("wait") && self.method_call(i) && !self.is(i + 2, ")")
            {
                self.check_wait(i, waited);
            }
        }
    }

    /// A condvar wait at `i` needs a live guard, and a plain
    /// `wait`/`wait_timeout` a predicate loop opened under that guard.
    fn check_wait(&mut self, i: usize, waited: &mut BTreeSet<String>) {
        let (wait, arg) = (&self.toks[i].text, self.first_arg(i));
        let live = (self.sections.iter())
            .find(|s| s.guard.is_some() && s.guard == arg && s.start <= i && i < s.end);
        let Some(sec) = live else {
            let msg = format!("waits (`{wait}`) without a live guard, so its mutex is ambiguous");
            return self.push(i, Severity::Warning, msg);
        };
        waited.insert(sec.seg.clone());
        let in_loop = (sec.acq..i).any(|w| {
            (self.is(w, "while") || self.is(w, "loop"))
                && (self.block_open(w))
                    .is_some_and(|o| o < i && matching_close(self.toks, o).is_some_and(|c| i < c))
        });
        if matches!(wait.as_str(), "wait" | "wait_timeout") && !in_loop {
            let msg = format!(
                "calls `{wait}` outside a `while`/`loop` opened under `{}`, so a \
                 spurious wakeup skips the predicate",
                sec.lock
            );
            self.push(i, Severity::Error, msg);
        }
    }

    /// The critical section opened by the acquisition at `k`.
    fn section(&self, k: usize) -> Option<Section> {
        let t = self.toks;
        let close = matching_close(t, k + 1)?;
        let (a0, a1) = if t[k - 1].is_punct(".") {
            (self.path_start(k - 2), k - 1)
        } else {
            let args = split_args(t, k + 2, close);
            let (a0, a1) = args.first().copied().unwrap_or((k, k + 1));
            (
                (a0..a1).find(|&a| !self.is(a, "&") && !self.is(a, "mut"))?,
                a1,
            )
        };
        let lock = render(t, a0, a1);
        let seg = lock.rsplit(['.', ':']).next()?;
        let seg = seg.split(['[', '(']).next()?.to_string();
        let s = self.stmt_start(k);
        let guard = self.guard_binding(s, k, close);
        let end = match &guard {
            Some(g) => {
                let drop = |i| self.is(i + 1, "(") && self.is(i + 2, g) && self.is(i + 3, ")");
                let rebind = |i| self.is(i + 1, g) || (self.is(i + 1, "mut") && self.is(i + 2, g));
                self.walk(close, |i| {
                    (self.is(i, "drop") && drop(i)) || (self.is(i, "let") && rebind(i))
                })
            }
            None => self.temp_end(s, k).unwrap_or(self.b1),
        };
        Some(Section {
            acq: k,
            start: close + 1,
            end,
            guard,
            lock,
            seg,
        })
    }

    /// First token of the statement holding `k`.
    fn stmt_start(&self, k: usize) -> usize {
        let mut s = k;
        while s > self.b0 && !matches!(self.toks[s - 1].text.as_str(), ";" | "{" | "}") {
            s -= 1;
        }
        s
    }

    /// From `from`, the first token at the same brace depth that `stop`
    /// accepts, or the `}` closing the enclosing block.
    fn walk(&self, from: usize, stop: impl Fn(usize) -> bool) -> usize {
        let mut depth = 0;
        for i in from..self.b1 {
            match self.toks[i].text.as_str() {
                "{" => depth += 1,
                "}" if depth == 0 => return i,
                "}" => depth -= 1,
                _ if depth == 0 && stop(i) => return i,
                _ => {}
            }
        }
        self.b1
    }

    /// Start of the path ending at `i` (`self.slots[i]`, `chan()`).
    fn path_start(&self, mut i: usize) -> usize {
        let t = self.toks;
        loop {
            if matches!(t[i].text.as_str(), "]" | ")") {
                let mut depth = 0;
                let open = (self.b0..=i).rev().find(|&j| {
                    depth += i32::from(self.is(j, "]") || self.is(j, ")"));
                    depth -= i32::from(self.is(j, "[") || self.is(j, "("));
                    depth == 0
                });
                i = open.unwrap_or(self.b0 + 1);
                i -= usize::from(t[i - 1].kind == TokKind::Ident);
            }
            if i < self.b0 + 2 || !matches!(t[i - 1].text.as_str(), "." | "::") {
                return i;
            }
            i -= 2;
        }
    }

    /// The guard name when the statement at `s` is
    /// `let [mut] g = ACQ[.unwrap()|.expect(..)|.unwrap_or_else(..)][?];`.
    fn guard_binding(&self, s: usize, k: usize, close: usize) -> Option<String> {
        let t = self.toks;
        let n = if self.is(s + 1, "mut") { s + 2 } else { s + 1 };
        if !t[s].is_ident("let") || t[n].kind != TokKind::Ident || !self.is(n + 1, "=") {
            return None;
        }
        // The initializer is a plain path up to the acquisition…
        let head_end = if t[k - 1].is_punct(".") { k - 1 } else { k };
        let plain = |i: &usize| {
            matches!(t[*i].kind, TokKind::Ident | TokKind::Int)
                || matches!(t[*i].text.as_str(), "." | "::" | "[" | "]")
        };
        if !(n + 2..head_end).all(|i| plain(&i)) {
            return None;
        }
        // …and nothing but an unwrap and a `?` after it.
        let mut j = close + 1;
        let unwrap = ["unwrap", "expect", "unwrap_or_else"]
            .iter()
            .any(|u| self.is(j + 1, u));
        if self.is(j, ".") && unwrap {
            j = matching_close(t, j + 2)? + 1;
        }
        j += usize::from(self.is(j, "?"));
        self.is(j, ";").then(|| t[n].text.clone())
    }

    /// Where a temporary guard taken at `k` in the statement at `s` dies.
    fn temp_end(&self, s: usize, k: usize) -> Option<usize> {
        let t = self.toks;
        // An expression closure ends its own temporaries.
        let closure = (s..k)
            .filter_map(|c| self.closure_body(c))
            .filter(|&(b, e)| b <= k && k < e)
            .max();
        if let Some((_, e)) = closure {
            return Some(e);
        }
        let h = if self.is(s, "else") { s + 1 } else { s };
        if !matches!(t[h].text.as_str(), "if" | "while" | "match" | "for") {
            return Some(self.walk(k, |i| self.is(i, ";")));
        }
        let open = self.block_open(h)?;
        if !(matches!(t[h].text.as_str(), "match" | "for") || self.is(h + 1, "let")) {
            return Some(open); // a condition's temporaries die before its block
        }
        // A scrutinee's live to the last block of the `match` or `if let … else …` chain.
        let mut close = matching_close(t, open)?;
        while self.is(close + 1, "else") {
            close = matching_close(t, self.block_open(close + 1)?)?;
        }
        Some(close)
    }

    /// First `{` outside parentheses after the keyword at `kw`.
    fn block_open(&self, kw: usize) -> Option<usize> {
        let mut depth = 0;
        (kw + 1..self.b1).find(|&i| {
            match self.toks[i].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                _ => {}
            }
            depth == 0 && self.is(i, "{")
        })
    }

    /// Body range of the closure whose parameter list opens at `c`, when
    /// that body is an expression (a braced body is its own block).
    fn closure_body(&self, c: usize) -> Option<(usize, usize)> {
        let t = self.toks;
        let opener = ["(", ",", "=", "move", "=>", "["].contains(&t[c - 1].text.as_str());
        if !t[c].is_punct("|") || !opener {
            return None;
        }
        let b = (c + 1..self.b1).find(|&i| t[i].is_punct("|"))? + 1;
        if self.is(b, "{") || self.is(b, "->") {
            return None;
        }
        let mut depth = 0;
        let end = (b..self.b1).find(|&i| {
            match t[i].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" if depth > 0 => depth -= 1,
                ")" | "]" | "}" => return true,
                "," | ";" => return depth == 0,
                _ => {}
            }
            false
        })?;
        Some((b, end))
    }

    /// The first argument of the call at `i` when it is a (borrowed) name.
    fn first_arg(&self, i: usize) -> Option<String> {
        let a = (i + 2..self.b1).find(|&a| !self.is(a, "&") && !self.is(a, "mut"))?;
        (self.toks[a].kind == TokKind::Ident).then(|| self.toks[a].text.clone())
    }

    /// Report what runs inside section `n` that should not. A site inside
    /// an earlier (outer) section was reported there.
    fn check_section(&mut self, n: usize) {
        let t = self.toks;
        let sec = &self.sections[n];
        let (start, end, lock) = (sec.start, sec.end, sec.lock.clone());
        let alloc_scope = self.path.starts_with("crates/serving/src/")
            || self.path.ends_with("crates/nn/src/par.rs");
        for i in start..end {
            if !self.own(i) || self.sections[..n].iter().any(|s| s.start <= i && i < s.end) {
                continue;
            }
            let text = t[i].text.as_str();
            let issue = if self.is_acq(i) {
                let inner = self.section(i).map_or_else(String::new, |s| s.lock);
                format!("takes a second lock (`{inner}`)")
            } else if self.method_call(i)
                && (text.starts_with("recv") || (text == "join" && self.is(i + 2, ")")))
            {
                format!("blocks in `.{text}()`")
            } else if matches!(text, "print" | "println" | "eprint" | "eprintln")
                && self.is(i + 1, "!")
            {
                format!("prints with `{text}!`")
            } else if self.method_call(i) {
                let guard = &self.sections[n].guard;
                let own_wait =
                    text.starts_with("wait") && guard.is_some() && self.first_arg(i) == *guard;
                match self.calls.get(&(self.file, i)) {
                    _ if own_wait => continue,
                    Some(Some(c)) => format!(
                        "calls workspace code `{}`",
                        self.graph.index.fns[*c].display()
                    ),
                    Some(None) => format!("calls `.{text}()`, a workspace method name"),
                    None => {
                        if let Some(shape) = alloc_shape(t, i).filter(|_| alloc_scope) {
                            let msg = format!("allocates (`{shape}`) while holding `{lock}`");
                            self.push(i, Severity::Warning, msg);
                        }
                        continue;
                    }
                }
            } else if t[i].kind == TokKind::Ident
                && self.is(i + 1, "(")
                && !(CALL_KEYWORDS.contains(&text) || t[i - 1].is_ident("fn") || text == "drop")
                && !text.starts_with(|c: char| c.is_ascii_uppercase())
            {
                format!("calls `{}`", render(t, self.path_start(i), i + 1))
            } else {
                continue;
            };
            let msg =
                format!("{issue} while holding `{lock}`; move it out of the critical section");
            self.push(i, Severity::Error, msg);
        }
    }

    /// A guard whose lock a condvar waits on must be followed by a
    /// `notify_*` after its last change.
    fn check_notify(&mut self, waited: &BTreeSet<String>) {
        for n in 0..self.sections.len() {
            let sec = &self.sections[n];
            let Some(g) = sec.guard.as_deref().filter(|_| waited.contains(&sec.seg)) else {
                continue;
            };
            let Some(m) = (sec.start..sec.end)
                .rev()
                .find(|&i| self.own(i) && self.changes(i, g))
            else {
                continue;
            };
            let notify = |i: usize| self.is(i, "notify_one") || self.is(i, "notify_all");
            if !(m..self.b1).any(|i| notify(i) && self.method_call(i)) {
                let lock = &sec.lock;
                let msg = format!(
                    "changes `{lock}`, which a condvar waits on, with no `notify_*` after \
                     it, so a parked waiter can miss the change"
                );
                self.push(m, Severity::Warning, msg);
            }
        }
    }

    /// Does token `i` change the state behind guard `g`: an assignment
    /// through it (not a bare `g = …` rebind) or a grow call on it?
    fn changes(&self, i: usize, g: &str) -> bool {
        let t = self.toks;
        let text = t[i].text.as_str();
        if t[i].is_punct("=") {
            if matches!(t[i - 1].text.as_str(), "=" | "<" | ">" | "!") || self.is(i + 1, "=") {
                return false;
            }
            let s = self.stmt_start(i);
            let r = (s..i).find(|&r| !t[r].is_punct("*")).unwrap_or(i);
            // `g = …` (and `g += …`) rebinds the guard; `*g`, `g.f`, `g[i]` write through it.
            return t[r].is_ident(g) && (r > s || i > s + 2);
        }
        let grow = text.starts_with("push") || matches!(text, "insert" | "extend" | "append");
        grow && self.method_call(i) && t[self.path_start(i - 2)].is_ident(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::{load_workspace, run_passes, AnalyzedFile};
    use crate::source::SourceFile;
    use std::path::Path;

    fn run_on(files: &[(&str, &str)]) -> Vec<Finding> {
        run_passes(&Context::of(files), &[Box::new(Locks)])
    }

    fn serving(src: &str) -> Vec<Finding> {
        run_on(&[("crates/serving/src/server.rs", src)])
    }

    /// The findings whose message contains `needle`.
    fn with<'a>(f: &'a [Finding], needle: &str) -> Vec<&'a Finding> {
        f.iter().filter(|x| x.message.contains(needle)).collect()
    }

    #[test]
    fn a_cycle_is_a_nesting_error_in_each_fn() {
        let f = serving(
            "pub struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
             impl S {\n\
                 pub fn one(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
                 pub fn two(&self) { let h = self.b.lock(); let g = self.a.lock(); }\n\
             }\n",
        );
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f
            .iter()
            .all(|x| x.rule == "A7" && x.severity == Severity::Error));
        assert!(f[0]
            .message
            .contains("`serving::S::one` takes a second lock (`self.b`)"));
        assert!(f[1].message.contains("while holding `self.b`"));
    }

    #[test]
    fn consistent_nesting_is_now_a_finding() {
        // One fixed acquisition order still holds two locks together,
        // which the rule does not allow.
        let f = serving(
            "pub struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
             impl S {\n\
                 pub fn one(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
                 pub fn two(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
             }\n",
        );
        assert_eq!(with(&f, "takes a second lock").len(), 2, "{f:?}");
    }

    #[test]
    fn cycles_through_calls_and_reentrancy_are_flagged_at_the_call() {
        let f = serving(
            "pub struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
             impl S {\n\
                 pub fn one(&self) { let g = self.a.lock(); self.take_b(); }\n\
                 pub fn take_b(&self) { let h = self.b.lock(); }\n\
                 pub fn outer(&self) { let g = self.a.lock(); self.inner(); }\n\
                 pub fn inner(&self) { let g = self.a.lock(); }\n\
             }\n",
        );
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0]
            .message
            .contains("calls workspace code `serving::S::take_b`"));
        assert!(f[1]
            .message
            .contains("calls workspace code `serving::S::inner`"));
    }

    #[test]
    fn recv_under_a_lock_is_an_error_anywhere_and_the_fixed_form_is_clean() {
        for path in ["crates/serving/src/server.rs", "crates/ml/src/x.rs"] {
            let f = run_on(&[(
                path,
                "pub struct S { state: Mutex<u8> }\n\
                 impl S {\n\
                     pub fn drain(&self, rx: &Receiver) {\n\
                         let g = self.state.lock();\n\
                         let item = rx.recv();\n\
                     }\n\
                 }\n",
            )]);
            assert_eq!(f.len(), 1, "{f:?}");
            assert!(f[0]
                .message
                .contains("blocks in `.recv()` while holding `self.state`"));
        }
        let fixed = serving(
            "pub struct S { state: Mutex<u8> }\n\
             impl S {\n\
                 pub fn drain(&self, rx: &Receiver) {\n\
                     let item = rx.recv();\n\
                     let g = self.state.lock();\n\
                 }\n\
             }\n",
        );
        assert!(fixed.is_empty(), "{fixed:?}");
    }

    #[test]
    fn blocking_in_a_callee_is_flagged_at_the_call() {
        let f = serving(
            "pub struct S { state: Mutex<u8> }\n\
             impl S {\n\
                 pub fn submit(&self) {\n\
                     let g = self.state.lock();\n\
                     self.log();\n\
                 }\n\
                 fn log(&self) { println!(\"depth\"); }\n\
             }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 5);
        assert!(f[0]
            .message
            .contains("calls workspace code `serving::S::log`"));
    }

    #[test]
    fn a_wait_holding_a_foreign_lock_is_an_error_its_own_mutex_is_fine() {
        let park = "let mut state = self.state.lock();\n\
                    while *state == 0 { state = self.work.wait(state); }\n";
        let ok = serving(&format!(
            "pub struct S {{ state: Mutex<u8>, work: Condvar }}\n\
             impl S {{ pub fn park(&self) {{ {park} }} }}\n"
        ));
        assert!(ok.is_empty(), "{ok:?}");
        let bad = serving(&format!(
            "pub struct S {{ state: Mutex<u8>, other: Mutex<u8>, work: Condvar }}\n\
             impl S {{ pub fn park(&self) {{ let extra = self.other.lock();\n{park} }} }}\n"
        ));
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0]
            .message
            .contains("takes a second lock (`self.state`) while holding `self.other`"));
    }

    #[test]
    fn join_sleep_and_alloc_under_a_lock_are_flagged() {
        let src = "pub struct S { state: Mutex<u8> }\n\
                   impl S {\n\
                       pub fn f(&self, pool: WorkerPool) {\n\
                           let g = self.state.lock();\n\
                           pool.join();\n\
                           thread::sleep(dur);\n\
                           let v = names.to_vec();\n\
                       }\n\
                   }\n";
        let f = run_on(&[("crates/nn/src/par.rs", src)]);
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f[0].message.contains("blocks in `.join()`"));
        assert!(f[1].message.contains("calls `thread::sleep`"));
        assert!(f[2].message.contains("allocates (`.to_vec()`)"));
        assert_eq!(f[2].severity, Severity::Warning);
        // The allocation Warning is scoped to serving and `nn::par`; the
        // Errors apply everywhere.
        let elsewhere = run_on(&[("crates/ml/src/x.rs", src)]);
        assert_eq!(elsewhere.len(), 2, "{elsewhere:?}");
    }

    #[test]
    fn an_if_guarded_wait_is_an_error_and_a_while_loop_is_clean() {
        let park = |guard: &str| {
            serving(&format!(
                "pub struct S {{ state: Mutex<u8>, work: Condvar }}\n\
                 impl S {{\n\
                     pub fn park(&self) {{\n\
                         loop {{\n\
                             let mut state = self.state.lock();\n\
                             {guard} *state == 0 {{ state = self.work.wait(state); }}\n\
                             if *state == 9 {{ return; }}\n\
                         }}\n\
                     }}\n\
                 }}\n"
            ))
        };
        // The outer `loop` opened before the acquisition does not count.
        let bad = park("if");
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert_eq!(bad[0].severity, Severity::Error);
        assert!(bad[0]
            .message
            .contains("calls `wait` outside a `while`/`loop` opened under `self.state`"));
        assert!(park("while").is_empty());
    }

    #[test]
    fn a_wait_without_a_live_guard_is_ambiguous() {
        let f = serving(
            "pub struct S { work: Condvar }\n\
             impl S { pub fn park(&self, g: G) { loop { self.work.wait(g); } } }\n\
             pub fn redeem(t: Ticket) { t.wait(); }\n",
        );
        assert_eq!(f.len(), 1, "a zero-argument wait is no condvar wait: {f:?}");
        assert_eq!(f[0].severity, Severity::Warning);
        assert!(f[0].message.contains("waits (`wait`) without a live guard"));
    }

    const PARK: &str = "pub fn park(s: &S) {\n\
                            let mut state = s.state.lock();\n\
                            while state.queue.is_empty() { state = s.work.wait(state); }\n\
                            let job = state.queue.pop_front();\n\
                        }\n";

    #[test]
    fn a_change_without_notify_is_a_warning_and_with_notify_is_clean() {
        let submit = |tail: &str| {
            serving(&format!(
                "pub struct S {{ state: Mutex<Q>, work: Condvar }}\n{PARK}\
                 pub fn submit(s: &S) {{\n\
                     let mut state = s.state.lock();\n\
                     state.pending += 1;\n\
                     {tail}\n\
                 }}\n"
            ))
        };
        let bad = submit("");
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert_eq!(bad[0].severity, Severity::Warning);
        assert!(bad[0]
            .message
            .contains("`serving::submit` changes `s.state`"));
        assert!(submit("drop(state); s.work.notify_one();").is_empty());
    }

    #[test]
    fn rebinds_and_shrinking_calls_are_not_changes_grow_calls_are() {
        let park = serving(&format!(
            "pub struct S {{ state: Mutex<Q>, work: Condvar }}\n{PARK}"
        ));
        assert!(park.is_empty(), "{park:?}");
        let grow = serving(&format!(
            "pub struct S {{ state: Mutex<Q>, work: Condvar }}\n{PARK}\
             pub fn submit(s: &S) {{\n\
                 let mut state = s.state.lock();\n\
                 state.queue.push_back(1);\n\
             }}\n"
        ));
        assert_eq!(with(&grow, "no `notify_*`").len(), 1, "{grow:?}");
    }

    #[test]
    fn a_guard_dies_at_its_block_end_a_drop_or_a_rebind() {
        let f = serving(
            "pub struct S { a: Mutex<u8> }\n\
             impl S {\n\
                 pub fn scoped(&self) { { let g = self.a.lock(); touch(); } after(); }\n\
                 pub fn dropped(&self) { let g = self.a.lock(); drop(g); after(); }\n\
                 pub fn rebound(&self) { let g = self.a.lock(); let g = 0; after(); }\n\
             }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`serving::S::scoped` calls `touch`"));
    }

    #[test]
    fn a_branch_local_drop_does_not_end_the_outer_guard() {
        let f = serving(
            "pub struct S { a: Mutex<u8> }\n\
             impl S {\n\
                 pub fn f(&self, bail: bool) {\n\
                     let g = self.a.lock();\n\
                     if bail { drop(g); return; }\n\
                     still_held();\n\
                 }\n\
             }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("calls `still_held`"));
    }

    #[test]
    fn a_temporary_guard_dies_with_its_statement() {
        let f = run_on(&[(
            "crates/core/src/features/mod.rs",
            "pub fn store(slots: &[Mutex<u8>], m: &Mutex<Map>) -> u8 {\n\
                 *slots[0].lock() = 1;\n\
                 after();\n\
                 if let Some(v) = m.lock().get(&1) { return v.clone(); }\n\
                 after();\n\
                 if m.lock().is_empty() { after(); }\n\
                 match m.lock().get(&2) { Some(v) => *v, None => fill() }\n\
             }\n",
        )]);
        // Only the `match` keeps its scrutinee's guard through its arms.
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("calls `fill` while holding `m`"));
    }

    #[test]
    fn loop_heads_and_else_if_let_keep_their_temporaries_to_the_last_block() {
        let f = run_on(&[(
            "crates/core/src/features/mod.rs",
            "pub fn walk(m: &Mutex<Vec<u8>>, q: &Mutex<Queue>) {\n\
                 for x in m.lock().iter() { visit(x); }\n\
                 while let Some(j) = q.lock().pop() { run(j); }\n\
                 while q.lock().is_busy() { idle(); }\n\
                 if ready() { first(); } else if let Some(v) = m.lock().first() { use_it(v); } else { last(); }\n\
                 after();\n\
             }\n",
        )]);
        let calls: Vec<&str> = ["visit", "run", "use_it", "last"]
            .into_iter()
            .filter(|c| {
                f.iter()
                    .any(|x| x.message.contains(&format!("calls `{c}`")))
            })
            .collect();
        assert_eq!(calls, ["visit", "run", "use_it", "last"], "{f:?}");
        // `is_busy` names no workspace method; `idle`, `first` and `after`
        // run with no lock held.
        assert_eq!(f.len(), 4, "{f:?}");
    }

    #[test]
    fn a_closure_ends_its_own_temporaries_and_a_cloned_value_is_no_guard() {
        // Outside the allocation scope: the clone runs under the lock, but
        // the lock is gone by `report(v)`.
        let f = run_on(&[(
            "crates/bench/src/bin/retina_serve.rs",
            "fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> { m.lock().unwrap() }\n\
             pub fn start(replicas: &[Mutex<Option<u8>>], i: usize, lat: &Mutex<Vec<u64>>) {\n\
                 if let Some(model) = replicas.get(i).map(|m| lock(m).take()).unwrap_or(None) {\n\
                     worker(model);\n\
                 }\n\
                 let v = lat.lock().unwrap().clone();\n\
                 report(v);\n\
             }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn guard_returning_wrappers_acquire_for_the_caller() {
        let f = serving(
            "pub struct Shared { state: Mutex<u8> }\n\
             pub struct Server { shared: Arc<Shared> }\n\
             fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> { m.lock().unwrap() }\n\
             impl Server {\n\
                 pub fn submit(&self) { let state = lock(&self.shared.state); use_it(); }\n\
             }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0]
            .message
            .contains("calls `use_it` while holding `self.shared.state`"));
    }

    /// One lock bug planted into a real file: the exact source `lines`
    /// it replaces (with their indentation), the code put in their place,
    /// and a fragment of the finding it must raise in that file.
    struct Plant {
        id: &'static str,
        path: &'static str,
        lines: &'static [&'static str],
        with: &'static str,
        expect: &'static str,
    }

    const SERVER: &str = "crates/serving/src/server.rs";

    const PLANTS: [Plant; 10] = [
        Plant {
            id: "B1",
            path: SERVER,
            lines: &[
                "        let mut state = lock(&self.shared.state);",
                "        state.shutting_down = true;",
                "        drop(state);",
            ],
            with: "match lock(&self.shared.state).shutting_down { true => {}
                   false => lock(&self.shared.state).shutting_down = true }",
            expect: "takes a second lock (`self.shared.state`)",
        },
        Plant {
            id: "B2",
            path: SERVER,
            lines: &["        if state.pending.len() >= self.shared.queue_capacity {"],
            with: "if self.queue_depth() >= self.shared.queue_capacity {",
            expect: "calls workspace code `serving::PredictionServer::queue_depth`",
        },
        Plant {
            id: "B3",
            path: SERVER,
            lines: &[
                "            loop {",
                "                if let Some(job) = state.pending.pop_front() {",
                "                    break job;",
                "                }",
                "                if state.shutting_down {",
                "                    return;",
                "                }",
                "                state = shared.work.wait(state).unwrap_or_else(|e| e.into_inner());",
                "            }",
            ],
            with: "if state.pending.is_empty() && !state.shutting_down {
                   state = shared.work.wait(state).unwrap_or_else(|e| e.into_inner()); }
                   match state.pending.pop_front() { Some(job) => job, None => return }",
            expect: "outside a `while`/`loop`",
        },
        Plant {
            id: "B4",
            path: SERVER,
            lines: &["        self.shared.work.notify_one();"],
            with: "",
            expect: "`serving::PredictionServer::submit` changes `self.shared.state`",
        },
        Plant {
            id: "B5",
            path: SERVER,
            lines: &[
                "        let (answer_tx, answer) = mpsc::sync_channel(1);",
                "        let mut state = lock(&self.shared.state);",
            ],
            with: "let mut state = lock(&self.shared.state);
                   let (answer_tx, answer) = mpsc::sync_channel(1);",
            expect: "calls `mpsc::sync_channel`",
        },
        Plant {
            id: "B6",
            path: SERVER,
            lines: &["                    break job;"],
            with: "model.predict_proba(&job.0.sample); break job;",
            expect: "calls `.predict_proba()`, a workspace method name",
        },
        Plant {
            id: "B7",
            path: SERVER,
            lines: &["            let mut state = lock(&shared.state);"],
            with: "let mut state = lock(&shared.state);
                   std::thread::sleep(std::time::Duration::from_micros(1));",
            expect: "calls `std::thread::sleep`",
        },
        Plant {
            id: "B8",
            path: SERVER,
            lines: &["        self.shared.work.notify_all();"],
            with: "",
            expect: "`serving::PredictionServer::initiate_shutdown` changes `self.shared.state`",
        },
        Plant {
            id: "B9",
            path: "crates/nn/src/par.rs",
            lines: &[
                "            let r = f(i);",
                "            *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(r);",
            ],
            with: "let mut g = slot.lock().unwrap_or_else(PoisonError::into_inner);
                   *g = Some(f(i));",
            expect: "`nn::map_indexed_dynamic` calls `f` while holding `slot`",
        },
        Plant {
            id: "B10",
            path: SERVER,
            lines: &["        state.pending.push_back((request, answer_tx));"],
            with: "state.pending.push_back((request, answer_tx)); println!(\"queued\");",
            expect: "prints with `println!`",
        },
    ];

    #[test]
    fn the_real_tree_is_clean_and_every_planted_bug_is_caught() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root");
        let base = load_workspace(root).expect("workspace loads").files;
        let lock_findings = |files: Vec<AnalyzedFile>| {
            run_passes(&Context::new(files), &[Box::new(Locks)])
                .into_iter()
                .filter(|f| f.rule == "A7")
                .collect::<Vec<_>>()
        };
        let clean = lock_findings(base.clone());
        assert!(
            clean.is_empty(),
            "lock findings on the real tree: {clean:#?}"
        );
        for Plant {
            id,
            path,
            lines,
            with,
            expect,
        } in PLANTS
        {
            let raw = std::fs::read_to_string(root.join(path)).expect("plant target exists");
            let from = lines.join("\n") + "\n";
            assert_eq!(
                raw.matches(&from).count(),
                1,
                "{id}: the plant no longer matches {path} exactly once; update it to the code"
            );
            let mut files = base.clone();
            let file = files
                .iter_mut()
                .find(|f| f.source.path == path)
                .expect("plant target is analyzed");
            let planted = raw.replacen(&from, &format!("{with}\n"), 1);
            *file = AnalyzedFile::new(SourceFile::parse(path, &planted));
            let found = lock_findings(files);
            assert!(
                found
                    .iter()
                    .any(|f| f.path == path && f.message.contains(expect)),
                "{id} not caught (want `{expect}`): {found:#?}"
            );
        }
    }
}
