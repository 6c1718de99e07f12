//! Best-effort syntactic call graph over the [`crate::items`] index.
//!
//! Resolution strategy (in order, per call site):
//!
//! 1. `Type::method(...)` / `Self::method(...)` — owner-qualified; falls
//!    back to trait default methods via the `impl Trait for Type`
//!    relations, then to a free fn whose defining file stem matches the
//!    qualifier (`par::map_indexed` → `crates/nn/src/par.rs`).
//! 2. `self.method(...)` — the enclosing impl type, with the same trait
//!    fallback.
//! 3. `self.field.method(...)` — the field's declared base type
//!    (`Option`/`Box` wrappers looked through).
//! 4. `local.method(...)` — `let local: Type` / `let local = Type::...`
//!    hints collected per body.
//! 5. Any other `recv.method(...)` — resolved only when the method name
//!    is unique across the whole index and not a ubiquitous std method
//!    name ([`STD_METHODS`]); multiple candidates are recorded as an
//!    explicit unresolved edge, zero candidates are treated as
//!    std/external and skipped.
//! 6. Bare `name(...)` — same-file free fn, then same-crate, then
//!    workspace-unique.
//!
//! Non-std macro invocations are recorded as unresolved (their expansion
//! is not indexed), never silently dropped. Known blind spots: calls
//! through closure parameters and `dyn`/generic dispatch resolve to the
//! trait item (or not at all), and re-exported names are resolved by
//! their definition site only.

use crate::items::{self, FnItem, ItemIndex};
use crate::lexer::{TokKind, Token};
use crate::passes::Context;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A resolved call edge.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Index of the calling fn in [`ItemIndex::fns`].
    pub caller: usize,
    /// Index of the callee.
    pub callee: usize,
    /// 1-based line of the call site.
    pub line: usize,
    /// Token index of the callee name at the call site (in the caller's
    /// file token stream).
    pub site: usize,
}

/// A call we could not resolve — recorded, never silently dropped.
#[derive(Debug, Clone)]
pub struct Unresolved {
    pub caller: usize,
    pub name: String,
    pub line: usize,
    pub reason: String,
}

/// The workspace call graph.
pub struct CallGraph {
    pub index: ItemIndex,
    pub edges: Vec<Edge>,
    pub unresolved: Vec<Unresolved>,
    adj: Vec<Vec<usize>>,
}

/// Macros whose expansion cannot call workspace code in a way the
/// passes care about (std formatting/assertion/collection macros).
const STD_MACROS: [&str; 18] = [
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "eprint",
    "eprintln",
    "format",
    "matches",
    "panic",
    "print",
    "println",
    "todo",
    "unimplemented",
    "unreachable",
    "vec",
    "write",
];

/// Keywords that look like `name(...)` but are not calls.
const CALL_KEYWORDS: [&str; 8] = ["if", "while", "for", "match", "return", "fn", "move", "in"];

/// Method names so common on std types that an unhinted receiver must
/// never resolve to a workspace item through the unique-name fallback
/// (`AtomicUsize::load` is not `Baseline::load`). Hinted receivers
/// (`self.`, typed locals, fields) bypass this list.
const STD_METHODS: [&str; 44] = [
    "abs",
    "clear",
    "clone",
    "collect",
    "contains",
    "count",
    "drain",
    "exp",
    "extend",
    "fill",
    "find",
    "first",
    "flush",
    "get",
    "insert",
    "iter",
    "join",
    "last",
    "len",
    "load",
    "lock",
    "map",
    "max",
    "min",
    "next",
    "notify_all",
    "notify_one",
    "parse",
    "pop",
    "position",
    "push",
    "read",
    "recv",
    "remove",
    "replace",
    "set",
    "spawn",
    "sqrt",
    "store",
    "swap",
    "take",
    "wait",
    "wait_timeout",
    "write",
];

impl CallGraph {
    /// Build the graph for every fn body in the context.
    pub fn build(ctx: &Context) -> CallGraph {
        let index = items::index(ctx);
        let mut g = CallGraph {
            adj: vec![Vec::new(); index.fns.len()],
            index,
            edges: Vec::new(),
            unresolved: Vec::new(),
        };
        let method_map = g.method_map();
        let free_by_name = g.free_by_name();
        for caller in 0..g.index.fns.len() {
            g.scan_body(ctx, caller, &method_map, &free_by_name);
        }
        for e in &g.edges {
            g.adj[e.caller].push(e.callee);
        }
        for a in &mut g.adj {
            a.sort_unstable();
            a.dedup();
        }
        g
    }

    /// `(owner, name) -> fn ids`.
    fn method_map(&self) -> BTreeMap<(String, String), Vec<usize>> {
        let mut m: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (i, f) in self.index.fns.iter().enumerate() {
            if let Some(o) = &f.owner {
                m.entry((o.clone(), f.name.clone())).or_default().push(i);
            }
        }
        m
    }

    /// `name -> free fn ids`.
    fn free_by_name(&self) -> BTreeMap<String, Vec<usize>> {
        let mut m: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in self.index.fns.iter().enumerate() {
            if f.owner.is_none() {
                m.entry(f.name.clone()).or_default().push(i);
            }
        }
        m
    }

    /// All method ids (any owner) with this name.
    fn methods_named(&self, name: &str) -> Vec<usize> {
        self.index
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.owner.is_some() && f.name == name)
            .map(|(i, _)| i)
            .collect()
    }

    /// Token ranges of fns nested inside `item`'s body (same file);
    /// their calls belong to the nested fn, not to `item`.
    fn nested_ranges(&self, item_id: usize) -> Vec<(usize, usize)> {
        let item = &self.index.fns[item_id];
        let Some((b0, b1)) = item.body else {
            return Vec::new();
        };
        self.index
            .fns
            .iter()
            .enumerate()
            .filter(|&(i, f)| i != item_id && f.file == item.file)
            .filter_map(|(_, f)| f.body)
            .filter(|&(n0, n1)| n0 > b0 && n1 < b1)
            .collect()
    }

    fn scan_body(
        &mut self,
        ctx: &Context,
        caller: usize,
        method_map: &BTreeMap<(String, String), Vec<usize>>,
        free_by_name: &BTreeMap<String, Vec<usize>>,
    ) {
        let item = self.index.fns[caller].clone();
        let Some((b0, b1)) = item.body else {
            return;
        };
        let toks = &ctx.files[item.file].tokens;
        let nested = self.nested_ranges(caller);
        let hints = local_hints(toks, b0, b1, &self.index.owners);
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
            // Macro invocation: `name!(...)` / `name![...]` / `name!{...}`.
            if toks.get(k + 1).is_some_and(|n| n.is_punct("!"))
                && toks
                    .get(k + 2)
                    .is_some_and(|n| matches!(n.text.as_str(), "(" | "[" | "{"))
            {
                if !STD_MACROS.contains(&t.text.as_str()) {
                    self.unresolved.push(Unresolved {
                        caller,
                        name: format!("{}!", t.text),
                        line: t.line,
                        reason: "macro invocation (expansion not indexed)".into(),
                    });
                }
                k += 2;
                continue;
            }
            let is_call = toks.get(k + 1).is_some_and(|n| n.is_punct("("))
                && !CALL_KEYWORDS.contains(&t.text.as_str())
                && !(k > 0 && toks[k - 1].is_ident("fn"));
            if !is_call {
                k += 1;
                continue;
            }
            let name = t.text.clone();
            let line = t.line;
            let prev = k.checked_sub(1).map(|i| toks[i].text.as_str());
            let resolution = if prev == Some("::") {
                self.resolve_qualified(&item, toks, k, &name, method_map, free_by_name)
            } else if prev == Some(".") {
                self.resolve_method(&item, toks, k, &name, &hints, method_map)
            } else {
                self.resolve_bare(&item, &name, &hints, free_by_name)
            };
            match resolution {
                Res::Edge(callee) => self.edges.push(Edge {
                    caller,
                    callee,
                    line,
                    site: k,
                }),
                Res::Unresolved(reason) => self.unresolved.push(Unresolved {
                    caller,
                    name,
                    line,
                    reason,
                }),
                Res::External => {}
            }
            k += 1;
        }
    }

    /// `qual::name(...)` — `qual` is at `k - 2`.
    fn resolve_qualified(
        &self,
        item: &FnItem,
        toks: &[Token],
        k: usize,
        name: &str,
        method_map: &BTreeMap<(String, String), Vec<usize>>,
        free_by_name: &BTreeMap<String, Vec<usize>>,
    ) -> Res {
        let qual = match k.checked_sub(2).map(|i| &toks[i]) {
            Some(q) if q.kind == TokKind::Ident => q.text.clone(),
            _ => return Res::External, // `<T as Trait>::f(...)` etc.
        };
        let qual = if qual == "Self" {
            match &item.owner {
                Some(o) => o.clone(),
                None => return Res::External,
            }
        } else {
            qual
        };
        if let Some(r) = self.owner_lookup(&qual, name, method_map) {
            return r;
        }
        if self.index.owners.contains(&qual) {
            // A known type without this method: derive/std-trait call
            // (`Matrix::clone`, `RetinaConfig::default`). External.
            return Res::External;
        }
        // Module-qualified free fn: prefer a file whose stem matches the
        // qualifier, then same-crate, then workspace-unique.
        let Some(cands) = free_by_name.get(name) else {
            return Res::External;
        };
        let stem_match: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| {
                self.index.fns[i].path.ends_with(&format!("/{qual}.rs"))
                    || self.index.fns[i].path.ends_with(&format!("/{qual}/mod.rs"))
            })
            .collect();
        match stem_match.as_slice() {
            [one] => return Res::Edge(*one),
            [_, ..] => return self.ambiguous(name, &stem_match),
            [] => {}
        }
        self.pick_free(item, name, cands)
    }

    /// `recv.name(...)` — `recv` tokens end at `k - 2`.
    fn resolve_method(
        &self,
        item: &FnItem,
        toks: &[Token],
        k: usize,
        name: &str,
        hints: &BTreeMap<String, String>,
        method_map: &BTreeMap<(String, String), Vec<usize>>,
    ) -> Res {
        if let Some(recv) = k.checked_sub(2).map(|i| &toks[i]) {
            if recv.is_ident("self") {
                if let Some(owner) = &item.owner {
                    if let Some(r) = self.owner_lookup(owner, name, method_map) {
                        return r;
                    }
                }
            } else if recv.kind == TokKind::Ident {
                // `self.field.name(...)`?
                let via_field = k >= 4 && toks[k - 3].is_punct(".") && toks[k - 4].is_ident("self");
                if via_field {
                    if let Some(owner) = &item.owner {
                        if let Some(fty) =
                            self.index.fields.get(&(owner.clone(), recv.text.clone()))
                        {
                            if let Some(r) = self.owner_lookup(fty, name, method_map) {
                                return r;
                            }
                            return Res::External;
                        }
                    }
                } else if !(k >= 3 && toks[k - 3].is_punct(".")) {
                    // Simple local receiver with a type hint.
                    if let Some(ty) = hints.get(&recv.text) {
                        if let Some(r) = self.owner_lookup(ty, name, method_map) {
                            return r;
                        }
                        return Res::External;
                    }
                }
            }
        }
        // Unique-name fallback across the whole index — except for
        // names ubiquitous on std types, where an unhinted receiver is
        // far more likely std than the one workspace method.
        if STD_METHODS.contains(&name) {
            return Res::External;
        }
        let cands = self.methods_named(name);
        match cands.as_slice() {
            [] => Res::External,
            [one] => Res::Edge(*one),
            _ => self.ambiguous(name, &cands),
        }
    }

    /// Bare `name(...)`.
    fn resolve_bare(
        &self,
        item: &FnItem,
        name: &str,
        hints: &BTreeMap<String, String>,
        free_by_name: &BTreeMap<String, Vec<usize>>,
    ) -> Res {
        if hints.contains_key(name) {
            // A local binding used as a callable: closure call, opaque.
            return Res::External;
        }
        let Some(cands) = free_by_name.get(name) else {
            return Res::External;
        };
        self.pick_free(item, name, cands)
    }

    /// Same-file, then same-crate, then workspace-unique free fn.
    fn pick_free(&self, item: &FnItem, name: &str, cands: &[usize]) -> Res {
        let same_file: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| self.index.fns[i].file == item.file)
            .collect();
        if let [one] = same_file.as_slice() {
            return Res::Edge(*one);
        }
        let same_crate: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| self.index.fns[i].crate_name == item.crate_name)
            .collect();
        if let [one] = same_crate.as_slice() {
            return Res::Edge(*one);
        }
        match cands {
            [] => Res::External,
            [one] => Res::Edge(*one),
            _ => self.ambiguous(name, cands),
        }
    }

    /// Owner method lookup with trait-default fallback. `None` means
    /// "owner known but method not found here" — caller decides.
    fn owner_lookup(
        &self,
        owner: &str,
        name: &str,
        method_map: &BTreeMap<(String, String), Vec<usize>>,
    ) -> Option<Res> {
        if let Some(ids) = method_map.get(&(owner.to_string(), name.to_string())) {
            return Some(match ids.as_slice() {
                [one] => Res::Edge(*one),
                _ => self.ambiguous(name, ids),
            });
        }
        for tr in self.index.traits_of(owner) {
            if let Some(ids) = method_map.get(&(tr.to_string(), name.to_string())) {
                // Prefer an item with a body (default method) over a
                // bare declaration.
                let pick = ids
                    .iter()
                    .copied()
                    .find(|&i| self.index.fns[i].body.is_some())
                    .or_else(|| ids.first().copied());
                if let Some(i) = pick {
                    return Some(Res::Edge(i));
                }
            }
        }
        None
    }

    fn ambiguous(&self, name: &str, cands: &[usize]) -> Res {
        let mut owners: Vec<String> = cands
            .iter()
            .take(4)
            .map(|&i| self.index.fns[i].display())
            .collect();
        owners.sort();
        Res::Unresolved(format!(
            "ambiguous: {} candidate(s) named `{name}` ({}{})",
            cands.len(),
            owners.join(", "),
            if cands.len() > 4 { ", …" } else { "" }
        ))
    }

    /// The hot-path root set (ISSUE 5): RETINA forward/backward, the
    /// trainer, every public `nn::par` entry point, the layer step
    /// functions, and the classifier predict surface.
    pub fn hot_roots(&self) -> Vec<usize> {
        let mut roots = BTreeSet::new();
        for (i, f) in self.index.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            let owner = f.owner.as_deref();
            let hot = match owner {
                Some("Retina") => matches!(f.name.as_str(), "forward" | "backward"),
                Some("Trainer") => f.name == "fit",
                Some("Gru")
                | Some("Lstm")
                | Some("SimpleRnn")
                | Some("Dense")
                | Some("ExogenousAttention") => {
                    matches!(
                        f.name.as_str(),
                        "forward" | "backward" | "forward_inference"
                    )
                }
                _ => false,
            };
            let hot = hot
                || (f.owner.is_none() && f.crate_name == "core" && f.name == "train_retina")
                || (f.owner.is_none() && f.is_pub && f.path.ends_with("crates/nn/src/par.rs"))
                || (f.owner.is_some()
                    && matches!(f.crate_name.as_str(), "ml" | "core")
                    && f.name.starts_with("predict"));
            if hot {
                roots.insert(i);
            }
        }
        roots.into_iter().collect()
    }

    /// BFS from `roots`: fn id → shortest call chain (root first, the fn
    /// itself last). Deterministic: roots and adjacency are processed in
    /// sorted order, so ties always break the same way.
    pub fn reachable(&self, roots: &[usize]) -> BTreeMap<usize, Vec<usize>> {
        let mut parent: BTreeMap<usize, Option<usize>> = BTreeMap::new();
        let mut queue = VecDeque::new();
        let mut sorted_roots: Vec<usize> = roots.to_vec();
        sorted_roots.sort_unstable();
        for &r in &sorted_roots {
            if !parent.contains_key(&r) {
                parent.insert(r, None);
                queue.push_back(r);
            }
        }
        while let Some(u) = queue.pop_front() {
            for &v in &self.adj[u] {
                if !parent.contains_key(&v) {
                    parent.insert(v, Some(u));
                    queue.push_back(v);
                }
            }
        }
        let mut out = BTreeMap::new();
        for (&f, _) in &parent {
            let mut chain = vec![f];
            let mut cur = f;
            while let Some(Some(p)) = parent.get(&cur) {
                chain.push(*p);
                cur = *p;
            }
            chain.reverse();
            out.insert(f, chain);
        }
        out
    }

    /// Render a chain as `a → b → c` of display names.
    pub fn chain_display(&self, chain: &[usize]) -> String {
        chain
            .iter()
            .map(|&i| self.index.fns[i].display())
            .collect::<Vec<_>>()
            .join(" → ")
    }
}

enum Res {
    Edge(usize),
    Unresolved(String),
    External,
}

/// `let [mut] x: Type` and `let [mut] x = Type::...` hints in a body.
/// Last write wins, matching lexical shadowing closely enough for
/// straight-line bodies.
fn local_hints(
    toks: &[Token],
    b0: usize,
    b1: usize,
    owners: &BTreeSet<String>,
) -> BTreeMap<String, String> {
    let mut hints = BTreeMap::new();
    let mut k = b0;
    while k < b1 {
        if !toks[k].is_ident("let") {
            k += 1;
            continue;
        }
        let mut n = k + 1;
        if toks.get(n).is_some_and(|t| t.is_ident("mut")) {
            n += 1;
        }
        let Some(name_tok) = toks.get(n) else {
            break;
        };
        if name_tok.kind != TokKind::Ident {
            k += 1;
            continue;
        }
        let name = name_tok.text.clone();
        match toks.get(n + 1).map(|t| t.text.as_str()) {
            Some(":") => {
                // Type ascription up to `=` or `;` at depth 0.
                let mut e = n + 2;
                let mut depth = 0i32;
                while e < b1 {
                    match toks[e].text.as_str() {
                        "(" | "[" | "<" => depth += 1,
                        ")" | "]" | ">" => depth -= 1,
                        "=" | ";" if depth <= 0 => break,
                        _ => {}
                    }
                    e += 1;
                }
                if let Some(base) = items::base_type(toks, n + 2, e) {
                    if owners.contains(&base) {
                        hints.insert(name, base);
                    }
                }
            }
            Some("=") => {
                if let (Some(ty), Some(sep)) = (toks.get(n + 2), toks.get(n + 3)) {
                    if ty.kind == TokKind::Ident && sep.is_punct("::") && owners.contains(&ty.text)
                    {
                        hints.insert(name, ty.text.clone());
                    }
                }
            }
            _ => {}
        }
        k = n + 1;
    }
    hints
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::passes::AnalyzedFile;
    use crate::source::SourceFile;

    fn ctx_of(files: &[(&str, &str)]) -> Context {
        Context {
            files: files
                .iter()
                .map(|(p, s)| {
                    let source = SourceFile::parse(p, s);
                    let tokens = lex(&source);
                    AnalyzedFile { source, tokens }
                })
                .collect(),
        }
    }

    fn id(g: &CallGraph, owner: Option<&str>, name: &str) -> usize {
        g.index
            .fns
            .iter()
            .position(|f| f.owner.as_deref() == owner && f.name == name)
            .unwrap_or_else(|| panic!("missing {owner:?}::{name}"))
    }

    fn has_edge(g: &CallGraph, a: usize, b: usize) -> bool {
        g.edges.iter().any(|e| e.caller == a && e.callee == b)
    }

    #[test]
    fn qualified_self_and_field_calls_resolve() {
        let g = CallGraph::build(&ctx_of(&[(
            "crates/nn/src/x.rs",
            "pub struct Dense { w: Matrix }\n\
             pub struct Matrix;\n\
             impl Matrix { pub fn rows(&self) -> usize { 0 } }\n\
             impl Dense {\n\
                 fn helper(&self) {}\n\
                 pub fn forward(&mut self) -> usize {\n\
                     self.helper();\n\
                     Self::statik();\n\
                     self.w.rows()\n\
                 }\n\
                 fn statik() {}\n\
             }\n",
        )]));
        let fwd = id(&g, Some("Dense"), "forward");
        assert!(has_edge(&g, fwd, id(&g, Some("Dense"), "helper")));
        assert!(has_edge(&g, fwd, id(&g, Some("Dense"), "statik")));
        assert!(has_edge(&g, fwd, id(&g, Some("Matrix"), "rows")));
    }

    #[test]
    fn module_qualified_free_fn_prefers_file_stem() {
        let g = CallGraph::build(&ctx_of(&[
            (
                "crates/nn/src/par.rs",
                "pub fn map_indexed(n: usize) -> usize { n }\n",
            ),
            (
                "crates/core/src/retina.rs",
                "pub fn pack(n: usize) -> usize { par::map_indexed(n) }\n",
            ),
        ]));
        assert!(has_edge(
            &g,
            id(&g, None, "pack"),
            id(&g, None, "map_indexed")
        ));
    }

    #[test]
    fn shadowed_method_names_resolve_via_hints_or_go_unresolved() {
        let g = CallGraph::build(&ctx_of(&[(
            "crates/nn/src/x.rs",
            "pub struct Gru;\n\
             pub struct Lstm;\n\
             impl Gru { pub fn step(&self) {} }\n\
             impl Lstm { pub fn step(&self) {} }\n\
             pub fn drive(cell: &Gru, opaque: &dyn Steppable) {\n\
                 let typed: Gru = make();\n\
                 typed.step();\n\
                 opaque.step();\n\
             }\n",
        )]));
        let drive = id(&g, None, "drive");
        assert!(
            has_edge(&g, drive, id(&g, Some("Gru"), "step")),
            "hinted receiver resolves to Gru::step"
        );
        assert!(
            g.unresolved
                .iter()
                .any(|u| u.caller == drive && u.name == "step" && u.reason.contains("ambiguous")),
            "unhinted shadowed method recorded as unresolved: {:?}",
            g.unresolved
        );
    }

    #[test]
    fn trait_default_methods_resolve_through_impl_relations() {
        let g = CallGraph::build(&ctx_of(&[(
            "crates/ml/src/x.rs",
            "pub trait Classifier {\n\
                 fn predict_proba(&self) -> f64;\n\
                 fn predict(&self) -> bool { self.predict_proba() >= 0.5 }\n\
             }\n\
             pub struct LogReg;\n\
             impl Classifier for LogReg {\n\
                 fn predict_proba(&self) -> f64 { 0.0 }\n\
             }\n\
             pub fn eval(m: &LogReg) -> bool {\n\
                 let model: LogReg = make();\n\
                 model.predict()\n\
             }\n",
        )]));
        let eval = id(&g, None, "eval");
        let default_predict = id(&g, Some("Classifier"), "predict");
        assert!(
            has_edge(&g, eval, default_predict),
            "call through the impl type reaches the trait default method"
        );
        // The default body's `self.predict_proba()` resolves to the
        // trait declaration (unique name).
        assert!(g
            .edges
            .iter()
            .any(|e| e.caller == default_predict && g.index.fns[e.callee].name == "predict_proba"));
    }

    #[test]
    fn closures_attribute_calls_to_the_enclosing_fn() {
        let g = CallGraph::build(&ctx_of(&[(
            "crates/nn/src/x.rs",
            "pub fn leaf(v: usize) -> usize { v }\n\
             pub fn for_each_chunk(n: usize) -> usize { n }\n\
             pub fn matmul(n: usize) -> usize {\n\
                 for_each_chunk(move |i| {\n\
                     let inner = |j| leaf(j);\n\
                     inner(i)\n\
                 })\n\
             }\n",
        )]));
        let mm = id(&g, None, "matmul");
        assert!(has_edge(&g, mm, id(&g, None, "for_each_chunk")));
        assert!(
            has_edge(&g, mm, id(&g, None, "leaf")),
            "calls inside nested closures belong to the enclosing fn"
        );
    }

    #[test]
    fn macro_invocations_are_unresolved_not_silent() {
        let g = CallGraph::build(&ctx_of(&[(
            "crates/core/src/x.rs",
            "pub fn f() {\n\
                 my_table!(a, b);\n\
                 assert!(true);\n\
                 vec![1, 2];\n\
             }\n",
        )]));
        let f = id(&g, None, "f");
        assert!(
            g.unresolved
                .iter()
                .any(|u| u.caller == f && u.name == "my_table!"),
            "{:?}",
            g.unresolved
        );
        assert!(
            !g.unresolved
                .iter()
                .any(|u| u.name == "assert!" || u.name == "vec!"),
            "std macros are not noise"
        );
    }

    #[test]
    fn nested_fn_calls_belong_to_the_nested_fn() {
        let g = CallGraph::build(&ctx_of(&[(
            "crates/core/src/x.rs",
            "pub fn target() {}\n\
             pub fn outer() {\n\
                 fn inner() { target(); }\n\
                 inner();\n\
             }\n",
        )]));
        let outer = id(&g, None, "outer");
        let inner = id(&g, None, "inner");
        assert!(has_edge(&g, inner, id(&g, None, "target")));
        assert!(!has_edge(&g, outer, id(&g, None, "target")));
        assert!(has_edge(&g, outer, inner));
    }

    #[test]
    fn reachability_chains_are_shortest_and_deterministic() {
        let src = "pub fn root() { a(); b(); }\n\
                   pub fn a() { c(); }\n\
                   pub fn b() { c(); }\n\
                   pub fn c() { leaf(); }\n\
                   pub fn leaf() {}\n\
                   pub fn island() {}\n";
        let g = CallGraph::build(&ctx_of(&[("crates/core/src/x.rs", src)]));
        let root = id(&g, None, "root");
        let reach = g.reachable(&[root]);
        assert!(!reach.contains_key(&id(&g, None, "island")));
        let leaf_chain = &reach[&id(&g, None, "leaf")];
        assert_eq!(leaf_chain.len(), 4, "root → a|b → c → leaf");
        // Determinism: a second build+query gives the identical chain.
        let g2 = CallGraph::build(&ctx_of(&[("crates/core/src/x.rs", src)]));
        let reach2 = g2.reachable(&[id(&g2, None, "root")]);
        assert_eq!(
            g.chain_display(leaf_chain),
            g2.chain_display(&reach2[&id(&g2, None, "leaf")])
        );
        assert!(
            g.chain_display(leaf_chain).contains("core::a"),
            "sorted tie-break picks `a`"
        );
    }

    #[test]
    fn typed_local_hints_resolve_both_declaration_forms() {
        let g = CallGraph::build(&ctx_of(&[(
            "crates/nn/src/x.rs",
            "pub struct Pool;\n\
             impl Pool { pub fn acquire(&self) {} }\n\
             pub fn drive() {\n\
                 let ascribed: Pool = make();\n\
                 let constructed = Pool::default();\n\
                 ascribed.acquire();\n\
                 constructed.acquire();\n\
             }\n",
        )]));
        let drive = id(&g, None, "drive");
        let acquire = id(&g, Some("Pool"), "acquire");
        assert_eq!(
            g.edges
                .iter()
                .filter(|e| e.caller == drive && e.callee == acquire)
                .count(),
            2,
            "both `let x: T` and `let x = T::...` hints resolve: {:?}",
            g.edges
        );
    }

    #[test]
    fn unique_name_fallback_resolves_unhinted_receivers() {
        let g = CallGraph::build(&ctx_of(&[(
            "crates/nn/src/x.rs",
            "pub struct Gru;\n\
             impl Gru { pub fn step_gate(&self) {} }\n\
             pub fn drive(cell: &Gru) { cell.step_gate(); }\n",
        )]));
        // `cell` has no let-hint, but `step_gate` names exactly one
        // workspace method and is not a ubiquitous std name.
        assert!(has_edge(
            &g,
            id(&g, None, "drive"),
            id(&g, Some("Gru"), "step_gate")
        ));
    }

    #[test]
    fn std_method_names_never_resolve_through_the_fallback() {
        let g = CallGraph::build(&ctx_of(&[(
            "crates/nn/src/x.rs",
            "pub struct Baseline;\n\
             impl Baseline { pub fn load(&self) {} }\n\
             pub struct WorkerPool;\n\
             impl WorkerPool { pub fn spawn(&self) {} pub fn join(&self) {} }\n\
             pub struct Ticket;\n\
             impl Ticket { pub fn wait(&self) {} }\n\
             pub fn drive(unhinted: &Opaque) {\n\
                 unhinted.load();\n\
                 unhinted.spawn();\n\
                 unhinted.join();\n\
                 unhinted.wait();\n\
                 unhinted.recv();\n\
                 unhinted.notify_one();\n\
             }\n",
        )]));
        let drive = id(&g, None, "drive");
        assert!(
            g.edges.iter().all(|e| e.caller != drive),
            "unhinted std-named methods must stay external, got {:?}",
            g.edges
                .iter()
                .filter(|e| e.caller == drive)
                .map(|e| g.index.fns[e.callee].display())
                .collect::<Vec<_>>()
        );
        // A hinted receiver still bypasses the blocklist.
        let g2 = CallGraph::build(&ctx_of(&[(
            "crates/nn/src/x.rs",
            "pub struct WorkerPool;\n\
             impl WorkerPool { pub fn join(&self) {} }\n\
             pub fn drive() {\n\
                 let pool: WorkerPool = make();\n\
                 pool.join();\n\
             }\n",
        )]));
        assert!(has_edge(
            &g2,
            id(&g2, None, "drive"),
            id(&g2, Some("WorkerPool"), "join")
        ));
    }

    #[test]
    fn reachable_holds_callees_and_skips_islands() {
        let g = CallGraph::build(&ctx_of(&[(
            "crates/core/src/x.rs",
            "pub fn root() { helper(); }\npub fn helper() {}\npub fn island() {}\n",
        )]));
        let root = id(&g, None, "root");
        let reach = g.reachable(&[root]);
        assert!(reach.contains_key(&id(&g, None, "helper")));
        assert!(!reach.contains_key(&id(&g, None, "island")));
    }
}
