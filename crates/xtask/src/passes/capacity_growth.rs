//! A14 — capacity and growth discipline.
//!
//! Two memory-shape rules over the [`crate::memflow`] model:
//!
//! - **Missing pre-size (Warning).** A `Vec::new()` binding in a
//!   mem-root-reachable fn whose `push` sites sit inside loops with a
//!   *derivable* trip count (a `for _ in 0..n` / `..=` range header, or
//!   a `.len()` bound check on the vec itself) reallocates log₂(n)
//!   times for no reason — `Vec::with_capacity` is a one-line fix that
//!   the million-user dataset generator (ROADMAP item 1) multiplies by
//!   every user. Non-derivable growth (pushing under a dynamic filter)
//!   is not flagged.
//! - **Unbounded growth (Error).** A growable collection field on a
//!   *long-lived* struct (servers, pools, caches and the state they
//!   own — see [`crate::memflow::MemModel::build`]) that has insert
//!   sites but no remove/clear/drain/pop site *and* no `.len()` bound
//!   check anywhere in its crate will grow for the life of the process:
//!   in a serving deployment that is an OOM with a fuse measured in
//!   traffic, not a perf nit. The finding carries the insert chain from
//!   the memory roots.
//!
//! Suppress (with a reason) via `// lint: allow(mem-flow) <reason>`;
//! a reasonless `mem-flow` allow is itself an Error.

use super::{Context, Finding, Pass, Severity};
use crate::callgraph::CallGraph;
use crate::lexer::{render, TokKind};
use crate::memflow::{
    alloc_sites, field_method_sites, has_len_bound, loop_depths, mem_roots, MemModel, GROW_VERBS,
    SHRINK_VERBS,
};

pub struct CapacityGrowth;

/// Iterator adapters whose presence in a loop header makes the trip
/// count underivable from a `.len()` — pushing under these is demand-
/// driven, not pre-sizable.
const UNDERIVABLE_ADAPTERS: [&str; 7] = [
    "filter",
    "filter_map",
    "flat_map",
    "flatten",
    "take_while",
    "skip_while",
    "by_ref",
];

impl Pass for CapacityGrowth {
    fn id(&self) -> &'static str {
        "A14"
    }

    fn run(&self, ctx: &Context) -> Vec<Finding> {
        let graph = ctx.graph();
        let model = MemModel::build(ctx);
        let mut out = missing_presize(ctx, graph);
        out.extend(unbounded_growth(ctx, graph, &model));
        out
    }
}

/// Rule (a): `Vec::new()` at loop depth 0 whose pushes happen inside
/// derivable-length loops of a mem-root-reachable fn.
fn missing_presize(ctx: &Context, graph: &CallGraph) -> Vec<Finding> {
    let roots = mem_roots(graph);
    let reach = graph.reachable(&roots);
    let sites = alloc_sites(ctx, graph);
    let mut findings = Vec::new();

    for site in &sites {
        if !site.hot || site.loop_depth > 0 || site.shape != "Vec::new" {
            continue;
        }
        let item = &graph.index.fns[site.fn_id];
        let Some((b0, b1)) = item.body else { continue };
        let file = &ctx.files[item.file];
        let toks = &file.tokens;
        // Locate the `new` token of this site and its `let` binding.
        let Some(k) = (b0..b1).find(|&k| {
            toks[k].line == site.line
                && toks[k].is_ident("new")
                && k >= 2
                && toks[k - 1].is_punct("::")
                && toks[k - 2].is_ident("Vec")
        }) else {
            continue;
        };
        let Some(name) = binding_name(toks, b0, k) else {
            continue;
        };
        let depths = loop_depths(toks, b0, b1);
        // Pushes to the binding inside a loop, with the innermost
        // enclosing header derivable — or the vec itself len-bounded.
        let bounded = vec_len_bounded(toks, b0, b1, &name);
        let derivable_push = (b0..b1).any(|m| {
            toks[m].is_ident("push")
                && m >= 2
                && toks[m - 1].is_punct(".")
                && toks[m - 2].is_ident(&name)
                && toks.get(m + 1).is_some_and(|n| n.is_punct("("))
                && depths[m - b0] > 0
                && (bounded || derivable_header(toks, b0, m))
        });
        if !derivable_push {
            continue;
        }
        let chain_str = reach
            .get(&site.fn_id)
            .map(|chain| graph.chain_display(chain))
            .unwrap_or_else(|| item.display());
        findings.push(Finding {
            rule: "A14",
            key: "mem-flow",
            severity: Severity::Warning,
            path: file.source.path.clone(),
            line: site.line,
            message: format!(
                "`{name}` is built with `Vec::new()` but its loop length is \
                 derivable in `{}` (reachable via {chain_str}); pre-size with \
                 `Vec::with_capacity` to avoid log2(n) reallocations — annotate \
                 `// lint: allow(mem-flow) <reason>` if the estimate is unknowable",
                item.display()
            ),
        });
    }
    findings
}

/// The binding ident of the `let` statement containing token `k`
/// (`let mut out: Vec<T> = Vec::new()` → `out`). Walks back to the
/// nearest `let` within the statement.
fn binding_name(toks: &[crate::lexer::Token], b0: usize, k: usize) -> Option<String> {
    let mut m = k;
    while m > b0 {
        m -= 1;
        let t = &toks[m];
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            return None;
        }
        if t.is_ident("let") {
            let name = toks.get(m + 1).filter(|t| t.kind == TokKind::Ident)?;
            if name.text == "mut" {
                return toks
                    .get(m + 2)
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.clone());
            }
            return Some(name.text.clone());
        }
        if k - m > 24 {
            return None;
        }
    }
    None
}

/// Is `<name>.len()` compared against anything in the body? (The
/// cascade's `out.len() >= cfg.max_retweets` budget check makes the
/// final length derivable even though the loop itself is dynamic.)
fn vec_len_bounded(toks: &[crate::lexer::Token], b0: usize, b1: usize, name: &str) -> bool {
    for m in b0 + 2..b1 {
        if !toks[m].is_ident("len") || !(toks[m - 1].is_punct(".") && toks[m - 2].is_ident(name)) {
            continue;
        }
        let end = (m + 8).min(b1);
        if (m + 1..end).any(|j| matches!(toks[j].text.as_str(), ">" | "<")) {
            return true;
        }
    }
    false
}

/// Is the innermost loop header enclosing token `m` derivable — a
/// `for _ in <expr>` whose iterated expression is a range or a plain
/// collection walk with no demand-driven adapter?
fn derivable_header(toks: &[crate::lexer::Token], b0: usize, m: usize) -> bool {
    // Find the innermost enclosing `for`/`while` header: the closest
    // preceding loop keyword whose body braces contain `m`.
    let mut best: Option<(usize, usize)> = None;
    for k in b0..m {
        if !matches!(toks[k].text.as_str(), "for" | "while") || toks[k].kind != TokKind::Ident {
            continue;
        }
        let mut depth = 0i32;
        let mut open = None;
        for j in k + 1..m + 1 {
            match toks[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    open = Some(j);
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
        }
        let Some(open) = open else { continue };
        let Some(close) = crate::lexer::matching_close(toks, open) else {
            continue;
        };
        if open < m && m < close {
            best = Some((k, open));
        }
    }
    let Some((kw, open)) = best else {
        return false;
    };
    if toks[kw].is_ident("while") {
        return false; // `while` trip counts are never length-derivable
    }
    let header_start = (kw..open)
        .find(|&j| toks[j].is_ident("in"))
        .map(|j| j + 1)
        .unwrap_or(kw + 1);
    let header: Vec<&str> = toks[header_start..open]
        .iter()
        .map(|t| t.text.as_str())
        .collect();
    if header
        .iter()
        .any(|t| UNDERIVABLE_ADAPTERS.iter().any(|a| t == a))
    {
        return false;
    }
    // A range (`0..n`), an explicit `.len()`, or a plain `.iter()`-style
    // walk over a sized collection are all derivable.
    header
        .iter()
        .any(|t| matches!(*t, ".." | "..=" | "len" | "iter" | "iter_mut" | "enumerate"))
        || header.iter().all(|t| !t.contains('('))
}

/// Rule (b): growable collection fields on long-lived structs with
/// insert sites but no shrink site and no len-bound in their crate.
fn unbounded_growth(ctx: &Context, graph: &CallGraph, model: &MemModel) -> Vec<Finding> {
    let roots = mem_roots(graph);
    let reach = graph.reachable(&roots);
    let mut findings = Vec::new();

    for name in &model.long_lived {
        let Some(layout) = model.layouts.get(name) else {
            continue;
        };
        for field in &layout.fields {
            if !field.ty.growable() {
                continue;
            }
            let grows = field_method_sites(ctx, &layout.crate_name, &field.name, &GROW_VERBS);
            if grows.is_empty() {
                continue;
            }
            let shrinks = field_method_sites(ctx, &layout.crate_name, &field.name, &SHRINK_VERBS);
            if !shrinks.is_empty() || has_len_bound(ctx, &layout.crate_name, &field.name) {
                continue;
            }
            let (fi, k) = grows[0];
            let file = &ctx.files[fi];
            let toks = &file.tokens;
            let line = toks[k].line;
            // The insert chain: mem-roots → the fn containing the first
            // insert site, when reachable.
            let insert_fn = graph
                .index
                .fns
                .iter()
                .position(|f| f.file == fi && f.body.is_some_and(|(b0, b1)| b0 <= k && k < b1));
            let chain_str = insert_fn
                .and_then(|fid| reach.get(&fid).map(|c| graph.chain_display(c)))
                .or_else(|| insert_fn.map(|fid| graph.index.fns[fid].display()))
                .unwrap_or_else(|| file.source.path.clone());
            let site = render(toks, k.saturating_sub(2), (k + 2).min(toks.len()));
            findings.push(Finding {
                rule: "A14",
                key: "mem-flow",
                severity: Severity::Error,
                path: file.source.path.clone(),
                line,
                message: format!(
                    "`{}.{}` ({}) on long-lived `{}` grows via `{site}…` \
                     (insert chain: {chain_str}) but no remove/clear/drain or \
                     `.len()` bound exists on any path in crate `{}` — unbounded \
                     growth in a long-lived process is an OOM, not a perf nit",
                    name,
                    field.name,
                    field.ty.describe(),
                    name,
                    layout.crate_name
                ),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::run_passes;

    fn run_on(files: &[(&str, &str)]) -> Vec<Finding> {
        run_passes(&Context::of(files), &[Box::new(CapacityGrowth)])
    }

    #[test]
    fn derivable_vec_new_push_loop_is_a_warning() {
        let f = run_on(&[(
            "crates/socialsim/src/dataset.rs",
            "pub struct Dataset;\n\
             impl Dataset {\n\
                 pub fn generate(n: usize) -> Vec<usize> {\n\
                     let mut tweets: Vec<usize> = Vec::new();\n\
                     for i in 0..n {\n\
                         tweets.push(i);\n\
                     }\n\
                     tweets\n\
                 }\n\
             }\n",
        )]);
        let a14: Vec<&Finding> = f.iter().filter(|x| x.rule == "A14").collect();
        assert_eq!(a14.len(), 1, "{f:?}");
        assert_eq!(a14[0].severity, Severity::Warning);
        assert!(a14[0].message.contains("`tweets`"));
        assert!(a14[0].message.contains("with_capacity"));
        assert!(a14[0].message.contains("Dataset::generate"));
    }

    #[test]
    fn with_capacity_filtered_loops_and_cold_fns_are_clean() {
        let f = run_on(&[(
            "crates/socialsim/src/dataset.rs",
            "pub struct Dataset;\n\
             impl Dataset {\n\
                 pub fn generate(n: usize) -> Vec<usize> {\n\
                     let mut sized = Vec::with_capacity(n);\n\
                     for i in 0..n { sized.push(i); }\n\
                     let mut dynamic: Vec<usize> = Vec::new();\n\
                     for i in (0..n).filter(|i| i % 3 == 0) { dynamic.push(i); }\n\
                     sized\n\
                 }\n\
             }\n\
             pub fn cold(n: usize) -> Vec<usize> {\n\
                 let mut v: Vec<usize> = Vec::new();\n\
                 for i in 0..n { v.push(i); }\n\
                 v\n\
             }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn len_bounded_dynamic_loop_is_still_derivable() {
        let f = run_on(&[(
            "crates/socialsim/src/cascade.rs",
            "pub struct CascadeSimulator;\n\
             impl CascadeSimulator {\n\
                 pub fn simulate(&self, cap: usize) -> Vec<u32> {\n\
                     let mut out: Vec<u32> = Vec::new();\n\
                     while self.more() {\n\
                         if out.len() >= cap { break; }\n\
                         out.push(1);\n\
                     }\n\
                     out\n\
                 }\n\
                 fn more(&self) -> bool { false }\n\
             }\n",
        )]);
        let a14: Vec<&Finding> = f.iter().filter(|x| x.rule == "A14").collect();
        assert_eq!(a14.len(), 1, "{f:?}");
        assert!(a14[0].message.contains("`out`"));
    }

    #[test]
    fn unbounded_map_on_long_lived_struct_is_an_error() {
        let f = run_on(&[(
            "crates/serving/src/server.rs",
            "pub struct ResultCache {\n\
                 by_request: std::collections::HashMap<u64, f32>,\n\
             }\n\
             impl ResultCache {\n\
                 pub fn record(&mut self, id: u64, score: f32) {\n\
                     self.by_request.insert(id, score);\n\
                 }\n\
             }\n",
        )]);
        let errors: Vec<&Finding> = f
            .iter()
            .filter(|x| x.rule == "A14" && x.severity == Severity::Error)
            .collect();
        assert_eq!(errors.len(), 1, "{f:?}");
        assert!(errors[0].message.contains("ResultCache.by_request"));
        assert!(errors[0].message.contains("insert chain"));
        assert!(errors[0].message.contains("HashMap"));
    }

    #[test]
    fn drained_and_len_bounded_long_lived_collections_are_clean() {
        let f = run_on(&[(
            "crates/serving/src/server.rs",
            "pub struct QueueState { pending: std::collections::VecDeque<u64> }\n\
             pub struct Shared { state: std::sync::Mutex<QueueState>, cap: usize }\n\
             pub struct BufferPool { free: Vec<u64> }\n\
             impl Shared {\n\
                 pub fn submit(&self, id: u64) {\n\
                     let mut state = self.state.lock().expect(\"lock\");\n\
                     if state.pending.len() >= self.cap { return; }\n\
                     state.pending.push_back(id);\n\
                 }\n\
                 pub fn take(&self) -> Vec<u64> {\n\
                     let mut state = self.state.lock().expect(\"lock\");\n\
                     state.pending.drain(..).collect()\n\
                 }\n\
             }\n\
             impl BufferPool {\n\
                 pub fn recycle(&mut self, b: u64) { self.free.push(b); }\n\
                 pub fn grab(&mut self) -> Option<u64> { self.free.pop() }\n\
             }\n",
        )]);
        let errors: Vec<&Finding> = f
            .iter()
            .filter(|x| x.rule == "A14" && x.severity == Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn a_reasoned_allow_suppresses_and_a_bare_one_does_not() {
        let f = run_on(&[(
            "crates/socialsim/src/dataset.rs",
            "pub struct Dataset;\n\
             impl Dataset {\n\
                 pub fn generate(n: usize) -> Vec<usize> {\n\
                     // lint: allow(mem-flow) capacity is config-dependent, measured tiny\n\
                     let mut ok: Vec<usize> = Vec::new();\n\
                     for i in 0..n { ok.push(i); }\n\
                     // lint: allow(mem-flow)\n\
                     let mut bad: Vec<usize> = Vec::new();\n\
                     for i in 0..n { bad.push(i); }\n\
                     ok\n\
                 }\n\
             }\n",
        )]);
        let a14: Vec<&Finding> = f.iter().filter(|x| x.rule == "A14").collect();
        assert_eq!(a14.len(), 1, "reasonless allow does not suppress: {f:?}");
    }
}
