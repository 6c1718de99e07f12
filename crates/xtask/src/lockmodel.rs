//! Lock-region model over the item index and call graph: which
//! `Mutex`/`RwLock`/`Condvar` values exist, which token spans of each fn
//! body hold which lock, and how held-lock sets flow along call edges.
//! This is the substrate the concurrency passes (A7–A9) query, the same
//! way A4–A6 query [`crate::callgraph`].
//!
//! ## Lock identities
//!
//! - Struct fields whose base type is a lock: `Owner.field`
//!   (`Shared.state`, `Shared.work`). `Arc`/`Box`/`Option` wrappers are
//!   looked through by the field indexer.
//! - Locals declared with a lock anywhere in their ascribed type
//!   (`let slots: Vec<Mutex<Option<R>>>`) or constructed directly
//!   (`let cursor = Mutex::new(0)`): `crate::fn::name`.
//! - Lock-typed fn parameters: same naming, but marked *param-based* —
//!   the identity of the caller's lock is unknown, so these regions are
//!   excluded from order edges and transitive acquire sets and kept only
//!   for intra-fn scanning.
//!
//! ## Regions
//!
//! A region runs from a `.lock()`/`.read()`/`.write()` call (or a call
//! to a fn whose return type contains a guard, e.g. the serving `lock`
//! wrapper) to the guard's drop: the end of the binding's block, an
//! explicit `drop(guard)` at the binding's brace depth, or a shadowing
//! `let guard` rebind at that depth. Unbound temporary guards
//! (`*slots[i].lock() = …`) end at the statement's `;`. A plain
//! `guard = cv.wait(guard)` reassignment does **not** end the region —
//! condvar waits reacquire the same lock.
//!
//! Known approximations: receivers that are call results
//! (`chan().lock()`) and guards bound by `if let` are unresolved and
//! skipped; a region ending in
//! one `match` arm is assumed to span the whole arm's statement.

use crate::callgraph::CallGraph;
use crate::items::{self, FnItem};
use crate::lexer::{matching_close, split_args, TokKind, Token};
use crate::passes::Context;
use std::collections::{BTreeMap, BTreeSet};

/// What kind of synchronisation primitive a lock identity is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockKind {
    Mutex,
    RwLock,
    Condvar,
}

/// `Mutex`/`RwLock`/`Condvar` base-type name → kind.
pub fn lock_kind(ty: &str) -> Option<LockKind> {
    match ty {
        "Mutex" => Some(LockKind::Mutex),
        "RwLock" => Some(LockKind::RwLock),
        "Condvar" => Some(LockKind::Condvar),
        _ => None,
    }
}

/// One lock region inside a fn body.
#[derive(Debug, Clone)]
pub struct Region {
    /// Lock identity (`Shared.state`, `nn::par::map::cursor`).
    pub lock: String,
    pub kind: LockKind,
    /// Token index of the acquisition call name.
    pub acq: usize,
    /// Exclusive token index where the guard is dropped.
    pub end: usize,
    /// 1-based line of the acquisition.
    pub line: usize,
    /// Guard binding name, when let-bound.
    pub guard: Option<String>,
    /// The lock came in as a fn parameter — identity unknown to callers.
    pub param_based: bool,
}

impl Region {
    /// Is token `site` inside this region (strictly after the
    /// acquisition, before the drop)?
    pub fn contains(&self, site: usize) -> bool {
        site > self.acq && site < self.end
    }
}

/// A `Condvar::wait*` or `notify_*` call site.
#[derive(Debug, Clone)]
pub struct CondvarSite {
    /// Token index of the method name.
    pub tok: usize,
    pub line: usize,
    /// Resolved condvar identity, when the receiver resolved.
    pub condvar: Option<String>,
    /// `wait` / `wait_timeout` / `wait_while` / `notify_one` / `notify_all`.
    pub method: String,
    /// First argument when it is a bare ident (the guard handed to
    /// `wait`).
    pub guard_arg: Option<String>,
}

/// Per-fn lock facts, parallel to [`crate::items::ItemIndex::fns`].
#[derive(Debug, Clone, Default)]
pub struct FnLocks {
    pub regions: Vec<Region>,
    pub waits: Vec<CondvarSite>,
    pub notifies: Vec<CondvarSite>,
    /// Local/param base-type hints (`handle` → `JoinHandle`), for the
    /// blocking-call classifier.
    pub hints: BTreeMap<String, String>,
}

/// An edge in the lock-acquisition-order graph: `to` is acquired while
/// `from` is held.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct OrderEdge {
    pub from: String,
    pub to: String,
    /// Display name of the fn whose region establishes the edge.
    pub fn_disp: String,
    /// Acquisition (or call) line inside that fn.
    pub line: usize,
    /// Display name of the callee when the inner acquisition happens
    /// transitively through a call.
    pub via: Option<String>,
    pub path: String,
}

/// A lock held on entry to a fn, with where it was acquired.
#[derive(Debug, Clone)]
pub struct HeldLock {
    /// Display name of the acquiring fn.
    pub acquired_in: String,
    pub line: usize,
}

/// The workspace lock model.
pub struct LockModel {
    /// Every named (non-param) lock identity → kind.
    pub locks: BTreeMap<String, LockKind>,
    /// Per-fn facts, indexed like `graph.index.fns`.
    pub fns: Vec<FnLocks>,
    /// Transitive lock-acquire sets per fn (param-based excluded).
    pub acquires: Vec<BTreeSet<String>>,
    /// Condvar identity → mutexes observed guarding its waits.
    pub assoc: BTreeMap<String, BTreeSet<String>>,
    /// The global acquisition-order graph.
    pub order_edges: Vec<OrderEdge>,
}

impl LockModel {
    /// Build the model for every fn body in the context.
    pub fn build(ctx: &Context, graph: &CallGraph) -> LockModel {
        let index = &graph.index;
        let mut locks: BTreeMap<String, LockKind> = BTreeMap::new();
        for ((owner, fname), ty) in &index.fields {
            if let Some(kind) = lock_kind(ty) {
                locks.insert(format!("{owner}.{fname}"), kind);
            }
        }
        // Call sites that acquire through a guard-returning wrapper.
        let mut wrapper_sites: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        for e in &graph.edges {
            if index.fns[e.callee].returns_guard {
                wrapper_sites.insert((e.caller, e.site), e.callee);
            }
        }
        let mut fns = Vec::with_capacity(index.fns.len());
        for fid in 0..index.fns.len() {
            fns.push(scan_fn(ctx, graph, fid, &wrapper_sites, &mut locks));
        }

        // Condvar ↔ mutex association: the region whose guard is handed
        // to `wait` names the condvar's mutex.
        let mut assoc: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for fl in &fns {
            for w in &fl.waits {
                let (Some(cv), Some(g)) = (&w.condvar, &w.guard_arg) else {
                    continue;
                };
                for r in &fl.regions {
                    if r.kind == LockKind::Mutex
                        && !r.param_based
                        && r.guard.as_deref() == Some(g)
                        && r.contains(w.tok)
                    {
                        assoc.entry(cv.clone()).or_default().insert(r.lock.clone());
                    }
                }
            }
        }

        // Transitive acquire sets: fixpoint over call edges.
        let mut acquires: Vec<BTreeSet<String>> = fns
            .iter()
            .map(|fl| {
                fl.regions
                    .iter()
                    .filter(|r| !r.param_based)
                    .map(|r| r.lock.clone())
                    .collect()
            })
            .collect();
        loop {
            let mut changed = false;
            for e in &graph.edges {
                let add: Vec<String> = acquires[e.callee]
                    .iter()
                    .filter(|l| !acquires[e.caller].contains(*l))
                    .cloned()
                    .collect();
                for l in add {
                    acquires[e.caller].insert(l);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Order edges: direct nesting, then nesting through calls.
        let mut order_edges = Vec::new();
        for (fid, fl) in fns.iter().enumerate() {
            let item = &index.fns[fid];
            for r1 in fl.regions.iter().filter(|r| !r.param_based) {
                for r2 in fl.regions.iter().filter(|r| !r.param_based) {
                    if r1.contains(r2.acq) {
                        order_edges.push(OrderEdge {
                            from: r1.lock.clone(),
                            to: r2.lock.clone(),
                            fn_disp: item.display(),
                            line: r2.line,
                            via: None,
                            path: item.path.clone(),
                        });
                    }
                }
            }
        }
        for e in &graph.edges {
            let caller = &index.fns[e.caller];
            for r in fns[e.caller].regions.iter().filter(|r| !r.param_based) {
                if !r.contains(e.site) {
                    continue;
                }
                for l in &acquires[e.callee] {
                    order_edges.push(OrderEdge {
                        from: r.lock.clone(),
                        to: l.clone(),
                        fn_disp: caller.display(),
                        line: e.line,
                        via: Some(index.fns[e.callee].display()),
                        path: caller.path.clone(),
                    });
                }
            }
        }
        order_edges.sort();
        order_edges.dedup();

        LockModel {
            locks,
            fns,
            acquires,
            assoc,
            order_edges,
        }
    }

    /// Groups of locks on an acquisition-order cycle, each with every
    /// order edge inside the group (the evidence for both chains). A
    /// self-edge (`L → L`, re-entrant acquisition) is its own group.
    pub fn cycles(&self) -> Vec<Vec<OrderEdge>> {
        let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for e in &self.order_edges {
            adj.entry(&e.from).or_default().insert(&e.to);
            adj.entry(&e.to).or_default();
        }
        // Reachability closure — the graph is a handful of locks.
        let mut reach: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for &n in adj.keys() {
            let mut seen: BTreeSet<&str> = BTreeSet::new();
            let mut stack: Vec<&str> = adj[n].iter().copied().collect();
            while let Some(m) = stack.pop() {
                if seen.insert(m) {
                    if let Some(next) = adj.get(m) {
                        stack.extend(next.iter().copied());
                    }
                }
            }
            reach.insert(n, seen);
        }
        let mut grouped: BTreeSet<&str> = BTreeSet::new();
        let mut out = Vec::new();
        for &n in adj.keys() {
            if grouped.contains(n) || !reach[n].contains(n) {
                continue; // not on any cycle
            }
            let group: BTreeSet<&str> = reach[n]
                .iter()
                .copied()
                .filter(|&m| reach[m].contains(n))
                .collect();
            grouped.extend(group.iter().copied());
            let mut edges: Vec<OrderEdge> = self
                .order_edges
                .iter()
                .filter(|e| group.contains(e.from.as_str()) && group.contains(e.to.as_str()))
                .cloned()
                .collect();
            edges.sort();
            out.push(edges);
        }
        out
    }

    /// Locks held on entry to every fn reachable from `roots`, found by
    /// propagating each caller's held set plus its own regions across
    /// call sites inside those regions. Deterministic worklist.
    pub fn held_from(
        &self,
        graph: &CallGraph,
        roots: &[usize],
    ) -> BTreeMap<usize, BTreeMap<String, HeldLock>> {
        let mut held: BTreeMap<usize, BTreeMap<String, HeldLock>> = BTreeMap::new();
        let mut work: BTreeSet<usize> = BTreeSet::new();
        for &r in roots {
            held.entry(r).or_default();
            work.insert(r);
        }
        let mut by_caller: BTreeMap<usize, Vec<&crate::callgraph::Edge>> = BTreeMap::new();
        for e in &graph.edges {
            by_caller.entry(e.caller).or_default().push(e);
        }
        while let Some(f) = work.pop_first() {
            let Some(edges) = by_caller.get(&f) else {
                continue;
            };
            for e in edges {
                let mut contrib = held.get(&f).cloned().unwrap_or_default();
                for r in self.fns[f].regions.iter().filter(|r| !r.param_based) {
                    if r.contains(e.site) {
                        contrib.entry(r.lock.clone()).or_insert(HeldLock {
                            acquired_in: graph.index.fns[f].display(),
                            line: r.line,
                        });
                    }
                }
                let newly = !held.contains_key(&e.callee);
                let entry = held.entry(e.callee).or_default();
                let mut changed = false;
                for (l, h) in contrib {
                    if !entry.contains_key(&l) {
                        entry.insert(l, h);
                        changed = true;
                    }
                }
                if newly || changed {
                    work.insert(e.callee);
                }
            }
        }
        held
    }
}

/// A resolved receiver: lock identity, kind, and whether it came in as
/// a parameter.
type Resolved = (String, LockKind, bool);

struct FnScanner<'a> {
    item: &'a FnItem,
    toks: &'a [Token],
    b0: usize,
    b1: usize,
    depth: Vec<i32>,
    hints: BTreeMap<String, String>,
    /// Local/param lock bindings: name → (id, kind, param_based).
    local: BTreeMap<String, Resolved>,
    fields: &'a BTreeMap<(String, String), String>,
}

fn scan_fn(
    ctx: &Context,
    graph: &CallGraph,
    fid: usize,
    wrapper_sites: &BTreeMap<(usize, usize), usize>,
    locks: &mut BTreeMap<String, LockKind>,
) -> FnLocks {
    let item = &graph.index.fns[fid];
    let mut out = FnLocks::default();
    if item.in_test {
        return out;
    }
    let Some((b0, b1)) = item.body else {
        return out;
    };
    let toks: &[Token] = &ctx.files[item.file].tokens;
    let nested = nested_ranges(graph, fid);
    let mut sc = FnScanner {
        item,
        toks,
        b0,
        b1,
        depth: depth_array(toks, b0, b1),
        hints: BTreeMap::new(),
        local: BTreeMap::new(),
        fields: &graph.index.fields,
    };
    sc.collect_params(locks);
    sc.collect_locals(&nested, locks);
    out.hints = sc.hints.clone();

    let mut k = b0;
    'scan: while k < b1 {
        for &(n0, n1) in &nested {
            if k >= n0 && k < n1 {
                k = n1;
                continue 'scan;
            }
        }
        let t = &sc.toks[k];
        if let Some(&callee) = wrapper_sites.get(&(fid, k)) {
            // `let state = lock(&self.shared.state);` — the wrapper's
            // guard return makes this call an acquisition site.
            let _ = callee;
            if let Some((lockid, kind, param)) = sc.resolve_wrapper_arg(k) {
                out.regions.push(sc.make_region(k, lockid, kind, param));
            }
            k += 1;
            continue;
        }
        let is_method_call = t.kind == TokKind::Ident
            && k > 0
            && sc.toks[k - 1].is_punct(".")
            && sc.toks.get(k + 1).is_some_and(|n| n.is_punct("("));
        if !is_method_call {
            k += 1;
            continue;
        }
        match t.text.as_str() {
            "lock" => {
                if let Some((lockid, LockKind::Mutex, param)) = sc.resolve_receiver(k) {
                    out.regions
                        .push(sc.make_region(k, lockid, LockKind::Mutex, param));
                }
            }
            "read" | "write" => {
                // Only an acquisition when the receiver is a known
                // RwLock — `.read()`/`.write()` are ubiquitous IO names.
                if let Some((lockid, LockKind::RwLock, param)) = sc.resolve_receiver(k) {
                    out.regions
                        .push(sc.make_region(k, lockid, LockKind::RwLock, param));
                }
            }
            "wait" | "wait_timeout" | "wait_while" => {
                let resolved = sc.resolve_receiver(k);
                let guard_arg = sc.first_arg_ident(k);
                let is_wait = match &resolved {
                    Some((_, LockKind::Condvar, _)) => true,
                    Some(_) => false,
                    // Unresolved receiver: only a condvar wait when the
                    // first argument is a live region's guard.
                    None => guard_arg.as_deref().is_some_and(|g| {
                        out.regions
                            .iter()
                            .any(|r| r.guard.as_deref() == Some(g) && r.contains(k))
                    }),
                };
                if is_wait {
                    out.waits.push(CondvarSite {
                        tok: k,
                        line: t.line,
                        condvar: resolved.map(|(id, _, _)| id),
                        method: t.text.clone(),
                        guard_arg,
                    });
                }
            }
            "notify_one" | "notify_all" => {
                let resolved = sc.resolve_receiver(k);
                let condvar = match resolved {
                    Some((id, LockKind::Condvar, _)) => Some(id),
                    Some(_) => None,
                    None => None,
                };
                out.notifies.push(CondvarSite {
                    tok: k,
                    line: t.line,
                    condvar,
                    method: t.text.clone(),
                    guard_arg: None,
                });
            }
            _ => {}
        }
        k += 1;
    }
    out
}

impl<'a> FnScanner<'a> {
    /// Param hints and lock-typed params.
    fn collect_params(&mut self, locks: &mut BTreeMap<String, LockKind>) {
        let Some((p0, p1)) = self.item.params else {
            return;
        };
        for (s, e) in split_args(self.toks, p0, p1) {
            let Some(colon) = (s..e).find(|&i| self.toks[i].is_punct(":")) else {
                continue; // bare `self` receiver
            };
            if colon == s || self.toks[colon - 1].kind != TokKind::Ident {
                continue;
            }
            let name = self.toks[colon - 1].text.clone();
            let Some(base) = items::base_type(self.toks, colon + 1, e) else {
                continue;
            };
            if let Some(kind) = lock_kind(&base) {
                let id = format!("{}::{}", self.item.display(), name);
                // Param-based: identity unknown — never exported.
                let _ = locks;
                self.local.insert(name.clone(), (id, kind, true));
            }
            self.hints.insert(name, base);
        }
    }

    /// `let` hints and locally-constructed locks.
    fn collect_locals(
        &mut self,
        nested: &[(usize, usize)],
        locks: &mut BTreeMap<String, LockKind>,
    ) {
        let mut k = self.b0;
        'scan: while k < self.b1 {
            for &(n0, n1) in nested {
                if k >= n0 && k < n1 {
                    k = n1;
                    continue 'scan;
                }
            }
            if !self.toks[k].is_ident("let") {
                k += 1;
                continue;
            }
            let mut n = k + 1;
            if self.toks.get(n).is_some_and(|t| t.is_ident("mut")) {
                n += 1;
            }
            let Some(name_tok) = self.toks.get(n) else {
                break;
            };
            if name_tok.kind != TokKind::Ident {
                k += 1;
                continue;
            }
            let name = name_tok.text.clone();
            match self.toks.get(n + 1).map(|t| t.text.as_str()) {
                Some(":") => {
                    // Ascribed type to `=`/`;` at depth 0. A lock ident
                    // anywhere in it makes this a lock binding
                    // (`Vec<Mutex<…>>` is a bank of mutexes).
                    let mut e = n + 2;
                    let mut depth = 0i32;
                    while e < self.b1 {
                        match self.toks[e].text.as_str() {
                            "(" | "[" | "<" => depth += 1,
                            ")" | "]" | ">" => depth -= 1,
                            "=" | ";" if depth <= 0 => break,
                            _ => {}
                        }
                        e += 1;
                    }
                    if let Some(base) = items::base_type(self.toks, n + 2, e) {
                        self.hints.insert(name.clone(), base);
                    }
                    let lk = (n + 2..e)
                        .filter(|&i| self.toks[i].kind == TokKind::Ident)
                        .find_map(|i| lock_kind(&self.toks[i].text));
                    if let Some(kind) = lk {
                        let id = format!("{}::{}", self.item.display(), name);
                        locks.insert(id.clone(), kind);
                        self.local.insert(name, (id, kind, false));
                    }
                }
                Some("=") => {
                    // `(path ::)* Lock :: new (` immediately after `=` —
                    // deliberately strict so `Arc::new(Shared { state:
                    // Mutex::new(..) })` does not make `shared` a lock.
                    let mut p = n + 2;
                    let mut segs: Vec<&str> = Vec::new();
                    while self.toks.get(p).is_some_and(|t| t.kind == TokKind::Ident)
                        && self.toks.get(p + 1).is_some_and(|t| t.is_punct("::"))
                    {
                        segs.push(self.toks[p].text.as_str());
                        p += 2;
                    }
                    let direct = self.toks.get(p).is_some_and(|t| t.is_ident("new"))
                        && self.toks.get(p + 1).is_some_and(|t| t.is_punct("("));
                    if direct {
                        if let Some(kind) = segs.last().and_then(|s| lock_kind(s)) {
                            let id = format!("{}::{}", self.item.display(), name);
                            locks.insert(id.clone(), kind);
                            self.local.insert(name.clone(), (id, kind, false));
                        } else if let Some(first) = segs.first() {
                            self.hints.insert(name.clone(), (*first).to_string());
                        }
                    } else if let (Some(ty), Some(sep)) =
                        (self.toks.get(n + 2), self.toks.get(n + 3))
                    {
                        if ty.kind == TokKind::Ident && sep.is_punct("::") {
                            self.hints.insert(name.clone(), ty.text.clone());
                        }
                    }
                }
                _ => {}
            }
            k = n + 1;
        }
    }

    /// Resolve the dotted receiver path ending just before the `.` at
    /// `k - 1` to a lock identity.
    fn resolve_receiver(&self, k: usize) -> Option<Resolved> {
        let segs = collect_path_backwards(self.toks, self.b0, k.checked_sub(2)?)?;
        self.resolve_path(&segs)
    }

    /// Resolve the first argument of the wrapper call at `k`
    /// (`lock(&self.shared.state)`).
    fn resolve_wrapper_arg(&self, k: usize) -> Option<Resolved> {
        let open = k + 1;
        if !self.toks.get(open).is_some_and(|t| t.is_punct("(")) {
            return None;
        }
        let close = matching_close(self.toks, open)?;
        let (s, e) = *split_args(self.toks, open + 1, close).first()?;
        let segs = collect_path_forwards(self.toks, s, e)?;
        self.resolve_path(&segs)
    }

    fn resolve_path(&self, segs: &[String]) -> Option<Resolved> {
        if let [single] = segs {
            return self.local.get(single).cloned();
        }
        let (first, rest) = segs.split_first()?;
        let start_ty = if first == "self" {
            self.item.owner.clone()
        } else if let Some((id, kind, param)) = self.local.get(first) {
            // `guard.field` where guard is itself a lock — not a path we
            // model; but `lock.method` with one more seg can't be a
            // deeper lock either.
            let _ = (id, kind, param);
            None
        } else {
            self.hints.get(first).cloned()
        };
        if let Some(mut ty) = start_ty {
            let (last, mids) = rest.split_last()?;
            let mut ok = true;
            for mid in mids {
                match self.fields.get(&(ty.clone(), mid.clone())) {
                    Some(next) => ty = next.clone(),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                if let Some(fty) = self.fields.get(&(ty.clone(), last.clone())) {
                    if let Some(kind) = lock_kind(fty) {
                        return Some((format!("{ty}.{last}"), kind, false));
                    }
                }
                return None; // known type, not a lock field
            }
        }
        // Unique lock-field fallback: an unhinted receiver whose final
        // segment names exactly one lock-typed field workspace-wide
        // (`job.state` → `Shared.state`).
        let last = segs.last()?;
        let cands: Vec<(&String, LockKind)> = self
            .fields
            .iter()
            .filter(|((_, f), _)| f == last)
            .filter_map(|((owner, _), ty)| lock_kind(ty).map(|k| (owner, k)))
            .collect();
        match cands.as_slice() {
            [(owner, kind)] => Some((format!("{owner}.{last}"), *kind, false)),
            _ => None,
        }
    }

    /// First argument of the call at `k` when it is a bare ident.
    fn first_arg_ident(&self, k: usize) -> Option<String> {
        let open = k + 1;
        let close = matching_close(self.toks, open)?;
        let (s, e) = *split_args(self.toks, open + 1, close).first()?;
        let mut i = s;
        while i < e && (self.toks[i].is_punct("&") || self.toks[i].is_ident("mut")) {
            i += 1;
        }
        if i < e && self.toks[i].kind == TokKind::Ident && i + 1 == e {
            return Some(self.toks[i].text.clone());
        }
        // `wait_while(guard, |s| …)` still names the guard first even
        // with more tokens after it in other args — the single-arg check
        // above already handled the common `wait(guard)` shape.
        if i < e && self.toks[i].kind == TokKind::Ident {
            return Some(self.toks[i].text.clone());
        }
        None
    }

    /// Build the region for the acquisition at token `k`.
    fn make_region(&self, k: usize, lock: String, kind: LockKind, param_based: bool) -> Region {
        let d = |i: usize| self.depth[i - self.b0];
        // Statement start: token after the previous `;`/`{`/`}`.
        let mut s = k;
        while s > self.b0 && !matches!(self.toks[s - 1].text.as_str(), ";" | "{" | "}") {
            s -= 1;
        }
        let (guard, bd) = if self.toks[s].is_ident("let") {
            // Guard name: last ident before the binding's `=`.
            let mut eq = s;
            let mut depth = 0i32;
            while eq < k {
                match self.toks[eq].text.as_str() {
                    "(" | "[" | "<" => depth += 1,
                    ")" | "]" | ">" => depth -= 1,
                    "=" if depth <= 0 => break,
                    _ => {}
                }
                eq += 1;
            }
            let g = (s..eq)
                .rev()
                .find(|&i| self.toks[i].kind == TokKind::Ident && !self.toks[i].is_ident("mut"))
                .map(|i| self.toks[i].text.clone());
            (g, d(s))
        } else {
            (None, d(k))
        };
        let end = match &guard {
            Some(g) => self.find_guard_drop(k, g, bd),
            None => self.find_stmt_end(k, bd),
        };
        Region {
            lock,
            kind,
            acq: k,
            end,
            line: self.toks[k].line,
            guard,
            param_based,
        }
    }

    /// End of a let-bound region: the binding block's close, an explicit
    /// `drop(guard)` at the binding depth, or a shadowing `let guard`
    /// rebind at that depth.
    fn find_guard_drop(&self, k: usize, guard: &str, bd: i32) -> usize {
        let d = |i: usize| self.depth[i - self.b0];
        let mut i = k + 1;
        while i < self.b1 {
            let t = &self.toks[i];
            if t.is_punct("}") && d(i) < bd {
                return i;
            }
            if d(i) == bd {
                if t.is_ident("drop")
                    && self.toks.get(i + 1).is_some_and(|n| n.is_punct("("))
                    && self.toks.get(i + 2).is_some_and(|n| n.is_ident(guard))
                    && self.toks.get(i + 3).is_some_and(|n| n.is_punct(")"))
                {
                    return i;
                }
                if t.is_ident("let") {
                    let mut n = i + 1;
                    if self.toks.get(n).is_some_and(|t| t.is_ident("mut")) {
                        n += 1;
                    }
                    if self.toks.get(n).is_some_and(|t| t.is_ident(guard)) {
                        return i;
                    }
                }
            }
            i += 1;
        }
        self.b1
    }

    /// End of an unbound temporary-guard region: the statement's `;`.
    fn find_stmt_end(&self, k: usize, bd: i32) -> usize {
        let d = |i: usize| self.depth[i - self.b0];
        let mut i = k + 1;
        while i < self.b1 {
            let t = &self.toks[i];
            if t.is_punct(";") && d(i) == bd {
                return i;
            }
            if t.is_punct("}") && d(i) < bd {
                return i;
            }
            i += 1;
        }
        self.b1
    }
}

/// Brace depth per token of `[b0, b1)` relative to the body open. For a
/// `}` the recorded depth is the depth *outside* the block it closes, so
/// "`}` with depth < bd" is exactly "the binding's block closed".
fn depth_array(toks: &[Token], b0: usize, b1: usize) -> Vec<i32> {
    let mut out = vec![0i32; b1 - b0];
    let mut d = 0i32;
    for i in b0..b1 {
        match toks[i].text.as_str() {
            "{" => {
                out[i - b0] = d;
                d += 1;
            }
            "}" => {
                d -= 1;
                out[i - b0] = d;
            }
            _ => out[i - b0] = d,
        }
    }
    out
}

/// Fns nested inside this fn's body (same file) — their tokens belong to
/// them, not to the enclosing fn.
fn nested_ranges(graph: &CallGraph, fid: usize) -> Vec<(usize, usize)> {
    let item = &graph.index.fns[fid];
    let Some((b0, b1)) = item.body else {
        return Vec::new();
    };
    graph
        .index
        .fns
        .iter()
        .enumerate()
        .filter(|&(i, f)| i != fid && f.file == item.file)
        .filter_map(|(_, f)| f.body)
        .filter(|&(n0, n1)| n0 > b0 && n1 < b1)
        .collect()
}

/// Walk a dotted receiver path backwards from `i` (the token before the
/// method's `.`), skipping one `[…]` index group per segment. `None`
/// when the receiver is a call result or other opaque expression.
pub(crate) fn collect_path_backwards(
    toks: &[Token],
    b0: usize,
    mut i: usize,
) -> Option<Vec<String>> {
    let mut segs = Vec::new();
    loop {
        if toks[i].is_punct("]") {
            let mut depth = 0i32;
            loop {
                match toks[i].text.as_str() {
                    "]" => depth += 1,
                    "[" => depth -= 1,
                    _ => {}
                }
                if depth == 0 {
                    break;
                }
                if i == b0 {
                    return None;
                }
                i -= 1;
            }
            if i == b0 {
                return None;
            }
            i -= 1;
        }
        if toks[i].kind != TokKind::Ident {
            return None;
        }
        segs.push(toks[i].text.clone());
        if i >= 2 && i - 1 > b0 && toks[i - 1].is_punct(".") {
            i -= 2;
        } else {
            break;
        }
    }
    segs.reverse();
    Some(segs)
}

/// Parse `[&][mut] ident(.ident | [..])*` over `[s, e)`.
fn collect_path_forwards(toks: &[Token], mut s: usize, e: usize) -> Option<Vec<String>> {
    while s < e && (toks[s].is_punct("&") || toks[s].is_ident("mut")) {
        s += 1;
    }
    let mut segs = Vec::new();
    let mut i = s;
    loop {
        if i >= e || toks[i].kind != TokKind::Ident {
            return None;
        }
        segs.push(toks[i].text.clone());
        i += 1;
        if i < e && toks[i].is_punct("[") {
            i = matching_close(toks, i)? + 1;
        }
        if i < e && toks[i].is_punct(".") {
            i += 1;
            continue;
        }
        break;
    }
    if i != e {
        return None;
    }
    Some(segs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::passes::AnalyzedFile;
    use crate::source::SourceFile;

    fn model_of(files: &[(&str, &str)]) -> (LockModel, CallGraph) {
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
        let graph = CallGraph::build(&ctx);
        let model = LockModel::build(&ctx, &graph);
        (model, graph)
    }

    fn fn_id(g: &CallGraph, name: &str) -> usize {
        g.index
            .fns
            .iter()
            .position(|f| f.name == name)
            .unwrap_or_else(|| panic!("missing fn {name}"))
    }

    #[test]
    fn field_and_local_locks_are_identified() {
        let (m, _) = model_of(&[(
            "crates/serving/src/x.rs",
            "pub struct Shared { state: Mutex<u8>, work: Condvar, tab: RwLock<u8> }\n\
             pub fn run() {\n\
                 let cursor = Mutex::new(0usize);\n\
                 let slots: Vec<Mutex<u8>> = make();\n\
                 let plain = Arc::new(Shared { state: Mutex::new(0) });\n\
                 cursor.lock();\n\
                 let _ = (slots, plain);\n\
             }\n",
        )]);
        assert_eq!(m.locks.get("Shared.state"), Some(&LockKind::Mutex));
        assert_eq!(m.locks.get("Shared.work"), Some(&LockKind::Condvar));
        assert_eq!(m.locks.get("Shared.tab"), Some(&LockKind::RwLock));
        assert_eq!(
            m.locks.get("serving::run::cursor"),
            Some(&LockKind::Mutex),
            "{:?}",
            m.locks
        );
        assert_eq!(m.locks.get("serving::run::slots"), Some(&LockKind::Mutex));
        assert!(
            !m.locks.contains_key("serving::run::plain"),
            "Arc::new(struct literal) is not a lock binding: {:?}",
            m.locks
        );
    }

    #[test]
    fn let_bound_regions_end_at_block_drop_or_rebind() {
        let (m, g) = model_of(&[(
            "crates/serving/src/x.rs",
            "pub struct S { a: Mutex<u8>, b: Mutex<u8>, c: Mutex<u8> }\n\
             impl S {\n\
                 pub fn scoped(&self) {\n\
                     { let g = self.a.lock(); touch(); }\n\
                     after_block();\n\
                 }\n\
                 pub fn dropped(&self) {\n\
                     let g = self.b.lock();\n\
                     if bad() { return; }\n\
                     drop(g);\n\
                     after_drop();\n\
                 }\n\
                 pub fn rebound(&self) {\n\
                     let g = self.c.lock();\n\
                     let g = 0;\n\
                     after_rebind();\n\
                 }\n\
             }\n\
             pub fn touch() {}\npub fn after_block() {}\n\
             pub fn bad() -> bool { false }\npub fn after_drop() {}\n\
             pub fn after_rebind() {}\n",
        )]);
        let toks_site = |fname: &str, callee: &str| {
            let f = fn_id(&g, fname);
            g.edges
                .iter()
                .find(|e| e.caller == f && g.index.fns[e.callee].name == callee)
                .map(|e| (f, e.site))
                .unwrap_or_else(|| panic!("no edge {fname}→{callee}"))
        };
        let (f, site) = toks_site("scoped", "after_block");
        assert!(
            !m.fns[f].regions[0].contains(site),
            "block close ends the region"
        );
        let (f, site) = toks_site("dropped", "after_drop");
        assert!(
            !m.fns[f].regions[0].contains(site),
            "same-depth drop(g) ends the region"
        );
        let (f, site) = toks_site("rebound", "after_rebind");
        assert!(
            !m.fns[f].regions[0].contains(site),
            "shadowing rebind ends the region"
        );
    }

    #[test]
    fn branch_local_drop_does_not_end_the_outer_region() {
        let (m, g) = model_of(&[(
            "crates/serving/src/x.rs",
            "pub struct S { a: Mutex<u8> }\n\
             impl S {\n\
                 pub fn f(&self) {\n\
                     let g = self.a.lock();\n\
                     if cond() { drop(g); return; }\n\
                     still_held();\n\
                 }\n\
             }\n\
             pub fn cond() -> bool { false }\npub fn still_held() {}\n",
        )]);
        let f = fn_id(&g, "f");
        let site = g
            .edges
            .iter()
            .find(|e| e.caller == f && g.index.fns[e.callee].name == "still_held")
            .unwrap()
            .site;
        assert!(
            m.fns[f].regions[0].contains(site),
            "a drop inside a deeper branch must not end the region"
        );
    }

    #[test]
    fn unbound_temporary_guards_end_at_the_statement() {
        let (m, g) = model_of(&[(
            "crates/nn/src/par.rs",
            "pub fn store() {\n\
                 let slots: Vec<Mutex<u8>> = make();\n\
                 *slots[0].lock() = 1;\n\
                 after();\n\
             }\n\
             pub fn after() {}\n",
        )]);
        let f = fn_id(&g, "store");
        let r = &m.fns[f].regions[0];
        assert_eq!(r.lock, "nn::store::slots");
        let site = g
            .edges
            .iter()
            .find(|e| e.caller == f && g.index.fns[e.callee].name == "after")
            .unwrap()
            .site;
        assert!(!r.contains(site), "temporary guard dies at the `;`");
    }

    #[test]
    fn order_edges_direct_and_via_calls_with_cycle_detection() {
        let (m, _) = model_of(&[(
            "crates/serving/src/x.rs",
            "pub struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
             impl S {\n\
                 pub fn one(&self) { let g = self.a.lock(); self.take_b(); }\n\
                 pub fn take_b(&self) { let h = self.b.lock(); }\n\
                 pub fn two(&self) { let h = self.b.lock(); let g = self.a.lock(); }\n\
             }\n",
        )]);
        assert!(
            m.order_edges
                .iter()
                .any(|e| e.from == "S.a" && e.to == "S.b" && e.via.is_some()),
            "via-call edge a→b: {:?}",
            m.order_edges
        );
        assert!(
            m.order_edges
                .iter()
                .any(|e| e.from == "S.b" && e.to == "S.a" && e.via.is_none()),
            "direct edge b→a"
        );
        let cycles = m.cycles();
        assert_eq!(cycles.len(), 1, "{cycles:?}");
        assert!(cycles[0].iter().any(|e| e.from == "S.a" && e.to == "S.b"));
        assert!(cycles[0].iter().any(|e| e.from == "S.b" && e.to == "S.a"));
    }

    #[test]
    fn consistent_ordering_has_no_cycles_and_reentrancy_is_one() {
        let (m, _) = model_of(&[(
            "crates/serving/src/x.rs",
            "pub struct S { a: Mutex<u8>, b: Mutex<u8>, c: Mutex<u8> }\n\
             impl S {\n\
                 pub fn one(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
                 pub fn two(&self) { let g = self.b.lock(); let h = self.c.lock(); }\n\
             }\n",
        )]);
        assert!(m.cycles().is_empty(), "{:?}", m.cycles());
        let (m2, _) = model_of(&[(
            "crates/serving/src/x.rs",
            "pub struct S { a: Mutex<u8> }\n\
             impl S {\n\
                 pub fn outer(&self) { let g = self.a.lock(); self.inner(); }\n\
                 pub fn inner(&self) { let h = self.a.lock(); }\n\
             }\n",
        )]);
        let cycles = m2.cycles();
        assert_eq!(cycles.len(), 1, "re-entrant self-acquisition: {cycles:?}");
        assert!(cycles[0].iter().all(|e| e.from == "S.a" && e.to == "S.a"));
    }

    #[test]
    fn guard_returning_wrappers_acquire_for_the_caller() {
        let (m, g) = model_of(&[(
            "crates/serving/src/x.rs",
            "pub struct Shared { state: Mutex<u8> }\n\
             pub struct Server { shared: Arc<Shared> }\n\
             fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> { m.lock().unwrap() }\n\
             impl Server {\n\
                 pub fn submit(&self) { let state = lock(&self.shared.state); use_it(); }\n\
             }\n\
             pub fn use_it() {}\n",
        )]);
        let f = fn_id(&g, "submit");
        let r = &m.fns[f].regions[0];
        assert_eq!(r.lock, "Shared.state", "{:?}", m.fns[f].regions);
        assert_eq!(r.guard.as_deref(), Some("state"));
        assert!(!r.param_based);
        // The wrapper's own region is param-based and never exported.
        let w = fn_id(&g, "lock");
        assert!(m.fns[w].regions.iter().all(|r| r.param_based));
        assert!(m.acquires[w].is_empty(), "{:?}", m.acquires[w]);
    }

    #[test]
    fn condvar_waits_notifies_and_association_are_recorded() {
        let (m, g) = model_of(&[(
            "crates/serving/src/x.rs",
            "pub struct Shared { state: Mutex<u8>, work: Condvar }\n\
             impl Shared {\n\
                 pub fn park(&self) {\n\
                     let mut state = self.state.lock();\n\
                     while *state == 0 {\n\
                         state = self.work.wait(state);\n\
                     }\n\
                 }\n\
                 pub fn wake(&self) { self.work.notify_all(); }\n\
             }\n",
        )]);
        let park = fn_id(&g, "park");
        assert_eq!(m.fns[park].waits.len(), 1, "{:?}", m.fns[park].waits);
        let w = &m.fns[park].waits[0];
        assert_eq!(w.condvar.as_deref(), Some("Shared.work"));
        assert_eq!(w.guard_arg.as_deref(), Some("state"));
        let wake = fn_id(&g, "wake");
        assert_eq!(m.fns[wake].notifies.len(), 1);
        assert!(
            m.assoc["Shared.work"].contains("Shared.state"),
            "wait(guard) associates the condvar with its mutex: {:?}",
            m.assoc
        );
        // Plain `state = cv.wait(state)` must not end the region.
        let r = &m.fns[park].regions[0];
        assert!(r.contains(w.tok));
        // `ticket.wait()` (no guard arg, unresolvable receiver) is not a
        // condvar wait.
        let (m2, g2) = model_of(&[(
            "crates/serving/src/y.rs",
            "pub struct Ticket;\n\
             impl Ticket { pub fn wait(&self) {} }\n\
             pub fn drive(t: &Ticket) { t.wait(); }\n",
        )]);
        let d = fn_id(&g2, "drive");
        assert!(m2.fns[d].waits.is_empty(), "{:?}", m2.fns[d].waits);
    }

    #[test]
    fn held_sets_propagate_from_roots_through_call_sites() {
        let (m, g) = model_of(&[(
            "crates/serving/src/x.rs",
            "pub struct S { a: Mutex<u8> }\n\
             impl S {\n\
                 pub fn root(&self) { let g = self.a.lock(); self.mid(); self.outside(); }\n\
                 pub fn mid(&self) { self.leaf(); }\n\
                 pub fn leaf(&self) {}\n\
                 pub fn outside(&self) {}\n\
             }\n",
        )]);
        // `outside` is called after... actually inside the same region —
        // both calls sit before the body close, so both inherit `S.a`.
        let root = fn_id(&g, "root");
        let held = m.held_from(&g, &[root]);
        assert!(held[&fn_id(&g, "mid")].contains_key("S.a"));
        assert!(
            held[&fn_id(&g, "leaf")].contains_key("S.a"),
            "held sets are transitive: {:?}",
            held.get(&fn_id(&g, "leaf"))
        );
        assert_eq!(held[&root].len(), 0, "the root itself enters lock-free");
        let h = &held[&fn_id(&g, "mid")]["S.a"];
        assert_eq!(h.acquired_in, "serving::S::root");
    }

    #[test]
    fn model_records_locks_order_edges_and_associations() {
        let (m, _) = model_of(&[(
            "crates/serving/src/x.rs",
            "pub struct S { a: Mutex<u8>, b: Mutex<u8>, cv: Condvar }\n\
             impl S {\n\
                 pub fn f(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
                 pub fn park(&self) {\n\
                     let mut g = self.a.lock();\n\
                     while broke() { g = self.cv.wait(g); }\n\
                 }\n\
             }\n\
             pub fn broke() -> bool { true }\n",
        )]);
        assert_eq!(m.locks.get("S.a"), Some(&LockKind::Mutex));
        assert_eq!(m.locks.get("S.cv"), Some(&LockKind::Condvar));
        assert!(
            m.order_edges
                .iter()
                .any(|e| e.from == "S.a" && e.to == "S.b" && e.fn_disp == "serving::S::f"),
            "{:?}",
            m.order_edges
        );
        assert!(
            m.assoc.get("S.cv").is_some_and(|ms| ms.contains("S.a")),
            "{:?}",
            m.assoc
        );
    }
}
