//! Memory-shape model over the item index ([`crate::items`]) and call
//! graph ([`crate::callgraph`]): the IR behind the A14 capacity/growth
//! pass.
//!
//! Three views are built from the lexed workspace:
//!
//! - **Field types** — every `struct` declaration is re-parsed with its
//!   full field types (the item index keeps only base-type hints) into
//!   a [`StructLayout`], so owning containers (`Vec`/`VecDeque`/
//!   `String`/maps/sets) are told apart from borrows and scalars.
//! - **Allocation-site inventory** — every allocation-shaped call
//!   ([`alloc_shape`]) classified by loop depth and hot-path
//!   reachability from the memory root set ([`mem_roots`]: the A4 hot
//!   roots plus the dataset/graph/cascade generation surface and the
//!   serving queue entry points).
//! - **Lifetime classification** — structs that outlive a request
//!   (`*Server`/`*Pool`/`*Cache`/`*Registry` names, lock-owning service
//!   state, and everything those structs' fields reach) are *long-lived*;
//!   growable collections on them are the unbounded-growth candidates
//!   A14 audits for a remove/clear/bound site.

use crate::callgraph::CallGraph;
use crate::lexer::{matching_close, TokKind, Token};
use crate::passes::Context;
use std::collections::{BTreeMap, BTreeSet};

/// A parsed field type, shallow but deep enough to know what owns heap
/// memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ty {
    /// Primitive scalar (`u32`, `f64`, `bool`, `Duration`, ...).
    Prim(&'static str),
    /// A named (workspace or unknown) type.
    Named(String),
    Tuple(Vec<Ty>),
    /// `[T; N]`.
    Array(Box<Ty>, usize),
    /// `&T`, `&mut T`, `*const T`, `*mut T`, slices: borrowed — no
    /// owned heap.
    Ref,
    Vec(Box<Ty>),
    VecDeque(Box<Ty>),
    Str,
    Boxed(Box<Ty>),
    /// `Arc<T>` / `Rc<T>`: shared pointer + refcounted heap payload.
    Shared(Box<Ty>),
    Opt(Box<Ty>),
    /// `HashMap`/`BTreeMap`.
    Map(&'static str, Box<Ty>, Box<Ty>),
    /// `HashSet`/`BTreeSet`.
    Set(&'static str, Box<Ty>),
    /// `Mutex<T>` / `RwLock<T>`.
    Lock(Box<Ty>),
    Atomic,
    Condvar,
    /// Unparseable (generics, `impl Trait`, fn pointers).
    Unknown,
}

impl Ty {
    /// Is this a collection that can grow without bound at runtime?
    /// (`Box`/`Arc` allocate once; slices borrow.)
    pub fn growable(&self) -> bool {
        match self {
            Ty::Vec(_) | Ty::VecDeque(_) | Ty::Str | Ty::Map(..) | Ty::Set(..) => true,
            Ty::Opt(inner) | Ty::Lock(inner) | Ty::Shared(inner) | Ty::Boxed(inner) => {
                inner.growable()
            }
            _ => false,
        }
    }

    /// The base named type this field reaches, looking through every
    /// wrapper — drives the long-lived transitive closure.
    pub fn named_types(&self, out: &mut BTreeSet<String>) {
        match self {
            Ty::Named(n) => {
                out.insert(n.clone());
            }
            Ty::Tuple(parts) => {
                for p in parts {
                    p.named_types(out);
                }
            }
            Ty::Array(t, _)
            | Ty::Vec(t)
            | Ty::VecDeque(t)
            | Ty::Boxed(t)
            | Ty::Shared(t)
            | Ty::Opt(t)
            | Ty::Set(_, t)
            | Ty::Lock(t) => t.named_types(out),
            Ty::Map(_, k, v) => {
                k.named_types(out);
                v.named_types(out);
            }
            _ => {}
        }
    }

    /// Short human rendering for findings.
    pub fn describe(&self) -> String {
        match self {
            Ty::Prim(name) => (*name).to_string(),
            Ty::Named(n) => n.clone(),
            Ty::Tuple(parts) => format!(
                "({})",
                parts
                    .iter()
                    .map(Ty::describe)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            Ty::Array(t, n) => format!("[{}; {n}]", t.describe()),
            Ty::Ref => "&_".to_string(),
            Ty::Vec(t) => format!("Vec<{}>", t.describe()),
            Ty::VecDeque(t) => format!("VecDeque<{}>", t.describe()),
            Ty::Str => "String".to_string(),
            Ty::Boxed(t) => format!("Box<{}>", t.describe()),
            Ty::Shared(t) => format!("Arc<{}>", t.describe()),
            Ty::Opt(t) => format!("Option<{}>", t.describe()),
            Ty::Map(kind, k, v) => format!("{kind}<{}, {}>", k.describe(), v.describe()),
            Ty::Set(kind, t) => format!("{kind}<{}>", t.describe()),
            Ty::Lock(t) => format!("Mutex<{}>", t.describe()),
            Ty::Atomic => "Atomic".to_string(),
            Ty::Condvar => "Condvar".to_string(),
            Ty::Unknown => "?".to_string(),
        }
    }
}

/// One struct field with its parsed type.
#[derive(Debug, Clone)]
pub struct FieldInfo {
    pub name: String,
    pub ty: Ty,
}

/// Parsed field list of one workspace struct.
#[derive(Debug, Clone)]
pub struct StructLayout {
    pub crate_name: String,
    pub fields: Vec<FieldInfo>,
}

/// One allocation-shaped call site from the inventory.
#[derive(Debug, Clone)]
pub struct AllocSite {
    /// Index into the call graph's `index.fns`.
    pub fn_id: usize,
    pub line: usize,
    /// The [`alloc_shape`] rendering (`Vec::new`, `.clone()`, ...).
    pub shape: String,
    /// How many `for`/`while`/`loop` bodies enclose the site.
    pub loop_depth: usize,
    /// Reachable from [`mem_roots`]?
    pub hot: bool,
}

/// The assembled memory model.
#[derive(Debug, Default)]
pub struct MemModel {
    /// Struct name → parsed layout (first declaration wins).
    pub layouts: BTreeMap<String, StructLayout>,
    /// Struct names classified as long-lived.
    pub long_lived: BTreeSet<String>,
}

impl MemModel {
    /// Parse every non-test struct declaration in the context and
    /// classify lifetimes.
    pub fn build(ctx: &Context) -> MemModel {
        let mut model = MemModel::default();
        for file in &ctx.files {
            collect_structs(file, &mut model.layouts);
        }
        model.long_lived = classify_long_lived(&model.layouts);
        model
    }
}

/// The memory root set: everything the A4 hot roots cover, plus the
/// dataset/graph/cascade generation surface (the scale path ROADMAP
/// item 1 grows) and the serving queue entry points. A14's capacity
/// and growth checks run over functions reachable from here.
pub fn mem_roots(graph: &CallGraph) -> Vec<usize> {
    let mut roots: BTreeSet<usize> = graph.hot_roots().into_iter().collect();
    for (i, f) in graph.index.fns.iter().enumerate() {
        if f.in_test {
            continue;
        }
        let hot = match f.owner.as_deref() {
            Some("Dataset") | Some("FollowerGraph") => f.name.starts_with("generate"),
            Some("CascadeSimulator") => f.name.starts_with("simulate"),
            Some("PredictionServer") => f.is_pub,
            _ => false,
        } || (f.owner.is_none() && f.crate_name == "serving" && f.name == "worker_loop");
        if hot {
            roots.insert(i);
        }
    }
    roots.into_iter().collect()
}

/// Inventory every allocation-shaped call in non-test fn bodies,
/// classified by loop depth and reachability from [`mem_roots`].
pub fn alloc_sites(ctx: &Context, graph: &CallGraph) -> Vec<AllocSite> {
    let roots = mem_roots(graph);
    let reach = graph.reachable(&roots);
    let mut out = Vec::new();
    for (fid, item) in graph.index.fns.iter().enumerate() {
        if item.in_test {
            continue;
        }
        let Some((b0, b1)) = item.body else { continue };
        let file = &ctx.files[item.file];
        let depths = loop_depths(&file.tokens, b0, b1);
        for k in b0..b1 {
            if let Some(shape) = alloc_shape(&file.tokens, k) {
                out.push(AllocSite {
                    fn_id: fid,
                    line: file.tokens[k].line,
                    shape,
                    loop_depth: depths[k - b0] as usize,
                    hot: reach.contains_key(&fid),
                });
            }
        }
    }
    out
}

/// The allocation-shaped call at token `k`, if any: `Vec::new`/
/// `with_capacity`/`from`, `String::…` likewise, `vec!`, `format!`, and
/// `.to_vec()`/`.clone()`/`.collect()`/`.to_string()`/`.to_owned()`.
/// The A7 lock pass flags the same shapes inside critical sections.
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

/// Per-token loop-nesting depth over `[b0, b1)`. Loop headers track
/// paren/bracket depth so a closure in the iterated expression does not
/// end the header early.
pub fn loop_depths(toks: &[Token], b0: usize, b1: usize) -> Vec<u32> {
    let mut depths = vec![0u32; b1 - b0];
    for k in b0..b1 {
        let t = &toks[k];
        if t.kind != TokKind::Ident || !matches!(t.text.as_str(), "for" | "while" | "loop") {
            continue;
        }
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
            depths[m - b0] += 1;
        }
    }
    depths
}

/// Parse the type in token range `[s, e)` into a [`Ty`].
pub fn parse_ty(toks: &[Token], s: usize, e: usize) -> Ty {
    let mut k = s;
    // References, raw pointers and slices borrow — no heap.
    while k < e {
        let t = &toks[k];
        if t.is_punct("&") || t.is_punct("'") || t.is_ident("mut") || t.is_ident("dyn") {
            if t.is_punct("&") || t.is_punct("*") {
                return Ty::Ref;
            }
            k += 1;
            continue;
        }
        if t.is_punct("*") {
            return Ty::Ref;
        }
        break;
    }
    let Some(t) = toks.get(k).filter(|_| k < e) else {
        return Ty::Unknown;
    };
    if t.is_punct("(") {
        let Some(close) = matching_close(toks, k).filter(|&c| c <= e) else {
            return Ty::Unknown;
        };
        let parts: Vec<Ty> = split_ty_list(toks, k + 1, close)
            .into_iter()
            .map(|(ps, pe)| parse_ty(toks, ps, pe))
            .collect();
        return Ty::Tuple(parts);
    }
    if t.is_punct("[") {
        let Some(close) = matching_close(toks, k).filter(|&c| c <= e) else {
            return Ty::Unknown;
        };
        let semi = (k + 1..close).find(|&i| toks[i].is_punct(";"));
        let Some(semi) = semi else {
            // `[T]` slice: unsized, only ever behind a pointer.
            return Ty::Ref;
        };
        let elem = parse_ty(toks, k + 1, semi);
        let n = toks
            .get(semi + 1)
            .and_then(|t| t.text.parse::<usize>().ok())
            .unwrap_or(0);
        return Ty::Array(Box::new(elem), n);
    }
    if t.kind != TokKind::Ident {
        return Ty::Unknown;
    }
    // Walk the path (`std::collections::HashMap`) to the final segment.
    let mut head = k;
    let mut j = k + 1;
    while j + 1 < e && toks[j].is_punct("::") && toks[j + 1].kind == TokKind::Ident {
        head = j + 1;
        j += 2;
    }
    let name = toks[head].text.as_str();
    // Generic arguments of the final segment, if any.
    let args: Vec<(usize, usize)> = if toks
        .get(j)
        .filter(|_| j < e)
        .is_some_and(|t| t.is_punct("<"))
    {
        generic_args(toks, j, e)
    } else {
        Vec::new()
    };
    let arg = |i: usize| -> Ty {
        args.get(i)
            .map(|&(s, e)| parse_ty(toks, s, e))
            .unwrap_or(Ty::Unknown)
    };
    match name {
        "u8" | "i8" | "bool" | "u16" | "i16" | "u32" | "i32" | "f32" | "char" | "TopicId"
        | "u64" | "i64" | "f64" | "usize" | "isize" | "u128" | "i128" => Ty::Prim(prim_name(name)),
        "String" | "PathBuf" => Ty::Str,
        "Vec" => Ty::Vec(Box::new(arg(0))),
        "VecDeque" => Ty::VecDeque(Box::new(arg(0))),
        "Box" => Ty::Boxed(Box::new(arg(0))),
        "Arc" | "Rc" => Ty::Shared(Box::new(arg(0))),
        "Option" => Ty::Opt(Box::new(arg(0))),
        "HashMap" => Ty::Map("HashMap", Box::new(arg(0)), Box::new(arg(1))),
        "BTreeMap" => Ty::Map("BTreeMap", Box::new(arg(0)), Box::new(arg(1))),
        "HashSet" => Ty::Set("HashSet", Box::new(arg(0))),
        "BTreeSet" => Ty::Set("BTreeSet", Box::new(arg(0))),
        "Mutex" | "RwLock" => Ty::Lock(Box::new(arg(0))),
        "AtomicBool" | "AtomicU8" | "AtomicU32" | "AtomicI32" | "AtomicU64" | "AtomicI64"
        | "AtomicUsize" => Ty::Atomic,
        "Condvar" => Ty::Condvar,
        "Duration" | "Instant" => Ty::Prim("Duration"),
        _ => Ty::Named(toks[head].text.clone()),
    }
}

/// Split `toks[start..end]` on commas at zero bracket *and* angle
/// depth — unlike [`crate::lexer::split_args`], this keeps
/// `HashMap<K, V>` type arguments and struct field lists intact
/// (`->`/`=>` are fused tokens, so their `>` never miscounts).
fn split_ty_list(toks: &[Token], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut s = start;
    for j in start..end {
        match toks[j].text.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth -= 1,
            "," if depth == 0 => {
                out.push((s, j));
                s = j + 1;
            }
            _ => {}
        }
    }
    if s < end {
        out.push((s, end));
    }
    out
}

/// Intern a primitive name (the lexer token text is short-lived).
fn prim_name(name: &str) -> &'static str {
    const PRIMS: [&str; 17] = [
        "u8", "i8", "bool", "u16", "i16", "u32", "i32", "f32", "char", "TopicId", "u64", "i64",
        "f64", "usize", "isize", "u128", "i128",
    ];
    PRIMS.iter().find(|p| **p == name).copied().unwrap_or("?")
}

/// Top-level comma splits of the generic group opening at `open`
/// (which must be `<`), as token ranges.
fn generic_args(toks: &[Token], open: usize, e: usize) -> Vec<(usize, usize)> {
    let close = crate::items::skip_generics(toks, open);
    let close = close.min(e);
    if close <= open + 2 {
        return Vec::new();
    }
    // `skip_generics` returns the position after the closing `>`.
    let inner_end = close - 1;
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = open + 1;
    for i in open + 1..inner_end {
        match toks[i].text.as_str() {
            "<" | "(" | "[" => depth += 1,
            ">" | ")" | "]" => depth -= 1,
            "," if depth == 0 => {
                out.push((start, i));
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < inner_end {
        out.push((start, inner_end));
    }
    out
}

/// Scan one file for non-test `struct Name { field: Type, ... }`
/// declarations, parsing every field's full type.
fn collect_structs(file: &crate::passes::AnalyzedFile, out: &mut BTreeMap<String, StructLayout>) {
    let toks = &file.tokens;
    let mut j = 0;
    while j < toks.len() {
        if !toks[j].is_ident("struct") || toks[j].in_test {
            j += 1;
            continue;
        }
        let Some(name_tok) = toks.get(j + 1).filter(|t| t.kind == TokKind::Ident) else {
            j += 1;
            continue;
        };
        let mut k = j + 2;
        if toks.get(k).is_some_and(|t| t.is_punct("<")) {
            k = crate::items::skip_generics(toks, k);
        }
        let Some(open) = toks.get(k).filter(|t| t.is_punct("{")).map(|_| k) else {
            j += 2; // tuple/unit struct: no named fields
            continue;
        };
        let Some(close) = matching_close(toks, open) else {
            j += 2;
            continue;
        };
        let mut fields = Vec::new();
        for (fs, fe) in split_ty_list(toks, open + 1, close) {
            let Some(colon) = (fs..fe).find(|&i| toks[i].is_punct(":")) else {
                continue;
            };
            if colon == fs || toks[colon - 1].kind != TokKind::Ident {
                continue;
            }
            fields.push(FieldInfo {
                name: toks[colon - 1].text.clone(),
                ty: parse_ty(toks, colon + 1, fe),
            });
        }
        out.entry(name_tok.text.clone()).or_insert(StructLayout {
            crate_name: file.crate_name().to_string(),
            fields,
        });
        j = close + 1;
    }
}

/// Long-lived classification: name-pattern seeds (`*Server`, `*Pool`,
/// `*Cache`, `*Registry`) plus lock-owning service state, closed
/// transitively over field types (the queue state inside a server's
/// mutex is as long-lived as the server).
fn classify_long_lived(layouts: &BTreeMap<String, StructLayout>) -> BTreeSet<String> {
    let mut long: BTreeSet<String> = BTreeSet::new();
    for (name, layout) in layouts {
        let named_long = name.ends_with("Server")
            || name.ends_with("Pool")
            || name.ends_with("Cache")
            || name.ends_with("Registry");
        let owns_sync = layout.fields.iter().any(|f| ty_owns_sync(&f.ty));
        if named_long || owns_sync {
            long.insert(name.clone());
        }
    }
    // Transitive closure over field base types.
    loop {
        let mut added = false;
        let frontier: Vec<String> = long.iter().cloned().collect();
        for name in frontier {
            let Some(layout) = layouts.get(&name) else {
                continue;
            };
            for field in &layout.fields {
                let mut named = BTreeSet::new();
                field.ty.named_types(&mut named);
                for n in named {
                    if layouts.contains_key(&n) && long.insert(n) {
                        added = true;
                    }
                }
            }
        }
        if !added {
            break;
        }
    }
    long
}

fn ty_owns_sync(ty: &Ty) -> bool {
    match ty {
        Ty::Lock(_) | Ty::Condvar => true,
        Ty::Opt(t) | Ty::Boxed(t) | Ty::Shared(t) | Ty::Vec(t) | Ty::VecDeque(t) => ty_owns_sync(t),
        Ty::Tuple(parts) => parts.iter().any(ty_owns_sync),
        _ => false,
    }
}

/// Growth-verb method names: calling one of these on a collection field
/// adds elements.
pub const GROW_VERBS: [&str; 7] = [
    "push",
    "push_back",
    "push_front",
    "insert",
    "extend",
    "append",
    "entry",
];

/// Shrink-verb method names: calling one of these removes elements (or
/// caps the collection).
pub const SHRINK_VERBS: [&str; 11] = [
    "pop",
    "pop_back",
    "pop_front",
    "remove",
    "swap_remove",
    "clear",
    "drain",
    "truncate",
    "retain",
    "split_off",
    "take",
];

/// Occurrences of `.<field>.<verb>(` for `field` with any verb in
/// `verbs`, in non-test code of files whose crate matches `crate_name`.
/// Returns (file index, token index of the verb) pairs.
pub fn field_method_sites(
    ctx: &Context,
    crate_name: &str,
    field: &str,
    verbs: &[&str],
) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (fi, file) in ctx.files.iter().enumerate() {
        if file.crate_name() != crate_name {
            continue;
        }
        let toks = &file.tokens;
        for k in 3..toks.len() {
            let t = &toks[k];
            if t.in_test || t.kind != TokKind::Ident {
                continue;
            }
            if !verbs.iter().any(|v| t.text == *v) {
                continue;
            }
            if toks[k - 1].is_punct(".")
                && toks[k - 2].is_ident(field)
                && toks[k - 3].is_punct(".")
                && toks.get(k + 1).is_some_and(|n| n.is_punct("("))
            {
                out.push((fi, k));
            }
        }
    }
    out
}

/// Does the crate bound-check `.<field>.len()` against anything?
/// (A comparison within a few tokens of the `len` call counts — the
/// serving queue's `pending.len() >= queue_capacity` backpressure is
/// the canonical shape.)
pub fn has_len_bound(ctx: &Context, crate_name: &str, field: &str) -> bool {
    for file in &ctx.files {
        if file.crate_name() != crate_name {
            continue;
        }
        let toks = &file.tokens;
        for k in 3..toks.len() {
            let t = &toks[k];
            if t.in_test || !t.is_ident("len") {
                continue;
            }
            if !(toks[k - 1].is_punct(".")
                && toks[k - 2].is_ident(field)
                && toks[k - 3].is_punct("."))
            {
                continue;
            }
            let end = (k + 8).min(toks.len());
            if (k + 1..end).any(|m| matches!(toks[m].text.as_str(), ">=" | "<=" | ">" | "<")) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse the field type of the first `struct` in `src`.
    fn first_field_ty(src: &str) -> Ty {
        let ctx = Context::of(&[("crates/serving/src/server.rs", src)]);
        let model = MemModel::build(&ctx);
        let layout = model.layouts.values().next().expect("one struct");
        layout.fields[0].ty.clone()
    }

    #[test]
    fn container_field_types_parse_through_paths_and_tuples() {
        let ty = first_field_ty("pub struct QueueState { pending: VecDeque<(u64, Arc<Slot>)> }\n");
        assert_eq!(
            ty,
            Ty::VecDeque(Box::new(Ty::Tuple(vec![
                Ty::Prim("u64"),
                Ty::Shared(Box::new(Ty::Named("Slot".into())))
            ])))
        );
        assert_eq!(ty.describe(), "VecDeque<(u64, Arc<Slot>)>");
        assert!(ty.growable());

        let ty = first_field_ty(
            "pub struct Index { by_user: std::collections::HashMap<u32, Vec<u32>> }\n",
        );
        assert_eq!(ty.describe(), "HashMap<u32, Vec<u32>>");
        assert!(ty.growable());
    }

    #[test]
    fn growth_looks_through_locks_and_options_but_not_scalars() {
        let ty = first_field_ty("pub struct Slot { result: Mutex<Option<Vec<u8>>> }\n");
        assert_eq!(ty.describe(), "Mutex<Option<Vec<u8>>>");
        assert!(ty.growable(), "a locked optional Vec still grows");
        let ty = first_field_ty("pub struct Slot { result: Mutex<Option<u64>> }\n");
        assert!(!ty.growable());
        let ty = first_field_ty("pub struct Slot { shared: Arc<Slot> }\n");
        assert!(!ty.growable(), "Arc allocates once");
    }

    #[test]
    fn long_lived_classification_seeds_and_closes_transitively() {
        let ctx = Context::of(&[(
            "crates/serving/src/server.rs",
            "pub struct PredictionServer { shared: Arc<Shared> }\n\
             pub struct Shared { state: Mutex<QueueState> }\n\
             pub struct QueueState { pending: VecDeque<u64> }\n\
             pub struct WorkerPool { handles: Vec<u64> }\n\
             pub struct Request { id: u64 }\n",
        )]);
        let model = MemModel::build(&ctx);
        for name in ["PredictionServer", "Shared", "QueueState", "WorkerPool"] {
            assert!(
                model.long_lived.contains(name),
                "{name} should be long-lived"
            );
        }
        assert!(!model.long_lived.contains("Request"));
    }

    #[test]
    fn loop_depths_count_nesting() {
        let ctx = Context::of(&[(
            "crates/nn/src/x.rs",
            "pub fn f(xs: &[u8]) {\n\
                 let a = 1;\n\
                 for x in xs {\n\
                     let b = 2;\n\
                     while *x > 0 {\n\
                         let c = 3;\n\
                     }\n\
                 }\n\
             }\n",
        )]);
        let toks = &ctx.files[0].tokens;
        let depths = loop_depths(toks, 0, toks.len());
        let depth_at = |name: &str| {
            let k = toks.iter().position(|t| t.is_ident(name)).unwrap();
            depths[k]
        };
        assert_eq!(depth_at("a"), 0);
        assert_eq!(depth_at("b"), 1);
        assert_eq!(depth_at("c"), 2);
    }

    #[test]
    fn field_method_sites_and_len_bounds_are_found() {
        let ctx = Context::of(&[(
            "crates/serving/src/server.rs",
            "pub fn submit(&self) {\n\
                 if state.pending.len() >= self.queue_capacity { return; }\n\
                 state.pending.push_back(1);\n\
             }\n\
             pub fn drainer(&self) { state.pending.drain(..2); }\n",
        )]);
        let grows = field_method_sites(&ctx, "serving", "pending", &GROW_VERBS);
        assert_eq!(grows.len(), 1);
        let shrinks = field_method_sites(&ctx, "serving", "pending", &SHRINK_VERBS);
        assert_eq!(shrinks.len(), 1);
        assert!(has_len_bound(&ctx, "serving", "pending"));
        assert!(!has_len_bound(&ctx, "serving", "nonexistent"));
    }

    #[test]
    fn mem_roots_extend_the_hot_roots_with_the_generation_surface() {
        let ctx = Context::of(&[(
            "crates/socialsim/src/dataset.rs",
            "pub struct Dataset;\n\
             impl Dataset { pub fn generate(n: usize) -> usize { n } }\n\
             pub fn helper() {}\n",
        )]);
        let graph = ctx.graph();
        let roots = mem_roots(graph);
        let names: Vec<String> = roots
            .iter()
            .map(|&i| graph.index.fns[i].display())
            .collect();
        assert!(
            names.iter().any(|n| n == "socialsim::Dataset::generate"),
            "{names:?}"
        );
        assert!(!names.iter().any(|n| n == "socialsim::helper"));
    }

    #[test]
    fn alloc_sites_classify_depth_and_heat() {
        let ctx = Context::of(&[(
            "crates/socialsim/src/dataset.rs",
            "pub struct Dataset;\n\
             impl Dataset {\n\
                 pub fn generate(n: usize) -> usize {\n\
                     let mut v: Vec<usize> = Vec::new();\n\
                     for i in 0..n { v.push(i); let s = i.to_string(); }\n\
                     v.len()\n\
                 }\n\
             }\n\
             pub fn cold() { let w: Vec<u8> = Vec::new(); }\n",
        )]);
        let sites = alloc_sites(&ctx, ctx.graph());
        let new_site = sites
            .iter()
            .find(|s| s.shape == "Vec::new" && s.hot)
            .expect("hot Vec::new inventoried");
        assert_eq!(new_site.loop_depth, 0);
        let to_string = sites
            .iter()
            .find(|s| s.shape == ".to_string()")
            .expect("loop allocation inventoried");
        assert_eq!(to_string.loop_depth, 1);
        assert!(sites.iter().any(|s| s.shape == "Vec::new" && !s.hot));
    }
}
