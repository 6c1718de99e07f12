//! Item indexing over the lexed token streams: every `fn` in the
//! workspace, with its enclosing `impl`/`trait` owner, body token range,
//! and return-type class, plus struct field types and `impl Trait for
//! Type` relations. This is the symbol table the call-graph layer
//! ([`crate::callgraph`]) resolves against.
//!
//! The indexer is purely syntactic (no name resolution, no macro
//! expansion): generic parameters are stripped down to the base type
//! ident (`impl<T: Cost> Forest<T>` owns its methods as `Forest`), trait
//! default methods are owned by the trait name, and nested `fn` items are
//! indexed in their own right (closures are not — their tokens belong to
//! the enclosing fn's body, which is exactly what the reachability passes
//! want for closures handed to `nn::par`).

use crate::lexer::{matching_close, split_args, TokKind, Token};
use crate::passes::{crate_of, AnalyzedFile};
use std::collections::{BTreeMap, BTreeSet};

/// One indexed `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl` type or `trait` name (generics stripped), if any.
    pub owner: Option<String>,
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// Crate the file belongs to.
    pub crate_name: String,
    /// Index of the file in [`crate::passes::Context::files`].
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token range of the body (exclusive of the braces); `None` for
    /// bodiless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// Token range of the parameter list (exclusive of the parens).
    pub params: Option<(usize, usize)>,
    /// `Result` appears in the declared return type.
    pub returns_result: bool,
    /// A `MutexGuard`/`RwLock*Guard` appears in the declared return type
    /// — calling this fn acquires a lock the caller then holds.
    pub returns_guard: bool,
    /// `f32`/`f64` appears in the declared return type — the floatflow
    /// engine treats this fn's summary as a float value.
    pub returns_float: bool,
    pub is_pub: bool,
    /// Declared inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

impl FnItem {
    /// `Owner::name` or bare `name`.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }

    /// `crate::Owner::name` — the display form used in findings.
    pub fn display(&self) -> String {
        format!("{}::{}", self.crate_name, self.qualified())
    }
}

/// The workspace symbol table.
#[derive(Debug, Default)]
pub struct ItemIndex {
    pub fns: Vec<FnItem>,
    /// `(type, field) -> base field type` for receiver-type hints.
    pub fields: BTreeMap<(String, String), String>,
    /// `(type, trait)` pairs from `impl Trait for Type`.
    pub trait_impls: Vec<(String, String)>,
    /// Every type/trait name that owns items (impl targets, traits,
    /// structs).
    pub owners: BTreeSet<String>,
}

impl ItemIndex {
    /// Traits implemented by `ty`, in deterministic order.
    pub fn traits_of(&self, ty: &str) -> Vec<&str> {
        let mut out: Vec<&str> = self
            .trait_impls
            .iter()
            .filter(|(t, _)| t == ty)
            .map(|(_, tr)| tr.as_str())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Index every file.
pub fn index(files: &[AnalyzedFile]) -> ItemIndex {
    let mut ix = ItemIndex::default();
    for (fi, file) in files.iter().enumerate() {
        index_file(fi, file, &mut ix);
    }
    ix
}

/// Advance past a `<...>` generic group starting at `j` (which must be
/// `<`). Angle depth only — `->`/`=>` are fused by the lexer, so their
/// `>` never miscounts. Bails (returning the bail position) on `{` / `;`
/// so malformed input cannot run away.
pub(crate) fn skip_generics(tokens: &[Token], mut j: usize) -> usize {
    let mut depth = 0i32;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            "{" | ";" => return j,
            _ => {}
        }
        j += 1;
    }
    j
}

/// Parse a type path at `k` (`&'a mut crate::tensor::Matrix<f64>`),
/// returning the base type ident and the position after the path.
fn parse_type_path(tokens: &[Token], mut k: usize) -> Option<(String, usize)> {
    // Skip reference/lifetime/mutability/dyn prefixes.
    loop {
        match tokens.get(k)? {
            t if t.is_punct("&") => k += 1,
            t if t.is_punct("'") => k += 2, // `'a`
            t if t.is_ident("mut") || t.is_ident("dyn") => k += 1,
            _ => break,
        }
    }
    let mut name = match tokens.get(k) {
        Some(t) if t.kind == TokKind::Ident => t.text.clone(),
        _ => return None,
    };
    k += 1;
    if tokens.get(k).is_some_and(|t| t.is_punct("<")) {
        k = skip_generics(tokens, k);
    }
    while tokens.get(k).is_some_and(|t| t.is_punct("::"))
        && tokens.get(k + 1).is_some_and(|t| t.kind == TokKind::Ident)
    {
        name = tokens[k + 1].text.clone();
        k += 2;
        if tokens.get(k).is_some_and(|t| t.is_punct("<")) {
            k = skip_generics(tokens, k);
        }
    }
    Some((name, k))
}

/// First `{` at paren/bracket depth 0 from `k`. Bails when the depth
/// goes negative: that means `k` sat inside an enclosing delimiter
/// (e.g. a param-position `impl FnMut(...)`) and the next brace at
/// "depth 0" would be an unrelated closure body, not this item's —
/// latching onto it used to silently skip every fn in between.
fn find_body_open(tokens: &[Token], mut k: usize) -> Option<usize> {
    let mut depth = 0i32;
    while k < tokens.len() {
        match tokens[k].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => {
                depth -= 1;
                if depth < 0 {
                    return None;
                }
            }
            "{" if depth == 0 => return Some(k),
            ";" if depth == 0 => return None,
            _ => {}
        }
        k += 1;
    }
    None
}

/// Base type ident of the token range `[s, e)`, looking through
/// `Option`/`Box`/`Rc`/`Arc` wrappers (`Option<Dense>` hints `Dense`).
pub(crate) fn base_type(tokens: &[Token], s: usize, e: usize) -> Option<String> {
    let mut start = s;
    let (mut name, _) = parse_type_path_bounded(tokens, start, e)?;
    while matches!(name.as_str(), "Option" | "Box" | "Rc" | "Arc") {
        // Step inside the wrapper's `<...>` and re-parse from there, so
        // nested wrappers (`Option<Box<T>>`) terminate.
        let open = (start..e).find(|&i| tokens[i].is_punct("<"))?;
        start = open + 1;
        let (inner, _) = parse_type_path_bounded(tokens, start, e)?;
        name = inner;
    }
    Some(name)
}

fn parse_type_path_bounded(tokens: &[Token], s: usize, e: usize) -> Option<(String, usize)> {
    let (name, k) = parse_type_path(&tokens[..e.min(tokens.len())], s)?;
    Some((name, k))
}

struct Scope {
    owner: Option<String>,
    close: usize,
}

fn index_file(fi: usize, file: &AnalyzedFile, ix: &mut ItemIndex) {
    let toks = &file.tokens;
    let path = file.source.path.clone();
    let krate = crate_of(&path).to_string();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut j = 0;
    while j < toks.len() {
        while scopes.last().is_some_and(|s| j > s.close) {
            scopes.pop();
        }
        let t = &toks[j];
        if t.kind != TokKind::Ident {
            j += 1;
            continue;
        }
        match t.text.as_str() {
            "impl" => {
                if let Some((owner, trait_name, open)) = parse_impl_header(toks, j) {
                    if let Some(close) = matching_close(toks, open) {
                        ix.owners.insert(owner.clone());
                        if let Some(tr) = trait_name {
                            ix.trait_impls.push((owner.clone(), tr));
                        }
                        scopes.push(Scope {
                            owner: Some(owner),
                            close,
                        });
                        j = open + 1;
                        continue;
                    }
                }
                j += 1;
            }
            "trait" => {
                let name = match toks.get(j + 1) {
                    Some(n) if n.kind == TokKind::Ident => n.text.clone(),
                    _ => {
                        j += 1;
                        continue;
                    }
                };
                let Some(open) = find_body_open(toks, j + 2) else {
                    j += 2;
                    continue;
                };
                let Some(close) = matching_close(toks, open) else {
                    j += 2;
                    continue;
                };
                ix.owners.insert(name.clone());
                scopes.push(Scope {
                    owner: Some(name),
                    close,
                });
                j = open + 1;
            }
            "struct" => {
                j = index_struct(toks, j, ix);
            }
            "fn" => {
                let Some(parsed) = parse_fn(toks, j) else {
                    j += 1;
                    continue;
                };
                let owner = scopes.last().and_then(|s| s.owner.clone());
                ix.fns.push(FnItem {
                    name: parsed.name,
                    owner,
                    path: path.clone(),
                    crate_name: krate.clone(),
                    file: fi,
                    line: t.line,
                    body: parsed.body,
                    params: parsed.params,
                    returns_result: parsed.returns_result,
                    returns_guard: parsed.returns_guard,
                    returns_float: parsed.returns_float,
                    is_pub: is_pub_before(toks, j),
                    in_test: t.in_test,
                });
                // Keep scanning inside the body so nested fns are
                // indexed too.
                j += 2;
            }
            _ => j += 1,
        }
    }
}

/// `impl [<G>] Type {` or `impl [<G>] Trait for Type {` — returns
/// (owner type, implemented trait, index of the opening brace).
fn parse_impl_header(toks: &[Token], j: usize) -> Option<(String, Option<String>, usize)> {
    let mut k = j + 1;
    if toks.get(k)?.is_punct("<") {
        k = skip_generics(toks, k);
    }
    let (first, after) = parse_type_path(toks, k)?;
    k = after;
    if toks.get(k).is_some_and(|t| t.is_ident("for")) {
        let (second, after2) = parse_type_path(toks, k + 1)?;
        let open = find_body_open(toks, after2)?;
        return Some((second, Some(first), open));
    }
    let open = find_body_open(toks, k)?;
    Some((first, None, open))
}

/// Record `struct Name { field: Type, ... }` fields; returns the next
/// scan position.
fn index_struct(toks: &[Token], j: usize, ix: &mut ItemIndex) -> usize {
    let name = match toks.get(j + 1) {
        Some(n) if n.kind == TokKind::Ident => n.text.clone(),
        _ => return j + 1,
    };
    let mut k = j + 2;
    if toks.get(k).is_some_and(|t| t.is_punct("<")) {
        k = skip_generics(toks, k);
    }
    if toks.get(k).is_some_and(|t| t.is_ident("where")) {
        k = match find_body_open(toks, k) {
            Some(open) => open,
            None => return j + 1,
        };
    }
    match toks.get(k) {
        Some(t) if t.is_punct("{") => {}
        // Tuple / unit struct: nothing to record.
        _ => return j + 2,
    }
    let Some(close) = matching_close(toks, k) else {
        return j + 2;
    };
    ix.owners.insert(name.clone());
    for (fs, fe) in split_args(toks, k + 1, close) {
        // `[pub [(crate)]] field : Type`
        let Some(colon) = (fs..fe).find(|&i| toks[i].is_punct(":")) else {
            continue;
        };
        if colon == fs || toks[colon - 1].kind != TokKind::Ident {
            continue;
        }
        let fname = toks[colon - 1].text.clone();
        if let Some(base) = base_type(toks, colon + 1, fe) {
            ix.fields.insert((name.clone(), fname), base);
        }
    }
    close + 1
}

struct ParsedFn {
    name: String,
    body: Option<(usize, usize)>,
    params: Option<(usize, usize)>,
    returns_result: bool,
    returns_guard: bool,
    returns_float: bool,
}

/// Parse the `fn` signature at `j`; `None` when this is not a function
/// item (e.g. an `fn(usize) -> f64` pointer type).
fn parse_fn(toks: &[Token], j: usize) -> Option<ParsedFn> {
    let name_tok = toks.get(j + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let name = name_tok.text.clone();
    let mut k = j + 2;
    if toks.get(k)?.is_punct("<") {
        k = skip_generics(toks, k);
    }
    if !toks.get(k)?.is_punct("(") {
        return None;
    }
    let params_close = matching_close(toks, k)?;
    let params = Some((k + 1, params_close));
    let mut m = params_close + 1;
    let mut depth = 0i32;
    let (mut arrow, mut in_where, mut returns_result, mut returns_guard) =
        (false, false, false, false);
    let mut returns_float = false;
    while m < toks.len() {
        let t = &toks[m];
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "->" if depth == 0 && !in_where => arrow = true,
            "where" if depth == 0 => in_where = true,
            "Result" if arrow && !in_where => returns_result = true,
            "f32" | "f64" if arrow && !in_where => returns_float = true,
            "MutexGuard" | "RwLockReadGuard" | "RwLockWriteGuard" if arrow && !in_where => {
                returns_guard = true
            }
            "{" if depth == 0 => {
                let close = matching_close(toks, m)?;
                return Some(ParsedFn {
                    name,
                    body: Some((m + 1, close)),
                    params,
                    returns_result,
                    returns_guard,
                    returns_float,
                });
            }
            ";" if depth == 0 => {
                return Some(ParsedFn {
                    name,
                    body: None,
                    params,
                    returns_result,
                    returns_guard,
                    returns_float,
                });
            }
            _ => {}
        }
        m += 1;
    }
    None
}

/// Is the `fn` at `j` preceded by a `pub` (through `const`/`unsafe`/
/// `async`/`pub(crate)` modifiers)?
fn is_pub_before(toks: &[Token], j: usize) -> bool {
    let mut k = j;
    while k > 0 {
        let p = &toks[k - 1];
        let skip = matches!(p.text.as_str(), "const" | "unsafe" | "async" | "crate")
            || p.is_punct("(")
            || p.is_punct(")");
        if skip {
            k -= 1;
        } else {
            return p.is_ident("pub");
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::Context;

    fn index_of(files: &[(&str, &str)]) -> ItemIndex {
        index(&Context::of(files).files)
    }

    fn find<'a>(ix: &'a ItemIndex, owner: Option<&str>, name: &str) -> &'a FnItem {
        ix.fns
            .iter()
            .find(|f| f.owner.as_deref() == owner && f.name == name)
            .unwrap_or_else(|| panic!("missing {owner:?}::{name} in {:?}", ix.fns))
    }

    #[test]
    fn free_and_method_fns_are_indexed() {
        let ix = index_of(&[(
            "crates/nn/src/x.rs",
            "pub fn free(a: usize) -> usize { a }\n\
             struct Foo { w: Matrix }\n\
             impl Foo {\n\
                 pub fn forward(&mut self, x: &Matrix) -> Matrix { self.w.clone() }\n\
                 fn private_helper(&self) {}\n\
             }\n",
        )]);
        let free = find(&ix, None, "free");
        assert!(free.is_pub && free.body.is_some() && !free.returns_result);
        let fwd = find(&ix, Some("Foo"), "forward");
        assert!(fwd.is_pub);
        assert_eq!(fwd.display(), "nn::Foo::forward");
        assert!(!find(&ix, Some("Foo"), "private_helper").is_pub);
        assert_eq!(
            ix.fields.get(&("Foo".into(), "w".into())).unwrap(),
            "Matrix"
        );
    }

    #[test]
    fn generic_impls_strip_to_the_base_type() {
        let ix = index_of(&[(
            "crates/ml/src/x.rs",
            "impl<T: Cost + Clone> Forest<T> where T: Send {\n\
                 pub fn fit(&mut self, n: usize) -> Result<(), FitError> { Ok(()) }\n\
             }\n\
             impl<'a> ops::Index<usize> for Matrix {\n\
                 fn index(&self, i: usize) -> &f64 { self.get(i) }\n\
             }\n",
        )]);
        let fit = find(&ix, Some("Forest"), "fit");
        assert!(fit.returns_result);
        let idx = find(&ix, Some("Matrix"), "index");
        assert_eq!(idx.owner.as_deref(), Some("Matrix"));
        assert!(ix.trait_impls.contains(&("Matrix".into(), "Index".into())));
    }

    #[test]
    fn trait_default_methods_belong_to_the_trait() {
        let ix = index_of(&[(
            "crates/ml/src/x.rs",
            "pub trait Classifier {\n\
                 fn predict_proba(&self, x: &[f64]) -> f64;\n\
                 fn predict(&self, x: &[f64]) -> bool {\n\
                     self.predict_proba(x) >= 0.5\n\
                 }\n\
             }\n",
        )]);
        let decl = find(&ix, Some("Classifier"), "predict_proba");
        assert!(decl.body.is_none(), "bodiless declaration");
        let default = find(&ix, Some("Classifier"), "predict");
        assert!(default.body.is_some(), "default method has a body");
    }

    #[test]
    fn fn_pointer_types_are_not_items_and_nested_fns_are() {
        let ix = index_of(&[(
            "crates/core/src/x.rs",
            "pub fn outer(cb: fn(usize) -> f64) -> f64 {\n\
                 fn inner(v: usize) -> f64 { v as f64 }\n\
                 cb(1) + inner(2)\n\
             }\n",
        )]);
        assert_eq!(ix.fns.len(), 2, "{:?}", ix.fns);
        assert!(ix.fns.iter().any(|f| f.name == "outer"));
        assert!(ix.fns.iter().any(|f| f.name == "inner"));
    }

    #[test]
    fn option_wrapped_fields_hint_the_inner_type() {
        let ix = index_of(&[(
            "crates/core/src/x.rs",
            "pub struct Model {\n\
                 pub head: Option<Dense>,\n\
                 scratch: Box<Matrix>,\n\
                 name: String,\n\
             }\n",
        )]);
        assert_eq!(
            ix.fields.get(&("Model".into(), "head".into())).unwrap(),
            "Dense"
        );
        assert_eq!(
            ix.fields.get(&("Model".into(), "scratch".into())).unwrap(),
            "Matrix"
        );
        assert_eq!(
            ix.fields.get(&("Model".into(), "name".into())).unwrap(),
            "String"
        );
    }

    #[test]
    fn test_region_items_are_marked() {
        let ix = index_of(&[(
            "crates/nn/src/x.rs",
            "pub fn lib() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn helper() {}\n\
             }\n",
        )]);
        assert!(!find(&ix, None, "lib").in_test);
        assert!(find(&ix, None, "helper").in_test);
    }

    #[test]
    fn guard_returning_fns_are_marked() {
        let ix = index_of(&[(
            "crates/serving/src/x.rs",
            "fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> { m.lock().unwrap() }\n\
             fn read<'a>(l: &'a RwLock<u8>) -> RwLockReadGuard<'a, u8> { l.read().unwrap() }\n\
             pub fn plain(n: usize) -> usize { n }\n",
        )]);
        assert!(find(&ix, None, "lock").returns_guard);
        assert!(find(&ix, None, "read").returns_guard);
        assert!(!find(&ix, None, "plain").returns_guard);
        let (p0, p1) = find(&ix, None, "plain").params.expect("params recorded");
        assert!(p1 > p0, "non-empty param range");
    }

    #[test]
    fn where_clause_result_does_not_mark_return() {
        let ix = index_of(&[(
            "crates/nn/src/x.rs",
            "pub fn map<F>(f: F) -> f64 where F: Fn(usize) -> Result<f64, ()> { 0.0 }\n",
        )]);
        assert!(!find(&ix, None, "map").returns_result);
    }
}
