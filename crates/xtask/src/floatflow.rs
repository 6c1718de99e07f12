//! Intra-procedural float value-domain dataflow (ISSUE 8).
//!
//! Tracks a small abstract value per float expression — a positivity
//! lattice ([`Domain`]: `Unknown < NonNeg < Positive < EpsGuarded`,
//! ordered by knowledge) plus orthogonal `[0,1]`-membership (`p01`) and
//! `≤ 1−ε` (`lt_one`) flags and an optional folded constant — seeded
//! from literals, `const` declarations, `.max(EPS)` / `+ eps` /
//! `.clamp(lo,hi)` idioms, the sigmoid family, and comparison-guarded
//! branches, then propagated through per-function return summaries
//! along the §9 call graph (a few chaotic-iteration rounds; transfers
//! are monotone enough that four rounds reach the useful fixpoint).
//!
//! The engine is deliberately approximate and every approximation is
//! one-sided where it matters (see DESIGN.md §12): bindings are a flat
//! per-function environment (last write wins, no block scoping), guard
//! facts apply over token ranges, collections carry the elementwise
//! value of their contents, and `x != 0` guards promote to `Positive`
//! (nonzero-ness is what division needs; `ln` of a guarded negative is
//! an accepted false-clean).
//!
//! Two passes consume the model: A10 (division/log/sqrt guards on the
//! hot path) and A11 (probability-domain escapes).

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::CallGraph;
use crate::items::FnItem;
use crate::lexer::{matching_close, render, split_args, TokKind, Token};
use crate::passes::AnalyzedFile;

/// Positivity lattice, ordered by knowledge: joining two control-flow
/// paths takes the minimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Domain {
    /// No sign information.
    Unknown,
    /// Provably `>= 0` (may be exactly zero).
    NonNeg,
    /// Provably `> 0` (or provably nonzero via a `!= 0` guard).
    Positive,
    /// Provably bounded away from zero by an explicit epsilon
    /// (`.max(EPS)`, `.clamp(eps, ..)`, `x >= EPS` guard, `+ eps` on a
    /// non-negative base).
    EpsGuarded,
}

impl Domain {
    /// Human description for findings.
    pub fn describe(self) -> &'static str {
        match self {
            Domain::Unknown => "unknown sign",
            Domain::NonNeg => "non-negative but possibly zero",
            Domain::Positive => "positive",
            Domain::EpsGuarded => "epsilon-guarded",
        }
    }
}

/// Abstract value of one expression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Val {
    pub domain: Domain,
    /// Provably within `[0, 1]`.
    pub p01: bool,
    /// Provably `<= 1 - eps` (so `1.0 - x` is [`Domain::EpsGuarded`]).
    pub lt_one: bool,
    /// Evidence this is a float expression (literal, typed binding,
    /// cast, float-returning callee).
    pub is_float: bool,
    /// Folded constant, when the expression is a literal computation.
    pub value: Option<f64>,
    /// 1-based line of the defining `let`, for "defined at" notes.
    pub def: Option<usize>,
}

impl Val {
    pub fn unknown() -> Val {
        Val {
            domain: Domain::Unknown,
            p01: false,
            lt_one: false,
            is_float: false,
            value: None,
            def: None,
        }
    }

    fn float(domain: Domain) -> Val {
        Val {
            domain,
            is_float: true,
            ..Val::unknown()
        }
    }

    /// Provably `>= 0`.
    pub fn ge0(&self) -> bool {
        self.p01 || self.domain >= Domain::NonNeg
    }

    /// Provably nonzero (safe denominator).
    pub fn pos(&self) -> bool {
        self.domain >= Domain::Positive
    }

    /// Join of two control paths (intersection of knowledge).
    pub fn join(&self, other: &Val) -> Val {
        Val {
            domain: self.domain.min(other.domain),
            p01: self.p01 && other.p01,
            lt_one: self.lt_one && other.lt_one,
            is_float: self.is_float || other.is_float,
            value: match (self.value, other.value) {
                (Some(a), Some(b)) if about(a, b) => Some(a),
                _ => None,
            },
            def: self.def.or(other.def),
        }
    }
}

/// Float equality at fold precision (avoids raw float `==`).
fn about(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

/// Abstract value of a known constant.
fn of_const(v: f64, is_float: bool) -> Val {
    let domain = if v > 0.0 {
        Domain::EpsGuarded
    } else if v >= 0.0 {
        Domain::NonNeg
    } else {
        Domain::Unknown
    };
    Val {
        domain,
        p01: (0.0..=1.0).contains(&v),
        lt_one: v < 1.0,
        is_float,
        value: Some(v),
        def: None,
    }
}

fn add(a: &Val, b: &Val) -> Val {
    let domain = if a.domain == Domain::Unknown || b.domain == Domain::Unknown {
        Domain::Unknown
    } else {
        // Both >= 0: the sum's lower bound is the larger of the two.
        a.domain.max(b.domain)
    };
    Val {
        domain,
        p01: false,
        lt_one: false,
        is_float: a.is_float || b.is_float,
        value: fold2(a, b, |x, y| x + y),
        def: None,
    }
}

fn sub(a: &Val, b: &Val) -> Val {
    // The one shape we understand precisely is `1.0 - x`, the
    // probability complement.
    if matches!(a.value, Some(v) if about(v, 1.0)) {
        let domain = if b.lt_one {
            Domain::EpsGuarded
        } else if b.p01 {
            Domain::NonNeg
        } else {
            Domain::Unknown
        };
        return Val {
            domain,
            p01: b.p01,
            lt_one: b.domain == Domain::EpsGuarded,
            is_float: a.is_float || b.is_float,
            value: fold2(a, b, |x, y| x - y),
            def: None,
        };
    }
    Val {
        domain: Domain::Unknown,
        p01: false,
        lt_one: false,
        is_float: a.is_float || b.is_float,
        value: fold2(a, b, |x, y| x - y),
        def: None,
    }
}

fn mul(a: &Val, b: &Val) -> Val {
    let domain = if a.pos() && b.pos() {
        // eps*eps can underflow toward zero, so never stronger than
        // Positive.
        Domain::Positive
    } else if a.ge0() && b.ge0() {
        Domain::NonNeg
    } else {
        Domain::Unknown
    };
    Val {
        domain,
        p01: a.p01 && b.p01,
        lt_one: (a.p01 && b.lt_one) || (b.p01 && a.lt_one),
        is_float: a.is_float || b.is_float,
        value: fold2(a, b, |x, y| x * y),
        def: None,
    }
}

fn div(a: &Val, b: &Val) -> Val {
    let domain = if a.pos() && b.pos() {
        Domain::Positive
    } else if a.ge0() && b.pos() {
        Domain::NonNeg
    } else {
        Domain::Unknown
    };
    let value = match (a.value, b.value) {
        (Some(x), Some(y)) if y.abs() > 1e-300 => Some(x / y),
        _ => None,
    };
    Val {
        domain,
        p01: false,
        lt_one: false,
        is_float: a.is_float || b.is_float,
        value,
        def: None,
    }
}

fn fold2(a: &Val, b: &Val, f: impl Fn(f64, f64) -> f64) -> Option<f64> {
    match (a.value, b.value) {
        (Some(x), Some(y)) => Some(f(x, y)),
        _ => None,
    }
}

fn negate(v: &Val) -> Val {
    match v.value {
        Some(x) => {
            let mut out = of_const(-x, v.is_float);
            out.is_float = v.is_float;
            out
        }
        None => Val {
            is_float: v.is_float,
            ..Val::unknown()
        },
    }
}

/// What a guarded-use check site needs proven about its operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    /// Binary `/` or `/=`: denominator must be nonzero.
    Div,
    /// `.recip()`: receiver must be nonzero.
    Recip,
    /// `.ln()`: receiver must be positive.
    Ln,
    /// `.log{,2,10}()`: receiver must be positive.
    Log,
    /// `.sqrt()`: receiver must be non-negative.
    Sqrt,
}

impl CheckKind {
    pub fn what(self) -> &'static str {
        match self {
            CheckKind::Div | CheckKind::Recip => "denominator",
            CheckKind::Ln | CheckKind::Log => "log argument",
            CheckKind::Sqrt => "sqrt argument",
        }
    }
}

/// One division / log / sqrt use, with the evaluated operand.
#[derive(Debug, Clone)]
pub struct CheckSite {
    pub kind: CheckKind,
    pub fn_id: usize,
    pub line: usize,
    pub in_test: bool,
    /// Rendered operand (denominator / receiver).
    pub expr: String,
    pub val: Val,
}

/// `WeightedBce::loss_probs(p, ..)` call: `p` must be in [0,1].
#[derive(Debug, Clone)]
pub struct ProbCall {
    pub fn_id: usize,
    pub line: usize,
    pub in_test: bool,
    pub arg: String,
    pub val: Val,
}

/// A `prob`-named `let` binding.
#[derive(Debug, Clone)]
pub struct ProbBind {
    pub fn_id: usize,
    pub line: usize,
    pub in_test: bool,
    pub name: String,
    pub val: Val,
    pub has_arith: bool,
    pub has_guard: bool,
}

/// Return expression of a `predict_proba*` head.
#[derive(Debug, Clone)]
pub struct ProbRet {
    pub fn_id: usize,
    pub line: usize,
    pub in_test: bool,
    pub val: Val,
    pub has_arith: bool,
    pub has_guard: bool,
}

/// All check sites gathered in one analysis round.
#[derive(Debug, Default)]
pub struct Sites {
    pub checks: Vec<CheckSite>,
    pub pcalls: Vec<ProbCall>,
    pub pbinds: Vec<ProbBind>,
    pub prets: Vec<ProbRet>,
}

/// The workspace float-domain model: per-fn return summaries plus every
/// recorded check site from the final analysis round.
pub struct FloatFlow {
    pub summaries: Vec<Val>,
    pub sites: Sites,
}

/// The A10 root set: the §9 hot roots plus every non-test serving fn
/// (same composition as the lock-region roots).
pub fn hot_reach(graph: &CallGraph) -> BTreeMap<usize, Vec<usize>> {
    let mut roots: BTreeSet<usize> = graph.hot_roots().into_iter().collect();
    for (i, f) in graph.index.fns.iter().enumerate() {
        if !f.in_test && f.body.is_some() && f.path.starts_with("crates/serving/src/") {
            roots.insert(i);
        }
    }
    let roots: Vec<usize> = roots.into_iter().collect();
    graph.reachable(&roots)
}

impl FloatFlow {
    pub fn build(files: &[AnalyzedFile], graph: &CallGraph) -> FloatFlow {
        let consts = collect_consts(files);
        let site_map: BTreeMap<(usize, usize), usize> = graph
            .edges
            .iter()
            .map(|e| ((graph.index.fns[e.caller].file, e.site), e.callee))
            .collect();
        let n = graph.index.fns.len();
        let mut summaries = vec![Val::unknown(); n];
        for (i, f) in graph.index.fns.iter().enumerate() {
            summaries[i].is_float = f.returns_float;
        }
        let mut rounds = 0usize;
        loop {
            let mut sites = Sites::default();
            let mut changed = false;
            for (i, f) in graph.index.fns.iter().enumerate() {
                let Some(body) = f.body else { continue };
                let toks = &files[f.file].tokens;
                let mut flow = FnFlow {
                    toks,
                    file: f.file,
                    fn_id: i,
                    item: f,
                    lo: body.0,
                    hi: body.1,
                    consts: &consts,
                    site_map: &site_map,
                    fns: &graph.index.fns,
                    summaries: &summaries,
                    env: BTreeMap::new(),
                    guards: Vec::new(),
                    len_pos: Vec::new(),
                    rets: Vec::new(),
                };
                let s = flow.run(&mut sites);
                if s != summaries[i] {
                    summaries[i] = s;
                    changed = true;
                }
            }
            rounds += 1;
            if !changed || rounds >= 4 {
                return FloatFlow { summaries, sites };
            }
        }
    }
}

/// `const NAME: <num type> = [-]<literal>;` declarations, workspace-wide.
/// `Self`-typed consts count as floats: the only ones in the tree are
/// the `nn::Scalar` constants (`T::ZERO`, `T::ONE`) of the f32/f64 impls.
fn collect_consts(files: &[AnalyzedFile]) -> BTreeMap<String, (f64, bool)> {
    let mut out = BTreeMap::new();
    for file in files {
        let toks = &file.tokens;
        let mut k = 0usize;
        while k + 5 < toks.len() {
            if toks[k].is_ident("const")
                && toks[k + 1].kind == TokKind::Ident
                && toks[k + 2].is_punct(":")
                && toks[k + 3].kind == TokKind::Ident
                && toks[k + 4].is_punct("=")
            {
                let ty = toks[k + 3].text.as_str();
                let isf = matches!(ty, "f64" | "f32" | "Self");
                let isnum = isf
                    || matches!(
                        ty,
                        "usize" | "u64" | "u32" | "u16" | "u8" | "i64" | "i32" | "i16"
                    );
                let (lit, neg) = if toks[k + 5].is_punct("-") {
                    (k + 6, true)
                } else {
                    (k + 5, false)
                };
                if isnum {
                    if let Some(v) = toks.get(lit).and_then(parse_num) {
                        let v = if neg { -v } else { v };
                        out.insert(toks[k + 1].text.clone(), (v, isf));
                    }
                }
                k = lit + 1;
            } else {
                k += 1;
            }
        }
    }
    out
}

/// Parse a numeric literal token (`1.0`, `1e-12`, `0x10`, `1_000u32`).
fn parse_num(t: &Token) -> Option<f64> {
    let text: String = t.text.chars().filter(|c| *c != '_').collect();
    match t.kind {
        TokKind::Float => {
            let trimmed = text.trim_end_matches("f64").trim_end_matches("f32");
            trimmed.parse::<f64>().ok()
        }
        TokKind::Int => {
            if let Some(hex) = text.strip_prefix("0x") {
                return u64::from_str_radix(hex, 16).ok().map(|v| v as f64);
            }
            let mut s = text.as_str();
            for suf in [
                "usize", "isize", "u64", "i64", "u32", "i32", "u16", "i16", "u8", "i8",
            ] {
                if let Some(stripped) = s.strip_suffix(suf) {
                    s = stripped;
                    break;
                }
            }
            s.parse::<u64>().ok().map(|v| v as f64)
        }
        _ => None,
    }
}

const SIGMOID_FAMILY: [&str; 3] = ["sigmoid", "stable_sigmoid", "softmax"];

fn guard_method(name: &str) -> bool {
    matches!(name, "clamp" | "min" | "max")
}

/// Per-function analysis state.
struct FnFlow<'a> {
    toks: &'a [Token],
    file: usize,
    fn_id: usize,
    item: &'a FnItem,
    lo: usize,
    hi: usize,
    consts: &'a BTreeMap<String, (f64, bool)>,
    site_map: &'a BTreeMap<(usize, usize), usize>,
    fns: &'a [FnItem],
    summaries: &'a [Val],
    env: BTreeMap<String, Val>,
    /// `(name, tok_start, tok_end, promoted domain)` guard regions.
    guards: Vec<(String, usize, usize, Domain)>,
    /// Idents proven non-empty over a token range (`.len()` positive).
    len_pos: Vec<(String, usize, usize)>,
    rets: Vec<Val>,
}

impl<'a> FnFlow<'a> {
    fn run(&mut self, sites: &mut Sites) -> Val {
        self.seed_params();
        self.walk(sites);
        let tail = self.tail_range();
        if let Some((s, e)) = tail {
            let v = self.eval(s, e);
            self.record_ret(sites, v, self.toks.get(s).map_or(0, |t| t.line), s, e);
        }
        let mut summary = match self.rets.split_first() {
            Some((first, rest)) => rest.iter().fold(*first, |a, b| a.join(b)),
            None => Val::unknown(),
        };
        summary.is_float |= self.item.returns_float;
        summary.def = None;
        summary
    }

    fn seed_params(&mut self) {
        let Some((ps, pe)) = self.item.params else {
            return;
        };
        for (s, e) in split_args(self.toks, ps, pe) {
            let mut i = s;
            while i < e && (self.toks[i].is_ident("mut") || self.toks[i].is_punct("&")) {
                i += 1;
            }
            if i + 1 >= e || self.toks[i].kind != TokKind::Ident || !self.toks[i + 1].is_punct(":")
            {
                continue;
            }
            let name = self.toks[i].text.clone();
            let mut val = Val::unknown();
            for t in &self.toks[i + 2..e] {
                match t.text.as_str() {
                    "f64" | "f32" => val.is_float = true,
                    "usize" | "u64" | "u32" | "u16" | "u8" => {
                        val.domain = val.domain.max(Domain::NonNeg)
                    }
                    _ => {}
                }
            }
            self.env.insert(name, val);
        }
    }

    /// Linear walk over the body: environment updates, guard regions,
    /// and every check-site record.
    fn walk(&mut self, sites: &mut Sites) {
        let mut k = self.lo;
        while k < self.hi {
            let t = &self.toks[k];
            match (t.kind, t.text.as_str()) {
                (TokKind::Ident, "fn") => {
                    // Nested fns are indexed and analyzed separately.
                    if let Some(close) = self.fn_body_close(k) {
                        k = close + 1;
                        continue;
                    }
                }
                (TokKind::Ident, "let") => self.handle_let(sites, k),
                (TokKind::Ident, "if") | (TokKind::Ident, "while") => self.handle_guard(k),
                (TokKind::Ident, "for") => self.handle_for(k),
                (TokKind::Ident, "return") => {
                    let end = self.stmt_end(k + 1);
                    if end > k + 1 {
                        let v = self.eval(k + 1, end);
                        self.record_ret(sites, v, t.line, k + 1, end);
                    }
                }
                (TokKind::Ident, "loss_probs") => self.handle_loss_probs(sites, k),
                (TokKind::Ident, "ln")
                | (TokKind::Ident, "log")
                | (TokKind::Ident, "log2")
                | (TokKind::Ident, "log10")
                | (TokKind::Ident, "sqrt")
                | (TokKind::Ident, "recip") => self.handle_method_site(sites, k),
                (TokKind::Punct, "/") => self.handle_div(sites, k),
                (TokKind::Ident, _) => self.handle_assign(k),
                (TokKind::Punct, "*") => {
                    // `*x += ..` / `*x = ..` deref-assignment.
                    let stmtish =
                        k == self.lo || matches!(self.toks[k - 1].text.as_str(), ";" | "{" | "}");
                    if stmtish
                        && self
                            .toks
                            .get(k + 1)
                            .is_some_and(|n| n.kind == TokKind::Ident)
                    {
                        self.handle_assign(k + 1);
                    }
                }
                _ => {}
            }
            k += 1;
        }
    }

    /// Skip a nested `fn` item's body: first `{` at paren depth 0.
    fn fn_body_close(&self, k: usize) -> Option<usize> {
        if self.toks.get(k + 1).map(|t| t.kind) != Some(TokKind::Ident) {
            return None;
        }
        let mut depth = 0i32;
        let mut j = k + 1;
        while j < self.hi {
            match self.toks[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => return matching_close(self.toks, j),
                ";" if depth == 0 => return None,
                _ => {}
            }
            j += 1;
        }
        None
    }

    /// End of the statement starting at `k`: first `;` at bracket depth 0.
    fn stmt_end(&self, k: usize) -> usize {
        let mut depth = 0i32;
        let mut j = k;
        while j < self.hi {
            match self.toks[j].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth == 0 => return j,
                _ => {}
            }
            if depth < 0 {
                return j;
            }
            j += 1;
        }
        self.hi
    }

    fn handle_let(&mut self, sites: &mut Sites, k: usize) {
        let mut i = k + 1;
        if self.toks.get(i).is_some_and(|t| t.is_ident("mut")) {
            i += 1;
        }
        let Some(name_tok) = self.toks.get(i) else {
            return;
        };
        if name_tok.kind != TokKind::Ident || i + 1 >= self.hi {
            return;
        }
        // `let Some(x)` / `let (a, b)` destructuring patterns have a
        // `(` right after the (first) ident — skip them.
        if self.toks[i + 1].is_punct("(") {
            return;
        }
        let name = name_tok.text.clone();
        let end = self.stmt_end(k);
        // First `=` at depth 0 (with `==` excluded) is the assignment.
        let mut depth = 0i32;
        let mut eq = None;
        let mut j = k + 1;
        while j < end {
            match self.toks[j].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "=" if depth == 0 => {
                    if !self.toks.get(j + 1).is_some_and(|n| n.is_punct("=")) {
                        eq = Some(j);
                        break;
                    }
                    j += 1;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(eq) = eq else { return };
        let ty_float = self.toks[i + 1].is_punct(":")
            && self.toks[i + 2..eq]
                .iter()
                .any(|t| t.is_ident("f64") || t.is_ident("f32"));
        let mut val = self.eval(eq + 1, end);
        val.is_float |= ty_float;
        val.def = Some(name_tok.line);
        let lower = name.to_lowercase();
        // `probe`-named bindings (gradient probes etc.) are not
        // probabilities despite the shared prefix.
        if lower.contains("prob") && !lower.contains("probe") && !name_tok.in_test {
            sites.pbinds.push(ProbBind {
                fn_id: self.fn_id,
                line: name_tok.line,
                in_test: name_tok.in_test,
                name: name.clone(),
                val,
                has_arith: self.has_arith(eq + 1, end),
                has_guard: self.has_guard(eq + 1, end),
            });
        }
        self.env.insert(name, val);
    }

    /// Extract guard facts from an `if`/`while` condition.
    fn handle_guard(&mut self, k: usize) {
        let mut depth = 0i32;
        let mut open = None;
        let mut j = k + 1;
        while j < self.hi {
            match self.toks[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    open = Some(j);
                    break;
                }
                ";" if depth == 0 => return,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else { return };
        let Some(close) = matching_close(self.toks, open) else {
            return;
        };
        let c = k + 1;
        if c >= open || self.toks[c].is_ident("let") {
            return;
        }
        // `!xs.is_empty()` promotes `xs.len()` inside the block.
        if self.toks[c].is_punct("!")
            && self.cond_is_empty(c + 1, open)
            && self.toks[c + 1].kind == TokKind::Ident
        {
            self.len_pos
                .push((self.toks[c + 1].text.clone(), open + 1, close));
            return;
        }
        if self.toks[c].kind != TokKind::Ident {
            return;
        }
        let name = self.toks[c].text.clone();
        let early = self.block_exits_early(open, close);
        // `xs.is_empty()` + early exit promotes `xs.len()` afterwards.
        if self.cond_is_empty(c, open) {
            if early {
                self.len_pos.push((name, close + 1, self.hi));
            }
            return;
        }
        let Some(op) = self.toks.get(c + 1) else {
            return;
        };
        let eq_next = self.toks.get(c + 2).is_some_and(|t| t.is_punct("="));
        // `x <= 0 { return }` / `x < 0 { return }` — positive /
        // non-negative for the rest of the body.
        if op.is_punct("<") {
            let rhs_at = if eq_next { c + 3 } else { c + 2 };
            if rhs_at < open {
                let rhs = self.eval(rhs_at, open);
                if matches!(rhs.value, Some(v) if v.abs() < 1e-300) && early {
                    let dom = if eq_next {
                        Domain::Positive
                    } else {
                        Domain::NonNeg
                    };
                    self.guards.push((name, close + 1, self.hi, dom));
                }
            }
            return;
        }
        let (rhs_at, strict, is_cmp) = match op.text.as_str() {
            ">" if !eq_next => (c + 2, true, true),
            ">" => (c + 3, false, true),
            "!" if eq_next => (c + 3, true, false),
            "=" if eq_next => (c + 3, false, false),
            _ => return,
        };
        if rhs_at >= open {
            return;
        }
        let rhs = self.eval(rhs_at, open);
        if is_cmp {
            // `x > rhs` / `x >= rhs`
            let dom = if strict {
                if rhs.pos() {
                    Some(Domain::EpsGuarded)
                } else if rhs.ge0() {
                    Some(Domain::Positive)
                } else {
                    None
                }
            } else if rhs.pos() {
                Some(Domain::EpsGuarded)
            } else if rhs.ge0() {
                Some(Domain::NonNeg)
            } else {
                None
            };
            if let Some(dom) = dom {
                self.guards.push((name, open + 1, close, dom));
            }
        } else if matches!(rhs.value, Some(v) if v.abs() < 1e-300) {
            if strict {
                // `x != 0` — nonzero within the block (documented
                // over-approximation: promoted to Positive).
                self.guards.push((name, open + 1, close, Domain::Positive));
            } else if self.block_exits_early(open, close) {
                // `x == 0 { return/continue/break }` — nonzero after.
                self.guards
                    .push((name, close + 1, self.hi, Domain::Positive));
            }
        }
    }

    fn cond_is_empty(&self, c: usize, open: usize) -> bool {
        c + 2 < open
            && self.toks[c].kind == TokKind::Ident
            && self.toks[c + 1].is_punct(".")
            && self.toks[c + 2].is_ident("is_empty")
    }

    fn block_exits_early(&self, open: usize, close: usize) -> bool {
        self.toks[open + 1..close].iter().any(|t| {
            matches!(t.text.as_str(), "return" | "continue" | "break" | "panic")
                && t.kind == TokKind::Ident
        })
    }

    /// `for i in ..` — loop variables over ranges are ints.
    fn handle_for(&mut self, k: usize) {
        if self.toks.get(k + 1).map(|t| t.kind) == Some(TokKind::Ident)
            && self.toks.get(k + 2).is_some_and(|t| t.is_ident("in"))
        {
            let mut v = Val::unknown();
            v.domain = Domain::NonNeg;
            self.env.insert(self.toks[k + 1].text.clone(), v);
        }
    }

    /// Assignment / compound-assignment at an ident: update the
    /// environment. Never consumes tokens — operand sites inside the
    /// rhs are found by the walker.
    fn handle_assign(&mut self, k: usize) {
        if k > self.lo {
            let p = &self.toks[k - 1];
            if p.is_punct(".") || p.is_punct("::") || p.is_ident("let") || p.is_ident("mut") {
                return;
            }
        }
        // Target: ident with optional `.field` / `[idx]` postfix.
        let base = self.toks[k].text.clone();
        if matches!(
            base.as_str(),
            "if" | "else" | "match" | "in" | "fn" | "use" | "pub" | "impl" | "struct" | "enum"
        ) {
            return;
        }
        let mut t_end = k + 1;
        loop {
            if t_end + 1 < self.hi
                && self.toks[t_end].is_punct(".")
                && self.toks[t_end + 1].kind == TokKind::Ident
                && !self.toks.get(t_end + 2).is_some_and(|n| n.is_punct("("))
            {
                t_end += 2;
            } else if self.toks[t_end].is_punct("[") {
                match matching_close(self.toks, t_end) {
                    Some(c) if c < self.hi => t_end = c + 1,
                    _ => return,
                }
            } else {
                break;
            }
        }
        let Some(op) = self.toks.get(t_end) else {
            return;
        };
        let eq_next = self.toks.get(t_end + 1).is_some_and(|n| n.is_punct("="));
        let eq2_next = self.toks.get(t_end + 2).is_some_and(|n| n.is_punct("="));
        let (rhs_at, kind) = match op.text.as_str() {
            "=" if !eq_next => (t_end + 1, '='),
            "+" if eq_next && !eq2_next => (t_end + 2, '+'),
            "-" if eq_next && !eq2_next => (t_end + 2, '-'),
            "*" if eq_next && !eq2_next => (t_end + 2, '*'),
            "/" if eq_next && !eq2_next => (t_end + 2, '/'),
            _ => return,
        };
        let end = self.stmt_end(rhs_at);
        if rhs_at >= end {
            return;
        }
        let rhs = self.eval(rhs_at, end);
        let simple = t_end == k + 1;
        let old = if simple {
            self.env.get(&base).copied().unwrap_or_else(Val::unknown)
        } else {
            Val::unknown()
        };
        let new = match kind {
            '=' => rhs,
            '+' => add(&old, &rhs),
            '-' => sub(&old, &rhs),
            '*' => mul(&old, &rhs),
            _ => div(&old, &rhs),
        };
        if simple {
            let mut new = new;
            new.def = self.env.get(&base).and_then(|v| v.def);
            self.env.insert(base, new);
        }
    }

    /// Binary `/` (or the `/` of `/=`): record the denominator.
    fn handle_div(&mut self, sites: &mut Sites, k: usize) {
        if k == self.lo {
            return;
        }
        let p = &self.toks[k - 1];
        let binary = matches!(p.kind, TokKind::Ident | TokKind::Int | TokKind::Float)
            || p.is_punct(")")
            || p.is_punct("]");
        if !binary {
            return;
        }
        let dstart = if self.toks.get(k + 1).is_some_and(|n| n.is_punct("=")) {
            k + 2
        } else {
            k + 1
        };
        let Some((s, e)) = self.operand_after(dstart) else {
            return;
        };
        let val = self.eval(s, e);
        sites.checks.push(CheckSite {
            kind: CheckKind::Div,
            fn_id: self.fn_id,
            line: self.toks[k].line,
            in_test: self.toks[k].in_test,
            expr: render(self.toks, s, e),
            val,
        });
    }

    /// `.ln()` / `.log*()` / `.sqrt()` / `.recip()` receiver checks.
    fn handle_method_site(&mut self, sites: &mut Sites, k: usize) {
        if k == self.lo || !self.toks[k - 1].is_punct(".") {
            return;
        }
        if !self.toks.get(k + 1).is_some_and(|n| n.is_punct("(")) {
            return;
        }
        let Some((rs, re)) = self.receiver_range(k - 1) else {
            return;
        };
        let kind = match self.toks[k].text.as_str() {
            "ln" => CheckKind::Ln,
            "sqrt" => CheckKind::Sqrt,
            "recip" => CheckKind::Recip,
            _ => CheckKind::Log,
        };
        let val = self.eval(rs, re);
        sites.checks.push(CheckSite {
            kind,
            fn_id: self.fn_id,
            line: self.toks[k].line,
            in_test: self.toks[k].in_test,
            expr: format!("{}.{}()", render(self.toks, rs, re), self.toks[k].text),
            val,
        });
    }

    fn handle_loss_probs(&mut self, sites: &mut Sites, k: usize) {
        if !self.toks.get(k + 1).is_some_and(|n| n.is_punct("(")) {
            return;
        }
        let Some(close) = matching_close(self.toks, k + 1) else {
            return;
        };
        let args = split_args(self.toks, k + 2, close);
        let Some(&(a0s, a0e)) = args.first() else {
            return;
        };
        let val = self.eval(a0s, a0e);
        sites.pcalls.push(ProbCall {
            fn_id: self.fn_id,
            line: self.toks[k].line,
            in_test: self.toks[k].in_test,
            arg: render(self.toks, a0s, a0e),
            val,
        });
    }

    fn record_ret(&mut self, sites: &mut Sites, v: Val, line: usize, s: usize, e: usize) {
        if self.item.name.starts_with("predict_proba") {
            sites.prets.push(ProbRet {
                fn_id: self.fn_id,
                line,
                in_test: self.item.in_test,
                val: v,
                has_arith: self.has_arith(s, e),
                has_guard: self.has_guard(s, e),
            });
        }
        self.rets.push(v);
    }

    /// Token range of the body's trailing expression (after the last
    /// top-level `;` or block close).
    fn tail_range(&self) -> Option<(usize, usize)> {
        let mut depth = 0i32;
        let mut start = self.lo;
        let mut j = self.lo;
        while j < self.hi {
            match self.toks[j].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" => depth -= 1,
                "}" => {
                    depth -= 1;
                    // A statement-level block (`if .. {}`, `match {}`,
                    // a plain block) ends any candidate tail; brace
                    // groups nested in parens do not.
                    if depth == 0 {
                        start = j + 1;
                    }
                }
                ";" if depth == 0 => start = j + 1,
                _ => {}
            }
            j += 1;
        }
        if start < self.hi {
            Some((start, self.hi))
        } else {
            None
        }
    }

    fn has_arith(&self, s: usize, e: usize) -> bool {
        (s.max(self.lo + 1)..e.min(self.hi)).any(|j| {
            let t = &self.toks[j];
            if t.kind != TokKind::Punct || !matches!(t.text.as_str(), "+" | "-" | "*" | "/") {
                return false;
            }
            let p = &self.toks[j - 1];
            // A keyword before the operator makes it a prefix (`return
            // *p`, `for x in -1..`), not arithmetic.
            (matches!(p.kind, TokKind::Ident | TokKind::Int | TokKind::Float)
                && !matches!(p.text.as_str(), "return" | "in" | "if" | "else" | "match"))
                || p.is_punct(")")
                || p.is_punct("]")
        })
    }

    fn has_guard(&self, s: usize, e: usize) -> bool {
        self.toks[s..e.min(self.hi)]
            .iter()
            .any(|t| t.kind == TokKind::Ident && guard_method(&t.text))
    }

    /// Structural extent of the operand starting at `s` (prefixes,
    /// primary, postfix chain including `as <ty>`).
    fn operand_after(&self, s: usize) -> Option<(usize, usize)> {
        let mut k = s;
        while k < self.hi
            && (self.toks[k].is_punct("-")
                || self.toks[k].is_punct("*")
                || self.toks[k].is_punct("&")
                || self.toks[k].is_ident("mut"))
        {
            k += 1;
        }
        if k >= self.hi {
            return None;
        }
        match self.toks[k].kind {
            TokKind::Punct if self.toks[k].is_punct("(") => {
                k = matching_close(self.toks, k)?;
                k += 1;
            }
            TokKind::Ident | TokKind::Int | TokKind::Float => {
                k += 1;
                while k + 1 < self.hi
                    && self.toks[k].is_punct("::")
                    && self.toks[k + 1].kind == TokKind::Ident
                {
                    k += 2;
                }
            }
            _ => return None,
        }
        // Postfix chain.
        loop {
            if k >= self.hi {
                break;
            }
            if self.toks[k].is_punct(".")
                && self
                    .toks
                    .get(k + 1)
                    .is_some_and(|n| n.kind == TokKind::Ident)
            {
                let mut q = k + 2;
                if self.toks.get(q).is_some_and(|n| n.is_punct("::"))
                    && self.toks.get(q + 1).is_some_and(|n| n.is_punct("<"))
                {
                    q = self.skip_angles(q + 1)?;
                }
                if self.toks.get(q).is_some_and(|n| n.is_punct("(")) {
                    k = matching_close(self.toks, q)? + 1;
                } else {
                    k = k + 2;
                }
            } else if self.toks[k].is_punct("[") || self.toks[k].is_punct("(") {
                k = matching_close(self.toks, k)? + 1;
            } else if self.toks[k].is_punct("?") {
                k += 1;
            } else if self.toks[k].is_ident("as")
                && self
                    .toks
                    .get(k + 1)
                    .is_some_and(|n| n.kind == TokKind::Ident)
            {
                k += 2;
            } else {
                break;
            }
        }
        if k > s {
            Some((s, k.min(self.hi)))
        } else {
            None
        }
    }

    /// Skip a `<..>` generic/turbofish group starting at the `<`.
    fn skip_angles(&self, lt: usize) -> Option<usize> {
        let mut depth = 0i32;
        let mut j = lt;
        while j < self.hi {
            match self.toks[j].text.as_str() {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(j + 1);
                    }
                }
                _ => {}
            }
            j += 1;
        }
        None
    }

    /// Receiver extent `[start, dot)` of the method call whose `.` sits
    /// at `dot`, walking the postfix chain backward.
    fn receiver_range(&self, dot: usize) -> Option<(usize, usize)> {
        let mut j = dot;
        loop {
            if j <= self.lo {
                return None;
            }
            let t = &self.toks[j - 1];
            if t.is_punct(")") || t.is_punct("]") {
                let open = self.open_backward(j - 1)?;
                j = open;
                // `sum::<f64>()` — hop the turbofish back to the name.
                if j > self.lo + 2 && self.toks[j - 1].is_punct(">") {
                    let mut k = j - 1;
                    while k > self.lo && !self.toks[k].is_punct("<") {
                        k -= 1;
                    }
                    if k > self.lo && self.toks[k - 1].is_punct("::") {
                        j = k - 1;
                    }
                }
                if j > self.lo && self.toks[j - 1].kind == TokKind::Ident {
                    j -= 1;
                }
            } else if matches!(t.kind, TokKind::Ident | TokKind::Int | TokKind::Float) {
                j -= 1;
            } else {
                return None;
            }
            if j > self.lo && (self.toks[j - 1].is_punct(".") || self.toks[j - 1].is_punct("::")) {
                j -= 1;
                continue;
            }
            return Some((j, dot));
        }
    }

    fn open_backward(&self, close: usize) -> Option<usize> {
        let (o, c) = match self.toks[close].text.as_str() {
            ")" => ("(", ")"),
            "]" => ("[", "]"),
            _ => return None,
        };
        let mut depth = 0i32;
        let mut j = close + 1;
        while j > self.lo {
            j -= 1;
            if self.toks[j].is_punct(c) {
                depth += 1;
            } else if self.toks[j].is_punct(o) {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Expression evaluation.

    fn eval(&mut self, s: usize, e: usize) -> Val {
        let (mut s, mut e) = (s, e.min(self.hi));
        // Trim redundant outer parens.
        while s < e && self.toks[s].is_punct("(") && matching_close(self.toks, s) == Some(e - 1) {
            s += 1;
            e -= 1;
        }
        if s >= e {
            return Val::unknown();
        }
        // Top-level operator scan.
        let mut depth = 0i32;
        let mut class1 = None;
        let mut class2 = None;
        let mut as_pos = None;
        let mut j = s;
        while j < e {
            let t = &self.toks[j];
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "<" if depth == 0 && j > s && self.toks[j - 1].is_punct("::") => {
                    // Turbofish — skip to its `>`.
                    match self.skip_angles(j) {
                        Some(after) if after <= e => {
                            j = after;
                            continue;
                        }
                        _ => return Val::unknown(),
                    }
                }
                "<" | ">" | "!" | "&" | "|" | ".." | "..=" | "," | "=" | "=>" | "->"
                    if depth == 0 && j > s =>
                {
                    let p = &self.toks[j - 1];
                    let binary = matches!(p.kind, TokKind::Ident | TokKind::Int | TokKind::Float)
                        || p.is_punct(")")
                        || p.is_punct("]");
                    // `&` / `!` as a prefix is fine; anything binary
                    // here makes this a bool/range/tuple expression.
                    if binary || matches!(t.text.as_str(), ".." | "..=" | "," | "=>") {
                        return Val::unknown();
                    }
                }
                "+" | "-" if depth == 0 && j > s => {
                    let p = &self.toks[j - 1];
                    let binary = matches!(p.kind, TokKind::Ident | TokKind::Int | TokKind::Float)
                        || p.is_punct(")")
                        || p.is_punct("]");
                    if binary {
                        class1 = Some(j);
                    }
                }
                "*" | "/" | "%" if depth == 0 && j > s => {
                    let p = &self.toks[j - 1];
                    let binary = matches!(p.kind, TokKind::Ident | TokKind::Int | TokKind::Float)
                        || p.is_punct(")")
                        || p.is_punct("]");
                    if binary {
                        class2 = Some(j);
                    }
                }
                "as" if depth == 0 && t.kind == TokKind::Ident => as_pos = Some(j),
                _ => {}
            }
            j += 1;
        }
        if let Some(op) = class1 {
            let l = self.eval(s, op);
            let r = self.eval(op + 1, e);
            return if self.toks[op].is_punct("+") {
                add(&l, &r)
            } else {
                sub(&l, &r)
            };
        }
        if let Some(op) = class2 {
            let l = self.eval(s, op);
            let r = self.eval(op + 1, e);
            return match self.toks[op].text.as_str() {
                "*" => {
                    let mut v = mul(&l, &r);
                    // `x * x` — a square is non-negative whatever x is.
                    if render(self.toks, s, op) == render(self.toks, op + 1, e) {
                        v.domain = v.domain.max(Domain::NonNeg);
                    }
                    v
                }
                "/" => div(&l, &r),
                _ => Val {
                    is_float: l.is_float || r.is_float,
                    ..Val::unknown()
                },
            };
        }
        if let Some(ap) = as_pos {
            let base = self.eval(s, ap);
            return self.cast(base, ap + 1, e);
        }
        self.primary(s, e)
    }

    fn cast(&self, mut v: Val, ts: usize, te: usize) -> Val {
        let mut float = false;
        let mut unsigned = false;
        for t in &self.toks[ts..te.min(self.hi)] {
            match t.text.as_str() {
                "f64" | "f32" => float = true,
                "usize" | "u64" | "u32" | "u16" | "u8" => unsigned = true,
                _ => {}
            }
        }
        if float {
            v.is_float = true;
        } else if unsigned {
            // A wrapping cast of a negative is >= 0, but its folded
            // value is meaningless then.
            if !v.ge0() {
                v.value = None;
            }
            v.domain = v.domain.max(Domain::NonNeg);
            v.is_float = false;
        }
        v
    }

    fn primary(&mut self, s: usize, e: usize) -> Val {
        let mut i = s;
        let mut neg = false;
        while i < e {
            let t = &self.toks[i];
            if t.is_punct("&") || t.is_punct("*") || t.is_ident("mut") {
                i += 1;
            } else if t.is_punct("-") {
                neg = true;
                i += 1;
            } else {
                break;
            }
        }
        if i >= e {
            return Val::unknown();
        }
        let (mut val, mut p) = match self.toks[i].kind {
            TokKind::Float => {
                let v = parse_num(&self.toks[i])
                    .map(|v| of_const(v, true))
                    .unwrap_or_else(|| Val::float(Domain::NonNeg));
                (v, i + 1)
            }
            TokKind::Int => {
                let v = parse_num(&self.toks[i])
                    .map(|v| of_const(v, false))
                    .unwrap_or_else(|| {
                        let mut u = Val::unknown();
                        u.domain = Domain::NonNeg;
                        u
                    });
                (v, i + 1)
            }
            TokKind::Str => (Val::unknown(), i + 1),
            TokKind::Punct => {
                if self.toks[i].is_punct("(") {
                    match matching_close(self.toks, i) {
                        Some(close) if close < e => (self.eval(i + 1, close), close + 1),
                        _ => return Val::unknown(),
                    }
                } else {
                    return Val::unknown();
                }
            }
            TokKind::Ident => match self.ident_primary(i, e) {
                Some(r) => r,
                None => return Val::unknown(),
            },
        };
        // Postfix chain.
        let mut recv_ident: Option<(String, usize)> =
            if p == i + 1 && self.toks[i].kind == TokKind::Ident {
                Some((self.toks[i].text.clone(), i))
            } else {
                None
            };
        loop {
            if p >= e {
                break;
            }
            if self.toks[p].is_punct(".")
                && self
                    .toks
                    .get(p + 1)
                    .is_some_and(|n| n.kind == TokKind::Ident)
            {
                let name_idx = p + 1;
                let mut q = p + 2;
                let mut tf_float = false;
                if self.toks.get(q).is_some_and(|n| n.is_punct("::"))
                    && self.toks.get(q + 1).is_some_and(|n| n.is_punct("<"))
                {
                    match self.skip_angles(q + 1) {
                        Some(after) => {
                            tf_float = self.toks[q + 1..after]
                                .iter()
                                .any(|t| t.is_ident("f64") || t.is_ident("f32"));
                            q = after;
                        }
                        None => break,
                    }
                }
                if self.toks.get(q).is_some_and(|n| n.is_punct("(")) {
                    match matching_close(self.toks, q) {
                        Some(close) if close <= e => {
                            val = self.method(val, &recv_ident, name_idx, q, close, tf_float);
                            p = close + 1;
                        }
                        _ => break,
                    }
                } else {
                    // Field access or tuple index: unknown contents.
                    val = Val::unknown();
                    p += 2;
                }
                recv_ident = None;
            } else if self.toks[p].is_punct("[") {
                // Indexing keeps the collection's elementwise value.
                match matching_close(self.toks, p) {
                    Some(close) if close <= e => p = close + 1,
                    _ => break,
                }
            } else if self.toks[p].is_punct("?") {
                p += 1;
            } else if self.toks[p].is_punct("(") {
                match matching_close(self.toks, p) {
                    Some(close) if close <= e => {
                        val = Val::unknown();
                        p = close + 1;
                    }
                    _ => break,
                }
            } else {
                break;
            }
        }
        if neg {
            val = negate(&val);
        }
        val
    }

    /// Ident-led primary: paths, calls, consts, env lookups, macros.
    /// Returns the value and the position after the consumed tokens.
    fn ident_primary(&mut self, i: usize, e: usize) -> Option<(Val, usize)> {
        let first = &self.toks[i];
        if matches!(
            first.text.as_str(),
            "if" | "match" | "unsafe" | "loop" | "while" | "for" | "move" | "return" | "break"
        ) {
            return Some((Val::unknown(), e));
        }
        // Collect the `::` path.
        let mut segs = vec![i];
        let mut j = i + 1;
        while j + 1 < e && self.toks[j].is_punct("::") && self.toks[j + 1].kind == TokKind::Ident {
            segs.push(j + 1);
            j += 2;
        }
        let last = *segs.last()?;
        let name = self.toks[last].text.as_str();
        // Macro call: `name!(..)` — opaque.
        if self.toks.get(j).is_some_and(|n| n.is_punct("!")) {
            let open = j + 1;
            if self
                .toks
                .get(open)
                .is_some_and(|n| n.is_punct("(") || n.is_punct("[") || n.is_punct("{"))
            {
                if let Some(close) = matching_close(self.toks, open) {
                    return Some((Val::unknown(), close + 1));
                }
            }
            return Some((Val::unknown(), e));
        }
        // Turbofish before a call.
        if self.toks.get(j).is_some_and(|n| n.is_punct("::"))
            && self.toks.get(j + 1).is_some_and(|n| n.is_punct("<"))
        {
            j = self.skip_angles(j + 1)?;
        }
        if self.toks.get(j).is_some_and(|n| n.is_punct("(")) {
            // Free/associated call.
            let close = matching_close(self.toks, j)?;
            if SIGMOID_FAMILY.contains(&name) {
                let mut v = Val::float(Domain::NonNeg);
                v.p01 = true;
                return Some((v, close + 1));
            }
            if name == "softplus" {
                return Some((Val::float(Domain::NonNeg), close + 1));
            }
            if let Some(&callee) = self.site_map.get(&(self.file, last)) {
                let mut v = self.summaries[callee];
                v.is_float |= self.fns[callee].returns_float;
                v.def = None;
                return Some((v, close + 1));
            }
            return Some((Val::unknown(), close + 1));
        }
        // Non-call path.
        if segs.len() >= 2 {
            let head = self.toks[segs[0]].text.as_str();
            if matches!(head, "f64" | "f32") && matches!(name, "EPSILON" | "MIN_POSITIVE") {
                return Some((Val::float(Domain::EpsGuarded), j));
            }
            if matches!(head, "f64" | "f32") && name == "MAX" {
                return Some((Val::float(Domain::Positive), j));
            }
            if let Some(&(v, isf)) = self.consts.get(name) {
                return Some((of_const(v, isf), j));
            }
            return Some((Val::unknown(), j));
        }
        if let Some(&(v, isf)) = self.consts.get(name) {
            return Some((of_const(v, isf), j));
        }
        if name.contains("EPS") && name.chars().all(|c| c.is_ascii_uppercase() || c == '_') {
            return Some((Val::float(Domain::EpsGuarded), j));
        }
        Some((self.lookup(name, i), j))
    }

    /// Environment lookup with guard-region promotion at position `at`.
    fn lookup(&self, name: &str, at: usize) -> Val {
        let mut v = self.env.get(name).copied().unwrap_or_else(Val::unknown);
        for (g, gs, ge, dom) in &self.guards {
            if g == name && *gs <= at && at < *ge && *dom > v.domain {
                v.domain = *dom;
            }
        }
        v
    }

    /// Builtin method transfers (std float/collection methods the call
    /// graph deliberately does not resolve).
    fn method(
        &mut self,
        recv: Val,
        recv_ident: &Option<(String, usize)>,
        name_idx: usize,
        open: usize,
        close: usize,
        tf_float: bool,
    ) -> Val {
        let name = self.toks[name_idx].text.clone();
        if SIGMOID_FAMILY.contains(&name.as_str()) {
            let mut v = Val::float(Domain::NonNeg);
            v.p01 = true;
            return v;
        }
        // Workspace-resolved callee wins: its summary is the truth.
        if let Some(&callee) = self.site_map.get(&(self.file, name_idx)) {
            let mut v = self.summaries[callee];
            v.is_float |= self.fns[callee].returns_float;
            v.def = None;
            return v;
        }
        let args = split_args(self.toks, open + 1, close);
        let arg = |fl: &mut Self, n: usize| -> Val {
            match args.get(n) {
                Some(&(s, e)) => fl.eval(s, e),
                None => Val::unknown(),
            }
        };
        match name.as_str() {
            "max" => {
                let a = arg(self, 0);
                Val {
                    domain: recv.domain.max(a.domain),
                    p01: recv.p01 && a.p01,
                    lt_one: recv.lt_one && a.lt_one,
                    is_float: recv.is_float || a.is_float,
                    value: fold2(&recv, &a, f64::max),
                    def: recv.def,
                }
            }
            "min" => {
                let a = arg(self, 0);
                Val {
                    domain: recv.domain.min(a.domain),
                    p01: recv.ge0() && a.ge0() && (recv.p01 || a.p01),
                    lt_one: recv.lt_one || a.lt_one,
                    is_float: recv.is_float || a.is_float,
                    value: fold2(&recv, &a, f64::min),
                    def: recv.def,
                }
            }
            "abs" => Val {
                domain: recv.domain.max(Domain::NonNeg),
                p01: recv.p01,
                lt_one: recv.p01 && recv.lt_one,
                is_float: true,
                value: recv.value.map(f64::abs),
                def: recv.def,
            },
            "exp" => Val {
                // Documented over-approximation: e^x underflows to 0
                // only for x < ~-745.
                domain: Domain::Positive,
                p01: false,
                lt_one: false,
                is_float: true,
                value: recv.value.map(f64::exp),
                def: recv.def,
            },
            "sqrt" => Val {
                domain: if recv.pos() {
                    recv.domain
                } else if recv.ge0() {
                    Domain::NonNeg
                } else {
                    Domain::Unknown
                },
                p01: recv.p01,
                lt_one: recv.p01 && recv.lt_one,
                is_float: true,
                value: recv.value.filter(|v| *v >= 0.0).map(f64::sqrt),
                def: recv.def,
            },
            "clamp" => {
                let lo = arg(self, 0);
                let hi = arg(self, 1);
                let hi_le_one = hi.p01 || matches!(hi.value, Some(v) if v <= 1.0);
                Val {
                    domain: if lo.pos() {
                        lo.domain
                    } else if lo.ge0() {
                        Domain::NonNeg
                    } else {
                        Domain::Unknown
                    },
                    p01: lo.ge0() && hi_le_one,
                    lt_one: hi.lt_one || matches!(hi.value, Some(v) if v < 1.0),
                    is_float: true,
                    value: match (recv.value, lo.value, hi.value) {
                        (Some(v), Some(l), Some(h)) if l <= h => Some(v.clamp(l, h)),
                        _ => None,
                    },
                    def: recv.def,
                }
            }
            "recip" => Val {
                domain: if recv.pos() {
                    Domain::Positive
                } else {
                    Domain::Unknown
                },
                is_float: true,
                ..Val::unknown()
            },
            "powi" | "powf" => {
                let a = arg(self, 0);
                let even = matches!(a.value, Some(v) if v.rem_euclid(2.0) < 0.25);
                let domain = if recv.pos() {
                    Domain::Positive
                } else if recv.ge0() || (name == "powi" && even) {
                    Domain::NonNeg
                } else {
                    Domain::Unknown
                };
                Val {
                    domain,
                    p01: recv.p01,
                    lt_one: recv.p01 && recv.lt_one,
                    is_float: true,
                    value: None,
                    def: recv.def,
                }
            }
            "ln" | "log" | "log2" | "log10" => Val {
                is_float: true,
                ..Val::unknown()
            },
            "floor" | "ceil" | "round" | "trunc" => Val {
                domain: if recv.ge0() {
                    Domain::NonNeg
                } else {
                    Domain::Unknown
                },
                is_float: true,
                ..Val::unknown()
            },
            "len" | "count" => {
                let mut v = Val::unknown();
                v.domain = Domain::NonNeg;
                if let Some((rname, _)) = recv_ident {
                    if self
                        .len_pos
                        .iter()
                        .any(|(n, s, e)| n == rname && *s <= name_idx && name_idx < *e)
                    {
                        v.domain = Domain::EpsGuarded;
                    }
                }
                v
            }
            "sum" | "product" => Val {
                domain: if name == "product" && recv.pos() {
                    Domain::Positive
                } else if recv.ge0() {
                    Domain::NonNeg
                } else {
                    Domain::Unknown
                },
                p01: name == "product" && recv.p01,
                lt_one: false,
                is_float: recv.is_float || tf_float,
                value: None,
                def: None,
            },
            // Transparent wrappers: the elementwise value flows through.
            "iter" | "into_iter" | "iter_mut" | "data" | "as_slice" | "to_vec" | "clone"
            | "copied" | "cloned" | "collect" | "take" | "skip" | "rev" => recv,
            "map" => self.map_transfer(recv, &args),
            _ => Val::unknown(),
        }
    }

    /// `.map(f)`: evaluate a one-parameter closure body with the
    /// parameter bound to the receiver's elementwise value, or match a
    /// bare sigmoid-family fn reference.
    fn map_transfer(&mut self, recv: Val, args: &[(usize, usize)]) -> Val {
        let Some(&(s, e)) = args.first() else {
            return Val::unknown();
        };
        if e == s + 1
            && self.toks[s].kind == TokKind::Ident
            && SIGMOID_FAMILY.contains(&self.toks[s].text.as_str())
        {
            let mut v = Val::float(Domain::NonNeg);
            v.p01 = true;
            return v;
        }
        // `|x| body` (optionally `|&x|` / `|&mut x|`).
        if !self.toks[s].is_punct("|") {
            return Val::unknown();
        }
        let mut pi = s + 1;
        while pi < e && (self.toks[pi].is_punct("&") || self.toks[pi].is_ident("mut")) {
            pi += 1;
        }
        if pi + 1 >= e || self.toks[pi].kind != TokKind::Ident || !self.toks[pi + 1].is_punct("|") {
            return Val::unknown();
        }
        let pname = self.toks[pi].text.clone();
        let saved = self.env.get(&pname).copied();
        self.env.insert(pname.clone(), recv);
        let v = self.eval(pi + 2, e);
        match saved {
            Some(old) => {
                self.env.insert(pname, old);
            }
            None => {
                self.env.remove(&pname);
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::Context;

    fn flow_of(files: &[(&str, &str)]) -> (CallGraph, FloatFlow) {
        let files = Context::of(files).files;
        let graph = CallGraph::build(&files);
        let flow = FloatFlow::build(&files, &graph);
        (graph, flow)
    }

    fn summary_of(graph: &CallGraph, flow: &FloatFlow, name: &str) -> Val {
        let id = graph
            .index
            .fns
            .iter()
            .position(|f| f.name == name)
            .unwrap_or_else(|| panic!("missing fn {name}"));
        flow.summaries[id]
    }

    #[test]
    fn literals_and_eps_idioms_seed_the_lattice() {
        let (g, f) = flow_of(&[(
            "crates/nn/src/a.rs",
            "pub fn lit() -> f64 { 1.5 }\n\
             pub fn guarded(x: f64) -> f64 { x.max(1e-9) }\n\
             pub fn absd(x: f64) -> f64 { x.abs() }\n\
             pub fn expd(x: f64) -> f64 { x.exp() }\n",
        )]);
        assert_eq!(summary_of(&g, &f, "lit").domain, Domain::EpsGuarded);
        assert!(matches!(summary_of(&g, &f, "lit").value, Some(v) if about(v, 1.5)));
        assert_eq!(summary_of(&g, &f, "guarded").domain, Domain::EpsGuarded);
        assert_eq!(summary_of(&g, &f, "absd").domain, Domain::NonNeg);
        assert_eq!(summary_of(&g, &f, "expd").domain, Domain::Positive);
    }

    #[test]
    fn clamp_and_complement_prove_bce_log_arguments() {
        let (_, f) = flow_of(&[(
            "crates/nn/src/a.rs",
            "const PROB_EPS: f64 = 1e-12;\n\
             pub fn bce(p: f64) -> f64 {\n\
                 let pc = p.clamp(PROB_EPS, 1.0 - PROB_EPS);\n\
                 pc.ln() + (1.0 - pc).ln()\n\
             }\n",
        )]);
        let lns: Vec<&CheckSite> = f
            .sites
            .checks
            .iter()
            .filter(|c| c.kind == CheckKind::Ln)
            .collect();
        assert_eq!(lns.len(), 2, "{:?}", f.sites.checks);
        for site in lns {
            assert!(site.val.pos(), "ln receiver should be proven: {site:?}");
        }
    }

    #[test]
    fn sigmoid_family_is_prob01_and_division_guards_resolve() {
        let (g, f) = flow_of(&[(
            "crates/nn/src/a.rs",
            "pub fn head(z: f64) -> f64 { sigmoid(z) }\n\
             pub fn ratio(a: f64, b: f64) -> f64 { a / b }\n\
             pub fn safe(a: f64, b: f64) -> f64 { a / b.max(1e-9) }\n",
        )]);
        let head = summary_of(&g, &f, "head");
        assert!(head.p01 && head.ge0());
        let divs: Vec<&CheckSite> = f
            .sites
            .checks
            .iter()
            .filter(|c| c.kind == CheckKind::Div)
            .collect();
        assert_eq!(divs.len(), 2);
        let unsafe_div = divs.iter().find(|c| c.expr == "b").expect("b site");
        assert!(!unsafe_div.val.pos() && unsafe_div.val.is_float);
        let safe_div = divs
            .iter()
            .find(|c| c.expr.contains("max"))
            .expect("max site");
        assert!(safe_div.val.pos());
    }

    #[test]
    fn comparison_guards_promote_within_the_branch() {
        let (_, f) = flow_of(&[(
            "crates/nn/src/a.rs",
            "pub fn g(x: f64, y: f64) -> f64 {\n\
                 if x > 0.0 { return y / x; }\n\
                 let z = y / x;\n\
                 z\n\
             }\n",
        )]);
        let divs: Vec<&CheckSite> = f
            .sites
            .checks
            .iter()
            .filter(|c| c.kind == CheckKind::Div)
            .collect();
        assert_eq!(divs.len(), 2, "{:?}", f.sites.checks);
        assert!(divs[0].val.pos(), "guarded branch: {:?}", divs[0]);
        assert!(!divs[1].val.pos(), "unguarded tail: {:?}", divs[1]);
    }

    #[test]
    fn early_exit_zero_guard_promotes_the_rest_of_the_body() {
        let (_, f) = flow_of(&[(
            "crates/nn/src/a.rs",
            "pub fn mean(total: f64, n: usize) -> f64 {\n\
                 if n == 0 { return 0.0; }\n\
                 total / n as f64\n\
             }\n",
        )]);
        let div = f
            .sites
            .checks
            .iter()
            .find(|c| c.kind == CheckKind::Div)
            .expect("div site");
        assert!(div.val.pos(), "n is nonzero after the early exit: {div:?}");
        assert!(div.val.is_float, "as f64 cast marks float: {div:?}");
    }

    #[test]
    fn summaries_propagate_through_calls() {
        let (_, f) = flow_of(&[(
            "crates/nn/src/a.rs",
            "pub fn eps_floor(x: f64) -> f64 { x.max(1e-9) }\n\
             pub fn user(a: f64, b: f64) -> f64 { a / eps_floor(b) }\n",
        )]);
        let div = f
            .sites
            .checks
            .iter()
            .find(|c| c.kind == CheckKind::Div)
            .expect("div site");
        assert!(
            div.val.pos(),
            "callee summary proves the denominator: {div:?}"
        );
    }

    #[test]
    fn map_closures_and_sum_prove_the_softmax_idiom() {
        let (g, f) = flow_of(&[(
            "crates/nn/src/a.rs",
            "pub fn norm(xs: f64) -> f64 {\n\
                 let exps = xs.iter().map(|x| x.exp()).collect();\n\
                 let total = exps.iter().sum::<f64>().max(1e-300);\n\
                 exps[0] / total\n\
             }\n",
        )]);
        let div = f
            .sites
            .checks
            .iter()
            .find(|c| c.kind == CheckKind::Div)
            .expect("div site");
        assert!(div.val.pos(), "eps-floored sum: {div:?}");
        assert_eq!(summary_of(&g, &f, "norm").domain, Domain::Positive);
    }

    #[test]
    fn prob_bindings_and_loss_probs_args_are_recorded() {
        let (_, f) = flow_of(&[(
            "crates/nn/src/a.rs",
            "pub fn t(z: f64, raw: f64, l: WeightedBce) -> f64 {\n\
                 let probs = z.map(stable_sigmoid);\n\
                 let prob_bad = raw * 2.0;\n\
                 l.loss_probs(&probs, raw)\n\
             }\n",
        )]);
        let good = f
            .sites
            .pbinds
            .iter()
            .find(|b| b.name == "probs")
            .expect("probs bind");
        assert!(good.val.p01);
        let bad = f
            .sites
            .pbinds
            .iter()
            .find(|b| b.name == "prob_bad")
            .expect("prob_bad bind");
        assert!(!bad.val.p01 && bad.has_arith && !bad.has_guard);
        let call = f.sites.pcalls.first().expect("loss_probs call");
        assert!(call.val.p01, "sigmoid output flows in: {call:?}");
    }

    #[test]
    fn len_guard_promotes_division_by_len() {
        let (_, f) = flow_of(&[(
            "crates/nn/src/a.rs",
            "pub fn mean(xs: f64, total: f64) -> f64 {\n\
                 if xs.is_empty() { return 0.0; }\n\
                 total / xs.len() as f64\n\
             }\n",
        )]);
        let div = f
            .sites
            .checks
            .iter()
            .find(|c| c.kind == CheckKind::Div)
            .expect("div site");
        assert!(div.val.pos(), "len of proven-non-empty: {div:?}");
    }

    #[test]
    fn defining_site_travels_with_the_binding() {
        let (_, f) = flow_of(&[(
            "crates/nn/src/a.rs",
            "pub fn g(rows: usize) -> f64 {\n\
                 let n = rows as f64;\n\
                 1.0 / n\n\
             }\n",
        )]);
        let div = f
            .sites
            .checks
            .iter()
            .find(|c| c.kind == CheckKind::Div)
            .expect("div site");
        assert!(!div.val.pos());
        assert_eq!(div.val.def, Some(2), "defined at the let: {div:?}");
    }

    #[test]
    fn eps_floored_accumulator_summary_is_eps_guarded() {
        let (g, f) = flow_of(&[(
            "crates/core/src/a.rs",
            "impl Retina {\n\
                 pub fn forward(&self) -> f64 { self.step() }\n\
                 fn step(&self) -> f64 {\n\
                     let mut s = 0.0;\n\
                     for x in self.xs() { s += x; }\n\
                     s.max(1e-9)\n\
                 }\n\
             }\n",
        )]);
        assert_eq!(summary_of(&g, &f, "step").domain, Domain::EpsGuarded);
    }
}
