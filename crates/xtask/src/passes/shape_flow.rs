//! A1 — shape-flow analysis of the RETINA model graph.
//!
//! The pass extracts every `Dense::new`, `Gru::new`, `Lstm::new`,
//! `SimpleRnn::new` and `ExogenousAttention::new` construction from
//! `crates/core/src/retina.rs`, resolves the symbolic dimension
//! expressions against the defaults declared in
//! `RetinaConfig::static_default()` and the local `let` bindings of
//! `Retina::new` (including the `if config.use_exogenous { 2 * h } else
//! { h }` merge width), and builds a model-graph IR. It then verifies the
//! wiring contract of Section V-B / Fig. 4:
//!
//! - the exogenous attention context width equals the user-feature hidden
//!   width (they are concatenated into the merged vector),
//! - every recurrent cell and the static output head consume the merged
//!   width,
//! - the per-interval step head consumes the recurrent hidden width,
//! - both heads emit a single logit.
//!
//! The IR is also rendered as DOT (`model_graph.dot` artifact) so the
//! wiring can be inspected visually; the rendering is checked in under
//! `docs/`.

use super::{AnalyzedFile, Context, Finding, Pass, PassOutput, Severity};
use crate::lexer::{matching_close, render, split_args, Token};
use std::collections::BTreeMap;

/// Path suffix of the file this pass analyzes.
pub const RETINA_PATH: &str = "crates/core/src/retina.rs";

/// Layer constructor types the extractor recognizes.
const LAYER_TYPES: [&str; 5] = ["Dense", "Gru", "Lstm", "SimpleRnn", "ExogenousAttention"];

pub struct ShapeFlow;

impl Pass for ShapeFlow {
    fn id(&self) -> &'static str {
        "A1"
    }

    fn run(&self, ctx: &Context) -> PassOutput {
        let mut out = PassOutput::default();
        let Some(file) = ctx.file_ending_with(RETINA_PATH) else {
            // Nothing to check in trees without the model file (fixtures).
            return out;
        };
        let graph = match extract_graph(file) {
            Ok(g) => g,
            Err(findings) => {
                out.findings = findings;
                return out;
            }
        };
        out.findings = check_graph(&graph, &file.source.path);
        out.artifacts
            .push(("model_graph.dot".into(), graph.to_dot()));
        out
    }
}

/// One extracted layer construction.
#[derive(Debug, Clone)]
pub struct LayerNode {
    /// Constructor type name.
    pub ty: String,
    /// 1-based line of the construction.
    pub line: usize,
    /// Dimension arguments, resolved under the exogenous scenario
    /// (`use_exogenous = true`): Dense `(in, out)`, recurrent `(in,
    /// hidden)`, attention `(tweet_dim, news_dim, hdim)`.
    pub dims: Vec<i64>,
    /// Source rendering of the dimension arguments (for messages).
    pub dim_exprs: Vec<String>,
}

/// The model-graph IR: every extracted layer plus the symbol table used
/// to resolve opaque dimensions back to names (`d_user`).
#[derive(Debug)]
pub struct ModelGraph {
    pub layers: Vec<LayerNode>,
    /// Opaque-value → symbol-name (for rendering).
    pub symbols: BTreeMap<i64, String>,
    /// Config defaults found in `static_default()`.
    pub config: BTreeMap<String, i64>,
}

impl ModelGraph {
    /// Pretty dimension: resolves opaque values back to their symbol.
    fn dim_name(&self, v: i64) -> String {
        match self.symbols.get(&v) {
            Some(name) => name.clone(),
            None => v.to_string(),
        }
    }

    /// Render the wiring as deterministic DOT (Graphviz).
    pub fn to_dot(&self) -> String {
        let mut s = String::from(
            "// RETINA model graph — generated by `cargo run -p xtask -- analyze --emit-dot`.\n\
             // Do not edit by hand; regenerate after changing crates/core/src/retina.rs.\n\
             digraph retina {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n",
        );
        let proj = self.input_projection();
        let att = self.attention();
        let h = proj.map_or(0, |l| l.dims[1]);
        let merged = h + att.map_or(0, |l| l.dims[2]);
        if let Some(l) = proj {
            s.push_str(&format!(
                "  input [label=\"user features\\n({})\", shape=ellipse];\n",
                self.dim_name(l.dims[0])
            ));
            s.push_str(&format!(
                "  user_dense [label=\"Dense {}→{} + ReLU\"];\n",
                self.dim_name(l.dims[0]),
                l.dims[1]
            ));
            s.push_str("  input -> user_dense;\n  user_dense -> merge;\n");
        }
        if let Some(l) = att {
            s.push_str(&format!(
                "  tweet_d2v [label=\"tweet d2v\\n({})\", shape=ellipse];\n\
                 \x20 news_d2v [label=\"news d2v\\n(k × {})\", shape=ellipse];\n",
                l.dims[0], l.dims[1]
            ));
            s.push_str(&format!(
                "  attention [label=\"ExogenousAttention\\nout {}\"];\n",
                l.dims[2]
            ));
            s.push_str(
                "  tweet_d2v -> attention;\n  news_d2v -> attention;\n  attention -> merge;\n",
            );
        }
        s.push_str(&format!(
            "  merge [label=\"concat\\n({merged})\", shape=ellipse];\n"
        ));
        for l in self.heads() {
            if att.is_some() && l.dims[0] == merged {
                s.push_str(&format!(
                    "  out_dense [label=\"Dense {}→{} + sigmoid\"];\n\
                     \x20 merge -> out_dense;\n\
                     \x20 p_static [label=\"P(u)\", shape=ellipse];\n\
                     \x20 out_dense -> p_static;\n",
                    l.dims[0], l.dims[1]
                ));
            } else {
                s.push_str(&format!(
                    "  step_dense [label=\"Dense {}→{} + sigmoid\"];\n\
                     \x20 p_dynamic [label=\"P_j(u) per interval\", shape=ellipse];\n\
                     \x20 step_dense -> p_dynamic;\n",
                    l.dims[0], l.dims[1]
                ));
            }
        }
        for l in self.recurrent_cells() {
            let name = l.ty.to_lowercase();
            s.push_str(&format!(
                "  {name} [label=\"{} {}→{}\"];\n\
                 \x20 merge -> {name};\n\
                 \x20 {name} -> step_dense;\n",
                l.ty, l.dims[0], l.dims[1]
            ));
        }
        s.push_str("}\n");
        s
    }

    /// The Dense taking the raw (opaque-width) user features.
    pub fn input_projection(&self) -> Option<&LayerNode> {
        self.layers
            .iter()
            .find(|l| l.ty == "Dense" && self.symbols.contains_key(&l.dims[0]))
    }

    pub fn attention(&self) -> Option<&LayerNode> {
        self.layers.iter().find(|l| l.ty == "ExogenousAttention")
    }

    pub fn recurrent_cells(&self) -> Vec<&LayerNode> {
        self.layers
            .iter()
            .filter(|l| matches!(l.ty.as_str(), "Gru" | "Lstm" | "SimpleRnn"))
            .collect()
    }

    /// Output heads: Dense layers emitting a single logit.
    pub fn heads(&self) -> Vec<&LayerNode> {
        self.layers
            .iter()
            .filter(|l| l.ty == "Dense" && l.dims[1] == 1)
            .collect()
    }
}

/// Verify the wiring contract; every violation is an A1 finding.
fn check_graph(graph: &ModelGraph, path: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let finding = |line: usize, severity: Severity, message: String| Finding {
        rule: "A1",
        key: "shape",
        severity,
        path: path.to_string(),
        line,
        message,
    };

    let Some(proj) = graph.input_projection() else {
        out.push(finding(
            1,
            Severity::Warning,
            "model graph incomplete: no input-projection Dense (a Dense whose \
             in-dim is a free symbol) was extracted"
                .into(),
        ));
        return out;
    };
    let h = proj.dims[1];

    let att_width = match graph.attention() {
        Some(att) => {
            if att.dims[2] != h {
                out.push(finding(
                    att.line,
                    Severity::Error,
                    format!(
                        "exogenous attention context width {} (`{}`) differs from the \
                         user-feature hidden width {h}; the merged vector concatenates \
                         both, so downstream layer widths become inconsistent",
                        att.dims[2], att.dim_exprs[2]
                    ),
                ));
            }
            att.dims[2]
        }
        None => 0,
    };
    let merged = h + att_width;

    let cells = graph.recurrent_cells();
    if cells.is_empty() {
        out.push(finding(
            proj.line,
            Severity::Warning,
            "model graph incomplete: no recurrent cell (Gru/Lstm/SimpleRnn) \
             construction found for the dynamic head"
                .into(),
        ));
    }
    let mut hidden = h;
    for cell in &cells {
        if cell.dims[0] != merged {
            out.push(finding(
                cell.line,
                Severity::Error,
                format!(
                    "{} input width {} (`{}`) does not match the merged vector width \
                     {merged} (= hidden {h}{}); the dynamic head would be fed a \
                     mis-shaped tensor",
                    cell.ty,
                    cell.dims[0],
                    cell.dim_exprs[0],
                    if att_width > 0 {
                        format!(" + attention {att_width}")
                    } else {
                        String::new()
                    }
                ),
            ));
        }
        hidden = cell.dims[1];
    }

    let heads = graph.heads();
    if heads.is_empty() {
        out.push(finding(
            proj.line,
            Severity::Warning,
            "model graph incomplete: no output head (Dense with out-dim 1) found".into(),
        ));
    }
    for head in heads {
        let ok = head.dims[0] == merged || head.dims[0] == hidden;
        if !ok {
            out.push(finding(
                head.line,
                Severity::Error,
                format!(
                    "output head input width {} (`{}`) matches neither the merged \
                     vector width {merged} (static head) nor the recurrent hidden \
                     width {hidden} (dynamic step head)",
                    head.dims[0], head.dim_exprs[0]
                ),
            ));
        }
    }
    // Non-head Dense layers other than the projection also must consume a
    // known width (catches a stray interior Dense with a bad in-dim).
    for l in &graph.layers {
        if l.ty == "Dense"
            && l.dims[1] != 1
            && !graph.symbols.contains_key(&l.dims[0])
            && l.dims[0] != merged
            && l.dims[0] != h
            && l.dims[0] != hidden
        {
            out.push(finding(
                l.line,
                Severity::Error,
                format!(
                    "interior Dense input width {} (`{}`) matches no produced width \
                     (hidden {h}, merged {merged}, recurrent {hidden})",
                    l.dims[0], l.dim_exprs[0]
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Extraction
// ---------------------------------------------------------------------------

/// Extract the model graph from the retina source file.
pub fn extract_graph(file: &AnalyzedFile) -> Result<ModelGraph, Vec<Finding>> {
    let toks = &file.tokens;
    let path = &file.source.path;

    // 1. Config defaults from `static_default()` (fall back to the paper
    //    values when a field is not found, so the pass degrades
    //    gracefully instead of going silent).
    let mut config: BTreeMap<String, i64> = [("hdim", 64), ("news_k", 60), ("d2v_dim", 50)]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    if let Some(body) = fn_body(toks, "static_default") {
        for key in ["hdim", "news_k", "d2v_dim"] {
            for j in body.0..body.1 {
                if toks[j].is_ident(key)
                    && toks.get(j + 1).is_some_and(|t| t.is_punct(":"))
                    && toks
                        .get(j + 2)
                        .is_some_and(|t| t.kind == crate::lexer::TokKind::Int)
                {
                    if let Ok(v) = parse_int(&toks[j + 2].text) {
                        config.insert(key.to_string(), v);
                    }
                }
            }
        }
    }

    // 2. Local `let` bindings of `Retina::new` (e.g. `h`, `merged`).
    let mut bindings: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    if let Some((start, end)) = fn_body(toks, "new") {
        let mut j = start;
        while j < end {
            if toks[j].is_ident("let")
                && toks
                    .get(j + 1)
                    .is_some_and(|t| t.kind == crate::lexer::TokKind::Ident)
                && toks.get(j + 2).is_some_and(|t| t.is_punct("="))
            {
                let name = toks[j + 1].text.clone();
                let expr_start = j + 3;
                let mut depth = 0i32;
                let mut k = expr_start;
                while k < end {
                    match toks[k].text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        ";" if depth == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                bindings.insert(name, (expr_start, k));
                j = k;
            }
            j += 1;
        }
    }

    // 3. Layer constructions anywhere in non-test code.
    let mut symbols = SymbolTable::default();
    let mut layers = Vec::new();
    let mut errors = Vec::new();
    let mut j = 0;
    while j + 3 < toks.len() {
        let t = &toks[j];
        if t.kind == crate::lexer::TokKind::Ident
            && LAYER_TYPES.contains(&t.text.as_str())
            && !t.in_test
            && toks[j + 1].is_punct("::")
            && toks[j + 2].is_ident("new")
            && toks[j + 3].is_punct("(")
        {
            let open = j + 3;
            let Some(close) = matching_close(toks, open) else {
                j += 1;
                continue;
            };
            let args = split_args(toks, open + 1, close);
            let n_dims = if t.text == "ExogenousAttention" { 3 } else { 2 };
            if args.len() < n_dims {
                errors.push(Finding {
                    rule: "A1",
                    key: "shape",
                    severity: Severity::Error,
                    path: path.clone(),
                    line: t.line,
                    message: format!(
                        "{}::new takes at least {n_dims} dimension argument(s), found {}",
                        t.text,
                        args.len()
                    ),
                });
                j = close;
                continue;
            }
            let mut dims = Vec::with_capacity(n_dims);
            let mut dim_exprs = Vec::with_capacity(n_dims);
            let mut ok = true;
            for &(a, b) in args.iter().take(n_dims) {
                let expr = render(toks, a, b);
                let scenario = Scenario {
                    config: &config,
                    bindings: &bindings,
                    use_exogenous: true,
                };
                match eval(toks, a, b, &scenario, &mut symbols, 0) {
                    Ok(v) => {
                        dims.push(v);
                        dim_exprs.push(expr);
                    }
                    Err(why) => {
                        errors.push(Finding {
                            rule: "A1",
                            key: "shape",
                            severity: Severity::Warning,
                            path: path.clone(),
                            line: t.line,
                            message: format!(
                                "cannot resolve dimension expression `{expr}` for \
                                 {}::new: {why}",
                                t.text
                            ),
                        });
                        ok = false;
                    }
                }
            }
            if ok {
                layers.push(LayerNode {
                    ty: t.text.clone(),
                    line: t.line,
                    dims,
                    dim_exprs,
                });
            }
            j = close;
            continue;
        }
        j += 1;
    }

    if !errors.is_empty() {
        return Err(errors);
    }
    Ok(ModelGraph {
        layers,
        symbols: symbols.names,
        config,
    })
}

/// Body token range of the first `fn <name>` in the stream.
fn fn_body(toks: &[Token], name: &str) -> Option<(usize, usize)> {
    for j in 0..toks.len().saturating_sub(1) {
        if toks[j].is_ident("fn") && toks[j + 1].is_ident(name) {
            let open = (j + 2..toks.len()).find(|&k| toks[k].is_punct("{"))?;
            let close = matching_close(toks, open)?;
            return Some((open + 1, close));
        }
    }
    None
}

/// Parse decimal / hex integer literals.
fn parse_int(text: &str) -> Result<i64, String> {
    let t = text.replace('_', "");
    let r = match t.strip_prefix("0x") {
        Some(hex) => i64::from_str_radix(hex, 16),
        None => t.parse(),
    };
    r.map_err(|_| format!("bad integer literal `{text}`"))
}

/// Deterministic opaque values for free symbols (`d_user`): large odd
/// numbers derived from the name, so equal names compare equal and never
/// collide with real layer widths.
#[derive(Default)]
struct SymbolTable {
    names: BTreeMap<i64, String>,
}

impl SymbolTable {
    fn opaque(&mut self, name: &str) -> i64 {
        let mut h = 0xcbf29ce484222325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        let v = 1_000_003 + (h % 1_000_003) as i64 * 2 + 1;
        self.names.insert(v, name.to_string());
        v
    }
}

struct Scenario<'a> {
    config: &'a BTreeMap<String, i64>,
    bindings: &'a BTreeMap<String, (usize, usize)>,
    use_exogenous: bool,
}

const MAX_EVAL_DEPTH: usize = 8;

/// Evaluate a dimension expression over `toks[start..end)`.
///
/// Grammar: `expr := term (('+'|'-') term)*`, `term := factor ('*'
/// factor)*`, `factor := INT | path | '(' expr ')' | 'if' path block
/// 'else' block`. Paths resolve through the config defaults, the local
/// `let` bindings (recursively) and finally to opaque symbols.
fn eval(
    toks: &[Token],
    start: usize,
    end: usize,
    sc: &Scenario<'_>,
    syms: &mut SymbolTable,
    depth: usize,
) -> Result<i64, String> {
    if depth > MAX_EVAL_DEPTH {
        return Err("expression nests too deep (recursive binding?)".into());
    }
    let mut pos = start;
    let v = eval_additive(toks, &mut pos, end, sc, syms, depth)?;
    if pos != end {
        return Err(format!(
            "unsupported trailing tokens `{}`",
            render(toks, pos, end)
        ));
    }
    Ok(v)
}

fn eval_additive(
    toks: &[Token],
    pos: &mut usize,
    end: usize,
    sc: &Scenario<'_>,
    syms: &mut SymbolTable,
    depth: usize,
) -> Result<i64, String> {
    let mut acc = eval_mul(toks, pos, end, sc, syms, depth)?;
    while *pos < end {
        let op = toks[*pos].text.clone();
        if op != "+" && op != "-" {
            break;
        }
        *pos += 1;
        let rhs = eval_mul(toks, pos, end, sc, syms, depth)?;
        acc = if op == "+" { acc + rhs } else { acc - rhs };
    }
    Ok(acc)
}

fn eval_mul(
    toks: &[Token],
    pos: &mut usize,
    end: usize,
    sc: &Scenario<'_>,
    syms: &mut SymbolTable,
    depth: usize,
) -> Result<i64, String> {
    let mut acc = eval_factor(toks, pos, end, sc, syms, depth)?;
    while *pos < end && toks[*pos].is_punct("*") {
        *pos += 1;
        let rhs = eval_factor(toks, pos, end, sc, syms, depth)?;
        acc *= rhs;
    }
    Ok(acc)
}

fn eval_factor(
    toks: &[Token],
    pos: &mut usize,
    end: usize,
    sc: &Scenario<'_>,
    syms: &mut SymbolTable,
    depth: usize,
) -> Result<i64, String> {
    if *pos >= end {
        return Err("empty expression".into());
    }
    let t = &toks[*pos];
    if t.kind == crate::lexer::TokKind::Int {
        *pos += 1;
        return parse_int(&t.text);
    }
    if t.is_punct("(") {
        let close = matching_close(toks, *pos).ok_or("unbalanced parenthesis")?;
        let v = eval(toks, *pos + 1, close, sc, syms, depth + 1)?;
        *pos = close + 1;
        return Ok(v);
    }
    if t.is_ident("if") {
        // `if <cond-path> { a } else { b }` — the condition must be a
        // boolean config path; only `use_exogenous` varies by scenario.
        let mut j = *pos + 1;
        let mut negated = false;
        if j < end && toks[j].is_punct("!") {
            negated = true;
            j += 1;
        }
        let (cond, after) = read_path(toks, j, end).ok_or("unsupported if-condition")?;
        let cond_val = if cond.ends_with("use_exogenous") {
            sc.use_exogenous
        } else {
            return Err(format!("unknown condition `{cond}`"));
        } ^ negated;
        let then_open = (after..end)
            .find(|&k| toks[k].is_punct("{"))
            .ok_or("missing if-block")?;
        let then_close = matching_close(toks, then_open).ok_or("unbalanced if-block")?;
        let else_kw = then_close + 1;
        if !(else_kw < end && toks[else_kw].is_ident("else")) {
            return Err("if-expression without else".into());
        }
        let else_open = (else_kw + 1..end)
            .find(|&k| toks[k].is_punct("{"))
            .ok_or("missing else-block")?;
        let else_close = matching_close(toks, else_open).ok_or("unbalanced else-block")?;
        let v = if cond_val {
            eval(toks, then_open + 1, then_close, sc, syms, depth + 1)?
        } else {
            eval(toks, else_open + 1, else_close, sc, syms, depth + 1)?
        };
        *pos = else_close + 1;
        return Ok(v);
    }
    if t.kind == crate::lexer::TokKind::Ident {
        let (path, after) = read_path(toks, *pos, end).ok_or("bad path")?;
        *pos = after;
        // config.<field> → declared default.
        if let Some(field) = path.strip_prefix("config.") {
            if let Some(&v) = sc.config.get(field) {
                return Ok(v);
            }
        }
        // Bare field name also hits the config table (fixture style).
        if let Some(&v) = sc.config.get(path.as_str()) {
            return Ok(v);
        }
        // Local binding → evaluate its right-hand side.
        if let Some(&(bs, be)) = sc.bindings.get(path.as_str()) {
            return eval(toks, bs, be, sc, syms, depth + 1);
        }
        // Free symbol (`d_user`).
        return Ok(syms.opaque(&path));
    }
    Err(format!("unsupported token `{}`", t.text))
}

/// Read a dotted/`::` path starting at `pos`; returns (joined, next pos).
fn read_path(toks: &[Token], pos: usize, end: usize) -> Option<(String, usize)> {
    if pos >= end || toks[pos].kind != crate::lexer::TokKind::Ident {
        return None;
    }
    let mut s = toks[pos].text.clone();
    let mut j = pos + 1;
    while j + 1 < end
        && (toks[j].is_punct(".") || toks[j].is_punct("::"))
        && toks[j + 1].kind == crate::lexer::TokKind::Ident
    {
        s.push('.');
        s.push_str(&toks[j + 1].text);
        j += 2;
    }
    Some((s, j))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    /// A miniature retina.rs in the shape of the real one.
    fn retina_fixture(cell_in: &str) -> AnalyzedFile {
        let src = format!(
            "impl RetinaConfig {{\n\
                 pub fn static_default() -> Self {{\n\
                     Self {{ hdim: 64, news_k: 60, d2v_dim: 50, seed: 0 }}\n\
                 }}\n\
             }}\n\
             impl Retina {{\n\
                 pub fn new(d_user: usize, config: RetinaConfig) -> Self {{\n\
                     let h = config.hdim;\n\
                     let user_dense = Dense::new(d_user, h, 1);\n\
                     let attention = ExogenousAttention::new(config.d2v_dim, config.d2v_dim, h, 2);\n\
                     let merged = if config.use_exogenous {{ 2 * h }} else {{ h }};\n\
                     let out_dense = Dense::new(merged, 1, 3);\n\
                     let cell = Gru::new({cell_in}, h, 4);\n\
                     let step_dense = Dense::new(h, 1, 5);\n\
                     unimplemented!()\n\
                 }}\n\
             }}\n"
        );
        AnalyzedFile::new(SourceFile::parse(RETINA_PATH, &src))
    }

    #[test]
    fn well_formed_graph_is_clean() {
        let f = retina_fixture("merged");
        let g = extract_graph(&f).expect("extracts");
        assert_eq!(g.layers.len(), 5);
        let findings = check_graph(&g, RETINA_PATH);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn dense_to_gru_dim_mismatch_is_an_error() {
        // The injected bug: the GRU consumes `h` where the merge produces
        // `2 * h` under the exogenous scenario.
        let f = retina_fixture("h");
        let g = extract_graph(&f).expect("extracts");
        let findings = check_graph(&g, RETINA_PATH);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].severity, Severity::Error);
        assert!(findings[0].message.contains("merged vector width 128"));
    }

    #[test]
    fn opaque_symbols_are_stable_and_named() {
        let f = retina_fixture("merged");
        let g = extract_graph(&f).expect("extracts");
        let proj = g.input_projection().expect("projection found");
        assert_eq!(g.dim_name(proj.dims[0]), "d_user");
        assert_eq!(proj.dims[1], 64);
    }

    #[test]
    fn dot_rendering_contains_the_wiring() {
        let f = retina_fixture("merged");
        let g = extract_graph(&f).expect("extracts");
        let dot = g.to_dot();
        assert!(dot.starts_with("// RETINA model graph"));
        for needle in [
            "digraph retina",
            "user_dense",
            "attention -> merge",
            "merge -> gru",
            "gru -> step_dense",
            "out_dense",
        ] {
            assert!(dot.contains(needle), "missing {needle} in:\n{dot}");
        }
    }

    #[test]
    fn config_overrides_are_read_from_static_default() {
        let src = "pub fn static_default() -> Self { Self { hdim: 32, news_k: 10, d2v_dim: 8 } }\n\
                   fn new() { let h = config.hdim; let d = Dense::new(d_user, h, 1); }\n";
        let f = AnalyzedFile::new(SourceFile::parse(RETINA_PATH, src));
        let g = extract_graph(&f).expect("extracts");
        assert_eq!(g.config["hdim"], 32);
        assert_eq!(g.layers[0].dims[1], 32);
    }

    #[test]
    fn pass_skips_trees_without_retina() {
        let ctx = Context::of(&[("crates/ml/src/x.rs", "pub fn f() {}\n")]);
        let out = ShapeFlow.run(&ctx);
        assert!(out.findings.is_empty());
        assert!(out.artifacts.is_empty());
    }
}
