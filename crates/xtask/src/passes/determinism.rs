//! A2 — determinism analysis.
//!
//! Reproduction runs must be bit-replayable from a seed. Three classes of
//! nondeterminism are flagged in the model crates (`core`, `ml`,
//! `diffusion`, `nn`, `socialsim`) and in the prediction server
//! (`serving`):
//!
//! 1. **Unseeded RNG construction** (`from_entropy`, `thread_rng`,
//!    `rand::random`) — error. Every RNG must derive from a config seed.
//! 2. **Iteration over `HashMap`/`HashSet`** — warning. Iteration order
//!    is hasher-dependent and (with a randomized hasher, or across
//!    std versions) run-dependent; when it feeds training order or metric
//!    aggregation the run stops being replayable. Use `BTreeMap`/
//!    `BTreeSet` or sort before iterating.
//! 3. **Wall-clock reads** (`Instant::now`, `SystemTime::now`) — warning.
//!    Timing belongs in the bench crate, not in result paths.
//! 4. **Ad-hoc thread spawning** (`thread::spawn`, `thread::scope`)
//!    outside the blessed `nn::par` module — error.
//!    All data-parallel work must route through the `nn::par` splitters
//!    so the bit-identity contract (disjoint output partitions, serial
//!    reductions) is enforced in one audited place.
//!
//! Detection of (2) is two-phase per file: collect every identifier
//! declared with a `HashMap`/`HashSet` type (let bindings and struct
//! fields), then flag token sequences that iterate one of them (`for …
//! in … x`, `x.iter()`, `.keys()`, `.values()`, `.values_mut()`,
//! `.drain()`, `.into_iter()`). Keyed lookups (`get`/`insert`/
//! `contains`) are order-independent and stay legal.

use super::{Context, Finding, Pass, PassOutput, Severity};
use crate::lexer::{TokKind, Token};
use std::collections::BTreeSet;

/// Crates exempt from the determinism pass: the tooling itself, the
/// bench harness (reading the wall clock is its job), the root package
/// (re-exports only) and the corpus pipeline (`text` sorts hash-built
/// vocabularies at its boundary). Every other workspace member —
/// including `serving`, whose *results* must stay deterministic
/// (worker count and dispatch order only affect latency), and any crate
/// added after this list was written — is held to the
/// seeded-RNG/ordered-iteration bar of the model crates.
const EXEMPT: [&str; 4] = ["bench", "root", "text", "xtask"];

/// Iterating method names on hash collections that expose hasher order.
const ITER_METHODS: [&str; 6] = ["iter", "keys", "values", "values_mut", "drain", "into_iter"];

/// Files allowed to spawn threads: the single blessed work-splitting
/// entry point. Everything else must build on `nn::par`.
const THREADING_ALLOWED: [&str; 1] = ["crates/nn/src/par.rs"];

pub struct Determinism;

impl Pass for Determinism {
    fn id(&self) -> &'static str {
        "A2"
    }

    fn run(&self, ctx: &Context) -> PassOutput {
        let mut out = PassOutput::default();
        for file in &ctx.files {
            if EXEMPT.contains(&file.crate_name()) {
                continue;
            }
            let (allowed, _) = file.source.allows("determinism");
            let mut findings = Vec::new();
            check_rng_and_clock(file, &mut findings);
            check_hash_iteration(file, &mut findings);
            check_adhoc_threading(file, &mut findings);
            findings.retain(|f| !allowed.contains(&f.line));
            out.findings.extend(findings);
        }
        out
    }
}

fn finding(path: &str, line: usize, severity: Severity, message: String) -> Finding {
    Finding {
        rule: "A2",
        key: "determinism",
        severity,
        path: path.to_string(),
        line,
        message,
    }
}

/// Phase 1 of (2): identifiers declared as hash collections.
fn hash_decls(tokens: &[Token]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (j, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        // Walk left past the type-expression prefix (`:`, `=`,
        // `std::collections::`, wrapper generics like `Mutex<`) to the
        // declared name: `let <name> [: ty] = …HashMap…` or the struct
        // field / binding `name : …HashMap<…`.
        let mut k = j;
        while k > 0 {
            let p = &tokens[k - 1];
            if p.is_punct("::")
                || p.is_punct("<")
                || p.is_punct("(")
                || (p.kind == TokKind::Ident
                    && !matches!(p.text.as_str(), "let" | "mut" | "pub" | "fn"))
            {
                k -= 1;
            } else {
                break;
            }
        }
        // Now expect `… name :` or `… name =` just before position k.
        if k >= 2 && (tokens[k - 1].is_punct(":") || tokens[k - 1].is_punct("=")) {
            let name = &tokens[k - 2];
            if name.kind == TokKind::Ident {
                out.insert(name.text.clone());
            }
        }
    }
    out
}

/// Unseeded RNG constructions and wall-clock reads.
fn check_rng_and_clock(file: &super::AnalyzedFile, findings: &mut Vec<Finding>) {
    let toks = &file.tokens;
    let path = &file.source.path;
    for (j, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "from_entropy" | "thread_rng" => findings.push(finding(
                path,
                t.line,
                Severity::Error,
                format!(
                    "unseeded RNG construction `{}`: every RNG in the model crates \
                     must be seeded from the run config so experiments replay \
                     bit-identically",
                    t.text
                ),
            )),
            "random" if j >= 2 && toks[j - 1].is_punct("::") && toks[j - 2].is_ident("rand") => {
                findings.push(finding(
                    path,
                    t.line,
                    Severity::Error,
                    "`rand::random` draws from the thread-local entropy RNG; seed a \
                     StdRng from the run config instead"
                        .into(),
                ))
            }
            "now"
                if j >= 2
                    && toks[j - 1].is_punct("::")
                    && matches!(toks[j - 2].text.as_str(), "Instant" | "SystemTime") =>
            {
                findings.push(finding(
                    path,
                    t.line,
                    Severity::Warning,
                    format!(
                        "wall-clock read `{}::now` in a model crate; timing belongs in \
                         the bench crate, and results must not depend on it",
                        toks[j - 2].text
                    ),
                ))
            }
            _ => {}
        }
    }
}

/// Ad-hoc thread spawning outside the blessed `nn::par` module.
fn check_adhoc_threading(file: &super::AnalyzedFile, findings: &mut Vec<Finding>) {
    let path = &file.source.path;
    if THREADING_ALLOWED.iter().any(|p| path.ends_with(p)) {
        return;
    }
    let toks = &file.tokens;
    for (j, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokKind::Ident {
            continue;
        }
        if matches!(t.text.as_str(), "spawn" | "scope")
            && j >= 2
            && toks[j - 1].is_punct("::")
            && toks[j - 2].is_ident("thread")
        {
            findings.push(finding(
                path,
                t.line,
                Severity::Error,
                format!(
                    "ad-hoc `{}::{}` outside nn::par: data-parallel work must go \
                     through the nn::par splitters so the bit-identity contract \
                     (disjoint output partitions, serial reductions) is enforced \
                     in one audited place",
                    toks[j - 2].text,
                    t.text
                ),
            ));
        }
    }
}

/// Hash-collection iteration sites.
fn check_hash_iteration(file: &super::AnalyzedFile, findings: &mut Vec<Finding>) {
    let toks = &file.tokens;
    let path = &file.source.path;
    let decls = hash_decls(toks);
    if decls.is_empty() {
        return;
    }
    let mut reported: BTreeSet<(usize, String)> = BTreeSet::new();
    let mut report = |name: &str, how: &str, line: usize, findings: &mut Vec<Finding>| {
        if reported.insert((line, name.to_string())) {
            findings.push(finding(
                path,
                line,
                Severity::Warning,
                format!(
                    "iteration over hash collection `{name}` ({how}): HashMap/HashSet \
                     order is hasher-dependent, which breaks replayability when it \
                     feeds training order or aggregation; use BTreeMap/BTreeSet or \
                     sort first"
                ),
            ));
        }
    };
    for (j, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokKind::Ident {
            continue;
        }
        // `x.iter()` / `x.values()` … on a declared hash collection; also
        // through one field hop (`self.x.iter()`).
        if ITER_METHODS.contains(&t.text.as_str())
            && toks.get(j + 1).is_some_and(|n| n.is_punct("("))
            && j >= 2
            && toks[j - 1].is_punct(".")
            && toks[j - 2].kind == TokKind::Ident
            && decls.contains(&toks[j - 2].text)
        {
            report(
                &toks[j - 2].text,
                &format!(".{}()", t.text),
                t.line,
                findings,
            );
        }
        // `for <pat> in [&[mut]] x` — the loop target is the last path
        // segment before `{`; flag when it is a declared hash collection.
        if t.is_ident("for") {
            let Some(in_pos) = (j + 1..toks.len().min(j + 24)).find(|&k| toks[k].is_ident("in"))
            else {
                continue;
            };
            let Some(body) = (in_pos + 1..toks.len()).find(|&k| toks[k].is_punct("{")) else {
                continue;
            };
            // Walk the loop-target expression; a bare `name` or trailing
            // `.name` that is a declared hash collection is a finding
            // (method calls like `.iter()` are caught above; calls ending
            // in `()` here, e.g. `.filter(…)`, are iterator-producing and
            // skipped).
            if toks[body - 1].kind == TokKind::Ident && decls.contains(&toks[body - 1].text) {
                report(
                    &toks[body - 1].text,
                    "for-loop",
                    toks[body - 1].line,
                    findings,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::passes::AnalyzedFile;
    use crate::source::SourceFile;

    fn run_on(path: &str, src: &str) -> Vec<Finding> {
        let source = SourceFile::parse(path, src);
        let tokens = lex(&source);
        let ctx = Context {
            files: vec![AnalyzedFile { source, tokens }],
        };
        Determinism.run(&ctx).findings
    }

    #[test]
    fn unseeded_rng_is_an_error() {
        let f = run_on(
            "crates/ml/src/x.rs",
            "fn f() { let mut rng = StdRng::from_entropy(); rng.gen::<f64>(); }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].severity, Severity::Error);
        assert!(f[0].message.contains("from_entropy"));
    }

    #[test]
    fn thread_rng_and_rand_random_are_errors() {
        let f = run_on(
            "crates/diffusion/src/x.rs",
            "fn f() -> f64 { let _ = rand::thread_rng(); rand::random() }\n",
        );
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn seeded_rng_is_clean() {
        let f = run_on(
            "crates/ml/src/x.rs",
            "fn f(seed: u64) { let mut rng = StdRng::seed_from_u64(seed); }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn hashmap_value_iteration_is_flagged() {
        let f = run_on(
            "crates/core/src/x.rs",
            "use std::collections::HashMap;\n\
             fn f() {\n\
                 let mut by_author: HashMap<u32, Vec<f64>> = HashMap::new();\n\
                 for v in by_author.values_mut() { v.sort_by(|a, b| a.total_cmp(b)); }\n\
             }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("by_author"));
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn hashset_for_loop_is_flagged() {
        let f = run_on(
            "crates/socialsim/src/x.rs",
            "fn f() {\n\
                 let mut participant = std::collections::HashSet::new();\n\
                 participant.insert(1u32);\n\
                 for p in &participant { let _ = p; }\n\
             }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("participant"));
    }

    #[test]
    fn keyed_lookup_is_clean() {
        let f = run_on(
            "crates/diffusion/src/x.rs",
            "fn f() {\n\
                 let times: std::collections::HashMap<u32, f64> = make();\n\
                 let _ = times.get(&1).copied();\n\
                 times.contains_key(&2);\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn btree_collections_are_clean() {
        let f = run_on(
            "crates/core/src/x.rs",
            "fn f() {\n\
                 let mut m: std::collections::BTreeMap<u32, f64> = Default::default();\n\
                 for v in m.values() { let _ = v; }\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn wall_clock_read_is_a_warning() {
        let f = run_on(
            "crates/ml/src/x.rs",
            "fn f() { let t = std::time::Instant::now(); let _ = t; }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].severity, Severity::Warning);
    }

    #[test]
    fn out_of_scope_crates_and_tests_are_skipped() {
        let f = run_on(
            "crates/bench/src/lib.rs",
            "fn f() { let t = std::time::Instant::now(); let _ = t; }\n",
        );
        assert!(f.is_empty(), "{f:?}");
        let f = run_on(
            "crates/ml/src/x.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { let _ = StdRng::from_entropy(); }\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unknown_new_member_crates_default_into_scope() {
        // Exclusion-based scoping: a crate added to the workspace after
        // this pass was written is covered without touching EXEMPT.
        let f = run_on(
            "crates/brandnew/src/lib.rs",
            "fn f() { let t = std::time::Instant::now(); let _ = t; }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(EXEMPT, ["bench", "root", "text", "xtask"]);
    }

    #[test]
    fn adhoc_thread_spawn_is_an_error() {
        let f = run_on(
            "crates/core/src/x.rs",
            "fn f() {\n\
                 std::thread::scope(|s| { s.spawn(|| {}); });\n\
                 let h = std::thread::spawn(|| 1);\n\
                 let _ = h.join();\n\
             }\n",
        );
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.severity == Severity::Error));
        assert!(f[0].message.contains("nn::par"));
    }

    #[test]
    fn blessed_par_module_may_spawn() {
        let f = run_on(
            "crates/nn/src/par.rs",
            "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn serving_crate_is_in_scope() {
        // The server reads no clock; a bare clock read or unseeded RNG
        // in `serving` is flagged like in the model crates, and only a
        // reasoned allow-comment silences it.
        let f = run_on(
            "crates/serving/src/server.rs",
            "fn f() { let t = std::time::Instant::now(); let _ = t; }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].severity, Severity::Warning);
        let f = run_on(
            "crates/serving/src/server.rs",
            "fn f() {\n\
                 // lint: allow(determinism) queue-wait timing is diagnostic-only\n\
                 let t = std::time::Instant::now(); let _ = t;\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn allow_comment_suppresses() {
        let f = run_on(
            "crates/ml/src/x.rs",
            "fn f() {\n\
                 // lint: allow(determinism) diagnostic-only timing, not in results\n\
                 let t = std::time::Instant::now(); let _ = t;\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
