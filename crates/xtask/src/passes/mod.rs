//! The analysis framework: a pass manager over pre-lexed sources. The
//! three line rules read each file's code channel a line at a time; the
//! semantic passes see every file of the workspace as a token stream and
//! can build cross-line models (the call graph, the float value lattice,
//! struct layouts) before reporting.
//!
//! Pass catalogue:
//!
//! - **R1 unwrap, R2 float-cmp, R4 index** (`line_rules`): no
//!   `.unwrap()`/`.expect(` in non-test library code outside the
//!   `bench`, `socialsim` and `text` crates, no direct float `==`/`!=`
//!   outside tests, and no raw `data[..]` indexing in the tensor kernels
//!   outside their guarded accessors.
//! - **A2 determinism** (`determinism`): unseeded RNG construction,
//!   iteration over `HashMap`/`HashSet` (order-unstable) and wall-clock
//!   reads in the model crates.
//! - **A3 cast-safety** (`cast_safety`): lossy narrowing `as` casts and
//!   unchecked `usize` subtraction in index arithmetic in the
//!   `ml`/`nn`/`diffusion` kernels.
//! - **A4 panic-reachability** (`panic_reach`): walks the workspace
//!   call graph ([`crate::callgraph`]) and reports `unwrap`/`expect`/
//!   `panic!` and unguarded indexing in every fn reachable from the
//!   hot-path roots, with the shortest call chain.
//! - **A6 discarded-Result** (`result_discard`): `let _ =` and
//!   bare-statement discards of fallible APIs, workspace-wide.
//! - **A7 lock discipline** (`locks`): inside a critical section only
//!   std method calls, `drop`, variant constructors and the wait on its
//!   own guard may run; nesting, workspace or closure calls, path
//!   functions, `recv`/`join` and prints are Errors. Condvar waits must
//!   sit in a predicate loop opened under their guard, and state a wait
//!   depends on needs a `notify_*` after it changes.
//! - **A10 division/log-guard** (`div_guard`): divisions, `ln`/`log*`
//!   and `sqrt` in hot-path-reachable fns, and in every fn of
//!   `loss.rs`/`attention.rs`/`gru.rs`, whose operands are not provably
//!   epsilon-guarded/positive in the float value lattice
//!   ([`crate::floatflow`]), with the operand's defining site.
//! - **A11 probability-domain** (`prob_domain`): `loss_probs`
//!   arguments, prob-named bindings and `predict_proba*` returns that
//!   arithmetic can push outside [0,1] without a clamp.
//! - **A13 unsafe-contract** (`unsafe_contract`): every `unsafe` must
//!   carry a `// SAFETY:` comment; `#[target_feature]` fns callable
//!   only behind runtime `is_x86_feature_detected!` dispatch;
//!   unchecked/raw-pointer ops outside the blessed AVX2 kernels.
//! - **A14 capacity/growth** (`capacity_growth`): derivable-length
//!   `Vec::new()`+`push` loops on the memory hot path must pre-size
//!   with `with_capacity`; growable collections on long-lived structs
//!   ([`crate::memflow`]) must have a remove/clear/bound site.
//!
//! [`Context`] builds the call graph and the float-flow model once per
//! run, on first use, for every pass that reads them.
//!
//! Every finding is a `Warning` or an `Error`, and either fails the run.
//! The one way to silence a finding is a reasoned allow-comment, which
//! the pass manager ([`run_passes`]) applies once for all passes by each
//! finding's `key`: `// lint: allow(<key>) <reason>` covers its own line
//! and the next, with the keys in [`ALLOW_KEYS`] (`float-flow` is shared
//! by A10–A11, `mem-flow` is A14's). A reasonless allow suppresses
//! nothing and is itself an Error (rule `allow`), once per file, line
//! and key.

pub mod capacity_growth;
pub mod cast_safety;
pub mod determinism;
pub mod div_guard;
pub mod line_rules;
pub mod locks;
pub mod panic_reach;
pub mod prob_domain;
pub mod result_discard;
pub mod unsafe_contract;

use crate::callgraph::CallGraph;
use crate::floatflow::FloatFlow;
use crate::lexer::{self, Token};
use crate::source::SourceFile;
use std::cell::OnceCell;
use std::path::Path;

/// Every allow-comment key, in pass order.
pub const ALLOW_KEYS: [&str; 12] = [
    "unwrap",
    "float-cmp",
    "index",
    "determinism",
    "lossy-cast",
    "index-underflow",
    "panic-reach",
    "discard-result",
    "lock",
    "float-flow",
    "unsafe-contract",
    "mem-flow",
];

/// Finding severity. Ordering: `Error > Warning`; both fail the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

impl Severity {
    /// Lower-case label used in the text report (`[A4/warning]`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One semantic finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id: "R1".."A14" (or "allow" for malformed allow-comments).
    pub rule: &'static str,
    /// Allow-comment key that suppresses this finding.
    pub key: &'static str,
    pub severity: Severity,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    pub message: String,
}

/// A pre-lexed source file shared by all passes.
#[derive(Clone)]
pub struct AnalyzedFile {
    pub source: SourceFile,
    pub tokens: Vec<Token>,
}

impl AnalyzedFile {
    pub fn new(source: SourceFile) -> Self {
        let tokens = lexer::lex(&source);
        AnalyzedFile { source, tokens }
    }

    /// Crate name for a `crates/<name>/src/...` path (`"root"` for the
    /// workspace package's own `src/`).
    pub fn crate_name(&self) -> &str {
        crate_of(&self.source.path)
    }
}

/// Crate name component of a workspace-relative path.
pub fn crate_of(path: &str) -> &str {
    match path.strip_prefix("crates/") {
        Some(rest) => rest.split('/').next().unwrap_or("root"),
        None => "root",
    }
}

/// Everything a pass gets to look at: the lexed files, plus the call
/// graph and float-flow model, each built once on first use.
pub struct Context {
    pub files: Vec<AnalyzedFile>,
    graph: OnceCell<CallGraph>,
    flow: OnceCell<FloatFlow>,
}

impl Context {
    pub fn new(files: Vec<AnalyzedFile>) -> Self {
        Context {
            files,
            graph: OnceCell::new(),
            flow: OnceCell::new(),
        }
    }

    /// A context over in-memory `(path, source)` pairs.
    #[cfg(test)]
    pub fn of(files: &[(&str, &str)]) -> Self {
        Context::new(
            files
                .iter()
                .map(|(p, s)| AnalyzedFile::new(SourceFile::parse(p, s)))
                .collect(),
        )
    }

    pub fn graph(&self) -> &CallGraph {
        self.graph.get_or_init(|| CallGraph::build(&self.files))
    }

    pub fn flow(&self) -> &FloatFlow {
        self.flow
            .get_or_init(|| FloatFlow::build(&self.files, self.graph()))
    }

    /// The file whose path ends with `suffix`, if present.
    pub fn file_ending_with(&self, suffix: &str) -> Option<&AnalyzedFile> {
        self.files.iter().find(|f| f.source.path.ends_with(suffix))
    }
}

/// A registered semantic pass.
pub trait Pass {
    /// Stable rule id ("R1", "A2", …).
    fn id(&self) -> &'static str;
    fn run(&self, ctx: &Context) -> Vec<Finding>;
}

/// All registered passes, in execution order.
pub fn registry() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(line_rules::R1),
        Box::new(line_rules::R2),
        Box::new(line_rules::R4),
        Box::new(determinism::Determinism),
        Box::new(cast_safety::CastSafety),
        Box::new(panic_reach::PanicReach),
        Box::new(result_discard::ResultDiscard),
        Box::new(locks::Locks),
        Box::new(div_guard::DivGuard),
        Box::new(prob_domain::ProbDomain),
        Box::new(unsafe_contract::UnsafeContract),
        Box::new(capacity_growth::CapacityGrowth),
    ]
}

/// Combined result of an analysis run.
#[derive(Debug, Default)]
pub struct AnalysisReport {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
}

impl AnalysisReport {
    /// Does the run pass? (no findings left)
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: [{}/{}] {}\n",
                f.path,
                f.line,
                f.rule,
                f.severity.label(),
                f.message
            ));
        }
        out.push_str(&format!(
            "\n{} file(s) analyzed, {} finding(s)\n",
            self.files_scanned,
            self.findings.len()
        ));
        out
    }
}

/// Read and lex every library source under `root` into a pass context
/// (see [`crate::load_sources`] for the file set).
pub fn load_workspace(root: &Path) -> std::io::Result<Context> {
    let files = crate::load_sources(root)?
        .into_iter()
        .map(AnalyzedFile::new)
        .collect();
    Ok(Context::new(files))
}

/// Run `passes` over `ctx`, then apply every file's allow-comments to
/// their findings by key: a reasoned allow drops the findings with its
/// key on its own line and the next; a reasonless one drops nothing and
/// becomes an Error.
pub fn run_passes(ctx: &Context, passes: &[Box<dyn Pass>]) -> Vec<Finding> {
    let mut findings: Vec<Finding> = passes.iter().flat_map(|p| p.run(ctx)).collect();
    for file in &ctx.files {
        // Most files carry no allow-comment: skip their per-key scans.
        if !file
            .source
            .lines
            .iter()
            .any(|l| l.comment.contains("lint: allow("))
        {
            continue;
        }
        let path = &file.source.path;
        for key in ALLOW_KEYS {
            let (allowed, missing) = file.source.allows(key);
            findings.retain(|f| !(f.key == key && &f.path == path && allowed.contains(&f.line)));
            findings.extend(missing.into_iter().map(|line| Finding {
                rule: "allow",
                key: "allow",
                severity: Severity::Error,
                path: path.clone(),
                line,
                message: format!("`lint: allow({key})` needs a reason after the closing paren"),
            }));
        }
    }
    findings
}

/// Run every registered pass over the workspace at `root`.
pub fn analyze_workspace(root: &Path) -> std::io::Result<AnalysisReport> {
    let ctx = load_workspace(root)?;
    let mut report = AnalysisReport {
        findings: run_passes(&ctx, &registry()),
        files_scanned: ctx.files.len(),
    };
    report.findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.path.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_ordering_and_labels() {
        assert!(Severity::Error > Severity::Warning);
        assert_eq!(Severity::Error.label(), "error");
        assert_eq!(Severity::Warning.label(), "warning");
    }

    /// Three wall-clock reads (A2) and a float division on the serving
    /// path (A10), with `allows` above the code.
    fn allowed(allows: &str) -> Vec<Finding> {
        let src = format!(
            "{allows}\
             pub fn serve(a: f64, b: f64) -> f64 {{\n\
                 let t = std::time::Instant::now(); // lint: allow(determinism) latency only\n\
                 // lint: allow(determinism) latency only\n\
                 let u = std::time::Instant::now();\n\
                 let v = std::time::Instant::now();\n\
                 a / b\n\
             }}\n"
        );
        let ctx = Context::of(&[("crates/serving/src/x.rs", &src)]);
        run_passes(&ctx, &registry())
    }

    #[test]
    fn an_allow_suppresses_its_own_line_and_the_next() {
        let f = allowed("");
        let lines: Vec<(&str, usize)> = f.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(lines, [("A2", 5), ("A10", 6)], "{f:?}");
    }

    #[test]
    fn a_reasonless_allow_is_one_error_per_file_line_and_key() {
        // `float-flow` is shared by A10 and A11, and `lock` has no
        // finding to suppress: each reasonless allow is still one Error.
        let f = allowed(
            "// lint: allow(determinism)\n\
             // lint: allow(float-flow)\n\
             // lint: allow(lock)\n",
        );
        let mut misuses: Vec<(usize, &str)> = f
            .iter()
            .filter(|f| f.rule == "allow")
            .map(|f| (f.line, f.message.as_str()))
            .collect();
        misuses.sort_unstable();
        assert_eq!(
            misuses,
            [
                (
                    1,
                    "`lint: allow(determinism)` needs a reason after the closing paren"
                ),
                (
                    2,
                    "`lint: allow(float-flow)` needs a reason after the closing paren"
                ),
                (
                    3,
                    "`lint: allow(lock)` needs a reason after the closing paren"
                ),
            ],
            "{f:?}"
        );
        assert!(f
            .iter()
            .all(|f| f.rule != "allow" || f.severity == Severity::Error));
        // A reasonless allow suppresses nothing.
        assert_eq!(f.iter().filter(|f| f.rule != "allow").count(), 2, "{f:?}");
    }

    #[test]
    fn crate_of_maps_paths() {
        assert_eq!(crate_of("crates/ml/src/gbdt.rs"), "ml");
        assert_eq!(crate_of("src/lib.rs"), "root");
    }
}
