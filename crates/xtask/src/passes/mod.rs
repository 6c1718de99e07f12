//! The semantic analysis framework: a pass manager over pre-lexed
//! sources. Unlike the line-based lint rules (R1–R4), passes see every
//! file of the workspace as a token stream and can build cross-line IR
//! (the A1 model graph) before reporting.
//!
//! Pass catalogue:
//!
//! - **A1 shape-flow** (`shape_flow`): extracts the RETINA layer
//!   constructions from `crates/core/src/retina.rs`, builds a model-graph
//!   IR, verifies dimension compatibility across the static and dynamic
//!   heads, and renders the graph as DOT.
//! - **A2 determinism** (`determinism`): unseeded RNG construction,
//!   iteration over `HashMap`/`HashSet` (order-unstable) and wall-clock
//!   reads in the model crates.
//! - **A3 cast-safety** (`cast_safety`): lossy narrowing `as` casts and
//!   unchecked `usize` subtraction in index arithmetic in the
//!   `ml`/`nn`/`diffusion` kernels.
//! - **A4 panic-reachability** (`panic_reach`): builds the workspace
//!   call graph ([`crate::callgraph`]) and reports `unwrap`/`expect`/
//!   `panic!` and unguarded indexing in every fn reachable from the
//!   hot-path roots, with the shortest call chain.
//! - **A5 hot-loop allocation** (`hot_alloc`): allocation-shaped calls
//!   (`Vec::new`/`vec!`/`to_vec`/`clone`/`collect`/`String::from`)
//!   inside loops of hot-path-reachable functions.
//! - **A6 discarded-Result** (`result_discard`): `let _ =` and
//!   bare-statement discards of fallible APIs, workspace-wide.
//! - **A7 lock-order** (`lock_order`): cycles and re-entrant self-edges
//!   in the global lock-acquisition-order graph built from the
//!   lock-region model ([`crate::lockmodel`]).
//! - **A8 blocking-under-lock** (`lock_block`): condvar waits holding a
//!   foreign lock, channel recv, thread join, sleep/IO and
//!   alloc-shaped calls inside lock regions reachable from the serving
//!   hot path.
//! - **A9 condvar-discipline** (`condvar`): waits outside predicate
//!   loops, ambiguous wait guards, and mutations of condvar-associated
//!   state with no following notify.
//! - **A10 division/log-guard** (`div_guard`): divisions, `ln`/`log*`
//!   and `sqrt` in hot-path-reachable fns whose operands are not
//!   provably epsilon-guarded/positive in the float value lattice
//!   ([`crate::floatflow`]), with the operand's defining site.
//! - **A11 probability-domain** (`prob_domain`): `loss_probs`
//!   arguments, prob-named bindings and `predict_proba*` returns that
//!   arithmetic can push outside [0,1] without a clamp — the
//!   inter-procedural upgrade of R3.
//! - **A13 unsafe-contract** (`unsafe_contract`): every `unsafe` must
//!   carry a `// SAFETY:` comment; `#[target_feature]` fns callable
//!   only behind runtime `is_x86_feature_detected!` dispatch;
//!   unchecked/raw-pointer ops outside the blessed simd kernels.
//! - **A14 capacity/growth** (`capacity_growth`): derivable-length
//!   `Vec::new()`+`push` loops on the memory hot path must pre-size
//!   with `with_capacity`; growable collections on long-lived structs
//!   ([`crate::memflow`]) must have a remove/clear/bound site.
//!
//! Every finding is a `Warning` or an `Error` and fails the run unless
//! the committed baseline grandfathers it. Suppression uses the same
//! allow-comment machinery as the lint: `// lint: allow(<key>) <reason>`
//! with the pass-specific keys `shape`, `determinism`, `lossy-cast`,
//! `index-underflow`, `panic-reach`, `hot-alloc`, `discard-result`,
//! `lock-order`, `lock-block`, `condvar`, `float-flow` (shared by
//! A10–A11; the misuse check for it runs once, in A10),
//! `unsafe-contract`, `mem-flow` (A14). A reasonless allow suppresses
//! nothing; for the A4, A5 and A7–A14 keys it is itself an Error (rule
//! `allow`).

pub mod capacity_growth;
pub mod cast_safety;
pub mod condvar;
pub mod determinism;
pub mod div_guard;
pub mod hot_alloc;
pub mod lock_block;
pub mod lock_order;
pub mod panic_reach;
pub mod prob_domain;
pub mod result_discard;
pub mod shape_flow;
pub mod unsafe_contract;

use crate::lexer::{self, Token};
use crate::source::SourceFile;
use std::path::Path;

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
    /// Pass id: "A1".."A3" (or "allow" for malformed allow-comments).
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

impl Finding {
    /// Stable content fingerprint for the baseline: FNV-1a over
    /// rule + path + message, deliberately excluding the line number so
    /// unrelated edits above a grandfathered finding do not invalidate
    /// the baseline.
    pub fn fingerprint(&self) -> u64 {
        let mut h = fnv1a(0xcbf29ce484222325, self.rule.as_bytes());
        h = fnv1a(h, b"|");
        h = fnv1a(h, self.path.as_bytes());
        h = fnv1a(h, b"|");
        h = fnv1a(h, self.message.as_bytes());
        h
    }
}

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// A pre-lexed source file shared by all passes.
pub struct AnalyzedFile {
    pub source: SourceFile,
    pub tokens: Vec<Token>,
}

impl AnalyzedFile {
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

/// Everything a pass gets to look at.
pub struct Context {
    pub files: Vec<AnalyzedFile>,
}

impl Context {
    /// The file whose path ends with `suffix`, if present.
    pub fn file_ending_with(&self, suffix: &str) -> Option<&AnalyzedFile> {
        self.files.iter().find(|f| f.source.path.ends_with(suffix))
    }
}

/// Output of one pass: findings plus optional named artifacts (the A1
/// pass emits the DOT model-graph rendering this way).
#[derive(Debug, Default)]
pub struct PassOutput {
    pub findings: Vec<Finding>,
    /// (artifact name, content) pairs, e.g. `("model_graph.dot", …)`.
    pub artifacts: Vec<(String, String)>,
}

/// A registered semantic pass.
pub trait Pass {
    /// Stable rule id ("A1", "A2", "A3").
    fn id(&self) -> &'static str;
    fn run(&self, ctx: &Context) -> PassOutput;
}

/// All registered passes, in execution order.
pub fn registry() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(shape_flow::ShapeFlow),
        Box::new(determinism::Determinism),
        Box::new(cast_safety::CastSafety),
        Box::new(panic_reach::PanicReach),
        Box::new(hot_alloc::HotAlloc),
        Box::new(result_discard::ResultDiscard),
        Box::new(lock_order::LockOrder),
        Box::new(lock_block::LockBlock),
        Box::new(condvar::CondvarDiscipline),
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
    pub artifacts: Vec<(String, String)>,
    pub files_scanned: usize,
    /// Findings suppressed by the baseline (count only).
    pub baselined: usize,
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
            "\n{} file(s) analyzed, {} finding(s){}\n",
            self.files_scanned,
            self.findings.len(),
            if self.baselined > 0 {
                format!(" ({} baselined)", self.baselined)
            } else {
                String::new()
            }
        ));
        out
    }
}

/// Read and lex every library source under `root` into a pass context
/// (the same file set `lint` scans, see [`crate::load_sources`]).
pub fn load_workspace(root: &Path) -> std::io::Result<Context> {
    let files = crate::load_sources(root)?
        .into_iter()
        .map(|source| {
            let tokens = lexer::lex(&source);
            AnalyzedFile { source, tokens }
        })
        .collect();
    Ok(Context { files })
}

/// Run every registered pass over the workspace at `root`.
pub fn analyze_workspace(root: &Path) -> std::io::Result<AnalysisReport> {
    let ctx = load_workspace(root)?;

    let mut report = AnalysisReport {
        files_scanned: ctx.files.len(),
        ..Default::default()
    };
    for pass in registry() {
        let mut out = pass.run(&ctx);
        report.findings.append(&mut out.findings);
        report.artifacts.append(&mut out.artifacts);
    }
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

    #[test]
    fn fingerprint_ignores_line_number() {
        let a = Finding {
            rule: "A3",
            key: "lossy-cast",
            severity: Severity::Warning,
            path: "crates/ml/src/x.rs".into(),
            line: 10,
            message: "m".into(),
        };
        let b = Finding {
            line: 99,
            ..a.clone()
        };
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = Finding {
            message: "other".into(),
            ..a.clone()
        };
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn crate_of_maps_paths() {
        assert_eq!(crate_of("crates/ml/src/gbdt.rs"), "ml");
        assert_eq!(crate_of("src/lib.rs"), "root");
    }
}
