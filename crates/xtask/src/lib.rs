//! Workspace correctness tooling.
//!
//! The `lint` subcommand runs a rule-driven line scanner over every
//! crate's library sources:
//!
//! - R1: no `.unwrap()` / `.expect()` in non-test library code of every
//!   workspace member except `bench`, `socialsim` and `text`
//! - R2: no direct float `==` / `!=` outside tests
//! - R4: no raw buffer indexing in the tensor hot kernels
//!
//! The `analyze` subcommand runs the token-stream semantic passes
//! (A2 determinism, A3 cast-safety, the call-graph-based A4
//! panic-reachability, A6 discarded-Result and A7 lock discipline, the
//! float-value-lattice-based A10 division/log-guard and A11
//! probability-domain, plus the memory-shape-model-based A13
//! unsafe-contract and A14 capacity/growth — see [`passes`], [`items`],
//! [`callgraph`], [`floatflow`], [`memflow`]) against a committed
//! finding baseline ([`baseline`]). `explain <rule>` prints
//! each rule's rationale and fix guidance from the shared catalogue
//! ([`explain`]). `bench-report`, `serving-report` and `mem-report` run
//! the kernel, serving and peak-RSS harnesses and maintain their
//! `BENCH_*.json` files through one record format and gate table
//! ([`report`]).
//!
//! Violations can be suppressed in place with
//! `// lint: allow(<key>) <reason>` where `<key>` is one of
//! `unwrap`, `float-cmp`, `index` (lint) or `determinism`,
//! `lossy-cast`, `index-underflow`, `panic-reach`, `discard-result`,
//! `lock`, `float-flow`, `unsafe-contract`, `mem-flow` (analyze,
//! [`passes::ALLOW_KEYS`]); the reason is required.

pub mod baseline;
pub mod callgraph;
pub mod explain;
pub mod floatflow;
pub mod items;
pub mod lexer;
pub mod memflow;
pub mod passes;
pub mod report;
pub mod rules;
pub mod source;

use rules::Violation;
use source::SourceFile;
use std::fs;
use std::path::{Path, PathBuf};

/// Combined result of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    pub violations: Vec<Violation>,
    pub files_scanned: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                v.path, v.line, v.rule, v.message
            ));
        }
        out.push_str(&format!(
            "\n{} file(s) scanned, {} violation(s)\n",
            self.files_scanned,
            self.violations.len()
        ));
        out
    }
}

/// Workspace member source roots, enumerated from the root
/// `Cargo.toml`'s `[workspace] members` globs rather than a hardcoded
/// crate list, so a newly added member is linted and analyzed the day
/// it appears in the manifest. `vendor/*` members are skipped (they are
/// third-party stub subsets, not ours to lint). Fixture trees without a
/// manifest fall back to a plain `crates/` directory scan.
pub fn workspace_members(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut patterns = match fs::read_to_string(root.join("Cargo.toml")) {
        Ok(manifest) => member_globs(&manifest),
        Err(_) => Vec::new(),
    };
    if patterns.is_empty() {
        patterns.push("crates/*".to_string());
    }
    let mut members = Vec::new();
    for pattern in patterns {
        if pattern.starts_with("vendor/") {
            continue;
        }
        match pattern.strip_suffix("/*") {
            Some(parent) => {
                let dir = root.join(parent);
                if dir.is_dir() {
                    for entry in fs::read_dir(&dir)? {
                        let path = entry?.path();
                        if path.is_dir() {
                            members.push(path);
                        }
                    }
                }
            }
            None => {
                let path = root.join(&pattern);
                if path.is_dir() {
                    members.push(path);
                }
            }
        }
    }
    members.sort();
    members.dedup();
    Ok(members)
}

/// The quoted entries of the first `members = [...]` array in a
/// workspace manifest. Line-oriented TOML subset: good enough for the
/// root manifest this repo controls.
fn member_globs(manifest: &str) -> Vec<String> {
    let Some(key) = manifest.find("members") else {
        return Vec::new();
    };
    let rest = &manifest[key..];
    let Some(open) = rest.find('[') else {
        return Vec::new();
    };
    let Some(close) = rest[open..].find(']') else {
        return Vec::new();
    };
    rest[open..open + close]
        .split('"')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

/// Read every library source under `root` (the workspace root): each
/// manifest-listed member's `src/**.rs` plus the root package's `src/`,
/// sorted by path. Vendored stub crates, tests/, benches/ and examples/
/// trees are out of scope. `lint` and `analyze` share this file set.
pub fn load_sources(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    for member in workspace_members(root)? {
        collect_rs(&member.join("src"), &mut paths)?;
    }
    collect_rs(&root.join("src"), &mut paths)?;
    paths.sort();
    paths
        .iter()
        .map(|path| {
            let raw = fs::read_to_string(path)?;
            let rel = path.strip_prefix(root).unwrap_or(path).to_string_lossy();
            Ok(SourceFile::parse(&rel, &raw))
        })
        .collect()
}

/// Lint all library sources under `root` (the workspace root).
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let sources = load_sources(root)?;
    let mut report = Report {
        files_scanned: sources.len(),
        ..Report::default()
    };
    for file in &sources {
        report.violations.extend(rules::lint_file(file));
    }
    report
        .violations
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    Ok(report)
}

/// Recursively gather `.rs` files under `dir` (no-op when absent).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    /// Build a scratch workspace tree; returns its root.
    fn fixture(tag: &str, files: &[(&str, &str)]) -> PathBuf {
        let root = std::env::temp_dir().join(format!("xtask-fixture-{tag}"));
        let _ = fs::remove_dir_all(&root);
        for (rel, content) in files {
            let path = root.join(rel);
            fs::create_dir_all(path.parent().expect("fixture path has parent"))
                .expect("mkdir fixture");
            fs::write(&path, content).expect("write fixture");
        }
        root
    }

    #[test]
    fn violating_fixture_fails_the_lint() {
        let root = fixture(
            "violating",
            &[
                (
                    "crates/nn/src/loss.rs",
                    "pub fn bad(p: f64) -> f64 {\n\
                         if p == 0.0 { return 0.0; }\n\
                         p.ln()\n\
                     }\n\
                     pub fn worse(x: Option<f64>) -> f64 { x.unwrap() }\n",
                ),
                (
                    "crates/nn/src/tensor.rs",
                    "impl M { pub fn matmul(&self) -> f64 { self.data[0] } }\n",
                ),
            ],
        );
        let report = lint_workspace(&root).expect("lint runs");
        assert!(!report.is_clean());
        let rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
        for expected in ["R1", "R2", "R4"] {
            assert!(rules.contains(&expected), "missing {expected} in {rules:?}");
        }
        assert_eq!(report.files_scanned, 2);
    }

    #[test]
    fn clean_fixture_passes() {
        let root = fixture(
            "clean",
            &[(
                "crates/nn/src/dense.rs",
                "// TODO: fuse the bias add\n\
                 pub fn forward(x: f64) -> f64 { x.max(0.0) }\n",
            )],
        );
        let report = lint_workspace(&root).expect("lint runs");
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn tests_and_benches_trees_are_out_of_scope() {
        let root = fixture(
            "scope",
            &[
                (
                    "crates/nn/tests/contract.rs",
                    "fn t() { x.unwrap(); assert!(a == 1.0); }\n",
                ),
                ("crates/nn/benches/b.rs", "fn b() { x.unwrap(); }\n"),
                ("crates/nn/src/ok.rs", "pub fn f() {}\n"),
            ],
        );
        let report = lint_workspace(&root).expect("lint runs");
        assert!(report.is_clean());
        assert_eq!(report.files_scanned, 1);
    }

    #[test]
    fn allow_comments_suppress_in_fixture() {
        let root = fixture(
            "allowed",
            &[(
                "crates/core/src/io.rs",
                "pub fn f(x: Option<u8>) -> u8 {\n\
                     // lint: allow(unwrap) config is validated at startup\n\
                     x.unwrap()\n\
                 }\n",
            )],
        );
        let report = lint_workspace(&root).expect("lint runs");
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn real_workspace_tree_is_clean() {
        // The acceptance gate: the shipped tree must lint clean.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .to_path_buf();
        let report = lint_workspace(&root).expect("lint runs");
        assert!(
            report.is_clean(),
            "workspace has lint violations:\n{}",
            report.render()
        );
        assert!(report.files_scanned > 20, "walker found the crates");
    }

    #[test]
    fn real_workspace_tree_analyzes_clean_with_baseline() {
        // The analyze acceptance gate: every pass over the shipped tree,
        // minus the committed baseline, must be clean.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .to_path_buf();
        let mut report = passes::analyze_workspace(&root).expect("analyze runs");
        let base = baseline::Baseline::load(&root).expect("baseline parses");
        let (kept, absorbed) = base.apply(std::mem::take(&mut report.findings));
        report.findings = kept;
        report.baselined = absorbed;
        assert!(
            report.is_clean(),
            "workspace has non-baselined analysis findings:\n{}",
            report.render()
        );
        assert!(report.files_scanned > 20, "walker found the crates");
        // The memory model behind A14 classifies the server and the queue
        // state it owns as long-lived.
        let ctx = passes::load_workspace(&root).expect("workspace loads");
        let mem = memflow::MemModel::build(&ctx);
        for name in ["PredictionServer", "Shared", "QueueState"] {
            assert!(
                mem.long_lived.contains(name),
                "{name} is not long-lived: {:?}",
                mem.long_lived
            );
        }
    }

    #[test]
    fn real_tree_simd_kernels_satisfy_the_unsafe_contract() {
        // Acceptance pin for A13: the AVX2 dispatch site in
        // crates/nn/src/tensor.rs is the only unsafe in the tree and
        // must pass as written — SAFETY comment above the block,
        // `is_x86_feature_detected!` before the `#[target_feature]`
        // call, unchecked ops confined to the blessed file — without
        // any allow-comment.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .to_path_buf();
        let ctx = passes::load_workspace(&root).expect("workspace loads");
        let tensor = ctx
            .files
            .iter()
            .find(|f| f.source.path.ends_with("crates/nn/src/tensor.rs"))
            .expect("tensor.rs in workspace");
        assert!(
            tensor.tokens.iter().any(|t| t.text == "unsafe"),
            "tensor.rs lost its simd dispatch block"
        );
        let (allowed, _) = tensor.source.allows("unsafe-contract");
        assert!(
            allowed.is_empty(),
            "tensor.rs must pass A13 without allow-comments"
        );
        let out = passes::registry()
            .iter()
            .find(|p| p.id() == "A13")
            .expect("A13 registered")
            .run(&ctx);
        let on_tensor: Vec<_> = out
            .iter()
            .filter(|f| f.path.ends_with("crates/nn/src/tensor.rs"))
            .collect();
        assert!(
            on_tensor.is_empty(),
            "A13 flagged the blessed simd kernels: {on_tensor:?}"
        );
    }

    #[test]
    fn committed_baseline_has_no_stale_entries() {
        // Every grandfathered fingerprint must still match a live
        // finding; a fixed finding must take its baseline entry with it
        // (`analyze --prune-baseline` rewrites the file).
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .to_path_buf();
        let report = passes::analyze_workspace(&root).expect("analyze runs");
        let base = baseline::Baseline::load(&root).expect("baseline parses");
        assert_eq!(
            base.stale(&report.findings),
            0,
            "baseline has stale entries — run \
             `cargo run -p xtask -- analyze --prune-baseline`"
        );
    }

    #[test]
    fn committed_baseline_is_pinned() {
        // The baseline must shrink, never silently grow: 13 fingerprints,
        // all grandfathered A4 warnings (re-pinned from 28 when the f32
        // tier landed, from 18 when `nn::par`'s dynamic map switched to a
        // checked slot lookup, from 17 when the RETINA scaler stopped
        // fitting through `ml::column_means`, from 16 when A5 and its
        // two entries were retired, and from 14 when the uncalled
        // `ml::par_map_rows` was deleted). Regenerate deliberately with
        // `cargo run -p xtask -- analyze --update-baseline` and re-pin.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .to_path_buf();
        let raw = fs::read_to_string(root.join(baseline::BASELINE_FILE)).expect("baseline exists");
        let entries = raw.matches("fingerprint").count();
        assert_eq!(
            entries, 13,
            "baseline entry count changed — re-pin deliberately"
        );
        assert_eq!(
            raw.matches("\"rule\": \"A4\"").count(),
            entries,
            "baseline grandfathers a finding other than A4 — fix it instead"
        );
    }

    #[test]
    fn workspace_members_come_from_the_manifest() {
        let root = fixture(
            "members",
            &[
                (
                    "Cargo.toml",
                    "[workspace]\nmembers = [\"crates/*\", \"vendor/*\"]\n",
                ),
                ("crates/nn/src/lib.rs", "pub fn f() {}\n"),
                ("crates/ml/src/lib.rs", "pub fn f() {}\n"),
                ("vendor/rand/src/lib.rs", "pub fn f() {}\n"),
            ],
        );
        let members = workspace_members(&root).expect("members enumerate");
        let names: Vec<String> = members
            .iter()
            .filter_map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
            .collect();
        assert_eq!(names, ["ml", "nn"], "sorted member crates, vendor skipped");

        // No manifest (fixture trees): fall back to scanning crates/.
        let root = fixture(
            "members-bare",
            &[("crates/nn/src/lib.rs", "pub fn f() {}\n")],
        );
        let members = workspace_members(&root).expect("fallback enumerates");
        assert_eq!(members.len(), 1);
    }

    #[test]
    fn real_workspace_root_set_covers_the_hot_path() {
        // Acceptance: the A4 root set is non-empty and covers
        // Retina::forward, Trainer::fit, and every nn::par entry point.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .to_path_buf();
        let ctx = passes::load_workspace(&root).expect("workspace loads");
        let graph = ctx.graph();
        let roots = graph.hot_roots();
        assert!(!roots.is_empty(), "empty hot-path root set");
        let names: Vec<String> = roots
            .iter()
            .map(|&i| graph.index.fns[i].display())
            .collect();
        for expected in [
            "core::Retina::forward",
            "core::Retina::backward",
            "core::Trainer::fit",
            "core::train_retina",
            "nn::for_each_chunk",
            "nn::for_each_row_chunk",
            "nn::map_indexed",
            "nn::map_indexed_dynamic",
            "nn::Gru::forward",
            "nn::Lstm::backward",
            "nn::Dense::forward",
            "nn::ExogenousAttention::backward",
        ] {
            assert!(
                names.iter().any(|n| n == expected),
                "root set missing {expected}: {names:?}"
            );
        }
    }
}
