//! Workspace correctness tooling.
//!
//! The `analyze` subcommand is the one static gate. It runs every pass
//! in [`passes::registry`] over every crate's library sources: the line
//! rules R1 unwrap, R2 float-cmp and R4 index, and the token-stream
//! semantic passes (A2 determinism, A3 cast-safety, the
//! call-graph-based A4 panic-reachability, A6 discarded-Result and A7
//! lock discipline, the float-value-lattice-based A10 division/log-guard
//! and A11 probability-domain, plus the memory-shape-model-based A13
//! unsafe-contract and A14 capacity/growth — see [`passes`], [`items`],
//! [`callgraph`], [`floatflow`], [`memflow`]), and fails on any finding.
//! `explain <rule>` prints each rule's rationale and fix guidance from
//! the shared catalogue ([`explain`]). `bench-report`, `serving-report`
//! and `mem-report` run the kernel, serving and peak-RSS harnesses and
//! maintain their `BENCH_*.json` files through one record format and
//! gate table ([`report`]).
//!
//! A finding can be silenced only in place, with
//! `// lint: allow(<key>) <reason>` where `<key>` is one of
//! [`passes::ALLOW_KEYS`]; the reason is required.

pub mod callgraph;
pub mod explain;
pub mod floatflow;
pub mod items;
pub mod lexer;
pub mod memflow;
pub mod passes;
pub mod report;
pub mod source;

use source::SourceFile;
use std::fs;
use std::path::{Path, PathBuf};

/// Workspace member source roots, enumerated from the root
/// `Cargo.toml`'s `[workspace] members` globs rather than a hardcoded
/// crate list, so a newly added member is analyzed the day it appears
/// in the manifest. `vendor/*` members are skipped (they are
/// third-party stub subsets, not ours to check). Fixture trees without a
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
/// trees are out of scope.
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
    fn violating_fixture_fails_the_analysis() {
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
        let report = passes::analyze_workspace(&root).expect("analyze runs");
        let line_rules: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.rule.starts_with('R'))
            .map(|f| (f.path.as_str(), f.line, f.rule, f.key))
            .collect();
        assert_eq!(
            line_rules,
            [
                ("crates/nn/src/loss.rs", 2, "R2", "float-cmp"),
                ("crates/nn/src/loss.rs", 5, "R1", "unwrap"),
                ("crates/nn/src/tensor.rs", 1, "R4", "index"),
            ]
        );
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
        let report = passes::analyze_workspace(&root).expect("analyze runs");
        assert!(report.is_clean(), "{:?}", report.findings);
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
        let report = passes::analyze_workspace(&root).expect("analyze runs");
        assert!(report.is_clean(), "{:?}", report.findings);
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
        let report = passes::analyze_workspace(&root).expect("analyze runs");
        assert!(report.is_clean(), "{:?}", report.findings);
    }

    #[test]
    fn real_workspace_tree_analyzes_clean() {
        // The acceptance gate: every pass over the shipped tree reports
        // nothing.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .to_path_buf();
        let report = passes::analyze_workspace(&root).expect("analyze runs");
        assert!(
            report.is_clean(),
            "workspace has analysis findings:\n{}",
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
        // Retina::forward, train_retina, and every nn::par entry point.
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
