//! `cargo run -p xtask -- lint`
//! `cargo run -p xtask -- analyze [--baseline] [--update-baseline]
//!                                [--prune-baseline] [--emit-dot <path>]`
//! `cargo run -p xtask -- explain [<rule>]`
//! `cargo run -p xtask -- bench-report [--check]`
//! `cargo run -p xtask -- serving-report [--check]`
//! `cargo run -p xtask -- mem-report [--check]`
//!
//! `lint` exits nonzero when any R1–R4 violation (or malformed
//! allow-comment) is found.
//!
//! `analyze` runs the semantic passes (A1 shape-flow, A2 determinism,
//! A3 cast-safety, A4 panic-reachability, A5 hot-loop allocation, A6
//! discarded-Result, A7 lock-order, A8 blocking-under-lock, A9
//! condvar-discipline, A10 division/log-guard, A11 probability-domain,
//! A13 unsafe-contract, A14 capacity/growth) over the workspace, prints
//! every finding, and exits nonzero when any non-baselined finding
//! remains. `--update-baseline` grandfathers the current findings;
//! `--prune-baseline` rewrites the committed baseline keeping only
//! entries a current finding still matches. `--emit-dot` writes the A1
//! model graph (`docs/model_graph.dot` is the committed rendering).
//!
//! `explain <rule>` prints the rationale and fix guidance for one rule
//! or pass (`R1`..`R4`, `allow`, `A1`..`A14`); with no argument it
//! prints the whole catalogue.
//!
//! `bench-report` runs the substrates criterion benchmark and rewrites
//! `BENCH_kernels.json` at the workspace root. The first run seeds the
//! `baseline` section; later runs keep it and refresh `current`, plus a
//! per-benchmark `speedup_vs_baseline` summary. With `--check` the file
//! is left untouched: the fresh run is compared against the committed
//! `current` section and the command fails on any kernel row more than
//! 15% slower (CI hooks this behind `RETINA_BENCH_CHECK=1`).
//!
//! `serving-report` does the same for the prediction-server load
//! harness (`retina_serve bench`), rewriting `BENCH_serving.json`. With
//! `--check` the fresh run must not drop throughput more than 15% or
//! raise p99 latency more than 25% against the committed `current`
//! section (also behind `RETINA_BENCH_CHECK=1` in CI).
//!
//! `mem-report` runs the `graph_mem` harness — dataset generation at
//! two scales with the process peak RSS (`VmHWM` from
//! `/proc/self/status`) sampled after each — and rewrites
//! `BENCH_graph.json` at the workspace root, the measured memory
//! ceiling for ROADMAP item 1. With `--check` the fresh run must not
//! raise `vmhwm_kb` more than 25% over the committed `current` section
//! (behind `RETINA_BENCH_CHECK=1` in CI). Linux-only: on other hosts
//! the harness reports no samples and the command skips with a notice.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!(
            "usage: cargo run -p xtask -- lint\n       \
             cargo run -p xtask -- analyze [--baseline] [--update-baseline] \
             [--prune-baseline] [--emit-dot <path>]\n       \
             cargo run -p xtask -- explain [<rule>]\n       \
             cargo run -p xtask -- bench-report [--check]\n       \
             cargo run -p xtask -- serving-report [--check]\n       \
             cargo run -p xtask -- mem-report [--check]"
        );
        return ExitCode::from(2);
    };
    match cmd.as_str() {
        "lint" => {
            if args.len() > 1 {
                eprintln!("unknown lint option(s): {:?}", &args[1..]);
                return ExitCode::from(2);
            }
            run_lint()
        }
        "explain" => run_explain(args.get(1).map(String::as_str)),
        "analyze" => match AnalyzeOpts::parse(&args[1..]) {
            Ok(opts) => run_analyze(&opts),
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        },
        "bench-report" => {
            let check = args.iter().any(|a| a == "--check");
            let unknown: Vec<&String> = args[1..]
                .iter()
                .filter(|a| a.as_str() != "--check")
                .collect();
            if !unknown.is_empty() {
                eprintln!("unknown bench-report option(s): {unknown:?}");
                return ExitCode::from(2);
            }
            run_bench_report(check)
        }
        "serving-report" => {
            let check = args.iter().any(|a| a == "--check");
            let unknown: Vec<&String> = args[1..]
                .iter()
                .filter(|a| a.as_str() != "--check")
                .collect();
            if !unknown.is_empty() {
                eprintln!("unknown serving-report option(s): {unknown:?}");
                return ExitCode::from(2);
            }
            run_serving_report(check)
        }
        "mem-report" => {
            let check = args.iter().any(|a| a == "--check");
            let unknown: Vec<&String> = args[1..]
                .iter()
                .filter(|a| a.as_str() != "--check")
                .collect();
            if !unknown.is_empty() {
                eprintln!("unknown mem-report option(s): {unknown:?}");
                return ExitCode::from(2);
            }
            run_mem_report(check)
        }
        other => {
            eprintln!(
                "unknown subcommand `{other}`; expected `lint`, `analyze`, `explain`, \
                 `bench-report`, `serving-report`, or `mem-report`"
            );
            ExitCode::from(2)
        }
    }
}

fn run_explain(code: Option<&str>) -> ExitCode {
    match code {
        Some(code) => match xtask::explain::lookup(code) {
            Some(doc) => {
                print!("{}", xtask::explain::render(doc));
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "unknown rule `{code}`; known rules: {}",
                    xtask::explain::CATALOGUE
                        .iter()
                        .map(|d| d.code)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                ExitCode::from(2)
            }
        },
        None => {
            for doc in xtask::explain::CATALOGUE {
                print!("{}", xtask::explain::render(doc));
            }
            ExitCode::SUCCESS
        }
    }
}

fn workspace_root() -> &'static Path {
    // xtask lives at <root>/crates/xtask; the manifest dir is a
    // compile-time constant with two ancestors, but fall back to the
    // invoking directory rather than panic.
    match Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2) {
        Some(p) => p,
        None => Path::new("."),
    }
}

fn run_lint() -> ExitCode {
    match xtask::lint_workspace(workspace_root()) {
        Ok(report) => {
            print!("{}", report.render());
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("lint failed to scan the workspace: {e}");
            ExitCode::from(2)
        }
    }
}

/// Name of the committed benchmark report at the workspace root.
const BENCH_REPORT_FILE: &str = "BENCH_kernels.json";

/// Fractional slowdown tolerated by `bench-report --check` before a
/// kernel row counts as a regression.
const BENCH_CHECK_TOLERANCE: f64 = 0.15;

fn run_bench_report(check: bool) -> ExitCode {
    let root = workspace_root();
    // The committed numbers measure the rollout tier: `--features simd`
    // arms the AVX2 dispatch in the f32 kernels, and runtime feature
    // detection degrades to the bit-identical scalar path on hosts
    // without AVX2 (DESIGN.md §13). The f64 kernels are unaffected by
    // the feature, so f64 rows are comparable across both builds.
    eprintln!(
        "running `cargo bench -p bench --bench substrates --features simd` (this builds in release)..."
    );
    let out = match std::process::Command::new("cargo")
        .args([
            "bench",
            "-p",
            "bench",
            "--bench",
            "substrates",
            "--features",
            "simd",
        ])
        .current_dir(root)
        .output()
    {
        Ok(o) => o,
        Err(e) => {
            eprintln!("failed to spawn cargo bench: {e}");
            return ExitCode::from(2);
        }
    };
    if !out.status.success() {
        eprintln!(
            "cargo bench failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        return ExitCode::from(2);
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let current = xtask::bench::parse_bench_lines(&stdout);
    if current.is_empty() {
        eprintln!("cargo bench produced no parseable `bench ...` lines:\n{stdout}");
        return ExitCode::from(2);
    }

    let path = root.join(BENCH_REPORT_FILE);
    if check {
        // Regression gate: compare the fresh run against the committed
        // `current` numbers; never rewrite the file.
        let committed = match std::fs::read_to_string(&path) {
            Ok(existing) => xtask::bench::parse_section(&existing, "current"),
            Err(e) => {
                eprintln!("--check needs a committed {BENCH_REPORT_FILE}: {e}");
                return ExitCode::from(2);
            }
        };
        if committed.is_empty() {
            eprintln!("--check found no `current` entries in {BENCH_REPORT_FILE}");
            return ExitCode::from(2);
        }
        let regs = xtask::bench::regressions(&committed, &current, BENCH_CHECK_TOLERANCE);
        for entry in &current {
            let vs = committed
                .iter()
                .find(|c| c.name == entry.name)
                .map(|c| {
                    format!(
                        "  ({:+.1}% vs committed)",
                        (entry.mean_ns / c.mean_ns - 1.0) * 100.0
                    )
                })
                .unwrap_or_else(|| "  (no committed row)".into());
            println!(
                "bench {:<50} mean {:>12.3}µs{vs}",
                entry.name,
                entry.mean_ns / 1e3
            );
        }
        return if regs.is_empty() {
            eprintln!(
                "bench check passed: no row regressed more than {:.0}%",
                BENCH_CHECK_TOLERANCE * 100.0
            );
            ExitCode::SUCCESS
        } else {
            eprintln!("bench check FAILED — {} regression(s):", regs.len());
            for r in &regs {
                eprintln!("  {r}");
            }
            ExitCode::FAILURE
        };
    }
    // A pre-existing report pins the baseline; the very first run seeds
    // it from the fresh numbers (speedup 1.00 across the board).
    let baseline = match std::fs::read_to_string(&path) {
        Ok(existing) => {
            let b = xtask::bench::parse_baseline_section(&existing);
            if b.is_empty() {
                current.clone()
            } else {
                b
            }
        }
        Err(_) => current.clone(),
    };
    let json = xtask::bench::render_json(&baseline, &current);
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("failed to write {}: {e}", path.display());
        return ExitCode::from(2);
    }

    for entry in &current {
        let vs = baseline
            .iter()
            .find(|b| b.name == entry.name)
            .map(|b| format!("  ({:.2}x vs baseline)", b.mean_ns / entry.mean_ns))
            .unwrap_or_default();
        println!(
            "bench {:<50} mean {:>12.3}µs{vs}",
            entry.name,
            entry.mean_ns / 1e3
        );
    }
    eprintln!("wrote {}", path.display());
    ExitCode::SUCCESS
}

/// Name of the committed serving-load report at the workspace root.
const SERVING_REPORT_FILE: &str = "BENCH_serving.json";

/// Fractional throughput drop tolerated by `serving-report --check`.
const SERVING_PPS_TOLERANCE: f64 = 0.15;

/// Fractional p99-latency rise tolerated by `serving-report --check`.
const SERVING_P99_TOLERANCE: f64 = 0.25;

fn run_serving_report(check: bool) -> ExitCode {
    let root = workspace_root();
    eprintln!("running `retina_serve bench` (this builds in release)...");
    let out = match std::process::Command::new("cargo")
        .args([
            "run",
            "--release",
            "-p",
            "bench",
            "--bin",
            "retina_serve",
            "--",
            "bench",
        ])
        .current_dir(root)
        .output()
    {
        Ok(o) => o,
        Err(e) => {
            eprintln!("failed to spawn the serving harness: {e}");
            return ExitCode::from(2);
        }
    };
    if !out.status.success() {
        eprintln!(
            "retina_serve bench failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        return ExitCode::from(2);
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let current = xtask::serving::parse_serving_lines(&stdout);
    if current.is_empty() {
        eprintln!("retina_serve produced no parseable `serving ...` lines:\n{stdout}");
        return ExitCode::from(2);
    }

    let path = root.join(SERVING_REPORT_FILE);
    if check {
        // Regression gate: compare the fresh run against the committed
        // `current` numbers; never rewrite the file.
        let committed = match std::fs::read_to_string(&path) {
            Ok(existing) => xtask::serving::parse_section(&existing, "current"),
            Err(e) => {
                eprintln!("--check needs a committed {SERVING_REPORT_FILE}: {e}");
                return ExitCode::from(2);
            }
        };
        if committed.is_empty() {
            eprintln!("--check found no `current` entries in {SERVING_REPORT_FILE}");
            return ExitCode::from(2);
        }
        let regs = xtask::serving::regressions(
            &committed,
            &current,
            SERVING_PPS_TOLERANCE,
            SERVING_P99_TOLERANCE,
        );
        for entry in &current {
            let vs = committed
                .iter()
                .find(|c| c.name == entry.name)
                .map(|c| {
                    format!(
                        "  ({:+.1}% pps vs committed)",
                        (entry.pps / c.pps - 1.0) * 100.0
                    )
                })
                .unwrap_or_else(|| "  (no committed row)".into());
            println!(
                "serving {:<40} pps {:>10.1}  p99 {:>10.3}ms{vs}",
                entry.name,
                entry.pps,
                entry.p99_ns / 1e6
            );
        }
        return if regs.is_empty() {
            eprintln!(
                "serving check passed: throughput within -{:.0}%, p99 within +{:.0}%",
                SERVING_PPS_TOLERANCE * 100.0,
                SERVING_P99_TOLERANCE * 100.0
            );
            ExitCode::SUCCESS
        } else {
            eprintln!("serving check FAILED — {} regression(s):", regs.len());
            for r in &regs {
                eprintln!("  {r}");
            }
            ExitCode::FAILURE
        };
    }
    // A pre-existing report pins the baseline; the very first run seeds
    // it from the fresh numbers.
    let baseline = match std::fs::read_to_string(&path) {
        Ok(existing) => {
            let b = xtask::serving::parse_section(&existing, "baseline");
            if b.is_empty() {
                current.clone()
            } else {
                b
            }
        }
        Err(_) => current.clone(),
    };
    let json = xtask::serving::render_json(&baseline, &current);
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("failed to write {}: {e}", path.display());
        return ExitCode::from(2);
    }

    for entry in &current {
        let vs = baseline
            .iter()
            .find(|b| b.name == entry.name)
            .filter(|b| b.pps > 0.0)
            .map(|b| format!("  ({:.2}x pps vs baseline)", entry.pps / b.pps))
            .unwrap_or_default();
        println!(
            "serving {:<40} pps {:>10.1}  p99 {:>10.3}ms{vs}",
            entry.name,
            entry.pps,
            entry.p99_ns / 1e6
        );
    }
    eprintln!("wrote {}", path.display());
    ExitCode::SUCCESS
}

/// Name of the committed memory-ceiling report at the workspace root.
const MEM_REPORT_FILE: &str = "BENCH_graph.json";

/// Fractional peak-RSS growth tolerated by `mem-report --check`.
const MEM_CHECK_TOLERANCE: f64 = 0.25;

fn run_mem_report(check: bool) -> ExitCode {
    let root = workspace_root();
    eprintln!("running `graph_mem` (this builds in release)...");
    let out = match std::process::Command::new("cargo")
        .args(["run", "--release", "-p", "bench", "--bin", "graph_mem"])
        .current_dir(root)
        .output()
    {
        Ok(o) => o,
        Err(e) => {
            eprintln!("failed to spawn the graph_mem harness: {e}");
            return ExitCode::from(2);
        }
    };
    if !out.status.success() {
        eprintln!(
            "graph_mem failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        return ExitCode::from(2);
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let current = xtask::memreport::parse_mem_lines(&stdout);
    if current.is_empty() {
        // The harness prints a skip notice instead of samples where
        // `/proc/self/status` does not exist (non-Linux hosts).
        eprintln!("graph_mem reported no peak-RSS samples; skipping:\n{stdout}");
        return ExitCode::SUCCESS;
    }

    let path = root.join(MEM_REPORT_FILE);
    if check {
        // Regression gate: compare the fresh run against the committed
        // ceiling; never rewrite the file.
        let committed = match std::fs::read_to_string(&path) {
            Ok(existing) => xtask::memreport::parse_section(&existing, "current"),
            Err(e) => {
                eprintln!("--check needs a committed {MEM_REPORT_FILE}: {e}");
                return ExitCode::from(2);
            }
        };
        if committed.is_empty() {
            eprintln!("--check found no `current` entries in {MEM_REPORT_FILE}");
            return ExitCode::from(2);
        }
        let regs = xtask::memreport::regressions(&committed, &current, MEM_CHECK_TOLERANCE);
        for entry in &current {
            let vs = committed
                .iter()
                .find(|c| c.name == entry.name)
                .filter(|c| c.vmhwm_kb > 0)
                .map(|c| {
                    format!(
                        "  ({:+.1}% vs committed ceiling)",
                        (entry.vmhwm_kb as f64 / c.vmhwm_kb as f64 - 1.0) * 100.0
                    )
                })
                .unwrap_or_else(|| "  (no committed row)".into());
            println!(
                "memgraph {:<40} peak {:>9} KiB{vs}",
                entry.name, entry.vmhwm_kb
            );
        }
        return if regs.is_empty() {
            eprintln!(
                "mem check passed: no scenario peak grew more than {:.0}%",
                MEM_CHECK_TOLERANCE * 100.0
            );
            ExitCode::SUCCESS
        } else {
            eprintln!("mem check FAILED — {} regression(s):", regs.len());
            for r in &regs {
                eprintln!("  {r}");
            }
            ExitCode::FAILURE
        };
    }
    // A pre-existing report pins the baseline; the very first run seeds
    // it from the fresh numbers.
    let baseline = match std::fs::read_to_string(&path) {
        Ok(existing) => {
            let b = xtask::memreport::parse_section(&existing, "baseline");
            if b.is_empty() {
                current.clone()
            } else {
                b
            }
        }
        Err(_) => current.clone(),
    };
    let json = xtask::memreport::render_json(&baseline, &current);
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("failed to write {}: {e}", path.display());
        return ExitCode::from(2);
    }

    for entry in &current {
        let vs = baseline
            .iter()
            .find(|b| b.name == entry.name)
            .filter(|b| b.vmhwm_kb > 0)
            .map(|b| {
                format!(
                    "  ({:.2}x peak vs baseline)",
                    entry.vmhwm_kb as f64 / b.vmhwm_kb as f64
                )
            })
            .unwrap_or_default();
        println!(
            "memgraph {:<40} peak {:>9} KiB  users {:>8}  tweets {:>8}  retweets {:>9}{vs}",
            entry.name, entry.vmhwm_kb, entry.users, entry.tweets, entry.retweets
        );
    }
    eprintln!("wrote {}", path.display());
    ExitCode::SUCCESS
}

struct AnalyzeOpts {
    use_baseline: bool,
    update_baseline: bool,
    prune_baseline: bool,
    emit_dot: Option<String>,
}

impl AnalyzeOpts {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = AnalyzeOpts {
            use_baseline: false,
            update_baseline: false,
            prune_baseline: false,
            emit_dot: None,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--baseline" => opts.use_baseline = true,
                "--update-baseline" => opts.update_baseline = true,
                "--prune-baseline" => opts.prune_baseline = true,
                "--emit-dot" => {
                    opts.emit_dot =
                        Some(it.next().ok_or("--emit-dot expects a file path")?.clone());
                }
                other => return Err(format!("unknown analyze option `{other}`")),
            }
        }
        Ok(opts)
    }
}

fn run_analyze(opts: &AnalyzeOpts) -> ExitCode {
    let root = workspace_root();
    let mut report = match xtask::passes::analyze_workspace(root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("analyze failed to scan the workspace: {e}");
            return ExitCode::from(2);
        }
    };

    if opts.update_baseline {
        if let Err(e) = xtask::baseline::Baseline::save(root, &report.findings) {
            eprintln!("failed to write {}: {e}", xtask::baseline::BASELINE_FILE);
            return ExitCode::from(2);
        }
        eprintln!(
            "wrote {} grandfathering {} finding(s)",
            xtask::baseline::BASELINE_FILE,
            report.findings.len()
        );
        return ExitCode::SUCCESS;
    }

    if opts.prune_baseline {
        let base = match xtask::baseline::Baseline::load(root) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("bad baseline: {e}");
                return ExitCode::from(2);
            }
        };
        let stale = base.stale(&report.findings);
        let (_, absorbed) = base.split(report.findings);
        if let Err(e) = xtask::baseline::Baseline::save(root, &absorbed) {
            eprintln!("failed to write {}: {e}", xtask::baseline::BASELINE_FILE);
            return ExitCode::from(2);
        }
        eprintln!(
            "pruned {} stale grandfathered occurrence(s); {} kept in {}",
            stale,
            absorbed.len(),
            xtask::baseline::BASELINE_FILE
        );
        return ExitCode::SUCCESS;
    }

    if opts.use_baseline {
        let base = match xtask::baseline::Baseline::load(root) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("bad baseline: {e}");
                return ExitCode::from(2);
            }
        };
        let (kept, absorbed) = base.apply(std::mem::take(&mut report.findings));
        report.findings = kept;
        report.baselined = absorbed;
    }

    if let Some(path) = &opts.emit_dot {
        match report
            .artifacts
            .iter()
            .find(|(name, _)| name == "model_graph.dot")
        {
            Some((_, dot)) => {
                if let Err(e) = std::fs::write(path, dot) {
                    eprintln!("failed to write {path}: {e}");
                    return ExitCode::from(2);
                }
                eprintln!("wrote model graph to {path}");
            }
            None => {
                eprintln!("no model-graph artifact produced (A1 found no model file)");
                return ExitCode::from(2);
            }
        }
    }

    print!("{}", report.render());
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
