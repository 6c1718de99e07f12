//! `cargo run -p xtask -- lint`
//! `cargo run -p xtask -- analyze [--baseline] [--update-baseline]
//!                                [--prune-baseline]`
//! `cargo run -p xtask -- explain [<rule>]`
//! `cargo run -p xtask -- bench-report [--check]`
//! `cargo run -p xtask -- serving-report [--check]`
//! `cargo run -p xtask -- mem-report [--check]`
//!
//! `lint` exits nonzero when any R1, R2 or R4 violation (or malformed
//! allow-comment) is found.
//!
//! `analyze` runs the semantic passes (A2 determinism, A3 cast-safety,
//! A4 panic-reachability, A6 discarded-Result, A7 lock discipline, A10
//! division/log-guard, A11 probability-domain, A13 unsafe-contract, A14
//! capacity/growth) over the workspace, prints every finding, and exits
//! nonzero when any non-baselined finding remains. `--update-baseline`
//! grandfathers the current findings; `--prune-baseline` rewrites the
//! committed baseline keeping only entries a current finding still
//! matches.
//!
//! `explain <rule>` prints the rationale and fix guidance for one rule
//! or pass (`R1`, `R2`, `R4`, `allow`, `A2`..`A14`); with no argument it
//! prints the whole catalogue.
//!
//! `bench-report`, `serving-report` and `mem-report` each run one
//! benchmark harness (the criterion `substrates` bench, `retina_serve
//! bench`, `graph_mem`) and rewrite its committed `BENCH_*.json` at the
//! workspace root; with `--check` they compare a fresh run against the
//! committed `current` section instead and never write (`ci.sh` runs the
//! checks behind `RETINA_BENCH_CHECK=1`). One record format, one file
//! schema and one gate table serve all three: see [`xtask::report`].

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!(
            "usage: cargo run -p xtask -- lint\n       \
             cargo run -p xtask -- analyze [--baseline] [--update-baseline] \
             [--prune-baseline]\n       \
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
        other => match xtask::report::SUITES.iter().find(|s| s.subcommand == other) {
            Some(suite) => {
                let unknown: Vec<&String> = args[1..]
                    .iter()
                    .filter(|a| a.as_str() != "--check")
                    .collect();
                if !unknown.is_empty() {
                    eprintln!("unknown {other} option(s): {unknown:?}");
                    return ExitCode::from(2);
                }
                let check = args.iter().any(|a| a == "--check");
                xtask::report::run(suite, workspace_root(), check)
            }
            None => {
                eprintln!(
                    "unknown subcommand `{other}`; expected `lint`, `analyze`, `explain`, \
                     `bench-report`, `serving-report`, or `mem-report`"
                );
                ExitCode::from(2)
            }
        },
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

struct AnalyzeOpts {
    use_baseline: bool,
    update_baseline: bool,
    prune_baseline: bool,
}

impl AnalyzeOpts {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = AnalyzeOpts {
            use_baseline: false,
            update_baseline: false,
            prune_baseline: false,
        };
        for a in args {
            match a.as_str() {
                "--baseline" => opts.use_baseline = true,
                "--update-baseline" => opts.update_baseline = true,
                "--prune-baseline" => opts.prune_baseline = true,
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

    print!("{}", report.render());
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
