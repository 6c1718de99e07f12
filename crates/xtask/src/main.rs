//! `cargo run -p xtask -- analyze`
//! `cargo run -p xtask -- explain [<rule>]`
//! `cargo run -p xtask -- bench-report [--check]`
//! `cargo run -p xtask -- serving-report [--check]`
//! `cargo run -p xtask -- mem-report [--check]`
//!
//! `analyze` runs every pass over the workspace (the line rules R1
//! unwrap, R2 float-cmp and R4 index; A2 determinism, A3 cast-safety, A4
//! panic-reachability, A6 discarded-Result, A7 lock discipline, A10
//! division/log-guard, A11 probability-domain, A13 unsafe-contract, A14
//! capacity/growth), prints every finding, and exits nonzero when there
//! is any. It takes no options.
//!
//! `explain <rule>` prints the rationale and fix guidance for one rule
//! or pass (`R1`, `R2`, `R4`, `allow`, `A2`..`A14`); with no argument it
//! prints the whole catalogue.
//!
//! `bench-report`, `serving-report` and `mem-report` each run one
//! benchmark harness (the `substrates` bench, `retina_serve bench`,
//! `graph_mem`) three times and write each record's median into its
//! committed `BENCH_*.json` at the workspace root; with `--check` they
//! compare the medians against the committed `current` section instead
//! and never write (`ci.sh` runs the checks behind
//! `RETINA_BENCH_CHECK=1`). One record format, one file schema and one
//! gate table serve all three: see [`xtask::report`].

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!(
            "usage: cargo run -p xtask -- analyze\n       \
             cargo run -p xtask -- explain [<rule>]\n       \
             cargo run -p xtask -- bench-report [--check]\n       \
             cargo run -p xtask -- serving-report [--check]\n       \
             cargo run -p xtask -- mem-report [--check]"
        );
        return ExitCode::from(2);
    };
    match cmd.as_str() {
        "explain" => run_explain(args.get(1).map(String::as_str)),
        "analyze" => {
            if args.len() > 1 {
                eprintln!("analyze takes no options, got {:?}", &args[1..]);
                return ExitCode::from(2);
            }
            run_analyze()
        }
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
                    "unknown subcommand `{other}`; expected `analyze`, `explain`, \
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

fn run_analyze() -> ExitCode {
    match xtask::passes::analyze_workspace(workspace_root()) {
        Ok(report) => {
            print!("{}", report.render());
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("analyze failed to scan the workspace: {e}");
            ExitCode::from(2)
        }
    }
}
