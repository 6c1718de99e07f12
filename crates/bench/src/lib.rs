//! # bench — experiment binaries and Criterion benchmarks
//!
//! One `exp_*` binary per table/figure of the paper (see DESIGN.md §4 and
//! EXPERIMENTS.md), plus Criterion micro/meso-benchmarks in `benches/`
//! and two harnesses, `retina_serve` (snapshots and serving load) and
//! `graph_mem` (dataset-generation peak RSS). The harnesses print only
//! [`record`] lines on stdout.
//!
//! All `exp_*` binaries accept:
//!
//! ```text
//! --scale <f64>       tweet-volume scale vs the paper corpus (default 0.1)
//! --users <usize>     core user population (default 1200)
//! --seed <u64>        master seed (default 20210203)
//! --d2v-epochs <n>    Doc2Vec training epochs (default 6)
//! --smoke             tiny configuration for a fast end-to-end check
//! ```

use retina_core::experiments::ExperimentContext;
use socialsim::SimConfig;

/// Parsed command-line options shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    pub config: SimConfig,
    pub d2v_epochs: usize,
    pub smoke: bool,
}

/// Parse `std::env::args` into experiment options.
pub fn parse_options() -> ExpOptions {
    let args: Vec<String> = std::env::args().collect();
    let mut config = ExperimentContext::default_config();
    let mut d2v_epochs = 6usize;
    let mut smoke = false;

    let value_of = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    if args.iter().any(|a| a == "--smoke") {
        config = ExperimentContext::smoke_config();
        d2v_epochs = 2;
        smoke = true;
    }
    if let Some(v) = value_of("--scale") {
        config.tweet_scale = v.parse().expect("--scale takes a float");
    }
    if let Some(v) = value_of("--users") {
        config.n_users = v.parse().expect("--users takes an integer");
    }
    if let Some(v) = value_of("--seed") {
        config.seed = v.parse().expect("--seed takes an integer");
    }
    if let Some(v) = value_of("--d2v-epochs") {
        d2v_epochs = v.parse().expect("--d2v-epochs takes an integer");
    }
    ExpOptions {
        config,
        d2v_epochs,
        smoke,
    }
}

/// Build the experiment context, logging progress to stderr.
pub fn build_context(opts: &ExpOptions) -> ExperimentContext {
    eprintln!(
        "[setup] generating corpus: scale {} users {} seed {}",
        opts.config.tweet_scale, opts.config.n_users, opts.config.seed
    );
    let t = std::time::Instant::now();
    let ctx = ExperimentContext::build(opts.config.clone(), opts.d2v_epochs);
    eprintln!(
        "[setup] corpus ready in {:.1}s: {} tweets ({} roots), {} news, detector AUC {:.3}",
        t.elapsed().as_secs_f64(),
        ctx.data.tweets().len(),
        ctx.data.root_tweets().count(),
        ctx.data.news().len(),
        ctx.detector.report.auc
    );
    ctx
}

/// One benchmark record, in the fragment format perfbench prints and
/// `cargo run -p xtask -- {serving,mem}-report` reads:
/// `"<scenario>.<leaf>": {"value": <value>, "unit": "<unit>"}`.
pub fn record(scenario: &str, leaf: &str, value: impl std::fmt::Display, unit: &str) -> String {
    format!("\"{scenario}.{leaf}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// Print a section header.
pub fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}
