//! # bench — experiment binaries, the `substrates` benchmark and harnesses
//!
//! One `exp_*` binary per table/figure of the paper (see DESIGN.md §4 and
//! EXPERIMENTS.md). Each prints its section with one function of
//! [`print`], which `exp_all` calls too, so a section reads the same from
//! either binary. `benches/substrates.rs` times the substrate kernels,
//! and two harnesses, `retina_serve` (snapshots and serving load) and
//! `graph_mem` (dataset-generation peak RSS), print only [`record`]
//! lines on stdout.
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

pub mod print;

use retina_core::experiments::retweet_suite::SuiteConfig;
use retina_core::experiments::ExperimentContext;
use socialsim::SimConfig;

/// Parsed command-line options shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    pub config: SimConfig,
    pub d2v_epochs: usize,
    pub smoke: bool,
}

/// Every experiment setting that `--smoke` shrinks.
impl ExpOptions {
    /// Table VI's suite, which Figs. 5, 6, 8 and 9 and the
    /// beyond-organic runs share, seeded with `--seed`.
    pub fn suite(&self) -> SuiteConfig {
        self.seeded(if self.smoke {
            SuiteConfig::smoke()
        } else {
            SuiteConfig::default()
        })
    }

    /// Fig. 7's and the RETINA ablations' sweeps, seeded with `--seed`.
    pub fn sweep(&self) -> SuiteConfig {
        self.seeded(if self.smoke {
            SuiteConfig::sweep_smoke()
        } else {
            SuiteConfig::sweep()
        })
    }

    fn seeded(&self, base: SuiteConfig) -> SuiteConfig {
        SuiteConfig {
            seed: self.config.seed,
            ..base
        }
    }

    /// Fig. 7's history sizes (tweets per candidate history).
    pub fn history_sizes(&self) -> &'static [usize] {
        if self.smoke {
            &[10, 30]
        } else {
            &[5, 10, 20, 30, 40, 50]
        }
    }

    /// The news-window ablation's windows.
    pub fn news_windows(&self) -> &'static [usize] {
        if self.smoke {
            &[5, 15]
        } else {
            &[5, 15, 30, 60]
        }
    }

    /// Minimum preceding news per hate-generation sample (Tables IV, V).
    pub fn min_news(&self) -> usize {
        if self.smoke {
            20
        } else {
            60
        }
    }
}

/// Parse `std::env::args` into experiment options.
pub fn parse_options() -> ExpOptions {
    parse_args(&std::env::args().collect::<Vec<_>>())
}

/// Parse a command line (program name first) into experiment options.
fn parse_args(args: &[String]) -> ExpOptions {
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut config = if smoke {
        ExperimentContext::smoke_config()
    } else {
        ExperimentContext::default_config()
    };
    let mut d2v_epochs = if smoke { 2 } else { 6 };

    let value_of = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_reaches_the_suite_and_the_sweeps() {
        for smoke in [false, true] {
            let mut args = vec!["exp".to_string(), "--seed".into(), "17".into()];
            if smoke {
                args.push("--smoke".into());
            }
            let opts = parse_args(&args);
            assert_eq!(opts.config.seed, 17);
            assert_eq!(opts.suite().seed, 17, "suite, smoke {smoke}");
            assert_eq!(opts.sweep().seed, 17, "sweep, smoke {smoke}");
        }
    }
}
