//! Experiment drivers — one module per table/figure of the paper's
//! evaluation (see DESIGN.md §4 for the index). Every module returns
//! plain row structs with `Display` impls; the `exp_*` binaries in the
//! `bench` crate print them and EXPERIMENTS.md records paper-vs-measured.

pub mod ablations;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod retweet_suite;
pub mod table2;
pub mod table4;
pub mod table5;
pub mod table6;

use crate::detector::HateDetector;
use crate::features::TextModels;
use socialsim::{Dataset, SimConfig};

/// Shared state for all experiments: the corpus, trained text models and
/// the silver-labelling detector.
pub struct ExperimentContext {
    pub data: Dataset,
    pub models: TextModels,
    pub detector: HateDetector,
    /// Machine hate labels per tweet (Section VI-B).
    pub silver: Vec<bool>,
}

impl ExperimentContext {
    /// Build everything from a generation config. `d2v_epochs` controls
    /// Doc2Vec training effort (the experiment binaries train 2 with
    /// `--smoke`, 6 otherwise).
    pub fn build(config: SimConfig, d2v_epochs: usize) -> Self {
        let data = Dataset::generate(config);
        let models = TextModels::build(&data, d2v_epochs);
        let detector = HateDetector::train(&data, &models, 0.6, data.config().seed ^ 0xDE7);
        let silver = detector.silver_labels(&data, &models);
        Self {
            data,
            models,
            detector,
            silver,
        }
    }

    /// The default experiment scale: 1/10 of the paper corpus — large
    /// enough for every result shape, small enough for a single core.
    pub fn default_config() -> SimConfig {
        SimConfig {
            tweet_scale: 0.1,
            n_users: 1200,
            ..SimConfig::default()
        }
    }

    /// A fast configuration for smoke tests.
    pub fn smoke_config() -> SimConfig {
        SimConfig {
            tweet_scale: 0.04,
            n_users: 300,
            ..SimConfig::tiny()
        }
    }
}

/// FNV-1a over the bit patterns of `values`: the tests pin every score
/// and report an experiment produces with it.
#[cfg(test)]
pub(crate) fn pin(values: impl IntoIterator<Item = f64>) -> u64 {
    let bytes: Vec<u8> = values
        .into_iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    crate::snapshot::fnv1a64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_builds_at_smoke_scale() {
        let ctx = ExperimentContext::build(ExperimentContext::smoke_config(), 2);
        assert_eq!(ctx.silver.len(), ctx.data.tweets().len());
        assert!(ctx.detector.report.auc > 0.7);
    }
}
