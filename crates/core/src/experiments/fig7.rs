//! Figure 7 — RETINA performance (static and dynamic) as a function of
//! the user-history size: "the performance ... increases by varying
//! history size from 10 to 30 tweets. Afterward, it either drops or
//! remains the same."

use super::retweet_suite::{RetinaTask, SuiteConfig};
use super::ExperimentContext;
use crate::features::RetweetFeatures;
use crate::retina::RetinaConfig;

/// One bar pair of Fig. 7.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    pub history_len: usize,
    pub static_f1: f64,
    pub dynamic_f1: f64,
}

impl std::fmt::Display for Fig7Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "history {:2} | RETINA-S macro-F1 {:.3} | RETINA-D macro-F1 {:.3}",
            self.history_len, self.static_f1, self.dynamic_f1
        )
    }
}

/// Run the history-size sweep: RETINA-S and RETINA-D retrained on the
/// same split at each history size and scored as Table VI scores them,
/// RETINA-D per (candidate, interval).
pub fn run(ctx: &ExperimentContext, cfg: &SuiteConfig, history_sizes: &[usize]) -> Vec<Fig7Row> {
    history_sizes
        .iter()
        .map(|&hlen| {
            let mut feats = RetweetFeatures::new(&ctx.data, &ctx.models, &ctx.silver);
            feats.set_history_len(hlen);
            let task = RetinaTask::build(ctx, cfg, &feats);
            let f1 = |variant| task.train_and_score(cfg, variant).report.macro_f1;
            Fig7Row {
                history_len: hlen,
                static_f1: f1(RetinaConfig::static_default()),
                dynamic_f1: f1(RetinaConfig::dynamic_default()),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_requested_sizes() {
        let ctx = ExperimentContext::build(ExperimentContext::smoke_config(), 2);
        let rows = run(&ctx, &SuiteConfig::sweep_smoke(), &[10, 30]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].history_len, 10);
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.static_f1));
            assert!((0.0..=1.0).contains(&r.dynamic_f1));
        }
        let values = rows.iter().flat_map(|r| [r.static_f1, r.dynamic_f1]);
        assert_eq!(super::super::pin(values), 0xde0b_9eb1_de09_8632);
    }
}
