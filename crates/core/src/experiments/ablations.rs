//! RETINA design-choice ablations reported in the paper's prose:
//!
//! * **News-window size** (Section VIII-B: "an ablation on news size gave
//!   best results at 60 for both static and dynamic models").
//! * **Recurrent cell** (Section V-B: "performance degraded with simple
//!   RNN and no gain with LSTM").

use super::retweet_suite::{RetinaTask, SuiteConfig};
use super::ExperimentContext;
use crate::features::RetweetFeatures;
use crate::retina::{RecurrentKind, RetinaConfig};

/// One row of the news-window sweep.
#[derive(Debug, Clone)]
pub struct NewsSweepRow {
    pub news_k: usize,
    pub static_f1: f64,
    pub static_auc: f64,
}

impl std::fmt::Display for NewsSweepRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "news window {:3} | RETINA-S macro-F1 {:.3} | AUC {:.3}",
            self.news_k, self.static_f1, self.static_auc
        )
    }
}

/// One row of the recurrent-cell sweep.
#[derive(Debug, Clone)]
pub struct RecurrentSweepRow {
    pub cell: RecurrentKind,
    pub dynamic_f1: f64,
    pub dynamic_auc: f64,
}

impl std::fmt::Display for RecurrentSweepRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:9?} | RETINA-D macro-F1 {:.3} | AUC {:.3}",
            self.cell, self.dynamic_f1, self.dynamic_auc
        )
    }
}

/// Sweep the number of attended news items (paper: best at 60), each
/// window packed and trained on the same split. The sweeps shuffle
/// training with `TrainConfig`'s default seed (0), not `cfg.seed`.
pub fn news_sweep(
    ctx: &ExperimentContext,
    cfg: &SuiteConfig,
    windows: &[usize],
) -> Vec<NewsSweepRow> {
    let feats = RetweetFeatures::new(&ctx.data, &ctx.models, &ctx.silver);
    windows
        .iter()
        .map(|&news_k| {
            let cfg = SuiteConfig {
                news_k,
                ..cfg.clone()
            };
            let task = RetinaTask::build(ctx, &cfg, &feats);
            let rep = task
                .train_and_score(&cfg, RetinaConfig::static_default(), 0)
                .report;
            NewsSweepRow {
                news_k,
                static_f1: rep.macro_f1,
                static_auc: rep.auc,
            }
        })
        .collect()
}

/// Sweep the dynamic head's recurrent cell (paper: GRU ≥ LSTM > RNN).
pub fn recurrent_sweep(ctx: &ExperimentContext, cfg: &SuiteConfig) -> Vec<RecurrentSweepRow> {
    let feats = RetweetFeatures::new(&ctx.data, &ctx.models, &ctx.silver);
    let task = RetinaTask::build(ctx, cfg, &feats);
    [
        RecurrentKind::Gru,
        RecurrentKind::Lstm,
        RecurrentKind::SimpleRnn,
    ]
    .into_iter()
    .map(|cell| {
        let variant = RetinaConfig {
            recurrent: cell,
            ..RetinaConfig::dynamic_default()
        };
        let rep = task.train_and_score(cfg, variant, 0).report;
        RecurrentSweepRow {
            cell,
            dynamic_f1: rep.macro_f1,
            dynamic_auc: rep.auc,
        }
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn news_sweep_runs() {
        let ctx = ExperimentContext::build(ExperimentContext::smoke_config(), 2);
        let rows = news_sweep(&ctx, &SuiteConfig::sweep_smoke(), &[5, 15]);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.static_f1));
        }
        let values = rows.iter().flat_map(|r| [r.static_f1, r.static_auc]);
        assert_eq!(super::super::pin(values), 0x9ed3_fb1f_83c9_11b4);
    }

    #[test]
    fn recurrent_sweep_covers_three_cells() {
        let ctx = ExperimentContext::build(ExperimentContext::smoke_config(), 2);
        let cfg = SuiteConfig {
            news_k: 30,
            ..SuiteConfig::sweep_smoke()
        };
        let rows = recurrent_sweep(&ctx, &cfg);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].cell, RecurrentKind::Gru);
        let values = rows.iter().flat_map(|r| [r.dynamic_f1, r.dynamic_auc]);
        assert_eq!(super::super::pin(values), 0x4047_5a7a_59f0_2adf);
    }
}
