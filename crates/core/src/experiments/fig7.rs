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

/// Paper shape: for each head, macro-F1 at 30 tweets of history exceeds
/// its value at 10, and no longer history exceeds the value at 30
/// (performance rises to ~30 tweets, then flattens or drops). False when
/// the row for 10 or 30 is missing.
pub fn shape_holds(rows: &[Fig7Row]) -> bool {
    let at = |len: usize| rows.iter().find(|r| r.history_len == len);
    let (Some(h10), Some(h30)) = (at(10), at(30)) else {
        return false;
    };
    let heads: [fn(&Fig7Row) -> f64; 2] = [|r| r.static_f1, |r| r.dynamic_f1];
    heads.iter().all(|f1| {
        f1(h30) > f1(h10)
            && rows
                .iter()
                .filter(|r| r.history_len > 30)
                .all(|r| f1(r) <= f1(h30))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_reads_both_heads_at_10_30_and_beyond() {
        // The default-scale run: both heads peak at 30.
        let logged: Vec<Fig7Row> = [
            (5, 0.608, 0.572),
            (10, 0.611, 0.570),
            (20, 0.612, 0.571),
            (30, 0.615, 0.577),
            (40, 0.614, 0.573),
            (50, 0.611, 0.572),
        ]
        .iter()
        .map(|&(history_len, static_f1, dynamic_f1)| Fig7Row {
            history_len,
            static_f1,
            dynamic_f1,
        })
        .collect();
        assert!(shape_holds(&logged));
        // RETINA-D still rising past 30.
        let mut rising = logged.clone();
        rising[5].dynamic_f1 = 0.580;
        assert!(!shape_holds(&rising));
        // RETINA-S no better at 30 than at 10.
        let mut flat = logged.clone();
        flat[1].static_f1 = 0.615;
        assert!(!shape_holds(&flat));
        assert!(!shape_holds(&logged[2..]));
        assert!(!shape_holds(&logged[..3]));
    }

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
