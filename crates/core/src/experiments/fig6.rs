//! Figure 6 — MAP@20 for hateful vs non-hate root tweets: RETINA (both
//! settings) vs TopoLSTM. The paper's point: TopoLSTM degrades sharply on
//! hateful roots (0.59 non-hate → 0.43 hate) while RETINA stays stable.

use super::retweet_suite::RetweetSuite;
use ml::metrics::{map_at_k, rank_by_score};

/// MAP@20 split by root hate label for one model.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    pub model: String,
    pub map20_hate: f64,
    pub map20_nonhate: f64,
}

impl Fig6Row {
    /// Relative degradation on hateful roots (positive = worse on hate).
    pub fn hate_gap(&self) -> f64 {
        self.map20_nonhate - self.map20_hate
    }
}

impl std::fmt::Display for Fig6Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:12} | MAP@20 hate {:.3} | non-hate {:.3} | gap {:+.3}",
            self.model,
            self.map20_hate,
            self.map20_nonhate,
            self.hate_gap()
        )
    }
}

/// Compute the split MAP@20 for RETINA-D, RETINA-S and TopoLSTM.
pub fn run(suite: &RetweetSuite) -> Vec<Fig6Row> {
    ["RETINA-D", "RETINA-S", "TopoLSTM"]
        .iter()
        .filter_map(|&name| {
            let r = suite.result(name)?;
            let mut hate_lists = Vec::new();
            let mut clean_lists = Vec::new();
            for (scores, sample) in r.scores.iter().zip(&suite.test) {
                let ranked = rank_by_score(scores, &sample.labels);
                if sample.hateful {
                    hate_lists.push(ranked);
                } else {
                    clean_lists.push(ranked);
                }
            }
            Some(Fig6Row {
                model: name.to_string(),
                map20_hate: map_at_k(&hate_lists, 20),
                map20_nonhate: map_at_k(&clean_lists, 20),
            })
        })
        .collect()
}

/// Paper shape: TopoLSTM's [`Fig6Row::hate_gap`] exceeds the gap of
/// both RETINA rows (TopoLSTM degrades on hateful roots, RETINA holds
/// up). False when any of the three rows is missing.
pub fn shape_holds(rows: &[Fig6Row]) -> bool {
    let gap = |model: &str| {
        rows.iter()
            .find(|r| r.model == model)
            .map(Fig6Row::hate_gap)
    };
    match (gap("TopoLSTM"), gap("RETINA-D"), gap("RETINA-S")) {
        (Some(topo), Some(d), Some(s)) => topo > d && topo > s,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::super::retweet_suite::{run as run_suite, SuiteConfig, SuiteModels};
    use super::super::ExperimentContext;
    use super::*;

    fn row(model: &str, map20_hate: f64, map20_nonhate: f64) -> Fig6Row {
        Fig6Row {
            model: model.to_string(),
            map20_hate,
            map20_nonhate,
        }
    }

    #[test]
    fn shape_compares_topolstm_gap_with_both_retina_gaps() {
        // The default-scale run: every model reads higher on hateful
        // roots, TopoLSTM most of all, so its gap is the lowest.
        let logged = [
            row("RETINA-D", 0.643, 0.489),
            row("RETINA-S", 0.631, 0.502),
            row("TopoLSTM", 0.663, 0.440),
        ];
        assert!(!shape_holds(&logged));
        // The paper's reading: TopoLSTM 0.59 non-hate -> 0.43 hate.
        let mut paper = logged.clone();
        paper[2] = row("TopoLSTM", 0.43, 0.59);
        assert!(shape_holds(&paper));
        assert!(!shape_holds(&paper[1..]));
        assert!(!shape_holds(&paper[..2]));
    }

    #[test]
    fn rows_cover_three_models() {
        let ctx = ExperimentContext::build(ExperimentContext::smoke_config(), 2);
        let suite = run_suite(&ctx, &SuiteConfig::smoke(), SuiteModels::figures());
        let rows = run(&suite);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.map20_hate));
            assert!((0.0..=1.0).contains(&r.map20_nonhate));
        }
    }
}
