//! Feature ablation for hate generation (Table V).
//!
//! The paper takes the best model — Decision Tree with downsampling —
//! and removes each signal group in isolation: `All \ History`,
//! `All \ Endogen`, `All \ Exogen`, `All \ Topic`.

use crate::features::{FeatureGroup, HategenFeatures};
use crate::hategen::{HategenPipeline, HategenSample, ModelKind, Processing};
use ml::ClassificationReport;

/// One row of Table V.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Display label, e.g. `All \ History`.
    pub label: String,
    /// Which group was removed (`None` = full model).
    pub removed: Option<FeatureGroup>,
    pub report: ClassificationReport,
}

impl std::fmt::Display for AblationRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:16} | macro-F1 {:.3} | ACC {:.3} | AUC {:.3}",
            self.label, self.report.macro_f1, self.report.accuracy, self.report.auc
        )
    }
}

/// Run the full Table V ablation: the full model plus each group removed
/// in isolation, all with Decision Tree + downsampling.
pub fn run_ablation(
    features: &HategenFeatures<'_>,
    samples: &[HategenSample],
    seed: u64,
) -> Vec<AblationRow> {
    let cases: [(Option<FeatureGroup>, &str); 5] = [
        (None, "All"),
        (Some(FeatureGroup::History), "All \\ History"),
        (Some(FeatureGroup::Endogenous), "All \\ Endogen"),
        (Some(FeatureGroup::Exogenous), "All \\ Exogen"),
        (Some(FeatureGroup::Topic), "All \\ Topic"),
    ];
    cases
        .into_iter()
        .map(|(removed, label)| {
            let pipe = HategenPipeline::new(features, samples, removed, seed);
            let report = pipe.run_cell(ModelKind::DecTree, Processing::Downsample);
            AblationRow {
                label: label.to_string(),
                removed,
                report,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::HateDetector;
    use crate::features::TextModels;
    use socialsim::{Dataset, SimConfig};

    #[test]
    fn ablation_produces_five_rows() {
        let data = Dataset::generate(SimConfig {
            tweet_scale: 0.04,
            n_users: 250,
            ..SimConfig::tiny()
        });
        let models = TextModels::build(&data, 2);
        let det = HateDetector::train(&data, &models, 0.6, 0);
        let silver = det.silver_labels(&data, &models);
        let feats = HategenFeatures::new(&data, &models, &silver);
        let samples = HategenPipeline::build_samples(&data, 20);
        let rows = run_ablation(&feats, &samples, 0);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].label, "All");
        assert!(rows[0].removed.is_none());
        // Reports are valid metrics.
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.report.macro_f1));
            assert!((0.0..=1.0).contains(&r.report.auc));
        }
    }
}
