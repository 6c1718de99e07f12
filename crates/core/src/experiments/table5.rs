//! Table V — feature ablation for the best hate-generation model
//! (Decision Tree + downsampling): remove `History`, `Endogen`,
//! `Exogen`, `Topic` in isolation.

use super::ExperimentContext;
use crate::ablation::{run_ablation, AblationRow};
use crate::features::HategenFeatures;
use crate::hategen::HategenPipeline;

/// Run the Table V ablation.
pub fn run(ctx: &ExperimentContext, min_news: usize, seed: u64) -> Vec<AblationRow> {
    let feats = HategenFeatures::new(&ctx.data, &ctx.models, &ctx.silver);
    let samples = HategenPipeline::build_samples(&ctx.data, min_news);
    run_ablation(&feats, &samples, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_rows_with_full_model_first() {
        let ctx = ExperimentContext::build(ExperimentContext::smoke_config(), 2);
        let rows = run(&ctx, 20, 0);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].label, "All");
    }
}
