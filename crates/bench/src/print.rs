//! One printer per table or figure. Each `exp_*` binary calls its
//! section's printer, and `exp_all` calls them all on one context, with
//! Figs. 5, 6, 8 and 9 reading the suite run that Table VI prints.

use crate::{header, ExpOptions};
use retina_core::experiments::ablations::{news_sweep, recurrent_sweep};
use retina_core::experiments::retweet_suite::{RetweetSuite, SuiteConfig};
use retina_core::experiments::{
    fig1, fig2, fig3, fig5, fig6, fig7, fig8, fig9, table2, table4, table5, table6,
    ExperimentContext,
};
use retina_core::hategen::{ModelKind, Processing};

/// Table II: dataset statistics per hashtag.
pub fn table2(ctx: &ExperimentContext) {
    header("Table II — dataset statistics per hashtag (measured vs paper targets)");
    for row in table2::run(&ctx.data) {
        println!("{row}");
    }
    let rate = ctx.data.overall_hate_rate();
    println!(
        "\noverall hate rate: {:.2}% (paper corpus: ~4%)",
        rate * 100.0
    );
}

/// Figure 1: retweet and susceptible-user growth, hate vs non-hate.
pub fn fig1(ctx: &ExperimentContext) {
    header("Figure 1 — diffusion dynamics: hate vs non-hate");
    let pts = fig1::run(&ctx.data, &fig1::default_offsets());
    for p in &pts {
        println!("{p}");
    }
    let (more_rts, fewer_sus) = fig1::shape_holds(&pts);
    println!("\npaper shape (1a) hateful cascades out-retweet non-hate: {more_rts}");
    println!("paper shape (1b) hateful roots expose fewer susceptibles: {fewer_sus}");
}

/// Figure 2: hate ratio per hashtag.
pub fn fig2(ctx: &ExperimentContext) {
    header("Figure 2 — hate ratio per hashtag (sorted)");
    let rows = fig2::run(&ctx.data);
    for r in &rows {
        println!("{r}");
    }
    println!(
        "\nSpearman rank correlation vs Table II targets: {:.3}",
        fig2::rank_correlation(&rows)
    );
}

/// Figure 3: user × hashtag hatefulness of the 12 most hateful users.
pub fn fig3(ctx: &ExperimentContext) {
    header("Figure 3 — per-user, per-hashtag hate ratios (most hateful users)");
    let map = fig3::run(&ctx.data, 12, 12);
    println!("{map}");
    println!(
        "mean per-user spread of hate ratio across hashtags: {:.3} (high = hate is topical)",
        fig3::mean_spread(&map)
    );
}

/// Table IV: `models` × every feature/sampling treatment.
pub fn table4(ctx: &ExperimentContext, opts: &ExpOptions, models: &[ModelKind]) {
    header("Table IV — hate-generation prediction (macro-F1 / ACC / AUC)");
    let t = std::time::Instant::now();
    let cells = table4::run(
        ctx,
        models,
        &Processing::ALL,
        opts.min_news(),
        opts.config.seed,
    );
    for c in &cells {
        println!("{c}");
    }
    let best = table4::best_cell(&cells);
    println!(
        "\nbest cell: {} + {} at macro-F1 {:.3} (paper: Dec-Tree + DS at 0.65)",
        best.model.name(),
        best.proc.name(),
        best.report.macro_f1
    );
    eprintln!(
        "[timing] grid completed in {:.1}s",
        t.elapsed().as_secs_f64()
    );
}

/// Table V: the feature ablation of Dec-Tree + DS.
pub fn table5(ctx: &ExperimentContext, opts: &ExpOptions) {
    header("Table V — feature ablation (Dec-Tree + DS)");
    for row in table5::run(ctx, opts.min_news(), opts.config.seed) {
        println!("{row}");
    }
    println!("\npaper: removing History or Exogen hurts most (0.65 -> 0.56); Topic is negligible");
}

/// Table VI: runs the full suite, prints it and returns it for the
/// figures that read it.
pub fn table6(ctx: &ExperimentContext, opts: &ExpOptions) -> RetweetSuite {
    header("Table VI — retweeter prediction");
    let t = std::time::Instant::now();
    let suite = table6::run(ctx, &opts.suite());
    for row in table6::ordered_rows(&suite) {
        println!("{row}");
    }
    if opts.smoke {
        println!("\n[note] --smoke scale: shape booleans below are noise; see");
        println!("       EXPERIMENTS.md for the recorded experiment-scale run");
    }
    let (d_leads, exo_helps, rudimentary) = table6::shape_holds(&suite);
    println!("\npaper shape: RETINA-D leads MAP@20: {d_leads}");
    println!("paper shape: exogenous attention helps RETINA: {exo_helps}");
    println!("paper shape: SIR / Gen.Thresh. collapse: {rudimentary}");
    eprintln!(
        "[timing] suite completed in {:.1}s",
        t.elapsed().as_secs_f64()
    );
    suite
}

/// Figure 5: HITS@k of RETINA-D/S and TopoLSTM.
pub fn fig5(suite: &RetweetSuite) {
    header("Figure 5 — HITS@k curves");
    let rows = fig5::run(suite);
    for r in &rows {
        println!("{r}");
    }
    println!(
        "\npaper shape (monotone curves, convergence at large k): {}",
        fig5::shape_holds(&rows)
    );
}

/// Figure 6: MAP@20 on hateful vs non-hate roots.
pub fn fig6(suite: &RetweetSuite) {
    header("Figure 6 — MAP@20 on hateful vs non-hate roots");
    for r in fig6::run(suite) {
        println!("{r}");
    }
    println!("\npaper shape: TopoLSTM's hate/non-hate gap exceeds RETINA's");
}

/// Figure 7: RETINA macro-F1 vs user-history size.
pub fn fig7(ctx: &ExperimentContext, opts: &ExpOptions) {
    header("Figure 7 — performance vs history size");
    for r in fig7::run(ctx, &opts.sweep(), opts.history_sizes()) {
        println!("{r}");
    }
    println!("\npaper shape: performance rises to ~30 tweets of history, then flattens/drops");
}

/// Figure 8: RETINA-D's predicted/actual retweets per time window.
pub fn fig8(suite: &RetweetSuite) {
    header("Figure 8 — predicted/actual retweet ratio per time window (RETINA-D)");
    let rows = fig8::run(suite);
    for r in &rows {
        println!("{r}");
    }
    println!(
        "\npaper shape (ratio approaches 1 in later windows): {}",
        fig8::shape_holds(&rows)
    );
}

/// Figure 9: RETINA-S macro-F1 vs cascade size.
pub fn fig9(suite: &RetweetSuite) {
    header("Figure 9 — RETINA-S macro-F1 vs cascade size");
    let (rows, overall) = fig9::run(suite, &fig9::default_buckets());
    for r in &rows {
        println!("{r}");
    }
    println!("\noverall RETINA-S macro-F1 (red dashed line): {overall:.3}");
    println!(
        "paper shape (macro-F1 rises with cascade size): {}",
        fig9::shape_holds(&rows)
    );
}

/// The news-window and recurrent-cell sweeps of RETINA.
pub fn ablations(ctx: &ExperimentContext, opts: &ExpOptions) {
    let cfg = opts.sweep();
    header("Ablation — news-window size (paper: best at 60)");
    for r in news_sweep(ctx, &cfg, opts.news_windows()) {
        println!("{r}");
    }
    header("Ablation — recurrent cell for RETINA-D (paper: GRU ≥ LSTM > RNN)");
    // The cells attend 30 news items at both scales.
    for r in recurrent_sweep(ctx, &SuiteConfig { news_k: 30, ..cfg }) {
        println!("{r}");
    }
}
