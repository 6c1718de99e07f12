//! Regenerates **Table IV**: six classifiers × five feature/sampling
//! treatments for hate-generation prediction.
//!
//! ```text
//! cargo run --release -p bench --bin exp_table4 [-- --scale 0.1]
//! cargo run --release -p bench --bin exp_table4 -- --models dectree,logreg
//! ```

use bench::{build_context, header, parse_options};
use retina_core::experiments::table4;
use retina_core::hategen::{ModelKind, Processing};

fn main() {
    let opts = parse_options();
    // Optional model subset: --models svml,svmr,logreg,dectree,ada,xgb
    let args: Vec<String> = std::env::args().collect();
    let models: Vec<ModelKind> = match args.iter().position(|a| a == "--models") {
        Some(i) => args
            .get(i + 1)
            .expect("--models takes a comma-separated list")
            .split(',')
            .map(|m| match m {
                "svml" => ModelKind::SvmLinear,
                "svmr" => ModelKind::SvmRbf,
                "logreg" => ModelKind::LogReg,
                "dectree" => ModelKind::DecTree,
                "ada" => ModelKind::AdaBoost,
                "xgb" => ModelKind::XgBoost,
                other => panic!("unknown model {other}"),
            })
            .collect(),
        None => ModelKind::ALL.to_vec(),
    };
    let ctx = build_context(&opts);
    let min_news = if opts.smoke { 20 } else { 60 };

    header("Table IV — hate-generation prediction (macro-F1 / ACC / AUC)");
    let t = std::time::Instant::now();
    let cells = table4::run(&ctx, &models, &Processing::ALL, min_news, opts.config.seed);
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
