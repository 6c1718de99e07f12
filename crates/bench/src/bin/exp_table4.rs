//! Regenerates **Table IV**: six classifiers × five feature/sampling
//! treatments for hate-generation prediction.
//!
//! ```text
//! cargo run --release -p bench --bin exp_table4 [-- --scale 0.1]
//! cargo run --release -p bench --bin exp_table4 -- --models dectree,logreg
//! ```

use retina_core::hategen::ModelKind;

fn main() {
    let opts = bench::parse_options();
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
    bench::print::table4(&bench::build_context(&opts), &opts, &models);
}
