//! Regenerates **Figure 6**: MAP@20 split by hateful vs non-hate root
//! tweets for RETINA-D/S and TopoLSTM.
//!
//! ```text
//! cargo run --release -p bench --bin exp_fig6 [-- --scale 0.1]
//! ```

use retina_core::experiments::retweet_suite::{run, SuiteModels};

fn main() {
    let opts = bench::parse_options();
    let ctx = bench::build_context(&opts);
    bench::print::fig6(&run(&ctx, &opts.suite(), SuiteModels::figures()));
}
