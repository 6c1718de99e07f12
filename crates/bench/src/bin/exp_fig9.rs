//! Regenerates **Figure 9**: RETINA-S macro-F1 vs actual cascade size.
//!
//! ```text
//! cargo run --release -p bench --bin exp_fig9 [-- --scale 0.1]
//! ```

use retina_core::experiments::retweet_suite::{run, SuiteModels};

fn main() {
    let opts = bench::parse_options();
    let ctx = bench::build_context(&opts);
    bench::print::fig9(&run(&ctx, &opts.suite(), SuiteModels::figures()));
}
