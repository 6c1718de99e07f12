//! Regenerates **Figure 8**: predicted/actual retweets per time window
//! (RETINA-D), hateful vs non-hate roots.
//!
//! ```text
//! cargo run --release -p bench --bin exp_fig8 [-- --scale 0.1]
//! ```

use retina_core::experiments::retweet_suite::{run, SuiteModels};

fn main() {
    let opts = bench::parse_options();
    let ctx = bench::build_context(&opts);
    bench::print::fig8(&run(&ctx, &opts.suite(), SuiteModels::figures()));
}
