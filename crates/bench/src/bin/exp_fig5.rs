//! Regenerates **Figure 5**: HITS@k for RETINA-D/S and TopoLSTM at
//! k ∈ {1, 5, 10, 20, 50, 100}.
//!
//! ```text
//! cargo run --release -p bench --bin exp_fig5 [-- --scale 0.1]
//! ```

use retina_core::experiments::retweet_suite::{run, SuiteModels};

fn main() {
    let opts = bench::parse_options();
    let ctx = bench::build_context(&opts);
    bench::print::fig5(&run(&ctx, &opts.suite(), SuiteModels::figures()));
}
