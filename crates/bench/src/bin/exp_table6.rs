//! Regenerates **Table VI**: RETINA vs all baselines on retweeter
//! prediction.
//!
//! ```text
//! cargo run --release -p bench --bin exp_table6 [-- --scale 0.1]
//! ```

fn main() {
    let opts = bench::parse_options();
    bench::print::table6(&bench::build_context(&opts), &opts);
}
