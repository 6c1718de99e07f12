//! Regenerates **Figure 7**: RETINA macro-F1 vs user-history size
//! (5 → 50 tweets).
//!
//! ```text
//! cargo run --release -p bench --bin exp_fig7 [-- --scale 0.1]
//! ```

fn main() {
    let opts = bench::parse_options();
    bench::print::fig7(&bench::build_context(&opts), &opts);
}
