//! Regenerates **Figure 3**: user × hashtag hatefulness heatmap.
//!
//! ```text
//! cargo run --release -p bench --bin exp_fig3 [-- --scale 0.1]
//! ```

fn main() {
    let opts = bench::parse_options();
    bench::print::fig3(&bench::build_context(&opts));
}
