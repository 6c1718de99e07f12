//! Regenerates **Figure 2**: distribution of hateful vs non-hate tweets
//! per hashtag.
//!
//! ```text
//! cargo run --release -p bench --bin exp_fig2 [-- --scale 0.1]
//! ```

fn main() {
    let opts = bench::parse_options();
    bench::print::fig2(&bench::build_context(&opts));
}
