//! Regenerates **Figure 1**: retweet-cascade growth and susceptible-user
//! growth over time, hateful vs non-hate roots.
//!
//! ```text
//! cargo run --release -p bench --bin exp_fig1 [-- --scale 0.1]
//! ```

fn main() {
    let opts = bench::parse_options();
    bench::print::fig1(&bench::build_context(&opts));
}
