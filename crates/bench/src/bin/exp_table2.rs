//! Regenerates **Table II**: dataset statistics per hashtag.
//!
//! ```text
//! cargo run --release -p bench --bin exp_table2 [-- --scale 0.1]
//! ```

fn main() {
    let opts = bench::parse_options();
    bench::print::table2(&bench::build_context(&opts));
}
