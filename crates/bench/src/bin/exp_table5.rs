//! Regenerates **Table V**: feature ablation for the best
//! hate-generation model (Decision Tree + downsampling).
//!
//! ```text
//! cargo run --release -p bench --bin exp_table5 [-- --scale 0.1]
//! ```

fn main() {
    let opts = bench::parse_options();
    bench::print::table5(&bench::build_context(&opts), &opts);
}
