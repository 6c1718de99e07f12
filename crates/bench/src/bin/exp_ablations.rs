//! RETINA design-choice ablations: news-window size sweep and
//! recurrent-cell sweep (Sections V-B / VIII-B prose results).
//!
//! ```text
//! cargo run --release -p bench --bin exp_ablations [-- --scale 0.1]
//! ```

fn main() {
    let opts = bench::parse_options();
    bench::print::ablations(&bench::build_context(&opts), &opts);
}
