//! Runs the **entire evaluation** — every table and figure — on one
//! shared corpus, printing each section as its own `exp_*` binary does.
//! Figures 5/6/8/9 reuse the Table VI suite run, so models are trained
//! once.
//!
//! ```text
//! cargo run --release -p bench --bin exp_all [-- --scale 0.1 | --smoke]
//! ```

use bench::print;
use retina_core::hategen::ModelKind;

fn main() {
    let opts = bench::parse_options();
    let ctx = bench::build_context(&opts);
    let total = std::time::Instant::now();
    print::table2(&ctx);
    print::fig1(&ctx);
    print::fig2(&ctx);
    print::fig3(&ctx);
    print::table4(&ctx, &opts, &ModelKind::ALL);
    print::table5(&ctx, &opts);
    let suite = print::table6(&ctx, &opts);
    print::fig5(&suite);
    print::fig6(&suite);
    print::fig8(&suite);
    print::fig9(&suite);
    print::fig7(&ctx, &opts);
    eprintln!(
        "[timing] full evaluation completed in {:.1}s",
        total.elapsed().as_secs_f64()
    );
}
