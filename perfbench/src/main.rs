//! The RETINA benchmark: three workloads through the public API, from
//! corpus generation to the prediction server.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <retweet_pipeline|serve_open_loop|hategen_table4> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The seed makes the workload's inputs: the corpus and the request
//! order. The run measures for about `--seconds` seconds, checks every
//! output it can, logs progress on stderr and prints one JSON line last
//! on stdout: the end-to-end metrics, or with `--trace 1` the per-layer
//! metrics from spans recorded around each call into a layer (written to
//! `perfbench/out/`). Any failed check makes the exit code 1.

mod offline;
mod report;
mod serve;
mod stats;
mod trace;
mod work;

use report::{Checks, Metrics, END_TO_END, PER_LAYER};
use std::path::Path;
use trace::Tracer;

/// One run's settings.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload hands back.
pub struct Outcome {
    pub metrics: Metrics,
    pub checks: Checks,
    pub tracer: Tracer,
}

/// A workload: run it, check it, measure it.
type Workload = fn(&Run) -> Outcome;

const WORKLOADS: [(&str, Workload); 3] = [
    ("retweet_pipeline", offline::retweet_pipeline),
    ("serve_open_loop", serve::serve_open_loop),
    ("hategen_table4", offline::hategen_table4),
];

const USAGE: &str =
    "usage: perfbench --workload <retweet_pipeline|serve_open_loop|hategen_table4> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse(args: &[String]) -> Result<(Workload, String, Run), String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.0 == name)
        .ok_or(format!("unknown workload {name}"))?
        .1;
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed takes an integer")?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok((
        workload,
        name.to_string(),
        Run {
            seed,
            seconds,
            trace,
        },
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, name, run) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: workload {name} seed {} seconds {} trace {} nproc {nproc}",
        run.seed, run.seconds, run.trace
    );

    let Outcome {
        mut metrics,
        mut checks,
        tracer,
    } = workload(&run);

    let registry = if run.trace {
        metrics.insert("trace.spans", tracer.spans().len() as f64);
        checks.check(tracer.dropped() == 0, || {
            format!("trace buffer dropped {} spans", tracer.dropped())
        });
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{name}-seed{}.tsv", run.seed));
        match tracer.write_tsv(&path) {
            Ok(()) => eprintln!(
                "perfbench: wrote {} spans to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => checks.check(false, || format!("writing {}: {e}", path.display())),
        }
        PER_LAYER
    } else {
        match report::peak_rss_mib() {
            Some(mib) => {
                metrics.insert("peak_rss_mib", mib);
            }
            None => checks.check(false, || {
                "VmHWM unavailable: cannot report peak_rss_mib".into()
            }),
        }
        END_TO_END
    };
    for &(metric, unit) in registry {
        eprintln!(
            "perfbench: {metric:<36} {:>16.6} {unit}",
            metrics.get(metric).copied().unwrap_or(0.0)
        );
    }
    let line = report::render(registry, &metrics, &mut checks);
    println!("{line}");
    if checks.failed > 0 {
        std::process::exit(1);
    }
}
