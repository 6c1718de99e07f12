//! Peak-RSS harness behind `cargo run -p xtask -- mem-report`.
//!
//! Generates the socialsim dataset at two scales and prints one
//! `memgraph <scenario> vmhwm_kb <n> users <n> tweets <n> retweets <n>`
//! line per scenario, sampling the process peak resident set (`VmHWM`
//! from `/proc/self/status`) after each generation. VmHWM is a
//! process-lifetime high-water mark, so scenarios run smallest first
//! and each line reports the ceiling up to and including its own run —
//! the committed `BENCH_graph.json` is the measured memory ceiling the
//! million-user scale-up (ROADMAP item 1) diffs against.
//!
//! Off Linux there is no `/proc`; the harness prints a skip notice and
//! exits successfully (`mem-report` treats a sampleless run as a skip).

use socialsim::{Dataset, SimConfig};

/// Read the peak resident set size in KiB from `/proc/self/status`
/// (`VmHWM:    28096 kB`). `None` where the file or field is missing.
fn vmhwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Print one report line; `false` when the platform has no VmHWM.
fn report(scenario: &str, data: &Dataset) -> bool {
    let Some(peak) = vmhwm_kb() else {
        println!("mem-report: VmHWM unavailable on this platform, skipping");
        return false;
    };
    let retweets: usize = data.tweets().iter().map(|t| t.retweets.len()).sum();
    println!(
        "memgraph {scenario} vmhwm_kb {peak} users {} tweets {} retweets {}",
        data.users().len(),
        data.root_tweets().count(),
        retweets
    );
    true
}

fn main() {
    // Smallest scenario first: VmHWM only ever grows, so ordering by
    // scale keeps each line attributable to its own scenario.
    {
        let tiny = Dataset::generate(SimConfig::tiny());
        if !report("dataset/generate_tiny", &tiny) {
            return;
        }
        // Dropped here so the default-scale peak is not padded by the
        // tiny dataset staying resident.
    }
    let full = Dataset::generate(SimConfig::default());
    report("dataset/generate_default", &full);
}
