//! Peak-RSS harness behind `cargo run -p xtask -- mem-report`.
//!
//! Generates the socialsim dataset at two scales and, after each, prints
//! four records on stdout in perfbench's fragment format
//! ([`bench::record`]): `<scenario>.vmhwm`, the process peak resident
//! set (`VmHWM` from `/proc/self/status`) in KiB, and the corpus size it
//! paid for as `.users`, `.tweets` and `.retweets`. VmHWM is a
//! process-lifetime high-water mark, so scenarios run smallest first
//! and each `vmhwm` is the ceiling up to and including its own run.
//!
//! Off Linux there is no `/proc`; the harness prints a notice on stderr
//! and no records, and exits successfully (`mem-report` treats a run
//! without records as a skip).

use bench::record;
use socialsim::{Dataset, SimConfig};

/// Read the peak resident set size in KiB from `/proc/self/status`
/// (`VmHWM:    28096 kB`). `None` where the file or field is missing.
fn vmhwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Print one scenario's records; `false` when the platform has no VmHWM.
fn report(scenario: &str, data: &Dataset) -> bool {
    let Some(peak) = vmhwm_kb() else {
        eprintln!("graph_mem: VmHWM unavailable on this platform, skipping");
        return false;
    };
    let retweets: usize = data.tweets().iter().map(|t| t.retweets.len()).sum();
    println!("{}", record(scenario, "vmhwm", peak, "KiB"));
    println!("{}", record(scenario, "users", data.users().len(), "count"));
    println!(
        "{}",
        record(scenario, "tweets", data.root_tweets().count(), "count")
    );
    println!("{}", record(scenario, "retweets", retweets, "count"));
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
