//! Benchmark reports for `cargo run -p xtask -- {bench,serving,mem}-report
//! [--check]`.
//!
//! Every harness prints perfbench's record fragment on stdout, one per
//! line, and its notices on stderr:
//!
//! ```text
//! "<scenario>.<leaf>": {"value": <number>, "unit": "<unit>"}
//! ```
//!
//! Each report runs one harness ([`SUITES`]) three times, takes each
//! record's median over the runs, and keeps one committed file at the
//! workspace root holding the same lines in two sections:
//!
//! ```text
//! {
//!   "command": "<the harness command>",
//!   "baseline": { <records> },
//!   "current": { <records> }
//! }
//! ```
//!
//! A report preserves `baseline` (seeding it from the fresh medians the
//! first time), rewrites `current`, and prints current/baseline for each
//! gated record. `--check` never writes: it compares the fresh medians
//! with the committed `current` section and fails when a gated record
//! moves strictly beyond its bound in its worse direction ([`GATES`]).
//! A record that one run printed and another did not fails the report.

use std::fmt;
use std::path::Path;
use std::process::{Command, ExitCode};

/// One measurement: `<scenario>.<leaf>` with its value and unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Record {
    /// The part of the name after the last `.`, which selects the gate.
    pub fn leaf(&self) -> &str {
        self.name.rsplit_once('.').map_or("", |(_, leaf)| leaf)
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            self.name, self.value, self.unit
        )
    }
}

/// Parse one record line, from harness stdout or from a committed
/// section (surrounding whitespace and a trailing comma are ignored).
pub fn parse_record(line: &str) -> Option<Record> {
    let line = line.trim();
    let line = line.strip_suffix(',').unwrap_or(line);
    let (name, rest) = line.strip_prefix('"')?.split_once("\": {\"value\": ")?;
    let (value, rest) = rest.split_once(", \"unit\": \"")?;
    Some(Record {
        name: name.to_string(),
        value: value.parse().ok()?,
        unit: rest.strip_suffix("\"}")?.to_string(),
    })
}

/// Every record line in `text`; any other line is skipped.
pub fn parse_records(text: &str) -> Vec<Record> {
    text.lines().filter_map(parse_record).collect()
}

/// The records of one section (`baseline` / `current`) of a committed
/// report; empty when the section is missing.
pub fn parse_section(json: &str, title: &str) -> Vec<Record> {
    let Some(start) = json.find(&format!("\"{title}\": {{")) else {
        return Vec::new();
    };
    json[start..]
        .lines()
        .skip(1)
        .take_while(|l| !matches!(l.trim(), "}" | "},"))
        .filter_map(parse_record)
        .collect()
}

/// Render a committed report.
pub fn render(command: &str, baseline: &[Record], current: &[Record]) -> String {
    let mut out = format!("{{\n  \"command\": \"{command}\",\n");
    for (title, records, sep) in [("baseline", baseline, ","), ("current", current, "")] {
        let lines: Vec<String> = records.iter().map(|r| format!("    {r}")).collect();
        out.push_str(&format!(
            "  \"{title}\": {{\n{}\n  }}{sep}\n",
            lines.join(",\n")
        ));
    }
    out.push_str("}\n");
    out
}

/// Which direction of change is a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// A regression bound on every record with this leaf.
#[derive(Debug)]
pub struct Gate {
    pub leaf: &'static str,
    pub better: Better,
    /// Fractional change tolerated in the worse direction.
    pub bound: f64,
}

/// The gated leaves: kernel mean time, serving throughput and p99
/// latency, and dataset-generation peak RSS. Every other leaf is
/// recorded but not gated.
pub const GATES: [Gate; 4] = [
    Gate {
        leaf: "mean",
        better: Better::Lower,
        bound: 0.15,
    },
    Gate {
        leaf: "pps",
        better: Better::Higher,
        bound: 0.15,
    },
    Gate {
        leaf: "p99",
        better: Better::Lower,
        bound: 0.25,
    },
    Gate {
        leaf: "vmhwm",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// The gate for a record, if its leaf is gated.
pub fn gate(record: &Record) -> Option<&'static Gate> {
    GATES.iter().find(|g| g.leaf == record.leaf())
}

/// Compare a fresh run with committed records: a gated record regresses
/// when it moves strictly beyond its bound in its worse direction.
/// Records present on only one side, and committed values of zero, are
/// skipped.
pub fn regressions(committed: &[Record], fresh: &[Record]) -> Vec<String> {
    let mut out = Vec::new();
    for f in fresh {
        let Some(g) = gate(f) else { continue };
        let Some(c) = committed.iter().find(|c| c.name == f.name) else {
            continue;
        };
        let worse = match g.better {
            Better::Lower => f.value > c.value * (1.0 + g.bound),
            Better::Higher => f.value < c.value * (1.0 - g.bound),
        };
        if c.value > 0.0 && worse {
            let sign = if g.better == Better::Lower { '+' } else { '-' };
            out.push(format!(
                "{}: {} {} vs committed {} ({:+.1}%, bound {sign}{:.0}%)",
                f.name,
                f.value,
                f.unit,
                c.value,
                (f.value / c.value - 1.0) * 100.0,
                g.bound * 100.0
            ));
        }
    }
    out
}

/// One report: its subcommand, committed file and harness.
#[derive(Debug)]
pub struct Suite {
    pub subcommand: &'static str,
    pub file: &'static str,
    /// Arguments to `cargo` that build and run the harness.
    pub cargo_args: &'static [&'static str],
    /// A run with no records is a skip rather than a failure.
    pub empty_is_skip: bool,
}

impl Suite {
    /// The harness command line, as recorded in the committed file.
    pub fn command(&self) -> String {
        format!("cargo {}", self.cargo_args.join(" "))
    }
}

/// The three reports.
pub const SUITES: [Suite; 3] = [
    // On an AVX2 host the f64 and f32 matmul kernels take their AVX2
    // leg; elsewhere the bit-identical portable kernels run (DESIGN.md
    // §13).
    Suite {
        subcommand: "bench-report",
        file: "BENCH_kernels.json",
        cargo_args: &["bench", "-p", "bench", "--bench", "substrates"],
        empty_is_skip: false,
    },
    Suite {
        subcommand: "serving-report",
        file: "BENCH_serving.json",
        cargo_args: &[
            "run",
            "--release",
            "-p",
            "bench",
            "--bin",
            "retina_serve",
            "--",
            "bench",
        ],
        empty_is_skip: false,
    },
    // `graph_mem` reads VmHWM from `/proc/self/status`; off Linux it
    // prints a notice and no records.
    Suite {
        subcommand: "mem-report",
        file: "BENCH_graph.json",
        cargo_args: &["run", "--release", "-p", "bench", "--bin", "graph_mem"],
        empty_is_skip: true,
    },
];

/// Harness runs per report. One host stall lifts one run's records, not
/// their median, so neither a written `current` nor a check rests on it.
const RUNS: usize = 3;

/// Run `suite`'s harness `RUNS` times in `root`, then refresh its
/// committed file or, with `check`, compare against it.
pub fn run(suite: &Suite, root: &Path, check: bool) -> ExitCode {
    let command = suite.command();
    let mut runs = Vec::with_capacity(RUNS);
    for i in 1..=RUNS {
        eprintln!("running `{command}`, run {i} of {RUNS} (the first builds in release)...");
        let out = match Command::new("cargo")
            .args(suite.cargo_args)
            .current_dir(root)
            .output()
        {
            Ok(o) => o,
            Err(e) => {
                eprintln!("failed to spawn `{command}`: {e}");
                return ExitCode::from(2);
            }
        };
        if !out.status.success() {
            eprintln!(
                "`{command}` failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            return ExitCode::from(2);
        }
        runs.push(String::from_utf8_lossy(&out.stdout).into_owned());
    }
    update(suite, &root.join(suite.file), &runs, check)
}

/// Each record's median over `runs` (one harness stdout each), in the
/// first run's order; an error names a record that some run lacks.
fn median_records(runs: &[impl AsRef<str>]) -> Result<Vec<Record>, String> {
    let parsed: Vec<Vec<Record>> = runs.iter().map(|r| parse_records(r.as_ref())).collect();
    for record in parsed.iter().flatten() {
        if let Some(i) = parsed
            .iter()
            .position(|run| !run.iter().any(|r| r.name == record.name))
        {
            return Err(format!(
                "`{}` is missing from run {} of {}",
                record.name,
                i + 1,
                parsed.len()
            ));
        }
    }
    let Some(first) = parsed.first() else {
        return Ok(Vec::new());
    };
    Ok(first
        .iter()
        .map(|record| {
            let mut values: Vec<f64> = parsed
                .iter()
                .flat_map(|run| run.iter().filter(|r| r.name == record.name))
                .map(|r| r.value)
                .collect();
            values.sort_by(f64::total_cmp);
            Record {
                value: values[values.len() / 2],
                ..record.clone()
            }
        })
        .collect())
}

/// Turn the harness runs' stdout into `suite`'s report at `path`: write
/// each record's median into its `current` section or, with `check`,
/// compare the medians against it.
pub fn update(suite: &Suite, path: &Path, runs: &[impl AsRef<str>], check: bool) -> ExitCode {
    let current = match median_records(runs) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("{}: {e}", suite.subcommand);
            return ExitCode::from(2);
        }
    };
    if current.is_empty() {
        eprintln!("`{}` printed no records", suite.command());
        return if suite.empty_is_skip {
            eprintln!("{}: skipping", suite.subcommand);
            ExitCode::SUCCESS
        } else {
            ExitCode::from(2)
        };
    }

    let existing = std::fs::read_to_string(path);
    if check {
        let committed = match existing {
            Ok(text) => parse_section(&text, "current"),
            Err(e) => {
                eprintln!("--check needs a committed {}: {e}", suite.file);
                return ExitCode::from(2);
            }
        };
        if committed.is_empty() {
            eprintln!("--check found no `current` records in {}", suite.file);
            return ExitCode::from(2);
        }
        print_ratios(&committed, &current, "committed");
        let regs = regressions(&committed, &current);
        if regs.is_empty() {
            eprintln!(
                "{} check passed: no gated record beyond its bound",
                suite.subcommand
            );
            return ExitCode::SUCCESS;
        }
        eprintln!(
            "{} check FAILED — {} regression(s):",
            suite.subcommand,
            regs.len()
        );
        for r in &regs {
            eprintln!("  {r}");
        }
        return ExitCode::FAILURE;
    }

    // A committed baseline is kept; the first run seeds it.
    let baseline = match existing.map(|text| parse_section(&text, "baseline")) {
        Ok(b) if !b.is_empty() => b,
        _ => current.clone(),
    };
    if let Err(e) = std::fs::write(path, render(&suite.command(), &baseline, &current)) {
        eprintln!("failed to write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    print_ratios(&baseline, &current, "baseline");
    eprintln!("wrote {}", path.display());
    ExitCode::SUCCESS
}

/// Print each gated fresh record with its ratio to the `reference` row
/// of the same name.
fn print_ratios(reference: &[Record], current: &[Record], label: &str) {
    for r in current.iter().filter(|r| gate(r).is_some()) {
        let ratio = match reference.iter().find(|b| b.name == r.name) {
            Some(b) if b.value > 0.0 => format!("{:.2}x {label}", r.value / b.value),
            _ => format!("no {label} row"),
        };
        println!("{:<50} {:>14} {:<4} ({ratio})", r.name, r.value, r.unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, value: f64, unit: &str) -> Record {
        Record {
            name: name.into(),
            value,
            unit: unit.into(),
        }
    }

    #[test]
    fn records_parse_from_harness_output_and_skip_noise() {
        let out = "   Compiling bench v0.1.0\n\
                   warming up...\n\
                   \"nn/attention_fwd_bwd_60news.mean\": {\"value\": 829689, \"unit\": \"ns\"}\n\
                   \"serve/static_w2.pps\": {\"value\": 14212.7, \"unit\": \"1/s\"}\n\
                   \"broken.mean\": {\"value\": fast, \"unit\": \"ns\"}\n\
                   \"no_unit.mean\": {\"value\": 5}\n\
                   random noise line\n";
        let records = parse_records(out);
        assert_eq!(
            records,
            vec![
                rec("nn/attention_fwd_bwd_60news.mean", 829689.0, "ns"),
                rec("serve/static_w2.pps", 14212.7, "1/s"),
            ]
        );
        assert_eq!(records[0].leaf(), "mean");
        assert_eq!(records[1].leaf(), "pps");
    }

    #[test]
    fn sections_survive_a_render_parse_round_trip() {
        let baseline = vec![
            rec("serve/static_w1.pps", 63680.5, "1/s"),
            rec("serve/static_w1.p99", 32959.0, "ns"),
        ];
        let current = vec![
            rec("dataset/generate_tiny.vmhwm", 9384.0, "KiB"),
            rec("dataset/generate_tiny.users", 220.0, "count"),
        ];
        let json = render("cargo run -p bench", &baseline, &current);
        assert!(json.starts_with("{\n  \"command\": \"cargo run -p bench\",\n"));
        assert!(json
            .contains("    \"serve/static_w1.pps\": {\"value\": 63680.5, \"unit\": \"1/s\"},\n"));
        assert_eq!(parse_section(&json, "baseline"), baseline);
        assert_eq!(parse_section(&json, "current"), current);
        // The whole file parses to the records of both sections.
        assert_eq!(parse_records(&json).len(), 4);
    }

    #[test]
    fn missing_or_empty_section_parses_to_empty() {
        assert!(parse_section("{}", "baseline").is_empty());
        let json = render("cmd", &[], &[rec("a.mean", 1.0, "ns")]);
        assert!(parse_section(&json, "baseline").is_empty());
        assert!(parse_section(&json, "nonexistent").is_empty());
        assert_eq!(parse_section(&json, "current").len(), 1);
    }

    #[test]
    fn each_gate_fails_only_strictly_beyond_its_bound_in_its_direction() {
        // (leaf, unit, value just inside, value just past, value moving the
        // better way by far more than the bound)
        let cases = [
            ("mean", "ns", 114.0, 116.0, 10.0),
            ("pps", "1/s", 86.0, 84.0, 1000.0),
            ("p99", "ns", 124.0, 126.0, 10.0),
            ("vmhwm", "KiB", 124.0, 126.0, 10.0),
        ];
        for (leaf, unit, inside, past, better) in cases {
            let name = format!("s.{leaf}");
            let committed = [rec(&name, 100.0, unit)];
            for ok in [100.0, inside, better] {
                assert!(
                    regressions(&committed, &[rec(&name, ok, unit)]).is_empty(),
                    "{leaf} at {ok} should pass"
                );
            }
            let regs = regressions(&committed, &[rec(&name, past, unit)]);
            assert_eq!(regs.len(), 1, "{leaf} at {past} should fail");
            assert!(
                regs[0].starts_with(&format!("{name}: {past} {unit}")),
                "{regs:?}"
            );
        }
        // Exactly at the bound passes; only a change beyond it fails.
        let at_bound = 100.0 * (1.0 + 0.15);
        assert!(regressions(
            &[rec("s.mean", 100.0, "ns")],
            &[rec("s.mean", at_bound, "ns")]
        )
        .is_empty());
        // Ungated leaves never regress.
        assert!(regressions(&[rec("s.min", 1.0, "ns")], &[rec("s.min", 9e9, "ns")]).is_empty());
        assert!(regressions(&[rec("s.p50", 1.0, "ns")], &[rec("s.p50", 9e9, "ns")]).is_empty());
    }

    #[test]
    fn rows_on_only_one_side_are_skipped() {
        let committed = [
            rec("retired.mean", 100.0, "ns"),
            rec("kept.mean", 100.0, "ns"),
        ];
        let fresh = [rec("new.mean", 9e9, "ns"), rec("kept.mean", 200.0, "ns")];
        let regs = regressions(&committed, &fresh);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].starts_with("kept.mean:"), "{regs:?}");
        assert!(regs[0].contains("+100.0%"), "{regs:?}");
    }

    #[test]
    fn zero_committed_values_never_divide() {
        for leaf in GATES.iter().map(|g| g.leaf) {
            let name = format!("z.{leaf}");
            let regs = regressions(&[rec(&name, 0.0, "u")], &[rec(&name, 5.0, "u")]);
            assert!(regs.is_empty(), "{leaf}: {regs:?}");
        }
    }

    /// A report path of this test's own, so parallel tests never share one.
    fn temp_report(test: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("xtask-report-{}-{test}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// The same harness stdout for every run of a report.
    fn runs(stdout: &str) -> [&str; RUNS] {
        [stdout; RUNS]
    }

    #[test]
    fn a_report_without_records_fails_unless_the_suite_may_skip() {
        let path = temp_report("empty");
        let [kernels, serving, mem] = &SUITES;
        for check in [false, true] {
            assert_eq!(
                update(kernels, &path, &runs("noise\n"), check),
                ExitCode::from(2)
            );
            assert_eq!(update(serving, &path, &runs(""), check), ExitCode::from(2));
            assert_eq!(
                update(mem, &path, &runs("VmHWM unavailable\n"), check),
                ExitCode::SUCCESS
            );
        }
        assert!(!path.exists());
    }

    #[test]
    fn each_record_is_the_median_of_the_runs_so_one_stall_is_not_written() {
        let path = temp_report("median");
        let suite = &SUITES[0];
        let run = |mean: f64, min: f64| {
            format!(
                "{}\n{}\n",
                rec("k.mean", mean, "ns"),
                rec("k.min", min, "ns")
            )
        };
        // The second run stalled: its mean reads 3x the others'.
        let stdout = [run(100.0, 90.0), run(300.0, 95.0), run(110.0, 80.0)];
        assert_eq!(update(suite, &path, &stdout, false), ExitCode::SUCCESS);
        let json = std::fs::read_to_string(&path).expect("report written");
        let medians = [rec("k.mean", 110.0, "ns"), rec("k.min", 90.0, "ns")];
        assert_eq!(parse_section(&json, "current"), medians);
        // A check reads the median too: one run at 3x the committed mean
        // passes, two fail.
        assert_eq!(update(suite, &path, &stdout, true), ExitCode::SUCCESS);
        let stalled = [run(330.0, 90.0), run(100.0, 90.0), run(330.0, 90.0)];
        assert_eq!(update(suite, &path, &stalled, true), ExitCode::FAILURE);
        std::fs::remove_file(&path).expect("remove temp report");
    }

    #[test]
    fn a_record_missing_from_one_run_fails_the_report() {
        let path = temp_report("missing");
        let both = format!(
            "{}\n{}\n",
            rec("a.mean", 1.0, "ns"),
            rec("b.mean", 2.0, "ns")
        );
        let only_a = format!("{}\n", rec("a.mean", 1.0, "ns"));
        // The last run printed nothing: a failure even where a report
        // with no records at all skips.
        let nothing = String::new();
        for check in [false, true] {
            for suite in &SUITES {
                for stdout in [
                    [&both, &both, &only_a],
                    [&only_a, &both, &both],
                    [&both, &both, &nothing],
                ] {
                    assert_eq!(update(suite, &path, &stdout, check), ExitCode::from(2));
                }
            }
        }
        assert_eq!(
            median_records(&[&both, &both, &only_a]),
            Err("`b.mean` is missing from run 3 of 3".to_string())
        );
        assert!(!path.exists());
    }

    #[test]
    fn check_compares_with_current_and_never_writes() {
        let path = temp_report("check");
        let suite = &SUITES[1];
        let fresh = |pps: f64| format!("{}\n", rec("s.pps", pps, "1/s"));
        assert_eq!(
            update(suite, &path, &runs(&fresh(86.0)), true),
            ExitCode::from(2)
        );
        // Against the baseline 86 would be a -91% drop; against current
        // it is inside the 15% bound.
        let committed = render(
            &suite.command(),
            &[rec("s.pps", 1000.0, "1/s")],
            &[rec("s.pps", 100.0, "1/s")],
        );
        std::fs::write(&path, &committed).expect("write temp report");
        assert_eq!(
            update(suite, &path, &runs(&fresh(86.0)), true),
            ExitCode::SUCCESS
        );
        assert_eq!(
            update(suite, &path, &runs(&fresh(84.0)), true),
            ExitCode::FAILURE
        );
        assert_eq!(std::fs::read_to_string(&path).ok(), Some(committed));
        std::fs::remove_file(&path).expect("remove temp report");
    }

    #[test]
    fn a_run_seeds_then_keeps_the_baseline_and_rewrites_current() {
        let path = temp_report("write");
        let suite = &SUITES[2];
        let run = |kib: f64| format!("noise\n{}\n", rec("d.vmhwm", kib, "KiB"));
        assert_eq!(
            update(suite, &path, &runs(&run(100.0)), false),
            ExitCode::SUCCESS
        );
        assert_eq!(
            update(suite, &path, &runs(&run(200.0)), false),
            ExitCode::SUCCESS
        );
        let json = std::fs::read_to_string(&path).expect("report written");
        assert_eq!(
            json,
            render(
                &suite.command(),
                &[rec("d.vmhwm", 100.0, "KiB")],
                &[rec("d.vmhwm", 200.0, "KiB")]
            )
        );
        std::fs::remove_file(&path).expect("remove temp report");
    }

    #[test]
    fn committed_reports_share_one_schema_and_cover_every_gate() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        // The file each gated leaf is recorded in.
        let gated_in = [
            ("mean", "BENCH_kernels.json"),
            ("pps", "BENCH_serving.json"),
            ("p99", "BENCH_serving.json"),
            ("vmhwm", "BENCH_graph.json"),
        ];
        assert_eq!(gated_in.len(), GATES.len());
        for suite in &SUITES {
            let json = std::fs::read_to_string(root.join(suite.file)).expect("committed report");
            let baseline = parse_section(&json, "baseline");
            let current = parse_section(&json, "current");
            assert!(!baseline.is_empty(), "{}: empty baseline", suite.file);
            assert!(!current.is_empty(), "{}: empty current", suite.file);
            for r in baseline.iter().chain(&current) {
                assert!(!r.unit.is_empty(), "{}: {} has no unit", suite.file, r.name);
                assert!(
                    r.value.is_finite(),
                    "{}: {} is {}",
                    suite.file,
                    r.name,
                    r.value
                );
            }
            // The file is exactly what the renderer writes for its harness.
            assert_eq!(
                render(&suite.command(), &baseline, &current),
                json,
                "{}",
                suite.file
            );
            for (leaf, _) in gated_in.iter().filter(|(_, file)| *file == suite.file) {
                for (title, records) in [("baseline", &baseline), ("current", &current)] {
                    assert!(
                        records.iter().any(|r| r.leaf() == *leaf),
                        "{}: no `{leaf}` record in {title}",
                        suite.file
                    );
                }
            }
        }
        for (leaf, _) in gated_in {
            assert!(GATES.iter().any(|g| g.leaf == leaf), "{leaf} is not gated");
        }
    }
}
