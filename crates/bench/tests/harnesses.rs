//! The `retina_serve` and `graph_mem` harnesses run to completion and
//! print only records on stdout: one
//! `"<scenario>.<leaf>": {"value": <number>, "unit": "<unit>"}` per line,
//! the format `cargo run -p xtask -- {serving,mem}-report` reads.

use std::process::Command;

/// Run a harness binary, assert it exits 0, and return its records as
/// `(name, value, unit)`, failing on any stdout line that is not one.
fn records(bin: &str, args: &[&str]) -> Vec<(String, f64, String)> {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("spawn harness");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{bin} {args:?} failed:\n{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let parsed: Vec<_> = stdout
        .lines()
        .map(|line| {
            let parse = || {
                let (name, rest) = line.strip_prefix('"')?.split_once("\": {\"value\": ")?;
                let (value, rest) = rest.split_once(", \"unit\": \"")?;
                let unit = rest.strip_suffix("\"}")?;
                Some((
                    name.to_string(),
                    value.parse::<f64>().ok()?,
                    unit.to_string(),
                ))
            };
            let record = parse().unwrap_or_else(|| panic!("not a record: {line:?}"));
            assert!(record.1.is_finite(), "non-finite value: {line:?}");
            assert!(!record.2.is_empty(), "no unit: {line:?}");
            record
        })
        .collect();
    assert!(!parsed.is_empty(), "{bin} {args:?} printed no records");
    parsed
}

/// Every scenario of the serving harness, with its four records.
fn assert_serving_records(records: &[(String, f64, String)]) {
    let names: Vec<&str> = records.iter().map(|r| r.0.as_str()).collect();
    for scenario in [
        "serve/static_w1",
        "serve/static_w2",
        "serve/static_w4",
        "serve/static_f32_w2",
    ] {
        for leaf in ["pps", "p50", "p99", "requests"] {
            let name = format!("{scenario}.{leaf}");
            assert!(names.contains(&name.as_str()), "missing {name}: {names:?}");
        }
    }
    assert_eq!(records.len(), 16, "{names:?}");
}

#[test]
fn retina_serve_serves_a_snapshot_it_did_not_train() {
    // The golden fixture's d_user (6) differs from the harness model's.
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../serving/tests/fixtures/golden.snap"
    );
    let records = records(env!("CARGO_BIN_EXE_retina_serve"), &["serve", fixture]);
    assert_serving_records(&records);
}

#[test]
fn retina_serve_bench_prints_only_records() {
    let records = records(env!("CARGO_BIN_EXE_retina_serve"), &["bench"]);
    assert_serving_records(&records);
}

/// Linux-only: VmHWM comes from `/proc/self/status`.
#[cfg(target_os = "linux")]
#[test]
fn graph_mem_prints_only_records() {
    let records = records(env!("CARGO_BIN_EXE_graph_mem"), &[]);
    let names: Vec<&str> = records.iter().map(|r| r.0.as_str()).collect();
    assert_eq!(
        names,
        [
            "dataset/generate_tiny.vmhwm",
            "dataset/generate_tiny.users",
            "dataset/generate_tiny.tweets",
            "dataset/generate_tiny.retweets",
            "dataset/generate_default.vmhwm",
            "dataset/generate_default.users",
            "dataset/generate_default.tweets",
            "dataset/generate_default.retweets",
        ]
    );
    assert!(records.iter().all(|r| r.1 > 0.0), "{records:?}");
}
