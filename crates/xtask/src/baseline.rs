//! Committed finding baseline: grandfathers legacy findings so the
//! analysis gate can be strict for new code without demanding a
//! big-bang cleanup.
//!
//! The baseline file (`xtask-baseline.json` at the workspace root) maps
//! finding fingerprints (rule + path + message, line-independent) to the
//! number of occurrences allowed. `analyze --baseline` subtracts the
//! baseline from the findings; anything left fails the run.
//! `analyze --update-baseline` rewrites the file from the current
//! findings.

use crate::passes::Finding;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Name of the baseline file at the workspace root.
pub const BASELINE_FILE: &str = "xtask-baseline.json";

/// Parsed baseline: fingerprint → allowed occurrence count.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Baseline {
    entries: BTreeMap<u64, usize>,
}

impl Baseline {
    /// Load from `root/xtask-baseline.json`. A missing file is an empty
    /// baseline; a malformed file is an error (a silently-ignored
    /// baseline would un-grandfather everything).
    pub fn load(root: &Path) -> Result<Self, String> {
        let path = root.join(BASELINE_FILE);
        if !path.is_file() {
            return Ok(Self::default());
        }
        let raw = fs::read_to_string(&path).map_err(|e| format!("read {BASELINE_FILE}: {e}"))?;
        Self::parse(&raw)
    }

    /// Parse the JSON payload. The parser only needs the two fields the
    /// tool itself writes (`fingerprint`, `count`), scanned with a
    /// tolerant string walk — no JSON dependency in the toolchain.
    pub fn parse(raw: &str) -> Result<Self, String> {
        let mut entries = BTreeMap::new();
        let mut rest = raw;
        while let Some(pos) = rest.find("\"fingerprint\"") {
            rest = &rest[pos + "\"fingerprint\"".len()..];
            let open = rest.find('"').ok_or("fingerprint value is not a string")?;
            let tail = &rest[open + 1..];
            let close = tail.find('"').ok_or("unterminated fingerprint string")?;
            let fp = u64::from_str_radix(&tail[..close], 16)
                .map_err(|_| format!("bad fingerprint `{}`", &tail[..close]))?;
            rest = &tail[close + 1..];
            // `count` follows within the same object; default 1.
            let obj_end = rest.find('}').unwrap_or(rest.len());
            let count = match rest[..obj_end].find("\"count\"") {
                Some(cpos) => {
                    let after = &rest[..obj_end][cpos + "\"count\"".len()..];
                    let digits: String = after
                        .chars()
                        .skip_while(|c| !c.is_ascii_digit())
                        .take_while(|c| c.is_ascii_digit())
                        .collect();
                    digits.parse().map_err(|_| "bad count".to_string())?
                }
                None => 1,
            };
            *entries.entry(fp).or_insert(0) += count;
        }
        Ok(Self { entries })
    }

    /// Total grandfathered occurrences.
    pub fn len(&self) -> usize {
        self.entries.values().sum()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Split findings into (kept, baselined-count). Each baseline entry
    /// absorbs up to `count` findings with the same fingerprint.
    pub fn apply(&self, findings: Vec<Finding>) -> (Vec<Finding>, usize) {
        let (kept, absorbed) = self.split(findings);
        (kept, absorbed.len())
    }

    /// Split findings into (kept, absorbed). Re-rendering exactly the
    /// absorbed set is a pruned baseline: stale fingerprints drop out
    /// and counts shrink to what still occurs.
    pub fn split(&self, findings: Vec<Finding>) -> (Vec<Finding>, Vec<Finding>) {
        let mut budget = self.entries.clone();
        let mut kept = Vec::with_capacity(findings.len());
        let mut absorbed =
            Vec::with_capacity(self.entries.values().sum::<usize>().min(findings.len()));
        for f in findings {
            match budget.get_mut(&f.fingerprint()) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    absorbed.push(f);
                }
                _ => kept.push(f),
            }
        }
        (kept, absorbed)
    }

    /// Grandfathered occurrences no current finding matches — the count
    /// `analyze --prune-baseline` would remove. Nonzero means the
    /// baseline has gone stale (a fixed finding left its entry behind).
    pub fn stale(&self, findings: &[Finding]) -> usize {
        let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
        for f in findings {
            *counts.entry(f.fingerprint()).or_insert(0) += 1;
        }
        self.entries
            .iter()
            .map(|(fp, n)| n.saturating_sub(counts.get(fp).copied().unwrap_or(0)))
            .sum()
    }

    /// Serialize findings as a fresh baseline payload (sorted, with
    /// context fields so reviewers can read the file).
    pub fn render(findings: &[Finding]) -> String {
        let mut grouped: BTreeMap<u64, (usize, &Finding)> = BTreeMap::new();
        for f in findings {
            grouped
                .entry(f.fingerprint())
                .and_modify(|e| e.0 += 1)
                .or_insert((1, f));
        }
        let mut out = String::from("{\n  \"version\": 1,\n  \"entries\": [\n");
        let n = grouped.len();
        for (i, (fp, (count, f))) in grouped.into_iter().enumerate() {
            out.push_str(&format!(
                "    {{\"fingerprint\": \"{:016x}\", \"count\": {}, \"rule\": {}, \
                 \"path\": {}, \"message\": {}}}{}\n",
                fp,
                count,
                json_str(f.rule),
                json_str(&f.path),
                json_str(&f.message),
                if i + 1 < n { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write the baseline for `findings` to `root/xtask-baseline.json`.
    pub fn save(root: &Path, findings: &[Finding]) -> std::io::Result<()> {
        fs::write(root.join(BASELINE_FILE), Self::render(findings))
    }
}

/// JSON string literal with escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::Severity;

    fn finding(path: &str, msg: &str, line: usize) -> Finding {
        Finding {
            rule: "A3",
            key: "lossy-cast",
            severity: Severity::Warning,
            path: path.into(),
            line,
            message: msg.into(),
        }
    }

    #[test]
    fn roundtrip_absorbs_exactly_the_baselined_findings() {
        let old = vec![
            finding("crates/ml/src/a.rs", "m1", 3),
            finding("crates/ml/src/a.rs", "m1", 9), // same fingerprint, count 2
            finding("crates/nn/src/b.rs", "m2", 1),
        ];
        let payload = Baseline::render(&old);
        let base = Baseline::parse(&payload).expect("parses");
        assert_eq!(base.len(), 3);

        // Same findings at shifted lines are absorbed; a new one is kept.
        let now = vec![
            finding("crates/ml/src/a.rs", "m1", 4),
            finding("crates/ml/src/a.rs", "m1", 10),
            finding("crates/nn/src/b.rs", "m2", 2),
            finding("crates/nn/src/b.rs", "m3", 5),
        ];
        let (kept, absorbed) = base.apply(now);
        assert_eq!(absorbed, 3);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].message, "m3");
    }

    #[test]
    fn count_budget_is_per_fingerprint() {
        let base = Baseline::parse(&Baseline::render(&[finding("p.rs", "m", 1)])).unwrap();
        let (kept, absorbed) = base.apply(vec![finding("p.rs", "m", 1), finding("p.rs", "m", 2)]);
        assert_eq!(absorbed, 1);
        assert_eq!(kept.len(), 1, "second occurrence exceeds the budget");
    }

    #[test]
    fn stale_counts_the_unmatched_grandfathered_occurrences() {
        let base = Baseline::parse(&Baseline::render(&[
            finding("p.rs", "m1", 1),
            finding("p.rs", "m1", 2),
            finding("p.rs", "m2", 3),
        ]))
        .unwrap();
        // m1 now occurs once (one fixed), m2 is gone entirely.
        let now = vec![finding("p.rs", "m1", 1)];
        assert_eq!(base.stale(&now), 2);
        assert_eq!(base.stale(&[]), 3);

        // Re-rendering the absorbed split prunes exactly the stale part.
        let (_, absorbed) = base.split(now);
        let pruned = Baseline::parse(&Baseline::render(&absorbed)).unwrap();
        assert_eq!(pruned.len(), 1);
        assert_eq!(pruned.stale(&[finding("p.rs", "m1", 1)]), 0);
    }

    #[test]
    fn render_escapes_quotes_and_backslashes() {
        let payload = Baseline::render(&[finding("p.rs", "say \"hi\" to C:\\tmp", 1)]);
        assert!(
            payload.contains(r#""message": "say \"hi\" to C:\\tmp""#),
            "{payload}"
        );
        assert_eq!(Baseline::parse(&payload).expect("parses").len(), 1);
    }

    #[test]
    fn missing_file_is_empty_and_malformed_is_an_error() {
        let root = std::env::temp_dir().join("xtask-baseline-missing");
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        assert!(Baseline::load(&root).unwrap().is_empty());
        assert!(Baseline::parse("{\"fingerprint\": \"zzz\"}").is_err());
    }
}
