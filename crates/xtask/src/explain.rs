//! Rule catalogue: one entry per rule of `xtask analyze` with its
//! rationale and fix guidance, printed by `xtask explain <code>`.

/// One rule's documentation.
pub struct RuleDoc {
    /// Rule id as it appears in findings (`R1`, `A10`, `allow`).
    pub code: &'static str,
    /// Allow-comment key (`// lint: allow(<key>) <reason>`).
    pub key: &'static str,
    /// One-line title.
    pub title: &'static str,
    /// Why the rule exists (what failure it prevents in this codebase).
    pub rationale: &'static str,
    /// How to fix a finding (or when to annotate instead).
    pub fix: &'static str,
}

/// Every rule and pass, in report order.
pub const CATALOGUE: &[RuleDoc] = &[
    RuleDoc {
        code: "R1",
        key: "unwrap",
        title: "no unwrap/expect in non-test library code",
        rationale: "A panic inside training or serving tears down the worker and \
                    loses in-flight requests; every fallible path should surface a \
                    typed error the caller can handle.",
        fix: "Return a Result, use `let .. else`/`match`, or annotate with \
              `// lint: allow(unwrap) <why the invariant holds>` when the \
              panic is a contract violation worth crashing on.",
    },
    RuleDoc {
        code: "R2",
        key: "float-cmp",
        title: "no direct float == / != outside tests",
        rationale: "Exact float equality silently fails after any reordering or \
                    optimization; the RETINA reproduction pins bit-identity in \
                    dedicated tests, not ad-hoc comparisons.",
        fix: "Compare with an explicit epsilon tolerance, or annotate \
              `// lint: allow(float-cmp) <reason>` for genuine bit-level checks.",
    },
    RuleDoc {
        code: "R4",
        key: "index",
        title: "tensor element access goes through get/set, not raw indexing",
        rationale: "Raw `data[i * cols + j]` indexing bypasses the shape checks \
                    and breaks silently when a layout changes.",
        fix: "Use the Matrix accessors; annotate `// lint: allow(index)` \
              inside the blessed kernels where the bounds are hoisted.",
    },
    RuleDoc {
        code: "allow",
        key: "allow",
        title: "allow-comments must carry a reason and silence a finding",
        rationale: "A bare `// lint: allow(key)` records that a finding was \
                    silenced but not why, which makes the suppression \
                    unreviewable. It suppresses nothing and is itself a \
                    failing finding, for every key; `float-flow` is shared \
                    by A10–A11. A reasoned allow with no finding of its key \
                    on its line or the next is a failing finding too: it \
                    would hide the next bug written there. Only a plain \
                    `//` comment is an allow; doc comments are prose. \
                    Allow-comments are the only way to silence a finding.",
        fix: "State the invariant that makes the finding safe, in at least a \
              few words: `// lint: allow(key) <reason>`. Delete an allow \
              that silences nothing.",
    },
    RuleDoc {
        code: "A2",
        key: "determinism",
        title: "no unseeded RNG, hash-order iteration, or wall-clock in results",
        rationale: "Training and aggregation must replay bit-identically for the \
                    regression suites; HashMap iteration order and wall-clock \
                    reads make results machine-dependent.",
        fix: "Use seeded RNG, BTreeMap/BTreeSet for iterated state, and keep \
              clock reads out of result paths (annotate latency-only clocks with \
              `// lint: allow(determinism) <reason>`).",
    },
    RuleDoc {
        code: "A3",
        key: "lossy-cast (also: index-underflow)",
        title: "lossy narrowing casts and unchecked index arithmetic",
        rationale: "A silently truncating `as` cast or an underflowing index \
                    subtraction corrupts data instead of failing.",
        fix: "Use try_from/saturating_sub, or annotate bounded casts with \
              `// lint: allow(lossy-cast) <bound invariant>`.",
    },
    RuleDoc {
        code: "A4",
        key: "panic-reach",
        title: "panics reachable from the hot path",
        rationale: "unwrap/expect/panic!/unguarded indexing reachable from \
                    forward/backward/train_retina/predict/serving crashes a \
                    worker mid-request; the call chain in the finding shows \
                    the route.",
        fix: "Make the callee infallible or return a Result along the chain; \
              for indexing, state the precondition it relies on in a \
              `debug_assert!` or iterate instead; contract panics keep \
              `// lint: allow(panic-reach) <invariant>`.",
    },
    RuleDoc {
        code: "A6",
        key: "discard-result",
        title: "discarded Result values",
        rationale: "`let _ = fallible()` silently swallows errors that the \
                    caller should at least log or propagate.",
        fix: "Handle or propagate the Result; annotate deliberate fire-and-\
              forget sites with `// lint: allow(discard-result) <reason>`.",
    },
    RuleDoc {
        code: "A7",
        key: "lock",
        title: "lock discipline: nothing but std methods under a lock",
        rationale: "A critical section that takes a second lock, calls \
                    workspace code or a closure, or blocks on a channel, join \
                    or print can deadlock or stall every thread behind the \
                    serving queue; an `if`-guarded condvar wait misses \
                    spurious wakeups, and a change with no `notify_*` strands \
                    sleeping waiters.",
        fix: "Move the call out of the critical section (compute before the \
              lock, store under it), wait in a `while`/`loop` opened under the \
              guard, and notify after every change a waiter depends on \
              (DESIGN.md §11).",
    },
    RuleDoc {
        code: "A10",
        key: "float-flow",
        title: "division/log/sqrt guards on the hot path",
        rationale: "A division, ln/log, or sqrt whose operand is not provably \
                    epsilon-guarded/positive in a function reachable from the \
                    serving/training roots, or anywhere in loss.rs, \
                    attention.rs or gru.rs, is one degenerate batch away from \
                    NaN — and NaN in a served probability is an incident, not \
                    a test diff.",
        fix: "Floor the operand (`.max(EPS)`, `.max(1)` on an integer count \
              before the cast — bit-identical for non-empty inputs), guard \
              the branch, or annotate \
              `// lint: allow(float-flow) <why it cannot be zero>`; the \
              finding names the defining site of the operand.",
    },
    RuleDoc {
        code: "A11",
        key: "float-flow",
        title: "probability-domain escapes",
        rationale: "Values flowing into WeightedBce::loss_probs, predict_proba \
                    heads, and prob-named bindings must stay in [0,1]; \
                    arithmetic without a clamp can push them outside and the \
                    weighted-BCE logs then explode.",
        fix: "Clamp to [EPS, 1-EPS], produce the value through the sigmoid \
              family, or annotate `// lint: allow(float-flow) <range proof>`.",
    },
    RuleDoc {
        code: "A13",
        key: "unsafe-contract",
        title: "unsafe contracts: SAFETY comments and feature-gated dispatch",
        rationale: "An `unsafe` block without a written obligation rots into \
                    folklore; a `#[target_feature]` fn called outside a \
                    runtime `is_x86_feature_detected!` check is undefined \
                    behaviour on older hosts; unchecked indexing and raw-\
                    pointer arithmetic outside the blessed AVX2 kernels \
                    trades the memory-safety baseline for nothing the \
                    dispatch tier doesn't already provide.",
        fix: "Write a `// SAFETY:` comment directly above the unsafe block \
              stating the invariant that discharges it, guard every \
              `#[target_feature]` call behind `is_x86_feature_detected!`, \
              and keep unchecked ops inside `crates/nn/src/tensor.rs`; \
              annotate `// lint: allow(unsafe-contract) <proof>` only with \
              the obligation written out.",
    },
    RuleDoc {
        code: "A14",
        key: "mem-flow",
        title: "capacity and growth discipline on the hot path",
        rationale: "A hot-path `Vec::new()` filled by a loop whose length was \
                    derivable pays O(log n) reallocations and copies for \
                    nothing; a growable collection on a long-lived struct \
                    with inserts but no remove/clear/len-bound is a slow \
                    leak that only shows up days into a serving run.",
        fix: "Pre-size with `Vec::with_capacity` from the derivable bound \
              (bit-identical: capacity never changes contents), bound or \
              drain long-lived collections, or annotate \
              `// lint: allow(mem-flow) <why the growth is bounded>`.",
    },
];

/// Look up one rule by id (case-insensitive).
pub fn lookup(code: &str) -> Option<&'static RuleDoc> {
    CATALOGUE.iter().find(|d| d.code.eq_ignore_ascii_case(code))
}

/// Render one rule for the terminal.
pub fn render(doc: &RuleDoc) -> String {
    format!(
        "{} — {}\n  allow key: {}\n  why: {}\n  fix: {}\n",
        doc.code, doc.title, doc.key, doc.rationale, doc.fix
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_analysis_pass_and_rule_is_documented() {
        for code in [
            "R1", "R2", "R4", "allow", "A2", "A3", "A4", "A6", "A7", "A10", "A11", "A13", "A14",
        ] {
            assert!(lookup(code).is_some(), "missing catalogue entry for {code}");
        }
        assert_eq!(CATALOGUE.iter().filter(|d| d.code == "A7").count(), 1);
    }

    #[test]
    fn lookup_is_case_insensitive_and_render_has_the_parts() {
        let doc = lookup("a10").expect("a10");
        let text = render(doc);
        assert!(text.contains("A10") && text.contains("float-flow"));
        assert!(text.contains("why:") && text.contains("fix:"));
    }

    #[test]
    fn unknown_codes_miss() {
        // Retired ids miss like any unknown code.
        for code in ["A1", "A5", "R3", "A8", "A9", "A99"] {
            assert!(lookup(code).is_none(), "{code}");
        }
    }
}
