//! Rule catalogue: one entry per lint rule / analysis pass with its
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
        code: "R3",
        key: "prob-guard",
        title: "probability math in loss/attention/gru must be epsilon-guarded",
        rationale: "ln(0) and division by an unguarded sum produce NaN/Inf that \
                    poison every downstream gradient; the paper's weighted BCE \
                    works on probabilities that must stay inside (0, 1).",
        fix: "Clamp to [EPS, 1-EPS] (or `.max(EPS)` a denominator) before the \
              log/division; A10/A11 verify these guards inter-procedurally.",
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
        title: "allow-comments must carry a reason",
        rationale: "A bare `// lint: allow(key)` records that a finding was \
                    silenced but not why, which makes the suppression \
                    unreviewable. It suppresses nothing, and for the lint \
                    keys (`unwrap`, `float-cmp`, `prob-guard`, `index`) and \
                    the A4, A5 and A7–A14 keys it is itself a failing \
                    finding; `float-flow` is shared by A10–A11.",
        fix: "State the invariant that makes the finding safe, in at least a \
              few words: `// lint: allow(key) <reason>`.",
    },
    RuleDoc {
        code: "A1",
        key: "shape",
        title: "RETINA graph wiring and symbolic shape contract",
        rationale: "Rebuilds the user-dense → merge → static/dynamic-head graph \
                    from retina.rs and evaluates symbolic dims, so a mis-wired \
                    layer fails analysis instead of producing garbage outputs.",
        fix: "Restore the documented wiring contract (DESIGN.md §6) or update \
              the expected-graph model alongside a deliberate architecture \
              change.",
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
                    forward/backward/fit/predict/serving crashes a worker \
                    mid-request; the call chain in the finding shows the route.",
        fix: "Make the callee infallible or return a Result along the chain; \
              contract panics keep `// lint: allow(panic-reach) <invariant>`.",
    },
    RuleDoc {
        code: "A5",
        key: "hot-alloc",
        title: "allocation inside hot-path loops",
        rationale: "Per-iteration Vec/Box/format allocation in forward/backward \
                    loops dominates small-model runtime; the kernels thread \
                    scratch buffers instead.",
        fix: "Hoist the allocation out of the loop or reuse a scratch buffer \
              (see tensor.rs `*_into` variants).",
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
        key: "lock-order",
        title: "lock-acquisition-order cycles",
        rationale: "Two threads taking the same locks in different orders can \
                    each wait on the other forever; a cycle in the global \
                    acquisition-order graph is a latent deadlock.",
        fix: "Pick one global acquisition order or narrow a region so the \
              locks are never held together (DESIGN.md §11).",
    },
    RuleDoc {
        code: "A8",
        key: "lock-block",
        title: "blocking calls while holding a lock",
        rationale: "Waiting on a condvar/channel/join/IO while holding an \
                    unrelated lock stalls every thread that needs it and can \
                    deadlock the serving pipeline.",
        fix: "Drop the guard before blocking (move the blocking call out of \
              the region), or annotate a proven-bounded wait.",
    },
    RuleDoc {
        code: "A9",
        key: "condvar",
        title: "condvar discipline: while-loops and notify pairing",
        rationale: "`if`-guarded waits miss spurious wakeups; mutating condvar-\
                    associated state without a notify strands sleeping waiters.",
        fix: "Re-check the predicate in a `while` loop around every wait and \
              notify after every associated-state mutation.",
    },
    RuleDoc {
        code: "A10",
        key: "float-flow",
        title: "division/log/sqrt guards on the hot path",
        rationale: "A division, ln/log, or sqrt whose operand is not provably \
                    epsilon-guarded/positive in a function reachable from the \
                    serving/training roots is one degenerate batch away from \
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
                    weighted-BCE logs then explode. Upgrades the token-local \
                    R3 guard check to the inter-procedural value domain.",
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
                    pointer arithmetic outside the blessed simd kernels \
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
            "R1", "R2", "R3", "R4", "allow", "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9",
            "A10", "A11", "A13", "A14",
        ] {
            assert!(lookup(code).is_some(), "missing catalogue entry for {code}");
        }
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
        assert!(lookup("A99").is_none());
    }
}
