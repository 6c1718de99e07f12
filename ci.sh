#!/usr/bin/env bash
# Local CI gate — run before pushing. Fails fast on the first broken step.
#
#   ./ci.sh            # fmt-check, analyze, release build, tests
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n== %s ==\n' "$*"; }

if cargo fmt --version >/dev/null 2>&1; then
    step "cargo fmt --check"
    cargo fmt --all -- --check
else
    echo "rustfmt unavailable — skipping format check"
fi

step "xtask analyze"
# The one static gate: the line rules (R1 unwrap, R2 float-cmp, R4
# index) and the semantic passes (A2 determinism, A3 cast-safety, A4
# panic-reachability, A6 discarded-Result, A7 lock discipline, A10
# division/log-guard, A11 probability-domain, A13 unsafe-contract, A14
# capacity/growth). Prints and fails on any finding; a reasoned
# `// lint: allow(<key>) <reason>` is the only way to silence one.
# `cargo run -p xtask -- explain <rule>` documents any failing rule.
cargo run -p xtask -- analyze

step "cargo build --release"
cargo build --release

step "cargo test"
# A debug build, so `nn`'s numeric sanitizer is armed and
# tests/sanitize.rs runs (release builds compile both away).
cargo test -q

step "workspace test suites (release)"
# `cargo test -q` builds only the root package. Every other crate's
# tests run here: kernel parity (on the leg this CPU takes, and the
# portable-vs-AVX2 comparison), f32 parity, the golden pins, server
# determinism and the stress suite, the xtask real-tree pins (zero
# analyze findings, A13, the A4 root set, the committed BENCH_*.json
# reports), the harness runs that check `retina_serve` and `graph_mem`
# print only records, and the bench/ml/text/socialsim/diffusion unit
# tests. Release mode keeps the training-heavy suites to under a minute
# on a 2-core host once built.
cargo test -q --release --workspace

step "experiments (--smoke)"
# Every table and figure of the paper through the binaries that
# regenerate it: exp_all prints each section with the same
# `bench::print` function as that section's own exp_* binary, and the
# other three run the RETINA ablation sweeps, the beyond-organic suite
# and the detector comparison. About 30 s on a 2-core host once built;
# a panic in any experiment fails the gate. Stdout (the tables) is
# dropped; the setup and timing notices stay on stderr.
for exp in exp_all exp_ablations exp_beyond_organic exp_detectors; do
    cargo run --release -q -p bench --bin "$exp" -- --smoke >/dev/null
done

step "snapshot corruption and round-trip suites (debug)"
# The release suites above run with overflow checks off, where an
# arithmetic overflow in a decoder wraps into a wrong error instead of
# panicking, and with debug assertions off, where a sample whose label
# columns do not match the model's intervals trains silently. The
# corruption matrix (11 tests) and the randomized snapshot round trips
# (about 0.1 s together once built) run once more in the debug profile,
# where both trap.
cargo test -q -p serving --test corruption --test snapshot_roundtrip

step "nn tests (debug)"
# The release workspace step runs nn's tests with the numeric sanitizer
# compiled away; the only other debug run of them is the opt-in
# RETINA_TSAN job, which skips itself without nightly. Here they run
# with it armed and with overflow checks on, so
# `gradient_fingerprint_is_bit_stable_across_profiles` and the recurrent
# pin in tests/kernel_parity.rs check their constants in both profiles,
# and every layer test, the recurrent backward suites of
# kernel_parity.rs and tests/training_convergence.rs pass through the
# sanitizer's checks. About 6 s once built.
cargo test -q -p nn

step "ml tests (debug)"
# The classical learners run in debug too: the tree growers' index
# arithmetic then has overflow checks, and the GBDT split search checks
# its `debug_assert!` that every hessian is positive. The worker-count
# suites (`gbdt::tests::every_worker_count_fits_the_oracle_s_trees`,
# `tree::tests::every_worker_count_grows_the_same_tree`) fit at 1, 2, 3
# and 8 split-search workers here, so the block slicing and the merge
# run with those checks armed. About a second once built.
cargo test -q -p ml

step "text tests (debug)"
# The TF-IDF fit numbers its terms with `u32` ids, stamps documents with
# `u32` indices and counts in integers; the release workspace step runs
# `text`'s tests with overflow checks off, so here they run once more
# with them on, the fit's oracle suites (the tiny simulated corpus
# among them) included. About 3 s once built.
cargo test -q -p text

step "serving load harness"
# The full harness (4 scenarios x 4,000 requests, under a second once
# built) proves the snapshot + server path works end to end: build a
# snapshot, start workers, drain under load. It prints records only;
# `cargo run -p xtask -- serving-report` turns them into
# BENCH_serving.json.
cargo run --release -p bench --bin retina_serve -- bench

step "perfbench build + unit tests"
# perfbench/ is its own Cargo workspace (BENCHMARK.json runs it), so no
# step above compiles it. Building and unit-testing it here catches an
# API change in serving/core/nn that would break the benchmark.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

step "perfbench workloads (one short run each)"
# The unit tests above run no workload, so they miss a change that fails
# one of perfbench's own checks: served answers byte-equal to a restored
# replica, identical passes, the f32 tolerance. A one-second run of each
# workload runs all of them (about 35 s in total on a 2-core host);
# perfbench exits 1 on any failed check.
for workload in retweet_pipeline serve_open_loop hategen_table4; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0
done

step "substrates bench smoke (bench --test)"
# `cargo test` builds no [[bench]] target, so this is the step that
# compiles the one there is, `substrates`. `--test` times each routine
# once, which proves it still builds and every routine runs, without
# paying for real measurements. Full numbers come from
# `cargo run -p xtask -- bench-report` (see BENCH_kernels.json).
cargo bench -p bench --benches -- --test

if [[ "${RETINA_BENCH_CHECK:-0}" == "1" ]]; then
    # Each check re-runs one harness and compares its records with the
    # `current` section of the committed BENCH_*.json, through the one
    # gate table in `xtask::report`. Opt-in (slow, and noisy on loaded
    # machines).
    step "bench regression check"
    # Fails on any kernel `mean` more than 15% slower.
    cargo run -p xtask -- bench-report --check

    step "serving regression check"
    # Fails on a `pps` drop beyond 15% or a `p99` rise beyond 25%.
    cargo run -p xtask -- serving-report --check

    step "memory ceiling check"
    # Fails when any scenario's `vmhwm` (peak RSS) grows more than 25%.
    # Skips itself off Linux.
    cargo run -p xtask -- mem-report --check
fi

if [[ "${RETINA_TSAN:-0}" == "1" ]]; then
    # ThreadSanitizer over the concurrency surface: the serving test
    # suite (queue dispatch, stress/backpressure races), the nn crate's
    # tests (the par worker pool) and the ml crate's tests (the tree
    # learners' split searches and the forest run scoped threads through
    # nn::par). Complements the static A7 lock pass with a dynamic race
    # detector. Opt-in: needs a nightly toolchain with rust-src — std
    # must be rebuilt instrumented (-Zbuild-std) or its sync primitives
    # show up as false positives.
    if rustup run nightly rustc --version >/dev/null 2>&1 \
        && [[ -f "$(rustup run nightly rustc --print sysroot)/lib/rustlib/src/rust/library/Cargo.lock" ]]; then
        step "thread-sanitizer (serving + nn + ml tests, nightly)"
        TSAN_TARGET="$(rustc -vV | sed -n 's/^host: //p')"
        RUSTFLAGS="-Zsanitizer=thread" \
        RUSTDOCFLAGS="-Zsanitizer=thread" \
            cargo +nightly test -q -Zbuild-std \
                --target "$TSAN_TARGET" \
                --target-dir target/tsan \
                -p serving -p nn -p ml --tests
    else
        echo "RETINA_TSAN=1 but no nightly toolchain with rust-src — skipping thread-sanitizer run"
    fi
fi

printf '\nci.sh: all gates passed\n'
