#!/usr/bin/env bash
# Local CI gate — run before pushing. Fails fast on the first broken step.
#
#   ./ci.sh            # fmt-check, lint, release build, tests
#   ./ci.sh --sanitize # additionally run the test-suite with the numeric
#                      # sanitizer enabled (--features sanitize)
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n== %s ==\n' "$*"; }

if cargo fmt --version >/dev/null 2>&1; then
    step "cargo fmt --check"
    cargo fmt --all -- --check
else
    echo "rustfmt unavailable — skipping format check"
fi

step "xtask lint"
cargo run -p xtask -- lint

step "xtask analyze"
# Semantic passes (A1 shape-flow, A2 determinism, A3 cast-safety, A4
# panic-reachability, A5 hot-loop allocation, A6 discarded-Result, A7
# lock-order, A8 blocking-under-lock, A9 condvar-discipline, A10
# division/log-guard, A11 probability-domain, A12 reduction-inventory,
# A13 unsafe-contract, A14 capacity/growth, A15 footprint-inventory).
# Fails on any finding not grandfathered in xtask-baseline.json; the
# SARIF log is kept for CI systems and editors that ingest it.
# `cargo run -p xtask -- explain <rule>` documents any failing rule.
mkdir -p target
cargo run -p xtask -- analyze --format sarif --baseline > target/analyze.sarif

step "cargo build --release"
cargo build --release

step "cargo test"
cargo test -q

step "crate test suites (release)"
# `cargo test -q` builds only the root package. Kernel parity, f32
# parity, both golden pins, server determinism and the stress suite live
# in these crates; release mode keeps the training-heavy core unit tests
# to ~30 s on a 2-core host once built.
cargo test -q --release -p nn -p retina-core -p serving

step "simd feature matrix"
# The matmul kernels (f64 and f32) ship an opt-in AVX2 dispatch path
# behind the `simd` feature (DESIGN.md §13). Build it everywhere; run the nn parity
# suites under it only when the host CPU can actually take the AVX2
# branch, so bit-identity of simd-on vs simd-off is exercised for real.
cargo build -q --release --features simd
if grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
    cargo test -q -p nn --features simd
else
    echo "host CPU lacks AVX2 — simd build checked, runtime tests skipped"
fi

step "serving load-harness smoke"
# Tiny request counts — proves the snapshot + batched-server path works
# end to end (build snapshot, start workers, drain under load). Full
# numbers come from `cargo run -p xtask -- serving-report` (see
# BENCH_serving.json).
cargo run --release -p bench --bin retina_serve -- bench --smoke

step "criterion smoke (bench --test)"
# One sample per benchmark — proves the bench suite still compiles and
# every routine runs, without paying for real measurements. Full numbers
# come from `cargo run -p xtask -- bench-report` (see BENCH_kernels.json).
cargo bench -p bench --bench substrates -- --test

if [[ "${RETINA_BENCH_CHECK:-0}" == "1" ]]; then
    step "bench regression check"
    # Full measurement run compared against the committed
    # BENCH_kernels.json `current` section; fails on any kernel row more
    # than 15% slower. Opt-in (slow, and noisy on loaded machines).
    cargo run -p xtask -- bench-report --check

    step "serving regression check"
    # Full load run compared against the committed BENCH_serving.json
    # `current` section; fails on a >15% throughput drop or a >25% p99
    # latency rise on any scenario.
    cargo run -p xtask -- serving-report --check

    step "memory ceiling check"
    # Dataset generation re-measured against the committed
    # BENCH_graph.json `current` section; fails when any scenario's
    # peak RSS (VmHWM) grows more than 25%. Skips itself off Linux.
    cargo run -p xtask -- mem-report --check
fi

if [[ "${1:-}" == "--sanitize" ]]; then
    step "cargo test --features sanitize"
    cargo test -q --features sanitize
fi

if [[ "${RETINA_TSAN:-0}" == "1" ]]; then
    # ThreadSanitizer over the concurrency surface: the serving test
    # suite (batched server, stress/backpressure races) and the nn
    # crate's tests (the par worker pool). Complements the static A7–A9
    # passes with a dynamic race detector. Opt-in: needs a nightly
    # toolchain with rust-src — std must be rebuilt instrumented
    # (-Zbuild-std) or its sync primitives show up as false positives.
    if rustup run nightly rustc --version >/dev/null 2>&1 \
        && [[ -f "$(rustup run nightly rustc --print sysroot)/lib/rustlib/src/rust/library/Cargo.lock" ]]; then
        step "thread-sanitizer (serving + nn tests, nightly)"
        TSAN_TARGET="$(rustc -vV | sed -n 's/^host: //p')"
        RUSTFLAGS="-Zsanitizer=thread" \
        RUSTDOCFLAGS="-Zsanitizer=thread" \
            cargo +nightly test -q -Zbuild-std \
                --target "$TSAN_TARGET" \
                --target-dir target/tsan \
                -p serving -p nn --tests
    else
        echo "RETINA_TSAN=1 but no nightly toolchain with rust-src — skipping thread-sanitizer run"
    fi
fi

printf '\nci.sh: all gates passed\n'
