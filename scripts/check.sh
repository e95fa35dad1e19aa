#!/usr/bin/env bash
# Repo health check: build, test, run the determinism +
# address-provenance + panic-freedom + layering gates (static lint, with
# injected-violation self-tests for both the provenance and call-graph
# passes, + runtime divergence self-check), and prove the refactors did
# not perturb simulated results (every result under results/ must
# regenerate bit-identically). Host time is hostbench's to measure
# (BENCHMARK.json); the only wall-clock bound here is the scale-out
# gate's 10x-headroom ceiling.
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> size census: non-test lines and probe emission sites (report only)"
scripts/loc.sh

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --release (hostbench)"
# The host-cost benchmark is its own workspace, so the root build never
# compiles it; build it here so an API change that breaks it shows now.
# Build and run it with BENCHMARK.json's `--config` (its rustflags), so
# hostbench/target holds the one binary a benchmark run uses instead of
# two code layouts that rebuild over each other.
bench_config=$(python3 -c '
import json
cmd = json.load(open("BENCHMARK.json"))["command"]
print(cmd[cmd.index("--config") + 1])')
hostbench() {
    cargo --config "$bench_config" "$1" --release -q --manifest-path hostbench/Cargo.toml "${@:2}"
}
hostbench build

echo "==> cargo test -q"
cargo test -q

echo "==> nesc-lint: determinism + provenance + guest-taint + panic-freedom + layering rules"
echo "    (D1-D7, T1-T3, G1-G3, A1-A3, P1-P3, L1)"
# The JSON report — every diagnostic including directive-suppressed ones,
# plus the size of the conservative data-path reachable set — is kept as
# results/lint.json so CI can publish it as an auditable artifact.
mkdir -p results
if ! cargo run --release -q -p nesc-lint -- --format json > results/lint.json; then
    cargo run --release -q -p nesc-lint || true
    echo "FAIL: nesc-lint found rule violations (rule ids above);" >&2
    echo "      fix them or add a justified 'nesc-lint::allow(<rule>): <why>' directive" >&2
    exit 1
fi
reachable=$(python3 -c 'import json; print(json.load(open("results/lint.json"))["reachable_functions"])')
echo "OK: workspace lint-clean (results/lint.json written; ${reachable} data-path fns tracked)"

# Each lint self-test writes a scratch file with one known violation to
# $inject; expect_lint_rejects <rule> <pass> demands a non-zero exit.
inject="crates/core/src/nesc_lint_selftest_injected.rs"
trap 'rm -f "$inject"' EXIT
expect_lint_rejects() {
    if cargo run --release -q -p nesc-lint -- "$inject" >/dev/null 2>&1; then
        rm -f "$inject"
        echo "FAIL: nesc-lint passed a file with a known $1 violation —" >&2
        echo "      the $2 pass is not armed" >&2
        exit 1
    fi
    rm -f "$inject"
    echo "OK: injected $1 violation rejected"
}

echo "==> nesc-lint self-test: an injected T2 violation must fail the gate"
# The provenance pass runs before the golden comparison; prove it is
# actually armed by linting a file that unwraps a vLBA outside a
# boundary module.
printf 'pub fn leak(vlba: Vlba) -> u64 {\n    vlba.0\n}\n' > "$inject"
expect_lint_rejects T2 provenance

echo "==> nesc-lint self-test: an injected P1 violation must fail the gate"
# Same idea for the panic-freedom pass: a scratch file that defines a
# data-path entry point and unwraps on it must be rejected, proving the
# call-graph analyzer arms itself on explicit path arguments too.
printf 'pub fn process_vf_request(x: Option<u64>) -> u64 {\n    x.unwrap()\n}\n' > "$inject"
expect_lint_rejects P1 panic-freedom

echo "==> nesc-lint self-test: an injected G3 taint violation must fail the gate"
# And for the guest-taint pass: a scratch file where a guest-input source
# feeds the translation walk with no validator on the path must be
# rejected, proving the interprocedural taint analysis is armed.
printf '%s\n' \
    '// nesc-lint: guest-input' \
    'fn guest_slba() -> Untrusted<u64> {' \
    '    Untrusted::new(9)' \
    '}' \
    'pub fn process_vf_request(mem: &HostMemory, root: u64) -> u64 {' \
    '    let slba = guest_slba();' \
    '    walk_run(mem, root, slba, 1)' \
    '}' > "$inject"
expect_lint_rejects G3 guest-taint

echo "==> nesc-bench check: divergence self-check + every result byte-identical"
# Runs the same-seed double-run divergence self-check, then regenerates
# every registry entry into target/nesc-bench-check/ (left
# there for inspection) and byte-compares each file against results/. A
# mismatch names the file and its first divergent JSON path (or line).
if ! cargo run --release -q -p nesc-bench -- check; then
    echo "FAIL: a regenerated result differs from its committed golden" >&2
    echo "      (or the simulator diverged between same-seed runs)" >&2
    exit 1
fi

echo "==> hostbench smoke: every workload, every layer rung, correct results"
# `--trace 1` runs each workload on the layer ladder (bare, telemetry,
# watchdog, flight recorder, span tracer) — the only runs of the probe
# with tracing alone and with the recorder alone. Only the workload's own
# correctness verdict is gated here, never its timings.
for workload in paper prune_pressure fleet fleet_250; do
    verdict=$(hostbench run -- --workload "$workload" --seed 7 --seconds 1 --trace 1 | tail -n 1)
    if [[ "$verdict" != *'"correct": true'* ]]; then
        echo "FAIL: hostbench $workload no longer reproduces its run: $verdict" >&2
        exit 1
    fi
    echo "OK: hostbench $workload correct"
done

echo "==> nesc-inspect: worst-request breakdown must match its tallied latency"
# `why` exits non-zero, naming the request, if the worst exemplar's span
# phases leave a gap in its root or do not sum to the end-to-end latency
# the tally timed from its issue and finish.
if ! cargo run --release -q -p nesc-bench --bin nesc-inspect -- why >/dev/null; then
    echo "FAIL: nesc-inspect why found the worst request's span phases untiled" >&2
    echo "      or off its tallied latency" >&2
    exit 1
fi
echo "OK: the worst request's span phases tile it and sum to its tallied latency"

echo "==> scale-out gate: the 1000-VF mixed scenario must finish fast"
# The full datacenter mix (850 steady + 100 bursty + 50 noisy VFs) must
# finish in seconds of host time — the acceptance bar for the scenario
# engine (its bytes were gated above). The run takes ~1 s on a 2-vCPU
# host; the 10 s default keeps 10x headroom and still fails a return of
# the quadratic per-window rule lookup (~20 s).
#   NESC_GATE_SCALE_SECS — host wall-clock ceiling (env-overridable for
#                          slower CI hosts)
scale_start=$SECONDS
cargo run --release -q -p nesc-bench -- run scale_out >/dev/null
scale_secs=$((SECONDS - scale_start))
scale_ceiling="${NESC_GATE_SCALE_SECS:-10}"
if [ "$scale_secs" -gt "$scale_ceiling" ]; then
    echo "FAIL: 1000-VF scenario took ${scale_secs}s > ceiling ${scale_ceiling}s" >&2
    exit 1
fi
echo "OK: 1000-VF scenario in ${scale_secs}s host (ceiling ${scale_ceiling}s)"

echo "==> all checks passed"
