#!/usr/bin/env bash
# Repo health check: build, test, compile the benches, run the
# determinism + address-provenance + panic-freedom + layering gates
# (static lint, with injected-violation self-tests for both the
# provenance and call-graph passes, + runtime divergence self-check),
# and prove the refactors did not perturb simulated results (every
# deterministic result under results/ must regenerate bit-identically).
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
cargo build --release --manifest-path hostbench/Cargo.toml

echo "==> cargo test -q"
cargo test -q

echo "==> cargo bench --no-run (criterion harness compiles; gated offline)"
cargo bench --no-run -p nesc-bench

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

echo "==> nesc-bench check: divergence self-check + every deterministic result byte-identical"
# Runs the same-seed double-run divergence self-check, then regenerates
# every deterministic registry entry into target/nesc-bench-check/ (left
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
    verdict=$(cargo run --release -q --manifest-path hostbench/Cargo.toml -- \
        --workload "$workload" --seed 7 --seconds 1 --trace 1 | tail -n 1)
    if [[ "$verdict" != *'"correct": true'* ]]; then
        echo "FAIL: hostbench $workload no longer reproduces its run: $verdict" >&2
        exit 1
    fi
    echo "OK: hostbench $workload correct"
done

echo "==> nesc-inspect: worst-request breakdown must match its span tree"
# `why` exits non-zero if the latency breakdown reconstructed from ring
# events disagrees with the one derived from the exemplar's span tree.
if ! cargo run --release -q -p nesc-bench --bin nesc-inspect -- why >/dev/null; then
    echo "FAIL: nesc-inspect why found an event/span breakdown mismatch" >&2
    exit 1
fi
echo "OK: event-derived breakdown matches the span-derived one"

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

echo "==> throughput gate: hot-path blocks/sec floor (interleaved A/B, min of 5)"
# The harness itself interleaves per-block/batched repeats and keeps each
# mode's minimum, so one invocation here is already noise-dodged. Floors
# are env-overridable for slower CI hosts.
#   NESC_GATE_NS_PER_BLOCK  — batched ns/block ceiling on seq-64k/btlb8
#                             (12.5 == the >= 25% improvement over the
#                             16.653 ns/block BinaryHeap-era baseline,
#                             == a floor of 80M simulated blocks/sec)
#   NESC_GATE_SPEEDUP       — batched/per-block floor on every btlb>0 series
# btlb=0 series execute identical code in both modes (run cap clamps to 1),
# so they are checked only for parity within noise (>= 0.95).
cargo run --release -q -p nesc-bench -- run bench_hotpath >/dev/null
NESC_GATE_NS_PER_BLOCK="${NESC_GATE_NS_PER_BLOCK:-12.5}" \
NESC_GATE_SPEEDUP="${NESC_GATE_SPEEDUP:-1.2}" \
python3 - <<'PY'
import json, os, sys
data = json.load(open("results/BENCH_hotpath.json"))
ns_ceiling = float(os.environ["NESC_GATE_NS_PER_BLOCK"])
speedup_floor = float(os.environ["NESC_GATE_SPEEDUP"])
fail = []
for s in data["series"]:
    key = f"btlb{s['btlb_entries']}/{s['stream']}/{s['request']}"
    floor = speedup_floor if s["btlb_entries"] > 0 else 0.95
    if s["speedup"] < floor:
        fail.append(f"{key}: speedup {s['speedup']:.2f} < floor {floor}")
    if s["btlb_entries"] == 8 and s["stream"] == "seq" and s["request"] == "64k":
        ns = s["batched_ns_per_block"]
        if ns > ns_ceiling:
            fail.append(f"{key}: batched {ns:.2f} ns/block > ceiling {ns_ceiling}")
        else:
            print(f"OK: seq-64k/btlb8 batched {ns:.2f} ns/block "
                  f"({1e9 / ns / 1e6:.0f}M blocks/sec, ceiling {ns_ceiling} ns)")
if fail:
    print("FAIL: hot-path throughput gate:\n  " + "\n  ".join(fail), file=sys.stderr)
    sys.exit(1)
print("OK: all series within speedup floors")
PY

echo "==> telemetry gate: sampler + flight-recorder overhead ceilings at the 50 us interval"
#   NESC_GATE_TELEMETRY_PCT — max % host overhead with telemetry on at 50 us
#   NESC_GATE_FLIGHT_PCT    — max % marginal cost of the flight recorder
#                             over telemetry alone at the same interval
# The harness interleaves 200 short rounds per mode and compares
# quiet-decile costs, but a busy host can still poison one measurement;
# one full re-measurement is allowed before the gate fails.
for attempt in 1 2; do
    cargo run --release -q -p nesc-bench -- run telemetry_overhead >/dev/null
    if NESC_GATE_TELEMETRY_PCT="${NESC_GATE_TELEMETRY_PCT:-20}" \
       NESC_GATE_FLIGHT_PCT="${NESC_GATE_FLIGHT_PCT:-5}" \
       python3 - <<'PY'
import json, os, sys
data = json.load(open("results/BENCH_telemetry.json"))
tel_ceiling = float(os.environ["NESC_GATE_TELEMETRY_PCT"])
fl_ceiling = float(os.environ["NESC_GATE_FLIGHT_PCT"])
tel = data["overhead_50us_percent"]
fl = data["overhead_flight_percent"]
fail = []
if tel > tel_ceiling:
    fail.append(f"telemetry overhead at 50 us is {tel:.1f}% > ceiling {tel_ceiling}%")
if fl > fl_ceiling:
    fail.append(f"flight recorder marginal cost is {fl:.1f}% > ceiling {fl_ceiling}%")
if fail:
    print("FAIL: " + "; ".join(fail), file=sys.stderr)
    sys.exit(1)
print(f"OK: telemetry overhead {tel:.1f}% (ceiling {tel_ceiling}%), "
      f"flight recorder marginal {fl:.1f}% (ceiling {fl_ceiling}%)")
PY
    then
        break
    elif [ "$attempt" -eq 2 ]; then
        echo "FAIL: overhead gate failed on both measurements" >&2
        exit 1
    else
        echo "    overhead gate missed once; re-measuring (noisy host?)"
    fi
done

echo "==> all checks passed"
