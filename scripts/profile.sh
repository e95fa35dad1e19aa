#!/usr/bin/env bash
# Report-only sampling profile of one hostbench workload, for hosts
# without `perf`. Builds hostbench with frame pointers and line tables
# (into target/profile, so the benchmark's own build is untouched), runs
# it under scripts/sampler.c (LD_PRELOAD, 10 kHz SIGPROF), symbolizes
# the samples with `addr2line -i` and prints the top self and inclusive
# frames. A sample interrupted in a shared library (a libc `memcpy`, say)
# is charged to "[library] <- call site in function from its caller":
# the call site is the word at the stack pointer, the caller the first
# saved frame. Set-up and the warm-up round are sampled too.
# With FOCUS=<frame> (a function name or its trailing path, e.g.
# `Telemetry::poll`) it then breaks down the samples under that frame:
# its share of all samples, its direct callees and the self frames below
# it. Never run by check.sh; it prints numbers and gates nothing.
#
# Usage: scripts/profile.sh <workload> [seconds]   (default 10 s)
#        TOP=40 SEED=7 scripts/profile.sh fleet_250 5
#        FOCUS=Telemetry::poll scripts/profile.sh fleet 8
set -euo pipefail
cd "$(dirname "$0")/.."

workload=${1:?usage: scripts/profile.sh <workload> [seconds]}
seconds=${2:-10}
dir=target/profile
mkdir -p "$dir"

echo "==> building hostbench with frame pointers and line tables" >&2
CARGO_TARGET_DIR=$dir CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
    cargo --config 'build.rustflags=["-Cllvm-args=-align-all-functions=6", "-Cforce-frame-pointers=yes"]' \
    build --release --quiet --manifest-path hostbench/Cargo.toml
cc -O2 -shared -fPIC -o "$dir/sampler.so" scripts/sampler.c -lrt

exe=$(realpath "$dir/release/nesc-hostbench")
samples="$dir/$workload.samples"
echo "==> sampling $workload for ${seconds} s" >&2
PROFILE_OUT=$samples LD_PRELOAD=$(realpath "$dir/sampler.so") "$exe" \
    --workload "$workload" --seed "${SEED:-7}" --seconds "$seconds" --trace 0 | tail -n 1

python3 - "$samples" "$exe" "${TOP:-25}" "${FOCUS:-}" <<'PY'
import collections, os, re, struct, subprocess, sys

path, exe, top, focus = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
raw = open(path, "rb").read()
words = struct.unpack(f"<{len(raw) // 8}Q", raw)
samples, i = [], 0
while i < len(words):
    n = words[i]
    samples.append(words[i + 1 : i + 1 + n])
    i += 1 + n

maps = []
for line in open(path + ".maps"):
    f = line.split()
    if len(f) >= 6:
        lo, hi = (int(x, 16) for x in f[0].split("-"))
        maps.append((lo, hi, f[5]))
base = min(lo for lo, _, p in maps if p == exe)

def owner(a):
    return next((p for lo, hi, p in maps if lo <= a < hi), None)

# Each sample as (self address or library, [exe addresses, innermost first]).
# Return addresses are moved back one byte onto their call instruction.
parsed = []
for s in samples:
    if len(s) < 2:
        continue
    rip, at_rsp, rets = s[0], s[1], [r - 1 for r in s[2:]]
    if owner(rip) == exe:
        parsed.append((rip, [rip] + rets))
    else:
        lib = os.path.basename(owner(rip) or "?")
        caller = [at_rsp - 1] if owner(at_rsp) == exe else []
        parsed.append((lib, caller + rets))

addrs = sorted({a for _, st in parsed for a in st if owner(a) == exe})
out = subprocess.run(
    ["addr2line", "-e", exe, "-f", "-i", "-C", "-a"],
    input="\n".join(hex(a - base) for a in addrs),
    capture_output=True, text=True, check=True,
).stdout.splitlines()
# Per address: its line, then (function, file:line) pairs, innermost first.
chains, cur = {}, []
for line in out:
    if re.fullmatch(r"0x[0-9a-f]+", line):
        cur = chains.setdefault(int(line, 16) + base, [])
        odd = False
    else:
        if not odd:
            cur.append(re.sub(r"::h[0-9a-f]{16}$", "", line))
        odd = not odd

def frames(a):
    """Function names at `a`, innermost inlined frame first."""
    if owner(a) != exe:
        return [f"[{os.path.basename(owner(a) or '?')}]"]
    return chains.get(a) or [hex(a)]

selfc, incl = collections.Counter(), collections.Counter()
# Per sample: its self label and its own frames, innermost first.
labelled = []
for s, stack in parsed:
    if isinstance(s, str):
        # A library leaf: name the call site (inlined helper and
        # function) and the function that called that one.
        site = frames(stack[0]) if stack else []
        label = f"[{s}]" + (f" <- {site[0]}" if site else "")
        label += f" in {site[-1]}" if site and site[-1] != site[0] else ""
        label += f" from {frames(stack[1])[-1]}" if len(stack) > 1 else ""
    else:
        label = frames(s)[0]
    selfc[label] += 1
    # Inclusive: every frame of the program's own, up to `main`.
    names = [f for a in stack for f in frames(a) if owner(a) == exe]
    if "main" in names:
        names = names[: names.index("main")]
    incl.update({label} | set(names))
    labelled.append((label, names))

total = len(parsed)
print(f"{total} samples ({total / 1e4:.1f} s at 10 kHz)")
for title, counts in (("self", selfc), ("inclusive", incl)):
    print(f"\ntop {top} {title} frames:")
    for name, n in counts.most_common(top):
        print(f"  {100 * n / total:6.2f}%  {name}")

if focus:
    def is_focus(name):
        return name == focus or name.endswith("::" + focus)
    callees, leaves = collections.Counter(), collections.Counter()
    for label, names in labelled:
        at = [i for i, f in enumerate(names) if is_focus(f)]
        if not at:
            continue
        j = at[-1]  # the outermost activation
        callee = names[j - 1] if j > 0 else ("(self)" if label == names[0] else label)
        callees[callee] += 1
        leaves[label] += 1
    under = sum(leaves.values())
    print(f"\nfocus {focus}: {under} samples, {100 * under / max(total, 1):.2f}% of all")
    for title, counts in (("direct callees", callees), ("self frames below it", leaves)):
        print(f"\n{title} (% of all, % of {focus}):")
        for name, n in counts.most_common(top):
            print(f"  {100 * n / total:6.2f}%  {100 * n / under:6.2f}%  {name}")
PY
